//! The exact penalty transform (the paper's Theorem 2).
//!
//! A constrained program
//!
//! ```text
//! minimize f(x)   s.t.   g(x) ≤ 0,   h(x) = 0
//! ```
//!
//! with affine `g` and `h` is converted into the unconstrained form
//!
//! ```text
//! f(x) + μ Σᵢ |hᵢ(x)| + μ Σⱼ [gⱼ(x)]₊
//! ```
//!
//! which, for sufficiently large `μ`, has the *same* minimizer (Bertsekas,
//! Prop. 5.5.2 — the paper's Theorem 2). A squared-hinge variant
//! `f + μ Σ hᵢ² + μ Σ [gⱼ]₊²` is also provided, matching the quadratic
//! penalties the paper uses for sorting (eq. 4.4).

use crate::cost::CostFunction;
use crate::error::CoreError;
use robustify_linalg::Matrix;
use stochastic_fpu::Fpu;

/// The functional form of constraint-violation penalties.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PenaltyKind {
    /// L1 exact penalty: `|h|` and `[g]₊` (Theorem 2's form).
    Abs,
    /// Squared hinge: `h²` and `[g]₊²` (the paper's eq. 4.4 form; smooth,
    /// but exact only in the limit `μ → ∞`).
    #[default]
    Squared,
}

/// A block of affine constraint rows `A x − b` (interpreted as `≤ 0` or
/// `= 0` depending on where it is attached).
///
/// # Examples
///
/// ```
/// use robustify_core::AffineConstraints;
/// use robustify_linalg::Matrix;
/// use stochastic_fpu::ReliableFpu;
///
/// # fn main() -> Result<(), robustify_core::CoreError> {
/// // x0 + x1 ≤ 1 encoded as [1 1]·x − 1.
/// let c = AffineConstraints::new(Matrix::from_rows(&[&[1.0, 1.0]])?, vec![1.0])?;
/// let r = c.evaluate(&[0.25, 0.25], &mut ReliableFpu::new());
/// assert_eq!(r, vec![-0.5]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AffineConstraints {
    a: Matrix,
    b: Vec<f64>,
}

impl AffineConstraints {
    /// Creates the constraint block `A x − b`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DimensionMismatch`] if `b.len() != a.rows()`.
    pub fn new(a: Matrix, b: Vec<f64>) -> Result<Self, CoreError> {
        if b.len() != a.rows() {
            return Err(CoreError::shape(
                format!("b of length {}", a.rows()),
                format!("length {}", b.len()),
            ));
        }
        Ok(AffineConstraints { a, b })
    }

    /// Number of constraint rows.
    pub fn len(&self) -> usize {
        self.a.rows()
    }

    /// Whether the block has no rows (never true for a constructed value,
    /// since [`Matrix`] dimensions are positive).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of variables the rows act on.
    pub fn dim(&self) -> usize {
        self.a.cols()
    }

    /// The coefficient matrix `A`.
    pub fn matrix(&self) -> &Matrix {
        &self.a
    }

    /// The offsets `b`.
    pub fn rhs(&self) -> &[f64] {
        &self.b
    }

    /// Evaluates all rows `A x − b` through the FPU.
    pub fn evaluate<F: Fpu>(&self, x: &[f64], fpu: &mut F) -> Vec<f64> {
        let mut r = self.a.matvec(fpu, x).expect("x has dim() entries");
        fpu.sub_assign_batch(&self.b, &mut r);
        r
    }

    /// Adds `coef × aᵢ` to `grad` for row `i`, through the FPU.
    ///
    /// Batched per maximal run of non-zero row entries
    /// ([`for_nonzero_runs`](robustify_linalg::for_nonzero_runs)), which
    /// preserves the historical per-entry zero skip — and with it the FLOP
    /// sequence — exactly.
    fn accumulate_row<F: Fpu>(&self, i: usize, coef: f64, fpu: &mut F, grad: &mut [f64]) {
        if coef == 0.0 {
            return;
        }
        let row = self.a.row(i);
        robustify_linalg::for_nonzero_runs(row, |start, end| {
            fpu.axpy_batch(coef, &row[start..end], &mut grad[start..end]);
        });
    }
}

/// The unconstrained exact-penalty form of a constrained program.
///
/// Wraps an objective with optional equality rows (`E x − d = 0`),
/// inequality rows (`A x − b ≤ 0`) and non-negativity (`x ≥ 0`), weighting
/// violations by an annealable penalty parameter `μ`.
///
/// # Examples
///
/// ```
/// use robustify_core::{AffineConstraints, CostFunction, LinearCost, PenaltyCost, PenaltyKind};
/// use robustify_linalg::Matrix;
/// use stochastic_fpu::ReliableFpu;
///
/// # fn main() -> Result<(), robustify_core::CoreError> {
/// // minimize -x0 subject to x0 ≤ 1: penalized cost -x0 + μ[x0 − 1]₊.
/// let ineq = AffineConstraints::new(Matrix::from_rows(&[&[1.0]])?, vec![1.0])?;
/// let cost = PenaltyCost::new(LinearCost::new(vec![-1.0]), 10.0, PenaltyKind::Abs)?
///     .with_inequalities(ineq)?;
/// let mut fpu = ReliableFpu::new();
/// assert_eq!(cost.cost(&[2.0], &mut fpu), -2.0 + 10.0);
/// assert_eq!(cost.cost(&[0.5], &mut fpu), -0.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PenaltyCost<C> {
    objective: C,
    eq: Option<AffineConstraints>,
    ineq: Option<AffineConstraints>,
    nonneg: bool,
    mu: f64,
    kind: PenaltyKind,
}

impl<C: CostFunction> PenaltyCost<C> {
    /// Wraps `objective` with penalty weight `mu` and the given penalty
    /// form. Constraints are attached with the `with_*` builder methods.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `mu` is not positive and
    /// finite.
    pub fn new(objective: C, mu: f64, kind: PenaltyKind) -> Result<Self, CoreError> {
        if !mu.is_finite() || mu <= 0.0 {
            return Err(CoreError::invalid_config(format!(
                "penalty parameter must be positive and finite, got {mu}"
            )));
        }
        Ok(PenaltyCost {
            objective,
            eq: None,
            ineq: None,
            nonneg: false,
            mu,
            kind,
        })
    }

    /// Attaches equality rows `E x − d = 0`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DimensionMismatch`] if the rows act on a
    /// different number of variables than the objective.
    pub fn with_equalities(mut self, eq: AffineConstraints) -> Result<Self, CoreError> {
        if eq.dim() != self.objective.dim() {
            return Err(CoreError::shape(
                format!("constraints on {} variables", self.objective.dim()),
                format!("{} variables", eq.dim()),
            ));
        }
        self.eq = Some(eq);
        Ok(self)
    }

    /// Attaches inequality rows `A x − b ≤ 0`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DimensionMismatch`] if the rows act on a
    /// different number of variables than the objective.
    pub fn with_inequalities(mut self, ineq: AffineConstraints) -> Result<Self, CoreError> {
        if ineq.dim() != self.objective.dim() {
            return Err(CoreError::shape(
                format!("constraints on {} variables", self.objective.dim()),
                format!("{} variables", ineq.dim()),
            ));
        }
        self.ineq = Some(ineq);
        Ok(self)
    }

    /// Additionally penalizes negative coordinates (`x ≥ 0`), without
    /// materializing an identity constraint block.
    pub fn with_nonneg(mut self) -> Self {
        self.nonneg = true;
        self
    }

    /// The current penalty parameter `μ`.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// The penalty form in use.
    pub fn kind(&self) -> PenaltyKind {
        self.kind
    }

    /// The wrapped objective.
    pub fn objective(&self) -> &C {
        &self.objective
    }

    /// Total constraint violation `Σ|hᵢ| + Σ[gⱼ]₊ + Σ[−xₖ]₊`, measured with
    /// native arithmetic (a diagnostic, not part of the solve).
    pub fn violation(&self, x: &[f64]) -> f64 {
        let mut fpu = stochastic_fpu::ReliableFpu::new();
        let mut total = 0.0;
        if let Some(eq) = &self.eq {
            total += eq
                .evaluate(x, &mut fpu)
                .iter()
                .map(|h| h.abs())
                // detlint::allow(float-reassociation, reason = "penalty measurement is reliable verification arithmetic")
                .sum::<f64>();
        }
        if let Some(ineq) = &self.ineq {
            total += ineq
                .evaluate(x, &mut fpu)
                .iter()
                .map(|g| g.max(0.0))
                // detlint::allow(float-reassociation, reason = "penalty measurement is reliable verification arithmetic")
                .sum::<f64>();
        }
        if self.nonneg {
            // detlint::allow(float-reassociation, reason = "penalty measurement is reliable verification arithmetic")
            total += x.iter().map(|&v| (-v).max(0.0)).sum::<f64>();
        }
        total
    }

    fn penalty_value<F: Fpu>(&self, violation: f64, fpu: &mut F) -> f64 {
        match self.kind {
            PenaltyKind::Abs => violation.abs(),
            PenaltyKind::Squared => fpu.mul(violation, violation),
        }
    }

    /// The derivative of the penalty term w.r.t. the (positive-part)
    /// violation value, used as the row coefficient in the subgradient.
    fn penalty_slope(&self, violation: f64) -> f64 {
        match self.kind {
            PenaltyKind::Abs => violation.signum(),
            // detlint::allow(fpu-routing, reason = "penalty subgradient scale runs on the reliable control plane")
            PenaltyKind::Squared => 2.0 * violation,
        }
    }
}

impl<C: CostFunction> CostFunction for PenaltyCost<C> {
    fn dim(&self) -> usize {
        self.objective.dim()
    }

    fn cost<F: Fpu>(&self, x: &[f64], fpu: &mut F) -> f64 {
        let mut total = self.objective.cost(x, fpu);
        let mut penalty = 0.0;
        if let Some(eq) = &self.eq {
            for h in eq.evaluate(x, fpu) {
                let p = self.penalty_value(h, fpu);
                penalty = fpu.add(penalty, p);
            }
        }
        if let Some(ineq) = &self.ineq {
            for g in ineq.evaluate(x, fpu) {
                let gplus = g.max(0.0);
                let p = self.penalty_value(gplus, fpu);
                penalty = fpu.add(penalty, p);
            }
        }
        if self.nonneg {
            for &v in x {
                let neg = (-v).max(0.0);
                let p = self.penalty_value(neg, fpu);
                penalty = fpu.add(penalty, p);
            }
        }
        let weighted = fpu.mul(self.mu, penalty);
        total = fpu.add(total, weighted);
        total
    }

    fn gradient<F: Fpu>(&self, x: &[f64], fpu: &mut F, grad: &mut [f64]) {
        self.objective.gradient(x, fpu, grad);
        if let Some(eq) = &self.eq {
            let h = eq.evaluate(x, fpu);
            for (i, &hi) in h.iter().enumerate() {
                let coef = fpu.mul(self.mu, self.penalty_slope(hi));
                eq.accumulate_row(i, coef, fpu, grad);
            }
        }
        if let Some(ineq) = &self.ineq {
            let g = ineq.evaluate(x, fpu);
            for (i, &gi) in g.iter().enumerate() {
                if gi > 0.0 {
                    let coef = fpu.mul(self.mu, self.penalty_slope(gi));
                    ineq.accumulate_row(i, coef, fpu, grad);
                }
            }
        }
        if self.nonneg {
            for (gk, &xk) in grad.iter_mut().zip(x) {
                if xk < 0.0 {
                    // d/dx μ·pen([−x]₊) = −μ·slope(−x)
                    let slope = self.penalty_slope(-xk);
                    let coef = fpu.mul(self.mu, slope);
                    *gk = fpu.sub(*gk, coef);
                }
            }
        }
    }

    fn anneal(&mut self, factor: f64) {
        assert!(
            factor > 0.0 && factor.is_finite(),
            "anneal factor must be positive"
        );
        // Saturate: beyond this the penalty Hessian swamps every step size
        // and the parameter would eventually overflow.
        self.mu = (self.mu * factor).min(1e9);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::LinearCost;
    use crate::test_util::check_gradient;
    use stochastic_fpu::ReliableFpu;

    fn simple_lp_cost(kind: PenaltyKind, mu: f64) -> PenaltyCost<LinearCost> {
        // minimize -x0 - x1 s.t. x0 + x1 ≤ 1, x0 - x1 = 0, x ≥ 0.
        let ineq = AffineConstraints::new(
            Matrix::from_rows(&[&[1.0, 1.0]]).expect("valid rows"),
            vec![1.0],
        )
        .expect("consistent");
        let eq = AffineConstraints::new(
            Matrix::from_rows(&[&[1.0, -1.0]]).expect("valid rows"),
            vec![0.0],
        )
        .expect("consistent");
        PenaltyCost::new(LinearCost::new(vec![-1.0, -1.0]), mu, kind)
            .expect("valid mu")
            .with_inequalities(ineq)
            .expect("dims match")
            .with_equalities(eq)
            .expect("dims match")
            .with_nonneg()
    }

    #[test]
    fn feasible_point_has_no_penalty() {
        for kind in [PenaltyKind::Abs, PenaltyKind::Squared] {
            let cost = simple_lp_cost(kind, 100.0);
            let mut fpu = ReliableFpu::new();
            // x = (0.5, 0.5) is feasible; cost should be exactly cᵀx = -1.
            assert_eq!(cost.cost(&[0.5, 0.5], &mut fpu), -1.0);
            assert!(cost.violation(&[0.5, 0.5]) <= 1e-12);
        }
    }

    #[test]
    fn violations_are_penalized() {
        let cost = simple_lp_cost(PenaltyKind::Abs, 10.0);
        let mut fpu = ReliableFpu::new();
        // x = (1, 1): ineq violated by 1, eq satisfied, nonneg satisfied.
        assert_eq!(cost.cost(&[1.0, 1.0], &mut fpu), -2.0 + 10.0);
        // x = (-1, -1): ineq fine (-3 ≤ 0), eq fine, two nonneg violations.
        assert_eq!(cost.cost(&[-1.0, -1.0], &mut fpu), 2.0 + 20.0);
        assert!((cost.violation(&[-1.0, -1.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn squared_penalty_is_quadratic_in_violation() {
        let cost = simple_lp_cost(PenaltyKind::Squared, 10.0);
        let mut fpu = ReliableFpu::new();
        // ineq violated by 1 -> 10·1²; by 3 -> 10·9.
        assert_eq!(cost.cost(&[1.0, 1.0], &mut fpu), -2.0 + 10.0);
        assert_eq!(cost.cost(&[2.0, 2.0], &mut fpu), -4.0 + 90.0);
    }

    #[test]
    fn gradient_matches_finite_difference_squared() {
        let cost = simple_lp_cost(PenaltyKind::Squared, 7.0);
        // Points chosen away from hinge kinks.
        check_gradient(&cost, &[1.5, 0.3]);
        check_gradient(&cost, &[-0.4, 0.9]);
        check_gradient(&cost, &[0.2, 0.1]);
    }

    #[test]
    fn gradient_matches_finite_difference_abs() {
        let cost = simple_lp_cost(PenaltyKind::Abs, 7.0);
        // Differentiable wherever no constraint is exactly active.
        check_gradient(&cost, &[1.5, 0.3]);
        check_gradient(&cost, &[0.2, 0.1]);
    }

    #[test]
    fn exact_penalty_theorem_holds_for_large_mu() {
        // minimize -x on [0, 1]: optimum x* = 1. With μ > 1 the Abs penalty
        // form has its global minimum at exactly x* (Theorem 2).
        let ineq =
            AffineConstraints::new(Matrix::from_rows(&[&[1.0]]).expect("valid rows"), vec![1.0])
                .expect("consistent");
        let cost = PenaltyCost::new(LinearCost::new(vec![-1.0]), 5.0, PenaltyKind::Abs)
            .expect("valid mu")
            .with_inequalities(ineq)
            .expect("dims match")
            .with_nonneg();
        let mut fpu = ReliableFpu::new();
        let f_star = cost.cost(&[1.0], &mut fpu);
        for &x in &[-0.5, 0.0, 0.25, 0.5, 0.75, 0.99, 1.01, 1.5, 2.0] {
            assert!(
                cost.cost(&[x], &mut fpu) >= f_star - 1e-12,
                "penalized cost at {x} below constrained optimum"
            );
        }
    }

    #[test]
    fn anneal_scales_mu() {
        let mut cost = simple_lp_cost(PenaltyKind::Squared, 2.0);
        cost.anneal(3.0);
        assert_eq!(cost.mu(), 6.0);
        cost.anneal(0.5);
        assert_eq!(cost.mu(), 3.0);
    }

    #[test]
    fn invalid_mu_is_rejected() {
        assert!(PenaltyCost::new(LinearCost::new(vec![1.0]), 0.0, PenaltyKind::Abs).is_err());
        assert!(PenaltyCost::new(LinearCost::new(vec![1.0]), -1.0, PenaltyKind::Abs).is_err());
        assert!(
            PenaltyCost::new(LinearCost::new(vec![1.0]), f64::INFINITY, PenaltyKind::Abs).is_err()
        );
    }

    #[test]
    fn mismatched_constraint_dims_rejected() {
        let eq = AffineConstraints::new(Matrix::identity(3), vec![0.0; 3]).expect("consistent");
        let result = PenaltyCost::new(LinearCost::new(vec![1.0, 1.0]), 1.0, PenaltyKind::Abs)
            .expect("valid mu")
            .with_equalities(eq);
        assert!(result.is_err());
    }

    #[test]
    fn affine_constraints_validate_shapes() {
        assert!(AffineConstraints::new(Matrix::identity(2), vec![0.0]).is_err());
        let c = AffineConstraints::new(Matrix::identity(2), vec![0.0; 2]).expect("consistent");
        assert_eq!(c.len(), 2);
        assert_eq!(c.dim(), 2);
        assert!(!c.is_empty());
    }
}
