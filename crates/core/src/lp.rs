//! Linear programs: the generic combinatorial engine.
//!
//! The paper observes that "a host of other combinatorial problems can be
//! solved exactly on stochastic processors by reduction to linear
//! programming" and that the approach "is quite generic, since linear
//! programming, which is P-complete, can be implemented this way" (§4.7).
//! [`LinearProgram`] is that reduction target: sorting (§4.3), bipartite
//! matching (§4.4), max-flow (§4.5) and all-pairs shortest paths (§4.6) all
//! build one of these and hand it to [`run_sgd`](crate::run_sgd) through
//! [`LinearProgram::penalized`].

use crate::cost::LinearCost;
use crate::error::CoreError;
use crate::penalty::{AffineConstraints, PenaltyCost, PenaltyKind};
use robustify_linalg::Matrix;

/// A linear program `minimize cᵀx` subject to `A x ≤ b`, `E x = d`, and
/// optionally `x ≥ 0`.
///
/// # Examples
///
/// ```
/// use robustify_core::{LinearProgram, PenaltyKind};
/// use robustify_linalg::Matrix;
///
/// # fn main() -> Result<(), robustify_core::CoreError> {
/// // maximize x0 + x1 on the simplex { x ≥ 0, x0 + x1 ≤ 1 }.
/// let lp = LinearProgram::minimize(vec![-1.0, -1.0])
///     .with_upper_bounds(Matrix::from_rows(&[&[1.0, 1.0]])?, vec![1.0])?
///     .with_nonneg();
/// let cost = lp.penalized(50.0, PenaltyKind::Squared)?;
/// # let _ = cost;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinearProgram {
    c: Vec<f64>,
    upper: Option<(Matrix, Vec<f64>)>,
    eq: Option<(Matrix, Vec<f64>)>,
    nonneg: bool,
}

impl LinearProgram {
    /// Starts a program minimizing `cᵀ x`.
    ///
    /// To *maximize* an objective, negate it (as the paper does for sorting
    /// and matching).
    pub fn minimize(c: Vec<f64>) -> Self {
        LinearProgram {
            c,
            upper: None,
            eq: None,
            nonneg: false,
        }
    }

    /// Adds inequality constraints `A x ≤ b`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DimensionMismatch`] if the shapes are
    /// inconsistent with the objective.
    pub fn with_upper_bounds(mut self, a: Matrix, b: Vec<f64>) -> Result<Self, CoreError> {
        check_block(&self.c, &a, &b)?;
        self.upper = Some((a, b));
        Ok(self)
    }

    /// Adds equality constraints `E x = d`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DimensionMismatch`] if the shapes are
    /// inconsistent with the objective.
    pub fn with_equalities(mut self, e: Matrix, d: Vec<f64>) -> Result<Self, CoreError> {
        check_block(&self.c, &e, &d)?;
        self.eq = Some((e, d));
        Ok(self)
    }

    /// Constrains all variables to be non-negative.
    pub fn with_nonneg(mut self) -> Self {
        self.nonneg = true;
        self
    }

    /// Number of variables.
    pub fn dim(&self) -> usize {
        self.c.len()
    }

    /// The objective vector `c`.
    pub fn objective(&self) -> &[f64] {
        &self.c
    }

    /// The inequality block `(A, b)`, if any.
    pub fn upper_bounds(&self) -> Option<(&Matrix, &[f64])> {
        self.upper.as_ref().map(|(a, b)| (a, b.as_slice()))
    }

    /// The equality block `(E, d)`, if any.
    pub fn equalities(&self) -> Option<(&Matrix, &[f64])> {
        self.eq.as_ref().map(|(e, d)| (e, d.as_slice()))
    }

    /// Whether variables are constrained non-negative.
    pub fn is_nonneg(&self) -> bool {
        self.nonneg
    }

    /// Converts to the unconstrained exact-penalty cost of Theorem 2, ready
    /// for a stochastic solver.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `mu` is not positive and
    /// finite.
    pub fn penalized(
        &self,
        mu: f64,
        kind: PenaltyKind,
    ) -> Result<PenaltyCost<LinearCost>, CoreError> {
        let mut cost = PenaltyCost::new(LinearCost::new(self.c.clone()), mu, kind)?;
        if let Some((a, b)) = &self.upper {
            cost = cost.with_inequalities(AffineConstraints::new(a.clone(), b.clone())?)?;
        }
        if let Some((e, d)) = &self.eq {
            cost = cost.with_equalities(AffineConstraints::new(e.clone(), d.clone())?)?;
        }
        if self.nonneg {
            cost = cost.with_nonneg();
        }
        Ok(cost)
    }

    /// Objective value `cᵀ x` with native arithmetic (a measurement).
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        // detlint::allow(float-reassociation, reason = "objective measurement is documented native verification arithmetic")
        self.c.iter().zip(x).map(|(c, x)| c * x).sum()
    }

    /// Total constraint violation of `x` with native arithmetic.
    pub fn violation(&self, x: &[f64]) -> f64 {
        let mut total = 0.0;
        if let Some((a, b)) = &self.upper {
            for (i, bi) in b.iter().enumerate() {
                // detlint::allow(float-reassociation, reason = "feasibility measurement is documented native verification arithmetic")
                let row: f64 = a.row(i).iter().zip(x).map(|(aij, xj)| aij * xj).sum();
                total += (row - bi).max(0.0);
            }
        }
        if let Some((e, d)) = &self.eq {
            for (i, di) in d.iter().enumerate() {
                // detlint::allow(float-reassociation, reason = "feasibility measurement is documented native verification arithmetic")
                let row: f64 = e.row(i).iter().zip(x).map(|(eij, xj)| eij * xj).sum();
                total += (row - di).abs();
            }
        }
        if self.nonneg {
            // detlint::allow(float-reassociation, reason = "feasibility measurement is documented native verification arithmetic")
            total += x.iter().map(|&v| (-v).max(0.0)).sum::<f64>();
        }
        total
    }
}

fn check_block(c: &[f64], m: &Matrix, rhs: &[f64]) -> Result<(), CoreError> {
    if m.cols() != c.len() {
        return Err(CoreError::shape(
            format!("constraints on {} variables", c.len()),
            format!("{} columns", m.cols()),
        ));
    }
    if rhs.len() != m.rows() {
        return Err(CoreError::shape(
            format!("rhs of length {}", m.rows()),
            format!("length {}", rhs.len()),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostFunction;
    use stochastic_fpu::ReliableFpu;

    fn simplex_lp() -> LinearProgram {
        LinearProgram::minimize(vec![-2.0, -1.0])
            .with_upper_bounds(
                Matrix::from_rows(&[&[1.0, 1.0]]).expect("valid rows"),
                vec![1.0],
            )
            .expect("consistent")
            .with_nonneg()
    }

    #[test]
    fn accessors_roundtrip() {
        let lp = simplex_lp();
        assert_eq!(lp.dim(), 2);
        assert_eq!(lp.objective(), &[-2.0, -1.0]);
        assert!(lp.upper_bounds().is_some());
        assert!(lp.equalities().is_none());
        assert!(lp.is_nonneg());
    }

    #[test]
    fn penalized_cost_matches_manual_evaluation() {
        let lp = simplex_lp();
        let cost = lp.penalized(10.0, PenaltyKind::Abs).expect("valid mu");
        let mut fpu = ReliableFpu::new();
        // Feasible vertex (1, 0): objective -2, no penalty.
        assert_eq!(cost.cost(&[1.0, 0.0], &mut fpu), -2.0);
        // Infeasible (2, 0): objective -4 + μ·(violation 1).
        assert_eq!(cost.cost(&[2.0, 0.0], &mut fpu), -4.0 + 10.0);
    }

    #[test]
    fn objective_and_violation_measurements() {
        let lp = simplex_lp();
        assert_eq!(lp.objective_value(&[1.0, 0.0]), -2.0);
        assert_eq!(lp.violation(&[1.0, 0.0]), 0.0);
        assert_eq!(lp.violation(&[2.0, -1.0]), 1.0); // -x1 = 1 over nonneg; sum row = 1 ≤ 1 ok
    }

    #[test]
    fn violation_includes_equalities() {
        let lp = LinearProgram::minimize(vec![1.0, 1.0])
            .with_equalities(
                Matrix::from_rows(&[&[1.0, -1.0]]).expect("valid rows"),
                vec![0.5],
            )
            .expect("consistent");
        assert_eq!(lp.violation(&[1.0, 1.0]), 0.5);
        assert_eq!(lp.violation(&[1.5, 1.0]), 0.0);
    }

    #[test]
    fn shape_validation() {
        let lp = LinearProgram::minimize(vec![1.0, 2.0]);
        assert!(lp
            .clone()
            .with_upper_bounds(Matrix::identity(3), vec![0.0; 3])
            .is_err());
        assert!(lp
            .clone()
            .with_upper_bounds(Matrix::identity(2), vec![0.0; 3])
            .is_err());
        assert!(lp.with_equalities(Matrix::zeros(1, 3), vec![0.0]).is_err());
    }

    #[test]
    fn penalized_rejects_bad_mu() {
        assert!(simplex_lp().penalized(-1.0, PenaltyKind::Abs).is_err());
    }
}
