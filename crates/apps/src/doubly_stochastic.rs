//! The doubly stochastic relaxation shared by sorting (§4.3) and bipartite
//! matching (§4.4).
//!
//! Both problems maximize a linear payoff `Σᵢⱼ Pᵢⱼ Xᵢⱼ` over permutation-like
//! indicator matrices. "Since permutation matrices are the extreme points of
//! the set of doubly stochastic matrices, which is polyhedral, such an X can
//! be found by solving the linear program" (4.3):
//!
//! ```text
//! max Σ Pᵢⱼ Xᵢⱼ   s.t.   Xᵢⱼ ≥ 0,   Σᵢ Xᵢⱼ ≤ 1,   Σⱼ Xᵢⱼ ≤ 1
//! ```
//!
//! [`DoublyStochasticCost`] is the corresponding unconstrained exact-penalty
//! cost (paper eq. 4.4) with the closed-form subgradient of eq. 4.5,
//! evaluated in `O(r·c)` — much cheaper than the generic dense-LP gradient,
//! which matters at the paper's 10 000-iteration budgets. Equivalence with
//! the generic [`LinearProgram`] path is covered by tests.

use rand::{Rng, RngExt};
use robustify_core::{
    CoreError, CostFunction, LinearProgram, PenaltyKind, RobustProblem, SolverSpec, Verdict,
};
use robustify_graph::{hungarian, BipartiteGraph};
use robustify_linalg::Matrix;
use stochastic_fpu::{Fpu, ReliableFpu};

/// The penalized payoff-maximization cost over relaxed permutation matrices
/// (paper eqs. 4.4–4.5).
///
/// Variables are a flattened row-major `r × c` matrix `X`. The cost is
///
/// ```text
/// f(X) = −Σ Pᵢⱼ Xᵢⱼ + μ₁ Σ pen([−Xᵢⱼ]₊) + μ₂ Σᵢ pen([Σⱼ Xᵢⱼ − 1]₊)
///        + μ₂ Σⱼ pen([Σᵢ Xᵢⱼ − 1]₊)
/// ```
///
/// with `pen(v) = v²` ([`PenaltyKind::Squared`], the paper's choice) or
/// `pen(v) = v` ([`PenaltyKind::Abs`]).
///
/// # Examples
///
/// ```
/// use robustify_apps::doubly_stochastic::DoublyStochasticCost;
/// use robustify_core::{CostFunction, PenaltyKind};
/// use robustify_linalg::Matrix;
/// use stochastic_fpu::ReliableFpu;
///
/// # fn main() -> Result<(), robustify_core::CoreError> {
/// let p = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]])?;
/// let cost = DoublyStochasticCost::new(p, 10.0, 10.0, PenaltyKind::Squared)?;
/// // The identity permutation is feasible: cost = -payoff = -2.
/// assert_eq!(cost.cost(&[1.0, 0.0, 0.0, 1.0], &mut ReliableFpu::new()), -2.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DoublyStochasticCost {
    payoff: Matrix,
    mu1: f64,
    mu2: f64,
    kind: PenaltyKind,
}

impl DoublyStochasticCost {
    /// Creates the cost for payoff matrix `P` with non-negativity weight
    /// `mu1` and row/column-sum weight `mu2`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if either penalty weight is not
    /// positive and finite.
    pub fn new(payoff: Matrix, mu1: f64, mu2: f64, kind: PenaltyKind) -> Result<Self, CoreError> {
        for (name, mu) in [("mu1", mu1), ("mu2", mu2)] {
            if !mu.is_finite() || mu <= 0.0 {
                return Err(CoreError::invalid_config(format!(
                    "{name} must be positive and finite, got {mu}"
                )));
            }
        }
        Ok(DoublyStochasticCost {
            payoff,
            mu1,
            mu2,
            kind,
        })
    }

    /// The payoff matrix `P`.
    pub fn payoff(&self) -> &Matrix {
        &self.payoff
    }

    /// Number of rows of `X`.
    pub fn rows(&self) -> usize {
        self.payoff.rows()
    }

    /// Number of columns of `X`.
    pub fn cols(&self) -> usize {
        self.payoff.cols()
    }

    /// The non-negativity penalty weight `μ₁`.
    pub fn mu1(&self) -> f64 {
        self.mu1
    }

    /// The row/column-sum penalty weight `μ₂`.
    pub fn mu2(&self) -> f64 {
        self.mu2
    }

    /// The uniform doubly stochastic starting iterate `Xᵢⱼ = 1/max(r, c)`.
    pub fn initial_iterate(&self) -> Vec<f64> {
        // detlint::allow(fpu-routing, reason = "iterate seeding is reliable problem setup")
        let v = 1.0 / self.rows().max(self.cols()) as f64;
        vec![v; self.rows() * self.cols()]
    }

    /// The equivalent generic linear program (paper eq. 4.3), used for
    /// preconditioning and for validating this specialized cost.
    pub fn to_lp(&self) -> LinearProgram {
        let (r, c) = (self.rows(), self.cols());
        let n = r * c;
        let payoff = &self.payoff;
        let neg_p: Vec<f64> = (0..n).map(|k| -payoff[(k / c, k % c)]).collect();
        // Row-sum rows then column-sum rows, all ≤ 1.
        let a = Matrix::from_fn(r + c, n, |cons, k| {
            let (i, j) = (k / c, k % c);
            if cons < r {
                if i == cons {
                    1.0
                } else {
                    0.0
                }
            } else if j == cons - r {
                1.0
            } else {
                0.0
            }
        });
        let b = vec![1.0; r + c];
        LinearProgram::minimize(neg_p)
            .with_upper_bounds(a, b)
            .expect("constructed shapes are consistent")
            .with_nonneg()
    }

    /// Greedy rounding of a relaxed `X` to an assignment: repeatedly take
    /// the largest remaining entry above `threshold`, excluding its row and
    /// column. A control-plane decode step (native arithmetic).
    pub fn decode_assignment(&self, x: &[f64], threshold: f64) -> Vec<(usize, usize)> {
        let (r, c) = (self.rows(), self.cols());
        assert_eq!(x.len(), r * c, "X has the wrong dimension");
        let mut used_row = vec![false; r];
        let mut used_col = vec![false; c];
        let mut pairs = Vec::new();
        loop {
            let mut best: Option<(usize, usize, f64)> = None;
            for i in 0..r {
                if used_row[i] {
                    continue;
                }
                for j in 0..c {
                    if used_col[j] {
                        continue;
                    }
                    let v = x[i * c + j];
                    if !v.is_finite() || v < threshold {
                        continue;
                    }
                    if best.map(|(_, _, bv)| v > bv).unwrap_or(true) {
                        best = Some((i, j, v));
                    }
                }
            }
            match best {
                Some((i, j, _)) => {
                    used_row[i] = true;
                    used_col[j] = true;
                    pairs.push((i, j));
                }
                None => break,
            }
        }
        pairs.sort_unstable();
        pairs
    }

    fn pen<F: Fpu>(&self, v: f64, fpu: &mut F) -> f64 {
        match self.kind {
            PenaltyKind::Abs => v,
            PenaltyKind::Squared => fpu.mul(v, v),
        }
    }

    fn slope(&self, v: f64) -> f64 {
        match self.kind {
            PenaltyKind::Abs => 1.0,
            // detlint::allow(fpu-routing, reason = "penalty subgradient scale runs on the reliable control plane")
            PenaltyKind::Squared => 2.0 * v,
        }
    }

    /// Row and column sums of `X` through the FPU: per entry, in
    /// row-major order, `row_i = add(row_i, X_ij)` then
    /// `col_j = add(col_j, X_ij)`.
    fn sums<F: Fpu>(&self, x: &[f64], fpu: &mut F) -> (Vec<f64>, Vec<f64>) {
        let (r, c) = (self.rows(), self.cols());
        let mut row = vec![0.0; r];
        let mut col = vec![0.0; c];
        for i in 0..r {
            for j in 0..c {
                let v = x[i * c + j];
                row[i] = fpu.add(row[i], v);
                col[j] = fpu.add(col[j], v);
            }
        }
        (row, col)
    }
}

impl CostFunction for DoublyStochasticCost {
    fn dim(&self) -> usize {
        self.rows() * self.cols()
    }

    fn cost<F: Fpu>(&self, x: &[f64], fpu: &mut F) -> f64 {
        assert_eq!(x.len(), self.dim(), "X has the wrong dimension");
        let mut total = 0.0;
        for (&p, &v) in self.payoff.as_slice().iter().zip(x) {
            // −P·X term.
            let prod = fpu.mul(p, v);
            total = fpu.sub(total, prod);
            // μ₁ pen([−X]₊).
            let neg = (-v).max(0.0);
            if neg > 0.0 {
                let pen = self.pen(neg, fpu);
                let w = fpu.mul(self.mu1, pen);
                total = fpu.add(total, w);
            }
        }
        let (row, col) = self.sums(x, fpu);
        for s in row.into_iter().chain(col) {
            let over = fpu.sub(s, 1.0).max(0.0);
            if over > 0.0 {
                let pen = self.pen(over, fpu);
                let w = fpu.mul(self.mu2, pen);
                total = fpu.add(total, w);
            }
        }
        total
    }

    fn gradient<F: Fpu>(&self, x: &[f64], fpu: &mut F, grad: &mut [f64]) {
        assert_eq!(x.len(), self.dim(), "X has the wrong dimension");
        let c = self.cols();
        let (row, col) = self.sums(x, fpu);
        // Per-row and per-column hinge coefficients (paper eq. 4.5).
        let row_coef: Vec<f64> = row
            .iter()
            .map(|&s| {
                let over = fpu.sub(s, 1.0).max(0.0);
                if over > 0.0 {
                    fpu.mul(self.mu2, self.slope(over))
                } else {
                    0.0
                }
            })
            .collect();
        let col_coef: Vec<f64> = col
            .iter()
            .map(|&s| {
                let over = fpu.sub(s, 1.0).max(0.0);
                if over > 0.0 {
                    fpu.mul(self.mu2, self.slope(over))
                } else {
                    0.0
                }
            })
            .collect();
        let p = self.payoff.as_slice();
        for (i, &rc) in row_coef.iter().enumerate() {
            for (j, &cc) in col_coef.iter().enumerate() {
                let k = i * c + j;
                // g = −P_ij − μ₁·slope([−X]₊) + rowcoef_i + colcoef_j.
                let mut g = -p[k];
                let neg = (-x[k]).max(0.0);
                if neg > 0.0 {
                    let w = fpu.mul(self.mu1, self.slope(neg));
                    g = fpu.sub(g, w);
                }
                g = fpu.add(g, rc);
                grad[k] = fpu.add(g, cc);
            }
        }
    }

    fn anneal(&mut self, factor: f64) {
        assert!(
            factor > 0.0 && factor.is_finite(),
            "anneal factor must be positive"
        );
        // Saturated as in `PenaltyCost::anneal`.
        self.mu1 = (self.mu1 * factor).min(1e9);
        self.mu2 = (self.mu2 * factor).min(1e9);
    }
}

/// The assignment problem in its own right: maximize the total payoff of a
/// one-to-one assignment for a dense positive payoff matrix — the LP (4.3)
/// without the sorting/matching framing, as a [`RobustProblem`].
///
/// # Examples
///
/// ```
/// use robustify_apps::doubly_stochastic::AssignmentProblem;
/// use robustify_core::{RobustProblem, SolverSpec, StepSchedule};
/// use robustify_linalg::Matrix;
/// use stochastic_fpu::ReliableFpu;
///
/// # fn main() -> Result<(), robustify_core::CoreError> {
/// let payoff = Matrix::from_rows(&[&[0.9, 0.1], &[0.2, 0.8]])?;
/// let problem = AssignmentProblem::new(payoff)?;
/// let spec = SolverSpec::sgd(3000, StepSchedule::Sqrt { gamma0: 0.05 });
/// let out = problem.solve(&spec, &mut ReliableFpu::new())?;
/// assert!(problem.verify(&out.solution.expect("sgd decodes")).success);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AssignmentProblem {
    payoff: Matrix,
    graph: BipartiteGraph,
    optimal_weight: f64,
}

impl AssignmentProblem {
    /// Default non-negativity penalty weight `μ₁`.
    pub const DEFAULT_MU1: f64 = 8.0;
    /// Default row/column-sum penalty weight `μ₂`.
    pub const DEFAULT_MU2: f64 = 8.0;

    /// Creates the problem for a payoff matrix with positive finite
    /// entries, computing the optimal assignment weight offline with a
    /// reliable Hungarian pass.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the matrix is empty or any
    /// entry is non-positive or non-finite (the `≤ 1` row/column relaxation
    /// only recovers assignments whose every edge carries positive payoff).
    pub fn new(payoff: Matrix) -> Result<Self, CoreError> {
        let (r, c) = (payoff.rows(), payoff.cols());
        if r == 0 || c == 0 {
            return Err(CoreError::invalid_config("payoff matrix is empty"));
        }
        for i in 0..r {
            for j in 0..c {
                let v = payoff[(i, j)];
                if !v.is_finite() || v <= 0.0 {
                    return Err(CoreError::invalid_config(format!(
                        "payoff entries must be positive and finite, got {v} at ({i}, {j})"
                    )));
                }
            }
        }
        let mut edges = Vec::with_capacity(r * c);
        for i in 0..r {
            for j in 0..c {
                edges.push((i, j, payoff[(i, j)]));
            }
        }
        let graph = BipartiteGraph::new(r, c, edges).expect("dense edges are in range");
        let optimal_weight = hungarian(&mut ReliableFpu::new(), &graph)
            .expect("reliable hungarian cannot break down")
            .weight();
        Ok(AssignmentProblem {
            payoff,
            graph,
            optimal_weight,
        })
    }

    /// Generates a random problem with an `n × n` payoff drawn uniformly
    /// from `[0.1, 1.1)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn random<R: Rng>(rng: &mut R, n: usize) -> Self {
        assert!(n > 0, "need at least one agent");
        let payoff = Matrix::from_fn(n, n, |_, _| rng.random_range(0.1..1.1));
        Self::new(payoff).expect("generated entries are positive and finite")
    }

    /// The payoff matrix.
    pub fn payoff(&self) -> &Matrix {
        &self.payoff
    }

    /// The optimal assignment weight (ground truth).
    pub fn optimal_weight(&self) -> f64 {
        self.optimal_weight
    }

    /// The total payoff of an assignment (native arithmetic).
    pub fn assignment_weight(&self, pairs: &[(usize, usize)]) -> f64 {
        // detlint::allow(float-reassociation, reason = "payoff measurement is documented native verification arithmetic")
        pairs.iter().map(|&(i, j)| self.payoff[(i, j)]).sum()
    }
}

impl RobustProblem for AssignmentProblem {
    type Solution = Vec<(usize, usize)>;
    type Cost = DoublyStochasticCost;

    fn name(&self) -> &'static str {
        "doubly_stochastic"
    }

    fn cost(&self) -> Self::Cost {
        DoublyStochasticCost::new(
            self.payoff.clone(),
            Self::DEFAULT_MU1,
            Self::DEFAULT_MU2,
            PenaltyKind::Squared,
        )
        .expect("default penalty weights are valid")
    }

    fn initial_iterate<F: Fpu>(&self, cost: &Self::Cost, _fpu: &mut F) -> Vec<f64> {
        cost.initial_iterate()
    }

    fn decode(&self, cost: &Self::Cost, x: &[f64]) -> Vec<(usize, usize)> {
        cost.decode_assignment(x, 0.25)
    }

    /// Success means attaining the optimal weight (up to round-off); the
    /// metric is the relative payoff gap.
    fn verify(&self, solution: &Vec<(usize, usize)>) -> Verdict {
        let weight = self.assignment_weight(solution);
        let gap = (self.optimal_weight - weight).max(0.0) / self.optimal_weight.max(1e-12);
        Verdict {
            // detlint::allow(fpu-routing, reason = "success-threshold check is reliable verification arithmetic")
            success: (weight - self.optimal_weight).abs() <= 1e-9 * (1.0 + self.optimal_weight),
            metric: gap,
        }
    }

    /// The fault-exposed Hungarian baseline.
    fn baseline<F: Fpu>(&self, _spec: &SolverSpec, fpu: &mut F) -> Option<Vec<(usize, usize)>> {
        hungarian(fpu, &self.graph).ok().map(|m| m.pairs().to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stochastic_fpu::ReliableFpu;

    fn payoff_2x2() -> Matrix {
        Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 3.0]]).expect("valid rows")
    }

    fn cost_2x2(kind: PenaltyKind) -> DoublyStochasticCost {
        DoublyStochasticCost::new(payoff_2x2(), 8.0, 8.0, kind).expect("valid weights")
    }

    #[test]
    fn feasible_points_cost_negative_payoff() {
        let cost = cost_2x2(PenaltyKind::Squared);
        let mut fpu = ReliableFpu::new();
        assert_eq!(cost.cost(&[1.0, 0.0, 0.0, 1.0], &mut fpu), -6.0);
        assert_eq!(cost.cost(&[0.0, 1.0, 1.0, 0.0], &mut fpu), -2.0);
        // Fractional doubly stochastic interior point: payoff -4.
        assert_eq!(cost.cost(&[0.5, 0.5, 0.5, 0.5], &mut fpu), -4.0);
    }

    #[test]
    fn violations_are_penalized() {
        let cost = cost_2x2(PenaltyKind::Squared);
        let mut fpu = ReliableFpu::new();
        // X with a negative entry: payoff part -(3·(-1)) = +3, penalty 8·1².
        let v = cost.cost(&[-1.0, 0.0, 0.0, 0.0], &mut fpu);
        assert_eq!(v, 3.0 + 8.0);
        // Row 0 sums to 2: penalty 8·1²; two column sums 1 are fine.
        let v = cost.cost(&[1.0, 1.0, 0.0, 0.0], &mut fpu);
        assert_eq!(v, -4.0 + 8.0);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        for kind in [PenaltyKind::Squared, PenaltyKind::Abs] {
            let cost = cost_2x2(kind);
            // A generic point with active and inactive hinges, away from
            // kinks.
            let x = [0.7, -0.2, 0.9, 0.6];
            let mut fpu = ReliableFpu::new();
            let mut grad = vec![0.0; 4];
            cost.gradient(&x, &mut fpu, &mut grad);
            let h = 1e-6;
            for i in 0..4 {
                let mut xp = x.to_vec();
                let mut xm = x.to_vec();
                xp[i] += h;
                xm[i] -= h;
                let fd = (cost.cost(&xp, &mut fpu) - cost.cost(&xm, &mut fpu)) / (2.0 * h);
                assert!(
                    (grad[i] - fd).abs() < 1e-4 * (1.0 + fd.abs()),
                    "{kind:?} lane {i}: {} vs {fd}",
                    grad[i]
                );
            }
        }
    }

    #[test]
    fn specialized_cost_matches_generic_lp() {
        let cost = cost_2x2(PenaltyKind::Squared);
        let lp = cost.to_lp();
        // The generic penalized LP uses a single μ; choose matching weights.
        let generic = lp.penalized(8.0, PenaltyKind::Squared).expect("valid mu");
        let mut fpu = ReliableFpu::new();
        for x in [
            vec![1.0, 0.0, 0.0, 1.0],
            vec![0.5, 0.5, 0.5, 0.5],
            vec![-0.3, 1.2, 0.8, 0.1],
            vec![2.0, 0.0, -1.0, 0.4],
        ] {
            let a = cost.cost(&x, &mut fpu);
            let b = generic.cost(&x, &mut fpu);
            assert!(
                (a - b).abs() < 1e-9,
                "specialized {a} vs generic {b} at {x:?}"
            );
            let mut ga = vec![0.0; 4];
            let mut gb = vec![0.0; 4];
            cost.gradient(&x, &mut fpu, &mut ga);
            generic.gradient(&x, &mut fpu, &mut gb);
            for (u, v) in ga.iter().zip(&gb) {
                assert!((u - v).abs() < 1e-9, "gradients differ at {x:?}");
            }
        }
    }

    #[test]
    fn decode_rounds_to_best_assignment() {
        let cost = cost_2x2(PenaltyKind::Squared);
        let pairs = cost.decode_assignment(&[0.9, 0.1, 0.2, 0.8], 0.5);
        assert_eq!(pairs, vec![(0, 0), (1, 1)]);
        // Below-threshold entries are dropped.
        let pairs = cost.decode_assignment(&[0.9, 0.1, 0.2, 0.3], 0.5);
        assert_eq!(pairs, vec![(0, 0)]);
        // NaN entries are ignored rather than propagated.
        let pairs = cost.decode_assignment(&[f64::NAN, 0.8, 0.7, f64::NAN], 0.5);
        assert_eq!(pairs, vec![(0, 1), (1, 0)]);
    }

    #[test]
    fn initial_iterate_is_feasible() {
        let cost = cost_2x2(PenaltyKind::Squared);
        let x0 = cost.initial_iterate();
        assert_eq!(x0, vec![0.5; 4]);
        let lp = cost.to_lp();
        assert_eq!(lp.violation(&x0), 0.0);
    }

    #[test]
    fn anneal_scales_both_weights() {
        let mut cost = cost_2x2(PenaltyKind::Squared);
        cost.anneal(2.5);
        assert_eq!(cost.mu1(), 20.0);
        assert_eq!(cost.mu2(), 20.0);
    }

    #[test]
    fn invalid_weights_rejected() {
        assert!(DoublyStochasticCost::new(payoff_2x2(), 0.0, 1.0, PenaltyKind::Abs).is_err());
        assert!(DoublyStochasticCost::new(payoff_2x2(), 1.0, -1.0, PenaltyKind::Abs).is_err());
    }

    #[test]
    fn rectangular_payoffs_are_supported() {
        let p = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).expect("valid rows");
        let cost =
            DoublyStochasticCost::new(p, 5.0, 5.0, PenaltyKind::Squared).expect("valid weights");
        assert_eq!(cost.dim(), 6);
        assert_eq!(cost.initial_iterate(), vec![1.0 / 3.0; 6]);
        let lp = cost.to_lp();
        assert_eq!(lp.dim(), 6);
        let (a, _) = lp.upper_bounds().expect("has row/col constraints");
        assert_eq!(a.rows(), 5); // 2 row sums + 3 column sums
    }
}
