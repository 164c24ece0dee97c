//! A natively sparse workload: the 2D Poisson equation at 10⁵–10⁶
//! unknowns.
//!
//! The five-point finite-difference Laplacian on a `g × g` interior grid
//! gives a symmetric positive definite system `A x = b` with `n = g²`
//! unknowns and about `5 n` nonzeros — at the paper-scale `g = 320` that
//! is ~10⁵ unknowns and megabytes of resident matrix data, exactly the
//! regime where the array-resident memory-fault models have something
//! real to corrupt. The robust solver is the same budget-limited
//! restarted CG the paper uses for least squares (§3.3), running over a
//! [`CsrMatrix`] through the
//! [`LinearOperator`](robustify_linalg::LinearOperator) backend
//! abstraction: the solve never materializes a dense matrix.
//!
//! The stencil is laid row by row, in column order, straight into CSR
//! storage ([`CsrMatrix::from_parts`]), so building the matrix stages
//! nothing beside it (no triplet list, no sort order), and the CG solve
//! holds its five vectors for the whole budget.
//!
//! Quality is judged by the reliable relative residual `‖A x − b‖ / ‖b‖`
//! against the residual the *same CG budget* reaches on a reliable
//! processor — the workload asks "did faults cost us the convergence the
//! budget buys", not "did we solve the PDE to machine precision".

use rand::{Rng, RngExt};
use robustify_core::{
    run_cgls, CoreError, QuadraticResidualCost, RobustOutcome, RobustProblem, SolveMethod,
    SolverSpec, Verdict,
};
use robustify_linalg::CsrMatrix;
use stochastic_fpu::{Fpu, ReliableFpu};

/// The canonical CG iteration budget for this workload, run as
/// [`SolverSpec::cg`] (restart every 4, the §3.3 configuration). The
/// reference residual is computed with the same spec, so solver specs
/// should use it too.
pub const CG_BUDGET: usize = 12;

/// A discretized 2D Poisson problem `A x = b` with a sparse robust solver.
///
/// # Examples
///
/// ```
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
/// use robustify_apps::poisson2d::{Poisson2d, CG_BUDGET};
/// use robustify_core::{RobustProblem, SolverSpec};
/// use stochastic_fpu::ReliableFpu;
///
/// # fn main() -> Result<(), robustify_core::CoreError> {
/// let p = Poisson2d::new(8, &mut StdRng::seed_from_u64(1));
/// assert_eq!(p.dim(), 64);
/// // A reliable run at the canonical budget reproduces the reference.
/// let out = p.solve(&SolverSpec::cg(CG_BUDGET), &mut ReliableFpu::new())?;
/// let x = out.solution.expect("cg always yields an iterate");
/// assert_eq!(p.relative_residual(&x), p.reference_metric());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Poisson2d {
    grid: usize,
    a: CsrMatrix,
    b: Vec<f64>,
    /// Relative residual of a reliable CG solve at the canonical budget —
    /// the quality the budget buys, which a budget-limited stochastic run
    /// is measured against.
    ref_metric: f64,
}

impl Poisson2d {
    /// Builds the five-point Laplacian on a `grid × grid` interior grid
    /// with a random right-hand side in `[-1, 1)`, then computes the
    /// reliable reference solve at the canonical [`CG_BUDGET`].
    ///
    /// # Panics
    ///
    /// Panics if `grid == 0`.
    pub fn new<R: Rng>(grid: usize, rng: &mut R) -> Self {
        assert!(grid > 0, "grid must be positive");
        let n = grid * grid;
        // Each row's stencil in ascending column order (up, left, centre,
        // right, down), laid straight into CSR storage; a boundary side
        // drops one neighbour per node, so nnz = 5n − 4g.
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::with_capacity(5 * n - 4 * grid);
        let mut vals = Vec::with_capacity(5 * n - 4 * grid);
        row_ptr.push(0);
        for r in 0..grid {
            for c in 0..grid {
                let i = r * grid + c;
                let mut push = |j: usize, v: f64| {
                    col_idx.push(j);
                    vals.push(v);
                };
                if r > 0 {
                    push(i - grid, -1.0);
                }
                if c > 0 {
                    push(i - 1, -1.0);
                }
                push(i, 4.0);
                if c + 1 < grid {
                    push(i + 1, -1.0);
                }
                if r + 1 < grid {
                    push(i + grid, -1.0);
                }
                row_ptr.push(vals.len());
            }
        }
        let a = CsrMatrix::from_parts(n, n, row_ptr, col_idx, vals)
            .expect("the stencil rows are sorted and in bounds by construction");
        let b: Vec<f64> = (0..n).map(|_| rng.random_range(-1.0..1.0)).collect();
        let mut problem = Poisson2d {
            grid,
            a,
            b,
            ref_metric: f64::INFINITY,
        };
        let reference = problem
            .solve(&SolverSpec::cg(CG_BUDGET), &mut ReliableFpu::new())
            .expect("cg is supported")
            .solution
            .expect("cg always yields an iterate");
        problem.ref_metric = problem.relative_residual(&reference);
        problem
    }

    /// Interior grid side length `g` (the problem has `g²` unknowns).
    pub fn grid(&self) -> usize {
        self.grid
    }

    /// Number of unknowns.
    pub fn dim(&self) -> usize {
        self.a.cols()
    }

    /// The sparse system matrix.
    pub fn a(&self) -> &CsrMatrix {
        &self.a
    }

    /// The right-hand side.
    pub fn b(&self) -> &[f64] {
        &self.b
    }

    /// The reliable reference residual at the canonical budget.
    pub fn reference_metric(&self) -> f64 {
        self.ref_metric
    }

    /// The reliable relative residual `‖A x − b‖ / ‖b‖` (native
    /// measurement; non-finite candidates yield `∞`).
    pub fn relative_residual(&self, x: &[f64]) -> f64 {
        if x.iter().any(|v| !v.is_finite()) {
            return f64::INFINITY;
        }
        let mut fpu = ReliableFpu::new();
        let mut r = self.a.matvec(&mut fpu, x).expect("x has dim() entries");
        for (ri, bi) in r.iter_mut().zip(&self.b) {
            *ri = bi - *ri;
        }
        let num = robustify_linalg::norm2(&mut fpu, &r);
        let den = robustify_linalg::norm2(&mut fpu, &self.b);
        num / den.max(1e-300)
    }
}

impl RobustProblem for Poisson2d {
    type Solution = Vec<f64>;
    type Cost = QuadraticResidualCost<CsrMatrix>;

    fn name(&self) -> &'static str {
        "poisson2d"
    }

    fn cost(&self) -> Self::Cost {
        QuadraticResidualCost::new(self.a.clone(), self.b.clone())
            .expect("problem shapes are consistent by construction")
    }

    fn decode(&self, _cost: &Self::Cost, x: &[f64]) -> Vec<f64> {
        x.to_vec()
    }

    /// The metric is the reliable relative residual; a trial succeeds when
    /// it lands within 1.5× of the residual the same budget reaches
    /// reliably.
    fn verify(&self, solution: &Vec<f64>) -> Verdict {
        let metric = self.relative_residual(solution);
        Verdict {
            // detlint::allow(fpu-routing, reason = "success threshold vs the fault-free reference is reliable verification")
            success: metric.is_finite() && metric <= 1.5 * self.ref_metric + 1e-12,
            metric,
        }
    }

    /// Adds [`SolveMethod::Cg`] over the sparse backend; there is no
    /// deterministic baseline (a direct factorization of a 10⁵-unknown
    /// system is the scenario the sparse workload exists to avoid).
    fn solve<F: Fpu>(
        &self,
        spec: &SolverSpec,
        fpu: &mut F,
    ) -> Result<RobustOutcome<Vec<f64>>, CoreError> {
        match spec.method {
            SolveMethod::Cg => {
                let report = run_cgls(spec, &self.a, &self.b, fpu);
                Ok(RobustOutcome {
                    solution: Some(report.x.clone()),
                    report: Some(report),
                })
            }
            _ => robustify_core::default_solve(self, spec, fpu),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use stochastic_fpu::{BitFaultModel, FaultRate, NoisyFpu};

    fn small() -> Poisson2d {
        Poisson2d::new(8, &mut StdRng::seed_from_u64(7))
    }

    #[test]
    fn stencil_has_five_point_structure() {
        let p = small();
        assert_eq!(p.dim(), 64);
        // Corner node 0: diagonal + right + down.
        let (cols, vals) = p.a().row(0);
        assert_eq!(cols, &[0, 1, 8]);
        assert_eq!(vals, &[4.0, -1.0, -1.0]);
        // Interior node (1,1) = 9: full stencil, sorted by column.
        let (cols, vals) = p.a().row(9);
        assert_eq!(cols, &[1, 8, 9, 10, 17]);
        assert_eq!(vals, &[-1.0, -1.0, 4.0, -1.0, -1.0]);
        // nnz = 5n − 4g (each boundary side loses one neighbor per node).
        assert_eq!(p.a().nnz(), 5 * 64 - 4 * 8);
    }

    /// The five-point stencil as unordered triplets, for
    /// [`CsrMatrix::from_triplets`] to sort.
    fn stencil_triplets(grid: usize) -> Vec<(usize, usize, f64)> {
        let idx = |r: usize, c: usize| r * grid + c;
        let mut triplets = Vec::new();
        for r in 0..grid {
            for c in 0..grid {
                let i = idx(r, c);
                triplets.push((i, i, 4.0));
                if r > 0 {
                    triplets.push((i, idx(r - 1, c), -1.0));
                }
                if r + 1 < grid {
                    triplets.push((i, idx(r + 1, c), -1.0));
                }
                if c > 0 {
                    triplets.push((i, idx(r, c - 1), -1.0));
                }
                if c + 1 < grid {
                    triplets.push((i, idx(r, c + 1), -1.0));
                }
            }
        }
        triplets
    }

    #[test]
    fn direct_assembly_matches_triplet_assembly() {
        for grid in [1, 2, 3, 8] {
            let n = grid * grid;
            let p = Poisson2d::new(grid, &mut StdRng::seed_from_u64(grid as u64));
            let reference = CsrMatrix::from_triplets(n, n, &stencil_triplets(grid))
                .expect("stencil indices are in bounds");
            assert_eq!(p.a(), &reference, "grid {grid}");
            assert_eq!(p.a().nnz(), 5 * n - 4 * grid, "grid {grid}");
        }
    }

    #[test]
    fn full_budget_cg_solves_the_system() {
        // Unrestarted CG converges in at most n iterations on a reliable
        // processor — the §3.3 bound, here through the sparse backend.
        let p = small();
        let n = p.dim();
        let spec = SolverSpec::cg(n).with_restart(n + 1);
        let report = run_cgls(&spec, p.a(), p.b(), &mut ReliableFpu::new());
        assert!(
            p.relative_residual(&report.x) < 1e-6,
            "residual {}",
            p.relative_residual(&report.x)
        );
    }

    #[test]
    fn reference_matches_canonical_budget() {
        let p = small();
        let x = p
            .solve(&SolverSpec::cg(CG_BUDGET), &mut ReliableFpu::new())
            .expect("cg is supported")
            .solution
            .expect("cg always yields an iterate");
        assert_eq!(p.relative_residual(&x), p.reference_metric());
        assert!(p.reference_metric().is_finite());
        assert!(p.reference_metric() > 0.0);
    }

    #[test]
    fn cg_reports_what_it_ran() {
        let p = small();
        let mut fpu = NoisyFpu::new(FaultRate::per_flop(0.01), BitFaultModel::emulated(), 3);
        let out = p
            .solve(&SolverSpec::cg(CG_BUDGET), &mut fpu)
            .expect("cg is supported");
        let report = out.report.expect("cg reports its run");
        assert!(report.iterations <= CG_BUDGET);
        assert_eq!(report.flops, fpu.flops());
        assert_eq!(report.faults, fpu.faults());
        assert_eq!(out.solution, Some(report.x));
    }

    #[test]
    fn rate_zero_trial_succeeds() {
        let p = small();
        let spec = SolverSpec::cg(CG_BUDGET);
        let mut fpu = NoisyFpu::new(FaultRate::per_flop(0.0), BitFaultModel::emulated(), 1);
        let verdict = p.run_trial(&spec, &mut fpu);
        assert!(verdict.success, "metric {}", verdict.metric);
        assert_eq!(verdict.metric, p.reference_metric());
    }

    #[test]
    fn verify_rejects_breakdowns_and_garbage() {
        let p = small();
        assert!(!p.verify(&vec![f64::NAN; 64]).success);
        let far: Vec<f64> = vec![1e9; 64];
        assert!(!p.verify(&far).success);
    }

    #[test]
    fn heavy_faults_terminate_with_finite_iterates() {
        let p = small();
        let spec = SolverSpec::cg(CG_BUDGET);
        for seed in 0..5 {
            let mut fpu = NoisyFpu::new(FaultRate::per_flop(0.05), BitFaultModel::emulated(), seed);
            let verdict = p.run_trial(&spec, &mut fpu);
            assert!(verdict.metric.is_finite() || !verdict.success);
        }
    }

    #[test]
    fn unsupported_methods_fall_back_to_default_dispatch() {
        let p = small();
        // SGD routes through the generic sparse cost.
        let spec = SolverSpec::sgd(5, robustify_core::StepSchedule::Fixed(0.01));
        let out = p
            .solve(&spec, &mut ReliableFpu::new())
            .expect("sgd supported via default dispatch");
        assert!(out.solution.is_some());
        // The baseline breaks down: there is none.
        let verdict = p.run_trial(&SolverSpec::baseline(), &mut ReliableFpu::new());
        assert!(!verdict.success);
    }
}
