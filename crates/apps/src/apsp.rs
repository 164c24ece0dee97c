//! All-pairs shortest paths (§4.6): robustified as the distance LP
//! (eqs. 4.10–4.12)
//!
//! ```text
//! minimize  Σ_ij −D_ij
//! s.t.      D_vv = 0                       ∀ v
//!           D_uw − D_uv ≤ L_vw             ∀ u, ∀ (v, w) ∈ E
//! ```
//!
//! maximizing the distances subject to edge relaxation constraints pins
//! every `D_ij` to the true shortest path length (for strongly connected
//! graphs). The baseline is Floyd–Warshall through the faulty FPU.

use robustify_core::{
    CoreError, LinearCost, LinearProgram, PenaltyCost, PenaltyKind, RobustProblem, SolverSpec,
    Verdict,
};
use robustify_graph::{floyd_warshall, DiGraph};
use robustify_linalg::Matrix;
use stochastic_fpu::{Fpu, ReliableFpu};

/// An all-pairs shortest path problem with a robust LP solver and the
/// Floyd–Warshall baseline.
///
/// # Examples
///
/// ```
/// use robustify_apps::apsp::ApspProblem;
/// use robustify_core::{Annealing, RobustProblem, SolverSpec, StepSchedule};
/// use robustify_graph::DiGraph;
/// use stochastic_fpu::ReliableFpu;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = DiGraph::new(3, vec![(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])?;
/// let p = ApspProblem::new(g)?;
/// let spec = SolverSpec::sgd(8000, StepSchedule::Sqrt { gamma0: 0.05 })
///     .with_annealing(Annealing::default());
/// let d = p.solve(&spec, &mut ReliableFpu::new())?.solution.expect("sgd decodes");
/// assert!((d[0][2] - 2.0).abs() < 0.2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ApspProblem {
    graph: DiGraph,
    reference: Vec<Vec<f64>>,
    length_scale: f64,
}

impl ApspProblem {
    /// Default penalty weight `μ` for the exact-penalty form.
    pub const DEFAULT_MU: f64 = 10.0;

    /// Creates the problem, computing the reliable Floyd–Warshall reference
    /// offline.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the graph is not strongly
    /// connected (the distance LP would be unbounded) or has no edges.
    pub fn new(graph: DiGraph) -> Result<Self, CoreError> {
        if graph.edges().is_empty() {
            return Err(CoreError::invalid_config("graph has no edges"));
        }
        let reference = floyd_warshall(&mut ReliableFpu::new(), &graph)
            .expect("reliable floyd-warshall cannot break down");
        if reference.iter().flatten().any(|v| !v.is_finite()) {
            return Err(CoreError::invalid_config(
                "graph must be strongly connected for the distance LP to be bounded",
            ));
        }
        let length_scale = graph
            .edges()
            .iter()
            .map(|&(_, _, w)| w)
            .fold(1e-12f64, f64::max);
        Ok(ApspProblem {
            graph,
            reference,
            length_scale,
        })
    }

    /// The underlying graph.
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// The reliable distance matrix (ground truth).
    pub fn reference(&self) -> &[Vec<f64>] {
        &self.reference
    }

    /// The distance LP of eqs. 4.10–4.12 over the `n²` variables `D_uv`
    /// (row-major), with lengths scaled by the maximum edge length.
    pub fn to_lp(&self) -> LinearProgram {
        let n = self.graph.vertex_count();
        let m = self.graph.edges().len();
        let dim = n * n;
        // Maximize Σ D_ij  ⇒  minimize Σ −D_ij.
        let c = vec![-1.0; dim];
        // Equalities: D_vv = 0.
        let e_mat = Matrix::from_fn(n, dim, |v, k| if k == v * n + v { 1.0 } else { 0.0 });
        // Inequalities: D_uw − D_uv ≤ L_vw for every u and edge (v, w).
        let edges = self.graph.edges();
        let a_mat = Matrix::from_fn(n * m, dim, |row, k| {
            let u = row / m;
            let (v, w, _) = edges[row % m];
            let mut coef = 0.0;
            if k == u * n + w {
                // detlint::allow(fpu-routing, reason = "LP constraint-matrix construction is reliable problem setup")
                coef += 1.0;
            }
            if k == u * n + v {
                // detlint::allow(fpu-routing, reason = "LP constraint-matrix construction is reliable problem setup")
                coef -= 1.0;
            }
            coef
        });
        let b: Vec<f64> = (0..n * m)
            .map(|row| edges[row % m].2 / self.length_scale)
            .collect();
        LinearProgram::minimize(c)
            .with_equalities(e_mat, vec![0.0; n])
            .expect("constructed shapes are consistent")
            .with_upper_bounds(a_mat, b)
            .expect("constructed shapes are consistent")
    }

    /// Decodes the flat LP variables into an `n × n` distance matrix,
    /// rescaling to original lengths (native arithmetic).
    pub fn decode(&self, x: &[f64]) -> Vec<Vec<f64>> {
        let n = self.graph.vertex_count();
        (0..n)
            .map(|i| (0..n).map(|j| x[i * n + j] * self.length_scale).collect())
            .collect()
    }

    /// Mean relative error of a distance matrix against the reliable
    /// reference, over off-diagonal pairs (native measurement; non-finite
    /// entries yield `∞`).
    pub fn mean_relative_error(&self, d: &[Vec<f64>]) -> f64 {
        let n = self.graph.vertex_count();
        if d.len() != n || d.iter().any(|row| row.len() != n) {
            return f64::INFINITY;
        }
        let mut total = 0.0;
        let mut count = 0usize;
        for (i, row) in d.iter().enumerate() {
            for (j, &got) in row.iter().enumerate() {
                if i == j {
                    continue;
                }
                if !got.is_finite() {
                    return f64::INFINITY;
                }
                let want = self.reference[i][j];
                total += (got - want).abs() / want.max(1e-300);
                count += 1;
            }
        }
        total / count.max(1) as f64
    }
}

impl RobustProblem for ApspProblem {
    type Solution = Vec<Vec<f64>>;
    type Cost = PenaltyCost<LinearCost>;

    fn name(&self) -> &'static str {
        "apsp"
    }

    fn cost(&self) -> Self::Cost {
        self.to_lp()
            .penalized(Self::DEFAULT_MU, PenaltyKind::Squared)
            .expect("default mu is valid")
    }

    fn decode(&self, _cost: &Self::Cost, x: &[f64]) -> Vec<Vec<f64>> {
        ApspProblem::decode(self, x)
    }

    /// The metric is the mean relative distance error; success requires it
    /// at most 5%.
    fn verify(&self, solution: &Vec<Vec<f64>>) -> Verdict {
        Verdict::from_metric(self.mean_relative_error(solution), 0.05)
    }

    /// The fault-exposed Floyd–Warshall baseline; a numerical breakdown is
    /// a failed run.
    fn baseline<F: Fpu>(&self, _spec: &SolverSpec, fpu: &mut F) -> Option<Vec<Vec<f64>>> {
        floyd_warshall(fpu, &self.graph).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use robustify_core::StepSchedule;
    use robustify_graph::generators::random_strongly_connected;
    use stochastic_fpu::{BitFaultModel, FaultRate, NoisyFpu};

    fn triangle() -> ApspProblem {
        ApspProblem::new(
            DiGraph::new(3, vec![(0, 1, 1.0), (1, 2, 2.0), (2, 0, 4.0), (0, 2, 5.0)])
                .expect("valid graph"),
        )
        .expect("strongly connected")
    }

    /// Solves `p` with `spec`, panicking on a breakdown.
    fn solved<F: Fpu>(p: &ApspProblem, spec: &SolverSpec, fpu: &mut F) -> Vec<Vec<f64>> {
        p.solve(spec, fpu)
            .expect("supported method")
            .solution
            .expect("no breakdown")
    }

    fn annealed_sgd() -> SolverSpec {
        SolverSpec::sgd(8000, StepSchedule::Sqrt { gamma0: 0.05 })
            .with_annealing(Default::default())
    }

    #[test]
    fn lp_optimum_is_the_distance_matrix() {
        let p = triangle();
        let lp = p.to_lp();
        // The true (scaled) distance matrix must be feasible with objective
        // −Σ D_ij; any larger D would violate a relaxation constraint.
        let scale = 5.0;
        let flat: Vec<f64> = p.reference().iter().flatten().map(|&v| v / scale).collect();
        assert!(lp.violation(&flat) < 1e-12, "true distances infeasible");
        // Perturbing any entry upward violates feasibility.
        let n = 3;
        for i in 0..n {
            for j in 0..n {
                let mut bumped = flat.clone();
                bumped[i * n + j] += 0.2;
                assert!(
                    lp.violation(&bumped) > 1e-9,
                    "distance ({i}, {j}) is not pinned by the constraints"
                );
            }
        }
    }

    #[test]
    fn sgd_recovers_distances_reliably() {
        let p = triangle();
        let d = solved(&p, &annealed_sgd(), &mut ReliableFpu::new());
        let err = p.mean_relative_error(&d);
        assert!(err < 0.1, "mean relative error {err}, d = {d:?}");
    }

    #[test]
    fn sgd_degrades_gracefully_under_faults() {
        let p = triangle();
        let mut total = 0.0;
        let runs = 5;
        for seed in 0..runs {
            let mut fpu = NoisyFpu::new(FaultRate::per_flop(0.01), BitFaultModel::emulated(), seed);
            let d = solved(&p, &annealed_sgd(), &mut fpu);
            total += p.mean_relative_error(&d).min(10.0);
        }
        assert!(
            total / (runs as f64) < 1.0,
            "mean relative error {}",
            total / runs as f64
        );
    }

    #[test]
    fn baseline_is_exact_reliably() {
        let p = triangle();
        let d = solved(&p, &SolverSpec::baseline(), &mut ReliableFpu::new());
        assert_eq!(p.mean_relative_error(&d), 0.0);
    }

    #[test]
    fn random_strongly_connected_workloads() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..5 {
            let p = ApspProblem::new(random_strongly_connected(&mut rng, 5, 5))
                .expect("strongly connected");
            let lp = p.to_lp();
            assert_eq!(lp.dim(), 25);
        }
    }

    #[test]
    fn disconnected_graph_rejected() {
        let g = DiGraph::new(3, vec![(0, 1, 1.0)]).expect("valid graph");
        assert!(ApspProblem::new(g).is_err());
    }

    #[test]
    fn metric_handles_malformed_matrices() {
        let p = triangle();
        assert_eq!(p.mean_relative_error(&[]), f64::INFINITY);
        let mut d = p.reference().to_vec();
        d[0][1] = f64::NAN;
        assert_eq!(p.mean_relative_error(&d), f64::INFINITY);
        assert_eq!(p.mean_relative_error(p.reference()), 0.0);
    }
}
