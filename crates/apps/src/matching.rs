//! Bipartite graph matching (§4.4): "let `W` be the `|U| × |V|` matrix of
//! edge weights and let `X` be a `|U| × |V|` indicator matrix over edges
//! ... it suffices to search over doubly stochastic matrices, as in the
//! previous example." The baseline is the Hungarian algorithm (the paper
//! used OpenCV's matcher) run through the faulty FPU.

use crate::doubly_stochastic::DoublyStochasticCost;
use robustify_core::{
    precondition_lp, run_sgd, CoreError, PenaltyKind, RobustOutcome, RobustProblem, SolveMethod,
    SolveReport, SolverSpec, Verdict,
};
use robustify_graph::{brute_force_matching, hungarian, BipartiteGraph, Matching};
use robustify_linalg::Matrix;
use stochastic_fpu::Fpu;

/// A maximum-weight bipartite matching problem with robust (LP + SGD) and
/// baseline (Hungarian) solvers.
///
/// # Examples
///
/// ```
/// use robustify_apps::matching::MatchingProblem;
/// use robustify_core::{RobustProblem, SolverSpec, StepSchedule};
/// use robustify_graph::BipartiteGraph;
/// use stochastic_fpu::ReliableFpu;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = BipartiteGraph::new(2, 2, vec![(0, 0, 3.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 3.0)])?;
/// let p = MatchingProblem::new(g);
/// let spec = SolverSpec::sgd(3000, StepSchedule::Sqrt { gamma0: 0.05 });
/// let m = p.solve(&spec, &mut ReliableFpu::new())?.solution.expect("sgd decodes");
/// assert!(p.is_success(&m));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MatchingProblem {
    graph: BipartiteGraph,
    weights: Matrix,
    optimal_weight: f64,
}

impl MatchingProblem {
    /// Default non-negativity penalty weight `μ₁`.
    pub const DEFAULT_MU1: f64 = 8.0;
    /// Default row/column-sum penalty weight `μ₂`.
    pub const DEFAULT_MU2: f64 = 8.0;

    /// Creates the problem for `graph`, computing the ground-truth optimal
    /// weight offline (brute force for small graphs, reliable Hungarian
    /// otherwise).
    pub fn new(graph: BipartiteGraph) -> Self {
        let w = graph.weight_matrix(0.0);
        let weights = Matrix::from_fn(graph.left_count(), graph.right_count(), |i, j| w[i][j]);
        let optimal_weight = if graph.left_count().min(graph.right_count()) <= 8 {
            brute_force_matching(&graph).weight()
        } else {
            hungarian(&mut stochastic_fpu::ReliableFpu::new(), &graph)
                .expect("reliable hungarian cannot break down")
                .weight()
        };
        MatchingProblem {
            graph,
            weights,
            optimal_weight,
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &BipartiteGraph {
        &self.graph
    }

    /// The dense weight matrix (zero for absent edges).
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// The ground-truth maximum matching weight.
    pub fn optimal_weight(&self) -> f64 {
        self.optimal_weight
    }

    /// The penalized cost (eq. 4.4 with payoff `W`), weights scaled by
    /// `1/max W` so step sizes transfer across workloads.
    pub fn robust_cost(&self, mu1: f64, mu2: f64, kind: PenaltyKind) -> DoublyStochasticCost {
        let max_w = self
            .graph
            .edges()
            .iter()
            .map(|&(_, _, w)| w.abs())
            .fold(1e-12f64, f64::max);
        let scaled = Matrix::from_fn(self.weights.rows(), self.weights.cols(), |i, j| {
            self.weights[(i, j)] / max_w
        });
        DoublyStochasticCost::new(scaled, mu1, mu2, kind).expect("default weights are valid")
    }

    /// Decodes a relaxed `X` into a matching over *real* edges — LP
    /// rounding as a control-plane step. The relaxation's support (entries
    /// at or above threshold `0.25` that correspond to edges of the graph)
    /// is a shortlist of candidate edges; the decode picks the
    /// maximum-weight matching *within that shortlist* by a reliable
    /// Hungarian pass over the true weights. An unconverged or
    /// fault-scrambled `X` yields a support that misses optimal edges (the
    /// uniform start sits below the threshold entirely), so decode quality
    /// still tracks solver progress. Negative-weight edges never improve a
    /// maximum-weight matching (and [`hungarian`] rejects them), so they
    /// are dropped from the shortlist.
    pub fn decode(&self, cost: &DoublyStochasticCost, x: &[f64]) -> Matching {
        let (r, c) = (cost.rows(), cost.cols());
        debug_assert_eq!(x.len(), r * c, "X has the wrong dimension");
        let mut shortlist = Vec::new();
        for u in 0..r {
            for v in 0..c {
                let relaxed = x[u * c + v];
                if relaxed.is_finite() && relaxed >= 0.25 {
                    if let Some(w) = self.graph.weight(u, v) {
                        if w >= 0.0 {
                            shortlist.push((u, v, w));
                        }
                    }
                }
            }
        }
        if shortlist.is_empty() {
            return Matching::new(Vec::new(), 0.0);
        }
        let subgraph =
            BipartiteGraph::new(r, c, shortlist).expect("shortlist endpoints are in range");
        hungarian(&mut stochastic_fpu::ReliableFpu::new(), &subgraph)
            .expect("reliable hungarian cannot break down")
    }

    /// The generic LP path with QR preconditioning (§6.2.1): precondition
    /// the stacked constraint matrix, run `spec`'s SGD on the transformed
    /// program, recover `x = R⁻¹y`, decode.
    fn run_preconditioned_lp<F: Fpu>(
        &self,
        spec: &SolverSpec,
        fpu: &mut F,
    ) -> Result<(Matching, SolveReport), CoreError> {
        let cost = self.robust_cost(Self::DEFAULT_MU1, Self::DEFAULT_MU2, PenaltyKind::Squared);
        let lp = cost.to_lp();
        let pre = precondition_lp(&lp)?;
        let mut pen = pre
            .lp()
            .penalized(Self::DEFAULT_MU2, PenaltyKind::Squared)?;
        // Start from y = R x0 (control-plane setup).
        let x0 = cost.initial_iterate();
        let y0 = pre
            .r()
            .matvec(&mut stochastic_fpu::ReliableFpu::new(), &x0)
            .expect("x0 has lp dim");
        let report = run_sgd(spec, &mut pen, &y0, fpu);
        let x = pre.recover(&report.x)?;
        Ok((self.decode(&cost, &x), report))
    }

    /// The paper's Figure 6.4 success criterion: "the percentage of outputs
    /// where all the edges are accurately chosen" — i.e. the decoded
    /// matching attains the optimal weight.
    pub fn is_success(&self, matching: &Matching) -> bool {
        // detlint::allow(fpu-routing, reason = "success-threshold check is reliable verification arithmetic")
        (matching.weight() - self.optimal_weight).abs() <= 1e-9 * (1.0 + self.optimal_weight)
    }
}

impl RobustProblem for MatchingProblem {
    type Solution = Matching;
    type Cost = DoublyStochasticCost;

    fn name(&self) -> &'static str {
        "matching"
    }

    fn cost(&self) -> Self::Cost {
        self.robust_cost(Self::DEFAULT_MU1, Self::DEFAULT_MU2, PenaltyKind::Squared)
    }

    fn initial_iterate<F: Fpu>(&self, cost: &Self::Cost, _fpu: &mut F) -> Vec<f64> {
        cost.initial_iterate()
    }

    fn decode(&self, cost: &Self::Cost, x: &[f64]) -> Matching {
        MatchingProblem::decode(self, cost, x)
    }

    /// Success is the paper's criterion
    /// ([`is_success`](MatchingProblem::is_success)); the metric is the
    /// relative weight gap to the optimal matching.
    fn verify(&self, solution: &Matching) -> Verdict {
        let gap =
            (self.optimal_weight - solution.weight()).max(0.0) / self.optimal_weight.max(1e-12);
        Verdict {
            success: self.is_success(solution),
            metric: gap,
        }
    }

    /// The fault-exposed Hungarian baseline; a numerical breakdown is a
    /// failed run.
    fn baseline<F: Fpu>(&self, _spec: &SolverSpec, fpu: &mut F) -> Option<Matching> {
        hungarian(fpu, &self.graph).ok()
    }

    /// Adds [`SolveMethod::PreconditionedSgd`] (§6.2.1) on top of the
    /// default SGD/baseline paths; a preconditioning breakdown counts as a
    /// failed trial, matching Figure 6.5's tally.
    fn solve<F: Fpu>(
        &self,
        spec: &SolverSpec,
        fpu: &mut F,
    ) -> Result<RobustOutcome<Matching>, CoreError> {
        match spec.method {
            SolveMethod::PreconditionedSgd => match self.run_preconditioned_lp(spec, fpu) {
                Ok((matching, report)) => Ok(RobustOutcome {
                    solution: Some(matching),
                    report: Some(report),
                }),
                Err(_) => Ok(RobustOutcome {
                    solution: None,
                    report: None,
                }),
            },
            _ => robustify_core::default_solve(self, spec, fpu),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use robustify_core::StepSchedule;
    use robustify_graph::generators::random_bipartite;
    use stochastic_fpu::{BitFaultModel, FaultRate, NoisyFpu, ReliableFpu};

    fn paper_workload(seed: u64) -> MatchingProblem {
        // The paper's graph: 11 nodes (5 + 6), 30 edges.
        let mut rng = StdRng::seed_from_u64(seed);
        MatchingProblem::new(random_bipartite(&mut rng, 5, 6, 30))
    }

    /// Solves `p` with `spec`, panicking on a breakdown.
    fn solved<F: Fpu>(p: &MatchingProblem, spec: &SolverSpec, fpu: &mut F) -> Matching {
        p.solve(spec, fpu)
            .expect("supported method")
            .solution
            .expect("no breakdown")
    }

    #[test]
    fn baseline_is_optimal_reliably() {
        let p = paper_workload(1);
        let m = solved(&p, &SolverSpec::baseline(), &mut ReliableFpu::new());
        assert!(
            p.is_success(&m),
            "hungarian {} vs optimal {}",
            m.weight(),
            p.optimal_weight()
        );
    }

    #[test]
    fn robust_matching_succeeds_reliably() {
        let p = paper_workload(2);
        let spec = SolverSpec::sgd(6000, StepSchedule::Sqrt { gamma0: 0.05 })
            .with_annealing(Default::default());
        let m = solved(&p, &spec, &mut ReliableFpu::new());
        assert!(
            p.is_success(&m),
            "robust weight {} vs optimal {}",
            m.weight(),
            p.optimal_weight()
        );
    }

    #[test]
    fn robust_matching_survives_moderate_faults() {
        let p = paper_workload(3);
        let mut successes = 0;
        for seed in 0..6 {
            let spec = SolverSpec::sgd(6000, StepSchedule::Sqrt { gamma0: 0.05 })
                .with_annealing(Default::default())
                .with_aggressive_stepping(Default::default());
            let mut fpu = NoisyFpu::new(FaultRate::per_flop(0.02), BitFaultModel::emulated(), seed);
            let m = solved(&p, &spec, &mut fpu);
            if p.is_success(&m) {
                successes += 1;
            }
        }
        assert!(
            successes >= 3,
            "only {successes}/6 robust matchings succeeded at 2%"
        );
    }

    #[test]
    fn preconditioned_path_matches_reliably() {
        let mut rng = StdRng::seed_from_u64(5);
        let p = MatchingProblem::new(random_bipartite(&mut rng, 3, 3, 7));
        let spec = SolverSpec::preconditioned_sgd(6000, StepSchedule::Sqrt { gamma0: 0.05 });
        let m = solved(&p, &spec, &mut ReliableFpu::new());
        assert!(
            p.is_success(&m),
            "preconditioned weight {} vs optimal {}",
            m.weight(),
            p.optimal_weight()
        );
    }

    #[test]
    fn decode_ignores_phantom_edges() {
        let g = BipartiteGraph::new(2, 2, vec![(0, 0, 5.0)]).expect("valid graph");
        let p = MatchingProblem::new(g);
        let cost = p.robust_cost(1.0, 1.0, PenaltyKind::Squared);
        // X confidently selects (0,0) and the non-existent (1,1).
        let m = p.decode(&cost, &[0.9, 0.0, 0.0, 0.9]);
        assert_eq!(m.pairs(), &[(0, 0)]);
        assert_eq!(m.weight(), 5.0);
    }

    #[test]
    fn success_compares_weights_not_edge_sets() {
        // Two optimal matchings of equal weight both count as success.
        let g = BipartiteGraph::new(
            2,
            2,
            vec![(0, 0, 2.0), (0, 1, 2.0), (1, 0, 2.0), (1, 1, 2.0)],
        )
        .expect("valid graph");
        let p = MatchingProblem::new(g);
        let m1 = Matching::new(vec![(0, 0), (1, 1)], 4.0);
        let m2 = Matching::new(vec![(0, 1), (1, 0)], 4.0);
        assert!(p.is_success(&m1));
        assert!(p.is_success(&m2));
        assert!(!p.is_success(&Matching::new(vec![(0, 0)], 2.0)));
    }

    #[test]
    fn optimal_weight_agrees_with_brute_force() {
        for seed in 0..5 {
            let p = paper_workload(seed);
            let exact = brute_force_matching(p.graph()).weight();
            assert!((p.optimal_weight() - exact).abs() < 1e-9);
        }
    }

    #[test]
    fn decode_skips_negative_weight_edges_without_panicking() {
        // A negative edge in the relaxed support must be dropped, not fed
        // to the Hungarian pass (which rejects negative weights).
        let g = BipartiteGraph::new(
            2,
            2,
            vec![(0, 0, -1.0), (0, 1, 2.0), (1, 0, 2.0), (1, 1, 3.0)],
        )
        .expect("valid graph");
        let p = MatchingProblem::new(g);
        let cost = p.robust_cost(
            MatchingProblem::DEFAULT_MU1,
            MatchingProblem::DEFAULT_MU2,
            PenaltyKind::Squared,
        );
        // Full mass on every edge, including the negative one.
        let m = p.decode(&cost, &[1.0, 1.0, 1.0, 1.0]);
        assert!(
            m.pairs().iter().all(|&pair| pair != (0, 0)),
            "kept a negative edge"
        );
        assert_eq!(
            m.weight(),
            4.0,
            "best non-negative matching is (0,1) + (1,0)"
        );
    }
}
