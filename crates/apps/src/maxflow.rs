//! Maximum flow (§4.5): robustified as the flow LP (eqs. 4.6–4.9)
//!
//! ```text
//! minimize  Σ_v −F_sv
//! s.t.      Σ_u F_uv − Σ_u F_vu = 0      ∀ v ∉ {s, t}   (conservation)
//!           F_uv ≤ C_uv                                  (capacity)
//!           −F_uv ≤ 0                                    (non-negativity)
//! ```
//!
//! with one variable per edge, solved by SGD on the exact-penalty form; the
//! baseline is Ford–Fulkerson through the faulty FPU.

use robustify_core::{
    CoreError, LinearCost, LinearProgram, PenaltyCost, PenaltyKind, RobustProblem, SolverSpec,
    Verdict,
};
use robustify_graph::{max_flow, FlowNetwork};
use robustify_linalg::Matrix;
use stochastic_fpu::{Fpu, ReliableFpu};

/// A max-flow problem with a robust LP solver and the Ford–Fulkerson
/// baseline.
///
/// # Examples
///
/// ```
/// use robustify_apps::maxflow::MaxFlowProblem;
/// use robustify_core::{Annealing, RobustProblem, SolverSpec, StepSchedule};
/// use robustify_graph::FlowNetwork;
/// use stochastic_fpu::ReliableFpu;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let net = FlowNetwork::new(4, 0, 3, vec![
///     (0, 1, 3.0), (0, 2, 2.0), (1, 3, 2.0), (2, 3, 3.0),
/// ])?;
/// let p = MaxFlowProblem::new(net)?;
/// let spec = SolverSpec::sgd(6000, StepSchedule::Sqrt { gamma0: 0.02 })
///     .with_annealing(Annealing::default());
/// let value = p.solve(&spec, &mut ReliableFpu::new())?.solution.expect("sgd decodes");
/// assert!((value - 4.0).abs() < 0.3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MaxFlowProblem {
    net: FlowNetwork,
    optimal_value: f64,
    capacity_scale: f64,
}

impl MaxFlowProblem {
    /// Default penalty weight `μ` for the exact-penalty form.
    pub const DEFAULT_MU: f64 = 10.0;

    /// Creates the problem, computing the ground-truth max flow offline
    /// with a reliable Ford–Fulkerson run.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the network has no edges.
    pub fn new(net: FlowNetwork) -> Result<Self, CoreError> {
        if net.edges().is_empty() {
            return Err(CoreError::invalid_config("flow network has no edges"));
        }
        let optimal_value = max_flow(&mut ReliableFpu::new(), &net)
            .expect("reliable max-flow cannot break down")
            .value;
        let capacity_scale = net
            .edges()
            .iter()
            .map(|&(_, _, c)| c)
            .fold(1e-12f64, f64::max);
        Ok(MaxFlowProblem {
            net,
            optimal_value,
            capacity_scale,
        })
    }

    /// The underlying network.
    pub fn network(&self) -> &FlowNetwork {
        &self.net
    }

    /// The ground-truth maximum flow value.
    pub fn optimal_value(&self) -> f64 {
        self.optimal_value
    }

    /// The flow LP of eqs. 4.6–4.9 over per-edge variables, with capacities
    /// scaled to `[0, 1]` so step sizes transfer across workloads.
    pub fn to_lp(&self) -> LinearProgram {
        let edges = self.net.edges();
        let m = edges.len();
        let n = self.net.vertex_count();
        let (s, t) = (self.net.source(), self.net.sink());
        // Objective: maximize the *net* source outflow, i.e. minimize
        // Σ −F_sv + Σ F_vs. The paper's eq. 4.6 writes only the −F_sv terms
        // (its networks have no edges into the source); counting return
        // edges keeps the LP correct on general workloads, where a cycle
        // through the source could otherwise inflate the objective.
        let c: Vec<f64> = edges
            .iter()
            .map(|&(u, v, _)| {
                if u == s {
                    -1.0
                } else if v == s {
                    1.0
                } else {
                    0.0
                }
            })
            .collect();
        // Conservation rows for every v ∉ {s, t}: Σ_in − Σ_out = 0.
        let interior: Vec<usize> = (0..n).filter(|&v| v != s && v != t).collect();
        let mut lp = LinearProgram::minimize(c);
        if !interior.is_empty() {
            let e_mat = Matrix::from_fn(interior.len(), m, |row, e| {
                let v = interior[row];
                let (from, to, _) = edges[e];
                if to == v {
                    1.0
                } else if from == v {
                    -1.0
                } else {
                    0.0
                }
            });
            lp = lp
                .with_equalities(e_mat, vec![0.0; interior.len()])
                .expect("constructed shapes are consistent");
        }
        // Capacity rows: F_e ≤ C_e (scaled); non-negativity via the flag.
        let cap = Matrix::identity(m);
        let b: Vec<f64> = edges
            .iter()
            .map(|&(_, _, c)| c / self.capacity_scale)
            .collect();
        lp.with_upper_bounds(cap, b)
            .expect("constructed shapes are consistent")
            .with_nonneg()
    }

    /// Decodes a per-edge flow vector to the source outflow (native
    /// arithmetic; non-finite lanes count as zero).
    pub fn decode_value(&self, f: &[f64]) -> f64 {
        let s = self.net.source();
        self.net
            .edges()
            .iter()
            .zip(f)
            .map(|(&(u, v, _), &fe)| {
                if !fe.is_finite() {
                    return 0.0;
                }
                let fe = fe * self.capacity_scale;
                if u == s {
                    fe
                } else if v == s {
                    -fe
                } else {
                    0.0
                }
            })
            // detlint::allow(float-reassociation, reason = "flow-value measurement is reliable verification arithmetic")
            .sum()
    }

    /// Relative error of a flow value against the ground truth (native
    /// measurement; non-finite values yield `∞`).
    pub fn relative_error(&self, value: f64) -> f64 {
        if !value.is_finite() {
            return f64::INFINITY;
        }
        (value - self.optimal_value).abs() / self.optimal_value.max(1e-300)
    }
}

impl RobustProblem for MaxFlowProblem {
    type Solution = f64;
    type Cost = PenaltyCost<LinearCost>;

    fn name(&self) -> &'static str {
        "maxflow"
    }

    fn cost(&self) -> Self::Cost {
        self.to_lp()
            .penalized(Self::DEFAULT_MU, PenaltyKind::Squared)
            .expect("default mu is valid")
    }

    fn decode(&self, _cost: &Self::Cost, x: &[f64]) -> f64 {
        self.decode_value(x)
    }

    /// The metric is the relative flow-value error; success requires it at
    /// most 5% of the optimum.
    fn verify(&self, solution: &f64) -> Verdict {
        Verdict::from_metric(self.relative_error(*solution), 0.05)
    }

    /// The fault-exposed Ford–Fulkerson baseline; a numerical breakdown is
    /// a failed run.
    fn baseline<F: Fpu>(&self, _spec: &SolverSpec, fpu: &mut F) -> Option<f64> {
        max_flow(fpu, &self.net).ok().map(|r| r.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use robustify_core::StepSchedule;
    use robustify_graph::generators::random_flow_network;
    use stochastic_fpu::{BitFaultModel, FaultRate, NoisyFpu};

    fn diamond() -> MaxFlowProblem {
        MaxFlowProblem::new(
            FlowNetwork::new(
                4,
                0,
                3,
                vec![
                    (0, 1, 3.0),
                    (0, 2, 2.0),
                    (1, 3, 2.0),
                    (2, 3, 3.0),
                    (1, 2, 1.0),
                ],
            )
            .expect("valid network"),
        )
        .expect("non-empty network")
    }

    fn annealed_sgd() -> SolverSpec {
        SolverSpec::sgd(6000, StepSchedule::Sqrt { gamma0: 0.02 })
            .with_annealing(Default::default())
    }

    /// Solves `p` with `spec`, panicking on a breakdown.
    fn solved<F: Fpu>(p: &MaxFlowProblem, spec: &SolverSpec, fpu: &mut F) -> f64 {
        p.solve(spec, fpu)
            .expect("supported method")
            .solution
            .expect("no breakdown")
    }

    #[test]
    fn lp_optimum_matches_ford_fulkerson() {
        // Check that a feasible flow attaining the max value has LP
        // objective −value/scale and zero violation.
        let p = diamond();
        let lp = p.to_lp();
        // Max flow 5: F = [3, 2, 2, 3, 1] (edge order as constructed).
        let scale = 3.0;
        let f: Vec<f64> = [3.0, 2.0, 2.0, 3.0, 1.0]
            .iter()
            .map(|v| v / scale)
            .collect();
        assert!(
            lp.violation(&f) < 1e-12,
            "optimal flow infeasible in the LP"
        );
        assert!((lp.objective_value(&f) - (-5.0 / scale)).abs() < 1e-12);
        assert!((p.decode_value(&f) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn sgd_approaches_max_flow_reliably() {
        let p = diamond();
        let value = solved(&p, &annealed_sgd(), &mut ReliableFpu::new());
        assert!(
            p.relative_error(value) < 0.1,
            "value {value} vs optimal {}",
            p.optimal_value()
        );
    }

    #[test]
    fn sgd_degrades_gracefully_under_faults() {
        let p = diamond();
        let mut total = 0.0;
        let runs = 5;
        for seed in 0..runs {
            let mut fpu = NoisyFpu::new(FaultRate::per_flop(0.01), BitFaultModel::emulated(), seed);
            let value = solved(&p, &annealed_sgd(), &mut fpu);
            total += p.relative_error(value).min(10.0);
        }
        assert!(
            total / (runs as f64) < 0.5,
            "mean relative error {}",
            total / runs as f64
        );
    }

    #[test]
    fn random_networks_roundtrip() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..5 {
            let p = MaxFlowProblem::new(random_flow_network(&mut rng, 6, 8))
                .expect("non-empty network");
            assert!(p.optimal_value() > 0.0);
            let lp = p.to_lp();
            assert_eq!(lp.dim(), p.network().edges().len());
        }
    }

    #[test]
    fn decode_ignores_non_finite_lanes() {
        let p = diamond();
        let v = p.decode_value(&[f64::NAN, 1.0 / 3.0, 0.0, 0.0, 0.0]);
        assert_eq!(v, 1.0, "NaN lane should contribute zero");
    }

    #[test]
    fn empty_network_rejected() {
        let net = FlowNetwork::new(2, 0, 1, vec![]).expect("structurally valid");
        assert!(MaxFlowProblem::new(net).is_err());
    }
}
