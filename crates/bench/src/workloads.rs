//! The paper's experiment workloads (Chapter 5/6 scales), seeded and
//! reproducible.
//!
//! "For sorting, array size is 5 elements. For the LSQ problem, A is
//! 100 × 10 and B is 100 × 1. Bipartite graph matching is performed for a
//! graph with 11 nodes and 30 edges. IIR filter uses a 10-tap filter for
//! 500 input samples."

use rand::rngs::StdRng;
use rand::SeedableRng;
use robustify_apps::apsp::ApspProblem;
use robustify_apps::doubly_stochastic::AssignmentProblem;
use robustify_apps::eigen::EigenProblem;
use robustify_apps::iir::{random_signal, IirFilter, IirProblem};
use robustify_apps::least_squares::LeastSquares;
use robustify_apps::matching::MatchingProblem;
use robustify_apps::maxflow::MaxFlowProblem;
use robustify_apps::poisson2d::Poisson2d;
use robustify_apps::sorting::SortProblem;
use robustify_apps::svm::{Dataset, SvmProblem};
use robustify_core::{
    AggressiveStepping, Annealing, GradientGuard, SolverSpec, StepSchedule, WorkloadRegistry,
};
use robustify_graph::generators::{
    random_bipartite, random_flow_network, random_strongly_connected,
};

/// The paper's least squares workload: a random well-conditioned
/// `100 × 10` system.
pub fn paper_least_squares(seed: u64) -> LeastSquares {
    LeastSquares::random(&mut StdRng::seed_from_u64(seed), 100, 10)
}

/// An ill-conditioned variant of the least squares workload (condition
/// number `cond`), for the Figure 6.6 accuracy comparison.
pub fn ill_conditioned_least_squares(seed: u64, cond: f64) -> LeastSquares {
    LeastSquares::random_with_condition(&mut StdRng::seed_from_u64(seed), 100, 10, cond)
}

/// The paper's sorting workload: a 5-element random array.
pub fn paper_sort(seed: u64) -> SortProblem {
    SortProblem::random(&mut StdRng::seed_from_u64(seed), 5)
}

/// The paper's matching workload: a bipartite graph with 11 nodes
/// (5 + 6) and 30 edges.
pub fn paper_matching(seed: u64) -> MatchingProblem {
    MatchingProblem::new(random_bipartite(&mut StdRng::seed_from_u64(seed), 5, 6, 30))
}

/// The paper's IIR workload: a stable ~10-tap filter and a 500-sample
/// input signal.
pub fn paper_iir(seed: u64) -> (IirFilter, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let filter = IirFilter::random_stable(&mut rng, 4, 2);
    let u = random_signal(&mut rng, 500);
    (filter, u)
}

/// The paper's IIR workload bound into a sweepable
/// [`RobustProblem`](robustify_core::RobustProblem).
pub fn paper_iir_problem(seed: u64) -> IirProblem {
    let (filter, u) = paper_iir(seed);
    IirProblem::new(filter, u).expect("500 samples exceed the tap count")
}

/// An SVM workload: 40 separable 4-dimensional points (margin 2.0) with a
/// soft-margin regularizer `λ = 0.05`.
pub fn paper_svm(seed: u64) -> SvmProblem {
    let data = Dataset::separable_blobs(&mut StdRng::seed_from_u64(seed), 40, 4, 2.0, 0.9);
    SvmProblem::new(data, 0.05).expect("λ is positive")
}

/// An eigenvalue workload: a random symmetric `8 × 8` matrix with a
/// positive top eigenvalue.
pub fn paper_eigen(seed: u64) -> EigenProblem {
    EigenProblem::random(&mut StdRng::seed_from_u64(seed), 8)
}

/// A doubly stochastic assignment workload: a random `5 × 5` positive
/// payoff matrix.
pub fn paper_doubly_stochastic(seed: u64) -> AssignmentProblem {
    AssignmentProblem::random(&mut StdRng::seed_from_u64(seed), 5)
}

/// A max-flow workload: a random 8-vertex, ~20-edge network.
pub fn paper_maxflow(seed: u64) -> MaxFlowProblem {
    MaxFlowProblem::new(random_flow_network(&mut StdRng::seed_from_u64(seed), 8, 13))
        .expect("generated networks are non-empty")
}

/// The interior grid side of the large-sparse Poisson workload:
/// `320² = 102 400` unknowns and ~510k stored nonzeros (megabytes of
/// resident matrix data — the scale the array-resident memory-fault
/// models need).
pub const POISSON_GRID: usize = 320;

/// The large-sparse workload: a 2D Poisson solve at ≥ 10⁵ unknowns on the
/// CSR backend.
pub fn paper_poisson2d(seed: u64) -> Poisson2d {
    Poisson2d::new(POISSON_GRID, &mut StdRng::seed_from_u64(seed))
}

/// An all-pairs shortest path workload: a random strongly connected
/// 6-vertex digraph.
pub fn paper_apsp(seed: u64) -> ApspProblem {
    ApspProblem::new(random_strongly_connected(
        &mut StdRng::seed_from_u64(seed),
        6,
        9,
    ))
    .expect("cycle-backbone graphs are strongly connected")
}

/// SGD with the `γ₀/√t` step schedule.
fn sqrt_sgd(iters: usize, gamma0: f64) -> SolverSpec {
    SolverSpec::sgd(iters, StepSchedule::Sqrt { gamma0 })
}

/// The least squares solver, at a workload-derived step size
/// (`LeastSquares::default_gamma0`).
fn least_squares_solver(gamma0: f64) -> SolverSpec {
    SolverSpec::sgd(1000, StepSchedule::Linear { gamma0 })
        .with_aggressive_stepping(AggressiveStepping::default())
}

/// The paper's 9 applications plus the large-sparse Poisson workload and
/// the ill-conditioned least squares variant, as a named
/// [`WorkloadRegistry`]: the vocabulary `campaign_server` and every
/// campaign thin client resolve job specs against.
///
/// Each factory is a deterministic function of the seed (the same
/// constructors the figure binaries call directly), and each default
/// solver is the paper-faithful configuration of the figures / Chapter 7
/// — with the instance-derived step sizes (`default_gamma0`) recomputed
/// from the seed, so a job that omits its solver gets exactly what the
/// figure binaries would use.
pub fn paper_registry() -> WorkloadRegistry {
    let mut reg = WorkloadRegistry::new();
    reg.register(
        "least_squares",
        Box::new(|seed| Box::new(paper_least_squares(seed))),
        Box::new(|seed| least_squares_solver(paper_least_squares(seed).default_gamma0())),
    );
    reg.register(
        "least_squares_ill",
        Box::new(|seed| Box::new(ill_conditioned_least_squares(seed, 1e4))),
        Box::new(|seed| {
            least_squares_solver(ill_conditioned_least_squares(seed, 1e4).default_gamma0())
        }),
    );
    reg.register(
        "iir",
        Box::new(|seed| Box::new(paper_iir_problem(seed))),
        Box::new(|seed| sqrt_sgd(1000, paper_iir_problem(seed).default_gamma0())),
    );
    reg.register(
        "sorting",
        Box::new(|seed| Box::new(paper_sort(seed))),
        Box::new(|_| {
            sqrt_sgd(10_000, 0.1)
                .with_guard(GradientGuard::Adaptive {
                    factor: 3.0,
                    reject: 30.0,
                })
                .with_aggressive_stepping(AggressiveStepping::default())
        }),
    );
    reg.register(
        "matching",
        Box::new(|seed| Box::new(paper_matching(seed))),
        Box::new(|_| sqrt_sgd(10_000, 0.05)),
    );
    reg.register(
        "maxflow",
        Box::new(|seed| Box::new(paper_maxflow(seed))),
        Box::new(|_| sqrt_sgd(8000, 0.02).with_annealing(Annealing::default())),
    );
    reg.register(
        "apsp",
        Box::new(|seed| Box::new(paper_apsp(seed))),
        Box::new(|_| sqrt_sgd(8000, 0.02).with_annealing(Annealing::default())),
    );
    reg.register(
        "svm",
        Box::new(|seed| Box::new(paper_svm(seed))),
        Box::new(|_| sqrt_sgd(2000, 0.1)),
    );
    reg.register(
        "eigen",
        Box::new(|seed| Box::new(paper_eigen(seed))),
        Box::new(|_| sqrt_sgd(4000, 0.02)),
    );
    reg.register(
        "doubly_stochastic",
        Box::new(|seed| Box::new(paper_doubly_stochastic(seed))),
        Box::new(|_| sqrt_sgd(3000, 0.1)),
    );
    reg.register(
        "poisson2d",
        Box::new(|seed| Box::new(paper_poisson2d(seed))),
        Box::new(|_| SolverSpec::cg(robustify_apps::poisson2d::CG_BUDGET)),
    );
    reg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_match_paper_scales() {
        let lsq = paper_least_squares(1);
        assert_eq!((lsq.a().rows(), lsq.a().cols()), (100, 10));
        assert_eq!(paper_sort(1).len(), 5);
        let m = paper_matching(1);
        assert_eq!(m.graph().left_count() + m.graph().right_count(), 11);
        assert_eq!(m.graph().edges().len(), 30);
        let (f, u) = paper_iir(1);
        assert_eq!(u.len(), 500);
        assert!(f.denominator().len() >= 9);
    }

    #[test]
    fn workloads_are_deterministic() {
        assert_eq!(paper_sort(7).input(), paper_sort(7).input());
        assert_eq!(paper_least_squares(7), paper_least_squares(7));
        assert_ne!(paper_sort(7).input(), paper_sort(8).input());
        assert_eq!(paper_svm(7), paper_svm(7));
        assert_eq!(paper_eigen(7), paper_eigen(7));
        assert_eq!(paper_doubly_stochastic(7), paper_doubly_stochastic(7));
    }

    #[test]
    fn every_app_is_sweep_reachable() {
        use robustify_core::RobustProblem;
        // The scenario-diversity guarantee: all 10 applications expose the
        // unified problem interface through a workload constructor. (The
        // Poisson entry uses a tiny grid — the name does not depend on
        // scale, and the paper-scale constructor solves a 10⁵-unknown
        // reference system.)
        let names = [
            RobustProblem::name(&paper_least_squares(1)),
            RobustProblem::name(&paper_sort(1)),
            RobustProblem::name(&paper_matching(1)),
            RobustProblem::name(&paper_iir_problem(1)),
            RobustProblem::name(&paper_maxflow(1)),
            RobustProblem::name(&paper_apsp(1)),
            RobustProblem::name(&paper_svm(1)),
            RobustProblem::name(&paper_eigen(1)),
            RobustProblem::name(&paper_doubly_stochastic(1)),
            RobustProblem::name(&Poisson2d::new(2, &mut StdRng::seed_from_u64(1))),
        ];
        assert_eq!(names.len(), 10);
        let distinct: std::collections::HashSet<&str> = names.iter().copied().collect();
        assert_eq!(distinct.len(), 10, "problem names must be distinct");
    }

    #[test]
    fn registry_names_every_app_and_matches_the_direct_constructors() {
        use stochastic_fpu::{FaultRate, NoisyFpu};
        let reg = paper_registry();
        assert_eq!(
            reg.names(),
            vec![
                "apsp",
                "doubly_stochastic",
                "eigen",
                "iir",
                "least_squares",
                "least_squares_ill",
                "matching",
                "maxflow",
                "poisson2d",
                "sorting",
                "svm",
            ]
        );
        // A registry-materialized trial is bit-identical to the direct
        // constructor path (type erasure must not change trials).
        let spec = reg.default_solver("sorting", 5).expect("registered");
        let via_registry = {
            let problem = reg.materialize("sorting", 5).expect("registered");
            let mut fpu = NoisyFpu::new(
                FaultRate::percent_of_flops(2.0),
                stochastic_fpu::FaultModelSpec::default(),
                9,
            );
            problem.run_trial_dyn(&spec, &mut fpu)
        };
        let direct = {
            use robustify_core::RobustProblem;
            let mut fpu = NoisyFpu::new(
                FaultRate::percent_of_flops(2.0),
                stochastic_fpu::FaultModelSpec::default(),
                9,
            );
            paper_sort(5).run_trial(&spec, &mut fpu)
        };
        assert_eq!(via_registry, direct);
    }

    #[test]
    fn ill_conditioned_workload_has_target_condition() {
        let p = ill_conditioned_least_squares(3, 1e4);
        let cond = robustify_linalg::condition_number(p.a()).expect("full rank");
        assert!((cond / 1e4 - 1.0).abs() < 0.1, "cond {cond}");
    }
}
