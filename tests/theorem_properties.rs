//! Property-based tests of the paper's two theorems and the combinatorial
//! reductions, spanning crates.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use robustify::apps::matching::MatchingProblem;
use robustify::apps::sorting::SortProblem;
use robustify::core::{
    run_sgd, CostFunction, PenaltyKind, QuadraticCost, RobustProblem, SolverSpec, StepSchedule,
};
use robustify::fpu::{BitFaultModel, BitWidth, FaultRate, NoisyFpu, ReliableFpu};
use robustify::graph::generators::random_bipartite;
use robustify::graph::{brute_force_matching, hungarian};
use robustify::linalg::Matrix;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Theorem 1 sanity: on a strongly convex quadratic with bounded
    /// (low-order-bit) gradient noise, SGD with `1/t` steps lands near the
    /// optimum for any seed.
    #[test]
    fn theorem1_sgd_converges_under_bounded_noise(
        seed in 0u64..1000,
        b0 in -3.0f64..3.0,
        b1 in -3.0f64..3.0,
    ) {
        let q = Matrix::from_rows(&[&[2.0, 0.3], &[0.3, 2.0]]).expect("valid rows");
        let mut cost = QuadraticCost::new(q.clone(), vec![b0, b1]).expect("consistent");
        let mut fpu = NoisyFpu::new(
            FaultRate::per_flop(0.05),
            BitFaultModel::lsb_only(BitWidth::F64),
            seed,
        );
        let spec = SolverSpec::sgd(1500, StepSchedule::Linear { gamma0: 0.45 });
        let report = run_sgd(&spec, &mut cost, &[4.0, -4.0], &mut fpu);
        // x* solves Qx = b.
        let x_star = robustify::linalg::lstsq_qr(&mut ReliableFpu::new(), &q, &[b0, b1])
            .expect("nonsingular");
        for (got, want) in report.x.iter().zip(&x_star) {
            prop_assert!((got - want).abs() < 0.05, "x {:?} vs {:?}", report.x, x_star);
        }
    }

    /// Theorem 2 sanity on the doubly stochastic polytope: for large μ the
    /// penalized minimum over candidate vertices is attained at the true
    /// optimal assignment.
    #[test]
    fn theorem2_penalty_minimum_is_constrained_optimum(seed in 0u64..1000) {
        let graph = random_bipartite(&mut StdRng::seed_from_u64(seed), 3, 3, 6);
        let problem = MatchingProblem::new(graph.clone());
        let cost = problem.robust_cost(50.0, 50.0, PenaltyKind::Abs);
        let mut fpu = ReliableFpu::new();

        // Enumerate all 0/1 assignment matrices (feasible vertices) plus a
        // few infeasible corruptions; the penalized cost must be minimized
        // at an optimal assignment.
        let optimal_weight = brute_force_matching(&graph).weight();
        let max_w = graph.edges().iter().map(|&(_, _, w)| w.abs()).fold(1e-12f64, f64::max);
        let mut best_feasible = f64::INFINITY;
        for mask in 0u32..512 {
            let x: Vec<f64> = (0..9).map(|k| ((mask >> k) & 1) as f64).collect();
            // Feasibility: row and column sums at most one.
            let feasible = (0..3).all(|i| (0..3).map(|j| x[i * 3 + j]).sum::<f64>() <= 1.0)
                && (0..3).all(|j| (0..3).map(|i| x[i * 3 + j]).sum::<f64>() <= 1.0);
            let c = cost.cost(&x, &mut fpu);
            if feasible {
                best_feasible = best_feasible.min(c);
            } else {
                // Penalty must keep infeasible corners above the optimum.
                prop_assert!(
                    c > -optimal_weight / max_w - 1e-9,
                    "infeasible corner beats the optimum"
                );
            }
        }
        prop_assert!(
            (best_feasible - (-optimal_weight / max_w)).abs() < 1e-9,
            "best feasible {} vs -optimal {}",
            best_feasible,
            -optimal_weight / max_w
        );
    }

    /// The Brockett reduction: solving the sorting LP reliably recovers the
    /// exact ascending order. Values are kept well separated — a finite
    /// SGD budget cannot resolve payoff gaps far below its step-size floor
    /// (the LP itself is exact; the solver's resolution is not).
    #[test]
    fn sorting_lp_reduction_is_exact(
        gaps in proptest::collection::vec(3.0f64..10.0, 3..6),
        shift in -20.0f64..20.0,
        seed in 0u64..1000,
    ) {
        use rand::seq::SliceRandom;
        let mut u: Vec<f64> = gaps
            .iter()
            .scan(shift, |acc, g| {
                *acc += g;
                Some(*acc)
            })
            .collect();
        u.shuffle(&mut StdRng::seed_from_u64(seed));
        let problem = SortProblem::new(u).expect("finite entries");
        let spec = SolverSpec::sgd(6000, StepSchedule::Sqrt { gamma0: 0.1 });
        let out = problem
            .solve(&spec, &mut ReliableFpu::new())
            .expect("sgd is supported")
            .solution
            .expect("sgd decodes");
        prop_assert!(problem.is_success(&out), "output {:?}", out);
    }

    /// Hungarian (through a reliable FPU) equals brute force on random
    /// bipartite graphs — the baseline scorer the experiments rely on.
    #[test]
    fn hungarian_is_optimal(seed in 0u64..1000) {
        let graph = random_bipartite(&mut StdRng::seed_from_u64(seed), 4, 5, 12);
        let exact = brute_force_matching(&graph).weight();
        let m = hungarian(&mut ReliableFpu::new(), &graph).expect("reliable run");
        prop_assert!((m.weight() - exact).abs() < 1e-9);
    }

    /// The guard chain never produces non-finite iterates, whatever the
    /// fault rate throws at the gradient.
    #[test]
    fn iterates_stay_finite_under_any_fault_rate(
        seed in 0u64..1000,
        rate in 0.0f64..0.9,
    ) {
        let problem = SortProblem::random(&mut StdRng::seed_from_u64(seed), 4);
        let mut fpu =
            NoisyFpu::new(FaultRate::per_flop(rate), BitFaultModel::emulated(), seed);
        let spec = SolverSpec::sgd(300, StepSchedule::Sqrt { gamma0: 0.1 });
        let out = problem.solve(&spec, &mut fpu).expect("sgd is supported");
        let report = out.report.expect("sgd reports");
        prop_assert!(report.x.iter().all(|v| v.is_finite()));
        prop_assert!(out.solution.expect("sgd decodes").iter().all(|v| v.is_finite()));
    }
}
