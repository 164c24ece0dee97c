//! Property-based tests for the robustification framework.

use proptest::prelude::*;
use robustify_core::{
    run_cgls, run_sgd, AffineConstraints, CostFunction, GradientGuard, GuardState, LinearCost,
    LinearProgram, PenaltyCost, PenaltyKind, QuadraticResidualCost, SolverSpec, StepSchedule,
};
use robustify_linalg::Matrix;
use stochastic_fpu::ReliableFpu;

fn matrix_strategy(m: usize, n: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-5.0f64..5.0, m * n)
        .prop_map(move |data| Matrix::from_vec(m, n, data).expect("buffer sized m*n"))
}

fn full_rank_tall(m: usize, n: usize) -> impl Strategy<Value = Matrix> {
    matrix_strategy(m, n).prop_map(move |mut a| {
        for j in 0..n {
            let v = a[(j, j)];
            a[(j, j)] = v + 15.0;
        }
        a
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Step schedules are positive and within their defining envelopes.
    #[test]
    fn schedules_are_positive_and_bounded(gamma0 in 0.001f64..10.0, t in 1usize..100_000) {
        for s in [
            StepSchedule::Fixed(gamma0),
            StepSchedule::Linear { gamma0 },
            StepSchedule::Sqrt { gamma0 },
        ] {
            let g = s.step(t);
            prop_assert!(g > 0.0 && g <= gamma0 + 1e-15, "{s:?} at {t}: {g}");
        }
    }

    /// Penalized cost equals the raw objective exactly on feasible points,
    /// and strictly exceeds it on infeasible ones.
    #[test]
    fn penalty_is_exact_zero_on_feasible_points(
        x0 in -1.0f64..1.0,
        x1 in -1.0f64..1.0,
        mu in 0.5f64..100.0,
    ) {
        let ineq = AffineConstraints::new(
            Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]).expect("valid rows"),
            vec![1.0, 1.0],
        ).expect("consistent");
        for kind in [PenaltyKind::Abs, PenaltyKind::Squared] {
            let cost = PenaltyCost::new(LinearCost::new(vec![2.0, -3.0]), mu, kind)
                .expect("valid mu")
                .with_inequalities(ineq.clone())
                .expect("dims match");
            let mut fpu = ReliableFpu::new();
            let x = [x0, x1]; // always feasible: coords ≤ 1
            let expected = 2.0 * x0 - 3.0 * x1;
            prop_assert!((cost.cost(&x, &mut fpu) - expected).abs() < 1e-12);
            let bad = [x0 + 2.0, x1];
            prop_assert!(cost.cost(&bad, &mut fpu) > 2.0 * (x0 + 2.0) - 3.0 * x1);
        }
    }

    /// The LP violation measure is zero exactly on the feasible set.
    #[test]
    fn lp_violation_characterizes_feasibility(
        x0 in -2.0f64..2.0,
        x1 in -2.0f64..2.0,
    ) {
        let lp = LinearProgram::minimize(vec![1.0, 1.0])
            .with_upper_bounds(
                Matrix::from_rows(&[&[1.0, 1.0]]).expect("valid rows"),
                vec![1.0],
            )
            .expect("consistent")
            .with_nonneg();
        let feasible = x0 >= 0.0 && x1 >= 0.0 && x0 + x1 <= 1.0;
        let v = lp.violation(&[x0, x1]);
        prop_assert_eq!(v == 0.0, feasible, "violation {} at ({}, {})", v, x0, x1);
    }

    /// Subgradients of the penalty form match central finite differences at
    /// generic points (both penalty kinds).
    #[test]
    fn penalty_gradient_matches_finite_difference(
        x in proptest::collection::vec(-2.0f64..2.0, 3),
        mu in 0.5f64..20.0,
    ) {
        let a = Matrix::from_rows(&[&[1.0, 2.0, -1.0], &[0.5, -1.0, 1.5]]).expect("valid rows");
        let ineq = AffineConstraints::new(a, vec![0.37, -0.73]).expect("consistent");
        let cost = PenaltyCost::new(LinearCost::new(vec![1.0, -2.0, 0.5]), mu, PenaltyKind::Squared)
            .expect("valid mu")
            .with_inequalities(ineq)
            .expect("dims match")
            .with_nonneg();
        let mut fpu = ReliableFpu::new();
        let mut grad = vec![0.0; 3];
        cost.gradient(&x, &mut fpu, &mut grad);
        let h = 1e-6;
        for i in 0..3 {
            // Skip points that sit on a hinge kink for this lane.
            let mut p = x.clone();
            let mut m = x.clone();
            p[i] += h;
            m[i] -= h;
            let fd = (cost.cost(&p, &mut fpu) - cost.cost(&m, &mut fpu)) / (2.0 * h);
            if (grad[i] - fd).abs() > 1e-3 * (1.0 + fd.abs()) {
                // Tolerate kink points: verify the two one-sided slopes
                // bracket the reported subgradient instead.
                let f0 = cost.cost(&x, &mut fpu);
                let right = (cost.cost(&p, &mut fpu) - f0) / h;
                let left = (f0 - cost.cost(&m, &mut fpu)) / h;
                let (lo, hi) = if left <= right { (left, right) } else { (right, left) };
                prop_assert!(
                    grad[i] >= lo - 1e-3 && grad[i] <= hi + 1e-3,
                    "lane {}: subgradient {} outside [{}, {}]",
                    i, grad[i], lo, hi
                );
            }
        }
    }

    /// SGD on a least squares cost with a fixed stable step contracts the
    /// reliable cost (no noise ⇒ plain gradient descent must not increase
    /// the objective). A reliable run with budget `k` stops at iterate `k`,
    /// so rerunning every prefix budget walks the iterates of one solve.
    #[test]
    fn reliable_sgd_never_increases_quadratic_cost(a in full_rank_tall(6, 3)) {
        let b = vec![1.0, -2.0, 0.5, 3.0, -1.0, 2.0];
        let mut cost = QuadraticResidualCost::new(a.clone(), b).expect("consistent");
        // Stable step: 1/(2 σ_max²) ≤ 1/(2 ‖A‖_F²).
        let mut fpu = ReliableFpu::new();
        let fro = a.frobenius_norm(&mut fpu);
        let gamma = 0.5 / (fro * fro);
        let costs: Vec<f64> = (0..=50)
            .map(|k| {
                let spec = SolverSpec::sgd(k, StepSchedule::Fixed(gamma))
                    .with_guard(GradientGuard::Off);
                let report = run_sgd(&spec, &mut cost, &[0.0; 3], &mut ReliableFpu::new());
                cost.cost(&report.x, &mut ReliableFpu::new())
            })
            .collect();
        for w in costs.windows(2) {
            prop_assert!(w[1] <= w[0] + 1e-9, "cost increased: {:?}", costs);
        }
    }

    /// CG on a consistent square system solves it to high accuracy within
    /// `n` iterations on a reliable FPU.
    #[test]
    fn cg_solves_consistent_systems(a in full_rank_tall(4, 4), x_true in proptest::collection::vec(-3.0f64..3.0, 4)) {
        let mut fpu = ReliableFpu::new();
        let b = a.matvec(&mut fpu, &x_true).expect("shapes match");
        // Unrestarted: the interval lies past the budget.
        let spec = SolverSpec::cg(12).with_restart(13);
        let report = run_cgls(&spec, &a, &b, &mut ReliableFpu::new());
        let cost = QuadraticResidualCost::new(a.clone(), b.clone()).expect("consistent")
            .cost(&report.x, &mut ReliableFpu::new());
        prop_assert!(cost < 1e-12, "residual {}", cost);
    }

    /// Every guard policy leaves an already-clean, small gradient intact.
    #[test]
    fn guards_do_not_disturb_clean_gradients(
        g in proptest::collection::vec(-0.5f64..0.5, 6),
    ) {
        for guard in [
            GradientGuard::Off,
            GradientGuard::ZeroNonFinite,
            GradientGuard::Clip { max_norm: 10.0 },
            GradientGuard::ClampComponents { max_abs: 10.0 },
        ] {
            let mut v = g.clone();
            GuardState::new(guard).apply(&mut v);
            prop_assert_eq!(&v, &g, "{:?} altered a clean gradient", guard);
        }
    }

    /// Every guard policy removes non-finite lanes (except `Off`).
    #[test]
    fn guards_remove_non_finite_lanes(
        g in proptest::collection::vec(-0.5f64..0.5, 6),
        lane in 0usize..6,
    ) {
        for guard in [
            GradientGuard::ZeroNonFinite,
            GradientGuard::Clip { max_norm: 10.0 },
            GradientGuard::ClampComponents { max_abs: 10.0 },
            GradientGuard::Adaptive { factor: 10.0, reject: 100.0 },
        ] {
            let mut v = g.clone();
            v[lane] = f64::INFINITY;
            GuardState::new(guard).apply(&mut v);
            prop_assert!(v.iter().all(|x| x.is_finite()), "{:?} left a non-finite lane", guard);
        }
    }
}
