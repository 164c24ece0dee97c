//! Workspace bootstrap smoke test: the `robustify` facade re-exports
//! resolve, and the `NoisyFpu` quickstart from `src/lib.rs` is
//! deterministic under a fixed seed.

use robustify::apps::least_squares::LeastSquares;
use robustify::core::{run_sgd, RobustProblem, SolverSpec, StepSchedule};
use robustify::fpu::{BitFaultModel, FaultRate, Fpu, NoisyFpu, ReliableFpu};
use robustify::graph::BipartiteGraph;
use robustify::linalg::Matrix;

/// Every facade module is reachable and usable for its most basic
/// construction — a compile-plus-runtime check that the workspace wiring
/// (`fpu`, `linalg`, `core`, `graph`, `apps`) stays intact.
#[test]
fn facade_reexports_resolve() {
    let mut fpu = ReliableFpu::new();
    assert_eq!(fpu.add(2.0, 2.0), 4.0);

    let eye = Matrix::identity(3);
    assert_eq!(eye.rows(), 3);

    let spec = SolverSpec::sgd(10, StepSchedule::Fixed(0.1));
    let mut quad = robustify::core::QuadraticResidualCost::new(Matrix::identity(2), vec![1.0, 1.0])
        .expect("consistent shapes");
    let report = run_sgd(&spec, &mut quad, &[0.0, 0.0], &mut fpu);
    assert_eq!(report.iterations, 10);

    let graph = BipartiteGraph::new(1, 1, vec![(0, 0, 1.0)]).expect("valid edge");
    assert_eq!(graph.edges().len(), 1);

    let problem = LeastSquares::from_rows(&[&[1.0], &[1.0]], vec![2.0, 2.0]).expect("valid rows");
    assert_eq!(problem.dim(), 1);
}

/// The crate-level quickstart from `src/lib.rs`, with a fixed seed: the
/// solve must succeed and the whole run (outputs, FLOP and fault counters)
/// must replay identically.
#[test]
fn quickstart_runs_deterministically_with_fixed_seed() {
    let run = || {
        let problem = LeastSquares::from_rows(
            &[&[1.0, 1.0], &[1.0, 2.0], &[1.0, 3.0]],
            vec![1.0, 2.0, 3.0],
        )
        .expect("valid rows");
        let mut fpu = NoisyFpu::new(FaultRate::per_flop(0.01), BitFaultModel::emulated(), 42);
        let spec = SolverSpec::sgd(
            1000,
            StepSchedule::Linear {
                gamma0: problem.default_gamma0(),
            },
        );
        let report = problem
            .solve(&spec, &mut fpu)
            .expect("sgd is supported")
            .report
            .expect("sgd reports");
        assert!(
            problem.relative_error(&report.x) < 0.5,
            "quickstart failed to converge: {:?}",
            report.x
        );
        (report.x.clone(), report.flops, report.faults)
    };
    let (x1, flops1, faults1) = run();
    let (x2, flops2, faults2) = run();
    assert_eq!(
        x1, x2,
        "iterates must replay bit-for-bit under a fixed seed"
    );
    assert_eq!(flops1, flops2);
    assert_eq!(faults1, faults2);
    assert!(
        faults1 > 0,
        "a 1% fault rate over an SGD solve must inject faults"
    );
}
