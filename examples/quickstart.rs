//! Quickstart: solve a least squares problem on a processor whose FPU
//! corrupts 2% of floating point operations.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use robustify::apps::least_squares::LeastSquares;
use robustify::core::{AggressiveStepping, RobustProblem, SolverSpec, StepSchedule};
use robustify::fpu::{BitFaultModel, FaultRate, Fpu, NoisyFpu};
use robustify::linalg::lstsq_svd;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's workload scale: a random 100 x 10 system.
    let problem = LeastSquares::random(&mut StdRng::seed_from_u64(1), 100, 10);

    // A stochastic processor: every FPU result may have one random bit
    // flipped, on average once per 50 operations.
    let mut fpu = NoisyFpu::new(FaultRate::per_flop(0.02), BitFaultModel::emulated(), 42);

    // The deterministic baseline (SVD) executed on the same faulty FPU —
    // the paper calls this "disastrously unstable under numerical noise".
    // Calling the kernel directly (rather than the problem's `svd`
    // baseline) keeps the reason for a breakdown.
    let baseline_error = match lstsq_svd(&mut fpu, problem.a(), problem.b()) {
        Ok(x) => problem.residual_relative_error(&x),
        Err(e) => {
            println!("SVD baseline broke down: {e}");
            f64::INFINITY
        }
    };

    // The robustified version: the same problem recast as minimizing
    // ‖Ax − b‖² and solved with fault-tolerant stochastic gradient descent
    // (the paper's SGD+AS,LS configuration).
    let sgd = SolverSpec::sgd(
        1000,
        StepSchedule::Linear {
            gamma0: problem.default_gamma0(),
        },
    )
    .with_aggressive_stepping(AggressiveStepping::default());
    let x = problem
        .solve(&sgd, &mut fpu)?
        .solution
        .expect("sgd decodes");
    let robust_error = problem.residual_relative_error(&x);

    println!("faults injected so far : {}", fpu.faults());
    println!("baseline (SVD) error   : {baseline_error:.3e}");
    println!("robust (SGD) error     : {robust_error:.3e}");

    assert!(
        robust_error < 1.0,
        "the robust solver should stay in the ballpark"
    );
    Ok(())
}
