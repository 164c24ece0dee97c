//! The generic engine: "linear programming, which is P-complete, can be
//! implemented this way" (§1).
//!
//! A tiny production-planning LP solved on a faulty FPU through the exact
//! penalty transform — no application-specific code, just the
//! `LinearProgram` builder and SGD.
//!
//!     maximize  3·x0 + 2·x1            (profit)
//!     s.t.      x0 + x1 ≤ 4            (labour)
//!               2·x0 + x1 ≤ 5          (material)
//!               x ≥ 0
//!
//! Optimum: x = (1, 3) with profit 9.
//!
//! ```sh
//! cargo run --release --example generic_linear_program
//! ```

use robustify::core::{run_sgd, Annealing, LinearProgram, PenaltyKind, SolverSpec, StepSchedule};
use robustify::fpu::{BitFaultModel, FaultRate, Fpu, NoisyFpu};
use robustify::linalg::Matrix;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let lp = LinearProgram::minimize(vec![-3.0, -2.0]) // maximize = minimize the negation
        .with_upper_bounds(
            Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 1.0]])?,
            vec![4.0, 5.0],
        )?
        .with_nonneg();

    for rate_pct in [0.0, 1.0, 10.0] {
        let mut fpu = NoisyFpu::new(
            FaultRate::percent_of_flops(rate_pct),
            BitFaultModel::emulated(),
            7,
        );
        let mut cost = lp.penalized(10.0, PenaltyKind::Squared)?;
        let spec = SolverSpec::sgd(20_000, StepSchedule::Sqrt { gamma0: 0.1 })
            .with_annealing(Annealing::default());
        let report = run_sgd(&spec, &mut cost, &[0.0, 0.0], &mut fpu);
        println!(
            "fault rate {rate_pct:>4}%: x = ({:.3}, {:.3}), profit {:.3}, violation {:.2e}, {} faults",
            report.x[0],
            report.x[1],
            -lp.objective_value(&report.x),
            lp.violation(&report.x),
            fpu.faults(),
        );
    }
    println!("\nexact optimum: x = (1, 3), profit 9");
    Ok(())
}
