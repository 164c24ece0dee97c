//! An intrinsically robust application: IIR filtering of a sensor signal
//! on a voltage-overscaled DSP.
//!
//! The direct-form recursion accumulates FPU faults in its feedback state
//! and can blow up entirely; the variational form (`min ‖Bx − Au‖²`)
//! re-derives the whole output trajectory from the post-condition and
//! tolerates the same faults gracefully.
//!
//! ```sh
//! cargo run --release --example sensor_denoising
//! ```

use robustify::apps::iir::{IirFilter, IirProblem};
use robustify::core::{AggressiveStepping, GradientGuard, RobustProblem, SolverSpec, StepSchedule};
use robustify::fpu::{BitFaultModel, FaultRate, NoisyFpu};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A two-pole lowpass smoothing a noisy "sensor" ramp.
    let filter = IirFilter::new(vec![0.2, 0.2], vec![1.0, -0.9, 0.25])?;
    let u: Vec<f64> = (0..400)
        .map(|t| {
            let t = t as f64;
            0.01 * t + 0.4 * (0.9 * t).sin() // drifting signal + jitter
        })
        .collect();
    let clean = filter.reference(&u);
    let problem = IirProblem::new(filter.clone(), u.clone())?;
    let gamma0 = problem.default_gamma0();

    println!(
        "{:>12} {:>16} {:>16}",
        "fault_rate_%", "direct_err/sig", "robust_err/sig"
    );
    for rate_pct in [0.1, 0.5, 1.0, 2.0] {
        let mut fpu = NoisyFpu::new(
            FaultRate::percent_of_flops(rate_pct),
            BitFaultModel::emulated(),
            11,
        );
        let direct = filter.apply_direct(&mut fpu, &u);
        let direct_err = filter.error_to_signal(&direct, &clean);

        let mut fpu = NoisyFpu::new(
            FaultRate::percent_of_flops(rate_pct),
            BitFaultModel::emulated(),
            11,
        );
        let sgd = SolverSpec::sgd(1500, StepSchedule::Sqrt { gamma0 })
            .with_guard(GradientGuard::ClampComponents { max_abs: 1.0 })
            .with_aggressive_stepping(AggressiveStepping::default());
        // The robust form: noisy feed-forward warm start, then SGD on
        // `‖Bx − Au‖²`.
        let robust = problem
            .solve(&sgd, &mut fpu)?
            .solution
            .expect("sgd decodes");
        let robust_err = filter.error_to_signal(&robust, &clean);

        println!("{rate_pct:>12} {direct_err:>16.3e} {robust_err:>16.3e}");
    }
    Ok(())
}
