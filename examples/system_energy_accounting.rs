//! Whole-system energy accounting with a reliable control phase.
//!
//! The paper's solvers assume step-size logic and convergence tests run
//! reliably, "e.g., increasing the voltage during these steps". This
//! example charges for that assumption with the FPU primitives: the
//! control phase (a power-iteration step-size estimate) runs on a
//! `ReliableFpu` at nominal voltage, the data phase (CG on a least squares
//! problem) runs on a `NoisyFpu` at the fault rate Figure 5.2 predicts for
//! 0.7 V, and `VoltageErrorModel::energy` prices each phase's FLOPs at its
//! own voltage. It prints where the energy went and compares against a
//! reliable Cholesky solve.
//!
//! ```sh
//! cargo run --release --example system_energy_accounting
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use robustify::apps::least_squares::LeastSquares;
use robustify::core::{RobustProblem, SolverSpec};
use robustify::fpu::{BitFaultModel, Fpu, NoisyFpu, ReliableFpu, VoltageErrorModel};

/// The data phase's overscaled supply (~1e-3 errors per FLOP).
const DATA_VOLTAGE: f64 = 0.7;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let problem = LeastSquares::random(&mut StdRng::seed_from_u64(1), 100, 10);
    let model = VoltageErrorModel::paper_figure_5_2();

    // Control phase at nominal voltage: a few power iterations on A'A
    // (2 matvecs and a norm each) estimate the step size.
    let mut control = ReliableFpu::new();
    let mut v = vec![1.0; problem.dim()];
    for _ in 0..5 {
        let av = problem.a().matvec(&mut control, &v).expect("shapes match");
        let atav = problem
            .a()
            .matvec_t(&mut control, &av)
            .expect("shapes match");
        let lambda = robustify::linalg::norm2(&mut control, &atav);
        v = atav.iter().map(|x| x / lambda).collect();
    }

    // Data phase at 0.7 V: CG (5 iterations, restart every 4). The fault
    // stream's seed is one golden-ratio step from 7.
    let seed = 7u64.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut data = NoisyFpu::new(
        model.fault_rate_at(DATA_VOLTAGE),
        BitFaultModel::emulated(),
        seed,
    );
    let x = problem
        .solve(&SolverSpec::cg(5), &mut data)?
        .solution
        .expect("cg always yields an iterate");

    let data_energy = model.energy(data.flops(), DATA_VOLTAGE);
    let control_energy = model.energy(control.flops(), model.nominal_voltage());
    println!(
        "solution rel. error  : {:.3e}",
        problem.residual_relative_error(&x)
    );
    println!(
        "data-plane FLOPs     : {} at 0.70 V (faults seen: {})",
        data.flops(),
        data.faults()
    );
    println!("protected FLOPs      : {} at 1.00 V", control.flops());
    println!("data-plane energy    : {data_energy:.0}");
    println!("protected energy     : {control_energy:.0}");
    println!("total system energy  : {:.0}", data_energy + control_energy);

    // Compare against the all-nominal baseline (Cholesky, reliable).
    let mut baseline = ReliableFpu::new();
    problem.solve(&SolverSpec::baseline_variant("cholesky"), &mut baseline)?;
    println!(
        "baseline Cholesky    : {} FLOPs at 1.00 V, energy {:.0}",
        baseline.flops(),
        baseline.flops() as f64
    );
    println!();
    println!("note how the protected setup dominates the system energy — this is");
    println!("the paper's Chapter 7 caveat in numbers: robustification pays off");
    println!("only when control phases are cheap or amortized across many solves.");
    Ok(())
}
