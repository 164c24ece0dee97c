//! Picking an operating voltage: the energy story of Figure 6.7.
//!
//! Voltage overscaling makes each FLOP cheaper (`P ∝ V²`) but raises the
//! FPU fault rate exponentially (Figure 5.2). A robustified solver can ride
//! that curve: run the conjugate gradient least squares solver at several
//! operating points and report accuracy and energy against the error-free
//! Cholesky baseline at nominal voltage.
//!
//! ```sh
//! cargo run --release --example voltage_scaling_tradeoff
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use robustify::apps::least_squares::LeastSquares;
use robustify::core::{RobustProblem, SolverSpec};
use robustify::fpu::{BitFaultModel, Fpu, NoisyFpu, ReliableFpu, VoltageErrorModel};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's 100 x 10 workload, where a handful of CG iterations is
    // FLOP-competitive with the Cholesky baseline.
    let problem = LeastSquares::random(&mut StdRng::seed_from_u64(1), 100, 10);
    let model = VoltageErrorModel::paper_figure_5_2();

    // The guardbanded baseline: exact Cholesky at nominal voltage.
    let mut fpu = ReliableFpu::new();
    problem.solve(&SolverSpec::baseline_variant("cholesky"), &mut fpu)?;
    let baseline_energy = model.energy(fpu.flops(), model.nominal_voltage());
    println!(
        "Cholesky @ {:.2} V: {} FLOPs, energy {:.0}\n",
        model.nominal_voltage(),
        fpu.flops(),
        baseline_energy
    );
    println!(
        "{:>9} {:>10} {:>12} {:>12} {:>12} {:>10}",
        "volt_V", "cg_iters", "err_rate", "rel_error", "energy", "saving_%"
    );

    for &(v, iters) in &[(1.0, 3), (0.9, 3), (0.8, 3), (0.75, 4), (0.7, 5), (0.65, 6)] {
        let rate = model.fault_rate_at(v);
        let mut fpu = NoisyFpu::new(rate, BitFaultModel::emulated(), 21);
        let x = problem
            .solve(&SolverSpec::cg(iters), &mut fpu)?
            .solution
            .expect("cg always yields an iterate");
        let err = problem.residual_relative_error(&x);
        let energy = model.energy(fpu.flops(), v);
        println!(
            "{v:>9.2} {iters:>10} {:>12.1e} {err:>12.3e} {energy:>12.0} {:>10.0}",
            rate.fraction(),
            100.0 * (1.0 - energy / baseline_energy),
        );
    }
    println!();
    println!("lower voltage = cheaper FLOPs but noisier results: pick the");
    println!("cheapest operating point whose accuracy still meets your target.");
    Ok(())
}
