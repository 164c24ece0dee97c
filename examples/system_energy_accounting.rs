//! Whole-system energy accounting with protected control phases.
//!
//! The paper's solvers assume step-size logic and convergence tests run
//! reliably, "e.g., increasing the voltage during these steps". The
//! `StochasticProcessor` makes that cost visible: data-plane FLOPs run at
//! the overscaled voltage, `protected` sections at nominal voltage, and
//! both are charged. This example robustly solves a least squares problem
//! and prints where the energy actually went.
//!
//! ```sh
//! cargo run --release --example system_energy_accounting
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use robustify::apps::least_squares::LeastSquares;
use robustify::core::{RobustProblem, SolverSpec};
use robustify::fpu::{BitFaultModel, Fpu, StochasticProcessor, VoltageErrorModel};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let problem = LeastSquares::random(&mut StdRng::seed_from_u64(1), 100, 10);
    let model = VoltageErrorModel::paper_figure_5_2();

    let mut cpu = StochasticProcessor::new(model, BitFaultModel::emulated(), 7);

    // Control phase at nominal voltage: estimate the step size.
    // (`default_gamma0` runs reliably internally; charge an equivalent
    // protected power iteration explicitly so the books balance.)
    let gamma0 = cpu.protected(|fpu| {
        // A few power iterations on A'A: 2 matvecs each.
        let mut v = vec![1.0; problem.dim()];
        let mut lambda = 1.0;
        for _ in 0..5 {
            let av = problem.a().matvec(fpu, &v).expect("shapes match");
            let atav = problem.a().matvec_t(fpu, &av).expect("shapes match");
            lambda = robustify::linalg::norm2(fpu, &atav);
            v = atav.iter().map(|x| x / lambda).collect();
        }
        1.0 / lambda
    });

    // Data phase: overscale to 0.7 V (~1e-3 errors per FLOP) and run CG
    // (5 iterations, restart every 4).
    cpu.set_voltage(0.7);
    let x = problem
        .solve(&SolverSpec::cg(5), &mut cpu)?
        .solution
        .expect("cg always yields an iterate");
    let _ = gamma0;

    let energy = cpu.energy_report();
    println!(
        "solution rel. error  : {:.3e}",
        problem.residual_relative_error(&x)
    );
    println!(
        "data-plane FLOPs     : {} at 0.70 V (faults seen: {})",
        energy.data_flops, energy.faults
    );
    println!(
        "protected FLOPs      : {} at 1.00 V",
        energy.protected_flops
    );
    println!("data-plane energy    : {:.0}", energy.data_energy);
    println!("protected energy     : {:.0}", energy.protected_energy);
    println!("total system energy  : {:.0}", energy.total_energy());

    // Compare against the all-nominal baseline (Cholesky, reliable).
    let mut fpu = robustify::fpu::ReliableFpu::new();
    problem.solve(&SolverSpec::baseline_variant("cholesky"), &mut fpu)?;
    println!(
        "baseline Cholesky    : {} FLOPs at 1.00 V, energy {:.0}",
        fpu.flops(),
        fpu.flops() as f64
    );
    println!();
    println!("note how the protected setup dominates the system energy — this is");
    println!("the paper's Chapter 7 caveat in numbers: robustification pays off");
    println!("only when control phases are cheap or amortized across many solves.");
    Ok(())
}
