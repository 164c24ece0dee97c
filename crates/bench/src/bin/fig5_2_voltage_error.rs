//! Figure 5.2: FPU error rate as a function of supply voltage.
//!
//! Prints the calibrated voltage → error-rate curve used for the energy
//! results (Figure 6.7), alongside the dynamic power model and the fault
//! rate each operating point wires into a `NoisyFpu`.

#![forbid(unsafe_code)]
use robustify_bench::{ExperimentOptions, Table};
use stochastic_fpu::VoltageErrorModel;

fn main() {
    let _opts = ExperimentOptions::parse();
    let model = VoltageErrorModel::paper_figure_5_2();

    let mut table = Table::new(
        "Figure 5.2 — FPU error rate vs supply voltage",
        &["voltage_V", "errors_per_flop", "normalized_power"],
    );
    let mut v = model.nominal_voltage();
    while v >= model.min_voltage() - 1e-9 {
        table.row(&[
            format!("{v:.3}"),
            format!("{:.3e}", model.error_rate(v)),
            format!("{:.3}", model.power(v)),
        ]);
        v -= 0.025;
    }
    table.print();
    robustify_bench::outln!("\n-- csv --\n{}", table.to_csv());

    // Inverse lookups used by the Figure 6.7 harness.
    let mut inv = Table::new(
        "operating points for target error rates",
        &["target_rate", "max_voltage_V", "power_saving_%"],
    );
    for rate in [1e-9, 1e-7, 1e-5, 1e-3, 1e-1] {
        let v = model.voltage_for_rate(rate);
        inv.row(&[
            format!("{rate:.0e}"),
            format!("{v:.3}"),
            format!("{:.1}", 100.0 * (1.0 - model.power(v))),
        ]);
    }
    inv.print();
    robustify_bench::outln!("\n-- csv --\n{}", inv.to_csv());
}
