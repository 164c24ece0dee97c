//! Ablation: bit-fault models.
//!
//! Solver quality depends on the error-*magnitude* distribution, not just
//! the fault rate. The paper's measured distribution concentrates faults
//! in the slow mantissa datapath (large but bounded relative errors); a
//! hypothetical exponent-heavy injector would produce mostly catastrophic
//! errors and collapse every solver long before 50%. This table makes that
//! dependence explicit on the sorting workload — one campaign whose jobs
//! override the injector.

#![forbid(unsafe_code)]
use robustify_bench::workloads::paper_registry;
use robustify_bench::{success_table, ExperimentOptions};
use robustify_core::{AggressiveStepping, GradientGuard, SolverSpec, StepSchedule};
use robustify_engine::campaign::JobSpec;
use robustify_engine::extended_fault_rates;
use stochastic_fpu::{BitFaultModel, BitWidth, FaultModelSpec};

fn main() {
    let opts = ExperimentOptions::parse();
    let trials = opts.trials(50, 10);

    let spec = SolverSpec::sgd(10_000, StepSchedule::Sqrt { gamma0: 0.1 })
        .with_guard(GradientGuard::Adaptive {
            factor: 3.0,
            reject: 30.0,
        })
        .with_aggressive_stepping(AggressiveStepping::default());

    let models: Vec<(&str, FaultModelSpec)> = vec![
        ("emulated", BitFaultModel::emulated().into()),
        ("uniform", BitFaultModel::uniform(BitWidth::F64).into()),
        (
            "exponent_heavy",
            BitFaultModel::exponent_heavy(BitWidth::F64).into(),
        ),
        ("lsb_only", BitFaultModel::lsb_only(BitWidth::F64).into()),
        (
            "emulated_f32",
            BitFaultModel::emulated_with_width(BitWidth::F32).into(),
        ),
        // Scenario-family rows: same error-magnitude question, different
        // fault mechanisms (see fault_model_campaign for the full grid).
        (
            "burst3",
            FaultModelSpec::burst(3, BitFaultModel::emulated()),
        ),
        (
            "operand",
            FaultModelSpec::operand(BitFaultModel::emulated()),
        ),
    ];
    let mut campaign = opts
        .campaign("ablation_fault_model")
        .rates(extended_fault_rates())
        .trials(trials);
    for (label, model) in models {
        campaign = campaign.job(
            JobSpec::new(label, "sorting")
                .per_trial()
                .with_solver(spec.clone())
                .with_fault_model(model),
        );
    }

    let Some(run) = opts.execute_campaign(&campaign, &paper_registry()) else {
        return;
    };
    let table = success_table(
        &format!("Fault-model ablation — robust sort success rate ({trials} trials/point)"),
        &run.result,
    );
    opts.emit(&table, &run);
}
