//! Ablation: step-size schedules (§3.2 / §6.2.3).
//!
//! Wall-clock cost of the SGD main loop under each schedule (the schedules
//! differ in *convergence*, covered by the figure binaries; this bench
//! shows the control-plane cost is schedule-independent) plus the cost of
//! the aggressive-stepping tail.

use criterion::{criterion_group, criterion_main, Criterion};
use robustify_bench::workloads::paper_sort;
use robustify_core::{AggressiveStepping, RobustProblem, SolverSpec, StepSchedule};
use std::hint::black_box;
use stochastic_fpu::{BitFaultModel, FaultRate, NoisyFpu};

fn bench_schedules(c: &mut Criterion) {
    let problem = paper_sort(42);
    let mut group = c.benchmark_group("sort_sgd_schedules_1000iter");
    group.sample_size(20);

    let schedules: Vec<(&str, StepSchedule)> = vec![
        ("fixed", StepSchedule::Fixed(0.05)),
        ("linear_1_over_t", StepSchedule::Linear { gamma0: 0.1 }),
        ("sqrt_1_over_sqrt_t", StepSchedule::Sqrt { gamma0: 0.1 }),
    ];
    for (name, schedule) in schedules {
        group.bench_function(name, |b| {
            let sgd = SolverSpec::sgd(1000, schedule);
            b.iter(|| {
                let mut fpu =
                    NoisyFpu::new(FaultRate::per_flop(0.01), BitFaultModel::emulated(), 7);
                black_box(problem.solve(&sgd, &mut fpu))
            })
        });
    }
    group.bench_function("sqrt_plus_aggressive", |b| {
        let sgd = SolverSpec::sgd(1000, StepSchedule::Sqrt { gamma0: 0.1 })
            .with_aggressive_stepping(AggressiveStepping::default());
        b.iter(|| {
            let mut fpu = NoisyFpu::new(FaultRate::per_flop(0.01), BitFaultModel::emulated(), 7);
            black_box(problem.solve(&sgd, &mut fpu))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_schedules);
criterion_main!(benches);
