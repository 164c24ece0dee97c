//! §6.3 runtime claim: "the CG implementation was on average 30% faster
//! than the QR/SVD baselines, and 10 iterations of the CG were comparable
//! to the execution time of the Cholesky baseline."
//!
//! Wall-clock comparison of every least squares solver on the paper's
//! `100 × 10` workload over a reliable FPU.

use criterion::{criterion_group, criterion_main, Criterion};
use robustify_bench::workloads::paper_least_squares;
use robustify_core::{RobustProblem, SolverSpec, StepSchedule};
use std::hint::black_box;
use stochastic_fpu::ReliableFpu;

fn bench_solvers(c: &mut Criterion) {
    let problem = paper_least_squares(42);
    let mut group = c.benchmark_group("lstsq_solvers_100x10");
    group.sample_size(20);

    let sgd = SolverSpec::sgd(
        1000,
        StepSchedule::Linear {
            gamma0: problem.default_gamma0(),
        },
    );
    for (name, spec) in [
        ("qr", SolverSpec::baseline_variant("qr")),
        ("svd", SolverSpec::baseline_variant("svd")),
        ("cholesky", SolverSpec::baseline_variant("cholesky")),
        ("cg_n10", SolverSpec::cg(10)),
        ("sgd_1000_ls", sgd),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut fpu = ReliableFpu::new();
                black_box(problem.solve(&spec, &mut fpu).expect("supported method"))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_solvers);
criterion_main!(benches);
