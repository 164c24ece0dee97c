//! Batched vs scalar FPU dispatch: the countdown skip-ahead fast path.
//!
//! Covers the ISSUE-5 acceptance grid — `dot` / `axpy` / one CG iteration
//! at fault rates {0, 1e-6, 1e-3} — with the scalar per-op path (batching
//! disabled) as the reference. Batched and scalar runs are bit-identical;
//! only the dispatch cost differs.

use criterion::{criterion_group, criterion_main, Criterion};
use robustify_core::CgLeastSquares;
use robustify_linalg::{axpy, dot, Matrix};
use std::hint::black_box;
use stochastic_fpu::{BitFaultModel, FaultRate, NoisyFpu};

const RATES: [(&str, f64); 3] = [("rate0", 0.0), ("rate1e-6", 1e-6), ("rate1e-3", 1e-3)];

fn fpu(rate: f64, batched: bool) -> NoisyFpu {
    let mut fpu = NoisyFpu::new(FaultRate::per_flop(rate), BitFaultModel::emulated(), 7);
    fpu.set_batching(batched);
    fpu
}

fn bench_dot(c: &mut Criterion) {
    let x: Vec<f64> = (0..4096).map(|i| (i as f64 * 0.37).sin()).collect();
    let y: Vec<f64> = (0..4096).map(|i| (i as f64 * 0.71).cos()).collect();
    let mut group = c.benchmark_group("dot4096");
    group.sample_size(50);
    for (label, rate) in RATES {
        for (mode, batched) in [("batched", true), ("scalar", false)] {
            let mut fpu = fpu(rate, batched);
            group.bench_function(format!("{label}_{mode}"), |b| {
                b.iter(|| black_box(dot(&mut fpu, &x, &y).expect("equal lengths")))
            });
        }
    }
    group.finish();
}

fn bench_axpy(c: &mut Criterion) {
    let x: Vec<f64> = (0..4096).map(|i| (i as f64 * 0.13).sin()).collect();
    let mut group = c.benchmark_group("axpy4096");
    group.sample_size(50);
    for (label, rate) in RATES {
        for (mode, batched) in [("batched", true), ("scalar", false)] {
            let mut fpu = fpu(rate, batched);
            let mut y = vec![1.0; 4096];
            group.bench_function(format!("{label}_{mode}"), |b| {
                b.iter(|| {
                    axpy(&mut fpu, 0.5, &x, &mut y).expect("equal lengths");
                    black_box(y[0])
                })
            });
        }
    }
    group.finish();
}

fn bench_cg_iteration(c: &mut Criterion) {
    // One CG solve with a single iteration on a 64×32 system: two dense
    // matvecs plus the vector recurrences — the Figure 6.6 inner loop.
    let a = Matrix::from_fn(64, 32, |i, j| ((i * 31 + j * 17) % 13) as f64 * 0.1 - 0.5);
    let mut fpu_rel = stochastic_fpu::ReliableFpu::new();
    let x_true = vec![1.0; 32];
    let b = a.matvec(&mut fpu_rel, &x_true).expect("shapes match");
    let mut group = c.benchmark_group("cg_iteration64x32");
    group.sample_size(30);
    for (label, rate) in RATES {
        for (mode, batched) in [("batched", true), ("scalar", false)] {
            let mut fpu = fpu(rate, batched);
            let solver = CgLeastSquares::new(&a, &b)
                .expect("consistent")
                .with_max_iterations(1);
            group.bench_function(format!("{label}_{mode}"), |bch| {
                bch.iter(|| black_box(solver.solve(&[0.0; 32], &mut fpu).x))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_dot, bench_axpy, bench_cg_iteration);
criterion_main!(benches);
