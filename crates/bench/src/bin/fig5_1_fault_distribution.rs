//! Figure 5.1: distribution of FPU fault magnitudes — the measured
//! (circuit-level) distribution the paper reports versus the emulated
//! distribution this workspace injects.
//!
//! The paper's measured histogram is bimodal: most faults land in the most
//! significant bits (sign/exponent → enormous relative errors) and the rest
//! in the low-order mantissa bits (tiny relative errors). This binary
//! injects one million faults on random operands and buckets the relative
//! error magnitude per decade, for the emulated model and the alternative
//! presets.

#![forbid(unsafe_code)]
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use robustify_bench::{ExperimentOptions, Table};
use stochastic_fpu::{BitFaultModel, BitWidth, FaultRate, Fpu, NoisyFpu};

fn main() {
    let opts = ExperimentOptions::parse();
    let injections = if opts.fast { 100_000 } else { 1_000_000 };

    // Bucket by log10 of the relative error |corrupted - exact| / |exact|.
    // Bucket 0: <= 1e-12 ("negligible"), then one per decade up to >= 1e4,
    // plus a non-finite bucket.
    const BUCKETS: usize = 19;
    let bucket_label = |k: usize| -> String {
        match k {
            0 => "<=1e-12".to_string(),
            b if b == BUCKETS - 1 => "non-finite".to_string(),
            b if b == BUCKETS - 2 => ">=1e4".to_string(),
            b => format!("1e{}..1e{}", b as i32 - 13, b as i32 - 12),
        }
    };

    let mut table = Table::new(
        "Figure 5.1 — distribution of fault-induced relative error magnitudes (% of faults)",
        &["magnitude", "emulated", "uniform", "msb_only", "lsb_only"],
    );

    let models: Vec<(&str, BitFaultModel)> = vec![
        ("emulated", BitFaultModel::emulated()),
        ("uniform", BitFaultModel::uniform(BitWidth::F64)),
        ("msb_only", BitFaultModel::msb_only(BitWidth::F64)),
        ("lsb_only", BitFaultModel::lsb_only(BitWidth::F64)),
    ];

    let mut histograms: Vec<Vec<f64>> = Vec::new();
    for (_, model) in &models {
        let mut fpu = NoisyFpu::new(FaultRate::per_flop(1.0), model.clone(), opts.seed);
        let mut rng = StdRng::seed_from_u64(opts.seed ^ 0xF00D);
        let mut counts = [0u64; BUCKETS];
        for _ in 0..injections {
            let a: f64 = rng.random_range(-100.0..100.0);
            let b: f64 = rng.random_range(0.5..2.0);
            let exact = a * b;
            let got = fpu.mul(a, b);
            let bucket = if !got.is_finite() {
                BUCKETS - 1
            } else {
                let rel = (got - exact).abs() / exact.abs().max(1e-300);
                if rel <= 1e-12 {
                    0
                } else {
                    let d = rel.log10().floor() as i32 + 13;
                    (d.clamp(1, BUCKETS as i32 - 2)) as usize
                }
            };
            counts[bucket] += 1;
        }
        histograms.push(
            counts
                .iter()
                .map(|&c| 100.0 * c as f64 / injections as f64)
                .collect(),
        );
    }

    for k in 0..BUCKETS {
        let mut row = vec![bucket_label(k)];
        for h in &histograms {
            row.push(format!("{:.2}", h[k]));
        }
        table.row(&row);
    }
    table.print();
    robustify_bench::outln!("\n-- csv --\n{}", table.to_csv());

    // The headline property of the measured distribution the paper emulates.
    let emulated = &histograms[0];
    let tiny: f64 = emulated[..7].iter().sum(); // rel err below 1e-6
    let huge: f64 = emulated[14..].iter().sum(); // rel err above 1e1 or non-finite
    robustify_bench::outln!(
        "emulated bimodality: {tiny:.1}% tiny (<1e-6), {huge:.1}% huge (>10 or non-finite)"
    );
}
