//! Golden trial fingerprints: one trial per registry workload × fault
//! scenario × rate, plus one `least_squares` trial per bit distribution ×
//! width, pinned to its verdict bits, FLOP count and fault count.
//!
//! The result cache replays a cell whenever its key matches, so any code
//! change that moves a trial's bits must also change the key. That is
//! what `TRIAL_BITS_VERSION` in the cell key is for, and this test is its
//! tripwire: a fingerprint that moves means trial bits moved. Never edit
//! a pinned value to make this test pass. Bump `TRIAL_BITS_VERSION`
//! instead, then recapture the tables (and `PINNED_VERSION`) from the new
//! code; the failure message prints every current fingerprint.

use std::fmt::Debug;

use robustify_bench::workloads::paper_registry;
use robustify_core::{DynProblem, SolverSpec, WorkloadRegistry};
use robustify_engine::campaign::TRIAL_BITS_VERSION;
use robustify_engine::derive_trial_seed;
use stochastic_fpu::{
    BitFaultModel, BitWidth, FaultModelSpec, FaultRate, Fpu, NoisyFpu, VoltageErrorModel,
};

/// The `TRIAL_BITS_VERSION` the table below was captured under.
const PINNED_VERSION: u32 = 3;

/// Base seed of every fingerprinted trial.
const SEED: u64 = 1;

/// `(workload, scenario, rate label, success, metric bits, flops, faults)`.
type Fingerprint<'a> = (&'a str, &'static str, &'static str, bool, u64, u64, u64);

/// Recaptured when every fault began to flip from the canonical NaN
/// (`TRIAL_BITS_VERSION` 2), and unchanged when DVFS strikes moved onto
/// the interval schedule (3); one table pins debug and release builds.
#[rustfmt::skip]
const GOLDEN: &[Fingerprint<'static>] = &[
    ("apsp", "transient", "rate0", false, 4599443747266848694, 3125243, 0),
    ("apsp", "transient", "0.7V", false, 4599522403323254243, 3125073, 3150),
    ("apsp", "register_file", "rate0", false, 4599443747266848694, 3125243, 0),
    ("apsp", "register_file", "0.7V", false, 4599580879021144773, 3125563, 3149),
    ("apsp", "array_resident", "rate0", false, 4599443747266848694, 3125243, 0),
    ("apsp", "array_resident", "0.7V", false, 4599436186777218961, 3124993, 3148),
    ("doubly_stochastic", "transient", "rate0", true, 0, 19591, 0),
    ("doubly_stochastic", "transient", "0.7V", true, 0, 19543, 22),
    ("doubly_stochastic", "register_file", "rate0", true, 0, 19591, 0),
    ("doubly_stochastic", "register_file", "0.7V", false, 4594611090120145783, 18336, 19),
    ("doubly_stochastic", "array_resident", "rate0", true, 0, 19591, 0),
    ("doubly_stochastic", "array_resident", "0.7V", true, 0, 19542, 20),
    ("eigen", "transient", "rate0", true, 4575673731685243846, 34000, 0),
    ("eigen", "transient", "0.7V", true, 4575410517685317473, 34000, 36),
    ("eigen", "register_file", "rate0", true, 4575673731685243846, 34000, 0),
    ("eigen", "register_file", "0.7V", true, 4585026773410488589, 34000, 38),
    ("eigen", "array_resident", "rate0", true, 4575673731685243846, 34000, 0),
    ("eigen", "array_resident", "0.7V", true, 4575910290184009385, 34000, 38),
    ("iir", "transient", "rate0", true, 4355577799731715521, 953226, 0),
    ("iir", "transient", "0.7V", true, 4565665825192436476, 953226, 962),
    ("iir", "register_file", "rate0", true, 4355577799731715521, 953226, 0),
    ("iir", "register_file", "0.7V", true, 4574589537526714230, 953226, 946),
    ("iir", "array_resident", "rate0", true, 4355577799731715521, 953226, 0),
    ("iir", "array_resident", "0.7V", true, 4572296347282911544, 953226, 946),
    ("least_squares", "transient", "rate0", true, 4487265902613432588, 287700, 0),
    ("least_squares", "transient", "0.7V", true, 4524032817241540315, 283590, 291),
    ("least_squares", "register_file", "rate0", true, 4487265902613432588, 287700, 0),
    ("least_squares", "register_file", "0.7V", true, 4548819229017164081, 521970, 531),
    ("least_squares", "array_resident", "rate0", true, 4487265902613432588, 287700, 0),
    ("least_squares", "array_resident", "0.7V", true, 4510116502148083854, 295920, 305),
    ("least_squares_ill", "transient", "rate0", true, 4584086694269057259, 1027500, 0),
    ("least_squares_ill", "transient", "0.7V", true, 4584939791967254730, 1027500, 1036),
    ("least_squares_ill", "register_file", "rate0", true, 4584086694269057259, 1027500, 0),
    ("least_squares_ill", "register_file", "0.7V", true, 4586363132670555243, 1027500, 1025),
    ("least_squares_ill", "array_resident", "rate0", true, 4584086694269057259, 1027500, 0),
    ("least_squares_ill", "array_resident", "0.7V", true, 4584844725254547008, 1027500, 1025),
    ("matching", "transient", "rate0", true, 0, 76873, 0),
    ("matching", "transient", "0.7V", true, 0, 76800, 82),
    ("matching", "register_file", "rate0", true, 0, 76873, 0),
    ("matching", "register_file", "0.7V", true, 0, 72513, 77),
    ("matching", "array_resident", "rate0", true, 0, 76873, 0),
    ("matching", "array_resident", "0.7V", true, 0, 76780, 80),
    ("maxflow", "transient", "rate0", false, 4599629116647983396, 459086, 0),
    ("maxflow", "transient", "0.7V", false, 4599628035364615862, 459074, 468),
    ("maxflow", "register_file", "rate0", false, 4599629116647983396, 459086, 0),
    ("maxflow", "register_file", "0.7V", false, 4600917263461514687, 459518, 467),
    ("maxflow", "array_resident", "rate0", false, 4599629116647983396, 459086, 0),
    ("maxflow", "array_resident", "0.7V", false, 4599856254798017293, 459203, 466),
    ("poisson2d", "transient", "rate0", false, 4602215200198876685, 6128640, 0),
    ("poisson2d", "transient", "0.7V", false, 4607182418800017408, 8171520, 8173),
    ("poisson2d", "register_file", "rate0", false, 4602215200198876685, 6128640, 0),
    ("poisson2d", "register_file", "0.7V", false, 4607182418800017408, 8171520, 8147),
    ("poisson2d", "array_resident", "rate0", false, 4602215200198876685, 6128640, 0),
    ("poisson2d", "array_resident", "0.7V", false, 4607182418800017408, 8171520, 8147),
    ("sorting", "transient", "rate0", true, 0, 92870, 0),
    ("sorting", "transient", "0.7V", true, 0, 92937, 97),
    ("sorting", "register_file", "rate0", true, 0, 92870, 0),
    ("sorting", "register_file", "0.7V", false, 4603579539098121011, 67715, 72),
    ("sorting", "array_resident", "rate0", true, 0, 92870, 0),
    ("sorting", "array_resident", "0.7V", false, 4600877379321698714, 92893, 94),
    ("svm", "transient", "rate0", true, 0, 81120, 0),
    ("svm", "transient", "0.7V", true, 0, 81147, 85),
    ("svm", "register_file", "rate0", true, 0, 81120, 0),
    ("svm", "register_file", "0.7V", true, 0, 88365, 91),
    ("svm", "array_resident", "rate0", true, 0, 81120, 0),
    ("svm", "array_resident", "0.7V", true, 0, 81120, 84),
];

/// The scenarios: the paper's transient flip, and the two
/// memory-persistent kinds at the energy campaign's sizes.
fn scenarios() -> [(&'static str, FaultModelSpec); 3] {
    [
        ("transient", FaultModelSpec::default()),
        (
            "register_file",
            FaultModelSpec::register_file(32, BitFaultModel::emulated(), 10_000),
        ),
        (
            "array_resident",
            FaultModelSpec::array_resident(4096, BitFaultModel::emulated(), 100_000),
        ),
    ]
}

/// Rate 0 and a paper rate: Figure 5.2's error rate at 0.7 V (1e-3 per
/// FLOP), a point on the energy frontier.
fn rates() -> [(&'static str, FaultRate); 2] {
    [
        ("rate0", FaultRate::per_flop(0.0)),
        (
            "0.7V",
            VoltageErrorModel::paper_figure_5_2().fault_rate_at(0.7),
        ),
    ]
}

/// `workload`'s instance at the fingerprint seed.
fn instance(registry: &WorkloadRegistry, workload: &str) -> Box<dyn DynProblem> {
    registry.materialize(workload, SEED).expect("registered")
}

/// `workload`'s default solver at a twentieth of its iteration budget,
/// which keeps every solver feature (guards, annealing, aggressive
/// stepping) in play at a debug-build cost of seconds.
fn budgeted_solver(registry: &WorkloadRegistry, workload: &str) -> SolverSpec {
    let mut solver = registry.default_solver(workload, SEED).expect("registered");
    solver.iterations = (solver.iterations / 20).max(2);
    solver
}

fn fingerprints(registry: &WorkloadRegistry) -> Vec<Fingerprint<'_>> {
    let mut out = Vec::new();
    for workload in registry.names() {
        let (problem, solver) = (
            instance(registry, workload),
            budgeted_solver(registry, workload),
        );
        for (scenario, spec) in scenarios() {
            for (rate_label, rate) in rates() {
                let mut fpu = NoisyFpu::new(rate, spec.clone(), derive_trial_seed(SEED, 0));
                let verdict = problem.run_trial_dyn(&solver, &mut fpu);
                out.push((
                    workload,
                    scenario,
                    rate_label,
                    verdict.success,
                    verdict.metric.to_bits(),
                    fpu.flops(),
                    fpu.faults(),
                ));
            }
        }
    }
    out
}

/// Fails unless `got` equals the pinned table `name` and the table was
/// captured under the current `TRIAL_BITS_VERSION`.
fn assert_pinned<T: Debug + PartialEq>(name: &str, got: &[T], pinned: &[T]) {
    assert_eq!(
        TRIAL_BITS_VERSION, PINNED_VERSION,
        "TRIAL_BITS_VERSION moved: recapture {name} from the new code and set PINNED_VERSION"
    );
    if got != pinned {
        let table: String = got.iter().map(|f| format!("    {f:?},\n")).collect();
        panic!(
            "trial bits changed: bump TRIAL_BITS_VERSION so no cache replays stale \
             cells, then recapture {name}.\ncurrent fingerprints:\n{table}"
        );
    }
}

#[test]
fn trial_fingerprints_match_the_pinned_table() {
    let registry = paper_registry();
    assert_pinned("GOLDEN", &fingerprints(&registry), GOLDEN);
}

/// `(distribution, width, success, metric bits, flops, faults)`.
type BitModelFingerprint = (&'static str, &'static str, bool, u64, u64, u64);

/// `least_squares` under a transient flip at 5% of FLOPs for every preset
/// bit distribution and width: the rows that pin the bit sampler itself,
/// which the table above reaches only through the emulated `f64` preset.
/// Recaptured with the table above.
#[rustfmt::skip]
const GOLDEN_BIT_MODELS: &[BitModelFingerprint] = &[
    ("emulated", "f64", true, 4572266306774736771, 300030, 14974),
    ("emulated", "f32", true, 4577077480897717882, 484980, 24242),
    ("exponent_heavy", "f64", true, 4587256850487439173, 406890, 20332),
    ("exponent_heavy", "f32", true, 4587160108196521509, 341130, 17026),
    ("uniform", "f64", true, 4587288263336725098, 427440, 21375),
    ("uniform", "f32", true, 4588184971177358802, 361680, 18057),
    ("msb_only", "f64", true, 4588258357535655029, 406890, 20332),
    ("msb_only", "f32", true, 4589727512304510642, 374010, 18683),
    ("lsb_only", "f64", true, 4487265905905578072, 287700, 14365),
    ("lsb_only", "f32", true, 4487450450001353915, 287700, 14365),
];

/// One `least_squares` trial under `solver` at 5% of FLOPs per
/// `(label, width, spec)` case, fingerprinted under its label and width.
fn least_squares_fingerprints(
    registry: &WorkloadRegistry,
    solver: &SolverSpec,
    cases: Vec<(&'static str, &'static str, FaultModelSpec)>,
) -> Vec<BitModelFingerprint> {
    let problem = instance(registry, "least_squares");
    cases
        .into_iter()
        .map(|(label, width, spec)| {
            let mut fpu =
                NoisyFpu::new(FaultRate::per_flop(0.05), spec, derive_trial_seed(SEED, 0));
            let verdict = problem.run_trial_dyn(solver, &mut fpu);
            (
                label,
                width,
                verdict.success,
                verdict.metric.to_bits(),
                fpu.flops(),
                fpu.faults(),
            )
        })
        .collect()
}

fn bit_model_fingerprints(registry: &WorkloadRegistry) -> Vec<BitModelFingerprint> {
    let mut cases = Vec::new();
    for kind in [
        "emulated",
        "exponent_heavy",
        "uniform",
        "msb_only",
        "lsb_only",
    ] {
        for width in [BitWidth::F64, BitWidth::F32] {
            let model = BitFaultModel::from_kind(kind, width).expect("preset");
            cases.push((kind, width.name(), FaultModelSpec::transient(model)));
        }
    }
    let solver = budgeted_solver(registry, "least_squares");
    least_squares_fingerprints(registry, &solver, cases)
}

#[test]
fn bit_model_fingerprints_match_the_pinned_table() {
    let got = bit_model_fingerprints(&paper_registry());
    assert_pinned("GOLDEN_BIT_MODELS", &got, GOLDEN_BIT_MODELS);
}

/// `least_squares` under the two spec families neither table above
/// reaches, in the bit-model table's shape with the spec's name in the
/// distribution column: a stuck-at exponent bit at 5% of FLOPs, and the
/// `dvfs` preset, whose schedule sets its own rates.
#[rustfmt::skip]
const GOLDEN_SPECS: &[BitModelFingerprint] = &[
    ("stuck1_bit52", "f64", true, 4579627266182891158, 349350, 8414),
    ("dvfs", "f64", true, 4541535172642345296, 402780, 3949),
];

fn spec_fingerprints(registry: &WorkloadRegistry) -> Vec<BitModelFingerprint> {
    let stuck = FaultModelSpec::stuck_at(52, true, BitWidth::F64);
    let dvfs = FaultModelSpec::from_preset("dvfs").expect("shipped preset");
    least_squares_fingerprints(
        registry,
        &budgeted_solver(registry, "least_squares"),
        vec![("stuck1_bit52", "f64", stuck), ("dvfs", "f64", dvfs)],
    )
}

#[test]
fn spec_fingerprints_match_the_pinned_table() {
    let got = spec_fingerprints(&paper_registry());
    assert_pinned("GOLDEN_SPECS", &got, GOLDEN_SPECS);
}

/// `least_squares` under its QR baseline at 5% of FLOPs, in the bit-model
/// table's shape with the preset's name in the distribution column: the
/// rows that reach the Householder reflections (every row above runs
/// SGD). Under the transient `emulated` preset and the unscrubbed
/// `memory` array. Both trials fail (an infinite error), so the rows pin
/// the FLOP and fault counts; the pinned figure documents hold the QR
/// baseline's error values.
#[rustfmt::skip]
const GOLDEN_QR: &[BitModelFingerprint] = &[
    ("emulated", "f64", false, 9218868437227405312, 65840, 3266),
    ("memory", "f64", false, 9218868437227405312, 67940, 3348),
];

fn qr_fingerprints(registry: &WorkloadRegistry) -> Vec<BitModelFingerprint> {
    let preset = |name| FaultModelSpec::from_preset(name).expect("shipped preset");
    least_squares_fingerprints(
        registry,
        &SolverSpec::baseline_variant("qr"),
        vec![
            ("emulated", "f64", preset("emulated")),
            ("memory", "f64", preset("memory")),
        ],
    )
}

#[test]
fn qr_fingerprints_match_the_pinned_table() {
    let got = qr_fingerprints(&paper_registry());
    assert_pinned("GOLDEN_QR", &got, GOLDEN_QR);
}

/// `(workload, scenario, rate label, success, metric bits, flops, faults,
/// FNV-1a of the `FaultStats` bit histogram, FNV-1a of the final masks)`.
type MemoryFingerprint = (
    &'static str,
    &'static str,
    &'static str,
    bool,
    u64,
    u64,
    u64,
    u64,
    u64,
);

/// The memory lane at the low end of the energy frontier (0.6 V and
/// 0.65 V, 1e-1 and 1e-2 per FLOP), where damage piles up faster than
/// it heals: the rows above stop at 0.7 V, where the `poisson2d` memory
/// and transient rows still share one metric. Each row also pins the bit
/// histogram and the storage the trial leaves behind.
#[rustfmt::skip]
const GOLDEN_MEMORY: &[MemoryFingerprint] = &[
    ("poisson2d", "array_resident", "0.6V", false, 4607182418800017408, 8168994, 816426, 16954939591412690713, 10401698389600540949),
    ("poisson2d", "array_resident", "0.65V", false, 4607182418800017408, 8171260, 81421, 17401415429608363311, 12424659342233891881),
    ("poisson2d", "memory", "0.6V", false, 4607182418800017408, 8168642, 816389, 2142782340351080895, 5202125549254514236),
    ("poisson2d", "memory", "0.65V", false, 4607182418800017408, 8171240, 81421, 17401415429608363311, 14071108147808429615),
    ("poisson2d", "register_file", "0.6V", false, 4607182418800017408, 8171200, 816652, 13949064106758427430, 707716372534860311),
    ("poisson2d", "register_file", "0.65V", false, 4607182418800017408, 8171520, 81423, 6597694535301304109, 2033948881421968236),
    ("least_squares", "array_resident", "0.6V", true, 4581893255674106058, 332910, 33259, 9658041016346349389, 3262413747379274817),
    ("least_squares", "array_resident", "0.65V", true, 4534887961793168917, 435660, 4294, 7522178074705603849, 1799639577788818976),
    ("least_squares", "memory", "0.6V", true, 4577904651266377491, 349350, 34882, 10241321075146207073, 13869994699677522012),
    ("least_squares", "memory", "0.65V", true, 4524484274812652533, 386340, 3818, 15147476465356902407, 9052592289448545061),
    ("least_squares", "register_file", "0.6V", true, 4588488077085874843, 406890, 40634, 2796213088985729190, 11720727840370235308),
    ("least_squares", "register_file", "0.65V", true, 4586138636524771103, 341130, 3375, 5377806687429334064, 8850953009073315924),
    ("iir", "array_resident", "0.6V", true, 4572664343680205915, 953226, 95169, 14730529229273753652, 8893108182769776043),
    ("iir", "array_resident", "0.65V", true, 4572951505316551928, 953226, 9466, 10153669122525018505, 13409027623275221613),
    ("iir", "memory", "0.6V", true, 4572473600900429122, 953226, 95169, 14730529229273753652, 11900839071061654583),
    ("iir", "memory", "0.65V", true, 4573136432151663989, 953226, 9466, 10153669122525018505, 9052592289448545061),
    ("iir", "register_file", "0.6V", true, 4571919984965262995, 953226, 95169, 14730529229273753652, 14592087926483138036),
    ("iir", "register_file", "0.65V", true, 4573316382420957166, 953226, 9466, 10153669122525018505, 4615741827399955027),
    ("sorting", "array_resident", "0.6V", false, 4600877379321698714, 92513, 9302, 10181030786368554143, 9939128855088185289),
    ("sorting", "array_resident", "0.65V", true, 0, 92890, 922, 4298313406665560895, 5331272441508112540),
    ("sorting", "memory", "0.6V", false, 4600877379321698714, 91898, 9241, 9491975715623230482, 13498631854742954021),
    ("sorting", "memory", "0.65V", true, 0, 93012, 924, 7068518863119410193, 9052592289448545061),
    ("sorting", "register_file", "0.6V", false, 4605380978949069210, 67778, 6815, 11486798090286768242, 12371373428126060091),
    ("sorting", "register_file", "0.65V", false, 4600877379321698714, 67234, 669, 5833199817292710748, 743926193792075806),
];

/// FNV-1a over the little-endian bytes of `words`.
fn fnv1a(words: &[u64]) -> u64 {
    words
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, byte| {
            (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

fn memory_fingerprints(registry: &WorkloadRegistry) -> Vec<MemoryFingerprint> {
    let scenarios = [
        (
            "array_resident",
            FaultModelSpec::array_resident(4096, BitFaultModel::emulated(), 100_000),
        ),
        (
            "memory",
            FaultModelSpec::from_preset("memory").expect("shipped preset"),
        ),
        (
            "register_file",
            FaultModelSpec::register_file(32, BitFaultModel::emulated(), 10_000),
        ),
    ];
    let voltages = VoltageErrorModel::paper_figure_5_2();
    let mut out = Vec::new();
    for workload in ["poisson2d", "least_squares", "iir", "sorting"] {
        let (problem, solver) = (
            instance(registry, workload),
            budgeted_solver(registry, workload),
        );
        for (scenario, spec) in &scenarios {
            for (rate_label, volts) in [("0.6V", 0.6), ("0.65V", 0.65)] {
                let rate = voltages.fault_rate_at(volts);
                let mut fpu = NoisyFpu::new(rate, spec.clone(), derive_trial_seed(SEED, 0));
                let verdict = problem.run_trial_dyn(&solver, &mut fpu);
                let masks = fpu.memory_state().map(|m| fnv1a(m.masks()));
                out.push((
                    workload,
                    *scenario,
                    rate_label,
                    verdict.success,
                    verdict.metric.to_bits(),
                    fpu.flops(),
                    fpu.faults(),
                    fnv1a(fpu.stats().bit_histogram()),
                    masks.expect("memory spec"),
                ));
            }
        }
    }
    out
}

#[test]
fn memory_fingerprints_match_the_pinned_table() {
    let got = memory_fingerprints(&paper_registry());
    assert_pinned("GOLDEN_MEMORY", &got, GOLDEN_MEMORY);
}
