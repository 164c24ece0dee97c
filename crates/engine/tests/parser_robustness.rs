//! The wire codec over one list of canonical documents: one per wire
//! type, plus a daemon's result document. Each type's document parses
//! back to the value it was written from and re-serializes to the same
//! bytes, and every parser the daemon or a thin client feeds with outside
//! input returns `Ok` or `Err` (it never panics) on every prefix and every
//! single-byte substitution of its document.
//!
//! The mutations are deterministic (no random inputs): truncation at each
//! byte, and replacement of each byte by each character of a small
//! alphabet of JSON structure, number and literal bytes.

use robustify_core::{
    AggressiveStepping, Annealing, DynProblem, GradientGuard, SolverSpec, StepSchedule, Verdict,
    WorkloadRegistry,
};
use robustify_engine::campaign::{self, CampaignSpec, JobSpec};
use robustify_engine::{SweepDoc, TrialRecord};
use std::fmt::Debug;
use stochastic_fpu::json::JsonCodec;
use stochastic_fpu::{
    BitFaultModel, BitWidth, DvfsStep, FaultModelSpec, FlopOp, Fpu, MemoryFaultModel, NoisyFpu,
    VoltageErrorModel,
};

/// The substituted bytes.
const ALPHABET: &[u8] = b"{}[]\",:-.0e9n ";

/// Feeds every prefix and single-byte substitution of `canonical` to
/// `parse`, failing with the offending input if a call panics. Returns
/// how many mutants parsed, so callers can check the mutations reach past
/// the first syntax error.
fn mutate_all(canonical: &str, parses: fn(&str) -> bool) -> usize {
    assert!(parses(canonical), "canonical document rejected");
    let bytes = canonical.as_bytes();
    let prefixes = (0..bytes.len()).map(|end| bytes[..end].to_vec());
    let substitutions = (0..bytes.len()).flat_map(|i| {
        ALPHABET
            .iter()
            .filter(move |&&b| b != bytes[i])
            .map(move |&b| {
                let mut mutant = bytes.to_vec();
                mutant[i] = b;
                mutant
            })
    });
    let mut accepted = 0;
    for mutant in prefixes.chain(substitutions) {
        // Every substitution byte is ASCII and replaces one whole byte, so
        // a mutant is UTF-8 unless it split a multi-byte character.
        let Ok(text) = String::from_utf8(mutant) else {
            continue;
        };
        match std::panic::catch_unwind(|| parses(&text)) {
            Ok(true) => accepted += 1,
            Ok(false) => {}
            Err(_) => panic!("parser panicked on {text}"),
        }
    }
    accepted
}

fn full_solver() -> SolverSpec {
    SolverSpec {
        variant: Some("svd".to_string()),
        ..SolverSpec::sgd(500, StepSchedule::Linear { gamma0: 0.25 })
            .with_momentum(0.5)
            .with_aggressive_stepping(AggressiveStepping::default())
            .with_annealing(Annealing {
                period: 750,
                factor: 1.5,
            })
            .with_guard(GradientGuard::Adaptive {
                factor: 10.0,
                reject: 100.0,
            })
            .with_restart(8)
    }
}

/// A canonical document and its type's parser.
struct Document {
    name: &'static str,
    text: String,
    parses: fn(&str) -> bool,
}

/// The canonical document of `value`, checked to round-trip: it parses
/// back to `value`, and the parsed value writes the same bytes.
fn canonical<T: JsonCodec + PartialEq + Debug>(name: &'static str, value: T) -> Document {
    let text = value.to_json();
    let back = T::from_json(&text).unwrap_or_else(|e| panic!("{name} {text}: {e}"));
    assert_eq!(back, value, "{name}: from_json(to_json(x)) != x");
    assert_eq!(back.to_json(), text, "{name}: re-serialization drifted");
    Document {
        name,
        text,
        parses: |text| T::from_json(text).is_ok(),
    }
}

/// A workload whose verdict depends on the fault stream.
struct Halve;

impl DynProblem for Halve {
    fn name(&self) -> &'static str {
        "halve"
    }

    fn run_trial_dyn(&self, _spec: &SolverSpec, fpu: &mut NoisyFpu) -> Verdict {
        let x = (0..8).fold(1.0, |x, _| fpu.mul(x, 0.5));
        Verdict::from_metric((x - 1.0 / 256.0).abs(), 1e-6)
    }
}

/// A small real campaign's result document, as a daemon returns it.
fn result_document() -> String {
    let mut registry = WorkloadRegistry::new();
    registry.register(
        "halve",
        Box::new(|_| Box::new(Halve)),
        Box::new(|_| SolverSpec::baseline()),
    );
    let spec = CampaignSpec::new("doc")
        .voltages(vec![1.0, 0.7], VoltageErrorModel::paper_figure_5_2())
        .trials(3)
        .seed(5)
        .job(JobSpec::new("h", "halve"));
    campaign::run(&spec, &registry, None, |_| {})
        .expect("campaign runs")
        .result
        .to_json()
}

/// A canonical document of every wire type, the nesting fault-model
/// specs each on their own, and a result document.
fn documents() -> Vec<Document> {
    let energy = VoltageErrorModel::paper_figure_5_2();
    let nested = FaultModelSpec::intermittent(
        0.25,
        64,
        FaultModelSpec::op_selective(
            vec![FlopOp::Mul, FlopOp::Div],
            FaultModelSpec::transient(BitFaultModel::emulated()),
        ),
    );
    let dvfs = FaultModelSpec::dvfs(
        energy.clone(),
        vec![
            DvfsStep {
                flops: 100,
                voltage: 0.9,
            },
            DvfsStep {
                flops: 50,
                voltage: 0.7,
            },
        ],
    );
    let memory = MemoryFaultModel::register_file(8, BitFaultModel::emulated(), 1000);
    let job = JobSpec::new("a \"quoted\" label", "w")
        .per_trial()
        .with_fault_model(nested.clone())
        .with_solver(full_solver())
        .with_trials(2);
    let campaign = CampaignSpec::new("fuzz")
        .voltages(vec![1.0, 0.8], energy.clone())
        .trials(3)
        .seed(u64::MAX)
        .model(FaultModelSpec::stuck_at(3, true, BitWidth::F32))
        .job(job.clone())
        .job(JobSpec::new("b", "w").with_fault_model(dvfs.clone()));
    let record = |metric| TrialRecord {
        verdict: Verdict {
            success: false,
            metric,
        },
        flops: 12,
        faults: 1,
    };
    vec![
        canonical("campaign", campaign),
        canonical("job", job),
        canonical("solver", full_solver()),
        canonical("baseline solver", SolverSpec::baseline_variant("qr")),
        canonical("nested fault model", nested),
        canonical(
            "burst",
            FaultModelSpec::burst(3, BitFaultModel::lsb_only(BitWidth::F64)),
        ),
        canonical(
            "voltage-linked",
            FaultModelSpec::voltage_linked(energy.clone(), 0.8),
        ),
        canonical("dvfs", dvfs),
        canonical("memory spec", FaultModelSpec::memory(memory.clone())),
        canonical("memory model", memory),
        canonical("voltage model", energy),
        canonical("finite record", record(0.1 + 0.2)),
        canonical("infinite record", record(f64::INFINITY)),
        canonical("negative infinite record", record(f64::NEG_INFINITY)),
        Document {
            name: "result document",
            text: result_document(),
            parses: |text| SweepDoc::parse(text).is_ok(),
        },
    ]
}

/// [`canonical`] checks each document's round trip as the list is built.
#[test]
fn every_codec_round_trips() {
    assert!(!documents().is_empty());
}

#[test]
fn every_parser_never_panics() {
    for doc in documents() {
        let accepted = mutate_all(&doc.text, doc.parses);
        assert!(accepted > 0, "{}: no mutant parsed", doc.name);
    }
}
