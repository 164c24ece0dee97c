//! Parser robustness: every spec parser the daemon feeds with untrusted
//! request lines returns `Ok` or `Err` — it never panics — on every prefix
//! and every single-byte substitution of a canonical document.
//!
//! The mutations are deterministic (no random inputs): truncation at each
//! byte, and replacement of each byte by each character of a small
//! alphabet of JSON structure, number and literal bytes.

use robustify_core::{AggressiveStepping, Annealing, GradientGuard, SolverSpec, StepSchedule};
use robustify_engine::campaign::{CampaignSpec, JobSpec};
use stochastic_fpu::{BitFaultModel, FaultModelSpec, FlopOp, VoltageErrorModel};

/// The substituted bytes.
const ALPHABET: &[u8] = b"{}[]\",:-.0e9n ";

/// Feeds every prefix and single-byte substitution of `canonical` to
/// `parse`, failing with the offending input if a call panics. Returns
/// how many mutants parsed, so callers can check the mutations reach past
/// the first syntax error.
fn mutate_all<T>(canonical: &str, parse: fn(&str) -> Result<T, String>) -> usize {
    assert!(parse(canonical).is_ok(), "canonical document rejected");
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
        match std::panic::catch_unwind(|| parse(&text).is_ok()) {
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

#[test]
fn campaign_spec_parser_never_panics() {
    let nested = FaultModelSpec::intermittent(
        0.25,
        64,
        FaultModelSpec::op_selective(
            vec![FlopOp::Mul, FlopOp::Div],
            FaultModelSpec::transient(BitFaultModel::emulated()),
        ),
    );
    let spec = CampaignSpec::new("fuzz")
        .voltages(vec![1.0, 0.8], VoltageErrorModel::paper_figure_5_2())
        .trials(3)
        .seed(7)
        .model(BitFaultModel::emulated())
        .job(
            JobSpec::new("a", "w")
                .per_trial()
                .with_fault_model(nested)
                .with_solver(SolverSpec::cg(10))
                .with_trials(2),
        )
        .job(JobSpec::new("b", "w"));
    let accepted = mutate_all(&spec.to_json(), CampaignSpec::from_json);
    assert!(accepted > 0, "no mutant parsed");
}

#[test]
fn solver_spec_parser_never_panics() {
    let accepted = mutate_all(&full_solver().to_json(), SolverSpec::from_json);
    assert!(accepted > 0, "no mutant parsed");
}

#[test]
fn memory_fault_model_parser_never_panics() {
    let memory = FaultModelSpec::register_file(8, BitFaultModel::emulated(), 1000);
    let accepted = mutate_all(&memory.to_json(), FaultModelSpec::from_json);
    assert!(accepted > 0, "no mutant parsed");
}
