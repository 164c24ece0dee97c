//! `detlint` — static enforcement of the workspace determinism contract.
//!
//! The four-equivalence contract (see `ARCHITECTURE.md`) is otherwise
//! enforced only dynamically: a proptest or CI byte-compare catches a
//! violation only if some test exercises the offending path. `detlint`
//! closes the gap at the source level with token-pattern lints:
//!
//! | lint | catches |
//! |------|---------|
//! | `fpu-routing` | raw `f64` math / float intrinsics outside the `Fpu` trait in fault-injected layers |
//! | `nondeterministic-order` | `HashMap`/`HashSet`, wall clocks, OS randomness near output emitters |
//! | `float-reassociation` | `.sum()` / arithmetic `.fold(..)` reductions outside the fpu crate's reduction kernels |
//! | `flop-accounting` | `pub` batch kernels missing their `# FLOP accounting` doc section |
//! | `forbid-unsafe` | crate roots missing `#![forbid(unsafe_code)]` |
//!
//! Scoping lives in the checked-in `detlint.toml`; per-site exceptions use
//! `// detlint::allow(<lint>, reason = "...")` with a mandatory reason.
//! The engine is deliberately dependency-free: [`lexer`] is a hand-written
//! Rust lexer (comment/string/char/raw-string aware), [`config`] a
//! hand-written parser for the TOML subset the config uses.
//!
//! Three entry points run the same engine: `cargo run -p detlint`, the
//! root package's `detlint_clean` integration test under tier-1
//! `cargo test`, and the dedicated CI job.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod config;
pub mod lexer;
pub mod lints;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use config::{Config, LintScope};
pub use lints::{Finding, BAD_SUPPRESSION, LINTS};

/// Lints one file's source text under `cfg`, returning surviving findings
/// (suppressions already applied), sorted by line then lint name.
pub fn lint_source(path: &str, source: &str, cfg: &Config) -> Vec<Finding> {
    let tokens = lexer::lex(source);
    let linter = lints::FileLinter::new(path, &tokens);
    let mut findings = Vec::new();
    let suppressions = linter.suppressions(&mut findings);

    let scope = cfg.scope(lints::FPU_ROUTING);
    if scope.applies_to(path) {
        linter.fpu_routing(&scope, &mut findings);
    }
    if cfg.scope(lints::NONDETERMINISTIC_ORDER).applies_to(path) {
        linter.nondeterministic_order(&mut findings);
    }
    if cfg.scope(lints::FLOAT_REASSOCIATION).applies_to(path) {
        linter.float_reassociation(&mut findings);
    }
    let scope = cfg.scope(lints::FLOP_ACCOUNTING);
    if scope.applies_to(path) {
        linter.flop_accounting(&scope, &mut findings);
    }
    if cfg.scope(lints::FORBID_UNSAFE).applies_to(path) {
        linter.forbid_unsafe(&mut findings);
    }

    findings.retain(|f| {
        // `bad-suppression` is never suppressible: the mandatory-reason
        // rule must not be bypassable with another reasonless allow.
        f.lint == BAD_SUPPRESSION
            || !suppressions
                .iter()
                .any(|s| s.lint == f.lint && s.target_line == f.line)
    });
    findings.sort_by(|a, b| (a.line, &a.lint).cmp(&(b.line, &b.lint)));
    findings.dedup();
    findings
}

/// All `.rs` files under `crates/*/src` and `src/`, workspace-relative,
/// sorted for deterministic reports.
///
/// # Errors
///
/// Propagates filesystem errors from directory walks.
pub fn workspace_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut members: Vec<PathBuf> = fs::read_dir(&crates)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|e| e.path())
            .collect();
        members.sort();
        for member in members {
            let src = member.join("src");
            if src.is_dir() {
                collect_rs(&src, &mut out)?;
            }
        }
    }
    let src = root.join("src");
    if src.is_dir() {
        collect_rs(&src, &mut out)?;
    }
    for p in &mut out {
        if let Ok(rel) = p.strip_prefix(root) {
            *p = rel.to_path_buf();
        }
    }
    out.sort();
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for entry in entries {
        if entry.is_dir() {
            collect_rs(&entry, out)?;
        } else if entry.extension().is_some_and(|e| e == "rs") {
            out.push(entry);
        }
    }
    Ok(())
}

/// Runs every configured lint over the whole workspace at `root`,
/// returning all surviving findings sorted by path, line, lint.
///
/// # Errors
///
/// Propagates filesystem errors; individual unreadable files abort the
/// run rather than being skipped silently.
pub fn run(root: &Path, cfg: &Config) -> io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for file in workspace_files(root)? {
        let rel = file.to_string_lossy().replace('\\', "/");
        let source = fs::read_to_string(root.join(&file))?;
        findings.extend(lint_source(&rel, &source, cfg));
    }
    findings.sort_by(|a, b| (&a.path, a.line, &a.lint).cmp(&(&b.path, b.line, &b.lint)));
    Ok(findings)
}

/// Loads `detlint.toml` from `root`.
///
/// # Errors
///
/// Returns a message if the file is missing or malformed.
pub fn load_config(root: &Path) -> Result<Config, String> {
    let path = root.join("detlint.toml");
    let text =
        fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Config::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A config that turns everything on for the fixture path `crates/x/src`.
    fn fixture_config() -> Config {
        Config::parse(
            r#"
[lint.fpu-routing]
include = ["crates/x/src"]
receivers = ["fpu"]

[lint.nondeterministic-order]
include = ["crates/x/src"]

[lint.float-reassociation]
include = ["crates/x/src"]

[lint.flop-accounting]
include = ["crates/x/src"]
suffixes = ["_batch"]
names = ["matvec"]

[lint.forbid-unsafe]
include = ["crates/x/src"]
"#,
        )
        .expect("fixture config parses")
    }

    fn lint(source: &str) -> Vec<Finding> {
        lint_source("crates/x/src/fixture.rs", source, &fixture_config())
    }

    fn lints_hit(source: &str) -> Vec<String> {
        lint(source).into_iter().map(|f| f.lint).collect()
    }

    // ---- fpu-routing ----

    #[test]
    fn fpu_routing_flags_intrinsics_and_literal_arith() {
        let hits = lint("fn f(x: f64) -> f64 { x.sqrt() }");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].lint, lints::FPU_ROUTING);
        assert_eq!(hits[0].line, 1);
        assert!(hits[0].message.contains("sqrt"));

        assert_eq!(
            lints_hit("fn f(x: f64) -> f64 { f64::mul_add(x, x, x) }").len(),
            1
        );
        assert_eq!(
            lints_hit("fn f(x: f64) -> f64 { x * 2.0 }"),
            [lints::FPU_ROUTING]
        );
        assert_eq!(
            lints_hit("fn f(x: f64) -> f64 { 0.5 * x }"),
            [lints::FPU_ROUTING]
        );
    }

    #[test]
    fn fpu_routing_allows_routed_calls_and_plain_literals() {
        assert!(lint("fn f(fpu: &F, x: f64) -> f64 { fpu.sqrt(x) }").is_empty());
        assert!(lint("const A: f64 = 2.5; fn f() -> f64 { A }").is_empty());
        // Unary minus in initializers is not arithmetic.
        assert!(lint("fn f() -> Vec<f64> { vec![-1.0, 2.0, -3.5] }").is_empty());
        assert!(lint("fn f(x: f64) -> bool { x > 1.0e-12 }").is_empty());
    }

    #[test]
    fn fpu_routing_is_string_and_comment_immune() {
        assert!(lint(r#"fn f() -> &'static str { "x.sqrt() * 2.0" }"#).is_empty());
        assert!(lint("// x.sqrt() * 2.0\nfn f() {}").is_empty());
        assert!(lint("/* 3.0 * 4.0 */ fn f() {}").is_empty());
        assert!(lint(r##"fn f() -> &'static str { r#"1.0 + 2.0"# }"##).is_empty());
    }

    #[test]
    fn fpu_routing_suppression_applies() {
        let src = "fn f(x: f64) -> f64 {\n    // detlint::allow(fpu-routing, reason = \"control-plane\")\n    x.sqrt()\n}";
        assert!(lint(src).is_empty());
        let trailing = "fn f(x: f64) -> f64 {\n    x.sqrt() // detlint::allow(fpu-routing, reason = \"control-plane\")\n}";
        assert!(lint(trailing).is_empty());
    }

    #[test]
    fn reason_may_contain_parens_and_commas() {
        let src = "fn f(x: f64) -> f64 {\n    // detlint::allow(fpu-routing, reason = \"guard (see ARCHITECTURE.md), reliable\")\n    x.sqrt()\n}";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn reasonless_suppression_is_itself_a_finding() {
        let src = "fn f(x: f64) -> f64 {\n    // detlint::allow(fpu-routing)\n    x.sqrt()\n}";
        let hits = lint(src);
        assert_eq!(hits.len(), 2, "bad-suppression + the unsuppressed finding");
        assert!(hits.iter().any(|f| f.lint == BAD_SUPPRESSION));
        assert!(hits.iter().any(|f| f.lint == lints::FPU_ROUTING));
        // Unknown lint names are also rejected.
        let unknown = "// detlint::allow(no-such-lint, reason = \"x\")\nfn f() {}";
        assert_eq!(lints_hit(unknown), [BAD_SUPPRESSION]);
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn g(x: f64) -> f64 { x.sqrt() * 2.0 }\n}";
        assert!(lint(src).is_empty());
        let test_fn = "#[test]\nfn t() { assert!(1.0 * 2.0 > 0.0); }";
        assert!(lint(test_fn).is_empty());
    }

    // ---- nondeterministic-order ----

    #[test]
    fn nondeterministic_order_flags_hashmap_and_clocks() {
        assert_eq!(
            lints_hit("use std::collections::HashMap;"),
            [lints::NONDETERMINISTIC_ORDER]
        );
        assert_eq!(
            lints_hit("fn f() { let t = Instant::now(); }"),
            [lints::NONDETERMINISTIC_ORDER]
        );
        assert_eq!(lints_hit("fn f() { let r = thread_rng(); }").len(), 1);
    }

    #[test]
    fn nondeterministic_order_negative_and_suppressed() {
        assert!(lint("use std::collections::BTreeMap;\nfn f() {}").is_empty());
        assert!(lint(r#"fn f() -> &'static str { "HashMap Instant::now" }"#).is_empty());
        let allowed = "// detlint::allow(nondeterministic-order, reason = \"throughput timer, not in any emitted byte\")\nlet t = Instant::now();";
        assert!(lint(allowed).is_empty());
    }

    // ---- float-reassociation ----

    #[test]
    fn float_reassociation_flags_sum_and_arith_fold() {
        assert_eq!(
            lints_hit("fn f(v: &[f64]) -> f64 { v.iter().sum() }"),
            [lints::FLOAT_REASSOCIATION]
        );
        assert_eq!(
            lints_hit("fn f(v: &[f64]) -> f64 { v.iter().copied().sum::<f64>() }"),
            [lints::FLOAT_REASSOCIATION]
        );
        assert_eq!(
            lints_hit("fn f(v: &[f64]) -> f64 { v.iter().fold(0, |a, b| a + b) }"),
            [lints::FLOAT_REASSOCIATION]
        );
    }

    #[test]
    fn order_insensitive_folds_pass() {
        assert!(
            lint("fn f(v: &[f64]) -> f64 { v.iter().copied().fold(f64::NAN, f64::max) }")
                .is_empty()
        );
        assert!(lint("// v.iter().sum::<f64>()\nfn f() {}").is_empty());
        let allowed = "fn f(v: &[f64]) -> f64 {\n    // detlint::allow(float-reassociation, reason = \"reliable control-plane reduction\")\n    v.iter().fold(0, |a, b| a + b)\n}";
        assert!(lint(allowed).is_empty());
    }

    // ---- flop-accounting ----

    #[test]
    fn flop_accounting_requires_doc_section() {
        let bare = "pub fn dot_batch(a: &[f64]) {}";
        let hits = lint(bare);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].lint, lints::FLOP_ACCOUNTING);
        assert!(hits[0].message.contains("dot_batch"));

        let documented = "/// Dot product.\n///\n/// # FLOP accounting\n///\n/// 2n FLOPs.\npub fn dot_batch(a: &[f64]) {}";
        assert!(lint(documented).is_empty());
        // Attributes between docs and fn are looked through.
        let with_attr = "/// # FLOP accounting\n#[inline]\npub fn dot_batch(a: &[f64]) {}";
        assert!(lint(with_attr).is_empty());
        // Exact names from config are kernels too.
        assert_eq!(lints_hit("pub fn matvec() {}"), [lints::FLOP_ACCOUNTING]);
        // Non-kernel names are not.
        assert!(lint("pub fn helper() {}").is_empty());
    }

    // ---- forbid-unsafe ----

    #[test]
    fn forbid_unsafe_checks_crate_roots_only() {
        let hits = lint_source("crates/x/src/lib.rs", "pub fn f() {}", &fixture_config());
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].lint, lints::FORBID_UNSAFE);
        assert!(lint_source(
            "crates/x/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn f() {}",
            &fixture_config()
        )
        .is_empty());
        // deny is accepted as the documented exception form.
        assert!(lint_source(
            "crates/x/src/lib.rs",
            "#![deny(unsafe_code)]\npub fn f() {}",
            &fixture_config()
        )
        .is_empty());
        // Non-root modules are not checked.
        assert!(lint_source("crates/x/src/util.rs", "pub fn f() {}", &fixture_config()).is_empty());
    }

    // ---- scoping ----

    #[test]
    fn out_of_scope_paths_are_clean() {
        let hits = lint_source(
            "crates/other/src/lib.rs",
            "fn f(x: f64) -> f64 { x.sqrt() * 2.0 }",
            &fixture_config(),
        );
        assert!(hits.is_empty());
    }

    #[test]
    fn findings_are_sorted_and_deduped() {
        let src = "fn f(x: f64) -> f64 { x.sqrt() + 1.0 }\nfn g() { let m: HashMap<u8, u8> = HashMap::new(); }";
        let hits = lint(src);
        assert!(hits
            .windows(2)
            .all(|w| (w[0].line, &w[0].lint) <= (w[1].line, &w[1].lint)));
        assert!(hits
            .iter()
            .any(|f| f.lint == lints::FPU_ROUTING && f.line == 1));
        assert!(hits
            .iter()
            .any(|f| f.lint == lints::NONDETERMINISTIC_ORDER && f.line == 2));
    }
}
