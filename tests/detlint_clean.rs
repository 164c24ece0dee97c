//! Tier-1 face of the static determinism lints: plain `cargo test` from
//! the workspace root must prove the tree is `detlint`-clean.
//!
//! The same engine also runs as `cargo run -p detlint`, the dedicated
//! CI job; `--workspace` test runs include this test too.

use std::path::Path;

#[test]
fn workspace_is_detlint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let cfg = detlint::load_config(root).expect("detlint.toml parses");
    let findings = detlint::run(root, &cfg).expect("workspace walk succeeds");
    if !findings.is_empty() {
        let mut report = String::new();
        for f in &findings {
            report.push_str(&format!(
                "{}:{}: [{}] {}\n",
                f.path, f.line, f.lint, f.message
            ));
        }
        panic!(
            "detlint found {} violation(s) — fix or add `// detlint::allow(<lint>, reason = \"...\")`:\n{report}",
            findings.len()
        );
    }
}
