//! The lint passes: token-pattern checks over one lexed file.
//!
//! Every pass is a deliberate *heuristic* at the token level — `detlint`
//! has no type information. Each lint documents exactly what it matches
//! and what it cannot see; the goal is to make the determinism contract's
//! preconditions cheap to audit, not to replace review. False positives
//! are expected on legitimately control-plane code and are silenced with
//! an explicit, reasoned suppression:
//!
//! ```text
//! // detlint::allow(fpu-routing, reason = "control-plane scalar recurrence")
//! ```
//!
//! A suppression covers its own line when it trails code, or the next
//! line holding code when it stands alone. The `reason` is mandatory; a
//! reasonless `allow` is itself reported (as `bad-suppression`) and cannot
//! be silenced.

use crate::config::LintScope;
use crate::lexer::{Token, TokenKind};

/// Raw `f64` math outside the `Fpu` trait in fault-injected layers.
pub const FPU_ROUTING: &str = "fpu-routing";
/// Iteration-order / wall-clock / OS-entropy nondeterminism near emitters.
pub const NONDETERMINISTIC_ORDER: &str = "nondeterministic-order";
/// Float reductions the compiler may reassociate, outside the blessed
/// fpu reduction kernels.
pub const FLOAT_REASSOCIATION: &str = "float-reassociation";
/// Batch kernels missing their `# FLOP accounting` doc section.
pub const FLOP_ACCOUNTING: &str = "flop-accounting";
/// Crate roots missing `#![forbid(unsafe_code)]`.
pub const FORBID_UNSAFE: &str = "forbid-unsafe";
/// A malformed or reasonless `detlint::allow` (never suppressible).
pub const BAD_SUPPRESSION: &str = "bad-suppression";

/// Every suppressible lint, in reporting order.
pub const LINTS: &[&str] = &[
    FPU_ROUTING,
    NONDETERMINISTIC_ORDER,
    FLOAT_REASSOCIATION,
    FLOP_ACCOUNTING,
    FORBID_UNSAFE,
];

/// One violation: where, which lint, and what to do about it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line of the violation.
    pub line: u32,
    /// Lint name (one of [`LINTS`] or [`BAD_SUPPRESSION`]).
    pub lint: String,
    /// Human-readable description.
    pub message: String,
}

impl Finding {
    fn new(path: &str, line: u32, lint: &str, message: String) -> Self {
        Finding {
            path: path.to_string(),
            line,
            lint: lint.to_string(),
            message,
        }
    }
}

/// Float intrinsics that expand to FLOPs and therefore must dispatch
/// through the `Fpu` trait inside fault-injected layers.
const INTRINSICS: &[&str] = &[
    "sqrt", "cbrt", "hypot", "powi", "powf", "mul_add", "exp", "exp2", "exp_m1", "ln", "ln_1p",
    "log", "log2", "log10", "sin", "cos", "tan", "asin", "acos", "atan", "atan2", "sinh", "cosh",
    "tanh", "recip",
];

/// Identifiers whose mere presence breaks seeded determinism.
const NONDET_IDENTS: &[&str] = &["HashMap", "HashSet", "thread_rng", "from_entropy", "OsRng"];

/// `Type::now()` clock reads.
const CLOCK_TYPES: &[&str] = &["Instant", "SystemTime"];

/// Arithmetic operators (binary or compound-assign) for the raw-math and
/// reassociating-fold checks.
const ARITH_OPS: &[&str] = &["+", "-", "*", "/", "%", "+=", "-=", "*=", "/=", "%="];

/// A parsed `// detlint::allow(<lint>, reason = "...")`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    /// The lint being allowed.
    pub lint: String,
    /// The line the violation must sit on for the allow to apply
    /// (resolved from the comment's position).
    pub target_line: u32,
}

/// Everything one file's lint run needs: the token stream split into code
/// and comments, with `#[cfg(test)]` / `#[test]` items masked out.
pub struct FileLinter<'a> {
    path: &'a str,
    /// All tokens, comments included (for doc-section checks).
    tokens: &'a [Token],
    /// Indices into `tokens` of non-comment tokens outside test items.
    code: Vec<usize>,
    /// Line ranges covered by test items (inclusive).
    test_spans: Vec<(u32, u32)>,
}

impl<'a> FileLinter<'a> {
    /// Prepares the token stream: indexes code tokens and masks test items.
    pub fn new(path: &'a str, tokens: &'a [Token]) -> Self {
        let code_all: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !matches!(t.kind, TokenKind::Comment | TokenKind::DocComment))
            .map(|(i, _)| i)
            .collect();
        let mut test_spans = Vec::new();
        let mut code = Vec::new();
        let mut k = 0usize;
        while k < code_all.len() {
            if let Some((end_k, span)) = test_item_at(tokens, &code_all, k) {
                test_spans.push(span);
                k = end_k;
                continue;
            }
            code.push(code_all[k]);
            k += 1;
        }
        FileLinter {
            path,
            tokens,
            code,
            test_spans,
        }
    }

    fn code_tok(&self, k: usize) -> Option<&Token> {
        self.code.get(k).map(|&i| &self.tokens[i])
    }

    fn in_test_span(&self, line: u32) -> bool {
        self.test_spans.iter().any(|&(s, e)| s <= line && line <= e)
    }

    /// Collects suppressions and reports malformed ones.
    ///
    /// A suppression written on a line holding code covers that line; one
    /// standing alone covers the next line holding code.
    pub fn suppressions(&self, findings: &mut Vec<Finding>) -> Vec<Suppression> {
        let code_lines: Vec<u32> = self.code.iter().map(|&i| self.tokens[i].line).collect();
        let mut out = Vec::new();
        for tok in self.tokens {
            // Suppressions are implementation comments, never doc comments:
            // an allow in rustdoc would leak into the rendered API docs (and
            // doc text quoting the syntax must not count as a suppression).
            if tok.kind != TokenKind::Comment {
                continue;
            }
            let mut rest = tok.text.as_str();
            while let Some(at) = rest.find("detlint::allow(") {
                rest = &rest[at + "detlint::allow(".len()..];
                match parse_allow(rest) {
                    Ok(lint) => {
                        let has_code_here = code_lines.contains(&tok.line);
                        let target_line = if has_code_here {
                            tok.line
                        } else {
                            match code_lines.iter().copied().find(|&l| l > tok.line) {
                                Some(l) => l,
                                None => tok.line,
                            }
                        };
                        out.push(Suppression { lint, target_line });
                    }
                    Err(why) => findings.push(Finding::new(
                        self.path,
                        tok.line,
                        BAD_SUPPRESSION,
                        format!("malformed detlint::allow: {why}"),
                    )),
                }
            }
        }
        out
    }

    /// `fpu-routing`: float intrinsics and float-literal arithmetic
    /// outside the `Fpu` trait.
    ///
    /// Matches (a) `.sqrt(` / `.mul_add(` / … method calls whose receiver
    /// is not a configured FPU identifier, (b) `f64::sqrt`-style paths,
    /// and (c) any arithmetic operator adjacent to a float literal.
    /// Cannot see: `a * b` where both operands are variables — that is
    /// what review and the dynamic byte-identity proptests still cover.
    pub fn fpu_routing(&self, scope: &LintScope, findings: &mut Vec<Finding>) {
        for k in 0..self.code.len() {
            let t = &self.tokens[self.code[k]];
            // (a) method-call intrinsics.
            if t.kind == TokenKind::Punct && t.text == "." {
                if let (Some(name), Some(open)) = (self.code_tok(k + 1), self.code_tok(k + 2)) {
                    if name.kind == TokenKind::Ident
                        && INTRINSICS.contains(&name.text.as_str())
                        && open.text == "("
                    {
                        let routed = k > 0
                            && self.code_tok(k - 1).is_some_and(|r| {
                                r.kind == TokenKind::Ident
                                    && scope.receivers.iter().any(|id| id == &r.text)
                            });
                        if !routed {
                            findings.push(Finding::new(
                                self.path,
                                name.line,
                                FPU_ROUTING,
                                format!(
                                    "float intrinsic `.{}()` bypasses the Fpu trait",
                                    name.text
                                ),
                            ));
                        }
                    }
                }
            }
            // (b) f64::sqrt path calls.
            if t.kind == TokenKind::Ident && (t.text == "f64" || t.text == "f32") {
                if let (Some(sep), Some(name)) = (self.code_tok(k + 1), self.code_tok(k + 2)) {
                    if sep.text == "::" && INTRINSICS.contains(&name.text.as_str()) {
                        findings.push(Finding::new(
                            self.path,
                            name.line,
                            FPU_ROUTING,
                            format!(
                                "float intrinsic `f64::{}` bypasses the Fpu trait",
                                name.text
                            ),
                        ));
                    }
                }
            }
            // (c) float-literal arithmetic.
            if t.kind == TokenKind::Float {
                let next_arith = self.code_tok(k + 1).is_some_and(|n| {
                    n.kind == TokenKind::Punct && ARITH_OPS.contains(&n.text.as_str())
                });
                let prev_arith = k > 0
                    && self.code_tok(k - 1).is_some_and(|p| {
                        if p.kind != TokenKind::Punct || !ARITH_OPS.contains(&p.text.as_str()) {
                            return false;
                        }
                        if p.text == "+" || p.text == "-" {
                            // Binary only if something precedes the sign.
                            k >= 2
                                && self.code_tok(k - 2).is_some_and(|pp| {
                                    matches!(
                                        pp.kind,
                                        TokenKind::Ident | TokenKind::Int | TokenKind::Float
                                    ) || pp.text == ")"
                                        || pp.text == "]"
                                })
                        } else {
                            true
                        }
                    });
                if next_arith || prev_arith {
                    findings.push(Finding::new(
                        self.path,
                        t.line,
                        FPU_ROUTING,
                        format!(
                            "raw f64 arithmetic on literal `{}` bypasses the Fpu trait",
                            t.text
                        ),
                    ));
                }
            }
        }
    }

    /// `nondeterministic-order`: `HashMap`/`HashSet`, OS randomness, and
    /// wall-clock reads in output-feeding layers.
    pub fn nondeterministic_order(&self, findings: &mut Vec<Finding>) {
        for k in 0..self.code.len() {
            let t = &self.tokens[self.code[k]];
            if t.kind != TokenKind::Ident {
                continue;
            }
            if NONDET_IDENTS.contains(&t.text.as_str()) {
                findings.push(Finding::new(
                    self.path,
                    t.line,
                    NONDETERMINISTIC_ORDER,
                    format!(
                        "`{}` is nondeterministic (seeded LFSR/SplitMix only)",
                        t.text
                    ),
                ));
            }
            if CLOCK_TYPES.contains(&t.text.as_str()) {
                if let (Some(sep), Some(now)) = (self.code_tok(k + 1), self.code_tok(k + 2)) {
                    if sep.text == "::" && now.text == "now" {
                        findings.push(Finding::new(
                            self.path,
                            t.line,
                            NONDETERMINISTIC_ORDER,
                            format!("`{}::now` reads the wall clock", t.text),
                        ));
                    }
                }
            }
        }
    }

    /// `float-reassociation`: `.sum()` / `.product()` iterator reductions
    /// and `.fold(..)` whose body contains arithmetic — single dependency
    /// chains the compiler may only vectorize by reassociating, where the
    /// fpu reduction kernels pin one documented per-op order.
    /// Order-insensitive folds (`f64::max`) pass.
    pub fn float_reassociation(&self, findings: &mut Vec<Finding>) {
        for k in 0..self.code.len() {
            let t = &self.tokens[self.code[k]];
            if !(t.kind == TokenKind::Punct && t.text == ".") {
                continue;
            }
            let Some(name) = self.code_tok(k + 1) else {
                continue;
            };
            if name.kind != TokenKind::Ident {
                continue;
            }
            match name.text.as_str() {
                "sum" | "product"
                    if self
                        .code_tok(k + 2)
                        .is_some_and(|n| n.text == "(" || n.text == "::") =>
                {
                    findings.push(Finding::new(
                        self.path,
                        name.line,
                        FLOAT_REASSOCIATION,
                        format!(
                            "`.{}()` reduction outside the fpu reduction kernels",
                            name.text
                        ),
                    ));
                }
                "fold" => {
                    let Some(open) = self.code_tok(k + 2) else {
                        continue;
                    };
                    if open.text != "(" {
                        continue;
                    }
                    // Scan the call's argument span for arithmetic.
                    let mut depth = 0i32;
                    let mut has_arith = false;
                    for j in (k + 2)..self.code.len() {
                        let tj = &self.tokens[self.code[j]];
                        match tj.text.as_str() {
                            "(" | "[" | "{" => depth += 1,
                            ")" | "]" | "}" => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            op if tj.kind == TokenKind::Punct && ARITH_OPS.contains(&op) => {
                                // `->` / `=>` already lex as single tokens,
                                // so any arithmetic punct here is real.
                                has_arith = true;
                            }
                            _ => {}
                        }
                    }
                    if has_arith {
                        findings.push(Finding::new(
                            self.path,
                            name.line,
                            FLOAT_REASSOCIATION,
                            "arithmetic `.fold(..)` outside the fpu reduction kernels".to_string(),
                        ));
                    }
                }
                _ => {}
            }
        }
    }

    /// `flop-accounting`: batch kernels (by configured name/suffix) must
    /// carry a `# FLOP accounting` doc section.
    pub fn flop_accounting(&self, scope: &LintScope, findings: &mut Vec<Finding>) {
        for i in 0..self.tokens.len() {
            let t = &self.tokens[i];
            if !(t.kind == TokenKind::Ident && t.text == "fn") {
                continue;
            }
            if self.in_test_span(t.line) {
                continue;
            }
            let Some(name) = self.tokens.get(i + 1) else {
                continue;
            };
            if name.kind != TokenKind::Ident {
                continue;
            }
            let is_kernel = scope.names.iter().any(|n| n == &name.text)
                || scope
                    .suffixes
                    .iter()
                    .any(|s| name.text.ends_with(s.as_str()));
            if !is_kernel {
                continue;
            }
            // A definition or trait declaration, not a call: `fn name` is
            // already unambiguous in Rust.
            let docs = doc_block_above(self.tokens, i);
            if !docs.contains("# FLOP accounting") {
                findings.push(Finding::new(
                    self.path,
                    name.line,
                    FLOP_ACCOUNTING,
                    format!(
                        "batch kernel `{}` lacks a `# FLOP accounting` doc section",
                        name.text
                    ),
                ));
            }
        }
    }

    /// `forbid-unsafe`: crate roots (`lib.rs`, `main.rs`, `src/bin/*.rs`)
    /// must pin `#![forbid(unsafe_code)]` (or `#![deny(unsafe_code)]`
    /// with a justified exception).
    pub fn forbid_unsafe(&self, findings: &mut Vec<Finding>) {
        let is_root = self.path.ends_with("/lib.rs")
            || self.path == "src/lib.rs"
            || self.path.ends_with("/main.rs")
            || self.path == "src/main.rs"
            || self.path.contains("/src/bin/");
        if !is_root {
            return;
        }
        for k in 0..self.code.len() {
            let t = &self.tokens[self.code[k]];
            if t.kind == TokenKind::Ident && (t.text == "forbid" || t.text == "deny") {
                if let (Some(open), Some(what)) = (self.code_tok(k + 1), self.code_tok(k + 2)) {
                    if open.text == "(" && what.text == "unsafe_code" {
                        return;
                    }
                }
            }
        }
        findings.push(Finding::new(
            self.path,
            1,
            FORBID_UNSAFE,
            "crate root lacks #![forbid(unsafe_code)] (injected code must be safe Rust)"
                .to_string(),
        ));
    }
}

/// If the code token at `code[k]` starts a `#[test]` / `#[cfg(test)]`
/// item, returns the code index just past the item and its line span.
fn test_item_at(tokens: &[Token], code: &[usize], k: usize) -> Option<(usize, (u32, u32))> {
    let tok = |j: usize| -> Option<&Token> { code.get(j).map(|&i| &tokens[i]) };
    if !(tok(k)?.text == "#" && tok(k + 1)?.text == "[") {
        return None;
    }
    // Scan the attribute body for the `test` identifier.
    let mut j = k + 2;
    let mut depth = 1i32;
    let mut is_test_attr = false;
    while let Some(t) = tok(j) {
        match t.text.as_str() {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            "test" if t.kind == TokenKind::Ident => is_test_attr = true,
            _ => {}
        }
        j += 1;
    }
    if !is_test_attr {
        return None;
    }
    let start_line = tok(k)?.line;
    // Consume any further attributes, then the item body (to `;`, or
    // through the matching brace of its first `{`).
    j += 1;
    while tok(j).is_some_and(|t| t.text == "#") && tok(j + 1).is_some_and(|t| t.text == "[") {
        let mut depth = 0i32;
        while let Some(t) = tok(j) {
            match t.text.as_str() {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        j += 1;
    }
    let mut brace_depth = 0i32;
    while let Some(t) = tok(j) {
        match t.text.as_str() {
            ";" if brace_depth == 0 => {
                return Some((j + 1, (start_line, t.line)));
            }
            "{" => brace_depth += 1,
            "}" => {
                brace_depth -= 1;
                if brace_depth == 0 {
                    return Some((j + 1, (start_line, t.line)));
                }
            }
            _ => {}
        }
        j += 1;
    }
    // Unterminated item: mask to end of file.
    let end_line = tokens.last().map(|t| t.line).unwrap_or(start_line);
    Some((code.len(), (start_line, end_line)))
}

/// The concatenated doc-comment text directly above the token at `i`,
/// looking through attributes and visibility/qualifier keywords.
fn doc_block_above(tokens: &[Token], i: usize) -> String {
    let mut docs: Vec<&str> = Vec::new();
    let mut j = i;
    while j > 0 {
        j -= 1;
        let t = &tokens[j];
        match t.kind {
            TokenKind::DocComment => docs.push(&t.text),
            TokenKind::Comment => {}
            TokenKind::Ident
                if matches!(
                    t.text.as_str(),
                    "pub"
                        | "crate"
                        | "unsafe"
                        | "const"
                        | "async"
                        | "default"
                        | "extern"
                        | "in"
                        | "self"
                        | "super"
                ) => {}
            TokenKind::Punct if t.text == "(" || t.text == ")" => {}
            TokenKind::Punct if t.text == "]" => {
                // Walk back over the attribute.
                let mut depth = 1i32;
                while j > 0 && depth > 0 {
                    j -= 1;
                    match tokens[j].text.as_str() {
                        "]" => depth += 1,
                        "[" => depth -= 1,
                        _ => {}
                    }
                }
                // Skip the leading `#`.
                if j > 0 && tokens[j - 1].text == "#" {
                    j -= 1;
                }
            }
            _ => break,
        }
    }
    docs.reverse();
    docs.join("\n")
}

/// Parses the tail of `detlint::allow(` — `<lint>, reason = "...")` —
/// returning the lint name.
fn parse_allow(rest: &str) -> Result<String, String> {
    // The reason string may itself contain `)` or `,`, so parse the quoted
    // string before looking for the closing paren.
    let (lint, tail) = rest
        .split_once(',')
        .ok_or("missing `, reason = \"...\"` (a reason is mandatory)")?;
    let lint = lint.trim();
    if !LINTS.contains(&lint) {
        return Err(format!("unknown lint `{lint}`"));
    }
    let tail = tail.trim();
    let after_eq = tail
        .strip_prefix("reason")
        .map(str::trim_start)
        .and_then(|t| t.strip_prefix('='))
        .map(str::trim_start)
        .ok_or("expected `reason = \"...\"`")?;
    let body = after_eq
        .strip_prefix('"')
        .ok_or("reason must be a quoted string")?;
    let (reason, after_quote) = body.split_once('"').ok_or("unterminated reason string")?;
    if reason.trim().is_empty() {
        return Err("reason must not be empty".to_string());
    }
    if !after_quote.trim_start().starts_with(')') {
        return Err("expected `)` after the reason".to_string());
    }
    Ok(lint.to_string())
}
