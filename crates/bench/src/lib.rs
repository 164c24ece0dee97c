//! Shared plumbing for the experiment binaries: the unified CLI parser
//! ([`cli`]), the paper's workload registry ([`workloads`]), the table
//! printer, and renderers from a campaign's result document to tables.
//!
//! Each binary in `src/bin/` regenerates one figure of the paper as a
//! declarative campaign over [`robustify_engine`]: it names
//! `(workload × solver)` jobs in [`workloads::paper_registry`] over a
//! fault-rate grid and lets the engine execute it in parallel with
//! deterministic seeding. Its table is a view of the campaign's JSON
//! document, so a run as a *thin client* of the `campaign_server` daemon
//! (`--server`) prints the same bytes as a local run, which can also
//! checkpoint into a content-addressed result cache (`--cache-dir`); see
//! [`cli::ExperimentOptions::report`].

#![deny(missing_docs)]
#![forbid(unsafe_code)]

/// `println!` through [`write_line`], so a closed stdout ends the process
/// quietly instead of panicking.
#[macro_export]
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::write_line(format_args!($($arg)*))
    };
}

pub mod cli;
pub mod workloads;

pub use cli::ExperimentOptions;

use robustify_engine::{csv_field, DocCell, SweepDoc};
use std::io::{ErrorKind, Write};

/// Writes one line to stdout: the only stdout path of the experiment
/// binaries. A reader that closed the pipe early (`| head`) has all the
/// output it wants, so a `BrokenPipe` exits quietly with code 0; any other
/// write error exits with code 1.
pub fn write_line(line: std::fmt::Arguments) {
    if let Err(e) = writeln!(std::io::stdout().lock(), "{line}") {
        if e.kind() == ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("stdout: {e}");
        std::process::exit(1);
    }
}

/// Renders a success-rate result as a `fault_rate × case` table (the shape
/// of Figures 6.1, 6.4, 6.5).
pub fn success_table(title: &str, result: &SweepDoc) -> Table {
    rate_case_table(title, result, |cell| format!("{:.1}", cell.success_rate))
}

/// Renders a median-metric result as a `fault_rate × case` table (the shape
/// of Figures 6.2, 6.3, 6.6; lower is better, `fail` marks all-broken
/// cells).
pub fn metric_table(title: &str, result: &SweepDoc) -> Table {
    rate_case_table(title, result, |cell| fmt_metric(cell.median))
}

/// One row per fault rate, one column per case.
fn rate_case_table(title: &str, result: &SweepDoc, show: impl Fn(&DocCell) -> String) -> Table {
    let mut headers: Vec<&str> = vec!["fault_rate_%"];
    headers.extend(result.labels.iter().map(|l| l.as_str()));
    let mut table = Table::new(title, &headers);
    for (rate_idx, rate) in result.rates_pct.iter().enumerate() {
        let mut row = vec![format!("{rate}")];
        row.extend(result.cells.iter().map(|cells| show(&cells[rate_idx])));
        table.row(&row);
    }
    table
}

/// A column-aligned results table, with a CSV rendering for the binaries
/// that have no campaign document.
///
/// # Examples
///
/// ```
/// use robustify_bench::Table;
///
/// let mut t = Table::new("demo", &["fault_rate", "success"]);
/// t.row(&[format!("{:.1}", 1.0), format!("{:.1}", 99.5)]);
/// let csv = t.to_csv();
/// assert!(csv.contains("fault_rate,success"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(cells.to_vec());
    }

    /// The CSV rendering (headers + rows), each field quoted by the
    /// engine's [`csv_field`].
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for line in std::iter::once(&self.headers).chain(&self.rows) {
            let fields: Vec<String> = line.iter().map(|f| csv_field(f)).collect();
            out.push_str(&fields.join(","));
            out.push('\n');
        }
        out
    }

    /// Prints the aligned human-readable table.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        outln!("\n== {} ==", self.title);
        let header_line: Vec<String> = self
            .headers
            .iter()
            .zip(&widths)
            .map(|(h, w)| format!("{h:>w$}"))
            .collect();
        outln!("{}", header_line.join("  "));
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            outln!("{}", line.join("  "));
        }
    }
}

/// Formats a metric that may be infinite (failed trials) for table cells.
pub fn fmt_metric(v: f64) -> String {
    if !v.is_finite() {
        "fail".to_string()
    } else if v != 0.0 && (v.abs() < 1e-3 || v.abs() >= 1e4) {
        format!("{v:.3e}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_roundtrip() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(&["1".into(), "2".into()]);
        t.row(&["3".into(), "4".into()]);
        assert_eq!(t.to_csv(), "a,b\n1,2\n3,4\n");
    }

    #[test]
    fn table_csv_quotes_fields_with_commas() {
        let mut t = Table::new("t", &["fault_rate_%", "SGD+AS,LS", "CG, N=10"]);
        t.row(&["1".into(), "2".into(), "say \"hi\"".into()]);
        let csv = t.to_csv();
        assert_eq!(
            csv,
            "fault_rate_%,\"SGD+AS,LS\",\"CG, N=10\"\n1,2,\"say \"\"hi\"\"\"\n"
        );
        // Outside quotes every comma separates fields: one count per line.
        let fields = |line: &str| {
            line.split('"')
                .step_by(2)
                .map(|outside| outside.matches(',').count())
                .sum::<usize>()
                + 1
        };
        let counts: Vec<usize> = csv.lines().map(fields).collect();
        assert_eq!(counts, [3, 3]);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn table_rejects_ragged_rows() {
        Table::new("t", &["a", "b"]).row(&["1".into()]);
    }

    #[test]
    fn metric_formatting() {
        assert_eq!(fmt_metric(f64::INFINITY), "fail");
        assert_eq!(fmt_metric(f64::NAN), "fail");
        assert_eq!(fmt_metric(0.5), "0.5000");
        assert_eq!(fmt_metric(1e-9), "1.000e-9");
        assert_eq!(fmt_metric(0.0), "0.0000");
    }
}
