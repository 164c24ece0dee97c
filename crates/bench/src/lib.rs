//! Shared plumbing for the experiment binaries: the unified CLI parser
//! ([`cli`]), the paper's workload registry ([`workloads`]), table and CSV
//! printers, and renderers from engine results to tables.
//!
//! Each binary in `src/bin/` regenerates one figure of the paper as a
//! declarative campaign over [`robustify_engine`]: it names
//! `(workload × solver)` jobs in [`workloads::paper_registry`] over a
//! fault-rate grid and lets the engine execute it in parallel with
//! deterministic seeding. Every engine binary can also run as a *thin
//! client* of the `campaign_server` daemon (`--server`) or checkpoint into
//! its content-addressed result cache (`--cache-dir`); see
//! [`cli::ExperimentOptions::execute_campaign`].

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod cli;
pub mod workloads;

pub use cli::ExperimentOptions;

use robustify_engine::SweepResult;

/// Renders a success-rate result as a `fault_rate × case` table (the shape
/// of Figures 6.1, 6.4, 6.5).
pub fn success_table(title: &str, result: &SweepResult) -> Table {
    let mut headers: Vec<&str> = vec!["fault_rate_%"];
    headers.extend(result.labels().iter().map(|l| l.as_str()));
    let mut table = Table::new(title, &headers);
    for (rate_idx, rate) in result.rates_pct().iter().enumerate() {
        let mut row = vec![format!("{rate}")];
        for case in 0..result.labels().len() {
            row.push(format!("{:.1}", result.cell(case, rate_idx).success_rate()));
        }
        table.row(&row);
    }
    table
}

/// Renders a median-metric result as a `fault_rate × case` table (the shape
/// of Figures 6.2, 6.3, 6.6; lower is better, `fail` marks all-broken
/// cells).
pub fn metric_table(title: &str, result: &SweepResult) -> Table {
    let mut headers: Vec<&str> = vec!["fault_rate_%"];
    headers.extend(result.labels().iter().map(|l| l.as_str()));
    let mut table = Table::new(title, &headers);
    for (rate_idx, rate) in result.rates_pct().iter().enumerate() {
        let mut row = vec![format!("{rate}")];
        for case in 0..result.labels().len() {
            row.push(fmt_metric(result.cell(case, rate_idx).summary().median()));
        }
        table.row(&row);
    }
    table
}

/// A column-aligned results table that also emits machine-readable CSV.
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

    /// The CSV rendering (headers + rows).
    pub fn to_csv(&self) -> String {
        let mut out = self.headers.join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// Prints the aligned human-readable table followed by the CSV block.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        println!("\n== {} ==", self.title);
        let header_line: Vec<String> = self
            .headers
            .iter()
            .zip(&widths)
            .map(|(h, w)| format!("{h:>w$}"))
            .collect();
        println!("{}", header_line.join("  "));
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            println!("{}", line.join("  "));
        }
        println!("\n-- csv --\n{}", self.to_csv());
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
