//! Streaming trial aggregation: quality-metric summaries and per-cell
//! statistics.

use robustify_core::Verdict;

/// Aggregate statistics of a quality metric over a batch of trials.
///
/// # Examples
///
/// ```
/// use robustify_engine::MetricSummary;
///
/// let s = MetricSummary::from_values(vec![3.0, 1.0, 2.0], 1);
/// assert_eq!(s.median(), 2.0);
/// assert_eq!(s.failures, 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSummary {
    /// Finite metric values, sorted ascending.
    values: Vec<f64>,
    /// Trials whose metric was non-finite (breakdowns, NaN outputs).
    pub failures: usize,
}

impl MetricSummary {
    /// Builds a summary from raw values (non-finite entries should already
    /// have been counted into `failures`).
    pub fn from_values(mut values: Vec<f64>, failures: usize) -> Self {
        values.sort_by(|a, b| a.partial_cmp(b).expect("values are finite"));
        MetricSummary { values, failures }
    }

    /// Geometric-mean-friendly central tendency: the median of the finite
    /// values, or `∞` when every trial failed.
    pub fn median(&self) -> f64 {
        if self.values.is_empty() {
            return f64::INFINITY;
        }
        let n = self.values.len();
        if n % 2 == 1 {
            self.values[n / 2]
        } else {
            0.5 * (self.values[n / 2 - 1] + self.values[n / 2])
        }
    }

    /// The arithmetic mean of the finite values, or `∞` when every trial
    /// failed.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return f64::INFINITY;
        }
        // detlint::allow(float-reassociation, reason = "engine-side mean over measured metrics; aggregation is reliable")
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// The worst finite value, or `∞` when every trial failed.
    pub fn max(&self) -> f64 {
        self.values.last().copied().unwrap_or(f64::INFINITY)
    }

    /// How many finite values are at most `threshold`.
    pub fn count_at_most(&self, threshold: f64) -> usize {
        self.values.partition_point(|&v| v <= threshold)
    }
}

/// The full record of one executed trial.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialRecord {
    /// The problem-level verdict.
    pub verdict: Verdict,
    /// Data-plane FLOPs the trial charged to its FPU.
    pub flops: u64,
    /// Faults the FPU injected during the trial.
    pub faults: u64,
}

/// Aggregated statistics of one sweep cell (one case at one fault rate).
///
/// Built by streaming [`TrialRecord`]s in trial-index order, so the
/// aggregate is bit-identical regardless of how many worker threads
/// produced the records.
#[derive(Debug, Clone, PartialEq)]
pub struct CellStats {
    trials: usize,
    successes: usize,
    metrics: Vec<f64>,
    metric_failures: usize,
    flops: u64,
    faults: u64,
}

impl CellStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        CellStats {
            trials: 0,
            successes: 0,
            metrics: Vec::new(),
            metric_failures: 0,
            flops: 0,
            faults: 0,
        }
    }

    /// Streams one trial record into the aggregate.
    pub fn push(&mut self, record: &TrialRecord) {
        self.trials += 1;
        if record.verdict.success {
            self.successes += 1;
        }
        if record.verdict.metric.is_finite() {
            self.metrics.push(record.verdict.metric);
        } else {
            self.metric_failures += 1;
        }
        self.flops += record.flops;
        self.faults += record.faults;
    }

    /// Number of trials aggregated.
    pub fn trials(&self) -> usize {
        self.trials
    }

    /// Number of successful trials.
    pub fn successes(&self) -> usize {
        self.successes
    }

    /// Success percentage in `[0, 100]` — the y-axis of the success-rate
    /// figures.
    pub fn success_rate(&self) -> f64 {
        if self.trials == 0 {
            return 0.0;
        }
        100.0 * self.successes as f64 / self.trials as f64
    }

    /// The metric summary (finite values + failure count).
    pub fn summary(&self) -> MetricSummary {
        MetricSummary::from_values(self.metrics.clone(), self.metric_failures)
    }

    /// Total data-plane FLOPs across the cell's trials.
    pub fn flops(&self) -> u64 {
        self.flops
    }

    /// Mean FLOPs per trial (zero for an empty cell).
    pub fn flops_per_trial(&self) -> u64 {
        if self.trials == 0 {
            0
        } else {
            self.flops / self.trials as u64
        }
    }

    /// Total injected faults across the cell's trials.
    pub fn faults(&self) -> u64 {
        self.faults
    }
}

impl Default for CellStats {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_summary_statistics() {
        let s = MetricSummary::from_values(vec![3.0, 1.0, 2.0], 1);
        assert_eq!(s.median(), 2.0);
        assert_eq!(s.mean(), 2.0);
        assert_eq!(s.max(), 3.0);
        let even = MetricSummary::from_values(vec![1.0, 3.0], 0);
        assert_eq!(even.median(), 2.0);
    }

    #[test]
    fn all_failed_summary_is_infinite() {
        let s = MetricSummary::from_values(vec![], 5);
        assert_eq!(s.median(), f64::INFINITY);
        assert_eq!(s.mean(), f64::INFINITY);
        assert_eq!(s.failures, 5);
    }

    #[test]
    fn quantiles_and_threshold_counts() {
        let s = MetricSummary::from_values(vec![1.0, 2.0, 3.0, 4.0, 5.0], 0);
        assert_eq!(s.count_at_most(3.5), 3);
        assert_eq!(s.count_at_most(0.5), 0);
    }

    #[test]
    fn cell_stats_stream() {
        let mut cell = CellStats::new();
        cell.push(&TrialRecord {
            verdict: Verdict {
                success: true,
                metric: 0.5,
            },
            flops: 100,
            faults: 2,
        });
        cell.push(&TrialRecord {
            verdict: Verdict {
                success: false,
                metric: f64::INFINITY,
            },
            flops: 50,
            faults: 1,
        });
        assert_eq!(cell.trials(), 2);
        assert_eq!(cell.success_rate(), 50.0);
        assert_eq!(cell.flops(), 150);
        assert_eq!(cell.flops_per_trial(), 75);
        assert_eq!(cell.faults(), 3);
        let summary = cell.summary();
        assert_eq!(summary.max(), 0.5);
        assert_eq!(summary.failures, 1);
    }
}
