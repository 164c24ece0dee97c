//! Sorting (§4.3): "among all permutations of the entries of an array
//! `u ∈ Rⁿ`, the one that sorts it in ascending order also maximizes the
//! dot product between the permuted `u` and the array `v = [1 … n]ᵀ`"
//! (Brockett). The permutation is found by solving the LP (4.3) over doubly
//! stochastic matrices; baselines are comparison sorts whose comparisons run
//! through the faulty FPU.

use crate::doubly_stochastic::DoublyStochasticCost;
use rand::{Rng, RngExt};
use robustify_core::{CoreError, PenaltyKind, RobustProblem, SolverSpec, Verdict};
use robustify_linalg::Matrix;
use stochastic_fpu::{Fpu, FpuExt};

/// Sorts by quicksort (Hoare partition), with every comparison executed as
/// an FPU subtraction — the fault-exposed baseline for Figure 6.1 (the
/// paper used the C++ STL sort).
///
/// # Examples
///
/// ```
/// use robustify_apps::sorting::quicksort_baseline;
/// use stochastic_fpu::ReliableFpu;
///
/// let sorted = quicksort_baseline(&mut ReliableFpu::new(), &[3.0, 1.0, 2.0]);
/// assert_eq!(sorted, vec![1.0, 2.0, 3.0]);
/// ```
pub fn quicksort_baseline<F: Fpu>(fpu: &mut F, data: &[f64]) -> Vec<f64> {
    let mut out = data.to_vec();
    if out.len() > 1 {
        quicksort_inner(fpu, &mut out, 0);
    }
    out
}

fn quicksort_inner<F: Fpu>(fpu: &mut F, data: &mut [f64], depth: usize) {
    let n = data.len();
    if n <= 1 {
        return;
    }
    // Depth guard: corrupted comparisons can defeat the divide-and-conquer
    // progress argument; fall back to insertion sort rather than recurse
    // forever (std::sort's introsort does the same against adversarial
    // pivots).
    if depth > 2 * 64 {
        insertion_inner(fpu, data);
        return;
    }
    let pivot = data[n / 2];
    let (mut i, mut j) = (0usize, n - 1);
    loop {
        while fpu.lt(data[i], pivot) && i < n - 1 {
            i += 1;
        }
        while fpu.gt(data[j], pivot) && j > 0 {
            j -= 1;
        }
        if i >= j {
            break;
        }
        data.swap(i, j);
        i += 1;
        j = j.saturating_sub(1);
    }
    let split = (j + 1).clamp(1, n - 1);
    let (left, right) = data.split_at_mut(split);
    quicksort_inner(fpu, left, depth + 1);
    quicksort_inner(fpu, right, depth + 1);
}

/// Sorts by top-down merge sort with FPU comparisons — the alternative
/// recursive baseline the paper names.
///
/// # Examples
///
/// ```
/// use robustify_apps::sorting::mergesort_baseline;
/// use stochastic_fpu::ReliableFpu;
///
/// let sorted = mergesort_baseline(&mut ReliableFpu::new(), &[3.0, 1.0, 2.0]);
/// assert_eq!(sorted, vec![1.0, 2.0, 3.0]);
/// ```
pub fn mergesort_baseline<F: Fpu>(fpu: &mut F, data: &[f64]) -> Vec<f64> {
    let n = data.len();
    if n <= 1 {
        return data.to_vec();
    }
    let mid = n / 2;
    let left = mergesort_baseline(fpu, &data[..mid]);
    let right = mergesort_baseline(fpu, &data[mid..]);
    let mut out = Vec::with_capacity(n);
    let (mut i, mut j) = (0, 0);
    while i < left.len() && j < right.len() {
        if fpu.le(left[i], right[j]) {
            out.push(left[i]);
            i += 1;
        } else {
            out.push(right[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&left[i..]);
    out.extend_from_slice(&right[j..]);
    out
}

/// Sorts by insertion sort with FPU comparisons.
///
/// # Examples
///
/// ```
/// use robustify_apps::sorting::insertion_baseline;
/// use stochastic_fpu::ReliableFpu;
///
/// let sorted = insertion_baseline(&mut ReliableFpu::new(), &[2.0, 1.0]);
/// assert_eq!(sorted, vec![1.0, 2.0]);
/// ```
pub fn insertion_baseline<F: Fpu>(fpu: &mut F, data: &[f64]) -> Vec<f64> {
    let mut out = data.to_vec();
    insertion_inner(fpu, &mut out);
    out
}

fn insertion_inner<F: Fpu>(fpu: &mut F, data: &mut [f64]) {
    for i in 1..data.len() {
        let mut j = i;
        while j > 0 && fpu.gt(data[j - 1], data[j]) {
            data.swap(j - 1, j);
            j -= 1;
        }
    }
}

/// A sorting problem robustified as the LP (4.3) over doubly stochastic
/// matrices.
///
/// # Examples
///
/// ```
/// use robustify_apps::sorting::SortProblem;
/// use robustify_core::{RobustProblem, SolverSpec, StepSchedule};
/// use stochastic_fpu::ReliableFpu;
///
/// # fn main() -> Result<(), robustify_core::CoreError> {
/// let problem = SortProblem::new(vec![3.0, 1.0, 2.0])?;
/// let spec = SolverSpec::sgd(2000, StepSchedule::Sqrt { gamma0: 0.05 });
/// let sorted = problem.solve(&spec, &mut ReliableFpu::new())?.solution;
/// assert_eq!(sorted, Some(vec![1.0, 2.0, 3.0]));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SortProblem {
    u: Vec<f64>,
}

impl SortProblem {
    /// Default non-negativity penalty weight `μ₁`.
    pub const DEFAULT_MU1: f64 = 8.0;
    /// Default row/column-sum penalty weight `μ₂`.
    pub const DEFAULT_MU2: f64 = 8.0;

    /// Creates a sorting problem for the array `u`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `u` is empty or contains
    /// non-finite values.
    pub fn new(u: Vec<f64>) -> Result<Self, CoreError> {
        if u.is_empty() {
            return Err(CoreError::invalid_config("cannot sort an empty array"));
        }
        if u.iter().any(|v| !v.is_finite()) {
            return Err(CoreError::invalid_config("array entries must be finite"));
        }
        Ok(SortProblem { u })
    }

    /// Generates a random array of `n` distinct-ish values in `[-10, 10)`.
    pub fn random<R: Rng>(rng: &mut R, n: usize) -> Self {
        let u = (0..n).map(|_| rng.random_range(-10.0..10.0)).collect();
        Self::new(u).expect("generated entries are finite")
    }

    /// The input array.
    pub fn input(&self) -> &[f64] {
        &self.u
    }

    /// Array length `n`.
    pub fn len(&self) -> usize {
        self.u.len()
    }

    /// Whether the array is empty (never true for a constructed problem).
    pub fn is_empty(&self) -> bool {
        self.u.is_empty()
    }

    /// The penalized cost (paper eq. 4.4) with payoff `Pᵢⱼ = vᵢ ũⱼ`,
    /// `v = [1 … n]/n`.
    ///
    /// `ũ` is the input normalized affinely into `[0.1, 1.1]`. Sorting is
    /// invariant under positive affine maps, and the normalization matters
    /// for correctness, not just step-size transfer: the LP (4.3) uses
    /// `≤ 1` row/column constraints, so a *non-positive* payoff column
    /// would simply never be assigned — the relaxation only recovers the
    /// permutation when every assignment carries positive payoff.
    pub fn robust_cost(&self, mu1: f64, mu2: f64, kind: PenaltyKind) -> DoublyStochasticCost {
        let n = self.len();
        let min = self.u.iter().fold(f64::INFINITY, |m, &v| m.min(v));
        let max = self.u.iter().fold(f64::NEG_INFINITY, |m, &v| m.max(v));
        let range = (max - min).max(1e-12);
        let payoff = Matrix::from_fn(n, n, |i, j| {
            // detlint::allow(fpu-routing, reason = "payoff-matrix construction is reliable problem setup")
            let scaled = (self.u[j] - min) / range + 0.1;
            (i + 1) as f64 / n as f64 * scaled
        });
        DoublyStochasticCost::new(payoff, mu1, mu2, kind)
            .expect("default penalty weights are valid")
    }

    /// Decodes a relaxed `X` into an output array: greedy assignment, then
    /// the permutation is applied to the original values natively (the
    /// decode is a protected control step). Rows of `X` index *positions*,
    /// columns index *source elements*; unassigned positions (possible under
    /// heavy corruption) are filled with the unused elements in input order,
    /// producing a wrong-but-well-formed output.
    pub fn decode(&self, cost: &DoublyStochasticCost, x: &[f64]) -> Vec<f64> {
        let n = self.len();
        let pairs = cost.decode_assignment(x, 0.25);
        let mut out = vec![f64::NAN; n];
        let mut used = vec![false; n];
        for &(pos, src) in &pairs {
            out[pos] = self.u[src];
            used[src] = true;
        }
        let mut leftovers = (0..n).filter(|&j| !used[j]);
        for slot in out.iter_mut() {
            if slot.is_nan() {
                let j = leftovers.next().expect("one leftover per unassigned slot");
                *slot = self.u[j];
            }
        }
        out
    }

    /// The exact ascending sort (native; the ground truth).
    pub fn sorted_reference(&self) -> Vec<f64> {
        let mut s = self.u.clone();
        s.sort_by(|a, b| a.partial_cmp(b).expect("entries are finite"));
        s
    }

    /// The paper's success criterion: "the percentage of outputs where the
    /// entire array is sorted correctly (any undetermined entries (NaNs),
    /// wrongly sorted number, etc., is considered a failure)".
    pub fn is_success(&self, output: &[f64]) -> bool {
        if output.len() != self.len() {
            return false;
        }
        if output.iter().any(|v| !v.is_finite()) {
            return false;
        }
        output
            .iter()
            .zip(self.sorted_reference())
            .all(|(&a, b)| a == b)
    }
}

impl RobustProblem for SortProblem {
    type Solution = Vec<f64>;
    type Cost = DoublyStochasticCost;

    fn name(&self) -> &'static str {
        "sorting"
    }

    fn cost(&self) -> Self::Cost {
        self.robust_cost(Self::DEFAULT_MU1, Self::DEFAULT_MU2, PenaltyKind::Squared)
    }

    fn initial_iterate<F: Fpu>(&self, cost: &Self::Cost, _fpu: &mut F) -> Vec<f64> {
        cost.initial_iterate()
    }

    fn decode(&self, cost: &Self::Cost, x: &[f64]) -> Vec<f64> {
        SortProblem::decode(self, cost, x)
    }

    /// Success is the paper's strict criterion
    /// ([`is_success`](SortProblem::is_success)); the metric is the
    /// fraction of misplaced positions (0 on success, `∞` on malformed
    /// output).
    fn verify(&self, solution: &Vec<f64>) -> Verdict {
        let reference = self.sorted_reference();
        if solution.len() != reference.len() || solution.iter().any(|v| !v.is_finite()) {
            return Verdict::breakdown();
        }
        let misplaced = solution
            .iter()
            .zip(&reference)
            .filter(|(a, b)| a != b)
            .count();
        Verdict {
            success: misplaced == 0,
            metric: misplaced as f64 / reference.len() as f64,
        }
    }

    /// Baseline variants: `quicksort` (default), `mergesort`, `insertion`.
    fn baseline<F: Fpu>(&self, spec: &SolverSpec, fpu: &mut F) -> Option<Vec<f64>> {
        match spec.variant.as_deref() {
            None | Some("quicksort") => Some(quicksort_baseline(fpu, &self.u)),
            Some("mergesort") => Some(mergesort_baseline(fpu, &self.u)),
            Some("insertion") => Some(insertion_baseline(fpu, &self.u)),
            Some(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use robustify_core::StepSchedule;
    use stochastic_fpu::{BitFaultModel, FaultRate, NoisyFpu, ReliableFpu};

    #[test]
    fn baselines_sort_reliably() {
        let data = [5.0, -1.0, 3.5, 0.0, 2.0, 2.0, -7.0];
        let expected = {
            let mut d = data.to_vec();
            d.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            d
        };
        let mut fpu = ReliableFpu::new();
        assert_eq!(quicksort_baseline(&mut fpu, &data), expected);
        assert_eq!(mergesort_baseline(&mut fpu, &data), expected);
        assert_eq!(insertion_baseline(&mut fpu, &data), expected);
    }

    #[test]
    fn baselines_handle_degenerate_inputs() {
        let mut fpu = ReliableFpu::new();
        assert_eq!(quicksort_baseline(&mut fpu, &[]), Vec::<f64>::new());
        assert_eq!(quicksort_baseline(&mut fpu, &[1.0]), vec![1.0]);
        assert_eq!(mergesort_baseline(&mut fpu, &[2.0, 2.0]), vec![2.0, 2.0]);
    }

    #[test]
    fn baselines_terminate_under_heavy_faults() {
        let mut rng = StdRng::seed_from_u64(1);
        for seed in 0..30 {
            let p = SortProblem::random(&mut rng, 16);
            let mut fpu = NoisyFpu::new(FaultRate::per_flop(0.5), BitFaultModel::emulated(), seed);
            let out = quicksort_baseline(&mut fpu, p.input());
            assert_eq!(out.len(), 16);
            let out = mergesort_baseline(&mut fpu, p.input());
            assert_eq!(out.len(), 16);
        }
    }

    #[test]
    fn baseline_output_is_a_permutation_even_when_wrong() {
        // Comparisons fault but data moves are exact, so the multiset of
        // values must be preserved.
        let p = SortProblem::random(&mut StdRng::seed_from_u64(2), 8);
        let mut fpu = NoisyFpu::new(FaultRate::per_flop(0.3), BitFaultModel::emulated(), 9);
        let mut out = quicksort_baseline(&mut fpu, p.input());
        let mut input = p.input().to_vec();
        out.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        input.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        assert_eq!(out, input);
    }

    #[test]
    fn robust_sort_succeeds_reliably() {
        let p = SortProblem::new(vec![4.0, -2.0, 9.0, 0.5, 1.0]).expect("finite entries");
        let spec = SolverSpec::sgd(3000, StepSchedule::Sqrt { gamma0: 0.05 });
        let out = p
            .solve(&spec, &mut ReliableFpu::new())
            .expect("sgd is supported");
        let sorted = out.solution.expect("sgd decodes");
        assert!(p.is_success(&sorted), "output {sorted:?}");
        assert!(out.report.expect("sgd reports").flops > 0);
    }

    #[test]
    fn robust_sort_survives_moderate_faults() {
        let mut successes = 0;
        for seed in 0..10 {
            let p = SortProblem::new(vec![4.0, -2.0, 9.0, 0.5, 1.0]).expect("finite entries");
            let spec = SolverSpec::sgd(4000, StepSchedule::Sqrt { gamma0: 0.05 })
                .with_aggressive_stepping(Default::default());
            let mut fpu = NoisyFpu::new(FaultRate::per_flop(0.02), BitFaultModel::emulated(), seed);
            if p.run_trial(&spec, &mut fpu).success {
                successes += 1;
            }
        }
        assert!(
            successes >= 7,
            "only {successes}/10 robust sorts succeeded at 2%"
        );
    }

    #[test]
    fn decode_fills_unassigned_slots() {
        let p = SortProblem::new(vec![10.0, 20.0, 30.0]).expect("finite entries");
        let cost = p.robust_cost(1.0, 1.0, PenaltyKind::Squared);
        // Only position 1 <- source 2 is confidently assigned.
        let mut x = vec![0.0; 9];
        x[3 + 2] = 0.9;
        let out = p.decode(&cost, &x);
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|v| v.is_finite()));
        assert_eq!(out[1], 30.0);
        // The remaining values appear exactly once each.
        let mut rest: Vec<f64> = vec![out[0], out[2]];
        rest.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        assert_eq!(rest, vec![10.0, 20.0]);
    }

    #[test]
    fn success_criterion_is_strict() {
        let p = SortProblem::new(vec![2.0, 1.0]).expect("finite entries");
        assert!(p.is_success(&[1.0, 2.0]));
        assert!(!p.is_success(&[2.0, 1.0]));
        assert!(!p.is_success(&[1.0, f64::NAN]));
        assert!(!p.is_success(&[1.0]));
    }

    #[test]
    fn constructors_validate() {
        assert!(SortProblem::new(vec![]).is_err());
        assert!(SortProblem::new(vec![1.0, f64::INFINITY]).is_err());
    }

    #[test]
    fn robust_problem_trait_round_trip() {
        let p = SortProblem::new(vec![4.0, -2.0, 9.0]).expect("finite entries");
        let spec = SolverSpec::sgd(3000, StepSchedule::Sqrt { gamma0: 0.05 });
        let out = p
            .solve(&spec, &mut ReliableFpu::new())
            .expect("sgd is supported");
        let verdict = p.verify(&out.solution.expect("sgd decodes"));
        assert!(verdict.success);
        assert_eq!(verdict.metric, 0.0);
        assert_eq!(p.sorted_reference(), vec![-2.0, 4.0, 9.0]);

        let baseline = p
            .baseline(
                &SolverSpec::baseline_variant("mergesort"),
                &mut ReliableFpu::new(),
            )
            .expect("mergesort is a known variant");
        assert_eq!(baseline, p.sorted_reference());
        assert!(p
            .baseline(
                &SolverSpec::baseline_variant("bogus"),
                &mut ReliableFpu::new()
            )
            .is_none());
    }

    #[test]
    fn verify_grades_partial_orderings() {
        let p = SortProblem::new(vec![2.0, 1.0, 3.0]).expect("finite entries");
        let wrong = p.verify(&vec![2.0, 1.0, 3.0]);
        assert!(!wrong.success);
        assert!((wrong.metric - 2.0 / 3.0).abs() < 1e-12);
        assert!(!p.verify(&vec![1.0, f64::NAN, 3.0]).success);
    }
}
