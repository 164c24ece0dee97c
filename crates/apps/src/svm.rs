//! Support vector machine fitting (§4.7, "other numerical problems"):
//! "many data fitting problems, like fitting support vector machines
//! (SVM), are defined as variational problems, and efficient stochastic
//! gradient algorithms for them already exist."
//!
//! A linear soft-margin SVM is already in the unconstrained variational
//! form the methodology needs:
//!
//! ```text
//! f(w, b) = λ/2 ‖w‖² + (1/m) Σᵢ [1 − yᵢ (w·xᵢ + b)]₊
//! ```
//!
//! so robustification is direct: evaluate the subgradient through the
//! faulty FPU and descend. On a stochastic processor the *training* data
//! never changes — the processor itself supplies the stochasticity that
//! mini-batching supplies in Pegasos-style solvers.

use rand::{Rng, RngExt};
use robustify_core::{CoreError, CostFunction, RobustProblem, Verdict};
use stochastic_fpu::{Fpu, FpuExt, ReliableFpu};

/// A binary classification dataset with `±1` labels.
///
/// # Examples
///
/// ```
/// use robustify_apps::svm::Dataset;
///
/// # fn main() -> Result<(), robustify_core::CoreError> {
/// let data = Dataset::new(vec![vec![0.0, 1.0], vec![1.0, 0.0]], vec![1.0, -1.0])?;
/// assert_eq!(data.len(), 2);
/// assert_eq!(data.features(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    points: Vec<Vec<f64>>,
    labels: Vec<f64>,
}

impl Dataset {
    /// Creates a dataset from feature vectors and `±1` labels.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the dataset is empty, rows
    /// have unequal lengths, a feature is non-finite, or a label is not
    /// `±1`.
    pub fn new(points: Vec<Vec<f64>>, labels: Vec<f64>) -> Result<Self, CoreError> {
        if points.is_empty() || points.len() != labels.len() {
            return Err(CoreError::invalid_config(
                "need an equal, positive number of points and labels",
            ));
        }
        let d = points[0].len();
        if d == 0 {
            return Err(CoreError::invalid_config(
                "points must have at least one feature",
            ));
        }
        for p in &points {
            if p.len() != d {
                return Err(CoreError::invalid_config(
                    "points must have equal dimensions",
                ));
            }
            if p.iter().any(|v| !v.is_finite()) {
                return Err(CoreError::invalid_config("features must be finite"));
            }
        }
        if labels.iter().any(|&y| y != 1.0 && y != -1.0) {
            return Err(CoreError::invalid_config("labels must be +1 or -1"));
        }
        Ok(Dataset { points, labels })
    }

    /// Generates two linearly separable blobs of `per_class` points each in
    /// `dim` dimensions, centred at `±center` along every axis with uniform
    /// jitter of `±spread`.
    ///
    /// # Panics
    ///
    /// Panics if `per_class == 0`, `dim == 0`, or `spread >= center`
    /// (the blobs would overlap).
    pub fn separable_blobs<R: Rng>(
        rng: &mut R,
        per_class: usize,
        dim: usize,
        center: f64,
        spread: f64,
    ) -> Self {
        assert!(per_class > 0 && dim > 0, "need a positive dataset size");
        assert!(
            spread < center,
            "spread {spread} must be below center {center}"
        );
        let mut points = Vec::with_capacity(2 * per_class);
        let mut labels = Vec::with_capacity(2 * per_class);
        for &sign in &[1.0f64, -1.0] {
            for _ in 0..per_class {
                points.push(
                    (0..dim)
                        .map(|_| sign * center + rng.random_range(-spread..spread))
                        .collect(),
                );
                labels.push(sign);
            }
        }
        Self::new(points, labels).expect("generated data is well formed")
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the dataset is empty (never true for a constructed value).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Feature dimension.
    pub fn features(&self) -> usize {
        self.points[0].len()
    }

    /// The feature vectors.
    pub fn points(&self) -> &[Vec<f64>] {
        &self.points
    }

    /// The labels.
    pub fn labels(&self) -> &[f64] {
        &self.labels
    }
}

/// The soft-margin linear SVM objective over `(w, b)` (flattened as
/// `[w..., b]`), with hinge-loss subgradients evaluated through the FPU.
///
/// # Examples
///
/// ```
/// use robustify_apps::svm::{Dataset, SvmCost};
/// use robustify_core::CostFunction;
/// use stochastic_fpu::ReliableFpu;
///
/// # fn main() -> Result<(), robustify_core::CoreError> {
/// let data = Dataset::new(vec![vec![2.0], vec![-2.0]], vec![1.0, -1.0])?;
/// let cost = SvmCost::new(data, 0.1)?;
/// // w = 1, b = 0 classifies both points with margin 2: no hinge loss.
/// let f = cost.cost(&[1.0, 0.0], &mut ReliableFpu::new());
/// assert!((f - 0.05).abs() < 1e-12); // just the λ/2 ‖w‖² term
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SvmCost {
    data: Dataset,
    lambda: f64,
}

impl SvmCost {
    /// Creates the objective with regularization weight `lambda`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `lambda` is not positive and
    /// finite.
    pub fn new(data: Dataset, lambda: f64) -> Result<Self, CoreError> {
        if !lambda.is_finite() || lambda <= 0.0 {
            return Err(CoreError::invalid_config(format!(
                "regularization weight must be positive and finite, got {lambda}"
            )));
        }
        Ok(SvmCost { data, lambda })
    }

    /// The dataset.
    pub fn data(&self) -> &Dataset {
        &self.data
    }

    /// The regularization weight `λ`.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// The margin `yᵢ (w·xᵢ + b)` of point `i` through the FPU.
    fn margin<F: Fpu>(&self, i: usize, wb: &[f64], fpu: &mut F) -> f64 {
        let d = self.data.features();
        // Bias-initialized batched dot `b + w·xᵢ` (bit-identical to the
        // per-op loop it replaces).
        let score = fpu.gemv_row(wb[d], &wb[..d], &self.data.points[i]);
        fpu.mul(self.data.labels[i], score)
    }
}

impl CostFunction for SvmCost {
    fn dim(&self) -> usize {
        self.data.features() + 1
    }

    fn cost<F: Fpu>(&self, wb: &[f64], fpu: &mut F) -> f64 {
        assert_eq!(
            wb.len(),
            self.dim(),
            "parameter vector has the wrong dimension"
        );
        let d = self.data.features();
        let wsq = robustify_linalg::norm2_sq(fpu, &wb[..d]);
        // detlint::allow(fpu-routing, reason = "0.5*lambda is a constant fold; the norm FLOPs route through the Fpu")
        let mut total = fpu.mul(0.5 * self.lambda, wsq);
        // detlint::allow(fpu-routing, reason = "1/m is a setup-time constant")
        let inv_m = 1.0 / self.data.len() as f64;
        for i in 0..self.data.len() {
            let m = self.margin(i, wb, fpu);
            let hinge = fpu.sub(1.0, m).max(0.0);
            if hinge > 0.0 {
                let h = fpu.mul(inv_m, hinge);
                total = fpu.add(total, h);
            }
        }
        total
    }

    fn gradient<F: Fpu>(&self, wb: &[f64], fpu: &mut F, grad: &mut [f64]) {
        assert_eq!(
            wb.len(),
            self.dim(),
            "parameter vector has the wrong dimension"
        );
        let d = self.data.features();
        // grad = λ·w, batched (the copy is data movement, not a FLOP).
        grad[..d].copy_from_slice(&wb[..d]);
        fpu.scale_batch(self.lambda, &mut grad[..d]);
        grad[d] = 0.0;
        // detlint::allow(fpu-routing, reason = "1/m is a setup-time constant")
        let inv_m = 1.0 / self.data.len() as f64;
        for i in 0..self.data.len() {
            let m = self.margin(i, wb, fpu);
            // Subgradient of [1 − m]₊: active when m < 1.
            if fpu.lt(m, 1.0) {
                let coef = -self.data.labels[i] * inv_m;
                fpu.axpy_batch(coef, &self.data.points[i], &mut grad[..d]);
                grad[d] = fpu.add(grad[d], coef);
            }
        }
    }
}

/// An SVM training problem with robust (noisy-FPU) solving and reliable
/// reference scoring.
///
/// # Examples
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use robustify_apps::svm::{Dataset, SvmProblem};
/// use robustify_core::{RobustProblem, SolverSpec, StepSchedule};
/// use stochastic_fpu::ReliableFpu;
///
/// # fn main() -> Result<(), robustify_core::CoreError> {
/// let data = Dataset::separable_blobs(&mut StdRng::seed_from_u64(1), 20, 3, 2.0, 0.8);
/// let problem = SvmProblem::new(data, 0.01)?;
/// let spec = SolverSpec::sgd(2000, StepSchedule::Sqrt { gamma0: 0.5 });
/// let wb = problem.solve(&spec, &mut ReliableFpu::new())?.solution.expect("sgd decodes");
/// assert_eq!(problem.accuracy(&wb), 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SvmProblem {
    cost: SvmCost,
}

impl SvmProblem {
    /// Creates the training problem.
    ///
    /// # Errors
    ///
    /// Propagates [`SvmCost::new`] validation errors.
    pub fn new(data: Dataset, lambda: f64) -> Result<Self, CoreError> {
        Ok(SvmProblem {
            cost: SvmCost::new(data, lambda)?,
        })
    }

    /// The underlying objective.
    pub fn cost(&self) -> &SvmCost {
        &self.cost
    }

    /// Training accuracy of `wb` in `[0, 1]`, scored reliably (the decode
    /// step). Non-finite parameters score `0`.
    pub fn accuracy(&self, wb: &[f64]) -> f64 {
        if wb.iter().any(|v| !v.is_finite()) {
            return 0.0;
        }
        let mut fpu = ReliableFpu::new();
        let data = self.cost.data();
        let correct = (0..data.len())
            .filter(|&i| {
                let m = self.cost.margin(i, wb, &mut fpu);
                m > 0.0
            })
            .count();
        correct as f64 / data.len() as f64
    }
}

impl RobustProblem for SvmProblem {
    type Solution = Vec<f64>;
    type Cost = SvmCost;

    fn name(&self) -> &'static str {
        "svm"
    }

    fn cost(&self) -> Self::Cost {
        self.cost.clone()
    }

    fn decode(&self, _cost: &Self::Cost, x: &[f64]) -> Vec<f64> {
        x.to_vec()
    }

    /// The metric is the misclassification fraction `1 − accuracy`;
    /// success requires at least 95% training accuracy.
    fn verify(&self, solution: &Vec<f64>) -> Verdict {
        // detlint::allow(fpu-routing, reason = "accuracy threshold is reliable verification arithmetic")
        Verdict::from_metric(1.0 - self.accuracy(solution), 0.05)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use robustify_core::{SolverSpec, StepSchedule};
    use stochastic_fpu::{BitFaultModel, FaultRate, NoisyFpu};

    fn blobs(seed: u64) -> Dataset {
        Dataset::separable_blobs(&mut StdRng::seed_from_u64(seed), 25, 4, 2.0, 0.9)
    }

    #[test]
    fn dataset_validation() {
        assert!(Dataset::new(vec![], vec![]).is_err());
        assert!(Dataset::new(vec![vec![1.0]], vec![2.0]).is_err());
        assert!(Dataset::new(vec![vec![1.0], vec![1.0, 2.0]], vec![1.0, -1.0]).is_err());
        assert!(Dataset::new(vec![vec![f64::NAN]], vec![1.0]).is_err());
        assert!(Dataset::new(vec![vec![]], vec![1.0]).is_err());
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let cost = SvmCost::new(blobs(1), 0.05).expect("valid lambda");
        let wb: Vec<f64> = (0..5).map(|i| 0.2 * (i as f64 - 2.0)).collect();
        let mut fpu = ReliableFpu::new();
        let mut grad = vec![0.0; 5];
        cost.gradient(&wb, &mut fpu, &mut grad);
        let h = 1e-6;
        for i in 0..5 {
            let mut p = wb.clone();
            let mut m = wb.clone();
            p[i] += h;
            m[i] -= h;
            let fd = (cost.cost(&p, &mut fpu) - cost.cost(&m, &mut fpu)) / (2.0 * h);
            assert!((grad[i] - fd).abs() < 1e-4 * (1.0 + fd.abs()), "lane {i}");
        }
    }

    #[test]
    fn separable_data_reaches_full_accuracy_reliably() {
        let problem = SvmProblem::new(blobs(2), 0.01).expect("valid lambda");
        let spec = SolverSpec::sgd(3000, StepSchedule::Sqrt { gamma0: 0.5 });
        let wb = problem
            .solve(&spec, &mut ReliableFpu::new())
            .expect("sgd is supported")
            .solution
            .expect("sgd decodes");
        assert_eq!(problem.accuracy(&wb), 1.0);
    }

    #[test]
    fn training_survives_moderate_faults() {
        let problem = SvmProblem::new(blobs(3), 0.01).expect("valid lambda");
        let mut total = 0.0;
        let runs = 5;
        for seed in 0..runs {
            let spec = SolverSpec::sgd(3000, StepSchedule::Sqrt { gamma0: 0.5 });
            let mut fpu = NoisyFpu::new(FaultRate::per_flop(0.02), BitFaultModel::emulated(), seed);
            let wb = problem
                .solve(&spec, &mut fpu)
                .expect("sgd is supported")
                .solution
                .expect("sgd decodes");
            total += problem.accuracy(&wb);
        }
        assert!(
            total / runs as f64 > 0.9,
            "mean accuracy {}",
            total / runs as f64
        );
    }

    #[test]
    fn accuracy_handles_degenerate_parameters() {
        let problem = SvmProblem::new(blobs(4), 0.01).expect("valid lambda");
        assert_eq!(problem.accuracy(&[f64::NAN; 5]), 0.0);
        // The zero vector classifies nothing correctly (margin 0 is wrong).
        assert_eq!(problem.accuracy(&[0.0; 5]), 0.0);
    }

    #[test]
    fn lambda_validation() {
        assert!(SvmCost::new(blobs(5), 0.0).is_err());
        assert!(SvmCost::new(blobs(5), f64::NAN).is_err());
    }

    #[test]
    #[should_panic(expected = "spread")]
    fn overlapping_blobs_rejected() {
        Dataset::separable_blobs(&mut StdRng::seed_from_u64(1), 5, 2, 1.0, 2.0);
    }
}
