//! The variational interface: cost functions with FPU-routed gradients.

use crate::error::CoreError;
use robustify_linalg::{LinearOperator, Matrix};
use stochastic_fpu::Fpu;

/// A cost function `f : Rᵈ → R` whose minimizer encodes an application's
/// output.
///
/// The gradient (or a subgradient, for non-smooth penalties) is evaluated
/// *through the FPU passed in*, so when the FPU injects faults the solver
/// observes a noisy gradient — the paper's model of a stochastic processor.
/// Everything else a solver does (step sizes, iterate updates, convergence
/// tests) is assumed protected and uses native arithmetic.
///
/// Implementors whose cost contains penalty terms can override
/// [`anneal`](CostFunction::anneal) to let [`run_sgd`](crate::run_sgd)
/// periodically increase the penalty parameter (§6.2.4 of the paper).
pub trait CostFunction {
    /// Dimension `d` of the search space.
    fn dim(&self) -> usize;

    /// Evaluates `f(x)` through the FPU.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `x.len() != self.dim()`.
    fn cost<F: Fpu>(&self, x: &[f64], fpu: &mut F) -> f64;

    /// Writes a (sub)gradient of `f` at `x` into `grad` through the FPU.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `x.len()` or `grad.len()` differ from
    /// `self.dim()`.
    fn gradient<F: Fpu>(&self, x: &[f64], fpu: &mut F, grad: &mut [f64]);

    /// Scales any penalty parameters by `factor` (no-op by default).
    fn anneal(&mut self, factor: f64) {
        let _ = factor;
    }
}

/// The least squares residual cost `f(x) = ‖A x − b‖²` with gradient
/// `∇f(x) = 2 Aᵀ (A x − b)` — the paper's §4.1 transformation.
///
/// Generic over the matrix backend ([`LinearOperator`]): dense
/// [`Matrix`] is the default, and sparse systems plug in a
/// [`CsrMatrix`](robustify_linalg::CsrMatrix) unchanged.
///
/// # Examples
///
/// ```
/// use robustify_core::{CostFunction, QuadraticResidualCost};
/// use robustify_linalg::Matrix;
/// use stochastic_fpu::ReliableFpu;
///
/// # fn main() -> Result<(), robustify_core::CoreError> {
/// let cost = QuadraticResidualCost::new(Matrix::identity(2), vec![1.0, 2.0])?;
/// let mut fpu = ReliableFpu::new();
/// assert_eq!(cost.cost(&[1.0, 2.0], &mut fpu), 0.0);
/// let mut g = [0.0; 2];
/// cost.gradient(&[2.0, 2.0], &mut fpu, &mut g);
/// assert_eq!(g, [2.0, 0.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuadraticResidualCost<M: LinearOperator = Matrix> {
    a: M,
    b: Vec<f64>,
}

impl<M: LinearOperator> QuadraticResidualCost<M> {
    /// Creates the cost for the system `(A, b)`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DimensionMismatch`] if `b.len() != a.rows()`.
    pub fn new(a: M, b: Vec<f64>) -> Result<Self, CoreError> {
        if b.len() != a.rows() {
            return Err(CoreError::shape(
                format!("rhs of length {}", a.rows()),
                format!("length {}", b.len()),
            ));
        }
        Ok(QuadraticResidualCost { a, b })
    }

    /// The system matrix.
    pub fn a(&self) -> &M {
        &self.a
    }

    /// The right-hand side.
    pub fn b(&self) -> &[f64] {
        &self.b
    }

    /// The residual `A x − b` through the FPU.
    pub fn residual<F: Fpu>(&self, x: &[f64], fpu: &mut F) -> Vec<f64> {
        let mut r = self.a.matvec(fpu, x).expect("x has dim() entries");
        fpu.sub_assign_batch(&self.b, &mut r);
        r
    }
}

impl<M: LinearOperator> CostFunction for QuadraticResidualCost<M> {
    fn dim(&self) -> usize {
        self.a.cols()
    }

    fn cost<F: Fpu>(&self, x: &[f64], fpu: &mut F) -> f64 {
        let r = self.residual(x, fpu);
        robustify_linalg::norm2_sq(fpu, &r)
    }

    fn gradient<F: Fpu>(&self, x: &[f64], fpu: &mut F, grad: &mut [f64]) {
        let r = self.residual(x, fpu);
        let atr = self
            .a
            .matvec_t(fpu, &r)
            .expect("residual has rows() entries");
        // grad = 2·Aᵀr, batched (the copy is data movement, not a FLOP).
        grad.copy_from_slice(&atr);
        fpu.scale_batch(2.0, grad);
    }
}

/// A general quadratic `f(x) = ½ xᵀ Q x − bᵀ x` with gradient `Q x − b`.
///
/// Used for convergence-theory tests (Theorem 1 requires strong convexity,
/// i.e. positive definite `Q`) and as a building block for custom costs.
///
/// # Examples
///
/// ```
/// use robustify_core::{CostFunction, QuadraticCost};
/// use robustify_linalg::Matrix;
/// use stochastic_fpu::ReliableFpu;
///
/// # fn main() -> Result<(), robustify_core::CoreError> {
/// let cost = QuadraticCost::new(Matrix::identity(2), vec![1.0, 1.0])?;
/// let mut g = [0.0; 2];
/// cost.gradient(&[1.0, 1.0], &mut ReliableFpu::new(), &mut g);
/// assert_eq!(g, [0.0, 0.0]); // minimum at x = b
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuadraticCost {
    q: Matrix,
    b: Vec<f64>,
}

impl QuadraticCost {
    /// Creates the quadratic for symmetric `Q` and linear term `b`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DimensionMismatch`] if `q` is not square or
    /// `b.len() != q.rows()`.
    pub fn new(q: Matrix, b: Vec<f64>) -> Result<Self, CoreError> {
        if !q.is_square() {
            return Err(CoreError::shape(
                "square Q",
                format!("{}x{}", q.rows(), q.cols()),
            ));
        }
        if b.len() != q.rows() {
            return Err(CoreError::shape(
                format!("b of length {}", q.rows()),
                format!("length {}", b.len()),
            ));
        }
        Ok(QuadraticCost { q, b })
    }
}

impl CostFunction for QuadraticCost {
    fn dim(&self) -> usize {
        self.q.rows()
    }

    fn cost<F: Fpu>(&self, x: &[f64], fpu: &mut F) -> f64 {
        let qx = self.q.matvec(fpu, x).expect("x has dim() entries");
        let xqx = fpu.dot_batch(x, &qx);
        let bx = fpu.dot_batch(&self.b, x);
        let half = fpu.mul(0.5, xqx);
        fpu.sub(half, bx)
    }

    fn gradient<F: Fpu>(&self, x: &[f64], fpu: &mut F, grad: &mut [f64]) {
        let qx = self.q.matvec(fpu, x).expect("x has dim() entries");
        // grad = Qx − b as one element-wise difference kernel — the same
        // per-op expansion (`sub(qx_i, b_i)` in order) the historical
        // element loop issued.
        fpu.sub_batch(&qx, &self.b, grad);
    }
}

/// The linear objective `f(x) = cᵀ x` of a linear program.
///
/// # Examples
///
/// ```
/// use robustify_core::{CostFunction, LinearCost};
/// use stochastic_fpu::ReliableFpu;
///
/// let cost = LinearCost::new(vec![1.0, -2.0]);
/// assert_eq!(cost.cost(&[3.0, 1.0], &mut ReliableFpu::new()), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinearCost {
    c: Vec<f64>,
}

impl LinearCost {
    /// Creates the objective `cᵀ x`.
    pub fn new(c: Vec<f64>) -> Self {
        LinearCost { c }
    }

    /// The cost vector.
    pub fn c(&self) -> &[f64] {
        &self.c
    }
}

impl CostFunction for LinearCost {
    fn dim(&self) -> usize {
        self.c.len()
    }

    fn cost<F: Fpu>(&self, x: &[f64], fpu: &mut F) -> f64 {
        fpu.dot_batch(&self.c, x)
    }

    fn gradient<F: Fpu>(&self, x: &[f64], fpu: &mut F, grad: &mut [f64]) {
        let _ = (x, fpu); // the gradient of a linear function is constant
        grad.copy_from_slice(&self.c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::check_gradient;
    use stochastic_fpu::ReliableFpu;

    #[test]
    fn residual_cost_at_solution_is_zero() {
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 2.0], &[1.0, 3.0]]).expect("valid rows");
        let mut fpu = ReliableFpu::new();
        let x = [0.0, 1.0];
        let b = a.matvec(&mut fpu, &x).expect("shapes match");
        let cost = QuadraticResidualCost::new(a, b).expect("consistent shapes");
        assert!(cost.cost(&x, &mut fpu) < 1e-20);
        let mut g = [1.0; 2];
        cost.gradient(&x, &mut fpu, &mut g);
        assert!(g.iter().all(|v| v.abs() < 1e-12));
    }

    #[test]
    fn residual_cost_gradient_is_finite_difference() {
        let a = Matrix::from_rows(&[&[2.0, -1.0], &[0.5, 3.0], &[1.0, 1.0]]).expect("valid rows");
        let cost = QuadraticResidualCost::new(a, vec![1.0, -2.0, 0.5]).expect("consistent");
        check_gradient(&cost, &[0.3, -0.7]);
    }

    #[test]
    fn quadratic_cost_gradient_is_finite_difference() {
        let q = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]).expect("valid rows");
        let cost = QuadraticCost::new(q, vec![1.0, 2.0]).expect("consistent");
        check_gradient(&cost, &[0.5, -1.5]);
    }

    #[test]
    fn linear_cost_gradient_is_constant() {
        let cost = LinearCost::new(vec![1.0, -2.0, 3.0]);
        let mut g = [0.0; 3];
        cost.gradient(&[9.0, 9.0, 9.0], &mut ReliableFpu::new(), &mut g);
        assert_eq!(g, [1.0, -2.0, 3.0]);
        assert_eq!(cost.dim(), 3);
    }

    #[test]
    fn constructors_validate_shapes() {
        assert!(QuadraticResidualCost::new(Matrix::identity(2), vec![1.0]).is_err());
        assert!(QuadraticCost::new(Matrix::zeros(2, 3), vec![1.0, 1.0]).is_err());
        assert!(QuadraticCost::new(Matrix::identity(2), vec![1.0]).is_err());
    }

    #[test]
    fn default_anneal_is_noop() {
        let mut cost = LinearCost::new(vec![1.0]);
        let before = cost.clone();
        cost.anneal(10.0);
        assert_eq!(cost, before);
    }
}
