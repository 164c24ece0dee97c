//! The [`Fpu`] capability trait and its reliable / noisy implementations.
//!
//! Every numerical kernel in this workspace performs arithmetic through an
//! `Fpu` value rather than with native operators. This is the software
//! analogue of the paper's FPGA framework: the same application binary runs
//! against either an exact FPU or one whose results are stochastically
//! corrupted, and FLOPs are accounted identically in both cases so energy
//! comparisons are fair.

use crate::fault::{FaultRate, FaultStats};
use crate::lfsr::Lfsr;
use crate::memory::MemoryFaultState;
use crate::model::{FaultCtx, FaultModelSpec};

/// The product-reduction driver behind [`Fpu::gemv_row`],
/// [`Fpu::dot_batch`] and [`Fpu::dot_sub_batch`]: one chain,
/// `acc = combine(acc, mul(x[k], y[k]))` per element starting from
/// `acc = init`, where `combine` is the FPU's `add` or `sub`.
///
/// # Panics
///
/// Panics with "`kernel` operands differ in length" if the slices do.
fn reduce<F: Fpu>(
    fpu: &mut F,
    kernel: &str,
    init: f64,
    x: &[f64],
    y: &[f64],
    combine: impl Fn(&mut F, f64, f64) -> f64,
) -> f64 {
    assert!(x.len() == y.len(), "{kernel} operands differ in length");
    let mut acc = init;
    for (&a, &b) in x.iter().zip(y) {
        let p = fpu.mul(a, b);
        acc = combine(fpu, acc, p);
    }
    acc
}

/// The row-run driver behind [`Fpu::csr_matvec`] and
/// [`Fpu::csr_matvec_t`], and the only code that takes exact windows:
/// walks the CSR rows `row_ptr[i]..row_ptr[i + 1]` in order, and runs as
/// many whole rows as one [`run_exact`](Fpu::run_exact) window holds
/// natively (`native`), under one [`commit_exact`](Fpu::commit_exact).
/// The row that does not fit the window's rest goes `through` the row's
/// per-op kernel. A row of `row_flops` 0 always fits.
fn csr_row_runs<F: Fpu>(
    fpu: &mut F,
    row_ptr: &[usize],
    out: &mut [f64],
    row_flops: impl Fn(usize) -> u64,
    native: impl Fn(&mut [f64], usize),
    mut through: impl FnMut(&mut F, &mut [f64], usize),
) {
    let rows = row_ptr.len() - 1;
    let mut i = 0;
    while i < rows {
        let window = fpu.run_exact(2 * (row_ptr[rows] - row_ptr[i]) as u64);
        let mut used = 0;
        while i < rows {
            let flops = row_flops(i);
            if used + flops > window {
                break;
            }
            native(out, i);
            used += flops;
            i += 1;
        }
        fpu.commit_exact(used);
        if i < rows {
            through(fpu, out, i);
            i += 1;
        }
    }
}

/// The floating point operations an FPU executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlopOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Square root (unary; the second operand is ignored).
    Sqrt,
}

impl FlopOp {
    /// Computes the exact IEEE-754 result of the operation.
    pub fn exact(self, a: f64, b: f64) -> f64 {
        match self {
            FlopOp::Add => a + b,
            FlopOp::Sub => a - b,
            FlopOp::Mul => a * b,
            FlopOp::Div => a / b,
            FlopOp::Sqrt => a.sqrt(),
        }
    }

    /// Stable lower-case name used by fault-model serializations.
    pub fn name(self) -> &'static str {
        match self {
            FlopOp::Add => "add",
            FlopOp::Sub => "sub",
            FlopOp::Mul => "mul",
            FlopOp::Div => "div",
            FlopOp::Sqrt => "sqrt",
        }
    }

    /// The inverse of [`name`](Self::name), for spec parsers.
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "add" => FlopOp::Add,
            "sub" => FlopOp::Sub,
            "mul" => FlopOp::Mul,
            "div" => FlopOp::Div,
            "sqrt" => FlopOp::Sqrt,
            _ => return None,
        })
    }
}

/// A floating point unit: the single point through which all data-plane
/// arithmetic flows.
///
/// Implementations count FLOPs and may corrupt results. The *control plane*
/// of an optimizer (step-size logic, convergence tests, decode steps) uses
/// native arithmetic instead, mirroring the paper's assumption that those
/// phases are protected.
///
/// # Slice kernels and exact windows
///
/// Every provided slice kernel documents its exact per-op expansion and
/// FLOP count, and the element-wise kernels ([`axpy_batch`](Self::axpy_batch),
/// [`scale_batch`](Self::scale_batch), …) and the reductions
/// ([`dot_batch`](Self::dot_batch), [`gemv_row`](Self::gemv_row), …) run
/// exactly that expansion through [`execute`](Self::execute), one
/// operation at a time.
///
/// The CSR products ([`csr_matvec`](Self::csr_matvec),
/// [`csr_matvec_t`](Self::csr_matvec_t)) are the one exception. The
/// paper's injector draws the *interval between* faults from an LFSR, so
/// an FPU knows exactly how many upcoming FLOPs are guaranteed exact; the
/// [`run_exact`](Self::run_exact) / [`commit_exact`](Self::commit_exact)
/// pair exposes that window, and a CSR product runs each run of whole
/// rows the window holds as a native `f64` loop, accounted with one
/// `commit_exact` bump, and the row a window ends in per op. The result
/// is **bit-identical** to the per-op expansion: same results, same FLOP
/// count, same LFSR draw sequence, same strike indices, same fault
/// statistics. Implementors supply `run_exact`/`commit_exact`; the row-run
/// driver lives once in this module, and the `robustify_linalg` sparse
/// identity tests pin the equivalence for every shipped fault-model spec.
///
/// # Examples
///
/// ```
/// use stochastic_fpu::{Fpu, ReliableFpu};
///
/// let mut fpu = ReliableFpu::new();
/// assert_eq!(fpu.add(2.0, 3.0), 5.0);
/// assert_eq!(fpu.flops(), 1);
/// assert_eq!(fpu.dot_batch(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
/// assert_eq!(fpu.flops(), 5);
/// ```
pub trait Fpu {
    /// Executes `op` on the operands, counting one FLOP and possibly
    /// corrupting the result.
    fn execute(&mut self, op: FlopOp, a: f64, b: f64) -> f64;

    /// Total floating point operations executed.
    fn flops(&self) -> u64;

    /// Total faults injected so far (zero for reliable FPUs).
    fn faults(&self) -> u64 {
        0
    }

    /// How many of the next `max` FLOPs are *guaranteed* to execute
    /// exactly — no fault strike, no DVFS step boundary, no read of or
    /// write through damaged memory-persistent storage — so the CSR row
    /// runs may compute them natively and account for them with
    /// [`commit_exact`](Self::commit_exact). `0` means "no guarantee; go
    /// through `execute`", always a correct answer. The window must stay
    /// valid until the next `execute`/`commit_exact` call on this FPU.
    fn run_exact(&self, max: u64) -> u64;

    /// Accounts for `n` FLOPs the caller executed natively inside a window
    /// previously granted by [`run_exact`](Self::run_exact): bumps the
    /// FLOP counter and advances the fault schedule by `n` operations
    /// without touching the LFSR (no draws happen on fault-free ops).
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the currently guaranteed-exact window.
    fn commit_exact(&mut self, n: u64);

    /// Addition through the FPU.
    fn add(&mut self, a: f64, b: f64) -> f64 {
        self.execute(FlopOp::Add, a, b)
    }

    /// Subtraction through the FPU.
    fn sub(&mut self, a: f64, b: f64) -> f64 {
        self.execute(FlopOp::Sub, a, b)
    }

    /// Multiplication through the FPU.
    fn mul(&mut self, a: f64, b: f64) -> f64 {
        self.execute(FlopOp::Mul, a, b)
    }

    /// Division through the FPU.
    fn div(&mut self, a: f64, b: f64) -> f64 {
        self.execute(FlopOp::Div, a, b)
    }

    /// Square root through the FPU.
    fn sqrt(&mut self, a: f64) -> f64 {
        self.execute(FlopOp::Sqrt, a, 0.0)
    }

    /// Inner product with an initial accumulator: one row of a
    /// matrix–vector product, `init + Σᵢ row[i]·x[i]`.
    ///
    /// Per-op expansion, for each `i` in order:
    /// `p = mul(row[i], x[i]); acc = add(acc, p)` starting from
    /// `acc = init`.
    ///
    /// # FLOP accounting
    ///
    /// 2 FLOPs per element (`mul` + `add`), `2·n` total.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    fn gemv_row(&mut self, init: f64, row: &[f64], x: &[f64]) -> f64
    where
        Self: Sized,
    {
        reduce(self, "gemv_row", init, row, x, Self::add)
    }

    /// Inner product `Σᵢ x[i]·y[i]` (zero-initialized [`gemv_row`]).
    ///
    /// Per-op expansion: exactly [`gemv_row`] with `init = 0.0` —
    /// `p = mul(x[i], y[i]); acc = add(acc, p)` per element.
    ///
    /// [`gemv_row`]: Self::gemv_row
    ///
    /// # FLOP accounting
    ///
    /// Identical to [`gemv_row`](Self::gemv_row): `2·n` FLOPs.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    fn dot_batch(&mut self, x: &[f64], y: &[f64]) -> f64
    where
        Self: Sized,
    {
        reduce(self, "dot_batch", 0.0, x, y, Self::add)
    }

    /// Subtractive inner product `init − Σᵢ x[i]·y[i]` — the inner loop of
    /// triangular substitution and Cholesky.
    ///
    /// Per-op expansion, for each `i` in order:
    /// `p = mul(x[i], y[i]); acc = sub(acc, p)` starting from
    /// `acc = init`.
    ///
    /// # FLOP accounting
    ///
    /// 2 FLOPs per element (`mul` + `sub`), `2·n` total.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    fn dot_sub_batch(&mut self, init: f64, x: &[f64], y: &[f64]) -> f64
    where
        Self: Sized,
    {
        reduce(self, "dot_sub_batch", init, x, y, Self::sub)
    }

    /// In-place `y ← α x + y` with the scalar as the first multiplicand.
    ///
    /// Per-op expansion, for each `i` in order:
    /// `p = mul(alpha, x[i]); y[i] = add(y[i], p)`.
    ///
    /// # FLOP accounting
    ///
    /// 2 FLOPs per element (`mul` + `add`), `2·n` total.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    fn axpy_batch(&mut self, alpha: f64, x: &[f64], y: &mut [f64])
    where
        Self: Sized,
    {
        assert!(x.len() == y.len(), "axpy_batch operands differ in length");
        for (y, &x) in y.iter_mut().zip(x) {
            let p = self.mul(alpha, x);
            *y = self.add(*y, p);
        }
    }

    /// One row update of a transposed matrix–vector product:
    /// `out ← out + row·scale`, with the vector element as the first
    /// multiplicand (the operand order `Aᵀy` kernels historically used —
    /// operand-side fault models are sensitive to it).
    ///
    /// Per-op expansion, for each `i` in order:
    /// `p = mul(row[i], scale); out[i] = add(out[i], p)`.
    ///
    /// # FLOP accounting
    ///
    /// 2 FLOPs per element (`mul` + `add`), `2·n` total.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    fn gemv_t_row(&mut self, scale: f64, row: &[f64], out: &mut [f64])
    where
        Self: Sized,
    {
        assert!(
            row.len() == out.len(),
            "gemv_t_row operands differ in length"
        );
        for (out, &r) in out.iter_mut().zip(row) {
            let p = self.mul(r, scale);
            *out = self.add(*out, p);
        }
    }

    /// Element-wise multiply-accumulate `y[i] ← y[i] + a[i]·b[i]` — the
    /// banded-diagonal product kernel.
    ///
    /// Per-op expansion, for each `i` in order:
    /// `p = mul(a[i], b[i]); y[i] = add(y[i], p)`.
    ///
    /// # FLOP accounting
    ///
    /// 2 FLOPs per element (`mul` + `add`), `2·n` total.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    fn fma_batch(&mut self, a: &[f64], b: &[f64], y: &mut [f64])
    where
        Self: Sized,
    {
        assert!(
            a.len() == y.len() && b.len() == y.len(),
            "fma_batch operands differ in length"
        );
        for ((y, &a), &b) in y.iter_mut().zip(a).zip(b) {
            let p = self.mul(a, b);
            *y = self.add(*y, p);
        }
    }

    /// In-place scaling `x[i] ← α·x[i]`.
    ///
    /// Per-op expansion, for each `i` in order:
    /// `x[i] = mul(alpha, x[i])`.
    ///
    /// # FLOP accounting
    ///
    /// 1 FLOP per element (`mul`), `n` total.
    fn scale_batch(&mut self, alpha: f64, x: &mut [f64])
    where
        Self: Sized,
    {
        for x in x.iter_mut() {
            *x = self.mul(alpha, *x);
        }
    }

    /// Element-wise difference `out[i] ← x[i] − y[i]` (residual kernels).
    ///
    /// Per-op expansion, for each `i` in order:
    /// `out[i] = sub(x[i], y[i])`.
    ///
    /// # FLOP accounting
    ///
    /// 1 FLOP per element (`sub`), `n` total.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    fn sub_batch(&mut self, x: &[f64], y: &[f64], out: &mut [f64])
    where
        Self: Sized,
    {
        assert!(
            x.len() == out.len() && y.len() == out.len(),
            "sub_batch operands differ in length"
        );
        for ((out, &x), &y) in out.iter_mut().zip(x).zip(y) {
            *out = self.sub(x, y);
        }
    }

    /// In-place element-wise subtraction `y[i] ← y[i] − x[i]` (in-place
    /// residual kernels).
    ///
    /// Per-op expansion, for each `i` in order:
    /// `y[i] = sub(y[i], x[i])`.
    ///
    /// # FLOP accounting
    ///
    /// 1 FLOP per element (`sub`), `n` total.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    fn sub_assign_batch(&mut self, x: &[f64], y: &mut [f64])
    where
        Self: Sized,
    {
        assert!(
            x.len() == y.len(),
            "sub_assign_batch operands differ in length"
        );
        for (y, &x) in y.iter_mut().zip(x) {
            *y = self.sub(*y, x);
        }
    }

    /// Sparse matrix–vector product over compressed sparse rows:
    /// `y[i] = Σₖ vals[k]·x[cols[k]]` for `k` in `row_ptr[i]..row_ptr[i + 1]`.
    ///
    /// Bit-identical per-op expansion: each row in order exactly as
    /// [`gemv_row`](Self::gemv_row) with `init = 0.0` over the row's
    /// values and the `x` entries its column indices address —
    /// `p = mul(vals[k], x[cols[k]]); acc = add(acc, p)` per stored
    /// entry. One guaranteed-exact window covers a run of whole rows,
    /// which run natively with no gather; the row a window ends in runs
    /// through [`gemv_row`](Self::gemv_row) on its gathered `x` entries.
    ///
    /// # FLOP accounting
    ///
    /// `2·nnz` FLOPs (`mul` + `add` per stored entry). An empty row costs
    /// nothing and yields `0.0`.
    ///
    /// # Panics
    ///
    /// Panics unless `row_ptr` has `y.len() + 1` offsets, or if an offset
    /// or column index is out of bounds.
    fn csr_matvec(
        &mut self,
        row_ptr: &[usize],
        cols: &[usize],
        vals: &[f64],
        x: &[f64],
        y: &mut [f64],
    ) where
        Self: Sized,
    {
        assert_eq!(row_ptr.len(), y.len() + 1, "csr_matvec row offsets");
        let row = |i: usize| row_ptr[i]..row_ptr[i + 1];
        let mut gather = Vec::new();
        csr_row_runs(
            self,
            row_ptr,
            y,
            |i| 2 * row(i).len() as u64,
            |y, i| {
                let mut acc = 0.0;
                for k in row(i) {
                    acc += vals[k] * x[cols[k]];
                }
                y[i] = acc;
            },
            |fpu, y, i| {
                gather.clear();
                gather.extend(cols[row(i)].iter().map(|&j| x[j]));
                y[i] = fpu.gemv_row(0.0, &vals[row(i)], &gather);
            },
        );
    }

    /// Transposed sparse product over compressed sparse rows, accumulated
    /// in place: `out[cols[k]] ← out[cols[k]] + vals[k]·y[i]` for every
    /// row `i` with `y[i] != 0.0` and `k` in `row_ptr[i]..row_ptr[i + 1]`.
    /// Rows with `y[i] == 0.0` are skipped entirely.
    ///
    /// Bit-identical per-op expansion: each remaining row in order
    /// exactly as [`gemv_t_row`](Self::gemv_t_row) with `scale = y[i]`
    /// over the row's values and the `out` entries its column indices
    /// address — `p = mul(vals[k], y[i]); out[cols[k]] =
    /// add(out[cols[k]], p)` per stored entry (matrix element first, the
    /// operand order operand-side fault models are sensitive to). Column
    /// indices must be strictly increasing within a row, so no row
    /// updates an entry twice. One guaranteed-exact window covers a run of
    /// whole rows, which update `out` natively in place; the row a window
    /// ends in runs through [`gemv_t_row`](Self::gemv_t_row) on its
    /// gathered `out` entries, scattered back.
    ///
    /// # FLOP accounting
    ///
    /// `2·nnz` FLOPs over the rows with `y[i] != 0.0` (`mul` + `add` per
    /// stored entry); skipped rows cost nothing.
    ///
    /// # Panics
    ///
    /// Panics unless `row_ptr` has `y.len() + 1` offsets, or if an offset
    /// or column index is out of bounds.
    fn csr_matvec_t(
        &mut self,
        row_ptr: &[usize],
        cols: &[usize],
        vals: &[f64],
        y: &[f64],
        out: &mut [f64],
    ) where
        Self: Sized,
    {
        assert_eq!(row_ptr.len(), y.len() + 1, "csr_matvec_t row offsets");
        let row = |i: usize| row_ptr[i]..row_ptr[i + 1];
        let mut gather = Vec::new();
        csr_row_runs(
            self,
            row_ptr,
            out,
            |i| {
                if y[i] == 0.0 {
                    0
                } else {
                    2 * row(i).len() as u64
                }
            },
            |out, i| {
                if y[i] != 0.0 {
                    for k in row(i) {
                        out[cols[k]] += vals[k] * y[i];
                    }
                }
            },
            |fpu, out, i| {
                gather.clear();
                gather.extend(cols[row(i)].iter().map(|&j| out[j]));
                fpu.gemv_t_row(y[i], &vals[row(i)], &mut gather);
                for (&j, &v) in cols[row(i)].iter().zip(&gather) {
                    out[j] = v;
                }
            },
        );
    }
}

impl<F: Fpu + ?Sized> Fpu for &mut F {
    fn execute(&mut self, op: FlopOp, a: f64, b: f64) -> f64 {
        (**self).execute(op, a, b)
    }

    fn flops(&self) -> u64 {
        (**self).flops()
    }

    fn faults(&self) -> u64 {
        (**self).faults()
    }

    fn run_exact(&self, max: u64) -> u64 {
        (**self).run_exact(max)
    }

    fn commit_exact(&mut self, n: u64) {
        (**self).commit_exact(n)
    }
}

/// Convenience comparisons and counter snapshots built on [`Fpu`]
/// primitives.
///
/// Comparisons are implemented as FPU subtractions followed by a sign test,
/// matching how comparison-heavy baselines (e.g. sorting) exercise the FPU
/// on the Leon3.
pub trait FpuExt: Fpu {
    /// `a < b` computed through a (possibly faulty) FPU subtraction.
    fn lt(&mut self, a: f64, b: f64) -> bool {
        self.sub(a, b) < 0.0
    }

    /// `a > b` computed through a (possibly faulty) FPU subtraction.
    fn gt(&mut self, a: f64, b: f64) -> bool {
        self.sub(a, b) > 0.0
    }

    /// `a <= b` computed through a (possibly faulty) FPU subtraction.
    fn le(&mut self, a: f64, b: f64) -> bool {
        self.sub(a, b) <= 0.0
    }

    /// Captures the current FLOP/fault counters for later deltas.
    fn snapshot(&self) -> FpuSnapshot {
        FpuSnapshot {
            flops: self.flops(),
            faults: self.faults(),
        }
    }
}

impl<F: Fpu + ?Sized> FpuExt for F {}

/// A point-in-time capture of an FPU's counters.
///
/// # Examples
///
/// ```
/// use stochastic_fpu::{Fpu, FpuExt, ReliableFpu};
///
/// let mut fpu = ReliableFpu::new();
/// let before = fpu.snapshot();
/// fpu.add(1.0, 2.0);
/// assert_eq!(before.flops_since(&fpu), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FpuSnapshot {
    /// FLOP counter at capture time.
    pub flops: u64,
    /// Fault counter at capture time.
    pub faults: u64,
}

impl FpuSnapshot {
    /// FLOPs executed on `fpu` since this snapshot was taken.
    pub fn flops_since<F: Fpu + ?Sized>(&self, fpu: &F) -> u64 {
        fpu.flops() - self.flops
    }

    /// Faults injected on `fpu` since this snapshot was taken.
    pub fn faults_since<F: Fpu + ?Sized>(&self, fpu: &F) -> u64 {
        fpu.faults() - self.faults
    }
}

/// An exact FPU with FLOP accounting: the error-free baseline processor and
/// the "reliable control plane" of the paper.
///
/// # Examples
///
/// ```
/// use stochastic_fpu::{Fpu, ReliableFpu};
///
/// let mut fpu = ReliableFpu::new();
/// assert_eq!(fpu.div(1.0, 4.0), 0.25);
/// assert_eq!(fpu.faults(), 0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReliableFpu {
    flops: u64,
}

impl ReliableFpu {
    /// Creates a reliable FPU with zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Fpu for ReliableFpu {
    fn execute(&mut self, op: FlopOp, a: f64, b: f64) -> f64 {
        self.flops += 1;
        op.exact(a, b)
    }

    fn flops(&self) -> u64 {
        self.flops
    }

    /// A reliable FPU never faults: every requested FLOP is exact.
    fn run_exact(&self, max: u64) -> u64 {
        max
    }

    fn commit_exact(&mut self, n: u64) {
        self.flops += n;
    }
}

/// The fault-injecting FPU of the paper's FPGA framework.
///
/// At LFSR-scheduled random intervals — uniform with mean equal to the
/// configured [`FaultRate`]'s mean interval — the injector lets its
/// [`FaultModelSpec`] corrupt the operation. The paper's scenario (a
/// transient single-bit flip of the committed result, per a
/// [`BitFaultModel`](crate::BitFaultModel) distribution) is the
/// [`FaultModelSpec::Transient`] variant and the default; stuck-at,
/// burst, operand-side, intermittent and op-selective scenarios are the
/// other variants of the same enum.
///
/// # The event horizon
///
/// Because the injector draws the *interval* to the next strike, every op
/// between two scheduled events is exact. The FPU keeps one number, the
/// FLOP index of the first op that is not guaranteed exact: the smaller
/// of the next strike and the next DVFS step boundary. Under a memory
/// spec a strike changes only storage, and storage changes without
/// looking at data, so the horizon is instead the first op that reads a
/// damaged word (array-resident) or writes through a damaged register
/// (register file), counting the damage of every strike before it; those
/// strikes are drawn ahead, and they, overwrites and scrubs settle in
/// bulk at that op. Ops before the horizon run exactly, through
/// [`execute`](Fpu::execute) or in the CSR row runs'
/// [`run_exact`](Fpu::run_exact) windows; the op at it runs the injector,
/// which then moves the horizon on. [`faults`](Fpu::faults),
/// [`stats`](Self::stats) and [`memory_state`](Self::memory_state)
/// report the state as of the current FLOP either way.
///
/// # Examples
///
/// ```
/// use stochastic_fpu::{BitFaultModel, FaultRate, Fpu, NoisyFpu};
///
/// // Every second FLOP is corrupted on average (a bare `BitFaultModel`
/// // converts into the paper's transient-flip scenario).
/// let mut fpu = NoisyFpu::new(FaultRate::per_flop(0.5), BitFaultModel::emulated(), 7);
/// for _ in 0..1000 {
///     fpu.add(1.0, 1.0);
/// }
/// assert!(fpu.faults() > 300, "expected roughly half the ops faulted");
/// ```
///
/// A non-default scenario:
///
/// ```
/// use stochastic_fpu::{BitWidth, FaultModelSpec, FaultRate, Fpu, NoisyFpu};
///
/// // Sign bit stuck at 1: every visible strike drives the result negative.
/// let stuck = FaultModelSpec::stuck_at(63, true, BitWidth::F64);
/// let mut fpu = NoisyFpu::new(FaultRate::per_flop(1.0), stuck, 7);
/// assert!(fpu.add(1.0, 1.0) < 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct NoisyFpu {
    spec: FaultModelSpec,
    lfsr: Lfsr,
    /// Upper end of the strike-interval draw, `round(2/rate − 1)` and at
    /// least 1, fixed by the rate in force (0 when it is zero).
    interval_bound: u64,
    /// FLOP index of the next strike (`u64::MAX` at rate zero).
    next_strike: u64,
    /// Index of the DVFS step in force (0 for every other spec).
    step: usize,
    /// FLOP index at which the DVFS step in force ends (`u64::MAX` for
    /// the last step and for every other spec).
    step_end: u64,
    /// The event horizon: `min(next_strike, step_end)`, or under a memory
    /// spec the next op that reads or writes through damage.
    next_event: u64,
    flops: u64,
    stats: FaultStats,
    /// Shadow storage for memory-persistent fault specs.
    memory: Option<MemoryFaultState>,
    /// Whether [`run_exact`](Fpu::run_exact) grants windows to the CSR
    /// row runs (it does by default; disable for per-op comparisons —
    /// results are bit-identical either way).
    batched: bool,
}

/// The strike-interval bound of `rate`: `round(2/rate − 1)`, at least 1,
/// and 0 at rate zero.
fn interval_bound(rate: FaultRate) -> u64 {
    if rate.is_zero() {
        0
    } else {
        (2.0 * rate.mean_interval() - 1.0).round().max(1.0) as u64
    }
}

impl NoisyFpu {
    /// Creates a fault-injecting FPU.
    ///
    /// `seed` initializes the LFSR that schedules faults and drives the
    /// fault model's random draws; a fixed seed makes an experiment exactly
    /// reproducible. `model` accepts a [`FaultModelSpec`] or a bare
    /// [`BitFaultModel`](crate::BitFaultModel) (the paper's
    /// transient-flip scenario).
    ///
    /// Voltage-linked specs take over the strike schedule: a
    /// [`FaultModelSpec::VoltageLinked`] spec pins the injector to the
    /// rate its voltage implies through the Figure 5.2 model, and a
    /// [`FaultModelSpec::DvfsSchedule`] spec ignores `rate` entirely,
    /// redrawing the strike interval at each step's rate as the schedule
    /// steps the voltage. Memory-persistent specs allocate shadow storage
    /// whose corruptions outlive the ops that suffered them (inspect it
    /// via [`memory_state`](Self::memory_state)).
    ///
    /// # Panics
    ///
    /// Panics if a combinator in the spec nests an injector-level spec
    /// (possible only for a spec assembled as an enum literal).
    pub fn new(rate: FaultRate, model: impl Into<FaultModelSpec>, seed: u64) -> Self {
        let spec = model.into();
        spec.assert_nesting();
        let (rate, step_end) = match &spec {
            FaultModelSpec::DvfsSchedule { model, steps } => {
                let end = if steps.len() > 1 {
                    steps[0].flops
                } else {
                    u64::MAX
                };
                (model.fault_rate_at(steps[0].voltage), end)
            }
            _ => (spec.rate_override().unwrap_or(rate), u64::MAX),
        };
        let memory = spec.memory_model().cloned().map(MemoryFaultState::new);
        let mut fpu = NoisyFpu {
            spec,
            lfsr: Lfsr::new(seed),
            interval_bound: interval_bound(rate),
            next_strike: u64::MAX,
            step: 0,
            step_end,
            next_event: 0,
            flops: 0,
            stats: FaultStats::default(),
            memory,
            batched: true,
        };
        fpu.next_strike = fpu.strike_from(0);
        fpu.next_event = if fpu.memory.is_some() {
            fpu.memory_horizon()
        } else {
            fpu.next_strike.min(step_end)
        };
        fpu
    }

    /// Detailed fault statistics as of the current FLOP.
    pub fn stats(&self) -> FaultStats {
        let mut stats = self.stats.clone();
        if let Some(memory) = &self.memory {
            memory.record_pending(self.flops, &mut stats);
        }
        stats
    }

    /// The shadow storage of a memory-persistent spec (`None` for
    /// transient scenarios) as of the current FLOP — which slots hold
    /// corrupted bits after every op executed so far.
    pub fn memory_state(&self) -> Option<MemoryFaultState> {
        self.memory.as_ref().map(|memory| {
            let mut settled = memory.clone();
            settled.settle(self.flops, &mut FaultStats::default());
            settled
        })
    }

    /// Enables or disables the guaranteed-exact windows the CSR row runs
    /// of [`Fpu::csr_matvec`] and [`Fpu::csr_matvec_t`] run natively, the
    /// only code that takes them. Results are **bit-identical** either way
    /// (a window only ever covers ops before the event horizon);
    /// disabling them sends every CSR row through its per-op
    /// [`execute`](Fpu::execute) expansion, which is the reference of the
    /// sparse identity tests and of the benchmark's batch-speedup
    /// measurement. Every other kernel runs per op regardless.
    pub fn set_batching(&mut self, enabled: bool) {
        self.batched = enabled;
    }

    /// Whether the guaranteed-exact windows are enabled.
    pub fn batching(&self) -> bool {
        self.batched
    }

    /// The FLOP index of the next strike when the interval is counted
    /// from op `flop` on: `flop + k − 1` for `k` drawn uniform on
    /// `[1, 2/rate − 1]` by the LFSR (so the mean interval is `1/rate`,
    /// as in the paper's methodology), `u64::MAX` at rate zero.
    fn strike_from(&mut self, flop: u64) -> u64 {
        if self.interval_bound == 0 {
            return u64::MAX;
        }
        flop + self.lfsr.uniform_1_to(self.interval_bound) - 1
    }

    /// Runs the op at the event horizon, FLOP `self.flops`, then moves
    /// the horizon on: a DVFS step boundary first, then the strike's
    /// next interval and the corruption, in that order. Memory specs run
    /// [`memory_event`](Self::memory_event) instead.
    #[inline(never)]
    fn event(&mut self, op: FlopOp, a: f64, b: f64) -> f64 {
        if self.memory.is_some() {
            return self.memory_event(op, a, b);
        }
        let flop = self.flops;
        self.flops += 1;
        if flop == self.step_end {
            let FaultModelSpec::DvfsSchedule { model, steps } = &self.spec else {
                unreachable!("only a DVFS schedule has step boundaries")
            };
            self.step += 1;
            let step = steps[self.step];
            self.step_end = if self.step + 1 == steps.len() {
                u64::MAX
            } else {
                self.step_end.saturating_add(step.flops)
            };
            self.interval_bound = interval_bound(model.fault_rate_at(step.voltage));
            self.next_strike = self.strike_from(flop);
        }
        let value = if flop == self.next_strike {
            self.next_strike = self.strike_from(flop + 1);
            let ctx = FaultCtx {
                op,
                a,
                b,
                exact: op.exact(a, b),
                flop,
            };
            self.spec.corrupt(&ctx, &mut self.lfsr, &mut self.stats)
        } else {
            op.exact(a, b)
        };
        self.next_event = self.next_strike.min(self.step_end);
        value
    }

    /// Runs the op at a memory spec's event horizon, FLOP `self.flops`,
    /// one that reads or writes through damage: storage settles up to
    /// it, the op runs through storage, and a strike landing on it draws
    /// its next interval and then its damage (visible from the next op
    /// on).
    fn memory_event(&mut self, op: FlopOp, a: f64, b: f64) -> f64 {
        let flop = self.flops;
        self.flops += 1;
        let memory = self.memory.as_mut().expect("a memory spec");
        let value = memory.execute(flop, op, a, b, &mut self.stats);
        if flop == self.next_strike {
            // `strike_from(flop + 1)`, on the fields `memory` leaves free.
            self.next_strike = flop + self.lfsr.uniform_1_to(self.interval_bound);
            memory.strike(&mut self.lfsr, &mut self.stats);
        }
        self.next_event = self.memory_horizon();
        value
    }

    /// A memory spec's event horizon from the settled FLOP on: the first
    /// op that reads or writes through damage, either held in storage now
    /// or installed by a strike before that op. Strikes draw no data, so
    /// every strike before the horizon is drawn here, in the LFSR order
    /// of a per-op run (its next interval, then its slot, then its bit),
    /// and settles with the op at the horizon. Past [`MAX_DRAWN`] drawn
    /// strikes whose damage heals unread, the horizon stops at the next
    /// strike.
    fn memory_horizon(&mut self) -> u64 {
        let memory = self.memory.as_mut().expect("a memory spec");
        let mut horizon = memory.next_touch();
        let mut drawn = 0;
        while self.next_strike < horizon {
            if drawn == MAX_DRAWN {
                return self.next_strike;
            }
            let strike = self.next_strike;
            self.next_strike = strike + self.lfsr.uniform_1_to(self.interval_bound);
            horizon = horizon.min(memory.install(strike, &mut self.lfsr));
            drawn += 1;
        }
        horizon
    }
}

/// The most strikes a memory spec draws ahead of its event horizon.
const MAX_DRAWN: usize = 1024;

impl Fpu for NoisyFpu {
    #[inline]
    fn execute(&mut self, op: FlopOp, a: f64, b: f64) -> f64 {
        if self.flops < self.next_event {
            self.flops += 1;
            op.exact(a, b)
        } else {
            self.event(op, a, b)
        }
    }

    fn flops(&self) -> u64 {
        self.flops
    }

    fn faults(&self) -> u64 {
        let pending = self
            .memory
            .as_ref()
            .map_or(0, |memory| memory.pending_before(self.flops));
        self.stats.faults() + pending
    }

    /// Every op before the event horizon: the next strike and the next
    /// DVFS step boundary, or, under a memory spec, the next op that
    /// reads or writes through damage.
    fn run_exact(&self, max: u64) -> u64 {
        if !self.batched {
            return 0;
        }
        max.min(self.next_event - self.flops)
    }

    fn commit_exact(&mut self, n: u64) {
        // `run_exact(n) == n` iff the horizon still lies `n` ops ahead;
        // this keeps a buggy caller from silently desynchronizing the
        // fault stream.
        assert_eq!(
            self.run_exact(n),
            n,
            "commit_exact({n}) exceeds the guaranteed-exact window"
        );
        self.flops += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{BitFaultModel, BitWidth, CANONICAL_NAN};
    use crate::memory::MemoryFaultModel;

    #[test]
    fn reliable_fpu_is_exact() {
        let mut fpu = ReliableFpu::new();
        assert_eq!(fpu.add(1.5, 2.5), 4.0);
        assert_eq!(fpu.sub(1.5, 2.5), -1.0);
        assert_eq!(fpu.mul(1.5, 2.0), 3.0);
        assert_eq!(fpu.div(3.0, 2.0), 1.5);
        assert_eq!(fpu.sqrt(9.0), 3.0);
        assert_eq!(fpu.flops(), 5);
        assert_eq!(fpu.faults(), 0);
    }

    #[test]
    fn zero_rate_noisy_fpu_is_exact() {
        let mut fpu = NoisyFpu::new(FaultRate::ZERO, BitFaultModel::emulated(), 1);
        for i in 0..10_000 {
            let x = i as f64;
            assert_eq!(fpu.add(x, 1.0), x + 1.0);
        }
        assert_eq!(fpu.faults(), 0);
        assert_eq!(fpu.flops(), 10_000);
    }

    #[test]
    fn fault_rate_is_respected() {
        for &rate in &[0.001, 0.01, 0.1, 0.5] {
            let mut fpu = NoisyFpu::new(FaultRate::per_flop(rate), BitFaultModel::emulated(), 42);
            let n = 200_000;
            for _ in 0..n {
                fpu.mul(1.0, 1.0);
            }
            let observed = fpu.faults() as f64 / n as f64;
            assert!(
                (observed - rate).abs() < rate * 0.15 + 1e-4,
                "rate {rate}: observed {observed}"
            );
        }
    }

    #[test]
    fn faults_flip_exactly_one_bit() {
        let mut fpu = NoisyFpu::new(
            FaultRate::per_flop(1.0),
            BitFaultModel::uniform(BitWidth::F64),
            7,
        );
        // Rate 1.0 -> every op faulted.
        for _ in 0..100 {
            let exact = 3.0f64 * 5.0;
            let got = fpu.mul(3.0, 5.0);
            let flipped = (exact.to_bits() ^ got.to_bits()).count_ones();
            assert_eq!(flipped, 1);
        }
        assert_eq!(fpu.faults(), 100);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let run = |seed| {
            let mut fpu = NoisyFpu::new(FaultRate::per_flop(0.1), BitFaultModel::emulated(), seed);
            (0..1000)
                .map(|i| fpu.add(i as f64, 0.5))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn stats_track_fields() {
        let mut fpu = NoisyFpu::new(
            FaultRate::per_flop(0.5),
            BitFaultModel::msb_only(BitWidth::F64),
            3,
        );
        for _ in 0..1000 {
            fpu.add(1.0, 1.0);
        }
        assert!(fpu.stats().faults() > 0);
        assert_eq!(fpu.stats().mantissa_faults(), 0);
        assert_eq!(fpu.stats().high_bit_faults(), fpu.stats().faults());
    }

    #[test]
    fn fpu_ext_comparisons() {
        let mut fpu = ReliableFpu::new();
        assert!(fpu.lt(1.0, 2.0));
        assert!(!fpu.lt(2.0, 1.0));
        assert!(fpu.gt(2.0, 1.0));
        assert!(fpu.le(2.0, 2.0));
        assert_eq!(fpu.flops(), 4);
    }

    #[test]
    fn snapshot_deltas() {
        let mut fpu = NoisyFpu::new(FaultRate::per_flop(1.0), BitFaultModel::emulated(), 5);
        fpu.add(1.0, 1.0);
        let snap = fpu.snapshot();
        fpu.add(1.0, 1.0);
        fpu.add(1.0, 1.0);
        assert_eq!(snap.flops_since(&fpu), 2);
        assert_eq!(snap.faults_since(&fpu), 2);
    }

    #[test]
    fn fpu_usable_through_mut_reference() {
        fn run<F: Fpu>(mut f: F) -> f64 {
            f.add(1.0, 2.0)
        }
        let mut fpu = ReliableFpu::new();
        assert_eq!(run(&mut fpu), 3.0);
        assert_eq!(fpu.flops(), 1);
    }

    #[test]
    fn f32_mode_values_on_f32_grid() {
        let mut fpu = NoisyFpu::new(
            FaultRate::per_flop(1.0),
            BitFaultModel::uniform(BitWidth::F32),
            11,
        );
        for _ in 0..100 {
            let v = fpu.add(1.0, 0.5);
            // NaN never compares equal to itself; check bit patterns instead.
            assert_eq!(
                v.to_bits(),
                (v as f32 as f64).to_bits(),
                "value {v} not representable in f32"
            );
        }
    }

    #[test]
    fn voltage_linked_stream_matches_transient_at_the_derived_rate() {
        use crate::energy::VoltageErrorModel;
        let model = VoltageErrorModel::paper_figure_5_2();
        let run = |spec: FaultModelSpec, rate: FaultRate, seed: u64| {
            let mut fpu = NoisyFpu::new(rate, spec, seed);
            (0..4000)
                .map(|i| fpu.mul(1.0 + i as f64, 1.5).to_bits())
                .collect::<Vec<_>>()
        };
        // A fixed overscaled voltage is exactly the paper's transient
        // scenario at the Figure 5.2 rate — byte-for-byte.
        let linked = run(
            FaultModelSpec::voltage_linked(model.clone(), 0.62),
            FaultRate::ZERO,
            17,
        );
        let transient = run(FaultModelSpec::default(), model.fault_rate_at(0.62), 17);
        assert_eq!(linked, transient);
    }

    #[test]
    fn dvfs_fault_density_follows_the_voltage_steps() {
        use crate::energy::VoltageErrorModel;
        use crate::model::DvfsStep;
        let model = VoltageErrorModel::paper_figure_5_2();
        let spec = FaultModelSpec::dvfs(
            model,
            vec![
                DvfsStep {
                    flops: 20_000,
                    voltage: 1.0, // 1e-9 errors/op: effectively silent
                },
                DvfsStep {
                    flops: 20_000,
                    voltage: 0.6, // 1e-1 errors/op
                },
            ],
        );
        let mut fpu = NoisyFpu::new(FaultRate::ZERO, spec, 9);
        for _ in 0..20_000 {
            fpu.add(1.0, 1.0);
        }
        let nominal_faults = fpu.faults();
        assert_eq!(nominal_faults, 0, "nominal step should not fault");
        for _ in 0..20_000 {
            fpu.add(1.0, 1.0);
        }
        let overscaled_faults = fpu.faults() - nominal_faults;
        assert!(
            (1000..4000).contains(&overscaled_faults),
            "expected ~2000 faults at 0.6 V, got {overscaled_faults}"
        );
    }

    #[test]
    fn memory_faults_persist_and_amplify() {
        use crate::fault::BitWidth;
        let spec = FaultModelSpec::register_file(4, BitFaultModel::lsb_only(BitWidth::F64), 0);
        let mut fpu = NoisyFpu::new(FaultRate::per_flop(0.05), spec, 11);
        let mut corrupted = 0u64;
        for _ in 0..1000 {
            if fpu.add(1.0, 2.0) != 3.0 {
                corrupted += 1;
            }
        }
        assert!(fpu.faults() > 10, "installs recorded: {}", fpu.faults());
        assert!(
            corrupted > fpu.faults(),
            "persistent damage must corrupt more results ({corrupted}) than \
             installed faults ({})",
            fpu.faults()
        );
        let state = fpu.memory_state().expect("memory spec has shadow state");
        assert!(state.corrupted_slots() > 0);
    }

    #[test]
    fn zero_rate_memory_spec_is_transparent() {
        let spec = FaultModelSpec::array_resident(8, BitFaultModel::emulated(), 100);
        let mut fpu = NoisyFpu::new(FaultRate::ZERO, spec, 5);
        for i in 0..1000 {
            let x = 1.0 + i as f64 * 1e-9;
            assert_eq!(fpu.add(x, 0.5), x + 0.5);
        }
        assert_eq!(fpu.faults(), 0);
        assert_eq!(
            fpu.memory_state().expect("shadow state").corrupted_slots(),
            0
        );
    }

    /// The scalar reference for a batch kernel: the documented per-op
    /// expansion of `dot_batch`, issued through `execute` one op at a
    /// time.
    fn scalar_dot(fpu: &mut NoisyFpu, x: &[f64], y: &[f64]) -> f64 {
        let mut acc = 0.0;
        for (&a, &b) in x.iter().zip(y) {
            let p = fpu.mul(a, b);
            acc = fpu.add(acc, p);
        }
        acc
    }

    #[test]
    fn batched_dot_is_bit_identical_to_scalar() {
        let x: Vec<f64> = (0..257).map(|i| 0.25 + i as f64 * 0.37).collect();
        let y: Vec<f64> = (0..257).map(|i| 1.75 - i as f64 * 0.11).collect();
        for rate in [0.0, 0.001, 0.02, 0.3, 1.0] {
            let mut batched =
                NoisyFpu::new(FaultRate::per_flop(rate), BitFaultModel::emulated(), 9);
            let mut scalar = batched.clone();
            let a = batched.dot_batch(&x, &y);
            let b = scalar_dot(&mut scalar, &x, &y);
            assert_eq!(a.to_bits(), b.to_bits(), "rate {rate}");
            assert_eq!(batched.flops(), scalar.flops(), "rate {rate}");
            assert_eq!(batched.faults(), scalar.faults(), "rate {rate}");
            assert_eq!(batched.stats(), scalar.stats(), "rate {rate}");
            // The LFSR streams stay in sync: the next strikes agree too.
            let ta: Vec<u64> = (0..64)
                .map(|i| batched.add(i as f64, 0.5).to_bits())
                .collect();
            let tb: Vec<u64> = (0..64)
                .map(|i| scalar.add(i as f64, 0.5).to_bits())
                .collect();
            assert_eq!(ta, tb, "rate {rate}: post-batch streams diverge");
        }
    }

    #[test]
    fn kernel_flop_counts_are_exact() {
        let mut fpu = ReliableFpu::new();
        assert_eq!(fpu.dot_batch(&[], &[]), 0.0);
        assert_eq!(fpu.flops(), 0, "an empty dot costs nothing");
        assert_eq!(fpu.dot_batch(&[1.0; 10], &[2.0; 10]), 20.0);
        assert_eq!(fpu.flops(), 20, "10 muls + 10 adds");
        // A long reduction is the same chain: `2·n` FLOPs at any length.
        fpu = ReliableFpu::new();
        let long = vec![1.0; 100];
        assert_eq!(fpu.dot_batch(&long, &long), 100.0);
        assert_eq!(fpu.flops(), 200);
        fpu = ReliableFpu::new();
        assert_eq!(fpu.dot_sub_batch(1.0, &long, &long), -99.0);
        assert_eq!(fpu.flops(), 200);
        // α = 0 still issues every mul and add, and leaves y unchanged.
        fpu = ReliableFpu::new();
        let mut y = vec![1.0, 2.0];
        fpu.axpy_batch(0.0, &[5.0, 5.0], &mut y);
        assert_eq!(y, vec![1.0, 2.0]);
        assert_eq!(fpu.flops(), 4);
        fpu = ReliableFpu::new();
        let mut x = vec![1.0, -2.0, 3.0];
        fpu.scale_batch(0.0, &mut x);
        assert_eq!(x, vec![0.0; 3]);
        assert_eq!(fpu.flops(), 3);
    }

    #[test]
    fn strike_lands_at_first_middle_and_last_op_of_a_batch() {
        // Find the first strike index of this seed's schedule, then place
        // batch boundaries so the striking op is the first, a middle, and
        // the last operation of a batch — the fallback must fire exactly
        // there and nowhere else.
        let rate = FaultRate::per_flop(0.05);
        let mut probe = NoisyFpu::new(rate, BitFaultModel::emulated(), 1234);
        let mut first_strike = 0u64;
        while probe.faults() == 0 {
            probe.mul(1.5, 2.5);
            first_strike = probe.flops() - 1;
        }
        assert!(first_strike > 1, "need room ahead of the strike");
        let strike = first_strike as usize;
        // Each (prefix, len) pair puts the strike at a different batch slot.
        for (prefix, len) in [
            (strike, 8),                   // first op of the batch
            (strike.saturating_sub(3), 8), // middle of the batch
            (strike.saturating_sub(7), 8), // last op of the batch
        ] {
            // The batch is `len` dot elements = 2·len FLOPs; make sure the
            // strike FLOP falls inside it.
            assert!(prefix <= strike && strike < prefix + 2 * len);
            let x = vec![1.5; len];
            let y = vec![2.5; len];
            let mut batched = NoisyFpu::new(rate, BitFaultModel::emulated(), 1234);
            let mut scalar = batched.clone();
            for _ in 0..prefix {
                assert_eq!(
                    batched.mul(1.5, 2.5).to_bits(),
                    scalar.mul(1.5, 2.5).to_bits()
                );
            }
            let a = batched.dot_batch(&x, &y);
            let b = scalar_dot(&mut scalar, &x, &y);
            assert_eq!(a.to_bits(), b.to_bits(), "prefix {prefix}");
            assert_eq!(batched.flops(), scalar.flops());
            assert_eq!(batched.stats(), scalar.stats());
            assert!(batched.faults() >= 1, "the batch must contain the strike");
        }
    }

    #[test]
    fn run_exact_window_respects_the_countdown() {
        let mut fpu = NoisyFpu::new(FaultRate::per_flop(0.1), BitFaultModel::emulated(), 3);
        let window = fpu.run_exact(u64::MAX);
        // Executing exactly `window` ops must not fault…
        for _ in 0..window {
            fpu.add(1.0, 1.0);
        }
        assert_eq!(fpu.faults(), 0, "ops inside the window must be exact");
        // …and the very next op is the strike.
        fpu.add(1.0, 1.0);
        assert_eq!(fpu.faults(), 1, "the op after the window strikes");
    }

    #[test]
    fn commit_exact_advances_like_per_op_execution() {
        let mut skipped = NoisyFpu::new(FaultRate::per_flop(0.01), BitFaultModel::emulated(), 77);
        let mut stepped = skipped.clone();
        let window = skipped.run_exact(64).min(64);
        assert!(window > 0);
        skipped.commit_exact(window);
        for _ in 0..window {
            stepped.add(1.0, 1.0);
        }
        assert_eq!(skipped.flops(), stepped.flops());
        // Both observe the identical continuation of the fault stream.
        let a: Vec<u64> = (0..256).map(|_| skipped.mul(3.0, 7.0).to_bits()).collect();
        let b: Vec<u64> = (0..256).map(|_| stepped.mul(3.0, 7.0).to_bits()).collect();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "exceeds the guaranteed-exact window")]
    fn over_committing_the_window_panics() {
        let mut fpu = NoisyFpu::new(FaultRate::per_flop(0.5), BitFaultModel::emulated(), 5);
        let window = fpu.run_exact(u64::MAX);
        fpu.commit_exact(window + 1);
    }

    /// The first op from `fpu`'s current FLOP on whose result depends on
    /// stored damage: an array-resident op reading a corrupted word, or
    /// a register-file op writing through a corrupted register. Found by
    /// stepping a copy op by op and reading each op's words from the
    /// settled state before it (a scrub at the op clears them first).
    fn first_touch(fpu: &NoisyFpu) -> u64 {
        use crate::memory::MemoryFaultKind;
        let mut probe = fpu.clone();
        loop {
            let f = probe.flops();
            let state = probe.memory_state().expect("memory spec");
            let masks = state.masks();
            let n = masks.len() as u64;
            let dirty = |word: u64| masks[(word % n) as usize] != 0;
            let scrub = state.model().scrub_interval();
            let scrubbed = scrub > 0 && f > 0 && f.is_multiple_of(scrub);
            let damaged = match state.model().kind() {
                MemoryFaultKind::ArrayResident => dirty(2 * f) || dirty(2 * f + 1),
                MemoryFaultKind::RegisterFile => dirty(f),
            };
            if damaged && !scrubbed {
                return f;
            }
            probe.add(1.0, 1.0);
        }
    }

    #[test]
    fn memory_windows_end_before_the_next_dirty_touch() {
        let bits = BitFaultModel::emulated();
        // Both kinds; odd and even slot counts; one- and multi-word dirty
        // bitmaps; scrubbed and never scrubbed.
        let specs = [
            FaultModelSpec::array_resident(7, bits.clone(), 50),
            FaultModelSpec::array_resident(8, bits.clone(), 0),
            FaultModelSpec::array_resident(131, bits.clone(), 400),
            FaultModelSpec::register_file(5, bits.clone(), 37),
            FaultModelSpec::register_file(70, bits.clone(), 0),
        ];
        let rate = FaultRate::per_flop(0.05);
        for spec in specs {
            for seed in [2, 9] {
                let name = spec.name();
                let mut fpu = NoisyFpu::new(rate, spec.clone(), seed);
                let scrub = spec.memory_model().expect("memory spec").scrub_interval();
                let (mut dirty_windows, mut wrapped, mut scrubs, mut strikes) = (0, false, 0, 0);
                for _ in 0..400 {
                    let flop = fpu.flops();
                    let window = fpu.run_exact(u64::MAX);
                    // Strikes and scrubs end no window: only damage does.
                    assert_eq!(
                        window,
                        first_touch(&fpu) - flop,
                        "{name} seed {seed} at FLOP {flop}"
                    );
                    let state = fpu.memory_state().expect("memory spec");
                    if state.corrupted_slots() > 0 && window > 0 {
                        dirty_windows += 1;
                        let n = state.masks().len() as u64;
                        wrapped |= flop % n + window >= n;
                        let end = flop + window;
                        if scrub > 0 && (flop + 1..end).any(|f| f.is_multiple_of(scrub)) {
                            scrubs += 1;
                        }
                    }
                    let faults = fpu.faults();
                    fpu.commit_exact(window);
                    strikes += usize::from(fpu.faults() > faults);
                    // The op after the window reads or writes through damage.
                    fpu.add(1.0, 1.0);
                }
                assert!(
                    dirty_windows > 20,
                    "{name} seed {seed}: {dirty_windows} dirty windows"
                );
                assert!(
                    wrapped,
                    "{name} seed {seed}: no dirty window wrapped the slots"
                );
                assert!(
                    scrub == 0 || scrubs > 0,
                    "{name} seed {seed}: no dirty window spanned a scrub boundary"
                );
                assert!(strikes > 20, "{name} seed {seed}: {strikes} windows struck");
            }
        }

        // A DVFS schedule: every window ends at the next strike or the
        // next step boundary (FLOPs 1000 and 2000 of the preset), and
        // never crosses a boundary.
        for seed in [2, 9] {
            let spec = FaultModelSpec::from_preset("dvfs").expect("shipped preset");
            let mut fpu = NoisyFpu::new(FaultRate::ZERO, spec, seed);
            let mut at_boundary = 0;
            while fpu.flops() < 3000 {
                let flop = fpu.flops();
                let window = fpu.run_exact(u64::MAX);
                let mut probe = fpu.clone();
                let faults = probe.faults();
                while probe.faults() == faults {
                    probe.add(1.0, 1.0);
                }
                let to_strike = probe.flops() - flop - 1;
                let step_end = [1000, 2000].into_iter().find(|&end| flop < end);
                let to_boundary = step_end.map_or(u64::MAX, |end| end - flop);
                assert_eq!(
                    window,
                    to_strike.min(to_boundary),
                    "dvfs seed {seed} at FLOP {flop}"
                );
                at_boundary += usize::from(window == to_boundary);
                fpu.commit_exact(window);
                fpu.add(1.0, 1.0);
            }
            assert!(
                at_boundary > 0,
                "dvfs seed {seed}: no window met a boundary"
            );
        }
        // Zero-rate constant specs are exact forever.
        let zero = NoisyFpu::new(FaultRate::ZERO, BitFaultModel::emulated(), 2);
        assert_eq!(zero.run_exact(u64::MAX), u64::MAX);
    }

    #[test]
    fn one_window_spans_a_dirty_overwrite_and_a_silent_strike() {
        let spec = FaultModelSpec::array_resident(16, BitFaultModel::emulated(), 0);
        let mut fpu = NoisyFpu::new(FaultRate::per_flop(0.1), spec, 3);
        // Step op by op to a window that overwrites a corrupted word and
        // takes a strike, neither of which ends it any more.
        let (window, before) = loop {
            let flop = fpu.flops();
            let window = fpu.run_exact(u64::MAX);
            let masks = fpu.memory_state().expect("memory spec").masks().to_vec();
            let overwrites = (flop..flop + window).any(|f| masks[(f % 16) as usize] != 0);
            let mut probe = fpu.clone();
            probe.commit_exact(window);
            if overwrites && probe.faults() > fpu.faults() {
                break (window, fpu.clone());
            }
            fpu.add(1.0, 1.0);
            assert!(fpu.flops() < 100_000, "no such window");
        };
        let mut fast = before.clone();
        fast.commit_exact(window);
        let mut slow = before;
        slow.set_batching(false);
        for _ in 0..window {
            slow.add(1.0, 1.0);
        }
        let masks = |fpu: &NoisyFpu| fpu.memory_state().expect("memory spec").masks().to_vec();
        assert_eq!(masks(&fast), masks(&slow));
        assert_eq!(fast.stats(), slow.stats());
        assert_eq!(fast.faults(), slow.faults());
        // Both run on identically: the op after the window reads damage.
        let a: Vec<u64> = (0..256)
            .map(|i| fast.mul(1.5, i as f64).to_bits())
            .collect();
        let b: Vec<u64> = (0..256)
            .map(|i| slow.mul(1.5, i as f64).to_bits())
            .collect();
        assert_eq!(a, b);
        assert_eq!(masks(&fast), masks(&slow));
        assert_eq!(fast.stats(), slow.stats());
    }

    /// A memory spec run op by op from its documented semantics: a scrub
    /// boundary clears every mask, the op reads (array-resident) or
    /// writes through (register file) storage, an array-resident result
    /// overwrites its word, and a strike on the op draws its next
    /// interval, then its slot, then its bit.
    struct MemoryReference {
        model: MemoryFaultModel,
        lfsr: Lfsr,
        bound: u64,
        next_strike: u64,
        masks: Vec<u64>,
        stats: FaultStats,
        flop: u64,
    }

    impl MemoryReference {
        fn new(rate: FaultRate, model: MemoryFaultModel, seed: u64) -> Self {
            let mut lfsr = Lfsr::new(seed);
            let bound = interval_bound(rate);
            let next_strike = lfsr.uniform_1_to(bound) - 1;
            let masks = vec![0; model.slots()];
            MemoryReference {
                model,
                lfsr,
                bound,
                next_strike,
                masks,
                stats: FaultStats::default(),
                flop: 0,
            }
        }

        fn add(&mut self, a: f64, b: f64) -> f64 {
            use crate::memory::MemoryFaultKind;
            let f = self.flop;
            self.flop += 1;
            let scrub = self.model.scrub_interval();
            if scrub > 0 && f > 0 && f.is_multiple_of(scrub) {
                self.masks.fill(0);
            }
            let n = self.masks.len() as u64;
            let slot = |word: u64| (word % n) as usize;
            let width = self.model.bits().width();
            let value = match self.model.kind() {
                MemoryFaultKind::RegisterFile => width.xor(a + b, self.masks[slot(f)]),
                MemoryFaultKind::ArrayResident => {
                    let a = width.xor(a, self.masks[slot(2 * f)]);
                    let b = width.xor(b, self.masks[slot(2 * f + 1)]);
                    self.masks[slot(f)] = 0;
                    a + b
                }
            };
            if f == self.next_strike {
                self.next_strike = f + self.lfsr.uniform_1_to(self.bound);
                let struck = self.lfsr.uniform_1_to(n) - 1;
                let bit = self.model.bits().sample_bit(&mut self.lfsr);
                self.masks[struck as usize] |= 1 << bit;
                self.stats.record_fault(width, bit);
            }
            value
        }
    }

    #[test]
    fn strikes_that_heal_unread_stop_the_horizon_after_max_drawn() {
        let bits = BitFaultModel::emulated();
        let rate = FaultRate::per_flop(0.5);
        let models = [
            // A scrub at every op: no damage is ever read.
            MemoryFaultModel::register_file(8, bits.clone(), 1),
            MemoryFaultModel::array_resident(16, bits.clone(), 1),
            // Some damage read, most healed first.
            MemoryFaultModel::array_resident(7, bits.clone(), 3),
            MemoryFaultModel::register_file(5, bits.clone(), 2),
        ];
        for model in models {
            let name = model.name();
            let spec = FaultModelSpec::Memory {
                model: model.clone(),
            };
            let mut reference = MemoryReference::new(rate, model.clone(), 5);
            let mut fast = NoisyFpu::new(rate, spec, 5);
            let mut slow = fast.clone();
            slow.set_batching(false);
            let masks = |fpu: &NoisyFpu| fpu.memory_state().expect("memory spec").masks().to_vec();
            let mut capped = 0;
            while fast.flops() < 20_000 {
                let window = fast.run_exact(u64::MAX);
                // The cap is the only bound on a spec whose damage heals
                // unread: at 0.5 strikes fall 1 to 3 ops apart, and the
                // horizon stops at the strike after the last one drawn.
                if model.scrub_interval() == 1 {
                    assert!(window <= 3 * (MAX_DRAWN as u64 + 1), "{name}: {window}");
                }
                capped += usize::from(window > 64);
                let window = window.min(20_000 - fast.flops());
                fast.commit_exact(window);
                for _ in 0..window {
                    slow.add(1.0, 1.0);
                    reference.add(1.0, 1.0);
                }
                let (a, b) = (1.5 + window as f64, 0.25);
                let want = reference.add(a, b).to_bits();
                assert_eq!(fast.add(a, b).to_bits(), want, "{name}");
                assert_eq!(slow.add(a, b).to_bits(), want, "{name}");
                for fpu in [&fast, &slow] {
                    assert_eq!(fpu.flops(), reference.flop, "{name}");
                    assert_eq!(fpu.stats(), reference.stats, "{name}");
                    assert_eq!(fpu.faults(), reference.stats.faults(), "{name}");
                    assert_eq!(masks(fpu), reference.masks, "{name}");
                }
            }
            assert!(reference.stats.faults() > 9_000, "{name}");
            if model.scrub_interval() == 1 {
                assert!(capped >= 8, "{name}: {capped} capped windows");
            }
        }
    }

    #[test]
    fn disabling_batching_forces_the_per_op_path_with_identical_results() {
        // 64 rows over 64 columns: short rows of 0–6 entries, and every
        // 16th row of 35.
        let mut row_ptr = vec![0];
        let mut cols = Vec::new();
        for i in 0..64 {
            let nnz = if i % 16 == 5 { 35 } else { i % 7 };
            // Strictly increasing columns, as `csr_matvec_t` requires.
            let mut row: Vec<usize> = (0..nnz).map(|k| (i + 3 * k) % 64).collect();
            row.sort_unstable();
            cols.extend(row);
            row_ptr.push(cols.len());
        }
        // Tenths round, so a native row summed out of order changes bits.
        let vals: Vec<f64> = (0..cols.len()).map(|k| 0.5 + k as f64 * 0.1).collect();
        let x: Vec<f64> = (0..64).map(|i| 1.5 - i as f64 * 0.125).collect();
        // Sparse enough strikes that windows hold whole 70-FLOP rows.
        let mut fast = NoisyFpu::new(FaultRate::per_flop(0.005), BitFaultModel::emulated(), 41);
        let mut slow = fast.clone();
        slow.set_batching(false);
        assert!(fast.batching() && !slow.batching());
        assert_eq!(slow.run_exact(100), 0);
        // Every NaN as one value: the native rows and the per-op path may
        // keep different payloads, which no fault can observe.
        let bits = |v: &[f64]| {
            v.iter()
                .map(|f| {
                    if f.is_nan() {
                        CANONICAL_NAN
                    } else {
                        f.to_bits()
                    }
                })
                .collect::<Vec<_>>()
        };
        for _ in 0..4 {
            let (mut yf, mut ys) = (vec![0.0; 64], vec![0.0; 64]);
            fast.csr_matvec(&row_ptr, &cols, &vals, &x, &mut yf);
            slow.csr_matvec(&row_ptr, &cols, &vals, &x, &mut ys);
            assert_eq!(bits(&yf), bits(&ys));
            let (mut of, mut os) = (vec![1.0; 64], vec![1.0; 64]);
            fast.csr_matvec_t(&row_ptr, &cols, &vals, &x, &mut of);
            slow.csr_matvec_t(&row_ptr, &cols, &vals, &x, &mut os);
            assert_eq!(bits(&of), bits(&os));
            assert_eq!(fast.flops(), slow.flops());
            assert_eq!(fast.stats(), slow.stats());
        }
        assert!(fast.faults() > 0, "the products must take strikes");
    }

    #[test]
    fn mean_interval_statistics() {
        // With rate 0.02 the mean gap between faults should be ~50 FLOPs.
        let mut fpu = NoisyFpu::new(FaultRate::per_flop(0.02), BitFaultModel::emulated(), 21);
        let n = 500_000;
        for _ in 0..n {
            fpu.add(1.0, 1.0);
        }
        let mean_gap = n as f64 / fpu.faults() as f64;
        assert!((mean_gap - 50.0).abs() < 5.0, "mean gap {mean_gap}");
    }
}
