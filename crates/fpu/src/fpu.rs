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
use core::ops::{Add, Sub};

/// Number of independent accumulator lanes a long reduction splits into
/// (see [`LANE_REDUCTION_MIN`]) so the compiler can autovectorize its
/// fault-free fast lane. It is not an unroll factor: the element-wise
/// batch kernels run their fast lane as plain loops.
pub const LANE_WIDTH: usize = 8;

/// Reductions shorter than this keep the historical single-accumulator
/// expansion (`acc = add(acc, p)` per element); from this length on,
/// [`Fpu::gemv_row`] / [`Fpu::dot_batch`] / [`Fpu::dot_sub_batch`] use the
/// lane-indexed expansion documented on those kernels. The threshold keeps
/// the paper-scale small kernels (5-element sorts, 8×8 eigen problems,
/// 10-column least squares rows) on their historical FLOP sequence while
/// long reductions (residual norms, Gram columns, QR reflections) gain the
/// vectorizable lanes.
pub const LANE_REDUCTION_MIN: usize = 32;

/// FLOPs of the lane pairwise-combine tree: `LANE_WIDTH − 1` additions.
const COMBINE_FLOPS: u64 = (LANE_WIDTH - 1) as u64;

/// The element-wise driver every in-place batch kernel runs on:
/// `y[k] ← elem(y[k], [xs[0][k], …])` for each `k` in order.
///
/// A kernel writes its element expression twice: `native` in pure `f64`
/// arithmetic for the guaranteed-exact ranges
/// [`with_exact_windows`](Fpu::with_exact_windows) grants, and `through`
/// on the FPU (`flops_per_elem` FLOPs) for the elements at window
/// boundaries. The two must issue the same operations in the same operand
/// order; the lanes and the window math live here once.
///
/// # Panics
///
/// Panics with "`kernel` operands differ in length" unless every input is
/// as long as `y`.
fn zip_update<F: Fpu, const N: usize>(
    fpu: &mut F,
    kernel: &str,
    flops_per_elem: u64,
    xs: [&[f64]; N],
    y: &mut [f64],
    native: impl Fn(f64, [f64; N]) -> f64,
    through: impl Fn(&mut F, f64, [f64; N]) -> f64,
) {
    assert!(
        xs.iter().all(|x| x.len() == y.len()),
        "{kernel} operands differ in length"
    );
    fpu.with_exact_windows(y.len(), flops_per_elem, |fpu, range, exact| {
        if exact {
            // Every input re-sliced to exactly `ys.len()`, so the compiler
            // can drop the loop's bounds checks.
            let ys = &mut y[range.clone()];
            let n = ys.len();
            let xs = xs.map(|x| &x[range.clone()][..n]);
            for k in 0..n {
                ys[k] = native(ys[k], xs.map(|x| x[k]));
            }
        } else {
            let k = range.start; // a strike-lane range is one element
            y[k] = through(fpu, y[k], xs.map(|x| x[k]));
        }
    });
}

/// The product-reduction driver behind [`Fpu::gemv_row`],
/// [`Fpu::dot_batch`] and [`Fpu::dot_sub_batch`]: folds
/// `p = mul(x[k], y[k])` into an accumulator started at `init`, with the
/// combining operation (`add` or `sub`) written twice, `native` and
/// `through` the FPU.
///
/// Below [`LANE_REDUCTION_MIN`] elements it is one chain,
/// `acc = combine(acc, p)` per element. From there on the products
/// accumulate into [`LANE_WIDTH`] lanes (`lane[k % LANE_WIDTH] =
/// add(lane[k % LANE_WIDTH], p)`), the lanes pairwise-combine to `s`
/// ([`combine_lanes`]), and the result is `combine(init, s)` on the FPU.
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
    native: impl Fn(f64, f64) -> f64,
    through: impl Fn(&mut F, f64, f64) -> f64,
) -> f64 {
    assert!(x.len() == y.len(), "{kernel} operands differ in length");
    if x.len() < LANE_REDUCTION_MIN {
        let mut acc = init;
        fpu.with_exact_windows(x.len(), 2, |fpu, range, exact| {
            if exact {
                for (&a, &b) in x[range.clone()].iter().zip(&y[range]) {
                    acc = native(acc, a * b);
                }
            } else {
                let p = fpu.mul(x[range.start], y[range.start]);
                acc = through(fpu, acc, p);
            }
        });
        return acc;
    }
    let mut lanes = [0.0f64; LANE_WIDTH];
    fpu.with_exact_windows(x.len(), 2, |fpu, range, exact| {
        if exact {
            let start = range.start;
            lanes_accumulate(&mut lanes, &x[range.clone()], &y[range], start);
        } else {
            let k = range.start;
            let p = fpu.mul(x[k], y[k]);
            lanes[k % LANE_WIDTH] = fpu.add(lanes[k % LANE_WIDTH], p);
        }
    });
    let s = combine_lanes(fpu, &lanes);
    through(fpu, init, s)
}

/// Native lane accumulation over one guaranteed-fault-free range of a
/// reduction: element `start + i` multiplies into lane
/// `(start + i) % LANE_WIDTH`, exactly as the per-op lane expansion does.
/// `x`/`y` are the range's slices; `start` fixes the lane phase. The
/// aligned middle runs as an 8-wide microkernel over independent lanes, so
/// the compiler is free to vectorize it — every lane is its own serial
/// FP-addition chain, and chains on different lanes never interact, so the
/// result bits cannot depend on how the lanes are interleaved.
fn lanes_accumulate(lanes: &mut [f64; LANE_WIDTH], x: &[f64], y: &[f64], start: usize) {
    let misalign = start % LANE_WIDTH;
    let lead = if misalign == 0 {
        0
    } else {
        (LANE_WIDTH - misalign).min(x.len())
    };
    for i in 0..lead {
        lanes[(start + i) % LANE_WIDTH] += x[i] * y[i];
    }
    let mut xc = x[lead..].chunks_exact(LANE_WIDTH);
    let mut yc = y[lead..].chunks_exact(LANE_WIDTH);
    for (xa, ya) in (&mut xc).zip(&mut yc) {
        for j in 0..LANE_WIDTH {
            lanes[j] += xa[j] * ya[j];
        }
    }
    // The tail starts lane-aligned, so tail element j belongs to lane j.
    for (j, (&a, &b)) in xc.remainder().iter().zip(yc.remainder()).enumerate() {
        lanes[j] += a * b;
    }
}

/// Pairwise lane combine, through the FPU: `t_j = add(lane_j, lane_{j+4})`
/// for `j = 0..4`, `u_j = add(t_j, t_{j+2})` for `j = 0..2`, then
/// `s = add(u_0, u_1)` — `LANE_WIDTH − 1` additions in that fixed order,
/// on the skip-ahead fast path whenever the schedule guarantees them
/// fault-free.
fn combine_lanes<F: Fpu>(fpu: &mut F, lanes: &[f64; LANE_WIDTH]) -> f64 {
    fn tree(l: &[f64; LANE_WIDTH], mut add: impl FnMut(f64, f64) -> f64) -> f64 {
        let t0 = add(l[0], l[4]);
        let t1 = add(l[1], l[5]);
        let t2 = add(l[2], l[6]);
        let t3 = add(l[3], l[7]);
        let u0 = add(t0, t2);
        let u1 = add(t1, t3);
        add(u0, u1)
    }
    if fpu.run_exact(COMBINE_FLOPS) == COMBINE_FLOPS {
        let s = tree(lanes, |a, b| a + b);
        fpu.commit_exact(COMBINE_FLOPS);
        s
    } else {
        tree(lanes, |a, b| fpu.add(a, b))
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
/// # Batched execution and the bit-identity contract
///
/// The paper's injector draws the *interval between* faults from an LFSR,
/// so an FPU knows exactly how many upcoming FLOPs are guaranteed exact.
/// The [`run_exact`](Self::run_exact) / [`commit_exact`](Self::commit_exact)
/// pair exposes that window, and the provided batch kernels
/// ([`dot_batch`](Self::dot_batch), [`axpy_batch`](Self::axpy_batch),
/// [`scale_batch`](Self::scale_batch), [`gemv_row`](Self::gemv_row), …)
/// split into two lanes around it: a **fault-free fast lane** — plain
/// loops of pure `f64` arithmetic with no `Fpu` dispatch and no countdown
/// checks, entered for every span `run_exact` guarantees strike-free
/// (remainders included) and accounted with a single `commit_exact` bump —
/// and a **scalar strike lane** that runs only the window boundaries, one
/// element at a time, through the per-op [`execute`](Self::execute)
/// expansion. Long reductions additionally split their accumulator into
/// [`LANE_WIDTH`] independent lanes (see [`LANE_REDUCTION_MIN`]) so the
/// fast lane autovectorizes.
///
/// Every batch kernel documents its exact per-op expansion and is
/// **bit-identical** to issuing that expansion through `execute` one
/// operation at a time: same results, same FLOP count, same LFSR draw
/// sequence, same strike indices, same fault statistics. Implementors only
/// ever override `run_exact`/`commit_exact`; the element-wise kernels
/// share one driver and the short reductions another, each owning both
/// lanes, so the equivalence holds by construction (and the `stochastic_fpu` batch
/// proptests pin it for every shipped fault-model spec).
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
    /// exactly — no fault strike, no per-op injector state (DVFS Bernoulli
    /// draws, corrupted memory-persistent shadow storage) — so a caller may
    /// compute them natively and account for them with
    /// [`commit_exact`](Self::commit_exact).
    ///
    /// The default is the conservative `0` ("no guarantee; go through
    /// `execute`"), which keeps any third-party implementor correct
    /// without changes. The window must stay valid until the next
    /// `execute`/`commit_exact` call on this FPU.
    fn run_exact(&self, max: u64) -> u64 {
        let _ = max;
        0
    }

    /// Accounts for `n` FLOPs the caller executed natively inside a window
    /// previously granted by [`run_exact`](Self::run_exact): bumps the
    /// FLOP counter and advances the fault schedule by `n` operations
    /// without touching the LFSR (no draws happen on fault-free ops).
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the currently guaranteed-exact window.
    fn commit_exact(&mut self, n: u64) {
        assert_eq!(
            n, 0,
            "commit_exact({n}) without a run_exact window (default implementation \
             guarantees no exact FLOPs)"
        );
    }

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

    /// Drives a fixed-cost-per-element kernel through the guaranteed-exact
    /// window machinery — the one skeleton under the batch kernels' two
    /// drivers, and under downstream strided kernels that fit no slice
    /// kernel (the Householder reflections, the doubly stochastic
    /// gradient).
    ///
    /// `body(fpu, range, exact)` is invoked over consecutive element
    /// ranges covering `0..n` in order. When `exact` is `true` the range
    /// is guaranteed fault-free (`flops_per_elem` FLOPs per element):
    /// compute it natively and do **not** touch `fpu` — the FLOPs are
    /// committed automatically afterwards. When `exact` is `false` the
    /// range is a single element that must run through the per-op
    /// [`execute`](Self::execute) expansion on `fpu`.
    ///
    /// Keeping the window arithmetic here is what makes the bit-identity
    /// contract a single-owner property: a kernel can only choose its two
    /// loop bodies, never its own window math.
    fn with_exact_windows<B>(&mut self, n: usize, flops_per_elem: u64, mut body: B)
    where
        Self: Sized,
        B: FnMut(&mut Self, core::ops::Range<usize>, bool),
    {
        let mut i = 0;
        while i < n {
            let safe = (self.run_exact((n - i) as u64 * flops_per_elem) / flops_per_elem) as usize;
            if safe == 0 {
                body(self, i..i + 1, false);
                i += 1;
            } else {
                body(self, i..i + safe, true);
                self.commit_exact(safe as u64 * flops_per_elem);
                i += safe;
            }
        }
    }

    /// Inner product with an initial accumulator: one row of a
    /// matrix–vector product, `init + Σᵢ row[i]·x[i]`.
    ///
    /// Bit-identical per-op expansion. Below [`LANE_REDUCTION_MIN`]
    /// elements, for each `i` in order: `p = mul(row[i], x[i]);
    /// acc = add(acc, p)` starting from `acc = init` — 2 FLOPs per
    /// element. From [`LANE_REDUCTION_MIN`] elements on, the accumulator
    /// splits into [`LANE_WIDTH`] independent lanes so the fault-free fast
    /// lane autovectorizes: for each `i` in order `p = mul(row[i], x[i]);
    /// lane[i % LANE_WIDTH] = add(lane[i % LANE_WIDTH], p)`, then the
    /// lanes pairwise-combine (`t_j = add(lane_j, lane_{j+4})`,
    /// `u_j = add(t_j, t_{j+2})`, `s = add(u_0, u_1)`) and
    /// `acc = add(init, s)`.
    ///
    /// # FLOP accounting
    ///
    /// 2 FLOPs per element (`mul` + `add`); `2·n` total below
    /// [`LANE_REDUCTION_MIN`], `2·n + LANE_WIDTH` from there on (the
    /// pairwise lane combine plus the `init` add).
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    fn gemv_row(&mut self, init: f64, row: &[f64], x: &[f64]) -> f64
    where
        Self: Sized,
    {
        reduce(self, "gemv_row", init, row, x, Add::add, Self::add)
    }

    /// Inner product `Σᵢ x[i]·y[i]` (zero-initialized [`gemv_row`]).
    ///
    /// Bit-identical per-op expansion: exactly [`gemv_row`] with
    /// `init = 0.0` — `p = mul(x[i], y[i])` per element, accumulated
    /// single-chain below [`LANE_REDUCTION_MIN`] elements and lane-indexed
    /// (with the pairwise combine and the final `add(0.0, s)`) from there
    /// on.
    ///
    /// [`gemv_row`]: Self::gemv_row
    ///
    /// # FLOP accounting
    ///
    /// Identical to [`gemv_row`](Self::gemv_row): `2·n` FLOPs below
    /// [`LANE_REDUCTION_MIN`], `2·n + LANE_WIDTH` from there on.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    fn dot_batch(&mut self, x: &[f64], y: &[f64]) -> f64
    where
        Self: Sized,
    {
        reduce(self, "dot_batch", 0.0, x, y, Add::add, Self::add)
    }

    /// Subtractive inner product `init − Σᵢ x[i]·y[i]` — the inner loop of
    /// triangular substitution and Cholesky.
    ///
    /// Bit-identical per-op expansion. Below [`LANE_REDUCTION_MIN`]
    /// elements, for each `i` in order: `p = mul(x[i], y[i]);
    /// acc = sub(acc, p)` — 2 FLOPs per element. From
    /// [`LANE_REDUCTION_MIN`] elements on, the products accumulate into
    /// [`LANE_WIDTH`] lanes exactly as in [`gemv_row`](Self::gemv_row)
    /// (`lane[i % LANE_WIDTH] = add(lane[i % LANE_WIDTH], p)`, pairwise
    /// combine to `s`) and the result is `acc = sub(init, s)`.
    ///
    /// # FLOP accounting
    ///
    /// 2 FLOPs per element (`mul` + `sub`/`add`); `2·n` total below
    /// [`LANE_REDUCTION_MIN`], `2·n + LANE_WIDTH` from there on.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    fn dot_sub_batch(&mut self, init: f64, x: &[f64], y: &[f64]) -> f64
    where
        Self: Sized,
    {
        reduce(self, "dot_sub_batch", init, x, y, Sub::sub, Self::sub)
    }

    /// In-place `y ← α x + y` with the scalar as the first multiplicand.
    ///
    /// Bit-identical per-op expansion, for each `i` in order:
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
        zip_update(
            self,
            "axpy_batch",
            2,
            [x],
            y,
            |y, [x]| y + alpha * x,
            |fpu, y, [x]| {
                let p = fpu.mul(alpha, x);
                fpu.add(y, p)
            },
        );
    }

    /// One row update of a transposed matrix–vector product:
    /// `out ← out + row·scale`, with the vector element as the first
    /// multiplicand (the operand order `Aᵀy` kernels historically used —
    /// operand-side fault models are sensitive to it).
    ///
    /// Bit-identical per-op expansion, for each `i` in order:
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
        zip_update(
            self,
            "gemv_t_row",
            2,
            [row],
            out,
            |out, [r]| out + r * scale,
            |fpu, out, [r]| {
                let p = fpu.mul(r, scale);
                fpu.add(out, p)
            },
        );
    }

    /// Element-wise multiply-accumulate `y[i] ← y[i] + a[i]·b[i]` — the
    /// banded-diagonal product kernel.
    ///
    /// Bit-identical per-op expansion, for each `i` in order:
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
        zip_update(
            self,
            "fma_batch",
            2,
            [a, b],
            y,
            |y, [a, b]| y + a * b,
            |fpu, y, [a, b]| {
                let p = fpu.mul(a, b);
                fpu.add(y, p)
            },
        );
    }

    /// In-place scaling `x[i] ← α·x[i]`.
    ///
    /// Bit-identical per-op expansion, for each `i` in order:
    /// `x[i] = mul(alpha, x[i])`.
    ///
    /// # FLOP accounting
    ///
    /// 1 FLOP per element (`mul`), `n` total.
    fn scale_batch(&mut self, alpha: f64, x: &mut [f64])
    where
        Self: Sized,
    {
        zip_update(
            self,
            "scale_batch",
            1,
            [],
            x,
            |x, []| alpha * x,
            |fpu, x, []| fpu.mul(alpha, x),
        );
    }

    /// Element-wise difference `out[i] ← x[i] − y[i]` (residual kernels).
    ///
    /// Bit-identical per-op expansion, for each `i` in order:
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
        zip_update(
            self,
            "sub_batch",
            1,
            [x, y],
            out,
            |_, [x, y]| x - y,
            |fpu, _, [x, y]| fpu.sub(x, y),
        );
    }

    /// In-place element-wise subtraction `y[i] ← y[i] − x[i]` (in-place
    /// residual kernels).
    ///
    /// Bit-identical per-op expansion, for each `i` in order:
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
        zip_update(
            self,
            "sub_assign_batch",
            1,
            [x],
            y,
            |y, [x]| y - x,
            |fpu, y, [x]| fpu.sub(y, x),
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
    rate: FaultRate,
    spec: FaultModelSpec,
    lfsr: Lfsr,
    /// FLOPs remaining until the next injection (0 when rate is zero).
    countdown: u64,
    /// Upper end of the strike-interval draw, `round(2/rate − 1)` and at
    /// least 1, fixed by the effective rate (0 when rate is zero).
    interval_bound: u64,
    flops: u64,
    stats: FaultStats,
    /// Shadow storage for memory-persistent fault specs.
    memory: Option<MemoryFaultState>,
    /// Precomputed `(end_flop_exclusive, rate)` segments for DVFS specs;
    /// the last segment's rate persists past the schedule's end.
    dvfs: Option<Vec<(u64, f64)>>,
    /// Cursor into `dvfs`: index of the segment covering the current FLOP,
    /// advanced monotonically so the per-op lookup is O(1) instead of a
    /// linear re-scan of the schedule.
    dvfs_cursor: usize,
    /// Whether the countdown skip-ahead fast path is enabled (it is by
    /// default; disable for scalar-dispatch comparisons — results are
    /// bit-identical either way).
    batched: bool,
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
    /// rate its voltage implies through the Figure 5.2 model (so
    /// [`rate`](Self::rate) reports the derived rate, not the argument),
    /// and a [`FaultModelSpec::DvfsSchedule`] spec ignores `rate`
    /// entirely, re-deriving the per-FLOP rate as the schedule steps the
    /// voltage. Memory-persistent specs allocate shadow storage whose
    /// corruptions outlive the ops that suffered them (inspect it via
    /// [`memory_state`](Self::memory_state)).
    ///
    /// # Panics
    ///
    /// Panics if a combinator in the spec nests an injector-level spec
    /// (possible only for a spec assembled as an enum literal).
    pub fn new(rate: FaultRate, model: impl Into<FaultModelSpec>, seed: u64) -> Self {
        let spec = model.into();
        spec.assert_nesting();
        let rate = spec.rate_override().unwrap_or(rate);
        let memory = spec.memory_model().cloned().map(MemoryFaultState::new);
        // One source of truth for the schedule-to-rate mapping, shared
        // with `FaultModelSpec::dvfs_rate_at`.
        let dvfs = spec.dvfs_segments();
        let interval_bound = if rate.is_zero() {
            0
        } else {
            (2.0 * rate.mean_interval() - 1.0).round().max(1.0) as u64
        };
        let mut fpu = NoisyFpu {
            rate,
            spec,
            lfsr: Lfsr::new(seed),
            countdown: 0,
            interval_bound,
            flops: 0,
            stats: FaultStats::default(),
            memory,
            dvfs,
            dvfs_cursor: 0,
            batched: true,
        };
        fpu.countdown = fpu.draw_interval();
        fpu
    }

    /// The effective fault rate: the constructor argument, or the derived
    /// rate for a fixed voltage-linked spec. For a DVFS schedule this
    /// still reports the constructor argument, which the strike schedule
    /// *ignores* — per-op rates follow the voltage steps (query them via
    /// [`FaultModelSpec::dvfs_rate_at`]).
    pub fn rate(&self) -> FaultRate {
        self.rate
    }

    /// The fault-model spec in use.
    pub fn fault_model(&self) -> &FaultModelSpec {
        &self.spec
    }

    /// Detailed fault statistics.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// The shadow storage of a memory-persistent spec (`None` for
    /// transient scenarios) — which slots currently hold corrupted bits.
    pub fn memory_state(&self) -> Option<&MemoryFaultState> {
        self.memory.as_ref()
    }

    /// Resets FLOP and fault counters (the fault schedule continues).
    pub fn reset_counters(&mut self) {
        self.flops = 0;
        self.stats = FaultStats::default();
        // The DVFS schedule is indexed by the FLOP counter, which just
        // rewound to zero; rewind the segment cursor with it.
        self.dvfs_cursor = 0;
    }

    /// Enables or disables the countdown skip-ahead fast path used by the
    /// [`Fpu`] batch kernels. Results are **bit-identical** either way
    /// (the fast path only ever skips operations the schedule guarantees
    /// fault-free); disabling it forces every batched operation through
    /// the per-op [`execute`](Fpu::execute) path, which is what the
    /// throughput comparisons and the batched-vs-scalar proptests use as
    /// the reference.
    pub fn set_batching(&mut self, enabled: bool) {
        self.batched = enabled;
    }

    /// Whether the countdown skip-ahead fast path is enabled.
    pub fn batching(&self) -> bool {
        self.batched
    }

    /// Draws the number of FLOPs until the next fault: uniform on
    /// `[1, 2/rate - 1]` so the mean interval is `1/rate`, generated by the
    /// LFSR as in the paper's methodology. The bound is precomputed, so a
    /// strike costs one LFSR draw here.
    fn draw_interval(&mut self) -> u64 {
        if self.interval_bound == 0 {
            return 0;
        }
        self.lfsr.uniform_1_to(self.interval_bound)
    }

    /// Whether the fault schedule strikes at FLOP index `flop`.
    ///
    /// Constant-rate specs replay the paper's LFSR interval schedule
    /// exactly; DVFS specs draw a per-op Bernoulli at the rate of the
    /// voltage step covering `flop`, so the strike density tracks the
    /// schedule with no lag.
    fn strikes(&mut self, flop: u64) -> bool {
        if let Some(segments) = &self.dvfs {
            // Advance the cursor to the segment covering `flop`. FLOP
            // indices are monotone between counter resets, so this is
            // amortized O(1) per op (the old code re-scanned the whole
            // schedule on every FLOP). The final segment ends at
            // `u64::MAX`, which the cursor never steps past — matching
            // `dvfs_segment_rate`'s fall-through to the last rate.
            let mut cursor = self.dvfs_cursor;
            while cursor + 1 < segments.len() && flop >= segments[cursor].0 {
                cursor += 1;
            }
            let rate = segments[cursor].1;
            self.dvfs_cursor = cursor;
            return rate > 0.0 && self.lfsr.next_f64() < rate;
        }
        if self.rate.is_zero() {
            return false;
        }
        self.countdown -= 1;
        if self.countdown > 0 {
            return false;
        }
        self.countdown = self.draw_interval();
        true
    }
}

impl Fpu for NoisyFpu {
    fn execute(&mut self, op: FlopOp, a: f64, b: f64) -> f64 {
        let flop = self.flops;
        self.flops += 1;
        if let Some(memory) = &mut self.memory {
            memory.begin_op(flop);
        }
        let (a, b) = match &self.memory {
            Some(memory) => memory.load_operands(flop, a, b),
            None => (a, b),
        };
        let exact = op.exact(a, b);
        let strike = self.strikes(flop);
        // Commit through storage first (array-resident writes heal their
        // word), then install any new persistent damage — a fault lands
        // at FLOP t and is visible from FLOP t+1 on.
        match &mut self.memory {
            Some(memory) => {
                let committed = memory.commit_result(flop, exact);
                if strike {
                    memory.install(&mut self.lfsr, &mut self.stats);
                }
                committed
            }
            None if strike => {
                let ctx = FaultCtx {
                    op,
                    a,
                    b,
                    exact,
                    flop,
                };
                self.spec.corrupt(&ctx, &mut self.lfsr, &mut self.stats)
            }
            None => exact,
        }
    }

    fn flops(&self) -> u64 {
        self.flops
    }

    fn faults(&self) -> u64 {
        self.stats.faults()
    }

    /// The countdown skip-ahead window. For constant-rate specs the LFSR
    /// interval schedule says the next `countdown − 1` operations cannot
    /// strike, so they may run natively; the op the countdown expires on
    /// (and everything after it) must go through [`execute`](Fpu::execute).
    /// Memory-persistent specs get the same window while their shadow
    /// state is clean: an op on clean storage reads no corruption, writes
    /// none, heals nothing, and a scrub of clean masks is a no-op. While
    /// any slot is corrupted they report no window. DVFS schedules draw a
    /// Bernoulli from the LFSR on every op, so they are the one spec that
    /// always takes the per-op path.
    fn run_exact(&self, max: u64) -> u64 {
        if !self.batched || self.dvfs.is_some() {
            return 0;
        }
        if self
            .memory
            .as_ref()
            .is_some_and(|memory| memory.corrupted_slots() > 0)
        {
            return 0;
        }
        if self.rate.is_zero() {
            return max;
        }
        max.min(self.countdown.saturating_sub(1))
    }

    fn commit_exact(&mut self, n: u64) {
        if n == 0 {
            return;
        }
        // `run_exact(n) == n` iff the schedule still guarantees n exact
        // ops; this keeps a buggy caller from silently desynchronizing the
        // fault stream.
        assert_eq!(
            self.run_exact(n),
            n,
            "commit_exact({n}) exceeds the guaranteed-exact window"
        );
        self.flops += n;
        if !self.rate.is_zero() {
            self.countdown -= n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{BitFaultModel, BitWidth};

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
    fn voltage_linked_spec_overrides_the_constructor_rate() {
        use crate::energy::VoltageErrorModel;
        let model = VoltageErrorModel::paper_figure_5_2();
        let spec = FaultModelSpec::voltage_linked(model.clone(), 0.65);
        // The constructor rate is ignored: the voltage dictates the rate.
        let fpu = NoisyFpu::new(FaultRate::ZERO, spec, 3);
        assert_eq!(fpu.rate().fraction(), model.error_rate(0.65).min(1.0));
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
    /// time — the single-chain form below `LANE_REDUCTION_MIN` elements,
    /// the lane-indexed form (with the pairwise combine and the final
    /// `add(0.0, s)`) from there on.
    fn scalar_dot(fpu: &mut NoisyFpu, x: &[f64], y: &[f64]) -> f64 {
        if x.len() < LANE_REDUCTION_MIN {
            let mut acc = 0.0;
            for (&a, &b) in x.iter().zip(y) {
                let p = fpu.mul(a, b);
                acc = fpu.add(acc, p);
            }
            return acc;
        }
        let mut lanes = [0.0f64; LANE_WIDTH];
        for (k, (&a, &b)) in x.iter().zip(y).enumerate() {
            let p = fpu.mul(a, b);
            lanes[k % LANE_WIDTH] = fpu.add(lanes[k % LANE_WIDTH], p);
        }
        let t0 = fpu.add(lanes[0], lanes[4]);
        let t1 = fpu.add(lanes[1], lanes[5]);
        let t2 = fpu.add(lanes[2], lanes[6]);
        let t3 = fpu.add(lanes[3], lanes[7]);
        let u0 = fpu.add(t0, t2);
        let u1 = fpu.add(t1, t3);
        let s = fpu.add(u0, u1);
        fpu.add(0.0, s)
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
    fn lane_reduction_threshold_and_flop_count() {
        // Below the threshold: the historical 2-FLOPs-per-element chain.
        let mut fpu = ReliableFpu::new();
        let short = vec![1.0; LANE_REDUCTION_MIN - 1];
        assert_eq!(fpu.dot_batch(&short, &short), short.len() as f64);
        assert_eq!(fpu.flops(), 2 * (LANE_REDUCTION_MIN as u64 - 1));
        // At and above it: the lane expansion adds the combine tree and
        // the init op — `2·n + LANE_WIDTH` FLOPs.
        fpu = ReliableFpu::new();
        let long = vec![1.0; 100];
        assert_eq!(fpu.dot_batch(&long, &long), 100.0);
        assert_eq!(fpu.flops(), 2 * 100 + LANE_WIDTH as u64);
        fpu = ReliableFpu::new();
        assert_eq!(fpu.dot_sub_batch(1.0, &long, &long), -99.0);
        assert_eq!(fpu.flops(), 2 * 100 + LANE_WIDTH as u64);
    }

    #[test]
    fn kernel_flop_counts_are_exact() {
        let mut fpu = ReliableFpu::new();
        assert_eq!(fpu.dot_batch(&[], &[]), 0.0);
        assert_eq!(fpu.flops(), 0, "an empty dot costs nothing");
        assert_eq!(fpu.dot_batch(&[1.0; 10], &[2.0; 10]), 20.0);
        assert_eq!(fpu.flops(), 20, "10 muls + 10 adds");
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

    #[test]
    fn memory_specs_get_windows_only_while_clean() {
        let rate = FaultRate::per_flop(1e-4);
        let seed = 2;
        // The strike schedule does not depend on the spec: a transient FPU
        // with the same seed predicts the memory spec's first window.
        let window = NoisyFpu::new(rate, BitFaultModel::emulated(), seed).run_exact(u64::MAX);
        assert!(window > 0);
        let struck = |spec: FaultModelSpec| {
            let mut fpu = NoisyFpu::new(rate, spec, seed);
            assert_eq!(fpu.run_exact(u64::MAX), window, "a fresh spec is clean");
            fpu.commit_exact(window);
            fpu.add(1.0, 1.0);
            assert_eq!(fpu.faults(), 1, "the op after the window strikes");
            assert_eq!(fpu.run_exact(1000), 0, "dirty storage has no window");
            fpu
        };

        // Array-resident: the 8 writes after the strike overwrite every
        // word, and the window returns as soon as the struck word heals.
        let mut array = struck(FaultModelSpec::array_resident(
            8,
            BitFaultModel::emulated(),
            0,
        ));
        let mut writes = 0;
        while array.run_exact(1000) == 0 {
            assert!(writes < 8, "an overwrite heals within one pass");
            array.add(1.0, 1.0);
            writes += 1;
        }
        assert_eq!(array.faults(), 1);
        assert_eq!(array.memory_state().expect("shadow").corrupted_slots(), 0);

        // Register file: rewrites never heal latch damage, so the window
        // returns only with the scrub, 16 ops (two passes) after the
        // strike.
        let mut regfile = struck(FaultModelSpec::register_file(
            8,
            BitFaultModel::emulated(),
            window + 17,
        ));
        for _ in 0..16 {
            regfile.add(1.0, 1.0);
            assert_eq!(regfile.run_exact(1000), 0, "rewrites do not heal");
        }
        regfile.add(1.0, 1.0);
        assert_eq!(regfile.faults(), 1);
        assert!(regfile.run_exact(1000) > 0, "the scrub cleans the latches");

        // A DVFS schedule draws a Bernoulli per op.
        let dvfs = NoisyFpu::new(
            FaultRate::ZERO,
            FaultModelSpec::from_preset("dvfs").expect("shipped preset"),
            2,
        );
        assert_eq!(dvfs.run_exact(1000), 0);
        // Zero-rate constant specs are exact forever.
        let zero = NoisyFpu::new(FaultRate::ZERO, BitFaultModel::emulated(), 2);
        assert_eq!(zero.run_exact(u64::MAX), u64::MAX);
    }

    #[test]
    fn disabling_batching_forces_the_per_op_path_with_identical_results() {
        let x: Vec<f64> = (0..100).map(|i| i as f64 * 0.5).collect();
        let mut fast = NoisyFpu::new(FaultRate::per_flop(0.02), BitFaultModel::emulated(), 41);
        let mut slow = fast.clone();
        slow.set_batching(false);
        assert!(fast.batching() && !slow.batching());
        assert_eq!(slow.run_exact(100), 0);
        let mut yf = vec![1.0; 100];
        let mut ys = vec![1.0; 100];
        fast.axpy_batch(0.75, &x, &mut yf);
        slow.axpy_batch(0.75, &x, &mut ys);
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&yf), bits(&ys));
        assert_eq!(fast.flops(), slow.flops());
        assert_eq!(fast.stats(), slow.stats());
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
