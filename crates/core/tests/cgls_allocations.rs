//! CGLS holds its working vectors for the whole solve: the number of
//! vector-sized allocations `run_cgls` makes does not grow with the
//! iteration budget.
//!
//! A counting global allocator tallies, per thread, every allocation of
//! at least one vector (`n · 8` bytes). This file holds one test, so no
//! other test's allocations share its process.

use robustify_core::{run_cgls, SolverSpec};
use robustify_linalg::CsrMatrix;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use stochastic_fpu::{BitFaultModel, FaultModelSpec, FaultRate, Fpu, NoisyFpu, ReliableFpu};

thread_local! {
    /// Allocations of at least this many bytes count on this thread (0:
    /// counting is off).
    static THRESHOLD: Cell<usize> = const { Cell::new(0) };
    static COUNT: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

impl Counting {
    fn note(size: usize) {
        // `try_with`: the allocator also runs while thread-locals are torn
        // down, when counting is over anyway.
        let _ = THRESHOLD.try_with(|t| {
            if t.get() != 0 && size >= t.get() {
                COUNT.with(|c| c.set(c.get() + 1));
            }
        });
    }
}

// SAFETY: every call forwards to `System` unchanged; `note` only touches
// const-initialized thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The vector-sized allocations `solve` makes on this thread.
fn vector_allocations(bytes: usize, solve: impl FnOnce()) -> usize {
    COUNT.with(|c| c.set(0));
    THRESHOLD.with(|t| t.set(bytes));
    solve();
    THRESHOLD.with(|t| t.set(0));
    COUNT.with(Cell::get)
}

/// The five-point Laplacian on a `grid × grid` interior grid.
fn poisson(grid: usize) -> CsrMatrix {
    let n = grid * grid;
    let mut triplets = Vec::new();
    for i in 0..n {
        let (r, c) = (i / grid, i % grid);
        triplets.push((i, i, 4.0));
        if r > 0 {
            triplets.push((i, i - grid, -1.0));
        }
        if c > 0 {
            triplets.push((i, i - 1, -1.0));
        }
        if c + 1 < grid {
            triplets.push((i, i + 1, -1.0));
        }
        if r + 1 < grid {
            triplets.push((i, i + grid, -1.0));
        }
    }
    CsrMatrix::from_triplets(n, n, &triplets).expect("stencil indices are in bounds")
}

#[test]
fn cgls_vector_allocations_do_not_grow_with_the_budget() {
    let a = poisson(16);
    let n = a.cols();
    let b: Vec<f64> = (0..n)
        .map(|i| ((i * 37) % 11) as f64 * 0.25 - 1.0)
        .collect();
    let noisy = || {
        NoisyFpu::new(
            FaultRate::per_flop(1e-3),
            FaultModelSpec::array_resident(64, BitFaultModel::emulated(), 0),
            5,
        )
    };
    let mut counts = Vec::new();
    for budget in [12, 48] {
        let spec = SolverSpec::cg(budget).with_restart(4);
        let mut reliable = ReliableFpu::new();
        let mut faulty = noisy();
        let runs = [
            vector_allocations(n * 8, || {
                let report = run_cgls(&spec, &a, &b, &mut reliable);
                assert_eq!(report.iterations, budget, "the whole budget runs");
            }),
            vector_allocations(n * 8, || {
                run_cgls(&spec, &a, &b, &mut faulty);
            }),
        ];
        assert!(faulty.faults() > 0, "the noisy run must fault");
        counts.push(runs);
    }
    assert!(
        counts[0][0] > 0,
        "the counter must see the solver's vectors"
    );
    assert_eq!(
        counts[0], counts[1],
        "vector allocations at budgets 12 and 48 (reliable, noisy)"
    );
}
