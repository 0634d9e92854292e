//! The heap a factorization holds, counted at the allocator.
//!
//! An untraced run stores no spans: with the same warm solver, a run that
//! keeps no trace must peak at least one `TaskSpan` per task below a run
//! that does — on a DAG of ~89k tasks, where those spans are the one
//! piece of the heap no result needs. And the tile buffer is the result:
//! a run holds one m × n buffer, not a tile buffer with a dense output
//! beside it.
//!
//! The heap is counted at this binary's own global allocator. Its tests
//! take one lock for their whole run, so only one of them allocates while
//! it measures. Run it in release, the build the benchmark measures:
//!
//! ```text
//! cargo test --release -q --test untraced_heap
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use calu::matrix::gen;
use calu::trace::TaskSpan;
use calu::{MatrixSource, Report, Solver};

// Relaxed: the counters are statistics and publish no other data.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator with a live-byte count and a resettable peak.
struct Counting;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are passed on as they are.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are passed on as they are.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` come from a matching `alloc` above.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's obligations are passed on as they are.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static HEAP: Counting = Counting;

/// Held by each test for its whole run: the counters are process-wide.
static SERIAL: Mutex<()> = Mutex::new(());

fn one_at_a_time() -> MutexGuard<'static, ()> {
    // a failed test poisons the lock, which guards no data
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Run `f` and return how far the heap rose above its level at the
/// call, at its highest while `f` ran, with `f`'s result.
fn peak_above_baseline(f: impl FnOnce() -> Report) -> (usize, Report) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let r = f();
    (PEAK.load(Ordering::Relaxed) - base, r)
}

#[test]
fn an_untraced_run_peaks_below_a_traced_one_by_its_spans() {
    let _serial = one_at_a_time();
    // 64 × 64 tiles: ~89k tasks, lu_fine's DAG at a quarter of its
    // data. Verification stays on: its residual pass runs once every
    // task has retired — spans and all, on a traced run — and is the
    // untraced run's peak, not the DAG build. One worker, so both runs
    // pop the same tasks in the same order and every ready queue (still
    // live at the residual pass) grows to the same capacity: the spans
    // are the only bytes the two peaks can differ by.
    let solver = |trace| {
        Solver::new(MatrixSource::uniform(512, 5))
            .tile(8)
            .threads(1)
            .trace(trace)
    };
    // the first run pays every one-off allocation (topology, thread
    // bookkeeping) so neither measured run does
    drop(solver(false).run().unwrap());

    let (untraced, r) = peak_above_baseline(|| solver(false).run().unwrap());
    assert!(r.timeline.is_none());
    let tasks = r.tasks;
    assert!(tasks > 80_000, "{tasks} tasks");
    drop(r);
    let (traced, r) = peak_above_baseline(|| solver(true).run().unwrap());
    assert_eq!(r.timeline.as_ref().map(|t| t.spans().len()), Some(tasks));

    let spans = tasks * std::mem::size_of::<TaskSpan>();
    assert!(
        untraced + spans <= traced,
        "untraced peak {untraced} B + {tasks} spans ({spans} B) > traced peak {traced} B"
    );
}

#[test]
fn a_factorization_holds_one_m_by_n_buffer() {
    let _serial = one_at_a_time();
    const MIB: usize = 1 << 20;
    let (n, b) = (1024, 64);
    let f64s = std::mem::size_of::<f64>();
    // the solver owns its input, so the input sits in the baseline; at
    // 16 × 16 tiles the DAG and its queues are small next to the slack
    let solver = |threads| {
        Solver::new(MatrixSource::Dense(gen::uniform(n, n, 6)))
            .tile(b)
            .threads(threads)
            .verify(false)
    };
    // 2 threads: a 1×2 grid, whose tile columns are column-major as
    // they are; 4 threads: 2×2, where each tile column's `b`-row
    // segments are permuted in place, with no block-sized scratch
    for (threads, pr) in [(2, 1), (4, 2)] {
        let solver = solver(threads);
        assert_eq!(solver.plan().unwrap().grid.pr(), pr);
        drop(solver.run().unwrap());
        let (peak, r) = peak_above_baseline(|| solver.run().unwrap());
        assert!(r.factorization.is_some());
        let bound = n * n * f64s + 2 * MIB;
        assert!(
            peak <= bound,
            "{threads} threads: the run peaked {peak} B above its baseline, past {bound} B"
        );
    }
}
