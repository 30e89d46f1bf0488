//! Proof that vector payloads at the inline cap keep the steady-state
//! round loop allocation-free.
//!
//! The twin of `alloc_free.rs` for the vector fast path: a PCF run over
//! `InlineVec` payloads of dim 16 (exactly `INLINE_CAP` — the widest
//! payload the inline representation carries). With masses inline, flows
//! in the SoA banks, and wire buffers recycled through
//! `Protocol::reclaim`, 1000 post-warmup rounds must perform exactly zero
//! heap allocations.
//!
//! Arming is thread-local: libtest's main thread can be preempted into
//! the counting window on a loaded single-core host, and its mpmc
//! event-channel waker allocates lazily. Only the measuring thread's
//! allocations may count.

use gr_bench::vector_fixture;
use gr_netsim::{FaultPlan, Simulator};
use gr_reduction::{PushCancelFlow, INLINE_CAP};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Forwards to [`System`], counting `alloc`/`realloc` calls made by the
/// thread that armed it.
struct CountingAlloc;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Whether the current thread armed the counter. `try_with` (not `with`)
/// so allocations during TLS teardown never panic inside the allocator.
fn armed() -> bool {
    ARMED.try_with(Cell::get).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if armed() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if armed() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_vector_rounds_do_not_allocate() {
    let (g, data) = vector_fixture(6, INLINE_CAP, 1);
    let mut sim = Simulator::new(&g, PushCancelFlow::new(&g, &data), FaultPlan::none(), 1);

    // Warm-up: grow the delivery buckets and per-protocol wire-buffer
    // pools to steady-state capacity and let the PCF fold handshake
    // settle into its periodic regime. The print forces the harness's
    // lazily-created output-capture buffer to allocate before the
    // counter arms.
    println!("warming up");
    sim.run(64);

    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.with(|a| a.set(true));
    sim.run(1000);
    ARMED.with(|a| a.set(false));

    let n = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        n, 0,
        "steady-state vector hot loop performed {n} heap allocations"
    );
    assert_eq!(sim.stats().rounds, 1064);
}
