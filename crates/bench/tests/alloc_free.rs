//! Proof that the round engines' steady-state loops are allocation-free.
//!
//! A counting shim around the system allocator is installed as the global
//! allocator for this binary; each case warms a fault-free PCF run past
//! the transient — delivery buckets, lanes and pick buffers at capacity,
//! believed lists built, the protocol converged into its fold steady
//! state — then counts heap traffic across 1000 further rounds. The count
//! must be exactly zero: one stray `Vec` in the per-message path would
//! show up here as thousands of allocations.
//!
//! The cases cover the classic simulator, the partitioned simulator on
//! two worker threads and a two-worker `BatchSim`. The parallel cases run
//! protocol hooks on the worker pool's threads, so the counter is
//! process-wide, and the binary runs without the libtest harness
//! (`harness = false`): libtest's main thread waits out each test on an
//! mpmc event channel whose waker registration allocates lazily, and on a
//! loaded host that re-park can be preempted into the counting window.
//! Here the only threads are the measuring one and the pool workers.

use gr_batch::{BatchHost, BatchOptions, BatchSim, TenantSpec};
use gr_netsim::{FaultPlan, SimOptions, Simulator};
use gr_reduction::{AggregateKind, InitialData, PushCancelFlow};
use gr_topology::hypercube;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Forwards to [`System`], counting `alloc`/`realloc` calls made while
/// armed.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Heap allocations, on any thread, during 1000 calls of `round`.
fn allocs_over_1000_rounds(mut round: impl FnMut()) -> u64 {
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    for _ in 0..1000 {
        round();
    }
    ARMED.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst)
}

fn steady_state_rounds_do_not_allocate() {
    let g = hypercube(6);
    let data = InitialData::uniform_random(g.len(), AggregateKind::Average, 1);
    let mut sim = Simulator::new(&g, PushCancelFlow::new(&g, &data), FaultPlan::none(), 1);

    // Warm-up: grow the delivery buckets to their steady-state capacity
    // and let the PCF fold handshake settle into its periodic regime.
    sim.run(64);

    let n = allocs_over_1000_rounds(|| sim.step());
    assert_eq!(n, 0, "steady-state hot loop performed {n} heap allocations");
    // The rounds actually ran.
    assert_eq!(sim.stats().rounds, 1064);
}

fn partitioned_rounds_on_two_workers_do_not_allocate() {
    let g = hypercube(10);
    let data = InitialData::uniform_random(g.len(), AggregateKind::Average, 2);
    let opts = SimOptions {
        partitions: 2,
        threads: 2,
        ..SimOptions::default()
    };
    let pcf = PushCancelFlow::new(&g, &data);
    let mut sim = Simulator::with_options(&g, pcf, FaultPlan::none(), 2, opts);
    sim.run(64);

    let n = allocs_over_1000_rounds(|| sim.step());
    assert_eq!(n, 0, "partitioned rounds performed {n} heap allocations");
    assert_eq!(sim.partitions(), 2);
    assert_eq!(sim.stats().rounds, 1064);
}

fn batch_rounds_on_two_workers_do_not_allocate() {
    let specs: Vec<TenantSpec> = (0..16)
        .map(|t| {
            let g = hypercube(5);
            let values = (0..g.len())
                .map(|i| (i * 7 % 11) as f64 + t as f64)
                .collect();
            TenantSpec::clean(g, 100 + t as u64, values, 10_000)
        })
        .collect();
    let host = BatchHost::assemble(&specs).expect("valid batch");
    let data = host.union_data(&specs);
    let pcf = PushCancelFlow::new(host.graph(), &data);
    let opts = BatchOptions {
        threads: 2,
        ..BatchOptions::default()
    };
    let mut sim = BatchSim::new(&host, pcf, &specs, opts).expect("valid options");
    sim.run(64);

    let n = allocs_over_1000_rounds(|| sim.step_round());
    assert_eq!(n, 0, "batch rounds performed {n} heap allocations");
    assert_eq!(sim.workers(), 2);
    assert_eq!(sim.round(), 1064);
}

fn main() {
    let cases: [(&str, fn()); 3] = [
        (
            "steady_state_rounds_do_not_allocate",
            steady_state_rounds_do_not_allocate,
        ),
        (
            "partitioned_rounds_on_two_workers_do_not_allocate",
            partitioned_rounds_on_two_workers_do_not_allocate,
        ),
        (
            "batch_rounds_on_two_workers_do_not_allocate",
            batch_rounds_on_two_workers_do_not_allocate,
        ),
    ];
    for (name, case) in cases {
        case();
        println!("test {name} ... ok");
    }
}
