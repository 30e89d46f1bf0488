//! A tiny persistent worker pool for the partitioned round engine.
//!
//! The round loop dispatches a handful of short parallel phases per round
//! (send, deliver, reply, detector scan). Spawning OS threads per phase —
//! or even per round via `thread::scope` — costs syscalls and heap
//! allocations in the steady state, which the simulator's zero-alloc
//! budget forbids. This pool spawns its workers once, parks them on a
//! condvar between phases, and hands each phase over as a type-erased
//! `(data, fn)` pair, so the per-phase dispatch is two mutex acquisitions
//! and zero allocations.
//!
//! Work distribution is an atomic claim counter over `0..njobs`: workers
//! (and the calling thread, which participates) grab the next unclaimed
//! job index until the range is exhausted. The caller returns only after
//! every worker has finished the phase, so the closure's borrows stay
//! valid and phases are strictly barrier-separated.
//!
//! [`PerPart`] is the state-side companion: the container every round
//! driver and parallel-safe protocol keeps its per-partition state in, so
//! that concurrent workers never write the same cache line.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// One dispatched phase: a pointer to the caller's closure plus a
/// monomorphized trampoline that invokes it for a job index.
#[derive(Clone, Copy)]
struct Job {
    data: *const (),
    call: unsafe fn(*const (), usize),
}

// SAFETY: `data` points at a `F: Fn(usize) + Sync` that outlives the
// phase (the dispatching thread blocks until all workers are done), and
// `Sync` makes shared cross-thread calls through it sound.
unsafe impl Send for Job {}

struct Ctrl {
    /// Phase generation counter; bumping it wakes the workers.
    epoch: u64,
    /// Jobs in the current phase.
    njobs: usize,
    /// The current phase's trampoline, if one is active.
    job: Option<Job>,
    /// Workers that have finished the current phase.
    done: usize,
    /// A worker's closure panicked during this phase.
    poisoned: bool,
    /// Tells workers to exit.
    shutdown: bool,
}

struct Shared {
    ctrl: Mutex<Ctrl>,
    /// Wakes workers for a new phase (or shutdown).
    work_cv: Condvar,
    /// Wakes the dispatcher when the last worker finishes a phase.
    done_cv: Condvar,
    /// Claim counter over `0..njobs` for the current phase.
    next: AtomicUsize,
}

/// Persistent fork-join pool; see the module docs.
///
/// Public (re-exported as `gr_netsim::WorkerPool`) so sibling round
/// drivers — the multi-tenant batch executor in `gr-batch` — can reuse
/// the same zero-allocation phase dispatch instead of growing a second
/// pool implementation. The contract is unchanged: `run` is a strict
/// barrier, and results must never depend on which participant claims
/// which job index.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// A pool with `threads` total participants: `threads - 1` spawned
    /// workers plus the dispatching thread itself.
    pub fn new(threads: usize) -> WorkerPool {
        let workers = threads.saturating_sub(1);
        let shared = Arc::new(Shared {
            ctrl: Mutex::new(Ctrl {
                epoch: 0,
                njobs: 0,
                job: None,
                done: 0,
                poisoned: false,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            next: AtomicUsize::new(0),
        });
        let handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Run `f(0) .. f(njobs - 1)`, distributing job indices over the pool
    /// plus the calling thread. Returns when every index has been
    /// executed to completion. Allocation-free after construction.
    ///
    /// # Panics
    /// Propagates (as a fresh panic) if `f` panicked on any thread.
    pub fn run<F: Fn(usize) + Sync>(&self, njobs: usize, f: F) {
        if self.handles.is_empty() || njobs <= 1 {
            for idx in 0..njobs {
                f(idx);
            }
            return;
        }
        unsafe fn trampoline<F: Fn(usize)>(data: *const (), idx: usize) {
            // SAFETY: `data` is the `&f` of the matching `run` call, which
            // outlives the phase per the dispatch/barrier protocol.
            unsafe { (*(data as *const F))(idx) }
        }
        let job = Job {
            data: (&raw const f).cast(),
            call: trampoline::<F>,
        };
        {
            let mut c = self.shared.ctrl.lock().unwrap();
            self.shared.next.store(0, Ordering::SeqCst);
            c.job = Some(job);
            c.njobs = njobs;
            c.done = 0;
            c.poisoned = false;
            c.epoch += 1;
            self.shared.work_cv.notify_all();
        }
        // The dispatcher claims jobs too.
        let caller_poisoned = catch_unwind(AssertUnwindSafe(|| loop {
            let idx = self.shared.next.fetch_add(1, Ordering::SeqCst);
            if idx >= njobs {
                break;
            }
            f(idx);
        }))
        .is_err();
        // Barrier: wait until every worker has retired the phase, so `f`'s
        // borrows are release-able and the next phase sees all writes.
        let mut c = self.shared.ctrl.lock().unwrap();
        while c.done < self.handles.len() {
            c = self.shared.done_cv.wait(c).unwrap();
        }
        c.job = None;
        let poisoned = c.poisoned || caller_poisoned;
        drop(c);
        if poisoned {
            panic!("worker pool job panicked");
        }
    }

    /// Total participating threads (workers + the caller).
    #[cfg(test)]
    pub(crate) fn threads(&self) -> usize {
        self.handles.len() + 1
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut c = self.shared.ctrl.lock().unwrap();
            c.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Shuttles a `&mut` round engine into pool workers as a raw pointer.
///
/// Soundness rests on the engine's phase-disjointness contract: every
/// worker dereferencing the pointer touches only state owned by its job
/// index (its partition or tenant chunk) or state that is read-only
/// during the phase, and [`WorkerPool::run`] returns only after every
/// worker has retired the phase, so the aliased `&mut`s never overlap the
/// caller's exclusive use.
pub struct SendPtr<T>(*mut T);

// SAFETY: see the type docs — the pointer is only dereferenced under the
// pool's barrier discipline.
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Wrap `ptr` for one parallel phase.
    pub fn new(ptr: *mut T) -> Self {
        SendPtr(ptr)
    }

    /// The wrapped pointer. An accessor rather than field access, so
    /// closures capture the whole `SendPtr` — edition-2021 disjoint
    /// capture of `.0` would grab the bare `*mut T`, which is
    /// deliberately not `Sync`.
    pub fn get(&self) -> *mut T {
        self.0
    }
}

/// One [`PerPart`] slot: aligned, and therefore padded, to 128 bytes —
/// two 64-byte lines, because x86 cores prefetch lines in adjacent pairs
/// and a neighbour one line away still ping-pongs.
#[derive(Clone, Debug, Default)]
#[repr(align(128))]
struct Padded<T>(T);

/// Per-partition (or per-worker) state with every slot on cache lines of
/// its own.
///
/// A plain `Vec` of small per-partition records — a stats block, a pool
/// header, a scratch mass, a lane header — packs several partitions onto
/// one line, so concurrent workers writing "their own" element still
/// invalidate each other's caches on every message (false sharing). A
/// `PerPart` stores each element in a 128-byte-aligned slot, so slot `p`
/// shares no line with slot `p ± 1`. Heap buffers an element owns (a
/// pool's backing store) are separate allocations and unaffected.
///
/// Indexing is by partition (`parts[p]`) or, for lane grids, by any
/// partition-derived index. Round drivers use it for every piece of
/// partition- or worker-owned state, and protocols that opt into
/// [`Protocol::PARALLEL_SAFE`](crate::Protocol::PARALLEL_SAFE) keep their
/// per-partition arenas in one.
#[derive(Clone, Debug)]
pub struct PerPart<T> {
    slots: Vec<Padded<T>>,
}

impl<T> PerPart<T> {
    /// `n` slots, slot `p` initialised to `f(p)`.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize) -> T) -> Self {
        PerPart {
            slots: (0..n).map(|p| Padded(f(p))).collect(),
        }
    }

    /// Grow or shrink to `n` slots, filling new ones with `f()`; existing
    /// slots keep their contents.
    pub fn resize_with(&mut self, n: usize, mut f: impl FnMut() -> T) {
        self.slots.resize_with(n, || Padded(f()));
    }

    /// The slots in index order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().map(|s| &s.0)
    }

    /// The slots in index order, mutably.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.slots.iter_mut().map(|s| &mut s.0)
    }
}

impl<T> Default for PerPart<T> {
    fn default() -> Self {
        PerPart { slots: Vec::new() }
    }
}

impl<T> std::ops::Index<usize> for PerPart<T> {
    type Output = T;
    #[inline]
    fn index(&self, p: usize) -> &T {
        &self.slots[p].0
    }
}

impl<T> std::ops::IndexMut<usize> for PerPart<T> {
    #[inline]
    fn index_mut(&mut self, p: usize) -> &mut T {
        &mut self.slots[p].0
    }
}

fn worker_loop(shared: &Shared) {
    let mut seen_epoch = 0u64;
    loop {
        let (job, njobs) = {
            let mut c = shared.ctrl.lock().unwrap();
            while c.epoch == seen_epoch && !c.shutdown {
                c = shared.work_cv.wait(c).unwrap();
            }
            if c.shutdown {
                return;
            }
            seen_epoch = c.epoch;
            (c.job.expect("epoch bumped without a job"), c.njobs)
        };
        let panicked = catch_unwind(AssertUnwindSafe(|| loop {
            let idx = shared.next.fetch_add(1, Ordering::SeqCst);
            if idx >= njobs {
                break;
            }
            // SAFETY: see `Job`.
            unsafe { (job.call)(job.data, idx) };
        }))
        .is_err();
        let mut c = shared.ctrl.lock().unwrap();
        c.done += 1;
        if panicked {
            c.poisoned = true;
        }
        shared.done_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn executes_every_job_exactly_once() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.threads(), 4);
        let hits: Vec<AtomicU64> = (0..64).map(|_| AtomicU64::new(0)).collect();
        for _ in 0..100 {
            pool.run(hits.len(), |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
        }
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 100);
        }
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.threads(), 1);
        let sum = AtomicU64::new(0);
        pool.run(8, |i| {
            sum.fetch_add(i as u64 + 1, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 36);
    }

    #[test]
    fn propagates_worker_panics() {
        let pool = WorkerPool::new(3);
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.run(16, |i| {
                if i == 7 {
                    panic!("boom");
                }
            });
        }));
        assert!(r.is_err());
        // Pool must still be usable after a poisoned phase.
        let count = AtomicUsize::new(0);
        pool.run(16, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 16);
    }

    /// Byte distance between slots `p` and `p + 1`.
    fn stride<T>(v: &PerPart<T>, p: usize) -> usize {
        (&raw const v[p + 1]) as usize - (&raw const v[p]) as usize
    }

    #[test]
    fn per_part_slots_sit_on_separate_lines() {
        // `Mass<f64>` slots are checked in gr-reduction's payload tests.
        let words = PerPart::from_fn(4, |p| p as u64);
        let pools: PerPart<Vec<u32>> = PerPart::from_fn(4, |_| Vec::new());
        for p in 0..3 {
            assert!(stride(&words, p) >= 128);
            assert!(stride(&pools, p) >= 128);
        }
        assert_eq!((&raw const words[0]) as usize % 128, 0);
    }

    #[test]
    fn per_part_resize_and_index_keep_contents() {
        let mut v = PerPart::from_fn(2, |p| vec![p; p + 1]);
        v[1].push(7);
        v.resize_with(4, || vec![9]);
        assert_eq!(v.iter().count(), 4);
        assert_eq!(v[0], vec![0]);
        assert_eq!(v[1], vec![1, 1, 7]);
        assert_eq!(v[3], vec![9]);
        v.resize_with(1, Vec::new);
        assert_eq!(v.iter().collect::<Vec<_>>(), vec![&vec![0]]);
        for s in v.iter_mut() {
            s.clear();
        }
        assert!(v[0].is_empty());
    }
}
