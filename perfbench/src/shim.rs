//! Timing shims around the program's layer boundaries.
//!
//! [`Timed`] wraps a protocol (`PushCancelFlow` here) and implements
//! every trait the engines drive it through — [`Protocol`],
//! [`ReductionProtocol`] and [`TenantProtocol`] — by forwarding, so the
//! classic, partitioned and batch engines and the per-node drivers run it
//! unchanged. [`TimedDelivery`] does the same for a [`Delivery`] backend.
//!
//! With `ON = false` both are transparent newtypes (the `if ON` arms
//! compile away): the untraced run measures the program as shipped. With
//! `ON = true` every hook call is counted and one call in
//! [`SAMPLE_EVERY`] is timed, so the per-call timer cost stays a small
//! share of the hook time it measures.
//!
//! Counters live in per-partition accumulators padded to their own cache
//! lines: the partitioned and batch engines call `part_*` hooks for
//! different partitions from different worker threads, and each only ever
//! touches `acc[part]`, the same discipline the wrapped protocol follows
//! for its own arenas (its `PARALLEL_SAFE` contract).

use gr_batch::TenantProtocol;
use gr_netsim::{Delivery, Protocol};
use gr_reduction::push_cancel_flow::PcfStats;
use gr_reduction::{Payload, PushCancelFlow, ReductionProtocol};
use gr_topology::NodeId;
use std::time::Instant;

/// One call in this many is timed; every call is counted.
pub const SAMPLE_EVERY: u64 = 16;

/// Call count plus the time of the sampled subset of calls.
#[derive(Clone, Copy, Debug, Default)]
pub struct HookAcc {
    /// Every call.
    pub calls: u64,
    /// Calls that were timed.
    pub sampled: u64,
    /// Wall-clock of the timed calls, timer cost included.
    pub ns: u64,
}

impl HookAcc {
    /// Run `f`, counting the call and timing it when it is a sampled one.
    #[inline(always)]
    fn run<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.calls += 1;
        if !self.calls.is_multiple_of(SAMPLE_EVERY) {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        self.ns += t0.elapsed().as_nanos() as u64;
        self.sampled += 1;
        r
    }

    /// Fold another accumulator into this one.
    pub fn add(&mut self, o: &HookAcc) {
        self.calls += o.calls;
        self.sampled += o.sampled;
        self.ns += o.ns;
    }

    /// Mean ns per call, net of `timer_ns` (the cost of one empty timed
    /// section), so a call cheaper than the timer's jitter may read
    /// slightly negative; 0 when no call was sampled.
    pub fn mean_ns(&self, timer_ns: f64) -> f64 {
        if self.sampled == 0 {
            return 0.0;
        }
        self.ns as f64 / self.sampled as f64 - timer_ns
    }

    /// Estimated total ns over all calls (sampled mean × call count).
    pub fn total_ns(&self, timer_ns: f64) -> f64 {
        self.mean_ns(timer_ns) * self.calls as f64
    }
}

/// Protocol hook slots in [`PartAcc`].
pub const SEND: usize = 0;
pub const RECEIVE: usize = 1;
pub const REPLY: usize = 2;
pub const RECLAIM: usize = 3;

/// One partition's (or worker's) hook accumulators, on a cache line of
/// their own so concurrent partitions never share one.
#[derive(Clone, Copy, Debug, Default)]
#[repr(align(128))]
pub struct PartAcc(pub [HookAcc; 4]);

/// Protocol shim: forwards every hook to `inner`, counting and sampling
/// the per-message ones when `ON`.
pub struct Timed<Pr, const ON: bool> {
    inner: Pr,
    acc: Vec<PartAcc>,
}

impl<Pr, const ON: bool> Timed<Pr, ON> {
    pub fn new(inner: Pr) -> Self {
        Timed {
            inner,
            acc: vec![PartAcc::default()],
        }
    }

    /// Hook accumulators summed over partitions.
    pub fn hooks(&self) -> [HookAcc; 4] {
        let mut out = [HookAcc::default(); 4];
        for p in &self.acc {
            for (o, a) in out.iter_mut().zip(p.0.iter()) {
                o.add(a);
            }
        }
        out
    }
}

impl<P: Payload, const ON: bool> Timed<PushCancelFlow<'_, P>, ON> {
    pub fn pcf_stats(&self) -> PcfStats {
        self.inner.stats()
    }
}

impl<Pr: Protocol, const ON: bool> Timed<Pr, ON> {
    /// Forward one per-message hook, counted (and maybe timed) against
    /// partition `part`'s accumulator in slot `slot`.
    #[inline(always)]
    fn hook<R>(&mut self, part: usize, slot: usize, f: impl FnOnce(&mut Pr) -> R) -> R {
        if !ON {
            return f(&mut self.inner);
        }
        let inner = &mut self.inner;
        self.acc[part].0[slot].run(|| f(inner))
    }
}

impl<Pr: Protocol, const ON: bool> Protocol for Timed<Pr, ON> {
    type Msg = Pr::Msg;
    const PARALLEL_SAFE: bool = Pr::PARALLEL_SAFE;

    #[inline]
    fn on_send(&mut self, node: NodeId, target: NodeId) -> Self::Msg {
        self.hook(0, SEND, |p| p.on_send(node, target))
    }
    #[inline]
    fn on_receive(&mut self, node: NodeId, from: NodeId, msg: &mut Self::Msg) {
        self.hook(0, RECEIVE, |p| p.on_receive(node, from, msg))
    }
    #[inline]
    fn prewarm(&self, node: NodeId, from: NodeId) {
        self.inner.prewarm(node, from)
    }
    fn on_link_failed(&mut self, node: NodeId, neighbor: NodeId) {
        self.inner.on_link_failed(node, neighbor)
    }
    fn on_suspect(&mut self, node: NodeId, neighbor: NodeId) {
        self.inner.on_suspect(node, neighbor)
    }
    fn on_rehabilitate(&mut self, node: NodeId, neighbor: NodeId) {
        self.inner.on_rehabilitate(node, neighbor)
    }
    fn on_restart(&mut self, node: NodeId) {
        self.inner.on_restart(node)
    }
    fn on_neighbor_restarted(&mut self, node: NodeId, restarted: NodeId) {
        self.inner.on_neighbor_restarted(node, restarted)
    }
    #[inline]
    fn reply(&mut self, node: NodeId, from: NodeId) -> Option<Self::Msg> {
        self.hook(0, REPLY, |p| p.reply(node, from))
    }
    #[inline]
    fn reclaim(&mut self, msg: Self::Msg) {
        self.hook(0, RECLAIM, |p| p.reclaim(msg))
    }
    fn set_partitions(&mut self, partitions: usize) {
        self.acc.resize(partitions.max(1), PartAcc::default());
        self.inner.set_partitions(partitions)
    }
    #[inline]
    fn part_send(&mut self, part: usize, node: NodeId, target: NodeId) -> Self::Msg {
        self.hook(part, SEND, |p| p.part_send(part, node, target))
    }
    #[inline]
    fn part_receive(&mut self, part: usize, node: NodeId, from: NodeId, msg: &mut Self::Msg) {
        self.hook(part, RECEIVE, |p| p.part_receive(part, node, from, msg))
    }
    #[inline]
    fn part_reply(&mut self, part: usize, node: NodeId, from: NodeId) -> Option<Self::Msg> {
        self.hook(part, REPLY, |p| p.part_reply(part, node, from))
    }
    #[inline]
    fn part_reclaim(&mut self, part: usize, msg: Self::Msg) {
        self.hook(part, RECLAIM, |p| p.part_reclaim(part, msg))
    }
}

impl<Pr: ReductionProtocol, const ON: bool> ReductionProtocol for Timed<Pr, ON> {
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }
    fn dim(&self) -> usize {
        self.inner.dim()
    }
    fn write_estimate(&self, node: NodeId, out: &mut [f64]) {
        self.inner.write_estimate(node, out)
    }
    fn write_mass(&self, node: NodeId, values: &mut [f64]) -> f64 {
        self.inner.write_mass(node, values)
    }
    fn write_flow(&self, i: NodeId, j: NodeId, values: &mut [f64]) -> Option<f64> {
        self.inner.write_flow(i, j, values)
    }
    fn max_flow(&self) -> Option<f64> {
        self.inner.max_flow()
    }
}

impl<Pr: TenantProtocol, const ON: bool> TenantProtocol for Timed<Pr, ON> {
    fn estimate(&self, node: NodeId) -> f64 {
        self.inner.estimate(node)
    }
    fn update_local_value(&mut self, node: NodeId, value: f64) {
        self.inner.update_local_value(node, value)
    }
}

/// Delivery shim: counts and samples `send`/`try_recv` on one endpoint.
pub struct TimedDelivery<D, const ON: bool> {
    inner: D,
    pub send: HookAcc,
    pub recv: HookAcc,
}

impl<D, const ON: bool> TimedDelivery<D, ON> {
    pub fn new(inner: D) -> Self {
        TimedDelivery {
            inner,
            send: HookAcc::default(),
            recv: HookAcc::default(),
        }
    }

    pub fn inner(&self) -> &D {
        &self.inner
    }
}

impl<M, D: Delivery<M>, const ON: bool> Delivery<M> for TimedDelivery<D, ON> {
    type Error = D::Error;

    #[inline]
    fn send(&mut self, src: NodeId, dst: NodeId, msg: M) -> Result<(), Self::Error> {
        if !ON {
            return self.inner.send(src, dst, msg);
        }
        let inner = &mut self.inner;
        self.send.run(|| inner.send(src, dst, msg))
    }

    #[inline]
    fn try_recv(&mut self, node: NodeId) -> Result<Option<(NodeId, M)>, Self::Error> {
        if !ON {
            return self.inner.try_recv(node);
        }
        let inner = &mut self.inner;
        self.recv.run(|| inner.try_recv(node))
    }
}

/// Cost of one empty timed section (the interval between the two
/// `Instant` reads), median over repeated blocks; subtracted from every
/// sampled call.
pub fn timer_cost_ns() -> f64 {
    static COST: std::sync::OnceLock<f64> = std::sync::OnceLock::new();
    *COST.get_or_init(measure_timer_cost)
}

fn measure_timer_cost() -> f64 {
    let mut per_call: Vec<f64> = (0..31)
        .map(|_| {
            let mut acc = HookAcc::default();
            for _ in 0..4096 * SAMPLE_EVERY {
                acc.run(|| std::hint::black_box(0u64));
            }
            acc.ns as f64 / acc.sampled as f64
        })
        .collect();
    per_call.sort_by(f64::total_cmp);
    per_call[per_call.len() / 2]
}
