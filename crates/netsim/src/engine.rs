//! The engine-side fault machinery, written once for every round engine.
//!
//! The classic engine, the partitioned engine and the multi-tenant batch
//! executor (`gr-batch`) all drive the same three pieces:
//!
//! * [`Shard`] — one owner of RNG streams: schedule, faults and burst
//!   chain, plus its counters, trace-event buffer and pick buffer. It
//!   owns the transit pipeline and the arrival/delivery bookkeeping. The
//!   classic engine is one shard on the legacy streams, the partitioned
//!   engine `P` shards on the per-partition streams, and a batch tenant
//!   one shard seeded from the tenant's seed.
//! * [`FaultBook`] — the state of one fault plan: sorted event queues,
//!   pending oracle detections, dead-arc bits and the probabilistic
//!   models. It owns firing every scheduled fault and delivering
//!   detections. The simulator has one; a batch has one per tenant, with
//!   node and arc ids offset into the tenant's block.
//! * [`Believed`] — liveness plus the believed-alive neighbor lists that
//!   the schedule picks from.

use crate::detector::Detector;
use crate::faults::{
    BurstModel, Corrupt, FaultPlan, LinkFailure, LinkHeal, NetPartition, NodeCrash, NodeRestart,
    PartitionHeal,
};
use crate::rng::{stream_rng, RngStream};
use crate::schedule::Schedule;
use crate::sim::{Protocol, SimStats};
use crate::trace::{Event, Trace};
use gr_topology::{Graph, NodeId};
use rand::rngs::StdRng;
use rand::RngExt;
use std::ops::Range;

/// How many messages (or picks) ahead of the handler the round loops call
/// [`Protocol::prewarm`].
pub const LOOKAHEAD: usize = 8;

/// Liveness and the believed-alive neighbor lists of every node.
///
/// The lists shrink on detection/suspicion, grow back on
/// rehabilitation/heal/restart, and are kept sorted. They are stored flat
/// in the graph's CSR layout: node `i`'s list lives at
/// `flat[arc_base(i)..][..len[i]]`. A list never outgrows the node's
/// degree, so each segment stays within its original extent — and the
/// per-round schedule pick reads straight from one flat array instead of
/// chasing a per-node `Vec` header.
pub struct Believed {
    alive: Vec<bool>,
    flat: Vec<NodeId>,
    len: Vec<u32>,
}

impl Believed {
    /// Every node alive, believing all of its neighbors.
    pub fn new(graph: &Graph) -> Self {
        let n = graph.len() as NodeId;
        let mut flat = Vec::with_capacity(graph.arc_count());
        for i in 0..n {
            flat.extend_from_slice(graph.neighbors(i));
        }
        Believed {
            alive: vec![true; n as usize],
            flat,
            len: (0..n).map(|i| graph.degree(i) as u32).collect(),
        }
    }

    /// `true` if `node` has not crashed (or has restarted).
    #[inline]
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.alive[node as usize]
    }

    /// The neighbors `node` currently believes alive, ascending.
    #[inline]
    pub fn list(&self, graph: &Graph, node: NodeId) -> &[NodeId] {
        let base = graph.arc_base(node);
        &self.flat[base..base + self.len[node as usize] as usize]
    }

    fn set_alive(&mut self, node: NodeId, alive: bool) {
        self.alive[node as usize] = alive;
    }

    /// Drop `neighbor` from `node`'s list; `true` if it was there.
    pub(crate) fn remove(&mut self, graph: &Graph, node: NodeId, neighbor: NodeId) -> bool {
        let base = graph.arc_base(node);
        let len = self.len[node as usize] as usize;
        let list = &mut self.flat[base..base + len];
        match list.binary_search(&neighbor) {
            Ok(pos) => {
                list.copy_within(pos + 1.., pos);
                self.len[node as usize] = (len - 1) as u32;
                true
            }
            Err(_) => false,
        }
    }

    /// Sorted insert into `node`'s list; `true` if the neighbor was
    /// actually absent.
    pub(crate) fn readmit(&mut self, graph: &Graph, node: NodeId, neighbor: NodeId) -> bool {
        let base = graph.arc_base(node);
        let len = self.len[node as usize] as usize;
        match self.flat[base..base + len].binary_search(&neighbor) {
            Ok(_) => false,
            Err(pos) => {
                self.flat
                    .copy_within(base + pos..base + len, base + pos + 1);
                self.flat[base + pos] = neighbor;
                self.len[node as usize] = (len + 1) as u32;
                true
            }
        }
    }
}

/// One owner of RNG streams and of everything a round engine counts or
/// records while it moves messages: see the module docs.
///
/// Worker `p` of the partitioned engine (or the worker stepping a batch
/// tenant) owns its shard exclusively during a parallel phase; counters
/// and buffered trace events are merged into the global sinks in fixed
/// shard order, so results never depend on the thread count.
pub struct Shard {
    /// Partner-choice stream.
    pub(crate) sched_rng: StdRng,
    /// Loss, bit-flip and delay draws.
    pub(crate) fault_rng: StdRng,
    /// Gilbert–Elliott chain stream. It exists even with bursts off but
    /// is never drawn from then, and it keeps its position and chain
    /// state across fault-plan swaps.
    burst_rng: StdRng,
    burst_bad: bool,
    /// Counters since the last merge (a batch tenant never merges).
    pub stats: SimStats,
    /// Trace events since the last merge, bounded by the capacity of the
    /// trace they merge into (`None`: tracing off, `record` is a no-op).
    pub(crate) events: Option<Trace>,
    /// Reused `(node, partner)` buffer of the synchronous send phase.
    pub(crate) picks: Vec<(NodeId, NodeId)>,
}

impl Shard {
    fn with_streams(seed: u64, streams: [RngStream; 3]) -> Self {
        let [sched, faults, burst] = streams;
        Shard {
            sched_rng: stream_rng(seed, sched),
            fault_rng: stream_rng(seed, faults),
            burst_rng: stream_rng(seed, burst),
            burst_bad: false,
            stats: SimStats::default(),
            events: None,
            picks: Vec::new(),
        }
    }

    /// A shard on the single-run streams ([`RngStream::Schedule`],
    /// [`Faults`](RngStream::Faults), [`Burst`](RngStream::Burst)): the
    /// classic engine's, and a batch tenant's from its own seed.
    pub fn classic(seed: u64) -> Self {
        Self::with_streams(
            seed,
            [RngStream::Schedule, RngStream::Faults, RngStream::Burst],
        )
    }

    /// Partition `p`'s shard of the partitioned engine.
    pub(crate) fn part(seed: u64, p: u32) -> Self {
        Self::with_streams(
            seed,
            [
                RngStream::SchedulePart(p),
                RngStream::FaultsPart(p),
                RngStream::BurstPart(p),
            ],
        )
    }

    #[inline]
    pub(crate) fn record(&mut self, e: Event) {
        if let Some(t) = self.events.as_mut() {
            t.push(e);
        }
    }

    /// Every alive node of `nodes`, in order, draws its partner from this
    /// shard's schedule stream into `picks`. `id_base` is subtracted from
    /// the node id the schedule sees (a batch tenant's round-robin
    /// cursors are tenant-local).
    pub fn draw_picks(
        &mut self,
        schedule: &mut Schedule,
        graph: &Graph,
        believed: &Believed,
        nodes: Range<NodeId>,
        id_base: NodeId,
        picks: &mut Vec<(NodeId, NodeId)>,
    ) {
        for i in nodes {
            if !believed.is_alive(i) {
                continue;
            }
            let alive = believed.list(graph, i);
            if let Some(target) = schedule.pick(i - id_base, alive, &mut self.sched_rng) {
                picks.push((i, target));
            }
        }
    }

    /// One i.i.d. loss coin (no draw when the model is off).
    #[inline]
    fn lose(&mut self, book: &FaultBook) -> bool {
        book.loss > 0.0 && self.fault_rng.random::<f64>() < book.loss
    }

    /// The transit fault pipeline for one message `src → dst`, in place:
    /// dead endpoint or link, burst chain, i.i.d. loss, bit corruption.
    /// `true` means it survives. Until the first physical fault fires the
    /// liveness checks are a single branch, and models that are off draw
    /// nothing.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn transit<M: Corrupt>(
        &mut self,
        book: &FaultBook,
        believed: &Believed,
        graph: &Graph,
        round: u64,
        src: NodeId,
        dst: NodeId,
        msg: &mut M,
    ) -> bool {
        if book.severed(graph, believed, src, dst) {
            self.stats.lost_dead += 1;
            self.record(Event::LostDead { round, src, dst });
            return false;
        }
        if let Some(b) = book.burst {
            // Advance the Gilbert–Elliott chain one message, then flip the
            // drop coin only while in the bad state — all on the dedicated
            // burst stream, so the i.i.d. draws below are untouched.
            let u = self.burst_rng.random::<f64>();
            self.burst_bad = if self.burst_bad {
                u >= b.exit
            } else {
                u < b.enter
            };
            if self.burst_bad && self.burst_rng.random::<f64>() < b.loss {
                self.stats.lost_burst += 1;
                self.record(Event::LostBurst { round, src, dst });
                return false;
            }
        }
        if self.lose(book) {
            self.stats.lost_random += 1;
            self.record(Event::LostRandom { round, src, dst });
            return false;
        }
        if book.flip > 0.0 && self.fault_rng.random::<f64>() < book.flip {
            let bits = msg.corruptible_bits();
            if bits > 0 {
                let bit = self.fault_rng.random_range(0..bits);
                msg.flip_bit(bit);
                self.stats.bit_flips += 1;
                self.record(Event::BitFlipped {
                    round,
                    src,
                    dst,
                    bit,
                });
            }
        }
        true
    }

    /// The liveness-probe filter: a probe `src → dst` dies with a dead
    /// endpoint or link, or to the i.i.d. loss model — like a payload
    /// message, but uncounted and immune to bursts and corruption.
    #[inline]
    pub(crate) fn probe_survives(
        &mut self,
        book: &FaultBook,
        believed: &Believed,
        graph: &Graph,
        src: NodeId,
        dst: NodeId,
    ) -> bool {
        !book.severed(graph, believed, src, dst) && !self.lose(book)
    }

    /// Timeout-detector bookkeeping for one arrival `src → dst` on
    /// detector part `p`: a message (or probe) from a suspected neighbor
    /// proves it alive, so the rehabilitation fires *before* the receive
    /// handler — the protocol re-admits the edge, then processes the
    /// message over it.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub(crate) fn note_arrival<P: Protocol>(
        &mut self,
        det: &mut Detector,
        p: usize,
        believed: &mut Believed,
        graph: &Graph,
        protocol: &mut P,
        round: u64,
        dst: NodeId,
        src: NodeId,
    ) {
        let slot = graph
            .neighbor_slot(dst, src)
            .expect("delivery on a non-edge");
        if det.hear(p, dst, graph.arc_base(dst) + slot, round) {
            believed.readmit(graph, dst, src);
            self.stats.rehabilitated += 1;
            self.record(Event::NodeRehabilitated {
                round,
                node: dst,
                neighbor: src,
            });
            protocol.on_rehabilitate(dst, src);
        }
    }

    /// Count (and record) one message handed to the transport.
    #[inline]
    pub(crate) fn note_send(&mut self, round: u64, src: NodeId, dst: NodeId) {
        self.stats.sent += 1;
        self.record(Event::Sent { round, src, dst });
    }

    /// Count (and record) one message handed to a receive handler.
    #[inline]
    pub fn note_delivery(&mut self, round: u64, src: NodeId, dst: NodeId) {
        self.stats.delivered += 1;
        self.record(Event::Delivered { round, src, dst });
    }
}

/// A scheduled fault-plan event.
trait Scheduled: Clone {
    fn at_round(&self) -> u64;
    /// Move every node id by `by` (into a batch tenant's block).
    fn shift(&mut self, by: NodeId);
}

impl Scheduled for LinkFailure {
    fn at_round(&self) -> u64 {
        self.at_round
    }
    fn shift(&mut self, by: NodeId) {
        self.a += by;
        self.b += by;
    }
}

impl Scheduled for LinkHeal {
    fn at_round(&self) -> u64 {
        self.at_round
    }
    fn shift(&mut self, by: NodeId) {
        self.a += by;
        self.b += by;
    }
}

impl Scheduled for NodeCrash {
    fn at_round(&self) -> u64 {
        self.at_round
    }
    fn shift(&mut self, by: NodeId) {
        self.node += by;
    }
}

impl Scheduled for NodeRestart {
    fn at_round(&self) -> u64 {
        self.at_round
    }
    fn shift(&mut self, by: NodeId) {
        self.node += by;
    }
}

impl Scheduled for NetPartition {
    fn at_round(&self) -> u64 {
        self.at_round
    }
    fn shift(&mut self, by: NodeId) {
        self.members.iter_mut().for_each(|m| *m += by);
    }
}

impl Scheduled for PartitionHeal {
    fn at_round(&self) -> u64 {
        self.at_round
    }
    fn shift(&mut self, by: NodeId) {
        self.members.iter_mut().for_each(|m| *m += by);
    }
}

/// One kind of scheduled event, stable-sorted by `at_round` so events
/// sharing a round fire in plan order; `next` points at the first unfired
/// one, so firing is a cursor advance instead of a per-round scan.
struct Queue<T> {
    events: Vec<T>,
    next: usize,
}

impl<T: Scheduled> Queue<T> {
    /// The plan's events shifted by `offset`, skipping those before
    /// `round` (they never fire).
    fn new(events: &[T], offset: NodeId, round: u64) -> Self {
        let mut events = events.to_vec();
        events.iter_mut().for_each(|e| e.shift(offset));
        events.sort_by_key(|e| e.at_round());
        let next = events.partition_point(|e| e.at_round() < round);
        Queue { events, next }
    }

    /// The next event due at `round`, if any.
    #[inline]
    fn pop_due(&mut self, round: u64) -> Option<T> {
        let e = self.events.get(self.next)?;
        if e.at_round() > round {
            return None;
        }
        debug_assert_eq!(e.at_round(), round);
        self.next += 1;
        Some(e.clone())
    }
}

/// One pending "`node` learns the link to `neighbor` failed at `round`".
#[derive(Clone, Copy, Debug)]
struct Detection {
    round: u64,
    node: NodeId,
    neighbor: NodeId,
}

/// Everything firing a fault touches besides the book itself.
struct Firing<'a, P> {
    round: u64,
    graph: &'a Graph,
    believed: &'a mut Believed,
    shard: &'a mut Shard,
    protocol: &'a mut P,
    /// The timeout detector; `None` is the oracle.
    det: Option<&'a mut Detector>,
}

/// The state of one fault plan over one node block: see the module docs.
pub struct FaultBook {
    links: Queue<LinkFailure>,
    cuts: Queue<NetPartition>,
    crashes: Queue<NodeCrash>,
    heals: Queue<LinkHeal>,
    cut_heals: Queue<PartitionHeal>,
    restarts: Queue<NodeRestart>,
    /// Detections not yet delivered, kept sorted descending by
    /// `(round, node, neighbor)` so delivery pops due events off the end
    /// in deterministic order without a per-round sort or allocation.
    pending: Vec<Detection>,
    /// The node block the plan addresses (`0..n` outside a batch).
    nodes: Range<NodeId>,
    /// First arc of the block: bit `arc - arc_base` of `dead_arcs`.
    arc_base: usize,
    /// Per-arc dead bits, both directions set when a link dies: an
    /// O(log deg) bitmask probe per message. Word-aligned per book, so
    /// batch workers stepping different tenants never share a word.
    dead_arcs: Vec<u64>,
    /// False until the first crash or link death fires; lets `transit`
    /// skip every liveness check on the healthy path.
    physical_faults: bool,
    loss: f64,
    flip: f64,
    /// `None` keeps the clean fast path intact.
    burst: Option<BurstModel>,
}

impl FaultBook {
    /// The book of `plan`, whose node ids are local to the block `nodes`
    /// (they are shifted by `nodes.start`); `arcs` is the block's arc
    /// range.
    pub fn new(plan: &FaultPlan, nodes: Range<NodeId>, arcs: Range<usize>) -> Self {
        let offset = nodes.start;
        FaultBook {
            links: Queue::new(&plan.link_failures, offset, 0),
            cuts: Queue::new(&plan.partitions, offset, 0),
            crashes: Queue::new(&plan.node_crashes, offset, 0),
            heals: Queue::new(&plan.link_heals, offset, 0),
            cut_heals: Queue::new(&plan.partition_heals, offset, 0),
            restarts: Queue::new(&plan.node_restarts, offset, 0),
            pending: Vec::new(),
            nodes,
            arc_base: arcs.start,
            dead_arcs: vec![0; arcs.len().div_ceil(64)],
            physical_faults: false,
            loss: plan.msg_loss_prob,
            flip: plan.bit_flip_prob,
            burst: plan.burst,
        }
    }

    /// Replace the plan from `round` on: events already past never fire,
    /// the probabilistic models switch at once, and everything already
    /// fired (dead arcs, pending detections) stands.
    pub(crate) fn set_plan(&mut self, plan: &FaultPlan, round: u64) {
        let offset = self.nodes.start;
        self.links = Queue::new(&plan.link_failures, offset, round);
        self.cuts = Queue::new(&plan.partitions, offset, round);
        self.crashes = Queue::new(&plan.node_crashes, offset, round);
        self.heals = Queue::new(&plan.link_heals, offset, round);
        self.cut_heals = Queue::new(&plan.partition_heals, offset, round);
        self.restarts = Queue::new(&plan.node_restarts, offset, round);
        self.loss = plan.msg_loss_prob;
        self.flip = plan.bit_flip_prob;
        self.burst = plan.burst;
    }

    /// `true` while nothing can drop or corrupt a message: no physical
    /// fault has fired and every probabilistic model is off. Round loops
    /// then skip `transit` entirely.
    #[inline]
    pub fn is_clean(&self) -> bool {
        !self.physical_faults && self.loss <= 0.0 && self.flip <= 0.0 && self.burst.is_none()
    }

    #[inline]
    fn arc_bit(&self, graph: &Graph, src: NodeId, dst: NodeId) -> Option<(usize, u64)> {
        let slot = graph.neighbor_slot(src, dst)?;
        let arc = graph.arc_base(src) + slot - self.arc_base;
        Some((arc / 64, 1 << (arc % 64)))
    }

    #[inline]
    fn arc_is_dead(&self, graph: &Graph, src: NodeId, dst: NodeId) -> bool {
        self.arc_bit(graph, src, dst)
            .is_some_and(|(w, b)| self.dead_arcs[w] & b != 0)
    }

    /// Set (`dead`) or clear the dead bits of link `(a, b)`, both
    /// directions.
    pub(crate) fn mark_link(&mut self, graph: &Graph, a: NodeId, b: NodeId, dead: bool) {
        self.physical_faults |= dead;
        for (x, y) in [(a, b), (b, a)] {
            if let Some((w, bit)) = self.arc_bit(graph, x, y) {
                if dead {
                    self.dead_arcs[w] |= bit;
                } else {
                    self.dead_arcs[w] &= !bit;
                }
            }
        }
    }

    /// A message `src → dst` cannot cross: an endpoint or the link is
    /// physically dead.
    #[inline]
    fn severed(&self, graph: &Graph, believed: &Believed, src: NodeId, dst: NodeId) -> bool {
        self.physical_faults
            && (!believed.is_alive(src)
                || !believed.is_alive(dst)
                || self.arc_is_dead(graph, src, dst))
    }

    /// Insert keeping `pending` sorted descending by `(round, node,
    /// neighbor)`; plans hold a handful of events, so the shift is cheap
    /// and only the fault window ever allocates.
    fn push_detection(&mut self, round: u64, node: NodeId, neighbor: NodeId) {
        let key = (round, node, neighbor);
        let pos = self
            .pending
            .partition_point(|p| (p.round, p.node, p.neighbor) > key);
        self.pending.insert(
            pos,
            Detection {
                round,
                node,
                neighbor,
            },
        );
    }

    /// Phase 1 of a round: fire the physical faults scheduled for `round`
    /// in the fixed order — links die, partition cuts, crashes, links
    /// heal, partition heals, restarts — and queue their oracle
    /// detections. With a timeout detector (`det`) the oracle stays
    /// silent and heals/restarts restart the detector's silence clocks
    /// instead. `purge(node)` runs when `node` restarts, for the engine
    /// to drop whatever it still holds in flight from the old
    /// incarnation. Zero work and zero allocation on rounds with nothing
    /// scheduled. Returns `true` if a node crashed or restarted.
    ///
    /// Liveness changes are reported rather than counted in the shared
    /// [`Believed`], which a batch's workers write only at the node slots
    /// of the tenants they own.
    #[allow(clippy::too_many_arguments)]
    #[must_use]
    pub fn fire_due<P: Protocol>(
        &mut self,
        round: u64,
        graph: &Graph,
        believed: &mut Believed,
        shard: &mut Shard,
        protocol: &mut P,
        det: Option<&mut Detector>,
        mut purge: impl FnMut(NodeId),
    ) -> bool {
        let mut liveness_moved = false;
        let cx = &mut Firing {
            round,
            graph,
            believed,
            shard,
            protocol,
            det,
        };
        while let Some(f) = self.links.pop_due(round) {
            // Edge existence was checked by `FaultPlan::validate`.
            debug_assert!(graph.has_edge(f.a, f.b));
            self.fail_link(cx, f.a, f.b, f.detect_delay);
        }
        // A cut is a batch of link deaths with the same semantics;
        // already-dead crossing links are skipped.
        while let Some(p) = self.cuts.pop_due(round) {
            let in_group = self.group_mask(&p.members);
            let mut cut = 0u32;
            for &m in &p.members {
                for &j in graph.neighbors(m) {
                    if in_group[(j - self.nodes.start) as usize] || self.arc_is_dead(graph, m, j) {
                        continue;
                    }
                    cut += 1;
                    self.fail_link(cx, m, j, p.detect_delay);
                }
            }
            cx.shard.record(Event::PartitionStarted { round, cut });
        }
        while let Some(c) = self.crashes.pop_due(round) {
            cx.shard.record(Event::NodeCrashed {
                round,
                node: c.node,
            });
            cx.believed.set_alive(c.node, false);
            liveness_moved = true;
            self.physical_faults = true;
            if cx.det.is_none() {
                for &j in graph.neighbors(c.node) {
                    self.push_detection(round + c.detect_delay, j, c.node);
                }
            }
        }
        while let Some(h) = self.heals.pop_due(round) {
            debug_assert!(graph.has_edge(h.a, h.b));
            self.heal_link(cx, h.a, h.b);
        }
        // Every severed crossing link returns via the per-link heal.
        while let Some(p) = self.cut_heals.pop_due(round) {
            let in_group = self.group_mask(&p.members);
            let mut cut = 0u32;
            for &m in &p.members {
                for &j in graph.neighbors(m) {
                    if in_group[(j - self.nodes.start) as usize] || !self.arc_is_dead(graph, m, j) {
                        continue;
                    }
                    cut += 1;
                    self.heal_link(cx, m, j);
                }
            }
            cx.shard.record(Event::PartitionHealed { round, cut });
        }
        while let Some(r) = self.restarts.pop_due(round) {
            self.restart(cx, r.node, &mut purge);
            liveness_moved = true;
        }
        liveness_moved
    }

    /// Membership mask of a cut group over this book's node block.
    fn group_mask(&self, members: &[NodeId]) -> Vec<bool> {
        let mut in_group = vec![false; self.nodes.len()];
        for &m in members {
            in_group[(m - self.nodes.start) as usize] = true;
        }
        in_group
    }

    /// Link `(a, b)` dies now; under the oracle both endpoints learn of
    /// it `delay` rounds later.
    fn fail_link<P>(&mut self, cx: &mut Firing<P>, a: NodeId, b: NodeId, delay: u64) {
        let round = cx.round;
        cx.shard.record(Event::LinkFailed { round, a, b });
        self.mark_link(cx.graph, a, b, true);
        if cx.det.is_none() {
            self.push_detection(round + delay, a, b);
            self.push_detection(round + delay, b, a);
        }
    }

    /// Bring link `(a, b)` back: clear its dead bits, cancel pending
    /// detections for the pair, and re-admit each alive endpoint into the
    /// other's believed set (with the protocol's rehabilitation hook).
    /// Healing a link that never died is a no-op.
    fn heal_link<P: Protocol>(&mut self, cx: &mut Firing<P>, a: NodeId, b: NodeId) {
        let (round, graph) = (cx.round, cx.graph);
        cx.shard.record(Event::LinkHealed { round, a, b });
        self.mark_link(graph, a, b, false);
        self.pending
            .retain(|d| !((d.node == a && d.neighbor == b) || (d.node == b && d.neighbor == a)));
        for (x, y) in [(a, b), (b, a)] {
            if !cx.believed.is_alive(x) || !cx.believed.is_alive(y) {
                continue;
            }
            if let Some(det) = cx.det.as_deref_mut() {
                det.resume(graph, x, y, round);
            }
            if cx.believed.readmit(graph, x, y) {
                cx.shard.stats.rehabilitated += 1;
                cx.shard.record(Event::NodeRehabilitated {
                    round,
                    node: x,
                    neighbor: y,
                });
                cx.protocol.on_rehabilitate(x, y);
            }
        }
    }

    /// Rejoin crashed `node` with fresh state: drop stale detections
    /// about it, rebuild mutual believed-alive sets over live links, and
    /// run the protocol's restart hooks on both sides.
    fn restart<P: Protocol>(
        &mut self,
        cx: &mut Firing<P>,
        node: NodeId,
        purge: &mut impl FnMut(NodeId),
    ) {
        let (round, graph) = (cx.round, cx.graph);
        let believed = &mut *cx.believed;
        assert!(
            !believed.is_alive(node),
            "fault plan restarts node {node}, which is alive"
        );
        cx.shard.record(Event::NodeRestarted { round, node });
        believed.set_alive(node, true);
        purge(node);
        // Pending detections about the node are stale — except a
        // neighbor's detection of a *link* that is still physically dead,
        // which must survive the reboot.
        let mut pending = std::mem::take(&mut self.pending);
        pending.retain(|d| {
            d.node != node && (d.neighbor != node || self.arc_is_dead(graph, d.node, d.neighbor))
        });
        self.pending = pending;
        // The rebooted node believes exactly its alive neighbors over live
        // links; the CSR segment re-expands within its original extent.
        let base = graph.arc_base(node);
        let mut len = 0usize;
        for &j in graph.neighbors(node) {
            if believed.is_alive(j) && !self.arc_is_dead(graph, node, j) {
                believed.flat[base + len] = j;
                len += 1;
            }
        }
        believed.len[node as usize] = len as u32;
        if let Some(det) = cx.det.as_deref_mut() {
            // Fresh detector state in both directions.
            for &j in graph.neighbors(node) {
                det.resume(graph, node, j, round);
            }
        }
        cx.protocol.on_restart(node);
        // Neighbors re-admit the node and excise their stale edge state.
        for &j in graph.neighbors(node) {
            if !believed.is_alive(j) || self.arc_is_dead(graph, j, node) {
                continue;
            }
            if let Some(det) = cx.det.as_deref_mut() {
                det.resume(graph, j, node, round);
            }
            if believed.readmit(graph, j, node) {
                cx.shard.stats.rehabilitated += 1;
                cx.shard.record(Event::NodeRehabilitated {
                    round,
                    node: j,
                    neighbor: node,
                });
            }
            cx.protocol.on_neighbor_restarted(j, node);
        }
    }

    /// Phase 2 of a round: deliver due detections to alive endpoints. The
    /// queue is sorted descending, so everything due pops off the end
    /// already in the deterministic `(node, neighbor)` handling order.
    pub fn deliver_detections<P: Protocol>(
        &mut self,
        round: u64,
        graph: &Graph,
        believed: &mut Believed,
        shard: &mut Shard,
        protocol: &mut P,
    ) {
        while let Some(&d) = self.pending.last() {
            if d.round > round {
                break;
            }
            self.pending.pop();
            if believed.is_alive(d.node) && believed.remove(graph, d.node, d.neighbor) {
                shard.record(Event::Detected {
                    round,
                    node: d.node,
                    neighbor: d.neighbor,
                });
                protocol.on_link_failed(d.node, d.neighbor);
            }
        }
    }
}
