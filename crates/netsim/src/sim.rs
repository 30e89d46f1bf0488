//! The round-driven simulator core.

use crate::delivery::RingDelivery;
use crate::detector::{part_index, unpack_arc, Detector};
use crate::engine::{Believed, FaultBook, Shard, LOOKAHEAD};
use crate::faults::{Corrupt, FaultPlan};
use crate::options::{Activation, DelayModel, DetectorModel, SimConfigError, SimOptions};
use crate::par::{PerPart, SendPtr};
use crate::schedule::Schedule;
use crate::trace::{Event, Trace};
use gr_topology::{Graph, NodeId};
use rand::RngExt;

/// A gossip protocol as seen by the simulator.
///
/// The protocol object owns the state of *all* nodes (structure-of-arrays —
/// one allocation-free object instead of `n` boxed actors); the simulator
/// tells it which node acts and whom it talks to. The partner choice is
/// made by the simulator's schedule, never by the protocol, so that
/// identical seeds yield identical schedules across protocols (the paper's
/// Fig. 4/7 methodology).
pub trait Protocol {
    /// The message type exchanged between nodes.
    type Msg: Clone + Corrupt;

    /// Node `node` performs its per-round send to `target` (a believed-alive
    /// neighbor chosen by the schedule) and returns the message to ship.
    fn on_send(&mut self, node: NodeId, target: NodeId) -> Self::Msg;

    /// Node `node` processes a message that arrived from `from`. The
    /// message is passed by mutable reference so delivery reads it in
    /// place from the transport buffer (no per-message move of large
    /// payloads); protocols that want to keep (parts of) it may steal the
    /// contents with `std::mem::take`/`replace` — the buffer slot is dead
    /// after the call either way.
    fn on_receive(&mut self, node: NodeId, from: NodeId, msg: &mut Self::Msg);

    /// Hint that the arc `node → from` is about to be used: either
    /// `on_receive(node, from, _)` or — with `from` the schedule's pick —
    /// `on_send(node, from)` (and their `part_*` variants). The delivery
    /// loops call it a few messages ahead; the synchronous send loops
    /// draw every partner first and call it a few picks ahead. Either way
    /// the node's arc row is random, so implementations prefetch the
    /// per-node and per-arc state the handler starts with, which would
    /// otherwise stall on a cache miss right on the critical path. Must
    /// not mutate observable state. Default: do nothing.
    #[inline]
    fn prewarm(&self, node: NodeId, from: NodeId) {
        let _ = (node, from);
    }

    /// Node `node` has detected that the link to `neighbor` is permanently
    /// gone and should run its failure handling (PF/PCF: excise the flow
    /// variables for that link). Default: do nothing.
    fn on_link_failed(&mut self, node: NodeId, neighbor: NodeId) {
        let _ = (node, neighbor);
    }

    /// Node `node`'s local detector *suspects* `neighbor` has failed
    /// ([`DetectorModel::Timeout`] silence). Unlike `on_link_failed`, a
    /// suspicion may be wrong — the protocol must handle it so that a
    /// later [`on_rehabilitate`](Self::on_rehabilitate) leaves the
    /// aggregate intact. Default: treat like a detected link failure
    /// (correct for flow algorithms whose excision is a local,
    /// mass-conserving fold).
    fn on_suspect(&mut self, node: NodeId, neighbor: NodeId) {
        self.on_link_failed(node, neighbor);
    }

    /// A previously suspected (or failed) `neighbor` of `node` proved
    /// alive again — a message arrived, or the link healed — and has been
    /// re-admitted to the believed-alive set. Default: do nothing (PCF
    /// resynchronises the edge through its wire-carried incarnation
    /// counter; overwrite protocols self-heal on the next exchange).
    fn on_rehabilitate(&mut self, node: NodeId, neighbor: NodeId) {
        let _ = (node, neighbor);
    }

    /// Node `node` restarts after a crash: reset its local state to the
    /// initial data (pre-crash mass is lost — the node must contribute
    /// its value exactly once, not twice). Default: do nothing.
    fn on_restart(&mut self, node: NodeId) {
        let _ = node;
    }

    /// Node `node` learns that its neighbor `restarted` rebooted with
    /// fresh state: any per-edge bookkeeping toward it is stale. Default:
    /// treat like a detected link failure (excise, then rebuild from
    /// scratch — the mass-conserving choice for flow algorithms).
    fn on_neighbor_restarted(&mut self, node: NodeId, restarted: NodeId) {
        self.on_link_failed(node, restarted);
    }

    /// Called right after `node` processed a message from `from`: return
    /// `Some(reply)` to send an immediate response back over the same
    /// link (push-**pull** gossip). The reply passes through the same
    /// transit fault pipeline but cannot itself be replied to. Default:
    /// no reply (pure push protocols).
    fn reply(&mut self, node: NodeId, from: NodeId) -> Option<Self::Msg> {
        let _ = (node, from);
        None
    }

    /// Take back ownership of a message buffer the transport is done with
    /// (it was delivered — possibly gutted by an `on_receive` steal — or
    /// dropped in transit). Protocols that pool wire buffers push it onto
    /// their free list so the next `on_send` can refill it instead of
    /// allocating; the recycling mirrors the simulator's delivery-bucket
    /// slot reuse. Must not mutate observable protocol state. Default:
    /// drop the buffer.
    #[inline]
    fn reclaim(&mut self, msg: Self::Msg) {
        let _ = msg;
    }

    // ----- partitioned round engine (see DESIGN §13) -------------------
    //
    // With `SimOptions::partitions >= 2` the simulator splits the node
    // range into contiguous CSR blocks and runs the send/deliver/reply
    // phases once per partition, always through the `part_*` hooks below.
    // The default implementations delegate to the base hooks, so every
    // protocol works under the partitioned engine unchanged (sequential
    // execution). A protocol opts into *parallel* execution of those
    // phases by setting [`PARALLEL_SAFE`](Self::PARALLEL_SAFE) — at which
    // point it promises the contract documented there, by keeping one
    // arena (message pool, scratch buffer, stat counters) per partition
    // in a [`PerPart`], indexed by the `part` argument.

    /// Declares the partition-phase hooks safe to run concurrently, one
    /// thread per partition. A protocol may set this to `true` iff:
    ///
    /// * `part_send(part, node, ..)` / `part_receive(part, node, ..)` /
    ///   `part_reply(part, node, ..)` touch only (a) state owned by
    ///   `node` — its per-node record and the per-arc state of *its own*
    ///   directed arcs — and (b) arenas indexed by `part`;
    /// * the failure hooks (`on_link_failed`, `on_suspect`,
    ///   `on_rehabilitate`, `on_neighbor_restarted`) touch only state
    ///   owned by their first argument;
    /// * `part_reclaim(part, ..)` touches only the `part` arena;
    /// * the per-partition arenas live in one [`PerPart`] — not in plain
    ///   `Vec`s, whose neighbouring elements share cache lines, so that
    ///   workers writing only their own arena would still stall each
    ///   other on every message (false sharing). Group a partition's
    ///   pool, scratch and counters into one struct and size it with a
    ///   single `resize_with` in [`set_partitions`](Self::set_partitions).
    ///
    /// Nodes are partition-contiguous, so "state owned by `node`" is
    /// disjoint across concurrently-running partitions. Thread count
    /// never changes results either way — it is purely an execution
    /// hint; `false` (the default) merely forces sequential execution.
    /// The multi-tenant batch executor (`gr-batch`) calls the same hooks
    /// with a worker index in place of the partition.
    const PARALLEL_SAFE: bool = false;

    /// Called once before the first round when the partitioned engine is
    /// active, with the resolved partition count. Protocols that keep
    /// per-partition arenas size them here. Default: do nothing.
    fn set_partitions(&mut self, partitions: usize) {
        let _ = partitions;
    }

    /// Partition-phase variant of [`on_send`](Self::on_send); `node`
    /// belongs to partition `part`. Default: delegate.
    #[inline]
    fn part_send(&mut self, part: usize, node: NodeId, target: NodeId) -> Self::Msg {
        let _ = part;
        self.on_send(node, target)
    }

    /// Partition-phase variant of [`on_receive`](Self::on_receive);
    /// `node` belongs to partition `part`. Default: delegate.
    #[inline]
    fn part_receive(&mut self, part: usize, node: NodeId, from: NodeId, msg: &mut Self::Msg) {
        let _ = part;
        self.on_receive(node, from, msg);
    }

    /// Partition-phase variant of [`reply`](Self::reply); `node` belongs
    /// to partition `part`. Default: delegate.
    #[inline]
    fn part_reply(&mut self, part: usize, node: NodeId, from: NodeId) -> Option<Self::Msg> {
        let _ = part;
        self.reply(node, from)
    }

    /// Partition-phase variant of [`reclaim`](Self::reclaim), handing the
    /// buffer back to partition `part`'s arena. Default: delegate.
    #[inline]
    fn part_reclaim(&mut self, part: usize, msg: Self::Msg) {
        let _ = part;
        self.reclaim(msg)
    }
}

/// Counters accumulated over a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize)]
pub struct SimStats {
    /// Rounds executed.
    pub rounds: u64,
    /// Messages handed to the transport.
    pub sent: u64,
    /// Messages delivered to a receive handler.
    pub delivered: u64,
    /// Messages lost to the probabilistic loss model.
    pub lost_random: u64,
    /// Messages lost to the correlated-burst chain (bad-state drops).
    pub lost_burst: u64,
    /// Messages lost because the link or an endpoint was physically dead.
    pub lost_dead: u64,
    /// Bit flips injected.
    pub bit_flips: u64,
    /// Timeout-detector suspicions raised (0 under the oracle detector).
    pub suspected: u64,
    /// Neighbors re-admitted to a believed-alive set (timeout
    /// rehabilitations, link heals, and node restarts).
    pub rehabilitated: u64,
    /// Liveness probes sent on suspected arcs (timeout mode only).
    pub probes_sent: u64,
}

impl SimStats {
    /// Sum another run's transport counters into this one. `rounds` is
    /// deliberately NOT summed — it is per-run bookkeeping, not a
    /// transport counter; aggregators (partition merges, multi-tenant
    /// batch roll-ups) set it themselves.
    pub fn merge(&mut self, d: &SimStats) {
        self.sent += d.sent;
        self.delivered += d.delivered;
        self.lost_random += d.lost_random;
        self.lost_burst += d.lost_burst;
        self.lost_dead += d.lost_dead;
        self.bit_flips += d.bit_flips;
        self.suspected += d.suspected;
        self.rehabilitated += d.rehabilitated;
        self.probes_sent += d.probes_sent;
    }
}

/// Send-lane capacities for the partitioned engine: lane `p → q` carries
/// at most one message per node of `p` with a neighbour in `q`, so
/// reserving that bound up front means no round ever regrows a lane.
fn lane_bounds(graph: &Graph, part_starts: &[NodeId]) -> Vec<usize> {
    let np = part_starts.len() - 1;
    let mut bounds = vec![0; np * np];
    // Last node counted toward each target partition.
    let mut last = vec![NodeId::MAX; np];
    for p in 0..np {
        for i in part_starts[p]..part_starts[p + 1] {
            for &j in graph.neighbors(i) {
                let q = part_index(j, np, graph.len());
                if last[q] != i {
                    last[q] = i;
                    bounds[p * np + q] += 1;
                }
            }
        }
    }
    bounds
}

/// The simulator: drives a [`Protocol`] over a [`Graph`] under a
/// [`FaultPlan`].
pub struct Simulator<'g, P: Protocol> {
    graph: &'g Graph,
    protocol: P,
    schedule: Schedule,
    /// The fault plan's event queues, pending detections and dead arcs.
    book: FaultBook,
    /// Liveness and the believed-alive neighbor lists.
    believed: Believed,
    /// The RNG-stream owners. The classic engine (`partitions == 1`) is
    /// one shard on the legacy single-run streams, byte-identical to the
    /// pre-partitioning simulator; the partitioned engine is one shard
    /// per partition on the per-partition streams. Worker `p` owns
    /// `shards[p]` during a parallel phase; the sequential fault phases
    /// count and record on shard 0.
    shards: PerPart<Shard>,
    round: u64,
    activation: Activation,
    delay: DelayModel,
    /// The timeout detector, `None` under the oracle. With it, scheduled
    /// faults are *not* reported to the protocol; silence is. Everything
    /// the detector touches is gated on it, so the oracle path is
    /// bit-identical to the pre-detector simulator.
    detector: Option<Detector>,
    /// Resolved partition count; `1` selects the classic engine, `≥ 2`
    /// the partitioned engine.
    partitions: usize,
    /// How `partitions` was chosen (explicit / single-stream /
    /// measured-cost auto), with the model inputs when measured.
    partition_plan: crate::PartitionPlan,
    /// `part_starts[p]` = first node of partition `p` (`partitions + 1`
    /// entries); empty when `partitions == 1`.
    part_starts: Vec<NodeId>,
    /// Cross-partition mailbox lanes, `lanes[p * partitions + q]` =
    /// messages sent this round from partition `p` to partition `q`.
    /// The send phase has worker `p` write row `p`; after the barrier the
    /// deliver phase has worker `q` drain column `q` in ascending `p`
    /// order — disjoint index sets per phase, fixed merge order. A
    /// cross-partition lane keeps its spent buffers until worker `p`
    /// reclaims them at the start of its next send phase. Each lane
    /// header sits on its own lines, since neighbouring lanes belong to
    /// different workers in both phases; capacities are reserved at
    /// construction (see [`lane_bounds`]).
    lanes: PerPart<Vec<(NodeId, NodeId, P::Msg)>>,
    /// Same shape for push-pull replies: the deliver phase has worker `q`
    /// write row `q`, the reply phase has worker `p` drain column `p`.
    reply_lanes: PerPart<Vec<(NodeId, NodeId, P::Msg)>>,
    /// Same shape for liveness probes (timeout mode), keyed by the
    /// *target*'s partition and delivered at the start of the next round.
    probe_lanes: PerPart<Vec<(NodeId, NodeId)>>,
    /// Persistent worker pool, present iff `partitions > 1`, `threads >
    /// 1` and the protocol declared `PARALLEL_SAFE`. Without it the
    /// partition phases run sequentially — same results either way.
    pool: Option<crate::par::WorkerPool>,
    /// The delivery substrate (see [`RingDelivery`]): `buckets[r % len]`
    /// holds the messages due in round `r`, in send order. With the
    /// default zero-delay model this is a single reused buffer. Extracted
    /// behind the [`Delivery`](crate::Delivery) seam so the same protocol
    /// state machines run over the real transports in `gr-transport`.
    ring: RingDelivery<P::Msg>,
    /// Liveness-probe ring (timeout mode only), same slot discipline as
    /// `buckets`: `probe_ring[r % len]` holds the `(prober, target)`
    /// probes due at the start of round `r`. Probes exist because
    /// suspicion is symmetric-deadlock-prone: once both endpoints of a
    /// falsely suspected arc stop sending, neither would ever hear the
    /// other again and the believed-alive graph partitions permanently.
    probe_ring: Vec<Vec<(NodeId, NodeId)>>,
    /// Scratch list of alive node ids (async activation sampling),
    /// rebuilt only after a crash or restart.
    alive_scratch: Vec<NodeId>,
    alive_scratch_dirty: bool,
    /// Optional bounded event recorder (see [`Simulator::enable_trace`]).
    trace: Option<Trace>,
    /// Optional per-arc delivered-message counters
    /// (see [`Simulator::enable_link_load`]).
    link_load: Option<Vec<u64>>,
    stats: SimStats,
}

impl<'g, P: Protocol> Simulator<'g, P> {
    /// Build a simulator with the uniform-random schedule of the paper.
    pub fn new(graph: &'g Graph, protocol: P, plan: FaultPlan, seed: u64) -> Self {
        Self::with_schedule(graph, protocol, plan, seed, Schedule::uniform())
    }

    /// Build a simulator with an explicit schedule policy.
    pub fn with_schedule(
        graph: &'g Graph,
        protocol: P,
        plan: FaultPlan,
        seed: u64,
        schedule: Schedule,
    ) -> Self {
        Self::with_options(
            graph,
            protocol,
            plan,
            seed,
            SimOptions {
                schedule,
                ..SimOptions::default()
            },
        )
    }

    /// Build a simulator with full execution-model control.
    ///
    /// # Panics
    /// Panics on an invalid option combination (see
    /// [`SimOptions::validate`]); [`Simulator::try_with_options`] is the
    /// non-panicking variant.
    pub fn with_options(
        graph: &'g Graph,
        protocol: P,
        plan: FaultPlan,
        seed: u64,
        options: SimOptions,
    ) -> Self {
        match Self::try_with_options(graph, protocol, plan, seed, options) {
            Ok(sim) => sim,
            Err(e) => panic!("{e}"),
        }
    }

    /// Build a simulator, rejecting invalid option combinations with a
    /// typed [`SimConfigError`] instead of panicking.
    pub fn try_with_options(
        graph: &'g Graph,
        protocol: P,
        plan: FaultPlan,
        seed: u64,
        options: SimOptions,
    ) -> Result<Self, SimConfigError> {
        options.validate()?;
        plan.validate(graph)?;
        let n = graph.len();
        let partition_plan = options.partition_plan(n, graph.arc_count());
        let partitions = partition_plan.partitions;
        let (part_starts, shards): (Vec<NodeId>, _) = if partitions > 1 {
            (
                (0..=partitions)
                    .map(|p| (p * n / partitions) as NodeId)
                    .collect(),
                PerPart::from_fn(partitions, |p| Shard::part(seed, p as u32)),
            )
        } else {
            (Vec::new(), PerPart::from_fn(1, |_| Shard::classic(seed)))
        };
        let detector = match options.detector {
            DetectorModel::Oracle => None,
            DetectorModel::Timeout { window } => Some(Detector::new(graph, window, &part_starts)),
        };
        let timeout = detector.is_some();
        let nlanes = if partitions > 1 {
            partitions * partitions
        } else {
            0
        };
        let lanes = if partitions > 1 {
            let bounds = lane_bounds(graph, &part_starts);
            PerPart::from_fn(nlanes, |l| Vec::with_capacity(bounds[l]))
        } else {
            PerPart::default()
        };
        let pool = if partitions > 1 && options.threads > 1 && P::PARALLEL_SAFE {
            Some(crate::par::WorkerPool::new(options.threads.min(partitions)))
        } else {
            None
        };
        let mut protocol = protocol;
        if partitions > 1 {
            protocol.set_partitions(partitions);
        }
        Ok(Simulator {
            graph,
            protocol,
            schedule: options.schedule,
            book: FaultBook::new(&plan, 0..n as NodeId, 0..graph.arc_count()),
            believed: Believed::new(graph),
            shards,
            round: 0,
            activation: options.activation,
            delay: options.delay,
            detector,
            partitions,
            partition_plan,
            part_starts,
            lanes,
            reply_lanes: PerPart::from_fn(nlanes, |_| Vec::new()),
            probe_lanes: if timeout && partitions > 1 {
                PerPart::from_fn(nlanes, |_| Vec::new())
            } else {
                PerPart::default()
            },
            pool,
            ring: RingDelivery::new(options.delay.max_delay()),
            probe_ring: if timeout && partitions == 1 {
                (0..options.delay.max_delay() + 1)
                    .map(|_| Vec::new())
                    .collect()
            } else {
                Vec::new()
            },
            alive_scratch: Vec::new(),
            alive_scratch_dirty: true,
            trace: None,
            link_load: None,
            stats: SimStats::default(),
        })
    }

    /// Start recording the most recent `capacity` transport/fault events.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(Trace::new(capacity));
        for shard in self.shards.iter_mut() {
            shard.events = Some(Trace::buffer(capacity));
        }
    }

    /// The event trace, if enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Start counting delivered messages per directed arc.
    pub fn enable_link_load(&mut self) {
        self.link_load = Some(vec![0; self.graph.arc_count()]);
    }

    /// Delivered messages over arc `src → dst`, if counting is enabled.
    pub fn link_load(&self, src: NodeId, dst: NodeId) -> Option<u64> {
        let counts = self.link_load.as_ref()?;
        let slot = self.graph.neighbor_slot(src, dst)?;
        Some(counts[self.graph.arc_base(src) + slot])
    }

    /// The protocol (for estimate inspection between rounds).
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Mutable protocol access (e.g. to reinitialise node data).
    pub fn protocol_mut(&mut self) -> &mut P {
        &mut self.protocol
    }

    /// The topology.
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// Rounds completed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Run statistics so far.
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// `true` if `node` has not crashed.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.believed.is_alive(node)
    }

    /// Iterator over currently-alive node ids.
    pub fn alive_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.graph.len() as NodeId).filter(move |&i| self.believed.is_alive(i))
    }

    /// The believed-alive neighbor list of `node` (shrinks as failures are
    /// detected).
    pub fn believed_alive(&self, node: NodeId) -> &[NodeId] {
        self.believed.list(self.graph, node)
    }

    /// Partition index of `node` under the partitioned engine (`0` for
    /// the classic engine). `starts[p] = ⌊p·n/P⌋`, whose exact inverse is
    /// the division below.
    #[inline]
    fn part_of(&self, node: NodeId) -> usize {
        if self.partitions <= 1 {
            return 0;
        }
        let p = part_index(node, self.partitions, self.graph.len());
        debug_assert!(self.part_starts[p] <= node && node < self.part_starts[p + 1]);
        p
    }

    /// Phases 1–2 (sequential in both engines, counted and recorded on
    /// shard 0): fire the physical faults scheduled for this round, then
    /// deliver due oracle detections.
    fn fire_faults(&mut self) {
        let (ring, probe_ring, probe_lanes) =
            (&mut self.ring, &mut self.probe_ring, &mut self.probe_lanes);
        let liveness_moved = self.book.fire_due(
            self.round,
            self.graph,
            &mut self.believed,
            &mut self.shards[0],
            &mut self.protocol,
            self.detector.as_mut(),
            |node| {
                // Messages the node sent before crashing (or addressed to
                // it while dead) must not surface after the reboot: the
                // restarted node's edge state is fresh, and a stale
                // in-flight payload would be processed as if it belonged
                // to the new incarnation.
                ring.retain(|&(src, dst, _)| src != node && dst != node);
                // In-flight probes from the old incarnation are stale
                // proof of life; probes addressed to the dead node would
                // have been dropped anyway.
                for probes in probe_ring.iter_mut().chain(probe_lanes.iter_mut()) {
                    probes.retain(|&(src, dst)| src != node && dst != node);
                }
            },
        );
        self.alive_scratch_dirty |= liveness_moved;
        self.book.deliver_detections(
            self.round,
            self.graph,
            &mut self.believed,
            &mut self.shards[0],
            &mut self.protocol,
        );
    }

    /// The transit fault pipeline of shard `p` for one message.
    #[inline]
    fn transit(&mut self, p: usize, src: NodeId, dst: NodeId, msg: &mut P::Msg) -> bool {
        let round = self.round;
        self.shards[p].transit(&self.book, &self.believed, self.graph, round, src, dst, msg)
    }

    /// Timeout-detector bookkeeping for one arrival `src → dst` on shard
    /// `p` (no-op under the oracle).
    #[inline]
    fn arrive(&mut self, p: usize, dst: NodeId, src: NodeId) {
        if let Some(det) = self.detector.as_mut() {
            self.shards[p].note_arrival(
                det,
                p,
                &mut self.believed,
                self.graph,
                &mut self.protocol,
                self.round,
                dst,
                src,
            );
        }
    }

    /// Count one delivery `src → dst` on shard `p`, plus the per-arc link
    /// load when enabled. The load counter is indexed by the *source*
    /// arc, which under the partitioned engine can belong to another
    /// partition — but each `(src, dst)` arc appears in exactly one lane,
    /// so the element is still touched by exactly one worker.
    #[inline]
    fn delivered(&mut self, p: usize, src: NodeId, dst: NodeId) {
        self.shards[p].note_delivery(self.round, src, dst);
        if let Some(counts) = self.link_load.as_mut() {
            if let Some(slot) = self.graph.neighbor_slot(src, dst) {
                counts[self.graph.arc_base(src) + slot] += 1;
            }
        }
    }

    /// Offer `replier` the chance to answer `to` immediately (push-pull).
    /// The reply takes the ordinary transit pipeline; replies to replies
    /// are not solicited.
    fn deliver_reply(&mut self, replier: NodeId, to: NodeId) {
        if let Some(mut reply) = self.protocol.reply(replier, to) {
            self.shards[0].note_send(self.round, replier, to);
            if self.transit(0, replier, to, &mut reply) {
                self.arrive(0, to, replier);
                self.protocol.on_receive(to, replier, &mut reply);
                self.delivered(0, replier, to);
            }
            self.protocol.reclaim(reply);
        }
    }

    /// End-of-round silence scan of detector part `p` (timeout mode):
    /// every alive node drops each believed neighbor it has not heard from
    /// for `window` rounds. Suspicion is one-directional and purely local
    /// — under delay or loss it can be wrong, which is the point.
    /// O(due + arrivals), not O(believed arcs): see the timing wheel in
    /// `detector.rs`.
    fn suspect_due(&mut self, p: usize) {
        let round = self.round;
        let Some(det) = self.detector.as_mut() else {
            return;
        };
        det.collect_due(p, self.graph, &self.believed, round);
        let part = &mut det.parts[p];
        for k in 0..part.due.len() {
            let e = part.due[k];
            let (i, arc) = unpack_arc(e);
            let j = self.graph.neighbors(i)[arc - self.graph.arc_base(i)];
            self.believed.remove(self.graph, i, j);
            part.suspect(e);
            let shard = &mut self.shards[p];
            shard.stats.suspected += 1;
            shard.record(Event::NodeSuspected {
                round,
                node: i,
                neighbor: j,
            });
            self.protocol.on_suspect(i, j);
        }
    }

    /// End-of-round probe fan-out (timeout mode, classic engine): every
    /// alive node sends a liveness probe to each neighbor it currently
    /// suspects. Suspicion must not stop outbound probing — a falsely
    /// suspected (or healed) link rehabilitates only because probes keep
    /// crossing it, while probes to a genuinely dead peer keep vanishing
    /// and the suspicion stands. Probes ride the same delay model as
    /// payload messages but carry no protocol state.
    fn send_probes(&mut self) {
        let Some(det) = self.detector.as_ref() else {
            return;
        };
        let nbuckets = self.probe_ring.len() as u64;
        let shard = &mut self.shards[0];
        // The suspect list is sorted by packed (node, arc) — exactly the
        // node-ascending, adjacency-slot-ascending order of the old
        // full-bitmask sweep, so the per-probe delay draws replay
        // identically.
        for &e in &det.parts[0].suspects {
            let (i, arc) = unpack_arc(e);
            if !self.believed.is_alive(i) {
                continue;
            }
            let j = self.graph.neighbors(i)[arc - self.graph.arc_base(i)];
            // Probes issue at the end of round `r`, so a delay-`d`
            // probe is due at the start of round `r + 1 + d`; the
            // arrival rounds `r+1 ..= r+len` map onto distinct ring
            // slots, each drained before it can be refilled.
            let d = self.delay.sample(&mut shard.fault_rng);
            let due = ((self.round + 1 + d) % nbuckets) as usize;
            self.probe_ring[due].push((i, j));
            shard.stats.probes_sent += 1;
        }
    }

    /// One liveness probe `src → dst` arriving on shard `p` (timeout
    /// mode): a probe that crosses a live link is proof of life for its
    /// sender — pure arrival bookkeeping, no protocol receive.
    #[inline]
    fn deliver_probe(&mut self, p: usize, src: NodeId, dst: NodeId) {
        if self.shards[p].probe_survives(&self.book, &self.believed, self.graph, src, dst) {
            self.arrive(p, dst, src);
        }
    }

    /// Start-of-round probe delivery (timeout mode, classic engine).
    fn deliver_probes(&mut self) {
        let due = (self.round % self.probe_ring.len() as u64) as usize;
        let mut batch = std::mem::take(&mut self.probe_ring[due]);
        for &(src, dst) in &batch {
            self.deliver_probe(0, src, dst);
        }
        batch.clear();
        self.probe_ring[due] = batch; // hand the allocation back
    }

    /// Execute one round (synchronous) or `n` activations (asynchronous).
    pub fn step(&mut self) {
        self.fire_faults();
        let timeout = self.detector.is_some();
        if self.partitions > 1 {
            self.step_partitioned(timeout);
        } else {
            if timeout {
                self.deliver_probes();
            }
            match self.activation {
                Activation::Synchronous => self.step_synchronous(),
                Activation::Asynchronous => self.step_asynchronous(),
            }
            if timeout {
                self.suspect_due(0);
                self.send_probes();
            }
        }
        self.merge_shards();
        self.round += 1;
        self.stats.rounds += 1;
    }

    fn step_synchronous(&mut self) {
        let round = self.round;
        // Phase 3a: every alive node draws its partner, in node order — the
        // schedule stream sees exactly the draws of a pick-and-send loop.
        let mut picks = std::mem::take(&mut self.shards[0].picks);
        let nodes = 0..self.graph.len() as NodeId;
        self.shards[0].draw_picks(
            &mut self.schedule,
            self.graph,
            &self.believed,
            nodes,
            0,
            &mut picks,
        );
        // Phase 3b: sends, enqueued for delivery `delay` rounds from now.
        // Each sender's arc row is random, so warm it a few picks ahead.
        let nbuckets = self.ring.slots() as u64;
        for k in 0..picks.len() {
            if let Some(&(node, target)) = picks.get(k + LOOKAHEAD) {
                self.protocol.prewarm(node, target);
            }
            let (i, target) = picks[k];
            let msg = self.protocol.on_send(i, target);
            let shard = &mut self.shards[0];
            shard.note_send(round, i, target);
            let d = self.delay.sample(&mut shard.fault_rng);
            let slot = if nbuckets == 1 {
                0
            } else {
                ((round + d) % nbuckets) as usize
            };
            self.ring.ship_at(slot, i, target, msg);
        }
        picks.clear();
        self.shards[0].picks = picks;

        // Phase 4+5: transit faults, then in-order delivery of everything
        // due this round.
        let slot = if nbuckets == 1 {
            0
        } else {
            (round % nbuckets) as usize
        };
        // Nothing in this phase can introduce a fault, so one check
        // covers the whole batch: the fully-clean case (no physical
        // faults, no probabilistic models) skips `transit` entirely.
        let clean = self.book.is_clean();
        let mut batch = self.ring.take_slot(slot);
        // Receivers are in random order while the batch is walked
        // sequentially: warm the state a few deliveries ahead so the
        // handler's first loads come out of cache.
        for i in 0..batch.len() {
            if let Some(ahead) = batch.get(i + LOOKAHEAD) {
                self.protocol.prewarm(ahead.1, ahead.0);
            }
            let entry = &mut batch[i];
            let (src, dst) = (entry.0, entry.1);
            let msg = &mut entry.2;
            if clean || self.transit(0, src, dst, msg) {
                self.arrive(0, dst, src);
                self.protocol.on_receive(dst, src, msg);
                self.delivered(0, src, dst);
                self.deliver_reply(dst, src);
            }
        }
        // Hand every wire buffer back to the protocol's free list (and the
        // batch Vec's allocation back to the bucket ring). Dropped-in-
        // transit messages recycle the same way as delivered ones.
        for (_, _, msg) in batch.drain(..) {
            self.protocol.reclaim(msg);
        }
        self.ring.put_back(slot, batch);
    }

    fn step_asynchronous(&mut self) {
        // n single-node activations; each is an atomic send+deliver, so
        // no crossing exchanges exist in this model.
        if self.alive_scratch_dirty {
            self.alive_scratch.clear();
            self.alive_scratch
                .extend((0..self.graph.len() as NodeId).filter(|&i| self.believed.is_alive(i)));
            self.alive_scratch_dirty = false;
        }
        if self.alive_scratch.is_empty() {
            return;
        }
        // One activation per alive node per round in expectation (dead
        // nodes' Poisson clocks stop ticking).
        for _ in 0..self.alive_scratch.len() {
            let rng = &mut self.shards[0].sched_rng;
            let i = self.alive_scratch[rng.random_range(0..self.alive_scratch.len())];
            let alive = self.believed.list(self.graph, i);
            let Some(target) = self.schedule.pick(i, alive, rng) else {
                continue;
            };
            let mut msg = self.protocol.on_send(i, target);
            self.shards[0].note_send(self.round, i, target);
            if self.transit(0, i, target, &mut msg) {
                self.arrive(0, target, i);
                self.protocol.on_receive(target, i, &mut msg);
                self.delivered(0, i, target);
                self.deliver_reply(target, i);
            }
            self.protocol.reclaim(msg);
        }
    }

    // ----- partitioned round engine ------------------------------------
    //
    // One round with `partitions = P ≥ 2`: sequential fault bookkeeping
    // brackets barrier-separated per-partition phases. Every phase is a
    // pure function of `(seed, partition)` — per-partition RNG streams,
    // fixed lane merge order — so the result is byte-identical whether
    // the phases run on one thread or sixteen. Determinism is keyed on
    // the partition count, never on the thread count.

    /// The parallel phases of one round under the partitioned engine.
    fn step_partitioned(&mut self, timeout: bool) {
        if timeout {
            self.par_run(Self::par_deliver_probes);
        }
        self.par_run(Self::par_send);
        self.par_run(Self::par_deliver);
        self.par_run(Self::par_reply);
        if timeout {
            self.par_run(Self::par_scan);
        }
    }

    /// Run `phase(self, p)` for every partition — on the worker pool when
    /// the protocol opted into parallel execution, inline otherwise.
    /// Results are identical either way.
    fn par_run(&mut self, phase: fn(&mut Self, usize)) {
        let np = self.partitions;
        if let Some(pool) = self.pool.take() {
            let ptr = SendPtr::new(self as *mut Self);
            pool.run(np, |p| {
                // SAFETY: each phase function touches only state owned by
                // its partition argument (shards[p], detector part p, its
                // lane row/column, partition-contiguous ranges of the
                // believed lists and silence clocks, and — per the
                // PARALLEL_SAFE contract — partition-owned protocol
                // state), plus shared state that is read-only during
                // parallel phases (graph, fault book, liveness, schedule
                // cursors of own nodes). The pool guarantees the phase is
                // fully retired before `run` returns, so these aliased
                // `&mut`s never overlap in time with the caller's
                // exclusive use.
                let sim = unsafe { &mut *ptr.get() };
                phase(sim, p);
            });
            self.pool = Some(pool);
        } else {
            for p in 0..np {
                phase(self, p);
            }
        }
    }

    /// Send phase for partition `p`: node order within the partition,
    /// partner picks from `p`'s own schedule stream (all drawn first, as
    /// in [`step_synchronous`](Self::step_synchronous)), outgoing messages
    /// pushed onto the `(p, target-partition)` lane.
    fn par_send(&mut self, p: usize) {
        let np = self.partitions;
        let round = self.round;
        // Hand last round's cross-partition buffers (delivered or dropped)
        // back to this partition's arena. Reclaiming them here, not in the
        // receiver's deliver phase, closes every partition's pool: it gets
        // back exactly the buffers it sent, so pool sizes cannot drift
        // between partitions and steady rounds never regrow one.
        for q in (0..np).filter(|&q| q != p) {
            for (_, _, msg) in self.lanes[p * np + q].drain(..) {
                self.protocol.part_reclaim(p, msg);
            }
        }
        let mut picks = std::mem::take(&mut self.shards[p].picks);
        let nodes = self.part_starts[p]..self.part_starts[p + 1];
        self.shards[p].draw_picks(
            &mut self.schedule,
            self.graph,
            &self.believed,
            nodes,
            0,
            &mut picks,
        );
        for k in 0..picks.len() {
            if let Some(&(node, target)) = picks.get(k + LOOKAHEAD) {
                self.protocol.prewarm(node, target);
            }
            let (i, target) = picks[k];
            let msg = self.protocol.part_send(p, i, target);
            self.shards[p].note_send(round, i, target);
            let q = self.part_of(target);
            self.lanes[p * np + q].push((i, target, msg));
        }
        picks.clear();
        self.shards[p].picks = picks;
    }

    /// Deliver phase for partition `q`: drain lane column `q` in
    /// ascending source-partition order — the fixed merge order that
    /// makes `q`'s fault-stream draws (and therefore everything
    /// downstream) independent of which thread ran which send phase.
    /// Replies are collected onto the reply lanes for the next phase
    /// instead of being delivered inline.
    fn par_deliver(&mut self, q: usize) {
        let np = self.partitions;
        let round = self.round;
        let clean = self.book.is_clean();
        for p in 0..np {
            let li = p * np + q;
            let mut lane = std::mem::take(&mut self.lanes[li]);
            for k in 0..lane.len() {
                if let Some(ahead) = lane.get(k + LOOKAHEAD) {
                    self.protocol.prewarm(ahead.1, ahead.0);
                }
                let entry = &mut lane[k];
                let (src, dst) = (entry.0, entry.1);
                if clean || self.transit(q, src, dst, &mut entry.2) {
                    self.arrive(q, dst, src);
                    self.protocol.part_receive(q, dst, src, &mut entry.2);
                    self.delivered(q, src, dst);
                    if let Some(reply) = self.protocol.part_reply(q, dst, src) {
                        self.shards[q].note_send(round, dst, src);
                        self.reply_lanes[q * np + p].push((dst, src, reply));
                    }
                }
            }
            // Cross-partition buffers wait in the lane for `p`'s next send
            // phase (see `par_send`).
            if p == q {
                for (_, _, msg) in lane.drain(..) {
                    self.protocol.part_reclaim(q, msg);
                }
            }
            self.lanes[li] = lane;
        }
    }

    /// Reply phase for partition `p`: drain reply-lane column `p` in
    /// ascending replier-partition order and deliver the push-pull
    /// responses back to `p`'s nodes.
    fn par_reply(&mut self, p: usize) {
        let np = self.partitions;
        for q in 0..np {
            let li = q * np + p;
            let mut lane = std::mem::take(&mut self.reply_lanes[li]);
            for entry in lane.iter_mut() {
                let (replier, to) = (entry.0, entry.1);
                if self.transit(p, replier, to, &mut entry.2) {
                    self.arrive(p, to, replier);
                    self.protocol.part_receive(p, to, replier, &mut entry.2);
                    self.delivered(p, replier, to);
                }
            }
            for (_, _, msg) in lane.drain(..) {
                self.protocol.part_reclaim(p, msg);
            }
            self.reply_lanes[li] = lane;
        }
    }

    /// Start-of-round probe delivery for partition `q` (timeout mode):
    /// same merge discipline as [`par_deliver`](Self::par_deliver).
    fn par_deliver_probes(&mut self, q: usize) {
        let np = self.partitions;
        for p in 0..np {
            let li = p * np + q;
            let mut lane = std::mem::take(&mut self.probe_lanes[li]);
            for &(src, dst) in &lane {
                self.deliver_probe(q, src, dst);
            }
            lane.clear();
            self.probe_lanes[li] = lane;
        }
    }

    /// End-of-round detector scan + probe fan-out for partition `p`
    /// (timeout mode): [`suspect_due`](Self::suspect_due) over `p`'s arcs,
    /// then probes out on the probe lanes (zero delay — all due next
    /// round).
    fn par_scan(&mut self, p: usize) {
        self.suspect_due(p);
        let np = self.partitions;
        let Some(det) = self.detector.as_ref() else {
            return;
        };
        for &e in &det.parts[p].suspects {
            let (i, arc) = unpack_arc(e);
            if !self.believed.is_alive(i) {
                continue;
            }
            let j = self.graph.neighbors(i)[arc - self.graph.arc_base(i)];
            let q = self.part_of(j);
            self.probe_lanes[p * np + q].push((i, j));
            self.shards[p].stats.probes_sent += 1;
        }
    }

    /// Sequential end-of-round merge: fold every shard's counters and
    /// buffered trace events into the global sinks, in ascending shard
    /// order. This fixed order is what pins the trace/report bytes
    /// across thread counts. A shard buffers at most the trace's
    /// capacity, so however many messages a round moves, its trace
    /// memory stays within one capacity per shard.
    fn merge_shards(&mut self) {
        for shard in self.shards.iter_mut() {
            if let (Some(t), Some(events)) = (self.trace.as_mut(), shard.events.as_mut()) {
                events.drain_into(t);
            }
            self.stats.merge(&std::mem::take(&mut shard.stats));
        }
    }

    /// Resolved partition count (`1` = classic engine).
    pub fn partitions(&self) -> usize {
        self.partitions
    }

    /// How the partition count was chosen: explicitly, by the ineligible
    /// single-stream default, or by the measured cost model (in which
    /// case the probe constants and predicted costs are included).
    pub fn partition_plan(&self) -> &crate::PartitionPlan {
        &self.partition_plan
    }

    /// Execute `rounds` rounds.
    pub fn run(&mut self, rounds: u64) {
        for _ in 0..rounds {
            self.step();
        }
    }

    /// Replace the fault plan from the next round on. Scheduled events
    /// whose `at_round` is already past never fire; probabilistic loss and
    /// corruption switch immediately. Used to model fault episodes ("flip
    /// bits for 200 rounds, then run clean and watch recovery"). Burst
    /// chains keep their stream position and state across swaps, so an
    /// episode that turns bursts off and back on resumes the same chain.
    /// # Panics
    /// Panics if the plan fails [`FaultPlan::validate`] against the
    /// topology (same check `try_with_options` applies at construction).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        if let Err(e) = plan.validate(self.graph) {
            panic!("{e}");
        }
        self.book.set_plan(&plan, self.round);
    }

    /// Manually kill a link right now (physical + immediate detection).
    /// Convenience for tests and interactive examples; scheduled plans are
    /// the primary interface.
    pub fn fail_link_now(&mut self, a: NodeId, b: NodeId) {
        assert!(self.graph.has_edge(a, b), "no link ({a},{b}) to fail");
        self.book.mark_link(self.graph, a, b, true);
        for (x, y) in [(a, b), (b, a)] {
            if self.believed.is_alive(x) && self.believed.remove(self.graph, x, y) {
                self.protocol.on_link_failed(x, y);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gr_topology::{bus, complete, ring};

    /// Test protocol: every node counts what it receives and remembers
    /// every failure-interface callback; messages carry the sender id as
    /// f64.
    #[derive(Default)]
    struct Recorder {
        received: Vec<Vec<(NodeId, f64)>>,
        failed_links: Vec<(NodeId, NodeId)>,
        suspects: Vec<(NodeId, NodeId)>,
        rehabs: Vec<(NodeId, NodeId)>,
        restarts: Vec<NodeId>,
        neighbor_restarts: Vec<(NodeId, NodeId)>,
        sends: u64,
    }

    impl Recorder {
        fn new(n: usize) -> Self {
            Recorder {
                received: vec![Vec::new(); n],
                ..Recorder::default()
            }
        }
    }

    impl Protocol for Recorder {
        type Msg = f64;
        fn on_send(&mut self, node: NodeId, _target: NodeId) -> f64 {
            self.sends += 1;
            node as f64
        }
        fn on_receive(&mut self, node: NodeId, from: NodeId, msg: &mut f64) {
            self.received[node as usize].push((from, *msg));
        }
        fn on_link_failed(&mut self, node: NodeId, neighbor: NodeId) {
            self.failed_links.push((node, neighbor));
        }
        fn on_suspect(&mut self, node: NodeId, neighbor: NodeId) {
            self.suspects.push((node, neighbor));
        }
        fn on_rehabilitate(&mut self, node: NodeId, neighbor: NodeId) {
            self.rehabs.push((node, neighbor));
        }
        fn on_restart(&mut self, node: NodeId) {
            self.restarts.push(node);
        }
        fn on_neighbor_restarted(&mut self, node: NodeId, restarted: NodeId) {
            self.neighbor_restarts.push((node, restarted));
        }
    }

    #[test]
    fn every_alive_node_sends_once_per_round() {
        let g = ring(10);
        let mut sim = Simulator::new(&g, Recorder::new(10), FaultPlan::none(), 1);
        sim.run(5);
        assert_eq!(sim.stats().sent, 50);
        assert_eq!(sim.stats().delivered, 50);
        assert_eq!(sim.protocol().sends, 50);
    }

    #[test]
    fn deterministic_given_seed() {
        let g = complete(8);
        let run = |seed| {
            let mut sim = Simulator::new(&g, Recorder::new(8), FaultPlan::none(), seed);
            sim.run(20);
            sim.protocol()
                .received
                .iter()
                .map(|v| v.iter().map(|&(f, _)| f).collect::<Vec<_>>())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn messages_only_flow_on_edges() {
        let g = bus(5);
        let mut sim = Simulator::new(&g, Recorder::new(5), FaultPlan::none(), 3);
        sim.run(50);
        for node in 0..5u32 {
            for &(from, _) in &sim.protocol().received[node as usize] {
                assert!(g.has_edge(node, from), "non-edge delivery {from}->{node}");
            }
        }
    }

    #[test]
    fn total_loss_delivers_nothing() {
        let g = ring(6);
        let mut sim = Simulator::new(&g, Recorder::new(6), FaultPlan::with_loss(1.0), 5);
        sim.run(10);
        assert_eq!(sim.stats().delivered, 0);
        assert_eq!(sim.stats().lost_random, 60);
    }

    #[test]
    fn link_failure_detected_and_excluded() {
        let g = bus(3); // 0-1-2
        let plan = FaultPlan::none().fail_link(0, 1, 5);
        let mut sim = Simulator::new(&g, Recorder::new(3), plan, 11);
        sim.run(20);
        // Both endpoints got the callback exactly once.
        let mut fl = sim.protocol().failed_links.clone();
        fl.sort_unstable();
        assert_eq!(fl, vec![(0, 1), (1, 0)]);
        // Node 0 is isolated afterwards: believed-alive list empty.
        assert!(sim.believed_alive(0).is_empty());
        assert_eq!(sim.believed_alive(1), &[2]);
        // After the failure, node 0 sends nothing; all rounds: pre-failure
        // 3 sends/round * 5 rounds, post: 2 sends/round * 15 rounds.
        assert_eq!(sim.stats().sent, 15 + 30);
        assert_eq!(sim.stats().lost_dead, 0); // detection was immediate
    }

    #[test]
    fn detection_delay_loses_messages_silently() {
        let g = bus(2); // single link 0-1
        let plan = FaultPlan {
            link_failures: vec![crate::faults::LinkFailure {
                a: 0,
                b: 1,
                at_round: 0,
                detect_delay: 4,
            }],
            ..FaultPlan::none()
        };
        let mut sim = Simulator::new(&g, Recorder::new(2), plan, 2);
        sim.run(10);
        // Rounds 0..4: both nodes still address the dead link; messages lost.
        assert_eq!(sim.stats().lost_dead, 8);
        assert_eq!(sim.stats().delivered, 0);
        // After detection both nodes are isolated and stop sending.
        assert_eq!(sim.stats().sent, 8);
    }

    #[test]
    fn node_crash_stops_traffic_and_notifies_neighbors() {
        let g = ring(5);
        let plan = FaultPlan::none().crash_node(2, 3);
        let mut sim = Simulator::new(&g, Recorder::new(5), plan, 17);
        sim.run(30);
        assert!(!sim.is_alive(2));
        assert_eq!(sim.alive_nodes().count(), 4);
        let mut fl = sim.protocol().failed_links.clone();
        fl.sort_unstable();
        assert_eq!(fl, vec![(1, 2), (3, 2)]);
        // Nothing was delivered to node 2 after the crash round.
        // (Ring neighbors detected instantly, so no lost_dead either.)
        assert_eq!(sim.stats().lost_dead, 0);
    }

    #[test]
    fn bit_flips_corrupt_payloads() {
        let g = bus(2);
        let mut sim = Simulator::new(&g, Recorder::new(2), FaultPlan::with_bit_flips(1.0), 23);
        sim.run(50);
        assert_eq!(sim.stats().bit_flips, 100);
        // At least one delivered payload must differ from the sender id.
        let corrupted = sim
            .protocol()
            .received
            .iter()
            .flatten()
            .any(|&(from, v)| v != from as f64);
        assert!(corrupted);
    }

    #[test]
    fn fail_link_now_is_immediate() {
        let g = bus(3);
        let mut sim = Simulator::new(&g, Recorder::new(3), FaultPlan::none(), 0);
        sim.fail_link_now(1, 2);
        assert_eq!(sim.believed_alive(1), &[0]);
        assert!(sim.believed_alive(2).is_empty());
        assert_eq!(sim.protocol().failed_links.len(), 2);
    }

    #[test]
    #[should_panic(expected = "nonexistent link")]
    fn plan_with_bogus_link_panics() {
        // Caught by `FaultPlan::validate` at construction, long before the
        // event would have fired.
        let g = bus(3); // 0-1-2; (0,2) is not an edge
        let plan = FaultPlan::none().fail_link(0, 2, 0);
        let _ = Simulator::new(&g, Recorder::new(3), plan, 0);
    }

    #[test]
    fn bogus_plans_are_typed_errors_at_construction() {
        let g = bus(3);
        let plan = FaultPlan::none().fail_link(0, 2, 7);
        let err = Simulator::try_with_options(&g, Recorder::new(3), plan, 0, SimOptions::default())
            .err()
            .unwrap();
        assert_eq!(err, SimConfigError::FaultLinkMissing { a: 0, b: 2 });
        let plan = FaultPlan::none().crash_node(9, 7);
        let err = Simulator::try_with_options(&g, Recorder::new(3), plan, 0, SimOptions::default())
            .err()
            .unwrap();
        assert_eq!(
            err,
            SimConfigError::FaultNodeOutOfRange { node: 9, nodes: 3 }
        );
    }

    #[test]
    #[should_panic(expected = "nonexistent link")]
    fn set_fault_plan_validates_too() {
        let g = bus(3);
        let mut sim = Simulator::new(&g, Recorder::new(3), FaultPlan::none(), 0);
        sim.run(2);
        sim.set_fault_plan(FaultPlan::none().fail_link(0, 2, 5));
    }

    #[test]
    fn async_activation_sends_n_per_round() {
        let g = ring(10);
        let opts = SimOptions {
            activation: Activation::Asynchronous,
            ..SimOptions::default()
        };
        let mut sim = Simulator::with_options(&g, Recorder::new(10), FaultPlan::none(), 5, opts);
        sim.run(7);
        // n activations per round, every one delivered immediately
        assert_eq!(sim.stats().sent, 70);
        assert_eq!(sim.stats().delivered, 70);
    }

    #[test]
    fn async_skips_dead_nodes() {
        let g = ring(6);
        let opts = SimOptions {
            activation: Activation::Asynchronous,
            ..SimOptions::default()
        };
        let plan = FaultPlan::none().crash_node(2, 3);
        let mut sim = Simulator::with_options(&g, Recorder::new(6), plan, 6, opts);
        sim.run(20);
        // after the crash, node 2 neither sends nor receives: total
        // activations drop from 6 to 5 per round
        assert!(!sim.is_alive(2));
        assert!(sim.stats().sent < 120);
        assert!(sim.stats().sent >= 3 * 6 + 17 * 5);
    }

    #[test]
    #[should_panic(expected = "zero-delay")]
    fn async_plus_delay_rejected() {
        let g = ring(4);
        let opts = SimOptions {
            activation: Activation::Asynchronous,
            delay: DelayModel::Fixed(2),
            ..SimOptions::default()
        };
        let _ = Simulator::with_options(&g, Recorder::new(4), FaultPlan::none(), 0, opts);
    }

    #[test]
    fn fixed_delay_shifts_delivery() {
        let g = bus(2);
        let opts = SimOptions {
            delay: DelayModel::Fixed(3),
            ..SimOptions::default()
        };
        let mut sim = Simulator::with_options(&g, Recorder::new(2), FaultPlan::none(), 1, opts);
        sim.run(3);
        // nothing delivered yet: messages from round r arrive at r+3
        assert_eq!(sim.stats().delivered, 0);
        assert_eq!(sim.stats().sent, 6);
        sim.run(1);
        // round 3 delivers the round-0 messages
        assert_eq!(sim.stats().delivered, 2);
        sim.run(10);
        assert_eq!(sim.stats().delivered, 2 * 11); // rounds 0..=10 delivered by round 13
    }

    #[test]
    fn uniform_delay_delivers_everything_eventually() {
        let g = complete(6);
        let opts = SimOptions {
            delay: DelayModel::Uniform { min: 0, max: 4 },
            ..SimOptions::default()
        };
        let mut sim = Simulator::with_options(&g, Recorder::new(6), FaultPlan::none(), 9, opts);
        sim.run(50);
        let s = sim.stats();
        // everything sent at least 4 rounds ago has been delivered
        assert!(s.delivered >= 6 * (50 - 4));
        assert!(s.delivered <= s.sent);
        // and deliveries only flow along edges
        for node in 0..6u32 {
            for &(from, _) in &sim.protocol().received[node as usize] {
                assert!(g.has_edge(node, from));
            }
        }
    }

    #[test]
    fn delayed_messages_die_with_the_link() {
        // A message in flight when its link fails is lost.
        let g = bus(2);
        let opts = SimOptions {
            delay: DelayModel::Fixed(5),
            ..SimOptions::default()
        };
        let plan = FaultPlan::none().fail_link(0, 1, 2);
        let mut sim = Simulator::with_options(&g, Recorder::new(2), plan, 3, opts);
        sim.run(20);
        // rounds 0 and 1 produced 4 in-flight messages; all die when the
        // link fails at round 2, before any could be delivered at round 5.
        assert_eq!(sim.stats().delivered, 0);
        assert_eq!(sim.stats().lost_dead, 4);
    }

    #[test]
    fn trace_records_transport_and_faults() {
        let g = bus(3);
        let plan = FaultPlan::with_loss(0.3)
            .fail_link(0, 1, 5)
            .crash_node(2, 8);
        let mut sim = Simulator::new(&g, Recorder::new(3), plan, 7);
        sim.enable_trace(10_000);
        sim.run(20);
        let trace = sim.trace().unwrap();
        let mut sent = 0;
        let mut delivered = 0;
        let mut lost = 0;
        let mut link_failed = false;
        let mut crashed = false;
        let mut detected = 0;
        for e in trace.events() {
            match e {
                Event::Sent { .. } => sent += 1,
                Event::Delivered { .. } => delivered += 1,
                Event::LostRandom { .. } | Event::LostDead { .. } => lost += 1,
                Event::LinkFailed { round, a, b } => {
                    assert_eq!((*round, *a, *b), (5, 0, 1));
                    link_failed = true;
                }
                Event::NodeCrashed { round, node } => {
                    assert_eq!((*round, *node), (8, 2));
                    crashed = true;
                }
                Event::Detected { .. } => detected += 1,
                Event::BitFlipped { .. } => {}
                Event::LinkHealed { .. }
                | Event::NodeRestarted { .. }
                | Event::NodeSuspected { .. }
                | Event::NodeRehabilitated { .. }
                | Event::LostBurst { .. }
                | Event::PartitionStarted { .. }
                | Event::PartitionHealed { .. } => {
                    panic!("no heal/restart/suspicion/burst/cut scheduled: {e:?}")
                }
            }
        }
        let s = sim.stats();
        assert_eq!(sent as u64, s.sent);
        assert_eq!(delivered as u64, s.delivered);
        assert_eq!(lost as u64, s.lost_random + s.lost_dead);
        assert!(link_failed && crashed);
        // link (0,1) detection at both ends + crash detection at node 1
        assert_eq!(detected, 3);
    }

    #[test]
    fn trace_is_bounded() {
        let g = complete(8);
        let mut sim = Simulator::new(&g, Recorder::new(8), FaultPlan::none(), 1);
        sim.enable_trace(16);
        sim.run(50);
        let t = sim.trace().unwrap();
        assert_eq!(t.len(), 16);
        assert!(t.dropped() > 0);
    }

    #[test]
    fn link_load_counts_deliveries() {
        let g = bus(2);
        let mut sim = Simulator::new(&g, Recorder::new(2), FaultPlan::none(), 3);
        sim.enable_link_load();
        sim.run(25);
        let a = sim.link_load(0, 1).unwrap();
        let b = sim.link_load(1, 0).unwrap();
        assert_eq!(a + b, sim.stats().delivered);
        assert_eq!(a, 25);
        assert_eq!(b, 25);
        // non-edges report None
        assert!(sim.link_load(0, 0).is_none());
    }

    #[test]
    fn same_seed_same_schedule_across_protocols() {
        // Two *different* protocol instances (different message handling)
        // must see the same (sender, receiver) sequence. We verify via
        // delivered-from lists on a protocol that never mutates shared
        // state the schedule could observe.
        let g = complete(6);
        let trace = |skip: bool| {
            struct P {
                log: Vec<(NodeId, NodeId)>,
                skip: bool,
            }
            impl Protocol for P {
                type Msg = f64;
                fn on_send(&mut self, node: NodeId, target: NodeId) -> f64 {
                    self.log.push((node, target));
                    if self.skip {
                        0.0
                    } else {
                        node as f64
                    }
                }
                fn on_receive(&mut self, _n: NodeId, _f: NodeId, _m: &mut f64) {}
            }
            let mut sim = Simulator::new(&g, P { log: vec![], skip }, FaultPlan::none(), 99);
            sim.run(15);
            sim.protocol().log.clone()
        };
        assert_eq!(trace(false), trace(true));
    }

    #[test]
    fn link_heal_restores_traffic() {
        let g = bus(3); // 0-1-2
        let plan = FaultPlan::none().fail_link(0, 1, 5).heal_link(0, 1, 10);
        let mut sim = Simulator::new(&g, Recorder::new(3), plan, 11);
        sim.enable_trace(10_000);
        sim.run(30);
        // Both endpoints re-admitted each other...
        assert_eq!(sim.believed_alive(0), &[1]);
        assert_eq!(sim.believed_alive(1), &[0, 2]);
        let mut rehabs = sim.protocol().rehabs.clone();
        rehabs.sort_unstable();
        assert_eq!(rehabs, vec![(0, 1), (1, 0)]);
        assert_eq!(sim.stats().rehabilitated, 2);
        // ...and traffic across the healed link resumed: node 0 is only
        // connected to 1, so any delivery to 0 after round 10 proves it.
        let trace = sim.trace().unwrap();
        assert!(trace.events().any(|e| matches!(
            e,
            Event::LinkHealed {
                round: 10,
                a: 0,
                b: 1
            }
        )));
        assert!(trace
            .events()
            .any(|e| matches!(e, Event::Delivered { round, dst: 0, .. } if *round > 10)));
    }

    #[test]
    fn node_restart_rejoins_with_fresh_state_hooks() {
        let g = ring(5);
        let plan = FaultPlan::none().crash_node(2, 3).restart_node(2, 10);
        let mut sim = Simulator::new(&g, Recorder::new(5), plan, 17);
        sim.run(30);
        assert!(sim.is_alive(2));
        assert_eq!(sim.alive_nodes().count(), 5);
        assert_eq!(sim.protocol().restarts, vec![2]);
        let mut nr = sim.protocol().neighbor_restarts.clone();
        nr.sort_unstable();
        assert_eq!(nr, vec![(1, 2), (3, 2)]);
        assert_eq!(sim.stats().rehabilitated, 2);
        // Mutual believed-alive sets are whole again.
        assert_eq!(sim.believed_alive(2), &[1, 3]);
        assert_eq!(sim.believed_alive(1), &[0, 2]);
        assert_eq!(sim.believed_alive(3), &[2, 4]);
        // The restarted node sends again.
        let received_from_2 = sim
            .protocol()
            .received
            .iter()
            .flatten()
            .filter(|&&(from, _)| from == 2)
            .count();
        assert!(received_from_2 > 0, "restarted node should resume sending");
    }

    #[test]
    fn restart_does_not_readmit_across_dead_link() {
        let g = bus(3); // 0-1-2
        let plan = FaultPlan::none()
            .crash_node(1, 2)
            .fail_link(0, 1, 4)
            .restart_node(1, 10);
        let mut sim = Simulator::new(&g, Recorder::new(3), plan, 5);
        sim.run(30);
        // Link (0,1) stays physically dead through the restart.
        assert_eq!(sim.believed_alive(1), &[2]);
        assert!(sim.believed_alive(0).is_empty());
        // Only node 2 runs the neighbor-restart handling.
        assert_eq!(sim.protocol().neighbor_restarts, vec![(2, 1)]);
    }

    #[test]
    fn restart_purges_stale_in_flight_messages() {
        let g = bus(2);
        let opts = SimOptions {
            delay: DelayModel::Fixed(3),
            ..SimOptions::default()
        };
        let plan = FaultPlan::none().crash_node(1, 1).restart_node(1, 2);
        let mut sim = Simulator::with_options(&g, Recorder::new(2), plan, 3, opts);
        sim.enable_trace(10_000);
        sim.run(20);
        assert_eq!(sim.protocol().restarts, vec![1]);
        // Everything in flight at the restart (sent in rounds 0 and 1) was
        // purged: the first delivery comes from a round ≥ 2 send, i.e. at
        // round ≥ 5.
        let first = sim
            .trace()
            .unwrap()
            .events()
            .find_map(|e| match e {
                Event::Delivered { round, .. } => Some(*round),
                _ => None,
            })
            .expect("traffic should resume after the restart");
        assert!(first >= 5, "stale in-flight delivery at round {first}");
    }

    #[test]
    fn timeout_detector_suspects_after_silence() {
        let g = bus(2);
        let opts = SimOptions {
            detector: DetectorModel::Timeout { window: 3 },
            ..SimOptions::default()
        };
        let plan = FaultPlan::none().crash_node(1, 2);
        let mut sim = Simulator::with_options(&g, Recorder::new(2), plan, 7, opts);
        sim.enable_trace(10_000);
        sim.run(20);
        // Node 0 last heard from 1 in round 1; silence reaches the window
        // at the end of round 4 — exactly crash round + window.
        assert_eq!(sim.protocol().suspects, vec![(0, 1)]);
        assert_eq!(sim.stats().suspected, 1);
        assert!(sim.believed_alive(0).is_empty());
        assert!(sim.trace().unwrap().events().any(|e| matches!(
            e,
            Event::NodeSuspected {
                round: 4,
                node: 0,
                neighbor: 1
            }
        )));
        // The oracle stayed silent: no Detected events, no on_link_failed.
        assert!(sim.protocol().failed_links.is_empty());
        assert!(!sim
            .trace()
            .unwrap()
            .events()
            .any(|e| matches!(e, Event::Detected { .. })));
    }

    #[test]
    fn false_suspicion_rehabilitated_by_late_arrival() {
        // Fixed delay 4 with window 3: both nodes suspect each other at the
        // end of round 3 (nothing has arrived yet), then the round-0
        // messages arrive in round 4 and rehabilitate — a pure
        // detector-level false positive, no fault anywhere.
        let g = bus(2);
        let opts = SimOptions {
            delay: DelayModel::Fixed(4),
            detector: DetectorModel::Timeout { window: 3 },
            ..SimOptions::default()
        };
        let mut sim = Simulator::with_options(&g, Recorder::new(2), FaultPlan::none(), 1, opts);
        sim.run(40);
        let s = sim.stats();
        assert_eq!(s.suspected, 2, "each node suspects once");
        assert_eq!(s.rehabilitated, 2, "each suspicion is rehabilitated");
        assert_eq!(sim.protocol().suspects, vec![(0, 1), (1, 0)]);
        let mut rehabs = sim.protocol().rehabs.clone();
        rehabs.sort_unstable();
        assert_eq!(rehabs, vec![(0, 1), (1, 0)]);
        // Steady state after rehabilitation: traffic flows, no flapping.
        assert_eq!(sim.believed_alive(0), &[1]);
        assert_eq!(sim.believed_alive(1), &[0]);
        assert!(s.delivered > 50, "delivered={}", s.delivered);
    }

    #[test]
    fn try_with_options_returns_typed_errors() {
        let g = ring(4);
        let opts = SimOptions {
            activation: Activation::Asynchronous,
            delay: DelayModel::Fixed(2),
            ..SimOptions::default()
        };
        let err = Simulator::try_with_options(&g, Recorder::new(4), FaultPlan::none(), 0, opts)
            .err()
            .unwrap();
        assert_eq!(err, SimConfigError::AsyncWithDelay);
        let opts = SimOptions {
            detector: DetectorModel::Timeout { window: 0 },
            ..SimOptions::default()
        };
        let err = Simulator::try_with_options(&g, Recorder::new(4), FaultPlan::none(), 0, opts)
            .err()
            .unwrap();
        assert_eq!(err, SimConfigError::ZeroTimeoutWindow);
    }

    #[test]
    #[should_panic(expected = "restarts node 0, which is alive")]
    fn restarting_an_alive_node_panics() {
        let g = bus(2);
        let plan = FaultPlan::none().restart_node(0, 1);
        let mut sim = Simulator::new(&g, Recorder::new(2), plan, 0);
        sim.run(3);
    }

    #[test]
    #[should_panic(expected = "nonexistent link")]
    fn healing_a_non_edge_panics() {
        // Construction-time validation (used to panic at fire time).
        let g = bus(3);
        let plan = FaultPlan::none().heal_link(0, 2, 1);
        let _ = Simulator::new(&g, Recorder::new(3), plan, 0);
    }

    #[test]
    fn burst_chain_drops_in_bursts() {
        // enter=1, exit=0, loss=1: the chain goes bad on the very first
        // message and stays there — everything is a burst loss, nothing
        // an i.i.d. loss.
        let g = ring(6);
        let plan = FaultPlan::none().with_burst(1.0, 0.0, 1.0);
        let mut sim = Simulator::new(&g, Recorder::new(6), plan, 5);
        sim.enable_trace(1000);
        sim.run(10);
        assert_eq!(sim.stats().delivered, 0);
        assert_eq!(sim.stats().lost_burst, 60);
        assert_eq!(sim.stats().lost_random, 0);
        assert!(sim
            .trace()
            .unwrap()
            .events()
            .any(|e| matches!(e, Event::LostBurst { .. })));
    }

    #[test]
    fn burst_off_never_draws_from_burst_stream() {
        // A plan without bursts must replay the exact delivered-from
        // sequences of the pre-burst simulator: same seed, same i.i.d.
        // loss, burst on-but-harmless (loss=0) vs. burst absent must
        // diverge *only* through the burst stream, never the fault
        // stream.
        let g = complete(8);
        let run = |plan: FaultPlan| {
            let mut sim = Simulator::new(&g, Recorder::new(8), plan, 7);
            sim.run(30);
            (
                sim.stats().lost_random,
                sim.protocol()
                    .received
                    .iter()
                    .map(|v| v.iter().map(|&(f, _)| f).collect::<Vec<_>>())
                    .collect::<Vec<_>>(),
            )
        };
        let plain = run(FaultPlan::with_loss(0.2));
        let with_chain = run(FaultPlan::with_loss(0.2).with_burst(0.3, 0.2, 0.0));
        // loss=0 bursts drop nothing and consume no fault-stream draws:
        // the i.i.d. outcome is byte-identical.
        assert_eq!(plain, with_chain);
    }

    #[test]
    fn partition_cut_and_heal() {
        let g = ring(6); // 0-1-2-3-4-5-0
                         // Cut {0,1,2} off: crossing links (2,3) and (5,0) die at round 4,
                         // heal at round 12.
        let plan = FaultPlan::none()
            .partition(vec![0, 1, 2], 4)
            .heal_partition(vec![0, 1, 2], 12);
        let mut sim = Simulator::new(&g, Recorder::new(6), plan, 9);
        sim.enable_trace(10_000);
        sim.run(8);
        // During the cut: believed sets shrank on both sides of both
        // crossing links, intra-group links untouched.
        assert_eq!(sim.believed_alive(2), &[1]);
        assert_eq!(sim.believed_alive(3), &[4]);
        assert_eq!(sim.believed_alive(0), &[1]);
        assert_eq!(sim.believed_alive(5), &[4]);
        assert_eq!(sim.believed_alive(1), &[0, 2]);
        let mut fl = sim.protocol().failed_links.clone();
        fl.sort_unstable();
        assert_eq!(fl, vec![(0, 5), (2, 3), (3, 2), (5, 0)]);
        sim.run(12);
        // After the heal: everything whole again, each endpoint
        // rehabilitated once per severed link.
        assert_eq!(sim.believed_alive(2), &[1, 3]);
        assert_eq!(sim.believed_alive(0), &[1, 5]);
        assert_eq!(sim.stats().rehabilitated, 4);
        let trace = sim.trace().unwrap();
        assert!(trace
            .events()
            .any(|e| matches!(e, Event::PartitionStarted { round: 4, cut: 2 })));
        assert!(trace
            .events()
            .any(|e| matches!(e, Event::PartitionHealed { round: 12, cut: 2 })));
        // Cross-cut traffic resumed after the heal.
        assert!(trace.events().any(
            |e| matches!(e, Event::Delivered { round, src: 3, dst: 2 } if *round > 12)
                || matches!(e, Event::Delivered { round, src: 2, dst: 3 } if *round > 12)
        ));
    }

    #[test]
    fn partition_is_bidirectional_and_listing_side_is_irrelevant() {
        let g = ring(6);
        let run = |members: Vec<NodeId>| {
            let plan = FaultPlan::none().partition(members, 3);
            let mut sim = Simulator::new(&g, Recorder::new(6), plan, 2);
            sim.run(10);
            let believed: Vec<Vec<NodeId>> =
                (0..6).map(|i| sim.believed_alive(i).to_vec()).collect();
            (believed, sim.stats().sent)
        };
        // Cutting {0,1,2} severs the same two links as cutting {3,4,5}.
        assert_eq!(run(vec![0, 1, 2]), run(vec![3, 4, 5]));
    }
}
