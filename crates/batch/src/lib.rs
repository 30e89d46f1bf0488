//! Multi-tenant batch executor: N independent reductions, one runtime.
//!
//! The production shape of a reduction service is not one giant aggregate
//! — it is thousands of *small, independent* aggregations in flight at
//! once (one per user cohort, per metric, per shard). Running N isolated
//! [`Simulator`](gr_netsim::Simulator)s gives N private arenas, N cold
//! caches and N allocation pools; this crate multiplexes all tenants
//! through **one** round engine with shared arenas instead.
//!
//! # The union-graph trick
//!
//! A batch is assembled as the [`disjoint_union`] of every tenant's
//! topology: tenant `t`'s nodes occupy the contiguous id block
//! `[node_base, node_base + n_t)` and its directed arcs the contiguous
//! slab rows `[arc_base, arc_base + a_t)`. One protocol instance is then
//! constructed over the union graph — and because the flow protocols lay
//! per-arc state out in CSR order, the existing SoA flow bank *is* the
//! tenant-strided slab, and the protocol's message pool *is* the shared
//! wire-buffer pool. No protocol code changes; the slab layout falls out
//! of the graph construction.
//!
//! [`BatchSim`] then drives per-tenant synchronous rounds exactly as the
//! classic engine would: each tenant owns the same three RNG streams
//! ([`RngStream::Schedule`]/[`Faults`](RngStream::Faults)/
//! [`Burst`](RngStream::Burst)) seeded from *its own* seed, its own fault
//! queues, its own pending-detection list and its own [`SimStats`]. A
//! tenant's node block never exchanges a message with another block, so:
//!
//! * **batch-of-1 is bit-identical to the single-run engine** — with
//!   `node_base = 0` every id, every schedule draw and every fault draw
//!   replays the classic `Simulator` exactly (pinned against the golden
//!   schedule hashes in `tests/golden_identity.rs`);
//! * **per-tenant results are invariant to batch composition and worker
//!   count** — a tenant's block is order-isomorphic to its standalone
//!   graph under the uniform id offset, its RNG streams are derived from
//!   its own seed only, and workers step whole tenants (never splitting
//!   one), so neither neighbors-in-the-batch nor thread count can perturb
//!   a single draw.
//!
//! # Execution model
//!
//! The batch engine supports the paper's model — synchronous activation,
//! zero delay, oracle failure detection — which is exactly the regime in
//! which the delivery ring degenerates to a single bucket drained every
//! round. Per-tenant fault plans carry the full scheduled-event set
//! (link failures/heals, crashes/restarts, partition cuts/heals) plus the
//! probabilistic loss / bit-flip / burst models.
//!
//! Tenants are stepped in cache-friendly batches by a
//! [`WorkerPool`]: worker `w` owns a contiguous tenant chunk and routes
//! protocol calls through the `part_*` hooks with its worker index, so
//! the per-partition arenas (message pools, scratches) that the
//! partitioned engine introduced double as per-worker arenas here. The
//! pool is only engaged when the protocol declares
//! [`PARALLEL_SAFE`](Protocol::PARALLEL_SAFE).
//!
//! # Live queries and streaming updates
//!
//! * [`BatchSim::snapshots`] hands out an [`Arc<SnapshotBoard>`]: a
//!   lock-free table of every tenant's current estimate / round /
//!   converged flag, readable from any thread *while the batch is
//!   stepping* (see [`SnapshotBoard`] for the consistency model).
//! * [`BatchSim::push_update`] queues a mid-run change to a tenant
//!   node's local input value (cf. `live_monitoring.rs`); updates apply
//!   at the owning tenant's next round boundary, deterministically.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gr_netsim::{
    stream_rng, BurstModel, Corrupt, FaultPlan, LinkFailure, LinkHeal, NetPartition, NodeCrash,
    NodeRestart, PartitionHeal, PerPart, Protocol, RngStream, Schedule, SimConfigError, SimStats,
    WorkerPool,
};
use gr_reduction::{
    AggregateKind, FlowUpdating, InitialData, PushCancelFlow, PushFlow, ReductionProtocol,
};
use gr_topology::{disjoint_union, Graph, NodeId};
use rand::rngs::StdRng;
use rand::RngExt;

/// One tenant of a batch: its own topology, seed, fault plan, initial
/// values and round budget — the same knobs a standalone `Simulator` run
/// would take.
#[derive(Clone, Debug)]
pub struct TenantSpec {
    /// The tenant's topology (hc6-class sizes are the design center).
    pub graph: Graph,
    /// Master seed for the tenant's schedule/fault/burst RNG streams.
    pub seed: u64,
    /// Fault plan in *tenant-local* node ids.
    pub plan: FaultPlan,
    /// Initial scalar value per node (`values.len() == graph.len()`).
    pub values: Vec<f64>,
    /// Rounds after which the tenant stops stepping.
    pub max_rounds: u64,
}

impl TenantSpec {
    /// A fault-free tenant averaging `values` for up to `max_rounds`.
    pub fn clean(graph: Graph, seed: u64, values: Vec<f64>, max_rounds: u64) -> Self {
        TenantSpec {
            graph,
            seed,
            plan: FaultPlan::none(),
            values,
            max_rounds,
        }
    }
}

/// A rejected batch configuration.
#[derive(Clone, Debug, PartialEq)]
pub enum BatchConfigError {
    /// A batch needs at least one tenant.
    NoTenants,
    /// `values.len() != graph.len()` for a tenant.
    ValueCountMismatch {
        /// Offending tenant index.
        tenant: usize,
        /// Supplied value count.
        values: usize,
        /// The tenant topology's node count.
        nodes: usize,
    },
    /// The union of all tenant topologies exceeds `u32` node ids.
    TooManyNodes {
        /// Total node count across tenants.
        total: usize,
    },
    /// A tenant's fault plan failed validation against its topology.
    Fault {
        /// Offending tenant index.
        tenant: usize,
        /// The underlying simulator config error.
        error: SimConfigError,
    },
    /// `threads == 0` — the worker count includes the caller's thread.
    ZeroThreads,
}

impl std::fmt::Display for BatchConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchConfigError::NoTenants => write!(f, "batch has no tenants"),
            BatchConfigError::ValueCountMismatch {
                tenant,
                values,
                nodes,
            } => write!(
                f,
                "tenant {tenant}: {values} initial values for {nodes} nodes"
            ),
            BatchConfigError::TooManyNodes { total } => {
                write!(f, "batch union of {total} nodes exceeds u32 node ids")
            }
            BatchConfigError::Fault { tenant, error } => {
                write!(f, "tenant {tenant}: {error}")
            }
            BatchConfigError::ZeroThreads => {
                write!(f, "thread count must be at least 1")
            }
        }
    }
}

impl std::error::Error for BatchConfigError {}

/// Execution knobs for a batch run.
#[derive(Clone, Debug)]
pub struct BatchOptions {
    /// Partner-selection policy (instantiated per tenant; round-robin
    /// cursors are tenant-local).
    pub schedule: Schedule,
    /// Worker threads stepping tenant chunks. `1` runs on the caller's
    /// thread; clamped to `1` unless the protocol is
    /// [`PARALLEL_SAFE`](Protocol::PARALLEL_SAFE). Purely an execution
    /// hint — per-tenant results are byte-identical for every value.
    pub threads: usize,
    /// Check tenant convergence every `check_every` rounds (`0` = never;
    /// the throughput benchmarks run with `0`).
    pub check_every: u64,
    /// Relative-error threshold against the tenant's input mean for the
    /// snapshot `converged` flag (`None` disables the flag).
    pub target_accuracy: Option<f64>,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            schedule: Schedule::uniform(),
            threads: 1,
            check_every: 0,
            target_accuracy: None,
        }
    }
}

/// A protocol the batch executor can query and live-update. Implemented
/// for the scalar flow protocols; test drivers implement it trivially.
pub trait TenantProtocol: Protocol {
    /// Node `node`'s current scalar estimate (may be NaN early on).
    fn estimate(&self, node: NodeId) -> f64;
    /// Replace node `node`'s local input value mid-run.
    fn update_local_value(&mut self, node: NodeId, value: f64);
}

impl TenantProtocol for PushCancelFlow<'_, f64> {
    fn estimate(&self, node: NodeId) -> f64 {
        self.scalar_estimate(node)
    }
    fn update_local_value(&mut self, node: NodeId, value: f64) {
        self.set_local_value(node, value);
    }
}

impl TenantProtocol for PushFlow<'_, f64> {
    fn estimate(&self, node: NodeId) -> f64 {
        self.scalar_estimate(node)
    }
    fn update_local_value(&mut self, node: NodeId, value: f64) {
        self.set_local_value(node, value);
    }
}

impl TenantProtocol for FlowUpdating<'_, f64> {
    fn estimate(&self, node: NodeId) -> f64 {
        self.scalar_estimate(node)
    }
    fn update_local_value(&mut self, node: NodeId, value: f64) {
        self.set_local_value(node, value);
    }
}

/// A tenant's block in the union graph.
#[derive(Clone, Copy, Debug)]
struct Extent {
    node_base: NodeId,
    nodes: u32,
    arc_base: usize,
    arcs: usize,
}

/// The assembled union topology plus per-tenant extents. Owns the union
/// [`Graph`] so the (graph-borrowing) protocol and [`BatchSim`] can both
/// point into it.
pub struct BatchHost {
    graph: Graph,
    extents: Vec<Extent>,
}

impl BatchHost {
    /// Assemble the disjoint-union topology for `specs` and validate
    /// every tenant's plan and value vector.
    pub fn assemble(specs: &[TenantSpec]) -> Result<BatchHost, BatchConfigError> {
        if specs.is_empty() {
            return Err(BatchConfigError::NoTenants);
        }
        let total: usize = specs.iter().map(|s| s.graph.len()).sum();
        if total > NodeId::MAX as usize {
            return Err(BatchConfigError::TooManyNodes { total });
        }
        let mut extents = Vec::with_capacity(specs.len());
        let (mut node_base, mut arc_base) = (0u32, 0usize);
        for (t, spec) in specs.iter().enumerate() {
            if spec.values.len() != spec.graph.len() {
                return Err(BatchConfigError::ValueCountMismatch {
                    tenant: t,
                    values: spec.values.len(),
                    nodes: spec.graph.len(),
                });
            }
            spec.plan
                .validate(&spec.graph)
                .map_err(|error| BatchConfigError::Fault { tenant: t, error })?;
            extents.push(Extent {
                node_base,
                nodes: spec.graph.len() as u32,
                arc_base,
                arcs: spec.graph.arc_count(),
            });
            node_base += spec.graph.len() as u32;
            arc_base += spec.graph.arc_count();
        }
        let parts: Vec<&Graph> = specs.iter().map(|s| &s.graph).collect();
        Ok(BatchHost {
            graph: disjoint_union(&parts),
            extents,
        })
    }

    /// The union topology.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of tenants.
    pub fn tenant_count(&self) -> usize {
        self.extents.len()
    }

    /// The union-graph node-id range of tenant `t`.
    pub fn tenant_nodes(&self, t: usize) -> std::ops::Range<NodeId> {
        let e = self.extents[t];
        e.node_base..e.node_base + e.nodes
    }

    /// Concatenated initial data over the union graph (every tenant
    /// computes an average, the paper's aggregate).
    pub fn union_data(&self, specs: &[TenantSpec]) -> InitialData<f64> {
        let values: Vec<f64> = specs
            .iter()
            .flat_map(|s| s.values.iter().copied())
            .collect();
        InitialData::with_kind(values, AggregateKind::Average)
    }
}

/// One due oracle detection: `node` learns `neighbor` is unreachable.
#[derive(Clone, Copy, Debug)]
struct Detection {
    round: u64,
    node: NodeId,
    neighbor: NodeId,
}

/// Per-tenant runtime state: RNG streams, fault queues, transit models
/// and counters — everything the classic engine keeps globally, struck
/// per tenant. Node ids in queues are already offset into union space.
struct Tenant {
    node_base: NodeId,
    node_end: NodeId,
    arc_base: usize,
    sched_rng: StdRng,
    fault_rng: StdRng,
    burst_rng: StdRng,
    schedule: Schedule,
    loss: f64,
    flip: f64,
    burst: Option<BurstModel>,
    burst_bad: bool,
    link_queue: Vec<LinkFailure>,
    link_cursor: usize,
    crash_queue: Vec<NodeCrash>,
    crash_cursor: usize,
    heal_queue: Vec<LinkHeal>,
    heal_cursor: usize,
    restart_queue: Vec<NodeRestart>,
    restart_cursor: usize,
    cut_queue: Vec<NetPartition>,
    cut_cursor: usize,
    cut_heal_queue: Vec<PartitionHeal>,
    cut_heal_cursor: usize,
    pending_detections: Vec<Detection>,
    /// Physically-dead arc bitmask, indexed by *tenant-local* arc —
    /// word-aligned per tenant so concurrent workers never share a word.
    dead_arcs: Vec<u64>,
    physical_faults: bool,
    stats: SimStats,
    round: u64,
    max_rounds: u64,
    active: bool,
    converged: bool,
    /// Running sum of the tenant's input values (kept current under
    /// streaming updates) — the convergence target is `input_sum / n`.
    input_sum: f64,
}

/// Lock-free per-tenant progress table, readable while the batch steps.
///
/// # Consistency model
///
/// Each field is an independent atomic: `estimate` (f64 bits), `round`,
/// and a flag word (`converged`, `done`). Writers publish estimate and
/// flags first and the round counter last with `Release`; a reader that
/// loads `round` with `Acquire` therefore observes an estimate at least
/// as fresh as the *previous* round of the value it read. Fields read
/// together are not a transactional tuple — a snapshot is "some state no
/// older than round − 1", which is exactly what a monitoring plane needs
/// and costs no locks on the round path.
pub struct SnapshotBoard {
    est_bits: Vec<AtomicU64>,
    rounds: Vec<AtomicU64>,
    flags: Vec<AtomicU64>,
}

/// One tenant's published progress.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TenantSnapshot {
    /// Node 0's current estimate (the tenant's designated probe node).
    pub estimate: f64,
    /// Rounds the tenant has completed.
    pub round: u64,
    /// Within `target_accuracy` of the input mean at the last check.
    pub converged: bool,
    /// The tenant has stopped stepping (round budget exhausted).
    pub done: bool,
}

const FLAG_CONVERGED: u64 = 1;
const FLAG_DONE: u64 = 2;

impl SnapshotBoard {
    fn new(tenants: usize) -> Arc<SnapshotBoard> {
        Arc::new(SnapshotBoard {
            est_bits: (0..tenants)
                .map(|_| AtomicU64::new(f64::NAN.to_bits()))
                .collect(),
            rounds: (0..tenants).map(|_| AtomicU64::new(0)).collect(),
            flags: (0..tenants).map(|_| AtomicU64::new(0)).collect(),
        })
    }

    /// Number of tenants on the board.
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// `true` for an empty board (never produced by a valid batch).
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// Tenant `t`'s current snapshot. Lock-free; see the type docs for
    /// the cross-field consistency model.
    pub fn get(&self, t: usize) -> TenantSnapshot {
        let round = self.rounds[t].load(Ordering::Acquire);
        let flags = self.flags[t].load(Ordering::Relaxed);
        TenantSnapshot {
            estimate: f64::from_bits(self.est_bits[t].load(Ordering::Relaxed)),
            round,
            converged: flags & FLAG_CONVERGED != 0,
            done: flags & FLAG_DONE != 0,
        }
    }

    fn publish(&self, t: usize, estimate: f64, round: u64, converged: bool, done: bool) {
        let mut flags = 0;
        if converged {
            flags |= FLAG_CONVERGED;
        }
        if done {
            flags |= FLAG_DONE;
        }
        self.est_bits[t].store(estimate.to_bits(), Ordering::Relaxed);
        self.flags[t].store(flags, Ordering::Relaxed);
        self.rounds[t].store(round, Ordering::Release);
    }
}

/// `*mut` wrapper asserting the phase-disjointness discipline: workers
/// touch only tenant-owned state of their own chunk (plus their own
/// worker-indexed arenas), and the pool barrier retires every worker
/// before the caller resumes exclusive use.
struct SendPtr<T>(*mut T);
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

/// The multi-tenant round engine. See the crate docs for the execution
/// and determinism model.
pub struct BatchSim<'h, P: TenantProtocol> {
    host: &'h BatchHost,
    protocol: P,
    tenants: Vec<Tenant>,
    /// Union-wide liveness (tenant-strided; workers touch disjoint
    /// ranges).
    alive_node: Vec<bool>,
    /// Union-CSR believed-alive lists, one segment per node.
    believed_flat: Vec<NodeId>,
    believed_len: Vec<u32>,
    /// Current input value per union node (convergence targets and
    /// streaming-update deltas).
    inputs: Vec<f64>,
    /// Queued streaming updates per tenant, applied at its next round
    /// boundary: `(union node, new value)` in push order.
    updates: Vec<Vec<(NodeId, f64)>>,
    /// Per-worker round buffers, each on cache lines of its own.
    bufs: PerPart<WorkerBufs<<P as Protocol>::Msg>>,
    workers: usize,
    pool: Option<WorkerPool>,
    board: Arc<SnapshotBoard>,
    check_every: u64,
    target: Option<f64>,
    round: u64,
}

impl<'h, P: TenantProtocol> BatchSim<'h, P> {
    /// Build the batch engine over an assembled host. `protocol` must
    /// have been constructed over [`BatchHost::graph`]; `specs` must be
    /// the slice `host` was assembled from.
    pub fn new(
        host: &'h BatchHost,
        mut protocol: P,
        specs: &[TenantSpec],
        opts: BatchOptions,
    ) -> Result<Self, BatchConfigError> {
        assert_eq!(
            specs.len(),
            host.extents.len(),
            "spec count does not match the assembled host"
        );
        if opts.threads == 0 {
            return Err(BatchConfigError::ZeroThreads);
        }
        let graph = &host.graph;
        let n = graph.len();
        let mut believed_flat = Vec::with_capacity(graph.arc_count());
        let mut believed_len = Vec::with_capacity(n);
        for i in 0..n as NodeId {
            believed_flat.extend_from_slice(graph.neighbors(i));
            believed_len.push(graph.degree(i) as u32);
        }
        let mut inputs = Vec::with_capacity(n);
        let mut tenants = Vec::with_capacity(specs.len());
        for (spec, e) in specs.iter().zip(&host.extents) {
            inputs.extend_from_slice(&spec.values);
            tenants.push(Tenant::new(spec, *e, &opts.schedule));
        }
        let workers = if P::PARALLEL_SAFE {
            opts.threads.min(tenants.len()).max(1)
        } else {
            1
        };
        if workers > 1 {
            protocol.set_partitions(workers);
        }
        let pool = (workers > 1).then(|| WorkerPool::new(workers));
        let board = SnapshotBoard::new(tenants.len());
        Ok(BatchSim {
            host,
            protocol,
            updates: vec![Vec::new(); tenants.len()],
            tenants,
            alive_node: vec![true; n],
            believed_flat,
            believed_len,
            inputs,
            bufs: PerPart::from_fn(workers, |_| WorkerBufs {
                picks: Vec::new(),
                sends: Vec::new(),
            }),
            workers,
            pool,
            board,
            check_every: opts.check_every,
            target: opts.target_accuracy,
            round: 0,
        })
    }

    /// The shared snapshot table (clone the `Arc` into reader threads).
    pub fn snapshots(&self) -> Arc<SnapshotBoard> {
        Arc::clone(&self.board)
    }

    /// The protocol (for estimate inspection between rounds).
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Mutable protocol access.
    pub fn protocol_mut(&mut self) -> &mut P {
        &mut self.protocol
    }

    /// Number of tenants.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// Resolved worker count (1 = caller's thread only).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Batch rounds completed.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Tenant `t`'s transport counters.
    pub fn tenant_stats(&self, t: usize) -> SimStats {
        self.tenants[t].stats
    }

    /// Rounds tenant `t` has completed.
    pub fn tenant_round(&self, t: usize) -> u64 {
        self.tenants[t].round
    }

    /// `true` once tenant `t` has exhausted its round budget.
    pub fn tenant_done(&self, t: usize) -> bool {
        !self.tenants[t].active
    }

    /// Tenant `t`'s current estimate at tenant-local node `node`.
    pub fn tenant_estimate(&self, t: usize, node: NodeId) -> f64 {
        let tn = &self.tenants[t];
        assert!(
            node < tn.node_end - tn.node_base,
            "node out of tenant range"
        );
        self.protocol.estimate(tn.node_base + node)
    }

    /// `true` if tenant-local `node` of tenant `t` is alive.
    pub fn tenant_node_alive(&self, t: usize, node: NodeId) -> bool {
        let tn = &self.tenants[t];
        assert!(
            node < tn.node_end - tn.node_base,
            "node out of tenant range"
        );
        self.alive_node[(tn.node_base + node) as usize]
    }

    /// Tenant `t`'s alive nodes in *union-graph* ids, ascending — the
    /// id space the protocol's introspection hooks (estimates, mass,
    /// flows) speak, so external checkers can audit a tenant in place.
    pub fn tenant_alive_nodes(&self, t: usize) -> impl Iterator<Item = NodeId> + '_ {
        let tn = &self.tenants[t];
        (tn.node_base..tn.node_end).filter(|&i| self.alive_node[i as usize])
    }

    /// The union-graph nodes `node` currently believes alive (sorted
    /// ascending) — the batch analogue of `Simulator::believed_alive`.
    pub fn believed_alive(&self, node: NodeId) -> &[NodeId] {
        let base = self.host.graph.arc_base(node);
        let len = self.believed_len[node as usize] as usize;
        &self.believed_flat[base..base + len]
    }

    /// `true` when every tenant has stopped stepping.
    pub fn all_done(&self) -> bool {
        self.tenants.iter().all(|t| !t.active)
    }

    /// Queue a streaming update: tenant `t`'s *local* node `node` changes
    /// its input value to `value` at the start of the tenant's next
    /// round. Updates apply in push order; the aggregate re-converges to
    /// the new mean (LiMoSense-style live monitoring).
    pub fn push_update(&mut self, t: usize, node: NodeId, value: f64) {
        let tn = &self.tenants[t];
        assert!(
            node < tn.node_end - tn.node_base,
            "node out of tenant range"
        );
        self.updates[t].push((tn.node_base + node, value));
        // The old flag describes the old target: force a fresh check.
        self.tenants[t].converged = false;
    }

    /// Step every active tenant one round.
    pub fn step_round(&mut self) {
        let nw = self.workers;
        if let Some(pool) = self.pool.take() {
            let ptr = SendPtr(self as *mut Self);
            pool.run(nw, move |w| {
                // Capture the whole wrapper (not the raw-pointer field)
                // so the closure inherits SendPtr's Send + Sync.
                let ptr = ptr;
                // SAFETY: worker `w` steps only tenants in its fixed
                // chunk; every mutable touch is tenant-owned (the tenant
                // struct, its update queue, its contiguous node/arc
                // ranges of the strided vectors, its nodes' protocol
                // state per the PARALLEL_SAFE contract) or worker-owned
                // (bufs[w], the protocol's part-`w` arenas). The
                // snapshot board is written through atomics. The pool's
                // barrier retires all workers before `run` returns, so
                // these aliased `&mut`s never overlap the caller's
                // exclusive use.
                let sim = unsafe { &mut *ptr.0 };
                sim.run_worker(w);
            });
            self.pool = Some(pool);
        } else {
            self.run_worker(0);
        }
        self.round += 1;
    }

    /// Step until every tenant is done, at most `max_rounds` batch
    /// rounds.
    pub fn run(&mut self, max_rounds: u64) {
        for _ in 0..max_rounds {
            if self.all_done() {
                break;
            }
            self.step_round();
        }
    }

    /// Step the whole batch until tenant `t`'s converged flag is set
    /// (per the `check_every` cadence) or it stops, at most `max_rounds`
    /// additional batch rounds.
    pub fn run_until_converged(&mut self, t: usize, max_rounds: u64) {
        for _ in 0..max_rounds {
            if self.tenants[t].converged || !self.tenants[t].active {
                break;
            }
            self.step_round();
        }
    }

    /// Tenant chunk of worker `w`: `[w·T/W, (w+1)·T/W)` — fixed by
    /// construction, so the tenant→worker map never depends on timing.
    #[inline]
    fn chunk(&self, w: usize) -> (usize, usize) {
        let t = self.tenants.len();
        (w * t / self.workers, (w + 1) * t / self.workers)
    }

    fn run_worker(&mut self, w: usize) {
        let (t0, t1) = self.chunk(w);
        for t in t0..t1 {
            if self.tenants[t].active {
                self.step_tenant(w, t);
            }
        }
    }

    /// One tenant round: the classic engine's phase order exactly —
    /// streaming updates, scheduled faults, due detections, then the
    /// synchronous send/deliver/reply sweep.
    fn step_tenant(&mut self, w: usize, t: usize) {
        self.apply_updates(t);
        self.fire_scheduled_faults(t);
        self.deliver_detections(t);
        self.sync_round(w, t);
        let tn = &mut self.tenants[t];
        tn.round += 1;
        tn.stats.rounds += 1;
        if tn.round >= tn.max_rounds {
            tn.active = false;
        }
        let due_check = self.check_every > 0
            && (self.tenants[t].round.is_multiple_of(self.check_every) || !self.tenants[t].active);
        if due_check {
            self.check_convergence(t);
        }
        let tn = &self.tenants[t];
        let est = self.protocol.estimate(tn.node_base);
        self.board
            .publish(t, est, tn.round, tn.converged, !tn.active);
    }

    /// Drain tenant `t`'s queued streaming updates, in push order.
    fn apply_updates(&mut self, t: usize) {
        if self.updates[t].is_empty() {
            return;
        }
        let batch = std::mem::take(&mut self.updates[t]);
        for &(node, value) in &batch {
            let old = self.inputs[node as usize];
            self.inputs[node as usize] = value;
            self.tenants[t].input_sum += value - old;
            self.protocol.update_local_value(node, value);
        }
        // Hand the allocation back for the next burst of updates.
        let mut batch = batch;
        batch.clear();
        self.updates[t] = batch;
    }

    /// Refresh tenant `t`'s converged flag: every alive node within
    /// `target` relative error of the input mean. (The mean is *not*
    /// re-based after crashes — the campaign oracle does the rigorous
    /// survivor-mass accounting; this flag serves live dashboards.)
    fn check_convergence(&mut self, t: usize) {
        let Some(target) = self.target else { return };
        let tn = &self.tenants[t];
        let n = (tn.node_end - tn.node_base) as f64;
        let mean = tn.input_sum / n;
        let scale = mean.abs().max(1.0);
        let mut converged = true;
        for i in tn.node_base..tn.node_end {
            if !self.alive_node[i as usize] {
                continue;
            }
            let rel = (self.protocol.estimate(i) - mean).abs() / scale;
            if rel > target || rel.is_nan() {
                converged = false;
                break;
            }
        }
        self.tenants[t].converged = converged;
    }

    /// Mark the arcs of link `(a, b)` physically dead, both directions.
    fn mark_link_dead(&mut self, t: usize, a: NodeId, b: NodeId) {
        let graph = &self.host.graph;
        let tn = &mut self.tenants[t];
        tn.physical_faults = true;
        for (x, y) in [(a, b), (b, a)] {
            if let Some(slot) = graph.neighbor_slot(x, y) {
                let arc = graph.arc_base(x) + slot - tn.arc_base;
                tn.dead_arcs[arc / 64] |= 1 << (arc % 64);
            }
        }
    }

    #[inline]
    fn arc_is_dead(graph: &Graph, tn: &Tenant, src: NodeId, dst: NodeId) -> bool {
        match graph.neighbor_slot(src, dst) {
            Some(slot) => {
                let arc = graph.arc_base(src) + slot - tn.arc_base;
                tn.dead_arcs[arc / 64] & (1 << (arc % 64)) != 0
            }
            None => false,
        }
    }

    /// Insert keeping `pending_detections` sorted descending by
    /// `(round, node, neighbor)` — the classic engine's exact queue
    /// discipline, so due detections pop in ascending handling order.
    fn push_detection(&mut self, t: usize, d: Detection) {
        let key = (d.round, d.node, d.neighbor);
        let q = &mut self.tenants[t].pending_detections;
        let pos = q.partition_point(|p| (p.round, p.node, p.neighbor) > key);
        q.insert(pos, d);
    }

    fn remove_believed(&mut self, node: NodeId, neighbor: NodeId) -> bool {
        let base = self.host.graph.arc_base(node);
        let len = self.believed_len[node as usize] as usize;
        let list = &mut self.believed_flat[base..base + len];
        match list.binary_search(&neighbor) {
            Ok(pos) => {
                list.copy_within(pos + 1.., pos);
                self.believed_len[node as usize] = (len - 1) as u32;
                true
            }
            Err(_) => false,
        }
    }

    fn readmit_believed(&mut self, node: NodeId, neighbor: NodeId) -> bool {
        let base = self.host.graph.arc_base(node);
        let len = self.believed_len[node as usize] as usize;
        match self.believed_flat[base..base + len].binary_search(&neighbor) {
            Ok(_) => false,
            Err(pos) => {
                self.believed_flat
                    .copy_within(base + pos..base + len, base + pos + 1);
                self.believed_flat[base + pos] = neighbor;
                self.believed_len[node as usize] = (len + 1) as u32;
                true
            }
        }
    }

    /// Phase 1 for tenant `t`: fire scheduled physical faults due this
    /// round and enqueue their oracle detections — cursor advances over
    /// pre-sorted queues, in the classic engine's fire order (link
    /// failures, partition cuts, crashes, link heals, partition heals,
    /// restarts).
    fn fire_scheduled_faults(&mut self, t: usize) {
        let round = self.tenants[t].round;
        while let Some(&f) = {
            let tn = &self.tenants[t];
            tn.link_queue.get(tn.link_cursor)
        } {
            if f.at_round > round {
                break;
            }
            self.tenants[t].link_cursor += 1;
            self.mark_link_dead(t, f.a, f.b);
            let at = round + f.detect_delay;
            self.push_detection(
                t,
                Detection {
                    round: at,
                    node: f.a,
                    neighbor: f.b,
                },
            );
            self.push_detection(
                t,
                Detection {
                    round: at,
                    node: f.b,
                    neighbor: f.a,
                },
            );
        }
        while let Some(p) = {
            let tn = &self.tenants[t];
            tn.cut_queue.get(tn.cut_cursor).cloned()
        } {
            if p.at_round > round {
                break;
            }
            self.tenants[t].cut_cursor += 1;
            self.fire_partition(t, &p);
        }
        while let Some(&c) = {
            let tn = &self.tenants[t];
            tn.crash_queue.get(tn.crash_cursor)
        } {
            if c.at_round > round {
                break;
            }
            self.tenants[t].crash_cursor += 1;
            self.alive_node[c.node as usize] = false;
            self.tenants[t].physical_faults = true;
            let at = round + c.detect_delay;
            let deg = self.host.graph.degree(c.node);
            for k in 0..deg {
                let j = self.host.graph.neighbors(c.node)[k];
                self.push_detection(
                    t,
                    Detection {
                        round: at,
                        node: j,
                        neighbor: c.node,
                    },
                );
            }
        }
        while let Some(&h) = {
            let tn = &self.tenants[t];
            tn.heal_queue.get(tn.heal_cursor)
        } {
            if h.at_round > round {
                break;
            }
            self.tenants[t].heal_cursor += 1;
            self.fire_link_heal(t, h.a, h.b);
        }
        while let Some(p) = {
            let tn = &self.tenants[t];
            tn.cut_heal_queue.get(tn.cut_heal_cursor).cloned()
        } {
            if p.at_round > round {
                break;
            }
            self.tenants[t].cut_heal_cursor += 1;
            self.fire_partition_heal(t, &p);
        }
        while let Some(&r) = {
            let tn = &self.tenants[t];
            tn.restart_queue.get(tn.restart_cursor)
        } {
            if r.at_round > round {
                break;
            }
            self.tenants[t].restart_cursor += 1;
            self.fire_node_restart(t, r.node);
        }
    }

    /// Scripted partition cut for tenant `t`: every live crossing link of
    /// the member set dies, with per-link oracle detections.
    fn fire_partition(&mut self, t: usize, p: &NetPartition) {
        let round = self.tenants[t].round;
        let (nb, ne) = (self.tenants[t].node_base, self.tenants[t].node_end);
        let mut in_group = vec![false; (ne - nb) as usize];
        for &m in &p.members {
            in_group[(m - nb) as usize] = true;
        }
        for &m in &p.members {
            let deg = self.host.graph.degree(m);
            for k in 0..deg {
                let j = self.host.graph.neighbors(m)[k];
                if in_group[(j - nb) as usize]
                    || Self::arc_is_dead(&self.host.graph, &self.tenants[t], m, j)
                {
                    continue;
                }
                self.mark_link_dead(t, m, j);
                let at = round + p.detect_delay;
                self.push_detection(
                    t,
                    Detection {
                        round: at,
                        node: m,
                        neighbor: j,
                    },
                );
                self.push_detection(
                    t,
                    Detection {
                        round: at,
                        node: j,
                        neighbor: m,
                    },
                );
            }
        }
    }

    /// Scripted partition heal for tenant `t`: every severed crossing
    /// link returns via the ordinary per-link heal path.
    fn fire_partition_heal(&mut self, t: usize, p: &PartitionHeal) {
        let (nb, ne) = (self.tenants[t].node_base, self.tenants[t].node_end);
        let mut in_group = vec![false; (ne - nb) as usize];
        for &m in &p.members {
            in_group[(m - nb) as usize] = true;
        }
        for &m in &p.members {
            let deg = self.host.graph.degree(m);
            for k in 0..deg {
                let j = self.host.graph.neighbors(m)[k];
                if in_group[(j - nb) as usize]
                    || !Self::arc_is_dead(&self.host.graph, &self.tenants[t], m, j)
                {
                    continue;
                }
                self.fire_link_heal(t, m, j);
            }
        }
    }

    /// Bring link `(a, b)` of tenant `t` back: clear dead bits, cancel
    /// pending detections for the pair, re-admit alive endpoints with the
    /// protocol's rehabilitation hook.
    fn fire_link_heal(&mut self, t: usize, a: NodeId, b: NodeId) {
        {
            let graph = &self.host.graph;
            let tn = &mut self.tenants[t];
            for (x, y) in [(a, b), (b, a)] {
                if let Some(slot) = graph.neighbor_slot(x, y) {
                    let arc = graph.arc_base(x) + slot - tn.arc_base;
                    tn.dead_arcs[arc / 64] &= !(1 << (arc % 64));
                }
            }
            tn.pending_detections.retain(|d| {
                !((d.node == a && d.neighbor == b) || (d.node == b && d.neighbor == a))
            });
        }
        for (x, y) in [(a, b), (b, a)] {
            if !self.alive_node[x as usize] || !self.alive_node[y as usize] {
                continue;
            }
            if self.readmit_believed(x, y) {
                self.tenants[t].stats.rehabilitated += 1;
                self.protocol.on_rehabilitate(x, y);
            }
        }
    }

    /// Rejoin crashed `node` of tenant `t` with fresh state — the classic
    /// engine's restart path minus the in-flight purges (the zero-delay
    /// ring is drained every round, so nothing can be in flight here).
    fn fire_node_restart(&mut self, t: usize, node: NodeId) {
        assert!(
            !self.alive_node[node as usize],
            "fault plan restarts node, which is alive"
        );
        self.alive_node[node as usize] = true;
        {
            let graph = &self.host.graph;
            let tn = &mut self.tenants[t];
            let arc_dead = |src: NodeId, dst: NodeId| match graph.neighbor_slot(src, dst) {
                Some(slot) => {
                    let arc = graph.arc_base(src) + slot - tn.arc_base;
                    tn.dead_arcs[arc / 64] & (1 << (arc % 64)) != 0
                }
                None => false,
            };
            tn.pending_detections
                .retain(|d| d.node != node && (d.neighbor != node || arc_dead(d.node, d.neighbor)));
        }
        // The rebooted node believes exactly its alive neighbors over
        // live links; the CSR segment re-expands within its extent.
        let base = self.host.graph.arc_base(node);
        let deg = self.host.graph.degree(node);
        let mut len = 0usize;
        for k in 0..deg {
            let j = self.host.graph.neighbors(node)[k];
            if self.alive_node[j as usize]
                && !Self::arc_is_dead(&self.host.graph, &self.tenants[t], node, j)
            {
                self.believed_flat[base + len] = j;
                len += 1;
            }
        }
        self.believed_len[node as usize] = len as u32;
        self.protocol.on_restart(node);
        for k in 0..deg {
            let j = self.host.graph.neighbors(node)[k];
            if !self.alive_node[j as usize]
                || Self::arc_is_dead(&self.host.graph, &self.tenants[t], j, node)
            {
                continue;
            }
            if self.readmit_believed(j, node) {
                self.tenants[t].stats.rehabilitated += 1;
            }
            self.protocol.on_neighbor_restarted(j, node);
        }
    }

    /// Phase 2 for tenant `t`: deliver due detections to alive endpoints
    /// in the deterministic `(node, neighbor)` order.
    fn deliver_detections(&mut self, t: usize) {
        if self.tenants[t].pending_detections.is_empty() {
            return;
        }
        let round = self.tenants[t].round;
        while let Some(&d) = self.tenants[t].pending_detections.last() {
            if d.round > round {
                break;
            }
            self.tenants[t].pending_detections.pop();
            if self.alive_node[d.node as usize] && self.remove_believed(d.node, d.neighbor) {
                self.protocol.on_link_failed(d.node, d.neighbor);
            }
        }
    }

    /// Transit fault pipeline for one tenant message — dead link, burst
    /// chain, i.i.d. loss, bit corruption — drawing from the tenant's
    /// own streams in the classic engine's order.
    #[inline]
    fn transit(
        &mut self,
        t: usize,
        src: NodeId,
        dst: NodeId,
        msg: &mut <P as Protocol>::Msg,
    ) -> bool {
        let graph = &self.host.graph;
        let tn = &mut self.tenants[t];
        if tn.physical_faults
            && (!self.alive_node[src as usize] || !self.alive_node[dst as usize] || {
                match graph.neighbor_slot(src, dst) {
                    Some(slot) => {
                        let arc = graph.arc_base(src) + slot - tn.arc_base;
                        tn.dead_arcs[arc / 64] & (1 << (arc % 64)) != 0
                    }
                    None => false,
                }
            })
        {
            tn.stats.lost_dead += 1;
            return false;
        }
        if let Some(b) = tn.burst {
            let u = tn.burst_rng.random::<f64>();
            tn.burst_bad = if tn.burst_bad {
                u >= b.exit
            } else {
                u < b.enter
            };
            if tn.burst_bad && tn.burst_rng.random::<f64>() < b.loss {
                tn.stats.lost_burst += 1;
                return false;
            }
        }
        if tn.loss > 0.0 && tn.fault_rng.random::<f64>() < tn.loss {
            tn.stats.lost_random += 1;
            return false;
        }
        if tn.flip > 0.0 && tn.fault_rng.random::<f64>() < tn.flip {
            let bits = msg.corruptible_bits();
            if bits > 0 {
                let bit = tn.fault_rng.random_range(0..bits);
                msg.flip_bit(bit);
                tn.stats.bit_flips += 1;
            }
        }
        true
    }

    /// Push-pull reply hook, through the ordinary transit pipeline.
    fn deliver_reply(&mut self, w: usize, t: usize, replier: NodeId, to: NodeId) {
        if let Some(mut reply) = self.protocol.part_reply(w, replier, to) {
            self.tenants[t].stats.sent += 1;
            if self.transit(t, replier, to, &mut reply) {
                self.protocol.part_receive(w, to, replier, &mut reply);
                self.tenants[t].stats.delivered += 1;
            }
            self.protocol.part_reclaim(w, reply);
        }
    }

    /// Phases 3–5 for tenant `t` on worker `w`: every alive node draws
    /// its partner from the tenant's schedule stream, then sends once,
    /// then in-order delivery through the fault pipeline with reply
    /// hooks — the classic zero-delay synchronous round, node ids offset
    /// by the tenant base.
    fn sync_round(&mut self, w: usize, t: usize) {
        let (nb, ne) = (self.tenants[t].node_base, self.tenants[t].node_end);
        let mut picks = std::mem::take(&mut self.bufs[w].picks);
        let mut buf = std::mem::take(&mut self.bufs[w].sends);
        debug_assert!(picks.is_empty() && buf.is_empty());
        let tn = &mut self.tenants[t];
        for i in nb..ne {
            if !self.alive_node[i as usize] {
                continue;
            }
            let base = self.host.graph.arc_base(i);
            let len = self.believed_len[i as usize] as usize;
            let alive = &self.believed_flat[base..base + len];
            if let Some(target) = tn.schedule.pick(i - nb, alive, &mut tn.sched_rng) {
                picks.push((i, target));
            }
        }
        // Warm each sender's random arc row a few picks ahead, as the
        // delivery loop below does for receivers.
        const LOOKAHEAD: usize = 8;
        for k in 0..picks.len() {
            if let Some(&(node, target)) = picks.get(k + LOOKAHEAD) {
                self.protocol.prewarm(node, target);
            }
            let (i, target) = picks[k];
            buf.push((i, target, self.protocol.part_send(w, i, target)));
        }
        self.tenants[t].stats.sent += picks.len() as u64;
        picks.clear();
        let tn = &self.tenants[t];
        let clean = !tn.physical_faults && tn.loss <= 0.0 && tn.flip <= 0.0 && tn.burst.is_none();
        for k in 0..buf.len() {
            if let Some(ahead) = buf.get(k + LOOKAHEAD) {
                self.protocol.prewarm(ahead.1, ahead.0);
            }
            let entry = &mut buf[k];
            let (src, dst) = (entry.0, entry.1);
            if clean || self.transit(t, src, dst, &mut entry.2) {
                self.protocol.part_receive(w, dst, src, &mut entry.2);
                self.tenants[t].stats.delivered += 1;
                self.deliver_reply(w, t, dst, src);
            }
        }
        for (_, _, msg) in buf.drain(..) {
            self.protocol.part_reclaim(w, msg);
        }
        self.bufs[w].picks = picks;
        self.bufs[w].sends = buf;
    }
}

/// One worker's reused round buffers: the `(node, partner)` picks and
/// the wire messages of one tenant round.
struct WorkerBufs<M> {
    picks: Vec<(NodeId, NodeId)>,
    sends: Vec<(NodeId, NodeId, M)>,
}

impl Tenant {
    fn new(spec: &TenantSpec, e: Extent, schedule: &Schedule) -> Tenant {
        let offset = e.node_base;
        let mut link_queue: Vec<LinkFailure> = spec
            .plan
            .link_failures
            .iter()
            .map(|f| LinkFailure {
                a: f.a + offset,
                b: f.b + offset,
                ..*f
            })
            .collect();
        link_queue.sort_by_key(|f| f.at_round);
        let mut crash_queue: Vec<NodeCrash> = spec
            .plan
            .node_crashes
            .iter()
            .map(|c| NodeCrash {
                node: c.node + offset,
                ..*c
            })
            .collect();
        crash_queue.sort_by_key(|c| c.at_round);
        let mut heal_queue: Vec<LinkHeal> = spec
            .plan
            .link_heals
            .iter()
            .map(|h| LinkHeal {
                a: h.a + offset,
                b: h.b + offset,
                ..*h
            })
            .collect();
        heal_queue.sort_by_key(|h| h.at_round);
        let mut restart_queue: Vec<NodeRestart> = spec
            .plan
            .node_restarts
            .iter()
            .map(|r| NodeRestart {
                node: r.node + offset,
                ..*r
            })
            .collect();
        restart_queue.sort_by_key(|r| r.at_round);
        let mut cut_queue: Vec<NetPartition> = spec
            .plan
            .partitions
            .iter()
            .map(|p| NetPartition {
                members: p.members.iter().map(|&m| m + offset).collect(),
                ..p.clone()
            })
            .collect();
        cut_queue.sort_by_key(|p| p.at_round);
        let mut cut_heal_queue: Vec<PartitionHeal> = spec
            .plan
            .partition_heals
            .iter()
            .map(|p| PartitionHeal {
                members: p.members.iter().map(|&m| m + offset).collect(),
                ..p.clone()
            })
            .collect();
        cut_heal_queue.sort_by_key(|p| p.at_round);
        Tenant {
            node_base: e.node_base,
            node_end: e.node_base + e.nodes,
            arc_base: e.arc_base,
            sched_rng: stream_rng(spec.seed, RngStream::Schedule),
            fault_rng: stream_rng(spec.seed, RngStream::Faults),
            burst_rng: stream_rng(spec.seed, RngStream::Burst),
            schedule: match schedule {
                Schedule::UniformRandom => Schedule::uniform(),
                Schedule::RoundRobin { .. } => Schedule::round_robin(e.nodes as usize),
            },
            loss: spec.plan.msg_loss_prob,
            flip: spec.plan.bit_flip_prob,
            burst: spec.plan.burst,
            burst_bad: false,
            link_queue,
            link_cursor: 0,
            crash_queue,
            crash_cursor: 0,
            heal_queue,
            heal_cursor: 0,
            restart_queue,
            restart_cursor: 0,
            cut_queue,
            cut_cursor: 0,
            cut_heal_queue,
            cut_heal_cursor: 0,
            pending_detections: Vec::new(),
            dead_arcs: vec![0; e.arcs.div_ceil(64)],
            physical_faults: false,
            stats: SimStats::default(),
            round: 0,
            max_rounds: spec.max_rounds,
            active: spec.max_rounds > 0,
            converged: false,
            input_sum: spec.values.iter().sum(),
        }
    }
}
