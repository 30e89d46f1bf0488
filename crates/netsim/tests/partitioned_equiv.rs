//! Partitioned-engine equivalence: thread count must never change results.
//!
//! The partitioned engine's determinism contract (DESIGN §13) is that
//! results are a function of `SimOptions::partitions` only — the worker
//! thread count is purely an execution hint. These tests drive a
//! parallel-safe recording protocol through the partitioned engine and
//! assert the full digest (per-node event folds + transport counters) is
//! byte-identical for every thread count, across topologies, fault
//! plans, the timeout detector, and (via proptest) arbitrary partition
//! counts. A second group pins partitioned-run hashes as golden
//! constants, and a third checks the typed configuration errors.

use gr_netsim::{
    Activation, DelayModel, DetectorModel, FaultPlan, LinkFailure, LinkHeal, MachineCosts,
    NodeCrash, NodeRestart, PartitionSource, Protocol, SimConfigError, SimOptions, Simulator,
};
use gr_topology::{hypercube, ring, torus2d, Graph, NodeId};
use proptest::prelude::*;

fn mix(h: &mut u64, v: u64) {
    *h ^= v;
    *h = h.wrapping_mul(0x100_0000_01b3).rotate_left(17);
}

/// Parallel-safe event recorder: every hook folds into the accumulator of
/// its *own* node, so all mutable state is node-owned and the protocol
/// honestly satisfies the [`Protocol::PARALLEL_SAFE`] contract — unlike
/// the golden-schedule `EventHasher`, whose single global hasher is order
/// sensitive and must stay on the sequential path.
struct PartMix {
    acc: Vec<u64>,
    sent: Vec<u64>,
}

impl PartMix {
    fn new(n: usize) -> Self {
        PartMix {
            acc: vec![0; n],
            sent: vec![0; n],
        }
    }

    fn note(&mut self, node: NodeId, tag: u8, a: u64, b: u64) {
        let h = &mut self.acc[node as usize];
        mix(h, tag as u64);
        mix(h, a);
        mix(h, b);
    }
}

impl Protocol for PartMix {
    type Msg = u64;

    // All state is indexed by the hook's own `node`; nothing is shared
    // across partitions, so no `set_partitions` arena sizing is needed.
    const PARALLEL_SAFE: bool = true;

    fn on_send(&mut self, node: NodeId, target: NodeId) -> u64 {
        self.sent[node as usize] += 1;
        let count = self.sent[node as usize];
        self.note(node, b'S', target as u64, count);
        ((node as u64) << 32) | (count & 0xffff_ffff)
    }

    fn on_receive(&mut self, node: NodeId, from: NodeId, msg: &mut u64) {
        self.note(node, b'R', from as u64, *msg);
    }

    fn reply(&mut self, node: NodeId, from: NodeId) -> Option<u64> {
        // Deterministic, node-local choice: reply to roughly a third of
        // deliveries so the reply lanes carry real (fault-exposed)
        // traffic in both engines.
        if self.acc[node as usize].is_multiple_of(3) {
            Some((node as u64) << 32 | from as u64)
        } else {
            None
        }
    }

    fn on_link_failed(&mut self, node: NodeId, neighbor: NodeId) {
        self.note(node, b'F', neighbor as u64, 0);
    }

    fn on_suspect(&mut self, node: NodeId, neighbor: NodeId) {
        self.note(node, b'U', neighbor as u64, 0);
    }

    fn on_rehabilitate(&mut self, node: NodeId, neighbor: NodeId) {
        self.note(node, b'H', neighbor as u64, 0);
    }

    fn on_restart(&mut self, node: NodeId) {
        self.note(node, b'T', 0, 0);
    }

    fn on_neighbor_restarted(&mut self, node: NodeId, neighbor: NodeId) {
        self.note(node, b'N', neighbor as u64, 0);
    }
}

/// Fold the whole observable outcome — per-node event accumulators, send
/// counters and every transport/detector stat — into one digest.
fn digest(sim: &Simulator<PartMix>) -> u64 {
    let p = sim.protocol();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (&a, &s) in p.acc.iter().zip(&p.sent) {
        mix(&mut h, a);
        mix(&mut h, s);
    }
    let s = sim.stats();
    for v in [
        s.rounds,
        s.sent,
        s.delivered,
        s.lost_random,
        s.lost_dead,
        s.bit_flips,
        s.suspected,
        s.rehabilitated,
        s.probes_sent,
    ] {
        mix(&mut h, v);
    }
    h
}

/// Every scheduled-fault class plus both probabilistic ones, on node ids
/// valid for any graph with ≥ 10 nodes.
fn faulty_plan() -> FaultPlan {
    FaultPlan {
        msg_loss_prob: 0.05,
        bit_flip_prob: 0.01,
        link_failures: vec![
            LinkFailure {
                a: 2,
                b: 3,
                at_round: 20,
                detect_delay: 5,
            },
            LinkFailure {
                a: 0,
                b: 1,
                at_round: 10,
                detect_delay: 0,
            },
        ],
        node_crashes: vec![NodeCrash {
            node: 7,
            at_round: 40,
            detect_delay: 3,
        }],
        link_heals: vec![LinkHeal {
            a: 0,
            b: 1,
            at_round: 60,
        }],
        node_restarts: vec![NodeRestart {
            node: 7,
            at_round: 80,
        }],
        burst: None,
        partitions: vec![],
        partition_heals: vec![],
    }
}

/// Correlated bursts, i.i.d. loss, a partition cut and heal, and a crash
/// with a later restart, on node ids valid for any graph with ≥ 128
/// nodes. Covers the per-partition burst streams and the cut/heal paths
/// that `faulty_plan` (whose digests are pinned below) leaves out.
fn burst_cut_plan() -> FaultPlan {
    FaultPlan::with_loss(0.03)
        .with_burst(0.02, 0.3, 0.9)
        .partition((0..64).collect(), 20)
        .heal_partition((0..64).collect(), 60)
        .crash_node(100, 30)
        .restart_node(100, 90)
}

fn options(partitions: usize, threads: usize, detector: DetectorModel) -> SimOptions {
    SimOptions {
        partitions,
        threads,
        detector,
        ..SimOptions::default()
    }
}

fn run_sim<'g>(
    graph: &'g Graph,
    plan: &FaultPlan,
    seed: u64,
    opts: SimOptions,
    rounds: u64,
) -> Simulator<'g, PartMix> {
    let mut sim =
        Simulator::with_options(graph, PartMix::new(graph.len()), plan.clone(), seed, opts);
    sim.run(rounds);
    sim
}

fn run_digest(graph: &Graph, plan: &FaultPlan, seed: u64, opts: SimOptions, rounds: u64) -> u64 {
    digest(&run_sim(graph, plan, seed, opts, rounds))
}

fn timeout() -> DetectorModel {
    DetectorModel::Timeout { window: 8 }
}

#[test]
fn thread_count_never_changes_results() {
    let (cube, ring96, torus) = (hypercube(6), ring(96), torus2d(16, 16));
    // `burst_cut_plan` needs ≥ 128 nodes: the torus only.
    let inputs = [
        ("hypercube6", &cube, faulty_plan()),
        ("ring96", &ring96, faulty_plan()),
        ("torus16x16", &torus, faulty_plan()),
        ("torus16x16/bursts", &torus, burst_cut_plan()),
    ];
    for (name, g, plan) in &inputs {
        for detector in [DetectorModel::Oracle, timeout()] {
            let baseline = run_digest(g, plan, 42, options(4, 1, detector), 200);
            for threads in [2, 4, 8] {
                let d = run_digest(g, plan, 42, options(4, threads, detector), 200);
                assert_eq!(
                    d, baseline,
                    "{name}/{detector:?}: threads={threads} diverged from threads=1"
                );
            }
        }
    }
}

#[test]
fn every_partition_count_is_thread_invariant() {
    let g = hypercube(6);
    let plan = faulty_plan();
    for partitions in [2, 3, 5, 7, 64] {
        let one = run_digest(&g, &plan, 9, options(partitions, 1, timeout()), 150);
        let many = run_digest(&g, &plan, 9, options(partitions, 4, timeout()), 150);
        assert_eq!(one, many, "partitions={partitions}");
        assert_ne!(one, 0);
    }
}

#[test]
fn partition_count_above_node_count_is_clamped() {
    let g = ring(10);
    let sim = Simulator::with_options(
        &g,
        PartMix::new(10),
        FaultPlan::none(),
        1,
        options(50, 2, DetectorModel::Oracle),
    );
    assert_eq!(sim.partitions(), 10);
}

#[test]
fn auto_partitioning_kicks_in_at_scale_only() {
    let small = ring(4096);
    let sim = Simulator::with_options(
        &small,
        PartMix::new(4096),
        FaultPlan::none(),
        1,
        SimOptions::default(),
    );
    assert_eq!(
        sim.partitions(),
        1,
        "small graphs stay on the classic engine"
    );
    assert_eq!(
        sim.partition_plan().source,
        PartitionSource::SingleStream,
        "below the node floor the cost model is never consulted"
    );
    assert!(sim.partition_plan().model.is_none());

    // At scale with `partitions: 0` the measured model decides. The
    // count depends on this machine (that is the point), but the plan
    // must say so, stay within the engine's bounds, and still run.
    let big = ring(100_000);
    let mut sim = Simulator::with_options(
        &big,
        PartMix::new(100_000),
        FaultPlan::none(),
        1,
        SimOptions::default(),
    );
    let plan = *sim.partition_plan();
    assert_eq!(plan.source, PartitionSource::AutoMeasured);
    assert!((1..=64).contains(&plan.partitions));
    let model = plan.model.expect("auto-measured plans carry their model");
    assert_eq!((model.nodes, model.arcs), (100_000, 200_000));
    assert!(model.predicted_ns > 0.0 && model.predicted_ns <= model.single_stream_ns);
    sim.run(2);
    // Every node sends each round; PartMix replies add more on top.
    assert!(sim.stats().sent >= 2 * 100_000);
}

/// The cost model itself, pinned with synthetic machine costs so the
/// choice is deterministic regardless of what hardware runs the tests.
#[test]
fn cost_model_choice_is_deterministic_under_fixed_costs() {
    let opts = |threads: usize| SimOptions {
        threads,
        ..SimOptions::default()
    };
    // Cheap coordination, 8 workers: the win from parallel flow work
    // dominates and the model picks more than one partition, but never
    // meaningfully more than the parallelism on offer.
    let cheap_coord = MachineCosts {
        component_ns: 1.0,
        barrier_ns: 50.0,
        job_ns: 5.0,
        lane_ns: 5.0,
    };
    let plan = opts(8).partition_plan_with_costs(1_000_000, 2_000_000, &cheap_coord);
    assert_eq!(plan.source, PartitionSource::AutoMeasured);
    assert!(
        (8..=16).contains(&plan.partitions),
        "8 cheap workers → about 8 partitions, got {}",
        plan.partitions
    );

    // One worker: partitioning buys zero parallel speedup and still
    // pays barriers and the lane sweep — the model must keep p = 1.
    let plan = opts(1).partition_plan_with_costs(1_000_000, 2_000_000, &cheap_coord);
    assert_eq!(plan.partitions, 1);
    assert_eq!(plan.source, PartitionSource::AutoMeasured);

    // Pathologically expensive coordination: even with many workers the
    // overhead swamps the parallel win and the model stays serial.
    let dear_coord = MachineCosts {
        component_ns: 0.01,
        barrier_ns: 1e9,
        job_ns: 1e6,
        lane_ns: 1e6,
    };
    let plan = opts(16).partition_plan_with_costs(1_000_000, 2_000_000, &dear_coord);
    assert_eq!(plan.partitions, 1);

    // Same inputs → same plan, bit for bit (no hidden probe, no RNG).
    let a = opts(8).partition_plan_with_costs(1_000_000, 2_000_000, &cheap_coord);
    let b = opts(8).partition_plan_with_costs(1_000_000, 2_000_000, &cheap_coord);
    assert_eq!(a, b);
}

/// Explicit `partitions: N` bypasses the model entirely: the plan is
/// marked explicit, carries no model, and ignores the machine costs —
/// this is what keeps every pinned fingerprint and golden hash
/// machine-independent.
#[test]
fn explicit_partitions_bypass_the_cost_model() {
    let g = ring(100_000);
    let sim = Simulator::with_options(
        &g,
        PartMix::new(100_000),
        FaultPlan::none(),
        1,
        options(4, 4, DetectorModel::Oracle),
    );
    assert_eq!(sim.partitions(), 4);
    let plan = sim.partition_plan();
    assert_eq!(plan.source, PartitionSource::Explicit);
    assert!(plan.model.is_none(), "explicit plans never probe or model");

    // Even when handed absurd costs, an explicit configuration returns
    // the explicit count — the costs argument is dead on this path.
    let silly = MachineCosts {
        component_ns: 1e12,
        barrier_ns: 1e12,
        job_ns: 1e12,
        lane_ns: 1e12,
    };
    let plan =
        options(4, 4, DetectorModel::Oracle).partition_plan_with_costs(100_000, 200_000, &silly);
    assert_eq!(plan.partitions, 4);
    assert_eq!(plan.source, PartitionSource::Explicit);
    assert!(plan.model.is_none());
}

// ---- pinned partitioned-run hashes ------------------------------------
//
// Like the golden-schedule pins, but for `partitions = 4`: the digest of
// a partitioned run is part of the determinism contract and must never
// drift across refactors. (The constants were captured when the
// partitioned engine landed.)

#[test]
fn golden_partitioned_hypercube_faulty() {
    assert_eq!(
        run_digest(
            &hypercube(6),
            &faulty_plan(),
            42,
            options(4, 4, timeout()),
            200
        ),
        GOLDEN_HC6_P4
    );
}

#[test]
fn golden_partitioned_torus_fault_free() {
    assert_eq!(
        run_digest(
            &torus2d(16, 16),
            &FaultPlan::none(),
            7,
            options(4, 4, DetectorModel::Oracle),
            200
        ),
        GOLDEN_TORUS_P4
    );
}

/// The per-partition burst streams and the cut/heal paths, which the
/// thread-invariance check alone cannot pin: every thread count runs the
/// same fault code.
#[test]
fn golden_partitioned_torus_burst_cut() {
    let torus = torus2d(16, 16);
    let sim = run_sim(&torus, &burst_cut_plan(), 42, options(4, 4, timeout()), 200);
    let s = sim.stats();
    // The plan must reach the paths it is here to pin.
    assert!(s.lost_burst > 0 && s.lost_random > 0, "{s:?}");
    assert!(s.rehabilitated > 0, "{s:?}");
    let mut h = digest(&sim);
    // `digest` predates the burst counter; fold it in.
    mix(&mut h, s.lost_burst);
    assert_eq!(h, GOLDEN_TORUS_P4_BURST_CUT, "got {h:#x}");
}

const GOLDEN_HC6_P4: u64 = 0xcf21_8c6f_fff3_01f5;
const GOLDEN_TORUS_P4: u64 = 0xab58_c4f8_77e0_1571;
const GOLDEN_TORUS_P4_BURST_CUT: u64 = 0xede4_f349_415a_cb29;

// ---- typed configuration errors ---------------------------------------

#[test]
fn zero_threads_is_a_typed_error() {
    let g = ring(8);
    let err = Simulator::try_with_options(
        &g,
        PartMix::new(8),
        FaultPlan::none(),
        1,
        SimOptions {
            threads: 0,
            ..SimOptions::default()
        },
    )
    .err()
    .expect("threads = 0 must be rejected");
    assert_eq!(err, SimConfigError::ZeroThreads);
}

#[test]
fn partitioned_async_is_a_typed_error() {
    let g = ring(8);
    let err = Simulator::try_with_options(
        &g,
        PartMix::new(8),
        FaultPlan::none(),
        1,
        SimOptions {
            partitions: 2,
            activation: Activation::Asynchronous,
            ..SimOptions::default()
        },
    )
    .err()
    .expect("partitions ≥ 2 under async activation must be rejected");
    assert_eq!(err, SimConfigError::PartitionedAsync);
}

#[test]
fn partitioned_delay_is_a_typed_error() {
    let g = ring(8);
    for delay in [DelayModel::Fixed(2), DelayModel::Uniform { min: 0, max: 3 }] {
        let err = Simulator::try_with_options(
            &g,
            PartMix::new(8),
            FaultPlan::none(),
            1,
            SimOptions {
                partitions: 2,
                delay,
                ..SimOptions::default()
            },
        )
        .err()
        .expect("partitions ≥ 2 with delays must be rejected");
        assert_eq!(err, SimConfigError::PartitionedDelay);
    }
}

// ---- proptest: thread invariance over random partitionings -------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_partitionings_are_thread_invariant(
        partitions in 1usize..=32,
        seed in 0u64..1_000_000,
        lossy in proptest::bool::ANY,
    ) {
        let g = hypercube(5);
        let plan = if lossy { faulty_plan() } else { FaultPlan::none() };
        let one = run_digest(&g, &plan, seed, options(partitions, 1, timeout()), 60);
        for threads in [3, 8] {
            let d = run_digest(&g, &plan, seed, options(partitions, threads, timeout()), 60);
            prop_assert_eq!(d, one, "partitions={}, threads={}", partitions, threads);
        }
    }
}
