//! `batch-1k-hc6-live`: the multi-tenant batch executor.
//!
//! Phase A converges every tenant from fresh inputs. Phase B is an open
//! loop: input updates come due at a fixed rate on the program's clock
//! (the time spent inside `step_round`), are pushed at the next round
//! boundary with `push_update`, and each one's latency runs from its due
//! time until its tenant is back within 1e-9 of the new aggregate.
//! Oracle checks run between rounds and are not on that clock.

use crate::common::*;
use crate::shim::{timer_cost_ns, Timed};
use crate::trace::Tracer;
use gr_batch::{BatchHost, BatchOptions, BatchSim, SnapshotBoard, TenantSpec};
use gr_netsim::FaultPlan;
use gr_numerics::Dd;
use gr_reduction::{Measurer, PushCancelFlow};
use gr_topology::{hypercube, NodeId};
use rand::RngExt;
use std::time::Instant;

pub struct BatchCase {
    pub tenants: usize,
    pub hc: u32,
    pub loss: f64,
    pub threads: usize,
    /// Program seconds one update takes to settle, the basis of the rate.
    pub settle_s: f64,
    /// Round cap for phase A, and for phase B after the last update.
    pub max_rounds: u64,
}

/// One input update of phase B.
struct Update {
    due_s: f64,
    tenant: usize,
    node: NodeId,
    value: f64,
}

/// Per-tenant oracle state: current inputs and their exact mean.
struct Oracle {
    inputs: Vec<Vec<f64>>,
    refs: Vec<Vec<Dd>>,
    measurer: Measurer,
}

impl Oracle {
    fn new(specs: &[TenantSpec]) -> Self {
        let inputs: Vec<Vec<f64>> = specs.iter().map(|s| s.values.clone()).collect();
        let refs = inputs.iter().map(|v| vec![mean(v)]).collect();
        Oracle {
            inputs,
            refs,
            measurer: Measurer::new(),
        }
    }

    fn update(&mut self, t: usize, node: NodeId, value: f64) {
        self.inputs[t][node as usize] = value;
        self.refs[t][0] = mean(&self.inputs[t]);
    }

    /// Worst error over tenant `t`'s alive nodes (no crashes in this
    /// workload, so the reference is the mean of the current inputs).
    fn err<const ON: bool>(&mut self, sim: &BatchSim<'_, Pcf<'_, ON>>, t: usize) -> f64 {
        self.measurer
            .measure_error(sim.protocol(), &self.refs[t], sim.tenant_alive_nodes(t), 0)
            .max
    }
}

fn mean(v: &[f64]) -> Dd {
    let mut s = Dd::ZERO;
    for &x in v {
        s += x;
    }
    s / Dd::from(v.len() as u32)
}

type Pcf<'g, const ON: bool> = Timed<PushCancelFlow<'g, f64>, ON>;

fn specs(case: &BatchCase, seed: u64) -> Vec<TenantSpec> {
    let n = 1usize << case.hc;
    (0..case.tenants)
        .map(|t| {
            let s = derive(seed, t as u64);
            TenantSpec {
                graph: hypercube(case.hc),
                seed: s,
                plan: FaultPlan::with_loss(case.loss),
                // Inputs in [1, 2): the snapshot flag's scale max(|mean|, 1)
                // then equals |mean|, so flag and oracle share one metric.
                values: values::<f64>(n, 1, 1.0, s),
                max_rounds: u64::MAX,
            }
        })
        .collect()
}

fn options(case: &BatchCase) -> BatchOptions {
    BatchOptions {
        threads: case.threads,
        check_every: CHECK_EVERY,
        target_accuracy: Some(EPS_9),
        ..BatchOptions::default()
    }
}

/// Phase B offered load: the share of tenants meant to have an update
/// outstanding at once. A busier load makes the latency tail measure
/// chains of updates on one tenant rather than single updates.
const BUSY_SHARE: f64 = 0.1;

/// Phase B generates updates for this share of `--seconds`: about 900
/// updates at 30 s, enough for a steady p99.
const GEN_SHARE: f64 = 0.5;

/// Phase B update rate, per second of program time. By Little's law a
/// tenant is busy `rate × settle_s / tenants` of the time, so this rate
/// keeps `BUSY_SHARE` of the tenants busy on average.
fn rate(case: &BatchCase) -> f64 {
    BUSY_SHARE * case.tenants as f64 / case.settle_s
}

fn schedule(case: &BatchCase, seed: u64, seconds: f64) -> Vec<Update> {
    let rate = rate(case);
    let count = ((rate * seconds * GEN_SHARE).round() as usize).max(1);
    let mut r = rng(derive(seed, u64::MAX));
    (0..count)
        .map(|k| Update {
            due_s: k as f64 / rate,
            tenant: r.random_range(0..case.tenants),
            node: r.random_range(0..1u32 << case.hc),
            value: 1.0 + r.random::<f64>(),
        })
        .collect()
}

/// Time one full set-up the way a user pays it: topologies, the union
/// host, the protocol over it and the engine. Returns
/// (total, topology build, assemble, protocol new) in seconds.
fn setup_once(case: &BatchCase, seed: u64) -> [f64; 4] {
    let inputs = specs(case, seed);
    let t0 = Instant::now();
    let graphs: Vec<_> = (0..case.tenants).map(|_| hypercube(case.hc)).collect();
    let t_build = t0.elapsed().as_secs_f64();
    std::hint::black_box(&graphs);
    let t1 = Instant::now();
    let host = BatchHost::assemble(&inputs).expect("valid batch");
    let t_assemble = t1.elapsed().as_secs_f64();
    let t2 = Instant::now();
    let pcf = PushCancelFlow::new(host.graph(), &host.union_data(&inputs));
    let t_new = t2.elapsed().as_secs_f64();
    let sim = BatchSim::new(&host, pcf, &inputs, options(case)).expect("valid batch");
    let total = t_build + t1.elapsed().as_secs_f64();
    std::hint::black_box(&sim);
    [total, t_build, t_assemble, t_new]
}

pub fn run(
    case: &BatchCase,
    seed: u64,
    seconds: f64,
    traced: bool,
    spans: &std::path::Path,
) -> Tally {
    let mut t = Tally {
        count_prefix: Some(case.tenants),
        ..Tally::default()
    };
    let setups = |t: &mut Tally| {
        for k in 0..5 {
            let [total, build, assemble, new] = setup_once(case, derive(seed, 1 << 40 | k));
            t.setup.push(total);
            t.sample("topology.build_s", build);
            t.sample("batch.assemble_s", assemble);
            t.sample("reduction.pcf.new_s", new);
        }
    };
    if !traced {
        let start = Instant::now();
        let off = &mut Tracer::new(false);
        live::<false>(case, seed, seconds, true, &mut t, off);
        t.note_peak_rss();
        setups(&mut t);
        // Phase A steps for a few seconds only: one window of a noisy
        // host. Repeat it on fresh inputs while the budget lasts, so the
        // time medians span several windows; the counts stay those of the
        // first pass (`count_prefix`).
        let left = seconds - start.elapsed().as_secs_f64();
        closed_loop(left, off, |k, tr| {
            live::<false>(case, derive(seed, 1 << 50 | k), seconds, false, &mut t, tr);
        });
        return t;
    }
    let mut plain = Tally::default();
    let plain_a = live::<false>(
        case,
        seed,
        seconds,
        false,
        &mut plain,
        &mut Tracer::new(false),
    );
    let mut tracer = Tracer::new(true);
    let t0 = Instant::now();
    let traced_a = live::<true>(case, seed, seconds, true, &mut t, &mut tracer);
    let wall_ns = ns(t0.elapsed()) as f64;
    setups(&mut t);
    t.set("trace.overhead_share", traced_a / plain_a - 1.0);
    finish_trace::<f64>(&mut t, &tracer, "batch.step_round", wall_ns, 1, spans);
    t
}

/// Phase A, then (if `phase_b`) phase B. Returns phase A's step time in
/// ns, the common ground of the traced and untraced passes.
fn live<const ON: bool>(
    case: &BatchCase,
    seed: u64,
    seconds: f64,
    phase_b: bool,
    t: &mut Tally,
    tracer: &mut Tracer,
) -> f64 {
    let inputs = specs(case, seed);
    let nodes_per = 1u64 << case.hc;
    let tenants = case.tenants;
    let root = tracer.open("bench.setup");
    let host = tracer.span("batch.assemble", || {
        BatchHost::assemble(&inputs).expect("valid batch")
    });
    let pcf = tracer.span("reduction.pcf.new", || {
        Timed::<_, ON>::new(PushCancelFlow::new(host.graph(), &host.union_data(&inputs)))
    });
    let mut sim = tracer.span("batch.new", || {
        BatchSim::new(&host, pcf, &inputs, options(case)).expect("valid batch")
    });
    tracer.close(root);
    let board = sim.snapshots();
    let mut oracle = Oracle::new(&inputs);
    let timer = if ON { timer_cost_ns() } else { 0.0 };

    let mut step_ns = 0u64;
    let mut rounds = 0u64;
    let mut c = Counters::default();
    // Per tenant: has reached 1e-12 (phase A), or has no update
    // outstanding (phase B).
    let mut settled = vec![false; tenants];

    // Phase A: every tenant from fresh inputs to 1e-12. Each tenant is
    // one reduction; its times are the batch's step time when the oracle
    // first saw it within 1e-9 and within 1e-12.
    let phase = tracer.open("bench.phase_a");
    let mut errs = vec![f64::INFINITY; tenants];
    let mut t9: Vec<Option<u64>> = vec![None; tenants];
    let mut t12: Vec<Option<(u64, u64, u64)>> = vec![None; tenants];
    let mut remaining = tenants;
    while remaining > 0 && rounds < case.max_rounds {
        let ts = Instant::now();
        sim.step_round();
        let dt = ns(ts.elapsed());
        step_ns += dt;
        tracer.record("batch.step_round", dt);
        rounds += 1;
        c.settled_rounds += settled.iter().filter(|&&s| s).count() as u64;
        if !rounds.is_multiple_of(CHECK_EVERY) {
            continue;
        }
        sweep(&sim, &board, &mut oracle, &mut errs, tracer, &mut c, t);
        for k in 0..tenants {
            if errs[k] <= EPS_9 && t9[k].is_none() {
                t9[k] = Some(step_ns);
            }
            if errs[k] <= EPS_12 && t12[k].is_none() {
                t12[k] = Some((step_ns, rounds, sim.tenant_stats(k).sent));
                settled[k] = true;
                remaining -= 1;
            }
        }
    }
    tracer.close(phase);
    let phase_a_ns = step_ns as f64;
    t.attempted += tenants as u64;
    t.failed += remaining as u64;
    if remaining > 0 {
        eprintln!(
            "perfbench: {remaining} tenants missed 1e-12 within {} rounds",
            case.max_rounds
        );
    }
    let frame = frame_len::<f64>(1);
    for (a, b) in t9.iter().zip(&t12) {
        if let (Some(a), Some((b, r, m))) = (a, b) {
            t.t9.push(*a as f64 * 1e-9);
            t.t12.push(*b as f64 * 1e-9);
            t.rounds12.push(*r as f64);
            t.msgs12.push(*m as f64);
            t.bytes12.push((m * frame) as f64);
        }
    }
    if !phase_b {
        return phase_a_ns;
    }

    // Phase B: open-loop updates on the program clock.
    let phase = tracer.open("bench.phase_b");
    let updates = schedule(case, seed, seconds);
    let mut pending: Vec<Vec<usize>> = vec![Vec::new(); tenants];
    let mut open: Vec<usize> = Vec::new();
    let mut clock_ns = 0u64;
    let mut next = 0usize;
    let mut lags = Vec::with_capacity(updates.len());
    let mut rounds_b = 0u64;
    let mut rounds_since_last = 0u64;
    settled.iter_mut().for_each(|s| *s = true);
    loop {
        let now_s = clock_ns as f64 * 1e-9;
        while next < updates.len() && updates[next].due_s <= now_s {
            let u = &updates[next];
            let tp = Instant::now();
            let id = tracer.open("batch.push_update");
            sim.push_update(u.tenant, u.node, u.value);
            tracer.close(id);
            t.sample("batch.push_update_ns", ns(tp.elapsed()) as f64 - timer);
            lags.push(now_s - u.due_s);
            oracle.update(u.tenant, u.node, u.value);
            if pending[u.tenant].is_empty() {
                open.push(u.tenant);
            } else {
                c.collisions += 1;
            }
            pending[u.tenant].push(next);
            settled[u.tenant] = false;
            next += 1;
            rounds_since_last = 0;
        }
        if next == updates.len() && open.is_empty() {
            break;
        }
        if next == updates.len() && rounds_since_last >= case.max_rounds {
            for &k in &open {
                t.attempted += pending[k].len() as u64;
                t.failed += pending[k].len() as u64;
            }
            eprintln!(
                "perfbench: {} tenants never re-converged after updates",
                open.len()
            );
            break;
        }
        let ts = Instant::now();
        sim.step_round();
        let dt = ns(ts.elapsed());
        step_ns += dt;
        clock_ns += dt;
        tracer.record("batch.step_round", dt);
        rounds += 1;
        rounds_b += 1;
        rounds_since_last += 1;
        c.settled_rounds += settled.iter().filter(|&&s| s).count() as u64;

        let done_s = clock_ns as f64 * 1e-9;
        let tc = Instant::now();
        let id = tracer.open("reduction.runner.measure");
        let mut i = 0;
        while i < open.len() {
            let k = open[i];
            c.measured += nodes_per;
            if oracle.err(&sim, k) <= EPS_9 {
                for &u in &pending[k] {
                    t.latencies.push(done_s - updates[u].due_s);
                    t.attempted += 1;
                }
                pending[k].clear();
                settled[k] = true;
                open.swap_remove(i);
            } else {
                i += 1;
            }
        }
        tracer.close(id);
        c.measure_ns += ns(tc.elapsed());
        if rounds_b.is_multiple_of(CHECK_EVERY) {
            sweep(&sim, &board, &mut oracle, &mut errs, tracer, &mut c, t);
        }
    }
    tracer.close(phase);
    // An update that lands on a tenant still settling an earlier one
    // stretches that one's latency: the share says how much of the tail
    // is such chains.
    let collision_share = c.collisions as f64 / updates.len() as f64;
    t.set("batch.update_collision_share", collision_share);
    t.notes.push(format!(
        "phase B: {} updates at {:.1}/s of program time, {:.1}% onto a tenant with one outstanding",
        updates.len(),
        rate(case),
        100.0 * collision_share
    ));
    t.node_rounds += (rounds * tenants as u64 * nodes_per) as f64;
    t.step_s += step_ns as f64 * 1e-9;

    if ON {
        let workers = sim.workers() as f64;
        let msgs: u64 = (0..tenants).map(|k| sim.tenant_stats(k).sent).sum();
        let mut pcf = PcfLayer::default();
        pcf.add(&sim.protocol().hooks(), &sim.protocol().pcf_stats());
        pcf.trace(tracer, workers);
        let r = rounds as f64;
        pcf.report(t, r);
        t.set("batch.step_round_ns", step_ns as f64 / r);
        t.set(
            "batch.engine_self_ns_per_msg",
            (step_ns as f64 * workers - pcf.hook_ns()) / msgs as f64,
        );
        t.set(
            "batch.tenant_rounds_per_s",
            (rounds * tenants as u64) as f64 / (step_ns as f64 * 1e-9),
        );
        t.set(
            "batch.converged_step_share",
            c.settled_rounds as f64 / (rounds * tenants as u64) as f64,
        );
        t.set("batch.flag_mismatch", c.mismatches as f64);
        t.set("batch.generator_lag_p99_s", quantile(&lags, 0.99));
        t.set(
            "reduction.runner.measure_ns_per_node",
            c.measure_ns as f64 / c.measured as f64,
        );
        let mut drift = Vec::with_capacity(tenants);
        let mut m = Measurer::new();
        let mut now_ref = Vec::new();
        for k in 0..tenants {
            if m.mass_reference(sim.protocol(), sim.tenant_alive_nodes(k), &mut now_ref) {
                drift.push(ref_drift(&now_ref, &oracle.refs[k]));
            }
        }
        t.set("reduction.runner.mass_drift", median(&drift));
    }
    phase_a_ns
}

#[derive(Default)]
struct Counters {
    /// Tenant-rounds stepped by tenants already settled.
    settled_rounds: u64,
    /// Snapshot flags that disagreed with the oracle.
    mismatches: u64,
    /// Updates pushed while their tenant had one outstanding.
    collisions: u64,
    measure_ns: u64,
    measured: u64,
}

/// Read every tenant's snapshot flag, run the oracle over every tenant
/// into `errs`, and count flag/oracle disagreements at 1e-9.
fn sweep<const ON: bool>(
    sim: &BatchSim<'_, Pcf<'_, ON>>,
    board: &SnapshotBoard,
    oracle: &mut Oracle,
    errs: &mut [f64],
    tracer: &mut Tracer,
    c: &mut Counters,
    t: &mut Tally,
) {
    let tenants = errs.len();
    let tg = Instant::now();
    let id = tracer.open("batch.snapshot_get");
    let flags: Vec<bool> = (0..tenants).map(|k| board.get(k).converged).collect();
    tracer.close(id);
    t.sample(
        "batch.snapshot_get_ns",
        ns(tg.elapsed()) as f64 / tenants as f64,
    );
    let tc = Instant::now();
    let id = tracer.open("reduction.runner.measure");
    for (k, e) in errs.iter_mut().enumerate() {
        *e = oracle.err(sim, k);
        c.mismatches += u64::from(flags[k] != (*e <= EPS_9));
        c.measured += oracle.inputs[k].len() as u64;
    }
    tracer.close(id);
    c.measure_ns += ns(tc.elapsed());
}
