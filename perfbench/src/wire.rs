//! `wire-hc8-chaos`: per-node drivers over the in-memory channel backend
//! under chaos, stepped round-robin on one thread so rounds, messages
//! and bytes are deterministic. Closed loop, a fresh fabric per
//! reduction.
//!
//! Endpoint stack, outermost first: the driver's view
//! (`TimedDelivery`, "chaos" level) → `ChaosDelivery` → `TimedDelivery`
//! ("mem" level) → `MemDelivery`. The chaos layer's own cost is the
//! outer level's time minus the inner level's.

use crate::common::*;
use crate::shim::{timer_cost_ns, HookAcc, Timed, TimedDelivery};
use crate::trace::Tracer;
use gr_numerics::Dd;
use gr_reduction::{AggregateKind, InitialData, Measurer, NodeDriver, PcfMsg, PushCancelFlow};
use gr_topology::{hypercube, NodeId};
use gr_transport::{mem_cluster, ChaosDelivery, ChaosPlan, MemDelivery};
use std::time::Instant;

pub struct WireCase {
    pub hc: u32,
    pub drop: f64,
    pub duplicate: f64,
    pub delay: f64,
    pub delay_ops: u64,
    pub max_rounds: u64,
    /// Nominal seconds per reduction, for the count prefix.
    pub nominal_s: f64,
}

type Msg = PcfMsg<f64>;
type Endpoint<const ON: bool> =
    TimedDelivery<ChaosDelivery<TimedDelivery<MemDelivery<Msg>, ON>, Msg>, ON>;

/// Inbox depth: far above what one sweep can queue (every driver drains
/// its inbox each sweep), so every loss is a chaos decision; a drop for
/// backpressure fails the reduction. Deeper inboxes only add memory the
/// channels cycle through.
const INBOX: usize = 64;

/// One converged reduction's counts, timed when the run ends.
struct Done {
    sweeps9: u64,
    sweeps12: u64,
    msgs: u64,
    bytes: u64,
}

#[derive(Default)]
struct Layers {
    done: Vec<Done>,
    /// Mean sweep time of the fastest check interval so far.
    fastest_sweep_ns: Option<f64>,
    reductions: u64,
    sweeps: u64,
    sweep_ns: u64,
    pcf: PcfLayer,
    mem_send: HookAcc,
    mem_recv: HookAcc,
    outer_send: HookAcc,
    outer_recv: HookAcc,
    sent: u64,
    delivered: u64,
    drops: u64,
    dups: u64,
    held: u64,
    measure_ns: u64,
    measured_nodes: u64,
}

pub fn run(
    case: &WireCase,
    seed: u64,
    seconds: f64,
    traced: bool,
    spans: &std::path::Path,
) -> Tally {
    let mut t = Tally {
        count_prefix: Some(count_prefix(seconds, case.nominal_s)),
        ..Tally::default()
    };
    let off = &mut Tracer::new(false);
    if !traced {
        let mut l = Layers::default();
        closed_loop(seconds, off, |k, tr| {
            reduction::<false>(case, derive(seed, k), &mut t, &mut l, tr)
        });
        report_times(&mut t, &l, case.hc);
        return t;
    }
    // Each reduction runs untraced, then again traced, so both passes
    // see the same stretch of the host's noise.
    let (mut plain, mut plain_l) = (Tally::default(), Layers::default());
    let mut tracer = Tracer::new(true);
    let mut l = Layers::default();
    let mut wall_ns = 0.0;
    closed_loop(seconds, &mut tracer, |k, tr| {
        reduction::<false>(case, derive(seed, k), &mut plain, &mut plain_l, off);
        let t0 = Instant::now();
        reduction::<true>(case, derive(seed, k), &mut t, &mut l, tr);
        wall_ns += ns(t0.elapsed()) as f64;
    });
    report_times(&mut t, &l, case.hc);
    t.set(
        "trace.overhead_share",
        l.sweep_ns as f64 / plain_l.sweep_ns as f64 - 1.0,
    );

    let timer = timer_cost_ns();
    l.pcf.report(&mut t, l.sweeps as f64);
    let driver_steps = l.sweeps << case.hc;
    t.set(
        "reduction.drive.step_ns",
        l.sweep_ns as f64 / driver_steps as f64,
    );
    t.set("transport.mem.send_ns", l.mem_send.mean_ns(timer));
    t.set("transport.mem.recv_ns", l.mem_recv.mean_ns(timer));
    let outer = l.outer_send.total_ns(timer) + l.outer_recv.total_ns(timer);
    let inner = l.mem_send.total_ns(timer) + l.mem_recv.total_ns(timer);
    t.set(
        "transport.chaos.self_ns_per_frame",
        (outer - inner) / (l.outer_send.calls + l.outer_recv.calls) as f64,
    );
    let per = l.reductions as f64;
    t.set("transport.chaos.drops", l.drops as f64 / per);
    t.set("transport.chaos.dups", l.dups as f64 / per);
    t.set("transport.chaos.held", l.held as f64 / per);
    t.set(
        "transport.useful_frame_ratio",
        (l.delivered - l.dups) as f64 / l.sent as f64,
    );
    t.set(
        "reduction.runner.measure_ns_per_node",
        l.measure_ns as f64 / l.measured_nodes as f64,
    );
    finish_trace::<f64>(&mut t, &tracer, "reduction.drive.sweep", wall_ns, 1, spans);
    t
}

/// Time every converged reduction by the run's sweep time: the mean
/// sweep time of its fastest check interval (`CHECK_EVERY` consecutive
/// sweeps). The shared host has contention phases seconds long in which
/// this workload sweeps twice as slowly. A reduction lasts tens of
/// milliseconds, so each runs at one of the two speeds, and a median of
/// their times flips between them from run to run (interquartile range up
/// to 41% of the median over ten seeds). The fastest interval is the
/// speed of the uncontended host, in fast and slow phases alike: over ten
/// seeds the times it gives spread by 6–7%. Each time metric is a sweep
/// count times it; the counts repeat exactly for a seed.
fn report_times(t: &mut Tally, l: &Layers, hc: u32) {
    let sweep_s = l.fastest_sweep_ns.unwrap_or(0.0) * 1e-9;
    for d in &l.done {
        t.converged(
            d.sweeps9 as f64 * sweep_s,
            d.sweeps12 as f64 * sweep_s,
            d.sweeps12,
            d.msgs,
            d.bytes,
        );
        t.node_rounds += (d.sweeps12 << hc) as f64;
        t.step_s += d.sweeps12 as f64 * sweep_s;
    }
}

fn reduction<const ON: bool>(
    case: &WireCase,
    seed: u64,
    t: &mut Tally,
    l: &mut Layers,
    tracer: &mut Tracer,
) {
    let n = 1usize << case.hc;
    let data = InitialData::with_kind(values::<f64>(n, 1, 0.0, seed), AggregateKind::Average);
    let plan = ChaosPlan {
        drop: case.drop,
        duplicate: case.duplicate,
        delay: case.delay,
        delay_ops: case.delay_ops,
        ..ChaosPlan::none(seed)
    };

    let t0 = Instant::now();
    let g = tracer.span("topology.build", || hypercube(case.hc));
    let t_build = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let mut drivers: Vec<NodeDriver<Timed<PushCancelFlow<'_, f64>, ON>>> =
        tracer.span("reduction.pcf.new", || {
            (0..n as NodeId)
                .map(|i| NodeDriver::new(i, Timed::new(PushCancelFlow::new(&g, &data)), &g, seed))
                .collect()
        });
    let t_new = t1.elapsed().as_secs_f64();
    let t2 = Instant::now();
    let mut eps: Vec<Endpoint<ON>> = tracer.span("transport.fabric", || {
        mem_cluster::<Msg>(n, INBOX)
            .expect("non-empty cluster")
            .into_iter()
            .enumerate()
            .map(|(i, ep)| {
                TimedDelivery::new(ChaosDelivery::new(
                    TimedDelivery::new(ep),
                    i as NodeId,
                    &plan,
                ))
            })
            .collect()
    });
    let t_fabric = t2.elapsed().as_secs_f64();
    t.setup.push(t0.elapsed().as_secs_f64());
    t.sample("topology.build_s", t_build);
    t.sample("reduction.pcf.new_s", t_new);
    t.sample("transport.fabric_s", t_fabric);

    // No permanent faults here: the target stays the input aggregate.
    let refs = data.reference();
    let mut measurer = Measurer::new();
    let mut sweep_ns = 0u64;
    let mut last_check_ns = 0u64;
    let mut sweeps = 0u64;
    let mut sweeps9 = None;
    t.attempted += 1;
    let converged = loop {
        let ts = Instant::now();
        for (d, ep) in drivers.iter_mut().zip(eps.iter_mut()) {
            d.step(ep).expect("in-memory fabric is alive");
        }
        let dt = ns(ts.elapsed());
        sweep_ns += dt;
        sweeps += 1;
        tracer.record("reduction.drive.sweep", dt);
        if !sweeps.is_multiple_of(CHECK_EVERY) && sweeps < case.max_rounds {
            continue;
        }
        if sweeps.is_multiple_of(CHECK_EVERY) {
            let per_sweep = (sweep_ns - last_check_ns) as f64 / CHECK_EVERY as f64;
            l.fastest_sweep_ns = Some(l.fastest_sweep_ns.map_or(per_sweep, |f| f.min(per_sweep)));
        }
        last_check_ns = sweep_ns;
        let tc = Instant::now();
        let id = tracer.open("reduction.runner.measure");
        // Each driver's protocol instance answers for its own node.
        let err = drivers
            .iter()
            .enumerate()
            .map(|(i, d)| {
                measurer
                    .measure_error(d.protocol(), &refs, std::iter::once(i as NodeId), sweeps)
                    .max
            })
            .fold(0.0, f64::max);
        tracer.close(id);
        l.measure_ns += ns(tc.elapsed());
        l.measured_nodes += n as u64;
        if err <= EPS_9 && sweeps9.is_none() {
            sweeps9 = Some(sweeps);
        }
        if err <= EPS_12 {
            break true;
        }
        if sweeps >= case.max_rounds {
            break false;
        }
    };

    let msgs: u64 = drivers.iter().map(|d| d.stats().sent).sum();
    let mem = |ep: &Endpoint<ON>| ep.inner().inner().inner().wire_stats();
    let bytes: u64 = eps.iter().map(|ep| mem(ep).bytes_sent).sum();
    let backpressure: u64 = eps.iter().map(|ep| mem(ep).dropped).sum();
    if converged && backpressure == 0 {
        l.done.push(Done {
            sweeps9: sweeps9.unwrap_or(sweeps),
            sweeps12: sweeps,
            msgs,
            bytes,
        });
    } else if converged {
        t.failed += 1;
        eprintln!(
            "perfbench: wire reduction seed {seed} dropped {backpressure} frames on full inboxes"
        );
    } else {
        t.failed += 1;
        eprintln!(
            "perfbench: wire reduction seed {seed} missed 1e-12 within {} rounds",
            case.max_rounds
        );
    }
    t.note_peak_rss();
    l.sweep_ns += sweep_ns;
    if !ON {
        return;
    }

    // Mass the drivers hold, against the input aggregate.
    let (mut mass, mut weight) = (Dd::ZERO, Dd::ZERO);
    for d in &drivers {
        let mut v = [0.0];
        weight += d.write_mass(&mut v);
        mass += v[0];
    }
    t.sample(
        "reduction.runner.mass_drift",
        ref_drift(&[mass / weight], &refs),
    );

    let mut pcf = PcfLayer::default();
    for d in &drivers {
        pcf.add(&d.protocol().hooks(), &d.protocol().pcf_stats());
        l.sent += d.stats().sent;
        l.delivered += d.stats().delivered;
    }
    pcf.trace(tracer, 1.0);
    l.pcf.merge(&pcf);
    let timer = timer_cost_ns();
    let (mut outer, mut inner) = (0.0, 0.0);
    for ep in &eps {
        let m = ep.inner().inner();
        l.mem_send.add(&m.send);
        l.mem_recv.add(&m.recv);
        l.outer_send.add(&ep.send);
        l.outer_recv.add(&ep.recv);
        outer += ep.send.total_ns(timer) + ep.recv.total_ns(timer);
        inner += m.send.total_ns(timer) + m.recv.total_ns(timer);
        let c = ep.inner().chaos_stats();
        l.drops += c.drops;
        l.dups += c.duplicates;
        l.held += c.delayed;
    }
    // The sweep's self time then excludes hooks and transport calls; the
    // transport's time splits into the chaos layer and the mem backend.
    tracer.hook("transport.chaos", 1, 1, outer - inner);
    tracer.hook("transport.mem", 1, 1, inner);
    l.reductions += 1;
    l.sweeps += sweeps;
}
