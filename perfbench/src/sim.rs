//! Closed-loop reductions on the simulator: the classic engine
//! (`sim-hc12-vec16-faults`) and the partitioned engine
//! (`part-hc16-scalar-loss`).

use crate::common::*;
use crate::shim::Timed;
use crate::trace::Tracer;
use gr_netsim::{MachineCosts, SimOptions, Simulator};
use gr_numerics::Dd;
use gr_reduction::{AggregateKind, InitialData, InlineVec, Measurer, Payload, PushCancelFlow};
use gr_topology::{hypercube, NodeId};
use std::time::Instant;

pub struct SimCase {
    pub hc: u32,
    pub dim: usize,
    pub loss: f64,
    pub links: usize,
    pub crashes: usize,
    /// Rounds in which the scheduled faults fire.
    pub window: (u64, u64),
    /// `SimOptions::partitions` (1 = classic engine, 0 = planner).
    pub partitions: usize,
    pub threads: usize,
    pub max_rounds: u64,
    /// Nominal seconds per reduction, for the count prefix.
    pub nominal_s: f64,
    /// Set-up includes a fresh calibration probe, as a new process pays.
    pub probe: bool,
    /// Largest relative distance the survivors' final aggregate may have
    /// from the expected one (the inputs', rebased when a crash fires);
    /// a reduction that ends farther away counts as failed.
    pub drift_ceiling: f64,
}

/// Per-layer sums over the reductions of one closed loop.
#[derive(Default)]
struct Layers {
    reductions: u64,
    rounds: u64,
    step_ns: u64,
    pcf: PcfLayer,
    sent: u64,
    delivered: u64,
    lost_dead: u64,
    measure_ns: u64,
    measured_nodes: u64,
    drift: Vec<f64>,
    partitions: usize,
    predicted_ns: f64,
}

pub fn run(
    case: &SimCase,
    seed: u64,
    seconds: f64,
    traced: bool,
    spans: &std::path::Path,
) -> Tally {
    if case.dim == 1 {
        run_typed::<f64>(case, seed, seconds, traced, spans)
    } else {
        run_typed::<InlineVec>(case, seed, seconds, traced, spans)
    }
}

fn run_typed<P: Payload>(
    case: &SimCase,
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
            reduction::<P, false>(case, derive(seed, k), &mut t, &mut l, tr)
        });
        // A few more set-ups so the set-up median has at least five samples.
        for k in t.setup.len()..5 {
            t.setup
                .push(setup_once::<P>(case, derive(seed, 1000 + k as u64)));
        }
        return t;
    }
    // Each reduction runs untraced, then again traced, so both passes
    // see the same stretch of the host's noise: the ratio of their step
    // times is the tracing overhead.
    let (mut plain, mut plain_l) = (Tally::default(), Layers::default());
    let mut tracer = Tracer::new(true);
    let mut l = Layers::default();
    let mut wall_ns = 0.0;
    closed_loop(seconds, &mut tracer, |k, tr| {
        reduction::<P, false>(case, derive(seed, k), &mut plain, &mut plain_l, off);
        let t0 = Instant::now();
        reduction::<P, true>(case, derive(seed, k), &mut t, &mut l, tr);
        wall_ns += ns(t0.elapsed()) as f64;
    });
    t.set(
        "trace.overhead_share",
        l.step_ns as f64 / plain_l.step_ns as f64 - 1.0,
    );

    let rounds = l.rounds as f64;
    l.pcf.report(&mut t, rounds);
    t.set("netsim.step_ns", l.step_ns as f64 / rounds);
    // Engine self time on a CPU-time basis: every worker is charged for
    // the whole step (barrier waits are engine time), minus the hooks.
    t.set(
        "netsim.engine_self_ns_per_msg",
        (l.step_ns as f64 * workers(case, l.partitions) - l.pcf.hook_ns()) / l.sent as f64,
    );
    t.set("netsim.msgs_per_round", l.sent as f64 / rounds);
    t.set("netsim.delivered_ratio", l.delivered as f64 / l.sent as f64);
    t.set("netsim.lost_dead", l.lost_dead as f64 / l.reductions as f64);
    t.set("netsim.plan.partitions", l.partitions as f64);
    if l.predicted_ns > 0.0 {
        t.set("netsim.plan.predicted_round_ns", l.predicted_ns);
        t.set(
            "netsim.plan.observed_over_predicted",
            l.step_ns as f64 / rounds / l.predicted_ns,
        );
    }
    t.set(
        "reduction.runner.measure_ns_per_node",
        l.measure_ns as f64 / l.measured_nodes as f64,
    );
    t.set("reduction.runner.mass_drift", median(&l.drift));
    if case.probe {
        let t0 = Instant::now();
        std::hint::black_box(MachineCosts::probe(case.threads));
        t.set("netsim.calibrate_s", t0.elapsed().as_secs_f64());
        t.set(
            "netsim.parallel_speedup",
            parallel_speedup::<P>(case, l.partitions, seed),
        );
    }
    finish_trace::<P>(&mut t, &tracer, "netsim.step", wall_ns, case.dim, spans);
    t
}

/// Workers that ran partition phases in parallel.
fn workers(case: &SimCase, partitions: usize) -> f64 {
    if partitions > 1 {
        case.threads.min(partitions) as f64
    } else {
        1.0
    }
}

fn options(case: &SimCase) -> SimOptions {
    SimOptions {
        partitions: case.partitions,
        threads: case.threads,
        ..SimOptions::default()
    }
}

fn inputs<P: Payload>(case: &SimCase, seed: u64) -> InitialData<P> {
    let n = 1usize << case.hc;
    InitialData::with_kind(values::<P>(n, case.dim, 0.0, seed), AggregateKind::Average)
}

/// Build the topology, the protocol and the simulator once, timed the way
/// [`reduction`] times its set-up; the instance is then dropped.
fn setup_once<P: Payload>(case: &SimCase, seed: u64) -> f64 {
    let data = inputs::<P>(case, seed);
    let t0 = Instant::now();
    let g = hypercube(case.hc);
    let t_build = t0.elapsed().as_secs_f64();
    let (plan, _) = fault_plan(&g, case.loss, case.links, case.crashes, case.window, seed);
    let t1 = Instant::now();
    if case.probe {
        std::hint::black_box(MachineCosts::probe(case.threads));
    }
    let pcf = PushCancelFlow::new(&g, &data);
    let sim =
        Simulator::try_with_options(&g, pcf, plan, seed, options(case)).expect("valid options");
    let dt = t_build + t1.elapsed().as_secs_f64();
    std::hint::black_box(&sim);
    dt
}

fn reduction<P: Payload, const ON: bool>(
    case: &SimCase,
    seed: u64,
    t: &mut Tally,
    l: &mut Layers,
    tracer: &mut Tracer,
) {
    // Inputs first, outside every timed window.
    let data = inputs::<P>(case, seed);

    let t0 = Instant::now();
    let g = tracer.span("topology.build", || hypercube(case.hc));
    let t_build = t0.elapsed().as_secs_f64();
    let (plan, first_fault) =
        fault_plan(&g, case.loss, case.links, case.crashes, case.window, seed);
    let t1 = Instant::now();
    if case.probe {
        std::hint::black_box(tracer.span("netsim.calibrate", || MachineCosts::probe(case.threads)));
    }
    let t2 = Instant::now();
    let pcf = tracer.span("reduction.pcf.new", || {
        Timed::<_, ON>::new(PushCancelFlow::new(&g, &data))
    });
    let t_new = t2.elapsed().as_secs_f64();
    let mut sim = tracer.span("netsim.new", || {
        Simulator::try_with_options(&g, pcf, plan, seed, options(case)).expect("valid options")
    });
    t.setup.push(t_build + t1.elapsed().as_secs_f64());
    t.sample("topology.build_s", t_build);
    t.sample("reduction.pcf.new_s", t_new);

    let mut measurer = Measurer::new();
    let mut refs = data.reference();
    // The inputs' total mass, before any flow has moved it.
    let n = 1u64 << case.hc;
    let total = mass_sum(sim.protocol(), 0..n as NodeId);
    let mut alive = n;
    // Every post-fault check's reference, with the error the nodes still
    // had against it.
    let mut rebased: Vec<(Vec<Dd>, f64)> = Vec::new();
    let mut step_ns = 0u64;
    let mut t9 = None;
    let mut node_rounds = 0u64;
    t.attempted += 1;
    let (converged, err) = loop {
        let ts = Instant::now();
        sim.step();
        let dt = ns(ts.elapsed());
        step_ns += dt;
        tracer.record("netsim.step", dt);
        node_rounds += alive;
        let round = sim.round();
        if !round.is_multiple_of(CHECK_EVERY) && round < case.max_rounds {
            continue;
        }
        let tc = Instant::now();
        let id = tracer.open("reduction.runner.measure");
        // Once a permanent fault has fired, the target is the survivors'
        // current total mass (the rebasing rule `run_with_options` applies
        // after a crash). A link failure counts too: PCF folds the dead
        // arc's flows where they stand, so whatever asymmetry the pair held
        // (a lost or crossing message) stays in the aggregate. How far that
        // moves the aggregate is bounded by the drift check below.
        alive = sim.alive_nodes().count() as u64;
        let after_fault = first_fault.is_some_and(|f| round > f);
        if after_fault && !measurer.mass_reference(sim.protocol(), sim.alive_nodes(), &mut refs) {
            refs.clear();
            refs.resize(case.dim, Dd::ZERO);
        }
        let err = measurer
            .measure_error(sim.protocol(), &refs, sim.alive_nodes(), round)
            .max;
        if after_fault {
            rebased.push((refs.clone(), err));
        }
        tracer.close(id);
        l.measure_ns += ns(tc.elapsed());
        l.measured_nodes += alive;
        if err <= EPS_9 && t9.is_none() {
            t9 = Some(step_ns);
        }
        if err <= EPS_12 {
            break (true, err);
        }
        if round >= case.max_rounds {
            break (false, err);
        }
    };

    // Agreement alone does not catch mass leaked or created after the
    // faults, because the reference follows the survivors' mass. Two
    // checks pin the final aggregate. (1) It lies within each post-fault
    // check's error of that check's reference: in-flight exchanges put a
    // snapshot of the survivors' mass off by a small share of the error
    // of the moment, so a target that moved farther lost or gained mass.
    // (2) It lies within `drift_ceiling` of the inputs' aggregate less what
    // each crashed node held when it died (its state is frozen from then
    // on). What remains is the asymmetry a failed or dead arc froze in.
    let lost = mass_sum(
        sim.protocol(),
        (0..n as NodeId).filter(|&i| !sim.is_alive(i)),
    );
    let expected = ratio(&total.sub(&lost));
    let mut now_ref = Vec::new();
    let (drift, moved) = if measurer.mass_reference(sim.protocol(), sim.alive_nodes(), &mut now_ref)
    {
        let moved = rebased
            .iter()
            .any(|(r, e)| ref_drift(&now_ref, r) > e.max(f64::EPSILON));
        (ref_drift(&now_ref, &expected), moved)
    } else {
        (f64::INFINITY, true)
    };
    t.note_drift(drift);
    let stats = sim.stats();
    if converged && !moved && drift <= case.drift_ceiling {
        t.converged(
            t9.unwrap_or(step_ns) as f64 * 1e-9,
            step_ns as f64 * 1e-9,
            sim.round(),
            stats.sent,
            stats.sent * frame_len::<P>(case.dim),
        );
    } else if converged {
        t.failed += 1;
        eprintln!(
            "perfbench: reduction seed {seed} lost or gained mass: {}drift {drift:.3e} from the expected aggregate (ceiling {:.1e})",
            if moved { "the target moved after the faults; " } else { "" },
            case.drift_ceiling
        );
    } else {
        t.failed += 1;
        eprintln!(
            "perfbench: reduction seed {seed} missed 1e-12 within {} rounds (error {err:.3e})",
            case.max_rounds
        );
    }
    t.node_rounds += node_rounds as f64;
    t.step_s += step_ns as f64 * 1e-9;
    t.note_peak_rss();
    l.step_ns += step_ns;
    if !ON {
        return;
    }

    l.drift.push(drift);
    let plan = sim.partition_plan();
    let mut pcf = PcfLayer::default();
    pcf.add(&sim.protocol().hooks(), &sim.protocol().pcf_stats());
    pcf.trace(tracer, workers(case, plan.partitions));
    l.pcf.merge(&pcf);
    l.reductions += 1;
    l.rounds += sim.round();
    l.sent += stats.sent;
    l.delivered += stats.delivered;
    l.lost_dead += stats.lost_dead;
    l.partitions = plan.partitions;
    l.predicted_ns = plan.model.map_or(0.0, |m| m.predicted_ns);
}

/// The same partition plan stepped at one worker and at `case.threads`:
/// the single-threaded baseline of the partitioned engine.
fn parallel_speedup<P: Payload>(case: &SimCase, partitions: usize, seed: u64) -> f64 {
    if case.threads < 2 || partitions < 2 {
        return 1.0;
    }
    let data = inputs::<P>(case, seed);
    let g = hypercube(case.hc);
    let time_rounds = |threads: usize| {
        let (plan, _) = fault_plan(&g, case.loss, case.links, case.crashes, case.window, seed);
        let opts = SimOptions {
            partitions,
            threads,
            ..SimOptions::default()
        };
        let mut sim =
            Simulator::try_with_options(&g, PushCancelFlow::new(&g, &data), plan, seed, opts)
                .expect("valid options");
        sim.run(8);
        let t0 = Instant::now();
        sim.run(32);
        t0.elapsed().as_secs_f64()
    };
    let (mut one, mut many) = (0.0, 0.0);
    for _ in 0..2 {
        one += time_rounds(1);
        many += time_rounds(case.threads);
    }
    one / many
}
