//! Pieces every workload shares: seeded inputs, the per-run tally, the
//! oracle's error check, order statistics and the direct layer probes.

use crate::shim::{timer_cost_ns, HookAcc, RECEIVE, SEND};
use crate::trace::Tracer;
use gr_netsim::FaultPlan;
use gr_numerics::Dd;
use gr_reduction::push_cancel_flow::PcfStats;
use gr_reduction::{kernels, Mass, Payload, PcfMsg, ReductionProtocol, WireMsg};
use gr_topology::{Graph, NodeId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Accuracy targets: every alive node within ε (relative) of the
/// survivors' aggregate.
pub const EPS_9: f64 = 1e-9;
pub const EPS_12: f64 = 1e-12;

/// The oracle samples the error every this many rounds (the cadence of
/// `gr_reduction::run_with_options`).
pub const CHECK_EVERY: u64 = 8;

/// Seed of reduction `k` of a run seeded with `seed` (splitmix64).
pub fn derive(seed: u64, k: u64) -> u64 {
    let mut z = seed ^ k.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// `n` payloads of dimension `dim`, components uniform in `[lo, lo + 1)`.
pub fn values<P: Payload>(n: usize, dim: usize, lo: f64, seed: u64) -> Vec<P> {
    let mut r = rng(seed);
    let mut comps = vec![0.0; dim];
    (0..n)
        .map(|_| {
            for c in comps.iter_mut() {
                *c = lo + r.random::<f64>();
            }
            P::from_components(&comps)
        })
        .collect()
}

/// Seeded faults: i.i.d. loss, `links` distinct link failures and
/// `crashes` node crashes, each at a round in `window`. Crashed nodes are
/// never link-failure endpoints, so every fault hits a distinct place.
/// Also returns the round of the first permanent fault, if any.
pub fn fault_plan(
    g: &Graph,
    loss: f64,
    links: usize,
    crashes: usize,
    window: (u64, u64),
    seed: u64,
) -> (FaultPlan, Option<u64>) {
    let mut r = rng(seed);
    let n = g.len() as NodeId;
    let mut plan = FaultPlan::with_loss(loss);
    let mut first: Option<u64> = None;
    let mut at = |r: &mut StdRng| {
        let round = r.random_range(window.0..window.1);
        first = Some(first.map_or(round, |f| f.min(round)));
        round
    };
    let mut crashed: Vec<NodeId> = Vec::new();
    while crashed.len() < crashes {
        let v = r.random_range(0..n);
        if !crashed.contains(&v) {
            crashed.push(v);
            plan = plan.crash_node(v, at(&mut r));
        }
    }
    let mut failed: Vec<(NodeId, NodeId)> = Vec::new();
    while failed.len() < links {
        let a = r.random_range(0..n);
        let nb = g.neighbors(a);
        let b = nb[r.random_range(0..nb.len())];
        let e = (a.min(b), a.max(b));
        if failed.contains(&e) || crashed.contains(&a) || crashed.contains(&b) {
            continue;
        }
        failed.push(e);
        plan = plan.fail_link(e.0, e.1, at(&mut r));
    }
    (plan, first)
}

/// Mass and weight summed over some nodes.
pub struct MassSum {
    pub mass: Vec<Dd>,
    pub weight: Dd,
}

impl MassSum {
    pub fn sub(&self, o: &MassSum) -> MassSum {
        MassSum {
            mass: self
                .mass
                .iter()
                .zip(&o.mass)
                .map(|(&a, &b)| a - b)
                .collect(),
            weight: self.weight - o.weight,
        }
    }
}

/// The total mass `nodes` hold in `proto`.
pub fn mass_sum<P: ReductionProtocol + ?Sized>(
    proto: &P,
    nodes: impl Iterator<Item = NodeId>,
) -> MassSum {
    let mut buf = vec![0.0; proto.dim()];
    let mut s = MassSum {
        mass: vec![Dd::ZERO; proto.dim()],
        weight: Dd::ZERO,
    };
    for i in nodes {
        s.weight += proto.write_mass(i, &mut buf);
        for (acc, &c) in s.mass.iter_mut().zip(&buf) {
            *acc += c;
        }
    }
    s
}

/// The aggregate a mass sum stands for.
pub fn ratio(s: &MassSum) -> Vec<Dd> {
    s.mass.iter().map(|&v| v / s.weight).collect()
}

/// Largest componentwise relative distance between two references.
pub fn ref_drift(a: &[Dd], b: &[Dd]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| gr_numerics::relative_error(x.to_f64(), y))
        .fold(0.0, f64::max)
}

/// Order statistic by the nearest-rank rule (`p` in `[0, 1]`).
pub fn quantile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        0.5 * (s[m - 1] + s[m])
    }
}

pub fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// Reductions a closed loop of `seconds` completes even on a host twice
/// as slow as the nominal `per_reduction_s`.
pub fn count_prefix(seconds: f64, per_reduction_s: f64) -> usize {
    ((seconds / (2.0 * per_reduction_s)) as usize).max(1)
}

/// Run reductions back to back until the next one would end past
/// `seconds` (at least one). Each runs under a `bench.reduction` root
/// span. Returns how many ran.
pub fn closed_loop(
    seconds: f64,
    tracer: &mut Tracer,
    mut reduction: impl FnMut(u64, &mut Tracer),
) -> u64 {
    let start = Instant::now();
    let mut k = 0u64;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if k > 0 && elapsed + elapsed / k as f64 > seconds {
            return k;
        }
        tracer.set_reduction(k as u32);
        let root = tracer.open("bench.reduction");
        reduction(k, tracer);
        tracer.close(root);
        k += 1;
    }
}

/// PCF hook accumulators and protocol counters, summed over instances.
#[derive(Default)]
pub struct PcfLayer {
    pub hooks: [HookAcc; 4],
    /// Received messages PCF discarded: rejected, ignored or stale.
    pub useless: u64,
    pub cancellations: u64,
}

impl PcfLayer {
    pub fn add(&mut self, hooks: &[HookAcc; 4], s: &PcfStats) {
        for (a, h) in self.hooks.iter_mut().zip(hooks) {
            a.add(h);
        }
        self.useless += s.rejected_messages + s.ignored_messages + s.stale_rejected;
        self.cancellations += s.cancellations;
    }

    pub fn merge(&mut self, o: &PcfLayer) {
        for (a, h) in self.hooks.iter_mut().zip(&o.hooks) {
            a.add(h);
        }
        self.useless += o.useless;
        self.cancellations += o.cancellations;
    }

    /// Estimated hook time in ns, summed over the workers that ran them.
    pub fn hook_ns(&self) -> f64 {
        let timer = timer_cost_ns();
        self.hooks.iter().map(|h| h.total_ns(timer)).sum()
    }

    /// Attach the hook totals to the current reduction's trace on a
    /// wall-time basis: divided by the workers that ran them in parallel.
    pub fn trace(&self, tracer: &mut Tracer, workers: f64) {
        const NAMES: [&str; 4] = [
            "reduction.pcf.send",
            "reduction.pcf.receive",
            "reduction.pcf.reply",
            "reduction.pcf.reclaim",
        ];
        let timer = timer_cost_ns();
        for (name, h) in NAMES.iter().zip(&self.hooks) {
            tracer.hook(name, h.calls, h.sampled, h.total_ns(timer) / workers);
        }
    }

    /// The `reduction.pcf.*` per-layer metrics over `rounds` rounds.
    pub fn report(&self, t: &mut Tally, rounds: f64) {
        const NAMES: [&str; 4] = [
            "reduction.pcf.send_ns",
            "reduction.pcf.receive_ns",
            "reduction.pcf.reply_ns",
            "reduction.pcf.reclaim_ns",
        ];
        let timer = timer_cost_ns();
        for (name, h) in NAMES.iter().zip(&self.hooks) {
            t.set(name, h.mean_ns(timer));
        }
        let calls: u64 = self.hooks.iter().map(|h| h.calls).sum();
        t.set("reduction.pcf.calls_per_round", calls as f64 / rounds);
        t.set(
            "reduction.pcf.useful_msg_ratio",
            (self.hooks[RECEIVE].calls - self.useless) as f64 / self.hooks[SEND].calls as f64,
        );
        t.set(
            "reduction.pcf.cancellations_per_round",
            self.cancellations as f64 / rounds,
        );
    }
}

/// What every traced run ends with: the trace accounting against the
/// traced wall time, the direct kernel and codec probes at the
/// workload's dimension, and the span file.
///
/// Every span outside the `bench.*` glue belongs to a layer, and
/// `step_span` names the engine step whose self time excludes the hooks.
pub fn finish_trace<P: Payload>(
    t: &mut Tally,
    tracer: &Tracer,
    step_span: &str,
    wall_ns: f64,
    dim: usize,
    spans: &std::path::Path,
) {
    let attributed: f64 = tracer
        .self_times(step_span)
        .iter()
        .filter(|(k, _)| !k.starts_with("bench."))
        .map(|(_, v)| v)
        .sum();
    t.set("trace.unattributed_share", 1.0 - attributed / wall_ns);
    probe_kernels(t, dim);
    probe_codec::<P>(t, dim);
    if let Err(e) = tracer.write_jsonl(spans) {
        eprintln!("perfbench: could not write {}: {e}", spans.display());
    }
}

/// What one run measured. End-to-end samples are per reduction (or per
/// update); per-layer values are filled in by the workload when traced.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub t9: Vec<f64>,
    pub t12: Vec<f64>,
    pub rounds12: Vec<f64>,
    pub msgs12: Vec<f64>,
    pub bytes12: Vec<f64>,
    /// Input-change latencies: each closed-loop reduction (fresh inputs
    /// to every node within 1e-9) or each open-loop update.
    pub latencies: Vec<f64>,
    pub setup: Vec<f64>,
    /// Node-rounds (or tenant-node-rounds) stepped, and the step time
    /// they took.
    pub node_rounds: f64,
    pub step_s: f64,
    /// Peak resident set once the first instance of the workload has run.
    pub peak_rss_mb: f64,
    /// Largest distance of a reduction's final aggregate from the one
    /// its drift check expected (sim workloads).
    pub worst_drift: f64,
    /// Count metrics are medians over this many leading reductions (all
    /// when `None`). A closed loop fits a varying number of reductions
    /// into its time budget; a fixed prefix keeps the counts a function
    /// of the seed alone.
    pub count_prefix: Option<usize>,
    /// Direct-probe and derived per-layer values.
    pub layers: BTreeMap<&'static str, f64>,
    /// Per-layer sample lists, reported as medians.
    pub layer_samples: BTreeMap<&'static str, Vec<f64>>,
    /// Free-form lines printed before the metrics.
    pub notes: Vec<String>,
}

impl Tally {
    pub fn sample(&mut self, name: &'static str, v: f64) {
        self.layer_samples.entry(name).or_default().push(v);
    }

    pub fn set(&mut self, name: &'static str, v: f64) {
        self.layers.insert(name, v);
    }

    /// Record one converged reduction.
    pub fn converged(&mut self, t9: f64, t12: f64, rounds: u64, msgs: u64, bytes: u64) {
        self.t9.push(t9);
        self.t12.push(t12);
        self.latencies.push(t9);
        self.rounds12.push(rounds as f64);
        self.msgs12.push(msgs as f64);
        self.bytes12.push(bytes as f64);
    }

    pub fn note_drift(&mut self, drift: f64) {
        self.worst_drift = self.worst_drift.max(drift);
    }

    /// Record the peak resident set, once: after the first reduction (or
    /// batch) has run, before later set-ups can add allocator slack.
    pub fn note_peak_rss(&mut self) {
        if self.peak_rss_mb == 0.0 {
            self.peak_rss_mb = peak_rss_mb();
        }
    }

    /// End-to-end metric values by name (units live in `main::E2E`).
    pub fn e2e(&self) -> BTreeMap<&'static str, f64> {
        let mut m = BTreeMap::new();
        m.insert("time_to_1e-9_s", median(&self.t9));
        m.insert("time_to_1e-12_s", median(&self.t12));
        let k = self
            .count_prefix
            .unwrap_or(usize::MAX)
            .min(self.rounds12.len());
        m.insert("rounds_to_1e-12", median(&self.rounds12[..k]));
        m.insert("msgs_to_1e-12", median(&self.msgs12[..k]));
        m.insert("bytes_to_1e-12", median(&self.bytes12[..k]));
        m.insert(
            "node_rounds_per_s",
            if self.step_s > 0.0 {
                self.node_rounds / self.step_s
            } else {
                0.0
            },
        );
        m.insert("setup_s", median(&self.setup));
        m.insert("peak_rss_mb", self.peak_rss_mb);
        m.insert("update_latency_p50_s", quantile(&self.latencies, 0.50));
        m.insert("update_latency_p99_s", quantile(&self.latencies, 0.99));
        m
    }

    /// Per-layer values: direct values plus the medians of the samples.
    pub fn per_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut m = self.layers.clone();
        for (k, v) in &self.layer_samples {
            m.insert(k, median(v));
        }
        m
    }
}

/// Peak resident set of this process, in MiB.
fn peak_rss_mb() -> f64 {
    // struct rusage on Linux: two timevals, then fourteen longs with
    // ru_maxrss (KiB) first.
    #[repr(C)]
    struct RUsage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    let mut u = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `u` is a writable struct with the layout of `struct rusage`
    // on 64-bit Linux, and RUSAGE_SELF (0) is a valid `who`.
    let rc = unsafe { getrusage(0, &mut u) };
    if rc != 0 {
        return 0.0;
    }
    u.maxrss as f64 / 1024.0
}

/// Median ns per call of `f`, over `blocks` blocks of `iters` calls.
fn per_call_ns(blocks: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let mut v: Vec<f64> = (0..blocks)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Direct calls into the flow-bank kernels at the workload's dimension.
pub fn probe_kernels(t: &mut Tally, dim: usize) {
    let f1: Vec<f64> = (0..dim).map(|k| 1.0 + k as f64 * 1e-3).collect();
    let f2: Vec<f64> = f1.iter().map(|x| -x).collect();
    let (mut p, mut b) = (vec![0.5; dim], vec![0.25; dim]);
    const BLOCKS: usize = 15;
    const ITERS: usize = 20_000;
    t.set(
        "reduction.kernels.fold2_ns",
        per_call_ns(BLOCKS, ITERS, || {
            kernels::fold2(black_box(&mut p), black_box(&mut b), &f1, &f2)
        }),
    );
    t.set(
        "reduction.kernels.add_ns",
        per_call_ns(BLOCKS, ITERS, || {
            kernels::add(black_box(&mut p), black_box(&f2));
            kernels::add(black_box(&mut p), black_box(&f1));
        }) / 2.0,
    );
    t.set(
        "reduction.kernels.sub_sum_ns",
        per_call_ns(BLOCKS, ITERS, || {
            kernels::sub_sum(black_box(&mut p), black_box(&f1), black_box(&f2))
        }),
    );
    t.set(
        "reduction.kernels.scale_ns",
        per_call_ns(BLOCKS, ITERS, || {
            kernels::scale(black_box(&mut b), black_box(1.0))
        }),
    );
    black_box((&p, &b));
}

/// A PCF message of dimension `dim` with every field populated.
pub fn sample_msg<P: Payload>(dim: usize) -> PcfMsg<P> {
    let comps: Vec<f64> = (0..dim).map(|k| 0.1 + k as f64 * 0.37).collect();
    let m = |s: f64| Mass::new(P::from_components(&comps), s);
    PcfMsg {
        f1: m(0.5),
        f2: m(-0.25),
        c: 1,
        r: 17,
        folded: m(0.125),
        base: m(0.0625),
        inc: 3,
    }
}

/// Framed size in bytes of one PCF message of dimension `dim`.
pub fn frame_len<P: Payload>(dim: usize) -> u64 {
    let mut buf = Vec::new();
    sample_msg::<P>(dim).encode_frame(&mut buf);
    buf.len() as u64
}

/// Direct calls into the wire codec at the workload's dimension.
pub fn probe_codec<P: Payload>(t: &mut Tally, dim: usize) {
    let msg = sample_msg::<P>(dim);
    let mut buf = Vec::with_capacity(1024);
    msg.encode_frame(&mut buf);
    let frame = buf.clone();
    t.set("reduction.wire.bytes_per_msg", frame.len() as f64);
    t.set(
        "reduction.wire.encode_ns",
        per_call_ns(15, 20_000, || {
            buf.clear();
            black_box(&msg).encode_frame(&mut buf);
            black_box(&buf);
        }),
    );
    t.set(
        "reduction.wire.decode_ns",
        per_call_ns(15, 20_000, || {
            let m = PcfMsg::<P>::decode_frame(black_box(&frame)).expect("own frame decodes");
            black_box(m);
        }),
    );
}

/// Serve every allocation of 128 KiB or more from fresh pages, and give
/// it back when freed. glibc otherwise raises its mmap threshold after
/// the first large free and recycles one heap region, so every reduction
/// of a run would reuse the first one's physical pages: the cache layout
/// of that single draw then set the speed of the whole run, and runs
/// differed by up to 30% on a memory-bound workload. With fresh pages the
/// per-reduction medians average over layouts, and the peak resident set
/// is the footprint of one instance rather than heap slack.
pub fn fresh_pages_for_large_allocations() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: mallopt only adjusts allocator tuning; it is called
        // before the workload allocates its large buffers.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 128 * 1024);
        }
    }
}
