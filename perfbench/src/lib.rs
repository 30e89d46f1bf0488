//! Time-to-accuracy benchmark for gossip-reduce: the workloads, their
//! metric tables and the result line. `main.rs` is the command line;
//! `tests/` drives the same entry points at smoke size.

mod batch;
mod common;
mod shim;
mod sim;
mod trace;
mod wire;

pub use common::Tally;

/// End-to-end metrics: name and unit.
pub const E2E: &[(&str, &str)] = &[
    ("time_to_1e-9_s", "s"),
    ("time_to_1e-12_s", "s"),
    ("rounds_to_1e-12", "count"),
    ("msgs_to_1e-12", "count"),
    ("bytes_to_1e-12", "B"),
    ("node_rounds_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("update_latency_p50_s", "s"),
    ("update_latency_p99_s", "s"),
];

/// Per-layer metrics: name and unit. A layer a workload does not run
/// reports 0.
pub const LAYERS: &[(&str, &str)] = &[
    ("reduction.kernels.fold2_ns", "ns"),
    ("reduction.kernels.add_ns", "ns"),
    ("reduction.kernels.sub_sum_ns", "ns"),
    ("reduction.kernels.scale_ns", "ns"),
    ("reduction.pcf.send_ns", "ns"),
    ("reduction.pcf.receive_ns", "ns"),
    ("reduction.pcf.reply_ns", "ns"),
    ("reduction.pcf.reclaim_ns", "ns"),
    ("reduction.pcf.calls_per_round", "count"),
    ("reduction.pcf.useful_msg_ratio", "ratio"),
    ("reduction.pcf.cancellations_per_round", "count"),
    ("netsim.step_ns", "ns"),
    ("netsim.engine_self_ns_per_msg", "ns"),
    ("netsim.msgs_per_round", "count"),
    ("netsim.delivered_ratio", "ratio"),
    ("netsim.lost_dead", "count"),
    ("netsim.plan.partitions", "count"),
    ("netsim.plan.predicted_round_ns", "ns"),
    ("netsim.plan.observed_over_predicted", "ratio"),
    ("netsim.calibrate_s", "s"),
    ("netsim.parallel_speedup", "ratio"),
    ("batch.step_round_ns", "ns"),
    ("batch.engine_self_ns_per_msg", "ns"),
    ("batch.tenant_rounds_per_s", "1/s"),
    ("batch.converged_step_share", "ratio"),
    ("batch.push_update_ns", "ns"),
    ("batch.snapshot_get_ns", "ns"),
    ("batch.flag_mismatch", "count"),
    ("batch.assemble_s", "s"),
    ("batch.generator_lag_p99_s", "s"),
    ("batch.update_collision_share", "ratio"),
    ("reduction.wire.encode_ns", "ns"),
    ("reduction.wire.decode_ns", "ns"),
    ("reduction.wire.bytes_per_msg", "B"),
    ("reduction.drive.step_ns", "ns"),
    ("transport.mem.send_ns", "ns"),
    ("transport.mem.recv_ns", "ns"),
    ("transport.chaos.self_ns_per_frame", "ns"),
    ("transport.chaos.drops", "count"),
    ("transport.chaos.dups", "count"),
    ("transport.chaos.held", "count"),
    ("transport.useful_frame_ratio", "ratio"),
    ("transport.fabric_s", "s"),
    ("topology.build_s", "s"),
    ("reduction.pcf.new_s", "s"),
    ("reduction.runner.measure_ns_per_node", "ns"),
    ("reduction.runner.mass_drift", "ratio"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

pub const WORKLOADS: &[&str] = &[
    "sim-hc12-vec16-faults",
    "part-hc16-scalar-loss",
    "batch-1k-hc6-live",
    "wire-hc8-chaos",
];

/// Worker threads for the parallel engines: at most two.
fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Run one workload at full or smoke size.
pub fn run_workload(
    name: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    spans: &std::path::Path,
) -> Tally {
    common::fresh_pages_for_large_allocations();
    if traced {
        // Measure the timer's own cost before any traced window opens.
        shim::timer_cost_ns();
    }
    match name {
        "sim-hc12-vec16-faults" => sim::run(
            &sim::SimCase {
                hc: if smoke { 8 } else { 12 },
                dim: 16,
                loss: 0.05,
                links: 2,
                crashes: 1,
                window: (8, 64),
                partitions: 1,
                threads: 1,
                max_rounds: 4000,
                nominal_s: 1.6,
                probe: false,
                // A crash freezes the asymmetry of the dead node's 12 arcs
                // (8 at smoke size) into the aggregate: at most 2.3e-4 over
                // 720 reductions on 4096 nodes, 2e-3 over 50 on 256.
                drift_ceiling: if smoke { 1e-1 } else { 1e-2 },
            },
            seed,
            seconds,
            traced,
            spans,
        ),
        "part-hc16-scalar-loss" => sim::run(
            &sim::SimCase {
                hc: if smoke { 10 } else { 16 },
                dim: 1,
                loss: 0.02,
                links: 2,
                crashes: 0,
                window: (8, 64),
                // Below 65,536 nodes the planner keeps one partition, so
                // the smoke size names its count.
                partitions: if smoke { 2 } else { 0 },
                threads: threads(),
                max_rounds: 3000,
                nominal_s: 10.0,
                probe: true,
                // Two failed links: at most 3.1e-6 over 90 reductions on
                // 65,536 nodes; 8.2e-6 recorded and 2.8e-5 seen once on
                // 1024 (smoke size).
                drift_ceiling: if smoke { 1e-3 } else { 1e-4 },
            },
            seed,
            seconds,
            traced,
            spans,
        ),
        "batch-1k-hc6-live" => batch::run(
            &batch::BatchCase {
                tenants: if smoke { 64 } else { 1024 },
                hc: if smoke { 4 } else { 6 },
                loss: 0.05,
                threads: threads(),
                // Update-to-reconverge p50 measured when the workload was
                // sized (hc6: about 160 rounds on 2 workers).
                settle_s: if smoke { 0.02 } else { 1.7 },
                max_rounds: 3000,
            },
            seed,
            seconds,
            traced,
            spans,
        ),
        "wire-hc8-chaos" => wire::run(
            &wire::WireCase {
                hc: if smoke { 5 } else { 8 },
                drop: 0.05,
                duplicate: 0.01,
                delay: 0.02,
                delay_ops: 16,
                max_rounds: 4000,
                nominal_s: 0.07,
            },
            seed,
            seconds,
            traced,
            spans,
        ),
        _ => unreachable!("workload names are checked by parse_args"),
    }
}

/// The result line and the human-readable lines before it.
pub fn render(t: &Tally, traced: bool) -> (Vec<String>, String, bool) {
    let (values, table) = if traced {
        (t.per_layer(), LAYERS)
    } else {
        (t.e2e(), E2E)
    };
    let mut correct = t.failed == 0 && t.attempted > 0;
    let mut lines = vec![format!(
        "samples: {} reductions timed to 1e-12, {} input-change latencies, {} set-ups",
        t.t12.len(),
        t.latencies.len(),
        t.setup.len()
    )];
    lines.extend(t.notes.iter().cloned());
    if t.worst_drift > 0.0 {
        lines.push(format!(
            "largest final-aggregate drift from the expected aggregate: {:.3e}",
            t.worst_drift
        ));
    }
    let mut json = Vec::new();
    for &(name, unit) in table {
        let mut v = values.get(name).copied().unwrap_or(0.0);
        if !v.is_finite() {
            lines.push(format!("perfbench: {name} is not finite"));
            correct = false;
            v = 0.0;
        }
        lines.push(format!("{name:<42} {v:>16.6} {unit}"));
        json.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        t.attempted,
        t.failed,
        json.join(", ")
    );
    (lines, result, correct)
}
