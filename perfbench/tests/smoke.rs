//! Smoke-size runs of every workload, the repeat check on the
//! deterministic counts, and the metric tables against `BENCHMARK.json`.

use perfbench::{render, run_workload, Tally, E2E, LAYERS, WORKLOADS};
use std::path::PathBuf;

fn spans(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("spans-{tag}.jsonl"))
}

fn smoke(workload: &str, seed: u64, traced: bool) -> Tally {
    let tag = format!("{workload}-{seed}-{traced}");
    run_workload(workload, seed, 1.0, traced, true, &spans(&tag))
}

fn metrics(result: &str) -> Vec<(String, f64, String)> {
    let v = serde_json::from_str(result).expect("result line is JSON");
    v.get("metrics")
        .and_then(|m| m.as_object())
        .expect("metrics object")
        .iter()
        .map(|(k, m)| {
            let value = m.get("value").and_then(|x| x.as_f64()).expect("value");
            let unit = m.get("unit").and_then(|x| x.as_str()).expect("unit");
            (k.clone(), value, unit.to_string())
        })
        .collect()
}

#[test]
fn every_workload_passes_its_checks_and_reports_every_end_to_end_metric() {
    for w in WORKLOADS {
        let t = smoke(w, 7, false);
        assert!(t.attempted > 0, "{w}: nothing attempted");
        assert_eq!(
            t.failed, 0,
            "{w}: {} of {} missed the target",
            t.failed, t.attempted
        );
        let (_, result, correct) = render(&t, false);
        assert!(correct, "{w}: {result}");
        let m = metrics(&result);
        assert_eq!(m.len(), E2E.len(), "{w}");
        for ((name, value, unit), (want, want_unit)) in m.iter().zip(E2E) {
            assert_eq!((name.as_str(), unit.as_str()), (*want, *want_unit));
            assert!(*value > 0.0, "{w}: {name} = {value}");
        }
    }
}

#[test]
fn traced_run_reports_every_layer_and_writes_spans() {
    for w in WORKLOADS {
        let t = smoke(w, 8, true);
        assert_eq!(t.failed, 0, "{w}");
        let (_, result, correct) = render(&t, true);
        assert!(correct, "{w}: {result}");
        let m = metrics(&result);
        let names: Vec<&str> = m.iter().map(|(n, _, _)| n.as_str()).collect();
        let want: Vec<&str> = LAYERS.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, want, "{w}");
        let get = |k: &str| m.iter().find(|(n, _, _)| n == k).map(|x| x.1).unwrap();
        for k in [
            "reduction.kernels.fold2_ns",
            "reduction.pcf.send_ns",
            "reduction.pcf.receive_ns",
            "reduction.wire.encode_ns",
            "reduction.runner.measure_ns_per_node",
            "topology.build_s",
            "reduction.pcf.new_s",
        ] {
            assert!(get(k) > 0.0, "{w}: {k} = {}", get(k));
        }
        let share = get("trace.unattributed_share");
        assert!((-0.05..0.5).contains(&share), "{w}: unattributed {share}");
        let text = std::fs::read_to_string(spans(&format!("{w}-8-true"))).expect("span file");
        assert!(text.lines().count() > 10, "{w}: span file too short");
        assert!(
            text.contains("\"reduction\":"),
            "{w}: spans carry reduction ids"
        );
    }
}

/// Rounds, messages and bytes are a function of the seed alone on the
/// workloads stepped deterministically (batch: phase A).
#[test]
fn counts_repeat_exactly_on_the_same_seed() {
    for w in WORKLOADS {
        let (a, b) = (smoke(w, 11, false), smoke(w, 11, false));
        let n = a.rounds12.len().min(b.rounds12.len());
        assert!(n > 0, "{w}");
        assert_eq!(a.rounds12[..n], b.rounds12[..n], "{w}: rounds");
        assert_eq!(a.msgs12[..n], b.msgs12[..n], "{w}: messages");
        assert_eq!(a.bytes12[..n], b.bytes12[..n], "{w}: bytes");
    }
}

#[test]
fn benchmark_json_names_the_workloads_and_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let v = serde_json::from_str(&text).expect("BENCHMARK.json is JSON");
    let names = |key: &str| -> Vec<(String, String)> {
        v.get(key)
            .and_then(|x| x.as_array())
            .expect(key)
            .iter()
            .map(|m| {
                let name = m.get("name").and_then(|x| x.as_str()).unwrap().to_string();
                let unit = m
                    .get("unit")
                    .and_then(|x| x.as_str())
                    .unwrap_or("")
                    .to_string();
                (name, unit)
            })
            .collect()
    };
    let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(a, b)| (a.to_string(), b.to_string()))
            .collect()
    };
    assert_eq!(names("end_to_end"), own(E2E));
    assert_eq!(names("per_layer"), own(LAYERS));
    let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(
        workloads,
        WORKLOADS.iter().map(|s| s.to_string()).collect::<Vec<_>>()
    );
}
