//! Time-to-accuracy benchmark for gossip-reduce.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--size full|smoke]
//! ```
//!
//! Runs one workload (see `perfbench/README.md`) for about `--seconds`,
//! checks every reduction's output against the oracle, prints each metric
//! with its unit, and ends with one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! the per-layer ones, and the span file goes to `perfbench/out/` under
//! the working directory. Exits 1 when an output check failed, 2 on bad
//! arguments.

use perfbench::{render, run_workload, WORKLOADS};
use std::collections::BTreeMap;
use std::path::PathBuf;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let Some(key) = k.strip_prefix("--") else {
            return Err(format!("unexpected argument {k:?}"));
        };
        let (key, val) = match key.split_once('=') {
            Some((a, b)) => (a.to_string(), b.to_string()),
            None => (
                key.to_string(),
                it.next().ok_or(format!("--{key} needs a value"))?,
            ),
        };
        kv.insert(key, val);
    }
    let take = |k: &str| kv.get(k).cloned();
    for k in kv.keys() {
        if !["workload", "seed", "seconds", "trace", "size"].contains(&k.as_str()) {
            return Err(format!("unknown flag --{k}"));
        }
    }
    let workload = take("workload").ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; known: {WORKLOADS:?}"
        ));
    }
    let seed = take("seed")
        .unwrap_or_else(|| "1".into())
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = take("seconds")
        .unwrap_or_else(|| "10".into())
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match take("trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(v) => return Err(format!("--trace must be 0 or 1, got {v:?}")),
    };
    let smoke = match take("size").as_deref() {
        None | Some("full") => false,
        Some("smoke") => true,
        Some(v) => return Err(format!("--size must be full or smoke, got {v:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        smoke,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let spans =
        PathBuf::from("perfbench/out").join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    let t = run_workload(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        args.smoke,
        &spans,
    );
    let (lines, result, correct) = render(&t, args.trace);
    println!(
        "workload {} seed {} attempted {} failed {}",
        args.workload, args.seed, t.attempted, t.failed
    );
    for l in lines {
        println!("{l}");
    }
    if args.trace {
        println!("spans written to {}", spans.display());
    }
    println!("{result}");
    if !correct {
        std::process::exit(1);
    }
}
