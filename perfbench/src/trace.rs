//! In-memory span recorder for the traced run.
//!
//! Spans are recorded at the benchmark's own boundaries around the calls
//! into each layer (a reduction, its set-up pieces, every engine step or
//! sweep, every oracle check, the direct layer probes). Per-message hooks
//! are far too frequent for one span each; the shims in [`crate::shim`]
//! count them and time a sample instead, and their extrapolated totals are
//! attached to the enclosing reduction as `hook` records in the span file.
//!
//! A layer's self time is its span's duration minus the part its child
//! spans cover. With tracing off the recorder keeps nothing, so the
//! untraced run pays one branch per boundary.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Spans with no parent carry this parent id.
pub const ROOT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub reduction: u32,
}

/// Extrapolated totals of one sampled hook layer within one reduction.
#[derive(Clone, Copy, Debug)]
pub struct HookRecord {
    pub name: &'static str,
    pub reduction: u32,
    pub calls: u64,
    pub sampled: u64,
    pub est_ns: f64,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    hooks: Vec<HookRecord>,
    /// Open spans, innermost last.
    stack: Vec<u32>,
    reduction: u32,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            hooks: Vec::new(),
            stack: Vec::new(),
            reduction: 0,
        }
    }

    /// Spans opened from now on belong to reduction `id`.
    pub fn set_reduction(&mut self, id: u32) {
        self.reduction = id;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one; returns its id.
    pub fn open(&mut self, name: &'static str) -> u32 {
        if !self.on {
            return ROOT;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied().unwrap_or(ROOT),
            reduction: self.reduction,
        });
        self.stack.push(id);
        id
    }

    /// Close span `id` (must be the innermost open one).
    pub fn close(&mut self, id: u32) {
        if !self.on {
            return;
        }
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(id), "spans must close innermost first");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let r = f();
        self.close(id);
        r
    }

    /// Record a span that was timed by the caller: it started `dur_ns`
    /// before now. Used around engine steps, whose duration the caller
    /// measures anyway for the untraced metrics.
    pub fn record(&mut self, name: &'static str, dur_ns: u64) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: end_ns.saturating_sub(dur_ns),
            end_ns,
            parent: self.stack.last().copied().unwrap_or(ROOT),
            reduction: self.reduction,
        });
    }

    pub fn hook(&mut self, name: &'static str, calls: u64, sampled: u64, est_ns: f64) {
        if self.on && calls > 0 {
            self.hooks.push(HookRecord {
                name,
                reduction: self.reduction,
                calls,
                sampled,
                est_ns,
            });
        }
    }

    /// Self time (ns) summed per span name: duration minus the duration
    /// of direct children. The spans named `hook_parent` (the engine step
    /// that ran the hooks) also lose the extrapolated hook time, which is
    /// credited to the hook records' own names.
    pub fn self_times(&self, hook_parent: &str) -> BTreeMap<&'static str, f64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child) {
            let own = (s.end_ns - s.start_ns) as f64 - *c as f64;
            *out.entry(s.name).or_default() += own;
        }
        let hook_ns: f64 = self.hooks.iter().map(|h| h.est_ns).sum();
        if let Some(v) = out.get_mut(hook_parent) {
            *v -= hook_ns;
        }
        for h in &self.hooks {
            *out.entry(h.name).or_default() += h.est_ns;
        }
        out
    }

    /// Write every span and hook record as JSON lines.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut s = String::new();
        for (id, sp) in self.spans.iter().enumerate() {
            let parent = if sp.parent == ROOT {
                "null".to_string()
            } else {
                sp.parent.to_string()
            };
            let _ = writeln!(
                s,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"reduction\":{}}}",
                sp.name, sp.start_ns, sp.end_ns, sp.reduction
            );
        }
        for h in &self.hooks {
            let _ = writeln!(
                s,
                "{{\"hook\":\"{}\",\"reduction\":{},\"calls\":{},\"sampled\":{},\"est_ns\":{:.0}}}",
                h.name, h.reduction, h.calls, h.sampled, h.est_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, s)
    }
}
