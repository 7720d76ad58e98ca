//! Spans and counts recorded by the traced run.
//!
//! Spans live in memory and are written out as NDJSON when the run ends.
//! A span has a name (`layer.call`), start and end, its parent span, a
//! request id (one per loop iteration, cell explanation or HTTP request)
//! and a replay flag. Some layer work happens inside another layer's call
//! (the encode inside a scan, the coalition repairs inside an explanation),
//! where the benchmark cannot put a span around it. A replay span re-runs
//! that inner public call on the same input once the operation has
//! finished, parented to the call that does the work internally; its time
//! is reported as a share of that parent, never added to it.
//!
//! With tracing off every method is a no-op, so untraced runs pay nothing
//! beyond a branch.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::stats;

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
    request: u64,
    replay: bool,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }

    fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Handle of an open span (`None` when tracing is off).
pub type SpanId = Option<usize>;

/// The run's span and count recorder; shared by reference across client
/// threads.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_request: AtomicU64,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<BTreeMap<(&'static str, &'static str), Vec<f64>>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            next_request: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(BTreeMap::new()),
        }
    }

    /// Whether spans are being recorded (replays run only then).
    pub fn on(&self) -> bool {
        self.on
    }

    /// A fresh request id.
    pub fn request(&self) -> u64 {
        self.next_request.fetch_add(1, Ordering::Relaxed)
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    fn open(&self, name: &'static str, parent: SpanId, request: u64, replay: bool) -> SpanId {
        if !self.on {
            return None;
        }
        let start_us = self.now_us();
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent,
            request,
            replay,
        });
        Some(spans.len() - 1)
    }

    fn close(&self, id: SpanId) {
        if let Some(i) = id {
            let end = self.now_us();
            self.spans.lock().expect("span store poisoned")[i].end_us = end;
        }
    }

    /// Run `f` inside a span named `name`; `f` receives the span's id so it
    /// can parent further spans, and the id is returned so replays can be
    /// parented to it after it closed.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        f: impl FnOnce(SpanId) -> R,
    ) -> (R, SpanId) {
        let id = self.open(name, parent, request, false);
        let out = f(id);
        self.close(id);
        (out, id)
    }

    /// Re-run an inner public call in a replay span under `parent` (the
    /// span of the call that does this work internally).
    pub fn replay<R>(
        &self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, request, true);
        let out = f();
        self.close(id);
        out
    }

    /// Record one sample of a count or ratio, taken during an operation of
    /// kind `op` (its root span's name).
    pub fn count(&self, op: &'static str, name: &'static str, value: f64) {
        if self.on {
            let mut counts = self.counts.lock().expect("count store poisoned");
            counts.entry((op, name)).or_default().push(value);
        }
    }

    /// Durations (ms) of every span named `name`, restricted to the
    /// operations of kind `op` when given.
    pub fn durations_ms(&self, name: &str, op: Option<&str>) -> Vec<f64> {
        let spans = self.spans.lock().expect("span store poisoned");
        let root_name = |mut i: usize| {
            while let Some(p) = spans[i].parent {
                i = p;
            }
            spans[i].name
        };
        spans
            .iter()
            .enumerate()
            .filter(|(i, s)| s.name == name && op.is_none_or(|op| root_name(*i) == op))
            .map(|(_, s)| s.ms())
            .collect()
    }

    /// Every sample recorded by [`Tracer::count`] under `(op, name)`.
    pub fn counts(&self, op: &str, name: &str) -> Vec<f64> {
        let counts = self.counts.lock().expect("count store poisoned");
        counts
            .iter()
            .find(|((o, n), _)| *o == op && *n == name)
            .map(|(_, v)| v.clone())
            .unwrap_or_default()
    }

    /// Write every span as one NDJSON line.
    pub fn write_ndjson(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span store poisoned");
        let mut out = String::new();
        for (i, s) in spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\"parent\":{},\"request\":{},\"replay\":{}}}",
                s.name,
                s.start_us,
                s.end_us,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request,
                s.replay
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }

    /// Per root-span kind (one kind per end-to-end operation): the median
    /// self time of each layer within one operation, and the median share
    /// that each replayed inner call takes of the call it was replayed
    /// from.
    pub fn self_time_report(&self) -> String {
        let spans = self.spans.lock().expect("span store poisoned");
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        // root kind -> (layer -> per-op self ms, replay name -> per-op share)
        type PerOp = BTreeMap<&'static str, Vec<f64>>;
        let mut kinds: BTreeMap<&'static str, (Vec<f64>, PerOp, PerOp)> = BTreeMap::new();
        for (root, s) in spans.iter().enumerate() {
            if s.parent.is_some() {
                continue;
            }
            let mut self_ms: BTreeMap<&'static str, f64> = BTreeMap::new();
            // replay name -> (summed replay ms, duration of its parent)
            let mut replay_ms: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
            let mut stack = vec![root];
            while let Some(i) = stack.pop() {
                let span = &spans[i];
                if span.replay {
                    let parent_ms = span.parent.map_or(0.0, |p| spans[p].ms());
                    let e = replay_ms.entry(span.name).or_insert((0.0, parent_ms));
                    e.0 += span.ms();
                    continue;
                }
                let covered: f64 = children[i]
                    .iter()
                    .filter(|&&c| !spans[c].replay)
                    .map(|&c| spans[c].ms())
                    .sum();
                *self_ms.entry(span.layer()).or_default() += span.ms() - covered;
                stack.extend(&children[i]);
            }
            let entry = kinds.entry(s.name).or_default();
            entry.0.push(s.ms());
            for (layer, ms) in self_ms {
                entry.1.entry(layer).or_default().push(ms);
            }
            for (name, (ms, parent_ms)) in replay_ms {
                entry
                    .2
                    .entry(name)
                    .or_default()
                    .push(ms / parent_ms.max(1e-9));
            }
        }
        let median = |v: &[f64]| stats::summarize(v).map_or(0.0, |s| s.p50);
        let mut out = String::new();
        for (kind, (durations, layers, replays)) in &kinds {
            let _ = writeln!(
                out,
                "  {kind}: n={} p50 {:.3} ms",
                durations.len(),
                median(durations)
            );
            for (layer, v) in layers {
                let _ = writeln!(out, "    self {layer:<12} {:>10.3} ms", median(v));
            }
            for (name, v) in replays {
                let _ = writeln!(
                    out,
                    "    replay {name:<24} {:>6.1}% of its parent call",
                    100.0 * median(v)
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replays_are_shares_not_self_time() {
        let t = Tracer::new(true);
        let req = t.request();
        let sleep = || std::thread::sleep(std::time::Duration::from_millis(4));
        let (inner, _) = t.span("op.x", None, req, |root| {
            t.span("session.x", root, req, |_| sleep()).1
        });
        // Replayed after the operation closed, parented to the inner call.
        t.replay("repair.full", inner, req, sleep);
        let report = t.self_time_report();
        assert!(report.contains("op.x: n=1"), "{report}");
        assert!(report.contains("self session"), "{report}");
        assert!(report.contains("replay repair.full"), "{report}");
        // Replay time never lands in the operation: the op span is about
        // as long as its one direct child.
        let op = t.durations_ms("op.x", None)[0];
        let child = t.durations_ms("session.x", Some("op.x"))[0];
        assert!(t.durations_ms("session.x", Some("op.y")).is_empty());
        assert!(op < child + 3.0, "op {op} ms vs child {child} ms");
    }

    #[test]
    fn off_records_nothing() {
        let t = Tracer::new(false);
        let (_, id) = t.span("op.x", None, 1, |id| assert!(id.is_none()));
        assert!(id.is_none());
        t.count("op.x", "c", 1.0);
        assert!(t.durations_ms("op.x", None).is_empty());
        assert!(t.counts("op.x", "c").is_empty());
    }
}
