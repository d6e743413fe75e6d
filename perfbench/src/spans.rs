//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public entry point.  Each span has a name, start, end, parent
//! span and operation id; spans of one operation share the id.  Nothing is
//! written until [`Tracer::write_jsonl`] at the end of the run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Name prefix of probe operations: layer calls the traced run makes
/// outside any timed operation, only to split a layer's cost further.
/// They are excluded from the unattributed share.
pub const PROBE: &str = "probe.";

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Where a new span attaches: its operation and parent span.
#[derive(Clone, Copy, Debug)]
pub struct Scope {
    op: u64,
    parent: u32,
}

pub struct Tracer {
    /// A disabled tracer runs every span's body and records nothing.
    enabled: bool,
    origin: Instant,
    next_id: AtomicU32,
    next_op: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            next_id: AtomicU32::new(0),
            next_op: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// A tracer that records nothing: the untraced twin of a traced
    /// replica, for measuring what the recording itself costs.
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::default()
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn record<T>(
        &self,
        op: u64,
        parent: Option<u32>,
        name: &'static str,
        f: impl FnOnce(Scope) -> T,
    ) -> T {
        if !self.enabled {
            return f(Scope { op, parent: 0 });
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(Scope { op, parent: id });
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("a span recorder panicked")
            .push(Span {
                id,
                parent,
                op,
                name,
                start_ns,
                end_ns,
            });
        out
    }

    /// Run `f` as a new operation whose root span is `name`.
    pub fn op<T>(&self, name: &'static str, f: impl FnOnce(Scope) -> T) -> T {
        let op = self.next_op.fetch_add(1, Ordering::Relaxed);
        self.record(op, None, name, f)
    }

    /// Run `f` as a child span of `scope`.
    pub fn span<T>(&self, scope: Scope, name: &'static str, f: impl FnOnce(Scope) -> T) -> T {
        self.record(scope.op, Some(scope.parent), name, f)
    }

    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("a span recorder panicked").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"op\": {}, \"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.op, s.id, s.name, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

/// Per-operation self time of each span name, plus each operation's
/// unattributed time (root self time).
#[derive(Debug, Default)]
pub struct Breakdown {
    /// name → per-operation summed self time (ns), one entry per operation
    /// containing the name.
    pub self_ns: BTreeMap<&'static str, Vec<f64>>,
    /// name → number of spans.
    pub calls: BTreeMap<&'static str, usize>,
    /// Σ root self time over timed (non-probe) operations.
    pub unattributed_ns: f64,
    /// Σ root duration over timed (non-probe) operations.
    pub total_ns: f64,
}

impl Breakdown {
    pub fn of(spans: &[Span]) -> Breakdown {
        let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
        for s in spans {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += s.ns();
            }
        }
        let mut per_op: BTreeMap<(&'static str, u64), u64> = BTreeMap::new();
        let mut out = Breakdown::default();
        for s in spans {
            let own = s
                .ns()
                .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            *per_op.entry((s.name, s.op)).or_default() += own;
            *out.calls.entry(s.name).or_default() += 1;
            if s.parent.is_none() && !s.name.starts_with(PROBE) {
                out.unattributed_ns += own as f64;
                out.total_ns += s.ns() as f64;
            }
        }
        for ((name, _), ns) in per_op {
            out.self_ns.entry(name).or_default().push(ns as f64);
        }
        out
    }

    /// Median per-operation self time of `name`, in milliseconds (0 when
    /// the name never occurs).
    pub fn ms(&self, name: &str) -> f64 {
        self.self_ns
            .get(name)
            .map_or(0.0, |v| crate::stats::median(v) / 1e6)
    }

    /// Unattributed share of the timed operations' wall time.
    pub fn unattributed_frac(&self) -> f64 {
        if self.total_ns == 0.0 {
            0.0
        } else {
            self.unattributed_ns / self.total_ns
        }
    }

    /// The per-layer table printed by the traced run.
    pub fn render(&self, workload: &str) -> String {
        let mut out = format!("per-layer self time, {workload} (median per operation):\n");
        for (name, samples) in &self.self_ns {
            let s = crate::stats::summarize(samples).expect("recorded names have samples");
            let _ = writeln!(
                out,
                "  {name:<26} {:>10.3} ms  (q1 {:.3}, q3 {:.3}; {} ops, {} spans)",
                s.median / 1e6,
                s.q1 / 1e6,
                s.q3 / 1e6,
                s.count,
                self.calls[name]
            );
        }
        let _ = writeln!(
            out,
            "  {:<26} {:>10.3} ms total  ({:.2}% of timed operations' wall time)",
            "unattributed",
            self.unattributed_ns / 1e6,
            100.0 * self.unattributed_frac()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: u32,
        parent: Option<u32>,
        op: u64,
        name: &'static str,
        start: u64,
        end: u64,
    ) -> Span {
        Span {
            id,
            parent,
            op,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = vec![
            span(0, None, 0, "op", 0, 100),
            span(1, Some(0), 0, "a", 10, 50),
            span(2, Some(1), 0, "b", 20, 30),
            span(3, Some(0), 0, "b", 60, 90),
            span(4, None, 1, "probe.x", 200, 210),
        ];
        let b = Breakdown::of(&spans);
        assert_eq!(b.self_ns["op"], vec![30.0]);
        assert_eq!(b.self_ns["a"], vec![30.0]);
        assert_eq!(
            b.self_ns["b"],
            vec![40.0],
            "self times of one name sum per operation"
        );
        assert_eq!(b.calls["b"], 2);
        assert_eq!(
            (b.unattributed_ns, b.total_ns),
            (30.0, 100.0),
            "probes are not operations"
        );
    }

    #[test]
    fn tracer_nests_spans_under_their_operation() {
        let tracer = Tracer::default();
        tracer.op("op", |scope| {
            tracer.span(scope, "child", |inner| {
                tracer.span(inner, "grandchild", |_| ())
            });
        });
        tracer.op("op", |_| ());
        let spans = tracer.spans();
        assert_eq!(spans.len(), 4);
        let root = spans.iter().find(|s| s.name == "op" && s.op == 0).unwrap();
        let child = spans.iter().find(|s| s.name == "child").unwrap();
        let grandchild = spans.iter().find(|s| s.name == "grandchild").unwrap();
        assert_eq!(
            (child.parent, grandchild.parent),
            (Some(root.id), Some(child.id))
        );
        assert!(spans.iter().filter(|s| s.name == "op").any(|s| s.op == 1));
    }

    #[test]
    fn disabled_tracer_runs_bodies_and_records_nothing() {
        let tracer = Tracer::disabled();
        let out = tracer.op("op", |scope| tracer.span(scope, "child", |_| 7));
        assert_eq!(out, 7);
        assert!(tracer.spans().is_empty());
    }
}
