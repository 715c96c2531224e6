//! The benchmark's own span recorder: a span around every call the harness
//! makes into a layer's public API, kept in memory and written out as a
//! Chrome trace when the run ends.
//!
//! A layer's *self time* is its span's duration minus the time its child
//! spans cover. Every op is one root span, so the ledger of an op — the self
//! times of the layers below it plus the root's own self time, reported as
//! `unattributed` — sums to the op's wall time by construction; [`Ledger`]
//! checks the nesting that makes that sum meaningful.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub op: u64,
    pub tid: u32,
}

/// Records spans for one thread. A disabled tracer runs the closures and
/// records nothing.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    tid: u32,
    op: u64,
    stack: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer::new(false, Instant::now(), 0)
    }

    pub fn new(on: bool, epoch: Instant, tid: u32) -> Tracer {
        Tracer {
            on,
            epoch,
            tid,
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` as op `id`: a root span named `name`.
    pub fn op<R>(&mut self, id: u64, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.op = id;
        self.span(name, f)
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start: 0,
            end: 0,
            parent: self.stack.last().copied(),
            op: self.op,
            tid: self.tid,
        });
        self.stack.push(idx);
        self.spans[idx].start = self.epoch.elapsed().as_nanos() as u64;
        let out = f(self);
        self.spans[idx].end = self.epoch.elapsed().as_nanos() as u64;
        self.stack.pop();
        out
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Concatenates the spans of several tracers.
    pub fn merge(tracers: Vec<Tracer>) -> Vec<Span> {
        let mut all = Vec::new();
        for t in tracers {
            append(&mut all, t.spans);
        }
        all
    }
}

/// Appends `more` to `all`, re-basing its parent indices.
pub fn append(all: &mut Vec<Span>, more: Vec<Span>) {
    let base = all.len();
    all.extend(more.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// Self time per layer over a set of ops, with the integrity checks.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Layer name → summed self time (ns). Root spans' self time is filed
    /// under `unattributed`.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Layer name → number of spans.
    pub calls: BTreeMap<&'static str, u64>,
    /// Number of ops (root spans).
    pub ops: u64,
    /// Summed wall time of the ops (ns).
    pub op_wall_ns: u64,
    /// Children that stick out of their parent or overlap a sibling.
    pub nesting_errors: u64,
}

impl Ledger {
    pub fn of(spans: &[Span]) -> Ledger {
        let mut child_ns = vec![0u64; spans.len()];
        let mut last_child_end: Vec<Option<u64>> = vec![None; spans.len()];
        let mut ledger = Ledger::default();
        for s in spans {
            if let Some(p) = s.parent {
                let parent = &spans[p];
                let outside = s.start < parent.start || s.end > parent.end;
                let overlaps = last_child_end[p].is_some_and(|e| s.start < e);
                if outside || overlaps {
                    ledger.nesting_errors += 1;
                }
                last_child_end[p] = Some(s.end);
                child_ns[p] += s.end - s.start;
            }
        }
        for (i, s) in spans.iter().enumerate() {
            let dur = s.end - s.start;
            let own = dur.saturating_sub(child_ns[i]);
            let row = if s.parent.is_none() {
                ledger.ops += 1;
                ledger.op_wall_ns += dur;
                "unattributed"
            } else {
                s.name
            };
            *ledger.self_ns.entry(row).or_default() += own;
            *ledger.calls.entry(s.name).or_default() += 1;
        }
        ledger
    }

    /// Summed self time of `layer` in milliseconds.
    pub fn ms(&self, layer: &str) -> f64 {
        self.self_ns.get(layer).copied().unwrap_or(0) as f64 / 1e6
    }

    /// Summed self time of the four compile layers in milliseconds.
    pub fn compile_ms(&self) -> f64 {
        ["lang", "cfa", "inline", "simplify"]
            .iter()
            .map(|l| self.ms(l))
            .sum()
    }

    /// |Σ rows − Σ op wall| in nanoseconds: zero for a sound ledger.
    pub fn sum_error_ns(&self) -> u64 {
        let rows: u64 = self.self_ns.values().sum();
        rows.abs_diff(self.op_wall_ns)
    }

    /// The ledger holds: rows sum to op wall and every span nests.
    pub fn sound(&self) -> bool {
        self.ops > 0 && self.sum_error_ns() == 0 && self.nesting_errors == 0
    }
}

/// Renders spans in the Chrome trace event format (`B`/`E` pairs, one track
/// per recording thread), each event carrying its op id and parent name.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    let mut events = Vec::with_capacity(spans.len() * 2);
    fn emit(i: usize, spans: &[Span], children: &[Vec<usize>], events: &mut Vec<String>) {
        let s = &spans[i];
        let parent = s.parent.map_or("", |p| spans[p].name);
        let ev = |ph: &str, ns: u64| {
            format!(
                "{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"{ph}\",\"ts\":{:.3},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"op\":{},\"parent\":\"{parent}\"}}}}",
                s.name,
                ns as f64 / 1e3,
                s.tid,
                s.op
            )
        };
        events.push(ev("B", s.start));
        for &c in &children[i] {
            emit(c, spans, children, events);
        }
        events.push(ev("E", s.end));
    }
    for (i, s) in spans.iter().enumerate() {
        if s.parent.is_none() {
            emit(i, spans, &children, &mut events);
        }
    }
    format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_rows_sum_to_op_wall() {
        let mut t = Tracer::new(true, Instant::now(), 0);
        for id in 0..3 {
            t.op(id, "op", |t| {
                t.span("lang", |_| std::hint::black_box((0..1000).sum::<u64>()));
                t.span("vm", |t| t.span("store", |_| ()));
            });
        }
        let ledger = Ledger::of(&t.spans);
        assert_eq!(ledger.ops, 3);
        assert!(ledger.sound());
        assert_eq!(ledger.calls["store"], 3);
        let summary = fdi_telemetry::validate_chrome_trace(&chrome_trace(&t.spans)).unwrap();
        assert_eq!(summary.spans, t.spans.len());
    }

    #[test]
    fn a_child_outside_its_parent_is_caught() {
        let span = |start, end, parent| Span {
            name: "x",
            start,
            end,
            parent,
            op: 0,
            tid: 0,
        };
        let ledger = Ledger::of(&[span(10, 20, None), span(15, 25, Some(0))]);
        assert_eq!(ledger.nesting_errors, 1);
        assert!(!ledger.sound());
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.op(1, "op", |t| t.span("vm", |_| 7)), 7);
        assert!(t.spans.is_empty());
    }
}
