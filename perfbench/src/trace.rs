//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer's public functions; the program itself is not instrumented.
//! Every traced op has one root span whose duration is the op's
//! latency. A span's *self time* is its duration minus the durations of
//! its direct children. Children are sequential, and except in
//! `serve_mix` they lie inside their parent's interval, so this equals
//! the parent's duration minus the part its children cover. In
//! `serve_mix` the root is the client's request to the daemon and the
//! children are the in-process replay of the same request, so the
//! root's self time is client latency minus the in-process sum: the
//! transport.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Every layer the benchmark times, in report order. A layer that a
/// workload bypasses reports zero self time there.
pub const LAYERS: [&str; 18] = [
    "runner.call",
    "network.new",
    "network.run",
    "stats.merge",
    "http.parse",
    "query.decode",
    "query.key",
    "cache.get",
    "answer.compute",
    "answer.render",
    "cache.insert",
    "http.write",
    "transport",
    "topo.build",
    "engine.decompose",
    "engine.moments",
    "gamma.quantile",
    "flow.render",
];

/// Root span name of ops whose root is not itself a layer; its self
/// time is benchmark glue, left unattributed.
pub const OP: &str = "op";

/// Spans kept for the span file: those of the first traced ops, up to
/// this many.
const KEEP_SPANS: usize = 50_000;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer (or root) name.
    pub name: &'static str,
    /// Op identifier shared by every span of one op.
    pub op: u64,
    /// Index of the parent span within the op, `None` for the root.
    pub parent: Option<usize>,
    /// Start time.
    pub start: u64,
    /// End time.
    pub end: u64,
}

/// Self time of every span: duration minus the summed durations of its
/// direct children, floored at zero.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end - s.start).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end - s.start);
        }
    }
    own
}

/// Per-op layer self times, plus the op's latency.
struct OpRow {
    total: u64,
    layers: BTreeMap<&'static str, u64>,
}

/// Collects spans op by op and folds each finished op into per-layer
/// self times.
pub struct Recorder {
    origin: Instant,
    op: u64,
    current: Vec<Span>,
    kept: Vec<Span>,
    rows: Vec<OpRow>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            op: 0,
            current: Vec::new(),
            kept: Vec::new(),
            rows: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens the root span of op `op`; returns its index.
    pub fn begin_op(&mut self, op: u64, root: &'static str) -> usize {
        assert!(self.current.is_empty(), "previous op not ended");
        self.op = op;
        self.open(root, None)
    }

    /// Records the root span of op `op` over an interval measured by the
    /// caller; returns its index.
    pub fn begin_op_at(
        &mut self,
        op: u64,
        root: &'static str,
        start: Instant,
        end: Instant,
    ) -> usize {
        let id = self.begin_op(op, root);
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.current[id].start = ns(start);
        self.current[id].end = ns(end);
        id
    }

    /// Opens a span; returns its index within the op.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start = self.now();
        self.current.push(Span {
            name,
            op: self.op,
            parent,
            start,
            end: start,
        });
        self.current.len() - 1
    }

    /// Closes span `id`.
    pub fn close(&mut self, id: usize) {
        self.current[id].end = self.now();
    }

    /// Times `f` as a child span of `parent`.
    pub fn span<T>(&mut self, parent: usize, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, Some(parent));
        let out = f();
        self.close(id);
        out
    }

    /// Ends the current op: folds its spans into per-layer self times.
    pub fn end_op(&mut self) {
        let own = self_times(&self.current);
        let mut layers = BTreeMap::new();
        for (s, t) in self.current.iter().zip(own) {
            if s.name != OP {
                *layers.entry(s.name).or_insert(0) += t;
            }
        }
        let root = &self.current[0];
        self.rows.push(OpRow {
            total: root.end - root.start,
            layers,
        });
        if self.kept.len() + self.current.len() <= KEEP_SPANS {
            self.kept.append(&mut self.current);
        } else {
            self.current.clear();
        }
    }

    /// Number of traced ops recorded.
    pub fn ops(&self) -> usize {
        self.rows.len()
    }

    /// Latencies of the traced ops (root span durations), nanoseconds.
    pub fn op_latencies(&self) -> Vec<f64> {
        self.rows.iter().map(|r| r.total as f64).collect()
    }

    /// For each of [`LAYERS`]: its self time in the median op, and its
    /// share of all traced op time.
    ///
    /// The median op's breakdown is the mean self time over the ops in
    /// the middle decile of op latency. For ops that all do the same
    /// work this is each layer's median; for a mix of requests it still
    /// adds up to the median op, where per-layer medians would drop
    /// every layer that runs on fewer than half of the ops.
    pub fn layer_summary(&self) -> Vec<(&'static str, f64, f64)> {
        let total: u64 = self.rows.iter().map(|r| r.total).sum();
        let mut order: Vec<&OpRow> = self.rows.iter().collect();
        order.sort_by_key(|r| r.total);
        let n = order.len();
        let lo = n * 45 / 100;
        let band = &order[lo..(n * 55).div_ceil(100).max(lo + 1).min(n)];
        LAYERS
            .iter()
            .map(|&name| {
                let self_ns = |r: &OpRow| r.layers.get(name).copied().unwrap_or(0) as f64;
                let sum: f64 = self.rows.iter().map(&self_ns).sum();
                let share = if total == 0 { 0.0 } else { sum / total as f64 };
                let mid = band.iter().map(|r| self_ns(r)).sum::<f64>() / band.len().max(1) as f64;
                (name, mid, share)
            })
            .collect()
    }

    /// Writes the kept spans as JSON lines.
    pub fn write_spans(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.kept {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"op\": {}, \"name\": \"{}\", \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.op, s.name, parent, s.start, s.end
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // op [0,100) ⊃ a [10,40) ⊃ a1 [15,25); op ⊃ b [50,90).
        let spans = vec![
            span(OP, None, 0, 100),
            span("a", Some(0), 10, 40),
            span("a1", Some(1), 15, 25),
            span("b", Some(0), 50, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn replayed_children_leave_transport_as_root_self_time() {
        // Client request [0,50); in-process replay [60,80) afterwards.
        let spans = vec![
            span("transport", None, 0, 50),
            span("http.parse", Some(0), 60, 64),
            span("http.write", Some(0), 64, 80),
        ];
        assert_eq!(self_times(&spans), vec![30, 4, 16]);
        // A replay longer than the request floors transport at zero.
        let spans = vec![
            span("transport", None, 0, 5),
            span("http.parse", Some(0), 6, 16),
        ];
        assert_eq!(self_times(&spans), vec![0, 10]);
    }

    #[test]
    fn summary_breaks_down_the_median_op() {
        let mut rec = Recorder::new();
        // Twenty ops of which the middle decile (ops 9 and 10 by
        // latency) spends 30 ns in "query.key"; the rest spend 5 ns.
        for i in 0..20u64 {
            rec.current = vec![
                span("transport", None, 0, 100 + i),
                span(
                    "query.key",
                    Some(0),
                    200,
                    if i == 9 || i == 10 { 230 } else { 205 },
                ),
            ];
            rec.end_op();
        }
        assert_eq!(rec.ops(), 20);
        let summary = rec.layer_summary();
        assert_eq!(summary.len(), LAYERS.len());
        let get = |l: &str| summary.iter().find(|s| s.0 == l).copied().unwrap();
        let (_, key_mid, key_share) = get("query.key");
        let (_, transport_mid, _) = get("transport");
        assert_eq!(key_mid, 30.0);
        assert_eq!(key_mid + transport_mid, 109.5, "adds up to the median op");
        let total: u64 = (0..20).map(|i| 100 + i).sum();
        assert_eq!(key_share, (2.0 * 30.0 + 18.0 * 5.0) / total as f64);
        assert_eq!(get("runner.call").1, 0.0);
        let mut buf = Vec::new();
        rec.write_spans(&mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap().lines().count(), 40);
    }
}
