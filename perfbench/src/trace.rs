//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions: name, start, end, parent span and operation id. They
//! stay in memory and are written out when the benchmark ends. A layer's
//! self time is its span's duration minus its child spans' durations.
//!
//! A *probe* span re-runs, through public calls, work a layer does
//! privately (routing and calibration inside `Scenario::from_spec`, request
//! decoding inside the daemon). Probes attribute time inside their parent;
//! they are excluded from the operation wall, so they never count twice.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name (`"scenario.compile"`).
    pub name: &'static str,
    /// Operation the span belongs to.
    pub op: u64,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
    /// Start, since the tracer's epoch.
    pub start: Duration,
    /// End, since the tracer's epoch.
    pub end: Duration,
    /// True for probe spans (see the module docs).
    pub probe: bool,
}

impl Span {
    /// Wall duration.
    pub fn dur(&self) -> Duration {
        self.end - self.start
    }
}

/// The span recorder of one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// A recorder whose times count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Self { epoch, spans: Vec::new(), open: Vec::new(), op: 0 }
    }

    /// Sets the operation id of spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn push(&mut self, name: &'static str, probe: bool) -> usize {
        let start = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start,
            end: start,
            probe,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    fn pop(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans must close in order");
        self.spans[id].end = self.epoch.elapsed();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.push(name, false);
        let r = f();
        self.pop(id);
        r
    }

    /// [`Self::span`] for closures that record child spans themselves.
    pub fn span_with<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.push(name, false);
        let r = f(self);
        self.pop(id);
        r
    }

    /// Runs `f` inside a probe span (see the module docs).
    pub fn probe<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.push(name, true);
        let r = f();
        self.pop(id);
        r
    }

    /// Records an already-measured span under the current parent.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start: start.duration_since(self.epoch),
            end: end.duration_since(self.epoch),
            probe: false,
        });
    }

    /// All recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves another thread's spans into this recorder.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Per-operation breakdown: wall (root span minus probes) and self time
/// per layer name.
#[derive(Debug, Default, Clone)]
pub struct OpBreakdown {
    /// Operation wall without probe spans, ms.
    pub wall_ms: f64,
    /// Self time per layer, ms (probes included, root excluded).
    pub self_ms: BTreeMap<&'static str, f64>,
}

impl OpBreakdown {
    /// Σ layer self time ÷ operation wall.
    pub fn coverage(&self) -> f64 {
        self.self_ms.values().sum::<f64>() / self.wall_ms
    }

    /// Self time of `layer`, 0 when the layer did not run.
    pub fn layer(&self, layer: &str) -> f64 {
        self.self_ms.get(layer).copied().unwrap_or(0.0)
    }
}

/// Breaks every operation rooted at a span named `root` into self times.
///
/// A probe's duration is subtracted from its parent's self time like any
/// child's, and from the root's wall, because the probe ran work the parent
/// had already done once.
pub fn breakdown(spans: &[Span], root: &str) -> Vec<OpBreakdown> {
    let mut child_ms = vec![0.0f64; spans.len()];
    let mut probe_ms = vec![0.0f64; spans.len()];
    let mut root_of = vec![None; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        root_of[i] = match s.parent {
            None if s.name == root => Some(i),
            None => None,
            Some(p) => root_of[p],
        };
        if let Some(p) = s.parent {
            // A probe runs inside its parent's span after the parent's own
            // call returned: subtract it once for running there and once
            // more for the share of the call it attributes.
            let times = if s.probe { 2.0 } else { 1.0 };
            child_ms[p] += times * s.dur().as_secs_f64() * 1e3;
        }
        if s.probe {
            if let Some(r) = root_of[i] {
                probe_ms[r] += s.dur().as_secs_f64() * 1e3;
            }
        }
    }
    let mut ops: BTreeMap<usize, OpBreakdown> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let Some(r) = root_of[i] else { continue };
        let op = ops.entry(r).or_default();
        // A parent whose probes ran slower than its own call did that work
        // gets a slightly negative self time; the sum over layers stays
        // exact, so it is kept as measured.
        let own = s.dur().as_secs_f64() * 1e3 - child_ms[i];
        if i == r {
            op.wall_ms = s.dur().as_secs_f64() * 1e3 - probe_ms[r];
        } else {
            *op.self_ms.entry(s.name).or_insert(0.0) += own;
        }
    }
    ops.into_values().collect()
}

/// Total duration, ms, of the top-level spans named `name`, per operation
/// id (for probes recorded outside any operation).
pub fn per_op_totals(spans: &[Span], name: &str) -> Vec<f64> {
    let mut by_op: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent.is_none() && s.name == name) {
        *by_op.entry(s.op).or_insert(0.0) += s.dur().as_secs_f64() * 1e3;
    }
    by_op.into_values().collect()
}

/// The spans as JSON lines (`name`, `op`, `parent`, `start_us`, `end_us`,
/// `probe`).
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"op\":{},\"parent\":{},\"start_us\":{:.3},\"end_us\":{:.3},\"probe\":{}}}\n",
            s.name,
            s.op,
            parent,
            s.start.as_secs_f64() * 1e6,
            s.end.as_secs_f64() * 1e6,
            s.probe
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ms: u64) -> Duration {
        Duration::from_millis(ms)
    }

    fn span(name: &'static str, parent: Option<usize>, a: u64, b: u64, probe: bool) -> Span {
        Span { name, op: 0, parent, start: at(a), end: at(b), probe }
    }

    #[test]
    fn self_time_subtracts_children_and_probes_leave_the_wall() {
        // Compile's own call took 60 ms, 40 of them calibrating; the probe
        // re-ran the calibration inside the compile span.
        let spans = vec![
            span("op", None, 0, 130, false),
            span("scenario.compile", Some(0), 0, 100, false),
            span("scenario.calibrate", Some(1), 60, 100, true),
            span("campaign.sample", Some(0), 100, 130, false),
        ];
        let ops = breakdown(&spans, "op");
        assert_eq!(ops.len(), 1);
        let op = &ops[0];
        assert!((op.wall_ms - 90.0).abs() < 1e-9, "130 ms minus a 40 ms probe");
        assert!((op.layer("scenario.compile") - 20.0).abs() < 1e-9);
        assert!((op.layer("scenario.calibrate") - 40.0).abs() < 1e-9);
        assert!((op.layer("campaign.sample") - 30.0).abs() < 1e-9);
        assert!((op.coverage() - 1.0).abs() < 1e-9);
        assert_eq!(op.layer("hvt.build"), 0.0);
    }

    #[test]
    fn tracer_nests_spans_and_absorbs_other_threads() {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch);
        t.set_op(3);
        t.span_with("op", |t| {
            t.span("spec.parse", || ());
            t.probe("scenario.routes", || ());
        });
        let mut other = Tracer::new(epoch);
        other.span_with("op", |t| t.span("wire.write", || ()));
        t.absorb(other);
        let s = t.spans();
        assert_eq!(s.len(), 5);
        assert_eq!((s[1].parent, s[1].op), (Some(0), 3));
        assert!(s[2].probe);
        assert_eq!(s[4].parent, Some(3), "absorbed parents are re-based");
        assert_eq!(breakdown(s, "op").len(), 2);
        assert_eq!(to_json_lines(s).lines().count(), 5);
    }
}
