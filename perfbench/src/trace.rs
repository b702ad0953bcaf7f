//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around calls into the
//! layer crates (no tracing inside the program). Each span carries its
//! name, start and end (nanoseconds since the tracer was created), its
//! parent span and the op it belongs to. Root spans are either the op
//! itself (`op`) or an attribution probe (`probe`) that re-runs the op's
//! layer calls beside it; only `op` trees enter the wall-time accounting.
//!
//! Work that runs on several threads at once is recorded in one lane
//! tracer per thread and merged under the span that waited for it. A span
//! in one of `L` lanes counts `1/L` of its duration towards its parent, so
//! self times still add up to the op's wall time; the waiting span's own
//! self time is then the time the lanes left idle.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Root span name of one closed-loop op.
pub const OP: &str = "op";
/// Root span name of an attribution probe beside an op.
pub const PROBE: &str = "probe";

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
    /// Number of parallel lanes sharing this span's wall time (1 on the
    /// client thread).
    lanes: u32,
}

impl Span {
    fn duration_ns(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64
    }

    /// The share of the duration that counts towards the parent.
    fn weighted_ns(&self) -> f64 {
        self.duration_ns() / f64::from(self.lanes)
    }
}

/// Self time of one span name, summed over its spans.
#[derive(Clone, Copy, Default)]
pub struct SelfTime {
    /// Wall-time share: lane spans count `1/lanes` of their time.
    pub wall_ns: f64,
    /// Time the spans themselves took, whatever lane they ran in.
    pub busy_ns: f64,
    /// Wall-time share of the spans including their children.
    pub total_ns: f64,
    pub count: u64,
}

/// Records spans on one thread; spans nest through an explicit stack.
pub struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    op: Cell<u64>,
}

impl Tracer {
    pub fn new() -> Self {
        Self::with_origin(Instant::now())
    }

    fn with_origin(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            op: Cell::new(0),
        }
    }

    /// An empty tracer for one thread of a parallel section, on this
    /// tracer's clock and op.
    pub fn lane(&self) -> Tracer {
        let lane = Self::with_origin(self.origin);
        lane.op.set(self.op.get());
        lane
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Sets the op id stamped on the spans recorded from now on.
    pub fn set_op(&self, op: u64) {
        self.op.set(op);
    }

    /// Runs `f` inside a span named `name`, nested under the current span;
    /// also returns the span's id.
    pub fn time_id<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (R, usize) {
        let id = self.open(name, Instant::now());
        self.stack.borrow_mut().push(id);
        let out = f();
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut()[id].end_ns = self.ns(Instant::now());
        (out, id)
    }

    /// Runs `f` inside a span named `name`, nested under the current span.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.time_id(name, f).0
    }

    /// Adds an already-finished span under the current span (used for
    /// intervals the program measures itself: server-side queue wait and
    /// compute, and the cell library's characterization time).
    pub fn record(&self, name: &'static str, start: Instant, duration: Duration) -> usize {
        let parent = self.stack.borrow().last().copied();
        self.record_under(parent, name, start, duration)
    }

    /// As [`Tracer::record`], under an explicit (possibly closed) parent.
    pub fn record_under(
        &self,
        parent: Option<usize>,
        name: &'static str,
        start: Instant,
        duration: Duration,
    ) -> usize {
        let id = self.open(name, start);
        let mut spans = self.spans.borrow_mut();
        spans[id].parent = parent;
        let dur = u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX);
        spans[id].end_ns = spans[id].start_ns.saturating_add(dur);
        id
    }

    /// Moves the spans of parallel lane tracers under span `parent`.
    pub fn merge_lanes(&self, parent: usize, lanes: Vec<Tracer>) {
        let n = u32::try_from(lanes.len()).expect("lane count fits in u32");
        let mut spans = self.spans.borrow_mut();
        for lane in lanes {
            let offset = spans.len();
            spans.extend(lane.spans.into_inner().into_iter().map(|s| Span {
                parent: Some(s.parent.map_or(parent, |p| p + offset)),
                lanes: n,
                ..s
            }));
        }
    }

    fn open(&self, name: &'static str, start: Instant) -> usize {
        let parent = self.stack.borrow().last().copied();
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(start),
            parent,
            op: self.op.get(),
            lanes: 1,
        });
        spans.len() - 1
    }

    /// Wall-share self time of every span (its weighted duration minus its
    /// direct children's) in ns, and whether it lies under an `op` root.
    /// A parent is always recorded before its children, so one forward
    /// pass sees every parent first.
    fn self_ns(spans: &[Span]) -> Vec<(f64, bool)> {
        let mut out: Vec<(f64, bool)> = Vec::with_capacity(spans.len());
        for s in spans {
            let in_op = match s.parent {
                None => s.name == OP,
                Some(p) => out[p].1,
            };
            out.push((s.weighted_ns(), in_op));
        }
        for s in spans {
            if let Some(p) = s.parent {
                out[p].0 -= s.weighted_ns();
            }
        }
        out
    }

    /// Self time per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let spans = self.spans.borrow();
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, (ns, _)) in spans.iter().zip(Self::self_ns(&spans)) {
            let e = out.entry(s.name).or_default();
            e.wall_ns += ns;
            e.busy_ns += ns * f64::from(s.lanes);
            e.total_ns += s.weighted_ns();
            e.count += 1;
        }
        out
    }

    /// Summed wall time of the `op` roots and the number of ops, in ns.
    pub fn op_wall(&self) -> (f64, u64) {
        let spans = self.spans.borrow();
        spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == OP)
            .fold((0.0, 0), |(t, n), s| (t + s.duration_ns(), n + 1))
    }

    /// The accounting of op wall time: per-layer self time inside op trees,
    /// and the unaccounted remainder (op self time). The parts add up to
    /// the summed op wall time by construction; `check` asserts it.
    pub fn accounting(&self) -> Accounting {
        let mut layers = BTreeMap::new();
        {
            let spans = self.spans.borrow();
            for (s, (ns, in_op)) in spans.iter().zip(Self::self_ns(&spans)) {
                if in_op && s.parent.is_some() {
                    *layers.entry(s.name).or_insert(0.0) += ns;
                }
            }
        }
        let (wall_ns, ops) = self.op_wall();
        let covered: f64 = layers.values().sum();
        Accounting {
            layers,
            unaccounted_ns: wall_ns - covered,
            wall_ns,
            ops,
        }
    }

    /// Serializes every span as JSON.
    pub fn spans_json(&self) -> String {
        let spans = self.spans.borrow();
        let mut out = String::from("[");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"op\":{},\"lanes\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op, s.lanes
            );
        }
        out.push(']');
        out
    }
}

/// How op wall time splits into layer self times plus the unaccounted rest.
pub struct Accounting {
    pub layers: BTreeMap<&'static str, f64>,
    pub unaccounted_ns: f64,
    pub wall_ns: f64,
    pub ops: u64,
}

impl Accounting {
    pub fn unaccounted_frac(&self) -> f64 {
        if self.wall_ns > 0.0 {
            self.unaccounted_ns / self.wall_ns
        } else {
            0.0
        }
    }

    /// Human-readable per-op breakdown; the rows sum to the op wall time.
    pub fn table(&self) -> String {
        let per_op = |ns: f64| ns / 1e6 / self.ops.max(1) as f64;
        let mut out = String::new();
        for (name, ns) in &self.layers {
            let _ = writeln!(out, "  {name:<32} {:>10.4} ms/op", per_op(*ns));
        }
        let _ = writeln!(
            out,
            "  {:<32} {:>10.4} ms/op ({:.4} of wall)",
            "(unaccounted)",
            per_op(self.unaccounted_ns),
            self.unaccounted_frac()
        );
        let _ = writeln!(
            out,
            "  {:<32} {:>10.4} ms/op over {} ops",
            "= op wall",
            per_op(self.wall_ns),
            self.ops
        );
        out
    }

    /// Asserts that layer self times plus the unaccounted rest equal the
    /// summed op wall time.
    pub fn check(&self) -> bool {
        let sum: f64 = self.layers.values().sum::<f64>() + self.unaccounted_ns;
        (sum - self.wall_ns).abs() <= 1e-6 * self.wall_ns.max(1.0)
    }
}
