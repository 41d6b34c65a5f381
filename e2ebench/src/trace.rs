//! Spans the benchmark records around its own calls into each layer's
//! public functions. Spans live in memory and are written out when the
//! run ends; with tracing off nothing is recorded and no clock is read.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `wire.begin_check`.
    pub name: &'static str,
    /// Spans of one check or one iteration share this id.
    pub trace: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration, ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span sink.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since creation of `at`.
    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Records a finished span.
    fn record(
        &self,
        name: &'static str,
        trace: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            name,
            trace,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.lock().expect("span sink poisoned").push(span);
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(
        &self,
        name: &'static str,
        trace: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(name, trace, parent, start, Instant::now());
        out
    }

    /// Reserves a parent slot now, so child spans recorded while it is
    /// open can point at it; [`Tracer::close`] fills in its interval.
    pub fn open(&self, name: &'static str, trace: u64) -> Option<usize> {
        if !self.on {
            return None;
        }
        let now = self.ns(Instant::now());
        let mut spans = self.spans.lock().expect("span sink poisoned");
        spans.push(Span {
            name,
            trace,
            parent: None,
            start_ns: now,
            end_ns: now,
        });
        Some(spans.len() - 1)
    }

    /// Closes a span opened with [`Tracer::open`].
    pub fn close(&self, idx: Option<usize>) {
        let Some(idx) = idx else { return };
        let now = self.ns(Instant::now());
        let mut spans = self.spans.lock().expect("span sink poisoned");
        if let Some(s) = spans.get_mut(idx) {
            s.end_ns = now;
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span sink poisoned").clone()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut kids = children.remove(&i).unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Per span name: (count, total duration ns, total self time ns).
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += own;
    }
    out
}

/// The spans as JSON lines, for the written-out trace file.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{i},\"name\":\"{}\",\"trace\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}\n",
            s.name, s.trace, s.start_ns, s.end_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            trace: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_once_even_when_they_overlap() {
        let spans = vec![
            span("check", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 30, 60),  // overlaps a by 10
            span("c", Some(0), 90, 120), // runs past the parent's end
            span("leaf", Some(1), 15, 20),
        ];
        let selfs = self_times(&spans);
        // Children cover 10..60 and 90..100: 60 ns of the parent's 100.
        assert_eq!(selfs[0], 40);
        assert_eq!(selfs[1], 25, "a minus its leaf");
        assert_eq!(selfs[2], 30);
        assert_eq!(selfs[3], 30, "own duration, no children");
        assert_eq!(selfs[4], 5);
    }

    #[test]
    fn self_time_of_a_fully_covered_span_is_zero() {
        let spans = vec![span("p", None, 0, 10), span("k", Some(0), 0, 10)];
        assert_eq!(self_times(&spans), vec![0, 10]);
    }

    #[test]
    fn by_name_sums_counts_durations_and_self_times() {
        let spans = vec![
            span("p", None, 0, 10),
            span("k", Some(0), 2, 4),
            span("k", Some(0), 6, 9),
        ];
        let agg = by_name(&spans);
        assert_eq!(agg["p"], (1, 10, 5));
        assert_eq!(agg["k"], (2, 5, 5));
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", 1, None, || 7), 7);
        assert!(t.open("y", 1).is_none());
        assert!(t.spans().is_empty());
    }
}
