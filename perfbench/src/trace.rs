//! In-memory span recording for the traced run.
//!
//! Spans are recorded from the benchmark's side of each call into a layer:
//! name, start, end, the enclosing span, and a group id (the epoch, screen
//! batch or request the span belongs to). Nothing is written until the run
//! ends. A span's *self time* is its duration minus the part its child
//! spans cover.

use std::io::Write;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary, e.g. `trainer.forward`.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Epoch, batch or request id.
    pub group: u64,
}

impl Span {
    /// Wall time of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span, returned by [`Tracer::begin`].
#[must_use = "every begun span must be ended"]
pub struct Open(Option<usize>);

/// A per-thread span recorder. A disabled tracer records nothing and costs
/// one branch per boundary.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer timing against `origin` (share one origin across threads so
    /// their spans line up).
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, group: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            group,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn end(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            let top = self.stack.pop();
            assert_eq!(top, Some(idx), "spans must close innermost first");
            self.spans[idx].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, group: u64, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name, group);
        let out = f();
        self.end(open);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another tracer's closed spans (re-indexing their parents).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Writes the spans as tab-separated lines:
    /// `name start_ns end_ns self_ns parent group`.
    pub fn write_tsv(&self, mut w: impl Write) -> std::io::Result<()> {
        writeln!(w, "name\tstart_ns\tend_ns\tself_ns\tparent\tgroup")?;
        for (s, own) in self.spans.iter().zip(self_times(&self.spans)) {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns, own, parent, s.group
            )?;
        }
        w.flush()
    }
}

/// Self time of every span: its duration minus its direct children's.
/// Children of one span never overlap (they run on the recording thread).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Per-group totals of the self time of spans named `name`, in ms, ordered
/// by group id.
pub fn self_ms_by_group(spans: &[Span], name: &str) -> Vec<f64> {
    let own = self_times(spans);
    let mut by_group = std::collections::BTreeMap::<u64, u64>::new();
    for (s, t) in spans.iter().zip(own) {
        if s.name == name {
            *by_group.entry(s.group).or_default() += t;
        }
    }
    by_group.into_values().map(|ns| ns as f64 / 1e6).collect()
}

/// Durations (ms) of every span named `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            group: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("epoch", 0, 100, None),
            span("forward", 10, 50, Some(0)),
            span("qlayer", 20, 45, Some(1)),
            span("backward", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![20, 15, 25, 40]);
    }

    #[test]
    fn nesting_follows_the_open_stack() {
        let mut t = Tracer::new(true, Instant::now());
        let outer = t.begin("outer", 7);
        t.span("inner", 7, || ());
        t.end(outer);
        t.span("next", 8, || ());
        let s = t.spans();
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, None);
        assert_eq!((s[0].group, s[2].group), (7, 8));
        assert!(s[0].end_ns >= s[1].end_ns);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let open = t.begin("x", 0);
        t.end(open);
        assert_eq!(t.span("y", 0, || 3), 3);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let origin = Instant::now();
        let mut a = Tracer::new(true, origin);
        a.span("a", 0, || ());
        let mut b = Tracer::new(true, origin);
        let outer = b.begin("b", 1);
        b.span("b.child", 1, || ());
        b.end(outer);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        let mut out = Vec::new();
        a.write_tsv(&mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 4);
    }

    #[test]
    fn group_totals_sum_self_time_per_group() {
        let mut spans = vec![
            span("fwd", 0, 10, None),
            span("fwd", 10, 30, None),
            span("fwd", 30, 35, None),
        ];
        spans[2].group = 1;
        assert_eq!(self_ms_by_group(&spans, "fwd"), vec![30e-6, 5e-6]);
        assert_eq!(durations_ms(&spans, "fwd").len(), 3);
    }
}
