//! In-memory spans recorded by the benchmark around its calls into each
//! layer, and the self-time arithmetic over them.

use std::io::Write;
use std::time::Instant;

/// One timed interval.  `parent` indexes the same span list; all spans of
/// one operation share `op`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span covers, e.g. `serve.call`.
    pub name: &'static str,
    /// Operation id.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the run's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder.  When disabled, `open` and `close` do nothing
/// and read no clock.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder timing against `epoch`.
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Self {
            epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span; returns its handle (`None` while disabled).
    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns: now,
            end_ns: now,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`open`](Self::open).
    pub fn close(&mut self, id: Option<usize>) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Records an already-measured interval.
    pub fn record(&mut self, span: Span) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(span);
        Some(self.spans.len() - 1)
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Consumes the recorder.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Concatenates span lists, re-basing each list's parent indices.
pub fn merge(lists: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out = Vec::with_capacity(lists.iter().map(Vec::len).sum());
    for list in lists {
        let base = out.len();
        out.extend(list.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    out
}

/// Each span's self time: its duration minus the part of its interval that
/// its children cover (overlapping children count once; a child sticking out
/// of its parent counts only inside it).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
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

/// Durations, in milliseconds, of every span called `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect()
}

/// Writes the spans as JSON lines.
pub fn write_jsonl<W: Write>(spans: &[Span], mut w: W) -> std::io::Result<()> {
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{i},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.op, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time() {
        // root [0,100): children a [10,30), b [25,50) overlapping a, and
        // c [90,120) sticking out of root; a has a grandchild [12,18).
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 25, 50),
            span("c", Some(0), 90, 120),
            span("a.child", Some(1), 12, 18),
        ];
        let selfs = self_times(&spans);
        // root covered: [10,50) = 40 and [90,100) = 10.
        assert_eq!(selfs, vec![50, 14, 25, 30, 6]);
    }

    #[test]
    fn leaf_and_sequential_children() {
        let spans = vec![
            span("job", None, 0, 1000),
            span("s1", Some(0), 0, 400),
            span("s2", Some(0), 400, 990),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![10, 400, 590]);
        // Every descendant's self time plus the root's adds up to the root.
        assert_eq!(selfs.iter().sum::<u64>(), 1000);
    }

    #[test]
    fn merge_rebases_parents() {
        let a = vec![span("r", None, 0, 5), span("c", Some(0), 1, 2)];
        let b = vec![span("r", None, 0, 5), span("c", Some(0), 1, 2)];
        let m = merge(vec![a, b]);
        assert_eq!(m[3].parent, Some(2));
        assert_eq!(self_times(&m), vec![4, 1, 4, 1]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), false);
        let id = t.open("x", 0, None);
        t.close(id);
        assert!(id.is_none() && t.spans().is_empty());
    }
}
