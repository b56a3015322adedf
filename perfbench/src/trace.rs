//! In-memory spans recorded by the benchmark around its calls into each
//! layer, and the total/self/count table derived from them.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the run's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer call name, e.g. `core.gk_encrypt`.
    pub name: String,
    /// Start.
    pub start_ns: u64,
    /// End.
    pub end_ns: u64,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
    /// The benchmark, job or request the span belongs to.
    pub id: String,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when on; when off every method is a pass-through, so the
/// untraced runs pay one branch per layer call.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch`.
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// True when spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &str, id: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let ix = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            id: id.to_string(),
        });
        self.stack.push(ix);
        let out = f(self);
        self.stack.pop();
        self.spans[ix].end_ns = self.now_ns();
        out
    }

    /// Records an already-measured span under the innermost open span.
    pub fn record(&mut self, name: &str, id: &str, start: Instant, end: Instant) {
        if self.on {
            let span = Span {
                name: name.to_string(),
                start_ns: self.at(start),
                end_ns: self.at(end),
                parent: self.stack.last().copied(),
                id: id.to_string(),
            };
            self.spans.push(span);
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.at(Instant::now())
    }

    fn at(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children are counted once, and a
/// child running past its parent is clipped).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// One row of the per-layer table.
#[derive(Clone, Debug, PartialEq)]
pub struct LayerRow {
    /// Span (or obs-derived) name.
    pub name: String,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
    /// Number of calls.
    pub calls: u64,
}

/// Groups spans by name: total, self and call count per layer call,
/// heaviest self time first.
pub fn layer_table(spans: &[Span]) -> Vec<LayerRow> {
    let selfs = self_times(spans);
    let mut by_name: BTreeMap<&str, LayerRow> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let row = by_name.entry(&s.name).or_insert_with(|| LayerRow {
            name: s.name.clone(),
            total_ns: 0,
            self_ns: 0,
            calls: 0,
        });
        row.total_ns += s.dur_ns();
        row.self_ns += own;
        row.calls += 1;
    }
    let mut rows: Vec<LayerRow> = by_name.into_values().collect();
    rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(&b.name)));
    rows
}

/// Summed duration (ns) of the spans named `name`.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            id: String::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_children() {
        let spans = [
            span("pass", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 70, Some(0)),
            span("c", 45, 50, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 25, 5]);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        let spans = [
            span("pass", 0, 100, None),
            span("w", 10, 60, Some(0)),
            span("w", 40, 90, Some(0)),
            span("late", 95, 120, Some(0)),
        ];
        // Covered: [10, 90) and the clipped [95, 100).
        assert_eq!(self_times(&spans)[0], 15);
    }

    #[test]
    fn layer_table_groups_by_name() {
        let spans = [
            span("pass", 0, 100, None),
            span("a", 0, 30, Some(0)),
            span("a", 50, 60, Some(0)),
        ];
        let rows = layer_table(&spans);
        assert_eq!(rows[0].name, "pass");
        assert_eq!(
            (rows[0].total_ns, rows[0].self_ns, rows[0].calls),
            (100, 60, 1)
        );
        assert_eq!(
            (rows[1].total_ns, rows[1].self_ns, rows[1].calls),
            (40, 40, 2)
        );
        assert_eq!(total_ns(&spans, "a"), 40);
    }

    #[test]
    fn tracer_nests_spans() {
        let epoch = Instant::now();
        let mut t = Tracer::new(true, epoch);
        t.span("outer", "x", |t| {
            t.span("inner", "y", |t| t.span("innermost", "z", |_| ()));
            t.record("recorded", "w", Instant::now(), Instant::now());
        });
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(1));
        assert_eq!(
            s[3].parent,
            Some(0),
            "a recorded span hangs under the open span"
        );
        let mut off = Tracer::new(false, epoch);
        assert_eq!(off.span("a", "", |_| 7), 7);
        assert!(off.spans().is_empty());
    }
}
