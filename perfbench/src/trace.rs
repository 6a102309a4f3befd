//! Spans recorded around calls into each layer, kept in memory and
//! written out at the end as Chrome Trace Event JSON.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call. Times are nanoseconds since the tracer's origin.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// The compile or request this span belongs to.
    pub item: u64,
}

/// An in-memory span recorder. Spans nest by call order: a span opened
/// while another is open becomes its child.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    item: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            item: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start a new item (compile or request): later spans carry its id.
    pub fn next_item(&mut self) -> u64 {
        self.item += 1;
        self.item
    }

    /// Time `f` as a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start: 0,
            end: 0,
            parent: self.open.last().copied(),
            item: self.item,
        });
        self.open.push(idx);
        self.spans[idx].start = self.now();
        let out = f(self);
        self.spans[idx].end = self.now();
        self.open.pop();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Drop every recorded span (the origin stays).
    pub fn clear(&mut self) {
        self.spans.clear();
    }
}

/// Total length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Per-span self time: its duration minus the part of it covered by its
/// children (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| (s.end - s.start) - covered(kids, s.start, s.end))
        .collect()
}

/// Self time summed per span name, in nanoseconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0) += t;
    }
    out
}

/// Share of each root span's duration that its children cover, in
/// order, with the root's name.
pub fn root_coverage(spans: &[Span]) -> Vec<(&'static str, f64)> {
    spans
        .iter()
        .zip(self_times(spans))
        .filter(|(s, _)| s.parent.is_none())
        .map(|(s, own)| {
            let dur = (s.end - s.start).max(1) as f64;
            (s.name, 1.0 - own as f64 / dur)
        })
        .collect()
}

/// Coverage of each root across passes that repeat the same roots: its
/// best pass (a stall between two spans hits one pass, untimed work in
/// the program hits all of them). Returns the worst root's coverage, its
/// name and its index.
pub fn worst_coverage(passes: &[Vec<(&'static str, f64)>]) -> Option<(f64, &'static str, usize)> {
    let first = passes.first()?;
    (0..first.len())
        .map(|i| {
            let best = passes
                .iter()
                .filter_map(|p| p.get(i).map(|r| r.1))
                .fold(0.0f64, f64::max);
            (best, first[i].0, i)
        })
        .min_by(|a, b| a.0.total_cmp(&b.0))
}

/// Where the Chrome trace of a run's first traced pass goes.
pub fn output_path(workload: &str, seed: u64) -> std::path::PathBuf {
    std::path::Path::new(".bench_out").join(format!("trace-{workload}-{seed}.json"))
}

/// Render `spans` as a Chrome Trace Event document (complete events,
/// microsecond timestamps), which Perfetto and chrome://tracing open.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{{\"name\":\"{}\",\"cat\":\"fcc\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"item\":{}}}}}",
            s.name,
            s.start as f64 / 1e3,
            (s.end - s.start) as f64 / 1e3,
            s.item
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            item: 1,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 50, 60, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![70, 20, 10]);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two workers' spans overlap on [20, 40); the parent's covered
        // part is [10, 50), not 30 + 30.
        let spans = vec![
            span("root", 0, 100, None),
            span("w1", 10, 40, Some(0)),
            span("w2", 20, 50, Some(0)),
            span("w3", 45, 48, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 60);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![span("root", 10, 20, None), span("late", 15, 40, Some(0))];
        assert_eq!(self_times(&spans)[0], 5);
    }

    #[test]
    fn grandchildren_do_not_reduce_the_root_twice() {
        let spans = vec![
            span("root", 0, 100, None),
            span("opt", 0, 80, Some(0)),
            span("opt.dce", 10, 70, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 60]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["opt.dce"], 60);
        let cov = root_coverage(&spans);
        assert_eq!(cov.len(), 1);
        assert_eq!(cov[0].0, "root");
        assert!((cov[0].1 - 0.8).abs() < 1e-12);
    }

    #[test]
    fn coverage_takes_each_roots_best_pass() {
        // Root 0 stalls in pass one only; root 1 leaves the same gap in
        // every pass, as untimed work in the program would.
        let passes = vec![vec![("a", 0.5), ("b", 0.9)], vec![("a", 0.99), ("b", 0.91)]];
        assert_eq!(worst_coverage(&passes), Some((0.91, "b", 1)));
        assert_eq!(worst_coverage(&[]), None);
    }

    #[test]
    fn tracer_nests_by_call_order() {
        let mut t = Tracer::new();
        t.next_item();
        t.span("root", |t| {
            t.span("a", |_| ());
            t.span("b", |t| t.span("c", |_| ()));
        });
        let names: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                ("root", None),
                ("a", Some(0)),
                ("b", Some(0)),
                ("c", Some(2))
            ]
        );
        let json = chrome_json(t.spans());
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 4);
    }
}
