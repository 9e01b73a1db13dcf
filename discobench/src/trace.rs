//! Benchmark-side span recorder.
//!
//! Library crates never read a clock, so the per-layer breakdown comes from
//! spans the benchmark records around its calls into each layer (see
//! `layers.rs`). Spans live in a per-thread buffer: name, start, end, the
//! span that was open when it started (its parent) and the discovery it
//! belongs to. A layer's *self time* is its span minus the part of that
//! interval its child spans cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span; times are nanoseconds since a process-wide epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span within the same discovery, or
    /// [`NO_PARENT`].
    pub parent: u32,
    pub discovery: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[derive(Default)]
struct Recorder {
    active: bool,
    discovery: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Closes its span when dropped.
#[must_use]
pub struct SpanGuard {
    idx: u32,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let end = now_ns();
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            r.spans[self.idx as usize].end_ns = end;
            r.stack.pop();
        });
    }
}

/// Opens a span named `name`, or does nothing (and reads no clock) when
/// the current discovery is untraced.
pub fn span(name: &'static str) -> Option<SpanGuard> {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.active {
            return None;
        }
        let idx = r.spans.len() as u32;
        let parent = r.stack.last().copied().unwrap_or(NO_PARENT);
        let discovery = r.discovery;
        let start = now_ns();
        r.spans.push(Span {
            name,
            start_ns: start,
            end_ns: start,
            parent,
            discovery,
        });
        r.stack.push(idx);
        Some(SpanGuard { idx })
    })
}

/// Starts recording the spans of discovery `id` on this thread (or turns
/// recording off for an untraced discovery).
pub fn begin_discovery(id: u32, traced: bool) {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.active = traced;
        r.discovery = id;
        r.spans.clear();
        r.stack.clear();
    });
}

/// Stops recording and hands back the discovery's spans.
pub fn end_discovery() -> Vec<Span> {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.active = false;
        std::mem::take(&mut r.spans)
    })
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            children[s.parent as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut run: Option<(u64, u64)> = None;
            for (a, b) in kids {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if b <= a {
                    continue;
                }
                run = match run {
                    Some((ra, rb)) if a <= rb => Some((ra, rb.max(b))),
                    Some((ra, rb)) => {
                        covered += rb - ra;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ra, rb)) = run {
                covered += rb - ra;
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Per-layer totals of one traced discovery.
#[derive(Debug, Clone, Default)]
pub struct LayerTimes {
    /// Summed self time per span name.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Duration of every span per name.
    pub durations: BTreeMap<&'static str, Vec<u64>>,
}

impl LayerTimes {
    pub fn of(spans: &[Span]) -> Self {
        let mut out = LayerTimes::default();
        for (s, own) in spans.iter().zip(self_times(spans)) {
            *out.self_ns.entry(s.name).or_default() += own;
            out.durations
                .entry(s.name)
                .or_default()
                .push(s.duration_ns());
        }
        out
    }

    pub fn self_ns(&self, name: &str) -> u64 {
        self.self_ns.get(name).copied().unwrap_or(0)
    }
}

/// Renders spans as tab-separated lines (one header line first).
pub fn to_tsv(spans: &[Span]) -> String {
    let mut out = String::from("discovery\tindex\tparent\tname\tstart_ns\tend_ns\tself_ns\n");
    let mut begin = 0;
    while begin < spans.len() {
        let d = spans[begin].discovery;
        let end = begin
            + spans[begin..]
                .iter()
                .take_while(|s| s.discovery == d)
                .count();
        let group = &spans[begin..end];
        for (i, (s, own)) in group.iter().zip(self_times(group)).enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{}\t{i}\t{parent}\t{}\t{}\t{}\t{own}",
                s.discovery, s.name, s.start_ns, s.end_ns
            );
        }
        begin = end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            discovery: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0,100) ⊃ step [10,60) ⊃ {plan [12,20), engine [20,50)},
        // root ⊃ verify [70,90).
        let spans = [
            sp("discovery", 0, 100, NO_PARENT),
            sp("driver.step", 10, 60, 0),
            sp("machine.next_plan", 12, 20, 1),
            sp("engine.run_plan", 20, 50, 1),
            sp("verify", 70, 90, 0),
        ];
        assert_eq!(self_times(&spans), vec![30, 12, 8, 30, 20]);
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, 100, "self times tile the root span");
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            sp("root", 0, 100, NO_PARENT),
            sp("a", 10, 40, 0),
            sp("b", 30, 50, 0),   // overlaps a: union [10,50)
            sp("c", 90, 120, 0),  // hangs past the root: clipped to [90,100)
            sp("d", 200, 300, 0), // outside the root entirely
        ];
        assert_eq!(self_times(&spans)[0], 100 - 40 - 10);
    }

    #[test]
    fn layer_times_aggregate_by_name() {
        let spans = [
            sp("discovery", 0, 100, NO_PARENT),
            sp("driver.step", 0, 40, 0),
            sp("engine.run_plan", 5, 25, 1),
            sp("driver.step", 50, 90, 0),
            sp("engine.run_plan", 55, 85, 3),
        ];
        let t = LayerTimes::of(&spans);
        assert_eq!(t.self_ns("discovery"), 20);
        assert_eq!(t.self_ns("driver.step"), 30);
        assert_eq!(t.self_ns("engine.run_plan"), 50);
        assert_eq!(t.durations["driver.step"].len(), 2);
        assert_eq!(t.durations["engine.run_plan"], vec![20, 30]);
    }

    #[test]
    fn recorder_nests_and_is_silent_when_untraced() {
        begin_discovery(7, false);
        {
            let _g = span("x");
        }
        assert!(end_discovery().is_empty());

        begin_discovery(8, true);
        {
            let _outer = span("outer");
            let _inner = span("inner");
        }
        let spans = end_discovery();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert!(spans.iter().all(|s| s.discovery == 8));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(to_tsv(&spans).lines().count() == 3);
    }
}
