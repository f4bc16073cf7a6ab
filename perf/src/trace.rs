//! Spans: what the traced run records around the benchmark's own calls
//! into each layer, kept in memory and written out at the end.

use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use crate::json::{num, obj, text, to_line};

/// One timed interval. `parent` is the id of the span that caused it
/// (0 for a root); spans of one request, datagram or job share
/// `request`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An in-memory span log with its own clock.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer was made.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its id (ids start at 1).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            name,
            id,
            parent,
            request,
            start_ns,
            end_ns,
        });
        id
    }

    /// Reserves a span whose end is not known yet; close it with
    /// [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: u64, request: u64) -> u64 {
        let now = self.now();
        self.record(name, parent, request, now, now)
    }

    pub fn close(&mut self, id: u64) {
        let now = self.now();
        self.spans[id as usize - 1].end_ns = now;
    }

    pub fn span(&self, id: u64) -> &Span {
        &self.spans[id as usize - 1]
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> Result<(), String> {
        let fail = |e: std::io::Error| format!("{}: {e}", path.display());
        let mut out = BufWriter::new(std::fs::File::create(path).map_err(fail)?);
        for s in &self.spans {
            let line = to_line(&obj(vec![
                ("name", text(s.name)),
                ("id", num(s.id as f64)),
                ("parent", num(s.parent as f64)),
                ("request", num(s.request as f64)),
                ("start_ns", num(s.start_ns as f64)),
                ("end_ns", num(s.end_ns as f64)),
            ]));
            writeln!(out, "{line}").map_err(fail)?;
        }
        out.flush().map_err(fail)
    }
}

/// How much of `[start, end)` the intervals cover, overlaps counted
/// once.
fn covered(start: u64, end: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for (lo, hi) in intervals {
        let lo = lo.max(reach);
        let hi = hi.min(end);
        if hi > lo {
            total += hi - lo;
            reach = hi;
        }
    }
    total
}

/// Self time and count per span name: a span's duration minus the part
/// of its interval its direct children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut by_name: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let inside = children
            .remove(&s.id)
            .map_or(0, |kids| covered(s.start_ns, s.end_ns, kids));
        let entry = by_name.entry(s.name).or_default();
        entry.0 += (s.end_ns - s.start_ns).saturating_sub(inside);
        entry.1 += 1;
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let mut t = Tracer::new();
        // request [0, 100): recv [0, 30), decode [30, 50), a gap, then
        // send [70, 100); decode has a child checksum [35, 45).
        let root = t.record("request", 0, 7, 0, 100);
        t.record("recv", root, 7, 0, 30);
        let decode = t.record("decode", root, 7, 30, 50);
        t.record("checksum", decode, 7, 35, 45);
        t.record("send", root, 7, 70, 100);
        let times = self_times(t.spans());
        assert_eq!(times["request"], (20, 1)); // the gap [50, 70)
        assert_eq!(times["recv"], (30, 1));
        assert_eq!(times["decode"], (10, 1));
        assert_eq!(times["checksum"], (10, 1));
        assert_eq!(times["send"], (30, 1));
        let total: u64 = times.values().map(|v| v.0).sum();
        assert_eq!(total, 100, "self times add up to the root's duration");
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let mut t = Tracer::new();
        let root = t.record("root", 0, 1, 10, 110);
        t.record("a", root, 1, 20, 60);
        t.record("a", root, 1, 40, 80); // overlaps the first by 20
        t.record("b", root, 1, 100, 130); // hangs over the end by 20
        let times = self_times(t.spans());
        // Covered: [20, 80) and [100, 110) = 70 of 100.
        assert_eq!(times["root"], (30, 1));
        assert_eq!(times["a"], (80, 2));
        assert_eq!(times["b"], (30, 1));
    }

    #[test]
    fn open_and_close_bracket_real_time() {
        let mut t = Tracer::new();
        let id = t.open("work", 0, 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.close(id);
        let s = t.span(id);
        assert!(s.end_ns - s.start_ns >= 2_000_000);
    }
}
