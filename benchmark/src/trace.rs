//! In-memory spans recorded by the harness around calls into each layer.
//!
//! A [`Tracer`] always reads the clock — the harness needs phase
//! durations for the end-to-end metrics too — but keeps spans only when
//! it is on, so an untraced rep stores nothing. Spans nest by a stack:
//! the span open when another begins is its parent. A layer's self time
//! is its span minus the part its children cover.

use raccd_obs::json::Obj;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub rep: u32,
    /// Work items the span covered (steps, refs, bytes); 0 when none.
    pub units: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A begun span; hand it back to [`Tracer::end`].
pub struct Open {
    idx: Option<usize>,
    start: Instant,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    rep: u32,
}

/// Totals of all spans sharing a name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Total {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub units: u64,
}

impl Total {
    pub fn secs(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }

    /// Nanoseconds per work item (0 when the span covered none).
    pub fn ns_per_unit(&self) -> f64 {
        if self.units == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.units as f64
        }
    }
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            rep: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Spans begun from now on belong to rep `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let idx = self.on.then(|| {
            let at = start.duration_since(self.origin).as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns: at,
                end_ns: at,
                parent: self.stack.last().copied(),
                rep: self.rep,
                units: 0,
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { idx, start }
    }

    /// Close the span; returns its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        self.end_units(open, 0)
    }

    /// [`Tracer::end`], noting the work items covered.
    pub fn end_units(&mut self, open: Open, units: u64) -> f64 {
        let dur = open.start.elapsed();
        if let Some(idx) = open.idx {
            let popped = self.stack.pop();
            assert_eq!(popped, Some(idx), "spans must close innermost first");
            let s = &mut self.spans[idx];
            s.end_ns = s.start_ns + dur.as_nanos() as u64;
            s.units = units;
        }
        dur.as_secs_f64()
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its direct children's.
    pub fn self_ns(&self) -> Vec<u64> {
        self_times(&self.spans)
    }

    /// Per-name totals over the spans of `rep` (`None`: every rep).
    pub fn totals(&self, rep: Option<u32>) -> BTreeMap<&'static str, Total> {
        let selfs = self.self_ns();
        let mut out: BTreeMap<&'static str, Total> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            if rep.is_some_and(|r| r != s.rep) {
                continue;
            }
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += self_ns;
            t.units += s.units;
        }
        out
    }

    /// Write one JSON object per span, in begin order.
    pub fn write_jsonl(&self, w: &mut impl Write) -> std::io::Result<()> {
        let selfs = self.self_ns();
        for (i, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let mut o = Obj::new()
                .u64("id", i as u64)
                .str("name", s.name)
                .u64("start_ns", s.start_ns)
                .u64("end_ns", s.end_ns);
            o = match s.parent {
                Some(p) => o.u64("parent", p as u64),
                None => o.raw("parent", "null"),
            };
            o = o
                .u64("rep", s.rep as u64)
                .u64("units", s.units)
                .u64("self_ns", self_ns);
            writeln!(w, "{}", o.render())?;
        }
        Ok(())
    }
}

pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut selfs: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            selfs[p] = selfs[p].saturating_sub(s.dur_ns());
        }
    }
    selfs
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
            rep: 0,
            units: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("rep", 0, 100, None),
            span("build", 10, 30, Some(0)),
            span("sim", 30, 90, Some(0)),
            span("step", 40, 60, Some(2)),
            span("step", 60, 85, Some(2)),
        ];
        // rep: 100 - 20 - 60; sim: 60 - 20 - 25; leaves keep their whole.
        assert_eq!(self_times(&spans), vec![20, 20, 15, 20, 25]);
    }

    #[test]
    fn nesting_follows_the_open_stack() {
        let mut tr = Tracer::new(true);
        let outer = tr.begin("outer");
        let a = tr.begin("inner");
        tr.end_units(a, 7);
        tr.set_rep(1);
        let b = tr.begin("inner");
        tr.end_units(b, 5);
        tr.end(outer);
        let s = tr.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert!(s[0].dur_ns() >= s[1].dur_ns() + s[2].dur_ns());
        let all = tr.totals(None);
        assert_eq!(all["inner"].count, 2);
        assert_eq!(all["inner"].units, 12);
        assert_eq!(
            all["outer"].self_ns,
            s[0].dur_ns() - s[1].dur_ns() - s[2].dur_ns()
        );
        assert_eq!(tr.totals(Some(1))["inner"].units, 5);
    }

    #[test]
    fn an_off_tracer_times_but_stores_nothing() {
        let mut tr = Tracer::new(false);
        let o = tr.begin("x");
        assert!(tr.end(o) >= 0.0);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn jsonl_lines_parse_back() {
        let mut tr = Tracer::new(true);
        let outer = tr.begin("outer");
        let a = tr.begin("inner");
        tr.end_units(a, 3);
        tr.end(outer);
        let mut buf = Vec::new();
        tr.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let v = raccd_obs::json::parse(lines[1]).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("inner"));
        assert_eq!(v.get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(v.get("units").unwrap().as_f64(), Some(3.0));
    }
}
