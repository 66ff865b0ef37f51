//! Benchmark-side spans: timers the benchmark wraps around each call it
//! makes into a layer's public functions, kept in memory and written out
//! when the run ends. The program itself is not instrumented further;
//! spans it already records into an enabled `Collector` are imported
//! under the benchmark span that made the call.
//!
//! A span's name is `<layer>.<what>`; `op.<kind>` spans are the roots,
//! one per operation. A layer's self time is its spans' durations minus
//! the part their child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use csp_core::Collector;

#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

/// An open span; hand it back to [`Tracer::close`].
#[must_use]
pub struct Guard(Option<usize>);

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Self {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off (between operations, with no span open).
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.open.is_empty());
        self.on = on;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Now, on this tracer's clock.
    pub fn now_ns(&self) -> u64 {
        self.ns(Instant::now())
    }

    /// Adds a child `name` covering `[start_ns, end_ns]` to the innermost
    /// open span: time measured elsewhere (a server's own timing header).
    pub fn push_child(&mut self, name: &str, start_ns: u64, end_ns: u64) {
        if let Some(&parent) = self.open.last() {
            self.spans.push(SpanRec {
                name: name.to_string(),
                parent: Some(parent),
                start_ns,
                end_ns,
            });
        }
    }

    /// The start of the innermost open span.
    pub fn open_start_ns(&self) -> u64 {
        self.open.last().map_or(0, |&i| self.spans[i].start_ns)
    }

    pub fn open(&mut self, name: &str) -> Guard {
        if !self.on {
            return Guard(None);
        }
        let start_ns = self.ns(Instant::now());
        self.spans.push(SpanRec {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
        Guard(Some(self.spans.len() - 1))
    }

    pub fn close(&mut self, guard: Guard) {
        if let Some(i) = guard.0 {
            self.spans[i].end_ns = self.ns(Instant::now());
            let top = self.open.pop();
            debug_assert_eq!(top, Some(i), "spans close in stack order");
        }
    }

    /// A collector for one traced call into the program, and the instant
    /// its clock starts from (for [`Tracer::import`]).
    pub fn collector(&self) -> (Collector, Instant) {
        if !self.on {
            return (Collector::disabled(), self.epoch);
        }
        let c = Collector::new();
        (c, Instant::now())
    }

    /// Imports the program's spans named in `names` (program name →
    /// benchmark name) from `collector`, whose clock started at `at`,
    /// as children of the innermost open span.
    pub fn import(&mut self, collector: &Collector, at: Instant, names: &[(&str, &str)]) {
        if !self.on {
            return;
        }
        let base = self.ns(at);
        let parent = self.open.last().copied();
        for rec in collector.records() {
            if let Some((_, ours)) = names.iter().find(|(theirs, _)| *theirs == rec.name) {
                self.spans.push(SpanRec {
                    name: (*ours).to_string(),
                    parent,
                    start_ns: base + rec.start_ns,
                    end_ns: base + rec.end_ns,
                });
            }
        }
    }

    /// Adds a child `name` to the innermost open span, covering the time
    /// from that span's start to the start of its child `until` (or to
    /// now, when there is no such child): work a traced call does before
    /// it opens its own first span.
    pub fn lead_in(&mut self, name: &str, until: &str) {
        let Some(&parent) = self.open.last() else {
            return;
        };
        let end_ns = self.spans[parent..]
            .iter()
            .find(|s| s.parent == Some(parent) && s.name == until)
            .map_or_else(|| self.ns(Instant::now()), |s| s.start_ns);
        self.spans.push(SpanRec {
            name: name.to_string(),
            parent: Some(parent),
            start_ns: self.spans[parent].start_ns,
            end_ns,
        });
    }

    /// Moves another tracer's spans (same epoch) into this one.
    pub fn absorb(&mut self, other: Tracer) {
        let off = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + off);
            s
        }));
    }

    fn children_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur();
            }
        }
        covered
    }

    /// Per span name: (calls, total ns).
    pub fn busy(&self) -> BTreeMap<String, (u64, u64)> {
        let mut m: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let e = m.entry(s.name.clone()).or_default();
            e.0 += 1;
            e.1 += s.dur();
        }
        m
    }

    /// Per layer: self time in ns (duration minus children), over every
    /// span but the `op.*` roots.
    pub fn self_ns(&self) -> BTreeMap<String, u64> {
        let covered = self.children_ns();
        let mut m: BTreeMap<String, u64> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&covered) {
            if s.layer() != "op" {
                *m.entry(s.layer().to_string()).or_default() += s.dur().saturating_sub(*c);
            }
        }
        m
    }

    /// Per operation kind: the share of the `op.<kind>` spans' time that
    /// their child (layer) spans cover.
    pub fn coverage(&self) -> BTreeMap<String, f64> {
        let covered = self.children_ns();
        let mut sums: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&covered) {
            if s.parent.is_none() && s.layer() == "op" {
                let e = sums.entry(s.name["op.".len()..].to_string()).or_default();
                e.0 += (*c).min(s.dur());
                e.1 += s.dur();
            }
        }
        sums.into_iter()
            .map(|(k, (c, t))| (k, crate::stats::ratio(c as f64, t as f64)))
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, w: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"parent\":{parent},\"name\":{:?},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_coverage_counts_them() {
        let mut t = Tracer::new(true, Instant::now());
        let op = t.open("op.check");
        let layer = t.open("verify.sat");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.close(layer);
        t.close(op);
        let cov = t.coverage();
        assert!(cov["check"] > 0.5 && cov["check"] <= 1.0, "{cov:?}");
        let selfs = t.self_ns();
        assert!(selfs["verify"] >= 2_000_000);
        assert!(!selfs.contains_key("op"));
        assert_eq!(t.busy()["verify.sat"].0, 1);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let g = t.open("op.check");
        t.close(g);
        assert!(t.busy().is_empty());
    }
}
