//! The harness's own spans: name, start, end and the span that caused it.
//!
//! Spans wrap the calls *into* the program (`EdgeNetwork::new`, `run()`,
//! every drill) and are kept in memory until the harness writes
//! `trace.jsonl` at exit. Spans inside the program are a later change.

use crate::record::Record;
use std::time::Instant;

/// One closed span. Times are microseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Recorder-local id, from 1.
    pub id: u64,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u64,
    /// What was measured.
    pub name: String,
    /// Start, µs since the epoch.
    pub start_us: u64,
    /// End, µs since the epoch.
    pub end_us: u64,
}

impl Span {
    /// The span as one `trace.jsonl` line.
    pub fn to_record(&self) -> Record {
        let mut r = Record::new();
        r.text("kind", "span")
            .num("id", self.id as f64)
            .num("parent", self.parent as f64)
            .text("name", self.name.clone())
            .num("start_us", self.start_us as f64)
            .num("end_us", self.end_us as f64);
        r
    }

    /// Reads a span back from a record; `None` when it is not one.
    pub fn from_record(r: &Record) -> Option<Span> {
        if r.get_text("kind") != Some("span") {
            return None;
        }
        Some(Span {
            id: r.get_num("id")? as u64,
            parent: r.get_num("parent")? as u64,
            name: r.get_text("name")?.to_string(),
            start_us: r.get_num("start_us")? as u64,
            end_us: r.get_num("end_us")? as u64,
        })
    }
}

/// In-memory span recorder for one process.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    open: Vec<u64>,
    done: Vec<Span>,
    next_id: u64,
}

impl Spans {
    /// A recorder whose clock starts at `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Spans {
            epoch,
            open: Vec::new(),
            done: Vec::new(),
            next_id: 1,
        }
    }

    /// Microseconds since the epoch.
    pub fn clock_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the span that is
    /// open now, and returns `f`'s value with the span's duration in
    /// seconds.
    pub fn scope<R>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> R) -> (R, f64) {
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.open.last().copied().unwrap_or(0);
        let start_us = self.clock_us();
        let start = Instant::now();
        self.open.push(id);
        let out = f(self);
        let secs = start.elapsed().as_secs_f64();
        self.open.pop();
        self.done.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_us,
            end_us: self.clock_us(),
        });
        (out, secs)
    }

    /// Adopts spans recorded by a child process whose clock started
    /// `offset_us` after this recorder's epoch: ids are shifted past the
    /// ones in use and the child's roots hang under the open span.
    pub fn adopt(&mut self, child: Vec<Span>, offset_us: u64) {
        let base = self.next_id - 1;
        let parent = self.open.last().copied().unwrap_or(0);
        let mut top = base;
        for s in child {
            top = top.max(base + s.id);
            self.done.push(Span {
                id: base + s.id,
                parent: if s.parent == 0 {
                    parent
                } else {
                    base + s.parent
                },
                name: s.name,
                start_us: s.start_us + offset_us,
                end_us: s.end_us + offset_us,
            });
        }
        self.next_id = top + 1;
    }

    /// Every closed span, in closing order.
    pub fn finished(&self) -> &[Span] {
        &self.done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scopes_nest_and_round_trip() {
        let mut spans = Spans::new(Instant::now());
        let ((), _) = spans.scope("outer", |s| {
            s.scope("inner", |_| ());
        });
        let done = spans.finished();
        assert_eq!(done.len(), 2);
        let (inner, outer) = (&done[0], &done[1]);
        assert_eq!(
            (inner.name.as_str(), outer.name.as_str()),
            ("inner", "outer")
        );
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert!(outer.start_us <= inner.start_us && inner.end_us <= outer.end_us);
        for s in done {
            assert_eq!(Span::from_record(&s.to_record()).as_ref(), Some(s));
        }
    }

    #[test]
    fn adopted_spans_keep_their_tree_under_the_open_span() {
        let mut child = Spans::new(Instant::now());
        child.scope("run", |s| {
            s.scope("drill", |_| ());
        });
        let mut parent = Spans::new(Instant::now());
        parent.scope("child", |p| p.adopt(child.finished().to_vec(), 1_000));
        let done = parent.finished();
        let root = done.iter().find(|s| s.name == "child").unwrap();
        let run = done.iter().find(|s| s.name == "run").unwrap();
        let drill = done.iter().find(|s| s.name == "drill").unwrap();
        assert_eq!(run.parent, root.id);
        assert_eq!(drill.parent, run.id);
        assert!(run.start_us >= 1_000);
        let mut ids: Vec<u64> = done.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 3, "ids stay unique after adoption");
    }
}
