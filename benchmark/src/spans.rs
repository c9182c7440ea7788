//! Spans around the calls into each layer, recorded from outside.
//!
//! Spans are kept in memory and written once, when the run ends. Every
//! timing the benchmark reports is the duration of a span, so the traced
//! and the untraced run measure the same intervals; the untraced run just
//! does not keep them. Span times are nanoseconds of the system clock, so
//! that the spans of the processes of one run share a time line.

use serde_json::{json, Value};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

pub struct Spans {
    epoch: Instant,
    epoch_unix_ns: u64,
    /// Whether spans are kept (the traced run) or only timed.
    pub keep: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(keep: bool) -> Spans {
        Spans {
            epoch: Instant::now(),
            epoch_unix_ns: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map_or(0, |d| d.as_nanos() as u64),
            keep,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` as a span named `name`, a child of the span that is open
    /// when it starts; returns `f`'s result and the span's duration.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> T) -> (T, Duration) {
        let id = self.keep.then(|| {
            self.spans.push(Span {
                name: name.to_string(),
                start_ns: 0,
                end_ns: 0,
                parent: self.open.last().copied(),
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let start = Instant::now();
        let out = f(self);
        let took = start.elapsed();
        if let Some(id) = id {
            let start_ns = self.epoch_unix_ns + (start - self.epoch).as_nanos() as u64;
            self.spans[id].start_ns = start_ns;
            self.spans[id].end_ns = start_ns + took.as_nanos() as u64;
            self.open.pop();
        }
        (out, took)
    }

    /// Take over the spans another process of this run recorded, as
    /// descendants of the span that is open now.
    pub fn adopt(&mut self, theirs: &Value) {
        let (Value::Array(theirs), true) = (theirs, self.keep) else {
            return;
        };
        let base = self.spans.len();
        let under = self.open.last().copied();
        for s in theirs {
            self.spans.push(Span {
                name: s["name"].as_str().unwrap_or("?").to_string(),
                start_ns: s["start_ns"].as_u64().unwrap_or(0),
                end_ns: s["end_ns"].as_u64().unwrap_or(0),
                parent: s["parent"].as_u64().map(|p| base + p as usize).or(under),
            });
        }
    }

    /// Seconds since the recorder was made.
    pub fn elapsed_s(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Every kept span with its self time: its duration minus the part
    /// its children cover.
    pub fn to_json(&self, workload: &str) -> Value {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let spans: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                json!({
                    "id": id,
                    "workload": workload,
                    "name": s.name,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "parent": s.parent,
                    "self_ns": (s.end_ns - s.start_ns).saturating_sub(child_ns[id]),
                })
            })
            .collect();
        Value::Array(spans)
    }
}
