//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own call sites only — around the
//! calls *into* each layer — kept in memory, and written as Chrome
//! `trace_event` JSON when the run ends. A disabled recorder does nothing,
//! which is what the untraced half of the `trace.bench_overhead_ratio`
//! pair runs with.

use crate::json::escape;
use std::time::Instant;

struct Span {
    name: &'static str,
    /// Pre-rendered JSON members (`"k": v, ...`) describing the span.
    args: String,
    parent: Option<usize>,
    start_us: f64,
    dur_us: f64,
}

/// Handle returned by [`Recorder::enter`]; pass it back to
/// [`Recorder::exit`].
#[derive(Clone, Copy)]
pub struct SpanId(Option<usize>);

/// Records a tree of timed spans on one thread.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// While false, `enter`/`exit` record nothing.
    pub enabled: bool,
}

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn new(enabled: bool) -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            enabled,
        }
    }

    /// Open a span under the innermost open one. `args` is a list of JSON
    /// members without the braces, e.g. `"rep": 2`.
    pub fn enter(&mut self, name: &'static str, args: String) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            args,
            parent: self.open.last().copied(),
            start_us: self.epoch.elapsed().as_secs_f64() * 1e6,
            dur_us: 0.0,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Close a span (a no-op for one opened while recording was off).
    ///
    /// # Panics
    /// If spans are closed out of order — a bug in the caller.
    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        assert_eq!(self.open.pop(), Some(id), "spans must nest");
        let now = self.epoch.elapsed().as_secs_f64() * 1e6;
        let s = &mut self.spans[id];
        s.dur_us = now - s.start_us;
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The spans as a Chrome `trace_event` document (complete `X` events
    /// on one track; each carries its own id and its parent's). `manifest`
    /// is a JSON object stored under `otherData`.
    pub fn to_chrome_json(&self, manifest: &str) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if s.args.is_empty() { "" } else { ", " };
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
                 \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"args\": {{\"id\": {id}, \"parent\": {parent}{sep}{}}}}}{}\n",
                escape(s.name),
                s.start_us,
                s.dur_us,
                s.args,
                if id + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        out.push_str(&format!(
            "], \"displayTimeUnit\": \"ms\", \"otherData\": {manifest}}}\n"
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    #[test]
    fn spans_nest_and_export_as_valid_json() {
        let mut r = Recorder::new(true);
        let a = r.enter("outer", String::new());
        let b = r.enter("inner", "\"rep\": 1".into());
        r.exit(b);
        r.exit(a);
        let doc = parse(&r.to_chrome_json("{\"seed\": 3}")).expect("valid JSON");
        let ev = doc.get("traceEvents").and_then(Value::as_arr).unwrap();
        assert_eq!(ev.len(), 2);
        let inner_args = ev[1].get("args").unwrap();
        assert_eq!(inner_args.get("parent").and_then(Value::as_f64), Some(0.0));
        assert_eq!(inner_args.get("rep").and_then(Value::as_f64), Some(1.0));
        assert_eq!(ev[0].get("args").unwrap().get("parent"), Some(&Value::Null));
        assert_eq!(
            doc.get("otherData")
                .and_then(|m| m.get("seed"))
                .and_then(Value::as_f64),
            Some(3.0)
        );
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        let a = r.enter("x", String::new());
        r.exit(a);
        assert!(r.is_empty());
    }
}
