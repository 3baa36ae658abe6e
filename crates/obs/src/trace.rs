//! Finished traces: span events, Chrome trace-event export, text tree.

use crate::json::{self, Json, Object};
use std::fmt::Write as _;
use std::path::Path;

/// One attribute value on a span. Constructed via `From` impls so the
/// [`span!`](crate::span) macro accepts plain literals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttrValue {
    U64(u64),
    I64(i64),
    F64(f64),
    Str(&'static str),
    Bool(bool),
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}
impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        AttrValue::U64(v as u64)
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}
impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::I64(v)
    }
}
impl From<i32> for AttrValue {
    fn from(v: i32) -> Self {
        AttrValue::I64(v as i64)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::F64(v)
    }
}
impl From<&'static str> for AttrValue {
    fn from(v: &'static str) -> Self {
        AttrValue::Str(v)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}

impl Json for AttrValue {
    fn write_json(&self, out: &mut String) {
        match self {
            AttrValue::U64(v) => v.write_json(out),
            AttrValue::I64(v) => v.write_json(out),
            AttrValue::F64(v) => v.write_json(out),
            AttrValue::Str(s) => s.write_json(out),
            AttrValue::Bool(v) => v.write_json(out),
        }
    }
}

impl AttrValue {
    fn render(&self) -> String {
        match self {
            AttrValue::U64(v) => format!("{v}"),
            AttrValue::I64(v) => format!("{v}"),
            AttrValue::F64(v) => format!("{v}"),
            AttrValue::Str(s) => (*s).to_string(),
            AttrValue::Bool(v) => format!("{v}"),
        }
    }
}

/// A closed span: what [`Span`](crate::Span) records on drop.
///
/// Timestamps are nanoseconds relative to the session epoch (the
/// `Trace::collect` entry), `tid` is the logical thread (0 = session
/// thread, ≥1 = `core::par` worker index + 1), `depth` is the nesting
/// level at open time.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub depth: u32,
    pub tid: u32,
    pub attrs: Vec<(&'static str, AttrValue)>,
}

impl SpanEvent {
    /// Duration in microseconds.
    pub fn dur_us(&self) -> f64 {
        self.dur_ns as f64 / 1_000.0
    }
}

/// A finished trace: the deterministic list of span events recorded
/// during one [`Trace::collect`] session.
///
/// Events appear in close order for the session thread, with each
/// worker's buffer appended at its spawn-order position by
/// [`adopt`](crate::adopt) — no wall-clock ordering leaks in, so two
/// runs of a deterministic workload produce structurally identical
/// traces (names, counts, nesting; durations of course differ).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    pub events: Vec<SpanEvent>,
}

impl Trace {
    /// Run `f` inside a trace session and collect the spans it records.
    ///
    /// Inside a session [`timing_span!`](crate::timing_span) stage spans
    /// record at every level, even at `BDSM_OBS=off`; fine-grained
    /// [`span!`](crate::span) spans additionally require
    /// `ObsLevel::Spans`. A nested `collect` on the same thread
    /// piggybacks on the outer session and returns an empty trace.
    pub fn collect<T>(f: impl FnOnce() -> T) -> (T, Trace) {
        crate::session_collect(f)
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Number of events with this name.
    pub fn count(&self, name: &str) -> usize {
        self.events.iter().filter(|e| e.name == name).count()
    }

    /// Summed duration (µs) of all events with this name.
    pub fn total_us(&self, name: &str) -> f64 {
        self.events
            .iter()
            .filter(|e| e.name == name)
            .map(SpanEvent::dur_us)
            .sum()
    }

    /// Top-level events (depth 0 on the session thread), in time order.
    pub fn roots(&self) -> Vec<&SpanEvent> {
        let mut roots: Vec<&SpanEvent> = self
            .events
            .iter()
            .filter(|e| e.depth == 0 && e.tid == 0)
            .collect();
        roots.sort_by_key(|e| e.start_ns);
        roots
    }

    /// Summed duration (µs) per top-level span name, in first-start
    /// order — the "stage table" view of the trace.
    pub fn top_level_totals_us(&self) -> Vec<(&'static str, f64)> {
        let mut order: Vec<&'static str> = Vec::new();
        let mut totals: Vec<f64> = Vec::new();
        for e in self.roots() {
            match order.iter().position(|n| *n == e.name) {
                Some(i) => totals[i] += e.dur_us(),
                None => {
                    order.push(e.name);
                    totals.push(e.dur_us());
                }
            }
        }
        order.into_iter().zip(totals).collect()
    }

    /// Chrome trace-event JSON (the array form): load in
    /// `chrome://tracing` or <https://ui.perfetto.dev>.
    ///
    /// Each span becomes a complete (`"ph": "X"`) event with `ts`/`dur`
    /// in microseconds, `pid` 0, and the logical worker id as `tid`;
    /// attributes ride in `args`.
    pub fn to_chrome_json(&self) -> String {
        let mut sorted: Vec<&SpanEvent> = self.events.iter().collect();
        sorted.sort_by_key(|e| (e.tid, e.start_ns, std::cmp::Reverse(e.dur_ns)));
        let events: Vec<Object> = sorted
            .into_iter()
            .map(|e| {
                let event = Object::new()
                    .field("name", e.name)
                    .field("cat", "bdsm")
                    .field("ph", "X")
                    .field("pid", 0u32)
                    .field("tid", e.tid)
                    .field("ts", e.start_ns as f64 / 1_000.0)
                    .field("dur", e.dur_ns as f64 / 1_000.0);
                if e.attrs.is_empty() {
                    return event;
                }
                let args = e
                    .attrs
                    .iter()
                    .fold(Object::new(), |o, (k, v)| o.field(k, v));
                event.field("args", args)
            })
            .collect();
        json::to_string(&events)
    }

    /// Write [`Trace::to_chrome_json`] to a file.
    pub fn save_chrome(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_chrome_json())
    }

    /// Nested text rendering, one line per span, indented by depth.
    ///
    /// Worker-thread spans are tagged `[tN]`. Events are ordered by
    /// (tid, start time) so each thread reads top-to-bottom.
    pub fn render_tree(&self) -> String {
        let mut sorted: Vec<&SpanEvent> = self.events.iter().collect();
        sorted.sort_by_key(|e| (e.tid, e.start_ns, std::cmp::Reverse(e.dur_ns)));
        let mut out = String::new();
        for e in sorted {
            for _ in 0..e.depth {
                out.push_str("  ");
            }
            let _ = write!(out, "{} {:.1}us", e.name, e.dur_us());
            if e.tid != 0 {
                let _ = write!(out, " [t{}]", e.tid);
            }
            for (k, v) in &e.attrs {
                let _ = write!(out, " {k}={}", v.render());
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(
        name: &'static str,
        start_ns: u64,
        dur_ns: u64,
        depth: u32,
        tid: u32,
        attrs: Vec<(&'static str, AttrValue)>,
    ) -> SpanEvent {
        SpanEvent {
            name,
            start_ns,
            dur_ns,
            depth,
            tid,
            attrs,
        }
    }

    fn sample() -> Trace {
        Trace {
            events: vec![
                ev("leaf", 100, 4_000, 1, 0, vec![("idx", AttrValue::U64(0))]),
                ev(
                    "stage.a",
                    0,
                    10_000,
                    0,
                    0,
                    vec![("label", AttrValue::Str("x\"y"))],
                ),
                ev(
                    "work",
                    2_000,
                    3_000,
                    1,
                    1,
                    vec![("ok", AttrValue::Bool(true))],
                ),
                ev("stage.a", 12_000, 2_000, 0, 0, vec![]),
                ev(
                    "stage.b",
                    15_000,
                    1_000,
                    0,
                    0,
                    vec![("r", AttrValue::F64(0.5))],
                ),
            ],
        }
    }

    #[test]
    fn totals_counts_roots() {
        let t = sample();
        assert_eq!(t.count("stage.a"), 2);
        assert!((t.total_us("stage.a") - 12.0).abs() < 1e-12);
        let roots: Vec<&str> = t.roots().iter().map(|e| e.name).collect();
        assert_eq!(roots, vec!["stage.a", "stage.a", "stage.b"]);
        let tops = t.top_level_totals_us();
        assert_eq!(tops.len(), 2);
        assert_eq!(tops[0].0, "stage.a");
        assert!((tops[0].1 - 12.0).abs() < 1e-12);
        assert!((tops[1].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn chrome_json_shape() {
        let json = sample().to_chrome_json();
        assert!(json.starts_with("[{"));
        assert!(json.ends_with("}]"));
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"ts\": 0e0"));
        assert!(json.contains("\"dur\": 1e1"));
        // String attr escaping.
        assert!(json.contains("\"label\": \"x\\\"y\""));
        assert!(json.contains("\"ok\": true"));
        // Events sorted by (tid, start): worker event last.
        let worker_pos = json.find("\"tid\": 1").unwrap();
        let stage_pos = json.rfind("stage.b").unwrap();
        assert!(worker_pos > stage_pos);
        // Every event object present.
        assert_eq!(json.matches("\"ph\": \"X\"").count(), 5);
    }

    #[test]
    fn tree_render_indents_and_tags() {
        let txt = sample().render_tree();
        let lines: Vec<&str> = txt.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[0].starts_with("stage.a 10.0us"));
        assert!(lines[1].starts_with("  leaf"));
        assert!(lines[4].contains("[t1]"));
        assert!(lines[4].contains("ok=true"));
    }
}
