//! Zero-cost observability for the BDSM pipeline.
//!
//! Three pieces, all dependency-free:
//!
//! * **Hierarchical span tracing** — RAII spans ([`span!`] /
//!   [`timing_span!`]) record monotonic start/duration plus key/value
//!   attributes into a per-thread buffer. Worker buffers from
//!   `core::par` are merged back in spawn order, so the final event
//!   list is deterministic for a deterministic workload. A finished
//!   [`Trace`] exports as Chrome trace-event JSON
//!   ([`Trace::save_chrome`], viewable in `chrome://tracing` or
//!   Perfetto) or as a nested text tree ([`Trace::render_tree`]).
//! * **Metrics registry** — process-global [`Counter`]s and [`Gauge`]s
//!   ([`metrics()`]) plus embeddable [`CacheStats`] and fixed-bucket
//!   latency [`Histogram`]s, snapshot to JSON via [`MetricsSnapshot`].
//! * **Fault injection** — named [`faultpoint!`] sites robustness tests
//!   arm ([`fault::arm`]) to panic on demand, proving typed-error
//!   recovery paths; free (one relaxed atomic load) while disarmed.
//! * **Zero overhead when disabled** — a process-global [`ObsLevel`]
//!   (env override `BDSM_OBS=off|timings|spans`) gates every
//!   instrumented path behind a single relaxed atomic load, and spans
//!   are only recorded inside an explicit [`Trace::collect`] session,
//!   so library code sprinkled with spans costs nothing for callers
//!   that never ask for a trace. Instrumentation never feeds back into
//!   numerical results: the engine's bitwise-determinism suites run at
//!   every level.
//!
//! # Example
//!
//! ```
//! use bdsm_obs::{span, timing_span, ObsLevel, Trace};
//!
//! bdsm_obs::set_level(ObsLevel::Spans);
//! let (value, trace) = Trace::collect(|| {
//!     let _stage = timing_span!("stage.demo");
//!     let mut sum = 0u64;
//!     for i in 0..4u64 {
//!         let _s = span!("demo.item", item = i);
//!         sum += i * i;
//!     }
//!     sum
//! });
//! assert_eq!(value, 14);
//! assert_eq!(trace.count("demo.item"), 4);
//! assert_eq!(trace.count("stage.demo"), 1);
//! bdsm_obs::set_level(ObsLevel::Off);
//! ```

use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};
use std::time::Instant;

pub mod fault;
mod metrics;
mod trace;

pub use metrics::{
    metrics, CacheStats, CacheStatsSnapshot, Counter, Gauge, Histogram, HistogramSnapshot, Metrics,
    MetricsSnapshot,
};
pub use trace::{push_json_string, AttrValue, SpanEvent, Trace};

// ---------------------------------------------------------------------------
// Observability level
// ---------------------------------------------------------------------------

/// How much instrumentation is live, process-wide.
///
/// Levels are ordered: `Spans` implies `Timings`. The default is `Off`,
/// overridable by the `BDSM_OBS` environment variable (read once, on
/// first query) or programmatically via [`set_level`] (which wins over
/// the environment and is what tests and benches should use — mutating
/// the process environment races with other threads).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum ObsLevel {
    /// No metrics, no spans. Instrumented paths cost one relaxed
    /// atomic load each.
    Off = 0,
    /// Metrics (counters/gauges/histograms) and coarse stage spans.
    Timings = 1,
    /// Everything: per-shift / per-block / per-query spans too.
    Spans = 2,
}

impl ObsLevel {
    /// Parse a `BDSM_OBS` value, case-insensitively.
    ///
    /// Accepts `off`/`0`, `timings`/`1`, `spans`/`2`; anything else is
    /// `None` (treated as `Off` by the env reader).
    pub fn parse(s: &str) -> Option<ObsLevel> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "0" | "" => Some(ObsLevel::Off),
            "timings" | "timing" | "1" => Some(ObsLevel::Timings),
            "spans" | "span" | "2" => Some(ObsLevel::Spans),
            _ => None,
        }
    }

    fn from_u8(v: u8) -> ObsLevel {
        match v {
            2 => ObsLevel::Spans,
            1 => ObsLevel::Timings,
            _ => ObsLevel::Off,
        }
    }
}

/// Sentinel: `CONFIGURED` not yet initialised from the environment.
const LEVEL_UNSET: u8 = 0xFF;

/// Level requested by env/`set_level`.
static CONFIGURED: AtomicU8 = AtomicU8::new(LEVEL_UNSET);
/// Number of live `Trace::collect` sessions (process-wide).
static SESSIONS: AtomicU32 = AtomicU32::new(0);
/// `max(configured, sessions > 0 ? Timings : Off)` — the single byte
/// every span checks. Kept denormalized so the hot path is one load.
static EFFECTIVE: AtomicU8 = AtomicU8::new(0);

fn configured() -> u8 {
    let v = CONFIGURED.load(Ordering::Relaxed);
    if v != LEVEL_UNSET {
        return v;
    }
    let from_env = std::env::var("BDSM_OBS")
        .ok()
        .and_then(|s| ObsLevel::parse(&s))
        .unwrap_or(ObsLevel::Off) as u8;
    // First writer wins; a concurrent set_level() may already have stored.
    let _ =
        CONFIGURED.compare_exchange(LEVEL_UNSET, from_env, Ordering::Relaxed, Ordering::Relaxed);
    let v = CONFIGURED.load(Ordering::Relaxed);
    recompute_effective(v);
    v
}

fn recompute_effective(cfg: u8) {
    let floor = if SESSIONS.load(Ordering::Relaxed) > 0 {
        ObsLevel::Timings as u8
    } else {
        ObsLevel::Off as u8
    };
    EFFECTIVE.store(cfg.max(floor), Ordering::Relaxed);
}

/// The configured observability level (env `BDSM_OBS` or [`set_level`]).
pub fn level() -> ObsLevel {
    ObsLevel::from_u8(configured())
}

/// True when the configured level is at least `min`.
///
/// This is the gate for *metrics*: counters and gauges record only when
/// the user asked for observability. Spans additionally require a live
/// [`Trace::collect`] session (which raises the effective level to
/// `Timings` on its own, so stage timings work even at `BDSM_OBS=off`).
#[inline]
pub fn enabled(min: ObsLevel) -> bool {
    configured() >= min as u8
}

/// Set the process-wide level programmatically. Overrides `BDSM_OBS`.
pub fn set_level(level: ObsLevel) {
    CONFIGURED.store(level as u8, Ordering::Relaxed);
    recompute_effective(level as u8);
}

/// Effective level for span recording: configured level, floored at
/// `Timings` while any trace session is live.
#[inline]
fn effective_at_least(min: ObsLevel) -> bool {
    let v = EFFECTIVE.load(Ordering::Relaxed);
    if v >= min as u8 {
        return true;
    }
    // EFFECTIVE starts at Off before the first env read; make sure the
    // env has been consulted once before concluding "disabled".
    if CONFIGURED.load(Ordering::Relaxed) == LEVEL_UNSET {
        configured();
        return EFFECTIVE.load(Ordering::Relaxed) >= min as u8;
    }
    false
}

// ---------------------------------------------------------------------------
// Per-thread session state
// ---------------------------------------------------------------------------

struct ThreadObs {
    /// Nesting count of live sessions on this thread (0 = inactive).
    active: u32,
    /// Logical thread id in the trace: 0 = session thread, ≥1 = worker.
    tid: u32,
    /// Current span nesting depth.
    depth: u32,
    /// Session epoch all timestamps are relative to.
    epoch: Option<Instant>,
    events: Vec<SpanEvent>,
}

thread_local! {
    static TLS: RefCell<ThreadObs> = const {
        RefCell::new(ThreadObs {
            active: 0,
            tid: 0,
            depth: 0,
            epoch: None,
            events: Vec::new(),
        })
    };
}

pub(crate) fn session_collect<T>(f: impl FnOnce() -> T) -> (T, Trace) {
    let fresh = TLS.with(|t| {
        let mut t = t.borrow_mut();
        if t.active > 0 {
            // Nested collect piggybacks on the outer session: its spans
            // land in the outer trace and it returns an empty one.
            t.active += 1;
            false
        } else {
            t.active = 1;
            t.tid = 0;
            t.depth = 0;
            t.epoch = Some(Instant::now());
            t.events.clear();
            SESSIONS.fetch_add(1, Ordering::Relaxed);
            recompute_effective(configured());
            true
        }
    });
    let out = f();
    let trace = TLS.with(|t| {
        let mut t = t.borrow_mut();
        t.active -= 1;
        if fresh {
            t.epoch = None;
            SESSIONS.fetch_sub(1, Ordering::Relaxed);
            recompute_effective(configured());
            Trace {
                events: std::mem::take(&mut t.events),
            }
        } else {
            Trace::default()
        }
    });
    (out, trace)
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

struct OpenSpan {
    name: &'static str,
    t_open: Instant,
    start_ns: u64,
    depth: u32,
    tid: u32,
    attrs: Vec<(&'static str, AttrValue)>,
}

/// RAII guard for an open span; records a [`SpanEvent`] on drop.
///
/// A disabled span (level too low, or no live session on this thread)
/// is a no-op `None` and costs one atomic load to construct.
#[must_use = "a span measures the scope it is bound to; binding it to _ drops it immediately"]
pub struct Span(Option<OpenSpan>);

impl Span {
    /// A span that records nothing.
    pub fn disabled() -> Span {
        Span(None)
    }

    /// True when this span will record an event on drop.
    #[inline]
    pub fn is_recording(&self) -> bool {
        self.0.is_some()
    }

    /// Attach an attribute after opening (e.g. a count known at close).
    pub fn attr(&mut self, key: &'static str, value: impl Into<AttrValue>) {
        if let Some(s) = self.0.as_mut() {
            s.attrs.push((key, value.into()));
        }
    }

    /// Nanoseconds since the span opened (0 when disabled).
    pub fn elapsed_ns(&self) -> u64 {
        self.0
            .as_ref()
            .map(|s| s.t_open.elapsed().as_nanos() as u64)
            .unwrap_or(0)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(s) = self.0.take() {
            let dur_ns = s.t_open.elapsed().as_nanos() as u64;
            TLS.with(|t| {
                let mut t = t.borrow_mut();
                t.depth = s.depth;
                t.events.push(SpanEvent {
                    name: s.name,
                    start_ns: s.start_ns,
                    dur_ns,
                    depth: s.depth,
                    tid: s.tid,
                    attrs: s.attrs,
                });
            });
        }
    }
}

/// Open a span if `min` is met and a session is live on this thread.
///
/// Prefer the [`span!`] / [`timing_span!`] macros; this is their
/// runtime entry point.
pub fn open_span(min: ObsLevel, name: &'static str, attrs: &[(&'static str, AttrValue)]) -> Span {
    if !effective_at_least(min) {
        return Span(None);
    }
    TLS.with(|t| {
        let mut t = t.borrow_mut();
        if t.active == 0 {
            return Span(None);
        }
        let epoch = t.epoch.expect("active session has an epoch");
        let now = Instant::now();
        let open = OpenSpan {
            name,
            t_open: now,
            start_ns: now.saturating_duration_since(epoch).as_nanos() as u64,
            depth: t.depth,
            tid: t.tid,
            attrs: attrs.to_vec(),
        };
        t.depth += 1;
        Span(Some(open))
    })
}

/// Open a fine-grained span (recorded at `ObsLevel::Spans`).
///
/// `span!("krylov.point", shift = s, point = i)` — attribute values are
/// anything `Into<AttrValue>` (unsigned/signed ints, floats, `&'static
/// str`, bool).
#[macro_export]
macro_rules! span {
    ($name:expr $(, $key:ident = $val:expr)* $(,)?) => {
        $crate::open_span(
            $crate::ObsLevel::Spans,
            $name,
            &[$((stringify!($key), $crate::AttrValue::from($val))),*],
        )
    };
}

/// Open a coarse stage span (recorded at `ObsLevel::Timings`, which any
/// live [`Trace::collect`] session implies).
#[macro_export]
macro_rules! timing_span {
    ($name:expr $(, $key:ident = $val:expr)* $(,)?) => {
        $crate::open_span(
            $crate::ObsLevel::Timings,
            $name,
            &[$((stringify!($key), $crate::AttrValue::from($val))),*],
        )
    };
}

// ---------------------------------------------------------------------------
// Worker fork/adopt protocol (used by core::par)
// ---------------------------------------------------------------------------

/// Capture of the calling thread's session, to hand to spawned workers.
///
/// `Copy` so a scoped-thread closure can capture it by value. When the
/// capturing thread had no live session (or observability is off) the
/// context is inert and [`with_worker`] adds zero overhead.
#[derive(Debug, Clone, Copy)]
pub struct ForkCtx(Option<ForkInner>);

#[derive(Debug, Clone, Copy)]
struct ForkInner {
    epoch: Instant,
    base_depth: u32,
}

/// Capture the current session for worker threads about to be spawned.
pub fn fork() -> ForkCtx {
    if !effective_at_least(ObsLevel::Timings) {
        return ForkCtx(None);
    }
    TLS.with(|t| {
        let t = t.borrow();
        if t.active == 0 {
            ForkCtx(None)
        } else {
            ForkCtx(Some(ForkInner {
                epoch: t.epoch.expect("active session has an epoch"),
                base_depth: t.depth,
            }))
        }
    })
}

/// Run `f` on a (fresh) worker thread under the forked session.
///
/// Returns `f`'s result plus the span events the worker recorded; the
/// parent must pass those to [`adopt`] **in spawn order** at join time —
/// that fixed merge order is what keeps traces deterministic regardless
/// of how the work was actually interleaved. `worker` becomes the
/// events' logical tid (use `index + 1`; 0 is the session thread).
pub fn with_worker<T>(ctx: ForkCtx, worker: u32, f: impl FnOnce() -> T) -> (T, Vec<SpanEvent>) {
    let Some(inner) = ctx.0 else {
        return (f(), Vec::new());
    };
    TLS.with(|t| {
        let mut t = t.borrow_mut();
        t.active = 1;
        t.tid = worker;
        t.depth = inner.base_depth;
        t.epoch = Some(inner.epoch);
        t.events.clear();
    });
    let out = f();
    let events = TLS.with(|t| {
        let mut t = t.borrow_mut();
        t.active = 0;
        t.epoch = None;
        std::mem::take(&mut t.events)
    });
    (out, events)
}

/// Merge worker events (from [`with_worker`]) into this thread's live
/// session. Call once per worker, in spawn order.
pub fn adopt(mut events: Vec<SpanEvent>) {
    if events.is_empty() {
        return;
    }
    TLS.with(|t| {
        let mut t = t.borrow_mut();
        if t.active > 0 {
            t.events.append(&mut events);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // set_level is process-global; serialize the tests that touch it.
    static LEVEL_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        LEVEL_LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn parse_levels() {
        assert_eq!(ObsLevel::parse("off"), Some(ObsLevel::Off));
        assert_eq!(ObsLevel::parse("OFF"), Some(ObsLevel::Off));
        assert_eq!(ObsLevel::parse("0"), Some(ObsLevel::Off));
        assert_eq!(ObsLevel::parse(""), Some(ObsLevel::Off));
        assert_eq!(ObsLevel::parse("timings"), Some(ObsLevel::Timings));
        assert_eq!(ObsLevel::parse("Timing"), Some(ObsLevel::Timings));
        assert_eq!(ObsLevel::parse(" spans "), Some(ObsLevel::Spans));
        assert_eq!(ObsLevel::parse("2"), Some(ObsLevel::Spans));
        assert_eq!(ObsLevel::parse("verbose"), None);
        assert!(ObsLevel::Spans > ObsLevel::Timings);
    }

    #[test]
    fn spans_need_a_session() {
        let _g = locked();
        set_level(ObsLevel::Spans);
        // No session: the span is inert even at the highest level.
        let s = span!("orphan", k = 1u64);
        assert!(!s.is_recording());
        drop(s);
        set_level(ObsLevel::Off);
    }

    #[test]
    fn session_forces_timings_but_not_spans() {
        let _g = locked();
        set_level(ObsLevel::Off);
        let ((), trace) = Trace::collect(|| {
            let stage = timing_span!("stage.x");
            assert!(stage.is_recording());
            let fine = span!("fine.x");
            assert!(!fine.is_recording());
        });
        assert_eq!(trace.count("stage.x"), 1);
        assert_eq!(trace.count("fine.x"), 0);
        set_level(ObsLevel::Off);
    }

    #[test]
    fn nesting_depth_and_attrs() {
        let _g = locked();
        set_level(ObsLevel::Spans);
        let ((), trace) = Trace::collect(|| {
            let _a = span!("outer", tag = "o");
            {
                let mut b = span!("inner", idx = 3u64);
                b.attr("late", 2.5f64);
            }
            let _c = span!("sibling");
        });
        set_level(ObsLevel::Off);
        assert_eq!(trace.events.len(), 3);
        let inner = trace.events.iter().find(|e| e.name == "inner").unwrap();
        assert_eq!(inner.depth, 1);
        assert_eq!(inner.attrs.len(), 2);
        assert_eq!(inner.attrs[1], ("late", AttrValue::F64(2.5)));
        let sibling = trace.events.iter().find(|e| e.name == "sibling").unwrap();
        assert_eq!(sibling.depth, 1);
        let outer = trace.events.iter().find(|e| e.name == "outer").unwrap();
        assert_eq!(outer.depth, 0);
        assert!(outer.dur_ns >= inner.dur_ns);
    }

    #[test]
    fn nested_collect_piggybacks() {
        let _g = locked();
        set_level(ObsLevel::Spans);
        let ((), outer) = Trace::collect(|| {
            let _a = span!("a");
            let ((), inner) = Trace::collect(|| {
                let _b = span!("b");
            });
            assert!(inner.is_empty());
        });
        set_level(ObsLevel::Off);
        assert_eq!(outer.count("a"), 1);
        assert_eq!(outer.count("b"), 1);
    }

    #[test]
    fn fork_and_adopt_merge_in_call_order() {
        let _g = locked();
        set_level(ObsLevel::Spans);
        let ((), trace) = Trace::collect(|| {
            let _p = span!("parent");
            let ctx = fork();
            let mut buffers = Vec::new();
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..3u32)
                    .map(|w| {
                        scope.spawn(move || {
                            with_worker(ctx, w + 1, || {
                                let _s = span!("work", worker = w);
                            })
                            .1
                        })
                    })
                    .collect();
                for h in handles {
                    buffers.push(h.join().unwrap());
                }
            });
            for events in buffers {
                adopt(events);
            }
        });
        set_level(ObsLevel::Off);
        let tids: Vec<u32> = trace
            .events
            .iter()
            .filter(|e| e.name == "work")
            .map(|e| e.tid)
            .collect();
        // Adopted in spawn order, regardless of completion order.
        assert_eq!(tids, vec![1, 2, 3]);
        // Worker spans nest under the parent span that was open at fork.
        assert!(trace
            .events
            .iter()
            .filter(|e| e.name == "work")
            .all(|e| e.depth == 1));
    }

    #[test]
    fn inert_fork_costs_nothing() {
        let _g = locked();
        set_level(ObsLevel::Off);
        let ctx = fork(); // no session either
        let (v, events) = with_worker(ctx, 1, || 42);
        assert_eq!(v, 42);
        assert!(events.is_empty());
    }
}
