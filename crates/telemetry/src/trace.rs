//! Structured sim-clock event tracer with a zero-cost disabled mode.
//!
//! A telemetry *session* is thread-local: [`enable`] arms it, instrumented
//! code emits events/metrics through the free functions (or the
//! [`trace_event!`](crate::trace_event) macro), and [`finish`] disarms it
//! and hands back the collected [`Session`]. When no session is armed every
//! entry point is a single `Cell<bool>` load and the `trace_event!` macro
//! does not even evaluate its field expressions — simulation results are
//! bit-identical with telemetry on or off because nothing here feeds back
//! into the run.
//!
//! Event timestamps are **sim-clock milliseconds** (the caller passes
//! them), never wall-clock, so a trace of a seeded run is byte-identical
//! across reruns. Wall-clock profiling goes through [`time_wall`], which
//! lands in the registry's separate `*_ns` namespace.

use crate::registry::{Registry, RegistrySnapshot};
use std::cell::{Cell, RefCell};
use std::fmt;

/// A typed field value attached to a trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(String),
}

impl Value {
    fn write_json(&self, out: &mut String) {
        match self {
            Value::U64(v) => out.push_str(&format!("{v}")),
            Value::I64(v) => out.push_str(&format!("{v}")),
            Value::F64(v) => crate::json::write_f64(out, *v),
            Value::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
            Value::Str(s) => crate::json::write_str(out, s),
        }
    }
}

macro_rules! value_from_uint {
    ($($t:ty),*) => {
        $(impl From<$t> for Value {
            fn from(v: $t) -> Value {
                Value::U64(v as u64)
            }
        })*
    };
}
value_from_uint!(u8, u16, u32, u64, usize);

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::I64(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Value {
        Value::I64(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::F64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

/// One structured trace event: a sim-clock timestamp, a dotted event kind
/// (`transport.send`, `fault.injected`, …), and ordered typed fields.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Sim-clock milliseconds at which the event occurred.
    pub t_ms: u64,
    /// Dotted event kind; the prefix before the first `.` is the phase.
    pub kind: &'static str,
    /// Ordered `(key, value)` fields, as passed at the emit site.
    pub fields: Vec<(&'static str, Value)>,
}

impl TraceEvent {
    /// Appends this event as one JSONL line (without trailing newline).
    /// Field order is emit-site order; `t_ms` and `kind` always lead, so
    /// the line layout is deterministic.
    pub fn write_jsonl(&self, out: &mut String) {
        out.push_str(&format!("{{\"t_ms\": {}, \"kind\": ", self.t_ms));
        crate::json::write_str(out, self.kind);
        for (key, value) in &self.fields {
            out.push_str(", ");
            crate::json::write_str(out, key);
            out.push_str(": ");
            value.write_json(out);
        }
        out.push('}');
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut line = String::new();
        self.write_jsonl(&mut line);
        f.write_str(&line)
    }
}

/// A completed telemetry session: the ordered event trace plus the metric
/// registry, as returned by [`finish`].
#[derive(Debug, Clone, Default)]
pub struct Session {
    pub(crate) events: Vec<TraceEvent>,
    /// Causal-span bookkeeping (see [`crate::span`]); dormant unless
    /// [`crate::span::enable_spans`] armed it after [`enable`].
    pub(crate) spans: crate::span::SpanBook,
    /// Metric registry accumulated over the session.
    pub registry: Registry,
}

impl Session {
    /// The ordered event trace.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Serializes the whole trace as JSONL (one event per line, emit
    /// order). Byte-identical across reruns of the same seeded run.
    pub fn trace_jsonl(&self) -> String {
        let mut out = String::new();
        for event in &self.events {
            event.write_jsonl(&mut out);
            out.push('\n');
        }
        out
    }
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static SESSION: RefCell<Session> = RefCell::new(Session::default());
}

/// Crate-internal access to the live session (used by the span layer).
pub(crate) fn with_session<R>(f: impl FnOnce(&mut Session) -> R) -> R {
    SESSION.with(|s| f(&mut s.borrow_mut()))
}

/// Arms telemetry on this thread, discarding any previous session state.
pub fn enable() {
    SESSION.with(|s| *s.borrow_mut() = Session::default());
    ENABLED.with(|e| e.set(true));
}

/// Whether a telemetry session is armed on this thread. This is the only
/// cost instrumented code pays when telemetry is off.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.with(|e| e.get())
}

/// Disarms telemetry and returns the collected session, or `None` if
/// telemetry was never enabled.
pub fn finish() -> Option<Session> {
    if !is_enabled() {
        return None;
    }
    ENABLED.with(|e| e.set(false));
    Some(SESSION.with(|s| std::mem::take(&mut *s.borrow_mut())))
}

/// Emits a structured event (no-op when disabled). Prefer the
/// [`trace_event!`](crate::trace_event) macro, which also skips field
/// construction.
pub fn emit(kind: &'static str, t_ms: u64, fields: Vec<(&'static str, Value)>) {
    if !is_enabled() {
        return;
    }
    SESSION.with(|s| {
        s.borrow_mut()
            .events
            .push(TraceEvent { t_ms, kind, fields });
    });
}

/// Adds `n` to counter `name` (no-op when disabled).
pub fn counter_add(name: &'static str, n: u64) {
    if is_enabled() {
        SESSION.with(|s| s.borrow_mut().registry.counter_add(name, n));
    }
}

/// Sets gauge `name` (no-op when disabled).
pub fn gauge_set(name: &'static str, value: f64) {
    if is_enabled() {
        SESSION.with(|s| s.borrow_mut().registry.gauge_set(name, value));
    }
}

/// Adds `delta` to gauge `name` (no-op when disabled).
pub fn gauge_add(name: &'static str, delta: f64) {
    if is_enabled() {
        SESSION.with(|s| s.borrow_mut().registry.gauge_add(name, delta));
    }
}

/// Records one histogram observation (no-op when disabled).
pub fn record(name: &'static str, value: f64) {
    if is_enabled() {
        SESSION.with(|s| s.borrow_mut().registry.record(name, value));
    }
}

/// Records a wall-clock duration in nanoseconds (no-op when disabled).
/// Lands in the registry's non-deterministic `*_ns` namespace.
pub fn record_wall_ns(name: &'static str, ns: u64) {
    if is_enabled() {
        SESSION.with(|s| s.borrow_mut().registry.record_wall_ns(name, ns));
    }
}

/// Runs `f`, recording its wall-clock duration under `name` when
/// telemetry is enabled. When disabled this is exactly `f()` — no clock
/// read, no branch in the hot loop beyond the enabled check.
pub fn time_wall<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !is_enabled() {
        return f();
    }
    let start = std::time::Instant::now();
    let out = f();
    record_wall_ns(name, start.elapsed().as_nanos() as u64);
    out
}

/// Deterministic snapshot of the live registry, or `None` when disabled.
/// Non-consuming: the session keeps collecting afterwards.
pub fn registry_snapshot() -> Option<RegistrySnapshot> {
    if !is_enabled() {
        return None;
    }
    Some(SESSION.with(|s| s.borrow_mut().registry.snapshot()))
}

/// Emits a structured trace event when telemetry is enabled; compiles to a
/// single enabled-flag check (field expressions are **not evaluated**)
/// otherwise.
///
/// ```
/// use edgechain_telemetry as telemetry;
/// use edgechain_telemetry::trace_event;
///
/// telemetry::enable();
/// trace_event!("block.mined", 1200, block = 3_u64, miner = 7_u64, hit = true);
/// let session = telemetry::finish().unwrap();
/// assert_eq!(session.events().len(), 1);
/// assert_eq!(session.events()[0].kind, "block.mined");
/// ```
#[macro_export]
macro_rules! trace_event {
    ($kind:expr, $t_ms:expr $(, $key:ident = $val:expr)* $(,)?) => {
        if $crate::is_enabled() {
            $crate::emit(
                $kind,
                $t_ms,
                vec![$((stringify!($key), $crate::Value::from($val))),*],
            );
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_mode_is_truly_noop() {
        assert!(!is_enabled());
        // Field expressions must not run when disabled.
        let mut evaluated = false;
        trace_event!(
            "x.y",
            1,
            v = {
                evaluated = true;
                1_u64
            }
        );
        assert!(!evaluated, "disabled trace_event! must not evaluate fields");
        counter_add("x.c", 1);
        record("x.h", 1.0);
        gauge_set("x.g", 1.0);
        record_wall_ns("x.ns", 1);
        assert!(registry_snapshot().is_none());
        assert!(finish().is_none());
        // Nothing leaked into a later session.
        enable();
        let session = finish().unwrap();
        assert!(session.events().is_empty());
        assert_eq!(session.registry.counter("x.c"), 0);
    }

    #[test]
    fn enabled_session_collects_events_and_metrics() {
        enable();
        trace_event!(
            "transport.send",
            100,
            src = 1_u64,
            dst = 2_u64,
            bytes = 512_u64
        );
        trace_event!("fault.injected", 600_000, kind = "crash", node = 4_u64);
        counter_add("transport.sends", 1);
        record("pos.delay_secs", 12.5);
        let snap = registry_snapshot().expect("snapshot while enabled");
        assert_eq!(snap.counter("transport.sends"), Some(1));
        let session = finish().unwrap();
        assert_eq!(session.events().len(), 2);
        assert_eq!(session.events()[0].kind, "transport.send");
        assert_eq!(session.events()[0].t_ms, 100);
        assert_eq!(session.events()[0].fields[0], ("src", Value::U64(1)));
        assert!(!is_enabled(), "finish() disarms");
    }

    #[test]
    fn jsonl_layout_is_stable() {
        enable();
        trace_event!(
            "block.mined",
            1200,
            block = 3_u64,
            delay_secs = 9.5,
            hit = true
        );
        let session = finish().unwrap();
        assert_eq!(
            session.trace_jsonl(),
            "{\"t_ms\": 1200, \"kind\": \"block.mined\", \"block\": 3, \"delay_secs\": 9.5, \"hit\": true}\n"
        );
    }

    #[test]
    fn enable_resets_previous_state() {
        enable();
        counter_add("stale.counter", 9);
        enable();
        let session = finish().unwrap();
        assert_eq!(session.registry.counter("stale.counter"), 0);
    }

    #[test]
    fn time_wall_records_only_when_enabled() {
        let out = time_wall("t.solve_ns", || 41 + 1);
        assert_eq!(out, 42);
        enable();
        let out = time_wall("t.solve_ns", || 2 * 21);
        assert_eq!(out, 42);
        let mut session = finish().unwrap();
        let json = session.registry.to_json();
        assert!(json.contains("\"t.solve_ns\": {\"count\": 1"));
    }

    #[test]
    fn value_conversions() {
        assert_eq!(Value::from(3_usize), Value::U64(3));
        assert_eq!(Value::from(-2_i32), Value::I64(-2));
        assert_eq!(Value::from("s"), Value::Str("s".into()));
        assert_eq!(Value::from(true), Value::Bool(true));
    }
}
