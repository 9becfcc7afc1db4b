//! Deterministic observability for the edgechain workspace.
//!
//! Three pieces, layered below the simulator so every crate can emit into
//! the same stream:
//!
//! 1. **Structured tracer** ([`trace_event!`], [`enable`], [`finish`]) —
//!    thread-local, zero-cost when disabled, timestamped with the
//!    **sim-clock** (milliseconds) so traces of seeded runs are
//!    byte-identical across reruns.
//! 2. **Typed metrics registry** ([`Registry`]) — counters, gauges, and
//!    histograms (built on [`RunningStats`]/[`SampleSet`]) under dotted
//!    names like `ufl.open_facilities` or `transport.retries`, plus a
//!    strictly separated wall-clock `*_ns` profile namespace.
//! 3. **JSONL export** ([`Session::trace_jsonl`], [`Registry::to_json`])
//!    — hand-rolled deterministic JSON, consumed by the `trace-report`
//!    CLI.
//!
//! Determinism rules (see DESIGN.md §7): no wall-clock in trace events, no
//! `HashMap` iteration order in any export, and telemetry never feeds back
//! into simulation state — a run computes identical results with the
//! tracer on or off.
//!
//! # Example
//!
//! ```
//! use edgechain_telemetry as telemetry;
//! use edgechain_telemetry::trace_event;
//!
//! telemetry::enable();
//! trace_event!("transport.send", 1500, src = 0_u64, dst = 3_u64, bytes = 2048_u64);
//! telemetry::counter_add("transport.sends", 1);
//! telemetry::record("transport.hops", 2.0);
//! let session = telemetry::finish().unwrap();
//! assert_eq!(session.events().len(), 1);
//! assert_eq!(session.registry.counter("transport.sends"), 1);
//! ```

pub mod json;
pub mod metrics;
pub mod registry;
pub mod span;
pub mod trace;

pub use metrics::{gini, gini_counts, RunningStats, SampleSet};
pub use registry::{Histogram, MetricSummary, Registry, RegistrySnapshot};
pub use span::{
    enable_spans, span_end, span_end_all, span_field, span_follows, span_start, spans_enabled,
    spans_from_events, SpanId, SpanIndex, SpanRec,
};
pub use trace::{
    counter_add, emit, enable, finish, gauge_add, gauge_set, is_enabled, record, record_wall_ns,
    registry_snapshot, time_wall, Session, TraceEvent, Value,
};
