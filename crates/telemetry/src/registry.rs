//! Typed metrics registry: counters, gauges, and histograms under
//! hierarchical dotted names (`ufl.open_facilities`, `transport.retries`).
//!
//! The registry keeps two strictly separated namespaces:
//!
//! * **Deterministic metrics** — counters/gauges/histograms fed only from
//!   sim-clock-derived quantities. These appear in [`RegistrySnapshot`]
//!   (and hence in `RunReport.telemetry`) and are bit-identical across
//!   reruns of the same seed.
//! * **Wall-clock profile** — `*_ns` timings recorded via
//!   [`Registry::record_wall_ns`] (e.g. `ufl.solve_ns`). These answer
//!   "where did the *host* time go", vary run to run by nature, and are
//!   exported only through [`Registry::to_json`] (the examples'
//!   `REGISTRY_OUT` dumps), never through the deterministic snapshot.
//!
//! Counters that copy a count the simulation's run report keeps are not
//! bumped where the event happens: the report lists them once and adds
//! them here when a traced run finishes.
//!
//! All maps are `BTreeMap`s so every export iterates in sorted-name order.

use crate::json::{write_f64, write_str};
use crate::metrics::{RunningStats, SampleSet};
use std::collections::BTreeMap;

/// A histogram metric: Welford summary stats plus the exact sample set for
/// quantiles and bucketed views.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    stats: RunningStats,
    samples: SampleSet,
}

impl Histogram {
    /// Records one observation into both views.
    pub fn record(&mut self, value: f64) {
        self.stats.record(value);
        self.samples.record(value);
    }

    /// Summary statistics (count/mean/stddev/min/max).
    pub fn stats(&self) -> &RunningStats {
        &self.stats
    }

    fn summary(&mut self) -> MetricSummary {
        MetricSummary::Histogram {
            count: self.stats.count(),
            mean: self.stats.mean(),
            stddev: self.stats.stddev(),
            min: self.stats.min().unwrap_or(0.0),
            max: self.stats.max().unwrap_or(0.0),
            p50: self.samples.p50().unwrap_or(0.0),
            p95: self.samples.p95().unwrap_or(0.0),
            p99: self.samples.p99().unwrap_or(0.0),
        }
    }
}

/// The metric registry backing a telemetry session.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, Histogram>,
    wall_ns: BTreeMap<&'static str, RunningStats>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Adds `n` to counter `name` (creating it at zero).
    pub fn counter_add(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    /// Sets gauge `name` to `value`.
    pub fn gauge_set(&mut self, name: &'static str, value: f64) {
        self.gauges.insert(name, value);
    }

    /// Adds `delta` to gauge `name` (creating it at zero).
    pub fn gauge_add(&mut self, name: &'static str, delta: f64) {
        *self.gauges.entry(name).or_insert(0.0) += delta;
    }

    /// Records one observation into histogram `name`.
    pub fn record(&mut self, name: &'static str, value: f64) {
        self.histograms.entry(name).or_default().record(value);
    }

    /// Records a wall-clock duration (nanoseconds) under `name`. By
    /// convention `name` ends in `_ns`. Kept out of deterministic exports.
    pub fn record_wall_ns(&mut self, name: &'static str, ns: u64) {
        self.wall_ns.entry(name).or_default().record(ns as f64);
    }

    /// Current value of counter `name`, or 0 if never touched.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of gauge `name`, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Wall-clock stats recorded under `name`, if any.
    pub fn wall_ns(&self, name: &str) -> Option<&RunningStats> {
        self.wall_ns.get(name)
    }

    /// Deterministic snapshot: every counter, gauge, and histogram summary
    /// in sorted-name order. Wall-clock `*_ns` stats are deliberately
    /// excluded so the snapshot is bit-identical across seeded reruns.
    pub fn snapshot(&mut self) -> RegistrySnapshot {
        let mut entries = Vec::new();
        for (&name, &v) in &self.counters {
            entries.push((name.to_string(), MetricSummary::Counter(v)));
        }
        for (&name, &v) in &self.gauges {
            entries.push((name.to_string(), MetricSummary::Gauge(v)));
        }
        for (&name, hist) in self.histograms.iter_mut() {
            entries.push((name.to_string(), hist.summary()));
        }
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        RegistrySnapshot { entries }
    }

    /// Full JSON dump — deterministic metrics *plus* the wall-clock `*_ns`
    /// profile — for the examples' `REGISTRY_OUT` files. Sorted-name order
    /// throughout; only the `wall_ns` section varies across reruns.
    pub fn to_json(&mut self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        let mut first = true;
        for (&name, &v) in &self.counters {
            push_sep(&mut out, &mut first);
            write_str(&mut out, name);
            out.push_str(&format!(": {v}"));
        }
        out.push_str("},\n  \"gauges\": {");
        let mut first = true;
        for (&name, &v) in &self.gauges {
            push_sep(&mut out, &mut first);
            write_str(&mut out, name);
            out.push_str(": ");
            write_f64(&mut out, v);
        }
        out.push_str("},\n  \"histograms\": {");
        let mut first = true;
        let names: Vec<&'static str> = self.histograms.keys().copied().collect();
        for name in names {
            let summary = self.histograms.get_mut(name).unwrap().summary();
            push_sep(&mut out, &mut first);
            write_str(&mut out, name);
            out.push_str(": ");
            summary.write_json(&mut out);
        }
        out.push_str("},\n  \"wall_ns\": {");
        let mut first = true;
        for (&name, stats) in &self.wall_ns {
            push_sep(&mut out, &mut first);
            write_str(&mut out, name);
            out.push_str(&format!(": {{\"count\": {}, \"sum\": ", stats.count()));
            write_f64(&mut out, stats.sum());
            out.push_str(", \"mean\": ");
            write_f64(&mut out, stats.mean());
            out.push_str(", \"min\": ");
            write_f64(&mut out, stats.min().unwrap_or(0.0));
            out.push_str(", \"max\": ");
            write_f64(&mut out, stats.max().unwrap_or(0.0));
            out.push('}');
        }
        out.push_str("}\n}\n");
        out
    }
}

fn push_sep(out: &mut String, first: &mut bool) {
    if *first {
        *first = false;
    } else {
        out.push_str(", ");
    }
}

/// One metric's summarized value in a [`RegistrySnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricSummary {
    /// Monotonic event count.
    Counter(u64),
    /// Last-set (or accumulated) level.
    Gauge(f64),
    /// Distribution summary from a [`Histogram`].
    Histogram {
        count: u64,
        mean: f64,
        stddev: f64,
        min: f64,
        max: f64,
        p50: f64,
        p95: f64,
        p99: f64,
    },
}

impl MetricSummary {
    fn write_json(&self, out: &mut String) {
        match self {
            MetricSummary::Counter(v) => out.push_str(&format!("{v}")),
            MetricSummary::Gauge(v) => write_f64(out, *v),
            MetricSummary::Histogram {
                count,
                mean,
                stddev,
                min,
                max,
                p50,
                p95,
                p99,
            } => {
                out.push_str(&format!("{{\"count\": {count}"));
                for (key, v) in [
                    ("mean", mean),
                    ("stddev", stddev),
                    ("min", min),
                    ("max", max),
                    ("p50", p50),
                    ("p95", p95),
                    ("p99", p99),
                ] {
                    out.push_str(&format!(", \"{key}\": "));
                    write_f64(out, *v);
                }
                out.push('}');
            }
        }
    }
}

/// Deterministic, ordered summary of a [`Registry`] — what lands in
/// `RunReport.telemetry`. Sorted by metric name; never includes wall-clock
/// timings, so it is equal across reruns of the same seed.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RegistrySnapshot {
    /// `(name, summary)` pairs, sorted by name.
    pub entries: Vec<(String, MetricSummary)>,
}

impl RegistrySnapshot {
    /// Looks up a metric by exact name.
    pub fn get(&self, name: &str) -> Option<&MetricSummary> {
        self.entries
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// Counter value by name, or `None` if absent or not a counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            MetricSummary::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// Renders the snapshot as JSON (one sorted object, histogram
    /// summaries inline).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let mut first = true;
        for (name, summary) in &self.entries {
            push_sep(&mut out, &mut first);
            write_str(&mut out, name);
            out.push_str(": ");
            summary.write_json(&mut out);
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms() {
        let mut r = Registry::new();
        r.counter_add("a.hits", 2);
        r.counter_add("a.hits", 3);
        r.gauge_set("b.level", 1.5);
        r.gauge_add("b.level", 0.5);
        r.record("c.lat", 10.0);
        r.record("c.lat", 30.0);
        assert_eq!(r.counter("a.hits"), 5);
        assert_eq!(r.counter("missing"), 0);
        assert_eq!(r.gauge("b.level"), Some(2.0));
        let snap = r.snapshot();
        assert_eq!(snap.counter("a.hits"), Some(5));
        assert_eq!(snap.get("b.level"), Some(&MetricSummary::Gauge(2.0)));
        match snap.get("c.lat").unwrap() {
            MetricSummary::Histogram {
                count,
                mean,
                min,
                max,
                p50,
                ..
            } => {
                assert_eq!(*count, 2);
                assert_eq!(*mean, 20.0);
                assert_eq!(*min, 10.0);
                assert_eq!(*max, 30.0);
                assert_eq!(*p50, 10.0);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_is_sorted_and_stable() {
        let mut r = Registry::new();
        r.counter_add("z.last", 1);
        r.record("m.mid", 1.0);
        r.gauge_set("a.first", 0.0);
        r.record_wall_ns("x.solve_ns", 123);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.entries.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a.first", "m.mid", "z.last"]);
        // Wall-clock stats never leak into the deterministic snapshot.
        assert!(snap.get("x.solve_ns").is_none());
        // Identical registries produce identical snapshots and JSON.
        assert_eq!(snap, r.snapshot());
        assert_eq!(snap.to_json(), r.snapshot().to_json());
    }

    #[test]
    fn full_json_includes_wall_ns() {
        let mut r = Registry::new();
        r.counter_add("pos.rounds", 7);
        r.record_wall_ns("ufl.solve_ns", 1000);
        r.record_wall_ns("ufl.solve_ns", 3000);
        let json = r.to_json();
        assert!(json.contains("\"pos.rounds\": 7"));
        assert!(json.contains("\"ufl.solve_ns\""));
        assert!(json.contains("\"mean\": 2000"));
        // Sanity: sections all present.
        for section in ["counters", "gauges", "histograms", "wall_ns"] {
            assert!(
                json.contains(&format!("\"{section}\"")),
                "missing {section}"
            );
        }
    }
}
