//! `edgebench diff a.json b.json`: two result files compared under the
//! benchmark's own bounds, one row per workload × metric.
//!
//! Simulated metrics and `[reg]`/`[rep]` counts are compared exactly —
//! on one commit and one seed they must not move at all. End-to-end host
//! time and memory are banded: a change inside the bound is `unchanged`,
//! and a metric whose recorded quartile spread exceeds its bound is
//! `unresolved`, not unchanged, unless every reading of one side beats
//! every reading of the other. Layer host times have no bound and are
//! shown as `info`.

use crate::metrics::{Bound, Class, Metric, END_TO_END, PER_LAYER};
use crate::record::Record;
use crate::stats::Quartiles;
use crate::workloads::WORKLOADS;

/// What one row concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Exactly equal (simulated metrics and counts).
    Same,
    /// Host metric inside its bound.
    Unchanged,
    /// Better by more than the bound, or better on every reading.
    Improved,
    /// A simulated metric moved, inside its bound.
    Moved,
    /// A deterministic count differs; layers have no bound, but a count
    /// that moves on one commit and one seed is a determinism bug.
    Changed,
    /// A layer's host time or share: noisy and unbounded, shown for the
    /// reader.
    Info,
    /// Run-to-run spread is wider than the bound: no call.
    Unresolved,
    /// Worse by more than the bound.
    Regressed,
    /// Missing on one or both sides.
    Absent,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Moved => "moved",
            Verdict::Changed => "changed",
            Verdict::Info => "info",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Absent => "absent",
        }
    }
}

/// One side's readings of a host metric.
struct Readings {
    median: f64,
    spread: f64,
    best: f64,
    worst: f64,
}

fn readings(file: &Record, key: &str, metric: &Metric) -> Option<Readings> {
    let median = file.get_num(key)?;
    let stat = |s: &str| file.get_num(&format!("{key}/{s}"));
    let (lo, hi) = (stat("min").unwrap_or(median), stat("max").unwrap_or(median));
    let spread = match (stat("q1"), stat("q3")) {
        (Some(q1), Some(q3)) => Quartiles { q1, median, q3 }.spread(),
        _ => 0.0,
    };
    let (best, worst) = match metric.better {
        crate::metrics::Better::Higher => (hi, lo),
        crate::metrics::Better::Lower => (lo, hi),
    };
    Some(Readings {
        median,
        spread,
        best,
        worst,
    })
}

/// Compares one metric of one workload.
pub fn judge(metric: &Metric, key: &str, a: &Record, b: &Record) -> Verdict {
    let (Some(va), Some(vb)) = (a.get_num(key), b.get_num(key)) else {
        return Verdict::Absent;
    };
    let worsening = metric.better.worsening(va, vb);
    match (metric.class, metric.bound) {
        (Class::Sim | Class::Count, _) if va == vb => Verdict::Same,
        (Class::Sim | Class::Count, None) => Verdict::Changed,
        (Class::Host, None) => Verdict::Info,
        (Class::Sim | Class::Count, Some(bound)) => banded(bound, va, worsening, Verdict::Moved),
        (Class::Host, Some(bound)) => {
            let (Some(ra), Some(rb)) = (readings(a, key, metric), readings(b, key, metric)) else {
                return Verdict::Absent;
            };
            // The band an absolute floor buys, as a share of the base.
            let band = bound.allowance(ra.median) / ra.median.abs().max(f64::MIN_POSITIVE);
            if ra.spread > band || rb.spread > band {
                return if metric.better.worsening(ra.best, rb.worst) < 0.0 {
                    Verdict::Improved
                } else {
                    Verdict::Unresolved
                };
            }
            banded(bound, ra.median, worsening, Verdict::Unchanged)
        }
    }
}

fn banded(bound: Bound, base: f64, worsening: f64, inside: Verdict) -> Verdict {
    let allowance = bound.allowance(base);
    if worsening > allowance {
        Verdict::Regressed
    } else if -worsening > allowance {
        Verdict::Improved
    } else {
        inside
    }
}

/// Prints the comparison and returns how many rows regressed plus how
/// many report digests differ.
pub fn run(a: &Record, b: &Record) -> usize {
    println!(
        "{:<10} {:<36} {:>16} {:>16} {:>9}  verdict",
        "workload", "metric", "a", "b", "b/a"
    );
    let mut tally = std::collections::BTreeMap::new();
    let mut digests_differ = 0;
    for w in &WORKLOADS {
        let digest = |f: &Record| {
            f.get_text(&format!("{}/report_digest", w.name))
                .map(str::to_string)
        };
        let (da, db) = (digest(a), digest(b));
        let same = da.is_some() && da == db;
        digests_differ += usize::from(!same);
        println!(
            "{:<10} {:<36} {:>16} {:>16} {:>9}  {}",
            w.name,
            "report_digest",
            da.as_deref().map_or("-", |d| &d[..12.min(d.len())]),
            db.as_deref().map_or("-", |d| &d[..12.min(d.len())]),
            "",
            if same { "same" } else { "DIFFERS" }
        );
        for metric in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let key = format!("{}/{}", w.name, metric.name);
            let verdict = judge(metric, &key, a, b);
            *tally.entry(verdict.word()).or_insert(0usize) += 1;
            let show = |f: &Record| f.get_num(&key).map_or("-".into(), |v| format!("{v:.6}"));
            let ratio = match (a.get_num(&key), b.get_num(&key)) {
                (Some(x), Some(y)) if x != 0.0 => format!("{:.4}", y / x),
                _ => "-".into(),
            };
            println!(
                "{:<10} {:<36} {:>16} {:>16} {:>9}  {}",
                w.name,
                metric.name,
                show(a),
                show(b),
                ratio,
                verdict.word()
            );
        }
    }
    let summary: Vec<String> = tally.iter().map(|(k, n)| format!("{n} {k}")).collect();
    println!(
        "summary: {}; {digests_differ} of {} report digests differ",
        summary.join(", "),
        WORKLOADS.len()
    );
    tally.get(Verdict::Regressed.word()).copied().unwrap_or(0) + digests_differ
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::by_name;

    fn file(fields: &[(&str, f64)]) -> Record {
        let mut r = Record::new();
        for (k, v) in fields {
            r.num(*k, *v);
        }
        r
    }

    #[test]
    fn simulated_metrics_and_counts_are_exact() {
        let gini = by_name("storage_gini").unwrap();
        let a = file(&[("w/storage_gini", 0.040)]);
        assert_eq!(judge(gini, "w/storage_gini", &a, &a), Verdict::Same);
        let b = file(&[("w/storage_gini", 0.045)]);
        assert_eq!(judge(gini, "w/storage_gini", &a, &b), Verdict::Moved);
        let c = file(&[("w/storage_gini", 0.060)]);
        assert_eq!(judge(gini, "w/storage_gini", &a, &c), Verdict::Regressed);
        let blocks = by_name("core.network.blocks").unwrap();
        let a = file(&[("w/core.network.blocks", 100.0)]);
        let b = file(&[("w/core.network.blocks", 101.0)]);
        assert_eq!(
            judge(blocks, "w/core.network.blocks", &a, &b),
            Verdict::Changed
        );
        assert_eq!(
            judge(blocks, "w/core.network.blocks", &a, &Record::new()),
            Verdict::Absent
        );
        let seal = by_name("core.block.seal_us").unwrap();
        let a = file(&[("w/core.block.seal_us", 6.7)]);
        let b = file(&[("w/core.block.seal_us", 6.9)]);
        assert_eq!(judge(seal, "w/core.block.seal_us", &a, &b), Verdict::Info);
    }

    fn speed(median: f64, q1: f64, q3: f64, min: f64, max: f64) -> Record {
        file(&[
            ("w/sim_speedup", median),
            ("w/sim_speedup/q1", q1),
            ("w/sim_speedup/q3", q3),
            ("w/sim_speedup/min", min),
            ("w/sim_speedup/max", max),
        ])
    }

    #[test]
    fn host_metrics_are_banded() {
        let m = by_name("sim_speedup").unwrap();
        let a = speed(1000.0, 990.0, 1010.0, 980.0, 1020.0);
        let near = speed(950.0, 940.0, 960.0, 930.0, 970.0);
        assert_eq!(judge(m, "w/sim_speedup", &a, &near), Verdict::Unchanged);
        let slow = speed(850.0, 840.0, 860.0, 830.0, 870.0);
        assert_eq!(judge(m, "w/sim_speedup", &a, &slow), Verdict::Regressed);
        let fast = speed(1200.0, 1190.0, 1210.0, 1180.0, 1220.0);
        assert_eq!(judge(m, "w/sim_speedup", &a, &fast), Verdict::Improved);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let m = by_name("sim_speedup").unwrap();
        let noisy = speed(1000.0, 900.0, 1100.0, 850.0, 1150.0);
        let near = speed(990.0, 980.0, 1000.0, 970.0, 1010.0);
        assert_eq!(
            judge(m, "w/sim_speedup", &noisy, &near),
            Verdict::Unresolved
        );
        // …unless every reading of the change beats every reading of
        // the parent.
        let clear = speed(1500.0, 1490.0, 1510.0, 1400.0, 1600.0);
        assert_eq!(judge(m, "w/sim_speedup", &noisy, &clear), Verdict::Improved);
    }

    #[test]
    fn absolute_floors_widen_the_band_of_small_readings() {
        // setup_s: max(10 %, 0.05 s). 8 ms → 40 ms is inside the floor.
        let m = by_name("setup_s").unwrap();
        let a = file(&[("w/setup_s", 0.008)]);
        let b = file(&[("w/setup_s", 0.040)]);
        assert_eq!(judge(m, "w/setup_s", &a, &b), Verdict::Unchanged);
        let c = file(&[("w/setup_s", 0.070)]);
        assert_eq!(judge(m, "w/setup_s", &a, &c), Verdict::Regressed);
    }
}
