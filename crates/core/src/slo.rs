//! SLO health monitoring: rolling-window latency/availability evaluation
//! with threshold-breach alerts, summarized into [`SloReport`].
//!
//! The monitor runs **unconditionally** inside every simulation: it only
//! consumes numbers the network already computes (inclusion and fetch
//! latencies, request outcomes, reorg depths, quarantine counts), consumes
//! no RNG, and feeds nothing back into protocol decisions — so a run's
//! [`crate::network::RunReport`] carries an `slo` section whether or not a
//! telemetry session is armed, and reports stay bit-identical across
//! telemetry/span configurations.
//!
//! Evaluation rides the block cadence: each mined block trims every
//! rolling window to its 900 s span and compares the windowed p99
//! latencies, availability, deepest reorg, and quarantine count against
//! fixed thresholds (DESIGN §13). Alerts are edge-triggered — one
//! [`SloAlert`] per breach episode, recorded when an objective
//! *transitions* into breach — so a sustained outage produces one alert,
//! not one per block.

use edgechain_telemetry::SampleSet;
use std::collections::VecDeque;
use std::fmt;

/// SLO objective names, as they appear in alerts and trace events.
pub mod objective {
    /// Windowed p99 item inclusion latency (generate → packed) too high.
    pub const INCLUSION_P99: &str = "inclusion_p99_secs";
    /// Windowed p99 fetch/delivery latency too high.
    pub const FETCH_P99: &str = "fetch_p99_secs";
    /// Windowed fraction of resolved fetches that completed too low.
    pub const AVAILABILITY: &str = "availability";
    /// Deepest observed chain reorg exceeded the bound.
    pub const REORG_DEPTH: &str = "reorg_depth";
    /// Cumulative quarantine count exceeded the bound.
    pub const QUARANTINES: &str = "quarantines";
}

// Thresholds and window geometry, sized for the paper's §VI setup (60 s
// block interval; minutes-long inclusion waits are normal under Poisson
// packing): a healthy seeded chaos run stays at zero breaches, while a
// collapsed network (no storers reachable, runaway reorgs) trips them.

/// Rolling-window span, seconds, over which latency percentiles and
/// availability are evaluated.
const WINDOW_SECS: u64 = 900;
/// Minimum windowed sample count before a percentile or availability
/// objective is evaluated (tiny windows make p99 meaningless).
const MIN_WINDOW_SAMPLES: usize = 10;
/// Maximum acceptable windowed p99 inclusion latency, seconds.
pub const INCLUSION_P99_MAX_SECS: f64 = 600.0;
/// Maximum acceptable windowed p99 fetch latency, seconds.
const FETCH_P99_MAX_SECS: f64 = 120.0;
/// Minimum acceptable windowed availability (completed / resolved).
const AVAILABILITY_MIN: f64 = 0.75;
/// Maximum acceptable reorg depth, in discarded blocks.
const MAX_REORG_DEPTH: u64 = 8;
/// Maximum acceptable cumulative quarantine count.
const MAX_QUARANTINES: u64 = 20;

/// Overload accounting for one run, carried in
/// [`crate::network::RunReport::overload`]. Offered/admitted tallies and
/// queue high-water marks are maintained on every run; the *protection*
/// counters (sheds, denials, deferrals, ladder level) stay zero unless a
/// gate actually fired — [`OverloadReport::engaged`] — so a
/// default-configured run reports `offered == admitted` and nothing shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OverloadReport {
    /// Data items offered by the generator (open or closed loop).
    pub offered_items: u64,
    /// Items that passed admission and entered the pending queue.
    pub admitted_items: u64,
    /// Items shed at admission (bucket empty, queue full, or unpayable).
    pub shed_items: u64,
    /// Admitted items the streaming UFL solver could not place
    /// (`alloc.rejected` outcome).
    pub alloc_rejected: u64,
    /// Fetches offered (closed-loop requests plus open workload fetches).
    pub offered_fetches: u64,
    /// Fetches that passed admission and entered the retry pipeline.
    pub admitted_fetches: u64,
    /// Fetches shed at entry (bucket empty, inflight cap, degradation
    /// ladder, or unpayable).
    pub shed_fetches: u64,
    /// Fetches that exhausted every retry (explicit terminal failures).
    pub fetch_exhausted: u64,
    /// Retries denied by the global retry budget.
    pub retries_denied: u64,
    /// Proactive replications deferred by the degradation ladder (L2+).
    pub deferred_replications: u64,
    /// Repair sweeps deferred by the degradation ladder (L3).
    pub deferred_repairs: u64,
    /// High-water mark of the pending-metadata queue.
    pub peak_pending_items: u64,
    /// High-water mark of any node's in-flight fetch count.
    pub peak_inflight_fetches: u64,
    /// Deepest degradation-ladder rung reached (0–3).
    pub max_degrade_level: u8,
    /// Ledger tokens collected as admission fees.
    pub admission_tokens_charged: u64,
}

impl OverloadReport {
    /// Whether any overload-protection mechanism actually fired.
    pub fn engaged(&self) -> bool {
        self.shed_items > 0
            || self.shed_fetches > 0
            || self.alloc_rejected > 0
            || self.retries_denied > 0
            || self.deferred_replications > 0
            || self.deferred_repairs > 0
            || self.max_degrade_level > 0
    }
}

impl fmt::Display for OverloadReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "items {}/{} admitted ({} shed, {} alloc-rejected); fetches {}/{} \
             admitted ({} shed, {} exhausted); {} retries denied; deferred \
             {} replications / {} repairs; peak queue {} pending / {} \
             inflight; max degrade L{}; {} tokens charged",
            self.admitted_items,
            self.offered_items,
            self.shed_items,
            self.alloc_rejected,
            self.admitted_fetches,
            self.offered_fetches,
            self.shed_fetches,
            self.fetch_exhausted,
            self.retries_denied,
            self.deferred_replications,
            self.deferred_repairs,
            self.peak_pending_items,
            self.peak_inflight_fetches,
            self.max_degrade_level,
            self.admission_tokens_charged
        )
    }
}

/// Exact nearest-rank latency percentiles over a full run (or window).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: u64,
    /// Median, `None` when no sample was recorded.
    pub p50: Option<f64>,
    /// 95th percentile.
    pub p95: Option<f64>,
    /// 99th percentile.
    pub p99: Option<f64>,
}

impl LatencySummary {
    /// Summarizes a sample set (which it sorts in place).
    pub fn from_samples(samples: &mut SampleSet) -> LatencySummary {
        LatencySummary {
            count: samples.len() as u64,
            p50: samples.p50(),
            p95: samples.p95(),
            p99: samples.p99(),
        }
    }
}

impl fmt::Display for LatencySummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.p50, self.p95, self.p99) {
            (Some(p50), Some(p95), Some(p99)) => write!(
                f,
                "p50/p95/p99 = {p50:.2}/{p95:.2}/{p99:.2} s (n={})",
                self.count
            ),
            _ => write!(f, "no samples"),
        }
    }
}

/// One edge-triggered threshold breach: the instant an objective crossed
/// its threshold, with the observed and allowed values.
#[derive(Debug, Clone, PartialEq)]
pub struct SloAlert {
    /// Sim-clock milliseconds of the evaluation that detected the breach.
    pub t_ms: u64,
    /// Objective name (see [`objective`]).
    pub slo: &'static str,
    /// Observed windowed value.
    pub observed: f64,
    /// Configured threshold it violated.
    pub threshold: f64,
}

/// Full-run SLO summary carried in [`crate::network::RunReport::slo`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SloReport {
    /// Full-run inclusion latency percentiles (generate → packed).
    pub inclusion: LatencySummary,
    /// Full-run fetch/delivery latency percentiles.
    pub fetch: LatencySummary,
    /// Full-run availability (completed / resolved requests; 1.0 when
    /// nothing resolved).
    pub availability: f64,
    /// Deepest reorg observed over the run.
    pub max_reorg_depth: u64,
    /// Quarantines imposed over the run.
    pub quarantines: u64,
    /// Edge-triggered breach records, in detection order.
    pub alerts: Vec<SloAlert>,
    /// Number of breach episodes (equals `alerts.len()`).
    pub breaches: u64,
}

impl fmt::Display for SloReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} breaches; inclusion {}; fetch {}; availability {:.3}, \
             max reorg depth {}, quarantines {}",
            self.breaches,
            self.inclusion,
            self.fetch,
            self.availability,
            self.max_reorg_depth,
            self.quarantines
        )?;
        for a in &self.alerts {
            write!(
                f,
                "\n    breach @{:.1}s: {} = {:.3} (threshold {:.3})",
                a.t_ms as f64 / 1000.0,
                a.slo,
                a.observed,
                a.threshold
            )?;
        }
        Ok(())
    }
}

/// Tracks whether one objective is currently in breach, so alerts fire on
/// the ok→breach edge only.
#[derive(Debug, Clone, Default)]
struct BreachState {
    in_breach: bool,
}

impl BreachState {
    /// Returns `Some(alert)` exactly when the objective transitions into
    /// breach.
    fn update(
        &mut self,
        breached: bool,
        t_ms: u64,
        slo: &'static str,
        observed: f64,
        threshold: f64,
    ) -> Option<SloAlert> {
        let fresh = breached && !self.in_breach;
        self.in_breach = breached;
        fresh.then_some(SloAlert {
            t_ms,
            slo,
            observed,
            threshold,
        })
    }
}

/// The rolling-window health monitor. Record samples as they happen,
/// call [`SloMonitor::evaluate`] on the block cadence, and fold the
/// result into the run report with [`SloMonitor::into_report`].
#[derive(Debug, Clone, Default)]
pub struct SloMonitor {
    // Rolling windows: (t_ms, sample) in arrival order, trimmed at each
    // evaluation. Request outcomes carry only their timestamp.
    inclusion_win: VecDeque<(u64, f64)>,
    fetch_win: VecDeque<(u64, f64)>,
    completed_win: VecDeque<u64>,
    failed_win: VecDeque<u64>,
    inclusion_state: BreachState,
    fetch_state: BreachState,
    availability_state: BreachState,
    reorg_state: BreachState,
    quarantine_state: BreachState,
    alerts: Vec<SloAlert>,
}

impl SloMonitor {
    /// Builds a monitor with empty windows and no objective in breach.
    pub fn new() -> SloMonitor {
        SloMonitor::default()
    }

    /// Records one item inclusion latency sample.
    pub fn record_inclusion(&mut self, t_ms: u64, secs: f64) {
        self.inclusion_win.push_back((t_ms, secs));
    }

    /// Records one completed-fetch latency sample.
    pub fn record_fetch(&mut self, t_ms: u64, secs: f64) {
        self.fetch_win.push_back((t_ms, secs));
        self.completed_win.push_back(t_ms);
    }

    /// Records a fetch that exhausted its retries.
    pub fn record_failure(&mut self, t_ms: u64) {
        self.failed_win.push_back(t_ms);
    }

    /// Evaluates every objective over the rolling window ending at
    /// `t_ms`, given the run-wide deepest reorg and quarantine count.
    /// Returns the alerts raised by *this* evaluation (objectives that
    /// just transitioned into breach).
    pub fn evaluate(&mut self, t_ms: u64, max_reorg_depth: u64, quarantines: u64) -> Vec<SloAlert> {
        let cutoff = t_ms.saturating_sub(WINDOW_SECS * 1000);
        while self.inclusion_win.front().is_some_and(|(t, _)| *t < cutoff) {
            self.inclusion_win.pop_front();
        }
        while self.fetch_win.front().is_some_and(|(t, _)| *t < cutoff) {
            self.fetch_win.pop_front();
        }
        while self.completed_win.front().is_some_and(|t| *t < cutoff) {
            self.completed_win.pop_front();
        }
        while self.failed_win.front().is_some_and(|t| *t < cutoff) {
            self.failed_win.pop_front();
        }

        let mut raised = Vec::new();
        let windowed_p99 = |win: &VecDeque<(u64, f64)>| -> Option<f64> {
            if win.len() < MIN_WINDOW_SAMPLES {
                return None;
            }
            let mut s: SampleSet = win.iter().map(|(_, v)| *v).collect();
            s.p99()
        };
        if let Some(p99) = windowed_p99(&self.inclusion_win) {
            raised.extend(self.inclusion_state.update(
                p99 > INCLUSION_P99_MAX_SECS,
                t_ms,
                objective::INCLUSION_P99,
                p99,
                INCLUSION_P99_MAX_SECS,
            ));
        }
        if let Some(p99) = windowed_p99(&self.fetch_win) {
            raised.extend(self.fetch_state.update(
                p99 > FETCH_P99_MAX_SECS,
                t_ms,
                objective::FETCH_P99,
                p99,
                FETCH_P99_MAX_SECS,
            ));
        }
        let resolved = self.completed_win.len() + self.failed_win.len();
        if resolved >= MIN_WINDOW_SAMPLES {
            let availability = self.completed_win.len() as f64 / resolved as f64;
            raised.extend(self.availability_state.update(
                availability < AVAILABILITY_MIN,
                t_ms,
                objective::AVAILABILITY,
                availability,
                AVAILABILITY_MIN,
            ));
        }
        raised.extend(self.reorg_state.update(
            max_reorg_depth > MAX_REORG_DEPTH,
            t_ms,
            objective::REORG_DEPTH,
            max_reorg_depth as f64,
            MAX_REORG_DEPTH as f64,
        ));
        raised.extend(self.quarantine_state.update(
            quarantines > MAX_QUARANTINES,
            t_ms,
            objective::QUARANTINES,
            quarantines as f64,
            MAX_QUARANTINES as f64,
        ));
        self.alerts.extend(raised.iter().cloned());
        raised
    }

    /// All alerts raised so far.
    pub fn alerts(&self) -> &[SloAlert] {
        &self.alerts
    }

    /// Folds the monitor into the full-run report. The latency summaries
    /// come from the caller's **full-run** sample sets (the windows here
    /// only cover the trailing 900 s).
    pub fn into_report(
        self,
        inclusion: LatencySummary,
        fetch: LatencySummary,
        availability: f64,
        max_reorg_depth: u64,
        quarantines: u64,
    ) -> SloReport {
        let breaches = self.alerts.len() as u64;
        SloReport {
            inclusion,
            fetch,
            availability,
            max_reorg_depth,
            quarantines,
            alerts: self.alerts,
            breaches,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_window_raises_nothing() {
        let mut m = SloMonitor::new();
        for i in 0..50 {
            m.record_inclusion(i * 1000, 30.0);
            m.record_fetch(i * 1000, 1.5);
        }
        let raised = m.evaluate(60_000, 0, 0);
        assert!(raised.is_empty());
        assert!(m.alerts().is_empty());
    }

    #[test]
    fn breach_is_edge_triggered_once_per_episode() {
        let mut m = SloMonitor::new();
        for i in 0..MIN_WINDOW_SAMPLES as u64 {
            m.record_inclusion(i * 100, 700.0); // over the 600 s bar
        }
        let first = m.evaluate(1_000, 0, 0);
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].slo, objective::INCLUSION_P99);
        assert_eq!(first[0].observed, 700.0);
        assert_eq!(first[0].threshold, INCLUSION_P99_MAX_SECS);
        // Still breached: no second alert.
        assert!(m.evaluate(2_000, 0, 0).is_empty());
        assert_eq!(m.alerts().len(), 1);
    }

    #[test]
    fn recovery_rearms_the_alert() {
        let mut m = SloMonitor::new();
        let record = |m: &mut SloMonitor, from_ms: u64, secs: f64| {
            for i in 0..MIN_WINDOW_SAMPLES as u64 {
                m.record_fetch(from_ms + i * 100, secs);
            }
        };
        record(&mut m, 0, 500.0); // over the 120 s bar
        assert_eq!(m.evaluate(1_000, 0, 0).len(), 1);
        // Old samples age out of the 900 s window; fresh healthy ones
        // recover the objective.
        let later = WINDOW_SECS * 1000 + 100_000;
        record(&mut m, later, 0.1);
        assert!(m.evaluate(later + 1_000, 0, 0).is_empty());
        // Breach again → second episode, second alert.
        record(&mut m, later + 2_000, 500.0);
        assert_eq!(m.evaluate(later + 3_000, 0, 0).len(), 1);
        assert_eq!(m.alerts().len(), 2);
    }

    #[test]
    fn small_windows_skip_percentile_objectives() {
        let mut m = SloMonitor::new();
        for i in 0..MIN_WINDOW_SAMPLES as u64 - 1 {
            m.record_inclusion(i, 10_000.0);
            m.record_failure(i);
        }
        assert!(m.evaluate(1_000, 0, 0).is_empty(), "below min samples");
    }

    #[test]
    fn availability_reorg_and_quarantine_objectives() {
        let mut m = SloMonitor::new();
        m.record_fetch(0, 0.1);
        for i in 1..MIN_WINDOW_SAMPLES as u64 {
            m.record_failure(i * 10);
        }
        let raised = m.evaluate(1_000, MAX_REORG_DEPTH + 1, MAX_QUARANTINES + 1);
        let names: Vec<&str> = raised.iter().map(|a| a.slo).collect();
        assert_eq!(
            names,
            [
                objective::AVAILABILITY,
                objective::REORG_DEPTH,
                objective::QUARANTINES
            ]
        );
        assert_eq!(raised[0].observed, 0.1);
        // At the bounds the reorg and quarantine objectives recover; the
        // still-low availability raises nothing new.
        assert!(m
            .evaluate(2_000, MAX_REORG_DEPTH, MAX_QUARANTINES)
            .is_empty());
        let again = m.evaluate(3_000, MAX_REORG_DEPTH + 1, MAX_QUARANTINES + 1);
        assert_eq!(again.len(), 2, "both re-armed");
    }

    #[test]
    fn report_folding_keeps_alerts_and_counts() {
        let mut m = SloMonitor::new();
        m.evaluate(5_000, 0, MAX_QUARANTINES + 1);
        let mut inc: SampleSet = [10.0, 20.0].into_iter().collect();
        let mut fet: SampleSet = [1.0].into_iter().collect();
        let report = m.into_report(
            LatencySummary::from_samples(&mut inc),
            LatencySummary::from_samples(&mut fet),
            0.97,
            0,
            MAX_QUARANTINES + 1,
        );
        assert_eq!(report.breaches, 1);
        assert_eq!(report.alerts.len(), 1);
        assert_eq!(report.inclusion.count, 2);
        assert_eq!(report.inclusion.p99, Some(20.0));
        assert_eq!(report.fetch.p50, Some(1.0));
        let text = format!("{report}");
        assert!(text.contains("1 breaches"));
        assert!(text.contains("quarantines = 21")); // alert detail line
    }

    #[test]
    fn overload_report_default_is_zero_and_disengaged() {
        let r = OverloadReport::default();
        assert!(!r.engaged());
        assert_eq!(r.offered_items, 0);
        let text = format!("{r}");
        assert!(text.contains("items 0/0 admitted"));
    }

    #[test]
    fn overload_report_engages_on_any_protection() {
        let shed = OverloadReport {
            shed_fetches: 1,
            ..OverloadReport::default()
        };
        assert!(shed.engaged());
        let deferred = OverloadReport {
            deferred_repairs: 2,
            ..OverloadReport::default()
        };
        assert!(deferred.engaged());
    }

    #[test]
    fn latency_summary_display_handles_empty() {
        let s = LatencySummary::default();
        assert_eq!(format!("{s}"), "no samples");
    }
}
