//! SLO health monitoring: rolling-window latency/availability evaluation
//! with threshold-breach alerts, over the one record of a run's latency
//! samples.
//!
//! The monitor runs **unconditionally** inside every simulation: it only
//! consumes numbers the network already computes (inclusion and fetch
//! latencies, request outcomes, reorg depths, quarantine counts), consumes
//! no RNG, and feeds nothing back into protocol decisions — so a run's
//! [`crate::network::RunReport`] carries its latency summaries and
//! `slo_alerts` whether or not a telemetry session is armed, and reports
//! stay bit-identical across telemetry/span configurations.
//!
//! Each packed item's inclusion latency and each completed fetch's latency
//! is recorded here once, with its timestamp, and kept for the whole run;
//! [`SloMonitor::finish`] summarizes both series into the report.
//!
//! Evaluation rides the block cadence: each mined block advances every
//! rolling window to its 900 s span and compares the windowed p99
//! latencies, availability, deepest reorg, and quarantine count against
//! fixed thresholds (DESIGN §13). Alerts are edge-triggered — one
//! [`SloAlert`] per breach episode, recorded when an objective
//! *transitions* into breach — so a sustained outage produces one alert,
//! not one per block.

use edgechain_telemetry::{self as telemetry, RunningStats, SampleSet};
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
             inflight; max degrade L{}",
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
            self.max_degrade_level
        )
    }
}

/// Whole-run latency summary: count, exact nearest-rank percentiles, mean
/// and maximum.
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
    /// Mean, summed in recording order (Figs. 4(c) and 5(a) plot the
    /// fetch mean).
    pub mean: Option<f64>,
    /// Largest sample.
    pub max: Option<f64>,
}

impl LatencySummary {
    /// Summarizes `samples`, given in recording order: the mean and the
    /// maximum are [`RunningStats`]' over that order, the percentiles
    /// [`SampleSet`]'s.
    pub fn of(samples: impl IntoIterator<Item = f64>) -> LatencySummary {
        let (mut stats, mut set) = (RunningStats::new(), SampleSet::new());
        for v in samples {
            stats.record(v);
            set.record(v);
        }
        LatencySummary {
            count: stats.count(),
            p50: set.p50(),
            p95: set.p95(),
            p99: set.p99(),
            mean: (stats.count() > 0).then(|| stats.mean()),
            max: stats.max(),
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

/// One whole-run series in recording order. Its rolling window is the
/// tail from `start`, which [`Series::trim`] advances from the front past
/// samples stamped before the cutoff and stops at the first one inside
/// the window, even when an older sample sits behind it.
#[derive(Debug, Clone, Default)]
struct Series<T> {
    samples: Vec<T>,
    start: usize,
}

impl<T> Series<T> {
    fn trim(&mut self, cutoff: u64, stamp: impl Fn(&T) -> u64) {
        while self
            .samples
            .get(self.start)
            .is_some_and(|s| stamp(s) < cutoff)
        {
            self.start += 1;
        }
    }

    fn window(&self) -> &[T] {
        &self.samples[self.start..]
    }
}

impl Series<(u64, f64)> {
    /// The windowed p99, once the window holds enough samples.
    fn windowed_p99(&self) -> Option<f64> {
        let win = self.window();
        if win.len() < MIN_WINDOW_SAMPLES {
            return None;
        }
        let mut s: SampleSet = win.iter().map(|(_, v)| *v).collect();
        s.p99()
    }

    /// The whole-run summary. On a traced run each sample also goes to
    /// histogram `name`, in recording order.
    fn summarize(&self, name: &'static str) -> LatencySummary {
        if telemetry::is_enabled() {
            for &(_, v) in &self.samples {
                telemetry::record(name, v);
            }
        }
        LatencySummary::of(self.samples.iter().map(|(_, v)| *v))
    }
}

/// The rolling-window health monitor and the run's one record of its
/// latency samples. Record samples as they happen, call
/// [`SloMonitor::evaluate`] on the block cadence, and summarize the run
/// with [`SloMonitor::finish`].
#[derive(Debug, Clone, Default)]
pub struct SloMonitor {
    // (t_ms, secs) per packed item and per completed fetch, and the
    // instant of each fetch that exhausted its retries; a completed
    // fetch's timestamp is its request's outcome.
    inclusion: Series<(u64, f64)>,
    fetch: Series<(u64, f64)>,
    failed: Series<u64>,
    inclusion_state: BreachState,
    fetch_state: BreachState,
    availability_state: BreachState,
    reorg_state: BreachState,
    quarantine_state: BreachState,
    alerts: Vec<SloAlert>,
}

impl SloMonitor {
    /// Builds a monitor with empty series and no objective in breach.
    pub fn new() -> SloMonitor {
        SloMonitor::default()
    }

    /// Records one item inclusion latency sample.
    pub fn record_inclusion(&mut self, t_ms: u64, secs: f64) {
        self.inclusion.samples.push((t_ms, secs));
    }

    /// Records one completed-fetch latency sample.
    pub fn record_fetch(&mut self, t_ms: u64, secs: f64) {
        self.fetch.samples.push((t_ms, secs));
    }

    /// Records a fetch that exhausted its retries.
    pub fn record_failure(&mut self, t_ms: u64) {
        self.failed.samples.push(t_ms);
    }

    /// Evaluates every objective over the rolling window ending at
    /// `t_ms`, given the run-wide deepest reorg and quarantine count.
    /// Returns the alerts raised by *this* evaluation (objectives that
    /// just transitioned into breach).
    pub fn evaluate(&mut self, t_ms: u64, max_reorg_depth: u64, quarantines: u64) -> Vec<SloAlert> {
        let cutoff = t_ms.saturating_sub(WINDOW_SECS * 1000);
        self.inclusion.trim(cutoff, |s| s.0);
        self.fetch.trim(cutoff, |s| s.0);
        self.failed.trim(cutoff, |t| *t);

        let mut raised = Vec::new();
        if let Some(p99) = self.inclusion.windowed_p99() {
            raised.extend(self.inclusion_state.update(
                p99 > INCLUSION_P99_MAX_SECS,
                t_ms,
                objective::INCLUSION_P99,
                p99,
                INCLUSION_P99_MAX_SECS,
            ));
        }
        if let Some(p99) = self.fetch.windowed_p99() {
            raised.extend(self.fetch_state.update(
                p99 > FETCH_P99_MAX_SECS,
                t_ms,
                objective::FETCH_P99,
                p99,
                FETCH_P99_MAX_SECS,
            ));
        }
        let completed = self.fetch.window().len();
        let resolved = completed + self.failed.window().len();
        if resolved >= MIN_WINDOW_SAMPLES {
            let availability = completed as f64 / resolved as f64;
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

    /// Ends the run: the whole-run inclusion and fetch summaries, the
    /// whole-run count of fetches that exhausted their retries, and every
    /// alert raised, in detection order. A traced run's
    /// `slo.inclusion_secs` and `slo.fetch_secs` histograms are written
    /// here, each sample once.
    pub fn finish(self) -> (LatencySummary, LatencySummary, u64, Vec<SloAlert>) {
        let inclusion = self.inclusion.summarize("slo.inclusion_secs");
        let fetch = self.fetch.summarize("slo.fetch_secs");
        let failed = self.failed.samples.len() as u64;
        (inclusion, fetch, failed, self.alerts)
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
        m.record_inclusion(1_000, 20.0);
        m.record_inclusion(2_000, 10.0);
        m.record_fetch(3_000, 1.0);
        m.record_failure(4_000);
        m.evaluate(5_000, 0, MAX_QUARANTINES + 1);
        // The window moves past every sample; the whole-run figures keep
        // them all.
        m.evaluate(WINDOW_SECS * 1000 + 5_000, 0, MAX_QUARANTINES + 1);
        let (inclusion, fetch, failed, alerts) = m.finish();
        assert_eq!(failed, 1);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].slo, objective::QUARANTINES);
        assert_eq!(alerts[0].observed, (MAX_QUARANTINES + 1) as f64);
        assert_eq!(inclusion.count, 2);
        assert_eq!(inclusion.p99, Some(20.0));
        assert_eq!(inclusion.mean, Some(15.0));
        assert_eq!(fetch.p50, Some(1.0));
        assert_eq!(fetch.max, Some(1.0));
    }

    #[test]
    fn a_late_stamped_fetch_holds_the_window_like_a_trimmed_deque() {
        // A fetch stamped at its arrival lands after one stamped earlier,
        // so the series is out of order. The window is trimmed from the
        // front, as a deque popped from the front is: the late stamp stops
        // the trim, and the slow samples behind it stay in the window.
        let mut m = SloMonitor::new();
        let mut deque = std::collections::VecDeque::new();
        let mut record = |m: &mut SloMonitor, t_ms: u64, secs: f64| {
            m.record_fetch(t_ms, secs);
            deque.push_back((t_ms, secs));
        };
        record(&mut m, 1_500_000, 0.5);
        for i in 0..MIN_WINDOW_SAMPLES as u64 {
            record(&mut m, 100_000 + i, 500.0);
        }
        let now = 1_100_000;
        let cutoff = now - WINDOW_SECS * 1000;
        while deque.front().is_some_and(|(t, _)| *t < cutoff) {
            deque.pop_front();
        }
        let mut kept: SampleSet = deque.iter().map(|(_, v)| *v).collect();
        assert_eq!(deque.len(), MIN_WINDOW_SAMPLES + 1, "nothing trimmed");
        let raised = m.evaluate(now, 0, 0);
        assert_eq!(raised.len(), 1);
        assert_eq!(raised[0].slo, objective::FETCH_P99);
        assert_eq!(Some(raised[0].observed), kept.p99());
        // Once the cutoff passes the late stamp, everything goes.
        assert!(m
            .evaluate(1_500_000 + WINDOW_SECS * 1000 + 1, 0, 0)
            .is_empty());
        assert!(m.fetch.window().is_empty());
    }

    #[test]
    fn latency_summary_mean_and_max_match_running_stats() {
        let samples = [3.7, 0.1, 12.25, 0.3, 7.0 / 3.0, 1e-3, 9.9, 0.2];
        let stats: RunningStats = samples.iter().copied().collect();
        let s = LatencySummary::of(samples);
        assert_eq!(s.count, stats.count());
        assert_eq!(s.mean.map(f64::to_bits), Some(stats.mean().to_bits()));
        assert_eq!(s.max.map(f64::to_bits), stats.max().map(f64::to_bits));
        assert_eq!((s.p50, s.p99), (Some(0.3), Some(12.25)));
        let none = LatencySummary::of([]);
        assert_eq!(none, LatencySummary::default());
        assert_eq!(
            (none.p50, none.p95, none.p99, none.mean, none.max),
            (None, None, None, None, None)
        );
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
