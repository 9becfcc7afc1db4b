//! The parent side: spawns one child process per instance, one at a
//! time, and folds their records into per-workload results.
//!
//! The harness adds no threads of its own; the simulator's BFS pool
//! already caps itself at `available_parallelism`.

use crate::child::Mode;
use crate::metrics::{self, Better, Class, END_TO_END, PER_LAYER};
use crate::record::Record;
use crate::spans::{Span, Spans};
use crate::stats;
use crate::workloads::{Workload, WORKLOADS};
use std::process::Command;
use std::time::{Duration, Instant};

/// Repeats per workload of the full run.
pub const FULL_REPEATS: usize = 7;

/// Smoke mode divides every horizon by this. The workloads are already
/// cut to a few seconds each; at a tenth `scale` would not reach its
/// first block and `soak` would not see a rejoiner.
const SMOKE_DIV: u64 = 2;

/// Timed repeats a contract run makes at the least, however long one is.
const MIN_CONTRACT_REPEATS: usize = 3;

/// A set-up shorter than this is topped up with set-up-only children
/// until [`SETUP_SAMPLES`] readings exist: a few milliseconds of work in
/// a fresh process jitter by half their value from one start to the next.
const SHORT_SETUP_SECS: f64 = 0.15;
const SETUP_SAMPLES: usize = 15;
const TOP_UP_SECS: f64 = 1.5;

/// The drills time about this many metrics, plus the inputs they build;
/// what is left of `--seconds` is divided by it.
const DRILL_SLOTS: u32 = 40;

/// Drill budget per timed metric of the full run.
const FULL_DRILL_BUDGET: Duration = Duration::from_millis(150);

/// The snapshot and invariant drills sign every live item; beyond this
/// the drill would spend its time building input.
const MAX_DRILLED_ITEMS: f64 = 2_000.0;

/// Everything measured for one workload. A *pass* is one panel: every
/// instance once, each in its own child process, folded by
/// [`metrics::combine`].
#[derive(Default)]
pub struct Measured {
    /// Timed passes at the full horizon.
    pub timed: Vec<Record>,
    /// Set-up-only passes topping up `setup_s`.
    pub setups: Vec<Record>,
    /// The traced pass at the trace horizon.
    pub traced: Option<Record>,
    /// Its untraced twin, run right after it at the same horizon.
    pub untraced: Option<Record>,
    /// The drills.
    pub drills: Option<Record>,
    /// Every check that failed, as printable reasons.
    pub failures: Vec<String>,
    /// Instance runs attempted.
    pub attempted: u64,
    /// Instance runs that broke a gate or never finished, plus panel
    /// checks (health bars, digest identity) that failed.
    pub failed: u64,
}

/// Spawns children and keeps their spans.
pub struct Harness {
    seed: u64,
    /// Divides every horizon (more than 1 in smoke mode).
    horizon_div: u64,
    /// Harness spans of this process and every child.
    pub spans: Spans,
}

impl Harness {
    /// A harness whose span clock starts now.
    pub fn new(seed: u64, horizon_div: u64) -> Self {
        Harness {
            seed,
            horizon_div,
            spans: Spans::new(Instant::now()),
        }
    }

    fn minutes(&self, full: u64) -> u64 {
        (full / self.horizon_div).max(1)
    }

    /// Runs one child to completion and returns its result record.
    fn child(
        &mut self,
        w: &Workload,
        minutes: u64,
        instance: u64,
        mode: Mode,
    ) -> Result<Record, String> {
        let mut cmd = Command::new(std::env::current_exe().expect("own path"));
        cmd.arg("child")
            .args(["--workload", w.name])
            .args(["--seed", &self.seed.to_string()])
            .args(["--minutes", &minutes.to_string()])
            .args(["--instance", &instance.to_string()]);
        let label = match mode {
            Mode::Timed => "timed",
            Mode::Traced => "traced",
            Mode::Setup => "setup",
            Mode::Drills {
                items_per_block,
                live_items,
                budget,
            } => {
                cmd.args(["--items-per-block", &items_per_block.to_string()])
                    .args(["--live-items", &live_items.to_string()])
                    .args(["--budget-ms", &budget.as_millis().to_string()]);
                "drills"
            }
        };
        cmd.args(["--mode", label]);
        let name = format!("child:{}[{instance}]:{label}", w.name);
        let (outcome, _took) = self.spans.scope(&name, |spans| {
            let offset_us = spans.clock_us();
            let output = cmd
                .output()
                .map_err(|e| format!("{name}: spawn failed: {e}"))?;
            if !output.status.success() {
                let stderr = String::from_utf8_lossy(&output.stderr);
                return Err(format!("{name}: {}", stderr.trim()));
            }
            let mut result = None;
            let mut child_spans = Vec::new();
            for line in String::from_utf8_lossy(&output.stdout).lines() {
                let record = Record::parse(line).map_err(|e| format!("{name}: {e}: {line}"))?;
                match Span::from_record(&record) {
                    Some(span) => child_spans.push(span),
                    None => result = Some(record),
                }
            }
            spans.adopt(child_spans, offset_us);
            result.ok_or_else(|| format!("{name}: no result record"))
        });
        outcome
    }

    /// One pass: every instance of `w` in `mode`, folded into a panel
    /// record. Failed instances leave their reasons in `m.failures`; a
    /// panel that lost one is `None`.
    fn pass(&mut self, w: &Workload, minutes: u64, mode: Mode, m: &mut Measured) -> Option<Record> {
        let runs = matches!(mode, Mode::Timed | Mode::Traced);
        let mut instances = Vec::new();
        for instance in 0..w.instances {
            m.attempted += u64::from(runs);
            match self.child(w, minutes, instance, mode) {
                Ok(record) => {
                    if let Some(broken) = record.get_text("broken").filter(|b| !b.is_empty()) {
                        m.failures.push(broken.to_string());
                        m.failed += 1;
                    }
                    instances.push(record);
                }
                Err(reason) => {
                    m.failures.push(reason);
                    m.failed += u64::from(runs);
                }
            }
        }
        if instances.len() as u64 != w.instances {
            return None;
        }
        let mut panel = metrics::combine(&instances);
        if runs {
            // The panel's identity: its instances' digests, in order.
            let digests: String = instances
                .iter()
                .filter_map(|r| r.get_text("report_digest"))
                .collect();
            panel.text("report_digest", edgechain_crypto::sha256(digests).to_hex());
            if minutes == self.minutes(w.minutes) {
                let bars = w.broken_bars(self.seed, self.horizon_div == 1, &panel);
                m.failed += bars.len() as u64;
                m.failures.extend(bars);
            }
        }
        Some(panel)
    }

    /// One timed repeat at the full horizon; returns how long it took.
    pub fn timed(&mut self, w: &Workload, m: &mut Measured) -> Option<f64> {
        let start = Instant::now();
        let panel = self.pass(w, self.minutes(w.minutes), Mode::Timed, m)?;
        m.timed.push(panel);
        Some(start.elapsed().as_secs_f64())
    }

    /// Tops a short set-up up to [`SETUP_SAMPLES`] readings, for at most
    /// [`TOP_UP_SECS`].
    pub fn top_up_setup(&mut self, w: &Workload, m: &mut Measured) {
        let walls: Vec<f64> = m
            .timed
            .iter()
            .filter_map(|r| r.get_num("setup_s/wall"))
            .collect();
        if walls.is_empty() || stats::median(&walls) >= SHORT_SETUP_SECS {
            return;
        }
        let start = Instant::now();
        while walls.len() + m.setups.len() < SETUP_SAMPLES
            && start.elapsed().as_secs_f64() < TOP_UP_SECS
        {
            match self.pass(w, self.minutes(w.minutes), Mode::Setup, m) {
                Some(panel) => m.setups.push(panel),
                None => return,
            }
        }
    }

    /// The traced pass, its untraced twin, and the drills at the shape
    /// the traced pass saw. The drills get [`FULL_DRILL_BUDGET`] per
    /// timed metric, or what is left until `deadline` divided among them.
    pub fn layers(&mut self, w: &Workload, m: &mut Measured, deadline: Option<Instant>) {
        let minutes = self.minutes(w.trace_minutes);
        m.traced = self.pass(w, minutes, Mode::Traced, m);
        m.untraced = self.pass(w, minutes, Mode::Timed, m);
        let Some(traced) = &m.traced else { return };
        let shape = |key: &str| traced.get_num(key).unwrap_or(1.0);
        let budget = match deadline {
            Some(deadline) => deadline
                .saturating_duration_since(Instant::now())
                .checked_div(DRILL_SLOTS)
                .unwrap_or_default()
                .clamp(Duration::from_millis(20), FULL_DRILL_BUDGET * 2),
            None => FULL_DRILL_BUDGET,
        };
        let mode = Mode::Drills {
            items_per_block: shape("aux.items_per_block") as usize,
            live_items: shape("aux.live_items").min(MAX_DRILLED_ITEMS) as usize,
            budget,
        };
        match self.child(w, minutes, 0, mode) {
            Ok(record) => m.drills = Some(record),
            Err(reason) => m.failures.push(reason),
        }
    }
}

/// Checks digest identity: across the timed repeats, between the traced
/// pass and its untraced twin, and — where both ran the same horizon —
/// between those and the repeats.
pub fn check_digests(w: &Workload, m: &mut Measured) {
    let digest = |r: &Record| r.get_text("report_digest").map(str::to_string);
    let timed: Vec<String> = m.timed.iter().filter_map(digest).collect();
    if timed.windows(2).any(|pair| pair[0] != pair[1]) {
        m.failures
            .push(format!("{}: report digest differs between repeats", w.name));
        m.failed += 1;
    }
    let traced = m.traced.as_ref().and_then(digest);
    let untraced = m.untraced.as_ref().and_then(digest);
    if traced.is_some() && traced != untraced {
        m.failures.push(format!(
            "{}: report digest differs between the traced and the untraced run",
            w.name
        ));
        m.failed += 1;
    }
    if w.trace_minutes == w.minutes {
        if let (Some(a), Some(b)) = (timed.first(), &untraced) {
            if a != b {
                m.failures.push(format!(
                    "{}: report digest differs between a repeat and the layer pass",
                    w.name
                ));
                m.failed += 1;
            }
        }
    }
}

/// Folds one workload's passes into a flat summary: every end-to-end and
/// per-layer metric that is defined, by name, plus `<name>/min…/max` for
/// host metrics and `<name>/wall` for the fastest raw reading.
pub fn summarize(m: &Measured) -> Record {
    let mut out = Record::new();
    if let Some(first) = m.timed.first() {
        out.text(
            "report_digest",
            first.get_text("report_digest").unwrap_or_default(),
        );
        for key in ["ops_attempted", "ops_failed"] {
            out.num(key, first.get_num(key).unwrap_or(0.0));
        }
    }
    for metric in &END_TO_END {
        let series = |key: &str| -> Vec<f64> {
            let setups = (metric.name == "setup_s").then_some(&m.setups);
            m.timed
                .iter()
                .chain(setups.into_iter().flatten())
                .filter_map(|r| r.get_num(key))
                .collect()
        };
        let values = series(metric.name);
        if values.is_empty() {
            continue;
        }
        if metric.class != Class::Host {
            // Simulated: identical on every repeat (the digest check
            // enforces it), so the first reading is the reading.
            out.num(metric.name, values[0]);
            continue;
        }
        // Calibrated readings scatter both ways: report the median.
        let q = stats::quartiles(&values);
        out.num(metric.name, q.median);
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        out.num(format!("{}/min", metric.name), lo)
            .num(format!("{}/q1", metric.name), q.q1)
            .num(format!("{}/q3", metric.name), q.q3)
            .num(format!("{}/max", metric.name), hi)
            .num(format!("{}/n", metric.name), values.len() as f64);
        // Raw wall noise on a shared box is one-sided: the fastest
        // repeat is the one nobody interrupted.
        let raw = series(&format!("{}/wall", metric.name));
        let best = match metric.better {
            Better::Higher => raw.iter().copied().fold(f64::NAN, f64::max),
            Better::Lower => raw.iter().copied().fold(f64::NAN, f64::min),
        };
        if best.is_finite() {
            out.num(format!("{}/wall", metric.name), best);
        }
    }
    layer_metrics(m, &mut out);
    out
}

/// The per-layer metrics: `[reg]`/`[rep]` from the traced pass, `[drill]`
/// from the drills, and the estimates that combine them.
fn layer_metrics(m: &Measured, out: &mut Record) {
    let (Some(traced), Some(untraced)) = (&m.traced, &m.untraced) else {
        return;
    };
    let mut derived = Record::new();
    let wall = untraced.get_num("run_s/wall").unwrap_or(f64::NAN);
    if let (Some(t), Some(u)) = (traced.get_num("run_s"), untraced.get_num("run_s")) {
        derived.num("telemetry.overhead_ratio", t / u);
    }
    if let Some(rss) = traced.get_num("peak_rss_mb") {
        derived.num("telemetry.traced_rss_mb", rss);
    }
    if let Some(drills) = &m.drills {
        // A layer's estimated share: its drilled per-call cost times how
        // often the run called it, over the untraced run's wall time.
        let mut estimate = |name: &str, cost_key: &str, to_secs: f64, calls_key: &str| {
            if let (Some(cost), Some(calls)) = (drills.get_num(cost_key), traced.get_num(calls_key))
            {
                derived.num(name, cost * to_secs * calls / wall);
            }
        };
        estimate(
            "sim.topology.est_share",
            "sim.topology.mobility_rebuild_ms",
            1e-3,
            "aux.mobility_steps",
        );
        estimate(
            "core.invariant.est_share",
            "core.invariant.observe_us",
            1e-6,
            "aux.invariant_walks",
        );
        estimate("raft.est_share", "raft.msg_ns", 1e-9, "raft.messages");
    }
    for metric in &PER_LAYER {
        let sources = [Some(&derived), m.drills.as_ref(), Some(traced)];
        if let Some(v) = sources
            .into_iter()
            .flatten()
            .find_map(|r| r.get_num(metric.name))
        {
            out.num(metric.name, v);
        }
    }
}

/// Runs every workload: `repeats` timed passes interleaved round-robin,
/// so that a noisy minute lands on all of them, then the layer passes.
pub fn run_all(seed: u64, smoke: bool) -> (Vec<Measured>, Spans) {
    let mut harness = Harness::new(seed, if smoke { SMOKE_DIV } else { 1 });
    let mut measured: Vec<Measured> = WORKLOADS.iter().map(|_| Measured::default()).collect();
    // Smoke: one repeat and one rerun for the digest, nothing else.
    let repeats = if smoke { 2 } else { FULL_REPEATS };
    for round in 0..repeats {
        for (w, m) in WORKLOADS.iter().zip(&mut measured) {
            eprintln!("[{}/{repeats}] {}", round + 1, w.name);
            harness.timed(w, m);
        }
    }
    for (w, m) in WORKLOADS.iter().zip(&mut measured) {
        if !smoke {
            eprintln!("[layers] {}", w.name);
            harness.top_up_setup(w, m);
            harness.layers(w, m, None);
        }
        check_digests(w, m);
    }
    (measured, harness.spans)
}

/// One workload for `seconds`, as the benchmark contract runs it: timed
/// repeats with `trace` off, the layer passes with it on.
pub fn run_contract(w: &Workload, seed: u64, seconds: f64, trace: bool) -> Measured {
    let mut harness = Harness::new(seed, 1);
    let mut m = Measured::default();
    let start = Instant::now();
    if trace {
        let deadline = start + Duration::from_secs_f64(seconds);
        harness.layers(w, &mut m, Some(deadline));
    } else {
        // Stop where one more repeat would end further past the deadline
        // than this one ended short of it.
        while let Some(unit) = harness.timed(w, &mut m) {
            let elapsed = start.elapsed().as_secs_f64();
            if m.timed.len() >= MIN_CONTRACT_REPEATS && elapsed + unit / 2.0 > seconds {
                break;
            }
        }
        harness.top_up_setup(w, &mut m);
    }
    check_digests(w, &mut m);
    m
}
