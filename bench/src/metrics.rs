//! The metric catalogue — 13 end-to-end and 83 per-layer metrics — and
//! the code that reads them off `RunReport`s and the telemetry registry.
//!
//! Layers are named by crate and module; a per-layer metric's full name
//! is `<layer>.<metric>`. Every value is either *simulated* (bit-stable
//! per seed, compared exactly), a *count* (likewise), or *host* time and
//! memory (noisy, compared inside a band).

use crate::record::Record;
use edgechain_core::{NetworkConfig, RunReport};
use edgechain_telemetry::Registry;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// How much worse `new` is than `base`, in the metric's own units
    /// (negative when it improved).
    pub fn worsening(self, base: f64, new: f64) -> f64 {
        match self {
            Better::Higher => base - new,
            Better::Lower => new - base,
        }
    }
}

/// How two readings of a metric compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Host wall time or memory: noisy, banded, headline = best repeat.
    Host,
    /// A simulated statistic: identical per seed on one commit.
    Sim,
    /// A deterministic count from the report or the registry.
    Count,
}

/// How far a metric may worsen before it counts as a regression: the
/// larger of a share of the base value and an absolute floor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    /// Allowed worsening as a share of the base reading.
    pub rel: f64,
    /// Allowed worsening in the metric's own unit.
    pub abs: f64,
}

impl Bound {
    /// The allowed worsening from `base`.
    pub fn allowance(&self, base: f64) -> f64 {
        (self.rel * base.abs()).max(self.abs)
    }
}

/// One catalogued metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name, unique across the catalogue.
    pub name: &'static str,
    /// Unit; `sim-s` is simulated seconds, `s`/`ms`/`us`/`ns` host time.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Comparison class.
    pub class: Class,
    /// Regression bound (end-to-end metrics only; layers have none).
    pub bound: Option<Bound>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    class: Class,
    rel: f64,
    abs: f64,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        class,
        bound: Some(Bound { rel, abs }),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, class: Class) -> Metric {
    Metric {
        name,
        unit,
        better,
        class,
        bound: None,
    }
}

use Better::{Higher, Lower};
use Class::{Count, Host, Sim};

/// The end-to-end metrics, per workload.
pub static END_TO_END: [Metric; 13] = [
    e2e("sim_speedup", "sim-s/s", Higher, Host, 0.10, 0.0),
    e2e("wall_ms_per_block", "ms", Lower, Host, 0.10, 0.0),
    e2e("setup_s", "s", Lower, Host, 0.10, 0.05),
    e2e("peak_rss_mb", "MB", Lower, Host, 0.10, 2.0),
    e2e("availability", "ratio", Higher, Sim, 0.0, 0.01),
    e2e("fetch_p50_s", "sim-s", Lower, Sim, 0.05, 0.0),
    e2e("fetch_p95_s", "sim-s", Lower, Sim, 0.05, 0.0),
    e2e("inclusion_p50_s", "sim-s", Lower, Sim, 0.05, 0.0),
    e2e("inclusion_p95_s", "sim-s", Lower, Sim, 0.05, 0.0),
    e2e("storage_gini", "ratio", Lower, Sim, 0.0, 0.01),
    e2e("overhead_mb_per_node", "MB", Lower, Sim, 0.05, 0.0),
    e2e("block_interval_rel_err", "ratio", Lower, Sim, 0.0, 0.02),
    e2e("failed_share", "ratio", Lower, Sim, 0.0, 0.005),
];

/// The per-layer metrics. `[drill]` ones are host times of calls into a
/// layer's public functions, `[reg]` come from the telemetry registry of
/// the traced pass, `[rep]` from its `RunReport`s.
pub static PER_LAYER: [Metric; 83] = [
    // sim.event
    layer("sim.event.push_pop_ns", "ns", Lower, Host),
    // sim.topology
    layer("sim.topology.build_ms", "ms", Lower, Host),
    layer("sim.topology.mobility_rebuild_ms", "ms", Lower, Host),
    layer("sim.topology.row_us", "us", Lower, Host),
    layer("sim.topology.memory_mb", "MB", Lower, Count),
    layer("sim.topology.est_share", "ratio", Lower, Host),
    // sim.transport
    layer("sim.transport.unicast_ns", "ns", Lower, Host),
    layer("sim.transport.broadcast_us", "us", Lower, Host),
    layer("sim.transport.sends", "count", Lower, Count),
    layer("sim.transport.broadcasts", "count", Lower, Count),
    layer("sim.transport.drops", "count", Lower, Count),
    layer("sim.transport.retries", "count", Lower, Count),
    layer("sim.transport.sent_mb", "MB", Lower, Count),
    // facility
    layer("facility.greedy_us", "us", Lower, Host),
    layer("facility.solve_us", "us", Lower, Host),
    layer("facility.greedy_calls", "count", Lower, Count),
    layer("facility.local_search_moves", "count", Lower, Count),
    // core.alloc
    layer("core.alloc.select_cold_us", "us", Lower, Host),
    layer("core.alloc.select_warm_us", "us", Lower, Host),
    layer("core.alloc.busy_s", "s", Lower, Host),
    layer("core.alloc.share", "ratio", Lower, Host),
    layer("core.alloc.solves", "count", Lower, Count),
    layer("core.alloc.cache_hit_ratio", "ratio", Higher, Count),
    layer("core.alloc.incremental_updates", "count", Higher, Count),
    // core.pos
    layer("core.pos.round_us", "us", Lower, Host),
    layer("core.pos.round_cached_us", "us", Lower, Host),
    layer("core.pos.busy_s", "s", Lower, Host),
    layer("core.pos.share", "ratio", Lower, Host),
    layer("core.pos.rounds", "count", Lower, Count),
    layer("core.pos.hit_cache_ratio", "ratio", Higher, Count),
    // core.block
    layer("core.block.seal_us", "us", Lower, Host),
    layer("core.block.validate_us", "us", Lower, Host),
    layer("core.block.assemble_busy_s", "s", Lower, Host),
    layer("core.block.verify_busy_s", "s", Lower, Host),
    // core.codec
    layer("core.codec.encode_us", "us", Lower, Host),
    layer("core.codec.decode_us", "us", Lower, Host),
    layer("core.codec.block_bytes", "bytes", Lower, Count),
    layer("core.codec.encode_busy_s", "s", Lower, Host),
    layer("core.codec.block_encodes", "count", Lower, Count),
    // core.chain
    layer("core.chain.push_us", "us", Lower, Host),
    layer("core.chain.prune_us", "us", Lower, Host),
    layer("core.chain.snapshot_seal_us", "us", Lower, Host),
    layer("core.chain.snapshot_verify_us", "us", Lower, Host),
    layer("core.chain.blocks_pruned", "count", Higher, Count),
    layer("core.chain.snapshots_applied", "count", Higher, Count),
    layer("core.chain.reorgs", "count", Lower, Count),
    // core.byzantine
    layer("core.byzantine.verify_wire_us", "us", Lower, Host),
    layer("core.byzantine.injected", "count", Higher, Count),
    layer("core.byzantine.detected", "count", Higher, Count),
    // core.invariant
    layer("core.invariant.observe_us", "us", Lower, Host),
    layer("core.invariant.est_share", "ratio", Lower, Host),
    // core.network
    layer("core.network.blocks", "count", Higher, Count),
    layer("core.network.items", "count", Higher, Count),
    layer("core.network.fetches_completed", "count", Higher, Count),
    layer("core.network.recoveries", "count", Lower, Count),
    layer("core.network.retries", "count", Lower, Count),
    layer("core.network.repairs", "count", Lower, Count),
    layer("core.network.expired", "count", Higher, Count),
    layer("core.network.unattributed_share", "ratio", Lower, Host),
    // crypto
    layer("crypto.sha256_mb_s", "MB/s", Higher, Host),
    layer("crypto.pair64_ns", "ns", Lower, Host),
    layer("crypto.merkle_root_us", "us", Lower, Host),
    layer("crypto.sign_us", "us", Lower, Host),
    layer("crypto.verify_us", "us", Lower, Host),
    // raft
    layer("raft.msg_ns", "ns", Lower, Host),
    layer("raft.messages", "count", Lower, Count),
    layer("raft.heartbeats", "count", Lower, Count),
    layer("raft.committed", "count", Higher, Count),
    layer("raft.elections", "count", Lower, Count),
    layer("raft.est_share", "ratio", Lower, Host),
    // workload
    layer("workload.arrival_ns", "ns", Lower, Host),
    layer("workload.zipf_ns", "ns", Lower, Host),
    layer("workload.bucket_ns", "ns", Lower, Host),
    layer("workload.offered_items", "count", Higher, Count),
    layer("workload.offered_fetches", "count", Higher, Count),
    layer("workload.shed_share", "ratio", Lower, Count),
    layer("workload.max_degrade_level", "level", Lower, Count),
    // telemetry
    layer("telemetry.overhead_ratio", "ratio", Lower, Host),
    layer("telemetry.trace_events", "count", Lower, Count),
    layer("telemetry.traced_rss_mb", "MB", Lower, Host),
    layer("telemetry.counter_ns", "ns", Lower, Host),
    layer("telemetry.event_ns", "ns", Lower, Host),
    layer("telemetry.span_ns", "ns", Lower, Host),
];

/// Looks a metric up in either table.
pub fn by_name(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

#[cfg(test)]
/// Whether `name` is made of `[A-Za-z0-9_.-]` only, starts with a letter
/// or digit and is at most 64 characters: the contract's naming rule.
pub fn is_plain_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok)
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
}

/// A percentile is reported only where at least ten samples lie beyond
/// it: 20 samples for a median, 200 for a p95.
fn supported(value: Option<f64>, count: u64, tail: f64) -> Option<f64> {
    value.filter(|_| count as f64 * tail >= 10.0)
}

/// Writes what one instance's report says: the simulated end-to-end
/// metrics, the `[rep]` counts, and the `aux.*` quantities the panel's
/// derived metrics and the drills' shape are computed from.
pub fn instance(r: &RunReport, config: &NetworkConfig, out: &mut Record) {
    let mut put = |name: &str, v: Option<f64>| {
        if let Some(v) = v {
            out.num(name, v);
        }
    };
    put("availability", Some(r.availability));
    let (fetch, inclusion) = (&r.fetch_latency, &r.inclusion_latency);
    put("fetch_p50_s", supported(fetch.p50, fetch.count, 0.5));
    put("fetch_p95_s", supported(fetch.p95, fetch.count, 0.05));
    put(
        "inclusion_p50_s",
        supported(inclusion.p50, inclusion.count, 0.5),
    );
    put(
        "inclusion_p95_s",
        supported(inclusion.p95, inclusion.count, 0.05),
    );
    put("storage_gini", Some(r.storage_gini));
    put("overhead_mb_per_node", Some(r.mean_node_overhead_mb));
    // Eq. 14: the amendment B holds E[inter-block] at t0.
    let t0 = config.block_interval_secs as f64;
    put(
        "block_interval_rel_err",
        Some((r.mean_block_interval_secs - t0).abs() / t0),
    );

    let o = &r.overload;
    let sim_secs = config.sim_minutes * 60;
    let counts: [(&str, u64); 23] = [
        ("ops_attempted", o.offered_items + o.offered_fetches),
        (
            "ops_failed",
            o.shed_items + o.alloc_rejected + r.data_unstored + o.shed_fetches + r.failed_requests,
        ),
        ("core.chain.blocks_pruned", r.blocks_pruned),
        ("core.chain.snapshots_applied", r.snapshots_applied),
        ("core.chain.reorgs", r.reorgs),
        ("core.byzantine.injected", r.byz_injected),
        ("core.byzantine.detected", r.byz_detected),
        ("core.network.blocks", r.blocks_mined),
        ("core.network.items", inclusion.count),
        ("core.network.fetches_completed", fetch.count),
        ("core.network.recoveries", r.recoveries),
        ("core.network.retries", r.retries),
        ("core.network.repairs", r.repairs_triggered),
        ("core.network.expired", r.data_expired),
        ("raft.messages", r.raft_messages),
        ("raft.heartbeats", r.raft_heartbeats),
        ("raft.committed", r.raft_committed),
        ("workload.offered_items", o.offered_items),
        ("workload.offered_fetches", o.offered_fetches),
        ("workload.max_degrade_level", u64::from(o.max_degrade_level)),
        ("aux.shed_items", o.shed_items),
        ("aux.shed_fetches", o.shed_fetches),
        ("aux.sim_secs", sim_secs),
    ];
    for (name, value) in counts {
        out.num(name, value as f64);
    }
    out.num("sim.transport.sent_mb", r.total_sent_mb);

    let every = |period_secs: u64| sim_secs.checked_div(period_secs).unwrap_or(0);
    out.num(
        "aux.mobility_steps",
        every(config.mobility_interval_secs) as f64,
    );
    // A fault run walks the invariants at every block, expiry sweep and
    // fault action; a fault-free run never does.
    let walks = if config.fault_plan.is_empty() {
        0
    } else {
        r.blocks_mined + r.faults_injected + every(config.expiration_sweep_secs)
    };
    out.num("aux.invariant_walks", walks as f64);
    // Steady-state registry size, for the snapshot and invariant drills.
    let live = inclusion.count * config.data_valid_minutes.min(config.sim_minutes)
        / config.sim_minutes.max(1);
    out.num("aux.live_items", live.max(1) as f64);
}

/// Writes the `[reg]` readings of one traced instance: counters, and the
/// busy seconds behind the eight wall timers.
///
/// `ufl.greedy_ns` nests inside `ufl.solve_ns` and is left out of the
/// allocation layer's busy time; the other timers do not overlap.
pub fn registry(reg: &Registry, out: &mut Record) {
    let secs = |name: &str| reg.wall_ns(name).map_or(0.0, |s| s.sum()) / 1e9;
    let counters = [
        ("sim.transport.sends", "transport.sends"),
        ("sim.transport.broadcasts", "transport.broadcasts"),
        ("sim.transport.drops", "transport.drops"),
        ("sim.transport.retries", "transport.retries"),
        ("facility.greedy_calls", "ufl.greedy_calls"),
        ("facility.local_search_moves", "ufl.local_search.moves"),
        ("core.alloc.solves", "ufl.solve_calls"),
        ("core.alloc.incremental_updates", "ufl.incremental_updates"),
        ("core.pos.rounds", "pos.rounds"),
        ("core.codec.block_encodes", "codec.block_encodes"),
        ("raft.elections", "raft.elections"),
        ("aux.ufl_cache_hit", "ufl.cache_hit"),
        ("aux.ufl_cache_miss", "ufl.cache_miss"),
        ("aux.pos_cache_hit", "pos.hit_cache_hit"),
        ("aux.pos_cache_miss", "pos.hit_cache_miss"),
    ];
    for (name, counter) in counters {
        out.num(name, reg.counter(counter) as f64);
    }
    out.num(
        "core.alloc.busy_s",
        secs("ufl.build_ns") + secs("ufl.solve_ns") + secs("ufl.exact_ns"),
    );
    out.num("core.pos.busy_s", secs("pos.round_ns"));
    out.num("core.block.assemble_busy_s", secs("block.assemble_ns"));
    out.num("core.block.verify_busy_s", secs("block.verify_ns"));
    out.num("core.codec.encode_busy_s", secs("codec.encode_ns"));
}

/// How a reading folds over a panel's instances: simulated metrics are
/// means over the instances that define them, and so is memory (each
/// instance ran in its own process, so the panel's memory is what an
/// instance takes on average); host seconds and counts add up.
fn fold(key: &str, values: &[f64]) -> f64 {
    let sum: f64 = values.iter().sum();
    if matches!(key, "sim.topology.memory_mb" | "workload.max_degrade_level") {
        values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    } else if matches!(key, "peak_rss_mb" | "aux.live_items")
        || by_name(key).is_some_and(|m| m.class == Class::Sim)
    {
        sum / values.len() as f64
    } else {
        sum
    }
}

/// Folds the records of a panel's instances into the panel's record and
/// derives the metrics that only make sense on totals.
pub fn combine(instances: &[Record]) -> Record {
    let mut out = Record::new();
    let mut keys: Vec<&str> = Vec::new();
    for (key, value) in instances.iter().flat_map(Record::fields) {
        if value.as_str().is_none() && !keys.contains(&key.as_str()) {
            keys.push(key);
        }
    }
    for key in keys {
        let values: Vec<f64> = instances.iter().filter_map(|r| r.get_num(key)).collect();
        out.num(key, fold(key, &values));
    }
    let get = |key: &str| out.get_num(key);
    let ratio = |part: Option<f64>, rest: Option<f64>| match (part, rest) {
        (Some(a), Some(b)) if a + b > 0.0 => Some(a / (a + b)),
        (Some(_), Some(_)) => Some(0.0),
        _ => None,
    };
    let over = |a: Option<f64>, b: Option<f64>| Some(a? / b?.max(f64::MIN_POSITIVE));
    let blocks = get("core.network.blocks").map(|b| b.max(1.0));
    let offered = get("ops_attempted").map(|o| o.max(1.0));
    // The eight registry timers, as five layers that do not overlap.
    let busy: Option<f64> = [
        "core.alloc.busy_s",
        "core.pos.busy_s",
        "core.block.assemble_busy_s",
        "core.block.verify_busy_s",
        "core.codec.encode_busy_s",
    ]
    .into_iter()
    .map(get)
    .sum();
    let shed = get("aux.shed_items")
        .zip(get("aux.shed_fetches"))
        .map(|(items, fetches)| items + fetches);
    let derived = [
        ("sim_speedup", over(get("aux.sim_secs"), get("run_s"))),
        (
            "sim_speedup/wall",
            over(get("aux.sim_secs"), get("run_s/wall")),
        ),
        (
            "wall_ms_per_block",
            over(get("run_s").map(|s| s * 1e3), blocks),
        ),
        (
            "wall_ms_per_block/wall",
            over(get("run_s/wall").map(|s| s * 1e3), blocks),
        ),
        ("failed_share", over(get("ops_failed"), offered)),
        ("workload.shed_share", over(shed, offered)),
        (
            "aux.items_per_block",
            over(get("core.network.items"), blocks).map(|k| k.ceil().max(1.0)),
        ),
        // Shares of the traced pass are shares of its own wall time.
        (
            "core.alloc.share",
            over(get("core.alloc.busy_s"), get("run_s/wall")),
        ),
        (
            "core.pos.share",
            over(get("core.pos.busy_s"), get("run_s/wall")),
        ),
        (
            "core.alloc.cache_hit_ratio",
            ratio(get("aux.ufl_cache_hit"), get("aux.ufl_cache_miss")),
        ),
        (
            "core.pos.hit_cache_ratio",
            ratio(get("aux.pos_cache_hit"), get("aux.pos_cache_miss")),
        ),
        (
            "core.network.unattributed_share",
            over(busy, get("run_s/wall")).map(|timed| 1.0 - timed),
        ),
    ];
    for (name, value) in derived {
        if let Some(value) = value {
            out.num(name, value);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn counts_stay_within_the_caps() {
        assert_eq!(END_TO_END.len(), 13);
        assert_eq!(PER_LAYER.len(), 83);
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    }

    #[test]
    fn names_are_plain_unique_and_units_fit() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(is_plain_name(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
            let unit_ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(
                !m.unit.is_empty() && m.unit.len() <= 16 && m.unit.chars().all(unit_ok),
                "{}: unit {}",
                m.name,
                m.unit
            );
        }
        assert!(!is_plain_name(".leading"));
        assert!(!is_plain_name("has space"));
        assert!(!is_plain_name(""));
    }

    #[test]
    fn end_to_end_metrics_are_bounded_and_layers_are_not() {
        assert!(END_TO_END.iter().all(|m| m.bound.is_some()));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        assert!(by_name("setup_s").is_some_and(|m| m.better == Lower));
    }

    #[test]
    fn bounds_take_the_larger_of_share_and_floor() {
        let b = Bound {
            rel: 0.10,
            abs: 0.05,
        };
        assert_eq!(b.allowance(0.2), 0.05);
        assert_eq!(b.allowance(2.0), 0.2);
        assert!(Higher.worsening(1.0, 0.9) > 0.0);
        assert!(Lower.worsening(1.0, 0.9) < 0.0);
    }

    #[test]
    fn percentiles_need_ten_samples_beyond_them() {
        assert_eq!(supported(Some(1.0), 199, 0.05), None);
        assert_eq!(supported(Some(1.0), 200, 0.05), Some(1.0));
        assert_eq!(supported(Some(1.0), 19, 0.5), None);
        assert_eq!(supported(None, 1_000, 0.5), None);
    }

    #[test]
    fn panels_sum_counts_average_simulated_metrics_and_derive_on_totals() {
        let instance = |blocks: f64, run: f64, availability: f64, p95: Option<f64>| {
            let mut r = Record::new();
            r.text("report_digest", "x")
                .num("core.network.blocks", blocks)
                .num("core.network.items", 3.0 * blocks)
                .num("aux.sim_secs", 600.0)
                .num("run_s", run)
                .num("run_s/wall", 2.0 * run)
                .num("ops_attempted", 10.0)
                .num("ops_failed", 1.0)
                .num("availability", availability)
                .num("peak_rss_mb", 8.0 * availability)
                .num("workload.max_degrade_level", blocks);
            if let Some(p95) = p95 {
                r.num("fetch_p95_s", p95);
            }
            r
        };
        let panel = combine(&[
            instance(10.0, 1.0, 1.0, Some(2.0)),
            instance(30.0, 3.0, 0.5, None),
        ]);
        assert_eq!(panel.get_num("core.network.blocks"), Some(40.0));
        assert_eq!(panel.get_num("availability"), Some(0.75));
        assert_eq!(panel.get_num("peak_rss_mb"), Some(6.0));
        assert_eq!(panel.get_num("workload.max_degrade_level"), Some(30.0));
        // Defined on one instance only: the mean of the defined ones.
        assert_eq!(panel.get_num("fetch_p95_s"), Some(2.0));
        assert_eq!(panel.get_num("sim_speedup"), Some(1200.0 / 4.0));
        assert_eq!(panel.get_num("sim_speedup/wall"), Some(1200.0 / 8.0));
        assert_eq!(panel.get_num("wall_ms_per_block"), Some(100.0));
        assert_eq!(panel.get_num("failed_share"), Some(0.1));
        assert_eq!(panel.get_num("aux.items_per_block"), Some(3.0));
        // No traced readings in, no traced metrics out.
        assert_eq!(panel.get_num("core.alloc.share"), None);
        assert_eq!(panel.get_num("core.network.unattributed_share"), None);
    }
}
