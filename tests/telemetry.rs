//! Telemetry integration: the structured trace of a seeded chaos run must
//! be byte-identical across reruns, fault events must appear in causal
//! (schedule) order, and arming telemetry must not perturb the simulation
//! itself — the report computed with tracing on equals the report computed
//! with tracing off, except for the `telemetry` summary section.

use edgechain::core::{EdgeNetwork, NetworkConfig, RunReport};
use edgechain::scenario;
use edgechain::sim::{FaultEvent, FaultPlan, NodeId, SimTime};
use edgechain::telemetry;
use std::collections::BTreeSet;

fn chaos_plan() -> FaultPlan {
    FaultPlan::new(vec![
        FaultEvent::Crash {
            node: NodeId(4),
            at: SimTime::from_secs(600),
        },
        FaultEvent::Restart {
            node: NodeId(4),
            at: SimTime::from_secs(840),
        },
        // Node 13 dies for good: its replicas must be repaired elsewhere.
        FaultEvent::Crash {
            node: NodeId(13),
            at: SimTime::from_secs(700),
        },
        FaultEvent::LinkLoss {
            prob: 0.05,
            from: SimTime::from_secs(120),
            until: SimTime::from_secs(1_100),
        },
    ])
}

/// The healthy chaos run: unlike `scenario::chaos_short`, which breaches
/// the availability SLO twice, it stays within every SLO.
fn chaos_config() -> NetworkConfig {
    NetworkConfig {
        nodes: 20,
        sim_minutes: 20,
        data_items_per_min: 2.0,
        request_interval_secs: 60,
        fetch_retries: 5,
        retry_backoff_ms: 4_000,
        fault_plan: chaos_plan(),
        seed: 0xC4A05,
        ..NetworkConfig::default()
    }
}

/// Runs the chaos scenario with telemetry armed; returns the JSONL trace,
/// the report, and the `(t_ms, kind-field)` sequence of fault events.
fn run_traced() -> (String, RunReport, Vec<(u64, String)>) {
    telemetry::enable();
    let report = EdgeNetwork::new(chaos_config())
        .expect("valid config")
        .run();
    let session = telemetry::finish().expect("telemetry was enabled");
    let faults = session
        .events()
        .iter()
        .filter(|e| e.kind == "fault.injected")
        .map(|e| {
            let kind = e
                .fields
                .iter()
                .find_map(|(k, v)| match (k, v) {
                    (&"kind", telemetry::Value::Str(s)) => Some(s.clone()),
                    _ => None,
                })
                .expect("fault.injected events carry a kind field");
            (e.t_ms, kind)
        })
        .collect();
    (session.trace_jsonl(), report, faults)
}

#[test]
fn chaos_trace_is_byte_identical_across_reruns() {
    let (trace_a, report_a, _) = run_traced();
    let (trace_b, report_b, _) = run_traced();
    assert!(!trace_a.is_empty(), "the chaos run must produce events");
    assert_eq!(
        trace_a.as_bytes(),
        trace_b.as_bytes(),
        "same seed must produce a byte-identical JSONL trace"
    );
    // The deterministic registry snapshot in the report is also stable.
    assert!(report_a.telemetry.is_some());
    assert_eq!(report_a, report_b);
}

#[test]
fn fault_events_appear_in_causal_order() {
    let (_, report, faults) = run_traced();
    assert_eq!(
        faults.len() as u64,
        report.faults_injected,
        "every injected fault action lands in the trace"
    );
    assert!(
        faults.windows(2).all(|w| w[0].0 <= w[1].0),
        "fault events must be time-ordered: {faults:?}"
    );
    // The schedule itself: loss starts first, node 4 crashes before node 13,
    // and node 4's restart comes after both crashes.
    let kinds: Vec<&str> = faults.iter().map(|(_, k)| k.as_str()).collect();
    assert_eq!(
        kinds,
        vec!["loss_start", "crash", "crash", "restart", "loss_end"]
    );
    assert_eq!(faults[0].0, 120_000);
    assert_eq!(faults[1].0, 600_000);
    assert_eq!(faults[3].0, 840_000);
}

/// Runs the chaos scenario with telemetry *and* causal spans armed.
fn run_traced_spans() -> (telemetry::Session, RunReport) {
    telemetry::enable();
    telemetry::enable_spans();
    let report = EdgeNetwork::new(chaos_config())
        .expect("valid config")
        .run();
    let session = telemetry::finish().expect("telemetry was enabled");
    (session, report)
}

#[test]
fn span_traces_are_byte_identical_across_reruns() {
    let (sess_a, report_a) = run_traced_spans();
    let (sess_b, report_b) = run_traced_spans();
    let spans = telemetry::spans_from_events(sess_a.events());
    assert!(!spans.is_empty(), "spans-armed chaos run must emit spans");
    assert_eq!(
        sess_a.trace_jsonl().as_bytes(),
        sess_b.trace_jsonl().as_bytes(),
        "same seed must produce a byte-identical span trace"
    );
    assert_eq!(report_a, report_b);
}

#[test]
fn spans_do_not_perturb_the_run_or_the_registry() {
    // Spans only append trace events — they never touch the registry or
    // the simulation, so the full report (including the registry
    // snapshot) of a spans-on run equals a metrics-only run's.
    let (_, with_spans) = run_traced_spans();
    let (_, metrics_only, _) = run_traced();
    assert_eq!(
        with_spans, metrics_only,
        "arming spans must not change the report or registry"
    );
}

#[test]
fn critical_path_phases_sum_to_root_and_cover_item_latency() {
    let (session, _) = run_traced_spans();
    let idx = telemetry::SpanIndex::new(telemetry::spans_from_events(session.events()));
    let roots = idx.roots();
    assert!(!roots.is_empty());
    let mut item_total = 0u64;
    let mut item_gap = 0u64;
    let mut item_traces = 0u64;
    for root in &roots {
        let phases = idx.attribute(root.id);
        let sum: u64 = phases.iter().map(|(_, d)| d).sum();
        assert_eq!(
            sum,
            root.dur_ms(),
            "phase durations must sum exactly to the root span ({})",
            root.kind
        );
        if root.kind == "item.lifecycle" {
            item_traces += 1;
            item_total += sum;
            item_gap += phases
                .iter()
                .filter(|(p, _)| p == telemetry::span::GAP_PHASE)
                .map(|(_, d)| *d)
                .sum::<u64>();
        }
    }
    assert!(item_traces > 0, "chaos run packs items");
    // The acceptance bar: at least 95 % of item inclusion latency is
    // attributed to named phases, not the gap bucket.
    assert!(
        item_gap * 20 <= item_total,
        "named phases must cover \u{2265}95% of item latency (gap {item_gap} of {item_total} ms)"
    );
}

#[test]
fn span_links_survive_drops_retries_and_crashes() {
    let (session, report) = run_traced_spans();
    let spans = telemetry::spans_from_events(session.events());
    let idx = telemetry::SpanIndex::new(spans.clone());
    for s in &spans {
        if s.parent != 0 {
            let p = idx
                .get(s.parent)
                .unwrap_or_else(|| panic!("{}: parent #{} missing from trace", s.kind, s.parent));
            assert!(
                p.t0_ms <= s.t0_ms && s.t1_ms <= p.t1_ms,
                "{} [{}, {}] must be contained in parent {} [{}, {}]",
                s.kind,
                s.t0_ms,
                s.t1_ms,
                p.kind,
                p.t0_ms,
                p.t1_ms
            );
        }
        if s.follows != 0 {
            assert!(
                idx.get(s.follows).is_some(),
                "{}: follows-from target #{} missing from trace",
                s.kind,
                s.follows
            );
        }
    }
    // The lossy window forces backoff retries; the fetch lifecycles that
    // retried must still be single roots with their backoffs as children.
    assert!(report.retries > 0, "chaos plan must force retries");
    let backoffs: Vec<_> = spans.iter().filter(|s| s.kind == "fetch.backoff").collect();
    assert!(
        !backoffs.is_empty(),
        "lossy chaos run must produce fetch backoffs"
    );
    for b in &backoffs {
        assert!(
            idx.get(b.parent)
                .is_some_and(|p| p.kind == "fetch.lifecycle"),
            "fetch.backoff must hang under its fetch.lifecycle root"
        );
    }
    // Cross-node containment: block.verify spans land at remote receivers
    // yet stay linked (verify → broadcast → lifecycle).
    let verify = spans
        .iter()
        .find(|s| s.kind == "block.verify")
        .expect("broadcasts produce per-receiver verify spans");
    let bc = idx.get(verify.parent).expect("verify has a parent");
    assert_eq!(bc.kind, "block.broadcast");
    assert!(idx
        .get(bc.parent)
        .is_some_and(|r| r.kind == "block.lifecycle"));
}

#[test]
fn slo_section_is_populated_and_healthy() {
    // The SLO verdict is computed unconditionally — no telemetry needed.
    let report = EdgeNetwork::new(chaos_config())
        .expect("valid config")
        .run();
    assert!(report.inclusion_latency.count > 0);
    assert!(report.inclusion_latency.p99.is_some());
    assert!(report.fetch_latency.count > 0);
    assert!(
        report.slo_alerts.is_empty(),
        "the healthy chaos seed stays within every SLO: {:?}",
        report.slo_alerts
    );
}

#[test]
fn telemetry_does_not_perturb_the_simulation() {
    // Tracing off: the report must carry no telemetry section.
    let baseline = EdgeNetwork::new(chaos_config())
        .expect("valid config")
        .run();
    assert!(baseline.telemetry.is_none());

    // Tracing on: identical simulation outcome, plus the summary section.
    let (_, mut traced, _) = run_traced();
    let snapshot = traced.telemetry.take().expect("traced run has a summary");
    assert_eq!(
        traced, baseline,
        "arming telemetry must not change simulation results"
    );

    // With no released fork, every block sealed here is on the chain.
    assert_eq!(snapshot.counter("block.mined"), Some(baseline.blocks_mined));
    // Each latency sample reaches its histogram once.
    let histogram_count = |name| match snapshot.get(name) {
        Some(telemetry::MetricSummary::Histogram { count, .. }) => *count,
        other => panic!("{name}: {other:?}"),
    };
    assert_eq!(
        histogram_count("slo.inclusion_secs"),
        baseline.inclusion_latency.count
    );
    assert_eq!(
        histogram_count("slo.fetch_secs"),
        baseline.fetch_latency.count
    );
    // Wall-clock profiling never leaks into the deterministic snapshot.
    assert!(snapshot
        .entries
        .iter()
        .all(|(name, _)| !name.ends_with("_ns")));
}

/// Every registry counter that copies a report count is written from the
/// report, once: on each run the counter is present exactly when the count
/// is nonzero, and equals it. Between them the runs reach every entry, so
/// the list carries no dead name, and a site that also bumps one of these
/// names reads as a double count here.
#[test]
fn registry_counts_are_the_reports_counts() {
    // A retry budget of 6/min denies retries and breaches the fetch SLO.
    let mut overload = scenario::overload_byzantine();
    overload.overload.retry_budget_per_min = Some(6.0);
    let runs = [
        ("chaos", chaos_config()),
        ("tampered-snapshot", scenario::tampered_snapshot()),
        ("overload+byzantine", overload),
    ];
    let mut reached = BTreeSet::new();
    for (label, cfg) in runs {
        telemetry::enable();
        let report = EdgeNetwork::new(cfg).expect("valid config").run();
        let snapshot = report.telemetry.clone().expect("traced run has a summary");
        let mut session = telemetry::finish().expect("telemetry was enabled");
        assert_eq!(session.registry.snapshot(), snapshot, "{label}");
        for (name, n) in report.registry_counts() {
            assert_eq!(
                snapshot.counter(name),
                (n > 0).then_some(n),
                "{label}: {name}"
            );
            if n > 0 {
                reached.insert(name);
            }
        }
    }
    let dead: Vec<_> = RunReport::default()
        .registry_counts()
        .into_iter()
        .map(|(name, _)| name)
        .filter(|name| !reached.contains(name))
        .collect();
    assert!(dead.is_empty(), "never nonzero: {dead:?}");
}

/// The caches must actually work on the chaos run: faults churn the
/// topology (allocation rebuilds), item stores patch FDC costs in place,
/// block-time allocations reuse the solution; the second PoS round per
/// height reads the first one's hits; and a block is encoded about once,
/// however many broadcasts, recoveries and wire-size queries it serves.
#[test]
fn caches_are_exercised_on_the_chaos_run() {
    let (_, report, _) = run_traced();
    let snapshot = report.telemetry.expect("telemetry was armed");
    let count = |name: &str| snapshot.counter(name).unwrap_or(0);

    let (hit, miss) = (count("ufl.cache_hit"), count("ufl.cache_miss"));
    assert!(hit > 0, "expected solution reuse, got {hit} hits");
    assert!(miss > 0, "expected topology-driven rebuilds, got {miss}");
    assert!(
        count("ufl.incremental_updates") > 0,
        "expected incremental FDC patches"
    );
    // Every mined block triggers at least two allocation calls (block
    // storers + recent growth) beyond the per-item ones, so hits must be
    // a substantial share of the calls.
    let solves = count("ufl.solve_calls");
    assert!(
        hit >= solves / 4,
        "cache barely used: {hit} hits vs {solves} solves"
    );

    // Greedy round pruning engages: unpruned, every round walks every
    // facility that is not full. (The chaos run's instances span at most
    // its 20 nodes; the counts repeat exactly per seed.)
    let (rounds, walks) = (count("ufl.greedy.rounds"), count("ufl.greedy.walks"));
    assert!(rounds >= count("ufl.greedy_calls") && walks >= rounds);
    assert!(
        3 * walks < 2 * rounds * 20,
        "stale lower bounds prune under a third: {walks} walks in {rounds} rounds"
    );
    assert!(count("ufl.local_search.trials_cut") > 0);

    let (pos_hit, pos_miss) = (count("pos.hit_cache_hit"), count("pos.hit_cache_miss"));
    assert!(pos_miss > 0, "first round per height must miss");
    assert!(
        pos_hit >= pos_miss / 2,
        "second round per height should mostly hit: {pos_hit} hits vs {pos_miss} misses"
    );

    let (mined, encodes) = (count("block.mined"), count("codec.block_encodes"));
    assert!(mined > 0);
    assert!(
        encodes <= 2 * mined,
        "seal cache leaking encodes: {encodes} encodes for {mined} blocks"
    );
}
