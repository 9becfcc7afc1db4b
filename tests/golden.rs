//! Pinned end-to-end digests: three seeded runs — a Fig. 4-sized cell, a
//! Fig. 5-sized cell under the rng-drawing Random placement, and a chaos
//! run with crashes, repair re-allocations, block recovery and lossy
//! broadcast — each held to three committed SHA-256 constants: one over
//! the report, one over the telemetry trace and one over the registry
//! snapshot (counters, gauges, histogram summaries). The allocation
//! context, the PoS hit table and the seal-time block encoding each have
//! a unit-level pin against a reference implementation; these digests
//! hold the whole run those pieces compose into.
//!
//! Four more runs are pinned with causal spans armed, so the span ids,
//! parent / `follows` edges and the interleaving of span closes with
//! plain trace events are held too: the chaos run again, a short
//! open-workload run under overload with one equivocating and one
//! denying node, `tests/byzantine.rs`' five-attack run, and a deep rejoin
//! served a tampered snapshot by a Byzantine provider.
//!
//! One more plain run turns raft on: a leader crash and restart under a
//! lossy window, the only pin whose digests carry raft traffic.
//!
//! The runs other files share come from `edgechain::scenario`; the two
//! only this file runs are defined here.
//!
//! A change that is not meant to move simulated behaviour must leave
//! every constant alone. One that is re-pins them and says so.

use edgechain::core::{EdgeNetwork, NetworkConfig, Placement, RunReport};
use edgechain::crypto::sha256;
use edgechain::scenario;
use edgechain::sim::{ByzantineAction, FaultEvent, FaultPlan, NodeId, SimTime};
use edgechain::telemetry;

/// Fig. 5-sized cell under the Random baseline — the placement that
/// draws from the run's rng, so one extra or missing draw anywhere
/// cascades into a visibly different run.
fn fig5_random_config() -> NetworkConfig {
    NetworkConfig {
        nodes: 20,
        data_items_per_min: 2.0,
        sim_minutes: 40,
        placement: Placement::Random,
        seed: 0xFA57_0005,
        ..NetworkConfig::default()
    }
}

/// Runs `cfg` untraced and traced — with causal spans armed too when
/// `spans` — and holds both to their pins: SHA-256 of the `Debug` form of
/// the report with `telemetry = None` (the form `edgebench`'s
/// `report_digest` hashes), SHA-256 of the traced run's JSONL trace, and
/// SHA-256 of the `Debug` form of the traced session's registry snapshot
/// (every deterministic counter, gauge and histogram summary).
/// The traced report, telemetry section aside, must equal the untraced
/// one, so one report digest covers both runs. Returns the report and
/// the traced session.
fn assert_pinned(
    label: &str,
    cfg: NetworkConfig,
    spans: bool,
    [report_pin, trace_pin, registry_pin]: [&str; 3],
) -> (RunReport, telemetry::Session) {
    let plain = EdgeNetwork::new(cfg.clone()).expect("valid config").run();
    assert!(plain.telemetry.is_none());
    assert!(plain.blocks_mined > 0, "{label}: the run must mine");

    telemetry::enable();
    if spans {
        telemetry::enable_spans();
    }
    let mut traced = EdgeNetwork::new(cfg).expect("valid config").run();
    let mut session = telemetry::finish().expect("telemetry was enabled");
    traced.telemetry = None;
    assert_eq!(traced, plain, "{label}: tracing perturbed the run");

    assert_eq!(
        sha256(format!("{plain:?}")).to_hex(),
        report_pin,
        "{label}: report digest moved"
    );
    assert_eq!(
        sha256(session.trace_jsonl()).to_hex(),
        trace_pin,
        "{label}: trace digest moved"
    );
    assert_eq!(
        sha256(format!("{:?}", session.registry.snapshot())).to_hex(),
        registry_pin,
        "{label}: registry digest moved"
    );
    (plain, session)
}

#[test]
fn fig4_sized_run_is_pinned() {
    assert_pinned(
        "fig4",
        scenario::fig4_cell(),
        false,
        [
            "d480c0e4fc28b314a8dc9c1edb9de03e08d2f0c04371dfd8346b17deed7237ce",
            "d457cb64be7eee336b27a278a8f54034cc9151a4ba6d398b6d5cc753dd67c4d9",
            "5294be27e6b6f57ee6e9cdc221c8bb99fec6a0722690f3696aaaaeb743fbbd0d",
        ],
    );
}

#[test]
fn fig5_random_placement_is_pinned() {
    assert_pinned(
        "fig5-random",
        fig5_random_config(),
        false,
        [
            "16c1de9d9796828796602b076804408948457d7a4baa7cb7ae36a93a162cd387",
            "a13192f4da9b54d4c1e2536ab19936d66530d779500dd90e27a3cd1ebb23ec8b",
            "75eeec1bb1baec6b6e617f2477e79a445e2d52beeb2237cd2e680d0426c8ea9d",
        ],
    );
}

#[test]
fn chaos_run_is_pinned() {
    assert_pinned(
        "chaos",
        scenario::chaos_short(),
        false,
        [
            "38f1a67b1162c26e6652efe6183c9209e163208c5f76d31993f056718d9e26ad",
            "c59162d67398ad1f34bc946bbc44e0df0fd5c55c4b7b4a79cf37179faf50d1ed",
            "a9f9c2ed6f440bf135086192d28bc2f94b29496a358d94051820ad8cc9d2c7f1",
        ],
    );
}

/// Asserts `session` traced at least one event of each kind in `wanted`,
/// carrying the string-valued field when one is given.
fn assert_traced(session: &telemetry::Session, wanted: &[(&str, Option<(&str, &str)>)]) {
    let carries = |e: &telemetry::TraceEvent, (key, want): (&str, &str)| {
        e.fields
            .iter()
            .any(|(k, v)| *k == key && *v == telemetry::Value::Str(want.into()))
    };
    for &(kind, field) in wanted {
        let traced = session
            .events()
            .iter()
            .any(|e| e.kind == kind && field.is_none_or(|f| carries(e, f)));
        assert!(traced, "no {kind} {field:?} in the trace");
    }
}

#[test]
fn chaos_run_with_spans_is_pinned() {
    let (_, session) = assert_pinned(
        "chaos+spans",
        scenario::chaos_short(),
        true,
        [
            "38f1a67b1162c26e6652efe6183c9209e163208c5f76d31993f056718d9e26ad",
            "45dfdbb6aa54469015fc8b9c13d6e4b82f3f2e1e9950c98d5be8ea959445e79a",
            "a9f9c2ed6f440bf135086192d28bc2f94b29496a358d94051820ad8cc9d2c7f1",
        ],
    );
    // What the span layer does on this run beyond the happy path; a pin
    // over a trace without them would hold nothing.
    assert_traced(
        &session,
        &[
            ("fetch.backoff", None),
            ("recover.block", None),
            ("transport.retry", None),
        ],
    );
    let follows_an_item = session
        .events()
        .iter()
        .any(|e| e.kind == "repair.replicate" && e.fields.iter().any(|(k, _)| *k == "follows"));
    assert!(follows_an_item, "no repair span follows an item lifecycle");
}

#[test]
fn overload_byzantine_run_with_spans_is_pinned() {
    let (_, session) = assert_pinned(
        "overload+byzantine+spans",
        scenario::overload_byzantine(),
        true,
        [
            "11dce4fb5e9599ce1093e15fb1e5f9fec73048cc5dd3d00d5486e416a64eae21",
            "d7211a05b4a7e7b27b51729bc944b82a65505691cb9d6f987859dcb502eb1df6",
            "cd5881ff9aa9173d2d6a87573d8df7065d641c4a8683fcae95d9a8be20444a4a",
        ],
    );
    assert_traced(
        &session,
        &[
            ("overload.shed", Some(("op", "item"))),
            ("overload.shed", Some(("op", "fetch"))),
            ("alloc.rejected", None),
            ("item.lifecycle", Some(("outcome", "alloc_rejected"))),
            ("fetch.backoff", None),
            ("fetch.attempt", Some(("outcome", "denied"))),
            ("byz.quarantine", None),
            ("byz.readmit", None),
            ("request.exhausted", None),
            ("fetch.lifecycle", Some(("outcome", "exhausted"))),
        ],
    );
    // A quarantine window that readmission closed ends before the
    // horizon; one still open there is closed by the end-of-run flush.
    let horizon_ms = 40 * 60 * 1_000;
    let closed_early = session
        .events()
        .iter()
        .any(|e| e.kind == "quarantine.window" && e.t_ms < horizon_ms);
    assert!(closed_early, "no quarantine window closed by readmission");
}

#[test]
fn five_attack_byzantine_run_with_spans_is_pinned() {
    let (_, session) = assert_pinned(
        "five-attack+spans",
        scenario::byzantine(0xED6E),
        true,
        [
            "cfea0523b77f991a126ff5720b44e8b5e64e522609344a27161121be20da3d2a",
            "a60f3ebf0e66790b80ea7cae8e3dfe787b23303cdfdff89586098468a2bdf96d",
            "7bfe4348a8281235d3bae5c1aa4af835dd3ac0e9fa6cc4f783809fbcf7c92af0",
        ],
    );
    let injected = |kind| ("byz.injected", Some(("kind", kind)));
    assert_traced(
        &session,
        &[
            injected("byz_equivocate"),
            injected("byz_garbage"),
            injected("byz_forge"),
            injected("byz_withhold"),
            ("byz.release", None),
            ("chain.reorg", None),
            ("byz.quarantine", None),
            ("quarantine.window", None),
        ],
    );
}

#[test]
fn tampered_snapshot_run_with_spans_is_pinned() {
    let (report, session) = assert_pinned(
        "tampered-snapshot+spans",
        scenario::tampered_snapshot(),
        true,
        [
            "dfb0bda1d412b184cc2bc4f337efd75bc2e0abf3e2ef4d738297aa5dcf361c77",
            "345b0caeb8e785dd33aea12a93d47c958c35d2a9167707976773d15cf376b60d",
            "a1555217c6d04b43d9eb34666a17c5d0cb61ee22ecf6b2f408c8f64d6fc79c56",
        ],
    );
    // Rejected, blacklisted, detected, quarantined — and still rejoined.
    assert!(report.blocks_pruned > 0, "pruning never fired: {report}");
    assert!(
        report.snapshots_rejected >= 1,
        "no tampered snapshot: {report}"
    );
    assert!(
        report.snapshots_applied >= 1,
        "no snapshot rejoin: {report}"
    );
    assert!(report.byz_injected >= 1, "nothing injected: {report}");
    assert_eq!(report.byz_detected, report.byz_injected, "{report}");
    assert!(
        report.quarantine_events >= 1,
        "nobody quarantined: {report}"
    );
    assert_eq!(report.invariant_violations, 0, "invariant broken: {report}");
    assert_traced(
        &session,
        &[
            ("byz.injected", Some(("kind", "byz_tamper"))),
            ("byz.injected", Some(("kind", "byz_forge"))),
            ("byz.injected", Some(("kind", "byz_snapshot"))),
            ("snapshot.rejected", None),
            ("byz.quarantine", Some(("reason", "tampered-snapshot"))),
            ("quarantine.window", None),
        ],
    );
    // Pruning under the engine re-bases the per-node views in place, and
    // each block on the air is judged for content once, not once per
    // receiver.
    let counter = |name| session.registry.counter(name);
    assert!(counter("chain.rebased_views") > 0, "no view re-based");
    let verdicts = counter("byz.wire_verdicts");
    let on_air = counter("block.mined") + counter("byz.injected");
    assert!(verdicts > 0, "no wire verdict");
    assert!(
        verdicts <= on_air,
        "{verdicts} content verdicts for {on_air} blocks on the air"
    );
}

/// The tampered-snapshot rejoin with node 6's attacks taken out: it keeps
/// its Byzantine role (one forgery scheduled past the horizon) and nothing
/// else, so the snapshot it serves node 3 is its only act. On this seed
/// the tamper flips a byte of a registry item's `producer_key`. The
/// server's signature covers the item's whole encoding, key included, and
/// the key must also hash to the item's producer: either check rejects it.
#[test]
fn a_snapshot_with_a_tampered_producer_key_is_rejected() {
    let mut cfg = scenario::tampered_snapshot();
    let horizon = SimTime::from_secs(cfg.sim_minutes * 60);
    cfg.fault_plan
        .events
        .retain(|e| !matches!(e, FaultEvent::Byzantine { .. }));
    cfg.fault_plan.events.push(FaultEvent::Byzantine {
        node: NodeId(6),
        action: ByzantineAction::ForgeBlock,
        at: horizon + SimTime::from_secs(60),
    });
    let report = EdgeNetwork::new(cfg).expect("valid config").run();
    assert_eq!(report.byz_injected, 1, "{report}");
    assert_eq!(
        report.byz_detected, 1,
        "tampered snapshot verified: {report}"
    );
    assert!(report.snapshots_rejected >= 1, "{report}");
    assert!(
        report.snapshots_applied >= 1,
        "no snapshot rejoin: {report}"
    );
    assert_eq!(report.quarantine_events, 1, "{report}");
    assert_eq!(report.invariant_violations, 0, "{report}");
}

/// Raft on, over signed blocks: node 0 — the raft leader at 240 s — crashes
/// there and restarts at 420 s with its leader timers long stale, while a
/// 5 % loss window from 120 s to 480 s drops some raft frames. The only
/// pinned run that replicates through raft: its heartbeats, re-election
/// and the restarted ex-leader's step-down all reach the digests.
fn raft_config() -> NetworkConfig {
    NetworkConfig {
        nodes: 20,
        sim_minutes: 10,
        raft_consensus: true,
        verify_signatures: true,
        seed: 0xFA57_4AF7,
        fault_plan: FaultPlan::new(vec![
            FaultEvent::Crash {
                node: NodeId(0),
                at: SimTime::from_secs(240),
            },
            FaultEvent::Restart {
                node: NodeId(0),
                at: SimTime::from_secs(420),
            },
            FaultEvent::LinkLoss {
                prob: 0.05,
                from: SimTime::from_secs(120),
                until: SimTime::from_secs(480),
            },
        ]),
        ..NetworkConfig::default()
    }
}

#[test]
fn raft_run_is_pinned() {
    let cfg = raft_config();
    let polls = cfg.sim_minutes * 60 * 10; // one raft timer poll per 100 ms
    let nodes = cfg.nodes as u64;
    let (report, session) = assert_pinned(
        "raft",
        cfg,
        false,
        [
            "76b9c448fec27f6d14317dba3fcce6d1e362607eebedb96809f648aba347abab",
            "b1c259ba1946bfbaf1bc2f5870db7ff1b57f32f51a913066676e839bc0c7e165",
            "c2bb3dd4549c405b15564dea8dae4fa50aadc81e761cb7da35b8827ef3da51d9",
        ],
    );
    assert!(report.raft_heartbeats > 0, "no raft traffic: {report}");
    assert!(
        report.raft_committed > 0,
        "raft committed nothing: {report}"
    );
    assert_traced(&session, &[("raft.election", None), ("raft.leader", None)]);
    // Only due replicas tick: the leader's heartbeat and the odd lapsed
    // election timer, not every replica at every poll.
    let node_ticks = session.registry.counter("raft.node_ticks");
    assert!(
        node_ticks * 10 < polls * nodes,
        "{node_ticks} replica ticks over {polls} polls of {nodes} nodes"
    );
}
