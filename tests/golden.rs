//! Pinned end-to-end digests: three seeded runs — a Fig. 4-sized cell, a
//! Fig. 5-sized cell under the rng-drawing Random placement, and a chaos
//! run with crashes, repair re-allocations, block recovery and lossy
//! broadcast — each held to two committed SHA-256 constants, one over the
//! report and one over the telemetry trace. The allocation context, the
//! PoS hit table and the seal-time block encoding each have a unit-level
//! pin against a reference implementation; these digests hold the whole
//! run those pieces compose into.
//!
//! A change that is not meant to move simulated behaviour must leave all
//! six constants alone. One that is re-pins them and says so.

use edgechain::core::{EdgeNetwork, NetworkConfig, Placement};
use edgechain::crypto::sha256;
use edgechain::sim::{FaultEvent, FaultPlan, NodeId, SimTime};
use edgechain::telemetry;

/// Fig. 4-sized cell: 30 nodes, 2 items/min, 40 simulated minutes.
fn fig4_config() -> NetworkConfig {
    NetworkConfig {
        nodes: 30,
        data_items_per_min: 2.0,
        sim_minutes: 40,
        seed: 0xFA57_0004,
        ..NetworkConfig::default()
    }
}

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

/// Chaos run: crashes (one permanent, triggering UFL repair sweeps and
/// dropping candidates out of PoS rounds mid-height), a restart, and a
/// lossy window (per-reception loss draws plus block recovery).
fn chaos_config() -> NetworkConfig {
    NetworkConfig {
        nodes: 20,
        data_items_per_min: 2.0,
        sim_minutes: 25,
        request_interval_secs: 60,
        fault_plan: FaultPlan::new(vec![
            FaultEvent::Crash {
                node: NodeId(3),
                at: SimTime::from_secs(500),
            },
            FaultEvent::Restart {
                node: NodeId(3),
                at: SimTime::from_secs(900),
            },
            FaultEvent::Crash {
                node: NodeId(11),
                at: SimTime::from_secs(650),
            },
            FaultEvent::LinkLoss {
                prob: 0.05,
                from: SimTime::from_secs(200),
                until: SimTime::from_secs(1_000),
            },
        ]),
        seed: 0xFA57_C405,
        ..NetworkConfig::default()
    }
}

/// Runs `cfg` untraced and traced and holds both to their pins: SHA-256
/// of the `Debug` form of the report with `telemetry = None` (the form
/// `edgebench`'s `report_digest` hashes), and SHA-256 of the traced run's
/// JSONL trace. The traced report, telemetry section aside, must equal
/// the untraced one, so one report digest covers both runs.
fn assert_pinned(label: &str, cfg: NetworkConfig, report_pin: &str, trace_pin: &str) {
    let plain = EdgeNetwork::new(cfg.clone()).expect("valid config").run();
    assert!(plain.telemetry.is_none());
    assert!(plain.blocks_mined > 0, "{label}: the run must mine");

    telemetry::enable();
    let mut traced = EdgeNetwork::new(cfg).expect("valid config").run();
    let trace = telemetry::finish()
        .expect("telemetry was enabled")
        .trace_jsonl();
    traced.telemetry = None;
    assert_eq!(traced, plain, "{label}: tracing perturbed the run");

    assert_eq!(
        sha256(format!("{plain:?}")).to_hex(),
        report_pin,
        "{label}: report digest moved"
    );
    assert_eq!(
        sha256(trace).to_hex(),
        trace_pin,
        "{label}: trace digest moved"
    );
}

#[test]
fn fig4_sized_run_is_pinned() {
    assert_pinned(
        "fig4",
        fig4_config(),
        "e7ae2342856318682dbc0316e7c51a6eb0b9f12cfa063bf1728f7176edaed5c4",
        "d457cb64be7eee336b27a278a8f54034cc9151a4ba6d398b6d5cc753dd67c4d9",
    );
}

#[test]
fn fig5_random_placement_is_pinned() {
    assert_pinned(
        "fig5-random",
        fig5_random_config(),
        "47458d09a131918cf36929acd9d8e180519212e11670ab6ab0917c0e99efa2d6",
        "a13192f4da9b54d4c1e2536ab19936d66530d779500dd90e27a3cd1ebb23ec8b",
    );
}

#[test]
fn chaos_run_is_pinned() {
    assert_pinned(
        "chaos",
        chaos_config(),
        "3f8fd070214216c38840c94eabf163eda69b4c1729c3ffa9c652698d28ddd3eb",
        "c59162d67398ad1f34bc946bbc44e0df0fd5c55c4b7b4a79cf37179faf50d1ed",
    );
}
