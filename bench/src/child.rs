//! What runs inside one child process: one instance of a workload (timed,
//! traced, or set-up only), or the layer drills.
//!
//! Every instance runs in a fresh process, one at a time, so `VmHWM` and
//! the allocator's state belong to that instance and no two simulations
//! share the cores. A child prints its harness spans and then one result
//! record, all as flat JSON lines.

use crate::calib::{self, Probe};
use crate::drills::{self, Shape};
use crate::record::Record;
use crate::spans::Spans;
use crate::workloads::Workload;
use edgechain_core::{EdgeNetwork, RunReport};
use edgechain_telemetry as telemetry;
use std::time::{Duration, Instant};

/// What a child process is asked to do.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// Build the network and run it, untraced.
    Timed,
    /// The same under a telemetry session (spans off).
    Traced,
    /// Build the network and stop: one more `setup_s` sample.
    Setup,
    /// The layer drills, `budget` per timed metric.
    Drills {
        /// Metadata items per drilled block.
        items_per_block: usize,
        /// Live registry size for the snapshot and invariant drills.
        live_items: usize,
        /// Time budget per timed metric.
        budget: Duration,
    },
}

/// `VmHWM` of this process in bytes; 0 where `/proc` is unavailable.
fn peak_rss_bytes() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0)
}

/// SHA-256 over the `Debug` form of the report with `telemetry = None`:
/// the identity a change to the simulator must not move.
fn report_digest(report: &RunReport) -> String {
    let mut plain = report.clone();
    plain.telemetry = None;
    edgechain_crypto::sha256(format!("{plain:?}")).to_hex()
}

/// Runs instance `instance` of `w` at `minutes` in `mode` and returns its
/// result record.
///
/// # Errors
///
/// Returns a message naming the seed when the instance's placement or
/// fault plan is unusable.
pub fn run(
    w: &Workload,
    seed: u64,
    minutes: u64,
    instance: usize,
    mode: Mode,
    process_start: Instant,
    spans: &mut Spans,
) -> Result<Record, String> {
    let config = w
        .configs(seed, minutes)
        .into_iter()
        .nth(instance)
        .ok_or_else(|| format!("workload {} has no instance {instance}", w.name))?;
    let mut out = Record::new();
    out.text("kind", "result");
    if let Mode::Drills {
        items_per_block,
        live_items,
        budget,
    } = mode
    {
        let shape = Shape {
            config,
            items_per_block,
            live_items,
            seed,
        };
        drills::run_all(&shape, budget, spans, &mut out);
        return Ok(out);
    }

    let whose = format!("workload {} seed {seed} instance {instance}", w.name);
    // `EdgeNetwork::new` panics on an invalid plan; say which seed instead.
    config
        .fault_plan
        .validate(config.nodes)
        .map_err(|e| format!("{whose}: invalid fault plan: {e}"))?;
    let (network, _) = spans.scope("new", |_| EdgeNetwork::new(config.clone()));
    let network = network.map_err(|e| format!("{whose}: no usable placement: {e}"))?;
    // Child start → run(): plan generation plus the constructor.
    let setup_wall_s = process_start.elapsed().as_secs_f64();
    let mut probe = Probe::new();
    let probe_before = probe.secs();
    out.num("setup_s", setup_wall_s * calib::NOMINAL_SECS / probe_before)
        .num("setup_s/wall", setup_wall_s);
    if mode == Mode::Setup {
        return Ok(out);
    }

    if mode == Mode::Traced {
        telemetry::enable();
    }
    let ((report, topo_bytes), run_wall_s) = spans.scope("run", |_| network.run_with_memory());
    let session = telemetry::finish();
    let probe_after = probe.secs();

    let mut broken = Vec::new();
    if report.invariant_violations != 0 {
        broken.push(format!(
            "{whose}: {} invariant violations",
            report.invariant_violations
        ));
    }
    if report.blocks_mined == 0 {
        broken.push(format!("{whose}: no blocks mined"));
    }
    out.text("report_digest", report_digest(&report))
        .text("broken", broken.join("; "))
        .num(
            "run_s",
            calib::reference_secs(run_wall_s, probe_before, probe_after),
        )
        .num("run_s/wall", run_wall_s)
        // The probe's table is resident at the peak and is not the
        // program's memory.
        .num(
            "peak_rss_mb",
            (peak_rss_bytes() - probe.resident_bytes() as f64) / 1e6,
        )
        .num("sim.topology.memory_mb", topo_bytes as f64 / 1e6);
    crate::metrics::instance(&report, &config, &mut out);
    if let Some(session) = session {
        out.num("telemetry.trace_events", session.events().len() as f64);
        crate::metrics::registry(&session.registry, &mut out);
    }
    Ok(out)
}
