//! What the harness prints and writes: every metric by name with its
//! unit, `result.json`, `trace.jsonl`, and the benchmark contract's
//! one-line result.

use crate::harness::Measured;
use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::record::Record;
use crate::spans::Spans;
use crate::workloads::WORKLOADS;
use edgechain_telemetry::json;
use std::path::Path;

/// Schema tag of `result.json`.
pub const SCHEMA: &str = "edgebench/1";

/// Folds every workload's summary into the flat `result.json` record:
/// run-wide fields first, then `<workload>/<key>` for every summary key.
pub fn result_record(seed: u64, mode: &str, summaries: &[Record]) -> Record {
    let mut out = Record::new();
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    out.text("schema", SCHEMA)
        // As text: a u64 seed does not fit a JSON number exactly.
        .text("seed", seed.to_string())
        .text("mode", mode)
        .num("available_parallelism", threads as f64);
    for (w, summary) in WORKLOADS.iter().zip(summaries) {
        for (key, value) in summary.fields() {
            let key = format!("{}/{key}", w.name);
            match value.as_str() {
                Some(text) => out.text(key, text),
                None => out.num(key, value.as_f64().unwrap_or(f64::NAN)),
            };
        }
    }
    out
}

fn print_metric(metric: &Metric, summary: &Record) {
    let Some(value) = summary.get_num(metric.name) else {
        println!("  {:<36} {:>16} {}", metric.name, "-", metric.unit);
        return;
    };
    let mut line = format!("  {:<36} {:>16.6} {}", metric.name, value, metric.unit);
    let stat = |s: &str| summary.get_num(&format!("{}/{s}", metric.name));
    if let (Some(q1), Some(q3), Some(n)) = (stat("q1"), stat("q3"), stat("n")) {
        line.push_str(&format!("  [q1 {q1:.6}, q3 {q3:.6}, n={n}]"));
    }
    if let Some(wall) = stat("wall") {
        line.push_str(&format!("  (fastest raw {wall:.6})"));
    }
    println!("{line}");
}

/// Prints every metric of every workload by name, with its unit.
pub fn print_all(summaries: &[Record], measured: &[Measured]) {
    for ((w, summary), m) in WORKLOADS.iter().zip(summaries).zip(measured) {
        println!("== {} — {}", w.name, w.why);
        println!(
            "  {:<36} {}",
            "report_digest",
            summary.get_text("report_digest").unwrap_or("-")
        );
        for key in ["ops_attempted", "ops_failed"] {
            let v = summary.get_num(key).unwrap_or(0.0);
            println!("  {key:<36} {v:>16} count");
        }
        for metric in &END_TO_END {
            print_metric(metric, summary);
        }
        if m.traced.is_some() {
            for metric in &PER_LAYER {
                print_metric(metric, summary);
            }
        }
        for failure in &m.failures {
            println!("  FAILED: {failure}");
        }
    }
}

/// Writes `result.json` and `trace.jsonl` into `dir`.
///
/// # Errors
///
/// Returns the I/O error with the path it hit.
pub fn write_files(dir: &Path, result: &Record, spans: &Spans) -> Result<(), String> {
    let put = |name: &str, text: String| {
        let path = dir.join(name);
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
    };
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    put("result.json", result.to_json("\n") + "\n")?;
    let trace: String = spans
        .finished()
        .iter()
        .map(|s| s.to_record().to_json(" ") + "\n")
        .collect();
    put("trace.jsonl", trace)
}

/// The contract's last stdout line: `correct`, `attempted`, `failed` and
/// the named metrics with their units. A metric the pass could not
/// produce makes the run incorrect rather than silently short.
pub fn contract_line(metrics: &[Metric], summary: &Record, m: &Measured) -> String {
    let mut body = String::new();
    let mut missing = 0;
    for metric in metrics {
        let Some(value) = summary.get_num(metric.name).filter(|v| v.is_finite()) else {
            missing += 1;
            continue;
        };
        if !body.is_empty() {
            body.push_str(", ");
        }
        json::write_str(&mut body, metric.name);
        body.push_str(": {\"value\": ");
        json::write_f64(&mut body, value);
        body.push_str(", \"unit\": ");
        json::write_str(&mut body, metric.unit);
        body.push('}');
    }
    let correct = m.failures.is_empty() && missing == 0;
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        m.attempted.max(1),
        m.failed + missing,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summaries() -> Vec<Record> {
        WORKLOADS
            .iter()
            .enumerate()
            .map(|(i, _)| {
                let mut r = Record::new();
                r.text("report_digest", format!("d{i}"))
                    .num("sim_speedup", 1_000.5 + i as f64)
                    .num("sim_speedup/q1", 990.0)
                    .num("core.alloc.share", 0.15);
                r
            })
            .collect()
    }

    #[test]
    fn result_json_round_trips_through_the_telemetry_parser() {
        let result = result_record(0xED6E, "full", &summaries());
        let parsed = Record::parse(&result.to_json("\n")).expect("flat JSON");
        assert_eq!(parsed, result);
        assert_eq!(parsed.get_text("schema"), Some(SCHEMA));
        assert_eq!(parsed.get_text("seed"), Some("60782"));
        assert_eq!(parsed.get_num("soak/sim_speedup"), Some(1_002.5));
        assert_eq!(parsed.get_text("raft/report_digest"), Some("d4"));
    }

    #[test]
    fn contract_line_reports_missing_metrics_as_failures() {
        let summary = &summaries()[0];
        let m = Measured {
            attempted: 12,
            ..Measured::default()
        };
        let line = contract_line(&END_TO_END[..1], summary, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": \
             {\"sim_speedup\": {\"value\": 1000.5, \"unit\": \"sim-s/s\"}}}"
        );
        let line = contract_line(&END_TO_END[..2], summary, &m);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 12, \"failed\": 1,"));
    }
}
