//! `edgebench`: one harness, five workloads, end-to-end and per-layer
//! numbers for the edgechain simulator. See `bench/README.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod calib;
mod child;
mod diff;
mod drills;
mod harness;
mod manifest;
mod metrics;
mod record;
mod report;
mod spans;
mod stats;
mod workloads;

use record::Record;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "usage:
  edgebench run [--seed S] [--smoke] [--out DIR]
      every workload: prints every metric, writes DIR/result.json and
      DIR/trace.jsonl (DIR defaults to bench/out)
  edgebench run --workload NAME --seconds T --trace 0|1 [--seed S]
      one workload for T seconds; the last line of output is the
      benchmark contract's JSON result
  edgebench diff A.json B.json
      compare two result files under the benchmark's own bounds
  edgebench manifest
      print BENCHMARK.json as the metric catalogue defines it";

/// `--flag value` pairs and bare `--flag`s after the subcommand.
struct Flags {
    values: BTreeMap<String, String>,
    positional: Vec<String>,
}

impl Flags {
    fn parse(args: &[String], bare: &[&str]) -> Result<Flags, String> {
        let mut flags = Flags {
            values: BTreeMap::new(),
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if !arg.starts_with("--") {
                flags.positional.push(arg.clone());
            } else if bare.contains(&arg.as_str()) {
                flags.values.insert(arg.clone(), String::new());
            } else {
                let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                flags.values.insert(arg.clone(), value.clone());
            }
        }
        Ok(flags)
    }

    fn has(&self, flag: &str) -> bool {
        self.values.contains_key(flag)
    }

    fn get<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.values
            .get(flag)
            .map(|v| v.parse().map_err(|_| format!("{flag}: cannot read {v:?}")))
            .transpose()
    }

    fn seed(&self) -> Result<u64, String> {
        let Some(text) = self.values.get("--seed") else {
            return Ok(workloads::DEFAULT_SEED);
        };
        let parsed = match text.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => text.parse(),
        };
        parsed.map_err(|_| format!("--seed: cannot read {text:?}"))
    }

    fn workload(&self) -> Result<Option<&'static workloads::Workload>, String> {
        self.values
            .get("--workload")
            .map(|name| {
                workloads::by_name(name).ok_or_else(|| format!("--workload: no workload {name:?}"))
            })
            .transpose()
    }

    fn reject_unknown(&self, known: &[&str]) -> Result<(), String> {
        match self.values.keys().find(|k| !known.contains(&k.as_str())) {
            Some(flag) => Err(format!("unknown flag {flag}\n{USAGE}")),
            None => Ok(()),
        }
    }
}

fn run(flags: &Flags) -> Result<ExitCode, String> {
    flags.reject_unknown(&[
        "--seed",
        "--smoke",
        "--out",
        "--workload",
        "--seconds",
        "--trace",
    ])?;
    let seed = flags.seed()?;
    if let Some(w) = flags.workload()? {
        let seconds: f64 = flags
            .get("--seconds")?
            .ok_or("--workload needs --seconds")?;
        let trace = flags.get::<u8>("--trace")?.unwrap_or(0) != 0;
        let m = harness::run_contract(w, seed, seconds, trace);
        let summary = harness::summarize(&m);
        let metrics = if trace {
            metrics::PER_LAYER.to_vec()
        } else {
            manifest::contract_end_to_end()
        };
        for failure in &m.failures {
            eprintln!("FAILED: {failure}");
        }
        for metric in &metrics {
            if let Some(v) = summary.get_num(metric.name) {
                println!("{:<36} {v:>16.6} {}", metric.name, metric.unit);
            }
        }
        println!("{}", report::contract_line(&metrics, &summary, &m));
        // A child that could not run at all (no placement for this seed,
        // a checkout without the program) is an error, not a result.
        let ran = m.timed.len() + usize::from(m.traced.is_some());
        return Ok(if ran == 0 {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        });
    }

    let smoke = flags.has("--smoke");
    let out: PathBuf = flags
        .get("--out")?
        .unwrap_or_else(|| PathBuf::from("bench/out"));
    let (measured, spans) = harness::run_all(seed, smoke);
    let summaries: Vec<Record> = measured.iter().map(harness::summarize).collect();
    report::print_all(&summaries, &measured);
    let mode = if smoke { "smoke" } else { "full" };
    let result = report::result_record(seed, mode, &summaries);
    report::write_files(&out, &result, &spans)?;
    println!("wrote {0}/result.json and {0}/trace.jsonl", out.display());
    let failures: usize = measured.iter().map(|m| m.failures.len()).sum();
    if failures > 0 {
        eprintln!("{failures} checks failed (seed {seed})");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn diff(flags: &Flags) -> Result<ExitCode, String> {
    flags.reject_unknown(&[])?;
    let [a, b] = flags.positional.as_slice() else {
        return Err(format!("diff takes two result files\n{USAGE}"));
    };
    let load = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Record::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let bad = diff::run(&load(a)?, &load(b)?);
    Ok(if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn child(flags: &Flags, process_start: Instant) -> Result<ExitCode, String> {
    let w = flags.workload()?.ok_or("child needs --workload")?;
    let minutes = flags.get("--minutes")?.ok_or("child needs --minutes")?;
    let mode = match flags.values.get("--mode").map(String::as_str) {
        Some("timed") => child::Mode::Timed,
        Some("traced") => child::Mode::Traced,
        Some("setup") => child::Mode::Setup,
        Some("drills") => child::Mode::Drills {
            items_per_block: flags.get("--items-per-block")?.unwrap_or(1),
            live_items: flags.get("--live-items")?.unwrap_or(1),
            budget: Duration::from_millis(flags.get("--budget-ms")?.unwrap_or(100)),
        },
        other => return Err(format!("child: bad --mode {other:?}")),
    };
    let instance = flags.get("--instance")?.unwrap_or(0);
    let mut spans = spans::Spans::new(process_start);
    let result = child::run(
        w,
        flags.seed()?,
        minutes,
        instance,
        mode,
        process_start,
        &mut spans,
    )?;
    for span in spans.finished() {
        println!("{}", span.to_record().to_json(" "));
    }
    println!("{}", result.to_json(" "));
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let outcome = Flags::parse(rest, &["--smoke"]).and_then(|flags| match command.as_str() {
        "run" => run(&flags),
        "diff" => diff(&flags),
        "child" => child(&flags, process_start),
        "manifest" => {
            print!("{}", manifest::benchmark_json());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(format!("unknown command {command}\n{USAGE}")),
    });
    outcome.unwrap_or_else(|message| {
        eprintln!("edgebench: {message}");
        ExitCode::FAILURE
    })
}
