//! `edgechain-cli` — command-line front end for the network simulation.
//!
//! Runs the full edge-blockchain simulation with the paper's defaults and
//! prints the run report. Every evaluation knob is a flag, so parameter
//! sweeps can be scripted without writing Rust.
//!
//! ```text
//! edgechain-cli [--nodes N] [--minutes M] [--rate ITEMS_PER_MIN]
//!               [--placement optimal|random|none] [--seed S]
//!               [--malicious FRACTION] [--rescale BLOCKS]
//!               [--mobility METERS]
//!               [--block-interval SECS] [--raft] [--verify] [--quiet]
//!               [--export FILE] [--check FILE]
//! ```
//!
//! `--export FILE` writes the final chain in the binary wire format
//! (`edgechain::core::codec`); `--check FILE` loads such a file, re-validates
//! every block and signature, and prints a summary instead of simulating.
//!
//! Example: compare placements at 30 nodes:
//!
//! ```sh
//! cargo run --release --bin edgechain-cli -- --nodes 30 --placement optimal
//! cargo run --release --bin edgechain-cli -- --nodes 30 --placement none
//! ```

use edgechain::core::{EdgeNetwork, NetworkConfig, Placement};
use edgechain::sim::TopologyConfig;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: edgechain-cli [--nodes N] [--minutes M] [--rate R] \
         [--placement optimal|random|none] [--seed S] [--malicious F] \
         [--rescale BLOCKS] [--mobility METERS] \
         [--block-interval SECS] [--raft] [--verify] [--quiet] \
         [--export FILE] [--check FILE]"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(args: &[String], i: &mut usize, flag: &str) -> T {
    *i += 1;
    args.get(*i)
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| {
            eprintln!("error: {flag} needs a valid value");
            usage()
        })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let mut config = NetworkConfig {
        nodes: 20,
        sim_minutes: 100,
        ..NetworkConfig::default()
    };
    let mut quiet = false;
    let mut export: Option<String> = None;
    let mut check: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--nodes" => config.nodes = parse(&args, &mut i, "--nodes"),
            "--minutes" => config.sim_minutes = parse(&args, &mut i, "--minutes"),
            "--rate" => config.data_items_per_min = parse(&args, &mut i, "--rate"),
            "--seed" => config.seed = parse(&args, &mut i, "--seed"),
            "--malicious" => config.malicious_fraction = parse(&args, &mut i, "--malicious"),
            "--rescale" => config.token_rescale_blocks = Some(parse(&args, &mut i, "--rescale")),
            "--mobility" => {
                config.topology = TopologyConfig {
                    mobility_range: parse(&args, &mut i, "--mobility"),
                    ..config.topology
                }
            }
            "--block-interval" => {
                config.block_interval_secs = parse(&args, &mut i, "--block-interval")
            }
            "--placement" => {
                i += 1;
                config.placement = match args.get(i).map(String::as_str) {
                    Some("optimal") => Placement::Optimal,
                    Some("random") => Placement::Random,
                    Some("none") | Some("no-proactive") => Placement::NoProactive,
                    _ => usage(),
                };
            }
            "--raft" => config.raft_consensus = true,
            "--verify" => config.verify_signatures = true,
            "--quiet" => quiet = true,
            "--export" => export = Some(parse(&args, &mut i, "--export")),
            "--check" => check = Some(parse(&args, &mut i, "--check")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("error: unknown flag {other}");
                usage();
            }
        }
        i += 1;
    }

    if let Some(path) = check {
        return check_chain_file(&path);
    }

    if !quiet {
        eprintln!(
            "running: {} nodes, {} min, {:.1} items/min, placement={}, seed={}",
            config.nodes,
            config.sim_minutes,
            config.data_items_per_min,
            config.placement,
            config.seed
        );
    }
    let network = match EdgeNetwork::new(config) {
        Ok(n) => n,
        Err(e) => {
            // A configuration that cannot run is a usage error, like a
            // flag that does not parse.
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let (report, chain) = network.run_with_chain();
    println!("{report}");
    if !quiet {
        eprintln!(
            "chain: {} blocks, {} metadata items on-chain",
            chain.len(),
            chain.total_metadata_items()
        );
    }
    if let Some(path) = export {
        let bytes = edgechain::core::codec::encode_chain(chain.as_slice());
        if let Err(e) = std::fs::write(&path, &bytes) {
            eprintln!("error: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        if !quiet {
            eprintln!("exported {} bytes to {path}", bytes.len());
        }
    }
    ExitCode::SUCCESS
}

/// Loads an exported chain file, re-validates everything, prints a summary.
fn check_chain_file(path: &str) -> ExitCode {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: reading {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let blocks = match edgechain::core::codec::decode_chain(&bytes) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: decoding {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let chain = match edgechain::core::Blockchain::from_blocks(blocks) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: chain invalid: {e}");
            return ExitCode::FAILURE;
        }
    };
    for block in chain.iter().skip(1) {
        if let Err(e) = edgechain::core::Blockchain::verify_block_signatures(block) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    let ledger = chain.derive_ledger();
    println!(
        "{path}: valid chain, {} blocks, {} metadata items, {} distinct miners",
        chain.len(),
        chain.total_metadata_items(),
        ledger.len()
    );
    ExitCode::SUCCESS
}
