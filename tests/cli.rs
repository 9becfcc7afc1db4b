//! `edgechain-cli` turns flag values the simulator cannot run into a
//! one-line message and exit status 2 — the same as a flag that does not
//! parse — instead of tripping an assert deep in the stack (status 101)
//! or silently running something else.

use std::process::Command;

#[test]
fn hostile_flag_values_exit_2_with_a_message() {
    for (flags, names) in [
        (["--nodes", "0"], "nodes"),
        (["--block-interval", "0"], "block_interval_secs"),
        (["--rate", "nan"], "data_items_per_min"),
        (["--rate", "-1"], "data_items_per_min"),
        (["--malicious", "2"], "malicious_fraction"),
        (["--mobility", "nan"], "topology.mobility_range"),
        (["--rescale", "0"], "token_rescale_blocks"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_edgechain-cli"))
            .args(flags)
            .args(["--quiet", "--minutes", "1"])
            .output()
            .expect("the CLI binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flags:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{flags:?} printed a report");
        let lines: Vec<&str> = stderr.lines().collect();
        assert_eq!(lines.len(), 1, "{flags:?}: {stderr}");
        assert!(
            lines[0].starts_with("error: ") && lines[0].contains(names),
            "{flags:?}: {stderr}"
        );
    }
}

#[test]
fn a_valid_run_still_exits_0() {
    let out = Command::new(env!("CARGO_BIN_EXE_edgechain-cli"))
        .args(["--nodes", "8", "--minutes", "3", "--rate", "0", "--quiet"])
        .output()
        .expect("the CLI binary runs");
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("run: 8 nodes"));
}
