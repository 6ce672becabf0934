//! `dapctl fig <id>`: the one entry point for every figure. A bad
//! invocation is a usage error (exit 2) that lists the valid ids, and a
//! figure's stdout is exactly its `experiments` function's report.

use std::process::{Command, Output};

use dap_bench::figures::FIGURES;

fn dapctl(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dapctl"))
        .args(args)
        .env("DAP_INSTRUCTIONS", "2000")
        .env("DAP_THREADS", "1")
        .env_remove("DAP_TELEMETRY")
        .env_remove("DAP_RESUME")
        .output()
        .expect("spawn dapctl")
}

fn assert_usage_error_listing_ids(args: &[&str]) {
    let out = dapctl(args);
    assert_eq!(out.status.code(), Some(2), "dapctl {args:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    for figure in FIGURES {
        assert!(
            stderr.lines().any(|l| l.trim() == figure.id),
            "dapctl {args:?}: `{}` not listed in:\n{stderr}",
            figure.id
        );
    }
    assert!(out.stdout.is_empty(), "dapctl {args:?} printed a figure");
}

#[test]
fn missing_or_unknown_id_lists_every_figure() {
    assert_usage_error_listing_ids(&["fig"]);
    assert_usage_error_listing_ids(&["fig", "fig03_nonexistent"]);
    assert_usage_error_listing_ids(&["fig", "fig05_tag_cache", "fig06_dap_sectored"]);
    assert_usage_error_listing_ids(&["fig", "fig05_tag_cache", "--policy", "dap"]);
}

#[test]
fn unknown_flag_is_a_usage_error() {
    assert_eq!(
        dapctl(&["fig", "fig05_tag_cache", "--bogus"]).status.code(),
        Some(2)
    );
    assert_eq!(
        dapctl(&["run", "mcf", "--polcy", "dap"]).status.code(),
        Some(2)
    );
}

#[test]
fn stdout_is_the_experiment_report() {
    let out = dapctl(&["fig", "fig05_tag_cache", "--threads=1"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let expected = format!("{}\n", experiments::figures::fig05_tag_cache(2000));
    assert_eq!(String::from_utf8_lossy(&out.stdout), expected);
}

/// Runs `dapctl fig <id>` with a 1 ms per-cell deadline, which no cell
/// at 20k instructions per core can meet.
fn fig_past_deadline(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dapctl"))
        .args(args)
        .env("DAP_CELL_DEADLINE_MS", "1")
        .env("DAP_INSTRUCTIONS", "20000")
        .env("DAP_QUIET", "1")
        .env_remove("DAP_THREADS")
        .env_remove("DAP_TELEMETRY")
        .env_remove("DAP_RESUME")
        .output()
        .expect("spawn dapctl")
}

#[test]
fn cell_deadline_applies_to_every_figure() {
    let out = fig_past_deadline(&["fig", "fig06_dap_sectored", "--threads", "1"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "a figure past its deadline exited 0");
    assert!(
        stderr.contains("exceeded its deadline"),
        "stderr does not name the deadline:\n{stderr}"
    );
}

#[test]
fn failed_fault_figure_prints_no_invented_rows() {
    let out = fig_past_deadline(&["fig", "fig_fault_degradation"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "a failed Fig. F exited 0:\n{stdout}");
    assert!(
        !stdout.contains("0.0000"),
        "Fig. F printed rows no cell produced:\n{stdout}"
    );
    assert!(
        stderr.contains("exceeded its deadline"),
        "stderr does not name the deadline:\n{stderr}"
    );
}
