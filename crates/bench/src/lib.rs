//! # dap-bench — the benchmark harness
//!
//! The `dapctl` binary regenerates every paper figure/table from one
//! table ([`figures`]): `cargo run --release -p dap-bench --bin dapctl --
//! fig fig06_dap_sectored`. Its other subcommands run ad-hoc simulations,
//! window traces, the pinned regression suite ([`regress`]) and the
//! `dapd` daemon. Dependency-free microbenchmarks for the hot structures
//! (`cargo bench`) build on [`timing::Harness`].
//!
//! Figures honor the `DAP_INSTRUCTIONS` environment variable to override
//! the per-core instruction budget; larger budgets reduce warmup bias at
//! proportional runtime. `dapctl` also accepts `--threads N` (see
//! [`cli`]), and fig01/06/14/15 emit machine-readable window-trace
//! artifacts when `DAP_TELEMETRY=1` (see [`figures`]).

// `deny` rather than `forbid`: the `sigint` module registers the Ctrl-C
// handler through C `signal(2)` (std has no signal API) and carries the
// crate's only `#[allow(unsafe_code)]`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod figures;
pub mod regress;
pub mod sigint;
pub mod timing;

/// Per-core instruction budget: `DAP_INSTRUCTIONS` env var or `default`.
/// A set-but-invalid value is a usage error: the process prints a
/// diagnostic and exits with status 2 (matching the CLI flag contract)
/// instead of panicking.
pub fn instructions(default: u64) -> u64 {
    match std::env::var("DAP_INSTRUCTIONS") {
        Ok(s) => match s.trim().parse::<u64>() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("DAP_INSTRUCTIONS must be a positive integer, got {s:?}");
                std::process::exit(2);
            }
        },
        Err(_) => default,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn default_when_unset() {
        std::env::remove_var("DAP_INSTRUCTIONS");
        assert_eq!(super::instructions(123), 123);
    }
}
