//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <sim-sectored|fig14-alloy|dapd-rpc> --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the named workload runs with tracing off and the
//! end-to-end metrics are reported. With `--trace 1` the traced pass of
//! every workload runs — timing wrappers around the simulator's seams,
//! one span per figure cell, per-call client timings — so every
//! per-layer metric is measured on the workload that exercises its
//! layer; `--workload` is still checked. Every run checks its outputs;
//! the last line of standard output is the JSON result, and the exit
//! code is 1 when a check failed. See `perfbench/README.md`.

mod affinity;
mod fig;
mod procfs;
mod report;
mod rpc;
mod sim;
mod span;
mod stats;
mod timed;
mod yardstick;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Report;

/// The seed the pinned `sim-sectored` digests were taken at.
pub const DEFAULT_SEED: u64 = 1;

/// The workloads, by name.
const WORKLOADS: [&str; 3] = ["sim-sectored", "fig14-alloy", "dapd-rpc"];

/// Where the run writes its spans and sockets: `perfbench/out` under
/// the working directory (the repository root).
pub fn out_dir() -> PathBuf {
    PathBuf::from("perfbench").join("out")
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload {value}")),
            "--seed" => seed = Some(number()?),
            "--seconds" if number()? > 0 => seconds = Some(number()?),
            "--seconds" => return Err("--seconds must be positive".into()),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Every workload's traced pass, in a fixed order.
fn traced(seed: u64, seconds: f64) -> Report {
    let mut tracer = span::Tracer::new();
    let mut report = sim::traced(seed, &mut tracer);
    report.absorb(fig::traced(&mut tracer));
    report.absorb(rpc::traced(seed, seconds, &mut tracer));
    let path = out_dir().join(format!("spans-seed{seed}.jsonl"));
    match tracer.write_jsonl(&path) {
        Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
        Err(e) => report.check(false, || format!("cannot write {}: {e}", path.display())),
    }
    report
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(out_dir()) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir().display());
        return ExitCode::from(2);
    }
    let seconds = args.seconds as f64;
    let report = if args.trace {
        traced(args.seed, seconds)
    } else {
        match args.workload.as_str() {
            "sim-sectored" => sim::run(args.seed, seconds),
            "fig14-alloy" => fig::run(seconds),
            _ => rpc::run(args.seed, seconds),
        }
    };
    for m in report.metrics() {
        println!("{:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for f in report.failures() {
        eprintln!("perfbench: CHECK FAILED: {f}");
    }
    println!("{}", report.to_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_parse_and_validate() {
        let a = parse("--workload dapd-rpc --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("dapd-rpc", 7, 10, true)
        );
        assert!(parse("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(parse("--workload fig14-alloy --seed 1 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload fig14-alloy --seed x --seconds 1 --trace 0").is_err());
        assert!(parse("--workload fig14-alloy --seed 1 --seconds 1 --trace 2").is_err());
        assert!(parse("--workload fig14-alloy --seed 1 --seconds 1").is_err());
        assert!(parse("--workload fig14-alloy --seed").is_err());
    }
}
