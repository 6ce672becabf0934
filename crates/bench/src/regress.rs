//! `dapctl bench` — a pinned-suite performance regression harness.
//!
//! Simulator throughput is a feature: a 2× slowdown turns the paper's
//! figure sweeps from minutes into hours. This module pins a small suite
//! of representative cells (architectures × policies that exercise every
//! hot path), times them, and emits a schema-versioned `BENCH_<label>.json`
//! report that a later run can be compared against:
//!
//! ```text
//! dapctl bench --label seed                 # emit target/bench/BENCH_seed.json
//! dapctl bench --compare BENCH_seed.json    # exit 3 if >10% slower
//! dapctl bench --compare b.json --warn-only # print regressions, exit 0
//! ```
//!
//! The report carries wall time, windows/s and accesses/s throughput,
//! per-cell timings, peak RSS (`VmHWM` from `/proc/self/status`), the
//! executor's worker-thread count, and — when the build has telemetry —
//! the cycle-attribution profiler's phase percentiles for the profiled
//! cell, so a performance *and* a latency-attribution drift are both
//! visible in one artifact.
//!
//! Comparisons are wall-clock based and therefore machine-sensitive:
//! compare against a baseline recorded on the same machine class, and
//! treat CI comparisons as advisory (`--warn-only`).

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use dap_telemetry::json::{obj, parse, Json};
use dap_telemetry::Percentiles;
use experiments::runner::{build_policy, PolicyKind};
use mem_sim::{System, SystemConfig};
use workloads::{rate_mode, spec};

/// Name of the bench-report schema.
pub const SCHEMA_NAME: &str = "dap-bench";

/// Version of the bench-report schema. Bump when a field is added,
/// removed, or reinterpreted; [`report_from_json`] rejects mismatches.
pub const SCHEMA_VERSION: u32 = 1;

/// Default regression threshold for `--compare`, in percent.
pub const DEFAULT_THRESHOLD_PCT: f64 = 10.0;

/// Exit status when `--compare` finds a regression (without
/// `--warn-only`). Distinct from usage errors (2) and artifact parse
/// failures (4).
pub const EXIT_REGRESSION: i32 = 3;

/// Baseline cells faster than this are skipped by [`compare`]: at
/// sub-10ms scale, scheduler noise dwarfs any real regression.
const MIN_COMPARABLE_SECONDS: f64 = 0.01;

/// Each cell is simulated this many times and the *minimum* wall time is
/// reported. Scheduler preemption and frequency drift only ever add
/// time, so the minimum over repeats estimates the true cost far more
/// stably than any single run (observed run-to-run spread on a busy
/// single-CPU host: ±20%; min-of-3 spread: a few percent). The simulator
/// is deterministic, so repeats produce identical windows/accesses.
const TIMING_REPEATS: usize = 3;

/// One pinned suite cell: a benchmark clone on one architecture/policy.
struct SuiteCell {
    name: &'static str,
    bench: &'static str,
    policy: PolicyKind,
    arch: &'static str,
    cores: usize,
    /// Attach the full telemetry + cycle-attribution profiler stack and
    /// harvest its phase percentiles into the report.
    profiled: bool,
}

/// The pinned suite. Chosen to cover the hot paths that dominate figure
/// runtime: the sectored cache with and without the DAP controller (the
/// controller's solver + bookkeeping is the paper's core cost), the
/// Alloy direct-mapped path, and the eDRAM tag path. Names are stable
/// identifiers — `--compare` matches cells by name.
const SUITE: &[SuiteCell] = &[
    SuiteCell {
        name: "mcf-r8-sectored-dap",
        bench: "mcf",
        policy: PolicyKind::Dap,
        arch: "sectored",
        cores: 8,
        profiled: true,
    },
    SuiteCell {
        name: "mcf-r8-sectored-base",
        bench: "mcf",
        policy: PolicyKind::Baseline,
        arch: "sectored",
        cores: 8,
        profiled: false,
    },
    SuiteCell {
        name: "libquantum-r8-alloy-dap",
        bench: "libquantum",
        policy: PolicyKind::Dap,
        arch: "alloy",
        cores: 8,
        profiled: false,
    },
    // omnetpp at rate-8 keeps the eDRAM read/write-path split busy for
    // tens of milliseconds per run; the milc-r4 cell it replaced finished
    // in ~2ms, under `MIN_COMPARABLE_SECONDS`, so `--compare` silently
    // skipped it and the eDRAM path had no enforced regression coverage.
    SuiteCell {
        name: "omnetpp-r8-edram-dap",
        bench: "omnetpp",
        policy: PolicyKind::Dap,
        arch: "edram",
        cores: 8,
        profiled: false,
    },
];

/// Timing of one suite cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellTiming {
    /// Stable cell identifier (suite name; `--compare` matches on it).
    pub name: String,
    /// Wall-clock seconds the simulation took.
    pub seconds: f64,
    /// DAP windows simulated (slowest core's cycles / 64).
    pub windows: u64,
    /// Demand accesses (reads + writes) the subsystem served.
    pub accesses: u64,
}

/// Phase percentiles harvested from the profiled cell's histograms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhasePercentiles {
    /// Histogram name (e.g. `prof.cache_queue_wait`).
    pub phase: String,
    /// Samples in the histogram.
    pub count: u64,
    /// p50/p90/p99/p999, as bucket upper bounds.
    pub percentiles: Percentiles,
}

/// A full bench report — everything `BENCH_<label>.json` carries.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Human-chosen run label (`BENCH_<label>.json`).
    pub label: String,
    /// Per-core instruction budget every cell ran.
    pub instructions: u64,
    /// Worker threads the experiment executor would use (informational —
    /// the suite itself runs cells sequentially for stable timings).
    pub threads: usize,
    /// Total wall-clock seconds across all cells.
    pub wall_seconds: f64,
    /// Aggregate DAP windows per second across the suite.
    pub windows_per_sec: f64,
    /// Aggregate demand accesses per second across the suite.
    pub accesses_per_sec: f64,
    /// Peak resident set size in kB (`VmHWM`), 0 when unavailable.
    pub peak_rss_kb: u64,
    /// Per-cell timings, in suite order.
    pub cells: Vec<CellTiming>,
    /// Profiler phase percentiles from the profiled cell (empty when the
    /// build is `telemetry-off`).
    pub profile: Vec<PhasePercentiles>,
}

fn config_for(arch: &str, cores: usize) -> SystemConfig {
    match arch {
        "alloy" => SystemConfig::alloy_cache(cores),
        "edram" => SystemConfig::edram_cache(cores, 256),
        _ => SystemConfig::sectored_dram_cache(cores),
    }
}

/// Decisions the `dapd-decisions` cell makes per instruction of the
/// per-core budget (150k instructions → 600k decisions: enough to clear
/// [`MIN_COMPARABLE_SECONDS`] on a laptop-class core while staying a
/// small fraction of the suite's wall time).
const DAPD_DECISIONS_PER_INSTRUCTION: u64 = 4;

/// Times the `dapd` decision engine in-process: a route + served-report
/// round per request over an mcf-shaped request stream, re-solving Eq. 4
/// from the measured rates every 64 decisions. In the resulting
/// [`CellTiming`], `accesses` counts *decisions* (so the report's
/// accesses/s column reads as decisions/s for this cell) and `windows`
/// counts re-solves.
pub fn run_dapd_cell(decisions: u64) -> CellTiming {
    let spec = spec("mcf").unwrap_or_else(|| unreachable!("mcf is in the workload table"));
    let mut seconds = f64::INFINITY;
    let mut windows = 0u64;
    for _ in 0..TIMING_REPEATS {
        let mut engine = dapd::Engine::new(dapd::EngineConfig::hbm_ddr4_pair())
            .unwrap_or_else(|e| unreachable!("stock dapd config is valid: {e}"));
        let tenants = engine.config().tenants.len() as u16;
        let rates: Vec<f64> = engine
            .config()
            .backends
            .iter()
            .map(|b| b.nominal_gbps)
            .collect();
        let mut stream = workloads::RequestStream::from_spec(spec, tenants, 0xBE9C_0001);
        // Sub-nanosecond service times carry fractionally between
        // reports so windowed busy time integrates to the true rate.
        let mut carry_ns = vec![0.0f64; rates.len()];
        let start = Instant::now();
        for _ in 0..decisions {
            let r = stream.next_request();
            let d = engine
                .route(r.tenant, r.bytes)
                .unwrap_or_else(|e| unreachable!("stream tenants match the engine: {e}"));
            // Close the loop: the chosen backend "serves" at nominal
            // rate, so the measured-bandwidth re-solve path runs every
            // window exactly as it would against live reports.
            carry_ns[d.backend] += f64::from(r.bytes) / rates[d.backend];
            let nanos = carry_ns[d.backend] as u32;
            carry_ns[d.backend] -= f64::from(nanos);
            let _ = engine.report_served(d.backend as u8, r.bytes, nanos);
        }
        seconds = seconds.min(start.elapsed().as_secs_f64());
        windows = u64::from(engine.window_seq());
    }
    CellTiming {
        name: "dapd-decisions".to_string(),
        seconds,
        windows,
        accesses: decisions,
    }
}

/// Runs the pinned suite at `instructions` per core and assembles the
/// report. Cells run sequentially so their timings don't contend; each
/// cell is timed `TIMING_REPEATS` times and the minimum is reported.
pub fn run_suite(label: &str, instructions: u64) -> BenchReport {
    let mut cells = Vec::with_capacity(SUITE.len());
    let mut profile = Vec::new();
    let mut total_seconds = 0.0f64;
    let mut total_windows = 0u64;
    let mut total_accesses = 0u64;
    for cell in SUITE {
        let spec = spec(cell.bench).unwrap_or_else(|| {
            unreachable!(
                "suite names a benchmark the workload table lacks: {}",
                cell.bench
            )
        });
        let profiled = cell.profiled && dap_telemetry::enabled();
        let mut seconds = f64::INFINITY;
        let mut windows = 0u64;
        let mut accesses = 0u64;
        for repeat in 0..TIMING_REPEATS {
            let config = config_for(cell.arch, cell.cores);
            let policy = build_policy(cell.policy, &config).unwrap_or_else(|e| {
                unreachable!(
                    "suite cell {} has an invalid policy/config pair: {e}",
                    cell.name
                )
            });
            let mut sys = System::with_policy(config, rate_mode(spec, cell.cores), policy);
            // A fresh registry per repeat so the harvested histograms
            // cover exactly one run; every repeat of a profiled cell
            // carries the full telemetry stack so the timed work is
            // identical across repeats.
            let registry = dap_telemetry::MetricsRegistry::new();
            if profiled {
                sys.attach_telemetry(mem_sim::SubsystemTelemetry::new(&registry));
                if let Some(profiler) = mem_sim::AccessProfiler::new(64, 64) {
                    sys.attach_profiler(profiler);
                }
            }
            let start = Instant::now();
            let r = sys.run(instructions);
            seconds = seconds.min(start.elapsed().as_secs_f64());
            // Deterministic simulator: identical on every repeat.
            windows = r.per_core.iter().map(|c| c.cycles).max().unwrap_or(0) / 64;
            accesses = r.stats.demand_reads + r.stats.demand_writes;
            if profiled && repeat == TIMING_REPEATS - 1 {
                let snapshot = registry.snapshot();
                for (name, hist) in &snapshot.histograms {
                    if !name.starts_with("prof.") {
                        continue;
                    }
                    if let Some(percentiles) = hist.percentiles() {
                        profile.push(PhasePercentiles {
                            phase: name.clone(),
                            count: hist.count,
                            percentiles,
                        });
                    }
                }
            }
        }
        total_seconds += seconds;
        total_windows += windows;
        total_accesses += accesses;
        cells.push(CellTiming {
            name: cell.name.to_string(),
            seconds,
            windows,
            accesses,
        });
    }
    // The daemon's decision engine rides along as a fifth cell so a
    // slowdown on the `dapd` hot path (route + ledger + re-solve) is
    // caught by the same `--compare` gate as the simulator cells.
    let dapd_cell = run_dapd_cell(instructions * DAPD_DECISIONS_PER_INSTRUCTION);
    total_seconds += dapd_cell.seconds;
    total_windows += dapd_cell.windows;
    total_accesses += dapd_cell.accesses;
    cells.push(dapd_cell);
    let secs = total_seconds.max(1e-9);
    BenchReport {
        label: label.to_string(),
        instructions,
        threads: experiments::ParallelExecutor::from_env().threads(),
        wall_seconds: total_seconds,
        windows_per_sec: total_windows as f64 / secs,
        accesses_per_sec: total_accesses as f64 / secs,
        peak_rss_kb: peak_rss_kb().unwrap_or(0),
        cells,
        profile,
    }
}

/// Peak resident set size in kB, from `VmHWM` in `/proc/self/status`
/// (`None` off Linux or if procfs is unavailable).
pub fn peak_rss_kb() -> Option<u64> {
    parse_vm_hwm_kb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// Extracts the `VmHWM` value (kB) from `/proc/self/status` text.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
}

fn cell_json(cell: &CellTiming) -> Json {
    obj([
        ("name", Json::Str(cell.name.clone())),
        ("seconds", Json::Num(cell.seconds)),
        ("windows", Json::Num(cell.windows as f64)),
        ("accesses", Json::Num(cell.accesses as f64)),
    ])
}

fn phase_json(phase: &PhasePercentiles) -> Json {
    obj([
        ("phase", Json::Str(phase.phase.clone())),
        ("count", Json::Num(phase.count as f64)),
        ("p50", Json::Num(phase.percentiles.p50 as f64)),
        ("p90", Json::Num(phase.percentiles.p90 as f64)),
        ("p99", Json::Num(phase.percentiles.p99 as f64)),
        ("p999", Json::Num(phase.percentiles.p999 as f64)),
    ])
}

/// Serializes a report to the schema-versioned JSON document.
pub fn report_to_json(report: &BenchReport) -> String {
    obj([
        ("schema", Json::Str(SCHEMA_NAME.to_string())),
        ("version", Json::Num(f64::from(SCHEMA_VERSION))),
        ("label", Json::Str(report.label.clone())),
        ("instructions", Json::Num(report.instructions as f64)),
        ("threads", Json::Num(report.threads as f64)),
        ("wall_seconds", Json::Num(report.wall_seconds)),
        ("windows_per_sec", Json::Num(report.windows_per_sec)),
        ("accesses_per_sec", Json::Num(report.accesses_per_sec)),
        ("peak_rss_kb", Json::Num(report.peak_rss_kb as f64)),
        (
            "cells",
            Json::Arr(report.cells.iter().map(cell_json).collect()),
        ),
        (
            "profile",
            Json::Arr(report.profile.iter().map(phase_json).collect()),
        ),
    ])
    .to_string_compact()
}

fn need_num(value: &Json, key: &str) -> Result<f64, String> {
    value
        .get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing or non-numeric field `{key}`"))
}

fn need_u64(value: &Json, key: &str) -> Result<u64, String> {
    value
        .get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer field `{key}`"))
}

fn need_str(value: &Json, key: &str) -> Result<String, String> {
    value
        .get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string field `{key}`"))
}

/// Parses a report back from its JSON document, validating the schema
/// name and version.
///
/// # Errors
///
/// Returns a description of the first schema or field problem.
pub fn report_from_json(text: &str) -> Result<BenchReport, String> {
    let value = parse(text)?;
    if value.get("schema").and_then(Json::as_str) != Some(SCHEMA_NAME) {
        return Err(format!("not a {SCHEMA_NAME} report"));
    }
    let version = value.get("version").and_then(Json::as_u64);
    if version != Some(u64::from(SCHEMA_VERSION)) {
        return Err(format!(
            "unsupported schema version {version:?}, expected {SCHEMA_VERSION}"
        ));
    }
    let cells = value
        .get("cells")
        .and_then(Json::as_arr)
        .ok_or("missing array field `cells`")?
        .iter()
        .map(|c| {
            Ok(CellTiming {
                name: need_str(c, "name")?,
                seconds: need_num(c, "seconds")?,
                windows: need_u64(c, "windows")?,
                accesses: need_u64(c, "accesses")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let profile = value
        .get("profile")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .map(|p| {
            Ok(PhasePercentiles {
                phase: need_str(p, "phase")?,
                count: need_u64(p, "count")?,
                percentiles: Percentiles {
                    p50: need_u64(p, "p50")?,
                    p90: need_u64(p, "p90")?,
                    p99: need_u64(p, "p99")?,
                    p999: need_u64(p, "p999")?,
                },
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(BenchReport {
        label: need_str(&value, "label")?,
        instructions: need_u64(&value, "instructions")?,
        threads: need_u64(&value, "threads")? as usize,
        wall_seconds: need_num(&value, "wall_seconds")?,
        windows_per_sec: need_num(&value, "windows_per_sec")?,
        accesses_per_sec: need_num(&value, "accesses_per_sec")?,
        peak_rss_kb: need_u64(&value, "peak_rss_kb")?,
        cells,
        profile,
    })
}

/// Writes `BENCH_<label>.json` under `dir`, returning the path.
///
/// # Errors
///
/// Returns a message naming the path on I/O failure.
pub fn write_report(dir: &Path, report: &BenchReport) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir)
        .map_err(|e| format!("failed to create directory `{}`: {e}", dir.display()))?;
    let path = dir.join(format!("BENCH_{}.json", report.label));
    let mut text = report_to_json(report);
    text.push('\n');
    std::fs::write(&path, text)
        .map_err(|e| format!("failed to write `{}`: {e}", path.display()))?;
    Ok(path)
}

/// Compares `current` against `baseline` and returns one line per
/// regression beyond `threshold_pct` percent: aggregate windows/s
/// throughput drop, per-cell wall-time growth (cells matched by name;
/// baseline cells missing from the current run are regressions too).
/// Baseline cells under 10ms are skipped — at that scale scheduler noise
/// dominates. Empty vector means no regressions.
pub fn compare(current: &BenchReport, baseline: &BenchReport, threshold_pct: f64) -> Vec<String> {
    let t = threshold_pct / 100.0;
    let mut regressions = Vec::new();
    // Wall-clock comparisons across different per-core budgets are
    // meaningless (every cell's runtime scales with the budget), so a
    // mismatch is itself a finding — `dapctl bench --compare` avoids it
    // by defaulting to the baseline's recorded budget.
    if current.instructions != baseline.instructions {
        regressions.push(format!(
            "instruction budgets differ: current {} vs baseline {} — timings are not comparable \
             (rerun with --instructions {})",
            current.instructions, baseline.instructions, baseline.instructions
        ));
        return regressions;
    }
    if baseline.windows_per_sec > 0.0
        && current.windows_per_sec < baseline.windows_per_sec * (1.0 - t)
    {
        regressions.push(format!(
            "aggregate throughput fell {:.1}%: {:.0} -> {:.0} windows/s",
            100.0 * (1.0 - current.windows_per_sec / baseline.windows_per_sec),
            baseline.windows_per_sec,
            current.windows_per_sec
        ));
    }
    for base in &baseline.cells {
        if base.seconds < MIN_COMPARABLE_SECONDS {
            continue;
        }
        let Some(cur) = current.cells.iter().find(|c| c.name == base.name) else {
            regressions.push(format!("cell {} missing from the current run", base.name));
            continue;
        };
        if cur.seconds > base.seconds * (1.0 + t) {
            regressions.push(format!(
                "cell {} slowed {:.1}%: {:.3}s -> {:.3}s",
                base.name,
                100.0 * (cur.seconds / base.seconds - 1.0),
                base.seconds,
                cur.seconds
            ));
        }
    }
    regressions
}

/// Renders the report as a short human table (printed after a run).
pub fn render_report(report: &BenchReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "bench {} @ {} instructions/core: {:.2}s wall, {:.0} windows/s, {:.0} accesses/s, peak RSS {} kB",
        report.label,
        report.instructions,
        report.wall_seconds,
        report.windows_per_sec,
        report.accesses_per_sec,
        report.peak_rss_kb
    );
    for cell in &report.cells {
        let _ = writeln!(
            out,
            "  {:<28} {:>8.3}s  {:>9} windows  {:>9} accesses",
            cell.name, cell.seconds, cell.windows, cell.accesses
        );
    }
    if !report.profile.is_empty() {
        let _ = writeln!(
            out,
            "  {:<28} {:>9} {:>8} {:>8} {:>8} {:>8}",
            "profiled phase", "count", "p50", "p90", "p99", "p999"
        );
        for phase in &report.profile {
            let p = &phase.percentiles;
            let _ = writeln!(
                out,
                "  {:<28} {:>9} {:>8} {:>8} {:>8} {:>8}",
                phase.phase, phase.count, p.p50, p.p90, p.p99, p.p999
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> BenchReport {
        BenchReport {
            label: "seed".to_string(),
            instructions: 100_000,
            threads: 8,
            wall_seconds: 2.5,
            windows_per_sec: 40_000.0,
            accesses_per_sec: 250_000.0,
            peak_rss_kb: 18_432,
            cells: vec![
                CellTiming {
                    name: "mcf-r8-sectored-dap".to_string(),
                    seconds: 1.5,
                    windows: 60_000,
                    accesses: 400_000,
                },
                CellTiming {
                    name: "mcf-r8-sectored-base".to_string(),
                    seconds: 1.0,
                    windows: 40_000,
                    accesses: 225_000,
                },
            ],
            profile: vec![PhasePercentiles {
                phase: "prof.cache_queue_wait".to_string(),
                count: 6_000,
                percentiles: Percentiles {
                    p50: 16,
                    p90: 64,
                    p99: 256,
                    p999: 512,
                },
            }],
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = sample_report();
        let text = report_to_json(&report);
        assert!(text.contains("\"schema\":\"dap-bench\""), "{text}");
        assert!(text.contains("\"version\":1"), "{text}");
        let back = report_from_json(&text).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn wrong_schema_or_version_is_rejected() {
        let mut report = sample_report();
        report.label = "x".to_string();
        let good = report_to_json(&report);
        let wrong_name = good.replace("dap-bench", "not-a-bench");
        assert!(report_from_json(&wrong_name).is_err());
        let wrong_version = good.replace("\"version\":1", "\"version\":99");
        let err = report_from_json(&wrong_version).unwrap_err();
        assert!(err.contains("99"), "{err}");
        assert!(report_from_json("{}").is_err());
    }

    #[test]
    fn compare_flags_slowdowns_and_missing_cells() {
        let baseline = sample_report();
        // Identical run: clean.
        assert!(compare(&baseline, &baseline, 10.0).is_empty());
        // 5% slower on one cell: within a 10% threshold.
        let mut slight = baseline.clone();
        slight.cells[0].seconds *= 1.05;
        assert!(compare(&slight, &baseline, 10.0).is_empty());
        // 50% slower cell and collapsed throughput: two regressions.
        let mut bad = baseline.clone();
        bad.cells[0].seconds *= 1.5;
        bad.windows_per_sec = 10_000.0;
        let regressions = compare(&bad, &baseline, 10.0);
        assert_eq!(regressions.len(), 2, "{regressions:?}");
        assert!(regressions
            .iter()
            .any(|r| r.contains("mcf-r8-sectored-dap")));
        assert!(regressions.iter().any(|r| r.contains("throughput")));
        // A baseline cell the current run lacks is itself a regression.
        let mut missing = baseline.clone();
        missing.cells.pop();
        let regressions = compare(&missing, &baseline, 10.0);
        assert!(
            regressions.iter().any(|r| r.contains("missing")),
            "{regressions:?}"
        );
    }

    #[test]
    fn mismatched_budgets_are_incomparable() {
        let baseline = sample_report();
        let mut current = baseline.clone();
        current.instructions = baseline.instructions * 2;
        // Twice the budget makes every cell "slower"; the only finding
        // must be the budget mismatch, not bogus per-cell regressions.
        for cell in &mut current.cells {
            cell.seconds *= 2.0;
        }
        let regressions = compare(&current, &baseline, 10.0);
        assert_eq!(regressions.len(), 1, "{regressions:?}");
        assert!(regressions[0].contains("budgets differ"), "{regressions:?}");
    }

    #[test]
    fn sub_noise_cells_are_not_compared() {
        let mut baseline = sample_report();
        baseline.cells[0].seconds = 0.001;
        let mut current = baseline.clone();
        current.cells[0].seconds = 0.009; // 9x "slower", but micro-noise
        current.windows_per_sec = baseline.windows_per_sec;
        assert!(compare(&current, &baseline, 10.0).is_empty());
    }

    #[test]
    fn vm_hwm_parses_from_status_text() {
        let status = "Name:\tdapctl\nVmPeak:\t  123 kB\nVmHWM:\t   18432 kB\nThreads:\t1\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(18_432));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
        // The live probe works on Linux; elsewhere it degrades to None.
        if cfg!(target_os = "linux") {
            assert!(peak_rss_kb().unwrap() > 0);
        }
    }

    #[test]
    fn suite_runs_at_a_tiny_budget_and_renders() {
        let report = run_suite("unit", 2_000);
        assert_eq!(report.cells.len(), SUITE.len() + 1);
        let dapd_cell = report.cells.last().unwrap();
        assert_eq!(dapd_cell.name, "dapd-decisions");
        assert_eq!(
            dapd_cell.accesses,
            2_000 * DAPD_DECISIONS_PER_INSTRUCTION,
            "accesses column counts decisions for the dapd cell"
        );
        assert!(report.cells.iter().all(|c| c.windows > 0));
        assert!(report.cells.iter().all(|c| c.accesses > 0));
        if dap_telemetry::enabled() {
            assert!(
                report
                    .profile
                    .iter()
                    .any(|p| p.phase == "prof.cache_queue_wait"),
                "profiled cell must harvest phase percentiles: {:?}",
                report.profile
            );
        }
        let table = render_report(&report);
        assert!(table.contains("mcf-r8-sectored-dap"), "{table}");
        let back = report_from_json(&report_to_json(&report)).unwrap();
        assert_eq!(back.cells.len(), report.cells.len());
    }
}
