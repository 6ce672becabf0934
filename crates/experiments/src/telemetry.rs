//! Traced experiment execution: window-trace recording and metrics
//! aggregation over the parallel grid, plus run-artifact export.
//!
//! Each `(variant, mix)` unit gets its **own** [`WindowTraceRecorder`] —
//! traces are per-run data, and giving each unit a private recorder keeps
//! the parallel grid deterministic (no cross-thread interleaving can
//! reach a trace). Each *variant* shares one [`MetricsRegistry`] across
//! all its mixes and worker threads; that is safe because counter and
//! histogram totals are sums of commutative atomic adds, so the final
//! snapshot is identical at any thread count
//! (`tests/determinism.rs::traced_runs_stay_deterministic` proves it).
//!
//! Artifact output is controlled by two environment variables read by
//! [`artifact_dir_from_env`]:
//!
//! * `DAP_TELEMETRY=1` — figure runs emit window-trace artifacts;
//! * `DAP_TELEMETRY_DIR=<dir>` — where (default `target/telemetry`).

use std::path::{Path, PathBuf};
use std::sync::Arc;

use dap_telemetry::export::{write_window_trace_jsonl, ArtifactError, TraceMeta};
use dap_telemetry::metrics::{MetricsRegistry, MetricsSnapshot};
use dap_telemetry::window::{WindowTrace, WindowTraceRecorder};
use mem_sim::{CacheKind, SubsystemTelemetry, System, SystemConfig};
use workloads::Mix;

use crate::exec::{ExperimentPlan, ParallelExecutor};
use crate::runner::{build_policy, AloneIpcCache, PolicyKind, WorkloadRun};

/// Ring capacity for per-run recorders: enough for every window of the
/// instruction budgets the figures use, without unbounded growth.
const TRACE_CAPACITY: usize = 1 << 16;

/// The architecture label stored in artifact headers.
pub fn architecture_label(config: &SystemConfig) -> &'static str {
    match &config.cache {
        CacheKind::None => "no-cache",
        CacheKind::Sectored { .. } => "sectored",
        CacheKind::Alloy { .. } => "alloy",
        CacheKind::Edram { .. } => "edram",
        CacheKind::FlatTier { .. } => "flat-tier",
    }
}

/// One traced simulation: the run outcome plus its window trace.
#[derive(Debug, Clone)]
pub struct TracedRun {
    /// The run and its weighted speedup.
    pub run: WorkloadRun,
    /// The per-window DAP controller trace (empty for non-DAP policies —
    /// they have no controller to trace).
    pub trace: WindowTrace,
    /// The cycle-attribution profiler's per-window rollups (empty when
    /// profiling is disabled — `DAP_PROFILE_SAMPLE=0` or `telemetry-off`).
    pub profile: Vec<dap_core::ProfileWindow>,
}

/// Runs one mix under one policy with telemetry attached: a private
/// window-trace recorder plus subsystem metrics recorded into `registry`.
///
/// # Panics
///
/// Panics if the policy cannot run on the configuration's architecture
/// (same contract as [`crate::runner::run_mix`]).
pub fn run_workload_traced(
    config: &SystemConfig,
    kind: PolicyKind,
    mix: &Mix,
    instructions: u64,
    alone: &AloneIpcCache,
    registry: &MetricsRegistry,
) -> TracedRun {
    let policy = build_policy(kind, config).unwrap_or_else(|e| panic!("{e}"));
    let mut system = System::with_policy(config.clone(), mix.traces(), policy);
    let recorder = Arc::new(WindowTraceRecorder::new(TRACE_CAPACITY));
    system.attach_dap_sink(recorder.clone());
    system.attach_telemetry(SubsystemTelemetry::new(registry));
    let result = system.run(instructions);
    // Weighted speedup reuses the cached alone IPCs exactly like the
    // untraced path, so traced and untraced runs report identical numbers.
    let alone_ipcs: Vec<f64> = mix
        .specs
        .iter()
        .map(|s| alone.ipc(config, s.name, instructions))
        .collect();
    let weighted_speedup = result.weighted_speedup(&alone_ipcs);
    // Profile rollups must be read before `take()` clears both rings.
    let profile = recorder.profile_windows();
    TracedRun {
        run: WorkloadRun {
            result,
            weighted_speedup,
        },
        trace: recorder.take(),
        profile,
    }
}

/// Everything telemetry collected for one grid variant.
#[derive(Debug, Clone)]
pub struct VariantTelemetry {
    /// The variant's display label (policy/architecture).
    pub label: String,
    /// Architecture tag for artifact headers.
    pub arch: &'static str,
    /// Merged subsystem metrics across every mix of this variant.
    pub metrics: MetricsSnapshot,
    /// `(mix name, trace)` per mix, in mix order.
    pub traces: Vec<(String, WindowTrace)>,
    /// Cycle-attribution rollups per mix, in mix order (empty inner
    /// vectors when profiling is disabled).
    pub profiles: Vec<(String, Vec<dap_core::ProfileWindow>)>,
}

/// Runs `variants.len()` traced units per mix in parallel: the traced
/// analogue of [`crate::exec::run_variant_grid`]. One metrics registry is
/// attached per *variant* (shared across that variant's mixes and worker
/// threads); each unit still gets its own window-trace recorder. Returns
/// per-mix runs in variant order plus per-variant telemetry.
pub fn run_variant_grid_traced(
    variants: &[(&SystemConfig, PolicyKind, &str)],
    mixes: &[Mix],
    instructions: u64,
    alone: &AloneIpcCache,
) -> (Vec<Vec<WorkloadRun>>, Vec<VariantTelemetry>) {
    let _progress = crate::progress::grid_started(mixes.len() * variants.len());
    let registries: Vec<MetricsRegistry> =
        variants.iter().map(|_| MetricsRegistry::new()).collect();
    let mut plan = ExperimentPlan::new();
    for mix in mixes {
        for (v, &(config, kind, _)) in variants.iter().enumerate() {
            let registry = &registries[v];
            plan.add(move || {
                let traced = run_workload_traced(config, kind, mix, instructions, alone, registry);
                crate::progress::cell_finished(crate::progress::windows_of(&traced.run));
                traced
            });
        }
    }
    let mut traced = ParallelExecutor::from_env().run(plan).into_iter();
    let mut per_mix: Vec<Vec<WorkloadRun>> = Vec::with_capacity(mixes.len());
    let mut traces: Vec<Vec<(String, WindowTrace)>> = variants.iter().map(|_| Vec::new()).collect();
    let mut profiles: Vec<Vec<(String, Vec<dap_core::ProfileWindow>)>> =
        variants.iter().map(|_| Vec::new()).collect();
    for mix in mixes {
        let mut row = Vec::with_capacity(variants.len());
        for (variant_traces, variant_profiles) in traces.iter_mut().zip(profiles.iter_mut()) {
            // invariant: run() returns one result per added task; the
            // plan added mixes × variants tasks in this same order.
            let t = traced.next().expect("one result per unit");
            variant_traces.push((mix.name.clone(), t.trace));
            variant_profiles.push((mix.name.clone(), t.profile));
            row.push(t.run);
        }
        per_mix.push(row);
    }
    let telemetry = variants
        .iter()
        .zip(registries.iter())
        .zip(traces.into_iter().zip(profiles))
        .map(
            |((&(config, _, label), registry), (traces, profiles))| VariantTelemetry {
                label: label.to_string(),
                arch: architecture_label(config),
                metrics: registry.snapshot(),
                traces,
                profiles,
            },
        )
        .collect();
    (per_mix, telemetry)
}

/// Where figure runs write telemetry artifacts, when enabled:
/// `Some(dir)` iff `DAP_TELEMETRY` is set to something other than
/// `0`/`false`/empty (directory from `DAP_TELEMETRY_DIR`, default
/// `target/telemetry`). Also answers `None` under `telemetry-off` —
/// a disabled build would only write empty traces.
pub fn artifact_dir_from_env() -> Option<PathBuf> {
    if !dap_telemetry::enabled() {
        return None;
    }
    let flag = std::env::var("DAP_TELEMETRY").ok()?;
    if flag.is_empty() || flag == "0" || flag.eq_ignore_ascii_case("false") {
        return None;
    }
    Some(
        std::env::var("DAP_TELEMETRY_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|_| PathBuf::from("target/telemetry")),
    )
}

/// Writes one variant's window traces as versioned JSONL artifacts
/// under `dir` (`<dir>/<figure>/<variant>/<mix>.jsonl`), creating
/// directories as needed. Returns the paths written.
///
/// # Errors
///
/// An [`ArtifactError`] naming the offending path if any write fails.
pub fn export_variant_traces(
    dir: &Path,
    figure: &str,
    window_cycles: u32,
    variant: &VariantTelemetry,
) -> Result<Vec<PathBuf>, ArtifactError> {
    let mut written = Vec::new();
    let safe = |s: &str| s.replace(['/', ' '], "-");
    for (mix_name, trace) in &variant.traces {
        if trace.records.is_empty() {
            continue; // non-DAP variants have no controller windows
        }
        let meta = TraceMeta {
            label: format!("{figure}/{}/{mix_name}", variant.label),
            arch: variant.arch.to_string(),
            window_cycles,
        };
        // Mix names contain dots ("astar.BigLakes"), so append the
        // extension rather than `with_extension` (which would truncate
        // at the last dot and collide e.g. soplex.ref with soplex.pds).
        let base = dir.join(safe(figure)).join(safe(&variant.label));
        let jsonl = base.join(format!("{}.jsonl", safe(mix_name)));
        write_window_trace_jsonl(&jsonl, &meta, trace)?;
        written.push(jsonl);
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_workload;
    use workloads::{rate_mix, spec};

    const INSTR: u64 = 25_000;

    #[test]
    fn traced_run_matches_untraced_numbers() {
        let config = SystemConfig::sectored_dram_cache(2);
        let mix = rate_mix(spec("libquantum").unwrap(), 2);
        let alone = AloneIpcCache::new();
        let registry = MetricsRegistry::new();
        let traced = run_workload_traced(&config, PolicyKind::Dap, &mix, INSTR, &alone, &registry);
        let plain = run_workload(&config, PolicyKind::Dap, &mix, INSTR, &alone);
        assert_eq!(traced.run.result.stats, plain.result.stats);
        assert_eq!(
            traced.run.weighted_speedup.to_bits(),
            plain.weighted_speedup.to_bits(),
            "telemetry must not perturb the simulation"
        );
        if dap_telemetry::enabled() {
            assert!(!traced.trace.records.is_empty(), "DAP windows recorded");
            let snap = registry.snapshot();
            assert!(snap.counters["mem.demand_reads"] > 0);
            assert!(snap.histograms["mem.read_latency"].count > 0);
        }
    }

    #[test]
    fn baseline_runs_trace_no_windows() {
        let config = SystemConfig::sectored_dram_cache(2);
        let mix = rate_mix(spec("libquantum").unwrap(), 2);
        let alone = AloneIpcCache::new();
        let registry = MetricsRegistry::new();
        let traced = run_workload_traced(
            &config,
            PolicyKind::Baseline,
            &mix,
            INSTR,
            &alone,
            &registry,
        );
        assert!(
            traced.trace.records.is_empty(),
            "no DAP controller, no windows"
        );
    }

    #[test]
    fn grid_collects_per_variant_telemetry() {
        let config = SystemConfig::sectored_dram_cache(2);
        let mixes = vec![rate_mix(spec("libquantum").unwrap(), 2)];
        let alone = AloneIpcCache::new();
        let variants: Vec<(&SystemConfig, PolicyKind, &str)> = vec![
            (&config, PolicyKind::Baseline, "base"),
            (&config, PolicyKind::Dap, "dap"),
        ];
        let (per_mix, telemetry) = run_variant_grid_traced(&variants, &mixes, INSTR, &alone);
        assert_eq!(per_mix.len(), 1);
        assert_eq!(per_mix[0].len(), 2);
        assert_eq!(telemetry.len(), 2);
        assert_eq!(telemetry[0].label, "base");
        assert_eq!(telemetry[1].arch, "sectored");
        assert_eq!(telemetry[1].traces.len(), 1);
        if dap_telemetry::enabled() {
            assert!(!telemetry[1].traces[0].1.records.is_empty());
        }
    }

    #[test]
    fn export_writes_artifacts_under_nested_dirs() {
        if !dap_telemetry::enabled() {
            return;
        }
        let config = SystemConfig::sectored_dram_cache(2);
        let mixes = vec![rate_mix(spec("libquantum").unwrap(), 2)];
        let alone = AloneIpcCache::new();
        let variants: Vec<(&SystemConfig, PolicyKind, &str)> =
            vec![(&config, PolicyKind::Dap, "dap")];
        let (_, telemetry) = run_variant_grid_traced(&variants, &mixes, INSTR, &alone);
        let dir = std::env::temp_dir().join(format!("dap-export-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let written = export_variant_traces(&dir, "fig-test", 64, &telemetry[0]).expect("export");
        assert_eq!(written.len(), 1, "one jsonl per traced mix");
        for path in &written {
            assert!(path.exists(), "{} missing", path.display());
        }
        let (meta, trace) =
            dap_telemetry::export::read_window_trace_jsonl(&written[0]).expect("parse back");
        assert_eq!(meta.arch, "sectored");
        assert!(!trace.records.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
