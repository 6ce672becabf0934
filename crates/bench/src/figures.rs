//! The figure table behind `dapctl fig <id>`.
//!
//! One row per paper figure/table, ablation, and extension: the id (also
//! the name of its `experiment_results/<id>.txt` report), the default
//! per-core instruction budget (`DAP_INSTRUCTIONS` overrides it), the
//! `experiments` function that computes it, and, for the figures that
//! have one, the architecture of a window-trace companion run.
//!
//! Figures print their series to stdout; the machine-readable run
//! artifacts (versioned JSONL window traces, see
//! `dap_telemetry::export`) are opt-in so a plain figure run stays a
//! plain text report. Set `DAP_TELEMETRY=1` to emit them, and
//! `DAP_TELEMETRY_DIR` to choose where (default `target/telemetry`).
//!
//! The traced run is a *companion* grid — a DAP run over the first few
//! bandwidth-sensitive rate mixes on the figure's architecture — rather
//! than an instrumented rerun of the whole figure, so the artifact cost
//! scales with one policy, not the figure's full variant grid.

use experiments::runner::{AloneIpcCache, PolicyKind};
use experiments::telemetry::{
    artifact_dir_from_env, export_variant_traces, run_variant_grid_traced,
};
use experiments::{ablations, extensions, figures as fig, FigureResult};
use mem_sim::SystemConfig;
use workloads::{bandwidth_sensitive, rate_mix};

/// One regenerable figure.
pub struct Figure {
    /// Stable id, e.g. `fig06_dap_sectored`.
    pub id: &'static str,
    /// Default per-core instruction budget.
    pub instructions: u64,
    /// The experiment that computes the figure at a given budget.
    pub compute: fn(u64) -> FigureResult,
    /// Architecture of the `DAP_TELEMETRY` companion trace, if any.
    pub trace: Option<fn() -> SystemConfig>,
}

const fn plain(id: &'static str, instructions: u64, compute: fn(u64) -> FigureResult) -> Figure {
    Figure {
        id,
        instructions,
        compute,
        trace: None,
    }
}

const fn traced(
    id: &'static str,
    instructions: u64,
    compute: fn(u64) -> FigureResult,
    trace: fn() -> SystemConfig,
) -> Figure {
    Figure {
        id,
        instructions,
        compute,
        trace: Some(trace),
    }
}

/// Every figure `dapctl fig` can regenerate, in paper order.
#[rustfmt::skip]
pub const FIGURES: &[Figure] = &[
    traced("fig01_bw_vs_hitrate", 400_000, fig::fig01_bw_vs_hitrate, || SystemConfig::sectored_dram_cache(8)),
    plain("fig02_edram_capacity", 400_000, fig::fig02_edram_capacity),
    plain("fig04_bw_sensitivity", 400_000, fig::fig04_bw_sensitivity),
    plain("fig05_tag_cache", 400_000, fig::fig05_tag_cache),
    traced("fig06_dap_sectored", 400_000, fig::fig06_dap_sectored, || SystemConfig::sectored_dram_cache(8)),
    plain("fig07_decision_mix", 400_000, fig::fig07_decision_mix),
    plain("fig08_cas_fraction", 400_000, fig::fig08_cas_fraction),
    plain("table1_w_e_sensitivity", 250_000, fig::table1_w_e_sensitivity),
    plain("fig09_mm_technology", 250_000, fig::fig09_mm_technology),
    plain("fig10_capacity_bandwidth", 250_000, fig::fig10_capacity_bandwidth),
    plain("fig11_related_proposals", 300_000, fig::fig11_related_proposals),
    plain("fig12_all_workloads", 200_000, fig::fig12_all_workloads),
    plain("fig13_sixteen_cores", 250_000, fig::fig13_sixteen_cores),
    traced("fig14_alloy", 300_000, fig::fig14_alloy, || SystemConfig::alloy_cache(8)),
    traced("fig15_edram", 300_000, fig::fig15_edram, || SystemConfig::edram_cache(8, 256)),
    plain("fig_fault_degradation", 200_000, fig::fig_fault_degradation),
    plain("ablation_thread_aware", 400_000, ablations::ablation_thread_aware),
    plain("ablation_write_batch", 400_000, ablations::ablation_write_batch),
    plain("ablation_prefetch_degree", 400_000, ablations::ablation_prefetch_degree),
    plain("ablation_refresh", 400_000, ablations::ablation_refresh),
    plain("ext_os_visible", 400_000, extensions::os_visible_tiering),
];

/// The table row with this id.
pub fn find(id: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.id == id)
}

impl Figure {
    /// Computes the figure at its budget ([`crate::instructions`]) and
    /// prints it; with `DAP_TELEMETRY` set, then runs the companion trace.
    pub fn run(&self) {
        let instructions = crate::instructions(self.instructions);
        println!("{}", (self.compute)(instructions));
        if let Some(config) = self.trace {
            emit_window_traces(self.id, &config(), instructions);
        }
    }
}

/// Mixes in the companion traced grid: enough to show per-window
/// behavior on more than one workload without doubling figure runtime.
const TRACE_MIXES: usize = 2;

/// DAP window length used by the figure grids (`build_policy` default).
const WINDOW_CYCLES: u32 = 64;

/// When `DAP_TELEMETRY` is set (and the build is not `telemetry-off`),
/// runs a traced DAP companion grid on `config` and writes JSONL
/// window-trace artifacts for `figure`, printing the paths and a human
/// summary of the first trace. No-op otherwise.
///
/// Exits with status 1 if an artifact cannot be written, naming the path.
fn emit_window_traces(figure: &str, config: &SystemConfig, instructions: u64) {
    let Some(dir) = artifact_dir_from_env() else {
        return;
    };
    let mixes: Vec<_> = bandwidth_sensitive()
        .into_iter()
        .take(TRACE_MIXES)
        .map(|s| rate_mix(s, config.cores))
        .collect();
    let alone = AloneIpcCache::new();
    let variants: Vec<(&SystemConfig, PolicyKind, &str)> = vec![(config, PolicyKind::Dap, "dap")];
    let (_, telemetry) = run_variant_grid_traced(&variants, &mixes, instructions, &alone);
    let variant = &telemetry[0];
    match export_variant_traces(&dir, figure, WINDOW_CYCLES, variant) {
        Ok(paths) => {
            println!();
            println!(
                "telemetry: {} window-trace artifacts under {}",
                paths.len(),
                dir.display()
            );
            for path in &paths {
                println!("  {}", path.display());
            }
            if let Some((mix, trace)) = variant.traces.first() {
                let meta = dap_telemetry::TraceMeta {
                    label: format!("{figure}/dap/{mix}"),
                    arch: variant.arch.to_string(),
                    window_cycles: WINDOW_CYCLES,
                };
                println!();
                print!("{}", dap_telemetry::summarize(&meta, trace));
            }
            if let Some((mix, profile)) = variant.profiles.iter().find(|(_, p)| !p.is_empty()) {
                println!();
                println!("cycle attribution ({mix}):");
                print!("{}", dap_telemetry::summarize_profile_windows(profile));
            }
            println!();
            print!("{}", dap_telemetry::summarize_metrics(&variant.metrics));
        }
        Err(e) => {
            eprintln!("telemetry: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_cover_every_figure() {
        assert_eq!(FIGURES.len(), 21);
        let mut ids: Vec<_> = FIGURES.iter().map(|f| f.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), FIGURES.len(), "duplicate figure id");
        assert!(find("fig06_dap_sectored").is_some());
        assert!(find("fig03").is_none());
    }
}
