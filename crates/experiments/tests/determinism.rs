//! Serial-vs-parallel determinism: the same experiment cells must produce
//! bit-identical results on one thread and on many.
//!
//! This is the executor's core contract — `run_experiments.sh` may run
//! the figure grid at any `DAP_THREADS` and the published numbers must
//! not change.

use dap_core::DecisionStats;
use experiments::exec::{CellSpec, ParallelExecutor};
use experiments::runner::{run_workload, AloneIpcCache, PolicyKind};
use mem_sim::{CoreResult, SimStats, SystemConfig};
use workloads::{bandwidth_sensitive, rate_mix};

const INSTR: u64 = 25_000;

/// Everything a run produces, with the weighted speedup bit-cast so the
/// comparison is exact, not within-epsilon.
type Outcome = (Vec<CoreResult>, SimStats, Option<DecisionStats>, u64);

fn run_grid(threads: usize) -> Vec<Outcome> {
    let config = SystemConfig::sectored_dram_cache(2);
    let alone = AloneIpcCache::new();
    let mixes: Vec<_> = bandwidth_sensitive()
        .into_iter()
        .take(3)
        .map(|s| rate_mix(s, 2))
        .collect();
    let mut cells = Vec::new();
    {
        let config = &config;
        let alone = &alone;
        for mix in &mixes {
            for kind in [PolicyKind::Baseline, PolicyKind::Dap] {
                cells.push(CellSpec::new(format!("{}/{kind:?}", mix.name), move || {
                    run_workload(config, kind, mix, INSTR, alone)
                }));
            }
        }
    }
    ParallelExecutor::new(threads)
        .run(cells)
        .into_iter()
        .map(|r| {
            (
                r.result.per_core,
                r.result.stats,
                r.result.dap_decisions,
                r.weighted_speedup.to_bits(),
            )
        })
        .collect()
}

#[test]
fn parallel_results_bit_identical_to_serial() {
    let serial = run_grid(1);
    assert_eq!(serial.len(), 6);
    for threads in [2, 4, 8] {
        assert_eq!(serial, run_grid(threads), "{threads} threads diverged");
    }
}

/// One traced grid outcome: run numbers, window traces, and the final
/// per-variant metrics snapshots.
type TracedOutcome = (
    Vec<Vec<Outcome>>,
    Vec<Vec<(String, Vec<dap_core::WindowSnapshot>)>>,
    Vec<dap_telemetry::MetricsSnapshot>,
);

fn run_traced_grid(threads: usize) -> TracedOutcome {
    experiments::exec::set_thread_override(threads);
    let config = SystemConfig::sectored_dram_cache(2);
    let alone = AloneIpcCache::new();
    let mixes: Vec<_> = bandwidth_sensitive()
        .into_iter()
        .take(3)
        .map(|s| rate_mix(s, 2))
        .collect();
    let variants: Vec<(&SystemConfig, PolicyKind, &str)> = vec![
        (&config, PolicyKind::Baseline, "base"),
        (&config, PolicyKind::Dap, "dap"),
    ];
    let (per_mix, telemetry) =
        experiments::telemetry::run_variant_grid_traced(&variants, &mixes, INSTR, &alone);
    experiments::exec::set_thread_override(0);
    (
        per_mix
            .into_iter()
            .map(|row| {
                row.into_iter()
                    .map(|r| {
                        (
                            r.result.per_core,
                            r.result.stats,
                            r.result.dap_decisions,
                            r.weighted_speedup.to_bits(),
                        )
                    })
                    .collect()
            })
            .collect(),
        telemetry
            .iter()
            .map(|v| {
                v.traces
                    .iter()
                    .map(|(mix, t)| (mix.clone(), t.records.clone()))
                    .collect()
            })
            .collect(),
        telemetry.into_iter().map(|v| v.metrics).collect(),
    )
}

/// Telemetry must not break the executor's contract: with recorders and a
/// shared metrics registry attached, runs, window traces, and metric
/// totals all stay bit-identical at any thread count. (Metric totals are
/// sums of commutative atomic adds, so even the *shared* per-variant
/// registries converge to the same snapshot.)
#[test]
fn traced_runs_stay_deterministic() {
    let serial = run_traced_grid(1);
    assert_eq!(serial.0.len(), 3, "three mixes");
    assert_eq!(serial.1.len(), 2, "two variants");
    if dap_telemetry::enabled() {
        assert!(
            serial.1[1].iter().all(|(_, records)| !records.is_empty()),
            "DAP variant traces every mix"
        );
    }
    for threads in [2, 8] {
        let parallel = run_traced_grid(threads);
        assert_eq!(serial.0, parallel.0, "{threads} threads: runs diverged");
        assert_eq!(serial.1, parallel.1, "{threads} threads: traces diverged");
        assert_eq!(serial.2, parallel.2, "{threads} threads: metrics diverged");
    }
}
