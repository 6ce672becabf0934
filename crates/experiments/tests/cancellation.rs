//! Graceful-shutdown integration tests: a cancelled grid must checkpoint
//! what finished and resume bit-identically, and a deadline-exceeded
//! cell must surface as a structured error without aborting its
//! siblings.

use std::time::Duration;

use experiments::checkpoint::CheckpointManifest;
use experiments::exec::{
    run_variant_grid_recovered, CellErrorKind, CellSpec, ExecError, ParallelExecutor,
};
use experiments::runner::{run_workload, AloneIpcCache, PolicyKind, WorkloadRun};
use experiments::CancelToken;
use mem_sim::SystemConfig;
use workloads::{bandwidth_sensitive, rate_mix, Mix};

const INSTR: u64 = 25_000;

fn mixes(n: usize) -> Vec<Mix> {
    bandwidth_sensitive()
        .into_iter()
        .take(n)
        .map(|s| rate_mix(s, 2))
        .collect()
}

fn key_of(run: &WorkloadRun) -> (Vec<mem_sim::CoreResult>, mem_sim::SimStats, u64) {
    (
        run.result.per_core.clone(),
        run.result.stats,
        run.weighted_speedup.to_bits(),
    )
}

/// The shutdown contract end to end: a grid cancelled after cell `k`
/// reports the cancellation structurally, checkpoints exactly the
/// finished cells, and a `DAP_RESUME`-style re-run over the same
/// manifest completes the grid bit-identically to a run that was never
/// interrupted.
#[test]
fn cancelled_grid_resumes_bit_identically() {
    let config = SystemConfig::sectored_dram_cache(2);
    let mixes = mixes(2);
    let variants = [(&config, PolicyKind::Baseline), (&config, PolicyKind::Dap)];
    let total = mixes.len() * variants.len();

    // The reference: the same grid, never interrupted.
    let unbroken = run_variant_grid_recovered(
        &variants,
        &mixes,
        INSTR,
        &AloneIpcCache::new(),
        None,
        &ParallelExecutor::new(1),
    );
    assert!(unbroken.is_complete(), "{:?}", unbroken.errors);

    // First pass: cancel deterministically after two cells complete.
    // One worker thread makes "which cells finished" deterministic too.
    let manifest = CheckpointManifest::in_memory();
    let token = CancelToken::new();
    token.cancel_after(2);
    let first = run_variant_grid_recovered(
        &variants,
        &mixes,
        INSTR,
        &AloneIpcCache::new(),
        Some(&manifest),
        &ParallelExecutor::new(1).with_cancel(token.clone()),
    );
    assert!(token.is_cancelled());
    assert!(first.cancelled());
    assert!(!first.is_complete());
    assert_eq!(manifest.len(), 2, "exactly the finished cells checkpoint");
    for error in &first.errors {
        assert_eq!(error.kind, CellErrorKind::Cancelled, "{error}");
    }
    match first.into_result() {
        Err(ExecError::Cancelled {
            completed,
            total: t,
        }) => {
            assert_eq!((completed, t), (2, total));
        }
        other => panic!("expected ExecError::Cancelled, got {other:?}"),
    }

    // Second pass over the same manifest: only the remaining cells run.
    let resumed = run_variant_grid_recovered(
        &variants,
        &mixes,
        INSTR,
        &AloneIpcCache::new(),
        Some(&manifest),
        &ParallelExecutor::new(1),
    );
    assert!(resumed.is_complete(), "{:?}", resumed.errors);
    assert_eq!(resumed.resumed, 2, "finished cells answer from checkpoint");
    assert_eq!(manifest.len(), total);
    for (m, row) in resumed.runs.iter().enumerate() {
        for (v, cell) in row.iter().enumerate() {
            assert_eq!(
                key_of(cell.as_ref().expect("complete")),
                key_of(unbroken.runs[m][v].as_ref().expect("complete")),
                "resumed cell [{m}][{v}] diverged from the uninterrupted run"
            );
        }
    }
}

/// A cell that blows its per-cell deadline surfaces as a structured
/// `DeadlineExceeded` error while its siblings run to completion — one
/// runaway cell must not take the grid down.
#[test]
fn deadline_exceeded_cell_does_not_abort_siblings() {
    let config = SystemConfig::sectored_dram_cache(2);
    let mixes = mixes(3);
    let alone = AloneIpcCache::new();
    // The runaway cell's budget is large enough to run for minutes; the
    // watchdog must cut it off at the deadline instead. Siblings use a
    // tiny budget so they finish well inside the same deadline.
    let cells = vec![
        CellSpec::new("runaway/Dap", {
            let (config, mix, alone) = (&config, &mixes[0], &alone);
            move || run_workload(config, PolicyKind::Dap, mix, 50_000_000, alone)
        }),
        CellSpec::new("sibling-a/Dap", {
            let (config, mix, alone) = (&config, &mixes[1], &alone);
            move || run_workload(config, PolicyKind::Dap, mix, 2_000, alone)
        }),
        CellSpec::new("sibling-b/Baseline", {
            let (config, mix, alone) = (&config, &mixes[2], &alone);
            move || run_workload(config, PolicyKind::Baseline, mix, 2_000, alone)
        }),
    ];
    let executor = ParallelExecutor::new(2).with_deadline(Duration::from_millis(1_500));
    let results = executor.run_cells(cells);

    assert_eq!(results.len(), 3);
    let error = results[0].as_ref().expect_err("the runaway cell must fail");
    assert_eq!(error.kind, CellErrorKind::DeadlineExceeded);
    assert_eq!(error.label, "runaway/Dap");
    assert!(
        error.message.contains("deadline"),
        "the message names the cause: {error}"
    );
    for (i, result) in results.iter().enumerate().skip(1) {
        assert!(result.is_ok(), "sibling {i} must complete: {result:?}");
    }
}

/// `cancel_after(0)` trips before any work starts: every cell reports
/// `Cancelled` with zero attempts and nothing is checkpointed.
#[test]
fn cancel_before_start_runs_nothing() {
    let config = SystemConfig::sectored_dram_cache(2);
    let mixes = mixes(1);
    let variants = [(&config, PolicyKind::Dap)];
    let manifest = CheckpointManifest::in_memory();
    let token = CancelToken::new();
    token.cancel_after(0);
    let grid = run_variant_grid_recovered(
        &variants,
        &mixes,
        INSTR,
        &AloneIpcCache::new(),
        Some(&manifest),
        &ParallelExecutor::new(1).with_cancel(token),
    );
    assert!(grid.cancelled());
    assert_eq!(grid.errors.len(), 1);
    assert_eq!(grid.errors[0].kind, CellErrorKind::Cancelled);
    assert_eq!(grid.errors[0].attempts, 0, "the cell never started");
    assert!(manifest.is_empty());
}
