//! Crash tolerance and fault-injection integration tests: a panicking
//! cell must not poison its siblings, fault schedules must keep runs
//! bit-identical at any thread count, and a checkpointed grid must
//! resume instead of recomputing.

use experiments::checkpoint::{cell_key, CheckpointManifest};
use experiments::exec::{
    clear_cell_panic, inject_cell_panic, run_variant_grid_recovered, CellSpec, ParallelExecutor,
};
use experiments::runner::{run_workload, AloneIpcCache, PolicyKind, WorkloadRun};
use mem_sim::{FaultSchedule, FaultTarget, SystemConfig};
use workloads::{bandwidth_sensitive, rate_mix, Mix};

const INSTR: u64 = 25_000;

fn mixes(n: usize) -> Vec<Mix> {
    bandwidth_sensitive()
        .into_iter()
        .take(n)
        .map(|s| rate_mix(s, 2))
        .collect()
}

/// A schedule exercising every fault kind, with the throttle crossing
/// mid-run so the measured policy re-solves at least once.
fn stress_schedule() -> FaultSchedule {
    FaultSchedule::new(42)
        .throttle(FaultTarget::Cache, 2, 1, 5_000, u64::MAX)
        .channel_outage(FaultTarget::MainMemory, 0, 8_000, 40_000)
        .refresh_storm(FaultTarget::Cache, 2_000, 200, 10_000, 60_000)
        .latency_jitter(FaultTarget::MainMemory, 40, 0, u64::MAX)
}

fn key_of(run: &WorkloadRun) -> (Vec<mem_sim::CoreResult>, mem_sim::SimStats, u64) {
    (
        run.result.per_core.clone(),
        run.result.stats,
        run.weighted_speedup.to_bits(),
    )
}

/// The same fault schedule and seed must produce bit-identical stats at
/// any `DAP_THREADS` — injected faults (including seeded latency jitter)
/// must not introduce cross-thread nondeterminism.
#[test]
fn faulted_grid_is_bit_identical_across_thread_counts() {
    let config = SystemConfig::sectored_dram_cache(2).with_faults(stress_schedule());
    let mixes = mixes(3);
    let run_grid = |threads: usize| {
        let alone = AloneIpcCache::new();
        let mut cells = Vec::new();
        {
            let config = &config;
            let alone = &alone;
            for mix in &mixes {
                for kind in [PolicyKind::Baseline, PolicyKind::DapMeasured] {
                    // Not the `mix/Policy` labels the injection drills in
                    // this binary arm concurrently: a drill's one-shot panic
                    // must never land in this grid.
                    let label = format!("threads-{threads}/{}/{kind:?}", mix.name);
                    cells.push(CellSpec::new(label, move || {
                        run_workload(config, kind, mix, INSTR, alone)
                    }));
                }
            }
        }
        ParallelExecutor::new(threads)
            .run(cells)
            .iter()
            .map(key_of)
            .collect::<Vec<_>>()
    };
    let serial = run_grid(1);
    assert_eq!(serial.len(), 6);
    for threads in [2, 4] {
        assert_eq!(serial, run_grid(threads), "{threads} threads diverged");
    }
}

/// The measured-bandwidth policy actually re-solves under a fault
/// schedule, and its decision stats surface through the run result.
#[test]
fn measured_policy_resolves_under_faults() {
    let config = SystemConfig::sectored_dram_cache(2).with_faults(FaultSchedule::new(1).throttle(
        FaultTarget::Cache,
        2,
        1,
        5_000,
        u64::MAX,
    ));
    let alone = AloneIpcCache::new();
    let mix = &mixes(1)[0];
    let run = run_workload(&config, PolicyKind::DapMeasured, mix, INSTR, &alone);
    let d = run.result.dap_decisions.expect("DAP ran");
    assert!(
        d.bandwidth_resolves >= 1,
        "crossing the throttle boundary must re-derive the budget \
         (saw {} resolves)",
        d.bandwidth_resolves
    );
    // Static DAP on the same faulted system never re-solves.
    let static_run = run_workload(&config, PolicyKind::Dap, mix, INSTR, &alone);
    assert_eq!(
        static_run
            .result
            .dap_decisions
            .expect("DAP ran")
            .bandwidth_resolves,
        0
    );
}

/// The CI smoke scenario: a tiny grid with one injected panic cell and a
/// channel-outage schedule completes with exactly one `CellError`, and
/// every sibling cell is bit-identical to the panic-free run.
#[test]
fn injected_panic_isolates_to_one_cell() {
    let healthy = SystemConfig::sectored_dram_cache(2);
    let outaged = SystemConfig::sectored_dram_cache(2)
        .with_faults(FaultSchedule::new(3).channel_outage(FaultTarget::Cache, 0, 4_000, u64::MAX));
    let mixes = mixes(2);
    let variants = [
        (&healthy, PolicyKind::Dap),
        (&outaged, PolicyKind::DapMeasured),
    ];

    let clean = run_variant_grid_recovered(
        &variants,
        &mixes,
        INSTR,
        &AloneIpcCache::new(),
        None,
        &ParallelExecutor::from_env(),
    );
    assert!(clean.is_complete(), "{:?}", clean.errors);

    let victim = format!("{}/{:?}", mixes[1].name, PolicyKind::Dap);
    inject_cell_panic(&victim);
    let faulted = run_variant_grid_recovered(
        &variants,
        &mixes,
        INSTR,
        &AloneIpcCache::new(),
        None,
        &ParallelExecutor::from_env(),
    );
    clear_cell_panic();

    assert_eq!(faulted.errors.len(), 1, "exactly one cell may fail");
    let error = &faulted.errors[0];
    assert_eq!(error.label, victim);
    assert!(error.message.contains("injected panic"), "{error}");
    assert!(error.fingerprint.is_some(), "errors carry the cell key");

    let mut compared = 0;
    for (m, row) in faulted.runs.iter().enumerate() {
        for (v, cell) in row.iter().enumerate() {
            let clean_cell = clean.runs[m][v].as_ref().expect("clean grid complete");
            match cell {
                None => assert_eq!(
                    format!("{}/{:?}", mixes[m].name, variants[v].1),
                    victim,
                    "only the injected cell may be missing"
                ),
                Some(run) => {
                    assert_eq!(key_of(run), key_of(clean_cell), "sibling cell diverged");
                    compared += 1;
                }
            }
        }
    }
    assert_eq!(compared, mixes.len() * variants.len() - 1);
}

/// An interrupted grid resumes from its checkpoint manifest: the second
/// invocation simulates only the previously-failed cell and answers the
/// rest from the manifest, bit-identically.
#[test]
fn checkpointed_grid_resumes_after_a_crash() {
    let config = SystemConfig::sectored_dram_cache(2).with_faults(FaultSchedule::new(9).throttle(
        FaultTarget::Cache,
        2,
        1,
        5_000,
        u64::MAX,
    ));
    let mixes = mixes(2);
    let variants = [
        (&config, PolicyKind::Baseline),
        (&config, PolicyKind::DapMeasured),
    ];
    let manifest = CheckpointManifest::in_memory();

    let victim = format!("{}/{:?}", mixes[0].name, PolicyKind::Baseline);
    inject_cell_panic(&victim);
    let first = run_variant_grid_recovered(
        &variants,
        &mixes,
        INSTR,
        &AloneIpcCache::new(),
        Some(&manifest),
        &ParallelExecutor::from_env(),
    );
    clear_cell_panic();
    assert_eq!(first.errors.len(), 1);
    assert_eq!(manifest.len(), 3, "finished cells were checkpointed");

    let second = run_variant_grid_recovered(
        &variants,
        &mixes,
        INSTR,
        &AloneIpcCache::new(),
        Some(&manifest),
        &ParallelExecutor::from_env(),
    );
    assert!(second.is_complete());
    assert_eq!(second.resumed, 3, "only the failed cell re-ran");
    assert_eq!(manifest.len(), 4);

    // A third pass is answered entirely from the manifest.
    let third = run_variant_grid_recovered(
        &variants,
        &mixes,
        INSTR,
        &AloneIpcCache::new(),
        Some(&manifest),
        &ParallelExecutor::from_env(),
    );
    assert_eq!(third.resumed, 4);
    for (a, b) in second
        .runs
        .iter()
        .flatten()
        .zip(third.runs.iter().flatten())
    {
        assert_eq!(
            key_of(a.as_ref().unwrap()),
            key_of(b.as_ref().unwrap()),
            "resumed results must be bit-identical"
        );
    }

    // The manifest keys separate these cells from any other grid.
    let other = cell_key(&config, PolicyKind::Dap, &mixes[0], INSTR);
    assert!(manifest.lookup(&other).is_none());
}
