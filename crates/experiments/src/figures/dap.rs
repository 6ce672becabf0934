//! Section VI-A DAP-on-sectored-cache experiments: Fig. 6, 7, 8, Table I.

use mem_sim::{RunResult, SystemConfig};

use crate::exec::{cell_label, run_variant_grid, CellSpec, ParallelExecutor};
use crate::metrics::{geomean, FigureResult, Row};
use crate::runner::{build_policy_with, run_mix, AloneIpcCache, PolicyKind};

use super::sensitive_mixes;

/// Fig. 6: DAP's weighted speedup over the optimized baseline (top panel)
/// and its normalized average L3 read-miss latency (bottom panel).
pub fn fig06_dap_sectored(instructions: u64) -> FigureResult {
    let config = SystemConfig::sectored_dram_cache(8);
    let alone = AloneIpcCache::new();
    let mixes = sensitive_mixes(8);
    let grid = run_variant_grid(
        &[(&config, PolicyKind::Baseline), (&config, PolicyKind::Dap)],
        &mixes,
        instructions,
        &alone,
    );
    let rows = mixes
        .iter()
        .zip(&grid)
        .map(|(mix, runs)| {
            let [base, dap] = &runs[..] else {
                unreachable!()
            };
            Row::new(
                mix.name.clone(),
                vec![
                    dap.weighted_speedup / base.weighted_speedup,
                    dap.result.stats.avg_read_latency() / base.result.stats.avg_read_latency(),
                ],
            )
        })
        .collect();
    FigureResult {
        id: "Fig. 6",
        title: "DAP on the sectored DRAM cache: speedup and normalized L3 read-miss latency".into(),
        columns: vec!["norm. WS".into(), "norm. latency".into()],
        rows,
        summary: vec![],
    }
    .with_geomean()
}

/// Fig. 7: the share of DAP decisions contributed by each technique.
pub fn fig07_decision_mix(instructions: u64) -> FigureResult {
    let config = SystemConfig::sectored_dram_cache(8);
    let mixes = sensitive_mixes(8);
    let cells = mixes
        .iter()
        .map(|mix| {
            let config = &config;
            CellSpec::new(cell_label(mix, PolicyKind::Dap), move || {
                run_mix(config, PolicyKind::Dap, mix, instructions)
            })
        })
        .collect();
    let results = ParallelExecutor::from_env().run(cells);
    let mut rows = Vec::new();
    let mut totals = [0.0f64; 4];
    let mut counted = 0usize;
    for (mix, r) in mixes.iter().zip(results) {
        // invariant: every plan cell above runs PolicyKind::Dap, which
        // always reports decision statistics.
        let d = r.dap_decisions.expect("DAP ran");
        let mix_shares = d.mix();
        if d.total_decisions() > 0 {
            for (t, m) in totals.iter_mut().zip(mix_shares) {
                *t += m;
            }
            counted += 1;
        }
        rows.push(Row::new(mix.name.clone(), mix_shares.to_vec()));
    }
    let mean: Vec<f64> = totals.iter().map(|t| t / counted.max(1) as f64).collect();
    FigureResult {
        id: "Fig. 7",
        title: "Contribution of FWB / WB / IFRM / SFRM to DAP decisions".into(),
        columns: vec!["FWB".into(), "WB".into(), "IFRM".into(), "SFRM".into()],
        rows,
        summary: vec![("MEAN".into(), mean)],
    }
}

/// Fig. 8: the fraction of CAS operations served by main memory (top:
/// baseline vs DAP; optimal is `B_MM/(B_MM+B_MS$)` = 0.27) and the
/// memory-side cache hit ratio (bottom: baseline, FWB+WB only, full DAP).
pub fn fig08_cas_fraction(instructions: u64) -> FigureResult {
    let config = SystemConfig::sectored_dram_cache(8);
    let alone = AloneIpcCache::new();
    let mixes = sensitive_mixes(8);
    let grid = run_variant_grid(
        &[
            (&config, PolicyKind::Baseline),
            (&config, PolicyKind::DapFwbWbOnly),
            (&config, PolicyKind::Dap),
        ],
        &mixes,
        instructions,
        &alone,
    );
    let rows = mixes
        .iter()
        .zip(&grid)
        .map(|(mix, runs)| {
            let [base, fwb_wb, dap] = &runs[..] else {
                unreachable!()
            };
            Row::new(
                mix.name.clone(),
                vec![
                    base.result.stats.mm_cas_fraction(),
                    dap.result.stats.mm_cas_fraction(),
                    base.result.stats.ms_hit_ratio(),
                    fwb_wb.result.stats.ms_hit_ratio(),
                    dap.result.stats.ms_hit_ratio(),
                ],
            )
        })
        .collect();
    FigureResult {
        id: "Fig. 8",
        title: "Main-memory CAS fraction (optimal 0.27) and memory-side cache hit ratio".into(),
        columns: vec![
            "MM CAS base".into(),
            "MM CAS DAP".into(),
            "hit base".into(),
            "hit FWB+WB".into(),
            "hit DAP".into(),
        ],
        rows,
        summary: vec![],
    }
    .with_mean()
}

/// Weighted speedup against unit alone-IPCs (homogeneous rate mixes: the
/// alone term cancels when two such speedups are divided).
fn unit_ws(result: &RunResult) -> f64 {
    result.weighted_speedup(&vec![1.0; result.per_core.len()])
}

/// Table I: geometric-mean DAP speedup while sweeping the window size
/// `W in {32, 64, 128}` (at `E = 0.75`) and the bandwidth efficiency
/// `E in {0.5, 0.75, 1.0}` (at `W = 64`).
pub fn table1_w_e_sensitivity(instructions: u64) -> FigureResult {
    const PARAMS: [(u32, f64); 5] = [(32, 0.75), (64, 0.75), (128, 0.75), (64, 0.50), (64, 1.00)];
    let config = SystemConfig::sectored_dram_cache(8);
    let mixes = sensitive_mixes(8);
    let mut cells = Vec::new();
    {
        let config = &config;
        for mix in &mixes {
            cells.push(CellSpec::new(
                cell_label(mix, PolicyKind::Baseline),
                move || unit_ws(&run_mix(config, PolicyKind::Baseline, mix, instructions)),
            ));
        }
        for &(window, efficiency) in &PARAMS {
            for mix in &mixes {
                let label = format!(
                    "{} W={window} E={efficiency:.2}",
                    cell_label(mix, PolicyKind::Dap)
                );
                cells.push(CellSpec::new(label, move || {
                    // invariant: the sectored DRAM-cache config always
                    // carries the bandwidth fields DAP solves against.
                    let policy = build_policy_with(PolicyKind::Dap, config, window, efficiency)
                        .expect("the sectored cache supports DAP");
                    let mut system =
                        mem_sim::System::with_policy(config.clone(), mix.traces(), policy);
                    unit_ws(&system.run(instructions))
                }));
            }
        }
    }
    let ws = ParallelExecutor::from_env().run(cells);
    let (base, sweeps) = ws.split_at(mixes.len());
    let rows = PARAMS
        .iter()
        .zip(sweeps.chunks(mixes.len()))
        .map(|(&(w, e), dap)| {
            let ratios: Vec<f64> = dap.iter().zip(base).map(|(d, b)| d / b).collect();
            Row::new(format!("W={w} E={e:.2}"), vec![geomean(ratios)])
        })
        .collect();
    FigureResult {
        id: "Table I",
        title: "DAP speedup sensitivity to window size W and bandwidth efficiency E".into(),
        columns: vec!["geomean norm. WS".into()],
        rows,
        summary: vec![],
    }
}
