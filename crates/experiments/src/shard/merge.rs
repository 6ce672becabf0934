//! Folding worker manifests into one verified result set.
//!
//! Each worker wrote its own `worker-<id>.ckpt`; the merge loads them
//! all leniently (per-file torn-tail repair and parse-error counting,
//! exactly like single-process resume), reconciles cells that more than
//! one worker finished — the simulations are deterministic, so every
//! duplicated cell must be **bit-identical** across manifests
//! (`weighted_speedup` compared by bits, `RunResult` field by field) —
//! and cross-checks the lease log for quarantined cells and fleet
//! counters. Divergent duplicates are a hard [`MergeError`]: they mean
//! corruption or version skew, and silently picking one would launder
//! bad data into the results.
//!
//! The merged manifest is written canonically (cells sorted by key, one
//! compact JSON line each), so two independent explorations of the same
//! grid — a 4-worker chaos fleet and a serial reference run — produce
//! byte-identical files `cmp`(1) can verify.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

use dap_telemetry::{render_exposition, MetricsRegistry};

use crate::checkpoint::{run_to_json, CheckpointManifest};
use crate::runner::WorkloadRun;
use crate::shard::grid::ExploreGrid;
use crate::shard::lease::{LeaseLog, LeaseSnapshot};

/// Why a merge failed hard (as opposed to reporting degraded data).
#[derive(Debug)]
pub enum MergeError {
    /// Two manifests hold different results for the same cell.
    Divergence {
        /// The conflicting cell's key.
        key: String,
        /// Manifest that held the first-seen result.
        first: PathBuf,
        /// Manifest whose result disagreed.
        second: PathBuf,
    },
    /// Reading a manifest or the lease log failed.
    Io(std::io::Error),
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Divergence { key, first, second } => write!(
                f,
                "divergent duplicate for cell {key}: {} and {} disagree — \
                 deterministic simulations cannot disagree; suspect corruption or version skew",
                first.display(),
                second.display()
            ),
            Self::Io(e) => write!(f, "merge I/O error: {e}"),
        }
    }
}

impl From<std::io::Error> for MergeError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// The outcome of folding a fleet's manifests.
#[derive(Debug)]
pub struct MergeReport {
    /// Cells in the grid.
    pub total_cells: usize,
    /// Grid cells with a verified result, keyed for canonical output.
    pub runs: BTreeMap<String, WorkloadRun>,
    /// Grid cells quarantined by the lease log: `(key, fails, last error)`.
    pub quarantined: Vec<(String, u32, Option<String>)>,
    /// Grid cells with neither a result nor a quarantine record.
    pub missing: Vec<String>,
    /// Cells finished by more than one worker and reconciled
    /// bit-identically.
    pub duplicates: u64,
    /// Per-manifest malformed-line counts (only files with errors).
    pub parse_errors: Vec<(PathBuf, u64)>,
    /// Leases that expired under their holder (from the lease log).
    pub leases_expired: u64,
    /// Cells claimed over an expired lease.
    pub steals: u64,
    /// Worker restarts, as reported by the supervisor.
    pub worker_restarts: u64,
}

impl MergeReport {
    /// Whether every grid cell is accounted for (result or quarantine).
    pub fn is_complete(&self) -> bool {
        self.missing.is_empty()
    }

    /// `dapd`-style Prometheus text exposition of fleet health.
    pub fn exposition(&self) -> String {
        let registry = MetricsRegistry::new();
        describe_shard_metrics(&registry);
        registry
            .counter("shard_cells_done_total")
            .add(self.runs.len() as u64);
        registry
            .counter("shard_cells_quarantined_total")
            .add(self.quarantined.len() as u64);
        registry
            .counter("shard_cells_missing_total")
            .add(self.missing.len() as u64);
        registry
            .counter("shard_cells_stolen_total")
            .add(self.steals);
        registry
            .counter("shard_leases_expired_total")
            .add(self.leases_expired);
        registry
            .counter("shard_duplicate_completions_total")
            .add(self.duplicates);
        registry
            .counter("shard_worker_restarts_total")
            .add(self.worker_restarts);
        registry
            .counter("shard_manifest_parse_errors_total")
            .add(self.parse_errors.iter().map(|(_, n)| n).sum());
        render_exposition(&registry.snapshot())
    }

    /// Human-readable fleet summary (printed by `dapctl explore`).
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "cells: {} done, {} quarantined, {} missing of {}\n",
            self.runs.len(),
            self.quarantined.len(),
            self.missing.len(),
            self.total_cells
        ));
        out.push_str(&format!(
            "fleet: {} leases expired, {} steals, {} duplicate completions, {} restarts\n",
            self.leases_expired, self.steals, self.duplicates, self.worker_restarts
        ));
        for (path, n) in &self.parse_errors {
            out.push_str(&format!(
                "warning: {}: {n} corrupt line(s) skipped\n",
                path.display()
            ));
        }
        for (key, fails, error) in &self.quarantined {
            out.push_str(&format!(
                "quarantined: {key} after {fails} failures (last: {})\n",
                error.as_deref().unwrap_or("<none>")
            ));
        }
        out
    }
}

/// Registers `# HELP` text for every `shard_*` family, so both the
/// merged `fleet.prom` and the live mid-run rewrite carry headers the
/// format checker (and a real Prometheus) accept.
fn describe_shard_metrics(registry: &MetricsRegistry) {
    for (name, help) in [
        (
            "shard_cells_done_total",
            "Grid cells with a verified result.",
        ),
        (
            "shard_cells_quarantined_total",
            "Grid cells quarantined after repeated failures.",
        ),
        (
            "shard_cells_missing_total",
            "Grid cells with neither a result nor a quarantine record.",
        ),
        (
            "shard_cells_in_flight",
            "Grid cells currently held under a live lease.",
        ),
        (
            "shard_cells_stolen_total",
            "Cells claimed over an expired lease.",
        ),
        (
            "shard_leases_expired_total",
            "Leases that expired under their holder.",
        ),
        (
            "shard_duplicate_completions_total",
            "Cells finished by more than one worker, reconciled bit-identically.",
        ),
        (
            "shard_worker_restarts_total",
            "Worker processes restarted by the supervisor.",
        ),
        (
            "shard_worker_crashes_total",
            "Worker crashes observed by the supervisor.",
        ),
        (
            "shard_worker_slots_abandoned",
            "Worker slots abandoned after exhausting their restart budget.",
        ),
        (
            "shard_manifest_parse_errors_total",
            "Malformed manifest or lease-log lines skipped.",
        ),
    ] {
        registry.describe(name, help);
    }
}

/// Prometheus exposition of a *live* fleet, rendered from a mid-run
/// [`LeaseSnapshot`] plus the supervisor's [`FleetOutcome`](crate::shard::FleetOutcome) so far.
/// `dapctl explore` rewrites `fleet.prom` from this once a second while
/// workers are still draining the grid (the merged post-run exposition
/// then overwrites it with verified numbers).
pub fn live_fleet_exposition(
    snapshot: &crate::shard::LeaseSnapshot,
    total_cells: usize,
    outcome: &crate::shard::FleetOutcome,
) -> String {
    let registry = MetricsRegistry::new();
    describe_shard_metrics(&registry);
    let done = snapshot.cells.values().filter(|c| c.done).count() as u64;
    let quarantined = snapshot.cells.values().filter(|c| c.quarantined).count() as u64;
    let in_flight = snapshot
        .cells
        .values()
        .filter(|c| {
            !c.done && !c.quarantined && c.holder_expires_ms.is_some_and(|e| e > snapshot.now_ms)
        })
        .count() as u64;
    let resolved = snapshot
        .cells
        .values()
        .filter(|c| c.done || c.quarantined)
        .count();
    registry.counter("shard_cells_done_total").add(done);
    registry
        .counter("shard_cells_quarantined_total")
        .add(quarantined);
    registry
        .counter("shard_cells_missing_total")
        .add(total_cells.saturating_sub(resolved) as u64);
    registry
        .gauge("shard_cells_in_flight")
        .set(in_flight as i64);
    registry
        .counter("shard_cells_stolen_total")
        .add(snapshot.steals);
    registry
        .counter("shard_leases_expired_total")
        .add(snapshot.leases_expired);
    registry
        .counter("shard_worker_restarts_total")
        .add(outcome.restarts);
    registry
        .counter("shard_worker_crashes_total")
        .add(outcome.crashes);
    registry
        .gauge("shard_worker_slots_abandoned")
        .set(i64::from(outcome.abandoned_slots));
    registry
        .counter("shard_manifest_parse_errors_total")
        .add(snapshot.parse_errors);
    render_exposition(&registry.snapshot())
}

/// Bit-identity for [`WorkloadRun`]s: every `RunResult` field equal and
/// the weighted speedup equal *as bits* (two different NaNs or a -0.0
/// vs 0.0 would be corruption, not agreement).
fn bit_identical(a: &WorkloadRun, b: &WorkloadRun) -> bool {
    a.result.per_core == b.result.per_core
        && a.result.stats == b.result.stats
        && a.result.dap_decisions == b.result.dap_decisions
        && a.weighted_speedup.to_bits() == b.weighted_speedup.to_bits()
}

/// Folds every `worker-*.ckpt` under `out_dir` plus the lease log into
/// a [`MergeReport`] for `grid`. `worker_restarts` is carried through
/// from the supervisor (the filesystem doesn't know it).
///
/// # Errors
///
/// [`MergeError::Divergence`] when two manifests disagree on a cell;
/// [`MergeError::Io`] for filesystem failures. Corrupt manifest *lines*
/// are not errors — they are counted per file in the report.
pub fn merge_worker_manifests(
    out_dir: &Path,
    grid: &ExploreGrid,
    quarantine_k: u32,
    worker_restarts: u64,
) -> Result<MergeReport, MergeError> {
    let mut manifest_paths: Vec<PathBuf> = std::fs::read_dir(out_dir)
        .map_err(MergeError::Io)?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .map(|n| n.starts_with("worker-") && n.ends_with(".ckpt"))
                .unwrap_or(false)
        })
        .collect();
    manifest_paths.sort();

    let mut runs: BTreeMap<String, WorkloadRun> = BTreeMap::new();
    let mut origin: BTreeMap<String, PathBuf> = BTreeMap::new();
    let mut duplicates = 0u64;
    let mut parse_errors = Vec::new();
    for path in &manifest_paths {
        let manifest = CheckpointManifest::open(path)?;
        if manifest.parse_errors() > 0 {
            parse_errors.push((path.clone(), manifest.parse_errors()));
        }
        for (key, run) in manifest.entries() {
            match runs.get(&key) {
                None => {
                    runs.insert(key.clone(), run);
                    origin.insert(key, path.clone());
                }
                Some(existing) if bit_identical(existing, &run) => duplicates += 1,
                Some(_) => {
                    return Err(MergeError::Divergence {
                        first: origin.get(&key).cloned().unwrap_or_default(),
                        second: path.clone(),
                        key,
                    });
                }
            }
        }
        // A worker that crashed between recording a cell and marking its
        // lease done, then stole its own expired lease back, duplicates
        // the cell *within its own manifest*. Those copies face the same
        // bit-identity bar as cross-worker duplicates: the surviving
        // (last) record is already in `runs`, so each superseded record
        // is compared against it.
        for (key, prev) in manifest.superseded() {
            match runs.get(&key) {
                Some(kept) if bit_identical(kept, &prev) => duplicates += 1,
                _ => {
                    return Err(MergeError::Divergence {
                        first: path.clone(),
                        second: path.clone(),
                        key,
                    });
                }
            }
        }
    }

    let lease_path = out_dir.join("lease.log");
    let snapshot: Option<LeaseSnapshot> = if lease_path.exists() {
        // TTL is irrelevant for a read-only snapshot; quarantine_k must
        // match the fleet's so quarantine classification agrees.
        Some(LeaseLog::open(&lease_path, 1, quarantine_k)?.snapshot()?)
    } else {
        None
    };
    let mut quarantined: Vec<(String, u32, Option<String>)> = Vec::new();
    let mut missing = Vec::new();
    for key in grid.keys() {
        if runs.contains_key(&key) {
            continue;
        }
        match snapshot
            .as_ref()
            .and_then(|s| s.cells.get(&key))
            .filter(|c| c.quarantined)
        {
            Some(cell) => quarantined.push((key, cell.fails, cell.last_error.clone())),
            None => missing.push(key),
        }
    }
    // Results only count toward the grid; stray keys from an unrelated
    // run sharing the directory would poison the canonical output.
    let grid_keys: std::collections::HashSet<_> = grid.keys().into_iter().collect();
    runs.retain(|k, _| grid_keys.contains(k));

    Ok(MergeReport {
        total_cells: grid.cells.len(),
        runs,
        quarantined,
        missing,
        duplicates,
        parse_errors,
        leases_expired: snapshot.as_ref().map(|s| s.leases_expired).unwrap_or(0),
        steals: snapshot.as_ref().map(|s| s.steals).unwrap_or(0),
        worker_restarts,
    })
}

/// Writes the canonical merged manifest: cells sorted by key, one
/// compact JSON line each — the same record format the per-worker
/// manifests use, so the file loads through [`CheckpointManifest`] and
/// is byte-comparable between independent runs of the same grid.
///
/// # Errors
///
/// Filesystem errors creating or writing the file.
pub fn write_merged_manifest(report: &MergeReport, path: &Path) -> std::io::Result<()> {
    let mut text = String::new();
    for (key, run) in &report.runs {
        text.push_str(&run_to_json(key, run).to_string_compact());
        text.push('\n');
    }
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::grid::explore_grid;
    use crate::shard::lease::ClaimOutcome;
    use mem_sim::{CoreResult, RunResult, SimStats};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dap-merge-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn run_with_speedup(weighted_speedup: f64) -> WorkloadRun {
        WorkloadRun {
            result: RunResult {
                per_core: vec![CoreResult {
                    instructions: 100,
                    cycles: 200,
                }],
                stats: SimStats::default(),
                dap_decisions: None,
            },
            weighted_speedup,
        }
    }

    /// A 3-cell grid stand-in that reuses real keys from the smoke grid.
    fn tiny_grid() -> ExploreGrid {
        let mut grid = explore_grid("smoke", 2_000).unwrap();
        grid.cells.truncate(3);
        grid
    }

    #[test]
    fn merge_reconciles_duplicates_and_reports_quarantine_and_missing() {
        let dir = temp_dir("fold");
        let grid = tiny_grid();
        let keys = grid.keys();
        let run = run_with_speedup(1.5);

        let m0 = CheckpointManifest::open(&dir.join("worker-0.ckpt")).unwrap();
        m0.record(&keys[0], &run);
        let m1 = CheckpointManifest::open(&dir.join("worker-1.ckpt")).unwrap();
        m1.record(&keys[0], &run); // bit-identical duplicate

        let lease = LeaseLog::open(&dir.join("lease.log"), 100, 1).unwrap();
        let ClaimOutcome::Won { epoch, .. } = lease.try_claim(&keys[1], "w0", 1).unwrap() else {
            panic!();
        };
        lease.fail(&keys[1], "w0", epoch, "poison").unwrap();

        let report = merge_worker_manifests(&dir, &grid, 1, 4).unwrap();
        assert_eq!(report.total_cells, 3);
        assert_eq!(report.runs.len(), 1);
        assert_eq!(report.duplicates, 1);
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].0, keys[1]);
        assert_eq!(report.missing, vec![keys[2].clone()]);
        assert!(!report.is_complete());
        assert_eq!(report.worker_restarts, 4);

        let prom = report.exposition();
        assert!(prom.contains("shard_cells_done_total 1"), "{prom}");
        assert!(prom.contains("shard_cells_quarantined_total 1"), "{prom}");
        assert!(
            prom.contains("shard_duplicate_completions_total 1"),
            "{prom}"
        );
        assert!(prom.contains("shard_worker_restarts_total 4"), "{prom}");
        let text = report.summary();
        assert!(text.contains("quarantined"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn live_exposition_reflects_a_mid_run_lease_snapshot() {
        let dir = temp_dir("liveprom");
        let grid = tiny_grid();
        let keys = grid.keys();
        let lease = LeaseLog::open(&dir.join("lease.log"), 60_000, 3).unwrap();
        // One cell done, one held live, one untouched.
        let ClaimOutcome::Won { epoch, .. } = lease.try_claim(&keys[0], "w0", 1).unwrap() else {
            panic!();
        };
        lease.complete(&keys[0], "w0", epoch).unwrap();
        let ClaimOutcome::Won { .. } = lease.try_claim(&keys[1], "w1", 2).unwrap() else {
            panic!();
        };

        let snapshot = lease.snapshot().unwrap();
        let outcome = crate::shard::FleetOutcome {
            restarts: 2,
            crashes: 3,
            abandoned_slots: 1,
            interrupted: false,
        };
        let prom = live_fleet_exposition(&snapshot, grid.cells.len(), &outcome);
        dap_telemetry::check_exposition(&prom).unwrap_or_else(|e| panic!("{e}\n{prom}"));
        assert!(prom.contains("# HELP shard_cells_done_total"), "{prom}");
        assert!(prom.contains("shard_cells_done_total 1"), "{prom}");
        assert!(prom.contains("shard_cells_in_flight 1"), "{prom}");
        assert!(prom.contains("shard_cells_missing_total 2"), "{prom}");
        assert!(prom.contains("shard_worker_crashes_total 3"), "{prom}");
        assert!(prom.contains("shard_worker_restarts_total 2"), "{prom}");
        assert!(prom.contains("shard_worker_slots_abandoned 1"), "{prom}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Drift check against the README "Metric reference" fleet table:
    /// every family either exposition can emit must be documented, and
    /// every documented `shard_*` family must still exist.
    #[test]
    fn readme_shard_metric_table_matches_the_expositions() {
        let dir = temp_dir("promdoc");
        let grid = tiny_grid();
        let merged = merge_worker_manifests(&dir, &grid, 3, 0)
            .unwrap()
            .exposition();
        let lease = LeaseLog::open(&dir.join("lease.log"), 60_000, 3).unwrap();
        let snapshot = lease.snapshot().unwrap();
        let outcome = crate::shard::FleetOutcome {
            restarts: 0,
            crashes: 0,
            abandoned_slots: 0,
            interrupted: false,
        };
        let live = live_fleet_exposition(&snapshot, grid.cells.len(), &outcome);
        let _ = std::fs::remove_dir_all(&dir);

        let readme = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"));
        let begin = readme
            .find("<!-- shard-metric-table:begin -->")
            .expect("README shard table begin marker");
        let end = readme
            .find("<!-- shard-metric-table:end -->")
            .expect("README shard table end marker");
        let table = &readme[begin..end];

        let mut families: Vec<(&str, &str)> = Vec::new();
        for text in [merged.as_str(), live.as_str()] {
            for (family, kind) in text
                .lines()
                .filter_map(|l| l.strip_prefix("# TYPE "))
                .filter_map(|rest| rest.split_once(' '))
            {
                if !families.iter().any(|(f, _)| *f == family) {
                    families.push((family, kind));
                }
            }
        }
        assert!(families.len() >= 11, "family union too small: {families:?}");
        for (family, kind) in &families {
            let row = format!("| `{family}` | {kind} |");
            assert!(
                table.contains(&row),
                "README fleet metric table is missing `{family}` (type {kind})"
            );
        }
        for name in table
            .lines()
            .filter_map(|l| l.strip_prefix("| `"))
            .filter_map(|rest| rest.split_once('`').map(|(n, _)| n))
        {
            assert!(
                families.iter().any(|(f, _)| *f == name),
                "README documents `{name}` but no fleet exposition exports it"
            );
        }
    }

    #[test]
    fn within_manifest_duplicates_face_the_same_bit_identity_bar() {
        // A crashed-then-restarted worker that stole its own cell back
        // records it twice in the same file.
        let dir = temp_dir("selfdup");
        let grid = tiny_grid();
        let key = &grid.keys()[0];
        let run = run_with_speedup(1.5);
        let m0 = CheckpointManifest::open(&dir.join("worker-0.ckpt")).unwrap();
        m0.record(key, &run);
        m0.record(key, &run);
        let report = merge_worker_manifests(&dir, &grid, 3, 0).unwrap();
        assert_eq!(report.duplicates, 1);

        m0.record(key, &run_with_speedup(1.5000001));
        let err = merge_worker_manifests(&dir, &grid, 3, 0).unwrap_err();
        assert!(matches!(err, MergeError::Divergence { .. }), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn divergent_duplicates_are_a_hard_error() {
        let dir = temp_dir("diverge");
        let grid = tiny_grid();
        let key = &grid.keys()[0];
        let m0 = CheckpointManifest::open(&dir.join("worker-0.ckpt")).unwrap();
        m0.record(key, &run_with_speedup(1.5));
        let m1 = CheckpointManifest::open(&dir.join("worker-1.ckpt")).unwrap();
        m1.record(key, &run_with_speedup(1.5000001));

        let err = merge_worker_manifests(&dir, &grid, 3, 0).unwrap_err();
        match err {
            MergeError::Divergence { key: k, .. } => assert_eq!(&k, key),
            other => panic!("expected divergence, got {other}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merged_manifest_is_canonical_and_reloadable() {
        let dir = temp_dir("canon");
        let grid = tiny_grid();
        let keys = grid.keys();
        // Record in different orders into different worker sets; the
        // canonical output must not depend on either.
        let m0 = CheckpointManifest::open(&dir.join("worker-0.ckpt")).unwrap();
        m0.record(&keys[2], &run_with_speedup(1.1));
        m0.record(&keys[0], &run_with_speedup(1.2));
        m0.record(&keys[1], &run_with_speedup(1.3));
        let report = merge_worker_manifests(&dir, &grid, 3, 0).unwrap();
        assert!(report.is_complete());
        let merged_a = dir.join("merged-a.ckpt");
        write_merged_manifest(&report, &merged_a).unwrap();

        let dir_b = temp_dir("canon-b");
        let m1 = CheckpointManifest::open(&dir_b.join("worker-5.ckpt")).unwrap();
        m1.record(&keys[1], &run_with_speedup(1.3));
        let m2 = CheckpointManifest::open(&dir_b.join("worker-6.ckpt")).unwrap();
        m2.record(&keys[0], &run_with_speedup(1.2));
        m2.record(&keys[2], &run_with_speedup(1.1));
        let report_b = merge_worker_manifests(&dir_b, &grid, 3, 9).unwrap();
        let merged_b = dir_b.join("merged-b.ckpt");
        write_merged_manifest(&report_b, &merged_b).unwrap();

        assert_eq!(
            std::fs::read(&merged_a).unwrap(),
            std::fs::read(&merged_b).unwrap(),
            "canonical output is byte-identical regardless of worker layout"
        );
        // And it loads back through the ordinary manifest machinery.
        let reloaded = CheckpointManifest::open(&merged_a).unwrap();
        assert_eq!(reloaded.len(), 3);
        assert_eq!(reloaded.parse_errors(), 0);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&dir_b);
    }
}
