//! Deterministic, crash-tolerant parallel execution of experiment grids.
//!
//! The paper's evaluation is a grid of mix × policy × architecture
//! simulations, each independent and deterministic. Every figure hands
//! its cells to one loop, [`ParallelExecutor::run_cells`]: a cell is a
//! labelled closure ([`CellSpec`]), workers claim cells from a shared
//! atomic cursor on `std::thread::scope`, and results come back **in
//! cell order** regardless of which thread finished which cell first.
//! Because every cell is deterministic and results are reassembled by
//! index, the parallel output is bit-identical to running the same cells
//! on one thread (`crates/experiments/tests/determinism.rs` proves this).
//!
//! Every cell runs under [`catch_unwind`], so one failing cell cannot
//! take down its siblings: its slot holds a [`CellError`] (label,
//! fingerprint, [`CellErrorKind`], message) and every other result is
//! untouched. [`ParallelExecutor::run`] drains the grid and then panics
//! with the first error; [`run_variant_grid_recovered`] keeps the errors
//! and can checkpoint finished cells into a
//! [`CheckpointManifest`] so an
//! interrupted grid resumes instead of recomputing.
//!
//! The same loop stops grids gracefully: a
//! [`CancelToken`] (tripped by Ctrl-C or a
//! test hook) and the per-cell deadline watchdog (`DAP_CELL_DEADLINE_MS`)
//! are armed as [`mem_sim::ScopedStop`] flags around every cell of every
//! figure, the simulator honors them at window granularity, and
//! [`CellErrorKind`] keeps cancellation, deadline overruns and genuine
//! panics distinguishable.
//!
//! Thread count comes from [`set_thread_override`] (the `--threads` CLI
//! flag) when set, else `DAP_THREADS`, else all available cores.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use mem_sim::{RunInterrupted, ScopedStop, StopCause, SystemConfig};
use workloads::Mix;

use crate::cancel::{global_cancel_token, CancelToken};
use crate::checkpoint::{cell_key, CheckpointManifest};
use crate::progress::windows_of;
use crate::runner::{run_workload, AloneIpcCache, PolicyKind, WorkloadRun};

/// Locks `mutex`, recovering the guard if another thread panicked while
/// holding it. Every value the executor guards stays consistent across a
/// panic (results are computed *before* the slot lock is taken, and the
/// alone-IPC cache only inserts finished entries), so the poison flag
/// carries no information here — a panicking cell must not wedge its
/// siblings.
pub fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Why a grid cell failed to produce a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellErrorKind {
    /// The cell's code panicked (a genuine bug or an injected fault).
    Panicked,
    /// The per-cell deadline watchdog (`DAP_CELL_DEADLINE_MS`) stopped it.
    DeadlineExceeded,
    /// The grid's [`CancelToken`] tripped.
    Cancelled,
}

/// A grid cell that failed to produce a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellError {
    /// The cell's index in plan/cell order.
    pub index: usize,
    /// Human-readable cell identity (e.g. `"mix03/Dap"`).
    pub label: String,
    /// The cell's configuration fingerprint / checkpoint key, when known.
    pub fingerprint: Option<String>,
    /// The panic payload, when it was a string (panic messages are), or
    /// the interruption description.
    pub message: String,
    /// 1 when the cell ran and failed, 0 when the grid was cancelled
    /// before it started.
    pub attempts: u32,
    /// What stopped the cell.
    pub kind: CellErrorKind,
}

impl CellError {
    /// A cell the executor never started because the grid was already
    /// cancelled when its turn came.
    fn cancelled_before_start(index: usize, label: String, fingerprint: Option<String>) -> Self {
        Self {
            index,
            label,
            fingerprint,
            message: "grid cancelled before this cell started".to_string(),
            attempts: 0,
            kind: CellErrorKind::Cancelled,
        }
    }
}

impl fmt::Display for CellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = match self.kind {
            CellErrorKind::Panicked => "panicked",
            CellErrorKind::DeadlineExceeded => "exceeded its deadline",
            CellErrorKind::Cancelled => "was cancelled",
        };
        if self.attempts == 0 {
            write!(
                f,
                "cell {} ({}) {} before starting",
                self.index, self.label, what
            )?;
        } else {
            write!(
                f,
                "cell {} ({}) {}: {}",
                self.index, self.label, what, self.message
            )?;
        }
        if let Some(fp) = &self.fingerprint {
            write!(f, " [{fp}]")?;
        }
        Ok(())
    }
}

impl std::error::Error for CellError {}

/// Distinguishes a cooperative interruption (the run loop's typed
/// [`RunInterrupted`] payload) from a genuine panic.
pub(crate) fn classify(payload: &(dyn std::any::Any + Send)) -> CellErrorKind {
    match payload.downcast_ref::<RunInterrupted>() {
        Some(interrupted) => match interrupted.cause {
            StopCause::Cancelled => CellErrorKind::Cancelled,
            StopCause::DeadlineExceeded => CellErrorKind::DeadlineExceeded,
        },
        None => CellErrorKind::Panicked,
    }
}

pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(interrupted) = payload.downcast_ref::<RunInterrupted>() {
        interrupted.to_string()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Label of a cell the next matching [`ParallelExecutor::run_cells`]
/// execution should panic in (fault drills; consumed by the first
/// matching cell).
static PANIC_INJECTION: Mutex<Option<String>> = Mutex::new(None);

/// Arms a one-shot panic in the next cell whose label equals `label`
/// (exactly). Used by the CI fault-injection smoke run and the harness
/// tests to prove a crashing cell is isolated; pass `None`-like empty
/// string via [`clear_cell_panic`] instead to disarm.
pub fn inject_cell_panic(label: &str) {
    *lock_unpoisoned(&PANIC_INJECTION) = Some(label.to_string());
}

/// Disarms any pending [`inject_cell_panic`].
pub fn clear_cell_panic() {
    *lock_unpoisoned(&PANIC_INJECTION) = None;
}

/// Panics if a panic injection is armed for `label` (consuming it).
fn fire_injected_panic(label: &str) {
    let mut armed = lock_unpoisoned(&PANIC_INJECTION);
    if armed.as_deref() == Some(label) {
        *armed = None;
        drop(armed);
        panic!("injected panic in cell {label}");
    }
}

/// A labelled grid cell for [`ParallelExecutor::run_cells`]: a closure
/// run once, named by its label (and fingerprint, when known) in errors
/// and matched by [`inject_cell_panic`].
pub struct CellSpec<'a, T> {
    label: String,
    fingerprint: Option<String>,
    run: Box<dyn FnOnce() -> T + Send + 'a>,
}

impl<'a, T> CellSpec<'a, T> {
    /// A cell running `run`, identified as `label` in errors.
    pub fn new(label: impl Into<String>, run: impl FnOnce() -> T + Send + 'a) -> Self {
        Self {
            label: label.into(),
            fingerprint: None,
            run: Box::new(run),
        }
    }

    /// Attaches a configuration fingerprint carried into [`CellError`].
    #[must_use]
    pub fn with_fingerprint(mut self, fingerprint: impl Into<String>) -> Self {
        self.fingerprint = Some(fingerprint.into());
        self
    }
}

/// Process-wide thread-count override (0 = unset). Set by the `--threads`
/// CLI flag; takes precedence over `DAP_THREADS`.
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the executor's worker-thread count for this process,
/// taking precedence over the `DAP_THREADS` environment variable.
/// `--threads N` on the CLI binaries calls this. A value of 0 clears
/// the override (callers validating user input should reject 0 before
/// calling — see `dap_bench::cli`).
pub fn set_thread_override(threads: usize) {
    THREAD_OVERRIDE.store(threads, Ordering::Relaxed);
}

/// One watched cell's deadline state. The stop flag is only tripped
/// under the `started` lock, which the worker also takes to disarm the
/// slot, so a cell that has finished can never be tripped.
struct WatchSlot {
    /// When the cell started; `None` before it starts and after it ends.
    started: Mutex<Option<Instant>>,
    /// The stop flag installed as the cell's `ScopedStop` entry.
    stop: Arc<AtomicBool>,
}

/// A background thread enforcing the per-cell deadline: it polls every
/// armed [`WatchSlot`] and trips the slot's stop flag once the cell has
/// run past the deadline. The simulation notices at its next window
/// boundary and unwinds with [`StopCause::DeadlineExceeded`].
struct Watchdog {
    slots: Arc<Vec<WatchSlot>>,
    done: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    fn new(cells: usize, deadline: Duration) -> Self {
        let slots: Arc<Vec<WatchSlot>> = Arc::new(
            std::iter::repeat_with(|| WatchSlot {
                started: Mutex::new(None),
                stop: Arc::new(AtomicBool::new(false)),
            })
            .take(cells)
            .collect(),
        );
        let done = Arc::new(AtomicBool::new(false));
        // Poll well inside the deadline so an overrun is caught promptly,
        // but never busier than every 5 ms.
        let poll = (deadline / 8).clamp(Duration::from_millis(5), Duration::from_millis(50));
        let handle = std::thread::spawn({
            let slots = Arc::clone(&slots);
            let done = Arc::clone(&done);
            move || {
                while !done.load(Ordering::Relaxed) {
                    for slot in slots.iter() {
                        let started = lock_unpoisoned(&slot.started);
                        if let Some(t0) = *started {
                            if t0.elapsed() >= deadline {
                                slot.stop.store(true, Ordering::Relaxed);
                            }
                        }
                    }
                    std::thread::park_timeout(poll);
                }
            }
        });
        Self {
            slots,
            done,
            handle: Some(handle),
        }
    }

    /// Starts cell `i`'s clock and returns its stop flag.
    fn arm(&self, i: usize) -> Arc<AtomicBool> {
        let slot = &self.slots[i];
        *lock_unpoisoned(&slot.started) = Some(Instant::now());
        Arc::clone(&slot.stop)
    }

    /// Stops cell `i`'s clock once the cell has finished.
    fn disarm(&self, i: usize) {
        *lock_unpoisoned(&self.slots[i].started) = None;
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.done.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            handle.thread().unpark();
            let _ = handle.join();
        }
    }
}

/// The `DAP_CELL_DEADLINE_MS` environment variable: per-cell deadline in
/// milliseconds for [`ParallelExecutor::from_env`] grids.
pub const CELL_DEADLINE_ENV: &str = "DAP_CELL_DEADLINE_MS";

/// Parses `DAP_CELL_DEADLINE_MS`; malformed or zero values are reported
/// once and ignored rather than aborting a multi-hour run.
fn deadline_from_env() -> Option<Duration> {
    let raw = std::env::var(CELL_DEADLINE_ENV).ok()?;
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return None;
    }
    match trimmed.parse::<u64>() {
        Ok(ms) if ms > 0 => Some(Duration::from_millis(ms)),
        _ => {
            eprintln!(
                "warning: ignoring invalid {CELL_DEADLINE_ENV}={raw:?} \
                 (expected a positive integer of milliseconds)"
            );
            None
        }
    }
}

/// Runs grid cells across a fixed number of worker threads.
#[derive(Debug, Clone)]
pub struct ParallelExecutor {
    threads: usize,
    cancel: Option<CancelToken>,
    deadline: Option<Duration>,
}

impl ParallelExecutor {
    /// An executor with an explicit thread count (clamped to at least 1)
    /// and no cancellation or deadline attached.
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            cancel: None,
            deadline: None,
        }
    }

    /// Thread count from [`set_thread_override`] (the `--threads` flag)
    /// when set, else the `DAP_THREADS` environment variable, falling
    /// back to the host's available parallelism. The
    /// [`global_cancel_token`] is attached (so Ctrl-C stops the grid)
    /// along with any `DAP_CELL_DEADLINE_MS` per-cell deadline.
    pub fn from_env() -> Self {
        let overridden = THREAD_OVERRIDE.load(Ordering::Relaxed);
        let threads = if overridden > 0 {
            overridden
        } else {
            std::env::var("DAP_THREADS")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| {
                    std::thread::available_parallelism()
                        .map(std::num::NonZeroUsize::get)
                        .unwrap_or(1)
                })
        };
        let mut exec = Self::new(threads).with_cancel(global_cancel_token().clone());
        if let Some(deadline) = deadline_from_env() {
            exec = exec.with_deadline(deadline);
        }
        exec
    }

    /// Attaches a cancel token: tripping it stops in-flight cells at
    /// their next simulation window and keeps queued cells from starting.
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Attaches a per-cell deadline: a cell running longer is stopped by
    /// the watchdog and reported as [`CellErrorKind::DeadlineExceeded`].
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// The worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every cell and returns the values in cell order. A failing
    /// cell does not abort the grid: every other cell still runs, and this
    /// method panics with the first [`CellError`] only after the grid
    /// drains.
    pub fn run<'a, T: Send>(&self, cells: Vec<CellSpec<'a, T>>) -> Vec<T> {
        self.run_cells(cells)
            .into_iter()
            .map(|r| r.unwrap_or_else(|e| panic!("{e}")))
            .collect()
    }

    /// Runs every cell and returns, in cell order, each cell's value or
    /// the [`CellError`] that stopped it.
    ///
    /// Workers claim cells from a shared atomic cursor (dynamic load
    /// balancing: cells vary widely in cost); with one thread, or one
    /// cell, the cells run inline on the caller's thread. Once the cancel
    /// token trips, cells whose turn comes after it are not started.
    pub fn run_cells<'a, T: Send>(&self, cells: Vec<CellSpec<'a, T>>) -> Vec<Result<T, CellError>> {
        let n = cells.len();
        let queue: Vec<Mutex<Option<CellSpec<'a, T>>>> =
            cells.into_iter().map(|c| Mutex::new(Some(c))).collect();
        let watchdog = self.deadline.map(|d| Watchdog::new(n, d));
        let run_one = |i: usize| {
            let cell = lock_unpoisoned(&queue[i])
                .take()
                // invariant: every index is claimed by exactly one worker.
                .expect("cell claimed once");
            self.run_cell(i, cell, watchdog.as_ref())
        };
        if self.threads == 1 || n <= 1 {
            return (0..n).map(run_one).collect();
        }
        let slots: Vec<Mutex<Option<Result<T, CellError>>>> =
            std::iter::repeat_with(|| Mutex::new(None))
                .take(n)
                .collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..self.threads.min(n) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let result = run_one(i);
                    *lock_unpoisoned(&slots[i]) = Some(result);
                });
            }
        });
        slots
            .into_iter()
            .map(|s| {
                s.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    // invariant: the workers drain every index in 0..n and
                    // fill its slot before moving on.
                    .expect("every cell ran")
            })
            .collect()
    }

    /// Runs one cell under `catch_unwind` with the cancel token, its
    /// deadline and any [`inject_cell_panic`] armed; never unwinds.
    fn run_cell<T>(
        &self,
        index: usize,
        cell: CellSpec<'_, T>,
        watchdog: Option<&Watchdog>,
    ) -> Result<T, CellError> {
        let CellSpec {
            label,
            fingerprint,
            run,
        } = cell;
        let cancel = self.cancel.as_ref();
        if cancel.is_some_and(CancelToken::is_cancelled) {
            return Err(CellError::cancelled_before_start(index, label, fingerprint));
        }
        let mut stop_flags = Vec::new();
        if let Some(token) = cancel {
            stop_flags.push((token.flag(), StopCause::Cancelled));
        }
        if let Some(dog) = watchdog {
            stop_flags.push((dog.arm(index), StopCause::DeadlineExceeded));
        }
        let armed = ScopedStop::install(&stop_flags);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            fire_injected_panic(&label);
            run()
        }));
        drop(armed);
        if let Some(dog) = watchdog {
            dog.disarm(index);
        }
        match outcome {
            Ok(value) => {
                if let Some(token) = cancel {
                    token.note_completed();
                }
                Ok(value)
            }
            Err(payload) => Err(CellError {
                index,
                label,
                fingerprint,
                kind: classify(payload.as_ref()),
                message: panic_message(payload),
                attempts: 1,
            }),
        }
    }
}

/// How [`run_grid`] fills one cell of a mixes × variants grid.
pub(crate) enum GridCell<'a, T> {
    /// Already known (a checkpoint hit): nothing is simulated.
    Done(T),
    /// Simulated on the executor.
    Run(CellSpec<'a, T>),
}

/// The label of a variant grid's `(mix, policy)` cell, e.g. `"mcf/Dap"`:
/// what its errors name and what [`inject_cell_panic`] matches.
pub(crate) fn cell_label(mix: &Mix, kind: PolicyKind) -> String {
    format!("{}/{kind:?}", mix.name)
}

/// The one mixes × variants layout behind every variant grid: asks `cell`
/// for each `(mix, variant index)` in mix-major order, runs the cells to
/// simulate on `executor` with live progress (`windows` reads a finished
/// cell's simulated windows), and returns per-mix rows in variant order.
pub(crate) fn run_grid<'a, T: Send>(
    executor: &ParallelExecutor,
    mixes: &'a [Mix],
    variants: usize,
    windows: fn(&T) -> u64,
    mut cell: impl FnMut(&'a Mix, usize) -> GridCell<'a, T>,
) -> Vec<Vec<Result<T, CellError>>> {
    let mut done = Vec::with_capacity(mixes.len() * variants);
    let mut cells = Vec::new();
    for mix in mixes {
        for v in 0..variants {
            match cell(mix, v) {
                GridCell::Done(value) => done.push(Some(Ok(value))),
                GridCell::Run(CellSpec {
                    label,
                    fingerprint,
                    run,
                }) => {
                    done.push(None);
                    cells.push(CellSpec {
                        label,
                        fingerprint,
                        run: Box::new(move || {
                            let value = run();
                            crate::progress::cell_finished(windows(&value));
                            value
                        }),
                    });
                }
            }
        }
    }
    let _progress = crate::progress::grid_started(cells.len());
    let mut ran = executor.run_cells(cells).into_iter();
    let mut slots = done.into_iter().map(|slot| {
        // invariant: run_cells returns one result per cell, in cell order.
        slot.unwrap_or_else(|| ran.next().expect("one result per cell"))
    });
    mixes
        .iter()
        .map(|_| slots.by_ref().take(variants).collect())
        .collect()
}

/// Runs `variants.len()` workload cells per mix on the environment's
/// executor and returns, per mix, the runs in variant order — the shape
/// almost every figure needs (N policy/architecture variants over a list
/// of mixes). Panics with the first failed cell after the grid drains.
pub fn run_variant_grid(
    variants: &[(&SystemConfig, PolicyKind)],
    mixes: &[Mix],
    instructions: u64,
    alone: &AloneIpcCache,
) -> Vec<Vec<WorkloadRun>> {
    let executor = ParallelExecutor::from_env();
    run_variant_grid_recovered(variants, mixes, instructions, alone, None, &executor)
        .into_result()
        .unwrap_or_else(|e| panic!("{e}"))
}

/// The outcome of a crash-tolerant grid: per-mix rows of per-variant
/// cells (`None` where the cell failed), the errors themselves,
/// and how many cells were answered from the checkpoint without
/// simulating.
#[derive(Debug)]
pub struct RecoveredGrid {
    /// `runs[mix][variant]`; `None` exactly where `errors` has an entry.
    pub runs: Vec<Vec<Option<WorkloadRun>>>,
    /// Every cell that failed, in cell order.
    pub errors: Vec<CellError>,
    /// Cells restored from the checkpoint manifest instead of simulated.
    pub resumed: usize,
}

impl RecoveredGrid {
    /// Whether every cell produced a result.
    pub fn is_complete(&self) -> bool {
        self.errors.is_empty()
    }

    /// Whether the grid was stopped by cancellation (at least one cell
    /// was cancelled rather than failing on its own).
    pub fn cancelled(&self) -> bool {
        self.errors
            .iter()
            .any(|e| e.kind == CellErrorKind::Cancelled)
    }

    /// Converts the grid into the complete per-mix rows, or the
    /// [`ExecError`] describing why it is incomplete (cancellation wins
    /// over cell failures: an interrupted grid should be resumed, not
    /// diagnosed).
    pub fn into_result(self) -> Result<Vec<Vec<WorkloadRun>>, ExecError> {
        if self.cancelled() {
            let total: usize = self.runs.iter().map(Vec::len).sum();
            return Err(ExecError::Cancelled {
                completed: total - self.errors.len(),
                total,
            });
        }
        if !self.errors.is_empty() {
            return Err(ExecError::Failed(self.errors));
        }
        Ok(self
            .runs
            .into_iter()
            .map(|row| {
                row.into_iter()
                    // invariant: no errors means every slot holds a run.
                    .map(|cell| cell.expect("complete grid has every cell"))
                    .collect()
            })
            .collect())
    }
}

/// Why a crash-tolerant grid did not complete.
#[derive(Debug)]
pub enum ExecError {
    /// The grid's cancel token tripped mid-run. Finished cells are in
    /// the checkpoint manifest (when one was given); re-running with
    /// `DAP_RESUME` completes the grid bit-identically.
    Cancelled {
        /// Cells that finished (including checkpoint-resumed ones).
        completed: usize,
        /// Total cells in the grid.
        total: usize,
    },
    /// One or more cells failed.
    Failed(Vec<CellError>),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Cancelled { completed, total } => {
                write!(
                    f,
                    "grid cancelled after {completed}/{total} cells completed"
                )
            }
            Self::Failed(errors) => {
                write!(f, "{} cell(s) failed", errors.len())?;
                if let Some(first) = errors.first() {
                    write!(f, "; first: {first}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// The crash-tolerant sibling of [`run_variant_grid`] on an explicit
/// `executor`: cells that fail surface as [`CellError`]s instead of
/// aborting the grid, and finished cells are recorded into `checkpoint`
/// (when given) so an interrupted grid resumes instead of recomputing —
/// keyed by [`cell_key`], which covers the
/// full system configuration (fault schedule included), policy, mix, and
/// instruction budget.
pub fn run_variant_grid_recovered(
    variants: &[(&SystemConfig, PolicyKind)],
    mixes: &[Mix],
    instructions: u64,
    alone: &AloneIpcCache,
    checkpoint: Option<&CheckpointManifest>,
    executor: &ParallelExecutor,
) -> RecoveredGrid {
    if let Some(manifest) = checkpoint {
        let parse_errors = manifest.parse_errors();
        if parse_errors > 0 {
            // Skipping corrupt lines is the right recovery, but doing it
            // silently hides data loss: those cells will re-simulate, and
            // a manifest that keeps accumulating bad lines points at a
            // real problem (disk, concurrent writer without the lock).
            let path = manifest
                .path()
                .map(|p| p.display().to_string())
                .unwrap_or_else(|| "<in-memory>".to_string());
            eprintln!(
                "warning: checkpoint manifest {path}: skipped {parse_errors} \
                 corrupt line(s) while loading; the affected cells will be re-simulated"
            );
        }
    }
    let mut resumed = 0;
    let rows = run_grid(executor, mixes, variants.len(), windows_of, |mix, v| {
        let (config, kind) = variants[v];
        let key = cell_key(config, kind, mix, instructions);
        if let Some(run) = checkpoint.and_then(|manifest| manifest.lookup(&key)) {
            resumed += 1;
            return GridCell::Done(run);
        }
        let record_key = key.clone();
        GridCell::Run(
            CellSpec::new(cell_label(mix, kind), move || {
                let run = run_workload(config, kind, mix, instructions, alone);
                if let Some(manifest) = checkpoint {
                    manifest.record(&record_key, &run);
                }
                run
            })
            .with_fingerprint(key),
        )
    });
    let mut errors = Vec::new();
    let runs = rows
        .into_iter()
        .map(|row| {
            row.into_iter()
                .map(|cell| cell.map_err(|e| errors.push(e)).ok())
                .collect()
        })
        .collect();
    RecoveredGrid {
        runs,
        errors,
        resumed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_plan_order() {
        let cells = (0..64u64)
            .map(|i| {
                // Uneven cell costs so threads finish out of submission order.
                CellSpec::new(format!("uneven-{i}"), move || {
                    let mut acc = i;
                    for _ in 0..(i % 7) * 10_000 {
                        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                    }
                    std::hint::black_box(acc);
                    i
                })
            })
            .collect();
        let out = ParallelExecutor::new(4).run(cells);
        assert_eq!(out, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn every_unit_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let cells = (0..37)
            .map(|i| {
                CellSpec::new(format!("count-{i}"), || {
                    counter.fetch_add(1, Ordering::Relaxed)
                })
            })
            .collect();
        let out = ParallelExecutor::new(8).run(cells);
        assert_eq!(out.len(), 37);
        assert_eq!(counter.load(Ordering::Relaxed), 37);
    }

    #[test]
    fn single_thread_runs_inline() {
        let caller = std::thread::current().id();
        let on_caller = move || std::thread::current().id() == caller;
        let cells = vec![
            CellSpec::new("first", move || (on_caller(), 41)),
            CellSpec::new("second", move || (on_caller(), 42)),
        ];
        assert_eq!(
            ParallelExecutor::new(1).run(cells),
            vec![(true, 41), (true, 42)]
        );
    }

    #[test]
    fn executor_clamps_to_one_thread() {
        assert_eq!(ParallelExecutor::new(0).threads(), 1);
        assert!(ParallelExecutor::from_env().threads() >= 1);
    }

    #[test]
    fn thread_override_beats_environment() {
        set_thread_override(3);
        assert_eq!(ParallelExecutor::from_env().threads(), 3);
        set_thread_override(0); // clear so other tests see the default
        assert!(ParallelExecutor::from_env().threads() >= 1);
    }

    #[test]
    fn panicking_unit_does_not_poison_siblings() {
        for threads in [1, 4] {
            let cells = (0..16u64)
                .map(|i| {
                    CellSpec::new(format!("times-ten-{i}"), move || {
                        assert_ne!(i, 5, "cell 5 always crashes");
                        i * 10
                    })
                })
                .collect();
            let out = ParallelExecutor::new(threads).run_cells(cells);
            assert_eq!(out.len(), 16);
            for (i, r) in out.iter().enumerate() {
                if i == 5 {
                    let e = r.as_ref().unwrap_err();
                    assert_eq!(e.index, 5);
                    assert_eq!(e.label, "times-ten-5");
                    assert_eq!(e.attempts, 1);
                    assert_eq!(e.kind, CellErrorKind::Panicked);
                    assert!(e.message.contains("cell 5 always crashes"), "{e}");
                } else {
                    assert_eq!(*r.as_ref().unwrap(), i as u64 * 10, "threads={threads}");
                }
            }
        }
    }

    #[test]
    fn run_panics_with_cell_error_after_draining() {
        let completed = AtomicUsize::new(0);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let cells = vec![
                CellSpec::new("before", || {
                    completed.fetch_add(1, Ordering::Relaxed);
                }),
                CellSpec::new("boom", || panic!("boom")),
                CellSpec::new("after", || {
                    completed.fetch_add(1, Ordering::Relaxed);
                }),
            ];
            ParallelExecutor::new(2).run(cells)
        }));
        let message = panic_message(outcome.unwrap_err());
        assert!(message.contains("boom"), "{message}");
        assert_eq!(
            completed.load(Ordering::Relaxed),
            2,
            "healthy cells finish before the error propagates"
        );
    }

    #[test]
    fn failed_cell_reports_label_and_fingerprint() {
        let cells = vec![
            CellSpec::new("ok", || 1u32),
            CellSpec::new("doomed", || panic!("always")).with_fingerprint("cfg-beef"),
        ];
        let out = ParallelExecutor::new(2).run_cells(cells);
        assert_eq!(out[0].as_ref().unwrap(), &1);
        let e = out[1].as_ref().unwrap_err();
        assert_eq!(e.attempts, 1);
        assert_eq!(e.label, "doomed");
        assert_eq!(e.fingerprint.as_deref(), Some("cfg-beef"));
        assert!(e.to_string().contains("cfg-beef"), "{e}");
    }

    #[test]
    fn injected_panic_fires_once_for_matching_label() {
        clear_cell_panic();
        inject_cell_panic("target");
        let cells = vec![
            CellSpec::new("other", || 0u32),
            CellSpec::new("target", || 1u32),
        ];
        let out = ParallelExecutor::new(1).run_cells(cells);
        assert_eq!(out[0].as_ref().unwrap(), &0, "non-matching cell untouched");
        let e = out[1].as_ref().unwrap_err();
        assert!(e.message.contains("injected panic"), "{e}");
        // The injection is consumed: re-running the same cells succeeds.
        let cells = vec![CellSpec::new("target", || 1u32)];
        let out = ParallelExecutor::new(1).run_cells(cells);
        assert_eq!(out[0].as_ref().unwrap(), &1);
    }
}
