//! Grid-level cooperative cancellation.
//!
//! A [`CancelToken`] is a shared flag the experiment harness arms on
//! every simulation thread (via [`mem_sim::ScopedStop`]); tripping it —
//! from a Ctrl-C handler, a test hook, or [`CancelToken::cancel_after`]'s
//! deterministic countdown — stops every in-flight simulation at the
//! next window boundary and keeps the executor from starting new cells.
//! Cancelled cells surface as structured
//! [`CellError`](crate::exec::CellError)s, checkpointed progress is kept,
//! and a `DAP_RESUME` re-run completes the grid bit-identically.
//!
//! The [`global_cancel_token`] is the process-wide instance the CLI's
//! Ctrl-C handler trips; [`ParallelExecutor::from_env`] (`crate::exec`)
//! attaches it automatically so every figure run is interruptible
//! without plumbing.
//!
//! [`ParallelExecutor::from_env`]: crate::exec::ParallelExecutor::from_env

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Exit code for a run stopped by cancellation (the shell convention for
/// death-by-SIGINT: 128 + 2). Distinct from failure exit codes so
/// wrappers can tell "interrupted, resume later" from "broken".
pub const EXIT_INTERRUPTED: i32 = 130;

/// A shared cancellation flag for one experiment grid (cloning shares
/// the flag). See the module docs for how it stops a running grid.
#[derive(Clone, Debug)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    /// Completed-cell countdown for [`Self::cancel_after`];
    /// `usize::MAX` = disarmed.
    countdown: Arc<AtomicUsize>,
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

impl CancelToken {
    /// A fresh, untripped token.
    pub fn new() -> Self {
        Self {
            flag: Arc::new(AtomicBool::new(false)),
            countdown: Arc::new(AtomicUsize::new(usize::MAX)),
        }
    }

    /// Trips the token: in-flight simulations stop at their next window
    /// boundary, and no new cells start. Idempotent and thread-safe —
    /// async-signal use (a Ctrl-C handler) only stores one atomic.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether the token has been tripped.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    /// The underlying flag, for installation as a
    /// [`mem_sim::ScopedStop`] stop flag.
    pub fn flag(&self) -> Arc<AtomicBool> {
        self.flag.clone()
    }

    /// Arms a deterministic trip after `completed` more cells finish
    /// (the cancellation-determinism tests use this to cut a grid at an
    /// exact cell count without timing races). `0` cancels immediately.
    pub fn cancel_after(&self, completed: usize) {
        self.countdown.store(completed, Ordering::SeqCst);
        if completed == 0 {
            self.cancel();
        }
    }

    /// Records one completed cell, tripping the token when an armed
    /// [`Self::cancel_after`] countdown hits zero. The
    /// [`ParallelExecutor`](crate::exec::ParallelExecutor) calls this
    /// after every cell; callers running cells outside the executor —
    /// the [`shard`](crate::shard) worker executes its claimed cells
    /// serially — must call it themselves for `cancel_after` to keep
    /// its deterministic meaning of "trip after N more completions".
    pub fn note_completed(&self) {
        let mut current = self.countdown.load(Ordering::SeqCst);
        while current != usize::MAX && current != 0 {
            match self.countdown.compare_exchange(
                current,
                current - 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => {
                    if current == 1 {
                        self.cancel();
                    }
                    return;
                }
                Err(seen) => current = seen,
            }
        }
    }
}

/// The process-wide cancel token: the CLI binaries' Ctrl-C handler trips
/// it, and [`crate::exec::ParallelExecutor::from_env`] attaches it to
/// every grid automatically.
pub fn global_cancel_token() -> &'static CancelToken {
    static GLOBAL: OnceLock<CancelToken> = OnceLock::new();
    GLOBAL.get_or_init(CancelToken::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_the_flag() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!clone.is_cancelled());
        token.cancel();
        assert!(clone.is_cancelled());
        assert!(clone.flag().load(Ordering::SeqCst));
    }

    #[test]
    fn cancel_after_counts_completions() {
        let token = CancelToken::new();
        // Disarmed countdown: completions never trip.
        token.note_completed();
        assert!(!token.is_cancelled());
        token.cancel_after(2);
        token.note_completed();
        assert!(!token.is_cancelled());
        token.note_completed();
        assert!(token.is_cancelled());
    }

    #[test]
    fn cancel_after_zero_trips_immediately() {
        let token = CancelToken::new();
        token.cancel_after(0);
        assert!(token.is_cancelled());
    }
}
