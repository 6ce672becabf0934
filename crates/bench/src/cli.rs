//! Shared command-line handling for `dapctl`.
//!
//! `--threads N` (also `--threads=N`) sets the experiment executor's
//! worker count, taking precedence over the `DAP_THREADS` environment
//! variable; with neither, the executor uses all available cores. Zero
//! and non-numeric values are usage errors: the binary prints a
//! diagnostic and exits with status 2.
//!
//! [`run_interruptible`] wraps a binary's body with the graceful-
//! shutdown contract: the Ctrl-C handler is installed, the main thread
//! honors the global cancel token at window granularity, and an
//! interrupted run exits with
//! [`EXIT_INTERRUPTED`] (130) after its
//! telemetry artifacts (and, for a checkpointed grid, its manifest) have
//! been flushed.

use experiments::exec::set_thread_override;
use experiments::{global_cancel_token, EXIT_INTERRUPTED};

/// Parses a `--threads` value. Zero is rejected — a zero-worker executor
/// cannot make progress, and silently clamping would hide the typo.
///
/// # Errors
///
/// A human-readable diagnostic when the value is not a positive integer.
pub fn parse_thread_count(raw: &str) -> Result<usize, String> {
    match raw.parse::<usize>() {
        Ok(0) => Err("--threads must be at least 1".to_string()),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("--threads expects a positive integer, got `{raw}`")),
    }
}

/// Parses and installs a `--threads` value, exiting with status 2 (usage
/// error) when it is invalid.
pub fn apply_threads(binary: &str, raw: &str) {
    match parse_thread_count(raw) {
        Ok(n) => set_thread_override(n),
        Err(message) => {
            eprintln!("{binary}: {message}");
            std::process::exit(2);
        }
    }
}

/// Runs a binary's body under the shared graceful-shutdown contract:
/// installs the Ctrl-C handler, arms the global cancel token on the main
/// thread (single-threaded grids run inline there), and maps the outcome
/// onto the documented exit codes — 0 on success, [`EXIT_INTERRUPTED`]
/// (130) when the run was cancelled, and the default panic exit for
/// genuine crashes.
pub fn run_interruptible(binary: &str, body: impl FnOnce()) -> ! {
    crate::sigint::install();
    let token = global_cancel_token();
    // Cooperative interruptions unwind with a typed payload; keep the
    // default panic hook's backtrace noise for genuine bugs only.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info
            .payload()
            .downcast_ref::<mem_sim::RunInterrupted>()
            .is_none()
        {
            default_hook(info);
        }
    }));
    let armed = mem_sim::ScopedStop::install(&[(token.flag(), mem_sim::StopCause::Cancelled)]);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
    drop(armed);
    if token.is_cancelled() {
        eprintln!("{binary}: interrupted");
        std::process::exit(EXIT_INTERRUPTED);
    }
    match outcome {
        Ok(()) => std::process::exit(0),
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_positive_counts() {
        assert_eq!(parse_thread_count("1"), Ok(1));
        assert_eq!(parse_thread_count("64"), Ok(64));
    }

    #[test]
    fn rejects_zero_and_garbage() {
        assert!(parse_thread_count("0").is_err());
        assert!(parse_thread_count("four").is_err());
        assert!(parse_thread_count("-2").is_err());
        assert!(parse_thread_count("").is_err());
        assert!(parse_thread_count("3.5").is_err());
    }
}
