//! Thread-to-CPU pinning for the `dapd-rpc` workload.
//!
//! Unpinned on a 2-vCPU box, the two client threads and the daemon's two
//! connection workers flip between two scheduler placements every few
//! hundred milliseconds: each client sharing a CPU with its own worker
//! (a same-core ping-pong, ~26k decisions per 0.25 s) or split across
//! CPUs (a cross-CPU wake-up per message, ~10.5k per 0.25 s). The
//! throughput then measures which placement the scheduler happened to
//! pick. Pinning client `c` and the worker serving it to the same CPU
//! fixes the placement, so runs measure dapd.
//!
//! `sched_{get,set}affinity(2)` are reached through the C library the
//! standard library already links; there is no `libc` crate offline.

use std::collections::BTreeSet;
use std::io;
use std::os::raw::c_int;

/// Words in the kernel's `cpu_set_t` (1024 CPUs).
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut u64) -> c_int;
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const u64) -> c_int;
}

/// The CPUs this process may run on, ascending.
pub fn allowed_cpus() -> io::Result<Vec<usize>> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((0..MASK_WORDS * 64)
        .filter(|&cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect())
}

/// Pins thread `tid` (0 = the calling thread) to `cpu`.
pub fn pin(tid: i32, cpu: usize) -> io::Result<()> {
    if cpu >= MASK_WORDS * 64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "cpu out of range",
        ));
    }
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed;
    // the kernel validates `tid` and returns an error for a bad one.
    let rc = unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Thread ids of this process's live threads.
pub fn threads() -> io::Result<BTreeSet<i32>> {
    let mut out = BTreeSet::new();
    for task in std::fs::read_dir("/proc/self/task")? {
        if let Some(tid) = task?.file_name().to_str().and_then(|s| s.parse().ok()) {
            out.insert(tid);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_thread_can_pin_itself_to_an_allowed_cpu() {
        let cpus = allowed_cpus().expect("affinity readable");
        assert!(!cpus.is_empty());
        std::thread::spawn(move || {
            pin(0, cpus[cpus.len() - 1]).expect("pin to an allowed cpu");
            assert_eq!(
                allowed_cpus().expect("affinity readable"),
                [cpus[cpus.len() - 1]]
            );
        })
        .join()
        .expect("pinning thread");
        assert!(pin(0, MASK_WORDS * 64).is_err());
        assert!(threads()
            .expect("task list")
            .contains(&(std::process::id() as i32)));
    }
}
