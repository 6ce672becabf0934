//! Fixed reference kernels that measure how fast the host runs a kind of
//! work at the moment, so timings can be rescaled to a nominal host.
//!
//! On a shared 2-vCPU host the benchmark's wall times drift by 10–25%
//! over minutes with other tenants' load, while pure ALU code stays
//! within 3%. Each workload is rescaled by a kernel that is slowed the
//! way it is:
//!
//! * [`Yardstick`], a random read-modify-write walk over a buffer the
//!   size of the simulator's working set, for the memory-bound simulator.
//!   Over ten runs at 400k instructions per core the quartile spread of
//!   the raw `sim-sectored` round time was 14% and of the rescaled one 7%.
//! * [`pingpong`], a 16-byte round trip over a Unix socket pair, for the
//!   system-call-bound daemon. In two sets of eight and ten runs the
//!   spread of raw `dapd-rpc` throughput was 8.5% and 15%, of the
//!   rescaled one 2.7% and 8.5%; the memory walk left the first at 8.3%.
//!
//! The kernels are the benchmark's own fixed code, so a change to the
//! programs under test cannot move them.

use std::hint::black_box;
use std::io::{self, Read, Write};
use std::os::unix::net::UnixStream;
use std::time::Instant;

use crate::affinity;

/// Buffer size: about the simulator's resident set (5.7 MiB for a cell).
const BUFFER_BYTES: usize = 8 << 20;
/// Read-modify-write steps per measurement.
const STEPS: u32 = 2_000_000;
/// A walk on the nominal host; rescaled times read as if the walk had
/// taken exactly this long.
pub const WALK_NOMINAL_S: f64 = 0.01;
/// A ping-pong round trip on the nominal host.
pub const PINGPONG_NOMINAL_S: f64 = 6e-6;
/// Round trips per ping-pong measurement.
const PINGPONG_ROUNDS: u32 = 20_000;

/// The reference kernel with one buffer per CPU it measures.
pub struct Yardstick {
    cpus: Vec<usize>,
    walks: Vec<Walk>,
}

impl Yardstick {
    /// A yardstick for code running on `cpus`, measured on each of them
    /// at once (the calling thread must not need those CPUs meanwhile).
    pub fn on(cpus: &[usize]) -> Self {
        Self {
            cpus: cpus.to_vec(),
            walks: cpus.iter().map(|_| Walk::new()).collect(),
        }
    }

    /// Seconds one walk takes now, combined over the CPUs as the
    /// harmonic mean — what a walk takes when the CPUs share its work.
    pub fn measure(&mut self) -> f64 {
        let times: Vec<f64> = std::thread::scope(|scope| {
            let threads: Vec<_> = self
                .cpus
                .iter()
                .zip(&mut self.walks)
                .map(|(&cpu, walk)| {
                    scope.spawn(move || {
                        // An unpinned walk still measures, just less
                        // precisely, so a refused pin is not an error.
                        let _ = affinity::pin(0, cpu);
                        walk.time()
                    })
                })
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("yardstick threads do not panic"))
                .collect()
        });
        times.len() as f64 / times.iter().map(|t| 1.0 / t).sum::<f64>()
    }
}

/// One CPU's buffer and walk state.
struct Walk {
    buf: Vec<u64>,
    x: u64,
}

impl Walk {
    fn new() -> Self {
        Self {
            buf: (0..(BUFFER_BYTES / 8) as u64).collect(),
            x: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Seconds one walk takes now. An untimed walk first brings the
    /// buffer back into the caches, so the timed one does not depend on
    /// how much of it the code measured before it evicted.
    fn time(&mut self) -> f64 {
        self.walk();
        let t0 = Instant::now();
        self.walk();
        t0.elapsed().as_secs_f64()
    }

    fn walk(&mut self) {
        let n = self.buf.len();
        let mut x = self.x;
        for _ in 0..STEPS {
            // xorshift64: a fixed pseudo-random walk the prefetcher
            // cannot follow.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = &mut self.buf[(x as usize) % n];
            *slot = slot.wrapping_add(x);
        }
        self.x = black_box(x);
    }
}

/// Seconds per round trip of a 16-byte ping-pong over a Unix socket
/// pair whose two ends are pinned to the same CPU, on each of `cpus` at
/// once (the placement `dapd-rpc` pins each client and its worker to),
/// combined as the harmonic mean.
pub fn pingpong(cpus: &[usize]) -> io::Result<f64> {
    let times = std::thread::scope(|scope| {
        let pairs: Vec<_> = cpus
            .iter()
            .map(|&cpu| {
                let (mut ping, mut pong) = UnixStream::pair()?;
                let echo = scope.spawn(move || -> io::Result<()> {
                    affinity::pin(0, cpu)?;
                    let mut buf = [0u8; 16];
                    for _ in 0..PINGPONG_ROUNDS {
                        pong.read_exact(&mut buf)?;
                        pong.write_all(&buf)?;
                    }
                    Ok(())
                });
                let timer = scope.spawn(move || -> io::Result<f64> {
                    affinity::pin(0, cpu)?;
                    let mut buf = [7u8; 16];
                    let t0 = Instant::now();
                    for _ in 0..PINGPONG_ROUNDS {
                        ping.write_all(&buf)?;
                        ping.read_exact(&mut buf)?;
                    }
                    Ok(t0.elapsed().as_secs_f64() / f64::from(PINGPONG_ROUNDS))
                });
                Ok((echo, timer))
            })
            .collect::<io::Result<_>>()?;
        pairs
            .into_iter()
            .map(|(echo, timer)| {
                let t = timer.join().expect("ping thread does not panic");
                echo.join().expect("echo thread does not panic")?;
                t
            })
            .collect::<io::Result<Vec<f64>>>()
    })?;
    Ok(times.len() as f64 / times.iter().map(|t| 1.0 / t).sum::<f64>())
}

/// `wall` seconds rescaled to the nominal host, given a kernel whose
/// nominal time is `nominal` took `measured` seconds next to it.
pub fn rescale(wall: f64, measured: f64, nominal: f64) -> f64 {
    wall * nominal / measured
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_measure_positive_times_and_rescale_linearly() {
        let cpus = affinity::allowed_cpus().expect("affinity readable");
        let mut y = Yardstick::on(&cpus);
        assert!(y.measure() > 0.0);
        assert!(pingpong(&cpus).expect("socket pair") > 0.0);
        assert_eq!(rescale(2.0, 0.5, 0.5), 2.0);
        assert_eq!(rescale(2.0, 1.0, 0.5), 1.0);
    }
}
