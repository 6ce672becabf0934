//! System assembly: cores, SRAM hierarchy, memory-side cache, main memory,
//! and the partitioning policy, plus the simulation loop.
//!
//! The module is layered so each concern lives in one place:
//!
//! * `subsystem` — the [`MemorySubsystem`] below the shared L3, the
//!   `MemSideCache` trait that abstracts over memory-side
//!   cache architectures, and the single construction-time `match` that
//!   picks an implementation from [`CacheKind`](crate::config::CacheKind).
//! * `sector_routing` — the shared read/write/fill routing skeleton for
//!   sector-organized caches (stacked-DRAM sectored and on-die eDRAM),
//!   written once against a small `SectorCache` abstraction.
//! * `direct_routing` — routing for the Alloy cache (direct-mapped
//!   TAD + predictor + DBC/BEAR) and the OS-visible flat tier, which do
//!   not share the sector skeleton.
//! * `hierarchy` — the [`System`]: cores, L1/L2/L3 SRAM caches, MSHRs,
//!   and the prefetchers.
//! * `kernel` — the epoch-skipping simulation kernel (the default run
//!   loop) and its epoch scheduler.
//! * `run_loop` — the per-quantum reference loop, retained as the
//!   kernel's bit-identity oracle (`reference-kernel` feature).
//!
//! The [`MemorySubsystem`] is where the paper's action happens: every L3
//! miss (read) and L3 dirty eviction (write) arrives here, the
//! [`Partitioner`](crate::policy::Partitioner) is consulted, and traffic
//! is issued to the memory-side cache array and/or main memory with full
//! bandwidth accounting. Adding a new cache architecture means writing one
//! `MemSideCache` impl and one construction arm — the subsystem itself
//! contains no per-architecture dispatch.

mod direct_routing;
mod hierarchy;
mod kernel;
mod run_loop;
mod sector_impls;
mod sector_routing;
mod subsystem;

pub use hierarchy::System;
pub use kernel::KernelStats;
pub use subsystem::{MemAccessKind, MemorySubsystem};
