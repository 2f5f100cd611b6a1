//! # hiss-bench — performance-regression subsystem
//!
//! The machinery behind `hiss-cli bench` (see `docs/BENCH.md`):
//!
//! - [`alloc`] — a counting global allocator and per-thread
//!   [`AllocProbe`] for deterministic allocation counters,
//! - [`baseline`] — the committed `BENCH_BASELINE.json` format
//!   (JSON-lines of [`hiss_obs::MetricsRegistry`] snapshots),
//! - [`compare`] — the tolerance-band comparator `bench check` gates
//!   on.

pub mod alloc;
pub mod baseline;
pub mod compare;

pub use alloc::{AllocProbe, CountingAlloc};
