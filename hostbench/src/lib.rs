//! Host-time benchmark for the hiss simulator.
//!
//! Three workloads, each one process that makes every input from a seed:
//! `fig3_grid` and `pareto_grid` run a full `.hiss` pack the way
//! `hiss-cli scenario run` does, and `serve_mixed` drives an in-process
//! `hiss_serve::Server` over loopback with two closed-loop clients. The
//! end-to-end metrics come from untraced iterations; `--trace 1` also
//! records spans around each layer call (see [`trace`]) and reports a
//! per-layer breakdown. `hostbench/README.md` defines every metric.

pub mod common;
pub mod grid;
pub mod layers;
pub mod serve;
pub mod trace;

use std::collections::BTreeMap;

use hiss_obs::MetricsRegistry;

/// Set-up passes per run; `setup_s` is their median.
pub const SETUP_PASSES: usize = 5;
/// Iterations a run makes even when `--seconds` runs out first.
pub const MIN_ITERATIONS: u64 = 4;

/// Metric name → value.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Operations attempted and the correctness checks they failed.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one operation; it failed if any check reported a problem.
    pub fn record(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.failures
                .push(format!("{what}: {}", problems.join("; ")));
        }
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Deterministic work counts of one iteration: a function of the
/// workload seed alone, identical across runs and worker counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub events_popped: u64,
    pub events_pushed: u64,
    pub events_peak: u64,
    pub invariants_checked: u64,
    pub interrupts: u64,
    pub ipis: u64,
    pub ssrs_serviced: u64,
    pub iommu_requests: u64,
    pub walker_fetches: u64,
    pub store_hits: u64,
    pub store_misses: u64,
    pub store_writes: u64,
    pub store_invalid: u64,
}

impl Counts {
    /// Adds one cell's run registry.
    pub fn add_run(&mut self, reg: &MetricsRegistry) {
        let c = |name: &str| reg.counter_value(name).unwrap_or(0);
        self.events_popped += c("run.events_popped");
        self.events_pushed += c("run.events_pushed");
        self.events_peak = self.events_peak.max(c("run.events_peak"));
        self.invariants_checked += c("run.invariants_checked");
        self.interrupts += c("kernel.interrupts.total");
        self.ipis += c("kernel.ipis");
        self.ssrs_serviced += c("kernel.ssrs_serviced");
        self.iommu_requests += c("iommu.requests");
        self.walker_fetches += c("iommu.walker.memory_fetches");
    }

    /// Takes the baseline-cache counter deltas since `before`.
    pub fn set_cache_since(&mut self, before: (u64, u64)) {
        let (hits, misses) = cache_counters();
        self.cache_hits = hits - before.0;
        self.cache_misses = misses - before.1;
    }

    pub fn set_store(&mut self, store: &hiss::DiskStore) {
        self.store_hits = store.hit_count();
        self.store_misses = store.miss_count();
        self.store_writes = store.write_count();
        self.store_invalid = store.invalid_count();
    }
}

/// Lifetime `(hits, misses)` of the process-wide baseline cache.
pub fn cache_counters() -> (u64, u64) {
    let cache = hiss::BaselineCache::global();
    (cache.hit_count(), cache.miss_count())
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub tally: Tally,
    /// Every end-to-end metric (from untraced iterations).
    pub e2e: Metrics,
    /// End-to-end figures that are printed but not gated.
    pub extra: Metrics,
    /// Per-layer metrics (trace mode only).
    pub layers: Metrics,
    /// Raw spans of the traced iterations.
    pub spans: Vec<trace::Span>,
    /// Sample counts behind the figures, for the report.
    pub samples: String,
}
