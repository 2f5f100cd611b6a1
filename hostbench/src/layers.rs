//! Turns the spans and counts of a traced run into per-layer metrics.

use std::collections::BTreeSet;
use std::sync::Arc;

use hiss::{PoolProfile, RunReport};

use crate::common::{median, quantile};
use crate::trace::Breakdown;
use crate::{Counts, Metrics};

/// Spans that only group other spans: their self time is time no layer
/// accounts for.
pub const CONTAINERS: [&str; 3] = ["request", "serve.publish", "serve.replay"];

/// Everything a traced run measured besides its spans.
#[derive(Debug, Default)]
pub struct Layered {
    /// Traced iterations.
    pub iterations: u64,
    /// Median wall of the untraced and traced iterations' timed part.
    pub untraced_wall_s: f64,
    pub traced_wall_s: f64,
    /// Threads that share that wall: audit time is a share of
    /// `threads × wall`.
    pub threads: usize,
    /// Span name of one pool job.
    pub job_span: &'static str,
    pub profiles: Vec<PoolProfile>,
    /// `invariants::audit` calls the program made, over all traced
    /// iterations.
    pub audit_calls: u64,
    /// Events popped by the co-runs `sim.corun` spans simulated.
    pub corun_events: u64,
    pub snapshot_bytes: Vec<f64>,
    pub names_per_snapshot: Vec<f64>,
    /// Per-submission transport-free service time and its remainder.
    pub service_ms: Vec<f64>,
    pub transport_ms: Vec<f64>,
    /// Protocol lines and bytes received, over all traced iterations.
    pub lines: u64,
    pub bytes: u64,
    /// Counts of the first counted iteration.
    pub counts: Option<Counts>,
}

/// Number of distinct runs: each was simulated, and audited by
/// `Soc::finalize`, exactly once.
pub fn distinct_runs(runs: &[Arc<RunReport>]) -> u64 {
    runs.iter().map(Arc::as_ptr).collect::<BTreeSet<_>>().len() as u64
}

/// Name and unit of every per-layer metric, in report order.
pub const LAYER_METRICS: [(&str, &str); 43] = [
    ("scenario.lint_ms", "ms"),
    ("scenario.parse_ms", "ms"),
    ("scenario.expand_ms", "ms"),
    ("scenario.check_ms", "ms"),
    ("scenario.emit_ms", "ms"),
    ("cache.baseline_ms", "ms"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("sim.corun_ms", "ms"),
    ("sim.host_ns_per_event", "ns"),
    ("run.events_popped", "count"),
    ("run.events_pushed", "count"),
    ("run.events_peak", "count"),
    ("audit.ms_per_call", "ms"),
    ("audit.calls", "count"),
    ("run.invariants_checked", "count"),
    ("audit.share", "ratio"),
    ("json.encode_ms", "ms"),
    ("json.decode_ms", "ms"),
    ("json.bytes_per_snapshot", "B"),
    ("registry.names_per_snapshot", "count"),
    ("store.load_ms", "ms"),
    ("store.save_ms", "ms"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.writes", "count"),
    ("store.invalid", "count"),
    ("runner.busy_frac", "ratio"),
    ("runner.job_ms_p50", "ms"),
    ("runner.job_ms_p99", "ms"),
    ("runner.worker_jobs_max_over_min", "ratio"),
    ("serve.service_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.lines", "count"),
    ("serve.bytes", "B"),
    ("kernel.interrupts.total", "count"),
    ("kernel.ipis", "count"),
    ("kernel.ssrs_serviced", "count"),
    ("iommu.requests", "count"),
    ("iommu.walker.memory_fetches", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.uncovered_frac", "ratio"),
];

/// Computes every metric of [`LAYER_METRICS`].
pub fn compute(b: &Breakdown, l: &Layered) -> Metrics {
    let iters = l.iterations.max(1) as f64;
    // Self milliseconds per traced iteration.
    let per_iter = |name: &str| b.layer(name).self_ns as f64 / 1e6 / iters;
    let counts = l.counts.clone().unwrap_or_default();
    let mut m = Metrics::new();
    m.insert("scenario.lint_ms", per_iter("scenario.lint"));
    m.insert("scenario.parse_ms", per_iter("scenario.parse"));
    m.insert("scenario.expand_ms", per_iter("scenario.expand"));
    m.insert("scenario.check_ms", per_iter("scenario.check"));
    m.insert("scenario.emit_ms", per_iter("scenario.emit"));

    m.insert("cache.baseline_ms", per_iter("cache.baseline"));
    m.insert("cache.hits", counts.cache_hits as f64);
    m.insert("cache.misses", counts.cache_misses as f64);
    let lookups = (counts.cache_hits + counts.cache_misses).max(1) as f64;
    m.insert("cache.hit_ratio", counts.cache_hits as f64 / lookups);

    let corun = b.layer("sim.corun");
    m.insert("sim.corun_ms", per_iter("sim.corun"));
    m.insert(
        "sim.host_ns_per_event",
        corun.self_ns as f64 / l.corun_events.max(1) as f64,
    );
    m.insert("run.events_popped", counts.events_popped as f64);
    m.insert("run.events_pushed", counts.events_pushed as f64);
    m.insert("run.events_peak", counts.events_peak as f64);

    let audit = b.layer("audit");
    let ms_per_call = audit.total_ns as f64 / 1e6 / audit.calls.max(1) as f64;
    let calls = l.audit_calls as f64 / iters;
    m.insert("audit.ms_per_call", ms_per_call);
    m.insert("audit.calls", calls);
    m.insert("run.invariants_checked", counts.invariants_checked as f64);
    m.insert(
        "audit.share",
        calls * ms_per_call
            / (l.untraced_wall_s * 1e3 * l.threads.max(1) as f64).max(f64::MIN_POSITIVE),
    );

    m.insert("json.encode_ms", per_iter("json.encode"));
    m.insert("json.decode_ms", per_iter("json.decode"));
    m.insert("json.bytes_per_snapshot", mean(&l.snapshot_bytes));
    m.insert("registry.names_per_snapshot", mean(&l.names_per_snapshot));

    m.insert("store.load_ms", per_iter("store.load"));
    m.insert("store.save_ms", per_iter("store.save"));
    m.insert("store.hits", counts.store_hits as f64);
    m.insert("store.misses", counts.store_misses as f64);
    m.insert("store.writes", counts.store_writes as f64);
    m.insert("store.invalid", counts.store_invalid as f64);

    let (busy, capacity) = l.profiles.iter().fold((0.0, 0.0), |(b, c), p| {
        (
            b + p.job_s.mean() * p.jobs as f64,
            c + p.threads as f64 * p.wall_s,
        )
    });
    m.insert(
        "runner.busy_frac",
        busy / f64::max(capacity, f64::MIN_POSITIVE),
    );
    let jobs: Vec<f64> = b
        .layer(l.job_span)
        .durs_ns
        .iter()
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    m.insert("runner.job_ms_p50", median(&jobs));
    m.insert("runner.job_ms_p99", quantile(&jobs, 0.99));
    let mut per_worker: Vec<u64> = Vec::new();
    for p in &l.profiles {
        per_worker.resize(per_worker.len().max(p.jobs_per_worker.len()), 0);
        for (w, &n) in p.jobs_per_worker.iter().enumerate() {
            per_worker[w] += n;
        }
    }
    let max = per_worker.iter().copied().max().unwrap_or(0) as f64;
    let min = per_worker.iter().copied().min().unwrap_or(0).max(1) as f64;
    m.insert("runner.worker_jobs_max_over_min", max / min);

    m.insert("serve.service_ms", median(&l.service_ms));
    m.insert("serve.transport_ms", median(&l.transport_ms));
    m.insert("serve.lines", l.lines as f64 / iters);
    m.insert("serve.bytes", l.bytes as f64 / iters);

    m.insert("kernel.interrupts.total", counts.interrupts as f64);
    m.insert("kernel.ipis", counts.ipis as f64);
    m.insert("kernel.ssrs_serviced", counts.ssrs_serviced as f64);
    m.insert("iommu.requests", counts.iommu_requests as f64);
    m.insert("iommu.walker.memory_fetches", counts.walker_fetches as f64);

    m.insert(
        "trace.overhead_frac",
        l.traced_wall_s / l.untraced_wall_s.max(f64::MIN_POSITIVE) - 1.0,
    );
    let uncovered: u64 = CONTAINERS.iter().map(|c| b.layer(c).self_ns).sum();
    m.insert(
        "trace.uncovered_frac",
        uncovered as f64 / b.root_ns.max(1) as f64,
    );
    m
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}
