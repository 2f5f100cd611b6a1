//! Run-level measurement report.

use hiss_obs::schema::{self, MetricKind, Scope};
use hiss_obs::{HistogramSnapshot, MetricValue, MetricsRegistry};
use hiss_sim::Ns;

use crate::trace::Trace;

/// Everything measured in one simulation run.
///
/// The report *is* its metrics registry: every measurement is read
/// through its `hiss_obs::schema` path ([`RunReport::counter`],
/// [`RunReport::gauge`]), with typed accessors only for values that are
/// not a plain counter or gauge. A report served from the disk store and
/// a freshly simulated one are therefore the same value.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Structured snapshot of every component's counters (`kernel.*`,
    /// `iommu.*`, `cpu.*`, `gpu*.*`, `qos.*`, `run.*`, `energy.*`).
    /// Built purely from deterministic simulation state, so it is
    /// bit-identical across `HISS_THREADS` settings; serialize with
    /// [`MetricsRegistry::to_json`].
    pub metrics: MetricsRegistry,
    /// Activity trace, when requested via
    /// [`ExperimentBuilder::trace_window`](crate::ExperimentBuilder::trace_window).
    /// Traces are never stored.
    pub trace: Option<Trace>,
}

/// Debug builds check that `path` names a run-scope schema entry of
/// `kind`, so a misspelt path fails loudly instead of reading 0.
fn debug_check(path: &str, kind: MetricKind) {
    debug_assert!(
        schema::lookup(path).is_some_and(|e| e.scope == Scope::Run && e.kind == kind),
        "`{path}` is not a run-scope {} in hiss_obs::schema",
        kind.as_str()
    );
}

impl RunReport {
    /// The report over a metrics snapshot: a fresh run's registry, or a
    /// stored one (the disk store's payload — see [`crate::store`]).
    pub fn from_metrics(metrics: MetricsRegistry) -> RunReport {
        RunReport {
            metrics,
            trace: None,
        }
    }

    /// The counter at schema `path`, 0 when the run did not publish it.
    pub fn counter(&self, path: &str) -> u64 {
        debug_check(path, MetricKind::Counter);
        self.metrics.counter_value(path).unwrap_or(0)
    }

    /// The gauge at schema `path`, 0.0 when the run did not publish it.
    pub fn gauge(&self, path: &str) -> f64 {
        debug_check(path, MetricKind::Gauge);
        self.metrics.gauge_value(path).unwrap_or(0.0)
    }

    /// Simulated length of the run (`run.elapsed_ns`).
    pub fn elapsed(&self) -> Ns {
        Ns::from_nanos(self.counter("run.elapsed_ns"))
    }

    /// When the CPU application's last thread finished (its runtime), if
    /// a CPU application was present and finished.
    pub fn cpu_app_runtime(&self) -> Option<Ns> {
        debug_check("run.cpu_app_runtime_ns", MetricKind::Counter);
        self.metrics
            .counter_value("run.cpu_app_runtime_ns")
            .map(Ns::from_nanos)
    }

    /// Mean end-to-end SSR latency (`Ns::ZERO` when no SSR completed).
    pub fn mean_ssr_latency(&self) -> Ns {
        self.latency(|h| h.mean_ns)
    }

    /// 99th-percentile SSR latency (bucket upper bound).
    pub fn p99_ssr_latency(&self) -> Ns {
        self.latency(|h| h.p99_ns)
    }

    fn latency(&self, field: impl Fn(&HistogramSnapshot) -> u64) -> Ns {
        match self.metrics.get("kernel.latency") {
            Some(MetricValue::Histogram(h)) => Ns::from_nanos(field(h)),
            _ => Ns::ZERO,
        }
    }

    /// SSR interrupts per core (`/proc/interrupts` view), in numeric
    /// core order (registry order would put core10 before core2).
    pub fn interrupts_per_core(&self) -> Vec<u64> {
        const PREFIX: &str = "kernel.interrupts.core";
        let mut per_core: Vec<(usize, u64)> = self
            .metrics
            .iter_prefix(PREFIX)
            .filter_map(|(name, value)| match value {
                MetricValue::Counter(n) => Some((name[PREFIX.len()..].parse().ok()?, *n)),
                _ => None,
            })
            .collect();
        per_core.sort_unstable();
        per_core.into_iter().map(|(_, n)| n).collect()
    }

    /// CPU-application performance of this run normalised to a baseline
    /// run (1.0 = no slowdown; the paper's Fig. 3a/6/12a y-axis).
    ///
    /// Returns `None` if either run lacks a finished CPU application.
    pub fn cpu_perf_vs(&self, baseline: &RunReport) -> Option<f64> {
        let mine = self.cpu_app_runtime()?;
        let base = baseline.cpu_app_runtime()?;
        Some(base.as_nanos() as f64 / mine.as_nanos() as f64)
    }

    /// GPU throughput of this run normalised to a baseline run (the
    /// paper's Fig. 3b/6/12b y-axis).
    pub fn gpu_perf_vs(&self, baseline: &RunReport) -> f64 {
        ratio(
            self.gauge("run.gpu_throughput"),
            baseline.gauge("run.gpu_throughput"),
        )
    }

    /// SSR rate normalised to a baseline (the ubench performance metric
    /// in Figs. 6–7).
    pub fn ssr_rate_vs(&self, baseline: &RunReport) -> f64 {
        ratio(self.gauge("run.ssr_rate"), baseline.gauge("run.ssr_rate"))
    }
}

/// `mine / base`, 0 rather than NaN or infinity for a zero baseline.
fn ratio(mine: f64, base: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        mine / base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(runtime_ms: Option<u64>, throughput: f64, rate: f64) -> RunReport {
        let mut m = MetricsRegistry::new();
        if let Some(ms) = runtime_ms {
            m.counter("run.cpu_app_runtime_ns", Ns::from_millis(ms).as_nanos());
        }
        m.gauge("run.gpu_throughput", throughput);
        m.gauge("run.ssr_rate", rate);
        RunReport::from_metrics(m)
    }

    #[test]
    fn normalisation_math() {
        let fast = report(Some(10), 0.8, 50_000.0);
        let slow = report(Some(20), 0.4, 25_000.0);
        assert_eq!(slow.cpu_perf_vs(&fast), Some(0.5));
        assert_eq!(slow.gpu_perf_vs(&fast), 0.5);
        assert_eq!(slow.ssr_rate_vs(&fast), 0.5);
    }

    #[test]
    fn missing_runtime_yields_none() {
        let a = RunReport::default();
        let b = report(Some(1), 0.0, 0.0);
        assert_eq!(a.cpu_perf_vs(&b), None);
        assert_eq!(b.cpu_perf_vs(&a), None);
    }

    #[test]
    fn zero_baseline_throughput_is_zero_not_nan() {
        let a = report(None, 0.5, 0.5);
        let zero = RunReport::default();
        assert_eq!(a.gpu_perf_vs(&zero), 0.0);
        assert_eq!(a.ssr_rate_vs(&zero), 0.0);
    }

    #[test]
    fn absent_entries_read_as_zero() {
        let r = RunReport::default();
        assert_eq!(r.counter("kernel.ipis"), 0);
        assert_eq!(r.gauge("run.cc6_residency"), 0.0);
        assert_eq!(r.elapsed(), Ns::ZERO);
        assert_eq!(r.cpu_app_runtime(), None);
        assert_eq!(r.p99_ssr_latency(), Ns::ZERO);
        assert!(r.interrupts_per_core().is_empty());
    }

    #[test]
    fn interrupts_per_core_is_in_numeric_core_order() {
        let mut m = MetricsRegistry::new();
        for core in 0..12u64 {
            m.counter(format!("kernel.interrupts.core{core}"), 100 + core);
        }
        m.counter("kernel.interrupts.total", 1266);
        let r = RunReport::from_metrics(m);
        assert_eq!(r.interrupts_per_core(), (100..112).collect::<Vec<u64>>());
    }

    #[test]
    fn latency_accessors_read_the_histogram() {
        let mut m = MetricsRegistry::new();
        m.set(
            "kernel.latency",
            MetricValue::Histogram(HistogramSnapshot {
                count: 2,
                mean_ns: 1_500,
                p99_ns: 2_048,
                ..HistogramSnapshot::default()
            }),
        );
        let r = RunReport::from_metrics(m);
        assert_eq!(r.mean_ssr_latency(), Ns::from_nanos(1_500));
        assert_eq!(r.p99_ssr_latency(), Ns::from_nanos(2_048));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not a run-scope counter")]
    fn a_misspelt_counter_path_panics_in_debug_builds() {
        RunReport::default().counter("kernel.ipi");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not a run-scope gauge")]
    fn reading_a_counter_as_a_gauge_panics_in_debug_builds() {
        RunReport::default().gauge("kernel.ipis");
    }
}
