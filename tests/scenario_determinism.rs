//! The batch compiler inherits the runner's determinism contract:
//! scenario results must be bit-identical whatever `HISS_THREADS` says,
//! and whatever the baseline-cache state.

use hiss::experiments::BaselineCache;
use hiss_scenario::{run, Row, Scenario};

/// A scenario exercising every compiler feature that could plausibly
/// interact with scheduling: a mitigation sweep (uncached treated
/// runs), replicas, and the shared baseline cache.
const SCENARIO: &str = r#"
[scenario]
name = "determinism-probe"
[workload]
cpu = ["x264", "raytrace"]
gpu = ["sssp", "ubench"]
[run]
replicas = 2
[sweep]
mitigation = ["default", "steer+coalesce"]
"#;

fn bits(rows: &[Row]) -> Vec<(String, String, u32, Option<u64>, u64, u64)> {
    rows.iter()
        .map(|r| {
            (
                r.cpu_app.clone(),
                r.gpu_app.clone(),
                r.replica,
                r.cpu_perf.map(f64::to_bits),
                r.gpu_perf.to_bits(),
                r.report.counter("kernel.ssrs_serviced"),
            )
        })
        .collect()
}

/// One test owns `HISS_THREADS` end to end (tests in a binary share the
/// process environment, so the mutation must not span `#[test]`s).
#[test]
fn scenario_batches_are_bit_identical_across_worker_counts() {
    let sc = Scenario::from_str(SCENARIO).unwrap();

    std::env::set_var("HISS_THREADS", "1");
    BaselineCache::global().clear();
    let serial = run(&sc, false);

    std::env::set_var("HISS_THREADS", "8");
    BaselineCache::global().clear();
    let parallel = run(&sc, false);

    // Warm cache: memoized baselines must not change any value.
    let warm = run(&sc, false);
    std::env::remove_var("HISS_THREADS");

    // 2 sweep points × 2 gpu × 2 cpu × 2 replicas.
    assert_eq!(serial.len(), 16);
    assert_eq!(bits(&serial), bits(&parallel));
    assert_eq!(bits(&serial), bits(&warm));
}
