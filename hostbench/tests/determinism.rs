//! The per-layer counts are work counts, not timings: for a given
//! workload seed they must not change between runs or with the number
//! of pool workers. Run with `cargo test --release` (the workloads
//! simulate full packs).

use std::path::PathBuf;
use std::sync::Mutex;

use hiss_hostbench::layers::LAYER_METRICS;
use hiss_hostbench::{grid, serve, Metrics, Outcome};

/// The baseline cache and `HISS_THREADS` are process-wide, so the
/// workloads in this file run one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("hostbench lives inside the repo")
        .to_path_buf()
}

/// The count-valued per-layer metrics of a traced run.
fn counts(out: &Outcome) -> Metrics {
    assert_eq!(
        out.tally.failed, 0,
        "checks failed: {:?}",
        out.tally.failures
    );
    LAYER_METRICS
        .iter()
        .filter(|(_, unit)| *unit == "count")
        .map(|(name, _)| (*name, out.layers[name]))
        .collect()
}

fn traced_grid(grid: grid::Grid, seed: u64) -> Metrics {
    counts(&grid::run(grid, &root(), seed, 0.01, true).expect("grid run"))
}

#[test]
fn grid_counts_repeat_across_runs_and_worker_counts() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let fig3 = traced_grid(grid::FIG3, 11);
    assert_eq!(fig3, traced_grid(grid::FIG3, 11));
    assert!(fig3["run.events_popped"] > 0.0);

    let two = traced_grid(grid::PARETO, 12);
    assert_eq!(two, traced_grid(grid::PARETO, 12));
    let one = grid::Grid {
        threads: 1,
        ..grid::PARETO
    };
    assert_eq!(two, traced_grid(one, 12));
    assert_ne!(fig3, two);
}

#[test]
fn serve_counts_repeat_across_runs() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let run = || counts(&serve::run(&root(), 13, 0.01, true).expect("serve run"));
    let first = run();
    assert_eq!(first, run());
    assert!(first["store.hits"] > 0.0 && first["store.writes"] > 0.0);
}

#[test]
fn different_seeds_give_different_work() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    assert_ne!(traced_grid(grid::FIG3, 21), traced_grid(grid::FIG3, 22));
}
