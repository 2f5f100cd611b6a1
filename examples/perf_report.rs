//! Criterion-free performance report for the experiment engine.
//!
//! Times the full `scenarios/fig3.hiss` grid (13 CPU × 6 GPU
//! applications, the workhorse of every evaluation artifact) three ways:
//!
//! 1. **serial, cold cache** — `HISS_THREADS=1`, `BaselineCache` empty:
//!    the pre-runner behaviour;
//! 2. **parallel, cold cache** — all available workers (at least 4), the
//!    default path on a multi-core host;
//! 3. **parallel, warm cache** — baselines already memoized by an
//!    earlier figure, the steady state of a full figures regeneration.
//!
//! Plus a raw [`hiss_sim::EventQueue`] throughput measurement
//! (events/second through push+pop), the substrate the hot-path tuning
//! targets, and one instrumented engine run (`x264`+`ubench`, the bench
//! engine-suite cell) reporting simulated events/second and allocator
//! traffic per run — a wall-clock trend the deterministic bench gate
//! cannot hold — and the cost of one
//! conservation-law audit (`hiss_obs::invariants::audit`) of that
//! run's finalized registry, which every simulated cell pays once.
//!
//! Emits one human-readable block and one machine-readable JSON line
//! (prefix `PERF_REPORT_JSON` on stdout, and written verbatim to
//! `target/perf_report.json` or the `--out` path — under `target/` so a
//! run never dirties the working tree; CI uploads it as an artifact).
//! Run with:
//!
//! ```text
//! cargo run --release --example perf_report -p hiss-scenario [-- --out <path>]
//! ```
// Wall-clock timing is this example's purpose; it reports host
// performance, not simulation results.
#![allow(clippy::disallowed_types)]

use std::time::Instant;

use hiss::{BaselineCache, ExperimentBuilder, SystemConfig};
use hiss_obs::schema::Scope;
use hiss_obs::MetricsRegistry;
use hiss_scenario::Scenario;

/// Counts allocation traffic (per thread) so the engine-run row can
/// report allocs/bytes per run; pure delegation to the system allocator
/// otherwise.
#[global_allocator]
static ALLOC: hiss_bench::CountingAlloc = hiss_bench::CountingAlloc::new();

/// One engine run (the bench engine-suite cell), instrumented for
/// simulated events/second and allocator traffic.
struct EngineRun {
    events: u64,
    events_per_sec: f64,
    allocs: u64,
    alloc_bytes: u64,
    /// The run's finalized registry (one fig3 cell's snapshot).
    metrics: MetricsRegistry,
}

fn engine_run(cfg: &SystemConfig) -> EngineRun {
    let probe = hiss_bench::AllocProbe::start();
    let start = Instant::now();
    let report = ExperimentBuilder::new(*cfg)
        .cpu_app("x264")
        .gpu_app("ubench")
        .run();
    let secs = start.elapsed().as_secs_f64();
    let (alloc_bytes, allocs) = probe.finish();
    let events = report
        .metrics
        .counter_value("run.events_popped")
        .unwrap_or(0);
    EngineRun {
        events,
        events_per_sec: events as f64 / secs,
        allocs,
        alloc_bytes,
        metrics: report.metrics,
    }
}

/// Mean wall time of one run-scope audit of `reg`, in microseconds.
fn audit_us_per_call(reg: &MetricsRegistry) -> f64 {
    // ~2k calls keeps the total in the milliseconds, well above timer
    // resolution, at the compiled plan's tens of microseconds per call.
    let calls = 2_000;
    let start = Instant::now();
    for _ in 0..calls {
        assert!(hiss_obs::invariants::audit(std::hint::black_box(reg), Scope::Run).clean());
    }
    start.elapsed().as_secs_f64() * 1e6 / calls as f64
}

fn time_fig3(fig3: &Scenario, threads: usize, clear_cache: bool) -> (f64, usize) {
    std::env::set_var("HISS_THREADS", threads.to_string());
    if clear_cache {
        BaselineCache::global().clear();
    }
    let start = Instant::now();
    let rows = hiss_scenario::run(fig3, false);
    let secs = start.elapsed().as_secs_f64();
    std::env::remove_var("HISS_THREADS");
    (secs, rows.len())
}

fn event_queue_events_per_sec() -> f64 {
    use hiss_sim::{EventQueue, Ns, Rng};
    let mut rng = Rng::new(7);
    let times: Vec<Ns> = (0..4096u64)
        .map(|_| Ns::from_nanos(rng.gen_range(0, 1_000_000)))
        .collect();
    // Calibrated batch count: ~10^7 events keeps the measurement well
    // above timer resolution without slowing the report down.
    let reps = 2_500;
    let start = Instant::now();
    let mut sink = 0usize;
    for _ in 0..reps {
        let mut q = EventQueue::with_capacity(times.len());
        for (i, t) in times.iter().enumerate() {
            q.push(*t, i);
        }
        while let Some((_, e)) = q.pop() {
            sink = sink.wrapping_add(e);
        }
    }
    let secs = start.elapsed().as_secs_f64();
    std::hint::black_box(sink);
    (reps as f64 * times.len() as f64) / secs
}

/// Parses `--out <path>` from the example's arguments; defaults to
/// `target/perf_report.json` so the report never lands in the checkout.
fn out_path() -> std::path::PathBuf {
    let mut args = std::env::args().skip(1);
    match args.next() {
        None => std::path::PathBuf::from("target").join("perf_report.json"),
        Some(flag) if flag == "--out" => match (args.next(), args.next()) {
            (Some(p), None) => p.into(),
            _ => {
                eprintln!("perf_report: --out requires exactly one path");
                std::process::exit(2);
            }
        },
        Some(arg) => {
            eprintln!("perf_report: unknown argument `{arg}` (only --out <path>)");
            std::process::exit(2);
        }
    }
}

fn main() {
    let out = out_path();
    let cfg = SystemConfig::a10_7850k();
    let fig3_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/fig3.hiss");
    let fig3 = hiss_scenario::load(std::path::Path::new(fig3_path)).expect("fig3.hiss loads");
    let host_workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    // The parallel measurement always asks for at least 4 workers; on
    // hosts with fewer cores they time-slice (and the speedup column
    // will honestly show ~1x — the warm-cache row is the hardware-
    // independent win).
    let workers = host_workers.max(4);

    let (serial_cold_s, cells) = time_fig3(&fig3, 1, true);
    let (parallel_cold_s, _) = time_fig3(&fig3, workers, true);
    let (parallel_warm_s, _) = time_fig3(&fig3, workers, false);

    let speedup_parallel = serial_cold_s / parallel_cold_s;
    let speedup_warm = serial_cold_s / parallel_warm_s;
    let events_per_sec = event_queue_events_per_sec();
    let engine = engine_run(&cfg);
    let audit_us = audit_us_per_call(&engine.metrics);

    println!("perf_report: fig3 grid, {cells} cells, host parallelism {host_workers}");
    println!(
        "  serial cold    {serial_cold_s:8.3} s   {:8.2} cells/s",
        cells as f64 / serial_cold_s
    );
    println!(
        "  parallel cold  {parallel_cold_s:8.3} s   {:8.2} cells/s   ({workers} workers, {speedup_parallel:.2}x)",
        cells as f64 / parallel_cold_s
    );
    println!(
        "  parallel warm  {parallel_warm_s:8.3} s   {:8.2} cells/s   (cached baselines, {speedup_warm:.2}x)",
        cells as f64 / parallel_warm_s
    );
    println!("  event queue    {events_per_sec:.3e} events/s");
    println!(
        "  engine run     {:.3e} events/s   ({} events, {} allocs, {} bytes per run)",
        engine.events_per_sec, engine.events, engine.allocs, engine.alloc_bytes
    );
    println!(
        "  audit          {audit_us:8.2} us/call  ({} names, run-scope laws)",
        engine.metrics.len()
    );
    println!(
        "  baseline cache {} entries, {} hits / {} misses",
        BaselineCache::global().len(),
        BaselineCache::global().hit_count(),
        BaselineCache::global().miss_count()
    );

    let json = format!(
        "{{\"grid\":\"fig3\",\"cells\":{cells},\
         \"host_workers\":{host_workers},\"workers\":{workers},\
         \"serial_cold_s\":{serial_cold_s:.4},\
         \"parallel_cold_s\":{parallel_cold_s:.4},\
         \"parallel_warm_s\":{parallel_warm_s:.4},\
         \"speedup_parallel\":{speedup_parallel:.3},\
         \"speedup_warm\":{speedup_warm:.3},\
         \"cells_per_sec_cold\":{:.3},\
         \"event_queue_events_per_sec\":{events_per_sec:.0},\
         \"engine_events_per_sec\":{:.0},\
         \"engine_events_per_run\":{},\
         \"engine_allocs_per_run\":{},\
         \"engine_alloc_bytes_per_run\":{},\
         \"engine_audit_us_per_call\":{audit_us:.2}}}",
        cells as f64 / parallel_cold_s,
        engine.events_per_sec,
        engine.events,
        engine.allocs,
        engine.alloc_bytes
    );
    println!("PERF_REPORT_JSON {json}");

    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("perf_report: cannot create {}: {e}", dir.display());
            std::process::exit(1);
        }
    }
    match std::fs::write(&out, format!("{json}\n")) {
        Ok(()) => println!("perf_report: wrote {}", out.display()),
        Err(e) => {
            eprintln!("perf_report: cannot write {}: {e}", out.display());
            std::process::exit(1);
        }
    }
}
