//! The parallel experiment engine must be invisible in the output:
//! simulations run on the job pool are required to be bit-for-bit
//! identical to the serial path, whatever the worker count. These tests
//! pin that contract for calendar counters and full metric snapshots
//! (mixed device topologies, criticality partitions), including the
//! `HISS_THREADS` override the runner sizes itself from. Pack grids are
//! pinned the same way, with cold and warm caches, by
//! `tests/scenario_determinism.rs` (a default plus non-default
//! mitigation sweep: the shape of the fig3 and pareto packs).

use hiss::{
    run_jobs_on, CoreId, CriticalityConfig, DeviceSpec, DmaParams, ExperimentBuilder, NicParams,
    SystemConfig,
};

/// The GPU applications each thread-invariance probe runs against x264.
const GPU: [&str; 3] = ["bfs", "sssp", "ubench"];

/// One test owns the `HISS_THREADS` variable end to end: tests within a
/// binary run on concurrent threads, so the env mutation must not be
/// split across several `#[test]` functions.
#[test]
fn hiss_threads_1_and_8_produce_identical_grids() {
    let cfg = SystemConfig::a10_7850k();

    // The calendar's own accounting must be as thread-invariant as the
    // simulation results: per-run events pushed/popped/peak are part of
    // the bench gate, so the runner must not perturb them either.
    let counters = |threads: &str| -> Vec<(u64, u64, u64)> {
        std::env::set_var("HISS_THREADS", threads);
        let n: usize = threads.parse().expect("numeric HISS_THREADS");
        run_jobs_on(n, GPU.len(), |i| {
            let r = ExperimentBuilder::new(cfg)
                .cpu_app("x264")
                .gpu_app(GPU[i])
                .run();
            (
                r.metrics.counter_value("run.events_pushed").unwrap(),
                r.metrics.counter_value("run.events_popped").unwrap(),
                r.metrics.counter_value("run.events_peak").unwrap(),
            )
        })
    };
    let counters_serial = counters("1");

    // Mixed device topologies (GPU + NIC + DMA, one steered) must be as
    // thread-invariant as the all-GPU grids: the full metric snapshot —
    // `devN.*` rows included — is pinned byte-identical across worker
    // counts.
    let device_snapshots = |threads: &str| -> Vec<String> {
        std::env::set_var("HISS_THREADS", threads);
        let n: usize = threads.parse().expect("numeric HISS_THREADS");
        run_jobs_on(n, GPU.len(), |i| {
            ExperimentBuilder::new(cfg)
                .cpu_app("x264")
                .gpu_app(GPU[i])
                .device(DeviceSpec::Nic(NicParams::default()))
                .device_steered(DeviceSpec::Dma(DmaParams::default()), Some(CoreId(2)))
                .run()
                .metrics
                .to_json()
        })
    };
    let devices_serial = device_snapshots("1");

    // Mixed-criticality partitions publish per-class metric families
    // (`qos.classN.*`) and reroute interrupts off reserved cores; both
    // must be as thread-invariant as everything else, snapshot
    // byte-identical across worker counts.
    let crit_snapshots = |threads: &str| -> Vec<String> {
        std::env::set_var("HISS_THREADS", threads);
        let n: usize = threads.parse().expect("numeric HISS_THREADS");
        run_jobs_on(n, GPU.len(), |i| {
            ExperimentBuilder::new(cfg)
                .cpu_app("x264")
                .gpu_app(GPU[i])
                .device(DeviceSpec::Nic(NicParams::default()))
                .criticality(CriticalityConfig {
                    critical_device_mask: 0b10,
                    ..CriticalityConfig::default()
                })
                .run()
                .metrics
                .to_json()
        })
    };
    let crit_serial = crit_snapshots("1");

    let counters_parallel = counters("8");
    let devices_parallel = device_snapshots("8");
    let crit_parallel = crit_snapshots("8");
    std::env::remove_var("HISS_THREADS");

    assert_eq!(counters_serial, counters_parallel);
    assert_eq!(devices_serial, devices_parallel);
    assert_eq!(crit_serial, crit_parallel);
    for snap in &crit_serial {
        assert!(
            snap.contains("\"qos.classes\":2") && snap.contains("\"qos.class0.requests\""),
            "per-class rows missing from snapshot: {snap}"
        );
    }
    for snap in &devices_serial {
        assert!(
            snap.contains("\"dev1.kind\":\"nic\"") && snap.contains("\"dev2.kind\":\"dma\""),
            "device rows missing from snapshot: {snap}"
        );
    }
    for (pushed, popped, peak) in counters_serial {
        // Conservation: peak is a real high watermark, and the loop's
        // early exit is the only reason pops may trail pushes.
        assert!(peak >= 1 && peak <= pushed);
        assert!(popped <= pushed);
    }
}

/// The runner itself, driven with explicit worker counts over real
/// simulation jobs: scheduling must not leak into results or order.
#[test]
fn explicit_worker_counts_agree_on_simulation_results() {
    let cfg = SystemConfig::a10_7850k();
    let cells: Vec<(&str, &str)> = ["x264", "raytrace"]
        .iter()
        .flat_map(|c| ["sssp", "ubench"].iter().map(move |g| (*c, *g)))
        .collect();
    let job = |i: usize| {
        let (cpu_app, gpu_app) = cells[i];
        let r = ExperimentBuilder::new(cfg)
            .cpu_app(cpu_app)
            .gpu_app(gpu_app)
            .run();
        (
            r.elapsed(),
            r.cpu_app_runtime(),
            r.counter("kernel.ssrs_serviced"),
            r.counter("kernel.ipis"),
        )
    };
    let serial = run_jobs_on(1, cells.len(), job);
    for threads in [2, 4, 8] {
        let parallel = run_jobs_on(threads, cells.len(), job);
        assert_eq!(serial, parallel, "threads={threads}");
    }
}
