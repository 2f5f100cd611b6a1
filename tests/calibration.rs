//! Calibration suite: pins the simulator to the paper's headline numbers.
//!
//! Each test encodes one quantitative claim from the paper as a tolerance
//! band. The simulator is not expected to match absolute numbers from the
//! authors' testbed — the bands check that *who wins, by roughly what
//! factor, and where the crossovers fall* reproduce (see EXPERIMENTS.md
//! for the per-figure comparison and known deviations).
//!
//! Grid experiments run as `.hiss` packs, exactly the path
//! `hiss-cli figures` takes: Figs. 4 and 9, §IV-C and the scaling and
//! coalescing-window extensions read the committed `scenarios/` packs,
//! the rest run in-memory packs over the subsets they need. Runs a pack
//! cannot express (recalibrated constants, single-run mechanisms) use
//! [`ExperimentBuilder`] directly.

use std::path::Path;

use hiss::{ExperimentBuilder, Mitigation, Ns, SystemConfig};
use hiss_scenario::figures::{self, ratio_vs_default};
use hiss_scenario::{Cell, Row, Scenario};

fn cfg() -> SystemConfig {
    SystemConfig::a10_7850k()
}

/// Runs an in-memory pack over the `cpu` × `gpu` grid plus `extra`
/// sections (e.g. a `[sweep]`), pairing each row with its cell.
fn grid(cpu: &[&str], gpu: &[&str], extra: &str) -> Vec<(Cell, Row)> {
    let list = |apps: &[&str]| {
        apps.iter()
            .map(|a| format!("{a:?}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let text = format!(
        "[scenario]\nname = \"calibration\"\n[workload]\ncpu = [{}]\ngpu = [{}]\n{extra}",
        list(cpu),
        list(gpu)
    );
    let sc = Scenario::from_str(&text).expect("calibration pack parses");
    figures::run_pairs(&sc, false)
}

/// [`grid`] rows with no sweep (the Fig. 3 default configuration).
fn fig3_rows(cpu: &[&str], gpu: &[&str]) -> Vec<Row> {
    grid(cpu, gpu, "").into_iter().map(|(_, r)| r).collect()
}

fn cpu_perf(r: &Row) -> f64 {
    r.cpu_perf
        .expect("calibration cells finish the CPU application")
}

fn parsec() -> Vec<&'static str> {
    hiss::parsec_suite().iter().map(|s| s.name).collect()
}

/// §I / §IV-A: "GPU system service requests can degrade contemporaneous
/// CPU application performance by up to 44%" (x264 under ubench) "and by
/// 28% on average".
#[test]
fn ubench_cpu_degradation_band() {
    let rows = fig3_rows(&parsec(), &["ubench"]);
    let s = figures::fig3_summary(&rows);
    assert!(
        (0.50..=0.80).contains(&s.worst_cpu_ubench),
        "worst-case CPU perf under ubench: {} (paper: 0.56)",
        s.worst_cpu_ubench
    );
    assert!(
        (0.65..=0.88).contains(&s.mean_cpu_ubench),
        "mean CPU perf under ubench: {} (paper: 0.72)",
        s.mean_cpu_ubench
    );
    // The worst-affected application is one of the µarch-sensitive ones.
    let worst = rows
        .iter()
        .min_by(|a, b| cpu_perf(a).total_cmp(&cpu_perf(b)))
        .unwrap();
    assert!(
        ["x264", "fluidanimate"].contains(&worst.cpu_app.as_str()),
        "unexpected worst app {}",
        worst.cpu_app
    );
    // raytrace (single-threaded) is the least affected (paper §IV-A).
    let best = rows
        .iter()
        .max_by(|a, b| cpu_perf(a).total_cmp(&cpu_perf(b)))
        .unwrap();
    assert_eq!(best.cpu_app, "raytrace");
}

/// §IV-A: full-application SSRs cost the CPU up to 31% (fluidanimate with
/// SSSP), 12% on average for the worst generator.
#[test]
fn full_app_cpu_degradation_band() {
    let rows = fig3_rows(
        &["fluidanimate", "x264", "raytrace", "swaptions"],
        &["sssp", "bpt"],
    );
    for r in &rows {
        // Single-threaded raytrace barely interacts with low-rate
        // generators: its cell can land within noise of 1.0.
        let ceiling = if r.cpu_app == "raytrace" { 1.01 } else { 1.0 };
        assert!(
            cpu_perf(r) < ceiling,
            "{}+{}: full apps must still interfere ({})",
            r.cpu_app,
            r.gpu_app,
            cpu_perf(r)
        );
        assert!(
            cpu_perf(r) > 0.6,
            "{}+{}: implausibly strong interference ({})",
            r.cpu_app,
            r.gpu_app,
            cpu_perf(r)
        );
    }
    // fluidanimate is hit harder than swaptions by the same generator.
    let get = |c: &str, g: &str| {
        cpu_perf(
            rows.iter()
                .find(|r| r.cpu_app == c && r.gpu_app == g)
                .unwrap(),
        )
    };
    assert!(get("fluidanimate", "sssp") < get("swaptions", "sssp"));
}

/// §IV-A / Fig. 3b: unrelated CPU work can delay SSR handling and reduce
/// accelerator throughput by up to 18%; streamcluster is the worst
/// delayer (the paper's average GPU drop for it is 8%).
#[test]
fn busy_cpus_delay_gpu_service() {
    let rows = fig3_rows(&parsec(), &["sssp", "ubench"]);
    let sssp_stream = rows
        .iter()
        .find(|r| r.cpu_app == "streamcluster" && r.gpu_app == "sssp")
        .unwrap();
    assert!(
        sssp_stream.gpu_perf < 0.95,
        "streamcluster should delay sssp: {}",
        sssp_stream.gpu_perf
    );
    // streamcluster is the worst CPU workload for each GPU app.
    for gpu in ["sssp", "ubench"] {
        let worst = rows
            .iter()
            .filter(|r| r.gpu_app == gpu)
            .min_by(|a, b| a.gpu_perf.total_cmp(&b.gpu_perf))
            .unwrap();
        assert_eq!(
            worst.cpu_app, "streamcluster",
            "worst delayer for {gpu} was {}",
            worst.cpu_app
        );
    }
}

/// Fig. 3 in both directions on a 2 × 2 grid: every cell shows
/// interference within plausible bounds, ubench hurts the CPU more than
/// sssp, and single-threaded raytrace suffers less than fluidanimate.
#[test]
fn subset_grid_shows_interference_both_ways() {
    let rows = fig3_rows(&["fluidanimate", "raytrace"], &["sssp", "ubench"]);
    assert_eq!(rows.len(), 4);
    for r in &rows {
        assert!(
            cpu_perf(r) > 0.3 && cpu_perf(r) <= 1.02,
            "{}+{} cpu_perf {}",
            r.cpu_app,
            r.gpu_app,
            cpu_perf(r)
        );
        assert!(
            r.gpu_perf > 0.3 && r.gpu_perf <= 1.25,
            "{}+{} gpu_perf {}",
            r.cpu_app,
            r.gpu_app,
            r.gpu_perf
        );
    }
    let perf = |c: &str, g: &str| {
        cpu_perf(
            rows.iter()
                .find(|r| r.cpu_app == c && r.gpu_app == g)
                .unwrap(),
        )
    };
    assert!(perf("fluidanimate", "ubench") < perf("fluidanimate", "sssp"));
    assert!(perf("raytrace", "ubench") > perf("fluidanimate", "ubench"));
}

/// A committed `scenarios/` pack's quick grid, each row paired with its
/// cell (for these packs quick is the whole grid, except that
/// `fig4.hiss` keeps three of its six GPU applications).
fn pack(name: &str) -> Vec<(Cell, Row)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../scenarios/{name}.hiss"));
    let sc = hiss_scenario::load(&path).expect("committed pack loads");
    figures::run_pairs(&sc, true)
}

/// §IV-B / Fig. 4 (`fig4.hiss`): ubench SSRs collapse CC6 residency
/// from 86% to 12%; bfs (clustered early) loses far less than the
/// streaming apps.
#[test]
fn cc6_residency_collapse() {
    let rows: Vec<Row> = pack("fig4").into_iter().map(|(_, r)| r).collect();
    let get = |n: &str| rows.iter().find(|r| r.gpu_app == n).unwrap();
    let lost = |n: &str| get(n).baseline.cc6_residency - get(n).report.cc6_residency;
    let ubench = get("ubench");
    assert!(
        ubench.baseline.cc6_residency > 0.75,
        "no-SSR residency {} (paper: 0.86)",
        ubench.baseline.cc6_residency
    );
    assert!(
        ubench.report.cc6_residency < 0.30,
        "ubench SSR residency {} (paper: 0.12)",
        ubench.report.cc6_residency
    );
    assert!(
        lost("bfs") < lost("sssp"),
        "bfs ({}) should lose fewer points than sssp ({})",
        lost("bfs"),
        lost("sssp")
    );
}

/// §IV-B / Fig. 4 (`fig4.hiss`): on idle CPUs, every GPU application's
/// SSRs cost CC6 residency from an asleep baseline; bfs loses fewer
/// points than ubench (paper: 14 points vs 74).
#[test]
fn ssrs_always_reduce_residency() {
    let rows: Vec<Row> = pack("fig4").into_iter().map(|(_, r)| r).collect();
    let get = |n: &str| rows.iter().find(|r| r.gpu_app == n).unwrap();
    let lost = |n: &str| get(n).baseline.cc6_residency - get(n).report.cc6_residency;
    for r in &rows {
        let (quiet, noisy) = (r.baseline.cc6_residency, r.report.cc6_residency);
        assert!(r.cpu_perf.is_none(), "{}: idle CPUs run nothing", r.gpu_app);
        assert!(
            noisy < quiet,
            "{}: SSRs should cut residency ({noisy} vs {quiet})",
            r.gpu_app
        );
        assert!(quiet > 0.6, "{} baseline too awake", r.gpu_app);
    }
    assert!(
        lost("bfs") < lost("ubench"),
        "bfs lost {} pts, ubench {} pts",
        lost("bfs"),
        lost("ubench")
    );
}

/// §IV-C (`section4c.hiss`): SSR interrupts are evenly spread across all
/// CPUs; IPIs inflate by orders of magnitude; coalescing cuts interrupts
/// (paper: 16% average).
#[test]
fn section4c_interrupt_analysis() {
    let s = figures::section4c(&pack("section4c")).expect("section4c.hiss has a ubench cell");
    assert!(
        s.interrupt_imbalance < 1.2,
        "interrupts not evenly spread: {:?}",
        s.interrupts_per_core
    );
    assert!(s.ipis_with_ssrs > 100);
    assert_eq!(s.ipis_without_ssrs, 0, "no SSRs → no SSR IPIs");
    assert!(
        (0.05..=0.7).contains(&s.coalescing_reduction),
        "coalescing reduction {} (paper: 0.16)",
        s.coalescing_reduction
    );
}

/// §IV-C (`section4c.hiss`): interrupts reach all four cores, IPIs go
/// from none to many once SSRs flow, and coalescing cuts interrupts by a
/// double-digit-ish percentage (paper: 16% average).
#[test]
fn measurements_match_paper_shape() {
    let s = figures::section4c(&pack("section4c")).expect("section4c.hiss has a ubench cell");
    assert_eq!(s.interrupts_per_core.len(), 4);
    assert!(
        s.interrupt_imbalance < 1.5,
        "imbalance {}",
        s.interrupt_imbalance
    );
    assert!(s.ipis_with_ssrs > 100);
    assert_eq!(s.ipis_without_ssrs, 0);
    let inflation = s.ipis_with_ssrs as f64 / s.ipis_without_ssrs as f64;
    assert!(inflation.is_infinite(), "IPI inflation {inflation}");
    assert!(
        s.coalescing_reduction > 0.05 && s.coalescing_reduction < 0.6,
        "reduction {}",
        s.coalescing_reduction
    );
}

/// §V-E / Fig. 9 (`fig9.hiss`): SSRs crater idle-CPU residency, and only
/// the combinations that steer recover a large part of it, by letting
/// the un-steered cores sleep (paper: 12% → ~50%).
#[test]
fn mitigations_recover_sleep_time() {
    let pairs = pack("fig9");
    assert_eq!(pairs.len(), 8);
    let no_ssr = pairs[0].1.baseline.cc6_residency;
    let (_, default) = pairs
        .iter()
        .find(|(c, _)| c.knobs.mitigation == Mitigation::DEFAULT)
        .unwrap();
    let default = default.report.cc6_residency;
    assert!(no_ssr > 0.7, "no_SSR residency {no_ssr}");
    assert!(default < no_ssr * 0.6, "default residency {default}");
    for (c, r) in &pairs {
        let cc6 = r.report.cc6_residency;
        if c.knobs.mitigation.steer_single_core {
            assert!(
                cc6 > default + 0.1,
                "{}: {cc6} vs {default}",
                c.knobs.mitigation.label()
            );
        } else {
            assert!(cc6 < no_ssr * 0.6, "{}: {cc6}", c.knobs.mitigation.label());
        }
    }
}

/// Beyond the paper (`scaling.hiss`): sssp alone does not saturate the
/// SSR service chain, so every added accelerator adds SSR traffic and
/// costs x264 more.
#[test]
fn more_gpus_mean_more_interference() {
    let rows: Vec<Row> = pack("scaling").into_iter().map(|(_, r)| r).collect();
    assert_eq!(rows.len(), 4);
    for w in rows.windows(2) {
        assert!(cpu_perf(&w[1]) < cpu_perf(&w[0]));
        assert!(w[1].report.ssr_rate > w[0].report.ssr_rate);
    }
    assert!(
        cpu_perf(&rows[2]) < cpu_perf(&rows[0]) - 0.02,
        "3 GPUs should hurt more than 1: {} vs {}",
        cpu_perf(&rows[2]),
        cpu_perf(&rows[0])
    );
    assert!(rows[2].report.ssr_rate > rows[0].report.ssr_rate * 1.5);
}

/// Beyond the paper (`coalesce_window.hiss`): a zero window sends one
/// interrupt per SSR, and every wider window batches more SSRs per
/// interrupt.
#[test]
fn window_sweep_batches_more_with_larger_windows() {
    let rows: Vec<Row> = pack("coalesce_window")
        .into_iter()
        .map(|(_, r)| r)
        .collect();
    let per_ssr: Vec<f64> = rows
        .iter()
        .map(|r| figures::interrupts_per_ssr(&r.report))
        .collect();
    assert!(per_ssr[0] > 0.99, "zero window batched: {per_ssr:?}");
    for w in per_ssr.windows(2) {
        assert!(w[1] < w[0], "wider windows should batch more: {per_ssr:?}");
    }
}

/// §V-C / Fig. 6f: the monolithic bottom half raises GPU throughput by
/// around 2× for the microbenchmark while *increasing* CPU overhead
/// (paper: +35% overhead for ubench).
#[test]
fn monolithic_trade_off() {
    let c = cfg();
    let mono = Mitigation {
        monolithic_bottom_half: true,
        ..Mitigation::DEFAULT
    };
    let base = ExperimentBuilder::new(c)
        .cpu_app("fluidanimate")
        .gpu_app_pinned("ubench")
        .run();
    let def = ExperimentBuilder::new(c)
        .cpu_app("fluidanimate")
        .gpu_app("ubench")
        .run();
    let m = ExperimentBuilder::new(c)
        .cpu_app("fluidanimate")
        .gpu_app("ubench")
        .mitigation(mono)
        .run();
    let gpu_gain = m.ssr_rate / def.ssr_rate;
    assert!(
        gpu_gain > 1.5,
        "monolithic ubench gain {gpu_gain} (paper: >2x)"
    );
    let cpu_def = def.cpu_perf_vs(&base).unwrap();
    let cpu_mono = m.cpu_perf_vs(&base).unwrap();
    assert!(
        cpu_mono < cpu_def,
        "monolithic should cost CPU performance: {cpu_mono} vs {cpu_def}"
    );
}

/// §V-B / Fig. 6d: coalescing raises ubench throughput (more requests per
/// interrupt before the stall) while helping or at least not hurting the
/// CPU.
#[test]
fn coalescing_trade_off() {
    let c = cfg();
    let coal = Mitigation {
        coalesce: true,
        ..Mitigation::DEFAULT
    };
    let def = ExperimentBuilder::new(c)
        .cpu_app("x264")
        .gpu_app("ubench")
        .run();
    let m = ExperimentBuilder::new(c)
        .cpu_app("x264")
        .gpu_app("ubench")
        .mitigation(coal)
        .run();
    assert!(
        m.ssr_rate > def.ssr_rate * 1.1,
        "coalescing ubench rate {} vs {}",
        m.ssr_rate,
        def.ssr_rate
    );
    assert!(
        m.kernel.mean_batch > 1.3,
        "batching {}",
        m.kernel.mean_batch
    );
    let base = ExperimentBuilder::new(c)
        .cpu_app("x264")
        .gpu_app_pinned("ubench")
        .run();
    assert!(m.cpu_perf_vs(&base).unwrap() >= def.cpu_perf_vs(&base).unwrap() - 0.02);
}

/// Fig. 12 rows for `cpu` against ubench, as `(qos_percent, row)`,
/// with the paper's ladder: governor off, `th_25`, `th_5`, `th_1`.
fn fig12_rows(cpu: &[&str]) -> Vec<(f64, Row)> {
    grid(cpu, &["ubench"], "[sweep]\nqos_percent = [0, 25, 5, 1]\n")
        .into_iter()
        .map(|(c, r)| (c.knobs.qos_percent, r))
        .collect()
}

/// §VI / Fig. 12: `th_1` caps the average CPU loss near the threshold
/// (paper: <4% from 28%) at the cost of collapsing accelerator
/// throughput (paper: to ~5% of unhindered).
#[test]
fn qos_threshold_sweep() {
    let rows = fig12_rows(&["x264", "fluidanimate", "swaptions"]);
    let avg = |pct: f64, f: fn(&Row) -> f64| {
        let v: Vec<f64> = rows
            .iter()
            .filter(|(p, _)| *p == pct)
            .map(|(_, r)| f(r))
            .collect();
        hiss_sim::mean(&v)
    };
    let cpu_def = avg(0.0, cpu_perf);
    let cpu_th1 = avg(1.0, cpu_perf);
    let gpu_def = avg(0.0, |r| r.gpu_perf);
    let gpu_th1 = avg(1.0, |r| r.gpu_perf);
    assert!(
        cpu_th1 > 0.90,
        "th_1 should cap CPU loss near 1-4% plus pollution residue: {cpu_th1}"
    );
    assert!(cpu_th1 > cpu_def + 0.05, "QoS must recover CPU perf");
    assert!(
        gpu_th1 < 0.25,
        "th_1 should collapse ubench throughput (paper: ~5%): {gpu_th1}"
    );
    assert!(gpu_th1 < gpu_def * 0.35);
    // The measured SSR overhead respects the configured ceiling loosely
    // ("the CPU performance loss can be slightly more than x% because our
    // driver enforces the limit periodically").
    for (_, r) in rows.iter().filter(|(p, _)| *p == 1.0) {
        assert!(
            r.report.cpu_ssr_overhead < 0.05,
            "{}: overhead {} far above th_1",
            r.cpu_app,
            r.report.cpu_ssr_overhead
        );
    }
}

/// Fig. 12 for x264: tighter thresholds trade GPU throughput for CPU
/// performance, monotonically across the ladder.
#[test]
fn tighter_thresholds_trade_gpu_for_cpu() {
    let rows = fig12_rows(&["x264"]);
    let get = |pct: f64| &rows.iter().find(|(p, _)| *p == pct).unwrap().1;
    let (default, th25, th5, th1) = (get(0.0), get(25.0), get(5.0), get(1.0));
    // th_1 must sharply improve CPU performance over default…
    assert!(
        cpu_perf(th1) > cpu_perf(default) + 0.05,
        "th_1 {} vs default {}",
        cpu_perf(th1),
        cpu_perf(default)
    );
    // …while collapsing ubench throughput (paper: to ~5%).
    assert!(
        th1.gpu_perf < default.gpu_perf * 0.4,
        "th_1 gpu {} vs default {}",
        th1.gpu_perf,
        default.gpu_perf
    );
    // Monotonicity across the sweep.
    assert!(th1.gpu_perf <= th5.gpu_perf + 0.02);
    assert!(th5.gpu_perf <= th25.gpu_perf + 0.02);
    let overhead = |r: &Row| r.report.cpu_ssr_overhead;
    assert!(overhead(th1) <= overhead(th5) + 0.01);
    assert!(overhead(th5) <= overhead(th25) + 0.01);
}

/// Fig. 6 ratios (treated vs the default cell of the same pairing) for
/// one technique over `cpu` × `gpu`, as `(cpu_app, gpu_app, cpu, gpu)`.
fn fig6_ratios(technique: &str, cpu: &[&str], gpu: &[&str]) -> Vec<(String, String, f64, f64)> {
    let sweep = format!("[sweep]\nmitigation = [\"default\", \"{technique}\"]\n");
    let pairs = grid(cpu, gpu, &sweep);
    // The sweep is the outermost axis: the first half is the default point.
    let (default, treated) = pairs.split_at(pairs.len() / 2);
    treated
        .iter()
        .zip(default)
        .map(|((c, t), (_, d))| {
            let (cpu_ratio, gpu_ratio) = ratio_vs_default(t, d);
            let cpu_ratio = cpu_ratio.expect("both runs finish the CPU application");
            (c.cpu_app.clone(), c.gpu_app.clone(), cpu_ratio, gpu_ratio)
        })
        .collect()
}

/// §V-C / Fig. 6e-f: with busy 4-thread apps the kthread wake + IPI
/// saving is on the critical path (idle-CPU runs are dominated by CC6
/// wake latency instead, which monolithic does not change).
#[test]
fn monolithic_helps_gpu_throughput() {
    for (cpu, gpu, _, gpu_ratio) in fig6_ratios("mono", &["fluidanimate"], &["sssp", "ubench"]) {
        assert!(
            gpu_ratio > 1.1,
            "{cpu}+{gpu}: monolithic should speed the GPU, got {gpu_ratio}"
        );
    }
}

/// §V-B / Fig. 6c-d: the paper sees up to a 50% slowdown for SSSP: its
/// blocking SSRs wait out the coalescing window.
#[test]
fn coalescing_slows_latency_bound_gpu_apps() {
    let rows = fig6_ratios("coalesce", &["blackscholes"], &["sssp"]);
    assert!(
        rows[0].3 < 0.95,
        "coalescing should hurt sssp, got {}",
        rows[0].3
    );
}

/// §V-A / Fig. 6a-b: with ubench inundating all cores by default,
/// steering moves the interrupts off three of the four cores; CPU
/// performance must not collapse (paper: steering *helps* under ubench).
#[test]
fn steering_concentrates_harm() {
    let rows = fig6_ratios("steer", &["x264"], &["ubench"]);
    assert!(
        rows[0].2 > 0.9,
        "steering under ubench should not hurt broadly, got {}",
        rows[0].2
    );
}

/// §V-D / Fig. 7: the default configuration is not Pareto optimal.
#[test]
fn subset_pareto_default_is_not_optimal() {
    let pairs = grid(
        &["x264", "raytrace"],
        &["ubench"],
        "[sweep]\nmitigation = [\"default\", \"coalesce\", \"coalesce+mono\"]\n",
    );
    let pts = figures::pareto_points(&pairs);
    assert_eq!(pts[0].mitigation, Mitigation::DEFAULT);
    assert!(
        !figures::pareto_frontier(&pts)[0],
        "default should be dominated: {:?}",
        pts.iter()
            .map(|p| (p.cpu_geomean, p.gpu_geomean))
            .collect::<Vec<_>>()
    );
}

/// §V-A observations: steering pins every interrupt to one core; with
/// GPU-only runs it lets the other cores sleep (Fig. 9: 12% → ~50%).
#[test]
fn steering_recovers_sleep() {
    let c = cfg();
    let steer = Mitigation {
        steer_single_core: true,
        ..Mitigation::DEFAULT
    };
    let def = ExperimentBuilder::new(c).gpu_app("ubench").run();
    let s = ExperimentBuilder::new(c)
        .gpu_app("ubench")
        .mitigation(steer)
        .run();
    assert!(
        s.cc6_residency > def.cc6_residency + 0.15,
        "steering should recover sleep: {} vs {}",
        s.cc6_residency,
        def.cc6_residency
    );
    assert_eq!(s.kernel.interrupts_per_core[1..].iter().sum::<u64>(), 0);
}

/// Normalised x264 performance under ubench with a recalibrated system
/// configuration (against the no-SSR pairing under the same one), plus
/// the ubench SSR rate.
fn x264_under_ubench(c: SystemConfig) -> (f64, f64) {
    let base = ExperimentBuilder::new(c)
        .cpu_app("x264")
        .gpu_app_pinned("ubench")
        .run();
    let run = ExperimentBuilder::new(c)
        .cpu_app("x264")
        .gpu_app("ubench")
        .run();
    (run.cpu_perf_vs(&base).unwrap(), run.ssr_rate)
}

/// Calibration ablation: disabling µarchitectural pollution recovers
/// noticeable CPU performance, yet the direct handler overheads still
/// interfere (Fig. 2's dark segments).
#[test]
fn pollution_is_a_major_interference_component() {
    let mut c = cfg();
    for p in [&mut c.cpu.cache_pollution, &mut c.cpu.branch_pollution] {
        // Kernel execution no longer cools the structures.
        p.kernel_decay_tau = Ns::from_secs(1);
        p.user_refill_tau = Ns::from_nanos(1);
    }
    let (without, _) = x264_under_ubench(c);
    let (with, _) = x264_under_ubench(cfg());
    assert!(
        without > with + 0.05,
        "disabling pollution should recover noticeable CPU perf: {without} vs {with}"
    );
    assert!(without < 0.99, "direct-only run shows no interference");
}

/// Calibration ablation: halving every handler-stage cost means less
/// interference and no less SSR throughput than doubling it.
#[test]
fn cheaper_handlers_mean_less_interference_more_throughput() {
    let scaled = |f: f64| {
        let mut c = cfg();
        let k = &mut c.costs;
        for stage in [
            &mut k.top_half_base,
            &mut k.top_half_per_req,
            &mut k.bottom_half_base,
            &mut k.bottom_half_per_req,
            &mut k.completion_notify,
        ] {
            *stage = stage.scale(f);
        }
        x264_under_ubench(c)
    };
    let (cheap, expensive) = (scaled(0.5), scaled(2.0));
    assert!(cheap.0 > expensive.0);
    assert!(cheap.1 >= expensive.1 * 0.95);
}

/// Calibration ablation: a more eager CC6 governor (smaller entry
/// threshold) does not sleep less in the GPU-only sssp run (Fig. 4's
/// mechanism).
#[test]
fn deeper_thresholds_trade_sleep_for_latency() {
    let residency = |us: u64| {
        let mut c = cfg();
        c.cpu.cstate.entry_threshold = Ns::from_micros(us);
        ExperimentBuilder::new(c)
            .gpu_app("sssp")
            .run()
            .cc6_residency
    };
    let (eager, lazy) = (residency(50), residency(1000));
    assert!(
        eager >= lazy,
        "eager CC6 entry should not sleep less: {eager} vs {lazy}"
    );
}
