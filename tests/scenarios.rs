//! Golden-scenario regression harness: every committed
//! `scenarios/*.hiss` file must parse, expand, run in quick mode, and
//! satisfy its own `[expect]` bands — so a behaviour change anywhere in
//! the simulator trips the band of whichever scenario observes it.
//!
//! The fig3 scenario is additionally pinned bit-for-bit against direct
//! [`ExperimentBuilder`] runs normalised by `RunReport`'s own ratio
//! methods, the Fig. 6 ratios `hiss-cli figures` derives from fig6.hiss
//! rows are pinned against the same methods, and the fig4, fig9,
//! section4c, scaling and coalesce_window packs are pinned against the
//! runners they replaced. Row encoding is pinned against a
//! field-by-field oracle.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use hiss::{ExperimentBuilder, Mitigation, SystemConfig};
use hiss_obs::json::escape;
use hiss_scenario::compile::{Datum, COLUMNS};
use hiss_scenario::figures::{self, ratio_vs_default, Section4c};
use hiss_scenario::{check, expand, load, output, run, Cell, Row, Scenario};

fn scenarios_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

fn committed_scenarios() -> Vec<PathBuf> {
    let files = hiss_scenario::list_files(&scenarios_dir()).expect("scenarios/ exists");
    assert!(
        files.len() >= 6,
        "expected the committed scenario library, found {files:?}"
    );
    files
}

/// Every committed scenario parses, and both its full and quick grids
/// are non-empty and well-formed.
#[test]
fn committed_scenarios_validate() {
    for path in committed_scenarios() {
        let sc = load(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        for quick in [false, true] {
            let cells = expand(&sc, quick);
            assert!(!cells.is_empty(), "{}: empty grid", path.display());
        }
        assert!(
            !sc.expects.is_empty(),
            "{}: committed scenarios must carry expect bands",
            path.display()
        );
    }
}

/// The harness proper: run every committed scenario in quick mode and
/// enforce its `[expect]` bands.
#[test]
fn committed_scenarios_hold_their_expect_bands() {
    for path in committed_scenarios() {
        let sc = load(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let rows = run(&sc, true);
        assert_eq!(rows.len(), expand(&sc, true).len(), "{}", path.display());
        let violations = check(&sc, &rows);
        assert!(
            violations.is_empty(),
            "{}:\n{}",
            path.display(),
            violations
                .iter()
                .map(|v| format!("  {v}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

/// A Fig. 3 cell computed directly: the default co-run against the
/// no-SSR pairing (CPU axis) and the GPU on idle CPUs (GPU axis: SSR
/// rate for ubench, work throughput otherwise).
fn fig3_oracle(cpu_app: &str, gpu_app: &str) -> (f64, f64) {
    let cfg = SystemConfig::a10_7850k();
    let noisy = ExperimentBuilder::new(cfg)
        .cpu_app(cpu_app)
        .gpu_app(gpu_app)
        .run();
    let base = ExperimentBuilder::new(cfg)
        .cpu_app(cpu_app)
        .gpu_app_pinned(gpu_app)
        .run();
    let idle = ExperimentBuilder::new(cfg).gpu_app(gpu_app).run();
    let gpu_perf = if gpu_app == "ubench" {
        noisy.ssr_rate_vs(&idle)
    } else {
        noisy.gpu_perf_vs(&idle)
    };
    (noisy.cpu_perf_vs(&base).unwrap(), gpu_perf)
}

/// fig3.hiss yields the GPU-major grid with every value bit-identical to
/// [`fig3_oracle`].
fn assert_fig3_is_bit_identical(quick: bool) {
    let sc = load(&scenarios_dir().join("fig3.hiss")).unwrap();
    let rows = run(&sc, quick);
    let cells: Vec<(&str, &str)> = sc
        .gpu_apps(quick)
        .iter()
        .flat_map(|g| {
            sc.cpu_apps(quick)
                .iter()
                .map(move |c| (c.as_str(), g.as_str()))
        })
        .collect();
    let oracle = hiss::run_jobs(cells.len(), |i| fig3_oracle(cells[i].0, cells[i].1));

    assert_eq!(rows.len(), cells.len());
    for ((r, (cpu, gpu)), (cpu_perf, gpu_perf)) in rows.iter().zip(&cells).zip(oracle) {
        assert_eq!((r.cpu_app.as_str(), r.gpu_app.as_str()), (*cpu, *gpu));
        assert_eq!(
            r.cpu_perf.expect("fig3 cells finish").to_bits(),
            cpu_perf.to_bits(),
            "{cpu}×{gpu} cpu_perf"
        );
        assert_eq!(
            r.gpu_perf.to_bits(),
            gpu_perf.to_bits(),
            "{cpu}×{gpu} gpu_perf"
        );
    }
}

/// The declarative fig3 scenario is the paper's Fig. 3 experiment:
/// identical grid order, bit-identical values (quick subsets).
#[test]
fn fig3_scenario_is_bit_identical_to_direct_runs() {
    assert_fig3_is_bit_identical(true);
}

/// Full 13 × 6 grid bit-identity — the acceptance criterion for
/// `hiss-cli scenario run scenarios/fig3.hiss`. Ignored by default
/// (runs the whole paper grid twice); `cargo test -- --ignored` covers
/// it.
#[test]
#[ignore = "full paper grid; run with --ignored"]
fn fig3_scenario_full_grid_is_bit_identical() {
    assert_fig3_is_bit_identical(false);
}

/// The Fig. 6 ratios rendered from fig6.hiss rows equal `RunReport`'s
/// ratios of the treated run against the default-configuration run,
/// bit-for-bit, on a ubench cell (SSR-rate ratio) and a full-application
/// cell (work-throughput ratio).
#[test]
fn fig6_ratios_from_rows_match_run_reports_bit_for_bit() {
    let sc = load(&scenarios_dir().join("fig6.hiss")).unwrap();
    let pairs = figures::run_pairs(&sc, true);
    let cfg = SystemConfig::a10_7850k();
    let mono = Mitigation {
        monolithic_bottom_half: true,
        ..Mitigation::DEFAULT
    };
    for gpu in ["ubench", "sssp"] {
        let row = |m: Mitigation| {
            &pairs
                .iter()
                .find(|(c, _)| c.knobs.mitigation == m && c.cpu_app == "x264" && c.gpu_app == gpu)
                .expect("x264 cells are in fig6.hiss's quick grid")
                .1
        };
        let (cpu_ratio, gpu_ratio) = ratio_vs_default(row(mono), row(Mitigation::DEFAULT));

        let default = ExperimentBuilder::new(cfg)
            .cpu_app("x264")
            .gpu_app(gpu)
            .run();
        let treated = ExperimentBuilder::new(cfg)
            .cpu_app("x264")
            .gpu_app(gpu)
            .mitigation(mono)
            .run();
        let expected_gpu = if gpu == "ubench" {
            treated.ssr_rate_vs(&default)
        } else {
            treated.gpu_perf_vs(&default)
        };
        assert_eq!(
            cpu_ratio.unwrap().to_bits(),
            treated.cpu_perf_vs(&default).unwrap().to_bits(),
            "x264×{gpu} CPU ratio"
        );
        assert_eq!(
            gpu_ratio.to_bits(),
            expected_gpu.to_bits(),
            "x264×{gpu} GPU ratio"
        );
    }
}

/// A committed pack's quick grid, each row paired with its cell.
fn committed_pairs(name: &str) -> Vec<(Cell, Row)> {
    let sc = load(&scenarios_dir().join(format!("{name}.hiss"))).unwrap();
    figures::run_pairs(&sc, true)
}

/// Fig. 4 as its runner computed it, per GPU application: CC6
/// residency of the pinned GPU alone (`no_SSR`) and of the SSR-raising
/// GPU alone (`gpu_SSR`).
fn fig4_oracle(gpu_app: &str) -> (f64, f64) {
    let cfg = SystemConfig::a10_7850k();
    let quiet = ExperimentBuilder::new(cfg).gpu_app_pinned(gpu_app).run();
    let noisy = ExperimentBuilder::new(cfg).gpu_app(gpu_app).run();
    (quiet.cc6_residency, noisy.cc6_residency)
}

/// Fig. 9 as its runner computed it: the pinned ubench's residency,
/// then ubench alone under each combination in legend order.
fn fig9_oracle() -> Vec<f64> {
    let cfg = SystemConfig::a10_7850k();
    let combos = Mitigation::all_combinations();
    hiss::run_jobs(combos.len() + 1, |i| {
        let b = ExperimentBuilder::new(cfg);
        match i {
            0 => b.gpu_app_pinned("ubench"),
            _ => b.gpu_app("ubench").mitigation(combos[i - 1]),
        }
        .run()
        .cc6_residency
    })
}

/// §IV-C as its runner computed it: blackscholes against ubench with
/// and without SSRs, and the mean interrupts-per-SSR reduction that
/// coalescing gives over the GPU suite.
fn section4c_oracle() -> Section4c {
    let cfg = SystemConfig::a10_7850k();
    let corun = |gpu_app: &str, m: Mitigation| {
        ExperimentBuilder::new(cfg)
            .cpu_app("blackscholes")
            .gpu_app(gpu_app)
            .mitigation(m)
            .run()
    };
    let coalesce = Mitigation {
        coalesce: true,
        ..Mitigation::DEFAULT
    };
    let with_ssrs = corun("ubench", Mitigation::DEFAULT);
    let without_ssrs = ExperimentBuilder::new(cfg)
        .cpu_app("blackscholes")
        .gpu_app_pinned("ubench")
        .run();
    let rate = |r: &hiss::RunReport| {
        let p: u64 = r.kernel.interrupts_per_core.iter().sum();
        p as f64 / r.kernel.ssrs_serviced.max(1) as f64
    };
    let reductions: Vec<f64> = hiss::par_map(&hiss::gpu_suite(), |app| {
        let (plain, coal) = (
            corun(app.name, Mitigation::DEFAULT),
            corun(app.name, coalesce),
        );
        (rate(&plain) > 0.0).then(|| 1.0 - rate(&coal) / rate(&plain))
    })
    .into_iter()
    .flatten()
    .collect();
    let counts = with_ssrs.kernel.interrupts_per_core.clone();
    let max = *counts.iter().max().unwrap() as f64;
    let min = *counts.iter().min().unwrap() as f64;
    Section4c {
        interrupt_imbalance: max / min,
        interrupts_per_core: counts,
        ipis_with_ssrs: with_ssrs.kernel.ipis,
        ipis_without_ssrs: without_ssrs.kernel.ipis,
        coalescing_reduction: hiss_sim::mean(&reductions),
    }
}

/// The scaling runner: x264 against 1..=4 copies of sssp, as
/// `(cpu_perf vs the single pinned sssp, CC6 residency, SSR rate)`.
fn scaling_oracle() -> Vec<(f64, f64, f64)> {
    let cfg = SystemConfig::a10_7850k();
    let base = ExperimentBuilder::new(cfg)
        .cpu_app("x264")
        .gpu_app_pinned("sssp")
        .run();
    hiss::run_jobs(4, |i| {
        let mut b = ExperimentBuilder::new(cfg).cpu_app("x264");
        for _ in 0..=i {
            b = b.gpu_app("sssp");
        }
        let run = b.run();
        (
            run.cpu_perf_vs(&base).unwrap(),
            run.cc6_residency,
            run.ssr_rate,
        )
    })
}

/// The window-sweep runner: x264 against ubench with coalescing off at
/// 0 µs and on at every wider window, as `(cpu_perf, SSR rate relative
/// to the 0 µs run, interrupts per SSR)`.
fn window_oracle(windows_us: &[u64]) -> Vec<(f64, f64, f64)> {
    let cfg = SystemConfig::a10_7850k();
    let base = ExperimentBuilder::new(cfg)
        .cpu_app("x264")
        .gpu_app_pinned("ubench")
        .run();
    let runs = hiss::par_map(windows_us, |&us| {
        let mut c = cfg;
        c.coalesce_window = hiss::Ns::from_micros(us);
        ExperimentBuilder::new(c)
            .cpu_app("x264")
            .gpu_app("ubench")
            .mitigation(Mitigation {
                coalesce: us > 0,
                ..Mitigation::DEFAULT
            })
            .run()
    });
    runs.iter()
        .map(|run| {
            let interrupts: u64 = run.kernel.interrupts_per_core.iter().sum();
            (
                run.cpu_perf_vs(&base).unwrap(),
                run.ssr_rate / runs[0].ssr_rate,
                interrupts as f64 / run.kernel.ssrs_serviced.max(1) as f64,
            )
        })
        .collect()
}

/// Figs. 4 and 9, §IV-C and the scaling and window extensions, rendered
/// from their packs, are bit-equal to the runners they replaced (kept
/// above as direct [`ExperimentBuilder`] oracles): both Fig. 4 columns,
/// all nine Fig. 9 bars, every §IV-C field and every extension value.
#[test]
fn idle_and_extension_packs_are_bit_identical_to_their_runners() {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

    let fig4 = committed_pairs("fig4");
    for (c, r) in &fig4 {
        let (quiet, noisy) = fig4_oracle(&c.gpu_app);
        assert_eq!(
            bits(&[r.baseline.cc6_residency, r.report.cc6_residency]),
            bits(&[quiet, noisy]),
            "fig4 {}",
            c.gpu_app
        );
    }
    assert_eq!(fig4.len(), 3);

    let fig9 = committed_pairs("fig9");
    let mut bars = vec![fig9[0].1.baseline.cc6_residency];
    bars.extend(fig9.iter().map(|(_, r)| r.report.cc6_residency));
    assert_eq!(bits(&bars), bits(&fig9_oracle()), "fig9 bars");

    let s4c = figures::section4c(&committed_pairs("section4c")).unwrap();
    let oracle = section4c_oracle();
    assert_eq!(s4c, oracle);
    assert_eq!(
        bits(&[s4c.interrupt_imbalance, s4c.coalescing_reduction]),
        bits(&[oracle.interrupt_imbalance, oracle.coalescing_reduction])
    );

    let scaling: Vec<(f64, f64, f64)> = committed_pairs("scaling")
        .iter()
        .map(|(_, r)| {
            (
                r.cpu_perf.unwrap(),
                r.report.cc6_residency,
                r.report.ssr_rate,
            )
        })
        .collect();
    let flat =
        |v: &[(f64, f64, f64)]| bits(&v.iter().flat_map(|t| [t.0, t.1, t.2]).collect::<Vec<_>>());
    assert_eq!(flat(&scaling), flat(&scaling_oracle()), "scaling rows");

    let window = committed_pairs("coalesce_window");
    let windows: Vec<u64> = window
        .iter()
        .map(|(c, _)| c.knobs.cfg.coalesce_window.as_nanos() / 1_000)
        .collect();
    assert_eq!(windows, [0, 2, 5, 9, 13]);
    let rows: Vec<(f64, f64, f64)> = window
        .iter()
        .map(|(_, r)| {
            (
                r.cpu_perf.unwrap(),
                r.report.ssr_rate / window[0].1.report.ssr_rate,
                figures::interrupts_per_ssr(&r.report),
            )
        })
        .collect();
    assert_eq!(flat(&rows), flat(&window_oracle(&windows)), "window rows");
}

/// JSON-lines output of a real batch re-parses to the same floats
/// (shortest-round-trip formatting is part of the bit-identity story).
#[test]
fn jsonl_round_trips_real_rows() {
    let sc = Scenario::from_str(
        r#"
[scenario]
name = "roundtrip"
[workload]
cpu = ["raytrace"]
gpu = ["sssp", "ubench"]
"#,
    )
    .unwrap();
    let rows = run(&sc, false);
    let jsonl = output::to_jsonl(&rows);
    for (line, row) in jsonl.lines().zip(&rows) {
        // Extract the gpu_perf field textually and re-parse.
        let field = line
            .split("\"gpu_perf\":")
            .nth(1)
            .and_then(|rest| rest.split(',').next())
            .unwrap();
        let reparsed: f64 = field.parse().unwrap();
        assert_eq!(reparsed.to_bits(), row.gpu_perf.to_bits(), "{line}");
    }
}

fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// The field-by-field encoder the column table replaced, reading
/// every value with the expression the row builder used to copy it
/// into its own field.
fn oracle_row_json(row: &Row) -> String {
    let run = &row.report;
    let counter = |name: &str| run.metrics.counter_value(name).unwrap_or(0);
    let mut out = String::with_capacity(256);
    out.push('{');
    let _ = write!(out, "\"cpu_app\":\"{}\"", escape(&row.cpu_app));
    let _ = write!(out, ",\"gpu_app\":\"{}\"", escape(&row.gpu_app));
    for (key, value) in &row.axes {
        let _ = write!(out, ",\"axis_{}\":\"{}\"", escape(key), escape(value));
    }
    let _ = write!(out, ",\"replica\":{}", row.replica);
    let cpu_perf = row
        .cpu_perf
        .map(json_f64)
        .unwrap_or_else(|| "null".to_string());
    let _ = write!(out, ",\"cpu_perf\":{cpu_perf}");
    let _ = write!(out, ",\"gpu_perf\":{}", json_f64(row.gpu_perf));
    let runtime = run
        .cpu_app_runtime
        .map(|t| t.as_nanos().to_string())
        .unwrap_or_else(|| "null".to_string());
    let _ = write!(out, ",\"cpu_runtime_ns\":{runtime}");
    let _ = write!(out, ",\"gpu_throughput\":{}", json_f64(run.gpu_throughput));
    let _ = write!(out, ",\"ssr_rate\":{}", json_f64(run.ssr_rate));
    let _ = write!(out, ",\"ssrs_serviced\":{}", run.kernel.ssrs_serviced);
    let _ = write!(
        out,
        ",\"mean_ssr_latency_us\":{}",
        json_f64(run.kernel.mean_ssr_latency.as_micros_f64())
    );
    let _ = write!(
        out,
        ",\"p99_ssr_latency_us\":{}",
        json_f64(run.kernel.p99_ssr_latency.as_micros_f64())
    );
    let _ = write!(out, ",\"cc6_residency\":{}", json_f64(run.cc6_residency));
    let _ = write!(out, ",\"ssr_overhead\":{}", json_f64(run.cpu_ssr_overhead));
    let _ = write!(out, ",\"ipis\":{}", run.kernel.ipis);
    let _ = write!(out, ",\"qos_deferrals\":{}", run.kernel.qos_deferrals);
    let _ = write!(
        out,
        ",\"aux_ssrs_raised\":{}",
        counter("run.aux_ssrs_raised")
    );
    let critical_p99 = run
        .metrics
        .gauge_value("qos.class0.p99_latency_us")
        .unwrap_or(0.0);
    let _ = write!(
        out,
        ",\"critical_p99_latency_us\":{}",
        json_f64(critical_p99)
    );
    let _ = write!(out, ",\"events_pushed\":{}", counter("run.events_pushed"));
    let _ = write!(out, ",\"events_popped\":{}", counter("run.events_popped"));
    out.push('}');
    out
}

/// The table-driven encoder is byte-equal to the oracle on real
/// cells that between them give every column a non-trivial value.
#[test]
fn table_driven_rows_match_the_field_by_field_oracle() {
    let pack = |cpu: &str, extra: &str| {
        let text = format!(
            "[scenario]\nname = \"t\"\n[workload]\ncpu = [\"{cpu}\"]\n\
             gpu = [\"ubench\"]\n{extra}"
        );
        run(&Scenario::from_str(&text).unwrap(), false).remove(0)
    };
    let cells = [
        ("default", pack("x264", "")),
        ("qos", pack("x264", "[mitigation]\nqos_percent = 1\n")),
        (
            "topology",
            pack(
                "x264",
                "[topology]\ndevices = [\"gpu\", \"nic\", \"dma\"]\n",
            ),
        ),
        (
            "criticality",
            pack(
                "raytrace",
                "[criticality]\ncritical = [\"raytrace\"]\ncritical_devices = [0]\n",
            ),
        ),
        ("capped", pack("x264", "[system]\nmax_sim_time_ms = 1\n")),
    ];
    for (name, row) in &cells {
        assert_eq!(output::row_json(row), oracle_row_json(row), "{name} cell");
    }
    let value = |i: usize, key: &str| {
        let column = COLUMNS.iter().find(|c| c.key == key).unwrap();
        (column.read)(&cells[i].1)
    };
    assert!(value(0, "ipis").as_f64() > Some(0.0));
    assert!(value(1, "qos_deferrals").as_f64() > Some(0.0));
    assert!(value(2, "aux_ssrs_raised").as_f64() > Some(0.0));
    assert!(value(3, "critical_p99_latency_us").as_f64() > Some(0.0));
    assert_eq!(value(4, "cpu_perf"), Datum::Null);
    assert_eq!(value(4, "cpu_runtime_ns"), Datum::Null);
}
