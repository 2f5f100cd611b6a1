//! Golden-scenario regression harness: every committed
//! `scenarios/*.hiss` file must parse, expand, run in quick mode, and
//! satisfy its own `[expect]` bands — so a behaviour change anywhere in
//! the simulator trips the band of whichever scenario observes it.
//!
//! The fig3 scenario is additionally pinned bit-for-bit against direct
//! [`ExperimentBuilder`] runs normalised by `RunReport`'s own ratio
//! methods, and the Fig. 6 ratios `hiss-cli figures` derives from
//! fig6.hiss rows are pinned against the same methods.

use std::path::{Path, PathBuf};

use hiss::{ExperimentBuilder, Mitigation, SystemConfig};
use hiss_scenario::figures::{self, ratio_vs_default};
use hiss_scenario::{check, expand, load, output, run, Scenario};

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
