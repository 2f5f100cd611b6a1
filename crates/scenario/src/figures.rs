//! Row → paper-layout renderers for the figures `.hiss` packs express:
//! Figs. 3a/3b and 5a/5b (`fig3.hiss`), Fig. 4 (`fig4.hiss`), §IV-C
//! (`section4c.hiss`), Fig. 6 (`fig6.hiss`), Figs. 7/8 (`pareto.hiss`,
//! `fig8.hiss`), Fig. 9 (`fig9.hiss`) and Fig. 12 (`fig12.hiss`), plus
//! the multi-GPU scaling (`scaling.hiss`) and coalescing-window
//! (`coalesce_window.hiss`) extensions.
//!
//! The renderers only rearrange and fold the values a pack run already
//! computed, so every figure agrees bit-for-bit with the rows (and the
//! JSON-lines output) it comes from. A row's no-SSR run
//! ([`Row::baseline`]) is part of what a pack computes, so Figs. 4 and 9
//! read their `no_SSR` bars from it. Renderers that need a cell's typed
//! knobs (its mitigation combination, QoS threshold, GPU count or
//! coalescing window) take the `(Cell, Row)` pairs [`run_pairs`]
//! returns. `hiss-cli figures` is the front door that runs the packs and
//! prints every artifact.

use hiss::experiments::render_table;
use hiss::{Mitigation, RunReport};

use crate::compile::{expand, gpu_perf_vs, run, Cell, Row};
use crate::spec::Scenario;

/// Runs a pack and pairs every result row with the cell it came from.
pub fn run_pairs(sc: &Scenario, quick: bool) -> Vec<(Cell, Row)> {
    expand(sc, quick).into_iter().zip(run(sc, quick)).collect()
}

/// A three-decimal figure value, `-` when absent.
fn cell3(value: Option<f64>) -> String {
    value.map_or_else(|| "-".into(), |v| format!("{v:.3}"))
}

/// A fraction as a one-decimal percentage.
fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// SSR interrupts per serviced SSR (1.0 = no batching).
pub fn interrupts_per_ssr(run: &RunReport) -> f64 {
    let interrupts = run.counter("kernel.interrupts.total");
    interrupts as f64 / run.counter("kernel.ssrs_serviced").max(1) as f64
}

/// The row of `cell`'s pairing (CPU app, GPU app, replica) under
/// mitigation `m`.
fn twin<'a>(pairs: &'a [(Cell, Row)], cell: &Cell, m: Mitigation) -> Option<&'a Row> {
    let key = (&cell.cpu_app, &cell.gpu_app, cell.replica);
    pairs
        .iter()
        .find(|(c, _)| c.knobs.mitigation == m && (&c.cpu_app, &c.gpu_app, c.replica) == key)
        .map(|(_, r)| r)
}

/// The distinct CPU applications of `rows`, in first-appearance order.
fn cpu_apps<'a>(rows: impl Iterator<Item = &'a Row>) -> Vec<&'a str> {
    let mut apps: Vec<&str> = Vec::new();
    for r in rows {
        if !apps.contains(&r.cpu_app.as_str()) {
            apps.push(&r.cpu_app);
        }
    }
    apps
}

/// Renders a Fig. 3 grid in the paper's layout: one line per CPU
/// application (in pack order), one column per GPU application (sorted
/// by name). `-` marks a missing cell or a `None` metric.
pub fn fig3_grid(rows: &[Row], metric: impl Fn(&Row) -> Option<f64>) -> String {
    let cpu = cpu_apps(rows.iter());
    let mut gpu: Vec<&str> = rows.iter().map(|r| r.gpu_app.as_str()).collect();
    gpu.sort_unstable();
    gpu.dedup();
    let mut header = vec!["CPU app"];
    header.extend(&gpu);
    let data: Vec<Vec<String>> = cpu
        .iter()
        .map(|c| {
            let mut line = vec![c.to_string()];
            line.extend(gpu.iter().map(|g| {
                cell3(
                    rows.iter()
                        .find(|r| r.cpu_app == *c && r.gpu_app == *g)
                        .and_then(&metric),
                )
            }));
            line
        })
        .collect();
    render_table(&header, &data)
}

/// The headline numbers §IV-A quotes from the Fig. 3 grid.
#[derive(Debug, Clone, Copy)]
pub struct Fig3Summary {
    /// Worst CPU performance under a full GPU application (paper: 0.69,
    /// fluidanimate with SSSP).
    pub worst_cpu_full_apps: f64,
    /// Mean CPU performance across the full-application cells.
    pub mean_cpu_full_apps: f64,
    /// Worst CPU performance under ubench (paper: 0.56, x264).
    pub worst_cpu_ubench: f64,
    /// Mean CPU performance under ubench (paper: 0.72).
    pub mean_cpu_ubench: f64,
    /// Worst GPU performance under CPU interference (paper: 0.82, SSSP
    /// with streamcluster).
    pub worst_gpu: f64,
    /// Mean GPU performance across the grid (paper: 0.96).
    pub mean_gpu: f64,
}

/// Reduces Fig. 3 rows to [`Fig3Summary`]. Cells whose CPU application
/// did not finish have no `cpu_perf` and are left out of the CPU terms.
pub fn fig3_summary(rows: &[Row]) -> Fig3Summary {
    let cpu = |ubench: bool| -> Vec<f64> {
        rows.iter()
            .filter(|r| (r.gpu_app == "ubench") == ubench)
            .filter_map(|r| r.cpu_perf)
            .collect()
    };
    let (full, ubench) = (cpu(false), cpu(true));
    let gpu: Vec<f64> = rows.iter().map(|r| r.gpu_perf).collect();
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    Fig3Summary {
        worst_cpu_full_apps: min(&full),
        mean_cpu_full_apps: hiss_sim::mean(&full),
        worst_cpu_ubench: min(&ubench),
        mean_cpu_ubench: hiss_sim::mean(&ubench),
        worst_gpu: min(&gpu),
        mean_gpu: hiss_sim::mean(&gpu),
    }
}

/// Calibrated cold-miss conversion constant: the fraction of a fully
/// cold application's accesses that miss again while re-warming (one
/// constant for the whole suite).
const K_CACHE: f64 = 0.022;
/// Branch-predictor analogue of [`K_CACHE`].
const K_BRANCH: f64 = 0.024;

/// Fig. 5a/5b for one row: how much the co-run's SSRs raise the CPU
/// application's L1D miss rate and branch misprediction rate, relative
/// to its native rates (0.25 = 25 % more misses).
///
/// The paper reads hardware counters; the simulator's observable is
/// time-averaged structure coldness (see `hiss-mem`), mapped to a rate
/// increase by the first-order model that drives the IPC penalty:
///
/// ```text
/// extra_miss_rate   = coldness × sensitivity × K
/// relative increase = extra_miss_rate / native_miss_rate
/// ```
pub fn pollution(row: &Row) -> (f64, f64) {
    let spec = hiss_workloads::CpuAppSpec::by_name(&row.cpu_app)
        .expect("workload names were validated at parse time");
    let run = &row.report;
    let l1d = run.gauge("run.avg_cache_coldness") * spec.cache_sensitivity * K_CACHE
        / spec.base_l1d_miss_rate;
    let branch = run.gauge("run.avg_branch_coldness") * spec.branch_sensitivity * K_BRANCH
        / spec.base_branch_miss_rate;
    (l1d, branch)
}

/// Renders Fig. 5 from the ubench column of Fig. 3 rows: one line per
/// CPU application, in row order, with both panels' [`pollution`].
pub fn render_fig5(rows: &[Row]) -> String {
    let data: Vec<Vec<String>> = rows
        .iter()
        .filter(|r| r.gpu_app == "ubench")
        .map(|r| {
            let (l1d, branch) = pollution(r);
            vec![r.cpu_app.clone(), pct(l1d), pct(branch)]
        })
        .collect();
    render_table(
        &["CPU app", "L1D miss increase", "branch mispredict increase"],
        &data,
    )
}

/// Renders Fig. 4 from an idle-CPU pack: one line per GPU application,
/// its CC6 residency with SSRs disabled (the row's pinned baseline) and
/// enabled (the row's run), and the percentage points lost.
pub fn render_fig4(rows: &[Row]) -> String {
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let (quiet, noisy) = (
                r.baseline.gauge("run.cc6_residency"),
                r.report.gauge("run.cc6_residency"),
            );
            vec![
                r.gpu_app.clone(),
                pct(quiet),
                pct(noisy),
                format!("{:.1}", (quiet - noisy) * 100.0),
            ]
        })
        .collect();
    render_table(&["GPU app", "no_SSR", "gpu_SSR", "lost (pts)"], &data)
}

/// The §IV-C measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct Section4c {
    /// Per-core SSR interrupt counts of the default ubench cell.
    pub interrupts_per_core: Vec<u64>,
    /// max/min per-core interrupt ratio (≈1.0 = evenly spread).
    pub interrupt_imbalance: f64,
    /// IPIs with ubench generating SSRs.
    pub ipis_with_ssrs: u64,
    /// IPIs with ubench running but generating no SSRs (the cell's
    /// pinned baseline).
    pub ipis_without_ssrs: u64,
    /// Mean reduction of [`interrupts_per_ssr`] from coalescing, over
    /// every default cell with a coalescing twin (0.16 = 16 % fewer).
    pub coalescing_reduction: f64,
}

/// Folds a pack sweeping `mitigation` over `"default"` and `"coalesce"`
/// into the §IV-C measurements: interrupt spread and IPIs from its
/// default ubench cell, the coalescing reduction averaged over its
/// default cells in grid order. `None` without a default ubench cell.
pub fn section4c(pairs: &[(Cell, Row)]) -> Option<Section4c> {
    let coalesce = Mitigation {
        coalesce: true,
        ..Mitigation::DEFAULT
    };
    let reductions: Vec<f64> = pairs
        .iter()
        .filter(|(c, _)| c.knobs.mitigation == Mitigation::DEFAULT)
        .filter_map(|(c, plain)| {
            let coal = twin(pairs, c, coalesce)?;
            let p_rate = interrupts_per_ssr(&plain.report);
            (p_rate > 0.0).then(|| 1.0 - interrupts_per_ssr(&coal.report) / p_rate)
        })
        .collect();
    let (_, ubench) = pairs
        .iter()
        .find(|(c, _)| c.gpu_app == "ubench" && c.knobs.mitigation == Mitigation::DEFAULT)?;
    let counts = ubench.report.interrupts_per_core();
    let max = counts.iter().max().copied().unwrap_or(0) as f64;
    let min = counts.iter().min().copied().unwrap_or(0) as f64;
    Some(Section4c {
        interrupt_imbalance: if min > 0.0 { max / min } else { f64::INFINITY },
        interrupts_per_core: counts,
        ipis_with_ssrs: ubench.report.counter("kernel.ipis"),
        ipis_without_ssrs: ubench.baseline.counter("kernel.ipis"),
        coalescing_reduction: hiss_sim::mean(&reductions),
    })
}

/// Renders the §IV-C findings. With no IPIs at all in the no-SSR run
/// the inflation is shown against the paper's 477×.
pub fn render_section4c(s: &Section4c) -> String {
    let inflation = if s.ipis_without_ssrs == 0 {
        ">> 477x (baseline has none)".to_string()
    } else {
        format!(
            "{:.0}x",
            s.ipis_with_ssrs as f64 / s.ipis_without_ssrs as f64
        )
    };
    let rows: Vec<Vec<String>> = [
        (
            "interrupts per core",
            format!("{:?}", s.interrupts_per_core),
        ),
        (
            "interrupt imbalance (max/min)",
            format!("{:.2}", s.interrupt_imbalance),
        ),
        ("IPIs with SSRs", s.ipis_with_ssrs.to_string()),
        ("IPIs without SSRs", s.ipis_without_ssrs.to_string()),
        ("IPI inflation", inflation),
        (
            "coalescing interrupt reduction",
            pct(s.coalescing_reduction),
        ),
    ]
    .into_iter()
    .map(|(measurement, value)| vec![measurement.to_string(), value])
    .collect();
    render_table(&["Measurement", "Value"], &rows)
}

/// Fig. 6 ratios of `treated` against `default`, the same pairing under
/// the default configuration: the CPU runtime ratio (`None` unless both
/// CPU applications finished) and the GPU ratio ([`gpu_perf_vs`]).
pub fn ratio_vs_default(treated: &Row, default: &Row) -> (Option<f64>, f64) {
    let (mine, base) = (&treated.report, &default.report);
    (
        mine.cpu_perf_vs(base),
        gpu_perf_vs(&treated.gpu_app, mine, base),
    )
}

/// Renders Fig. 6 from a pack sweeping `mitigation` over `"default"`
/// and single techniques: one `(legend label, table)` panel pair per
/// non-default combination, in sweep order, each cell's ratios taken
/// against the default cell of the same pairing ([`ratio_vs_default`]).
pub fn fig6_panels(pairs: &[(Cell, Row)]) -> Vec<(String, String)> {
    let mut techniques: Vec<Mitigation> = Vec::new();
    for (c, _) in pairs {
        let m = c.knobs.mitigation;
        if m != Mitigation::DEFAULT && !techniques.contains(&m) {
            techniques.push(m);
        }
    }
    techniques
        .into_iter()
        .map(|m| {
            let data: Vec<Vec<String>> = pairs
                .iter()
                .filter(|(c, _)| c.knobs.mitigation == m)
                .map(|(c, treated)| {
                    let ratios =
                        twin(pairs, c, Mitigation::DEFAULT).map(|d| ratio_vs_default(treated, d));
                    vec![
                        m.label(),
                        c.cpu_app.clone(),
                        c.gpu_app.clone(),
                        cell3(ratios.and_then(|r| r.0)),
                        cell3(ratios.map(|r| r.1)),
                    ]
                })
                .collect();
            let table = render_table(
                &["technique", "CPU app", "GPU app", "CPU ratio", "GPU ratio"],
                &data,
            );
            (m.label(), table)
        })
        .collect()
}

/// One point of a Figs. 7/8 Pareto chart.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParetoPoint {
    /// The mitigation combination.
    pub mitigation: Mitigation,
    /// Geometric mean of the combination's normalised CPU performance
    /// (x-axis, right is better).
    pub cpu_geomean: f64,
    /// Geometric mean of its normalised GPU performance (y-axis, up is
    /// better).
    pub gpu_geomean: f64,
}

impl ParetoPoint {
    /// `true` if `other` is at least as good on both axes and strictly
    /// better on one.
    pub fn dominated_by(&self, other: &ParetoPoint) -> bool {
        other.cpu_geomean >= self.cpu_geomean
            && other.gpu_geomean >= self.gpu_geomean
            && (other.cpu_geomean > self.cpu_geomean || other.gpu_geomean > self.gpu_geomean)
    }
}

/// Folds a `mitigation` sweep into one point per swept combination, in
/// [`Mitigation::all_combinations`] order (the paper's legend order,
/// whatever the sweep order). Each geomean runs over the combination's
/// rows in grid order; cells whose CPU application did not finish are
/// left out of the CPU geomean.
pub fn pareto_points(pairs: &[(Cell, Row)]) -> Vec<ParetoPoint> {
    Mitigation::all_combinations()
        .into_iter()
        .filter_map(|m| {
            let rows: Vec<&Row> = pairs
                .iter()
                .filter(|(c, _)| c.knobs.mitigation == m)
                .map(|(_, r)| r)
                .collect();
            if rows.is_empty() {
                return None;
            }
            let cpu: Vec<f64> = rows.iter().filter_map(|r| r.cpu_perf).collect();
            let gpu: Vec<f64> = rows.iter().map(|r| r.gpu_perf).collect();
            Some(ParetoPoint {
                mitigation: m,
                cpu_geomean: hiss_sim::geomean(&cpu),
                gpu_geomean: hiss_sim::geomean(&gpu),
            })
        })
        .collect()
}

/// Marks the Pareto-optimal subset of `points`.
pub fn pareto_frontier(points: &[ParetoPoint]) -> Vec<bool> {
    points
        .iter()
        .map(|p| !points.iter().any(|q| p.dominated_by(q)))
        .collect()
}

/// Renders a Pareto chart as a table, flagging frontier points.
pub fn render_pareto(points: &[ParetoPoint]) -> String {
    let data: Vec<Vec<String>> = points
        .iter()
        .zip(pareto_frontier(points))
        .map(|(p, on)| {
            vec![
                p.mitigation.label(),
                format!("{:.3}", p.cpu_geomean),
                format!("{:.3}", p.gpu_geomean),
                if on { "pareto".into() } else { String::new() },
            ]
        })
        .collect();
    render_table(&["combination", "CPU geomean", "GPU geomean", ""], &data)
}

/// Renders Fig. 9 from an idle-CPU `mitigation` sweep: the no-SSR bar
/// (the first row's pinned baseline), then one CC6 residency bar per
/// combination, in sweep order.
pub fn render_fig9(pairs: &[(Cell, Row)]) -> String {
    let no_ssr = pairs.first().map(|(c, r)| {
        vec![
            format!("{}_no_SSR", c.gpu_app),
            pct(r.baseline.gauge("run.cc6_residency")),
        ]
    });
    let data: Vec<Vec<String>> = no_ssr
        .into_iter()
        .chain(pairs.iter().map(|(c, r)| {
            vec![
                c.knobs.mitigation.label(),
                pct(r.report.gauge("run.cc6_residency")),
            ]
        }))
        .collect();
    render_table(&["configuration", "CC6 residency"], &data)
}

/// Renders Fig. 12 from a `qos_percent` sweep against ubench: one line
/// per (CPU application, threshold), CPU-major, thresholds in sweep
/// order. `0` is the governor-off `default` bar and `x` is `th_x`.
pub fn render_fig12(pairs: &[(Cell, Row)]) -> String {
    let data: Vec<Vec<String>> = cpu_apps(pairs.iter().map(|(_, r)| r))
        .into_iter()
        .flat_map(|cpu| pairs.iter().filter(move |(c, _)| c.cpu_app == cpu))
        .map(|(c, r)| {
            let qos = c.knobs.qos_percent;
            let throttle = if qos == 0.0 {
                "default".to_string()
            } else {
                format!("th_{qos}")
            };
            vec![
                c.cpu_app.clone(),
                throttle,
                cell3(r.cpu_perf),
                format!("{:.3}", r.gpu_perf),
                pct(r.report.gauge("run.cpu_ssr_overhead")),
            ]
        })
        .collect();
    render_table(
        &[
            "CPU app",
            "throttle",
            "CPU perf",
            "ubench perf",
            "SSR overhead",
        ],
        &data,
    )
}

/// Renders a `gpus` sweep (the multi-accelerator extension): one line
/// per copy count with the CPU performance, CC6 residency and aggregate
/// SSR rate.
pub fn render_scaling(pairs: &[(Cell, Row)]) -> String {
    let data: Vec<Vec<String>> = pairs
        .iter()
        .map(|(c, r)| {
            vec![
                c.knobs.gpus.to_string(),
                cell3(r.cpu_perf),
                pct(r.report.gauge("run.cc6_residency")),
                format!("{:.0}", r.report.gauge("run.ssr_rate")),
            ]
        })
        .collect();
    render_table(&["GPUs", "CPU perf", "CC6", "SSR/s"], &data)
}

/// Renders a `coalesce_window_us` sweep, one line per window: the CPU
/// performance, the SSR rate relative to the first window's, and
/// [`interrupts_per_ssr`].
pub fn render_window_sweep(pairs: &[(Cell, Row)]) -> String {
    let first = pairs
        .first()
        .map_or(0.0, |(_, r)| r.report.gauge("run.ssr_rate"));
    pairs
        .iter()
        .map(|(c, r)| {
            let ratio = if first > 0.0 {
                r.report.gauge("run.ssr_rate") / first
            } else {
                0.0
            };
            format!(
                "  window {:>8}: CPU {}  GPU ratio {ratio:.3}  interrupts/SSR {:.2}\n",
                c.knobs.cfg.coalesce_window.to_string(),
                cell3(r.cpu_perf),
                interrupts_per_ssr(&r.report)
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::test_row;
    use crate::spec::Knobs;
    use hiss::{Ns, RunReport};
    use std::sync::Arc;

    fn row(cpu_app: &str, gpu_app: &str, cpu_perf: f64, gpu_perf: f64) -> Row {
        let mut run = RunReport::default();
        run.metrics.counter("run.cpu_app_runtime_ns", 1_000);
        run.metrics.gauge("run.gpu_throughput", 0.5);
        run.metrics.gauge("run.ssr_rate", 1_000.0);
        test_row(cpu_app, gpu_app, Some(cpu_perf), gpu_perf, run)
    }

    fn pair(m: Mitigation, r: Row) -> (Cell, Row) {
        knob_pair(
            Knobs {
                mitigation: m,
                ..Knobs::default()
            },
            r,
        )
    }

    fn knob_pair(knobs: Knobs, r: Row) -> (Cell, Row) {
        let cell = Cell {
            cpu_app: r.cpu_app.clone(),
            gpu_app: r.gpu_app.clone(),
            axes: Vec::new(),
            replica: 0,
            knobs,
            topology: None,
        };
        (cell, r)
    }

    fn point(cpu: f64, gpu: f64) -> ParetoPoint {
        ParetoPoint {
            mitigation: Mitigation::DEFAULT,
            cpu_geomean: cpu,
            gpu_geomean: gpu,
        }
    }

    #[test]
    fn render_produces_grid() {
        let rows = vec![row("x264", "ubench", 0.56, 0.97)];
        let text = fig3_grid(&rows, |r| r.cpu_perf);
        assert!(text.contains("x264"));
        assert!(text.contains("0.560"));
        // Columns are GPU apps sorted by name; a missing cell renders `-`.
        let rows = vec![
            row("x264", "ubench", 0.5, 1.0),
            row("vips", "bfs", 0.9, 1.0),
        ];
        let text = fig3_grid(&rows, |r| r.cpu_perf);
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].ends_with("bfs  ubench"), "{text}");
        let x264: Vec<&str> = lines[2].split_whitespace().collect();
        assert_eq!(x264, ["x264", "-", "0.500"], "{text}");
    }

    #[test]
    fn frontier_marks_non_dominated_points() {
        let pts = vec![
            point(0.5, 1.8),
            point(0.7, 1.0),
            point(0.6, 0.9),
            point(0.4, 0.5),
        ];
        assert_eq!(pareto_frontier(&pts), vec![true, true, false, false]);
    }

    #[test]
    fn dominance_is_strict() {
        let a = point(0.5, 1.0);
        let b = point(0.5, 1.0);
        assert!(!a.dominated_by(&b));
        assert!(a.dominated_by(&point(0.5, 1.1)));
    }

    /// The fold groups rows by combination, emits points in legend order
    /// whatever the sweep order, and takes plain geometric means:
    /// √(0.25·1.0) = 0.5 and √(4·1) = 2 for `mono`, √(0.49·0.81) = 0.63
    /// and 1 for `default`.
    #[test]
    fn pareto_fold_matches_a_hand_computed_case() {
        let mono = Mitigation {
            monolithic_bottom_half: true,
            ..Mitigation::DEFAULT
        };
        let pairs = vec![
            pair(mono, row("x264", "ubench", 0.25, 4.0)),
            pair(mono, row("vips", "ubench", 1.0, 1.0)),
            pair(Mitigation::DEFAULT, row("x264", "ubench", 0.49, 1.0)),
            pair(Mitigation::DEFAULT, row("vips", "ubench", 0.81, 1.0)),
        ];
        let pts = pareto_points(&pairs);
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].mitigation, Mitigation::DEFAULT);
        assert_eq!(pts[1].mitigation, mono);
        assert!((pts[0].cpu_geomean - 0.63).abs() < 1e-12, "{pts:?}");
        assert!((pts[0].gpu_geomean - 1.0).abs() < 1e-12, "{pts:?}");
        assert!((pts[1].cpu_geomean - 0.5).abs() < 1e-12, "{pts:?}");
        assert!((pts[1].gpu_geomean - 2.0).abs() < 1e-12, "{pts:?}");
        // Neither dominates the other: both sit on the frontier.
        assert_eq!(pareto_frontier(&pts), vec![true, true]);
        let text = render_pareto(&pts);
        assert!(text.contains("Monolithic_bottom_half") && text.contains("pareto"));
    }

    #[test]
    fn fig6_ratios_pair_each_cell_with_its_default_twin() {
        let steer = Mitigation {
            steer_single_core: true,
            ..Mitigation::DEFAULT
        };
        let mut treated = row("x264", "sssp", 0.5, 0.5);
        let run = &mut Arc::make_mut(&mut treated.report).metrics;
        run.counter("run.cpu_app_runtime_ns", 800);
        run.gauge("run.gpu_throughput", 0.25);
        let mut ubench = row("x264", "ubench", 0.5, 0.5);
        Arc::make_mut(&mut ubench.report)
            .metrics
            .gauge("run.ssr_rate", 3_000.0);
        let pairs = vec![
            pair(Mitigation::DEFAULT, row("x264", "sssp", 0.5, 0.5)),
            pair(Mitigation::DEFAULT, row("x264", "ubench", 0.5, 0.5)),
            pair(steer, treated.clone()),
            pair(steer, ubench.clone()),
        ];
        let base = row("x264", "sssp", 0.5, 0.5);
        assert_eq!(ratio_vs_default(&treated, &base), (Some(1.25), 0.5));
        assert_eq!(ratio_vs_default(&ubench, &base).1, 3.0);
        let panels = fig6_panels(&pairs);
        assert_eq!(panels.len(), 1);
        assert_eq!(panels[0].0, "Intr_to_single_core");
        assert!(panels[0].1.contains("1.250") && panels[0].1.contains("3.000"));
    }

    /// A sweep-major `qos_percent` grid prints CPU-major, thresholds in
    /// sweep order, with `0` as the governor-off `default` bar.
    #[test]
    fn fig12_regroups_cpu_major_with_threshold_labels() {
        let qos = |pct: f64, cpu: &str| {
            let knobs = Knobs {
                qos_percent: pct,
                ..Knobs::default()
            };
            knob_pair(knobs, row(cpu, "ubench", 0.5, 0.5))
        };
        let pairs = vec![
            qos(0.0, "x264"),
            qos(0.0, "vips"),
            qos(2.5, "x264"),
            qos(2.5, "vips"),
        ];
        let text = render_fig12(&pairs);
        let lines: Vec<Vec<&str>> = text
            .lines()
            .skip(2)
            .map(|l| l.split_whitespace().take(2).collect())
            .collect();
        assert_eq!(
            lines,
            [
                ["x264", "default"],
                ["x264", "th_2.5"],
                ["vips", "default"],
                ["vips", "th_2.5"]
            ],
            "{text}"
        );
    }

    /// A row with the given interrupt and SSR counts, and residency.
    fn kernel_row(gpu_app: &str, interrupts: [u64; 4], ssrs: u64, cc6: f64) -> Row {
        let mut r = row("idle", gpu_app, 0.0, 1.0);
        let run = &mut Arc::make_mut(&mut r.report).metrics;
        for (core, n) in interrupts.into_iter().enumerate() {
            run.counter(format!("kernel.interrupts.core{core}"), n);
        }
        run.counter("kernel.interrupts.total", interrupts.iter().sum());
        run.counter("kernel.ssrs_serviced", ssrs);
        run.counter("kernel.ipis", ssrs);
        run.gauge("run.cc6_residency", cc6);
        r
    }

    #[test]
    fn fig4_shows_both_residencies_and_the_points_lost() {
        let mut r = kernel_row("ubench", [0; 4], 0, 0.12);
        Arc::make_mut(&mut r.baseline)
            .metrics
            .gauge("run.cc6_residency", 0.86);
        let text = render_fig4(&[r]);
        assert!(text.contains("86.0%"), "{text}");
        assert!(text.contains("12.0%"), "{text}");
        assert!(text.contains("74.0"), "{text}");
    }

    /// §IV-C: spread and IPIs come from the default ubench cell; the
    /// reduction averages each default cell against its coalescing twin:
    /// 1 − 0.5/1 = 0.5 for bfs and 1 − 0.75/1 = 0.25 for ubench.
    #[test]
    fn section4c_folds_each_default_cell_with_its_coalescing_twin() {
        let coalesce = Mitigation {
            coalesce: true,
            ..Mitigation::DEFAULT
        };
        let pairs = vec![
            pair(
                Mitigation::DEFAULT,
                kernel_row("bfs", [10, 10, 10, 10], 40, 0.0),
            ),
            pair(
                Mitigation::DEFAULT,
                kernel_row("ubench", [30, 20, 25, 25], 100, 0.0),
            ),
            pair(coalesce, kernel_row("bfs", [5, 5, 5, 5], 40, 0.0)),
            pair(coalesce, kernel_row("ubench", [20, 20, 20, 15], 100, 0.0)),
        ];
        let s = section4c(&pairs).unwrap();
        assert_eq!(s.interrupts_per_core, [30, 20, 25, 25]);
        assert_eq!(s.interrupt_imbalance, 1.5);
        assert_eq!((s.ipis_with_ssrs, s.ipis_without_ssrs), (100, 0));
        assert!((s.coalescing_reduction - 0.375).abs() < 1e-12, "{s:?}");
        assert!(render_section4c(&s).contains(">> 477x"));
        assert_eq!(section4c(&pairs[..1]), None, "no ubench cell");
    }

    /// The window sweep normalises SSR rates to its first window.
    #[test]
    fn window_sweep_is_relative_to_the_first_window() {
        let window = |us: u64, rate: f64| {
            let mut knobs = Knobs::default();
            knobs.cfg.coalesce_window = Ns::from_micros(us);
            let mut r = kernel_row("ubench", [1, 1, 0, 0], 4, 0.0);
            Arc::make_mut(&mut r.report)
                .metrics
                .gauge("run.ssr_rate", rate);
            knob_pair(knobs, r)
        };
        let text = render_window_sweep(&[window(0, 100.0), window(13, 150.0)]);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            [
                "  window      0ns: CPU 0.000  GPU ratio 1.000  interrupts/SSR 0.50",
                "  window 13.000µs: CPU 0.000  GPU ratio 1.500  interrupts/SSR 0.50",
            ]
        );
    }

    /// Fig. 5 reads the ubench column of a Fig. 3 grid: pollution is
    /// visible for every application and app-dependent.
    #[test]
    fn pollution_is_visible_and_app_dependent() {
        let sc = Scenario::from_str(
            "[scenario]\nname = \"t\"\n[workload]\n\
             cpu = [\"fluidanimate\", \"canneal\", \"x264\"]\ngpu = [\"sssp\", \"ubench\"]\n",
        )
        .unwrap();
        let rows = run(&sc, false);
        let ubench: Vec<&Row> = rows.iter().filter(|r| r.gpu_app == "ubench").collect();
        for r in &ubench {
            let (l1d, branch) = pollution(r);
            assert!(l1d > 0.0, "{} shows no cache pollution", r.cpu_app);
            assert!(branch > 0.0, "{} shows no branch pollution", r.cpu_app);
        }
        let get = |n: &str| pollution(ubench.iter().find(|r| r.cpu_app == n).unwrap());
        // canneal's native miss rate is huge, so its *relative* increase
        // is small (matches the paper's low canneal bar).
        assert!(get("canneal").0 < get("fluidanimate").0);
        // x264 dominates the branch panel.
        assert!(get("x264").1 > get("canneal").1);
        // The table holds the ubench column only, in row order.
        let text = render_fig5(&rows);
        let apps: Vec<&str> = text
            .lines()
            .skip(2)
            .filter_map(|l| l.split_whitespace().next())
            .collect();
        assert_eq!(apps, ["fluidanimate", "canneal", "x264"], "{text}");
    }
}
