//! The batch compiler: lowers a validated [`Scenario`] into pure
//! simulation jobs on the [`hiss::runner`] pool.
//!
//! A scenario expands into a cartesian grid of **cells**:
//!
//! ```text
//! sweep axis 1 × … × sweep axis N × GPU app × CPU app × replica
//! ```
//!
//! with the first sweep axis as the outermost loop and replicas
//! innermost. With no sweeps and one replica this is exactly the
//! GPU-major `gpu × cpu` grid of the paper's Fig. 3, and because a
//! cell's result is a pure function of its knobs, its values are
//! bit-identical to direct [`ExperimentBuilder`] runs (`tests/scenarios.rs`
//! pins this).
//!
//! Every cell reuses the process-wide
//! [`BaselineCache`] for its two normalisation
//! baselines, and cells whose knobs are the paper's default
//! configuration resolve the noisy run through the cache too (sharing it
//! across packs).

use std::sync::Arc;

use hiss::{
    BaselineCache, CoreId, DeviceKind, DeviceSpec, DmaParams, ExperimentBuilder, GpuAppSpec,
    Mitigation, NicParams, QosParams, RunReport,
};
use hiss_obs::MetricsRegistry;

use crate::spec::{Knobs, Scenario, Topology};
use Datum::{Int, Null, Real};

/// One fully resolved simulation job of a scenario batch.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// CPU (PARSEC) application.
    pub cpu_app: String,
    /// GPU application.
    pub gpu_app: String,
    /// Sweep-axis coordinates, `(field key, rendered value)`, in axis
    /// order. Empty when the scenario has no `[sweep]` section.
    pub axes: Vec<(String, String)>,
    /// Replica index (0-based; replica *i* runs with `seed + i`).
    pub replica: u32,
    /// The cell's resolved knobs.
    pub knobs: Knobs,
    /// Declarative device topology, when the scenario has `[topology]`.
    pub topology: Option<Topology>,
}

/// One result row: the cell's coordinates, its two baseline-normalised
/// values, the run it came from and that run's no-SSR baseline. Every
/// other result column is read from the run through [`COLUMNS`].
#[derive(Debug, Clone)]
pub struct Row {
    /// CPU application.
    pub cpu_app: String,
    /// GPU application.
    pub gpu_app: String,
    /// Sweep-axis coordinates, as in [`Cell::axes`].
    pub axes: Vec<(String, String)>,
    /// Replica index.
    pub replica: u32,
    /// Normalised CPU application performance (Fig. 3a semantics:
    /// against the same pairing with no SSRs). `None` if the CPU
    /// application did not finish within the simulation-time cap.
    pub cpu_perf: Option<f64>,
    /// Normalised GPU performance (Fig. 3b semantics: against the GPU on
    /// idle CPUs; see [`gpu_perf_vs`]).
    pub gpu_perf: f64,
    /// The cell's co-run.
    pub report: Arc<RunReport>,
    /// The `cpu_perf` denominator: the same pairing with the pinned
    /// (no-SSR) GPU, from [`BaselineCache::cpu_baseline`]. For an
    /// [`IDLE_CPU`](hiss::IDLE_CPU) cell it is the pinned GPU alone
    /// (Fig. 4's `no_SSR`). Not a column: the row JSON never shows it.
    pub baseline: Arc<RunReport>,
}

/// One value of a result column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Datum {
    /// A count.
    Int(u64),
    /// A measurement (JSON `null` when not finite).
    Real(f64),
    /// No value: the CPU application did not finish.
    Null,
}

impl Datum {
    /// The value an `[expect]` band aggregates; `None` for [`Null`].
    pub fn as_f64(self) -> Option<f64> {
        match self {
            Int(n) => Some(n as f64),
            Real(x) => Some(x),
            Null => None,
        }
    }
}

/// One result column: how a [`Row`] value is named, checked and read.
#[derive(Debug)]
pub struct Column {
    /// Key in the row JSON object.
    pub key: &'static str,
    /// `[expect]` band stem (`mean_<stem>`), when a band can constrain
    /// the column.
    pub stem: Option<&'static str>,
    /// The `hiss_obs::schema` name the value is read from, when it has
    /// one: `HL201` resolves it, `HL401` lifts its conservation laws to
    /// bands and `HL404` counts a band on it as coverage.
    pub schema: Option<&'static str>,
    /// Reads the value from a row.
    pub read: fn(&Row) -> Datum,
}

/// Columns are one per key, and `read` pointers are not comparable.
impl PartialEq for Column {
    fn eq(&self, other: &Column) -> bool {
        self.key == other.key
    }
}

const fn col(
    key: &'static str,
    stem: Option<&'static str>,
    schema: Option<&'static str>,
    read: fn(&Row) -> Datum,
) -> Column {
    Column {
        key,
        stem,
        schema,
        read,
    }
}

fn counter(row: &Row, name: &str) -> Datum {
    Int(row.report.metrics.counter_value(name).unwrap_or(0))
}

/// Every result column after the cell coordinates, in row-JSON order.
/// A new `[expect]` metric is one entry here.
#[rustfmt::skip]
pub const COLUMNS: &[Column] = &[
    col("cpu_perf", Some("cpu_perf"), None, |r| r.cpu_perf.map_or(Null, Real)),
    col("gpu_perf", Some("gpu_perf"), None, |r| Real(r.gpu_perf)),
    col("cpu_runtime_ns", None, Some("run.cpu_app_runtime_ns"), |r| {
        r.report.cpu_app_runtime.map_or(Null, |t| Int(t.as_nanos()))
    }),
    col("gpu_throughput", Some("gpu_throughput"), Some("run.gpu_throughput"), |r| {
        Real(r.report.gpu_throughput)
    }),
    col("ssr_rate", Some("ssr_rate"), Some("run.ssr_rate"), |r| Real(r.report.ssr_rate)),
    col("ssrs_serviced", None, Some("kernel.ssrs_serviced"), |r| {
        Int(r.report.kernel.ssrs_serviced)
    }),
    // Mean and p99 are both read off the latency histogram.
    col("mean_ssr_latency_us", Some("ssr_latency_us"), Some("kernel.latency"), |r| {
        Real(r.report.kernel.mean_ssr_latency.as_micros_f64())
    }),
    col("p99_ssr_latency_us", Some("p99_latency_us"), Some("kernel.latency"), |r| {
        Real(r.report.kernel.p99_ssr_latency.as_micros_f64())
    }),
    col("cc6_residency", Some("cc6_residency"), Some("run.cc6_residency"), |r| {
        Real(r.report.cc6_residency)
    }),
    col("ssr_overhead", Some("ssr_overhead"), Some("run.cpu_ssr_overhead"), |r| {
        Real(r.report.cpu_ssr_overhead)
    }),
    col("ipis", Some("ipis"), Some("kernel.ipis"), |r| Int(r.report.kernel.ipis)),
    col("qos_deferrals", Some("qos_deferrals"), Some("kernel.qos_deferrals"), |r| {
        Int(r.report.kernel.qos_deferrals)
    }),
    col("aux_ssrs_raised", Some("aux_ssrs_raised"), Some("run.aux_ssrs_raised"), |r| {
        counter(r, "run.aux_ssrs_raised")
    }),
    col("critical_p99_latency_us", Some("critical_p99_latency_us"),
        Some("qos.class0.p99_latency_us"), |r| {
        Real(r.report.metrics.gauge_value("qos.class0.p99_latency_us").unwrap_or(0.0))
    }),
    col("events_pushed", Some("events_pushed"), Some("run.events_pushed"), |r| {
        counter(r, "run.events_pushed")
    }),
    col("events_popped", Some("events_popped"), Some("run.events_popped"), |r| {
        counter(r, "run.events_popped")
    }),
];

/// A run's GPU performance against `baseline` in the paper's figure
/// metric for `gpu_app`: SSR throughput for ubench, work throughput for
/// full applications (the Fig. 3b/6/7 y-axes).
pub fn gpu_perf_vs(gpu_app: &str, run: &RunReport, baseline: &RunReport) -> f64 {
    if gpu_app == "ubench" {
        run.ssr_rate_vs(baseline)
    } else {
        run.gpu_perf_vs(baseline)
    }
}

/// Expands a scenario into its cell grid for the given mode.
///
/// Quick mode swaps in the `[workload]` quick subsets; sweep axes and
/// replicas are preserved (scenario authors control quick cost through
/// `quick_cpu`/`quick_gpu`).
pub fn expand(sc: &Scenario, quick: bool) -> Vec<Cell> {
    let cpu_apps = sc.cpu_apps(quick);
    let gpu_apps = sc.gpu_apps(quick);
    let mut cells = Vec::new();
    let mut coords = vec![0usize; sc.sweeps.len()];
    loop {
        // Resolve the current sweep point.
        let mut knobs = sc.base;
        let mut axes = Vec::with_capacity(sc.sweeps.len());
        for (axis, &i) in sc.sweeps.iter().zip(&coords) {
            let value = &axis.values[i];
            axis.field
                .apply(&mut knobs, value, axis.line)
                .expect("sweep values were validated at parse time");
            axes.push((axis.field.key().to_string(), value.render()));
        }
        for gpu_app in gpu_apps {
            for cpu_app in cpu_apps {
                for replica in 0..sc.replicas {
                    let mut k = knobs;
                    k.cfg.seed = k.cfg.seed.wrapping_add(replica as u64);
                    // `[criticality]` lowers per cell: only cells whose
                    // CPU application holds the critical class run the
                    // partitioning machinery; the rest of the grid is
                    // the unprotected control group.
                    if !sc.critical_apps.iter().any(|a| a == cpu_app) {
                        k.criticality = None;
                    }
                    cells.push(Cell {
                        cpu_app: cpu_app.clone(),
                        gpu_app: gpu_app.clone(),
                        axes: axes.clone(),
                        replica,
                        knobs: k,
                        topology: sc.topology.clone(),
                    });
                }
            }
        }
        // Odometer over sweep axes, last axis fastest.
        let mut dim = sc.sweeps.len();
        loop {
            if dim == 0 {
                return cells;
            }
            dim -= 1;
            coords[dim] += 1;
            if coords[dim] < sc.sweeps[dim].values.len() {
                break;
            }
            coords[dim] = 0;
        }
    }
}

/// Runs one cell: the noisy run plus its two cached baselines. An
/// [`IDLE_CPU`](hiss::IDLE_CPU) default cell's noisy run is the GPU-alone
/// baseline itself ([`BaselineCache::corun_default`]). Public
/// so the serving layer (`hiss-serve`) can execute store-miss cells
/// through exactly the batch compiler's path.
pub fn run_cell_report(cell: &Cell) -> (Row, Arc<RunReport>) {
    let cache = BaselineCache::global();
    let cfg = &cell.knobs.cfg;
    let base = cache.cpu_baseline(cfg, &cell.cpu_app, &cell.gpu_app);
    let gpu_base = cache.gpu_idle_baseline(cfg, &cell.gpu_app);
    // Topology cells never use the co-run cache: its key is only
    // (config, cpu_app, gpu_app), which cannot distinguish device lists.
    let is_default = cell.knobs.mitigation == Mitigation::DEFAULT
        && cell.knobs.qos_percent == 0.0
        && cell.knobs.gpus == 1
        && cell.knobs.criticality.is_none()
        && cell.topology.is_none();
    let run = if is_default {
        cache.corun_default(cfg, &cell.cpu_app, &cell.gpu_app)
    } else {
        let mut b = ExperimentBuilder::new(*cfg)
            .cpu_app(&cell.cpu_app)
            .mitigation(cell.knobs.mitigation);
        if let Some(top) = &cell.topology {
            for (kind, steer) in top.devices.iter().zip(&top.steer) {
                let spec = match kind {
                    DeviceKind::Gpu => DeviceSpec::Gpu(
                        GpuAppSpec::by_name(&cell.gpu_app)
                            .expect("workload names were validated at parse time"),
                    ),
                    DeviceKind::Nic => DeviceSpec::Nic(NicParams::default()),
                    DeviceKind::Dma => DeviceSpec::Dma(DmaParams::default()),
                };
                b = b.device_steered(spec, steer.map(CoreId));
            }
        } else {
            for _ in 0..cell.knobs.gpus {
                b = b.gpu_app(&cell.gpu_app);
            }
        }
        if cell.knobs.qos_percent > 0.0 {
            b = b.qos(QosParams::threshold_percent(cell.knobs.qos_percent));
        }
        if let Some(c) = cell.knobs.criticality {
            b = b.criticality(c);
        }
        Arc::new(b.run())
    };
    let row = Row {
        cpu_app: cell.cpu_app.clone(),
        gpu_app: cell.gpu_app.clone(),
        axes: cell.axes.clone(),
        replica: cell.replica,
        cpu_perf: run.cpu_perf_vs(&base),
        gpu_perf: gpu_perf_vs(&cell.gpu_app, &run, &gpu_base),
        report: Arc::clone(&run),
        baseline: base,
    };
    (row, run)
}

/// The cell's metrics snapshot: the run's registry plus `cell.*` labels
/// (application names, replica, sweep coordinates) so a snapshot file is
/// self-describing without the surrounding row. Public so `hiss-serve`
/// labels store-served registries identically to freshly run ones.
pub fn cell_metrics(cell: &Cell, run: &RunReport) -> MetricsRegistry {
    let mut m = run.metrics.clone();
    m.label("cell.cpu_app", &cell.cpu_app);
    m.label("cell.gpu_app", &cell.gpu_app);
    m.counter("cell.replica", cell.replica as u64);
    if let Some(top) = &cell.topology {
        m.label("cell.topology", top.render());
    }
    for (key, value) in &cell.axes {
        m.label(format!("cell.axis.{key}"), value);
    }
    m
}

/// A row over a hand-built report, for unit tests of row consumers.
#[cfg(test)]
pub(crate) fn test_row(
    cpu_app: &str,
    gpu_app: &str,
    cpu_perf: Option<f64>,
    gpu_perf: f64,
    report: RunReport,
) -> Row {
    Row {
        cpu_app: cpu_app.into(),
        gpu_app: gpu_app.into(),
        axes: Vec::new(),
        replica: 0,
        cpu_perf,
        gpu_perf,
        report: Arc::new(report),
        baseline: Arc::default(),
    }
}

/// Expands and executes a scenario on the parallel runner, returning
/// rows in grid order (bit-identical whatever the worker count).
pub fn run(sc: &Scenario, quick: bool) -> Vec<Row> {
    let cells = expand(sc, quick);
    hiss::run_jobs(cells.len(), |i| run_cell_report(&cells[i]).0)
}

/// [`run`], additionally returning each cell's metrics snapshot (the
/// run's [`hiss::RunReport::metrics`] registry plus `cell.*` identity
/// labels). Snapshots are built purely from deterministic simulation
/// state, so they too are bit-identical whatever the worker count.
pub fn run_with_metrics(sc: &Scenario, quick: bool) -> Vec<(Row, MetricsRegistry)> {
    let cells = expand(sc, quick);
    hiss::run_jobs(cells.len(), |i| row_and_metrics(&cells[i]))
}

fn row_and_metrics(cell: &Cell) -> (Row, MetricsRegistry) {
    let (row, report) = run_cell_report(cell);
    (row, cell_metrics(cell, &report))
}

/// [`run_with_metrics`] with batch-level profiling: also returns a
/// registry of pool wall-times (`pool.*`) and process-wide baseline-cache
/// counters (`baseline_cache.*`). Unlike the per-cell snapshots, this
/// profile is wall-clock- and scheduling-dependent — it is reported
/// separately and never mixed into cell snapshots.
pub fn run_profiled(sc: &Scenario, quick: bool) -> (Vec<(Row, MetricsRegistry)>, MetricsRegistry) {
    let cells = expand(sc, quick);
    let (rows, profile) = hiss::run_jobs_profiled(hiss::thread_count(), cells.len(), |i| {
        row_and_metrics(&cells[i])
    });
    let mut batch = MetricsRegistry::new();
    profile.publish(&mut batch, "pool");
    BaselineCache::global().publish(&mut batch, "baseline_cache");
    (rows, batch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Scenario;

    /// A row's value in the column keyed `key`.
    fn value(row: &Row, key: &str) -> Datum {
        let column = COLUMNS.iter().find(|c| c.key == key).unwrap();
        (column.read)(row)
    }

    /// `docs/SCENARIOS.md` documents every band stem in its `[expect]`
    /// table.
    #[test]
    fn every_band_stem_is_documented() {
        let doc = std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../docs/SCENARIOS.md"),
        )
        .unwrap();
        let section = doc
            .split("### `[expect]`")
            .nth(1)
            .and_then(|s| s.split("\n#").next())
            .expect("SCENARIOS.md has an [expect] section");
        for stem in COLUMNS.iter().filter_map(|c| c.stem) {
            assert!(
                section.contains(&format!("\n| `{stem}` |")),
                "band stem `{stem}` is missing from the [expect] table of docs/SCENARIOS.md"
            );
        }
    }

    #[test]
    fn grid_is_gpu_major_with_sweeps_outermost() {
        let sc = Scenario::from_str(
            r#"
[scenario]
name = "t"
[workload]
cpu = ["x264", "vips"]
gpu = ["bfs", "sssp"]
[run]
replicas = 2
[sweep]
gpus = [1, 2]
"#,
        )
        .unwrap();
        let cells = expand(&sc, false);
        assert_eq!(cells.len(), 2 * 2 * 2 * 2);
        // First block: gpus=1, gpu-major, replicas innermost.
        assert_eq!(cells[0].axes, vec![("gpus".to_string(), "1".to_string())]);
        assert_eq!(
            (
                cells[0].cpu_app.as_str(),
                cells[0].gpu_app.as_str(),
                cells[0].replica
            ),
            ("x264", "bfs", 0)
        );
        assert_eq!(cells[1].replica, 1);
        assert_eq!(cells[2].cpu_app, "vips");
        assert_eq!(cells[4].gpu_app, "sssp");
        // Second sweep block.
        assert_eq!(cells[8].axes, vec![("gpus".to_string(), "2".to_string())]);
        assert_eq!(cells[8].knobs.gpus, 2);
        // Replica 1 bumps the seed.
        assert_eq!(cells[1].knobs.cfg.seed, cells[0].knobs.cfg.seed + 1);
    }

    #[test]
    fn quick_mode_uses_quick_subsets() {
        let sc = Scenario::from_str(
            r#"
[scenario]
name = "t"
[workload]
cpu = ["x264", "vips", "ferret"]
gpu = ["bfs", "sssp", "ubench"]
quick_cpu = ["x264"]
quick_gpu = ["ubench"]
"#,
        )
        .unwrap();
        assert_eq!(expand(&sc, false).len(), 9);
        let quick = expand(&sc, true);
        assert_eq!(quick.len(), 1);
        assert_eq!(quick[0].cpu_app, "x264");
        assert_eq!(quick[0].gpu_app, "ubench");
    }

    #[test]
    fn cc6_axis_round_trips() {
        let sc = Scenario::from_str(
            r#"
[scenario]
name = "t"
[workload]
cpu = ["x264"]
gpu = ["ubench"]
[sweep]
cc6 = [true, false]
"#,
        )
        .unwrap();
        let cells = expand(&sc, false);
        assert_eq!(cells.len(), 2);
        assert!(cells[0].knobs.cfg.cpu.cstate.entry_threshold < hiss::Ns::MAX);
        assert_eq!(cells[1].knobs.cfg.cpu.cstate.entry_threshold, hiss::Ns::MAX);
    }

    #[test]
    fn metrics_snapshots_carry_cell_identity_and_mirror_rows() {
        let sc = Scenario::from_str(
            r#"
[scenario]
name = "t"
[workload]
cpu = ["x264"]
gpu = ["ubench"]
[sweep]
qos_percent = [0, 1]
"#,
        )
        .unwrap();
        let pairs = run_with_metrics(&sc, false);
        assert_eq!(pairs.len(), 2);
        for (row, m) in &pairs {
            assert_eq!(m.label_value("cell.cpu_app"), Some("x264"));
            assert_eq!(m.label_value("cell.gpu_app"), Some("ubench"));
            assert_eq!(m.counter_value("cell.replica"), Some(0));
            assert_eq!(
                m.label_value("cell.axis.qos_percent"),
                Some(row.axes[0].1.as_str())
            );
            assert_eq!(
                m.counter_value("kernel.ipis").map(Datum::Int),
                Some(value(row, "ipis"))
            );
            assert_eq!(
                m.counter_value("kernel.ssrs_serviced").map(Datum::Int),
                Some(value(row, "ssrs_serviced"))
            );
            assert_eq!(
                m.gauge_value("run.cc6_residency").map(Datum::Real),
                Some(value(row, "cc6_residency"))
            );
        }
        // Plain `run` and the metrics variant agree row-for-row.
        let rows = run(&sc, false);
        let row_only: Vec<Row> = pairs.into_iter().map(|(r, _)| r).collect();
        assert_eq!(
            crate::output::to_jsonl(&rows),
            crate::output::to_jsonl(&row_only)
        );
    }

    /// The acceptance gate for the device generalisation: a `[topology]`
    /// of N `gpu` devices is the same simulation as the hardwired
    /// `gpus = N` knob — every row bit-identical, through both the
    /// builder path (N = 2) and the co-run-cache default path (N = 1).
    #[test]
    fn all_gpu_topology_is_bit_identical_to_the_hardwired_gpus_knob() {
        let base = r#"
[scenario]
name = "t"
[workload]
cpu = ["x264"]
gpu = ["ubench", "sssp"]
"#;
        for (knob, topo) in [
            (
                "[system]\ngpus = 2\n",
                "[topology]\ndevices = [\"gpu\", \"gpu\"]\n",
            ),
            ("", "[topology]\ndevices = [\"gpu\"]\n"),
        ] {
            let hardwired = Scenario::from_str(&format!("{base}{knob}")).unwrap();
            let declared = Scenario::from_str(&format!("{base}{topo}")).unwrap();
            let a = run(&hardwired, false);
            let b = run(&declared, false);
            let a_json: Vec<String> = a.iter().map(crate::output::row_json).collect();
            let b_json: Vec<String> = b.iter().map(crate::output::row_json).collect();
            assert_eq!(a_json, b_json, "topology {topo:?} diverged from {knob:?}");
        }
    }

    #[test]
    fn topology_cells_carry_their_identity_and_aux_ssrs() {
        let sc = Scenario::from_str(
            r#"
[scenario]
name = "t"
[workload]
cpu = ["x264"]
gpu = ["ubench"]
[topology]
devices = ["gpu", "nic", "dma"]
steer = [-1, 3, -1]
"#,
        )
        .unwrap();
        let pairs = run_with_metrics(&sc, false);
        assert_eq!(pairs.len(), 1);
        let (row, m) = &pairs[0];
        assert_eq!(m.label_value("cell.topology"), Some("gpu@-,nic@3,dma@-"));
        assert_eq!(m.counter_value("run.devices"), Some(3));
        let aux = m.counter_value("run.aux_ssrs_raised");
        assert!(aux > Some(0), "NIC+DMA must raise SSRs");
        assert_eq!(aux.map(Datum::Int), Some(value(row, "aux_ssrs_raised")));
    }

    /// `[criticality]` lowers per CPU application: only critical-listed
    /// apps keep the partition config, and those cells publish per-class
    /// metrics (the `cell.*` snapshot carries them) while the control
    /// cells stay class-free.
    #[test]
    fn criticality_lowers_onto_critical_cells_only() {
        let sc = Scenario::from_str(
            r#"
[scenario]
name = "t"
[workload]
cpu = ["raytrace", "x264"]
gpu = ["ubench"]
[criticality]
critical = ["raytrace"]
critical_devices = [0]
"#,
        )
        .unwrap();
        let cells = expand(&sc, false);
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].cpu_app, "raytrace");
        let c = cells[0].knobs.criticality.expect("critical cell keeps it");
        assert_eq!(c.critical_device_mask, 0b1);
        assert!(cells[1].knobs.criticality.is_none(), "x264 is the control");

        let pairs = run_with_metrics(&sc, false);
        let (crit_row, crit_m) = &pairs[0];
        assert_eq!(crit_m.counter_value("qos.classes"), Some(2));
        let crit_p99 = crit_m.gauge_value("qos.class0.p99_latency_us");
        assert!(crit_p99 > Some(0.0));
        assert_eq!(
            crit_p99.map(Datum::Real),
            Some(value(crit_row, "critical_p99_latency_us"))
        );
        let (ctrl_row, ctrl_m) = &pairs[1];
        assert_eq!(ctrl_m.counter_value("qos.classes"), None);
        assert_eq!(value(ctrl_row, "critical_p99_latency_us"), Datum::Real(0.0));
    }

    #[test]
    fn run_matches_figure_semantics_for_one_cell() {
        let sc = Scenario::from_str(
            r#"
[scenario]
name = "t"
[workload]
cpu = ["raytrace"]
gpu = ["sssp"]
"#,
        )
        .unwrap();
        let rows = run(&sc, false);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        let cfg = hiss::SystemConfig::a10_7850k();
        let noisy = ExperimentBuilder::new(cfg)
            .cpu_app("raytrace")
            .gpu_app("sssp")
            .run();
        let base = ExperimentBuilder::new(cfg)
            .cpu_app("raytrace")
            .gpu_app_pinned("sssp")
            .run();
        let idle = ExperimentBuilder::new(cfg).gpu_app("sssp").run();
        assert_eq!(
            r.cpu_perf.unwrap().to_bits(),
            noisy.cpu_perf_vs(&base).unwrap().to_bits()
        );
        assert_eq!(r.gpu_perf.to_bits(), noisy.gpu_perf_vs(&idle).to_bits());
    }
}
