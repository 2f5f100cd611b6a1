//! Typed scenario model: schema validation of a parsed [`Document`] into
//! a [`Scenario`].
//!
//! A scenario describes one full experiment:
//!
//! - `[scenario]` — name and description,
//! - `[system]` — overrides of the Table-II baseline [`SystemConfig`]
//!   (cores, GPUs, C-states, timer tick, coalescing window, seed),
//! - `[mitigation]` — §V switches and the §VI QoS threshold,
//! - `[workload]` — the CPU-app list × GPU-app list grid, plus optional
//!   quick-mode subsets,
//! - `[run]` — seeds/replicas,
//! - `[sweep]` — cartesian sweep axes over any numeric/enum knob,
//! - `[expect]` — metric bands the batch results must fall within.
//!
//! Every diagnostic carries the offending line number.

use hiss::{
    CoreId, CriticalityConfig, DeviceKind, ExperimentBuilder, Mitigation, Ns, SystemConfig,
    IDLE_CPU,
};

use crate::compile::{Column, COLUMNS};
use crate::parse::{Document, Entry, ScenarioError, Value};

/// Every simulation knob a scenario (or one sweep point of it) pins
/// down: the system configuration, number of GPU-app copies, mitigation
/// switches, and QoS threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Knobs {
    /// Full system configuration (already includes `[system]` overrides
    /// and, per cell, the sweep-axis values and replica seed).
    pub cfg: SystemConfig,
    /// Number of concurrent copies of the GPU application.
    pub gpus: usize,
    /// §V mitigation switches.
    pub mitigation: Mitigation,
    /// §VI QoS threshold in percent; 0 disables the governor.
    pub qos_percent: f64,
    /// Mixed-criticality partitioning (`[criticality]`); `None` runs the
    /// cell without classes. The batch compiler clears it on cells whose
    /// CPU application is not in the scenario's critical list.
    pub criticality: Option<CriticalityConfig>,
}

impl Default for Knobs {
    fn default() -> Self {
        Knobs {
            cfg: SystemConfig::a10_7850k(),
            gpus: 1,
            mitigation: Mitigation::DEFAULT,
            qos_percent: 0.0,
            criticality: None,
        }
    }
}

/// A sweepable (or `[system]`/`[mitigation]`-settable) scalar knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Field {
    /// `cores` — number of CPU cores.
    Cores,
    /// `gpus` — concurrent copies of the GPU application.
    Gpus,
    /// `seed` — root RNG seed.
    Seed,
    /// `timer_tick_us` — OS scheduler tick period (0 disables).
    TimerTickUs,
    /// `coalesce_window_us` — IOMMU coalescing window when coalescing is
    /// on.
    CoalesceWindowUs,
    /// `max_sim_time_ms` — safety cap on simulated time.
    MaxSimTimeMs,
    /// `cc6` — whether the deep C-state is available.
    Cc6,
    /// `steer_target` — which core §V-A single-core steering pins
    /// interrupts to (range-checked against every swept core count at
    /// compile time, lint `HL012`).
    SteerTarget,
    /// `steer` — §V-A single-core interrupt steering.
    Steer,
    /// `coalesce` — §V-B interrupt coalescing.
    Coalesce,
    /// `monolithic` — §V-C monolithic bottom half.
    Monolithic,
    /// `qos_percent` — §VI throttle threshold (0 = governor off).
    QosPercent,
    /// `mitigation` — enum over §V combinations: `"default"` or a
    /// `+`-joined subset of `steer`, `coalesce`, `mono`
    /// (e.g. `"steer+mono"`).
    MitigationCombo,
    /// `reserve` — whether critical cores are fenced off from SSR IRQs
    /// and bottom-half worker threads (`[criticality]` only).
    CritReserve,
    /// `ppr_quota_percent` — critical-class share of the IOMMU PPR
    /// queue, 1–100 (`[criticality]` only).
    CritQuota,
    /// `critical_cores` — cores `[0, n)` are the critical partition
    /// (`[criticality]` only).
    CritCores,
    /// `critical_window_us` — coalescing window for critical-class
    /// requests; 0 delivers immediately (`[criticality]` only).
    CritWindowUs,
    /// `best_effort_window_us` — coalescing window for best-effort
    /// requests (`[criticality]` only).
    BeWindowUs,
}

impl Field {
    /// The key naming this field in `[system]`, `[mitigation]`, and
    /// `[sweep]` sections.
    pub fn key(self) -> &'static str {
        match self {
            Field::Cores => "cores",
            Field::Gpus => "gpus",
            Field::Seed => "seed",
            Field::TimerTickUs => "timer_tick_us",
            Field::CoalesceWindowUs => "coalesce_window_us",
            Field::MaxSimTimeMs => "max_sim_time_ms",
            Field::Cc6 => "cc6",
            Field::SteerTarget => "steer_target",
            Field::Steer => "steer",
            Field::Coalesce => "coalesce",
            Field::Monolithic => "monolithic",
            Field::QosPercent => "qos_percent",
            Field::MitigationCombo => "mitigation",
            Field::CritReserve => "reserve",
            Field::CritQuota => "ppr_quota_percent",
            Field::CritCores => "critical_cores",
            Field::CritWindowUs => "critical_window_us",
            Field::BeWindowUs => "best_effort_window_us",
        }
    }

    /// Every field, in declaration order.
    pub(crate) const ALL: &'static [Field] = &[
        Field::Cores,
        Field::Gpus,
        Field::Seed,
        Field::TimerTickUs,
        Field::CoalesceWindowUs,
        Field::MaxSimTimeMs,
        Field::Cc6,
        Field::SteerTarget,
        Field::Steer,
        Field::Coalesce,
        Field::Monolithic,
        Field::QosPercent,
        Field::MitigationCombo,
        Field::CritReserve,
        Field::CritQuota,
        Field::CritCores,
        Field::CritWindowUs,
        Field::BeWindowUs,
    ];

    /// The field a `[system]`/`[mitigation]`/`[criticality]`/`[sweep]`
    /// key names.
    pub(crate) fn by_key(key: &str) -> Option<Field> {
        Field::ALL.iter().copied().find(|f| f.key() == key)
    }

    /// Fields accepted in `[system]`.
    const SYSTEM: &'static [Field] = &[
        Field::Cores,
        Field::Gpus,
        Field::Seed,
        Field::TimerTickUs,
        Field::CoalesceWindowUs,
        Field::MaxSimTimeMs,
        Field::Cc6,
        Field::SteerTarget,
    ];

    /// Fields accepted in `[mitigation]`.
    const MITIGATION: &'static [Field] = &[
        Field::Steer,
        Field::Coalesce,
        Field::Monolithic,
        Field::QosPercent,
        Field::MitigationCombo,
    ];

    /// Fields accepted in `[criticality]` (and sweepable once the
    /// section is present).
    const CRITICALITY: &'static [Field] = &[
        Field::CritReserve,
        Field::CritQuota,
        Field::CritCores,
        Field::CritWindowUs,
        Field::BeWindowUs,
    ];

    /// Validates `value` for this field and applies it to `knobs`.
    pub fn apply(self, knobs: &mut Knobs, value: &Value, line: usize) -> Result<(), ScenarioError> {
        let key = self.key();
        match self {
            Field::Cores => {
                let n = expect_int(value, key, line, 1, 64)?;
                knobs.cfg.num_cores = n as usize;
            }
            Field::Gpus => {
                let n = expect_int(value, key, line, 1, 64)?;
                knobs.gpus = n as usize;
            }
            Field::Seed => {
                let s = expect_int(value, key, line, 0, i64::MAX)?;
                knobs.cfg.seed = s as u64;
            }
            Field::TimerTickUs => {
                let us = expect_int(value, key, line, 0, 1_000_000)?;
                knobs.cfg.timer_tick = Ns::from_micros(us as u64);
            }
            Field::CoalesceWindowUs => {
                let us = expect_int(value, key, line, 0, 1_000_000)?;
                knobs.cfg.coalesce_window = Ns::from_micros(us as u64);
            }
            Field::MaxSimTimeMs => {
                let ms = expect_int(value, key, line, 1, i64::MAX / 1_000_000)?;
                knobs.cfg.max_sim_time = Ns::from_millis(ms as u64);
            }
            Field::Cc6 => {
                // Disabling CC6 makes the governor threshold unreachable:
                // idle cores stay in the shallow state forever. Re-enabling
                // restores the Table-II threshold (a sweep axis may apply
                // both values to the same scratch knobs).
                knobs.cfg.cpu.cstate.entry_threshold = if expect_bool(value, key, line)? {
                    SystemConfig::a10_7850k().cpu.cstate.entry_threshold
                } else {
                    Ns::MAX
                };
            }
            Field::SteerTarget => {
                let n = expect_int(value, key, line, 0, 63)?;
                knobs.cfg.steer_target = CoreId(n as usize);
            }
            Field::Steer => knobs.mitigation.steer_single_core = expect_bool(value, key, line)?,
            Field::Coalesce => knobs.mitigation.coalesce = expect_bool(value, key, line)?,
            Field::Monolithic => {
                knobs.mitigation.monolithic_bottom_half = expect_bool(value, key, line)?
            }
            Field::QosPercent => {
                let pct = expect_number(value, key, line)?;
                if !(0.0..=100.0).contains(&pct) {
                    return Err(ScenarioError::new(
                        line,
                        format!("{key:?} must be in [0, 100] (0 = governor off), got {pct}"),
                    ));
                }
                knobs.qos_percent = pct;
            }
            Field::MitigationCombo => {
                knobs.mitigation = parse_mitigation_combo(value, line)?;
            }
            Field::CritReserve
            | Field::CritQuota
            | Field::CritCores
            | Field::CritWindowUs
            | Field::BeWindowUs => {
                let Some(c) = knobs.criticality.as_mut() else {
                    return Err(ScenarioError::new(
                        line,
                        format!("{key:?} requires a [criticality] section"),
                    ));
                };
                match self {
                    Field::CritReserve => c.reserve = expect_bool(value, key, line)?,
                    Field::CritQuota => {
                        c.ppr_quota_percent = expect_int(value, key, line, 1, 100)? as u32
                    }
                    Field::CritCores => {
                        c.critical_cores = expect_int(value, key, line, 1, 63)? as usize
                    }
                    Field::CritWindowUs => {
                        c.critical_window =
                            Ns::from_micros(expect_int(value, key, line, 0, 13)? as u64)
                    }
                    Field::BeWindowUs => {
                        c.best_effort_window =
                            Ns::from_micros(expect_int(value, key, line, 0, 13)? as u64)
                    }
                    _ => unreachable!(),
                }
            }
        }
        Ok(())
    }
}

fn expect_int(
    value: &Value,
    key: &str,
    line: usize,
    min: i64,
    max: i64,
) -> Result<i64, ScenarioError> {
    match value {
        Value::Int(i) if (min..=max).contains(i) => Ok(*i),
        Value::Int(i) => Err(ScenarioError::new(
            line,
            format!("{key:?} must be an integer in [{min}, {max}], got {i}"),
        )),
        other => Err(ScenarioError::new(
            line,
            format!("{key:?} expects an integer, got {}", other.type_name()),
        )),
    }
}

fn expect_bool(value: &Value, key: &str, line: usize) -> Result<bool, ScenarioError> {
    match value {
        Value::Bool(b) => Ok(*b),
        other => Err(ScenarioError::new(
            line,
            format!("{key:?} expects true or false, got {}", other.type_name()),
        )),
    }
}

fn expect_number(value: &Value, key: &str, line: usize) -> Result<f64, ScenarioError> {
    match value {
        Value::Int(i) => Ok(*i as f64),
        Value::Float(x) => Ok(*x),
        other => Err(ScenarioError::new(
            line,
            format!("{key:?} expects a number, got {}", other.type_name()),
        )),
    }
}

fn expect_str<'v>(value: &'v Value, key: &str, line: usize) -> Result<&'v str, ScenarioError> {
    match value {
        Value::Str(s) => Ok(s),
        other => Err(ScenarioError::new(
            line,
            format!("{key:?} expects a string, got {}", other.type_name()),
        )),
    }
}

/// Parses a `"default"` / `"steer+coalesce+mono"` mitigation combo.
fn parse_mitigation_combo(value: &Value, line: usize) -> Result<Mitigation, ScenarioError> {
    let text = expect_str(value, "mitigation", line)?;
    if text == "default" || text == "none" {
        return Ok(Mitigation::DEFAULT);
    }
    let mut m = Mitigation::DEFAULT;
    for part in text.split('+') {
        match part.trim() {
            "steer" => m.steer_single_core = true,
            "coalesce" => m.coalesce = true,
            "mono" | "monolithic" => m.monolithic_bottom_half = true,
            other => {
                return Err(ScenarioError::new(
                    line,
                    format!(
                        "unknown mitigation {other:?} in combo {text:?} \
                         (expected \"default\" or a +-joined subset of \
                         steer, coalesce, mono)"
                    ),
                ));
            }
        }
    }
    Ok(m)
}

/// One cartesian sweep axis: a field and the values it ranges over.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepAxis {
    /// Swept knob.
    pub field: Field,
    /// Values, in file order (each validated for the field's type).
    pub values: Vec<Value>,
    /// Line the axis was declared on.
    pub line: usize,
}

/// Workload mix: the CPU × GPU application grid.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// CPU (PARSEC) application names, all catalog-checked.
    pub cpu: Vec<String>,
    /// GPU application names, all catalog-checked.
    pub gpu: Vec<String>,
    /// Quick-mode CPU subset (defaults to the first two of `cpu`).
    pub quick_cpu: Vec<String>,
    /// Quick-mode GPU subset (defaults to the first two of `gpu`).
    pub quick_gpu: Vec<String>,
}

/// Aggregation applied to a row metric before band-checking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    Mean,
    Min,
    Max,
}

/// One `[expect]` band: `agg_metric = [lo, hi]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Expect {
    /// The band's key as written (`"mean_cpu_perf"`).
    pub key: String,
    /// Aggregation over the result rows.
    pub agg: Agg,
    /// Result column aggregated (an entry of [`COLUMNS`] with a band
    /// stem).
    pub column: &'static Column,
    /// Inclusive lower bound.
    pub lo: f64,
    /// Inclusive upper bound.
    pub hi: f64,
    /// Line the band was declared on.
    pub line: usize,
}

/// Declarative device topology (`[topology]`): the explicit list of
/// SSR-raising device instances a cell runs, with optional per-device
/// MSI steering. When present it replaces the `gpus` count — the GPU
/// application from the workload grid runs on every `gpu`-kind
/// instance, and `nic`/`dma` instances add their default-parameter
/// interference streams.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    /// Device model kinds, one per instance, in device-index order.
    pub devices: Vec<DeviceKind>,
    /// Per-device steering override, parallel to `devices`; `None`
    /// follows the system-wide policy (`-1` in the file).
    pub steer: Vec<Option<usize>>,
    /// Line the `devices` list was declared on.
    pub line: usize,
    /// Line the `steer` list was declared on (the `devices` line when
    /// the scenario has no explicit `steer`).
    pub steer_line: usize,
}

impl Topology {
    /// Number of GPU-kind instances.
    pub fn gpu_count(&self) -> usize {
        self.devices
            .iter()
            .filter(|k| **k == DeviceKind::Gpu)
            .count()
    }

    /// Compact rendering for labels and store keys: `gpu@-,nic@0`
    /// (`@-` = shared steering policy, `@N` = pinned to core N).
    pub fn render(&self) -> String {
        self.devices
            .iter()
            .zip(&self.steer)
            .map(|(kind, steer)| match steer {
                Some(core) => format!("{}@{core}", kind.name()),
                None => format!("{}@-", kind.name()),
            })
            .collect::<Vec<_>>()
            .join(",")
    }
}

/// A fully validated scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (`[scenario] name`).
    pub name: String,
    /// One-line description.
    pub description: String,
    /// Base knobs from `[system]` + `[mitigation]` (sweep axes and
    /// replicas refine these per cell).
    pub base: Knobs,
    /// Workload mix.
    pub workload: Workload,
    /// Declarative device topology, when `[topology]` is present
    /// (replaces the `gpus` count).
    pub topology: Option<Topology>,
    /// CPU applications assigned the critical class (`[criticality]
    /// critical`); cells running any other CPU application drop the
    /// class machinery entirely. Empty when the scenario has no
    /// `[criticality]` section.
    pub critical_apps: Vec<String>,
    /// Sweep axes in file order (first axis is the outermost loop).
    pub sweeps: Vec<SweepAxis>,
    /// Number of replicas per cell (replica *i* runs with `seed + i`).
    pub replicas: u32,
    /// Expected exact row count, if pinned (`[run] rows`).
    pub expected_rows: Option<usize>,
    /// Metric bands.
    pub expects: Vec<Expect>,
    /// Path the scenario was loaded from ([`crate::load`] sets it;
    /// `from_str` leaves `None`), used to attribute violations.
    pub source: Option<String>,
}

const SECTIONS: &[&str] = &[
    "scenario",
    "system",
    "mitigation",
    "workload",
    "topology",
    "criticality",
    "run",
    "sweep",
    "expect",
];

impl std::str::FromStr for Scenario {
    type Err = ScenarioError;

    fn from_str(text: &str) -> Result<Scenario, ScenarioError> {
        Scenario::from_document(&crate::parse::parse(text)?)
    }
}

impl Scenario {
    /// Parses and validates scenario text in one step (an inherent
    /// mirror of the [`FromStr`](std::str::FromStr) impl, callable
    /// without the trait in scope).
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(text: &str) -> Result<Scenario, ScenarioError> {
        <Scenario as std::str::FromStr>::from_str(text)
    }

    /// Validates a parsed [`Document`] against the scenario schema.
    pub fn from_document(doc: &Document) -> Result<Scenario, ScenarioError> {
        for s in &doc.sections {
            if !SECTIONS.contains(&s.name.as_str()) {
                return Err(ScenarioError::new(
                    s.line,
                    format!(
                        "unknown section [{}] (expected one of: {})",
                        s.name,
                        SECTIONS.join(", ")
                    ),
                ));
            }
        }

        // [scenario]
        let meta = doc
            .section("scenario")
            .ok_or_else(|| ScenarioError::new(0, "missing required [scenario] section"))?;
        let mut name = None;
        let mut description = String::new();
        for e in &meta.entries {
            match e.key.as_str() {
                "name" => name = Some(expect_str(&e.value, "name", e.line)?.to_string()),
                "description" => {
                    description = expect_str(&e.value, "description", e.line)?.to_string()
                }
                other => {
                    return Err(unknown_key(
                        e.line,
                        other,
                        "scenario",
                        &["name", "description"],
                    ));
                }
            }
        }
        let name = name
            .ok_or_else(|| ScenarioError::new(meta.line, "[scenario] must set `name = \"...\"`"))?;
        if name.is_empty() {
            return Err(ScenarioError::new(
                meta.line,
                "scenario name must not be empty",
            ));
        }

        // [system] + [mitigation] → base knobs.
        let mut base = Knobs::default();
        if let Some(sys) = doc.section("system") {
            for e in &sys.entries {
                let field = Field::by_key(&e.key)
                    .filter(|f| Field::SYSTEM.contains(f))
                    .ok_or_else(|| unknown_field_key(e.line, &e.key, "system", Field::SYSTEM))?;
                field.apply(&mut base, &e.value, e.line)?;
            }
        }
        if let Some(mit) = doc.section("mitigation") {
            for e in &mit.entries {
                let field = Field::by_key(&e.key)
                    .filter(|f| Field::MITIGATION.contains(f))
                    .ok_or_else(|| {
                        unknown_field_key(e.line, &e.key, "mitigation", Field::MITIGATION)
                    })?;
                field.apply(&mut base, &e.value, e.line)?;
            }
        }

        // [workload]
        let wl = doc
            .section("workload")
            .ok_or_else(|| ScenarioError::new(0, "missing required [workload] section"))?;
        let mut cpu = Vec::new();
        let mut gpu = Vec::new();
        let mut quick_cpu = None;
        let mut quick_gpu = None;
        for e in &wl.entries {
            match e.key.as_str() {
                "cpu" => cpu = app_list(e, CatalogKind::Cpu)?,
                "gpu" => gpu = app_list(e, CatalogKind::Gpu)?,
                "quick_cpu" => quick_cpu = Some(app_list(e, CatalogKind::Cpu)?),
                "quick_gpu" => quick_gpu = Some(app_list(e, CatalogKind::Gpu)?),
                other => {
                    return Err(unknown_key(
                        e.line,
                        other,
                        "workload",
                        &["cpu", "gpu", "quick_cpu", "quick_gpu"],
                    ));
                }
            }
        }
        if cpu.is_empty() {
            return Err(ScenarioError::new(
                wl.line,
                "[workload] must set a non-empty `cpu = [...]` list",
            ));
        }
        if gpu.is_empty() {
            return Err(ScenarioError::new(
                wl.line,
                "[workload] must set a non-empty `gpu = [...]` list",
            ));
        }
        let workload = Workload {
            quick_cpu: quick_cpu.unwrap_or_else(|| cpu.iter().take(2).cloned().collect()),
            quick_gpu: quick_gpu.unwrap_or_else(|| gpu.iter().take(2).cloned().collect()),
            cpu,
            gpu,
        };

        // [topology]
        let mut topology = None;
        if let Some(top) = doc.section("topology") {
            topology = Some(parse_topology(top)?);
        }
        if let Some(t) = &topology {
            // The device list fixes the GPU count, so a `gpus` base key
            // or sweep axis would silently disagree with it.
            if let Some(e) = doc.section("system").and_then(|s| s.get("gpus")) {
                return Err(ScenarioError::new(
                    e.line,
                    "[system] `gpus` conflicts with [topology]: the device list \
                     already fixes the GPU count",
                ));
            }
            base.gpus = t.gpu_count();
        }

        // [criticality] — parsed after [workload]/[topology] (its app
        // and device references are validated against them) and before
        // [sweep] (swept criticality knobs trial-apply against `base`,
        // which must already carry `Some` config).
        let mut critical_apps: Vec<String> = Vec::new();
        if let Some(crit) = doc.section("criticality") {
            base.criticality = Some(CriticalityConfig::default());
            let mut devices_line = None;
            for e in &crit.entries {
                match e.key.as_str() {
                    "critical" => {
                        critical_apps = parse_critical_apps(e, &workload)?;
                    }
                    "critical_devices" => {
                        let cfg = base.criticality.as_mut().expect("set above");
                        cfg.critical_device_mask = parse_critical_devices(e, topology.as_ref())?;
                        devices_line = Some(e.line);
                    }
                    other => {
                        let field = Field::by_key(other)
                            .filter(|f| Field::CRITICALITY.contains(f))
                            .ok_or_else(|| {
                                let mut keys = vec!["critical", "critical_devices"];
                                keys.extend(Field::CRITICALITY.iter().map(|f| f.key()));
                                unknown_key(e.line, other, "criticality", &keys)
                            })?;
                        field.apply(&mut base, &e.value, e.line)?;
                    }
                }
            }
            if critical_apps.is_empty() {
                return Err(ScenarioError::new(
                    crit.line,
                    "[criticality] must assign at least one CPU application to \
                     the critical class (`critical = [...]`)",
                ));
            }
            if base.criticality.expect("set above").critical_device_mask == 0 {
                return Err(ScenarioError::new(
                    devices_line.unwrap_or(crit.line),
                    "[criticality] must mark at least one device critical \
                     (`critical_devices = [...]`)",
                ));
            }
        }

        // [run]
        let mut replicas = 1u32;
        let mut expected_rows = None;
        if let Some(run) = doc.section("run") {
            for e in &run.entries {
                match e.key.as_str() {
                    "replicas" => {
                        replicas = expect_int(&e.value, "replicas", e.line, 1, 64)
                            .map_err(|err| err.with_code(hiss_lint::Code::BadReplicas))?
                            as u32
                    }
                    "rows" => {
                        expected_rows =
                            Some(expect_int(&e.value, "rows", e.line, 0, i64::MAX)? as usize)
                    }
                    other => {
                        return Err(unknown_key(e.line, other, "run", &["replicas", "rows"]));
                    }
                }
            }
        }

        // [sweep]
        let mut sweeps = Vec::new();
        if let Some(sw) = doc.section("sweep") {
            for e in &sw.entries {
                let field = Field::by_key(&e.key).ok_or_else(|| {
                    let keys: Vec<&str> = Field::SYSTEM
                        .iter()
                        .chain(Field::MITIGATION)
                        .chain(Field::CRITICALITY)
                        .map(|f| f.key())
                        .collect();
                    unknown_key(e.line, &e.key, "sweep", &keys)
                })?;
                let Value::List(values) = &e.value else {
                    return Err(ScenarioError::new(
                        e.line,
                        format!(
                            "sweep axis {:?} expects a list of values, got {}",
                            e.key,
                            e.value.type_name()
                        ),
                    ));
                };
                if values.is_empty() {
                    return Err(ScenarioError::new(
                        e.line,
                        format!("sweep axis {:?} must not be empty", e.key),
                    )
                    .with_code(hiss_lint::Code::EmptySweepAxis));
                }
                // Validate every value by trial application.
                let mut scratch = base;
                for v in values {
                    field.apply(&mut scratch, v, e.line)?;
                }
                sweeps.push(SweepAxis {
                    field,
                    values: values.clone(),
                    line: e.line,
                });
            }
        }
        if topology.is_some() {
            if let Some(axis) = sweeps.iter().find(|a| a.field == Field::Gpus) {
                return Err(ScenarioError::new(
                    axis.line,
                    "sweep axis `gpus` conflicts with [topology]: the device list \
                     already fixes the GPU count",
                ));
            }
        }

        // Every interrupt-steering target must be a valid core under
        // every swept core count (HL012): an out-of-range target would
        // misroute or abort mid-simulation.
        let min_cores = sweeps
            .iter()
            .filter(|a| a.field == Field::Cores)
            .flat_map(|a| &a.values)
            .filter_map(|v| match v {
                Value::Int(i) => Some(*i as usize),
                _ => None,
            })
            .min()
            .unwrap_or(base.cfg.num_cores);
        let steer_oor = |line: usize, what: String, core: usize| {
            ScenarioError::new(
                line,
                format!(
                    "{what} pins core {core}, but the scenario runs with as few as \
                     {min_cores} cores (a steering target must satisfy 0 <= core < cores)"
                ),
            )
            .with_code(hiss_lint::Code::SteerTargetOutOfRange)
        };
        if let Some(e) = doc.section("system").and_then(|s| s.get("steer_target")) {
            if base.cfg.steer_target.0 >= min_cores {
                return Err(steer_oor(
                    e.line,
                    "`steer_target`".to_string(),
                    base.cfg.steer_target.0,
                ));
            }
        }
        for axis in sweeps.iter().filter(|a| a.field == Field::SteerTarget) {
            for v in &axis.values {
                if let Value::Int(i) = v {
                    if *i as usize >= min_cores {
                        return Err(steer_oor(
                            axis.line,
                            "`steer_target` sweep value".to_string(),
                            *i as usize,
                        ));
                    }
                }
            }
        }
        if let Some(t) = &topology {
            for (i, core) in t.steer.iter().enumerate() {
                if let Some(core) = core {
                    if *core >= min_cores {
                        return Err(steer_oor(
                            t.steer_line,
                            format!("[topology] steer entry for device {i}"),
                            *core,
                        ));
                    }
                }
            }
        }

        // The critical partition must leave at least one best-effort
        // core under every swept core count, or `Soc::new` would abort
        // mid-batch.
        let crit_cores_oor = |line: usize, what: &str, n: usize| {
            ScenarioError::new(
                line,
                format!(
                    "{what} reserves {n} critical cores, but the scenario runs \
                     with as few as {min_cores} cores (at least one best-effort \
                     core must remain)"
                ),
            )
        };
        if let Some(c) = &base.criticality {
            if c.critical_cores >= min_cores {
                let line = doc
                    .section("criticality")
                    .and_then(|s| s.get("critical_cores"))
                    .map(|e| e.line)
                    .unwrap_or(0);
                return Err(crit_cores_oor(line, "`critical_cores`", c.critical_cores));
            }
        }
        for axis in sweeps.iter().filter(|a| a.field == Field::CritCores) {
            for v in &axis.values {
                if let Value::Int(i) = v {
                    if *i as usize >= min_cores {
                        return Err(crit_cores_oor(
                            axis.line,
                            "`critical_cores` sweep value",
                            *i as usize,
                        ));
                    }
                }
            }
        }

        // [expect]
        let mut expects = Vec::new();
        if let Some(ex) = doc.section("expect") {
            for e in &ex.entries {
                expects.push(parse_expect(e)?);
            }
        }

        Ok(Scenario {
            name,
            description,
            base,
            workload,
            topology,
            critical_apps,
            sweeps,
            replicas,
            expected_rows,
            expects,
            source: None,
        })
    }

    /// The CPU-app list used in the given mode.
    pub fn cpu_apps(&self, quick: bool) -> &[String] {
        if quick {
            &self.workload.quick_cpu
        } else {
            &self.workload.cpu
        }
    }

    /// The GPU-app list used in the given mode.
    pub fn gpu_apps(&self, quick: bool) -> &[String] {
        if quick {
            &self.workload.quick_gpu
        } else {
            &self.workload.gpu
        }
    }
}

/// Validates one `[topology]` section into a [`Topology`].
fn parse_topology(top: &crate::parse::Section) -> Result<Topology, ScenarioError> {
    let mut devices: Option<(Vec<DeviceKind>, usize)> = None;
    let mut steer: Option<(Vec<Option<usize>>, usize)> = None;
    for e in &top.entries {
        match e.key.as_str() {
            "devices" => {
                let Value::List(items) = &e.value else {
                    return Err(ScenarioError::new(
                        e.line,
                        format!(
                            "\"devices\" expects a list of device kinds, got {}",
                            e.value.type_name()
                        ),
                    ));
                };
                let mut kinds = Vec::with_capacity(items.len());
                for item in items {
                    let name = expect_str(item, "devices", e.line)?;
                    let kind = DeviceKind::by_name(name).ok_or_else(|| {
                        let catalog: Vec<&str> = DeviceKind::ALL.iter().map(|k| k.name()).collect();
                        let mut msg = format!(
                            "unknown device kind {name:?} (kinds: {})",
                            catalog.join(", ")
                        );
                        if let Some(suggestion) = crate::nearest(name, &catalog) {
                            msg.push_str(&format!("; did you mean {suggestion:?}?"));
                        }
                        ScenarioError::new(e.line, msg)
                    })?;
                    kinds.push(kind);
                }
                if kinds.is_empty() {
                    return Err(ScenarioError::new(
                        e.line,
                        "[topology] `devices` must list at least one device",
                    ));
                }
                devices = Some((kinds, e.line));
            }
            "steer" => {
                let Value::List(items) = &e.value else {
                    return Err(ScenarioError::new(
                        e.line,
                        format!(
                            "\"steer\" expects a list of core indices \
                             (-1 = shared policy), got {}",
                            e.value.type_name()
                        ),
                    ));
                };
                let mut out = Vec::with_capacity(items.len());
                for item in items {
                    let i = expect_int(item, "steer", e.line, -1, 63)?;
                    out.push((i >= 0).then_some(i as usize));
                }
                steer = Some((out, e.line));
            }
            other => {
                return Err(unknown_key(
                    e.line,
                    other,
                    "topology",
                    &["devices", "steer"],
                ));
            }
        }
    }
    let Some((devices, line)) = devices else {
        return Err(ScenarioError::new(
            top.line,
            "[topology] must set `devices = [...]`",
        ));
    };
    if !devices.contains(&DeviceKind::Gpu) {
        return Err(ScenarioError::new(
            line,
            "[topology] must include at least one \"gpu\" device (the workload \
             grid's GPU application runs on it)",
        ));
    }
    let (steer, steer_line) = steer.unwrap_or_else(|| (vec![None; devices.len()], line));
    if steer.len() != devices.len() {
        return Err(ScenarioError::new(
            steer_line,
            format!(
                "`steer` must list exactly one entry per device ({} devices, \
                 {} steer entries); use -1 to keep the shared policy",
                devices.len(),
                steer.len()
            ),
        ));
    }
    Ok(Topology {
        devices,
        steer,
        line,
        steer_line,
    })
}

/// Validates `critical = [...]`: a non-empty subset of the workload's
/// CPU applications.
fn parse_critical_apps(entry: &Entry, workload: &Workload) -> Result<Vec<String>, ScenarioError> {
    let Value::List(items) = &entry.value else {
        return Err(ScenarioError::new(
            entry.line,
            format!(
                "\"critical\" expects a list of CPU application names, got {}",
                entry.value.type_name()
            ),
        ));
    };
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        let name = expect_str(item, "critical", entry.line)?;
        if !workload.cpu.iter().any(|n| n == name) {
            return Err(ScenarioError::new(
                entry.line,
                format!(
                    "critical application {name:?} is not in the [workload] cpu \
                     list ({})",
                    workload.cpu.join(", ")
                ),
            ));
        }
        if out.iter().any(|n| n == name) {
            return Err(ScenarioError::new(
                entry.line,
                format!("application {name:?} listed twice in \"critical\""),
            ));
        }
        out.push(name.to_string());
    }
    Ok(out)
}

/// Validates `critical_devices = [...]` into the device-index bitmask.
fn parse_critical_devices(
    entry: &Entry,
    topology: Option<&Topology>,
) -> Result<u64, ScenarioError> {
    let Value::List(items) = &entry.value else {
        return Err(ScenarioError::new(
            entry.line,
            format!(
                "\"critical_devices\" expects a list of device indices, got {}",
                entry.value.type_name()
            ),
        ));
    };
    let mut mask = 0u64;
    for item in items {
        let i = expect_int(item, "critical_devices", entry.line, 0, 63)?;
        if let Some(t) = topology {
            if i as usize >= t.devices.len() {
                return Err(ScenarioError::new(
                    entry.line,
                    format!(
                        "critical device index {i} is out of range: [topology] \
                         declares {} devices",
                        t.devices.len()
                    ),
                ));
            }
        }
        if mask & (1 << i) != 0 {
            return Err(ScenarioError::new(
                entry.line,
                format!("device index {i} listed twice in \"critical_devices\""),
            ));
        }
        mask |= 1 << i;
    }
    Ok(mask)
}

/// Which catalog an application list is checked against.
enum CatalogKind {
    Cpu,
    Gpu,
}

fn app_list(entry: &Entry, kind: CatalogKind) -> Result<Vec<String>, ScenarioError> {
    let Value::List(items) = &entry.value else {
        return Err(ScenarioError::new(
            entry.line,
            format!(
                "{:?} expects a list of application names, got {}",
                entry.key,
                entry.value.type_name()
            ),
        ));
    };
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        let name = expect_str(item, &entry.key, entry.line)?;
        let known = match kind {
            CatalogKind::Cpu => ExperimentBuilder::knows_cpu_app(name),
            CatalogKind::Gpu => hiss_workloads::GpuAppSpec::by_name(name).is_some(),
        };
        if !known {
            let catalog: Vec<&str> = match kind {
                CatalogKind::Cpu => hiss_workloads::parsec_suite()
                    .iter()
                    .map(|s| s.name)
                    .chain([IDLE_CPU])
                    .collect(),
                CatalogKind::Gpu => hiss_workloads::gpu_suite().iter().map(|s| s.name).collect(),
            };
            return Err(ScenarioError::new(
                entry.line,
                format!(
                    "unknown {} application {name:?} (catalog: {})",
                    match kind {
                        CatalogKind::Cpu => "CPU",
                        CatalogKind::Gpu => "GPU",
                    },
                    catalog.join(", ")
                ),
            ));
        }
        if out.iter().any(|n| n == name) {
            return Err(ScenarioError::new(
                entry.line,
                format!("application {name:?} listed twice in {:?}", entry.key),
            ));
        }
        out.push(name.to_string());
    }
    Ok(out)
}

fn parse_expect(entry: &Entry) -> Result<Expect, ScenarioError> {
    let (agg, stem) = if let Some(stem) = entry.key.strip_prefix("mean_") {
        (Agg::Mean, stem)
    } else if let Some(stem) = entry.key.strip_prefix("min_") {
        (Agg::Min, stem)
    } else if let Some(stem) = entry.key.strip_prefix("max_") {
        (Agg::Max, stem)
    } else {
        return Err(ScenarioError::new(
            entry.line,
            format!(
                "expect band {:?} must start with mean_, min_, or max_",
                entry.key
            ),
        ));
    };
    let column = COLUMNS.iter().find(|c| c.stem == Some(stem));
    let column = column.ok_or_else(|| {
        let metrics: Vec<&str> = COLUMNS.iter().filter_map(|c| c.stem).collect();
        let mut msg = format!(
            "unknown expect metric {stem:?} in {:?} (metrics: {})",
            entry.key,
            metrics.join(", ")
        );
        if let Some(suggestion) = crate::nearest(stem, &metrics) {
            msg.push_str(&format!("; did you mean {suggestion:?}?"));
        }
        ScenarioError::new(entry.line, msg).with_code(hiss_lint::Code::UnknownExpectMetric)
    })?;
    let Value::List(band) = &entry.value else {
        return Err(ScenarioError::new(
            entry.line,
            format!(
                "expect band {:?} must be `[lo, hi]`, got {}",
                entry.key,
                entry.value.type_name()
            ),
        ));
    };
    let [lo, hi] = band.as_slice() else {
        return Err(ScenarioError::new(
            entry.line,
            format!(
                "expect band {:?} must have exactly two entries, got {}",
                entry.key,
                band.len()
            ),
        ));
    };
    let lo = expect_number(lo, &entry.key, entry.line)?;
    let hi = expect_number(hi, &entry.key, entry.line)?;
    if lo > hi {
        return Err(ScenarioError::new(
            entry.line,
            format!("expect band {:?} is empty: lo {lo} > hi {hi}", entry.key),
        )
        .with_code(hiss_lint::Code::EmptyExpectBand));
    }
    Ok(Expect {
        key: entry.key.clone(),
        agg,
        column,
        lo,
        hi,
        line: entry.line,
    })
}

fn unknown_key(line: usize, key: &str, section: &str, valid: &[&str]) -> ScenarioError {
    let mut msg = format!(
        "unknown key {key:?} in [{section}] (expected one of: {})",
        valid.join(", ")
    );
    if let Some(suggestion) = crate::nearest(key, valid) {
        msg.push_str(&format!("; did you mean {suggestion:?}?"));
    }
    ScenarioError::new(line, msg)
}

fn unknown_field_key(line: usize, key: &str, section: &str, valid: &[Field]) -> ScenarioError {
    let keys: Vec<&str> = valid.iter().map(|f| f.key()).collect();
    unknown_key(line, key, section, &keys)
}

impl Expect {
    /// Renders the aggregated band as text (`mean_cpu_perf in [0.4, 1]`).
    pub fn describe(&self) -> String {
        format!("{} in [{}, {}]", self.key, self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"
[scenario]
name = "t"
[workload]
cpu = ["x264"]
gpu = ["ubench"]
"#;

    fn with(extra: &str) -> String {
        format!("{MINIMAL}{extra}")
    }

    #[test]
    fn minimal_scenario_defaults() {
        let sc = Scenario::from_str(MINIMAL).unwrap();
        assert_eq!(sc.name, "t");
        assert_eq!(sc.base, Knobs::default());
        assert_eq!(sc.replicas, 1);
        assert!(sc.sweeps.is_empty());
        assert!(sc.expects.is_empty());
        // Quick subsets default to the (short) full lists.
        assert_eq!(sc.cpu_apps(true), sc.cpu_apps(false));
    }

    #[test]
    fn system_and_mitigation_overrides_apply() {
        let sc = Scenario::from_str(&with(
            "[system]\ncores = 2\ngpus = 3\nseed = 7\ntimer_tick_us = 0\ncc6 = false\n\
             [mitigation]\nsteer = true\nqos_percent = 5\n",
        ))
        .unwrap();
        assert_eq!(sc.base.cfg.num_cores, 2);
        assert_eq!(sc.base.gpus, 3);
        assert_eq!(sc.base.cfg.seed, 7);
        assert_eq!(sc.base.cfg.timer_tick, Ns::ZERO);
        assert_eq!(sc.base.cfg.cpu.cstate.entry_threshold, Ns::MAX);
        assert!(sc.base.mitigation.steer_single_core);
        assert_eq!(sc.base.qos_percent, 5.0);
    }

    #[test]
    fn mitigation_combo_strings() {
        let sc = Scenario::from_str(&with(
            "[sweep]\nmitigation = [\"default\", \"steer+mono\"]\n",
        ))
        .unwrap();
        assert_eq!(sc.sweeps.len(), 1);
        let mut k = Knobs::default();
        Field::MitigationCombo
            .apply(&mut k, &Value::Str("steer+coalesce+mono".into()), 1)
            .unwrap();
        assert!(k.mitigation.steer_single_core);
        assert!(k.mitigation.coalesce);
        assert!(k.mitigation.monolithic_bottom_half);
    }

    #[test]
    fn bad_mitigation_combo_is_positioned() {
        let text = with("[sweep]\nmitigation = [\"default\", \"coalese\"]\n");
        let err = Scenario::from_str(&text).unwrap_err();
        assert_eq!(err.line, 8);
        assert!(err.msg.contains("unknown mitigation"), "{}", err.msg);
    }

    #[test]
    fn unknown_section_and_keys_are_errors() {
        let err = Scenario::from_str(&with("[sweeps]\nx = [1]\n")).unwrap_err();
        assert!(err.msg.contains("unknown section"), "{}", err.msg);
        assert_eq!(err.line, 7);

        let err = Scenario::from_str(&with("[system]\ncoers = 4\n")).unwrap_err();
        assert_eq!(err.line, 8);
        assert!(err.msg.contains("did you mean \"cores\""), "{}", err.msg);
    }

    #[test]
    fn unknown_workload_names_list_the_catalog() {
        let err = Scenario::from_str(
            "[scenario]\nname = \"t\"\n[workload]\ncpu = [\"quake\"]\ngpu = [\"ubench\"]\n",
        )
        .unwrap_err();
        assert_eq!(err.line, 4);
        assert!(err.msg.contains("unknown CPU application"), "{}", err.msg);
        assert!(err.msg.contains("x264, idle)"), "{}", err.msg);
        // `idle` (no CPU application) is a CPU workload, not a GPU one.
        let pack = |cpu: &str, gpu: &str| {
            Scenario::from_str(&format!(
                "[scenario]\nname = \"t\"\n[workload]\ncpu = [{cpu}]\ngpu = [{gpu}]\n"
            ))
        };
        let sc = pack("\"idle\", \"x264\"", "\"ubench\"").unwrap();
        assert_eq!(sc.cpu_apps(false), ["idle", "x264"]);
        let err = pack("\"x264\"", "\"idle\"").unwrap_err();
        assert!(err.msg.contains("unknown GPU application"), "{}", err.msg);
    }

    #[test]
    fn empty_sweep_axis_is_an_error() {
        let err = Scenario::from_str(&with("[sweep]\ngpus = []\n")).unwrap_err();
        assert_eq!(err.line, 8);
        assert!(err.msg.contains("must not be empty"), "{}", err.msg);
    }

    #[test]
    fn sweep_values_are_type_checked() {
        let err = Scenario::from_str(&with("[sweep]\ngpus = [1, \"two\"]\n")).unwrap_err();
        assert_eq!(err.line, 8);
        assert!(err.msg.contains("expects an integer"), "{}", err.msg);
    }

    #[test]
    fn expect_bands_parse_and_reject_garbage() {
        let sc = Scenario::from_str(&with(
            "[expect]\nmean_cpu_perf = [0.4, 1.0]\nmax_p99_latency_us = [0, 500]\n",
        ))
        .unwrap();
        assert_eq!(sc.expects.len(), 2);
        assert_eq!(sc.expects[0].agg, Agg::Mean);
        assert_eq!(sc.expects[0].column.key, "cpu_perf");
        assert_eq!(sc.expects[1].agg, Agg::Max);
        assert_eq!(sc.expects[1].column.key, "p99_ssr_latency_us");

        let err = Scenario::from_str(&with("[expect]\ncpu_perf = [0, 1]\n")).unwrap_err();
        assert!(err.msg.contains("must start with"), "{}", err.msg);

        let err = Scenario::from_str(&with("[expect]\nmean_cpu_pref = [0, 1]\n")).unwrap_err();
        assert!(err.msg.contains("unknown expect metric"), "{}", err.msg);

        let err = Scenario::from_str(&with("[expect]\nmean_cpu_perf = [1.0, 0.4]\n")).unwrap_err();
        assert!(err.msg.contains("empty"), "{}", err.msg);

        let err = Scenario::from_str(&with("[expect]\nmean_cpu_perf = [1.0]\n")).unwrap_err();
        assert!(err.msg.contains("exactly two"), "{}", err.msg);
    }

    #[test]
    fn missing_required_sections_are_errors() {
        let err =
            Scenario::from_str("[workload]\ncpu = [\"x264\"]\ngpu = [\"ubench\"]\n").unwrap_err();
        assert!(err.msg.contains("[scenario]"), "{}", err.msg);

        let err = Scenario::from_str("[scenario]\nname = \"t\"\n").unwrap_err();
        assert!(err.msg.contains("[workload]"), "{}", err.msg);
    }

    #[test]
    fn qos_percent_range_checked() {
        let err = Scenario::from_str(&with("[mitigation]\nqos_percent = 101\n")).unwrap_err();
        assert!(err.msg.contains("[0, 100]"), "{}", err.msg);
    }

    #[test]
    fn topology_parses_and_fixes_the_gpu_count() {
        let sc = Scenario::from_str(&with(
            "[topology]\ndevices = [\"gpu\", \"nic\", \"gpu\", \"dma\"]\nsteer = [-1, 0, -1, 3]\n",
        ))
        .unwrap();
        let t = sc.topology.as_ref().unwrap();
        assert_eq!(t.devices.len(), 4);
        assert_eq!(t.gpu_count(), 2);
        assert_eq!(t.steer, vec![None, Some(0), None, Some(3)]);
        assert_eq!(t.render(), "gpu@-,nic@0,gpu@-,dma@3");
        // The device list fixes the GPU count on the base knobs.
        assert_eq!(sc.base.gpus, 2);

        // steer defaults to the shared policy for every device.
        let sc = Scenario::from_str(&with("[topology]\ndevices = [\"gpu\", \"nic\"]\n")).unwrap();
        assert_eq!(sc.topology.unwrap().steer, vec![None, None]);
    }

    #[test]
    fn topology_requires_known_kinds_and_a_gpu() {
        let err =
            Scenario::from_str(&with("[topology]\ndevices = [\"gpu\", \"nick\"]\n")).unwrap_err();
        assert_eq!(err.line, 8);
        assert!(err.msg.contains("unknown device kind"), "{}", err.msg);
        assert!(err.msg.contains("did you mean \"nic\""), "{}", err.msg);

        let err =
            Scenario::from_str(&with("[topology]\ndevices = [\"nic\", \"dma\"]\n")).unwrap_err();
        assert!(err.msg.contains("at least one \"gpu\""), "{}", err.msg);

        let err = Scenario::from_str(&with("[topology]\nsteer = [0]\n")).unwrap_err();
        assert!(err.msg.contains("`devices = [...]`"), "{}", err.msg);

        let err = Scenario::from_str(&with(
            "[topology]\ndevices = [\"gpu\", \"nic\"]\nsteer = [0]\n",
        ))
        .unwrap_err();
        assert!(err.msg.contains("one entry per device"), "{}", err.msg);
    }

    #[test]
    fn topology_conflicts_with_the_gpus_knob_and_axis() {
        let err = Scenario::from_str(&with(
            "[system]\ngpus = 2\n[topology]\ndevices = [\"gpu\"]\n",
        ))
        .unwrap_err();
        assert_eq!(err.line, 8);
        assert!(err.msg.contains("conflicts with [topology]"), "{}", err.msg);

        let err = Scenario::from_str(&with(
            "[topology]\ndevices = [\"gpu\"]\n[sweep]\ngpus = [1, 2]\n",
        ))
        .unwrap_err();
        assert_eq!(err.line, 10);
        assert!(err.msg.contains("conflicts with [topology]"), "{}", err.msg);
    }

    /// Out-of-range steering targets used to survive until a mid-run
    /// `assert!` in `MsiSteering::target`; they are now rejected at
    /// scenario-compile time with `HL012` (the runtime check is a
    /// `debug_assert`).
    #[test]
    fn steer_targets_are_range_checked_at_compile_time() {
        // `steer_target` beyond the default 4 cores.
        let err = Scenario::from_str(&with("[system]\nsteer_target = 4\n")).unwrap_err();
        assert_eq!(err.code, Some(hiss_lint::Code::SteerTargetOutOfRange));
        assert_eq!(err.line, 8);
        assert!(err.msg.contains("as few as 4 cores"), "{}", err.msg);

        // In range passes and lands on the config.
        let sc = Scenario::from_str(&with("[system]\nsteer_target = 3\n")).unwrap();
        assert_eq!(sc.base.cfg.steer_target, CoreId(3));

        // A cores sweep axis lowers the bound to its minimum.
        let err = Scenario::from_str(&with(
            "[system]\nsteer_target = 3\n[sweep]\ncores = [2, 8]\n",
        ))
        .unwrap_err();
        assert_eq!(err.code, Some(hiss_lint::Code::SteerTargetOutOfRange));
        assert!(err.msg.contains("as few as 2 cores"), "{}", err.msg);

        // Topology steer entries are held to the same range.
        let err = Scenario::from_str(&with(
            "[topology]\ndevices = [\"gpu\", \"nic\"]\nsteer = [-1, 7]\n",
        ))
        .unwrap_err();
        assert_eq!(err.code, Some(hiss_lint::Code::SteerTargetOutOfRange));
        assert_eq!(err.line, 9);
        assert!(err.msg.contains("device 1"), "{}", err.msg);

        // Swept steer_target values are each checked.
        let err = Scenario::from_str(&with("[sweep]\nsteer_target = [0, 5]\n")).unwrap_err();
        assert_eq!(err.code, Some(hiss_lint::Code::SteerTargetOutOfRange));
    }

    const TWO_APP: &str = r#"
[scenario]
name = "mc"
[workload]
cpu = ["raytrace", "x264"]
gpu = ["ubench"]
"#;

    #[test]
    fn criticality_section_parses_with_defaults_and_overrides() {
        let sc = Scenario::from_str(&format!(
            "{TWO_APP}[criticality]\ncritical = [\"raytrace\"]\ncritical_devices = [0]\n"
        ))
        .unwrap();
        assert_eq!(sc.critical_apps, vec!["raytrace"]);
        let c = sc.base.criticality.unwrap();
        assert_eq!(c.critical_device_mask, 0b1);
        assert!(c.reserve);
        assert_eq!(c.critical_cores, 1);
        assert_eq!(c.ppr_quota_percent, 50);

        let sc = Scenario::from_str(&format!(
            "{TWO_APP}[criticality]\ncritical = [\"raytrace\"]\ncritical_devices = [0]\n\
             reserve = false\nppr_quota_percent = 80\ncritical_cores = 2\n\
             critical_window_us = 0\nbest_effort_window_us = 13\n"
        ))
        .unwrap();
        let c = sc.base.criticality.unwrap();
        assert!(!c.reserve);
        assert_eq!(c.ppr_quota_percent, 80);
        assert_eq!(c.critical_cores, 2);
        assert_eq!(c.critical_window, Ns::ZERO);
        assert_eq!(c.best_effort_window, Ns::from_micros(13));
    }

    #[test]
    fn criticality_validates_apps_devices_and_required_keys() {
        // Critical app must be in the workload's cpu list.
        let err = Scenario::from_str(&format!(
            "{TWO_APP}[criticality]\ncritical = [\"canneal\"]\ncritical_devices = [0]\n"
        ))
        .unwrap_err();
        assert_eq!(err.line, 8);
        assert!(err.msg.contains("not in the [workload] cpu"), "{}", err.msg);

        // Device indices are range-checked against the topology.
        let err = Scenario::from_str(&format!(
            "{TWO_APP}[topology]\ndevices = [\"gpu\", \"nic\"]\n\
             [criticality]\ncritical = [\"raytrace\"]\ncritical_devices = [2]\n"
        ))
        .unwrap_err();
        assert!(err.msg.contains("out of range"), "{}", err.msg);

        // Both the app list and the device list are required.
        let err = Scenario::from_str(&format!("{TWO_APP}[criticality]\ncritical_devices = [0]\n"))
            .unwrap_err();
        assert!(err.msg.contains("`critical = [...]`"), "{}", err.msg);
        let err = Scenario::from_str(&format!(
            "{TWO_APP}[criticality]\ncritical = [\"raytrace\"]\n"
        ))
        .unwrap_err();
        assert!(
            err.msg.contains("`critical_devices = [...]`"),
            "{}",
            err.msg
        );
    }

    #[test]
    fn criticality_knobs_are_fenced_and_core_counts_checked() {
        // Criticality knobs cannot be swept without the section.
        let err = Scenario::from_str(&with("[sweep]\nreserve = [true, false]\n")).unwrap_err();
        assert!(
            err.msg.contains("requires a [criticality] section"),
            "{}",
            err.msg
        );

        // With the section present the same axis is legal.
        let sc = Scenario::from_str(&format!(
            "{TWO_APP}[criticality]\ncritical = [\"raytrace\"]\ncritical_devices = [0]\n\
             [sweep]\nreserve = [true, false]\n"
        ))
        .unwrap();
        assert_eq!(sc.sweeps.len(), 1);
        assert_eq!(sc.sweeps[0].field, Field::CritReserve);

        // Reserving every core (under the minimum swept count) is an
        // error: no best-effort core would remain to take interrupts.
        let err = Scenario::from_str(&format!(
            "{TWO_APP}[criticality]\ncritical = [\"raytrace\"]\ncritical_devices = [0]\n\
             critical_cores = 2\n[sweep]\ncores = [2, 8]\n"
        ))
        .unwrap_err();
        assert!(err.msg.contains("as few as 2 cores"), "{}", err.msg);
        let err = Scenario::from_str(&format!(
            "{TWO_APP}[criticality]\ncritical = [\"raytrace\"]\ncritical_devices = [0]\n\
             [sweep]\ncritical_cores = [1, 4]\n"
        ))
        .unwrap_err();
        assert!(err.msg.contains("sweep value"), "{}", err.msg);
    }

    #[test]
    fn critical_p99_band_parses() {
        let sc = Scenario::from_str(&with("[expect]\nmax_critical_p99_latency_us = [0, 200]\n"))
            .unwrap();
        assert_eq!(sc.expects[0].column.key, "critical_p99_latency_us");
        assert_eq!(
            sc.expects[0].column.schema,
            Some("qos.class0.p99_latency_us")
        );
    }
}
