//! The diagnostic model every lint pass reports through: stable codes,
//! severities, and a uniform `file:line: severity[HLxxx]: message`
//! rendering.
//!
//! Codes are grouped by pass — `HL0xx` scenario semantics, `HL2xx`
//! metric schema, `HL3xx` determinism/source, `HL4xx` conservation
//! laws and namespace coverage — and are **stable**: a
//! code never changes meaning, so CI logs, fixture goldens, and
//! `docs/LINTS.md` can refer to them permanently.

use std::fmt;

/// How bad a finding is.
///
/// `hiss-cli lint` exits nonzero on *any* finding; the severity records
/// whether the finding is a guaranteed failure (`Error`: the scenario
/// cannot run / a band cannot hold / determinism is at risk) or a
/// suspicious-but-runnable construct (`Warn`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Warn,
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warn => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Every stable diagnostic code the lint passes can emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Code {
    /// Scenario file failed to parse or validate for a reason without a
    /// more specific code.
    ScenarioInvalid,
    /// `[expect]` band names a metric that does not exist.
    UnknownExpectMetric,
    /// `[expect]` band is empty: `lo > hi`.
    EmptyExpectBand,
    /// `[expect]` bands can never bind: the row selection is empty
    /// (e.g. an empty quick-mode workload subset).
    EmptyRowSelection,
    /// `min_*` and `max_*` bands over the same metric contradict each
    /// other (`min` lower bound above the `max` upper bound).
    ContradictoryBands,
    /// `[sweep]` axis has no values.
    EmptySweepAxis,
    /// `[sweep]` axis has a single value — the sweep is degenerate.
    DegenerateSweepAxis,
    /// `[sweep]` axis lists the same value twice.
    DuplicateSweepValue,
    /// Two compiled cells resolve to identical knobs + workload +
    /// replica (aliasing sweep values, e.g. `"mono"` and
    /// `"monolithic"`).
    DuplicateCells,
    /// A `[system]`/`[mitigation]` key is fully overridden by a sweep
    /// axis, so its base value is never used.
    UnusedBaseKey,
    /// `[run] replicas` is zero or otherwise out of range.
    BadReplicas,
    /// `[run] rows` pins a row count that disagrees with the compiled
    /// grid.
    RowsMismatch,
    /// An interrupt-steering target (`[system] steer_target` or a
    /// `[topology] steer` entry) names a core outside every swept core
    /// count — the run would misroute or abort mid-simulation.
    SteerTargetOutOfRange,
    /// The full or quick grid expands to more cells than the lint
    /// budget allows (or its size overflows).
    GridTooLarge,
    /// A `cpu_perf` band over a grid with `idle` cells, whose
    /// `cpu_perf` is always null: the band fails on every run.
    IdleCpuPerfBand,
    /// An `[expect]` metric's registry mapping is missing from the
    /// `hiss-obs` schema.
    ExpectMetricNotInSchema,
    /// A metric name documented in `docs/OBSERVABILITY.md` is unknown
    /// to the `hiss-obs` schema.
    DocMetricNotInSchema,
    /// A `BENCH_BASELINE.json` entry is outside the `bench.*` namespace
    /// or does not resolve in the `hiss-obs` schema with the right kind.
    BenchMetricNotInSchema,
    /// Banned hash collection (`HashMap`/`HashSet`) in sim-state source.
    BannedHashCollection,
    /// Banned wall-clock construct (`Instant`/`SystemTime`) in
    /// sim-state source.
    BannedWallClock,
    /// Banned threading construct (`std::thread`) in sim-state source.
    BannedThreads,
    /// A `lint.toml` allowlist entry matched nothing.
    UnusedAllowEntry,
    /// A disk-store write in a `[scan] store_paths` file bypasses the
    /// atomic write-then-rename helper.
    StoreWriteBypass,
    /// Two `[expect]` bands contradict a declared conservation law
    /// (e.g. a lower bound on `events_popped` above an upper bound on
    /// `events_pushed` when popped ≤ pushed must hold).
    ExpectContradictsInvariant,
    /// A `BENCH_BASELINE.json` snapshot violates a declared bench-scope
    /// conservation law (a `bench.total.X` differs from its cell sum).
    BaselineInvariantViolated,
    /// A run/report metrics snapshot violates a declared conservation
    /// law (the runtime sanitizer's finding, surfaced as a lint when
    /// auditing snapshot files).
    RunInvariantViolated,
    /// A schema entry is exercised by no committed scenario, bench
    /// suite, or documentation row — dead namespace.
    DeadMetric,
    /// A scenario-spec knob is set by no committed scenario — dead
    /// grammar.
    DeadKnob,
}

impl Code {
    /// Every code, in `HLxxx` order (the `docs/LINTS.md` catalogue
    /// order; `docs_lints_md_catalogues_every_code` pins the agreement).
    pub const ALL: &'static [Code] = &[
        Code::ScenarioInvalid,
        Code::UnknownExpectMetric,
        Code::EmptyExpectBand,
        Code::EmptyRowSelection,
        Code::ContradictoryBands,
        Code::EmptySweepAxis,
        Code::DegenerateSweepAxis,
        Code::DuplicateSweepValue,
        Code::DuplicateCells,
        Code::UnusedBaseKey,
        Code::BadReplicas,
        Code::RowsMismatch,
        Code::SteerTargetOutOfRange,
        Code::GridTooLarge,
        Code::IdleCpuPerfBand,
        Code::ExpectMetricNotInSchema,
        Code::DocMetricNotInSchema,
        Code::BenchMetricNotInSchema,
        Code::BannedHashCollection,
        Code::BannedWallClock,
        Code::BannedThreads,
        Code::UnusedAllowEntry,
        Code::StoreWriteBypass,
        Code::ExpectContradictsInvariant,
        Code::BaselineInvariantViolated,
        Code::RunInvariantViolated,
        Code::DeadMetric,
        Code::DeadKnob,
    ];

    /// The stable `HLxxx` identifier.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::ScenarioInvalid => "HL000",
            Code::UnknownExpectMetric => "HL001",
            Code::EmptyExpectBand => "HL002",
            Code::EmptyRowSelection => "HL003",
            Code::ContradictoryBands => "HL004",
            Code::EmptySweepAxis => "HL005",
            Code::DegenerateSweepAxis => "HL006",
            Code::DuplicateSweepValue => "HL007",
            Code::DuplicateCells => "HL008",
            Code::UnusedBaseKey => "HL009",
            Code::BadReplicas => "HL010",
            Code::RowsMismatch => "HL011",
            Code::SteerTargetOutOfRange => "HL012",
            Code::GridTooLarge => "HL013",
            Code::IdleCpuPerfBand => "HL014",
            Code::ExpectMetricNotInSchema => "HL201",
            Code::DocMetricNotInSchema => "HL202",
            Code::BenchMetricNotInSchema => "HL203",
            Code::BannedHashCollection => "HL301",
            Code::BannedWallClock => "HL302",
            Code::BannedThreads => "HL303",
            Code::UnusedAllowEntry => "HL304",
            Code::StoreWriteBypass => "HL305",
            Code::ExpectContradictsInvariant => "HL401",
            Code::BaselineInvariantViolated => "HL402",
            Code::RunInvariantViolated => "HL403",
            Code::DeadMetric => "HL404",
            Code::DeadKnob => "HL405",
        }
    }

    /// The code's fixed severity.
    pub fn severity(self) -> Severity {
        match self {
            Code::DegenerateSweepAxis
            | Code::UnusedBaseKey
            | Code::UnusedAllowEntry
            | Code::DeadMetric
            | Code::DeadKnob => Severity::Warn,
            _ => Severity::Error,
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code.
    pub code: Code,
    /// File the finding is attributed to, when one exists (schema
    /// self-checks have none).
    pub file: Option<String>,
    /// 1-based line, 0 when the finding is file- or project-level.
    pub line: usize,
    /// Human-readable description.
    pub msg: String,
}

impl Diagnostic {
    /// Builds a diagnostic (severity is implied by the code).
    pub fn new(code: Code, file: Option<&str>, line: usize, msg: impl Into<String>) -> Self {
        Diagnostic {
            code,
            file: file.map(str::to_string),
            line,
            msg: msg.into(),
        }
    }

    /// The finding's severity (delegates to [`Code::severity`]).
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (&self.file, self.line) {
            (Some(file), 0) => write!(file_fmt(f), "{file}: ")?,
            (Some(file), line) => write!(file_fmt(f), "{file}:{line}: ")?,
            (None, 0) => {}
            (None, line) => write!(f, "line {line}: ")?,
        }
        write!(f, "{}[{}]: {}", self.severity(), self.code, self.msg)
    }
}

/// Identity helper keeping the `Display` impl readable above.
fn file_fmt<'a, 'b>(f: &'a mut fmt::Formatter<'b>) -> &'a mut fmt::Formatter<'b> {
    f
}

/// Sorts diagnostics for stable output: by file, then line, then code.
pub fn sort(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        (a.file.as_deref(), a.line, a.code, &a.msg).cmp(&(
            b.file.as_deref(),
            b.line,
            b.code,
            &b.msg,
        ))
    });
}

/// The closest string in `candidates` within edit distance 2 of `input`
/// (typo suggestions for flags, keys, and metric names).
pub fn nearest<'a>(input: &str, candidates: &[&'a str]) -> Option<&'a str> {
    candidates
        .iter()
        .map(|c| (edit_distance(input, c), *c))
        .filter(|(d, _)| *d <= 2)
        .min_by_key(|(d, _)| *d)
        .map(|(_, c)| c)
}

/// Levenshtein distance (small inputs only: flag and key names).
pub fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_stable() {
        let mut seen = std::collections::BTreeSet::new();
        for c in Code::ALL {
            assert!(seen.insert(c.as_str()), "duplicate code {c}");
            assert!(c.as_str().starts_with("HL"), "{c}");
            assert_eq!(c.as_str().len(), 5, "{c}");
        }
        assert_eq!(Code::ScenarioInvalid.as_str(), "HL000");
        assert_eq!(Code::BannedHashCollection.as_str(), "HL301");
    }

    #[test]
    fn rendering_covers_all_position_shapes() {
        let d = Diagnostic::new(Code::EmptyExpectBand, Some("a.hiss"), 7, "boom");
        assert_eq!(d.to_string(), "a.hiss:7: error[HL002]: boom");
        let d = Diagnostic::new(Code::ScenarioInvalid, Some("a.hiss"), 0, "boom");
        assert_eq!(d.to_string(), "a.hiss: error[HL000]: boom");
        let d = Diagnostic::new(Code::DegenerateSweepAxis, None, 3, "boom");
        assert_eq!(d.to_string(), "line 3: warning[HL006]: boom");
        let d = Diagnostic::new(Code::ExpectMetricNotInSchema, None, 0, "boom");
        assert_eq!(d.to_string(), "error[HL201]: boom");
    }

    #[test]
    fn sort_orders_by_file_line_code() {
        let mut v = vec![
            Diagnostic::new(Code::EmptyExpectBand, Some("b.hiss"), 1, "x"),
            Diagnostic::new(Code::EmptyExpectBand, Some("a.hiss"), 9, "x"),
            Diagnostic::new(Code::UnknownExpectMetric, Some("a.hiss"), 2, "x"),
        ];
        sort(&mut v);
        assert_eq!(v[0].file.as_deref(), Some("a.hiss"));
        assert_eq!(v[0].line, 2);
        assert_eq!(v[2].file.as_deref(), Some("b.hiss"));
    }

    #[test]
    fn nearest_suggests_close_typos_only() {
        let keys = ["cpu_perf", "gpu_perf", "ipis"];
        assert_eq!(nearest("cpu_pref", &keys), Some("cpu_perf"));
        assert_eq!(nearest("frobnicate", &keys), None);
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(edit_distance("same", "same"), 0);
    }
}
