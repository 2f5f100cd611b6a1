//! Perturbation tests on the conservation-law sanitizer
//! (`hiss_obs::invariants`): a finalized run snapshot must audit clean
//! exactly as produced, and flipping any single counter must be caught
//! whenever it breaks a declared law. The proptests cross-check the
//! auditor's compiled plan against a naive re-evaluation of the
//! invariant table (every term rescans the registry with the public
//! pattern matcher) over run and bench registries, guarded laws with
//! and without their marker, and adversarial near-miss names, so a bug
//! in the plan's routing or aggregation cannot hide behind the table it
//! shares with the oracle's *selection* of laws.

use std::sync::OnceLock;

use hiss::{CriticalityConfig, ExperimentBuilder, SystemConfig};
use hiss_obs::invariants::{audit, invariants_for, AuditReport, Invariant, Rel, Term};
use hiss_obs::schema::{pattern_matches, Scope};
use hiss_obs::{MetricValue, MetricsRegistry};
use proptest::prelude::*;

/// One finalized run registry, computed once — the perturbation corpus.
fn base_snapshot() -> &'static MetricsRegistry {
    static SNAP: OnceLock<MetricsRegistry> = OnceLock::new();
    SNAP.get_or_init(|| {
        ExperimentBuilder::new(SystemConfig::a10_7850k())
            .cpu_app("x264")
            .gpu_app("ubench")
            .run()
            .metrics
    })
}

/// A criticality-class run: publishes the `qos.classes` marker, so the
/// guarded per-class split laws are armed in this corpus.
fn crit_snapshot() -> &'static MetricsRegistry {
    static SNAP: OnceLock<MetricsRegistry> = OnceLock::new();
    SNAP.get_or_init(|| {
        ExperimentBuilder::new(SystemConfig::a10_7850k())
            .cpu_app("x264")
            .gpu_app("ubench")
            .criticality(CriticalityConfig::default())
            .run()
            .metrics
    })
}

/// Independent re-implementation of guard applicability (the auditor's
/// `applies` is deliberately not reused here).
fn guard_applies(inv: &Invariant, reg: &MetricsRegistry) -> bool {
    match inv.guard {
        None => true,
        Some(g) => reg.iter().any(|(name, _)| pattern_matches(g, name)),
    }
}

fn counter_names(reg: &MetricsRegistry) -> Vec<String> {
    reg.iter()
        .filter(|(_, v)| matches!(v, MetricValue::Counter(_)))
        .map(|(n, _)| n.to_string())
        .collect()
}

/// Naive term evaluation, written against the public pattern matcher.
fn eval_term(reg: &MetricsRegistry, term: Term) -> u128 {
    let mut acc: u128 = 0;
    for (name, value) in reg.iter() {
        if !pattern_matches(term.pattern(), name) {
            continue;
        }
        match term {
            Term::Sum(_) => {
                if let MetricValue::Counter(v) = value {
                    acc += *v as u128;
                }
            }
            Term::Count(_) => acc += 1,
        }
    }
    acc
}

/// Renders a term the way violation details do, written independently
/// of the auditor.
fn naive_describe(term: Term) -> String {
    match term {
        Term::Sum(p) if p.split('.').all(|s| s != "*" && !s.ends_with('N')) => p.to_string(),
        Term::Sum(p) => format!("Σ {p}"),
        Term::Count(p) => format!("#({p})"),
    }
}

fn naive_side(reg: &MetricsRegistry, terms: &[Term]) -> (u128, String) {
    let value: u128 = terms.iter().map(|t| eval_term(reg, *t)).sum();
    let rendered: Vec<String> = terms.iter().map(|t| naive_describe(*t)).collect();
    (value, format!("{} = {value}", rendered.join(" + ")))
}

/// Re-evaluates every law of `scope` from scratch: the oracle the
/// auditor is differentially tested against. Returns the number of laws
/// checked and `(name, lhs, rhs, detail)` per violation.
fn naive_audit(
    reg: &MetricsRegistry,
    scope: Scope,
) -> (usize, Vec<(&'static str, u128, u128, String)>) {
    let mut checked = 0;
    let mut violations = Vec::new();
    for inv in invariants_for(scope) {
        if !guard_applies(inv, reg) {
            continue;
        }
        checked += 1;
        let (lhs, lhs_text) = naive_side(reg, inv.lhs);
        let (rhs, rhs_text) = naive_side(reg, inv.rhs);
        let (holds, rel) = match inv.rel {
            Rel::Eq => (lhs == rhs, "="),
            Rel::Le => (lhs <= rhs, "<="),
        };
        if !holds {
            let detail = format!(
                "invariant `{}` violated: {lhs_text}, expected {rel} {rhs_text} ({})",
                inv.name, inv.doc
            );
            violations.push((inv.name, lhs, rhs, detail));
        }
    }
    (checked, violations)
}

/// Audits `reg` and asserts the report equals the naive oracle's:
/// the same `checked` count and, law for law, the same name, sides and
/// byte-identical detail text.
fn assert_agrees_with_oracle(reg: &MetricsRegistry, scope: Scope) -> AuditReport {
    let report = audit(reg, scope);
    let (checked, expected) = naive_audit(reg, scope);
    let got: Vec<(&str, u128, u128, String)> = report
        .violations
        .iter()
        .map(|v| (v.name, v.lhs, v.rhs, v.detail.clone()))
        .collect();
    assert_eq!(
        report.checked, checked,
        "checked count diverged ({scope:?})"
    );
    assert_eq!(got, expected, "violations diverged ({scope:?})");
    report
}

/// The committed bench baseline's suite snapshots: the bench-scope
/// corpus (`bench.cell.*.*` families plus the `bench.cells` count).
fn bench_snapshots() -> &'static [MetricsRegistry] {
    static SNAPS: OnceLock<Vec<MetricsRegistry>> = OnceLock::new();
    SNAPS.get_or_init(|| {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_BASELINE.json");
        let text = std::fs::read_to_string(path).expect("BENCH_BASELINE.json readable");
        let snaps: Vec<MetricsRegistry> = text
            .lines()
            .map(|l| MetricsRegistry::from_json(l).expect("baseline line parses"))
            .filter(|r| r.counter_value("bench.cells").is_some())
            .collect();
        assert!(snaps.len() >= 3, "baseline has only {} suites", snaps.len());
        snaps
    })
}

/// `reg` without the metric `name`.
fn without(reg: &MetricsRegistry, name: &str) -> MetricsRegistry {
    let mut out = MetricsRegistry::new();
    for (n, v) in reg.iter().filter(|(n, _)| *n != name) {
        out.set(n, v.clone());
    }
    out
}

/// `reg` with one counter moved by `delta` in either direction.
fn bumped(reg: &MetricsRegistry, name: &str, delta: u64, up: bool) -> MetricsRegistry {
    let mut out = reg.clone();
    let old = out.counter_value(name).unwrap();
    let new = if up {
        old.saturating_add(delta)
    } else {
        old.saturating_sub(delta)
    };
    out.counter(name.to_string(), new);
    out
}

/// Names one placeholder or separator away from a law's pattern:
/// empty or non-decimal indices, extra or missing segments, and names
/// equal to a family's literal prefix (`cpu.core`, `dev`, `gpu`,
/// `kernel.interrupts.core`, `qos.class`, `bench.cell.`).
const NEAR_MISSES: &[&str] = &[
    "cpu.core.user_ns",
    "cpu.core1a.user_ns",
    "cpu.core",
    "cpu.core0",
    "cpu.core0.user_ns.extra",
    "dev",
    "dev0",
    "devices.x",
    "dev1.kind.extra",
    "gpu",
    "gpu.iterations",
    "gpux1.ssrs_raised",
    "kernel.ipis_extra",
    "kernel.interrupts.core",
    "kernel.interrupts.core7.x",
    "kernel.interrupts.corex",
    "qos.class",
    "qos.class.requests",
    "qos.class1x.drained",
    "qos.classes.extra",
    "iommu.requests.x",
    "bench.cell.",
    "bench.cell..elapsed_ns",
    "bench.cell.a.b.elapsed_ns",
    "bench.cell.a.elapsed_ns.x",
    "bench.cell.elapsed_ns",
    "bench.cells.x",
];

/// Inserts the near-miss names selected by `mask` with `value`, as a
/// counter, gauge or label depending on `kind`.
fn with_near_misses(reg: &MetricsRegistry, mask: u64, value: u64, kind: u8) -> MetricsRegistry {
    let mut out = reg.clone();
    for (i, name) in NEAR_MISSES.iter().enumerate() {
        if mask >> i & 1 == 0 {
            continue;
        }
        match kind % 3 {
            0 => out.counter(*name, value),
            1 => out.gauge(*name, value as f64),
            _ => out.label(*name, value.to_string()),
        }
    }
    out
}

/// Whether `name` contributes to one side of `terms` as a summed
/// counter.
fn in_sums(name: &str, terms: &[Term]) -> bool {
    terms
        .iter()
        .any(|t| matches!(t, Term::Sum(_)) && pattern_matches(t.pattern(), name))
}

#[test]
fn untouched_snapshot_audits_clean_and_round_trips_byte_for_byte() {
    let reg = base_snapshot();
    let report = audit(reg, Scope::Run);
    assert!(report.clean(), "{:?}", report.violations);
    assert!(report.checked > 0, "no run-scope laws were evaluated");

    let json = reg.to_json();
    let back = MetricsRegistry::from_json(&json).expect("round trip parses");
    assert_eq!(back.to_json(), json, "round trip must be byte-identical");
    assert!(audit(&back, Scope::Run).clean());
}

/// For every equality law, bumping a counter that appears on exactly
/// one of its sides must produce a violation naming that law. This is
/// the sanitizer's whole job stated as a sweep: no single-counter
/// corruption of a conserved quantity goes unnoticed.
#[test]
fn every_one_sided_bump_on_an_equality_is_flagged() {
    // The default corpus leaves the guarded class laws dormant; the
    // criticality corpus arms them, so together the sweep covers the
    // whole equality table.
    let exercised = one_sided_bump_sweep(base_snapshot());
    assert!(exercised >= 5, "only {exercised} equality laws exercised");
    let with_classes = one_sided_bump_sweep(crit_snapshot());
    assert!(
        with_classes >= exercised + 6,
        "class corpus exercised only {with_classes} laws (base {exercised})"
    );
}

fn one_sided_bump_sweep(base: &MetricsRegistry) -> usize {
    let names = counter_names(base);
    let mut exercised = 0usize;
    for inv in invariants_for(Scope::Run).filter(|i| i.rel == Rel::Eq) {
        if !guard_applies(inv, base) {
            continue; // guarded law whose marker this corpus lacks
        }
        let Some(name) = names
            .iter()
            .find(|n| in_sums(n, inv.lhs) != in_sums(n, inv.rhs))
        else {
            continue; // law over families this workload never publishes
        };
        exercised += 1;
        let mut reg = base.clone();
        let old = reg.counter_value(name).unwrap();
        reg.counter(name.clone(), old + 1);
        let report = audit(&reg, Scope::Run);
        assert!(
            report.violations.iter().any(|v| v.name == inv.name),
            "bumping `{name}` did not trip `{}`: {:?}",
            inv.name,
            report.violations
        );
    }
    exercised
}

/// The per-class split laws police exactly the runs that carry classes:
/// dormant (and unfireable) on a default snapshot, armed and tight on a
/// criticality snapshot.
#[test]
fn guarded_class_laws_police_only_runs_that_carry_classes() {
    let base = base_snapshot();
    assert!(base.counter_value("qos.classes").is_none());
    let base_checked = audit(base, Scope::Run).checked;

    let crit = crit_snapshot();
    let report = audit(crit, Scope::Run);
    assert!(report.clean(), "{:?}", report.violations);
    assert!(
        report.checked >= base_checked + 6,
        "class marker must arm the guarded laws: {} vs {}",
        report.checked,
        base_checked
    );

    // A single lost best-effort request is caught by the armed split law.
    let mut reg = crit.clone();
    let old = reg.counter_value("qos.class1.requests").unwrap();
    reg.counter("qos.class1.requests".to_string(), old + 1);
    let broken = audit(&reg, Scope::Run);
    assert!(
        broken
            .violations
            .iter()
            .any(|v| v.name == "class_requests_split"),
        "{:?}",
        broken.violations
    );
}

/// The boundary case of the calendar bound: popped = pushed is legal,
/// popped = pushed + 1 is not, and the violation names the law with
/// both sides of the failed comparison.
#[test]
fn calendar_bound_is_tight() {
    let pushed = base_snapshot().counter_value("run.events_pushed").unwrap();

    let mut reg = base_snapshot().clone();
    reg.counter("run.events_popped", pushed);
    assert!(audit(&reg, Scope::Run).clean());

    reg.counter("run.events_popped", pushed + 1);
    let report = audit(&reg, Scope::Run);
    let v = report
        .violations
        .iter()
        .find(|v| v.name == "events_popped_bounded")
        .expect("overshoot must be flagged");
    assert!(v.detail.contains("run.events_popped"), "{}", v.detail);
    assert!(v.detail.contains(&(pushed + 1).to_string()), "{}", v.detail);
}

/// Every near-miss name at once, as a non-zero counter, on every
/// corpus. The one name the matcher does accept (`*` matches the empty
/// segment of `bench.cell..elapsed_ns`) must show up in the bench count.
#[test]
fn every_near_miss_at_once_agrees_with_oracle() {
    let mut corpora = vec![base_snapshot(), crit_snapshot()];
    corpora.extend(bench_snapshots());
    for base in corpora {
        let reg = with_near_misses(base, u64::MAX, 5, 0);
        assert_agrees_with_oracle(&reg, Scope::Run);
        let bench = assert_agrees_with_oracle(&reg, Scope::Bench);
        assert!(
            bench
                .violations
                .iter()
                .any(|v| v.name == "bench_cells_counted"),
            "{:?}",
            bench.violations
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Differential sweep: perturb one arbitrary counter by an
    /// arbitrary amount in either direction; the auditor must report
    /// exactly the laws the naive evaluator says are broken — no
    /// misses, no false alarms — and any one-sided hit on an equality
    /// must surface.
    #[test]
    fn audit_agrees_with_naive_reevaluation_under_mutation(
        idx in 0usize..10_000,
        delta in 1u64..1_001,
        bump_up in any::<bool>(),
    ) {
        let base = base_snapshot();
        let names = counter_names(base);
        let name = &names[idx % names.len()];
        let mut reg = base.clone();
        let old = reg.counter_value(name).unwrap();
        let new = if bump_up {
            old.saturating_add(delta)
        } else {
            old.saturating_sub(delta)
        };
        reg.counter(name.clone(), new);

        let got: Vec<&str> = assert_agrees_with_oracle(&reg, Scope::Run)
            .violations
            .iter()
            .map(|v| v.name)
            .collect();

        if new != old {
            for inv in invariants_for(Scope::Run).filter(|i| i.rel == Rel::Eq) {
                if guard_applies(inv, &reg) && in_sums(name, inv.lhs) != in_sums(name, inv.rhs) {
                    prop_assert!(
                        got.contains(&inv.name),
                        "mutating `{}` must trip `{}`",
                        name,
                        inv.name
                    );
                }
            }
        }
    }

    /// Bench scope: perturb one counter of a committed suite snapshot,
    /// or drop it outright (which moves the `#(bench.cell.*.elapsed_ns)`
    /// count term), and compare the whole report with the oracle.
    #[test]
    fn bench_audit_agrees_with_naive_reevaluation_under_mutation(
        suite in 0usize..64,
        idx in 0usize..10_000,
        delta in 1u64..1_001,
        bump_up in any::<bool>(),
        drop_it in any::<bool>(),
    ) {
        let snaps = bench_snapshots();
        let base = &snaps[suite % snaps.len()];
        let names = counter_names(base);
        let name = &names[idx % names.len()];
        let reg = if drop_it {
            without(base, name)
        } else {
            bumped(base, name, delta, bump_up)
        };
        assert_agrees_with_oracle(&reg, Scope::Bench);
    }

    /// Guarded laws with the `qos.classes` marker present and absent:
    /// the class families stay published either way, so an unarmed
    /// guard must skip its laws even though their terms evaluate.
    #[test]
    fn guarded_audit_agrees_with_oracle_with_marker_present_and_absent(
        idx in 0usize..10_000,
        delta in 1u64..1_001,
        bump_up in any::<bool>(),
        armed in any::<bool>(),
    ) {
        let crit = crit_snapshot();
        let names = counter_names(crit);
        let reg = bumped(crit, &names[idx % names.len()], delta, bump_up);
        let reg = if armed { reg } else { without(&reg, "qos.classes") };
        prop_assert_eq!(reg.counter_value("qos.classes").is_some(), armed);
        assert_agrees_with_oracle(&reg, Scope::Run);
    }

    /// Adversarial near-miss names, of every kind, added to run and
    /// bench registries: the plan's prefix routing must neither drop a
    /// name the matcher accepts nor admit one it rejects.
    #[test]
    fn near_miss_names_agree_with_oracle(
        mask in any::<u64>(),
        value in 0u64..1_000,
        kind in 0u8..3,
        corpus in 0usize..64,
    ) {
        let snaps = bench_snapshots();
        let base = match corpus % 3 {
            0 => base_snapshot(),
            1 => crit_snapshot(),
            _ => &snaps[corpus % snaps.len()],
        };
        let reg = with_near_misses(base, mask, value, kind);
        assert_agrees_with_oracle(&reg, Scope::Run);
        assert_agrees_with_oracle(&reg, Scope::Bench);
    }
}
