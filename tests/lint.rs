//! Lint regression harness.
//!
//! Two directions, both pinned:
//!
//! - every fixture in `tests/lint_fixtures/` is a minimal `.hiss` file
//!   (or source tree) broken in exactly one way; its diagnostics must
//!   match the committed `.expect` golden byte-for-byte, keeping the
//!   HLxxx codes, positions, and wording stable,
//! - the committed tree itself — `scenarios/*.hiss`, `crates/*/src`
//!   under the `lint.toml` allowlist, and `docs/OBSERVABILITY.md` —
//!   must lint clean.
//!
//! The CLI end-to-end tests drive the same checks through
//! `hiss-cli lint` and pin its exit statuses, which is what CI gates on.

use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn fixture_dir() -> PathBuf {
    repo_root().join("tests/lint_fixtures")
}

/// The `.hiss` fixtures, sorted by name for deterministic test order.
fn fixtures() -> Vec<PathBuf> {
    let mut out: Vec<_> = std::fs::read_dir(fixture_dir())
        .expect("tests/lint_fixtures exists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "hiss"))
        .collect();
    out.sort();
    assert!(!out.is_empty(), "no fixtures found");
    out
}

/// `hl007_duplicate_value.hiss` → `HL007`.
fn expected_code(path: &Path) -> String {
    let stem = path.file_stem().unwrap().to_str().unwrap();
    stem[..5].to_uppercase()
}

#[test]
fn fixtures_match_their_goldens() {
    for path in fixtures() {
        let name = path.file_name().unwrap().to_str().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let diags = hiss_scenario::lint::lint_text(name, &text);
        assert!(!diags.is_empty(), "{name}: expected at least one finding");

        let code = expected_code(&path);
        assert!(
            diags.iter().any(|d| d.code.as_str() == code),
            "{name}: no {code} among {diags:?}"
        );

        let rendered: String = diags.iter().map(|d| format!("{d}\n")).collect();
        let golden = std::fs::read_to_string(path.with_extension("expect"))
            .unwrap_or_else(|e| panic!("{name}: missing golden: {e}"));
        assert_eq!(rendered, golden, "{name}: diagnostics drifted from golden");
    }
}

#[test]
fn every_scenario_code_has_a_fixture() {
    let covered: Vec<String> = fixtures().iter().map(|p| expected_code(p)).collect();
    for code in hiss_lint::Code::ALL {
        let code = code.as_str();
        // HL2xx/HL3xx are exercised by the source-tree fixture below
        // and HL402..HL405 by the snapshots/ fixtures and coverage
        // unit tests — none of those has a single-`.hiss` trigger
        // (HL201 is a pure drift guard with none at all). HL401 does
        // (`[expect]` bands contradicting a conservation law), so it
        // is held to a fixture like the HL0xx grammar codes.
        if code >= "HL2" && code != "HL401" {
            continue;
        }
        assert!(
            covered.contains(&code.to_string()),
            "no fixture covers {code}"
        );
    }
}

/// The snapshot fixtures: doctored baseline/snapshot JSON inputs for
/// the codes that lint *metric files* rather than `.hiss` text, each
/// pinned to a byte-exact golden like the `.hiss` fixtures above.
#[test]
fn snapshot_fixtures_match_their_goldens() {
    let dir = fixture_dir().join("snapshots");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("tests/lint_fixtures/snapshots exists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x != "expect"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no snapshot fixtures found");
    for path in paths {
        let name = path.file_name().unwrap().to_str().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let code = expected_code(&path);
        let diags = match code.as_str() {
            "HL203" => hiss_lint::baseline::check_baseline(name, &text),
            "HL402" => hiss_lint::invariants::check_baseline_invariants(name, &text),
            "HL403" => hiss_lint::invariants::check_snapshot_invariants(name, &text),
            other => panic!("{name}: no checker mapped for {other}"),
        };
        assert!(
            diags.iter().any(|d| d.code.as_str() == code),
            "{name}: no {code} among {diags:?}"
        );
        let rendered: String = diags.iter().map(|d| format!("{d}\n")).collect();
        let golden = std::fs::read_to_string(path.with_extension("expect"))
            .unwrap_or_else(|e| panic!("{name}: missing golden: {e}"));
        assert_eq!(rendered, golden, "{name}: diagnostics drifted from golden");
    }
}

/// Every code catalogued in docs/LINTS.md is pinned somewhere: by a
/// fixture whose stem names it (`hl402_*` → HL402, in either fixture
/// directory) or by one of the named tests listed here. Adding a code
/// to the docs without a pin fails this test.
#[test]
fn every_documented_code_is_pinned_by_a_fixture_or_named_test() {
    let named: &[(&str, &str)] = &[
        (
            "HL201",
            "hiss-scenario lint::tests::expect_metrics_resolve_in_the_obs_schema",
        ),
        ("HL202", "cli_flags_every_code_in_the_broken_source_tree"),
        ("HL301", "cli_flags_every_code_in_the_broken_source_tree"),
        ("HL302", "cli_flags_every_code_in_the_broken_source_tree"),
        ("HL303", "cli_flags_every_code_in_the_broken_source_tree"),
        ("HL304", "cli_flags_every_code_in_the_broken_source_tree"),
        ("HL305", "cli_flags_every_code_in_the_broken_source_tree"),
        (
            "HL404",
            "hiss-scenario lint::tests::coverage_flags_dead_knobs_and_dead_metrics",
        ),
        (
            "HL405",
            "hiss-scenario lint::tests::coverage_flags_dead_knobs_and_dead_metrics",
        ),
    ];
    let mut pinned: Vec<String> = Vec::new();
    for dir in [fixture_dir(), fixture_dir().join("snapshots")] {
        for entry in std::fs::read_dir(dir).unwrap().filter_map(|e| e.ok()) {
            let path = entry.path();
            if path.is_file() && !path.extension().is_some_and(|x| x == "expect") {
                pinned.push(expected_code(&path));
            }
        }
    }
    let text = std::fs::read_to_string(repo_root().join("docs/LINTS.md")).unwrap();
    for code in text
        .lines()
        .filter_map(|l| l.strip_prefix("### "))
        .filter_map(|h| h.split_whitespace().next())
    {
        assert!(
            pinned.contains(&code.to_string()) || named.iter().any(|(c, _)| *c == code),
            "{code} is documented but pinned by no fixture or named test"
        );
    }
}

#[test]
fn docs_lints_md_catalogues_every_code() {
    let text = std::fs::read_to_string(repo_root().join("docs/LINTS.md")).unwrap();
    let documented: Vec<&str> = text
        .lines()
        .filter_map(|l| l.strip_prefix("### "))
        .filter_map(|h| h.split_whitespace().next())
        .collect();
    let expected: Vec<&str> = hiss_lint::Code::ALL.iter().map(|c| c.as_str()).collect();
    assert_eq!(
        documented, expected,
        "docs/LINTS.md section headings disagree with hiss_lint::Code::ALL"
    );
}

#[test]
fn committed_scenarios_lint_clean() {
    let dir = repo_root().join("scenarios");
    let files = hiss_scenario::list_files(&dir).unwrap();
    assert!(!files.is_empty(), "no committed scenarios found");
    for path in files {
        let diags = hiss_scenario::lint::lint_file(&path);
        assert!(diags.is_empty(), "{}: {diags:?}", path.display());
    }
}

#[test]
fn workspace_sources_lint_clean_with_committed_allowlist() {
    let root = repo_root();
    let text = std::fs::read_to_string(root.join("lint.toml")).unwrap();
    let config = hiss_lint::config::parse(&text).unwrap();
    let diags = hiss_lint::sources::scan(&root, &config).unwrap();
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn observability_doc_names_resolve_in_schema() {
    let text = std::fs::read_to_string(repo_root().join("docs/OBSERVABILITY.md")).unwrap();
    let diags = hiss_lint::docs::check_doc("docs/OBSERVABILITY.md", &text);
    assert!(diags.is_empty(), "{diags:?}");
}

fn cli() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_hiss-cli"));
    cmd.current_dir(repo_root());
    cmd
}

#[test]
fn cli_exits_nonzero_on_every_fixture_with_its_code() {
    for path in fixtures() {
        let out = cli()
            .args(["lint", path.to_str().unwrap()])
            .output()
            .unwrap();
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(
            !out.status.success(),
            "{}: lint unexpectedly passed:\n{stdout}",
            path.display()
        );
        let code = expected_code(&path);
        assert!(
            stdout.contains(&format!("[{code}]")),
            "{}: {code} not in output:\n{stdout}",
            path.display()
        );
    }
}

#[test]
fn cli_flags_every_code_in_the_broken_source_tree() {
    let out = cli()
        .args([
            "lint",
            "--sources",
            "--docs",
            "--root",
            "tests/lint_fixtures/source_tree",
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(!out.status.success(), "expected findings:\n{stdout}");
    for code in ["HL301", "HL302", "HL303", "HL304", "HL305", "HL202"] {
        assert!(
            stdout.contains(&format!("[{code}]")),
            "{code} not in output:\n{stdout}"
        );
    }
}

#[test]
fn cli_lint_invariants_flags_the_doctored_tree() {
    let out = cli()
        .args([
            "lint",
            "--invariants",
            "--root",
            "tests/lint_fixtures/invariants_tree",
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(!out.status.success(), "expected findings:\n{stdout}");
    for code in ["HL402", "HL404", "HL405"] {
        assert!(
            stdout.contains(&format!("[{code}]")),
            "{code} not in output:\n{stdout}"
        );
    }
    assert!(
        stdout.contains("BENCH_BASELINE.json:2:"),
        "HL402 must carry file:line:\n{stdout}"
    );
}

#[test]
fn cli_report_sanitize_flags_the_doctored_snapshot() {
    let out = cli()
        .args([
            "report",
            "tests/lint_fixtures/snapshots/hl403_snapshot_violation.jsonl",
            "--sanitize",
        ])
        .output()
        .unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        !out.status.success(),
        "sanitize unexpectedly passed:\n{stderr}"
    );
    assert!(stderr.contains("[HL403]"), "{stderr}");
    assert!(
        stderr.contains("hl403_snapshot_violation.jsonl:2:"),
        "violation must carry file:line:\n{stderr}"
    );
}

/// `lint --all` is what CI's static-analysis job runs: the whole
/// committed tree — scenarios, sources, docs, baseline schema, and
/// the conservation-law/coverage passes — must be clean.
#[test]
fn cli_exits_zero_on_the_committed_tree() {
    let out = cli().args(["lint", "--all"]).output().unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "committed tree has findings:\n{stdout}"
    );
    assert!(stdout.contains("lint: clean"), "{stdout}");
}

#[test]
fn cli_rejects_a_lint_invocation_with_nothing_to_do() {
    let out = cli().arg("lint").output().unwrap();
    assert!(!out.status.success());
}

/// A hostile grid in well under 1 MiB of text: five 10,000-value axes
/// (10^20 cells, past `usize`), one duplicate value and a pinned row
/// count. Lint must count the grid rather than compare every value
/// pair, expand the cells or overflow the row count, and answer at once
/// with HL013 — the gate that keeps `serve` from expanding such a grid.
/// The watchdog thread turns a hang into a failure.
#[test]
#[allow(clippy::disallowed_methods)]
fn hostile_grids_are_rejected_before_expansion() {
    let axis = |key: &str, scale: f64| {
        let values: Vec<String> = (1..=10_000)
            .map(|i| format!("{}", i as f64 / scale))
            .collect();
        format!("{key} = [{}]\n", values.join(", "))
    };
    let mut text = String::from(
        "[scenario]\nname = \"t\"\n[workload]\ncpu = [\"x264\"]\ngpu = [\"ubench\"]\n\
         [run]\nrows = 1\n[sweep]\n",
    );
    text.push_str(&axis("seed", 1.0).replace(']', ", 1]"));
    for key in ["timer_tick_us", "coalesce_window_us", "max_sim_time_ms"] {
        text.push_str(&axis(key, 1.0));
    }
    text.push_str(&axis("qos_percent", 100.0));
    assert!(text.len() < 1 << 20, "{} bytes", text.len());
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(hiss_scenario::lint::lint_text("t.hiss", &text)));
    let diags = rx
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("lint must return promptly on a hostile grid");
    let codes: Vec<_> = diags.iter().map(|d| d.code).collect();
    assert_eq!(codes, [hiss_lint::Code::GridTooLarge]);
    assert_eq!(diags[0].line, 9);
    assert!(
        diags[0].msg.contains(&format!("over {}", usize::MAX)),
        "{}",
        diags[0].msg
    );
}
