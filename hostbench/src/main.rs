//! `hostbench`: runs one workload and prints its metrics.
//!
//! ```text
//! hostbench --workload fig3_grid|pareto_grid|serve_mixed --seed N
//!           --seconds S --trace 0|1 [--root DIR]
//! hostbench bless-digests [--root DIR]
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics, or with
//! `--trace 1` the per-layer ones). The lines before it are a readable
//! table of every figure the run measured.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use hiss_hostbench::common::{self, peak_rss_mb, Digests};
use hiss_hostbench::layers::LAYER_METRICS;
use hiss_hostbench::{grid, serve, trace, Metrics, Outcome};

/// The gated end-to-end metrics, with units.
const E2E: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("pack_s_p50", "s"),
    ("cells_per_s", "1/s"),
    ("sim_s_per_host_s", "s/s"),
    ("first_cell_ms_p50", "ms"),
    ("fresh_submit_ms_p50", "ms"),
    ("hit_submit_ms_p50", "ms"),
    ("peak_rss_mb", "MiB"),
];
/// End-to-end figures that are printed but not gated.
const EXTRA: [(&str, &str); 4] = [
    ("submit_ms_p50", "ms"),
    ("submit_ms_p90", "ms"),
    ("submits_per_s", "1/s"),
    ("error_rate", "ratio"),
];
const WORKLOADS: [&str; 3] = ["fig3_grid", "pareto_grid", "serve_mixed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    root: PathBuf,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        root: PathBuf::from("."),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--root" => args.root = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn run(args: &Args) -> Result<Outcome, String> {
    let (root, seed, secs, trace) = (&args.root, args.seed, args.seconds, args.trace);
    match args.workload.as_str() {
        "fig3_grid" => grid::run(grid::FIG3, root, seed, secs, trace),
        "pareto_grid" => grid::run(grid::PARETO, root, seed, secs, trace),
        _ => serve::run(root, seed, secs, trace),
    }
}

/// Formats `metrics` as a JSON object of `{"value", "unit"}` pairs. A
/// metric that was not measured reads 0; the caller marks the result
/// incorrect.
fn json_metrics(names: &[(&str, &str)], metrics: &Metrics) -> String {
    let body: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let v = metrics
                .get(name)
                .copied()
                .filter(|v| v.is_finite())
                .unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn print_table(title: &str, names: &[(&str, &str)], metrics: &Metrics) {
    println!("# {title}");
    for (name, unit) in names {
        let v = metrics.get(name).copied().unwrap_or(f64::NAN);
        println!("#   {name:<34} {v:>16.6} {unit}");
    }
}

/// Regenerates the committed per-cell digests at the default seed.
fn bless(root: &Path) -> Result<(), String> {
    let mut digests = Digests::new();
    let sets = [("fig3", false), ("pareto", false)]
        .into_iter()
        .chain(serve::PACKS.iter().map(|&p| (p, true)));
    for (name, quick) in sets {
        let pack = common::Pack::load(root, name, quick)?;
        let (sc, _) = pack.compile(&pack.text)?;
        hiss::BaselineCache::global().clear();
        let got = hiss_scenario::run_with_metrics(&sc, quick)
            .iter()
            .map(|(_, snap)| common::digest(snap))
            .collect();
        digests.insert(pack.digest_set(), got);
    }
    let path = root.join(common::DIGESTS);
    std::fs::write(&path, common::render_digests(&digests))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("bless-digests") {
        let root = match argv.get(1..) {
            Some([flag, dir]) if flag == "--root" => PathBuf::from(dir),
            _ => PathBuf::from("."),
        };
        return match bless(&root) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("hostbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out = match run(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("hostbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    out.e2e
        .insert("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN));
    out.extra.insert("error_rate", out.tally.error_rate());
    for f in &out.tally.failures {
        eprintln!("hostbench: check failed: {f}");
    }

    println!(
        "# {} seed={} seconds={} trace={}: {} operations, {} failed",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        out.tally.attempted,
        out.tally.failed
    );
    println!("# samples: {}", out.samples);
    print_table("end to end (gated)", &E2E, &out.e2e);
    print_table("end to end (reported)", &EXTRA, &out.extra);
    let (names, metrics): (&[(&str, &str)], &Metrics) = if args.trace {
        print_table("per layer", &LAYER_METRICS, &out.layers);
        print_layer_totals(&out.spans);
        let path = args
            .root
            .join(".hostbench")
            .join(format!("trace-{}-seed{}.tsv", args.workload, args.seed));
        if let Err(e) = trace::write(&path, &out.spans) {
            eprintln!("hostbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("# spans written to {}", path.display());
        (&LAYER_METRICS, &out.layers)
    } else {
        (&E2E, &out.e2e)
    };
    let mut correct = out.tally.failed == 0;
    if let Some((name, _)) = names
        .iter()
        .find(|(n, _)| !metrics.get(n).is_some_and(|v| v.is_finite()))
    {
        eprintln!("hostbench: metric {name} was not measured");
        correct = false;
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.tally.attempted,
        out.tally.failed,
        json_metrics(names, metrics)
    );
    ExitCode::SUCCESS
}

/// Prints total self time per span name, largest first.
fn print_layer_totals(spans: &[trace::Span]) {
    let b = trace::analyse(spans);
    let mut rows: Vec<_> = b.layers.iter().collect();
    rows.sort_by_key(|(_, l)| std::cmp::Reverse(l.self_ns));
    println!("# self time by span, all traced iterations");
    for (name, l) in rows {
        println!(
            "#   {name:<34} {:>12.3} ms {:>8} calls",
            l.self_ns as f64 / 1e6,
            l.calls
        );
    }
}
