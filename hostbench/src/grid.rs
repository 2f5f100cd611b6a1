//! `fig3_grid` and `pareto_grid`: a full `.hiss` pack, run the way
//! `hiss-cli scenario run --metrics` runs it.
//!
//! Each iteration clears the baseline cache, runs the pack with a fresh
//! seed (the *fresh* request), then runs the same pack and seed again on
//! the warm cache (the *repeat* request, the in-process counterpart of a
//! store hit). A traced iteration also publishes the fresh results to a
//! store and serves them back, so the store, JSON and protocol layers
//! are measured on this pack too.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use hiss::{BaselineCache, DiskStore, PoolProfile, RunReport};
use hiss_obs::invariants::audit;
use hiss_obs::schema::Scope;
use hiss_scenario::{cell_metrics, run_cell_report, Cell, Row};
use hiss_serve::{cell_store_key, Service};

use crate::common::{self, median, quantile, secs_since, Digests, Pack, ScratchDir};
use crate::layers::{self, Layered};
use crate::{cache_counters, serve, trace, Counts, Outcome, Tally};

/// One grid workload.
#[derive(Debug, Clone, Copy)]
pub struct Grid {
    /// Pack under `scenarios/`.
    pub pack: &'static str,
    /// Pool workers (`HISS_THREADS`).
    pub threads: usize,
}

pub const FIG3: Grid = Grid {
    pack: "fig3",
    threads: 1,
};
pub const PARETO: Grid = Grid {
    pack: "pareto",
    threads: 2,
};

/// One run of the pack.
pub struct Request {
    pub wall_s: f64,
    /// Start to the first finished cell.
    pub first_cell_s: f64,
    pub cells: Vec<Cell>,
    pub rows: Vec<Row>,
    pub reports: Vec<Arc<RunReport>>,
    /// Snapshot lines, as `--metrics` writes them.
    pub lines: Vec<String>,
    /// Names in each snapshot.
    pub names: Vec<usize>,
    /// Lines of the rendered JSON-lines row output.
    pub jsonl_lines: usize,
    pub violations: usize,
    pub profile: PoolProfile,
    /// Baselines fetched ahead of each co-run (traced runs only).
    pub baselines: Vec<Arc<RunReport>>,
}

/// Lints, parses and expands the pack text, runs every cell on the pool
/// and renders and checks the rows. When tracing, each cell's baselines
/// are fetched in a span of their own before `run_cell_report`.
pub fn request(pack: &Pack, seed: Option<u64>, threads: usize) -> Result<Request, String> {
    let t0 = Instant::now();
    let text = pack.text_for(seed);
    let (sc, cells) = pack.compile(&text)?;
    let first_ns = AtomicU64::new(u64::MAX);
    let (done, profile) = trace::span("runner", || {
        let parent = trace::current();
        hiss::run_jobs_profiled(threads, cells.len(), |i| {
            trace::within(parent, || {
                trace::span_for("runner.job", i as u64, || {
                    let cell = &cells[i];
                    let baselines = trace::enabled().then(|| {
                        trace::span("cache.baseline", || {
                            let cache = BaselineCache::global();
                            let cfg = &cell.knobs.cfg;
                            [
                                cache.cpu_baseline(cfg, &cell.cpu_app, &cell.gpu_app),
                                cache.gpu_idle_baseline(cfg, &cell.gpu_app),
                            ]
                        })
                    });
                    let (row, report) = trace::span("sim.corun", || run_cell_report(cell));
                    let snapshot =
                        trace::span("scenario.cell_metrics", || cell_metrics(cell, &report));
                    let line = trace::span("json.encode", || snapshot.to_json());
                    first_ns.fetch_min(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    (row, report, line, snapshot.len(), baselines)
                })
            })
        })
    });
    let mut out = Request {
        wall_s: 0.0,
        first_cell_s: 0.0,
        cells: Vec::new(),
        rows: Vec::with_capacity(done.len()),
        reports: Vec::with_capacity(done.len()),
        lines: Vec::with_capacity(done.len()),
        names: Vec::with_capacity(done.len()),
        jsonl_lines: 0,
        violations: 0,
        profile,
        baselines: Vec::new(),
    };
    for (row, report, line, names, baselines) in done {
        out.rows.push(row);
        out.reports.push(report);
        out.lines.push(line);
        out.names.push(names);
        out.baselines.extend(baselines.into_iter().flatten());
    }
    let jsonl = trace::span("scenario.emit", || {
        hiss_scenario::output::to_jsonl(&out.rows)
    });
    out.jsonl_lines = jsonl.lines().count();
    out.violations = trace::span("scenario.check", || hiss_scenario::check(&sc, &out.rows)).len();
    out.wall_s = secs_since(t0);
    out.first_cell_s = first_ns.load(Ordering::Relaxed) as f64 / 1e9;
    out.cells = cells;
    Ok(out)
}

/// Checks a fresh request: row counts match `expand`, every run registry
/// audits clean and, at the default seed, the digests match and every
/// `[expect]` band holds.
fn check_fresh(
    req: &Request,
    pack: &Pack,
    expected: usize,
    digests: Option<&Digests>,
) -> Vec<String> {
    let mut problems = Vec::new();
    let n = req.rows.len();
    if n != expected || req.lines.len() != expected || req.jsonl_lines != expected {
        problems.push(format!(
            "{n} rows, {} snapshots, {} output lines; expand gives {expected}",
            req.lines.len(),
            req.jsonl_lines
        ));
    }
    let dirty = req
        .reports
        .iter()
        .filter(|r| !trace::span("audit", || audit(&r.metrics, Scope::Run)).clean())
        .count();
    if dirty > 0 {
        problems.push(format!("{dirty} run registr(ies) violate their laws"));
    }
    if let Some(d) = digests {
        let got: Vec<u64> = req
            .reports
            .iter()
            .map(|r| common::digest(&r.metrics))
            .collect();
        let bad = common::digest_mismatches(d, &pack.digest_set(), &got);
        if bad > 0 {
            problems.push(format!(
                "{bad} cell digest(s) differ from {}",
                common::DIGESTS
            ));
        }
        if req.violations > 0 {
            problems.push(format!("{} expect band(s) violated", req.violations));
        }
    }
    problems
}

/// A fresh request and its repeat on the warm cache, both checked.
pub struct Iteration {
    pub fresh: Request,
    pub repeat: Request,
    pub counts: Counts,
}

/// Runs one iteration. Only the fresh request is traced.
pub fn iteration(
    grid: Grid,
    pack: &Pack,
    seed: Option<u64>,
    expected: usize,
    digests: Option<&Digests>,
    tally: &mut Tally,
) -> Result<Iteration, String> {
    BaselineCache::global().clear();
    let before = cache_counters();
    let fresh = trace::span_for("request", 0, || request(pack, seed, grid.threads))?;
    let mut counts = Counts::default();
    counts.set_cache_since(before);
    for r in &fresh.reports {
        counts.add_run(&r.metrics);
    }
    tally.record(
        &format!("{} (fresh)", pack.name),
        check_fresh(&fresh, pack, expected, digests),
    );

    let tracing = trace::enabled();
    trace::set_enabled(false);
    let repeat = request(pack, seed, grid.threads);
    trace::set_enabled(tracing);
    let repeat = repeat?;
    let mut problems = Vec::new();
    if repeat.lines != fresh.lines {
        problems.push("snapshots differ from the fresh run of the same seed".to_string());
    }
    tally.record(&format!("{} (repeat)", pack.name), problems);
    Ok(Iteration {
        fresh,
        repeat,
        counts,
    })
}

/// Publishes the fresh results to a new store and serves them back
/// three ways: through [`serve::replay`], over loopback, and through
/// `Service::submit` without transport. Checks that each streams the
/// fresh snapshots.
fn traced_replay(
    pack: &Pack,
    seed: Option<u64>,
    fresh: &Request,
    dir: &Path,
    l: &mut Layered,
    counts: &mut Counts,
    tally: &mut Tally,
) -> Result<(), String> {
    let text = pack.text_for(seed);
    let store = Arc::new(DiskStore::open(dir).map_err(|e| format!("open store: {e}"))?);
    let (replayed, reply) = trace::span_for("serve.publish", 0, || {
        for (cell, report) in fresh.cells.iter().zip(&fresh.reports) {
            let key = trace::span("store.key", || cell_store_key(cell));
            let _ = trace::span("store.save", || store.save(&key, &report.metrics));
        }
        let replayed = serve::replay(pack, &text, &store, 0)?;
        if counts.store_writes == 0 {
            counts.set_store(&store);
        }
        let reply = serve::with_server(Arc::clone(&store), |addr| {
            trace::span("serve.submit", || serve::submit(addr, &text, pack.quick))
        })??;
        Ok::<_, String>((replayed, reply))
    })?;
    let service = Service::new(Some(Arc::clone(&store)));
    let (service_s, service_lines) = serve::service_submit(&service, pack, &text)?;
    let mut problems = Vec::new();
    if replayed
        .cells
        .iter()
        .map(|c| &c.line)
        .ne(fresh.lines.iter())
    {
        problems.push("replayed snapshots differ from the fresh run".to_string());
    }
    if reply.lines != fresh.lines || reply.from_store != reply.cells {
        problems.push("served snapshots differ from the fresh run".to_string());
    }
    if service_lines != fresh.lines {
        problems.push("Service::submit snapshots differ from the fresh run".to_string());
    }
    tally.record(&format!("{} (served)", pack.name), problems);

    l.iterations += 1;
    l.service_ms.push(service_s * 1e3);
    l.transport_ms.push((reply.latency_s - service_s) * 1e3);
    l.lines += reply.lines.len() as u64 + 1;
    l.bytes += reply.bytes;
    let mut runs = fresh.baselines.clone();
    runs.extend(fresh.reports.iter().cloned());
    l.audit_calls += layers::distinct_runs(&runs);
    for r in &fresh.reports {
        l.corun_events += r.metrics.counter_value("run.events_popped").unwrap_or(0);
    }
    l.snapshot_bytes
        .extend(fresh.lines.iter().map(|s| s.len() as f64));
    l.names_per_snapshot
        .extend(fresh.names.iter().map(|&n| n as f64));
    l.profiles.push(fresh.profile.clone());
    drop((service, store));
    let _ = std::fs::remove_dir_all(dir);
    Ok(())
}

/// Runs a grid workload.
pub fn run(
    grid: Grid,
    root: &Path,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<Outcome, String> {
    std::env::set_var("HISS_THREADS", grid.threads.to_string());
    let mut out = Outcome::default();
    let scratch = ScratchDir::new(root, grid.pack)?;

    // Set-up, several times: load and validate the pack, then one
    // iteration at the default seed, checked against the digests.
    let mut setup_s = Vec::new();
    let mut pack = None;
    let mut expected = 0;
    for _ in 0..crate::SETUP_PASSES {
        let t0 = Instant::now();
        let digests = common::load_digests(root)?;
        let p = Pack::load(root, grid.pack, false)?;
        expected = p.compile(&p.text)?.1.len();
        iteration(grid, &p, None, expected, Some(&digests), &mut out.tally)?;
        pack = Some(p);
        setup_s.push(secs_since(t0));
    }
    let pack = pack.expect("at least one set-up pass");

    let mut fresh_s = Vec::new();
    let mut repeat_s = Vec::new();
    let mut first_s = Vec::new();
    let mut traced_s = Vec::new();
    // Per untraced iteration: cells, simulated seconds and requests
    // completed, each per second of request wall time.
    let (mut cells_per_s, mut sim_per_s, mut requests_per_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut l = Layered {
        job_span: "runner.job",
        threads: grid.threads,
        ..Layered::default()
    };
    let mut counts = None;
    let t0 = Instant::now();
    let mut i = 0u64;
    while i < crate::MIN_ITERATIONS || secs_since(t0) < seconds {
        let iseed = Some(common::iteration_seed(seed, i));
        // In a traced run, odd iterations are traced and even ones give
        // the untraced reference for the overhead figure.
        let tracing = traced && i % 2 == 1;
        trace::set_enabled(tracing);
        let it = iteration(grid, &pack, iseed, expected, None, &mut out.tally)?;
        let counts = counts.get_or_insert_with(|| it.counts.clone());
        if tracing {
            traced_s.push(it.fresh.wall_s);
            let dir = scratch.0.join(format!("replay{i}"));
            traced_replay(
                &pack,
                iseed,
                &it.fresh,
                &dir,
                &mut l,
                counts,
                &mut out.tally,
            )?;
        } else {
            fresh_s.push(it.fresh.wall_s);
            repeat_s.push(it.repeat.wall_s);
            first_s.push(it.fresh.first_cell_s);
            let wall = it.fresh.wall_s + it.repeat.wall_s;
            let reports = it.fresh.reports.iter().chain(&it.repeat.reports);
            let sim_ns: u64 = reports
                .map(|r| r.metrics.counter_value("run.elapsed_ns").unwrap_or(0))
                .sum();
            cells_per_s.push((it.fresh.reports.len() + it.repeat.reports.len()) as f64 / wall);
            sim_per_s.push(sim_ns as f64 / 1e9 / wall);
            requests_per_s.push(2.0 / wall);
        }
        trace::set_enabled(false);
        i += 1;
    }
    out.spans = trace::take();

    let ms = |v: &[f64]| v.iter().map(|s| s * 1e3).collect::<Vec<_>>();
    let iter_s: Vec<f64> = fresh_s.iter().zip(&repeat_s).map(|(f, r)| f + r).collect();
    out.samples = format!(
        "{} set-up passes; {} untraced iterations (one fresh and one repeat request each); {} traced",
        setup_s.len(),
        fresh_s.len(),
        traced_s.len()
    );
    let e2e = &mut out.e2e;
    e2e.insert("setup_s", median(&setup_s));
    e2e.insert("pack_s_p50", median(&iter_s));
    e2e.insert("cells_per_s", median(&cells_per_s));
    e2e.insert("sim_s_per_host_s", median(&sim_per_s));
    e2e.insert("first_cell_ms_p50", median(&ms(&first_s)));
    e2e.insert("fresh_submit_ms_p50", median(&ms(&fresh_s)));
    e2e.insert("hit_submit_ms_p50", median(&ms(&repeat_s)));
    let all: Vec<f64> = ms(&fresh_s).into_iter().chain(ms(&repeat_s)).collect();
    out.extra.insert("submit_ms_p50", median(&all));
    out.extra.insert("submit_ms_p90", quantile(&all, 0.9));
    out.extra.insert("submits_per_s", median(&requests_per_s));

    if traced {
        l.untraced_wall_s = median(&fresh_s);
        l.traced_wall_s = median(&traced_s);
        l.counts = counts;
        out.layers = layers::compute(&trace::analyse(&out.spans), &l);
    }
    Ok(out)
}
