//! `serve_mixed`: an in-process server on loopback, two closed-loop
//! clients, and half of all submissions repeating an earlier one.
//!
//! Also home of the pieces the traced grid runs reuse: the timed client
//! ([`submit`]), the loopback rig ([`with_server`]) and [`replay`], which
//! serves a submission through the same public functions
//! `hiss_serve::Service` composes so each of them can carry a span.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use hiss::{BaselineCache, DiskStore, PoolProfile, RunReport};
use hiss_obs::invariants::audit;
use hiss_obs::schema::Scope;
use hiss_scenario::{cell_metrics, run_cell_report, Cell};
use hiss_serve::protocol::{Request, Response};
use hiss_serve::service::STREAM_CHUNK;
use hiss_serve::{cell_store_key, Server, Service};

use crate::common::{self, median, secs_since, Pack, ScratchDir};
use crate::layers::{self, Layered};
use crate::{cache_counters, trace, Counts, Outcome, Tally};

/// The quick packs a client submits; between them they take the QoS
/// governor, NIC/DMA devices and criticality partitioning paths.
pub const PACKS: [&str; 5] = [
    "fig3",
    "fig6_mitigations",
    "qos_sweep",
    "topology",
    "mixed_criticality",
];
/// Concurrent closed-loop clients.
pub const CLIENTS: usize = 2;

/// One submission's reply, as the client saw it.
#[derive(Debug, Clone, Default)]
pub struct Reply {
    /// Request sent to `done` received.
    pub latency_s: f64,
    /// Request sent to the first snapshot line.
    pub first_s: f64,
    /// Raw snapshot lines, in grid order.
    pub lines: Vec<String>,
    /// Bytes of every response line.
    pub bytes: u64,
    pub cells: u64,
    pub simulated: u64,
    pub from_store: u64,
}

/// Submits `text` to the server at `addr` and times the reply stream.
pub fn submit(addr: SocketAddr, text: &str, quick: bool) -> Result<Reply, String> {
    let t0 = Instant::now();
    let io = |e: std::io::Error| format!("submit: {e}");
    let conn = TcpStream::connect(addr).map_err(io)?;
    let mut reader = BufReader::new(conn.try_clone().map_err(io)?);
    let mut writer = conn;
    let req = Request::Submit {
        scenario: text.to_string(),
        quick,
    };
    writeln!(writer, "{}", req.encode()).map_err(io)?;
    writer.flush().map_err(io)?;
    let mut reply = Reply::default();
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line).map_err(io)? == 0 {
            return Err("server closed the connection mid-stream".to_string());
        }
        reply.bytes += line.len() as u64;
        let text = line.trim_end_matches(['\r', '\n']);
        match trace::span("json.decode", || Response::decode(text))? {
            Response::Cell(_) => {
                if reply.lines.is_empty() {
                    reply.first_s = secs_since(t0);
                }
                reply.lines.push(text.to_string());
            }
            Response::Done {
                cells,
                simulated,
                from_store,
            } => {
                reply.latency_s = secs_since(t0);
                reply.cells = cells;
                reply.simulated = simulated;
                reply.from_store = from_store;
                return Ok(reply);
            }
            other => return Err(format!("unexpected response {other:?}")),
        }
    }
}

/// Stops the server when dropped, so a panicking caller cannot leave the
/// accept loop (and the thread scope around it) waiting forever.
struct StopOnDrop<'a>(&'a Server);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.initiate_shutdown();
    }
}

/// Binds a server on a free loopback port over `store`, runs `f` with
/// its address, then shuts the server down and waits for it to drain.
pub fn with_server<T>(store: Arc<DiskStore>, f: impl FnOnce(SocketAddr) -> T) -> Result<T, String> {
    let service = Arc::new(Service::new(Some(store)));
    let server = Server::bind("127.0.0.1:0", service).map_err(|e| format!("bind loopback: {e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?;
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run());
        let out = {
            let _stop = StopOnDrop(&server);
            f(addr)
        };
        match handle.join() {
            Ok(Ok(())) => Ok(out),
            Ok(Err(e)) => Err(format!("server: {e}")),
            Err(_) => Err("server thread panicked".to_string()),
        }
    })
}

/// One cell served through the public functions `Service` composes.
pub struct ReplayedCell {
    pub line: String,
    pub from_store: bool,
    /// Every run this cell simulated (baselines and co-run); each one
    /// was audited once by `Soc::finalize`.
    pub runs: Vec<Arc<RunReport>>,
    pub audit_clean: bool,
}

impl ReplayedCell {
    /// Events popped by the co-run, if this cell simulated one (the
    /// co-run is the last run).
    pub fn corun_events(&self) -> u64 {
        self.runs.last().map_or(0, |r| {
            r.metrics.counter_value("run.events_popped").unwrap_or(0)
        })
    }
}

/// Serves `cell` from `store` or by simulating it, as
/// `Service::run_cell` does, with a span around each call.
pub fn replay_cell(cell: &Cell, store: &DiskStore) -> ReplayedCell {
    let key = trace::span("store.key", || cell_store_key(cell));
    if let Some(metrics) = trace::span("store.load", || store.load(&key)) {
        if trace::span("audit", || audit(&metrics, Scope::Run)).clean() {
            let report = trace::span("serve.from_metrics", || RunReport::from_metrics(metrics));
            let snapshot = trace::span("scenario.cell_metrics", || cell_metrics(cell, &report));
            let line = trace::span("json.encode", || Response::Cell(snapshot).encode());
            return ReplayedCell {
                line,
                from_store: true,
                runs: Vec::new(),
                audit_clean: true,
            };
        }
    }
    let (base, gpu_base) = trace::span("cache.baseline", || {
        let cache = BaselineCache::global();
        let cfg = &cell.knobs.cfg;
        (
            cache.cpu_baseline(cfg, &cell.cpu_app, &cell.gpu_app),
            cache.gpu_idle_baseline(cfg, &cell.gpu_app),
        )
    });
    let (_, report) = trace::span("sim.corun", || run_cell_report(cell));
    let audit_clean = trace::span("audit", || audit(&report.metrics, Scope::Run)).clean();
    let _ = trace::span("store.save", || store.save(&key, &report.metrics));
    let snapshot = trace::span("scenario.cell_metrics", || cell_metrics(cell, &report));
    let line = trace::span("json.encode", || Response::Cell(snapshot).encode());
    ReplayedCell {
        line,
        from_store: false,
        runs: vec![base, gpu_base, report],
        audit_clean,
    }
}

/// A submission replayed without transport.
pub struct Replayed {
    pub cells: Vec<ReplayedCell>,
    pub profiles: Vec<PoolProfile>,
}

/// Replays one submission as `Service::submit` does — lint, parse,
/// expand, then cells in `STREAM_CHUNK` batches on the pool — inside a
/// `serve.replay` span.
pub fn replay(pack: &Pack, text: &str, store: &DiskStore, req: u64) -> Result<Replayed, String> {
    trace::span_for("serve.replay", req, || {
        let (_, cells) = pack.compile(text)?;
        let mut out = Vec::with_capacity(cells.len());
        let mut profiles = Vec::new();
        for chunk in cells.chunks(STREAM_CHUNK) {
            let (done, profile) = trace::span("runner", || {
                let parent = trace::current();
                hiss::run_jobs_profiled(hiss::thread_count(), chunk.len(), |i| {
                    trace::within(parent, || {
                        trace::span("serve.job", || replay_cell(&chunk[i], store))
                    })
                })
            });
            out.extend(done);
            profiles.push(profile);
        }
        Ok(Replayed {
            cells: out,
            profiles,
        })
    })
}

/// Runs one submission through `Service::submit`, without transport,
/// and returns its seconds and the snapshot lines the server would
/// stream for it. The lines are encoded after the clock stops.
pub fn service_submit(
    service: &Service,
    pack: &Pack,
    text: &str,
) -> Result<(f64, Vec<String>), String> {
    let mut snapshots = Vec::new();
    let t0 = Instant::now();
    let done = service.submit(&pack.file, text, pack.quick, |s| snapshots.push(s));
    let secs = secs_since(t0);
    if let Err(diags) = done {
        let diags: Vec<String> = diags.iter().map(ToString::to_string).collect();
        return Err(format!("{} rejected: {}", pack.file, diags.join("; ")));
    }
    let lines = snapshots
        .into_iter()
        .map(|s| Response::Cell(s).encode())
        .collect();
    Ok((secs, lines))
}

/// One submission of a round.
#[derive(Debug, Clone)]
pub struct Sent {
    pub pack: usize,
    /// First submission of this (pack, seed) in the round.
    pub fresh: bool,
    /// Seconds from round start to the request.
    pub sent_s: f64,
    pub reply: Result<Reply, String>,
}

/// The seeded submission order of a round: every pack twice, shuffled.
/// The first occurrence of a pack is its fresh submission.
pub fn round_order(seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..PACKS.len()).flat_map(|p| [p, p]).collect();
    let mut state = seed;
    for i in (1..order.len()).rev() {
        state = common::splitmix64(state);
        order.swap(i, (state % (i as u64 + 1)) as usize);
    }
    order
}

/// Runs one round against a fresh store: clients take submissions in
/// `order`; a repeat waits until its fresh submission has completed, so
/// it must be served entirely from the store.
pub fn round(
    packs: &[Pack],
    texts: &[String],
    order: &[usize],
    store_dir: &Path,
) -> Result<(Vec<Sent>, f64), String> {
    BaselineCache::global().clear();
    let store = Arc::new(DiskStore::open(store_dir).map_err(|e| format!("open store: {e}"))?);
    let mut seen = vec![false; packs.len()];
    let fresh: Vec<bool> = order
        .iter()
        .map(|&p| !std::mem::replace(&mut seen[p], true))
        .collect();
    with_server(store, |addr| {
        // (next item, fresh submission of each pack completed)
        let state = Mutex::new((0usize, vec![false; packs.len()]));
        let wake = Condvar::new();
        let sent = Mutex::new(Vec::with_capacity(order.len()));
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..CLIENTS {
                scope.spawn(|| loop {
                    let k = {
                        let mut s = state.lock().expect("round state poisoned");
                        if s.0 >= order.len() {
                            return;
                        }
                        let k = s.0;
                        s.0 += 1;
                        while !fresh[k] && !s.1[order[k]] {
                            s = wake.wait(s).expect("round state poisoned");
                        }
                        k
                    };
                    let p = order[k];
                    let sent_s = secs_since(t0);
                    let reply = submit(addr, &texts[p], packs[p].quick);
                    if fresh[k] {
                        state.lock().expect("round state poisoned").1[p] = true;
                        wake.notify_all();
                    }
                    sent.lock().expect("round log poisoned").push(Sent {
                        pack: p,
                        fresh: fresh[k],
                        sent_s,
                        reply,
                    });
                });
            }
        });
        let wall = secs_since(t0);
        let mut sent = sent.into_inner().expect("round log poisoned");
        sent.sort_by(|a, b| a.sent_s.total_cmp(&b.sent_s));
        (sent, wall)
    })
}

/// Direct in-process results for a round's packs: for each pack, every
/// cell's snapshot line and run registry, from a cold cache.
pub struct Direct {
    pub lines: Vec<Vec<String>>,
    pub regs: Vec<Vec<hiss_obs::MetricsRegistry>>,
}

/// Runs every pack directly (`scenario run`) and renders its rows and
/// checks its bands, as the reference each served snapshot must match.
pub fn direct(packs: &[Pack], texts: &[String]) -> Result<Direct, String> {
    BaselineCache::global().clear();
    let mut out = Direct {
        lines: Vec::new(),
        regs: Vec::new(),
    };
    for (pack, text) in packs.iter().zip(texts) {
        let sc = hiss_scenario::Scenario::from_str(text)
            .map_err(|e| format!("{}:{}: {}", pack.file, e.line, e.msg))?;
        let (rows, snaps): (Vec<_>, Vec<_>) = hiss_scenario::run_with_metrics(&sc, pack.quick)
            .into_iter()
            .unzip();
        let jsonl = trace::span("scenario.emit", || hiss_scenario::output::to_jsonl(&rows));
        trace::span("scenario.check", || hiss_scenario::check(&sc, &rows));
        if jsonl.lines().count() != rows.len() {
            return Err(format!("{}: row output lost rows", pack.name));
        }
        out.lines.push(snaps.iter().map(|s| s.to_json()).collect());
        out.regs.push(snaps);
    }
    Ok(out)
}

/// Checks one served submission against the direct results.
fn check_sent(s: &Sent, direct: &Direct) -> Vec<String> {
    let reply = match &s.reply {
        Ok(r) => r,
        Err(e) => return vec![e.clone()],
    };
    let want = &direct.lines[s.pack];
    let mut problems = Vec::new();
    if reply.cells != want.len() as u64 || reply.lines.len() != want.len() {
        problems.push(format!(
            "{} rows streamed / {} reported, expand gives {}",
            reply.lines.len(),
            reply.cells,
            want.len()
        ));
    } else if let Some(i) = reply.lines.iter().zip(want).position(|(a, b)| a != b) {
        problems.push(format!("snapshot {i} differs from a direct run"));
    }
    if !s.fresh && (reply.simulated != 0 || reply.from_store != reply.cells) {
        problems.push(format!(
            "repeat simulated {} cell(s), {} from store",
            reply.simulated, reply.from_store
        ));
    }
    problems
}

/// Audits every direct registry and, at the default seed, compares its
/// digests with the committed ones. Returns `(problems, counts)`.
fn check_direct(
    packs: &[Pack],
    direct: &Direct,
    digests: Option<&common::Digests>,
) -> (Vec<String>, Counts) {
    let mut problems = Vec::new();
    let mut counts = Counts::default();
    for (pack, regs) in packs.iter().zip(&direct.regs) {
        for (i, reg) in regs.iter().enumerate() {
            counts.add_run(reg);
            let report = audit(reg, Scope::Run);
            if !report.clean() {
                problems.push(format!(
                    "{} cell {i}: {} law violation(s)",
                    pack.name,
                    report.violations.len()
                ));
            }
        }
        if let Some(d) = digests {
            let got: Vec<u64> = regs.iter().map(common::digest).collect();
            let bad = common::digest_mismatches(d, &pack.digest_set(), &got);
            if bad > 0 {
                problems.push(format!(
                    "{}: {bad} cell digest(s) differ from {}",
                    pack.digest_set(),
                    common::DIGESTS
                ));
            }
        }
    }
    (problems, counts)
}

/// Runs one round, verifies it, and tallies every submission.
fn checked_round(
    packs: &[Pack],
    texts: &[String],
    order: &[usize],
    store_dir: &Path,
    digests: Option<&common::Digests>,
    tally: &mut Tally,
) -> Result<(Vec<Sent>, f64, Direct, Counts), String> {
    let (sent, wall) = round(packs, texts, order, store_dir)?;
    let _ = std::fs::remove_dir_all(store_dir);
    let direct = direct(packs, texts)?;
    let (mut problems, counts) = check_direct(packs, &direct, digests);
    for s in &sent {
        problems.extend(check_sent(s, &direct));
        let kind = if s.fresh { "fresh" } else { "repeat" };
        tally.record(
            &format!("{} ({kind})", PACKS[s.pack]),
            std::mem::take(&mut problems),
        );
    }
    Ok((sent, wall, direct, counts))
}

/// Loads and validates the packs, then serves one round at the default
/// seed, checked against the committed digests; several times, so the
/// set-up time is a median. Returns the packs and each pass's seconds.
fn setup(
    root: &Path,
    seed: u64,
    scratch: &ScratchDir,
    tally: &mut Tally,
) -> Result<(Vec<Pack>, Vec<f64>), String> {
    let mut packs = Vec::new();
    let mut setup_s = Vec::new();
    for pass in 0..crate::SETUP_PASSES {
        let t0 = Instant::now();
        let digests = common::load_digests(root)?;
        packs = PACKS
            .iter()
            .map(|name| Pack::load(root, name, true))
            .collect::<Result<Vec<_>, _>>()?;
        for pack in &packs {
            pack.compile(&pack.text)?;
        }
        let texts: Vec<String> = packs.iter().map(|p| p.text_for(None)).collect();
        let dir = scratch.0.join(format!("setup{pass}"));
        checked_round(
            &packs,
            &texts,
            &round_order(seed),
            &dir,
            Some(&digests),
            tally,
        )?;
        setup_s.push(secs_since(t0));
    }
    Ok((packs, setup_s))
}

/// Runs the `serve_mixed` workload.
pub fn run(root: &Path, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    std::env::set_var("HISS_THREADS", "1");
    let mut out = Outcome::default();
    let scratch = ScratchDir::new(root, "serve")?;
    let (packs, setup_s) = setup(root, seed, &scratch, &mut out.tally)?;

    let mut m = Measured::default();
    let t0 = Instant::now();
    let mut i = 0u64;
    while i < crate::MIN_ITERATIONS || secs_since(t0) < seconds {
        let iseed = common::iteration_seed(seed, i);
        let texts: Vec<String> = packs.iter().map(|p| p.text_for(Some(iseed))).collect();
        let dir = scratch.0.join(format!("round{i}"));
        // In a traced run, odd rounds are traced and even ones give the
        // untraced reference for the overhead figure.
        let tracing = traced && i % 2 == 1;
        trace::set_enabled(tracing);
        let (sent, wall, direct, counts) = checked_round(
            &packs,
            &texts,
            &round_order(iseed),
            &dir,
            None,
            &mut out.tally,
        )?;
        if tracing {
            m.traced_wall.push(wall);
            let dir = scratch.0.join(format!("replay{i}"));
            traced_replay(
                &packs,
                &texts,
                &sent,
                &direct,
                counts,
                &dir,
                &mut m.layered,
                &mut out.tally,
            )?;
        } else {
            m.record(&sent, wall, &direct);
        }
        trace::set_enabled(false);
        i += 1;
    }
    out.spans = trace::take();

    out.samples = format!(
        "{} set-up passes; {} untraced rounds ({} fresh and {} repeat submissions); {} traced",
        setup_s.len(),
        m.wall.len(),
        m.fresh_ms.len(),
        m.repeat_ms.len(),
        m.traced_wall.len()
    );
    let e2e = &mut out.e2e;
    e2e.insert("setup_s", median(&setup_s));
    e2e.insert("pack_s_p50", median(&m.wall));
    e2e.insert("cells_per_s", median(&m.cells_per_s));
    e2e.insert("sim_s_per_host_s", median(&m.sim_per_s));
    e2e.insert("first_cell_ms_p50", median(&m.first_ms));
    e2e.insert("fresh_submit_ms_p50", median(&m.fresh_ms));
    e2e.insert("hit_submit_ms_p50", median(&m.repeat_ms));
    let all: Vec<f64> = m.fresh_ms.iter().chain(&m.repeat_ms).copied().collect();
    out.extra.insert("submit_ms_p50", median(&all));
    out.extra
        .insert("submit_ms_p90", common::quantile(&all, 0.9));
    out.extra.insert("submits_per_s", median(&m.submits_per_s));

    if traced {
        let l = &mut m.layered;
        l.untraced_wall_s = median(&m.wall);
        l.traced_wall_s = median(&m.traced_wall);
        l.job_span = "serve.job";
        // The server runs one submission per connected client at once.
        l.threads = CLIENTS;
        out.layers = layers::compute(&trace::analyse(&out.spans), l);
    }
    Ok(out)
}

/// What the untraced rounds measured.
#[derive(Default)]
struct Measured {
    /// Wall seconds of each round.
    wall: Vec<f64>,
    traced_wall: Vec<f64>,
    /// Per round: cells streamed, simulated seconds delivered and
    /// submissions completed, each per second of the round.
    cells_per_s: Vec<f64>,
    sim_per_s: Vec<f64>,
    submits_per_s: Vec<f64>,
    /// Per submission, in milliseconds.
    fresh_ms: Vec<f64>,
    repeat_ms: Vec<f64>,
    first_ms: Vec<f64>,
    layered: Layered,
}

impl Measured {
    fn record(&mut self, sent: &[Sent], wall: f64, direct: &Direct) {
        let (mut cells, mut sim_ns, mut done) = (0u64, 0u64, 0u64);
        for s in sent {
            let Ok(r) = &s.reply else { continue };
            done += 1;
            cells += r.cells;
            for reg in &direct.regs[s.pack] {
                sim_ns += reg.counter_value("run.elapsed_ns").unwrap_or(0);
            }
            if s.fresh {
                self.fresh_ms.push(r.latency_s * 1e3);
                self.first_ms.push(r.first_s * 1e3);
            } else {
                self.repeat_ms.push(r.latency_s * 1e3);
            }
        }
        self.wall.push(wall);
        self.cells_per_s.push(cells as f64 / wall);
        self.sim_per_s.push(sim_ns as f64 / 1e9 / wall);
        self.submits_per_s.push(done as f64 / wall);
    }
}

/// The traced part of a round. Every submission, in the order it was
/// sent, runs twice more, each time on a fresh store and a cold cache:
/// through `Service::submit` without transport, which gives its service
/// time, and through [`replay`], which times the service path layer by
/// layer.
#[allow(clippy::too_many_arguments)]
fn traced_replay(
    packs: &[Pack],
    texts: &[String],
    sent: &[Sent],
    direct: &Direct,
    mut counts: Counts,
    dir: &Path,
    l: &mut Layered,
    tally: &mut Tally,
) -> Result<(), String> {
    let mut problems = Vec::new();
    BaselineCache::global().clear();
    let store = DiskStore::open(dir.join("service")).map_err(|e| format!("open store: {e}"))?;
    let service = Service::new(Some(Arc::new(store)));
    for s in sent {
        let (secs, lines) = service_submit(&service, &packs[s.pack], &texts[s.pack])?;
        if lines != direct.lines[s.pack] {
            problems.push(format!(
                "Service::submit of {} differs from a direct run",
                PACKS[s.pack]
            ));
        }
        l.service_ms.push(secs * 1e3);
        if let Ok(reply) = &s.reply {
            l.transport_ms.push((reply.latency_s - secs) * 1e3);
            l.lines += reply.lines.len() as u64 + 1;
            l.bytes += reply.bytes;
        }
    }
    drop(service);

    BaselineCache::global().clear();
    let before = cache_counters();
    let store = DiskStore::open(dir.join("replay")).map_err(|e| format!("open store: {e}"))?;
    let mut runs = Vec::new();
    for (k, s) in sent.iter().enumerate() {
        let r = replay(&packs[s.pack], &texts[s.pack], &store, k as u64)?;
        if r.cells
            .iter()
            .map(|c| &c.line)
            .ne(direct.lines[s.pack].iter())
        {
            problems.push(format!(
                "replayed {} differs from a direct run",
                PACKS[s.pack]
            ));
        }
        if r.cells.iter().any(|c| !c.audit_clean) {
            problems.push(format!("replayed {} failed its audit", PACKS[s.pack]));
        }
        // The service audits every cell it serves, besides the audit
        // inside each simulation.
        l.audit_calls += r.cells.len() as u64;
        for c in &r.cells {
            l.snapshot_bytes.push(c.line.len() as f64);
            l.corun_events += c.corun_events();
            runs.extend(c.runs.iter().cloned());
        }
        l.profiles.extend(r.profiles);
    }
    tally.record("traced replay", problems);
    l.audit_calls += layers::distinct_runs(&runs);
    l.iterations += 1;
    for reg in direct.regs.iter().flatten() {
        l.names_per_snapshot.push(reg.len() as f64);
    }
    counts.set_cache_since(before);
    counts.set_store(&store);
    l.counts.get_or_insert(counts);
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
    Ok(())
}
