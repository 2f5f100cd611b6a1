//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! The simulator crates carry no instrumentation of their own, so the
//! traced run wraps every public call it makes (`lint_text`,
//! `run_cell_report`, `DiskStore::load`, `audit`, ...) in a span. A span
//! records its name, start, end, parent and the request it belongs to (a
//! cell or a submission). When tracing is off, [`span`] is a plain call.
//!
//! A span's *self time* is its duration minus the part of it covered by
//! its children. Children may run on other threads (pool jobs under a
//! `runner` span), so coverage is the length of the union of the child
//! intervals, not their sum.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    /// Open spans on this thread, innermost last: `(span id, request id)`.
    static STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// One finished span. Times are nanoseconds since the first span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// Enclosing span, 0 for a root.
    pub parent: u64,
    pub name: &'static str,
    /// The cell or submission this span works for.
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns span recording on or off for every thread.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The innermost open span on this thread and its request id, to hand
/// to work that runs on another thread (see [`within`]).
pub fn current() -> (u64, u64) {
    STACK.with(|s| s.borrow().last().copied().unwrap_or((0, 0)))
}

/// Runs `f` inside a span named `name`, child of the innermost open span
/// on this thread, for the same request.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let req = current().1;
    span_for(name, req, f)
}

/// [`span`] for an explicit request id (a new cell or submission).
pub fn span_for<T>(name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = current().0;
    STACK.with(|s| s.borrow_mut().push((id, req)));
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    STACK.with(|s| s.borrow_mut().pop());
    SPANS.lock().expect("span log poisoned").push(Span {
        id,
        parent,
        name,
        req,
        start_ns,
        end_ns,
    });
    out
}

/// Runs `f` on this thread as if the span `parent` (from [`current`] on
/// another thread) were open here, so pool jobs nest under the caller.
pub fn within<T>(parent: (u64, u64), f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    STACK.with(|s| s.borrow_mut().push(parent));
    let out = f();
    STACK.with(|s| s.borrow_mut().pop());
    out
}

/// Removes and returns every recorded span.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span log poisoned"))
}

/// What one span name added up to.
#[derive(Debug, Clone, Default)]
pub struct Layer {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Every call's duration, for percentiles.
    pub durs_ns: Vec<u64>,
}

/// Self time and call counts per span name.
#[derive(Debug, Clone, Default)]
pub struct Breakdown {
    pub layers: BTreeMap<&'static str, Layer>,
    /// Summed duration of root spans.
    pub root_ns: u64,
}

impl Breakdown {
    pub fn layer(&self, name: &str) -> Layer {
        self.layers.get(name).cloned().unwrap_or_default()
    }
}

/// Length of the union of `[start, end)` intervals.
fn union_len(mut iv: Vec<(u64, u64)>) -> u64 {
    iv.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    covered
}

/// Computes each span's self time and sums it per name.
pub fn analyse(spans: &[Span]) -> Breakdown {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out = Breakdown::default();
    for s in spans {
        let covered = children
            .remove(&s.id)
            .map_or(0, |iv| union_len(iv).min(s.dur_ns()));
        let self_ns = s.dur_ns() - covered;
        let layer = out.layers.entry(s.name).or_default();
        layer.calls += 1;
        layer.total_ns += s.dur_ns();
        layer.self_ns += self_ns;
        layer.durs_ns.push(s.dur_ns());
        if s.parent == 0 {
            out.root_ns += s.dur_ns();
        }
    }
    out
}

/// Writes spans as tab-separated lines:
/// `id parent name req start_ns end_ns`.
pub fn write(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "id\tparent\tname\treq\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            f,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.name, s.req, s.start_ns, s.end_ns
        )?;
    }
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlapping_children() {
        assert_eq!(union_len(vec![(0, 10), (5, 15), (20, 30)]), 25);
        assert_eq!(union_len(vec![]), 0);
    }

    #[test]
    fn self_time_subtracts_child_coverage() {
        let spans = vec![
            Span {
                id: 1,
                parent: 0,
                name: "req",
                req: 0,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                id: 2,
                parent: 1,
                name: "a",
                req: 0,
                start_ns: 10,
                end_ns: 40,
            },
            Span {
                id: 3,
                parent: 1,
                name: "a",
                req: 0,
                start_ns: 30,
                end_ns: 60,
            },
        ];
        let b = analyse(&spans);
        assert_eq!(b.layer("req").self_ns, 50);
        assert_eq!(b.layer("a").self_ns, 60);
        assert_eq!(b.layer("a").calls, 2);
        assert_eq!(b.root_ns, 100);
    }
}
