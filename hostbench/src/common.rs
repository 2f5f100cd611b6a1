//! Seeds, statistics, pack loading and the committed digests.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use hiss_lint::Severity;
use hiss_obs::MetricsRegistry;
use hiss_scenario::{expand, Cell, Scenario};

use crate::trace;

/// SplitMix64 finaliser: the per-iteration seed generator.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Simulation seed for iteration `i` of a run with workload seed `seed`.
/// Kept below 2^62 so it is a valid `.hiss` integer.
pub fn iteration_seed(seed: u64, i: u64) -> u64 {
    splitmix64(seed ^ splitmix64(i.wrapping_add(1))) >> 2
}

/// Linear-interpolation quantile (`q` in 0..=1) of unsorted samples; 0
/// for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// FNV-1a digest of a snapshot's simulated statistics: every entry
/// except the `cell.*` identity labels.
pub fn digest(reg: &MetricsRegistry) -> u64 {
    let mut bare = MetricsRegistry::new();
    for (name, value) in reg.iter().filter(|(n, _)| !n.starts_with("cell.")) {
        bare.set(name, value.clone());
    }
    hiss::store::fnv1a(bare.to_json().as_bytes())
}

/// A `.hiss` pack read from `scenarios/`.
#[derive(Debug, Clone)]
pub struct Pack {
    /// File stem, e.g. `fig3`.
    pub name: String,
    /// Path as given to lint diagnostics.
    pub file: String,
    pub text: String,
    pub quick: bool,
}

impl Pack {
    pub fn load(root: &Path, name: &str, quick: bool) -> Result<Pack, String> {
        let path = root.join("scenarios").join(format!("{name}.hiss"));
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("{}: cannot read: {e}", path.display()))?;
        Ok(Pack {
            name: name.to_string(),
            file: format!("scenarios/{name}.hiss"),
            text,
            quick,
        })
    }

    /// The pack text, run with simulation seed `seed` (`None` keeps the
    /// configuration's default seed).
    pub fn text_for(&self, seed: Option<u64>) -> String {
        match seed {
            Some(s) => format!("{}\n[system]\nseed = {s}\n", self.text),
            None => self.text.clone(),
        }
    }

    /// Name of this pack's digest set: `fig3` or `fig3@quick`.
    pub fn digest_set(&self) -> String {
        if self.quick {
            format!("{}@quick", self.name)
        } else {
            self.name.clone()
        }
    }

    /// Lint, parse and expand, as `scenario run` and `Service::submit`
    /// do. Lint errors reject the text.
    pub fn compile(&self, text: &str) -> Result<(Scenario, Vec<Cell>), String> {
        let diags = trace::span("scenario.lint", || {
            hiss_scenario::lint::lint_text(&self.file, text)
        });
        if let Some(d) = diags.iter().find(|d| d.severity() == Severity::Error) {
            return Err(d.to_string());
        }
        let sc = trace::span("scenario.parse", || Scenario::from_str(text))
            .map_err(|e| format!("{}:{}: {}", self.file, e.line, e.msg))?;
        let cells = trace::span("scenario.expand", || expand(&sc, self.quick));
        Ok((sc, cells))
    }
}

/// Where the benchmark keeps its digests, relative to the repo root.
pub const DIGESTS: &str = "hostbench/digests.txt";

/// Per-cell digests at the default seed, keyed by digest set.
pub type Digests = BTreeMap<String, Vec<u64>>;

pub fn load_digests(root: &Path) -> Result<Digests, String> {
    let path = root.join(DIGESTS);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("{}: cannot read: {e}", path.display()))?;
    let mut out = Digests::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = || format!("{}:{}: expected `set index digest`", DIGESTS, n + 1);
        let mut f = line.split_whitespace();
        let (Some(set), Some(idx), Some(hex)) = (f.next(), f.next(), f.next()) else {
            return Err(bad());
        };
        let idx: usize = idx.parse().map_err(|_| bad())?;
        let value = u64::from_str_radix(hex, 16).map_err(|_| bad())?;
        let cells = out.entry(set.to_string()).or_default();
        if cells.len() != idx {
            return Err(bad());
        }
        cells.push(value);
    }
    Ok(out)
}

pub fn render_digests(digests: &Digests) -> String {
    let mut out = String::from(
        "# Per-cell digests of simulated statistics at the default seed\n\
         # (FNV-1a of each snapshot without its cell.* labels).\n\
         # Regenerate: cargo run --release -- bless-digests\n",
    );
    for (set, cells) in digests {
        for (i, d) in cells.iter().enumerate() {
            out.push_str(&format!("{set} {i} {d:016x}\n"));
        }
    }
    out
}

/// Compares `got` with the committed digests of `set`; the number of
/// cells that differ (a missing set or a length mismatch fails all).
pub fn digest_mismatches(digests: &Digests, set: &str, got: &[u64]) -> usize {
    match digests.get(set) {
        Some(want) if want.len() == got.len() => {
            want.iter().zip(got).filter(|(w, g)| w != g).count()
        }
        _ => got.len().max(1),
    }
}

/// Scratch space inside the checkout, removed when dropped.
#[derive(Debug)]
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn new(root: &Path, name: &str) -> Result<ScratchDir, String> {
        let dir = root
            .join(".hostbench")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("{}: cannot create: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn iteration_seeds_are_distinct_and_valid() {
        let a: Vec<u64> = (0..100).map(|i| iteration_seed(7, i)).collect();
        let mut b = a.clone();
        b.sort_unstable();
        b.dedup();
        assert_eq!(b.len(), a.len());
        assert!(a.iter().all(|&s| s < 1 << 62));
        assert_ne!(iteration_seed(7, 0), iteration_seed(8, 0));
    }

    #[test]
    fn digest_ignores_cell_labels() {
        let mut a = MetricsRegistry::new();
        a.counter("run.events_popped", 5);
        let mut b = a.clone();
        b.label("cell.cpu_app", "x264");
        assert_eq!(digest(&a), digest(&b));
        b.counter("run.events_popped", 6);
        assert_ne!(digest(&a), digest(&b));
    }
}
