//! Experiment runners for the artifacts no `.hiss` pack can express,
//! plus the baseline cache every pack cell runs through.
//!
//! | module | artifact |
//! |---|---|
//! | [`tables`] | Table I (SSR catalogue), Table II (system configuration) |
//! | [`extensions`] | beyond the paper: outstanding-limit sweep, module pairing, adaptive QoS |
//! | [`cache`] | [`BaselineCache`], the memoized baseline and default runs |
//!
//! Every paper figure is a `.hiss` pack under `scenarios/` rendered by
//! `hiss_scenario::figures`: Figs. 3/5 (`fig3.hiss`), 4 (`fig4.hiss`,
//! an [`IDLE_CPU`](crate::IDLE_CPU) grid), 6, 7, 8, 9 (`fig9.hiss`), 12
//! and §IV-C (`section4c.hiss`), as are the multi-GPU scaling and
//! coalescing-window extensions. `hiss-cli figures` prints every
//! artifact.

pub mod tables;

pub mod cache;
pub mod extensions;

pub use cache::BaselineCache;

/// Renders a fixed-width text table: a header row plus data rows, every
/// cell right-aligned to its column's widest entry.
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;

    #[test]
    fn render_table_aligns_columns() {
        let s = render_table(
            &["app", "perf"],
            &[
                vec!["x264".into(), "0.56".into()],
                vec!["fluidanimate".into(), "0.69".into()],
            ],
        );
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("app"));
        assert!(lines[2].ends_with("0.56"));
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn render_table_handles_empty_header() {
        // Regression: `widths.len() - 1` underflowed on an empty header.
        let s = render_table(&[], &[]);
        assert_eq!(s, "\n\n");
    }

    #[test]
    fn baselines_are_quiet() {
        let cfg = SystemConfig::a10_7850k();
        let cache = BaselineCache::global();
        let base = cache.cpu_baseline(&cfg, "swaptions", "bfs");
        assert_eq!(base.counter("kernel.ssrs_serviced"), 0);
        assert!(base.cpu_app_runtime().is_some());
        let idle = cache.gpu_idle_baseline(&cfg, "bfs");
        assert!(idle.counter("kernel.ssrs_serviced") > 0);
        assert!(idle.cpu_app_runtime().is_none());
    }
}
