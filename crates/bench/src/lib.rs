//! # bench — the evaluation harness
//!
//! Regenerates every table and figure of the paper's §7 (see DESIGN.md for
//! the experiment index):
//!
//! * `cargo run -p bench --release --bin table1` — Table 1 (st, ct, m, su
//!   for levels 0–15 × tolerances 1.0e-3 / 1.0e-4, five runs averaged).
//!   `--io-workers` runs the §4.1 I/O-worker ablation instead.
//! * `cargo run -p bench --release --bin figure1` — Figure 1 (machines in
//!   use vs elapsed seconds for a level-15 run).
//! * `cargo run -p bench --release --bin figures -- <2|3|4|5>` — Figures
//!   2–5 (the Table 1 series, formatted per figure).
//! * `cargo run -p bench --release --bin chronology` — the §6 chronological
//!   `Welcome`/`Bye` output of a small distributed run.
//!
//! Layer costs on the serving path (coordination overhead, streams,
//! events, the live speedup over the sequential program) are measured by
//! the standalone `benchmark/` crate, not here.

use renovation::ExperimentPoint;

pub mod cli;
pub mod json;
pub mod live;

/// Render experiment points as the paper's Table 1 (two blocks: one per
/// tolerance, levels ascending).
pub fn format_table1(points: &[ExperimentPoint]) -> String {
    let mut out = String::new();
    out.push_str("| run    | level |      st |      ct |    m |   su |\n");
    out.push_str("|--------|-------|---------|---------|------|------|\n");
    let mut tols: Vec<f64> = points.iter().map(|p| p.tol).collect();
    tols.sort_by(|a, b| b.total_cmp(a));
    tols.dedup();
    for tol in tols {
        let mut rows: Vec<&ExperimentPoint> = points.iter().filter(|p| p.tol == tol).collect();
        rows.sort_by_key(|p| p.level);
        for p in rows {
            out.push_str(&format!(
                "| {:<6} | {:>5} | {:>7.2} | {:>7.2} | {:>4.1} | {:>4.1} |\n",
                format!("{tol:.0e}"),
                p.level,
                p.st,
                p.ct,
                p.m,
                p.su
            ));
        }
    }
    out
}

/// Simple ASCII plot: one labelled series of (x, y) points, log-y optional.
pub fn ascii_plot(title: &str, series: &[(&str, Vec<(f64, f64)>)], log_y: bool) -> String {
    let width = 64usize;
    let height = 20usize;
    let mut out = format!("{title}\n");
    let all: Vec<(f64, f64)> = series.iter().flat_map(|(_, pts)| pts.clone()).collect();
    if all.is_empty() {
        return out;
    }
    let tx = |v: f64| v;
    let ty = |v: f64| if log_y { v.max(1e-12).log10() } else { v };
    let (xmin, xmax) = all.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &(x, _)| {
        (lo.min(tx(x)), hi.max(tx(x)))
    });
    let (ymin, ymax) = all.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &(_, y)| {
        (lo.min(ty(y)), hi.max(ty(y)))
    });
    let xspan = (xmax - xmin).max(1e-12);
    let yspan = (ymax - ymin).max(1e-12);
    let mut canvas = vec![vec![b' '; width]; height];
    let marks = [b'*', b'o', b'+', b'x'];
    for (si, (_, pts)) in series.iter().enumerate() {
        for &(x, y) in pts {
            let cx = (((tx(x) - xmin) / xspan) * (width - 1) as f64).round() as usize;
            let cy = (((ty(y) - ymin) / yspan) * (height - 1) as f64).round() as usize;
            canvas[height - 1 - cy][cx] = marks[si % marks.len()];
        }
    }
    for (ri, row) in canvas.iter().enumerate() {
        let yv = ymax - yspan * ri as f64 / (height - 1) as f64;
        let label = if log_y { 10f64.powf(yv) } else { yv };
        out.push_str(&format!(
            "{label:>10.2} |{}\n",
            String::from_utf8_lossy(row)
        ));
    }
    out.push_str(&format!(
        "{:>10} +{}\n{:>10}  {:<10.1}{:>w$.1}\n",
        "",
        "-".repeat(width),
        "",
        xmin,
        xmax,
        w = width - 10
    ));
    for (si, (name, _)) in series.iter().enumerate() {
        out.push_str(&format!(
            "    {} {}\n",
            marks[si % marks.len()] as char,
            name
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_formatting_contains_rows() {
        let pts = vec![ExperimentPoint {
            level: 3,
            tol: 1e-3,
            st: 0.25,
            ct: 11.45,
            m: 2.9,
            su: 0.02,
            peak: 4,
            forks: 3,
        }];
        let s = format_table1(&pts);
        assert!(s.contains("| 1e-3"));
        assert!(s.contains("11.45"));
    }

    #[test]
    fn ascii_plot_renders_points() {
        let s = ascii_plot("test", &[("a", vec![(0.0, 1.0), (1.0, 10.0)])], true);
        assert!(s.contains('*'));
        assert!(s.starts_with("test\n"));
    }

    #[test]
    fn ascii_plot_empty_series() {
        let s = ascii_plot("empty", &[("a", vec![])], false);
        assert_eq!(s, "empty\n");
    }
}
