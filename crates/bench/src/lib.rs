//! # ccs-bench — experiment harnesses
//!
//! One binary per DAM-model experiment (`e01` … `e06`, `e10`, `e12`,
//! `e13` and `e17`), each regenerating a paper-claim-shaped table; the
//! executor experiments `e18` … `e22` are sweep specs under
//! `experiments/`, run with `ccs sweep --spec`. Shared table/CSV plumbing, the
//! repeated-runs statistics ([`stats`]) and the declarative cell-sweep
//! engine ([`sweep`]) live here. A regression between two commits is
//! judged by `benchmark/` (see `BENCHMARK.json`), not here.

pub mod stats;
pub mod sweep;

use std::fmt::Write as _;
use std::path::PathBuf;

/// A printable, CSV-serializable results table.
#[derive(Clone, Debug)]
pub struct Table {
    pub title: String,
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "## {}", self.title);
        s.push_str(&self.body());
        s
    }

    /// The aligned header + rows without the title line (the shared
    /// alignment core; sweep reports embed this directly).
    pub fn body(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut s = String::new();
        for (i, h) in self.headers.iter().enumerate() {
            let _ = write!(s, "{:>w$}  ", h, w = widths[i]);
        }
        s.push('\n');
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                let _ = write!(s, "{:>w$}  ", c, w = widths[i]);
            }
            s.push('\n');
        }
        s
    }

    pub fn print(&self) {
        println!("{}", self.render());
    }

    /// Write as CSV under `results/`.
    pub fn save_csv(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = results_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{name}.csv"));
        let mut s = String::new();
        let _ = writeln!(s, "{}", self.headers.join(","));
        for row in &self.rows {
            let _ = writeln!(s, "{}", row.join(","));
        }
        std::fs::write(&path, s)?;
        Ok(path)
    }
}

/// Where experiment CSVs land (`results/` at the workspace root, or the
/// current directory when run elsewhere).
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench; results live at the repo root.
    let base = std::env::var("CARGO_MANIFEST_DIR")
        .map(|d| PathBuf::from(d).join("../.."))
        .unwrap_or_else(|_| PathBuf::from("."));
    base.join("results")
}

/// Format a float tersely for tables.
pub fn f(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if x.abs() >= 100.0 {
        format!("{x:.0}")
    } else if x.abs() >= 1.0 {
        format!("{x:.2}")
    } else {
        format!("{x:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["a", "long-header"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["333".into(), "4".into()]);
        let out = t.render();
        assert!(out.contains("## demo"));
        assert!(out.contains("long-header"));
        assert_eq!(out.lines().count(), 4);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("demo", &["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f(0.0), "0");
        assert_eq!(f(123.456), "123");
        assert_eq!(f(1.5), "1.50");
        assert_eq!(f(0.1234), "0.1234");
    }
}
