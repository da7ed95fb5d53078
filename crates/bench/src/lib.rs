//! Shared helpers for the experiment harnesses: aligned table printing and
//! JSON result dumping (so `EXPERIMENTS.md` can be regenerated
//! mechanically from `target/experiments/*.json`, in the target directory
//! the harness was built in).

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::fs;
use std::path::{Path, PathBuf};

use iobt_obs::push_json_str;

/// A printable results table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment identifier (e.g. `f2_synthesis_scale`).
    pub id: String,
    /// Human title.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows of preformatted cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(id: &str, title: &str, columns: &[&str]) -> Self {
        Table {
            id: id.to_string(),
            title: title.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the column count).
    ///
    /// # Panics
    ///
    /// Panics on column-count mismatch.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "row/column mismatch");
        self.rows.push(cells);
    }

    /// Prints the table with aligned columns.
    pub fn print(&self) {
        println!("\n## {} — {}\n", self.id, self.title);
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let header: Vec<String> = self
            .columns
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect();
        println!("| {} |", header.join(" | "));
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        println!("|-{}-|", sep.join("-|-"));
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect();
            println!("| {} |", cells.join(" | "));
        }
    }

    /// Prints the table and writes it as JSON under `experiments/` in the
    /// target directory of the running binary: a bench at
    /// `<target>/<profile>/deps/<bin>` writes `<target>/experiments/<id>.json`.
    pub fn finish(&self) {
        self.print();
        let Some(dir) = std::env::current_exe().ok().as_deref().and_then(experiments_dir) else {
            return;
        };
        if fs::create_dir_all(&dir).is_ok() {
            let path = dir.join(format!("{}.json", self.id));
            if fs::write(&path, self.to_json()).is_ok() {
                println!("\n[saved {}]", path.display());
            }
        }
    }

    /// The table as one JSON object: `id`, `title`, `columns`, then
    /// `rows` (one row per line), every cell a string.
    fn to_json(&self) -> String {
        fn push_strings(out: &mut String, cells: &[String]) {
            out.push('[');
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_json_str(out, cell);
            }
            out.push(']');
        }
        let mut out = String::from("{\"id\":");
        push_json_str(&mut out, &self.id);
        out.push_str(",\"title\":");
        push_json_str(&mut out, &self.title);
        out.push_str(",\"columns\":");
        push_strings(&mut out, &self.columns);
        out.push_str(",\"rows\":[");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            push_strings(&mut out, row);
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Where a harness at `exe` saves its tables: `<target>/experiments` for a
/// binary at `<target>/<profile>/deps/<bin>` (a bench) or
/// `<target>/<profile>/<bin>`. The target directory is the one the binary
/// was built in, so a copy of the tree, or a build under
/// `CARGO_TARGET_DIR`, writes into its own.
fn experiments_dir(exe: &Path) -> Option<PathBuf> {
    let mut dir = exe.parent()?;
    if dir.ends_with("deps") {
        dir = dir.parent()?;
    }
    Some(dir.parent()?.join("experiments"))
}

/// Formats a float with 3 decimals.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats a float with 1 decimal.
pub fn f1(v: f64) -> String {
    format!("{v:.1}")
}

/// Mean and population standard deviation of a sample.
pub fn mean_std(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
    (mean, var.sqrt())
}

/// Formats `mean ± std`.
pub fn pm(xs: &[f64]) -> String {
    let (m, s) = mean_std(xs);
    format!("{m:.3} ± {s:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rows_must_match_columns() {
        let mut t = Table::new("x", "t", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        assert_eq!(t.rows.len(), 1);
    }

    #[test]
    fn json_keeps_key_order_and_escapes_cells() {
        let mut t = Table::new("x", "a \"quoted\" title", &["a", "b"]);
        t.row(vec!["1".into(), "back\\slash".into()]);
        t.row(vec!["±".into(), "tab\t".into()]);
        assert_eq!(
            t.to_json(),
            "{\"id\":\"x\",\"title\":\"a \\\"quoted\\\" title\",\"columns\":[\"a\",\"b\"],\"rows\":[\n\
             [\"1\",\"back\\\\slash\"],\n\
             [\"±\",\"tab\\t\"]\n]}\n"
        );
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn bad_row_panics() {
        let mut t = Table::new("x", "t", &["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn stats_helpers() {
        let (m, s) = mean_std(&[2.0, 4.0]);
        assert_eq!(m, 3.0);
        assert_eq!(s, 1.0);
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(f1(1.26), "1.3");
        assert!(pm(&[1.0, 1.0]).starts_with("1.000"));
        assert_eq!(mean_std(&[]), (0.0, 0.0));
    }

    #[test]
    fn tables_are_saved_in_the_binarys_own_target_directory() {
        let dir = |exe: &str| experiments_dir(Path::new(exe));
        let want = Some(PathBuf::from("/copy/target/experiments"));
        assert_eq!(dir("/copy/target/release/deps/f1_end_to_end-0123abcd"), want);
        assert_eq!(dir("/copy/target/release/fleet_scale"), want);
        assert_eq!(
            dir("/elsewhere/debug/deps/t3_assurance-4567"),
            Some(PathBuf::from("/elsewhere/experiments")),
            "a CARGO_TARGET_DIR build writes into that directory"
        );
        assert_eq!(dir("bench"), None, "a bare name has no target directory");
    }
}
