//! Plain-text report rendering.

use pipelayer_nn::serialize::atomic_write;
use std::path::Path;

/// Writes a bench's checked-in results file `path` on a full run. A
/// `--smoke` run (the CI check, on a shrunken workload) leaves it alone,
/// so its numbers never replace the full-mode results. Exits with status
/// 1 if the write fails.
pub fn write_results(path: &str, json: &str, smoke: bool) {
    if smoke {
        println!("\n--smoke: {path} left unchanged");
        return;
    }
    if let Err(e) = atomic_write(Path::new(path), json.as_bytes()) {
        eprintln!("failed to write {path}: {e}");
        std::process::exit(1);
    }
    println!("\nwrote {path}");
}

/// Geometric mean of strictly positive values.
///
/// # Panics
///
/// Panics if `xs` is empty or contains non-positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of empty slice");
    assert!(xs.iter().all(|&x| x > 0.0), "geomean needs positive values");
    (xs.iter().map(|&x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Formats a float with `prec` decimals.
pub fn fmt_f(x: f64, prec: usize) -> String {
    format!("{x:.prec$}")
}

/// Formats a value with an SI suffix (k/M/G/T).
pub fn fmt_si(x: f64) -> String {
    let (v, suffix) = if x.abs() >= 1e12 {
        (x / 1e12, "T")
    } else if x.abs() >= 1e9 {
        (x / 1e9, "G")
    } else if x.abs() >= 1e6 {
        (x / 1e6, "M")
    } else if x.abs() >= 1e3 {
        (x / 1e3, "k")
    } else {
        (x, "")
    };
    format!("{v:.2}{suffix}")
}

/// An aligned-column text table, the output format of every figure/table
/// binary.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let line = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        out.push_str(&line(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let mut t = Table::new("demo", &["net", "speedup"]);
        t.row(vec!["Mnist-A".into(), "42.45".into()]);
        let r = t.render();
        assert!(r.contains("== demo =="));
        assert!(r.contains("Mnist-A"));
        assert!(r.lines().count() >= 4);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_ragged_rows() {
        Table::new("t", &["a", "b"]).row(vec!["x".into()]);
    }

    #[test]
    fn si_formatting() {
        assert_eq!(fmt_si(1485.0e9), "1.49T");
        assert_eq!(fmt_si(2_500_000.0), "2.50M");
        assert_eq!(fmt_si(12.0), "12.00");
    }

    #[test]
    fn geomean_matches_hand_computation() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero() {
        geomean(&[0.0, 1.0]);
    }
}
