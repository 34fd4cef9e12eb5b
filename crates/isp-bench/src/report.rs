//! Plain-text table rendering and JSON artifact output for the harness
//! binaries.

use isp_json::Json;
use std::fs;
use std::io;
use std::path::PathBuf;

/// A simple fixed-width table printer: collects rows of strings and renders
/// them with per-column widths, the way the paper's tables read.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given header.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (must match the header arity).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (c, cell) in cells.iter().enumerate() {
                if c > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{cell:>w$}", w = widths[c]));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }
}

/// Format a speedup with the measured-winner marker used in the output.
pub fn fmt_speedup(s: f64) -> String {
    format!("{s:.3}{}", if s >= 1.0 { "" } else { " (naive wins)" })
}

/// The directory all harness binaries publish JSON artifacts into
/// (`target/results/`), created on first use. Shared by `prof_json`,
/// `timeline` and `cold_start` so CI uploads one predictable location.
pub fn results_dir() -> io::Result<PathBuf> {
    let dir = PathBuf::from("target/results");
    fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Write a JSON document to `target/results/{name}.json` (pretty-printed)
/// and return the path.
pub fn write_json_doc(name: &str, doc: &Json) -> io::Result<PathBuf> {
    let path = results_dir()?.join(format!("{name}.json"));
    fs::write(&path, doc.render_pretty())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["a".into(), "1.0".into()]);
        t.row(&["long-name".into(), "12.25".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[1].starts_with('-'));
        // Right-aligned: the short name is padded.
        assert!(lines[2].starts_with("        a"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn rejects_wrong_arity() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn speedup_formatting() {
        assert_eq!(fmt_speedup(1.25), "1.250");
        assert!(fmt_speedup(0.8).contains("naive wins"));
    }
}
