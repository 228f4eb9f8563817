//! Rendering results as aligned text tables and CSV files — the rows and
//! series the paper's figures plot.

use std::fs;
use std::io;
use std::path::Path;

/// A rectangular table of strings.
///
/// # Examples
///
/// ```
/// use convergence::report::Table;
///
/// let mut t = Table::new(vec!["degree".into(), "RIP".into()]);
/// t.push_row(vec!["3".into(), "251.2".into()]);
/// assert!(t.render().contains("degree"));
/// assert!(t.to_csv().starts_with("degree,RIP"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if `headers` is empty.
    #[must_use]
    pub fn new(headers: Vec<String>) -> Self {
        assert!(!headers.is_empty(), "a table needs at least one column");
        Table {
            headers,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the headers.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width {} != {} columns",
            row.len(),
            self.headers.len()
        );
        self.rows.push(row);
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders an aligned, human-readable table.
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..cols {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:>width$}", cells[i], width = widths[i]));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        let rule: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(rule));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }

    /// Renders a GitHub-flavored markdown table (used to paste results
    /// into EXPERIMENTS.md).
    #[must_use]
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let row = |cells: &[String]| format!("| {} |\n", cells.join(" | "));
        out.push_str(&row(&self.headers));
        out.push_str(&format!("|{}\n", "---|".repeat(self.headers.len())));
        for r in &self.rows {
            out.push_str(&row(r));
        }
        out
    }

    /// Renders RFC-4180-style CSV (quoting cells containing separators).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let escape = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| escape(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Writes the CSV rendering to `path`, creating parent directories.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_csv<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        if let Some(parent) = path.as_ref().parent() {
            fs::create_dir_all(parent)?;
        }
        fs::write(path, self.to_csv())
    }
}

/// Formats a float with sensible figure precision.
#[must_use]
pub fn fmt_f64(value: f64) -> String {
    if value == 0.0 {
        "0".to_string()
    } else if value.abs() >= 100.0 {
        format!("{value:.0}")
    } else if value.abs() >= 1.0 {
        format!("{value:.2}")
    } else {
        format!("{value:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new(vec!["a".into(), "label".into()]);
        t.push_row(vec!["100".into(), "x".into()]);
        let rendered = t.render();
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].len(), lines[2].len());
    }

    #[test]
    fn markdown_renders_header_separator_and_rows() {
        let mut t = Table::new(vec!["a".into(), "b".into()]);
        t.push_row(vec!["1".into(), "2".into()]);
        let md = t.to_markdown();
        let lines: Vec<&str> = md.lines().collect();
        assert_eq!(lines[0], "| a | b |");
        assert_eq!(lines[1], "|---|---|");
        assert_eq!(lines[2], "| 1 | 2 |");
    }

    #[test]
    fn csv_escapes_special_cells() {
        let mut t = Table::new(vec!["x".into()]);
        t.push_row(vec!["a,b".into()]);
        t.push_row(vec!["say \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn write_csv_creates_directories() {
        let dir = std::env::temp_dir().join("convergence-report-test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested/out.csv");
        let mut t = Table::new(vec!["v".into()]);
        t.push_row(vec!["1".into()]);
        t.write_csv(&path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "v\n1\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_rows_are_rejected() {
        let mut t = Table::new(vec!["a".into(), "b".into()]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn float_formatting_scales() {
        assert_eq!(fmt_f64(0.0), "0");
        assert_eq!(fmt_f64(0.12345), "0.1235");
        assert_eq!(fmt_f64(4.5678), "4.57");
        assert_eq!(fmt_f64(251.4), "251");
    }
}
