//! Plain-text table and JSON report helpers used by the figure/table
//! regeneration binaries.

use serde::Serialize;

/// A simple fixed-width text table builder.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// A table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:>width$}", cell, width = widths[i]));
            }
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Formats a duration in seconds with a sensible unit (µs/ms/s).
pub fn fmt_time(seconds: f64) -> String {
    // hotgauge-lint: allow(L005, "1e-3 here is seconds (unit-format breakpoint), not a length; L005's literal list cannot see dimensions")
    if seconds < 1e-3 {
        format!("{:.1}us", seconds * 1e6)
    } else if seconds < 1.0 {
        format!("{:.2}ms", seconds * 1e3)
    } else {
        format!("{seconds:.3}s")
    }
}

/// Formats an optional TUH: `None` renders as `">cap"`.
pub fn fmt_tuh(tuh: Option<f64>, cap_s: f64) -> String {
    match tuh {
        Some(t) => fmt_time(t),
        None => format!(">{}", fmt_time(cap_s)),
    }
}

/// Serializes any result to pretty JSON (for EXPERIMENTS.md artifacts).
#[expect(
    clippy::expect_used,
    reason = "all report types derive Serialize with no fallible custom impls; a failure is a programming error"
)]
pub fn to_json<T: Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).expect("results are serializable")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(vec!["bench", "TUH"]);
        t.row(vec!["gcc", "0.4ms"]);
        t.row(vec!["libquantum", "12ms"]);
        let s = t.render();
        assert!(s.contains("bench"));
        assert!(s.contains("libquantum"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        // All lines equally wide or less.
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
    }

    #[test]
    #[should_panic]
    fn row_width_mismatch_panics() {
        let mut t = TextTable::new(vec!["a", "b"]);
        t.row(vec!["only one"]);
    }

    #[test]
    fn time_formats() {
        assert_eq!(fmt_time(200e-6), "200.0us");
        assert_eq!(fmt_time(1.5e-3), "1.50ms");
        assert_eq!(fmt_time(2.0), "2.000s");
    }

    #[test]
    fn tuh_formats() {
        assert_eq!(fmt_tuh(Some(0.5e-3), 0.05), "500.0us");
        assert_eq!(fmt_tuh(None, 0.05), ">50.00ms");
    }

    #[test]
    fn json_roundtrip() {
        #[derive(Serialize)]
        struct R {
            x: f64,
        }
        let s = to_json(&R { x: 1.5 });
        assert!(s.contains("1.5"));
    }
}
