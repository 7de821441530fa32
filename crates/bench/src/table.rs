//! Markdown table rendering for the paper report.

/// Collects rows and renders them as a markdown table, cells padded so
/// the source reads aligned too.
#[derive(Default, Debug)]
pub struct TablePrinter {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TablePrinter {
    /// A table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        TablePrinter {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Render as a markdown table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.chars().count());
            }
        }
        let emit = |cells: &[String], out: &mut String| {
            out.push('|');
            for (c, &w) in cells.iter().zip(&widths) {
                out.push_str(&format!(" {c:<w$} |"));
            }
            out.push('\n');
        };
        let mut out = String::new();
        emit(&self.header, &mut out);
        out.push('|');
        for &w in &widths {
            out.push_str(&"-".repeat(w + 2));
            out.push('|');
        }
        out.push('\n');
        for row in &self.rows {
            emit(row, &mut out);
        }
        out
    }
}

/// Format a duration as fractional seconds, paper-style.
pub fn secs(d: std::time::Duration) -> String {
    format!("{:.4}", d.as_secs_f64())
}

/// Format a duration in microseconds, for latencies too small to read
/// in seconds.
pub fn micros(d: std::time::Duration) -> String {
    format!("{:.1}", d.as_secs_f64() * 1e6)
}

/// Format a ratio as a percentage with sign.
pub fn pct(x: f64) -> String {
    format!("{:+.2}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TablePrinter::new(vec!["name", "tti"]);
        t.row(vec!["RDB-only", "1.5"]);
        t.row(vec!["RDB-GDB(dotil)", "0.9"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], "| name           | tti |");
        assert_eq!(lines[1], "|----------------|-----|");
        assert!(lines[2].starts_with("| RDB-only "));
        // Columns align: 'tti' column starts at the same offset everywhere.
        let off = lines[0].find("tti").unwrap();
        assert_eq!(&lines[2][off..off + 3], "1.5");
        assert_eq!(&lines[3][off..off + 3], "0.9");
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_mismatch_panics() {
        let mut t = TablePrinter::new(vec!["a", "b"]);
        t.row(vec!["only-one"]);
    }

    #[test]
    fn format_helpers() {
        assert_eq!(secs(Duration::from_millis(1234)), "1.2340");
        assert_eq!(micros(Duration::from_nanos(12_345)), "12.3");
        assert_eq!(micros(Duration::from_millis(2)), "2000.0");
        assert_eq!(pct(0.4372), "+43.72%");
        assert_eq!(pct(-0.05), "-5.00%");
    }
}
