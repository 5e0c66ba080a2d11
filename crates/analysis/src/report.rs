//! Plain-text table formatting used by the figure-regeneration binaries.
//!
//! Each experiment binary prints the same rows/series the paper reports;
//! [`Table`] keeps that output aligned and consistent, and the helpers format
//! quantities spanning many orders of magnitude (MSE, probabilities) in a
//! readable engineering notation.

use std::fmt;

/// A simple aligned text table.
///
/// # Example
///
/// ```
/// use faultmit_analysis::report::Table;
///
/// let mut table = Table::new("Example", vec!["scheme".into(), "mse".into()]);
/// table.add_row(vec!["no-correction".into(), "4.6e18".into()]);
/// table.add_row(vec!["nFM=5".into(), "1.0".into()]);
/// let text = table.to_string();
/// assert!(text.contains("no-correction"));
/// assert!(text.contains("mse"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with a title and column headers.
    #[must_use]
    pub fn new(title: impl Into<String>, headers: Vec<String>) -> Self {
        Self {
            title: title.into(),
            headers,
            rows: Vec::new(),
        }
    }

    /// Appends a row. Rows shorter than the header are padded with empty
    /// cells; longer rows are truncated.
    pub fn add_row(&mut self, mut row: Vec<String>) {
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
    }

    /// Title of the table.
    #[must_use]
    pub fn title(&self) -> &str {
        &self.title
    }

    fn column_widths(&self) -> Vec<usize> {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if cell.len() > widths[i] {
                    widths[i] = cell.len();
                }
            }
        }
        widths
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let widths = self.column_widths();
        writeln!(f, "== {} ==", self.title)?;
        let header: Vec<String> = self
            .headers
            .iter()
            .zip(&widths)
            .map(|(h, w)| format!("{h:<w$}"))
            .collect();
        writeln!(f, "{}", header.join("  "))?;
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        writeln!(f, "{}", rule.join("  "))?;
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect();
            writeln!(f, "{}", cells.join("  "))?;
        }
        Ok(())
    }
}

/// Formats a value in engineering/scientific notation suited to quantities
/// spanning many decades (MSE values, probabilities).
#[must_use]
pub fn format_sci(value: f64) -> String {
    if value == 0.0 {
        "0".to_owned()
    } else if value.abs() >= 0.01 && value.abs() < 10_000.0 {
        format!("{value:.4}")
    } else {
        format!("{value:.3e}")
    }
}

/// Formats a probability/yield as a percentage with enough digits to
/// distinguish "five nines" targets.
#[must_use]
pub fn format_percent(value: f64) -> String {
    format!("{:.4}%", value * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_title_headers_and_rows() {
        let mut table = Table::new("T", vec!["a".into(), "bbbb".into()]);
        table.add_row(vec!["x".into(), "y".into()]);
        table.add_row(vec!["longer".into()]);
        let text = table.to_string();
        assert!(text.starts_with("== T =="));
        assert!(text.contains("bbbb"));
        assert!(text.contains("longer"));
        // Title, header, rule and the two rows.
        assert_eq!(text.lines().count(), 5);
        assert_eq!(table.title(), "T");
    }

    #[test]
    fn rows_are_padded_and_truncated() {
        let mut table = Table::new("T", vec!["a".into(), "b".into()]);
        table.add_row(vec!["1".into(), "2".into(), "3".into()]);
        table.add_row(vec![]);
        let text = table.to_string();
        assert!(!text.contains('3'));
        assert_eq!(text.lines().count(), 5);
    }

    #[test]
    fn sci_formatting_choices() {
        assert_eq!(format_sci(0.0), "0");
        assert_eq!(format_sci(1.0), "1.0000");
        assert!(format_sci(4.6e18).contains('e'));
        assert!(format_sci(1e-6).contains('e'));
    }

    #[test]
    fn percent_formatting() {
        assert_eq!(format_percent(0.999_999), "99.9999%");
    }
}
