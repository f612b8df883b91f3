//! Aligned plain-text tables for experiment reports.

use std::fmt;

/// Column alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Align {
    /// Left-aligned (default).
    #[default]
    Left,
    /// Right-aligned (numbers).
    Right,
}

/// A simple aligned text table, used by the `repro` binaries to print the
/// paper's tables.
///
/// # Example
///
/// ```
/// use satin_stats::table::{Table, Align};
/// let mut t = Table::new(vec!["Core-Time".into(), "Hash 1-Byte".into()]);
/// t.align(1, Align::Right);
/// t.row(vec!["A53-Average".into(), "1.07e-8".into()]);
/// let out = t.to_string();
/// assert!(out.contains("A53-Average"));
/// assert!(out.lines().count() >= 3); // header, rule, one row
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    aligns: Vec<Align>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if `headers` is empty.
    pub fn new(headers: Vec<String>) -> Self {
        assert!(!headers.is_empty(), "table needs at least one column");
        let n = headers.len();
        Table {
            headers,
            aligns: vec![Align::Left; n],
            rows: Vec::new(),
        }
    }

    /// Sets the alignment of column `col`.
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of bounds.
    pub fn align(&mut self, col: usize, align: Align) -> &mut Self {
        self.aligns[col] = align;
        self
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row's length differs from the header count.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width {} != column count {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
        self
    }

    /// Renders the table to a string.
    pub(crate) fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let render_row = |cells: &[String], widths: &[usize], aligns: &[Align]| -> String {
            let mut line = String::new();
            for i in 0..cols {
                if i > 0 {
                    line.push_str("  ");
                }
                let cell = &cells[i];
                let pad = widths[i].saturating_sub(cell.chars().count());
                match aligns[i] {
                    Align::Left => {
                        line.push_str(cell);
                        line.extend(std::iter::repeat(' ').take(pad));
                    }
                    Align::Right => {
                        line.extend(std::iter::repeat(' ').take(pad));
                        line.push_str(cell);
                    }
                }
            }
            line.trim_end().to_string()
        };
        out.push_str(&render_row(
            &self.headers,
            &widths,
            &vec![Align::Left; cols],
        ));
        out.push('\n');
        let rule_len = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.extend(std::iter::repeat('-').take(rule_len));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row, &widths, &self.aligns));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(vec!["name".into(), "value".into()]);
        t.align(1, Align::Right);
        t.row(vec!["alpha".into(), "1".into()]);
        t.row(vec!["b".into(), "12345".into()]);
        t
    }

    #[test]
    fn renders_aligned_columns() {
        let out = sample().render();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // Right-aligned numeric column: "1" should be padded to width 5.
        assert!(lines[2].ends_with("    1"));
        assert!(lines[3].ends_with("12345"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new(vec!["a".into()]);
        t.row(vec!["x".into(), "y".into()]);
    }

    #[test]
    fn display_matches_render() {
        let t = sample();
        assert_eq!(t.to_string(), t.render());
        assert_eq!(t.rows.len(), 2);
    }
}
