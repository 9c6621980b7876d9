//! The paper's tables as values: typed cells under named columns, the last
//! few of which may be timings.

use std::fmt;

/// One table cell. A number keeps its value, so a test reads the table
/// rather than its text.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A label.
    Text(String),
    /// A count, printed as an integer.
    Count(u64),
    /// A measurement, printed with `places` decimals.
    Num {
        /// The value.
        value: f64,
        /// Decimals shown.
        places: usize,
    },
}

impl Cell {
    /// A score in `[0, 1]`, printed with 3 decimals.
    pub fn score(value: f64) -> Cell {
        Cell::fixed(value, 3)
    }

    /// A value printed with `places` decimals.
    pub fn fixed(value: f64, places: usize) -> Cell {
        Cell::Num { value, places }
    }

    /// The cell's number, if it holds one.
    pub fn value(&self) -> Option<f64> {
        match self {
            Cell::Text(_) => None,
            Cell::Count(n) => Some(*n as f64),
            Cell::Num { value, .. } => Some(*value),
        }
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Text(s) => f.write_str(s),
            Cell::Count(n) => write!(f, "{n}"),
            Cell::Num { value, places } => write!(f, "{value:.places$}"),
        }
    }
}

impl From<&str> for Cell {
    fn from(s: &str) -> Cell {
        Cell::Text(s.to_string())
    }
}

impl From<String> for Cell {
    fn from(s: String) -> Cell {
        Cell::Text(s)
    }
}

impl From<u64> for Cell {
    fn from(n: u64) -> Cell {
        Cell::Count(n)
    }
}

impl From<usize> for Cell {
    fn from(n: usize) -> Cell {
        Cell::Count(n as u64)
    }
}

/// A titled fixed-width text table. Its trailing `timings` columns hold wall
/// times, which vary run to run: [`Report::render`] prints them and
/// [`Report::golden`] leaves them out, so the golden text repeats exactly.
#[derive(Debug, Clone)]
pub struct Report {
    title: String,
    headers: Vec<String>,
    timings: usize,
    rows: Vec<Vec<Cell>>,
}

impl Report {
    /// A report with the given title and deterministic column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Report {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            timings: 0,
            rows: Vec::new(),
        }
    }

    /// Append timing columns after the deterministic ones.
    pub fn with_timings(mut self, headers: &[&str]) -> Self {
        self.headers.extend(headers.iter().map(|h| h.to_string()));
        self.timings += headers.len();
        self
    }

    /// Append a row, one cell per column.
    pub fn row(&mut self, cells: Vec<Cell>) {
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the report has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The cell of `row` under the column headed `header`.
    pub fn cell(&self, row: usize, header: &str) -> Option<&Cell> {
        let column = self.headers.iter().position(|h| h == header)?;
        self.rows.get(row)?.get(column)
    }

    /// The whole table, timing columns included.
    pub fn render(&self) -> String {
        self.render_columns(self.headers.len())
    }

    /// The table without its timing columns: the text a golden file holds.
    pub fn golden(&self) -> String {
        self.render_columns(self.headers.len() - self.timings)
    }

    fn render_columns(&self, cols: usize) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|row| row.iter().take(cols).map(Cell::to_string).collect())
            .collect();
        let mut widths: Vec<usize> = self.headers[..cols].iter().map(String::len).collect();
        for row in &rows {
            for (width, cell) in widths.iter_mut().zip(row) {
                *width = (*width).max(cell.len());
            }
        }
        let mut sep = String::from("+");
        for w in &widths {
            sep.push_str(&"-".repeat(w + 2));
            sep.push('+');
        }
        sep.push('\n');
        let line = |cells: &[String]| {
            let mut out = String::from("|");
            for (i, w) in widths.iter().enumerate() {
                let cell = cells.get(i).map_or("", String::as_str);
                out.push_str(&format!(" {cell:w$} |"));
            }
            out.push('\n');
            out
        };
        let mut out = format!("== {} ==\n", self.title);
        out.push_str(&sep);
        out.push_str(&line(&self.headers[..cols]));
        out.push_str(&sep);
        for row in &rows {
            out.push_str(&line(row));
        }
        out.push_str(&sep);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut r =
            Report::new("Table 1", &["class", "precision", "recall"]).with_timings(&["wall (ms)"]);
        r.row(vec![
            "selection".into(),
            Cell::score(0.91),
            Cell::score(0.8),
            Cell::fixed(12.5, 2),
        ]);
        r.row(vec![
            "join".into(),
            Cell::score(0.755),
            Cell::score(0.61),
            Cell::fixed(3.0, 2),
        ]);
        let text = r.render();
        assert!(text.contains("== Table 1 =="));
        assert!(text.contains("| selection |"));
        assert!(text.contains("0.910"));
        assert!(text.contains("0.755"));
        assert!(text.contains("| 12.50     |"));
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
        // every data line has the same width
        let widths: Vec<usize> = text.lines().skip(1).map(|l| l.len()).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]));
        // the golden text is the same table without its timing column
        let golden = r.golden();
        assert!(!golden.contains("wall") && !golden.contains("12.50"));
        assert!(golden.contains("| join      | 0.755     | 0.610  |"));
        assert_eq!(r.cell(1, "recall").and_then(Cell::value), Some(0.61));
        assert_eq!(r.cell(0, "class"), Some(&Cell::from("selection")));
        assert_eq!(r.cell(2, "class"), None);
        assert_eq!(r.cell(0, "F1"), None);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(Cell::score(0.5).to_string(), "0.500");
        assert_eq!(Cell::fixed(1.234, 2).to_string(), "1.23");
        assert_eq!(Cell::fixed(0.0, 1).to_string(), "0.0");
        assert_eq!(Cell::from(36u64).to_string(), "36");
        assert_eq!(Cell::from(36usize).value(), Some(36.0));
        assert_eq!(Cell::from("x").value(), None);
    }
}
