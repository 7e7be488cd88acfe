//! The one table type the bench bins print through: column names and
//! typed cells, rendered by one function as CSV or as aligned text.

use std::fmt;

/// One typed cell; it reads the same in both renderings.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A label; the empty string leaves the cell blank.
    Text(String),
    /// A count.
    Int(u64),
    /// A measurement and the number of decimals it is reported to.
    Float(f64, usize),
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Text(s) => write!(f, "{s}"),
            Cell::Int(n) => write!(f, "{n}"),
            Cell::Float(v, decimals) => write!(f, "{v:.decimals$}"),
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
        Cell::Int(n)
    }
}

impl From<usize> for Cell {
    fn from(n: usize) -> Cell {
        Cell::Int(n as u64)
    }
}

/// A titled grid of cells. With no `columns` it is a group of
/// headerless `name,value…` rows (a figure's summary scalars).
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Heading of the aligned rendering (CSV has none).
    pub title: String,
    /// Column names: the CSV header.
    pub columns: Vec<&'static str>,
    /// The rows, each as wide as `columns` (any width when headerless).
    pub rows: Vec<Vec<Cell>>,
    /// Derived remarks under the aligned rendering (CSV has none).
    pub notes: Vec<String>,
}

impl Table {
    /// An empty table under `header`, the comma-separated column names
    /// (`""` for a headerless table).
    pub fn new(title: impl Into<String>, header: &'static str) -> Table {
        Table {
            title: title.into(),
            columns: header.split(',').filter(|c| !c.is_empty()).collect(),
            ..Table::default()
        }
    }

    /// Append one row.
    pub fn row<const N: usize>(&mut self, cells: [Cell; N]) {
        assert!(
            self.columns.is_empty() || N == self.columns.len(),
            "{}: row of {N} cells under {} columns",
            self.title,
            self.columns.len()
        );
        self.rows.push(cells.into());
    }

    /// Render as CSV (header, then rows) or as aligned text (title,
    /// padded header and rows, notes). The cells are the same strings
    /// either way.
    pub fn render(&self, csv: bool) -> String {
        let header: Vec<String> = self.columns.iter().map(|c| c.to_string()).collect();
        let rows = self.rows.iter();
        let rows = rows.map(|row| row.iter().map(Cell::to_string).collect());
        let lines: Vec<Vec<String>> = (!header.is_empty())
            .then_some(header)
            .into_iter()
            .chain(rows)
            .collect();
        if csv {
            return lines.iter().map(|line| line.join(",") + "\n").collect();
        }
        let width = |col: usize| {
            let cells = lines.iter().filter_map(|line| line.get(col));
            cells.map(|c| c.chars().count()).max().unwrap_or(0)
        };
        let mut out = String::new();
        if !self.title.is_empty() {
            out += &format!("── {} ──\n", self.title);
        }
        for line in &lines {
            let cells = line.iter().enumerate().map(|(col, cell)| match col {
                0 => format!("{cell:<w$}", w = width(0)),
                _ => format!("{cell:>w$}", w = width(col)),
            });
            let cells: Vec<String> = cells.collect();
            out += &format!("{}\n", cells.join("  ").trim_end());
        }
        for note in &self.notes {
            out += &format!("  {note}\n");
        }
        out
    }
}

/// What one `figures` entry produced.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Printed in order.
    pub tables: Vec<Table>,
    /// Headline metrics for `--json` (the perf-gate artifact).
    pub metrics: Vec<(String, f64)>,
}

impl Report {
    /// A report of tables only.
    pub fn new(tables: Vec<Table>) -> Report {
        Report {
            tables,
            metrics: Vec::new(),
        }
    }

    /// Every table rendered in order, then the metrics as headerless
    /// `name,value` rows; the aligned form separates them with a blank
    /// line.
    pub fn render(&self, csv: bool) -> String {
        let mut metrics = Table::new("metrics", "");
        for (key, value) in &self.metrics {
            metrics.row([key.as_str().into(), Cell::Float(*value, 6)]);
        }
        let tables = self.tables.iter().chain([&metrics]);
        let tables = tables.filter(|t| !t.rows.is_empty());
        let parts: Vec<String> = tables.map(|t| t.render(csv)).collect();
        parts.join(if csv { "" } else { "\n" })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_definition_renders_as_csv_and_as_aligned_text() {
        let mut t = Table::new("demo", "series,clients,p50_ms");
        t.row(["paxos".into(), 5usize.into(), Cell::Float(1.23456, 3)]);
        t.row(["pigpaxos_r3".into(), 160usize.into(), Cell::Float(10.5, 3)]);
        t.notes.push("a remark".to_string());

        let csv = t.render(true);
        let csv: Vec<&str> = csv.lines().collect();
        assert_eq!(
            csv,
            [
                "series,clients,p50_ms",
                "paxos,5,1.235",
                "pigpaxos_r3,160,10.500"
            ]
        );

        let text = t.render(false);
        let text: Vec<&str> = text.lines().collect();
        assert_eq!(text[0], "── demo ──");
        assert_eq!(text[4], "  a remark");
        for (aligned, csv) in text[1..4].iter().zip(&csv) {
            let cells: Vec<&str> = aligned.split_whitespace().collect();
            assert_eq!(cells, csv.split(',').collect::<Vec<_>>());
        }
        let end = |line: &str| line.chars().count();
        assert_eq!(end(text[1]), end(text[2]), "columns line up");
        assert!(text[2].starts_with("paxos   "), "first column pads left");
    }

    #[test]
    fn headerless_rows_keep_blank_cells() {
        let mut t = Table::new("", "");
        t.row(["low_load".into(), Cell::Float(1.5, 1), "".into()]);
        assert_eq!(t.render(true), "low_load,1.5,\n");
    }
}
