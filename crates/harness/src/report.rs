//! Plain-text result tables for the experiment reports.

use std::fmt;

/// A printable result table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Table title (experiment id + description).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub(crate) fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (stringifying the cells).
    pub(crate) fn row<I, S>(&mut self, cells: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.rows.push(cells.into_iter().map(Into::into).collect());
    }

    fn widths(&self) -> Vec<usize> {
        let cols = self
            .headers
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut w = vec![0usize; cols];
        for (i, h) in self.headers.iter().enumerate() {
            w[i] = w[i].max(h.len());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                w[i] = w[i].max(c.len());
            }
        }
        w
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let w = self.widths();
        writeln!(f, "== {} ==", self.title)?;
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (i, width) in w.iter().enumerate() {
                let empty = String::new();
                let c = cells.get(i).unwrap_or(&empty);
                write!(f, " {c:width$} |")?;
            }
            writeln!(f)
        };
        line(f, &self.headers)?;
        let total: usize = w.iter().map(|x| x + 3).sum::<usize>() + 1;
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            line(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("E0 demo", &["metric", "value"]);
        t.row(["speedup", "1.62"]);
        t.row(["long-metric-name", "2"]);
        let s = t.to_string();
        assert!(s.contains("== E0 demo =="));
        assert!(s.contains("| speedup          | 1.62  |"));
        let widths: Vec<usize> = s.lines().skip(1).map(str::len).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1] || w[1] == 0), "{s}");
    }

    #[test]
    fn empty_cells_tolerated() {
        let mut t = Table::new("x", &["a", "b", "c"]);
        t.row(["1"]);
        let s = t.to_string();
        assert!(s.contains("| 1 | "), "{s}");
        assert_eq!(s.lines().last().unwrap().matches('|').count(), 4, "{s}");
    }
}
