//! Plain-text tabular reporting for the experiment harness.

use std::fmt;

/// The regenerated data behind one figure of the paper: a titled table whose
/// rows are the series the paper plots.
#[derive(Debug, Clone)]
pub struct FigureResult {
    /// Experiment id, e.g. `"fig13"`.
    pub id: String,
    /// Human-readable description of what the figure shows.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// One row per x-axis point; values are kept as `f64` so tests can make
    /// quantitative "shape" assertions.
    pub rows: Vec<Vec<f64>>,
    /// Free-form notes (workload sizes, truncations, substitutions).
    pub notes: Vec<String>,
}

impl FigureResult {
    /// Creates an empty result for the given figure.
    pub fn new(id: impl Into<String>, title: impl Into<String>, columns: Vec<&str>) -> Self {
        FigureResult {
            id: id.into(),
            title: title.into(),
            columns: columns.into_iter().map(str::to_string).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a data row.
    pub fn push_row(&mut self, row: Vec<f64>) {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row arity must match the column headers"
        );
        self.rows.push(row);
    }

    /// Appends a note shown below the table.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Returns the values of the named column.
    pub fn column(&self, name: &str) -> Vec<f64> {
        let idx = self
            .columns
            .iter()
            .position(|c| c == name)
            .unwrap_or_else(|| panic!("no column named {name}"));
        self.rows.iter().map(|r| r[idx]).collect()
    }
}

impl fmt::Display for FigureResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} — {}", self.id, self.title)?;
        let widths: Vec<usize> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| {
                self.rows
                    .iter()
                    .map(|r| format_value(r[i]).len())
                    .chain(std::iter::once(c.len()))
                    .max()
                    .unwrap_or(c.len())
            })
            .collect();
        for (c, w) in self.columns.iter().zip(&widths) {
            write!(f, "{c:>w$}  ", w = w)?;
        }
        writeln!(f)?;
        for row in &self.rows {
            for (v, w) in row.iter().zip(&widths) {
                write!(f, "{:>w$}  ", format_value(*v), w = w)?;
            }
            writeln!(f)?;
        }
        for note in &self.notes {
            writeln!(f, "  note: {note}")?;
        }
        Ok(())
    }
}

fn format_value(v: f64) -> String {
    if !v.is_finite() {
        return format!("{v}");
    }
    if v.abs() >= 1e7 {
        format!("{v:.3e}")
    } else if v == v.trunc() {
        format!("{}", v as i64)
    } else {
        format!("{v:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_roundtrip() {
        let mut fig = FigureResult::new("figX", "demo", vec!["k", "cost"]);
        fig.push_row(vec![1.0, 10.0]);
        fig.push_row(vec![2.0, 5.5]);
        fig.note("demo note");
        assert_eq!(fig.column("cost"), vec![10.0, 5.5]);
        let s = fig.to_string();
        assert!(s.contains("figX"));
        assert!(s.contains("demo note"));
        assert!(s.contains("5.50"));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn mismatched_row_panics() {
        let mut fig = FigureResult::new("figX", "demo", vec!["a", "b"]);
        fig.push_row(vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "no column named")]
    fn unknown_column_panics() {
        let fig = FigureResult::new("figX", "demo", vec!["a"]);
        let _ = fig.column("b");
    }

    #[test]
    fn value_formatting() {
        assert_eq!(format_value(3.0), "3");
        assert_eq!(format_value(3.25), "3.25");
        assert_eq!(format_value(2.5e7), "2.500e7");
    }
}
