//! Table formatting and result persistence for the experiment reports.
//!
//! Every `exp` report prints a paper-shaped table via [`Table`] and
//! writes the raw numbers as JSON to `results/<name>.json`.

use std::fmt::Write as _;

/// A simple aligned text table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table caption (e.g. "Table III — Porto").
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Row label + cells.
    pub rows: Vec<(String, Vec<String>)>,
}

impl Table {
    /// New table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds a row of already-formatted cells.
    pub fn row(&mut self, label: impl Into<String>, cells: Vec<String>) {
        self.rows.push((label.into(), cells));
    }

    /// Adds a row of f64 values formatted with 3 decimals.
    pub fn row_f64(&mut self, label: impl Into<String>, values: &[f64]) {
        self.row(label, values.iter().map(|v| format!("{v:.3}")).collect());
    }

    /// Renders the aligned table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = Vec::new();
        let label_w = self
            .rows
            .iter()
            .map(|(l, _)| l.len())
            .chain(std::iter::once(8))
            .max()
            .unwrap_or(8);
        for (c, h) in self.headers.iter().enumerate() {
            let mut w = h.len();
            for (_, cells) in &self.rows {
                if let Some(cell) = cells.get(c) {
                    w = w.max(cell.len());
                }
            }
            widths.push(w);
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let mut header = format!("{:label_w$}", "");
        for (h, w) in self.headers.iter().zip(&widths) {
            let _ = write!(header, "  {h:>w$}");
        }
        let _ = writeln!(out, "{header}");
        let _ = writeln!(out, "{}", "-".repeat(header.len()));
        for (label, cells) in &self.rows {
            let _ = write!(out, "{label:label_w$}");
            for (c, w) in cells.iter().zip(&widths) {
                let _ = write!(out, "  {c:>w$}");
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }

    /// Serialises the table (title, headers, rows) as JSON. Hand-rolled so
    /// the offline build needs no serde; the shape matches what
    /// `#[derive(Serialize)]` produced.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"title\": {},", json_str(&self.title));
        let headers: Vec<String> = self.headers.iter().map(|h| json_str(h)).collect();
        let _ = writeln!(out, "  \"headers\": [{}],", headers.join(", "));
        out.push_str("  \"rows\": [");
        for (i, (label, cells)) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let cells: Vec<String> = cells.iter().map(|c| json_str(c)).collect();
            let _ = write!(out, "\n    [{}, [{}]]", json_str(label), cells.join(", "));
        }
        if !self.rows.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}");
        out
    }

    /// Writes the JSON dump to `results/<name>.json` under the working
    /// directory.
    pub fn save_json(&self, name: &str) -> std::io::Result<()> {
        let dir = std::path::Path::new("results");
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, self.to_json()).map_err(|e| {
            std::io::Error::new(e.kind(), format!("cannot write {}: {e}", path.display()))
        })
    }
}

/// Escapes a string as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats a duration in seconds with adaptive precision.
pub fn fmt_secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}")
    } else if s >= 1.0 {
        format!("{s:.1}")
    } else {
        format!("{s:.3}")
    }
}

/// Formats bytes as MB.
pub fn fmt_mb(bytes: usize) -> String {
    format!("{:.1}", bytes as f64 / 1_048_576.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("Demo", &["a", "bbbb"]);
        t.row("row1", vec!["1.0".into(), "2.0".into()]);
        t.row("longer-row", vec!["10.5".into(), "999.25".into()]);
        let s = t.render();
        assert!(s.contains("== Demo =="));
        let lines: Vec<&str> = s.lines().collect();
        // All data lines align: same length.
        assert_eq!(lines[3].len(), lines[4].len());
    }

    #[test]
    fn row_f64_formats_three_decimals() {
        let mut t = Table::new("x", &["v"]);
        t.row_f64("r", &[1.23456]);
        assert_eq!(t.rows[0].1[0], "1.235");
    }

    #[test]
    fn json_round_trip_contains_fields() {
        let mut t = Table::new("T", &["c"]);
        t.row("r", vec!["v".into()]);
        let j = t.to_json();
        assert!(j.contains("\"title\": \"T\""));
        assert!(j.contains("\"r\""));
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_secs(0.1234), "0.123");
        assert_eq!(fmt_secs(12.34), "12.3");
        assert_eq!(fmt_secs(1234.0), "1234");
        assert_eq!(fmt_mb(1_048_576), "1.0");
    }
}
