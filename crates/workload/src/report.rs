//! Report formatting: aligned ASCII tables (console) and
//! GitHub-flavoured markdown (the committed `docs/CONSISTENCY.md`),
//! plus the qualitative classification used to compare measured cells
//! against Figure 8's High/Low/Minimal/None vocabulary.

use std::fmt::Write as _;

/// A simple aligned ASCII table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    pub title: String,
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Render with column alignment.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "== {} ==", self.title);
        }
        let line = |out: &mut String, cells: &[String]| {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                let pad = widths[i] - c.chars().count();
                s.push_str(c);
                s.push_str(&" ".repeat(pad + 2));
            }
            let _ = writeln!(out, "{}", s.trim_end());
        };
        line(&mut out, &self.headers);
        let total: usize = widths.iter().map(|w| w + 2).sum();
        let _ = writeln!(out, "{}", "-".repeat(total.saturating_sub(2)));
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }

    /// GitHub-flavoured markdown rendering (for committed reports). The
    /// output is fully determined by the cell strings — no locale, no
    /// width-dependent padding — so generated documents diff cleanly.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "**{}**\n", self.title);
        }
        let _ = writeln!(out, "| {} |", self.headers.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            self.headers
                .iter()
                .map(|_| " --- ")
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        out
    }
}

/// Qualitative classification against a scale, mirroring Figure 8's
/// vocabulary. `unit` is the "low" yardstick; values ≲ 5 % of it are
/// "None"/"Minimal", values ≳ 3× it are "High".
pub fn classify(value: f64, unit: f64) -> &'static str {
    if unit <= 0.0 {
        return if value == 0.0 { "None" } else { "High" };
    }
    let r = value / unit;
    if r < 0.05 {
        "None"
    } else if r < 0.5 {
        "Minimal"
    } else if r < 3.0 {
        "Low"
    } else {
        "High"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["a", "long-header", "c"]);
        t.row(vec!["1".into(), "2".into(), "3".into()]);
        t.row(vec!["100".into(), "x".into(), "yy".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[1].starts_with("a    long-header"));
        assert!(lines[3].starts_with("1"));
    }

    #[test]
    fn markdown_renders_pipe_table() {
        let mut t = Table::new("spectrum", &["level", "blocking"]);
        t.row(vec!["Strong".into(), "42".into()]);
        let md = t.to_markdown();
        assert!(md.starts_with("**spectrum**\n\n| level | blocking |\n"));
        assert!(md.contains("| --- | --- |"));
        assert!(md.ends_with("| Strong | 42 |\n"));
    }

    #[test]
    #[should_panic]
    fn arity_checked() {
        let mut t = Table::new("", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn classification_scale() {
        assert_eq!(classify(0.0, 100.0), "None");
        assert_eq!(classify(10.0, 100.0), "Minimal");
        assert_eq!(classify(100.0, 100.0), "Low");
        assert_eq!(classify(1000.0, 100.0), "High");
        assert_eq!(classify(0.0, 0.0), "None");
        assert_eq!(classify(5.0, 0.0), "High");
    }
}
