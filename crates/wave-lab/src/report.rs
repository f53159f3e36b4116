//! Paper-vs-measured reporting.

use wave_sim::SimTime;

/// One comparable quantity: what the paper reports vs. what we measured.
#[derive(Debug, Clone)]
pub struct PaperRow {
    /// What the row measures.
    pub label: String,
    /// The paper's value (in `unit`).
    pub paper: f64,
    /// Our measured value (in `unit`).
    pub measured: f64,
    /// Unit of both columns.
    pub unit: &'static str,
}

impl PaperRow {
    /// Builds a row.
    pub fn new(label: impl Into<String>, paper: f64, measured: f64, unit: &'static str) -> Self {
        PaperRow {
            label: label.into(),
            paper,
            measured,
            unit,
        }
    }

    /// Measured/paper ratio (NaN-safe: returns 1.0 when paper is 0).
    pub fn ratio(&self) -> f64 {
        if self.paper == 0.0 {
            1.0
        } else {
            self.measured / self.paper
        }
    }
}

/// A named experiment report.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Experiment id (e.g. `"Table 2"`).
    pub title: String,
    /// Comparison rows.
    pub rows: Vec<PaperRow>,
    /// Free-form notes (methodology deltas, scaling).
    pub notes: Vec<String>,
    /// Preformatted blocks appended after the notes (e.g. a
    /// [`LatencyCdf::render`] ladder).
    pub blocks: Vec<String>,
}

impl Report {
    /// Creates an empty report.
    pub fn new(title: impl Into<String>) -> Self {
        Report {
            title: title.into(),
            rows: Vec::new(),
            notes: Vec::new(),
            blocks: Vec::new(),
        }
    }

    /// Adds a row.
    pub fn push(&mut self, row: PaperRow) {
        self.rows.push(row);
    }

    /// Adds a note.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Appends a preformatted block (rendered after the notes).
    pub fn block(&mut self, text: impl Into<String>) {
        self.blocks.push(text.into());
    }

    /// Renders the report as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let width = self
            .rows
            .iter()
            .map(|r| r.label.len())
            .max()
            .unwrap_or(8)
            .max(8);
        out.push_str(&format!(
            "{:width$}  {:>14}  {:>14}  {:>8}  unit\n",
            "metric",
            "paper",
            "measured",
            "ratio",
            width = width
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:width$}  {:>14.2}  {:>14.2}  {:>8.3}  {}\n",
                r.label,
                r.paper,
                r.measured,
                r.ratio(),
                r.unit,
                width = width
            ));
        }
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }
        for b in &self.blocks {
            out.push_str(b);
            if !b.ends_with('\n') {
                out.push('\n');
            }
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// A reusable latency-CDF block: the standard quantile ladder
/// ([`wave_sim::stats::QUANTILE_LADDER`]) plus an ASCII rendering.
/// Shared by every experiment that reports a latency distribution (the
/// fleet sweep, the tenancy isolation tables).
#[derive(Debug, Clone)]
pub struct LatencyCdf {
    /// What distribution this is (e.g. `"victim p99 path"`).
    pub label: String,
    /// `(quantile, nanoseconds)` points, ascending quantile.
    pub points: Vec<(f64, u64)>,
}

impl LatencyCdf {
    /// Builds the block from a histogram's ladder
    /// ([`wave_sim::stats::Histogram::ladder`]).
    pub fn from_ladder(label: impl Into<String>, ladder: &[(f64, SimTime)]) -> Self {
        LatencyCdf {
            label: label.into(),
            points: ladder.iter().map(|&(q, t)| (q, t.as_ns())).collect(),
        }
    }

    /// Whether the distribution was empty (no points to draw).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Renders the CDF as an aligned ASCII block: one row per quantile,
    /// bar length proportional to latency relative to the slowest
    /// quantile shown.
    pub fn render(&self) -> String {
        const BAR: usize = 40;
        let mut out = format!("-- {} latency CDF --\n", self.label);
        if self.points.is_empty() {
            out.push_str("(empty)\n");
            return out;
        }
        let max = self
            .points
            .iter()
            .map(|&(_, ns)| ns)
            .max()
            .unwrap_or(1)
            .max(1);
        for &(q, ns) in &self.points {
            let frac = ns as f64 / max as f64;
            let fill = ((frac * BAR as f64).round() as usize).clamp(1, BAR);
            out.push_str(&format!(
                "p{:<5} {:>12}  {}\n",
                trim_quantile(q),
                SimTime::from_ns(ns).to_string(),
                "#".repeat(fill)
            ));
        }
        out
    }
}

/// `0.99` → `"99"`, `0.999` → `"99.9"` — the conventional pXX spelling.
fn trim_quantile(q: f64) -> String {
    let pct = q * 100.0;
    if (pct - pct.round()).abs() < 1e-9 {
        format!("{}", pct.round() as u64)
    } else {
        format!("{pct}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_renders_every_quantile() {
        let ladder: Vec<(f64, SimTime)> = wave_sim::stats::QUANTILE_LADDER
            .iter()
            .enumerate()
            .map(|(i, &q)| (q, SimTime::from_us(10 + i as u64)))
            .collect();
        let cdf = LatencyCdf::from_ladder("test", &ladder);
        let s = cdf.render();
        assert!(s.contains("p50"));
        assert!(s.contains("p99 "));
        assert!(s.contains("p99.9"));
        assert!(s.contains('#'));
    }

    #[test]
    fn cdf_empty_is_explicit() {
        let cdf = LatencyCdf::from_ladder("empty", &[]);
        assert!(cdf.is_empty());
        assert!(cdf.render().contains("(empty)"));
    }

    #[test]
    fn render_contains_rows_and_notes() {
        let mut r = Report::new("Table X");
        r.push(PaperRow::new("latency", 750.0, 751.0, "ns"));
        r.note("calibrated against Table 2");
        let s = r.render();
        assert!(s.contains("Table X"));
        assert!(s.contains("latency"));
        assert!(s.contains("751.00"));
        assert!(s.contains("note: calibrated"));
    }

    #[test]
    fn ratio_nan_safe() {
        assert_eq!(PaperRow::new("x", 0.0, 5.0, "ns").ratio(), 1.0);
        assert!((PaperRow::new("x", 2.0, 1.0, "ns").ratio() - 0.5).abs() < 1e-12);
    }
}
