//! Table 3 — scheduling microbenchmarks (wrapper over
//! [`wave_ghost::microbench`]).

use crate::report::{PaperRow, Report};

/// Builds the paper-vs-measured report for all Table 3 rows.
pub fn report() -> Report {
    let mut r = Report::new("Table 3: scheduling microbenchmarks");
    for row in wave_ghost::microbench::table3() {
        let paper_mid = (row.paper_band.0 + row.paper_band.1) as f64 / 2.0;
        r.push(PaperRow::new(
            row.label,
            paper_mid,
            row.measured.as_ns() as f64,
            "ns",
        ));
    }
    r.note("paper column is the band midpoint; ranges in the paper reflect run-to-run variability");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_rows_close_to_paper() {
        let r = report();
        assert_eq!(r.rows.len(), 9);
        for row in &r.rows {
            let ratio = row.ratio().expect("Table 3 anchors are non-zero");
            assert!((0.8..=1.2).contains(&ratio), "{} ratio {ratio}", row.label);
        }
    }
}
