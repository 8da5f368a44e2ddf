//! Prediction-accuracy bookkeeping: paper-vs-measured tables.
//!
//! §5: "We also show the predicted I/O time for each performance number in
//! figures 9 and 10. Our prediction is quite close to the actual I/O
//! time." This module turns (predicted, actual) pairs into relative-error
//! rows and a MAPE summary used by EXPERIMENTS.md.

use msr_sim::{stats::mape, SimDuration};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One predicted-vs-actual comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComparisonRow {
    /// Label (dataset name, experiment id, …).
    pub name: String,
    /// Predicted time.
    pub predicted: SimDuration,
    /// Measured ("actual") time.
    pub actual: SimDuration,
}

impl ComparisonRow {
    /// Signed relative error `(predicted − actual) / actual`; `None` when
    /// the actual is zero.
    pub fn rel_error(&self) -> Option<f64> {
        let a = self.actual.as_secs();
        (a > 0.0).then(|| (self.predicted.as_secs() - a) / a)
    }
}

/// A set of comparisons with summary statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Comparison {
    /// The rows.
    pub rows: Vec<ComparisonRow>,
}

/// Build a comparison from `(name, predicted, actual)` triples.
pub fn compare(
    triples: impl IntoIterator<Item = (String, SimDuration, SimDuration)>,
) -> Comparison {
    Comparison {
        rows: triples
            .into_iter()
            .map(|(name, predicted, actual)| ComparisonRow {
                name,
                predicted,
                actual,
            })
            .collect(),
    }
}

impl Comparison {
    /// Mean absolute percentage error across rows.
    pub fn mape(&self) -> Option<f64> {
        let pairs: Vec<(SimDuration, SimDuration)> =
            self.rows.iter().map(|r| (r.predicted, r.actual)).collect();
        mape(&pairs)
    }
}

impl fmt::Display for Comparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<28} {:>14} {:>14} {:>9}",
            "EXPERIMENT", "PREDICTED(s)", "ACTUAL(s)", "ERR(%)"
        )?;
        for r in &self.rows {
            let err = r
                .rel_error()
                .map(|e| format!("{:+.1}", e * 100.0))
                .unwrap_or_else(|| "-".to_owned());
            writeln!(
                f,
                "{:<28} {:>14.2} {:>14.2} {:>9}",
                r.name,
                r.predicted.as_secs(),
                r.actual.as_secs(),
                err
            )?;
        }
        if let Some(m) = self.mape() {
            writeln!(f, "MAPE: {:.1}%", m * 100.0)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: f64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn rel_error_signs() {
        let over = ComparisonRow {
            name: "x".into(),
            predicted: d(110.0),
            actual: d(100.0),
        };
        assert!((over.rel_error().unwrap() - 0.1).abs() < 1e-12);
        let under = ComparisonRow {
            name: "y".into(),
            predicted: d(90.0),
            actual: d(100.0),
        };
        assert!((under.rel_error().unwrap() + 0.1).abs() < 1e-12);
    }

    #[test]
    fn paper_worked_example_error_band() {
        // Paper: predicted 180.57 vs actual 197.40 → −8.5 %.
        let row = ComparisonRow {
            name: "example-4.2".into(),
            predicted: d(180.57),
            actual: d(197.40),
        };
        let e = row.rel_error().unwrap();
        assert!((-0.09..-0.08).contains(&e));
    }

    #[test]
    fn mape_averages_absolute_errors() {
        let c = compare(vec![
            ("a".to_owned(), d(110.0), d(100.0)),
            ("b".to_owned(), d(80.0), d(100.0)),
        ]);
        assert!((c.mape().unwrap() - 0.15).abs() < 1e-12);
    }

    #[test]
    fn zero_actual_is_skipped() {
        let c = compare(vec![("z".to_owned(), d(1.0), SimDuration::ZERO)]);
        assert!(c.mape().is_none());
        assert!(c.rows[0].rel_error().is_none());
        assert!(c.to_string().contains('-'));
    }

    #[test]
    fn display_renders_table() {
        let c = compare(vec![("fig9-1".to_owned(), d(100.0), d(105.0))]);
        let s = c.to_string();
        assert!(s.contains("PREDICTED"));
        assert!(s.contains("fig9-1"));
        assert!(s.contains("MAPE"));
    }
}
