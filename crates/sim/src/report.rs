//! Plain-text rendering of experiment results: aligned tables and the
//! CSV writer for the per-slot series of each figure.

use crate::experiments::{ArchitectureRow, BoundsRow};
use crate::{PointOutcome, RunMetrics, SimError};
use greencell_stochastic::Series;
use greencell_trace::names;
use std::fmt::Write as _;

/// Renders Fig. 2(a)'s rows as an aligned table.
#[must_use]
pub fn bounds_table(rows: &[BoundsRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>12} {:>16} {:>16} {:>16} {:>16} {:>16} {:>16}",
        "V", "upper f̄", "lower f̄−B/V", "relaxed f̄", "B/V", "upper ψ", "lower ψ"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:>12.3e} {:>16.6} {:>16.6} {:>16.6} {:>16.6e} {:>16.6} {:>16.6}",
            r.v, r.upper, r.lower, r.relaxed_cost, r.gap, r.upper_psi, r.lower_psi
        );
    }
    out
}

/// Renders one picked per-slot series of every `V` point as CSV: a `slot`
/// column, then one `V=<v>` column per point in `v_values` order — e.g.
/// Fig. 2(b) is `series_csv(&v, &report.outcomes, RunMetrics::backlog_bs_series)`.
///
/// # Errors
///
/// Returns [`SimError::Serialize`] if `v_values` and `outcomes` differ in
/// length or the picked series do.
pub fn series_csv(
    v_values: &[f64],
    outcomes: &[PointOutcome],
    pick: Pick,
) -> Result<String, SimError> {
    if v_values.len() != outcomes.len() {
        return Err(SimError::Serialize(format!(
            "one V per column: got {} V values for {} points",
            v_values.len(),
            outcomes.len()
        )));
    }
    let mut out = String::from("slot");
    for v in v_values {
        let _ = write!(out, ",V={v:.0e}");
    }
    out.push('\n');
    let series: Vec<&Series> = outcomes.iter().map(|o| pick(&o.metrics)).collect();
    write_rows(&mut out, "", &series)?;
    Ok(out)
}

/// Picks one per-slot series out of a run's metrics.
type Pick = fn(&RunMetrics) -> &Series;

/// The columns of [`timeseries_csv`]: the Fig. 2 series, named as the
/// engine's trace gauges that carry the same values.
const TIMESERIES: [(&str, Pick); 6] = [
    (names::COST, RunMetrics::cost_series),
    (names::GRID_KWH, RunMetrics::grid_series),
    (names::BACKLOG_BS, RunMetrics::backlog_bs_series),
    (names::BACKLOG_USERS, RunMetrics::backlog_users_series),
    (names::BUFFER_BS_KWH, RunMetrics::buffer_bs_series),
    (names::BUFFER_USERS_WH, RunMetrics::buffer_users_series),
];

/// The Fig. 2 time series of every point as one CSV: one row per
/// `(point, slot)`, labelled by point, over the whole horizon.
pub(crate) fn timeseries_csv(outcomes: &[PointOutcome]) -> Result<String, SimError> {
    let mut out = String::from("label,slot");
    for (name, _) in TIMESERIES {
        let _ = write!(out, ",{name}");
    }
    out.push('\n');
    for o in outcomes {
        let series: Vec<&Series> = TIMESERIES
            .iter()
            .map(|(_, pick)| pick(&o.metrics))
            .collect();
        write_rows(&mut out, &format!("{},", csv_escape(&o.label)), &series)?;
    }
    Ok(out)
}

/// Appends one `<prefix><slot>,<v>,…` row per slot of `series`, which
/// must all have the same length.
fn write_rows(out: &mut String, prefix: &str, series: &[&Series]) -> Result<(), SimError> {
    let len = series.first().map_or(0, |s| s.len());
    if let Some(bad) = series.iter().find(|s| s.len() != len) {
        return Err(SimError::Serialize(format!(
            "series lengths differ: expected {len}, got {}",
            bad.len()
        )));
    }
    for t in 0..len {
        let _ = write!(out, "{prefix}{t}");
        for s in series {
            let _ = write!(out, ",{}", s.values()[t]);
        }
        out.push('\n');
    }
    Ok(())
}

/// Quotes a CSV field that holds a comma or a quote.
pub(crate) fn csv_escape(field: &str) -> String {
    if field.contains(',') || field.contains('"') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Fig. 2(f)'s comparison as CSV: one row per architecture, one column
/// per `V` (headed `V=<v>`), each cell the time-averaged energy cost.
#[must_use]
pub fn architecture_csv(rows: &[ArchitectureRow], v_values: &[f64]) -> String {
    let mut out = String::from("architecture");
    for v in v_values {
        let _ = write!(out, ",V={v}");
    }
    out.push('\n');
    for r in rows {
        out.push_str(&csv_escape(&r.architecture.to_string()));
        for c in &r.costs {
            let _ = write!(out, ",{c}");
        }
        out.push('\n');
    }
    out
}

/// Renders Fig. 2(f)'s comparison as an aligned table.
#[must_use]
pub fn architecture_table(rows: &[ArchitectureRow], v_values: &[f64]) -> String {
    let mut out = String::new();
    let _ = write!(out, "{:<42}", "architecture");
    for v in v_values {
        let _ = write!(out, " {:>14}", format!("V={v:.0e}"));
    }
    let _ = writeln!(out);
    for r in rows {
        let _ = write!(out, "{:<42}", r.architecture.to_string());
        for c in &r.costs {
            let _ = write!(out, " {c:>14.6}");
        }
        let _ = writeln!(out);
    }
    out
}

/// Renders a series as a one-line Unicode sparkline (8 levels), for quick
/// terminal inspection of trajectories.
///
/// # Examples
///
/// ```
/// use greencell_sim::report::sparkline;
/// use greencell_stochastic::Series;
///
/// let s: Series = [0.0, 1.0, 2.0, 3.0].into_iter().collect();
/// assert_eq!(sparkline(&s), "▁▃▆█");
/// ```
#[must_use]
pub fn sparkline(series: &Series) -> String {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let values = series.values();
    if values.is_empty() {
        return String::new();
    }
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = max - min;
    values
        .iter()
        .map(|&v| {
            if span <= f64::EPSILON {
                LEVELS[0]
            } else {
                let idx = ((v - min) / span * 7.0).round() as usize;
                LEVELS[idx.min(7)]
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Architecture;

    #[test]
    fn bounds_table_has_one_line_per_row() {
        let rows = vec![BoundsRow {
            v: 1e5,
            upper: 2.0,
            lower: 1.0,
            relaxed_cost: 1.5,
            gap: 0.5,
            upper_psi: -10.0,
            lower_psi: -12.0,
        }];
        let t = bounds_table(&rows);
        assert_eq!(t.lines().count(), 2);
        assert!(t.contains("1e5") || t.contains("1.000e5"));
    }

    /// A tiny run's outcome carrying `metrics` instead of its own.
    fn outcome(label: &str, metrics: RunMetrics) -> PointOutcome {
        let mut scenario = crate::Scenario::tiny(1);
        scenario.horizon = 1;
        let mut o = crate::run_point(label, &scenario).unwrap();
        o.metrics = metrics;
        o
    }

    fn metrics(backlogs: &[f64]) -> RunMetrics {
        let mut m = RunMetrics::new();
        for (t, &b) in backlogs.iter().enumerate() {
            let t = t as f64;
            m.record_slot(t, t + 0.5, b, 2.0 * b, 3.0, 4.0, 0.0, 0.0, 0.0, 0);
        }
        m
    }

    #[test]
    fn series_csv_layout() {
        let outcomes = [
            outcome("a", metrics(&[1.0, 2.0])),
            outcome("b", metrics(&[3.0, 4.0])),
        ];
        let csv = series_csv(&[1e5, 2e5], &outcomes, RunMetrics::backlog_bs_series).unwrap();
        assert_eq!(csv, "slot,V=1e5,V=2e5\n0,1,3\n1,2,4\n");
        let csv = series_csv(&[1e5, 2e5], &outcomes, RunMetrics::backlog_users_series).unwrap();
        assert_eq!(csv, "slot,V=1e5,V=2e5\n0,2,6\n1,4,8\n");
    }

    #[test]
    fn mismatched_series_rejected() {
        let outcomes = [
            outcome("a", metrics(&[1.0])),
            outcome("b", metrics(&[1.0, 2.0])),
        ];
        let err = series_csv(&[1e5, 2e5], &outcomes, RunMetrics::cost_series).unwrap_err();
        assert!(matches!(err, SimError::Serialize(_)));
        assert!(err.to_string().contains("series lengths differ"));
    }

    #[test]
    fn short_header_rejected() {
        let outcomes = [outcome("a", metrics(&[1.0]))];
        let err = series_csv(&[], &outcomes, RunMetrics::cost_series).unwrap_err();
        assert!(matches!(err, SimError::Serialize(_)));
    }

    #[test]
    fn timeseries_csv_rows_every_slot_of_every_point() {
        let outcomes = [
            outcome("p0", metrics(&[10.0, 11.0])),
            outcome("p,1", metrics(&[7.0])),
        ];
        let csv = timeseries_csv(&outcomes).unwrap();
        assert_eq!(
            csv,
            "label,slot,cost,grid_kwh,backlog_bs,backlog_users,buffer_bs_kwh,buffer_users_wh\n\
             p0,0,0,0.5,10,20,3,4\n\
             p0,1,1,1.5,11,22,3,4\n\
             \"p,1\",0,0,0.5,7,14,3,4\n"
        );
    }

    #[test]
    fn sparkline_levels() {
        let s: Series = [0.0, 7.0].into_iter().collect();
        assert_eq!(sparkline(&s), "▁█");
        let flat: Series = [5.0, 5.0, 5.0].into_iter().collect();
        assert_eq!(sparkline(&flat), "▁▁▁");
        assert_eq!(sparkline(&Series::default()), "");
    }

    #[test]
    fn architecture_table_lists_all() {
        let rows = vec![ArchitectureRow {
            architecture: Architecture::Proposed,
            costs: vec![1.0, 2.0],
        }];
        let t = architecture_table(&rows, &[1e5, 3e5]);
        assert!(t.contains("Our system"));
        assert_eq!(t.lines().count(), 2);
    }
}
