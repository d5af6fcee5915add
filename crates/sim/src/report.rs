//! Plain-text rendering of experiment results: aligned tables and
//! CSV-ready series for each figure.

use crate::experiments::{ArchitectureRow, BacklogRow, BoundsRow, BufferRow};
use crate::SimError;
use greencell_stochastic::Series;
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

/// Renders a set of same-length series as CSV with a slot column.
///
/// # Errors
///
/// Returns [`SimError::Serialize`] if the header does not cover every
/// column or the series lengths differ.
pub fn series_csv(header: &[&str], series: &[&Series]) -> Result<String, SimError> {
    if header.len() != series.len() + 1 {
        return Err(SimError::Serialize(format!(
            "one header per column + slot: got {} headers for {} series",
            header.len(),
            series.len()
        )));
    }
    let len = series.first().map_or(0, |s| s.len());
    if let Some(bad) = series.iter().find(|s| s.len() != len) {
        return Err(SimError::Serialize(format!(
            "series lengths differ: expected {len}, got {}",
            bad.len()
        )));
    }
    let mut out = String::new();
    let _ = writeln!(out, "{}", header.join(","));
    for t in 0..len {
        let _ = write!(out, "{t}");
        for s in series {
            let v = s.at(t).ok_or_else(|| {
                SimError::Serialize(format!("series shorter than its stated length at slot {t}"))
            })?;
            let _ = write!(out, ",{v}");
        }
        let _ = writeln!(out);
    }
    Ok(out)
}

/// Renders Fig. 2(b)/(c) trajectories as two CSV blocks.
///
/// # Errors
///
/// Returns [`SimError::Serialize`] if the rows' series lengths differ.
pub fn backlog_csv(rows: &[BacklogRow]) -> Result<(String, String), SimError> {
    let mut header = vec!["slot".to_string()];
    header.extend(rows.iter().map(|r| format!("V={:.0e}", r.v)));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let bs: Vec<&Series> = rows.iter().map(|r| &r.bs).collect();
    let users: Vec<&Series> = rows.iter().map(|r| &r.users).collect();
    Ok((
        series_csv(&header_refs, &bs)?,
        series_csv(&header_refs, &users)?,
    ))
}

/// Renders Fig. 2(d)/(e) trajectories as two CSV blocks.
///
/// # Errors
///
/// Returns [`SimError::Serialize`] if the rows' series lengths differ.
pub fn buffer_csv(rows: &[BufferRow]) -> Result<(String, String), SimError> {
    let mut header = vec!["slot".to_string()];
    header.extend(rows.iter().map(|r| format!("V={:.0e}", r.v)));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let bs: Vec<&Series> = rows.iter().map(|r| &r.bs_kwh).collect();
    let users: Vec<&Series> = rows.iter().map(|r| &r.users_wh).collect();
    Ok((
        series_csv(&header_refs, &bs)?,
        series_csv(&header_refs, &users)?,
    ))
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

    #[test]
    fn series_csv_layout() {
        let a: Series = [1.0, 2.0].into_iter().collect();
        let b: Series = [3.0, 4.0].into_iter().collect();
        let csv = series_csv(&["slot", "a", "b"], &[&a, &b]).unwrap();
        assert_eq!(csv, "slot,a,b\n0,1,3\n1,2,4\n");
    }

    #[test]
    fn mismatched_series_rejected() {
        let a: Series = [1.0].into_iter().collect();
        let b: Series = [1.0, 2.0].into_iter().collect();
        let err = series_csv(&["slot", "a", "b"], &[&a, &b]).unwrap_err();
        assert!(matches!(err, SimError::Serialize(_)));
        assert!(err.to_string().contains("series lengths differ"));
    }

    #[test]
    fn short_header_rejected() {
        let a: Series = [1.0].into_iter().collect();
        let err = series_csv(&["slot"], &[&a]).unwrap_err();
        assert!(matches!(err, SimError::Serialize(_)));
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
