//! The benchmark's output: a record line (machine stamp, sample counts,
//! fingerprints, output checks) followed by the one-line result object.

use crate::stats::{Samples, MIN_BEYOND};
use std::fmt::Write as _;

/// A reported metric value. Parallel-speedup figures are `NotMeasured` on
/// a machine with fewer than two cores.
#[derive(Debug, Clone, Copy)]
pub enum Value {
    Num(f64),
    NotMeasured,
}

/// Formats a float with every digit Rust's shortest round-trip printing
/// gives; non-finite values become `null`.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, Value, &'static str)>,
    record: Vec<(String, String)>,
    checks: Vec<(String, bool, String)>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), Value::Num(value), unit));
    }

    pub fn metric_value(&mut self, name: &str, value: Value, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Adds a raw JSON fragment to the record line under `key`.
    pub fn note(&mut self, key: &str, json: String) {
        self.record.push((key.into(), json));
    }

    pub fn note_str(&mut self, key: &str, value: &str) {
        self.note(key, json_str(value));
    }

    /// Records an output check; a failed check fails the run. A check made
    /// again (once per episode) keeps one entry, with the first failure's
    /// detail.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        let detail = detail.into();
        if !ok {
            eprintln!("perfbench: check failed: {name}: {detail}");
        }
        match self.checks.iter_mut().find(|(n, _, _)| n == name) {
            Some(entry) if entry.1 => *entry = (name.into(), ok, detail),
            Some(_) => {}
            None => self.checks.push((name.into(), ok, detail)),
        }
    }

    /// Records a timing's sample count and every standard percentile that
    /// has at least [`MIN_BEYOND`] samples beyond it.
    pub fn note_timing(&mut self, key: &str, samples: &Samples, unit: &str) {
        let mut json = format!("{{\"unit\":{},\"n\":{}", json_str(unit), samples.len());
        if samples.len() > 0 {
            let _ = write!(json, ",\"p50\":{}", json_num(samples.median()));
            for (label, q) in [("p90", 0.9), ("p99", 0.99), ("p999", 0.999)] {
                if samples.beyond(q) >= MIN_BEYOND {
                    let _ = write!(json, ",\"{label}\":{}", json_num(samples.quantile(q)));
                }
            }
        }
        json.push('}');
        self.note(key, json);
    }

    /// Reports a fixed tail percentile, failing the run when fewer than
    /// [`MIN_BEYOND`] samples lie beyond it.
    pub fn tail_metric(&mut self, name: &str, samples: &Samples, q: f64, unit: &'static str) {
        let beyond = samples.beyond(q);
        self.check(
            &format!("{name}_has_samples"),
            beyond >= MIN_BEYOND && samples.len() > 0,
            format!(
                "{} samples, {beyond} beyond the {q} quantile (need {MIN_BEYOND})",
                samples.len()
            ),
        );
        let value = if samples.len() > 0 {
            samples.quantile(q)
        } else {
            0.0
        };
        self.metric(name, value, unit);
    }

    pub fn fail(&mut self, what: &str, err: impl std::fmt::Display) {
        self.failed += 1;
        self.check(what, false, err.to_string());
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok, _)| *ok)
    }

    /// Prints the record line and then the result line; returns whether
    /// every check passed.
    pub fn print(&self) -> bool {
        let mut record = String::from("{\"record\":{");
        for (i, (k, v)) in self.record.iter().enumerate() {
            if i > 0 {
                record.push(',');
            }
            let _ = write!(record, "{}:{v}", json_str(k));
        }
        record.push_str(",\"checks\":[");
        for (i, (name, ok, detail)) in self.checks.iter().enumerate() {
            if i > 0 {
                record.push(',');
            }
            let _ = write!(
                record,
                "{{\"name\":{},\"ok\":{ok},\"detail\":{}}}",
                json_str(name),
                json_str(detail)
            );
        }
        record.push_str("]}}");
        println!("{record}");

        let correct = self.correct();
        let mut out = format!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let value = match value {
                Value::Num(x) => json_num(*x),
                Value::NotMeasured => json_str("not_measured"),
            };
            let _ = write!(
                out,
                "{}:{{\"value\":{value},\"unit\":{}}}",
                json_str(name),
                json_str(unit)
            );
        }
        out.push_str("}}");
        println!("{out}");
        correct
    }
}
