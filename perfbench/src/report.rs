//! The run's result: output checks, operation counts and named metrics,
//! printed as readable lines and as the one-line JSON object that ends
//! standard output.

use std::fmt::Write as _;

/// One measured value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, e.g. `ops_per_s`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit, e.g. `ms`.
    pub unit: &'static str,
}

/// Checks, operation counts and metrics gathered by one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (cells, figures or decisions).
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    metrics: Vec<Metric>,
    failures: Vec<String>,
}

impl Report {
    /// Records a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        if !value.is_finite() {
            self.failures
                .push(format!("metric {name} is not a finite number ({value})"));
        }
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records an output check; a failed check makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Folds another report (a traced pass) into this one.
    pub fn absorb(&mut self, other: Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.metrics.extend(other.metrics);
        self.failures.extend(other.failures);
    }

    /// Whether every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// The recorded metrics, in recording order.
    pub fn metrics(&self) -> &[Metric] {
        &self.metrics
    }

    /// The failed checks.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// The result object: `correct`, `attempted`, `failed` and
    /// `metrics` (`{"name": {"value": v, "unit": u}, …}`). Values print
    /// with Rust's shortest round-trip `f64` formatting, so no digit is
    /// lost; a non-finite value (already a failed check) prints as 0.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_carries_every_metric_with_full_precision() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.metric("ops_per_s", 1.2345678901234567, "1/s");
        r.metric("setup_s", 2.0, "s");
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"ops_per_s\": {\"value\": 1.2345678901234567, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn failed_checks_and_operations_make_the_run_incorrect() {
        let mut r = Report {
            attempted: 1,
            ..Report::default()
        };
        assert!(r.correct());
        r.metric("x", f64::NAN, "s");
        assert!(!r.correct());
        assert!(r.to_json().contains("\"x\": {\"value\": 0.0"));

        let mut r = Report {
            attempted: 2,
            failed: 1,
            ..Report::default()
        };
        assert!(!r.correct());
        r.failed = 0;
        r.check(false, || "digest mismatch".into());
        assert!(!r.correct());
        assert_eq!(r.failures(), ["digest mismatch"]);
        assert!(!Report::default().correct(), "nothing attempted");
    }
}
