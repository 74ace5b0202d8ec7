//! A batch-job benchmark of the os-timer-study reproduction.
//!
//! `perfbench --workload NAME --seed N --seconds S --trace 0|1` runs one
//! workload in this process and prints, as its last stdout line, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones ([`timed`]); with
//! `--trace 1` they are the per-layer ones of a separate traced run
//! ([`layers`]). See `README.md` in this directory for the workloads, the
//! metrics and which layer metric should move which end-to-end metric.

pub mod layers;
pub mod measure;
pub mod reference;
pub mod spans;
pub mod timed;
pub mod verify;
pub mod workload;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit, e.g. `s`, `ns`, `count`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric reading.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Everything one run reports.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Output checks attempted (experiments verified).
    pub attempted: u64,
    /// Output checks that failed.
    pub failed: u64,
    /// The metrics, in output order.
    pub metrics: Vec<Metric>,
    /// Human-readable detail printed before the result line.
    pub notes: Vec<String>,
}

impl RunOutcome {
    /// Failed checks as a share of those attempted.
    pub fn verify_fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line: one JSON object with exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                assert!(m.value.is_finite(), "metric {} is not finite", m.name);
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
