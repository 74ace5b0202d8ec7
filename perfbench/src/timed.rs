//! The untraced run: set-up, timed repetitions, verification, and the
//! end-to-end metrics.

use std::time::{Duration, Instant};

use simtime::SimDuration;

use crate::measure::{self, median, min_max};
use crate::verify::{self, Reference};
use crate::workload::{self, Workload};
use crate::{Metric, RunOutcome};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Fewest timed repetitions a run makes, however long they take.
pub const MIN_REPS: usize = 3;

/// Every end-to-end metric, with its unit, in output order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("records_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// One timed repetition's measurements.
struct Rep {
    wall_s: f64,
    cpu_s: f64,
    peak_rss_mb: f64,
    records: u64,
}

/// Sets up [`SETUP_REPS`] times, then repeats the workload until
/// `seconds` of repetitions have run (at least [`MIN_REPS`]), then
/// verifies every repetition's outputs against `reference`, or when that
/// is `None` against the recorded or serial-path reference.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: u64,
    duration: SimDuration,
    reference: Option<Reference>,
) -> RunOutcome {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        drop(prepared.take());
        let start = Instant::now();
        prepared = Some(workload::setup(workload, seed, duration));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let prepared = prepared.expect("SETUP_REPS is at least one");

    let budget = Duration::from_secs(seconds);
    let began = Instant::now();
    let mut reps = Vec::new();
    let mut digests = Vec::new();
    while reps.len() < MIN_REPS || began.elapsed() < budget {
        measure::reset_peak_rss();
        let cpu0 = measure::process_cpu_s();
        let start = Instant::now();
        let output = workload::run_once(workload, &prepared);
        let wall_s = start.elapsed().as_secs_f64();
        let cpu_s = measure::process_cpu_s() - cpu0;
        reps.push(Rep {
            wall_s,
            cpu_s,
            peak_rss_mb: measure::peak_rss_mb(),
            records: output.records,
        });
        digests.push((Reference::of(&output), output.cache_misses));
    }
    drop(prepared);

    let (reference, source) = match reference {
        Some(r) => (r, "given"),
        None => match Reference::recorded(workload, seed, duration) {
            Some(r) => (r, "recorded"),
            None => (
                Reference::serial(workload, seed, duration),
                "computed on the serial path",
            ),
        },
    };
    let (mut attempted, mut failed) = (0, 0);
    for (got, cache_misses) in &digests {
        let (a, f) = verify::check(got, *cache_misses, &reference);
        attempted += a;
        failed += f;
    }

    let wall: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let cpu: Vec<f64> = reps.iter().map(|r| r.cpu_s).collect();
    let rate: Vec<f64> = reps.iter().map(|r| r.records as f64 / r.wall_s).collect();
    let rss: Vec<f64> = reps.iter().map(|r| r.peak_rss_mb).collect();
    let values = [
        median(&wall),
        median(&cpu),
        median(&rate),
        median(&rss),
        median(&setup_s),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric::new(name, value, unit))
        .collect();

    let (wall_lo, wall_hi) = min_max(&wall);
    let (cpu_lo, cpu_hi) = min_max(&cpu);
    let (rss_lo, rss_hi) = min_max(&rss);
    let notes = vec![
        format!(
            "repetitions {}, records per repetition {}, reference {}",
            reps.len(),
            reps[0].records,
            source
        ),
        format!(
            "wall_s spread: min {wall_lo:.4} max {wall_hi:.4} over {} repetitions",
            reps.len()
        ),
        format!("cpu_s spread: min {cpu_lo:.4} max {cpu_hi:.4}"),
        format!("peak_rss_mb spread: min {rss_lo:.2} max {rss_hi:.2}"),
        format!("setup_s samples: {setup_s:.4?}"),
    ];
    RunOutcome {
        attempted,
        failed,
        metrics,
        notes,
    }
}
