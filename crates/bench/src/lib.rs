//! Benchmark and reproduction binaries for the paper.

use std::time::{Duration, Instant};

use simtime::SimDuration;
use timerstudy::{EnvKnobError, ExperimentResult};

/// Unwraps an environment knob, or reports the malformed variable on
/// stderr and exits 2 — the same contract as an unknown flag.
pub fn knob_or_exit<T>(knob: Result<T, EnvKnobError>) -> T {
    knob.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

/// The trace length every reproduction binary runs at
/// ([`timerstudy::experiment::repro_duration`]). Exits 2 on a malformed
/// `REPRO_SECONDS`, and on a malformed `REPRO_THREADS` too: the
/// experiment pool reads it later, where it could only panic.
pub fn repro_duration() -> SimDuration {
    knob_or_exit(timerstudy::parallel::default_threads(1));
    knob_or_exit(timerstudy::experiment::repro_duration())
}

/// The one-line `[telemetry] stage=...` summary for `results`: how many
/// experiments ran, the trace records they logged (Σ
/// [`ExperimentResult::records`]), the process-wide cache tally, and the
/// wall time since the stage started.
pub fn stage_summary_line<'a>(
    stage: &str,
    results: impl IntoIterator<Item = &'a ExperimentResult>,
    wall: Duration,
) -> String {
    let mut experiments = 0u64;
    let mut records = 0u64;
    for result in results {
        experiments += 1;
        records += result.records;
    }
    let cache = timerstudy::cache::global();
    telemetry::stage_summary_line(
        stage,
        &[
            ("experiments", experiments.to_string()),
            ("records", records.to_string()),
            ("cache_hits", cache.hits().to_string()),
            ("cache_misses", cache.misses().to_string()),
            ("wall_ms", wall.as_millis().to_string()),
        ],
    )
}

/// Prints [`stage_summary_line`], which every reproduction binary emits
/// when it finishes. Goes to stderr: stdout is reserved for the artifact
/// text, which the golden-output tests compare byte-for-byte.
pub fn print_stage_summary<'a>(
    stage: &str,
    results: impl IntoIterator<Item = &'a ExperimentResult>,
    started: Instant,
) {
    eprintln!("{}", stage_summary_line(stage, results, started.elapsed()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use simtime::SimDuration;
    use timerstudy::{ExperimentSpec, Os, Workload};

    #[test]
    fn stage_line_counts_trace_records() {
        let spec = ExperimentSpec::new(Os::Linux, Workload::Idle, SimDuration::from_secs(2), 3);
        let result = timerstudy::run_experiment(spec);
        assert!(result.records > 0, "the run must log trace records");
        let mut other = result.clone();
        other.records = 5;
        let line = stage_summary_line("probe", [&result, &other], Duration::from_millis(12));
        assert!(line.starts_with("[telemetry] stage=probe experiments=2 "));
        assert!(
            line.contains(&format!(" records={} ", result.records + 5)),
            "stage line must sum ExperimentResult::records: {line}"
        );
        assert!(line.ends_with(" wall_ms=12"));
        assert!(!line.contains("sim_events"));
    }
}
