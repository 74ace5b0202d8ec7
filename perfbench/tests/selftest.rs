//! Self-test of the benchmark harness at short trace lengths: output
//! checks catch a wrong reference, and every emitted metric name is
//! well-formed and declared in `BENCHMARK.json`.

use perfbench::layers::{self, PER_LAYER};
use perfbench::timed::{self, END_TO_END};
use perfbench::verify::Reference;
use perfbench::workload::Workload;
use perfbench::RunOutcome;
use simtime::SimDuration;

const SEED: u64 = 11;
const SHORT: SimDuration = SimDuration::from_secs(20);

/// Whether `name` matches `[A-Za-z0-9_.-]+`.
fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// The metric names in a result line, in order.
fn emitted_names(outcome: &RunOutcome) -> Vec<String> {
    let line = outcome.json_line();
    let metrics = &line[line.find("\"metrics\": {").expect("metrics key") + 12..];
    metrics
        .split("}, ")
        .map(|entry| {
            let entry = entry.trim_start_matches('"');
            entry[..entry.find('"').expect("closing quote")].to_owned()
        })
        .collect()
}

#[test]
fn a_correct_reference_passes_and_a_corrupted_one_fails() {
    for workload in Workload::ALL {
        let reference = Reference::serial(workload, SEED, SHORT);
        let ok = timed::run(workload, SEED, 1, SHORT, Some(reference.clone()));
        assert!(ok.attempted > 0);
        assert_eq!(ok.failed, 0, "{}: {:?}", workload.name(), ok.notes);
        assert_eq!(ok.verify_fail_ratio(), 0.0);
        assert!(ok.json_line().starts_with("{\"correct\": true, "));

        let mut corrupted = reference.clone();
        corrupted.reports[0] ^= 1;
        let bad = timed::run(workload, SEED, 1, SHORT, Some(corrupted));
        assert!(bad.verify_fail_ratio() > 0.0, "{}", workload.name());
        assert!(bad.json_line().starts_with("{\"correct\": false, "));
    }
}

#[test]
fn repetition_wide_checks_fail_every_experiment_of_the_repetition() {
    let workload = Workload::PaperFull;
    let mut corrupted = Reference::serial(workload, SEED, SHORT);
    corrupted.artifacts ^= 1;
    let bad = timed::run(workload, SEED, 1, SHORT, Some(corrupted));
    assert_eq!(bad.failed, bad.attempted);
    assert_eq!(bad.verify_fail_ratio(), 1.0);
}

#[test]
fn every_emitted_metric_name_is_well_formed_and_declared() {
    let declared = include_str!("../../BENCHMARK.json");
    let timed_run = timed::run(Workload::WebserverFaulted, SEED, 1, SHORT, None);
    let spans = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("selftest-spans.json");
    let traced_run = layers::run(Workload::TraceReplay, SEED, 1, SHORT, &spans);
    for (outcome, expected) in [(&timed_run, &END_TO_END[..]), (&traced_run, &PER_LAYER[..])] {
        let names = emitted_names(outcome);
        let want: Vec<&str> = expected.iter().map(|&(name, _)| name).collect();
        assert_eq!(names, want);
        for name in &names {
            assert!(valid_metric_name(name), "{name:?} is not [A-Za-z0-9_.-]+");
            assert!(
                declared.contains(&format!("\"name\": \"{name}\"")),
                "{name} is missing from BENCHMARK.json"
            );
        }
    }
    assert!(spans.exists());
}
