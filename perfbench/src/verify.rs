//! Output checks: digests of what a repetition produced, the reference
//! they must equal, and the failure count that becomes
//! `verify_fail_ratio`.

use analysis::Report;
use simtime::SimDuration;
use timerstudy::figures::{self, Artifact};

use crate::reference::RECORDED;
use crate::workload::{Output, Workload};

/// 64-bit FNV-1a over `bytes`, continuing from `hash`.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of one report's complete field dump.
pub fn report_digest(report: &Report) -> u64 {
    fnv1a(FNV_OFFSET, format!("{report:?}").as_bytes())
}

/// Digest of the rendered artifacts: titles, text and CSV, in order.
pub fn artifacts_digest(artifacts: &[Artifact]) -> u64 {
    artifacts.iter().fold(FNV_OFFSET, |h, a| {
        let h = fnv1a(h, a.printable().as_bytes());
        fnv1a(h, a.csv.as_deref().unwrap_or("").as_bytes())
    })
}

/// What every repetition of a workload at one seed must reproduce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reference {
    /// One report digest per spec, in spec order.
    pub reports: Vec<u64>,
    /// Digest of the assembled artifacts (`paper_full`), else 0.
    pub artifacts: u64,
    /// Records the fault adaptor dropped, summed over the specs.
    pub dropped: u64,
}

impl Reference {
    /// The reference of an output assumed correct.
    pub fn of(output: &Output) -> Reference {
        Reference {
            reports: output.reports.iter().map(report_digest).collect(),
            artifacts: output.artifacts.as_deref().map_or(0, artifacts_digest),
            dropped: output
                .reports
                .iter()
                .map(|r| r.summary.dropped_records)
                .sum(),
        }
    }

    /// The reference recorded in [`RECORDED`] for this workload, seed and
    /// duration, if any.
    pub fn recorded(workload: Workload, seed: u64, duration: SimDuration) -> Option<Reference> {
        RECORDED
            .iter()
            .find(|r| {
                r.workload == workload.name()
                    && r.seed == seed
                    && r.duration_s == duration.as_nanos() / 1_000_000_000
            })
            .map(|r| Reference {
                reports: r.reports.to_vec(),
                artifacts: r.artifacts,
                dropped: r.dropped,
            })
    }

    /// Computes the reference on the program's serial path, independent
    /// of the path the timed repetitions take:
    /// - `paper_full`: `run_experiments` (serial, uncached) + `assemble`;
    /// - `webserver_faulted`: the collect-everything oracle
    ///   `run_experiments_collected`;
    /// - `trace_replay`: the online `run_experiments` of the same specs,
    ///   which the offline replay must equal.
    pub fn serial(workload: Workload, seed: u64, duration: SimDuration) -> Reference {
        let specs = workload.specs(seed, duration);
        let results = match workload {
            Workload::WebserverFaulted => timerstudy::run_experiments_collected(&specs),
            Workload::PaperFull | Workload::TraceReplay => timerstudy::run_experiments(&specs),
        };
        let artifacts = (workload == Workload::PaperFull).then(|| figures::assemble(&results));
        Reference::of(&Output::of_results(results, artifacts, None))
    }
}

/// Checks one repetition's digests (`got`, and the fresh cache's miss
/// count where the workload has one) against the reference. Returns
/// `(experiments attempted, experiments failed)`: an experiment fails when
/// its report digest differs, and every experiment of the repetition fails
/// when a repetition-wide check does (report count, artifact digest,
/// total drop count, cache misses).
pub fn check(got: &Reference, cache_misses: Option<u64>, reference: &Reference) -> (u64, u64) {
    let attempted = reference.reports.len() as u64;
    let whole_rep_ok = got.reports.len() == reference.reports.len()
        && got.artifacts == reference.artifacts
        && got.dropped == reference.dropped
        && cache_misses.is_none_or(|misses| misses == attempted);
    if !whole_rep_ok {
        return (attempted, attempted);
    }
    let failed = got
        .reports
        .iter()
        .zip(&reference.reports)
        .filter(|(a, b)| a != b)
        .count() as u64;
    (attempted, failed)
}

/// Prints the reference table entries for `seeds` (serial path, default
/// durations) as Rust source for `reference.rs`.
pub fn print_references(seeds: &[u64]) {
    for workload in Workload::ALL {
        let duration = workload.default_duration();
        for &seed in seeds {
            let r = Reference::serial(workload, seed, duration);
            let reports: Vec<String> = r.reports.iter().map(|d| format!("{d:#018x}")).collect();
            println!(
                "    Recorded {{ workload: \"{}\", seed: {seed}, duration_s: {}, reports: &[{}], artifacts: {:#018x}, dropped: {} }},",
                workload.name(),
                duration.as_nanos() / 1_000_000_000,
                reports.join(", "),
                r.artifacts,
                r.dropped,
            );
        }
    }
}
