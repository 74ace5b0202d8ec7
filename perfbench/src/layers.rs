//! The traced run: the workload's specs taken apart layer by layer, each
//! layer timed by a span around the public call that does its work.
//!
//! One pass does, per spec:
//! 1. plain `run_experiment`, untraced, and the same call inside a
//!    `core.experiment` span, back to back in alternating order: the
//!    serial cost the layers must account for, and the tracing overhead;
//! 2. `workloads.simulate`: the kernel and workload run into a `NullSink`
//!    (workloads, linuxsim/vistasim, netsim, wheel, des, simtime), whose
//!    sim-plane snapshot gives the wheel and netsim counts;
//! 3. the trace, collected (span `bench.collect`, not a layer), then
//!    re-fed through `trace.fault_sink`, `wheel.replay` (Linux only),
//!    `trace.encode`, `trace.ring_snapshot`, and chunk by chunk through
//!    `trace.decode` and `analysis.fold`, then `analysis.finish`. The
//!    report that comes out must equal the reference.
//!
//! and then, for the whole spec set, `core.run_all` on a fresh cache (pool
//! idle time, cache misses) and `core.assemble`.

use std::path::{Path, PathBuf};
use std::time::Instant;

use analysis::{EventVisitor, Report, TraceAnalyzer};
use simtime::SimDuration;
use telemetry::{SimCounter, SimSnapshot};
use timerstudy::experiment::analyzer_config;
use timerstudy::figures::{self, Artifact};
use timerstudy::{ExperimentCache, ExperimentResult, ExperimentSpec, FaultSpec, Os};
use trace::{
    CollectSink, CountSink, Event, EventKind, FaultSink, MergedReader, NullSink, RingBuffer,
    RingSink, TraceSink,
};
use wheel::Backend;

use crate::measure::median;
use crate::spans::Recorder;
use crate::verify::{self, Reference};
use crate::workload::{simulate_into, Output, Workload, CHUNK_EVENTS};
use crate::{Metric, RunOutcome};

/// The smallest share of the serial experiment time the timed layers
/// (simulate + fold + finish, plus the fault adaptor where the program
/// installs it) must account for, as a median over the passes; a traced
/// run below it fails its coverage check.
pub const MIN_LAYER_COVERAGE: f64 = 0.75;

/// Every per-layer metric, with its unit, in output order.
pub const PER_LAYER: [(&str, &str); 26] = [
    ("workloads.simulate_s", "s"),
    ("workloads.simulate_ns_per_record", "ns"),
    ("wheel.replay_ns_per_op", "ns"),
    ("wheel.schedules", "count"),
    ("wheel.cancels", "count"),
    ("wheel.expirations", "count"),
    ("wheel.cascades", "count"),
    ("netsim.segments_sent", "count"),
    ("netsim.retransmits", "count"),
    ("trace.fault_sink_ns_per_record", "ns"),
    ("trace.dropped_records", "count"),
    ("trace.encode_ns_per_record", "ns"),
    ("trace.ring_snapshot_s", "s"),
    ("trace.decode_ns_per_record", "ns"),
    ("analysis.fold_s", "s"),
    ("analysis.fold_ns_per_record", "ns"),
    ("analysis.finish_s", "s"),
    ("analysis.chunks", "count"),
    ("core.experiment_max_s", "s"),
    ("core.experiment_sum_s", "s"),
    ("core.pool_idle_s", "s"),
    ("core.assemble_s", "s"),
    ("core.cache_misses", "count"),
    ("core.unattributed_s", "s"),
    ("bench.layer_coverage", "ratio"),
    ("bench.tracing_overhead_frac", "ratio"),
];

/// Index of `bench.layer_coverage` in [`PER_LAYER`].
const COVERAGE: usize = 24;

/// Counts one pass gathers outside the span timings.
#[derive(Debug, Default)]
struct Tally {
    records: u64,
    sim: SimSnapshot,
    fault_fed: u64,
    dropped: u64,
    fault_on_path_s: f64,
    wheel_ops: u64,
    encoded: u64,
    decoded: u64,
    experiment_s: Vec<f64>,
    cache_misses: u64,
    pool_threads: usize,
}

/// Runs traced passes until `seconds` have elapsed (at least one) and
/// reports each per-layer metric as its median over the passes. Reports
/// are checked against the recorded reference for the seed, else against
/// the pass's own untraced serial runs. The spans of every pass are
/// written to `spans_out` as JSON.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: u64,
    duration: SimDuration,
    spans_out: &Path,
) -> RunOutcome {
    let specs = workload.specs(seed, duration);
    let recorded = Reference::recorded(workload, seed, duration);
    let mut rec = Recorder::new();
    let began = Instant::now();
    let mut per_pass: Vec<Vec<f64>> = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut coverage_notes = Vec::new();
    while per_pass.is_empty() || began.elapsed().as_secs() < seconds {
        let run = per_pass.len() as u32;
        rec.set_run(run);
        let (values, checks) = pass(&mut rec, run, &specs, recorded.as_ref(), workload);
        attempted += checks.0;
        failed += checks.1;
        coverage_notes.push(format!(
            "pass {run}: layer coverage {:.3}",
            values[COVERAGE]
        ));
        per_pass.push(values);
    }
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .enumerate()
        .map(|(i, &(name, unit))| {
            let samples: Vec<f64> = per_pass.iter().map(|p| p[i]).collect();
            Metric::new(name, median(&samples), unit)
        })
        .collect();
    attempted += 1;
    if metrics[COVERAGE].value < MIN_LAYER_COVERAGE {
        failed += 1;
    }
    let mut notes = coverage_notes;
    let shown = spans_out.display();
    match rec.write_json(spans_out) {
        Ok(()) => notes.push(format!("{} spans written to {shown}", rec.spans().len())),
        Err(e) => {
            notes.push(format!("writing spans to {shown} failed: {e}"));
            failed += 1;
            attempted += 1;
        }
    }
    RunOutcome {
        attempted,
        failed,
        metrics,
        notes,
    }
}

/// Where the traced run writes its spans: under the build directory
/// (`CARGO_TARGET_DIR`, else `.bench_build`), which stays inside the
/// checkout and out of version control.
pub fn spans_path(workload: Workload, seed: u64) -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    PathBuf::from(dir)
        .join("perfbench")
        .join(format!("spans-{}-seed{seed}.json", workload.name()))
}

/// One traced pass. Returns the metric values in [`PER_LAYER`] order and
/// `(checks attempted, checks failed)`.
fn pass(
    rec: &mut Recorder,
    run: u32,
    specs: &[ExperimentSpec],
    recorded: Option<&Reference>,
    workload: Workload,
) -> (Vec<f64>, (u64, u64)) {
    let mut tally = Tally::default();
    let mut serial = Vec::with_capacity(specs.len());
    let mut decomposed = Vec::with_capacity(specs.len());
    let (mut attempted, mut failed) = (0u64, 0u64);
    rec.span("bench.pass", |rec| {
        for &spec in specs {
            // The serial cost, untraced and traced back to back (in
            // alternating order, so neither always runs on a warmer
            // cache), then the same experiment taken apart.
            let untraced = |tally: &mut Tally| {
                let start = Instant::now();
                let result = timerstudy::run_experiment(spec);
                tally.experiment_s.push(start.elapsed().as_secs_f64());
                result
            };
            let traced = |rec: &mut Recorder| {
                rec.span("core.experiment", |_| {
                    std::hint::black_box(timerstudy::run_experiment(spec));
                })
            };
            if run.is_multiple_of(2) {
                serial.push(untraced(&mut tally));
                traced(rec);
            } else {
                traced(rec);
                serial.push(untraced(&mut tally));
            }
            let report = rec.span("bench.decompose", |rec| decompose(rec, spec, &mut tally));
            decomposed.push(verify::report_digest(&report));
        }
    });
    // Without a recorded reference the untraced serial reports are it.
    let reference = recorded.cloned().unwrap_or_else(|| {
        let artifacts = (workload == Workload::PaperFull).then(|| figures::assemble(&serial));
        Reference::of(&Output::of_results(serial, artifacts, None))
    });
    rec.span("bench.pool", |rec| {
        let cache = ExperimentCache::new();
        let results = rec.span("core.run_all", |_| cache.run_all(specs));
        tally.cache_misses = cache.misses();
        tally.pool_threads = timerstudy::default_threads_for(specs);
        let artifacts = rec.span("core.assemble", |_| render(workload, &results));
        let artifacts = (workload == Workload::PaperFull).then_some(artifacts);
        let got = Reference::of(&Output::of_results(results, artifacts, None));
        let (a, f) = verify::check(&got, Some(tally.cache_misses), &reference);
        attempted += a;
        failed += f;
    });
    // The decomposed pipeline must reproduce every report exactly.
    attempted += decomposed.len() as u64;
    failed += decomposed
        .iter()
        .zip(&reference.reports)
        .filter(|(a, b)| a != b)
        .count() as u64;

    let total = |name| rec.total_s(run, name);
    let per_ns = |secs: f64, n: u64| secs * 1e9 / n.max(1) as f64;
    let simulate_s = total("workloads.simulate");
    let fold_s = total("analysis.fold");
    let finish_s = total("analysis.finish");
    let experiment_sum_s: f64 = tally.experiment_s.iter().sum();
    let attributed_s = simulate_s + fold_s + finish_s + tally.fault_on_path_s;
    let coverage = attributed_s / experiment_sum_s;
    let count = |c| tally.sim.counter(c) as f64;
    let values = vec![
        simulate_s,
        per_ns(simulate_s, tally.records),
        per_ns(total("wheel.replay"), tally.wheel_ops),
        count(SimCounter::WheelSchedules),
        count(SimCounter::WheelCancels),
        count(SimCounter::WheelExpirations),
        count(SimCounter::WheelCascades),
        count(SimCounter::NetSegmentsSent),
        count(SimCounter::NetRetransmits),
        per_ns(total("trace.fault_sink"), tally.fault_fed),
        tally.dropped as f64,
        per_ns(total("trace.encode"), tally.encoded),
        total("trace.ring_snapshot"),
        per_ns(total("trace.decode"), tally.decoded),
        fold_s,
        per_ns(fold_s, tally.decoded),
        finish_s,
        rec.count(run, "analysis.fold") as f64,
        tally.experiment_s.iter().copied().fold(0.0, f64::max),
        experiment_sum_s,
        tally.pool_threads as f64 * total("core.run_all") - experiment_sum_s,
        total("core.assemble"),
        tally.cache_misses as f64,
        experiment_sum_s - attributed_s,
        coverage,
        total("core.experiment") / experiment_sum_s - 1.0,
    ];
    (values, (attempted, failed))
}

/// Takes one spec's experiment apart layer by layer and returns the
/// report the offline pipeline produced.
fn decompose(rec: &mut Recorder, spec: ExperimentSpec, tally: &mut Tally) -> Report {
    let ((_, _, records), snapshot) = rec.span("workloads.simulate", |_| {
        telemetry::sim::scoped(|| simulate_into(&spec, Box::new(NullSink)))
    });
    tally.records += records;
    tally.sim.merge(&snapshot);

    let (strings, mut events) = rec.span("bench.collect", |_| {
        let (strings, mut sink, _) = simulate_into(&spec, Box::new(CollectSink::default()));
        (strings, take_collected(sink.as_mut()))
    });

    // The fault adaptor: the spec's own trace faults where it has any
    // (the program installs the adaptor then), else the `all` fault
    // plane's, as a probe of the adaptor's cost on this trace.
    let on_path = !spec.faults.drops.is_none() || !spec.faults.clock.is_none();
    let faults = if on_path {
        spec.faults
    } else {
        FaultSpec::parse("all").expect("`all` is a valid fault spec")
    };
    let (dropped, secs) = {
        let start = rec.spans().len();
        let dropped = rec.span("trace.fault_sink", |_| {
            let mut sink = FaultSink::new(
                Box::new(CountSink::default()),
                faults.drops,
                faults.clock,
                faults.seed,
            );
            events.iter().for_each(|e| sink.record(e));
            sink.dropped()
        });
        (dropped, rec.spans()[start].secs())
    };
    tally.fault_fed += events.len() as u64;
    tally.dropped += dropped;
    if on_path {
        tally.fault_on_path_s += secs;
        events = rec.span("bench.refault", |_| {
            let mut sink = FaultSink::new(
                Box::new(CollectSink::default()),
                faults.drops,
                faults.clock,
                faults.seed,
            );
            events.iter().for_each(|e| sink.record(e));
            take_collected(sink.inner_mut())
        });
    }

    if spec.os == Os::Linux {
        tally.wheel_ops += rec.span("wheel.replay", |_| replay_wheel(&events));
    }

    let ring = rec.span("trace.encode", |_| {
        let mut sink = RingSink::new(RingBuffer::relayfs_default());
        events.iter().for_each(|e| sink.record(e));
        sink.into_ring()
    });
    tally.encoded += events.len() as u64;
    drop(events);
    let mut reader = rec.span("trace.ring_snapshot", |_| {
        MergedReader::new(vec![ring.clone()])
    });
    drop(ring);

    let mut analyzer = TraceAnalyzer::new(analyzer_config(spec.os, spec.workload));
    let mut buf = Vec::with_capacity(CHUNK_EVENTS);
    while rec.span("trace.decode", |_| {
        reader.read_chunk(&mut buf, CHUNK_EVENTS)
    }) > 0
    {
        tally.decoded += buf.len() as u64;
        rec.span("analysis.fold", |_| analyzer.visit_chunk(&buf));
    }
    analyzer.note_decode_lost(reader.into_stats().lost_records);
    let mut report = rec.span("analysis.finish", |_| analyzer.finish(&strings));
    if on_path {
        report.summary.dropped_records = dropped;
    }
    report
}

fn take_collected(sink: &mut dyn TraceSink) -> Vec<Event> {
    sink.as_any_mut()
        .and_then(|a| a.downcast_mut::<CollectSink>())
        .map(|c| std::mem::take(&mut c.events))
        .expect("the collecting sink is a CollectSink")
}

/// Replays a Linux trace's Set / Cancel / clock-advance sequence through
/// a `Backend::Hierarchical` queue at HZ = 250. Returns the operations
/// issued (schedules + cancels + advances).
fn replay_wheel(events: &[Event]) -> u64 {
    let mut queue = Backend::Hierarchical.build(Backend::Hierarchical, 0);
    let period = simtime::LINUX_HZ.period().as_nanos();
    let mut ops = 0u64;
    let mut fired = 0u64;
    for e in events {
        let now = e.ts.as_nanos() / period;
        if now > queue.now() {
            queue.advance_to(now, &mut |_, _| fired += 1);
            ops += 1;
        }
        match e.kind {
            EventKind::Set => {
                if let Some(expires) = e.expires {
                    queue.schedule(e.timer, (expires.as_nanos() / period).max(now));
                    ops += 1;
                }
            }
            EventKind::Cancel => {
                queue.cancel(e.timer);
                ops += 1;
            }
            _ => {}
        }
    }
    std::hint::black_box(fired);
    ops
}

/// The artifacts the workload's results feed: the whole paper for
/// `paper_full`; otherwise the Table 1/2 columns of its specs, plus the
/// Figure 11 scatter for the Webserver pair.
fn render(workload: Workload, results: &[ExperimentResult]) -> Vec<Artifact> {
    if workload == Workload::PaperFull {
        return figures::assemble(results);
    }
    let (linux, vista): (Vec<_>, Vec<_>) = results
        .iter()
        .cloned()
        .partition(|r| r.spec.os == Os::Linux);
    let mut artifacts = vec![figures::table1(&linux), figures::table2(&vista)];
    if workload == Workload::WebserverFaulted {
        artifacts.push(figures::fig_scatter(&linux[0], &vista[0], 11));
    }
    artifacts
}
