//! The three benchmark workloads: what each feeds the program, the work
//! one timed repetition does, and the outputs it hands to verification.

use analysis::{EventVisitor, Report, TraceAnalyzer};
use simtime::SimDuration;
use timerstudy::experiment::analyzer_config;
use timerstudy::figures::{self, Artifact};
use timerstudy::{
    ExperimentCache, ExperimentResult, ExperimentSpec, FaultSpec, Os, Workload as Paper,
};
use trace::{MergedReader, NullSink, RingBuffer, RingSink, StringTable, TraceLog, TraceSink};

/// Events per `read_chunk` / `visit_chunk` call on the offline path —
/// the same chunk size the program's streaming sink uses.
pub const CHUNK_EVENTS: usize = timerstudy::ANALYSIS_CHUNK_EVENTS;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The nine `paper_specs` through a fresh `ExperimentCache::run_all`
    /// on the 2-thread pool, then `figures::assemble`.
    PaperFull,
    /// Linux and Vista Webserver under every fault mode, serially through
    /// `run_experiment`.
    WebserverFaulted,
    /// The offline relayfs path: ring snapshot, chunked decode, fold and
    /// finish over two traces recorded during set-up.
    TraceReplay,
}

impl Workload {
    /// Every workload, in the order the README lists them.
    pub const ALL: [Workload; 3] = [
        Workload::PaperFull,
        Workload::WebserverFaulted,
        Workload::TraceReplay,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperFull => "paper_full",
            Workload::WebserverFaulted => "webserver_faulted",
            Workload::TraceReplay => "trace_replay",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Simulated trace length of each spec at benchmark scale. The
    /// paper's traces are 1800 s; these are scaled so one repetition
    /// takes about a second and a run holds several repetitions. The
    /// Figure 1 Outlook spec of `paper_full` keeps its fixed 90 s.
    pub fn default_duration(self) -> SimDuration {
        match self {
            Workload::PaperFull => SimDuration::from_secs(600),
            Workload::WebserverFaulted => SimDuration::from_secs(1800),
            Workload::TraceReplay => SimDuration::from_secs(900),
        }
    }

    /// The experiment specs this workload runs, built from the seed.
    pub fn specs(self, seed: u64, duration: SimDuration) -> Vec<ExperimentSpec> {
        match self {
            Workload::PaperFull => figures::paper_specs(duration, seed),
            Workload::WebserverFaulted => {
                let faults = FaultSpec::parse("all").expect("`all` is a valid fault spec");
                [Os::Linux, Os::Vista]
                    .into_iter()
                    .map(|os| {
                        ExperimentSpec::new(os, Paper::Webserver, duration, seed)
                            .with_faults(faults)
                    })
                    .collect()
            }
            Workload::TraceReplay => vec![
                ExperimentSpec::new(Os::Linux, Paper::Firefox, duration, seed),
                ExperimentSpec::new(Os::Vista, Paper::Skype, duration, seed),
            ],
        }
    }
}

/// One trace recorded into a relayfs-style ring, with the string table
/// its origins resolve against.
pub struct RecordedTrace {
    /// The spec whose run produced the trace.
    pub spec: ExperimentSpec,
    /// The encoded records.
    pub ring: RingBuffer,
    /// The run's interned origin labels.
    pub strings: StringTable,
}

/// Runs `spec`'s workload with `sink` as the kernel's trace sink and
/// returns the run's string table, the sink, and the records logged.
pub fn simulate_into(
    spec: &ExperimentSpec,
    sink: Box<dyn TraceSink>,
) -> (StringTable, Box<dyn TraceSink>, u64) {
    let net = spec.faults.net;
    let take = |log: &mut TraceLog| std::mem::replace(log, TraceLog::new(Box::new(NullSink)));
    let log = match spec.os {
        Os::Linux => take(
            workloads::run_linux_configured(
                spec.workload,
                spec.seed,
                spec.duration,
                sink,
                net,
                spec.backend,
                spec.adaptive,
            )
            .log_mut(),
        ),
        Os::Vista => take(
            workloads::run_vista_configured(
                spec.workload,
                spec.seed,
                spec.duration,
                sink,
                net,
                spec.backend,
                spec.adaptive,
            )
            .log_mut(),
        ),
    };
    let records = log.records_logged();
    let (strings, sink) = log.into_parts();
    (strings, sink, records)
}

/// Simulates `spec` into a 512 MiB ring, as the paper's Linux setup did.
pub fn record_trace(spec: ExperimentSpec) -> RecordedTrace {
    let (strings, mut sink, _) = simulate_into(
        &spec,
        Box::new(RingSink::new(RingBuffer::relayfs_default())),
    );
    let ring = sink
        .as_any_mut()
        .and_then(|a| a.downcast_mut::<RingSink>())
        .map(|s| std::mem::replace(s, RingSink::new(RingBuffer::new(trace::codec::RECORD_SIZE))))
        .expect("the recording sink is a RingSink")
        .into_ring();
    assert_eq!(ring.dropped(), 0, "the ring holds the whole trace");
    RecordedTrace {
        spec,
        ring,
        strings,
    }
}

/// What set-up leaves for the timed repetitions.
pub enum Prepared {
    /// Specs the program runs from scratch each repetition.
    Specs(Vec<ExperimentSpec>),
    /// Traces recorded once, replayed each repetition.
    Traces(Vec<RecordedTrace>),
}

/// The warm-up repetition `setup` runs for the two workloads whose
/// inputs are only specs uses traces this many times shorter.
pub const WARMUP_SHRINK: u64 = 5;

/// Builds the workload's inputs. For `trace_replay` this records the
/// traces; for the other two it builds the specs and runs one warm-up
/// repetition at a [`WARMUP_SHRINK`]th of the trace length, so that
/// thread, allocator and page-fault start-up costs are paid before
/// timing.
pub fn setup(workload: Workload, seed: u64, duration: SimDuration) -> Prepared {
    let specs = workload.specs(seed, duration);
    match workload {
        Workload::TraceReplay => Prepared::Traces(specs.into_iter().map(record_trace).collect()),
        Workload::PaperFull | Workload::WebserverFaulted => {
            let warm = Prepared::Specs(workload.specs(seed, duration / WARMUP_SHRINK));
            std::hint::black_box(run_once(workload, &warm));
            Prepared::Specs(specs)
        }
    }
}

/// The program outputs of one repetition.
pub struct Output {
    /// One report per spec, in spec order.
    pub reports: Vec<Report>,
    /// Trace records the repetition simulated or replayed.
    pub records: u64,
    /// The rendered paper artifacts (`paper_full` only).
    pub artifacts: Option<Vec<Artifact>>,
    /// Experiments the fresh cache actually ran (`paper_full` only).
    pub cache_misses: Option<u64>,
}

impl Output {
    /// The output of experiments run through `timerstudy`.
    pub fn of_results(
        results: Vec<ExperimentResult>,
        artifacts: Option<Vec<Artifact>>,
        cache_misses: Option<u64>,
    ) -> Output {
        Output {
            records: results.iter().map(|r| r.records).sum(),
            reports: results.into_iter().map(|r| r.report).collect(),
            artifacts,
            cache_misses,
        }
    }
}

/// One timed repetition: the work a user of the program waits for.
pub fn run_once(workload: Workload, prepared: &Prepared) -> Output {
    match (workload, prepared) {
        (Workload::PaperFull, Prepared::Specs(specs)) => {
            let cache = ExperimentCache::new();
            let results = cache.run_all(specs);
            let artifacts = figures::assemble(&results);
            Output::of_results(results, Some(artifacts), Some(cache.misses()))
        }
        (Workload::WebserverFaulted, Prepared::Specs(specs)) => {
            let results: Vec<_> = specs
                .iter()
                .map(|&s| timerstudy::run_experiment(s))
                .collect();
            Output::of_results(results, None, None)
        }
        (Workload::TraceReplay, Prepared::Traces(traces)) => {
            let mut records = 0;
            let reports = traces
                .iter()
                .map(|t| {
                    let (report, replayed) = replay(t);
                    records += replayed;
                    report
                })
                .collect();
            Output {
                reports,
                records,
                artifacts: None,
                cache_misses: None,
            }
        }
        _ => unreachable!("setup prepares the input shape its workload consumes"),
    }
}

/// The offline analysis of one recorded trace: snapshot the ring into a
/// `MergedReader`, decode it in chunks, fold each chunk, finish. Returns
/// the report and the number of records replayed.
pub fn replay(t: &RecordedTrace) -> (Report, u64) {
    let mut reader = MergedReader::new(vec![t.ring.clone()]);
    let mut analyzer = TraceAnalyzer::new(analyzer_config(t.spec.os, t.spec.workload));
    let mut buf = Vec::with_capacity(CHUNK_EVENTS);
    let mut replayed = 0u64;
    while reader.read_chunk(&mut buf, CHUNK_EVENTS) > 0 {
        replayed += buf.len() as u64;
        analyzer.visit_chunk(&buf);
    }
    analyzer.note_decode_lost(reader.into_stats().lost_records);
    (analyzer.finish(&t.strings), replayed)
}
