//! Slot-fold differential property: the composed [`TraceAnalyzer`]
//! resolves each record's timer to a dense slot (and each origin to a
//! dense id) and folds per-timer state through those indices. Every
//! component also exposes a standalone, map-keyed `push` around the same
//! fold body. For arbitrary streams the two must agree on every `Report`
//! field the slot-indexed components produce: population, lifecycle,
//! countdown, both classifiers and the three value histograms.
//!
//! The generated streams stress what the dense tables could get wrong:
//! timer addresses reused across episodes, end events whose `Set` was
//! lost (orphans, from nested drop levels and from the lossy
//! [`FaultSink`] plane), backwards and duplicated timestamps, both
//! [`ClusterMode`]s, and origin ids far beyond any real string table.

use analysis::classify::{Classifier, ClusterKey, PatternClass};
use analysis::countdown::CountdownDetector;
use analysis::lifecycle::{LifecycleTracker, Sample};
use analysis::provenance::ProvenanceTracker;
use analysis::summary::TimerPopulation;
use analysis::values::ValueHistogram;
use analysis::{AnalyzerConfig, ClusterMode, Report, TraceAnalyzer};
use proptest::prelude::*;
use simtime::faults::ClockFault;
use simtime::{SimDuration, SimInstant};
use trace::{CollectSink, DropFault, Event, EventKind, FaultSink, Space, StringTable, TraceSink};

/// Origins: a few real ids, the dense-table boundary, and corrupt ones.
const ORIGINS: [u32; 7] = [
    0,
    1,
    2,
    analysis::slots::DENSE_ORIGINS - 1,
    analysis::slots::DENSE_ORIGINS,
    0x7fff_fff0,
    u32::MAX,
];

#[derive(Debug, Clone)]
struct RawEvent {
    ts_step: u64,
    /// Milliseconds this event's stamp lags the logical clock — produces
    /// backwards/duplicated timestamps when nonzero.
    back_jitter: u8,
    kind_sel: u8,
    /// Small addresses are reused constantly; the high bit spreads a few
    /// across the whole address space.
    timer: u64,
    timeout_ms: Option<u64>,
    origin_sel: usize,
    pid: u32,
    user: bool,
    countdown: bool,
    /// Drop severity: the event is dropped at every drop level above this.
    severity: u8,
}

fn arb_event() -> impl Strategy<Value = RawEvent> {
    (
        (0u64..50, 0u8..20, 0u8..7),
        (0u64..16, any::<bool>()),
        proptest::option::of(prop_oneof![1u64..60_000, Just(500u64), Just(1_000u64)]),
        (0usize..ORIGINS.len(), 0u32..4, any::<bool>(), any::<bool>()),
        any::<u8>(),
    )
        .prop_map(
            |(
                (ts_step, back_jitter, kind_sel),
                (timer, far),
                timeout_ms,
                (origin_sel, pid, user, countdown),
                severity,
            )| RawEvent {
                ts_step,
                back_jitter,
                kind_sel,
                timer: if far { timer << 48 } else { timer },
                timeout_ms,
                origin_sel,
                pid,
                user,
                countdown,
                severity,
            },
        )
}

fn build(raw: &RawEvent, ts_ms: u64) -> Event {
    let kind = match raw.kind_sel {
        0 => EventKind::Init,
        1 | 2 => EventKind::Set,
        3 => EventKind::Cancel,
        4 => EventKind::Expire,
        5 => EventKind::WaitSatisfied,
        _ => EventKind::WaitTimedOut,
    };
    let mut e = Event::new(
        SimInstant::BOOT + SimDuration::from_millis(ts_ms),
        kind,
        raw.timer,
        ORIGINS[raw.origin_sel],
    )
    .with_task(
        raw.pid,
        raw.pid,
        if raw.user { Space::User } else { Space::Kernel },
    );
    if let Some(ms) = raw.timeout_ms {
        e = e.with_timeout(SimDuration::from_millis(ms));
    }
    e.flags.countdown = raw.countdown;
    e
}

/// The stream surviving one nested drop level, each event stamped
/// behind the logical clock by its jitter.
fn surviving(raws: &[RawEvent], keep_at_most: u8) -> Vec<Event> {
    let mut clock = 0u64;
    let mut events = Vec::new();
    for raw in raws {
        clock += raw.ts_step;
        if raw.severity <= keep_at_most {
            events.push(build(raw, clock.saturating_sub(raw.back_jitter as u64)));
        }
    }
    events
}

/// `events` after the lossy fault plane's burst drops.
fn fault_dropped(events: &[Event], seed: u64) -> Vec<Event> {
    let drops = DropFault {
        permille: 150,
        burst_len: 3,
    };
    let mut sink = FaultSink::new(
        Box::new(CollectSink::default()),
        drops,
        ClockFault::none(),
        seed,
    );
    for event in events {
        sink.record(event);
    }
    let (mut inner, _) = sink.into_parts();
    inner
        .as_any_mut()
        .and_then(|a| a.downcast_mut::<CollectSink>())
        .map(|c| std::mem::take(&mut c.events))
        .expect("inner sink is a CollectSink")
}

/// The analyzer configuration under test: one filtered and one dotted
/// pid, so every histogram filter and the Figure 4 series are live.
fn config(mode: ClusterMode) -> AnalyzerConfig {
    AnalyzerConfig {
        cluster_mode: mode,
        exclude_pids: vec![1],
        dot_pids: vec![2],
        ..AnalyzerConfig::default()
    }
}

/// Every slot-indexed component, driven standalone through its map-keyed
/// `push`, and compared field by field with the composed report.
fn assert_matches_standalone(events: &[Event], cfg: &AnalyzerConfig) -> Result<(), TestCaseError> {
    let strings = StringTable::new();
    let mut analyzer = TraceAnalyzer::new(cfg.clone());
    analyzer.push_chunk(events);
    let report: Report = analyzer.finish(&strings);

    let mut population = TimerPopulation::default();
    let mut lifecycle = LifecycleTracker::new();
    let mut countdown = CountdownDetector::new(cfg.tolerance, cfg.dot_pids.clone());
    let mut values_all = ValueHistogram::new();
    let mut values_filtered = ValueHistogram::excluding(cfg.exclude_pids.iter().copied());
    let mut values_user = ValueHistogram::user_only_excluding(cfg.exclude_pids.iter().copied());
    let mut samples: Vec<Sample> = Vec::new();
    for event in events {
        population.push(event);
        countdown.push(event);
        values_all.push(event);
        values_filtered.push(event);
        values_user.push(event);
        samples.extend(lifecycle.push(event));
    }
    let mut classifier = Classifier::new(cfg.tolerance);
    let mut origin_classifier = Classifier::new(cfg.tolerance);
    let mut provenance = ProvenanceTracker::new();
    for sample in &samples {
        let key = match cfg.cluster_mode {
            ClusterMode::ByAddress => ClusterKey(sample.addr, 0),
            ClusterMode::ByOriginPid => ClusterKey(sample.origin as u64, sample.pid as u64),
        };
        classifier.push(key, sample);
        origin_classifier.push(ClusterKey(sample.origin as u64, 0), sample);
        provenance.push(sample);
    }

    let summary = &report.summary;
    prop_assert_eq!(summary.timers, population.count());
    prop_assert_eq!(summary.concurrency, lifecycle.peak_concurrency() as u64);
    prop_assert_eq!(summary.orphan_ends, lifecycle.orphan_ends());
    prop_assert_eq!(summary.out_of_order_sets, countdown.out_of_order_sets());
    prop_assert_eq!(summary.anomalous_rearms, classifier.anomalous_rearms());
    prop_assert_eq!(
        serde_json::to_string(&report.pattern_mix).unwrap(),
        serde_json::to_string(&classifier.finish()).unwrap()
    );
    prop_assert_eq!(&report.values_all, &values_all.rows(2.0));
    prop_assert_eq!(report.values_all_coverage, values_all.coverage(2.0));
    prop_assert_eq!(&report.values_filtered, &values_filtered.rows(2.0));
    prop_assert_eq!(
        report.values_filtered_coverage,
        values_filtered.coverage(2.0)
    );
    prop_assert_eq!(&report.values_user, &values_user.rows(2.0));
    prop_assert_eq!(&report.fig4_dots, &countdown.dots().to_vec());
    prop_assert_eq!(
        report.countdown_timer_count,
        countdown.countdown_timers(0.5).len()
    );
    prop_assert_eq!(report.countdown_validation, countdown.validation_counts());
    // The origin classifier surfaces through Table 3's class column.
    let standalone_rows = provenance.rows(
        1.0,
        4,
        |o| strings.resolve(o).to_owned(),
        |o| {
            origin_classifier
                .class_of(ClusterKey(o as u64, 0))
                .unwrap_or(PatternClass::Other)
        },
    );
    prop_assert_eq!(
        serde_json::to_string(&report.provenance).unwrap(),
        serde_json::to_string(&standalone_rows).unwrap()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The slot-indexed fold equals the map-keyed components at every
    /// nested drop level, under fault-plane drops, in both cluster modes.
    #[test]
    fn slot_fold_matches_map_keyed_components(
        raws in proptest::collection::vec(arb_event(), 0..400),
        fault_seed in any::<u64>(),
    ) {
        for keep in [255u8, 96, 0] {
            let events = surviving(&raws, keep);
            let lossy = fault_dropped(&events, fault_seed);
            for mode in [ClusterMode::ByAddress, ClusterMode::ByOriginPid] {
                assert_matches_standalone(&events, &config(mode))?;
                assert_matches_standalone(&lossy, &config(mode))?;
            }
        }
    }
}

/// A record whose origin id is far past anything the string table
/// interned (one corrupt field in a relayfs log) must neither size a
/// dense table nor abort: the analyzer finishes and the origin resolves
/// to the unknown label.
#[test]
fn corrupt_origin_id_is_folded_not_allocated() {
    let origin = 0x7fff_fff0;
    let set = Event::new(SimInstant::BOOT, EventKind::Set, 0x100, origin)
        .with_timeout(SimDuration::from_millis(5))
        .with_task(7, 7, Space::Kernel);
    let mut wire = Vec::new();
    trace::codec::encode(&set, &mut wire);
    let decoded = trace::codec::decode(&mut wire.as_slice()).expect("kind byte is valid");
    assert_eq!(decoded.origin, origin);

    let mut analyzer = TraceAnalyzer::new(AnalyzerConfig::linux());
    analyzer.push(&decoded);
    analyzer.push(&Event::new(
        SimInstant::BOOT + SimDuration::from_millis(5),
        EventKind::Expire,
        0x100,
        origin,
    ));
    let report = analyzer.finish(&StringTable::new());
    assert_eq!(report.summary.set, 1);
    let labels: Vec<&str> = report
        .attribution
        .rows
        .iter()
        .map(|r| r.label.as_str())
        .collect();
    assert_eq!(labels, ["?"]);
    assert_eq!(report.provenance.len(), 1);
    assert_eq!(report.provenance[0].origins[0].0, "?");
}

/// A record whose timestamp is corrupt (`u64::MAX` ns, ~584 years) must
/// neither size the per-second rate series nor abort: the analyzer
/// finishes, counts the set, and the series keeps only the valid second.
#[test]
fn corrupt_timestamp_is_counted_not_allocated() {
    let corrupt = Event::new(SimInstant::from_nanos(u64::MAX), EventKind::Set, 0x100, 1)
        .with_timeout(SimDuration::from_millis(5))
        .with_task(0, 0, Space::Kernel);
    let mut wire = Vec::new();
    trace::codec::encode(&corrupt, &mut wire);
    let decoded = trace::codec::decode(&mut wire.as_slice()).expect("kind byte is valid");
    assert_eq!(decoded.ts.as_nanos(), u64::MAX);

    let mut analyzer = TraceAnalyzer::new(AnalyzerConfig::linux());
    analyzer.push(
        &Event::new(
            SimInstant::BOOT + SimDuration::from_secs(2),
            EventKind::Set,
            0x200,
            1,
        )
        .with_timeout(SimDuration::from_millis(5))
        .with_task(0, 0, Space::Kernel),
    );
    analyzer.push(&decoded);
    let report = analyzer.finish(&StringTable::new());
    assert_eq!(report.summary.set, 2);
    assert_eq!(report.rate_series["Kernel"], [0, 0, 1]);
}
