//! The incremental (chunked) analysis API.
//!
//! Every analyzer in this crate is already a fold over events — but until
//! this module existed the only composition points were ad-hoc `push`
//! methods with per-type signatures. [`EventVisitor`] names the shape, so
//! pipeline code can drive *any* analyzer one bounded chunk at a time
//! without knowing which one it holds, and [`drive_chunks`] is that
//! driver: it buffers at most `chunk` events, hands each full buffer to
//! the visitor, and reports the peak number of events it ever held — the
//! quantity the telemetry plane gauges as the pipeline's memory bound.

use trace::Event;

use crate::analyzer::TraceAnalyzer;
use crate::countdown::CountdownDetector;
use crate::lifecycle::Sample;
use crate::provenance::ProvenanceTracker;
use crate::scatter::ScatterBuilder;
use crate::summary::{RateSeries, TimerPopulation};
use crate::values::ValueHistogram;

/// An incremental consumer of trace events.
///
/// Implementors fold events into internal state; `visit_chunk` exists so
/// drivers can amortise per-call overhead, and defaults to per-event
/// delivery — semantics must never depend on chunk boundaries.
pub trait EventVisitor {
    /// Feeds one event.
    fn visit_event(&mut self, event: &Event);

    /// Feeds a batch. Equivalent to `visit_event` in order over `events`.
    fn visit_chunk(&mut self, events: &[Event]) {
        for event in events {
            self.visit_event(event);
        }
    }
}

/// An incremental consumer of completed lifecycle episodes.
pub trait SampleVisitor {
    /// Feeds one completed episode.
    fn visit_sample(&mut self, sample: &Sample);
}

impl EventVisitor for TraceAnalyzer {
    fn visit_event(&mut self, event: &Event) {
        self.push(event);
    }

    fn visit_chunk(&mut self, events: &[Event]) {
        self.push_chunk(events);
    }
}

impl EventVisitor for TimerPopulation {
    fn visit_event(&mut self, event: &Event) {
        self.push(event);
    }
}

impl EventVisitor for RateSeries {
    fn visit_event(&mut self, event: &Event) {
        self.push(event);
    }
}

impl EventVisitor for ValueHistogram {
    fn visit_event(&mut self, event: &Event) {
        self.push(event);
    }
}

impl EventVisitor for CountdownDetector {
    fn visit_event(&mut self, event: &Event) {
        self.push(event);
    }
}

impl SampleVisitor for ScatterBuilder {
    fn visit_sample(&mut self, sample: &Sample) {
        self.push(sample);
    }
}

impl SampleVisitor for ProvenanceTracker {
    fn visit_sample(&mut self, sample: &Sample) {
        self.push(sample);
    }
}

/// Drives `events` through `visitor` in chunks of at most `chunk` events
/// (a `chunk` of 0 is treated as 1), returning the peak number of events
/// buffered at once — the driver's whole resident footprint.
pub fn drive_chunks<I, V>(events: I, chunk: usize, visitor: &mut V) -> usize
where
    I: IntoIterator<Item = Event>,
    V: EventVisitor + ?Sized,
{
    let chunk = chunk.max(1);
    let mut buf: Vec<Event> = Vec::with_capacity(chunk);
    let mut peak = 0usize;
    for event in events {
        buf.push(event);
        if buf.len() >= chunk {
            peak = peak.max(buf.len());
            visitor.visit_chunk(&buf);
            buf.clear();
        }
    }
    if !buf.is_empty() {
        peak = peak.max(buf.len());
        visitor.visit_chunk(&buf);
    }
    peak
}

#[cfg(test)]
mod tests {
    use super::*;
    use simtime::{SimDuration, SimInstant};
    use trace::{EventKind, StringTable};

    use crate::analyzer::AnalyzerConfig;

    fn events(n: u64) -> Vec<Event> {
        (0..n)
            .map(|i| {
                Event::new(
                    SimInstant::BOOT + SimDuration::from_millis(i * 10),
                    if i % 2 == 0 {
                        EventKind::Set
                    } else {
                        EventKind::Expire
                    },
                    i / 2 % 5,
                    0,
                )
                .with_timeout(SimDuration::from_millis(10))
            })
            .collect()
    }

    #[test]
    fn chunked_delivery_matches_per_event() {
        let stream = events(101);
        let strings = StringTable::new();
        let mut whole = TraceAnalyzer::new(AnalyzerConfig::linux());
        for e in &stream {
            whole.visit_event(e);
        }
        let baseline = serde_json::to_string(&whole.finish(&strings)).unwrap();
        for chunk in [1usize, 7, 64, 4096] {
            let mut chunked = TraceAnalyzer::new(AnalyzerConfig::linux());
            let peak = drive_chunks(stream.iter().copied(), chunk, &mut chunked);
            assert!(peak <= chunk, "peak {peak} exceeds chunk {chunk}");
            let got = serde_json::to_string(&chunked.finish(&strings)).unwrap();
            assert_eq!(baseline, got, "chunk {chunk} diverged");
        }
    }

    #[test]
    fn zero_chunk_is_treated_as_one() {
        let mut pop = TimerPopulation::default();
        let peak = drive_chunks(events(10), 0, &mut pop);
        assert_eq!(peak, 1);
        assert_eq!(pop.count(), 5);
    }
}
