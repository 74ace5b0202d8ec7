//! The streaming merge against a stable-sort model, over 1–4 rings with
//! many equal timestamps and random damage.
//!
//! Each ring holds events in timestamp order. Some records get a bad
//! kind, bad flag bits or nonzero padding, and a ring may end in a torn
//! partial record. Every way of reading the merge — the owned iterator,
//! `read_chunk` at a random chunk size, `next_view`, `read_chunk_views` —
//! must yield the same events with the same `MergeStats`, and those must
//! equal the model:
//!
//! - lossy: every undamaged record, sorted by (timestamp, cpu, index),
//!   and each ring's losses in ring order, a torn tail last;
//! - strict: the same order, stopping at the first damage the merge
//!   reaches, then that damage as the one error.

use proptest::prelude::*;
use simtime::SimInstant;
use trace::codec::{DecodeError, RECORD_SIZE};
use trace::{Event, EventFlags, EventKind, MergeStats, MergedReader, RingBuffer, Space};

/// What happens to one record.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Damage {
    None,
    Kind(u8),
    Flags(u8),
    Padding(u16),
}

impl Damage {
    fn error(self) -> Option<DecodeError> {
        match self {
            Damage::None => None,
            Damage::Kind(k) => Some(DecodeError::BadKind(k)),
            Damage::Flags(b) => Some(DecodeError::BadFlags(b)),
            Damage::Padding(p) => Some(DecodeError::BadPadding(p)),
        }
    }
}

fn arb_damage() -> impl Strategy<Value = Damage> {
    prop_oneof![
        Just(Damage::None),
        Just(Damage::None),
        Just(Damage::None),
        Just(Damage::None),
        (6u8..=255).prop_map(Damage::Kind),
        (0x20u8..=255).prop_map(Damage::Flags),
        (1u16..=u16::MAX).prop_map(Damage::Padding),
    ]
}

/// One ring's input: (timestamp step, damage) per record, and how many
/// bytes to cut off the last record (0 keeps it whole).
type RingSpec = (Vec<(u64, Damage)>, usize);

fn arb_ring() -> impl Strategy<Value = RingSpec> {
    (
        proptest::collection::vec((0u64..3, arb_damage()), 0..24),
        prop_oneof![Just(0usize), Just(0usize), 1usize..RECORD_SIZE],
    )
}

struct Built {
    rings: Vec<RingBuffer>,
    /// Per ring: the records it holds whole, as (event, damage).
    records: Vec<Vec<(Event, Damage)>>,
    /// Per ring: the bytes of its torn partial record, if any.
    torn: Vec<Option<usize>>,
}

fn build(specs: &[RingSpec]) -> Built {
    let mut built = Built {
        rings: Vec::new(),
        records: Vec::new(),
        torn: Vec::new(),
    };
    for (cpu, (steps, cut)) in specs.iter().enumerate() {
        let mut ring = RingBuffer::new(RECORD_SIZE * steps.len().max(1));
        let mut records = Vec::new();
        let mut ts = 0;
        for (i, &(step, damage)) in steps.iter().enumerate() {
            ts += step;
            let event = Event::new(
                SimInstant::from_nanos(ts),
                EventKind::Set,
                (cpu * 1000 + i) as u64,
                7,
            )
            .with_task(
                cpu as u32,
                i as u32,
                if i % 2 == 0 {
                    Space::User
                } else {
                    Space::Kernel
                },
            )
            .with_flags(EventFlags {
                rounded: i % 3 == 0,
                ..EventFlags::default()
            });
            assert!(ring.push_record(&trace::codec::encode_record(&event)));
            let at = i * RECORD_SIZE;
            match damage {
                Damage::None => {}
                Damage::Kind(k) => ring.overwrite(at + 8, &[k]),
                Damage::Flags(b) => ring.overwrite(at + 9, &[b]),
                Damage::Padding(p) => ring.overwrite(at + 10, &p.to_le_bytes()),
            }
            records.push((event, damage));
        }
        let torn = (*cut > 0 && !records.is_empty()).then(|| {
            ring.truncate_bytes(ring.len_bytes() - cut);
            records.pop();
            RECORD_SIZE - cut
        });
        built.rings.push(ring);
        built.records.push(records);
        built.torn.push(torn);
    }
    built
}

/// Undamaged records of every ring, in stable merge order.
fn sorted(
    records: &[Vec<(Event, Damage)>],
    keep: impl Fn(usize, usize) -> bool,
) -> Vec<(Event, usize, usize)> {
    let mut out: Vec<(Event, usize, usize)> = records
        .iter()
        .enumerate()
        .flat_map(|(cpu, rs)| {
            rs.iter()
                .enumerate()
                .map(move |(i, &(e, d))| (e, d, cpu, i))
        })
        .filter(|&(_, d, cpu, i)| d == Damage::None && keep(cpu, i))
        .map(|(e, _, cpu, i)| (e, cpu, i))
        .collect();
    out.sort_by_key(|&(e, cpu, i)| (e.ts, cpu, i));
    out
}

fn lossy_model(b: &Built) -> (Vec<Event>, Vec<Vec<DecodeError>>) {
    let events = sorted(&b.records, |_, _| true)
        .into_iter()
        .map(|(e, _, _)| e)
        .collect();
    let losses = b
        .records
        .iter()
        .zip(&b.torn)
        .map(|(rs, torn)| {
            let mut errs: Vec<DecodeError> = rs.iter().filter_map(|(_, d)| d.error()).collect();
            errs.extend(torn.map(|available| DecodeError::Truncated { available }));
            errs
        })
        .collect();
    (events, losses)
}

fn strict_model(b: &Built) -> (Vec<Event>, Option<DecodeError>) {
    // Any torn tail fails the read before it starts, lowest CPU first.
    if let Some(available) = b.torn.iter().flatten().next() {
        return (
            Vec::new(),
            Some(DecodeError::Truncated {
                available: *available,
            }),
        );
    }
    // Each ring is read up to its first damaged record.
    let first_bad: Vec<Option<usize>> = b
        .records
        .iter()
        .map(|rs| rs.iter().position(|(_, d)| *d != Damage::None))
        .collect();
    // A ring damaged at its first record fails while the heads are filled.
    if let Some(cpu) = first_bad.iter().position(|f| *f == Some(0)) {
        return (Vec::new(), b.records[cpu][0].1.error());
    }
    let mut out = Vec::new();
    for (e, cpu, i) in sorted(&b.records, |cpu, i| first_bad[cpu].is_none_or(|f| i < f)) {
        out.push(e);
        // Yielding a ring's last good record reveals the damage after it.
        if first_bad[cpu] == Some(i + 1) {
            return (out, b.records[cpu][i + 1].1.error());
        }
    }
    (out, None)
}

/// Reads `reader` through its owned iterator.
fn by_iterator(mut reader: MergedReader) -> (Vec<Event>, Option<DecodeError>, MergeStats) {
    let mut events = Vec::new();
    let mut error = None;
    for item in reader.by_ref() {
        match item {
            Ok(e) => events.push(e),
            Err(err) => {
                assert!(error.is_none(), "a strict reader yields one error");
                error = Some(err);
            }
        }
    }
    (events, error, reader.into_stats())
}

/// Reads `reader` through `next_view`, materialising each view.
fn by_views(mut reader: MergedReader) -> (Vec<Event>, Option<DecodeError>, MergeStats) {
    let mut events = Vec::new();
    let mut error = None;
    while let Some(item) = reader.next_view() {
        match item {
            Ok(view) => events.push(view.to_event()),
            Err(err) => error = Some(err),
        }
    }
    (events, error, reader.into_stats())
}

fn by_chunks(mut reader: MergedReader, chunk: usize) -> (Vec<Event>, MergeStats) {
    let (mut events, mut buf) = (Vec::new(), Vec::new());
    while reader.read_chunk(&mut buf, chunk) > 0 {
        assert!(buf.len() <= chunk);
        events.extend_from_slice(&buf);
    }
    (events, reader.into_stats())
}

fn by_view_chunks(mut reader: MergedReader, chunk: usize) -> (Vec<Event>, MergeStats) {
    let mut events = Vec::new();
    while reader.read_chunk_views(chunk, &mut |v| events.push(v.to_event())) > 0 {}
    (events, reader.into_stats())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn merge_matches_a_stable_sort_model(
        specs in proptest::collection::vec(arb_ring(), 1..5),
        chunk in 1usize..8,
    ) {
        let b = build(&specs);
        let lossy = || MergedReader::new(b.rings.clone());
        let strict = || MergedReader::strict(b.rings.clone());

        // Lossy.
        let (model, losses) = lossy_model(&b);
        let (events, error, stats) = by_iterator(lossy());
        prop_assert_eq!(&events, &model);
        prop_assert_eq!(error, None);
        prop_assert_eq!(stats.decoded, model.len() as u64);
        prop_assert_eq!(stats.lost_records, losses.iter().map(Vec::len).sum::<usize>() as u64);
        for (cpu, expected) in losses.iter().enumerate() {
            let got: Vec<DecodeError> =
                stats.errors.iter().filter(|(c, _)| *c == cpu).map(|(_, e)| e.clone()).collect();
            prop_assert_eq!(&got, expected, "losses of cpu {}", cpu);
        }
        prop_assert_eq!(by_views(lossy()), (model.clone(), None, stats.clone()));
        prop_assert_eq!(by_chunks(lossy(), chunk), (model.clone(), stats.clone()));
        prop_assert_eq!(by_view_chunks(lossy(), chunk), (model, stats));

        // Strict.
        let (model, model_error) = strict_model(&b);
        let (events, error, stats) = by_iterator(strict());
        prop_assert_eq!(&events, &model);
        prop_assert_eq!(&error, &model_error);
        let expected_stats = MergeStats {
            decoded: model.len() as u64,
            ..MergeStats::default()
        };
        prop_assert_eq!(&stats, &expected_stats);
        prop_assert_eq!(by_views(strict()), (model.clone(), model_error, stats.clone()));
        prop_assert_eq!(by_chunks(strict(), chunk), (model.clone(), stats.clone()));
        prop_assert_eq!(by_view_chunks(strict(), chunk), (model, stats));
    }
}
