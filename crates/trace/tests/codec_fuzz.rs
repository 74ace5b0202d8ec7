//! Decoder robustness: arbitrary bytes must decode to `Ok` or a clean
//! error, never panic, and valid records must survive bit-level identity.

use proptest::prelude::*;
use trace::codec::{self, DecodeError, RECORD_SIZE};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..3 * RECORD_SIZE)) {
        let mut slice = &bytes[..];
        match codec::decode(&mut slice) {
            Ok(event) => {
                // A structurally valid record re-encodes byte-for-byte.
                prop_assert_eq!(&codec::encode_record(&event)[..], &bytes[..RECORD_SIZE]);
            }
            Err(DecodeError::Truncated { available }) => {
                prop_assert!(available < RECORD_SIZE);
            }
            Err(DecodeError::BadKind(k)) => {
                prop_assert!(k > 5);
            }
            Err(DecodeError::BadFlags(b)) => {
                prop_assert!(bytes[8] <= 5 && b == bytes[9] && b >> 5 != 0);
            }
            Err(DecodeError::BadPadding(p)) => {
                prop_assert!(bytes[8] <= 5 && bytes[9] >> 5 == 0);
                prop_assert!(p != 0 && p == u16::from_le_bytes([bytes[10], bytes[11]]));
            }
        }
    }

    /// Strict decoding: for any 48 bytes, either both decoders reject
    /// them with the same error, or both accept them and the record
    /// re-encodes to exactly those bytes. Each byte comes from a
    /// strategy that mostly stays valid, so every check and every order
    /// of failure is reached, not just the kind check.
    #[test]
    fn every_accepted_record_round_trips_exactly(
        base in any::<[u8; RECORD_SIZE]>(),
        kind in prop_oneof![0u8..6, any::<u8>()],
        space_flags in prop_oneof![0u8..0x20, any::<u8>()],
        pad in prop_oneof![Just(0u16), any::<u16>()],
    ) {
        let mut rec = base;
        rec[8] = kind;
        rec[9] = space_flags;
        rec[10..12].copy_from_slice(&pad.to_le_bytes());
        let mut slice = &rec[..];
        let owned = codec::decode(&mut slice);
        let viewed = codec::decode_view(&rec).map(|v| v.to_event());
        prop_assert_eq!(&owned, &viewed);
        match owned {
            Ok(event) => prop_assert_eq!(codec::encode_record(&event), rec),
            Err(err) => {
                let expected = if kind > 5 {
                    DecodeError::BadKind(kind)
                } else if space_flags >= 0x20 {
                    DecodeError::BadFlags(space_flags)
                } else {
                    DecodeError::BadPadding(pad)
                };
                prop_assert_eq!(err, expected);
            }
        }
    }

    /// Zero-copy differential: `decode_view` must agree with the owned
    /// `decode` on arbitrary bytes — same accept/reject decision, same
    /// typed error, and on success every borrowed accessor plus the
    /// materialised `to_event` must match the owned decode field-for-field.
    #[test]
    fn decode_view_agrees_with_decode(bytes in proptest::collection::vec(any::<u8>(), 0..3 * RECORD_SIZE)) {
        let mut slice = &bytes[..];
        let owned = codec::decode(&mut slice);
        let viewed = codec::decode_view(&bytes);
        match (owned, viewed) {
            (Ok(event), Ok(view)) => {
                prop_assert_eq!(view.to_event(), event.clone());
                prop_assert_eq!(view.ts(), event.ts);
                prop_assert_eq!(view.kind(), event.kind);
                prop_assert_eq!(view.space(), event.space);
                prop_assert_eq!(view.flags(), event.flags);
                prop_assert_eq!(view.pid(), event.pid);
                prop_assert_eq!(view.tid(), event.tid);
                prop_assert_eq!(view.origin(), event.origin);
                prop_assert_eq!(view.timer(), event.timer);
                prop_assert_eq!(view.timeout(), event.timeout);
                prop_assert_eq!(view.expires(), event.expires);
                // Raw columnar accessors preserve the wire sentinel.
                prop_assert_eq!(
                    view.timeout(),
                    match view.timeout_ns_raw() {
                        u64::MAX => None,
                        ns => Some(simtime::SimDuration::from_nanos(ns)),
                    }
                );
                prop_assert_eq!(
                    view.expires(),
                    match view.expires_ns_raw() {
                        u64::MAX => None,
                        ns => Some(simtime::SimInstant::from_nanos(ns)),
                    }
                );
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "decode {:?} disagrees with decode_view {:?}", a, b.map(|v| v.to_event())),
        }
    }

    #[test]
    fn truncation_is_detected_exactly(len in 0usize..RECORD_SIZE) {
        let bytes = vec![0u8; len];
        let mut slice = &bytes[..];
        prop_assert_eq!(
            codec::decode(&mut slice),
            Err(DecodeError::Truncated { available: len })
        );
    }
}

#[test]
fn ring_overflow_drops_newest_never_corrupts() {
    use simtime::SimInstant;
    use trace::{Event, EventKind, RingBuffer, RingSink, TraceSink};

    // A ring sized for 10 records receives 25: the first 10 survive
    // intact, 15 are counted as dropped (relayfs drop semantics).
    let mut sink = RingSink::new(RingBuffer::new(10 * RECORD_SIZE));
    for i in 0..25u64 {
        sink.record(&Event::new(SimInstant::from_nanos(i), EventKind::Set, i, 0));
    }
    let ring = sink.into_ring();
    assert_eq!(ring.record_count(), 10);
    assert_eq!(ring.dropped(), 15);
    let events = trace::reader::decode_all(&ring).unwrap();
    let ids: Vec<u64> = events.iter().map(|e| e.timer).collect();
    assert_eq!(ids, (0..10).collect::<Vec<_>>());
}

proptest! {
    /// The overflow/wrap path under arbitrary load: however many records
    /// hit a ring of whatever capacity, the stored prefix decodes intact,
    /// accounting is exact, and overflow never manufactures a torn tail.
    #[test]
    fn overflow_accounting_is_exact_for_any_load(
        capacity_records in 1usize..12,
        pushed in 0u64..40,
    ) {
        use simtime::SimInstant;
        use trace::{Event, EventKind, RingBuffer, RingSink, TraceSink};

        let mut sink = RingSink::new(RingBuffer::new(capacity_records * RECORD_SIZE));
        for i in 0..pushed {
            sink.record(&Event::new(SimInstant::from_nanos(i), EventKind::Set, i, 0));
        }
        let ring = sink.into_ring();
        let kept = (pushed as usize).min(capacity_records);
        prop_assert_eq!(ring.record_count(), kept);
        prop_assert_eq!(ring.dropped(), pushed - kept as u64);
        prop_assert!(!ring.has_partial_tail(), "overflow must not tear records");
        let events = trace::reader::decode_all(&ring).unwrap();
        let ids: Vec<u64> = events.iter().map(|e| e.timer).collect();
        prop_assert_eq!(ids, (0..kept as u64).collect::<Vec<_>>());
    }

    /// Seeded corruption of a full (overflowed) ring: truncating to a
    /// non-record boundary or scribbling on the kind byte yields a typed
    /// decode error, never a panic or silently wrong events.
    #[test]
    fn corrupted_overflowed_ring_fails_typed(
        cut in 1usize..RECORD_SIZE,
        victim in 0usize..8,
        bad_kind in 6u8..=255,
    ) {
        use simtime::SimInstant;
        use trace::{Event, EventKind, RingBuffer, RingSink, TraceSink};

        let mut sink = RingSink::new(RingBuffer::new(8 * RECORD_SIZE));
        for i in 0..20u64 {
            sink.record(&Event::new(SimInstant::from_nanos(i), EventKind::Set, i, 0));
        }

        // Torn tail: the last stored record loses `cut` bytes.
        let mut torn = sink.ring().clone();
        torn.truncate_bytes(torn.len_bytes() - cut);
        prop_assert!(torn.has_partial_tail());
        prop_assert_eq!(
            trace::reader::decode_all(&torn),
            Err(DecodeError::Truncated { available: RECORD_SIZE - cut })
        );

        // Scribbled kind byte (offset 8 of the 48-byte layout) inside an
        // arbitrary surviving record.
        let mut scribbled = sink.ring().clone();
        scribbled.overwrite(victim * RECORD_SIZE + 8, &[bad_kind]);
        prop_assert_eq!(
            trace::reader::decode_all(&scribbled),
            Err(DecodeError::BadKind(bad_kind))
        );
    }
}
