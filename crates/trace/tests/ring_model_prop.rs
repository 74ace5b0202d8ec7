//! The block-backed ring against a flat byte-vector model.
//!
//! Random sequences of pushes, clones, overwrites and truncations run on
//! a set of rings (every clone joins the set) and on one `Vec<u8>` model
//! per ring. After every step each ring must hold exactly its model's
//! bytes and answer `record`, `len_bytes`, `record_count` and the
//! partial-tail queries as the flat buffer would: so damage injected into
//! a ring never shows in its clones, nor theirs in it, and no record is
//! misplaced at a block boundary.

use proptest::prelude::*;
use trace::codec::RECORD_SIZE;
use trace::ring::BLOCK_RECORDS;
use trace::RingBuffer;

/// Room for two sealed blocks and part of a third.
const CAPACITY_RECORDS: usize = 2 * BLOCK_RECORDS + 100;

#[derive(Debug, Clone)]
enum Op {
    /// Push this many records into ring `target`.
    Push { target: usize, count: usize },
    /// Clone ring `target` into a new ring.
    Clone { target: usize },
    /// Overwrite `len` bytes at `at` (scaled into the stored length).
    Overwrite {
        target: usize,
        at: usize,
        len: usize,
    },
    /// Truncate to `at` bytes: scaled into the stored length, or near a
    /// block boundary, or past the end.
    Truncate {
        target: usize,
        at: usize,
        near_boundary: bool,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (
            any::<usize>(),
            prop_oneof![1usize..50, 1usize..BLOCK_RECORDS + 50]
        )
            .prop_map(|(target, count)| Op::Push { target, count }),
        any::<usize>().prop_map(|target| Op::Clone { target }),
        (any::<usize>(), any::<usize>(), 1usize..3 * RECORD_SIZE)
            .prop_map(|(target, at, len)| Op::Overwrite { target, at, len }),
        (any::<usize>(), any::<usize>(), any::<bool>()).prop_map(|(target, at, near_boundary)| {
            Op::Truncate {
                target,
                at,
                near_boundary,
            }
        }),
    ]
}

/// One ring and the flat model it must match.
struct Pair {
    ring: RingBuffer,
    bytes: Vec<u8>,
    dropped: u64,
}

/// The `n`th record pushed in a case: distinct bytes throughout, so a
/// misplaced or shared byte shows.
fn record(n: u64) -> [u8; RECORD_SIZE] {
    let mut rec = [0u8; RECORD_SIZE];
    for (i, chunk) in rec.chunks_mut(8).enumerate() {
        chunk.copy_from_slice(&(n * 8 + i as u64).to_le_bytes());
    }
    rec
}

fn check(pair: &Pair) -> Result<(), TestCaseError> {
    let (ring, bytes) = (&pair.ring, &pair.bytes);
    prop_assert_eq!(ring.len_bytes(), bytes.len());
    prop_assert_eq!(ring.is_empty(), bytes.is_empty());
    prop_assert_eq!(ring.record_count(), bytes.len() / RECORD_SIZE);
    prop_assert_eq!(ring.partial_tail_bytes(), bytes.len() % RECORD_SIZE);
    prop_assert_eq!(ring.has_partial_tail(), bytes.len() % RECORD_SIZE != 0);
    prop_assert_eq!(ring.dropped(), pair.dropped);
    prop_assert!(
        ring.to_vec() == *bytes,
        "stored bytes differ from the model"
    );
    let count = ring.record_count();
    for i in [
        0,
        BLOCK_RECORDS - 1,
        BLOCK_RECORDS,
        2 * BLOCK_RECORDS,
        count.saturating_sub(1),
        count,
    ] {
        let start = i * RECORD_SIZE;
        prop_assert_eq!(
            ring.record(i),
            bytes.get(start..start + RECORD_SIZE),
            "record {}",
            i
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ring_matches_a_flat_model(
        prefill in 0usize..CAPACITY_RECORDS + 10,
        ops in proptest::collection::vec(arb_op(), 1..14),
    ) {
        let mut pairs = vec![Pair {
            ring: RingBuffer::new(CAPACITY_RECORDS * RECORD_SIZE),
            bytes: Vec::new(),
            dropped: 0,
        }];
        let capacity = CAPACITY_RECORDS * RECORD_SIZE;
        let mut pushed = 0u64;
        let prefill = Op::Push { target: 0, count: prefill };
        for op in std::iter::once(prefill).chain(ops) {
            let n = pairs.len();
            match op {
                Op::Push { target, count } => {
                    let pair = &mut pairs[target % n];
                    for _ in 0..count {
                        let rec = record(pushed);
                        pushed += 1;
                        let fits = pair.bytes.len() + RECORD_SIZE <= capacity;
                        prop_assert_eq!(pair.ring.push_record(&rec), fits);
                        if fits {
                            pair.bytes.extend_from_slice(&rec);
                        } else {
                            pair.dropped += 1;
                        }
                    }
                }
                Op::Clone { target } => {
                    let pair = &pairs[target % n];
                    let copy = Pair {
                        ring: pair.ring.clone(),
                        bytes: pair.bytes.clone(),
                        dropped: pair.dropped,
                    };
                    pairs.push(copy);
                }
                Op::Overwrite { target, at, len } => {
                    let pair = &mut pairs[target % n];
                    if pair.bytes.is_empty() {
                        continue;
                    }
                    let at = at % pair.bytes.len();
                    let len = len.min(pair.bytes.len() - at);
                    let scribble: Vec<u8> = (0..len).map(|i| 0xA5 ^ i as u8).collect();
                    pair.ring.overwrite(at, &scribble);
                    pair.bytes[at..at + len].copy_from_slice(&scribble);
                }
                Op::Truncate { target, at, near_boundary } => {
                    let pair = &mut pairs[target % n];
                    let block = BLOCK_RECORDS * RECORD_SIZE;
                    let len = if near_boundary {
                        // Within one record either side of a block boundary.
                        (1 + at % 2) * block + (at / 2) % (2 * RECORD_SIZE) - RECORD_SIZE
                    } else {
                        at % (pair.bytes.len() + 2 * RECORD_SIZE)
                    };
                    pair.ring.truncate_bytes(len);
                    pair.bytes.truncate(len);
                }
            }
            for pair in &pairs {
                check(pair)?;
            }
        }
    }
}
