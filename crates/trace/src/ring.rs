//! A non-overwriting record buffer with relayfs drop semantics.
//!
//! The authors sized their 512 MiB relayfs buffer so every trace fit; the
//! infrastructure guarantees ordering and that "new events cannot overwrite
//! old logs". We mirror that contract: when the buffer is full, *new*
//! records are dropped and counted, and previously written data is never
//! clobbered. Analysis code checks the drop counter to know whether a
//! trace is complete.
//!
//! # Storage
//!
//! The stored bytes live in fixed-size blocks of [`BLOCK_RECORDS`] records
//! (768 KiB). Every full block is *sealed*: frozen behind an [`Arc`] and
//! never written again. Only the last, partly filled *tail* block is owned
//! and written. A block holds a whole number of records and the blocks
//! start at multiples of the block size, so a record never straddles two
//! blocks and [`RingBuffer::record`] always borrows one contiguous slice.
//!
//! - **Growth** allocates one block at a time, never a doubling copy of
//!   everything stored.
//! - **Appending** writes into the owned tail and performs no atomic
//!   operation; sealing a full tail moves it behind an `Arc` without
//!   copying it.
//! - **A clone** is the snapshot the offline readers take. It shares every
//!   sealed block (one reference-count increment each) and copies only
//!   the tail, so it costs at most one block of copying however much is
//!   stored.
//! - **The corruption injectors** ([`RingBuffer::overwrite`],
//!   [`RingBuffer::truncate_bytes`]) copy on write: a sealed block they
//!   change is copied first if a clone shares it, so damage injected into
//!   one ring never shows in another.

use std::sync::Arc;

use crate::codec::RECORD_SIZE;
use telemetry::{sim, Counter, SimCounter, SimGauge};

/// Records per storage block: 2¹⁴ records, 768 KiB.
pub const BLOCK_RECORDS: usize = 1 << 14;

/// Bytes per storage block, a whole number of records.
const BLOCK_BYTES: usize = BLOCK_RECORDS * RECORD_SIZE;

/// A bounded append-only record buffer.
#[derive(Debug)]
pub struct RingBuffer {
    /// Full blocks, each exactly [`BLOCK_BYTES`] long, shared with clones.
    sealed: Vec<Arc<Box<[u8]>>>,
    /// The block being written: always shorter than [`BLOCK_BYTES`].
    tail: Vec<u8>,
    capacity: usize,
    /// Telemetry-backed drop counter: the instance getter stays a thin
    /// read while the registry aggregates every ring under
    /// `trace_ring_dropped_total`.
    dropped: Counter,
}

impl Clone for RingBuffer {
    fn clone(&self) -> Self {
        // Preserve value-snapshot clone semantics: the copy's `dropped()`
        // shows the same number, without double-counting in the registry.
        RingBuffer {
            sealed: self.sealed.clone(),
            tail: self.tail.clone(),
            capacity: self.capacity,
            dropped: self.dropped.detached_copy(),
        }
    }
}

impl RingBuffer {
    /// Creates a buffer holding up to `capacity_bytes` (rounded down to a
    /// whole number of records). Storage is allocated as records arrive.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_bytes` holds less than one record.
    pub fn new(capacity_bytes: usize) -> Self {
        let capacity = (capacity_bytes / RECORD_SIZE) * RECORD_SIZE;
        assert!(
            capacity >= RECORD_SIZE,
            "capacity {capacity_bytes} below one record ({RECORD_SIZE})"
        );
        RingBuffer {
            sealed: Vec::new(),
            tail: Vec::new(),
            capacity,
            dropped: Counter::with_sim("trace_ring_dropped_total", SimCounter::TraceRingDrops),
        }
    }

    /// Creates the 512 MiB buffer used in the paper's Linux setup.
    pub fn relayfs_default() -> Self {
        RingBuffer::new(512 * 1024 * 1024)
    }

    /// Appends one encoded record. Returns `false` (and counts a drop) if
    /// the buffer is full.
    ///
    /// # Panics
    ///
    /// Panics if `record` is not exactly [`RECORD_SIZE`] bytes.
    pub fn push_record(&mut self, record: &[u8]) -> bool {
        assert_eq!(record.len(), RECORD_SIZE, "record must be fixed size");
        let len = self.len_bytes() + RECORD_SIZE;
        if len > self.capacity {
            self.dropped.inc();
            return false;
        }
        if self.tail.capacity() == 0 {
            self.tail = self.new_tail();
        }
        if self.tail.len() + RECORD_SIZE < BLOCK_BYTES {
            self.tail.extend_from_slice(record);
        } else {
            self.append_across(record);
        }
        sim::add(SimCounter::TraceRingBytes, RECORD_SIZE as u64);
        sim::gauge_max(SimGauge::RingBytesHigh, len as u64);
        true
    }

    /// An empty tail with room for one block, or for what is left of the
    /// capacity when that is less.
    fn new_tail(&self) -> Vec<u8> {
        Vec::with_capacity(BLOCK_BYTES.min(self.capacity - self.sealed.len() * BLOCK_BYTES))
    }

    /// Appends `bytes` when they fill the tail block: seals the block and
    /// starts the next one with whatever is left. Only a ring left with a
    /// partial record by [`RingBuffer::truncate_bytes`] and then written
    /// to has anything left over.
    #[cold]
    fn append_across(&mut self, bytes: &[u8]) {
        let (now, rest) = bytes.split_at(BLOCK_BYTES - self.tail.len());
        self.tail.extend_from_slice(now);
        let full = std::mem::take(&mut self.tail);
        self.sealed.push(Arc::new(full.into_boxed_slice()));
        if !rest.is_empty() {
            self.tail = self.new_tail();
            self.tail.extend_from_slice(rest);
        }
    }

    /// Number of complete records stored.
    pub fn record_count(&self) -> usize {
        self.len_bytes() / RECORD_SIZE
    }

    /// Number of records dropped because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }

    /// Bytes currently stored.
    pub fn len_bytes(&self) -> usize {
        self.sealed.len() * BLOCK_BYTES + self.tail.len()
    }

    /// Maximum bytes storable.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity
    }

    /// Returns `true` if no records are stored.
    pub fn is_empty(&self) -> bool {
        self.len_bytes() == 0
    }

    /// Copies the stored bytes, in write order, into one vector.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len_bytes());
        for block in &self.sealed {
            out.extend_from_slice(block);
        }
        out.extend_from_slice(&self.tail);
        out
    }

    /// Returns record `index` as a byte slice, if present.
    #[inline]
    pub fn record(&self, index: usize) -> Option<&[u8]> {
        let block = index / BLOCK_RECORDS;
        let start = (index % BLOCK_RECORDS) * RECORD_SIZE;
        let bytes: &[u8] = match self.sealed.get(block) {
            Some(sealed) => sealed,
            None if block == self.sealed.len() => &self.tail,
            None => return None,
        };
        bytes.get(start..start + RECORD_SIZE)
    }

    /// `true` when the buffer ends in a partial record (a crashed or
    /// torn writer left fewer than [`RECORD_SIZE`] trailing bytes).
    pub fn has_partial_tail(&self) -> bool {
        self.partial_tail_bytes() != 0
    }

    /// Bytes in the partial trailing record (zero when whole).
    pub fn partial_tail_bytes(&self) -> usize {
        // A block is a whole number of records, so only the tail can end
        // in a partial one.
        self.tail.len() % RECORD_SIZE
    }

    /// Corruption injection: overwrites stored bytes starting at `offset`.
    ///
    /// Models a torn write or a buggy consumer scribbling on the mapped
    /// buffer; readers must detect the damage, not trust it. A sealed
    /// block that a clone shares is copied before it is changed.
    ///
    /// # Panics
    ///
    /// Panics if `offset + bytes.len()` exceeds the stored length.
    pub fn overwrite(&mut self, offset: usize, bytes: &[u8]) {
        let end = offset + bytes.len();
        assert!(end <= self.len_bytes(), "overwrite past stored data");
        let (mut at, mut bytes) = (offset, bytes);
        while !bytes.is_empty() {
            let (block, start) = (at / BLOCK_BYTES, at % BLOCK_BYTES);
            let n = bytes.len().min(BLOCK_BYTES - start);
            let target: &mut [u8] = match self.sealed.get_mut(block) {
                Some(sealed) => &mut Arc::make_mut(sealed)[..],
                None => &mut self.tail,
            };
            target[start..start + n].copy_from_slice(&bytes[..n]);
            at += n;
            bytes = &bytes[n..];
        }
    }

    /// Corruption injection: truncates the stored bytes to `len`,
    /// possibly leaving a partial trailing record. A `len` at or past the
    /// stored length changes nothing.
    ///
    /// Models a reader that snapshots the buffer mid-write (the relayfs
    /// consumer can observe a torn final record). A cut inside a sealed
    /// block copies the kept part of that block into a new tail.
    pub fn truncate_bytes(&mut self, len: usize) {
        let (block, keep) = (len / BLOCK_BYTES, len % BLOCK_BYTES);
        if block < self.sealed.len() {
            let cut = self.sealed.split_off(block);
            self.tail = self.new_tail();
            self.tail.extend_from_slice(&cut[0][..keep]);
        } else if block == self.sealed.len() {
            self.tail.truncate(keep);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_count() {
        let mut ring = RingBuffer::new(RECORD_SIZE * 3);
        let rec = [7u8; RECORD_SIZE];
        assert!(ring.push_record(&rec));
        assert!(ring.push_record(&rec));
        assert!(ring.push_record(&rec));
        assert_eq!(ring.record_count(), 3);
        // Full: drop, never overwrite.
        assert!(!ring.push_record(&rec));
        assert_eq!(ring.record_count(), 3);
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn capacity_rounds_to_records() {
        let ring = RingBuffer::new(RECORD_SIZE * 2 + 10);
        assert_eq!(ring.capacity_bytes(), RECORD_SIZE * 2);
    }

    #[test]
    fn record_indexing() {
        let mut ring = RingBuffer::new(RECORD_SIZE * 2);
        let a = [1u8; RECORD_SIZE];
        let b = [2u8; RECORD_SIZE];
        ring.push_record(&a);
        ring.push_record(&b);
        assert_eq!(ring.record(0).unwrap()[0], 1);
        assert_eq!(ring.record(1).unwrap()[0], 2);
        assert!(ring.record(2).is_none());
    }

    #[test]
    #[should_panic(expected = "below one record")]
    fn too_small_panics() {
        RingBuffer::new(RECORD_SIZE - 1);
    }

    #[test]
    fn clone_preserves_partial_tail() {
        let mut ring = RingBuffer::new(RECORD_SIZE * 2);
        ring.push_record(&[3u8; RECORD_SIZE]);
        ring.truncate_bytes(RECORD_SIZE / 2);
        assert!(ring.has_partial_tail());
        let copy = ring.clone();
        assert_eq!(copy.partial_tail_bytes(), RECORD_SIZE / 2);
        assert_eq!(copy.to_vec(), ring.to_vec());
    }

    #[test]
    fn overwrite_changes_stored_bytes() {
        let mut ring = RingBuffer::new(RECORD_SIZE * 2);
        ring.push_record(&[0u8; RECORD_SIZE]);
        ring.overwrite(8, &[0xFF]);
        assert_eq!(ring.record(0).unwrap()[8], 0xFF);
    }

    /// A record whose first byte is `n` and whose other bytes are `!n`.
    fn rec(n: u8) -> [u8; RECORD_SIZE] {
        let mut r = [!n; RECORD_SIZE];
        r[0] = n;
        r
    }

    /// A ring of `blocks` sealed blocks plus `extra` tail records, where
    /// record `i` is `rec(i as u8)`.
    fn filled(blocks: usize, extra: usize) -> RingBuffer {
        let mut ring = RingBuffer::new(RECORD_SIZE * BLOCK_RECORDS * 4);
        for i in 0..blocks * BLOCK_RECORDS + extra {
            assert!(ring.push_record(&rec(i as u8)));
        }
        ring
    }

    #[test]
    fn record_indexing_across_a_block_boundary() {
        let ring = filled(1, 2);
        assert_eq!(ring.sealed.len(), 1);
        assert_eq!(ring.tail.len(), 2 * RECORD_SIZE);
        for i in [0, BLOCK_RECORDS - 1, BLOCK_RECORDS, BLOCK_RECORDS + 1] {
            assert_eq!(ring.record(i).unwrap(), rec(i as u8), "record {i}");
        }
        assert!(ring.record(BLOCK_RECORDS + 2).is_none());
        assert!(ring.record(usize::MAX).is_none());
        assert_eq!(ring.record_count(), BLOCK_RECORDS + 2);
        assert_eq!(ring.len_bytes(), (BLOCK_RECORDS + 2) * RECORD_SIZE);
    }

    #[test]
    fn a_clone_shares_sealed_blocks_and_copies_only_the_tail() {
        let ring = filled(2, 3);
        let copy = ring.clone();
        for (a, b) in ring.sealed.iter().zip(&copy.sealed) {
            assert!(Arc::ptr_eq(a, b));
        }
        assert_ne!(ring.tail.as_ptr(), copy.tail.as_ptr());
        assert_eq!(copy.to_vec(), ring.to_vec());
    }

    #[test]
    fn clone_and_original_stay_independent() {
        // Each mutation on one side must leave the other side's bytes as
        // they were at the clone, both ways round.
        for mutate_original in [true, false] {
            let mut a = filled(2, 3);
            let mut b = a.clone();
            let before = a.to_vec();
            let (changed, kept) = if mutate_original {
                (&mut a, &b)
            } else {
                (&mut b, &a)
            };
            assert!(changed.push_record(&rec(0xAA)));
            // Inside the first sealed block, which both sides share.
            changed.overwrite(5 * RECORD_SIZE + 3, &[0xEE; 7]);
            // Across the boundary between the two sealed blocks.
            changed.overwrite(BLOCK_RECORDS * RECORD_SIZE - 2, &[0xDD; 4]);
            // Into the tail.
            changed.overwrite((2 * BLOCK_RECORDS + 1) * RECORD_SIZE, &[0xCC]);
            assert_eq!(kept.to_vec(), before);
            changed.truncate_bytes(BLOCK_RECORDS * RECORD_SIZE + 10);
            assert_eq!(kept.to_vec(), before);
            assert_eq!(kept.record_count(), 2 * BLOCK_RECORDS + 3);
            assert_eq!(changed.record(5).unwrap()[3..10], [0xEE; 7]);
        }
    }

    #[test]
    fn truncation_into_a_sealed_block_leaves_a_torn_tail() {
        let mut ring = filled(2, 1);
        let copy = ring.clone();
        let cut = BLOCK_RECORDS * RECORD_SIZE + 7 * RECORD_SIZE + 5;
        ring.truncate_bytes(cut);
        assert_eq!(ring.len_bytes(), cut);
        assert_eq!(ring.sealed.len(), 1);
        assert!(ring.has_partial_tail());
        assert_eq!(ring.partial_tail_bytes(), 5);
        assert_eq!(ring.record_count(), BLOCK_RECORDS + 7);
        assert_eq!(
            ring.record(BLOCK_RECORDS + 6).unwrap(),
            rec((BLOCK_RECORDS + 6) as u8)
        );
        assert!(ring.record(BLOCK_RECORDS + 7).is_none());
        assert_eq!(ring.to_vec(), copy.to_vec()[..cut]);
        // A cut on a block boundary leaves whole blocks and an empty tail.
        ring.truncate_bytes(BLOCK_RECORDS * RECORD_SIZE);
        assert!(!ring.has_partial_tail());
        assert_eq!(ring.record_count(), BLOCK_RECORDS);
        // Cutting past the end changes nothing.
        ring.truncate_bytes(usize::MAX);
        assert_eq!(ring.record_count(), BLOCK_RECORDS);
    }

    #[test]
    fn drops_start_exactly_at_capacity() {
        let cap = BLOCK_RECORDS + 1;
        let mut ring = RingBuffer::new(RECORD_SIZE * cap);
        for i in 0..cap {
            assert!(ring.push_record(&rec(i as u8)), "record {i} fits");
        }
        assert_eq!(ring.len_bytes(), ring.capacity_bytes());
        assert!(!ring.push_record(&rec(0)));
        assert_eq!(ring.dropped(), 1);
        assert_eq!(ring.record_count(), cap);
        assert_eq!(ring.record(cap - 1).unwrap(), rec((cap - 1) as u8));
    }

    #[test]
    #[should_panic(expected = "overwrite past stored data")]
    fn overwrite_past_end_panics() {
        let mut ring = RingBuffer::new(RECORD_SIZE * 2);
        ring.push_record(&[0u8; RECORD_SIZE]);
        ring.overwrite(RECORD_SIZE, &[1]);
    }
}
