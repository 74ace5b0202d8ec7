//! Dense state tables behind the composed analyzer's fused fold.
//!
//! Every record names a timer, and most components keep per-timer state.
//! `TimerSlots` resolves the timer address to a dense `u32` slot with
//! one hash probe per record; the per-timer state then lives in a plain
//! vector indexed by that slot. Slots are assigned in first-seen order
//! and never freed, so the slot count *is* the distinct-timer population
//! (Tables 1/2's "timers" row).
//!
//! `ByOrigin` is the per-origin counterpart. Origin ids are dense
//! string-table indices, so the common case is a vector index — but the
//! ids come off the wire unvalidated, and one corrupt record must not
//! size a table: ids at or above [`DENSE_ORIGINS`] fall back to a map.

use trace::{OriginId, TimerAddr};

use crate::countdown::TimerChain;
use crate::lifecycle::Open;
use simtime::fasthash::FoldMap;

/// Origin ids below this bound index `ByOrigin`'s vector; larger ids
/// (never produced by a real string table, which interns tens of labels)
/// go to its overflow map.
pub const DENSE_ORIGINS: OriginId = 1 << 12;

/// One timer's fold state: its open lifecycle episode and its countdown
/// chain.
#[derive(Debug, Default)]
pub(crate) struct TimerSlot {
    pub(crate) open: Option<Open>,
    pub(crate) chain: TimerChain,
}

/// Timer address → dense slot, plus the slot-indexed state.
#[derive(Debug, Default)]
pub(crate) struct TimerSlots {
    index: FoldMap<TimerAddr, u32>,
    slots: Vec<TimerSlot>,
}

impl TimerSlots {
    /// The slot of `addr`, allocating a fresh one on first sight.
    #[inline]
    pub(crate) fn slot(&mut self, addr: TimerAddr) -> u32 {
        let next = u32::try_from(self.slots.len()).expect("fewer than 2^32 distinct timers");
        let slot = *self.index.entry(addr).or_insert(next);
        if slot == next {
            self.slots.push(TimerSlot::default());
        }
        slot
    }

    /// The state of an allocated slot.
    #[inline]
    pub(crate) fn get_mut(&mut self, slot: u32) -> &mut TimerSlot {
        &mut self.slots[slot as usize]
    }

    /// Distinct timers seen.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Every slot's state, in slot order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &TimerSlot> {
        self.slots.iter()
    }
}

/// A table keyed by origin id: a vector below [`DENSE_ORIGINS`], a map
/// above it.
#[derive(Debug, Clone)]
pub(crate) struct ByOrigin<T> {
    dense: Vec<Option<T>>,
    sparse: FoldMap<OriginId, T>,
}

impl<T> Default for ByOrigin<T> {
    fn default() -> Self {
        ByOrigin {
            dense: Vec::new(),
            sparse: FoldMap::default(),
        }
    }
}

impl<T: Default> ByOrigin<T> {
    /// The entry for `origin`, created empty on first use.
    #[inline]
    pub(crate) fn entry(&mut self, origin: OriginId) -> &mut T {
        if origin >= DENSE_ORIGINS {
            return self.sparse.entry(origin).or_default();
        }
        let idx = origin as usize;
        if idx >= self.dense.len() {
            self.dense.resize_with(idx + 1, || None);
        }
        self.dense[idx].get_or_insert_with(T::default)
    }
}

impl<T> ByOrigin<T> {
    /// The entry for `origin`, if one was ever created.
    pub(crate) fn get(&self, origin: OriginId) -> Option<&T> {
        if origin >= DENSE_ORIGINS {
            return self.sparse.get(&origin);
        }
        self.dense.get(origin as usize).and_then(Option::as_ref)
    }

    /// Every created entry (dense ones in id order, then the overflow
    /// map's in arbitrary order — callers sort before output).
    pub(crate) fn iter(&self) -> impl Iterator<Item = (OriginId, &T)> {
        self.dense
            .iter()
            .enumerate()
            .filter_map(|(origin, entry)| entry.as_ref().map(|e| (origin as OriginId, e)))
            .chain(self.sparse.iter().map(|(&origin, e)| (origin, e)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_dense_and_first_seen() {
        let mut t = TimerSlots::default();
        assert_eq!(t.slot(0xdead), 0);
        assert_eq!(t.slot(0xbeef), 1);
        assert_eq!(t.slot(0xdead), 0);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn huge_origin_ids_stay_out_of_the_vector() {
        let mut t: ByOrigin<u64> = ByOrigin::default();
        *t.entry(3) += 1;
        *t.entry(0x7fff_fff0) += 5;
        assert_eq!(t.dense.len(), 4);
        assert_eq!(t.get(0x7fff_fff0), Some(&5));
        assert_eq!(t.get(2), None);
        let all: Vec<_> = t.iter().collect();
        assert_eq!(all, vec![(3, &1), (0x7fff_fff0, &5)]);
    }
}
