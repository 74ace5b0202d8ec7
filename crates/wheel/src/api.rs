//! The common timer-queue interface and shared bookkeeping.

use simtime::fasthash::FoldMap;
use telemetry::{sim, SimCounter, SimGauge};

/// A discrete tick count.
///
/// The Linux simulation uses jiffies (4 ms at HZ = 250); the Vista
/// simulation uses clock-interrupt ticks. The wheel structures only care
/// that time is a monotonically advancing `u64`.
pub type Tick = u64;

/// An opaque timer identifier chosen by the caller.
///
/// Re-scheduling an id that is already pending *moves* the timer
/// (`mod_timer` semantics); cancelling removes it.
pub type TimerId = u64;

/// A multiplexing priority queue of timers over discrete ticks.
///
/// Semantics shared by all implementations:
///
/// * [`schedule`](TimerQueue::schedule) arms `id` for tick `expires`. If
///   `id` is already pending it is atomically re-armed for the new tick
///   (the kernel's `mod_timer`). Scheduling for a tick at or before the
///   current time fires on the next [`advance_to`](TimerQueue::advance_to),
///   never retroactively.
/// * [`cancel`](TimerQueue::cancel) disarms `id`, returning whether it was
///   pending (the kernel's `del_timer` return value).
/// * [`advance_to`](TimerQueue::advance_to) moves the queue's notion of
///   "now" forward, invoking `fire` for every timer whose expiry tick is
///   `<= now`, in (expiry, insertion) order.
///
/// # Firing order
///
/// Every implementation fires a timer at its *effective* tick — the armed
/// expiry, or the tick after the arming instant for already-due timers —
/// and, within one effective tick, in (armed expiry, insertion) order.
/// Because this order is part of the contract, the backends are *exactly*
/// interchangeable: swapping one for another cannot reorder a simulation's
/// trace (`wheel/tests/equivalence.rs` pins this without normalisation).
pub trait TimerQueue: std::fmt::Debug {
    /// Arms (or re-arms) timer `id` to fire at absolute tick `expires`.
    fn schedule(&mut self, id: TimerId, expires: Tick);

    /// Disarms timer `id`. Returns `true` if it was pending.
    fn cancel(&mut self, id: TimerId) -> bool;

    /// Returns `true` if timer `id` is currently pending.
    fn is_pending(&self, id: TimerId) -> bool;

    /// Advances to tick `now`, firing every timer due at or before it.
    ///
    /// `fire` receives the timer id and the tick it was armed for.
    fn advance_to(&mut self, now: Tick, fire: &mut dyn FnMut(TimerId, Tick));

    /// The current tick (the argument of the last `advance_to`, or 0).
    fn now(&self) -> Tick;

    /// The earliest pending expiry tick, if any (the kernel's
    /// `next_timer_interrupt`, used by dynticks to sleep past idle ticks).
    fn next_expiry(&self) -> Option<Tick>;

    /// The number of pending timers.
    fn len(&self) -> usize;

    /// Returns `true` if no timers are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tells the queue which simulated CPU is issuing the following
    /// schedule calls (`None` restores per-timer default placement).
    ///
    /// Single-base structures have no placement decision to make, so the
    /// default is a no-op; the sharded backend uses it to pick the target
    /// base and to migrate timers re-armed from a different CPU. The hint
    /// never affects firing order — only which base holds the entry — so
    /// backends remain exactly interchangeable.
    fn set_context_cpu(&mut self, _cpu: Option<u32>) {}

    /// The base (shard) a pending timer currently lives on.
    ///
    /// Single-base structures report 0 for every pending timer.
    fn base_of(&self, id: TimerId) -> Option<u32> {
        if self.is_pending(id) {
            Some(0)
        } else {
            None
        }
    }

    /// A `/proc/timer_list`-style view of the queue's pending set.
    ///
    /// The snapshot reports *armed* expiry ticks from the shared
    /// [`ActiveSet`] bookkeeping — never structure-internal slot
    /// positions — so at any instant every backend (and every shard
    /// width) reports the identical entry multiset. That equivalence is
    /// part of the backend contract, pinned by `tests/timer_list.rs` at
    /// the experiment level.
    fn snapshot(&self) -> QueueSnapshot;
}

/// One pending timer in a [`QueueSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SnapshotEntry {
    /// Armed (absolute) expiry tick.
    pub expires: Tick,
    /// The caller-chosen timer id.
    pub id: TimerId,
    /// The per-CPU base holding the entry (0 for single-base structures).
    pub base: u32,
}

/// A deterministic view of one timer queue at one instant.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QueueSnapshot {
    /// The queue's current tick.
    pub now: Tick,
    /// Every pending timer, sorted by (armed expiry, id).
    pub entries: Vec<SnapshotEntry>,
    /// Pending count per base (length 1 for single-base structures).
    pub base_pending: Vec<u64>,
    /// Cross-base migrations performed so far (0 for single-base
    /// structures).
    pub migrations: u64,
    /// Current pending-count spread between fullest and emptiest base.
    pub imbalance: u64,
}

impl QueueSnapshot {
    /// The `(expires, id)` multiset — the backend-equivalence key (base
    /// placement is sharding-specific and excluded).
    pub fn pending_multiset(&self) -> Vec<(Tick, TimerId)> {
        self.entries.iter().map(|e| (e.expires, e.id)).collect()
    }
}

/// Shared active-set bookkeeping with generation counters for lazy deletion.
///
/// The wheel and heap structures leave stale entries in their slots when a
/// timer is cancelled or moved; each entry carries the generation it was
/// inserted under and is ignored at fire time unless it matches the current
/// generation in this map.
///
/// The set also carries the *base* dimension: which per-CPU base each
/// pending timer lives on. Single-base structures keep everything on base
/// 0; the sharded backend's wrapper set spreads entries across its shard
/// count and derives the migration counter and imbalance gauge from the
/// per-base pending counts (plain integer bookkeeping — no RNG draws).
#[derive(Debug, Clone)]
pub struct ActiveSet {
    entries: FoldMap<TimerId, ActiveEntry>,
    /// Pending count per base; length is the base count (1 for the
    /// single-base structures).
    base_pending: Vec<u64>,
    /// Whether this set owns the uniform wheel counters. The sharded
    /// wrapper's bookkeeping set is *uncounted*: its inner queues already
    /// bump schedules/cancels/expirations, so counting here would double
    /// every event.
    counted: bool,
}

/// State of one pending timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActiveEntry {
    /// Absolute expiry tick.
    pub expires: Tick,
    /// Generation stamp; bumped on every (re-)schedule and cancel.
    pub generation: u64,
    /// The per-CPU base holding the entry (0 for single-base structures).
    pub base: u32,
}

/// What [`ActiveSet::arm_on_base`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArmOutcome {
    /// The generation the entry was (re-)inserted under.
    pub generation: u64,
    /// The base the previous live entry occupied, when the arm moved the
    /// timer to a different base (a migration).
    pub migrated_from: Option<u32>,
}

impl Default for ActiveSet {
    fn default() -> Self {
        Self::new()
    }
}

impl ActiveSet {
    /// Creates an empty single-base counted set.
    pub fn new() -> Self {
        ActiveSet {
            entries: FoldMap::default(),
            base_pending: vec![0],
            counted: true,
        }
    }

    /// Creates the sharded wrapper's bookkeeping set: `bases` per-CPU
    /// bases, with the uniform wheel counters left to the inner queues.
    pub fn sharded_bookkeeping(bases: usize) -> Self {
        ActiveSet {
            entries: FoldMap::default(),
            base_pending: vec![0; bases.max(1)],
            counted: false,
        }
    }

    /// Registers (or re-registers) `id` on base 0, returning the new
    /// generation.
    ///
    /// Every backend arms through here, so the sim-plane schedule counter
    /// and pending-high-watermark gauge are uniform across backends (and,
    /// being plain counter bumps, consume no RNG draws).
    pub fn arm(&mut self, id: TimerId, expires: Tick, next_gen: &mut u64) -> u64 {
        self.arm_on_base(id, expires, 0, next_gen).generation
    }

    /// Registers (or re-registers) `id` on `base`, reporting whether the
    /// arm migrated a live entry from a different base.
    pub fn arm_on_base(
        &mut self,
        id: TimerId,
        expires: Tick,
        base: u32,
        next_gen: &mut u64,
    ) -> ArmOutcome {
        *next_gen += 1;
        let generation = *next_gen;
        let old = self.entries.insert(
            id,
            ActiveEntry {
                expires,
                generation,
                base,
            },
        );
        if let Some(old) = old {
            self.base_pending[old.base as usize] -= 1;
        }
        self.base_pending[base as usize] += 1;
        let migrated_from = old.map(|o| o.base).filter(|&b| b != base);
        if migrated_from.is_some() {
            sim::add(SimCounter::WheelBaseMigrations, 1);
        }
        if self.counted {
            // A re-arm of a live timer is a detach + enqueue (the kernel's
            // `detach_if_pending` inside `__mod_timer`), so it counts on
            // both sides. This keeps the conservation identity exact:
            // schedules == cancels + expirations + still-pending.
            if old.is_some() {
                sim::add(SimCounter::WheelCancels, 1);
            }
            sim::add(SimCounter::WheelSchedules, 1);
        }
        sim::gauge_max(SimGauge::WheelPendingHigh, self.entries.len() as u64);
        if self.base_pending.len() > 1 {
            sim::gauge_max(SimGauge::WheelBaseImbalanceMax, self.imbalance());
        }
        ArmOutcome {
            generation,
            migrated_from,
        }
    }

    /// Removes `id`; returns `true` if it was pending.
    pub fn disarm(&mut self, id: TimerId) -> bool {
        match self.entries.remove(&id) {
            Some(e) => {
                self.base_pending[e.base as usize] -= 1;
                if self.counted {
                    sim::add(SimCounter::WheelCancels, 1);
                }
                true
            }
            None => false,
        }
    }

    /// Returns `true` if `id` is pending.
    pub fn is_pending(&self, id: TimerId) -> bool {
        self.entries.contains_key(&id)
    }

    /// Checks whether a slot entry `(id, generation)` is still live, and if
    /// so removes and returns its expiry tick (the timer is about to fire).
    pub fn take_if_live(&mut self, id: TimerId, generation: u64) -> Option<Tick> {
        match self.entries.get(&id) {
            Some(e) if e.generation == generation => {
                let expires = e.expires;
                let base = e.base;
                self.entries.remove(&id);
                self.base_pending[base as usize] -= 1;
                if self.counted {
                    sim::add(SimCounter::WheelExpirations, 1);
                }
                Some(expires)
            }
            _ => None,
        }
    }

    /// The base a pending timer lives on.
    pub fn base_of(&self, id: TimerId) -> Option<u32> {
        self.entries.get(&id).map(|e| e.base)
    }

    /// Pending timers on one base.
    pub fn base_len(&self, base: u32) -> u64 {
        self.base_pending.get(base as usize).copied().unwrap_or(0)
    }

    /// The pending-count spread between the fullest and emptiest base.
    pub fn imbalance(&self) -> u64 {
        let max = self.base_pending.iter().copied().max().unwrap_or(0);
        let min = self.base_pending.iter().copied().min().unwrap_or(0);
        max - min
    }

    /// Returns the live entry for `id`, if pending.
    pub fn get(&self, id: TimerId) -> Option<ActiveEntry> {
        self.entries.get(&id).copied()
    }

    /// Number of pending timers.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The minimum expiry tick over all pending timers (O(n) scan).
    ///
    /// The sorted-list and heap structures answer
    /// [`TimerQueue::next_expiry`] with this scan, and the simulation
    /// drivers ask on every step, not only when idle. Those two are
    /// forced-backend oracles, off the default path; the default wheels
    /// answer from [`NodeArena`](crate::arena::NodeArena)'s cached minimum
    /// instead.
    pub fn min_expiry(&self) -> Option<Tick> {
        self.entries.values().map(|e| e.expires).min()
    }

    /// Builds the [`QueueSnapshot`] body shared by every backend: the
    /// sorted pending entries and per-base counts from this set's armed
    /// state (`now`/`migrations` are the caller's).
    pub fn snapshot_at(&self, now: Tick, migrations: u64) -> QueueSnapshot {
        let mut entries: Vec<SnapshotEntry> = self
            .entries
            .iter()
            .map(|(&id, e)| SnapshotEntry {
                expires: e.expires,
                id,
                base: e.base,
            })
            .collect();
        entries.sort_unstable();
        QueueSnapshot {
            now,
            entries,
            base_pending: self.base_pending.clone(),
            migrations,
            imbalance: self.imbalance(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arm_disarm_lifecycle() {
        let mut set = ActiveSet::new();
        let mut gen_counter = 0;
        let g1 = set.arm(1, 100, &mut gen_counter);
        assert!(set.is_pending(1));
        assert_eq!(set.len(), 1);
        // Re-arming bumps the generation and keeps a single entry.
        let g2 = set.arm(1, 200, &mut gen_counter);
        assert_ne!(g1, g2);
        assert_eq!(set.len(), 1);
        // Stale generation is dead.
        assert_eq!(set.take_if_live(1, g1), None);
        assert!(set.is_pending(1));
        // Live generation fires and removes.
        assert_eq!(set.take_if_live(1, g2), Some(200));
        assert!(!set.is_pending(1));
        assert!(!set.disarm(1));
    }

    #[test]
    fn min_expiry_scans() {
        let mut set = ActiveSet::new();
        let mut gen_counter = 0;
        assert_eq!(set.min_expiry(), None);
        set.arm(1, 50, &mut gen_counter);
        set.arm(2, 30, &mut gen_counter);
        set.arm(3, 90, &mut gen_counter);
        assert_eq!(set.min_expiry(), Some(30));
        set.disarm(2);
        assert_eq!(set.min_expiry(), Some(50));
    }
}
