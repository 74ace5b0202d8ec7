//! Sharded per-CPU timer bases with deterministic placement and
//! migration.
//!
//! Both kernels the paper studies run one timer base *per CPU* — Linux's
//! per-CPU jiffy wheels (`tvec_bases`), Vista's per-processor KTIMER
//! tables — and a timer re-armed from a different CPU moves to that CPU's
//! base. [`ShardedQueue`] reproduces that topology on top of any inner
//! [`TimerQueue`] structure: N independent bases, a deterministic
//! placement policy (the arming CPU when the kernel declares one via
//! [`TimerQueue::set_context_cpu`], a per-timer home hash otherwise), and
//! explicit cross-base migration on re-arm.
//!
//! # Exact equivalence
//!
//! The firing-order contract (`wheel::api`, "Firing order") survives
//! sharding: every base advances in lockstep, each base yields its due
//! timers in (effective tick, armed expiry, insertion) order, and the
//! wrapper merges the per-base sequences on the same key using a global
//! insertion sequence. Placement therefore decides *where* an entry
//! waits, never *when or in what order* it fires —
//! `tests/sharding_equivalence.rs` pins sharded(N) against the bare inner
//! structure with no normalisation, and the figure-level matrix holds
//! `sharded:<inner>` to byte-identical artifacts.
//!
//! # Accounting
//!
//! The inner bases own the uniform wheel counters. A migration is one
//! inner cancel plus one inner schedule — exactly the detach/enqueue a
//! flat base pays for the same live re-arm — so every counter matches the
//! unsharded run identically, and the conservation identity
//! `schedules == cancels + expirations + still-pending` stays exact. The
//! wrapper's [`ActiveSet`] bookkeeping is uncounted; it contributes the
//! base dimension — `wheel_base_migrations_total` and the
//! `wheel_base_imbalance_max` gauge — plus the *total* pending
//! high-watermark (a single-base assumption the per-base gauges would
//! otherwise understate). None of this draws randomness.

use simtime::fasthash::FoldMap;

use crate::api::{ActiveSet, Tick, TimerId, TimerQueue};

/// N per-CPU bases behind one [`TimerQueue`] face.
#[derive(Debug)]
pub struct ShardedQueue {
    shards: Vec<Box<dyn TimerQueue>>,
    /// Liveness, generation (global insertion sequence) and base per
    /// pending timer; uncounted (the inner bases bump the counters).
    meta: ActiveSet,
    /// Effective tick per pending timer — the armed expiry, or the tick
    /// after the arming instant for already-due arms. Needed to merge the
    /// per-base fire sequences on the contract key.
    effective: FoldMap<TimerId, Tick>,
    next_gen: u64,
    current: Tick,
    /// The simulated CPU issuing schedule calls, if the kernel said so.
    context_cpu: Option<u32>,
    /// Cross-base migrations performed so far (the local mirror of the
    /// `wheel_base_migrations_total` sim counter, kept here so snapshots
    /// can report it per queue).
    migrations: u64,
}

impl ShardedQueue {
    /// Builds `shards` bases, each from `make_inner` (the factory closure
    /// the [`Backend`](crate::Backend) layer wires to the inner choice).
    pub fn new(shards: usize, make_inner: &mut dyn FnMut() -> Box<dyn TimerQueue>) -> Self {
        let shards = shards.max(1);
        ShardedQueue {
            shards: (0..shards).map(|_| make_inner()).collect(),
            meta: ActiveSet::sharded_bookkeeping(shards),
            effective: FoldMap::default(),
            next_gen: 0,
            current: 0,
            context_cpu: None,
            migrations: 0,
        }
    }

    /// The number of bases.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Pending timers on one base.
    pub fn base_len(&self, base: u32) -> u64 {
        self.meta.base_len(base)
    }

    /// Current pending-count spread between the fullest and emptiest base.
    pub fn imbalance(&self) -> u64 {
        self.meta.imbalance()
    }

    /// Default placement: a splitmix64 home hash of the timer id —
    /// deterministic, stateless, and uniform across bases (the static
    /// affinity a timer keeps until some CPU context re-arms it away).
    fn home(&self, id: TimerId) -> u32 {
        let mut z = id.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z % self.shards.len() as u64) as u32
    }
}

impl TimerQueue for ShardedQueue {
    fn schedule(&mut self, id: TimerId, expires: Tick) {
        let base = match self.context_cpu {
            Some(cpu) => cpu % self.shards.len() as u32,
            None => self.home(id),
        };
        // The effective tick is decided at arm time, exactly as the inner
        // base will decide it: the bases advance in lockstep, so
        // `inner.now() == self.current` always holds.
        let effective = expires.max(self.current + 1);
        let outcome = self.meta.arm_on_base(id, expires, base, &mut self.next_gen);
        if let Some(from) = outcome.migrated_from {
            self.migrations += 1;
            // Migration: dequeue from the old CPU's base. Without this the
            // old base's lazy-deletion entry would be orphaned — each base
            // has its own generation space, so only the wrapper can tell
            // it is stale.
            let was_pending = self.shards[from as usize].cancel(id);
            debug_assert!(was_pending, "migrating timer must be live on its old base");
        }
        self.shards[base as usize].schedule(id, expires);
        self.effective.insert(id, effective);
    }

    fn cancel(&mut self, id: TimerId) -> bool {
        match self.meta.base_of(id) {
            Some(base) => {
                self.meta.disarm(id);
                self.effective.remove(&id);
                let was_pending = self.shards[base as usize].cancel(id);
                debug_assert!(was_pending, "wrapper and base liveness must agree");
                true
            }
            None => false,
        }
    }

    fn is_pending(&self, id: TimerId) -> bool {
        self.meta.is_pending(id)
    }

    fn advance_to(&mut self, now: Tick, fire: &mut dyn FnMut(TimerId, Tick)) {
        let now = now.max(self.current);
        // Advance every base in lockstep, collecting (effective, armed
        // expiry, insertion sequence, id) per fired timer; each base's
        // sequence is already sorted on that key, so one global sort is a
        // merge that reproduces the unsharded order exactly.
        let mut batch: Vec<(Tick, Tick, u64, TimerId)> = Vec::new();
        let ShardedQueue {
            shards,
            meta,
            effective,
            ..
        } = self;
        for shard in shards.iter_mut() {
            shard.advance_to(now, &mut |id, expires| {
                let Some(entry) = meta.get(id) else {
                    debug_assert!(false, "base fired a timer the wrapper does not know");
                    return;
                };
                debug_assert_eq!(entry.expires, expires);
                meta.take_if_live(id, entry.generation);
                let eff = effective.remove(&id).unwrap_or(expires);
                batch.push((eff, expires, entry.generation, id));
            });
        }
        batch.sort_unstable();
        for (_, expires, _, id) in batch {
            fire(id, expires);
        }
        self.current = now;
    }

    fn now(&self) -> Tick {
        self.current
    }

    fn next_expiry(&self) -> Option<Tick> {
        self.shards.iter().filter_map(|s| s.next_expiry()).min()
    }

    fn len(&self) -> usize {
        self.meta.len()
    }

    fn set_context_cpu(&mut self, cpu: Option<u32>) {
        self.context_cpu = cpu;
    }

    fn base_of(&self, id: TimerId) -> Option<u32> {
        self.meta.base_of(id)
    }

    fn snapshot(&self) -> crate::api::QueueSnapshot {
        // The wrapper's meta set carries armed expiries and base
        // placement for every pending timer, so the per-base view falls
        // out of the shared snapshot body.
        self.meta.snapshot_at(self.current, self.migrations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::HeapQueue;

    fn sharded(n: usize) -> ShardedQueue {
        ShardedQueue::new(n, &mut || Box::new(HeapQueue::new()))
    }

    #[test]
    fn spreads_timers_and_fires_in_contract_order() {
        let mut q = sharded(4);
        for id in 0..64u64 {
            q.schedule(id, 10 + (id % 7));
        }
        assert_eq!(q.len(), 64);
        // The home hash must actually use more than one base.
        let used = (0..4).filter(|&b| q.base_len(b) > 0).count();
        assert!(used > 1, "home placement collapsed onto {used} base(s)");
        let mut fired = Vec::new();
        q.advance_to(20, &mut |id, exp| fired.push((exp, id)));
        assert_eq!(fired.len(), 64);
        let mut sorted = fired.clone();
        sorted.sort();
        // Same (expiry, id) multiset and expiry-major order; insertion
        // order within a tick equals id order here because ids were
        // scheduled in increasing order.
        assert_eq!(fired, sorted);
        assert!(q.is_empty());
    }

    #[test]
    fn context_cpu_places_and_rearm_migrates() {
        let mut q = sharded(4);
        q.set_context_cpu(Some(1));
        q.schedule(7, 100);
        assert_eq!(q.base_of(7), Some(1));
        // Re-arm from another CPU: the timer moves base, stays single.
        q.set_context_cpu(Some(3));
        q.schedule(7, 120);
        assert_eq!(q.base_of(7), Some(3));
        assert_eq!(q.len(), 1);
        let mut fired = Vec::new();
        q.advance_to(200, &mut |id, exp| fired.push((id, exp)));
        assert_eq!(fired, vec![(7, 120)]);
    }

    #[test]
    fn cancel_works_across_bases() {
        let mut q = sharded(8);
        for id in 0..32u64 {
            q.schedule(id, 50);
        }
        for id in 0..32u64 {
            assert!(q.cancel(id));
            assert!(!q.cancel(id));
        }
        assert!(q.is_empty());
        let mut n = 0;
        q.advance_to(100, &mut |_, _| n += 1);
        assert_eq!(n, 0);
    }

    #[test]
    fn next_expiry_is_min_across_bases() {
        let mut q = sharded(4);
        q.schedule(1, 90);
        q.schedule(2, 30);
        q.schedule(3, 60);
        assert_eq!(q.next_expiry(), Some(30));
        q.cancel(2);
        assert_eq!(q.next_expiry(), Some(60));
    }
}
