//! Model-based property test of the standard timer base: every timer-queue
//! backend behind `mod_timer`/`del_timer` — each forced flat structure and
//! each sharded configuration — must agree with a trivially correct
//! reference model under arbitrary operation sequences, including both
//! next-expiry queries (plain, and skipping deferrable timers).

use std::collections::BTreeMap;

use linuxsim::timers::{Callback, TimerBase, TimerHandle, UserKind};
use proptest::prelude::*;
use simtime::{Jiffies, SimDuration, SimInstant};
use trace::{EventFlags, Space, TraceLog};
use wheel::Backend;

/// Slots marked deferrable (invisible to the dynticks idle query).
const DEFERRABLE: [usize; 2] = [1, 4];

#[derive(Debug, Clone)]
enum Op {
    Mod { slot: usize, delta_ms: u64 },
    Del { slot: usize },
    Advance { ms: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..6, 1u64..20_000).prop_map(|(slot, delta_ms)| Op::Mod { slot, delta_ms }),
        (0usize..6).prop_map(|slot| Op::Del { slot }),
        (1u64..5_000).prop_map(|ms| Op::Advance { ms }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_backend_agrees_with_reference_model(ops in proptest::collection::vec(op_strategy(), 0..120)) {
        for backend in Backend::FORCED.into_iter().chain(Backend::SHARDED_MATRIX) {
            check_against_model(backend, &ops)?;
        }
    }
}

fn check_against_model(backend: Backend, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut log = TraceLog::collecting();
    let mut base = TimerBase::with_backend(backend);
    base.set_set_jitter_max(SimDuration::ZERO);
    let clock = base.clock();
    let handles: Vec<TimerHandle> = (0..6)
        .map(|i| {
            base.init_timer(
                &mut log,
                SimInstant::BOOT,
                &format!("prop:{i}"),
                Callback::User(UserKind::Poll),
                1,
                1,
                Space::Kernel,
            )
        })
        .collect();
    for &slot in &DEFERRABLE {
        base.set_deferrable(handles[slot]);
    }
    // Reference: handle index → expiry jiffy.
    let mut model: BTreeMap<usize, u64> = BTreeMap::new();
    let mut now = SimInstant::BOOT;
    for op in ops {
        match *op {
            Op::Mod { slot, delta_ms } => {
                let expires = base.mod_timer_in(
                    &mut log,
                    now,
                    handles[slot],
                    SimDuration::from_millis(delta_ms),
                    SimDuration::ZERO,
                    EventFlags::default(),
                );
                model.insert(slot, expires.as_u64());
            }
            Op::Del { slot } => {
                let was = base.del_timer(&mut log, now, handles[slot]);
                prop_assert_eq!(was, model.remove(&slot).is_some(), "{}", backend.label());
            }
            Op::Advance { ms } => {
                now += SimDuration::from_millis(ms);
                let target = clock.jiffies_at(now).as_u64();
                let mut fired: Vec<usize> = base
                    .run_timers(now)
                    .iter()
                    .map(|f| f.handle.0 as usize)
                    .collect();
                fired.sort_unstable();
                let mut expected: Vec<usize> = model
                    .iter()
                    .filter(|&(_, &j)| j <= target)
                    .map(|(&s, _)| s)
                    .collect();
                model.retain(|_, &mut j| j > target);
                expected.sort_unstable();
                prop_assert_eq!(fired, expected, "{}", backend.label());
            }
        }
        // Pending bookkeeping agrees at every step.
        prop_assert_eq!(base.pending_count(), model.len(), "{}", backend.label());
        for (slot, handle) in handles.iter().enumerate() {
            prop_assert_eq!(base.is_pending(*handle), model.contains_key(&slot));
            prop_assert_eq!(
                base.expiry_of(*handle).map(|j| j.as_u64()),
                model.get(&slot).copied()
            );
        }
        let instant = |j: &u64| clock.instant_of(Jiffies(*j));
        let expected_next = model.values().min().map(instant);
        prop_assert_eq!(
            base.next_expiry(false),
            expected_next,
            "{}",
            backend.label()
        );
        let expected_idle = model
            .iter()
            .filter(|(slot, _)| !DEFERRABLE.contains(slot))
            .map(|(_, j)| j)
            .min()
            .map(instant);
        prop_assert_eq!(base.next_expiry(true), expected_idle, "{}", backend.label());
    }
    Ok(())
}
