//! Property test: the calendar pops events in exact (time, posting-order)
//! sequence under arbitrary post/pop interleavings.

use des::Calendar;
use proptest::prelude::*;
use simtime::{SimDuration, SimInstant};

#[derive(Debug, Clone)]
enum Op {
    Post { delta_ms: u64 },
    Pop,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Small deltas make same-instant ties common, exercising the
        // posting-order tie-break.
        (0u64..4).prop_map(|delta_ms| Op::Post { delta_ms }),
        (0u64..10_000).prop_map(|delta_ms| Op::Post { delta_ms }),
        Just(Op::Pop),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn pops_follow_time_then_posting_order(ops in proptest::collection::vec(op_strategy(), 0..200)) {
        let mut cal: Calendar<u64> = Calendar::new();
        // Reference model: pending (at_ns, seq) pairs.
        let mut model: Vec<(u64, u64)> = Vec::new();
        let mut seq = 0u64;
        let mut popped_up_to = 0u64;
        for op in &ops {
            match *op {
                Op::Post { delta_ms } => {
                    let at = SimInstant::from_nanos(
                        popped_up_to + SimDuration::from_millis(delta_ms).as_nanos(),
                    );
                    cal.post(at, seq);
                    model.push((at.as_nanos(), seq));
                    seq += 1;
                }
                Op::Pop => {
                    let expected = model.iter().copied().min();
                    match cal.pop() {
                        Some((at, payload)) => {
                            let (eat, es) = expected.expect("model has an event");
                            prop_assert_eq!(at.as_nanos(), eat);
                            prop_assert_eq!(payload, es);
                            prop_assert_eq!(cal.now(), at);
                            popped_up_to = eat;
                            model.retain(|&(_, s)| s != es);
                        }
                        None => prop_assert!(expected.is_none()),
                    }
                }
            }
            prop_assert_eq!(cal.len(), model.len());
            prop_assert_eq!(
                cal.peek_time().map(|t| t.as_nanos()),
                model.iter().map(|&(at, _)| at).min()
            );
        }
    }
}
