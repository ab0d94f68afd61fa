//! Property tests: the hierarchical timer wheel must order events exactly
//! like the reference `BinaryHeap` scheduler it replaced.

use proptest::prelude::*;
use simnet::{SimTime, TimerWheel};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The reference scheduler: a global min-heap on `(time, seq)` — the
/// pre-timer-wheel implementation of the engine queue.
#[derive(Default)]
struct RefHeap {
    heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
}

impl RefHeap {
    fn push(&mut self, at: u64, seq: u64, item: u32) {
        self.heap.push(Reverse((at, seq, item)));
    }

    fn pop(&mut self) -> Option<(u64, u64, u32)> {
        self.heap.pop().map(|Reverse(t)| t)
    }
}

/// One scripted operation against both schedulers.
#[derive(Clone, Debug)]
enum Op {
    /// Schedule an event `delay` ns after the current virtual time.
    Push { delay: u64 },
    /// Pop the next event (advances virtual time).
    Pop,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Delays spanning every band: zero-delay self-posts, near wheel,
    // coarse wheel, far heap (hours and beyond); one third pops.
    (any::<u64>(), any::<u64>()).prop_map(|(sel, raw)| match sel % 6 {
        0 => Op::Push { delay: 0 },
        1 => Op::Push {
            delay: 1 + raw % ((1u64 << 21) - 1),
        },
        2 => Op::Push {
            delay: (1u64 << 21) + raw % ((1u64 << 33) - (1u64 << 21)),
        },
        3 => Op::Push {
            delay: (1u64 << 33) + raw % ((1u64 << 47) - (1u64 << 33)),
        },
        _ => Op::Pop,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn wheel_matches_reference_heap(ops in proptest::collection::vec(op_strategy(), 1..400)) {
        let mut wheel: TimerWheel<u32> = TimerWheel::new();
        let mut reference = RefHeap::default();
        let mut now = 0u64;
        let mut seq = 0u64;
        let mut pushed = 0u64;
        let mut popped = 0u64;
        for op in &ops {
            match op {
                Op::Push { delay } => {
                    let at = now.saturating_add(*delay);
                    wheel.push(SimTime(at), seq, seq as u32);
                    reference.push(at, seq, seq as u32);
                    seq += 1;
                    pushed += 1;
                }
                Op::Pop => {
                    let got = wheel.pop().map(|(t, s, i)| (t.0, s, i));
                    let want = reference.pop();
                    prop_assert_eq!(got, want, "pop mismatch mid-script");
                    if let Some((t, _, _)) = got {
                        prop_assert!(t >= now, "time went backwards");
                        now = t;
                        popped += 1;
                    }
                }
            }
            prop_assert_eq!(wheel.len() as u64, pushed - popped);
        }
        // Drain both completely: every remaining event must come out in the
        // same (time, seq) order.
        loop {
            let got = wheel.pop().map(|(t, s, i)| (t.0, s, i));
            let want = reference.pop();
            prop_assert_eq!(got, want, "drain mismatch");
            if got.is_none() {
                break;
            }
        }
        prop_assert!(wheel.is_empty());
    }

    #[test]
    fn clone_after_slot_reuse_pops_identically(
        prefix in proptest::collection::vec(op_strategy(), 0..200),
        suffix in proptest::collection::vec(op_strategy(), 0..200),
    ) {
        let mut wheel: TimerWheel<u32> = TimerWheel::new();
        let mut reference = RefHeap::default();
        let (mut now, mut seq) = (0u64, 0u64);
        let mut step = |wheel: &mut TimerWheel<u32>, reference: &mut RefHeap, op: &Op| {
            match op {
                Op::Push { delay } => {
                    let at = now.saturating_add(*delay);
                    wheel.push(SimTime(at), seq, seq as u32);
                    reference.push(at, seq, seq as u32);
                    seq += 1;
                }
                Op::Pop => {
                    if let Some((t, _, _)) = reference.pop() {
                        now = t;
                    }
                    wheel.pop();
                }
            }
        };
        // The scripted prefix, then pushes and pops that free slab slots
        // and hand them to new events before the snapshot.
        let reuse = [Op::Push { delay: 0 }, Op::Push { delay: 1 << 30 }, Op::Pop, Op::Pop,
            Op::Push { delay: 1 << 40 }, Op::Push { delay: 5 }];
        for op in prefix.iter().chain(&reuse) {
            step(&mut wheel, &mut reference, op);
        }
        let mut copy = wheel.clone();
        // Both copies run the same suffix and then drain, popping the same
        // (at, seq, item) sequence as the reference.
        for op in &suffix {
            if let Op::Push { delay } = op {
                let at = now.saturating_add(*delay);
                wheel.push(SimTime(at), seq, seq as u32);
                copy.push(SimTime(at), seq, seq as u32);
                reference.push(at, seq, seq as u32);
                seq += 1;
                continue;
            }
            let a = wheel.pop().map(|(t, s, i)| (t.0, s, i));
            let b = copy.pop().map(|(t, s, i)| (t.0, s, i));
            prop_assert_eq!(a, b, "clone diverged mid-script");
            prop_assert_eq!(a, reference.pop());
            if let Some((t, _, _)) = a {
                now = t;
            }
        }
        loop {
            let a = wheel.pop().map(|(t, s, i)| (t.0, s, i));
            let b = copy.pop().map(|(t, s, i)| (t.0, s, i));
            prop_assert_eq!(a, b, "clone diverged in the drain");
            prop_assert_eq!(a, reference.pop());
            if a.is_none() {
                break;
            }
        }
        prop_assert!(copy.is_empty());
    }

    #[test]
    fn peek_never_changes_pop_order(delays in proptest::collection::vec(0u64..1u64 << 46, 1..120)) {
        let mut with_peek: TimerWheel<u32> = TimerWheel::new();
        let mut without: TimerWheel<u32> = TimerWheel::new();
        for (i, d) in delays.iter().enumerate() {
            with_peek.push(SimTime(*d), i as u64, i as u32);
            without.push(SimTime(*d), i as u64, i as u32);
            // Interleave peeks on one of the wheels only.
            let _ = with_peek.peek_at();
        }
        loop {
            prop_assert_eq!(with_peek.peek_at(), without.peek_at());
            let a = with_peek.pop().map(|(t, s, i)| (t.0, s, i));
            let b = without.pop().map(|(t, s, i)| (t.0, s, i));
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
