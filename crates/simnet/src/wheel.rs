//! Hierarchical timer wheel: the event queue behind [`crate::Sim`].
//!
//! The engine schedules millions of events per virtual hour — message
//! deliveries tens of milliseconds out, RPC timeouts seconds out, churn
//! sessions days out. A single global `BinaryHeap` pays `O(log n)` with `n`
//! spanning *all* of those horizons on every hot-path push. The wheel splits
//! the horizon into three bands so near-future traffic (the overwhelming
//! majority) is O(1) to insert:
//!
//! * **near wheel** — 4096 slots × ~2.1 ms (`2^21` ns): one insert is an
//!   append to the target slot's bucket;
//! * **coarse wheel** — 4096 slots × ~8.6 s (`2^33` ns, horizon ≈ 9.8 h):
//!   protocol timers (reprovide batches, connection-manager ticks) land
//!   here and cascade into the near wheel when their slot comes up;
//! * **far heap** — a `BinaryHeap` for everything beyond the coarse
//!   horizon (churn schedules, multi-day workload commands). Far events
//!   pay two heap ops total and are pulled into the wheels in batches as
//!   the coarse cursor advances.
//!
//! Storage: each event's payload (~180 bytes for the ecosystem's
//! `Ev<WireMsg, _>`) is stored exactly once, in a slab of `Option<T>` slots
//! recycled through a LIFO free list. The buckets, the staging buffer and
//! the far heap hold only 24-byte `{at, seq, slot}` keys, so sorting a slot
//! and cascading a coarse bucket move keys, never payloads.
//!
//! Memory: a drained bucket keeps no capacity. The near bucket is moved
//! into staging and a cascaded coarse bucket is consumed by value, so an
//! idle slot costs only its 24-byte `Vec` header and the queue's heap
//! ([`TimerWheel::heap_bytes`]) stays proportional to the live event
//! count. Handing an emptied buffer back to its slot would let each of the
//! 8 192 slots grow toward the largest bucket any slot ever held.
//!
//! Determinism contract (identical to the `BinaryHeap` scheduler this
//! replaces): events pop in strictly ascending `(time, seq)` order, where
//! `seq` is the caller-supplied insertion sequence number — FIFO within a
//! tick, ties never depend on memory layout. Same-slot ordering is enforced
//! by the *staging* buffer holding only the slot currently being drained:
//! the slot's keys are sorted in place descending and popped from the tail.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::mem::size_of;

const NEAR_BITS: u32 = 12;
const NEAR_SLOTS: usize = 1 << NEAR_BITS;
/// Near slot width: 2^21 ns ≈ 2.1 ms.
const NEAR_SHIFT: u32 = 21;
const COARSE_BITS: u32 = 12;
const COARSE_SLOTS: usize = 1 << COARSE_BITS;
/// Coarse slot width: 2^33 ns ≈ 8.6 s (one full near-wheel span).
const COARSE_SHIFT: u32 = NEAR_SHIFT + NEAR_BITS;

const NEAR_MASK: u64 = (NEAR_SLOTS - 1) as u64;
const COARSE_MASK: u64 = (COARSE_SLOTS - 1) as u64;
const WORDS: usize = NEAR_SLOTS / 64;

/// Fixed heap cost of a wheel: the near and coarse bucket-header arrays.
pub const BUCKET_HEADER_BYTES: usize = (NEAR_SLOTS + COARSE_SLOTS) * size_of::<Vec<Key>>();

/// One queued event's order key and the slab slot holding its payload.
/// `(at, seq)` pairs are unique, so `slot` never decides an order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    at: u64,
    seq: u64,
    slot: usize,
}

/// Fixed-size occupancy bitmap over 4096 slots.
#[derive(Clone)]
struct Bitmap([u64; WORDS]);

impl Bitmap {
    fn new() -> Bitmap {
        Bitmap([0; WORDS])
    }

    fn set(&mut self, idx: usize) {
        self.0[idx / 64] |= 1u64 << (idx % 64);
    }

    fn clear(&mut self, idx: usize) {
        self.0[idx / 64] &= !(1u64 << (idx % 64));
    }

    /// First set index in `[from, 4096)`, if any.
    fn next_set_from(&self, from: usize) -> Option<usize> {
        if from >= NEAR_SLOTS {
            return None;
        }
        let mut word = from / 64;
        let mut bits = self.0[word] & (!0u64 << (from % 64));
        loop {
            if bits != 0 {
                return Some(word * 64 + bits.trailing_zeros() as usize);
            }
            word += 1;
            if word >= WORDS {
                return None;
            }
            bits = self.0[word];
        }
    }
}

/// A three-band hierarchical timer wheel holding items of type `T`.
///
/// Pops in ascending `(SimTime, seq)` order. Insertion accepts any time,
/// including times at or before the last popped event — such events simply
/// sort into the staging buffer and pop next, exactly as they would from a
/// global `BinaryHeap`.
///
/// Cloning (for `T: Clone`) snapshots the full queue — the payload slab
/// with its free list, every banded key and the staging frontier — so a
/// cloned wheel pops the identical event sequence (the engine-fork
/// machinery relies on this).
#[derive(Clone)]
pub struct TimerWheel<T> {
    /// Payload of every queued event, indexed by [`Key::slot`]; `None`
    /// marks a free slot.
    slab: Vec<Option<T>>,
    /// Free slab slots, reused last-freed first.
    free: Vec<usize>,
    near: Box<[Vec<Key>]>,
    near_bits: Bitmap,
    coarse: Box<[Vec<Key>]>,
    coarse_bits: Bitmap,
    far: BinaryHeap<Reverse<Key>>,
    /// Keys of the slot currently being drained (plus any "late" inserts),
    /// sorted descending so the next event pops from the tail without
    /// moving the rest.
    staging: Vec<Key>,
    /// Absolute near slot of the staging frontier: staging holds every
    /// queued event whose near slot is `<= cur_near`.
    cur_near: u64,
    /// Absolute coarse slot the near wheel currently expands.
    cur_coarse: u64,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        TimerWheel::new()
    }
}

impl<T> TimerWheel<T> {
    /// Heap bytes one queued event occupies: its key and its slab slot.
    pub const ENTRY_BYTES: usize = size_of::<Key>() + size_of::<Option<T>>();

    /// An empty wheel anchored at time zero.
    pub fn new() -> TimerWheel<T> {
        TimerWheel {
            slab: Vec::new(),
            free: Vec::new(),
            near: (0..NEAR_SLOTS).map(|_| Vec::new()).collect(),
            near_bits: Bitmap::new(),
            coarse: (0..COARSE_SLOTS).map(|_| Vec::new()).collect(),
            coarse_bits: Bitmap::new(),
            far: BinaryHeap::new(),
            staging: Vec::new(),
            cur_near: 0,
            cur_coarse: 0,
        }
    }

    /// Queued events.
    pub fn len(&self) -> usize {
        self.slab.len() - self.free.len()
    }

    /// Whether no events are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap bytes the queue holds, counted from capacities (what the
    /// allocator reserved, not what is live) so the figure is
    /// deterministic: the bucket-header arrays, every key buffer, the
    /// payload slab and its free list.
    pub fn heap_bytes(&self) -> usize {
        let keys = self
            .near
            .iter()
            .chain(self.coarse.iter())
            .map(Vec::capacity)
            .sum::<usize>()
            + self.staging.capacity()
            + self.far.capacity();
        BUCKET_HEADER_BYTES
            + keys * size_of::<Key>()
            + self.slab.capacity() * size_of::<Option<T>>()
            + self.free.capacity() * size_of::<usize>()
    }

    /// Queue `item` at `at` with tie-break sequence `seq`. `(at, seq)` pairs
    /// must be unique (the engine's global sequence counter guarantees it).
    pub fn push(&mut self, at: SimTime, seq: u64, item: T) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot] = Some(item);
                slot
            }
            None => {
                self.slab.push(Some(item));
                self.slab.len() - 1
            }
        };
        let k = Key {
            at: at.0,
            seq,
            slot,
        };
        let ns = k.at >> NEAR_SHIFT;
        if ns <= self.cur_near {
            self.stage_sorted(k);
            return;
        }
        let cs = k.at >> COARSE_SHIFT;
        if cs == self.cur_coarse {
            let idx = (ns & NEAR_MASK) as usize;
            self.near[idx].push(k);
            self.near_bits.set(idx);
        } else if cs - self.cur_coarse < COARSE_SLOTS as u64 {
            let idx = (cs & COARSE_MASK) as usize;
            self.coarse[idx].push(k);
            self.coarse_bits.set(idx);
        } else {
            self.far.push(Reverse(k));
        }
    }

    /// Insert a "late" key (at or before the staging frontier) into the
    /// already-sorted staging buffer. Staging holds one slot's population,
    /// so the shift is short; the hot path (future slots) never comes here.
    fn stage_sorted(&mut self, k: Key) {
        let pos = self.staging.partition_point(|x| *x > k);
        self.staging.insert(pos, k);
    }

    /// Restore the descending staging order after a bulk append (slot
    /// move-in or coarse cascade).
    fn sort_staging(&mut self) {
        self.staging.sort_unstable_by(|a, b| b.cmp(a));
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        self.refill_staging();
        let k = self.staging.pop()?;
        let item = self.slab[k.slot].take().expect("queued key owns its slot");
        self.free.push(k.slot);
        Some((SimTime(k.at), k.seq, item))
    }

    /// Time of the earliest event without removing it.
    ///
    /// Takes `&mut self` because peeking may advance the internal cursors
    /// past empty slots; this never changes the pop order.
    pub fn peek_at(&mut self) -> Option<SimTime> {
        self.refill_staging();
        self.staging.last().map(|k| SimTime(k.at))
    }

    /// Route a key whose coarse slot is within `[cur_coarse, cur_coarse +
    /// COARSE_SLOTS)` into staging / near / coarse. Staging appends are
    /// raw; callers re-sort once after the bulk move.
    fn route_within_window(&mut self, k: Key) {
        let ns = k.at >> NEAR_SHIFT;
        if ns <= self.cur_near {
            self.staging.push(k);
            return;
        }
        let cs = k.at >> COARSE_SHIFT;
        if cs == self.cur_coarse {
            let idx = (ns & NEAR_MASK) as usize;
            self.near[idx].push(k);
            self.near_bits.set(idx);
        } else {
            debug_assert!(cs - self.cur_coarse < COARSE_SLOTS as u64);
            let idx = (cs & COARSE_MASK) as usize;
            self.coarse[idx].push(k);
            self.coarse_bits.set(idx);
        }
    }

    /// Move far-heap keys whose coarse slot entered the wheel window.
    fn pull_far(&mut self) {
        while let Some(Reverse(top)) = self.far.peek() {
            if top.at >> COARSE_SHIFT >= self.cur_coarse + COARSE_SLOTS as u64 {
                break;
            }
            let Reverse(k) = self.far.pop().expect("peeked");
            self.route_within_window(k);
        }
    }

    /// Next occupied coarse slot strictly after `cur_coarse`, in absolute
    /// slot order (the bucket array wraps; the window spans exactly one
    /// revolution, so each bucket maps to a unique absolute slot).
    fn next_coarse_slot(&self) -> Option<u64> {
        let base = (self.cur_coarse & COARSE_MASK) as usize;
        if let Some(idx) = self.coarse_bits.next_set_from(base + 1) {
            return Some(self.cur_coarse + (idx - base) as u64);
        }
        let idx = self.coarse_bits.next_set_from(0)?;
        if idx > base {
            return None; // already covered by the first scan
        }
        Some(self.cur_coarse + (COARSE_SLOTS - base + idx) as u64)
    }

    /// Advance cursors until staging holds the earliest queued event.
    fn refill_staging(&mut self) {
        while self.staging.is_empty() {
            // 1. Next occupied near slot within the current coarse span.
            //    The span is 4096 aligned slots, so bucket index == offset.
            let from = ((self.cur_near & NEAR_MASK) + 1) as usize;
            if let Some(idx) = self.near_bits.next_set_from(from) {
                self.cur_near = (self.cur_coarse << NEAR_BITS) | idx as u64;
                self.near_bits.clear(idx);
                // Move the bucket in whole; the slot is left with no
                // capacity and the emptied staging buffer is freed.
                self.staging = std::mem::take(&mut self.near[idx]);
                self.sort_staging();
                continue;
            }
            // 2. Current coarse span exhausted: cascade the next one,
            //    consuming its bucket.
            if let Some(cs) = self.next_coarse_slot() {
                self.cur_coarse = cs;
                self.cur_near = cs << NEAR_BITS;
                let idx = (cs & COARSE_MASK) as usize;
                self.coarse_bits.clear(idx);
                for k in std::mem::take(&mut self.coarse[idx]) {
                    self.route_within_window(k);
                }
                self.pull_far();
                self.sort_staging();
                continue;
            }
            // 3. Both wheels empty: jump straight to the far horizon.
            let Some(Reverse(top)) = self.far.peek() else {
                return;
            };
            let cs = top.at >> COARSE_SHIFT;
            self.cur_coarse = cs;
            self.cur_near = cs << NEAR_BITS;
            self.pull_far();
            self.sort_staging();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Dur;

    fn drain(w: &mut TimerWheel<u32>) -> Vec<(u64, u64, u32)> {
        let mut out = Vec::new();
        while let Some((at, seq, item)) = w.pop() {
            out.push((at.0, seq, item));
        }
        out
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut w = TimerWheel::new();
        w.push(SimTime(50), 0, 1);
        w.push(SimTime(10), 1, 2);
        w.push(SimTime(10), 2, 3);
        w.push(SimTime(10_000_000_000), 3, 4); // 10 s → coarse wheel
        w.push(SimTime(0), 4, 5);
        let order: Vec<u32> = drain(&mut w).iter().map(|&(_, _, i)| i).collect();
        assert_eq!(order, vec![5, 2, 3, 1, 4]);
    }

    #[test]
    fn spans_all_three_bands() {
        let mut w = TimerWheel::new();
        w.push(SimTime::ZERO + Dur::from_millis(1), 0, 0); // near
        w.push(SimTime::ZERO + Dur::from_secs(30), 1, 1); // coarse
        w.push(SimTime::ZERO + Dur::from_hours(24), 2, 2); // far
        w.push(SimTime::ZERO + Dur::from_hours(200), 3, 3); // far, next window
        assert_eq!(w.len(), 4);
        let order: Vec<u32> = drain(&mut w).iter().map(|&(_, _, i)| i).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
        assert!(w.is_empty());
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut w = TimerWheel::new();
        w.push(SimTime(1_000), 0, 0);
        w.push(SimTime(2_000_000_000), 1, 1);
        assert_eq!(w.pop().map(|(_, _, i)| i), Some(0));
        // Push at a time before the already-queued far event, after a pop.
        w.push(SimTime(5_000), 2, 2);
        // Push at the exact time of the last popped event ("now").
        w.push(SimTime(1_000), 3, 3);
        let order: Vec<u32> = drain(&mut w).iter().map(|&(_, _, i)| i).collect();
        assert_eq!(order, vec![3, 2, 1]);
    }

    #[test]
    fn peek_does_not_disturb_order() {
        let mut w = TimerWheel::new();
        w.push(SimTime::ZERO + Dur::from_hours(30), 0, 0);
        assert_eq!(w.peek_at(), Some(SimTime::ZERO + Dur::from_hours(30)));
        // A later insert before the peeked event must still pop first.
        w.push(SimTime::ZERO + Dur::from_hours(29), 1, 1);
        let order: Vec<u32> = drain(&mut w).iter().map(|&(_, _, i)| i).collect();
        assert_eq!(order, vec![1, 0]);
        assert_eq!(w.peek_at(), None);
    }

    #[test]
    fn dense_same_slot_burst_is_fifo() {
        let mut w = TimerWheel::new();
        for seq in 0..1000u64 {
            w.push(SimTime(500), seq, seq as u32);
        }
        let popped = drain(&mut w);
        for (i, &(at, seq, _)) in popped.iter().enumerate() {
            assert_eq!(at, 500);
            assert_eq!(seq, i as u64);
        }
    }

    #[test]
    fn heap_bytes_track_live_entries_not_past_bursts() {
        // A burst lands in every near slot of one coarse span, then in
        // every coarse slot of one revolution, each drained before the
        // next arrives: a few dozen events are ever live, yet all 8 192
        // buckets see a burst. A wheel whose buckets keep their capacity
        // after draining ends near 8 192 × BURST keys; this one must stay
        // within a few entries per live event.
        const BURST: u64 = 32;
        const K: usize = 4;
        let mut w: TimerWheel<u32> = TimerWheel::new();
        let (mut seq, mut peak) = (0u64, 0usize);
        fn check(w: &TimerWheel<u32>, peak: usize) {
            let bound = K * peak * TimerWheel::<u32>::ENTRY_BYTES + BUCKET_HEADER_BYTES;
            assert!(
                w.heap_bytes() <= bound,
                "{} heap bytes for a peak of {peak} live entries (bound {bound})",
                w.heap_bytes()
            );
        }
        let mut burst = |w: &mut TimerWheel<u32>, base: u64, spread: u64| {
            for j in 0..BURST {
                w.push(SimTime(base + j * spread), seq, seq as u32);
                seq += 1;
            }
            peak = peak.max(w.len());
            for _ in 0..BURST {
                w.pop().expect("burst queued");
            }
            assert!(w.is_empty());
            peak
        };
        for slot in 1..NEAR_SLOTS as u64 {
            let peak = burst(&mut w, slot << NEAR_SHIFT, 1);
            if slot % 64 == 0 {
                check(&w, peak);
            }
        }
        // Each coarse burst spreads over near slots of its span, so it also
        // refills near buckets after the cascade.
        for span in 1..=COARSE_SLOTS as u64 {
            let peak = burst(&mut w, span << COARSE_SHIFT, 1 << NEAR_SHIFT);
            if span % 64 == 0 {
                check(&w, peak);
            }
        }
        check(&w, peak);
    }

    #[test]
    fn matches_reference_heap_on_mixed_horizons() {
        // Deterministic pseudo-random schedule covering every band and
        // wrap-around, checked against a plain sorted reference.
        let mut w = TimerWheel::new();
        let mut reference: Vec<(u64, u64, u32)> = Vec::new();
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut now = 0u64;
        let mut seq = 0u64;
        let mut popped = Vec::new();
        for round in 0..2000u32 {
            // Mixed magnitudes: ns jitter up to ~70 hours out.
            let delay = next() % (1u64 << (10 + (next() % 38) as u32));
            let at = now + delay;
            w.push(SimTime(at), seq, round);
            reference.push((at, seq, round));
            seq += 1;
            if next() % 3 == 0 {
                if let Some((t, s, i)) = w.pop() {
                    now = t.0;
                    popped.push((t.0, s, i));
                }
            }
        }
        popped.extend(drain(&mut w));
        // The wheel never reorders (at, seq) pairs relative to a global sort
        // *given* that pops interleave with pushes; verify monotonicity and
        // completeness instead of exact equality with an offline sort.
        assert_eq!(popped.len(), reference.len());
        for pair in popped.windows(2) {
            assert!(
                (pair[0].0, pair[0].1) < (pair[1].0, pair[1].1),
                "out of order: {pair:?}"
            );
        }
        let mut a: Vec<_> = popped.iter().map(|&(_, s, _)| s).collect();
        a.sort_unstable();
        let b: Vec<u64> = (0..seq).collect();
        assert_eq!(a, b, "all events popped exactly once");
    }
}
