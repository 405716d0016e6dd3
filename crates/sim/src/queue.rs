//! Pending-event storage for the simulator: a two-level bucketed timing
//! wheel (256 near slots of one time unit, 256 far slots of 256 units,
//! heap overflow beyond the 65 536-unit horizon) with bitmap occupancy
//! so empty time is skipped in `O(word)` steps.
//!
//! Events leave in exactly `(time, seq)` order. Buckets need almost no
//! sorting: `seq` is globally monotone and pushes append, so a bucket is
//! seq-sorted unless an older event joins it late — an overflow event
//! pulled back within the horizon, or a far event promoted into a near
//! bucket that already holds same-time events pushed after it went far.
//! Both paths restore the order. The tests below check it against a
//! `BinaryHeap` oracle on seeded random schedules, and
//! `tests/equivalence.rs` pins the simulator's observable behaviour
//! with goldens.
//!
//! The wheel replaced a `BinaryHeap` queue: on the token-throughput
//! workloads it was ~15–25% faster even at the paper-scale FIFOs' small
//! in-flight counts — handshake timelines are dense, so the next
//! occupied slot is found in one or two bitmap words while the heap pays
//! `log n` compare-and-move chains on every push/pop.

use crate::engine::SimTime;
use msaf_netlist::NetId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One scheduled net transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Ev {
    pub time: SimTime,
    pub seq: u64,
    pub net: NetId,
    pub value: bool,
}

impl Ord for Ev {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Peak simultaneous occupancy of each wheel level over the queue's
/// lifetime — the observables that show which level absorbs a
/// workload's in-flight events (dense handshake timelines should live
/// almost entirely in the near wheel).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct QueueDepthStats {
    /// Near wheel (one-unit slots, 256-unit window).
    pub high_water_near: usize,
    /// Far wheel (256-unit slots, 65 536-unit horizon).
    pub high_water_far: usize,
    /// Overflow heap (beyond the horizon).
    pub high_water_overflow: usize,
}

const NEAR: usize = 256;
const FAR: usize = 256;
/// Times ≥ `base + HORIZON` go to the overflow heap.
const HORIZON: u64 = (NEAR * FAR) as u64;

/// The two-level timing wheel. `base` is the earliest time the near array
/// can currently hold; slot `t % NEAR` holds time `t` while
/// `t - base < NEAR`, far slot `(t / NEAR) % FAR` holds the rest of the
/// horizon. Bitmaps mirror bucket occupancy so the next non-empty time is
/// found with `trailing_zeros` instead of a linear slot walk.
///
/// Buckets are intrusive FIFO lists threaded through one slab `Vec` (the
/// wheel's only growing allocation): pushes append at the tail, pops take
/// the head, and far→near promotion relinks nodes without copying. Freed
/// nodes go on a free list, so steady state allocates nothing and a fresh
/// wheel costs a handful of fixed-size arrays.
#[derive(Debug)]
pub(crate) struct Wheel {
    /// Node arena: event + next-pointer (`NONE` terminated).
    slab: Vec<(Ev, u32)>,
    /// Head of the free list threaded through `slab`.
    free: u32,
    near_head: [u32; NEAR],
    near_tail: [u32; NEAR],
    near_occ: [u64; NEAR / 64],
    far_head: [u32; FAR],
    far_tail: [u32; FAR],
    far_occ: [u64; FAR / 64],
    overflow: BinaryHeap<Reverse<Ev>>,
    base: u64,
    len: usize,
    /// Cached earliest pending time (kept exact on every push/pop).
    min_time: Option<SimTime>,
    /// Current near-wheel occupancy (maintained by link/pop).
    near_len: usize,
    /// Current far-wheel occupancy.
    far_len: usize,
    /// Lifetime occupancy peaks, per level (see [`QueueDepthStats`]).
    hw_near: usize,
    hw_far: usize,
    hw_overflow: usize,
}

const NONE: u32 = u32::MAX;

impl Wheel {
    pub fn new() -> Self {
        Self {
            slab: Vec::with_capacity(64),
            free: NONE,
            near_head: [NONE; NEAR],
            near_tail: [NONE; NEAR],
            near_occ: [0; NEAR / 64],
            far_head: [NONE; FAR],
            far_tail: [NONE; FAR],
            far_occ: [0; FAR / 64],
            overflow: BinaryHeap::new(),
            base: 0,
            len: 0,
            min_time: None,
            near_len: 0,
            far_len: 0,
            hw_near: 0,
            hw_far: 0,
            hw_overflow: 0,
        }
    }

    /// Takes a slab node for `ev` (from the free list when possible).
    #[inline]
    fn alloc_node(&mut self, ev: Ev) -> u32 {
        if self.free != NONE {
            let idx = self.free;
            self.free = self.slab[idx as usize].1;
            self.slab[idx as usize] = (ev, NONE);
            idx
        } else {
            let idx = u32::try_from(self.slab.len()).expect("wheel slab overflow");
            self.slab.push((ev, NONE));
            idx
        }
    }

    /// Appends node `idx` to the near bucket for its time.
    #[inline]
    fn link_near(&mut self, idx: u32) {
        let slot = (self.slab[idx as usize].0.time % NEAR as u64) as usize;
        if self.near_head[slot] == NONE {
            self.near_head[slot] = idx;
        } else {
            let tail = self.near_tail[slot];
            self.slab[tail as usize].1 = idx;
        }
        self.near_tail[slot] = idx;
        self.near_occ[slot / 64] |= 1 << (slot % 64);
        self.near_len += 1;
        self.hw_near = self.hw_near.max(self.near_len);
    }

    /// Appends node `idx` to the far bucket for its time.
    #[inline]
    fn link_far(&mut self, idx: u32) {
        let slot = ((self.slab[idx as usize].0.time / NEAR as u64) % FAR as u64) as usize;
        if self.far_head[slot] == NONE {
            self.far_head[slot] = idx;
        } else {
            let tail = self.far_tail[slot];
            self.slab[tail as usize].1 = idx;
        }
        self.far_tail[slot] = idx;
        self.far_occ[slot / 64] |= 1 << (slot % 64);
        self.far_len += 1;
        self.hw_far = self.hw_far.max(self.far_len);
    }

    /// Schedules `ev`. `ev.time` must be ≥ the time of every event already
    /// popped (the simulator never schedules into the past) and `ev.seq`
    /// must be globally monotone across pushes.
    pub fn push(&mut self, ev: Ev) {
        debug_assert!(ev.time >= self.base, "scheduling into the past");
        let dt = ev.time - self.base;
        if dt < HORIZON {
            let idx = self.alloc_node(ev);
            if dt < NEAR as u64 {
                self.link_near(idx);
            } else {
                self.link_far(idx);
            }
        } else {
            self.overflow.push(Reverse(ev));
            self.hw_overflow = self.hw_overflow.max(self.overflow.len());
        }
        self.len += 1;
        if self.min_time.is_none_or(|m| ev.time < m) {
            self.min_time = Some(ev.time);
        }
    }

    /// Earliest pending event time, if any. O(1).
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.min_time
    }

    /// Pending events right now.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Per-level occupancy high-water marks.
    pub fn depth_stats(&self) -> QueueDepthStats {
        QueueDepthStats {
            high_water_near: self.hw_near,
            high_water_far: self.hw_far,
            high_water_overflow: self.hw_overflow,
        }
    }

    /// Pops the next event iff it is scheduled exactly at `t`.
    pub fn pop_at(&mut self, t: SimTime) -> Option<Ev> {
        if self.min_time != Some(t) {
            return None;
        }
        self.advance_to(t);
        let slot = (t % NEAR as u64) as usize;
        let idx = self.near_head[slot];
        if idx == NONE {
            return None;
        }
        // Buckets are seq-sorted FIFO lists (pushes are seq-monotone and
        // append at the tail), so the head is the next event.
        let (ev, next) = self.slab[idx as usize];
        self.near_head[slot] = next;
        self.slab[idx as usize].1 = self.free;
        self.free = idx;
        self.len -= 1;
        self.near_len -= 1;
        if next == NONE {
            self.near_tail[slot] = NONE;
            self.near_occ[slot / 64] &= !(1 << (slot % 64));
            self.recompute_min();
        }
        debug_assert_eq!(ev.time, t);
        Some(ev)
    }

    /// Moves `base` forward to `t`, refilling near slots from far/overflow
    /// as 256-unit windows are crossed. Callers guarantee no pending event
    /// is earlier than `t` (it is only invoked with `t == min_time`).
    fn advance_to(&mut self, t: SimTime) {
        debug_assert!(t >= self.base);
        if t - self.base < NEAR as u64 && t / NEAR as u64 == self.base / NEAR as u64 {
            self.base = t;
            return;
        }
        // Fast-forward: with no far events at all, every window between
        // here and `t` is empty (no pending event precedes `t`), so jump
        // straight to `t`'s window instead of crossing them one by one —
        // long quiet gaps (sparse settle timelines) stay O(1).
        if self.far_occ.iter().all(|&w| w == 0) && t / NEAR as u64 > self.base / NEAR as u64 {
            self.base = (t / NEAR as u64) * NEAR as u64;
            self.pull_overflow();
        }
        while self.base / NEAR as u64 != t / NEAR as u64 || t - self.base >= NEAR as u64 {
            // Jump base to the start of the next 256-window and promote
            // that window's far bucket by relinking its nodes.
            let next_window = (self.base / NEAR as u64 + 1) * NEAR as u64;
            self.base = next_window;
            let fslot = ((self.base / NEAR as u64) % FAR as u64) as usize;
            if self.far_occ[fslot / 64] & (1 << (fslot % 64)) != 0 {
                let mut idx = self.far_head[fslot];
                self.far_head[fslot] = NONE;
                self.far_tail[fslot] = NONE;
                self.far_occ[fslot / 64] &= !(1 << (fslot % 64));
                while idx != NONE {
                    let next = self.slab[idx as usize].1;
                    self.slab[idx as usize].1 = NONE;
                    let time = self.slab[idx as usize].0.time;
                    // The node leaves its far bucket; link_* re-counts it.
                    self.far_len -= 1;
                    if time - self.base < NEAR as u64 {
                        // The near bucket may already hold same-time
                        // events pushed after this one went far (once
                        // their time came within the near window); those
                        // carry larger seqs, so restore seq order.
                        let slot = (time % NEAR as u64) as usize;
                        let tail = self.near_tail[slot];
                        self.link_near(idx);
                        if tail != NONE
                            && self.slab[tail as usize].0.seq > self.slab[idx as usize].0.seq
                        {
                            self.resort_near(slot);
                        }
                    } else {
                        // Same far slot, next lap (rare).
                        self.link_far(idx);
                    }
                    idx = next;
                }
            }
            self.pull_overflow();
            if t - self.base < NEAR as u64 {
                break;
            }
        }
        self.base = t;
    }

    /// Re-homes overflow events that now fit within the horizon. An
    /// overflow event can carry a *smaller* seq than same-time events that
    /// were pushed directly into a bucket later (pathological delay
    /// spreads beyond the 65 536-unit horizon), so seq order is restored
    /// by a sorted list insertion in that rare case.
    fn pull_overflow(&mut self) {
        while let Some(&Reverse(ev)) = self.overflow.peek() {
            if ev.time - self.base >= HORIZON {
                break;
            }
            let Reverse(ev) = self.overflow.pop().expect("peeked");
            let idx = self.alloc_node(ev);
            if ev.time - self.base < NEAR as u64 {
                self.link_near(idx);
                self.resort_near((ev.time % NEAR as u64) as usize);
            } else {
                self.link_far(idx);
                self.resort_far(((ev.time / NEAR as u64) % FAR as u64) as usize);
            }
        }
    }

    /// Restores (time, seq) order in a near bucket after an out-of-order
    /// tail append (overflow pull only; no-op when already sorted).
    fn resort_near(&mut self, slot: usize) {
        let head = self.near_head[slot];
        if let Some((new_head, new_tail)) = self.resort_list(head) {
            self.near_head[slot] = new_head;
            self.near_tail[slot] = new_tail;
        }
    }

    /// Far-bucket variant of [`Wheel::resort_near`].
    fn resort_far(&mut self, slot: usize) {
        let head = self.far_head[slot];
        if let Some((new_head, new_tail)) = self.resort_list(head) {
            self.far_head[slot] = new_head;
            self.far_tail[slot] = new_tail;
        }
    }

    /// If the list starting at `head` is out of (time, seq) order, sorts
    /// it (selection into a rebuilt list) and returns the new head/tail.
    fn resort_list(&mut self, head: u32) -> Option<(u32, u32)> {
        // Collect indices; tiny lists (only reached on the rare overflow
        // path), so a scratch Vec is acceptable here.
        let mut nodes = Vec::new();
        let mut idx = head;
        let mut sorted = true;
        while idx != NONE {
            if let Some(&last) = nodes.last() {
                let a = &self.slab[last as usize].0;
                let b = &self.slab[idx as usize].0;
                if (a.time, a.seq) > (b.time, b.seq) {
                    sorted = false;
                }
            }
            nodes.push(idx);
            idx = self.slab[idx as usize].1;
        }
        if sorted {
            return None;
        }
        nodes.sort_by_key(|&i| {
            let e = &self.slab[i as usize].0;
            (e.time, e.seq)
        });
        for w in nodes.windows(2) {
            self.slab[w[0] as usize].1 = w[1];
        }
        let tail = *nodes.last().expect("nonempty");
        self.slab[tail as usize].1 = NONE;
        Some((nodes[0], tail))
    }

    /// Recomputes `min_time` by scanning occupancy bitmaps (near window
    /// first, then far, then the overflow heap).
    fn recompute_min(&mut self) {
        if self.len == 0 {
            self.min_time = None;
            return;
        }
        // Near window: examine times base..base+NEAR, i.e. slots in
        // wrap-around order starting at base % NEAR. Word-level scan:
        // mask off slots before `start` in its word, then use
        // trailing_zeros to jump straight to the first occupied slot.
        let start = (self.base % NEAR as u64) as usize;
        let mut best: Option<u64> = None;
        let words = NEAR / 64;
        for wi in 0..=words {
            let w = (start / 64 + wi) % words;
            let mut bits = self.near_occ[w];
            if wi == 0 {
                bits &= !0u64 << (start % 64);
            } else if wi == words {
                // Wrapped back to the starting word: only slots below
                // `start` remain unexamined.
                bits &= !(!0u64 << (start % 64));
            }
            if bits != 0 {
                let slot = w * 64 + bits.trailing_zeros() as usize;
                let off = (slot + NEAR - start) % NEAR;
                best = Some(self.base + off as u64);
                break;
            }
        }
        // Far: earliest occupied 256-window after the current one. Far
        // events all lie past the current window, but the near window
        // reaches into the next one, so a far event can still precede
        // the near minimum when that minimum lies past the window's end.
        let cur = self.base / NEAR as u64;
        if self.far_len > 0 && best.is_none_or(|b| b >= (cur + 1) * NEAR as u64) {
            for woff in 1..=FAR as u64 {
                let fslot = ((cur + woff) % FAR as u64) as usize;
                if self.far_occ[fslot / 64] & (1 << (fslot % 64)) != 0 {
                    let mut m = best.unwrap_or(u64::MAX);
                    let mut idx = self.far_head[fslot];
                    while idx != NONE {
                        m = m.min(self.slab[idx as usize].0.time);
                        idx = self.slab[idx as usize].1;
                    }
                    best = Some(m);
                    break;
                }
            }
        }
        match (best, self.overflow.peek()) {
            (Some(b), Some(&Reverse(o))) => self.min_time = Some(b.min(o.time)),
            (Some(b), None) => self.min_time = Some(b),
            (None, Some(&Reverse(o))) => self.min_time = Some(o.time),
            (None, None) => self.min_time = None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn ev(time: u64, seq: u64) -> Ev {
        Ev {
            time,
            seq,
            net: NetId::new(0),
            value: false,
        }
    }

    /// Drains `q` fully, returning (time, seq) pairs in pop order.
    fn drain(q: &mut Wheel) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some(t) = q.peek_time() {
            while let Some(e) = q.pop_at(t) {
                out.push((e.time, e.seq));
            }
        }
        out
    }

    /// The wheel against a `BinaryHeap` oracle, driven the way the
    /// simulator drives its queue: pushes never precede the last popped
    /// time, some land at the current time right after a pop (a
    /// zero-delay input), some reuse an earlier push's time (same-time
    /// events across levels), some land past the 65 536-unit horizon,
    /// and every timestep drains with `pop_at(peek_time)`.
    #[test]
    fn wheel_matches_heap_oracle_on_random_schedules() {
        for seed in 0..64u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut wheel = Wheel::new();
            let mut oracle: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
            let mut times: Vec<u64> = Vec::new();
            let (mut now, mut seq) = (0u64, 0u64);
            let mut push = |wheel: &mut Wheel, oracle: &mut BinaryHeap<_>, time: u64| {
                wheel.push(ev(time, seq));
                oracle.push(Reverse((time, seq)));
                seq += 1;
            };
            for _ in 0..1_000 {
                for _ in 0..rng.random_range(0..4u32) {
                    let time = match rng.random_range(0..16u32) {
                        0 => now,
                        1..=2 => match times.get(rng.random_range(0..times.len().max(1))) {
                            Some(&t) if t >= now => t,
                            _ => now + 1,
                        },
                        3..=9 => now + rng.random_range(1..NEAR as u64),
                        10..=13 => now + rng.random_range(NEAR as u64..HORIZON),
                        _ => now + rng.random_range(HORIZON..4 * HORIZON),
                    };
                    times.push(time);
                    push(&mut wheel, &mut oracle, time);
                }
                assert_eq!(wheel.len(), oracle.len(), "seed {seed}");
                assert_eq!(
                    wheel.peek_time(),
                    oracle.peek().map(|&Reverse((t, _))| t),
                    "seed {seed}"
                );
                if rng.random_range(0..3u32) == 0 {
                    continue;
                }
                let Some(t) = wheel.peek_time() else {
                    continue;
                };
                now = t;
                while let Some(e) = wheel.pop_at(t) {
                    let Reverse(want) = oracle.pop().expect("oracle has the event");
                    assert_eq!((e.time, e.seq), want, "seed {seed}");
                    if rng.random_range(0..8u32) == 0 {
                        push(&mut wheel, &mut oracle, now);
                    }
                }
            }
            let rest: Vec<_> = std::iter::from_fn(|| oracle.pop().map(|Reverse(p)| p)).collect();
            assert_eq!(drain(&mut wheel), rest, "seed {seed}");
            assert!(wheel.is_empty());
        }
    }

    #[test]
    fn far_event_pops_before_a_later_same_time_near_push() {
        let mut q = Wheel::new();
        q.push(ev(300, 0)); // 300 units ahead: far wheel
        q.push(ev(100, 1));
        assert_eq!(q.pop_at(100).unwrap().seq, 1);
        q.push(ev(300, 2)); // now 200 units ahead: near wheel
        assert_eq!(drain(&mut q), vec![(300, 0), (300, 2)]);
    }

    #[test]
    fn far_event_before_the_near_minimum_pops_first() {
        let mut q = Wheel::new();
        q.push(ev(300, 0)); // 300 units ahead: far wheel
        q.push(ev(100, 1));
        q.push(ev(200, 2));
        assert_eq!(q.pop_at(100).unwrap().seq, 1);
        q.push(ev(320, 3)); // now 220 units ahead: near wheel
        assert_eq!(q.pop_at(200).unwrap().seq, 2);
        assert_eq!(q.peek_time(), Some(300));
        assert_eq!(drain(&mut q), vec![(300, 0), (320, 3)]);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = Wheel::new();
        q.push(ev(10, 0));
        q.push(ev(500, 1));
        let t = q.peek_time().unwrap();
        assert_eq!(t, 10);
        assert_eq!(q.pop_at(t).unwrap().time, 10);
        assert!(q.pop_at(t).is_none());
        // Schedule more from "time 10".
        q.push(ev(11, 2));
        q.push(ev(100_000, 3));
        let order: Vec<u64> = drain(&mut q).into_iter().map(|(t, _)| t).collect();
        assert_eq!(order, vec![11, 500, 100_000]);
    }

    #[test]
    fn same_time_pops_in_seq_order() {
        let mut q = Wheel::new();
        for s in 0..50u64 {
            q.push(ev(42, s));
        }
        assert_eq!(drain(&mut q), (0..50).map(|s| (42, s)).collect::<Vec<_>>());
    }

    #[test]
    fn depth_stats_track_per_level_high_water() {
        let mut q = Wheel::new();
        // 3 near, 2 far, 1 overflow.
        for (seq, &t) in [5u64, 6, 7, 300, 600, 70_000].iter().enumerate() {
            q.push(ev(t, seq as u64));
        }
        assert_eq!(q.len(), 6);
        assert_eq!(
            q.depth_stats(),
            QueueDepthStats {
                high_water_near: 3,
                high_water_far: 2,
                high_water_overflow: 1,
            }
        );
        drain(&mut q);
        // High-water marks are lifetime peaks: draining (which promotes
        // far/overflow events into the near wheel) never lowers them.
        let d = q.depth_stats();
        assert!(d.high_water_near >= 3);
        assert_eq!(d.high_water_far, 2);
        assert_eq!(d.high_water_overflow, 1);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn wheel_handles_push_at_current_time() {
        let mut q = Wheel::new();
        q.push(ev(100, 0));
        assert_eq!(q.peek_time(), Some(100));
        assert!(q.pop_at(100).is_some());
        // Now at time 100; push an event AT 100 (delay-0 set_input).
        q.push(ev(100, 1));
        assert_eq!(q.peek_time(), Some(100));
        assert_eq!(q.pop_at(100).unwrap().seq, 1);
        assert!(q.is_empty());
    }
}
