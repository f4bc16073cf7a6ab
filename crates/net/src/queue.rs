//! A hierarchical timing-wheel priority queue.
//!
//! This is the shared ordered-timer abstraction behind the simulator's
//! event loop ([`crate::World`]), the UDP runtime's wall-clock timers,
//! and the fault injector's delayed-datagram flusher — one
//! implementation replacing the three independent `BinaryHeap`s those
//! layers used to carry.
//!
//! # Design
//!
//! Three wheel levels of 256 slots each over a 1 ms tick quantum:
//! level 0 spans 256 ms at tick resolution, level 1 spans ~65 s, and
//! level 2 spans ~4.66 h. Entries beyond the level-2 horizon park in a
//! small overflow heap (cold path — simulation timers are seconds, not
//! hours). Each slot is an intrusive singly-linked list through a slab
//! of entries, so the steady state allocates nothing: pushed values
//! live inline in recycled slab entries, and slot membership costs one
//! `u32` link.
//!
//! Within a tick, entries are drained into a scratch batch and sorted
//! by `(time, key)`, where `key` packs the entry's *rank* above a
//! monotone insertion counter — so pops observe exactly the total
//! order a `(time, rank, insertion)`-keyed binary heap would produce.
//! That equivalence is what lets the simulator swap the heap out
//! without perturbing a single event, and it is pinned by the
//! randomized differential tests below and by the seed-swept telemetry
//! goldens in `tempo-sim`. The simulator pushes at a connected
//! component's rank, so one queue interleaves a multi-component world
//! component by component at each instant; every other user pushes at
//! rank 0, where the order is `(time, insertion)`.
//!
//! Nothing is cancelled: a user that must ignore a timer tags it (the
//! servers carry their lifecycle epoch in the tag) and drops a stale
//! one when it fires.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use tempo_core::Timestamp;

/// Slots per wheel level.
const SLOTS: usize = 256;
/// `u64` words in a slot-occupancy bitmap.
const WORDS: usize = SLOTS / 64;
/// Null link in the entry slab.
const NIL: u32 = u32::MAX;
/// Seconds per level-0 tick.
const QUANTUM: f64 = 1e-3;
/// Tick spans covered by each level.
const L0_SPAN: u64 = 256;
const L1_SPAN: u64 = 256 * 256;
const L2_SPAN: u64 = 256 * 256 * 256;
/// Low bits of an order key: the insertion counter, below the rank.
const SEQ_BITS: u32 = 40;

struct Entry<T> {
    time: Timestamp,
    /// `rank << SEQ_BITS | insertion`: the tie-break within an instant.
    key: u64,
    /// Next entry in the slot list (while parked) or free list.
    next: u32,
    /// `None` marks a free slab entry.
    value: Option<T>,
}

/// A monotone-time event queue ordered by `(time, rank, insertion)`.
///
/// Semantics match a `BinaryHeap` keyed on `(time, rank, seq)`: pops
/// are globally time-ordered, and entries pushed for the same instant
/// pop by ascending rank, then in insertion order. Entries scheduled
/// in the past (relative to the last pop) fire immediately, still
/// ordered among themselves.
pub struct EventQueue<T> {
    entries: Vec<Entry<T>>,
    free_head: u32,
    /// `heads[level][slot]`: first entry of the slot's intrusive list.
    heads: [[u32; SLOTS]; 3],
    /// Occupancy bitmaps mirroring `heads` for fast next-slot scans.
    occupied: [[u64; WORDS]; 3],
    /// Entries beyond the level-2 horizon (cold path).
    overflow: BinaryHeap<Reverse<(u64, u64, u32)>>,
    /// The wheel's current tick; never retreats.
    cursor: u64,
    /// The drained current-tick batch, sorted descending by
    /// `(time, key)` so the minimum pops from the end.
    batch: Vec<(Timestamp, u64, u32)>,
    /// Tick the batch was drained for.
    batch_tick: u64,
    /// Pushed, not yet popped, entries.
    len: usize,
    /// Insertion counter; the deterministic tiebreak within a rank.
    seq: u64,
    /// Set by the first push above rank 0; until then a key is the
    /// bare insertion counter and needs no limit.
    ranked: bool,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<T> std::fmt::Debug for EventQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.len)
            .field("cursor", &self.cursor)
            .field("slab", &self.entries.len())
            .finish_non_exhaustive()
    }
}

fn tick_of(time: Timestamp) -> u64 {
    let secs = time.as_secs();
    debug_assert!(
        secs >= 0.0,
        "event queue times are non-negative, got {secs}"
    );
    (secs / QUANTUM) as u64
}

fn next_occupied(words: &[u64; WORDS], from: usize) -> Option<usize> {
    let mut w = from / 64;
    let mut mask = !0u64 << (from % 64);
    while w < WORDS {
        let bits = words[w] & mask;
        if bits != 0 {
            return Some(w * 64 + bits.trailing_zeros() as usize);
        }
        w += 1;
        mask = !0;
    }
    None
}

impl<T> EventQueue<T> {
    /// An empty queue with its cursor at time zero.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            entries: Vec::new(),
            free_head: NIL,
            heads: [[NIL; SLOTS]; 3],
            occupied: [[0; WORDS]; 3],
            overflow: BinaryHeap::new(),
            cursor: 0,
            batch: Vec::new(),
            batch_tick: 0,
            len: 0,
            seq: 0,
            ranked: false,
        }
    }

    /// Pending entries (pushed, not yet popped).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no entries are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `value` for `time` at rank 0.
    #[inline]
    pub fn push(&mut self, time: Timestamp, value: T) {
        self.push_ranked(time, 0, value);
    }

    /// Schedules `value` for `time` at `rank`: same-instant entries pop
    /// by ascending rank, then in insertion order.
    ///
    /// # Panics
    ///
    /// Panics, rather than misorder, if `rank` is 2²⁴ or more, or once
    /// a queue that has held a ranked entry reaches 2⁴⁰ insertions.
    #[inline(always)]
    pub fn push_ranked(&mut self, time: Timestamp, rank: u32, value: T) {
        let seq = self.seq;
        self.seq += 1;
        self.ranked |= rank > 0;
        assert!(
            !self.ranked || (rank < 1 << (64 - SEQ_BITS) && seq < 1 << SEQ_BITS),
            "event queue rank {rank} or insertion {seq} is past the order key's limit"
        );
        let key = (u64::from(rank) << SEQ_BITS) | seq;
        let idx = self.alloc(time, key, value);
        self.len += 1;
        let tick = tick_of(time);
        if !self.batch.is_empty() && tick <= self.batch_tick {
            // The wheel is mid-drain on this tick (or the entry is
            // past due): merge straight into the live batch, keeping
            // the descending (time, key) order.
            let e = (time, key);
            let pos = self.batch.partition_point(|&(t, k, _)| (t, k) > e);
            self.batch.insert(pos, (time, key, idx));
        } else {
            self.place(idx);
        }
    }

    /// The time of the next entry, or `None` when empty. Takes `&mut`
    /// because finding the next entry may advance the wheel.
    #[inline]
    pub fn peek_time(&mut self) -> Option<Timestamp> {
        if self.fill_batch() {
            self.batch.last().map(|&(t, _, _)| t)
        } else {
            None
        }
    }

    /// Removes and returns the earliest entry (ties broken by
    /// insertion order).
    pub fn pop(&mut self) -> Option<(Timestamp, T)> {
        self.fill_batch().then(|| self.take_front())
    }

    /// [`EventQueue::pop`], but only an entry due at or before `until`
    /// — the event loop's one probe of the wheel per event, where
    /// [`EventQueue::peek_time`] followed by `pop` makes two.
    #[inline]
    pub fn pop_due(&mut self, until: Timestamp) -> Option<(Timestamp, T)> {
        (self.peek_time()? <= until).then(|| self.take_front())
    }

    /// Removes the batch front, which `fill_batch` just filled.
    #[inline]
    fn take_front(&mut self) -> (Timestamp, T) {
        let (time, _, idx) = self.batch.pop().expect("fill_batch returned true");
        let value = self.entries[idx as usize]
            .value
            .take()
            .expect("batched entries are pending");
        self.release(idx);
        self.len -= 1;
        (time, value)
    }

    #[inline]
    fn alloc(&mut self, time: Timestamp, key: u64, value: T) -> u32 {
        if self.free_head != NIL {
            let idx = self.free_head;
            let e = &mut self.entries[idx as usize];
            self.free_head = e.next;
            e.time = time;
            e.key = key;
            e.next = NIL;
            e.value = Some(value);
            idx
        } else {
            assert!(self.entries.len() < NIL as usize, "event queue slab full");
            self.entries.push(Entry {
                time,
                key,
                next: NIL,
                value: Some(value),
            });
            (self.entries.len() - 1) as u32
        }
    }

    fn release(&mut self, idx: u32) {
        let e = &mut self.entries[idx as usize];
        debug_assert!(e.value.is_none(), "releasing a pending entry");
        e.next = self.free_head;
        self.free_head = idx;
    }

    /// Parks `idx` in the wheel level covering its delay from the
    /// cursor. Past-due entries clamp to the cursor tick; the batch
    /// sort by true `(time, key)` keeps pops correctly ordered anyway.
    #[inline]
    fn place(&mut self, idx: u32) {
        let tick = tick_of(self.entries[idx as usize].time).max(self.cursor);
        let delta = tick - self.cursor;
        let (level, slot) = if delta < L0_SPAN {
            (0, (tick & 0xFF) as usize)
        } else if delta < L1_SPAN {
            (1, ((tick >> 8) & 0xFF) as usize)
        } else if delta < L2_SPAN {
            (2, ((tick >> 16) & 0xFF) as usize)
        } else {
            let key = self.entries[idx as usize].key;
            self.overflow.push(Reverse((tick, key, idx)));
            return;
        };
        self.entries[idx as usize].next = self.heads[level][slot];
        self.heads[level][slot] = idx;
        self.occupied[level][slot / 64] |= 1 << (slot % 64);
    }

    /// Drains level-0 slot `slot` (all of whose entries share `tick`)
    /// into the batch, sorted descending by `(time, key)`.
    #[inline]
    fn drain_slot(&mut self, slot: usize, tick: u64) {
        debug_assert!(self.batch.is_empty());
        let mut head = std::mem::replace(&mut self.heads[0][slot], NIL);
        self.occupied[0][slot / 64] &= !(1u64 << (slot % 64));
        while head != NIL {
            let e = &self.entries[head as usize];
            self.batch.push((e.time, e.key, head));
            head = e.next;
        }
        self.batch
            .sort_unstable_by_key(|&(time, key, _)| Reverse((time, key)));
        self.batch_tick = tick;
    }

    /// Re-places every entry of a level-1/2 slot one level down.
    fn cascade(&mut self, level: usize, slot: usize) {
        let mut head = std::mem::replace(&mut self.heads[level][slot], NIL);
        self.occupied[level][slot / 64] &= !(1u64 << (slot % 64));
        while head != NIL {
            let next = std::mem::replace(&mut self.entries[head as usize].next, NIL);
            self.place(head);
            head = next;
        }
    }

    fn wheel_is_empty(&self) -> bool {
        self.occupied
            .iter()
            .all(|level| level.iter().all(|&w| w == 0))
    }

    /// Ensures the batch holds the next entry, advancing the wheel as
    /// needed. Returns `false` when the queue is empty.
    #[inline]
    fn fill_batch(&mut self) -> bool {
        loop {
            if !self.batch.is_empty() {
                return true;
            }
            if self.len == 0 {
                return false;
            }
            // Next occupied level-0 slot within the current window.
            let from = (self.cursor & 0xFF) as usize;
            if let Some(slot) = next_occupied(&self.occupied[0], from) {
                let tick = (self.cursor & !0xFF) + slot as u64;
                debug_assert!(tick >= self.cursor);
                self.cursor = tick;
                self.drain_slot(slot, tick);
                continue;
            }
            // Everything lives in the overflow heap: jump straight to
            // its first entry's level-2 rotation boundary.
            if self.wheel_is_empty() {
                let &Reverse((tick, _, _)) = self
                    .overflow
                    .peek()
                    .expect("len > 0 with an empty wheel means overflow entries");
                let boundary = tick - tick % L2_SPAN;
                debug_assert!(boundary > self.cursor);
                self.cursor = boundary;
                self.pull_overflow();
                continue;
            }
            // Advance one level-0 window, cascading parents whose
            // boundaries we cross.
            let new_win = (self.cursor & !0xFF) + L0_SPAN;
            self.cursor = new_win;
            if new_win.is_multiple_of(L2_SPAN) {
                self.pull_overflow();
            }
            if new_win.is_multiple_of(L1_SPAN) {
                self.cascade(2, ((new_win >> 16) & 0xFF) as usize);
            }
            self.cascade(1, ((new_win >> 8) & 0xFF) as usize);
        }
    }

    /// Moves overflow entries now within the level-2 horizon into the
    /// wheel. Called when the cursor lands on a level-2 rotation
    /// boundary.
    fn pull_overflow(&mut self) {
        while let Some(&Reverse((tick, _, _))) = self.overflow.peek() {
            debug_assert!(tick >= self.cursor);
            if tick - self.cursor >= L2_SPAN {
                break;
            }
            let Reverse((_, _, idx)) = self.overflow.pop().expect("peeked");
            self.place(idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn ts(s: f64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    #[test]
    fn pops_in_time_order_with_insertion_tiebreak() {
        let mut q = EventQueue::new();
        q.push(ts(0.3), "c");
        q.push(ts(0.1), "a1");
        q.push(ts(0.2), "b");
        q.push(ts(0.1), "a2");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, ["a1", "a2", "b", "c"]);
        assert!(q.is_empty());
    }

    #[test]
    fn same_tick_different_times_sort_by_time() {
        // 1 ms quantum: 0.0001 and 0.0007 share tick 0.
        let mut q = EventQueue::new();
        q.push(ts(0.0007), 2);
        q.push(ts(0.0001), 1);
        assert_eq!(q.pop(), Some((ts(0.0001), 1)));
        assert_eq!(q.pop(), Some((ts(0.0007), 2)));
    }

    #[test]
    fn push_during_drain_joins_current_batch() {
        let mut q = EventQueue::new();
        q.push(ts(1.0), 1);
        q.push(ts(1.0001), 3);
        assert_eq!(q.pop(), Some((ts(1.0), 1)));
        // Same tick as the live batch; earlier than the batch front.
        q.push(ts(1.00005), 2);
        assert_eq!(q.pop(), Some((ts(1.00005), 2)));
        assert_eq!(q.pop(), Some((ts(1.0001), 3)));
    }

    #[test]
    fn past_due_entries_fire_immediately_in_time_order() {
        let mut q = EventQueue::new();
        q.push(ts(5.0), "future");
        assert_eq!(q.peek_time(), Some(ts(5.0))); // advances the cursor
        q.push(ts(1.0), "late1");
        q.push(ts(2.0), "late2");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, ["late1", "late2", "future"]);
    }

    #[test]
    fn spans_all_levels_and_overflow() {
        let mut q = EventQueue::new();
        // level 0 (< 256 ms), level 1 (< 65.5 s), level 2 (< 4.66 h),
        // overflow (beyond).
        q.push(ts(20_000.0), 4); // overflow (~5.5 h)
        q.push(ts(0.05), 1);
        q.push(ts(30.0), 2);
        q.push(ts(3_600.0), 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, [1, 2, 3, 4]);
    }

    #[test]
    fn slab_recycles_instead_of_growing() {
        let mut q = EventQueue::new();
        for round in 0..100 {
            for k in 0..10 {
                q.push(ts(round as f64 + 0.001 * k as f64), k);
            }
            while q.pop().is_some() {}
        }
        assert!(
            q.entries.len() <= 10,
            "slab grew to {} for 10 concurrent entries",
            q.entries.len()
        );
    }

    /// The differential test: against a reference `BinaryHeap` keyed
    /// `(time, rank, seq)` (whose `peek` + `pop` is what `pop_due` must
    /// equal), over a randomized push/pop workload at ranks
    /// `0..4` whose delays span every wheel level and include exact
    /// ties, within a rank and across ranks.
    #[test]
    fn matches_reference_heap_under_random_workload() {
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut wheel = EventQueue::new();
            let mut heap: BinaryHeap<Reverse<(Timestamp, u32, u64, u32)>> = BinaryHeap::new();
            let mut now = 0.0f64;
            let mut last = ts(0.0);
            let mut seq = 0u64;
            for _ in 0..4000 {
                match rng.random_range(0..9) {
                    // push (weighted)
                    0..=5 => {
                        let t = match rng.random_range(0..9) {
                            0 => ts(now), // exact tie with `now`
                            1 => last,    // exact tie with the previous push
                            2..=5 => ts(now + rng.random_range(0.0..0.2)),
                            6 | 7 => ts(now + rng.random_range(0.0..40.0)),
                            _ => ts(now + rng.random_range(0.0..200.0)),
                        };
                        let rank = rng.random_range(0..4u32);
                        wheel.push_ranked(t, rank, seq as u32);
                        heap.push(Reverse((t, rank, seq, seq as u32)));
                        last = t;
                        seq += 1;
                    }
                    // pop — half of them through `pop_due`, under a
                    // limit the head misses about as often as it meets
                    // (a refusal may still have advanced the wheel, so
                    // the pushes after it land behind the cursor).
                    _ => {
                        let until = rng
                            .random_bool(0.5)
                            .then(|| ts(now + rng.random_range(0.0..0.1)));
                        let got = match until {
                            Some(until) => wheel.pop_due(until),
                            None => wheel.pop(),
                        };
                        let due = heap
                            .peek()
                            .is_some_and(|&Reverse((t, ..))| until.is_none_or(|u| t <= u));
                        let want = if due { heap.pop() } else { None };
                        let want = want.map(|Reverse((t, _, _, v))| (t, v));
                        assert_eq!(got, want, "seed {seed}");
                        if let Some((t, _)) = got {
                            now = t.as_secs();
                        }
                    }
                }
                assert_eq!(wheel.len(), heap.len(), "seed {seed}");
            }
            // Drain the rest.
            loop {
                let got = wheel.pop();
                let want = heap.pop().map(|Reverse((t, _, _, v))| (t, v));
                assert_eq!(got, want, "seed {seed} drain");
                if got.is_none() {
                    break;
                }
            }
        }
    }

    /// Ranks below 2²⁴; insertions below 2⁴⁰.
    const RANK_LIMIT: u32 = 1 << 24;
    const SEQ_LIMIT: u64 = 1 << 40;

    #[test]
    #[should_panic(expected = "rank 16777216 or insertion 0 is past")]
    fn over_limit_rank_panics() {
        let mut q = EventQueue::new();
        q.push_ranked(ts(1.0), RANK_LIMIT, ());
    }

    #[test]
    #[should_panic(expected = "rank 0 or insertion 1099511627776 is past")]
    fn over_limit_insertion_count_panics_once_ranked() {
        let mut q = EventQueue::new();
        q.push_ranked(ts(1.0), 1, ());
        q.seq = SEQ_LIMIT;
        // Rank 0 too: its key would now sort among rank 1's.
        q.push(ts(1.0), ());
    }

    #[test]
    fn rank_zero_pushes_never_hit_the_limit() {
        let mut q = EventQueue::new();
        q.seq = u64::MAX - 3;
        q.push(ts(1.0), "b");
        q.push(ts(1.0), "c");
        q.push(ts(0.5), "a");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, ["a", "b", "c"]);
        // Both limits are exclusive: the largest rank at the last
        // insertion still orders.
        let mut q = EventQueue::new();
        q.push_ranked(ts(1.0), RANK_LIMIT - 1, "last");
        q.seq = SEQ_LIMIT - 1;
        q.push_ranked(ts(1.0), 0, "first");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, ["first", "last"]);
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        for k in 0..50 {
            q.push(ts(0.013 * f64::from(k % 7)), k);
        }
        while let Some(t) = q.peek_time() {
            let (pt, _) = q.pop().unwrap();
            assert_eq!(t, pt);
        }
        assert!(q.is_empty());
    }
}
