//! A calendar queue whose pop order is exactly `(at, seq)` — cycle first,
//! then scheduling order — the order a binary heap keyed on that pair
//! would give, at a cost per event that does not grow with the number of
//! events in flight. The cycle-accurate walk keeps its events in one, and
//! each SM its pending writebacks.
//!
//! The queue keeps one FIFO list per cycle for the `WINDOW` cycles
//! `[base, base + WINDOW)`; the list nodes live in one arena with a free
//! list, so a warmed queue never allocates. An event scheduled beyond the
//! window waits in an `(at, seq)`-sorted overflow list and moves to the
//! tail of its cycle's list the moment that cycle enters the window —
//! which is before anything can be scheduled into that list directly, so
//! every list stays in `seq` order. Far events mostly arrive in cycle
//! order (a memory model's bandwidth clock only moves forward), so the
//! overflow list is appended to, and drained from its front. The base only
//! moves forward, and only over cycles whose lists are empty.
//!
//! `WINDOW` trades memory for reach: each cycle of it costs one 8-byte
//! list head. The walk uses the default 1024 cycles; the per-SM queues,
//! of which a GPU has dozens, use [`SM_WINDOW`].

use crate::Cycle;
use std::collections::VecDeque;

/// The window of the per-SM queues: longer than an ALU latency plus a
/// fetch miss and than an L1 or L2 hit's analytical latency, short enough
/// that a 68-SM GPU's queues take about 140 KB of list heads.
pub(crate) const SM_WINDOW: usize = 256;

const NIL: u32 = u32::MAX;

struct Node<T> {
    /// `None` while the node is on the free list.
    item: Option<T>,
    /// Next node of the same cycle's list, or of the free list.
    next: u32,
}

/// A min-queue of `(at, item)` popped in `(at, scheduling order)` order.
/// `WINDOW` is a power of two of at least 64 cycles.
pub(crate) struct CalendarQueue<T, const WINDOW: usize = 1024> {
    /// First cycle of the window; every listed event is at or after it.
    base: Cycle,
    /// `(head, tail)` node of each cycle's list, indexed by `at % WINDOW`.
    lists: Box<[(u32, u32)]>,
    /// Bit `at % WINDOW` is set while that cycle's list is non-empty.
    busy: Box<[u64]>,
    nodes: Vec<Node<T>>,
    free: u32,
    /// Events at or beyond `base + WINDOW`, `(at, seq, node)` in ascending
    /// order.
    overflow: VecDeque<(Cycle, u64, u32)>,
    /// Events scheduled so far (the next event's `seq`).
    scheduled: u64,
    len: usize,
}

impl<T, const WINDOW: usize> CalendarQueue<T, WINDOW> {
    const WINDOW_CYCLES: Cycle = {
        assert!(WINDOW.is_power_of_two() && WINDOW >= 64);
        WINDOW as Cycle
    };

    pub(crate) fn new() -> Self {
        CalendarQueue {
            base: 0,
            lists: vec![(NIL, NIL); WINDOW].into_boxed_slice(),
            busy: vec![0; WINDOW / 64].into_boxed_slice(),
            nodes: Vec::new(),
            free: NIL,
            overflow: VecDeque::new(),
            scheduled: 0,
            len: 0,
        }
    }

    /// Events waiting.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Events ever scheduled, the `seq` the next one gets.
    #[cfg(test)]
    pub(crate) fn scheduled(&self) -> u64 {
        self.scheduled
    }

    /// Schedule `item` at cycle `at`, which must not precede the window:
    /// callers schedule at or after the cycle of their last `pop_due`.
    pub(crate) fn push(&mut self, at: Cycle, item: T) {
        debug_assert!(
            at >= self.base,
            "event at cycle {at} scheduled before the queue's base {}",
            self.base
        );
        let seq = self.scheduled;
        self.scheduled += 1;
        self.len += 1;
        let node = self.alloc(item);
        if at < self.base + Self::WINDOW_CYCLES {
            self.link(at, node);
        } else {
            // `seq` only grows, so an event goes after every one of its cycle.
            if self.overflow.back().is_none_or(|&(last, ..)| last <= at) {
                self.overflow.push_back((at, seq, node));
            } else {
                let i = self.overflow.partition_point(|&(t, ..)| t <= at);
                self.overflow.insert(i, (at, seq, node));
            }
        }
    }

    /// Remove and return the earliest event due by `now`, if any. Once none
    /// is left, the window moves up to `now`.
    pub(crate) fn pop_due(&mut self, now: Cycle) -> Option<(Cycle, T)> {
        loop {
            if let Some(at) = self.first_busy(now) {
                self.move_base(at);
                return Some((at, self.unlink_head(at)));
            }
            match self.overflow.front() {
                Some(&(at, ..)) if at <= now => self.move_base(at),
                _ => break,
            }
        }
        if now > self.base {
            self.move_base(now);
        }
        None
    }

    /// Earliest scheduled cycle, if any event waits.
    pub(crate) fn next_at(&self) -> Option<Cycle> {
        self.first_busy(Cycle::MAX)
            .or_else(|| self.overflow.front().map(|&(at, ..)| at))
    }

    /// First cycle in `[base, min(last, base + WINDOW - 1)]` whose list is
    /// non-empty.
    fn first_busy(&self, last: Cycle) -> Option<Cycle> {
        let last = last.min(self.base + Self::WINDOW_CYCLES - 1);
        let mut c = self.base;
        while c <= last {
            let slot = c as usize % WINDOW;
            let word = self.busy[slot / 64] >> (slot % 64);
            if word != 0 {
                let at = c + Cycle::from(word.trailing_zeros());
                return (at <= last).then_some(at);
            }
            c += (64 - slot % 64) as Cycle;
        }
        None
    }

    /// Move the window's start to `base`, which must not pass a non-empty
    /// list, and pull every overflow event whose cycle entered the window.
    fn move_base(&mut self, base: Cycle) {
        debug_assert!(base >= self.base);
        self.base = base;
        let horizon = base + Self::WINDOW_CYCLES;
        while let Some(&(at, _, node)) = self.overflow.front() {
            if at >= horizon {
                break;
            }
            self.overflow.pop_front();
            self.link(at, node);
        }
    }

    fn alloc(&mut self, item: T) -> u32 {
        if self.free == NIL {
            let node = u32::try_from(self.nodes.len()).expect("fewer than 2^32 events in flight");
            self.nodes.push(Node {
                item: Some(item),
                next: NIL,
            });
            return node;
        }
        let node = self.free;
        let slot = &mut self.nodes[node as usize];
        self.free = slot.next;
        slot.item = Some(item);
        slot.next = NIL;
        node
    }

    /// Append `node` to the list of cycle `at` (inside the window).
    fn link(&mut self, at: Cycle, node: u32) {
        let slot = at as usize % WINDOW;
        let (head, tail) = &mut self.lists[slot];
        if *tail == NIL {
            *head = node;
            self.busy[slot / 64] |= 1 << (slot % 64);
        } else {
            self.nodes[*tail as usize].next = node;
        }
        *tail = node;
    }

    /// Pop the head of cycle `at`'s (non-empty) list.
    fn unlink_head(&mut self, at: Cycle) -> T {
        let slot = at as usize % WINDOW;
        let node = self.lists[slot].0;
        let entry = &mut self.nodes[node as usize];
        let item = entry.item.take().expect("a listed node holds an event");
        let next = std::mem::replace(&mut entry.next, self.free);
        self.free = node;
        self.len -= 1;
        if next == NIL {
            self.lists[slot] = (NIL, NIL);
            self.busy[slot / 64] &= !(1 << (slot % 64));
        } else {
            self.lists[slot].0 = next;
        }
        item
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    use swiftsim_rng::SmallRng;

    /// The default window, which these tests' queues use.
    const WINDOW_CYCLES: Cycle = 1024;

    /// The order contract, spelled out: a binary heap over `(at, seq)`.
    #[derive(Default)]
    struct Reference {
        heap: BinaryHeap<Reverse<(Cycle, u64)>>,
        seq: u64,
    }

    impl Reference {
        fn push(&mut self, at: Cycle) -> u64 {
            let seq = self.seq;
            self.seq += 1;
            self.heap.push(Reverse((at, seq)));
            seq
        }

        fn pop_due(&mut self, now: Cycle) -> Option<(Cycle, u64)> {
            let &Reverse((at, _)) = self.heap.peek()?;
            (at <= now).then(|| self.heap.pop().expect("peeked").0)
        }
    }

    /// Both queues, fed the same schedule; every pop must agree.
    struct Pair {
        wheel: CalendarQueue<u64>,
        reference: Reference,
        popped: u64,
    }

    impl Pair {
        fn new() -> Self {
            Pair {
                wheel: CalendarQueue::new(),
                reference: Reference::default(),
                popped: 0,
            }
        }

        fn push(&mut self, at: Cycle) {
            let seq = self.reference.push(at);
            self.wheel.push(at, seq);
        }

        fn check_next(&self) {
            assert_eq!(
                self.wheel.next_at(),
                self.reference.heap.peek().map(|&Reverse((at, _))| at),
                "next_at after {} pops",
                self.popped
            );
            assert_eq!(self.wheel.len(), self.reference.heap.len());
        }

        /// Drain everything due by `now`; each popped event may schedule
        /// more (`react`), at its own cycle or later, as handlers do.
        fn advance(&mut self, now: Cycle, mut react: impl FnMut(Cycle) -> Vec<Cycle>) {
            loop {
                let got = self.wheel.pop_due(now);
                assert_eq!(got, self.reference.pop_due(now), "pop {}", self.popped);
                let Some((at, _)) = got else { break };
                self.popped += 1;
                for t in react(at) {
                    self.push(t);
                }
            }
            self.check_next();
        }
    }

    /// A delay that lands anywhere: the same cycle, short hops, the window
    /// edge exactly, and far beyond it.
    fn delay(rng: &mut SmallRng) -> Cycle {
        let w = WINDOW_CYCLES;
        match rng.gen_range(0u32..8) {
            0 => 0,
            1 => rng.gen_range(1..4),
            2 => rng.gen_range(w - 2..w + 2),
            3 => rng.gen_range(w..4 * w),
            _ => rng.gen_range(0..300),
        }
    }

    #[test]
    fn pops_in_at_seq_order_over_random_schedules() {
        for seed in 0..24u64 {
            let mut rng = SmallRng::seed_from_u64(0xca1e_0000 + seed);
            let mut pair = Pair::new();
            let mut now: Cycle = rng.gen_range(0..5_000);
            for _ in 0..400 {
                // Same-cycle bursts and scattered events from "accesses".
                for _ in 0..rng.gen_range(0usize..6) {
                    let at = now + delay(&mut rng);
                    let burst = if rng.gen_bool(0.2) { 8 } else { 1 };
                    for _ in 0..burst {
                        pair.push(at);
                    }
                }
                // Late commits: accesses applied after the advance at
                // `now` (a worker shard's), some due within a few cycles.
                if rng.gen_bool(0.1) {
                    for _ in 0..rng.gen_range(1usize..20) {
                        pair.push(now + rng.gen_range(0..32) + delay(&mut rng));
                    }
                }
                now += match rng.gen_range(0u32..10) {
                    0 => rng.gen_range(2 * WINDOW_CYCLES..20 * WINDOW_CYCLES),
                    1 => 32,
                    2 => WINDOW_CYCLES,
                    _ => rng.gen_range(0..4),
                };
                // Handlers schedule at or after the event they handle; under
                // a late advance that can still be before `now`.
                let mut fanout = SmallRng::seed_from_u64(now);
                pair.advance(now, |at| {
                    (0..fanout.gen_range(0usize..2))
                        .map(|_| at + delay(&mut fanout) / 2)
                        .collect()
                });
            }
            pair.advance(1 << 50, |_| Vec::new());
            assert!(pair.popped > 500, "seed {seed}: only {} pops", pair.popped);
            assert_eq!(pair.wheel.len(), 0);
        }
    }

    /// An SM's writeback queue against a binary heap: every cycle drains
    /// the same events (as a multiset: writebacks commute, so the SM lands
    /// a cycle's in any order) and agrees on the next event's cycle, over
    /// seeded schedules inside the window, at its edge and beyond it.
    #[test]
    fn sm_window_drains_what_a_heap_drains() {
        let w = SM_WINDOW as Cycle;
        for seed in 0..16u64 {
            let mut rng = SmallRng::seed_from_u64(0x5e_0000 + seed);
            let mut queue: CalendarQueue<u32, SM_WINDOW> = CalendarQueue::new();
            let mut heap: BinaryHeap<Reverse<(Cycle, u32)>> = BinaryHeap::new();
            let mut now: Cycle = rng.gen_range(0..3 * w);
            let (mut drained, mut id) = (0, 0u32);
            for _ in 0..3_000 {
                for _ in 0..rng.gen_range(0usize..4) {
                    let at = match rng.gen_range(0u32..8) {
                        0 => now,
                        1 => now + rng.gen_range(w - 2..w + 2),
                        2 => now + rng.gen_range(w..8 * w),
                        _ => now + rng.gen_range(1..64),
                    };
                    queue.push(at, id);
                    heap.push(Reverse((at, id)));
                    id += 1;
                }
                now += match rng.gen_range(0u32..16) {
                    0 => rng.gen_range(w..4 * w),
                    _ => rng.gen_range(0..4),
                };
                let mut got = Vec::new();
                while let Some((at, item)) = queue.pop_due(now) {
                    assert!(at <= now);
                    got.push((at, item));
                }
                let mut want = Vec::new();
                while heap.peek().is_some_and(|&Reverse((at, _))| at <= now) {
                    want.push(heap.pop().expect("peeked").0);
                }
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "seed {seed}, cycle {now}");
                drained += got.len();
                let next = heap.peek().map(|&Reverse((at, _))| at);
                assert_eq!(queue.next_at(), next, "seed {seed}, cycle {now}");
                assert_eq!(queue.len(), heap.len());
            }
            assert!(drained > 2_000, "seed {seed}: only {drained} drained");
        }
    }

    /// Events that wait in the overflow list for their cycle meet events
    /// scheduled into the same cycle directly once it entered the window;
    /// the overflowed ones were scheduled first, so they pop first.
    #[test]
    fn overflow_events_precede_later_direct_ones_of_their_cycle() {
        let mut pair = Pair::new();
        let far = 3 * WINDOW_CYCLES + 5;
        pair.push(far);
        pair.push(far);
        pair.push(WINDOW_CYCLES); // exactly at the first window's edge
        pair.push(WINDOW_CYCLES - 1);
        pair.advance(far - WINDOW_CYCLES + 1, |_| Vec::new());
        pair.push(far);
        pair.push(far - 1);
        pair.advance(far, |at| if at == far - 1 { vec![far] } else { Vec::new() });
        assert_eq!(pair.popped, 7);
    }

    /// An idle queue jumps any distance, and events scheduled at the cycle
    /// being drained pop in the same drain, after what was already there.
    #[test]
    fn same_cycle_events_join_the_drain() {
        let mut pair = Pair::new();
        pair.push(10);
        pair.push(10);
        let mut budget = 5;
        pair.advance(10, |at| {
            budget -= 1;
            if budget > 0 {
                vec![at, at + 1]
            } else {
                Vec::new()
            }
        });
        pair.advance(1 << 40, |_| Vec::new());
        pair.push((1 << 40) + 3);
        pair.advance(1 << 41, |_| Vec::new());
        assert_eq!(pair.popped, 2 + 2 * 4 + 1);
    }

    /// A warmed queue allocates nothing: the crate forbids the `unsafe` a
    /// counting allocator needs, so the check is that no heap-owning part
    /// grows. (`tests/zero_alloc.rs` counts blocks through the walk.)
    #[test]
    fn warmed_push_pop_loop_keeps_its_capacity() {
        let mut queue = CalendarQueue::new();
        let mut rng = SmallRng::seed_from_u64(11);
        let mut now = 0;
        let mut round = |queue: &mut CalendarQueue<u64>| {
            for _ in 0..rng.gen_range(0usize..8) {
                queue.push(now + delay(&mut rng), 0);
            }
            now += rng.gen_range(0..8);
            while let Some(item) = queue.pop_due(now) {
                std::hint::black_box(item);
            }
        };
        for _ in 0..20_000 {
            round(&mut queue);
        }
        let warm = (queue.nodes.capacity(), queue.overflow.capacity());
        assert!(warm.1 > 0, "the load reaches beyond the window");
        for _ in 0..20_000 {
            round(&mut queue);
        }
        assert_eq!((queue.nodes.capacity(), queue.overflow.capacity()), warm);
    }
}
