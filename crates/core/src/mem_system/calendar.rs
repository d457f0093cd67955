//! The cycle-accurate walk's event queue: a calendar queue whose pop order
//! is exactly `(at, seq)` — cycle first, then scheduling order — the order
//! a binary heap keyed on that pair would give, at a cost per event that
//! does not grow with the number of events in flight.
//!
//! The queue keeps one FIFO list per cycle for the [`WINDOW`] cycles
//! `[base, base + WINDOW)`; the list nodes live in one arena with a free
//! list, so a warmed queue never allocates. An event scheduled beyond the
//! window waits in a small `(at, seq)`-ordered overflow heap and moves to
//! the tail of its cycle's list the moment that cycle enters the window —
//! which is before anything can be scheduled into that list directly, so
//! every list stays in `seq` order. The base only moves forward, and only
//! over cycles whose lists are empty.

use crate::Cycle;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Cycles covered by per-cycle lists. A power of two, so a cycle's list is
/// its low bits; larger than the walk's usual scheduling distances (NoC,
/// L2 and DRAM latencies plus queueing), so the overflow heap stays small.
const WINDOW: usize = 1024;

const NIL: u32 = u32::MAX;
const WINDOW_CYCLES: Cycle = WINDOW as Cycle;

struct Node<T> {
    /// `None` while the node is on the free list.
    item: Option<T>,
    /// Next node of the same cycle's list, or of the free list.
    next: u32,
}

/// A min-queue of `(at, item)` popped in `(at, scheduling order)` order.
pub(super) struct CalendarQueue<T> {
    /// First cycle of the window; no event is scheduled before it.
    base: Cycle,
    /// `(head, tail)` node of each cycle's list, indexed by `at % WINDOW`.
    lists: Vec<(u32, u32)>,
    /// Bit `at % WINDOW` is set while that cycle's list is non-empty.
    busy: [u64; WINDOW / 64],
    nodes: Vec<Node<T>>,
    free: u32,
    /// Events at or beyond `base + WINDOW`: `(at, seq, node)`.
    overflow: BinaryHeap<Reverse<(Cycle, u64, u32)>>,
    /// Events scheduled so far (the next event's `seq`).
    scheduled: u64,
    len: usize,
}

impl<T> CalendarQueue<T> {
    pub(super) fn new() -> Self {
        CalendarQueue {
            base: 0,
            lists: vec![(NIL, NIL); WINDOW],
            busy: [0; WINDOW / 64],
            nodes: Vec::new(),
            free: NIL,
            overflow: BinaryHeap::new(),
            scheduled: 0,
            len: 0,
        }
    }

    /// Events waiting.
    pub(super) fn len(&self) -> usize {
        self.len
    }

    /// Events ever scheduled, the `seq` the next one gets.
    pub(super) fn scheduled(&self) -> u64 {
        self.scheduled
    }

    /// Resume the scheduling counter (snapshot restore; queue empty).
    pub(super) fn set_scheduled(&mut self, scheduled: u64) {
        debug_assert_eq!(self.len, 0, "the counter moves only on an empty queue");
        self.scheduled = scheduled;
    }

    /// Schedule `item` at cycle `at`, which must not precede the window:
    /// callers schedule at or after the cycle of their last `pop_due`.
    pub(super) fn push(&mut self, at: Cycle, item: T) {
        debug_assert!(
            at >= self.base,
            "event at cycle {at} scheduled before the queue's base {}",
            self.base
        );
        let seq = self.scheduled;
        self.scheduled += 1;
        self.len += 1;
        let node = self.alloc(item);
        if at < self.base + WINDOW_CYCLES {
            self.link(at, node);
        } else {
            self.overflow.push(Reverse((at, seq, node)));
        }
    }

    /// Remove and return the earliest event due by `now`, if any. Once none
    /// is left, the window moves up to `now`.
    pub(super) fn pop_due(&mut self, now: Cycle) -> Option<(Cycle, T)> {
        loop {
            if let Some(at) = self.first_busy(now) {
                self.move_base(at);
                return Some((at, self.unlink_head(at)));
            }
            match self.overflow.peek() {
                Some(&Reverse((at, _, _))) if at <= now => self.move_base(at),
                _ => break,
            }
        }
        if now > self.base {
            self.move_base(now);
        }
        None
    }

    /// Earliest scheduled cycle, if any event waits.
    pub(super) fn next_at(&self) -> Option<Cycle> {
        self.first_busy(Cycle::MAX)
            .or_else(|| self.overflow.peek().map(|&Reverse((at, _, _))| at))
    }

    /// First cycle in `[base, min(last, base + WINDOW - 1)]` whose list is
    /// non-empty.
    fn first_busy(&self, last: Cycle) -> Option<Cycle> {
        let last = last.min(self.base + WINDOW_CYCLES - 1);
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
        let horizon = base + WINDOW_CYCLES;
        while let Some(&Reverse((at, _, node))) = self.overflow.peek() {
            if at >= horizon {
                break;
            }
            self.overflow.pop();
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
    use swiftsim_rng::SmallRng;

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

    /// Events that wait in the overflow heap for their cycle meet events
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
