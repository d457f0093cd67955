//! The warp scheduler runs once per sub-core per simulated cycle, so a
//! policy's `pick` must not touch the heap, and neither may the
//! cycle-accurate memory walk's event queue and request table: measured
//! with a counting global allocator whose counter is per thread, so other
//! tests of this binary cannot disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use swiftsim_core::mem_system::{CycleAccurateMemory, MemCompletion};
use swiftsim_core::{
    GtoScheduler, IssueMasks, LrrScheduler, MemReply, MemorySystem, TwoLevelScheduler,
    WarpSchedulerPolicy,
};
use swiftsim_mem::MemTxn;
use swiftsim_rng::SmallRng;

thread_local! {
    /// Heap blocks this thread requested (`alloc` and every `realloc`).
    static BLOCKS: Cell<usize> = const { Cell::new(0) };
}

fn count_block() {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = BLOCKS.try_with(|b| b.set(b.get() + 1));
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping around it only touches a
// `const`-initialised thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_block();
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_block();
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// One pick over a full sub-core of 48 warps in six blocks of unequal age,
/// with random ready warps and a random warp exited, so the active set and
/// greedy targets keep changing.
fn pick_once(policy: &mut dyn WarpSchedulerPolicy, rng: &mut SmallRng, now: u64) {
    const AGES: [u64; 6] = [5, 3, 3, 9, 0, 7];
    let live = (u64::MAX >> 16) & !(1 << rng.gen_range(0u32..48));
    let warps = IssueMasks {
        live,
        ready: live & rng.next_u64() & rng.next_u64(),
        slot_bits: 8,
        ages: &AGES,
    };
    std::hint::black_box(policy.pick(&warps, now));
}

#[test]
fn warmed_picks_do_not_allocate() {
    const WARM_UP: u64 = 1_000;
    const MEASURED: u64 = 10_000;
    let policies: [Box<dyn WarpSchedulerPolicy>; 3] = [
        Box::new(GtoScheduler::new()),
        Box::new(LrrScheduler::new()),
        // The active-set size the simulator configures.
        Box::new(TwoLevelScheduler::new(8)),
    ];
    for mut policy in policies {
        let mut rng = SmallRng::seed_from_u64(7);
        for now in 0..WARM_UP {
            pick_once(policy.as_mut(), &mut rng, now);
        }

        let before = BLOCKS.with(Cell::get);
        for now in WARM_UP..WARM_UP + MEASURED {
            pick_once(policy.as_mut(), &mut rng, now);
        }
        let blocks = BLOCKS.with(Cell::get) - before;
        assert_eq!(
            blocks,
            0,
            "{}: {MEASURED} warmed picks requested {blocks} heap blocks",
            policy.name()
        );
    }
}

/// A warmed walk whose loads hit SM 0's L1 and whose stores go from SM 1
/// through the NoC to L2 lines they hit: every access takes and frees a
/// request slot, every store schedules and drains an L2 event, and none
/// allocates an MSHR entry (whose waiter list is the one allocation a miss
/// still makes).
#[test]
fn warmed_memory_walk_does_not_allocate() {
    let mut cfg = swiftsim_config::presets::rtx2080ti();
    cfg.num_sms = 2;
    cfg.memory.partitions = 2;
    let mut mem = CycleAccurateMemory::new(&cfg);
    let txn = |line: u64, write: bool| MemTxn {
        line_addr: line * 128,
        sector_mask: 0b1111,
        write,
    };
    let lines = 0..64u64;
    let mut done: Vec<MemCompletion> = Vec::with_capacity(64);
    let mut now = 0;
    for line in lines.clone() {
        mem.access(0, 0, &[txn(line, false)], now);
    }
    let round = |mem: &mut CycleAccurateMemory, now: &mut u64, done: &mut Vec<MemCompletion>| {
        for line in lines.clone() {
            let load = mem.access(0, 0, &[txn(line, false)], *now);
            let store = mem.access(1, 16, &[txn(line, true)], *now);
            assert!(matches!(
                (load, store),
                (MemReply::Done(_), MemReply::Done(_))
            ));
        }
        for _ in 0..200 {
            *now += 1;
            mem.advance(*now, done);
        }
        assert!(mem.next_event().is_none(), "every store drained");
    };
    while let Some(at) = mem.next_event() {
        now = at;
        mem.advance(now, &mut done);
    }
    assert_eq!(done.len(), 64, "the warm-up loads all completed");
    for _ in 0..20 {
        round(&mut mem, &mut now, &mut done);
    }

    let events = |mem: &CycleAccurateMemory| {
        let mut metrics = swiftsim_metrics::MetricsCollector::new();
        mem.report(&mut metrics);
        metrics.count("mem.events").expect("reported")
    };
    let events_before = events(&mem);

    let before = BLOCKS.with(Cell::get);
    for _ in 0..200 {
        round(&mut mem, &mut now, &mut done);
    }
    let blocks = BLOCKS.with(Cell::get) - before;
    assert_eq!(
        blocks, 0,
        "200 warmed rounds requested {blocks} heap blocks"
    );
    assert!(
        events(&mem) - events_before >= 200 * 64,
        "every store went through the event queue"
    );
}
