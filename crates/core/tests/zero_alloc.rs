//! The warp scheduler runs once per sub-core per simulated cycle, so a
//! policy's `pick` must not touch the heap: measured with a counting global
//! allocator whose counter is per thread, so other tests of this binary
//! cannot disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use swiftsim_core::{
    GtoScheduler, IssueMasks, LrrScheduler, TwoLevelScheduler, WarpSchedulerPolicy,
};
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
