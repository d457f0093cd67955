//! The analytical pre-pass's inner loop — coalesce an instruction, replay
//! its transactions through the functional caches — must not touch the
//! heap once its buffers and tables are warm, however hard the stream
//! thrashes. Measured with a counting global allocator whose counter is
//! per thread, so other tests of this binary cannot disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use swiftsim_config::presets;
use swiftsim_mem::{
    coalesce_accesses_into, coalesce_strided_into, AddressMapping, FunctionalCacheSim, MemTxn,
    ServedBy,
};

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

/// One memory instruction of a stream that never reuses a line: 32 lanes
/// a line apart in a fresh 4 KiB window, so once the caches have filled
/// every transaction evicts in its L1 (loads) and in its L2 slice. Odd
/// instructions carry explicit addresses in a scrambled lane order, which
/// drives the coalescer's search-and-insert fallback; even ones are
/// strided. Returns how many of its transactions DRAM served.
fn replay_instruction(
    i: u64,
    mapping: &AddressMapping,
    sim: &mut FunctionalCacheSim,
    txns: &mut Vec<MemTxn>,
) -> u64 {
    let base = i * 4096;
    let write = i.is_multiple_of(3);
    if i.is_multiple_of(2) {
        coalesce_strided_into(mapping, base, 128, 32, 4, write, txns);
    } else {
        let mut lanes = [0u64; 32];
        for (lane, addr) in (0u64..).zip(&mut lanes) {
            *addr = base + (lane * 7 % 32) * 128;
        }
        coalesce_accesses_into(mapping, &lanes, 4, write, txns);
    }
    assert_eq!(txns.len(), 32);
    let from_dram = txns
        .iter()
        .filter(|&&txn| sim.access((i % 68) as usize, (i % 4) as u32 * 8, txn) == ServedBy::Dram)
        .count();
    from_dram as u64
}

#[test]
fn warmed_replay_and_coalescing_do_not_allocate() {
    const WARM_UP: u64 = 4_000;
    const MEASURED: u64 = 10_000;
    let cfg = presets::rtx2080ti();
    let mapping = AddressMapping::new(&cfg.sm.l1d);
    let mut sim = FunctionalCacheSim::new(&cfg);
    let mut txns = Vec::new();
    let mut from_dram = 0;
    // 128 k distinct lines: three times what the L2 holds, and 1.9 k per
    // L1 of 512.
    for i in 0..WARM_UP {
        from_dram += replay_instruction(i, &mapping, &mut sim, &mut txns);
    }

    let before = BLOCKS.with(Cell::get);
    for i in WARM_UP..WARM_UP + MEASURED {
        from_dram += replay_instruction(i, &mapping, &mut sim, &mut txns);
    }
    let blocks = BLOCKS.with(Cell::get) - before;

    assert_eq!(sim.accesses(), (WARM_UP + MEASURED) * 32);
    assert_eq!(from_dram, sim.accesses(), "the stream must thrash");
    assert_eq!(
        blocks, 0,
        "{MEASURED} warmed instructions requested {blocks} heap blocks"
    );
}
