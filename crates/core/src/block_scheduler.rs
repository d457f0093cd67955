//! Block Scheduler module (§III-B1).
//!
//! "When an application consisting of many thread blocks is executed on the
//! GPU, the Block Scheduler assigns the blocks to the SMs." The scheduler
//! enforces SM occupancy limits (threads, warps, blocks, registers, shared
//! memory) and hands out blocks in grid order to whichever SM asks. The
//! kernel loop (`twophase.rs`, step 1) asks SM by SM in id order and lets
//! each SM take blocks until it is full, so at launch SM 0 fills to its
//! occupancy limit before SM 1 gets a block; it is not round-robin. Later,
//! a freed slot takes the next block in grid order. It is also where the
//! Metrics Gatherer reads total simulation cycles "after all blocks have
//! completed execution" (§III-C).

use crate::error::SimError;
use swiftsim_config::SmConfig;
use swiftsim_trace::KernelTrace;

/// Per-SM occupancy for one kernel: how many of its blocks fit on an SM at
/// once, and which resource is the limiter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Occupancy {
    /// Maximum concurrently resident blocks per SM.
    pub blocks_per_sm: u32,
    /// The resource that bounds it.
    pub limiter: &'static str,
}

impl Occupancy {
    /// Compute occupancy of `kernel` on `sm`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BlockTooLarge`] when even a single block exceeds
    /// an SM resource.
    pub fn compute(sm: &SmConfig, kernel: &KernelTrace) -> Result<Occupancy, SimError> {
        let threads = kernel.threads_per_block().max(1);
        let warps = kernel.warps_per_block(sm.warp_size).max(1);
        let err = |resource: &str| SimError::BlockTooLarge {
            kernel: kernel.name.clone(),
            resource: resource.to_owned(),
        };

        let mut limits: Vec<(u32, &'static str)> = vec![
            (sm.max_blocks, "block slots"),
            (sm.max_threads / threads, "threads"),
            (sm.max_warps / warps, "warps"),
        ];
        if let Some(by_shmem) = sm.shared_mem_bytes.checked_div(kernel.shared_mem_bytes) {
            limits.push((by_shmem, "shared memory"));
        }
        let regs_per_block = kernel.regs_per_thread.saturating_mul(threads);
        if let Some(by_regs) = sm.registers.checked_div(regs_per_block) {
            limits.push((by_regs, "registers"));
        }

        let (blocks, limiter) = limits
            .into_iter()
            .min_by_key(|&(n, _)| n)
            .expect("limits is never empty");
        if blocks == 0 {
            let resource = match limiter {
                "threads" => "thread capacity",
                "warps" => "warp slots",
                other => other,
            };
            return Err(err(resource));
        }
        Ok(Occupancy {
            blocks_per_sm: blocks,
            limiter,
        })
    }
}

/// Round-robin block-to-SM dispatcher for one kernel launch.
#[derive(Debug, Clone)]
pub struct BlockScheduler {
    total_blocks: usize,
    next_block: usize,
    completed: usize,
    running: Vec<u32>,
    blocks_per_sm: u32,
    dispatched: u64,
}

impl BlockScheduler {
    /// Create a scheduler for `total_blocks` blocks over `num_sms` SMs with
    /// at most `blocks_per_sm` resident blocks each.
    pub fn new(num_sms: usize, total_blocks: usize, blocks_per_sm: u32) -> Self {
        BlockScheduler {
            total_blocks,
            next_block: 0,
            completed: 0,
            running: vec![0; num_sms],
            blocks_per_sm,
            dispatched: 0,
        }
    }

    /// Try to dispatch the next block to SM `sm`. Returns the global block
    /// index, or `None` if the SM is full or all blocks are dispatched.
    pub fn dispatch(&mut self, sm: usize) -> Option<usize> {
        if self.next_block >= self.total_blocks || self.running[sm] >= self.blocks_per_sm {
            return None;
        }
        let block = self.next_block;
        self.next_block += 1;
        self.running[sm] += 1;
        self.dispatched += 1;
        Some(block)
    }

    /// Record completion of a block on SM `sm`, freeing one slot.
    ///
    /// # Panics
    ///
    /// Panics if the SM has no running blocks — a protocol bug.
    pub fn complete(&mut self, sm: usize) {
        assert!(
            self.running[sm] > 0,
            "SM {sm} completed a block it never ran"
        );
        self.running[sm] -= 1;
        self.completed += 1;
    }

    /// Whether every block has completed.
    pub fn all_done(&self) -> bool {
        self.completed == self.total_blocks
    }

    /// Blocks not yet dispatched.
    pub fn remaining(&self) -> usize {
        self.total_blocks - self.next_block
    }

    /// Blocks currently resident on SM `sm`.
    pub fn running_on(&self, sm: usize) -> u32 {
        self.running[sm]
    }

    /// Total dispatches so far (a Metrics Gatherer counter).
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swiftsim_config::presets;

    fn kernel(threads: u32, shmem: u32, regs: u32) -> KernelTrace {
        let mut k = KernelTrace::new("k", (10, 1, 1), (threads, 1, 1));
        k.shared_mem_bytes = shmem;
        k.regs_per_thread = regs;
        k
    }

    #[test]
    fn occupancy_limited_by_threads() {
        let sm = presets::rtx2080ti().sm; // 1024 threads, 16 blocks, 32 warps
        let occ = Occupancy::compute(&sm, &kernel(256, 0, 16)).unwrap();
        // 1024/256 = 4 blocks by threads; warps: 32/8 = 4; blocks: 16.
        assert_eq!(occ.blocks_per_sm, 4);
    }

    #[test]
    fn occupancy_limited_by_shared_memory() {
        let sm = presets::rtx2080ti().sm; // 64 KiB shared
        let occ = Occupancy::compute(&sm, &kernel(64, 32 * 1024, 16)).unwrap();
        assert_eq!(occ.blocks_per_sm, 2);
        assert_eq!(occ.limiter, "shared memory");
    }

    #[test]
    fn occupancy_limited_by_registers() {
        let sm = presets::rtx2080ti().sm; // 65536 registers
                                          // 256 threads * 128 regs = 32768 per block -> 2 blocks.
        let occ = Occupancy::compute(&sm, &kernel(256, 0, 128)).unwrap();
        assert_eq!(occ.blocks_per_sm, 2);
        assert_eq!(occ.limiter, "registers");
    }

    #[test]
    fn oversized_block_is_an_error() {
        let sm = presets::rtx2080ti().sm;
        let err = Occupancy::compute(&sm, &kernel(64, 128 * 1024, 16)).unwrap_err();
        assert!(matches!(err, SimError::BlockTooLarge { .. }));
    }

    #[test]
    fn tiny_kernel_limited_by_block_slots() {
        let sm = presets::rtx2080ti().sm;
        let occ = Occupancy::compute(&sm, &kernel(32, 0, 8)).unwrap();
        assert_eq!(occ.blocks_per_sm, 16);
        assert_eq!(occ.limiter, "block slots");
    }

    #[test]
    fn dispatch_respects_per_sm_limit() {
        let mut bs = BlockScheduler::new(2, 5, 2);
        assert_eq!(bs.dispatch(0), Some(0));
        assert_eq!(bs.dispatch(0), Some(1));
        assert_eq!(bs.dispatch(0), None, "SM 0 is full");
        assert_eq!(bs.dispatch(1), Some(2));
        assert_eq!(bs.running_on(0), 2);
        bs.complete(0);
        assert_eq!(bs.dispatch(0), Some(3));
        assert_eq!(bs.dispatch(1), Some(4));
        assert_eq!(bs.dispatch(1), None, "no blocks left");
        assert_eq!(bs.remaining(), 0);
        assert!(!bs.all_done());
        for sm in [0, 0, 1, 1] {
            bs.complete(sm);
        }
        assert!(bs.all_done());
        assert_eq!(bs.dispatched(), 5);
    }

    #[test]
    #[should_panic(expected = "never ran")]
    fn completing_unknown_block_panics() {
        let mut bs = BlockScheduler::new(1, 1, 1);
        bs.complete(0);
    }

    #[test]
    fn zero_blocks_is_immediately_done() {
        let bs = BlockScheduler::new(4, 0, 8);
        assert!(bs.all_done());
        assert_eq!(bs.remaining(), 0);
    }
}
