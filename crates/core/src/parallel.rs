//! Parallel simulation (§III-B2, evaluated in §IV-B2).
//!
//! "The modular approach provides us with the opportunity for parallel
//! simulation. We can leverage multithreading to simulate applications
//! concurrently, achieving noticeable speedup."
//!
//! A run with `threads` worker threads shards the GPU's SMs into that many
//! contiguous groups ([`split_sms`]); one thread ticks each group, and all
//! of them share one memory system through the two-phase kernel loop in
//! [`crate::twophase`]. A single-threaded run is the one-shard case of the
//! same loop.

/// The worker threads a simulation will use on this host when the run is
/// asked for automatic threading (`RunOptions::with_threads(0)`): the
/// machine's available parallelism. The final count is additionally capped
/// at the simulated GPU's SM count by
/// [`GpuSimulator::try_new`](crate::GpuSimulator::try_new) — a shard needs
/// at least one SM. (An earlier revision hard-capped this at the paper's
/// 50-thread experimental maximum; the cap is gone, the run option
/// decides.)
pub fn max_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Split `total` SMs into `shards` contiguous groups (sizes differ by at
/// most one).
pub(crate) fn split_sms(total: usize, shards: usize) -> Vec<usize> {
    let shards = shards.max(1).min(total.max(1));
    let base = total / shards;
    let extra = total % shards;
    (0..shards).map(|i| base + usize::from(i < extra)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_sms_balances() {
        assert_eq!(split_sms(68, 4), vec![17, 17, 17, 17]);
        assert_eq!(split_sms(7, 3), vec![3, 2, 2]);
        assert_eq!(split_sms(2, 8), vec![1, 1], "never more shards than SMs");
        assert_eq!(split_sms(5, 1), vec![5]);
    }

    #[test]
    fn max_threads_is_positive() {
        assert!(max_threads() >= 1);
    }
}
