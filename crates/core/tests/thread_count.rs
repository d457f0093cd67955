//! `--threads N` on the two-phase engine means N OS threads: the calling
//! thread is shard 0 as well as the coordinator, and the other N-1 shards
//! are workers. Measured from the outside, as the kernel counts it.
//!
//! This file holds exactly one test so nothing else in the process spawns
//! threads while it samples.
#![cfg(target_os = "linux")]

use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use swiftsim_config::presets;
use swiftsim_core::{RunOptions, SimulatorPreset};
use swiftsim_workloads::Scale;

/// `Threads:` of `/proc/self/status`.
fn os_threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .expect("procfs")
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("Threads: line")
        .trim()
        .parse()
        .expect("thread count")
}

#[test]
fn n_threads_means_n_os_threads() {
    let mut cfg = presets::rtx2080ti();
    cfg.num_sms = 4;
    cfg.memory.partitions = 4;
    // In-memory source: no decode thread to discount. One kernel: workers
    // are spawned per kernel, and a thread that has just been joined can
    // still be counted for an instant, which would inflate a peak taken
    // across a kernel boundary.
    let app = swiftsim_workloads::by_name("gemm")
        .expect("gemm workload")
        .generate(Scale::Tiny);
    assert_eq!(app.kernels().len(), 1);
    let before = os_threads();

    for threads in [2usize, 4] {
        // Let the previous round's threads leave the count.
        while os_threads() != before {
            std::thread::yield_now();
        }
        let (sampling, stop) = (AtomicBool::new(false), AtomicBool::new(false));
        let peak = std::thread::scope(|scope| {
            let sampler = scope.spawn(|| {
                let mut peak = 0;
                while !stop.load(SeqCst) {
                    peak = peak.max(os_threads());
                    sampling.store(true, SeqCst);
                    std::thread::yield_now();
                }
                peak
            });
            while !sampling.load(SeqCst) {
                std::thread::yield_now();
            }
            swiftsim_core::run(
                &app,
                &cfg,
                &RunOptions::default()
                    .with_preset(SimulatorPreset::SwiftBasic)
                    .with_threads(threads),
            )
            .expect("run completes");
            stop.store(true, SeqCst);
            sampler.join().expect("sampler")
        });
        // The sampler itself, plus one worker per shard except shard 0.
        assert_eq!(
            peak,
            before + 1 + (threads - 1),
            "{threads} simulation threads: {before} OS threads before the run, peak {peak} during"
        );
    }
}
