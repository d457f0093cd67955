//! Kernel-level sampling accuracy: a sampled run's predicted cycles must
//! stay within the error bound it reports.
//!
//! The workload is the interesting case for sampling — an iterative app
//! that launches the *same* kernels over and over (the training-loop shape
//! §III motivates sampling with). Repeated launches share a `KernelMeta`
//! cluster, so `cluster:N` simulates the first N instances of each cluster
//! in detail and replays the rest, and the `confidence` block quantifies
//! the replay error. Ground truth is the identical run with sampling off.

use swiftsim_config::presets;
use swiftsim_core::{run, RunOptions, SamplingPolicy, SimulatorPreset};
use swiftsim_trace::ApplicationTrace;
use swiftsim_workloads::{MemPattern, Mix, PatternKernel, Scale};

fn small_gpu() -> swiftsim_config::GpuConfig {
    let mut cfg = presets::rtx2080ti();
    cfg.num_sms = 4;
    cfg.memory.partitions = 4;
    cfg
}

/// An iterative application: `iters` identical launches of a compute
/// kernel interleaved with `iters` identical launches of a memory-heavy
/// kernel — two clusters, many repeats each.
fn iterative_app(iters: usize) -> ApplicationTrace {
    let compute = PatternKernel {
        name: "train_step".to_owned(),
        blocks: 16,
        threads_per_block: 128,
        iters: 6,
        mix: Mix {
            loads: 1,
            stores: 1,
            fp: 6,
            int_ops: 2,
            ..Mix::default()
        },
        pattern: MemPattern::Streaming,
        shared_mem_bytes: 0,
        regs_per_thread: 32,
        barrier: false,
    }
    .generate(Scale::Tiny);
    let reduce = PatternKernel {
        name: "grad_reduce".to_owned(),
        blocks: 8,
        threads_per_block: 128,
        iters: 4,
        mix: Mix {
            loads: 3,
            stores: 1,
            int_ops: 2,
            ..Mix::default()
        },
        pattern: MemPattern::Strided { lane_stride: 128 },
        shared_mem_bytes: 0,
        regs_per_thread: 32,
        barrier: false,
    }
    .generate(Scale::Tiny);

    let mut kernels = Vec::with_capacity(iters * 2);
    for _ in 0..iters {
        kernels.push(compute.clone());
        kernels.push(reduce.clone());
    }
    ApplicationTrace::new("train_loop", kernels)
}

#[test]
fn sampled_error_stays_within_the_reported_bound() {
    let app = iterative_app(10); // 20 launches, 2 clusters
    let gpu = small_gpu();

    for preset in [SimulatorPreset::SwiftBasic, SimulatorPreset::SwiftMemory] {
        let exact =
            run(&app, &gpu, &RunOptions::default().with_preset(preset)).expect("ground-truth run");
        assert!(
            exact.confidence.is_none(),
            "no confidence block when sampling is off"
        );

        let sampled = run(
            &app,
            &gpu,
            &RunOptions::default()
                .with_preset(preset)
                .with_sampling(SamplingPolicy::KernelCluster { reps: 2 }),
        )
        .expect("sampled run");
        let conf = sampled
            .confidence
            .as_ref()
            .expect("sampled runs report confidence");

        assert_eq!(conf.clusters, 2, "two distinct launch shapes");
        assert_eq!(conf.sampled_kernels, 4, "2 reps x 2 clusters in detail");
        assert_eq!(conf.replayed_kernels, 16, "the other 16 launches replay");
        assert_eq!(conf.kernel_error_bounds.len(), sampled.kernels.len());
        assert!(conf.replayed_cycles > 0);
        assert!(
            conf.app_error_bound >= 0.0 && conf.app_error_bound < 1.0,
            "bound {} out of range",
            conf.app_error_bound
        );

        let rel_error = (sampled.cycles as f64 - exact.cycles as f64).abs() / exact.cycles as f64;
        assert!(
            rel_error <= conf.app_error_bound + 1e-9,
            "{preset:?}: sampled {} vs exact {} is {:.4} relative error, \
             above the reported bound {:.4}",
            sampled.cycles,
            exact.cycles,
            rel_error,
            conf.app_error_bound
        );

        // Replays never decode the trace, but the per-kernel results still
        // name every launch in order.
        assert_eq!(sampled.kernels.len(), exact.kernels.len());
        for (s, e) in sampled.kernels.iter().zip(&exact.kernels) {
            assert_eq!(s.name, e.name, "launch order is preserved");
        }
        // Instruction counts are exact under replay: every instance of a
        // cluster carries the same trace body.
        assert_eq!(
            sampled.instructions(),
            exact.instructions(),
            "{preset:?}: replayed instruction counts"
        );
    }
}

#[test]
fn singleton_clusters_fall_back_to_the_error_floor() {
    // Every kernel distinct: sampling finds no repeats, everything is a
    // representative, nothing replays, and the result is exact.
    let app = swiftsim_workloads::ingest_stress_app(8_000);
    let gpu = small_gpu();
    let exact = run(
        &app,
        &gpu,
        &RunOptions::default().with_preset(SimulatorPreset::SwiftMemory),
    )
    .expect("exact run");
    let sampled = run(
        &app,
        &gpu,
        &RunOptions::default()
            .with_preset(SimulatorPreset::SwiftMemory)
            .with_sampling(SamplingPolicy::KernelCluster { reps: 1 }),
    )
    .expect("sampled run");
    let conf = sampled.confidence.as_ref().expect("confidence present");
    assert_eq!(conf.clusters, 8, "eight distinct kernels, eight clusters");
    assert_eq!(conf.replayed_kernels, 0, "nothing to replay");
    assert_eq!(conf.app_error_bound, 0.0, "no replayed cycles, no error");
    assert_eq!(sampled.cycles, exact.cycles, "all-detailed run is exact");
    assert_eq!(sampled.kernels, exact.kernels);
}
