//! Simulator construction and the single-threaded engine loop.
//!
//! "Based on the modular modeling approach, we can adopt various modeling
//! methods for a single module" (§III-B3). A simulator instance is a
//! hardware description ([`GpuConfig`]) plus one [`RunOptions`] value
//! carrying everything else — fidelity (including sampling), thread count,
//! profiling, checkpointing. [`SimulatorPreset`] is a pure alias table over
//! the fidelity plan (see [`FidelityConfig::for_preset`]).
//!
//! The one-call entry point is the free [`run`]:
//!
//! ```
//! use swiftsim_config::presets;
//! use swiftsim_core::{RunOptions, SimulatorPreset};
//! use swiftsim_trace::{ApplicationTrace, InstBuilder, KernelTrace, Opcode};
//!
//! let mut k = KernelTrace::new("k", (1, 1, 1), (32, 1, 1));
//! let w = k.push_block().push_warp();
//! w.push(InstBuilder::new(Opcode::Iadd).pc(0).dst(1).src(1));
//! w.push(InstBuilder::new(Opcode::Exit).pc(16));
//! let app = ApplicationTrace::new("demo", vec![k]);
//!
//! let options = RunOptions::default().with_preset(SimulatorPreset::SwiftMemory);
//! let result = swiftsim_core::run(&app, &presets::rtx2080ti(), &options).unwrap();
//! assert_eq!(result.kernels.len(), 1);
//! ```

use crate::checkpoint::Snapshot;
use crate::error::SimError;
use crate::fidelity::{FidelityConfig, MemoryModelKind, SamplingPolicy, SyncQuantum};
use crate::gpu::run_kernel_shard;
use crate::input::TraceInput;
use crate::mem_system::{
    build_analytical_memory_for, build_analytical_memory_reuse_for, CycleAccurateMemory,
    MemorySystem,
};
use crate::options::{CheckpointOptions, RunOptions};
use crate::parallel::run_parallel;
use crate::prefetch::Prefetcher;
use crate::result::{Confidence, KernelResult, SimulationResult};
use crate::sampling::{RepMeasure, Sampler};
use crate::sm::SmStats;
use crate::Cycle;
use swiftsim_config::GpuConfig;
use swiftsim_metrics::{MetricsCollector, ProfileReport, Profiler, Value};
use swiftsim_trace::TraceSource;

/// The three simulator configurations of the paper's evaluation.
///
/// A preset is nothing but a name for a [`FidelityConfig`]:
/// `options.with_preset(p)` is exactly
/// `options.with_fidelity(FidelityConfig::for_preset(p))`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimulatorPreset {
    /// Everything cycle-accurate, single-threaded: the stand-in for
    /// Accel-Sim.
    Detailed,
    /// Swift-Sim-Basic: analytical ALU pipeline, simplified instruction and
    /// constant caches, cycle-accurate memory.
    SwiftBasic,
    /// Swift-Sim-Memory: Swift-Sim-Basic plus the analytical memory model.
    SwiftMemory,
}

impl SimulatorPreset {
    /// Short name used in reports ("accelsim" denotes the detailed
    /// baseline's role in the evaluation).
    pub fn label(self) -> &'static str {
        match self {
            SimulatorPreset::Detailed => "detailed-baseline",
            SimulatorPreset::SwiftBasic => "swift-sim-basic",
            SimulatorPreset::SwiftMemory => "swift-sim-memory",
        }
    }
}

/// Run one application through a simulator built from `cfg` + `options` —
/// the one-call entry point wrapping [`GpuSimulator::try_new`] and
/// [`GpuSimulator::run`].
///
/// # Errors
///
/// Returns [`SimError`] for an invalid configuration, a trace failure, a
/// checkpoint problem, or a modeling deadlock.
pub fn run<'a>(
    input: impl Into<TraceInput<'a>>,
    cfg: &GpuConfig,
    options: &RunOptions,
) -> Result<SimulationResult, SimError> {
    GpuSimulator::try_new(cfg.clone(), options)?.run(input)
}

/// A fully configured Swift-Sim simulator instance.
#[derive(Debug, Clone)]
pub struct GpuSimulator {
    pub(crate) cfg: GpuConfig,
    pub(crate) fidelity: FidelityConfig,
    pub(crate) threads: usize,
    pub(crate) profile: bool,
    pub(crate) checkpoint: CheckpointOptions,
}

impl GpuSimulator {
    /// Build a simulator from a hardware description and run options,
    /// validating both up front: the hardware must pass
    /// [`GpuConfig::validate`], an explicit thread count must not exceed
    /// the SM count (each worker shards at least one SM; `0` resolves to
    /// `min(`[`crate::max_threads`]`(), num_sms)`), and sampling or
    /// checkpointing must not be combined with the legacy
    /// [`SyncQuantum::Unsynchronized`] engine — its privately sharded
    /// memory has no single state to snapshot or replay against.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] describing the first violation.
    pub fn try_new(cfg: GpuConfig, options: &RunOptions) -> Result<GpuSimulator, SimError> {
        cfg.validate().map_err(|e| SimError::InvalidConfig {
            message: e.to_string(),
        })?;
        let num_sms = cfg.num_sms.max(1) as usize;
        let threads = if options.threads == 0 {
            crate::parallel::max_threads().min(num_sms)
        } else {
            if options.threads > num_sms {
                return Err(SimError::InvalidConfig {
                    message: format!(
                        "thread count {} exceeds the {} SMs of {:?}; each worker thread \
                         shards at least one SM (use threads 0 for auto)",
                        options.threads, num_sms, cfg.name
                    ),
                });
            }
            options.threads
        };
        if threads > 1 && options.fidelity.sync_quantum == SyncQuantum::Unsynchronized {
            if options.fidelity.sampling != SamplingPolicy::Off {
                return Err(SimError::InvalidConfig {
                    message: "kernel-launch sampling requires a synchronized engine; \
                              the unsynchronized quantum shards memory privately \
                              (use -sim_sync_quantum per_cycle or a cycle count)"
                        .to_owned(),
                });
            }
            if options.checkpoint.is_active() {
                return Err(SimError::InvalidConfig {
                    message: "checkpointing requires a synchronized engine; the \
                              unsynchronized quantum has no single memory state to \
                              snapshot (use -sim_sync_quantum per_cycle or a cycle count)"
                        .to_owned(),
                });
            }
        }
        Ok(GpuSimulator {
            cfg,
            fidelity: options.fidelity,
            threads,
            profile: options.profile,
            checkpoint: options.checkpoint.clone(),
        })
    }

    /// The simulated hardware configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// The resolved per-module fidelity.
    pub fn fidelity(&self) -> FidelityConfig {
        self.fidelity
    }

    /// Human-readable model description —
    /// [`FidelityConfig::describe`] verbatim, e.g.
    /// `"analytical_alu+cycle_accurate_memory+simplified_frontend+event_driven"`.
    pub fn description(&self) -> String {
        self.fidelity.describe()
    }

    /// Simulate an application and return the predicted cycles and metrics.
    ///
    /// Accepts anything convertible to [`TraceInput`] — `&ApplicationTrace`
    /// for in-memory traces, or any `&`[`TraceSource`] (including trait
    /// objects) for streaming ones. Kernels are decoded lazily: while
    /// kernel *k* simulates, kernel *k+1* is decoded on a background thread
    /// (for file-backed sources), so peak memory stays at ~2 decoded
    /// kernels regardless of application size. Decode time is attributed to
    /// the profiler's `trace-decode` module on its own track.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when the trace is inconsistent with its launch
    /// geometry, a block exceeds SM resources, a kernel fails to decode, a
    /// checkpoint cannot be written/read/applied, or the model deadlocks.
    pub fn run<'a>(&self, input: impl Into<TraceInput<'a>>) -> Result<SimulationResult, SimError> {
        let source = input.into().source();
        let started = std::time::Instant::now();
        let mut result = if self.threads > 1 {
            match self.fidelity.sync_quantum {
                // Legacy decoupled shards: private memory slices, no
                // cross-shard traffic (the paper's original model).
                SyncQuantum::Unsynchronized => run_parallel(self, source)?,
                // Two-phase engine: one shared memory system, shards
                // synchronize every quantum (per-cycle = bit-identical).
                _ => crate::twophase::run_two_phase(self, source)?,
            }
        } else {
            self.run_single(source)?
        };
        result.wall_time = started.elapsed();
        Ok(result)
    }

    fn run_single(&self, source: &dyn TraceSource) -> Result<SimulationResult, SimError> {
        let total = source.num_kernels();
        let mut driver = RunDriver::new(self, source)?;
        let mut mem: Box<dyn MemorySystem> = match self.fidelity.memory {
            MemoryModelKind::CycleAccurate => Box::new(CycleAccurateMemory::new(&self.cfg)),
            MemoryModelKind::Analytical => {
                build_analytical_memory_for(&self.cfg, source, &driver.prepass_indices(total))?
            }
            MemoryModelKind::AnalyticalReuse => build_analytical_memory_reuse_for(
                &self.cfg,
                source,
                &driver.prepass_indices(total),
            )?,
        };
        driver.restore_memory(mem.as_mut())?;

        let num_sms = self.cfg.num_sms as usize;
        // The simulation profiler renders on track 0, the decode profiler
        // on track 1; a shared epoch lines their frames up on one
        // timeline, making decode/simulate overlap visible.
        let epoch = std::time::Instant::now();
        let mut prof = if self.profile {
            Profiler::enabled_on_track(epoch, 0)
        } else {
            Profiler::disabled()
        };
        let decode_prof = if self.profile {
            Profiler::enabled_on_track(epoch, 1)
        } else {
            Profiler::disabled()
        };
        mem.set_profiling(self.profile);

        std::thread::scope(|scope| {
            let mut pf = Prefetcher::with_schedule(
                scope,
                source,
                decode_prof,
                source.prefers_prefetch(),
                driver.decode_schedule(total),
            );
            let (mut start, mut total_stats, mut kernels) = driver.initial();

            for idx in driver.start_kernel()..total {
                if driver.is_detailed(idx) {
                    let kernel = pf.get(idx)?;
                    let kernel = &*kernel;
                    prof.begin_frame(&format!("k{idx}:{}", kernel.name));
                    let blocks: Vec<usize> = (0..kernel.blocks().len()).collect();
                    let sm_ids: Vec<usize> = (0..num_sms).collect();
                    let outcome = run_kernel_shard(
                        &self.cfg,
                        kernel,
                        &blocks,
                        &sm_ids,
                        mem.as_mut(),
                        self.fidelity,
                        0,
                        start,
                        &mut prof,
                    )?;
                    // Flush the memory system's per-level attribution into
                    // the still-open frame before closing it.
                    mem.report_profile(&mut prof);
                    prof.end_frame();
                    let measure = RepMeasure {
                        cycles: outcome.end_cycle - start,
                        stats: outcome.stats,
                        instructions: outcome.stats.issued,
                        blocks: outcome.blocks,
                    };
                    driver.record(idx, measure);
                    kernels.push(KernelResult {
                        name: kernel.name.clone(),
                        cycles: measure.cycles,
                        instructions: measure.instructions,
                        blocks: measure.blocks,
                    });
                    total_stats.add(&outcome.stats);
                    start = outcome.end_cycle;
                } else {
                    // Replayed launch: synthesized from its cluster's
                    // representatives, trace body never decoded.
                    let replayed = driver.replay(idx);
                    kernels.push(KernelResult {
                        name: source.kernel_meta(idx).name,
                        cycles: replayed.cycles,
                        instructions: replayed.instructions,
                        blocks: replayed.blocks,
                    });
                    total_stats.add(&replayed.stats);
                    start += replayed.cycles;
                }
                if !driver.boundary(idx, start, &total_stats, &kernels, mem.as_ref())? {
                    break;
                }
            }

            let mut metrics = MetricsCollector::new();
            report_common(&mut metrics, start, &total_stats, self);
            mem.report(&mut metrics);

            let profile = self
                .profile
                .then(|| ProfileReport::merge(vec![prof.into_report(), pf.finish().into_report()]));
            let confidence = driver.confidence(&kernels);

            Ok(SimulationResult {
                app: source.name().to_owned(),
                simulator: self.description(),
                fidelity: self.fidelity,
                cycles: start,
                kernels,
                metrics,
                wall_time: std::time::Duration::ZERO, // filled by run()
                confidence,
                profile,
            })
        })
    }
}

/// Report engine-level counters shared by single and parallel runs.
pub(crate) fn report_common(
    metrics: &mut MetricsCollector,
    cycles: Cycle,
    stats: &SmStats,
    sim: &GpuSimulator,
) {
    metrics.set("gpu.cycles", Value::Cycles(cycles));
    metrics.set("gpu.instructions", Value::Count(stats.issued));
    let mut core = metrics.scope("core");
    core.set("mem_insts", Value::Count(stats.mem_insts));
    core.set("stall.scoreboard", Value::Cycles(stats.stall_scoreboard));
    core.set("stall.unit_busy", Value::Cycles(stats.stall_unit_busy));
    core.set("stall.barrier", Value::Cycles(stats.stall_barrier));
    core.set("stall.empty", Value::Cycles(stats.stall_empty));
    core.set(
        "shared.bank_conflicts",
        Value::Count(stats.shared_bank_conflicts),
    );
    core.set("icache.misses", Value::Count(stats.icache_misses));
    core.set("ccache.misses", Value::Count(stats.ccache_misses));
    core.set("active_cycles", Value::Cycles(stats.active_cycles));
    metrics.set("sim.threads", Value::Count(sim.threads as u64));
}

/// Snapshot identity of one run, captured once when checkpointing is
/// active.
struct RunIdentity {
    app: String,
    content_hash: u64,
    config_hash: u64,
    fidelity: String,
    threads: usize,
}

/// Per-run coordinator for sampling and checkpointing, shared by the
/// single-threaded and two-phase engines. Owns the sampling plan and
/// measurements, the resume snapshot, and the boundary-snapshot writer;
/// the engine owns the clock, stats, and kernel results and threads them
/// through.
pub(crate) struct RunDriver {
    sampler: Option<Sampler>,
    write_to: Option<std::path::PathBuf>,
    halt_after: Option<usize>,
    identity: Option<RunIdentity>,
    resume: Option<Snapshot>,
    start_kernel: usize,
}

impl RunDriver {
    /// Plan sampling, capture snapshot identity, and load + validate the
    /// resume snapshot when one was requested.
    pub(crate) fn new(sim: &GpuSimulator, source: &dyn TraceSource) -> Result<RunDriver, SimError> {
        let mut sampler = Sampler::plan(source, sim.fidelity.sampling);
        let identity = if sim.checkpoint.is_active() {
            Some(RunIdentity {
                app: source.name().to_owned(),
                content_hash: source.content_hash()?,
                config_hash: sim.cfg.stable_hash(),
                fidelity: sim.fidelity.describe(),
                threads: sim.threads,
            })
        } else {
            None
        };
        let mut start_kernel = 0;
        let mut resume = None;
        if let Some(path) = &sim.checkpoint.resume_from {
            let snap = Snapshot::read_from(path)?;
            let id = identity.as_ref().expect("resume_from implies is_active");
            snap.validate_identity(
                &id.app,
                id.content_hash,
                id.config_hash,
                &id.fidelity,
                id.threads,
            )?;
            if snap.next_kernel() > source.num_kernels() {
                return Err(SimError::Checkpoint {
                    message: format!(
                        "snapshot completed {} kernels but the trace has only {}",
                        snap.next_kernel(),
                        source.num_kernels()
                    ),
                });
            }
            // The fidelity match above guarantees the snapshot and this run
            // agree on the sampling policy, so the sampling section is
            // present exactly when a sampler was planned.
            if let (Some(s), Some(words)) = (&mut sampler, &snap.sampling) {
                s.restore_words(words)
                    .map_err(|e| SimError::Checkpoint { message: e })?;
            }
            start_kernel = snap.next_kernel();
            resume = Some(snap);
        }
        Ok(RunDriver {
            sampler,
            write_to: sim.checkpoint.write_to.clone(),
            halt_after: sim.checkpoint.halt_after,
            identity,
            resume,
            start_kernel,
        })
    }

    /// Index of the first kernel this run simulates (0 unless resuming).
    pub(crate) fn start_kernel(&self) -> usize {
        self.start_kernel
    }

    /// Initial accumulators: clock, statistics, and per-kernel results —
    /// the snapshot's on resume, zeros otherwise.
    pub(crate) fn initial(&self) -> (Cycle, SmStats, Vec<KernelResult>) {
        match &self.resume {
            Some(s) => (s.cycle, s.total_stats, s.kernels.clone()),
            None => (0, SmStats::default(), Vec::new()),
        }
    }

    /// Apply the resume snapshot's memory section to a freshly built model.
    pub(crate) fn restore_memory(&self, mem: &mut dyn MemorySystem) -> Result<(), SimError> {
        if let Some(s) = &self.resume {
            mem.load_state(&s.memory)
                .map_err(|e| SimError::Checkpoint {
                    message: format!("restoring memory state: {e}"),
                })?;
        }
        Ok(())
    }

    /// Whether launch `kernel` is simulated in detail (always, when
    /// sampling is off).
    pub(crate) fn is_detailed(&self, kernel: usize) -> bool {
        self.sampler.as_ref().is_none_or(|s| s.is_detailed(kernel))
    }

    /// Launch indices the engine will decode this run: detailed ones not
    /// already covered by the resume snapshot.
    pub(crate) fn decode_schedule(&self, total: usize) -> Vec<usize> {
        (self.start_kernel..total)
            .filter(|&k| self.is_detailed(k))
            .collect()
    }

    /// Launch indices the analytical memory pre-pass must decode. This is
    /// every detailed launch — including ones a resume snapshot already
    /// covers — so the per-PC hit rates match the original run exactly
    /// (bit-identity of the resumed run depends on it).
    pub(crate) fn prepass_indices(&self, total: usize) -> Vec<usize> {
        match &self.sampler {
            Some(s) => s.detailed_indices(),
            None => (0..total).collect(),
        }
    }

    /// Record a detailed launch's measurements for later replays.
    pub(crate) fn record(&mut self, kernel: usize, measure: RepMeasure) {
        if let Some(s) = &mut self.sampler {
            s.record(kernel, measure);
        }
    }

    /// Synthesize a replayed launch's outcome.
    pub(crate) fn replay(&self, kernel: usize) -> RepMeasure {
        self.sampler
            .as_ref()
            .expect("replay is only reached when a sampling plan exists")
            .replay(kernel)
    }

    /// Kernel-boundary hook: write a snapshot when requested, and report
    /// whether the run should continue (`false` once `halt_after` kernels
    /// have completed — the partial result covers the simulated prefix).
    pub(crate) fn boundary(
        &mut self,
        kernel: usize,
        cycle: Cycle,
        total_stats: &SmStats,
        kernels: &[KernelResult],
        mem: &dyn MemorySystem,
    ) -> Result<bool, SimError> {
        let completed = kernel + 1;
        if cfg!(debug_assertions) {
            if let Err(e) = mem.check_quiescent() {
                panic!("memory still busy after kernel {kernel}: {e}");
            }
        }
        if let Some(path) = &self.write_to {
            let id = self.identity.as_ref().expect("write_to implies is_active");
            let memory = mem.save_state().map_err(|e| SimError::Checkpoint {
                message: format!("snapshot at kernel {kernel} boundary: {e}"),
            })?;
            let snap = Snapshot {
                app: id.app.clone(),
                content_hash: id.content_hash,
                config_hash: id.config_hash,
                fidelity: id.fidelity.clone(),
                threads: id.threads,
                next_kernel: completed,
                cycle,
                total_stats: *total_stats,
                kernels: kernels.to_vec(),
                sampling: self.sampler.as_ref().map(Sampler::save_words),
                memory,
            };
            snap.write_to(path)?;
        }
        Ok(self.halt_after != Some(completed))
    }

    /// The run's confidence block (`None` when sampling is off).
    pub(crate) fn confidence(&self, kernels: &[KernelResult]) -> Option<Confidence> {
        self.sampler.as_ref().map(|s| s.confidence(kernels))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fidelity::{AluModelKind, FrontendModelKind, SkipPolicy};
    use swiftsim_config::presets;

    #[test]
    fn presets_select_models() {
        let detailed = GpuSimulator::try_new(
            presets::rtx2080ti(),
            &RunOptions::default().with_preset(SimulatorPreset::Detailed),
        )
        .unwrap();
        assert_eq!(
            detailed.description(),
            "cycle_accurate_alu+cycle_accurate_memory+detailed_frontend+event_driven"
        );

        let basic = GpuSimulator::try_new(
            presets::rtx2080ti(),
            &RunOptions::default().with_preset(SimulatorPreset::SwiftBasic),
        )
        .unwrap();
        assert_eq!(
            basic.description(),
            "analytical_alu+cycle_accurate_memory+simplified_frontend+event_driven"
        );

        let memory = GpuSimulator::try_new(
            presets::rtx2080ti(),
            &RunOptions::default().with_preset(SimulatorPreset::SwiftMemory),
        )
        .unwrap();
        assert_eq!(
            memory.description(),
            "analytical_alu+analytical_memory+simplified_frontend+event_driven"
        );
    }

    #[test]
    fn fidelity_lands_in_simulator_verbatim() {
        let fidelity = FidelityConfig {
            alu: AluModelKind::CycleAccurate,
            memory: MemoryModelKind::AnalyticalReuse,
            frontend: FrontendModelKind::Simplified,
            skip_policy: SkipPolicy::Dense,
            sync_quantum: SyncQuantum::Cycles(32),
            sampling: SamplingPolicy::Off,
        };
        let sim = GpuSimulator::try_new(
            presets::rtx2080ti(),
            &RunOptions::default().with_fidelity(fidelity),
        )
        .unwrap();
        assert_eq!(sim.fidelity(), fidelity);
        assert_eq!(sim.description(), fidelity.describe());
    }

    #[test]
    fn run_options_build_identically_across_entry_points() {
        let options = RunOptions::default()
            .with_preset(SimulatorPreset::SwiftMemory)
            .with_threads(2)
            .with_profile(true);
        let sim = GpuSimulator::try_new(presets::rtx2080ti(), &options).unwrap();
        assert_eq!(
            sim.fidelity(),
            FidelityConfig::for_preset(SimulatorPreset::SwiftMemory)
        );
        assert_eq!(sim.threads, 2);
        assert!(sim.profile);
    }

    #[test]
    fn threads_zero_resolves_to_auto() {
        let sim =
            GpuSimulator::try_new(presets::rtx2080ti(), &RunOptions::default().with_threads(0))
                .expect("auto threads is always valid");
        assert!(sim.threads >= 1);
        assert!(sim.threads <= presets::rtx2080ti().num_sms as usize);
        assert!(sim.threads <= crate::parallel::max_threads());
    }

    #[test]
    fn try_new_rejects_more_threads_than_sms() {
        let cfg = presets::rtx2080ti();
        let too_many = cfg.num_sms as usize + 1;
        let err = GpuSimulator::try_new(cfg.clone(), &RunOptions::default().with_threads(too_many))
            .expect_err("one shard needs at least one SM");
        assert!(matches!(err, SimError::InvalidConfig { .. }), "{err}");
        // The exact SM count is accepted.
        let sim = GpuSimulator::try_new(
            cfg.clone(),
            &RunOptions::default().with_threads(cfg.num_sms as usize),
        )
        .expect("threads == SMs is valid");
        assert_eq!(sim.threads, cfg.num_sms as usize);
    }

    #[test]
    fn try_new_rejects_invalid_config() {
        let mut cfg = presets::rtx2080ti();
        cfg.num_sms = 0;
        let err = GpuSimulator::try_new(cfg, &RunOptions::default()).expect_err("0 SMs is invalid");
        assert!(matches!(err, SimError::InvalidConfig { .. }), "{err}");
    }

    #[test]
    fn try_new_rejects_sampling_and_checkpointing_on_unsync_engine() {
        let cfg = presets::rtx2080ti();
        let unsync = FidelityConfig {
            sync_quantum: SyncQuantum::Unsynchronized,
            ..FidelityConfig::default()
        };
        let err = GpuSimulator::try_new(
            cfg.clone(),
            &RunOptions::default()
                .with_fidelity(unsync)
                .with_threads(2)
                .with_sampling(SamplingPolicy::KernelCluster { reps: 2 }),
        )
        .expect_err("sampling on unsync engine");
        assert!(err.to_string().contains("sampling"), "{err}");
        let err = GpuSimulator::try_new(
            cfg.clone(),
            &RunOptions::default()
                .with_fidelity(unsync)
                .with_threads(2)
                .with_checkpoint_out("/tmp/snap"),
        )
        .expect_err("checkpointing on unsync engine");
        assert!(err.to_string().contains("checkpoint"), "{err}");
        // Single-threaded runs never dispatch to the unsync engine, so the
        // combination is fine there.
        GpuSimulator::try_new(
            cfg,
            &RunOptions::default()
                .with_fidelity(unsync)
                .with_sampling(SamplingPolicy::KernelCluster { reps: 2 }),
        )
        .expect("threads=1 ignores the quantum");
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(SimulatorPreset::Detailed.label(), "detailed-baseline");
        assert_eq!(SimulatorPreset::SwiftBasic.label(), "swift-sim-basic");
        assert_eq!(SimulatorPreset::SwiftMemory.label(), "swift-sim-memory");
    }
}
