//! Simulator construction and the per-run driver around the kernel loop.
//!
//! "Based on the modular modeling approach, we can adopt various modeling
//! methods for a single module" (§III-B3). A simulator instance is a
//! hardware description ([`GpuConfig`]) plus one [`RunOptions`] value
//! carrying everything else — fidelity (including sampling), thread count,
//! profiling, checkpointing. [`SimulatorPreset`] is a pure alias table over
//! the fidelity plan (see [`FidelityConfig::for_preset`]). Every run, on
//! any thread count, goes through the one kernel loop in
//! [`crate::twophase`]; [`RunDriver`] is its per-run sampling and
//! checkpointing companion.
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
use crate::fidelity::FidelityConfig;
use crate::input::TraceInput;
use crate::mem_system::MemorySystem;
use crate::options::{CheckpointOptions, RunOptions};
use crate::result::{Confidence, KernelResult, SimulationResult};
use crate::sampling::{RepMeasure, Sampler};
use crate::sm::SmStats;
use crate::Cycle;
use swiftsim_config::GpuConfig;
use swiftsim_metrics::{MetricsCollector, Value};
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

impl std::str::FromStr for SimulatorPreset {
    type Err = SimError;

    /// Accepts every [`label`](SimulatorPreset::label) and the short
    /// tokens of the CLI and campaign specs.
    fn from_str(s: &str) -> Result<Self, SimError> {
        match s {
            "detailed" | "accelsim" | "detailed-baseline" => Ok(SimulatorPreset::Detailed),
            "swift-basic" | "basic" | "swift-sim-basic" => Ok(SimulatorPreset::SwiftBasic),
            "swift-memory" | "memory" | "swift-sim-memory" => Ok(SimulatorPreset::SwiftMemory),
            other => Err(SimError::InvalidConfig {
                message: format!(
                    "unknown preset {other:?} (expected one of: detailed|swift-basic|swift-memory)"
                ),
            }),
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
    pub(crate) dense_clock: bool,
}

impl GpuSimulator {
    /// Build a simulator from a hardware description and run options,
    /// validating both up front: the hardware must pass
    /// [`GpuConfig::validate`], and an explicit thread count must not
    /// exceed the SM count (each worker shards at least one SM; `0`
    /// resolves to `min(`[`crate::max_threads`]`(), num_sms)`).
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
        Ok(GpuSimulator {
            cfg,
            fidelity: options.fidelity,
            threads,
            profile: options.profile,
            checkpoint: options.checkpoint.clone(),
            dense_clock: options.dense_clock,
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
        let started = std::time::Instant::now();
        let mut result = crate::twophase::run_two_phase(self, input.into().source())?;
        result.wall_time = started.elapsed();
        Ok(result)
    }
}

/// Report engine-level counters.
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

/// Per-run coordinator for sampling and checkpointing around the kernel
/// loop. Owns the sampling plan and measurements, the resume snapshot, and
/// the boundary-snapshot writer; the loop owns the clock, stats, and kernel
/// results and threads them through.
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
    use crate::fidelity::{AluModelKind, FrontendModelKind, MemoryModelKind, SamplingPolicy};
    use swiftsim_config::presets;

    #[test]
    fn preset_labels_and_aliases_parse_back() {
        let all = [
            SimulatorPreset::Detailed,
            SimulatorPreset::SwiftBasic,
            SimulatorPreset::SwiftMemory,
        ];
        for preset in all {
            assert_eq!(preset.label().parse::<SimulatorPreset>().unwrap(), preset);
        }
        let aliases = [
            ("detailed", SimulatorPreset::Detailed),
            ("accelsim", SimulatorPreset::Detailed),
            ("swift-basic", SimulatorPreset::SwiftBasic),
            ("basic", SimulatorPreset::SwiftBasic),
            ("swift-memory", SimulatorPreset::SwiftMemory),
            ("memory", SimulatorPreset::SwiftMemory),
        ];
        for (token, preset) in aliases {
            assert_eq!(token.parse::<SimulatorPreset>().unwrap(), preset, "{token}");
        }
        let err = "quantum"
            .parse::<SimulatorPreset>()
            .unwrap_err()
            .to_string();
        assert!(err.contains("detailed|swift-basic|swift-memory"), "{err}");
    }

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
    fn labels_are_stable() {
        assert_eq!(SimulatorPreset::Detailed.label(), "detailed-baseline");
        assert_eq!(SimulatorPreset::SwiftBasic.label(), "swift-sim-basic");
        assert_eq!(SimulatorPreset::SwiftMemory.label(), "swift-sim-memory");
    }
}
