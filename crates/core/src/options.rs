//! Run configuration: one [`RunOptions`] value carries everything a
//! simulation run needs beyond the hardware description.
//!
//! The `SimulatorBuilder` surface grew one setter per PR (threads, profile,
//! fidelity, per-module overrides…); sampling and checkpointing would have
//! added five more. [`RunOptions`] collapses that surface into a single
//! plain-data struct with `Default` + builder-style `with_*` methods,
//! consumed by [`crate::run`] and [`crate::GpuSimulator::try_new`]:
//!
//! ```
//! use swiftsim_config::presets;
//! use swiftsim_core::{RunOptions, SimulatorPreset};
//!
//! let options = RunOptions::default()
//!     .with_preset(SimulatorPreset::SwiftMemory)
//!     .with_threads(2);
//! let sim = swiftsim_core::GpuSimulator::try_new(presets::rtx2080ti(), &options).unwrap();
//! assert!(sim.description().contains("analytical_memory"));
//! ```

use crate::builder::SimulatorPreset;
use crate::fidelity::{FidelityConfig, SamplingPolicy};
use std::path::PathBuf;

/// Checkpoint/resume knobs of one run.
///
/// Snapshots are written at kernel boundaries (the only points where the
/// engine's dynamic state — MSHRs, event heaps, in-flight requests — is
/// provably empty), so a resumed run replays the remaining kernels against
/// restored persistent state and is **bit-identical** to an uninterrupted
/// one.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckpointOptions {
    /// Write a snapshot here after every kernel boundary (atomically:
    /// write-then-rename, each snapshot replacing the last).
    pub write_to: Option<PathBuf>,
    /// Load a snapshot from here before simulating and continue from its
    /// kernel boundary. The snapshot's identity (trace content hash,
    /// fidelity, thread count) must match this run.
    pub resume_from: Option<PathBuf>,
    /// Stop after this many kernels, writing a final snapshot to
    /// `write_to`. The deterministic stand-in for "the process was killed
    /// mid-application": the partial result covers only the simulated
    /// prefix.
    pub halt_after: Option<usize>,
}

impl CheckpointOptions {
    /// Whether any checkpoint behavior is requested.
    pub fn is_active(&self) -> bool {
        self.write_to.is_some() || self.resume_from.is_some() || self.halt_after.is_some()
    }
}

/// Everything a simulation run needs beyond the hardware description:
/// fidelity (including sampling), thread count, profiling, checkpointing.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOptions {
    /// Per-module fidelity plan (presets are aliases over it).
    pub fidelity: FidelityConfig,
    /// Worker threads (SM-sharded). `0` = auto: host parallelism capped at
    /// the SM count. Validated against the configuration by
    /// [`crate::GpuSimulator::try_new`].
    pub threads: usize,
    /// Record per-module wall-time/cycle attribution while simulating.
    pub profile: bool,
    /// Checkpoint/resume behavior.
    pub checkpoint: CheckpointOptions,
    /// Tick every SM every cycle ([`RunOptions::with_dense_clock`]).
    pub(crate) dense_clock: bool,
}

impl Default for RunOptions {
    /// Single-threaded detailed-baseline run, no profiling, no
    /// checkpointing.
    fn default() -> Self {
        RunOptions {
            fidelity: FidelityConfig::default(),
            threads: 1,
            profile: false,
            checkpoint: CheckpointOptions::default(),
            dense_clock: false,
        }
    }
}

impl RunOptions {
    /// Apply one of the paper's presets — an alias for
    /// `with_fidelity(FidelityConfig::for_preset(preset))`.
    #[must_use]
    pub fn with_preset(self, preset: SimulatorPreset) -> Self {
        self.with_fidelity(FidelityConfig::for_preset(preset))
    }

    /// Set the full per-module fidelity in one call.
    #[must_use]
    pub fn with_fidelity(mut self, fidelity: FidelityConfig) -> Self {
        self.fidelity = fidelity;
        self
    }

    /// Set the kernel-launch sampling policy (a field of the fidelity
    /// plan, surfaced here because it is the knob large workloads reach
    /// for first).
    #[must_use]
    pub fn with_sampling(mut self, sampling: SamplingPolicy) -> Self {
        self.fidelity.sampling = sampling;
        self
    }

    /// Simulate with `threads` worker threads (`0` = auto).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Enable self-profiling.
    #[must_use]
    pub fn with_profile(mut self, enabled: bool) -> Self {
        self.profile = enabled;
        self
    }

    /// Write a snapshot to `path` after every kernel boundary.
    #[must_use]
    pub fn with_checkpoint_out(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint.write_to = Some(path.into());
        self
    }

    /// Resume from the snapshot at `path`.
    #[must_use]
    pub fn with_resume(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint.resume_from = Some(path.into());
        self
    }

    /// Stop after `kernels` kernels, writing a final snapshot (see
    /// [`CheckpointOptions::halt_after`]).
    #[must_use]
    pub fn with_halt_after(mut self, kernels: usize) -> Self {
        self.checkpoint.halt_after = Some(kernels);
        self
    }

    /// Tick every SM on every cycle: no SM sleeps and the clock never
    /// jumps. This is the oracle the sleep-set tests compare the engine
    /// against, bit-identical to a normal run by contract
    /// (`tests/event_engine_equiv.rs`); it is not a fidelity choice and
    /// shows in no description, result or cache key.
    #[doc(hidden)]
    #[must_use]
    pub fn with_dense_clock(mut self) -> Self {
        self.dense_clock = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fidelity::AluModelKind;

    #[test]
    fn default_matches_legacy_builder_defaults() {
        let o = RunOptions::default();
        assert_eq!(o.fidelity, FidelityConfig::default());
        assert_eq!(o.threads, 1);
        assert!(!o.profile);
        assert!(!o.checkpoint.is_active());
    }

    #[test]
    fn with_methods_compose() {
        let o = RunOptions::default()
            .with_preset(SimulatorPreset::SwiftBasic)
            .with_sampling(SamplingPolicy::KernelCluster { reps: 3 })
            .with_threads(4)
            .with_profile(true)
            .with_checkpoint_out("/tmp/ck")
            .with_resume("/tmp/ck")
            .with_halt_after(7);
        assert_eq!(o.fidelity.alu, AluModelKind::Analytical);
        assert_eq!(
            o.fidelity.sampling,
            SamplingPolicy::KernelCluster { reps: 3 }
        );
        assert_eq!(o.threads, 4);
        assert!(o.profile);
        assert_eq!(o.checkpoint.write_to.as_deref(), Some("/tmp/ck".as_ref()));
        assert_eq!(
            o.checkpoint.resume_from.as_deref(),
            Some("/tmp/ck".as_ref())
        );
        assert_eq!(o.checkpoint.halt_after, Some(7));
        assert!(o.checkpoint.is_active());
    }
}
