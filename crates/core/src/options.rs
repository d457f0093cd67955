//! Run configuration: one [`RunOptions`] value carries everything a
//! simulation run needs beyond the hardware description.
//!
//! The `SimulatorBuilder` surface grew one setter per knob (threads,
//! profile, fidelity, per-module overrides…). [`RunOptions`] collapses that
//! surface into a single
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

/// Everything a simulation run needs beyond the hardware description:
/// fidelity (including sampling), thread count, profiling.
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
    /// Tick every SM every cycle ([`RunOptions::with_dense_clock`]).
    pub(crate) dense_clock: bool,
}

impl Default for RunOptions {
    /// Single-threaded detailed-baseline run, no profiling.
    fn default() -> Self {
        RunOptions {
            fidelity: FidelityConfig::default(),
            threads: 1,
            profile: false,
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
    }

    #[test]
    fn with_methods_compose() {
        let o = RunOptions::default()
            .with_preset(SimulatorPreset::SwiftBasic)
            .with_sampling(SamplingPolicy::KernelCluster { reps: 3 })
            .with_threads(4)
            .with_profile(true);
        assert_eq!(o.fidelity.alu, AluModelKind::Analytical);
        assert_eq!(
            o.fidelity.sampling,
            SamplingPolicy::KernelCluster { reps: 3 }
        );
        assert_eq!(o.threads, 4);
        assert!(o.profile);
    }
}
