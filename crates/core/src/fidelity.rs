//! Per-module fidelity selection: one data-driven description of which
//! model simulates each GPU component (§III-B3).
//!
//! "Based on the modular modeling approach, we can adopt various modeling
//! methods for a single module." [`FidelityConfig`] is the single source of
//! truth for those choices — the builder consumes it, the presets are a
//! pure alias table over it ([`FidelityConfig::for_preset`]), and the
//! resolved configuration travels verbatim into `--json` output, campaign
//! cache keys, and [`GpuSimulator::description`]. How often the kernel
//! loop's shards synchronize is not among the choices: they commit every
//! cycle, so no choice here depends on the thread count.
//!
//! The config is parseable from GPGPU-Sim-style option text
//! ([`FidelityConfig::parse_args`]), so existing `gpgpusim.config`-shaped
//! files can carry fidelity keys:
//!
//! ```text
//! -sim_alu_model analytical
//! -sim_mem_model analytical_reuse
//! -sim_frontend_model simplified
//! ```
//!
//! [`GpuSimulator::description`]: crate::GpuSimulator::description

use crate::builder::SimulatorPreset;
use crate::error::SimError;
use std::str::FromStr;

/// Which model simulates the ALU pipeline (§III-D1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluModelKind {
    /// Explicit pipeline-stage registers, ticked every cycle.
    CycleAccurate,
    /// Fixed latency + cycle-accurately observed contention (Fig. 3).
    Analytical,
}

/// Which model simulates memory accesses (§III-D2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryModelKind {
    /// Full L1/NoC/L2/DRAM event simulation.
    CycleAccurate,
    /// Eq. 1 expected latency + contention adder, with hit rates from a
    /// functional cache-simulation pre-pass.
    Analytical,
    /// Eq. 1 with hit rates from the reuse-distance tool instead
    /// (fully-associative LRU approximation).
    AnalyticalReuse,
}

/// Which model simulates the SM frontend (instruction/constant caches).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrontendModelKind {
    /// Model the instruction and constant caches (fetch penalties, misses).
    Detailed,
    /// Simplify the frontend away: fetches are free, no frontend misses.
    Simplified,
}

/// Whether (and how aggressively) repeated kernel launches are sampled.
///
/// Kernel-level sampling clusters launches by *content hash + launch
/// geometry* (name, grid/block dims, shared memory, registers, instruction
/// count — everything [`swiftsim_trace::KernelMeta`] carries). The first
/// `reps` instances of each cluster are simulated in detail; every later
/// instance is *replayed*: its cycle count is the cluster representatives'
/// measured CPI times its instruction count, its statistics are the
/// representatives' mean, and its decode is skipped entirely. The spread
/// across representatives becomes the per-cluster error bound carried in
/// the result's `confidence` block.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum SamplingPolicy {
    /// Simulate every kernel launch in detail (no sampling, no error).
    #[default]
    Off,
    /// Cluster repeated launches; simulate `reps` representatives per
    /// cluster in detail and replay the rest analytically.
    KernelCluster {
        /// Detailed representatives per cluster (>= 1). Two or more give a
        /// measured spread for the error bound; one falls back to the
        /// default floor.
        reps: u32,
    },
}

impl SamplingPolicy {
    /// Short stable token, used in JSON output and parseable back:
    /// `off`, `cluster` (default reps), or `cluster:N`.
    pub fn token(self) -> String {
        match self {
            SamplingPolicy::Off => "off".to_owned(),
            SamplingPolicy::KernelCluster { reps } => format!("cluster:{reps}"),
        }
    }

    /// Representatives simulated in detail per cluster (0 when off).
    pub fn reps(self) -> u32 {
        match self {
            SamplingPolicy::Off => 0,
            SamplingPolicy::KernelCluster { reps } => reps,
        }
    }
}

/// Default representatives per cluster for `-sim_sampling cluster`.
pub const DEFAULT_SAMPLING_REPS: u32 = 2;

impl FromStr for SamplingPolicy {
    type Err = SimError;

    fn from_str(s: &str) -> Result<Self, SimError> {
        match s {
            "off" => Ok(SamplingPolicy::Off),
            "cluster" => Ok(SamplingPolicy::KernelCluster {
                reps: DEFAULT_SAMPLING_REPS,
            }),
            other => match other.strip_prefix("cluster:").map(str::parse::<u32>) {
                Some(Ok(reps)) if reps >= 1 => Ok(SamplingPolicy::KernelCluster { reps }),
                _ => Err(parse_err(
                    "sampling policy",
                    other,
                    "off, cluster, cluster:N",
                )),
            },
        }
    }
}

/// The resolved per-module fidelity of one simulator instance.
///
/// # Examples
///
/// ```
/// use swiftsim_core::{FidelityConfig, SimulatorPreset};
///
/// let f = FidelityConfig::for_preset(SimulatorPreset::SwiftMemory);
/// assert_eq!(
///     f.describe(),
///     "analytical_alu+analytical_memory+simplified_frontend+event_driven"
/// );
///
/// let parsed = FidelityConfig::parse_args(
///     "-sim_alu_model analytical -sim_mem_model analytical_reuse",
/// )
/// .unwrap();
/// assert!(parsed.describe().contains("analytical_memory_rd"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FidelityConfig {
    /// ALU-pipeline model.
    pub alu: AluModelKind,
    /// Memory-hierarchy model.
    pub memory: MemoryModelKind,
    /// Frontend (instruction/constant cache) model.
    pub frontend: FrontendModelKind,
    /// Kernel-launch sampling policy (off in every preset).
    pub sampling: SamplingPolicy,
}

impl Default for FidelityConfig {
    /// The detailed-baseline module choices (everything cycle-accurate).
    fn default() -> Self {
        FidelityConfig::for_preset(SimulatorPreset::Detailed)
    }
}

impl AluModelKind {
    /// Short stable token, used in JSON output and parseable back.
    pub fn token(self) -> &'static str {
        match self {
            AluModelKind::CycleAccurate => "cycle_accurate",
            AluModelKind::Analytical => "analytical",
        }
    }
}

impl MemoryModelKind {
    /// Short stable token, used in JSON output and parseable back.
    pub fn token(self) -> &'static str {
        match self {
            MemoryModelKind::CycleAccurate => "cycle_accurate",
            MemoryModelKind::Analytical => "analytical",
            MemoryModelKind::AnalyticalReuse => "analytical_reuse",
        }
    }
}

impl FrontendModelKind {
    /// Short stable token, used in JSON output and parseable back.
    pub fn token(self) -> &'static str {
        match self {
            FrontendModelKind::Detailed => "detailed",
            FrontendModelKind::Simplified => "simplified",
        }
    }
}

fn parse_err(what: &str, value: &str, expected: &str) -> SimError {
    SimError::InvalidConfig {
        message: format!("unknown {what} {value:?} (expected one of: {expected})"),
    }
}

impl FromStr for AluModelKind {
    type Err = SimError;

    fn from_str(s: &str) -> Result<Self, SimError> {
        match s {
            "cycle_accurate" | "cycle-accurate" | "detailed" => Ok(AluModelKind::CycleAccurate),
            "analytical" => Ok(AluModelKind::Analytical),
            other => Err(parse_err("ALU model", other, "cycle_accurate, analytical")),
        }
    }
}

impl FromStr for MemoryModelKind {
    type Err = SimError;

    fn from_str(s: &str) -> Result<Self, SimError> {
        match s {
            "cycle_accurate" | "cycle-accurate" | "detailed" => Ok(MemoryModelKind::CycleAccurate),
            "analytical" => Ok(MemoryModelKind::Analytical),
            "analytical_reuse" | "analytical-reuse" | "analytical_rd" => {
                Ok(MemoryModelKind::AnalyticalReuse)
            }
            other => Err(parse_err(
                "memory model",
                other,
                "cycle_accurate, analytical, analytical_reuse",
            )),
        }
    }
}

impl FromStr for FrontendModelKind {
    type Err = SimError;

    fn from_str(s: &str) -> Result<Self, SimError> {
        match s {
            "detailed" => Ok(FrontendModelKind::Detailed),
            "simplified" => Ok(FrontendModelKind::Simplified),
            other => Err(parse_err("frontend model", other, "detailed, simplified")),
        }
    }
}

impl FidelityConfig {
    /// The module choices behind one of the paper's presets (§IV-A3).
    pub fn for_preset(preset: SimulatorPreset) -> Self {
        match preset {
            SimulatorPreset::Detailed => FidelityConfig {
                alu: AluModelKind::CycleAccurate,
                memory: MemoryModelKind::CycleAccurate,
                frontend: FrontendModelKind::Detailed,
                sampling: SamplingPolicy::Off,
            },
            SimulatorPreset::SwiftBasic => FidelityConfig {
                alu: AluModelKind::Analytical,
                memory: MemoryModelKind::CycleAccurate,
                frontend: FrontendModelKind::Simplified,
                sampling: SamplingPolicy::Off,
            },
            SimulatorPreset::SwiftMemory => FidelityConfig {
                alu: AluModelKind::Analytical,
                memory: MemoryModelKind::Analytical,
                frontend: FrontendModelKind::Simplified,
                sampling: SamplingPolicy::Off,
            },
        }
    }

    /// Stable human-readable summary, e.g.
    /// `"analytical_alu+cycle_accurate_memory+simplified_frontend+event_driven"`.
    ///
    /// This is what [`GpuSimulator::description`] reports and what lands in
    /// campaign cache keys.
    ///
    /// [`GpuSimulator::description`]: crate::GpuSimulator::description
    pub fn describe(&self) -> String {
        let alu = match self.alu {
            AluModelKind::CycleAccurate => "cycle_accurate_alu",
            AluModelKind::Analytical => "analytical_alu",
        };
        let mem = match self.memory {
            MemoryModelKind::CycleAccurate => "cycle_accurate_memory",
            MemoryModelKind::Analytical => "analytical_memory",
            MemoryModelKind::AnalyticalReuse => "analytical_memory_rd",
        };
        let frontend = match self.frontend {
            FrontendModelKind::Detailed => "detailed_frontend",
            FrontendModelKind::Simplified => "simplified_frontend",
        };
        // The clock is an engine property, not a choice, but descriptions
        // (and the campaign keys and checkpoint identities built from them)
        // predate its removal and must not move.
        let mut out = format!("{alu}+{mem}+{frontend}+event_driven");
        // Sampling changes what a run computes, so any non-off policy must
        // show up in descriptions (and in the campaign cache keys built from
        // them); `off` stays silent so existing keys are unchanged.
        match self.sampling {
            SamplingPolicy::Off => {}
            SamplingPolicy::KernelCluster { reps } => {
                out.push_str(&format!("+sampled_r{reps}"));
            }
        }
        out
    }

    /// Apply one GPGPU-Sim-style fidelity option.
    ///
    /// Recognized keys: `-sim_alu_model`, `-sim_mem_model`,
    /// `-sim_frontend_model` and `-sim_sampling`.
    /// Unknown `-sim_*` keys are an error (a typo'd fidelity knob must not
    /// silently fall back to the default); returns `Ok(false)` for any
    /// other key so callers can embed fidelity options inside a full
    /// config file.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for an unknown `-sim_*` key or
    /// an unparseable value.
    pub fn apply_option(&mut self, key: &str, value: &str) -> Result<bool, SimError> {
        match key {
            "-sim_alu_model" => self.alu = value.parse()?,
            "-sim_mem_model" => self.memory = value.parse()?,
            "-sim_frontend_model" => self.frontend = value.parse()?,
            "-sim_sampling" => self.sampling = value.parse()?,
            other if other.starts_with("-sim_") => {
                return Err(SimError::InvalidConfig {
                    message: format!(
                        "unknown fidelity option {other:?} (expected -sim_alu_model, \
                         -sim_mem_model, -sim_frontend_model, or -sim_sampling)"
                    ),
                });
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Parse GPGPU-Sim-style option text into a fidelity, starting from the
    /// default (detailed-baseline) choices.
    ///
    /// The text is tokenized on whitespace; `#` starts a line comment.
    /// `-sim_*` options are applied via
    /// [`apply_option`](FidelityConfig::apply_option); any other `-flag`
    /// and its value tokens are ignored, so a complete
    /// `gpgpusim.config`-shaped file parses cleanly.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for an unknown `-sim_*` key, a
    /// bad value, or a `-sim_*` key missing its value.
    pub fn parse_args(text: &str) -> Result<Self, SimError> {
        let mut fidelity = FidelityConfig::default();
        for line in text.lines() {
            let line = line.split('#').next().unwrap_or("");
            let mut tokens = line.split_whitespace().peekable();
            while let Some(token) = tokens.next() {
                if !token.starts_with('-') {
                    continue; // stray value of an ignored foreign option
                }
                if token.starts_with("-sim_") {
                    let value = tokens.next().ok_or_else(|| SimError::InvalidConfig {
                        message: format!("fidelity option {token:?} is missing its value"),
                    })?;
                    fidelity.apply_option(token, value)?;
                }
                // Foreign options keep their value tokens; the `!starts_with('-')`
                // check above skips those on the next iterations.
            }
        }
        Ok(fidelity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_aliases_are_stable() {
        assert_eq!(
            FidelityConfig::for_preset(SimulatorPreset::Detailed).describe(),
            "cycle_accurate_alu+cycle_accurate_memory+detailed_frontend+event_driven"
        );
        assert_eq!(
            FidelityConfig::for_preset(SimulatorPreset::SwiftBasic).describe(),
            "analytical_alu+cycle_accurate_memory+simplified_frontend+event_driven"
        );
        assert_eq!(
            FidelityConfig::for_preset(SimulatorPreset::SwiftMemory).describe(),
            "analytical_alu+analytical_memory+simplified_frontend+event_driven"
        );
    }

    #[test]
    fn tokens_round_trip_through_from_str() {
        for alu in [AluModelKind::CycleAccurate, AluModelKind::Analytical] {
            assert_eq!(alu.token().parse::<AluModelKind>().unwrap(), alu);
        }
        for mem in [
            MemoryModelKind::CycleAccurate,
            MemoryModelKind::Analytical,
            MemoryModelKind::AnalyticalReuse,
        ] {
            assert_eq!(mem.token().parse::<MemoryModelKind>().unwrap(), mem);
        }
        for fe in [FrontendModelKind::Detailed, FrontendModelKind::Simplified] {
            assert_eq!(fe.token().parse::<FrontendModelKind>().unwrap(), fe);
        }
    }

    #[test]
    fn parse_args_reads_gpgpusim_style_keys() {
        let f = FidelityConfig::parse_args(
            "# swift-sim-memory with reuse-distance hit rates\n\
             -sim_alu_model analytical\n\
             -sim_mem_model analytical_reuse\n\
             -sim_frontend_model simplified\n",
        )
        .unwrap();
        assert_eq!(f.alu, AluModelKind::Analytical);
        assert_eq!(f.memory, MemoryModelKind::AnalyticalReuse);
        assert_eq!(f.frontend, FrontendModelKind::Simplified);
    }

    #[test]
    fn parse_args_ignores_foreign_options() {
        let f = FidelityConfig::parse_args(
            "-gpgpu_n_clusters 68 extra tokens\n\
             -sim_mem_model analytical # trailing comment\n\
             -gpgpu_cache:dl1 S:4:128:64\n",
        )
        .unwrap();
        assert_eq!(f.memory, MemoryModelKind::Analytical);
        assert_eq!(f.alu, AluModelKind::CycleAccurate, "default untouched");
    }

    #[test]
    fn parse_args_rejects_unknown_sim_keys_and_bad_values() {
        assert!(FidelityConfig::parse_args("-sim_warp_model fancy").is_err());
        assert!(FidelityConfig::parse_args("-sim_alu_model quantum").is_err());
        assert!(FidelityConfig::parse_args("-sim_mem_model").is_err());
    }

    #[test]
    fn default_is_detailed_event_driven() {
        let f = FidelityConfig::default();
        assert_eq!(f, FidelityConfig::for_preset(SimulatorPreset::Detailed));
    }

    #[test]
    fn sampling_tokens_round_trip() {
        for p in [
            SamplingPolicy::Off,
            SamplingPolicy::KernelCluster { reps: 1 },
            SamplingPolicy::KernelCluster { reps: 8 },
        ] {
            assert_eq!(p.token().parse::<SamplingPolicy>().unwrap(), p);
        }
        assert_eq!(
            "cluster".parse::<SamplingPolicy>().unwrap(),
            SamplingPolicy::KernelCluster {
                reps: DEFAULT_SAMPLING_REPS
            }
        );
        assert!("cluster:0".parse::<SamplingPolicy>().is_err());
        assert!("interval".parse::<SamplingPolicy>().is_err());
    }

    #[test]
    fn sampling_parses_and_shows_in_describe() {
        let f = FidelityConfig::parse_args("-sim_sampling cluster:3").unwrap();
        assert_eq!(f.sampling, SamplingPolicy::KernelCluster { reps: 3 });
        assert!(f.describe().ends_with("+sampled_r3"), "{}", f.describe());

        // Off stays silent so preset descriptions (and the campaign cache
        // keys derived from them) are unchanged.
        let f = FidelityConfig::parse_args("-sim_sampling off").unwrap();
        assert_eq!(f.describe(), FidelityConfig::default().describe());
        assert!(!f.describe().contains("sampled"), "{}", f.describe());
    }

    #[test]
    fn unknown_sim_key_error_lists_all_keys() {
        let err = FidelityConfig::parse_args("-sim_bogus x").unwrap_err();
        let msg = err.to_string();
        for key in [
            "-sim_alu_model",
            "-sim_mem_model",
            "-sim_frontend_model",
            "-sim_sampling",
        ] {
            assert!(msg.contains(key), "{msg} missing {key}");
        }
    }
}
