//! Hardware Configuration Collector for the Swift-Sim GPU simulation
//! framework.
//!
//! This crate is the first half of Swift-Sim's *Frontend* (§III-A of the
//! paper): it collects and parses modeling parameters from configuration
//! files and provides them to the performance model. Architects modify these
//! settings — GPU core count, L1 cache size, the latency of each execution
//! unit, and so on — to simulate new GPU architectures.
//!
//! The crate provides three things:
//!
//! * A typed description of a GPU ([`GpuConfig`] and its parts: [`SmConfig`],
//!   [`CacheConfig`], [`MemoryConfig`], [`NocConfig`]).
//! * Validated presets for the three real GPUs the paper evaluates against
//!   (Tables I and II): [`presets::rtx2080ti`], [`presets::rtx3060`], and
//!   [`presets::rtx3090`].
//! * A GPGPU-Sim-style `-key value` text format ([`GpuConfig::parse`] /
//!   [`GpuConfig::to_config_text`]) so configurations can be stored in files
//!   and tweaked without recompiling.
//!
//! # Examples
//!
//! ```
//! use swiftsim_config::{presets, GpuConfig};
//!
//! # fn main() -> Result<(), swiftsim_config::ConfigError> {
//! // Start from the RTX 2080 Ti preset and explore a bigger L1.
//! let mut cfg = presets::rtx2080ti();
//! cfg.sm.l1d.ways *= 2;
//! cfg.validate()?;
//!
//! // Round-trip through the on-disk format.
//! let text = cfg.to_config_text();
//! let back = GpuConfig::parse(&text)?;
//! assert_eq!(cfg, back);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod arch;
mod error;
mod hash;
mod parse;
pub mod presets;

pub use arch::{
    AllocPolicy, CacheConfig, CacheWriteAllocate, CacheWritePolicy, ExecUnitConfig, ExecUnitKind,
    GpuConfig, MemoryConfig, NocConfig, NocTopology, ReplacementPolicy, SchedulerPolicy, SmConfig,
};
pub use error::ConfigError;
pub use hash::fnv1a64;
