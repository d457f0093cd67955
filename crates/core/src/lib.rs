//! Swift-Sim: a modular and hybrid GPU architecture simulation framework.
//!
//! This crate is the Rust reproduction of the framework described in
//! *"Swift-Sim: A Modular and Hybrid GPU Architecture Simulation
//! Framework"* (DATE 2025). Every GPU component — block scheduler, warp
//! scheduler & dispatch, execution units, LD/ST units, caches, NoC, DRAM —
//! is an independent module behind a fixed interface, so each can be
//! simulated **cycle-accurately** or with an **analytical model** without
//! touching its neighbours (§III-B2 of the paper).
//!
//! The two hybrid working examples of §III-D are provided:
//!
//! * an **improved analytical ALU model** ([`alu::AnalyticalAlu`]): fixed
//!   per-opcode latencies plus contention observed at issue, instead of
//!   per-cycle pipeline-stage simulation;
//! * an **analytical memory model** ([`mem_system::AnalyticalMemory`]):
//!   per-PC expected latency `L_inst = L_L1·R_L1 + L_L2·R_L2 +
//!   L_DRAM·R_DRAM` (Eq. 1) plus a contention adder, instead of simulating
//!   caches, interconnect and DRAM.
//!
//! Three simulator presets mirror the paper's evaluation (§IV-A3):
//!
//! | Preset | ALU | Memory | Frontend caches |
//! |---|---|---|---|
//! | [`SimulatorPreset::Detailed`] (the Accel-Sim stand-in) | cycle-accurate | cycle-accurate | modeled |
//! | [`SimulatorPreset::SwiftBasic`] | analytical | cycle-accurate | simplified |
//! | [`SimulatorPreset::SwiftMemory`] | analytical | analytical (Eq. 1) | simplified |
//!
//! # Examples
//!
//! ```
//! use swiftsim_config::presets;
//! use swiftsim_core::{RunOptions, SimulatorPreset};
//! use swiftsim_trace::{ApplicationTrace, InstBuilder, KernelTrace, Opcode};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A two-block toy application.
//! let mut kernel = KernelTrace::new("toy", (2, 1, 1), (32, 1, 1));
//! for b in 0u64..2 {
//!     let blk = kernel.push_block();
//!     let w = blk.push_warp();
//!     w.push(InstBuilder::new(Opcode::Ldg).pc(0).dst(2).src(1).global_strided(b * 0x1000, 4, 4));
//!     w.push(InstBuilder::new(Opcode::Ffma).pc(16).dst(3).src(2).src(2));
//!     w.push(InstBuilder::new(Opcode::Exit).pc(32));
//! }
//! let app = ApplicationTrace::new("toy", vec![kernel]);
//!
//! let options = RunOptions::default().with_preset(SimulatorPreset::SwiftMemory);
//! let result = swiftsim_core::run(&app, &presets::rtx2080ti(), &options)?;
//! assert!(result.cycles > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alu;
mod block_scheduler;
mod builder;
pub mod checkpoint;
mod error;
mod fidelity;
mod gate;
mod gpu;
mod input;
mod json;
pub mod mem_system;
mod options;
mod parallel;
mod prefetch;
mod result;
mod sampling;
mod scheduler;
mod scoreboard;
mod sm;
mod stats;
mod twophase;

pub use alu::AluModel;
pub use block_scheduler::{BlockScheduler, Occupancy};
pub use builder::{run, GpuSimulator, SimulatorPreset};
pub use checkpoint::Snapshot;
pub use error::{panic_message, SimError, DEADLOCK_MARKER};
pub use fidelity::{
    AluModelKind, FidelityConfig, FrontendModelKind, MemoryModelKind, SamplingPolicy,
    DEFAULT_SAMPLING_REPS,
};
pub use input::TraceInput;
pub use json::RESULT_SCHEMA_VERSION;
pub use mem_system::{MemReply, MemorySystem};
pub use options::{CheckpointOptions, RunOptions};
pub use parallel::max_threads;
pub use result::{Confidence, KernelResult, SimulationResult};
pub use scheduler::{
    GtoScheduler, IssueMasks, LrrScheduler, TwoLevelScheduler, WarpSchedulerPolicy,
};
pub use scoreboard::Scoreboard;
pub use stats::{StatId, StatUnit, UnknownStat};

/// A simulation cycle index.
pub type Cycle = u64;
