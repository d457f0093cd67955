//! Synthetic benchmark suite and silicon oracle for the Swift-Sim
//! reproduction.
//!
//! The paper evaluates Swift-Sim on applications from five suites —
//! Rodinia, Polybench, Mars, Tango, and Pannotia — whose traces are
//! captured on real NVIDIA GPUs with an NVBit extension. No GPU is
//! available in this environment, so this crate substitutes each
//! application with a **seeded, deterministic trace generator** that
//! reproduces the application's architectural character: launch geometry,
//! instruction mix, control behaviour, shared-memory usage, and — most
//! importantly for the memory models — the memory-access pattern
//! (streaming, strided, stencil, tiled, graph-irregular). See DESIGN.md §3
//! for the substitution rationale.
//!
//! The crate also provides the [`silicon`] module: the stand-in for the
//! paper's Nsight-Compute measurements of real-hardware cycles, against
//! which prediction error (Figs. 4 and 6) is computed.
//!
//! # Examples
//!
//! ```
//! use swiftsim_workloads::{suite, Scale};
//!
//! let workloads = suite();
//! assert_eq!(workloads.len(), 20);
//! let bfs = workloads.iter().find(|w| w.name == "bfs").unwrap();
//! let app = bfs.generate(Scale::Tiny);
//! assert!(app.num_insts() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod apps;
mod gen;
pub mod silicon;

pub use apps::{by_name, suite, Suite, Workload};
pub use gen::{ingest_stress_app, MemPattern, Mix, PatternKernel, Scale};
