//! Trace model and parser for the Swift-Sim GPU simulation framework.
//!
//! This crate is the second half of Swift-Sim's *Frontend* (§III-A of the
//! paper): the **Trace Parser**. The paper captures application traces on
//! real NVIDIA hardware with an extension of the NVBit binary-instrumentation
//! tool and translates them into a simulator-readable format. This crate
//! defines that format — an instruction-level, architecture-independent
//! kernel trace — together with a reader and writer for its on-disk text
//! representation (modeled after the Accel-Sim tracer's format).
//!
//! Traces are *independent of the simulated GPU architecture*: the same
//! trace drives the RTX 2080 Ti, RTX 3060, and RTX 3090 models, exactly as
//! in the paper.
//!
//! The object model mirrors the CUDA execution hierarchy:
//!
//! * [`ApplicationTrace`] — a list of kernel launches.
//! * [`KernelTrace`] — launch geometry plus one [`BlockTrace`] per thread
//!   block.
//! * [`BlockTrace`] — one [`WarpTrace`] per warp.
//! * [`WarpTrace`] — the dynamic instruction stream of one warp, packed into
//!   16-byte records plus per-warp side tables; iterating it yields
//!   borrowed [`InstView`]s, and [`WarpTrace::push`] packs an
//!   [`InstBuilder`], the one owned form of an instruction.
//!
//! Per-thread memory addresses are stored compressed ([`AddressView`]):
//! uniform-stride accesses (the overwhelmingly common case) take constant
//! space, irregular accesses store the full per-lane list.
//!
//! # Examples
//!
//! ```
//! use swiftsim_trace::{ApplicationTrace, InstBuilder, KernelTrace, Opcode};
//!
//! # fn main() -> Result<(), swiftsim_trace::TraceError> {
//! let mut kernel = KernelTrace::new("vecadd", (2, 1, 1), (64, 1, 1));
//! for block in 0u64..2 {
//!     let b = kernel.push_block();
//!     for w in 0u64..2 {
//!         let warp = b.push_warp();
//!         warp.push(InstBuilder::new(Opcode::Ldg).dst(2).src(1).global_strided(
//!             0x1000 + block * 0x100 + w * 0x80,
//!             4,
//!             4,
//!         ));
//!         warp.push(InstBuilder::new(Opcode::Fadd).dst(3).src(2).src(2));
//!         warp.push(InstBuilder::new(Opcode::Exit));
//!     }
//! }
//! let app = ApplicationTrace::new("vecadd_app", vec![kernel]);
//!
//! // Round-trip through the on-disk text format.
//! let text = app.to_trace_text();
//! let back = ApplicationTrace::parse(&text)?;
//! assert_eq!(app, back);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod binfmt;
mod cache;
mod error;
mod format;
mod inst;
mod isa;
mod kernel;
mod source;
mod warp;

pub use binfmt::ChunkedTraceWriter;
pub use cache::{kernel_approx_bytes, CachedTraceSource, DecodedKernelCache, KernelCacheStats};
pub use error::TraceError;
pub use inst::{AddressList, AddressView, InstBuilder, MemInstRef, MemView, Reg};
pub use isa::{MemSpace, Opcode, OpcodeClass};
pub use kernel::{ApplicationTrace, BlockTrace, Dim3, KernelTrace, TraceStats};
pub use source::{open_trace, ChunkedTraceSource, KernelMeta, TextTraceSource, TraceSource};
pub use warp::{InstCursor, InstView, SrcRegs, WarpIter, WarpTrace};
