//! Memory-hierarchy substrate for the Swift-Sim GPU simulation framework.
//!
//! The paper's modeled GPU (§II-A / Table II) has a sectored, streaming,
//! write-through L1 per SM and a sectored, write-back, banked L2 shared by
//! all SMs through the interconnect; L2 misses go to partitioned DRAM. This
//! crate implements every piece of that hierarchy from scratch:
//!
//! * [`AddressMapping`] — line/sector/set/bank/partition address math.
//! * [`TagArray`] — sectored tag array with LRU / FIFO / Random replacement.
//! * [`MshrFile`] — miss-status holding registers with per-entry merge
//!   limits (256×8 for the 2080 Ti L1, 192×4 for its L2).
//! * [`SectorCache`] — a complete banked sector cache combining the above,
//!   with hit/miss/reservation-failure outcomes and fill handling, usable
//!   as either L1 or L2.
//! * [`DramChannel`] — a latency/bandwidth DRAM channel with a bounded
//!   request queue, one per memory partition.
//! * [`coalesce`] — the per-warp memory-access coalescer that merges lane
//!   addresses into 32 B sector transactions.
//! * [`ReuseDistanceAnalyzer`] and [`FunctionalCacheSim`] — the two tools
//!   the paper names for obtaining the per-PC hit rates `R_L1`, `R_L2`,
//!   `R_DRAM` consumed by the analytical memory model (Eq. 1): a
//!   reuse-distance tool and a (functional) cache simulator. Either one
//!   decides which level ([`ServedBy`]) serves each transaction, and one
//!   [`PcHitTable`] turns those answers into per-PC rates.
//!
//! All timing here is expressed through explicit `now` cycle arguments so
//! the same structures serve the detailed cycle-accurate simulator and the
//! fast hybrid ones.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod addr;
pub mod coalesce;
mod dram;
pub mod fasthash;
mod funcsim;
mod mshr;
mod reuse;
mod sector_cache;
mod tag_array;

pub use addr::AddressMapping;
pub use coalesce::{coalesce_accesses, coalesce_accesses_into, coalesce_strided_into, MemTxn};
pub use dram::{DramChannel, DramStats};
pub use fasthash::FastMap;
pub use funcsim::{FunctionalCacheSim, PcHitRates, PcHitTable, ServedBy};
pub use mshr::{MshrFile, MshrOutcome};
pub use reuse::ReuseDistanceAnalyzer;
pub use sector_cache::{AccessOutcome, CacheStats, EvictedLine, FillResult, SectorCache};
pub use tag_array::{LineState, TagArray};

/// A simulation cycle index.
pub type Cycle = u64;
