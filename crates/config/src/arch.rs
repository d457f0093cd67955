//! Typed GPU architecture description.
//!
//! The modeled architecture follows §II-A / Fig. 1 of the paper: a GPU is a
//! set of streaming multiprocessors (SMs), each made of several sub-cores
//! (warp scheduler + register file + execution units + LD/ST units) that
//! share a sectored L1 data cache and shared memory; the SMs share a banked
//! L2 cache reached over an on-chip interconnect, and L2 misses go to DRAM.

use crate::error::ConfigError;
use std::fmt;

/// Warp scheduling policy used by *Warp Scheduler & Dispatch* (§III-B1).
///
/// The scheduler is the paper's working example of a "module of interest":
/// it is simulated cycle-accurately in every preset so new scheduling
/// algorithms can be evaluated faithfully.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedulerPolicy {
    /// Greedy-then-oldest: keep issuing from the current warp until it
    /// stalls, then switch to the oldest ready warp. The RTX 2080 Ti
    /// configuration in Table II uses GTO.
    #[default]
    Gto,
    /// Loose round-robin over ready warps.
    Lrr,
    /// Two-level scheduler: a small active set is scheduled round-robin and
    /// refilled from a pending set when warps stall on long-latency events.
    TwoLevel,
}

impl fmt::Display for SchedulerPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedulerPolicy::Gto => f.write_str("gto"),
            SchedulerPolicy::Lrr => f.write_str("lrr"),
            SchedulerPolicy::TwoLevel => f.write_str("two_level"),
        }
    }
}

impl std::str::FromStr for SchedulerPolicy {
    type Err = ConfigError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "gto" => Ok(SchedulerPolicy::Gto),
            "lrr" => Ok(SchedulerPolicy::Lrr),
            "two_level" => Ok(SchedulerPolicy::TwoLevel),
            other => Err(ConfigError::invalid_value("scheduler policy", other)),
        }
    }
}

/// Cache replacement policy.
///
/// The paper motivates cycle-accurate cache modeling precisely because
/// analytical reuse-distance models "typically assume that the cache
/// replacement policy is LRU" (§II-B); the cycle-accurate cache in
/// `swiftsim-mem` supports all three.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReplacementPolicy {
    /// Least-recently-used.
    #[default]
    Lru,
    /// First-in first-out.
    Fifo,
    /// Pseudo-random victim selection.
    Random,
}

impl fmt::Display for ReplacementPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplacementPolicy::Lru => f.write_str("lru"),
            ReplacementPolicy::Fifo => f.write_str("fifo"),
            ReplacementPolicy::Random => f.write_str("random"),
        }
    }
}

impl std::str::FromStr for ReplacementPolicy {
    type Err = ConfigError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "lru" => Ok(ReplacementPolicy::Lru),
            "fifo" => Ok(ReplacementPolicy::Fifo),
            "random" => Ok(ReplacementPolicy::Random),
            other => Err(ConfigError::invalid_value("replacement policy", other)),
        }
    }
}

/// Cache write-hit policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CacheWritePolicy {
    /// Writes update the cache and are forwarded to the next level
    /// immediately (the RTX 2080 Ti L1 in Table II).
    #[default]
    WriteThrough,
    /// Writes mark the line dirty; dirty lines are written back on eviction
    /// (the L2 in Table II).
    WriteBack,
}

impl fmt::Display for CacheWritePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheWritePolicy::WriteThrough => f.write_str("write_through"),
            CacheWritePolicy::WriteBack => f.write_str("write_back"),
        }
    }
}

impl std::str::FromStr for CacheWritePolicy {
    type Err = ConfigError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "write_through" => Ok(CacheWritePolicy::WriteThrough),
            "write_back" => Ok(CacheWritePolicy::WriteBack),
            other => Err(ConfigError::invalid_value("write policy", other)),
        }
    }
}

/// Cache write-miss allocation policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CacheWriteAllocate {
    /// Write misses do not allocate a line (write-around / no-write-allocate).
    #[default]
    NoWriteAllocate,
    /// Write misses fetch and allocate the line.
    WriteAllocate,
}

impl fmt::Display for CacheWriteAllocate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheWriteAllocate::NoWriteAllocate => f.write_str("no_write_allocate"),
            CacheWriteAllocate::WriteAllocate => f.write_str("write_allocate"),
        }
    }
}

impl std::str::FromStr for CacheWriteAllocate {
    type Err = ConfigError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "no_write_allocate" => Ok(CacheWriteAllocate::NoWriteAllocate),
            "write_allocate" => Ok(CacheWriteAllocate::WriteAllocate),
            other => Err(ConfigError::invalid_value("write allocate policy", other)),
        }
    }
}

/// Line allocation timing policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AllocPolicy {
    /// Allocate the line when the miss request is sent ("allocate on miss").
    OnMiss,
    /// Allocate when the fill returns ("allocate on fill"); modern NVIDIA L1
    /// caches are streaming caches that allocate on fill, which is why
    /// Table II calls the L1 "streaming".
    #[default]
    OnFill,
}

impl fmt::Display for AllocPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocPolicy::OnMiss => f.write_str("on_miss"),
            AllocPolicy::OnFill => f.write_str("on_fill"),
        }
    }
}

impl std::str::FromStr for AllocPolicy {
    type Err = ConfigError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "on_miss" => Ok(AllocPolicy::OnMiss),
            "on_fill" => Ok(AllocPolicy::OnFill),
            other => Err(ConfigError::invalid_value("allocation policy", other)),
        }
    }
}

/// The kinds of execution units inside a sub-core (Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ExecUnitKind {
    /// Integer ALUs.
    Int,
    /// Single-precision floating-point units (CUDA cores).
    Sp,
    /// Double-precision units.
    Dp,
    /// Special-function units (transcendentals).
    Sfu,
    /// Tensor cores.
    Tensor,
    /// Load/store units.
    LdSt,
}

impl ExecUnitKind {
    /// All unit kinds in a fixed order, convenient for iteration and for
    /// indexing per-unit tables.
    pub const ALL: [ExecUnitKind; 6] = [
        ExecUnitKind::Int,
        ExecUnitKind::Sp,
        ExecUnitKind::Dp,
        ExecUnitKind::Sfu,
        ExecUnitKind::Tensor,
        ExecUnitKind::LdSt,
    ];

    /// Stable index of this kind within [`ExecUnitKind::ALL`].
    pub fn index(self) -> usize {
        match self {
            ExecUnitKind::Int => 0,
            ExecUnitKind::Sp => 1,
            ExecUnitKind::Dp => 2,
            ExecUnitKind::Sfu => 3,
            ExecUnitKind::Tensor => 4,
            ExecUnitKind::LdSt => 5,
        }
    }
}

impl fmt::Display for ExecUnitKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecUnitKind::Int => f.write_str("int"),
            ExecUnitKind::Sp => f.write_str("sp"),
            ExecUnitKind::Dp => f.write_str("dp"),
            ExecUnitKind::Sfu => f.write_str("sfu"),
            ExecUnitKind::Tensor => f.write_str("tensor"),
            ExecUnitKind::LdSt => f.write_str("ldst"),
        }
    }
}

impl std::str::FromStr for ExecUnitKind {
    type Err = ConfigError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "int" => Ok(ExecUnitKind::Int),
            "sp" => Ok(ExecUnitKind::Sp),
            "dp" => Ok(ExecUnitKind::Dp),
            "sfu" => Ok(ExecUnitKind::Sfu),
            "tensor" => Ok(ExecUnitKind::Tensor),
            "ldst" => Ok(ExecUnitKind::LdSt),
            other => Err(ConfigError::invalid_value("execution unit kind", other)),
        }
    }
}

/// Configuration of one execution-unit class within a sub-core.
///
/// `lanes` is the number of SIMD lanes; a warp of 32 threads therefore
/// occupies the unit for `ceil(32 / lanes)` issue slots (its *initiation
/// interval*). `latency` is the pipeline depth in core cycles from issue to
/// writeback when there is no contention — the "fixed instruction delay" of
/// the paper's improved analytical ALU model (§III-D1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExecUnitConfig {
    /// SIMD lane count (e.g. 16 for the Turing sub-core INT unit, so a warp
    /// needs two passes). Table II writes `DP:0.5x` for two sub-cores
    /// sharing one DP unit; we model that as one lane.
    pub lanes: u32,
    /// Uncontended issue-to-writeback latency in core cycles.
    pub latency: u32,
}

impl ExecUnitConfig {
    /// Create a unit configuration.
    pub fn new(lanes: u32, latency: u32) -> Self {
        ExecUnitConfig { lanes, latency }
    }

    /// Number of scheduler cycles a 32-thread warp occupies this unit's
    /// issue port (the initiation interval).
    pub fn initiation_interval(&self, warp_size: u32) -> u32 {
        if self.lanes == 0 {
            return warp_size;
        }
        warp_size.div_ceil(self.lanes)
    }
}

/// Configuration of one cache (L1 data, L2 slice, or the simplified
/// instruction/constant caches).
///
/// Sizes follow the sectored organization of Table II: `line_bytes`-sized
/// lines split into `sector_bytes` sectors, with misses tracked in an MSHR
/// file that merges up to `mshr_max_merge` requests per entry.
///
/// Sector validity is tracked as a `u8` bitmap (one bit per sector)
/// everywhere downstream — see `AddressMapping::sector_mask` in
/// `swiftsim-mem` — so [`CacheConfig::validate`] rejects geometries with
/// more than 8 sectors per line.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Number of sets.
    pub sets: u32,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Line size in bytes (128 B on the modeled GPUs).
    pub line_bytes: u32,
    /// Sector size in bytes (32 B on the modeled GPUs).
    pub sector_bytes: u32,
    /// Number of banks; concurrent accesses to distinct banks proceed in
    /// parallel, same-bank accesses serialize (bank conflicts).
    pub banks: u32,
    /// Miss-status holding register entries.
    pub mshr_entries: u32,
    /// Maximum misses merged into a single MSHR entry.
    pub mshr_max_merge: u32,
    /// Replacement policy.
    pub replacement: ReplacementPolicy,
    /// Write-hit policy.
    pub write_policy: CacheWritePolicy,
    /// Write-miss allocation policy.
    pub write_allocate: CacheWriteAllocate,
    /// Line allocation timing.
    pub alloc: AllocPolicy,
    /// Hit latency in core cycles (32 for the 2080 Ti L1, 188 for its L2).
    pub latency: u32,
}

impl CacheConfig {
    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        u64::from(self.sets) * u64::from(self.ways) * u64::from(self.line_bytes)
    }

    /// Sectors per line.
    ///
    /// Bounded to at most 8 by [`CacheConfig::validate`]: sector masks are
    /// carried as `u8` bitmaps throughout the memory hierarchy (one bit per
    /// sector of a line), so a geometry with more than 8 sectors per line
    /// cannot be represented.
    pub fn sectors_per_line(&self) -> u32 {
        self.line_bytes / self.sector_bytes
    }

    /// Validate internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if any field is zero where a positive value is
    /// required, if `sets` is not a power of two, if the sector size does
    /// not evenly divide the line size, or if the line has more than 8
    /// sectors (the `u8` sector-mask invariant).
    pub fn validate(&self, name: &str) -> Result<(), ConfigError> {
        if self.sets == 0 || self.ways == 0 || self.line_bytes == 0 || self.banks == 0 {
            return Err(ConfigError::constraint(format!(
                "{name}: sets, ways, line size and banks must be positive"
            )));
        }
        if !self.sets.is_power_of_two() {
            return Err(ConfigError::constraint(format!(
                "{name}: set count {} is not a power of two",
                self.sets
            )));
        }
        if self.sector_bytes == 0 || !self.line_bytes.is_multiple_of(self.sector_bytes) {
            return Err(ConfigError::constraint(format!(
                "{name}: sector size {} must evenly divide line size {}",
                self.sector_bytes, self.line_bytes
            )));
        }
        if self.sectors_per_line() > 8 {
            return Err(ConfigError::constraint(format!(
                "{name}: {} sectors per line ({} B line / {} B sector) exceeds \
                 the 8-sector limit imposed by the u8 sector masks used across \
                 the memory hierarchy",
                self.sectors_per_line(),
                self.line_bytes,
                self.sector_bytes
            )));
        }
        if self.mshr_entries == 0 || self.mshr_max_merge == 0 {
            return Err(ConfigError::constraint(format!(
                "{name}: MSHR entries and merge limit must be positive"
            )));
        }
        Ok(())
    }
}

/// Streaming-multiprocessor configuration (Fig. 1, Table II).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SmConfig {
    /// Sub-cores (warp-scheduler partitions) per SM; 4 on Turing/Ampere.
    pub sub_cores: u32,
    /// Threads per warp (32 on all NVIDIA GPUs).
    pub warp_size: u32,
    /// Maximum resident warps per SM; at most 64.
    pub max_warps: u32,
    /// Maximum resident thread blocks per SM.
    pub max_blocks: u32,
    /// Maximum resident threads per SM.
    pub max_threads: u32,
    /// Register-file size per SM, in 32-bit registers.
    pub registers: u32,
    /// Shared-memory capacity per SM in bytes.
    pub shared_mem_bytes: u32,
    /// Shared-memory banks (conflict-free when lanes hit distinct banks).
    pub shared_mem_banks: u32,
    /// Uncontended shared-memory access latency in cycles.
    pub shared_mem_latency: u32,
    /// Warp schedulers per sub-core (1x in Table II).
    pub schedulers_per_sub_core: u32,
    /// Scheduling policy.
    pub scheduler: SchedulerPolicy,
    /// Per-class execution unit shapes, indexed by [`ExecUnitKind::index`].
    pub exec_units: [ExecUnitConfig; 6],
    /// L1 data cache shared by the SM's sub-cores.
    pub l1d: CacheConfig,
}

impl SmConfig {
    /// The execution-unit configuration for `kind`.
    pub fn exec_unit(&self, kind: ExecUnitKind) -> ExecUnitConfig {
        self.exec_units[kind.index()]
    }

    /// Validate internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when structural limits are zero or mutually
    /// inconsistent (e.g. `max_threads < warp_size`), or when `max_warps`
    /// exceeds 64.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.sub_cores == 0 {
            return Err(ConfigError::constraint(
                "SM must have at least one sub-core",
            ));
        }
        if self.warp_size == 0 || !self.warp_size.is_power_of_two() || self.warp_size > 32 {
            return Err(ConfigError::constraint(
                "warp size must be a power of two between 1 and 32",
            ));
        }
        if self.max_threads < self.warp_size {
            return Err(ConfigError::constraint(
                "max threads per SM is smaller than one warp",
            ));
        }
        if self.max_warps == 0 || self.max_blocks == 0 {
            return Err(ConfigError::constraint(
                "max warps and max blocks per SM must be positive",
            ));
        }
        if self.max_warps > 64 {
            return Err(ConfigError::constraint(format!(
                "max_warps {} exceeds the 64-warp limit: a sub-core's warp scheduler \
                 holds its warps in one 64-bit mask",
                self.max_warps
            )));
        }
        if self.max_warps * self.warp_size < self.max_threads {
            return Err(ConfigError::constraint(
                "max_warps * warp_size must cover max_threads",
            ));
        }
        if self.schedulers_per_sub_core == 0 {
            return Err(ConfigError::constraint(
                "each sub-core needs at least one scheduler",
            ));
        }
        for kind in ExecUnitKind::ALL {
            let u = self.exec_unit(kind);
            if u.lanes == 0 || u.latency == 0 {
                return Err(ConfigError::constraint(format!(
                    "execution unit {kind}: lanes and latency must be positive"
                )));
            }
        }
        self.l1d.validate("L1D")?;
        Ok(())
    }
}

/// Off-chip memory-system configuration (L2 + DRAM, Table II).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MemoryConfig {
    /// Memory partitions; each owns one L2 slice and one DRAM channel
    /// (22 on the RTX 2080 Ti).
    pub partitions: u32,
    /// Per-partition L2 slice.
    pub l2: CacheConfig,
    /// DRAM access latency in core cycles (227 on the 2080 Ti).
    pub dram_latency: u32,
    /// Peak DRAM transactions (32 B sectors) a partition can start per core
    /// cycle, expressed as cycles between transactions. 2 means one sector
    /// every other cycle.
    pub dram_cycles_per_txn: u32,
    /// Outstanding-request queue depth per DRAM channel.
    pub dram_queue_depth: u32,
}

impl MemoryConfig {
    /// Aggregate L2 capacity across partitions, in bytes.
    pub fn l2_capacity_bytes(&self) -> u64 {
        self.l2.capacity_bytes() * u64::from(self.partitions)
    }

    /// Validate internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the partition count, DRAM timing, or the
    /// embedded L2 configuration is invalid.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.partitions == 0 {
            return Err(ConfigError::constraint("at least one memory partition"));
        }
        if self.dram_latency == 0 || self.dram_cycles_per_txn == 0 || self.dram_queue_depth == 0 {
            return Err(ConfigError::constraint(
                "DRAM latency, bandwidth and queue depth must be positive",
            ));
        }
        self.l2.validate("L2")?;
        Ok(())
    }
}

/// Interconnect topology between SMs and memory partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum NocTopology {
    /// Full crossbar (the common model for NVIDIA's SM↔L2 fabric).
    #[default]
    Crossbar,
    /// 2D mesh with XY routing; hop latency is per link.
    Mesh,
}

impl fmt::Display for NocTopology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NocTopology::Crossbar => f.write_str("crossbar"),
            NocTopology::Mesh => f.write_str("mesh"),
        }
    }
}

impl std::str::FromStr for NocTopology {
    type Err = ConfigError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "crossbar" => Ok(NocTopology::Crossbar),
            "mesh" => Ok(NocTopology::Mesh),
            other => Err(ConfigError::invalid_value("NoC topology", other)),
        }
    }
}

/// On-chip interconnect configuration (§II-A: "SMs … are connected to the L2
/// cache via on-chip interconnects").
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NocConfig {
    /// Topology.
    pub topology: NocTopology,
    /// Zero-load latency in core cycles from SM to L2 partition.
    pub latency: u32,
    /// Flit size in bytes (one 32 B sector plus header fits in one flit).
    pub flit_bytes: u32,
    /// Per-output-port queue depth in flits.
    pub queue_depth: u32,
    /// Flits a port can accept per cycle.
    pub flits_per_cycle: u32,
}

impl NocConfig {
    /// Validate internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if any timing or sizing field is zero.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.latency == 0
            || self.flit_bytes == 0
            || self.queue_depth == 0
            || self.flits_per_cycle == 0
        {
            return Err(ConfigError::constraint(
                "NoC latency, flit size, queue depth and throughput must be positive",
            ));
        }
        Ok(())
    }
}

/// Complete configuration of a modeled GPU.
///
/// This is the object the Hardware Configuration Collector hands to the
/// performance model. See [`crate::presets`] for the three validated real-GPU
/// configurations from the paper.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GpuConfig {
    /// Human-readable name, e.g. `"RTX 2080 Ti"`.
    pub name: String,
    /// Marketing architecture name, e.g. `"Turing"` (Table I).
    pub architecture: String,
    /// Number of streaming multiprocessors.
    pub num_sms: u32,
    /// SM-internal configuration (identical across SMs).
    pub sm: SmConfig,
    /// L2 + DRAM configuration.
    pub memory: MemoryConfig,
    /// SM↔L2 interconnect configuration.
    pub noc: NocConfig,
}

impl GpuConfig {
    /// Total CUDA-core count (SP lanes × sub-cores × SMs), matching the
    /// "CUDA Cores" row of Table I.
    pub fn cuda_cores(&self) -> u32 {
        self.sm.exec_unit(ExecUnitKind::Sp).lanes * self.sm.sub_cores * self.num_sms
    }

    /// Validate the whole configuration.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found in any component.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.num_sms == 0 {
            return Err(ConfigError::constraint("GPU must have at least one SM"));
        }
        if self.name.is_empty() {
            return Err(ConfigError::constraint("GPU name must not be empty"));
        }
        self.sm.validate()?;
        self.memory.validate()?;
        self.noc.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn initiation_interval_rounds_up() {
        let u = ExecUnitConfig::new(16, 4);
        assert_eq!(u.initiation_interval(32), 2);
        let u = ExecUnitConfig::new(32, 4);
        assert_eq!(u.initiation_interval(32), 1);
        let u = ExecUnitConfig::new(5, 4);
        assert_eq!(u.initiation_interval(32), 7);
    }

    #[test]
    fn initiation_interval_zero_lanes_is_safe() {
        let u = ExecUnitConfig::new(0, 4);
        assert_eq!(u.initiation_interval(32), 32);
    }

    #[test]
    fn cache_capacity() {
        let cfg = presets::rtx2080ti();
        // L2: 5.5 MB total across 22 partitions (Table I).
        assert_eq!(cfg.memory.l2_capacity_bytes(), 5_632 * 1024);
    }

    #[test]
    fn sectors_per_line() {
        let cfg = presets::rtx2080ti();
        assert_eq!(cfg.sm.l1d.sectors_per_line(), 4);
        assert_eq!(cfg.memory.l2.sectors_per_line(), 4);
    }

    #[test]
    fn validate_rejects_zero_sms() {
        let mut cfg = presets::rtx2080ti();
        cfg.num_sms = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validate_rejects_non_pow2_sets() {
        let mut cfg = presets::rtx2080ti();
        cfg.sm.l1d.sets = 3;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validate_rejects_bad_sector_size() {
        let mut cfg = presets::rtx2080ti();
        cfg.memory.l2.sector_bytes = 48;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validate_rejects_more_than_eight_sectors_per_line() {
        // 256 B lines with 16 B sectors = 16 sectors per line, which the u8
        // sector masks cannot represent. This used to pass validation and
        // then overflow `1u8 << s` in AddressMapping::sector_mask.
        let mut cfg = presets::rtx2080ti();
        cfg.sm.l1d.line_bytes = 256;
        cfg.sm.l1d.sector_bytes = 16;
        let err = cfg.validate().unwrap_err();
        assert!(err.to_string().contains("8-sector limit"), "{err}");

        // Exactly 8 sectors per line is still fine.
        let mut cfg = presets::rtx2080ti();
        cfg.sm.l1d.line_bytes = 128;
        cfg.sm.l1d.sector_bytes = 16;
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validate_rejects_thread_warp_mismatch() {
        let mut cfg = presets::rtx2080ti();
        cfg.sm.max_threads = cfg.sm.max_warps * cfg.sm.warp_size + 32;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validate_rejects_more_than_64_warps() {
        let mut cfg = presets::rtx2080ti();
        cfg.sm.max_warps = 65;
        let err = cfg.validate().unwrap_err();
        assert!(matches!(err, ConfigError::Constraint(_)), "{err:?}");
        assert!(err.to_string().contains("64-warp limit"), "{err}");

        cfg.sm.max_warps = 64;
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn enum_round_trips() {
        for p in [
            SchedulerPolicy::Gto,
            SchedulerPolicy::Lrr,
            SchedulerPolicy::TwoLevel,
        ] {
            assert_eq!(p.to_string().parse::<SchedulerPolicy>().unwrap(), p);
        }
        for p in [
            ReplacementPolicy::Lru,
            ReplacementPolicy::Fifo,
            ReplacementPolicy::Random,
        ] {
            assert_eq!(p.to_string().parse::<ReplacementPolicy>().unwrap(), p);
        }
        for k in ExecUnitKind::ALL {
            assert_eq!(k.to_string().parse::<ExecUnitKind>().unwrap(), k);
            assert_eq!(ExecUnitKind::ALL[k.index()], k);
        }
    }

    #[test]
    fn unknown_enum_values_error() {
        assert!("gso".parse::<SchedulerPolicy>().is_err());
        assert!("plru".parse::<ReplacementPolicy>().is_err());
        assert!("torus".parse::<NocTopology>().is_err());
    }
}
