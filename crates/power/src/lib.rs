//! GPU power and energy estimation for Swift-Sim.
//!
//! The paper's related work (AccelWattch, reference \[10\]) builds power
//! models on top of a performance simulator's activity counters. This
//! crate does the same for Swift-Sim: it consumes the Metrics Gatherer's
//! counters ([`swiftsim_metrics::MetricsCollector`]) — issued instructions,
//! memory traffic, cache activity, DRAM transactions, active cycles — and
//! multiplies them by per-event energy coefficients plus a static-power
//! term, yielding a per-component energy/power breakdown.
//!
//! The model is an **activity-based analytical model**, in the same spirit
//! as the paper's hybrid philosophy: it attaches to any simulator preset
//! (the counters are model-independent), so architects get power estimates
//! even from the fastest Swift-Sim-Memory runs.
//!
//! Coefficients default to Turing-class values scaled from published
//! AccelWattch/GPUWattch breakdowns; they are fully overridable for
//! calibration against a measured board.
//!
//! # Examples
//!
//! ```
//! use swiftsim_power::{PowerModel, PowerReport};
//! use swiftsim_metrics::{MetricsCollector, Value};
//!
//! let mut metrics = MetricsCollector::new();
//! metrics.set("gpu.cycles", Value::Cycles(1_000_000));
//! metrics.set("gpu.instructions", Value::Count(4_000_000));
//! metrics.set("mem.dram.reads", Value::Count(50_000));
//! metrics.set("mem.dram.writes", Value::Count(10_000));
//!
//! let model = PowerModel::turing_class(&swiftsim_config::presets::rtx2080ti());
//! let report: PowerReport = model.estimate(&metrics);
//! assert!(report.total_energy_j() > 0.0);
//! assert!(report.average_power_w() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

use std::fmt;
use swiftsim_config::GpuConfig;
use swiftsim_metrics::MetricsCollector;

/// Energy coefficients in joules per event, plus static power in watts.
///
/// Defaults come from [`PowerModel::turing_class`]; every field is public
/// so a user can calibrate against hardware measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyCoefficients {
    /// Energy per issued warp instruction (execution-unit datapath).
    pub per_instruction: f64,
    /// Energy per L1 access.
    pub per_l1_access: f64,
    /// Energy per L2 access.
    pub per_l2_access: f64,
    /// Energy per DRAM transaction (32 B sector).
    pub per_dram_txn: f64,
    /// Energy per NoC flit.
    pub per_noc_flit: f64,
    /// Energy per shared-memory bank conflict replay.
    pub per_bank_conflict: f64,
    /// Static (leakage + idle clock) power of the whole chip, in watts.
    pub static_power_w: f64,
    /// Per-SM active-cycle energy (clock tree, scheduler, register file).
    pub per_active_cycle: f64,
    /// Core clock in Hz, used to convert cycles to seconds.
    pub clock_hz: f64,
}

/// Per-component energy breakdown of one simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PowerReport {
    /// Execution-unit / datapath energy (J).
    pub core_j: f64,
    /// L1 + L2 cache energy (J).
    pub cache_j: f64,
    /// DRAM energy (J).
    pub dram_j: f64,
    /// Interconnect energy (J).
    pub noc_j: f64,
    /// SM pipeline overhead energy (J).
    pub pipeline_j: f64,
    /// Static/leakage energy over the run (J).
    pub static_j: f64,
    /// Modeled execution time (s).
    pub runtime_s: f64,
}

impl PowerReport {
    /// Total energy in joules.
    pub fn total_energy_j(&self) -> f64 {
        self.core_j + self.cache_j + self.dram_j + self.noc_j + self.pipeline_j + self.static_j
    }

    /// Average power over the run, in watts.
    pub fn average_power_w(&self) -> f64 {
        if self.runtime_s <= 0.0 {
            return 0.0;
        }
        self.total_energy_j() / self.runtime_s
    }

    /// Dynamic (non-static) share of total energy, in `[0, 1]`.
    pub fn dynamic_fraction(&self) -> f64 {
        let total = self.total_energy_j();
        if total <= 0.0 {
            return 0.0;
        }
        (total - self.static_j) / total
    }
}

impl fmt::Display for PowerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "runtime      {:>12.6} s", self.runtime_s)?;
        writeln!(f, "core         {:>12.6} J", self.core_j)?;
        writeln!(f, "caches       {:>12.6} J", self.cache_j)?;
        writeln!(f, "dram         {:>12.6} J", self.dram_j)?;
        writeln!(f, "noc          {:>12.6} J", self.noc_j)?;
        writeln!(f, "pipeline     {:>12.6} J", self.pipeline_j)?;
        writeln!(f, "static       {:>12.6} J", self.static_j)?;
        writeln!(f, "total        {:>12.6} J", self.total_energy_j())?;
        write!(f, "avg power    {:>12.3} W", self.average_power_w())
    }
}

/// Activity-based power model over Metrics Gatherer counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    coefficients: EnergyCoefficients,
}

impl PowerModel {
    /// Build a model from explicit coefficients.
    pub fn new(coefficients: EnergyCoefficients) -> Self {
        PowerModel { coefficients }
    }

    /// Turing-class defaults scaled to `cfg`'s size: ~250 W TDP-class chip
    /// at 1.5 GHz with ~35% static share, DRAM at ~20 pJ/bit, on-chip
    /// accesses in the single-digit nJ per 32 B sector.
    pub fn turing_class(cfg: &GpuConfig) -> Self {
        let sms = f64::from(cfg.num_sms.max(1));
        PowerModel::new(EnergyCoefficients {
            per_instruction: 0.9e-9,
            per_l1_access: 0.6e-9,
            per_l2_access: 1.9e-9,
            per_dram_txn: 6.0e-9, // 32 B * ~20 pJ/bit
            per_noc_flit: 0.7e-9,
            per_bank_conflict: 0.2e-9,
            // Static power scales with die area ≈ SM count (68 SMs ≈ 85 W).
            static_power_w: 1.25 * sms,
            per_active_cycle: 0.35e-9,
            clock_hz: 1.545e9,
        })
    }

    /// The coefficients in use.
    pub fn coefficients(&self) -> EnergyCoefficients {
        self.coefficients
    }

    /// Estimate the energy breakdown of a finished simulation from its
    /// Metrics Gatherer counters.
    ///
    /// Counters missing from `metrics` (e.g. L1 numbers under the
    /// analytical memory model) contribute zero — the estimate degrades
    /// gracefully with model simplification, it never fails.
    pub fn estimate(&self, metrics: &MetricsCollector) -> PowerReport {
        let c = &self.coefficients;
        let count = |key: &str| metrics.count(key).unwrap_or(0) as f64;
        let cycles = metrics.cycles("gpu.cycles").unwrap_or(0) as f64;
        let runtime_s = cycles / c.clock_hz;

        let instructions = count("gpu.instructions");
        let l1 = count("mem.l1.hits") + count("mem.l1.misses");
        // Misses and write-throughs reach L2.
        let l2 = count("mem.l1.misses") + count("mem.store_only_accesses");
        let dram = count("mem.dram.reads") + count("mem.dram.writes");
        // Without cycle-accurate memory there are no flit counters; derive
        // a request+reply estimate from transactions instead.
        let flits = if l1 > 0.0 {
            count("mem.l1.misses") * 6.0
        } else {
            count("mem.txns") * 6.0
        };
        let conflicts = count("core.shared.bank_conflicts") + count("mem.l1.bank_conflicts");
        let active = metrics.cycles("core.active_cycles").unwrap_or(0) as f64;

        PowerReport {
            core_j: instructions * c.per_instruction,
            cache_j: l1 * c.per_l1_access + l2 * c.per_l2_access,
            dram_j: dram * c.per_dram_txn,
            noc_j: flits * c.per_noc_flit,
            pipeline_j: active * c.per_active_cycle + conflicts * c.per_bank_conflict,
            static_j: c.static_power_w * runtime_s,
            runtime_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swiftsim_config::presets;
    use swiftsim_metrics::Value;

    fn sample_metrics() -> MetricsCollector {
        let mut m = MetricsCollector::new();
        m.set("gpu.cycles", Value::Cycles(1_000_000));
        m.set("gpu.instructions", Value::Count(4_000_000));
        m.set("mem.l1.hits", Value::Count(300_000));
        m.set("mem.l1.misses", Value::Count(100_000));
        m.set("mem.dram.reads", Value::Count(90_000));
        m.set("mem.dram.writes", Value::Count(20_000));
        m.set("core.active_cycles", Value::Cycles(800_000));
        m.set("core.shared.bank_conflicts", Value::Count(5_000));
        m
    }

    #[test]
    fn estimate_is_positive_and_consistent() {
        let model = PowerModel::turing_class(&presets::rtx2080ti());
        let r = model.estimate(&sample_metrics());
        assert!(r.total_energy_j() > 0.0);
        assert!(r.average_power_w() > 0.0);
        assert!(r.runtime_s > 0.0);
        let parts = r.core_j + r.cache_j + r.dram_j + r.noc_j + r.pipeline_j + r.static_j;
        assert!((parts - r.total_energy_j()).abs() < 1e-12);
        assert!(r.dynamic_fraction() > 0.0 && r.dynamic_fraction() < 1.0);
    }

    #[test]
    fn more_work_costs_more_energy() {
        let model = PowerModel::turing_class(&presets::rtx2080ti());
        let base = model.estimate(&sample_metrics());
        let mut busier = sample_metrics();
        busier.set("gpu.instructions", Value::Count(8_000_000));
        busier.set("mem.dram.reads", Value::Count(180_000));
        let more = model.estimate(&busier);
        assert!(more.total_energy_j() > base.total_energy_j());
        assert!(more.core_j > base.core_j);
        assert!(more.dram_j > base.dram_j);
    }

    #[test]
    fn empty_metrics_cost_nothing() {
        let model = PowerModel::turing_class(&presets::rtx2080ti());
        let r = model.estimate(&MetricsCollector::new());
        assert_eq!(r.total_energy_j(), 0.0);
        assert_eq!(r.average_power_w(), 0.0);
        assert_eq!(r.dynamic_fraction(), 0.0);
    }

    #[test]
    fn static_power_scales_with_sms() {
        let big = PowerModel::turing_class(&presets::rtx3090());
        let small = PowerModel::turing_class(&presets::rtx3060());
        assert!(big.coefficients().static_power_w > small.coefficients().static_power_w);
    }

    #[test]
    fn display_renders_every_component() {
        let model = PowerModel::turing_class(&presets::rtx2080ti());
        let text = model.estimate(&sample_metrics()).to_string();
        for label in ["core", "caches", "dram", "noc", "static", "avg power"] {
            assert!(text.contains(label), "missing {label} in:\n{text}");
        }
    }

    #[test]
    fn works_end_to_end_with_a_simulation() {
        use swiftsim_core::{run, RunOptions, SimulatorPreset};
        let mut cfg = presets::rtx2080ti();
        cfg.num_sms = 4;
        cfg.memory.partitions = 4;
        let app = swiftsim_workloads::by_name("hotspot")
            .expect("workload")
            .generate(swiftsim_workloads::Scale::Tiny);
        let model = PowerModel::turing_class(&cfg);

        // Power estimates attach to any preset; the detailed run (more
        // counters) should report at least as much dynamic energy detail.
        let detailed = run(
            &app,
            &cfg,
            &RunOptions::default().with_preset(SimulatorPreset::Detailed),
        )
        .expect("run");
        let fast = run(
            &app,
            &cfg,
            &RunOptions::default().with_preset(SimulatorPreset::SwiftMemory),
        )
        .expect("run");
        let rd = model.estimate(&detailed.metrics);
        let rf = model.estimate(&fast.metrics);
        assert!(rd.total_energy_j() > 0.0);
        assert!(rf.total_energy_j() > 0.0);
        // Same workload, same order of magnitude.
        let ratio = rd.total_energy_j() / rf.total_energy_j();
        assert!((0.2..5.0).contains(&ratio), "ratio {ratio}");
    }
}
