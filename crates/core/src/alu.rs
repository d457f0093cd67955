//! ALU-pipeline models: cycle-accurate and the paper's improved analytical
//! model (§III-D1, Fig. 3).
//!
//! Arithmetic execution goes through Fetch, Decode, Issue, Read Operands,
//! Execute, and Writeback. The **cycle-accurate** model
//! ([`CycleAccurateAlu`]) keeps explicit stage registers per execution unit
//! and shifts them every cycle, arbitrating the sub-core's writeback ports —
//! the "thorough code" whose per-cycle execution makes detailed simulators
//! slow.
//!
//! The **improved analytical** model ([`AnalyticalAlu`]) exploits the
//! observation that "the execution time of arithmetic instructions remains
//! constant without resource contention": it keeps only the
//! cycle-accurately-observed *contention* state (issue-port busy times, the
//! orange boxes of Fig. 3) and adds the fixed instruction latency
//! analytically (the blue boxes), eliminating the per-cycle stage work.
//!
//! Both implement [`AluModel`], the fixed interface the Warp Scheduler &
//! Dispatch module programs against, so swapping them "does not affect
//! other modules" (§III-B2).

use crate::Cycle;
use std::collections::HashMap;
use swiftsim_config::{ExecUnitKind, SmConfig};

/// Writeback ports per sub-core cycle (result-bus width).
const WB_PORTS_PER_CYCLE: u8 = 2;

/// The execution-unit timing interface.
///
/// One instance models all execution units of one SM (indexed by sub-core
/// and unit kind). The Warp Scheduler & Dispatch module checks
/// [`AluModel::port_free`] before selecting a warp, then calls
/// [`AluModel::issue`]; the returned cycle is when the instruction's
/// destination register becomes available (the completion acknowledgment of
/// §III-B2).
pub trait AluModel: Send {
    /// Whether the issue port of `(sub_core, kind)` can accept an
    /// instruction at `now`.
    fn port_free(&self, sub_core: usize, kind: ExecUnitKind, now: Cycle) -> bool;

    /// [`AluModel::port_free`] for every unit kind of `sub_core` at once:
    /// bit [`ExecUnitKind::index`] is set when that kind's issue port can
    /// accept an instruction at `now`. The warp scheduler reads this once
    /// per scan instead of asking once per candidate warp.
    fn ports_free(&self, sub_core: usize, now: Cycle) -> u8 {
        ExecUnitKind::ALL
            .into_iter()
            .filter(|&kind| self.port_free(sub_core, kind, now))
            .fold(0, |free, kind| free | 1 << kind.index())
    }

    /// Issue one warp instruction; returns its writeback cycle.
    fn issue(&mut self, sub_core: usize, kind: ExecUnitKind, now: Cycle) -> Cycle;

    /// Advance per-cycle internal state (stage registers). Cheap models
    /// no-op here.
    fn tick(&mut self, now: Cycle);

    /// Model name for metrics.
    fn name(&self) -> &'static str;
}

#[derive(Debug, Clone, Copy)]
struct UnitShape {
    initiation_interval: Cycle,
    latency: Cycle,
}

/// Bit `k` set when `busy_until[k] <= now`: the ports of one sub-core that
/// have finished their initiation interval.
fn idle_ports(busy_until: &[Cycle; 6], now: Cycle) -> u8 {
    busy_until
        .iter()
        .enumerate()
        .fold(0, |free, (k, &until)| free | u8::from(until <= now) << k)
}

fn shapes(sm: &SmConfig) -> [UnitShape; 6] {
    let mut out = [UnitShape {
        initiation_interval: 1,
        latency: 1,
    }; 6];
    for kind in ExecUnitKind::ALL {
        let u = sm.exec_unit(kind);
        out[kind.index()] = UnitShape {
            initiation_interval: Cycle::from(u.initiation_interval(sm.warp_size)),
            latency: Cycle::from(u.latency),
        };
    }
    out
}

/// Operand-collector units per sub-core (Turing-like).
const COLLECTORS_PER_SUB_CORE: usize = 8;
/// Register-file banks per sub-core.
const REG_BANKS: u16 = 8;

/// One operand-collector unit: gathers source operands from the banked
/// register file before execution, one operand per bank per cycle.
#[derive(Debug, Clone, Copy, Default)]
struct CollectorUnit {
    /// Operands still to read; 0 = free.
    pending: u8,
    /// Register bank of the operand currently being read.
    bank: u16,
}

/// Fully detailed per-cycle pipeline model.
///
/// Beyond issue-port occupancy it simulates, every cycle, the structures a
/// detailed simulator like Accel-Sim walks: operand-collector units reading
/// source operands from a banked register file (with bank-conflict
/// serialization), explicit pipeline stage registers per execution unit,
/// and a writeback result bus with bounded ports.
#[derive(Debug, Clone)]
pub struct CycleAccurateAlu {
    shapes: [UnitShape; 6],
    /// Issue-port busy-until per (sub-core, kind).
    port_busy: Vec<[Cycle; 6]>,
    /// Explicit stage registers per (sub-core, kind): occupancy per stage,
    /// shifted every cycle. This is the detailed per-cycle work the hybrid
    /// model eliminates.
    stages: Vec<[Vec<u8>; 6]>,
    /// Operand-collector pool per sub-core.
    collectors: Vec<[CollectorUnit; COLLECTORS_PER_SUB_CORE]>,
    /// Register-bank busy flags per sub-core, rebuilt every cycle.
    bank_busy: Vec<[bool; REG_BANKS as usize]>,
    /// Writeback-port bookings per sub-core: cycle -> committed writebacks.
    wb_slots: Vec<HashMap<Cycle, u8>>,
    issued: u64,
    wb_conflict_delays: u64,
    operand_conflicts: u64,
}

impl CycleAccurateAlu {
    /// Build the detailed model for one SM.
    pub fn new(sm: &SmConfig) -> Self {
        let shapes = shapes(sm);
        let sub_cores = sm.sub_cores as usize;
        let stage_regs = |kind: usize| vec![0u8; shapes[kind].latency as usize];
        CycleAccurateAlu {
            shapes,
            port_busy: vec![[0; 6]; sub_cores],
            stages: (0..sub_cores)
                .map(|_| std::array::from_fn(stage_regs))
                .collect(),
            collectors: vec![[CollectorUnit::default(); COLLECTORS_PER_SUB_CORE]; sub_cores],
            bank_busy: vec![[false; REG_BANKS as usize]; sub_cores],
            wb_slots: vec![HashMap::new(); sub_cores],
            issued: 0,
            wb_conflict_delays: 0,
            operand_conflicts: 0,
        }
    }

    /// Instructions issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Cumulative cycles lost to writeback-port conflicts.
    pub fn wb_conflict_delays(&self) -> u64 {
        self.wb_conflict_delays
    }

    /// Cumulative register-bank conflicts observed by the operand
    /// collectors.
    pub fn operand_conflicts(&self) -> u64 {
        self.operand_conflicts
    }
}

impl AluModel for CycleAccurateAlu {
    fn port_free(&self, sub_core: usize, kind: ExecUnitKind, now: Cycle) -> bool {
        self.port_busy[sub_core][kind.index()] <= now
            && self.collectors[sub_core].iter().any(|c| c.pending == 0)
    }

    fn ports_free(&self, sub_core: usize, now: Cycle) -> u8 {
        if self.collectors[sub_core].iter().any(|c| c.pending == 0) {
            idle_ports(&self.port_busy[sub_core], now)
        } else {
            0
        }
    }

    fn issue(&mut self, sub_core: usize, kind: ExecUnitKind, now: Cycle) -> Cycle {
        let shape = self.shapes[kind.index()];
        self.port_busy[sub_core][kind.index()] = now + shape.initiation_interval;

        // Claim a free operand-collector unit; the instruction reads (on
        // average) two source operands, serialized on a bank conflict.
        let mut operand_delay = 0;
        if let Some(c) = self.collectors[sub_core]
            .iter_mut()
            .find(|c| c.pending == 0)
        {
            c.pending = 2;
            c.bank = (self.issued % u64::from(REG_BANKS)) as u16;
            if self.bank_busy[sub_core][c.bank as usize] {
                operand_delay = 1;
                self.operand_conflicts += 1;
            }
            self.bank_busy[sub_core][c.bank as usize] = true;
        }

        // Enter the first pipeline stage.
        let pipe = &mut self.stages[sub_core][kind.index()];
        pipe[0] = pipe[0].saturating_add(1);

        // Arbitrate a writeback port: at most WB_PORTS_PER_CYCLE results
        // retire per sub-core per cycle.
        let mut wb = now + shape.latency + operand_delay;
        let slots = &mut self.wb_slots[sub_core];
        loop {
            let booked = slots.entry(wb).or_insert(0);
            if *booked < WB_PORTS_PER_CYCLE {
                *booked += 1;
                break;
            }
            wb += 1;
            self.wb_conflict_delays += 1;
        }
        self.issued += 1;
        wb
    }

    fn tick(&mut self, now: Cycle) {
        // Walk every structure — the detailed model's per-cycle cost.
        for sc in 0..self.stages.len() {
            // Shift pipeline stage registers.
            for pipe in self.stages[sc].iter_mut() {
                for i in (1..pipe.len()).rev() {
                    pipe[i] = pipe[i - 1];
                }
                if let Some(first) = pipe.first_mut() {
                    *first = 0;
                }
            }
            // Operand collectors each read one operand per cycle; rebuild
            // bank reservations from the still-pending reads.
            self.bank_busy[sc] = [false; REG_BANKS as usize];
            for c in self.collectors[sc].iter_mut() {
                if c.pending > 0 {
                    c.pending -= 1;
                    c.bank = (c.bank + 1) % REG_BANKS;
                    if c.pending > 0 {
                        self.bank_busy[sc][c.bank as usize] = true;
                    }
                }
            }
        }
        // Retire stale writeback bookings.
        if now.is_multiple_of(64) {
            for slots in &mut self.wb_slots {
                slots.retain(|&cycle, _| cycle >= now);
            }
        }
    }

    fn name(&self) -> &'static str {
        "cycle_accurate_alu"
    }
}

/// The improved analytical ALU model of §III-D1.
#[derive(Debug, Clone)]
pub struct AnalyticalAlu {
    shapes: [UnitShape; 6],
    /// Contention state, still tracked cycle-accurately at issue (orange
    /// boxes of Fig. 3).
    port_busy: Vec<[Cycle; 6]>,
    issued: u64,
}

impl AnalyticalAlu {
    /// Build the analytical model for one SM.
    pub fn new(sm: &SmConfig) -> Self {
        AnalyticalAlu {
            shapes: shapes(sm),
            port_busy: vec![[0; 6]; sm.sub_cores as usize],
            issued: 0,
        }
    }

    /// Instructions issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }
}

impl AluModel for AnalyticalAlu {
    fn port_free(&self, sub_core: usize, kind: ExecUnitKind, now: Cycle) -> bool {
        self.port_busy[sub_core][kind.index()] <= now
    }

    fn ports_free(&self, sub_core: usize, now: Cycle) -> u8 {
        idle_ports(&self.port_busy[sub_core], now)
    }

    fn issue(&mut self, sub_core: usize, kind: ExecUnitKind, now: Cycle) -> Cycle {
        let shape = self.shapes[kind.index()];
        // Contention delay (issue-port occupancy) is simulated; the rest of
        // the pipeline is the fixed latency added analytically.
        self.port_busy[sub_core][kind.index()] = now + shape.initiation_interval;
        self.issued += 1;
        now + shape.latency
    }

    fn tick(&mut self, _now: Cycle) {}

    fn name(&self) -> &'static str {
        "analytical_alu"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swiftsim_config::presets;

    fn sm() -> SmConfig {
        presets::rtx2080ti().sm
    }

    #[test]
    fn uncontended_latency_matches_config() {
        let cfg = sm();
        let mut ca = CycleAccurateAlu::new(&cfg);
        let mut an = AnalyticalAlu::new(&cfg);
        for kind in [ExecUnitKind::Int, ExecUnitKind::Sp, ExecUnitKind::Sfu] {
            let lat = Cycle::from(cfg.exec_unit(kind).latency);
            assert_eq!(ca.issue(0, kind, 1000), 1000 + lat, "{kind}");
            assert_eq!(an.issue(0, kind, 1000), 1000 + lat, "{kind}");
        }
    }

    #[test]
    fn initiation_interval_blocks_port() {
        let cfg = sm(); // INT: 16 lanes -> II = 2 for 32-thread warps
        let mut ca = CycleAccurateAlu::new(&cfg);
        assert!(ca.port_free(0, ExecUnitKind::Int, 0));
        ca.issue(0, ExecUnitKind::Int, 0);
        assert!(!ca.port_free(0, ExecUnitKind::Int, 1));
        assert!(ca.port_free(0, ExecUnitKind::Int, 2));
        // Other sub-cores and units are unaffected.
        assert!(ca.port_free(1, ExecUnitKind::Int, 1));
        assert!(ca.port_free(0, ExecUnitKind::Sp, 1));
    }

    #[test]
    fn ports_free_agrees_with_port_free() {
        let cfg = sm();
        let models: [Box<dyn AluModel>; 2] = [
            Box::new(CycleAccurateAlu::new(&cfg)),
            Box::new(AnalyticalAlu::new(&cfg)),
        ];
        for mut alu in models {
            // Fill every collector of sub-core 0, so the detailed model
            // closes all of its ports at once.
            for (n, kind) in ExecUnitKind::ALL.into_iter().cycle().take(10).enumerate() {
                alu.issue(0, kind, n as Cycle);
            }
            alu.issue(1, ExecUnitKind::Dp, 3);
            for now in 0..40 {
                alu.tick(now);
                for sc in 0..2 {
                    let free = alu.ports_free(sc, now);
                    for kind in ExecUnitKind::ALL {
                        assert_eq!(
                            free & 1 << kind.index() != 0,
                            alu.port_free(sc, kind, now),
                            "{} sub-core {sc} {kind} at {now}",
                            alu.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn dp_unit_has_long_initiation_interval() {
        let cfg = sm(); // DP: 1 lane -> II = 32
        let mut an = AnalyticalAlu::new(&cfg);
        an.issue(0, ExecUnitKind::Dp, 0);
        assert!(!an.port_free(0, ExecUnitKind::Dp, 31));
        assert!(an.port_free(0, ExecUnitKind::Dp, 32));
    }

    #[test]
    fn writeback_bus_conflicts_delay_detailed_model() {
        let cfg = sm();
        let mut ca = CycleAccurateAlu::new(&cfg);
        // INT and SP share latency 4; issue 3 same-cycle-retiring
        // instructions on one sub-core: only 2 writeback ports.
        let a = ca.issue(0, ExecUnitKind::Int, 0);
        let b = ca.issue(0, ExecUnitKind::Sp, 0);
        // Different unit kind with same latency to force a 3rd writer: use
        // another INT after its II on an artificial same-completion path.
        let c = ca.issue(1, ExecUnitKind::Int, 0); // different sub-core: own ports
        assert_eq!(a, 4);
        assert_eq!(b, 4);
        assert_eq!(c, 4);
        // Third writer on sub-core 0 completing at cycle 4:
        let ca2 = CycleAccurateAlu::new(&cfg);
        let mut cfg2 = sm();
        cfg2.exec_units[ExecUnitKind::Sfu.index()] = swiftsim_config::ExecUnitConfig::new(4, 4);
        let mut ca3 = CycleAccurateAlu::new(&cfg2);
        let x = ca3.issue(0, ExecUnitKind::Int, 0);
        let y = ca3.issue(0, ExecUnitKind::Sp, 0);
        let z = ca3.issue(0, ExecUnitKind::Sfu, 0);
        assert_eq!((x, y), (4, 4));
        assert_eq!(z, 5, "third same-cycle writeback is bumped");
        assert_eq!(ca3.wb_conflict_delays(), 1);
        // The analytical model ignores the writeback bus — its simplification.
        let mut an = AnalyticalAlu::new(&cfg2);
        assert_eq!(an.issue(0, ExecUnitKind::Int, 0), 4);
        assert_eq!(an.issue(0, ExecUnitKind::Sp, 0), 4);
        assert_eq!(an.issue(0, ExecUnitKind::Sfu, 0), 4);
        let _ = (ca.issued(), ca2.issued(), an.issued());
    }

    #[test]
    fn tick_is_cheap_for_analytical_model() {
        let cfg = sm();
        let mut an = AnalyticalAlu::new(&cfg);
        // Must be callable arbitrarily often without changing behavior.
        for now in 0..1000 {
            an.tick(now);
        }
        assert_eq!(an.issue(0, ExecUnitKind::Int, 5000), 5004);
    }

    #[test]
    fn detailed_tick_shifts_stages() {
        let cfg = sm();
        let mut ca = CycleAccurateAlu::new(&cfg);
        ca.issue(0, ExecUnitKind::Sp, 0);
        // One occupant entered stage 0; after a tick it is in stage 1.
        assert_eq!(ca.stages[0][ExecUnitKind::Sp.index()][0], 1);
        ca.tick(1);
        assert_eq!(ca.stages[0][ExecUnitKind::Sp.index()][0], 0);
        assert_eq!(ca.stages[0][ExecUnitKind::Sp.index()][1], 1);
    }

    #[test]
    fn issue_counters_advance() {
        let cfg = sm();
        let mut ca = CycleAccurateAlu::new(&cfg);
        let mut an = AnalyticalAlu::new(&cfg);
        for i in 0..10 {
            ca.issue((i % 4) as usize, ExecUnitKind::Int, i * 10);
            an.issue((i % 4) as usize, ExecUnitKind::Int, i * 10);
        }
        assert_eq!(ca.issued(), 10);
        assert_eq!(an.issued(), 10);
    }
}
