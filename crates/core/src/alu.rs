//! ALU-pipeline models: cycle-accurate and the paper's improved analytical
//! model (§III-D1, Fig. 3).
//!
//! Arithmetic execution goes through Fetch, Decode, Issue, Read Operands,
//! Execute, and Writeback. Both models keep the issue ports of every
//! execution unit cycle-accurately (the orange boxes of Fig. 3) and add the
//! fixed instruction latency analytically (the blue boxes): "the execution
//! time of arithmetic instructions remains constant without resource
//! contention".
//!
//! The **cycle-accurate** model ([`CycleAccurateAlu`]) differs from the
//! **improved analytical** model ([`AnalyticalAlu`]) in what it arbitrates,
//! not in host work: it also models operand reads from a banked register
//! file (a read that collides with the previous cycle's second-operand read
//! waits a cycle) and a writeback result bus with bounded ports, the
//! contention the analytical model ignores. Neither has per-cycle state:
//! everything is decided at issue.
//!
//! Both implement [`AluModel`], the fixed interface the Warp Scheduler &
//! Dispatch module programs against, so swapping them "does not affect
//! other modules" (§III-B2).

use crate::Cycle;
use std::collections::HashMap;
use swiftsim_config::{ExecUnitKind, SmConfig};

/// Writeback ports per sub-core cycle (result-bus width).
const WB_PORTS_PER_CYCLE: u8 = 2;
/// Register-file banks per sub-core.
const REG_BANKS: u64 = 8;
/// Cycles between sweeps of past writeback bookings.
const WB_SWEEP_CYCLES: Cycle = 64;

/// The execution-unit timing interface.
///
/// One instance models all execution units of one SM (indexed by sub-core
/// and unit kind). The Warp Scheduler & Dispatch module checks
/// [`AluModel::port_free`] before selecting a warp, then calls
/// [`AluModel::issue`]; the returned cycle is when the instruction's
/// destination register becomes available (the completion acknowledgment of
/// §III-B2). A model decides all timing at issue and has no per-cycle
/// state, so a cycle without an issue costs it nothing.
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

    /// The first cycle at or after `now` at which the issue port of
    /// `(sub_core, kind)` accepts an instruction, if nothing issues on it
    /// first. A sleeping SM wakes then (`sm.rs`, "Sleeping"). The default
    /// says only that the port may free in the next cycle, which keeps an
    /// SM waiting on it awake: correct for any model, and slower.
    fn port_free_at(&self, sub_core: usize, kind: ExecUnitKind, now: Cycle) -> Cycle {
        if self.port_free(sub_core, kind, now) {
            now
        } else {
            now + 1
        }
    }

    /// Issue one warp instruction; returns its writeback cycle. A sub-core
    /// issues at most once per cycle, and `now` never decreases.
    fn issue(&mut self, sub_core: usize, kind: ExecUnitKind, now: Cycle) -> Cycle;

    /// Model name for metrics.
    fn name(&self) -> &'static str;
}

#[derive(Debug, Clone, Copy)]
struct UnitShape {
    initiation_interval: Cycle,
    latency: Cycle,
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

/// Detailed pipeline model: the analytical model's issue ports plus
/// operand-bank and writeback-port arbitration.
///
/// Each issue's operand collector reads two source operands on consecutive
/// cycles from consecutive banks of an 8-bank register file, starting at
/// bank `issued % 8` (`issued` counts the SM's earlier issues). The second
/// read of an instruction issued at `now - 1` from bank `b` therefore holds
/// bank `(b + 1) % 8` at `now`; a new issue of the same sub-core whose
/// first read wants that bank waits one cycle. With one issue per sub-core
/// per cycle no other read can still be pending, so the sub-core's last
/// issue cycle and bank decide the conflict. At most two results retire
/// per sub-core per cycle; a later one is bumped to the next cycle with a
/// free port.
#[derive(Debug, Clone)]
pub struct CycleAccurateAlu {
    /// Issue ports and fixed latencies, kept as the analytical model keeps
    /// them.
    ports: AnalyticalAlu,
    /// Per sub-core: the cycle and first register bank of its last issue.
    last_issue: Vec<Option<(Cycle, u64)>>,
    /// Writeback-port bookings per sub-core: cycle -> committed writebacks.
    wb_slots: Vec<HashMap<Cycle, u8>>,
    /// First issue cycle at which the past bookings are swept.
    wb_sweep_at: Cycle,
    wb_conflict_delays: u64,
    operand_conflicts: u64,
}

impl CycleAccurateAlu {
    /// Build the detailed model for one SM.
    pub fn new(sm: &SmConfig) -> Self {
        let sub_cores = sm.sub_cores as usize;
        CycleAccurateAlu {
            ports: AnalyticalAlu::new(sm),
            last_issue: vec![None; sub_cores],
            wb_slots: vec![HashMap::new(); sub_cores],
            wb_sweep_at: 0,
            wb_conflict_delays: 0,
            operand_conflicts: 0,
        }
    }

    /// Instructions issued so far.
    pub fn issued(&self) -> u64 {
        self.ports.issued
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
        self.ports.port_free(sub_core, kind, now)
    }

    fn ports_free(&self, sub_core: usize, now: Cycle) -> u8 {
        self.ports.ports_free(sub_core, now)
    }

    fn port_free_at(&self, sub_core: usize, kind: ExecUnitKind, now: Cycle) -> Cycle {
        self.ports.port_free_at(sub_core, kind, now)
    }

    fn issue(&mut self, sub_core: usize, kind: ExecUnitKind, now: Cycle) -> Cycle {
        let last = self.last_issue[sub_core];
        debug_assert!(
            last.is_none_or(|(at, _)| at < now),
            "sub-core {sub_core} issued twice by cycle {now}"
        );
        let bank = self.ports.issued % REG_BANKS;
        self.last_issue[sub_core] = Some((now, bank));
        let mut wb = self.ports.issue(sub_core, kind, now);
        if last.is_some_and(|(at, b)| at + 1 == now && (b + 1) % REG_BANKS == bank) {
            wb += 1;
            self.operand_conflicts += 1;
        }

        // Arbitrate a writeback port. Bookings before `now` are never read
        // again (every writeback lands at or after its issue cycle), so
        // sweeping them on any schedule changes no result.
        if now >= self.wb_sweep_at {
            for slots in &mut self.wb_slots {
                slots.retain(|&cycle, _| cycle >= now);
            }
            self.wb_sweep_at = now + WB_SWEEP_CYCLES;
        }
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
        wb
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
        // Bit `k` set when unit `k` has finished its initiation interval.
        self.port_busy[sub_core]
            .iter()
            .enumerate()
            .fold(0, |free, (k, &until)| free | u8::from(until <= now) << k)
    }

    fn port_free_at(&self, sub_core: usize, kind: ExecUnitKind, now: Cycle) -> Cycle {
        self.port_busy[sub_core][kind.index()].max(now)
    }

    fn issue(&mut self, sub_core: usize, kind: ExecUnitKind, now: Cycle) -> Cycle {
        let shape = self.shapes[kind.index()];
        // Contention delay (issue-port occupancy) is simulated; the rest of
        // the pipeline is the fixed latency added analytically.
        self.port_busy[sub_core][kind.index()] = now + shape.initiation_interval;
        self.issued += 1;
        now + shape.latency
    }

    fn name(&self) -> &'static str {
        "analytical_alu"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swiftsim_config::{presets, ExecUnitConfig};
    use swiftsim_rng::SmallRng;

    fn sm() -> SmConfig {
        presets::rtx2080ti().sm
    }

    #[test]
    fn uncontended_latency_matches_config() {
        let cfg = sm();
        let mut ca = CycleAccurateAlu::new(&cfg);
        let mut an = AnalyticalAlu::new(&cfg);
        for (sc, kind) in [ExecUnitKind::Int, ExecUnitKind::Sp, ExecUnitKind::Sfu]
            .into_iter()
            .enumerate()
        {
            let lat = Cycle::from(cfg.exec_unit(kind).latency);
            assert_eq!(ca.issue(sc, kind, 1000), 1000 + lat, "{kind}");
            assert_eq!(an.issue(sc, kind, 1000), 1000 + lat, "{kind}");
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
            for (n, kind) in ExecUnitKind::ALL.into_iter().cycle().take(10).enumerate() {
                alu.issue(0, kind, n as Cycle);
            }
            alu.issue(1, ExecUnitKind::Dp, 3);
            for now in 0..40 {
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
        // Three sub-core 0 results due at cycle 4 from three issue cycles:
        // INT (latency 4) at 0, SP (latency 3) at 1, SFU (latency 2) at 2.
        // Sub-core 1 issues in between, so no operand read collides.
        let mut cfg = sm();
        cfg.exec_units[ExecUnitKind::Sp.index()] = ExecUnitConfig::new(32, 3);
        cfg.exec_units[ExecUnitKind::Sfu.index()] = ExecUnitConfig::new(32, 2);
        let mut ca = CycleAccurateAlu::new(&cfg);
        let mut an = AnalyticalAlu::new(&cfg);
        let mut wbs = Vec::new();
        for (now, kind) in [ExecUnitKind::Int, ExecUnitKind::Sp, ExecUnitKind::Sfu]
            .into_iter()
            .enumerate()
        {
            let now = now as Cycle;
            wbs.push((ca.issue(0, kind, now), an.issue(0, kind, now)));
            // Sub-core 1 has its own ports: its result at 4 is not bumped.
            assert_eq!(ca.issue(1, ExecUnitKind::LdSt, now), now + 2);
        }
        assert_eq!(ca.operand_conflicts(), 0);
        assert_eq!(wbs[..2], [(4, 4), (4, 4)]);
        assert_eq!(wbs[2].0, 5, "third same-cycle writeback is bumped");
        assert_eq!(ca.wb_conflict_delays(), 1);
        // The analytical model ignores the writeback bus — its
        // simplification.
        assert_eq!(wbs[2].1, 4);
    }

    #[test]
    fn operand_conflict_needs_the_previous_cycles_bank() {
        let cfg = sm();
        let int = ExecUnitKind::Int;
        let sp = ExecUnitKind::Sp;
        let mut ca = CycleAccurateAlu::new(&cfg);
        // Bank 0 at cycle 10 holds bank 1 at 11: the next issue wants it.
        assert_eq!(ca.issue(0, int, 10), 14);
        assert_eq!(ca.issue(0, sp, 11), 16, "one cycle waiting for bank 1");
        assert_eq!(ca.operand_conflicts(), 1);
        // A gap frees the bank; another sub-core's issue shifts the bank.
        assert_eq!(ca.issue(0, int, 13), 17);
        assert_eq!(ca.issue(1, int, 13), 17);
        assert_eq!(ca.issue(0, sp, 14), 18, "bank 4 after bank 2: no clash");
        // Bank 7 wraps to bank 0.
        let mut ca = CycleAccurateAlu::new(&cfg);
        for now in [0, 2] {
            for sc in 1..4 {
                ca.issue(sc, int, now);
            }
        }
        ca.issue(1, int, 4);
        assert_eq!(ca.issue(0, int, 5), 9, "bank 7");
        assert_eq!(ca.issue(0, sp, 6), 11, "bank 0 is bank 7's successor");
        assert_eq!(ca.operand_conflicts(), 1);
    }

    #[test]
    fn past_writeback_bookings_are_dropped() {
        // DP and SFU results due at 600 are booked long before the INT
        // stream reaches them, across many sweeps of its own bookings.
        let mut cfg = sm();
        cfg.exec_units[ExecUnitKind::Dp.index()] = ExecUnitConfig::new(32, 600);
        cfg.exec_units[ExecUnitKind::Sfu.index()] = ExecUnitConfig::new(32, 300);
        let mut ca = CycleAccurateAlu::new(&cfg);
        assert_eq!(ca.issue(0, ExecUnitKind::Dp, 0), 600);
        for now in (2..2000).step_by(2) {
            let (kind, expect) = match now {
                300 => (ExecUnitKind::Sfu, 600),
                596 => (ExecUnitKind::Int, 601),
                _ => (ExecUnitKind::Int, now + 4),
            };
            assert_eq!(ca.issue(0, kind, now), expect, "at {now}");
            // At most one sweep interval of past bookings, plus the
            // pending INT and the two at 600.
            assert!(ca.wb_slots[0].len() as Cycle <= WB_SWEEP_CYCLES / 2 + 3);
        }
        assert_eq!(ca.wb_conflict_delays(), 1);
        assert_eq!(ca.operand_conflicts(), 0);
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

    /// The per-cycle operand-collector model [`CycleAccurateAlu`] replaced,
    /// kept as its oracle: eight collector units per sub-core, each reading
    /// two operands from consecutive register banks one per tick, with the
    /// bank reservations rebuilt every tick.
    struct PerCycleAlu {
        ports: AnalyticalAlu,
        /// `(operands still to read, bank being read)` per collector.
        collectors: Vec<[(u8, u64); 8]>,
        bank_busy: Vec<[bool; REG_BANKS as usize]>,
        wb_slots: Vec<HashMap<Cycle, u8>>,
        wb_conflict_delays: u64,
        operand_conflicts: u64,
    }

    impl PerCycleAlu {
        fn new(sm: &SmConfig) -> Self {
            let sub_cores = sm.sub_cores as usize;
            PerCycleAlu {
                ports: AnalyticalAlu::new(sm),
                collectors: vec![[(0, 0); 8]; sub_cores],
                bank_busy: vec![[false; REG_BANKS as usize]; sub_cores],
                wb_slots: vec![HashMap::new(); sub_cores],
                wb_conflict_delays: 0,
                operand_conflicts: 0,
            }
        }

        fn ports_free(&self, sc: usize, now: Cycle) -> u8 {
            if self.collectors[sc].iter().any(|c| c.0 == 0) {
                self.ports.ports_free(sc, now)
            } else {
                0
            }
        }

        fn issue(&mut self, sc: usize, kind: ExecUnitKind, now: Cycle) -> Cycle {
            let bank = self.ports.issued % REG_BANKS;
            let mut wb = self.ports.issue(sc, kind, now);
            if let Some(c) = self.collectors[sc].iter_mut().find(|c| c.0 == 0) {
                *c = (2, bank);
                if self.bank_busy[sc][bank as usize] {
                    wb += 1;
                    self.operand_conflicts += 1;
                }
                self.bank_busy[sc][bank as usize] = true;
            }
            let slots = &mut self.wb_slots[sc];
            loop {
                let booked = slots.entry(wb).or_insert(0);
                if *booked < WB_PORTS_PER_CYCLE {
                    *booked += 1;
                    break;
                }
                wb += 1;
                self.wb_conflict_delays += 1;
            }
            wb
        }

        fn tick(&mut self, now: Cycle) {
            for (busy, collectors) in self.bank_busy.iter_mut().zip(&mut self.collectors) {
                *busy = [false; REG_BANKS as usize];
                for (pending, bank) in collectors.iter_mut() {
                    if *pending > 0 {
                        *pending -= 1;
                        *bank = (*bank + 1) % REG_BANKS;
                        if *pending > 0 {
                            busy[*bank as usize] = true;
                        }
                    }
                }
            }
            if now.is_multiple_of(64) {
                for slots in &mut self.wb_slots {
                    slots.retain(|&cycle, _| cycle >= now);
                }
            }
        }
    }

    /// Seeded issue streams over all six unit kinds and four sub-cores, at
    /// most one issue per sub-core per cycle, a tick every cycle and
    /// stretches of every issue density: the closed form must reproduce
    /// the per-cycle model's writeback cycles and both conflict counters.
    #[test]
    fn closed_form_matches_per_cycle_collector_model() {
        let (mut operand_conflicts, mut wb_conflicts) = (0, 0);
        for seed in 0..16 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut cfg = sm();
            if seed % 2 == 1 {
                // Short, mixed latencies crowd the writeback bus.
                for unit in &mut cfg.exec_units {
                    *unit = ExecUnitConfig::new(rng.gen_range(1..33), rng.gen_range(1..9));
                }
            }
            let mut reference = PerCycleAlu::new(&cfg);
            let mut alu = CycleAccurateAlu::new(&cfg);
            let mut density = 0.0;
            for now in 0..5_000 {
                if now % 50 == 0 {
                    density = [0.0, 0.2, 0.5, 0.9, 1.0][rng.gen_range(0..5usize)];
                }
                reference.tick(now);
                for sc in 0..4 {
                    let free = reference.ports_free(sc, now);
                    assert_eq!(alu.ports_free(sc, now), free, "seed {seed} at {now}");
                    let kind = ExecUnitKind::ALL[rng.gen_range(0..6usize)];
                    if rng.gen_bool(density) && free & 1 << kind.index() != 0 {
                        assert_eq!(
                            alu.issue(sc, kind, now),
                            reference.issue(sc, kind, now),
                            "seed {seed}: sub-core {sc} {kind} at {now}"
                        );
                    }
                }
            }
            assert_eq!(alu.operand_conflicts(), reference.operand_conflicts);
            assert_eq!(alu.wb_conflict_delays(), reference.wb_conflict_delays);
            assert_eq!(alu.issued(), reference.ports.issued());
            operand_conflicts += alu.operand_conflicts();
            wb_conflicts += alu.wb_conflict_delays();
        }
        assert!(
            operand_conflicts > 0 && wb_conflicts > 0,
            "both arbiters exercised"
        );
    }
}
