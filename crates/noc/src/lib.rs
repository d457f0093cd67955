//! On-chip interconnect models for the Swift-Sim GPU simulation framework.
//!
//! The SMs reach the banked L2 through an on-chip network (§II-A). The
//! paper criticizes pure analytical simulators for baking the NoC into
//! queueing equations — "when the NoC topology changes, a new analytical
//! model has to be created" (§II-B) — so Swift-Sim keeps the interconnect
//! behind the small [`Interconnect`] interface: both provided topologies
//! ([`Crossbar`] and [`Mesh`]) and any future one plug into the framework
//! without touching other modules.
//!
//! The timing model is zero-load latency + per-destination-port bandwidth +
//! bounded output queues, which is where NoC stall cycles (a Metrics
//! Gatherer output named in §III-C) come from.
//!
//! # Examples
//!
//! ```
//! use swiftsim_config::presets;
//! use swiftsim_noc::{Crossbar, Interconnect};
//!
//! let cfg = presets::rtx2080ti();
//! let mut noc = Crossbar::new(&cfg.noc, cfg.num_sms as usize, cfg.memory.partitions as usize);
//! // SM 3 sends a one-flit request to partition 7 at cycle 100.
//! let arrival = noc.traverse(3, 7, 1, 100).expect("queue not full");
//! assert_eq!(arrival, 100 + 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

use std::collections::VecDeque;
use swiftsim_config::NocConfig;

/// A simulation cycle index.
pub type Cycle = u64;

/// Lifetime counters of one interconnect.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)] // self-describing counters
pub struct NocStats {
    pub flits: u64,
    pub traversals: u64,
    pub stall_cycles: u64,
    pub rejections: u64,
}

impl NocStats {
    /// Average queueing stall per traversal, in cycles.
    pub fn avg_stall(&self) -> f64 {
        if self.traversals == 0 {
            return 0.0;
        }
        self.stall_cycles as f64 / self.traversals as f64
    }
}

/// The interconnect interface the rest of the framework programs against.
///
/// Implementations are free to model any topology; the framework only needs
/// "when does this message arrive, or is the network refusing it right
/// now". The trait is object-safe so simulators can swap topologies at
/// construction time.
pub trait Interconnect: Send {
    /// Send `flits` flits from source port `src` to destination port `dst`
    /// at cycle `now`. Returns the arrival cycle, or `None` when the
    /// destination queue is full (the sender must retry — back-pressure).
    fn traverse(&mut self, src: usize, dst: usize, flits: u32, now: Cycle) -> Option<Cycle>;

    /// Earliest cycle at which a send to `dst` could be accepted. Senders
    /// whose traversal was rejected use this to schedule their retry
    /// instead of polling every cycle.
    fn earliest_accept(&mut self, dst: usize, now: Cycle) -> Cycle;

    /// Lifetime counters.
    fn stats(&self) -> NocStats;

    /// Number of destination ports.
    fn num_ports(&self) -> usize;
}

#[derive(Debug, Clone, Default)]
struct Port {
    next_free: Cycle,
    in_flight: VecDeque<Cycle>,
}

impl Port {
    fn drain(&mut self, now: Cycle) {
        while self.in_flight.front().is_some_and(|&t| t <= now) {
            self.in_flight.pop_front();
        }
    }
}

/// Helper shared by both topologies: queue + bandwidth accounting on the
/// destination port.
#[derive(Debug, Clone)]
struct PortFabric {
    ports: Vec<Port>,
    flits_per_cycle: u64,
    queue_depth: usize,
    stats: NocStats,
}

impl PortFabric {
    fn new(num_ports: usize, flits_per_cycle: u32, queue_depth: u32) -> Self {
        PortFabric {
            ports: vec![Port::default(); num_ports],
            flits_per_cycle: u64::from(flits_per_cycle.max(1)),
            queue_depth: queue_depth as usize,
            stats: NocStats::default(),
        }
    }

    fn send(&mut self, dst: usize, flits: u32, zero_load: Cycle, now: Cycle) -> Option<Cycle> {
        let port = &mut self.ports[dst];
        port.drain(now);
        if port.in_flight.len() >= self.queue_depth {
            self.stats.rejections += 1;
            return None;
        }
        let start = now.max(port.next_free);
        let serialization = u64::from(flits).div_ceil(self.flits_per_cycle).max(1);
        port.next_free = start + serialization;
        let arrival = start + zero_load + serialization - 1;
        port.in_flight.push_back(arrival);
        self.stats.flits += u64::from(flits);
        self.stats.traversals += 1;
        self.stats.stall_cycles += start - now;
        Some(arrival)
    }

    fn earliest_accept(&mut self, dst: usize, now: Cycle) -> Cycle {
        let port = &mut self.ports[dst];
        port.drain(now);
        if port.in_flight.len() < self.queue_depth {
            now
        } else {
            // The queue frees when its oldest message is delivered.
            port.in_flight.front().copied().unwrap_or(now) + 1
        }
    }
}

/// Full crossbar: every source reaches every destination in the same
/// zero-load latency; contention only at destination ports. This is the
/// default model for NVIDIA's SM↔L2 fabric.
#[derive(Debug, Clone)]
pub struct Crossbar {
    fabric: PortFabric,
    latency: Cycle,
    num_src: usize,
}

impl Crossbar {
    /// Build a crossbar with `num_src` source and `num_dst` destination
    /// ports.
    pub fn new(cfg: &NocConfig, num_src: usize, num_dst: usize) -> Self {
        Crossbar {
            fabric: PortFabric::new(num_dst, cfg.flits_per_cycle, cfg.queue_depth),
            latency: Cycle::from(cfg.latency),
            num_src,
        }
    }
}

impl Interconnect for Crossbar {
    fn traverse(&mut self, src: usize, dst: usize, flits: u32, now: Cycle) -> Option<Cycle> {
        assert!(src < self.num_src, "source port {src} out of range");
        self.fabric.send(dst, flits, self.latency, now)
    }

    fn earliest_accept(&mut self, dst: usize, now: Cycle) -> Cycle {
        self.fabric.earliest_accept(dst, now)
    }

    fn stats(&self) -> NocStats {
        self.fabric.stats
    }

    fn num_ports(&self) -> usize {
        self.fabric.ports.len()
    }
}

/// 2D mesh with XY routing: sources and destinations are placed on a
/// near-square grid and latency grows with hop count. Demonstrates that a
/// topology change is *just another module implementation* in Swift-Sim.
#[derive(Debug, Clone)]
pub struct Mesh {
    fabric: PortFabric,
    per_hop: Cycle,
    src_cols: usize,
    dst_cols: usize,
    num_src: usize,
}

impl Mesh {
    /// Build a mesh with `num_src` source and `num_dst` destination nodes.
    /// `cfg.latency` is interpreted as the per-hop link latency.
    pub fn new(cfg: &NocConfig, num_src: usize, num_dst: usize) -> Self {
        Mesh {
            fabric: PortFabric::new(num_dst, cfg.flits_per_cycle, cfg.queue_depth),
            per_hop: Cycle::from(cfg.latency.max(1)),
            src_cols: grid_cols(num_src),
            dst_cols: grid_cols(num_dst),
            num_src,
        }
    }

    fn hops(&self, src: usize, dst: usize) -> u64 {
        let (sx, sy) = (src % self.src_cols, src / self.src_cols);
        let (dx, dy) = (dst % self.dst_cols, dst / self.dst_cols);
        (sx.abs_diff(dx) + sy.abs_diff(dy) + 1) as u64
    }
}

fn grid_cols(n: usize) -> usize {
    (n.max(1) as f64).sqrt().ceil() as usize
}

impl Interconnect for Mesh {
    fn traverse(&mut self, src: usize, dst: usize, flits: u32, now: Cycle) -> Option<Cycle> {
        assert!(src < self.num_src, "source port {src} out of range");
        let zero_load = self.per_hop * self.hops(src, dst);
        self.fabric.send(dst, flits, zero_load, now)
    }

    fn earliest_accept(&mut self, dst: usize, now: Cycle) -> Cycle {
        self.fabric.earliest_accept(dst, now)
    }

    fn stats(&self) -> NocStats {
        self.fabric.stats
    }

    fn num_ports(&self) -> usize {
        self.fabric.ports.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swiftsim_config::presets;

    fn noc_cfg() -> NocConfig {
        presets::rtx2080ti().noc
    }

    #[test]
    fn crossbar_zero_load_latency() {
        let mut x = Crossbar::new(&noc_cfg(), 68, 22);
        assert_eq!(x.traverse(0, 0, 1, 0), Some(8));
        assert_eq!(x.traverse(5, 21, 1, 100), Some(108));
        assert_eq!(x.stats().traversals, 2);
        assert_eq!(x.stats().stall_cycles, 0);
    }

    #[test]
    fn crossbar_port_contention_serializes() {
        let mut x = Crossbar::new(&noc_cfg(), 4, 2);
        // Four senders hit port 0 in the same cycle: starts 0,1,2,3.
        let arrivals: Vec<Cycle> = (0..4).map(|s| x.traverse(s, 0, 1, 0).unwrap()).collect();
        assert_eq!(arrivals, vec![8, 9, 10, 11]);
        assert_eq!(x.stats().stall_cycles, 1 + 2 + 3);
        // A different port is unaffected.
        assert_eq!(x.traverse(0, 1, 1, 0), Some(8));
    }

    #[test]
    fn multi_flit_messages_serialize_longer() {
        let mut x = Crossbar::new(&noc_cfg(), 2, 1);
        // 4 flits at 1 flit/cycle: occupies the port 4 cycles.
        let first = x.traverse(0, 0, 4, 0).unwrap();
        assert_eq!(first, 8 + 3);
        let second = x.traverse(1, 0, 1, 0).unwrap();
        assert_eq!(second, 4 + 8);
        assert_eq!(x.stats().flits, 5);
    }

    #[test]
    fn queue_full_rejects_and_recovers() {
        let mut cfg = noc_cfg();
        cfg.queue_depth = 2;
        let mut x = Crossbar::new(&cfg, 4, 1);
        assert!(x.traverse(0, 0, 1, 0).is_some());
        assert!(x.traverse(1, 0, 1, 0).is_some());
        assert!(x.traverse(2, 0, 1, 0).is_none());
        assert_eq!(x.stats().rejections, 1);
        // After arrivals drain the queue, sends work again.
        assert!(x.traverse(2, 0, 1, 1000).is_some());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn crossbar_validates_source() {
        let mut x = Crossbar::new(&noc_cfg(), 2, 2);
        x.traverse(2, 0, 1, 0);
    }

    #[test]
    fn mesh_latency_grows_with_distance() {
        let mut cfg = noc_cfg();
        cfg.latency = 2; // per hop
        let mut m = Mesh::new(&cfg, 16, 16);
        // src 0 → dst 0: 1 hop (injection).
        let near = m.traverse(0, 0, 1, 0).unwrap();
        // src 0 (0,0) → dst 15 (3,3): 7 hops.
        let far = m.traverse(0, 15, 1, 0).unwrap();
        assert!(far > near);
        assert_eq!(near, 2);
        assert_eq!(far, 14);
    }

    #[test]
    fn mesh_is_deterministic() {
        let cfg = noc_cfg();
        let mut a = Mesh::new(&cfg, 68, 22);
        let mut b = Mesh::new(&cfg, 68, 22);
        for i in 0..50 {
            assert_eq!(
                a.traverse(i % 68, (i * 7) % 22, 1, i as Cycle),
                b.traverse(i % 68, (i * 7) % 22, 1, i as Cycle)
            );
        }
    }

    #[test]
    fn avg_stall_reflects_contention() {
        let mut x = Crossbar::new(&noc_cfg(), 4, 1);
        for s in 0..4 {
            x.traverse(s, 0, 1, 0);
        }
        assert!((x.stats().avg_stall() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn trait_object_usable() {
        let mut nocs: Vec<Box<dyn Interconnect>> = vec![
            Box::new(Crossbar::new(&noc_cfg(), 4, 4)),
            Box::new(Mesh::new(&noc_cfg(), 4, 4)),
        ];
        for noc in &mut nocs {
            assert!(noc.traverse(0, 3, 1, 0).is_some());
            assert_eq!(noc.num_ports(), 4);
        }
    }
}
