//! Kernel-level sampling: cluster repeated launches, simulate
//! representatives, replay the rest.
//!
//! Real GPU applications launch the same kernels over and over — a training
//! loop runs its forward/backward kernels once per batch, a solver runs its
//! stencil kernel once per timestep. Simulating every one of those launches
//! in detail buys no new information. Under
//! [`SamplingPolicy::KernelCluster`], launches are grouped into *clusters*
//! by everything [`KernelMeta`] carries (name, grid/block geometry, shared
//! memory, registers, dynamic instruction count); the first `reps`
//! launches of each cluster are simulated in detail and every later launch
//! is *replayed*: its cycle count is the representatives' measured CPI
//! times its instruction count, its statistics are the representatives'
//! per-launch mean, and its trace body is never decoded.
//!
//! Replays cost effectively nothing, so an application with `R`-fold
//! launch repetition simulates roughly `R / reps` times faster. The price
//! is bounded and *reported*: the spread of the representatives' measured
//! cycles becomes a per-cluster relative error bound, surfaced per kernel
//! and as a whole-app bound in the result's [`Confidence`] block.

use crate::fidelity::SamplingPolicy;
use crate::result::{Confidence, KernelResult};
use crate::sm::SmStats;
use crate::Cycle;
use swiftsim_config::fnv1a64;
use swiftsim_trace::{KernelMeta, TraceSource};

/// Error bound assigned to replays of a single-representative cluster,
/// where no spread was measured. Launches within a cluster are identical
/// in content but start from different memory-hierarchy state, so some
/// launch-to-launch variation always exists; this floor keeps a
/// `cluster:1` run from claiming zero error it never measured.
pub(crate) const SINGLE_REP_ERROR_FLOOR: f64 = 0.05;

/// Minimum error bound for clusters with two or more representatives. The
/// measured spread only observes variation *between* the representatives;
/// memory-hierarchy warmup keeps drifting past them (the steady state the
/// replayed launches actually run in), so a raw spread of near-zero would
/// understate the true replay error. One percent covers the residual drift
/// observed across the workload suite while staying far below the
/// single-representative floor.
pub(crate) const MULTI_REP_ERROR_FLOOR: f64 = 0.01;

/// One detailed representative's measurements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RepMeasure {
    /// Cycles the launch took.
    pub cycles: Cycle,
    /// Per-launch statistics delta.
    pub stats: SmStats,
    /// Dynamic instructions issued.
    pub instructions: u64,
    /// Thread blocks executed.
    pub blocks: u64,
}

/// The sampling driver one run owns: the launch-order plan plus the
/// representative measurements accumulated so far.
#[derive(Debug)]
pub(crate) struct Sampler {
    /// Cluster index of each kernel launch, in launch order.
    cluster_of: Vec<usize>,
    /// Whether each launch is simulated in detail.
    detailed: Vec<bool>,
    num_clusters: usize,
    /// Per-cluster measurements of its detailed representatives.
    reps: Vec<Vec<RepMeasure>>,
}

/// fnv1a64 over every field of [`KernelMeta`] — the cluster identity.
fn cluster_key(meta: &KernelMeta) -> u64 {
    let text = format!(
        "{}|{},{},{}|{},{},{}|{}|{}|{}",
        meta.name,
        meta.grid_dim.x,
        meta.grid_dim.y,
        meta.grid_dim.z,
        meta.block_dim.x,
        meta.block_dim.y,
        meta.block_dim.z,
        meta.shared_mem_bytes,
        meta.regs_per_thread,
        meta.num_insts
    );
    fnv1a64(text.as_bytes())
}

impl Sampler {
    /// Build the launch-order plan for `source` under `policy`.
    ///
    /// Returns `None` when sampling is off. The plan is a pure function of
    /// the trace metadata and the policy.
    pub(crate) fn plan(source: &dyn TraceSource, policy: SamplingPolicy) -> Option<Sampler> {
        let SamplingPolicy::KernelCluster { reps } = policy else {
            return None;
        };
        let n = source.num_kernels();
        let mut key_to_cluster: Vec<(u64, usize)> = Vec::new();
        let mut cluster_of = Vec::with_capacity(n);
        let mut detailed = Vec::with_capacity(n);
        let mut seen_per_cluster: Vec<u32> = Vec::new();
        for idx in 0..n {
            let key = cluster_key(&source.kernel_meta(idx));
            let cluster = match key_to_cluster.iter().find(|(k, _)| *k == key) {
                Some(&(_, c)) => c,
                None => {
                    let c = seen_per_cluster.len();
                    key_to_cluster.push((key, c));
                    seen_per_cluster.push(0);
                    c
                }
            };
            cluster_of.push(cluster);
            detailed.push(seen_per_cluster[cluster] < reps);
            seen_per_cluster[cluster] += 1;
        }
        let num_clusters = seen_per_cluster.len();
        Some(Sampler {
            cluster_of,
            detailed,
            num_clusters,
            reps: vec![Vec::new(); num_clusters],
        })
    }

    /// Whether launch `kernel` is simulated in detail.
    pub(crate) fn is_detailed(&self, kernel: usize) -> bool {
        self.detailed[kernel]
    }

    /// Launch indices simulated in detail, in launch order — the set the
    /// analytical memory model's pre-pass must decode (replayed launches
    /// are never decoded, which is where most of the speedup comes from).
    pub(crate) fn detailed_indices(&self) -> Vec<usize> {
        (0..self.detailed.len())
            .filter(|&k| self.detailed[k])
            .collect()
    }

    /// Record the measurements of detailed launch `kernel`.
    pub(crate) fn record(&mut self, kernel: usize, measure: RepMeasure) {
        debug_assert!(self.detailed[kernel]);
        self.reps[self.cluster_of[kernel]].push(measure);
    }

    /// Synthesize the outcome of replayed launch `kernel` from its
    /// cluster's representatives.
    ///
    /// Cycle count is the representatives' mean CPI times the launch's
    /// instruction count; since instruction count is part of the cluster
    /// identity, this equals the rounded mean of the representative cycle
    /// counts. Statistics are the per-field rounded means.
    ///
    /// # Panics
    ///
    /// Panics if no representative of the cluster has been recorded —
    /// the plan guarantees representatives precede replays in launch
    /// order, so that is an engine sequencing bug.
    pub(crate) fn replay(&self, kernel: usize) -> RepMeasure {
        let reps = &self.reps[self.cluster_of[kernel]];
        assert!(
            !reps.is_empty(),
            "replayed kernel {kernel} before any representative of its cluster ran"
        );
        let n = reps.len() as u64;
        let mean = |get: &dyn Fn(&RepMeasure) -> u64| -> u64 {
            let sum: u128 = reps.iter().map(|r| u128::from(get(r))).sum();
            ((sum + u128::from(n / 2)) / u128::from(n)) as u64
        };
        RepMeasure {
            cycles: mean(&|r| r.cycles),
            stats: SmStats {
                issued: mean(&|r| r.stats.issued),
                mem_insts: mean(&|r| r.stats.mem_insts),
                stall_scoreboard: mean(&|r| r.stats.stall_scoreboard),
                stall_unit_busy: mean(&|r| r.stats.stall_unit_busy),
                stall_barrier: mean(&|r| r.stats.stall_barrier),
                stall_empty: mean(&|r| r.stats.stall_empty),
                shared_bank_conflicts: mean(&|r| r.stats.shared_bank_conflicts),
                icache_misses: mean(&|r| r.stats.icache_misses),
                ccache_misses: mean(&|r| r.stats.ccache_misses),
                active_cycles: mean(&|r| r.stats.active_cycles),
            },
            instructions: mean(&|r| r.instructions),
            blocks: mean(&|r| r.blocks),
        }
    }

    /// Relative cycle error bound of one cluster's replays: the spread of
    /// the representatives' measured cycles (floored at
    /// [`MULTI_REP_ERROR_FLOOR`]), or the single-representative floor when
    /// no spread was measured.
    fn cluster_bound(&self, cluster: usize) -> f64 {
        let reps = &self.reps[cluster];
        if reps.len() < 2 {
            return SINGLE_REP_ERROR_FLOOR;
        }
        let min = reps.iter().map(|r| r.cycles).min().unwrap_or(0);
        let max = reps.iter().map(|r| r.cycles).max().unwrap_or(0);
        let sum: u128 = reps.iter().map(|r| u128::from(r.cycles)).sum();
        let mean = sum as f64 / reps.len() as f64;
        if mean == 0.0 {
            return 0.0;
        }
        ((max - min) as f64 / mean).max(MULTI_REP_ERROR_FLOOR)
    }

    /// The run's [`Confidence`] block. `kernels` is the launch-order
    /// result list of the whole application.
    pub(crate) fn confidence(&self, kernels: &[KernelResult]) -> Confidence {
        debug_assert_eq!(kernels.len(), self.detailed.len());
        let mut kernel_error_bounds = Vec::with_capacity(kernels.len());
        let mut replayed_kernels = 0u64;
        let mut replayed_cycles: Cycle = 0;
        let mut weighted: f64 = 0.0;
        let mut total_cycles: Cycle = 0;
        for (k, result) in kernels.iter().enumerate() {
            total_cycles += result.cycles;
            if self.detailed[k] {
                kernel_error_bounds.push(0.0);
            } else {
                let bound = self.cluster_bound(self.cluster_of[k]);
                kernel_error_bounds.push(bound);
                replayed_kernels += 1;
                replayed_cycles += result.cycles;
                weighted += result.cycles as f64 * bound;
            }
        }
        let app_error_bound = if total_cycles == 0 {
            0.0
        } else {
            weighted / total_cycles as f64
        };
        Confidence {
            clusters: self.num_clusters as u64,
            sampled_kernels: (kernels.len() as u64) - replayed_kernels,
            replayed_kernels,
            replayed_cycles,
            kernel_error_bounds,
            app_error_bound,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swiftsim_trace::{Dim3, KernelTrace};

    /// A source of `n` kernels cycling through `metas`.
    struct MetaSource {
        metas: Vec<KernelMeta>,
        order: Vec<usize>,
    }

    impl TraceSource for MetaSource {
        fn name(&self) -> &str {
            "meta"
        }
        fn num_kernels(&self) -> usize {
            self.order.len()
        }
        fn kernel_meta(&self, index: usize) -> KernelMeta {
            self.metas[self.order[index]].clone()
        }
        fn decode_kernel(
            &self,
            _index: usize,
        ) -> Result<std::borrow::Cow<'_, KernelTrace>, swiftsim_trace::TraceError> {
            unreachable!("planning never decodes")
        }
        fn content_hash(&self) -> Result<u64, swiftsim_trace::TraceError> {
            Ok(0)
        }
    }

    fn meta(name: &str, gx: u32, insts: u64) -> KernelMeta {
        KernelMeta {
            name: name.to_owned(),
            grid_dim: Dim3 { x: gx, y: 1, z: 1 },
            block_dim: Dim3 { x: 32, y: 1, z: 1 },
            shared_mem_bytes: 0,
            regs_per_thread: 16,
            num_insts: insts,
        }
    }

    fn measure(cycles: Cycle) -> RepMeasure {
        RepMeasure {
            cycles,
            stats: SmStats {
                issued: cycles.wrapping_mul(2),
                ..SmStats::default()
            },
            instructions: 100,
            blocks: 4,
        }
    }

    #[test]
    fn off_policy_has_no_plan() {
        let src = MetaSource {
            metas: vec![meta("k", 1, 10)],
            order: vec![0, 0],
        };
        assert!(Sampler::plan(&src, SamplingPolicy::Off).is_none());
    }

    #[test]
    fn first_reps_instances_are_detailed_rest_replayed() {
        // Launch order: a a b a a b a — reps=2 → detailed: a0 a1 b0 b1, replayed: a3 a4 a6... wait
        let src = MetaSource {
            metas: vec![meta("a", 4, 100), meta("b", 8, 200)],
            order: vec![0, 0, 1, 0, 0, 1, 0],
        };
        let s = Sampler::plan(&src, SamplingPolicy::KernelCluster { reps: 2 }).unwrap();
        assert_eq!(s.num_clusters, 2);
        let detailed: Vec<bool> = (0..7).map(|k| s.is_detailed(k)).collect();
        assert_eq!(
            detailed,
            vec![true, true, true, false, false, true, false],
            "first 2 of cluster a (launches 0,1) and of cluster b (2,5) are detailed"
        );
        assert_eq!(s.detailed_indices(), vec![0, 1, 2, 5]);
    }

    #[test]
    fn identical_names_with_different_geometry_split_clusters() {
        let src = MetaSource {
            metas: vec![meta("k", 4, 100), meta("k", 8, 100), meta("k", 4, 999)],
            order: vec![0, 1, 2, 0],
        };
        let s = Sampler::plan(&src, SamplingPolicy::KernelCluster { reps: 1 }).unwrap();
        assert_eq!(s.num_clusters, 3);
        assert!(s.is_detailed(0) && s.is_detailed(1) && s.is_detailed(2));
        assert!(!s.is_detailed(3), "second launch of cluster 0 is replayed");
    }

    #[test]
    fn replay_is_rounded_mean_of_reps() {
        let src = MetaSource {
            metas: vec![meta("k", 4, 100)],
            order: vec![0, 0, 0],
        };
        let mut s = Sampler::plan(&src, SamplingPolicy::KernelCluster { reps: 2 }).unwrap();
        s.record(0, measure(100));
        s.record(1, measure(103));
        let r = s.replay(2);
        assert_eq!(r.cycles, 102, "round((100+103)/2)");
        assert_eq!(r.stats.issued, 203, "stats mean rounds too");
        assert_eq!(r.instructions, 100);
        assert_eq!(r.blocks, 4);
    }

    #[test]
    fn confidence_weights_bounds_by_replayed_cycles() {
        let src = MetaSource {
            metas: vec![meta("k", 4, 100)],
            order: vec![0, 0, 0, 0],
        };
        let mut s = Sampler::plan(&src, SamplingPolicy::KernelCluster { reps: 2 }).unwrap();
        s.record(0, measure(90));
        s.record(1, measure(110));
        let kr = |cycles| KernelResult {
            name: "k".into(),
            cycles,
            instructions: 100,
            blocks: 4,
        };
        let kernels = vec![kr(90), kr(110), kr(100), kr(100)];
        let c = s.confidence(&kernels);
        assert_eq!(c.clusters, 1);
        assert_eq!(c.sampled_kernels, 2);
        assert_eq!(c.replayed_kernels, 2);
        assert_eq!(c.replayed_cycles, 200);
        // Cluster bound: (110-90)/100 = 0.2; detailed kernels bound 0.
        assert_eq!(c.kernel_error_bounds, vec![0.0, 0.0, 0.2, 0.2]);
        // App bound: (100*0.2 + 100*0.2) / 400 = 0.1.
        assert!(
            (c.app_error_bound - 0.1).abs() < 1e-12,
            "{}",
            c.app_error_bound
        );
    }

    #[test]
    fn single_rep_cluster_uses_error_floor() {
        let src = MetaSource {
            metas: vec![meta("k", 4, 100)],
            order: vec![0, 0],
        };
        let mut s = Sampler::plan(&src, SamplingPolicy::KernelCluster { reps: 1 }).unwrap();
        s.record(0, measure(100));
        let kernels = vec![
            KernelResult {
                name: "k".into(),
                cycles: 100,
                instructions: 100,
                blocks: 4,
            };
            2
        ];
        let c = s.confidence(&kernels);
        assert_eq!(c.kernel_error_bounds[1], SINGLE_REP_ERROR_FLOOR);
    }
}
