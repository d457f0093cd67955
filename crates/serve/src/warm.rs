//! Warm in-process caches: the reason a resubmitted sweep comes back in
//! microseconds instead of minutes.
//!
//! The daemon outlives individual requests, so it can keep hot state that
//! a one-shot `swiftsim campaign` run rebuilds every time:
//!
//! * **Result cache** — finished results keyed by the same
//!   content-addressed job key the on-disk [`swiftsim_campaign::ResultCache`]
//!   uses. A warm hit skips the scheduler, the runner, and the disk round
//!   trip entirely. Each entry is a shared [`RenderedResult`]: the result
//!   and its JSON text, rendered once when the result was made. A hit
//!   hands out the `Arc`, not a copy, and every reply that carries the
//!   result copies that text, so a warm round serializes no result.
//!   LRU-evicted under a byte budget measured in rendered bytes.
//! * **Decoded-kernel cache** — a shared
//!   [`swiftsim_trace::DecodedKernelCache`]: file-backed traces decode each
//!   kernel once per *daemon*, not once per job, even across submissions
//!   from different clients. Jobs whose trace is already in memory
//!   (built-in workloads) bypass it — wrapping them would only add copies.
//!
//! Both caches key by content (trace hash, job key), never by request
//! identity: two clients submitting the same work share the warmth.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};
use swiftsim_campaign::{RenderedResult, ResolvedJob, WorkloadSource};
use swiftsim_trace::{CachedTraceSource, DecodedKernelCache, KernelCacheStats};

struct ResultEntry {
    result: Arc<RenderedResult>,
    tick: u64,
}

impl ResultEntry {
    fn bytes(&self) -> usize {
        self.result.text().len()
    }
}

struct ResultLruState {
    map: HashMap<u64, ResultEntry>,
    bytes: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// Statistics of the warm result cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResultCacheStats {
    /// Lookups served from memory.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted under budget pressure.
    pub evictions: u64,
    /// Resident entries.
    pub entries: usize,
    /// Approximate resident bytes.
    pub bytes: usize,
}

/// The daemon's warm state, shared by every executor and connection.
pub struct WarmCaches {
    results: Mutex<ResultLruState>,
    result_budget: usize,
    kernels: Arc<DecodedKernelCache>,
}

impl WarmCaches {
    /// Caches bounded to roughly `result_budget` bytes of results and
    /// `kernel_budget` bytes of decoded kernels.
    pub fn new(result_budget: usize, kernel_budget: usize) -> Arc<Self> {
        Arc::new(WarmCaches {
            results: Mutex::new(ResultLruState {
                map: HashMap::new(),
                bytes: 0,
                tick: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
            result_budget,
            kernels: DecodedKernelCache::new(kernel_budget),
        })
    }

    fn lock(&self) -> MutexGuard<'_, ResultLruState> {
        self.results.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Look up a finished result by job key: the shared entry, not a copy.
    pub fn lookup_result(&self, key: u64) -> Option<Arc<RenderedResult>> {
        let mut state = self.lock();
        state.tick += 1;
        let tick = state.tick;
        match state.map.get_mut(&key) {
            Some(entry) => {
                entry.tick = tick;
                let result = Arc::clone(&entry.result);
                state.hits += 1;
                Some(result)
            }
            None => {
                state.misses += 1;
                None
            }
        }
    }

    /// Remember a finished result under its job key, evicting
    /// least-recently-used entries past the byte budget. Results larger
    /// than the whole budget are not cached.
    pub fn store_result(&self, key: u64, result: &Arc<RenderedResult>) {
        // The rendered text is an honest, representation-independent size
        // measure, and the entry keeps it: it is what replies copy.
        let bytes = result.text().len();
        if bytes > self.result_budget {
            return;
        }
        let mut state = self.lock();
        state.tick += 1;
        let entry = ResultEntry {
            result: Arc::clone(result),
            tick: state.tick,
        };
        if let Some(old) = state.map.insert(key, entry) {
            state.bytes -= old.bytes();
        }
        state.bytes += bytes;
        while state.bytes > self.result_budget {
            let Some((&lru, _)) = state
                .map
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(_, e)| e.tick)
            else {
                break;
            };
            let evicted = state.map.remove(&lru).expect("lru key exists");
            state.bytes -= evicted.bytes();
            state.evictions += 1;
        }
    }

    /// Route a job's trace decodes through the shared decoded-kernel
    /// cache. Only file-backed traces are wrapped: built-in workloads are
    /// already in memory, and the cache keys by content hash, so the job
    /// key (and therefore result caching) is unaffected either way.
    pub fn warm_job(&self, job: ResolvedJob) -> ResolvedJob {
        if !matches!(job.spec.workload, WorkloadSource::TraceFile(_)) {
            return job;
        }
        match CachedTraceSource::new(Arc::clone(&job.app), Arc::clone(&self.kernels)) {
            Ok(cached) => ResolvedJob {
                app: Arc::new(cached),
                ..job
            },
            // A source whose content hash is unreadable will fail again in
            // the runner with a proper per-job error; don't fail here.
            Err(_) => job,
        }
    }

    /// Warm result cache statistics.
    pub fn result_stats(&self) -> ResultCacheStats {
        let state = self.lock();
        ResultCacheStats {
            hits: state.hits,
            misses: state.misses,
            evictions: state.evictions,
            entries: state.map.len(),
            bytes: state.bytes,
        }
    }

    /// Decoded-kernel cache statistics.
    pub fn kernel_stats(&self) -> KernelCacheStats {
        self.kernels.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swiftsim_campaign::CampaignSpec;

    fn run_tiny() -> Arc<RenderedResult> {
        let job = CampaignSpec::parse("workload = nw\nscale = tiny\npreset = swift-memory")
            .unwrap()
            .resolve()
            .unwrap()
            .remove(0);
        RenderedResult::new(
            swiftsim_core::run(
                job.app.as_ref(),
                &job.cfg,
                &swiftsim_core::RunOptions::default().with_fidelity(job.fidelity),
            )
            .unwrap(),
        )
    }

    #[test]
    fn result_cache_hits_and_stats() {
        let warm = WarmCaches::new(1 << 20, 1 << 20);
        let result = run_tiny();
        assert!(warm.lookup_result(7).is_none());
        warm.store_result(7, &result);
        let hit = warm.lookup_result(7).unwrap();
        assert!(Arc::ptr_eq(&hit, &result), "a hit shares the stored entry");
        let stats = warm.result_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert_eq!(stats.bytes, result.to_json().dump().len());
    }

    #[test]
    fn result_cache_evicts_lru_under_budget() {
        let result = run_tiny();
        let one = result.text().len();
        // Room for two results, not three.
        let warm = WarmCaches::new(one * 2 + one / 2, 1 << 20);
        warm.store_result(1, &result);
        warm.store_result(2, &result);
        assert!(warm.lookup_result(1).is_some(), "touch 1: now 2 is LRU");
        warm.store_result(3, &result);
        let stats = warm.result_stats();
        assert_eq!(stats.evictions, 1);
        assert!(warm.lookup_result(1).is_some());
        assert!(warm.lookup_result(2).is_none(), "LRU entry was evicted");
        assert!(warm.lookup_result(3).is_some());
        assert!(warm.result_stats().bytes <= one * 2 + one / 2);
    }

    #[test]
    fn oversized_results_are_not_cached() {
        let warm = WarmCaches::new(8, 1 << 20);
        warm.store_result(1, &run_tiny());
        assert_eq!(warm.result_stats().entries, 0);
    }

    #[test]
    fn builtin_workload_jobs_are_not_wrapped() {
        let warm = WarmCaches::new(1 << 20, 1 << 20);
        let job = CampaignSpec::parse("workload = nw\nscale = tiny")
            .unwrap()
            .resolve()
            .unwrap()
            .remove(0);
        let key = job.key;
        let app_before = Arc::clone(&job.app);
        let warmed = warm.warm_job(job);
        assert!(Arc::ptr_eq(&warmed.app, &app_before), "no pointless wrap");
        assert_eq!(warmed.key, key);
    }

    #[test]
    fn file_backed_jobs_share_the_kernel_cache() {
        // Write a real trace file, resolve a job from it, and prove two
        // warmed copies decode through one shared cache.
        use swiftsim_trace::{ApplicationTrace, InstBuilder, KernelTrace, Opcode};
        let mut kernel = KernelTrace::new("k", (1, 1, 1), (32, 1, 1));
        let b = kernel.push_block();
        let w = b.push_warp();
        w.push(
            InstBuilder::new(Opcode::Ldg)
                .dst(2)
                .src(1)
                .global_strided(0x1000, 4, 4),
        );
        w.push(InstBuilder::new(Opcode::Exit));
        let app = ApplicationTrace::new("warmtest", vec![kernel]);
        let dir = std::env::temp_dir().join(format!("swiftsim-warm-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("warm.sstrace");
        std::fs::write(&path, app.to_trace_text()).unwrap();

        let spec = format!("trace = {}\nscale = tiny\n", path.display());
        let job = CampaignSpec::parse(&spec)
            .unwrap()
            .resolve()
            .unwrap()
            .remove(0);
        let warm = WarmCaches::new(1 << 20, 1 << 20);

        let a = warm.warm_job(job.clone());
        let b = warm.warm_job(job);
        a.app.decode_kernel(0).unwrap();
        b.app.decode_kernel(0).unwrap();
        let stats = warm.kernel_stats();
        assert_eq!((stats.misses, stats.hits), (1, 1), "second decode is warm");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
