//! Content-addressed on-disk result cache.
//!
//! Every finished job is stored as `<key>.json` under the cache directory,
//! where `<key>` is the job's stable content hash (see
//! [`crate::spec::job_key`]). Because the key covers the resolved config,
//! the trace content, the preset, and the thread count, a lookup can never
//! return a result computed from different inputs — editing one knob moves
//! the affected jobs to new keys and only those are re-simulated.

use std::path::PathBuf;
use swiftsim_core::SimulationResult;
use swiftsim_metrics::Json;

/// Cache key derivation schema.
///
/// Folded into every job key alongside the crate version (see
/// [`crate::spec::job_key`]), so cached results are invalidated both on
/// release bumps and — by bumping this constant — on model changes that
/// alter simulated outcomes without touching the key's other inputs.
pub(crate) const CACHE_KEY_SCHEMA: u64 = 1;

/// Cache policy for one campaign run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMode {
    /// Read hits, write misses (the default).
    Use,
    /// Ignore existing entries but overwrite them with this run's results.
    Refresh,
    /// Neither read nor write.
    Off,
}

/// The on-disk cache.
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
    mode: CacheMode,
}

impl ResultCache {
    /// A cache rooted at `dir` with the given policy. The directory is
    /// created lazily on first store.
    pub fn new(dir: PathBuf, mode: CacheMode) -> Self {
        ResultCache { dir, mode }
    }

    /// The active policy.
    pub fn mode(&self) -> CacheMode {
        self.mode
    }

    fn path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.json"))
    }

    /// Look up a finished result. Returns `None` on policy
    /// ([`CacheMode::Refresh`]/[`CacheMode::Off`]), a missing entry, or an
    /// unreadable/stale-schema entry (corrupt files are treated as misses,
    /// never as errors).
    pub fn lookup(&self, key: u64) -> Option<SimulationResult> {
        if self.mode != CacheMode::Use {
            return None;
        }
        let text = std::fs::read_to_string(self.path(key)).ok()?;
        let json = Json::parse(&text).ok()?;
        // Entries are self-describing: verify the key field to guard
        // against a file renamed or copied into the wrong slot.
        if json.get("key").and_then(Json::as_str) != Some(format!("{key:016x}").as_str()) {
            return None;
        }
        SimulationResult::from_json(json.get("result")?).ok()
    }

    /// Store a finished result (no-op under [`CacheMode::Off`]). Write
    /// failures are swallowed: a broken cache must not fail the campaign.
    pub fn store(&self, key: u64, label: &str, result: &SimulationResult) {
        if self.mode == CacheMode::Off {
            return;
        }
        let _ = std::fs::create_dir_all(&self.dir);
        let entry = Json::obj(vec![
            ("key", Json::str(format!("{key:016x}"))),
            ("label", Json::str(label)),
            ("result", result.to_json()),
        ]);
        // Write-then-rename so concurrent campaigns never observe a
        // half-written entry.
        let tmp = self
            .dir
            .join(format!("{key:016x}.tmp.{}", std::process::id()));
        if std::fs::write(&tmp, entry.dump() + "\n").is_ok() {
            let _ = std::fs::rename(&tmp, self.path(key));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swiftsim_core::{KernelResult, SimulationResult};

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("swiftsim-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample(cycles: u64) -> SimulationResult {
        SimulationResult {
            app: "nw".into(),
            simulator: "s".into(),
            fidelity: swiftsim_core::FidelityConfig::default(),
            cycles,
            kernels: vec![KernelResult {
                name: "k".into(),
                cycles,
                instructions: 10,
                blocks: 1,
            }],
            metrics: swiftsim_metrics::MetricsCollector::new(),
            wall_time: std::time::Duration::from_micros(5),
            confidence: None,
            profile: None,
        }
    }

    #[test]
    fn store_then_lookup_round_trips() {
        let dir = scratch_dir("roundtrip");
        let cache = ResultCache::new(dir.clone(), CacheMode::Use);
        assert!(cache.lookup(7).is_none(), "empty cache misses");
        cache.store(7, "job", &sample(123));
        assert_eq!(cache.lookup(7).unwrap().cycles, 123);
        assert!(cache.lookup(8).is_none(), "other keys still miss");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn refresh_ignores_but_overwrites() {
        let dir = scratch_dir("refresh");
        let cache = ResultCache::new(dir.clone(), CacheMode::Use);
        cache.store(1, "job", &sample(100));

        let refresh = ResultCache::new(dir.clone(), CacheMode::Refresh);
        assert!(refresh.lookup(1).is_none(), "refresh never reads");
        refresh.store(1, "job", &sample(200));
        assert_eq!(cache.lookup(1).unwrap().cycles, 200, "but it writes");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn off_neither_reads_nor_writes() {
        let dir = scratch_dir("off");
        let off = ResultCache::new(dir.clone(), CacheMode::Off);
        off.store(1, "job", &sample(100));
        assert!(!dir.exists(), "Off must not touch the filesystem");
        let on = ResultCache::new(dir.clone(), CacheMode::Use);
        assert!(on.lookup(1).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pre_confidence_schema_entries_are_misses() {
        // Regression: schema-3 entries predate the `confidence` block, so
        // they cannot state whether their numbers came from a sampled run.
        // Serving one as a hit would silently mix error-bounded results
        // into exact sweeps — it must be re-simulated instead.
        let dir = scratch_dir("stale-schema");
        let cache = ResultCache::new(dir.clone(), CacheMode::Use);
        cache.store(12, "job", &sample(77));
        let path = dir.join(format!("{:016x}.json", 12u64));
        let current = format!("\"schema\":{}", swiftsim_core::RESULT_SCHEMA_VERSION);
        let downgraded = std::fs::read_to_string(&path)
            .unwrap()
            .replace(&current, "\"schema\":3");
        assert!(downgraded.contains("\"schema\":3"), "{downgraded}");
        std::fs::write(&path, downgraded).unwrap();
        assert!(cache.lookup(12).is_none(), "stale schema must miss");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_are_misses() {
        let dir = scratch_dir("corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let cache = ResultCache::new(dir.clone(), CacheMode::Use);
        std::fs::write(dir.join(format!("{:016x}.json", 9u64)), "not json").unwrap();
        assert!(cache.lookup(9).is_none());
        // An entry stored under the wrong key is also rejected.
        cache.store(10, "job", &sample(1));
        std::fs::rename(
            dir.join(format!("{:016x}.json", 10u64)),
            dir.join(format!("{:016x}.json", 11u64)),
        )
        .unwrap();
        assert!(cache.lookup(11).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
