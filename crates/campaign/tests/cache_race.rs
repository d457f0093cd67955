//! Concurrent result-cache writers in *separate processes* — the scenario
//! the write-then-rename protocol in `ResultCache::store` exists for.
//!
//! Several `swiftsim campaign` runs (or a serve daemon plus a one-shot
//! campaign) may share one cache directory and finish the same job at the
//! same time. The invariant is not "last writer wins" but "no reader ever
//! observes a torn entry": every lookup must return either a complete,
//! self-consistent result written by *some* writer, or (before the first
//! write lands) a clean miss.
//!
//! The test re-executes its own binary as writer children, so the races
//! are real OS-level ones across process boundaries — in-process threads
//! would share the same pid and miss the tmp-file naming scheme entirely.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use swiftsim_campaign::{CacheMode, ResultCache};
use swiftsim_core::{KernelResult, SimulationResult};

const KEY: u64 = 0xfeed_beef_cafe_0042;
const WRITERS: usize = 6;
const STORES_PER_WRITER: u64 = 150;

/// A result whose `cycles` encodes which writer produced it, so readers
/// can verify an entry is internally consistent (not spliced from two
/// writers' bytes).
fn stamped(seed: u64) -> SimulationResult {
    SimulationResult {
        app: format!("race-app-{seed}"),
        simulator: "race-sim".into(),
        fidelity: swiftsim_core::FidelityConfig::default(),
        cycles: 1_000_000 + seed,
        kernels: vec![KernelResult {
            name: format!("k{seed}"),
            cycles: 1_000_000 + seed,
            instructions: 10,
            blocks: 1,
        }],
        metrics: swiftsim_metrics::MetricsCollector::new(),
        wall_time: Duration::from_micros(5),
        confidence: None,
        profile: None,
    }
}

/// An entry is consistent iff all its seed-stamped fields agree.
fn seed_of(result: &SimulationResult) -> Option<u64> {
    let seed = result.cycles.checked_sub(1_000_000)?;
    let same_app = result.app == format!("race-app-{seed}");
    let same_kernel = result.kernels.len() == 1
        && result.kernels[0].name == format!("k{seed}")
        && result.kernels[0].cycles == result.cycles;
    (same_app && same_kernel && seed < WRITERS as u64).then_some(seed)
}

fn writer_main(dir: PathBuf, seed: u64) {
    let cache = ResultCache::new(dir, CacheMode::Use);
    let result = stamped(seed);
    for _ in 0..STORES_PER_WRITER {
        cache.store(KEY, "race", &result);
        // Read back under fire from the other writers: a miss here would
        // mean a reader can observe the entry mid-replacement.
        let read = cache
            .lookup(KEY)
            .expect("entry vanished or tore mid-replacement");
        assert!(seed_of(&read).is_some(), "torn entry: {}", read.app);
    }
}

#[test]
fn concurrent_process_writers_never_tear_the_same_key() {
    // Child mode: this very test, re-invoked with role=writer.
    if let Ok(seed) = std::env::var("SWIFTSIM_CACHE_RACE_SEED") {
        let dir = PathBuf::from(std::env::var("SWIFTSIM_CACHE_RACE_DIR").unwrap());
        writer_main(dir, seed.parse().unwrap());
        return;
    }

    let dir = std::env::temp_dir().join(format!("swiftsim-cache-race-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let exe = std::env::current_exe().unwrap();
    let mut children = Vec::new();
    for seed in 0..WRITERS as u64 {
        let child = Command::new(&exe)
            .args([
                "--exact",
                "concurrent_process_writers_never_tear_the_same_key",
                "--test-threads",
                "1",
                "--nocapture",
            ])
            .env("SWIFTSIM_CACHE_RACE_DIR", &dir)
            .env("SWIFTSIM_CACHE_RACE_SEED", seed.to_string())
            // Captured, not inherited: six children printing their own
            // libtest lines at once would splice them into the parent's
            // report. The capture is shown only if a writer fails.
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn writer child");
        children.push(child);
    }

    // Read continuously while the writers fight. After the first write
    // lands, every lookup must succeed and be internally consistent.
    let cache = ResultCache::new(dir.clone(), CacheMode::Use);
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut established = false;
    let mut observed = 0u64;
    while children
        .iter_mut()
        .any(|c| matches!(c.try_wait(), Ok(None)))
    {
        assert!(Instant::now() < deadline, "writers wedged");
        match cache.lookup(KEY) {
            Some(result) => {
                assert!(
                    seed_of(&result).is_some(),
                    "reader observed a torn entry: app={} cycles={}",
                    result.app,
                    result.cycles
                );
                established = true;
                observed += 1;
            }
            None => assert!(!established, "entry vanished after being established"),
        }
    }

    for child in children {
        let out = child.wait_with_output().unwrap();
        assert!(
            out.status.success(),
            "a writer child failed: {}\n--- stdout ---\n{}\n--- stderr ---\n{}",
            out.status,
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
    }
    assert!(established, "no write was ever observed");
    assert!(observed > 0);

    // Quiesced: exactly one winner, readable, consistent, and no stray
    // tmp files left behind by the rename protocol.
    let final_read = cache.lookup(KEY).expect("final entry readable");
    assert!(seed_of(&final_read).is_some());
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.contains(".tmp."))
        .collect();
    assert!(leftovers.is_empty(), "stray tmp files: {leftovers:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
