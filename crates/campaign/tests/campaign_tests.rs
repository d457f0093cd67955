//! End-to-end campaign tests: the acceptance scenario of the campaign
//! subsystem — a ≥24-job sweep that caches, isolates failures, and runs
//! jobs in parallel.

use std::path::PathBuf;
use swiftsim_campaign::{
    run_campaign, CampaignOptions, CampaignSpec, ExecutorOptions, JobRow, RowStatus,
};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("swiftsim-campaign-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// 2 workloads × 2 presets × 3 schedulers × 2 replacement policies = 24.
const SWEEP: &str = "name = acceptance\n\
                     workload = nw, bfs\n\
                     preset = swift-basic, swift-memory\n\
                     scheduler = gto, lrr, two_level\n\
                     replacement = lru, fifo\n\
                     scale = tiny\n";

fn options(dir: &std::path::Path) -> CampaignOptions {
    let mut opts = CampaignOptions::default().workers(2);
    opts.cache_dir = dir.to_path_buf();
    opts
}

#[test]
fn sweep_runs_then_fully_caches_then_resimulates_only_the_delta() {
    let dir = scratch_dir("cache");
    let spec = CampaignSpec::parse(SWEEP).unwrap();

    // First invocation: everything simulates.
    let first = run_campaign(&spec, &options(&dir)).unwrap();
    assert_eq!(first.rows.len(), 24);
    assert_eq!(first.completed(), 24, "{}", first.summary_line());
    assert_eq!(first.failed(), 0);

    // Second invocation: every unchanged job is a cache hit.
    let second = run_campaign(&spec, &options(&dir)).unwrap();
    assert_eq!(second.cached(), 24, "{}", second.summary_line());
    assert_eq!(second.completed(), 0);
    // Cached rows carry the same simulated cycles as the original run.
    for (a, b) in first.rows.iter().zip(&second.rows) {
        assert_eq!(
            a.result.as_ref().unwrap().cycles,
            b.result.as_ref().unwrap().cycles,
            "{}",
            a.label
        );
    }

    // Entries written before shards always committed per cycle, and before
    // the clock left the fidelity plan, carry two more fidelity keys. The
    // spec's keys have not moved, so such an entry is still a hit.
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        let text = std::fs::read_to_string(&path).unwrap();
        let sampling = "\"sampling\":\"off\"";
        assert_eq!(text.matches(sampling).count(), 1, "{}", path.display());
        let parent = text.replace(
            sampling,
            &format!("\"skip_policy\":\"event_driven\",\"sync_quantum\":\"per_cycle\",{sampling}"),
        );
        std::fs::write(&path, parent).unwrap();
    }
    let old = run_campaign(&spec, &options(&dir)).unwrap();
    assert_eq!(old.cached(), 24, "{}", old.summary_line());

    // Widening one axis re-simulates only the new combinations.
    let wider = CampaignSpec::parse(
        &SWEEP.replace("replacement = lru, fifo", "replacement = lru, fifo, random"),
    )
    .unwrap();
    let third = run_campaign(&wider, &options(&dir)).unwrap();
    assert_eq!(third.rows.len(), 36);
    assert_eq!(third.cached(), 24, "{}", third.summary_line());
    assert_eq!(third.completed(), 12, "only the random-policy delta runs");

    // --refresh ignores all 36 entries and re-simulates.
    let refreshed = run_campaign(&wider, &options(&dir).refresh()).unwrap();
    assert_eq!(refreshed.cached(), 0);
    assert_eq!(refreshed.completed(), 36);

    // --no-cache never reads nor writes.
    let no_cache_dir = scratch_dir("no-cache");
    let uncached = run_campaign(&spec, &options(&no_cache_dir).cache_off()).unwrap();
    assert_eq!(uncached.completed(), 24);
    assert!(!no_cache_dir.exists());

    let _ = std::fs::remove_dir_all(&dir);
}

/// Keys pinned at the commit before the clock left the fidelity plan:
/// descriptions kept their `+event_driven` suffix, so cached results stay
/// hits. The package version is part of every key; a version bump moves
/// these on purpose.
#[test]
fn job_keys_did_not_move_when_the_clock_left_the_fidelity_plan() {
    let pinned = [
        (
            "workload = nw\npreset = swift-basic\nscale = tiny\n",
            "035b7b2bf1cf8c53",
        ),
        (
            "workload = bfs\npreset = detailed\nalu-model = analytical\n\
             sampling = cluster:2\nscale = tiny\n",
            "8f7798ed58a186d9",
        ),
    ];
    for (text, key) in pinned {
        let jobs = CampaignSpec::parse(text).unwrap().resolve().unwrap();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].key_hex(), key, "{}", jobs[0].spec.label());
    }
}

#[test]
fn a_failing_job_is_reported_without_aborting_the_campaign() {
    let dir = scratch_dir("fault");
    // A trace whose single block wants more shared memory than any SM has:
    // the simulator rejects it with SimError::BlockTooLarge at run time.
    let bad_trace = dir.join("impossible.sstrace");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        &bad_trace,
        "app impossible\n\
         kernel k\n\
         grid 1 1 1\n\
         block 32 1 1\n\
         shmem 16777216\n\
         regs 32\n\
         block_begin\n\
         warp_begin\n\
         0000 IADD D:R1 S:R2 S:R3 M:ffffffff\n\
         warp_end\n\
         block_end\n\
         kernel_end\n",
    )
    .unwrap();

    let spec = CampaignSpec::parse(&format!(
        "workload = nw\n\
         trace = {}\n\
         scheduler = gto, lrr, two_level\n\
         scale = tiny\n",
        bad_trace.display()
    ))
    .unwrap();

    let mut opts = options(&dir).cache_off();
    opts.max_retries = 1;
    let report = run_campaign(&spec, &opts).unwrap();
    assert_eq!(report.rows.len(), 6);
    assert_eq!(report.failed(), 3, "{}", report.summary_line());
    assert_eq!(report.completed(), 3, "the good jobs all finish");
    let failed: Vec<&JobRow> = report
        .rows
        .iter()
        .filter(|r| r.status == RowStatus::Failed)
        .collect();
    for row in failed {
        assert_eq!(row.workload, bad_trace.display().to_string());
        let err = row.error.as_ref().unwrap();
        assert!(err.contains("shared memory"), "{err}");
        assert_eq!(row.attempts, 2, "initial attempt + 1 retry");
        assert!(row.result.is_none());
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_panicking_job_is_isolated_even_under_the_pool() {
    // The engine's pool-level guarantee, exercised through the public
    // generic executor with a deliberately panicking runner mixed into a
    // 24-job batch.
    let jobs: Vec<usize> = (0..24).collect();
    let runs = swiftsim_campaign::run_jobs(
        &jobs,
        &ExecutorOptions {
            workers: 4,
            max_retries: 0,
            ..ExecutorOptions::default()
        },
        |j| format!("job{j}"),
        |_, &j| {
            if j == 7 {
                panic!("injected campaign panic");
            }
            Ok(j)
        },
    );
    assert_eq!(runs.len(), 24);
    for (j, run) in runs.iter().enumerate() {
        if j == 7 {
            assert!(run.result.as_ref().unwrap_err().contains("injected"));
        } else {
            assert_eq!(*run.result.as_ref().unwrap(), j);
        }
    }
}

#[test]
fn jsonl_rows_share_the_single_run_schema() {
    let dir = scratch_dir("jsonl");
    let spec = CampaignSpec::parse("workload = nw\nscale = tiny\n").unwrap();
    let report = run_campaign(&spec, &options(&dir).cache_off()).unwrap();
    let jsonl = report.to_jsonl();
    assert_eq!(jsonl.lines().count(), 1);

    let row = swiftsim_metrics::Json::parse(jsonl.lines().next().unwrap()).unwrap();
    assert_eq!(
        row.get("status").and_then(swiftsim_metrics::Json::as_str),
        Some("ok")
    );
    // The embedded result parses back through the shared schema.
    let result = swiftsim_core::SimulationResult::from_json(row.get("result").unwrap()).unwrap();
    assert_eq!(result.app, "nw");
    assert!(result.cycles > 0);
    assert_eq!(
        Some(result.cycles),
        report.rows[0].result.as_ref().map(|r| r.cycles)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
