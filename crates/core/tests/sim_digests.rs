//! Simulated-statistics snapshot: for every suite application under every
//! preset at `tiny` scale on `rtx2080ti`, and under each of the three warp
//! scheduling policies, the predicted cycles, the issued instructions, and
//! an FNV-1a digest over every catalog stat, diffed against a golden file.
//!
//! The other suites compare simulated stats *within* one commit (dense vs
//! event-driven, threads 1 vs N, text vs chunked). This one compares them
//! *across* commits: a host-side optimisation — a denser trace layout, a
//! cached issue verdict, a different hash map — must leave every line of
//! the golden file untouched, which is the condition a simulator speed-up
//! has to meet before it counts.
//!
//! When a *model* change moves the numbers on purpose, regenerate with:
//!
//! ```sh
//! UPDATE_DIGESTS=1 cargo test -p swiftsim-core --test sim_digests
//! git diff crates/core/tests/golden/sim_digests.txt  # review the delta
//! ```
//!
//! The state a run carries *between* kernels is pinned the same way:
//! `tests/fixtures/bfs_tiny_{basic,memory}.sstbckpt` are snapshots an
//! earlier commit (5329878) wrote after the first kernel of tiny `bfs`,
//! and resuming from them must land on the golden line of the whole run.
//! They hold every L1/L2 line as that commit's tag arrays laid them out,
//! the replacement RNGs, and the analytical model's service clock, so a
//! reorganised tag array or pre-pass that reads them differently cannot
//! pass. After a deliberate change to the snapshot format, the trace
//! generator or the GPU preset, rewrite them:
//!
//! ```sh
//! swiftsim --workload bfs --scale tiny --preset swift-basic --halt-after 1 \
//!     --checkpoint-out crates/core/tests/fixtures/bfs_tiny_basic.sstbckpt
//! ```
//!
//! and likewise with `swift-memory` / `bfs_tiny_memory.sstbckpt`.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use swiftsim_config::{fnv1a64, presets, SchedulerPolicy};
use swiftsim_core::{RunOptions, SimulationResult, SimulatorPreset, StatId};
use swiftsim_workloads::Scale;

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/sim_digests.txt")
}

/// FNV-1a over every `(name, value bits)` of `result.stats()` except
/// `sim_threads`, the one stat that describes the host side of a run.
fn stats_digest(result: &SimulationResult) -> u64 {
    let mut bytes = Vec::new();
    for (id, value) in result.stats() {
        if id != StatId::SimThreads {
            bytes.extend_from_slice(id.name().as_bytes());
            bytes.extend_from_slice(&value.to_bits().to_le_bytes());
        }
    }
    fnv1a64(&bytes)
}

/// The golden rows: every suite app under every preset, first with the
/// preset's own warp scheduler (GTO, Table II) and then once per other
/// policy, whose name joins the preset in the key (`swift-basic/lrr`).
fn current_digests() -> String {
    let apps: Vec<_> = swiftsim_workloads::suite()
        .into_iter()
        .map(|workload| (workload.name, workload.generate(Scale::Tiny)))
        .collect();
    let mut out = String::new();
    writeln!(
        out,
        "# swiftsim-core simulated statistics, tiny scale, rtx2080ti"
    )
    .unwrap();
    writeln!(out, "# app preset cycles instructions fnv1a64(stats)").unwrap();
    for policy in [
        SchedulerPolicy::Gto,
        SchedulerPolicy::Lrr,
        SchedulerPolicy::TwoLevel,
    ] {
        let mut cfg = presets::rtx2080ti();
        let suffix = if policy == cfg.sm.scheduler {
            String::new()
        } else {
            format!("/{policy}")
        };
        if !suffix.is_empty() {
            writeln!(
                out,
                "# app preset/{policy} cycles instructions fnv1a64(stats)"
            )
            .unwrap();
        }
        cfg.sm.scheduler = policy;
        for (name, app) in &apps {
            for (preset, label) in [
                (SimulatorPreset::Detailed, "detailed"),
                (SimulatorPreset::SwiftBasic, "swift-basic"),
                (SimulatorPreset::SwiftMemory, "swift-memory"),
            ] {
                let result =
                    swiftsim_core::run(app, &cfg, &RunOptions::default().with_preset(preset))
                        .unwrap_or_else(|e| panic!("{name} under {label}{suffix}: {e}"));
                writeln!(
                    out,
                    "{name} {label}{suffix} {} {} {:016x}",
                    result.cycles,
                    result.instructions(),
                    stats_digest(&result)
                )
                .unwrap();
            }
        }
    }
    out
}

#[test]
fn simulated_stats_match_the_golden_snapshot() {
    let current = current_digests();
    let path = golden_path();

    if std::env::var_os("UPDATE_DIGESTS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create golden dir");
        std::fs::write(&path, &current).expect("write golden snapshot");
        eprintln!("simulated-stats snapshot regenerated at {}", path.display());
        return;
    }

    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); run with UPDATE_DIGESTS=1 to create it",
            path.display()
        )
    });
    if golden == current {
        return;
    }

    let golden_lines: std::collections::BTreeSet<&str> = golden.lines().collect();
    let current_lines: std::collections::BTreeSet<&str> = current.lines().collect();
    let mut diff = String::new();
    for gone in golden_lines.difference(&current_lines) {
        writeln!(diff, "  - {gone}").unwrap();
    }
    for new in current_lines.difference(&golden_lines) {
        writeln!(diff, "  + {new}").unwrap();
    }
    panic!(
        "simulated statistics no longer match tests/golden/sim_digests.txt.\n\
         A host-side change (layout, caching, data structures) must not move\n\
         any of them. If the timing *model* changed on purpose, regenerate\n\
         with `UPDATE_DIGESTS=1 cargo test -p swiftsim-core --test\n\
         sim_digests` and review the diff. Changes:\n{diff}"
    );
}

#[test]
fn snapshots_of_an_earlier_commit_resume_to_the_golden_line() {
    if std::env::var_os("UPDATE_DIGESTS").is_some() {
        return; // the golden file is being rewritten next to this test
    }
    let golden = std::fs::read_to_string(golden_path()).expect("read golden snapshot");
    let cfg = presets::rtx2080ti();
    let app = swiftsim_workloads::by_name("bfs")
        .expect("bfs is in the suite")
        .generate(Scale::Tiny);
    for (preset, label, file) in [
        (
            SimulatorPreset::SwiftBasic,
            "swift-basic",
            "bfs_tiny_basic.sstbckpt",
        ),
        (
            SimulatorPreset::SwiftMemory,
            "swift-memory",
            "bfs_tiny_memory.sstbckpt",
        ),
    ] {
        let snapshot = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures")
            .join(file);
        let options = RunOptions::default()
            .with_preset(preset)
            .with_resume(snapshot);
        let result = swiftsim_core::run(&app, &cfg, &options)
            .unwrap_or_else(|e| panic!("resuming {file}: {e}"));
        let line = format!(
            "bfs {label} {} {} {:016x}",
            result.cycles,
            result.instructions(),
            stats_digest(&result)
        );
        assert!(
            golden.lines().any(|l| l == line),
            "resumed from {file} to {line:?}, which is not the golden line"
        );
    }
}
