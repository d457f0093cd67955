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
use std::sync::atomic::{AtomicUsize, Ordering};
use swiftsim_config::{fnv1a64, presets, SchedulerPolicy};
use swiftsim_core::{
    FidelityConfig, MemoryModelKind, RunOptions, SamplingPolicy, SimulationResult, SimulatorPreset,
    StatId,
};
use swiftsim_trace::ApplicationTrace;
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

/// One line of the golden file: a comment, or a run to digest.
enum Line<'a> {
    Comment(String),
    Run {
        app: &'a str,
        trace: &'a ApplicationTrace,
        key: String,
        scheduler: SchedulerPolicy,
        options: RunOptions,
    },
}

/// The golden rows: every suite app under every preset, first with the
/// preset's own warp scheduler (GTO, Table II) and then once per other
/// policy, whose name joins the preset in the key (`swift-basic/lrr`);
/// then one row per app for each single-threaded variant the presets do
/// not reach, keyed by the variant's token (`swift-basic/dense`): the
/// dense test-oracle clock, the reuse-distance analytical memory and
/// kernel-launch sampling. Sampling replays only
/// repeated launches, which no tiny app has, so its rows run `thrice`:
/// each app's kernel sequence launched three times over.
fn golden_lines<'a>(
    apps: &'a [(&'static str, ApplicationTrace)],
    thrice: &'a [(&'static str, ApplicationTrace)],
) -> Vec<Line<'a>> {
    let presets_and_labels = [
        (SimulatorPreset::Detailed, "detailed"),
        (SimulatorPreset::SwiftBasic, "swift-basic"),
        (SimulatorPreset::SwiftMemory, "swift-memory"),
    ];
    let mut lines = vec![
        Line::Comment("# swiftsim-core simulated statistics, tiny scale, rtx2080ti".to_owned()),
        Line::Comment("# app preset cycles instructions fnv1a64(stats)".to_owned()),
    ];
    for policy in [
        SchedulerPolicy::Gto,
        SchedulerPolicy::Lrr,
        SchedulerPolicy::TwoLevel,
    ] {
        let suffix = if policy == presets::rtx2080ti().sm.scheduler {
            String::new()
        } else {
            format!("/{policy}")
        };
        if !suffix.is_empty() {
            lines.push(Line::Comment(format!(
                "# app preset/{policy} cycles instructions fnv1a64(stats)"
            )));
        }
        for (app, trace) in apps {
            for (preset, label) in presets_and_labels {
                lines.push(Line::Run {
                    app,
                    trace,
                    key: format!("{label}{suffix}"),
                    scheduler: policy,
                    options: RunOptions::default().with_preset(preset),
                });
            }
        }
    }

    let basic = RunOptions::default().with_preset(SimulatorPreset::SwiftBasic);
    let memory = FidelityConfig::for_preset(SimulatorPreset::SwiftMemory);
    let variants = [
        (
            "swift-basic",
            basic.clone().with_dense_clock(),
            "dense",
            apps,
        ),
        (
            "swift-memory",
            RunOptions::default().with_fidelity(FidelityConfig {
                memory: MemoryModelKind::AnalyticalReuse,
                ..memory
            }),
            MemoryModelKind::AnalyticalReuse.token(),
            apps,
        ),
        (
            "swift-basic",
            basic.with_sampling(SamplingPolicy::KernelCluster { reps: 2 }),
            "sampled_r2",
            thrice,
        ),
    ];
    for (label, options, token, traces) in variants {
        let note = if std::ptr::eq(traces, thrice) {
            ", kernels launched three times over"
        } else {
            ""
        };
        lines.push(Line::Comment(format!(
            "# app {label}/{token} cycles instructions fnv1a64(stats), one thread{note}"
        )));
        for (app, trace) in traces {
            lines.push(Line::Run {
                app,
                trace,
                key: format!("{label}/{token}"),
                scheduler: presets::rtx2080ti().sm.scheduler,
                options: options.clone().with_threads(1),
            });
        }
    }
    lines
}

/// Map `items` through `f` on a few scoped threads, keeping their order.
fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    let mut out: Vec<Option<R>> = items.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            return mine;
                        };
                        mine.push((i, f(item)));
                    }
                })
            })
            .collect();
        for handle in handles {
            let done = handle
                .join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            for (i, r) in done {
                out[i] = Some(r);
            }
        }
    });
    out.into_iter()
        .map(|r| r.expect("every item mapped"))
        .collect()
}

fn current_digests() -> String {
    let apps: Vec<_> = swiftsim_workloads::suite()
        .into_iter()
        .map(|workload| (workload.name, workload.generate(Scale::Tiny)))
        .collect();
    let thrice: Vec<_> = apps
        .iter()
        .map(|(name, app)| {
            let kernels = app.kernels();
            let launches = kernels.iter().cycle().take(3 * kernels.len()).cloned();
            (
                *name,
                ApplicationTrace::new(app.name.clone(), launches.collect()),
            )
        })
        .collect();
    let lines = golden_lines(&apps, &thrice);
    let rendered = par_map(&lines, |line| match line {
        Line::Comment(text) => text.clone(),
        Line::Run {
            app,
            trace,
            key,
            scheduler,
            options,
        } => {
            let mut cfg = presets::rtx2080ti();
            cfg.sm.scheduler = *scheduler;
            let result = swiftsim_core::run(*trace, &cfg, options)
                .unwrap_or_else(|e| panic!("{app} under {key}: {e}"));
            format!(
                "{app} {key} {} {} {:016x}",
                result.cycles,
                result.instructions(),
                stats_digest(&result)
            )
        }
    });
    let mut out = String::new();
    for line in rendered {
        writeln!(out, "{line}").unwrap();
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
