//! Public-API snapshot: the crate's exported surface, diffed against a
//! golden file so accidental API breaks fail CI instead of shipping.
//!
//! The snapshot is a textual inventory of every `pub` declaration in
//! `swiftsim-core`'s sources (module items and inherent/trait methods),
//! excluding `pub(crate)`/`pub(super)` internals and `#[cfg(test)]`
//! modules. It is deliberately source-derived — no nightly rustdoc JSON —
//! so it runs in the offline CI sandbox.
//!
//! When an API change is intentional, regenerate with:
//!
//! ```sh
//! UPDATE_PUBLIC_API=1 cargo test -p swiftsim-core --test public_api
//! git diff crates/core/tests/golden/public_api.txt  # review the delta
//! ```

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/public_api.txt")
}

/// Collect the `pub` declaration lines of one source file, in order.
fn file_inventory(path: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(path).expect("read source file");
    let mut items = Vec::new();
    let mut depth_at_test_mod: Option<usize> = None;
    let mut depth = 0usize;
    let mut saw_cfg_test = false;

    for line in text.lines() {
        let trimmed = line.trim();

        // Track `#[cfg(test)] mod tests { ... }` and skip its contents.
        if trimmed.starts_with("#[cfg(test)]") {
            saw_cfg_test = true;
        } else if saw_cfg_test && trimmed.starts_with("mod ") {
            depth_at_test_mod = Some(depth);
            saw_cfg_test = false;
        } else if !trimmed.starts_with('#') {
            saw_cfg_test = false;
        }

        let in_test_mod = depth_at_test_mod.is_some();
        if !in_test_mod && trimmed.starts_with("pub ") && !trimmed.starts_with("pub(")
        // `pub use` inside private modules is plumbing, but at file
        // depth 0 in lib.rs it is the crate's re-export list: keep all.
        {
            // Normalize the declaration to its head: strip trailing body
            // opener and any `= ...;` initializer so the snapshot tracks
            // names and signatures, not implementations.
            let head = trimmed
                .split(" = ")
                .next()
                .unwrap_or(trimmed)
                .trim_end_matches('{')
                .trim_end_matches(';')
                .trim();
            items.push(head.to_owned());
        }

        depth += line.matches('{').count();
        depth = depth.saturating_sub(line.matches('}').count());
        if let Some(d) = depth_at_test_mod {
            if depth <= d {
                depth_at_test_mod = None;
            }
        }
    }
    items
}

fn current_inventory() -> String {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&src)
        .expect("list src dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    files.sort();

    let mut out = String::new();
    for file in files {
        let items = file_inventory(&file);
        if items.is_empty() {
            continue;
        }
        let name = file.file_name().unwrap().to_string_lossy().into_owned();
        writeln!(out, "# {name}").unwrap();
        for item in items {
            writeln!(out, "{item}").unwrap();
        }
        writeln!(out).unwrap();
    }
    out
}

#[test]
fn public_api_matches_the_golden_snapshot() {
    let current = current_inventory();
    let path = golden_path();

    if std::env::var_os("UPDATE_PUBLIC_API").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create golden dir");
        std::fs::write(&path, &current).expect("write golden snapshot");
        eprintln!("public API snapshot regenerated at {}", path.display());
        return;
    }

    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); run with UPDATE_PUBLIC_API=1 to create it",
            path.display()
        )
    });
    if golden == current {
        return;
    }

    // Render a readable diff: lines present on only one side.
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
        "swiftsim-core's public API no longer matches tests/golden/public_api.txt.\n\
         If this change is intentional, regenerate the snapshot with\n\
         `UPDATE_PUBLIC_API=1 cargo test -p swiftsim-core --test public_api`\n\
         and commit the diff. Changes:\n{diff}"
    );
}

/// The exported names the rest of the workspace builds on; if one of these
/// stops compiling, the snapshot above will usually have caught the rename,
/// but this makes the contract explicit at the type level.
#[test]
fn load_bearing_exports_exist() {
    #[allow(unused_imports)]
    use swiftsim_core::{
        alu::AluModel, panic_message, AluModelKind, BlockScheduler, CheckpointOptions, Confidence,
        Cycle, FidelityConfig, FrontendModelKind, GpuSimulator, GtoScheduler, IssueMasks,
        KernelResult, LrrScheduler, MemReply, MemoryModelKind, MemorySystem, Occupancy, RunOptions,
        SamplingPolicy, Scoreboard, SimError, SimulationResult, SimulatorPreset, Snapshot, StatId,
        StatUnit, TraceInput, TwoLevelScheduler, UnknownStat, WarpSchedulerPolicy,
        RESULT_SCHEMA_VERSION,
    };
    let _ = swiftsim_core::max_threads();
}
