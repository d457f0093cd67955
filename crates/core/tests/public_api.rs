//! Public-API snapshot: the crate's exported surface, diffed against a
//! golden file so accidental API breaks fail CI instead of shipping.
//!
//! The compiler decides what is exported: `lib.rs` sets
//! `#![warn(unreachable_pub)]` and CI denies warnings, so every item or
//! method still written `pub ` is reachable from outside the crate. The
//! lint does not look at fields, so the scanner adds one rule for them: a
//! `pub` line inside the body of a `struct`/`enum` whose own declaration
//! is not `pub ` is crate-internal and is skipped. What remains is a
//! textual inventory of every reachable `pub` declaration (module items,
//! inherent/trait methods, fields of exported types), each one whole even
//! where rustfmt splits it over lines (a braced `pub use`, a long parameter
//! list), in every file under
//! `src/`, subdirectories included, one `# path` header per file,
//! excluding `pub(crate)`/`pub(super)` internals and `#[cfg(test)]`
//! modules, inline or in files of their own. It is
//! deliberately source-derived — no nightly rustdoc JSON — so it runs in
//! the offline CI sandbox.
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

/// Whether `trimmed` declares a `struct`/`enum` that is not itself `pub `.
fn declares_private_type(trimmed: &str) -> bool {
    let rest = match trimmed.strip_prefix("pub(") {
        Some(rest) => rest.split_once(") ").map_or("", |(_, rest)| rest),
        None => trimmed,
    };
    rest.starts_with("struct ") || rest.starts_with("enum ")
}

/// Whether `decl` is a whole declaration: every `(`, `[` and `{` it opens
/// is closed again, a trailing body opener aside. The `{` of a braced
/// `pub use a::{` opens its name list, not a body, so that one waits for
/// its `}`.
fn is_whole(decl: &str) -> bool {
    let head = decl.split(" = ").next().unwrap_or(decl);
    let head = match head.strip_suffix('{') {
        Some(rest) if !rest.ends_with("::") => rest,
        _ => head,
    };
    let depth = head.chars().fold(0i32, |depth, c| match c {
        '(' | '[' | '{' => depth + 1,
        ')' | ']' | '}' => depth - 1,
        _ => depth,
    });
    depth <= 0
}

/// Append the next line of a split declaration the way it would read on
/// one line: no space inside the delimiters, no trailing comma before the
/// closing one.
fn join_line(decl: &mut String, line: &str) {
    if line.is_empty() {
        return;
    }
    if line.starts_with([')', ']', '}']) {
        if decl.ends_with(',') {
            decl.pop();
        }
    } else if !decl.ends_with(['(', '[', '{']) {
        decl.push(' ');
    }
    decl.push_str(line);
}

/// Collect the `pub` declarations of one source file, in order.
fn file_inventory(text: &str) -> Vec<String> {
    let mut items = Vec::new();
    // The declaration read so far, while it spans lines.
    let mut pending: Option<String> = None;
    let mut depth_at_test_mod: Option<usize> = None;
    // Depth outside the body of the crate-private type being read, if any.
    let mut depth_at_private_type: Option<usize> = None;
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

        if depth_at_private_type.is_none() && declares_private_type(trimmed) {
            depth_at_private_type = Some(depth);
        }

        let hidden = depth_at_test_mod.is_some() || depth_at_private_type.is_some();
        if let Some(decl) = &mut pending {
            join_line(decl, trimmed);
        } else if !hidden && trimmed.starts_with("pub ") {
            pending = Some(trimmed.to_owned());
        }
        if let Some(decl) = pending.take_if(|decl| is_whole(decl)) {
            // Normalize the declaration to its head: strip trailing body
            // opener and any `= ...;` initializer so the snapshot tracks
            // names and signatures, not implementations.
            let head = decl
                .split(" = ")
                .next()
                .unwrap_or(&decl)
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
        // The body closed, or there was none (`struct Unit;`, a tuple struct).
        if let Some(d) = depth_at_private_type {
            if depth <= d && (line.contains('}') || trimmed.ends_with(';')) {
                depth_at_private_type = None;
            }
        }
    }
    items
}

/// The modules `text` declares as `#[cfg(test)] mod name;`: compiled only
/// into the crate's own unit tests, so nothing in them is exported.
fn test_only_modules(text: &str) -> Vec<&str> {
    let mut names = Vec::new();
    let mut saw_cfg_test = false;
    for line in text.lines() {
        let trimmed = line.trim();
        if saw_cfg_test {
            if let Some(name) = trimmed
                .strip_prefix("mod ")
                .and_then(|r| r.strip_suffix(';'))
            {
                names.push(name);
            }
        }
        saw_cfg_test = trimmed.starts_with("#[cfg(test)]");
    }
    names
}

/// Every `.rs` file under `dir`, as paths relative to `src`, leaving out
/// the files of test-only modules.
fn source_files(src: &Path, dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("list source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            source_files(src, &path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path.strip_prefix(src).expect("under src").to_owned());
        }
    }
}

fn current_inventory() -> String {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut files = Vec::new();
    source_files(&src, &src, &mut files);
    // By path text, so `a.rs` lists before the files of its submodules.
    files.sort_by_key(|f| f.to_string_lossy().into_owned());

    // A module declared in `a/b.rs` (or in `lib.rs`) lives in `a/b/`.
    let mut test_only = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(src.join(file)).expect("read source file");
        let dir = match file.file_stem().and_then(|s| s.to_str()) {
            Some("lib" | "mod") => file.parent().expect("relative").to_owned(),
            _ => file.with_extension(""),
        };
        for name in test_only_modules(&text) {
            test_only.push(dir.join(name));
        }
    }

    let mut out = String::new();
    for file in files {
        if test_only
            .iter()
            .any(|m| file.with_extension("") == *m || file.starts_with(m))
        {
            continue;
        }
        let text = std::fs::read_to_string(src.join(&file)).expect("read source file");
        let items = file_inventory(&text);
        if items.is_empty() {
            continue;
        }
        let name = file.to_string_lossy().replace('\\', "/");
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

#[test]
fn fields_of_a_crate_private_type_are_not_exported() {
    let src = "\
pub(crate) struct Hidden {
    pub a: u32,
    pub b: Vec<u8>,
}
struct Plain { pub c: u8 }
pub(super) enum Internal {
    A { x: u8 },
}
pub struct Shown {
    pub d: u64,
}
";
    assert_eq!(file_inventory(src), ["pub struct Shown", "pub d: u64,"]);
}

#[test]
fn split_declarations_are_pinned_whole() {
    let src = "\
pub use fidelity::{
    AluModelKind, FidelityConfig,
    DEFAULT_SAMPLING_REPS,
};
pub fn run(
    source: &dyn TraceSource,
    options: &RunOptions,
) -> Result<SimulationResult, SimError> {
    body(source)
}
pub struct Shown {
    pub d: u64,
}
";
    assert_eq!(
        file_inventory(src),
        [
            "pub use fidelity::{AluModelKind, FidelityConfig, DEFAULT_SAMPLING_REPS}",
            "pub fn run(source: &dyn TraceSource, options: &RunOptions) \
             -> Result<SimulationResult, SimError>",
            "pub struct Shown",
            "pub d: u64,",
        ]
    );
}

/// The exported names the rest of the workspace builds on; if one of these
/// stops compiling, the snapshot above will usually have caught the rename,
/// but this makes the contract explicit at the type level.
#[test]
fn test_only_module_declarations_are_found() {
    let src = "\
#[cfg(test)]
mod reference;
mod kept;
#[cfg(test)]
mod tests {
";
    assert_eq!(test_only_modules(src), ["reference"]);
}

#[test]
fn load_bearing_exports_exist() {
    #[allow(unused_imports)]
    use swiftsim_core::{
        alu::AluModel, panic_message, AluModelKind, BlockScheduler, Confidence, Cycle,
        FidelityConfig, FrontendModelKind, GpuSimulator, GtoScheduler, IssueMasks, KernelResult,
        LrrScheduler, MemReply, MemoryModelKind, MemorySystem, Occupancy, RunOptions,
        SamplingPolicy, Scoreboard, SimError, SimulationResult, SimulatorPreset, StatId, StatUnit,
        TwoLevelScheduler, UnknownStat, WarpSchedulerPolicy, RESULT_SCHEMA_VERSION,
    };
    let _ = swiftsim_core::max_threads();
}
