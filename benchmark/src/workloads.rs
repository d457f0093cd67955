//! The benchmark's workloads and the seeded inputs they run on.

use std::path::{Path, PathBuf};
use swiftsim_core::SimulatorPreset;
use swiftsim_trace::ApplicationTrace;
use swiftsim_workloads::{by_name, MemPattern, Mix, PatternKernel, Scale};

/// What a workload feeds the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Input {
    /// The suite's `bfs` as a chunked-SSTB file.
    Bfs,
    /// The suite's `gemm` as a chunked-SSTB file.
    Gemm,
    /// An 8-kernel, 5-pattern application as an NVBit-style text trace.
    IngestText,
    /// Four small applications as SSTB files, swept by a serve daemon.
    Sweep,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload is in the benchmark (also in `BENCHMARK.json`).
    pub why: &'static str,
    pub preset: SimulatorPreset,
    pub threads: usize,
    pub input: Input,
}

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "detailed.bfs",
        why: "cycle-accurate ALU and L1/NoC/L2/DRAM walk: the Accel-Sim stand-in, base of every paper speed-up",
        preset: SimulatorPreset::Detailed,
        threads: 1,
        input: Input::Bfs,
    },
    Workload {
        name: "basic.bfs",
        why: "analytical ALU over the cycle-accurate memory walk, so memory-hierarchy work shows here",
        preset: SimulatorPreset::SwiftBasic,
        threads: 1,
        input: Input::Bfs,
    },
    Workload {
        name: "memory.bfs",
        why: "hierarchy walk bypassed: funcsim pre-pass, Eq. 1 and the issue loop do the work",
        preset: SimulatorPreset::SwiftMemory,
        threads: 1,
        input: Input::Bfs,
    },
    Workload {
        name: "basic.gemm",
        why: "issue-bound single kernel with barriers: warp scheduler dominates, memory walk and skipping do not",
        preset: SimulatorPreset::SwiftBasic,
        threads: 1,
        input: Input::Gemm,
    },
    Workload {
        name: "basic.bfs.t2",
        why: "basic.bfs on the two-phase parallel engine with 2 threads: phase sync and commit show only here",
        preset: SimulatorPreset::SwiftBasic,
        threads: 2,
        input: Input::Bfs,
    },
    Workload {
        name: "ingest.text",
        why: "cheapest simulation over the costliest decode: text scan/parse and streaming prefetch dominate",
        preset: SimulatorPreset::SwiftMemory,
        threads: 1,
        input: Input::IngestText,
    },
    Workload {
        name: "serve.sweep",
        why: "16-job design-space sweep through a serve daemon, cold then warm: queue, dispatch, merge, result cache",
        preset: SimulatorPreset::SwiftBasic,
        threads: 1,
        input: Input::Sweep,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How large the generated inputs are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size: the suite's paper-scale launch geometry (every
    /// block, so all 68 SMs are occupied as at `paper` scale) with loop
    /// trip counts divided by [`BENCH_ITER_DIV`], which is what fits a
    /// repetition into the run length the benchmark contract allows.
    Bench,
    /// `tiny` scale, for `--quick`: checks everything, measures nothing.
    Quick,
}

impl Size {
    pub fn name(self) -> &'static str {
        match self {
            Size::Bench => "bench",
            Size::Quick => "tiny",
        }
    }
}

pub const BENCH_ITER_DIV: u32 = 3;

/// Applications of the `serve.sweep` workload, generated at `small` scale.
const SWEEP_APPS: [&str; 4] = ["bfs", "gemm", "nw", "hotspot"];

/// Instructions of the `ingest.text` application at the measured size.
const INGEST_INSTS: u64 = 500_000;

/// Fold the seed into a kernel name. The generator derives its address
/// base and its random stream from the name alone, so this is the only
/// way in for the seed, and instruction counts do not depend on it.
fn seeded_name(name: &str, seed: u64) -> String {
    format!("{name}.s{seed}")
}

fn suite_specs(app: &str, seed: u64) -> Vec<PatternKernel> {
    let workload = by_name(app).unwrap_or_else(|| panic!("the suite has no {app:?}"));
    workload
        .kernels()
        .iter()
        .map(|k| PatternKernel {
            name: seeded_name(&k.name, seed),
            ..k.clone()
        })
        .collect()
}

fn generate(name: &str, specs: &[PatternKernel], scale: Scale) -> ApplicationTrace {
    ApplicationTrace::new(name, specs.iter().map(|k| k.generate(scale)).collect())
}

/// A suite application at the given size.
fn suite_app(app: &str, seed: u64, size: Size) -> ApplicationTrace {
    let mut specs = suite_specs(app, seed);
    match size {
        Size::Bench => {
            for k in &mut specs {
                k.iters = (k.iters / BENCH_ITER_DIV).max(2);
            }
            generate(app, &specs, Scale::Paper)
        }
        Size::Quick => generate(app, &specs, Scale::Tiny),
    }
}

/// The `ingest.text` application: eight kernels of equal size cycling
/// through the five memory patterns, as `ingest_stress_app` builds it, but
/// with seeded kernel names.
fn ingest_app(seed: u64, size: Size) -> ApplicationTrace {
    const KERNELS: u64 = 8;
    let mix = Mix {
        loads: 2,
        stores: 1,
        fp: 6,
        int_ops: 4,
        ..Mix::default()
    };
    let patterns = [
        MemPattern::Streaming,
        MemPattern::Strided { lane_stride: 128 },
        MemPattern::Stencil {
            row_bytes: 4096,
            rows: 3,
        },
        MemPattern::Tiled { tile_bytes: 8192 },
        MemPattern::Irregular {
            footprint_lines: 4096,
            hot_fraction: 0.5,
        },
    ];
    let threads_per_block = 128;
    let iters = 8;
    let target = match size {
        Size::Bench => INGEST_INSTS,
        Size::Quick => INGEST_INSTS / 64,
    };
    // Per warp: one loop body per iteration (the mix plus counter, compare
    // and branch) and the final EXIT.
    let body = u64::from(mix.loads + mix.stores + mix.fp + mix.int_ops + 3);
    let per_block = u64::from(threads_per_block / 32) * (body * u64::from(iters) + 1);
    let blocks = target.div_ceil(KERNELS).div_ceil(per_block).max(2) as u32;
    let specs: Vec<PatternKernel> = (0..KERNELS as usize)
        .map(|i| PatternKernel {
            name: seeded_name(&format!("ingest_k{i}"), seed),
            blocks,
            threads_per_block,
            iters,
            mix,
            pattern: patterns[i % patterns.len()],
            shared_mem_bytes: 0,
            regs_per_thread: 32,
            barrier: false,
        })
        .collect();
    generate("ingest", &specs, Scale::Paper)
}

/// The applications a workload runs on, in file order.
pub fn generate_inputs(input: Input, seed: u64, size: Size) -> Vec<ApplicationTrace> {
    match input {
        Input::Bfs => vec![suite_app("bfs", seed, size)],
        Input::Gemm => vec![suite_app("gemm", seed, size)],
        Input::IngestText => vec![ingest_app(seed, size)],
        Input::Sweep => SWEEP_APPS
            .iter()
            .map(|app| {
                let scale = match size {
                    Size::Bench => Scale::Small,
                    Size::Quick => Scale::Tiny,
                };
                generate(app, &suite_specs(app, seed), scale)
            })
            .collect(),
    }
}

/// Where a workload's generated trace files live under `dir`, in the order
/// [`generate_inputs`] returns the applications.
pub fn input_paths(input: Input, dir: &Path) -> Vec<PathBuf> {
    match input {
        Input::Bfs | Input::Gemm => vec![dir.join("input.sstraceb")],
        Input::IngestText => vec![dir.join("input.sstrace")],
        Input::Sweep => SWEEP_APPS
            .iter()
            .map(|app| dir.join(format!("{app}.sstraceb")))
            .collect(),
    }
}

/// Encode `app` to `path` in the format its extension names.
pub fn encode(app: &ApplicationTrace, path: &Path) -> Result<(), String> {
    let written = if path.extension().is_some_and(|e| e == "sstrace") {
        app.write_to_file(path)
    } else {
        app.write_binary_file(path)
    };
    written.map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_changes_the_trace_and_nothing_else() {
        for input in [Input::Bfs, Input::IngestText] {
            let a = generate_inputs(input, 1, Size::Quick);
            let again = generate_inputs(input, 1, Size::Quick);
            let b = generate_inputs(input, 2, Size::Quick);
            assert_eq!(a[0].content_hash(), again[0].content_hash());
            assert_ne!(a[0].content_hash(), b[0].content_hash());
            assert_eq!(a[0].num_insts(), b[0].num_insts());
        }
    }

    #[test]
    fn every_input_has_a_file_per_application() {
        for w in &WORKLOADS {
            let apps = generate_inputs(w.input, 3, Size::Quick);
            assert_eq!(
                apps.len(),
                input_paths(w.input, Path::new("d")).len(),
                "{}",
                w.name
            );
            assert!(apps.iter().all(|a| a.num_insts() > 0));
        }
    }

    #[test]
    fn workload_names_are_unique_and_found() {
        for w in &WORKLOADS {
            assert_eq!(workload(w.name).map(|f| f.name), Some(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        assert!(workload("basic.nw").is_none());
    }
}
