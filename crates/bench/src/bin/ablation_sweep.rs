//! Ablation study of Swift-Sim's own design choices (DESIGN.md calls for
//! these): what does each simplification and optimization contribute, and
//! what does it cost in fidelity?
//!
//! Dimensions:
//! * frontend-cache modeling on/off,
//! * analytical ALU vs cycle-accurate ALU (holding memory constant),
//! * hit-rate source: functional cache sim vs reuse-distance tool,
//! * NoC topology: crossbar vs mesh.
//!
//! ```sh
//! cargo run --release -p swiftsim-bench --bin ablation_sweep
//! ```

use std::time::Instant;
use swiftsim_bench::Knobs;
use swiftsim_core::{
    AluModelKind, FidelityConfig, FrontendModelKind, GpuSimulator, MemoryModelKind, RunOptions,
};
use swiftsim_metrics::Table;

fn main() {
    let knobs = Knobs::from_env();
    let gpu = swiftsim_config::presets::rtx2080ti();
    let workload = knobs
        .workloads()
        .into_iter()
        .find(|w| w.name == "hotspot")
        .or_else(|| knobs.workloads().into_iter().next())
        .expect("at least one workload");
    let app = workload.generate(knobs.scale);
    eprintln!("ablation on {} [{}]", workload.name, knobs.describe());

    let mesh_gpu = {
        let mut mesh_gpu = gpu.clone();
        mesh_gpu.noc.topology = swiftsim_config::NocTopology::Mesh;
        mesh_gpu
    };
    let cases: Vec<(&str, swiftsim_config::GpuConfig, FidelityConfig)> = vec![
        ("detailed baseline", gpu.clone(), FidelityConfig::default()),
        (
            "- per-cycle frontend caches",
            gpu.clone(),
            FidelityConfig {
                frontend: FrontendModelKind::Simplified,
                ..FidelityConfig::default()
            },
        ),
        (
            "- cycle-accurate ALU (analytical ALU, = Swift-Sim-Basic)",
            gpu.clone(),
            FidelityConfig {
                frontend: FrontendModelKind::Simplified,
                alu: AluModelKind::Analytical,
                ..FidelityConfig::default()
            },
        ),
        (
            "+ analytical memory, funcsim rates (= Swift-Sim-Memory)",
            gpu.clone(),
            FidelityConfig {
                frontend: FrontendModelKind::Simplified,
                alu: AluModelKind::Analytical,
                memory: MemoryModelKind::Analytical,
                ..FidelityConfig::default()
            },
        ),
        (
            "+ analytical memory, reuse-distance rates",
            gpu.clone(),
            FidelityConfig {
                frontend: FrontendModelKind::Simplified,
                alu: AluModelKind::Analytical,
                memory: MemoryModelKind::AnalyticalReuse,
                ..FidelityConfig::default()
            },
        ),
        (
            "detailed baseline over a 2D-mesh NoC",
            mesh_gpu,
            FidelityConfig::default(),
        ),
    ];

    let mut table = Table::new(vec!["Configuration", "Cycles", "Wall s", "Speedup"]);
    let mut baseline: Option<(u64, f64)> = None;
    for (label, case_gpu, fidelity) in cases {
        let options = RunOptions::default().with_fidelity(fidelity);
        let sim = GpuSimulator::try_new(case_gpu, &options).expect("ablation simulator");
        let started = Instant::now();
        let r = sim.run(&app).expect("ablation run");
        let wall = started.elapsed().as_secs_f64();
        let (_, base_wall) = *baseline.get_or_insert((r.cycles, wall));
        table.row(vec![
            label.to_owned(),
            r.cycles.to_string(),
            format!("{wall:.3}"),
            format!("{:.1}x", base_wall / wall.max(1e-9)),
        ]);
    }
    println!();
    print!("{table}");
}
