//! Regenerates the scatter plot of **Fig. 4**: wall-clock speedup of
//! Swift-Sim-Basic and Swift-Sim-Memory (multithreaded) over the detailed
//! baseline for every application on the RTX 2080 Ti.
//!
//! Paper targets: geometric means of 82.6x (Basic) and 211.2x (Memory),
//! with NW/ADI/SM/GRU exceeding 1000x under Swift-Sim-Memory.
//!
//! ```sh
//! SWIFTSIM_SCALE=paper cargo run --release -p swiftsim-bench --bin fig4_speedup
//! ```

use swiftsim_bench::{geomean_of, sweep_app, Knobs};
use swiftsim_metrics::Table;

fn main() {
    let knobs = Knobs::from_env();
    let gpu = swiftsim_config::presets::rtx2080ti();
    eprintln!(
        "Fig. 4 (scatter): speedup over the detailed baseline on {} [{}]",
        gpu.name,
        knobs.describe()
    );

    let mut results = Vec::new();
    let mut t = Table::new(vec!["App", "Baseline wall s", "Basic x", "Memory x"]);
    for w in knobs.workloads() {
        eprintln!("  running {} ...", w.name);
        let r = sweep_app(&gpu, &w, &knobs);
        t.row(vec![
            r.app.to_owned(),
            format!("{:.2}", r.detailed.wall.as_secs_f64()),
            format!("{:.1}", r.speedup(r.basic_mt)),
            format!("{:.1}", r.speedup(r.memory_mt)),
        ]);
        results.push(r);
    }

    println!();
    print!("{t}");
    println!();
    println!(
        "geomean speedup: swift-sim-basic {:.1}x  swift-sim-memory {:.1}x  ({} threads)",
        geomean_of(&results, |r| r.speedup(r.basic_mt)),
        geomean_of(&results, |r| r.speedup(r.memory_mt)),
        knobs.threads,
    );
    println!("paper:           swift-sim-basic 82.6x  swift-sim-memory 211.2x  (<= 50 threads)");
}
