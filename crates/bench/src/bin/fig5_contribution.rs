//! Regenerates **Fig. 5**: contribution analysis of the speedup —
//! single-threaded Swift-Sim-Basic over the baseline, the additional
//! factor from the analytical memory model, and the additional factor from
//! multithreaded simulation.
//!
//! Paper targets: Basic 14.5x single-threaded; Memory adds 2.7x (39.7x
//! total single-threaded); parallelism adds ~5x for both (82.6x / 211.2x).
//!
//! ```sh
//! SWIFTSIM_SCALE=paper cargo run --release -p swiftsim-bench --bin fig5_contribution
//! ```

use swiftsim_bench::{geomean_of, sweep_app, Knobs};
use swiftsim_metrics::Table;

fn main() {
    let knobs = Knobs::from_env();
    let gpu = swiftsim_config::presets::rtx2080ti();
    eprintln!(
        "Fig. 5: speedup contribution analysis [{}]",
        knobs.describe()
    );

    let mut results = Vec::new();
    for w in knobs.workloads() {
        eprintln!("  running {} ...", w.name);
        results.push(sweep_app(&gpu, &w, &knobs));
    }

    let basic_1t = geomean_of(&results, |r| r.speedup(r.basic_1t));
    let memory_1t = geomean_of(&results, |r| r.speedup(r.memory_1t));
    let basic_mt = geomean_of(&results, |r| r.speedup(r.basic_mt));
    let memory_mt = geomean_of(&results, |r| r.speedup(r.memory_mt));

    let mut t = Table::new(vec!["Configuration", "Speedup (geomean)", "Factor"]);
    t.row(vec![
        "baseline (detailed, 1 thread)".into(),
        "1.0x".into(),
        "-".into(),
    ]);
    t.row(vec![
        "+ analytical ALU & simplified frontend (Basic, 1 thread)".into(),
        format!("{basic_1t:.1}x"),
        format!("{basic_1t:.1}x"),
    ]);
    t.row(vec![
        "+ analytical memory (Memory, 1 thread)".into(),
        format!("{memory_1t:.1}x"),
        format!("{:.1}x", memory_1t / basic_1t.max(1e-9)),
    ]);
    t.row(vec![
        format!("+ parallel simulation (Basic, {} threads)", knobs.threads),
        format!("{basic_mt:.1}x"),
        format!("{:.1}x", basic_mt / basic_1t.max(1e-9)),
    ]);
    t.row(vec![
        format!("+ parallel simulation (Memory, {} threads)", knobs.threads),
        format!("{memory_mt:.1}x"),
        format!("{:.1}x", memory_mt / memory_1t.max(1e-9)),
    ]);

    println!();
    print!("{t}");
    println!();
    println!(
        "paper: Basic 14.5x (1 thread); Memory +2.7x = 39.7x (1 thread); parallel ~5x -> 82.6x / 211.2x"
    );
}
