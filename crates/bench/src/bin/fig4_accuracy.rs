//! Regenerates the bar chart of **Fig. 4**: cycle-prediction error of the
//! detailed baseline (the Accel-Sim stand-in), Swift-Sim-Basic, and
//! Swift-Sim-Memory against "real hardware" (the silicon oracle) for every
//! application on the RTX 2080 Ti.
//!
//! Paper targets: Accel-Sim mean error 20.2%, Swift-Sim-Basic 22.6%,
//! Swift-Sim-Memory 24.3%.
//!
//! ```sh
//! SWIFTSIM_SCALE=paper cargo run --release -p swiftsim-bench --bin fig4_accuracy
//! ```

use swiftsim_bench::{mean_of, sweep_app_accuracy, Knobs};
use swiftsim_metrics::Table;

fn main() {
    let knobs = Knobs::from_env();
    let gpu = swiftsim_config::presets::rtx2080ti();
    eprintln!(
        "Fig. 4 (bars): prediction error on {} [{}]",
        gpu.name,
        knobs.describe()
    );

    let mut results = Vec::new();
    let mut t = Table::new(vec![
        "App",
        "HW cycles",
        "Baseline err %",
        "Basic err %",
        "Memory err %",
    ]);
    for w in knobs.workloads() {
        eprintln!("  running {} ...", w.name);
        let r = sweep_app_accuracy(&gpu, &w, knobs.scale);
        t.row(vec![
            r.app.to_owned(),
            r.hardware.to_string(),
            format!("{:.1}", 100.0 * r.error(r.detailed)),
            format!("{:.1}", 100.0 * r.error(r.basic_1t)),
            format!("{:.1}", 100.0 * r.error(r.memory_1t)),
        ]);
        results.push(r);
    }

    println!();
    print!("{t}");
    println!();
    println!(
        "mean error: baseline {:.1}%  swift-sim-basic {:.1}%  swift-sim-memory {:.1}%",
        100.0 * mean_of(&results, |r| r.error(r.detailed)),
        100.0 * mean_of(&results, |r| r.error(r.basic_1t)),
        100.0 * mean_of(&results, |r| r.error(r.memory_1t)),
    );
    println!("paper:      accel-sim 20.2%  swift-sim-basic 22.6%  swift-sim-memory 24.3%");
}
