//! The analytical pre-pass skims each kernel's trace bytes instead of
//! decoding them, and the text skim never reads a register token. So it
//! can accept a kernel the decoder rejects; the run must still fail, with
//! the decoder's own error, because every skimmed kernel is decoded
//! before a result is returned (DESIGN.md, "Analytical pre-pass"). These
//! tests damage a register of the *last* kernel, so the pre-pass has
//! skimmed it long before the engine decodes it.

use swiftsim_config::presets;
use swiftsim_core::{GpuSimulator, RunOptions, SimError, SimulatorPreset};
use swiftsim_trace::{TextTraceSource, TraceError, TraceSource};
use swiftsim_workloads::Scale;

fn small_gpu() -> swiftsim_config::GpuConfig {
    let mut cfg = presets::rtx2080ti();
    cfg.num_sms = 4;
    cfg.memory.partitions = 4;
    cfg
}

/// A multi-kernel text trace whose last kernel has one bad `S:` token on
/// an arithmetic line, and the 1-based number of that line.
fn trace_with_a_bad_register() -> (String, usize) {
    let app = swiftsim_workloads::by_name("backprop")
        .expect("workload exists")
        .generate(Scale::Tiny);
    assert!(app.kernels().len() > 1);
    let text = app.to_trace_text();
    let last_kernel = text.rfind("\nkernel ").expect("a kernel line");
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    let first = text[..last_kernel].lines().count();
    let bad = (first..lines.len())
        .find(|&i| lines[i].contains(" FFMA ") && lines[i].contains(" S:R"))
        .expect("an FFMA with a source register in the last kernel");
    lines[bad] = lines[bad].replacen(" S:R", " S:Q", 1);
    (lines.join("\n") + "\n", bad + 1)
}

#[test]
fn a_register_the_skim_never_reads_still_fails_the_run_with_the_decoders_error() {
    let (text, line) = trace_with_a_bad_register();
    let src = TextTraceSource::from_text(text).expect("the structure is intact");
    let last = src.num_kernels() - 1;

    // The pre-pass accepts the kernel; the decoder does not.
    src.for_each_mem_inst(last, &mut |_| {})
        .expect("the skim does not read registers");
    let err = src.decode_kernel(last).expect_err("the decoder reads them");
    assert!(
        matches!(err, TraceError::Parse { line: l, .. } if l == line),
        "{err:?} is not a parse error for line {line}"
    );
    let want = SimError::from(err);

    for threads in [1, 2] {
        let options = RunOptions::default()
            .with_preset(SimulatorPreset::SwiftMemory)
            .with_threads(threads);
        let sim = GpuSimulator::try_new(small_gpu(), &options).expect("valid options");
        assert_eq!(sim.run(&src).unwrap_err(), want, "threads {threads}");
    }
}
