//! Background kernel decode for streaming trace ingestion.
//!
//! The simulator consumes kernels strictly in order, so while kernel *k*
//! simulates, kernel *k+1* can already be decoding from its
//! [`TraceSource`] on a scoped background thread. [`Prefetcher`] owns that
//! pipeline: at any moment at most one decoded kernel is in flight, so
//! peak memory stays at ~2 decoded kernels regardless of application size.
//!
//! Decode work is attributed to [`ProfModule::TraceDecode`] on the
//! prefetcher's own profiler, on a track of its own, so the
//! overlap between decode and simulation is visible in Perfetto traces.

use crate::error::{panic_message, SimError};
use std::borrow::Cow;
use swiftsim_metrics::{ProfModule, Profiler};
use swiftsim_trace::{KernelTrace, TraceError, TraceSource};

type DecodeOutput<'env> = (Result<Cow<'env, KernelTrace>, TraceError>, Profiler);

/// Decode kernel `idx` and attribute the time to a `decode k{idx}:{name}`
/// profiler frame.
fn decode_one<'env>(
    source: &'env dyn TraceSource,
    idx: usize,
    prof: &mut Profiler,
) -> Result<Cow<'env, KernelTrace>, TraceError> {
    let meta = source.kernel_meta(idx);
    prof.begin_frame(&format!("decode k{idx}:{}", meta.name));
    let t0 = prof.start();
    let res = source.decode_kernel(idx);
    if let Some(t0) = t0 {
        prof.record_wall_ns(
            ProfModule::TraceDecode,
            t0.elapsed().as_nanos() as u64,
            meta.num_insts,
        );
    }
    prof.end_frame();
    res
}

/// Pipelined kernel decode over a [`TraceSource`].
///
/// Call [`Prefetcher::get`] with the scheduled indices in order; each call
/// returns kernel *k* and (when threaded) immediately starts decoding the
/// next scheduled kernel in the background, so the decode overlaps whatever the
/// caller does with kernel *k*. In-memory sources skip the background
/// thread: their decode is a borrow, and a thread round-trip per kernel
/// would only add latency.
pub(crate) struct Prefetcher<'scope, 'env> {
    scope: &'scope std::thread::Scope<'scope, 'env>,
    source: &'env dyn TraceSource,
    threaded: bool,
    schedule: Vec<usize>,
    next_spawn: usize,
    next_get: usize,
    pending: Option<std::thread::ScopedJoinHandle<'scope, DecodeOutput<'env>>>,
    prof: Option<Profiler>,
}

impl<'scope, 'env> Prefetcher<'scope, 'env> {
    /// Start the pipeline over `schedule`, a strictly increasing list of
    /// kernel indices — a sampled run decodes only its detailed launches.
    /// `prof` is the
    /// profiler decode frames land on; `threaded` enables the background
    /// thread (callers pass `false` for in-memory sources). When threaded,
    /// the first scheduled decode starts immediately.
    pub(crate) fn new(
        scope: &'scope std::thread::Scope<'scope, 'env>,
        source: &'env dyn TraceSource,
        prof: Profiler,
        threaded: bool,
        schedule: Vec<usize>,
    ) -> Self {
        debug_assert!(schedule.windows(2).all(|w| w[0] < w[1]));
        let mut p = Prefetcher {
            scope,
            source,
            threaded,
            schedule,
            next_spawn: 0,
            next_get: 0,
            pending: None,
            prof: Some(prof),
        };
        p.maybe_spawn();
        p
    }

    fn maybe_spawn(&mut self) {
        if self.threaded && self.next_spawn < self.schedule.len() {
            let idx = self.schedule[self.next_spawn];
            self.next_spawn += 1;
            let source = self.source;
            let mut prof = self.prof.take().expect("profiler is checked in");
            self.pending = Some(self.scope.spawn(move || {
                let res = decode_one(source, idx, &mut prof);
                (res, prof)
            }));
        }
    }

    /// Fetch kernel `idx` — which must be the next scheduled index — and
    /// start decoding the following scheduled kernel in the background.
    pub(crate) fn get(&mut self, idx: usize) -> Result<Cow<'env, KernelTrace>, SimError> {
        debug_assert_eq!(Some(&idx), self.schedule.get(self.next_get));
        self.next_get += 1;
        let res = if self.threaded {
            match self.pending.take().expect("a decode is pending").join() {
                Ok((res, prof)) => {
                    self.prof = Some(prof);
                    self.maybe_spawn();
                    res
                }
                Err(payload) => {
                    // The profiler died with the thread; park a stand-in so
                    // the pipeline stays consistent while unwinding.
                    self.prof = Some(Profiler::disabled());
                    return Err(SimError::WorkerPanic {
                        context: format!("decoding kernel {idx}"),
                        message: panic_message(payload.as_ref()),
                    });
                }
            }
        } else {
            let mut prof = self.prof.take().expect("profiler is checked in");
            let res = decode_one(self.source, idx, &mut prof);
            self.prof = Some(prof);
            res
        };
        res.map_err(SimError::from)
    }

    /// Tear down the pipeline and hand back the decode profiler. Any
    /// still-running decode (e.g. after an early error) is joined and
    /// discarded.
    pub(crate) fn finish(mut self) -> Profiler {
        if let Some(handle) = self.pending.take() {
            if let Ok((_, prof)) = handle.join() {
                self.prof = Some(prof);
            }
        }
        self.prof.take().unwrap_or_else(Profiler::disabled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swiftsim_trace::{ApplicationTrace, InstBuilder, KernelTrace, Opcode};

    fn app(kernels: usize) -> ApplicationTrace {
        let mut v = Vec::new();
        for i in 0..kernels {
            let mut k = KernelTrace::new(format!("k{i}"), (1, 1, 1), (32, 1, 1));
            let b = k.push_block();
            let w = b.push_warp();
            w.push(InstBuilder::new(Opcode::Iadd).pc(0).dst(1).src(1));
            w.push(InstBuilder::new(Opcode::Exit).pc(16));
            v.push(k);
        }
        ApplicationTrace::new("pf", v)
    }

    #[test]
    fn delivers_kernels_in_order_threaded_and_inline() {
        let app = app(4);
        for threaded in [false, true] {
            std::thread::scope(|scope| {
                let mut pf = Prefetcher::new(
                    scope,
                    &app,
                    Profiler::disabled(),
                    threaded,
                    (0..4).collect(),
                );
                for i in 0..4 {
                    let k = pf.get(i).expect("decode");
                    assert_eq!(k.name, format!("k{i}"));
                }
                pf.finish();
            });
        }
    }

    #[test]
    fn records_decode_frames() {
        let app = app(2);
        let epoch = std::time::Instant::now();
        let prof = std::thread::scope(|scope| {
            let mut pf = Prefetcher::new(
                scope,
                &app,
                Profiler::enabled_on_track(epoch, 7),
                true,
                vec![0, 1],
            );
            for i in 0..2 {
                pf.get(i).expect("decode");
            }
            pf.finish()
        });
        let frames = prof.frames();
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].name, "decode k0:k0");
        assert_eq!(frames[0].track, 7);
        assert_eq!(frames[1].events(ProfModule::TraceDecode), 2);
    }

    #[test]
    fn schedule_skips_unlisted_kernels() {
        let app = app(6);
        for threaded in [false, true] {
            std::thread::scope(|scope| {
                let mut pf =
                    Prefetcher::new(scope, &app, Profiler::disabled(), threaded, vec![1, 4, 5]);
                for i in [1usize, 4, 5] {
                    let k = pf.get(i).expect("decode");
                    assert_eq!(k.name, format!("k{i}"));
                }
                pf.finish();
            });
        }
    }

    #[test]
    fn empty_source_is_fine() {
        let app = app(0);
        std::thread::scope(|scope| {
            let pf = Prefetcher::new(scope, &app, Profiler::disabled(), true, Vec::new());
            pf.finish();
        });
    }
}
