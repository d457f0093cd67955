//! The epoch gate: the shared-memory hand-off between the two-phase
//! engine's coordinator and its shard workers (see [`crate::twophase`]).
//!
//! Every shard owns one [`Slot`]: a mutex-guarded *mailbox* that both
//! sides fill in place and reuse, and two epoch counters. The coordinator
//! writes a command into the mailbox, releases the lock and bumps
//! `cmd_epoch`; the worker sees the bump, locks the mailbox, runs its phase
//! writing the result into the same mailbox, releases the lock and stores
//! the epoch it served into `done_epoch`. Ownership of the mailbox
//! alternates strictly, so the mutex is never contended — it is there so
//! the hand-off is safe Rust, not to arbitrate.
//!
//! # Memory ordering
//!
//! Every mailbox write happens before the unlock that follows it, the
//! epoch store happens after that unlock, and the reader locks only after
//! it has loaded the new epoch — so the mutex alone already orders the
//! payload, and the epoch needs no more than Release/Acquire for that.
//! The epochs, the `parked` flags and `dead` are nevertheless all `SeqCst`,
//! because the park rung is a Dekker handshake: the publisher stores the
//! epoch then loads `parked`, the waiter stores `parked` then loads the
//! epoch, and only a total order over those four accesses rules out both
//! loads missing (a lost wake-up). `SeqCst` loads cost the same as Acquire
//! on x86-64 and AArch64; the one `SeqCst` store per hand-off is noise
//! against a phase that runs for microseconds.
//!
//! # The wait ladder
//!
//! A waiter polls up to [`YIELD_ROUNDS`] times with a
//! [`std::thread::yield_now`] between polls, then falls back to
//! [`std::thread::park`]. A phase of the engine lasts a few to a few tens
//! of microseconds, which is less than it takes the kernel to put a vCPU to
//! sleep and wake it again, so in the steady state a wait must end on the
//! yield rung; parking is for the waits that are genuinely long (a peer
//! descheduled, a host with far fewer cores than shards). Yielding rather
//! than spinning is what makes one ladder serve every host: with a core
//! per shard `yield_now` returns at once and the loop is a poll every
//! quarter microsecond, and with fewer cores it hands the core to the peer
//! being waited for. A `spin_loop` rung in front was measured and left
//! out: never faster, and up to 2.3x slower on a virtualised host. The
//! bound is a constant, not a setting — see EXPERIMENTS.md ("The wait
//! ladder's bounds") for the sweep behind it.
//!
//! # Failure paths
//!
//! A [`Port`] that is dropped — in particular by a worker that unwinds —
//! marks its slot `dead` and unparks the coordinator, whose wait returns
//! [`Dead`] instead of hanging. A [`Coordinator`] that is dropped — at the
//! end of a kernel, on an early error return, or unwinding — publishes
//! the stop epoch to every slot and unparks every parked worker, whose
//! [`Port::recv`] then returns `None`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::thread::{self, Thread};

/// Yield-rung bound: polls separated by one `yield_now` (≈0.25 µs each
/// when nothing else is runnable, so ≥ 250 µs — ten typical phases; a
/// scheduler slice each when something is). 64 rounds fall short of a
/// phase and park; 256 to 16 384 rounds measure the same.
const YIELD_ROUNDS: u32 = 1024;
/// The command epoch that tells a worker to leave.
const STOP: u64 = u64::MAX;

/// The worker behind a slot is gone (it unwound, or its mailbox is
/// poisoned).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Dead;

struct Slot<M> {
    mailbox: Mutex<M>,
    /// Bumped by the coordinator after it filled the mailbox.
    cmd_epoch: AtomicU64,
    /// Set by the worker to the command epoch it has finished serving.
    done_epoch: AtomicU64,
    dead: AtomicBool,
    worker_parked: AtomicBool,
    coord_parked: AtomicBool,
    /// Registered by [`Gate::port`] on the worker's own thread.
    worker: OnceLock<Thread>,
}

impl<M> Slot<M> {
    fn wake_worker(&self) {
        if self.worker_parked.load(SeqCst) {
            if let Some(worker) = self.worker.get() {
                worker.unpark();
            }
        }
    }
}

/// One slot per shard. Slot 0 belongs to the coordinating thread itself,
/// which runs shard 0 inline, and is never used; it keeps slot indices
/// equal to shard indices.
pub(crate) struct Gate<M> {
    slots: Vec<Slot<M>>,
    coordinator: Thread,
}

impl<M: Default> Gate<M> {
    /// A gate for `shards` shards with empty mailboxes, built on the thread
    /// that will coordinate (it is the one workers unpark).
    pub(crate) fn new(shards: usize) -> Self {
        Gate {
            slots: (0..shards)
                .map(|_| Slot {
                    mailbox: Mutex::default(),
                    cmd_epoch: AtomicU64::new(0),
                    done_epoch: AtomicU64::new(0),
                    dead: AtomicBool::new(false),
                    worker_parked: AtomicBool::new(false),
                    coord_parked: AtomicBool::new(false),
                    worker: OnceLock::new(),
                })
                .collect(),
            coordinator: thread::current(),
        }
    }
}

impl<M> Gate<M> {
    /// The coordinator's handle; dropping it stops every worker.
    pub(crate) fn coordinator(&self) -> Coordinator<'_, M> {
        Coordinator { gate: self }
    }

    /// Shard `shard`'s worker handle. Call on the worker's own thread.
    pub(crate) fn port(&self, shard: usize) -> Port<'_, M> {
        // A second registration would mean two workers on one slot.
        let fresh = self.slots[shard].worker.set(thread::current()).is_ok();
        assert!(fresh, "shard {shard} already has a worker");
        Port {
            gate: self,
            shard,
            seen: 0,
        }
    }

    /// Climb the ladder until `poll` yields. `parked` is the flag the
    /// publisher of whatever `poll` watches checks before it unparks.
    fn wait<T>(&self, parked: &AtomicBool, mut poll: impl FnMut() -> Option<T>) -> T {
        for _ in 0..YIELD_ROUNDS {
            if let Some(v) = poll() {
                return v;
            }
            thread::yield_now();
        }
        loop {
            parked.store(true, SeqCst);
            let polled = poll();
            if polled.is_none() {
                // A stale token or a spurious wake-up only costs a lap.
                thread::park();
            }
            parked.store(false, SeqCst);
            if let Some(v) = polled {
                return v;
            }
        }
    }
}

/// The coordinator's side of the gate.
pub(crate) struct Coordinator<'g, M> {
    gate: &'g Gate<M>,
}

impl<'g, M> Coordinator<'g, M> {
    /// Lock `shard`'s mailbox. Only valid while the coordinator owns it:
    /// before [`Coordinator::publish`], or after [`Coordinator::wait`]
    /// returned `Ok`.
    pub(crate) fn mailbox(&self, shard: usize) -> Result<MutexGuard<'g, M>, Dead> {
        self.gate.slots[shard].mailbox.lock().map_err(|_| Dead)
    }

    /// Hand `shard`'s mailbox to its worker as the next epoch.
    pub(crate) fn publish(&self, shard: usize) {
        let slot = &self.gate.slots[shard];
        slot.cmd_epoch.fetch_add(1, SeqCst);
        slot.wake_worker();
    }

    /// Wait until `shard`'s worker has served the last published epoch.
    pub(crate) fn wait(&self, shard: usize) -> Result<(), Dead> {
        let slot = &self.gate.slots[shard];
        let epoch = slot.cmd_epoch.load(SeqCst);
        self.gate.wait(&slot.coord_parked, || {
            if slot.done_epoch.load(SeqCst) == epoch {
                Some(Ok(()))
            } else if slot.dead.load(SeqCst) {
                Some(Err(Dead))
            } else {
                None
            }
        })
    }
}

impl<M> Drop for Coordinator<'_, M> {
    fn drop(&mut self) {
        for slot in &self.gate.slots {
            slot.cmd_epoch.store(STOP, SeqCst);
            slot.wake_worker();
        }
    }
}

/// A worker's side of the gate.
pub(crate) struct Port<'g, M> {
    gate: &'g Gate<M>,
    shard: usize,
    /// The last command epoch this worker took.
    seen: u64,
}

impl<'g, M> Port<'g, M> {
    /// Wait for the next command and lock the mailbox holding it. `None`
    /// once the coordinator has stopped the gate.
    pub(crate) fn recv(&mut self) -> Option<MutexGuard<'g, M>> {
        let slot = &self.gate.slots[self.shard];
        let seen = self.seen;
        let epoch = self.gate.wait(&slot.worker_parked, || {
            Some(slot.cmd_epoch.load(SeqCst)).filter(|&e| e != seen)
        });
        if epoch == STOP {
            return None;
        }
        self.seen = epoch;
        self.mailbox()
    }

    /// Lock the mailbox outside an epoch — for what the coordinator left
    /// in it before stopping. `None` if the coordinator unwound holding it.
    pub(crate) fn mailbox(&self) -> Option<MutexGuard<'g, M>> {
        self.gate.slots[self.shard].mailbox.lock().ok()
    }

    /// Release the mailbox and report the epoch served.
    pub(crate) fn done(&self, mailbox: MutexGuard<'g, M>) {
        drop(mailbox);
        let slot = &self.gate.slots[self.shard];
        slot.done_epoch.store(self.seen, SeqCst);
        if slot.coord_parked.load(SeqCst) {
            self.gate.coordinator.unpark();
        }
    }
}

impl<M> Drop for Port<'_, M> {
    fn drop(&mut self) {
        // Unconditional: a port that is gone serves no further epoch,
        // whether its thread returned or is unwinding.
        self.gate.slots[self.shard].dead.store(true, SeqCst);
        self.gate.coordinator.unpark();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};
    use swiftsim_rng::SmallRng;

    /// Both directions of one hand-off, checkable against `payload`.
    #[derive(Default)]
    struct TestBox {
        epoch: u64,
        cmd: Vec<u64>,
        reply: Vec<u64>,
    }

    /// What epoch `epoch` of shard `shard` carries: a seeded length and
    /// contents both sides can regenerate.
    fn payload(shard: usize, epoch: u64, out: &mut Vec<u64>) {
        let mut rng = SmallRng::seed_from_u64(epoch ^ ((shard as u64) << 48));
        out.clear();
        for _ in 0..rng.gen_range(0..24u32) {
            out.push(rng.next_u64());
        }
    }

    /// Seeded busy work: mostly far shorter than the yield rung, with a
    /// heavy tail long enough to push the peer through it and into `park`.
    fn work(rng: &mut SmallRng) -> u64 {
        let n = if rng.gen_range(0..2000u32) == 0 {
            rng.gen_range(500_000..1_500_000u64)
        } else {
            rng.gen_range(0..1500u64)
        };
        (0..n).fold(rng.next_u64(), |acc, i| {
            std::hint::black_box(acc.rotate_left(7) ^ i)
        })
    }

    /// Serve epochs until stopped, checking each arrives exactly once, in
    /// order and intact. Returns how many were served.
    fn serve(gate: &Gate<TestBox>, shard: usize) -> u64 {
        let mut port = gate.port(shard);
        let mut rng = SmallRng::seed_from_u64(0x5eed ^ shard as u64);
        let mut expect = Vec::new();
        let mut served = 0u64;
        while let Some(mut mb) = port.recv() {
            served += 1;
            assert_eq!(mb.epoch, served, "shard {shard}: epoch skipped or repeated");
            payload(shard, served, &mut expect);
            assert_eq!(mb.cmd, expect, "shard {shard}: command of epoch {served}");
            std::hint::black_box(work(&mut rng));
            let TestBox { cmd, reply, .. } = &mut *mb;
            reply.clear();
            reply.extend(cmd.iter().map(|v| !v));
            port.done(mb);
        }
        served
    }

    /// Drive `epochs` epochs over `shards` shards (shard 0 is the caller)
    /// and check every reply.
    fn drive(shards: usize, epochs: u64) {
        let gate = Gate::<TestBox>::new(shards);
        thread::scope(|scope| {
            let workers: Vec<_> = (1..shards)
                .map(|shard| {
                    let gate = &gate;
                    scope.spawn(move || serve(gate, shard))
                })
                .collect();
            let coord = gate.coordinator();
            let mut rng = SmallRng::seed_from_u64(0xc00d);
            let mut expect = Vec::new();
            for epoch in 1..=epochs {
                for shard in 1..shards {
                    let mut mb = coord.mailbox(shard).expect("worker alive");
                    mb.epoch = epoch;
                    payload(shard, epoch, &mut mb.cmd);
                    drop(mb);
                    coord.publish(shard);
                }
                std::hint::black_box(work(&mut rng));
                for shard in 1..shards {
                    coord.wait(shard).expect("worker alive");
                    let mb = coord.mailbox(shard).expect("worker alive");
                    payload(shard, epoch, &mut expect);
                    assert_eq!(mb.cmd, expect, "shard {shard}: command clobbered");
                    expect.iter_mut().for_each(|v| *v = !*v);
                    assert_eq!(mb.reply, expect, "shard {shard}: reply of epoch {epoch}");
                }
            }
            drop(coord);
            for w in workers {
                assert_eq!(w.join().expect("worker"), epochs);
            }
        });
    }

    #[test]
    fn every_epoch_is_seen_once_in_order_and_intact() {
        drive(2, 50_000);
    }

    #[test]
    fn oversubscribed_shards_still_finish() {
        // Eight shards: more than the reference host's two cores, so a
        // yielding waiter is what lets its peer run at all.
        let t0 = Instant::now();
        drive(8, 5_000);
        assert!(
            t0.elapsed() < Duration::from_secs(120),
            "5000 epochs over 8 shards took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn a_worker_that_panics_mid_epoch_reads_as_dead() {
        let gate = Gate::<TestBox>::new(2);
        thread::scope(|scope| {
            let worker = scope.spawn(|| {
                let mut port = gate.port(1);
                let _mb = port.recv().expect("one command");
                panic!("worker dies holding its mailbox");
            });
            let coord = gate.coordinator();
            coord.publish(1);
            let t0 = Instant::now();
            assert_eq!(coord.wait(1), Err(Dead));
            assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
            // The mailbox it held is poisoned, and says so.
            assert!(worker.join().is_err());
            assert!(coord.mailbox(1).is_err());
        });
    }

    #[test]
    fn a_coordinator_that_leaves_early_releases_parked_workers() {
        let shards = 5;
        let gate = Gate::<TestBox>::new(shards);
        thread::scope(|scope| {
            let workers: Vec<_> = (1..shards)
                .map(|shard| {
                    let gate = &gate;
                    scope.spawn(move || serve(gate, shard))
                })
                .collect();
            let coord = gate.coordinator();
            // No command ever comes: every worker climbs to the park rung.
            while !gate.slots[1..].iter().all(|s| s.worker_parked.load(SeqCst)) {
                thread::yield_now();
            }
            drop(coord);
            for w in workers {
                assert_eq!(w.join().expect("worker"), 0);
            }
        });
    }
}
