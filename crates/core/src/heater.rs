//! Hot caching: a heater thread that manipulates temporal locality (§3.2).
//! spc-scope: cold
//!
//! The heater iterates over a list of registered memory regions, reading the
//! first bytes of every cache line into a throwaway accumulator, sleeps for
//! a configurable number of nanoseconds, and repeats. Each touch refreshes
//! the lines' recency in the cache-eviction metadata, so a
//! least-recently-used policy retains them — *semi-permanent cache
//! occupancy* (Figure 3).
//!
//! The design reflects the lessons the paper reports from its MVAPICH
//! integration (§3.2):
//!
//! * **No long critical section.** The heater copies the (small) region
//!   descriptor list under a brief lock at the start of each pass, then
//!   touches memory without holding anything.
//! * **Safe removal.** `deregister` marks the slot dead and then waits for
//!   the in-flight pass to finish (a short mutex acquisition), so memory can
//!   be freed afterwards without racing the heater — the paper's
//!   segfault-on-deallocation problem. Slots are reused, not removed, which
//!   keeps registration allocation-free in steady state.
//! * **Element pools.** The match-list structures expose stable chunk
//!   regions ([`crate::list::Lla::real_regions`]) precisely so the heater's
//!   contract ("memory outlives registration") is easy to uphold.
//!
//! Core binding: the paper pins the heater to a core sharing a cache level
//! with the MPI process. The standard library exposes no affinity control,
//! so this thread runs wherever the OS puts it; the *performance*
//! consequences of binding are reproduced by the simulated heater in
//! `spc-cachesim`.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use std::sync::Mutex;

/// Heater configuration.
#[derive(Clone, Copy, Debug)]
pub struct HeaterConfig {
    /// Sleep between passes. The paper: "an arbitrary number of
    /// nanoseconds"; the granularity knob for induced temporal locality.
    pub period: Duration,
}

impl Default for HeaterConfig {
    fn default() -> Self {
        // One pass every 50 µs refreshes far faster than any LLC turns over
        // under normal load, while costing well under one core.
        Self {
            period: Duration::from_micros(50),
        }
    }
}

/// A safely shareable, heat-able buffer: the storage is atomic, so racing
/// heater reads are well-defined. Used by the standalone heater
/// microbenchmark (§4.3) and anywhere a safe registration is preferred.
pub struct HeatBuffer {
    // spc-order(words): Relaxed — heat traffic only; the values are never interpreted
    words: Box<[AtomicU64]>,
}

impl HeatBuffer {
    /// Allocates a zeroed buffer of `bytes` (rounded up to 8).
    pub fn new(bytes: usize) -> Arc<Self> {
        let words = bytes.div_ceil(8);
        Arc::new(Self {
            words: (0..words).map(|_| AtomicU64::new(0)).collect(),
        })
    }

    /// Buffer length in bytes.
    pub fn len(&self) -> usize {
        self.words.len() * 8
    }

    /// True if the buffer has zero length.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    fn touch_all(&self) -> u64 {
        let mut acc = 0u64;
        let mut lines = 0;
        // First word of each 64-byte line.
        for i in (0..self.words.len()).step_by(8) {
            acc = acc.wrapping_add(self.words[i].load(Ordering::Relaxed));
            lines += 1;
        }
        std::hint::black_box(acc);
        lines
    }
}

/// Identifier of a registered region.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RegionId(usize);

enum RegionKind {
    /// Raw memory; validity is the registrant's obligation (see
    /// [`Heater::register_raw`]).
    Raw { base: usize, len: usize },
    /// Owned atomic buffer; always safe.
    Buffer(Arc<HeatBuffer>),
}

struct Slot {
    active: bool,
    kind: RegionKind,
}

struct Shared {
    /// Region descriptors. Locked only briefly: registration/deregistration
    /// and the per-pass descriptor snapshot.
    slots: Mutex<Vec<Slot>>,
    /// Held by the heater for the duration of each pass; `deregister`
    /// acquires it to wait out an in-flight pass.
    pass_lock: Mutex<()>,
    // spc-order(period_ns): Relaxed — pacing knob; a pass with a stale period is harmless
    period_ns: AtomicU64,
    // spc-order(paused): AcqRel — resume publishes the region state the loop reads
    paused: AtomicBool,
    // spc-order(shutdown): AcqRel — pairs the final state publication with the join
    shutdown: AtomicBool,
    /// Cache lines touched, cumulative.
    // spc-order(touches): Relaxed — HeaterStats tally; consistent views pair it with passes
    touches: AtomicU64,
    /// Completed passes.
    // spc-order(passes): AcqRel — wait_passes handshake: a pass releases its touches
    passes: AtomicU64,
    // spc-order(active_regions): Relaxed — HeaterStats gauge; the slots Mutex orders the table
    active_regions: AtomicUsize,
}

/// Observable heater counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HeaterStats {
    /// Cache lines touched since spawn.
    pub lines_touched: u64,
    /// Full passes over the region list.
    pub passes: u64,
    /// Currently active regions.
    pub active_regions: usize,
}

/// The hot-caching heater thread. Dropping it shuts the thread down.
pub struct Heater {
    shared: Arc<Shared>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Heater {
    /// Spawns the heater thread.
    pub fn spawn(config: HeaterConfig) -> Self {
        let shared = Arc::new(Shared {
            slots: Mutex::new(Vec::new()),
            pass_lock: Mutex::new(()),
            period_ns: AtomicU64::new(config.period.as_nanos() as u64),
            paused: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            touches: AtomicU64::new(0),
            passes: AtomicU64::new(0),
            active_regions: AtomicUsize::new(0),
        });
        let worker = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("spc-heater".into())
            .spawn(move || heater_loop(&worker))
            .expect("failed to spawn heater thread");
        Self {
            shared,
            thread: Some(thread),
        }
    }

    /// Registers an owned atomic buffer; entirely safe (the heater keeps
    /// the buffer alive via its `Arc`).
    pub fn register_buffer(&self, buf: Arc<HeatBuffer>) -> RegionId {
        self.insert(RegionKind::Buffer(buf))
    }

    /// Registers a raw memory region.
    ///
    /// # Safety
    ///
    /// `base..base+len` must remain valid (allocated, at least byte-wise
    /// initialized) until [`Heater::deregister`] for the returned id has
    /// *returned*. The heater performs racy volatile byte reads of the
    /// region: any concurrent writes must be to plain (non-reference-held)
    /// memory such as the element-pool chunks, for which a stale or torn
    /// byte value is harmless — the value is discarded into a black-box
    /// accumulator, exactly as in the paper's implementation.
    pub unsafe fn register_raw(&self, base: *const u8, len: usize) -> RegionId {
        self.insert(RegionKind::Raw {
            base: base as usize,
            len,
        })
    }

    fn insert(&self, kind: RegionKind) -> RegionId {
        let mut slots = self
            .shared
            .slots
            .lock()
            .expect("heater slots lock poisoned");
        self.shared.active_regions.fetch_add(1, Ordering::Relaxed);
        // Re-use a dead slot if available (the paper's "re-uses list
        // elements" strategy), else push.
        if let Some(i) = slots.iter().position(|s| !s.active) {
            slots[i] = Slot { active: true, kind };
            RegionId(i)
        } else {
            slots.push(Slot { active: true, kind });
            RegionId(slots.len() - 1)
        }
    }

    /// Deregisters a region and waits until the heater can no longer be
    /// touching it. After this returns, raw memory may be freed.
    pub fn deregister(&self, id: RegionId) {
        {
            let mut slots = self
                .shared
                .slots
                .lock()
                .expect("heater slots lock poisoned");
            // Release the lock before rejecting an unknown id: a panic that
            // poisoned `slots` would kill the heater thread on its next pass.
            let Some(slot) = slots.get_mut(id.0) else {
                drop(slots);
                panic!("invalid RegionId");
            };
            if !slot.active {
                return;
            }
            slot.active = false;
            // Drop any owned buffer now; raw regions carry no ownership.
            slot.kind = RegionKind::Raw { base: 0, len: 0 };
            self.shared.active_regions.fetch_sub(1, Ordering::Relaxed);
        }
        // An in-flight pass may have snapshotted the descriptor before we
        // marked it dead; wait for that pass to finish.
        drop(
            self.shared
                .pass_lock
                .lock()
                .expect("heater pass lock poisoned"),
        );
    }

    /// Pauses touching (the paper's compute-phase collaboration strategy).
    pub fn pause(&self) {
        self.shared.paused.store(true, Ordering::Release);
    }

    /// Resumes touching. Call early enough that the match list is back in
    /// cache before the communication phase's first access.
    pub fn resume(&self) {
        self.shared.paused.store(false, Ordering::Release);
    }

    /// True while paused.
    pub fn is_paused(&self) -> bool {
        self.shared.paused.load(Ordering::Acquire)
    }

    /// Adjusts the inter-pass sleep: the granularity of induced temporal
    /// locality.
    pub fn set_period(&self, period: Duration) {
        self.shared
            .period_ns
            .store(period.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Current counters.
    pub fn stats(&self) -> HeaterStats {
        HeaterStats {
            lines_touched: self.shared.touches.load(Ordering::Relaxed),
            passes: self.shared.passes.load(Ordering::Acquire),
            active_regions: self.shared.active_regions.load(Ordering::Relaxed),
        }
    }

    /// Blocks until at least `n` more passes have completed (test helper and
    /// phase-synchronization aid).
    ///
    /// # Panics
    ///
    /// If the heater thread has exited before completing them.
    pub fn wait_passes(&self, n: u64) {
        let target = self.shared.passes.load(Ordering::Acquire) + n;
        loop {
            // Read before the count: a thread seen finished has published
            // its last pass.
            let exited = self.thread.as_ref().is_none_or(|t| t.is_finished());
            if self.shared.passes.load(Ordering::Acquire) >= target {
                return;
            }
            assert!(!exited, "heater thread exited");
            std::thread::yield_now();
        }
    }

    /// Stops and joins the heater thread.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Heater {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// One snapshot entry for a pass: what to touch without holding the lock.
enum PassRegion {
    Raw { base: usize, len: usize },
    Buffer(Arc<HeatBuffer>),
}

fn heater_loop(shared: &Shared) {
    let mut snapshot: Vec<PassRegion> = Vec::new();
    while !shared.shutdown.load(Ordering::Acquire) {
        if !shared.paused.load(Ordering::Acquire) {
            let _pass = shared.pass_lock.lock().expect("heater pass lock poisoned");
            // Brief descriptor snapshot; clones of Arc only.
            snapshot.clear();
            {
                let slots = shared.slots.lock().expect("heater slots lock poisoned");
                for s in slots.iter().filter(|s| s.active) {
                    snapshot.push(match &s.kind {
                        RegionKind::Raw { base, len } => PassRegion::Raw {
                            base: *base,
                            len: *len,
                        },
                        RegionKind::Buffer(b) => PassRegion::Buffer(Arc::clone(b)),
                    });
                }
            }
            let mut lines = 0u64;
            for r in &snapshot {
                match r {
                    PassRegion::Raw { base, len } => {
                        let mut acc = 0u8;
                        let mut off = 0usize;
                        while off < *len {
                            // SAFETY: `register_raw`'s contract guarantees
                            // the region is valid until deregistration has
                            // returned, and deregistration waits on
                            // `pass_lock`, which we hold. Volatile single
                            // -byte reads; the value is discarded.
                            acc = acc.wrapping_add(unsafe {
                                core::ptr::read_volatile((*base + off) as *const u8)
                            });
                            off += crate::CACHE_LINE;
                            lines += 1;
                        }
                        std::hint::black_box(acc);
                    }
                    PassRegion::Buffer(b) => {
                        lines += b.touch_all();
                    }
                }
            }
            // Drop Arc clones promptly so deregistered buffers free.
            snapshot.clear();
            shared.touches.fetch_add(lines, Ordering::Relaxed);
            shared.passes.fetch_add(1, Ordering::Release);
        } else {
            shared.passes.fetch_add(1, Ordering::Release);
        }
        let ns = shared.period_ns.load(Ordering::Relaxed);
        std::thread::sleep(Duration::from_nanos(ns));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_heater() -> Heater {
        Heater::spawn(HeaterConfig {
            period: Duration::from_micros(10),
        })
    }

    /// Runs `f` on a helper thread and fails the test if it has not
    /// returned within five seconds, so a hang fails instead of stalling
    /// the suite.
    fn within_5s(f: impl FnOnce() + Send + 'static) {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            f();
            let _ = tx.send(());
        });
        rx.recv_timeout(Duration::from_secs(5))
            .expect("still waiting after 5 s");
    }

    #[test]
    fn a_foreign_region_id_leaves_the_heater_running() {
        within_5s(|| {
            let h1 = fast_heater();
            let h2 = fast_heater();
            let foreign = h1.register_buffer(HeatBuffer::new(64));
            let rejected =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| h2.deregister(foreign)));
            assert!(rejected.is_err(), "an id h2 never issued is rejected");
            h2.wait_passes(1);
            h2.register_buffer(HeatBuffer::new(64));
            h2.wait_passes(1);
            h1.shutdown();
            h2.shutdown();
        });
    }

    #[test]
    fn waiting_on_an_exited_heater_panics() {
        within_5s(|| {
            let h = fast_heater();
            h.shared.shutdown.store(true, Ordering::Release);
            let waited = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                h.wait_passes(u64::MAX / 2)
            }));
            let msg = waited.expect_err("no pass can complete");
            assert_eq!(msg.downcast_ref::<&str>(), Some(&"heater thread exited"));
        });
    }

    #[test]
    fn heater_touches_registered_buffer() {
        let h = fast_heater();
        let buf = HeatBuffer::new(4096);
        let id = h.register_buffer(Arc::clone(&buf));
        h.wait_passes(3);
        let s = h.stats();
        assert!(
            s.lines_touched >= 64,
            "3 passes over 64 lines, got {}",
            s.lines_touched
        );
        assert_eq!(s.active_regions, 1);
        h.deregister(id);
        assert_eq!(h.stats().active_regions, 0);
        h.shutdown();
    }

    #[test]
    fn deregister_then_free_raw_region_is_safe() {
        let h = fast_heater();
        let mem = vec![0u8; 8192].into_boxed_slice();
        // SAFETY: `mem` outlives the deregister call below.
        let id = unsafe { h.register_raw(mem.as_ptr(), mem.len()) };
        h.wait_passes(3);
        h.deregister(id);
        drop(mem); // must be safe now
        h.wait_passes(2); // heater keeps running fine
        h.shutdown();
    }

    #[test]
    fn pause_stops_touching() {
        let h = fast_heater();
        let buf = HeatBuffer::new(4096);
        h.register_buffer(buf);
        h.wait_passes(2);
        h.pause();
        assert!(h.is_paused());
        h.wait_passes(2); // paused passes still tick
        let before = h.stats().lines_touched;
        h.wait_passes(3);
        let after = h.stats().lines_touched;
        assert_eq!(before, after, "no touches while paused");
        h.resume();
        h.wait_passes(2);
        assert!(h.stats().lines_touched > after);
        h.shutdown();
    }

    #[test]
    fn slots_are_reused_after_deregistration() {
        let h = fast_heater();
        let a = h.register_buffer(HeatBuffer::new(64));
        h.deregister(a);
        let b = h.register_buffer(HeatBuffer::new(64));
        assert_eq!(a, b, "dead slot is reused, not appended");
        h.shutdown();
    }

    #[test]
    fn double_deregister_is_idempotent() {
        let h = fast_heater();
        let a = h.register_buffer(HeatBuffer::new(64));
        h.deregister(a);
        h.deregister(a); // no panic, no counter underflow
        assert_eq!(h.stats().active_regions, 0);
        h.shutdown();
    }

    #[test]
    fn heating_lla_pool_chunks_via_raw_regions() {
        use crate::entry::{PostedEntry, RecvSpec};
        use crate::list::{Lla, MatchList};
        use crate::sink::NullSink;

        let h = fast_heater();
        let mut lla: Lla<PostedEntry, 2> = Lla::new();
        let mut s = NullSink;
        for i in 0..100 {
            lla.append(
                PostedEntry::from_spec(RecvSpec::new(0, i, 0), i as u64),
                &mut s,
            );
        }
        let regions = lla.real_regions();
        // SAFETY: the pool chunks outlive the deregister calls below (the
        // list is dropped after).
        let ids: Vec<_> = regions
            .iter()
            .map(|(p, l)| unsafe { h.register_raw(*p, *l) })
            .collect();
        h.wait_passes(3);
        assert!(h.stats().lines_touched > 0);
        // The list keeps mutating while heated.
        for i in 0..100 {
            lla.search_remove(&crate::entry::Envelope::new(0, i, 0), &mut s);
        }
        for id in ids {
            h.deregister(id);
        }
        drop(lla);
        h.shutdown();
    }
}
