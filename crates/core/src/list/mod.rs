//! Match-list data structures.
//! spc-scope: hot-path
//!
//! All structures implement [`MatchList`] for both queue element types
//! ([`crate::entry::PostedEntry`] and [`crate::entry::UnexpectedEntry`]) and
//! are behaviourally interchangeable: given the same sequence of appends,
//! searches and removals they return the same matches in the same MPI
//!-mandated FIFO order. The property tests in this crate enforce that
//! equivalence against [`BaselineList`], the reference implementation.
//!
//! What differs is their *memory behaviour*, which is the subject of the
//! paper:
//!
//! | structure | locality profile |
//! |---|---|
//! | [`BaselineList`] | one heap node per entry, fragmented placement |
//! | [`Lla`] | N entries per node, contiguous element pool (§3.1) |
//! | [`SourceBins`] | O(1) bin per source, O(ranks) memory per communicator |
//! | [`HashBins`] | fixed bins keyed by full matching criteria |
//! | [`RankTrie`] | multi-level rank decomposition, skips no-match regions |
//!
//! The last three are one implementation, [`Partitioned`], under three
//! [`partitioned::Router`]s: they differ only in which channel a key is sent
//! to.

pub mod baseline;
pub mod bins;
pub mod hashbins;
pub mod lla;
pub mod partitioned;
pub mod ranktrie;

pub use baseline::BaselineList;
pub use bins::SourceBins;
pub use hashbins::HashBins;
pub use lla::Lla;
pub use partitioned::Partitioned;
pub use ranktrie::RankTrie;

use crate::entry::{packed_matches, Element, ProbeKey};
use crate::sink::AccessSink;

/// Result of a destructive queue search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Search<E> {
    /// The matched (and removed) element, if any.
    pub found: Option<E>,
    /// Number of live entries inspected, including the match itself. This is
    /// the paper's *search depth*.
    pub depth: u32,
}

impl<E> Search<E> {
    /// A miss after inspecting `depth` entries.
    pub fn miss(depth: u32) -> Self {
        Self { found: None, depth }
    }

    /// A hit on the `depth`-th inspected entry.
    pub fn hit(e: E, depth: u32) -> Self {
        Self {
            found: Some(e),
            depth,
        }
    }
}

/// Memory accounting for a structure, used for the paper's scalability
/// discussion (Open MPI's per-source arrays cost O(ranks²) job-wide).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Footprint {
    /// Bytes of backing storage currently allocated.
    pub bytes: u64,
    /// Number of distinct allocations (nodes, bins, chunks).
    pub allocations: u64,
}

/// A match queue: FIFO with destructive out-of-order search.
///
/// `E` is the element type; `E::Probe` the search key. Implementations must
/// preserve MPI non-overtaking: among all stored elements matching a probe,
/// `search_remove` returns the one appended earliest.
pub trait MatchList<E: Element> {
    /// Appends an element at the logical tail of the queue.
    fn append<S: AccessSink>(&mut self, e: E, sink: &mut S);

    /// Finds, removes, and returns the earliest-appended element matching
    /// `probe`, reporting the number of entries inspected.
    ///
    /// # Depth contract
    ///
    /// [`Search::depth`] counts **live** entries physically inspected,
    /// including the match itself; in-band holes and structural metadata
    /// (node headers, bin tables, trie levels) are never counted. Every
    /// implementation must satisfy:
    ///
    /// * a hit has `depth >= 1` (the match itself was inspected);
    /// * `depth` never exceeds the number of live entries at call time.
    ///
    /// **Linear structures** ([`BaselineList`], [`Lla`]) additionally
    /// guarantee the exact values the paper's Table 1 is defined over: a
    /// hit's depth is the 1-based FIFO position of the match among live
    /// entries, and a miss's depth is the live length. **Partitioned
    /// structures** ([`SourceBins`], [`HashBins`], [`RankTrie`]) inspect
    /// only the channels that can hold a match — reporting *fewer*
    /// inspections than the FIFO position is their entire purpose, so
    /// their depth reflects the physical scan (e.g. bin prefix + wildcard
    /// prefix for a merged search, possibly `0` on an empty-region miss).
    /// The `spc-conformance` crate enforces the exact form for linear
    /// structures and the bounds for all of them, differentially against
    /// a Vec-backed oracle.
    fn search_remove<S: AccessSink>(&mut self, probe: &E::Probe, sink: &mut S) -> Search<E>;

    /// Removes the earliest element whose [`Element::id`] equals `id`
    /// (MPI_Cancel on a posted receive). Returns the removed element.
    fn remove_by_id<S: AccessSink>(&mut self, id: u64, sink: &mut S) -> Option<E>;

    /// Number of live elements.
    fn len(&self) -> usize;

    /// True when no live elements are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Live elements in FIFO (append) order. Intended for tests and tracing.
    fn snapshot(&self) -> Vec<E>;

    /// The earliest-appended element matching `probe` and the entries the
    /// probe compared to find it, without removing it (`MPI_Iprobe`). The
    /// default walks [`MatchList::snapshot`] and the linear structures
    /// walk in place, both in FIFO order, so for every structure here the
    /// depth is the match's 1-based FIFO position among live entries.
    fn find_first(&self, probe: &E::Probe) -> Option<(E, u32)> {
        first_match(self.snapshot().iter(), probe)
    }

    /// Removes all elements.
    fn clear(&mut self);

    /// Current memory accounting.
    fn footprint(&self) -> Footprint;

    /// Appends the simulated-address regions backing this structure to
    /// `out`, as `(base, len)` pairs, for hot-cache registration.
    fn heat_regions(&self, out: &mut Vec<(u64, u64)>);

    /// Short human-readable structure name (for reports).
    fn kind_name(&self) -> String;

    /// Checks the structure's internal invariants, returning a description
    /// of the first violation found.
    ///
    /// The default implementation accepts everything; structures with
    /// nontrivial internal state override it ([`Lla`] checks occupancy
    /// bitmaps, trim indexes, pool free-list integrity and length
    /// agreement; [`BaselineList`] checks link/length/tail consistency).
    /// O(len) or worse — never called on the measured path. The
    /// `spc-conformance` drivers call this after every mutating op when
    /// built with `--features debug_invariants`.
    fn validate(&self) -> Result<(), String> {
        Ok(())
    }
}

/// The first element of a FIFO-ordered walk that matches `probe`, with its
/// 1-based position — the body of every [`MatchList::find_first`].
pub(crate) fn first_match<'a, E: Element>(
    fifo: impl Iterator<Item = &'a E>,
    probe: &E::Probe,
) -> Option<(E, u32)> {
    fifo.zip(1..)
        .find(|(e, _)| e.matches(probe))
        .map(|(e, pos)| (*e, pos))
}

/// Shared helper for binned structures: a FIFO of `(sequence, element)`
/// pairs stored contiguously, with simulated addresses charged as
/// `base + slot * stride`.
#[derive(Clone, Debug)]
pub(crate) struct SeqFifo<E> {
    items: std::collections::VecDeque<(u64, E)>,
    sim_base: u64,
    stride: u64,
}

impl<E: Element> SeqFifo<E> {
    pub(crate) fn new(sim_base: u64) -> Self {
        Self {
            items: std::collections::VecDeque::new(),
            sim_base,
            // Sequence number + element, rounded up to 8.
            stride: ((8 + core::mem::size_of::<E>() as u64) + 7) & !7,
        }
    }

    pub(crate) fn push<S: AccessSink>(&mut self, seq: u64, e: E, sink: &mut S) {
        sink.write(
            self.sim_base + self.items.len() as u64 * self.stride,
            self.stride as u32,
        );
        self.items.push_back((seq, e));
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &(u64, E)> {
        self.items.iter()
    }

    /// Inspects elements in order starting at `from_pos`, charging reads,
    /// and returns the position of the first element matching `probe` whose
    /// sequence number is `< seq_limit` (or any, if `None`), along with the
    /// number of entries inspected.
    pub(crate) fn find<S: AccessSink>(
        &self,
        probe: &E::Probe,
        seq_limit: Option<u64>,
        sink: &mut S,
    ) -> (Option<usize>, u32) {
        let packed = probe.packed();
        let mut depth = 0;
        for (pos, (seq, e)) in self.items.iter().enumerate() {
            if let Some(limit) = seq_limit {
                if *seq >= limit {
                    // Everything after is newer than the limit; the caller's
                    // other channel owns the earlier match.
                    return (None, depth);
                }
            }
            sink.read(self.sim_base + pos as u64 * self.stride, self.stride as u32);
            depth += 1;
            if packed_matches(e.packed_key(), e.packed_mask(), &packed) {
                return (Some(pos), depth);
            }
        }
        (None, depth)
    }

    pub(crate) fn remove(&mut self, pos: usize) -> (u64, E) {
        self.items
            .remove(pos)
            // spc-allow(hot-path-panic): position comes from find() on the same structure
            .expect("SeqFifo::remove position out of range")
    }

    /// Removes the first element with the given id; returns it with its
    /// position.
    pub(crate) fn remove_by_id(&mut self, id: u64) -> Option<(u64, E)> {
        let pos = self.items.iter().position(|(_, e)| e.id() == id)?;
        self.items.remove(pos)
    }

    pub(crate) fn clear(&mut self) {
        self.items.clear();
    }

    pub(crate) fn bytes(&self) -> u64 {
        self.items.capacity() as u64 * self.stride
    }

    pub(crate) fn region(&self) -> (u64, u64) {
        (self.sim_base, self.items.len() as u64 * self.stride)
    }
}

/// Merge-searches two sequence-ordered channels (a concrete bin, when the
/// key has one, and the wildcard list), removing and returning the globally
/// earliest match.
///
/// This is the FIFO-correctness core of every binned structure: a message
/// must match the *earliest posted* receive that can accept it, whether that
/// receive lives in a per-source bin or on the wildcard channel.
pub(crate) fn merged_search_remove<E: Element, S: AccessSink>(
    bin: Option<&mut SeqFifo<E>>,
    wild: &mut SeqFifo<E>,
    probe: &E::Probe,
    sink: &mut S,
) -> Search<E> {
    let (bin_hit, d1) = match bin {
        Some(bin) => {
            let (hit, depth) = bin.find(probe, None, sink);
            (hit.map(|pos| (bin, pos)), depth)
        }
        None => (None, 0),
    };
    let bin_seq = bin_hit.as_ref().map(|(bin, pos)| {
        // spc-allow(hot-path-panic): position comes from find() on the same structure
        bin.iter().nth(*pos).expect("found position exists").0
    });
    // Only scan the wildcard channel up to the bin match's sequence number:
    // anything newer cannot win.
    let (wild_hit, d2) = wild.find(probe, bin_seq, sink);
    let depth = d1 + d2;
    match (bin_hit, wild_hit) {
        (_, Some(wp)) => {
            // A wildcard hit returned here is always older than the bin hit
            // (find() enforced the sequence limit).
            let (_, e) = wild.remove(wp);
            Search::hit(e, depth)
        }
        (Some((bin, bp)), None) => {
            let (_, e) = bin.remove(bp);
            Search::hit(e, depth)
        }
        (None, None) => Search::miss(depth),
    }
}

/// One row of the gather-scan worklist built by [`collect_metas`]: where an
/// element lives (`channel`, `pos`, simulated `addr`/`len`) plus the element
/// itself by value, so [`global_search`] tests it without re-walking the
/// source channel per inspection.
pub(crate) struct ChanMeta<E> {
    pub(crate) seq: u64,
    pub(crate) channel: usize,
    pub(crate) pos: usize,
    pub(crate) addr: u64,
    pub(crate) len: u32,
    pub(crate) entry: E,
}

/// Gather-searches many sequence-ordered channels in *global* FIFO order
/// (used when a probe wildcards the source and every bin must be
/// considered): the caller collects a [`ChanMeta`] row for every stored
/// element via [`collect_metas`], then this inspects them in global
/// sequence order with the packed one-`u64` match test. This models the
/// real cost — a wildcard receive against a binned structure degenerates to
/// a full scan (the simulated reads still charge each element's home
/// channel address; only the native-side per-inspection channel re-walk,
/// which was O(n) per element, is gone).
pub(crate) fn global_search<E: Element, S: AccessSink>(
    metas: &mut [ChanMeta<E>],
    probe: &E::Probe,
    sink: &mut S,
) -> (Option<(usize, usize)>, u32) {
    metas.sort_unstable_by_key(|m| m.seq);
    let packed = probe.packed();
    let mut depth = 0;
    for m in metas.iter() {
        sink.read(m.addr, m.len);
        depth += 1;
        if packed_matches(m.entry.packed_key(), m.entry.packed_mask(), &packed) {
            return (Some((m.channel, m.pos)), depth);
        }
    }
    (None, depth)
}

/// Collects the [`ChanMeta`] rows that [`global_search`] consumes.
pub(crate) fn collect_metas<'a, E: Element>(
    channels: impl Iterator<Item = &'a SeqFifo<E>>,
) -> Vec<ChanMeta<E>> {
    let mut all = Vec::new();
    for (ci, ch) in channels.enumerate() {
        for (pos, (seq, e)) in ch.iter().enumerate() {
            // spc-allow(hot-path-alloc): wildcard gather-scan worklist, sized by live entries
            all.push(ChanMeta {
                seq: *seq,
                channel: ci,
                pos,
                addr: ch.sim_base + pos as u64 * ch.stride,
                len: ch.stride as u32,
                entry: *e,
            });
        }
    }
    all
}
