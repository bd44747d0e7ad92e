//! Flajslik-style hash-map matching (§5, reference 13 in the paper).
//!
//! The match list is replaced by a fixed number of bins keyed by a hash of
//! the *full* matching criteria (context, source, tag). Entries containing a
//! wildcard cannot be hashed and live on a separate wildcard channel; global
//! sequence numbers arbitrate FIFO order between a bin and that channel
//! ([`Partitioned`]; this module is the routing rule).
//!
//! As the paper notes, this design "has a constant overhead in queue
//! selection, which slows down the most common case of a very short list
//! traversal" — the hash computation and extra indirection are charged as an
//! extra simulated access on every operation.

use crate::addr::fresh_region_base;
use crate::entry::Element;
use crate::list::partitioned::{Partitioned, Route, RouteKey, Router, CHANNEL_REGION};
use crate::list::Footprint;
use crate::sink::AccessSink;

/// Default bin count: the configuration the paper's related work found
/// effective ("256 bins reduce the number of match attempts per message
/// significantly").
pub const DEFAULT_BINS: usize = 256;

/// Routes a fully concrete key to the bin its hash names.
#[derive(Clone, Copy, Debug)]
pub struct ByHash {
    /// Simulated address of the bin-pointer table (charged on every lookup).
    table_base: u64,
}

/// Hash-binned match queue keyed on (context, rank, tag).
pub type HashBins<E> = Partitioned<E, ByHash>;

/// `rank` is wider than the 16-bit ranks [`ByHash`] passes so the router-law
/// test in `partitioned.rs` can replay the un-normalised derivation it
/// replaced.
pub(super) fn hash_key(ctx: u16, rank: u32, tag: i32) -> u64 {
    // SplitMix64 finalizer over the packed key: cheap and well-distributed
    // for the clustered rank/tag values MPI applications use.
    let mut z = ((ctx as u64) << 48) ^ ((rank as u64) << 24) ^ (tag as u32 as u64);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl<E: Element> HashBins<E> {
    /// Creates the structure with [`DEFAULT_BINS`] bins.
    pub fn new() -> Self {
        Self::with_bins(DEFAULT_BINS)
    }

    /// Creates the structure with `nbins` bins (must be non-zero).
    pub fn with_bins(nbins: usize) -> Self {
        assert!(nbins > 0, "hash matching needs at least one bin");
        let base = fresh_region_base();
        let wild_base = base + nbins as u64 * CHANNEL_REGION;
        let router = ByHash {
            table_base: wild_base + CHANNEL_REGION,
        };
        Self::with_layout(router, nbins, base, wild_base)
    }

    /// Number of hash bins.
    pub fn nbins(&self) -> usize {
        self.nchannels()
    }
}

impl<E: Element> Default for HashBins<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl Router for ByHash {
    #[inline]
    fn route<S: AccessSink>(&self, key: RouteKey, nbins: usize, sink: &mut S) -> Route {
        // A key with a wildcard cannot be hashed: global scan in seq order.
        let Some((ctx, rank, tag)) = key.full else {
            return Route::All;
        };
        let bin = (hash_key(ctx, rank.into(), tag) % nbins as u64) as usize;
        // The constant-time queue-selection overhead: one read of the bin
        // table entry.
        sink.read(self.table_base + bin as u64 * 8, 8);
        Route::Channel(bin)
    }

    fn table<E: Element>(&self, nbins: usize) -> Footprint {
        Footprint {
            bytes: (nbins * 8) as u64,
            allocations: 0,
        }
    }

    fn kind_name(&self, nbins: usize) -> String {
        format!("hash-bins({nbins})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{Envelope, PostedEntry, RecvSpec, UnexpectedEntry, ANY_SOURCE, ANY_TAG};
    use crate::list::MatchList;
    use crate::sink::{CountingSink, NullSink};

    fn post(rank: i32, tag: i32, req: u64) -> PostedEntry {
        PostedEntry::from_spec(RecvSpec::new(rank, tag, 0), req)
    }

    #[test]
    fn hashing_avoids_scanning_unrelated_entries() {
        let mut l: HashBins<PostedEntry> = HashBins::new();
        let mut s = NullSink;
        for i in 0..1000 {
            l.append(post(i % 32, i, i as u64), &mut s);
        }
        // Entry i=975 was appended as (rank 975 % 32 = 15, tag 975).
        let r = l.search_remove(&Envelope::new(15, 975, 0), &mut s);
        assert!(r.found.is_some());
        assert!(
            r.depth <= 16,
            "hash bin holds ~1000/256 entries on average, depth was {}",
            r.depth
        );
    }

    #[test]
    fn fifo_between_bin_and_wildcard_channel() {
        let mut l: HashBins<PostedEntry> = HashBins::new();
        let mut s = NullSink;
        l.append(post(2, 5, 1), &mut s);
        l.append(
            PostedEntry::from_spec(RecvSpec::new(2, ANY_TAG, 0), 2),
            &mut s,
        );
        l.append(post(2, 5, 3), &mut s);
        // (2,5) arrivals must match in post order 1, 2, 3.
        let mut got = Vec::new();
        for _ in 0..3 {
            got.push(
                l.search_remove(&Envelope::new(2, 5, 0), &mut s)
                    .found
                    .unwrap()
                    .request,
            );
        }
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn wildcard_probe_scans_in_arrival_order() {
        let mut l: HashBins<UnexpectedEntry> = HashBins::new();
        let mut s = NullSink;
        for (i, (src, tag)) in [(4, 9), (2, 9), (4, 1)].iter().enumerate() {
            l.append(
                UnexpectedEntry::from_envelope(Envelope::new(*src, *tag, 0), i as u64),
                &mut s,
            );
        }
        let r = l.search_remove(&RecvSpec::new(ANY_SOURCE, 9, 0), &mut s);
        assert_eq!(r.found.unwrap().payload, 0);
        let r = l.search_remove(&RecvSpec::new(4, ANY_TAG, 0), &mut s);
        assert_eq!(r.found.unwrap().payload, 2);
    }

    #[test]
    fn queue_selection_charges_constant_overhead() {
        let mut l: HashBins<PostedEntry> = HashBins::new();
        let mut s = NullSink;
        l.append(post(1, 1, 1), &mut s);
        let mut c = CountingSink::new();
        let r = l.search_remove(&Envelope::new(1, 1, 0), &mut c);
        assert!(r.found.is_some());
        // At least two reads even for a 1-element queue: table + entry —
        // the paper's "slows down the most common case" point.
        assert!(c.reads >= 2);
    }

    #[test]
    fn snapshot_and_len_agree_after_mixed_ops() {
        let mut l: HashBins<PostedEntry> = HashBins::with_bins(4);
        let mut s = NullSink;
        for i in 0..20 {
            l.append(post(i, i, i as u64), &mut s);
        }
        for i in (0..20).step_by(3) {
            l.search_remove(&Envelope::new(i, i, 0), &mut s);
        }
        assert_eq!(l.snapshot().len(), l.len());
        let snap = l.snapshot();
        assert!(
            snap.windows(2).all(|w| w[0].request < w[1].request),
            "FIFO order kept"
        );
    }

    #[test]
    fn remove_by_id_and_clear() {
        let mut l: HashBins<PostedEntry> = HashBins::with_bins(8);
        let mut s = NullSink;
        l.append(post(1, 2, 77), &mut s);
        l.append(
            PostedEntry::from_spec(RecvSpec::new(ANY_SOURCE, 2, 0), 78),
            &mut s,
        );
        assert_eq!(l.remove_by_id(78, &mut s).unwrap().request, 78);
        assert_eq!(l.len(), 1);
        l.clear();
        assert!(l.is_empty());
    }
}
