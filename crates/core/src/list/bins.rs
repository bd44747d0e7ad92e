//! Open MPI-style hierarchical match structure (§2.2).
//!
//! One short FIFO per source rank gives O(1) access to the only entries a
//! concrete-source message can match, at the cost of O(ranks) memory per
//! communicator per process — the paper's scalability criticism (O(N²)
//! job-wide). Wildcard (`MPI_ANY_SOURCE`) receives live on a separate
//! channel; global sequence numbers arbitrate FIFO order between a bin and
//! the wildcard channel, preserving MPI non-overtaking — all of which is
//! [`Partitioned`]; this module is the routing rule.

use crate::addr::fresh_region_base;
use crate::entry::Element;
use crate::list::partitioned::{Partitioned, Route, RouteKey, Router, CHANNEL_REGION};
use crate::list::{Footprint, SeqFifo};
use crate::sink::AccessSink;

/// Routes a key to the bin of its source rank.
#[derive(Clone, Copy, Debug)]
pub struct BySource;

/// Per-source-rank binned match queue (Open MPI style).
pub type SourceBins<E> = Partitioned<E, BySource>;

impl<E: Element> SourceBins<E> {
    /// Creates the structure for a communicator of `comm_size` ranks. The
    /// bin array is allocated eagerly, as Open MPI does — this is exactly
    /// the O(ranks) cost [`crate::list::MatchList::footprint`] reports.
    pub fn new(comm_size: usize) -> Self {
        assert!(
            comm_size <= 1 << 16,
            "per-source bins key on the entry's 16-bit rank field; larger \
             communicators would alias bins"
        );
        let base = fresh_region_base();
        let wild_base = base + comm_size as u64 * CHANNEL_REGION;
        Self::with_layout(BySource, comm_size, base, wild_base)
    }

    /// Number of source bins (the communicator size).
    pub fn comm_size(&self) -> usize {
        self.nchannels()
    }
}

impl Router for BySource {
    #[inline]
    fn route<S: AccessSink>(&self, key: RouteKey, nbins: usize, _sink: &mut S) -> Route {
        // A wildcard-source probe degenerates to the global scan.
        let Some(src) = key.source.map(usize::from) else {
            return Route::All;
        };
        assert!(src < nbins, "rank {src} outside communicator");
        Route::Channel(src)
    }

    fn table<E: Element>(&self, nbins: usize) -> Footprint {
        // The bin array itself is the O(ranks) term.
        Footprint {
            bytes: (nbins * core::mem::size_of::<SeqFifo<E>>()) as u64,
            allocations: 0,
        }
    }

    fn kind_name(&self, nbins: usize) -> String {
        format!("source-bins({nbins})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{Envelope, PostedEntry, RecvSpec, UnexpectedEntry, ANY_SOURCE, ANY_TAG};
    use crate::list::MatchList;
    use crate::sink::NullSink;

    fn post(rank: i32, tag: i32, req: u64) -> PostedEntry {
        PostedEntry::from_spec(RecvSpec::new(rank, tag, 0), req)
    }

    #[test]
    fn concrete_search_is_depth_one_regardless_of_other_sources() {
        let mut l: SourceBins<PostedEntry> = SourceBins::new(64);
        let mut s = NullSink;
        // 63 entries from other ranks...
        for r in 1..64 {
            l.append(post(r, 0, r as u64), &mut s);
        }
        // ...then the one we want.
        l.append(post(0, 0, 999), &mut s);
        let r = l.search_remove(&Envelope::new(0, 0, 0), &mut s);
        assert_eq!(r.found.unwrap().request, 999);
        assert_eq!(r.depth, 1, "O(1) bin access: only rank 0's bin is scanned");
    }

    #[test]
    fn wildcard_posted_before_concrete_wins() {
        let mut l: SourceBins<PostedEntry> = SourceBins::new(8);
        let mut s = NullSink;
        l.append(
            PostedEntry::from_spec(RecvSpec::new(ANY_SOURCE, 5, 0), 1),
            &mut s,
        );
        l.append(post(2, 5, 2), &mut s);
        let r = l.search_remove(&Envelope::new(2, 5, 0), &mut s);
        assert_eq!(
            r.found.unwrap().request,
            1,
            "wildcard has the earlier sequence number"
        );
        let r = l.search_remove(&Envelope::new(2, 5, 0), &mut s);
        assert_eq!(r.found.unwrap().request, 2);
    }

    #[test]
    fn concrete_posted_before_wildcard_wins() {
        let mut l: SourceBins<PostedEntry> = SourceBins::new(8);
        let mut s = NullSink;
        l.append(post(2, 5, 1), &mut s);
        l.append(
            PostedEntry::from_spec(RecvSpec::new(ANY_SOURCE, 5, 0), 2),
            &mut s,
        );
        let r = l.search_remove(&Envelope::new(2, 5, 0), &mut s);
        assert_eq!(r.found.unwrap().request, 1);
    }

    #[test]
    fn any_source_probe_scans_in_global_fifo_order() {
        let mut l: SourceBins<UnexpectedEntry> = SourceBins::new(8);
        let mut s = NullSink;
        // Unexpected messages from several sources with the same tag.
        for (i, src) in [3, 1, 7, 1].iter().enumerate() {
            l.append(
                UnexpectedEntry::from_envelope(Envelope::new(*src, 9, 0), i as u64),
                &mut s,
            );
        }
        // ANY_SOURCE receive must take the earliest *arrived*, not bin 1
        // first.
        let r = l.search_remove(&RecvSpec::new(ANY_SOURCE, 9, 0), &mut s);
        assert_eq!(
            r.found.unwrap().payload,
            0,
            "message from rank 3 arrived first"
        );
        let r = l.search_remove(&RecvSpec::new(ANY_SOURCE, ANY_TAG, 0), &mut s);
        assert_eq!(r.found.unwrap().payload, 1);
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn footprint_scales_with_communicator_size() {
        let small: SourceBins<PostedEntry> = SourceBins::new(16);
        let large: SourceBins<PostedEntry> = SourceBins::new(4096);
        assert!(
            large.footprint().bytes >= 200 * small.footprint().bytes,
            "O(ranks) bin array dominates: {} vs {}",
            large.footprint().bytes,
            small.footprint().bytes
        );
    }

    #[test]
    fn snapshot_is_global_fifo_order_and_clear_empties() {
        let mut l: SourceBins<PostedEntry> = SourceBins::new(4);
        let mut s = NullSink;
        l.append(post(3, 0, 0), &mut s);
        l.append(post(1, 0, 1), &mut s);
        l.append(
            PostedEntry::from_spec(RecvSpec::new(ANY_SOURCE, 0, 0), 2),
            &mut s,
        );
        l.append(post(1, 1, 3), &mut s);
        let snap: Vec<u64> = l.snapshot().iter().map(|e| e.request).collect();
        assert_eq!(snap, vec![0, 1, 2, 3]);
        l.clear();
        assert_eq!(l.len(), 0);
        assert!(l.snapshot().is_empty());
    }

    #[test]
    fn remove_by_id_works_across_channels() {
        let mut l: SourceBins<PostedEntry> = SourceBins::new(4);
        let mut s = NullSink;
        l.append(post(1, 0, 10), &mut s);
        l.append(
            PostedEntry::from_spec(RecvSpec::new(ANY_SOURCE, 0, 0), 11),
            &mut s,
        );
        assert_eq!(l.remove_by_id(11, &mut s).unwrap().request, 11);
        assert_eq!(l.remove_by_id(10, &mut s).unwrap().request, 10);
        assert!(l.remove_by_id(10, &mut s).is_none());
        assert_eq!(l.len(), 0);
    }
}
