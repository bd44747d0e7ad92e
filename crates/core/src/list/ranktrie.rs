//! Zounmevo/Afsahi-style 4-dimensional rank decomposition (§5, reference 28 in the
//! paper).
//!
//! The source rank is decomposed into four digits; each digit indexes a
//! lazily-allocated table level, and the leaf holds the short per-rank FIFO.
//! Regions of the rank space with no posted entries are skipped in O(1),
//! which is the structure's whole point — speed *and* memory scale with the
//! number of communicating peers rather than the communicator size.
//!
//! Wildcard entries live on a separate channel ordered by global sequence
//! numbers, exactly as in [`crate::list::SourceBins`]: both are
//! [`Partitioned`], and this module is the routing rule.

use crate::addr::fresh_region_base;
use crate::entry::Element;
use crate::list::partitioned::{Partitioned, Route, RouteKey, Router, CHANNEL_REGION};
use crate::list::Footprint;
use crate::sink::AccessSink;

/// "No child" marker in trie tables.
const NONE: u32 = u32::MAX;

/// Routes a key down four table levels, one per digit of its source rank.
#[derive(Clone, Debug)]
pub struct RankDigits {
    /// Width of each of the four digits.
    width: u32,
    /// Every table of the trie, the root first. An entry of a level-1–3
    /// table indexes its child table; a level-4 entry is the leaf channel.
    tables: Vec<Vec<u32>>,
    /// Simulated base for trie tables (charged one read per level hop).
    table_base: u64,
}

/// Four-level rank-decomposed match queue.
pub type RankTrie<E> = Partitioned<E, RankDigits>;

impl<E: Element> RankTrie<E> {
    /// Creates a trie able to hold ranks `0..capacity`, decomposed into four
    /// near-equal digits.
    pub fn new(capacity: usize) -> Self {
        assert!(
            capacity <= 1 << 16,
            "the trie keys on the entry's 16-bit rank field; larger \
             communicators would alias leaves"
        );
        let capacity = capacity.max(1) as u64;
        // Smallest d with d^4 >= capacity.
        let mut d = 1u32;
        while (d as u64).pow(4) < capacity {
            d += 1;
        }
        let base = fresh_region_base();
        let router = RankDigits {
            width: d,
            tables: vec![vec![NONE; d as usize]],
            table_base: base + CHANNEL_REGION,
        };
        // Leaves are created on first touch, above the wildcard channel
        // and the tables.
        Self::with_layout(router, 0, base + 2 * CHANNEL_REGION, base)
    }
}

impl RankDigits {
    /// Decomposes a rank into its four digits, most significant first (the
    /// first is unbounded: a rank past the capacity indexes past the root).
    fn digits(&self, rank: u32) -> [usize; 4] {
        let d = self.width;
        let (d2, d3) = (d * d, d * d * d);
        [rank / d3, rank / d2 % d, rank / d % d, rank % d].map(|i| i as usize)
    }
}

impl Router for RankDigits {
    /// Walks to the leaf for the key's rank, charging one table read per
    /// level.
    #[inline]
    fn route<S: AccessSink>(&self, key: RouteKey, _nleaves: usize, sink: &mut S) -> Route {
        let Some(rank) = key.source else {
            return Route::All;
        };
        let mut at = 0;
        for (level, digit) in self.digits(rank.into()).into_iter().enumerate() {
            let table = self.table_base + level as u64 * 0x1000;
            sink.read(table + digit as u64 * 4, 4);
            match self.tables[at].get(digit) {
                Some(&child) if child != NONE => at = child as usize,
                // No per-rank entries: only the wildcard channel can
                // match. This is the structure's O(1) skip.
                _ => return Route::WildOnly,
            }
        }
        Route::Channel(at)
    }

    /// Walks to the leaf for the key's rank, creating missing levels.
    #[inline]
    fn place<S: AccessSink>(
        &mut self,
        key: RouteKey,
        nleaves: usize,
        sink: &mut S,
    ) -> Option<usize> {
        let rank = key.source?;
        let digits = self.digits(rank.into());
        sink.read(self.table_base + digits[0] as u64 * 4, 4);
        assert!(
            digits[0] < self.tables[0].len(),
            "rank {rank} exceeds trie capacity"
        );
        let mut at = 0;
        for (level, digit) in digits.into_iter().enumerate() {
            if self.tables[at][digit] == NONE {
                // A last-level entry names the new leaf channel, any other
                // a new child table.
                let child = if level == 3 {
                    nleaves
                } else {
                    // spc-allow(hot-path-alloc): first-touch level creation, amortized once per rank
                    self.tables.push(vec![NONE; self.width as usize]);
                    self.tables.len() - 1
                };
                self.tables[at][digit] = child as u32;
            }
            at = self.tables[at][digit] as usize;
        }
        Some(at)
    }

    fn table<E: Element>(&self, _nleaves: usize) -> Footprint {
        Footprint {
            bytes: self.tables.iter().map(Vec::len).sum::<usize>() as u64 * 4,
            allocations: self.tables.len() as u64 - 1,
        }
    }

    fn kind_name(&self, _nleaves: usize) -> String {
        format!("rank-trie({}^4)", self.width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{Envelope, PostedEntry, RecvSpec, ANY_SOURCE};
    use crate::list::MatchList;
    use crate::sink::{CountingSink, NullSink};

    fn post(rank: i32, tag: i32, req: u64) -> PostedEntry {
        PostedEntry::from_spec(RecvSpec::new(rank, tag, 0), req)
    }

    #[test]
    fn digit_decomposition_is_a_bijection() {
        let t: RankTrie<PostedEntry> = RankTrie::new(10_000);
        let mut seen = std::collections::HashSet::new();
        for rank in 0..10_000u32 {
            assert!(
                seen.insert(t.router.digits(rank)),
                "digits collide for rank {rank}"
            );
        }
    }

    #[test]
    fn sparse_ranks_keep_memory_small() {
        let mut t: RankTrie<PostedEntry> = RankTrie::new(1 << 16);
        let mut s = NullSink;
        // Only 3 peers out of a 64Ki-rank capacity.
        for (i, r) in [5, 40_000, 65_535].iter().enumerate() {
            t.append(post(*r, 0, i as u64), &mut s);
        }
        assert!(
            t.footprint().bytes < 8 * 1024,
            "footprint {} too big",
            t.footprint().bytes
        );
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn search_hits_the_right_leaf_in_constant_depth() {
        let mut t: RankTrie<PostedEntry> = RankTrie::new(65_536);
        let mut s = NullSink;
        for r in 0..256 {
            t.append(post(r, 0, r as u64), &mut s);
        }
        let res = t.search_remove(&Envelope::new(200, 0, 0), &mut s);
        assert_eq!(res.found.unwrap().request, 200);
        assert_eq!(res.depth, 1, "per-rank leaf holds exactly one entry");
    }

    #[test]
    fn miss_on_unpopulated_rank_skips_everything() {
        let mut t: RankTrie<PostedEntry> = RankTrie::new(65_536);
        let mut s = NullSink;
        for r in 0..100 {
            t.append(post(r, 0, r as u64), &mut s);
        }
        let mut c = CountingSink::new();
        let res = t.search_remove(&Envelope::new(60_000, 0, 0), &mut c);
        assert!(res.found.is_none());
        assert_eq!(res.depth, 0, "no entries are inspected for an empty region");
        assert!(c.reads <= 4, "at most the four table hops are read");
    }

    #[test]
    fn wildcard_ordering_against_leaves() {
        let mut t: RankTrie<PostedEntry> = RankTrie::new(1024);
        let mut s = NullSink;
        t.append(
            PostedEntry::from_spec(RecvSpec::new(ANY_SOURCE, 5, 0), 1),
            &mut s,
        );
        t.append(post(9, 5, 2), &mut s);
        let r = t.search_remove(&Envelope::new(9, 5, 0), &mut s);
        assert_eq!(r.found.unwrap().request, 1, "earlier wildcard wins");
        let r = t.search_remove(&Envelope::new(9, 5, 0), &mut s);
        assert_eq!(r.found.unwrap().request, 2);
        assert!(t.is_empty());
    }

    #[test]
    fn snapshot_global_order_and_cancel() {
        let mut t: RankTrie<PostedEntry> = RankTrie::new(1024);
        let mut s = NullSink;
        for (i, r) in [500, 2, 2, 900].iter().enumerate() {
            t.append(post(*r, i as i32, i as u64), &mut s);
        }
        assert_eq!(
            t.snapshot().iter().map(|e| e.request).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        assert_eq!(t.remove_by_id(2, &mut s).unwrap().request, 2);
        assert_eq!(t.len(), 3);
        t.clear();
        assert!(t.is_empty());
    }
}
