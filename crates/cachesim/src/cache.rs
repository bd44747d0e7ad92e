//! A set-associative, true-LRU cache level.

use core::ops::Range;

use crate::config::CacheConfig;

/// Cache line size in bytes (all modelled architectures use 64).
pub const LINE: usize = 64;

/// One cache level: `sets × ways` slots of `[tag, stamp]`.
pub struct CacheLevel {
    cfg: CacheConfig,
    sets: usize,
    /// The tag is the full line address, the stamp its LRU recency (larger
    /// is more recent). A slot is resident iff `stamp > floor` — the one
    /// liveness predicate, so construction is a zeroed allocation,
    /// `invalidate` writes stamp 0 and `flush` is O(1).
    slots: Vec<[u64; 2]>,
    /// Stamps at or below this are flushed.
    floor: u64,
    /// Largest stamp this level has been handed.
    top: u64,
    /// The two slots stamped last, newest first: where
    /// [`CacheLevel::hit`] looks first.
    recent: [usize; 2],
    /// Hits observed.
    pub hits: u64,
    /// Misses observed.
    pub misses: u64,
}

impl CacheLevel {
    /// Builds an empty level from its geometry.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.ways > 0, "cache must have at least one way");
        let sets = cfg.sets();
        assert!(sets > 0, "cache must have at least one set");
        Self {
            cfg,
            sets,
            slots: vec![[0; 2]; sets * cfg.ways],
            floor: 0,
            top: 0,
            recent: [0; 2],
            hits: 0,
            misses: 0,
        }
    }

    /// Geometry this level was built with.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// The one set scan, restricted to the given way subrange (the
    /// primitive behind CAT-style way partitioning): `Ok(slot)` holds
    /// `line`; `Err(slot)` is where an insert would put it — the first
    /// non-resident way in scan order, else the least recently stamped.
    #[inline]
    pub(crate) fn find(&self, line: u64, ways: Range<usize>) -> Result<usize, usize> {
        debug_assert!(ways.start < ways.end && ways.end <= self.cfg.ways);
        // Mask when the set count is a power of two; real LLCs (e.g.
        // Broadwell's 45 MiB, 20-way) are not, and take the modulo.
        let mask = self.sets - 1;
        let set = if self.sets & mask == 0 {
            line as usize & mask
        } else {
            line as usize % self.sets
        };
        let start = set * self.cfg.ways + ways.start;
        let (mut victim, mut oldest) = (start, u64::MAX);
        for (i, &[tag, stamp]) in self.slots[start..start + ways.len()].iter().enumerate() {
            if stamp > self.floor {
                if tag == line {
                    return Ok(start + i);
                }
                if stamp < oldest {
                    (victim, oldest) = (start + i, stamp);
                }
            } else if oldest > self.floor {
                // An empty way beats every resident one; the first stays.
                (victim, oldest) = (start + i, self.floor);
            }
        }
        Err(victim)
    }

    /// Makes `slot` hold `line`, most recent at `now`; returns the resident
    /// line this displaced.
    #[inline]
    pub(crate) fn stamp(&mut self, slot: usize, line: u64, now: u64) -> Option<u64> {
        debug_assert!(now > self.floor, "stamp {now} is already flushed");
        let [tag, was] = core::mem::replace(&mut self.slots[slot], [line, now]);
        self.top = self.top.max(now);
        if slot != self.recent[0] {
            self.recent = [slot, self.recent[0]];
        }
        (was > self.floor && tag != line).then_some(tag)
    }

    /// A demand lookup that only answers hits: the two slots stamped last
    /// are tried before the scan (a walk charges a node's line several
    /// times, then usually the line the L1 prefetcher fetched beside it).
    /// On a miss nothing moves, counters included: the caller's full path
    /// looks again and counts it.
    #[inline]
    pub(crate) fn hit(&mut self, line: u64, now: u64) -> bool {
        let live = |[tag, stamp]: [u64; 2]| tag == line && stamp > self.floor;
        let slot = if live(self.slots[self.recent[0]]) {
            self.recent[0]
        } else if live(self.slots[self.recent[1]]) {
            self.recent[1]
        } else if let Ok(slot) = self.find(line, 0..self.cfg.ways) {
            slot
        } else {
            return false;
        };
        self.stamp(slot, line, now);
        self.hits += 1;
        true
    }

    /// A demand lookup that fills on a miss, in one scan; returns whether
    /// it hit.
    pub(crate) fn fetch(&mut self, line: u64, now: u64, ways: Range<usize>) -> bool {
        let found = self.find(line, ways);
        let (Ok(slot) | Err(slot)) = found;
        self.stamp(slot, line, now);
        self.hits += found.is_ok() as u64;
        self.misses += found.is_err() as u64;
        found.is_ok()
    }

    /// Looks up `line`, refreshing its recency on a hit. `now` is a
    /// monotonically increasing stamp supplied by the hierarchy.
    pub fn lookup(&mut self, line: u64, now: u64) -> bool {
        self.lookup_ways(line, now, 0..self.cfg.ways)
    }

    /// Way-partitioned lookup: only the given ways of the set are searched.
    pub fn lookup_ways(&mut self, line: u64, now: u64, ways: Range<usize>) -> bool {
        let hit = self.refresh(line, now, ways);
        self.hits += hit as u64;
        self.misses += !hit as u64;
        hit
    }

    /// Whether `line` is resident, without touching recency or counters.
    pub fn contains(&self, line: u64) -> bool {
        self.find(line, 0..self.cfg.ways).is_ok()
    }

    /// Inserts `line` (evicting the set's LRU victim if needed) and returns
    /// the evicted line, if any. Inserting a resident line just refreshes
    /// its recency.
    pub fn insert(&mut self, line: u64, now: u64) -> Option<u64> {
        self.insert_ways(line, now, 0..self.cfg.ways)
    }

    /// Way-partitioned insert: the victim is chosen from the given ways
    /// only, so lines outside the partition are never displaced.
    pub fn insert_ways(&mut self, line: u64, now: u64, ways: Range<usize>) -> Option<u64> {
        let (Ok(slot) | Err(slot)) = self.find(line, ways);
        self.stamp(slot, line, now)
    }

    /// Refreshes `line`'s recency if resident (the heater's effect on the
    /// eviction metadata); returns whether it was resident.
    pub fn touch(&mut self, line: u64, now: u64) -> bool {
        self.refresh(line, now, 0..self.cfg.ways)
    }

    /// `touch` within the given ways.
    fn refresh(&mut self, line: u64, now: u64, ways: Range<usize>) -> bool {
        let found = self.find(line, ways);
        if let Ok(slot) = found {
            self.stamp(slot, line, now);
        }
        found.is_ok()
    }

    /// Removes `line` if resident.
    pub fn invalidate(&mut self, line: u64) {
        if let Ok(slot) = self.find(line, 0..self.cfg.ways) {
            self.slots[slot][1] = 0;
        }
    }

    /// Empties the level (the paper's "cleared the cache between each
    /// iteration" benchmark modification): every stamp handed out so far
    /// falls to the floor.
    pub fn flush(&mut self) {
        self.floor = self.top;
    }

    /// Number of resident lines (test/diagnostic helper).
    pub fn resident(&self) -> usize {
        self.slots.iter().filter(|s| s[1] > self.floor).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheLevel {
        // 4 sets × 2 ways of 64 B lines = 512 B.
        CacheLevel::new(CacheConfig {
            size: 512,
            ways: 2,
            latency: 1,
        })
    }

    #[test]
    fn hit_after_insert() {
        let mut c = tiny();
        assert!(!c.lookup(7, 1));
        c.insert(7, 2);
        assert!(c.lookup(7, 3));
        assert_eq!(c.hits, 1);
        assert_eq!(c.misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent_within_set() {
        let mut c = tiny();
        // Lines 0, 4, 8 all map to set 0 (4 sets).
        c.insert(0, 1);
        c.insert(4, 2);
        assert!(c.lookup(0, 3)); // 0 now more recent than 4
        let evicted = c.insert(8, 4);
        assert_eq!(evicted, Some(4));
        assert!(c.contains(0));
        assert!(c.contains(8));
        assert!(!c.contains(4));
    }

    #[test]
    fn touch_refreshes_recency_like_a_heater() {
        let mut c = tiny();
        c.insert(0, 1);
        c.insert(4, 2);
        // Heater keeps touching line 0...
        assert!(c.touch(0, 3));
        // ...so the *newer* line 4 is the LRU victim.
        assert_eq!(c.insert(8, 4), Some(4));
        assert!(c.contains(0), "heated line survives");
    }

    #[test]
    fn touch_of_absent_line_reports_false() {
        let mut c = tiny();
        assert!(!c.touch(99, 1));
    }

    #[test]
    fn insert_is_idempotent_for_resident_lines() {
        let mut c = tiny();
        c.insert(0, 1);
        assert_eq!(c.insert(0, 2), None);
        assert_eq!(c.resident(), 1);
    }

    #[test]
    fn different_sets_do_not_interfere() {
        let mut c = tiny();
        for line in 0..4 {
            c.insert(line, line + 1);
        }
        assert_eq!(c.resident(), 4);
        for line in 0..4 {
            assert!(c.contains(line));
        }
    }

    #[test]
    fn flush_and_invalidate() {
        let mut c = tiny();
        c.insert(1, 1);
        c.insert(2, 2);
        c.invalidate(1);
        assert!(!c.contains(1));
        assert!(c.contains(2));
        c.flush();
        assert_eq!(c.resident(), 0);
    }

    #[test]
    fn empty_ways_fill_before_eviction() {
        let mut c = tiny();
        assert_eq!(c.insert(0, 5), None);
        assert_eq!(c.insert(4, 1), None, "second way is free; nothing evicted");
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_ways_dies_on_the_constructors_own_assert() {
        CacheLevel::new(CacheConfig {
            size: 512,
            ways: 0,
            latency: 1,
        });
    }

    /// A flush raises the floor instead of sweeping the slots: flushed
    /// lines answer as absent everywhere, flushed ways are taken first and
    /// in scan order (exactly as swept-empty ways were), and a flushed
    /// line's old tag is never reported as an eviction.
    #[test]
    fn flushed_ways_behave_as_empty_ways() {
        let mut c = tiny();
        c.insert(0, 1);
        c.insert(4, 2);
        c.flush();
        assert!(!c.contains(0) && !c.lookup(4, 3) && !c.touch(0, 3));
        c.invalidate(0);
        assert_eq!(c.resident(), 0);
        // Way 0 first, though way 1 holds the older flushed stamp's peer.
        assert_eq!(c.insert(8, 4), None);
        assert_eq!(c.insert(12, 5), None);
        assert_eq!(c.resident(), 2);
        // Both ways live again: plain LRU resumes, line 8 is the victim.
        assert_eq!(c.insert(0, 6), Some(8));
        // A line re-inserted after a flush lives once, whatever its stale
        // copy's way.
        c.flush();
        c.insert(12, 7);
        c.invalidate(12);
        assert!(!c.contains(12));
    }

    #[test]
    fn flush_after_out_of_order_stamps_clears_the_largest() {
        let mut c = tiny();
        c.insert(0, 9);
        c.insert(4, 2);
        c.flush();
        assert_eq!(
            c.resident(),
            0,
            "floor is the largest stamp seen, not the last"
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "already flushed")]
    fn a_stamp_at_or_below_the_floor_is_refused() {
        let mut c = tiny();
        c.insert(0, 5);
        c.flush();
        c.insert(4, 5);
    }
}

#[cfg(test)]
mod partition_tests {
    use super::*;

    fn tiny() -> CacheLevel {
        // 4 sets × 4 ways.
        CacheLevel::new(CacheConfig {
            size: 1024,
            ways: 4,
            latency: 1,
        })
    }

    #[test]
    fn partitioned_inserts_never_evict_the_other_partition() {
        let mut c = tiny();
        // "Network" partition: ways 0..2. Fill it for set 0.
        c.insert_ways(0, 1, 0..2);
        c.insert_ways(4, 2, 0..2);
        // "Compute" traffic floods ways 2..4 of the same set.
        for (i, line) in [8u64, 12, 16, 20, 24, 28].iter().enumerate() {
            c.insert_ways(*line, 10 + i as u64, 2..4);
        }
        assert!(c.contains(0), "network line survived compute flood");
        assert!(c.contains(4), "network line survived compute flood");
        // And the flood did evict within its own partition.
        assert!(!c.contains(8));
    }

    #[test]
    fn partitioned_lookup_only_sees_its_ways() {
        let mut c = tiny();
        c.insert_ways(0, 1, 0..2);
        assert!(c.lookup_ways(0, 2, 0..2));
        assert!(!c.lookup_ways(0, 3, 2..4), "other partition must not hit");
        assert!(c.contains(0));
    }

    #[test]
    fn partition_evictions_stay_inside_the_partition() {
        let mut c = tiny();
        c.insert_ways(0, 1, 0..2);
        c.insert_ways(4, 2, 0..2);
        // Third network line in a 2-way partition: evicts the partition's
        // LRU (line 0), not anything else.
        let evicted = c.insert_ways(8, 3, 0..2);
        assert_eq!(evicted, Some(0));
        assert!(c.contains(4) && c.contains(8));
    }
}
