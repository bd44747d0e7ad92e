//! Hardware-prefetcher models.
//!
//! The paper's spacial-locality analysis (§4.2) attributes the
//! 8-entries-per-array performance knee to the interplay of two L2 prefetch
//! units: a *spatial* unit that completes the 128-byte aligned pair of a
//! demanded line, and a *streamer* that follows ascending access sequences —
//! "in total we observe 4 cache line loads per load operation due to
//! prefetching; which at 2 entries per cache line equates to 8 items fetched
//! per load". The L1 DCU next-line prefetcher is modelled separately in the
//! hierarchy.

/// Lines per 4 KiB page (prefetchers do not cross page boundaries).
const PAGE_LINES: u64 = 64;
/// Tracked concurrent streams (Intel's streamer tracks up to 32; a handful
/// suffices for match-list traffic).
const STREAMS: usize = 16;
/// Demanded-in-sequence lines needed before the streamer issues prefetches.
const TRAIN_THRESHOLD: u8 = 2;

#[derive(Clone, Copy, Debug, Default)]
struct StreamSlot {
    page: u64,
    last_line: u64,
    hits: u8,
    lru: u64,
    valid: bool,
}

/// The ascending L2 streamer.
#[derive(Clone, Debug)]
pub struct Streamer {
    slots: [StreamSlot; STREAMS],
    degree: u32,
    clock: u64,
}

impl Streamer {
    /// Creates a streamer issuing `degree` lines ahead once trained.
    pub fn new(degree: u32) -> Self {
        Self {
            slots: [StreamSlot::default(); STREAMS],
            degree,
            clock: 0,
        }
    }

    /// Observes a demand access to `line`; returns the lines to prefetch
    /// (ascending, within the same page).
    pub fn observe(&mut self, line: u64) -> PrefetchSet {
        self.clock += 1;
        let page = line / PAGE_LINES;
        let mut out = PrefetchSet::default();
        if self.degree == 0 {
            return out;
        }
        // Find this page's stream.
        if let Some(slot) = self.slots.iter_mut().find(|s| s.valid && s.page == page) {
            slot.lru = self.clock;
            if line == slot.last_line + 1 {
                slot.hits = slot.hits.saturating_add(1);
                slot.last_line = line;
                if slot.hits >= TRAIN_THRESHOLD {
                    for d in 1..=self.degree as u64 {
                        // checked: a stream trained at the top of the line
                        // address space must not wrap to line 0.
                        let Some(target) = line.checked_add(d) else {
                            break;
                        };
                        if target / PAGE_LINES == page {
                            out.push(target);
                        }
                    }
                }
            } else if line != slot.last_line {
                // Non-sequential access within the page: retrain.
                slot.last_line = line;
                slot.hits = 0;
            }
            return out;
        }
        // Allocate the LRU slot for a new stream.
        let victim = self
            .slots
            .iter_mut()
            .min_by_key(|s| if s.valid { s.lru } else { 0 })
            .expect("STREAMS > 0");
        *victim = StreamSlot {
            page,
            last_line: line,
            hits: 0,
            lru: self.clock,
            valid: true,
        };
        out
    }

    /// Forgets all training state (e.g. after a cache flush).
    pub fn reset(&mut self) {
        self.slots = [StreamSlot::default(); STREAMS];
    }
}

/// Small fixed collection of prefetch targets (max streamer degree is
/// bounded; avoids per-access allocation).
#[derive(Clone, Copy, Debug, Default)]
pub struct PrefetchSet {
    lines: [u64; 8],
    n: usize,
}

impl PrefetchSet {
    fn push(&mut self, line: u64) {
        if self.n < self.lines.len() {
            self.lines[self.n] = line;
            self.n += 1;
        }
    }

    /// The prefetch targets.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.lines[..self.n].iter().copied()
    }

    /// Number of targets.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when no prefetches were issued.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }
}

/// The L2 spatial unit: completes the 128-byte aligned pair of `line`.
pub fn adjacent_pair(line: u64) -> u64 {
    line ^ 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streamer_needs_training_before_prefetching() {
        let mut s = Streamer::new(2);
        assert!(s.observe(100).is_empty(), "first access: allocate stream");
        assert!(
            s.observe(101).is_empty(),
            "one sequential hit: still training"
        );
        let p: Vec<u64> = s.observe(102).iter().collect();
        assert_eq!(p, vec![103, 104], "trained: run ahead by degree");
    }

    #[test]
    fn streamer_does_not_cross_pages() {
        let mut s = Streamer::new(4);
        // Train right at a page boundary (page = 64 lines).
        s.observe(61);
        s.observe(62);
        let p: Vec<u64> = s.observe(63).iter().collect();
        assert!(
            p.is_empty(),
            "line 64 is in the next page: no prefetch, got {p:?}"
        );
    }

    #[test]
    fn random_pattern_never_trains() {
        let mut s = Streamer::new(2);
        // Same page, non-sequential.
        for line in [5u64, 17, 3, 40, 22, 9, 31] {
            assert!(s.observe(line).is_empty());
        }
    }

    #[test]
    fn interleaved_streams_both_train() {
        let mut s = Streamer::new(1);
        // Two pages advanced alternately.
        let a = 0u64; // page 0
        let b = 1000u64; // page 15
        s.observe(a);
        s.observe(b);
        s.observe(a + 1);
        s.observe(b + 1);
        let pa: Vec<u64> = s.observe(a + 2).iter().collect();
        let pb: Vec<u64> = s.observe(b + 2).iter().collect();
        assert_eq!(pa, vec![a + 3]);
        assert_eq!(pb, vec![b + 3]);
    }

    #[test]
    fn zero_degree_is_inert() {
        let mut s = Streamer::new(0);
        s.observe(1);
        s.observe(2);
        assert!(s.observe(3).is_empty());
    }

    #[test]
    fn adjacent_pair_completes_128b_pairs() {
        assert_eq!(adjacent_pair(0), 1);
        assert_eq!(adjacent_pair(1), 0);
        assert_eq!(adjacent_pair(10), 11);
        assert_eq!(adjacent_pair(11), 10);
    }

    #[test]
    fn reset_forgets_training() {
        let mut s = Streamer::new(2);
        s.observe(10);
        s.observe(11);
        s.reset();
        assert!(s.observe(12).is_empty(), "stream state was cleared");
    }

    #[test]
    fn streamer_at_top_of_address_space_does_not_wrap() {
        let mut s = Streamer::new(4);
        // The last three lines of the address space share the final page.
        let top = u64::MAX;
        s.observe(top - 2);
        s.observe(top - 1);
        let p: Vec<u64> = s.observe(top).iter().collect();
        assert!(p.is_empty(), "no target past u64::MAX, got {p:?}");
    }

    #[test]
    fn streamer_just_below_top_stops_at_the_boundary() {
        let mut s = Streamer::new(4);
        let top = u64::MAX;
        s.observe(top - 4);
        s.observe(top - 3);
        let p: Vec<u64> = s.observe(top - 2).iter().collect();
        assert_eq!(p, vec![top - 1, top], "runs ahead only to the last line");
    }

    #[test]
    fn reset_mid_stream_requires_full_retrain() {
        let mut s = Streamer::new(2);
        s.observe(200);
        s.observe(201);
        assert!(!s.observe(202).is_empty(), "trained before reset");
        s.reset();
        assert!(s.observe(203).is_empty(), "allocation after reset");
        assert!(s.observe(204).is_empty(), "still training");
        assert!(!s.observe(205).is_empty(), "retrained from scratch");
    }
}
