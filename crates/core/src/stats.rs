//! Search-depth and queue-length statistics.
//! spc-scope: cold
//!
//! These are the paper's measurement primitives: Table 1 reports *mean
//! search depths*, Figure 1 reports *queue-length histograms* sampled at
//! every list addition and deletion.

/// Running summary of search depths (or any non-negative metric).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DepthStats {
    /// Number of recorded observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Largest observation.
    pub max: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
}

impl DepthStats {
    /// New, empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn record(&mut self, v: u64) {
        if self.count == 0 || v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
        self.count += 1;
        self.sum += v;
    }

    /// Arithmetic mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Merges another summary into this one.
    pub fn merge(&mut self, other: &DepthStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        self.min = self.min.min(other.min);
    }
}

/// Fixed-width bucketed histogram, as used for Figure 1's queue-length
/// distributions (bucket widths 20, 10 and 5 for AMR, Sweep3D and Halo3D).
#[derive(Clone, Debug)]
pub struct Histogram {
    width: u64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with the given bucket width (> 0).
    pub fn new(width: u64) -> Self {
        assert!(width > 0, "bucket width must be positive");
        Self {
            width,
            counts: Vec::new(),
            total: 0,
        }
    }

    /// Bucket width.
    pub fn width(&self) -> u64 {
        self.width
    }

    /// Records one observation. Storage is dense: memory grows with
    /// `max(v) / width`, so pick a width scaled to the value domain
    /// (recording `u64::MAX` is fine with a proportionally large width).
    pub fn record(&mut self, v: u64) {
        let b = (v / self.width) as usize;
        if b >= self.counts.len() {
            self.counts.resize(b + 1, 0);
        }
        self.counts[b] += 1;
        self.total += 1;
    }

    /// Total observations recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Iterates `(bucket_lo, bucket_hi_inclusive, count)` rows, including
    /// empty interior buckets. Bounds saturate at `u64::MAX`, so histograms
    /// holding near-`u64::MAX` observations stay iterable.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.counts.iter().enumerate().map(move |(i, &c)| {
            let lo = (i as u64).saturating_mul(self.width);
            (lo, lo.saturating_add(self.width - 1), c)
        })
    }

    /// Count in the bucket containing `v`.
    pub fn count_for(&self, v: u64) -> u64 {
        self.counts
            .get((v / self.width) as usize)
            .copied()
            .unwrap_or(0)
    }

    /// Largest recorded value's bucket upper bound (**inclusive**, matching
    /// the `(lo, hi, count)` convention of [`Self::buckets`]), or 0 when
    /// empty. A histogram of width 20 whose deepest observation fell in
    /// bucket 2 reports 59, not 60: values at exact multiples of the width
    /// open the *next* bucket.
    pub fn max_bucket_hi(&self) -> u64 {
        match self.counts.len() as u64 {
            0 => 0,
            n => (n - 1)
                .saturating_mul(self.width)
                .saturating_add(self.width - 1),
        }
    }

    /// Merges another histogram (same width) into this one.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.width, other.width, "bucket widths must agree");
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
    }
}

/// Contention counters for one lock (an engine's single lock, or one
/// shard's lock in a sharded engine).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LockStats {
    /// Total acquisitions.
    pub acquisitions: u64,
    /// Acquisitions that found the lock held and had to wait.
    pub contended: u64,
}

impl LockStats {
    /// Fraction of acquisitions that contended (0.0 when idle).
    pub fn contention_ratio(&self) -> f64 {
        if self.acquisitions == 0 {
            0.0
        } else {
            self.contended as f64 / self.acquisitions as f64
        }
    }

    /// Sums another lock's counters into this one (for aggregate ratios).
    pub fn merge(&mut self, other: &LockStats) {
        self.acquisitions += other.acquisitions;
        self.contended += other.contended;
    }
}

/// Retry/fallback counters for the sharded engine's lock-free read
/// paths: how often seqlock probes had to retry or give up, and how the
/// wildcard candidate pre-scan resolved. All pure telemetry — correctness
/// never depends on them (a fallback is just the locked path).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SnapReadStats {
    /// Lock-free probe attempts invalidated by writer interference.
    pub probe_retries: u64,
    /// Probes that exhausted their retries and took the locked path.
    pub probe_fallbacks: u64,
    /// Wildcard posts parked lock-free by the candidate pre-scan.
    pub prescan_parks: u64,
    /// Wildcard posts the pre-scan sent to the locked slow path.
    pub prescan_fallbacks: u64,
}

/// Per-shard contention and occupancy observability for a sharded engine
/// (one row per shard; the wildcard lane gets its own row in
/// [`ConcurrencyStats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Contention counters for this shard's lock.
    pub lock: LockStats,
    /// Largest posted-receive-queue length this shard ever held.
    pub max_prq_len: u64,
    /// Largest unexpected-message-queue length this shard ever held.
    pub max_umq_len: u64,
}

impl ShardStats {
    /// Sums another shard's counters into this one.
    pub fn merge(&mut self, other: &ShardStats) {
        self.lock.merge(&other.lock);
        self.max_prq_len = self.max_prq_len.max(other.max_prq_len);
        self.max_umq_len = self.max_umq_len.max(other.max_umq_len);
    }
}

/// Concurrency observability a thread-safe engine attaches to its
/// [`EngineStats`] snapshot: per-shard contention + occupancy, the
/// wildcard lane, and how often arrivals had to cross into it.
///
/// A single-lock [`crate::concurrent::SharedEngine`] reports one shard and
/// no wildcard lane; a [`crate::shard::ShardedEngine`] reports one row per
/// shard plus the wildcard lane.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ConcurrencyStats {
    /// One row per shard, indexed by shard id.
    pub shards: Vec<ShardStats>,
    /// The wildcard lane's contention + occupancy (`None` for engines
    /// without a wildcard lane, i.e. single-lock engines).
    pub wild: Option<ShardStats>,
    /// Arrivals that had to consult the wildcard lane (the slow path a
    /// resident `MPI_ANY_SOURCE` receive forces on every shard).
    pub wild_crossings: u64,
}

impl ConcurrencyStats {
    /// Aggregate contention counters over every shard and the wildcard
    /// lane.
    pub fn total_lock(&self) -> LockStats {
        let mut t = LockStats::default();
        for s in &self.shards {
            t.merge(&s.lock);
        }
        if let Some(w) = &self.wild {
            t.merge(&w.lock);
        }
        t
    }

    /// Merges another engine's concurrency stats (shard rows are summed
    /// pairwise; a length mismatch concatenates the extra rows).
    pub fn merge(&mut self, other: &ConcurrencyStats) {
        for (i, s) in other.shards.iter().enumerate() {
            if i < self.shards.len() {
                self.shards[i].merge(s);
            } else {
                self.shards.push(*s);
            }
        }
        match (&mut self.wild, &other.wild) {
            (Some(a), Some(b)) => a.merge(b),
            (None, Some(b)) => self.wild = Some(*b),
            _ => {}
        }
        self.wild_crossings += other.wild_crossings;
    }
}

/// Statistics an engine keeps about its two queues.
#[derive(Clone, Debug, Default)]
pub struct EngineStats {
    /// Depths of posted-receive-queue searches (message arrivals).
    pub prq_search: DepthStats,
    /// Depths of unexpected-message-queue searches (receive posts).
    pub umq_search: DepthStats,
    /// Number of arrivals that matched a posted receive.
    pub prq_hits: u64,
    /// Number of arrivals queued as unexpected.
    pub umq_appends: u64,
    /// Number of receive posts that matched an unexpected message.
    pub umq_hits: u64,
    /// Number of receive posts appended to the PRQ.
    pub prq_appends: u64,
    /// Always 0: no engine rejects an op, since both queues are unbounded.
    /// Kept only while the benchmark adapter still reads it.
    pub prq_rejections: u64,
    /// Always 0, like [`Self::prq_rejections`].
    pub umq_rejections: u64,
    /// Concurrency observability, populated by thread-safe engine wrappers
    /// ([`crate::concurrent::SharedEngine`], [`crate::shard::ShardedEngine`])
    /// when they snapshot their stats; `None` for single-threaded engines.
    pub concurrency: Option<ConcurrencyStats>,
}

impl EngineStats {
    /// New, zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Merges another engine's statistics (e.g. across ranks).
    pub fn merge(&mut self, other: &EngineStats) {
        self.prq_search.merge(&other.prq_search);
        self.umq_search.merge(&other.umq_search);
        self.prq_hits += other.prq_hits;
        self.umq_appends += other.umq_appends;
        self.umq_hits += other.umq_hits;
        self.prq_appends += other.prq_appends;
        self.prq_rejections += other.prq_rejections;
        self.umq_rejections += other.umq_rejections;
        match (&mut self.concurrency, &other.concurrency) {
            (Some(a), Some(b)) => a.merge(b),
            (None, Some(b)) => self.concurrency = Some(b.clone()),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_stats_mean_min_max() {
        let mut d = DepthStats::new();
        assert_eq!(d.mean(), 0.0);
        for v in [3, 1, 8] {
            d.record(v);
        }
        assert_eq!(d.count, 3);
        assert_eq!(d.min, 1);
        assert_eq!(d.max, 8);
        assert!((d.mean() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn depth_stats_merge() {
        let mut a = DepthStats::new();
        a.record(2);
        let mut b = DepthStats::new();
        b.record(10);
        b.record(4);
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.max, 10);
        assert_eq!(a.min, 2);
        let mut empty = DepthStats::new();
        empty.merge(&a);
        assert_eq!(empty, a);
    }

    #[test]
    fn histogram_buckets_follow_paper_convention() {
        let mut h = Histogram::new(20);
        h.record(0);
        h.record(19);
        h.record(20);
        h.record(439);
        let rows: Vec<_> = h.buckets().collect();
        assert_eq!(rows[0], (0, 19, 2));
        assert_eq!(rows[1], (20, 39, 1));
        assert_eq!(rows.last().copied().unwrap(), (420, 439, 1));
        assert_eq!(h.total(), 4);
        assert_eq!(h.count_for(25), 1);
    }

    #[test]
    fn histogram_merge_resizes() {
        let mut a = Histogram::new(5);
        a.record(3);
        let mut b = Histogram::new(5);
        b.record(99);
        a.merge(&b);
        assert_eq!(a.total(), 2);
        assert_eq!(a.count_for(99), 1);
        assert_eq!(a.count_for(3), 1);
    }

    #[test]
    fn lock_stats_ratio_and_merge() {
        let mut a = LockStats {
            acquisitions: 8,
            contended: 2,
        };
        assert!((a.contention_ratio() - 0.25).abs() < 1e-12);
        a.merge(&LockStats {
            acquisitions: 2,
            contended: 2,
        });
        assert_eq!(a.acquisitions, 10);
        assert_eq!(a.contended, 4);
        assert_eq!(LockStats::default().contention_ratio(), 0.0);
    }

    #[test]
    fn concurrency_stats_aggregate_and_merge() {
        let shard = |acq, max_p| ShardStats {
            lock: LockStats {
                acquisitions: acq,
                contended: 1,
            },
            max_prq_len: max_p,
            max_umq_len: 0,
        };
        let mut c = ConcurrencyStats {
            shards: vec![shard(4, 10), shard(6, 3)],
            wild: Some(shard(2, 1)),
            wild_crossings: 5,
        };
        let t = c.total_lock();
        assert_eq!(t.acquisitions, 12);
        assert_eq!(t.contended, 3);
        c.merge(&ConcurrencyStats {
            shards: vec![shard(1, 20)],
            wild: Some(shard(1, 9)),
            wild_crossings: 2,
        });
        assert_eq!(c.shards[0].lock.acquisitions, 5);
        assert_eq!(c.shards[0].max_prq_len, 20);
        assert_eq!(c.shards[1].lock.acquisitions, 6);
        assert_eq!(c.wild.unwrap().max_prq_len, 9);
        assert_eq!(c.wild_crossings, 7);
    }

    #[test]
    fn engine_stats_merge_carries_concurrency() {
        let mut a = EngineStats::new();
        let mut b = EngineStats::new();
        b.concurrency = Some(ConcurrencyStats {
            shards: vec![ShardStats::default()],
            wild: None,
            wild_crossings: 3,
        });
        a.merge(&b);
        assert_eq!(a.concurrency.as_ref().unwrap().wild_crossings, 3);
        a.merge(&b);
        assert_eq!(a.concurrency.unwrap().wild_crossings, 6);
    }

    #[test]
    #[should_panic(expected = "bucket widths must agree")]
    fn histogram_merge_rejects_mismatched_widths() {
        let mut a = Histogram::new(5);
        let b = Histogram::new(10);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "bucket width must be positive")]
    fn histogram_rejects_zero_width() {
        let _ = Histogram::new(0);
    }

    /// Regression: `max_bucket_hi` must agree with the inclusive `(lo, hi)`
    /// convention of `buckets()`. Values at exact multiples of the width
    /// open a fresh bucket, so the reported hi is `(n+1)*width - 1`, not
    /// `(n+1)*width`. The pre-fix code returned the exclusive bound and
    /// fails every assertion below by one.
    #[test]
    fn max_bucket_hi_is_inclusive_at_width_multiples() {
        let mut h = Histogram::new(20);
        assert_eq!(h.max_bucket_hi(), 0, "empty histogram reports 0");
        h.record(0);
        assert_eq!(h.max_bucket_hi(), 19);
        h.record(19); // last value of bucket 0: hi unchanged
        assert_eq!(h.max_bucket_hi(), 19);
        h.record(20); // exact multiple: opens bucket 1
        assert_eq!(h.max_bucket_hi(), 39);
        h.record(40); // exact multiple again
        assert_eq!(h.max_bucket_hi(), 59);
        // The reported hi is always the last bucket row's inclusive hi.
        let (_, last_hi, _) = h.buckets().last().unwrap();
        assert_eq!(h.max_bucket_hi(), last_hi);
        // Width-1 histograms: bucket i is exactly the value i.
        let mut unit = Histogram::new(1);
        unit.record(7);
        assert_eq!(unit.max_bucket_hi(), 7);
    }

    /// `merge` with unequal bucket-vector lengths must work in both
    /// directions: short-into-long leaves the tail intact, long-into-short
    /// grows the receiver.
    #[test]
    fn histogram_merge_unequal_lengths_both_directions() {
        let mut long = Histogram::new(5);
        long.record(99); // 20 buckets
        let mut short = Histogram::new(5);
        short.record(3); // 1 bucket
        let mut a = long.clone();
        a.merge(&short);
        let mut b = short.clone();
        b.merge(&long);
        assert_eq!(a.total(), 2);
        assert_eq!(b.total(), 2);
        assert_eq!(
            a.buckets().collect::<Vec<_>>(),
            b.buckets().collect::<Vec<_>>()
        );
        assert_eq!(a.max_bucket_hi(), 99);
        // Merging an empty histogram is a no-op.
        a.merge(&Histogram::new(5));
        assert_eq!(a.total(), 2);
    }

    /// Near-`u64::MAX` observations (with a proportionally large width)
    /// must not overflow the bucket-bound arithmetic: bounds saturate.
    #[test]
    fn histogram_handles_near_max_values() {
        let width = 1u64 << 62;
        let mut h = Histogram::new(width);
        h.record(u64::MAX);
        h.record(0);
        assert_eq!(h.total(), 2);
        assert_eq!(h.count_for(u64::MAX), 1);
        let rows: Vec<_> = h.buckets().collect();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[3], (3 * width, u64::MAX, 1));
        assert_eq!(h.max_bucket_hi(), u64::MAX);
    }

    #[test]
    fn engine_stats_merge_sums_rejections() {
        let mut a = EngineStats::new();
        a.prq_rejections = 2;
        let mut b = EngineStats::new();
        b.prq_rejections = 3;
        b.umq_rejections = 7;
        a.merge(&b);
        assert_eq!(a.prq_rejections, 5);
        assert_eq!(a.umq_rejections, 7);
    }
}
