//! Seqlock-style published snapshots for the sharded engine's read paths.
//! spc-scope: hot-path
//!
//! [`crate::shard::ShardedEngine`] (PR 2) takes a shard mutex on every
//! operation — including read-only probes and stats polls — so at scale
//! the hot match-queue state ping-pongs between cores instead of staying
//! cache-resident, exactly the locality loss the paper warns about. This
//! module supplies the pieces that let readers walk shared state without
//! any lock:
//!
//! * [`SeqVersion`] — a per-lane seqlock version word. Writers (who hold
//!   the lane's mutex, so there is exactly one at a time) bump it to odd
//!   before mutating and back to even after; readers snapshot only when
//!   it is even and unchanged across their walk.
//! * [`SnapRows`] — a published mirror of one shard's unexpected-message
//!   queue: seq-ordered rows of `(seq, packed key, payload)` stored in
//!   chunk-stable atomic words (chunks are allocated once and never move,
//!   so readers can walk them while a writer appends), with one liveness
//!   bit per row kept in bitmap words inside each chunk. Matches are
//!   killed by clearing their bit, and the kill that leaves more
//!   tombstones than `live + 1` compacts, so after every write at most
//!   `2 * live + 1` rows are published; a sticky overflow flag covers a
//!   full table. A walk visits the set bits only.
//! * [`MirrorDepth`] / [`MirrorStats`] — atomic mirrors of the per-lane
//!   [`EngineStats`] counters, updated by writers under the lane lock and
//!   read by `stats()`/`queue_lens()` with no lock at all. The lane lock
//!   makes each of them a **single-writer** word, so a commit is a plain
//!   load and store (`sw_add`), never a lock-prefixed read-modify-write.
//!
//! ## Writer protocol (soundness of lock-free reads)
//!
//! Every mutating critical section on a lane follows **window ⊇ block**:
//! it acquires the lane lock and calls [`SnapRows::begin`]; *then* it
//! reserves its global seq stamps — one for a direct op, one consecutive
//! block for a whole ring batch (a single `fetch_add`); it applies its
//! ops (rows + indexes) in stamp order; and only after the block's last
//! op does it call [`SnapRows::end`]. The window is open from before the
//! block is reserved until after the block's last op. A stamp taken
//! inside the window but outside the block — an arrival's fresh one — is
//! covered the same way. A block stamp is older than the op that uses
//! it, so the op must not act on anything outside its lane that an op
//! stamped after the reservation could have changed; the one such read,
//! an arrival's wildcard-lane check, is guarded in [`crate::shard`]. A
//! reader does the reverse: it loads the
//! global seq counter `s0` first, walks each lane it needs under
//! [`SnapRows::scan`] (which fails unless the version is even and
//! unchanged across the walk) — as many walks as it likes, over as few
//! lanes as can hold its answer — and finally
//! re-checks that the global seq still reads `s0`.
//!
//! That ordering makes the snapshot linearizable at `s0`: `s0` never
//! falls inside a block (one `fetch_add` reserves it whole), so any
//! writer with a stamp *before* `s0` reserved it after going version-odd
//! (all SeqCst, so the odd store precedes the reader's version load in
//! the single total order) — the reader either observes every op of the
//! block fully published or fails validation; any writer stamped *after*
//! `s0` trips the final seq re-check. There is no window in which a
//! stamped-but-unpublished write can hide from a validating reader — the
//! gap the injected [`commit-skipping adversary`](SnapRows::new)
//! reintroduces so the conformance harness can prove it would be caught.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::stats::{DepthStats, EngineStats, LockStats, ShardStats};

/// Rows per allocated chunk. Chunks are boxed once and never reallocated,
/// so a reader's row pointers stay valid while a writer appends.
pub(crate) const ROWS_PER_CHUNK: usize = 256;

/// Rows one liveness word covers.
const ROWS_PER_WORD: usize = 64;

/// Liveness words per chunk.
const WORDS_PER_CHUNK: usize = ROWS_PER_CHUNK / ROWS_PER_WORD;

/// The low `k` bits of a liveness word (all of them for `k >= 64`).
fn below(k: usize) -> u64 {
    if k >= ROWS_PER_WORD {
        !0
    } else {
        (1u64 << k) - 1
    }
}

/// The word of its chunk that holds row `i`'s liveness bit, and the bit.
fn word_bit(i: usize) -> (usize, u64) {
    let r = i % ROWS_PER_CHUNK;
    (r / ROWS_PER_WORD, 1u64 << (r % ROWS_PER_WORD))
}

/// A seqlock version word: even = stable, odd = writer in its window.
///
/// All accesses are SeqCst — the snapshot soundness argument (module
/// docs) places version transitions in the same total order as the
/// engine's seq stamps and count updates.
pub struct SeqVersion {
    // spc-order(v): SeqCst — the version word; see the struct doc
    v: AtomicU64,
}

impl SeqVersion {
    /// A fresh, even (stable) version.
    pub fn new() -> Self {
        Self {
            v: AtomicU64::new(0),
        }
    }

    /// Writer entry: flips the version odd. Callers must hold the lane's
    /// mutex (there is exactly one writer per lane at a time).
    pub fn begin_write(&self) {
        let prev = self.v.fetch_add(1, Ordering::SeqCst);
        debug_assert!(prev.is_multiple_of(2), "nested write window");
    }

    /// Writer exit: flips the version back to even.
    pub fn end_write(&self) {
        let prev = self.v.fetch_add(1, Ordering::SeqCst);
        debug_assert!(prev % 2 == 1, "end_write without begin_write");
    }

    /// Reader entry: the current version if stable, `None` if a writer
    /// is mid-window.
    pub fn read_enter(&self) -> Option<u64> {
        let v = self.v.load(Ordering::SeqCst);
        v.is_multiple_of(2).then_some(v)
    }

    /// Reader exit: true iff no writer entered since `read_enter`.
    pub fn read_ok(&self, entered: u64) -> bool {
        self.v.load(Ordering::SeqCst) == entered
    }
}

impl Default for SeqVersion {
    fn default() -> Self {
        Self::new()
    }
}

/// One published UMQ row: `(seq, packed match key, payload)`, all plain
/// atomic words so a torn read is impossible at the word level and
/// version validation catches torn *row sets*. Whether the row is live
/// is its chunk's business ([`SnapChunk`]), not the row's.
struct SnapRow {
    // spc-order(seq): SeqCst — published row cell, read under the version-word protocol
    seq: AtomicU64,
    // spc-order(key): SeqCst — published row cell; see seq
    key: AtomicU64,
    // spc-order(val): SeqCst — published row cell; see seq
    val: AtomicU64,
}

impl SnapRow {
    fn new() -> Self {
        Self {
            seq: AtomicU64::new(0),
            key: AtomicU64::new(0),
            val: AtomicU64::new(0),
        }
    }
}

/// One allocated chunk of published rows and their liveness bitmap: bit
/// `r % 64` of `live_bits[r / 64]` is set iff the chunk's row `r` is
/// live. The words are allocated with the rows they describe, so they
/// live and die with them, and no bit is ever set at or past the
/// published row count.
struct SnapChunk {
    rows: [SnapRow; ROWS_PER_CHUNK],
    // spc-order(live_bits): SeqCst — published row liveness words; see seq
    live_bits: [AtomicU64; WORDS_PER_CHUNK],
}

impl SnapChunk {
    fn new() -> Box<Self> {
        Box::new(Self {
            rows: std::array::from_fn(|_| SnapRow::new()),
            live_bits: std::array::from_fn(|_| AtomicU64::new(0)),
        })
    }
}

/// A seq-ordered published mirror of one shard's unexpected-message
/// queue, readable without the shard lock.
///
/// Writers (holding the shard lock) append rows in stamp order and kill
/// a matched row by clearing its liveness bit, leaving a tombstone that
/// keeps its stamp. [`SnapRows::kill`] compacts in the same write window
/// as soon as the tombstones number more than `live + 1`, so after every
/// write the published rows, tombstones included, number at most
/// `2 * live + 1` (65 for 32 live messages). An append only adds a live
/// row, which keeps the bound, and compacts only a full table before
/// declaring overflow. The cost is amortised O(1) per kill: a compaction
/// moves at most `live` rows, and at least `live + 2` kills precede the
/// next one.
///
/// Readers never read a tombstone's row: [`SnapRows::scan`] visits the
/// set liveness bits only. Storage is a fixed table of lazily-allocated
/// chunks — chunk addresses never change after allocation, so concurrent
/// readers can dereference them safely (the `OnceLock` per chunk makes
/// publication itself lock-free on the read side). If the table ever
/// fills, a sticky `overflow` flag sends every future reader to the
/// locked fallback path instead of silently truncating.
pub struct SnapRows {
    ver: SeqVersion,
    chunks: Box<[OnceLock<Box<SnapChunk>>]>,
    /// Published row count, tombstones included. Written only inside a
    /// write window; monotone within one window.
    // spc-order(rows_len): SeqCst — the row count lock-free probes iterate by
    rows_len: AtomicUsize,
    /// Live (non-tombstoned) rows: the set bits of the liveness bitmap.
    // spc-order(live_rows): SeqCst — read by the wildcard pre-scan's emptiness check
    live_rows: AtomicUsize,
    /// Sticky: the table filled with live rows and the mirror is no
    /// longer complete — readers must use the locked path.
    // spc-order(overflow): SeqCst — seen no later than the rows it invalidates
    overflow: AtomicBool,
    /// When false, appends skip the snapshot commit entirely (version
    /// bump and `rows_len` publication) — the injected conformance
    /// adversary that "skips the seq bump on write".
    publish: bool,
    max_rows: usize,
}

impl SnapRows {
    /// A mirror holding at most `max_rows` published rows (rounded up to
    /// whole chunks). `publish = false` builds the commit-skipping
    /// adversary variant: rows are never made visible to readers, so
    /// lock-free probes answer from a stale snapshot. Never use that as
    /// an engine; it exists so the conformance harness can convict it.
    pub fn new(publish: bool, max_rows: usize) -> Self {
        assert!(max_rows >= 1, "need room for at least one row");
        let nchunks = max_rows.div_ceil(ROWS_PER_CHUNK);
        Self {
            ver: SeqVersion::new(),
            chunks: (0..nchunks).map(|_| OnceLock::new()).collect(),
            rows_len: AtomicUsize::new(0),
            live_rows: AtomicUsize::new(0),
            overflow: AtomicBool::new(false),
            publish,
            max_rows: nchunks * ROWS_PER_CHUNK,
        }
    }

    /// Maximum number of published rows (tombstones included).
    pub fn capacity(&self) -> usize {
        self.max_rows
    }

    /// Whether the mirror has overflowed and readers must take the
    /// locked path.
    pub fn overflowed(&self) -> bool {
        self.overflow.load(Ordering::SeqCst)
    }

    /// Live (non-tombstoned) row count.
    pub fn live_len(&self) -> usize {
        self.live_rows.load(Ordering::SeqCst)
    }

    /// Published row count, tombstones included. At most
    /// `2 * live_len() + 1` after every write.
    pub(crate) fn published_len(&self) -> usize {
        self.rows_len.load(Ordering::SeqCst)
    }

    /// Writer-side chunk access; allocates the chunk on first touch.
    fn chunk_mut(&self, ci: usize) -> &SnapChunk {
        self.chunks[ci].get_or_init(SnapChunk::new)
    }

    /// Non-allocating chunk access; `None` means the chunk was never
    /// allocated (nothing was ever published in it).
    fn chunk_get(&self, ci: usize) -> Option<&SnapChunk> {
        self.chunks.get(ci)?.get().map(|c| &**c)
    }

    /// How many of the first `n` rows have a stamp satisfying `pred`,
    /// which must hold for a prefix of the stamps (rows are seq-sorted,
    /// and a tombstone keeps its stamp): a binary search, no walk. `None`
    /// means a chunk below `n` was never allocated.
    fn partition_point(&self, n: usize, pred: impl Fn(u64) -> bool) -> Option<usize> {
        let (mut lo, mut hi) = (0usize, n);
        while lo < hi {
            let mid = (lo + hi) / 2;
            let chunk = self.chunk_get(mid / ROWS_PER_CHUNK)?;
            if pred(chunk.rows[mid % ROWS_PER_CHUNK].seq.load(Ordering::SeqCst)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        Some(lo)
    }

    /// Opens the write window (version goes odd). Call while holding the
    /// owning lane's lock, *before* reserving the seq stamps of the ops
    /// it covers, and close it only after the last of them — the
    /// ordering the whole lock-free read protocol rests on (module docs).
    pub fn begin(&self) {
        if self.publish {
            self.ver.begin_write();
        }
    }

    /// Closes the write window (version back to even).
    pub fn end(&self) {
        if self.publish {
            self.ver.end_write();
        }
    }

    /// Publishes a row inside the current write window. Rows must be
    /// appended in increasing `seq` order (they are: appends stamp under
    /// the lane lock).
    pub fn append(&self, seq: u64, key: u64, val: u64) {
        if !self.publish {
            return;
        }
        let mut n = self.rows_len.load(Ordering::SeqCst);
        let live = self.live_rows.load(Ordering::SeqCst);
        // `kill` keeps tombstones to at most `live + 1`; a full table may
        // still hold some, and they go before the overflow is declared.
        if n == self.max_rows {
            self.compact();
            n = self.rows_len.load(Ordering::SeqCst);
        }
        if n == self.max_rows {
            self.overflow.store(true, Ordering::SeqCst);
            return;
        }
        let chunk = self.chunk_mut(n / ROWS_PER_CHUNK);
        let row = &chunk.rows[n % ROWS_PER_CHUNK];
        row.seq.store(seq, Ordering::SeqCst);
        row.key.store(key, Ordering::SeqCst);
        row.val.store(val, Ordering::SeqCst);
        let (w, bit) = word_bit(n);
        chunk.live_bits[w].fetch_or(bit, Ordering::SeqCst);
        self.rows_len.store(n + 1, Ordering::SeqCst);
        self.live_rows.store(live + 1, Ordering::SeqCst);
    }

    /// Tombstones the row stamped `seq` inside the current write window —
    /// clears its liveness bit — and compacts in the same window once the
    /// tombstones outnumber the live rows by more than one, so the
    /// published rows never exceed `2 * live + 1`. Tolerates a missing
    /// row (the commit-skipping adversary never published it; after
    /// overflow the mirror is already degraded).
    pub fn kill(&self, seq: u64) {
        let n = self.rows_len.load(Ordering::SeqCst);
        // Rows are seq-sorted (tombstones keep their stamp), so binary
        // search finds the victim without walking.
        let Some(i) = self.partition_point(n, |s| s < seq) else {
            return;
        };
        let victim = self
            .chunk_get(i / ROWS_PER_CHUNK)
            .filter(|c| i < n && c.rows[i % ROWS_PER_CHUNK].seq.load(Ordering::SeqCst) == seq);
        let Some(chunk) = victim else {
            debug_assert!(
                !self.publish || self.overflowed(),
                "kill({seq}) found no published row on a publishing mirror"
            );
            return;
        };
        let (w, bit) = word_bit(i);
        if chunk.live_bits[w].fetch_and(!bit, Ordering::SeqCst) & bit != 0 {
            let live = self.live_rows.fetch_sub(1, Ordering::SeqCst) - 1;
            if n > 2 * live + 1 {
                self.compact();
            }
        }
    }

    /// Drops tombstones, preserving seq order: moves each live row down
    /// to the next free slot, then rewrites the liveness words of every
    /// row it covered — rows `0..live` set, the rest of the old rows
    /// clear. Writer-only, inside the write window.
    fn compact(&self) {
        let n = self.rows_len.load(Ordering::SeqCst);
        let mut out = 0usize;
        for wi in 0..n.div_ceil(ROWS_PER_WORD) {
            let chunk = self.chunk_mut(wi / WORDS_PER_CHUNK);
            let mut bits = chunk.live_bits[wi % WORDS_PER_CHUNK].load(Ordering::SeqCst);
            while bits != 0 {
                let i = wi * ROWS_PER_WORD + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if out != i {
                    let row = &chunk.rows[i % ROWS_PER_CHUNK];
                    let dst = &self.chunk_mut(out / ROWS_PER_CHUNK).rows[out % ROWS_PER_CHUNK];
                    dst.seq
                        .store(row.seq.load(Ordering::SeqCst), Ordering::SeqCst);
                    dst.key
                        .store(row.key.load(Ordering::SeqCst), Ordering::SeqCst);
                    dst.val
                        .store(row.val.load(Ordering::SeqCst), Ordering::SeqCst);
                }
                out += 1;
            }
        }
        for wi in 0..n.div_ceil(ROWS_PER_WORD) {
            let chunk = self.chunk_mut(wi / WORDS_PER_CHUNK);
            let bits = below(out.saturating_sub(wi * ROWS_PER_WORD));
            chunk.live_bits[wi % WORDS_PER_CHUNK].store(bits, Ordering::SeqCst);
        }
        self.rows_len.store(out, Ordering::SeqCst);
    }

    /// Empties the mirror (inside a write window; used by engine reset).
    pub fn clear(&self) {
        let n = self.rows_len.load(Ordering::SeqCst);
        for wi in 0..n.div_ceil(ROWS_PER_WORD) {
            let chunk = self.chunk_mut(wi / WORDS_PER_CHUNK);
            chunk.live_bits[wi % WORDS_PER_CHUNK].store(0, Ordering::SeqCst);
        }
        self.rows_len.store(0, Ordering::SeqCst);
        self.live_rows.store(0, Ordering::SeqCst);
        self.overflow.store(false, Ordering::SeqCst);
    }

    /// Runs `read` on the published row count inside one version bracket.
    /// `None` if the version was odd on entry or moved by exit, the
    /// mirror overflowed, the row count is past the table, or `read`
    /// itself found the rows torn.
    fn bracketed<T>(&self, read: impl FnOnce(usize) -> Option<T>) -> Option<T> {
        let entered = self.ver.read_enter()?;
        if self.overflow.load(Ordering::SeqCst) {
            return None;
        }
        let n = self.rows_len.load(Ordering::SeqCst);
        if n > self.max_rows {
            return None;
        }
        let out = read(n)?;
        (self.ver.read_ok(entered) && !self.overflow.load(Ordering::SeqCst)).then_some(out)
    }

    /// Lock-free walk: calls `visit(seq, key, val)` on every live row in
    /// seq order until it returns `false` (early exit) or the rows run
    /// out. It reads the liveness words and visits the set bits only, so
    /// it never reads a tombstone's row. Returns `true` iff the whole walk
    /// ran under one stable version; on `false` — a writer interfered, a
    /// chunk was torn, or the mirror overflowed — whatever `visit` saw is
    /// meaningless, so it must tolerate torn rows, and the caller retries
    /// or falls back to the locked path.
    pub fn scan(&self, mut visit: impl FnMut(u64, u64, u64) -> bool) -> bool {
        self.bracketed(|n| {
            for wi in 0..n.div_ceil(ROWS_PER_WORD) {
                // A never-allocated chunk below `n` means `rows_len` was torn.
                let chunk = self.chunk_get(wi / WORDS_PER_CHUNK)?;
                let mut bits = chunk.live_bits[wi % WORDS_PER_CHUNK].load(Ordering::SeqCst)
                    & below(n - wi * ROWS_PER_WORD);
                while bits != 0 {
                    let r = (wi % WORDS_PER_CHUNK) * ROWS_PER_WORD + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let row = &chunk.rows[r];
                    if !visit(
                        row.seq.load(Ordering::SeqCst),
                        row.key.load(Ordering::SeqCst),
                        row.val.load(Ordering::SeqCst),
                    ) {
                        return Some(());
                    }
                }
            }
            Some(())
        })
        .is_some()
    }

    /// The quiescent liveness audit behind `ShardedEngine::validate`: the
    /// bitmap holds exactly `live_len()` set bits, and none at or past the
    /// published row count.
    pub(crate) fn check_live_bits(&self) -> Result<(), String> {
        let n = self.published_len();
        let mut set = 0usize;
        for wi in 0..self.chunks.len() * WORDS_PER_CHUNK {
            let Some(chunk) = self.chunk_get(wi / WORDS_PER_CHUNK) else {
                continue;
            };
            let bits = chunk.live_bits[wi % WORDS_PER_CHUNK].load(Ordering::SeqCst);
            let stray = bits & !below(n.saturating_sub(wi * ROWS_PER_WORD));
            if stray != 0 {
                return Err(format!(
                    "liveness bit set for row {} at or past the {n} published rows",
                    wi * ROWS_PER_WORD + stray.trailing_zeros() as usize
                ));
            }
            set += bits.count_ones() as usize;
        }
        if set != self.live_len() {
            return Err(format!(
                "liveness bitmap holds {set} set bits but live_len is {}",
                self.live_len()
            ));
        }
        Ok(())
    }
}

/// Single-writer add: `cell` is only ever written by the thread holding
/// the lane lock it belongs to, so a load and a store cannot lose an
/// update the way they would between racing writers — and unlike
/// `fetch_add` they do not take the cache line exclusive with a bus lock.
/// Readers are telemetry and tolerate any interleaving of whole words.
// spc-order(cell): Relaxed — single-writer operand of sw_add/sw_max; see sw_add's doc
#[inline]
pub(crate) fn sw_add(cell: &AtomicU64, by: u64) {
    cell.store(
        cell.load(Ordering::Relaxed).wrapping_add(by),
        Ordering::Relaxed,
    );
}

/// Single-writer running maximum (see `sw_add`).
#[inline]
fn sw_max(cell: &AtomicU64, v: u64) {
    if v > cell.load(Ordering::Relaxed) {
        cell.store(v, Ordering::Relaxed);
    }
}

/// Atomic mirror of one [`DepthStats`]: the writer records under its lane
/// lock (one writer at a time — the contract `sw_add` rests on),
/// readers snapshot without any lock. Individual counters are Relaxed
/// telemetry — exact once writers quiesce (thread join orders every prior
/// store), monotone and self-consistent enough for polling in between.
pub struct MirrorDepth {
    // spc-order(count): Relaxed — MirrorDepth telemetry; see the struct doc
    count: AtomicU64,
    // spc-order(sum): Relaxed — MirrorDepth telemetry; see the struct doc
    sum: AtomicU64,
    // spc-order(max): Relaxed — MirrorDepth telemetry; see the struct doc
    max: AtomicU64,
    // spc-order(min): Relaxed — MirrorDepth telemetry; see the struct doc
    min: AtomicU64,
}

impl MirrorDepth {
    /// An empty mirror.
    pub fn new() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
        }
    }

    /// Records one observation. Caller holds the lane lock.
    pub fn record(&self, v: u64) {
        sw_add(&self.count, 1);
        sw_add(&self.sum, v);
        sw_max(&self.max, v);
        if v < self.min.load(Ordering::Relaxed) {
            self.min.store(v, Ordering::Relaxed);
        }
    }

    /// The mirrored [`DepthStats`].
    pub fn snapshot(&self) -> DepthStats {
        let count = self.count.load(Ordering::Relaxed);
        if count == 0 {
            return DepthStats::default();
        }
        DepthStats {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
        }
    }

    fn clear(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
    }
}

impl Default for MirrorDepth {
    fn default() -> Self {
        Self::new()
    }
}

/// Atomic mirror of one lane's [`EngineStats`] counters plus its live
/// queue lengths and occupancy highwater marks — everything
/// `ShardedEngine::stats`/`queue_lens`/`shard_stats` used to take every
/// shard lock for. The writer updates it at the end of each locked
/// operation (holding the lane lock, so every word has one writer at a
/// time); readers never lock.
pub struct MirrorStats {
    /// PRQ search-depth observations (arrival-side scans).
    pub prq_search: MirrorDepth,
    /// UMQ search-depth observations (receive-side scans).
    pub umq_search: MirrorDepth,
    // spc-order(prq_hits): Relaxed — MirrorStats tally, single writer under the lane lock
    prq_hits: AtomicU64,
    // spc-order(umq_hits): Relaxed — MirrorStats tally; see prq_hits
    umq_hits: AtomicU64,
    // spc-order(prq_appends): Relaxed — MirrorStats tally; see prq_hits
    prq_appends: AtomicU64,
    // spc-order(umq_appends): Relaxed — MirrorStats tally; see prq_hits
    umq_appends: AtomicU64,
    // spc-order(max_prq): Relaxed — MirrorStats high-water mark; see prq_hits
    max_prq: AtomicU64,
    // spc-order(max_umq): Relaxed — MirrorStats high-water mark; see prq_hits
    max_umq: AtomicU64,
    /// Live queue lengths, stored (not added) under the lane lock after
    /// each op: exact at quiescence, transiently stale mid-race. Release
    /// stores paired with the Acquire loads in [`Self::lens`]: a reader
    /// that sees a length also sees the counters committed before it, and
    /// no matching decision ever reads them, so nothing needs the SeqCst
    /// total order (whose store is a full fence on every write).
    // spc-order(prq_len): AcqRel — Release store, Acquire load; see the field doc
    prq_len: AtomicUsize,
    // spc-order(umq_len): AcqRel — mirrored queue depth; see prq_len
    umq_len: AtomicUsize,
}

impl MirrorStats {
    /// An empty mirror.
    pub fn new() -> Self {
        Self {
            prq_search: MirrorDepth::new(),
            umq_search: MirrorDepth::new(),
            prq_hits: AtomicU64::new(0),
            umq_hits: AtomicU64::new(0),
            prq_appends: AtomicU64::new(0),
            umq_appends: AtomicU64::new(0),
            max_prq: AtomicU64::new(0),
            max_umq: AtomicU64::new(0),
            prq_len: AtomicUsize::new(0),
            umq_len: AtomicUsize::new(0),
        }
    }

    /// A posted receive matched an arrival.
    pub fn add_prq_hit(&self) {
        sw_add(&self.prq_hits, 1);
    }

    /// A receive matched a buffered unexpected message.
    pub fn add_umq_hit(&self) {
        sw_add(&self.umq_hits, 1);
    }

    /// A receive was appended to the PRQ.
    pub fn add_prq_append(&self) {
        sw_add(&self.prq_appends, 1);
    }

    /// A message was appended to the UMQ.
    pub fn add_umq_append(&self) {
        sw_add(&self.umq_appends, 1);
    }

    /// Publishes the lane's queue lengths and folds them into the
    /// occupancy highwater marks. Caller holds the lane lock.
    pub fn note_occupancy(&self, prq: usize, umq: usize) {
        sw_max(&self.max_prq, prq as u64);
        sw_max(&self.max_umq, umq as u64);
        self.prq_len.store(prq, Ordering::Release);
        self.umq_len.store(umq, Ordering::Release);
    }

    /// Current `(prq, umq)` lengths.
    pub fn lens(&self) -> (usize, usize) {
        (
            self.prq_len.load(Ordering::Acquire),
            self.umq_len.load(Ordering::Acquire),
        )
    }

    /// The mirrored per-lane [`EngineStats`] (no concurrency block).
    pub fn snapshot(&self) -> EngineStats {
        let mut s = EngineStats::new();
        s.prq_search = self.prq_search.snapshot();
        s.umq_search = self.umq_search.snapshot();
        s.prq_hits = self.prq_hits.load(Ordering::Relaxed);
        s.umq_hits = self.umq_hits.load(Ordering::Relaxed);
        s.prq_appends = self.prq_appends.load(Ordering::Relaxed);
        s.umq_appends = self.umq_appends.load(Ordering::Relaxed);
        s
    }

    /// The lane's [`ShardStats`] row, pairing the caller-supplied lock
    /// counters with the mirrored occupancy highwater marks.
    pub fn shard_row(&self, lock: LockStats) -> ShardStats {
        ShardStats {
            lock,
            max_prq_len: self.max_prq.load(Ordering::Relaxed),
            max_umq_len: self.max_umq.load(Ordering::Relaxed),
        }
    }

    /// Clears every counter (engine reset).
    pub fn clear(&self) {
        self.prq_search.clear();
        self.umq_search.clear();
        self.prq_hits.store(0, Ordering::Relaxed);
        self.umq_hits.store(0, Ordering::Relaxed);
        self.prq_appends.store(0, Ordering::Relaxed);
        self.umq_appends.store(0, Ordering::Relaxed);
        self.max_prq.store(0, Ordering::Relaxed);
        self.max_umq.store(0, Ordering::Relaxed);
        self.prq_len.store(0, Ordering::Release);
        self.umq_len.store(0, Ordering::Release);
    }
}

impl Default for MirrorStats {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_all(rows: &SnapRows) -> Vec<(u64, u64, u64)> {
        let mut out = Vec::new();
        let ok = rows.scan(|seq, key, val| {
            out.push((seq, key, val));
            true
        });
        assert!(ok, "stable mirror must snapshot");
        out
    }

    /// A walk that visits everything and reports only its validity.
    fn scan_ok(rows: &SnapRows) -> bool {
        rows.scan(|_, _, _| true)
    }

    #[test]
    fn append_and_kill_round_trip_in_seq_order() {
        let rows = SnapRows::new(true, 1024);
        rows.begin();
        rows.append(3, 30, 300);
        rows.append(7, 70, 700);
        rows.append(9, 90, 900);
        rows.end();
        assert_eq!(
            read_all(&rows),
            vec![(3, 30, 300), (7, 70, 700), (9, 90, 900)]
        );
        rows.begin();
        rows.kill(7);
        rows.end();
        assert_eq!(read_all(&rows), vec![(3, 30, 300), (9, 90, 900)]);
        assert_eq!(rows.live_len(), 2);
    }

    #[test]
    fn readers_refuse_an_open_write_window() {
        let rows = SnapRows::new(true, 1024);
        rows.begin();
        rows.append(1, 10, 100);
        assert!(!scan_ok(&rows), "mid-window snapshot must be refused");
        rows.end();
        assert_eq!(read_all(&rows).len(), 1);
    }

    #[test]
    fn version_validates_across_the_walk() {
        let v = SeqVersion::new();
        let entered = v.read_enter().expect("stable");
        v.begin_write();
        v.end_write();
        assert!(!v.read_ok(entered), "a completed write must invalidate");
        let entered = v.read_enter().expect("stable again");
        assert!(v.read_ok(entered));
    }

    #[test]
    fn compaction_preserves_live_rows_and_order() {
        let rows = SnapRows::new(true, 4 * ROWS_PER_CHUNK);
        rows.begin();
        for i in 0..600u64 {
            rows.append(i, i * 10, i * 100);
        }
        assert_eq!(rows.published_len(), 600);
        // Kill two stamps in three. The 301st kill leaves 301 tombstones
        // beside 299 live rows and compacts to those 299; the remaining
        // 99 kills only tombstone.
        for i in (0..600u64).filter(|i| i % 3 != 2) {
            rows.kill(i);
        }
        assert_eq!(rows.live_len(), 200);
        assert_eq!(rows.published_len(), 299, "the kills compacted once");
        for i in 600..900u64 {
            rows.append(i, i * 10, i * 100);
        }
        rows.end();
        let got = read_all(&rows);
        let want: Vec<(u64, u64, u64)> = (0..600u64)
            .filter(|i| i % 3 == 2)
            .chain(600..900)
            .map(|i| (i, i * 10, i * 100))
            .collect();
        assert_eq!(got, want);
        assert!(!rows.overflowed());
    }

    /// Which live row a kill takes.
    #[derive(Clone, Copy, Debug)]
    enum KillOrder {
        Oldest,
        Newest,
        Random,
    }

    /// A seeded run of single-op write windows against a `VecDeque`
    /// model: after every append and kill (and the compactions kills
    /// trigger) the mirror reads exactly the model, publishes at most
    /// `2 * live + 1` rows and keeps its liveness bitmap consistent;
    /// after the final clear too. Live rows rise to `peak`, churn there
    /// for `peak` ops and drain to zero, twice, so every run compacts
    /// many times.
    fn model_run(order: KillOrder, peak: usize, seed: u64) {
        use spc_rng::{Rng, SeedableRng, StdRng};
        use std::collections::VecDeque;
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = SnapRows::new(true, 4 * ROWS_PER_CHUNK);
        let mut model: VecDeque<(u64, u64, u64)> = VecDeque::new();
        let mut next_seq = 0u64;
        let (mut compactions, mut prev_len) = (0usize, 0usize);
        // Phase 0 grows, 1 churns, 2 drains; phase 6 ends the run.
        let (mut phase, mut churned) = (0, 0);
        for step in 0.. {
            match phase % 3 {
                0 if model.len() == peak => phase += 1,
                1 if churned == peak => (phase, churned) = (phase + 1, 0),
                1 => churned += 1,
                2 if model.is_empty() => phase += 1,
                _ => {}
            }
            if phase == 6 {
                break;
            }
            let p_append = [0.8, 0.5, 0.2][phase % 3];
            let append = model.is_empty() || (model.len() < peak && rng.gen_bool(p_append));
            rows.begin();
            if append {
                let row = (next_seq, rng.gen(), rng.gen());
                next_seq += 1 + rng.gen_range(0..3u64); // stamps rise, with gaps
                rows.append(row.0, row.1, row.2);
                model.push_back(row);
            } else {
                let i = match order {
                    KillOrder::Oldest => 0,
                    KillOrder::Newest => model.len() - 1,
                    KillOrder::Random => rng.gen_range(0..model.len()),
                };
                let (seq, _, _) = model.remove(i).expect("in range");
                rows.kill(seq);
            }
            rows.end();
            let (published, live) = (rows.published_len(), rows.live_len());
            assert!(
                published <= 2 * live + 1,
                "{order:?} step {step}: {published} rows published for {live} live"
            );
            compactions += usize::from(published < prev_len);
            prev_len = published;
            assert_eq!(live, model.len(), "{order:?} step {step}");
            assert!(
                read_all(&rows).iter().eq(model.iter()),
                "{order:?} step {step}: the mirror diverged from the model"
            );
            rows.check_live_bits()
                .unwrap_or_else(|e| panic!("{order:?} step {step}: {e}"));
        }
        assert!(compactions > 2, "{order:?}: {compactions} compactions");
        assert!(!rows.overflowed());
        rows.begin();
        rows.clear();
        rows.end();
        assert_eq!((rows.published_len(), rows.live_len()), (0, 0));
        assert!(read_all(&rows).is_empty());
        rows.check_live_bits().expect("cleared bitmap");
    }

    #[test]
    fn kills_keep_the_walk_within_twice_live_plus_one() {
        model_run(KillOrder::Oldest, 40, 0x5EED_0001);
        model_run(KillOrder::Newest, 40, 0x5EED_0002);
        model_run(KillOrder::Random, 40, 0x5EED_0003);
        // Over a chunk's worth of live rows: the walk crosses a chunk.
        model_run(KillOrder::Random, ROWS_PER_CHUNK + 44, 0x5EED_0004);
        model_run(KillOrder::Oldest, ROWS_PER_CHUNK + 44, 0x5EED_0005);
    }

    #[test]
    fn overflow_is_sticky_and_fails_readers() {
        let rows = SnapRows::new(true, 1);
        // max_rows rounds up to one chunk.
        assert_eq!(rows.capacity(), ROWS_PER_CHUNK);
        rows.begin();
        for i in 0..(ROWS_PER_CHUNK as u64 + 10) {
            rows.append(i, i, i);
        }
        rows.end();
        assert!(rows.overflowed());
        assert!(!scan_ok(&rows), "overflowed mirror must refuse");
        // clear() (engine reset) recovers.
        rows.begin();
        rows.clear();
        rows.end();
        assert!(!rows.overflowed());
        assert!(scan_ok(&rows));
    }

    #[test]
    fn scan_stops_early_and_crosses_chunk_boundaries() {
        let rows = SnapRows::new(true, 4 * ROWS_PER_CHUNK);
        let n = ROWS_PER_CHUNK as u64 + 44;
        rows.begin();
        for i in 0..n {
            rows.append(i, i * 10, i * 100);
        }
        rows.kill(ROWS_PER_CHUNK as u64); // first row of the second chunk
        rows.end();
        let want: Vec<u64> = (0..n).filter(|&i| i != ROWS_PER_CHUNK as u64).collect();
        let got: Vec<u64> = read_all(&rows).iter().map(|r| r.0).collect();
        assert_eq!(got, want, "both chunks walked in order, tombstone skipped");
        // Early exit on either side of the boundary: the walk stops at the
        // row that said so and still validates.
        for stop_at in [2u64, ROWS_PER_CHUNK as u64 + 3] {
            let mut visited = Vec::new();
            let ok = rows.scan(|seq, _, _| {
                visited.push(seq);
                seq != stop_at
            });
            assert!(ok, "an early exit is still a valid walk");
            assert_eq!(visited.last(), Some(&stop_at));
            assert_eq!(visited, want[..visited.len()]);
        }
    }

    #[test]
    fn scan_refuses_a_version_change_mid_walk() {
        let rows = SnapRows::new(true, 1024);
        rows.begin();
        rows.append(1, 10, 100);
        rows.append(2, 20, 200);
        rows.end();
        // A whole write window opens and closes while the reader is
        // between rows: entry saw an even version, exit sees a later one.
        let ok = rows.scan(|seq, _, _| {
            if seq == 1 {
                rows.begin();
                rows.kill(2);
                rows.end();
            }
            true
        });
        assert!(!ok, "a write window inside the walk must invalidate it");
        assert_eq!(read_all(&rows), vec![(1, 10, 100)]);
        // Overflow raised mid-walk is caught by the exit re-check too.
        let ok = rows.scan(|_, _, _| {
            rows.overflow.store(true, Ordering::SeqCst);
            true
        });
        assert!(!ok, "overflow during the walk must invalidate it");
    }

    #[test]
    fn scan_refuses_a_compaction_mid_walk() {
        let rows = SnapRows::new(true, 1024);
        rows.begin();
        for seq in 1..=6u64 {
            rows.append(seq, seq * 10, seq * 100);
        }
        for seq in 1..=3u64 {
            rows.kill(seq); // three tombstones beside three live: no compaction
        }
        rows.end();
        assert_eq!((rows.published_len(), rows.live_len()), (6, 3));
        // Between rows, a whole write window kills the row just visited,
        // and that kill compacts the rows the walk is still reading.
        let ok = rows.scan(|seq, _, _| {
            if seq == 4 {
                rows.begin();
                rows.kill(4);
                rows.end();
                assert_eq!(rows.published_len(), 2, "the kill compacted");
            }
            true
        });
        assert!(!ok, "a compaction inside the walk must invalidate it");
        assert_eq!(read_all(&rows), vec![(5, 50, 500), (6, 60, 600)]);
    }

    #[test]
    fn scan_refuses_a_torn_rows_len() {
        let rows = SnapRows::new(true, 2 * ROWS_PER_CHUNK);
        rows.begin();
        rows.append(1, 10, 100);
        rows.end();
        // A length pointing into a chunk nobody allocated.
        rows.rows_len.store(ROWS_PER_CHUNK + 1, Ordering::SeqCst);
        let mut seen = 0;
        let ok = rows.scan(|_, _, _| {
            seen += 1;
            true
        });
        assert!(!ok, "a length past the allocated chunks is torn");
        assert_eq!(seen, 1, "the allocated chunk was still walked safely");
        // A length past the table itself is refused before any row.
        rows.rows_len.store(rows.capacity() + 1, Ordering::SeqCst);
        assert!(!rows.scan(|_, _, _| panic!("no row may be visited")));
    }

    #[test]
    fn commit_skipping_adversary_publishes_nothing() {
        let rows = SnapRows::new(false, 1024);
        rows.begin(); // no-op: the version must stay even
        rows.append(1, 10, 100);
        rows.end();
        assert_eq!(read_all(&rows), vec![], "adversary rows stay invisible");
        rows.begin();
        rows.kill(1); // tolerated: the row was never published
        rows.end();
    }

    #[test]
    fn mirror_depth_matches_depth_stats() {
        let m = MirrorDepth::new();
        let mut d = DepthStats::default();
        for v in [4u64, 0, 9, 2] {
            m.record(v);
            d.record(v);
        }
        let got = m.snapshot();
        assert_eq!(
            (got.count, got.sum, got.max, got.min),
            (d.count, d.sum, d.max, d.min)
        );
        assert_eq!(MirrorDepth::new().snapshot(), DepthStats::default());
    }

    #[test]
    fn mirror_stats_snapshot_counts_everything() {
        let m = MirrorStats::new();
        m.umq_search.record(5);
        m.prq_search.record(2);
        m.add_prq_hit();
        m.add_umq_append();
        m.note_occupancy(3, 8);
        m.note_occupancy(1, 2);
        let s = m.snapshot();
        assert_eq!(s.prq_hits, 1);
        assert_eq!(s.umq_appends, 1);
        assert_eq!(s.umq_search.sum, 5);
        assert_eq!(m.lens(), (1, 2), "lens track the latest store");
        let row = m.shard_row(LockStats::default());
        assert_eq!((row.max_prq_len, row.max_umq_len), (3, 8));
        m.clear();
        assert_eq!(m.lens(), (0, 0));
        assert_eq!(m.snapshot().prq_hits, 0);
    }
}
