//! Linked list of arrays (LLA) — the paper's spacial-locality structure
//! (§3.1, Figure 2).
//!
//! Each linked-list node stores `N` match entries in contiguous memory, plus
//! a small header (head/tail indexes into the used range) and a next link.
//! With the paper's 24-byte posted-receive entries, `N = 2` packs a node into
//! exactly one 64-byte cache line; with the 16-byte unexpected-message
//! entries, `N = 3` does. Larger `N` trades per-node pointer chases for
//! longer contiguous runs the hardware prefetchers can stream.
//!
//! Deletions from the middle of a node leave an in-band *hole* ("ensuring
//! tags and sources are invalid and all bitmask fields are set"); the
//! head/tail indexes trim holes at the node boundaries, and a fully-emptied
//! node is unlinked and returned to the element pool.
//!
//! A search scans each node's slab with the widest kernel the CPU has
//! ([`crate::simd::detect_best`]) and prefetches no node ahead: aligned,
//! contiguous lines let the hardware prefetchers stream the list (the
//! structure's whole argument), and every walk predicts the next node from
//! the pool id, so on an append-built chain no hop waits for its link (DESIGN
//! decision 15). Nodes wider than 32 slots stream their own next window.

use crate::addr::AddrSpace;
use crate::entry::{Element, PackedProbe, PostedEntry, ProbeKey, UnexpectedEntry};
use crate::list::{first_match, Footprint, MatchList, Search};
use crate::pool::{Pool, NIL};
use crate::prefetch;
use crate::simd;
use crate::sink::AccessSink;

/// One LLA node: header (8 B) + `N` entries + next link, padded to a
/// multiple of 64 bytes by the alignment.
///
/// The header packs the head/tail trim indexes into 16 bits each, freeing
/// 32 header bits for a per-slot occupancy bitmap (`occ`) without growing
/// the node: bit `i` set ⟺ `entries[i]` is live. Scans iterate set bits
/// via `trailing_zeros` instead of loading hole entries, and append's
/// free-slot search is a bit-scan. Nodes with more than 32 slots (the
/// "large arrays" configuration) leave `occ` at zero and fall back to the
/// in-band hole test; the `HOLE_CONTEXT` marks are maintained either way,
/// so the bitmap is an accelerator, never the source of truth.
#[repr(C, align(64))]
#[derive(Clone, Copy, Debug)]
pub struct LlaNode<E: Element, const N: usize> {
    /// Index of the first live slot (holes before it have been trimmed).
    head: u16,
    /// One past the last used slot.
    tail: u16,
    /// Per-slot occupancy bitmap (exact only when `N <= 32`, else zero).
    occ: u32,
    /// The packed entries; slots in `head..tail` may contain holes.
    entries: [E; N],
    /// Pool id of the next node, or [`NIL`].
    next: u32,
}

// Figure 2's load-bearing arithmetic: 2 posted entries (24 B each) or 3
// unexpected entries (16 B each) plus the header fit exactly one cache line.
const _: () = assert!(core::mem::size_of::<LlaNode<PostedEntry, 2>>() == 64);
const _: () = assert!(core::mem::size_of::<LlaNode<UnexpectedEntry, 3>>() == 64);
const _: () = assert!(core::mem::size_of::<LlaNode<PostedEntry, 8>>() == 256);

impl<E: Element, const N: usize> LlaNode<E, N> {
    /// Whether `occ` has a bit for every slot. Beyond 32 slots the bitmap
    /// is left at zero and scans use the in-band hole marks.
    const BITMAP: bool = N <= 32;

    fn empty() -> Self {
        Self {
            head: 0,
            tail: 0,
            occ: 0,
            entries: [E::hole(); N],
            next: NIL,
        }
    }

    #[inline]
    fn occ_set(&mut self, i: usize) {
        if Self::BITMAP {
            self.occ |= 1 << i;
        }
    }

    #[inline]
    fn occ_clear(&mut self, i: usize) {
        if Self::BITMAP {
            self.occ &= !(1 << i);
        }
    }

    /// Byte offset of `entries[i]` within the node (repr(C): header is 8 B).
    #[inline]
    fn entry_offset(i: usize) -> u64 {
        8 + (i * core::mem::size_of::<E>()) as u64
    }

    /// Byte offset of the `next` link within the node.
    #[inline]
    fn next_offset() -> u64 {
        Self::entry_offset(N)
    }
}

/// The one chase over an LLA chain. The walk predicts, the link verifies: on
/// a `cur + 1` link inside the chunk (an append-built chain's) the next node
/// is `slot + 1` off the cached chunk base, an address the CPU forms without
/// waiting for the link; other links are split, re-reading the base only on
/// a chunk change.
struct Chain<'p, E: Element, const N: usize> {
    pool: &'p Pool<LlaNode<E, N>>,
    /// The node under the cursor ([`NIL`] past the tail) and the one before.
    cur: u32,
    prev: u32,
    /// `pool.split_id(cur)` and `pool.chunk_raw(chunk)`.
    chunk: usize,
    slot: usize,
    base: *const LlaNode<E, N>,
    sim: u64,
}

impl<'p, E: Element, const N: usize> Chain<'p, E, N> {
    #[inline(always)]
    fn new(pool: &'p Pool<LlaNode<E, N>>, head: u32) -> Self {
        let mut c = Self {
            pool,
            cur: NIL,
            prev: NIL,
            chunk: usize::MAX,
            slot: usize::MAX, // no slot yet: the step to `head` is not predicted
            base: core::ptr::null(),
            sim: 0,
        };
        c.advance(head);
        c
    }

    /// Moves to `next`, the link of the node under the cursor.
    #[inline(always)]
    fn advance(&mut self, next: u32) {
        (self.prev, self.cur) = (self.cur, next);
        // A live id is below `NIL - 1` (`pool::chunk_ids`): no predicted `NIL`.
        if next == self.prev.wrapping_add(1) && self.slot < self.pool.chunk_capacity() - 1 {
            #[cfg(feature = "debug_invariants")]
            assert_eq!(self.pool.split_id(next), (self.chunk, self.slot + 1));
            self.slot += 1;
        } else if next != NIL {
            let (c, i) = self.pool.split_id(next);
            if c != self.chunk {
                (self.base, self.sim) = self.pool.chunk_raw(c);
                self.chunk = c;
            }
            self.slot = i;
        }
    }

    /// The node under the cursor and its simulated address (`None` past the tail).
    #[inline(always)]
    fn node(&self) -> Option<(u64, &'p LlaNode<E, N>)> {
        (self.cur != NIL).then(|| {
            let addr = self.sim + (self.slot * core::mem::size_of::<LlaNode<E, N>>()) as u64;
            // SAFETY: `cur != NIL`: `chunk` passed `chunk_raw`'s bounds check
            // and `slot` is below its capacity (split from an id, or predicted
            // below `capacity - 1`), so this is an initialised node of a chunk
            // that never moves; `'p` borrows the pool, so nothing mutates it.
            (addr, unsafe { &*self.base.add(self.slot) })
        })
    }
}

/// The linked-list-of-arrays match queue.
///
/// `N` is the number of entries per node (the paper sweeps 2, 4, 8, 16, 32
/// and a "large arrays" configuration). Nodes come from a chunked element
/// pool whose storage never moves, so a hot-caching heater can be pointed at
/// [`Lla::real_regions`] safely.
pub struct Lla<E: Element, const N: usize> {
    pool: Pool<LlaNode<E, N>>,
    addr: AddrSpace,
    head: u32,
    tail: u32,
    len: usize,
}

impl<E: Element, const N: usize> Lla<E, N> {
    /// Creates an empty queue drawing simulated addresses from `addr`.
    pub fn with_addr(addr: AddrSpace) -> Self {
        assert!(N >= 1, "an LLA node must hold at least one entry");
        Self {
            pool: Pool::new(LlaNode::empty()),
            addr,
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    /// Creates an empty queue in a fresh, non-overlapping simulated region.
    pub fn new() -> Self {
        Self::with_addr(AddrSpace::contiguous(crate::addr::fresh_region_base()))
    }

    /// Real `(pointer, len)` chunk regions for the hot-caching heater.
    pub fn real_regions(&self) -> Vec<(*const u8, usize)> {
        self.pool.real_regions()
    }

    /// Entries per node.
    pub const fn arity(&self) -> usize {
        N
    }

    /// Number of nodes currently linked into the list.
    pub fn node_count(&self) -> usize {
        self.pool.live()
    }

    /// Linked nodes with their pool ids, head to tail.
    fn nodes(&self) -> impl Iterator<Item = (u32, &LlaNode<E, N>)> {
        let mut c = Chain::new(&self.pool, self.head);
        std::iter::from_fn(move || {
            let (id, (_, n)) = (c.cur, c.node()?);
            c.advance(n.next);
            Some((id, n))
        })
    }

    /// Live entries in FIFO order, walked in place (holes skipped).
    fn live(&self) -> impl Iterator<Item = &E> {
        self.nodes().flat_map(|(_, n)| {
            n.entries[n.head as usize..n.tail as usize]
                .iter()
                .filter(|e| !e.is_hole())
        })
    }

    /// Unlinks `cur` (whose predecessor is `prev`) and returns it to the pool.
    fn unlink(&mut self, prev: u32, cur: u32) {
        let next = self.pool.get(cur).next;
        if prev == NIL {
            self.head = next;
        } else {
            self.pool.get_mut(prev).next = next;
        }
        if self.tail == cur {
            self.tail = prev;
        }
        self.pool.dealloc(cur);
    }

    /// Removes the entry at `idx` in node `cur`, maintaining the hole/trim
    /// invariants and unlinking the node if it empties.
    fn remove_at<S: AccessSink>(&mut self, prev: u32, cur: u32, idx: u32, sink: &mut S) {
        let node_addr = self.pool.sim_addr(cur);
        let node = self.pool.get_mut(cur);
        node.entries[idx as usize] = E::hole();
        node.occ_clear(idx as usize);
        sink.write(node_addr + LlaNode::<E, N>::entry_offset(idx as usize), {
            core::mem::size_of::<E>() as u32
        });
        // Trim holes at the boundaries so head/tail tightly bound live data.
        if LlaNode::<E, N>::BITMAP {
            if node.occ == 0 {
                node.head = 0;
                node.tail = 0;
            } else {
                let h = node.occ.trailing_zeros();
                let t = 32 - node.occ.leading_zeros();
                #[cfg(feature = "debug_invariants")]
                {
                    // Width guard on the u32-scan → u16-trim narrowing: the
                    // recomputed bounds must bracket the occupancy bitmap
                    // exactly *and* stay within the node's N slots — a stray
                    // occupancy bit at position >= N (the bitmap is 32 bits
                    // wide regardless of N) would otherwise narrow into a
                    // tail that walks slots the node does not have.
                    assert!(
                        h < t && t as usize <= N,
                        "LLA-{N}: trim bounds {h}..{t} out of range after remove"
                    );
                    let range = (((1u64 << t) - 1) & !((1u64 << h) - 1)) as u32;
                    assert!(
                        node.occ & !range == 0,
                        "LLA-{N}: occupancy {:#b} outside trim {h}..{t}",
                        node.occ
                    );
                    assert!(
                        node.occ >> h & 1 == 1 && node.occ >> (t - 1) & 1 == 1,
                        "LLA-{N}: trim {h}..{t} not tight against {:#b}",
                        node.occ
                    );
                }
                node.head = h as u16;
                node.tail = t as u16;
            }
        } else {
            while node.head < node.tail && node.entries[node.head as usize].is_hole() {
                node.head += 1;
            }
            while node.tail > node.head && node.entries[node.tail as usize - 1].is_hole() {
                node.tail -= 1;
            }
        }
        sink.write(node_addr, 8);
        let empty = node.head == node.tail;
        self.len -= 1;
        if empty {
            self.unlink(prev, cur);
        }
        #[cfg(feature = "debug_invariants")]
        if !empty {
            self.debug_check_node(cur);
        }
    }

    /// Walks the list calling `test` on each live entry; on `true`, removes
    /// that entry and returns it with the inspection depth.
    fn walk_remove<S: AccessSink>(
        &mut self,
        sink: &mut S,
        mut test: impl FnMut(&E) -> bool,
    ) -> Search<E> {
        let mut depth = 0u32;
        let mut c = Chain::new(&self.pool, self.head);
        while let Some((node_addr, n)) = c.node() {
            sink.read(node_addr, 8); // head/tail indexes
            for i in n.head as usize..n.tail as usize {
                let e = n.entries[i];
                sink.read(
                    node_addr + LlaNode::<E, N>::entry_offset(i),
                    core::mem::size_of::<E>() as u32,
                );
                if e.is_hole() {
                    continue;
                }
                depth += 1;
                if test(&e) {
                    self.remove_at(c.prev, c.cur, i as u32, sink);
                    return Search::hit(e, depth);
                }
            }
            sink.read(node_addr + LlaNode::<E, N>::next_offset(), 4);
            c.advance(n.next);
        }
        Search::miss(depth)
    }

    /// [`MatchList::search_remove`] under a named slab-scan kernel — the
    /// only way to name one. `search_remove` passes [`simd::detect_best`];
    /// tests and the benchmark gate pass weaker kinds to compare kernels on
    /// one host. `kind` is clamped to what the CPU supports, so a kind it
    /// cannot run degrades to the best one it can instead of faulting.
    ///
    /// The walk body is monomorphised per kind through `#[target_feature]`
    /// wrappers so the vector kernels inline into the node loop — the probe
    /// splats hoist out of the loop and no per-node call (or AVX/SSE
    /// transition) is paid; dispatching per node instead costs more than
    /// the vector kernels save on small nodes.
    #[doc(hidden)]
    pub fn search_remove_as<S: AccessSink>(
        &mut self,
        kind: simd::ScanKind,
        probe: &E::Probe,
        sink: &mut S,
    ) -> Search<E> {
        let probe = probe.packed();
        match simd::clamp_supported(kind) {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `clamp_supported` yields `Simd256` only after
            // `is_x86_feature_detected!("avx2")`.
            simd::ScanKind::Simd256 => unsafe { self.packed_walk_avx2(&probe, sink) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: SSE2 is part of the x86-64 baseline ISA.
            simd::ScanKind::Simd128 => unsafe { self.packed_walk_sse2(&probe, sink) },
            _ => self.packed_walk_body(simd::ScanKind::Portable, &probe, sink),
        }
    }

    /// AVX2-enabled instantiation of the walk body: the `simd` kernels it
    /// calls carry the same target feature, so they inline into the node
    /// loop instead of paying a call per node.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available (runtime-detected).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn packed_walk_avx2<S: AccessSink>(
        &mut self,
        probe: &PackedProbe,
        sink: &mut S,
    ) -> Search<E> {
        self.packed_walk_body(simd::ScanKind::Simd256, probe, sink)
    }

    /// SSE2-enabled instantiation of the walk body (x86-64 baseline ISA).
    ///
    /// # Safety
    /// Caller must ensure SSE2 is available (x86-64 baseline: always).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "sse2")]
    unsafe fn packed_walk_sse2<S: AccessSink>(
        &mut self,
        probe: &PackedProbe,
        sink: &mut S,
    ) -> Search<E> {
        self.packed_walk_body(simd::ScanKind::Simd128, probe, sink)
    }

    /// The packed-key walk. It differs from [`Self::walk_remove`] in
    /// latency only: node slabs are scanned through the [`simd`] kernels —
    /// 2 (SSE2) or 4 (AVX2) packed key/mask pairs per instruction, the
    /// scalar packed loop otherwise — with the resulting candidate bitmap
    /// ANDed with the occupancy register (`N <= 32`) or the hole bitmap
    /// (windowed large-arity scan) and bit-scanned to the first live hit.
    ///
    /// No node is prefetched ahead: pool nodes are line-aligned and
    /// contiguous, and an append-built chain links them in ascending id
    /// order — the stream the hardware prefetchers follow on their own (the
    /// paper's §3.1 argument), and the one `Chain` predicts, so no hop waits
    /// for its link. Only the large-arity window scan hints, inside a node.
    #[inline(always)]
    fn packed_walk_body<S: AccessSink>(
        &mut self,
        kind: simd::ScanKind,
        probe: &PackedProbe,
        sink: &mut S,
    ) -> Search<E> {
        let mut depth = 0u32;
        let mut c = Chain::new(&self.pool, self.head);
        while let Some((node_addr, node)) = c.node() {
            sink.read(node_addr, 8); // head/tail/occupancy header
            let mut hit: Option<(u32, E)> = None;
            if LlaNode::<E, N>::BITMAP {
                // Batched node scan: [`simd::scan_candidates`] evaluates
                // the one-`u64` packed test on every slot — 2 or 4 lanes
                // per instruction under the SIMD kinds, the same
                // branchless `m << i` accumulate loop under the portable
                // kind — then the candidate bitmap is masked with the
                // occupancy register: stale hole bodies and slots outside
                // the trim range can never match, and no per-slot branch
                // exists for the predictor to miss. The candidate set
                // decides hit/miss with one branch per node; depth comes
                // from a popcount over the live bits actually inspected.
                // Sink charges are issued for exactly the live slots the
                // sequential scan would have read, so simulated traces are
                // identical across scan kinds (and the charge loops fold
                // to nothing under `NullSink`).
                let occ = node.occ;
                let h = node.head as usize;
                let t = (node.tail as usize).min(N);
                let cand = simd::scan_candidates(kind, &node.entries, probe) & occ;
                if cand == 0 {
                    for i in h..t {
                        if occ >> i & 1 == 1 {
                            sink.read(
                                node_addr + LlaNode::<E, N>::entry_offset(i),
                                core::mem::size_of::<E>() as u32,
                            );
                        }
                    }
                    depth += occ.count_ones();
                } else {
                    let i = cand.trailing_zeros() as usize;
                    for j in h..=i {
                        if occ >> j & 1 == 1 {
                            sink.read(
                                node_addr + LlaNode::<E, N>::entry_offset(j),
                                core::mem::size_of::<E>() as u32,
                            );
                        }
                    }
                    // Live bits at or below the hit (`31 - i` keeps the
                    // all-ones mask well-defined when the hit is slot 31).
                    depth += (occ & (u32::MAX >> (31 - i))).count_ones();
                    hit = Some((i as u32, node.entries[i]));
                }
            } else {
                // Large-arity fallback: no occupancy register, so scan
                // `head..tail` in 32-slot windows through the slab kernels
                // and mask hole slots out of the candidates ([`simd::scan_slab`]
                // derives both bitmaps from the same loads; a hole can
                // otherwise packed-match a degenerate probe carrying the
                // reserved context). Sink charges and depth accounting are
                // identical to the retired per-slot loop: every slot up to
                // and including the hit is charged in order, and depth
                // counts live slots only.
                let h = node.head as usize;
                let t = node.tail as usize;
                let mut ws = h;
                while ws < t {
                    let wlen = (t - ws).min(32);
                    let wmask = (u32::MAX as u64 >> (32 - wlen)) as u32;
                    if ws + wlen < t {
                        // The slab spans many lines; streaming the next
                        // window's lines while this one is tested keeps the
                        // batched compare fed (the hardware streamer lags
                        // a 2–4-entry-per-instruction consumer), and the
                        // window address needs no dependent load.
                        let next_len = (t - ws - wlen).min(32);
                        prefetch::read_span(
                            node.entries[ws + wlen..].as_ptr(),
                            next_len * core::mem::size_of::<E>(),
                        );
                    }
                    let scan = simd::scan_slab(kind, &node.entries[ws..ws + wlen], probe);
                    let live = !scan.holes & wmask;
                    let cand = scan.cand & live;
                    if cand == 0 {
                        for j in ws..ws + wlen {
                            sink.read(
                                node_addr + LlaNode::<E, N>::entry_offset(j),
                                core::mem::size_of::<E>() as u32,
                            );
                        }
                        depth += live.count_ones();
                        ws += wlen;
                    } else {
                        let ci = cand.trailing_zeros() as usize;
                        for j in ws..=ws + ci {
                            sink.read(
                                node_addr + LlaNode::<E, N>::entry_offset(j),
                                core::mem::size_of::<E>() as u32,
                            );
                        }
                        // Live bits at or below the hit (`31 - ci` keeps
                        // the all-ones mask well-defined at slot 31).
                        depth += (live & (u32::MAX >> (31 - ci))).count_ones();
                        hit = Some(((ws + ci) as u32, node.entries[ws + ci]));
                        break;
                    }
                }
            }
            if let Some((i, e)) = hit {
                self.remove_at(c.prev, c.cur, i, sink);
                return Search::hit(e, depth);
            }
            sink.read(node_addr + LlaNode::<E, N>::next_offset(), 4);
            c.advance(node.next);
        }
        Search::miss(depth)
    }

    /// The reference scan: every trim-range slot loaded and charged, in-band
    /// hole test, field-by-field [`Element::matches`]. The equivalence tests
    /// and the benchmark gate compare the packed bitmap walk against it.
    pub fn search_remove_fieldwise<S: AccessSink>(
        &mut self,
        probe: &E::Probe,
        sink: &mut S,
    ) -> Search<E> {
        self.walk_remove(sink, |e| e.matches(probe))
    }

    /// Checks one linked node's occupancy bitmap and trim indexes against
    /// the in-band `HOLE_CONTEXT` marks (the source of truth).
    fn check_node(n: &LlaNode<E, N>, cur: u32) -> Result<(), String> {
        let (h, t) = (n.head as usize, n.tail as usize);
        if h >= t || t > N {
            return Err(format!("node {cur}: bad trim range {h}..{t} (N = {N})"));
        }
        for i in 0..N {
            let live = !n.entries[i].is_hole();
            if live && (i < h || i >= t) {
                return Err(format!("node {cur}: live slot {i} outside {h}..{t}"));
            }
            if LlaNode::<E, N>::BITMAP && (n.occ >> i & 1 == 1) != live {
                return Err(format!(
                    "node {cur} slot {i}: bitmap says {}, in-band mark says {}",
                    n.occ >> i & 1 == 1,
                    live
                ));
            }
        }
        if LlaNode::<E, N>::BITMAP {
            if n.occ.trailing_zeros() as usize != h {
                return Err(format!("node {cur}: head {h} vs occ {:#b}", n.occ));
            }
            if (32 - n.occ.leading_zeros()) as usize != t {
                return Err(format!("node {cur}: tail {t} vs occ {:#b}", n.occ));
            }
        } else if n.occ != 0 {
            return Err(format!("node {cur}: occ must stay 0 when N > 32"));
        }
        if n.entries[h].is_hole() || n.entries[t - 1].is_hole() {
            return Err(format!("node {cur}: untrimmed boundary hole in {h}..{t}"));
        }
        Ok(())
    }

    /// Checks every linked node's occupancy bitmap and trim indexes against
    /// the in-band `HOLE_CONTEXT` marks (the source of truth).
    ///
    /// First-class invariant checker: [`MatchList::validate`] builds on it,
    /// the conformance drivers call it (through `validate`) after every
    /// mutating op under `--features debug_invariants`, and the same
    /// feature makes `append`/`remove_at` re-check the touched node
    /// immediately. O(nodes × N); never called on the measured path.
    pub fn validate_occupancy(&self) -> Result<(), String> {
        self.nodes()
            .try_for_each(|(cur, n)| Self::check_node(n, cur))
    }

    /// Under `debug_invariants`: panics if node `cur`'s occupancy/trim
    /// state is inconsistent. Compiled out otherwise.
    #[cfg(feature = "debug_invariants")]
    fn debug_check_node(&self, cur: u32) {
        if let Err(e) = Self::check_node(self.pool.get(cur), cur) {
            panic!("LLA-{N} node invariant violated after mutation: {e}");
        }
    }
}

impl<E: Element, const N: usize> Default for Lla<E, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Element, const N: usize> MatchList<E> for Lla<E, N> {
    fn append<S: AccessSink>(&mut self, e: E, sink: &mut S) {
        // Fast path: room at the tail node.
        if self.tail != NIL {
            let tail_addr = self.pool.sim_addr(self.tail);
            let node = self.pool.get_mut(self.tail);
            if (node.tail as usize) < N {
                // The free slot is a bit-scan on bitmap nodes: one past the
                // highest set occupancy bit. Appending never reuses interior
                // holes — that would break FIFO slot order — so this always
                // lands exactly on the trimmed `tail` index.
                let i = if LlaNode::<E, N>::BITMAP && node.occ != 0 {
                    let slot = (32 - node.occ.leading_zeros()) as usize;
                    debug_assert_eq!(slot, node.tail as usize);
                    slot
                } else {
                    node.tail as usize
                };
                node.entries[i] = e;
                node.occ_set(i);
                node.tail = (i + 1) as u16;
                sink.write(tail_addr + LlaNode::<E, N>::entry_offset(i), {
                    core::mem::size_of::<E>() as u32
                });
                sink.write(tail_addr, 8);
                self.len += 1;
                #[cfg(feature = "debug_invariants")]
                self.debug_check_node(self.tail);
                return;
            }
        }
        // Grow: take a node from the pool and link it at the tail.
        let mut node = LlaNode::empty();
        node.entries[0] = e;
        node.occ_set(0);
        node.tail = 1;
        let id = self.pool.alloc(node, &mut self.addr);
        let addr = self.pool.sim_addr(id);
        // Record the same traffic as the fast path: the entry written into
        // slot 0 plus the header. Recording the whole node here would charge
        // N-1 untouched slots (12 KiB of phantom writes per append at
        // N = 512) and skew the slow path's simulated cost.
        sink.write(
            addr + LlaNode::<E, N>::entry_offset(0),
            core::mem::size_of::<E>() as u32,
        );
        sink.write(addr, 8);
        if self.tail == NIL {
            self.head = id;
        } else {
            let prev_addr = self.pool.sim_addr(self.tail);
            self.pool.get_mut(self.tail).next = id;
            sink.write(prev_addr + LlaNode::<E, N>::next_offset(), 4);
        }
        self.tail = id;
        self.len += 1;
        #[cfg(feature = "debug_invariants")]
        self.debug_check_node(id);
    }

    fn search_remove<S: AccessSink>(&mut self, probe: &E::Probe, sink: &mut S) -> Search<E> {
        self.search_remove_as(simd::detect_best(), probe, sink)
    }

    fn remove_by_id<S: AccessSink>(&mut self, id: u64, sink: &mut S) -> Option<E> {
        self.walk_remove(sink, |e| e.id() == id).found
    }

    fn len(&self) -> usize {
        self.len
    }

    fn snapshot(&self) -> Vec<E> {
        let mut out = Vec::with_capacity(self.len);
        out.extend(self.live());
        out
    }

    fn find_first(&self, probe: &E::Probe) -> Option<(E, u32)> {
        first_match(self.live(), probe)
    }

    fn clear(&mut self) {
        self.pool.reset();
        self.head = NIL;
        self.tail = NIL;
        self.len = 0;
    }

    fn footprint(&self) -> Footprint {
        Footprint {
            bytes: self.pool.bytes(),
            allocations: self.pool.allocations(),
        }
    }

    fn heat_regions(&self, out: &mut Vec<(u64, u64)>) {
        self.pool.sim_regions(out);
    }

    fn kind_name(&self) -> String {
        format!("LLA-{N}")
    }

    fn validate(&self) -> Result<(), String> {
        self.validate_occupancy()?;
        self.pool.validate()?;
        // Length agreement: the walk, the cached `len`, and the pool's live
        // count must tell the same story.
        if let Some((last, _)) = self.nodes().last().filter(|&(last, _)| last != self.tail) {
            return Err(format!("last node {last} is not the tail {}", self.tail));
        }
        let (live, nodes) = (self.live().count(), self.nodes().count());
        if live != self.len {
            return Err(format!(
                "walked {live} live entries but len == {}",
                self.len
            ));
        }
        if nodes != self.pool.live() {
            return Err(format!(
                "walked {nodes} linked nodes but the pool has {} live",
                self.pool.live()
            ));
        }
        Ok(())
    }
}

/// The paper's cache-line posted-receive configuration: 2 entries per node.
pub fn posted_cacheline() -> Lla<PostedEntry, 2> {
    Lla::new()
}

/// The paper's cache-line unexpected-message configuration: 3 entries per
/// node.
pub fn unexpected_cacheline() -> Lla<UnexpectedEntry, 3> {
    Lla::new()
}

/// The "linked list of large arrays" configuration used for the FDS study at
/// 8192 processes (§4.5).
pub fn posted_large() -> Lla<PostedEntry, 512> {
    Lla::new()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{Envelope, RecvSpec, ANY_SOURCE};
    use crate::simd::ScanKind;
    use crate::sink::{Access, CountingSink, NullSink, TraceSink};
    use spc_rng::{Rng, SeedableRng, SliceRandom, StdRng};

    fn post(rank: i32, tag: i32, req: u64) -> PostedEntry {
        PostedEntry::from_spec(RecvSpec::new(rank, tag, 0), req)
    }

    #[test]
    fn node_layouts_match_figure_2() {
        assert_eq!(core::mem::size_of::<LlaNode<PostedEntry, 2>>(), 64);
        assert_eq!(core::mem::size_of::<LlaNode<UnexpectedEntry, 3>>(), 64);
        assert_eq!(core::mem::size_of::<LlaNode<PostedEntry, 4>>(), 128);
        assert_eq!(core::mem::size_of::<LlaNode<PostedEntry, 8>>(), 256);
        assert_eq!(core::mem::align_of::<LlaNode<PostedEntry, 2>>(), 64);
    }

    #[test]
    fn fifo_order_is_preserved() {
        let mut l: Lla<PostedEntry, 2> = Lla::new();
        let mut s = NullSink;
        for i in 0..10 {
            l.append(post(1, i, i as u64), &mut s);
        }
        let snap = l.snapshot();
        assert_eq!(snap.len(), 10);
        for (i, e) in snap.iter().enumerate() {
            assert_eq!(e.tag, i as i32);
        }
    }

    #[test]
    fn search_finds_earliest_match_and_reports_depth() {
        let mut l: Lla<PostedEntry, 4> = Lla::new();
        let mut s = NullSink;
        l.append(post(1, 10, 0), &mut s);
        l.append(post(2, 20, 1), &mut s);
        l.append(post(2, 20, 2), &mut s); // same key, posted later
        let r = l.search_remove(&Envelope::new(2, 20, 0), &mut s);
        assert_eq!(r.found.unwrap().request, 1, "earliest posted wins");
        assert_eq!(r.depth, 2);
        assert_eq!(l.len(), 2);
        // Second search should find the later one.
        let r = l.search_remove(&Envelope::new(2, 20, 0), &mut s);
        assert_eq!(r.found.unwrap().request, 2);
    }

    #[test]
    fn middle_removal_leaves_hole_then_skips_it() {
        let mut l: Lla<PostedEntry, 4> = Lla::new();
        let mut s = NullSink;
        for i in 0..4 {
            l.append(post(i, i, i as u64), &mut s);
        }
        // Remove entry in the middle of the node.
        assert!(l
            .search_remove(&Envelope::new(1, 1, 0), &mut s)
            .found
            .is_some());
        assert_eq!(l.len(), 3);
        let snap = l.snapshot();
        assert_eq!(
            snap.iter().map(|e| e.request).collect::<Vec<_>>(),
            vec![0, 2, 3]
        );
        // A non-destructive probe counts FIFO positions past the hole.
        let found = l.find_first(&Envelope::new(3, 3, 0));
        assert_eq!(found.map(|(e, d)| (e.request, d)), Some((3, 3)));
        assert_eq!(l.find_first(&Envelope::new(1, 1, 0)), None);
        // A subsequent full-miss search inspects only live entries.
        let r = l.search_remove(&Envelope::new(9, 9, 0), &mut s);
        assert_eq!(r.depth, 3);
    }

    #[test]
    fn emptied_node_is_unlinked_and_reused() {
        let mut l: Lla<PostedEntry, 2> = Lla::new();
        let mut s = NullSink;
        for i in 0..6 {
            l.append(post(0, i, i as u64), &mut s);
        }
        assert_eq!(l.node_count(), 3);
        // Drain the middle node (tags 2 and 3).
        l.search_remove(&Envelope::new(0, 2, 0), &mut s)
            .found
            .unwrap();
        l.search_remove(&Envelope::new(0, 3, 0), &mut s)
            .found
            .unwrap();
        assert_eq!(l.node_count(), 2);
        assert_eq!(
            l.snapshot().iter().map(|e| e.tag).collect::<Vec<_>>(),
            vec![0, 1, 4, 5]
        );
        // Appends still work and traversal still terminates.
        l.append(post(0, 99, 99), &mut s);
        assert_eq!(l.len(), 5);
        assert_eq!(l.snapshot().last().unwrap().tag, 99);
    }

    #[test]
    fn draining_head_and_tail_nodes_keeps_links_consistent() {
        let mut l: Lla<PostedEntry, 2> = Lla::new();
        let mut s = NullSink;
        for i in 0..6 {
            l.append(post(0, i, i as u64), &mut s);
        }
        // Drain the head node.
        l.search_remove(&Envelope::new(0, 0, 0), &mut s)
            .found
            .unwrap();
        l.search_remove(&Envelope::new(0, 1, 0), &mut s)
            .found
            .unwrap();
        // Drain the tail node.
        l.search_remove(&Envelope::new(0, 4, 0), &mut s)
            .found
            .unwrap();
        l.search_remove(&Envelope::new(0, 5, 0), &mut s)
            .found
            .unwrap();
        assert_eq!(
            l.snapshot().iter().map(|e| e.tag).collect::<Vec<_>>(),
            vec![2, 3]
        );
        l.append(post(0, 7, 7), &mut s);
        assert_eq!(
            l.snapshot().iter().map(|e| e.tag).collect::<Vec<_>>(),
            vec![2, 3, 7]
        );
    }

    #[test]
    fn wildcard_entries_match_any_source() {
        let mut l: Lla<PostedEntry, 2> = Lla::new();
        let mut s = NullSink;
        l.append(
            PostedEntry::from_spec(RecvSpec::new(crate::ANY_SOURCE, 5, 0), 1),
            &mut s,
        );
        let r = l.search_remove(&Envelope::new(42, 5, 0), &mut s);
        assert_eq!(r.found.unwrap().request, 1);
    }

    #[test]
    fn remove_by_id_cancels_the_right_entry() {
        let mut l: Lla<PostedEntry, 2> = Lla::new();
        let mut s = NullSink;
        for i in 0..5 {
            l.append(post(0, 1, 100 + i), &mut s);
        }
        let e = l.remove_by_id(102, &mut s).unwrap();
        assert_eq!(e.request, 102);
        assert!(l.remove_by_id(102, &mut s).is_none());
        assert_eq!(l.len(), 4);
    }

    #[test]
    fn clear_resets_but_keeps_pool_storage() {
        let mut l: Lla<PostedEntry, 2> = Lla::new();
        let mut s = NullSink;
        for i in 0..100 {
            l.append(post(0, i, i as u64), &mut s);
        }
        let bytes = l.footprint().bytes;
        l.clear();
        assert_eq!(l.len(), 0);
        assert!(l.is_empty());
        assert_eq!(
            l.footprint().bytes,
            bytes,
            "chunks are retained for the heater"
        );
        l.append(post(0, 1, 1), &mut s);
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn packing_touches_fewer_lines_than_one_per_entry() {
        // 64 entries at 2/node = 32 nodes = 32 lines; scanning all of them
        // must touch exactly 32 distinct lines (contiguous pool).
        let mut l: Lla<PostedEntry, 2> = Lla::with_addr(AddrSpace::contiguous(1 << 30));
        let mut s = NullSink;
        for i in 0..64 {
            l.append(post(0, i, i as u64), &mut s);
        }
        let mut c = CountingSink::new();
        let r = l.search_remove(&Envelope::new(7, 7, 7), &mut c); // guaranteed miss
        assert!(r.found.is_none());
        assert_eq!(r.depth, 64);
        assert_eq!(c.distinct_lines(), 32);

        // With 8 entries per node the same 64 entries sit in 8 × 256-byte
        // nodes = 32 lines as well, but header overhead amortizes; with the
        // 16-byte unexpected entries, 3 per line beats 1 per line by 3x.
        let mut l8: Lla<PostedEntry, 8> = Lla::with_addr(AddrSpace::contiguous(1 << 31));
        for i in 0..64 {
            l8.append(post(0, i, i as u64), &mut s);
        }
        let mut c8 = CountingSink::new();
        l8.search_remove(&Envelope::new(7, 7, 7), &mut c8);
        assert_eq!(c8.distinct_lines(), 32);
    }

    #[test]
    fn bitmap_tracks_inband_holes_through_punch_append_reuse() {
        // Every mutation step must keep the occupancy bitmap in exact
        // agreement with the in-band HOLE_CONTEXT marks.
        let mut l: Lla<PostedEntry, 4> = Lla::new();
        let mut s = NullSink;
        for i in 0..12 {
            l.append(post(0, i, i as u64), &mut s);
            l.validate_occupancy().unwrap();
        }
        // Punch interior holes in every node.
        for tag in [1, 2, 5, 9, 10] {
            l.search_remove(&Envelope::new(0, tag, 0), &mut s)
                .found
                .unwrap();
            l.validate_occupancy().unwrap();
        }
        // Refill: appends go to the tail, never into interior holes.
        for i in 0..6 {
            l.append(post(1, i, 100 + i as u64), &mut s);
            l.validate_occupancy().unwrap();
        }
        assert_eq!(l.len(), 13);
        // Drain completely, validating after each removal (covers the
        // node-emptied unlink edge at head, middle, and tail nodes).
        while let Some(e) = l.snapshot().first().copied() {
            assert!(l.remove_by_id(e.id(), &mut s).is_some());
            l.validate_occupancy().unwrap();
        }
        assert!(l.is_empty());
        // Reuse the now-freed pool nodes.
        for i in 0..8 {
            l.append(post(2, i, 200 + i as u64), &mut s);
            l.validate_occupancy().unwrap();
        }
        assert_eq!(l.len(), 8);
    }

    #[test]
    fn bitmap_handles_node_full_and_single_slot_edges() {
        // N = 32 exercises the full-width bitmap (bit 31 set, occ == !0).
        let mut l: Lla<PostedEntry, 32> = Lla::new();
        let mut s = NullSink;
        for i in 0..32 {
            l.append(post(0, i, i as u64), &mut s);
        }
        l.validate_occupancy().unwrap();
        assert_eq!(l.node_count(), 1);
        // Remove the last slot (leading-edge trim), then the first
        // (trailing-edge trim), then everything but one interior slot.
        l.search_remove(&Envelope::new(0, 31, 0), &mut s)
            .found
            .unwrap();
        l.validate_occupancy().unwrap();
        l.search_remove(&Envelope::new(0, 0, 0), &mut s)
            .found
            .unwrap();
        l.validate_occupancy().unwrap();
        for i in 1..31 {
            if i == 17 {
                continue;
            }
            l.search_remove(&Envelope::new(0, i, 0), &mut s)
                .found
                .unwrap();
            l.validate_occupancy().unwrap();
        }
        assert_eq!(l.len(), 1);
        assert_eq!(l.snapshot()[0].tag, 17);
        // Emptying the node unlinks it.
        l.search_remove(&Envelope::new(0, 17, 0), &mut s)
            .found
            .unwrap();
        assert_eq!(l.node_count(), 0);
        l.validate_occupancy().unwrap();
    }

    #[test]
    fn width_32_trim_survives_boundary_hole_punches() {
        // Regression guard for the trim recompute in `remove_at`: the
        // bitmap path derives the u16 head/tail from u32 bit scans
        // (`trailing_zeros` / `32 - leading_zeros`), and at the full
        // 32-slot width those scans produce values up to 32 — which must
        // land in the 16-bit header untruncated and keep bracketing the
        // occupancy bitmap (the `debug_invariants` build asserts exactly
        // that inside `remove_at`). Punch both extreme slots of full
        // nodes, then interiors, then drain.
        let mut l: Lla<PostedEntry, 32> = Lla::new();
        let mut s = NullSink;
        for i in 0..64 {
            l.append(post(0, i, i as u64), &mut s);
        }
        assert_eq!(l.node_count(), 2);
        // Slot 31 of each node (tail trim with bit 31 live beforehand),
        // then slot 0 (head trim), then interior runs against both edges.
        for tag in [31, 63, 0, 32, 1, 2, 30, 33, 62] {
            l.search_remove(&Envelope::new(0, tag, 0), &mut s)
                .found
                .unwrap();
            l.validate_occupancy().unwrap();
        }
        // A full miss inspects exactly the surviving live entries.
        let r = l.search_remove(&Envelope::new(9, 9, 9), &mut s);
        assert!(r.found.is_none());
        assert_eq!(r.depth, 64 - 9);
        // FIFO order is intact across the punched nodes.
        let snap = l.snapshot();
        assert_eq!(snap.len(), 64 - 9);
        assert_eq!(snap[0].tag, 3);
        assert!(snap.windows(2).all(|w| w[0].tag < w[1].tag));
        // Drain by search hit, trimming through every remaining pattern.
        for e in snap {
            l.search_remove(&Envelope::new(0, e.tag, 0), &mut s)
                .found
                .unwrap();
            l.validate_occupancy().unwrap();
        }
        assert!(l.is_empty());
        assert_eq!(l.node_count(), 0);
    }

    #[test]
    fn large_arity_fallback_keeps_inband_semantics() {
        // N = 512 has no bitmap; the fallback hole-scan path must keep the
        // same trim invariants (validate_occupancy checks occ stays 0).
        let mut l: Lla<PostedEntry, 512> = Lla::new();
        let mut s = NullSink;
        for i in 0..600 {
            l.append(post(0, i, i as u64), &mut s);
        }
        l.validate_occupancy().unwrap();
        for tag in [0, 1, 300, 511, 599] {
            l.search_remove(&Envelope::new(0, tag, 0), &mut s)
                .found
                .unwrap();
            l.validate_occupancy().unwrap();
        }
        let r = l.search_remove(&Envelope::new(9, 9, 9), &mut s);
        assert_eq!(r.depth, 595);
    }

    #[test]
    fn packed_scan_matches_fieldwise_scan() {
        let mut fast: Lla<PostedEntry, 2> = Lla::new();
        let mut slow: Lla<PostedEntry, 2> = Lla::new();
        let mut s = NullSink;
        for i in 0..64 {
            let e = if i % 7 == 0 {
                PostedEntry::from_spec(RecvSpec::new(crate::ANY_SOURCE, i, 0), i as u64)
            } else {
                post(i % 5, i, i as u64)
            };
            fast.append(e, &mut s);
            slow.append(e, &mut s);
        }
        for probe in [
            Envelope::new(3, 21, 0),
            Envelope::new(2, 12, 0),
            Envelope::new(0, 999, 0), // miss
            Envelope::new(11, 14, 0), // only the wildcard matches
            Envelope::new(1, 1, 1),   // wrong context: miss
        ] {
            let a = fast.search_remove(&probe, &mut s);
            let b = slow.search_remove_fieldwise(&probe, &mut s);
            assert_eq!(a.found, b.found, "probe {probe:?}");
            assert_eq!(a.depth, b.depth, "probe {probe:?}");
        }
        assert_eq!(fast.snapshot(), slow.snapshot());
    }

    #[test]
    fn heat_regions_report_pool_chunks() {
        let mut l: Lla<PostedEntry, 2> = Lla::new();
        let mut s = NullSink;
        l.append(post(0, 0, 0), &mut s);
        let mut regions = Vec::new();
        l.heat_regions(&mut regions);
        assert_eq!(regions.len(), 1);
        assert_eq!(regions[0].1, (crate::pool::nodes_per_chunk(64) * 64) as u64);
        assert_eq!(l.real_regions().len(), 1);
    }

    #[test]
    fn unexpected_queue_variant_works() {
        let mut l: Lla<UnexpectedEntry, 3> = Lla::new();
        let mut s = NullSink;
        for i in 0..7 {
            l.append(
                UnexpectedEntry::from_envelope(Envelope::new(i, i, 0), i as u64),
                &mut s,
            );
        }
        let r = l.search_remove(&RecvSpec::new(crate::ANY_SOURCE, 4, 0), &mut s);
        assert_eq!(r.found.unwrap().payload, 4);
        assert_eq!(r.depth, 5);
        assert_eq!(l.len(), 6);
    }

    /// One op's observable outcome: the entry it matched or cancelled, the
    /// depth it reported, and every access it charged.
    type Step = (Option<u64>, u32, Vec<Access>);

    /// A chain shape the walk's successor prediction must survive.
    #[derive(Clone, Copy, Debug)]
    enum Shape {
        /// A seeded-random three quarters of the nodes drained, then as many
        /// refilled: nodes come back off the free list in random order, so
        /// links jump both ways.
        Scrambled,
        /// Every node drained in FIFO order, then refilled: nodes come back
        /// last-freed first, so every link points one id back.
        Backward,
        /// `n` fresh nodes: ascending ids, crossing a chunk boundary (`cur +
        /// 1` in the next chunk) once `n` exceeds a chunk.
        Sequential(usize),
    }

    /// Builds `shape` in an LLA-`N`, then probes it with searches under
    /// `kind` (the field-wise reference when `None`) and cancels, checking
    /// every result, `find_first` and `snapshot` against a `Vec` model and
    /// `validate()` after every op — on a chain longer than a chunk only
    /// once the build is done, so the test stays light enough for Miri. The
    /// build is step 0.
    fn chain_script<const N: usize>(shape: Shape, kind: Option<ScanKind>) -> Vec<Step> {
        let mut rng = StdRng::seed_from_u64(0x5EED_0025);
        let mut l: Lla<PostedEntry, N> = Lla::with_addr(AddrSpace::contiguous(1 << 30));
        let cap = l.pool.chunk_capacity();
        let (nodes, big) = match shape {
            Shape::Sequential(n) => (n, n > cap),
            _ => (16, false),
        };
        // Unique tags, so a probe can hit at any depth; every 11th entry is
        // a wildcard. Entry `req` starts in node `req / N`.
        let entry = |req: u64| {
            let rank = if req.is_multiple_of(11) {
                ANY_SOURCE
            } else {
                (req % 5) as i32
            };
            PostedEntry::from_spec(RecvSpec::new(rank, req as i32, 0), req)
        };
        let check = |l: &Lla<PostedEntry, N>, model: &[PostedEntry]| {
            assert_eq!(l.snapshot(), model, "{shape:?}");
            l.validate().unwrap();
        };
        let mut s = TraceSink::new();
        let mut model = Vec::new();
        let mut req = 0u64;
        let mut fill = |l: &mut Lla<PostedEntry, N>, model: &mut Vec<_>, s: &mut TraceSink| {
            for _ in 0..nodes * N {
                l.append(entry(req), s);
                model.push(entry(req));
                req += 1;
                if !big {
                    check(l, model);
                }
            }
        };
        fill(&mut l, &mut model, &mut s);
        if !matches!(shape, Shape::Sequential(_)) {
            let mut drained: Vec<u64> = (0..nodes as u64).collect();
            if matches!(shape, Shape::Scrambled) {
                drained.shuffle(&mut rng);
                drained.truncate(nodes * 3 / 4);
            }
            for id in drained
                .iter()
                .flat_map(|n| n * N as u64..(n + 1) * N as u64)
            {
                let at = model.iter().position(|e| e.request == id).unwrap();
                assert_eq!(l.remove_by_id(id, &mut s), Some(model.remove(at)));
                check(&l, &model);
            }
            fill(&mut l, &mut model, &mut s);
        }
        check(&l, &model);
        // The shape is the one named: link strides along the chain.
        let mut strides = Vec::new();
        let mut cur = l.head;
        while l.pool.get(cur).next != NIL {
            let next = l.pool.get(cur).next;
            strides.push(next as i64 - cur as i64);
            cur = next;
        }
        let shaped = match shape {
            Shape::Scrambled => strides.iter().any(|&d| d < 0) && strides.iter().any(|&d| d > 1),
            Shape::Backward => strides.iter().all(|&d| d == -1),
            Shape::Sequential(_) => strides.iter().all(|&d| d == 1),
        };
        assert!(shaped, "{shape:?}: strides {strides:?}");

        let mut steps = vec![(None, 0, s.trace.clone())];
        // Victims: either side of the chunk boundary on a long chain (a
        // fresh chain holds entry `req` at FIFO position `req`), seeded
        // picks otherwise. Every third op cancels its victim; the rest
        // search for it, sometimes under a rank that misses.
        let b = (cap * N) as u64;
        let victims = if big { 4 } else { 24 };
        for op in 0..victims + 2 {
            let (probe, cancel) = if op < victims {
                let v = if big {
                    let id = [b - 1, b, b + 1, b + 3 * N as u64][op];
                    *model.iter().find(|e| e.request == id).unwrap()
                } else {
                    model[rng.gen_range(0..model.len())]
                };
                let rank = if big {
                    v.request % 5
                } else {
                    rng.gen_range(0..6)
                };
                (
                    Envelope::new(rank as i32, v.tag, 0),
                    (op % 3 == 2).then_some(v.request),
                )
            } else {
                // A full miss under each walk.
                (Envelope::new(9, 9, 9), (op == victims).then_some(u64::MAX))
            };
            let at = model.iter().position(|e| e.matches(&probe));
            assert_eq!(l.find_first(&probe), at.map(|i| (model[i], i as u32 + 1)));
            s.clear();
            let step = if let Some(id) = cancel {
                let at = model.iter().position(|e| e.request == id);
                let got = l.remove_by_id(id, &mut s);
                assert_eq!(got, at.map(|i| model.remove(i)));
                (got.map(|e| e.request), 0)
            } else {
                let r = match kind {
                    Some(k) => l.search_remove_as(k, &probe, &mut s),
                    None => l.search_remove_fieldwise(&probe, &mut s),
                };
                assert_eq!(r.depth as usize, at.map_or(model.len(), |i| i + 1));
                assert_eq!(r.found, at.map(|i| model.remove(i)));
                (r.found.map(|e| e.request), r.depth)
            };
            steps.push((step.0, step.1, s.trace.clone()));
            if !big {
                check(&l, &model);
            }
        }
        check(&l, &model);
        steps
    }

    /// FNV-1a over every step's outcome and every charged access, in order.
    fn fold(steps: &[Step]) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for (found, depth, trace) in steps {
            let accesses = trace
                .iter()
                .flat_map(|a| [a.is_write as u64, a.addr, a.len as u64]);
            for w in [found.unwrap_or(u64::MAX), *depth as u64]
                .into_iter()
                .chain(accesses)
            {
                h = (h ^ w).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        h
    }

    /// Runs `shape` under every scan kind this CPU has and under the
    /// field-wise reference: every kind charges exactly the portable
    /// kernel's accesses, and the reference finds the same entries at the
    /// same depths. Returns the folds of the portable and reference runs.
    fn chain_shape<const N: usize>(shape: Shape) -> [u64; 2] {
        let portable = chain_script::<N>(shape, Some(ScanKind::Portable));
        for k in ScanKind::ALL {
            if k > ScanKind::Portable && k <= simd::detect_best() {
                assert!(chain_script::<N>(shape, Some(k)) == portable, "{k:?}");
            }
        }
        let reference = chain_script::<N>(shape, None);
        let outcomes = |steps: &[Step]| steps.iter().map(|s| (s.0, s.1)).collect::<Vec<_>>();
        assert_eq!(outcomes(&reference), outcomes(&portable));
        [fold(&portable), fold(&reference)]
    }

    // The folds below pin the charge order itself — `simd_props` compares
    // kinds with each other, which a reordering they all share would pass.
    // They were recorded on the walks the chain cursor replaced.

    #[test]
    fn scrambled_and_backward_chains_walk_like_the_reference() {
        assert_eq!(
            chain_shape::<2>(Shape::Scrambled),
            [0x35ec_b2e9_d825_b92a; 2]
        );
        assert_eq!(
            chain_shape::<8>(Shape::Scrambled),
            [0xed36_5bfe_2324_c133, 0x0b9a_6586_9cf9_ccf3]
        );
        assert_eq!(
            chain_shape::<48>(Shape::Scrambled),
            [0x40d2_690f_f0b5_8e72; 2]
        );
        assert_eq!(
            chain_shape::<2>(Shape::Backward),
            [0x3917_fd7c_5741_e5fd; 2]
        );
        assert_eq!(
            chain_shape::<8>(Shape::Backward),
            [0x4559_877b_868c_b5aa, 0x312c_dc42_cf44_ace0]
        );
        assert_eq!(
            chain_shape::<48>(Shape::Backward),
            [0xe3cc_64a7_7e7a_3cc8; 2]
        );
    }

    #[test]
    fn sequential_ids_cross_a_power_of_two_chunk() {
        // LLA-2: id 4 095 → 4 096 is `cur + 1` in the next chunk.
        assert_eq!(crate::pool::nodes_per_chunk(64), 4_096);
        assert_eq!(
            chain_shape::<2>(Shape::Sequential(4_100)),
            [0x24cf_a0a5_5ccf_4607; 2]
        );
    }

    #[test]
    fn sequential_ids_cross_a_non_power_of_two_chunk() {
        let node = core::mem::size_of::<LlaNode<PostedEntry, 48>>();
        assert_eq!(crate::pool::nodes_per_chunk(node), 215);
        assert_eq!(
            chain_shape::<48>(Shape::Sequential(220)),
            [0xc1eb_4769_2b4b_d99f; 2]
        );
    }
}
