//! Chunked element pool.
//! spc-scope: hot-path
//!
//! The paper's temporal-locality experiments require "a dedicated element
//! pool" (§4.3): linked-list-of-arrays nodes are allocated from fixed chunks
//! that are never returned to the system allocator while a hot-caching heater
//! may be touching them, and freed nodes are reused rather than deallocated.
//! This sidesteps the segfault/lock-contention problem the paper hit with its
//! first MVAPICH heater integration.
//!
//! Nodes are addressed by stable `u32` ids; each chunk's backing storage
//! never moves, so both the *real* pointers (for the real heater) and the
//! *simulated* addresses (for the cache simulator) stay valid for the pool's
//! lifetime.

use crate::addr::AddrSpace;

/// Reserved id meaning "no node".
pub const NIL: u32 = u32::MAX;

/// Target chunk size in bytes. 256 KiB amortizes allocation without
/// bloating short queues; the node count per chunk adapts to the node size
/// (4096 cache-line nodes, 21 nodes for the 512-arity "large arrays").
pub const CHUNK_BYTES: usize = 256 << 10;

/// Nodes per chunk for a node type of `size` bytes.
pub const fn nodes_per_chunk(size: usize) -> usize {
    let n = CHUNK_BYTES / size;
    if n < 8 {
        8
    } else {
        n
    }
}

/// Ids of chunk `chunk_idx`. Panics past `NIL - 2`: a live id's `+ 1` must not be `NIL`.
fn chunk_ids(chunk_idx: usize, chunk_nodes: usize) -> core::ops::Range<u32> {
    let end = (chunk_idx as u64 + 1) * chunk_nodes as u64;
    assert!(end < NIL as u64, "pool ids exhausted at chunk {chunk_idx}");
    (end - chunk_nodes as u64) as u32..end as u32
}

struct Chunk<T> {
    nodes: Box<[T]>,
    sim_base: u64,
}

/// A chunked, never-shrinking pool of `T` with stable addresses.
pub struct Pool<T: Copy> {
    chunks: Vec<Chunk<T>>,
    free: Vec<u32>,
    live: usize,
    chunk_nodes: usize,
    template: T,
}

impl<T: Copy> Pool<T> {
    /// Creates an empty pool. `template` initializes fresh chunk slots (it is
    /// immediately overwritten on allocation, but keeps the storage fully
    /// initialized without `MaybeUninit`).
    pub fn new(template: T) -> Self {
        Self {
            chunks: Vec::new(),
            free: Vec::new(),
            live: 0,
            chunk_nodes: nodes_per_chunk(core::mem::size_of::<T>()),
            template,
        }
    }

    /// Nodes per chunk for this pool's node type.
    pub fn chunk_capacity(&self) -> usize {
        self.chunk_nodes
    }

    /// Number of live (allocated) nodes.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Total capacity in nodes.
    pub fn capacity(&self) -> usize {
        self.chunks.len() * self.chunk_nodes
    }

    /// Bytes of backing storage.
    pub fn bytes(&self) -> u64 {
        (self.capacity() * core::mem::size_of::<T>()) as u64
    }

    /// Number of chunk allocations made.
    pub fn allocations(&self) -> u64 {
        self.chunks.len() as u64
    }

    /// Allocates a node initialized to `value`, drawing simulated chunk
    /// addresses from `addr` when growth is needed.
    pub fn alloc(&mut self, value: T, addr: &mut AddrSpace) -> u32 {
        let id = match self.free.pop() {
            Some(id) => id,
            None => {
                let ids = chunk_ids(self.chunks.len(), self.chunk_nodes);
                let bytes = (self.chunk_nodes * core::mem::size_of::<T>()) as u64;
                let sim_base = addr.alloc(bytes, core::mem::align_of::<T>().max(64) as u64);
                // spc-allow(hot-path-alloc): chunk growth, amortized over chunk_nodes allocs
                self.chunks.push(Chunk {
                    // spc-allow(hot-path-alloc): chunk growth, amortized over chunk_nodes allocs
                    nodes: vec![self.template; self.chunk_nodes].into_boxed_slice(),
                    sim_base,
                });
                // Push in reverse so low ids are handed out first: keeps
                // early allocations at the start of the chunk, in the
                // ascending order the LLA walk predicts (contiguity story).
                self.free.extend(ids.rev());
                // spc-allow(hot-path-panic): the free list was refilled two lines up
                self.free.pop().expect("chunk just added")
            }
        };
        *self.get_mut(id) = value;
        self.live += 1;
        id
    }

    /// Returns a node to the free list. The storage is retained (and remains
    /// safe for a heater to touch).
    pub fn dealloc(&mut self, id: u32) {
        debug_assert_ne!(id, NIL);
        #[cfg(feature = "debug_invariants")]
        {
            assert!(
                (id as usize) < self.capacity(),
                "dealloc of id {id} beyond pool capacity {}",
                self.capacity()
            );
            assert!(
                !self.free.contains(&id),
                "double free of pool id {id} (already on the free list)"
            );
        }
        self.live -= 1;
        // spc-allow(hot-path-alloc): free-list capacity was reserved at chunk creation
        self.free.push(id);
    }

    /// Checks the free-list / id-split integrity invariants:
    /// every free id is unique and in range, `live + free == capacity`, and
    /// the power-of-two shift/mask id split agrees with plain division for
    /// every allocatable id. O(capacity); called by [`MatchList::validate`]
    /// implementations and the `debug_invariants` conformance wiring, never
    /// on the hot path.
    ///
    /// [`MatchList::validate`]: crate::list::MatchList::validate
    pub fn validate(&self) -> Result<(), String> {
        let cap = self.capacity();
        if self.live + self.free.len() != cap {
            return Err(format!(
                "live ({}) + free ({}) != capacity ({cap})",
                self.live,
                self.free.len()
            ));
        }
        let mut seen = vec![false; cap];
        for &id in &self.free {
            let idx = id as usize;
            if idx >= cap {
                return Err(format!("free id {id} out of range (capacity {cap})"));
            }
            if seen[idx] {
                return Err(format!("free id {id} appears twice on the free list"));
            }
            seen[idx] = true;
        }
        for id in 0..cap as u32 {
            let (c, i) = self.split_id(id);
            if c != id as usize / self.chunk_nodes || i != id as usize % self.chunk_nodes {
                return Err(format!(
                    "split({id}) = ({c}, {i}) disagrees with division by {}",
                    self.chunk_nodes
                ));
            }
            if c >= self.chunks.len() || i >= self.chunk_nodes {
                return Err(format!("split({id}) = ({c}, {i}) out of bounds"));
            }
        }
        Ok(())
    }

    /// Splits a node id into (chunk, slot). Cache-line-sized nodes give a
    /// power-of-two chunk capacity (256 KiB / 64 B = 4096), so the hot paths
    /// — node access here, and the LLA walk's unpredicted hops (see
    /// [`Self::chunk_raw`]) — take the shift/mask route, not two divisions.
    #[inline(always)]
    pub fn split_id(&self, id: u32) -> (usize, usize) {
        let (id, n) = (id as usize, self.chunk_nodes);
        if n.is_power_of_two() {
            (id >> n.trailing_zeros(), id & (n - 1))
        } else {
            (id / n, id % n)
        }
    }

    /// Raw node-array base pointer and simulated base address of chunk `c`.
    ///
    /// The LLA chain cursor calls this only when a link leaves the chunk it
    /// has cached: a predicted `cur + 1` hop never does, and a scrambled
    /// chain's free-list ids mostly stay in one chunk, so no hop pays the
    /// `chunks[c] -> nodes` load. Chunk storage never moves, so the pointer
    /// stays valid for the pool's lifetime.
    #[inline]
    pub fn chunk_raw(&self, c: usize) -> (*const T, u64) {
        let ch = &self.chunks[c];
        (ch.nodes.as_ptr(), ch.sim_base)
    }

    /// Shared access to a node.
    #[inline]
    pub fn get(&self, id: u32) -> &T {
        let (c, i) = self.split_id(id);
        &self.chunks[c].nodes[i]
    }

    /// Exclusive access to a node.
    #[inline]
    pub fn get_mut(&mut self, id: u32) -> &mut T {
        let (c, i) = self.split_id(id);
        &mut self.chunks[c].nodes[i]
    }

    /// Simulated address of a node.
    #[inline]
    pub fn sim_addr(&self, id: u32) -> u64 {
        let (c, i) = self.split_id(id);
        self.chunks[c].sim_base + (i * core::mem::size_of::<T>()) as u64
    }

    /// Simulated `(base, len)` regions of all chunks — what a simulated
    /// heater registers.
    pub fn sim_regions(&self, out: &mut Vec<(u64, u64)>) {
        for c in &self.chunks {
            // spc-allow(hot-path-alloc): heater registration path, runs per chunk not per message
            out.push((
                c.sim_base,
                (self.chunk_nodes * core::mem::size_of::<T>()) as u64,
            ));
        }
    }

    /// Real `(pointer, len-in-bytes)` regions of all chunks — what the real
    /// heater registers. Chunk storage never moves or shrinks, so the
    /// pointers stay valid until the pool is dropped.
    pub fn real_regions(&self) -> Vec<(*const u8, usize)> {
        self.chunks
            .iter()
            .map(|c| {
                (
                    c.nodes.as_ptr() as *const u8,
                    std::mem::size_of_val(&*c.nodes),
                )
            })
            .collect()
    }

    /// Drops all live nodes back onto the free list without releasing the
    /// chunk storage.
    pub fn reset(&mut self) {
        self.free.clear();
        for chunk_idx in 0..self.chunks.len() {
            self.free
                .extend(chunk_ids(chunk_idx, self.chunk_nodes).rev());
        }
        self.live = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::AddrSpace;

    #[test]
    fn alloc_reuses_freed_slots() {
        let mut addr = AddrSpace::contiguous(0);
        let mut p: Pool<u64> = Pool::new(0);
        let a = p.alloc(11, &mut addr);
        let b = p.alloc(22, &mut addr);
        assert_ne!(a, b);
        assert_eq!(*p.get(a), 11);
        p.dealloc(a);
        let c = p.alloc(33, &mut addr);
        assert_eq!(c, a, "freed slot is reused before the pool grows");
        assert_eq!(*p.get(c), 33);
        assert_eq!(p.live(), 2);
    }

    #[test]
    fn sim_addresses_are_contiguous_within_a_chunk() {
        let mut addr = AddrSpace::contiguous(1 << 20);
        let mut p: Pool<[u8; 64]> = Pool::new([0; 64]);
        let ids: Vec<u32> = (0..16).map(|i| p.alloc([i as u8; 64], &mut addr)).collect();
        for w in ids.windows(2) {
            assert_eq!(p.sim_addr(w[1]), p.sim_addr(w[0]) + 64);
        }
    }

    #[test]
    fn growth_allocates_new_chunks_and_keeps_old_addresses() {
        let mut addr = AddrSpace::contiguous(0);
        let mut p: Pool<u64> = Pool::new(0);
        let first = p.alloc(1, &mut addr);
        let first_addr = p.sim_addr(first);
        let chunk = p.chunk_capacity();
        for i in 0..chunk as u64 + 10 {
            p.alloc(i, &mut addr);
        }
        assert_eq!(p.allocations(), 2);
        assert_eq!(p.sim_addr(first), first_addr);
        assert_eq!(p.live(), chunk + 11);
    }

    #[test]
    fn reset_reclaims_everything_without_freeing_chunks() {
        let mut addr = AddrSpace::contiguous(0);
        let mut p: Pool<u64> = Pool::new(0);
        for i in 0..100 {
            p.alloc(i, &mut addr);
        }
        let cap = p.capacity();
        p.reset();
        assert_eq!(p.live(), 0);
        assert_eq!(p.capacity(), cap);
        let id = p.alloc(7, &mut addr);
        assert_eq!(*p.get(id), 7);
    }

    #[test]
    fn chunk_ids_stop_below_nil_minus_one() {
        let exhausted = |chunk_idx, chunk_nodes| {
            std::panic::catch_unwind(|| chunk_ids(chunk_idx, chunk_nodes)).is_err()
        };
        assert_eq!(chunk_ids(0, 4_096), 0..4_096);
        assert_eq!(chunk_ids(3, 215), 645..860);
        // Power of two (LLA-2): the last legal chunk, then the one holding
        // NIL itself.
        assert_eq!(chunk_ids(1_048_574, 4_096), 0xFFFF_E000..0xFFFF_F000);
        assert!(exhausted(1_048_575, 4_096));
        // 255 divides 2³² − 1: the next chunk would end exactly on NIL - 1.
        assert_eq!(chunk_ids(16_843_007, 255), 0xFFFF_FE01..0xFFFF_FF00);
        assert!(exhausted(16_843_008, 255));
        // LLA-48's 215: the next chunk would run past u32::MAX.
        assert_eq!(chunk_ids(19_976_591, 215), 0xFFFF_FF19..0xFFFF_FFF0);
        assert!(exhausted(19_976_592, 215));
    }

    #[test]
    fn real_regions_cover_all_chunks() {
        let mut addr = AddrSpace::contiguous(0);
        let mut p: Pool<u64> = Pool::new(0);
        p.alloc(1, &mut addr);
        let regions = p.real_regions();
        assert_eq!(regions.len(), 1);
        assert_eq!(regions[0].1, p.chunk_capacity() * 8);
        assert!(!regions[0].0.is_null());
    }
}
