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
                let chunk_idx = self.chunks.len();
                let bytes = (self.chunk_nodes * core::mem::size_of::<T>()) as u64;
                let sim_base = addr.alloc(bytes, core::mem::align_of::<T>().max(64) as u64);
                // spc-allow(hot-path-alloc): chunk growth, amortized over chunk_nodes allocs
                self.chunks.push(Chunk {
                    // spc-allow(hot-path-alloc): chunk growth, amortized over chunk_nodes allocs
                    nodes: vec![self.template; self.chunk_nodes].into_boxed_slice(),
                    sim_base,
                });
                // Push in reverse so low ids are handed out first: keeps
                // early allocations at the start of the chunk, matching the
                // contiguity story.
                let base = (chunk_idx * self.chunk_nodes) as u32;
                self.free
                    .extend((0..self.chunk_nodes as u32).rev().map(|i| base + i));
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
            let (c, i) = self.split(id);
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
    /// power-of-two chunk capacity (256 KiB / 64 B = 4096), so the traversal
    /// hot paths — which call this several times per node — take the
    /// shift/mask route instead of two integer divisions.
    #[inline(always)]
    fn split(&self, id: u32) -> (usize, usize) {
        let (id, n) = (id as usize, self.chunk_nodes);
        if n.is_power_of_two() {
            (id >> n.trailing_zeros(), id & (n - 1))
        } else {
            (id / n, id % n)
        }
    }

    /// Splits a node id into `(chunk, slot)` for callers that cache the
    /// chunk indirection across consecutive ids (see [`Self::chunk_raw`]).
    #[inline(always)]
    pub fn split_id(&self, id: u32) -> (usize, usize) {
        self.split(id)
    }

    /// Raw node-array base pointer and simulated base address of chunk `c`.
    ///
    /// Traversal hot paths call this once per chunk *transition* instead of
    /// re-walking `chunks[c] -> nodes` per node: consecutive pool ids share
    /// a chunk, so caching the pair removes a dependent pointer load from
    /// every hop of the chase. Chunk storage never moves, so the pointer
    /// stays valid for the pool's lifetime.
    #[inline]
    pub fn chunk_raw(&self, c: usize) -> (*const T, u64) {
        let ch = &self.chunks[c];
        (ch.nodes.as_ptr(), ch.sim_base)
    }

    /// Shared access to a node.
    #[inline]
    pub fn get(&self, id: u32) -> &T {
        let (c, i) = self.split(id);
        &self.chunks[c].nodes[i]
    }

    /// Exclusive access to a node.
    #[inline]
    pub fn get_mut(&mut self, id: u32) -> &mut T {
        let (c, i) = self.split(id);
        &mut self.chunks[c].nodes[i]
    }

    /// Simulated address of a node.
    #[inline]
    pub fn sim_addr(&self, id: u32) -> u64 {
        let (c, i) = self.split(id);
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
            let base = (chunk_idx * self.chunk_nodes) as u32;
            self.free
                .extend((0..self.chunk_nodes as u32).rev().map(|i| base + i));
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
