//! The traditional match list: one heap-allocated node per entry.
//!
//! This is the paper's baseline, modelled on MPICH-derived implementations
//! (§2.2): every posted receive or unexpected message is a separate request
//! object on the general-purpose heap, linked into a single list. The match
//! fields sit at the front of the request object and the list link sits
//! further in, past other request state — so inspecting one entry touches
//! *more than one cache line* (the paper: "the unmodified baseline requires
//! more than a cache line for a single entry"), and consecutive nodes are
//! wherever the allocator put them.
//!
//! The nodes here are genuine individual heap allocations (so native
//! benchmarks see real pointer-chasing), and their simulated addresses come
//! from a fragmented [`AddrSpace`] (so the cache simulator sees the same
//! placement behaviour deterministically).
//!
//! The list has one search walk, scalar on every CPU, that hints the node
//! [`crate::prefetch::DISTANCE`] hops ahead by extrapolating the allocator
//! stride: scattered nodes give the hardware prefetchers nothing to follow,
//! and this is the one structure where the benchmark gate shows a software
//! hint paying (EXPERIMENTS.md "Prefetch schemes").

use crate::addr::AddrSpace;
use crate::entry::{Element, PackedProbe, ProbeKey};
use crate::list::{first_match, Footprint, MatchList, Search};
use crate::prefetch;
use crate::sink::AccessSink;

/// Bytes of request state between the match fields and the list link,
/// standing in for the rest of an MPI request object (status, datatype,
/// buffer pointers, completion callbacks, ...). 16 bytes of the original
/// 40-byte gap now hold the precomputed packed match key/mask, so the link
/// still lands in the node's second cache line, as it does in MPICH's
/// ~100-byte requests.
const REQ_STATE_HEAD: usize = 24;
/// Trailing request state after the link.
const REQ_STATE_TAIL: usize = 24;

#[repr(C)]
struct Node<E: Element> {
    entry: E,
    /// Precomputed [`Element::packed_key`]: the match test against a
    /// [`PackedProbe`] is one XOR+AND+compare on the same cache line as the
    /// entry, with no per-field branches.
    key: u64,
    /// Precomputed [`Element::packed_mask`].
    mask: u64,
    _req_state_head: [u8; REQ_STATE_HEAD],
    next: *mut Node<E>,
    _req_state_tail: [u8; REQ_STATE_TAIL],
    sim_addr: u64,
}

impl<E: Element> Node<E> {
    /// Offset of the `next` link in the *modelled* request layout: second
    /// cache line. (The real field offset differs slightly because of the
    /// bookkeeping `sim_addr` field; the model is what the simulator sees.)
    const NEXT_OFFSET: u64 = 64;
    /// Modelled node size: enough for MPICH-like request state.
    const SIM_SIZE: u64 = 96;
}

/// Single linked list with one entry per heap node — the reference
/// implementation every other structure is property-tested against.
pub struct BaselineList<E: Element> {
    head: *mut Node<E>,
    tail: *mut Node<E>,
    len: usize,
    addr: AddrSpace,
}

// SAFETY: all nodes are exclusively owned by the list (created from `Box`,
// never shared), so moving the whole list across threads is sound whenever
// the element type itself is sendable.
unsafe impl<E: Element + Send> Send for BaselineList<E> {}

impl<E: Element> BaselineList<E> {
    /// Creates an empty list whose simulated node placement models a
    /// churned heap (scattered, non-ascending node addresses).
    pub fn new() -> Self {
        Self::with_addr(AddrSpace::scattered(
            crate::addr::fresh_region_base(),
            0x5EED,
        ))
    }

    /// Creates an empty list drawing simulated addresses from `addr`.
    pub fn with_addr(addr: AddrSpace) -> Self {
        Self {
            head: core::ptr::null_mut(),
            tail: core::ptr::null_mut(),
            len: 0,
            addr,
        }
    }

    /// Live entries in FIFO order, walked in place.
    fn live(&self) -> impl Iterator<Item = &E> {
        // SAFETY: `head` and every `next` are null or a node this list
        // exclusively owns (`Box::into_raw` in `append`, freed only on
        // removal/clear, both `&mut self`); `&self` keeps them alive.
        let node = |p: *mut Node<E>| unsafe { p.as_ref() };
        std::iter::successors(node(self.head), move |n| node(n.next)).map(|n| &n.entry)
    }

    /// Walks the list calling `test` on each entry; on `true`, unlinks that
    /// node and returns its entry with the inspection depth.
    fn walk_remove<S: AccessSink>(
        &mut self,
        sink: &mut S,
        mut test: impl FnMut(&E) -> bool,
    ) -> Search<E> {
        let mut depth = 0u32;
        let mut prev: *mut Node<E> = core::ptr::null_mut();
        let mut cur = self.head;
        while !cur.is_null() {
            // SAFETY: `cur` was produced by `Box::into_raw` in `append` and
            // has not been freed (the list exclusively owns its nodes).
            let node = unsafe { &*cur };
            sink.read(node.sim_addr, core::mem::size_of::<E>() as u32);
            depth += 1;
            if test(&node.entry) {
                let entry = node.entry;
                let next = node.next;
                if prev.is_null() {
                    self.head = next;
                } else {
                    // SAFETY: `prev` is a live node we just traversed.
                    let prev_node = unsafe { &mut *prev };
                    prev_node.next = next;
                    sink.write(prev_node.sim_addr + Node::<E>::NEXT_OFFSET, 8);
                }
                if cur == self.tail {
                    self.tail = prev;
                }
                // SAFETY: `cur` is unlinked; reclaim exactly once.
                drop(unsafe { Box::from_raw(cur) });
                self.len -= 1;
                return Search::hit(entry, depth);
            }
            // The link lives in the node's second line.
            sink.read(node.sim_addr + Node::<E>::NEXT_OFFSET, 8);
            prev = cur;
            cur = node.next;
        }
        Search::miss(depth)
    }

    /// Packed-key walk behind [`MatchList::search_remove`]: compares each
    /// node's precomputed `u64` key against `probe` (one XOR+AND+compare)
    /// and hints the node [`prefetch::DISTANCE`] hops ahead so its lines are
    /// in flight while the current one is tested. Sink charges are identical
    /// to [`Self::walk_remove`] — the simulated trace is byte-for-byte the
    /// same; only native latency changes.
    ///
    /// The walk is scalar on every CPU: the nodes are scattered, so a vector
    /// compare would first have to gather keys along the dependent `next`
    /// chain, and that chain — not the compare — is what the walk waits on.
    fn packed_walk_remove<S: AccessSink>(
        &mut self,
        probe: &PackedProbe,
        sink: &mut S,
    ) -> Search<E> {
        const DIST: isize = prefetch::DISTANCE as isize;
        let mut depth = 0u32;
        let mut prev: *mut Node<E> = core::ptr::null_mut();
        let mut cur = self.head;
        while !cur.is_null() {
            // SAFETY: `cur` was produced by `Box::into_raw` in `append` and
            // has not been freed (the list exclusively owns its nodes).
            let node = unsafe { &*cur };
            if !node.next.is_null() {
                // Stride-speculative prefetch: append-order heap nodes land
                // at a near-constant allocator stride, so extrapolating the
                // observed `next - cur` stride `DIST` hops past `next`
                // reaches upcoming nodes without the serial demand-load
                // chain a scout pointer would pay. The guess is only a
                // prefetch hint — a wrong stride (churned free list) warms
                // an unrelated line and costs nothing; the address is never
                // dereferenced.
                let stride = (node.next as isize).wrapping_sub(cur as isize);
                let guess = (node.next as usize).wrapping_add((stride * DIST) as usize);
                prefetch::read(guess as *const Node<E>);
                // The link sits past the request-state gap; when the
                // allocation straddles a line boundary the link line would
                // otherwise demand-miss every hop.
                prefetch::read_second_line(guess, core::mem::offset_of!(Node<E>, next));
            }
            sink.read(node.sim_addr, core::mem::size_of::<E>() as u32);
            depth += 1;
            if (node.key ^ probe.key) & (node.mask & probe.mask) == 0 {
                let entry = node.entry;
                let next = node.next;
                if prev.is_null() {
                    self.head = next;
                } else {
                    // SAFETY: `prev` is a live node we just traversed.
                    let prev_node = unsafe { &mut *prev };
                    prev_node.next = next;
                    sink.write(prev_node.sim_addr + Node::<E>::NEXT_OFFSET, 8);
                }
                if cur == self.tail {
                    self.tail = prev;
                }
                // SAFETY: `cur` is unlinked; reclaim exactly once.
                drop(unsafe { Box::from_raw(cur) });
                self.len -= 1;
                return Search::hit(entry, depth);
            }
            sink.read(node.sim_addr + Node::<E>::NEXT_OFFSET, 8);
            prev = cur;
            cur = node.next;
        }
        Search::miss(depth)
    }

    /// The reference scan: field-by-field [`Element::matches`] with no
    /// prefetch. The equivalence tests and the benchmark gate compare the
    /// packed, hinting walk against it.
    pub fn search_remove_fieldwise<S: AccessSink>(
        &mut self,
        probe: &E::Probe,
        sink: &mut S,
    ) -> Search<E> {
        self.walk_remove(sink, |e| e.matches(probe))
    }
}

impl<E: Element> Default for BaselineList<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Element> Drop for BaselineList<E> {
    fn drop(&mut self) {
        // Iterative teardown: recursion would overflow on long queues.
        let mut cur = self.head;
        while !cur.is_null() {
            // SAFETY: exclusive ownership; each node freed exactly once.
            let node = unsafe { Box::from_raw(cur) };
            cur = node.next;
        }
    }
}

impl<E: Element> MatchList<E> for BaselineList<E> {
    fn append<S: AccessSink>(&mut self, e: E, sink: &mut S) {
        let sim_addr = self.addr.alloc(Node::<E>::SIM_SIZE, 8);
        // spc-allow(hot-path-alloc): per-node heap allocation IS the baseline under study
        let node = Box::into_raw(Box::new(Node {
            entry: e,
            key: e.packed_key(),
            mask: e.packed_mask(),
            _req_state_head: [0; REQ_STATE_HEAD],
            next: core::ptr::null_mut(),
            _req_state_tail: [0; REQ_STATE_TAIL],
            sim_addr,
        }));
        sink.write(sim_addr, Node::<E>::SIM_SIZE as u32);
        if self.tail.is_null() {
            self.head = node;
        } else {
            // SAFETY: `tail` is a live node owned by the list.
            let tail_node = unsafe { &mut *self.tail };
            tail_node.next = node;
            sink.write(tail_node.sim_addr + Node::<E>::NEXT_OFFSET, 8);
        }
        self.tail = node;
        self.len += 1;
    }

    fn search_remove<S: AccessSink>(&mut self, probe: &E::Probe, sink: &mut S) -> Search<E> {
        self.packed_walk_remove(&probe.packed(), sink)
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
        let mut cur = self.head;
        while !cur.is_null() {
            // SAFETY: exclusive ownership; each node freed exactly once.
            let node = unsafe { Box::from_raw(cur) };
            cur = node.next;
        }
        self.head = core::ptr::null_mut();
        self.tail = core::ptr::null_mut();
        self.len = 0;
    }

    fn footprint(&self) -> Footprint {
        Footprint {
            bytes: self.len as u64 * core::mem::size_of::<Node<E>>() as u64,
            allocations: self.len as u64,
        }
    }

    fn heat_regions(&self, out: &mut Vec<(u64, u64)>) {
        // Every node is its own region — exactly why heating the baseline
        // list is expensive (§4.3: long region queues, frequent updates).
        let mut cur = self.head;
        while !cur.is_null() {
            // SAFETY: traversal of exclusively-owned live nodes.
            let node = unsafe { &*cur };
            // spc-allow(hot-path-alloc): heater registration path, runs per region not per message
            out.push((node.sim_addr, Node::<E>::SIM_SIZE));
            cur = node.next;
        }
    }

    fn kind_name(&self) -> String {
        "baseline".to_owned()
    }

    fn validate(&self) -> Result<(), String> {
        let mut count = 0usize;
        let mut cur = self.head;
        let mut last = core::ptr::null_mut::<Node<E>>();
        while !cur.is_null() {
            if count > self.len {
                return Err(format!("walk exceeds len == {} (cycle?)", self.len));
            }
            // SAFETY: traversal of exclusively-owned live nodes.
            let node = unsafe { &*cur };
            count += 1;
            last = cur;
            cur = node.next;
        }
        if count != self.len {
            return Err(format!("walked {count} nodes but len == {}", self.len));
        }
        if last != self.tail {
            return Err(format!(
                "cached tail {:p} is not the last reachable node {last:p}",
                self.tail
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{Envelope, PostedEntry, RecvSpec, UnexpectedEntry};
    use crate::sink::{CountingSink, NullSink};

    fn post(rank: i32, tag: i32, req: u64) -> PostedEntry {
        PostedEntry::from_spec(RecvSpec::new(rank, tag, 0), req)
    }

    #[test]
    fn append_search_remove_roundtrip() {
        let mut l: BaselineList<PostedEntry> = BaselineList::new();
        let mut s = NullSink;
        for i in 0..20 {
            l.append(post(i % 4, i, i as u64), &mut s);
        }
        assert_eq!(l.len(), 20);
        let r = l.search_remove(&Envelope::new(3, 7, 0), &mut s);
        assert_eq!(r.found.unwrap().request, 7);
        assert_eq!(r.depth, 8, "entry with tag 7 is the 8th in the list");
        assert_eq!(l.len(), 19);
        assert!(l
            .search_remove(&Envelope::new(3, 7, 0), &mut s)
            .found
            .is_none());
    }

    #[test]
    fn fifo_among_equally_matching_entries() {
        let mut l: BaselineList<PostedEntry> = BaselineList::new();
        let mut s = NullSink;
        l.append(
            PostedEntry::from_spec(RecvSpec::new(crate::ANY_SOURCE, 5, 0), 1),
            &mut s,
        );
        l.append(post(2, 5, 2), &mut s);
        // Both match (2, 5); the wildcard was posted first and must win.
        let r = l.search_remove(&Envelope::new(2, 5, 0), &mut s);
        assert_eq!(r.found.unwrap().request, 1);
    }

    #[test]
    fn removing_head_and_tail_updates_links() {
        let mut l: BaselineList<PostedEntry> = BaselineList::new();
        let mut s = NullSink;
        for i in 0..3 {
            l.append(post(0, i, i as u64), &mut s);
        }
        l.search_remove(&Envelope::new(0, 0, 0), &mut s)
            .found
            .unwrap();
        l.search_remove(&Envelope::new(0, 2, 0), &mut s)
            .found
            .unwrap();
        assert_eq!(
            l.snapshot().iter().map(|e| e.tag).collect::<Vec<_>>(),
            vec![1]
        );
        l.append(post(0, 9, 9), &mut s);
        assert_eq!(
            l.snapshot().iter().map(|e| e.tag).collect::<Vec<_>>(),
            vec![1, 9]
        );
        // Drain completely, then append again.
        l.search_remove(&Envelope::new(0, 1, 0), &mut s)
            .found
            .unwrap();
        l.search_remove(&Envelope::new(0, 9, 0), &mut s)
            .found
            .unwrap();
        assert!(l.is_empty());
        l.append(post(0, 11, 11), &mut s);
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn traversal_touches_two_lines_per_entry() {
        let mut l: BaselineList<PostedEntry> =
            BaselineList::with_addr(AddrSpace::fragmented(1 << 30, 42));
        let mut s = NullSink;
        for i in 0..32 {
            l.append(post(0, i, i as u64), &mut s);
        }
        let mut c = CountingSink::new();
        let r = l.search_remove(&Envelope::new(9, 9, 9), &mut c); // miss
        assert!(r.found.is_none());
        // Entry line + link line per node, nodes fragmented: at least ~2
        // lines per entry (a few may share due to small gaps).
        assert!(
            c.distinct_lines() >= 48,
            "expected >= 1.5 lines/entry, got {} for 32 entries",
            c.distinct_lines()
        );
    }

    #[test]
    fn unexpected_variant_and_clear() {
        let mut l: BaselineList<UnexpectedEntry> = BaselineList::new();
        let mut s = NullSink;
        for i in 0..10 {
            l.append(
                UnexpectedEntry::from_envelope(Envelope::new(i, 0, 0), i as u64),
                &mut s,
            );
        }
        let r = l.search_remove(&RecvSpec::new(4, 0, 0), &mut s);
        assert_eq!(r.found.unwrap().payload, 4);
        l.clear();
        assert!(l.is_empty());
        assert_eq!(l.snapshot(), vec![]);
    }

    #[test]
    fn drop_releases_long_lists_without_stack_overflow() {
        let mut l: BaselineList<PostedEntry> = BaselineList::new();
        let mut s = NullSink;
        for i in 0..200_000 {
            l.append(post(0, i, i as u64), &mut s);
        }
        drop(l); // must not recurse
    }

    #[test]
    fn packed_scan_matches_fieldwise_scan() {
        // Two identical lists, one searched with the packed/prefetched hot
        // path and one with the preserved pre-optimisation walk: every
        // probe (hit, wildcard hit, miss) must agree on entry and depth.
        let mut fast: BaselineList<PostedEntry> = BaselineList::new();
        let mut slow: BaselineList<PostedEntry> = BaselineList::new();
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
    fn key_cache_fits_in_the_old_request_gap() {
        // The packed key/mask are carved out of the modelled request state,
        // not bolted on: the real node is no bigger than before the
        // optimisation (entry + 40B gap + link + 24B tail + bookkeeping).
        assert_eq!(
            core::mem::size_of::<Node<PostedEntry>>(),
            core::mem::size_of::<PostedEntry>() + 40 + 8 + 24 + 8
        );
        assert_eq!(
            core::mem::size_of::<Node<UnexpectedEntry>>(),
            core::mem::size_of::<UnexpectedEntry>() + 40 + 8 + 24 + 8
        );
    }

    #[test]
    fn heat_regions_lists_every_node() {
        let mut l: BaselineList<PostedEntry> = BaselineList::new();
        let mut s = NullSink;
        for i in 0..5 {
            l.append(post(0, i, i as u64), &mut s);
        }
        let mut regions = Vec::new();
        l.heat_regions(&mut regions);
        assert_eq!(regions.len(), 5);
    }
}
