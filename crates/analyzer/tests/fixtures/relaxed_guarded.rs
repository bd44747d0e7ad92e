//! Seeded violation: Ordering::Relaxed on the wildcard-lane protocol atomics
//! (lane length, per-tag occupancy slot), plus one with no spc-order line.
//! Analyzed under the virtual path `crates/core/src/shard.rs`.
//! spc-scope: hot-path
impl BadEngine {
    pub fn post_recv_wild_bad(&self, n: u64) {
        self.wild_len.fetch_add(n, Ordering::Relaxed);
    }
    // spc-order(wild_len): SeqCst — moves in one step with wild_slots
    pub fn tally(&self) -> u64 {
        self.bananas.load(Ordering::Relaxed)
    }
    // spc-order(acquisitions): Relaxed — lock tally, read only in LockStats
    pub fn tally_ok(&self) -> u64 {
        self.acquisitions.load(Ordering::Relaxed)
    }
    // spc-order(wild_slots): SeqCst — store-buffering pair with umq_counts
    pub fn arrival_bad(&self, slot: usize) -> bool {
        self.wild_slots[slot].load(Ordering::Relaxed) > 0
    }
}
