//! Seeded violation: Ordering::Relaxed on the wildcard-lane protocol atomics
//! (lane length, per-tag occupancy slot), plus one missing from the allowlist.
//! Analyzed under the virtual path `crates/core/src/shard.rs`.

impl BadEngine {
    pub fn post_recv_wild_bad(&self, n: u64) {
        self.wild_len.fetch_add(n, Ordering::Relaxed);
    }

    pub fn tally(&self) -> u64 {
        self.bananas.load(Ordering::Relaxed)
    }

    pub fn tally_ok(&self) -> u64 {
        self.acquisitions.load(Ordering::Relaxed)
    }

    pub fn arrival_bad(&self, slot: usize) -> bool {
        self.wild_slots[slot].load(Ordering::Relaxed) > 0
    }
}
