//! Seeded violation: wildcard-lane lock held while taking a shard lock.
//! Analyzed under the virtual path `crates/core/src/shard.rs`.
//! spc-scope: hot-path
impl BadEngine {
    pub fn post_recv_wild_bad(&self, e: PostedEntry) {
        let mut wild = self.wild.lock();
        wild.prq.push(e);
        let mut shard = self.shards[0].lock();
        shard.note();
    }

    pub fn drain_ok(&self) {
        let guards = self.lock_all();
        let mut wild = self.wild.lock();
        let _ = (&guards, &mut wild);
    }
}
