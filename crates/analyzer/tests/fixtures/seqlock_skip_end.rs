//! Seeded violation: an early-return path leaves the write window open
//! (version word stuck odd; lock-free readers retry forever).
//! Analyzed under the virtual path `crates/core/src/seqsnap.rs`.
//! spc-scope: hot-path
impl BadWriter {
    pub fn publish(&mut self, k: u64, v: u64) -> bool {
        self.snap.begin_write();
        let seq = self.next_seq();
        if self.full() {
            return false;
        }
        self.snap.append(seq, k, v);
        self.snap.end_write();
        true
    }
}
