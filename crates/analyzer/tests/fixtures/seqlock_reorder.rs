//! Seeded violation: a seqlock writer that mutates published rows
//! before taking the seq stamp inside the write window.
//! Analyzed under the virtual path `crates/core/src/seqsnap.rs`.
//! spc-scope: hot-path
impl BadWriter {
    pub fn publish(&mut self, k: u64, v: u64) {
        self.snap.begin_write();
        self.snap.append(0, k, v);
        let seq = self.next_seq();
        self.snap.end_write();
        let _ = seq;
    }
}
