//! Negative fixture: the documented writer protocol — version-odd,
//! stamp, mutate, version-even — including a bulk lane sweep.
//! Analyzed under the virtual path `crates/core/src/seqsnap.rs`.
//! spc-scope: hot-path
impl GoodWriter {
    pub fn publish(&mut self, k: u64, v: u64) {
        self.snap.begin_write();
        let seq = self.next_seq();
        self.snap.append(seq, k, v);
        self.snap.end_write();
    }

    pub fn sweep(&mut self) {
        for s in &self.snaps {
            s.begin();
        }
        self.next_seq();
        for s in &self.snaps {
            s.end();
        }
    }
}
