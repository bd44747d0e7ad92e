//! Negative fixture: the documented SPSC publish/consume order — all
//! slot words land before the index advance on both sides.
//! Analyzed under the virtual path `crates/core/src/ingest.rs`.
//! spc-scope: hot-path
impl GoodRing {
    pub fn try_push(&self, a: u64, b: u64) -> bool {
        let t = self.tail.load(Ordering::SeqCst);
        self.slot(t).w0.store(a, Ordering::SeqCst);
        self.slot(t).w1.store(b, Ordering::SeqCst);
        self.tail.store(t + 1, Ordering::SeqCst);
        true
    }

    pub fn pop(&self) -> Option<u64> {
        let h = self.head.load(Ordering::SeqCst);
        let v = self.slot(h).w0.load(Ordering::SeqCst);
        self.head.store(h + 1, Ordering::SeqCst);
        Some(v)
    }
}
