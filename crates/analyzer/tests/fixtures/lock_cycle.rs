//! Seeded violation: two functions acquire the same pair of mutexes in
//! opposite orders — a cycle in the lock-order graph (deadlock).
//! Analyzed under the virtual path `crates/core/src/engine.rs`.
//! spc-scope: hot-path
impl BadEngine {
    fn forward(&self) {
        let a = self.alpha.lock();
        let b = self.beta.lock();
        let _ = (&a, &b);
    }

    fn backward(&self) {
        let b = self.beta.lock();
        let a = self.alpha.lock();
        let _ = (&a, &b);
    }
}
