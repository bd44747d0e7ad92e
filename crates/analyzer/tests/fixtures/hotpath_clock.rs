//! Seeded violation: wall-clock read inside a hot-path module.
//! Analyzed under the virtual path `crates/core/src/engine.rs`.
//! spc-scope: hot-path
impl BadEngine {
    pub fn arrival_timed(&mut self, e: UnexpectedEntry) -> u64 {
        let t0 = std::time::Instant::now();
        self.umq.push(e);
        t0.elapsed().as_nanos() as u64
    }
}
