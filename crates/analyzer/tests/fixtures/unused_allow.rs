//! Seeded violation: a suppression whose finding no longer exists —
//! stale allows must fail the run, not rot silently.
//! Analyzed under the virtual path `crates/core/src/shard.rs`.
//! spc-scope: hot-path
impl FineShard {
    fn probe(&self) -> u64 {
        // spc-allow(hot-path-alloc): stale rationale kept after the alloc was removed
        self.len
    }
}
