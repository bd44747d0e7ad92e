//! Seeded violation: heap allocation in a hot-path function — a `vec!`
//! scratch buffer plus a growing `.push` with no pre-sizing.
//! Analyzed under the virtual path `crates/core/src/shard.rs`.
//! spc-scope: hot-path
impl BadShard {
    fn probe(&mut self, n: usize) {
        let mut scratch = vec![0u64; n];
        scratch.push(1);
        let _ = scratch;
    }
}
