//! Seeded violation: panic edges in a hot-path function — an `.unwrap()`
//! and a `panic!`. The lock-poisoning `.expect()` chained directly on
//! the lock call is the documented carve-out and must not fire.
//! Analyzed under the virtual path `crates/core/src/shard.rs`.
//! spc-scope: hot-path
impl BadShard {
    fn probe(&self) -> u64 {
        let g = self.wild.lock().expect("poisoned");
        let v = self.table.get(0).unwrap();
        if *v == 0 {
            panic!("empty table");
        }
        *v + g.len
    }
}
