//! A flat `u64 → f64` table for the simulator's per-access lookups. Keys
//! are line addresses this program produced, so a multiplicative hash over
//! a power-of-two open-addressed array replaces SipHash, and an empty table
//! costs one compare. Never iterated: no order can reach a simulated value.

/// Linear probing; removal re-seats the rest of the run (no tombstones).
#[derive(Default)]
pub(crate) struct LineMap {
    /// `(key + 1, value)`, 0 marking an empty bucket; no buckets at all, or
    /// a power of two at least twice `len`.
    buckets: Vec<(u64, f64)>,
    len: usize,
}

impl LineMap {
    /// Where `stored`'s probe run starts.
    #[inline]
    fn home(&self, stored: u64) -> usize {
        let bits = self.buckets.len().trailing_zeros();
        (stored.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize
    }

    /// Bucket holding `stored`, or the empty one that ends its probe run.
    fn seek(&self, stored: u64) -> usize {
        let mut i = self.home(stored);
        while self.buckets[i].0 != 0 && self.buckets[i].0 != stored {
            i = (i + 1) & (self.buckets.len() - 1);
        }
        i
    }

    /// Records `value` for `key`, replacing any earlier one.
    pub(crate) fn insert(&mut self, key: u64, value: f64) {
        if (self.len + 1) * 2 > self.buckets.len() {
            let grown = vec![(0, 0.0); (self.buckets.len() * 2).max(64)];
            for entry in core::mem::replace(&mut self.buckets, grown) {
                if entry.0 != 0 {
                    let i = self.seek(entry.0);
                    self.buckets[i] = entry;
                }
            }
        }
        let i = self.seek(key + 1);
        self.len += (self.buckets[i].0 == 0) as usize;
        self.buckets[i] = (key + 1, value);
    }

    /// Forgets `key`, returning what was recorded for it. The usual answer —
    /// nothing, because the table or the key's home bucket is empty — is
    /// given inline; only a possible entry pays a call.
    #[inline]
    pub(crate) fn remove(&mut self, key: u64) -> Option<f64> {
        if self.len == 0 || self.buckets[self.home(key + 1)].0 == 0 {
            return None;
        }
        self.take(key)
    }

    #[inline(never)]
    fn take(&mut self, key: u64) -> Option<f64> {
        let mut i = self.seek(key + 1);
        let (stored, value) = core::mem::take(&mut self.buckets[i]);
        if stored == 0 {
            return None;
        }
        self.len -= 1;
        // Re-seat the rest of the run, so no probe meets a false end.
        loop {
            i = (i + 1) & (self.buckets.len() - 1);
            let entry = core::mem::take(&mut self.buckets[i]);
            if entry.0 == 0 {
                return Some(value);
            }
            let j = self.seek(entry.0);
            self.buckets[j] = entry;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// Lockstep with a std map over a key range small enough to collide,
    /// grow, delete from the middle of probe runs and wrap the array end.
    #[test]
    fn agrees_with_a_std_map() {
        let (mut ours, mut std) = (LineMap::default(), BTreeMap::new());
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for step in 0..200_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = (x >> 20) % 700 * if x & 1 == 0 { 1 } else { 1 << 33 };
            match x % 7 {
                0..=2 => {
                    ours.insert(key, step as f64);
                    std.insert(key, step as f64);
                }
                3..=4 => assert_eq!(ours.remove(key), std.remove(&key), "step {step}"),
                _ if step % 4096 == 6 => {
                    ours = LineMap::default();
                    std.clear();
                }
                _ => {}
            }
            assert_eq!(ours.len, std.len());
        }
        for (k, v) in std {
            assert_eq!(ours.remove(k), Some(v));
        }
        assert_eq!(ours.len, 0);
    }

    #[test]
    fn empty_table_allocates_nothing_and_answers_none() {
        let mut m = LineMap::default();
        assert_eq!(m.remove(3), None);
        assert_eq!(m.buckets.capacity(), 0);
    }
}
