//! The one partitioned match list (DESIGN decision 14).
//!
//! Open MPI's per-source bins (§2.2), Flajslik's hash bins and Zounmevo's
//! rank decomposition (§5) differ in one decision: which channel a key is
//! sent to. [`Partitioned`] owns everything else — the seq-stamped channels,
//! the wildcard channel, FIFO arbitration between the two, the `ANY_SOURCE`
//! gather scan and the accounting — and a [`Router`] type parameter answers
//! the rest. The router is monomorphised: each alias compiles to its own
//! walk.

use crate::entry::{Element, ProbeKey};
use crate::list::{
    collect_metas, global_search, merged_search_remove, Footprint, MatchList, Search, SeqFifo,
};
use crate::sink::AccessSink;

/// Simulated bytes reserved per channel so channels never alias.
pub(crate) const CHANNEL_REGION: u64 = 64 * 1024;

/// What a router keys on, for entry and probe alike. Ranks are normalised
/// here, once, to the 16-bit field entries store and match in, so a probe is
/// never routed away from an entry it matches.
#[derive(Clone, Copy, Debug)]
pub struct RouteKey {
    /// Source rank, or `None` when the source is wildcarded.
    pub source: Option<u16>,
    /// `(context, rank, tag)`, or `None` when any of them is wildcarded.
    pub full: Option<(u16, u16, i32)>,
}

impl RouteKey {
    #[inline]
    fn new(source: Option<i32>, full: Option<(u16, i32, i32)>) -> Self {
        Self {
            source: source.map(|rank| rank as u16),
            full: full.map(|(ctx, rank, tag)| (ctx, rank as u16, tag)),
        }
    }
}

/// Where a probe must look.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    /// One channel, merged with the wildcard channel in seq order.
    Channel(usize),
    /// No channel holds the key; only the wildcard channel can match.
    WildOnly,
    /// The key names no channel: every channel, in global seq order.
    All,
}

/// The one decision partitioned structures differ in. `nchannels` is the
/// number of channels [`Partitioned`] holds for the router at the call.
pub trait Router {
    /// Where a probe keyed `key` must look, charging the lookup to `sink`.
    fn route<S: AccessSink>(&self, key: RouteKey, nchannels: usize, sink: &mut S) -> Route;

    /// Channel an entry keyed `key` is appended to, charging the lookup;
    /// `None` is the wildcard channel. An entry goes where a probe for its
    /// own key looks; a router that allocates lazily overrides this and
    /// returns `nchannels` to have that channel created.
    #[inline]
    fn place<S: AccessSink>(
        &mut self,
        key: RouteKey,
        nchannels: usize,
        sink: &mut S,
    ) -> Option<usize> {
        match self.route(key, nchannels, sink) {
            Route::Channel(ci) => Some(ci),
            Route::WildOnly | Route::All => None,
        }
    }

    /// Bytes of the routing table over `nchannels` channels, and its
    /// allocations beyond one per channel.
    fn table<E: Element>(&self, nchannels: usize) -> Footprint;

    /// Structure name for reports.
    fn kind_name(&self, nchannels: usize) -> String;
}

/// A match list partitioned into seq-stamped channels by the router `R`.
pub struct Partitioned<E: Element, R> {
    channels: Vec<SeqFifo<E>>,
    wild: SeqFifo<E>,
    pub(super) router: R,
    /// Simulated base of channel 0; channel `i` sits `i` regions above it.
    channel_base: u64,
    next_seq: u64,
    len: usize,
}

impl<E: Element, R> Partitioned<E, R> {
    /// `eager` channels laid out from `channel_base`, the wildcard channel
    /// at `wild_base`.
    pub(super) fn with_layout(router: R, eager: usize, channel_base: u64, wild_base: u64) -> Self {
        let channels = (0..eager as u64)
            .map(|i| SeqFifo::new(channel_base + i * CHANNEL_REGION))
            .collect();
        Self {
            channels,
            wild: SeqFifo::new(wild_base),
            router,
            channel_base,
            next_seq: 0,
            len: 0,
        }
    }

    pub(super) fn nchannels(&self) -> usize {
        self.channels.len()
    }

    /// Every channel, the wildcard channel last (index `nchannels`).
    fn all(&self) -> impl Iterator<Item = &SeqFifo<E>> {
        self.channels.iter().chain(core::iter::once(&self.wild))
    }

    fn channel_mut(&mut self, ci: usize) -> &mut SeqFifo<E> {
        if ci < self.channels.len() {
            &mut self.channels[ci]
        } else {
            &mut self.wild
        }
    }
}

impl<E: Element, R: Router> MatchList<E> for Partitioned<E, R> {
    fn append<S: AccessSink>(&mut self, e: E, sink: &mut S) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let key = RouteKey::new(e.bin_source(), e.full_key());
        let channel = match self.router.place(key, self.channels.len(), sink) {
            Some(ci) => {
                if ci == self.channels.len() {
                    let base = self.channel_base + ci as u64 * CHANNEL_REGION;
                    // spc-allow(hot-path-alloc): first-touch channel creation, amortized once per key
                    self.channels.push(SeqFifo::new(base));
                }
                &mut self.channels[ci]
            }
            None => &mut self.wild,
        };
        // spc-allow(hot-path-alloc): SeqFifo::push is the list insert, not Vec growth
        channel.push(seq, e, sink);
        self.len += 1;
    }

    fn search_remove<S: AccessSink>(&mut self, probe: &E::Probe, sink: &mut S) -> Search<E> {
        let key = RouteKey::new(probe.bin_source(), probe.full_key());
        let r = match self.router.route(key, self.channels.len(), sink) {
            Route::Channel(ci) => {
                merged_search_remove(Some(&mut self.channels[ci]), &mut self.wild, probe, sink)
            }
            Route::WildOnly => merged_search_remove(None, &mut self.wild, probe, sink),
            Route::All => {
                // The structure degenerates to a global seq-ordered scan.
                let mut metas = collect_metas(self.all());
                let (hit, depth) = global_search(&mut metas, probe, sink);
                match hit {
                    Some((ci, pos)) => Search::hit(self.channel_mut(ci).remove(pos).1, depth),
                    None => Search::miss(depth),
                }
            }
        };
        if r.found.is_some() {
            self.len -= 1;
        }
        r
    }

    fn remove_by_id<S: AccessSink>(&mut self, id: u64, _sink: &mut S) -> Option<E> {
        // Ids are unique, so "earliest" reduces to "whichever channel has
        // it"; the minimum seq over all channels keeps it so under id reuse.
        let first = |ch: &SeqFifo<E>| ch.iter().find(|(_, e)| e.id() == id).map(|(seq, _)| *seq);
        let (_, ci) = self
            .all()
            .enumerate()
            .filter_map(|(ci, ch)| Some((first(ch)?, ci)))
            .min()?;
        let (_, e) = self.channel_mut(ci).remove_by_id(id)?;
        self.len -= 1;
        Some(e)
    }

    fn len(&self) -> usize {
        self.len
    }

    fn snapshot(&self) -> Vec<E> {
        let mut all: Vec<(u64, E)> = Vec::with_capacity(self.len);
        all.extend(self.all().flat_map(|ch| ch.iter().copied()));
        all.sort_unstable_by_key(|(seq, _)| *seq);
        all.into_iter().map(|(_, e)| e).collect()
    }

    fn clear(&mut self) {
        self.channels.iter_mut().for_each(SeqFifo::clear);
        self.wild.clear();
        self.len = 0;
    }

    fn footprint(&self) -> Footprint {
        let table = self.router.table::<E>(self.channels.len());
        Footprint {
            bytes: table.bytes + self.all().map(SeqFifo::bytes).sum::<u64>(),
            allocations: table.allocations + self.channels.len() as u64 + 1,
        }
    }

    fn heat_regions(&self, out: &mut Vec<(u64, u64)>) {
        out.extend(self.all().map(SeqFifo::region).filter(|&(_, len)| len > 0));
    }

    fn kind_name(&self) -> String {
        self.router.kind_name(self.channels.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{Envelope, PostedEntry, RecvSpec, UnexpectedEntry, ANY_SOURCE, ANY_TAG};
    use crate::list::bins::BySource;
    use crate::list::hashbins::{hash_key, ByHash};
    use crate::list::{HashBins, RankTrie, SourceBins};
    use crate::sink::NullSink;
    use spc_rng::{Rng, SeedableRng, StdRng};

    /// Seeded `(receive, message)` pairs in which the receive accepts the
    /// message: it names the message's rank — or, with `alias` set, that
    /// rank's alias 2^16 away, which entries cannot tell apart — or
    /// wildcards it.
    fn accepting_pairs(ranks: &[i32], alias: i32, n: usize) -> Vec<(RecvSpec, Envelope)> {
        let mut rng = StdRng::seed_from_u64(0x5EED_0021);
        let mut pair = || {
            let rank = ranks[rng.gen_range(0..ranks.len())];
            let env = Envelope::new(rank, rng.gen_range(0..6), rng.gen_range(0..2));
            let named = rank ^ (rng.gen_range(0..2) * alias);
            let mut spec = RecvSpec::new(named, env.tag, env.context_id);
            if rng.gen_bool(0.2) {
                spec.rank = ANY_SOURCE;
            }
            if rng.gen_bool(0.2) {
                spec.tag = ANY_TAG;
            }
            (spec, env)
        };
        (0..n).map(|_| pair()).collect()
    }

    /// Folds every charged access into one FNV-1a word, addresses taken
    /// relative to the structure's 1 GiB region so the fold does not depend
    /// on construction order.
    struct Fold(u64);

    impl Fold {
        fn word(&mut self, kind: u64, addr: u64, len: u64) {
            for w in [kind, addr & ((1 << 30) - 1), len] {
                self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }

    impl AccessSink for Fold {
        fn read(&mut self, addr: u64, len: u32) {
            self.word(0, addr, len as u64);
        }
        fn write(&mut self, addr: u64, len: u32) {
            self.word(1, addr, len as u64);
        }
    }

    /// `(footprint bytes, allocations, fold)` after a fixed stream of
    /// appends, searches and cancels; the fold takes in every charged access
    /// in order, then every heat region in registration order.
    fn pin<E: Element, L: MatchList<E>>(
        mut list: L,
        entry: impl Fn(RecvSpec, Envelope, u64) -> E,
        probe: impl Fn(RecvSpec, Envelope) -> E::Probe,
    ) -> (u64, u64, u64) {
        let ranks: Vec<i32> = (0..48).collect();
        let mut fold = Fold(0xCBF2_9CE4_8422_2325);
        for (&(spec, env), id) in accepting_pairs(&ranks, 0, 800).iter().zip(0u64..) {
            match id % 8 {
                0..=3 => list.append(entry(spec, env, id), &mut fold),
                4..=6 => drop(list.search_remove(&probe(spec, env), &mut fold)),
                _ => drop(list.remove_by_id(id / 2, &mut fold)),
            }
        }
        let mut regions = Vec::new();
        list.heat_regions(&mut regions);
        for (base, len) in regions {
            fold.word(2, base, len);
        }
        let footprint = list.footprint();
        (footprint.bytes, footprint.allocations, fold.0)
    }

    fn prq_pin<L: MatchList<PostedEntry>>(list: L) -> (u64, u64, u64) {
        pin(
            list,
            |spec, _, id| PostedEntry::from_spec(spec, id),
            |_, env| env,
        )
    }

    fn umq_pin<L: MatchList<UnexpectedEntry>>(list: L) -> (u64, u64, u64) {
        pin(
            list,
            |_, env, id| UnexpectedEntry::from_envelope(env, id),
            |spec, _| spec,
        )
    }

    /// Footprint, every charged access and the heater registration order of
    /// each alias, as recorded from the three implementations `Partitioned`
    /// replaced, on the same stream.
    #[test]
    fn accounting_and_charges_match_the_recorded_implementations() {
        assert_eq!(
            prq_pin(SourceBins::new(64)),
            (0x3480, 0x41, 0xd8d4_fc1a_41f3_0d57)
        );
        assert_eq!(
            umq_pin(SourceBins::new(64)),
            (0x2d60, 0x41, 0xfad2_9ec5_c015_3cad)
        );
        assert_eq!(
            prq_pin(HashBins::with_bins(16)),
            (0x2480, 0x11, 0xf6f4_319a_f5f5_e3c7)
        );
        assert_eq!(
            umq_pin(HashBins::with_bins(16)),
            (0x2180, 0x11, 0x441b_042f_a27d_fa5d)
        );
        assert_eq!(
            prq_pin(RankTrie::new(4096)),
            (0x29a0, 0x39, 0x563c_0c12_636c_91dd)
        );
        assert_eq!(
            umq_pin(RankTrie::new(4096)),
            (0x2280, 0x39, 0x9319_d233_02b4_093d)
        );
    }

    /// How [`Partitioned`] routes a probe.
    fn seam<P: ProbeKey, R: Router>(router: &R, probe: &P, nchannels: usize) -> Route {
        let key = RouteKey::new(probe.bin_source(), probe.full_key());
        router.route(key, nchannels, &mut NullSink)
    }

    /// Places every entry as [`Partitioned::append`] does and counts the
    /// cases whose probe, routed by `route`, would not be shown the channel
    /// its matching entry went to. The wildcard channel is part of every
    /// route, so only an entry placed in a channel of its own can be missed.
    fn unreachable<E: Element, R: Router>(
        mut router: R,
        mut nchannels: usize,
        cases: &[(E, E::Probe)],
        route: impl Fn(&R, &E::Probe, usize) -> Route,
    ) -> usize {
        let missed = |(e, p): &&(E, E::Probe)| {
            assert!(e.matches(p), "{e:?} / {p:?}");
            let key = RouteKey::new(e.bin_source(), e.full_key());
            let placed = router.place(key, nchannels, &mut NullSink);
            if placed == Some(nchannels) {
                nchannels += 1;
            }
            match (placed, route(&router, p, nchannels)) {
                (None, _) | (_, Route::All) => false,
                (Some(ci), Route::Channel(cj)) => ci != cj,
                (Some(_), Route::WildOnly) => true,
            }
        };
        cases.iter().filter(missed).count()
    }

    /// The router law, over ranks on both sides of the entry layout's
    /// 16-bit boundary.
    #[test]
    fn a_probes_route_covers_every_entry_it_matches() {
        let ranks = [0, 1, 4_464, 40_000, 65_535, 65_536, 70_000, 131_071];
        let pairs = accepting_pairs(&ranks, 1 << 16, 2_000);
        let ids = || pairs.iter().zip(0u64..);
        let prq: Vec<_> = ids()
            .map(|(&(spec, env), id)| (PostedEntry::from_spec(spec, id), env))
            .collect();
        let umq: Vec<_> = ids()
            .map(|(&(spec, env), id)| (UnexpectedEntry::from_envelope(env, id), spec))
            .collect();
        let by_hash = HashBins::<PostedEntry>::with_bins(16).router;
        let digits = RankTrie::<PostedEntry>::new(1 << 16).router;
        assert_eq!(unreachable(BySource, 1 << 16, &prq, seam), 0);
        assert_eq!(unreachable(BySource, 1 << 16, &umq, seam), 0);
        assert_eq!(unreachable(by_hash, 16, &prq, seam), 0);
        assert_eq!(unreachable(by_hash, 16, &umq, seam), 0);
        assert_eq!(unreachable(digits.clone(), 0, &prq, seam), 0);
        assert_eq!(unreachable(digits, 0, &umq, seam), 0);

        // The derivation this seam replaced hashed a probe's full-width rank
        // against an entry's 16-bit one: past 2^16 the law breaks.
        let bin = |ctx, rank: i32, tag, n| (hash_key(ctx, rank as u32, tag) % n as u64) as usize;
        let old_prq = |_: &ByHash, p: &Envelope, n: usize| {
            Route::Channel(bin(p.context_id, p.rank, p.tag, n))
        };
        assert!(unreachable(by_hash, 16, &prq, old_prq) > 0);
        let old_umq = |_: &ByHash, p: &RecvSpec, n: usize| match p.full_key() {
            Some((ctx, rank, tag)) => Route::Channel(bin(ctx, rank, tag, n)),
            None => Route::All,
        };
        assert!(unreachable(by_hash, 16, &umq, old_umq) > 0);
    }
}
