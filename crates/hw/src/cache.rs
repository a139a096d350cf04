//! Coarse per-subchip cache-occupancy model.
//!
//! The simulation does not track cache lines; it tracks *regions*
//! (message buffers, rings) and how many of their bytes are plausibly
//! resident in each subchip's shared L2. That is enough to reproduce
//! the effects the paper reports: the 12 GiB/s cached memcpy, the
//! 6 GiB/s shared-cache ping-pong that collapses once the working set
//! outgrows the L2 (Fig 10), and the cache *pollution* argument for
//! I/OAT (offloaded copies never touch the model).
//!
//! Policy: LRU over regions, capped at the usable capacity from
//! [`HwParams::l2_usable_bytes`]. Touching a region makes it most
//! recently used and, if needed, evicts least-recently-used regions
//! (partially, byte-granular) to make room.
//!
//! Every tagged send and receive touches the model, so each operation
//! costs O(1) expected time however many regions a subchip holds: the
//! regions live in a slab linked in LRU order, a running byte total
//! stands in for summing them, and a linear-probing index maps a key to
//! its slab slot. The index is only probed, never iterated, so no
//! result depends on its layout.

use crate::params::HwParams;
use crate::topology::SubchipId;

/// Key identifying a cached region (one per buffer/ring in the world).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionKey(pub u64);

/// No slab slot: the end of a list.
const NIL: u32 = u32::MAX;

/// One slab slot: a resident region linked into the LRU list, or a
/// vacant slot chained into the free list through `next`.
#[derive(Debug, Clone, Copy)]
struct Entry {
    key: RegionKey,
    bytes: u64,
    /// Neighbour towards the least recently used end.
    prev: u32,
    /// Neighbour towards the most recently used end.
    next: u32,
}

const _: () = assert!(std::mem::size_of::<Entry>() == 24);

/// One subchip's resident regions.
#[derive(Debug, Clone)]
struct SubchipCache {
    slab: Vec<Entry>,
    /// Least recently used entry, evicted first.
    head: u32,
    /// Most recently used entry.
    tail: u32,
    /// First vacant slab slot.
    free: u32,
    /// Resident entries.
    len: u32,
    /// Bytes resident over all entries.
    total: u64,
    /// Slab slot + 1 per occupied bucket, 0 for an empty one. Its
    /// length is 0 or a power of two at least twice `len`, so a probe
    /// always ends at an empty bucket.
    index: Vec<u32>,
}

impl Default for SubchipCache {
    fn default() -> Self {
        SubchipCache {
            slab: Vec::new(),
            head: NIL,
            tail: NIL,
            free: NIL,
            len: 0,
            total: 0,
            index: Vec::new(),
        }
    }
}

impl SubchipCache {
    /// Home bucket of `key` among `mask + 1`: Fibonacci hashing of the
    /// key with its high half folded in, so keys that differ only in
    /// their high bits spread too.
    fn home(key: RegionKey, mask: usize) -> usize {
        let x = (key.0 ^ (key.0 >> 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (x >> 32) as usize & mask
    }

    /// The slab slot of `key`, if resident.
    fn find(&self, key: RegionKey) -> Option<u32> {
        let mask = self.index.len().checked_sub(1)?;
        let mut b = Self::home(key, mask);
        loop {
            let slot = self.index[b].checked_sub(1)?;
            if self.slab[slot as usize].key == key {
                return Some(slot);
            }
            b = (b + 1) & mask;
        }
    }

    fn resident(&self, key: RegionKey) -> u64 {
        self.find(key)
            .map_or(0, |slot| self.slab[slot as usize].bytes)
    }

    fn touch(&mut self, key: RegionKey, bytes: u64, capacity: u64) {
        // Move the entry to the MRU end with the new footprint (capped
        // at capacity). A zero-byte touch leaves everything as it was.
        let bytes = bytes.min(capacity);
        if bytes == 0 {
            return;
        }
        let slot = match self.find(key) {
            Some(slot) => {
                self.unlink(slot);
                let old = std::mem::replace(&mut self.slab[slot as usize].bytes, bytes);
                self.total = self.total - old + bytes;
                slot
            }
            None => self.insert(key, bytes),
        };
        self.link_mru(slot);
        // Evict from the LRU end until we fit. The entry just touched
        // holds at most `capacity` bytes, so the trim stops before it.
        while self.total > capacity && self.head != slot {
            let lru = self.head;
            let excess = self.total - capacity;
            let b = &mut self.slab[lru as usize].bytes;
            if *b <= excess {
                self.remove(lru);
            } else {
                *b -= excess;
                self.total -= excess;
            }
        }
    }

    fn invalidate(&mut self, key: RegionKey) {
        if let Some(slot) = self.find(key) {
            self.remove(slot);
        }
    }

    /// Store a new, unlinked entry and index it; returns its slot.
    fn insert(&mut self, key: RegionKey, bytes: u64) -> u32 {
        if (self.len as usize + 1) * 2 > self.index.len() {
            self.grow_index();
        }
        let entry = Entry {
            key,
            bytes,
            prev: NIL,
            next: NIL,
        };
        let slot = if self.free == NIL {
            self.slab.push(entry);
            (self.slab.len() - 1) as u32
        } else {
            let slot = self.free;
            self.free = self.slab[slot as usize].next;
            self.slab[slot as usize] = entry;
            slot
        };
        self.place(slot);
        self.len += 1;
        self.total += bytes;
        slot
    }

    /// Double the index (8 buckets at first) and re-place every
    /// resident entry: the only allocation a touch can make besides
    /// the slab's growth.
    fn grow_index(&mut self) {
        self.index = vec![0; (self.index.len() * 2).max(8)];
        let mut slot = self.head;
        while slot != NIL {
            self.place(slot);
            slot = self.slab[slot as usize].next;
        }
    }

    /// Put `slot` in the first empty bucket from its key's home.
    fn place(&mut self, slot: u32) {
        let mask = self.index.len() - 1;
        let mut b = Self::home(self.slab[slot as usize].key, mask);
        while self.index[b] != 0 {
            b = (b + 1) & mask;
        }
        self.index[b] = slot + 1;
    }

    /// Drop the resident `slot`.
    fn remove(&mut self, slot: u32) {
        self.unlink(slot);
        self.unindex(slot);
        let e = &mut self.slab[slot as usize];
        self.total -= e.bytes;
        e.next = self.free;
        self.free = slot;
        self.len -= 1;
    }

    /// Empty the bucket of the resident `slot` and shift later entries
    /// of its probe run back, so every probe still ends at the first
    /// empty bucket.
    fn unindex(&mut self, slot: u32) {
        let mask = self.index.len() - 1;
        let mut hole = Self::home(self.slab[slot as usize].key, mask);
        while self.index[hole] != slot + 1 {
            hole = (hole + 1) & mask;
        }
        let mut b = hole;
        loop {
            b = (b + 1) & mask;
            let Some(other) = self.index[b].checked_sub(1) else {
                break;
            };
            // The entry may move into the hole when its home is not
            // inside the stretch (hole, b].
            let home = Self::home(self.slab[other as usize].key, mask);
            if b.wrapping_sub(home) & mask >= b.wrapping_sub(hole) & mask {
                self.index[hole] = other + 1;
                hole = b;
            }
        }
        self.index[hole] = 0;
    }

    /// Take `slot` out of the LRU list.
    fn unlink(&mut self, slot: u32) {
        let Entry { prev, next, .. } = self.slab[slot as usize];
        match prev {
            NIL => self.head = next,
            p => self.slab[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slab[n as usize].prev = prev,
        }
    }

    /// Append the unlinked `slot` at the MRU end.
    fn link_mru(&mut self, slot: u32) {
        let tail = self.tail;
        let e = &mut self.slab[slot as usize];
        e.prev = tail;
        e.next = NIL;
        match tail {
            NIL => self.head = slot,
            t => self.slab[t as usize].next = slot,
        }
        self.tail = slot;
    }
}

/// Cache occupancy for every subchip of one host.
#[derive(Debug, Default, Clone)]
pub struct CacheModel {
    /// Indexed by [`SubchipId`]; grown on a subchip's first touch.
    subchips: Vec<SubchipCache>,
}

impl CacheModel {
    /// An empty (cold) cache model.
    pub fn new() -> Self {
        Self::default()
    }

    /// `subchip`'s cache, creating the missing ones up to it.
    fn subchip_mut(&mut self, subchip: SubchipId) -> &mut SubchipCache {
        let i = subchip.0 as usize;
        if i >= self.subchips.len() {
            self.subchips.resize_with(i + 1, SubchipCache::default);
        }
        &mut self.subchips[i]
    }

    fn subchip(&self, subchip: SubchipId) -> Option<&SubchipCache> {
        self.subchips.get(subchip.0 as usize)
    }

    /// Record that a core on `subchip` streamed through `bytes` of
    /// `region` (a CPU copy touched it — I/OAT copies must NOT call
    /// this; bypassing the cache is exactly their advantage). A
    /// zero-byte touch changes nothing.
    pub fn touch(&mut self, params: &HwParams, subchip: SubchipId, key: RegionKey, bytes: u64) {
        self.subchip_mut(subchip)
            .touch(key, bytes, params.l2_usable_bytes());
    }

    /// Record a *write* to `region` by a core on `subchip`: coherence
    /// invalidates every other subchip's copy (MESI exclusive
    /// ownership), then the writer's L2 holds it. A zero-byte write
    /// changes nothing.
    pub fn touch_exclusive(
        &mut self,
        params: &HwParams,
        subchip: SubchipId,
        key: RegionKey,
        bytes: u64,
    ) {
        if bytes == 0 {
            return;
        }
        for (s, c) in self.subchips.iter_mut().enumerate() {
            if s != subchip.0 as usize {
                c.invalidate(key);
            }
        }
        self.touch(params, subchip, key, bytes);
    }

    /// Bytes of `region` currently resident in `subchip`'s L2.
    pub fn resident(&self, subchip: SubchipId, key: RegionKey) -> u64 {
        self.subchip(subchip).map_or(0, |c| c.resident(key))
    }

    /// Fraction of a `bytes`-long access to `region` expected to hit in
    /// `subchip`'s L2, in `[0, 1]`.
    pub fn hit_fraction(&self, subchip: SubchipId, key: RegionKey, bytes: u64) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        let res = self.resident(subchip, key).min(bytes);
        res as f64 / bytes as f64
    }

    /// Drop a region everywhere (buffer freed / unmapped).
    pub fn invalidate(&mut self, key: RegionKey) {
        for c in &mut self.subchips {
            c.invalidate(key);
        }
    }

    /// Total bytes resident on `subchip` (diagnostics).
    pub fn occupancy(&self, subchip: SubchipId) -> u64 {
        self.subchip(subchip).map_or(0, |c| c.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> HwParams {
        // 4 MiB L2, 50 % usable → 2 MiB capacity.
        HwParams::default()
    }

    const S0: SubchipId = SubchipId(0);
    const S1: SubchipId = SubchipId(1);

    #[test]
    fn cold_cache_misses() {
        let c = CacheModel::new();
        assert_eq!(c.resident(S0, RegionKey(1)), 0);
        assert_eq!(c.hit_fraction(S0, RegionKey(1), 4096), 0.0);
        assert_eq!(c.hit_fraction(S0, RegionKey(1), 0), 0.0);
    }

    #[test]
    fn touch_makes_region_resident_per_subchip() {
        let p = params();
        let mut c = CacheModel::new();
        c.touch(&p, S0, RegionKey(1), 64 << 10);
        assert_eq!(c.resident(S0, RegionKey(1)), 64 << 10);
        assert_eq!(c.resident(S1, RegionKey(1)), 0, "caches are private");
        assert_eq!(c.hit_fraction(S0, RegionKey(1), 64 << 10), 1.0);
        assert_eq!(c.hit_fraction(S0, RegionKey(1), 128 << 10), 0.5);
    }

    #[test]
    fn footprint_caps_at_capacity() {
        let p = params();
        let cap = p.l2_usable_bytes();
        let mut c = CacheModel::new();
        c.touch(&p, S0, RegionKey(1), 16 << 20); // 16 MiB stream
        assert_eq!(c.resident(S0, RegionKey(1)), cap);
        // A 16 MiB re-read only hits on the resident tail.
        let f = c.hit_fraction(S0, RegionKey(1), 16 << 20);
        assert!((f - cap as f64 / (16u64 << 20) as f64).abs() < 1e-9);
    }

    #[test]
    fn lru_evicts_oldest_first() {
        let p = params();
        let cap = p.l2_usable_bytes(); // 2 MiB
        let mut c = CacheModel::new();
        c.touch(&p, S0, RegionKey(1), cap / 2);
        c.touch(&p, S0, RegionKey(2), cap / 2);
        // Both fit exactly.
        assert_eq!(c.resident(S0, RegionKey(1)), cap / 2);
        assert_eq!(c.resident(S0, RegionKey(2)), cap / 2);
        // A third region of half capacity evicts region 1 (LRU).
        c.touch(&p, S0, RegionKey(3), cap / 2);
        assert_eq!(c.resident(S0, RegionKey(1)), 0);
        assert_eq!(c.resident(S0, RegionKey(2)), cap / 2);
        assert_eq!(c.resident(S0, RegionKey(3)), cap / 2);
    }

    #[test]
    fn partial_eviction_trims_lru_region() {
        let p = params();
        let cap = p.l2_usable_bytes();
        let mut c = CacheModel::new();
        c.touch(&p, S0, RegionKey(1), cap);
        c.touch(&p, S0, RegionKey(2), cap / 4);
        assert_eq!(c.resident(S0, RegionKey(2)), cap / 4);
        assert_eq!(c.resident(S0, RegionKey(1)), cap - cap / 4);
        assert!(c.occupancy(S0) <= cap);
    }

    #[test]
    fn retouching_refreshes_lru_position() {
        let p = params();
        let cap = p.l2_usable_bytes();
        let mut c = CacheModel::new();
        c.touch(&p, S0, RegionKey(1), cap / 2);
        c.touch(&p, S0, RegionKey(2), cap / 2);
        // Refresh region 1, then insert region 3: region 2 must go.
        c.touch(&p, S0, RegionKey(1), cap / 2);
        c.touch(&p, S0, RegionKey(3), cap / 2);
        assert_eq!(c.resident(S0, RegionKey(1)), cap / 2);
        assert_eq!(c.resident(S0, RegionKey(2)), 0);
    }

    #[test]
    fn invalidate_drops_region_everywhere() {
        let p = params();
        let mut c = CacheModel::new();
        c.touch(&p, S0, RegionKey(1), 4096);
        c.touch(&p, S1, RegionKey(1), 4096);
        c.invalidate(RegionKey(1));
        assert_eq!(c.resident(S0, RegionKey(1)), 0);
        assert_eq!(c.resident(S1, RegionKey(1)), 0);
    }

    #[test]
    fn zero_byte_touch_is_noop() {
        let p = params();
        let mut c = CacheModel::new();
        c.touch(&p, S0, RegionKey(1), 0);
        assert_eq!(c.occupancy(S0), 0);
    }

    #[test]
    fn zero_byte_touches_leave_resident_regions_alone() {
        let p = params();
        let mut c = CacheModel::new();
        c.touch(&p, S0, RegionKey(1), 4096);
        c.touch(&p, S1, RegionKey(1), 4096);
        c.touch(&p, S0, RegionKey(2), 4096);
        c.touch(&p, S0, RegionKey(1), 0);
        c.touch_exclusive(&p, S0, RegionKey(1), 0);
        assert_eq!(c.resident(S0, RegionKey(1)), 4096);
        assert_eq!(c.resident(S1, RegionKey(1)), 4096, "no invalidation");
        assert_eq!(c.occupancy(S0), 8192);
        // Region 1 kept its LRU position behind region 2, so it is the
        // one a new region evicts.
        c.touch(&p, S0, RegionKey(3), p.l2_usable_bytes() - 4096);
        assert_eq!(c.resident(S0, RegionKey(1)), 0);
        assert_eq!(c.resident(S0, RegionKey(2)), 4096);
    }

    /// The model as it stood before the slab: one `Vec` per subchip in
    /// LRU order, rescanned by every operation, with zero-byte touches
    /// made no-ops. The differential proptest holds the slab to it.
    #[derive(Default)]
    struct VecModel {
        subchips: std::collections::BTreeMap<SubchipId, Vec<(RegionKey, u64)>>,
    }

    impl VecModel {
        fn touch(&mut self, params: &HwParams, subchip: SubchipId, key: RegionKey, bytes: u64) {
            let capacity = params.l2_usable_bytes();
            let bytes = bytes.min(capacity);
            if bytes == 0 {
                return;
            }
            let lru = self.subchips.entry(subchip).or_default();
            lru.retain(|(k, _)| *k != key);
            lru.push((key, bytes));
            let mut total: u64 = lru.iter().map(|(_, b)| b).sum();
            let mut i = 0;
            while total > capacity && i < lru.len() - 1 {
                let excess = total - capacity;
                let (_, b) = &mut lru[i];
                if *b <= excess {
                    total -= *b;
                    lru.remove(i);
                } else {
                    *b -= excess;
                    total -= excess;
                    i += 1;
                }
            }
        }

        fn touch_exclusive(
            &mut self,
            p: &HwParams,
            subchip: SubchipId,
            key: RegionKey,
            bytes: u64,
        ) {
            if bytes == 0 {
                return;
            }
            for (s, lru) in self.subchips.iter_mut() {
                if *s != subchip {
                    lru.retain(|(k, _)| *k != key);
                }
            }
            self.touch(p, subchip, key, bytes);
        }

        fn invalidate(&mut self, key: RegionKey) {
            for lru in self.subchips.values_mut() {
                lru.retain(|(k, _)| *k != key);
            }
        }

        /// Resident bytes of every key in `0..keys` on `subchip`.
        fn residency(&self, subchip: SubchipId, keys: u64) -> Vec<u64> {
            let mut out = vec![0; keys as usize];
            for (k, b) in self.subchips.get(&subchip).into_iter().flatten() {
                out[k.0 as usize] = *b;
            }
            out
        }

        fn occupancy(&self, subchip: SubchipId) -> u64 {
            self.subchips
                .get(&subchip)
                .map_or(0, |lru| lru.iter().map(|(_, b)| b).sum())
        }
    }

    /// Run `ops` through both models over `subchips` subchips and keys
    /// `0..keys`, comparing every key's residency and every subchip's
    /// occupancy after each step. An op is (kind, subchip, key, bytes):
    /// kinds 0-5 touch, 6 writes, 7 invalidates.
    fn differential(subchips: u32, keys: u64, ops: &[(u8, u32, u64, u64)]) {
        let p = params();
        let (mut fast, mut oracle) = (CacheModel::new(), VecModel::default());
        for (step, &(kind, s, k, bytes)) in ops.iter().enumerate() {
            let (s, key) = (SubchipId(s % subchips), RegionKey(k % keys));
            match kind {
                0..=5 => {
                    fast.touch(&p, s, key, bytes);
                    oracle.touch(&p, s, key, bytes);
                }
                6 => {
                    fast.touch_exclusive(&p, s, key, bytes);
                    oracle.touch_exclusive(&p, s, key, bytes);
                }
                _ => {
                    fast.invalidate(key);
                    oracle.invalidate(key);
                }
            }
            for s in (0..subchips).map(SubchipId) {
                let want = oracle.residency(s, keys);
                for (k, &w) in want.iter().enumerate() {
                    let got = fast.resident(s, RegionKey(k as u64));
                    assert_eq!(got, w, "step {step}: {s:?} key {k}");
                }
                assert_eq!(fast.occupancy(s), oracle.occupancy(s), "step {step}: {s:?}");
            }
        }
    }

    mod differential {
        use super::differential;
        use proptest::prelude::*;

        /// One op (see [`differential`]). One in `big_one_in` byte
        /// counts is drawn from zero to twice the 2 MiB capacity, one is
        /// zero, and the rest are under 8 KiB, so small regions pile up
        /// between the evictions the big ones force.
        fn op(big_one_in: u32) -> impl Strategy<Value = (u8, u32, u64, u64)> {
            let bytes =
                (0..big_one_in, 1u64..8192, 0u64..(4 << 20)).prop_map(|(pick, small, big)| {
                    match pick {
                        0 => big,
                        1 => 0,
                        _ => small,
                    }
                });
            (0u8..8, 0u32..4, any::<u64>(), bytes)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Few keys: re-touches, full and partial evictions.
            #[test]
            fn slab_matches_vec_lru_on_few_keys(
                subchips in 2u32..5,
                ops in proptest::collection::vec(op(4), 1..300),
            ) {
                differential(subchips, 6, &ops);
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]

            /// Many keys: hundreds resident at once, so the index grows
            /// and LRU trims shift probe runs back.
            #[test]
            fn slab_matches_vec_lru_on_many_keys(
                subchips in 2u32..5,
                ops in proptest::collection::vec(op(200), 1..1500),
            ) {
                differential(subchips, 700, &ops);
            }
        }
    }
}
