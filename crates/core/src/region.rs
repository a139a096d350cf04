//! Registered (pinned) memory regions and the registration cache.
//!
//! Large-message receive buffers (and send buffers) must be pinned so
//! the BH — or the I/OAT DMA engine, which works on DMA addresses —
//! can copy into them at any time (§II-C). Pinning costs CPU time per
//! page; the classic optimization is a *registration cache* that
//! defers deregistration and reuses pinned regions across messages
//! (§IV-D, Fig 11's "regcache" toggle; \[20\] in the paper).
//!
//! Regions are identified to the application by a stable `tag` (the
//! buffer identity) because the simulation has no virtual addresses.

use omx_hw::HwParams;
use omx_sim::sanitize::{Kind, SimSanitizer, Token};
use omx_sim::Ps;
use std::collections::BTreeMap;

/// One registered region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// Driver-assigned region id (quoted in pull handles).
    pub id: u32,
    /// Application buffer tag this region pins.
    pub tag: u64,
    /// Region length in bytes.
    pub len: u64,
    /// Lifecycle sanitizer token (inert for equality; zero-sized in
    /// release builds).
    san: Token,
}

impl Region {
    /// The checked constructor: mints the lifecycle token with the
    /// caller as the allocation site. All pinning goes through
    /// [`RegionTable::register`], which submits the token.
    #[track_caller]
    pub fn new(id: u32, tag: u64, len: u64) -> Region {
        Region {
            id,
            tag,
            len,
            san: SimSanitizer::alloc(Kind::Region),
        }
    }

    /// The lifecycle token.
    pub fn token(&self) -> Token {
        self.san
    }
}

/// Result of a registration request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Registration {
    /// The region (new or reused).
    pub region: Region,
    /// CPU time the driver must charge (zero on a cache hit).
    pub cost: Ps,
    /// Whether the registration cache supplied the region.
    pub cache_hit: bool,
}

/// Per-process region table with optional registration cache.
#[derive(Debug)]
pub struct RegionTable {
    /// Deferred-deregistration cache: (tag, len) → region, LRU order.
    cache: Vec<Region>,
    /// Live (pinned) regions by id, including cached ones.
    live: BTreeMap<u32, Region>,
    cache_enabled: bool,
    cache_capacity: usize,
    next_id: u32,
    hits: u64,
    misses: u64,
}

impl RegionTable {
    /// A table with the registration cache on/off.
    pub fn new(cache_enabled: bool) -> Self {
        RegionTable {
            cache: Vec::new(),
            live: BTreeMap::new(),
            cache_enabled,
            cache_capacity: 64,
            next_id: 1,
            hits: 0,
            misses: 0,
        }
    }

    /// Register (pin) a buffer identified by `tag` of `len` bytes.
    ///
    /// With the cache enabled, a previous registration of the same
    /// `(tag, len)` is reused for free; otherwise the full per-page
    /// pinning cost is charged.
    #[track_caller]
    pub fn register(&mut self, params: &HwParams, tag: u64, len: u64) -> Registration {
        if self.cache_enabled {
            if let Some(pos) = self.cache.iter().position(|r| r.tag == tag && r.len == len) {
                // Refresh LRU position.
                let region = self.cache.remove(pos);
                self.cache.push(region);
                self.hits += 1;
                // A cache hit re-activates a parked (deferred-
                // deregistration) region.
                SimSanitizer::submit(region.token());
                return Registration {
                    region,
                    cost: Ps::ZERO,
                    cache_hit: true,
                };
            }
        }
        self.misses += 1;
        let region = Region::new(self.next_id, tag, len);
        SimSanitizer::submit(region.token());
        self.next_id += 1;
        self.live.insert(region.id, region);
        Registration {
            region,
            cost: params.pin_cost(len),
            cache_hit: false,
        }
    }

    /// Release a registration. With the cache on, the region stays
    /// pinned (deferred deregistration) and future registrations of the
    /// same buffer hit; with it off, the region is unpinned.
    #[track_caller]
    pub fn release(&mut self, region: Region) {
        if self.cache_enabled {
            // Deferred deregistration: the region stays pinned, parked
            // in the cache (idempotent — a shared region may be parked
            // by several finished users).
            SimSanitizer::park(region.token());
            // Evict LRU entries beyond capacity.
            self.cache.retain(|r| r.id != region.id);
            self.cache.push(region);
            while self.cache.len() > self.cache_capacity {
                let evicted = self.cache.remove(0);
                self.live.remove(&evicted.id);
                SimSanitizer::release(evicted.token());
            }
        } else {
            SimSanitizer::release(region.token());
            self.live.remove(&region.id);
        }
    }

    /// Look up a live region by id (the pull engine's frame handler).
    pub fn get(&self, id: u32) -> Option<Region> {
        self.live.get(&id).copied()
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses (full registrations) so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Currently pinned regions (live + cached).
    pub fn pinned_count(&self) -> usize {
        self.live.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> HwParams {
        HwParams::default()
    }

    #[test]
    fn first_registration_pays_pin_cost() {
        let p = params();
        let mut t = RegionTable::new(true);
        let r = t.register(&p, 100, 1 << 20);
        assert!(!r.cache_hit);
        assert_eq!(r.cost, p.pin_cost(1 << 20));
        assert_eq!(r.region.len, 1 << 20);
        assert_eq!(t.misses(), 1);
    }

    #[test]
    fn cache_hit_is_free_after_release() {
        let p = params();
        let mut t = RegionTable::new(true);
        let r1 = t.register(&p, 100, 64 << 10);
        t.release(r1.region);
        let r2 = t.register(&p, 100, 64 << 10);
        assert!(r2.cache_hit);
        assert_eq!(r2.cost, Ps::ZERO);
        assert_eq!(r2.region.id, r1.region.id, "same pinned region reused");
        assert_eq!(t.hits(), 1);
    }

    #[test]
    fn different_length_misses_cache() {
        let p = params();
        let mut t = RegionTable::new(true);
        let r1 = t.register(&p, 100, 64 << 10);
        t.release(r1.region);
        let r2 = t.register(&p, 100, 128 << 10);
        assert!(!r2.cache_hit);
    }

    #[test]
    fn cache_disabled_always_pays() {
        let p = params();
        let mut t = RegionTable::new(false);
        let r1 = t.register(&p, 100, 64 << 10);
        t.release(r1.region);
        let r2 = t.register(&p, 100, 64 << 10);
        assert!(!r2.cache_hit);
        assert_eq!(r2.cost, p.pin_cost(64 << 10));
        assert_eq!(t.hits(), 0);
        assert_eq!(t.misses(), 2);
        // Released region without cache is unpinned.
        assert!(t.get(r1.region.id).is_none());
    }

    #[test]
    fn lru_eviction_unpins() {
        let p = params();
        let mut t = RegionTable::new(true);
        let mut first = None;
        for tag in 0..70u64 {
            let r = t.register(&p, tag, 4096);
            if tag == 0 {
                first = Some(r.region);
            }
            t.release(r.region);
        }
        // Capacity is 64: tag 0 must have been evicted.
        let r = t.register(&p, 0, 4096);
        assert!(!r.cache_hit, "evicted entry re-registers");
        assert!(t.get(first.unwrap().id).is_none());
        assert!(t.pinned_count() <= 66);
    }

    #[test]
    fn live_regions_resolve_by_id() {
        let p = params();
        let mut t = RegionTable::new(true);
        let r = t.register(&p, 5, 8192);
        assert_eq!(t.get(r.region.id), Some(r.region));
        assert!(t.get(9999).is_none());
    }

    #[test]
    fn cached_region_still_resolves_for_inflight_pulls() {
        // A released-but-cached region must stay resolvable: deferred
        // deregistration keeps it pinned.
        let p = params();
        let mut t = RegionTable::new(true);
        let r = t.register(&p, 5, 8192);
        t.release(r.region);
        assert_eq!(t.get(r.region.id), Some(r.region));
    }
}
