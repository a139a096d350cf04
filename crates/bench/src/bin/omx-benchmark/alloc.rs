//! Counting global allocator: allocation count, bytes allocated, live
//! bytes and peak live bytes, for the whole process (every shard
//! worker included). Counters are relaxed atomics: each is a
//! statistic that publishes no other data.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

pub struct CountingAlloc {
    allocs: AtomicU64,
    bytes: AtomicU64,
    live: AtomicU64,
    peak: AtomicU64,
}

/// A point-in-time reading of the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reading {
    /// Allocations and reallocations so far.
    pub allocs: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
    /// Bytes currently allocated.
    pub live: u64,
    /// Highest `live` since the last [`CountingAlloc::reset_peak`].
    pub peak: u64,
}

impl CountingAlloc {
    pub const fn new() -> Self {
        CountingAlloc {
            allocs: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            live: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        }
    }

    pub fn read(&self) -> Reading {
        Reading {
            allocs: self.allocs.load(Relaxed),
            bytes: self.bytes.load(Relaxed),
            live: self.live.load(Relaxed),
            peak: self.peak.load(Relaxed),
        }
    }

    /// Start a new peak window at the current live size.
    pub fn reset_peak(&self) {
        self.peak.store(self.live.load(Relaxed), Relaxed);
    }

    /// Count one (re)allocation of `requested` bytes that replaced a
    /// block of `freed` bytes (0 for a fresh allocation).
    fn grew(&self, requested: usize, freed: usize) {
        let (requested, freed) = (requested as u64, freed as u64);
        self.allocs.fetch_add(1, Relaxed);
        self.bytes.fetch_add(requested, Relaxed);
        let live = if requested >= freed {
            self.live.fetch_add(requested - freed, Relaxed) + (requested - freed)
        } else {
            self.live.fetch_sub(freed - requested, Relaxed) - (freed - requested)
        };
        self.peak.fetch_max(live, Relaxed);
    }

    fn freed(&self, size: usize) {
        self.live.fetch_sub(size as u64, Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System` upholds the `GlobalAlloc` contract; the
// counters never touch the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        // SAFETY: the caller's `Layout` is passed through unchanged.
        let p = unsafe { System.alloc(l) };
        if !p.is_null() {
            self.grew(l.size(), 0);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        // SAFETY: as in `alloc`.
        let p = unsafe { System.alloc_zeroed(l) };
        if !p.is_null() {
            self.grew(l.size(), 0);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        // SAFETY: `p` was returned by this allocator (hence by
        // `System`) with layout `l`, as the caller guarantees.
        unsafe { System.dealloc(p, l) };
        self.freed(l.size());
    }

    unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `p`/`l` describe a live block
        // of this allocator and `new_size` is valid for `l`'s alignment.
        let q = unsafe { System.realloc(p, l, new_size) };
        if !q.is_null() {
            self.grew(new_size, l.size());
        }
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_growing_vec_moves_every_counter() {
        // A private instance, so tests running on other threads cannot
        // move these counters: the calls a `Vec<u64>` makes when it is
        // created with capacity 1000, grows to 2000 and is dropped.
        let a = CountingAlloc::new();
        let small = Layout::array::<u64>(1000).unwrap();
        // SAFETY: nonzero layout; the block is reallocated and freed
        // with the layout it currently has.
        unsafe {
            let p = a.alloc(small);
            assert_eq!(
                a.read(),
                Reading {
                    allocs: 1,
                    bytes: 8000,
                    live: 8000,
                    peak: 8000
                }
            );
            let q = a.realloc(p, small, 16000);
            assert_eq!(
                a.read(),
                Reading {
                    allocs: 2,
                    bytes: 24000,
                    live: 16000,
                    peak: 16000
                }
            );
            a.dealloc(q, Layout::array::<u64>(2000).unwrap());
        }
        assert_eq!(
            a.read(),
            Reading {
                allocs: 2,
                bytes: 24000,
                live: 0,
                peak: 16000
            }
        );
        a.reset_peak();
        assert_eq!(a.read().peak, 0, "a new window starts at the live size");
    }

    #[test]
    fn the_global_allocator_sees_a_real_vec() {
        // Other test threads only add allocations, so the monotone
        // counters move by at least this Vec's own request.
        let before = crate::ALLOC.read();
        let v: Vec<u8> = Vec::with_capacity(1 << 20);
        let during = crate::ALLOC.read();
        drop(v);
        assert!(during.allocs > before.allocs);
        assert!(during.bytes >= before.bytes + (1 << 20));
        assert!(during.peak >= 1 << 20);
    }
}
