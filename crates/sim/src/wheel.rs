//! Hierarchical timing wheel: the near-term half of the event queue.
//!
//! The wheel covers a sliding window of [`WHEEL_SLOTS`] slots of
//! `2^SLOT_SHIFT` picoseconds each (512 × ~131 ns ≈ 67 µs) starting
//! at the cursor — the slot of the most recently executed instant.
//! Storage is kernel-timer style: every slot is the head of an
//! intrusive singly-linked list whose nodes live in one shared slab
//! (`Vec` plus an index free list), so pushing is O(1) — write one
//! slab node, link it in — and the only growing allocation is the slab
//! itself, amortised exactly like a binary heap's backing vector.
//! Events beyond the window live in an overflow binary heap owned by
//! the engine and cascade into the wheel as the cursor advances.
//!
//! With [`Wheel::with_levels`]`(2)` — the engine's default — a second,
//! coarser ring is layered on top, kernel-`timer_list` style: each
//! level-1 slot spans the entire level-0 window (512 × ~67 µs ≈ 34 ms
//! of coverage), and its entries live in the *same* node slab as
//! level 0. An event beyond the level-0 window but inside level-1
//! coverage is an O(1) push into a level-1 list; only events further
//! than ~34 ms out fall back to the boxed overflow heap (at one level,
//! everything past the level-0 window does). When the cursor crosses into a new level-1
//! slot, that slot's nodes are relinked — no copy, no allocation —
//! into the level-0 slots their timestamps select. Because the engine
//! sorts a slot once on adoption by the unique `(time, seq)` key,
//! cascading changes no observable execution order: level count is a
//! pure throughput knob (`wheel_levels` in `OmxConfig`).
//!
//! Finding the next instant is a bitmap scan from the cursor (64-bit
//! words, so at most 9 word reads across the whole window) followed by
//! an O(1) read of the cached per-slot minimum. The engine never
//! extracts individual instants from the wheel: when the cursor lands
//! on a slot, [`Wheel::take_cursor_slot`] unlinks the *entire* slot
//! list into the engine's current-slot run queue, which the engine
//! sorts by `(time, seq)` once. Because sequence numbers are unique,
//! that sort reconstructs the exact global schedule order — slot lists
//! are free to be unordered (they are LIFO), and determinism rests
//! only on the sort key (see `engine.rs`).

use crate::event::EventFn;
use crate::time::Ps;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// log2 of the slot width in picoseconds (~131 ns per slot). Wide
/// slots keep the ring small (the whole occupancy structure is a few
/// cache lines) and amortise per-slot work over more events; the
/// engine sorts a slot once when it adopts it, so slot width does not
/// affect execution order.
pub(crate) const SLOT_SHIFT: u32 = 17;
/// Number of slots in the sliding window (window span ≈ 67 µs).
pub(crate) const WHEEL_SLOTS: u64 = 512;
/// log2 of [`WHEEL_SLOTS`]: level-0 slots per level-1 slot, so one
/// level-1 slot covers exactly one level-0 window (~67 µs) and the
/// level-1 ring covers ≈ 34 ms.
const L1_BITS: u32 = WHEEL_SLOTS.trailing_zeros();
const MASK: u64 = WHEEL_SLOTS - 1;
const WORDS: usize = (WHEEL_SLOTS / 64) as usize;
const SLOTS: usize = WHEEL_SLOTS as usize;
/// Null link in the slab lists.
const NIL: u32 = u32::MAX;

/// Absolute slot index of a timestamp.
#[inline]
pub(crate) fn slot_of(at: Ps) -> u64 {
    at.0 >> SLOT_SHIFT
}

/// Absolute level-1 slot index of a timestamp.
#[inline]
fn slot1_of(at: Ps) -> u64 {
    at.0 >> (SLOT_SHIFT + L1_BITS)
}

/// One scheduled event: timestamp, FIFO tiebreak, packed closure.
pub(crate) struct Entry<W> {
    pub(crate) at: Ps,
    pub(crate) seq: u64,
    pub(crate) f: EventFn<W>,
}

/// Overflow entry: the closure is boxed so heap nodes are small (24
/// bytes — sift-downs move less than the old all-heap engine's 32-byte
/// nodes). The box costs one allocation per *beyond-window* event,
/// which is exactly what the old engine paid for every event; the
/// steady-state no-allocation guarantee covers the in-window hot path.
pub(crate) struct FarEntry<W> {
    pub(crate) at: Ps,
    pub(crate) seq: u64,
    pub(crate) f: Box<EventFn<W>>,
}

impl<W> FarEntry<W> {
    /// Unbox into a wheel/current entry (on cascade).
    pub(crate) fn into_entry(self) -> Entry<W> {
        Entry {
            at: self.at,
            seq: self.seq,
            f: *self.f,
        }
    }
}

impl<W> PartialEq for FarEntry<W> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<W> Eq for FarEntry<W> {}
impl<W> PartialOrd for FarEntry<W> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<W> Ord for FarEntry<W> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The overflow heap type: min-heap over `(at, seq)`.
pub(crate) type FarHeap<W> = BinaryHeap<std::cmp::Reverse<FarEntry<W>>>;

/// One slab node: an entry plus its intrusive link. The closure sits
/// in an `Option` (same size as `EventFn` thanks to the fn-pointer
/// niche): `Some` while the node is linked into a slot, `None` while
/// it is on the free list — so dropping the slab drops exactly the
/// closures that never ran.
struct Node<W> {
    at: Ps,
    seq: u64,
    next: u32,
    f: Option<EventFn<W>>,
}

/// The sliding-window wheel.
pub(crate) struct Wheel<W> {
    /// Head node index per physical slot (`NIL` if empty).
    heads: [u32; SLOTS],
    /// Exact minimum timestamp per occupied slot (`Ps::MAX` if empty),
    /// maintained on push and cleared on adoption — never rescanned.
    slot_min: [Ps; SLOTS],
    /// Occupancy bitmap over physical slots.
    words: [u64; WORDS],
    /// Level-1 ring: head node index per physical level-1 slot. Only
    /// populated when `levels == 2`; shares the node slab with level 0.
    heads1: [u32; SLOTS],
    /// Exact minimum timestamp per occupied level-1 slot.
    slot_min1: [Ps; SLOTS],
    /// Occupancy bitmap over physical level-1 slots.
    words1: [u64; WORDS],
    /// Shared node slab for all slot lists (both levels).
    nodes: Vec<Node<W>>,
    /// Head of the slab free list (`NIL` if empty).
    free: u32,
    /// Absolute slot index the window starts at.
    cursor: u64,
    /// Total entries in the wheel (both levels).
    len: usize,
    /// Entries currently resident in level-1 slots.
    len1: usize,
    /// Active wheel levels: 1 (level-0 ring only, overflow straight to
    /// the far heap) or 2 (level-1 ring absorbs ≲ 34 ms overflow).
    levels: u32,
}

impl<W> Wheel<W> {
    pub(crate) fn with_levels(levels: u32) -> Self {
        assert!(
            (1..=2).contains(&levels),
            "wheel_levels must be 1 or 2, got {levels}"
        );
        Wheel {
            heads: [NIL; SLOTS],
            slot_min: [Ps::MAX; SLOTS],
            words: [0; WORDS],
            heads1: [NIL; SLOTS],
            slot_min1: [Ps::MAX; SLOTS],
            words1: [0; WORDS],
            nodes: Vec::new(),
            free: NIL,
            cursor: 0,
            len: 0,
            len1: 0,
            levels,
        }
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[cfg(test)]
    pub(crate) fn len1(&self) -> usize {
        self.len1
    }

    /// First absolute level-1 slot that may hold entries: the one
    /// after the slot the cursor is in. Level-1 slots at or before the
    /// cursor's own have already been cascaded into level 0 (entries
    /// land in level 1 only when beyond the level-0 window, which
    /// always lies past the cursor's level-1 slot).
    #[inline]
    fn k1(&self) -> u64 {
        (self.cursor >> L1_BITS) + 1
    }

    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Move the cursor of an empty wheel without a cascade scan — the
    /// engine's fast path when the next instant comes straight off the
    /// overflow heap.
    #[inline]
    pub(crate) fn jump_to(&mut self, slot: u64) {
        debug_assert_eq!(self.len, 0, "jump_to on a non-empty wheel");
        debug_assert!(slot >= self.cursor, "cursor moved backwards");
        self.cursor = slot;
    }

    #[inline]
    pub(crate) fn cursor(&self) -> u64 {
        self.cursor
    }

    /// True if `at` falls inside the wheel's coverage: the level-0
    /// window for a 1-level wheel, the level-1 window (~34 ms) when
    /// the second level is active.
    #[inline]
    pub(crate) fn in_window(&self, at: Ps) -> bool {
        if self.levels == 1 {
            slot_of(at) < self.cursor + WHEEL_SLOTS
        } else {
            slot1_of(at) < self.k1() + WHEEL_SLOTS
        }
    }

    /// Insert an entry whose slot lies inside the wheel's coverage,
    /// routing to the level its timestamp selects.
    #[inline]
    pub(crate) fn push(&mut self, e: Entry<W>) {
        let Entry { at, seq, f } = e;
        let s = slot_of(at);
        if s < self.cursor + WHEEL_SLOTS {
            debug_assert!(
                s >= self.cursor,
                "slot {s} before window start {}",
                self.cursor
            );
            let phys = (s & MASK) as usize;
            let head = self.heads[phys];
            if head == NIL {
                self.words[phys / 64] |= 1u64 << (phys % 64);
                self.slot_min[phys] = at;
            } else if at < self.slot_min[phys] {
                self.slot_min[phys] = at;
            }
            // Link in at the head (LIFO — order is reconstructed by
            // the engine's adoption sort).
            let idx = self.alloc_node(at, seq, head, f);
            self.heads[phys] = idx;
        } else {
            let l1 = s >> L1_BITS;
            debug_assert!(
                self.levels == 2 && l1 >= self.k1() && l1 < self.k1() + WHEEL_SLOTS,
                "level-1 slot {l1} outside window [{}, {}) (levels={})",
                self.k1(),
                self.k1() + WHEEL_SLOTS,
                self.levels
            );
            let phys = (l1 & MASK) as usize;
            let head = self.heads1[phys];
            if head == NIL {
                self.words1[phys / 64] |= 1u64 << (phys % 64);
                self.slot_min1[phys] = at;
            } else if at < self.slot_min1[phys] {
                self.slot_min1[phys] = at;
            }
            let idx = self.alloc_node(at, seq, head, f);
            self.heads1[phys] = idx;
            self.len1 += 1;
        }
        self.len += 1;
    }

    /// Grab a slab node (free list first) holding `(at, seq, f)` with
    /// its link set to `next`.
    #[inline]
    fn alloc_node(&mut self, at: Ps, seq: u64, next: u32, f: EventFn<W>) -> u32 {
        if self.free != NIL {
            let idx = self.free;
            let n = &mut self.nodes[idx as usize];
            self.free = n.next;
            *n = Node {
                at,
                seq,
                next,
                f: Some(f),
            };
            idx
        } else {
            let idx = self.nodes.len() as u32;
            self.nodes.push(Node {
                at,
                seq,
                next,
                f: Some(f),
            });
            idx
        }
    }

    /// Earliest timestamp anywhere in the wheel, if non-empty. A bitmap
    /// scan in window order (cursor first, wrapping), then the cached
    /// slot minimum; with two levels, the exact minimum of both rings
    /// (an unaligned cursor lets a level-1 resident undercut the tail
    /// of the level-0 window, so neither ring alone is authoritative).
    /// Does not mutate — calling this must stay safe even when the
    /// engine then declines to run the instant (deadline).
    #[inline]
    pub(crate) fn min_at(&self) -> Option<Ps> {
        if self.len == 0 {
            return None;
        }
        let m0 = if self.len > self.len1 {
            scan_min(&self.words, &self.slot_min, (self.cursor & MASK) as usize)
        } else {
            Ps::MAX
        };
        let m1 = if self.len1 > 0 {
            scan_min(&self.words1, &self.slot_min1, (self.k1() & MASK) as usize)
        } else {
            Ps::MAX
        };
        let m = m0.min(m1);
        debug_assert_ne!(m, Ps::MAX, "wheel len={} but no occupied slot", self.len);
        Some(m)
    }

    /// Slide the window start forward to `slot`, cascade level-1 slots
    /// the cursor has reached down into level 0 (node relinks in the
    /// shared slab — no copy, no allocation), then cascade every
    /// overflow entry that now falls inside the wheel's coverage.
    /// Cascade order is free: slot lists are unordered and the engine
    /// sorts a slot by its unique `(at, seq)` keys on adoption, so the
    /// observable schedule is identical to a fresh insert of every
    /// entry.
    pub(crate) fn advance_to(&mut self, slot: u64, far: &mut FarHeap<W>) {
        debug_assert!(slot >= self.cursor, "cursor moved backwards");
        let old_k1 = self.k1();
        self.cursor = slot;
        if self.len1 > 0 {
            let new_k = slot >> L1_BITS;
            if new_k >= old_k1 {
                self.cascade_level1(old_k1, new_k);
            }
        }
        while let Some(std::cmp::Reverse(head)) = far.peek() {
            if !self.in_window(head.at) {
                break;
            }
            let std::cmp::Reverse(e) = far.pop().expect("peeked entry vanished");
            self.push(e.into_entry());
        }
    }

    /// Drain every occupied level-1 slot in `[from, upto]` into the
    /// level-0 ring; a drained node is relinked in place. In engine
    /// use only the cursor's own level-1 slot can actually be occupied
    /// (an earlier occupied slot would contain the queue minimum and
    /// the cursor never overtakes the minimum), but the range form
    /// keeps the structure safe for arbitrary advances.
    fn cascade_level1(&mut self, from: u64, upto: u64) {
        if upto - from < WHEEL_SLOTS {
            // The engine advances one queue minimum at a time, so the
            // crossed range is a slot or two: probe exactly those
            // occupancy bits. (A bitmap sweep here would visit every
            // resident slot on every advance — O(live slots) per
            // executed event once hundreds of far timers are pending.)
            for s in from..=upto {
                let phys = (s & MASK) as usize;
                if self.words1[phys / 64] & (1u64 << (phys % 64)) != 0 {
                    self.drain_level1_slot(phys);
                    if self.len1 == 0 {
                        return;
                    }
                }
            }
            return;
        }
        // The jump spans the whole ring, so every occupied slot is in
        // range: sweep the bitmap, bounded by live slots.
        for wi in 0..WORDS {
            let mut w = self.words1[wi];
            while w != 0 {
                let b = w.trailing_zeros() as usize;
                w &= w - 1;
                self.drain_level1_slot(wi * 64 + b);
                if self.len1 == 0 {
                    return;
                }
            }
        }
    }

    /// Relink every node of one level-1 slot into the level-0 slot its
    /// timestamp selects. Callable only once the cursor has advanced
    /// far enough that the whole slot fits the level-0 window.
    fn drain_level1_slot(&mut self, phys: usize) {
        let mut idx = self.heads1[phys];
        debug_assert_ne!(idx, NIL, "draining an empty level-1 slot");
        self.heads1[phys] = NIL;
        self.slot_min1[phys] = Ps::MAX;
        self.words1[phys / 64] &= !(1u64 << (phys % 64));
        while idx != NIL {
            let next = self.nodes[idx as usize].next;
            let at = self.nodes[idx as usize].at;
            let s = slot_of(at);
            debug_assert!(
                s >= self.cursor && s < self.cursor + WHEEL_SLOTS,
                "cascaded level-1 entry (slot {s}) outside the level-0 window [{}, {})",
                self.cursor,
                self.cursor + WHEEL_SLOTS
            );
            let p0 = (s & MASK) as usize;
            let head = self.heads[p0];
            if head == NIL {
                self.words[p0 / 64] |= 1u64 << (p0 % 64);
                self.slot_min[p0] = at;
            } else if at < self.slot_min[p0] {
                self.slot_min[p0] = at;
            }
            self.nodes[idx as usize].next = head;
            self.heads[p0] = idx;
            self.len1 -= 1;
            idx = next;
        }
    }

    /// Unlink the entire (non-empty) cursor slot into `out` as node
    /// indices, clearing the slot's occupancy. The indices arrive in
    /// list (reverse-push) order; the engine sorts them by `(time,
    /// seq)` once, which reconstructs the exact schedule order. The
    /// nodes stay allocated until [`Wheel::consume`] frees them.
    #[inline]
    pub(crate) fn take_cursor_slot(&mut self, out: &mut VecDeque<u32>) {
        debug_assert!(out.is_empty());
        let phys = (self.cursor & MASK) as usize;
        let mut idx = self.heads[phys];
        debug_assert_ne!(idx, NIL, "taking an empty cursor slot");
        self.heads[phys] = NIL;
        self.slot_min[phys] = Ps::MAX;
        self.words[phys / 64] &= !(1u64 << (phys % 64));
        while idx != NIL {
            out.push_back(idx);
            self.len -= 1;
            idx = self.nodes[idx as usize].next;
        }
    }

    /// `(time, seq)` key of a live node (sort key, deadline checks).
    #[inline]
    pub(crate) fn node_key(&self, idx: u32) -> (Ps, u64) {
        let n = &self.nodes[idx as usize];
        (n.at, n.seq)
    }

    /// Timestamp of a live node.
    #[inline]
    pub(crate) fn node_at(&self, idx: u32) -> Ps {
        self.nodes[idx as usize].at
    }

    /// Allocate an unlinked slab node for an entry the engine adopts
    /// straight into its current run queue (cursor-slot schedules and
    /// the overflow fast path). Not counted in `len` — the entry is
    /// the engine's, only its storage lives here.
    #[inline]
    pub(crate) fn adopt(&mut self, e: Entry<W>) -> u32 {
        let Entry { at, seq, f } = e;
        self.alloc_node(at, seq, NIL, f)
    }

    /// Consume a node handed out by [`Wheel::take_cursor_slot`] or
    /// [`Wheel::adopt`]: move its closure out and free-list the node.
    #[inline]
    pub(crate) fn consume(&mut self, idx: u32) -> (Ps, EventFn<W>) {
        let n = &mut self.nodes[idx as usize];
        let f = n.f.take().expect("consuming a free node");
        n.next = self.free;
        self.free = idx;
        (n.at, f)
    }
}

/// Earliest cached slot minimum of one ring, scanning the occupancy
/// bitmap in window order from physical slot `start` (wrapping).
/// Returns `Ps::MAX` when the ring is empty.
#[inline]
fn scan_min(words: &[u64; WORDS], slot_min: &[Ps; SLOTS], start: usize) -> Ps {
    let (cw, cb) = (start / 64, start % 64);
    let first = words[cw] & (!0u64 << cb);
    if first != 0 {
        return slot_min[cw * 64 + first.trailing_zeros() as usize];
    }
    for i in 1..=WORDS {
        let wi = (cw + i) % WORDS;
        let mut w = words[wi];
        if i == WORDS {
            // Wrapped back to the start's own word: only the low bits
            // (physically before the start slot) are unseen.
            w &= !(!0u64 << cb);
        }
        if w != 0 {
            return slot_min[wi * 64 + w.trailing_zeros() as usize];
        }
    }
    Ps::MAX
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventPool;

    fn entry(pool: &mut EventPool, at: Ps, seq: u64) -> Entry<()> {
        Entry {
            at,
            seq,
            f: EventFn::new(|_: &mut (), _: &mut crate::Sim<()>| {}, pool),
        }
    }

    fn far_entry(pool: &mut EventPool, at: Ps, seq: u64) -> FarEntry<()> {
        let Entry { at, seq, f } = entry(pool, at, seq);
        FarEntry {
            at,
            seq,
            f: Box::new(f),
        }
    }

    #[test]
    fn min_at_scans_across_wrap() {
        let mut pool = EventPool::new();
        let mut w: Wheel<()> = Wheel::with_levels(1);
        let mut far: FarHeap<()> = BinaryHeap::new();
        // Advance the cursor so the window wraps the physical array.
        w.advance_to(WHEEL_SLOTS - 2, &mut far);
        // A slot physically *before* the cursor (wrapped part of the
        // window) must still be found, and in window order.
        let near = Ps((WHEEL_SLOTS - 1) << SLOT_SHIFT); // phys 4095
        let wrapped = Ps((WHEEL_SLOTS + 5) << SLOT_SHIFT); // phys 5
        w.push(entry(&mut pool, wrapped, 1));
        assert_eq!(w.min_at(), Some(wrapped));
        w.push(entry(&mut pool, near, 2));
        assert_eq!(w.min_at(), Some(near));
    }

    #[test]
    fn take_cursor_slot_hands_over_all_entries_and_clears() {
        let mut pool = EventPool::new();
        let mut w: Wheel<()> = Wheel::with_levels(1);
        // Two timestamps in slot 0, interleaved, plus one in a later
        // slot that must survive the take.
        let (a, b) = (Ps(10), Ps(20));
        let later = Ps(5 << SLOT_SHIFT);
        w.push(entry(&mut pool, b, 0));
        w.push(entry(&mut pool, a, 1));
        w.push(entry(&mut pool, later, 2));
        w.push(entry(&mut pool, a, 3));
        assert_eq!(w.min_at(), Some(a));
        let mut out = VecDeque::new();
        w.take_cursor_slot(&mut out);
        // Arbitrary (list) order — the engine sorts once on adoption.
        let mut seqs: Vec<_> = out.iter().map(|&i| w.node_key(i).1).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, vec![0, 1, 3]);
        assert_eq!(w.len(), 1);
        assert_eq!(w.min_at(), Some(later));
        out.clear();
        w.advance_to(5, &mut BinaryHeap::new());
        w.take_cursor_slot(&mut out);
        let idx = out.pop_front().expect("entry");
        assert_eq!(w.node_key(idx), (later, 2));
        w.consume(idx);
        assert_eq!(w.len(), 0);
        assert_eq!(w.min_at(), None);
    }

    #[test]
    fn cascade_preserves_time_seq_order() {
        let mut pool = EventPool::new();
        let mut w: Wheel<()> = Wheel::with_levels(1);
        let mut far: FarHeap<()> = BinaryHeap::new();
        let beyond = Ps((WHEEL_SLOTS + 100) << SLOT_SHIFT);
        // Two far entries at the same timestamp, pushed out of seq
        // order, plus one earlier.
        far.push(std::cmp::Reverse(far_entry(&mut pool, beyond, 8)));
        far.push(std::cmp::Reverse(far_entry(&mut pool, beyond, 3)));
        let earlier = Ps(beyond.0 - 7); // lands in the previous slot
        far.push(std::cmp::Reverse(far_entry(&mut pool, earlier, 5)));
        // The engine advances to the slot of the earliest instant; the
        // cascade lands each entry in the slot its timestamp selects.
        w.advance_to(slot_of(earlier), &mut far);
        assert!(far.is_empty(), "everything is inside the new window");
        assert_eq!(w.len(), 3);
        let mut out = VecDeque::new();
        w.take_cursor_slot(&mut out);
        let idx = out.pop_front().expect("entry");
        assert_eq!(w.node_key(idx), (earlier, 5));
        w.consume(idx);
        assert!(out.is_empty());
        w.advance_to(slot_of(beyond), &mut far);
        w.take_cursor_slot(&mut out);
        let mut seqs: Vec<_> = out.iter().map(|&i| w.node_key(i).1).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, vec![3, 8]);
    }

    #[test]
    fn two_level_wheel_absorbs_beyond_window_pushes() {
        let mut pool = EventPool::new();
        let mut w: Wheel<()> = Wheel::with_levels(2);
        let mut far: FarHeap<()> = BinaryHeap::new();
        // Just past the level-0 window: level-1 resident, no far heap.
        let past_l0 = Ps((WHEEL_SLOTS + 3) << SLOT_SHIFT);
        assert!(w.in_window(past_l0));
        w.push(entry(&mut pool, past_l0, 0));
        assert_eq!((w.len(), w.len1()), (1, 1));
        assert_eq!(w.min_at(), Some(past_l0));
        // Near the end of level-1 coverage: still in window.
        let deep_l1 = Ps(((WHEEL_SLOTS + 1) << (SLOT_SHIFT + L1_BITS)) - 1);
        assert!(w.in_window(deep_l1));
        w.push(entry(&mut pool, deep_l1, 1));
        assert_eq!((w.len(), w.len1()), (2, 2));
        // One past level-1 coverage: the engine's far heap takes it.
        let beyond = Ps((WHEEL_SLOTS + 1) << (SLOT_SHIFT + L1_BITS));
        assert!(!w.in_window(beyond));
        // Advancing to the first resident's slot cascades it into
        // level 0 (the cursor slot), leaving the deep one in level 1.
        w.advance_to(slot_of(past_l0), &mut far);
        assert_eq!((w.len(), w.len1()), (2, 1));
        let mut out = VecDeque::new();
        w.take_cursor_slot(&mut out);
        let idx = out.pop_front().expect("cascaded entry");
        assert_eq!(w.node_key(idx), (past_l0, 0));
        w.consume(idx);
        assert_eq!(w.min_at(), Some(deep_l1));
    }

    #[test]
    fn level1_cascade_fans_one_slot_across_level0() {
        // A whole level-1 slot's worth of entries, spread over many
        // level-0 slots plus a same-slot cluster, cascades in one
        // advance and lands each entry in the slot its timestamp
        // selects.
        let mut pool = EventPool::new();
        let mut w: Wheel<()> = Wheel::with_levels(2);
        let mut far: FarHeap<()> = BinaryHeap::new();
        let base = (WHEEL_SLOTS + 7) << SLOT_SHIFT; // inside level-1 slot 1
        let times: Vec<Ps> = (0..8)
            .map(|i| Ps(base + (i % 4) * (3 << SLOT_SHIFT) + i))
            .collect();
        for (i, &t) in times.iter().enumerate() {
            w.push(entry(&mut pool, t, i as u64));
        }
        assert_eq!(w.len1(), 8);
        let earliest = *times.iter().min().expect("nonempty");
        assert_eq!(w.min_at(), Some(earliest));
        w.advance_to(slot_of(earliest), &mut far);
        assert_eq!(w.len1(), 0, "whole level-1 slot drained");
        // Drain every slot in order and check (at, seq) global order.
        let mut fired: Vec<(Ps, u64)> = Vec::new();
        let mut out = VecDeque::new();
        while let Some(t) = w.min_at() {
            w.advance_to(slot_of(t), &mut far);
            w.take_cursor_slot(&mut out);
            let mut keys: Vec<_> = out.iter().map(|&i| w.node_key(i)).collect();
            for i in out.drain(..) {
                w.consume(i);
            }
            keys.sort_unstable();
            fired.extend(keys);
        }
        let mut want: Vec<(Ps, u64)> = times.iter().copied().zip(0u64..).collect();
        want.sort_unstable();
        assert_eq!(fired, want);
    }
}
