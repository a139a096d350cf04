//! Endpoint state: the user-space library side of one Open-MX (or
//! MXoE) endpoint, plus its per-request bookkeeping.
//!
//! An endpoint bundles the matcher, the driver→library event ring, the
//! statically pinned receive slots, the registration table and the
//! outstanding send/receive requests of one application process. The
//! cluster world owns the endpoints and drives them; this module is
//! the data model.

use crate::config::MsgClass;
use crate::counters::Counters;
use crate::events::{EventRing, SlotPool};
use crate::matching::Matcher;
use crate::region::{Region, RegionTable};
use crate::{EpAddr, ReqId};
use omx_hw::CoreId;
use std::collections::{BTreeMap, BTreeSet};

/// An outstanding send request.
#[derive(Debug)]
pub struct SendState {
    /// Request id.
    pub req: ReqId,
    /// Destination endpoint.
    pub dest: EpAddr,
    /// Match information carried on the wire.
    pub match_info: u64,
    /// Per-partner message sequence number.
    pub msg_seq: u32,
    /// Message class (decided at post time).
    pub class: MsgClass,
    /// Payload, retained until acknowledged for retransmission.
    /// `Bytes` so fragments slice it zero-copy (the simulation-host
    /// analogue of the stack's zero-copy page attach).
    pub data: bytes::Bytes,
    /// Stable buffer identity for the registration cache / cache
    /// model; `None` for one-shot buffers.
    pub tag: Option<u64>,
    /// Acknowledged (eager) — retransmission stops.
    pub acked: bool,
    /// Completion already delivered to the application.
    pub completed: bool,
    /// Sender-side large handle (rendezvous), if any.
    pub sender_handle: Option<u32>,
    /// Pinned region backing a large send.
    pub region: Option<Region>,
    /// Retransmission attempts so far.
    pub retx_attempts: u32,
    /// Last proof of life from the receiver for this request (pull
    /// requests reset it); the retransmission timer keys off this.
    pub last_activity: omx_sim::Ps,
    /// Current adaptive retransmission timeout: starts at
    /// `cfg.retransmit_timeout`, doubles (with jitter) on every
    /// retransmission up to `cfg.rto_max`, resets on peer liveness.
    pub rto: omx_sim::Ps,
}

/// An outstanding receive request.
#[derive(Debug)]
pub struct RecvState {
    /// Request id.
    pub req: ReqId,
    /// Posted match information.
    pub match_info: u64,
    /// Posted match mask.
    pub mask: u64,
    /// Destination buffer (filled in place).
    pub buf: RecvBuf,
    /// Total expected once matched (0 until known).
    pub total: u64,
    /// Match information of the message that matched (for the
    /// completion record).
    pub matched_info: Option<u64>,
    /// Stable buffer identity.
    pub tag: Option<u64>,
    /// Pinned region backing a large receive.
    pub region: Option<Region>,
    /// Segment size of a vectorial destination buffer (`None` =
    /// contiguous). Scattered buffers split every receive copy into
    /// per-segment chunks — the "highly-vectorial buffers" case of
    /// §IV-A that the fragment threshold protects against.
    pub seg_size: Option<u64>,
}

/// The destination buffer of a posted receive, written once per
/// delivered byte.
///
/// It takes over the allocation the application donated but none of
/// its contents: it starts empty and grows as data lands, so the one
/// copy into it — the skbuff → user copy the paper offloads — is the
/// only write a byte gets. Data arriving in order is appended. A write
/// that lands past the written prefix zero-fills the gap it skips, and
/// [`RecvBuf::into_delivered`] zero-fills any tail never written, so a
/// recycled buffer never exposes a previous message's bytes. Every
/// write is clamped to the posted length.
#[derive(Debug)]
pub struct RecvBuf {
    /// Written prefix: each byte was delivered or zero-filled.
    data: Vec<u8>,
    /// Posted length; writes past it are dropped.
    posted: usize,
}

impl RecvBuf {
    /// A receive of at most `posted` bytes into `buf`'s allocation,
    /// grown once here if it is smaller than `posted`.
    pub fn new(mut buf: Vec<u8>, posted: usize) -> Self {
        buf.clear();
        buf.reserve_exact(posted);
        RecvBuf { data: buf, posted }
    }

    /// The posted length.
    pub fn posted_len(&self) -> usize {
        self.posted
    }

    /// Write `src` at byte `offset`, clamped to the posted length;
    /// returns how many bytes were written.
    pub fn write(&mut self, offset: u64, src: &[u8]) -> usize {
        let start = usize::try_from(offset).map_or(self.posted, |o| o.min(self.posted));
        let src = src.get(..self.posted - start).unwrap_or(src);
        if src.is_empty() {
            return 0;
        }
        if start > self.data.len() {
            self.data.resize(start, 0);
        }
        // Overwrite what overlaps the written prefix, append the rest.
        let overlap = (self.data.len() - start).min(src.len());
        let (over, fresh) = src.split_at(overlap);
        if let Some(dst) = self.data.get_mut(start..start + overlap) {
            dst.copy_from_slice(over);
        }
        self.data.extend_from_slice(fresh);
        src.len()
    }

    /// The application's buffer holding the first `total` bytes of
    /// the message, clamped to the posted length; bytes never written
    /// read as zero.
    pub fn into_delivered(mut self, total: u64) -> Vec<u8> {
        let n = usize::try_from(total).map_or(self.posted, |t| t.min(self.posted));
        self.data.resize(n, 0);
        self.data
    }
}

/// Reassembly of a multi-fragment eager message, matched or not.
#[derive(Debug)]
pub struct MediumAssembly {
    /// The receive it was matched to, if any. Unmatched assemblies
    /// buffer their data in `data` until a receive adopts them.
    pub req: Option<ReqId>,
    /// Match information (for adoption by later receives).
    pub match_info: u64,
    /// Fragments already applied (duplicate suppression).
    pub frag_seen: Vec<bool>,
    /// Bytes applied.
    pub arrived: u64,
    /// Total length.
    pub total: u64,
    /// Buffered payload while unmatched (empty once matched).
    pub data: Vec<u8>,
}

impl MediumAssembly {
    /// Whether every byte arrived.
    pub fn is_complete(&self) -> bool {
        self.arrived >= self.total
    }
}

/// One endpoint (library side).
#[derive(Debug)]
pub struct Endpoint {
    /// Global address.
    pub addr: EpAddr,
    /// Core the owning process (application + library) is pinned to.
    pub core: CoreId,
    /// Matching engine.
    pub matcher: Matcher,
    /// Driver→library event ring.
    pub events: EventRing,
    /// Statically pinned receive data slots.
    pub slots: SlotPool,
    /// Registered regions (+ registration cache).
    pub regions: RegionTable,
    /// Outstanding sends.
    pub sends: BTreeMap<ReqId, SendState>,
    /// Outstanding receives.
    pub recvs: BTreeMap<ReqId, RecvState>,
    /// In-flight medium reassemblies keyed by (source, sequence).
    pub assemblies: BTreeMap<(EpAddr, u32), MediumAssembly>,
    /// Next message sequence per destination partner.
    pub seq_tx: BTreeMap<EpAddr, u32>,
    /// Application driving this endpoint (index into the cluster's app
    /// table).
    pub app: usize,
    /// Whether a library poll event is already scheduled.
    pub poll_scheduled: bool,
    /// Driver-side duplicate suppression: message sequences already
    /// fully received per partner.
    pub completed_seqs: BTreeMap<EpAddr, SeqWindow>,
    /// Driver-side medium reassembly progress (for ack generation):
    /// (src, seq) → fragments seen bitmap.
    pub drv_medium: BTreeMap<(EpAddr, u32), Vec<bool>>,
    /// Rendezvous announcements delivered but not yet matched to a
    /// pull: duplicates (sender retransmissions racing the library)
    /// must be dropped while the original sits in the event ring or
    /// the unexpected queue.
    pub rndv_pending: BTreeSet<(EpAddr, u32)>,
    /// Per-endpoint performance counters (the `omx_counters`
    /// equivalent).
    pub counters: Counters,
    /// Next request-id counter (the low 32 bits of this endpoint's
    /// [`ReqId`]s; the address provides the high bits). Per-endpoint
    /// so id allocation is independent of every other endpoint — and
    /// therefore of how the cluster is partitioned.
    pub(crate) next_req: u64,
}

impl Endpoint {
    /// A fresh endpoint.
    pub fn new(
        addr: EpAddr,
        core: CoreId,
        app: usize,
        recvq_slots: usize,
        slot_bytes: usize,
        regcache: bool,
    ) -> Self {
        Endpoint {
            addr,
            core,
            matcher: Matcher::new(),
            events: EventRing::new(),
            slots: SlotPool::new(recvq_slots, slot_bytes),
            regions: RegionTable::new(regcache),
            sends: BTreeMap::new(),
            recvs: BTreeMap::new(),
            assemblies: BTreeMap::new(),
            seq_tx: BTreeMap::new(),
            app,
            poll_scheduled: false,
            completed_seqs: BTreeMap::new(),
            drv_medium: BTreeMap::new(),
            rndv_pending: BTreeSet::new(),
            counters: Counters::default(),
            next_req: 1,
        }
    }

    /// Allocate the next message sequence number toward `dest`.
    pub fn next_seq(&mut self, dest: EpAddr) -> u32 {
        let c = self.seq_tx.entry(dest).or_insert(0);
        let s = *c;
        *c += 1;
        s
    }

    /// Record a fully received message sequence from `src`; returns
    /// `false` when it was already recorded (a duplicate delivery).
    pub fn record_completed_seq(&mut self, src: EpAddr, seq: u32) -> bool {
        self.completed_seqs.entry(src).or_default().record(seq)
    }

    /// Whether `seq` from `src` was already fully received.
    pub fn seq_completed(&self, src: EpAddr, seq: u32) -> bool {
        self.completed_seqs
            .get(&src)
            .is_some_and(|s| s.contains(seq))
    }
}

/// Sliding-window duplicate suppressor for one partner's message
/// sequences.
///
/// Replaces the old per-partner `BTreeSet<u32>`: sequences arrive
/// (near-)monotonically, so a fixed bitmap over the last
/// [`SeqWindow::SPAN`] sequences answers membership with one bit test
/// and — unlike a B-tree, whose leaf splits allocated roughly once
/// every dozen messages — never touches the allocator after the
/// per-partner setup. Only recent sequences can ever be retransmitted
/// (the sender gives up after a bounded number of attempts), so
/// anything that has fallen below the window is reported as already
/// completed rather than remembered individually.
#[derive(Debug, Default)]
pub struct SeqWindow {
    /// Lowest sequence the bitmap still tracks; everything below it is
    /// treated as completed (an ancient duplicate, never a live
    /// message).
    base: u32,
    /// Bit `i` tracks sequence `base + i`. Allocated to
    /// `SPAN / 64` words on first use, never resized.
    bits: Vec<u64>,
}

impl SeqWindow {
    /// Sequences retained per partner: twice the old pruning window,
    /// so the window holds strictly more history than the set it
    /// replaced ever did.
    pub const SPAN: u32 = 8192;
    const WORDS: usize = (Self::SPAN as usize) / 64;

    /// Record `seq`; returns `false` when it was already recorded.
    pub fn record(&mut self, seq: u32) -> bool {
        if self.bits.is_empty() {
            // One-time setup per partner (1 KiB), amortized over the
            // whole conversation.
            // omx-lint: allow(hot-path-alloc) one-time 1 KiB window per partner, never touched again in steady state [test: crates/sim/tests/alloc_count.rs::warmed_tiny_pingpong_allocates_nothing]
            self.bits = vec![0u64; Self::WORDS];
        }
        if seq < self.base {
            return false;
        }
        if seq - self.base >= 2 * Self::SPAN {
            // A jump far beyond the window (fresh partner after reuse,
            // or a test fabricating sequences): restart the window at
            // the word holding `seq` instead of shifting through the
            // gap word by word.
            self.bits.iter_mut().for_each(|w| *w = 0);
            self.base = seq & !63;
        }
        while seq - self.base >= Self::SPAN {
            self.advance_word();
        }
        let idx = (seq - self.base) as usize;
        let mask = 1u64 << (idx % 64);
        let fresh = self.bits[idx / 64] & mask == 0;
        self.bits[idx / 64] |= mask;
        fresh
    }

    /// Whether `seq` was already recorded (sequences below the window
    /// count as recorded: they can only be ancient retransmissions).
    pub fn contains(&self, seq: u32) -> bool {
        if self.bits.is_empty() || seq >= self.base + Self::SPAN {
            return false;
        }
        if seq < self.base {
            return true;
        }
        let idx = (seq - self.base) as usize;
        self.bits[idx / 64] & (1u64 << (idx % 64)) != 0
    }

    /// Slide the window up by one 64-bit word (in-place shift; no
    /// reallocation).
    fn advance_word(&mut self) {
        self.bits.copy_within(1.., 0);
        *self.bits.last_mut().expect("fixed-size bitmap") = 0;
        self.base += 64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EpIdx, NodeId};

    fn addr(n: u32, e: u8) -> EpAddr {
        EpAddr {
            node: NodeId(n),
            ep: EpIdx(e),
        }
    }

    fn ep() -> Endpoint {
        Endpoint::new(addr(0, 0), CoreId(1), 0, 16, 4096, true)
    }

    #[test]
    fn sequence_numbers_are_per_partner() {
        let mut e = ep();
        let a = addr(1, 0);
        let b = addr(1, 1);
        assert_eq!(e.next_seq(a), 0);
        assert_eq!(e.next_seq(a), 1);
        assert_eq!(e.next_seq(b), 0, "independent stream per partner");
        assert_eq!(e.next_seq(a), 2);
    }

    #[test]
    fn completed_seq_dedup() {
        let mut e = ep();
        let a = addr(1, 0);
        assert!(!e.seq_completed(a, 5));
        assert!(e.record_completed_seq(a, 5), "first recording");
        assert!(e.seq_completed(a, 5));
        assert!(!e.record_completed_seq(a, 5), "duplicate detected");
        assert!(!e.seq_completed(addr(1, 1), 5), "per-partner isolation");
    }

    /// The bitmap window slides without forgetting recent history and
    /// treats anything below the window as an ancient duplicate.
    #[test]
    fn seq_window_slides_monotonically() {
        let mut w = SeqWindow::default();
        for s in 0..3 * SeqWindow::SPAN {
            assert!(w.record(s), "fresh sequence {s}");
            assert!(w.contains(s));
            assert!(!w.record(s), "immediate duplicate {s}");
        }
        // Recent history survives the slides.
        let newest = 3 * SeqWindow::SPAN - 1;
        assert!(w.contains(newest - 100));
        // Sequences that fell below the window are duplicates, not
        // fresh messages.
        assert!(w.contains(0));
        assert!(!w.record(0));
        // A far-future jump restarts the window cleanly.
        let far = u32::MAX - SeqWindow::SPAN;
        assert!(w.record(far));
        assert!(w.contains(far));
        assert!(!w.record(far));
        assert!(w.contains(3), "ancient sequence reads as completed");
    }

    /// The window never reallocates after its per-partner setup.
    #[test]
    fn seq_window_bitmap_is_fixed_size() {
        let mut w = SeqWindow::default();
        w.record(0);
        let cap = w.bits.capacity();
        for s in 0..4 * SeqWindow::SPAN {
            w.record(s);
        }
        assert_eq!(w.bits.capacity(), cap, "bitmap must not grow");
    }

    #[test]
    fn endpoint_starts_idle() {
        let e = ep();
        assert!(e.events.is_empty());
        assert_eq!(e.slots.free_slots(), 16);
        assert!(e.sends.is_empty());
        assert!(e.recvs.is_empty());
        assert!(!e.poll_scheduled);
    }
}
