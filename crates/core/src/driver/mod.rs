//! Kernel-side (driver) state of one host.
//!
//! The Open-MX driver owns everything that happens below the event
//! ring: the BH receive callback's copy paths (`recv`), the
//! large-message pull engine with its I/OAT bookkeeping (`pull`), and
//! the one-copy shared-memory path (`shm`). Those submodules implement
//! methods on [`crate::cluster::Cluster`]; this module holds the data.

pub mod kmatch;
pub mod pull;
pub mod recv;
pub mod shm;

use crate::endpoint::{CounterTable, Deadlines};
use crate::{EpAddr, EpIdx, ReqId};
use omx_hw::ioat::CopyHandle;
use omx_sim::sanitize::{Kind, SimSanitizer, Token};
use omx_sim::Ps;
use std::collections::{BTreeMap, VecDeque};

/// Pooled per-node scratch for the driver's hot paths.
///
/// Every buffer a BH or syscall path needs transiently — fragment
/// dedup bitmaps, pull block accounting, pending-copy lists, the copy
/// handles of an intranode pull — is recycled here instead of
/// round-tripping through the allocator, extending the engine's
/// zero-steady-state-allocation guarantee to the send/recv/pull driver
/// paths (pinned by lint D5 and the driver-path case in the
/// allocation-counting suite). Pools are bounded: a burst can still
/// allocate, but the steady state never does.
#[derive(Debug, Default)]
pub struct DriverScratch {
    /// Recycled fragment bitmaps (medium dedup, pull `frag_seen`).
    bitmaps: Vec<Vec<bool>>,
    /// Recycled block-remaining vectors (pull protocol).
    blocks: Vec<Vec<u32>>,
    /// Recycled pending-copy vectors (pull protocol).
    pending: Vec<Vec<PendingCopy>>,
    /// Reusable stuck-copy extraction buffer (cleared between uses).
    pub stuck: Vec<PendingCopy>,
    /// Reusable handle list of one intranode copy, one handle per
    /// channel it was split across (cleared between uses).
    pub handles: Vec<CopyHandle>,
}

impl DriverScratch {
    /// Pool-size bound: beyond this, returned buffers are dropped. Far
    /// above any steady-state working set (one bitmap per in-flight
    /// medium/large message), it only caps what a pathological burst
    /// can pin.
    const POOL_CAP: usize = 64;

    /// A cleared `len`-entry bitmap, recycled when possible.
    pub fn take_bitmap(&mut self, len: usize) -> Vec<bool> {
        match self.bitmaps.pop() {
            Some(mut v) => {
                v.clear();
                v.resize(len, false);
                v
            }
            // omx-lint: allow(hot-path-alloc) pool miss: only the first messages of a run grow the pool; a warmed loop always recycles [test: crates/sim/tests/alloc_count.rs::warmed_medium_pingpong_allocates_nothing]
            None => vec![false; len],
        }
    }

    /// Return a bitmap to the pool.
    pub fn put_bitmap(&mut self, v: Vec<bool>) {
        if self.bitmaps.len() < Self::POOL_CAP {
            self.bitmaps.push(v);
        }
    }

    /// An empty block-remaining vector, recycled when possible.
    pub fn take_blocks(&mut self) -> Vec<u32> {
        self.blocks.pop().unwrap_or_default()
    }

    /// Return a block-remaining vector to the pool.
    pub fn put_blocks(&mut self, mut v: Vec<u32>) {
        if self.blocks.len() < Self::POOL_CAP {
            v.clear();
            self.blocks.push(v);
        }
    }

    /// An empty pending-copy vector, recycled when possible.
    pub fn take_pending(&mut self) -> Vec<PendingCopy> {
        self.pending.pop().unwrap_or_default()
    }

    /// Return a pending-copy vector to the pool.
    pub fn put_pending(&mut self, mut v: Vec<PendingCopy>) {
        if self.pending.len() < Self::POOL_CAP {
            v.clear();
            self.pending.push(v);
        }
    }

    /// Recycle every reusable buffer of a retired pull.
    pub fn recycle_pull(&mut self, pull: PullState) {
        let PullState {
            frag_seen,
            block_remaining,
            pending_copies,
            ..
        } = pull;
        self.put_bitmap(frag_seen);
        self.put_blocks(block_remaining);
        self.put_pending(pending_copies);
    }
}

/// One outstanding asynchronous receive copy: its completion handle,
/// the skbuffs it pins and the bytes it moves (needed to re-do the
/// copy on the CPU if the channel dies underneath it).
#[derive(Debug, Clone, Copy)]
pub struct PendingCopy {
    /// I/OAT completion handle.
    pub handle: CopyHandle,
    /// Ring skbuffs held until the copy retires.
    pub skbs: u64,
    /// Payload bytes the copy moves.
    pub bytes: u64,
}

/// Receiver-side state of one in-progress large-message pull.
#[derive(Debug)]
pub struct PullState {
    /// Receiving endpoint.
    pub ep: EpIdx,
    /// The receive request being filled.
    pub req: ReqId,
    /// The sending endpoint.
    pub src: EpAddr,
    /// Sender-side handle quoted in pull requests.
    pub sender_handle: u32,
    /// Message sequence number (duplicate suppression).
    pub msg_seq: u32,
    /// Total message length.
    pub msg_len: u64,
    /// Total fragment count.
    pub frags_total: u32,
    /// Per-fragment arrival flags. Private, like `frags_remaining`:
    /// only [`PullState::note_frag`] marks a fragment, so the count of
    /// unset flags and `frags_remaining` cannot disagree.
    frag_seen: Vec<bool>,
    /// Fragments not yet arrived.
    frags_remaining: u32,
    /// Remaining fragments per block.
    pub block_remaining: Vec<u32>,
    /// Next block index to request.
    pub next_block: u32,
    /// Bytes landed so far.
    pub bytes_done: u64,
    /// I/OAT channel assigned to this message (one channel per
    /// message, §V).
    pub channel: usize,
    /// Outstanding asynchronous copies.
    pub pending_copies: Vec<PendingCopy>,
    /// When the driver's pull watchdog next checks this pull (`Ps::MAX`
    /// until the pull is started).
    pub watchdog_at: Ps,
    /// `bytes_done` when that check was armed: the check finds the
    /// pull stalled if no byte landed since.
    pub watchdog_progress: u64,
    /// Consecutive stalled checks so far.
    pub watchdog_stalls: u32,
    /// Current adaptive watchdog timeout (exponential backoff while
    /// the pull is stalled, reset to `cfg.retransmit_timeout` on
    /// progress).
    pub rto: Ps,
    /// Blocks granted to this pull from the node-wide credit pool and
    /// not yet fully received (always 0 with credits disabled).
    pub credits_held: u32,
    /// Whether this pull is currently queued in
    /// [`CreditState::waiters`] — the flag keeps the FIFO free of
    /// duplicate entries and lets the pump skip stale handles.
    pub credit_queued: bool,
    /// Lifecycle sanitizer token: submitted at construction,
    /// completed and released by `finish_pull`, released by the
    /// abandoning watchdog (zero-sized in release builds).
    san: Token,
}

impl PullState {
    /// The checked constructor: a pull starts with no fragments seen,
    /// no bytes landed and no pending copies, and its lifecycle token
    /// is minted (and submitted — the pull is immediately in flight)
    /// with the caller as the allocation site. Its accounting buffers
    /// come from `scratch` so a steady state of pulls never allocates;
    /// retire them with [`DriverScratch::recycle_pull`].
    #[allow(clippy::too_many_arguments)]
    #[track_caller]
    pub fn new(
        ep: EpIdx,
        req: ReqId,
        src: EpAddr,
        sender_handle: u32,
        msg_seq: u32,
        msg_len: u64,
        frags_total: u32,
        block_remaining: Vec<u32>,
        next_block: u32,
        channel: usize,
        rto: Ps,
        scratch: &mut DriverScratch,
    ) -> PullState {
        let san = SimSanitizer::alloc(Kind::PullHandle);
        SimSanitizer::submit(san);
        PullState {
            ep,
            req,
            src,
            sender_handle,
            msg_seq,
            msg_len,
            frags_total,
            frag_seen: scratch.take_bitmap(frags_total as usize),
            frags_remaining: frags_total,
            block_remaining,
            next_block,
            bytes_done: 0,
            channel,
            pending_copies: scratch.take_pending(),
            watchdog_at: Ps::MAX,
            watchdog_progress: 0,
            watchdog_stalls: 0,
            rto,
            credits_held: 0,
            credit_queued: false,
            san,
        }
    }

    /// The lifecycle token.
    pub fn token(&self) -> Token {
        self.san
    }

    /// Fragments per block for this pull.
    pub fn block_of(&self, frag_idx: u32, block_frags: u32) -> u32 {
        frag_idx / block_frags
    }

    /// Whether `frag_idx` has not landed yet. Out-of-range indices —
    /// possible when a stale fragment reaches a recycled handle —
    /// read as already-seen, so callers drop them as duplicates
    /// instead of indexing out of bounds.
    pub fn frag_is_new(&self, frag_idx: u32) -> bool {
        matches!(self.frag_seen.get(frag_idx as usize), Some(false))
    }

    /// Record the arrival of fragment `frag_idx` (blocks of `bf`
    /// fragments): mark it seen and decrement its block's remaining
    /// count. Idempotent by construction — a duplicate, stale or
    /// out-of-range index returns `None` and touches nothing, so a
    /// block re-requested by the watchdog just as its last fragment
    /// lands can never double-complete (or underflow the remaining
    /// count) no matter how many copies of each fragment arrive.
    pub fn note_frag(&mut self, frag_idx: u32, bf: u32) -> Option<FragProgress> {
        let seen = self.frag_seen.get_mut(frag_idx as usize)?;
        if *seen {
            return None;
        }
        *seen = true;
        let b = (frag_idx / bf) as usize;
        let rem = &mut self.block_remaining[b];
        debug_assert!(*rem > 0, "unseen fragment in a completed block");
        *rem = rem.saturating_sub(1);
        self.frags_remaining -= 1;
        Some(FragProgress {
            block_done: *rem == 0,
            all_arrived: self.frags_remaining == 0,
        })
    }

    /// Release completed asynchronous copies (the cleanup routine of
    /// §III-B). Returns how many skbuffs were freed.
    pub fn reap_completed(&mut self, now: Ps) -> u64 {
        let mut freed = 0;
        self.pending_copies.retain(|pc| {
            if pc.handle.finish <= now {
                freed += pc.skbs;
                // The hardware retired this descriptor and the driver
                // observed it — exactly once.
                SimSanitizer::complete(pc.handle.san);
                SimSanitizer::release(pc.handle.san);
                false
            } else {
                true
            }
        });
        freed
    }

    /// Latest completion time among pending copies.
    pub fn last_copy_finish(&self) -> Option<Ps> {
        self.pending_copies.iter().map(|pc| pc.handle.finish).max()
    }

    /// Extract pending copies whose completion lies further than
    /// `deadline` past `now` — the completion-poll deadline has fired
    /// for them and the driver will re-do them on the CPU. The stuck
    /// entries are removed from the pending list and appended to
    /// `out` (a recycled [`DriverScratch::stuck`] buffer; the caller
    /// clears it first).
    pub fn take_stuck(&mut self, now: Ps, deadline: Ps, out: &mut Vec<PendingCopy>) {
        let horizon = now + deadline;
        self.pending_copies.retain(|pc| {
            if pc.handle.finish > horizon {
                // The descriptor is abandoned without ever completing
                // (the channel died; the caller re-does the copy on
                // the CPU).
                SimSanitizer::release(pc.handle.san);
                out.push(*pc);
                false
            } else {
                true
            }
        });
    }
}

/// What one freshly landed fragment did to its pull's progress
/// accounting (returned by [`PullState::note_frag`]).
#[derive(Debug, Clone, Copy)]
pub struct FragProgress {
    /// The fragment completed its block.
    pub block_done: bool,
    /// The fragment was the last of the whole message.
    pub all_arrived: bool,
}

/// Node-wide, receiver-side credit pool for the pull protocol: the
/// congestion-control state behind `OmxConfig::pull_credits`. Every
/// pull's block requests draw from one shared adaptive `budget`
/// instead of a fixed per-pull window, FIFO across pulls, so N
/// concurrent senders can no longer each push a full window into one
/// host's RX rings. The default state is inert — nothing here is read
/// or written while credits are disabled.
#[derive(Debug, Default)]
pub struct CreditState {
    /// Adaptive budget: the maximum total granted-but-incomplete
    /// blocks across all pulls of this node.
    pub budget: u32,
    /// Blocks currently granted and not yet fully received.
    pub outstanding: u32,
    /// Pull handles waiting for a block grant, in arrival order.
    pub waiters: VecDeque<u32>,
    /// Instant of the last multiplicative decrease (also rate-limits
    /// shed-load NACKs).
    pub last_shrink: Ps,
    /// Instant of the last additive regrowth.
    pub last_regrow: Ps,
}

/// Sender-side state of one large message being pulled by the remote
/// host.
#[derive(Debug, Clone, Copy)]
pub struct TxLargeState {
    /// Sending endpoint on this host.
    pub ep: EpIdx,
    /// The send request.
    pub req: ReqId,
    /// Destination endpoint.
    pub dest: EpAddr,
}

/// Per-host driver state.
#[derive(Debug, Default)]
pub struct Driver {
    /// Receiver-side pulls by receiver handle. Handles are issued in
    /// order, so the table is a window over them (wrap-aware: the
    /// handle namespace wraps at `u32::MAX`).
    pub pulls: CounterTable<u32, PullState>,
    /// Sender-side large sends by sender handle, issued in order.
    pub tx_large: CounterTable<u32, TxLargeState>,
    /// The pulls' watchdog deadlines, behind the driver's one pull
    /// watchdog timer.
    pub watchdogs: Deadlines<u32>,
    /// Next receiver pull handle.
    pub next_pull_handle: u32,
    /// Next sender large handle.
    pub next_tx_handle: u32,
    /// Skbuffs currently held by pending asynchronous copies (the
    /// resource the §III-B cleanup bounds).
    pub skbuffs_held: u64,
    /// High-water mark of `skbuffs_held`.
    pub skbuffs_held_max: u64,
    /// Kernel-matching medium reassemblies (extension), keyed by
    /// (receiving endpoint, sender, sequence).
    pub kmatch: BTreeMap<(EpIdx, EpAddr, u32), kmatch::KernelAssembly>,
    /// Receiver-driven credit pool (inert unless
    /// `OmxConfig::pull_credits`).
    pub credits: CreditState,
    /// Pooled hot-path scratch buffers (zero steady-state allocation).
    pub scratch: DriverScratch,
}

impl Driver {
    /// A fresh driver.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate a receiver-side pull handle. Handles are a wrapping
    /// namespace (as in the real driver), so reuse is expected: the
    /// watchdog checks a pull only at the deadline that pull records,
    /// never at one a previous user of its handle left behind.
    pub fn alloc_pull_handle(&mut self) -> u32 {
        self.next_pull_handle = self.next_pull_handle.wrapping_add(1);
        self.next_pull_handle
    }

    /// Allocate a sender-side large handle.
    pub fn alloc_tx_handle(&mut self) -> u32 {
        self.next_tx_handle += 1;
        self.next_tx_handle
    }

    /// Account for skbuffs captured by a pending asynchronous copy.
    pub fn hold_skbuffs(&mut self, n: u64) {
        self.skbuffs_held += n;
        self.skbuffs_held_max = self.skbuffs_held_max.max(self.skbuffs_held);
    }

    /// Account for skbuffs released by the cleanup routine.
    pub fn release_skbuffs(&mut self, n: u64) {
        debug_assert!(self.skbuffs_held >= n, "releasing more skbuffs than held");
        self.skbuffs_held = self.skbuffs_held.saturating_sub(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;

    /// A submitted I/OAT handle for lifecycle-accurate tests.
    fn handle(cookie: u64, finish: Ps) -> CopyHandle {
        let san = SimSanitizer::alloc(Kind::IoatDescriptor);
        SimSanitizer::submit(san);
        CopyHandle {
            channel: 0,
            cookie,
            finish,
            san,
        }
    }

    fn pull_state() -> PullState {
        let mut p = PullState::new(
            EpIdx(0),
            ReqId(1),
            EpAddr {
                node: NodeId(1),
                ep: EpIdx(0),
            },
            1,
            0,
            64 << 10,
            16,
            vec![8, 8],
            2,
            0,
            Ps::us(500),
            &mut DriverScratch::default(),
        );
        assert_eq!(p.frag_seen.len(), 16);
        p.bytes_done = 0;
        p
    }

    #[test]
    fn handles_are_unique() {
        let mut d = Driver::new();
        let a = d.alloc_pull_handle();
        let b = d.alloc_pull_handle();
        assert_ne!(a, b);
        let c = d.alloc_tx_handle();
        let e = d.alloc_tx_handle();
        assert_ne!(c, e);
    }

    #[test]
    fn skbuff_accounting_tracks_high_water() {
        let mut d = Driver::new();
        d.hold_skbuffs(3);
        d.hold_skbuffs(4);
        assert_eq!(d.skbuffs_held, 7);
        d.release_skbuffs(5);
        assert_eq!(d.skbuffs_held, 2);
        assert_eq!(d.skbuffs_held_max, 7);
    }

    #[test]
    fn pull_state_block_and_reap() {
        let mut p = pull_state();
        p.pending_copies = vec![
            PendingCopy {
                handle: handle(0, Ps::us(1)),
                skbs: 1,
                bytes: 4096,
            },
            PendingCopy {
                handle: handle(1, Ps::us(3)),
                skbs: 1,
                bytes: 4096,
            },
        ];
        assert_eq!(p.block_of(0, 8), 0);
        assert_eq!(p.block_of(8, 8), 1);
        assert_eq!(p.last_copy_finish(), Some(Ps::us(3)));
        // Reap at 2us frees the first copy only.
        assert_eq!(p.reap_completed(Ps::us(2)), 1);
        assert_eq!(p.pending_copies.len(), 1);
        assert_eq!(p.reap_completed(Ps::us(4)), 1);
        assert!(p.pending_copies.is_empty());
        for i in 0..16 {
            let prog = p.note_frag(i, 8).expect("fresh fragment");
            assert_eq!(prog.all_arrived, i == 15, "fragment {i}");
        }
    }

    #[test]
    fn take_stuck_extracts_past_deadline_copies() {
        let pc = |cookie: u64, finish: Ps| PendingCopy {
            handle: handle(cookie, finish),
            skbs: 1,
            bytes: 4096,
        };
        let mut p = pull_state();
        p.pending_copies = vec![pc(0, Ps::us(10)), pc(1, omx_hw::ioat::STALLED_FOREVER)];
        // A deadline beyond every completion finds nothing stuck.
        let mut stuck = Vec::new();
        p.take_stuck(Ps::us(5), Ps::secs(7200), &mut stuck);
        assert!(stuck.is_empty());
        assert_eq!(p.pending_copies.len(), 2);
        // The never-finishing copy trips the deadline; the healthy one
        // stays pending.
        p.take_stuck(Ps::us(6), Ps::ms(2), &mut stuck);
        assert_eq!(stuck.len(), 1);
        assert_eq!(stuck[0].handle.cookie, 1);
        assert_eq!(p.pending_copies.len(), 1);
        assert_eq!(p.pending_copies[0].handle.cookie, 0);
    }

    #[test]
    fn pull_handles_wrap() {
        let mut d = Driver::new();
        d.next_pull_handle = u32::MAX - 1;
        let a = d.alloc_pull_handle();
        let b = d.alloc_pull_handle();
        let c = d.alloc_pull_handle();
        assert_eq!(a, u32::MAX);
        assert_eq!(b, 0, "handle namespace wraps");
        assert_eq!(c, 1);
    }
}
