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
use omx_sim::Ps;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};
use std::fmt;

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
    pub last_activity: Ps,
    /// Current adaptive retransmission timeout: starts at
    /// `cfg.retransmit_timeout`, doubles (with jitter) on every
    /// retransmission up to `cfg.rto_max`, resets on peer liveness.
    pub rto: Ps,
    /// When the endpoint's resend timer next checks this send
    /// (`Ps::MAX` until the driver arms its first check; intranode
    /// sends never arm one).
    pub resend_at: Ps,
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

/// Reassembly of one medium message, matched or not: the library's
/// (fed one ring slot per fragment), the driver's under kernel
/// matching (`KernelAssembly`) and the MXoE firmware's. Which
/// fragments arrived is recorded once, by the driver
/// (`Endpoint::drv_medium`), which hands each fragment on once; an
/// MXoE cluster takes no link faults, so its fragments arrive once.
/// An assembly only counts bytes.
#[derive(Debug)]
pub struct MediumAssembly {
    /// The receive it was matched to, if any. Unmatched assemblies
    /// buffer their data in `data` until a receive adopts them.
    pub req: Option<ReqId>,
    /// Match information (for adoption by later receives).
    pub match_info: u64,
    /// Bytes applied.
    pub arrived: u64,
    /// Total length.
    pub total: u64,
    /// Buffered payload while unmatched (empty once matched).
    pub data: Vec<u8>,
}

impl MediumAssembly {
    /// Start the assembly of a `total`-byte message on its first
    /// fragment: match it against `ep`'s posted receives, or buffer it
    /// unmatched in a zeroed image of the whole message.
    pub fn start(ep: &mut Endpoint, match_info: u64, total: u64) -> MediumAssembly {
        let req = ep.matcher.match_incoming(match_info).map(|p| p.req);
        let data = match req {
            // omx-lint: allow(hot-path-alloc) Vec::new is capacity-zero and touches no allocator; matched data lands in the posted buffer [test: crates/sim/tests/alloc_count.rs::warmed_medium_pingpong_allocates_nothing]
            Some(_) => Vec::new(),
            // omx-lint: allow(hot-path-alloc) unexpected-message buffer: only taken when no receive was posted, never in a pre-posted steady loop [test: crates/sim/tests/alloc_count.rs::warmed_medium_pingpong_allocates_nothing]
            None => vec![0u8; total as usize],
        };
        MediumAssembly {
            req,
            match_info,
            arrived: 0,
            total,
            data,
        }
    }

    /// Apply one fragment's bytes at `offset`, into the matched
    /// receive in `recvs` or the unmatched buffer; returns whether
    /// every byte has now arrived. The matched receive learns the
    /// message's length and match information here, with the bytes,
    /// so a one-fragment message looks its receive up once. Panics in
    /// every build if the fragment would take the assembly past its
    /// length: a fragment applied twice.
    pub fn apply(&mut self, recvs: &mut ReqTable<RecvState>, offset: u64, bytes: &[u8]) -> bool {
        self.arrived += bytes.len() as u64;
        assert!(
            self.arrived <= self.total,
            "medium assembly overrun: {} of {} bytes applied",
            self.arrived,
            self.total
        );
        match self.req {
            Some(req) => {
                if let Some(rs) = recvs.get_mut(&req) {
                    rs.total = self.total;
                    rs.matched_info = Some(self.match_info);
                    rs.buf.write(offset, bytes);
                }
            }
            None => {
                let end = (offset as usize + bytes.len()).min(self.data.len());
                let start = (offset as usize).min(end);
                self.data[start..end].copy_from_slice(&bytes[..end - start]);
            }
        }
        self.is_complete()
    }

    /// Whether every byte arrived.
    pub fn is_complete(&self) -> bool {
        self.arrived == self.total
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
    pub sends: ReqTable<SendState>,
    /// The sends' resend deadlines, behind the endpoint's one resend
    /// timer.
    pub resends: Deadlines<ReqId>,
    /// When the driver last processed an ack of one of this endpoint's
    /// tiny, small or medium sends (`None` before the first): the
    /// progress that holds the resend timer.
    pub last_ack: Option<Ps>,
    /// Outstanding receives.
    pub recvs: ReqTable<RecvState>,
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
    /// The one record of which fragments of each multi-fragment
    /// medium message arrived, (src, seq) → bitmap, until the message
    /// completes: the driver drops a fragment already set here, so
    /// each fragment reaches an assembly once. Without kernel
    /// matching, the driver acks the message when every bit is set.
    pub drv_medium: BTreeMap<(EpAddr, u32), Vec<bool>>,
    /// Network rendezvous announcements from their arrival until their
    /// pull finishes or is abandoned: duplicates (sender
    /// retransmissions racing the library or the pull) must be dropped
    /// while the original sits in the event ring or the unexpected
    /// queue, and while its pull is in flight.
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
            sends: ReqTable::new(),
            resends: Deadlines::default(),
            last_ack: None,
            recvs: ReqTable::new(),
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

    /// Apply one fragment of the medium message `key` (source,
    /// sequence) to its assembly in `assemblies`, starting the assembly
    /// on the message's first fragment. Returns the matched receive
    /// once every byte arrived, retiring the assembly; a complete
    /// unmatched one stays until a receive adopts it.
    pub(crate) fn apply_medium(
        &mut self,
        key: (EpAddr, u32),
        match_info: u64,
        total: u64,
        offset: u64,
        bytes: &[u8],
    ) -> Option<ReqId> {
        if !self.assemblies.contains_key(&key) {
            let asm = MediumAssembly::start(self, match_info, total);
            self.assemblies.insert(key, asm);
        }
        let asm = self.assemblies.get_mut(&key)?;
        let done = asm.apply(&mut self.recvs, offset, bytes);
        let req = asm.req.filter(|_| done)?;
        self.assemblies.remove(&key);
        Some(req)
    }
}

/// A key whose low 32 bits are a counter handed out in order: a
/// [`ReqId`] (the endpoint's request counter), or a driver handle (a
/// pull or large-send handle, which is the counter itself).
pub trait CounterKey: Copy + Eq + fmt::Debug {
    /// The counter this key was issued under.
    fn counter(self) -> u32;
}

impl CounterKey for ReqId {
    fn counter(self) -> u32 {
        self.0 as u32
    }
}

impl CounterKey for u32 {
    fn counter(self) -> u32 {
        self
    }
}

/// Entries keyed by a counter handed out in order, found without a
/// search: one endpoint's outstanding requests of one kind (its sends
/// or its receives, [`ReqTable`]), or one driver's pulls and large
/// sends by handle.
///
/// A window of slot numbers covers the counters from the oldest entry
/// held to the newest inserted: slot `k > 0` names entry `k - 1` of a
/// slab whose freed entries are recycled through a free list, and 0
/// marks a counter with no entry here (the other kind's request id, or
/// an entry already removed). A hole thus costs 4 bytes, not an entry,
/// and only while an older entry is still held: the window's front is
/// trimmed up to the oldest entry left. The slab keeps its peak size,
/// so a steady state allocates nothing.
///
/// Counters compare by wrapping distance, as the pull-handle namespace
/// wraps at `u32::MAX` by design: a counter at most 2^31 behind the
/// window's front precedes it, so handles issued across the wrap stay
/// in one window. [`CounterTable::iter`] yields entries in counter
/// order from the window's front, which for request ids (they never
/// wrap) is the ascending order of the `BTreeMap<ReqId, T>` the table
/// replaced; that order is simulation-visible (credit NACKs draw
/// backoff jitter per request in it). All keys of one table share one
/// counter sequence, so request ids of one table belong to one
/// endpoint.
pub struct CounterTable<K, T> {
    /// Counter of the window's first slot.
    base: u32,
    /// `window[i]` is 1 + the slab index of the entry with counter
    /// `base + i` (wrapping), or 0 when this table holds none.
    window: VecDeque<u32>,
    /// Entries; `None` for entries on the free list.
    slab: Vec<Option<(K, T)>>,
    /// Slab indices of the free entries.
    free: Vec<u32>,
}

/// One endpoint's outstanding requests of one kind, by the request
/// counter in the low 32 bits of their [`ReqId`] (`Cluster::alloc_req`
/// hands out each endpoint's ids from one counter).
pub type ReqTable<T> = CounterTable<ReqId, T>;

impl<K, T> Default for CounterTable<K, T> {
    fn default() -> Self {
        CounterTable {
            base: 0,
            window: VecDeque::new(),
            slab: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<K: CounterKey, T> CounterTable<K, T> {
    /// An empty table; allocates nothing until the first insert.
    pub fn new() -> Self {
        Self::default()
    }

    /// Window position of `key`'s counter (out of range when the
    /// counter lies outside the window).
    fn offset(&self, key: K) -> usize {
        key.counter().wrapping_sub(self.base) as usize
    }

    /// Slab index of `key`'s entry, if the table holds `key`.
    fn find(&self, key: K) -> Option<usize> {
        let slot = *self.window.get(self.offset(key))?;
        let i = slot.checked_sub(1)? as usize;
        match self.slab.get(i) {
            Some(Some((held, _))) if *held == key => Some(i),
            _ => None,
        }
    }

    /// The entry for `key`, if held.
    pub fn get(&self, key: &K) -> Option<&T> {
        let i = self.find(*key)?;
        self.slab.get(i)?.as_ref().map(|(_, v)| v)
    }

    /// The entry for `key`, mutably, if held.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut T> {
        let i = self.find(*key)?;
        self.slab.get_mut(i)?.as_mut().map(|(_, v)| v)
    }

    /// Whether `key` is held.
    pub fn contains_key(&self, key: &K) -> bool {
        self.find(*key).is_some()
    }

    /// Number of entries held.
    pub fn len(&self) -> usize {
        self.slab.len() - self.free.len()
    }

    /// Whether no entry is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Add an entry for `key`; returns the value it replaces, if `key`
    /// was already held.
    ///
    /// # Panics
    ///
    /// If another key with the same counter is held (another
    /// endpoint's request id).
    pub fn insert(&mut self, key: K, value: T) -> Option<T> {
        if let Some(i) = self.find(key) {
            let old = self.slab.get_mut(i)?.replace((key, value));
            return old.map(|(_, v)| v);
        }
        let counter = key.counter();
        // How far `counter` precedes the front, if at most 2^31 - 1.
        let behind = self.base.wrapping_sub(counter);
        if self.window.is_empty() {
            self.base = counter;
        } else if behind != 0 && behind <= i32::MAX as u32 {
            for _ in 0..behind {
                self.window.push_front(0);
            }
            self.base = counter;
        }
        let off = self.offset(key);
        if off >= self.window.len() {
            self.window.resize(off + 1, 0);
        }
        assert!(
            self.window.get(off) == Some(&0),
            "{key:?} shares its counter with another key held here"
        );
        let i = match self.free.pop() {
            Some(i) => {
                self.slab[i as usize] = Some((key, value));
                i
            }
            None => {
                self.slab.push(Some((key, value)));
                (self.slab.len() - 1) as u32
            }
        };
        self.window[off] = i + 1;
        None
    }

    /// Remove the entry for `key`, returning it if it was held.
    pub fn remove(&mut self, key: &K) -> Option<T> {
        let i = self.find(*key)?;
        let (_, value) = self.slab.get_mut(i)?.take()?;
        self.free.push(i as u32);
        let off = self.offset(*key);
        if let Some(slot) = self.window.get_mut(off) {
            *slot = 0;
        }
        self.trim();
        Some(value)
    }

    /// Drop the empty slots before the oldest entry held, and hand most
    /// of the window's memory back once a long-lived entry that held it
    /// open has gone. Empty slots after the newest entry stay: trimming
    /// them would make the next insert fill the gap again.
    fn trim(&mut self) {
        while self.window.front() == Some(&0) {
            self.window.pop_front();
            self.base = self.base.wrapping_add(1);
        }
        if self.window.capacity() > 64 && self.window.len() < self.window.capacity() / 4 {
            self.window.shrink_to(2 * self.window.len());
        }
    }

    /// Entries held, in counter order from the window's front.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &T)> + '_ {
        self.window.iter().filter_map(move |&slot| {
            let (key, v) = self.slab.get(slot.checked_sub(1)? as usize)?.as_ref()?;
            Some((key, v))
        })
    }

    /// Heap bytes held: window, slab and free list at capacity.
    #[cfg(test)]
    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.window.capacity() + self.free.capacity()) * size_of::<u32>()
            + self.slab.capacity() * size_of::<Option<(K, T)>>()
    }
}

impl<K: CounterKey, T: fmt::Debug> fmt::Debug for CounterTable<K, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// The deadlines behind one timer: an endpoint's resend checks (keyed
/// by request) or a driver's pull watchdog checks (keyed by pull
/// handle), RFC 6298's one retransmission timer per connection.
///
/// Each item records its own deadline; [`Deadlines::arm`] adds it here
/// as well, and the one timer event fires at the earliest. A deadline
/// an item no longer records (it was acked, finished or re-armed
/// since) is dropped when it reaches the front, so nothing is ever
/// removed from the middle, and the engine needs no cancellation: an
/// event superseded by an earlier arm finds the timer set elsewhere
/// and returns. Due items pop in (deadline, arm order), the order in
/// which one engine event per deadline would have fired.
///
/// A fire may instead be held once, as RFC 6298 §5.3 restarts the
/// timer on progress ([`Deadlines::hold`]): its due items stay here
/// and the timer is set later, and the fire that ends the hold pops
/// them. A fire cycle is one hold at most, from one re-arm to the next.
#[derive(Debug)]
pub struct Deadlines<K> {
    /// `(deadline, arm number, key)`, earliest first.
    heap: BinaryHeap<Reverse<(Ps, u64, K)>>,
    /// Arms so far (the arm number of the latest).
    arms: u64,
    /// Instant of the live timer event, or `None` while idle.
    timer: Option<Ps>,
    /// Whether the timer held since it last re-armed.
    held: bool,
}

impl<K> Default for Deadlines<K> {
    fn default() -> Self {
        Deadlines {
            heap: BinaryHeap::new(),
            arms: 0,
            timer: None,
            held: false,
        }
    }
}

impl<K: Copy + Ord + fmt::Debug> Deadlines<K> {
    /// Record that `key` is due at `at`. Returns `true` when the timer
    /// event must be scheduled at `at`: the timer was idle, or set for
    /// a later instant.
    pub fn arm(&mut self, at: Ps, key: K) -> bool {
        self.arms += 1;
        self.heap.push(Reverse((at, self.arms, key)));
        if self.timer.is_some_and(|t| t <= at) {
            return false;
        }
        self.timer = Some(at);
        true
    }

    /// Whether a timer event firing at `now` is the live one.
    pub fn fires_at(&self, now: Ps) -> bool {
        self.timer == Some(now)
    }

    /// Hold the fire at `now` until `until`: pop nothing and set the
    /// timer for `until`. Returns `true` when held; the caller then
    /// schedules the timer event at `until` and ends the fire. Declines,
    /// and the fire goes on, when `until` is not after `now`, when the
    /// timer already held since it last re-armed, or when no recorded
    /// deadline lies before `until` (nothing is outstanding, or the
    /// earliest deadline is at or past `until`, so a hold would only
    /// add an event). Deadlines no item records are dropped from the
    /// front on the way.
    pub fn hold(&mut self, now: Ps, until: Ps, records: impl Fn(K, Ps) -> bool) -> bool {
        if self.held || until <= now || self.earliest(records).is_none_or(|(at, _)| at >= until) {
            return false;
        }
        self.held = true;
        self.timer = Some(until);
        true
    }

    /// The next key due at or before `now` whose item still records
    /// the deadline it was armed with (`records(key, deadline)`);
    /// deadlines no item records are dropped on the way.
    pub fn pop_due(&mut self, now: Ps, records: impl Fn(K, Ps) -> bool) -> Option<K> {
        while let Some(&Reverse((at, _, key))) = self.heap.peek() {
            if at > now {
                return None;
            }
            self.heap.pop();
            if records(key, at) {
                return Some(key);
            }
        }
        None
    }

    /// End a fire at `now`: drop the deadlines no item records from the
    /// front and set the timer to the earliest one left. Returns that
    /// instant, at which the caller schedules the timer event, or
    /// `None` when nothing is outstanding and the timer goes idle.
    ///
    /// # Panics
    ///
    /// If a recorded deadline at or before `now` is left: the fire
    /// skipped an item that was due.
    pub fn rearm(&mut self, now: Ps, records: impl Fn(K, Ps) -> bool) -> Option<Ps> {
        self.held = false;
        self.timer = self.earliest(records).map(|(at, key)| {
            assert!(
                at > now,
                "{key:?} due at {at} was left behind by the fire at {now}"
            );
            at
        });
        self.timer
    }

    /// The earliest deadline an item still records, and its key, after
    /// dropping the deadlines no item records from the front.
    fn earliest(&mut self, records: impl Fn(K, Ps) -> bool) -> Option<(Ps, K)> {
        while let Some(&Reverse((at, _, key))) = self.heap.peek() {
            if records(key, at) {
                return Some((at, key));
            }
            self.heap.pop();
        }
        None
    }
}

/// Sliding-window duplicate suppressor for one partner's message
/// sequences.
///
/// Replaces the old per-partner `BTreeSet<u32>`: sequences arrive
/// (near-)monotonically, so a bitmap over the last
/// [`SeqWindow::SPAN`] sequences answers membership with one bit test
/// and — unlike a B-tree, whose leaf splits allocated roughly once
/// every dozen messages — stops touching the allocator once the
/// window is in use. Only recent sequences can ever be retransmitted
/// (the sender gives up after a bounded number of attempts), so
/// anything that has fallen below the window is reported as already
/// completed rather than remembered individually.
///
/// The bitmap is stored only as far as it is used. A full front word
/// is dropped and counted in `done` instead, so a partner whose
/// sequences arrive in order needs one word however long it talks, and
/// a one-message partner costs 8 B. A sequence that lands past the
/// first stored word, while an older one is still missing, grows the
/// window to all `SPAN / 64` words at once; a word past the stored
/// length reads as zero. The window therefore allocates at most twice
/// and never again.
#[derive(Debug, Default)]
pub struct SeqWindow {
    /// Lowest sequence the window still tracks; everything below it is
    /// treated as completed (an ancient duplicate, never a live
    /// message).
    base: u32,
    /// Every sequence in `base..base + done` is recorded; a multiple
    /// of 64, at most `SPAN`.
    done: u32,
    /// Bit `i` tracks sequence `base + done + i`.
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
        if seq < self.base {
            return false;
        }
        let ahead = seq - self.base;
        if ahead >= 2 * Self::SPAN {
            // A jump far beyond the window (fresh partner after reuse,
            // or a test fabricating sequences): restart the window at
            // the word holding `seq` instead of shifting through the
            // gap word by word.
            self.bits.clear();
            self.base = seq & !63;
            self.done = 0;
        } else if ahead >= Self::SPAN {
            // Slide up by whole words until `seq` fits; what falls
            // below the new base is forgotten, recorded or not.
            let slide = 64 * ((ahead - Self::SPAN) / 64 + 1);
            self.base += slide;
            if slide <= self.done {
                self.done -= slide;
            } else {
                let words = ((slide - self.done) / 64) as usize;
                self.bits.drain(..self.bits.len().min(words));
                self.done = 0;
            }
        }
        let Some(idx) = (seq - self.base).checked_sub(self.done) else {
            return false;
        };
        let (word, mask) = (idx as usize / 64, 1u64 << (idx % 64));
        if word >= self.bits.len() {
            self.grow(word);
        }
        let fresh = self.bits[word] & mask == 0;
        self.bits[word] |= mask;
        // Full front words need no bits: count them in `done`.
        let full = self.bits.iter().take_while(|&&w| w == u64::MAX).count();
        if full > 0 {
            self.bits.drain(..full);
            self.done += 64 * full as u32;
        }
        fresh
    }

    /// Whether `seq` was already recorded (sequences below the window
    /// count as recorded: they can only be ancient retransmissions).
    pub fn contains(&self, seq: u32) -> bool {
        if seq < self.base {
            return true;
        }
        let ahead = seq - self.base;
        if ahead >= Self::SPAN {
            return false;
        }
        let Some(idx) = ahead.checked_sub(self.done) else {
            return true;
        };
        self.bits
            .get(idx as usize / 64)
            .is_some_and(|w| w & (1u64 << (idx % 64)) != 0)
    }

    /// Store words up to `word`, zero-filled: one word while only the
    /// first is needed, otherwise the whole span at once, so the
    /// window reallocates at most once after its first word.
    fn grow(&mut self, word: usize) {
        let words = if word == 0 { 1 } else { Self::WORDS };
        self.bits.reserve_exact(words - self.bits.len());
        self.bits.resize(word + 1, 0);
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

    /// A window's storage stays proportional to its use: one word for
    /// a partner that sent one message or sends in order, at most two
    /// allocations over a long conversation with holes, and never more
    /// than the span.
    #[test]
    fn seq_window_storage_grows_with_use() {
        let mut w = SeqWindow::default();
        assert_eq!(w.bits.capacity(), 0, "no storage before the first record");
        w.record(0);
        assert!(w.bits.capacity() <= 1, "one message holds one word");
        for s in 1..4 * SeqWindow::SPAN {
            w.record(s);
            assert!(
                w.bits.capacity() <= 1,
                "in-order sequence {s} grew the window"
            );
        }

        // Every 100th sequence arrives 200 sequences late.
        let mut w = SeqWindow::default();
        let mut allocations = 0;
        let mut cap = w.bits.capacity();
        for s in 0..4 * SeqWindow::SPAN + 200 {
            if s < 4 * SeqWindow::SPAN && s % 100 != 0 {
                assert!(w.record(s));
            }
            if s >= 200 && (s - 200) % 100 == 0 {
                assert!(w.record(s - 200), "late sequence {}", s - 200);
            }
            if w.bits.capacity() != cap {
                allocations += 1;
                cap = w.bits.capacity();
            }
            assert!(cap <= SeqWindow::WORDS, "{cap} words exceed the span");
        }
        assert!(allocations <= 2, "{allocations} allocations");
        assert!(w.contains(4 * SeqWindow::SPAN - 100));
    }

    /// A window near the top of the sequence space still answers: the
    /// span check must not overflow.
    #[test]
    fn seq_window_contains_near_u32_max() {
        let mut w = SeqWindow::default();
        assert!(w.record(u32::MAX - 5));
        assert!(w.contains(u32::MAX - 5));
        assert!(!w.contains(u32::MAX));
        assert!(!w.record(u32::MAX - 5));
    }

    /// The fixed-size bitmap `SeqWindow` used to be: all `SPAN / 64`
    /// words from the first record on, slid one word at a time. Its
    /// span check is the overflow-free one.
    #[derive(Default)]
    struct FixedWindow {
        base: u32,
        bits: Vec<u64>,
    }

    impl FixedWindow {
        fn record(&mut self, seq: u32) -> bool {
            if self.bits.is_empty() {
                self.bits = vec![0u64; SeqWindow::WORDS];
            }
            if seq < self.base {
                return false;
            }
            if seq - self.base >= 2 * SeqWindow::SPAN {
                self.bits.iter_mut().for_each(|w| *w = 0);
                self.base = seq & !63;
            }
            while seq - self.base >= SeqWindow::SPAN {
                self.bits.copy_within(1.., 0);
                *self.bits.last_mut().unwrap() = 0;
                self.base += 64;
            }
            let idx = (seq - self.base) as usize;
            let mask = 1u64 << (idx % 64);
            let fresh = self.bits[idx / 64] & mask == 0;
            self.bits[idx / 64] |= mask;
            fresh
        }

        fn contains(&self, seq: u32) -> bool {
            if self.bits.is_empty() {
                return false;
            }
            if seq < self.base {
                return true;
            }
            if seq - self.base >= SeqWindow::SPAN {
                return false;
            }
            let idx = (seq - self.base) as usize;
            self.bits[idx / 64] & (1u64 << (idx % 64)) != 0
        }
    }

    /// An id of endpoint (3, 1) with request counter `counter`.
    fn rid(counter: u32) -> ReqId {
        ReqId((3 << 40) | (1 << 32) | u64::from(counter))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The request table answers every operation exactly as the
        /// `BTreeMap` it replaced would. Ids are handed out in order to
        /// two interleaved kinds, and only one kind enters the table,
        /// so it sees gaps; removes, lookups and re-inserts pick any id
        /// ever handed out, another endpoint's id with the same
        /// counter, or one not handed out yet.
        #[test]
        fn req_table_matches_an_ordered_map(
            ops in proptest::collection::vec((0u8..6, proptest::prelude::any::<u32>()), 1..200),
        ) {
            use proptest::prelude::*;
            let mut table: ReqTable<u64> = ReqTable::new();
            let mut model: BTreeMap<ReqId, u64> = BTreeMap::new();
            let mut issued: Vec<ReqId> = Vec::new();
            let mut next = 1u32;
            for (step, (op, arg)) in ops.into_iter().enumerate() {
                let value = u64::from(arg) << 8 | step as u64;
                // Any id handed out so far, one not handed out yet, or
                // another endpoint's id with an issued counter.
                let pick = match issued.len() {
                    0 => rid(next + arg % 3),
                    n => match arg % 8 {
                        0 => rid(next + arg % 5),
                        1 => ReqId(issued[arg as usize % n].0 ^ (1 << 40)),
                        _ => issued[(arg / 8) as usize % n],
                    },
                };
                match op {
                    // Hand out the next id; every other one, on average,
                    // goes to the kind this table does not hold.
                    0 | 1 => {
                        let id = rid(next);
                        next += 1;
                        issued.push(id);
                        if arg % 2 == 0 {
                            prop_assert_eq!(table.insert(id, value), model.insert(id, value));
                        }
                    }
                    2 => prop_assert_eq!(table.remove(&pick), model.remove(&pick)),
                    3 => {
                        prop_assert_eq!(table.get(&pick), model.get(&pick));
                        prop_assert_eq!(table.contains_key(&pick), model.contains_key(&pick));
                    }
                    4 => {
                        let t = table.get_mut(&pick).map(|v| {
                            *v += 1;
                            *v
                        });
                        let m = model.get_mut(&pick).map(|v| {
                            *v += 1;
                            *v
                        });
                        prop_assert_eq!(t, m);
                    }
                    // Re-insert an issued id of this endpoint, held or not.
                    _ => {
                        if pick.0 >> 32 == rid(0).0 >> 32 && pick.0 as u32 >= 1 {
                            prop_assert_eq!(table.insert(pick, value), model.insert(pick, value));
                        }
                    }
                }
                prop_assert_eq!(table.len(), model.len());
                prop_assert_eq!(table.is_empty(), model.is_empty());
                let t: Vec<(ReqId, u64)> = table.iter().map(|(k, v)| (*k, *v)).collect();
                let m: Vec<(ReqId, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
                prop_assert_eq!(t, m);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The grow-on-use window answers every `record` and
        /// `contains` exactly as the fixed bitmap does. A cursor walks
        /// the sequence space in monotone runs, with duplicates and
        /// sequences below the window between them, jumps of at least
        /// twice the span, and restarts near `u32::MAX`.
        #[test]
        fn seq_window_matches_the_fixed_bitmap(
            ops in proptest::collection::vec((0u8..6, proptest::prelude::any::<u32>()), 1..32),
        ) {
            use proptest::prelude::*;
            const SPAN: u32 = SeqWindow::SPAN;
            let mut w = SeqWindow::default();
            let mut model = FixedWindow::default();
            let mut cursor = 0u32;
            for (op, arg) in ops {
                let seqs: Vec<u32> = match op {
                    // A monotone run, short or longer than the span.
                    0 | 1 => {
                        let n = if arg % 16 == 0 { arg % (2 * SPAN) } else { arg % 200 };
                        (0..n).map(|i| cursor.wrapping_add(i)).collect()
                    }
                    // Duplicates of recent sequences.
                    2 => (0..arg % 16)
                        .map(|i| cursor.wrapping_sub(1 + (arg >> 8).wrapping_add(i * 97) % 128))
                        .collect(),
                    // Below the window, or just under its top.
                    3 => vec![cursor.wrapping_sub(SPAN + arg % SPAN), cursor.wrapping_sub(arg % SPAN)],
                    // A jump of at least twice the span.
                    4 => vec![cursor.wrapping_add(2 * SPAN + arg % (4 * SPAN))],
                    // A restart near the top of the sequence space.
                    _ => vec![u32::MAX - arg % (3 * SPAN)],
                };
                for seq in seqs {
                    prop_assert_eq!(w.contains(seq), model.contains(seq));
                    prop_assert_eq!(w.record(seq), model.record(seq));
                    if seq >= cursor {
                        cursor = seq.wrapping_add(1);
                    }
                    for probe in [seq, seq.wrapping_add(1), seq.wrapping_add(64), seq.wrapping_sub(64),
                                  seq.wrapping_add(SPAN), seq.wrapping_sub(SPAN), 0, u32::MAX] {
                        prop_assert_eq!(w.contains(probe), model.contains(probe));
                    }
                }
            }
            // Every sequence in and around the final window.
            let lo = model.base.saturating_sub(128);
            let hi = model.base.saturating_add(SPAN + 128);
            for probe in lo..hi {
                prop_assert_eq!(w.contains(probe), model.contains(probe));
            }
            prop_assert_eq!(w.base, model.base);
            prop_assert!(w.bits.capacity() <= SeqWindow::WORDS);
        }
    }

    /// An id that is absent costs at most one 4-byte window slot, and
    /// only while an older request is still outstanding; the window
    /// gives its memory back once that request leaves.
    #[test]
    fn req_table_holes_cost_four_bytes_while_an_older_request_waits() {
        const LATER: u32 = 100_000;
        let mut t: ReqTable<u64> = ReqTable::new();
        t.insert(rid(1), 1);
        for c in 2..2 + LATER {
            t.insert(rid(c), u64::from(c));
            assert_eq!(t.remove(&rid(c)), Some(u64::from(c)));
        }
        assert_eq!(t.len(), 1);
        // 4 B of window per later id, at most doubled by the window's
        // amortized growth, plus a constant for the live entries.
        let bound = 2 * 4 * LATER as usize + 1024;
        assert!(t.heap_bytes() <= bound, "{} B > {bound} B", t.heap_bytes());
        assert_eq!(t.remove(&rid(1)), Some(1));
        assert!(t.heap_bytes() < 1024, "window kept {} B", t.heap_bytes());

        // A request that stays outstanding only until the next one is
        // posted never holds the window open: its front is trimmed.
        let start = 10 * LATER;
        t.insert(rid(start), 0);
        for c in start + 1..start + LATER {
            t.insert(rid(c), 0);
            assert_eq!(t.remove(&rid(c - 1)), Some(0));
        }
        assert_eq!(t.len(), 1);
        assert!(
            t.heap_bytes() < 1024,
            "sliding window held {} B",
            t.heap_bytes()
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// A handle window answers every operation exactly as a
        /// `BTreeMap<u32, _>` would. Handles are issued in order from
        /// near `u32::MAX`, so the namespace wraps, and removed in any
        /// order; a burst issues and retires thousands of later
        /// handles while older ones are held. Lookups pick live,
        /// removed, never-issued and far-away handles.
        #[test]
        fn counter_table_matches_an_ordered_map_across_the_wrap(
            start_back in 0u32..64,
            ops in proptest::collection::vec((0u8..6, proptest::prelude::any::<u32>()), 1..200),
        ) {
            use proptest::prelude::*;
            let start = u32::MAX - start_back;
            let mut table: CounterTable<u32, u64> = CounterTable::new();
            let mut model: BTreeMap<u32, u64> = BTreeMap::new();
            let mut next = start;
            let mut issued = 0u32;
            for (step, (op, arg)) in ops.into_iter().enumerate() {
                let value = u64::from(arg) << 8 | step as u64;
                // An issued handle, live or removed, if any.
                let old = (issued > 0).then(|| start.wrapping_add(arg / 8 % issued));
                // What lookups and removes probe: an issued handle, one
                // not issued yet, or one half the namespace away from
                // an issued one.
                let pick = match (old, arg % 8) {
                    (None, _) | (_, 0) => next.wrapping_add(arg % 5),
                    (Some(old), 1) => old ^ (1 << 31),
                    (Some(old), _) => old,
                };
                match op {
                    // Issue the next handle.
                    0 | 1 => {
                        prop_assert_eq!(table.insert(next, value), model.insert(next, value));
                        next = next.wrapping_add(1);
                        issued += 1;
                    }
                    2 => prop_assert_eq!(table.remove(&pick), model.remove(&pick)),
                    3 => {
                        prop_assert_eq!(table.get(&pick), model.get(&pick));
                        prop_assert_eq!(table.contains_key(&pick), model.contains_key(&pick));
                        let t = table.get_mut(&pick).map(|v| {
                            *v += 1;
                            *v
                        });
                        let m = model.get_mut(&pick).map(|v| {
                            *v += 1;
                            *v
                        });
                        prop_assert_eq!(t, m);
                    }
                    // A burst: later handles come and go while the
                    // older ones stay held, now and then thousands.
                    4 => {
                        let n = if arg % 8 == 0 { arg % 2500 } else { arg % 64 };
                        for _ in 0..n {
                            prop_assert_eq!(table.insert(next, value), model.insert(next, value));
                            prop_assert_eq!(table.remove(&next), model.remove(&next));
                            next = next.wrapping_add(1);
                            issued += 1;
                        }
                    }
                    // Re-insert an issued handle, held or not.
                    _ => {
                        if let Some(old) = old {
                            prop_assert_eq!(table.insert(old, value), model.insert(old, value));
                        }
                    }
                }
                prop_assert_eq!(table.len(), model.len());
                prop_assert_eq!(table.is_empty(), model.is_empty());
                // The window yields handles in issue order, across the
                // wrap; the model sorts numerically.
                let t: Vec<(u32, u64)> = table.iter().map(|(k, v)| (*k, *v)).collect();
                let mut m: Vec<(u32, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
                m.sort_by_key(|&(k, _)| k.wrapping_sub(start));
                prop_assert_eq!(t, m);
            }
        }
    }

    /// One pull handle held across the wrap while a hundred thousand
    /// later ones come and go costs 4 bytes per later handle, and the
    /// window gives the memory back once the held handle is removed.
    #[test]
    fn counter_table_holes_across_the_wrap_cost_four_bytes_each() {
        const LATER: u32 = 100_000;
        let held = u32::MAX - 10;
        let mut t: CounterTable<u32, u64> = CounterTable::new();
        t.insert(held, 1);
        let mut h = held;
        for _ in 0..LATER {
            h = h.wrapping_add(1);
            t.insert(h, u64::from(h));
            assert_eq!(t.get(&held), Some(&1));
            assert_eq!(t.remove(&h), Some(u64::from(h)));
        }
        assert!(h < held, "the handles wrapped");
        assert_eq!(t.len(), 1);
        let bound = 2 * 4 * LATER as usize + 1024;
        assert!(t.heap_bytes() <= bound, "{} B > {bound} B", t.heap_bytes());
        assert_eq!(t.get(&h), None, "a retired handle is gone");
        assert_eq!(t.get(&(held ^ (1 << 31))), None, "far-away handle");
        assert_eq!(t.remove(&held), Some(1));
        assert!(t.is_empty());
        assert!(t.heap_bytes() < 1024, "window kept {} B", t.heap_bytes());
    }

    /// A timer fire at `now` against items recording `recorded`:
    /// the keys it checks, in order, and where it re-arms.
    fn fire(
        d: &mut Deadlines<u32>,
        now: Ps,
        recorded: &BTreeMap<u32, Ps>,
    ) -> (Vec<u32>, Option<Ps>) {
        let records = |k: u32, at: Ps| recorded.get(&k) == Some(&at);
        let mut due = Vec::new();
        while let Some(k) = d.pop_due(now, records) {
            due.push(k);
        }
        (due, d.rearm(now, records))
    }

    #[test]
    fn deadlines_fire_due_items_in_deadline_then_arm_order() {
        let mut d = Deadlines::default();
        let mut recorded = BTreeMap::new();
        // Only the first arm, and an arm earlier than the timer, ask
        // for a timer event.
        for (k, at, schedule) in [(1, 30, true), (2, 20, true), (3, 20, false), (4, 40, false)] {
            recorded.insert(k, Ps::us(at));
            assert_eq!(d.arm(Ps::us(at), k), schedule, "arm {k}");
        }
        // Key 2 was acked, key 4 re-armed later: neither is checked at
        // its old deadline, and the re-arm supersedes nothing.
        recorded.remove(&2);
        recorded.insert(4, Ps::us(50));
        assert!(!d.arm(Ps::us(50), 4));
        assert!(!d.fires_at(Ps::us(30)), "the event at 30 µs was superseded");
        assert!(d.fires_at(Ps::us(20)));
        assert_eq!(
            fire(&mut d, Ps::us(20), &recorded),
            (vec![3], Some(Ps::us(30)))
        );
        assert!(d.fires_at(Ps::us(30)));
        assert_eq!(
            fire(&mut d, Ps::us(30), &recorded),
            (vec![1], Some(Ps::us(50)))
        );
        assert_eq!(fire(&mut d, Ps::us(50), &recorded), (vec![4], None));
        assert!(!d.fires_at(Ps::us(50)), "idle once nothing is outstanding");
        assert!(d.arm(Ps::us(60), 5), "an idle timer is armed again");
    }

    #[test]
    #[should_panic(expected = "left behind")]
    fn deadlines_panic_when_a_fire_skips_a_due_item() {
        let mut d = Deadlines::default();
        d.arm(Ps::us(10), 1u32);
        d.rearm(Ps::us(10), |_, _| true);
    }

    /// A timer fire at `now` that first tries to hold until `until`:
    /// `None` when it held, otherwise what [`fire`] returns.
    fn fire_or_hold(
        d: &mut Deadlines<u32>,
        now: Ps,
        until: Ps,
        recorded: &BTreeMap<u32, Ps>,
    ) -> Option<(Vec<u32>, Option<Ps>)> {
        let records = |k: u32, at: Ps| recorded.get(&k) == Some(&at);
        if d.hold(now, until, records) {
            return None;
        }
        Some(fire(d, now, recorded))
    }

    #[test]
    fn a_hold_keeps_due_items_for_the_fire_that_ends_it() {
        let mut d = Deadlines::default();
        let mut recorded = BTreeMap::new();
        for (k, at) in [(1, 30), (2, 20), (3, 20), (4, 60)] {
            recorded.insert(k, Ps::us(at));
            d.arm(Ps::us(at), k);
        }
        assert_eq!(
            fire_or_hold(&mut d, Ps::us(20), Ps::us(50), &recorded),
            None
        );
        assert_eq!(d.heap.len(), 4, "the due items stay");
        assert!(d.fires_at(Ps::us(50)), "the timer is set for the hold");
        assert!(!d.arm(Ps::us(70), 5), "a later arm keeps the hold");
        recorded.insert(5, Ps::us(70));
        assert_eq!(
            fire_or_hold(&mut d, Ps::us(50), Ps::us(80), &recorded),
            Some((vec![2, 3, 1], Some(Ps::us(60)))),
            "(deadline, arm order), and no second hold"
        );
    }

    #[test]
    fn the_timer_holds_once_per_fire_cycle() {
        let mut d = Deadlines::default();
        let recorded = BTreeMap::from([(1, Ps::us(20)), (2, Ps::us(100))]);
        d.arm(Ps::us(20), 1);
        d.arm(Ps::us(100), 2);
        assert_eq!(
            fire_or_hold(&mut d, Ps::us(20), Ps::us(50), &recorded),
            None
        );
        // An ack during the hold moves the hold instant, but the fire
        // that ends the hold checks what is due.
        assert_eq!(
            fire_or_hold(&mut d, Ps::us(50), Ps::us(90), &recorded),
            Some((vec![1], Some(Ps::us(100))))
        );
        // The re-arm began a new cycle, which may hold again.
        assert_eq!(
            fire_or_hold(&mut d, Ps::us(100), Ps::us(130), &recorded),
            None
        );
        assert!(d.fires_at(Ps::us(130)));
    }

    #[test]
    fn a_hold_with_nothing_outstanding_goes_idle() {
        let mut d = Deadlines::default();
        d.arm(Ps::us(20), 1);
        // Key 1 was acked: nothing is left to hold for.
        let recorded = BTreeMap::new();
        assert_eq!(
            fire_or_hold(&mut d, Ps::us(20), Ps::us(50), &recorded),
            Some((vec![], None))
        );
        assert!(!d.fires_at(Ps::us(50)), "no event at the hold instant");
        assert!(d.arm(Ps::us(60), 2), "an idle timer is armed again");
    }

    #[test]
    fn no_hold_past_the_earliest_outstanding_deadline() {
        for later in [70, 50] {
            let mut d = Deadlines::default();
            // Key 1 was acked; key 2 is due at or after the hold instant.
            let recorded = BTreeMap::from([(2, Ps::us(later))]);
            d.arm(Ps::us(20), 1);
            d.arm(Ps::us(later), 2);
            assert_eq!(
                fire_or_hold(&mut d, Ps::us(20), Ps::us(50), &recorded),
                Some((vec![], Some(Ps::us(later)))),
                "deadline {later} µs"
            );
        }
        // A hold instant not after the fire holds nothing either.
        let mut d = Deadlines::default();
        let recorded = BTreeMap::from([(1, Ps::us(20))]);
        d.arm(Ps::us(20), 1);
        assert_eq!(
            fire_or_hold(&mut d, Ps::us(20), Ps::us(20), &recorded),
            Some((vec![1], None))
        );
    }

    #[test]
    #[should_panic(expected = "left behind")]
    fn deadlines_panic_when_a_fire_neither_holds_nor_pops_a_due_item() {
        let mut d = Deadlines::default();
        d.arm(Ps::us(10), 1u32);
        assert!(d.hold(Ps::us(10), Ps::us(40), |_, _| true));
        // The fire that ends the hold may not hold again, so leaving
        // the due item behind is caught.
        assert!(!d.hold(Ps::us(40), Ps::us(70), |_, _| true));
        d.rearm(Ps::us(40), |_, _| true);
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
