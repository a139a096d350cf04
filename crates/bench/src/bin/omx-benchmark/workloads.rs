//! The four workloads: inputs generated from the seed, the apps that
//! drive them through [`AppCtx`], and one timed run under
//! [`open_mx::run_partitioned`].
//!
//! Every payload is a zero-copy slice of one seeded pool, sent with
//! `isend_bytes`; every receive recycles a buffer through `irecv_into`
//! and is compared byte for byte with the slice that was sent. All
//! workloads are closed loops: a sender posts its next message only
//! when an earlier one completed.

use crate::trace::{self, Name};
use bytes::Bytes;
use omx_hw::cpu::category;
use omx_hw::CoreId;
use omx_sim::sanitize::SimSanitizer;
use omx_sim::{Ps, Sim};
use open_mx::app::{App, AppCtx, Completion};
use open_mx::cluster::{Cluster, ClusterParams, Stats};
use open_mx::fault::FaultPlan;
use open_mx::harness::{leak_counts, BusyTotals};
use open_mx::{EpAddr, EpIdx, NodeId, OmxConfig};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PingpongSmall,
    StreamLarge,
    IncastCredit,
    Alltoall256,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PingpongSmall,
        Workload::StreamLarge,
        Workload::IncastCredit,
        Workload::Alltoall256,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PingpongSmall => "pingpong_small",
            Workload::StreamLarge => "stream_large",
            Workload::IncastCredit => "incast_credit",
            Workload::Alltoall256 => "alltoall_256",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// How much work one run of each workload does.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub round_trips: u32,
    /// Sizes on a ping-pong's menu.
    pub pingpong_sizes: usize,
    pub stream_msgs: u32,
    /// Sizes on a stream's menu.
    pub stream_sizes: usize,
    pub incast_senders: u32,
    pub incast_per_sender: u32,
    pub ranks: u32,
    pub iters: u32,
}

impl Scale {
    /// The measured scale: under three seconds of host time per run,
    /// and at least 1 000 latency samples so that ten lie beyond p99.
    pub const FULL: Scale = Scale {
        round_trips: 60_000,
        // Enough that every simulated metric's spread between seeds
        // stays under 0.2 %.
        pingpong_sizes: 1024,
        stream_msgs: 2_000,
        // Fewer than the registration cache holds (64).
        stream_sizes: 48,
        incast_senders: 32,
        incast_per_sender: 384,
        ranks: 256,
        iters: 1,
    };
    /// The test scale: every code path, seconds in a debug build.
    #[cfg(test)]
    pub const SMOKE: Scale = Scale {
        round_trips: 200,
        pingpong_sizes: 16,
        stream_msgs: 20,
        stream_sizes: 4,
        incast_senders: 8,
        incast_per_sender: 3,
        ranks: 12,
        iters: 2,
    };
}

/// The benchmark's own input generator (SplitMix64), kept apart from
/// the simulator's streams: the stack receives only generated inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// The size at quantile `u` of the log-uniform distribution over
/// `[lo, hi]`.
fn log_uniform(u: f64, lo: u32, hi: u32) -> u32 {
    let (a, b) = (f64::from(lo).ln(), f64::from(hi).ln());
    ((a + u * (b - a)).exp().round() as u32).clamp(lo, hi)
}

/// `n` sizes log-uniform over `[lo, hi]`, drawn one per equal-width
/// stratum of the log range, in stratum order: every seed gets
/// different sizes, but nearly the same total, so seeds compare on
/// equal work.
fn stratified(rng: &mut Rng, n: usize, lo: u32, hi: u32) -> Vec<u32> {
    (0..n)
        .map(|i| log_uniform((i as f64 + rng.unit()) / n as f64, lo, hi))
        .collect()
}

/// `n` sizes that cycle through a menu of `k` stratified sizes, each
/// pass over the menu in a new seeded order. The end strata are pinned
/// to `lo` and `hi`, so the largest message, which sets the tail
/// latency, is the same for every seed; and every stretch of `k`
/// messages holds the same mix, so the queueing behind a message
/// varies little from seed to seed either.
fn menu_sizes(rng: &mut Rng, n: usize, k: usize, lo: u32, hi: u32) -> Vec<u32> {
    let mut menu = stratified(rng, k, lo, hi);
    menu[0] = lo;
    menu[k - 1] = hi;
    let mut v = Vec::with_capacity(n + k);
    while v.len() < n {
        rng.shuffle(&mut menu);
        v.extend_from_slice(&menu);
    }
    v.truncate(n);
    v
}

/// One message: `len` bytes of the pool starting at `off`.
#[derive(Debug, Clone, Copy)]
struct Msg {
    off: u32,
    len: u32,
}

/// Payload offsets vary over this many bytes of the pool.
const POOL_SLACK: u32 = 4096;

/// Match-info kinds (high 16 bits); the low 48 bits carry the message
/// index, so every receive matches exactly one message.
const PING: u64 = 1 << 48;
const PONG: u64 = 2 << 48;
const DATA: u64 = 3 << 48;
const ID_MASK: u64 = (1 << 48) - 1;

/// Messages a stream sender keeps in flight.
const STREAM_WINDOW: u32 = 4;
/// Messages an incast sender keeps in flight.
const INCAST_WINDOW: u32 = 2;
/// Receiver endpoints of the incast node, on cores 1, 3, 5, 7 (the
/// even cores run the bottom halves of its four RX queues).
const INCAST_ENDPOINTS: u32 = 4;

/// Everything a workload's apps read, shared by every shard.
struct Script {
    pool: Bytes,
    msgs: Vec<Msg>,
    /// The largest message: every receive buffer is allocated once at
    /// this capacity, so buffer memory does not depend on size order.
    max_len: usize,
    /// Alltoall only: each rank's seeded peer order, per iteration.
    order: Vec<u16>,
    scale: Scale,
}

impl Script {
    fn payload(&self, id: usize) -> Bytes {
        let m = self.msgs[id];
        self.pool.slice(m.off as usize..(m.off + m.len) as usize)
    }

    fn intact(&self, id: usize, data: &[u8]) -> bool {
        let m = self.msgs[id];
        data == &self.pool[m.off as usize..(m.off + m.len) as usize]
    }

    fn len(&self, id: usize) -> u64 {
        u64::from(self.msgs[id].len)
    }

    /// Alltoall: index of the message `src` sends `dst` in `iter`.
    fn a2a(&self, iter: u32, src: u32, dst: u32) -> usize {
        let r = self.scale.ranks as usize;
        (iter as usize * r + src as usize) * r + dst as usize
    }
}

/// A workload's generated inputs.
pub struct Plan {
    pub workload: Workload,
    pub params: ClusterParams,
    script: Arc<Script>,
}

impl Plan {
    pub fn new(workload: Workload, seed: u64, scale: Scale) -> Plan {
        let mut rng = Rng::new(seed ^ (workload as u64).wrapping_mul(0xA076_1D64_78BD_642F));
        let cfg = OmxConfig {
            seed: rng.next_u64(),
            ..OmxConfig::with_ioat()
        };
        let mut params = ClusterParams::with_cfg(cfg);
        let (n, lo, hi) = match workload {
            Workload::PingpongSmall => (scale.round_trips as usize, 16, 4 << 10),
            Workload::StreamLarge => (scale.stream_msgs as usize, 64 << 10, 4 << 20),
            Workload::IncastCredit => {
                params.nodes = 1 + scale.incast_senders as usize;
                params.nic.num_queues = 4;
                params.cfg.pull_credits = true;
                params.cfg.fault_plan = FaultPlan::ring_pressure();
                let lo = params.cfg.medium_max as u32 + 1;
                let n = (scale.incast_senders * scale.incast_per_sender) as usize;
                (n, lo, 256 << 10)
            }
            Workload::Alltoall256 => {
                params.nodes = scale.ranks as usize;
                // Both shards on one worker: with two, a run's speed
                // also depends on how busy the host keeps the second
                // core, which the probe cannot see (`partition.speedup`
                // reports the two-worker run).
                params.partitions = 2;
                params.partition_workers = 1;
                let r = scale.ranks as usize;
                (scale.iters as usize * r * r, 64, 1 << 10)
            }
        };
        let mut pool = vec![0u8; (hi + POOL_SLACK) as usize];
        for chunk in pool.chunks_mut(8) {
            let word = rng.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
        let sizes = match workload {
            // A ping-pong's latencies depend on its sizes alone, and
            // stratified draws of one size per message are the same for
            // every seed to the byte: a menu keeps the high strata wide
            // enough to differ.
            Workload::PingpongSmall => menu_sizes(&mut rng, n, scale.pingpong_sizes, lo, hi),
            // Each size of the menu is sent from a buffer of its own,
            // so the registration cache hits from a size's second
            // message on.
            Workload::StreamLarge => menu_sizes(&mut rng, n, scale.stream_sizes, lo, hi),
            Workload::IncastCredit | Workload::Alltoall256 => {
                let mut v = stratified(&mut rng, n, lo, hi);
                rng.shuffle(&mut v);
                v
            }
        };
        let mut msgs: Vec<Msg> = sizes
            .into_iter()
            .map(|len| Msg {
                off: rng.below(u64::from(POOL_SLACK) + 1) as u32,
                len,
            })
            .collect();
        let mut order = Vec::new();
        match workload {
            // Ping `i` is message 2i; its pong, 2i + 1, has the same
            // length from another offset.
            Workload::PingpongSmall => {
                msgs = msgs
                    .iter()
                    .flat_map(|&m| {
                        let pong_off = rng.below(u64::from(POOL_SLACK) + 1) as u32;
                        [m, Msg { off: pong_off, ..m }]
                    })
                    .collect();
            }
            Workload::Alltoall256 => {
                let r = scale.ranks;
                for _iter in 0..scale.iters {
                    for me in 0..r {
                        let mut peers: Vec<u16> =
                            (0..r).filter(|&p| p != me).map(|p| p as u16).collect();
                        rng.shuffle(&mut peers);
                        order.extend(peers);
                    }
                }
            }
            Workload::StreamLarge | Workload::IncastCredit => {}
        }
        Plan {
            workload,
            params,
            script: Arc::new(Script {
                pool: Bytes::from(pool),
                msgs,
                max_len: hi as usize,
                order,
                scale,
            }),
        }
    }

    /// Messages one run sends.
    pub fn messages(&self) -> u64 {
        let s = &self.script.scale;
        match self.workload {
            Workload::PingpongSmall => 2 * u64::from(s.round_trips),
            Workload::StreamLarge => u64::from(s.stream_msgs),
            Workload::IncastCredit => u64::from(s.incast_senders * s.incast_per_sender),
            Workload::Alltoall256 => {
                u64::from(s.iters) * u64::from(s.ranks) * u64::from(s.ranks - 1)
            }
        }
    }

    /// Nodes whose receive-side CPU time `sim_rx_cpu_frac` averages.
    fn receivers(&self) -> std::ops::Range<u32> {
        match self.workload {
            Workload::PingpongSmall => 0..2,
            Workload::StreamLarge => 1..2,
            Workload::IncastCredit => 0..1,
            Workload::Alltoall256 => 0..self.script.scale.ranks,
        }
    }

    /// Add this shard's endpoints; returns the shard's tally.
    fn install(&self, cluster: &mut Cluster) -> Shared {
        let sh = Shared::default();
        let sc = &self.script;
        // Endpoints only for the nodes this shard owns, in node order.
        let mut add = |node: u32, core: u32, app: &dyn Fn() -> Box<dyn App>| {
            if cluster.owns(NodeId(node)) {
                cluster.add_endpoint(NodeId(node), CoreId(core), Box::new(Timed(app())));
            }
        };
        let ep = |node: u32, ep: u32| EpAddr {
            node: NodeId(node),
            ep: EpIdx(ep as u8),
        };
        let base = |sh: &Shared| Base {
            sc: sc.clone(),
            sh: sh.clone(),
        };
        match self.workload {
            Workload::PingpongSmall => {
                add(0, 2, &|| {
                    Box::new(Pinger {
                        b: base(&sh),
                        peer: ep(1, 0),
                        i: 0,
                        t0: Ps::ZERO,
                        buf: None,
                    })
                });
                add(1, 2, &|| {
                    Box::new(Ponger {
                        b: base(&sh),
                        peer: ep(0, 0),
                        i: 0,
                    })
                });
            }
            Workload::StreamLarge => {
                let n = sc.scale.stream_msgs;
                add(0, 2, &|| {
                    Box::new(Sender::new(base(&sh), ep(1, 0), 0, n, STREAM_WINDOW))
                });
                add(1, 2, &|| {
                    Box::new(Receiver::new(base(&sh), vec![0], n, STREAM_WINDOW))
                });
            }
            Workload::IncastCredit => {
                let (senders, k) = (sc.scale.incast_senders, sc.scale.incast_per_sender);
                for e in 0..INCAST_ENDPOINTS {
                    add(0, 1 + 2 * e, &|| {
                        let flows = (e..senders).step_by(INCAST_ENDPOINTS as usize).collect();
                        Box::new(Receiver::new(base(&sh), flows, k, INCAST_WINDOW))
                    });
                }
                for s in 0..senders {
                    let peer = ep(0, s % INCAST_ENDPOINTS);
                    add(1 + s, 2, &|| {
                        Box::new(Sender::new(base(&sh), peer, s, k, INCAST_WINDOW))
                    });
                }
            }
            Workload::Alltoall256 => {
                for r in 0..sc.scale.ranks {
                    add(r, 2, &|| {
                        Box::new(Rank {
                            b: base(&sh),
                            me: r,
                            iter: 0,
                            pending: 0,
                            bufs: Vec::new(),
                        })
                    });
                }
            }
        }
        sh
    }
}

/// What the apps of one shard observed.
#[derive(Debug, Default)]
struct Tally {
    /// Messages received, intact or not.
    delivered: u64,
    intact: u64,
    bytes: u64,
    sends_failed: u64,
    last_delivery: Ps,
    /// Ping-pong half round trips, keyed for a partition-independent
    /// merge order.
    lat: Vec<(u64, Ps)>,
    /// Send post and receive completion times by message index, joined
    /// after the run (sender and receiver may sit on different shards).
    posted: Vec<(u64, Ps)>,
    arrived: Vec<(u64, Ps)>,
}

type Shared = Rc<RefCell<Tally>>;

/// State every app carries: the script and its shard's tally.
struct Base {
    sc: Arc<Script>,
    sh: Shared,
}

impl Base {
    /// A receive buffer: a recycled one, or a new one at full size.
    fn buffer(&self, spare: Option<Vec<u8>>) -> Vec<u8> {
        spare.unwrap_or_else(|| Vec::with_capacity(self.sc.max_len))
    }

    fn isend(&self, ctx: &mut AppCtx<'_>, dest: EpAddr, kind: u64, id: usize, tag: u64) {
        let data = self.sc.payload(id);
        let _s = trace::span(Name::LibIsend);
        ctx.isend_bytes(dest, kind | id as u64, data, Some(tag));
    }

    fn irecv(&self, ctx: &mut AppCtx<'_>, kind: u64, id: usize, buf: Vec<u8>, tag: u64) {
        let len = self.sc.len(id);
        let _s = trace::span(Name::LibIrecv);
        ctx.irecv_into(kind | id as u64, u64::MAX, len, buf, Some(tag));
    }

    /// Count a send completion.
    fn sent(&self, failed: bool) {
        if failed {
            self.sh.borrow_mut().sends_failed += 1;
        }
    }

    /// Verify and count a delivery of message `id`.
    fn delivered(&self, ctx: &AppCtx<'_>, id: usize, data: &[u8]) {
        let ok = self.sc.intact(id, data);
        let mut t = self.sh.borrow_mut();
        t.delivered += 1;
        t.intact += u64::from(ok);
        t.bytes += data.len() as u64;
        t.last_delivery = t.last_delivery.max(ctx.now());
    }
}

/// Wraps an app in `app.on_start` / `app.on_completion` spans.
struct Timed(Box<dyn App>);

impl App for Timed {
    fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
        let _s = trace::span(Name::AppOnStart);
        self.0.on_start(ctx);
    }

    fn on_completion(&mut self, ctx: &mut AppCtx<'_>, comp: Completion) {
        let _s = trace::span(Name::AppOnCompletion);
        self.0.on_completion(ctx, comp);
    }
}

/// Ping-pong initiator: one message in flight; samples half the round
/// trip.
struct Pinger {
    b: Base,
    peer: EpAddr,
    i: u32,
    t0: Ps,
    buf: Option<Vec<u8>>,
}

impl Pinger {
    fn kick(&mut self, ctx: &mut AppCtx<'_>) {
        let i = 2 * self.i as usize;
        let buf = self.b.buffer(self.buf.take());
        self.b.irecv(ctx, PONG, i + 1, buf, 1);
        self.t0 = ctx.now();
        self.b.isend(ctx, self.peer, PING, i, 2);
    }
}

impl App for Pinger {
    fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
        self.kick(ctx);
    }

    fn on_completion(&mut self, ctx: &mut AppCtx<'_>, comp: Completion) {
        let data = match comp {
            Completion::Send { failed, .. } => return self.b.sent(failed),
            Completion::Recv { data, .. } => data,
        };
        self.b.delivered(ctx, 2 * self.i as usize + 1, &data);
        let half = (ctx.now() - self.t0) / 2;
        self.b.sh.borrow_mut().lat.push((u64::from(self.i), half));
        self.buf = Some(data);
        self.i += 1;
        if self.i < self.b.sc.scale.round_trips {
            self.kick(ctx);
        }
    }
}

/// Ping-pong responder: echoes each ping with its pong.
struct Ponger {
    b: Base,
    peer: EpAddr,
    i: u32,
}

impl App for Ponger {
    fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
        self.b.irecv(ctx, PING, 0, self.b.buffer(None), 3);
    }

    fn on_completion(&mut self, ctx: &mut AppCtx<'_>, comp: Completion) {
        let data = match comp {
            Completion::Send { failed, .. } => return self.b.sent(failed),
            Completion::Recv { data, .. } => data,
        };
        let i = 2 * self.i as usize;
        self.b.delivered(ctx, i, &data);
        self.b.isend(ctx, self.peer, PONG, i + 1, 4);
        self.i += 1;
        if self.i < self.b.sc.scale.round_trips {
            self.b.irecv(ctx, PING, i + 2, data, 3);
        }
    }
}

/// Stream or incast sender `flow`: messages `flow * count ..` in
/// order, `window` in flight.
struct Sender {
    b: Base,
    peer: EpAddr,
    flow: u32,
    next: u32,
    count: u32,
    window: u32,
}

impl Sender {
    fn new(b: Base, peer: EpAddr, flow: u32, count: u32, window: u32) -> Sender {
        Sender {
            b,
            peer,
            flow,
            next: 0,
            count,
            window,
        }
    }

    fn post(&mut self, ctx: &mut AppCtx<'_>) {
        let id = (self.flow * self.count + self.next) as usize;
        self.b.sh.borrow_mut().posted.push((id as u64, ctx.now()));
        // The registration cache keys a buffer by tag and length: the
        // app keeps one buffer per message size.
        let tag = self.b.sc.len(id);
        self.b.isend(ctx, self.peer, DATA, id, tag);
        self.next += 1;
    }
}

impl App for Sender {
    fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
        for _ in 0..self.window.min(self.count) {
            self.post(ctx);
        }
    }

    fn on_completion(&mut self, ctx: &mut AppCtx<'_>, comp: Completion) {
        if let Completion::Send { failed, .. } = comp {
            self.b.sent(failed);
            if self.next < self.count {
                self.post(ctx);
            }
        }
    }
}

/// Stream or incast receiver: keeps `window` exact-match receives
/// posted per flow it serves.
struct Receiver {
    b: Base,
    flows: Vec<u32>,
    /// Next message index to post, per served flow.
    next: Vec<u32>,
    count: u32,
    window: u32,
    bufs: Vec<Vec<u8>>,
}

impl Receiver {
    fn new(b: Base, flows: Vec<u32>, count: u32, window: u32) -> Receiver {
        let next = vec![0; flows.len()];
        Receiver {
            b,
            flows,
            next,
            count,
            window,
            bufs: Vec::new(),
        }
    }

    fn post(&mut self, ctx: &mut AppCtx<'_>, slot: usize) {
        let k = self.next[slot];
        if k >= self.count {
            return;
        }
        self.next[slot] += 1;
        let id = (self.flows[slot] * self.count + k) as usize;
        let buf = self.b.buffer(self.bufs.pop());
        let tag = self.b.sc.len(id);
        self.b.irecv(ctx, DATA, id, buf, tag);
    }
}

impl App for Receiver {
    fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
        for slot in 0..self.flows.len() {
            for _ in 0..self.window {
                self.post(ctx, slot);
            }
        }
    }

    fn on_completion(&mut self, ctx: &mut AppCtx<'_>, comp: Completion) {
        let Completion::Recv {
            match_info, data, ..
        } = comp
        else {
            return;
        };
        let id = (match_info & ID_MASK) as usize;
        self.b.delivered(ctx, id, &data);
        self.b.sh.borrow_mut().arrived.push((id as u64, ctx.now()));
        self.bufs.push(data);
        let flow = id as u32 / self.count;
        let slot = self
            .flows
            .iter()
            .position(|&f| f == flow)
            .expect("served flow");
        self.post(ctx, slot);
    }
}

/// Alltoall rank: each iteration posts a receive from every peer, then
/// sends to every peer in its seeded order, and starts the next
/// iteration once all of them completed. Latency is sampled per
/// message, post to receive completion: one iteration of 256 ranks
/// gives 65 280 samples, where per-rank iteration times would give 256.
struct Rank {
    b: Base,
    me: u32,
    iter: u32,
    pending: u32,
    bufs: Vec<Vec<u8>>,
}

impl Rank {
    fn begin(&mut self, ctx: &mut AppCtx<'_>) {
        let (sc, r) = (self.b.sc.clone(), self.b.sc.scale.ranks);
        self.pending = 2 * (r - 1);
        for src in (0..r).filter(|&s| s != self.me) {
            let buf = self.b.buffer(self.bufs.pop());
            let id = sc.a2a(self.iter, src, self.me);
            self.b.irecv(ctx, DATA, id, buf, 0x1_0000 | u64::from(src));
        }
        let at = ((self.iter * r + self.me) * (r - 1)) as usize;
        for &dst in &sc.order[at..at + (r - 1) as usize] {
            let dst = u32::from(dst);
            let peer = EpAddr {
                node: NodeId(dst),
                ep: EpIdx(0),
            };
            let id = sc.a2a(self.iter, self.me, dst);
            self.b.sh.borrow_mut().posted.push((id as u64, ctx.now()));
            self.b.isend(ctx, peer, DATA, id, u64::from(dst));
        }
    }
}

impl App for Rank {
    fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
        self.begin(ctx);
    }

    fn on_completion(&mut self, ctx: &mut AppCtx<'_>, comp: Completion) {
        match comp {
            Completion::Send { failed, .. } => self.b.sent(failed),
            Completion::Recv {
                match_info, data, ..
            } => {
                let id = (match_info & ID_MASK) as usize;
                self.b.delivered(ctx, id, &data);
                self.b.sh.borrow_mut().arrived.push((id as u64, ctx.now()));
                self.bufs.push(data);
            }
        }
        self.pending -= 1;
        if self.pending > 0 {
            return;
        }
        self.iter += 1;
        if self.iter < self.b.sc.scale.iters {
            self.begin(ctx);
        }
    }
}

/// How one run is configured, on top of the plan's own parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Variant {
    pub partitions: usize,
    pub workers: usize,
    pub metrics: bool,
    /// Record spans (one partition only: spans are per thread).
    pub traced: bool,
}

impl Variant {
    /// The plan's own configuration.
    pub fn base(plan: &Plan) -> Variant {
        Variant {
            partitions: plan.params.partitions,
            workers: plan.params.partition_workers,
            metrics: true,
            traced: false,
        }
    }

    fn params(self, plan: &Plan) -> ClusterParams {
        let mut params = plan.params.clone();
        params.partitions = self.partitions;
        params.partition_workers = self.workers;
        params.cfg.metrics = self.metrics;
        params
    }
}

/// Host time to build every shard's world and engine and install its
/// endpoints (the work `run_partitioned` does before the first event),
/// one shard after another on this thread.
pub fn setup_ns(plan: &Plan, v: Variant) -> u64 {
    let params = v.params(plan);
    let t0 = trace::now_ns();
    let worlds: Vec<(Cluster, Sim<Cluster>, Shared)> =
        (0..params.partitions.clamp(1, params.nodes))
            .map(|shard| {
                let mut cluster = Cluster::new_shard(params.clone(), shard);
                let sim = Sim::with_wheel_levels(params.cfg.wheel_levels);
                let sh = plan.install(&mut cluster);
                (cluster, sim, sh)
            })
            .collect();
    let ns = trace::now_ns() - t0;
    drop(worlds);
    ns
}

/// What one shard hands back from `finish`.
struct ShardOut {
    tally: Tally,
    stats: Stats,
    busy: BusyTotals,
    events: u64,
    peak_pending: u64,
    skbuffs_held: u64,
    rx_busy: Ps,
}

/// Host-time marks shared by the shards of one run.
#[derive(Default)]
struct Marks {
    /// Last `install` return, with the allocator reading there.
    installed: Option<(u64, crate::alloc::Reading)>,
    /// First `finish` entry, with the allocator reading there.
    finishing: Option<(u64, crate::alloc::Reading)>,
}

/// Everything measured in one run of one workload.
#[derive(Debug)]
pub struct RunReport {
    /// Last `install` return to the first `finish` entry.
    pub run_ns: u64,
    pub peak_heap: u64,
    /// Allocations and bytes requested during the run phase.
    pub run_allocs: u64,
    pub run_alloc_bytes: u64,
    pub attempted: u64,
    pub delivered: u64,
    /// Messages that did not arrive intact.
    pub failed: u64,
    pub sends_failed: u64,
    pub bytes: u64,
    pub events: u64,
    pub shard_events: Vec<u64>,
    pub peak_pending: u64,
    pub stats: Stats,
    pub busy: BusyTotals,
    /// Simulated time when the last message arrived.
    pub elapsed: Ps,
    /// Mean receive-side CPU busy time of the receiving nodes.
    pub rx_busy: Ps,
    /// Latency samples in a partition-independent order.
    pub lat: Vec<Ps>,
    /// Skbuffs still held after the run drained (must be zero; the
    /// regions the registration cache keeps pinned are not a leak).
    pub skbuffs_held: u64,
    pub trace: Option<trace::Trace>,
}

/// Run `plan` once under `v`.
pub fn run_once(plan: &Plan, v: Variant) -> RunReport {
    assert!(
        !v.traced || v.partitions == 1,
        "spans are recorded on one thread"
    );
    let params = v.params(plan);
    let receivers = plan.receivers();
    let marks = Mutex::new(Marks::default());
    if v.traced {
        trace::start();
    }
    crate::ALLOC.reset_peak();
    trace::open(Name::Setup);
    trace::open(Name::ClusterNew);
    let install = |cluster: &mut Cluster, shard: usize| {
        trace::close();
        trace::set_shard(shard);
        let sh = {
            let _s = trace::span(Name::Install);
            plan.install(cluster)
        };
        let now = (trace::now_ns(), crate::ALLOC.read());
        let mut m = marks.lock().expect("marks poisoned");
        if m.installed.is_none_or(|(t, _)| now.0 > t) {
            m.installed = Some(now);
        }
        trace::close();
        trace::open(Name::Run);
        sh
    };
    let finish = |_shard: usize, sim: &mut Sim<Cluster>, cluster: &mut Cluster, sh: Shared| {
        let now = (trace::now_ns(), crate::ALLOC.read());
        {
            let mut m = marks.lock().expect("marks poisoned");
            if m.finishing.is_none_or(|(t, _)| now.0 < t) {
                m.finishing = Some(now);
            }
        }
        trace::close();
        trace::open(Name::Finish);
        // The sanitizer is per thread: this is the thread that ran the
        // shard's handles.
        SimSanitizer::assert_quiesced();
        let stats = {
            let _s = trace::span(Name::StatsSnapshot);
            cluster.stats_snapshot()
        };
        let (skbuffs_held, _cached_regions) = {
            let _s = trace::span(Name::LeakCounts);
            leak_counts(cluster)
        };
        let rx_busy = receivers
            .clone()
            .filter(|&n| cluster.owns(NodeId(n)))
            .flat_map(|n| {
                [
                    category::BH,
                    category::IRQ,
                    category::DRIVER,
                    category::USER_LIB,
                ]
                .map(|cat| cluster.node_busy_in(NodeId(n), cat))
            })
            .fold(Ps::ZERO, |a, b| a + b);
        let tally = std::mem::take(&mut *sh.borrow_mut());
        ShardOut {
            tally,
            stats,
            busy: BusyTotals::of(cluster),
            events: sim.events_executed(),
            peak_pending: sim.events_peak_pending() as u64,
            skbuffs_held,
            rx_busy,
        }
    };
    let outs = open_mx::run_partitioned(params, install, finish);
    trace::close();
    let trace = v.traced.then(trace::stop);
    let peak_heap = crate::ALLOC.read().peak;
    let m = marks.into_inner().expect("marks poisoned");
    let ((installed, at_install), (finishing, at_finish)) = (
        m.installed.expect("a shard installed"),
        m.finishing.expect("a shard finished"),
    );
    let mut r = merge(plan, outs, receivers.len() as u64);
    r.run_ns = finishing - installed;
    r.peak_heap = peak_heap;
    r.run_allocs = at_finish.allocs - at_install.allocs;
    r.run_alloc_bytes = at_finish.bytes - at_install.bytes;
    r.trace = trace;
    r
}

/// Fold the shards' outputs into one report (host-time fields zero).
fn merge(plan: &Plan, outs: Vec<ShardOut>, receivers: u64) -> RunReport {
    let mut stats: Option<Stats> = None;
    let mut busy = BusyTotals::default();
    let mut t = Tally::default();
    let mut r = RunReport {
        run_ns: 0,
        peak_heap: 0,
        run_allocs: 0,
        run_alloc_bytes: 0,
        attempted: plan.messages(),
        delivered: 0,
        failed: 0,
        sends_failed: 0,
        bytes: 0,
        events: 0,
        shard_events: Vec::new(),
        peak_pending: 0,
        stats: Stats::default(),
        busy: BusyTotals::default(),
        elapsed: Ps::ZERO,
        rx_busy: Ps::ZERO,
        lat: Vec::new(),
        skbuffs_held: 0,
        trace: None,
    };
    let mut rx_busy = Ps::ZERO;
    for o in outs {
        match &mut stats {
            None => stats = Some(o.stats),
            Some(s) => s.absorb(&o.stats),
        }
        busy.absorb(&o.busy);
        r.events += o.events;
        r.shard_events.push(o.events);
        r.peak_pending = r.peak_pending.max(o.peak_pending);
        r.skbuffs_held += o.skbuffs_held;
        rx_busy += o.rx_busy;
        t.delivered += o.tally.delivered;
        t.intact += o.tally.intact;
        t.bytes += o.tally.bytes;
        t.sends_failed += o.tally.sends_failed;
        t.last_delivery = t.last_delivery.max(o.tally.last_delivery);
        t.lat.extend(o.tally.lat);
        t.posted.extend(o.tally.posted);
        t.arrived.extend(o.tally.arrived);
    }
    r.stats = stats.expect("at least one shard");
    r.busy = busy;
    r.delivered = t.delivered;
    r.failed = r.attempted - t.intact.min(r.attempted);
    r.sends_failed = t.sends_failed;
    r.bytes = t.bytes;
    r.elapsed = t.last_delivery;
    r.rx_busy = Ps::ps(rx_busy.as_ps() / receivers.max(1));
    t.lat.sort_unstable_by_key(|&(k, _)| k);
    t.posted.sort_unstable_by_key(|&(k, _)| k);
    t.arrived.sort_unstable_by_key(|&(k, _)| k);
    r.lat = t.lat.into_iter().map(|(_, l)| l).collect();
    // A message that never arrived has no latency; `failed` counts it.
    let mut posted = t.posted.iter().peekable();
    for &(k, got) in &t.arrived {
        while posted.next_if(|&&(p, _)| p < k).is_some() {}
        if let Some(&(_, sent)) = posted.next_if(|&&(p, _)| p == k) {
            r.lat.push(got - sent);
        }
    }
    r
}

impl RunReport {
    /// Every check a run must pass: each message arrived intact, no
    /// send was aborted, and no driver state leaked.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.delivered == self.attempted
            && self.sends_failed == 0
            && self.skbuffs_held == 0
    }

    /// FNV-1a over the run's simulated outputs: merged `Stats`, the
    /// busy-time breakdown, the event count and the latency samples.
    pub fn digest(&self) -> u64 {
        self.hash(true)
    }

    /// The digest minus the busy-time breakdown, which reads zero with
    /// metrics off: equal with metrics on and off.
    pub fn schedule_digest(&self) -> u64 {
        self.hash(false)
    }

    fn hash(&self, busy: bool) -> u64 {
        let b = &self.busy;
        let mut h = Fnv::default();
        h.bytes(
            serde_json::to_string(&self.stats)
                .expect("stats serialize")
                .as_bytes(),
        );
        if busy {
            for p in [b.wire, b.bh_copy, b.ioat_channel, b.submit_cpu, b.poll_wait] {
                h.u64(p.as_ps());
            }
        }
        h.u64(self.events);
        for l in &self.lat {
            h.u64(l.as_ps());
        }
        h.0
    }
}

struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}
