//! Many-to-one *large*-message incast harness (pull congestion study).
//!
//! A parameterized swarm of sender hosts (64-256 in the experiment)
//! simultaneously rendezvous-sends large messages at one receiving
//! host, spread over four receiver endpoints. Every sender's pull
//! streams block requests at the same instant, so the receiver's RX
//! ring sees the classic incast burst: with per-pull outstanding
//! windows the aggregate in-flight fragment count scales with the
//! sender count and the ring sheds load, while the receiver-driven
//! credit budget (`OmxConfig::pull_credits`) caps the aggregate and
//! admits pulls fairly from the FIFO.
//!
//! Unlike [`super::fanin`], this harness does **not** assert that
//! every message arrived: a collapse under credits-off is a valid
//! result and is recorded honestly in [`IncastResult`]. Callers (the
//! incast experiment, the soak test) decide which cells must complete.

use crate::app::{App, AppCtx, Completion};
use crate::cluster::{Cluster, ClusterParams};
use crate::{EpAddr, EpIdx, NodeId};
use omx_hw::CoreId;
use omx_sim::Ps;
use std::cell::RefCell;
use std::rc::Rc;

const INCAST_MATCH: u64 = 0x1C;
/// Receiver endpoints, on the odd cores (same placement as the fan-in
/// harness: BHs of a 4-queue NIC own the even cores).
pub const RECV_ENDPOINTS: u32 = 4;

/// Incast harness configuration.
#[derive(Debug, Clone)]
pub struct IncastConfig {
    /// Cluster parameters (nodes forced to `1 + senders`).
    pub params: ClusterParams,
    /// Simultaneous sender hosts (nodes 1..=senders; node 0 receives).
    pub senders: u32,
    /// Message size (large-class: rendezvous pull path).
    pub size: u64,
    /// Messages per sender, streamed back-to-back.
    pub count: u32,
}

impl IncastConfig {
    /// An incast of `senders` hosts each pushing `count` large
    /// messages of `size` bytes at node 0.
    pub fn new(mut params: ClusterParams, senders: u32, size: u64, count: u32) -> Self {
        assert!(
            senders >= RECV_ENDPOINTS,
            "need at least one flow per endpoint"
        );
        assert!(
            size > params.cfg.medium_max,
            "incast studies the large-message pull path"
        );
        params.nodes = 1 + senders as usize;
        IncastConfig {
            params,
            senders,
            size,
            count,
        }
    }
}

/// Incast harness output. No field is an assertion: credits-off
/// collapse cells report `delivered < expected` with the damage
/// itemized rather than panicking.
#[derive(Debug, Clone)]
pub struct IncastResult {
    /// Sender hosts in this run.
    pub senders: u32,
    /// Messages the senders attempted (`senders * count`).
    pub expected: u32,
    /// Messages that arrived intact at the receiver.
    pub delivered: u32,
    /// Payloads that arrived but failed pattern verification.
    pub corrupt: u64,
    /// Incast duration (first receive post to last delivery).
    pub elapsed: Ps,
    /// Completion time per *delivered* message — the incast scaling
    /// curve plots this against the sender count.
    pub per_msg: Ps,
    /// Fragments sent beyond the minimum needed for the delivered
    /// bytes, as a percentage of that minimum (retransmissions plus
    /// fragments of abandoned pulls; 0 when the wire was exact).
    pub excess_frag_pct: f64,
    /// Receiver-ring frames shed by genuine overload.
    pub ring_dropped_genuine: u64,
    /// Receiver-ring frames shed because a fault plan shrank the ring.
    pub ring_dropped_injected: u64,
    /// Every expected message arrived intact, no send was aborted,
    /// and nothing leaked.
    pub verified: bool,
    /// Per-component time accounting over the incast window.
    pub breakdown: super::ComponentBreakdown,
    /// Counters (credit counters and per-queue ring high-watermarks
    /// included), event count and leak detectors of the run.
    pub run: super::RunReport,
}

/// One constant pattern for every message, order-independent under
/// the arbitrary interleaving of the flows.
fn pattern(size: u64) -> Vec<u8> {
    (0..size).map(|b| (b.wrapping_mul(131)) as u8).collect()
}

#[derive(Default)]
struct SharedState {
    received: u32,
    corrupt: u64,
    first_post: Ps,
    last_recv: Ps,
}

struct IncastSender {
    peer: EpAddr,
    size: u64,
    count: u32,
    sent: u32,
}

impl App for IncastSender {
    fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
        self.sent = 1;
        ctx.isend(self.peer, INCAST_MATCH, pattern(self.size), Some(20));
    }

    fn on_completion(&mut self, ctx: &mut AppCtx<'_>, comp: Completion) {
        if !matches!(comp, Completion::Send { .. }) {
            return;
        }
        // A failed send still advances: under collapse the swarm keeps
        // pressing, which is exactly the behaviour being measured.
        if self.sent < self.count {
            self.sent += 1;
            ctx.isend(self.peer, INCAST_MATCH, pattern(self.size), Some(20));
        }
    }

    fn is_done(&self) -> bool {
        true
    }
}

struct IncastReceiver {
    size: u64,
    /// Messages this endpoint still has to post a receive for.
    to_post: u32,
    shared: Rc<RefCell<SharedState>>,
}

impl App for IncastReceiver {
    fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
        let mut sh = self.shared.borrow_mut();
        if sh.first_post == Ps::ZERO {
            sh.first_post = ctx.now();
        }
        drop(sh);
        // Keep four receives posted per endpoint: with 16+ flows per
        // endpoint the match queue must never be the bottleneck.
        let prepost = self.to_post.min(4);
        for _ in 0..prepost {
            self.to_post -= 1;
            ctx.irecv(INCAST_MATCH, u64::MAX, self.size, Some(21));
        }
    }

    fn on_completion(&mut self, ctx: &mut AppCtx<'_>, comp: Completion) {
        let Completion::Recv { data, .. } = comp else {
            return;
        };
        let mut sh = self.shared.borrow_mut();
        if data != pattern(self.size) {
            sh.corrupt += 1;
        }
        sh.received += 1;
        sh.last_recv = ctx.now();
        drop(sh);
        if self.to_post > 0 {
            self.to_post -= 1;
            ctx.irecv(INCAST_MATCH, u64::MAX, self.size, Some(21));
        }
    }

    fn is_done(&self) -> bool {
        // Completion is reported, not required: the simulation drains
        // whatever the congested ring let through.
        true
    }
}

/// Run one incast experiment (partitioned per
/// `cfg.params.partitions`; results are identical for every value).
pub fn run_incast(cfg: IncastConfig) -> IncastResult {
    assert_eq!(cfg.params.nodes as u32, 1 + cfg.senders, "incast topology");
    let expected = cfg.senders * cfg.count;
    let (senders, size, count) = (cfg.senders, cfg.size, cfg.count);
    let frag_size = cfg.params.cfg.frag_size;
    let install = |cluster: &mut Cluster, _shard: usize| {
        let shared = Rc::new(RefCell::new(SharedState::default()));
        // Receiver endpoints on the odd cores (1, 3, 5, 7). Flows are
        // dealt round-robin, so every endpoint serves senders/4 flows.
        if cluster.owns(NodeId(0)) {
            for e in 0..RECV_ENDPOINTS {
                let quota = expected / RECV_ENDPOINTS + u32::from(e < expected % RECV_ENDPOINTS);
                cluster.add_endpoint(
                    NodeId(0),
                    CoreId(1 + 2 * e),
                    Box::new(IncastReceiver {
                        size,
                        to_post: quota,
                        shared: shared.clone(),
                    }),
                );
            }
        }
        // Sender s (node s+1) targets receiver endpoint s % RECV_ENDPOINTS.
        for s in 0..senders {
            if !cluster.owns(NodeId(1 + s)) {
                continue;
            }
            let peer = EpAddr {
                node: NodeId(0),
                ep: EpIdx((s % RECV_ENDPOINTS) as u8),
            };
            cluster.add_endpoint(
                NodeId(1 + s),
                CoreId(2),
                Box::new(IncastSender {
                    peer,
                    size,
                    count,
                    sent: 0,
                }),
            );
        }
        shared
    };
    // Every receiver endpoint lives on node 0, so its shard holds the
    // whole tally.
    let collect = |cluster: &Cluster, shared: Rc<RefCell<SharedState>>| {
        cluster.owns(NodeId(0)).then(|| shared.take())
    };
    let (run, shards) = super::run_cluster(cfg.params, install, collect);
    let sh = shards
        .into_iter()
        .flatten()
        .next()
        .expect("the receiver node ran");
    let delivered = sh.received;
    let elapsed = if delivered > 0 {
        sh.last_recv - sh.first_post
    } else {
        Ps::ZERO
    };
    // The minimum fragment count for the bytes that actually landed;
    // anything the senders put on the wire beyond it was retransmitted
    // or belonged to a pull the receiver later abandoned.
    let frags_per_msg = size.div_ceil(frag_size);
    let needed = frags_per_msg * delivered as u64;
    let sent_frags = run.stats.counters.tx_large_frags;
    let excess_frag_pct = if needed > 0 {
        (sent_frags.saturating_sub(needed)) as f64 * 100.0 / needed as f64
    } else {
        0.0
    };
    let ring_dropped_injected = run.stats.frames_ring_dropped_injected;
    let ring_dropped_genuine = run.stats.frames_ring_dropped - ring_dropped_injected;
    // Pinned regions are not part of `verified`: with the registration
    // cache enabled (the default) regions legitimately stay pinned
    // after the run. Callers that disable the cache can check the
    // reported count themselves.
    let verified = delivered == expected
        && sh.corrupt == 0
        && run.stats.sends_failed == 0
        && run.clean_wire()
        && run.skbuffs_held == 0;
    IncastResult {
        senders,
        expected,
        delivered,
        corrupt: sh.corrupt,
        elapsed,
        per_msg: Ps::ps(elapsed.as_ps() / u64::from(delivered.max(1))),
        excess_frag_pct,
        ring_dropped_genuine,
        ring_dropped_injected,
        verified,
        breakdown: run.breakdown(elapsed.max(Ps::ps(1))),
        run,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(senders: u32, credits: bool) -> IncastResult {
        let mut params = ClusterParams::default();
        params.nic.num_queues = 4;
        params.cfg.pull_credits = credits;
        run_incast(IncastConfig::new(params, senders, 96 << 10, 2))
    }

    #[test]
    fn small_incast_completes_with_and_without_credits() {
        for credits in [false, true] {
            let r = quick(8, credits);
            assert!(
                r.verified,
                "8-sender incast must complete (credits={credits}): \
                 delivered {}/{} corrupt {} sends_failed {} ring_dropped {} \
                 corrupt_dropped {} skbuffs {} pinned {}",
                r.delivered,
                r.expected,
                r.corrupt,
                r.run.stats.sends_failed,
                r.run.stats.frames_ring_dropped,
                r.run.stats.frames_corrupt_dropped,
                r.run.skbuffs_held,
                r.run.pinned_regions
            );
            assert_eq!(r.run.skbuffs_held, 0);
        }
    }

    fn pressured(credits: bool) -> IncastResult {
        let mut params = ClusterParams::default();
        params.nic.num_queues = 4;
        params.cfg.pull_credits = credits;
        params.cfg.fault_plan = crate::fault::FaultPlan::ring_pressure();
        run_incast(IncastConfig::new(params, 8, 96 << 10, 2))
    }

    #[test]
    fn credits_tame_a_pressured_ring() {
        let off = pressured(false);
        let on = pressured(true);
        assert!(on.verified, "credits-on must survive ring pressure");
        assert!(
            on.ring_dropped_injected < off.ring_dropped_injected,
            "credit budget must shed fewer frames on the shrunken ring: {} vs {}",
            on.ring_dropped_injected,
            off.ring_dropped_injected
        );
        assert!(
            on.excess_frag_pct < off.excess_frag_pct,
            "credit budget must waste fewer fragments: {:.2}% vs {:.2}%",
            on.excess_frag_pct,
            off.excess_frag_pct
        );
        assert!(on.run.stats.credit_shrinks > 0, "AIMD shrink must engage");
        let peak = on
            .run
            .stats
            .ring_high_watermarks
            .first()
            .map(|q| q.iter().copied().max().unwrap_or(0))
            .unwrap_or(0);
        assert!(peak > 0, "watermark gauge must be populated");
    }

    #[test]
    fn partitioned_incast_matches_single_engine() {
        let run = |partitions: usize, workers: usize| {
            let mut params = ClusterParams::default();
            params.nic.num_queues = 4;
            params.cfg.pull_credits = true;
            params.partitions = partitions;
            params.partition_workers = workers;
            run_incast(IncastConfig::new(params, 8, 96 << 10, 2))
        };
        let single = run(1, 1);
        for (name, other) in [
            ("partitions=3", run(3, 1)),
            ("partitions=4, 4 workers", run(4, 4)),
        ] {
            assert_eq!(single.delivered, other.delivered, "{name}");
            assert_eq!(single.elapsed, other.elapsed, "{name}");
            assert_eq!(single.run.events, other.run.events, "{name}");
            assert_eq!(
                serde_json::to_string(&single.run.stats).unwrap(),
                serde_json::to_string(&other.run.stats).unwrap(),
                "{name}: serialized stats"
            );
        }
    }

    #[test]
    fn incast_runs_are_deterministic() {
        let a = quick(8, true);
        let b = quick(8, true);
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(
            a.run.stats.counters.tx_large_frags,
            b.run.stats.counters.tx_large_frags
        );
    }
}
