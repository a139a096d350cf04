//! Ping-pong harness (Figures 3, 8, 10 and the PingPong of Fig 11).
//!
//! Two endpoints exchange a message back and forth. Every payload is
//! pattern-filled per iteration and verified on receipt, so the whole
//! protocol stack — fragmentation, matching, ring copies, pulls,
//! I/OAT offload, retransmission — is integrity-checked on every run
//! of every figure.

use crate::app::{App, AppCtx, Completion};
use crate::cluster::{Cluster, ClusterParams};
use crate::{EpAddr, EpIdx, NodeId};
use omx_hw::CoreId;
use omx_sim::{Ps, Summary};
use std::cell::RefCell;
use std::rc::Rc;

const PING_MATCH: u64 = 0x5049;
const PONG_MATCH: u64 = 0x504F;

/// Where the two endpoints live.
#[derive(Debug, Clone, Copy)]
pub enum Placement {
    /// One endpoint per node (network path).
    TwoNodes {
        /// Core of the endpoint on node 0.
        core_a: CoreId,
        /// Core of the endpoint on node 1.
        core_b: CoreId,
    },
    /// Both endpoints on node 0 (shared-memory path).
    SameNode {
        /// Core of the first endpoint.
        core_a: CoreId,
        /// Core of the second endpoint.
        core_b: CoreId,
    },
}

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct PingPongConfig {
    /// Cluster parameters (stack, I/OAT, thresholds, ...).
    pub params: ClusterParams,
    /// Message size in bytes.
    pub size: u64,
    /// Measured iterations.
    pub iters: u32,
    /// Warm-up iterations (excluded from statistics).
    pub warmup: u32,
    /// Endpoint placement.
    pub placement: Placement,
}

impl PingPongConfig {
    /// Default iteration counts scaled to the message size so large
    /// sweeps stay fast.
    pub fn new(params: ClusterParams, size: u64, placement: Placement) -> Self {
        let iters = if size >= 4 << 20 {
            6
        } else if size >= 256 << 10 {
            12
        } else {
            24
        };
        PingPongConfig {
            params,
            size,
            iters,
            warmup: 3,
            placement,
        }
    }
}

/// Harness output.
#[derive(Debug, Clone)]
pub struct PingPongResult {
    /// Per-iteration round-trip times (after warm-up).
    pub rtts: Vec<Ps>,
    /// Half-round-trip summary.
    pub half_rtt: Summary,
    /// IMB-convention throughput: size / median half-RTT, in MiB/s.
    pub throughput_mibs: f64,
    /// Whether every received payload matched its expected pattern, no
    /// send was aborted by retransmission exhaustion and — unless the
    /// configuration deliberately injects faults — the wire stayed
    /// clean (no ring or FCS drops).
    pub verified: bool,
    /// Per-component time accounting over the whole run.
    pub breakdown: super::ComponentBreakdown,
    /// Counters, event count, end time and leak detectors of the run.
    pub run: super::RunReport,
}

fn pattern(iter: u32, size: u64) -> Vec<u8> {
    (0..size)
        .map(|i| ((i as u32).wrapping_mul(31).wrapping_add(iter * 7 + 1)) as u8)
        .collect()
}

#[derive(Default)]
struct SharedState {
    rtts: Vec<Ps>,
    corrupt: u64,
    done: bool,
}

struct Pinger {
    peer: EpAddr,
    size: u64,
    iters: u32,
    warmup: u32,
    cur: u32,
    t_send: Ps,
    shared: Rc<RefCell<SharedState>>,
}

impl Pinger {
    fn kick(&mut self, ctx: &mut AppCtx<'_>) {
        ctx.irecv(PONG_MATCH, u64::MAX, self.size, Some(1));
        self.t_send = ctx.now();
        ctx.isend(self.peer, PING_MATCH, pattern(self.cur, self.size), Some(2));
    }
}

impl App for Pinger {
    fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
        self.kick(ctx);
    }

    fn on_completion(&mut self, ctx: &mut AppCtx<'_>, comp: Completion) {
        let Completion::Recv { data, .. } = comp else {
            return; // send completions are uninteresting here
        };
        let mut sh = self.shared.borrow_mut();
        if data != pattern(self.cur, self.size) {
            sh.corrupt += 1;
        }
        let rtt = ctx.now() - self.t_send;
        if self.cur >= self.warmup {
            sh.rtts.push(rtt);
        }
        self.cur += 1;
        if self.cur >= self.iters + self.warmup {
            sh.done = true;
            return;
        }
        drop(sh);
        self.kick(ctx);
    }

    fn is_done(&self) -> bool {
        self.shared.borrow().done
    }
}

struct Ponger {
    peer: EpAddr,
    size: u64,
    total: u32,
    cur: u32,
    shared: Rc<RefCell<SharedState>>,
}

impl App for Ponger {
    fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
        ctx.irecv(PING_MATCH, u64::MAX, self.size, Some(3));
    }

    fn on_completion(&mut self, ctx: &mut AppCtx<'_>, comp: Completion) {
        let Completion::Recv { data, .. } = comp else {
            return;
        };
        if data != pattern(self.cur, self.size) {
            self.shared.borrow_mut().corrupt += 1;
        }
        // Echo the same pattern back.
        ctx.isend(self.peer, PONG_MATCH, pattern(self.cur, self.size), Some(4));
        self.cur += 1;
        if self.cur < self.total {
            ctx.irecv(PING_MATCH, u64::MAX, self.size, Some(3));
        }
    }

    fn is_done(&self) -> bool {
        true
    }
}

/// Run one ping-pong experiment (partitioned per
/// `cfg.params.partitions`; results are identical for every value).
pub fn run_pingpong(cfg: PingPongConfig) -> PingPongResult {
    let total = cfg.iters + cfg.warmup;
    let (node_a, core_a, node_b, core_b) = match cfg.placement {
        Placement::TwoNodes { core_a, core_b } => (NodeId(0), core_a, NodeId(1), core_b),
        Placement::SameNode { core_a, core_b } => (NodeId(0), core_a, NodeId(0), core_b),
    };
    // Endpoint indices are deterministic: first added on a node is 0.
    let addr_a = EpAddr {
        node: node_a,
        ep: EpIdx(0),
    };
    let addr_b = EpAddr {
        node: node_b,
        ep: EpIdx(if node_a == node_b { 1 } else { 0 }),
    };
    let size = cfg.size;
    let (iters, warmup) = (cfg.iters, cfg.warmup);
    let install = |cluster: &mut Cluster, _shard: usize| {
        // Each shard only hosts the endpoints of its own nodes; the
        // collector is per shard and merged after the run.
        let shared = Rc::new(RefCell::new(SharedState::default()));
        if cluster.owns(node_a) {
            cluster.add_endpoint(
                node_a,
                core_a,
                Box::new(Pinger {
                    peer: addr_b,
                    size,
                    iters,
                    warmup,
                    cur: 0,
                    t_send: Ps::ZERO,
                    shared: shared.clone(),
                }),
            );
        }
        if cluster.owns(node_b) {
            cluster.add_endpoint(
                node_b,
                core_b,
                Box::new(Ponger {
                    peer: addr_a,
                    size,
                    total,
                    cur: 0,
                    shared: shared.clone(),
                }),
            );
        }
        shared
    };
    let (run, shards) = super::run_cluster(cfg.params, install, |_, shared| shared.take());
    let (mut rtts, mut corrupt, mut done) = (Vec::new(), 0, false);
    for sh in shards {
        rtts.extend(sh.rtts); // only the pinger's shard contributes
        corrupt += sh.corrupt;
        done |= sh.done;
    }
    assert!(done, "ping-pong did not complete: a message was lost");
    let halves: Vec<Ps> = rtts.iter().map(|r| *r / 2).collect();
    let half_rtt = Summary::of(&halves).expect("at least one iteration");
    let throughput_mibs = size as f64 / half_rtt.median.as_secs_f64() / (1u64 << 20) as f64;
    PingPongResult {
        verified: corrupt == 0 && run.stats.sends_failed == 0 && run.clean_wire(),
        rtts,
        half_rtt,
        throughput_mibs,
        breakdown: run.breakdown(run.end),
        run,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OmxConfig;

    fn quick(params: ClusterParams, size: u64) -> PingPongResult {
        let mut cfg = PingPongConfig::new(
            params,
            size,
            Placement::TwoNodes {
                core_a: CoreId(2),
                core_b: CoreId(2),
            },
        );
        cfg.iters = 5;
        cfg.warmup = 1;
        run_pingpong(cfg)
    }

    #[test]
    fn tiny_pingpong_delivers_verified_data() {
        let r = quick(ClusterParams::default(), 16);
        assert!(r.verified, "tiny payload corrupted");
        assert!(r.half_rtt.median > Ps::us(3), "{}", r.half_rtt.median);
        assert!(r.half_rtt.median < Ps::us(50), "{}", r.half_rtt.median);
    }

    #[test]
    fn medium_pingpong_verified() {
        let r = quick(ClusterParams::default(), 16 << 10);
        assert!(r.verified);
        assert!(r.throughput_mibs > 100.0, "rate {}", r.throughput_mibs);
    }

    #[test]
    fn metrics_never_perturb_timing() {
        // The `metrics` knob only decides whether the busy totals are
        // reported: the same run with it off and on produces
        // byte-identical per-iteration timings, counts and event
        // totals.
        let run_with = |metrics: bool| {
            let cfg = OmxConfig {
                metrics,
                ..OmxConfig::with_ioat()
            };
            quick(ClusterParams::with_cfg(cfg), 256 << 10)
        };
        let off = run_with(false);
        let on = run_with(true);
        assert_eq!(off.rtts, on.rtts, "metrics changed timing");
        assert_eq!(off.run.end, on.run.end);
        let stats = |r: &PingPongResult| serde_json::to_string(&r.run.stats).expect("serialize");
        assert_eq!(stats(&off), stats(&on), "metrics changed the stats");
        assert_eq!(off.run.events, on.run.events, "metrics scheduled events");
        // Off, the breakdown reads zero everywhere and attributes the
        // whole window to idle.
        assert_eq!(off.breakdown.wire_ns, 0.0);
        assert_eq!(off.breakdown.elapsed_ns, off.breakdown.idle_ns);
        // On, it observed the run.
        assert!(on.breakdown.wire_ns > 0.0);
        assert!(on.breakdown.ioat_channel_ns > 0.0);
    }

    #[test]
    fn partitioned_pingpong_is_byte_identical_to_single_engine() {
        // The satellite regression for the partition-safe delivery
        // seam: every arrival in `send_payload` routes through
        // `deliver_frame`, so splitting the two nodes across shards —
        // with any worker count — must reproduce the single-engine
        // run exactly: timings, event count, end time and the full
        // serialized stats.
        let run = |partitions: usize, workers: usize| {
            let mut params = ClusterParams::with_cfg(OmxConfig::with_ioat());
            params.partitions = partitions;
            params.partition_workers = workers;
            quick(params, 64 << 10)
        };
        let single = run(1, 1);
        let split = run(2, 1);
        let threaded = run(2, 2);
        for (name, other) in [("partitions=2", &split), ("2 threaded workers", &threaded)] {
            assert_eq!(single.rtts, other.rtts, "{name}: per-iteration timings");
            assert_eq!(single.run.end, other.run.end, "{name}: end time");
            assert_eq!(single.run.events, other.run.events, "{name}: event count");
            assert_eq!(
                serde_json::to_string(&single.run.stats).unwrap(),
                serde_json::to_string(&other.run.stats).unwrap(),
                "{name}: serialized stats"
            );
        }
    }

    #[test]
    fn large_pingpong_verified_both_copy_modes() {
        let base = quick(ClusterParams::default(), 256 << 10);
        assert!(base.verified);
        let p = ClusterParams::with_cfg(OmxConfig::with_ioat());
        let ioat = quick(p, 256 << 10);
        assert!(ioat.verified);
        assert!(
            ioat.throughput_mibs > base.throughput_mibs,
            "I/OAT {} must beat memcpy {}",
            ioat.throughput_mibs,
            base.throughput_mibs
        );
    }
}
