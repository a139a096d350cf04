//! Many-to-one medium-message fan-in harness (multi-queue RX study).
//!
//! Eight sender hosts each stream synchronous medium messages at one
//! receiving host, spread over four receiver endpoints. On a
//! single-queue NIC every fragment funnels through one bottom half on
//! the IRQ core, which becomes the bottleneck long before the (per
//! sender) links do; with RSS steering the flows land on distinct RX
//! queues whose bottom halves drain concurrently on their bound
//! cores. The result reports aggregate drain throughput plus the
//! per-core BH+IRQ busy split, which is what the RSS ablation plots.

use crate::app::{App, AppCtx, Completion};
use crate::cluster::{Cluster, ClusterParams};
use crate::{EpAddr, EpIdx, NodeId};
use omx_hw::cpu::category;
use omx_hw::CoreId;
use omx_sim::instruments as ins;
use omx_sim::{Ps, Sim};
use std::cell::RefCell;
use std::rc::Rc;

const FANIN_MATCH: u64 = 0xFA;
/// Streaming senders (nodes 1..=SENDERS; node 0 receives).
pub const SENDERS: u32 = 8;
/// Receiver endpoints, on the odd cores so the even-core BHs of a
/// 4-queue NIC never contend with application polling.
pub const RECV_ENDPOINTS: u32 = 4;

/// Fan-in harness configuration.
#[derive(Debug, Clone)]
pub struct FaninConfig {
    /// Cluster parameters (must allow `1 + SENDERS` nodes).
    pub params: ClusterParams,
    /// Message size (medium-class: eager fragmented path).
    pub size: u64,
    /// Messages per sender.
    pub count: u32,
}

impl FaninConfig {
    /// A fan-in moving ≈32 MiB total across all senders.
    pub fn new(mut params: ClusterParams, size: u64) -> Self {
        params.nodes = 1 + SENDERS as usize;
        let count = ((32u64 << 20) / (SENDERS as u64) / size).clamp(4, 256) as u32;
        FaninConfig {
            params,
            size,
            count,
        }
    }
}

/// Fan-in harness output.
#[derive(Debug, Clone)]
pub struct FaninResult {
    /// Aggregate receive throughput in MiB/s.
    pub throughput_mibs: f64,
    /// Fan-in duration (first receive post to last delivery).
    pub elapsed: Ps,
    /// Every payload matched its pattern and no send was aborted.
    pub verified: bool,
    /// Engine events executed over the whole run (deterministic; feeds
    /// benchrun's events/sec figure and the perf-smoke fingerprint).
    pub events_executed: u64,
    /// Receiver-host BH+IRQ busy time per core, indexed by core id —
    /// the spread (or pile-up) the multi-queue path is about.
    pub bh_busy_per_core: Vec<Ps>,
    /// Frames that rode a GRO train (0 unless `cfg.gro`).
    pub gro_coalesced: u64,
    /// Aggregate cluster counters at the end of the run.
    pub stats: crate::cluster::Stats,
    /// Per-component time accounting over the fan-in window.
    pub breakdown: super::ComponentBreakdown,
    /// Leak detectors (must both be zero after the run drained).
    pub end_skbuffs_held: u64,
    /// Pinned regions still registered at the end.
    pub end_pinned_regions: u64,
}

/// One constant pattern for every message: verification stays
/// order-independent under the arbitrary interleaving of eight flows.
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

struct FaninSender {
    peer: EpAddr,
    size: u64,
    count: u32,
    sent: u32,
}

impl App for FaninSender {
    fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
        self.sent = 1;
        ctx.isend(self.peer, FANIN_MATCH, pattern(self.size), Some(10));
    }

    fn on_completion(&mut self, ctx: &mut AppCtx<'_>, comp: Completion) {
        if !matches!(comp, Completion::Send { .. }) {
            return;
        }
        if self.sent < self.count {
            self.sent += 1;
            ctx.isend(self.peer, FANIN_MATCH, pattern(self.size), Some(10));
        }
    }

    fn is_done(&self) -> bool {
        true
    }
}

struct FaninReceiver {
    size: u64,
    /// Messages this endpoint still has to post a receive for.
    to_post: u32,
    quota: u32,
    got: u32,
    shared: Rc<RefCell<SharedState>>,
}

impl App for FaninReceiver {
    fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
        let mut sh = self.shared.borrow_mut();
        if sh.first_post == Ps::ZERO {
            sh.first_post = ctx.now();
        }
        drop(sh);
        // Keep two receives posted so back-to-back messages from the
        // two senders feeding this endpoint never stall on the post.
        let prepost = self.to_post.min(2);
        for _ in 0..prepost {
            self.to_post -= 1;
            ctx.irecv(FANIN_MATCH, u64::MAX, self.size, Some(11));
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
        self.got += 1;
        if self.to_post > 0 {
            self.to_post -= 1;
            ctx.irecv(FANIN_MATCH, u64::MAX, self.size, Some(11));
        }
    }

    fn is_done(&self) -> bool {
        self.got >= self.quota
    }
}

/// Run one fan-in experiment.
pub fn run_fanin(cfg: FaninConfig) -> FaninResult {
    assert_eq!(cfg.params.nodes as u32, 1 + SENDERS, "fan-in topology");
    let shared = Rc::new(RefCell::new(SharedState::default()));
    let total = SENDERS * cfg.count;
    let mut cluster = Cluster::new(cfg.params.clone());
    let mut sim: Sim<Cluster> = Sim::with_wheel_levels(cluster.p.cfg.wheel_levels);
    // Receiver endpoints on the odd cores (1, 3, 5, 7).
    for e in 0..RECV_ENDPOINTS {
        let quota = total / RECV_ENDPOINTS;
        cluster.add_endpoint(
            NodeId(0),
            CoreId(1 + 2 * e),
            Box::new(FaninReceiver {
                size: cfg.size,
                to_post: quota,
                quota,
                got: 0,
                shared: shared.clone(),
            }),
        );
    }
    // Sender s (node s+1) targets receiver endpoint s % RECV_ENDPOINTS.
    for s in 0..SENDERS {
        let peer = EpAddr {
            node: NodeId(0),
            ep: EpIdx((s % RECV_ENDPOINTS) as u8),
        };
        cluster.add_endpoint(
            NodeId(1 + s),
            CoreId(2),
            Box::new(FaninSender {
                peer,
                size: cfg.size,
                count: cfg.count,
                sent: 0,
            }),
        );
    }
    cluster.start(&mut sim);
    sim.run(&mut cluster);
    let sh = shared.borrow();
    assert_eq!(sh.received, total, "fan-in did not complete");
    let elapsed = sh.last_recv - sh.first_post;
    let horizon = elapsed.max(Ps::ps(1));
    let recv_node = cluster.node(NodeId(0));
    let bh_busy_per_core = cluster
        .p
        .topology
        .cores()
        .map(|c| {
            let core = recv_node.cpus.core(c);
            core.busy_in(category::BH) + core.busy_in(category::IRQ)
        })
        .collect();
    let bytes = cfg.size * total as u64;
    let (clean_wire, end_skbuffs_held, end_pinned_regions) = super::drain_check(&cluster);
    FaninResult {
        throughput_mibs: bytes as f64 / horizon.as_secs_f64() / (1u64 << 20) as f64,
        elapsed,
        verified: sh.corrupt == 0 && cluster.stats.sends_failed == 0 && clean_wire,
        events_executed: sim.events_executed(),
        bh_busy_per_core,
        gro_coalesced: cluster.metrics.counter(0, ins::BH_GRO_COALESCED),
        stats: cluster.stats_snapshot(),
        breakdown: super::ComponentBreakdown::from_cluster(&cluster, horizon),
        end_skbuffs_held,
        end_pinned_regions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(num_queues: usize, gro: bool) -> FaninResult {
        let mut params = ClusterParams::default();
        params.nic.num_queues = num_queues;
        params.cfg.gro = gro;
        let mut cfg = FaninConfig::new(params, 16 << 10);
        cfg.count = 8;
        run_fanin(cfg)
    }

    #[test]
    fn single_queue_fanin_piles_on_the_irq_core() {
        let r = quick(1, false);
        assert!(r.verified);
        assert_eq!(r.end_skbuffs_held, 0);
        let busy = &r.bh_busy_per_core;
        let total: Ps = busy.iter().fold(Ps::ZERO, |a, &b| a + b);
        assert!(total > Ps::ZERO);
        assert_eq!(
            busy[0], total,
            "one queue: all BH work on the IRQ core, got {busy:?}"
        );
    }

    #[test]
    fn quad_queue_fanin_spreads_and_speeds_up() {
        let base = quick(1, false);
        let quad = quick(4, false);
        assert!(quad.verified);
        let active = quad
            .bh_busy_per_core
            .iter()
            .filter(|&&b| b > Ps::ZERO)
            .count();
        assert!(
            active >= 3,
            "4 queues must spread BH work, busy {:?}",
            quad.bh_busy_per_core
        );
        assert!(
            quad.throughput_mibs > base.throughput_mibs * 1.5,
            "expected >=1.5x aggregate drain: {} vs {}",
            quad.throughput_mibs,
            base.throughput_mibs
        );
    }

    #[test]
    fn gro_trains_cut_bh_time_on_fanin() {
        let plain = quick(4, false);
        let gro = quick(4, true);
        assert!(gro.verified);
        assert!(gro.gro_coalesced > 0, "trains must form under fan-in");
        assert_eq!(plain.gro_coalesced, 0);
        let sum = |r: &FaninResult| {
            r.bh_busy_per_core
                .iter()
                .fold(Ps::ZERO, |a, &b| a + b)
                .as_ps()
        };
        assert!(
            sum(&gro) < sum(&plain),
            "GRO must shave per-frame BH cost: {} vs {}",
            sum(&gro),
            sum(&plain)
        );
    }
}
