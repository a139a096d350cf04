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
use omx_sim::Ps;
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
    /// Receiver-host BH+IRQ busy time per core, indexed by core id —
    /// the spread (or pile-up) the multi-queue path is about.
    pub bh_busy_per_core: Vec<Ps>,
    /// Frames that rode a GRO train (0 unless `cfg.gro`).
    pub gro_coalesced: u64,
    /// Per-component time accounting over the fan-in window.
    pub breakdown: super::ComponentBreakdown,
    /// Counters, event count, end time and leak detectors of the run.
    pub run: super::RunReport,
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

/// Run one fan-in experiment (partitioned per
/// `cfg.params.partitions`; results are identical for every value).
pub fn run_fanin(cfg: FaninConfig) -> FaninResult {
    assert_eq!(cfg.params.nodes as u32, 1 + SENDERS, "fan-in topology");
    let total = SENDERS * cfg.count;
    let (size, count) = (cfg.size, cfg.count);
    let install = |cluster: &mut Cluster, _shard: usize| {
        let shared = Rc::new(RefCell::new(SharedState::default()));
        // Receiver endpoints on the odd cores (1, 3, 5, 7).
        if cluster.owns(NodeId(0)) {
            for e in 0..RECV_ENDPOINTS {
                let quota = total / RECV_ENDPOINTS;
                cluster.add_endpoint(
                    NodeId(0),
                    CoreId(1 + 2 * e),
                    Box::new(FaninReceiver {
                        size,
                        to_post: quota,
                        quota,
                        got: 0,
                        shared: shared.clone(),
                    }),
                );
            }
        }
        // Sender s (node s+1) targets receiver endpoint s % RECV_ENDPOINTS.
        for s in 0..SENDERS {
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
                Box::new(FaninSender {
                    peer,
                    size,
                    count,
                    sent: 0,
                }),
            );
        }
        shared
    };
    // The receiver's tally, per-core BH split and GRO count, read on
    // the shard that owns node 0.
    let collect = |cluster: &Cluster, shared: Rc<RefCell<SharedState>>| {
        cluster.owns(NodeId(0)).then(|| {
            let cpus = &cluster.node(NodeId(0)).cpus;
            let bh_busy_per_core: Vec<Ps> = cluster
                .p
                .topology
                .cores()
                .map(|c| cpus.core(c).busy_in(category::BH) + cpus.core(c).busy_in(category::IRQ))
                .collect();
            let gro_coalesced = cluster.node(NodeId(0)).gro_coalesced;
            (shared.take(), bh_busy_per_core, gro_coalesced)
        })
    };
    let (run, shards) = super::run_cluster(cfg.params, install, collect);
    let (sh, bh_busy_per_core, gro_coalesced) = shards
        .into_iter()
        .flatten()
        .next()
        .expect("the receiver node ran");
    assert_eq!(sh.received, total, "fan-in did not complete");
    let elapsed = sh.last_recv - sh.first_post;
    let horizon = elapsed.max(Ps::ps(1));
    let bytes = size * total as u64;
    FaninResult {
        throughput_mibs: bytes as f64 / horizon.as_secs_f64() / (1u64 << 20) as f64,
        elapsed,
        verified: sh.corrupt == 0 && run.stats.sends_failed == 0 && run.clean_wire(),
        bh_busy_per_core,
        gro_coalesced,
        breakdown: run.breakdown(horizon),
        run,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(num_queues: usize, gro: bool) -> FaninResult {
        quick_with(num_queues, gro, true)
    }

    fn quick_with(num_queues: usize, gro: bool, metrics: bool) -> FaninResult {
        let mut params = ClusterParams::default();
        params.nic.num_queues = num_queues;
        params.cfg.gro = gro;
        params.cfg.metrics = metrics;
        let mut cfg = FaninConfig::new(params, 16 << 10);
        cfg.count = 8;
        run_fanin(cfg)
    }

    #[test]
    fn single_queue_fanin_piles_on_the_irq_core() {
        let r = quick(1, false);
        assert!(r.verified);
        assert_eq!(r.run.skbuffs_held, 0);
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

    #[test]
    fn gro_count_does_not_depend_on_metrics() {
        let on = quick_with(4, true, true);
        let off = quick_with(4, true, false);
        assert!(on.gro_coalesced > 0, "trains must form under fan-in");
        assert_eq!(off.gro_coalesced, on.gro_coalesced);
    }

    #[test]
    fn partitioned_fanin_matches_single_engine() {
        // The receiver and the eight senders dealt over 2 or 4 shards,
        // run by one worker or two, must reproduce the single engine
        // on one queue and on four, with GRO trains and with credits.
        fn json<T: serde::Serialize>(v: &T) -> String {
            serde_json::to_string(v).expect("serialize")
        }
        let cells = [1, 4]
            .into_iter()
            .flat_map(|q| [(q, false, false), (q, true, false), (q, false, true)]);
        for (num_queues, gro, credits) in cells {
            let run = |partitions: usize, workers: usize| {
                let mut params = ClusterParams::default();
                params.nic.num_queues = num_queues;
                params.cfg.gro = gro;
                params.cfg.pull_credits = credits;
                params.partitions = partitions;
                params.partition_workers = workers;
                let mut cfg = FaninConfig::new(params, 16 << 10);
                cfg.count = 8;
                let r = run_fanin(cfg);
                assert!(r.verified);
                assert_eq!(r.run.shards.len(), partitions, "one load per shard");
                r
            };
            let single = run(1, 1);
            for (parts, workers) in [(2, 1), (2, 2), (4, 1), (4, 2)] {
                let split = run(parts, workers);
                let name = format!(
                    "{num_queues} queues, gro={gro}, credits={credits}, \
                     {parts} partitions, {workers} workers"
                );
                assert_eq!(single.elapsed, split.elapsed, "{name}: elapsed");
                assert_eq!(single.run.events, split.run.events, "{name}: events");
                assert_eq!(
                    json(&single.run.stats),
                    json(&split.run.stats),
                    "{name}: stats"
                );
                assert_eq!(
                    json(&single.breakdown),
                    json(&split.breakdown),
                    "{name}: breakdown"
                );
                assert_eq!(
                    single.bh_busy_per_core, split.bh_busy_per_core,
                    "{name}: BH split"
                );
            }
        }
    }
}
