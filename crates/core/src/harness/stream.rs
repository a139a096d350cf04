//! Unidirectional stream harness (Figure 9).
//!
//! A sender pushes a stream of synchronous large messages (the next
//! send is posted when the previous completed, exactly the workload of
//! §IV-B2); the receiver re-posts a receive per message. The result
//! reports per-category CPU utilization on the receiving host —
//! user-library, driver and bottom-half — which is what Fig 9 plots
//! with and without overlapped copy offload.

use crate::app::{App, AppCtx, Completion};
use crate::cluster::{Cluster, ClusterParams};
use crate::{EpAddr, EpIdx, NodeId};
use omx_hw::cpu::category;
use omx_hw::CoreId;
use omx_sim::Ps;
use std::cell::RefCell;
use std::rc::Rc;

const STREAM_MATCH: u64 = 0x57;

/// Stream harness configuration.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Cluster parameters.
    pub params: ClusterParams,
    /// Message size.
    pub size: u64,
    /// Number of messages.
    pub count: u32,
    /// Sender endpoint core (node 0).
    pub send_core: CoreId,
    /// Receiver endpoint core (node 1).
    pub recv_core: CoreId,
}

impl StreamConfig {
    /// A stream moving ≈48 MiB total (enough for stable utilization).
    pub fn new(params: ClusterParams, size: u64) -> Self {
        let count = ((48u64 << 20) / size).clamp(4, 256) as u32;
        StreamConfig {
            params,
            size,
            count,
            send_core: CoreId(2),
            recv_core: CoreId(2),
        }
    }
}

/// Stream harness output.
#[derive(Debug, Clone)]
pub struct StreamResult {
    /// Receive-side bottom-half CPU utilization in `[0, 1]`.
    pub bh_util: f64,
    /// Receive-side driver (syscall/pinning) CPU utilization.
    pub driver_util: f64,
    /// Receive-side user-library CPU utilization.
    pub user_util: f64,
    /// Achieved stream throughput in MiB/s.
    pub throughput_mibs: f64,
    /// Whether every payload matched its pattern, no send was aborted
    /// by retransmission exhaustion and — unless the configuration
    /// deliberately injects faults — the wire stayed clean (no ring or
    /// FCS drops).
    pub verified: bool,
    /// Peak skbuffs held by pending I/OAT copies on the receiver (the
    /// §III-B resource bound).
    pub max_skbuffs_held: u64,
    /// Stream duration.
    pub elapsed: Ps,
    /// Per-component time accounting over the stream window.
    pub breakdown: super::ComponentBreakdown,
    /// Counters, event count, end time and leak detectors of the run.
    pub run: super::RunReport,
}

fn pattern(i: u32, size: u64) -> Vec<u8> {
    (0..size)
        .map(|b| ((b as u32).wrapping_add(i.wrapping_mul(131))) as u8)
        .collect()
}

#[derive(Default)]
struct SharedState {
    received: u32,
    corrupt: u64,
    first_recv_post: Ps,
    last_recv: Ps,
    done: bool,
}

struct StreamSender {
    peer: EpAddr,
    size: u64,
    count: u32,
    sent: u32,
}

impl App for StreamSender {
    fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
        self.sent = 1;
        ctx.isend(self.peer, STREAM_MATCH, pattern(0, self.size), Some(10));
    }

    fn on_completion(&mut self, ctx: &mut AppCtx<'_>, comp: Completion) {
        if !matches!(comp, Completion::Send { .. }) {
            return;
        }
        if self.sent < self.count {
            let i = self.sent;
            self.sent += 1;
            ctx.isend(self.peer, STREAM_MATCH, pattern(i, self.size), Some(10));
        }
    }

    fn is_done(&self) -> bool {
        true
    }
}

struct StreamReceiver {
    size: u64,
    count: u32,
    shared: Rc<RefCell<SharedState>>,
}

impl App for StreamReceiver {
    fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
        self.shared.borrow_mut().first_recv_post = ctx.now();
        ctx.irecv(STREAM_MATCH, u64::MAX, self.size, Some(11));
    }

    fn on_completion(&mut self, ctx: &mut AppCtx<'_>, comp: Completion) {
        let Completion::Recv { data, .. } = comp else {
            return;
        };
        let mut sh = self.shared.borrow_mut();
        if data != pattern(sh.received, self.size) {
            sh.corrupt += 1;
        }
        sh.received += 1;
        sh.last_recv = ctx.now();
        if sh.received >= self.count {
            sh.done = true;
            return;
        }
        drop(sh);
        ctx.irecv(STREAM_MATCH, u64::MAX, self.size, Some(11));
    }

    fn is_done(&self) -> bool {
        self.shared.borrow().done
    }
}

/// Run one stream experiment (partitioned per
/// `cfg.params.partitions`; results are identical for every value).
pub fn run_stream(cfg: StreamConfig) -> StreamResult {
    let recv_addr = EpAddr {
        node: NodeId(1),
        ep: EpIdx(0),
    };
    let (size, count) = (cfg.size, cfg.count);
    let (send_core, recv_core) = (cfg.send_core, cfg.recv_core);
    let install = |cluster: &mut Cluster, _shard: usize| {
        let shared = Rc::new(RefCell::new(SharedState::default()));
        if cluster.owns(NodeId(0)) {
            cluster.add_endpoint(
                NodeId(0),
                send_core,
                Box::new(StreamSender {
                    peer: recv_addr,
                    size,
                    count,
                    sent: 0,
                }),
            );
        }
        if cluster.owns(NodeId(1)) {
            cluster.add_endpoint(
                NodeId(1),
                recv_core,
                Box::new(StreamReceiver {
                    size,
                    count,
                    shared: shared.clone(),
                }),
            );
        }
        shared
    };
    // The receiver's tally, CPU meter and skbuff peak, read on the
    // shard that owns node 1.
    let collect = |cluster: &Cluster, shared: Rc<RefCell<SharedState>>| {
        cluster.owns(NodeId(1)).then(|| {
            let node = cluster.node(NodeId(1));
            (
                shared.take(),
                node.cpus.merged_meter(),
                node.driver.skbuffs_held_max,
            )
        })
    };
    let (run, shards) = super::run_cluster(cfg.params, install, collect);
    let (sh, meter, max_skbuffs_held) = shards
        .into_iter()
        .flatten()
        .next()
        .expect("the receiver node ran");
    assert!(sh.done, "stream did not complete");
    let elapsed = sh.last_recv - sh.first_recv_post;
    let horizon = elapsed.max(Ps::ps(1));
    let util = |cat: &str| meter.total(cat).as_ps() as f64 / horizon.as_ps() as f64;
    let bytes = size * count as u64;
    StreamResult {
        bh_util: util(category::BH) + util(category::IRQ),
        driver_util: util(category::DRIVER),
        user_util: util(category::USER_LIB),
        throughput_mibs: bytes as f64 / horizon.as_secs_f64() / (1u64 << 20) as f64,
        verified: sh.corrupt == 0 && run.stats.sends_failed == 0 && run.clean_wire(),
        max_skbuffs_held,
        elapsed,
        breakdown: run.breakdown(horizon),
        run,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OmxConfig;

    #[test]
    fn memcpy_stream_saturates_bh() {
        let mut cfg = StreamConfig::new(ClusterParams::default(), 1 << 20);
        cfg.count = 8;
        let r = run_stream(cfg);
        assert!(r.verified);
        assert!(
            r.bh_util > 0.80,
            "no-I/OAT large stream must be BH-bound: {}",
            r.bh_util
        );
        assert!(r.throughput_mibs > 500.0, "rate {}", r.throughput_mibs);
    }

    #[test]
    fn ioat_stream_cuts_bh_usage_and_raises_rate() {
        let params = ClusterParams::with_cfg(OmxConfig::with_ioat());
        let mut cfg = StreamConfig::new(params, 1 << 20);
        cfg.count = 8;
        let ioat = run_stream(cfg);
        let mut base_cfg = StreamConfig::new(ClusterParams::default(), 1 << 20);
        base_cfg.count = 8;
        let base = run_stream(base_cfg);
        assert!(ioat.verified);
        assert!(
            ioat.bh_util < base.bh_util - 0.1,
            "I/OAT must relieve the BH: {} vs {}",
            ioat.bh_util,
            base.bh_util
        );
        assert!(ioat.throughput_mibs > base.throughput_mibs);
        assert!(ioat.max_skbuffs_held > 0, "async copies must hold skbuffs");
    }

    #[test]
    fn partitioned_stream_matches_single_engine() {
        // Sender and receiver on different shards, run by one worker
        // or two, must reproduce the single engine on both copy paths.
        fn json<T: serde::Serialize>(v: &T) -> String {
            serde_json::to_string(v).expect("serialize")
        }
        for (path, omx) in [
            ("memcpy", OmxConfig::default()),
            ("I/OAT", OmxConfig::with_ioat()),
        ] {
            let run = |partitions: usize, workers: usize| {
                let mut params = ClusterParams::with_cfg(omx.clone());
                params.partitions = partitions;
                params.partition_workers = workers;
                let mut cfg = StreamConfig::new(params, 1 << 20);
                cfg.count = 8;
                let r = run_stream(cfg);
                assert!(r.verified, "{path}");
                assert_eq!(r.run.shards.len(), partitions, "{path}: one load per shard");
                r
            };
            let single = run(1, 1);
            for workers in [1, 2] {
                let split = run(2, workers);
                let name = format!("{path}, 2 partitions, {workers} workers");
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
                assert_eq!(single.bh_util, split.bh_util, "{name}: BH utilization");
            }
        }
    }
}
