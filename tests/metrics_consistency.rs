//! Whole fan-in runs at one and two partitions against the
//! simulator's own bookkeeping: the ring drops the NICs count must sum
//! to `Stats::frames_ring_dropped`, every bottom half must drain, and
//! RSS must spread a multi-queue incast. The checks run on each
//! drained shard, so a drop counted on the wrong shard or a backlog a
//! shard leaves behind fails here even when the merged results agree.

use openmx_repro::hw::CoreId;
use openmx_repro::omx::app::{App, AppCtx, Completion};
use openmx_repro::omx::cluster::{Cluster, ClusterParams};
use openmx_repro::omx::config::OmxConfig;
use openmx_repro::omx::fault::FaultPlan;
use openmx_repro::omx::{run_partitioned, EpAddr, EpIdx, NodeId};

const TAG: u64 = 0x6D65;

/// Sends `count` messages of `size` bytes to `peer`, one after another.
struct Sender {
    peer: EpAddr,
    size: u64,
    left: u32,
}

impl App for Sender {
    fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
        self.left -= 1;
        ctx.isend(self.peer, TAG, vec![7; self.size as usize], None);
    }

    fn on_completion(&mut self, ctx: &mut AppCtx<'_>, comp: Completion) {
        if matches!(comp, Completion::Send { .. }) && self.left > 0 {
            self.left -= 1;
            ctx.isend(self.peer, TAG, vec![7; self.size as usize], None);
        }
    }

    fn is_done(&self) -> bool {
        true
    }
}

/// Posts `count` receives of up to `size` bytes, two at a time.
struct Receiver {
    size: u64,
    left: u32,
}

impl Receiver {
    fn post(&mut self, ctx: &mut AppCtx<'_>) {
        if self.left > 0 {
            self.left -= 1;
            ctx.irecv(TAG, u64::MAX, self.size, None);
        }
    }
}

impl App for Receiver {
    fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
        self.post(ctx);
        self.post(ctx);
    }

    fn on_completion(&mut self, ctx: &mut AppCtx<'_>, comp: Completion) {
        if matches!(comp, Completion::Recv { .. }) {
            self.post(ctx);
        }
    }

    fn is_done(&self) -> bool {
        true
    }
}

/// `senders` nodes each send `count` messages of `size` bytes to one of
/// `endpoints` receiving endpoints on node 0, once whole and once
/// dealt over two partitions; checks run on each drained shard.
fn run_fan_in(params: ClusterParams, endpoints: u32, size: u64, count: u32, check: fn(&Cluster)) {
    let senders = params.nodes as u32 - 1;
    let install = |c: &mut Cluster, _: usize| {
        for e in 0..endpoints {
            if !c.owns(NodeId(0)) {
                break;
            }
            let flows = (0..senders).filter(|s| s % endpoints == e).count() as u32;
            let rx = Box::new(Receiver {
                size,
                left: flows * count,
            });
            c.add_endpoint(NodeId(0), CoreId(1 + 2 * e), rx);
        }
        for s in 0..senders {
            if !c.owns(NodeId(1 + s)) {
                continue;
            }
            let peer = EpAddr {
                node: NodeId(0),
                ep: EpIdx((s % endpoints) as u8),
            };
            let tx = Box::new(Sender {
                peer,
                size,
                left: count,
            });
            c.add_endpoint(NodeId(1 + s), CoreId(2), tx);
        }
    };
    for partitions in [1, 2] {
        let params = ClusterParams {
            partitions,
            ..params.clone()
        };
        run_partitioned(params, install, |_, _, c, ()| check(c));
    }
}

/// Every bottom half drained, and the NICs' ring drops match `Stats`.
fn assert_drained_and_counted(c: &Cluster) {
    for n in &c.nodes {
        for bh in &n.bh {
            assert_eq!(
                bh.backlog(),
                0,
                "node {}: a bottom half left skbuffs behind",
                n.id.0
            );
        }
    }
    let ring_drops: u64 = c.nodes.iter().map(|n| n.nic.frames_dropped()).sum();
    assert_eq!(ring_drops, c.stats_snapshot().frames_ring_dropped);
}

#[test]
fn multi_queue_credit_incast_under_ring_pressure_is_consistent() {
    let mut params = ClusterParams::with_cfg(OmxConfig {
        pull_credits: true,
        fault_plan: FaultPlan::ring_pressure(),
        seed: 17,
        ..OmxConfig::with_ioat()
    });
    params.nic.num_queues = 4;
    params.nodes = 1 + 16;
    run_fan_in(params, 4, 96 << 10, 3, |c| {
        if c.owns(NodeId(0)) {
            assert!(
                c.stats_snapshot().frames_ring_dropped > 0,
                "ring pressure must drop frames for the drop sums to mean anything"
            );
            let nic = &c.node(NodeId(0)).nic;
            let busy_queues = (0..4).filter(|&q| nic.ring_high_watermark(q) > 0).count();
            assert!(busy_queues > 1, "RSS must spread the flows");
        }
        assert_drained_and_counted(c);
    });
}

#[test]
fn ioat_stream_is_consistent() {
    let params = ClusterParams {
        nodes: 2,
        ..ClusterParams::with_cfg(OmxConfig {
            seed: 17,
            ..OmxConfig::with_ioat()
        })
    };
    run_fan_in(params, 1, 1 << 20, 6, |c| {
        if c.owns(NodeId(0)) {
            assert!(
                c.node(NodeId(0)).ioat.bytes_copied() > 0,
                "the stream must offload"
            );
        }
        assert_drained_and_counted(c);
    });
}
