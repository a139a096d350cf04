//! The metrics registry against the simulator's own bookkeeping, on
//! whole runs: per-queue family members must sum to their aggregate
//! instrument, and every registry total must equal the figure the
//! component it meters keeps for itself. The result goldens read only
//! six busy integrals and one counter, so a wrong family offset or two
//! swapped instrument ids would pass them; these sums would not.

use openmx_repro::hw::CoreId;
use openmx_repro::omx::app::{App, AppCtx, Completion};
use openmx_repro::omx::cluster::{Cluster, ClusterParams};
use openmx_repro::omx::config::OmxConfig;
use openmx_repro::omx::fault::FaultPlan;
use openmx_repro::omx::{run_partitioned, EpAddr, EpIdx, NodeId};
use openmx_repro::sim::instruments as ins;
use openmx_repro::sim::Ps;

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
/// `endpoints` receiving endpoints on node 0; checks run on the drained
/// cluster.
fn run_fan_in(params: ClusterParams, endpoints: u32, size: u64, count: u32, check: fn(&Cluster)) {
    let senders = params.nodes as u32 - 1;
    let install = |c: &mut Cluster, _: usize| {
        for e in 0..endpoints {
            let flows = (0..senders).filter(|s| s % endpoints == e).count() as u32;
            let rx = Box::new(Receiver {
                size,
                left: flows * count,
            });
            c.add_endpoint(NodeId(0), CoreId(1 + 2 * e), rx);
        }
        for s in 0..senders {
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
    run_partitioned(params, install, |_, _, c, ()| check(c));
}

/// Every registry total against the component's own figure.
fn assert_registry_consistent(c: &Cluster) {
    let m = &c.metrics;
    let queue_families = [
        (ins::NIC_FRAMES, ins::NIC_Q_FRAMES),
        (ins::NIC_IRQS, ins::NIC_Q_IRQS),
        (ins::NIC_IRQS_COALESCED, ins::NIC_Q_IRQS_COALESCED),
        (ins::NIC_RING_DROPS, ins::NIC_Q_RING_DROPS),
    ];
    let mut ring_drops = 0;
    for n in &c.nodes {
        let s = n.id.0;
        for (total, family) in queue_families {
            let per_queue: u64 = (0..family.width())
                .map(|q| m.counter(s, family.at(q)))
                .sum();
            assert_eq!(per_queue, m.counter(s, total), "node {s}: {total:?}");
        }
        ring_drops += m.counter(s, ins::NIC_RING_DROPS);
        assert_eq!(
            m.counter(s, ins::IOAT_BYTES),
            n.ioat.bytes_copied(),
            "node {s}"
        );
        let channels = (0..n.ioat.num_channels()).map(|ch| n.ioat.channel_busy_total(ch));
        let channel_busy = channels.fold(Ps::ZERO, |a, b| a + b);
        assert_eq!(m.busy_total(s, ins::IOAT_CHANNEL), channel_busy, "node {s}");
        assert_eq!(
            m.counter(s, ins::BH_ENQUEUED),
            m.counter(s, ins::BH_DRAINED),
            "node {s}: bottom halves left skbuffs behind"
        );
    }
    assert_eq!(ring_drops, c.stats_snapshot().frames_ring_dropped);
    assert_eq!(
        ring_drops,
        m.counter_all_scopes(ins::NIC_RING_DROPS),
        "all-scopes sum"
    );
    let wire = c.links.values().map(|l| l.wire_busy_total());
    let wire = wire.fold(Ps::ZERO, |a, b| a + b);
    assert!(wire > Ps::ZERO);
    assert_eq!(m.busy_total_all_scopes(ins::LINK_WIRE), wire);
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
        assert!(
            c.stats_snapshot().frames_ring_dropped > 0,
            "ring pressure must drop frames for the drop sums to mean anything"
        );
        let m = &c.metrics;
        let busy_queues = (0..4)
            .filter(|&q| m.counter(0, ins::NIC_Q_FRAMES.at(q)) > 0)
            .count();
        assert!(busy_queues > 1, "RSS must spread the flows");
        assert_registry_consistent(c);
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
        assert!(
            c.nodes[0].ioat.bytes_copied() > 0,
            "the stream must offload"
        );
        assert_registry_consistent(c);
    });
}
