//! Node-partitioned execution of one cluster simulation.
//!
//! The cluster world is split into `P` shards; shard `s` owns nodes
//! `i % P == s` and runs them on its own engine. The only interaction
//! between nodes in different shards is an Ethernet frame, and every
//! inter-node frame pays the full wire latency (sender NIC latency +
//! propagation + receiver NIC latency) before it can touch the
//! destination — that latency is the **lookahead** of the conservative
//! window protocol in [`omx_sim::partition`]. `Cluster::deliver_frame`
//! routes frames for foreign nodes into the partition outbox as
//! [`RemoteFrame`]s; the executor exchanges outboxes between windows
//! and injects them in one canonical order, so the result is
//! bit-identical for any partition count and any worker count.
//!
//! `partitions = 1` never enters this module's executor at all:
//! [`run_partitioned`] runs the classic build → install → start →
//! [`Sim::run`] sequence, byte-identical to the pre-partitioning
//! engine by construction.

use crate::cluster::{Cluster, ClusterParams};
use crate::NodeId;
use omx_ethernet::{EthFrame, LinkParams};
use omx_sim::{run_shards, Ps, Shard, ShardBuilder, Sim};
use std::cmp::Ordering;
use std::fmt;

/// Partition bookkeeping carried by every [`Cluster`]: which shard
/// this world is, and the outbox of frames bound for other shards.
#[derive(Debug)]
pub struct PartitionCtx {
    my: usize,
    parts: usize,
    /// Per-shard emission sequence: the tie-breaker that makes every
    /// [`RemoteFrame`] key unique and preserves this shard's own
    /// emission order among same-instant frames.
    emitted: u64,
    outbox: Vec<(usize, RemoteFrame)>,
}

impl PartitionCtx {
    pub(crate) fn new(my: usize, parts: usize) -> Self {
        debug_assert!(parts >= 1 && my < parts);
        PartitionCtx {
            my,
            parts,
            emitted: 0,
            outbox: Vec::new(),
        }
    }

    /// Whether this world owns `node`.
    pub(crate) fn owns(&self, node: NodeId) -> bool {
        self.parts == 1 || node.0 as usize % self.parts == self.my
    }

    /// Whether this world is one shard of a multi-shard run (and wire
    /// deliveries must therefore go through the exchange).
    pub(crate) fn partitioned(&self) -> bool {
        self.parts > 1
    }

    /// Queue a frame for the shard owning `frame.dst` — possibly this
    /// very shard: in a partitioned run *every* inter-node frame goes
    /// through the exchange, co-located pairs included, so the
    /// same-instant injection order is one canonical order and does
    /// not depend on which nodes happen to share a shard.
    pub(crate) fn push_remote(&mut self, sent_at: Ps, arrival: Ps, frame: EthFrame) {
        let dst_shard = frame.dst as usize % self.parts;
        let msg = RemoteFrame {
            arrival,
            sent_at,
            src_node: frame.src,
            emit_seq: self.emitted,
            frame,
        };
        self.emitted += 1;
        self.outbox.push((dst_shard, msg));
    }

    pub(crate) fn take_outbox(&mut self) -> Vec<(usize, RemoteFrame)> {
        std::mem::take(&mut self.outbox)
    }
}

/// One Ethernet frame crossing a partition boundary.
///
/// The ordering key `(arrival, sent_at, src_node, emit_seq)` fixes one
/// global injection order per exchange round: arrival time first (the
/// engine's order), then emission time and emitting node, then the
/// per-shard emission sequence. The key is unique — a shard owns its
/// source nodes exclusively and stamps `emit_seq` itself — so the
/// post-exchange sort is a total order independent of which worker
/// delivered which message first.
pub struct RemoteFrame {
    /// When the frame is fully received at the destination NIC.
    arrival: Ps,
    /// When the sending shard emitted it (`Sim::now` at the send).
    sent_at: Ps,
    /// The emitting node.
    src_node: u32,
    /// Emission sequence on the emitting shard.
    emit_seq: u64,
    /// The frame itself.
    frame: EthFrame,
}

impl RemoteFrame {
    fn key(&self) -> (Ps, Ps, u32, u64) {
        (self.arrival, self.sent_at, self.src_node, self.emit_seq)
    }
}

/// The key and the frame's destination and length: enough to name an
/// offending frame in a lookahead panic without dumping its payload.
impl fmt::Debug for RemoteFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RemoteFrame")
            .field("arrival", &self.arrival)
            .field("sent_at", &self.sent_at)
            .field("src_node", &self.src_node)
            .field("emit_seq", &self.emit_seq)
            .field("dst_node", &self.frame.dst)
            .field("payload_len", &self.frame.payload.len())
            .finish()
    }
}

impl PartialEq for RemoteFrame {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for RemoteFrame {}
impl PartialOrd for RemoteFrame {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for RemoteFrame {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

impl Shard for Cluster {
    type Msg = RemoteFrame;

    fn msg_at(msg: &RemoteFrame) -> Ps {
        msg.arrival
    }

    fn take_outbox(&mut self) -> Vec<(usize, RemoteFrame)> {
        self.part.take_outbox()
    }

    fn inject(&mut self, sim: &mut Sim<Cluster>, msg: RemoteFrame) {
        let dst = NodeId(msg.frame.dst);
        debug_assert!(self.owns(dst), "injected frame for unowned node");
        let frame = msg.frame;
        sim.schedule_at(msg.arrival, move |c: &mut Cluster, s| {
            c.on_frame(s, dst, frame);
        });
    }
}

/// The conservative-window lookahead for a cluster: the fixed latency
/// every inter-node frame pays on top of serialization — sending-NIC
/// latency, cable propagation, receiving-NIC latency. A frame emitted
/// at `t` arrives no earlier than `t + lookahead + serialization`,
/// strictly beyond `t + lookahead`, which is exactly the bound the
/// window protocol needs (see `omx_sim::partition`).
pub fn lookahead(link: &LinkParams) -> Ps {
    link.tx_latency + link.propagation + link.rx_latency
}

/// Run one cluster simulation, partitioned per `params.partitions`
/// and fanned across `params.partition_workers` threads.
///
/// `install(cluster, shard)` adds this shard's endpoints — it must add
/// endpoints **only for owned nodes** (`cluster.owns(node)`), in the
/// same per-node order as the unpartitioned run, and returns whatever
/// per-shard state the caller's apps share (result collectors etc.).
/// `finish` reduces each shard after the whole simulation drained; it
/// runs on the thread that ran the shard. Returns per-shard results in
/// shard order.
///
/// With `partitions <= 1` this is the classic engine, byte-identical
/// to the pre-partitioning code path: build, install, start, run to
/// completion, finish.
pub fn run_partitioned<S, R, I, F>(params: ClusterParams, install: I, finish: F) -> Vec<R>
where
    I: Fn(&mut Cluster, usize) -> S + Sync,
    F: Fn(usize, &mut Sim<Cluster>, &mut Cluster, S) -> R + Sync,
    R: Send,
{
    let parts = params.partitions.clamp(1, params.nodes.max(1));
    if parts <= 1 {
        let mut cluster = Cluster::new(params);
        let mut sim: Sim<Cluster> = Sim::with_wheel_levels(cluster.p.cfg.wheel_levels);
        let state = install(&mut cluster, 0);
        cluster.start(&mut sim);
        sim.run(&mut cluster);
        return vec![finish(0, &mut sim, &mut cluster, state)];
    }
    let la = lookahead(&params.link);
    let workers = params.partition_workers.max(1);
    let install = &install;
    let builders: Vec<ShardBuilder<'_, Cluster, S>> = (0..parts)
        .map(|my| {
            let params = params.clone();
            let b: ShardBuilder<'_, Cluster, S> = Box::new(move || {
                let mut cluster = Cluster::new_shard(params, my);
                let mut sim: Sim<Cluster> = Sim::with_wheel_levels(cluster.p.cfg.wheel_levels);
                let state = install(&mut cluster, my);
                cluster.start(&mut sim);
                (sim, cluster, state)
            });
            b
        })
        .collect();
    run_shards(builders, la, workers, finish)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookahead_is_the_fixed_wire_latency() {
        let l = LinkParams::default();
        assert_eq!(lookahead(&l), Ps::ns(900) + Ps::ns(300) + Ps::ns(900));
    }

    #[test]
    fn ownership_deals_nodes_round_robin() {
        let ctx = PartitionCtx::new(1, 4);
        assert!(ctx.owns(NodeId(1)));
        assert!(ctx.owns(NodeId(5)));
        assert!(!ctx.owns(NodeId(0)));
        assert!(ctx.partitioned());
        let whole = PartitionCtx::new(0, 1);
        assert!(whole.owns(NodeId(17)));
        assert!(!whole.partitioned());
    }

    #[test]
    fn remote_frames_sort_by_canonical_key() {
        let f = |arrival: u64, sent: u64, src: u32, seq: u64| RemoteFrame {
            arrival: Ps::ns(arrival),
            sent_at: Ps::ns(sent),
            src_node: src,
            emit_seq: seq,
            frame: EthFrame::new(src, 0, Default::default(), bytes::Bytes::from_static(b"x")),
        };
        let mut v = [f(5, 1, 2, 0), f(3, 2, 1, 4), f(3, 1, 3, 0), f(3, 1, 1, 1)];
        v.sort_unstable();
        let keys: Vec<_> = v.iter().map(|m| m.key()).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
        assert_eq!(v[0].src_node, 1, "earliest arrival, earliest sender first");
        assert_eq!(v.last().unwrap().arrival, Ps::ns(5));
    }
}
