//! The simulated cluster: hosts, NICs, links, CPU cores, caches, the
//! I/OAT engine, the Open-MX (or MXoE) stack and the applications.
//!
//! This is the world type of the discrete-event simulation. All
//! scheduling happens here and in the `driver::*` / `libproc` /
//! `mx_stack` modules, which add further `impl Cluster` blocks. The
//! substrate crates stay pure; the cluster interprets their costs.

use crate::app::{App, AppCtx, Completion};
use crate::config::{MsgClass, OmxConfig, StackKind};
use crate::driver::Driver;
use crate::endpoint::{Endpoint, RecvBuf, RecvState, SendState};
use crate::events::Event;
use crate::mx_stack::MxNodeState;
use crate::proto::Packet;
use crate::{EpAddr, EpIdx, NodeId, ReqId};
use omx_ethernet::fault::LinkFaultState;
use omx_ethernet::nic::{RxOutcome, RxWake};
use omx_ethernet::{BottomHalfQueue, EthFrame, Link, LinkParams, Nic, NicParams};
use omx_hw::cpu::category;
use omx_hw::ioat::ChannelProbe;
use omx_hw::{CacheModel, CoreId, CpuSet, HwParams, IoatEngine, Topology};
use omx_mx::MxParams;
use omx_sim::instruments as ins;
use omx_sim::{Metrics, Ps, Sim, SplitMix64};
use serde::Serialize;
use std::collections::BTreeMap;

/// Everything needed to build a cluster.
#[derive(Debug, Clone)]
pub struct ClusterParams {
    /// Hardware calibration constants (per host).
    pub hw: HwParams,
    /// Open-MX stack configuration.
    pub cfg: OmxConfig,
    /// MX baseline costs (used when `cfg.stack == Mxoe`).
    pub mx: MxParams,
    /// Link timing.
    pub link: LinkParams,
    /// NIC template (ring size, IRQ core).
    pub nic: NicParams,
    /// Host CPU topology.
    pub topology: Topology,
    /// Number of hosts.
    pub nodes: usize,
    /// Partitions the simulation is split into (node `i` belongs to
    /// partition `i % partitions`). `1` = the classic single-engine
    /// run; the partitioned executor produces byte-identical output
    /// for every value (see `crate::partition`).
    pub partitions: usize,
    /// Worker threads the partitioned executor may fan shards across.
    /// Purely a wall-clock knob: results are identical for any value.
    pub partition_workers: usize,
}

impl Default for ClusterParams {
    fn default() -> Self {
        ClusterParams {
            hw: HwParams::default(),
            cfg: OmxConfig::default(),
            mx: MxParams::default(),
            link: LinkParams::default(),
            nic: NicParams::default(),
            topology: Topology::default(),
            nodes: 2,
            partitions: 1,
            partition_workers: 1,
        }
    }
}

impl Stats {
    /// Fold another shard's statistics into this one: every event
    /// counter is summed, the per-endpoint counters merge, and the
    /// watermark rows add element-wise. Each simulated event happens
    /// on exactly one shard (non-owning shards count zero), so the
    /// sum over all shards equals what one unpartitioned engine would
    /// have counted.
    pub fn absorb(&mut self, o: &Stats) {
        self.frames_sent += o.frames_sent;
        self.frames_lost += o.frames_lost;
        self.frames_ring_dropped += o.frames_ring_dropped;
        self.frames_corrupt_dropped += o.frames_corrupt_dropped;
        self.frames_duplicated += o.frames_duplicated;
        self.frames_reordered += o.frames_reordered;
        self.retransmissions += o.retransmissions;
        self.pull_retransmissions += o.pull_retransmissions;
        self.acks_sent += o.acks_sent;
        self.duplicates_dropped += o.duplicates_dropped;
        self.messages_delivered += o.messages_delivered;
        self.bytes_delivered += o.bytes_delivered;
        self.sends_failed += o.sends_failed;
        self.ioat_fallback_copies += o.ioat_fallback_copies;
        self.ioat_quarantines += o.ioat_quarantines;
        self.ioat_reprobes += o.ioat_reprobes;
        self.backoff_escalations += o.backoff_escalations;
        self.frames_ring_dropped_injected += o.frames_ring_dropped_injected;
        self.credit_nacks += o.credit_nacks;
        self.credit_shrinks += o.credit_shrinks;
        self.credit_regrows += o.credit_regrows;
        self.credit_stalls += o.credit_stalls;
        for (row, orow) in self
            .ring_high_watermarks
            .iter_mut()
            .zip(&o.ring_high_watermarks)
        {
            for (w, ow) in row.iter_mut().zip(orow) {
                *w += ow;
            }
        }
        if self.ring_high_watermarks.is_empty() && !o.ring_high_watermarks.is_empty() {
            self.ring_high_watermarks = o.ring_high_watermarks.clone();
        }
        self.counters.merge(&o.counters);
    }
}

/// One host.
#[derive(Debug)]
pub struct Node {
    /// Host id.
    pub id: NodeId,
    /// CPU cores with busy accounting.
    pub cpus: CpuSet,
    /// Per-subchip cache occupancy.
    pub cache: CacheModel,
    /// The I/OAT DMA engine.
    pub ioat: IoatEngine,
    /// The Ethernet NIC (receive side).
    pub nic: Nic,
    /// Per-core bottom-half queues.
    pub bh: Vec<BottomHalfQueue>,
    /// Kernel driver state.
    pub driver: Driver,
    /// Endpoints (one per process).
    pub endpoints: Vec<Endpoint>,
    /// MXoE-mode NIC firmware state.
    pub mx: MxNodeState,
    /// Copy-duration predictor for the sleep-until-completion
    /// extension.
    pub predictor: crate::predict::CopyPredictor,
    /// This node's retransmit-backoff jitter stream, derived from the
    /// run seed and the node id alone — so concurrent retransmit
    /// timers desynchronize deterministically under any partitioning.
    pub(crate) backoff_rng: SplitMix64,
}

impl Node {
    /// The bottom-half queue of `core` — the single bounds-checked
    /// gateway to `self.bh`: core ids come from the NIC's queue→core
    /// binding, which is built against this node's topology.
    pub fn bh_mut(&mut self, core: CoreId) -> &mut BottomHalfQueue {
        // omx-lint: allow(fast-path-panic) core ids come from the NIC queue→core binding built for this topology; exercised at every RSS width [test: tests/incast_soak.rs::incast_with_credits_survives_every_plan]
        &mut self.bh[core.0 as usize]
    }
}

/// Aggregate counters over one run.
///
/// `Serialize` is hand-written (below) rather than derived: the
/// congestion-control fields appear in the JSON only when the feature
/// actually fired, so a credits-off run serializes byte-identically to
/// the committed result files that predate them.
#[derive(Debug, Default, Clone)]
pub struct Stats {
    /// Frames handed to links.
    pub frames_sent: u64,
    /// Frames dropped by loss injection.
    pub frames_lost: u64,
    /// Frames dropped by RX-ring overflow.
    pub frames_ring_dropped: u64,
    /// Frames discarded by the NIC's hardware FCS check (corruption
    /// injection) — counted apart from ring drops so wire damage and
    /// host overload are distinguishable.
    pub frames_corrupt_dropped: u64,
    /// Frames delivered twice by duplication injection.
    pub frames_duplicated: u64,
    /// Frames held back (reordered) by reordering injection.
    pub frames_reordered: u64,
    /// Eager message retransmissions.
    pub retransmissions: u64,
    /// Pull-request retransmissions.
    pub pull_retransmissions: u64,
    /// Acks sent.
    pub acks_sent: u64,
    /// Duplicate frames suppressed.
    pub duplicates_dropped: u64,
    /// Messages fully delivered to applications.
    pub messages_delivered: u64,
    /// Payload bytes delivered to applications.
    pub bytes_delivered: u64,
    /// Sends aborted after exhausting their retransmission attempts.
    pub sends_failed: u64,
    /// Offloaded copies rescued onto the CPU after a stuck channel was
    /// detected, plus offloads steered to memcpy because the chosen
    /// channel was quarantined.
    pub ioat_fallback_copies: u64,
    /// I/OAT channels newly blacklisted after a completion-poll
    /// deadline fired.
    pub ioat_quarantines: u64,
    /// Quarantined channels given another chance after their cool-down
    /// expired.
    pub ioat_reprobes: u64,
    /// Retransmission-timeout escalations (exponential backoff steps).
    pub backoff_escalations: u64,
    /// Of [`Stats::frames_ring_dropped`], those that happened on a
    /// node whose fault plan shrank the RX ring (the `ring-pressure`
    /// hazard). Drops on nodes with an unmodified ring are genuine
    /// receiver overload — the signal the incast suite is after —
    /// while this count is the injected hazard; sharing one counter
    /// made the two indistinguishable in results.
    pub frames_ring_dropped_injected: u64,
    /// Credit-revoke NACKs sent by overloaded receivers
    /// (`cfg.pull_credits` only; see `driver/pull.rs`).
    pub credit_nacks: u64,
    /// Multiplicative budget decreases taken by the credit controller.
    pub credit_shrinks: u64,
    /// Additive budget regrowth steps taken by the credit controller.
    pub credit_regrows: u64,
    /// Times a pull had to wait in the grant queue because the shared
    /// credit budget was exhausted.
    pub credit_stalls: u64,
    /// Per-node, per-queue RX-ring high watermarks (the credit
    /// controller's input signal), filled in by
    /// [`Cluster::stats_snapshot`] when the run used multiple RX
    /// queues or credits — empty otherwise.
    pub ring_high_watermarks: Vec<Vec<u64>>,
    /// Aggregated per-endpoint protocol counters (the `omx_counters`
    /// equivalent), summed over every endpoint of the cluster by
    /// [`Cluster::stats_snapshot`]; zero-valued on the live `stats`
    /// field, which only tracks the cluster-global events above.
    pub counters: crate::counters::Counters,
}

impl Serialize for Stats {
    fn to_value(&self) -> serde::Value {
        let mut o: Vec<(String, serde::Value)> = Vec::new();
        // The first 17 fields and the trailing `counters` reproduce
        // the old derive's output exactly (declaration order,
        // unconditional); everything between is emitted only when
        // nonzero/non-empty so pre-existing goldens stay byte-stable.
        let mut put = |name: &str, v: serde::Value| o.push((name.to_string(), v));
        put("frames_sent", self.frames_sent.to_value());
        put("frames_lost", self.frames_lost.to_value());
        put("frames_ring_dropped", self.frames_ring_dropped.to_value());
        put(
            "frames_corrupt_dropped",
            self.frames_corrupt_dropped.to_value(),
        );
        put("frames_duplicated", self.frames_duplicated.to_value());
        put("frames_reordered", self.frames_reordered.to_value());
        put("retransmissions", self.retransmissions.to_value());
        put("pull_retransmissions", self.pull_retransmissions.to_value());
        put("acks_sent", self.acks_sent.to_value());
        put("duplicates_dropped", self.duplicates_dropped.to_value());
        put("messages_delivered", self.messages_delivered.to_value());
        put("bytes_delivered", self.bytes_delivered.to_value());
        put("sends_failed", self.sends_failed.to_value());
        put("ioat_fallback_copies", self.ioat_fallback_copies.to_value());
        put("ioat_quarantines", self.ioat_quarantines.to_value());
        put("ioat_reprobes", self.ioat_reprobes.to_value());
        put("backoff_escalations", self.backoff_escalations.to_value());
        if self.frames_ring_dropped_injected > 0 {
            put(
                "frames_ring_dropped_injected",
                self.frames_ring_dropped_injected.to_value(),
            );
        }
        if self.credit_nacks > 0 {
            put("credit_nacks", self.credit_nacks.to_value());
        }
        if self.credit_shrinks > 0 {
            put("credit_shrinks", self.credit_shrinks.to_value());
        }
        if self.credit_regrows > 0 {
            put("credit_regrows", self.credit_regrows.to_value());
        }
        if self.credit_stalls > 0 {
            put("credit_stalls", self.credit_stalls.to_value());
        }
        if !self.ring_high_watermarks.is_empty() {
            put("ring_high_watermarks", self.ring_high_watermarks.to_value());
        }
        put("counters", self.counters.to_value());
        serde::Value::Object(o)
    }
}

/// The simulation world.
pub struct Cluster {
    /// Construction parameters.
    pub p: ClusterParams,
    /// Hosts.
    pub nodes: Vec<Node>,
    /// Unidirectional links, addressed by (src, dst).
    pub links: LinkTable,
    /// Applications (taken out while their callback runs).
    pub apps: Vec<Option<Box<dyn App>>>,
    /// Counters.
    pub stats: Stats,
    /// Shared metrics registry (disabled when `cfg.metrics` is off).
    /// Every link, NIC, BH queue and I/OAT engine reports into it;
    /// recording never charges simulated time.
    pub metrics: Metrics,
    /// Root of every derived fault/jitter stream, seeded from
    /// `cfg.seed`. Streams derive from it by a pure per-link or
    /// per-node tag, so fault patterns are identical under any
    /// partitioning and any worker count.
    fault_root: SplitMix64,
    /// Whether any directed link can inject wire hazards; `false`
    /// short-circuits the per-frame fault lookup to a constant (a
    /// clean run draws zero fault randomness).
    link_faults_possible: bool,
    /// Per-link fault channels, created on the link's first frame.
    /// `None` caches "known inert" so the plan lookup runs once per
    /// link; fault-free links never touch the RNG.
    link_faults: BTreeMap<(u32, u32), Option<LinkFaultState>>,
    /// Partition bookkeeping: which nodes this world owns and the
    /// outbox of frames bound for other shards. The whole-world
    /// cluster (`parts == 1`) owns everything and never uses the
    /// outbox.
    pub(crate) part: crate::partition::PartitionCtx,
}

/// The unidirectional links one world transmits on, found by
/// (src, dst) node pair without a search.
///
/// Links are created on first use, so a large cluster only pays for
/// the pairs that talk, and a shard only for links its own nodes
/// transmit on. An index of one `u32` per (owned source, destination)
/// pair holds 1 + the link's position in creation order, or 0 while
/// the link does not exist; it is sized on the first frame, not when
/// the world is built, so building and idle worlds stay cheap. The
/// diagonal `src == dst` link models the NIC's internal DMA loopback,
/// which is how native MXoE moves intra-node traffic.
pub struct LinkTable {
    /// `index[(src / parts) * nodes + dst]`; empty until the first
    /// link is created.
    index: Vec<u32>,
    /// Links in creation order.
    links: Vec<Link>,
    /// Nodes of the whole cluster (the index's row length).
    nodes: usize,
    /// This world's shard and the shard count: source `src` is owned
    /// when `src % parts == my`, and owns index row `src / parts`.
    my: usize,
    parts: usize,
}

impl LinkTable {
    /// An empty table for shard `my` of `parts` of a `nodes`-node
    /// cluster; allocates nothing.
    fn new(nodes: usize, my: usize, parts: usize) -> Self {
        LinkTable {
            index: Vec::new(),
            links: Vec::new(),
            nodes,
            my,
            parts,
        }
    }

    /// Index position of the pair, if this world owns `src`.
    fn slot(&self, src: NodeId, dst: NodeId) -> Option<usize> {
        let (src, dst) = (src.0 as usize, dst.0 as usize);
        (src % self.parts == self.my && dst < self.nodes)
            .then(|| (src / self.parts) * self.nodes + dst)
    }

    /// The link `src → dst`, built by `make` if it does not exist yet.
    ///
    /// # Panics
    ///
    /// If this world does not own `src`, or `dst` is not a node.
    pub fn get_or_insert_with(
        &mut self,
        src: NodeId,
        dst: NodeId,
        make: impl FnOnce() -> Link,
    ) -> &mut Link {
        let Some(slot) = self.slot(src, dst) else {
            panic!("no link {src:?} -> {dst:?} in this world");
        };
        if self.index.is_empty() {
            let rows = self.nodes.div_ceil(self.parts);
            self.index.resize(rows * self.nodes, 0);
        }
        let entry = &mut self.index[slot];
        if *entry == 0 {
            self.links.push(make());
            *entry = self.links.len() as u32;
        }
        &mut self.links[*entry as usize - 1]
    }

    /// Whether the link `src → dst` exists.
    pub fn contains(&self, src: NodeId, dst: NodeId) -> bool {
        self.slot(src, dst)
            .and_then(|s| self.index.get(s))
            .is_some_and(|&e| e != 0)
    }

    /// Every link, in creation order.
    pub fn values(&self) -> impl Iterator<Item = &Link> {
        self.links.iter()
    }

    /// Whether no link exists.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Heap bytes of the (src, dst) index: 0 until the first link.
    #[cfg(test)]
    fn index_bytes(&self) -> usize {
        self.index.capacity() * std::mem::size_of::<u32>()
    }
}

impl ClusterParams {
    /// Default testbed parameters with a specific stack configuration.
    pub fn with_cfg(cfg: OmxConfig) -> Self {
        ClusterParams {
            cfg,
            ..ClusterParams::default()
        }
    }
}

impl Cluster {
    /// Build an idle cluster that owns every node (the classic
    /// single-engine world; `p.partitions` is ignored here — the
    /// partitioned executor builds its shards with
    /// [`Cluster::new_shard`]). Links are created lazily on first use.
    pub fn new(p: ClusterParams) -> Self {
        Cluster::build_world(p, 0, 1)
    }

    /// Build shard `my` of a `p.partitions`-way partitioned cluster:
    /// the same world, but only nodes with `node % partitions == my`
    /// are owned — frames for other nodes leave through the partition
    /// outbox instead of being scheduled locally.
    pub fn new_shard(p: ClusterParams, my: usize) -> Self {
        let parts = p.partitions.clamp(1, p.nodes.max(1));
        assert!(my < parts, "shard {my} of {parts} partitions");
        Cluster::build_world(p, my, parts)
    }

    fn build_world(p: ClusterParams, my: usize, parts: usize) -> Self {
        // One dense slot per (node, instrument), allocated here once.
        let metrics = if !p.cfg.metrics {
            Metrics::disabled()
        } else if p.cfg.trace_capacity > 0 {
            Metrics::with_trace(p.nodes, p.cfg.trace_capacity)
        } else {
            Metrics::new(p.nodes)
        };
        // The one place the user-supplied seed enters the simulation;
        // every other stream derives from this root by a pure tag.
        // omx-lint: allow(ad-hoc-rng) root seeding point for the run; every derived stream is pinned by the bit-determinism suite [test: tests/determinism.rs::pingpong_is_bit_deterministic_under_every_plan]
        let fault_root = SplitMix64::new(p.cfg.seed);
        let nodes = (0..p.nodes as u32)
            .map(|i| {
                let node_faults = p.cfg.fault_plan.node_params(i);
                let mut ioat = IoatEngine::new(&p.hw);
                ioat.attach_metrics(metrics.clone(), i);
                let mut nic_params = p.nic;
                if let Some(nf) = node_faults {
                    for f in &nf.ioat_faults {
                        ioat.inject_channel_stall(f.channel, f.at, f.duration);
                    }
                    if let Some(ring) = nf.rx_ring_size {
                        nic_params.rx_ring_size = ring;
                    }
                }
                let mut nic = Nic::new(nic_params);
                nic.attach_metrics(metrics.clone(), i);
                nic.bind_queue_cores(&omx_ethernet::spread_queue_cores(&nic_params, &p.topology));
                let bh = (0..p.topology.num_cores())
                    .map(|_| {
                        let mut q = BottomHalfQueue::new();
                        q.attach_metrics(metrics.clone(), i);
                        q
                    })
                    .collect();
                Node {
                    id: NodeId(i),
                    cpus: CpuSet::new(p.topology),
                    cache: CacheModel::new(),
                    ioat,
                    nic,
                    bh,
                    driver: Driver::new(),
                    endpoints: Vec::new(),
                    mx: MxNodeState::default(),
                    predictor: crate::predict::CopyPredictor::new(),
                    backoff_rng: fault_root.derive(0x8000_0000_0000_0000 | u64::from(i)),
                }
            })
            .collect();
        // Whether any link can ever inject: the declarative plan or
        // the uniform loss_one_in knob (folded into the per-link
        // channels as a degenerate Gilbert–Elliott state). The
        // channels themselves are created lazily on a link's first
        // frame — see `link_fault_next`.
        let link_faults_possible =
            p.cfg.fault_plan.has_link_faults() || matches!(p.cfg.loss_one_in, Some(n) if n > 0);
        let mut nodes: Vec<Node> = nodes;
        if p.cfg.pull_credits {
            // Seed every node's shared pull-block budget; with credits
            // off the state stays zeroed and untouched.
            for n in &mut nodes {
                n.driver.credits.budget = p.cfg.credit_budget_init.max(1);
            }
        }
        Cluster {
            links: LinkTable::new(p.nodes, my, parts),
            p,
            nodes,
            apps: Vec::new(),
            stats: Stats::default(),
            metrics,
            fault_root,
            link_faults_possible,
            link_faults: BTreeMap::new(),
            part: crate::partition::PartitionCtx::new(my, parts),
        }
    }

    /// Whether this world owns `node` (always true for a whole-world
    /// cluster; a shard owns `node % partitions == my`).
    pub fn owns(&self, node: NodeId) -> bool {
        self.part.owns(node)
    }

    /// Add an endpoint on `node`, pinned to `core`, driven by `app`.
    /// On a shard, only owned nodes may host endpoints.
    pub fn add_endpoint(&mut self, node: NodeId, core: CoreId, app: Box<dyn App>) -> EpAddr {
        debug_assert!(self.owns(node), "endpoint on unowned node {node:?}");
        let app_id = self.apps.len();
        self.apps.push(Some(app));
        let n = &mut self.nodes[node.0 as usize];
        let ep_idx = EpIdx(n.endpoints.len() as u8);
        let addr = EpAddr { node, ep: ep_idx };
        let slot_bytes = self.p.cfg.frag_size.max(self.p.cfg.small_max) as usize;
        n.endpoints.push(Endpoint::new(
            addr,
            core,
            app_id,
            self.p.cfg.recvq_slots,
            slot_bytes,
            self.p.cfg.regcache,
        ));
        addr
    }

    /// Schedule every app's `on_start` at time zero.
    pub fn start(&mut self, sim: &mut Sim<Cluster>) {
        let eps: Vec<EpAddr> = self
            .nodes
            .iter()
            .flat_map(|n| n.endpoints.iter().map(|e| e.addr))
            .collect();
        for addr in eps {
            sim.schedule_at(Ps::ZERO, move |c: &mut Cluster, s| {
                let app_id = c.ep(addr).app;
                let mut app = c.apps[app_id].take().expect("app in place");
                {
                    let mut ctx = AppCtx {
                        cluster: c,
                        sim: s,
                        me: addr,
                    };
                    app.on_start(&mut ctx);
                }
                c.apps[app_id] = Some(app);
            });
        }
    }

    /// Whether every app reports done.
    pub fn all_apps_done(&self) -> bool {
        self.apps
            .iter()
            .all(|a| a.as_ref().map(|a| a.is_done()).unwrap_or(false))
    }

    /// The run's statistics with every endpoint's protocol counters
    /// aggregated into [`Stats::counters`] and published to the
    /// metrics registry (per node, as `counters.<field>` gauges).
    ///
    /// Harnesses call this instead of cloning `stats` so results and
    /// serialized reports always carry the full counter set.
    pub fn stats_snapshot(&self) -> Stats {
        let mut stats = self.stats.clone();
        for (scope, n) in self.nodes.iter().enumerate() {
            let mut node_total = crate::counters::Counters::default();
            for e in &n.endpoints {
                node_total.merge(&e.counters);
            }
            node_total.publish(&self.metrics, scope as u32);
            stats.counters.merge(&node_total);
        }
        // Surface the per-queue ring high watermarks (the credit
        // controller's occupancy input) whenever the run exercised the
        // multi-queue path or the controller itself; kept empty
        // otherwise so single-queue, credits-off results serialize
        // exactly as before.
        if self.p.nic.num_queues > 1 || self.p.cfg.pull_credits {
            stats.ring_high_watermarks = self
                .nodes
                .iter()
                .map(|n| {
                    (0..n.nic.num_queues())
                        .map(|q| n.nic.ring_high_watermark(q) as u64)
                        .collect()
                })
                .collect();
        }
        stats
    }

    // ------------------------------------------------------------------
    // accessors
    // ------------------------------------------------------------------

    /// Shared access to a node.
    pub fn node(&self, id: NodeId) -> &Node {
        // omx-lint: allow(fast-path-panic) NodeIds are minted by Cluster::new from this very vec; an out-of-range id is a construction bug the whole suite would catch [test: tests/determinism.rs::pingpong_is_bit_deterministic_under_every_plan]
        &self.nodes[id.0 as usize]
    }

    /// Mutable access to a node.
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        // omx-lint: allow(fast-path-panic) NodeIds are minted by Cluster::new from this very vec; an out-of-range id is a construction bug the whole suite would catch [test: tests/determinism.rs::pingpong_is_bit_deterministic_under_every_plan]
        &mut self.nodes[id.0 as usize]
    }

    /// Shared access to an endpoint.
    pub fn ep(&self, a: EpAddr) -> &Endpoint {
        &self.nodes[a.node.0 as usize].endpoints[a.ep.0 as usize]
    }

    /// Mutable access to an endpoint.
    pub fn ep_mut(&mut self, a: EpAddr) -> &mut Endpoint {
        &mut self.nodes[a.node.0 as usize].endpoints[a.ep.0 as usize]
    }

    /// Allocate a request id for endpoint `me`: the endpoint's address
    /// in the high bits, a per-endpoint counter below. Ids are unique
    /// across the cluster yet depend only on the endpoint's own
    /// activity, so they are identical under any partitioning. The
    /// counter is handed out in order, and the endpoint's request
    /// tables ([`crate::endpoint::ReqTable`]) address requests by it.
    pub(crate) fn alloc_req(&mut self, me: EpAddr) -> ReqId {
        let ep = self.ep_mut(me);
        let r = ReqId((u64::from(me.node.0) << 40) | (u64::from(me.ep.0) << 32) | ep.next_req);
        ep.next_req += 1;
        r
    }

    /// One exponential-backoff step of a retransmission timeout:
    /// double it, add deterministic jitter (up to a quarter of the old
    /// value, drawn from the node's own backoff stream so concurrent
    /// retransmit timers desynchronize without coupling nodes — or
    /// shards — through a shared generator), cap at `cfg.rto_max`,
    /// and count the escalation.
    pub(crate) fn escalate_rto(&mut self, node: NodeId, rto: Ps) -> Ps {
        let jitter = Ps::ps(
            self.nodes[node.0 as usize]
                .backoff_rng
                .next_below(rto.as_ps() / 4 + 1),
        );
        let next = (rto * 2 + jitter).min(self.p.cfg.rto_max);
        self.stats.backoff_escalations += 1;
        self.metrics
            .count(node.0, ins::DRIVER_BACKOFF_ESCALATIONS, 1);
        next
    }

    /// Probe an I/OAT channel's health on `node`, counting quarantine
    /// releases into the run stats. `true` = usable.
    pub(crate) fn ioat_channel_usable(&mut self, node: NodeId, channel: usize, now: Ps) -> bool {
        match self.nodes[node.0 as usize].ioat.probe_channel(channel, now) {
            ChannelProbe::Healthy => true,
            ChannelProbe::Reprobed => {
                self.stats.ioat_reprobes += 1;
                true
            }
            ChannelProbe::Quarantined => false,
        }
    }

    /// Round-robin pick skipping quarantined channels. When every
    /// channel is quarantined the plain round-robin pick is returned —
    /// callers still gate each submit on [`Self::ioat_channel_usable`],
    /// so an all-dead engine degrades to pure memcpy.
    pub(crate) fn pick_healthy_channel(&mut self, node: NodeId, now: Ps) -> usize {
        let n = self.nodes[node.0 as usize].ioat.num_channels();
        for _ in 0..n {
            let ch = self.nodes[node.0 as usize].ioat.pick_channel_rr();
            if self.ioat_channel_usable(node, ch, now) {
                return ch;
            }
        }
        self.nodes[node.0 as usize].ioat.pick_channel_rr()
    }

    /// Blacklist `channel` on `node` until `until`, counting the event
    /// if the channel was not already quarantined.
    pub(crate) fn quarantine_channel(&mut self, node: NodeId, channel: usize, until: Ps) {
        if self.nodes[node.0 as usize].ioat.quarantine(channel, until) {
            self.stats.ioat_quarantines += 1;
        }
    }

    /// Count one offload-to-memcpy fallback of `bytes` bytes.
    pub(crate) fn record_ioat_fallback(&mut self, node: NodeId, at: Ps, bytes: u64) {
        self.stats.ioat_fallback_copies += 1;
        self.metrics.count(node.0, ins::IOAT_FALLBACK_COPIES, 1);
        self.metrics.count(node.0, ins::IOAT_FALLBACK_BYTES, bytes);
        self.metrics
            .trace(at, node.0, "ioat", "memcpy_fallback", bytes, 0);
    }

    /// Charge `work` on a node core; returns `(start, finish)`.
    pub(crate) fn run_core(
        &mut self,
        node: NodeId,
        core: CoreId,
        now: Ps,
        work: Ps,
        cat: &'static str,
    ) -> (Ps, Ps) {
        self.nodes[node.0 as usize]
            .cpus
            .run_on(core, now, work, cat)
    }

    // ------------------------------------------------------------------
    // application entry points (called from AppCtx)
    // ------------------------------------------------------------------

    /// Post a non-blocking send.
    pub fn post_isend(
        &mut self,
        sim: &mut Sim<Cluster>,
        me: EpAddr,
        dest: EpAddr,
        match_info: u64,
        data: Vec<u8>,
        tag: Option<u64>,
    ) -> ReqId {
        self.post_isend_bytes(sim, me, dest, match_info, bytes::Bytes::from(data), tag)
    }

    /// Post a non-blocking send of an already-shared payload.
    ///
    /// Same as [`Self::post_isend`] but the caller keeps ownership of
    /// the master [`bytes::Bytes`] handle: the stack only clones
    /// reference-counted views of it, so an app that sends the same
    /// buffer repeatedly (a benchmark loop, a broadcast) never touches
    /// the allocator per message. `Bytes::from(Vec)` inside
    /// `post_isend` defers its control-block allocation to the first
    /// clone — handing a pre-shared `Bytes` here avoids exactly that
    /// per-message promotion.
    pub fn post_isend_bytes(
        &mut self,
        sim: &mut Sim<Cluster>,
        me: EpAddr,
        dest: EpAddr,
        match_info: u64,
        data: bytes::Bytes,
        tag: Option<u64>,
    ) -> ReqId {
        let req = self.alloc_req(me);
        let len = data.len() as u64;
        let class = self.p.cfg.class_of(len);
        let core = self.ep(me).core;
        // The app produced (wrote) the data: its buffer becomes warm in
        // the app core's subchip cache and coherence invalidates stale
        // copies elsewhere (drives the Fig 10 placement effects).
        if let Some(t) = tag {
            let subchip = self.p.topology.subchip_of(core);
            let hw = self.p.hw.clone();
            self.node_mut(me.node).cache.touch_exclusive(
                &hw,
                subchip,
                omx_hw::cache::RegionKey(t),
                len,
            );
        }
        let msg_seq = self.ep_mut(me).next_seq(dest);
        let base_rto = self.p.cfg.retransmit_timeout;
        self.ep_mut(me).sends.insert(
            req,
            SendState {
                req,
                dest,
                match_info,
                msg_seq,
                class,
                data,
                tag,
                acked: false,
                completed: false,
                sender_handle: None,
                region: None,
                retx_attempts: 0,
                last_activity: sim.now(),
                rto: base_rto,
            },
        );
        match self.p.cfg.stack {
            StackKind::OpenMx => {
                // Library post + command syscall into the driver.
                let (_, fin) = self.run_core(
                    me.node,
                    core,
                    sim.now(),
                    self.p.cfg.lib_post_cost,
                    category::USER_LIB,
                );
                let syscall = self.p.hw.syscall_cost + self.p.cfg.driver_cmd_cost;
                let (_, fin) = self.run_core(me.node, core, fin, syscall, category::DRIVER);
                if dest.node == me.node {
                    sim.schedule_at(fin, move |c: &mut Cluster, s| c.shm_send(s, me, req));
                } else {
                    sim.schedule_at(fin, move |c: &mut Cluster, s| c.net_send(s, me, req));
                }
            }
            StackKind::Mxoe => {
                // OS-bypass: the library rings the NIC doorbell, no
                // syscall.
                let (_, fin) = self.run_core(
                    me.node,
                    core,
                    sim.now(),
                    self.p.mx.lib_post_cost,
                    category::USER_LIB,
                );
                sim.schedule_at(fin, move |c: &mut Cluster, s| c.mx_send(s, me, req));
            }
        }
        req
    }

    /// Post a non-blocking receive into a contiguous buffer.
    pub fn post_irecv(
        &mut self,
        sim: &mut Sim<Cluster>,
        me: EpAddr,
        match_info: u64,
        mask: u64,
        max_len: u64,
        tag: Option<u64>,
    ) -> ReqId {
        self.post_irecv_vectored(sim, me, match_info, mask, max_len, None, tag)
    }

    /// Post a non-blocking receive that reuses a caller-donated buffer.
    ///
    /// The completion for this request hands the same `Vec` back as
    /// `Completion::Recv { data, .. }`, so an app that re-donates each
    /// delivered buffer to its next post recycles one allocation for
    /// the whole conversation instead of allocating `max_len` bytes per
    /// receive. The buffer's old contents are never read or exposed.
    #[allow(clippy::too_many_arguments)]
    pub fn post_irecv_into(
        &mut self,
        sim: &mut Sim<Cluster>,
        me: EpAddr,
        match_info: u64,
        mask: u64,
        max_len: u64,
        buf: Vec<u8>,
        tag: Option<u64>,
    ) -> ReqId {
        self.post_irecv_buf(sim, me, match_info, mask, max_len, None, buf, tag)
    }

    /// Post a non-blocking receive into a scattered buffer of
    /// `seg_size`-byte segments (None = contiguous).
    #[allow(clippy::too_many_arguments)]
    pub fn post_irecv_vectored(
        &mut self,
        sim: &mut Sim<Cluster>,
        me: EpAddr,
        match_info: u64,
        mask: u64,
        max_len: u64,
        seg_size: Option<u64>,
        tag: Option<u64>,
    ) -> ReqId {
        let buf = Vec::new();
        self.post_irecv_buf(sim, me, match_info, mask, max_len, seg_size, buf, tag)
    }

    /// Common tail of the `post_irecv*` family: `buf` lends only its
    /// allocation (see [`RecvBuf`]), never its contents.
    #[allow(clippy::too_many_arguments)]
    fn post_irecv_buf(
        &mut self,
        sim: &mut Sim<Cluster>,
        me: EpAddr,
        match_info: u64,
        mask: u64,
        max_len: u64,
        seg_size: Option<u64>,
        buf: Vec<u8>,
        tag: Option<u64>,
    ) -> ReqId {
        assert!(seg_size.is_none_or(|s| s > 0), "segments must be nonzero");
        let req = self.alloc_req(me);
        let core = self.ep(me).core;
        let (_, fin) = self.run_core(
            me.node,
            core,
            sim.now(),
            self.p.cfg.lib_post_cost,
            category::USER_LIB,
        );
        self.ep_mut(me).recvs.insert(
            req,
            RecvState {
                req,
                match_info,
                mask,
                buf: RecvBuf::new(buf, max_len as usize),
                total: 0,
                matched_info: None,
                tag,
                region: None,
                seg_size,
            },
        );
        // Matching against already-arrived messages happens in library
        // context right after the post.
        sim.schedule_at(fin, move |c: &mut Cluster, s| {
            c.lib_match_new_recv(s, me, req);
        });
        req
    }

    /// Charge app compute time on the endpoint's core.
    pub fn charge_app_compute(&mut self, sim: &mut Sim<Cluster>, me: EpAddr, dur: Ps) {
        let core = self.ep(me).core;
        self.run_core(me.node, core, sim.now(), dur, category::APP);
    }

    // ------------------------------------------------------------------
    // frames and links
    // ------------------------------------------------------------------

    /// Per-frame fault draw for the link `src → dst`. The channel is
    /// created on the link's first frame from parameters and a RNG
    /// stream derived purely from the run seed and the link identity,
    /// so the draw sequence each link sees is identical under any
    /// partitioning. Clean runs short-circuit to `CLEAN` without
    /// touching the map.
    fn link_fault_next(
        &mut self,
        src: NodeId,
        dst: NodeId,
    ) -> omx_ethernet::fault::FrameDisposition {
        if !self.link_faults_possible {
            return omx_ethernet::fault::FrameDisposition::CLEAN;
        }
        let p = &self.p;
        let root = &self.fault_root;
        let entry = self.link_faults.entry((src.0, dst.0)).or_insert_with(|| {
            let lp = p
                .cfg
                .fault_plan
                .link_params(src.0, dst.0)
                .combined_with_uniform_loss(p.cfg.loss_one_in);
            lp.is_active().then(|| {
                let tag = 0x4000_0000_0000_0000u64 | (u64::from(src.0) << 24) | u64::from(dst.0);
                LinkFaultState::new(lp, root.derive(tag))
            })
        });
        match entry {
            Some(faults) => faults.next_frame(),
            None => omx_ethernet::fault::FrameDisposition::CLEAN,
        }
    }

    /// Deliver `frame` to `dst`'s NIC at `arrival` — the partition-safe
    /// seam every wire delivery goes through. A whole-world cluster
    /// schedules the local `on_frame` exactly like the classic engine.
    /// A partitioned shard routes **every** inter-node frame through
    /// the outbox — co-located destinations included — and the
    /// executor injects the round's frames in one canonical order
    /// after the window that emitted them. Uniform routing matters for
    /// byte-identity: if co-located frames were scheduled directly at
    /// emission while cross-shard ones were injected at the window
    /// boundary, their same-instant interleaving would depend on which
    /// nodes share a shard. Scheduling another shard's arrival
    /// directly on this engine would race the window protocol — this
    /// method is why `send_payload` never touches `Sim::schedule_at`
    /// for foreign nodes.
    pub(crate) fn deliver_frame(
        &mut self,
        sim: &mut Sim<Cluster>,
        dst: NodeId,
        arrival: Ps,
        frame: EthFrame,
    ) {
        if self.part.partitioned() {
            self.part.push_remote(sim.now(), arrival, frame);
        } else {
            sim.schedule_at(arrival, move |c: &mut Cluster, s| {
                c.on_frame(s, dst, frame);
            });
        }
    }

    /// Hand `pkt` to the NIC of `src` for `dst` at time `at` (the
    /// driver finished building it then). Applies loss injection.
    pub(crate) fn send_packet(
        &mut self,
        sim: &mut Sim<Cluster>,
        src: NodeId,
        dst: NodeId,
        pkt: Packet,
        at: Ps,
    ) {
        self.send_payload(sim, src, dst, pkt, at, Ps::ZERO);
    }

    /// Like [`Self::send_packet`] but with extra per-frame transmitter
    /// occupancy (the MXoE NIC firmware overhead).
    pub(crate) fn send_payload(
        &mut self,
        sim: &mut Sim<Cluster>,
        src: NodeId,
        dst: NodeId,
        pkt: Packet,
        at: Ps,
        extra: Ps,
    ) {
        let (header, payload) = pkt.encode();
        sim.schedule_at(at, move |c: &mut Cluster, s| {
            c.stats.frames_sent += 1;
            // Fault injection targets the Open-MX reliability machinery;
            // the MXoE baseline has none (its reliability lives in the
            // NIC firmware, out of scope), so its frames are exempt.
            let disp = if c.p.cfg.stack == StackKind::OpenMx {
                c.link_fault_next(src, dst)
            } else {
                omx_ethernet::fault::FrameDisposition::CLEAN
            };
            if disp.dropped {
                c.stats.frames_lost += 1;
                c.metrics.count(src.0, ins::FAULT_FRAMES_DROPPED, 1);
                return;
            }
            let mut frame = EthFrame::new(src.0, dst.0, header, payload);
            if disp.corrupted {
                frame.fcs_corrupt = true;
                c.metrics.count(src.0, ins::FAULT_FRAMES_CORRUPTED, 1);
            }
            // Direct field access keeps the link borrow disjoint from
            // the stats/metrics fields updated alongside it.
            let (params, metrics) = (c.p.link, &c.metrics);
            let link = c.links.get_or_insert_with(src, dst, || {
                let mut link = Link::new(params);
                // Wire busy time is attributed to the *sending* node.
                link.attach_metrics(metrics.clone(), src.0);
                link
            });
            let mut arrival = link.transmit_with_overhead(s.now(), &frame, extra);
            if disp.reorder_extra > 0 {
                // Hold the frame back by k serialization times: frames
                // sent right behind it overtake it on arrival.
                arrival += link.serialization_time(&frame) * disp.reorder_extra as u64;
                c.stats.frames_reordered += 1;
                c.metrics.count(src.0, ins::FAULT_FRAMES_REORDERED, 1);
            }
            let dup = if disp.duplicated {
                // The duplicate occupies real wire time like any frame.
                let dup = frame.clone();
                let dup_arrival = link.transmit_with_overhead(s.now(), &dup, extra);
                c.stats.frames_duplicated += 1;
                c.metrics.count(src.0, ins::FAULT_FRAMES_DUPLICATED, 1);
                Some((dup_arrival, dup))
            } else {
                None
            };
            // Delivery order (duplicate first, then the original)
            // matches the old direct scheduling, so same-instant
            // tie-breaks are unchanged.
            if let Some((dup_arrival, dup)) = dup {
                c.deliver_frame(s, dst, dup_arrival, dup);
            }
            c.deliver_frame(s, dst, arrival, frame);
        });
    }

    /// A frame finished arriving at `node`'s NIC.
    pub(crate) fn on_frame(&mut self, sim: &mut Sim<Cluster>, node: NodeId, frame: EthFrame) {
        match self.p.cfg.stack {
            StackKind::OpenMx => self.omx_on_frame(sim, node, frame),
            StackKind::Mxoe => self.mx_on_frame(sim, node, frame),
        }
    }

    /// Open-MX receive: RSS steers the frame to a queue, the NIC rings
    /// the queue's skbuff into the bound core's bottom half, and this
    /// host side accounts the interrupt cost and schedules the
    /// (batched) BH run as the returned [`RxWake`] demands.
    fn omx_on_frame(&mut self, sim: &mut Sim<Cluster>, node: NodeId, frame: EthFrame) {
        let now = sim.now();
        let credits = self.p.cfg.pull_credits;
        // `Nic::deliver` consumes the frame, so anything the credit
        // controller might need after a drop is peeked first — and
        // only when the controller is on, keeping the default path
        // untouched.
        let peeked = if credits {
            Some((
                NodeId(frame.src),
                crate::proto::peek_large_frag(&frame.header),
            ))
        } else {
            None
        };
        let n = self.node_mut(node);
        let queue = n.nic.rss_queue(&frame);
        let core = n.nic.queue_core(queue);
        let outcome = n.nic.deliver(now, queue, frame, &mut n.bh[core.0 as usize]);
        match outcome {
            RxOutcome::DroppedRingFull => {
                self.stats.frames_ring_dropped += 1;
                if self
                    .p
                    .cfg
                    .fault_plan
                    .node_params(node.0)
                    .is_some_and(|nf| nf.rx_ring_size.is_some())
                {
                    // The ring on this node was artificially shrunk by
                    // the fault plan: the drop is the injected hazard,
                    // not genuine receiver overload.
                    self.stats.frames_ring_dropped_injected += 1;
                }
                if let Some((src_node, peek)) = peeked {
                    self.credit_ring_shed(sim, node, src_node, peek, now);
                }
            }
            RxOutcome::DroppedCorrupt => {
                // Hardware FCS check discarded the frame before it
                // consumed a ring slot; retransmission recovers it.
                self.stats.frames_corrupt_dropped += 1;
            }
            RxOutcome::Queued { queue, wake } => {
                if credits {
                    self.credit_occupancy_check(node, queue, now);
                }
                match wake {
                    RxWake::Irq(core) => {
                        let irq = self.p.hw.irq_cpu_cost;
                        let (_, irq_fin) = self.run_core(node, core, now, irq, category::IRQ);
                        let at = irq_fin.max(now + self.p.hw.bh_dispatch_delay);
                        sim.schedule_at(at, move |c: &mut Cluster, s| c.run_bh(s, node, queue));
                    }
                    RxWake::IrqPending(core) => {
                        // Interrupt fires but a BH run is already promised:
                        // account the hard-IRQ cost only.
                        let irq = self.p.hw.irq_cpu_cost;
                        self.run_core(node, core, now, irq, category::IRQ);
                    }
                    RxWake::Pending => {
                        // Coalesced into the window with a run already
                        // pending: the promised run will drain this skbuff.
                    }
                    RxWake::TimerKick(_) => {
                        // Coalesced into the moderation window with NO
                        // run pending: the moderation timer must kick
                        // the BH or the skbuff sits unserviced until
                        // the link goes idle forever (the
                        // frame-then-silence bug).
                        let delay = self.p.hw.bh_dispatch_delay;
                        sim.schedule_at(now + delay, move |c: &mut Cluster, s| {
                            c.run_bh(s, node, queue)
                        });
                    }
                }
            }
        }
    }

    /// One bottom-half invocation for RX `queue` of `node` (on the
    /// core the queue is bound to): drain up to the NIC's NAPI budget
    /// of skbuffs through the protocol callback, one at a time (no
    /// per-run batch buffer). With `cfg.gro` on, consecutive skbuffs
    /// of the same message form a frame train and the tail fragments
    /// charge the cheaper GRO continuation cost.
    fn run_bh(&mut self, sim: &mut Sim<Cluster>, node: NodeId, queue: usize) {
        let core = self.node(node).nic.queue_core(queue);
        let budget = self.node_mut(node).nic.params().bh_budget;
        let gro = self.p.cfg.gro;
        let mut count = 0;
        let mut last_fin = sim.now();
        // GRO train state: the (flow, message) key of the previous
        // skbuff in this run. Trains never span runs.
        let mut train: Option<(u64, u64)> = None;
        self.node_mut(node).bh_mut(core).begin_run();
        while count < budget {
            let Some(skb) = self.node_mut(node).bh_mut(core).pop_next() else {
                break;
            };
            count += 1;
            let coalesced = if gro {
                let key = crate::proto::gro_train_key(skb.src, &skb.header);
                let same = key.is_some() && key == train;
                train = key;
                if same {
                    self.metrics.count(node.0, ins::BH_GRO_COALESCED, 1);
                }
                same
            } else {
                false
            };
            last_fin = self.handle_rx_skbuff(sim, node, core, skb, coalesced);
        }
        self.node_mut(node).nic.replenish(queue, count);
        let more = self.node_mut(node).bh_mut(core).finish_run();
        if more {
            sim.schedule_at(last_fin, move |c: &mut Cluster, s| c.run_bh(s, node, queue));
        }
    }

    // ------------------------------------------------------------------
    // event ring and app callbacks
    // ------------------------------------------------------------------

    /// Driver side: publish an event and make sure the library will
    /// poll it.
    pub(crate) fn push_event(&mut self, sim: &mut Sim<Cluster>, addr: EpAddr, ev: Event) {
        let ep = self.ep_mut(addr);
        ep.counters.events += 1;
        ep.events.push(ev);
        self.schedule_lib_poll(sim, addr);
    }

    /// Schedule a library poll for `addr` unless one is pending.
    pub(crate) fn schedule_lib_poll(&mut self, sim: &mut Sim<Cluster>, addr: EpAddr) {
        let ep = self.ep_mut(addr);
        if ep.poll_scheduled || ep.events.is_empty() {
            return;
        }
        ep.poll_scheduled = true;
        sim.schedule_at(sim.now(), move |c: &mut Cluster, s| {
            c.ep_mut(addr).poll_scheduled = false;
            c.lib_poll(s, addr);
        });
    }

    /// Run one application callback with the take/restore pattern.
    pub(crate) fn call_app(&mut self, sim: &mut Sim<Cluster>, addr: EpAddr, comp: Completion) {
        let app_id = self.ep(addr).app;
        let mut app = self.apps[app_id].take().expect("app not re-entered");
        {
            let mut ctx = AppCtx {
                cluster: self,
                sim,
                me: addr,
            };
            app.on_completion(&mut ctx, comp);
        }
        self.apps[app_id] = Some(app);
    }

    /// Deliver a receive completion to the app (scheduled, never
    /// synchronous from a post).
    pub(crate) fn finish_recv(&mut self, sim: &mut Sim<Cluster>, addr: EpAddr, req: ReqId, at: Ps) {
        sim.schedule_at(at, move |c: &mut Cluster, s| {
            let ep = c.ep_mut(addr);
            let Some(st) = ep.recvs.remove(&req) else {
                return; // duplicate completion suppressed
            };
            let data = st.buf.into_delivered(st.total);
            let total = data.len() as u64;
            // The app will now read the buffer: it becomes resident in
            // the app core's subchip cache.
            let core = ep.core;
            if let Some(t) = st.tag {
                let subchip = c.p.topology.subchip_of(core);
                let hw = c.p.hw.clone();
                c.node_mut(addr.node)
                    .cache
                    .touch(&hw, subchip, omx_hw::cache::RegionKey(t), total);
            }
            c.stats.messages_delivered += 1;
            c.stats.bytes_delivered += total;
            c.ep_mut(addr).counters.rx_bytes += total;
            let comp = Completion::Recv {
                req,
                match_info: st.matched_info.unwrap_or(st.match_info),
                data,
            };
            c.call_app(s, addr, comp);
        });
    }

    /// Deliver a send completion to the app.
    pub(crate) fn finish_send(&mut self, sim: &mut Sim<Cluster>, addr: EpAddr, req: ReqId, at: Ps) {
        sim.schedule_at(at, move |c: &mut Cluster, s| {
            let ep = c.ep_mut(addr);
            let Some(st) = ep.sends.get_mut(&req) else {
                return;
            };
            if st.completed {
                return;
            }
            st.completed = true;
            // Retain the entry if an ack is still owed (retransmission
            // may still need the data); eager sends completed on ack
            // can drop immediately.
            let drop_now = st.acked || matches!(st.class, MsgClass::Large);
            if drop_now {
                ep.sends.remove(&req);
            }
            c.call_app(s, addr, Completion::Send { req, failed: false });
        });
    }

    /// Total CPU busy time of one category on a node.
    pub fn node_busy_in(&self, node: NodeId, cat: &str) -> Ps {
        self.node(node).cpus.merged_meter().total(cat)
    }
}

/// Helper bundling cluster + engine construction. The engine's
/// timing-wheel depth follows `cfg.wheel_levels` (order-identical
/// either way — see `crates/sim/src/wheel.rs`).
pub fn build(p: ClusterParams) -> (Cluster, Sim<Cluster>) {
    let levels = p.cfg.wheel_levels;
    (Cluster::new(p), Sim::with_wheel_levels(levels))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_builds_links_on_demand() {
        let mut c = Cluster::new(ClusterParams::default());
        assert_eq!(c.nodes.len(), 2);
        assert!(c.links.is_empty(), "links are lazy: none before traffic");
        let params = c.p.link;
        let link = |c: &mut Cluster, src: u32, dst: u32| {
            c.links
                .get_or_insert_with(NodeId(src), NodeId(dst), || Link::new(params));
        };
        link(&mut c, 0, 1);
        link(&mut c, 1, 0);
        link(&mut c, 0, 1);
        assert!(c.links.contains(NodeId(0), NodeId(1)));
        assert!(c.links.contains(NodeId(1), NodeId(0)));
        assert!(!c.links.contains(NodeId(0), NodeId(0)));
        assert_eq!(
            c.links.values().count(),
            2,
            "a pair's second use finds its link"
        );
        link(&mut c, 0, 0);
        assert!(
            c.links.contains(NodeId(0), NodeId(0)),
            "NIC loopback for MXoE local traffic"
        );
        assert!(!c.links.contains(NodeId(0), NodeId(2)), "not a node");
    }

    /// The link index is sized by the first frame, not by building the
    /// world: a world that has sent nothing holds no index, which keeps
    /// set-up cost flat in the node count.
    #[test]
    fn link_index_is_sized_by_the_first_frame() {
        let params = ClusterParams {
            nodes: 64,
            ..ClusterParams::default()
        };
        let (mut c, mut sim) = build(params.clone());
        let rx = c.add_endpoint(NodeId(5), CoreId(2), Box::new(Nop));
        c.add_endpoint(NodeId(0), CoreId(2), Box::new(Nop));
        assert_eq!(c.links.index_bytes(), 0, "no index before the first frame");
        let ping = Packet::Tiny {
            src_ep: 0,
            dst_ep: 0,
            match_info: 7,
            msg_seq: 0,
            data: bytes::Bytes::from_static(b"ping"),
        };
        c.send_packet(&mut sim, NodeId(0), NodeId(5), ping, Ps::ZERO);
        assert_eq!(c.links.index_bytes(), 0, "sized when the frame leaves");
        sim.run(&mut c);
        assert_eq!(c.ep(rx).counters.rx_tiny, 1);
        assert!(c.links.contains(NodeId(0), NodeId(5)));
        assert_eq!(c.links.index_bytes(), 64 * 64 * 4);

        // A shard indexes only the rows of the sources it owns.
        let mut shard = Cluster::new_shard(
            ClusterParams {
                partitions: 4,
                ..params
            },
            1,
        );
        assert_eq!(shard.links.index_bytes(), 0);
        let link = Link::new(shard.p.link);
        shard
            .links
            .get_or_insert_with(NodeId(5), NodeId(0), || link);
        assert!(shard.links.contains(NodeId(5), NodeId(0)));
        assert!(!shard.links.contains(NodeId(4), NodeId(0)), "not owned");
        assert_eq!(shard.links.index_bytes(), 16 * 64 * 4);
    }

    struct Nop;
    impl App for Nop {
        fn on_start(&mut self, _ctx: &mut AppCtx<'_>) {}
        fn on_completion(&mut self, _ctx: &mut AppCtx<'_>, _c: Completion) {}
        fn is_done(&self) -> bool {
            true
        }
    }

    #[test]
    fn endpoints_get_distinct_addresses() {
        let mut c = Cluster::new(ClusterParams::default());
        let a = c.add_endpoint(NodeId(0), CoreId(2), Box::new(Nop));
        let b = c.add_endpoint(NodeId(0), CoreId(3), Box::new(Nop));
        let d = c.add_endpoint(NodeId(1), CoreId(2), Box::new(Nop));
        assert_ne!(a, b);
        assert_eq!(a.node, b.node);
        assert_eq!(d.node, NodeId(1));
        assert_eq!(c.ep(a).core, CoreId(2));
        assert!(c.all_apps_done());
    }

    /// Satellite-1 regression: a frame that lands inside the IRQ
    /// moderation window while NO BH run is pending must still be
    /// serviced. The NIC reports that state as [`RxWake::TimerKick`]
    /// and the host arms the deferred moderation-timer kick; dropping
    /// it would strand the skbuff forever if the link then goes idle.
    #[test]
    fn moderated_frame_before_silence_is_still_delivered() {
        use crate::proto::Packet;
        use bytes::Bytes;
        let (mut c, mut sim) = build(ClusterParams::default());
        let rx = c.add_endpoint(NodeId(0), CoreId(2), Box::new(Nop));
        c.add_endpoint(NodeId(1), CoreId(2), Box::new(Nop));
        let pkt = |seq: u32| Packet::Tiny {
            src_ep: 0,
            dst_ep: 0,
            match_info: 7,
            msg_seq: seq,
            data: Bytes::from_static(b"ping"),
        };
        // First frame: hard IRQ + BH run, which drains and goes idle.
        // Second frame 15 us later sits inside the default 25 us
        // moderation window — no interrupt — and only the timer kick
        // can deliver it, because nothing else ever arrives.
        c.send_packet(&mut sim, NodeId(1), NodeId(0), pkt(1), Ps::ZERO);
        c.send_packet(&mut sim, NodeId(1), NodeId(0), pkt(2), Ps::us(15));
        sim.run(&mut c);
        let n = c.node(NodeId(0));
        assert_eq!(n.nic.frames_received(), 2);
        assert_eq!(n.nic.pending(), 0, "ring slots replenished");
        for bh in &n.bh {
            assert_eq!(bh.backlog(), 0, "skbuff stranded in a BH queue");
            assert!(!bh.is_scheduled(), "BH left scheduled with no run");
        }
        assert_eq!(c.metrics.counter(0, ins::NIC_IRQS), 1);
        assert_eq!(c.metrics.counter(0, ins::NIC_IRQS_COALESCED), 1);
        assert_eq!(c.ep(rx).counters.rx_tiny, 2, "both frames delivered");
    }

    /// Zero-copy send path, end to end: every pulled large fragment
    /// the receiver's bottom half takes off its queue carries a slice
    /// of the sender's message `Bytes`, not a copy of it.
    #[test]
    fn large_fragments_reach_the_bottom_half_uncopied() {
        use bytes::Bytes;
        let (mut c, mut sim) = build(ClusterParams::default());
        let rx = c.add_endpoint(NodeId(0), CoreId(2), Box::new(Nop));
        let tx = c.add_endpoint(NodeId(1), CoreId(2), Box::new(Nop));
        let message = Bytes::from((0..256u32 << 10).map(|i| i as u8).collect::<Vec<u8>>());
        let base = message.as_ptr() as usize;
        let span = base..base + message.len();
        c.post_irecv(&mut sim, rx, 7, u64::MAX, message.len() as u64, None);
        c.post_isend_bytes(&mut sim, tx, rx, 7, message.clone(), None);
        let node = rx.node;
        let mut frags = 0;
        while sim.step(&mut c, 1) == 1 {
            // Drain the receiver's BH queues here instead of in their
            // scheduled runs (which then find them empty).
            for queue in 0..c.node(node).nic.num_queues() {
                let core = c.node(node).nic.queue_core(queue);
                while let Some(skb) = c.node_mut(node).bh_mut(core).pop_next() {
                    if crate::proto::peek_large_frag(&skb.header).is_some() {
                        let at = skb.data.as_ptr() as usize;
                        assert!(
                            span.contains(&at) && at + skb.data.len() <= span.end,
                            "fragment {frags} was copied on its way to the BH"
                        );
                        frags += 1;
                    }
                    c.handle_rx_skbuff(&mut sim, node, core, skb, false);
                    c.node_mut(node).nic.replenish(queue, 1);
                }
            }
        }
        assert_eq!(frags, 64, "every 4 KiB fragment of 256 KiB");
        assert_eq!(c.stats.messages_delivered, 1);
        assert_eq!(c.stats.bytes_delivered, message.len() as u64);
    }

    #[test]
    fn start_invokes_apps() {
        struct Starter {
            started: bool,
        }
        impl App for Starter {
            fn on_start(&mut self, _ctx: &mut AppCtx<'_>) {
                self.started = true;
            }
            fn on_completion(&mut self, _ctx: &mut AppCtx<'_>, _c: Completion) {}
            fn is_done(&self) -> bool {
                self.started
            }
        }
        let (mut c, mut sim) = build(ClusterParams::default());
        c.add_endpoint(NodeId(0), CoreId(2), Box::new(Starter { started: false }));
        c.start(&mut sim);
        sim.run(&mut c);
        assert!(c.all_apps_done());
    }
}
