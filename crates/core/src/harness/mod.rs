//! Benchmark harnesses that regenerate the paper's figures.
//!
//! * [`pingpong`] — network and shared-memory ping-pong (Figures 3, 8,
//!   10, 11),
//! * [`stream`] — unidirectional large-message stream with CPU-usage
//!   accounting (Figure 9),
//! * [`copybench`] — raw pipelined memcpy vs I/OAT copy rates
//!   (Figure 7 and the §IV-A micro-benchmark numbers),
//! * [`fanin`] — many-to-one medium-message fan-in (the multi-queue
//!   RSS ablation workload),
//! * [`incast`] — many-to-one large-message incast (the pull
//!   congestion-control survival workload).
//!
//! Every simulated harness, and the MPI job runner, runs through
//! [`run_cluster`]: it honors `ClusterParams::partitions` and ends
//! each run with the same [`RunReport`].

pub mod copybench;
pub mod fanin;
pub mod incast;
pub mod pingpong;
pub mod stream;

pub use copybench::{copy_breakdown, copy_rate_mibs, CopyEngine};
pub use fanin::{run_fanin, FaninConfig, FaninResult};
pub use incast::{run_incast, IncastConfig, IncastResult};
pub use pingpong::{run_pingpong, PingPongConfig, PingPongResult, Placement};
pub use stream::{run_stream, StreamConfig, StreamResult};

use crate::cluster::{Cluster, ClusterParams, Stats};
use omx_sim::sanitize::SimSanitizer;
use omx_sim::{Ps, Sim};
use serde::Serialize;

/// Where the time of a run went, per component, in nanoseconds.
///
/// Computed from the busy totals [`BusyTotals::of`] reads after a
/// run: wire serialization, BH/driver memcpy time (network receive
/// copies plus the one-copy shared-memory path), I/OAT channel
/// occupancy, the CPU cost of building and submitting descriptors, the
/// CPU time spent polling for completions, and whatever is left of the
/// elapsed window (`idle_ns`, floored at zero — components on different
/// resources overlap in time, so their sum may legitimately exceed the
/// elapsed wall clock).
///
/// With `OmxConfig::metrics` disabled every component reads zero and
/// `idle_ns == elapsed_ns`; throughput numbers and `Stats` are
/// identical either way, because the knob only decides whether the
/// totals are reported.
#[derive(Debug, Clone, Serialize)]
pub struct ComponentBreakdown {
    /// Elapsed window of the measurement.
    pub elapsed_ns: f64,
    /// Wire serialization busy time summed over all links.
    pub wire_ns: f64,
    /// CPU memcpy time in the receive paths (BH ring/large copies and
    /// shared-memory one-copy moves).
    pub bh_copy_ns: f64,
    /// I/OAT DMA channel busy time (descriptor execution).
    pub ioat_channel_ns: f64,
    /// CPU time spent building and submitting I/OAT descriptors.
    pub submit_cpu_ns: f64,
    /// CPU time spent busy-polling I/OAT completions.
    pub poll_wait_ns: f64,
    /// `elapsed - (wire + bh_copy + ioat_channel + submit_cpu)`,
    /// floored at zero.
    pub idle_ns: f64,
}

/// The five integer-picosecond busy totals a [`ComponentBreakdown`] is
/// computed from, extractable per shard and summed exactly before the
/// one conversion to `f64` — so a partitioned run's breakdown is
/// bit-identical to the single-engine one (each busy interval happens
/// on exactly one shard, and integer addition commutes; floats enter
/// only at the end).
#[derive(Debug, Clone, Copy, Default)]
pub struct BusyTotals {
    /// Wire serialization busy time over all links.
    pub wire: Ps,
    /// BH/driver memcpy time (ring/large copies + shm one-copy).
    pub bh_copy: Ps,
    /// I/OAT DMA channel busy time.
    pub ioat_channel: Ps,
    /// CPU time building and submitting I/OAT descriptors.
    pub submit_cpu: Ps,
    /// CPU time busy-polling I/OAT completions.
    pub poll_wait: Ps,
}

impl BusyTotals {
    /// Read one world's totals where they are kept: the wire from its
    /// links' transmitters, the DMA channels from its nodes' I/OAT
    /// engines, and the three CPU sums the drivers add to as they
    /// charge a core. A shard's links are those its own nodes transmit
    /// on, and its other nodes never run, so the sums over shards are
    /// the whole cluster's. All zero with `OmxConfig::metrics` off.
    pub fn of(cluster: &Cluster) -> Self {
        if !cluster.p.cfg.metrics {
            return BusyTotals::default();
        }
        let wire = cluster.links.values().map(|l| l.wire_busy_total());
        let ioat_channel = cluster
            .nodes
            .iter()
            .flat_map(|n| (0..n.ioat.num_channels()).map(|ch| n.ioat.channel_busy_total(ch)));
        BusyTotals {
            wire: wire.fold(Ps::ZERO, |a, b| a + b),
            bh_copy: cluster.bh_copy_busy,
            ioat_channel: ioat_channel.fold(Ps::ZERO, |a, b| a + b),
            submit_cpu: cluster.submit_cpu_busy,
            poll_wait: cluster.poll_wait_busy,
        }
    }

    /// Fold another shard's totals into this one.
    pub fn absorb(&mut self, o: &BusyTotals) {
        self.wire += o.wire;
        self.bh_copy += o.bh_copy;
        self.ioat_channel += o.ioat_channel;
        self.submit_cpu += o.submit_cpu;
        self.poll_wait += o.poll_wait;
    }
}

/// The leak detectors, per world: skbuffs still held by drivers and
/// pinned regions still registered (summable across shards: a
/// shard's unowned nodes never hold driver state).
pub fn leak_counts(cluster: &Cluster) -> (u64, u64) {
    let end_skbuffs_held = cluster.nodes.iter().map(|n| n.driver.skbuffs_held).sum();
    let end_pinned_regions = cluster
        .nodes
        .iter()
        .flat_map(|n| n.endpoints.iter())
        .map(|e| e.regions.pinned_count() as u64)
        .sum();
    (end_skbuffs_held, end_pinned_regions)
}

/// One shard's deterministic load and footprint figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardLoad {
    /// Engine events this shard executed.
    pub events: u64,
    /// Peak simultaneous pending events on this shard's wheel — the
    /// engine's peak-memory proxy (event pool + slab occupancy track
    /// the pending population), deterministic per schedule.
    pub peak_pending: usize,
    /// Endpoints installed on this shard's nodes.
    pub endpoints: usize,
}

/// The accounting every harness ends a run with, folded over the
/// shards of a (possibly partitioned) run. Each simulated event, busy
/// interval and held resource belongs to exactly one shard, so every
/// figure here is the same for any partition or worker count.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Aggregate cluster counters at the end of the run, fault and
    /// recovery events included.
    pub stats: Stats,
    /// Busy totals the component breakdowns are computed from.
    pub busy: BusyTotals,
    /// Engine events executed over the whole run — deterministic, and
    /// pinned by the `benchrun --smoke` fingerprints.
    pub events: u64,
    /// When the apps finished: the later of the last completion
    /// delivered to any app and the end of the last compute an app
    /// charged, the latest over shards. Protocol events that run after
    /// the workload is done (a resend timer finding its send acked, a
    /// late ack) do not move it.
    pub end: Ps,
    /// Skbuffs still held by drivers after the run drained (leak
    /// detector: must be zero).
    pub skbuffs_held: u64,
    /// Pinned regions still registered at the end, summed over every
    /// endpoint (with the registration cache disabled this must be
    /// zero).
    pub pinned_regions: u64,
    /// Per-shard load, in shard order (one entry for an unpartitioned
    /// run).
    pub shards: Vec<ShardLoad>,
    /// Whether the configuration deliberately injects faults.
    faults_active: bool,
}

impl RunReport {
    fn of_shard(sim: &Sim<Cluster>, cluster: &Cluster) -> Self {
        let (skbuffs_held, pinned_regions) = leak_counts(cluster);
        RunReport {
            stats: cluster.stats_snapshot(),
            busy: BusyTotals::of(cluster),
            events: sim.events_executed(),
            end: cluster.app_end,
            skbuffs_held,
            pinned_regions,
            shards: vec![ShardLoad {
                events: sim.events_executed(),
                peak_pending: sim.events_peak_pending(),
                endpoints: cluster.nodes.iter().map(|n| n.endpoints.len()).sum(),
            }],
            faults_active: cluster.p.cfg.fault_injection_active(),
        }
    }

    fn absorb(&mut self, o: RunReport) {
        self.stats.absorb(&o.stats);
        self.busy.absorb(&o.busy);
        self.events += o.events;
        self.end = self.end.max(o.end);
        self.skbuffs_held += o.skbuffs_held;
        self.pinned_regions += o.pinned_regions;
        self.shards.extend(o.shards);
    }

    /// Whether the wire stayed clean enough to call the run verified:
    /// `true` when the configuration deliberately injects faults
    /// (drops are then expected and recovery is what is being tested)
    /// or when no frame was lost to ring overflow or FCS corruption.
    pub fn clean_wire(&self) -> bool {
        self.faults_active
            || (self.stats.frames_ring_dropped == 0 && self.stats.frames_corrupt_dropped == 0)
    }

    /// The component breakdown over a measurement window of `elapsed`.
    pub fn breakdown(&self, elapsed: Ps) -> ComponentBreakdown {
        let t = &self.busy;
        let accounted = t.wire + t.bh_copy + t.ioat_channel + t.submit_cpu;
        let idle = elapsed.saturating_sub(accounted);
        let ns = |p: Ps| p.as_ps() as f64 / 1e3;
        ComponentBreakdown {
            elapsed_ns: ns(elapsed),
            wire_ns: ns(t.wire),
            bh_copy_ns: ns(t.bh_copy),
            ioat_channel_ns: ns(t.ioat_channel),
            submit_cpu_ns: ns(t.submit_cpu),
            poll_wait_ns: ns(t.poll_wait),
            idle_ns: ns(idle),
        }
    }
}

/// Run one cluster simulation to completion — partitioned per
/// `params.partitions` on [`crate::run_partitioned`], so the result is
/// identical for every partition and worker count — and account for
/// it.
///
/// `install(cluster, shard)` adds the endpoints of the shard's own
/// nodes and returns the state its apps share; `collect(cluster,
/// state)` reduces that state once the run drained. Both run once per
/// shard. Returns the folded [`RunReport`] and each shard's collected
/// tally, in shard order.
pub fn run_cluster<S, T, I, C>(params: ClusterParams, install: I, collect: C) -> (RunReport, Vec<T>)
where
    I: Fn(&mut Cluster, usize) -> S + Sync,
    C: Fn(&Cluster, S) -> T + Sync,
    T: Send,
{
    let finish = |_shard: usize, sim: &mut Sim<Cluster>, cluster: &mut Cluster, state: S| {
        // Every lifecycle handle (skbuff, pinned region, I/OAT
        // descriptor, pull handle) must be completed or released by
        // now. The sanitizer is thread-local, so this runs on the
        // worker that ran the shard's handles (debug builds only).
        SimSanitizer::assert_quiesced();
        (RunReport::of_shard(sim, cluster), collect(cluster, state))
    };
    let mut shards = crate::run_partitioned(params, install, finish).into_iter();
    let (mut run, first) = shards.next().expect("at least one shard");
    let mut tallies = vec![first];
    for (report, tally) in shards {
        run.absorb(report);
        tallies.push(tally);
    }
    (run, tallies)
}

/// The message-size sweep used by the paper's throughput figures
/// (16 B … `max` by powers of two).
pub fn size_sweep(max: u64) -> Vec<u64> {
    let mut v = Vec::new();
    let mut s = 16u64;
    while s <= max {
        v.push(s);
        s *= 2;
    }
    v
}

#[cfg(test)]
mod tests {
    #[test]
    fn sweep_covers_paper_axis() {
        let s = super::size_sweep(1 << 20);
        assert_eq!(s.first(), Some(&16));
        assert_eq!(s.last(), Some(&(1 << 20)));
        assert!(s.contains(&4096));
        assert!(s.windows(2).all(|w| w[1] == w[0] * 2));
    }
}
