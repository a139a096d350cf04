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

use crate::cluster::Cluster;
use omx_sim::instruments as ins;
use omx_sim::Ps;
use serde::Serialize;

/// Where the time of a run went, per component, in nanoseconds.
///
/// Computed from the cluster's metrics registry after a run: wire
/// serialization, BH/driver memcpy time (network receive copies plus
/// the one-copy shared-memory path), I/OAT channel occupancy, the CPU
/// cost of building and submitting descriptors, and whatever is left
/// of the elapsed window (`idle_ns`, floored at zero — components on
/// different resources overlap in time, so their sum may legitimately
/// exceed the elapsed wall clock).
///
/// With `OmxConfig::metrics` disabled every component reads zero and
/// `idle_ns == elapsed_ns`; throughput numbers are identical either
/// way because recording never charges simulated time.
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
    /// Read the totals out of one cluster's metrics registry.
    pub fn of(cluster: &Cluster) -> Self {
        let m = &cluster.metrics;
        BusyTotals {
            wire: m.busy_total_all_scopes(ins::LINK_WIRE),
            bh_copy: m.busy_total_all_scopes(ins::BH_COPY) + m.busy_total_all_scopes(ins::SHM_COPY),
            ioat_channel: m.busy_total_all_scopes(ins::IOAT_CHANNEL),
            submit_cpu: m.busy_total_all_scopes(ins::IOAT_SUBMIT_CPU),
            poll_wait: m.busy_total_all_scopes(ins::IOAT_POLL_WAIT),
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

impl ComponentBreakdown {
    /// Assemble the breakdown from a finished cluster's registry over
    /// the measurement window `elapsed`.
    pub fn from_cluster(cluster: &Cluster, elapsed: Ps) -> Self {
        Self::from_totals(&BusyTotals::of(cluster), elapsed)
    }

    /// Assemble the breakdown from (possibly merged) busy totals.
    pub fn from_totals(t: &BusyTotals, elapsed: Ps) -> Self {
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

/// End-of-run hygiene shared by every harness: whether the wire stayed
/// clean enough to call the run `verified`, and the leak detectors.
///
/// Returns `(clean_wire, end_skbuffs_held, end_pinned_regions)`.
/// `clean_wire` is `true` when the configuration deliberately injects
/// faults (drops are then expected and recovery is what is being
/// tested) or when no frame was lost to ring overflow or FCS
/// corruption. The two leak counters must read zero after a drained
/// run — any held skbuff or (with the registration cache disabled)
/// pinned region is driver state that escaped cleanup.
pub fn drain_check(cluster: &Cluster) -> (bool, u64, u64) {
    // Debug builds: every lifecycle handle (skbuff, pinned region,
    // I/OAT descriptor, pull handle) must be completed or released by
    // now — a handle still allocated or in flight is a leak and the
    // sanitizer panics with its allocation site.
    omx_sim::sanitize::SimSanitizer::assert_quiesced();
    let clean_wire = wire_stayed_clean(cluster.p.cfg.fault_injection_active(), &cluster.stats);
    let (end_skbuffs_held, end_pinned_regions) = leak_counts(cluster);
    (clean_wire, end_skbuffs_held, end_pinned_regions)
}

/// The `clean_wire` predicate of [`drain_check`], usable on *merged*
/// stats of a partitioned run (ring/corrupt drops are global
/// properties: each drop happened on exactly one shard).
pub fn wire_stayed_clean(fault_injection_active: bool, stats: &crate::cluster::Stats) -> bool {
    fault_injection_active || (stats.frames_ring_dropped == 0 && stats.frames_corrupt_dropped == 0)
}

/// The leak detectors of [`drain_check`], per world (summable across
/// shards: a shard's unowned nodes never hold driver state).
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
