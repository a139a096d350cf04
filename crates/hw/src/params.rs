//! Calibration constants.
//!
//! Every number the simulation charges for comes from this struct, and
//! each default is traceable to the paper (§IV-A micro-benchmarks and
//! the hardware description in §IV) or to well-known Linux costs the
//! paper cites. Experiments that want a different machine build a
//! modified `HwParams` — nothing else in the stack hard-codes a cost.

use omx_sim::{Ps, Rate};
use serde::{Deserialize, Serialize};

/// Calibration constants for one host (and the wire between hosts).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HwParams {
    // ---------------- memcpy ----------------
    /// CPU copy rate when the data is not cache-resident, source and
    /// destination on the same socket. Paper §IV-A: "the processor copy
    /// rate is about 1.6 GiB/s".
    pub memcpy_rate_uncached: Rate,
    /// CPU copy rate when the working set is L2-resident for the
    /// copying core. Paper §IV-A: "if the data fits in the cache, the
    /// memcpy performance may reach up to 12 GiB/s".
    pub memcpy_rate_cached: Rate,
    /// CPU copy rate between buffers homed on different sockets.
    /// Paper Fig 10: cross-socket ping-pong memcpy sustains ~1.2 GiB/s.
    pub memcpy_rate_cross_socket: Rate,
    /// Effective rate of the Fig 10 shared-cache case: two processes on
    /// the same dual-core subchip re-using an L2-resident buffer reach
    /// ~6 GiB/s (lower than the single-core 12 GiB/s because both cores
    /// contend on the shared L2).
    pub memcpy_rate_shared_cache_pair: Rate,
    /// Fixed startup per memcpy chunk (loop setup, alignment handling).
    /// Small — the paper notes chunking barely hurts memcpy.
    pub memcpy_chunk_overhead: Ps,

    // ---------------- caches ----------------
    /// Shared L2 capacity per dual-core subchip (Clovertown: 4 MiB).
    pub l2_cache_bytes: u64,
    /// Fraction of L2 usable by message buffers before eviction starts;
    /// the rest holds rings, stacks and other pollution.
    pub l2_usable_fraction: f64,

    // ---------------- I/OAT DMA engine ----------------
    /// Number of independent DMA channels (paper §V footnote: 4).
    pub ioat_channels: usize,
    /// CPU time to submit one copy descriptor to the hardware.
    /// Paper §IV-A: "we first measured the submission time on our
    /// machine to about 350 nanoseconds".
    pub ioat_submit_cpu: Ps,
    /// CPU time to *chain* one further descriptor behind an already
    /// rung doorbell: descriptor setup and next-pointer link, without
    /// the MMIO doorbell write. Defaults to [`Self::ioat_submit_cpu`],
    /// so a chain costs the paper's per-descriptor submission until an
    /// experiment lowers it — the `batch_doorbell` study sweeps this
    /// to ask whether amortized submission flips the paper's
    /// medium-message offload verdict.
    pub ioat_desc_chain_cpu: Ps,
    /// Hardware startup per descriptor (fetch + setup inside the DMA
    /// engine). Calibrated with `ioat_raw_rate` so that 4 kB-chunked
    /// streams sustain ≈2.4 GiB/s and 1 kB chunks land at memcpy parity
    /// (both from Fig 7).
    pub ioat_desc_overhead: Ps,
    /// Raw copy rate of one DMA channel once a descriptor is running.
    pub ioat_raw_rate: Rate,
    /// Aggregate copy bandwidth of the whole engine across all
    /// channels: the memory/chipset port is shared, which is why using
    /// multiple channels only buys "up to 40 %" more throughput
    /// (related work [22] cited in §V), not 4×.
    pub ioat_aggregate_rate: Rate,
    /// CPU time for one completion poll (a read of the in-order
    /// completion word in host memory). Paper §IV-A: "very cheap".
    pub ioat_poll_cost: Ps,

    // ---------------- OS / CPU ----------------
    /// System-call entry/exit. Paper footnote 1: "close to 100
    /// nanoseconds on recent Intel processors".
    pub syscall_cost: Ps,
    /// CPU time of the hard-IRQ handler that schedules the bottom half.
    pub irq_cpu_cost: Ps,
    /// Delay between a NIC raising an interrupt and the bottom half
    /// starting to run (softirq dispatch latency).
    pub bh_dispatch_delay: Ps,
    /// CPU time to pin one page (get_user_pages per-page cost).
    /// Open-MX registration is cheap: no NIC translation tables.
    pub pin_page_cost: Ps,
    /// Fixed CPU time per registration call (syscall body, bookkeeping).
    pub pin_base_cost: Ps,
    /// Page size (4 kB everywhere in the paper).
    pub page_size: u64,
}

impl Default for HwParams {
    fn default() -> Self {
        HwParams {
            memcpy_rate_uncached: Rate::gib_per_sec_f64(1.6),
            memcpy_rate_cached: Rate::gib_per_sec(12),
            memcpy_rate_cross_socket: Rate::gib_per_sec_f64(1.2),
            memcpy_rate_shared_cache_pair: Rate::gib_per_sec(6),
            memcpy_chunk_overhead: Ps::ns(50),
            l2_cache_bytes: 4 << 20,
            // Rings, stacks, code and the peer process's own working
            // set share the L2; roughly a quarter is available to one
            // message buffer stream. This puts the Fig 10 shared-cache
            // collapse right at the paper's ~1 MB.
            l2_usable_fraction: 0.25,
            ioat_channels: 4,
            ioat_submit_cpu: Ps::ns(350),
            ioat_desc_chain_cpu: Ps::ns(350),
            ioat_desc_overhead: Ps::ns(390),
            ioat_raw_rate: Rate::gib_per_sec_f64(3.18),
            ioat_aggregate_rate: Rate::gib_per_sec_f64(3.36),
            ioat_poll_cost: Ps::ns(50),
            syscall_cost: Ps::ns(100),
            irq_cpu_cost: Ps::ns(500),
            bh_dispatch_delay: Ps::ns(800),
            pin_page_cost: Ps::ns(220),
            pin_base_cost: Ps::ns(300),
            page_size: 4096,
        }
    }
}

impl HwParams {
    /// Usable L2 bytes for message data on one subchip.
    pub fn l2_usable_bytes(&self) -> u64 {
        (self.l2_cache_bytes as f64 * self.l2_usable_fraction) as u64
    }

    /// Number of pages spanned by `bytes` starting at a page boundary.
    pub fn pages_for(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.page_size).max(1)
    }

    /// Registration (pinning) cost for a buffer of `bytes`.
    pub fn pin_cost(&self, bytes: u64) -> Ps {
        self.pin_base_cost + self.pin_page_cost * self.pages_for(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_quotes() {
        let p = HwParams::default();
        assert_eq!(p.ioat_submit_cpu, Ps::ns(350));
        // The chain cost must default to the full submission cost so
        // that chained submission is the paper's per-descriptor cost
        // until an experiment lowers it.
        assert_eq!(p.ioat_desc_chain_cpu, p.ioat_submit_cpu);
        assert_eq!(p.syscall_cost, Ps::ns(100));
        assert_eq!(p.ioat_channels, 4);
        assert_eq!(p.l2_cache_bytes, 4 << 20);
        assert!((p.memcpy_rate_uncached.as_mib_per_sec() - 1638.4).abs() < 1.0);
        assert!((p.memcpy_rate_cached.as_mib_per_sec() - 12288.0).abs() < 1.0);
    }

    #[test]
    fn ioat_calibration_sustains_fig7_rates() {
        // 4 kB descriptors: time per chunk = 4096/raw + overhead should
        // put sustained throughput near the paper's 2.4 GiB/s.
        let p = HwParams::default();
        let per_chunk = p.ioat_raw_rate.time_for(4096) + p.ioat_desc_overhead;
        let sustained = 4096.0 / per_chunk.as_secs_f64() / (1u64 << 30) as f64;
        assert!(
            (sustained - 2.4).abs() < 0.15,
            "4 kB-chunk I/OAT rate {sustained} GiB/s, expected ≈2.4"
        );
        // 1 kB descriptors: near memcpy parity (within ~15 %).
        let per_chunk = p.ioat_raw_rate.time_for(1024) + p.ioat_desc_overhead;
        let ioat_1k = 1024.0 / per_chunk.as_secs_f64();
        let per_chunk = p.memcpy_rate_uncached.time_for(1024) + p.memcpy_chunk_overhead;
        let memcpy_1k = 1024.0 / per_chunk.as_secs_f64();
        let ratio = ioat_1k / memcpy_1k;
        assert!((0.85..1.15).contains(&ratio), "1 kB parity ratio {ratio}");
        // 256 B descriptors: far below memcpy.
        let per_chunk = p.ioat_raw_rate.time_for(256) + p.ioat_desc_overhead;
        let ioat_256 = 256.0 / per_chunk.as_secs_f64();
        let per_chunk = p.memcpy_rate_uncached.time_for(256) + p.memcpy_chunk_overhead;
        let memcpy_256 = 256.0 / per_chunk.as_secs_f64();
        assert!(ioat_256 < 0.6 * memcpy_256);
    }

    #[test]
    fn cpu_breakeven_is_near_600_bytes() {
        // Paper §IV-A: at the 1.6 GiB/s copy rate, ~600 bytes can be
        // memcpy'd in the 350 ns it takes to submit one descriptor.
        let p = HwParams::default();
        let b600 = p.memcpy_rate_uncached.time_for(600);
        assert!(
            b600 >= p.ioat_submit_cpu.saturating_sub(Ps::ns(15))
                && b600 <= p.ioat_submit_cpu + Ps::ns(15),
            "600 B memcpy {b600} vs submit {}",
            p.ioat_submit_cpu
        );
        // Cached break-even ≈ 2 kB at 12 GiB/s... the paper rounds:
        // 2 kB / 12 GiB/s ≈ 160 ns; their "2 kB if in the cache" uses
        // the ~6 GiB/s effective shared rate. Check that band instead.
        let b2k = p.memcpy_rate_shared_cache_pair.time_for(2048);
        assert!(b2k <= p.ioat_submit_cpu && b2k >= p.ioat_submit_cpu / 2);
    }

    #[test]
    fn pin_cost_scales_with_pages() {
        let p = HwParams::default();
        let one = p.pin_cost(1);
        let page = p.pin_cost(4096);
        assert_eq!(one, page, "both span one page");
        let two = p.pin_cost(4097);
        assert_eq!(two - one, p.pin_page_cost);
        assert_eq!(p.pages_for(0), 1);
        assert_eq!(p.pages_for(4096), 1);
        assert_eq!(p.pages_for(4097), 2);
        assert_eq!(p.pages_for(1 << 20), 256);
    }

    #[test]
    fn l2_usable_respects_fraction() {
        let mut p = HwParams {
            l2_usable_fraction: 0.5,
            ..HwParams::default()
        };
        assert_eq!(p.l2_usable_bytes(), 2 << 20);
        p.l2_usable_fraction = 1.0;
        assert_eq!(p.l2_usable_bytes(), 4 << 20);
    }
}
