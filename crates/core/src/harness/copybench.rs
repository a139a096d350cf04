//! Raw copy micro-benchmark (Figure 7 and the §IV-A numbers).
//!
//! Reproduces the paper's pipelined copy experiment: a stream of
//! copies of a given total size, split into fixed-size chunks, moved
//! either by memcpy or by the I/OAT DMA engine. For I/OAT the steady
//! state is paced by the slower of descriptor submission (CPU) and
//! descriptor execution (hardware) — submission pipelines with the
//! engine.

use omx_hw::mem::{CopyContext, MemModel};
use omx_hw::{Distance, HwParams};
use omx_sim::Ps;
use serde::Serialize;

/// Which engine moves the bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum CopyEngine {
    /// CPU memcpy (uncached stream, the Fig 7 condition).
    Memcpy,
    /// CPU memcpy with a fully cache-resident working set (the
    /// "12 GiB/s if the data fits in the cache" §IV-A case).
    MemcpyCached,
    /// I/OAT offloaded copy.
    Ioat,
}

/// Time to move `total` bytes in `chunk`-sized pieces.
pub fn copy_time(hw: &HwParams, engine: CopyEngine, total: u64, chunk: u64) -> Ps {
    assert!(chunk > 0, "chunk must be positive");
    let chunks = total.div_ceil(chunk).max(1);
    match engine {
        CopyEngine::Memcpy => {
            let ctx = CopyContext::uncached(Distance::SameSocket);
            MemModel::copy_time(hw, total, chunks, &ctx)
        }
        CopyEngine::MemcpyCached => {
            let ctx = CopyContext {
                distance: Distance::SameSubchip,
                cached_fraction: 1.0,
                shared_cache_pair: false,
            };
            MemModel::copy_time(hw, total, chunks, &ctx)
        }
        CopyEngine::Ioat => {
            // Steady state: per-descriptor pace is the max of CPU
            // submission and hardware execution; the first descriptor
            // additionally waits for its own submission.
            let t_submit = hw.ioat_submit_cpu;
            let t_hw = hw.ioat_desc_overhead + hw.ioat_raw_rate.time_for(chunk);
            let pace = t_submit.max(t_hw);
            t_submit + pace * chunks
        }
    }
}

/// Effective copy throughput in MiB/s.
pub fn copy_rate_mibs(hw: &HwParams, engine: CopyEngine, total: u64, chunk: u64) -> f64 {
    let t = copy_time(hw, engine, total, chunk);
    total as f64 / t.as_secs_f64() / (1u64 << 20) as f64
}

/// Analytic per-component accounting for one pipelined copy stream.
///
/// The copybench has no cluster, so the breakdown is derived from the
/// same closed-form model as [`copy_time`]: for memcpy all elapsed
/// time is CPU copy; for I/OAT the channel executes `chunks`
/// descriptors while the CPU spends `chunks + 1` submission slots
/// (submission pipelines with execution, so the components overlap and
/// their sum may exceed `elapsed_ns` — `idle_ns` is floored at zero).
pub fn copy_breakdown(
    hw: &HwParams,
    engine: CopyEngine,
    total: u64,
    chunk: u64,
) -> super::ComponentBreakdown {
    let elapsed = copy_time(hw, engine, total, chunk);
    let chunks = total.div_ceil(chunk).max(1);
    let ns = |p: Ps| p.as_ps() as f64 / 1e3;
    let (bh_copy, channel, submit) = match engine {
        CopyEngine::Memcpy | CopyEngine::MemcpyCached => (elapsed, Ps::ZERO, Ps::ZERO),
        CopyEngine::Ioat => {
            let t_hw = hw.ioat_desc_overhead + hw.ioat_raw_rate.time_for(chunk);
            (Ps::ZERO, t_hw * chunks, hw.ioat_submit_cpu * (chunks + 1))
        }
    };
    let accounted = bh_copy + channel + submit;
    super::ComponentBreakdown {
        elapsed_ns: ns(elapsed),
        wire_ns: 0.0,
        bh_copy_ns: ns(bh_copy),
        ioat_channel_ns: ns(channel),
        submit_cpu_ns: ns(submit),
        poll_wait_ns: 0.0,
        idle_ns: ns(elapsed.saturating_sub(accounted)),
    }
}

/// The §IV-A break-even: largest chunk still cheaper to memcpy than to
/// submit (CPU-cost comparison, the paper's "600 bytes").
pub fn cpu_breakeven_bytes(hw: &HwParams) -> u64 {
    let mut lo = 1u64;
    let mut hi = 1 << 20;
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if hw.memcpy_rate_uncached.time_for(mid) <= hw.ioat_submit_cpu {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hw() -> HwParams {
        HwParams::default()
    }

    #[test]
    fn fig7_shape_4k_chunks() {
        // 4 kB-chunked I/OAT sustains ≈2.4 GiB/s, beating memcpy's
        // ≈1.5 GiB/s.
        let ioat = copy_rate_mibs(&hw(), CopyEngine::Ioat, 1 << 20, 4096);
        let mc = copy_rate_mibs(&hw(), CopyEngine::Memcpy, 1 << 20, 4096);
        assert!((2200.0..2600.0).contains(&ioat), "ioat {ioat}");
        assert!((1450.0..1650.0).contains(&mc), "memcpy {mc}");
    }

    #[test]
    fn fig7_shape_1k_chunks_near_parity() {
        let ioat = copy_rate_mibs(&hw(), CopyEngine::Ioat, 1 << 20, 1024);
        let mc = copy_rate_mibs(&hw(), CopyEngine::Memcpy, 1 << 20, 1024);
        let ratio = ioat / mc;
        assert!((0.8..1.2).contains(&ratio), "1 kB parity ratio {ratio}");
    }

    #[test]
    fn fig7_shape_256b_chunks_ioat_loses() {
        let ioat = copy_rate_mibs(&hw(), CopyEngine::Ioat, 1 << 20, 256);
        let mc = copy_rate_mibs(&hw(), CopyEngine::Memcpy, 1 << 20, 256);
        assert!(ioat < 0.6 * mc, "ioat {ioat} vs memcpy {mc}");
    }

    #[test]
    fn cached_memcpy_dominates_everything() {
        let cached = copy_rate_mibs(&hw(), CopyEngine::MemcpyCached, 256 << 10, 4096);
        let ioat = copy_rate_mibs(&hw(), CopyEngine::Ioat, 256 << 10, 4096);
        assert!(cached > 4.0 * ioat, "cached {cached} vs ioat {ioat}");
    }

    #[test]
    fn breakeven_near_600_bytes() {
        let b = cpu_breakeven_bytes(&hw());
        assert!((550..650).contains(&b), "break-even {b} bytes");
    }

    #[test]
    fn small_total_includes_submission_latency() {
        // A single small chunk cannot amortize the submission.
        let t = copy_time(&hw(), CopyEngine::Ioat, 256, 4096);
        assert!(t >= Ps::ns(350 + 390));
    }
}
