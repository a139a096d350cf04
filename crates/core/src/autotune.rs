//! Threshold auto-tuning (§VI future work, implemented as an
//! extension).
//!
//! The paper chose its offload thresholds empirically (fragments
//! ≥ 1 kB, network messages ≥ 64 kB, shared memory ≥ 1 MB) and notes
//! that benchmarking memcpy and I/OAT at startup could derive them
//! automatically. This module does exactly that, from first
//! principles, using the calibrated hardware model:
//!
//! * **fragment threshold** — the CPU break-even: offloading only pays
//!   when submitting a descriptor (350 ns) costs less CPU than just
//!   copying the fragment;
//! * **network message threshold** — asynchronous overlap only exists
//!   across pull blocks; a message must span the full outstanding
//!   window (2 blocks × 8 fragments × 4 kB = 64 kB) before overlap
//!   outweighs the per-message drain;
//! * **shared-memory threshold** — the synchronous copy competes with
//!   a possibly cache-resident memcpy (≈6 GiB/s shared-L2, faster than
//!   I/OAT); offload only wins once the ping-pong working set (source
//!   + destination) outgrows the usable L2.
//!
//! With the default `HwParams`/`OmxConfig`, the derived values land on
//! the paper's empirical ones — which is the point.

use crate::config::OmxConfig;
use omx_hw::HwParams;
use serde::Serialize;

/// Thresholds derived from startup calibration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct TunedThresholds {
    /// Minimum fragment size to offload.
    pub frag_threshold: u64,
    /// Minimum network message size to offload receive copies.
    pub net_msg_threshold: u64,
    /// Minimum shared-memory message size to offload.
    pub shm_threshold: u64,
}

fn next_power_of_two(v: u64) -> u64 {
    v.next_power_of_two()
}

/// Derive the offload thresholds from the hardware model.
pub fn calibrate(hw: &HwParams, cfg: &OmxConfig) -> TunedThresholds {
    // Fragment threshold: smallest size whose memcpy takes longer than
    // one descriptor submission (the paper's "600 bytes may be copied
    // with memcpy" §IV-A), rounded up to a power of two.
    let mut frag = 64u64;
    while hw.memcpy_rate_uncached.time_for(frag) < hw.ioat_submit_cpu {
        frag *= 2;
    }
    let frag_threshold = next_power_of_two(frag);

    // Network threshold: the pull window. Below it there is nothing to
    // overlap with — every copy would drain at the last fragment.
    let window = cfg.pull_blocks_outstanding as u64 * cfg.pull_block_frags as u64 * cfg.frag_size;
    let net_msg_threshold = next_power_of_two(window);

    // Shared-memory threshold: while source + destination fit in the
    // usable shared L2, the cached memcpy (≈6 GiB/s) beats the DMA
    // engine; offload once the working set spills.
    let shm_threshold = next_power_of_two(hw.l2_usable_bytes());

    TunedThresholds {
        frag_threshold,
        net_msg_threshold,
        shm_threshold,
    }
}

/// Apply tuned thresholds to a configuration.
pub fn apply(cfg: &mut OmxConfig, t: TunedThresholds) {
    cfg.ioat_frag_threshold = t.frag_threshold;
    cfg.ioat_net_msg_threshold = t.net_msg_threshold;
    cfg.ioat_shm_threshold = t.shm_threshold;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_reproduce_paper_thresholds() {
        let t = calibrate(&HwParams::default(), &OmxConfig::default());
        assert_eq!(t.frag_threshold, 1 << 10, "paper: fragments ≥ 1 kB");
        assert_eq!(t.net_msg_threshold, 64 << 10, "paper: messages ≥ 64 kB");
        assert_eq!(t.shm_threshold, 1 << 20, "paper: shared memory ≥ 1 MB");
    }

    #[test]
    fn faster_memcpy_raises_frag_threshold() {
        let hw = HwParams {
            memcpy_rate_uncached: omx_sim::Rate::gib_per_sec(8),
            ..HwParams::default()
        };
        let t = calibrate(&hw, &OmxConfig::default());
        assert!(t.frag_threshold > 1 << 10);
    }

    #[test]
    fn smaller_window_lowers_net_threshold() {
        let cfg = OmxConfig {
            pull_blocks_outstanding: 1,
            ..OmxConfig::default()
        };
        let t = calibrate(&HwParams::default(), &cfg);
        assert_eq!(t.net_msg_threshold, 32 << 10);
    }

    #[test]
    fn apply_overwrites_config() {
        let mut cfg = OmxConfig::with_ioat();
        let t = TunedThresholds {
            frag_threshold: 2048,
            net_msg_threshold: 128 << 10,
            shm_threshold: 4 << 20,
        };
        apply(&mut cfg, t);
        assert_eq!(cfg.ioat_frag_threshold, 2048);
        assert_eq!(cfg.ioat_net_msg_threshold, 128 << 10);
        assert_eq!(cfg.ioat_shm_threshold, 4 << 20);
    }
}
