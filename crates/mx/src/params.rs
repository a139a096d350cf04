//! MX/MXoE cost parameters.

use omx_sim::Ps;
use serde::Serialize;

/// Calibrated per-operation costs of the native MX stack.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct MxParams {
    /// User-library cost to post a send or receive (OS-bypass: a few
    /// cache-line writes into the NIC doorbell region).
    pub lib_post_cost: Ps,
    /// User-library cost to reap one completion event.
    pub lib_event_cost: Ps,
    /// NIC firmware cost added to each received *message* (matching,
    /// completion writeback) — charged as latency, not host CPU.
    pub nic_match_latency: Ps,
    /// Extra NIC firmware occupancy per transmitted fragment beyond
    /// wire serialization. This is what caps MX large-message
    /// throughput at ≈1140 MiB/s instead of the ≈1170 MiB/s the wire
    /// itself would allow for page-sized fragments.
    pub nic_frag_overhead: Ps,
    /// Fragment size used on the wire (page-sized, as Open-MX).
    pub frag_size: u64,
    /// Eager→rendezvous switch point (32 kB, like Open-MX).
    pub rndv_threshold: u64,
    /// One-way latency cost of the rendezvous handshake processing on
    /// each host (request build + match + reply build).
    pub rndv_host_cost: Ps,
    /// Library copy rate into the MX shared-memory segment (uncached
    /// source).
    pub shm_copy_in_rate: omx_sim::Rate,
    /// Library copy rate out of the segment (partially cache-warm).
    pub shm_copy_out_rate: omx_sim::Rate,
}

impl Default for MxParams {
    fn default() -> Self {
        MxParams {
            lib_post_cost: Ps::ns(250),
            lib_event_cost: Ps::ns(150),
            nic_match_latency: Ps::ns(500),
            nic_frag_overhead: Ps::ns(100),
            frag_size: 4096,
            rndv_threshold: 32 << 10,
            rndv_host_cost: Ps::ns(600),
            shm_copy_in_rate: omx_sim::Rate::gib_per_sec_f64(1.6),
            shm_copy_out_rate: omx_sim::Rate::gib_per_sec(3),
        }
    }
}

impl MxParams {
    /// Number of wire fragments for an `len`-byte message.
    pub fn frags_for(&self, len: u64) -> u64 {
        len.div_ceil(self.frag_size).max(1)
    }

    /// Whether `len` uses the rendezvous protocol.
    pub fn is_rndv(&self, len: u64) -> bool {
        len > self.rndv_threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fragment_counting() {
        let p = MxParams::default();
        assert_eq!(p.frags_for(0), 1);
        assert_eq!(p.frags_for(1), 1);
        assert_eq!(p.frags_for(4096), 1);
        assert_eq!(p.frags_for(4097), 2);
        assert_eq!(p.frags_for(1 << 20), 256);
    }

    #[test]
    fn rendezvous_threshold() {
        let p = MxParams::default();
        assert!(!p.is_rndv(32 << 10));
        assert!(p.is_rndv((32 << 10) + 1));
    }
}
