//! Per-endpoint performance counters.
//!
//! The real Open-MX driver exports a set of counters per board and
//! endpoint (`omx_counters`); tooling and the paper's own analysis
//! lean on them to see which path a workload exercised. This is the
//! equivalent: every protocol path increments a counter, and the
//! harnesses/tests read them to assert *how* data moved, not just that
//! it arrived.
//!
//! The fields are declared once, in the `endpoint_counters!` table
//! below; their order is the serialized order of `Stats.counters` in
//! every committed result.

use serde::Serialize;

/// Expands the endpoint counter table into the struct and its
/// `merge`, so every field is merged without a hand-kept list.
macro_rules! endpoint_counters {
    ($($(#[$doc:meta])* $field:ident,)*) => {
        /// Counters of one endpoint (sender and receiver sides).
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
        pub struct Counters {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl Counters {
            /// Accumulate another endpoint's counters into this one (the
            /// cluster-wide aggregation behind [`crate::cluster::Stats`]).
            pub fn merge(&mut self, o: &Counters) {
                $(self.$field += o.$field;)*
            }
        }
    };
}

endpoint_counters! {
    /// Tiny messages sent.
    tx_tiny,
    /// Small messages sent.
    tx_small,
    /// Medium messages sent.
    tx_medium,
    /// Medium fragments sent.
    tx_medium_frags,
    /// Large (rendezvous) messages sent.
    tx_large,
    /// Large fragments sent (pull replies).
    tx_large_frags,
    /// Payload bytes sent.
    tx_bytes,
    /// Tiny messages received.
    rx_tiny,
    /// Small messages received.
    rx_small,
    /// Medium fragments received.
    rx_medium_frags,
    /// Large fragments received.
    rx_large_frags,
    /// Rendezvous announcements received.
    rx_rndv,
    /// Payload bytes delivered to the application.
    rx_bytes,
    /// Receive copies done by the CPU (memcpy path).
    copies_memcpy,
    /// Receive copies submitted to the I/OAT engine.
    copies_offloaded,
    /// Copies that fell back from the I/OAT engine to the CPU — either
    /// steered away from a quarantined channel at submit time or
    /// rescued after a stuck channel tripped the completion-poll
    /// deadline.
    copies_fallback,
    /// Bytes copied by memcpy.
    bytes_memcpy,
    /// Bytes copied by the DMA engine.
    bytes_offloaded,
    /// Shared-memory (local) messages sent.
    shm_tx,
    /// Shared-memory one-copy transfers performed as the receiver.
    shm_pulls,
    /// Events pushed to this endpoint's ring.
    events,
    /// Messages that arrived with no matching receive posted.
    unexpected,
    /// Registration-cache hits.
    regcache_hits,
    /// Full registrations (cache misses).
    regcache_misses,
}

impl Counters {
    /// Fraction of receive-copied bytes that the DMA engine moved.
    pub fn offload_fraction(&self) -> f64 {
        let total = self.bytes_memcpy + self.bytes_offloaded;
        if total == 0 {
            return 0.0;
        }
        self.bytes_offloaded as f64 / total as f64
    }

    /// Sum of messages sent across classes.
    pub fn tx_messages(&self) -> u64 {
        self.tx_tiny + self.tx_small + self.tx_medium + self.tx_large + self.shm_tx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offload_fraction_handles_empty_and_mixed() {
        let mut c = Counters::default();
        assert_eq!(c.offload_fraction(), 0.0);
        c.bytes_memcpy = 1 << 20;
        c.bytes_offloaded = 3 << 20;
        assert!((c.offload_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn tx_messages_sums_classes() {
        let c = Counters {
            tx_tiny: 1,
            tx_small: 2,
            tx_medium: 3,
            tx_large: 4,
            shm_tx: 5,
            ..Counters::default()
        };
        assert_eq!(c.tx_messages(), 15);
    }
}
