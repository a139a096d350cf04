//! Per-endpoint performance counters.
//!
//! The real Open-MX driver exports a set of counters per board and
//! endpoint (`omx_counters`); tooling and the paper's own analysis
//! lean on them to see which path a workload exercised. This is the
//! equivalent: every protocol path increments a counter, and the
//! harnesses/tests read them to assert *how* data moved, not just that
//! it arrived.
//!
//! The field list is the `omx_sim::endpoint_counters!` table, which
//! also declares each field's `counters.<field>` gauge in the metrics
//! registry.

use omx_sim::{instruments, Metrics};
use serde::{Deserialize, Serialize};

/// Expands the endpoint counter table (`omx_sim::endpoint_counters!`)
/// into the struct and the two per-field operations, so every field is
/// merged and published without a hand-kept list.
macro_rules! counters {
    ($($(#[$doc:meta])* $field:ident,)*) => {
        /// Counters of one endpoint (sender and receiver sides).
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
        pub struct Counters {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl Counters {
            /// Accumulate another endpoint's counters into this one (the
            /// cluster-wide aggregation behind [`crate::cluster::Stats`]).
            pub fn merge(&mut self, o: &Counters) {
                $(self.$field += o.$field;)*
            }

            /// Set every field's `counters.<field>` gauge of `scope` in
            /// `metrics` (idempotent), so the counters show up in the
            /// observability layer next to the busy/trace series.
            pub fn publish(&self, metrics: &Metrics, scope: u32) {
                for (k, v) in [$(self.$field),*].into_iter().enumerate() {
                    metrics.gauge_set(scope, instruments::COUNTERS.at(k), v as i64);
                }
            }
        }
    };
}

omx_sim::endpoint_counters!(counters);

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
