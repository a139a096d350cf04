//! The instrument table: every busy-time integral the simulator
//! records, declared once.
//!
//! Each row gives an instrument's constant id and its dotted name. The
//! six rows are the components a run's receive time splits into (the
//! `ComponentBreakdown` of `open_mx::harness`): the wire, bottom-half
//! and shared-memory memcpy, the I/OAT channels, descriptor submission
//! and completion polling. The macro numbers the rows densely, so the
//! registry ([`crate::Metrics`]) keeps one node's integrals in one
//! flat array and recording is a checked index plus an add.
//!
//! A new instrument is a new row, and it lands together with the
//! result or artifact that reads it.

/// Id of a busy-time instrument: its slot in a scope's row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Busy(pub(crate) u16);

macro_rules! instruments {
    ($($(#[$doc:meta])* $id:ident = $name:literal;)*) => {
        #[allow(non_camel_case_types, clippy::upper_case_acronyms)]
        enum Row {
            $($id),*
        }

        /// Every row's dotted name, in slot order.
        pub const NAMES: &[&str] = &[$($name),*];

        $(
            $(#[$doc])*
            pub const $id: Busy = Busy(Row::$id as u16);
        )*
    };
}

/// Slots per scope: one per row.
pub const SLOTS: usize = NAMES.len();

instruments! {
    /// Wire serialization time, metered per sending node.
    LINK_WIRE = "link.wire";
    /// CPU time of bottom-half memcpy receive copies.
    BH_COPY = "bh.copy";
    /// CPU time of shared-memory copies.
    SHM_COPY = "shm.copy";
    /// DMA channel busy time (descriptor execution).
    IOAT_CHANNEL = "ioat.channel";
    /// CPU time spent submitting descriptors.
    IOAT_SUBMIT_CPU = "ioat.submit_cpu";
    /// CPU time spent polling for copy completion.
    IOAT_POLL_WAIT = "ioat.poll_wait";
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn rows_are_dense_and_named_once() {
        let ids = [
            LINK_WIRE,
            BH_COPY,
            SHM_COPY,
            IOAT_CHANNEL,
            IOAT_SUBMIT_CPU,
            IOAT_POLL_WAIT,
        ];
        for (slot, id) in ids.iter().enumerate() {
            assert_eq!(usize::from(id.0), slot);
        }
        assert_eq!(SLOTS, ids.len());
        assert_eq!(NAMES.iter().collect::<BTreeSet<_>>().len(), SLOTS);
        assert_eq!(NAMES[usize::from(IOAT_CHANNEL.0)], "ioat.channel");
    }
}
