//! The instrument table: every metric the simulator records, declared
//! once.
//!
//! Each row of the table below gives an instrument's constant id, its
//! kind ([`Counter`], [`Gauge`] or [`Busy`]), its dotted name and,
//! for a family, the labels it fans out over (`* QUEUES`: one member
//! per RX queue; `* FIELDS`: one per endpoint counter field). The
//! macro hands every row a dense slot range at compile time, so the
//! registry ([`crate::Metrics`]) keeps one node's instruments in one
//! flat array and recording is a checked index plus an add.
//!
//! Adding an instrument is adding a row: recording sites and readers
//! name it by its constant (`instruments::NIC_FRAMES`, or
//! `instruments::NIC_Q_FRAMES.at(queue)` for a family member), and
//! snapshots render it as `s<scope>.<name>`.

use std::marker::PhantomData;

/// Hard cap on modeled RX queues: each per-queue family has one member
/// per queue (and no modeled host has more than 8 cores anyway).
pub const MAX_QUEUES: usize = 8;

/// What an instrument accumulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A monotonic `u64` total.
    Counter,
    /// A last-value or high-watermark `i64`.
    Gauge,
    /// An accumulated busy time in [`crate::Ps`], plus the job count
    /// of a metered [`crate::FifoServer`] under the same name.
    Busy,
}

/// How many members a row has and what each member is called: the
/// label of member `k` replaces the `{}` in the row's name.
#[derive(Debug, Clone, Copy)]
pub enum Labels {
    /// A single instrument (the name has no `{}`).
    One,
    /// Members `0..n`, labelled by their index.
    Index(usize),
    /// One member per listed label.
    List(&'static [&'static str]),
}

/// One per RX queue: `nic.q{}.frames` expands to `nic.q0.frames` ….
pub const QUEUES: Labels = Labels::Index(MAX_QUEUES);

/// One per endpoint counter field: `counters.{}` expands to
/// `counters.tx_tiny` ….
pub const FIELDS: Labels = Labels::List(COUNTER_FIELDS);

/// One row of the instrument table.
#[derive(Debug, Clone, Copy)]
pub struct Desc {
    /// Dotted name; `{}` marks where a family member's label goes.
    pub name: &'static str,
    /// What the instrument accumulates.
    pub kind: Kind,
    /// Family members, or [`Labels::One`].
    pub labels: Labels,
}

impl Desc {
    /// Number of members.
    pub const fn width(&self) -> usize {
        match self.labels {
            Labels::One => 1,
            Labels::Index(n) => n,
            Labels::List(l) => l.len(),
        }
    }

    /// Slots one member occupies: a busy instrument keeps its integral
    /// and its job count side by side.
    pub(crate) const fn stride(&self) -> usize {
        match self.kind {
            Kind::Busy => 2,
            Kind::Counter | Kind::Gauge => 1,
        }
    }

    /// Slots the whole row occupies.
    const fn span(&self) -> usize {
        self.width() * self.stride()
    }

    /// The dotted name of member `k`.
    pub fn member_name(&self, k: usize) -> String {
        match self.labels {
            Labels::One => self.name.to_string(),
            Labels::Index(_) => self.name.replacen("{}", &k.to_string(), 1),
            Labels::List(l) => self
                .name
                .replacen("{}", l.get(k).copied().unwrap_or("?"), 1),
        }
    }
}

/// Id of a counter instrument.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Counter(pub(crate) u16);

/// Id of a gauge instrument.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Gauge(pub(crate) u16);

/// Id of a busy-time instrument.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Busy(pub(crate) u16);

/// An id whose slot the registry never stores: what [`Family::at`]
/// returns for an out-of-range member, so a bad index records nothing
/// instead of landing in a neighbouring instrument.
const NO_SLOT: u16 = u16::MAX;

/// A member id of a family (one slot per member).
pub trait Member: Copy {
    /// The id of the instrument stored at `slot`.
    fn at_slot(slot: u16) -> Self;
}

impl Member for Counter {
    fn at_slot(slot: u16) -> Self {
        Counter(slot)
    }
}

impl Member for Gauge {
    fn at_slot(slot: u16) -> Self {
        Gauge(slot)
    }
}

/// A row of [`Labels::Index`] or [`Labels::List`] members.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Family<I> {
    base: u16,
    width: u16,
    member: PhantomData<I>,
}

impl<I: Member> Family<I> {
    /// Number of members.
    pub fn width(self) -> usize {
        usize::from(self.width)
    }

    /// Member `k`; an id that records nothing when `k` is out of range.
    #[inline]
    pub fn at(self, k: usize) -> I {
        if k < usize::from(self.width) {
            I::at_slot(self.base + k as u16)
        } else {
            I::at_slot(NO_SLOT)
        }
    }
}

/// The endpoint protocol counter table, as an X-macro: invokes
/// `$then!` with one `/// doc` + `field,` entry per counter, in
/// declaration order. `open_mx::counters` generates the `Counters`
/// struct, its `merge` and its `publish` from it; this module derives
/// [`COUNTER_FIELDS`] and so the `counters.<field>` gauge family from
/// the same list, so a field cannot exist without its instrument.
#[macro_export]
macro_rules! endpoint_counters {
    ($then:ident) => {
        $then! {
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
    };
}

macro_rules! field_names {
    ($($(#[$doc:meta])* $field:ident,)*) => {
        &[$(stringify!($field)),*]
    };
}

/// The endpoint counter field names, in declaration order.
pub const COUNTER_FIELDS: &[&str] = endpoint_counters!(field_names);

macro_rules! instruments {
    (@labels) => { Labels::One };
    (@labels $labels:expr) => { $labels };
    (@ty $kind:ident) => { $kind };
    (@ty $kind:ident $labels:expr) => { Family<$kind> };
    (@id $kind:ident, $row:expr) => { $kind(slot_of($row as usize)) };
    (@id $kind:ident, $row:expr, $labels:expr) => {
        Family {
            base: slot_of($row as usize),
            width: TABLE[$row as usize].width() as u16,
            member: PhantomData,
        }
    };
    ($($(#[$doc:meta])* $id:ident: $kind:ident = $name:literal $(* $labels:expr)?;)*) => {
        #[allow(non_camel_case_types, clippy::upper_case_acronyms)]
        enum Row {
            $($id),*
        }

        /// Every row, in declaration (and slot) order.
        pub const TABLE: &[Desc] = &[$(Desc {
            name: $name,
            kind: Kind::$kind,
            labels: instruments!(@labels $($labels)?),
        }),*];

        $(
            $(#[$doc])*
            pub const $id: instruments!(@ty $kind $($labels)?) =
                instruments!(@id $kind, Row::$id $(, $labels)?);
        )*
    };
}

/// First slot of row `row`: the spans of every earlier row, summed.
const fn slot_of(row: usize) -> u16 {
    let mut slot = 0;
    let mut k = 0;
    while k < row {
        slot += TABLE[k].span();
        k += 1;
    }
    slot as u16
}

/// Slots per scope: the whole table laid end to end.
pub const SLOTS: usize = slot_of(TABLE.len()) as usize;

const _: () = assert!(SLOTS < NO_SLOT as usize, "instrument table outgrew u16 ids");

/// Every stored slot: `(slot, row, member)`. A busy member's job count
/// lives at `slot + 1`.
pub(crate) fn members() -> impl Iterator<Item = (usize, &'static Desc, usize)> {
    TABLE
        .iter()
        .scan(0, |base, d| {
            let first = *base;
            *base += d.span();
            Some((first, d))
        })
        .flat_map(|(first, d)| (0..d.width()).map(move |k| (first + k * d.stride(), d, k)))
}

instruments! {
    // Receive NIC (omx-ethernet), per node.
    /// Frames deposited into an RX ring.
    NIC_FRAMES: Counter = "nic.frames";
    /// Payload bytes of the deposited frames.
    NIC_BYTES: Counter = "nic.bytes";
    /// Frames lost to a full RX ring.
    NIC_RING_DROPS: Counter = "nic.ring_drops";
    /// Frames discarded by the hardware FCS check.
    NIC_CORRUPT_DROPS: Counter = "nic.corrupt_drops";
    /// Hard interrupts raised.
    NIC_IRQS: Counter = "nic.irqs";
    /// Frames whose interrupt the moderation window suppressed.
    NIC_IRQS_COALESCED: Counter = "nic.irqs_coalesced";
    /// Highest RX-ring occupancy over all queues.
    NIC_RING_HIGH_WATERMARK: Gauge = "nic.ring_high_watermark";
    /// [`NIC_FRAMES`] per RX queue.
    NIC_Q_FRAMES: Counter = "nic.q{}.frames" * QUEUES;
    /// [`NIC_IRQS`] per RX queue.
    NIC_Q_IRQS: Counter = "nic.q{}.irqs" * QUEUES;
    /// [`NIC_IRQS_COALESCED`] per RX queue.
    NIC_Q_IRQS_COALESCED: Counter = "nic.q{}.irqs_coalesced" * QUEUES;
    /// [`NIC_RING_DROPS`] per RX queue.
    NIC_Q_RING_DROPS: Counter = "nic.q{}.ring_drops" * QUEUES;
    /// [`NIC_RING_HIGH_WATERMARK`] per RX queue.
    NIC_Q_RING_HIGH_WATERMARK: Gauge = "nic.q{}.ring_high_watermark" * QUEUES;

    // Bottom halves (omx-ethernet) and the driver's receive copies.
    /// Skbuffs queued on a bottom half.
    BH_ENQUEUED: Counter = "bh.enqueued";
    /// Skbuffs a bottom half took off its queue.
    BH_DRAINED: Counter = "bh.drained";
    /// Deepest bottom-half backlog.
    BH_BACKLOG_HIGH_WATERMARK: Gauge = "bh.backlog_high_watermark";
    /// Fragments that rode a GRO train (header parse skipped).
    BH_GRO_COALESCED: Counter = "bh.gro_coalesced";
    /// CPU time of bottom-half memcpy receive copies.
    BH_COPY: Busy = "bh.copy";
    /// Bytes of bottom-half memcpy receive copies.
    BH_COPY_BYTES: Counter = "bh.copy_bytes";
    /// CPU time of shared-memory copies.
    SHM_COPY: Busy = "shm.copy";
    /// Bytes of shared-memory copies.
    SHM_COPY_BYTES: Counter = "shm.copy_bytes";

    // Wire (omx-ethernet), metered per sending node.
    /// Wire serialization time and frames serialized.
    LINK_WIRE: Busy = "link.wire";

    // I/OAT engine (omx-hw) and the driver's use of it.
    /// DMA channel busy time and copies admitted.
    IOAT_CHANNEL: Busy = "ioat.channel";
    /// Shared memory-port busy time and copies admitted.
    IOAT_MEM_PORT: Busy = "ioat.mem_port";
    /// CPU time spent submitting descriptors.
    IOAT_SUBMIT_CPU: Busy = "ioat.submit_cpu";
    /// CPU time spent polling for copy completion.
    IOAT_POLL_WAIT: Busy = "ioat.poll_wait";
    /// Bytes handed to the engine.
    IOAT_BYTES: Counter = "ioat.bytes";
    /// Descriptors handed to the engine.
    IOAT_DESCRIPTORS: Counter = "ioat.descriptors";
    /// Zero-length copies (completed without a descriptor).
    IOAT_ZERO_LEN_COPIES: Counter = "ioat.zero_len_copies";
    /// Copies delayed or lost by an injected channel fault.
    IOAT_STALLED_COPIES: Counter = "ioat.stalled_copies";
    /// Channels newly quarantined.
    IOAT_QUARANTINES: Counter = "ioat.quarantines";
    /// Quarantined channels re-enabled after their cool-down.
    IOAT_REPROBES: Counter = "ioat.reprobes";
    /// Offloaded copies redone or steered onto the CPU.
    IOAT_FALLBACK_COPIES: Counter = "ioat.fallback_copies";
    /// Bytes of those fallback copies.
    IOAT_FALLBACK_BYTES: Counter = "ioat.fallback_bytes";

    // Driver retransmission and pull-credit control (open-mx).
    /// Eager retransmissions.
    DRIVER_RETRANSMISSIONS: Counter = "driver.retransmissions";
    /// Sends aborted after their last retransmission.
    DRIVER_SEND_FAILURES: Counter = "driver.send_failures";
    /// Retransmission-timeout backoff steps.
    DRIVER_BACKOFF_ESCALATIONS: Counter = "driver.backoff_escalations";
    /// Pulls that waited for the shared credit budget.
    CREDIT_STALLS: Counter = "credit.stalls";
    /// Additive credit-budget increases.
    CREDIT_REGROWS: Counter = "credit.regrows";
    /// Multiplicative credit-budget decreases.
    CREDIT_SHRINKS: Counter = "credit.shrinks";
    /// Credit NACKs sent by this (overloaded) receiver.
    CREDIT_NACKS: Counter = "credit.nacks";
    /// Credit NACKs received by this sender.
    CREDIT_NACKS_RECEIVED: Counter = "credit.nacks_received";

    // Injected wire faults (open-mx cluster), per sending node.
    /// Frames dropped by loss injection.
    FAULT_FRAMES_DROPPED: Counter = "fault.frames_dropped";
    /// Frames corrupted by injection.
    FAULT_FRAMES_CORRUPTED: Counter = "fault.frames_corrupted";
    /// Frames held back by reordering injection.
    FAULT_FRAMES_REORDERED: Counter = "fault.frames_reordered";
    /// Frames duplicated by injection.
    FAULT_FRAMES_DUPLICATED: Counter = "fault.frames_duplicated";

    // Endpoint protocol counters, summed per node by
    // `Cluster::stats_snapshot`.
    /// One gauge per `Counters` field.
    COUNTERS: Gauge = "counters.{}" * FIELDS;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn member_names_are_unique_and_slots_dense() {
        let mut names = BTreeSet::new();
        let mut next = 0;
        for (slot, d, k) in members() {
            assert_eq!(slot, next, "slots are laid end to end");
            next = slot + d.stride();
            assert!(names.insert(d.member_name(k)), "{} twice", d.member_name(k));
        }
        assert_eq!(next, SLOTS);
        assert!(names.contains("nic.q7.ring_high_watermark"));
        assert!(names.contains("counters.regcache_misses"));
    }

    #[test]
    fn family_members_are_consecutive_and_bounded() {
        assert_eq!(NIC_Q_FRAMES.width(), MAX_QUEUES);
        assert_eq!(NIC_Q_FRAMES.at(3).0, NIC_Q_FRAMES.at(0).0 + 3);
        assert_eq!(NIC_Q_FRAMES.at(MAX_QUEUES).0, NO_SLOT);
        assert_eq!(COUNTERS.width(), COUNTER_FIELDS.len());
        assert_eq!(COUNTER_FIELDS[0], "tx_tiny");
    }
}
