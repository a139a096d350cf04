//! Generic Linux-Ethernet substrate model.
//!
//! Open-MX deliberately targets the *generic* Ethernet layer of the
//! Linux kernel — no RDMA NICs, no modified drivers — and inherits its
//! receive architecture: the driver keeps a ring of anonymous
//! `skbuff`s, the NIC fills the next one by DMA regardless of which
//! message the frame belongs to, an interrupt schedules a bottom half,
//! and the protocol's receive callback must then *copy* the payload to
//! its real destination. This crate models exactly those pieces:
//!
//! * [`frame`] — Ethernet frames with realistic wire framing overhead
//!   and the protocol header carried inline beside the payload,
//! * [`skbuff`] — socket buffers carrying real payload bytes,
//! * [`nic`] — a NIC with an RX ring (overflow drops included) and
//!   interrupt dispatch,
//! * [`link`] — a unidirectional 10 GbE link as a FIFO server at the
//!   9953 Mbit/s effective data rate the paper quotes,
//! * [`bh`] — per-core bottom-half (softirq) queues with a NAPI-style
//!   budget,
//! * [`fault`] — per-link fault injection (Gilbert–Elliott bursty
//!   loss, FCS corruption, duplication, bounded reordering).
//!
//! Like `omx-hw`, everything is pure state + cost functions returning
//! times and actions; the `open-mx` cluster world does the scheduling.

pub mod bh;
pub mod fault;
pub mod frame;
pub mod link;
pub mod nic;
pub mod skbuff;

pub use bh::BottomHalfQueue;
pub use fault::{FrameDisposition, LinkFaultParams, LinkFaultState};
pub use frame::{EthFrame, FrameHeader};
pub use link::{Link, LinkParams};
pub use nic::{spread_queue_cores, Nic, NicParams, RxOutcome, RxWake};
pub use skbuff::Skbuff;
