//! Open-MX: message passing over generic Ethernet, with I/OAT copy
//! offload — the paper's primary contribution, as a deterministic
//! discrete-event simulation.
//!
//! Layer map (bottom-up):
//!
//! * [`proto`] — the wire protocol (tiny/small/medium eager messages,
//!   rendezvous + receiver-driven pull for large ones, acks/notify),
//! * [`matching`] — the MX 64-bit match-info/mask matching engine,
//! * [`events`] — the driver→library event ring and data slots,
//! * [`region`] — registered (pinned) regions and the registration
//!   cache,
//! * [`driver`] — the kernel side: BH receive callback with its copy
//!   paths (memcpy vs synchronous/asynchronous I/OAT), the pull engine,
//!   the one-copy shared-memory path, resource cleanup, retransmission,
//! * [`endpoint`] — the user-space library: isend/irecv, matching,
//!   event consumption,
//! * [`cluster`] — the discrete-event world wiring hosts, NICs, links,
//!   CPUs, caches and the I/OAT engine together, hosting both the
//!   Open-MX stack and the native MXoE baseline,
//! * [`app`] — the application trait benchmark state machines
//!   implement,
//! * [`harness`] — ping-pong / stream / copy micro-benchmark drivers
//!   that regenerate the paper's figures,
//! * [`autotune`], [`predict`] — the paper's future-work extensions
//!   (threshold auto-tuning, sleep-until-predicted-completion).

pub mod app;
pub mod autotune;
pub mod cluster;
pub mod config;
pub mod counters;
pub mod driver;
pub mod endpoint;
pub mod events;
pub mod fault;
pub mod harness;
pub mod libproc;
pub mod matching;
pub mod mx_stack;
pub mod partition;
pub mod predict;
pub mod proto;
pub mod region;

pub use cluster::{Cluster, ClusterParams};
pub use config::{MsgClass, OmxConfig, StackKind, SyncWaitPolicy};
pub use partition::{lookahead, run_partitioned};

use serde::Serialize;

/// Host identifier within the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Default)]
pub struct NodeId(pub u32);

/// Endpoint index within one host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Default)]
pub struct EpIdx(pub u8);

/// Globally unique address of an endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct EpAddr {
    /// Host.
    pub node: NodeId,
    /// Endpoint on that host.
    pub ep: EpIdx,
}

/// Request handle returned by isend/irecv.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct ReqId(pub u64);
