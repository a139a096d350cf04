//! Deterministic discrete-event simulation (DES) engine.
//!
//! The whole reproduction runs on this engine: the cluster, its NICs,
//! wires, CPU cores, I/OAT DMA channels and the Open-MX protocol state
//! machines are all driven by events on a single integer-picosecond
//! clock. One engine is single-threaded, so every experiment
//! regenerates bit-identically. A simulation may also be split into
//! shards, one engine each, that [`partition`] runs in conservative
//! time windows on several threads; its output is byte-identical for
//! any shard or thread count.
//!
//! Main pieces:
//!
//! * [`time::Ps`] — picosecond time points/durations and [`time::Rate`]
//!   (bytes/second) with exact 128-bit arithmetic,
//! * [`engine::Sim`] — the event queue, generic over a user world type,
//! * [`partition`] — the conservative time-window executor of a
//!   partitioned simulation,
//! * [`resource::FifoServer`] — a serially-reusable resource (a wire, a
//!   DMA channel, a CPU core) with busy-time integration, which is
//!   where a wire's or a DMA channel's busy time is kept,
//! * [`stats`] — busy meters, throughput series and summary statistics,
//! * [`rng`] — a tiny deterministic SplitMix64 generator,
//! * [`sanitize`] — debug-build lifecycle state machines (skbuffs,
//!   pinned regions, I/OAT descriptors, pull handles) that turn leaks
//!   and reuse bugs into panics with the allocation site.

pub mod engine;
pub(crate) mod event;
pub mod partition;
pub mod reference;
pub mod resource;
pub mod rng;
pub mod sanitize;
pub mod stats;
pub mod time;
pub mod walltime;
pub(crate) mod wheel;

pub use engine::Sim;
pub use partition::{run_shards, Shard, ShardBuilder};
pub use reference::ReferenceSim;
pub use resource::FifoServer;
pub use rng::SplitMix64;
pub use sanitize::{Kind as SanitizeKind, SimSanitizer, Token as SanitizeToken};
pub use stats::{BusyMeter, Series, Summary};
pub use time::{Ps, Rate};
