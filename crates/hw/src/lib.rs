//! Hardware cost models for the reproduction testbed.
//!
//! The paper ran on dual quad-core Xeon E5345 "Clovertown" hosts (two
//! dual-core subchips per socket, 4 MB shared L2 per subchip) with the
//! Intel 5000X chipset providing a 4-channel I/OAT DMA engine. This
//! crate models exactly the quantities the paper's analysis depends on:
//!
//! * [`params::HwParams`] — every calibration constant, with defaults
//!   matching the numbers quoted in §IV-A of the paper,
//! * [`topology`] — cores, subchips, sockets and their cache-sharing
//!   distance,
//! * [`cache`] — a coarse per-subchip cache-occupancy model,
//! * [`mem`] — the memcpy cost model (cached / uncached / cross-socket,
//!   per-chunk startup),
//! * [`ioat`] — the I/OAT DMA engine (per-descriptor submission and
//!   hardware startup costs, raw copy rate, in-order poll-only
//!   completion, 4 independent channels),
//! * [`cpu`] — CPU cores as FIFO servers with per-category busy-time
//!   accounting (the basis of the paper's Figure 9).
//!
//! Everything here is *pure state + cost functions*: no event
//! scheduling. The `open-mx` cluster world interprets the returned
//! times, which keeps these models unit-testable in isolation.

pub mod cache;
pub mod cpu;
pub mod ioat;
pub mod mem;
pub mod params;
pub mod topology;

pub use cache::CacheModel;
pub use cpu::{Core, CpuSet};
pub use ioat::{CopyHandle, IoatEngine};
pub use mem::MemModel;
pub use params::HwParams;
pub use topology::{CoreId, Distance, SubchipId, Topology};
