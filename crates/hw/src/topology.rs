//! Host topology: cores, dual-core subchips, sockets.
//!
//! The paper's hosts are dual-socket Xeon E5345 "Clovertown": each
//! socket carries two dual-core subchips and each subchip shares one
//! 4 MB L2 between its two cores (paper Fig 4). Cache sharing — not
//! socket boundaries — is what decides the Fig 10 memcpy rates, so the
//! central query here is [`Topology::distance`].

use serde::Serialize;

/// Index of a CPU core on one host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct CoreId(pub u32);

/// Index of a dual-core subchip on one host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct SubchipId(pub u32);

/// Cache/socket relationship between two cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Distance {
    /// The same core.
    SameCore,
    /// Different cores sharing an L2 (same dual-core subchip).
    SameSubchip,
    /// Same socket, different subchips (no shared L2 on Clovertown).
    SameSocket,
    /// Different sockets (traffic crosses the FSB/chipset).
    CrossSocket,
}

/// Shape of one host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Topology {
    /// Number of sockets.
    pub sockets: u32,
    /// Dual-core subchips per socket.
    pub subchips_per_socket: u32,
    /// Cores per subchip.
    pub cores_per_subchip: u32,
}

impl Default for Topology {
    /// The paper's host: 2 sockets × 2 subchips × 2 cores = 8 cores.
    fn default() -> Self {
        Topology {
            sockets: 2,
            subchips_per_socket: 2,
            cores_per_subchip: 2,
        }
    }
}

impl Topology {
    /// Total core count.
    pub fn num_cores(&self) -> u32 {
        self.sockets * self.subchips_per_socket * self.cores_per_subchip
    }

    /// Total subchip count.
    pub fn num_subchips(&self) -> u32 {
        self.sockets * self.subchips_per_socket
    }

    /// Subchip that owns `core`. Panics on an out-of-range core, which
    /// would indicate a wiring bug elsewhere.
    pub fn subchip_of(&self, core: CoreId) -> SubchipId {
        assert!(core.0 < self.num_cores(), "core {core:?} out of range");
        SubchipId(core.0 / self.cores_per_subchip)
    }

    /// Socket that owns `core`.
    pub fn socket_of(&self, core: CoreId) -> u32 {
        self.subchip_of(core).0 / self.subchips_per_socket
    }

    /// Cache/socket distance between two cores.
    pub fn distance(&self, a: CoreId, b: CoreId) -> Distance {
        if a == b {
            Distance::SameCore
        } else if self.subchip_of(a) == self.subchip_of(b) {
            Distance::SameSubchip
        } else if self.socket_of(a) == self.socket_of(b) {
            Distance::SameSocket
        } else {
            Distance::CrossSocket
        }
    }

    /// Iterate all cores.
    pub fn cores(&self) -> impl Iterator<Item = CoreId> {
        (0..self.num_cores()).map(CoreId)
    }

    /// A core on a different socket than `core` (used to place a
    /// cross-socket peer); `None` on single-socket machines.
    pub fn peer_cross_socket(&self, core: CoreId) -> Option<CoreId> {
        let socket = self.socket_of(core);
        self.cores().find(|&c| self.socket_of(c) != socket)
    }

    /// The other core on the same subchip as `core`, if any.
    pub fn peer_same_subchip(&self, core: CoreId) -> Option<CoreId> {
        self.cores()
            .find(|&c| c != core && self.subchip_of(c) == self.subchip_of(core))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clovertown_shape() {
        let t = Topology::default();
        assert_eq!(t.num_cores(), 8);
        assert_eq!(t.num_subchips(), 4);
    }

    #[test]
    fn subchip_and_socket_mapping() {
        let t = Topology::default();
        assert_eq!(t.subchip_of(CoreId(0)), SubchipId(0));
        assert_eq!(t.subchip_of(CoreId(1)), SubchipId(0));
        assert_eq!(t.subchip_of(CoreId(2)), SubchipId(1));
        assert_eq!(t.subchip_of(CoreId(7)), SubchipId(3));
        assert_eq!(t.socket_of(CoreId(0)), 0);
        assert_eq!(t.socket_of(CoreId(3)), 0);
        assert_eq!(t.socket_of(CoreId(4)), 1);
        assert_eq!(t.socket_of(CoreId(7)), 1);
    }

    #[test]
    fn distances() {
        let t = Topology::default();
        assert_eq!(t.distance(CoreId(0), CoreId(0)), Distance::SameCore);
        assert_eq!(t.distance(CoreId(0), CoreId(1)), Distance::SameSubchip);
        assert_eq!(t.distance(CoreId(0), CoreId(2)), Distance::SameSocket);
        assert_eq!(t.distance(CoreId(0), CoreId(4)), Distance::CrossSocket);
        // Symmetry.
        assert_eq!(t.distance(CoreId(4), CoreId(0)), Distance::CrossSocket);
    }

    #[test]
    fn peer_helpers() {
        let t = Topology::default();
        assert_eq!(t.peer_same_subchip(CoreId(0)), Some(CoreId(1)));
        assert_eq!(t.peer_same_subchip(CoreId(1)), Some(CoreId(0)));
        let p = t.peer_cross_socket(CoreId(0)).unwrap();
        assert_eq!(t.socket_of(p), 1);
        // Single-socket machine has no cross-socket peer.
        let uni = Topology {
            sockets: 1,
            subchips_per_socket: 2,
            cores_per_subchip: 2,
        };
        assert_eq!(uni.peer_cross_socket(CoreId(0)), None);
        assert_eq!(uni.num_cores(), 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_core_panics() {
        Topology::default().subchip_of(CoreId(8));
    }
}
