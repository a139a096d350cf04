//! Rank scripts and the rank state machine.

use omx_sim::Ps;
use serde::Serialize;

/// One point-to-point send within a phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct SendOp {
    /// Destination rank.
    pub to: usize,
    /// Payload bytes.
    pub bytes: u64,
    /// MPI tag.
    pub tag: u32,
}

/// One point-to-point receive within a phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct RecvOp {
    /// Source rank.
    pub from: usize,
    /// Expected bytes.
    pub bytes: u64,
    /// MPI tag.
    pub tag: u32,
}

/// One phase of a rank's script: post everything, wait for everything
/// (`MPI_Waitall`), then run local compute.
#[derive(Debug, Clone, Default, Serialize)]
pub struct Phase {
    /// Non-blocking sends posted at phase entry.
    pub sends: Vec<SendOp>,
    /// Non-blocking receives posted at phase entry.
    pub recvs: Vec<RecvOp>,
    /// Local compute after the waits (e.g. reduction arithmetic).
    pub compute: Ps,
    /// Record a timestamp when this phase completes (per-iteration
    /// timing markers).
    pub mark: bool,
}

impl Phase {
    /// A phase with a single send.
    pub fn send(to: usize, bytes: u64, tag: u32) -> Phase {
        Phase {
            sends: vec![SendOp { to, bytes, tag }],
            ..Phase::default()
        }
    }

    /// A phase with a single receive.
    pub fn recv(from: usize, bytes: u64, tag: u32) -> Phase {
        Phase {
            recvs: vec![RecvOp { from, bytes, tag }],
            ..Phase::default()
        }
    }

    /// A combined send+receive phase (`MPI_Sendrecv`).
    pub fn sendrecv(
        to: usize,
        sbytes: u64,
        stag: u32,
        from: usize,
        rbytes: u64,
        rtag: u32,
    ) -> Phase {
        Phase {
            sends: vec![SendOp {
                to,
                bytes: sbytes,
                tag: stag,
            }],
            recvs: vec![RecvOp {
                from,
                bytes: rbytes,
                tag: rtag,
            }],
            ..Phase::default()
        }
    }

    /// Pure local compute.
    pub fn compute(dur: Ps) -> Phase {
        Phase {
            compute: dur,
            ..Phase::default()
        }
    }

    /// Attach reduction compute to this phase.
    pub fn with_compute(mut self, dur: Ps) -> Phase {
        self.compute = dur;
        self
    }

    /// Mark iteration completion when this phase finishes.
    pub fn marked(mut self) -> Phase {
        self.mark = true;
        self
    }

    /// Total bytes sent by this phase.
    pub fn bytes_sent(&self) -> u64 {
        self.sends.iter().map(|s| s.bytes).sum()
    }
}

/// A rank's full script.
pub type Script = Vec<Phase>;

/// Encode (source rank, tag) into MX match information. Ranks and tags
/// both fit comfortably; the mask matches exactly.
pub fn match_info(from_rank: usize, tag: u32) -> u64 {
    ((from_rank as u64) << 32) | tag as u64
}

/// Cost of reducing `bytes` of doubles on one 2008-era core
/// (out-of-cache streaming add, ≈2 GB/s).
pub fn reduce_cost(bytes: u64) -> Ps {
    Ps::ps(bytes * 500)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_builders() {
        let p = Phase::send(1, 1024, 7);
        assert_eq!(p.sends.len(), 1);
        assert!(p.recvs.is_empty());
        assert_eq!(p.bytes_sent(), 1024);
        let p = Phase::sendrecv(1, 10, 1, 2, 20, 2);
        assert_eq!(p.sends[0].to, 1);
        assert_eq!(p.recvs[0].from, 2);
        let p = Phase::recv(0, 64, 3).marked();
        assert!(p.mark);
        let p = Phase::compute(Ps::us(5));
        assert_eq!(p.compute, Ps::us(5));
        assert_eq!(p.bytes_sent(), 0);
    }

    #[test]
    fn match_info_disambiguates() {
        assert_ne!(match_info(0, 5), match_info(1, 5));
        assert_ne!(match_info(2, 5), match_info(2, 6));
        assert_eq!(match_info(3, 9) >> 32, 3);
        assert_eq!(match_info(3, 9) & 0xFFFF_FFFF, 9);
    }

    #[test]
    fn reduce_cost_scales() {
        assert_eq!(reduce_cost(0), Ps::ZERO);
        assert_eq!(reduce_cost(2_000), Ps::us(1));
    }
}
