//! The MX matching engine.
//!
//! MX semantics: a receive posts a 64-bit `match_info` plus a 64-bit
//! `mask`; an incoming message with match information `m` matches the
//! receive iff `(m & mask) == (match_info & mask)`. Receives match in
//! post order; unexpected messages queue in arrival order and are
//! re-examined by every new receive ("matching" box of Fig 2, done by
//! the user-space library in the paper's stack, or by the driver when
//! the `kernel_matching` extension is on).

use crate::{EpAddr, ReqId};
use bytes::Bytes;
use std::collections::VecDeque;

/// A posted receive waiting for a message.
#[derive(Debug, Clone)]
pub struct PostedRecv {
    /// The library request to complete on a match.
    pub req: ReqId,
    /// Match information.
    pub match_info: u64,
    /// Match mask.
    pub mask: u64,
    /// Capacity of the destination buffer.
    pub len: u64,
}

/// An arrived message no receive was posted for.
#[derive(Debug)]
pub enum Unexpected {
    /// Eager data buffered by the library (possibly still arriving:
    /// `arrived < total` while fragments trickle in).
    Eager {
        /// Sender address.
        src: EpAddr,
        /// Message match information.
        match_info: u64,
        /// Per-partner message sequence (reassembly key).
        msg_seq: u32,
        /// Buffered payload. Shared `Bytes`: tiny messages hand the
        /// event's inline payload over and small ones their ring
        /// slot's payload, neither copied.
        data: Bytes,
        /// Bytes arrived so far.
        arrived: u64,
        /// Total message length.
        total: u64,
    },
    /// A rendezvous announcement for a large message (no data yet; the
    /// pull starts once a receive matches).
    Rndv {
        /// Sender address.
        src: EpAddr,
        /// Message match information.
        match_info: u64,
        /// Message sequence.
        msg_seq: u32,
        /// Announced message length.
        msg_len: u64,
        /// Sender-side handle to pull from.
        sender_handle: u32,
    },
}

impl Unexpected {
    /// The message's match information.
    pub fn match_info(&self) -> u64 {
        match self {
            Unexpected::Eager { match_info, .. } | Unexpected::Rndv { match_info, .. } => {
                *match_info
            }
        }
    }

    /// Whether all data (or the rendezvous descriptor) is present so a
    /// matching receive can complete/start immediately.
    pub fn is_ready(&self) -> bool {
        match self {
            Unexpected::Eager { arrived, total, .. } => arrived >= total,
            Unexpected::Rndv { .. } => true,
        }
    }
}

/// MX match predicate.
#[inline]
pub fn matches(posted_info: u64, mask: u64, msg_info: u64) -> bool {
    (msg_info & mask) == (posted_info & mask)
}

/// Posted-receive and unexpected queues of one endpoint.
#[derive(Debug, Default)]
pub struct Matcher {
    posted: VecDeque<PostedRecv>,
    unexpected: VecDeque<Unexpected>,
}

impl Matcher {
    /// An empty matcher.
    pub fn new() -> Self {
        Self::default()
    }

    /// Post a receive. If an unexpected message already matches, it is
    /// removed and returned instead of queueing the receive — the
    /// caller then completes (or starts pulling) it immediately.
    pub fn post_recv(&mut self, recv: PostedRecv) -> Option<Unexpected> {
        if let Some(pos) = self
            .unexpected
            .iter()
            .position(|u| matches(recv.match_info, recv.mask, u.match_info()))
        {
            return self.unexpected.remove(pos);
        }
        self.posted.push_back(recv);
        None
    }

    /// An incoming message header arrived: find (and remove) the first
    /// matching posted receive.
    pub fn match_incoming(&mut self, msg_info: u64) -> Option<PostedRecv> {
        let pos = self
            .posted
            .iter()
            .position(|r| matches(r.match_info, r.mask, msg_info))?;
        self.posted.remove(pos)
    }

    /// Queue an unexpected message.
    pub fn push_unexpected(&mut self, u: Unexpected) {
        self.unexpected.push_back(u);
    }

    /// Find a buffered unexpected *eager* message by its reassembly key
    /// (later fragments of a message that arrived unexpected).
    pub fn unexpected_eager_mut(&mut self, src: EpAddr, msg_seq: u32) -> Option<&mut Unexpected> {
        self.unexpected.iter_mut().find(|u| match u {
            Unexpected::Eager {
                src: s, msg_seq: q, ..
            } => *s == src && *q == msg_seq,
            _ => false,
        })
    }

    /// Remove a posted receive by request id (used when a receive is
    /// satisfied by a buffered assembly instead of the matcher's own
    /// queues). Returns whether it was present.
    pub fn remove_posted(&mut self, req: ReqId) -> bool {
        let before = self.posted.len();
        self.posted.retain(|r| r.req != req);
        self.posted.len() != before
    }

    /// Number of posted receives waiting.
    pub fn posted_len(&self) -> usize {
        self.posted.len()
    }

    /// Number of unexpected messages queued.
    pub fn unexpected_len(&self) -> usize {
        self.unexpected.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EpIdx, NodeId};

    fn addr() -> EpAddr {
        EpAddr {
            node: NodeId(0),
            ep: EpIdx(0),
        }
    }

    fn recv(req: u64, info: u64, mask: u64) -> PostedRecv {
        PostedRecv {
            req: ReqId(req),
            match_info: info,
            mask,
            len: 1024,
        }
    }

    fn eager(info: u64, seq: u32) -> Unexpected {
        Unexpected::Eager {
            src: addr(),
            match_info: info,
            msg_seq: seq,
            data: Bytes::from(vec![0u8; 8]),
            arrived: 8,
            total: 8,
        }
    }

    #[test]
    fn exact_match_predicate() {
        assert!(matches(0xAB, u64::MAX, 0xAB));
        assert!(!matches(0xAB, u64::MAX, 0xAC));
        // Mask ignores unmasked bits.
        assert!(matches(0xAB00, 0xFF00, 0xABFF));
        // Zero mask matches anything.
        assert!(matches(0, 0, 0xFFFF_FFFF));
    }

    #[test]
    fn posted_receives_match_in_order() {
        let mut m = Matcher::new();
        assert!(m.post_recv(recv(1, 10, u64::MAX)).is_none());
        assert!(m.post_recv(recv(2, 10, u64::MAX)).is_none());
        let hit = m.match_incoming(10).unwrap();
        assert_eq!(hit.req, ReqId(1), "FIFO order");
        let hit = m.match_incoming(10).unwrap();
        assert_eq!(hit.req, ReqId(2));
        assert!(m.match_incoming(10).is_none());
    }

    #[test]
    fn wildcard_mask_matches_any_incoming() {
        let mut m = Matcher::new();
        m.post_recv(recv(1, 0, 0));
        assert!(m.match_incoming(0x1234).is_some());
    }

    #[test]
    fn unexpected_consumed_by_later_recv() {
        let mut m = Matcher::new();
        m.push_unexpected(eager(42, 0));
        m.push_unexpected(eager(43, 1));
        let u = m.post_recv(recv(1, 43, u64::MAX)).expect("match waiting");
        assert_eq!(u.match_info(), 43);
        assert!(u.is_ready());
        assert_eq!(m.unexpected_len(), 1);
        assert_eq!(m.posted_len(), 0, "receive must not also queue");
    }

    #[test]
    fn unexpected_matched_in_arrival_order() {
        let mut m = Matcher::new();
        m.push_unexpected(eager(7, 0));
        m.push_unexpected(eager(7, 1));
        if let Some(Unexpected::Eager { msg_seq, .. }) = m.post_recv(recv(1, 7, u64::MAX)) {
            assert_eq!(msg_seq, 0, "oldest unexpected first");
        } else {
            panic!("expected eager match");
        }
    }

    #[test]
    fn partial_unexpected_lookup_by_key() {
        let mut m = Matcher::new();
        m.push_unexpected(Unexpected::Eager {
            src: addr(),
            match_info: 5,
            msg_seq: 3,
            data: Bytes::from(vec![0; 16]),
            arrived: 8,
            total: 16,
        });
        let u = m.unexpected_eager_mut(addr(), 3).expect("found");
        assert!(!u.is_ready());
        if let Unexpected::Eager { arrived, .. } = u {
            *arrived = 16;
        }
        assert!(m.unexpected_eager_mut(addr(), 3).unwrap().is_ready());
        assert!(m.unexpected_eager_mut(addr(), 9).is_none());
    }

    #[test]
    fn rndv_unexpected_is_ready_immediately() {
        let mut m = Matcher::new();
        m.push_unexpected(Unexpected::Rndv {
            src: addr(),
            match_info: 9,
            msg_seq: 0,
            msg_len: 1 << 20,
            sender_handle: 4,
        });
        let u = m.post_recv(recv(1, 9, u64::MAX)).unwrap();
        assert!(u.is_ready());
        match u {
            Unexpected::Rndv {
                msg_len,
                sender_handle,
                ..
            } => {
                assert_eq!(msg_len, 1 << 20);
                assert_eq!(sender_handle, 4);
            }
            _ => panic!("wrong kind"),
        }
    }

    #[test]
    fn non_matching_recv_queues() {
        let mut m = Matcher::new();
        m.push_unexpected(eager(42, 0));
        assert!(m.post_recv(recv(1, 99, u64::MAX)).is_none());
        assert_eq!(m.posted_len(), 1);
        assert_eq!(m.unexpected_len(), 1);
    }
}
