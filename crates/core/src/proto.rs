//! The Open-MX wire protocol.
//!
//! Every frame payload starts with a header: a one-byte packet kind,
//! the source and destination endpoint indices, then kind-specific
//! fields in little-endian order. Data-bearing packets follow it with
//! the raw data bytes. The header travels inline in the frame
//! ([`FrameHeader`]) and the data as a shared slice of the sender's
//! message, so building a frame copies no payload byte; the wire still
//! carries header plus data. Real bytes travel end to end, so any
//! mis-framing corrupts payloads and the integrity tests catch it.
//!
//! The message types mirror the real stack (§II, §III):
//!
//! * `Tiny`/`Small` — eager single-frame messages,
//! * `MediumFrag` — eager multi-fragment messages reassembled through
//!   the per-endpoint ring,
//! * `RndvReq` — the rendezvous announcement for large messages,
//! * `PullReq` — receiver-driven request for one block of fragments
//!   ("two pipelined blocks of 8 fragments are outstanding"),
//! * `LargeFrag` — one pulled fragment, deposited (copied) into the
//!   pinned destination region,
//! * `Notify` — receiver→sender completion of a large transfer,
//! * `Ack` — eager-message acknowledgment (drives retransmission).

use bytes::Bytes;
use omx_ethernet::FrameHeader;

/// One parsed Open-MX packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Packet {
    /// Eager message whose payload rides inside the receive event.
    Tiny {
        /// Sending endpoint index on the source host.
        src_ep: u8,
        /// Destination endpoint index on the receiving host.
        dst_ep: u8,
        /// 64-bit MX match information.
        match_info: u64,
        /// Per-partner message sequence number.
        msg_seq: u32,
        /// Payload (≤ 32 bytes).
        data: Bytes,
    },
    /// Eager single-fragment message copied through one ring slot.
    Small {
        /// Sending endpoint index.
        src_ep: u8,
        /// Destination endpoint index.
        dst_ep: u8,
        /// Match information.
        match_info: u64,
        /// Message sequence number.
        msg_seq: u32,
        /// Payload (≤ 128 bytes).
        data: Bytes,
    },
    /// One fragment of an eager medium message.
    MediumFrag {
        /// Sending endpoint index.
        src_ep: u8,
        /// Destination endpoint index.
        dst_ep: u8,
        /// Match information (repeated on every fragment so matching
        /// can happen on the first to arrive).
        match_info: u64,
        /// Message sequence number.
        msg_seq: u32,
        /// Total message length.
        msg_len: u32,
        /// This fragment's index.
        frag_idx: u16,
        /// Total fragment count.
        frag_count: u16,
        /// Byte offset of this fragment in the message.
        offset: u32,
        /// Fragment payload.
        data: Bytes,
    },
    /// Rendezvous request announcing a large message.
    RndvReq {
        /// Sending endpoint index.
        src_ep: u8,
        /// Destination endpoint index.
        dst_ep: u8,
        /// Match information.
        match_info: u64,
        /// Message sequence number.
        msg_seq: u32,
        /// Total message length.
        msg_len: u64,
        /// Sender-side handle to quote in pull requests.
        sender_handle: u32,
    },
    /// Receiver-driven request for a block of large-message fragments.
    PullReq {
        /// Requesting (receiver) endpoint index.
        src_ep: u8,
        /// Sender endpoint index.
        dst_ep: u8,
        /// Sender-side handle from the rendezvous.
        sender_handle: u32,
        /// Receiver-side pull handle (echoed on data fragments).
        recv_handle: u32,
        /// First fragment requested.
        frag_start: u32,
        /// Number of fragments requested.
        frag_count: u32,
    },
    /// One pulled fragment of a large message.
    LargeFrag {
        /// Sending endpoint index.
        src_ep: u8,
        /// Destination endpoint index.
        dst_ep: u8,
        /// Receiver-side pull handle.
        recv_handle: u32,
        /// Fragment index within the message.
        frag_idx: u32,
        /// Byte offset within the destination region.
        offset: u64,
        /// Fragment payload.
        data: Bytes,
    },
    /// Receiver→sender completion notification of a large transfer.
    Notify {
        /// Receiver endpoint index.
        src_ep: u8,
        /// Sender endpoint index.
        dst_ep: u8,
        /// Sender-side handle being completed.
        sender_handle: u32,
    },
    /// Acknowledgment of a fully received eager message.
    Ack {
        /// Acknowledging (receiver) endpoint index.
        src_ep: u8,
        /// Original sender endpoint index.
        dst_ep: u8,
        /// Sequence number being acknowledged.
        msg_seq: u32,
    },
    /// Receiver→sender congestion notification (credit revoke): the
    /// receiver's RX ring shed a pulled fragment while credit-based
    /// congestion control was active. The sender reacts by escalating
    /// the matching pending send's adaptive RTO — drops turn into
    /// pacing instead of a lock-step retransmit storm. Block *grants*
    /// need no packet of their own: a `PullReq` is the grant.
    CreditNack {
        /// Notifying (receiver) endpoint index.
        src_ep: u8,
        /// Sender endpoint index.
        dst_ep: u8,
        /// Sender-side handle of the affected large transfer (0 when
        /// the receiver could not attribute the shed frame — the
        /// sender then backs off every pending send to this peer).
        sender_handle: u32,
    },
}

const KIND_TINY: u8 = 1;
const KIND_SMALL: u8 = 2;
const KIND_MEDIUM: u8 = 3;
const KIND_RNDV: u8 = 4;
const KIND_PULLREQ: u8 = 5;
const KIND_LARGEFRAG: u8 = 6;
const KIND_NOTIFY: u8 = 7;
const KIND_ACK: u8 = 8;
const KIND_CREDIT_NACK: u8 = 9;

struct Writer(FrameHeader);

impl Writer {
    fn u8(&mut self, v: u8) {
        self.0.put(&[v]);
    }
    fn u16(&mut self, v: u16) {
        self.0.put(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.0.put(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.put(&v.to_le_bytes());
    }
}

/// Reads header fields front to back; a read past the end is
/// [`ParseError::Truncated`].
struct Reader<'a>(&'a [u8]);

impl Reader<'_> {
    fn take<const N: usize>(&mut self) -> Result<[u8; N], ParseError> {
        let (field, rest) = self.0.split_first_chunk().ok_or(ParseError::Truncated)?;
        self.0 = rest;
        Ok(*field)
    }
    fn u8(&mut self) -> Result<u8, ParseError> {
        let [v] = self.take()?;
        Ok(v)
    }
    fn u16(&mut self) -> Result<u16, ParseError> {
        Ok(u16::from_le_bytes(self.take()?))
    }
    fn u32(&mut self) -> Result<u32, ParseError> {
        Ok(u32::from_le_bytes(self.take()?))
    }
    fn u64(&mut self) -> Result<u64, ParseError> {
        Ok(u64::from_le_bytes(self.take()?))
    }
}

/// Packet parse failures (malformed or truncated frames).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseError {
    /// Frame shorter than its header claims.
    Truncated,
    /// Unknown packet kind byte.
    UnknownKind(u8),
}

impl Packet {
    /// Encode for the wire: the protocol header, and the data bytes
    /// that follow it (empty for control packets). The data moves out
    /// of the packet as is — a slice of the sender's message — so
    /// encoding copies no payload byte and touches no allocator.
    pub fn encode(self) -> (FrameHeader, Bytes) {
        let mut w = Writer(FrameHeader::default());
        let data = match self {
            Packet::Tiny {
                src_ep,
                dst_ep,
                match_info,
                msg_seq,
                data,
            } => {
                w.u8(KIND_TINY);
                w.u8(src_ep);
                w.u8(dst_ep);
                w.u64(match_info);
                w.u32(msg_seq);
                data
            }
            Packet::Small {
                src_ep,
                dst_ep,
                match_info,
                msg_seq,
                data,
            } => {
                w.u8(KIND_SMALL);
                w.u8(src_ep);
                w.u8(dst_ep);
                w.u64(match_info);
                w.u32(msg_seq);
                data
            }
            Packet::MediumFrag {
                src_ep,
                dst_ep,
                match_info,
                msg_seq,
                msg_len,
                frag_idx,
                frag_count,
                offset,
                data,
            } => {
                w.u8(KIND_MEDIUM);
                w.u8(src_ep);
                w.u8(dst_ep);
                w.u64(match_info);
                w.u32(msg_seq);
                w.u32(msg_len);
                w.u16(frag_idx);
                w.u16(frag_count);
                w.u32(offset);
                data
            }
            Packet::RndvReq {
                src_ep,
                dst_ep,
                match_info,
                msg_seq,
                msg_len,
                sender_handle,
            } => {
                w.u8(KIND_RNDV);
                w.u8(src_ep);
                w.u8(dst_ep);
                w.u64(match_info);
                w.u32(msg_seq);
                w.u64(msg_len);
                w.u32(sender_handle);
                Bytes::new()
            }
            Packet::PullReq {
                src_ep,
                dst_ep,
                sender_handle,
                recv_handle,
                frag_start,
                frag_count,
            } => {
                w.u8(KIND_PULLREQ);
                w.u8(src_ep);
                w.u8(dst_ep);
                w.u32(sender_handle);
                w.u32(recv_handle);
                w.u32(frag_start);
                w.u32(frag_count);
                Bytes::new()
            }
            Packet::LargeFrag {
                src_ep,
                dst_ep,
                recv_handle,
                frag_idx,
                offset,
                data,
            } => {
                w.u8(KIND_LARGEFRAG);
                w.u8(src_ep);
                w.u8(dst_ep);
                w.u32(recv_handle);
                w.u32(frag_idx);
                w.u64(offset);
                data
            }
            Packet::Notify {
                src_ep,
                dst_ep,
                sender_handle,
            } => {
                w.u8(KIND_NOTIFY);
                w.u8(src_ep);
                w.u8(dst_ep);
                w.u32(sender_handle);
                Bytes::new()
            }
            Packet::Ack {
                src_ep,
                dst_ep,
                msg_seq,
            } => {
                w.u8(KIND_ACK);
                w.u8(src_ep);
                w.u8(dst_ep);
                w.u32(msg_seq);
                Bytes::new()
            }
            Packet::CreditNack {
                src_ep,
                dst_ep,
                sender_handle,
            } => {
                w.u8(KIND_CREDIT_NACK);
                w.u8(src_ep);
                w.u8(dst_ep);
                w.u32(sender_handle);
                Bytes::new()
            }
        };
        (w.0, data)
    }

    /// Parse a frame: the fields come from `header`, and `payload`
    /// becomes the packet's data as is (control packets drop it).
    pub fn parse(header: &FrameHeader, payload: Bytes) -> Result<Packet, ParseError> {
        let mut r = Reader(header.as_bytes());
        let kind = r.u8()?;
        let src_ep = r.u8()?;
        let dst_ep = r.u8()?;
        match kind {
            KIND_TINY => Ok(Packet::Tiny {
                src_ep,
                dst_ep,
                match_info: r.u64()?,
                msg_seq: r.u32()?,
                data: payload,
            }),
            KIND_SMALL => Ok(Packet::Small {
                src_ep,
                dst_ep,
                match_info: r.u64()?,
                msg_seq: r.u32()?,
                data: payload,
            }),
            KIND_MEDIUM => Ok(Packet::MediumFrag {
                src_ep,
                dst_ep,
                match_info: r.u64()?,
                msg_seq: r.u32()?,
                msg_len: r.u32()?,
                frag_idx: r.u16()?,
                frag_count: r.u16()?,
                offset: r.u32()?,
                data: payload,
            }),
            KIND_RNDV => Ok(Packet::RndvReq {
                src_ep,
                dst_ep,
                match_info: r.u64()?,
                msg_seq: r.u32()?,
                msg_len: r.u64()?,
                sender_handle: r.u32()?,
            }),
            KIND_PULLREQ => Ok(Packet::PullReq {
                src_ep,
                dst_ep,
                sender_handle: r.u32()?,
                recv_handle: r.u32()?,
                frag_start: r.u32()?,
                frag_count: r.u32()?,
            }),
            KIND_LARGEFRAG => Ok(Packet::LargeFrag {
                src_ep,
                dst_ep,
                recv_handle: r.u32()?,
                frag_idx: r.u32()?,
                offset: r.u64()?,
                data: payload,
            }),
            KIND_NOTIFY => Ok(Packet::Notify {
                src_ep,
                dst_ep,
                sender_handle: r.u32()?,
            }),
            KIND_ACK => Ok(Packet::Ack {
                src_ep,
                dst_ep,
                msg_seq: r.u32()?,
            }),
            KIND_CREDIT_NACK => Ok(Packet::CreditNack {
                src_ep,
                dst_ep,
                sender_handle: r.u32()?,
            }),
            k => Err(ParseError::UnknownKind(k)),
        }
    }

    /// Destination endpoint of any packet.
    pub fn dst_ep(&self) -> u8 {
        match self {
            Packet::Tiny { dst_ep, .. }
            | Packet::Small { dst_ep, .. }
            | Packet::MediumFrag { dst_ep, .. }
            | Packet::RndvReq { dst_ep, .. }
            | Packet::PullReq { dst_ep, .. }
            | Packet::LargeFrag { dst_ep, .. }
            | Packet::Notify { dst_ep, .. }
            | Packet::Ack { dst_ep, .. }
            | Packet::CreditNack { dst_ep, .. } => *dst_ep,
        }
    }

    /// Source endpoint of any packet.
    pub fn src_ep(&self) -> u8 {
        match self {
            Packet::Tiny { src_ep, .. }
            | Packet::Small { src_ep, .. }
            | Packet::MediumFrag { src_ep, .. }
            | Packet::RndvReq { src_ep, .. }
            | Packet::PullReq { src_ep, .. }
            | Packet::LargeFrag { src_ep, .. }
            | Packet::Notify { src_ep, .. }
            | Packet::Ack { src_ep, .. }
            | Packet::CreditNack { src_ep, .. } => *src_ep,
        }
    }

    /// Length of the carried data payload (0 for control packets).
    pub fn data_len(&self) -> u64 {
        match self {
            Packet::Tiny { data, .. }
            | Packet::Small { data, .. }
            | Packet::MediumFrag { data, .. }
            | Packet::LargeFrag { data, .. } => data.len() as u64,
            _ => 0,
        }
    }
}

/// Cheap header peek for the credit controller: when the NIC sheds a
/// pulled large fragment on ring overflow, the receiver wants to aim
/// its `CreditNack` without parsing (the frame is consumed by the
/// ring). Returns the fragment's `(src_ep, dst_ep, recv_handle)`
/// triple, or `None` for any other (or too-short) header.
pub fn peek_large_frag(header: &FrameHeader) -> Option<(u8, u8, u32)> {
    let h = header.as_bytes();
    if *h.first()? != KIND_LARGEFRAG {
        return None;
    }
    let src_ep = *h.get(1)?;
    let dst_ep = *h.get(2)?;
    let handle = u32::from_le_bytes(h.get(3..7)?.try_into().ok()?);
    Some((src_ep, dst_ep, handle))
}

/// GRO train key of a frame header from `src_node`: fragments of one
/// in-flight message share a key, so the bottom half can coalesce
/// consecutive same-key skbuffs into a frame train and amortize the
/// per-frame protocol cost. Returns `None` for non-fragment packets
/// (eager singles, control frames) and unparseably short headers —
/// anything that must break a train.
///
/// Peeks at fixed header offsets instead of running the full parser:
/// like the kernel's GRO `same_flow` check, this happens once per
/// frame *before* the protocol handler is charged, so it only reads
/// the few bytes it needs (kind, endpoints, and the message sequence
/// or pull handle that names the in-flight message).
pub fn gro_train_key(src_node: u32, header: &FrameHeader) -> Option<(u64, u64)> {
    let h = header.as_bytes();
    let kind = *h.first()?;
    let src_ep = *h.get(1)? as u64;
    let dst_ep = *h.get(2)? as u64;
    let flow = ((kind as u64) << 48) | (src_ep << 40) | (dst_ep << 32) | src_node as u64;
    match kind {
        // MediumFrag: match_info u64 at 3..11, then msg_seq u32 —
        // the (flow, msg_seq) pair names one eager medium message.
        KIND_MEDIUM => {
            let seq = u32::from_le_bytes(h.get(11..15)?.try_into().ok()?);
            Some((flow, seq as u64))
        }
        // LargeFrag: recv_handle u32 right after the endpoint pair —
        // one pull handle = one large message being deposited.
        KIND_LARGEFRAG => {
            let handle = u32::from_le_bytes(h.get(3..7)?.try_into().ok()?);
            Some((flow, handle as u64))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The header of `p` on the wire.
    fn header_of(p: &Packet) -> FrameHeader {
        p.clone().encode().0
    }

    /// A header holding exactly `bytes`.
    fn header(bytes: &[u8]) -> FrameHeader {
        let mut h = FrameHeader::default();
        h.put(bytes);
        h
    }

    fn round_trip(p: Packet) {
        let (h, payload) = p.clone().encode();
        let q = Packet::parse(&h, payload).expect("parse");
        assert_eq!(p, q);
    }

    #[test]
    fn all_kinds_round_trip() {
        round_trip(Packet::Tiny {
            src_ep: 1,
            dst_ep: 2,
            match_info: 0xDEAD_BEEF_CAFE_F00D,
            msg_seq: 7,
            data: Bytes::from_static(b"hello"),
        });
        round_trip(Packet::Small {
            src_ep: 0,
            dst_ep: 0,
            match_info: 0,
            msg_seq: u32::MAX,
            data: Bytes::from(vec![0xAA; 128]),
        });
        round_trip(Packet::MediumFrag {
            src_ep: 3,
            dst_ep: 4,
            match_info: 42,
            msg_seq: 9,
            msg_len: 32 << 10,
            frag_idx: 5,
            frag_count: 8,
            offset: 5 * 4096,
            data: Bytes::from(vec![0x55; 4096]),
        });
        round_trip(Packet::RndvReq {
            src_ep: 1,
            dst_ep: 1,
            match_info: u64::MAX,
            msg_seq: 1,
            msg_len: 16 << 20,
            sender_handle: 77,
        });
        round_trip(Packet::PullReq {
            src_ep: 2,
            dst_ep: 1,
            sender_handle: 77,
            recv_handle: 88,
            frag_start: 16,
            frag_count: 8,
        });
        round_trip(Packet::LargeFrag {
            src_ep: 1,
            dst_ep: 2,
            recv_handle: 88,
            frag_idx: 17,
            offset: 17 * 4096,
            data: Bytes::from(vec![0x77; 4096]),
        });
        round_trip(Packet::Notify {
            src_ep: 2,
            dst_ep: 1,
            sender_handle: 77,
        });
        round_trip(Packet::Ack {
            src_ep: 2,
            dst_ep: 1,
            msg_seq: 9,
        });
        round_trip(Packet::CreditNack {
            src_ep: 2,
            dst_ep: 1,
            sender_handle: 77,
        });
    }

    #[test]
    fn header_lengths_are_pinned() {
        // Header plus data is the Ethernet payload, so these lengths
        // set the wire time of every frame; all stay within the
        // ~32-byte MX header budget.
        let data = Bytes::from(vec![0x5A; 4096]);
        let cases = [
            (
                Packet::Tiny {
                    src_ep: 1,
                    dst_ep: 2,
                    match_info: 3,
                    msg_seq: 4,
                    data: data.slice(..32),
                },
                15,
            ),
            (
                Packet::Small {
                    src_ep: 1,
                    dst_ep: 2,
                    match_info: 3,
                    msg_seq: 4,
                    data: data.slice(..128),
                },
                15,
            ),
            (
                Packet::MediumFrag {
                    src_ep: 1,
                    dst_ep: 2,
                    match_info: 3,
                    msg_seq: 4,
                    msg_len: 8192,
                    frag_idx: 1,
                    frag_count: 2,
                    offset: 4096,
                    data: data.clone(),
                },
                27,
            ),
            (
                Packet::RndvReq {
                    src_ep: 1,
                    dst_ep: 2,
                    match_info: 3,
                    msg_seq: 4,
                    msg_len: 1 << 20,
                    sender_handle: 5,
                },
                27,
            ),
            (
                Packet::PullReq {
                    src_ep: 1,
                    dst_ep: 2,
                    sender_handle: 5,
                    recv_handle: 6,
                    frag_start: 8,
                    frag_count: 8,
                },
                19,
            ),
            (
                Packet::LargeFrag {
                    src_ep: 1,
                    dst_ep: 2,
                    recv_handle: 6,
                    frag_idx: 9,
                    offset: 9 * 4096,
                    data: data.clone(),
                },
                19,
            ),
            (
                Packet::Notify {
                    src_ep: 1,
                    dst_ep: 2,
                    sender_handle: 5,
                },
                7,
            ),
            (
                Packet::Ack {
                    src_ep: 1,
                    dst_ep: 2,
                    msg_seq: 4,
                },
                7,
            ),
            (
                Packet::CreditNack {
                    src_ep: 1,
                    dst_ep: 2,
                    sender_handle: 5,
                },
                7,
            ),
        ];
        for (p, header_len) in cases {
            let data_len = p.data_len();
            let (h, payload) = p.encode();
            assert_eq!(h.as_bytes().len(), header_len, "{h:?}");
            assert_eq!(payload.len() as u64, data_len, "{h:?}");
        }
    }

    #[test]
    fn truncated_frames_error() {
        let p = Packet::RndvReq {
            src_ep: 1,
            dst_ep: 1,
            match_info: 5,
            msg_seq: 1,
            msg_len: 100,
            sender_handle: 2,
        };
        let full = header_of(&p);
        for cut in 0..full.as_bytes().len() {
            let short = header(&full.as_bytes()[..cut]);
            assert!(
                Packet::parse(&short, Bytes::new()).is_err(),
                "cut at {cut} should not parse"
            );
        }
        let nack = header_of(&Packet::CreditNack {
            src_ep: 1,
            dst_ep: 2,
            sender_handle: 9,
        });
        for cut in 0..nack.as_bytes().len() {
            assert!(
                Packet::parse(&header(&nack.as_bytes()[..cut]), Bytes::new()).is_err(),
                "nack cut at {cut} should not parse"
            );
        }
    }

    #[test]
    fn unknown_kind_errors() {
        let h = header(&[0xEE, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(
            Packet::parse(&h, Bytes::new()),
            Err(ParseError::UnknownKind(0xEE))
        );
    }

    #[test]
    fn accessors_cover_all_kinds() {
        let p = Packet::Ack {
            src_ep: 3,
            dst_ep: 9,
            msg_seq: 1,
        };
        assert_eq!(p.src_ep(), 3);
        assert_eq!(p.dst_ep(), 9);
        assert_eq!(p.data_len(), 0);
        let p = Packet::Tiny {
            src_ep: 0,
            dst_ep: 0,
            match_info: 0,
            msg_seq: 0,
            data: Bytes::from_static(b"abc"),
        };
        assert_eq!(p.data_len(), 3);
    }

    #[test]
    fn gro_train_keys_name_messages() {
        let frag = |msg_seq, frag_idx| Packet::MediumFrag {
            src_ep: 1,
            dst_ep: 2,
            match_info: 0xDEAD_BEEF,
            msg_seq,
            msg_len: 16 << 10,
            frag_idx,
            frag_count: 4,
            offset: frag_idx as u32 * 4096,
            data: Bytes::from(vec![0u8; 4096]),
        };
        // Fragments of one message share the key regardless of index.
        let k0 = gro_train_key(5, &header_of(&frag(9, 0))).unwrap();
        let k1 = gro_train_key(5, &header_of(&frag(9, 3))).unwrap();
        assert_eq!(k0, k1);
        // A different message, sender node or endpoint breaks the key.
        assert_ne!(gro_train_key(5, &header_of(&frag(10, 0))).unwrap(), k0);
        assert_ne!(gro_train_key(6, &header_of(&frag(9, 0))).unwrap(), k0);
        // Pulled large fragments key on the receive handle.
        let lf = |recv_handle, frag_idx| Packet::LargeFrag {
            src_ep: 1,
            dst_ep: 2,
            recv_handle,
            frag_idx,
            offset: frag_idx as u64 * 4096,
            data: Bytes::from(vec![0u8; 4096]),
        };
        let l0 = gro_train_key(5, &header_of(&lf(88, 0))).unwrap();
        assert_eq!(l0, gro_train_key(5, &header_of(&lf(88, 7))).unwrap());
        assert_ne!(l0, gro_train_key(5, &header_of(&lf(89, 0))).unwrap());
        assert_ne!(l0, k0, "medium and large trains never merge");
        // Control frames and eager singles never form trains.
        for p in [
            Packet::Tiny {
                src_ep: 1,
                dst_ep: 2,
                match_info: 0,
                msg_seq: 0,
                data: Bytes::from_static(b"x"),
            },
            Packet::Ack {
                src_ep: 1,
                dst_ep: 2,
                msg_seq: 3,
            },
            Packet::Notify {
                src_ep: 1,
                dst_ep: 2,
                sender_handle: 7,
            },
        ] {
            assert_eq!(gro_train_key(5, &header_of(&p)), None);
        }
        // Truncated payloads break the train instead of panicking.
        assert_eq!(
            gro_train_key(5, &header(&header_of(&frag(9, 0)).as_bytes()[..8])),
            None
        );
        assert_eq!(gro_train_key(5, &FrameHeader::default()), None);
    }

    #[test]
    fn peek_large_frag_reads_only_large_fragments() {
        let lf = header_of(&Packet::LargeFrag {
            src_ep: 3,
            dst_ep: 1,
            recv_handle: 0xABCD_1234,
            frag_idx: 5,
            offset: 5 * 4096,
            data: Bytes::from(vec![0u8; 4096]),
        });
        assert_eq!(peek_large_frag(&lf), Some((3, 1, 0xABCD_1234)));
        // Control frames, eager frames and truncated payloads peek to
        // nothing instead of misattributing (or panicking).
        let ack = header_of(&Packet::Ack {
            src_ep: 3,
            dst_ep: 1,
            msg_seq: 9,
        });
        assert_eq!(peek_large_frag(&ack), None);
        assert_eq!(peek_large_frag(&header(&lf.as_bytes()[..6])), None);
        assert_eq!(peek_large_frag(&FrameHeader::default()), None);
        // The peek agrees with the full parser.
        if let Packet::LargeFrag {
            src_ep,
            dst_ep,
            recv_handle,
            ..
        } = Packet::parse(&lf, Bytes::new()).unwrap()
        {
            assert_eq!(peek_large_frag(&lf), Some((src_ep, dst_ep, recv_handle)));
        } else {
            panic!("wrong kind");
        }
    }

    #[test]
    fn data_moves_through_encode_and_parse_uncopied() {
        let message = Bytes::from(vec![1u8; 8192]);
        let data = message.slice(4096..);
        let p = Packet::LargeFrag {
            src_ep: 0,
            dst_ep: 0,
            recv_handle: 1,
            frag_idx: 1,
            offset: 4096,
            data: data.clone(),
        };
        let (h, payload) = p.encode();
        assert_eq!(payload.as_ptr(), data.as_ptr(), "encode copied the data");
        match Packet::parse(&h, payload).unwrap() {
            Packet::LargeFrag { data: parsed, .. } => {
                assert_eq!(parsed.as_ptr(), data.as_ptr(), "parse copied the data")
            }
            other => panic!("wrong kind {other:?}"),
        }
    }
}
