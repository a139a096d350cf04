//! Ethernet frames.
//!
//! A frame is a destination/source node pair (we use small integer node
//! ids instead of 48-bit MACs — the cluster has two hosts), an
//! EtherType, a protocol header carried inline and a payload of real
//! bytes. The wire-occupancy helper accounts for the full 10 GbE
//! framing overhead so the achievable payload rate lands where the
//! paper puts it (≈1186 MiB/s line rate, ~96-98 % of it reachable with
//! page-sized fragments).

use bytes::Bytes;

/// EtherType used by Open-MX / MXoE traffic in this model.
pub const ETHERTYPE_OMX: u16 = 0x86DF;

/// Ethernet header: destination + source MAC (6 + 6) + EtherType (2).
pub const ETH_HEADER_BYTES: u64 = 14;
/// Frame check sequence.
pub const ETH_FCS_BYTES: u64 = 4;
/// Preamble + start-of-frame delimiter + inter-frame gap.
pub const ETH_GAP_BYTES: u64 = 8 + 12;
/// Total per-frame wire overhead beyond the payload.
pub const WIRE_OVERHEAD_BYTES: u64 = ETH_HEADER_BYTES + ETH_FCS_BYTES + ETH_GAP_BYTES;
/// Minimum Ethernet payload (frames are padded up to this).
pub const MIN_PAYLOAD_BYTES: u64 = 46;
/// Jumbo-frame MTU used throughout (the paper's myri10ge setup).
pub const JUMBO_MTU: u64 = 9000;

/// Capacity of a [`FrameHeader`] in bytes. The largest Open-MX
/// headers (`MediumFrag`, `RndvReq`) take 27.
pub const MAX_HEADER_BYTES: usize = 31;

/// The protocol header at the front of a frame's payload, carried
/// inline beside the data bytes that follow it on the wire.
///
/// Fixed-size and `Copy` (32 bytes), so building, queueing and reading
/// a header never touches the allocator, and the data bytes can stay a
/// shared slice of the sender's message instead of being copied behind
/// the header into a buffer of their own.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameHeader {
    /// Bytes written so far (at most [`MAX_HEADER_BYTES`]).
    len: u8,
    bytes: [u8; MAX_HEADER_BYTES],
}

impl FrameHeader {
    /// Append `src`. Protocol headers are fixed-size, so one that
    /// outgrows [`MAX_HEADER_BYTES`] is a protocol bug and panics.
    pub fn put(&mut self, src: &[u8]) {
        let at = usize::from(self.len);
        let end = at + src.len();
        assert!(
            end <= MAX_HEADER_BYTES,
            "protocol header of {end} bytes exceeds {MAX_HEADER_BYTES}"
        );
        self.bytes[at..end].copy_from_slice(src);
        self.len = end as u8;
    }

    /// The header bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        self.bytes.get(..usize::from(self.len)).unwrap_or(&[])
    }
}

/// One Ethernet frame in flight.
#[derive(Debug, Clone)]
pub struct EthFrame {
    /// Sending host id.
    pub src: u32,
    /// Destination host id.
    pub dst: u32,
    /// EtherType (always [`ETHERTYPE_OMX`] here, kept for realism).
    pub ethertype: u16,
    /// Protocol header: the front of the Ethernet payload.
    pub header: FrameHeader,
    /// Data bytes behind the header: a shared `Bytes` slice (of the
    /// sender's message for data packets, empty for control packets),
    /// so building or queueing a frame never copies payload data.
    pub payload: Bytes,
    /// Whether the frame check sequence was damaged in flight (fault
    /// injection). The receiving NIC verifies the FCS in hardware and
    /// discards such frames without consuming an RX ring slot.
    pub fcs_corrupt: bool,
}

impl EthFrame {
    /// Build a frame; panics if header plus payload exceed the jumbo
    /// MTU — fragmentation is the *sender protocol's* job and a
    /// violation is a protocol bug we want loud.
    pub fn new(src: u32, dst: u32, header: FrameHeader, payload: Bytes) -> EthFrame {
        let frame = EthFrame {
            src,
            dst,
            ethertype: ETHERTYPE_OMX,
            header,
            payload,
            fcs_corrupt: false,
        };
        assert!(
            frame.payload_len() <= JUMBO_MTU,
            "payload {} exceeds MTU {JUMBO_MTU}",
            frame.payload_len()
        );
        frame
    }

    /// Bytes of wire time this frame occupies, including the Ethernet
    /// header, FCS, preamble, inter-frame gap and minimum-frame
    /// padding.
    pub fn wire_bytes(&self) -> u64 {
        self.payload_len().max(MIN_PAYLOAD_BYTES) + WIRE_OVERHEAD_BYTES
    }

    /// Ethernet payload length in bytes: protocol header plus data.
    pub fn payload_len(&self) -> u64 {
        (self.header.as_bytes().len() + self.payload.len()) as u64
    }
}

/// Wire efficiency of `payload`-sized frames: payload / wire bytes.
pub fn wire_efficiency(payload: u64) -> f64 {
    let p = payload.max(MIN_PAYLOAD_BYTES);
    payload as f64 / (p + WIRE_OVERHEAD_BYTES) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header(len: usize) -> FrameHeader {
        let mut h = FrameHeader::default();
        h.put(&vec![0xA5; len]);
        h
    }

    #[test]
    fn wire_bytes_include_all_overheads() {
        let f = EthFrame::new(0, 1, FrameHeader::default(), Bytes::from(vec![0u8; 4096]));
        assert_eq!(f.wire_bytes(), 4096 + 38);
        assert_eq!(f.payload_len(), 4096);
        // The inline header is part of the Ethernet payload.
        let f = EthFrame::new(0, 1, header(19), Bytes::from(vec![0u8; 4096]));
        assert_eq!(f.payload_len(), 19 + 4096);
        assert_eq!(f.wire_bytes(), 19 + 4096 + 38);
    }

    #[test]
    fn small_frames_are_padded() {
        let f = EthFrame::new(0, 1, FrameHeader::default(), Bytes::from(vec![0u8; 10]));
        assert_eq!(f.wire_bytes(), 46 + 38);
        let f = EthFrame::new(0, 1, header(7), Bytes::new());
        assert_eq!(f.payload_len(), 7);
        assert_eq!(f.wire_bytes(), 46 + 38);
    }

    #[test]
    fn header_is_inline_and_bounded() {
        assert!(std::mem::size_of::<FrameHeader>() <= 32);
        let mut h = FrameHeader::default();
        assert_eq!(h.as_bytes(), b"");
        h.put(&[1, 2]);
        h.put(&3u32.to_le_bytes());
        assert_eq!(h.as_bytes(), &[1, 2, 3, 0, 0, 0]);
        h.put(&[0; MAX_HEADER_BYTES - 6]);
        assert_eq!(h.as_bytes().len(), MAX_HEADER_BYTES);
    }

    #[test]
    #[should_panic(expected = "exceeds 31")]
    fn oversized_header_panics() {
        header(MAX_HEADER_BYTES + 1);
    }

    #[test]
    fn efficiency_grows_with_payload() {
        assert!(wire_efficiency(64) < wire_efficiency(1500));
        assert!(wire_efficiency(1500) < wire_efficiency(4096));
        // Page-sized fragments keep ~99 % of the wire.
        assert!(wire_efficiency(4096) > 0.98);
    }

    #[test]
    #[should_panic(expected = "exceeds MTU")]
    fn oversized_payload_panics() {
        EthFrame::new(0, 1, header(1), Bytes::from(vec![0u8; 9000]));
    }

    #[test]
    fn payload_sharing_is_cheap() {
        let data = Bytes::from(vec![7u8; 1024]);
        let f = EthFrame::new(0, 1, header(19), data.clone());
        // Bytes clones share storage: same pointer.
        assert_eq!(f.payload.as_ptr(), data.as_ptr());
    }
}
