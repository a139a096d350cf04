//! Socket buffers.
//!
//! An [`Skbuff`] is the kernel's unit of packet memory. On receive, the
//! NIC DMAs a frame into the next pre-allocated skbuff of the RX ring;
//! the skbuff then travels through the bottom half into the protocol
//! callback, which must copy the payload out before the buffer can be
//! recycled. The paper's whole problem statement lives in that copy —
//! and its I/OAT contribution is about when the skbuff can be *freed*
//! (pending asynchronous copies pin skbuffs; §III-B bounds them).
//!
//! Skbuffs here carry real bytes so that end-to-end payload integrity
//! is testable, plus the source-pinned-pages property the paper relies
//! on (skbuff memory is kernel memory, always DMA-able).

use crate::frame::FrameHeader;
use bytes::Bytes;
use omx_sim::sanitize::{Kind, SimSanitizer, Token};
use omx_sim::Ps;

/// One socket buffer holding a received (or about-to-be-sent) frame
/// payload: the protocol header and the data bytes behind it.
#[derive(Debug, Clone)]
pub struct Skbuff {
    /// Sending host id (filled from the frame on receive).
    pub src: u32,
    /// Protocol header, carried inline from the frame.
    pub header: FrameHeader,
    /// Data bytes behind the header. Shared (`Bytes`): the send path
    /// attaches a slice of the sender's message zero-copy and the
    /// receive path hands the same bytes from NIC to BH to callback —
    /// the only copy is the one into the destination buffer, as in
    /// the paper.
    pub data: Bytes,
    /// Time the NIC finished DMA-ing this buffer (for latency stats).
    pub rx_time: Ps,
    /// Lifecycle sanitizer token: allocated here, submitted by the BH
    /// enqueue, completed+released when the protocol consumes the
    /// buffer (zero-sized in release builds).
    san: Token,
}

impl Skbuff {
    /// A received skbuff (the checked constructor: mints the lifecycle
    /// token with the caller as the allocation site).
    #[track_caller]
    pub fn new(src: u32, header: FrameHeader, data: Bytes, rx_time: Ps) -> Skbuff {
        Skbuff {
            src,
            header,
            data,
            rx_time,
            san: SimSanitizer::alloc(Kind::Skbuff),
        }
    }

    /// The lifecycle token (for the consumer to complete/release).
    pub fn token(&self) -> Token {
        self.san
    }

    /// Frame payload length: protocol header plus data.
    pub fn len(&self) -> usize {
        self.header.as_bytes().len() + self.data.len()
    }

    /// Whether the frame payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of distinct pages this skbuff's payload spans, assuming
    /// page-aligned allocation — this is the descriptor count an I/OAT
    /// offload of the whole payload needs ("one or two chunks per
    /// page", §IV-A; we model the aligned-one-chunk case and let the
    /// caller add slack for misalignment).
    pub fn pages(&self, page_size: u64) -> u64 {
        (self.len() as u64).div_ceil(page_size).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skbuff_reports_length_and_pages() {
        let none = FrameHeader::default();
        let s = Skbuff::new(0, none, Bytes::from(vec![1u8; 4096]), Ps::ZERO);
        assert_eq!(s.len(), 4096);
        assert!(!s.is_empty());
        assert_eq!(s.pages(4096), 1);
        let mut header = FrameHeader::default();
        header.put(&[6; 19]);
        let s = Skbuff::new(0, header, Bytes::from(vec![1u8; 4096]), Ps::ZERO);
        assert_eq!(s.len(), 19 + 4096, "the header counts");
        assert_eq!(s.pages(4096), 2);
        let s = Skbuff::new(0, none, Bytes::new(), Ps::ZERO);
        assert!(s.is_empty());
        assert_eq!(s.pages(4096), 1);
    }

    #[test]
    fn data_is_shared_not_copied() {
        let payload = Bytes::from(vec![9u8; 100]);
        let s = Skbuff::new(3, FrameHeader::default(), payload.clone(), Ps::ns(5));
        assert_eq!(s.data.as_ptr(), payload.as_ptr());
        assert_eq!(s.src, 3);
        assert_eq!(s.rx_time, Ps::ns(5));
    }
}
