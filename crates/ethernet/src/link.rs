//! The 10 GbE link.
//!
//! One [`Link`] is a *unidirectional* FIFO pipe (full duplex = two
//! links). A frame occupies the transmitter for `wire_bytes / rate`
//! and arrives `propagation + nic latency` later. The default rate is
//! the paper's effective 10 GbE data rate: 9953 Mbit/s = 1244 MB/s ≈
//! 1186 MiB/s — the "line rate" every throughput figure is measured
//! against.

use crate::frame::{EthFrame, FrameHeader};
use omx_sim::{FifoServer, Metrics, Ps, Rate};
use serde::{Deserialize, Serialize};

/// Link timing parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LinkParams {
    /// Serialization rate on the wire.
    pub rate: Rate,
    /// Cable + PHY propagation delay.
    pub propagation: Ps,
    /// Fixed per-frame latency inside the sending NIC (descriptor
    /// fetch, DMA from host memory, store-and-forward).
    pub tx_latency: Ps,
    /// Fixed per-frame latency inside the receiving NIC (DMA to the
    /// ring skbuff, descriptor writeback).
    pub rx_latency: Ps,
}

impl Default for LinkParams {
    fn default() -> Self {
        LinkParams {
            rate: Rate::mbit_per_sec(9953),
            propagation: Ps::ns(300),
            tx_latency: Ps::ns(900),
            rx_latency: Ps::ns(900),
        }
    }
}

/// A unidirectional link with FIFO serialization.
#[derive(Debug, Clone)]
pub struct Link {
    params: LinkParams,
    server: FifoServer,
    frames: u64,
    payload_bytes: u64,
}

impl Link {
    /// An idle link.
    pub fn new(params: LinkParams) -> Link {
        Link {
            params,
            server: FifoServer::new(),
            frames: 0,
            payload_bytes: 0,
        }
    }

    /// The link parameters.
    pub fn params(&self) -> &LinkParams {
        &self.params
    }

    /// Report wire serialization busy time and frame/byte counters to
    /// `metrics` under `scope`.
    pub fn attach_metrics(&mut self, metrics: Metrics, scope: u32) {
        self.server
            .attach_meter(metrics, scope, omx_sim::instruments::LINK_WIRE);
    }

    /// Total wire serialization time integrated over all frames.
    pub fn wire_busy_total(&self) -> Ps {
        self.server.busy_total()
    }

    /// Transmit `frame` handed to the NIC at `now`; returns the time
    /// the frame is fully received into the remote NIC (ready for ring
    /// DMA). Frames queue FIFO behind earlier transmissions.
    pub fn transmit(&mut self, now: Ps, frame: &EthFrame) -> Ps {
        self.transmit_with_overhead(now, frame, Ps::ZERO)
    }

    /// Like [`Self::transmit`] but with `extra` per-frame transmitter
    /// occupancy beyond wire serialization — models NIC firmware that
    /// spends time on each fragment (the MXoE baseline's ≈100 ns/frag,
    /// which caps its large-message rate at ≈1140 MiB/s).
    pub fn transmit_with_overhead(&mut self, now: Ps, frame: &EthFrame, extra: Ps) -> Ps {
        let serialize = self.params.rate.time_for(frame.wire_bytes()) + extra;
        let (_start, tx_done) = self.server.admit(now + self.params.tx_latency, serialize);
        self.frames += 1;
        self.payload_bytes += frame.payload_len();
        tx_done + self.params.propagation + self.params.rx_latency
    }

    /// Wire serialization time of one frame at this link's rate. The
    /// fault injector uses multiples of this as the hold-back unit for
    /// reordered frames, so "reorder depth k" means "overtaken by up
    /// to k same-sized frames".
    pub fn serialization_time(&self, frame: &EthFrame) -> Ps {
        self.params.rate.time_for(frame.wire_bytes())
    }

    /// Frames sent so far.
    pub fn frames_sent(&self) -> u64 {
        self.frames
    }

    /// Payload bytes sent so far.
    pub fn payload_bytes_sent(&self) -> u64 {
        self.payload_bytes
    }

    /// Achievable steady-state payload rate for `payload`-sized frames
    /// (analytic helper for tests and the MX baseline).
    pub fn payload_rate(&self, payload: u64) -> Rate {
        let data = bytes::Bytes::from(vec![0u8; payload as usize]);
        let f = EthFrame::new(0, 1, FrameHeader::default(), data);
        let t = self.params.rate.time_for(f.wire_bytes());
        Rate::from_transfer(payload, t).expect("nonzero serialization time")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn frame(n: usize) -> EthFrame {
        EthFrame::new(0, 1, FrameHeader::default(), Bytes::from(vec![0u8; n]))
    }

    #[test]
    fn line_rate_matches_paper() {
        let l = Link::new(LinkParams::default());
        let mib = l.params().rate.as_mib_per_sec();
        assert!((mib - 1186.5).abs() < 1.0, "line rate {mib} MiB/s");
        // Page-sized frames reach ≈98 % of line rate.
        let pr = l.payload_rate(4096).as_mib_per_sec();
        assert!((1160.0..1180.0).contains(&pr), "payload rate {pr}");
    }

    #[test]
    fn single_frame_latency_components() {
        let p = LinkParams::default();
        let mut l = Link::new(p);
        let arrival = l.transmit(Ps::ZERO, &frame(4096));
        let serialize = p.rate.time_for(4096 + 38);
        assert_eq!(
            arrival,
            p.tx_latency + serialize + p.propagation + p.rx_latency
        );
    }

    #[test]
    fn frames_serialize_fifo() {
        let p = LinkParams::default();
        let mut l = Link::new(p);
        let a1 = l.transmit(Ps::ZERO, &frame(4096));
        let a2 = l.transmit(Ps::ZERO, &frame(4096));
        let serialize = p.rate.time_for(4096 + 38);
        assert_eq!(a2 - a1, serialize, "second frame waits for the first");
        assert_eq!(l.frames_sent(), 2);
        assert_eq!(l.payload_bytes_sent(), 8192);
    }

    #[test]
    fn back_to_back_stream_hits_wire_rate() {
        let p = LinkParams::default();
        let mut l = Link::new(p);
        let n = 1000u64;
        let mut last = Ps::ZERO;
        for _ in 0..n {
            last = l.transmit(Ps::ZERO, &frame(4096));
        }
        let rate = Rate::from_transfer(n * 4096, last).unwrap();
        let mib = rate.as_mib_per_sec();
        assert!((1140.0..1180.0).contains(&mib), "stream rate {mib} MiB/s");
    }

    #[test]
    fn gaps_do_not_accumulate_idle_time() {
        let p = LinkParams::default();
        let mut l = Link::new(p);
        l.transmit(Ps::ZERO, &frame(100));
        // A frame sent much later starts immediately.
        let a = l.transmit(Ps::ms(1), &frame(100));
        let serialize = p.rate.time_for(100 + 38);
        assert_eq!(
            a,
            Ps::ms(1) + p.tx_latency + serialize + p.propagation + p.rx_latency
        );
    }
}
