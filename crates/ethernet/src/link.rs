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

impl LinkParams {
    /// Wire serialization time of one frame at this rate. The fault
    /// injector uses multiples of this as the hold-back unit for
    /// reordered frames, so "reorder depth k" means "overtaken by up
    /// to k same-sized frames".
    pub fn serialization_time(&self, frame: &EthFrame) -> Ps {
        self.rate.time_for(frame.wire_bytes())
    }

    /// Achievable steady-state payload rate for `payload`-sized frames
    /// (analytic helper for tests and the MX baseline).
    pub fn payload_rate(&self, payload: u64) -> Rate {
        let data = bytes::Bytes::from(vec![0u8; payload as usize]);
        let f = EthFrame::new(0, 1, FrameHeader::default(), data);
        Rate::from_transfer(payload, self.serialization_time(&f))
            .expect("nonzero serialization time")
    }
}

/// A unidirectional link with FIFO serialization. Every link of a
/// cluster shares one [`LinkParams`], which each transmission is
/// given, so a link holds only its transmitter's state.
#[derive(Debug, Clone, Default)]
pub struct Link {
    server: FifoServer,
}

impl Link {
    /// An idle link.
    pub fn new() -> Link {
        Link::default()
    }

    /// Report wire serialization busy time to `metrics` under `scope`.
    pub fn attach_metrics(&mut self, metrics: Metrics, scope: u32) {
        self.server
            .attach_meter(metrics, scope, omx_sim::instruments::LINK_WIRE);
    }

    /// Total wire serialization time integrated over all frames.
    pub fn wire_busy_total(&self) -> Ps {
        self.server.busy_total()
    }

    /// Transmit `frame` handed to the NIC at `now` over a link with
    /// timing `params`; returns the time the frame is fully received
    /// into the remote NIC (ready for ring DMA). Frames queue FIFO
    /// behind earlier transmissions. `extra` is per-frame transmitter
    /// occupancy beyond wire serialization — it models NIC firmware
    /// that spends time on each fragment (the MXoE baseline's
    /// ≈100 ns/frag, which caps its large-message rate at
    /// ≈1140 MiB/s); Open-MX frames pass zero.
    pub fn transmit_with_overhead(
        &mut self,
        params: &LinkParams,
        now: Ps,
        frame: &EthFrame,
        extra: Ps,
    ) -> Ps {
        let serialize = params.serialization_time(frame) + extra;
        let (_start, tx_done) = self.server.admit(now + params.tx_latency, serialize);
        tx_done + params.propagation + params.rx_latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn frame(n: usize) -> EthFrame {
        EthFrame::new(0, 1, FrameHeader::default(), Bytes::from(vec![0u8; n]))
    }

    /// Send an `n`-byte frame at `now` with no firmware overhead.
    fn send(l: &mut Link, p: &LinkParams, now: Ps, n: usize) -> Ps {
        l.transmit_with_overhead(p, now, &frame(n), Ps::ZERO)
    }

    #[test]
    fn line_rate_matches_paper() {
        let p = LinkParams::default();
        let mib = p.rate.as_mib_per_sec();
        assert!((mib - 1186.5).abs() < 1.0, "line rate {mib} MiB/s");
        // Page-sized frames reach ≈98 % of line rate.
        let pr = p.payload_rate(4096).as_mib_per_sec();
        assert!((1160.0..1180.0).contains(&pr), "payload rate {pr}");
    }

    #[test]
    fn single_frame_latency_components() {
        let p = LinkParams::default();
        let mut l = Link::new();
        let arrival = send(&mut l, &p, Ps::ZERO, 4096);
        let serialize = p.rate.time_for(4096 + 38);
        assert_eq!(
            arrival,
            p.tx_latency + serialize + p.propagation + p.rx_latency
        );
    }

    #[test]
    fn frames_serialize_fifo() {
        let p = LinkParams::default();
        let mut l = Link::new();
        let a1 = send(&mut l, &p, Ps::ZERO, 4096);
        let a2 = send(&mut l, &p, Ps::ZERO, 4096);
        let serialize = p.rate.time_for(4096 + 38);
        assert_eq!(a2 - a1, serialize, "second frame waits for the first");
        assert_eq!(
            l.wire_busy_total(),
            serialize * 2,
            "both frames on the wire"
        );
    }

    #[test]
    fn back_to_back_stream_hits_wire_rate() {
        let p = LinkParams::default();
        let mut l = Link::new();
        let n = 1000u64;
        let mut last = Ps::ZERO;
        for _ in 0..n {
            last = send(&mut l, &p, Ps::ZERO, 4096);
        }
        let rate = Rate::from_transfer(n * 4096, last).unwrap();
        let mib = rate.as_mib_per_sec();
        assert!((1140.0..1180.0).contains(&mib), "stream rate {mib} MiB/s");
    }

    #[test]
    fn gaps_do_not_accumulate_idle_time() {
        let p = LinkParams::default();
        let mut l = Link::new();
        send(&mut l, &p, Ps::ZERO, 100);
        // A frame sent much later starts immediately.
        let a = send(&mut l, &p, Ps::ms(1), 100);
        let serialize = p.rate.time_for(100 + 38);
        assert_eq!(
            a,
            Ps::ms(1) + p.tx_latency + serialize + p.propagation + p.rx_latency
        );
    }
}
