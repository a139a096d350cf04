//! The receive side of a commodity Ethernet NIC.
//!
//! The defining property (paper §II-B): the NIC consumes pre-allocated
//! ring skbuffs *in order* and cannot steer a frame to the buffer of
//! the message it belongs to — which is why every Ethernet-based
//! protocol pays a receive copy. We model the ring occupancy (overflow
//! = drop, exercised by the loss/retransmit tests), the DMA deposit
//! and interrupt moderation.
//!
//! # Multi-queue receive (RSS)
//!
//! Modern NICs scale receive processing across cores by hashing each
//! frame's flow tuple onto one of several RX queues, each with its own
//! ring, its own interrupt affinity and its own bottom half. We model
//! that here: [`NicParams::num_queues`] rings, a deterministic RSS
//! hash over `(src, dst, channel)` ([`Nic::rss_queue`] — the channel
//! is the endpoint pair in the OMX header, so all fragments of one
//! message stay on one queue and per-flow FIFO order is preserved),
//! per-queue interrupt moderation, and a queue→core binding chosen by
//! [`spread_queue_cores`] to land consecutive queues on distinct L2
//! domains. `num_queues = 1` (the default) is exactly the 2008
//! single-ring NIC the paper measured.

use crate::bh::{BottomHalfQueue, NAPI_BUDGET};
use crate::frame::EthFrame;
use crate::skbuff::Skbuff;
use omx_hw::{CoreId, Topology};
use omx_sim::{Metrics, Ps};
use serde::{Deserialize, Serialize};

/// Hard cap on modeled RX queues (no modeled host has more than 8
/// cores, and each queue's bottom half needs a core of its own).
pub const MAX_QUEUES: usize = 8;

/// NIC configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct NicParams {
    /// RX ring size in skbuffs **per queue** (myri10ge default is 512).
    pub rx_ring_size: usize,
    /// Core the RX interrupt of queue 0 is routed to; further queues
    /// spread over the remaining cores (see [`spread_queue_cores`]).
    pub irq_core: CoreId,
    /// Interrupt moderation window, kept per queue: a frame arriving
    /// within this window of the previous interrupt on the same queue
    /// does not raise a new one (the pending BH will see it). Zero =
    /// interrupt per frame.
    pub irq_coalesce: Ps,
    /// Max skbuffs one bottom-half run drains (NAPI weight).
    pub bh_budget: usize,
    /// RX queues (1 = the paper's single-ring NIC, up to
    /// [`MAX_QUEUES`]). Each queue owns a ring, an IRQ moderation
    /// window and a per-core bottom half.
    pub num_queues: usize,
}

impl Default for NicParams {
    fn default() -> Self {
        NicParams {
            rx_ring_size: 512,
            irq_core: CoreId(0),
            // myri10ge-style adaptive interrupt moderation: under a
            // fragment stream only one hard IRQ fires per window; an
            // idle link still delivers the first frame's interrupt
            // immediately, so small-message latency is unaffected.
            irq_coalesce: Ps::us(25),
            bh_budget: NAPI_BUDGET,
            num_queues: 1,
        }
    }
}

/// What the host must do after [`Nic::deliver`] queued a frame.
///
/// Exactly one variant is returned per accepted frame; every variant
/// carries an obligation, which is why this is an enum and not the old
/// `(Option<CoreId>, bool)` pair — in particular [`RxWake::TimerKick`]
/// (moderation window suppressed the IRQ *and* no BH run is pending)
/// used to be an easy-to-drop flag combination whose loss stranded the
/// skbuff until the next frame arrived. If the link went idle, that
/// next frame never came.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RxWake {
    /// Raise a hard interrupt on this core and schedule a BH run.
    Irq(CoreId),
    /// Raise a hard interrupt on this core; a BH run is already
    /// pending, so the interrupt only charges handler time.
    IrqPending(CoreId),
    /// Moderation window suppressed the interrupt and a BH run is
    /// already pending: nothing to do, the run will see the skbuff.
    Pending,
    /// Moderation window suppressed the interrupt but **no BH run is
    /// pending**: the caller must arm the deferred moderation-timer
    /// kick and run the BH on this core, or the skbuff sits unserviced
    /// forever once the link goes idle.
    TimerKick(CoreId),
}

/// What the host must do after a frame arrived.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RxOutcome {
    /// Frame deposited on a queue's bottom half.
    Queued {
        /// RX queue the RSS hash steered the frame to.
        queue: usize,
        /// The wakeup obligation (see [`RxWake`]).
        wake: RxWake,
    },
    /// RX ring had no free skbuff: the frame is gone (upper layers
    /// recover via retransmission).
    DroppedRingFull,
    /// Hardware FCS check failed: the frame is discarded before it
    /// consumes a ring slot. Counted separately from ring drops so
    /// wire corruption and host overload are distinguishable.
    DroppedCorrupt,
}

/// Receive state of one RX queue: ring occupancy, moderation window,
/// interrupt affinity.
#[derive(Debug)]
struct QueueState {
    /// Skbuffs currently filled and waiting for the bottom half.
    pending: usize,
    /// Highest `pending` ever reached: the per-queue occupancy peak
    /// that `Stats::ring_high_watermarks` reports.
    hwm: usize,
    /// Time of the last raised interrupt on this queue.
    last_irq: Option<Ps>,
    /// Core this queue's IRQ and bottom half run on.
    core: CoreId,
}

/// NIC receive-side state.
///
/// Deliberately not `Clone`: a cloned NIC would silently fork the
/// ring occupancy, moderation windows and frame counts that the host's
/// wakeups and the credit controller read, and a frame would then fill
/// a slot only one of the copies ever replenishes.
#[derive(Debug)]
pub struct Nic {
    params: NicParams,
    queues: Vec<QueueState>,
    frames_dropped: u64,
    metrics: Metrics,
    scope: u32,
}

/// The queue→core binding the cluster uses: queue 0 keeps the
/// configured `irq_core` (so `num_queues = 1` is exactly the old
/// single-ring NIC), and further queues walk the remaining cores one
/// subchip at a time — consecutive queues land on distinct L2 domains
/// before any subchip carries two BHs. On the Clovertown default with
/// `irq_core = 0` the order is `[0, 2, 4, 6, 1, 3, 5, 7]`.
pub fn spread_queue_cores(params: &NicParams, topo: &Topology) -> Vec<CoreId> {
    assert!(
        params.num_queues as u32 <= topo.num_cores(),
        "num_queues {} exceeds the host's {} cores",
        params.num_queues,
        topo.num_cores()
    );
    let mut order = vec![params.irq_core];
    let mut rest: Vec<(usize, u32, CoreId)> = topo
        .cores()
        .filter(|&c| c != params.irq_core)
        .map(|c| {
            let sub = topo.subchip_of(c);
            // Rank of the core within its subchip: the sort key walks
            // "first core of every subchip, then second core, ...".
            let rank = topo
                .cores()
                .filter(|&o| topo.subchip_of(o) == sub && o.0 < c.0)
                .count();
            (rank, sub.0, c)
        })
        .collect();
    rest.sort();
    order.extend(rest.into_iter().map(|(_, _, c)| c));
    order.truncate(params.num_queues);
    order
}

impl Nic {
    /// A NIC with empty (fully replenished) rings. Every queue starts
    /// bound to `irq_core`; multi-queue embedders pick a spread with
    /// [`Nic::bind_queue_cores`].
    pub fn new(params: NicParams) -> Nic {
        assert!(params.rx_ring_size > 0, "RX ring cannot be empty");
        assert!(
            (1..=MAX_QUEUES).contains(&params.num_queues),
            "num_queues must be in 1..={MAX_QUEUES}"
        );
        Nic {
            queues: (0..params.num_queues)
                .map(|_| QueueState {
                    pending: 0,
                    hwm: 0,
                    last_irq: None,
                    core: params.irq_core,
                })
                .collect(),
            params,
            frames_dropped: 0,
            metrics: Metrics::disabled(),
            scope: 0,
        }
    }

    /// Route each queue's IRQ (and therefore its BH) to a core. One
    /// core per queue: two queues sharing a BH would fork the ring
    /// accounting.
    pub fn bind_queue_cores(&mut self, cores: &[CoreId]) {
        assert_eq!(
            cores.len(),
            self.queues.len(),
            "need exactly one core per RX queue"
        );
        for (i, &c) in cores.iter().enumerate() {
            assert!(
                !cores[..i].contains(&c),
                "core {c:?} bound to two RX queues"
            );
            self.queues[i].core = c;
        }
    }

    /// Trace ring and FCS drops into `metrics` under `scope`.
    pub fn attach_metrics(&mut self, metrics: Metrics, scope: u32) {
        self.metrics = metrics;
        self.scope = scope;
    }

    /// The NIC parameters.
    pub fn params(&self) -> &NicParams {
        &self.params
    }

    /// Number of RX queues.
    pub fn num_queues(&self) -> usize {
        self.queues.len()
    }

    /// Core the given queue's IRQ and bottom half run on.
    pub fn queue_core(&self, queue: usize) -> CoreId {
        self.q(queue).core
    }

    /// Per-queue state. The single bounds-checked gateway to
    /// `self.queues`: every caller's queue id comes from
    /// [`Nic::rss_queue`] (always in range) or is asserted at the
    /// `deliver`/`replenish` boundary.
    fn q(&self, queue: usize) -> &QueueState {
        // omx-lint: allow(fast-path-panic) queue ids come from rss_queue or are asserted at the deliver boundary; exercised at every RSS width [test: tests/incast_soak.rs::incast_with_credits_survives_every_plan]
        &self.queues[queue]
    }

    /// Mutable twin of [`Nic::q`].
    fn q_mut(&mut self, queue: usize) -> &mut QueueState {
        // omx-lint: allow(fast-path-panic) queue ids come from rss_queue or are asserted at the deliver boundary; exercised at every RSS width [test: tests/incast_soak.rs::incast_with_credits_survives_every_plan]
        &mut self.queues[queue]
    }

    /// RSS: hash the frame's `(src, dst, channel)` tuple onto a queue.
    /// The channel is the endpoint pair in the OMX protocol header
    /// (bytes 1 and 2 behind the kind byte), so every fragment of one
    /// message — and more broadly one endpoint-pair flow — lands on
    /// one queue, preserving per-flow FIFO order. The hash is a fixed
    /// SplitMix64-style finalizer: deterministic across runs and
    /// seeds, like a real NIC's Toeplitz hash with a fixed key.
    pub fn rss_queue(&self, frame: &EthFrame) -> usize {
        if self.queues.len() == 1 {
            return 0;
        }
        let channel = match frame.header.as_bytes().get(1..3) {
            Some(&[src_ep, dst_ep]) => (u64::from(src_ep) << 8) | u64::from(dst_ep),
            _ => 0,
        };
        // Component multipliers decorrelate the low-entropy inputs
        // (node ids and endpoints are tiny integers, often linearly
        // related) before the finalizer — the same role as a
        // well-chosen Toeplitz key.
        let mut x = (frame.src as u64).wrapping_mul(0x9E37_79B9_7F4A_7E99)
            ^ (frame.dst as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
            ^ channel.wrapping_mul(0x1656_67B1_9E37_79F9);
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        (x % self.queues.len() as u64) as usize
    }

    /// A frame finished arriving at `now` on `queue` (from
    /// [`Nic::rss_queue`]): run the hardware checks, deposit it into
    /// the queue's next ring skbuff and enqueue that skbuff on `bh` —
    /// which must be the BH of [`Nic::queue_core`]`(queue)`. Consumes
    /// the frame — the inline header is copied, and the payload `Bytes`
    /// moves from wire to skbuff to callback without even refcount
    /// traffic, matching the paper's model where the only charged
    /// receive copy is the one out of the skbuff.
    #[track_caller]
    pub fn deliver(
        &mut self,
        now: Ps,
        queue: usize,
        frame: EthFrame,
        bh: &mut BottomHalfQueue,
    ) -> RxOutcome {
        assert!(queue < self.queues.len(), "RX queue {queue} out of range");
        if frame.fcs_corrupt {
            self.metrics.trace(
                now,
                self.scope,
                "nic",
                "corrupt_drop",
                frame.payload_len(),
                0,
            );
            return RxOutcome::DroppedCorrupt;
        }
        if self.q(queue).pending >= self.params.rx_ring_size {
            self.frames_dropped += 1;
            self.metrics
                .trace(now, self.scope, "nic", "ring_drop", frame.payload_len(), 0);
            return RxOutcome::DroppedRingFull;
        }
        self.q_mut(queue).pending += 1;
        let pending = self.q(queue).pending;
        if pending > self.q(queue).hwm {
            self.q_mut(queue).hwm = pending;
        }
        let skb = Skbuff::new(frame.src, frame.header, frame.payload, now);
        let core = self.q(queue).core;
        let coalesced = matches!(self.q(queue).last_irq, Some(t)
            if now.saturating_sub(t) < self.params.irq_coalesce);
        if !coalesced {
            self.q_mut(queue).last_irq = Some(now);
        }
        let bh_wake = bh.enqueue(skb);
        let wake = match (coalesced, bh_wake) {
            (false, true) => RxWake::Irq(core),
            (false, false) => RxWake::IrqPending(core),
            (true, false) => RxWake::Pending,
            (true, true) => RxWake::TimerKick(core),
        };
        RxOutcome::Queued { queue, wake }
    }

    /// The bottom half consumed `n` skbuffs from `queue` and refilled
    /// that ring.
    pub fn replenish(&mut self, queue: usize, n: usize) {
        assert!(queue < self.queues.len(), "RX queue {queue} out of range");
        assert!(n <= self.q(queue).pending, "replenishing more than pending");
        self.q_mut(queue).pending -= n;
    }

    /// Skbuffs filled and not yet consumed, across all queues.
    pub fn pending(&self) -> usize {
        self.queues.iter().map(|q| q.pending).sum()
    }

    /// Skbuffs filled and not yet consumed on one queue.
    pub fn pending_on(&self, queue: usize) -> usize {
        self.queues[queue].pending
    }

    /// Highest ring occupancy `queue` ever reached.
    pub fn ring_high_watermark(&self, queue: usize) -> usize {
        self.queues[queue].hwm
    }

    /// Frames dropped on ring overflow so far.
    pub fn frames_dropped(&self) -> u64 {
        self.frames_dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameHeader;
    use bytes::Bytes;

    fn frame(n: usize) -> EthFrame {
        EthFrame::new(0, 1, FrameHeader::default(), Bytes::from(vec![0xABu8; n]))
    }

    /// A frame whose OMX header carries the given endpoint pair (the
    /// RSS channel bytes).
    fn flow_frame(src: u32, dst: u32, src_ep: u8, dst_ep: u8) -> EthFrame {
        let mut header = FrameHeader::default();
        header.put(&[2u8, src_ep, dst_ep, 0, 0]);
        EthFrame::new(src, dst, header, Bytes::new())
    }

    #[test]
    fn deliver_fills_ring_queues_bh_and_raises_irq() {
        let mut nic = Nic::new(NicParams::default());
        let mut bh = BottomHalfQueue::new();
        let out = nic.deliver(Ps::us(1), 0, frame(100), &mut bh);
        assert_eq!(
            out,
            RxOutcome::Queued {
                queue: 0,
                wake: RxWake::Irq(CoreId(0)),
            }
        );
        let skb = bh.pop_next().expect("queued");
        assert_eq!(skb.len(), 100);
        assert_eq!(skb.data[0], 0xAB);
        assert_eq!(skb.rx_time, Ps::us(1));
        assert_eq!(nic.pending(), 1);
    }

    #[test]
    fn payload_moves_from_frame_to_skbuff_without_copy() {
        let mut nic = Nic::new(NicParams::default());
        let mut bh = BottomHalfQueue::new();
        let f = frame(64);
        let wire_ptr = f.payload.as_ptr();
        nic.deliver(Ps::ZERO, 0, f, &mut bh);
        let skb = bh.pop_next().expect("queued");
        assert_eq!(skb.data.as_ptr(), wire_ptr, "payload bytes were copied");
    }

    #[test]
    fn ring_overflow_drops() {
        let mut nic = Nic::new(NicParams {
            rx_ring_size: 2,
            ..NicParams::default()
        });
        let mut bh = BottomHalfQueue::new();
        nic.deliver(Ps::ZERO, 0, frame(10), &mut bh);
        nic.deliver(Ps::ZERO, 0, frame(10), &mut bh);
        let out = nic.deliver(Ps::ZERO, 0, frame(10), &mut bh);
        assert_eq!(out, RxOutcome::DroppedRingFull);
        assert_eq!(nic.frames_dropped(), 1);
        assert_eq!(bh.backlog(), 2, "dropped frame must not reach the BH");
        // Replenish frees slots again.
        nic.replenish(0, 2);
        let out = nic.deliver(Ps::ZERO, 0, frame(10), &mut bh);
        assert!(matches!(out, RxOutcome::Queued { .. }));
    }

    #[test]
    fn irq_coalescing_window() {
        let mut nic = Nic::new(NicParams {
            irq_coalesce: Ps::us(10),
            ..NicParams::default()
        });
        let mut bh = BottomHalfQueue::new();
        let o1 = nic.deliver(Ps::ZERO, 0, frame(10), &mut bh);
        let o2 = nic.deliver(Ps::us(5), 0, frame(10), &mut bh);
        let o3 = nic.deliver(Ps::us(20), 0, frame(10), &mut bh);
        assert!(matches!(
            o1,
            RxOutcome::Queued {
                wake: RxWake::Irq(_),
                ..
            }
        ));
        assert!(matches!(
            o2,
            RxOutcome::Queued {
                wake: RxWake::Pending,
                ..
            }
        ));
        assert!(matches!(
            o3,
            RxOutcome::Queued {
                wake: RxWake::IrqPending(_),
                ..
            }
        ));
    }

    #[test]
    fn zero_coalesce_interrupts_per_frame() {
        // irq_coalesce = 0 is the documented interrupt-per-frame
        // boundary: `0 < 0` never holds, so back-to-back frames at the
        // same instant each raise a hard IRQ.
        let mut nic = Nic::new(NicParams {
            irq_coalesce: Ps::ZERO,
            ..NicParams::default()
        });
        let mut bh = BottomHalfQueue::new();
        let o1 = nic.deliver(Ps::ZERO, 0, frame(10), &mut bh);
        let o2 = nic.deliver(Ps::ZERO, 0, frame(10), &mut bh);
        let o3 = nic.deliver(Ps::ns(1), 0, frame(10), &mut bh);
        assert!(matches!(
            o1,
            RxOutcome::Queued {
                wake: RxWake::Irq(_),
                ..
            }
        ));
        assert!(matches!(
            o2,
            RxOutcome::Queued {
                wake: RxWake::IrqPending(_),
                ..
            }
        ));
        assert!(matches!(
            o3,
            RxOutcome::Queued {
                wake: RxWake::IrqPending(_),
                ..
            }
        ));
    }

    #[test]
    fn moderated_frame_with_idle_bh_demands_timer_kick() {
        // The satellite-1 hazard: inside the moderation window with no
        // BH pending, the outcome must be the unmissable TimerKick
        // obligation, not a silent flag pair.
        let mut nic = Nic::new(NicParams::default());
        let mut bh = BottomHalfQueue::new();
        nic.deliver(Ps::ZERO, 0, frame(10), &mut bh);
        // Drain the BH run the first frame scheduled.
        bh.begin_run();
        while bh.pop_next().is_some() {}
        nic.replenish(0, 1);
        assert!(!bh.finish_run());
        // Second frame lands inside the 25 µs window on an idle BH.
        let out = nic.deliver(Ps::us(5), 0, frame(10), &mut bh);
        assert_eq!(
            out,
            RxOutcome::Queued {
                queue: 0,
                wake: RxWake::TimerKick(CoreId(0)),
            }
        );
    }

    #[test]
    fn bh_wake_only_when_no_run_pending() {
        let mut nic = Nic::new(NicParams::default());
        let mut bh = BottomHalfQueue::new();
        let o1 = nic.deliver(Ps::ZERO, 0, frame(10), &mut bh);
        let o2 = nic.deliver(Ps::ZERO, 0, frame(10), &mut bh);
        assert!(matches!(
            o1,
            RxOutcome::Queued {
                wake: RxWake::Irq(_),
                ..
            }
        ));
        assert!(
            matches!(
                o2,
                RxOutcome::Queued {
                    wake: RxWake::Pending,
                    ..
                }
            ),
            "second frame piggybacks on the pending BH run"
        );
    }

    #[test]
    fn corrupt_frames_dropped_before_ring() {
        let mut nic = Nic::new(NicParams {
            rx_ring_size: 1,
            ..NicParams::default()
        });
        let mut bh = BottomHalfQueue::new();
        let mut f = frame(100);
        f.fcs_corrupt = true;
        let out = nic.deliver(Ps::ZERO, 0, f, &mut bh);
        assert_eq!(out, RxOutcome::DroppedCorrupt);
        // FCS drops never consume a ring slot and are not ring
        // overflow drops.
        assert_eq!(nic.pending(), 0);
        assert_eq!(nic.frames_dropped(), 0);
        assert_eq!(bh.backlog(), 0);
        let out = nic.deliver(Ps::ZERO, 0, frame(10), &mut bh);
        assert!(matches!(out, RxOutcome::Queued { .. }));
    }

    #[test]
    #[should_panic(expected = "more than pending")]
    fn over_replenish_panics() {
        let mut nic = Nic::new(NicParams::default());
        nic.replenish(0, 1);
    }

    fn quad_queue() -> Nic {
        let mut nic = Nic::new(NicParams {
            num_queues: 4,
            ..NicParams::default()
        });
        nic.bind_queue_cores(&[CoreId(0), CoreId(2), CoreId(4), CoreId(6)]);
        nic
    }

    #[test]
    fn rss_steering_is_deterministic_across_instances() {
        // The RSS hash is a fixed function of the flow tuple: two
        // independently built NICs (a fresh "seed"/run) agree on every
        // steering decision, and a flow never migrates between queues.
        let a = quad_queue();
        let b = quad_queue();
        for src in 0..16u32 {
            for ep in 0..8u8 {
                let f = flow_frame(src, 0, 0, ep);
                let q = a.rss_queue(&f);
                assert_eq!(q, b.rss_queue(&f), "steering differs between runs");
                assert_eq!(q, a.rss_queue(&f), "steering differs across calls");
                assert!(q < 4);
            }
        }
    }

    #[test]
    fn rss_spreads_distinct_flows() {
        let nic = quad_queue();
        let mut hit = [false; 4];
        for src in 1..=8u32 {
            let f = flow_frame(src, 0, 0, (src % 4) as u8);
            hit[nic.rss_queue(&f)] = true;
        }
        assert!(
            hit.iter().all(|&h| h),
            "8 distinct flows left an RX queue idle: {hit:?}"
        );
    }

    #[test]
    fn single_queue_never_hashes() {
        let nic = Nic::new(NicParams::default());
        for src in 0..64u32 {
            assert_eq!(nic.rss_queue(&flow_frame(src, 1, src as u8, 0)), 0);
        }
    }

    #[test]
    fn per_queue_rings_and_replenish_are_independent() {
        let mut nic = Nic::new(NicParams {
            num_queues: 2,
            rx_ring_size: 2,
            ..NicParams::default()
        });
        nic.bind_queue_cores(&[CoreId(0), CoreId(2)]);
        let mut bh0 = BottomHalfQueue::new();
        let mut bh1 = BottomHalfQueue::new();
        // Interleave deliveries across the two rings.
        nic.deliver(Ps::ZERO, 0, frame(10), &mut bh0);
        nic.deliver(Ps::ZERO, 1, frame(10), &mut bh1);
        nic.deliver(Ps::ZERO, 0, frame(10), &mut bh0);
        nic.deliver(Ps::ZERO, 1, frame(10), &mut bh1);
        assert_eq!(nic.pending_on(0), 2);
        assert_eq!(nic.pending_on(1), 2);
        assert_eq!(nic.pending(), 4);
        // Queue 0 full; queue 1 full too — but replenishing queue 1
        // must not free queue 0's ring.
        nic.replenish(1, 2);
        assert_eq!(
            nic.deliver(Ps::ZERO, 0, frame(10), &mut bh0),
            RxOutcome::DroppedRingFull
        );
        assert!(matches!(
            nic.deliver(Ps::ZERO, 1, frame(10), &mut bh1),
            RxOutcome::Queued { queue: 1, .. }
        ));
        // Interleaved partial replenish keeps per-queue accounting.
        nic.replenish(0, 1);
        nic.replenish(1, 1);
        assert_eq!(nic.pending_on(0), 1);
        assert_eq!(nic.pending_on(1), 0);
    }

    #[test]
    #[should_panic(expected = "more than pending")]
    fn per_queue_over_replenish_panics() {
        let mut nic = Nic::new(NicParams {
            num_queues: 2,
            ..NicParams::default()
        });
        nic.bind_queue_cores(&[CoreId(0), CoreId(1)]);
        let mut bh = BottomHalfQueue::new();
        nic.deliver(Ps::ZERO, 0, frame(10), &mut bh);
        // One skbuff pending on queue 0, none on queue 1.
        nic.replenish(1, 1);
    }

    #[test]
    fn per_queue_watermarks_and_irq_windows() {
        let mut nic = Nic::new(NicParams {
            num_queues: 2,
            ..NicParams::default()
        });
        nic.bind_queue_cores(&[CoreId(0), CoreId(2)]);
        let mut bh0 = BottomHalfQueue::new();
        let mut bh1 = BottomHalfQueue::new();
        // (raised, coalesced) interrupts per queue, from each wake.
        let mut irqs = [(0, 0); 2];
        let mut deliver = |nic: &mut Nic, at: Ps, queue: usize, bh: &mut BottomHalfQueue| {
            let RxOutcome::Queued { wake, .. } = nic.deliver(at, queue, frame(10), bh) else {
                panic!("frame dropped");
            };
            match wake {
                RxWake::Irq(_) | RxWake::IrqPending(_) => irqs[queue].0 += 1,
                RxWake::Pending | RxWake::TimerKick(_) => irqs[queue].1 += 1,
            }
            wake
        };
        deliver(&mut nic, Ps::ZERO, 0, &mut bh0);
        deliver(&mut nic, Ps::ZERO, 0, &mut bh0);
        deliver(&mut nic, Ps::ZERO, 0, &mut bh0);
        // Queue 1's first frame arrives *inside* queue 0's window but
        // still raises its own IRQ: moderation is per queue.
        let wake = deliver(&mut nic, Ps::us(1), 1, &mut bh1);
        assert_eq!(wake, RxWake::Irq(CoreId(2)));
        assert_eq!(irqs, [(1, 2), (1, 0)]);
        assert_eq!(nic.ring_high_watermark(0), 3);
        assert_eq!(nic.ring_high_watermark(1), 1);
    }

    #[test]
    fn spread_queue_cores_walks_subchips() {
        let topo = Topology::default();
        let p4 = NicParams {
            num_queues: 4,
            ..NicParams::default()
        };
        assert_eq!(
            spread_queue_cores(&p4, &topo),
            vec![CoreId(0), CoreId(2), CoreId(4), CoreId(6)],
            "consecutive queues must land on distinct L2 domains"
        );
        let p8 = NicParams {
            num_queues: 8,
            ..NicParams::default()
        };
        assert_eq!(
            spread_queue_cores(&p8, &topo),
            vec![
                CoreId(0),
                CoreId(2),
                CoreId(4),
                CoreId(6),
                CoreId(1),
                CoreId(3),
                CoreId(5),
                CoreId(7)
            ]
        );
        // A non-zero irq_core stays on queue 0.
        let p2 = NicParams {
            num_queues: 2,
            irq_core: CoreId(3),
            ..NicParams::default()
        };
        assert_eq!(spread_queue_cores(&p2, &topo), vec![CoreId(3), CoreId(0)]);
    }

    #[test]
    #[should_panic(expected = "bound to two RX queues")]
    fn duplicate_queue_core_panics() {
        let mut nic = Nic::new(NicParams {
            num_queues: 2,
            ..NicParams::default()
        });
        nic.bind_queue_cores(&[CoreId(1), CoreId(1)]);
    }
}
