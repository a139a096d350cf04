//! The driver→library event ring and receive data slots.
//!
//! The Open-MX driver communicates with the user-space library through
//! a shared event ring per endpoint (§III-A: "an event is written in a
//! shared event ring to notify a receive completion"). Small and
//! medium message data additionally lands in statically allocated,
//! statically *pinned* ring slots ("statically pinned ring" of Fig 2) —
//! pinned, which is why the BH (and I/OAT) can always copy into them.

use crate::{EpAddr, ReqId};
use bytes::Bytes;
use std::collections::VecDeque;

/// One driver→library event.
#[derive(Debug, Clone)]
pub enum Event {
    /// A tiny message arrived; its payload rides in the event.
    RecvTiny {
        /// Sender address.
        src: EpAddr,
        /// Match information.
        match_info: u64,
        /// Message sequence.
        msg_seq: u32,
        /// Inline payload (≤ 32 bytes).
        data: Bytes,
    },
    /// A small message arrived into one ring slot.
    RecvSmall {
        /// Sender address.
        src: EpAddr,
        /// Match information.
        match_info: u64,
        /// Message sequence.
        msg_seq: u32,
        /// Ring slot holding the payload.
        slot: usize,
        /// Payload length.
        len: u32,
    },
    /// One medium-message fragment arrived into a ring slot. With
    /// library-level matching (the paper's stack) every fragment raises
    /// one of these — the very thing that forces medium copies to be
    /// synchronous (§III-C).
    RecvMediumFrag {
        /// Sender address.
        src: EpAddr,
        /// Match information.
        match_info: u64,
        /// Message sequence.
        msg_seq: u32,
        /// Total message length.
        msg_len: u32,
        /// Total fragments.
        frag_count: u16,
        /// Offset of this fragment in the message.
        offset: u32,
        /// Ring slot holding the fragment payload.
        slot: usize,
        /// Fragment length.
        len: u32,
    },
    /// A complete medium message arrived (kernel-matching extension:
    /// the driver matched and reassembled it into the posted buffer;
    /// one event per message instead of one per fragment).
    RecvMediumDone {
        /// The completed receive request.
        req: ReqId,
        /// Delivered length.
        len: u32,
    },
    /// A rendezvous request arrived for a large message.
    RecvRndv {
        /// Sender address.
        src: EpAddr,
        /// Match information.
        match_info: u64,
        /// Message sequence.
        msg_seq: u32,
        /// Announced length.
        msg_len: u64,
        /// Sender-side handle for the pull.
        sender_handle: u32,
    },
    /// A large-message pull finished; the data sits in the receive
    /// buffer (single completion event per large message, §III-A).
    RecvLargeDone {
        /// The completed receive request.
        req: ReqId,
        /// Delivered length.
        len: u64,
    },
    /// A send request completed (eager fully transmitted, or Notify
    /// received for a large send).
    SendDone {
        /// The completed send request.
        req: ReqId,
    },
}

/// The per-endpoint event ring.
#[derive(Debug, Default)]
pub struct EventRing {
    queue: VecDeque<Event>,
}

impl EventRing {
    /// An empty ring.
    pub fn new() -> Self {
        Self::default()
    }

    /// Driver side: publish an event.
    pub fn push(&mut self, ev: Event) {
        self.queue.push_back(ev);
    }

    /// Library side: consume the oldest event.
    pub fn pop(&mut self) -> Option<Event> {
        self.queue.pop_front()
    }

    /// Events waiting.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether no events wait.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

/// The statically pinned receive data slots of one endpoint.
///
/// The BH copies small/medium payloads here; the library copies them
/// out and frees the slot. Slot exhaustion mirrors the real stack: the
/// packet is dropped and the sender's retransmission recovers it.
///
/// The simulated copy into the slot is charged by the caller
/// (`bh_copy_cost`, `shm_memcpy_cost`, the synchronous I/OAT medium
/// path); the host does not repeat it. A slot holds a refcounted slice
/// of the frame's own payload, so the pool costs a few words per slot
/// ever touched, whatever `slot_bytes` is.
#[derive(Debug)]
pub struct SlotPool {
    /// Payload held by each slot, grown one slot at a time up to
    /// `limit`; a released slot holds the empty buffer, which shares
    /// no allocation.
    slots: Vec<Bytes>,
    slot_bytes: usize,
    limit: usize,
    free: Vec<usize>,
    drops: u64,
}

impl SlotPool {
    /// A pool of up to `n` slots of `slot_bytes` each. Indices are
    /// handed out lowest unused first, released slots LIFO, so run
    /// traces do not depend on how slots are stored.
    pub fn new(n: usize, slot_bytes: usize) -> Self {
        SlotPool {
            slots: Vec::new(),
            slot_bytes,
            limit: n,
            free: Vec::new(),
            drops: 0,
        }
    }

    /// Driver side: claim a slot and let it hold `data`. Returns the
    /// slot index, or `None` (and counts a drop) when the ring is full.
    pub fn fill(&mut self, data: &Bytes) -> Option<usize> {
        assert!(
            data.len() <= self.slot_bytes,
            "payload {} exceeds slot size {}",
            data.len(),
            self.slot_bytes
        );
        let i = match self.free.pop() {
            Some(i) => i,
            None if self.slots.len() < self.limit => {
                self.slots.push(Bytes::new());
                self.slots.len() - 1
            }
            None => {
                self.drops += 1;
                return None;
            }
        };
        self.slots[i] = data.clone();
        Some(i)
    }

    /// Library side: the first `len` bytes held by `slot`.
    pub fn read(&self, slot: usize, len: usize) -> &[u8] {
        &self.slots[slot][..len]
    }

    /// Library side: release `slot` and keep its first `len` bytes
    /// without copying them (an unexpected message buffers these).
    pub fn take(&mut self, slot: usize, len: usize) -> Bytes {
        let data = self.slots[slot].slice(..len);
        self.release(slot);
        data
    }

    /// Library side: release a slot after copying it out. The slot
    /// drops its payload, so no reference outlives it.
    pub fn release(&mut self, slot: usize) {
        debug_assert!(!self.free.contains(&slot), "double release of slot {slot}");
        self.slots[slot] = Bytes::new();
        self.free.push(slot);
    }

    /// Free slots remaining (released plus never-touched capacity).
    pub fn free_slots(&self) -> usize {
        self.free.len() + (self.limit - self.slots.len())
    }

    /// Packets dropped because the ring was full.
    pub fn drops(&self) -> u64 {
        self.drops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EpIdx, NodeId};

    fn src() -> EpAddr {
        EpAddr {
            node: NodeId(1),
            ep: EpIdx(0),
        }
    }

    #[test]
    fn ring_is_fifo() {
        let mut r = EventRing::new();
        r.push(Event::SendDone { req: ReqId(1) });
        r.push(Event::SendDone { req: ReqId(2) });
        assert_eq!(r.len(), 2);
        match r.pop().unwrap() {
            Event::SendDone { req } => assert_eq!(req, ReqId(1)),
            _ => panic!(),
        }
        match r.pop().unwrap() {
            Event::SendDone { req } => assert_eq!(req, ReqId(2)),
            _ => panic!(),
        }
        assert!(r.pop().is_none());
        assert!(r.is_empty());
    }

    #[test]
    fn events_carry_payload() {
        let mut r = EventRing::new();
        r.push(Event::RecvTiny {
            src: src(),
            match_info: 9,
            msg_seq: 0,
            data: Bytes::from_static(b"hi"),
        });
        match r.pop().unwrap() {
            Event::RecvTiny { data, .. } => assert_eq!(&data[..], b"hi"),
            _ => panic!(),
        }
    }

    #[test]
    fn slot_pool_fill_read_release() {
        let mut p = SlotPool::new(2, 4096);
        let a = p.fill(&Bytes::from_static(b"aaaa")).unwrap();
        let b = p.fill(&Bytes::from_static(b"bbbb")).unwrap();
        assert_ne!(a, b);
        assert_eq!(p.free_slots(), 0);
        assert_eq!(p.read(a, 4), b"aaaa");
        assert_eq!(p.read(b, 4), b"bbbb");
        // Exhausted: drop counted.
        assert!(p.fill(&Bytes::from_static(b"cccc")).is_none());
        assert_eq!(p.drops(), 1);
        p.release(a);
        assert_eq!(p.free_slots(), 1);
        let c = p.fill(&Bytes::from_static(b"cccc")).unwrap();
        assert_eq!(c, a, "released slot reused");
        assert_eq!(p.read(c, 4), b"cccc");
        assert_eq!(&p.take(b, 2)[..], b"bb");
        assert_eq!(p.free_slots(), 1, "take releases the slot");
    }

    /// A slot holds the filled payload itself, not a copy of it, and
    /// lets go of it on release.
    #[test]
    fn slot_read_borrows_the_filled_payload() {
        let mut p = SlotPool::new(1, 4096);
        let data = Bytes::from(vec![7u8; 1024]).slice(100..600);
        let s = p.fill(&data).unwrap();
        assert_eq!(p.read(s, 500).as_ptr(), data.as_ptr());
        assert_eq!(p.read(s, 10).as_ptr(), data.as_ptr());
        let kept = p.take(s, 300);
        assert_eq!(kept.as_ptr(), data.as_ptr());
        assert_eq!(kept.len(), 300);
        assert!(p.slots[s].is_empty(), "released slot holds no payload");
    }

    #[test]
    #[should_panic(expected = "exceeds slot size")]
    fn oversized_payload_panics() {
        let mut p = SlotPool::new(1, 8);
        p.fill(&Bytes::from(vec![0u8; 9]));
    }
}
