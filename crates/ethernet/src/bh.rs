//! Bottom-half (softirq) queues.
//!
//! The hard-IRQ handler does almost nothing; the heavy lifting runs
//! later in a *bottom half* on the interrupted core (paper §II-B). We
//! model one BH queue per core: the IRQ enqueues filled skbuffs and
//! marks the BH pending; when the BH runs it drains up to a NAPI-style
//! budget of skbuffs through the protocol callback, then (if work
//! remains) re-schedules itself.
//!
//! A `true` return from [`BottomHalfQueue::enqueue`] or
//! [`BottomHalfQueue::finish_run`] is a *promise* by the caller to
//! schedule a run. Dropping that promise is the classic lost-wakeup
//! bug: the queue stays `scheduled`, every later enqueue piggybacks on
//! a run that never comes, and the skbuffs sit forever. In debug
//! builds each promise mints a [`Kind::BhRun`] sanitizer token that
//! [`BottomHalfQueue::begin_run`] retires, so a dropped re-schedule
//! panics at teardown ("scheduled BH run not released") instead of
//! hanging silently.

use crate::skbuff::Skbuff;
use omx_sim::sanitize::{Kind, SimSanitizer, Token};
use std::collections::VecDeque;

/// Per-core bottom-half state.
#[derive(Debug, Default)]
pub struct BottomHalfQueue {
    queue: VecDeque<Skbuff>,
    /// Whether a BH run is already scheduled (avoids duplicate runs).
    scheduled: bool,
    /// The live run promise: minted when `scheduled` flips on (or
    /// `finish_run` asks for a re-schedule), retired by `begin_run`.
    pending_run: Option<Token>,
}

/// NAPI default weight: max skbuffs processed per BH invocation.
pub const NAPI_BUDGET: usize = 64;

impl BottomHalfQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// IRQ path: enqueue a filled skbuff. Returns `true` when the
    /// caller must schedule a BH run (none was pending).
    #[track_caller]
    pub fn enqueue(&mut self, skb: Skbuff) -> bool {
        SimSanitizer::submit(skb.token());
        self.queue.push_back(skb);
        if self.scheduled {
            false
        } else {
            self.scheduled = true;
            self.promise_run();
            true
        }
    }

    /// The promised run started: retire the promise. Call once at the
    /// top of every scheduled BH run, before the first `pop_next`.
    #[track_caller]
    pub fn begin_run(&mut self) {
        debug_assert!(self.scheduled, "BH run began without being scheduled");
        if let Some(t) = self.pending_run.take() {
            SimSanitizer::complete(t);
            SimSanitizer::release(t);
        }
    }

    /// BH path: take the next skbuff to process, FIFO. The caller
    /// drains up to its budget one skbuff at a time (no per-run batch
    /// allocation) and then calls [`Self::finish_run`].
    pub fn pop_next(&mut self) -> Option<Skbuff> {
        self.queue.pop_front()
    }

    /// Mark the current BH run finished. Returns `true` when skbuffs
    /// remain and the BH must be re-scheduled (budget exhausted while
    /// traffic kept arriving) — a fresh promise the caller must honor.
    #[track_caller]
    pub fn finish_run(&mut self) -> bool {
        debug_assert!(
            self.pending_run.is_none(),
            "finish_run before begin_run retired the run promise"
        );
        if self.queue.is_empty() {
            self.scheduled = false;
            false
        } else {
            // Stay scheduled; caller re-queues a run.
            self.promise_run();
            true
        }
    }

    /// Skbuffs waiting.
    pub fn backlog(&self) -> usize {
        self.queue.len()
    }

    /// Whether a BH run is pending.
    pub fn is_scheduled(&self) -> bool {
        self.scheduled
    }

    #[track_caller]
    fn promise_run(&mut self) {
        let t = SimSanitizer::alloc(Kind::BhRun);
        SimSanitizer::submit(t);
        self.pending_run = Some(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use omx_sim::Ps;

    fn skb(n: usize) -> Skbuff {
        Skbuff::new(0, Default::default(), Bytes::from(vec![0u8; n]), Ps::ZERO)
    }

    #[test]
    fn first_enqueue_schedules_once() {
        let mut bh = BottomHalfQueue::new();
        assert!(bh.enqueue(skb(10)));
        assert!(!bh.enqueue(skb(10)), "second enqueue piggybacks");
        assert_eq!(bh.backlog(), 2);
        assert!(bh.is_scheduled());
    }

    /// Pop up to `budget` skbuffs, as a BH run does.
    fn drain(bh: &mut BottomHalfQueue, budget: usize) -> Vec<Skbuff> {
        let mut out = Vec::new();
        while out.len() < budget {
            let Some(s) = bh.pop_next() else { break };
            out.push(s);
        }
        out
    }

    #[test]
    fn drain_respects_budget_and_order() {
        let mut bh = BottomHalfQueue::new();
        for i in 0..5 {
            bh.enqueue(skb(i + 1));
        }
        bh.begin_run();
        let batch = drain(&mut bh, 3);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch[0].len(), 1);
        assert_eq!(batch[2].len(), 3);
        assert_eq!(bh.backlog(), 2);
        // Work remains: finish_run asks for a re-schedule.
        assert!(bh.finish_run());
        bh.begin_run();
        let batch = drain(&mut bh, NAPI_BUDGET);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[1].len(), 5, "all five drained, in order");
        assert!(bh.pop_next().is_none());
        assert!(!bh.finish_run());
        assert!(!bh.is_scheduled());
    }

    #[test]
    fn enqueue_after_drain_schedules_again() {
        let mut bh = BottomHalfQueue::new();
        bh.enqueue(skb(1));
        bh.begin_run();
        bh.pop_next().expect("queued");
        bh.finish_run();
        assert!(bh.enqueue(skb(2)), "queue drained, new run needed");
    }

    #[test]
    fn empty_pop_is_none() {
        let mut bh = BottomHalfQueue::new();
        assert!(bh.pop_next().is_none());
        assert!(!bh.finish_run());
    }

    /// The satellite-3 lost-wakeup check: an honored promise leaves
    /// nothing outstanding; a dropped one trips `assert_quiesced`.
    #[cfg(debug_assertions)]
    #[test]
    fn honored_run_promise_quiesces() {
        SimSanitizer::clear();
        let mut bh = BottomHalfQueue::new();
        assert!(bh.enqueue(skb(4)));
        bh.begin_run();
        let s = bh.pop_next().expect("queued");
        SimSanitizer::complete(s.token());
        SimSanitizer::release(s.token());
        assert!(!bh.finish_run());
        SimSanitizer::assert_quiesced();
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "scheduled BH run")]
    fn dropped_run_promise_is_a_lost_wakeup_panic() {
        SimSanitizer::clear();
        let mut bh = BottomHalfQueue::new();
        // The enqueue returns `true`: the caller now owes a BH run.
        assert!(bh.enqueue(skb(4)));
        // Model a buggy driver that drops the wakeup: it never calls
        // begin_run. Drain the skbuff out-of-band so the only leaked
        // token is the run promise itself.
        let s = bh.queue.pop_front().expect("queued");
        SimSanitizer::complete(s.token());
        SimSanitizer::release(s.token());
        SimSanitizer::assert_quiesced();
    }
}
