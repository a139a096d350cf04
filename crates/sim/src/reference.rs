//! The original `BinaryHeap`-based engine, kept verbatim as a
//! reference scheduler.
//!
//! [`ReferenceSim`] is the engine the figures were first generated
//! with: a `(time, seq)`-ordered binary heap of boxed closures. It is
//! deliberately simple — its execution order is easy to audit — and it
//! serves two purposes:
//!
//! * the **equivalence proptest** (`crates/sim/tests/equivalence.rs`)
//!   drives random schedule/run workloads through both engines and
//!   asserts identical execution traces and pending counts, which is
//!   what lets the timing-wheel engine claim bit-identical determinism;
//! * its explicit `pending` counter is the independent oracle for the
//!   wheel's derived [`crate::Sim::events_pending`].
//!
//! It mirrors the public API of [`crate::Sim`].

use crate::time::Ps;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

type EventFn<W> = Box<dyn FnOnce(&mut W, &mut ReferenceSim<W>)>;

struct Scheduled<W> {
    at: Ps,
    seq: u64,
    run: EventFn<W>,
}

// Order by (time, sequence) only; the closure does not participate.
impl<W> PartialEq for Scheduled<W> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<W> Eq for Scheduled<W> {}
impl<W> PartialOrd for Scheduled<W> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<W> Ord for Scheduled<W> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The original heap-based deterministic discrete-event simulator.
pub struct ReferenceSim<W> {
    now: Ps,
    seq: u64,
    executed: u64,
    pending: usize,
    queue: BinaryHeap<Reverse<Scheduled<W>>>,
}

impl<W> Default for ReferenceSim<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W> ReferenceSim<W> {
    /// A fresh simulator at time zero with an empty queue.
    pub fn new() -> Self {
        ReferenceSim {
            now: Ps::ZERO,
            seq: 0,
            executed: 0,
            pending: 0,
            queue: BinaryHeap::new(),
        }
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> Ps {
        self.now
    }

    /// Number of events executed so far.
    #[inline]
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Number of events still pending.
    #[inline]
    pub fn events_pending(&self) -> usize {
        self.pending
    }

    /// Schedule `f` to run at absolute time `at`.
    pub fn schedule_at(&mut self, at: Ps, f: impl FnOnce(&mut W, &mut ReferenceSim<W>) + 'static) {
        // omx-lint: allow(hot-path-alloc) differential-testing reference scheduler; it is never on the cluster path, only compared against the wheel [test: crates/sim/tests/equivalence.rs::fifo_order_holds_at_one_million_same_instant_events]
        self.insert(at, Box::new(f));
    }

    /// Schedule `f` to run `delay` after the current time.
    pub fn schedule_in(
        &mut self,
        delay: Ps,
        f: impl FnOnce(&mut W, &mut ReferenceSim<W>) + 'static,
    ) {
        let at = self
            .now
            .checked_add(delay)
            .expect("simulation clock overflow");
        self.schedule_at(at, f);
    }

    fn insert(&mut self, at: Ps, run: EventFn<W>) {
        assert!(
            at >= self.now,
            "event scheduled in the past: at={at} now={}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.pending += 1;
        self.queue.push(Reverse(Scheduled { at, seq, run }));
    }

    fn fire(&mut self, world: &mut W, ev: Scheduled<W>) {
        debug_assert!(ev.at >= self.now, "event queue went backwards");
        self.now = ev.at;
        self.executed += 1;
        self.pending -= 1;
        (ev.run)(world, self);
    }

    /// Run until the queue is empty. Returns the final time.
    pub fn run(&mut self, world: &mut W) -> Ps {
        self.run_until(world, Ps::MAX)
    }

    /// Run until the queue is empty or the next event would fire after
    /// `deadline` (inclusive).
    pub fn run_until(&mut self, world: &mut W, deadline: Ps) -> Ps {
        while let Some(Reverse(head)) = self.queue.peek() {
            if head.at > deadline {
                break;
            }
            let Reverse(ev) = self.queue.pop().expect("peeked entry vanished");
            self.fire(world, ev);
        }
        self.now
    }

    /// Run at most `n` more events.
    pub fn step(&mut self, world: &mut W, n: u64) -> u64 {
        let mut done = 0;
        while done < n {
            let Some(Reverse(ev)) = self.queue.pop() else {
                break;
            };
            self.fire(world, ev);
            done += 1;
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_matches_original_semantics() {
        let mut sim: ReferenceSim<Vec<u32>> = ReferenceSim::new();
        let mut world = Vec::new();
        sim.schedule_at(Ps::ns(30), |w: &mut Vec<u32>, _| w.push(3));
        sim.schedule_at(Ps::ns(10), |w: &mut Vec<u32>, _| w.push(1));
        sim.schedule_at(Ps::ns(20), |w: &mut Vec<u32>, _| w.push(2));
        let end = sim.run(&mut world);
        assert_eq!(world, vec![1, 2, 3]);
        assert_eq!(end, Ps::ns(30));
        assert_eq!(sim.events_executed(), 3);
        assert_eq!(sim.events_pending(), 0);
    }
}
