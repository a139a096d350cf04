//! The discrete-event engine.
//!
//! [`Sim<W>`] schedules closures over a user-supplied world type `W`.
//! Events scheduled for the same instant fire in FIFO order (a monotone
//! sequence number breaks ties), which makes runs deterministic
//! regardless of queue internals. The world is passed in at
//! [`Sim::run`] time rather than stored inside the engine so that
//! closures can borrow the engine (`&mut Sim<W>`, for scheduling
//! follow-up events) and the world (`&mut W`) at once.
//!
//! # Queue structure
//!
//! The engine replaced its original `BinaryHeap<(time, seq)>` — one
//! O(log n) comparison cascade per schedule and per pop, one boxed
//! closure allocation per event — with three cooperating structures
//! whose observable execution order is *bit-identical* to the heap's
//! (the determinism suite and the figure goldens are the oracle):
//!
//! * **current slot** — a `VecDeque` holding the events of the slot
//!   the cursor is on, sorted by `(time, seq)` once when the slot is
//!   adopted (seqs are unique, so the sort reconstructs the exact
//!   global schedule order). Execution is a pure `pop_front` run;
//!   scheduling into the executing slot (`now`, or anything else
//!   within its ~131 ns) is an O(1) append in the common monotone case
//!   and a binary-search insert otherwise.
//! * **timing wheel** (`crate::wheel`) — 512 slots of ~131 ns
//!   covering ≈ 67 µs past the last executed instant. In-window
//!   scheduling is an O(1) intrusive-list push into a shared node
//!   slab; finding the next instant is a bitmap scan plus a cached
//!   per-slot minimum.
//!   A coarser second ring (the default two-level wheel) extends the
//!   slab-resident coverage to ~34 ms, so frame arrivals queued behind
//!   a busy link and retransmit timers stay in the slab too.
//! * **overflow heap** — `(time, seq)`-ordered `BinaryHeap` of
//!   small boxed-closure nodes for events beyond the wheel's coverage
//!   (seconds-scale watchdogs; anything past ~67 µs on a
//!   [`Sim::with_wheel_levels`]`(1)` wheel). They cascade into the
//!   wheel as the cursor advances.
//!
//! Closures are packed by `crate::event::EventFn`: up to three words
//! inline in the queue node, medium captures in pooled free-list
//! slots, so steady-state scheduling performs no heap allocation.
//!
//! Every scheduled event fires exactly once; there is no cancellation.
//! A timer that may become moot (a resend timer, a pull watchdog)
//! fires anyway and checks its own state.

use crate::event::{EventFn, EventPool, PoolSlot};
use crate::time::Ps;
use crate::wheel::{slot_of, Entry, FarEntry, FarHeap, Wheel};
use std::collections::VecDeque;

/// A single-threaded deterministic discrete-event simulator.
pub struct Sim<W> {
    now: Ps,
    /// Events scheduled so far, which is also the next event's FIFO
    /// tiebreak.
    seq: u64,
    executed: u64,
    /// High-water mark of [`Sim::events_pending`] over the
    /// simulation's lifetime — a deterministic proxy for the engine's
    /// peak memory footprint (event pool + wheel occupancy track the
    /// pending population).
    pending_peak: usize,
    /// Events of the slot the cursor is on, sorted by `(time, seq)`,
    /// held as indices into the wheel's node slab so the sort and any
    /// mid-drain inserts move 4-byte handles instead of whole entries;
    /// each closure moves exactly once, at fire time. This deque — not
    /// the wheel bucket — is the canonical home of cursor-slot
    /// entries; the wheel's own cursor bucket is empty except
    /// transiently during a cascade.
    current: VecDeque<u32>,
    wheel: Wheel<W>,
    far: FarHeap<W>,
    pool: EventPool,
}

impl<W> Default for Sim<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W> Sim<W> {
    /// A fresh simulator at time zero with an empty queue and the
    /// default two-level wheel.
    pub fn new() -> Self {
        Self::with_wheel_levels(2)
    }

    /// A fresh simulator with an explicit timing-wheel depth. `2` is
    /// the default: a coarser ring on top of the ~67 µs one keeps
    /// events up to ~34 ms out slab-resident and allocation-free. `1`
    /// is the single ring, which boxes everything past ~67 µs onto the
    /// far heap. The executed schedule is bit-identical either way —
    /// level count is purely a throughput knob (`wheel_levels` in
    /// `OmxConfig`).
    pub fn with_wheel_levels(levels: u32) -> Self {
        Sim {
            now: Ps::ZERO,
            seq: 0,
            executed: 0,
            pending_peak: 0,
            current: VecDeque::new(),
            wheel: Wheel::with_levels(levels),
            far: FarHeap::new(),
            pool: EventPool::new(),
        }
    }

    /// Current simulated time. Inside an event handler this is the
    /// event's own timestamp.
    #[inline]
    pub fn now(&self) -> Ps {
        self.now
    }

    /// Number of events executed so far (for budget checks and tests).
    #[inline]
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Number of events still pending: every scheduled event fires
    /// exactly once, so this is scheduled minus executed.
    #[inline]
    pub fn events_pending(&self) -> usize {
        (self.seq - self.executed) as usize
    }

    /// High-water mark of [`Sim::events_pending`] since construction:
    /// the peak simultaneous event population, which bounds the event
    /// pool and wheel slab footprint. Deterministic (a property of the
    /// schedule, not the host), so it can appear in golden files as a
    /// per-shard peak-memory proxy.
    #[inline]
    pub fn events_peak_pending(&self) -> usize {
        self.pending_peak
    }

    /// Earliest pending instant — the timestamp of the next event that
    /// would fire — or `None` when the queue is empty. Unlike the
    /// internal `Sim::next_instant` this includes entries a bounded
    /// [`Sim::run_until`] left behind in the cursor slot, so it is safe
    /// to use as the horizon base of a conservative time-window
    /// protocol (`crates/sim/src/partition.rs`).
    pub fn next_event_at(&self) -> Option<Ps> {
        let cur = self.current.front().map(|&i| self.wheel.node_at(i));
        match (cur, self.next_instant()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Schedule `f` to run at absolute time `at`. Scheduling in the past
    /// is a logic error and panics — it would silently reorder causality.
    pub fn schedule_at(&mut self, at: Ps, f: impl FnOnce(&mut W, &mut Sim<W>) + 'static) {
        let f = EventFn::new(f, &mut self.pool);
        self.insert(at, f);
    }

    /// Schedule `f` to run `delay` after the current time.
    pub fn schedule_in(&mut self, delay: Ps, f: impl FnOnce(&mut W, &mut Sim<W>) + 'static) {
        let at = self
            .now
            .checked_add(delay)
            .expect("simulation clock overflow");
        self.schedule_at(at, f);
    }

    #[inline]
    fn insert(&mut self, at: Ps, f: EventFn<W>) {
        assert!(
            at >= self.now,
            "event scheduled in the past: at={at} now={}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.pending_peak = self.pending_peak.max(self.events_pending());
        if slot_of(at) == self.wheel.cursor() {
            // The cursor slot lives in `current`, kept sorted. The new
            // entry carries the highest seq, so it sorts after every
            // entry with the same or an earlier timestamp — which in
            // the common case (monotone schedules) is the back.
            let sorted_at_back = match self.current.back() {
                Some(&b) => self.wheel.node_at(b) <= at,
                None => true,
            };
            let node = self.wheel.adopt(Entry { at, seq, f });
            if sorted_at_back {
                self.current.push_back(node);
            } else {
                let wheel = &self.wheel;
                let pos = self.current.partition_point(|&i| wheel.node_at(i) <= at);
                self.current.insert(pos, node);
            }
        } else if self.wheel.in_window(at) {
            self.wheel.push(Entry { at, seq, f });
        } else {
            self.far.push(std::cmp::Reverse(FarEntry {
                at,
                seq,
                // omx-lint: allow(hot-path-alloc) truly-far overflow heap only; events inside the default two-level wheel's ~34 ms coverage (~67 µs with wheel_levels=1) stay slab-resident and steady state never lands here [test: crates/sim/tests/alloc_count.rs::steady_state_far_future_timers_allocate_nothing_with_two_levels]
                f: Box::new(f),
            }));
        }
    }

    /// Give a consumed pooled-closure slot back to the free list
    /// (called by the `call_pooled` thunk in `event.rs`).
    #[inline]
    pub(crate) fn recycle_slot(&mut self, slot: *mut PoolSlot) {
        self.pool.put(slot);
    }

    /// Earliest pending instant outside `current`, without mutating any
    /// structure. Wheel entries always precede overflow entries: the
    /// overflow holds only slots at or beyond the window end.
    #[inline]
    fn next_instant(&self) -> Option<Ps> {
        match self.wheel.min_at() {
            Some(t) => Some(t),
            None => self.far.peek().map(|rev| rev.0.at),
        }
    }

    /// Commit to executing the slot holding instant `t` (the queue
    /// minimum): advance the window — cascading overflow entries, some
    /// of which may land in the very slot being adopted — then take
    /// the whole slot as the new `current` run queue and sort it once.
    fn take_slot(&mut self, t: Ps) {
        debug_assert!(self.current.is_empty());
        let s = slot_of(t);
        if self.wheel.is_empty() {
            // Everything due comes straight off the overflow heap,
            // which pops in (time, seq) order: entries of the due slot
            // go directly into `current` — already sorted, no bucket
            // swap — and the rest of the new window cascades normally.
            self.wheel.jump_to(s);
            while let Some(std::cmp::Reverse(head)) = self.far.peek() {
                if !self.wheel.in_window(head.at) {
                    break;
                }
                let std::cmp::Reverse(e) = self.far.pop().expect("peeked entry vanished");
                if slot_of(e.at) == s {
                    let node = self.wheel.adopt(e.into_entry());
                    self.current.push_back(node);
                } else {
                    self.wheel.push(e.into_entry());
                }
            }
            return;
        }
        self.wheel.advance_to(s, &mut self.far);
        self.wheel.take_cursor_slot(&mut self.current);
        // Unstable sort is exact here (seqs are unique) and, unlike a
        // stable sort, allocation-free.
        let wheel = &self.wheel;
        self.current
            .make_contiguous()
            .sort_unstable_by_key(|&i| wheel.node_key(i));
    }

    /// Fire the event in slab node `idx`, just popped off `current`.
    #[inline]
    fn fire(&mut self, world: &mut W, idx: u32) {
        let (at, f) = self.wheel.consume(idx);
        debug_assert!(at >= self.now, "event queue went backwards");
        self.now = at;
        self.executed += 1;
        f.invoke(world, self);
    }

    /// Run until the queue is empty. Returns the final time.
    pub fn run(&mut self, world: &mut W) -> Ps {
        self.run_until(world, Ps::MAX)
    }

    /// Run until the queue is empty or the next event would fire after
    /// `deadline`. Events exactly at the deadline still run. Returns the
    /// time of the last executed event (or the unchanged clock if none
    /// ran).
    pub fn run_until(&mut self, world: &mut W, deadline: Ps) -> Ps {
        loop {
            // Drain the current slot up to the deadline.
            while let Some(&idx) = self.current.front() {
                if self.wheel.node_at(idx) > deadline {
                    // Leftover entries beyond the deadline stay queued.
                    return self.now;
                }
                self.current.pop_front();
                self.fire(world, idx);
            }
            match self.next_instant() {
                Some(t) if t <= deadline => self.take_slot(t),
                _ => return self.now,
            }
        }
    }

    /// Run at most `n` more events (test helper for stepping through a
    /// protocol exchange).
    pub fn step(&mut self, world: &mut W, n: u64) -> u64 {
        let mut done = 0;
        while done < n {
            if let Some(idx) = self.current.pop_front() {
                self.fire(world, idx);
                done += 1;
                continue;
            }
            let Some(t) = self.next_instant() else { break };
            self.take_slot(t);
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_run_in_time_order() {
        let mut sim: Sim<Vec<u32>> = Sim::new();
        let mut world = Vec::new();
        sim.schedule_at(Ps::ns(30), |w: &mut Vec<u32>, _| w.push(3));
        sim.schedule_at(Ps::ns(10), |w: &mut Vec<u32>, _| w.push(1));
        sim.schedule_at(Ps::ns(20), |w: &mut Vec<u32>, _| w.push(2));
        let end = sim.run(&mut world);
        assert_eq!(world, vec![1, 2, 3]);
        assert_eq!(end, Ps::ns(30));
        assert_eq!(sim.events_executed(), 3);
    }

    #[test]
    fn same_time_events_fifo() {
        let mut sim: Sim<Vec<u32>> = Sim::new();
        let mut world = Vec::new();
        for i in 0..100 {
            sim.schedule_at(Ps::ns(5), move |w: &mut Vec<u32>, _| w.push(i));
        }
        sim.run(&mut world);
        assert_eq!(world, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_schedule_events() {
        let mut sim: Sim<u64> = Sim::new();
        let mut world = 0u64;
        fn tick(w: &mut u64, sim: &mut Sim<u64>) {
            *w += 1;
            if *w < 5 {
                sim.schedule_in(Ps::ns(100), tick);
            }
        }
        sim.schedule_at(Ps::ZERO, tick);
        let end = sim.run(&mut world);
        assert_eq!(world, 5);
        assert_eq!(end, Ps::ns(400));
    }

    #[test]
    fn run_until_stops_at_deadline_inclusive() {
        let mut sim: Sim<Vec<u64>> = Sim::new();
        let mut world = Vec::new();
        for t in [10u64, 20, 30, 40] {
            sim.schedule_at(Ps::ns(t), move |w: &mut Vec<u64>, _| w.push(t));
        }
        sim.run_until(&mut world, Ps::ns(20));
        assert_eq!(world, vec![10, 20]);
        assert_eq!(sim.events_pending(), 2);
        sim.run(&mut world);
        assert_eq!(world, vec![10, 20, 30, 40]);
    }

    #[test]
    fn step_runs_bounded_number() {
        let mut sim: Sim<u32> = Sim::new();
        let mut world = 0u32;
        for _ in 0..10 {
            sim.schedule_in(Ps::ns(1), |w: &mut u32, _| *w += 1);
        }
        assert_eq!(sim.step(&mut world, 4), 4);
        assert_eq!(world, 4);
        assert_eq!(sim.step(&mut world, 100), 6);
        assert_eq!(world, 10);
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut sim: Sim<()> = Sim::new();
        let mut world = ();
        sim.schedule_at(Ps::ns(100), |_, sim| {
            sim.schedule_at(Ps::ns(50), |_, _| {});
        });
        sim.run(&mut world);
    }

    #[test]
    fn clock_does_not_move_without_events() {
        let mut sim: Sim<()> = Sim::new();
        let mut world = ();
        assert_eq!(sim.run(&mut world), Ps::ZERO);
        assert_eq!(sim.now(), Ps::ZERO);
    }

    #[test]
    fn far_events_cascade_into_the_wheel() {
        // Events far beyond the wheel's coverage must still run in
        // (time, seq) order, including a same-timestamp pair straddling
        // the overflow heap and a near event scheduled later.
        // Coverage is ~67 µs at one level and ~34 ms at two.
        for (levels, far) in [(1, Ps::ms(5)), (2, Ps::ms(100))] {
            let mut sim: Sim<Vec<u32>> = Sim::with_wheel_levels(levels);
            let mut world = Vec::new();
            sim.schedule_at(far, |w: &mut Vec<u32>, _| w.push(2));
            sim.schedule_at(far, |w: &mut Vec<u32>, _| w.push(3));
            sim.schedule_at(Ps::ns(10), move |w: &mut Vec<u32>, sim| {
                w.push(1);
                sim.schedule_at(far, |w: &mut Vec<u32>, _| w.push(4));
            });
            let end = sim.run(&mut world);
            assert_eq!(world, vec![1, 2, 3, 4]);
            assert_eq!(end, far);
        }
    }

    #[test]
    fn pending_events_drop_cleanly_with_the_sim() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let alive = Rc::new(RefCell::new(0u32));
        {
            let mut sim: Sim<()> = Sim::new();
            for at in [Ps::ns(1), Ps::ms(50)] {
                let a = alive.clone();
                *alive.borrow_mut() += 1;
                sim.schedule_at(at, move |_: &mut (), _| {
                    let _ = &a;
                });
            }
            assert_eq!(Rc::strong_count(&alive), 3);
        }
        assert_eq!(Rc::strong_count(&alive), 1, "captures leaked");
    }
}
