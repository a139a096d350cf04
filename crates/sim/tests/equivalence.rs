//! Scheduler equivalence: the timing-wheel engine must execute any
//! workload in exactly the order of the reference `BinaryHeap`
//! scheduler it replaced. A property test drives both engines through
//! random op sequences (schedules across every delay class, bounded
//! runs, stepping) and compares full execution traces and pending
//! counts; deterministic stress tests pin the documented edge cases —
//! FIFO at a million same-instant events and the overflow-wheel
//! cascade.

use omx_sim::{Ps, ReferenceSim, Sim, SplitMix64};
use proptest::prelude::*;

/// The world of every scripted run: (label, firing time) per event.
type Trace = Vec<(u32, u64)>;

/// One scripted action against an engine.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Schedule an event (delay class, magnitude).
    Schedule(u8, u64),
    /// Run until `now + delta(class, magnitude)`.
    RunUntil(u8, u64),
    /// Run at most `n` events.
    Step(u64),
}

/// Map a (class, magnitude) pair onto the engine's interesting delay
/// regimes: same instant, within the cursor slot, inside the wheel
/// window, beyond it (level-1 territory for a two-level wheel, the
/// overflow heap otherwise, ≳ 67 µs out), and straddling the ~34 ms
/// level-1 boundary (the far heap in both configurations past it).
fn delay(class: u8, mag: u64) -> Ps {
    match class % 5 {
        0 => Ps::ZERO,
        1 => Ps::ns(1 + mag % 200),
        2 => Ps::us(1 + mag % 60),
        3 => Ps::us(70 + mag % 5000),
        _ => Ps::ms(30 + mag % 20),
    }
}

/// Run `ops` against an engine, returning the trace of executed events
/// as (label, firing time) with the final clock and executed count,
/// plus the engine's pending count after every op. Written as a macro
/// because `Sim` and `ReferenceSim` share an API surface but no trait.
macro_rules! run_ops {
    ($sim:ident, $ops:expr) => {{
        let mut world: Trace = Vec::new();
        let mut pending = Vec::with_capacity($ops.len());
        let mut label = 0u32;
        for op in $ops.iter() {
            match *op {
                Op::Schedule(class, mag) => {
                    let l = label;
                    label += 1;
                    $sim.schedule_in(delay(class, mag), move |w: &mut Trace, s| {
                        let now = s.now().0;
                        w.push((l, now));
                    });
                }
                Op::RunUntil(class, mag) => {
                    let deadline = Ps($sim.now().0 + delay(class, mag).0);
                    $sim.run_until(&mut world, deadline);
                }
                Op::Step(n) => {
                    $sim.step(&mut world, n % 16);
                }
            }
            pending.push($sim.events_pending());
        }
        $sim.run(&mut world);
        pending.push($sim.events_pending());
        (($sim.now().0, $sim.events_executed(), world), pending)
    }};
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Schedules repeated to bias the mix toward them.
    prop_oneof![
        (any::<u8>(), any::<u64>()).prop_map(|(c, m)| Op::Schedule(c, m)),
        (any::<u8>(), any::<u64>()).prop_map(|(c, m)| Op::Schedule(c, m)),
        (any::<u8>(), any::<u64>()).prop_map(|(c, m)| Op::RunUntil(c, m)),
        any::<u64>().prop_map(Op::Step),
    ]
}

proptest! {
    /// Bit-identical execution order for arbitrary op sequences, at
    /// both wheel depths, with the wheel's derived pending count equal
    /// to the reference's explicit counter after every op.
    #[test]
    fn wheel_matches_reference_scheduler(ops in proptest::collection::vec(op_strategy(), 0..200)) {
        let mut heap_sim: ReferenceSim<Trace> = ReferenceSim::new();
        let heap = run_ops!(heap_sim, ops);
        // Handlers schedule nothing, so the pending count peaks right
        // after a `Schedule` op, where it was recorded.
        let heap_peak = heap.1.iter().copied().max().unwrap_or(0);
        for levels in [1, 2] {
            let mut sim: Sim<Trace> = Sim::with_wheel_levels(levels);
            let wheel = run_ops!(sim, ops);
            prop_assert_eq!(&wheel, &heap);
            prop_assert_eq!(sim.events_peak_pending(), heap_peak);
        }
    }
}

#[test]
fn fifo_order_holds_at_one_million_same_instant_events() {
    const N: u32 = 1_000_000;
    let mut sim: Sim<Vec<u32>> = Sim::new();
    let mut world = Vec::with_capacity(N as usize);
    let at = Ps::us(3);
    for i in 0..N {
        sim.schedule_at(at, move |w: &mut Vec<u32>, _| w.push(i));
    }
    let end = sim.run(&mut world);
    assert_eq!(end, at);
    assert_eq!(world.len(), N as usize);
    assert!(
        world.iter().enumerate().all(|(i, &v)| v == i as u32),
        "same-instant events executed out of schedule order"
    );
}

#[test]
fn overflow_cascade_preserves_global_order() {
    // Pseudo-random timestamps spread far beyond the wheel window, so
    // most events start on the overflow heap and cascade in as the
    // cursor advances. Both engines must agree exactly.
    const N: u64 = 4_000;
    let times: Vec<u64> = {
        let mut rng = SplitMix64::new(0x9E37_79B9_7F4A_7C15);
        (0..N).map(|_| rng.next_u64() % 10_000_000_000).collect()
    };
    let run = |times: &[u64], levels: u32| {
        let mut sim: Sim<Vec<(u32, u64)>> = Sim::with_wheel_levels(levels);
        let mut world = Vec::new();
        for (i, &t) in times.iter().enumerate() {
            let l = i as u32;
            sim.schedule_at(Ps(t), move |w: &mut Vec<(u32, u64)>, s| {
                let now = s.now().0;
                w.push((l, now));
            });
        }
        sim.run(&mut world);
        world
    };
    let run_ref = |times: &[u64]| {
        let mut sim: ReferenceSim<Vec<(u32, u64)>> = ReferenceSim::new();
        let mut world = Vec::new();
        for (i, &t) in times.iter().enumerate() {
            let l = i as u32;
            sim.schedule_at(Ps(t), move |w: &mut Vec<(u32, u64)>, s| {
                let now = s.now().0;
                w.push((l, now));
            });
        }
        sim.run(&mut world);
        world
    };
    let wheel = run(&times, 1);
    let heap = run_ref(&times);
    assert_eq!(wheel.len(), N as usize);
    assert_eq!(wheel, heap);
    // The 10 ms spread keeps most events in level-1 territory for the
    // two-level wheel: same trace required.
    assert_eq!(run(&times, 2), heap);
    // And the trace really is (time, schedule-order) sorted.
    let mut sorted = wheel.clone();
    sorted.sort_by_key(|&(l, t)| (t, l));
    assert_eq!(wheel, sorted);
}
