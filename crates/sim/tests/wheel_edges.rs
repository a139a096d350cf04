//! Timing-wheel edge cases the equivalence property test only hits by
//! luck: schedules landing exactly on the wheel-window and level-1
//! boundaries, whole level-1 slots cascading at once, slab-index reuse
//! across many generations, and timers hopping between levels. Every
//! scenario runs against both engines and compares full execution
//! traces, so the `ReferenceSim` binary heap stays the oracle.

use omx_sim::{Ps, ReferenceSim, Sim};

/// Slot width and window span of the wheel (`2^SLOT_SHIFT` ps × 512
/// slots, see `crates/sim/src/wheel.rs`). The constants are crate
/// private by design; the tests pin the documented geometry so a silent
/// resize of the window shows up here.
const SLOT_PS: u64 = 1 << 17;
const WINDOW_PS: u64 = 512 * SLOT_PS;

/// Drive one engine through a scenario and capture its trace. Written
/// as a macro because `Sim` and `ReferenceSim` share an API surface
/// but no trait. The second form takes an explicit constructor
/// expression (e.g. `Sim::with_wheel_levels(2)`).
macro_rules! trace {
    ($SimTy:ident, $scenario:ident) => {
        trace!($SimTy::new(), $scenario)
    };
    ($ctor:expr, $scenario:ident) => {{
        let mut sim = $ctor;
        let mut world: Vec<(u32, u64)> = Vec::new();
        $scenario!(sim, world);
        sim.run(&mut world);
        (sim.now().0, sim.events_executed(), world)
    }};
}

/// Push a labelled marker event when it fires.
macro_rules! mark {
    ($sim:ident, at $t:expr, label $l:expr) => {
        $sim.schedule_at(Ps($t), move |w: &mut Vec<(u32, u64)>, s| {
            let now = s.now().0;
            w.push(($l, now));
        })
    };
    ($sim:ident, in $d:expr, label $l:expr) => {
        $sim.schedule_in($d, move |w: &mut Vec<(u32, u64)>, s| {
            let now = s.now().0;
            w.push(($l, now));
        })
    };
}

#[test]
fn schedule_exactly_on_window_boundary() {
    // From a zero cursor the window covers slots [0, 512); an event at
    // exactly `WINDOW_PS` is the first instant that must overflow, and
    // `WINDOW_PS - 1` the last that fits the wheel. Straddle the edge
    // from both a cold start and an advanced cursor, including exact
    // slot-width multiples and same-instant FIFO ties on the boundary.
    macro_rules! scenario {
        ($sim:ident, $world:ident) => {
            mark!($sim, at WINDOW_PS - 1, label 0);
            mark!($sim, at WINDOW_PS, label 1);
            mark!($sim, at WINDOW_PS, label 2); // FIFO tie on the edge
            mark!($sim, at WINDOW_PS + 1, label 3);
            mark!($sim, at 2 * WINDOW_PS, label 4);
            // Advance the cursor mid-window, then straddle the *new*
            // window edge relative to the moved cursor.
            $sim.run_until(&mut $world, Ps(3 * SLOT_PS + 7));
            let base = $sim.now().0;
            mark!($sim, at base + WINDOW_PS - 1, label 5);
            mark!($sim, at base + WINDOW_PS, label 6);
            // Exact slot-width multiples around the edge.
            mark!($sim, at base + WINDOW_PS - SLOT_PS, label 7);
            mark!($sim, at base + WINDOW_PS + SLOT_PS, label 8);
        };
    }
    let wheel = trace!(Sim::with_wheel_levels(1), scenario);
    let heap = trace!(ReferenceSim, scenario);
    assert_eq!(wheel, heap);
    assert_eq!(wheel.2.len(), 9, "every boundary event fires exactly once");
    // The trace really is (time, schedule-order) sorted.
    let mut sorted = wheel.2.clone();
    sorted.sort_by_key(|&(l, t)| (t, l));
    assert_eq!(wheel.2, sorted);
    // With two levels the same boundary instants are level-0/level-1
    // routing decisions instead of wheel/heap ones.
    let wheel2 = trace!(Sim::with_wheel_levels(2), scenario);
    assert_eq!(wheel2, heap);
}

#[test]
fn slab_reuse_across_generations() {
    // Repeatedly fill a window and drain it: freed slab nodes must be
    // reused without resurrecting fired closures or breaking FIFO
    // order. Eight generations guarantee the free list cycles many
    // times.
    macro_rules! scenario {
        ($sim:ident, $world:ident) => {
            let mut label = 0u32;
            for _gen in 0..8u32 {
                for k in 0..64u64 {
                    let l = label;
                    label += 1;
                    // Spread across the window, several per slot.
                    mark!($sim, in Ps(1 + (k % 16) * SLOT_PS / 3), label l);
                }
                // Interleave a second batch that must claim nodes the
                // first batch's slots hand back.
                for k in 0..16u64 {
                    let l = label;
                    label += 1;
                    mark!($sim, in Ps(1 + k * SLOT_PS / 5), label l);
                }
                // Drain this generation completely before the next.
                let deadline = Ps($sim.now().0 + 20 * SLOT_PS);
                $sim.run_until(&mut $world, deadline);
            }
        };
    }
    let wheel = trace!(Sim::with_wheel_levels(1), scenario);
    let heap = trace!(ReferenceSim, scenario);
    assert_eq!(wheel, heap);
    // 8 generations × (64 + 16) events, each fired exactly once.
    assert_eq!(wheel.2.len(), 8 * 80, "wrong event count after reuse");
    let wheel2 = trace!(Sim::with_wheel_levels(2), scenario);
    assert_eq!(wheel2, heap);
}

/// Span of the level-1 ring: 512 level-1 slots, each one level-0
/// window wide (~34 ms total).
const L1_WINDOW_PS: u64 = 512 * WINDOW_PS;

#[test]
fn level1_boundary_instants_match_reference() {
    // With two wheel levels the interesting edges move: `WINDOW_PS` is
    // the first instant that leaves level 0 for level 1, and
    // `L1_WINDOW_PS` (plus the partial slot the cursor sits in) is the
    // first that must overflow to the far heap. Straddle both edges
    // from a cold start and from an advanced (unaligned) cursor,
    // with FIFO ties on each edge.
    macro_rules! scenario {
        ($sim:ident, $world:ident) => {
            mark!($sim, at WINDOW_PS - 1, label 0);
            mark!($sim, at WINDOW_PS, label 1); // first level-1 resident
            mark!($sim, at WINDOW_PS, label 2); // FIFO tie on the edge
            mark!($sim, at L1_WINDOW_PS - 1, label 3);
            mark!($sim, at L1_WINDOW_PS, label 4);
            mark!($sim, at L1_WINDOW_PS + WINDOW_PS, label 5); // beyond even the partial slot
            // Advance into the middle of a slot so the cursor is
            // unaligned with the level-1 grid, then straddle again.
            $sim.run_until(&mut $world, Ps(5 * SLOT_PS + 11));
            let base = $sim.now().0;
            mark!($sim, at base + WINDOW_PS - 1, label 6);
            mark!($sim, at base + WINDOW_PS, label 7);
            mark!($sim, at base + L1_WINDOW_PS, label 8);
            mark!($sim, at base + L1_WINDOW_PS + WINDOW_PS, label 9);
        };
    }
    let heap = trace!(ReferenceSim, scenario);
    let wheel1 = trace!(Sim::with_wheel_levels(1), scenario);
    let wheel2 = trace!(Sim::with_wheel_levels(2), scenario);
    assert_eq!(wheel1, heap);
    assert_eq!(wheel2, heap);
    assert_eq!(
        wheel2.2.len(),
        10,
        "every boundary event fires exactly once"
    );
    let mut sorted = wheel2.2.clone();
    sorted.sort_by_key(|&(l, t)| (t, l));
    assert_eq!(wheel2.2, sorted);
}

#[test]
fn whole_level1_slot_cascades_onto_one_level0_slot() {
    // Many events inside one level-1 slot that all share a single
    // level-0 slot (same ~131 ns bucket, distinct instants plus FIFO
    // ties): the cascade must land them all in that one slot and the
    // adoption sort must reconstruct exact (time, seq) order.
    macro_rules! scenario {
        ($sim:ident, $world:ident) => {
            let base = 40 * WINDOW_PS + 17 * SLOT_PS; // one level-0 slot, far out
            for k in 0..24u64 {
                // 24 events inside one slot: ties every third instant.
                mark!($sim, at base + (k / 3), label k as u32);
            }
            // A stray event in the *previous* level-0 slot of the same
            // level-1 slot, scheduled last: fires first.
            mark!($sim, at base - SLOT_PS, label 99);
        };
    }
    let heap = trace!(ReferenceSim, scenario);
    let wheel1 = trace!(Sim::with_wheel_levels(1), scenario);
    let wheel2 = trace!(Sim::with_wheel_levels(2), scenario);
    assert_eq!(wheel1, heap);
    assert_eq!(wheel2, heap);
    let labels: Vec<u32> = wheel2.2.iter().map(|&(l, _)| l).collect();
    let mut want: Vec<u32> = vec![99];
    want.extend(0..24);
    assert_eq!(labels, want, "cascade broke slot-internal order");
}

#[test]
fn reschedule_across_levels() {
    // Timers spread over every delay regime — cursor slot, level-0
    // window, level-1 range, beyond level-1 — each with a shadow a
    // quarter window later, then two re-arms from an advanced cursor.
    // The shadows and re-arms cross level boundaries in every
    // direction.
    macro_rules! scenario {
        ($sim:ident, $world:ident) => {
            // Hop pattern cycles: near, far (level 1), very far (heap
            // in both engines), slot-local.
            let delays: [u64; 8] = [
                SLOT_PS / 2,          // cursor slot
                3 * WINDOW_PS,        // level 1
                WINDOW_PS / 2,        // level 0
                600 * WINDOW_PS,      // beyond level-1 coverage
                WINDOW_PS,            // exactly the level-0 edge
                L1_WINDOW_PS,         // exactly the level-1 edge
                7,                    // same slot again
                2 * WINDOW_PS + 1,    // level 1 again
            ];
            // Each shadow lands a quarter window after its hop, often
            // on the other side of a level boundary.
            for (i, &d) in delays.iter().enumerate() {
                let l = i as u32;
                mark!($sim, in Ps(d), label l);
                mark!($sim, in Ps(d + WINDOW_PS / 4), label 100 + l);
            }
            // Let some fire, then re-arm across the opposite level.
            $sim.run_until(&mut $world, Ps(4 * WINDOW_PS));
            mark!($sim, in Ps(500 * WINDOW_PS), label 200);
            mark!($sim, in Ps(SLOT_PS), label 201);
        };
    }
    let heap = trace!(ReferenceSim, scenario);
    let wheel1 = trace!(Sim::with_wheel_levels(1), scenario);
    let wheel2 = trace!(Sim::with_wheel_levels(2), scenario);
    assert_eq!(wheel1, heap);
    assert_eq!(wheel2, heap);
    assert_eq!(
        wheel2.2.len(),
        18,
        "every hop, shadow and re-arm fires exactly once"
    );
}
