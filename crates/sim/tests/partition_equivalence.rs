//! The partitioned-engine equivalence wall.
//!
//! Randomized message-passing topologies are run three ways — through
//! [`ReferenceSim`] as one world, through the partitioned protocol
//! with 1/2/4/8 shards sequentially, and with multiple workers — and
//! every observable must agree: per-node delivery traces (time, source,
//! sequence, payload), per-node accumulators (order-scrambled on
//! purpose, so a reordered delivery shows up), the total executed event
//! count, and the final clock.
//!
//! The model is a cascade: each delivered frame spawns 1–2 children
//! derived *purely from the frame's content* (so generation is
//! independent of intra-instant execution order), children cross
//! logical nodes with a delay of at least the lookahead `LA` — and
//! sometimes exactly `LA`, landing on the window boundary — plus
//! optional same-node echo events with sub-lookahead delays that stay
//! inside a shard. Every node also arms a watchdog that any inbound
//! frame disarms. The watchdog event always fires and acts only if it
//! is still armed, which is how the simulator's own resend timers
//! work. The deterministic tests below aim a relayed cross-partition
//! frame to arrive one picosecond before (and one after) the watchdog
//! instant, pinning an in-flight cross-partition disarm race on both
//! sides of the boundary.

use omx_sim::Ps;
use omx_sim::{run_shards, ReferenceSim, Shard, ShardBuilder, Sim};
use proptest::prelude::*;

/// Lookahead: the modeled "wire latency" of this toy topology.
const LA: Ps = Ps::ns(100);

/// Watchdog instant. Odd on purpose: every frame arrival in the random
/// cascade lands on an even picosecond, so a frame can never tie with
/// a watchdog and turn the disarm race into an intra-instant ordering
/// question (which the targeted tests pin separately, 1 ps apart).
const WD_AT: Ps = Ps::ps(5_000_001);

/// Trace marker for a watchdog that fired while still armed.
const WATCHDOG_SEQ: u64 = u64::MAX;

/// Payload magic that turns the cascade into a deterministic relay
/// chain (`dst -> dst+1`, exactly `LA` apart) for the targeted tests.
const RELAY: u64 = 0x5E1A_F00D_5E1A_F00D;

/// A cross-node frame (or same-node echo). The derived `Ord` — `at`,
/// then `src`, then `seq` — is the canonical injection key required by
/// [`Shard`]; `seq` values are splitmix-derived and unique per cascade
/// for every practical purpose, and the remaining fields make the
/// order total regardless.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Msg {
    at: Ps,
    src: usize,
    seq: u64,
    dst: usize,
    hops: u8,
    payload: u64,
}

/// One delivery record: `(time ps, source node, seq, payload)`.
type Rec = (u64, usize, u64, u64);

#[derive(Default)]
struct NodeCell {
    trace: Vec<Rec>,
    acc: u64,
    /// Set at start-up; cleared by any inbound frame.
    watchdog_armed: bool,
}

/// Fibonacci/splitmix-style finalizer: the one source of randomness,
/// fully determined by its input (no global RNG, no execution-order
/// dependence).
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Children of a delivered frame, derived from its content alone.
/// Every child pays at least the lookahead; a quarter of them pay
/// *exactly* the lookahead and land on the next window's base.
fn children(msg: &Msg, nodes: usize) -> Vec<Msg> {
    if msg.hops == 0 {
        return Vec::new();
    }
    if msg.payload == RELAY {
        // Deterministic relay: next node, boundary-exact arrival.
        return vec![Msg {
            at: msg.at + LA,
            src: msg.dst,
            seq: mix(msg.seq),
            dst: (msg.dst + 1) % nodes,
            hops: msg.hops - 1,
            payload: RELAY,
        }];
    }
    let fanout = 1 + (mix(msg.seq ^ 0xFA) % 2) as usize;
    (0..fanout)
        .map(|i| {
            let seq = mix(msg.seq ^ ((i as u64 + 1) << 32));
            let extra = if seq.is_multiple_of(4) {
                0 // boundary-exact: arrival lands on h + LA precisely
            } else {
                2 * ((seq >> 8) % 1500) // even, keeps arrivals off WD_AT
            };
            Msg {
                at: msg.at + LA + Ps::ps(extra),
                src: msg.dst,
                seq,
                dst: (mix(seq) % nodes as u64) as usize,
                hops: msg.hops - 1,
                payload: mix(seq ^ msg.payload),
            }
        })
        .collect()
}

/// Optional same-node echo with a sub-lookahead delay — local wheel
/// traffic interleaved inside the window, never crossing a partition.
fn echo(msg: &Msg) -> Option<Msg> {
    (msg.payload != RELAY && msg.seq.is_multiple_of(5)).then(|| Msg {
        at: msg.at + Ps::ps(2 + 2 * (msg.seq % 47)),
        src: msg.dst,
        seq: mix(msg.seq ^ 0xEC),
        dst: msg.dst,
        hops: 0,
        payload: msg.payload.rotate_left(7),
    })
}

/// Record a delivery. The accumulator folds a per-delivery hash that
/// includes the *time*, commutatively: a delivery moved to a different
/// instant (or dropped, or duplicated) changes it, while intra-instant
/// execution order — which the two engines legitimately resolve
/// differently (global schedule order vs canonical key order) — does
/// not.
fn apply(cell: &mut NodeCell, msg: &Msg) {
    cell.trace
        .push((msg.at.as_ps(), msg.src, msg.seq, msg.payload));
    cell.acc = cell
        .acc
        .wrapping_add(mix(msg.payload ^ msg.seq ^ msg.at.as_ps()));
}

/// Disarm the watchdog of a frame's destination if the frame came from
/// another node.
fn disarm(cell: &mut NodeCell, msg: &Msg) {
    if msg.src != msg.dst {
        cell.watchdog_armed = false;
    }
}

/// Fire node `node`'s watchdog: if still armed, record it and return
/// the frame it emits to its neighbor.
fn watchdog(cell: &mut NodeCell, node: usize, nodes: usize) -> Option<Msg> {
    if !std::mem::take(&mut cell.watchdog_armed) {
        return None;
    }
    cell.trace.push((WD_AT.as_ps(), node, WATCHDOG_SEQ, 0));
    Some(Msg {
        at: WD_AT + LA,
        src: node,
        seq: mix(0xD06 ^ ((node as u64) << 8)),
        dst: (node + 1) % nodes,
        hops: 1,
        payload: mix(node as u64),
    })
}

/// A fully-specified workload: the topology size and the initial
/// frames (each injected at its own absolute time).
#[derive(Clone)]
struct Scenario {
    nodes: usize,
    roots: Vec<Msg>,
}

impl Scenario {
    fn random(nodes: usize, seed: u64, roots: usize, hops: u8) -> Scenario {
        let roots = (0..roots)
            .map(|k| {
                let seq = mix(seed ^ ((k as u64) << 40));
                let dst = (mix(seq ^ 1) % nodes as u64) as usize;
                Msg {
                    at: Ps::ps(1_000_000 + 2 * (seq % 1000)),
                    src: (dst + 1) % nodes,
                    seq,
                    dst,
                    hops,
                    payload: mix(seq ^ 2),
                }
            })
            .collect();
        Scenario { nodes, roots }
    }
}

/// Everything observable about one run, in canonical form: per-node
/// `(sorted trace, accumulator)`, total executed events, final clock.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    per_node: Vec<(Vec<Rec>, u64)>,
    executed: u64,
    end_ps: u64,
}

/// Canonicalize a node's trace. Within one instant the reference
/// engine runs events in global schedule order while the partitioned
/// engine runs injected frames in canonical key order, so the raw
/// intra-instant *append* order is an engine artifact; the set of
/// deliveries, their times, sources, seqs and payloads are not. (The
/// accumulator catches cross-instant moves, and the cluster-level
/// byte-identity tests pin the production tie order.)
fn canon(mut trace: Vec<Rec>) -> Vec<Rec> {
    trace.sort_unstable();
    trace
}

// ---------------------------------------------------------------
// Reference side: the whole topology in one ReferenceSim.
// ---------------------------------------------------------------

struct RefWorld {
    cells: Vec<NodeCell>,
}

fn ref_deliver(w: &mut RefWorld, sim: &mut ReferenceSim<RefWorld>, msg: Msg) {
    apply(&mut w.cells[msg.dst], &msg);
    disarm(&mut w.cells[msg.dst], &msg);
    for c in children(&msg, w.cells.len()) {
        sim.schedule_at(c.at, move |w: &mut RefWorld, s| ref_deliver(w, s, c));
    }
    if let Some(e) = echo(&msg) {
        sim.schedule_at(e.at, move |w: &mut RefWorld, s| ref_deliver(w, s, e));
    }
}

fn run_reference(scn: &Scenario) -> Outcome {
    let mut sim = ReferenceSim::new();
    let mut w = RefWorld {
        cells: (0..scn.nodes).map(|_| NodeCell::default()).collect(),
    };
    let nodes = scn.nodes;
    for n in 0..nodes {
        w.cells[n].watchdog_armed = true;
        sim.schedule_at(WD_AT, move |w: &mut RefWorld, s| {
            if let Some(m) = watchdog(&mut w.cells[n], n, nodes) {
                s.schedule_at(m.at, move |w: &mut RefWorld, s| ref_deliver(w, s, m));
            }
        });
    }
    for m in scn.roots.clone() {
        sim.schedule_at(m.at, move |w: &mut RefWorld, s| ref_deliver(w, s, m));
    }
    let end = sim.run(&mut w);
    Outcome {
        per_node: w
            .cells
            .into_iter()
            .map(|c| (canon(c.trace), c.acc))
            .collect(),
        executed: sim.events_executed(),
        end_ps: end.as_ps(),
    }
}

// ---------------------------------------------------------------
// Partitioned side: nodes dealt round-robin onto P shards.
// ---------------------------------------------------------------

fn owner(node: usize, parts: usize) -> usize {
    node % parts
}

struct PartWorld {
    my: usize,
    parts: usize,
    nodes: usize,
    cells: Vec<NodeCell>,
    outbox: Vec<(usize, Msg)>,
}

impl PartWorld {
    fn route(&mut self, sim: &mut Sim<PartWorld>, m: Msg) {
        let dst_shard = owner(m.dst, self.parts);
        if dst_shard == self.my {
            sim.schedule_at(m.at, move |w: &mut PartWorld, s| part_deliver(w, s, m));
        } else {
            self.outbox.push((dst_shard, m));
        }
    }
}

fn part_deliver(w: &mut PartWorld, sim: &mut Sim<PartWorld>, msg: Msg) {
    debug_assert_eq!(owner(msg.dst, w.parts), w.my, "frame delivered off-shard");
    apply(&mut w.cells[msg.dst], &msg);
    disarm(&mut w.cells[msg.dst], &msg);
    for c in children(&msg, w.nodes) {
        w.route(sim, c);
    }
    if let Some(e) = echo(&msg) {
        sim.schedule_at(e.at, move |w: &mut PartWorld, s| part_deliver(w, s, e));
    }
}

impl Shard for PartWorld {
    type Msg = Msg;
    fn msg_at(m: &Msg) -> Ps {
        m.at
    }
    fn take_outbox(&mut self) -> Vec<(usize, Msg)> {
        std::mem::take(&mut self.outbox)
    }
    fn inject(&mut self, sim: &mut Sim<PartWorld>, m: Msg) {
        sim.schedule_at(m.at, move |w: &mut PartWorld, s| part_deliver(w, s, m));
    }
}

fn run_partitioned(scn: &Scenario, parts: usize, workers: usize) -> Outcome {
    let builders: Vec<ShardBuilder<PartWorld, ()>> = (0..parts)
        .map(|p| {
            let scn = scn.clone();
            let b: ShardBuilder<PartWorld, ()> = Box::new(move || {
                let mut sim = Sim::new();
                let mut w = PartWorld {
                    my: p,
                    parts,
                    nodes: scn.nodes,
                    cells: (0..scn.nodes).map(|_| NodeCell::default()).collect(),
                    outbox: Vec::new(),
                };
                let nodes = scn.nodes;
                for n in (0..nodes).filter(|&n| owner(n, parts) == p) {
                    w.cells[n].watchdog_armed = true;
                    sim.schedule_at(WD_AT, move |w: &mut PartWorld, s| {
                        if let Some(m) = watchdog(&mut w.cells[n], n, nodes) {
                            w.route(s, m);
                        }
                    });
                }
                for m in scn.roots.iter().filter(|m| owner(m.dst, parts) == p) {
                    let m = m.clone();
                    sim.schedule_at(m.at, move |w: &mut PartWorld, s| part_deliver(w, s, m));
                }
                (sim, w, ())
            });
            b
        })
        .collect();
    let shard_outs = run_shards(builders, LA, workers, |_, sim, w, ()| {
        let cells: Vec<(usize, Vec<Rec>, u64)> = (0..w.nodes)
            .filter(|&n| owner(n, w.parts) == w.my)
            .map(|n| {
                let cell = &mut w.cells[n];
                (n, std::mem::take(&mut cell.trace), cell.acc)
            })
            .collect();
        (cells, sim.events_executed(), sim.now().as_ps())
    });
    let mut per_node = vec![(Vec::new(), 0u64); scn.nodes];
    let mut executed = 0;
    let mut end_ps = 0;
    for (cells, ex, now) in shard_outs {
        for (n, trace, acc) in cells {
            per_node[n] = (canon(trace), acc);
        }
        executed += ex;
        end_ps = end_ps.max(now);
    }
    Outcome {
        per_node,
        executed,
        end_ps,
    }
}

/// The wall itself: one scenario, every partitioning, every worker
/// count, all equal to the reference.
fn assert_equivalent(scn: &Scenario) {
    let reference = run_reference(scn);
    assert!(
        reference.per_node.iter().any(|(t, _)| !t.is_empty()),
        "degenerate scenario: nothing was delivered"
    );
    for parts in [1usize, 2, 4, 8] {
        for workers in [1usize, 4] {
            let got = run_partitioned(scn, parts, workers);
            assert_eq!(
                got,
                reference,
                "{parts} partitions / {workers} workers diverged from ReferenceSim \
                 on {} nodes / {} roots",
                scn.nodes,
                scn.roots.len()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Randomized topologies: node count, seed, root count and cascade
    /// depth all vary; 1/2/4/8 partitions × 1/4 workers must match the
    /// reference engine exactly (including shard counts exceeding the
    /// node count, which leaves some shards permanently empty).
    #[test]
    fn random_topologies_match_reference(
        nodes in 2usize..10,
        seed in any::<u64>(),
        roots in 1usize..6,
        hops in 1u8..6,
    ) {
        assert_equivalent(&Scenario::random(nodes, seed, roots, hops));
    }
}

/// A relay chain whose every hop lands exactly on the window boundary
/// (`arrival == h + LA`): the most partition-hostile schedule there is.
/// Frames must be delivered exactly once, exactly `LA` apart, and the
/// whole cascade must match the reference bit for bit.
#[test]
fn boundary_exact_relay_matches_reference() {
    let scn = Scenario {
        nodes: 5,
        roots: vec![Msg {
            at: Ps::ps(1_000_000),
            src: 4,
            seq: mix(1),
            dst: 0,
            hops: 12,
            payload: RELAY,
        }],
    };
    assert_equivalent(&scn);
    // And the spacing property itself: relay deliveries are exactly one
    // lookahead apart.
    let outcome = run_partitioned(&scn, 4, 2);
    let mut relay_times: Vec<u64> = outcome
        .per_node
        .iter()
        .flat_map(|(t, _)| t.iter())
        .filter(|r| r.3 == RELAY)
        .map(|r| r.0)
        .collect();
    relay_times.sort_unstable();
    assert_eq!(relay_times.len(), 13, "12 hops + the root delivery");
    for pair in relay_times.windows(2) {
        assert_eq!(
            pair[1] - pair[0],
            LA.as_ps(),
            "hops must be exactly LA apart"
        );
    }
}

/// Disarm race, disarm-wins side: a relayed frame crosses the
/// partition boundary in flight and arrives one picosecond *before*
/// the destination node's watchdog, which must therefore fire disarmed
/// on every partitioning — and the whole outcome must equal the
/// reference's.
#[test]
fn in_flight_cross_partition_frame_disarms_the_watchdog() {
    // Root fires on node 0 (shard 0 of 2); its relay child crosses to
    // node 1 (shard 1) arriving at WD_AT - 1 ps.
    let scn = Scenario {
        nodes: 2,
        roots: vec![Msg {
            at: WD_AT - LA - Ps::ps(1),
            src: 1,
            seq: mix(7),
            dst: 0,
            hops: 1,
            payload: RELAY,
        }],
    };
    assert_equivalent(&scn);
    let outcome = run_partitioned(&scn, 2, 2);
    let node1_watchdog_fired = outcome.per_node[1].0.iter().any(|r| r.2 == WATCHDOG_SEQ);
    assert!(
        !node1_watchdog_fired,
        "frame arrived 1 ps before the watchdog; the disarm must win"
    );
}

/// Disarm race, fire-wins side: the same relay shifted two picoseconds
/// later arrives one picosecond *after* the watchdog instant — the
/// watchdog fires armed first on every partitioning, and the late
/// frame's disarm changes nothing. Still bit-identical to the
/// reference.
#[test]
fn watchdog_fires_when_the_cross_partition_frame_is_late() {
    let scn = Scenario {
        nodes: 2,
        roots: vec![Msg {
            at: WD_AT - LA + Ps::ps(1),
            src: 1,
            seq: mix(7),
            dst: 0,
            hops: 1,
            payload: RELAY,
        }],
    };
    assert_equivalent(&scn);
    let outcome = run_partitioned(&scn, 2, 2);
    let node1_watchdog_fired = outcome.per_node[1].0.iter().any(|r| r.2 == WATCHDOG_SEQ);
    assert!(
        node1_watchdog_fired,
        "frame arrived 1 ps after the watchdog instant; the fire must win"
    );
}

/// A shard that breaks the lookahead contract: its only event emits a
/// message that fires inside the window it was emitted in.
#[derive(Default)]
struct Rogue {
    outbox: Vec<(usize, RogueMsg)>,
}

#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct RogueMsg(Ps);

impl Shard for Rogue {
    type Msg = RogueMsg;
    fn msg_at(m: &RogueMsg) -> Ps {
        m.0
    }
    fn take_outbox(&mut self) -> Vec<(usize, RogueMsg)> {
        std::mem::take(&mut self.outbox)
    }
    fn inject(&mut self, sim: &mut Sim<Rogue>, m: RogueMsg) {
        sim.schedule_at(m.0, |_: &mut Rogue, _| {});
    }
}

fn run_rogue(workers: usize) {
    let builders: Vec<ShardBuilder<Rogue, ()>> = (0..2)
        .map(|_| {
            let b: ShardBuilder<Rogue, ()> = Box::new(|| {
                let mut sim = Sim::new();
                sim.schedule_at(Ps::ZERO, |w: &mut Rogue, s| {
                    w.outbox.push((1, RogueMsg(s.now() + Ps::ns(10))));
                });
                (sim, Rogue::default(), ())
            });
            b
        })
        .collect();
    run_shards(builders, Ps::ns(100), workers, |_, _, _, ()| ());
}

#[test]
#[should_panic(expected = "violates the lookahead contract: shard 0 -> shard 1 fires at")]
fn message_inside_its_own_window_panics() {
    run_rogue(1);
}

#[test]
#[should_panic(expected = "violates the lookahead contract")]
fn threaded_violation_panics_instead_of_hanging() {
    run_rogue(2);
}
