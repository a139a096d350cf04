//! Conservative time-window execution of a partitioned simulation.
//!
//! One big simulation is split into `P` shards, each owning a subset
//! of the model (for the cluster: a subset of nodes) with its own
//! [`Sim`] engine — its own timing wheel, clock and event pool.
//! Shards interact only through explicit cross-partition messages
//! whose delivery time is bounded below by a **lookahead** `L`: a
//! message emitted at time `t` can only fire at `t + L` or later (for
//! the cluster, `L` is the modeled wire latency — tx latency +
//! propagation + rx latency — which every inter-node frame pays
//! before it can touch the destination node).
//!
//! That bound makes the classic conservative window protocol exact:
//!
//! 1. `h` = minimum next-event instant over all shards (the global
//!    horizon base);
//! 2. every shard runs its local events in the window `[h, h + L)`.
//!    No message produced inside the window can fire inside it
//!    (`t + L >= h + L`), so shards cannot causally affect each other
//!    mid-window and may run concurrently;
//! 3. outboxes are exchanged, sorted by the canonical message key and
//!    injected; repeat until every queue is empty.
//!
//! Execution order *within* a shard is the engine's usual
//! `(time, seq)` order; execution order *across* shards is fixed by
//! the canonical sort in step 3. Neither depends on the number of
//! worker threads or on which worker runs which shard, so the result
//! is bit-identical for any worker count — including the sequential
//! path, which runs the very same rounds on the caller's thread.
//!
//! The window is *conservative* (never executes an event until it is
//! provably safe), not optimistic: there is no rollback machinery, no
//! anti-messages, and determinism is structural rather than repaired
//! after the fact. See DESIGN.md §"Partitioned engine".

use crate::engine::Sim;
use crate::time::Ps;
use std::fmt;
use std::sync::{Barrier, Mutex};

/// A world type that can run as one shard of a partitioned
/// simulation.
pub trait Shard: Sized {
    /// Cross-partition message. The `Ord` implementation must order by
    /// the canonical injection key, and that key must be unique across
    /// all messages of one exchange round (e.g. it embeds the sending
    /// shard and a per-shard emission sequence), so the post-exchange
    /// sort reconstructs one global order regardless of which worker
    /// delivered which message first.
    type Msg: Ord + Send + fmt::Debug;

    /// The instant at which `msg` will fire on the receiving shard.
    /// Used to enforce the lookahead contract (`fire >= emit + L`) on
    /// every exchanged message, in every build.
    fn msg_at(msg: &Self::Msg) -> Ps;

    /// Drain the messages this shard emitted since the last drain, as
    /// `(destination shard, message)` pairs.
    fn take_outbox(&mut self) -> Vec<(usize, Self::Msg)>;

    /// Schedule one inbound message. Called in sorted `Msg` order;
    /// `Shard::msg_at(&msg)` is strictly beyond the window that
    /// produced it, so scheduling is never in the shard's past.
    fn inject(&mut self, sim: &mut Sim<Self>, msg: Self::Msg);
}

/// Last instant (inclusive, for [`Sim::run_until`]) of the window
/// based at `h`: the window covers `[h, h + lookahead)`, and
/// `run_until` treats its deadline as inclusive, so the deadline is
/// one picosecond short of the exclusive bound. A message emitted at
/// any `t <= h + lookahead - 1` fires at `t + lookahead > deadline` —
/// even a frame landing *exactly* on the window boundary is outside
/// the window that emitted it.
fn window_deadline(h: Ps, lookahead: Ps) -> Ps {
    h.checked_add(lookahead)
        .expect("partition window overflows the clock")
        - Ps::ps(1)
}

/// The lookahead contract, checked on every exchanged message (one
/// compare): a message must fire after the window that emitted it.
/// One that fires inside it would be injected into a window its
/// destination has already closed, silently reordering the run.
fn check_lookahead<W: Shard>(
    msg: &W::Msg,
    deadline: Ps,
    src: usize,
    dst: usize,
) -> Result<(), String> {
    let at = W::msg_at(msg);
    if at > deadline {
        return Ok(());
    }
    Err(format!(
        "cross-partition message violates the lookahead contract: shard {src} -> shard {dst} \
         fires at {at:?}, inside the window ending at {deadline:?}: {msg:?}"
    ))
}

/// One shard's bundle: its engine, its world, and caller-side state
/// `S` (e.g. result collectors shared with the shard's apps) that
/// never crosses threads.
type Bundle<W, S> = (Sim<W>, W, S);

/// A deferred shard constructor. Shard worlds are usually `!Send`
/// (boxed apps, `Rc` result collectors), so each shard is *built* on
/// the worker thread that will run it and never moves. The lifetime
/// lets builders borrow caller state (scoped threads permit it).
pub type ShardBuilder<'a, W, S> = Box<dyn FnOnce() -> Bundle<W, S> + Send + 'a>;

/// Run a partitioned simulation to completion and reduce each shard
/// with `finish` (called exactly once per shard, on the thread that
/// ran it, after every queue is empty). Returns the per-shard results
/// in shard order.
///
/// `workers` is clamped to `[1, shards]`; `workers <= 1` runs the
/// identical round protocol sequentially on the caller's thread with
/// no thread machinery at all. The output is bit-identical for every
/// worker count by construction.
pub fn run_shards<W, S, R, F>(
    builders: Vec<ShardBuilder<'_, W, S>>,
    lookahead: Ps,
    workers: usize,
    finish: F,
) -> Vec<R>
where
    W: Shard,
    R: Send,
    F: Fn(usize, &mut Sim<W>, &mut W, S) -> R + Sync,
{
    assert!(lookahead >= Ps::ps(1), "lookahead must be positive");
    let n = builders.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, n);
    if workers == 1 {
        return run_shards_seq(builders, lookahead, &finish);
    }
    run_shards_threaded(builders, lookahead, workers, &finish)
}

/// The sequential round loop: same protocol, caller's thread.
fn run_shards_seq<W, S, R, F>(
    builders: Vec<ShardBuilder<'_, W, S>>,
    lookahead: Ps,
    finish: &F,
) -> Vec<R>
where
    W: Shard,
    F: Fn(usize, &mut Sim<W>, &mut W, S) -> R,
{
    let n = builders.len();
    let mut shards: Vec<Bundle<W, S>> = builders.into_iter().map(|b| b()).collect();
    let mut inboxes: Vec<Vec<W::Msg>> = (0..n).map(|_| Vec::new()).collect();
    loop {
        let h = shards
            .iter()
            .filter_map(|(sim, _, _)| sim.next_event_at())
            .min();
        let Some(h) = h else { break };
        let deadline = window_deadline(h, lookahead);
        for (sim, world, _) in shards.iter_mut() {
            sim.run_until(world, deadline);
        }
        for (src, (_, world, _)) in shards.iter_mut().enumerate() {
            for (dst, msg) in world.take_outbox() {
                if let Err(e) = check_lookahead::<W>(&msg, deadline, src, dst) {
                    panic!("{e}");
                }
                inboxes[dst].push(msg);
            }
        }
        for (i, inbox) in inboxes.iter_mut().enumerate() {
            inbox.sort_unstable();
            let (sim, world, _) = &mut shards[i];
            for msg in inbox.drain(..) {
                world.inject(sim, msg);
            }
        }
    }
    shards
        .into_iter()
        .enumerate()
        .map(|(i, (mut sim, mut world, state))| finish(i, &mut sim, &mut world, state))
        .collect()
}

/// The threaded round loop: worker `w` owns shards `i % workers == w`
/// and runs them in index order within each barrier-delimited round.
fn run_shards_threaded<W, S, R, F>(
    builders: Vec<ShardBuilder<'_, W, S>>,
    lookahead: Ps,
    workers: usize,
    finish: &F,
) -> Vec<R>
where
    W: Shard,
    R: Send,
    F: Fn(usize, &mut Sim<W>, &mut W, S) -> R + Sync,
{
    let n = builders.len();
    // Deal builders round-robin so each worker owns a fixed shard set.
    let mut dealt: Vec<Vec<(usize, ShardBuilder<W, S>)>> =
        (0..workers).map(|_| Vec::new()).collect();
    for (i, b) in builders.into_iter().enumerate() {
        dealt[i % workers].push((i, b));
    }
    let barrier = Barrier::new(workers);
    let mins: Vec<Mutex<Option<Ps>>> = (0..workers).map(|_| Mutex::new(None)).collect();
    let inboxes: Vec<Mutex<Vec<W::Msg>>> = (0..n).map(|_| Mutex::new(Vec::new())).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    // A lookahead violation, raised on the caller's thread once every
    // worker has left the round loop: a worker panicking mid-round
    // would leave the others waiting at the barrier forever.
    let violation: Mutex<Option<String>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for (w, owned) in dealt.into_iter().enumerate() {
            let barrier = &barrier;
            let mins = &mins;
            let inboxes = &inboxes;
            let results = &results;
            let violation = &violation;
            scope.spawn(move || {
                let mut shards: Vec<(usize, Bundle<W, S>)> =
                    owned.into_iter().map(|(i, b)| (i, b())).collect();
                loop {
                    // Round phase 1: publish the local horizon base.
                    let local = shards
                        .iter()
                        .filter_map(|(_, (sim, _, _))| sim.next_event_at())
                        .min();
                    *mins[w].lock().expect("mins poisoned") = local;
                    barrier.wait();
                    // Phase 2: every worker derives the same global
                    // minimum (reads happen strictly between the two
                    // barriers that bracket the writes).
                    let h = mins
                        .iter()
                        .filter_map(|m| *m.lock().expect("mins poisoned"))
                        .min();
                    let Some(h) = h else { break };
                    let deadline = window_deadline(h, lookahead);
                    // Phase 3: run the window and post outboxes.
                    for (_, (sim, world, _)) in shards.iter_mut() {
                        sim.run_until(world, deadline);
                    }
                    for (src, (_, world, _)) in shards.iter_mut() {
                        for (dst, msg) in world.take_outbox() {
                            if let Err(e) = check_lookahead::<W>(&msg, deadline, *src, dst) {
                                violation
                                    .lock()
                                    .expect("violation poisoned")
                                    .get_or_insert(e);
                                continue;
                            }
                            inboxes[dst].lock().expect("inbox poisoned").push(msg);
                        }
                    }
                    barrier.wait();
                    // Every worker reads the flag between the same two
                    // barriers, so all of them stop in the same round.
                    if violation.lock().expect("violation poisoned").is_some() {
                        return;
                    }
                    // Phase 4: drain own inboxes in canonical order.
                    for (i, (sim, world, _)) in shards.iter_mut() {
                        let mut inbox = inboxes[*i].lock().expect("inbox poisoned");
                        inbox.sort_unstable();
                        for msg in inbox.drain(..) {
                            world.inject(sim, msg);
                        }
                    }
                    barrier.wait();
                }
                for (i, (mut sim, mut world, state)) in shards.into_iter() {
                    let r = finish(i, &mut sim, &mut world, state);
                    *results[i].lock().expect("results poisoned") = Some(r);
                }
            });
        }
    });
    if let Some(e) = violation.into_inner().expect("violation poisoned") {
        panic!("{e}");
    }
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("results poisoned")
                .expect("worker produced no result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy shard over `nodes` logical nodes dealt round-robin onto
    /// `parts` shards; each bounce forwards to the next logical node,
    /// arriving exactly at the lookahead bound. The log records
    /// `(time, logical node)`, which must not depend on how nodes are
    /// dealt onto shards.
    struct Toy {
        parts: usize,
        nodes: usize,
        log: Vec<(u64, usize)>,
        outbox: Vec<(usize, ToyMsg)>,
        emitted: u64,
    }

    #[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
    struct ToyMsg {
        at: Ps,
        node: usize,
        seq: u64,
        hops: u32,
    }

    const LA: Ps = Ps::ns(100);
    const NODES: usize = 8;

    impl Toy {
        fn bounce(&mut self, sim: &mut Sim<Toy>, node: usize, hops: u32) {
            self.log.push((sim.now().as_ps(), node));
            if hops == 0 {
                return;
            }
            let next = (node + 1) % self.nodes;
            let msg = ToyMsg {
                at: sim.now() + LA,
                node: next,
                seq: self.emitted,
                hops: hops - 1,
            };
            self.emitted += 1;
            self.outbox.push((next % self.parts, msg));
        }
    }

    impl Shard for Toy {
        type Msg = ToyMsg;
        fn msg_at(msg: &ToyMsg) -> Ps {
            msg.at
        }
        fn take_outbox(&mut self) -> Vec<(usize, ToyMsg)> {
            std::mem::take(&mut self.outbox)
        }
        fn inject(&mut self, sim: &mut Sim<Toy>, msg: ToyMsg) {
            let (node, hops) = (msg.node, msg.hops);
            sim.schedule_at(msg.at, move |w: &mut Toy, s| w.bounce(s, node, hops));
        }
    }

    fn run_ring(parts: usize, workers: usize) -> Vec<(u64, usize)> {
        let builders: Vec<ShardBuilder<Toy, ()>> = (0..parts)
            .map(|i| {
                let b: ShardBuilder<Toy, ()> = Box::new(move || {
                    let mut sim = Sim::new();
                    if i == 0 {
                        // Logical node 0 lives on shard 0 under every
                        // round-robin deal.
                        sim.schedule_at(Ps::ZERO, |w: &mut Toy, s| w.bounce(s, 0, 16));
                    }
                    let toy = Toy {
                        parts,
                        nodes: NODES,
                        log: Vec::new(),
                        outbox: Vec::new(),
                        emitted: 0,
                    };
                    (sim, toy, ())
                });
                b
            })
            .collect();
        let mut logs = run_shards(builders, LA, workers, |_, _, w, _| {
            std::mem::take(&mut w.log)
        });
        let mut all: Vec<_> = logs.drain(..).flatten().collect();
        all.sort_unstable();
        all
    }

    #[test]
    fn ring_is_identical_across_partitionings_and_workers() {
        let base = run_ring(1, 1);
        assert_eq!(base.len(), 17, "16 hops + the seed event");
        for parts in [2, 4, 8] {
            for workers in [1, 2, 4] {
                assert_eq!(
                    run_ring(parts, workers),
                    base,
                    "{parts} partitions / {workers} workers diverged"
                );
            }
        }
    }

    #[test]
    fn boundary_exact_arrival_is_outside_the_emitting_window() {
        // A message emitted at the window base lands exactly at
        // h + lookahead — one past the inclusive deadline. It must be
        // delivered (not lost, not executed a round early).
        let logs = run_ring(2, 2);
        for pair in logs.windows(2) {
            assert_eq!(
                pair[1].0 - pair[0].0,
                LA.as_ps(),
                "hops must be spaced exactly one lookahead apart"
            );
        }
    }

    #[test]
    fn empty_builder_list_is_fine() {
        let r: Vec<u32> = run_shards(Vec::<ShardBuilder<Toy, ()>>::new(), LA, 4, |_, _, _, _| {
            0u32
        });
        assert!(r.is_empty());
    }
}
