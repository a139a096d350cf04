//! Allocation accounting for the engine hot path: steady-state
//! scheduling and execution of small-capture closures must not touch
//! the heap at all. A counting global allocator wraps the system one;
//! after a warm-up pass (queue buffers grown, pool primed) the delta
//! across a full schedule+run cycle must be zero.
//!
//! The count is per thread: each test measures the allocations of the
//! thread running it (the simulation is single-threaded), so tests
//! running concurrently in this binary do not see each other's.

use omx_sim::{Ps, Sim};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // A const initializer: reading it never allocates, so the
    // allocator may touch it.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    // `try_with` fails only during thread teardown; those allocations
    // belong to no measurement.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(l)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        note_allocation();
        System.realloc(p, l, n)
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(l)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// One self-rescheduling chain pass: `n` events through `schedule_in`,
/// each capturing 16 bytes — the dominant shape of the protocol
/// simulations.
fn chain_pass(sim: &mut Sim<u64>, n: u64) {
    let mut world = 0u64;
    fn tick(limit: u64, stride: u64) -> impl Fn(&mut u64, &mut Sim<u64>) {
        move |w, sim| {
            *w += 1;
            if *w < limit {
                sim.schedule_in(Ps::ns(stride), tick(limit, stride));
            }
        }
    }
    let start = sim.now();
    sim.schedule_at(start, tick(n, 120));
    sim.run(&mut world);
    assert_eq!(world, n);
}

#[test]
fn steady_state_small_closures_allocate_nothing() {
    let mut sim: Sim<u64> = Sim::new();
    // Warm-up: grow every queue buffer this workload will ever need.
    chain_pass(&mut sim, 20_000);
    let a0 = allocations();
    chain_pass(&mut sim, 20_000);
    let delta = allocations() - a0;
    assert_eq!(
        delta, 0,
        "steady-state schedule_in of small closures performed {delta} heap allocations"
    );
}

#[test]
fn steady_state_same_instant_burst_allocates_nothing() {
    let mut sim: Sim<u64> = Sim::new();
    let burst = |sim: &mut Sim<u64>| {
        let mut world = 0u64;
        let at = Ps(sim.now().0 + 1000);
        for _ in 0..10_000u64 {
            sim.schedule_at(at, |w: &mut u64, _| *w += 1);
        }
        sim.run(&mut world);
        assert_eq!(world, 10_000);
    };
    // Two warm-up passes: extraction hands slot buffers over by swap,
    // so both sides of the swap need one growth pass each.
    burst(&mut sim);
    burst(&mut sim);
    let a0 = allocations();
    burst(&mut sim);
    assert_eq!(
        allocations() - a0,
        0,
        "same-instant burst allocated in steady state"
    );
}

#[test]
fn steady_state_timers_drained_by_step_and_run_until_allocate_nothing() {
    // Retransmit-style timers, a handful outstanding at a time, fired
    // through the bounded drain entries (`step`, then `run_until`)
    // rather than `run`: once warmed, neither touches the heap.
    let mut sim: Sim<u64> = Sim::new();
    let pass = |sim: &mut Sim<u64>| {
        let mut world = 0u64;
        for batch in 0..500u64 {
            for k in 0..4u64 {
                sim.schedule_in(Ps::ns(50 + (batch + k) % 13), |w: &mut u64, _| *w += 1);
            }
            sim.step(&mut world, 1);
            sim.run_until(&mut world, Ps(sim.now().0 + Ps::ns(100).0));
        }
        assert_eq!(world, 2_000);
    };
    pass(&mut sim);
    pass(&mut sim);
    let a0 = allocations();
    pass(&mut sim);
    assert_eq!(
        allocations() - a0,
        0,
        "steady-state timers drained by step and run_until allocated"
    );
}

#[test]
fn steady_state_far_future_timers_allocate_nothing_with_two_levels() {
    // Events beyond the ~67 µs level-0 window but inside the ~34 ms
    // level-1 ring: a one-level wheel boxes each of them onto the
    // overflow heap (the documented far-future allocation), a
    // two-level wheel keeps them slab-resident. This is the dynamic
    // pin for the far-heap `hot-path-alloc` waiver in `engine.rs`:
    // with `wheel_levels = 2` only truly-far events (beyond level-1
    // coverage) may allocate.
    fn far_pass(sim: &mut Sim<u64>, n: u64) {
        let mut world = 0u64;
        fn tick(limit: u64) -> impl Fn(&mut u64, &mut Sim<u64>) {
            move |w, sim| {
                *w += 1;
                if *w < limit {
                    // ~1 ms out: 15 level-0 windows beyond the cursor.
                    sim.schedule_in(Ps::us(1000), tick(limit));
                }
            }
        }
        let start = sim.now();
        sim.schedule_at(start, tick(n));
        sim.run(&mut world);
        assert_eq!(world, n);
    }
    let mut sim: Sim<u64> = Sim::with_wheel_levels(2);
    far_pass(&mut sim, 5_000);
    let a0 = allocations();
    far_pass(&mut sim, 5_000);
    let delta = allocations() - a0;
    assert_eq!(
        delta, 0,
        "steady-state far-future scheduling allocated {delta} times despite the level-1 ring"
    );

    // Control: the same workload on a one-level wheel pays roughly one
    // box per event — proving the test would catch a regression where
    // level-1 events silently fall through to the heap.
    let mut sim1: Sim<u64> = Sim::with_wheel_levels(1);
    far_pass(&mut sim1, 5_000);
    let b0 = allocations();
    far_pass(&mut sim1, 5_000);
    let boxed = allocations() - b0;
    assert!(
        boxed >= 4_000,
        "control: one-level far-future pass should box per event, saw {boxed}"
    );
}

mod driver_paths {
    //! The same accounting pushed through the whole protocol stack:
    //! a ping-pong loop whose application reuses its buffers (master
    //! payload cloned per send via `isend_bytes`, one receive buffer
    //! recycled via `irecv_into`) must reach a steady state where a
    //! full round trip — send descriptors, BH fragment processing,
    //! matching, copies or pulls, completions — touches the heap zero
    //! times.

    use super::allocations;
    use omx_hw::CoreId;
    use omx_sim::Sim;
    use open_mx::app::{App, AppCtx, Completion};
    use open_mx::cluster::{Cluster, ClusterParams};
    use open_mx::config::OmxConfig;
    use open_mx::{EpAddr, EpIdx, NodeId};
    use std::cell::RefCell;
    use std::rc::Rc;

    const ZPING: u64 = 0x5A50;
    const ZPONG: u64 = 0x5A4F;

    #[derive(Default)]
    struct Shared {
        /// Allocation count at the end of the warm-up iterations.
        warm: u64,
        /// Allocation count after the final measured iteration.
        end: u64,
        corrupt: u64,
        done: bool,
    }

    struct Pinger {
        peer: EpAddr,
        size: u64,
        warmup: u32,
        total: u32,
        cur: u32,
        payload: bytes::Bytes,
        shared: Rc<RefCell<Shared>>,
    }

    impl Pinger {
        fn kick(&mut self, ctx: &mut AppCtx<'_>, buf: Vec<u8>) {
            ctx.irecv_into(ZPONG, u64::MAX, self.size, buf, Some(1));
            ctx.isend_bytes(self.peer, ZPING, self.payload.clone(), Some(2));
        }
    }

    impl App for Pinger {
        fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
            let buf = vec![0u8; self.size as usize];
            self.kick(ctx, buf);
        }

        fn on_completion(&mut self, ctx: &mut AppCtx<'_>, comp: Completion) {
            let Completion::Recv { data, .. } = comp else {
                return;
            };
            if data[..] != self.payload[..] {
                self.shared.borrow_mut().corrupt += 1;
            }
            self.cur += 1;
            if self.cur == self.warmup {
                self.shared.borrow_mut().warm = allocations();
            }
            if self.cur >= self.total {
                let mut sh = self.shared.borrow_mut();
                sh.end = allocations();
                sh.done = true;
                return;
            }
            self.kick(ctx, data);
        }

        fn is_done(&self) -> bool {
            self.shared.borrow().done
        }
    }

    struct Ponger {
        peer: EpAddr,
        size: u64,
        total: u32,
        cur: u32,
        payload: bytes::Bytes,
        shared: Rc<RefCell<Shared>>,
    }

    impl App for Ponger {
        fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
            let buf = vec![0u8; self.size as usize];
            ctx.irecv_into(ZPING, u64::MAX, self.size, buf, Some(3));
        }

        fn on_completion(&mut self, ctx: &mut AppCtx<'_>, comp: Completion) {
            let Completion::Recv { data, .. } = comp else {
                return;
            };
            if data[..] != self.payload[..] {
                self.shared.borrow_mut().corrupt += 1;
            }
            ctx.isend_bytes(self.peer, ZPONG, self.payload.clone(), Some(4));
            self.cur += 1;
            if self.cur < self.total {
                ctx.irecv_into(ZPING, u64::MAX, self.size, data, Some(3));
            }
        }

        fn is_done(&self) -> bool {
            true
        }
    }

    /// Run `total` round trips of `size` bytes between node 0 and node
    /// 1 and return the heap allocation count across the measured
    /// (post-warm-up) span.
    fn measured_allocs(size: u64, cfg: OmxConfig) -> u64 {
        measured_allocs_at(size, cfg, NodeId(1), CoreId(2))
    }

    /// [`measured_allocs`] with the ponger on core `pong_core` of
    /// `pong_node` (the pinger stays on core 2 of node 0).
    fn measured_allocs_at(size: u64, cfg: OmxConfig, pong_node: NodeId, pong_core: CoreId) -> u64 {
        // The warm-up must outlast every high-water mark, including the
        // slowest one: every retransmit timer holds its level-1 wheel
        // node until it fires, one retransmission timeout after it was
        // armed (tens of round trips).
        let warmup = 64;
        let total = 96;
        // Debug builds mint one SimSanitizer token per tracked resource
        // into an append-only registry; pre-grow it so its backing Vec
        // never reallocates inside the measured span (release builds:
        // no-op, the registry does not exist).
        omx_sim::sanitize::SimSanitizer::reserve(1 << 20);
        let shared = Rc::new(RefCell::new(Shared::default()));
        let payload: bytes::Bytes = (0..size)
            .map(|i| (i as u32).wrapping_mul(31) as u8)
            .collect::<Vec<u8>>()
            .into();
        let a = EpAddr {
            node: NodeId(0),
            ep: EpIdx(0),
        };
        let b = EpAddr {
            node: pong_node,
            ep: EpIdx(if pong_node == NodeId(0) { 1 } else { 0 }),
        };
        let mut cluster = Cluster::new(ClusterParams::with_cfg(cfg));
        let mut sim: Sim<Cluster> = Sim::with_wheel_levels(cluster.p.cfg.wheel_levels);
        cluster.add_endpoint(
            NodeId(0),
            CoreId(2),
            Box::new(Pinger {
                peer: b,
                size,
                warmup,
                total,
                cur: 0,
                payload: payload.clone(),
                shared: shared.clone(),
            }),
        );
        cluster.add_endpoint(
            pong_node,
            pong_core,
            Box::new(Ponger {
                peer: a,
                size,
                total,
                cur: 0,
                payload,
                shared: shared.clone(),
            }),
        );
        cluster.start(&mut sim);
        sim.run(&mut cluster);
        let sh = shared.borrow();
        assert!(sh.done, "{size}B ping-pong did not complete");
        assert_eq!(sh.corrupt, 0, "{size}B payload corrupted");
        sh.end - sh.warm
    }

    #[test]
    fn warmed_tiny_pingpong_allocates_nothing() {
        // Small-message path: inline frames, ring copy on receive.
        let d = measured_allocs(16, OmxConfig::default());
        assert_eq!(d, 0, "warmed 16 B ping-pong allocated {d} times");
    }

    #[test]
    fn warmed_medium_pingpong_allocates_nothing() {
        // Medium path: fragmentation, per-message dedup bitmaps (from
        // the driver scratch pool), BH processing.
        let d = measured_allocs(16 << 10, OmxConfig::default());
        assert_eq!(d, 0, "warmed 16 KiB ping-pong allocated {d} times");
    }

    #[test]
    fn warmed_one_fragment_medium_pingpong_allocates_nothing() {
        // A medium message that fits in one fragment: complete on
        // arrival, written straight from the ring slot.
        let d = measured_allocs(2 << 10, OmxConfig::default());
        assert_eq!(d, 0, "warmed 2 KiB ping-pong allocated {d} times");
    }

    #[test]
    fn warmed_large_pingpong_allocates_nothing() {
        // Large path: rendezvous pulls, block bitmaps and pending-copy
        // queues recycled through the driver scratch pool.
        let d = measured_allocs(256 << 10, OmxConfig::default());
        assert_eq!(d, 0, "warmed 256 KiB ping-pong allocated {d} times");
    }

    #[test]
    fn warmed_large_ioat_pingpong_allocates_nothing() {
        // Large path with I/OAT offload: copy handles and completion
        // bookkeeping all travel through pooled scratch.
        let d = measured_allocs(256 << 10, OmxConfig::with_ioat());
        assert_eq!(d, 0, "warmed 256 KiB I/OAT ping-pong allocated {d} times");
    }

    #[test]
    fn warmed_intranode_pingpong_allocates_nothing() {
        // Shared-memory path between two subchips of one host: every
        // round trip's copies read `hit_fraction` and write the cache
        // model with `touch` and `touch_exclusive`.
        for cfg in [OmxConfig::default(), OmxConfig::with_ioat()] {
            for size in [16, 16 << 10, 256 << 10, 2 << 20] {
                let d = measured_allocs_at(size, cfg.clone(), NodeId(0), CoreId(5));
                assert_eq!(
                    d, 0,
                    "warmed {size} B intranode ping-pong (ioat {}) allocated {d} times",
                    cfg.ioat_enabled
                );
            }
        }
    }
}

#[test]
fn pooled_closures_recycle_their_slots() {
    // Medium captures (between the inline and slot limits) go through
    // the pool: the first pass warms it, after which scheduling such
    // closures allocates nothing either.
    let mut sim: Sim<u64> = Sim::new();
    // 200 outstanding pooled closures: within the free-list depth, so
    // a warmed pool can serve the whole burst.
    let pass = |sim: &mut Sim<u64>| {
        let mut world = 0u64;
        let at = Ps(sim.now().0 + 500);
        for _ in 0..200u64 {
            let capture = [1u64; 8]; // 64 bytes: pooled
            sim.schedule_at(at, move |w: &mut u64, _| *w += capture[0]);
        }
        sim.run(&mut world);
        assert_eq!(world, 200);
    };
    pass(&mut sim);
    pass(&mut sim);
    let a0 = allocations();
    pass(&mut sim);
    assert_eq!(
        allocations() - a0,
        0,
        "pooled closures allocated in steady state"
    );
}

#[test]
fn empty_bytes_allocate_nothing() {
    // Every control frame (rendezvous and pull requests, notifies,
    // acks, credit NACKs) carries an empty payload, so making, cloning,
    // slicing and dropping one must stay off the heap.
    use bytes::Bytes;
    use std::hint::black_box;
    let a0 = allocations();
    for _ in 0..1000 {
        let empty = black_box(Bytes::new());
        let copy = black_box(empty.clone().slice(..));
        black_box((empty, copy, Bytes::default()));
    }
    assert_eq!(allocations() - a0, 0, "empty Bytes touched the heap");
}
