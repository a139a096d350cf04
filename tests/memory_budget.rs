//! Memory footprint of large clusters, idle and busy.
//!
//! An idle 10k-endpoint world must stay lean enough that the scale
//! ablation's 1k–10k-rank runs fit comfortably in memory: its
//! endpoints commit no receive slots, no partner windows and no
//! request tables until traffic arrives. A wide exchange must then
//! cost memory in proportion to what arrives: a receive slot holds a
//! refcounted slice of the frame's payload rather than a
//! `frag_size` buffer of its own, and a partner's duplicate window
//! holds one word while its sequences arrive in order. A byte-counting
//! global allocator measures both, live and at peak.

use openmx_repro::hw::CoreId;
use openmx_repro::mpi::{run_kernel, Kernel, Layout as RankLayout};
use openmx_repro::omx::app::{App, AppCtx, Completion};
use openmx_repro::omx::cluster::{Cluster, ClusterParams};
use openmx_repro::omx::NodeId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;

struct CountingAlloc;

/// Live heap bytes (allocated minus freed).
static LIVE: AtomicU64 = AtomicU64::new(0);
/// Highest `LIVE` since the last [`reset_peak`].
static PEAK: AtomicU64 = AtomicU64::new(0);

/// The allocator counts every thread, so each test measures with this
/// held: the harness runs tests concurrently.
static SERIAL: Mutex<()> = Mutex::new(());

fn grew(n: u64) {
    let now = LIVE.fetch_add(n, Relaxed) + n;
    PEAK.fetch_max(now, Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        grew(l.size() as u64);
        System.alloc(l)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        LIVE.fetch_sub(l.size() as u64, Relaxed);
        System.dealloc(p, l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        grew(n as u64);
        LIVE.fetch_sub(l.size() as u64, Relaxed);
        System.realloc(p, l, n)
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        grew(l.size() as u64);
        System.alloc_zeroed(l)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn live() -> u64 {
    LIVE.load(Relaxed)
}

/// Restart peak tracking from the current live heap.
fn reset_peak() {
    PEAK.store(live(), Relaxed);
}

fn peak() -> u64 {
    PEAK.load(Relaxed)
}

/// An app that never posts anything — the endpoint exists, with all
/// its driver-side structures, but stays idle.
struct Idle;

impl App for Idle {
    fn on_start(&mut self, _ctx: &mut AppCtx<'_>) {}
    fn on_completion(&mut self, _ctx: &mut AppCtx<'_>, _comp: Completion) {}
}

const NODES: usize = 40;
const EPS_PER_NODE: usize = 250;
const ENDPOINTS: u64 = (NODES * EPS_PER_NODE) as u64;

fn build(eps_per_node: usize) -> Cluster {
    let params = ClusterParams {
        nodes: NODES,
        ..ClusterParams::default()
    };
    let mut c = Cluster::new(params);
    for n in 0..NODES {
        for _ in 0..eps_per_node {
            c.add_endpoint(NodeId(n as u32), CoreId(0), Box::new(Idle));
        }
    }
    c
}

/// The pinned budget: average heap bytes one idle endpoint may cost on
/// top of its node. The eager slot pool alone would be 1 MiB; the lean
/// endpoint (lazy slots, empty maps, no partner windows) measures a
/// few hundred bytes, so 64 KiB leaves room for honest growth while
/// still failing instantly if slot backing ever becomes eager again.
const PER_ENDPOINT_BUDGET: u64 = 64 * 1024;

#[test]
fn ten_k_endpoint_cluster_stays_under_budget() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Node-only baseline: same world, no endpoints. Subtracting it
    // isolates the endpoint cost from NIC/driver/metrics fixtures.
    let baseline = build(0);
    let before = live();
    let cluster = build(EPS_PER_NODE);
    let with_eps = live() - before;
    let per_ep = with_eps / ENDPOINTS;
    assert!(
        per_ep <= PER_ENDPOINT_BUDGET,
        "idle endpoint costs {per_ep} heap bytes (budget {PER_ENDPOINT_BUDGET}); \
         did slot backing become eager?"
    );
    drop(cluster);
    drop(baseline);
}

/// The pinned budget for a wide exchange: peak heap bytes per ordered
/// pair of ranks, above the heap live before the job. Copying each
/// 1 KiB message into a slot buffer of its own and giving each
/// partner a 1 KiB window took about 1.8 KiB per pair; holding the
/// frame's payload and growing the window with use takes about
/// 730 B.
const PER_PAIR_PEAK_BUDGET: u64 = 1024;

#[test]
fn wide_exchange_peak_heap_stays_under_budget() {
    const RANKS: usize = 64;
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let before = live();
    reset_peak();
    let r = run_kernel(
        Kernel::Alltoall,
        RankLayout::Nodes(RANKS),
        1024,
        2,
        ClusterParams::default(),
    );
    assert!(r.verified, "the exchange must deliver every message");
    let pairs = (RANKS * (RANKS - 1)) as u64;
    let per_pair = (peak() - before) / pairs;
    assert!(
        per_pair <= PER_PAIR_PEAK_BUDGET,
        "a 64-rank 1 KiB Alltoall peaks at {per_pair} heap bytes per ordered pair \
         (budget {PER_PAIR_PEAK_BUDGET})"
    );
}
