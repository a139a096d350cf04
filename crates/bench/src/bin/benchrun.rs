//! Performance trajectory runner (`BENCH_*.json`).
//!
//! Two modes:
//!
//! * default — measure host wall-clock and allocation counts for the
//!   scheduler microbenches and a fixed end-to-end workload per figure
//!   family (ping-pong, stream, all-to-all), and print one JSON report.
//!   These numbers feed `BENCH_pr4.json`; they are *host* measurements
//!   and vary run to run, so they are never byte-compared.
//! * `--smoke` — run the same end-to-end workloads in a cheap fixed
//!   configuration and print only their deterministic simulation
//!   fingerprints (Stats + component breakdown JSON). CI byte-compares
//!   this output against `results/golden/perf_smoke.json`: any
//!   scheduler reordering, stray wall-clock read or unordered
//!   iteration shows up as a diff.
//!
//! Wall-clock numbers are meaningful only from `--release` builds (the
//! debug `SimSanitizer` is compiled out there; see EXPERIMENTS.md).

use omx_hw::ioat::CopySegment;
use omx_hw::{CoreId, HwParams, IoatEngine};
use omx_mpi::runner::{run_kernel, KernelResult, Layout};
use omx_mpi::Kernel;
use omx_sim::sanitize::SimSanitizer;
use omx_sim::walltime::Stopwatch;
use omx_sim::{Ps, ReferenceSim, Sim};
use open_mx::cluster::ClusterParams;
use open_mx::config::OmxConfig;
use open_mx::fault::FaultPlan;
use open_mx::harness::{
    run_fanin, run_incast, run_pingpong, run_stream, ComponentBreakdown, FaninConfig, IncastConfig,
    PingPongConfig, Placement, RunReport, StreamConfig,
};
use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Counting allocator: every heap allocation (and reallocation) bumps
/// one relaxed counter. Zero-overhead enough to leave on for the whole
/// run; the engine microbenches read deltas around a measured section.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: AllocLayout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        System.alloc(l)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: AllocLayout) {
        System.dealloc(p, l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: AllocLayout, n: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        System.realloc(p, l, n)
    }
    unsafe fn alloc_zeroed(&self, l: AllocLayout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        System.alloc_zeroed(l)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Relaxed)
}

/// The engine under measurement (recorded in the report so before/after
/// JSON blobs are self-describing).
const ENGINE: &str = "timing-wheel";

const SEED: u64 = 17;

fn fixed_cfg() -> OmxConfig {
    OmxConfig {
        seed: SEED,
        regcache: false,
        ..OmxConfig::with_ioat()
    }
}

// ---------------------------------------------------------------------
// Engine microbenches
// ---------------------------------------------------------------------

struct EngineBench {
    name: &'static str,
    events: u64,
    best_secs: f64,
    median_secs: f64,
    allocs_per_event: f64,
    /// Same shape driven through [`ReferenceSim`] (the original
    /// `BinaryHeap` engine), interleaved repeat-for-repeat with the
    /// wheel so both see the same machine conditions.
    reference_best_secs: f64,
    reference_median_secs: f64,
}

impl EngineBench {
    fn json(&self) -> String {
        let eps = self.events as f64 / self.best_secs;
        let ns_per_event = self.best_secs * 1e9 / self.events as f64;
        let ref_ns = self.reference_best_secs * 1e9 / self.events as f64;
        format!(
            "{{\"name\":\"{}\",\"events\":{},\"best_secs\":{:.6},\"median_secs\":{:.6},\
             \"events_per_sec\":{:.0},\"ns_per_event\":{:.1},\"allocs_per_event\":{:.3},\
             \"reference_best_secs\":{:.6},\"reference_median_secs\":{:.6},\
             \"reference_ns_per_event\":{:.1},\"speedup_vs_reference\":{:.2}}}",
            self.name,
            self.events,
            self.best_secs,
            self.median_secs,
            eps,
            ns_per_event,
            self.allocs_per_event,
            self.reference_best_secs,
            self.reference_median_secs,
            ref_ns,
            self.reference_best_secs / self.best_secs,
        )
    }
}

/// Time one schedule+run shape on both engines, interleaving repeats
/// (wheel, heap, wheel, heap, …) so transient machine load hits both
/// fairly. Reports best and median wall time for each plus the wheel's
/// allocation delta on its final pass.
fn engine_bench(
    name: &'static str,
    repeats: usize,
    wheel_iter: impl Fn() -> u64,
    heap_iter: impl Fn() -> u64,
) -> EngineBench {
    let mut wheel_times = Vec::with_capacity(repeats);
    let mut heap_times = Vec::with_capacity(repeats);
    let mut events = 0;
    let mut allocs = 0.0;
    for rep in 0..repeats {
        let a0 = allocations();
        let sw = Stopwatch::start();
        events = wheel_iter();
        wheel_times.push(sw.elapsed_secs());
        if rep + 1 == repeats {
            allocs = (allocations() - a0) as f64 / events as f64;
        }
        let sw = Stopwatch::start();
        let ref_events = heap_iter();
        heap_times.push(sw.elapsed_secs());
        assert_eq!(events, ref_events, "engines disagree on event count");
    }
    wheel_times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    heap_times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    EngineBench {
        name,
        events,
        best_secs: wheel_times[0],
        median_secs: wheel_times[wheel_times.len() / 2],
        allocs_per_event: allocs,
        reference_best_secs: heap_times[0],
        reference_median_secs: heap_times[heap_times.len() / 2],
    }
}

/// Expand one bench body for both engine types (they share the
/// scheduling API verbatim, so the shape is written once). An
/// optional leading argument sets the wheel depth for the `Sim` side
/// (default: the engine's default two levels); the reference heap has
/// no levels.
macro_rules! on_both {
    (|$sim:ident| $body:block) => {
        on_both!(2, |$sim| $body)
    };
    ($levels:expr, |$sim:ident| $body:block) => {
        (
            || {
                let mut $sim: Sim<u64> = Sim::with_wheel_levels($levels);
                $body
            },
            || {
                let mut $sim: ReferenceSim<u64> = ReferenceSim::new();
                $body
            },
        )
    };
}

fn engine_benches(scale: u64) -> Vec<EngineBench> {
    let n = 10_000 * scale;
    let reps = 9;
    let mut out = Vec::new();
    // Distinct nanosecond timestamps, trivial closures.
    let (w, h) = on_both!(|sim| {
        let mut world = 0u64;
        for i in 0..n {
            sim.schedule_at(Ps::ns(i), |w: &mut u64, _| *w += 1);
        }
        sim.run(&mut world);
        world
    });
    out.push(engine_bench("engine_distinct_ns", reps, w, h));
    // Everything at one instant: pure FIFO-bucket throughput.
    let (w, h) = on_both!(|sim| {
        let mut world = 0u64;
        for _ in 0..n {
            sim.schedule_at(Ps::us(3), |w: &mut u64, _| *w += 1);
        }
        sim.run(&mut world);
        world
    });
    out.push(engine_bench("engine_same_instant", reps, w, h));
    // Far-future timers: 3 µs strides spread the events over ~30 ms of
    // simulated time, so all but the first handful land beyond the
    // ~67 µs level-0 horizon — the retransmit-timer regime PR-4
    // recorded at ~0.6× vs the heap when every such event paid a boxed
    // overflow node. With two wheel levels the whole span fits the
    // ~34 ms coarse ring: slab-resident, allocation-free.
    let (w, h) = on_both!(2, |sim| {
        let mut world = 0u64;
        for i in 0..n {
            sim.schedule_at(Ps::us(3 * (1 + i)), |w: &mut u64, _| *w += 1);
        }
        sim.run(&mut world);
        world
    });
    out.push(engine_bench("engine_far_future", reps, w, h));
    // Same shape on the single-level wheel: the boxed overflow-heap
    // cost the second level exists to remove, kept as the A/B record.
    let (w, h) = on_both!(1, |sim| {
        let mut world = 0u64;
        for i in 0..n {
            sim.schedule_at(Ps::us(3 * (1 + i)), |w: &mut u64, _| *w += 1);
        }
        sim.run(&mut world);
        world
    });
    out.push(engine_bench("engine_far_future_one_level", reps, w, h));
    // Cancel-heavy timer workload: retransmit-style timers where most
    // are revoked before they fire.
    let (w, h) = on_both!(|sim| {
        let mut world = 0u64;
        let mut ids = Vec::with_capacity(n as usize);
        for i in 0..n {
            ids.push(sim.schedule_at_cancellable(Ps::ns(10 + i), |w: &mut u64, _| *w += 1));
        }
        for (i, id) in ids.into_iter().enumerate() {
            if i % 4 != 0 {
                sim.cancel(id);
            }
        }
        sim.run(&mut world);
        world + n // survivors + scheduled: identical across engines
    });
    out.push(engine_bench("engine_cancel_heavy", reps, w, h));
    out
}

/// Self-rescheduling chain: steady-state `schedule_in` from inside
/// handlers, the dominant shape of the protocol simulations. Written
/// outside `on_both!` because the handler names its own engine type.
fn chain_benches(n: u64, reps: usize) -> EngineBench {
    let wheel = move || {
        let mut sim: Sim<u64> = Sim::new();
        let mut world = 0u64;
        fn tick(limit: u64) -> impl Fn(&mut u64, &mut Sim<u64>) {
            move |w, sim| {
                *w += 1;
                if *w < limit {
                    sim.schedule_in(Ps::ns(120), tick(limit));
                }
            }
        }
        sim.schedule_at(Ps::ZERO, tick(n));
        sim.run(&mut world);
        world
    };
    let heap = move || {
        let mut sim: ReferenceSim<u64> = ReferenceSim::new();
        let mut world = 0u64;
        fn tick(limit: u64) -> impl Fn(&mut u64, &mut ReferenceSim<u64>) {
            move |w, sim| {
                *w += 1;
                if *w < limit {
                    sim.schedule_in(Ps::ns(120), tick(limit));
                }
            }
        }
        sim.schedule_at(Ps::ZERO, tick(n));
        sim.run(&mut world);
        world
    };
    engine_bench("engine_reschedule_chain", reps, wheel, heap)
}

// ---------------------------------------------------------------------
// Doorbell-batch microbench
// ---------------------------------------------------------------------

/// Host cost of driving the I/OAT engine model — N single-descriptor
/// submissions (one doorbell each) versus the same N as one chained
/// batch — plus the *simulated* submitting-CPU charge both ways. The
/// modeled numbers are equal at the default calibration
/// (`ioat_desc_chain_cpu == ioat_submit_cpu`) and diverge as the chain
/// cost drops; the `batch_doorbell` experiment sweeps that axis.
struct DoorbellBench {
    descriptors: u64,
    sequential_best_secs: f64,
    batched_best_secs: f64,
    modeled_sequential_us: f64,
    modeled_batched_default_us: f64,
    modeled_batched_chain35_us: f64,
}

impl DoorbellBench {
    fn json(&self) -> String {
        format!(
            "{{\"name\":\"ioat_doorbell_batch\",\"descriptors\":{},\
             \"sequential_best_secs\":{:.6},\"batched_best_secs\":{:.6},\
             \"host_speedup\":{:.2},\"modeled_sequential_us\":{:.2},\
             \"modeled_batched_default_us\":{:.2},\
             \"modeled_batched_chain35_us\":{:.2}}}",
            self.descriptors,
            self.sequential_best_secs,
            self.batched_best_secs,
            self.sequential_best_secs / self.batched_best_secs,
            self.modeled_sequential_us,
            self.modeled_batched_default_us,
            self.modeled_batched_chain35_us,
        )
    }
}

fn doorbell_bench(reps: usize) -> DoorbellBench {
    let hw = HwParams::default();
    let n: u64 = 1024;
    let frag: u64 = 4096;
    let mut seq_times = Vec::with_capacity(reps);
    let mut bat_times = Vec::with_capacity(reps);
    for _ in 0..reps {
        // One doorbell per descriptor (today's submit sites).
        let mut eng = IoatEngine::new(&hw);
        let mut handles = Vec::with_capacity(n as usize);
        let sw = Stopwatch::start();
        for i in 0..n {
            let ch = (i as usize) % eng.num_channels();
            handles.push(eng.submit(&hw, Ps::ZERO, ch, frag, 1));
        }
        seq_times.push(sw.elapsed_secs());
        for h in &handles {
            SimSanitizer::complete(h.san);
            SimSanitizer::release(h.san);
        }
        // One chained ring, one doorbell.
        let mut eng = IoatEngine::new(&hw);
        let segments: Vec<CopySegment> = (0..n)
            .map(|i| CopySegment {
                channel: (i as usize) % eng.num_channels(),
                bytes: frag,
                descriptors: 1,
            })
            .collect();
        let mut out = Vec::with_capacity(n as usize);
        let sw = Stopwatch::start();
        eng.submit_batch(&hw, Ps::ZERO, &segments, &mut out);
        bat_times.push(sw.elapsed_secs());
        for h in &out {
            SimSanitizer::complete(h.san);
            SimSanitizer::release(h.san);
        }
    }
    seq_times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    bat_times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let us = |p: Ps| p.as_secs_f64() * 1e6;
    let cheap = HwParams {
        ioat_desc_chain_cpu: Ps::ns(35),
        ..HwParams::default()
    };
    DoorbellBench {
        descriptors: n,
        sequential_best_secs: seq_times[0],
        batched_best_secs: bat_times[0],
        modeled_sequential_us: us(IoatEngine::submit_cpu_cost(&hw, n)),
        modeled_batched_default_us: us(IoatEngine::submit_cpu_cost_batched(&hw, n, true)),
        modeled_batched_chain35_us: us(IoatEngine::submit_cpu_cost_batched(&cheap, n, true)),
    }
}

// ---------------------------------------------------------------------
// End-to-end workloads (one per figure family)
// ---------------------------------------------------------------------

struct E2eBench {
    name: &'static str,
    wall_best_secs: f64,
    wall_median_secs: f64,
    allocs_total: u64,
    sim_end: Ps,
    throughput_mibs: f64,
    /// Engine events the run executed (deterministic).
    events_executed: u64,
}

impl E2eBench {
    fn json(&self) -> String {
        format!(
            "{{\"name\":\"{}\",\"wall_best_secs\":{:.4},\"wall_median_secs\":{:.4},\
             \"allocs_total\":{},\"sim_end_ns\":{},\"throughput_mibs\":{:.1},\
             \"events_executed\":{},\"events_per_sec\":{:.0}}}",
            self.name,
            self.wall_best_secs,
            self.wall_median_secs,
            self.allocs_total,
            self.sim_end.0 / 1000,
            self.throughput_mibs,
            self.events_executed,
            self.events_executed as f64 / self.wall_best_secs,
        )
    }
}

fn e2e_bench(name: &'static str, repeats: usize, run: impl Fn() -> (Ps, f64, u64)) -> E2eBench {
    let mut times = Vec::with_capacity(repeats);
    let mut sim_end = Ps::ZERO;
    let mut throughput = 0.0;
    let mut allocs_total = 0;
    let mut events_executed = 0;
    for rep in 0..repeats {
        let a0 = allocations();
        let sw = Stopwatch::start();
        let (end, thr, events) = run();
        times.push(sw.elapsed_secs());
        if rep + 1 == repeats {
            sim_end = end;
            throughput = thr;
            allocs_total = allocations() - a0;
            events_executed = events;
        }
    }
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    E2eBench {
        name,
        wall_best_secs: times[0],
        wall_median_secs: times[times.len() / 2],
        allocs_total,
        sim_end,
        throughput_mibs: throughput,
        events_executed,
    }
}

fn pingpong_cfg(iters: u32, cfg: OmxConfig) -> open_mx::harness::PingPongResult {
    let mut c = PingPongConfig::new(
        ClusterParams::with_cfg(cfg),
        256 << 10,
        Placement::TwoNodes {
            core_a: CoreId(2),
            core_b: CoreId(2),
        },
    );
    c.iters = iters;
    c.warmup = 1;
    run_pingpong(c)
}

fn pingpong_fixed(iters: u32) -> open_mx::harness::PingPongResult {
    pingpong_cfg(iters, fixed_cfg())
}

fn stream_fixed(count: u32) -> open_mx::harness::StreamResult {
    let mut c = StreamConfig::new(ClusterParams::with_cfg(fixed_cfg()), 1 << 20);
    c.count = count;
    run_stream(c)
}

/// The multi-queue RX path: 4 RSS queues + GRO trains on the
/// 8-sender medium fan-in.
fn fanin_fixed(count: u32) -> open_mx::harness::FaninResult {
    let mut params = ClusterParams::with_cfg(fixed_cfg());
    params.nic.num_queues = 4;
    params.cfg.gro = true;
    let mut c = FaninConfig::new(params, 16 << 10);
    c.count = count;
    run_fanin(c)
}

/// The credit-governed pull path: an 8-sender large-message incast
/// with the receiver budget on, over the 8-slot pressured ring so the
/// AIMD shrink, the grant FIFO and the shed-load path all execute
/// inside the fingerprint.
fn incast_fixed() -> open_mx::harness::IncastResult {
    let mut params = ClusterParams::with_cfg(OmxConfig {
        fault_plan: FaultPlan::ring_pressure(),
        pull_credits: true,
        ..fixed_cfg()
    });
    params.nic.num_queues = 4;
    run_incast(IncastConfig::new(params, 8, 96 << 10, 2))
}

fn alltoall_fixed(iters: u32) -> KernelResult {
    let params = ClusterParams {
        nodes: 2,
        ..ClusterParams::with_cfg(fixed_cfg())
    };
    run_kernel(Kernel::Alltoall, Layout::TwoPerNode, 1 << 20, iters, params)
}

/// The scale cell: a 1024-rank IMB Alltoall (one rank per node, 256 B,
/// the `scale_ablation` workload) under `partitions` shards fanned
/// across as many workers.
fn alltoall_1k(partitions: usize) -> KernelResult {
    let mut params = ClusterParams::with_cfg(fixed_cfg());
    params.partitions = partitions;
    params.partition_workers = partitions;
    run_kernel(Kernel::Alltoall, Layout::Nodes(1024), 256, 2, params)
}

fn e2e_benches() -> Vec<E2eBench> {
    vec![
        e2e_bench("pingpong_256k", 5, || {
            let r = pingpong_fixed(12);
            assert!(r.verified, "pingpong failed verification");
            (r.run.end, r.throughput_mibs, r.run.events)
        }),
        e2e_bench("stream_1m", 3, || {
            let r = stream_fixed(8);
            assert!(r.verified, "stream failed verification");
            (r.elapsed, r.throughput_mibs, r.run.events)
        }),
        e2e_bench("alltoall_1m", 3, || {
            let r = alltoall_fixed(2);
            assert!(r.verified, "alltoall failed verification");
            (r.run.end, 0.0, r.run.events)
        }),
        e2e_bench("fanin_mq_16k", 3, || {
            let r = fanin_fixed(16);
            assert!(r.verified, "fan-in failed verification");
            (r.elapsed, r.throughput_mibs, r.run.events)
        }),
        e2e_bench("incast_credit_96k", 3, || {
            let r = incast_fixed();
            assert!(r.verified, "incast failed verification");
            (r.elapsed, 0.0, r.run.events)
        }),
    ]
}

// ---------------------------------------------------------------------
// Smoke mode: deterministic fingerprints only
// ---------------------------------------------------------------------

fn fingerprint(run: &RunReport, breakdown: &ComponentBreakdown) -> String {
    format!(
        "{{\"events_executed\":{},\"stats\":{},\"breakdown\":{}}}",
        run.events,
        serde_json::to_string(&run.stats).expect("stats serialize"),
        serde_json::to_string(breakdown).expect("breakdown serialize")
    )
}

fn smoke() {
    let pp = pingpong_fixed(6);
    assert!(pp.verified, "pingpong failed verification");
    let st = stream_fixed(4);
    assert!(st.verified, "stream failed verification");
    let a2a = alltoall_fixed(2);
    assert!(a2a.verified, "alltoall failed verification");
    let fi = fanin_fixed(8);
    assert!(fi.verified, "fan-in failed verification");
    assert!(fi.gro_coalesced > 0, "fan-in smoke must exercise GRO");
    let ic = incast_fixed();
    assert!(ic.verified, "incast failed verification");
    assert!(
        ic.run.stats.credit_shrinks > 0,
        "incast smoke must engage the credit controller"
    );
    let fp_pp = fingerprint(&pp.run, &pp.breakdown);
    // The two PR-9 engine knobs must be invisible to the schedule:
    // batching at the default calibration (chain cost == submit cost)
    // and a one-level wheel (the default has two) both re-run the
    // pingpong and must land on the very same fingerprint bytes. The
    // golden then *contains* the identity claim instead of merely
    // asserting it in a test.
    let ppb = pingpong_cfg(
        6,
        OmxConfig {
            ioat_batch: true,
            ..fixed_cfg()
        },
    );
    assert!(ppb.verified, "batched pingpong failed verification");
    let fp_ppb = fingerprint(&ppb.run, &ppb.breakdown);
    assert_eq!(
        fp_pp, fp_ppb,
        "ioat_batch must be bit-invisible at the default calibration"
    );
    let ppw = pingpong_cfg(
        6,
        OmxConfig {
            wheel_levels: 1,
            ..fixed_cfg()
        },
    );
    assert!(ppw.verified, "one-level pingpong failed verification");
    let fp_ppw = fingerprint(&ppw.run, &ppw.breakdown);
    assert_eq!(fp_pp, fp_ppw, "wheel depth must not change the schedule");
    // The scale cell: the partitioned engine's 1024-rank Alltoall at 4
    // partitions must land byte-for-byte on the single-engine run, and
    // its event count is pinned in the golden — a partitioning change
    // that reorders or drops a single event fails the byte-compare.
    let a1k = alltoall_1k(1);
    assert!(a1k.verified, "1k-rank alltoall failed verification");
    let a1k4 = alltoall_1k(4);
    assert!(
        a1k4.verified,
        "partitioned 1k-rank alltoall failed verification"
    );
    let fp_a1k = fingerprint(&a1k.run, &a1k.breakdown);
    let fp_a1k4 = fingerprint(&a1k4.run, &a1k4.breakdown);
    assert_eq!(
        fp_a1k, fp_a1k4,
        "1k-rank alltoall at 4 partitions must be byte-identical to the single engine"
    );
    assert_eq!(
        a1k.run.end, a1k4.run.end,
        "partitioning moved the completion time"
    );
    assert_eq!(a1k.marks, a1k4.marks, "partitioning moved the rank-0 marks");
    println!(
        "{{\"schema\":\"perf-smoke-v5\",\"seed\":{},\"pingpong\":{},\
         \"pingpong_batched\":{},\"pingpong_one_level\":{},\"stream\":{},\
         \"alltoall\":{},\"fanin_mq\":{},\"incast_credit\":{},\
         \"alltoall_1k_partitioned\":{}}}",
        SEED,
        fp_pp,
        fp_ppb,
        fp_ppw,
        fingerprint(&st.run, &st.breakdown),
        fingerprint(&a2a.run, &a2a.breakdown),
        fingerprint(&fi.run, &fi.breakdown),
        fingerprint(&ic.run, &ic.breakdown),
        fp_a1k4,
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let mut benches = engine_benches(1);
    benches.push(chain_benches(10_000, 9));
    let engine: Vec<String> = benches.iter().map(|b| b.json()).collect();
    let doorbell = doorbell_bench(9).json();
    let e2e: Vec<String> = e2e_benches().iter().map(|b| b.json()).collect();
    println!(
        "{{\"schema\":\"benchrun-v2\",\"engine\":\"{}\",\"profile\":\"{}\",\
         \"engine_benches\":[{}],\"doorbell\":{},\"e2e\":[{}]}}",
        ENGINE,
        profile,
        engine.join(","),
        doorbell,
        e2e.join(","),
    );
}
