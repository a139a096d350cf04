//! Perf smoke: deterministic simulation fingerprints.
//!
//! `benchrun --smoke` runs fixed end-to-end workloads (ping-pong,
//! stream, all-to-all, multi-queue fan-in, credit-governed incast and
//! the 1024-rank partitioned Alltoall) in a cheap configuration and
//! prints only their deterministic simulation fingerprints (events
//! executed, Stats and component breakdown JSON). CI byte-compares
//! this output against `results/golden/perf_smoke.json`: any scheduler
//! reordering, stray wall-clock read or unordered iteration shows up
//! as a diff. Host-time measurement is `omx-benchmark`'s job. Any other
//! invocation prints a usage line and exits with status 2.

use omx_hw::CoreId;
use omx_mpi::runner::{run_kernel, KernelResult, Layout};
use omx_mpi::Kernel;
use open_mx::cluster::ClusterParams;
use open_mx::config::OmxConfig;
use open_mx::fault::FaultPlan;
use open_mx::harness::{
    run_fanin, run_incast, run_pingpong, run_stream, ComponentBreakdown, FaninConfig, IncastConfig,
    PingPongConfig, Placement, RunReport, StreamConfig,
};

const SEED: u64 = 17;

fn fixed_cfg() -> OmxConfig {
    OmxConfig {
        seed: SEED,
        regcache: false,
        ..OmxConfig::with_ioat()
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

fn fingerprint(run: &RunReport, breakdown: &ComponentBreakdown) -> String {
    format!(
        "{{\"events_executed\":{},\"stats\":{},\"breakdown\":{}}}",
        run.events,
        serde_json::to_string(&run.stats).expect("stats serialize"),
        serde_json::to_string(breakdown).expect("breakdown serialize")
    )
}

fn smoke() {
    let pp = pingpong_cfg(6, fixed_cfg());
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
    // The wheel depth must be invisible to the schedule: a one-level
    // wheel (the default has two) re-runs the pingpong and must land
    // on the very same fingerprint bytes. The golden then *contains*
    // the identity claim instead of merely asserting it in a test.
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
        "{{\"schema\":\"perf-smoke-v6\",\"seed\":{},\"pingpong\":{},\
         \"pingpong_one_level\":{},\"stream\":{},\
         \"alltoall\":{},\"fanin_mq\":{},\"incast_credit\":{},\
         \"alltoall_1k_partitioned\":{}}}",
        SEED,
        fp_pp,
        fp_ppw,
        fingerprint(&st.run, &st.breakdown),
        fingerprint(&a2a.run, &a2a.breakdown),
        fingerprint(&fi.run, &fi.breakdown),
        fingerprint(&ic.run, &ic.breakdown),
        fp_a1k4,
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args != ["--smoke"] {
        eprintln!("usage: benchrun --smoke");
        std::process::exit(2);
    }
    smoke();
}
