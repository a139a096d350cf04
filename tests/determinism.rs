//! Run-to-run determinism: the same seed must produce byte-identical
//! serialized results — aggregate `Stats` (protocol counters included)
//! and the component time breakdown — for every workload under every
//! named fault plan. This is the property the whole experimental
//! record rests on: any wall-clock read, unordered-map iteration or
//! stray RNG would show up here as a diff between two identical runs.
//!
//! `omx-lint` proves the absence of those hazard *sources* statically;
//! this test proves the end-to-end consequence dynamically.

use openmx_repro::hw::CoreId;
use openmx_repro::mpi::{run_kernel, Kernel, Layout};
use openmx_repro::omx::cluster::ClusterParams;
use openmx_repro::omx::config::OmxConfig;
use openmx_repro::omx::fault::FaultPlan;
use openmx_repro::omx::harness::{
    run_incast, run_pingpong, run_stream, IncastConfig, PingPongConfig, Placement, StreamConfig,
};

const SEED: u64 = 17;

/// Clean plus every named fault plan.
fn plans() -> Vec<(&'static str, FaultPlan)> {
    let mut v = vec![("clean", FaultPlan::default())];
    for name in FaultPlan::NAMES {
        v.push((name, FaultPlan::named(name).expect("known plan")));
    }
    v
}

fn cfg(plan: FaultPlan) -> OmxConfig {
    OmxConfig {
        fault_plan: plan,
        seed: SEED,
        regcache: false,
        ..OmxConfig::with_ioat()
    }
}

/// Serialized fingerprint of one run: aggregate stats (with the full
/// counter set) plus the component breakdown, as JSON bytes.
fn fingerprint<S: serde::Serialize, B: serde::Serialize>(stats: &S, breakdown: &B) -> String {
    let s = serde_json::to_string(stats).expect("stats serialize");
    let b = serde_json::to_string(breakdown).expect("breakdown serialize");
    format!("{s}\n{b}")
}

fn pingpong_fingerprint(plan: FaultPlan) -> String {
    let mut c = PingPongConfig::new(
        ClusterParams::with_cfg(cfg(plan)),
        256 << 10,
        Placement::TwoNodes {
            core_a: CoreId(2),
            core_b: CoreId(2),
        },
    );
    c.iters = 6;
    c.warmup = 1;
    let r = run_pingpong(c);
    fingerprint(&r.run.stats, &r.breakdown)
}

fn stream_fingerprint(plan: FaultPlan) -> String {
    let params = ClusterParams::with_cfg(cfg(plan));
    let mut c = StreamConfig::new(params, 1 << 20);
    c.count = 4;
    let r = run_stream(c);
    fingerprint(&r.run.stats, &r.breakdown)
}

fn alltoall_fingerprint(plan: FaultPlan) -> String {
    let params = ClusterParams {
        nodes: 2,
        ..ClusterParams::with_cfg(cfg(plan))
    };
    let r = run_kernel(Kernel::Alltoall, Layout::TwoPerNode, 1 << 20, 2, params);
    fingerprint(&r.run.stats, &r.breakdown)
}

#[test]
fn pingpong_is_bit_deterministic_under_every_plan() {
    for (name, plan) in plans() {
        let a = pingpong_fingerprint(plan.clone());
        let b = pingpong_fingerprint(plan);
        assert_eq!(a, b, "pingpong under `{name}` diverged between two runs");
    }
}

#[test]
fn stream_is_bit_deterministic_under_every_plan() {
    for (name, plan) in plans() {
        let a = stream_fingerprint(plan.clone());
        let b = stream_fingerprint(plan);
        assert_eq!(a, b, "stream under `{name}` diverged between two runs");
    }
}

fn incast_fingerprint(plan: FaultPlan) -> String {
    // Small credit-enabled incast: the grant FIFO, AIMD budget and
    // NACK path all run on the sim's ordered timeline, so two runs
    // must agree bit for bit like every other workload.
    let mut params = ClusterParams::with_cfg(OmxConfig {
        pull_credits: true,
        ..cfg(plan)
    });
    params.nic.num_queues = 4;
    let r = run_incast(IncastConfig::new(params, 8, 96 << 10, 2));
    fingerprint(&r.run.stats, &r.breakdown)
}

#[test]
fn credit_incast_is_bit_deterministic_under_every_plan() {
    for (name, plan) in plans() {
        let a = incast_fingerprint(plan.clone());
        let b = incast_fingerprint(plan);
        assert_eq!(
            a, b,
            "credit-enabled incast under `{name}` diverged between two runs"
        );
    }
}

#[test]
fn alltoall_is_bit_deterministic_under_every_plan() {
    for (name, plan) in plans() {
        let a = alltoall_fingerprint(plan.clone());
        let b = alltoall_fingerprint(plan);
        assert_eq!(a, b, "alltoall under `{name}` diverged between two runs");
    }
}

/// The partitioned-engine determinism gate: for pingpong, alltoall and
/// credit-incast under `clean` and `flaky-10g`, every combination of
/// `partitions ∈ {1, 4}` × `partition_workers ∈ {1, 8}` must produce
/// the byte-identical Stats + breakdown JSON — and the `partitions: 1`
/// fingerprint IS the pre-partitioning single-engine fingerprint, so
/// this pins both "jobs don't matter" and "partitioning doesn't
/// matter" in one sweep.
#[test]
fn partitioning_and_workers_leave_every_fingerprint_unchanged() {
    let plans = [
        ("clean", FaultPlan::default()),
        (
            "flaky-10g",
            FaultPlan::named("flaky-10g").expect("known plan"),
        ),
    ];
    let grid = [(1usize, 1usize), (1, 8), (4, 1), (4, 8)];
    for (name, plan) in plans {
        for (label, fp) in [
            (
                "pingpong",
                &partitioned_pingpong_fingerprint as &dyn Fn(FaultPlan, usize, usize) -> String,
            ),
            ("alltoall", &partitioned_alltoall_fingerprint),
            ("incast", &partitioned_incast_fingerprint),
        ] {
            let base = fp(plan.clone(), 1, 1);
            for (parts, workers) in grid.iter().skip(1) {
                let got = fp(plan.clone(), *parts, *workers);
                assert_eq!(
                    got, base,
                    "{label} under `{name}`: partitions={parts} workers={workers} \
                     diverged from the single-engine fingerprint"
                );
            }
        }
    }
}

fn with_partitions(mut params: ClusterParams, parts: usize, workers: usize) -> ClusterParams {
    params.partitions = parts;
    params.partition_workers = workers;
    params
}

fn partitioned_pingpong_fingerprint(plan: FaultPlan, parts: usize, workers: usize) -> String {
    let mut c = PingPongConfig::new(
        with_partitions(ClusterParams::with_cfg(cfg(plan)), parts, workers),
        256 << 10,
        Placement::TwoNodes {
            core_a: CoreId(2),
            core_b: CoreId(2),
        },
    );
    c.iters = 6;
    c.warmup = 1;
    let r = run_pingpong(c);
    fingerprint(&r.run.stats, &r.breakdown)
}

fn partitioned_alltoall_fingerprint(plan: FaultPlan, parts: usize, workers: usize) -> String {
    // One rank per node on 8 nodes so a 4-way partitioning actually
    // spreads the job (TwoPerNode would leave half the shards empty).
    let params = with_partitions(ClusterParams::with_cfg(cfg(plan)), parts, workers);
    let r = run_kernel(Kernel::Alltoall, Layout::Nodes(8), 256 << 10, 2, params);
    fingerprint(&r.run.stats, &r.breakdown)
}

fn partitioned_incast_fingerprint(plan: FaultPlan, parts: usize, workers: usize) -> String {
    let mut params = ClusterParams::with_cfg(OmxConfig {
        pull_credits: true,
        ..cfg(plan)
    });
    params.nic.num_queues = 4;
    let params = with_partitions(params, parts, workers);
    let r = run_incast(IncastConfig::new(params, 8, 96 << 10, 2));
    fingerprint(&r.run.stats, &r.breakdown)
}

/// The wide credit incast behind the partition-identity check: 32
/// senders × 4 messages × 48 KiB into a 4-queue receiver.
fn wide_incast_fingerprint(plan: FaultPlan, parts: usize, workers: usize) -> String {
    let mut params = ClusterParams::with_cfg(OmxConfig {
        pull_credits: true,
        ..cfg(plan)
    });
    params.nic.num_queues = 4;
    let params = with_partitions(params, parts, workers);
    let r = run_incast(IncastConfig::new(params, 32, 48 << 10, 4));
    format!(
        "{}\nevents {}",
        fingerprint(&r.run.stats, &r.breakdown),
        r.run.events
    )
}

/// Partitioned runs of a wide 4-queue credit incast agree with each
/// other at every partition and worker count. `partitions = 1` is left
/// out on purpose: on this cell it diverges from the partitioned runs
/// (a known defect, see DESIGN.md §7), so the single engine cannot be
/// the reference here.
#[test]
fn partitioned_wide_incast_is_identical_across_partition_counts() {
    let grid = [(2usize, 1usize), (2, 2), (4, 1), (8, 4)];
    for name in ["clean", "ring-pressure", "flaky-10g"] {
        let plan = if name == "clean" {
            FaultPlan::default()
        } else {
            FaultPlan::named(name).expect("known plan")
        };
        let (p0, w0) = grid[0];
        let base = wide_incast_fingerprint(plan.clone(), p0, w0);
        for &(parts, workers) in &grid[1..] {
            let got = wide_incast_fingerprint(plan.clone(), parts, workers);
            assert_eq!(
                got, base,
                "wide incast under `{name}`: partitions={parts} workers={workers} \
                 diverged from partitions={p0} workers={w0}"
            );
        }
    }
}

fn batch_pingpong(plan: FaultPlan, size: u64, batch: bool) -> (Vec<openmx_repro::sim::Ps>, String) {
    let mut c = PingPongConfig::new(
        ClusterParams::with_cfg(OmxConfig {
            ioat_batch: batch,
            ..cfg(plan)
        }),
        size,
        Placement::TwoNodes {
            core_a: CoreId(2),
            core_b: CoreId(2),
        },
    );
    c.iters = 6;
    c.warmup = 1;
    let r = run_pingpong(c);
    assert!(r.verified);
    (r.rtts, fingerprint(&r.run.stats, &r.breakdown))
}

#[test]
fn ioat_batching_is_bit_identical_under_every_plan() {
    // Batched doorbells only change how the submitting CPU's cost is
    // charged; with the default calibration (chain cost == submit
    // cost) flipping `ioat_batch` must be invisible bit for bit —
    // including on the quarantine/re-probe/memcpy-fallback recovery
    // paths, which poll the completion word of chained descriptors and
    // re-derive deadlines from the batch's handles. Medium (synchronous
    // offload, per-fragment descriptors) and large (pull + multichannel
    // split) sizes cover every batched submit site.
    for (name, plan) in plans() {
        for size in [16 << 10, 256 << 10] {
            let (rtts_off, fp_off) = batch_pingpong(plan.clone(), size, false);
            let (rtts_on, fp_on) = batch_pingpong(plan.clone(), size, true);
            assert_eq!(
                rtts_off, rtts_on,
                "{size}B under `{name}`: batching changed per-iteration timings"
            );
            assert_eq!(
                fp_off, fp_on,
                "{size}B under `{name}`: batching changed stats or breakdown"
            );
        }
    }
}

#[test]
fn snapshot_carries_aggregated_counters() {
    // The counter table end to end: serialized stats must contain the
    // aggregated per-endpoint counters, and a large-message exchange
    // must have counted actual traffic into them.
    let mut c = PingPongConfig::new(
        ClusterParams::with_cfg(cfg(FaultPlan::default())),
        256 << 10,
        Placement::TwoNodes {
            core_a: CoreId(2),
            core_b: CoreId(2),
        },
    );
    c.iters = 4;
    c.warmup = 1;
    let r = run_pingpong(c);
    assert!(r.verified);
    assert!(
        r.run.stats.counters.tx_large > 0,
        "stats {:?}",
        r.run.stats.counters
    );
    assert!(r.run.stats.counters.tx_bytes > 0);
    let json = serde_json::to_string(&r.run.stats).expect("serialize");
    assert!(
        json.contains("\"counters\"") && json.contains("\"tx_large\""),
        "serialized stats must surface the counter block: {json}"
    );
}
