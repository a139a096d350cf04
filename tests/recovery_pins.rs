//! Runs that recover from loss keep their recovery schedule.
//!
//! Each case injects a fault plan that makes the resend timers and the
//! pull watchdog act, and pins what that recovery did: the resend,
//! re-request, backoff and duplicate counts, the harness's
//! per-message timings (folded into one digest) and `RunReport::end`.
//! Every case runs at partitions 1 and 2. A change to how the timers
//! are kept may move engine event counts, but not one of these values:
//! a resend or re-request at another instant would move the timings.

use openmx_repro::ethernet::fault::LinkFaultParams;
use openmx_repro::hw::CoreId;
use openmx_repro::mpi::ops::{Phase, RecvOp, SendOp};
use openmx_repro::mpi::runner::run_scripts;
use openmx_repro::mpi::Layout;
use openmx_repro::omx::cluster::ClusterParams;
use openmx_repro::omx::config::OmxConfig;
use openmx_repro::omx::fault::{FaultPlan, LinkFaultOverride};
use openmx_repro::omx::harness::{
    run_incast, run_pingpong, run_stream, IncastConfig, PingPongConfig, Placement, RunReport,
    StreamConfig,
};
use openmx_repro::sim::Ps;

/// `(retransmissions, pull_retransmissions, backoff_escalations,
/// duplicates_dropped, timings digest, end in ps)`.
type Pin = (u64, u64, u64, u64, u64, u64);

fn cfg(plan: &str) -> OmxConfig {
    with_plan(FaultPlan::named(plan).expect("known plan"))
}

fn with_plan(fault_plan: FaultPlan) -> OmxConfig {
    OmxConfig {
        fault_plan,
        seed: 17,
        regcache: false,
        ..OmxConfig::with_ioat()
    }
}

fn params(cfg: OmxConfig, parts: usize) -> ClusterParams {
    let mut p = ClusterParams::with_cfg(cfg);
    p.partitions = parts;
    p.partition_workers = 1;
    p
}

/// FNV-1a over the picosecond values of `timings`, in order.
fn digest(timings: &[Ps]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for t in timings {
        for b in t.as_ps().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn pin(run: &RunReport, timings: &[Ps]) -> Pin {
    let s = &run.stats;
    (
        s.retransmissions,
        s.pull_retransmissions,
        s.backoff_escalations,
        s.duplicates_dropped,
        digest(timings),
        run.end.as_ps(),
    )
}

fn pingpong(cfg: OmxConfig, size: u64, iters: u32, parts: usize) -> Pin {
    let mut c = PingPongConfig::new(
        params(cfg, parts),
        size,
        Placement::TwoNodes {
            core_a: CoreId(2),
            core_b: CoreId(2),
        },
    );
    c.iters = iters;
    c.warmup = 1;
    let r = run_pingpong(c);
    assert!(r.verified, "pingpong of {size} B failed verification");
    pin(&r.run, &r.rtts)
}

fn stream(cfg: OmxConfig, parts: usize) -> Pin {
    let mut c = StreamConfig::new(params(cfg, parts), 1 << 20);
    c.count = 8;
    let r = run_stream(c);
    assert!(r.verified, "stream failed verification");
    pin(&r.run, &[r.elapsed])
}

/// The wide 4-queue credit incast of `tests/determinism.rs`: 32
/// senders × 4 messages × 48 KiB.
fn incast(plan: &str, parts: usize) -> Pin {
    let mut p = params(
        OmxConfig {
            pull_credits: true,
            ..cfg(plan)
        },
        parts,
    );
    p.nic.num_queues = 4;
    let r = run_incast(IncastConfig::new(p, 32, 48 << 10, 4));
    assert!(r.verified, "incast under `{plan}` failed verification");
    pin(&r.run, &[r.elapsed, r.per_msg])
}

/// A 64-rank burst Alltoall of 1 KiB messages, every send and receive
/// posted at once in rank order, while the link from node 1 to node 0
/// drops every other frame. Every other link is clean, so node 1 keeps
/// processing acks from its other peers and its resend timer holds:
/// each resend of its lost message to node 0 leaves up to one timeout
/// after its deadline.
fn hold_under_loss(parts: usize) -> Pin {
    let every_other = LinkFaultParams {
        p_enter_bad: 1.0,
        p_exit_bad: 1.0,
        loss_bad: 1.0,
        ..LinkFaultParams::default()
    };
    let cfg = with_plan(FaultPlan {
        links: vec![LinkFaultOverride {
            src: 1,
            dst: 0,
            params: every_other,
        }],
        ..FaultPlan::default()
    });
    let np = 64;
    let burst = |rank: usize| {
        let peers = (0..np).filter(|&p| p != rank);
        vec![Phase {
            sends: peers
                .clone()
                .map(|to| SendOp {
                    to,
                    bytes: 1 << 10,
                    tag: 0,
                })
                .collect(),
            recvs: peers
                .map(|from| RecvOp {
                    from,
                    bytes: 1 << 10,
                    tag: 0,
                })
                .collect(),
            ..Phase::default()
        }
        .marked()]
    };
    let r = run_scripts(
        params(cfg, parts),
        Layout::Nodes(np),
        (0..np).map(burst).collect(),
    );
    // `run_scripts` asserts that every rank finished, so every receive
    // completed.
    assert!(r.verified, "a send of the lossy burst failed");
    pin(&r.run, &r.marks)
}

fn case(name: &str, parts: usize) -> Pin {
    match name {
        "flaky-10g pingpong" => pingpong(cfg("flaky-10g"), 256 << 10, 16, parts),
        "flaky-10g stream" => stream(cfg("flaky-10g"), parts),
        "ring-pressure incast" => incast("ring-pressure", parts),
        "flaky-10g incast" => incast("flaky-10g", parts),
        "dup-storm medium pingpong" => pingpong(cfg("dup-storm"), 3000, 40, parts),
        "hold under loss" => hold_under_loss(parts),
        _ => unreachable!("unknown case {name}"),
    }
}

/// `(case, partitions, pinned values)`. The wide incast differs
/// between partitions 1 and 2 (a known defect of same-instant arrival
/// order at partitions 1, DESIGN.md §7), so each count is pinned on
/// its own.
const PINS: [(&str, usize, Pin); 12] = [
    (
        "flaky-10g pingpong",
        1,
        (13, 2, 15, 12, 11918470945149659590, 34971198726),
    ),
    (
        "flaky-10g pingpong",
        2,
        (13, 2, 15, 12, 11918470945149659590, 34971198726),
    ),
    (
        "flaky-10g stream",
        1,
        (4, 6, 8, 29, 11452226655738084044, 11595389550),
    ),
    (
        "flaky-10g stream",
        2,
        (4, 6, 8, 29, 11452226655738084044, 11595389550),
    ),
    (
        "ring-pressure incast",
        1,
        (101, 0, 101, 98, 3789742201367355282, 3954272961),
    ),
    (
        "ring-pressure incast",
        2,
        (114, 2, 116, 124, 6197166686435716315, 4944124460),
    ),
    (
        "flaky-10g incast",
        1,
        (14, 9, 21, 21, 4963358794412019347, 5434502593),
    ),
    (
        "flaky-10g incast",
        2,
        (14, 9, 21, 21, 9606785184179364871, 5566053986),
    ),
    (
        "dup-storm medium pingpong",
        1,
        (0, 0, 0, 1, 16325218005475456667, 1030618808),
    ),
    (
        "dup-storm medium pingpong",
        2,
        (0, 0, 0, 1, 16325218005475456667, 1030618808),
    ),
    (
        "hold under loss",
        1,
        (2, 0, 2, 0, 6522746229078188607, 1878546780),
    ),
    (
        "hold under loss",
        2,
        (2, 0, 2, 0, 6522746229078188607, 1878546780),
    ),
];

#[test]
fn recovering_runs_keep_their_recovery_schedule() {
    for (name, parts, want) in PINS {
        assert_eq!(case(name, parts), want, "{name} at partitions {parts}");
    }
}
