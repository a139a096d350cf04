//! Fault-injection soak: named fault plans (bursty loss, reordering,
//! duplication, FCS corruption, I/OAT channel stalls/deaths) must
//! degrade the stack gracefully — every workload completes with
//! byte-verified payloads, no leaked skbuffs or pinned regions, the
//! recovery machinery (memcpy fallback, channel quarantine, adaptive
//! retransmit backoff) actually fires, and the slowdown stays bounded.
//!
//! The flip side is also proven here: an inert fault plan costs
//! nothing — same seeds, same timings, bit for bit.

use openmx_repro::hw::CoreId;
use openmx_repro::mpi::{run_kernel, Kernel, Layout};
use openmx_repro::omx::cluster::{Cluster, ClusterParams};
use openmx_repro::omx::config::{OmxConfig, StackKind};
use openmx_repro::omx::endpoint::{Endpoint, MediumAssembly};
use openmx_repro::omx::fault::{FaultPlan, IoatChannelFault, NodeFaultParams};
use openmx_repro::omx::harness::{
    run_pingpong, run_stream, PingPongConfig, PingPongResult, Placement, StreamConfig,
};
use openmx_repro::omx::{EpAddr, EpIdx, NodeId};
use openmx_repro::sim::Ps;

const SEEDS: [u64; 3] = [11, 23, 47];

/// An I/OAT-enabled configuration under `plan`. The registration cache
/// is disabled so `run.pinned_regions == 0` proves every region was
/// actually released (a cached region legitimately stays pinned).
fn faulty_cfg(plan: FaultPlan, seed: u64) -> OmxConfig {
    OmxConfig {
        fault_plan: plan,
        seed,
        regcache: false,
        ..OmxConfig::with_ioat()
    }
}

fn pingpong(cfg: OmxConfig, size: u64, iters: u32) -> PingPongResult {
    let mut c = PingPongConfig::new(
        ClusterParams::with_cfg(cfg),
        size,
        Placement::TwoNodes {
            core_a: CoreId(2),
            core_b: CoreId(2),
        },
    );
    c.iters = iters;
    c.warmup = 1;
    run_pingpong(c)
}

#[test]
fn flaky_10g_pingpong_recovers_with_fallback_and_backoff() {
    for seed in SEEDS {
        let r = pingpong(faulty_cfg(FaultPlan::flaky_10g(), seed), 256 << 10, 12);
        assert!(r.verified, "seed {seed}: payload corrupted or send failed");
        assert_eq!(r.run.skbuffs_held, 0, "seed {seed}: leaked skbuffs");
        assert_eq!(
            r.run.pinned_regions, 0,
            "seed {seed}: leaked pinned regions"
        );
        assert!(
            r.run.stats.ioat_fallback_copies >= 1,
            "seed {seed}: the stalled channel must force at least one memcpy fallback, stats {:?}",
            r.run.stats
        );
        assert!(
            r.run.stats.backoff_escalations >= 1,
            "seed {seed}: bursty loss must escalate at least one retransmit timeout, stats {:?}",
            r.run.stats
        );
        assert!(
            r.run.stats.frames_lost > 0,
            "seed {seed}: ≈1 % bursty loss must actually drop frames"
        );
    }
}

#[test]
fn flaky_10g_stream_recovers_with_fallback_and_backoff() {
    for seed in SEEDS {
        let params = ClusterParams::with_cfg(faulty_cfg(FaultPlan::flaky_10g(), seed));
        let mut cfg = StreamConfig::new(params, 1 << 20);
        cfg.count = 12;
        let r = run_stream(cfg);
        assert!(r.verified, "seed {seed}: payload corrupted or send failed");
        assert_eq!(r.run.skbuffs_held, 0, "seed {seed}: leaked skbuffs");
        assert_eq!(
            r.run.pinned_regions, 0,
            "seed {seed}: leaked pinned regions"
        );
        assert!(
            r.run.stats.ioat_fallback_copies >= 1,
            "seed {seed}: no memcpy fallback recorded, stats {:?}",
            r.run.stats
        );
        assert!(
            r.run.stats.backoff_escalations >= 1,
            "seed {seed}: no backoff escalation recorded, stats {:?}",
            r.run.stats
        );
    }
}

#[test]
fn flaky_10g_alltoall_recovers_with_fallback_and_backoff() {
    for seed in SEEDS {
        let params = ClusterParams {
            nodes: 2,
            ..ClusterParams::with_cfg(faulty_cfg(FaultPlan::flaky_10g(), seed))
        };
        let r = run_kernel(Kernel::Alltoall, Layout::TwoPerNode, 4 << 20, 2, params);
        assert!(
            r.verified,
            "seed {seed}: alltoall send failed or wire dirty"
        );
        assert_eq!(r.run.skbuffs_held, 0, "seed {seed}: leaked skbuffs");
        assert_eq!(
            r.run.pinned_regions, 0,
            "seed {seed}: leaked pinned regions"
        );
        assert!(
            r.run.stats.ioat_fallback_copies >= 1,
            "seed {seed}: no memcpy fallback recorded, stats {:?}",
            r.run.stats
        );
        assert!(
            r.run.stats.backoff_escalations >= 1,
            "seed {seed}: no backoff escalation recorded, stats {:?}",
            r.run.stats
        );
    }
}

#[test]
fn remaining_named_plans_complete_verified() {
    // The other named plans each stress one hazard in isolation; every
    // one must still deliver verified payloads without leaks.
    for name in ["dirty-fiber", "dup-storm", "ring-pressure", "ioat-dead"] {
        let plan = FaultPlan::named(name).expect("known plan");
        let r = pingpong(faulty_cfg(plan, 7), 256 << 10, 8);
        assert!(r.verified, "{name}: payload corrupted or send failed");
        assert_eq!(r.run.skbuffs_held, 0, "{name}: leaked skbuffs");
        assert_eq!(r.run.pinned_regions, 0, "{name}: leaked pinned regions");
    }
}

#[test]
fn dead_channel_forces_fallback_and_quarantine() {
    let r = pingpong(faulty_cfg(FaultPlan::ioat_dead(), 3), 512 << 10, 8);
    assert!(r.verified);
    assert!(
        r.run.stats.ioat_fallback_copies >= 1,
        "a permanently dead channel must be rescued onto the CPU, stats {:?}",
        r.run.stats
    );
    assert!(
        r.run.stats.ioat_quarantines >= 1,
        "the dead channel must be quarantined, stats {:?}",
        r.run.stats
    );
    assert_eq!(r.run.skbuffs_held, 0);
    assert_eq!(r.run.pinned_regions, 0);
}

#[test]
fn duplicate_everything_is_idempotent() {
    // Every frame delivered twice: pull fragments, rendezvous
    // announcements, acks, notifies. Completions must stay
    // byte-identical and unique (a double RecvLargeDone would corrupt
    // the ping-pong pattern sequence), and no skbuff may drift.
    let plan = FaultPlan {
        default_link: openmx_repro::ethernet::fault::LinkFaultParams {
            dup_prob: 1.0,
            ..Default::default()
        },
        ..FaultPlan::default()
    };
    for (size, iters) in [(256u64 << 10, 8u32), (16 << 10, 8), (100, 8)] {
        let r = pingpong(faulty_cfg(plan.clone(), 5), size, iters);
        assert!(r.verified, "{size} B: duplicate delivery corrupted data");
        assert!(
            r.run.stats.duplicates_dropped > 0,
            "{size} B: duplicates must be detected and dropped"
        );
        assert!(
            r.run.stats.frames_duplicated > 0,
            "{size} B: injection must actually duplicate frames"
        );
        assert_eq!(r.run.skbuffs_held, 0, "{size} B: skbuff drift");
        assert_eq!(r.run.pinned_regions, 0, "{size} B: pinned-region drift");
    }
}

/// The driver's `drv_medium` bitmap hands each medium fragment on once,
/// so an assembly counts bytes only: a fragment applied twice takes it
/// past its length and panics in every build (CI runs this file in
/// release).
#[test]
#[should_panic(expected = "medium assembly overrun: 6000 of 4096 bytes applied")]
fn a_medium_fragment_applied_twice_panics() {
    let addr = EpAddr {
        node: NodeId(0),
        ep: EpIdx(0),
    };
    let mut ep = Endpoint::new(addr, CoreId(0), 0, 8, 4096, false);
    // No receive is posted: the message is buffered unmatched.
    let mut asm = MediumAssembly::start(&mut ep, 7, 4096);
    let frag = [1u8; 3000];
    assert!(!asm.apply(&mut ep.recvs, 0, &frag));
    asm.apply(&mut ep.recvs, 0, &frag);
}

/// The MXoE model sends no acks and resends nothing, so a cluster that
/// runs it refuses a fault plan that can drop, corrupt or duplicate
/// frames; node-only faults are still accepted.
#[test]
fn mxoe_cluster_rejects_a_link_fault_plan() {
    let mxoe = |fault_plan: FaultPlan| {
        ClusterParams::with_cfg(OmxConfig {
            stack: StackKind::Mxoe,
            fault_plan,
            ..OmxConfig::default()
        })
    };
    Cluster::new(mxoe(FaultPlan::ring_pressure()));
    let Err(err) = std::panic::catch_unwind(|| Cluster::new(mxoe(FaultPlan::dup_storm()))) else {
        panic!("an MXoE cluster with link faults must not build");
    };
    let msg = err
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| err.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert!(
        msg.contains("StackKind::Mxoe") && msg.contains("FaultPlan::has_link_faults"),
        "the message names the stack and the fault plan: {msg:?}"
    );
}

#[test]
fn inactive_plan_is_zero_cost() {
    // The fault machinery must be free when it cannot fire. Two
    // configurations: no plan at all, and a plan whose only entry is an
    // I/OAT stall scheduled far beyond the end of the run (the plan is
    // "active", so every per-copy check still executes). Timings must
    // be bit-identical.
    let base = pingpong(
        OmxConfig {
            seed: 9,
            regcache: false,
            ..OmxConfig::with_ioat()
        },
        256 << 10,
        8,
    );
    let far_future = FaultPlan {
        nodes: vec![NodeFaultParams {
            node: 0,
            rx_ring_size: None,
            ioat_faults: vec![IoatChannelFault {
                channel: 0,
                at: Ps::secs(3000),
                duration: Some(Ps::ms(1)),
            }],
        }],
        ..FaultPlan::default()
    };
    let armed = pingpong(faulty_cfg(far_future, 9), 256 << 10, 8);
    assert_eq!(
        base.rtts, armed.rtts,
        "inert plan changed per-iteration timing"
    );
    assert_eq!(
        base.run.end, armed.run.end,
        "inert plan changed the run length"
    );
    assert_eq!(
        base.run.stats.ioat_fallback_copies + base.run.stats.backoff_escalations,
        0,
        "clean run must record no recovery events"
    );
    assert_eq!(armed.run.stats.ioat_fallback_copies, 0);
}

#[test]
fn flaky_slowdown_is_bounded() {
    // Graceful degradation, not collapse: the flaky wire may cost
    // retransmits and fallbacks but must stay within an order of
    // magnitude of the clean run.
    let clean = pingpong(
        OmxConfig {
            seed: 13,
            regcache: false,
            ..OmxConfig::with_ioat()
        },
        256 << 10,
        8,
    );
    let flaky = pingpong(faulty_cfg(FaultPlan::flaky_10g(), 13), 256 << 10, 8);
    assert!(clean.verified && flaky.verified);
    let ratio = flaky.run.end.as_secs_f64() / clean.run.end.as_secs_f64();
    assert!(
        ratio < 10.0,
        "flaky-10g slowed the run {ratio:.1}× (clean {}, flaky {})",
        clean.run.end,
        flaky.run.end
    );
}

/// Send one `len`-byte message at time zero and post its receive
/// `post_after` later, so the receive adopts whatever part of the
/// message has arrived by then. Returns the offset of the first
/// delivered byte that differs from the payload (the length on a short
/// delivery), or `None` when the delivery is intact.
fn late_receive_first_bad_byte(cfg: OmxConfig, len: usize, post_after: Ps) -> Option<usize> {
    use openmx_repro::omx::app::{App, AppCtx, Completion};
    use openmx_repro::omx::cluster::Cluster;
    use openmx_repro::omx::{EpAddr, EpIdx, NodeId};
    use openmx_repro::sim::Sim;
    use std::cell::RefCell;
    use std::rc::Rc;

    struct Sender {
        peer: EpAddr,
        payload: Vec<u8>,
    }
    impl App for Sender {
        fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
            ctx.isend(self.peer, 5, self.payload.clone(), None);
        }
        fn on_completion(&mut self, _ctx: &mut AppCtx<'_>, _c: Completion) {}
        fn is_done(&self) -> bool {
            true
        }
    }
    struct LateReceiver {
        len: u64,
        post_after: Ps,
        got: Rc<RefCell<Option<Vec<u8>>>>,
    }
    impl App for LateReceiver {
        fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
            ctx.compute(self.post_after);
            ctx.irecv(5, u64::MAX, self.len, None);
        }
        fn on_completion(&mut self, _ctx: &mut AppCtx<'_>, comp: Completion) {
            if let Completion::Recv { data, .. } = comp {
                *self.got.borrow_mut() = Some(data);
            }
        }
        fn is_done(&self) -> bool {
            self.got.borrow().is_some()
        }
    }

    // No zero bytes: a hole left unfilled cannot pass for data.
    let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8 + 1).collect();
    let got = Rc::new(RefCell::new(None));
    let mut cluster = Cluster::new(ClusterParams::with_cfg(cfg));
    let mut sim: Sim<Cluster> = Sim::new();
    let peer = EpAddr {
        node: NodeId(1),
        ep: EpIdx(0),
    };
    cluster.add_endpoint(
        NodeId(0),
        CoreId(2),
        Box::new(Sender {
            peer,
            payload: payload.clone(),
        }),
    );
    cluster.add_endpoint(
        NodeId(1),
        CoreId(2),
        Box::new(LateReceiver {
            len: len as u64,
            post_after,
            got: got.clone(),
        }),
    );
    cluster.start(&mut sim);
    sim.run(&mut cluster);
    let data = got.borrow_mut().take().expect("the message was delivered");
    (0..len).find(|&i| data.get(i) != Some(&payload[i]))
}

#[test]
fn late_receive_adopts_out_of_order_medium_fragments_intact() {
    // A receive posted while a medium message is still arriving adopts
    // its partly filled buffer. Fragments can land out of order (wire
    // reordering, or a lost fragment retransmitted after later ones),
    // so the holes can sit anywhere, not only at the end: adoption
    // must carry over the whole buffered image, not its first
    // `arrived` bytes. Each plan below delivered zeros at some post
    // delay when it did.
    let reorder = FaultPlan {
        default_link: openmx_repro::ethernet::fault::LinkFaultParams {
            reorder_prob: 0.5,
            reorder_depth: 4,
            ..Default::default()
        },
        ..FaultPlan::default()
    };
    for (name, plan, seed) in [
        ("flaky-10g", FaultPlan::flaky_10g(), 39),
        ("reorder 0.5", reorder, 0),
    ] {
        for us in 0..60 {
            let cfg = OmxConfig {
                fault_plan: plan.clone(),
                seed,
                ..OmxConfig::default()
            };
            let bad = late_receive_first_bad_byte(cfg, 28 << 10, Ps::us(us));
            assert_eq!(
                bad, None,
                "{name}, seed {seed}, receive posted at {us} µs: first bad byte"
            );
        }
    }
}
