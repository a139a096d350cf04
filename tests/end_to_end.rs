//! Cross-crate integration: full-stack transfers with payload
//! verification across every message class, configuration and path.

use openmx_repro::hw::CoreId;
use openmx_repro::omx::cluster::ClusterParams;
use openmx_repro::omx::config::{OmxConfig, StackKind, SyncWaitPolicy};
use openmx_repro::omx::fault::FaultPlan;
use openmx_repro::omx::harness::{run_pingpong, PingPongConfig, Placement};

fn pingpong(size: u64, cfg: OmxConfig, placement: Placement) -> f64 {
    let params = ClusterParams::with_cfg(cfg);
    let mut c = PingPongConfig::new(params, size, placement);
    c.iters = 6;
    c.warmup = 2;
    let r = run_pingpong(c);
    assert!(r.verified, "payload corrupted at {size} B");
    r.throughput_mibs
}

fn net() -> Placement {
    Placement::TwoNodes {
        core_a: CoreId(2),
        core_b: CoreId(2),
    }
}

#[test]
fn every_message_class_delivers_verified_payloads() {
    // Tiny, small, medium (single and multi fragment), large across
    // the rendezvous threshold, multi-block pulls.
    for size in [
        1u64,
        32,
        33,
        128,
        129,
        4096,
        4097,
        32 << 10,
        (32 << 10) + 1,
        256 << 10,
    ] {
        pingpong(size, OmxConfig::default(), net());
    }
}

#[test]
fn every_class_with_ioat_enabled() {
    for size in [16u64, 4096, 32 << 10, 64 << 10, 1 << 20] {
        pingpong(size, OmxConfig::with_ioat(), net());
    }
}

#[test]
fn counterfactual_and_regcache_toggles_stay_correct() {
    let nocopy = OmxConfig {
        ignore_bh_copy: true,
        ..OmxConfig::default()
    };
    pingpong(1 << 20, nocopy, net());
    let mut nrc = OmxConfig::with_ioat();
    nrc.regcache = false;
    pingpong(1 << 20, nrc, net());
}

#[test]
fn extension_paths_stay_correct() {
    // Kernel matching (single event per medium message).
    let kmatch = OmxConfig {
        kernel_matching: true,
        ..OmxConfig::with_ioat()
    };
    for size in [4096u64, 16 << 10, 32 << 10] {
        pingpong(size, kmatch.clone(), net());
    }
    // Synchronous medium offload.
    let msync = OmxConfig {
        ioat_medium_sync: true,
        ..OmxConfig::with_ioat()
    };
    pingpong(16 << 10, msync, net());
    // Warm-copy head.
    let warm = OmxConfig {
        warm_copy_head_bytes: 32 << 10,
        ..OmxConfig::with_ioat()
    };
    pingpong(1 << 20, warm, net());
    // Multi-channel split + sleep-predicted sync waits (shm).
    let multi = OmxConfig {
        ioat_multichannel_split: true,
        sync_wait: SyncWaitPolicy::SleepPredicted,
        ioat_shm_threshold: 64 << 10,
        ..OmxConfig::with_ioat()
    };
    pingpong(
        2 << 20,
        multi,
        Placement::SameNode {
            core_a: CoreId(0),
            core_b: CoreId(4),
        },
    );
}

/// Medium runs, one fragment and several, are pinned by (events, end
/// time, acks, duplicates dropped). A medium message that fits in one
/// fragment is complete on arrival: the driver acks it without a
/// reassembly bitmap and a matching receive takes it straight from the
/// ring slot (under kernel matching, the driver writes it); the
/// one-fragment cells were recorded while every medium message was
/// reassembled through bitmaps. The 16 and 32 KiB
/// network cells reassemble four and eight fragments, in the library
/// or, under kernel matching, in the driver, and the same-node cell
/// reassembles four from shared memory; they were recorded while the
/// library kept a fragment bitmap of its own next to the driver's.
/// `dup-storm` cells duplicate frames, so the driver's duplicate check
/// is part of what they pin.
#[test]
fn medium_runs_are_unchanged() {
    fn pin(cfg: OmxConfig, size: u64, placement: Placement) -> (u64, u64, u64, u64) {
        let mut c = PingPongConfig::new(ClusterParams::with_cfg(cfg), size, placement);
        c.iters = 40;
        let r = run_pingpong(c);
        assert!(r.verified, "payload corrupted at {size} B");
        let s = &r.run.stats;
        let end = r.run.end.as_ps();
        (r.run.events, end, s.acks_sent, s.duplicates_dropped)
    }
    let plain = OmxConfig::default();
    let kmatch = OmxConfig {
        kernel_matching: true,
        ..OmxConfig::with_ioat()
    };
    let dup = |cfg: &OmxConfig| OmxConfig {
        fault_plan: FaultPlan::dup_storm(),
        ..cfg.clone()
    };
    let cases = [
        (plain.clone(), 2000, (1210, 903_145_952, 86, 0)),
        (kmatch.clone(), 2000, (1210, 820_543_958, 86, 0)),
        (dup(&plain), 3000, (1222, 1_080_816_248, 88, 2)),
        (dup(&kmatch), 3000, (1218, 914_855_514, 88, 2)),
        (plain.clone(), 16 << 10, (2506, 2_506_806_664, 86, 0)),
        (kmatch.clone(), 16 << 10, (1988, 1_881_107_224, 86, 0)),
        (dup(&plain), 16 << 10, (2532, 2_514_456_767, 88, 6)),
        (dup(&kmatch), 16 << 10, (2012, 1_894_620_340, 88, 6)),
        (plain.clone(), 32 << 10, (4149, 4_190_991_280, 86, 0)),
        (kmatch.clone(), 32 << 10, (3026, 3_031_622_104, 86, 0)),
        (dup(&plain), 32 << 10, (4183, 4_210_024_682, 88, 12)),
        (dup(&kmatch), 32 << 10, (3070, 3_065_202_340, 88, 12)),
    ];
    for (i, (cfg, size, want)) in cases.into_iter().enumerate() {
        assert_eq!(pin(cfg, size, net()), want, "cell {i} ({size} B)");
    }
    let same_node = Placement::SameNode {
        core_a: CoreId(0),
        core_b: CoreId(1),
    };
    let want = (1034, 974_578_696, 0, 0);
    assert_eq!(pin(plain, 16 << 10, same_node), want, "same node");
}

#[test]
fn shm_placements_deliver() {
    for size in [16u64, 4096, 32 << 10, 1 << 20, 4 << 20] {
        pingpong(
            size,
            OmxConfig::default(),
            Placement::SameNode {
                core_a: CoreId(0),
                core_b: CoreId(1),
            },
        );
        pingpong(
            size,
            OmxConfig::with_ioat(),
            Placement::SameNode {
                core_a: CoreId(0),
                core_b: CoreId(4),
            },
        );
    }
}

#[test]
fn mxoe_baseline_delivers_and_outruns_openmx_when_it_should() {
    let mx = OmxConfig {
        stack: StackKind::Mxoe,
        ..OmxConfig::default()
    };
    for size in [16u64, 4096, 32 << 10, 1 << 20] {
        let mx_rate = pingpong(size, mx.clone(), net());
        let omx_rate = pingpong(size, OmxConfig::default(), net());
        assert!(
            mx_rate > omx_rate,
            "zero-copy MX must beat plain Open-MX at {size} B: {mx_rate} vs {omx_rate}"
        );
    }
}

#[test]
fn ioat_crossover_sits_at_the_threshold() {
    // Below the 64 kB offload threshold the two configs are identical.
    let below_base = pingpong(32 << 10, OmxConfig::default(), net());
    let below_ioat = pingpong(32 << 10, OmxConfig::with_ioat(), net());
    assert!((below_base - below_ioat).abs() < 1.0);
    // Above it, I/OAT clearly wins.
    let above_base = pingpong(256 << 10, OmxConfig::default(), net());
    let above_ioat = pingpong(256 << 10, OmxConfig::with_ioat(), net());
    assert!(above_ioat > above_base * 1.2);
}

#[test]
fn unexpected_messages_are_buffered_and_adopted() {
    // The ponger posts its receive *late*: messages arrive unexpected
    // and must be matched by the subsequent irecv.
    use openmx_repro::omx::app::{App, AppCtx, Completion};
    use openmx_repro::omx::cluster::Cluster;
    use openmx_repro::omx::{EpAddr, EpIdx, NodeId};
    use openmx_repro::sim::{Ps, Sim};
    use std::cell::RefCell;
    use std::rc::Rc;

    struct LateReceiver {
        got: Rc<RefCell<Vec<Vec<u8>>>>,
    }
    impl App for LateReceiver {
        fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
            // Post the receives 300 us after the sends happened.
            ctx.compute(Ps::us(300));
            ctx.irecv(7, u64::MAX, 64 << 10, None);
            ctx.irecv(8, u64::MAX, 100, None);
            ctx.irecv(9, u64::MAX, 8 << 10, None);
        }
        fn on_completion(&mut self, _ctx: &mut AppCtx<'_>, comp: Completion) {
            if let Completion::Recv { data, .. } = comp {
                self.got.borrow_mut().push(data);
            }
        }
        fn is_done(&self) -> bool {
            self.got.borrow().len() == 3
        }
    }
    struct EarlySender {
        peer: EpAddr,
    }
    impl App for EarlySender {
        fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
            ctx.isend(self.peer, 7, vec![7u8; 64 << 10], None); // large rndv
            ctx.isend(self.peer, 8, vec![8u8; 100], None); // small
            ctx.isend(self.peer, 9, vec![9u8; 8 << 10], None); // medium
        }
        fn on_completion(&mut self, _ctx: &mut AppCtx<'_>, _c: Completion) {}
        fn is_done(&self) -> bool {
            true
        }
    }

    let got = Rc::new(RefCell::new(Vec::new()));
    let mut cluster = Cluster::new(ClusterParams::default());
    let mut sim: Sim<Cluster> = Sim::new();
    let peer = EpAddr {
        node: NodeId(1),
        ep: EpIdx(0),
    };
    cluster.add_endpoint(NodeId(0), CoreId(2), Box::new(EarlySender { peer }));
    cluster.add_endpoint(
        NodeId(1),
        CoreId(2),
        Box::new(LateReceiver { got: got.clone() }),
    );
    cluster.start(&mut sim);
    sim.run(&mut cluster);
    let got = got.borrow();
    assert_eq!(got.len(), 3, "all unexpected messages adopted");
    let mut lens: Vec<usize> = got.iter().map(|d| d.len()).collect();
    lens.sort_unstable();
    assert_eq!(lens, vec![100, 8 << 10, 64 << 10]);
    for d in got.iter() {
        let tag = match d.len() {
            100 => 8u8,
            8192 => 9,
            _ => 7,
        };
        assert!(d.iter().all(|&b| b == tag), "adopted payload intact");
    }
}

#[test]
fn recycled_receive_buffers_never_expose_stale_bytes() {
    // One receive buffer, dirty from the start and then full of each
    // previous message, is re-donated through `irecv_into` for ever
    // shorter messages of every class and for one message longer than
    // its posting. Each delivery must be exactly the (truncated)
    // payload: none of the buffer's earlier bytes may show. Run once
    // with every receive posted before its message is sent, and once
    // with every message sent up front, so most arrive unexpected and
    // are adopted.
    use openmx_repro::omx::app::{App, AppCtx, Completion};
    use openmx_repro::omx::cluster::Cluster;
    use openmx_repro::omx::{EpAddr, EpIdx, NodeId};
    use openmx_repro::sim::Sim;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// (message length, posted length).
    const MSGS: [(usize, u64); 7] = [
        (128 << 10, 128 << 10),
        (100 << 10, 128 << 10),
        (20 << 10, 128 << 10),
        (3000, 128 << 10),
        (100, 128 << 10),
        (7, 128 << 10),
        (12 << 10, 8 << 10),
    ];
    /// Match info of the receiver's "post the next message" signal.
    const NEXT: u64 = 1 << 32;

    fn payload(i: usize) -> Vec<u8> {
        (0..MSGS[i].0)
            .map(|b| ((b % 251) as u8).wrapping_add(i as u8 + 1))
            .collect()
    }

    struct Sender {
        peer: EpAddr,
        upfront: bool,
        sent: usize,
    }
    impl App for Sender {
        fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
            if self.upfront {
                for i in 0..MSGS.len() {
                    ctx.isend(self.peer, i as u64, payload(i), None);
                }
            } else {
                ctx.irecv(NEXT, u64::MAX, 1, None);
            }
        }
        fn on_completion(&mut self, ctx: &mut AppCtx<'_>, comp: Completion) {
            if let Completion::Recv { .. } = comp {
                ctx.isend(self.peer, self.sent as u64, payload(self.sent), None);
                self.sent += 1;
                if self.sent < MSGS.len() {
                    ctx.irecv(NEXT, u64::MAX, 1, None);
                }
            }
        }
        fn is_done(&self) -> bool {
            true
        }
    }
    struct Receiver {
        peer: EpAddr,
        upfront: bool,
        got: Rc<RefCell<Vec<Vec<u8>>>>,
    }
    impl Receiver {
        fn post(&mut self, ctx: &mut AppCtx<'_>, buf: Vec<u8>) {
            let i = self.got.borrow().len();
            ctx.irecv_into(i as u64, u64::MAX, MSGS[i].1, buf, None);
            if !self.upfront {
                ctx.isend(self.peer, NEXT, vec![1], None);
            }
        }
    }
    impl App for Receiver {
        fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
            self.post(ctx, vec![0xEE; MSGS[0].1 as usize]);
        }
        fn on_completion(&mut self, ctx: &mut AppCtx<'_>, comp: Completion) {
            if let Completion::Recv { data, .. } = comp {
                self.got.borrow_mut().push(data.clone());
                if self.got.borrow().len() < MSGS.len() {
                    self.post(ctx, data);
                }
            }
        }
        fn is_done(&self) -> bool {
            self.got.borrow().len() == MSGS.len()
        }
    }

    for upfront in [false, true] {
        let got = Rc::new(RefCell::new(Vec::new()));
        let mut cluster = Cluster::new(ClusterParams::default());
        let mut sim: Sim<Cluster> = Sim::new();
        let ep = |n| EpAddr {
            node: NodeId(n),
            ep: EpIdx(0),
        };
        let sender = Sender {
            peer: ep(1),
            upfront,
            sent: 0,
        };
        let receiver = Receiver {
            peer: ep(0),
            upfront,
            got: got.clone(),
        };
        cluster.add_endpoint(NodeId(0), CoreId(2), Box::new(sender));
        cluster.add_endpoint(NodeId(1), CoreId(2), Box::new(receiver));
        cluster.start(&mut sim);
        sim.run(&mut cluster);
        let got = got.borrow();
        assert_eq!(
            got.len(),
            MSGS.len(),
            "upfront {upfront}: every message delivered"
        );
        for (i, data) in got.iter().enumerate() {
            let mut want = payload(i);
            want.truncate(MSGS[i].1 as usize);
            assert!(
                *data == want,
                "upfront {upfront}: message {i} is not its payload"
            );
        }
    }
}
