//! Integration tests for the extension features and the per-endpoint
//! counters, plus consistency checks between the analytic MX model and
//! the event-driven MXoE stack.

use openmx_repro::hw::CoreId;
use openmx_repro::mx::curve::pingpong_throughput_mibs;
use openmx_repro::omx::app::{App, AppCtx, Completion};
use openmx_repro::omx::cluster::{Cluster, ClusterParams};
use openmx_repro::omx::config::{OmxConfig, StackKind, SyncWaitPolicy};
use openmx_repro::omx::harness::{run_pingpong, BusyTotals, PingPongConfig, Placement};
use openmx_repro::omx::{EpAddr, EpIdx, NodeId};
use openmx_repro::sim::{Ps, Sim};
use std::cell::Cell;
use std::rc::Rc;

fn net_rate(size: u64, cfg: OmxConfig) -> f64 {
    let params = ClusterParams::with_cfg(cfg);
    let r = run_pingpong(PingPongConfig::new(
        params,
        size,
        Placement::TwoNodes {
            core_a: CoreId(2),
            core_b: CoreId(2),
        },
    ));
    assert!(r.verified);
    r.throughput_mibs
}

#[test]
fn dca_lifts_the_memcpy_plateau_but_not_past_offload() {
    let plain = net_rate(4 << 20, OmxConfig::default());
    let dca = net_rate(
        4 << 20,
        OmxConfig {
            dca_enabled: true,
            ..OmxConfig::default()
        },
    );
    let ioat = net_rate(4 << 20, OmxConfig::with_ioat());
    assert!(
        dca > plain * 1.1,
        "DCA must help the copy: {dca} vs {plain}"
    );
    assert!(
        ioat > dca,
        "overlap still beats a warmer copy: {ioat} vs {dca}"
    );
}

struct OneShotSender {
    peer: EpAddr,
    size: u64,
}
impl App for OneShotSender {
    fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
        ctx.isend(self.peer, 1, vec![9u8; self.size as usize], Some(1));
    }
    fn on_completion(&mut self, _ctx: &mut AppCtx<'_>, _c: Completion) {}
    fn is_done(&self) -> bool {
        true
    }
}

struct VectoredReceiver {
    size: u64,
    seg: u64,
    done_at: Rc<Cell<Ps>>,
}
impl App for VectoredReceiver {
    fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
        ctx.irecv_vectored(1, u64::MAX, self.size, self.seg, Some(2));
    }
    fn on_completion(&mut self, ctx: &mut AppCtx<'_>, c: Completion) {
        if let Completion::Recv { data, .. } = c {
            assert!(data.iter().all(|&b| b == 9), "vectored payload intact");
            self.done_at.set(ctx.now());
        }
    }
    fn is_done(&self) -> bool {
        self.done_at.get() > Ps::ZERO
    }
}

fn vectored_run(seg: u64, frag_threshold: u64) -> (Ps, u64, u64) {
    let done_at = Rc::new(Cell::new(Ps::ZERO));
    let params = ClusterParams::with_cfg(OmxConfig {
        ioat_frag_threshold: frag_threshold,
        ..OmxConfig::with_ioat()
    });
    let mut cluster = Cluster::new(params);
    let mut sim: Sim<Cluster> = Sim::new();
    let peer = EpAddr {
        node: NodeId(1),
        ep: EpIdx(0),
    };
    cluster.add_endpoint(
        NodeId(0),
        CoreId(2),
        Box::new(OneShotSender {
            peer,
            size: 1 << 20,
        }),
    );
    cluster.add_endpoint(
        NodeId(1),
        CoreId(2),
        Box::new(VectoredReceiver {
            size: 1 << 20,
            seg,
            done_at: done_at.clone(),
        }),
    );
    cluster.start(&mut sim);
    sim.run(&mut cluster);
    let c = cluster.ep(peer).counters;
    assert!(done_at.get() > Ps::ZERO, "transfer completed");
    (done_at.get(), c.copies_offloaded, c.copies_memcpy)
}

#[test]
fn fragment_threshold_protects_vectorial_buffers() {
    // Contiguous: everything offloads.
    let (t_cont, off, _) = vectored_run(u64::MAX, 1 << 10);
    assert_eq!(off, 256, "256 fragments offloaded");
    // 256 B segments with the paper's 1 kB threshold: no offloads, and
    // the transfer is *faster* than forcing tiny-descriptor offloads.
    let (t_thresh, off_thresh, mem_thresh) = vectored_run(256, 1 << 10);
    assert_eq!(off_thresh, 0, "threshold rejects 256 B chunks");
    assert_eq!(mem_thresh, 256);
    let (t_forced, off_forced, _) = vectored_run(256, 1);
    assert_eq!(off_forced, 256);
    assert!(
        t_thresh < t_forced,
        "threshold must beat forced tiny offloads: {t_thresh} vs {t_forced}"
    );
    assert!(t_cont < t_thresh, "contiguous is fastest: {t_cont}");
}

#[test]
fn counters_track_message_classes_and_copy_paths() {
    struct MultiSender {
        peer: EpAddr,
        step: usize,
    }
    impl App for MultiSender {
        fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
            ctx.isend(self.peer, 10, vec![1u8; 16], Some(1)); // tiny
        }
        fn on_completion(&mut self, ctx: &mut AppCtx<'_>, c: Completion) {
            if !matches!(c, Completion::Send { .. }) {
                return;
            }
            self.step += 1;
            match self.step {
                1 => {
                    ctx.isend(self.peer, 11, vec![2u8; 100], Some(2)); // small
                }
                2 => {
                    ctx.isend(self.peer, 12, vec![3u8; 8 << 10], Some(3)); // medium
                }
                3 => {
                    ctx.isend(self.peer, 13, vec![4u8; 128 << 10], Some(4)); // large
                }
                _ => {}
            }
        }
        fn is_done(&self) -> bool {
            true
        }
    }
    struct MultiReceiver {
        got: Rc<Cell<u32>>,
    }
    impl App for MultiReceiver {
        fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
            ctx.irecv(10, u64::MAX, 16, None);
            ctx.irecv(11, u64::MAX, 100, None);
            ctx.irecv(12, u64::MAX, 8 << 10, None);
            ctx.irecv(13, u64::MAX, 128 << 10, None);
        }
        fn on_completion(&mut self, _ctx: &mut AppCtx<'_>, c: Completion) {
            if matches!(c, Completion::Recv { .. }) {
                self.got.set(self.got.get() + 1);
            }
        }
        fn is_done(&self) -> bool {
            self.got.get() == 4
        }
    }
    let got = Rc::new(Cell::new(0u32));
    let params = ClusterParams::with_cfg(OmxConfig::with_ioat());
    let mut cluster = Cluster::new(params);
    let mut sim: Sim<Cluster> = Sim::new();
    let peer = EpAddr {
        node: NodeId(1),
        ep: EpIdx(0),
    };
    let sender = EpAddr {
        node: NodeId(0),
        ep: EpIdx(0),
    };
    cluster.add_endpoint(
        NodeId(0),
        CoreId(2),
        Box::new(MultiSender { peer, step: 0 }),
    );
    cluster.add_endpoint(
        NodeId(1),
        CoreId(2),
        Box::new(MultiReceiver { got: got.clone() }),
    );
    cluster.start(&mut sim);
    sim.run(&mut cluster);
    assert_eq!(got.get(), 4);

    let tx = cluster.ep(sender).counters;
    assert_eq!(tx.tx_tiny, 1);
    assert_eq!(tx.tx_small, 1);
    assert_eq!(tx.tx_medium, 1);
    assert_eq!(tx.tx_large, 1);
    assert_eq!(tx.tx_medium_frags, 2, "8 kB = two 4 kB fragments");
    assert_eq!(tx.tx_bytes, 16 + 100 + (8 << 10) + (128 << 10));
    assert_eq!(tx.regcache_misses, 1, "one large send pinned once");

    let rx = cluster.ep(peer).counters;
    assert_eq!(rx.rx_tiny, 1);
    assert_eq!(rx.rx_small, 1);
    assert_eq!(rx.rx_medium_frags, 2);
    assert_eq!(rx.rx_rndv, 1);
    assert_eq!(rx.rx_large_frags, 32, "128 kB = 32 fragments");
    assert_eq!(rx.copies_offloaded, 32, "≥64 kB message offloads all frags");
    assert_eq!(rx.bytes_offloaded, 128 << 10);
    assert!(rx.copies_memcpy >= 3, "small + medium fragments memcpy'd");
    assert_eq!(rx.rx_bytes, 16 + 100 + (8 << 10) + (128 << 10));
    assert_eq!(rx.unexpected, 0, "receives were pre-posted");
    assert!(
        rx.events >= 6,
        "tiny + small + 2 medium frags + rndv + done"
    );
    // Tiny payloads ride inside the event (no BH copy), so the copy
    // accounting covers small + medium + large only.
    assert_eq!(rx.offload_fraction(), {
        let off = (128u64 << 10) as f64;
        off / (off + 100.0 + (8u64 << 10) as f64)
    });
}

#[test]
fn sleep_predicted_frees_driver_cpu() {
    // Compare the receiving driver's busy time for the same local
    // transfers under busy-poll vs sleep-predicted waits.
    fn driver_busy(wait: SyncWaitPolicy) -> Ps {
        let params = ClusterParams::with_cfg(OmxConfig {
            sync_wait: wait,
            ioat_shm_threshold: 64 << 10,
            ..OmxConfig::with_ioat()
        });
        let mut cfg = PingPongConfig::new(
            params.clone(),
            4 << 20,
            Placement::SameNode {
                core_a: CoreId(0),
                core_b: CoreId(4),
            },
        );
        cfg.iters = 6;
        cfg.warmup = 2;
        // The harness hides the cluster; rebuild the experiment
        // directly to read the meter.
        let r = run_pingpong(cfg);
        assert!(r.verified);
        // Use the throughput as a proxy sanity check, then measure the
        // driver category with a one-shot cluster below.
        let done = Rc::new(Cell::new(Ps::ZERO));
        let mut cluster = Cluster::new(params);
        let mut sim: Sim<Cluster> = Sim::new();
        let peer = EpAddr {
            node: NodeId(0),
            ep: EpIdx(1),
        };
        struct Recv1 {
            done: Rc<Cell<Ps>>,
        }
        impl App for Recv1 {
            fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
                ctx.irecv(1, u64::MAX, 4 << 20, Some(7));
            }
            fn on_completion(&mut self, ctx: &mut AppCtx<'_>, c: Completion) {
                if matches!(c, Completion::Recv { .. }) {
                    self.done.set(ctx.now());
                }
            }
            fn is_done(&self) -> bool {
                self.done.get() > Ps::ZERO
            }
        }
        cluster.add_endpoint(
            NodeId(0),
            CoreId(0),
            Box::new(OneShotSender {
                peer,
                size: 4 << 20,
            }),
        );
        cluster.add_endpoint(NodeId(0), CoreId(4), Box::new(Recv1 { done: done.clone() }));
        cluster.start(&mut sim);
        sim.run(&mut cluster);
        assert!(done.get() > Ps::ZERO);
        cluster
            .node(NodeId(0))
            .cpus
            .merged_meter()
            .total(openmx_repro::hw::cpu::category::DRIVER)
    }
    let busy = driver_busy(SyncWaitPolicy::BusyPoll);
    let slept = driver_busy(SyncWaitPolicy::SleepPredicted);
    assert!(
        slept < busy / 2,
        "prediction must free most of the copy wait: {slept} vs {busy}"
    );
}

#[test]
fn mx_event_driven_matches_analytic_curve() {
    // The event-driven MXoE endpoints and the closed-form curve are
    // two implementations of the same model; they must agree within a
    // few percent across the sweep (the event-driven one adds queueing
    // that the closed form approximates).
    use omx_mpi::runner::{run_kernel, Layout};
    use omx_mpi::Kernel;
    let mxp = openmx_repro::mx::MxParams::default();
    let link = openmx_repro::ethernet::LinkParams::default();
    for size in [4096u64, 64 << 10, 1 << 20, 4 << 20] {
        let analytic = pingpong_throughput_mibs(&mxp, &link, size);
        let params = ClusterParams::with_cfg(OmxConfig {
            stack: StackKind::Mxoe,
            ..OmxConfig::default()
        });
        let r = run_kernel(Kernel::PingPong, Layout::OnePerNode, size, 8, params);
        let measured = r.pingpong_mibs(size);
        let ratio = measured / analytic;
        assert!(
            (0.85..1.15).contains(&ratio),
            "{size} B: event-driven {measured:.1} vs analytic {analytic:.1} (ratio {ratio:.3})"
        );
    }
}

#[test]
fn warm_copy_head_is_memcpyd_offload_covers_rest() {
    let done = Rc::new(Cell::new(Ps::ZERO));
    let params = ClusterParams::with_cfg(OmxConfig {
        warm_copy_head_bytes: 64 << 10,
        ..OmxConfig::with_ioat()
    });
    let mut cluster = Cluster::new(params);
    let mut sim: Sim<Cluster> = Sim::new();
    let peer = EpAddr {
        node: NodeId(1),
        ep: EpIdx(0),
    };
    struct Recv1 {
        done: Rc<Cell<Ps>>,
    }
    impl App for Recv1 {
        fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
            ctx.irecv(1, u64::MAX, 1 << 20, None);
        }
        fn on_completion(&mut self, ctx: &mut AppCtx<'_>, c: Completion) {
            if let Completion::Recv { data, .. } = c {
                assert!(data.iter().all(|&b| b == 9));
                self.done.set(ctx.now());
            }
        }
        fn is_done(&self) -> bool {
            self.done.get() > Ps::ZERO
        }
    }
    cluster.add_endpoint(
        NodeId(0),
        CoreId(2),
        Box::new(OneShotSender {
            peer,
            size: 1 << 20,
        }),
    );
    cluster.add_endpoint(NodeId(1), CoreId(2), Box::new(Recv1 { done: done.clone() }));
    cluster.start(&mut sim);
    sim.run(&mut cluster);
    assert!(done.get() > Ps::ZERO);
    let c = cluster.ep(peer).counters;
    assert_eq!(c.copies_memcpy, 16, "64 kB head = 16 memcpy'd fragments");
    assert_eq!(c.copies_offloaded, 240, "remaining 960 kB offloaded");
}

/// An intranode copy split across every I/OAT channel is charged for
/// the descriptors it submits: each channel's share rounds up to whole
/// pages, so a 2 MiB + 100 B copy on 4 channels submits 516
/// descriptors, not the 513 of one unsplit copy.
#[test]
fn split_intranode_copy_is_charged_per_submitted_descriptor() {
    struct Receiver {
        size: u64,
        got: Rc<Cell<bool>>,
    }
    impl App for Receiver {
        fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
            ctx.irecv(1, u64::MAX, self.size, None);
        }
        fn on_completion(&mut self, _ctx: &mut AppCtx<'_>, c: Completion) {
            if let Completion::Recv { data, .. } = c {
                assert!(data.iter().all(|&b| b == 9), "payload intact");
                self.got.set(true);
            }
        }
        fn is_done(&self) -> bool {
            self.got.get()
        }
    }
    let size = (2 << 20) + 100;
    let got = Rc::new(Cell::new(false));
    let params = ClusterParams::with_cfg(OmxConfig {
        ioat_multichannel_split: true,
        ..OmxConfig::with_ioat()
    });
    let submit_cpu = params.hw.ioat_submit_cpu;
    let mut cluster = Cluster::new(params);
    let mut sim: Sim<Cluster> = Sim::new();
    let peer = EpAddr {
        node: NodeId(0),
        ep: EpIdx(1),
    };
    cluster.add_endpoint(NodeId(0), CoreId(0), Box::new(OneShotSender { peer, size }));
    cluster.add_endpoint(
        NodeId(0),
        CoreId(4),
        Box::new(Receiver {
            size,
            got: got.clone(),
        }),
    );
    cluster.start(&mut sim);
    sim.run(&mut cluster);
    assert!(got.get(), "the intranode receive completed");
    let ioat = &cluster.node(NodeId(0)).ioat;
    assert_eq!(ioat.num_channels(), 4);
    let submitted = ioat.descriptors_submitted();
    assert_eq!(submitted, 516, "4 shares of 512 KiB + 25 B");
    assert_eq!(BusyTotals::of(&cluster).submit_cpu, submit_cpu * submitted);
}
