//! Ablations of the design choices DESIGN.md calls out (grid port of
//! the former `ablations` binary): thresholds, sync-wait policy,
//! multi-channel split, warm-copy head, medium-path options, vectorial
//! receive buffers, DCA, fault injection and the CPU-relief recap.
//!
//! The fault-injection section expands over the grid's seed axis (the
//! committed record pins the single default root seed).

use super::{net_pingpong, shm_pingpong};
use crate::{banner, breakdown_line, cell, CellOut, Grid, Outs, Plan, Rendered};
use omx_hw::CoreId;
use omx_sim::stats::format_bytes;
use open_mx::autotune;
use open_mx::cluster::ClusterParams;
use open_mx::config::{OmxConfig, SyncWaitPolicy};
use open_mx::fault::FaultPlan;
use open_mx::harness::{
    run_cluster, run_pingpong, run_stream, PingPongConfig, Placement, StreamConfig,
};

fn net_rate(size: u64, cfg: OmxConfig) -> f64 {
    net_pingpong(size, cfg).throughput_mibs
}

fn shm_rate(size: u64, cfg: OmxConfig) -> f64 {
    shm_pingpong(size, CoreId(4), cfg).throughput_mibs
}

/// One vectorial-receive measurement: completion time and the number
/// of offloaded copies for `seg`-byte receive segments under
/// `frag_threshold`.
fn vectored_recv(seg: u64, frag_threshold: u64) -> (omx_sim::Ps, u64) {
    use omx_sim::Ps;
    use open_mx::app::{App, AppCtx, Completion};
    use open_mx::cluster::Cluster;
    use open_mx::{EpAddr, EpIdx, NodeId};
    use std::cell::Cell as StdCell;
    use std::rc::Rc;

    struct VecSender {
        peer: EpAddr,
    }
    impl App for VecSender {
        fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
            ctx.isend(self.peer, 1, vec![5u8; 1 << 20], Some(1));
        }
        fn on_completion(&mut self, _ctx: &mut AppCtx<'_>, _c: Completion) {}
        fn is_done(&self) -> bool {
            true
        }
    }
    struct VecReceiver {
        seg: u64,
        done_at: Rc<StdCell<Ps>>,
    }
    impl App for VecReceiver {
        fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
            ctx.irecv_vectored(1, u64::MAX, 1 << 20, self.seg, Some(2));
        }
        fn on_completion(&mut self, ctx: &mut AppCtx<'_>, c: Completion) {
            if matches!(c, Completion::Recv { .. }) {
                self.done_at.set(ctx.now());
            }
        }
        fn is_done(&self) -> bool {
            self.done_at.get() > Ps::ZERO
        }
    }

    let params = ClusterParams::with_cfg(OmxConfig {
        ioat_frag_threshold: frag_threshold,
        ..OmxConfig::with_ioat()
    });
    let peer = EpAddr {
        node: NodeId(1),
        ep: EpIdx(0),
    };
    let install = |cluster: &mut Cluster, _shard: usize| {
        let done_at = Rc::new(StdCell::new(Ps::ZERO));
        if cluster.owns(NodeId(0)) {
            cluster.add_endpoint(NodeId(0), CoreId(2), Box::new(VecSender { peer }));
        }
        if cluster.owns(peer.node) {
            let done_at = done_at.clone();
            cluster.add_endpoint(peer.node, CoreId(2), Box::new(VecReceiver { seg, done_at }));
        }
        done_at
    };
    let collect = |cluster: &Cluster, done_at: Rc<StdCell<Ps>>| {
        cluster
            .owns(peer.node)
            .then(|| (done_at.get(), cluster.ep(peer).counters.copies_offloaded))
    };
    let (_, shards) = run_cluster(params, install, collect);
    shards
        .into_iter()
        .flatten()
        .next()
        .expect("the receiver node ran")
}

const VEC_SEGS: [(&str, u64); 3] = [
    ("contiguous", u64::MAX),
    ("4kB segments", 4096),
    ("256B segments", 256),
];

/// Grid: every ablation section expanded into independent cells; the
/// fault section additionally expands over the seed axis.
pub fn plan(grid: &Grid) -> Plan {
    let tuned = autotune::calibrate(&grid.hw, &OmxConfig::default());
    let thr_sizes = grid.axis(&[64u64 << 10, 256 << 10, 1 << 20], &[64u64 << 10]);
    let shm_sizes = grid.axis(&[2u64 << 20, 8 << 20], &[2u64 << 20]);
    let heads = grid.axis(&[0u64, 16 << 10, 64 << 10], &[0u64, 16 << 10]);
    let seeds = grid.seeds.clone();

    let mut cells = Vec::new();

    // thresholds: fixed vs auto-tuned, per size
    for &size in &thr_sizes {
        cells.push(cell(
            format!("ablations/thresholds/fixed/{size}"),
            move || CellOut::Num(net_rate(size, OmxConfig::with_ioat())),
        ));
        cells.push(cell(
            format!("ablations/thresholds/auto/{size}"),
            move || {
                let mut cfg = OmxConfig::with_ioat();
                autotune::apply(&mut cfg, tuned);
                CellOut::Num(net_rate(size, cfg))
            },
        ));
    }

    // shm sync-wait policy, per size
    for &size in &shm_sizes {
        for wait in [SyncWaitPolicy::BusyPoll, SyncWaitPolicy::SleepPredicted] {
            cells.push(cell(
                format!("ablations/sync-wait/{wait:?}/{size}"),
                move || {
                    CellOut::Num(shm_rate(
                        size,
                        OmxConfig {
                            sync_wait: wait,
                            ioat_shm_threshold: 1 << 20,
                            ..OmxConfig::with_ioat()
                        },
                    ))
                },
            ));
        }
    }

    // multi-channel split, per size
    for &size in &shm_sizes {
        for split in [false, true] {
            cells.push(cell(format!("ablations/split/{split}/{size}"), move || {
                CellOut::Num(shm_rate(
                    size,
                    OmxConfig {
                        ioat_shm_threshold: 1 << 20,
                        ioat_multichannel_split: split,
                        ..OmxConfig::with_ioat()
                    },
                ))
            }));
        }
    }

    // warm-copy head, per head size
    for &head in &heads {
        cells.push(cell(format!("ablations/warm-head/{head}"), move || {
            CellOut::Num(net_rate(
                1 << 20,
                OmxConfig {
                    warm_copy_head_bytes: head,
                    ..OmxConfig::with_ioat()
                },
            ))
        }));
    }

    // medium-path options at 16 kB
    cells.push(cell("ablations/medium/base", || {
        CellOut::Num(net_rate(16 << 10, OmxConfig::default()))
    }));
    cells.push(cell("ablations/medium/sync-ioat", || {
        CellOut::Num(net_rate(
            16 << 10,
            OmxConfig {
                ioat_medium_sync: true,
                ..OmxConfig::with_ioat()
            },
        ))
    }));
    cells.push(cell("ablations/medium/kernel-matching", || {
        CellOut::Num(net_rate(
            16 << 10,
            OmxConfig {
                kernel_matching: true,
                ..OmxConfig::with_ioat()
            },
        ))
    }));

    // vectorial receive buffers: segment shape × fragment threshold
    for (label, seg) in VEC_SEGS {
        for frag in [1u64 << 10, 1] {
            cells.push(cell(
                format!("ablations/vectored/{label}/{frag}"),
                move || {
                    let (done, offloads) = vectored_recv(seg, frag);
                    CellOut::U64s(vec![done.0, offloads])
                },
            ));
        }
    }

    // DCA on/off at 4 MB
    for dca in [false, true] {
        cells.push(cell(format!("ablations/dca/{dca}"), move || {
            CellOut::Num(net_rate(
                4 << 20,
                OmxConfig {
                    dca_enabled: dca,
                    ..OmxConfig::default()
                },
            ))
        }));
    }

    // fault injection: one lossless baseline, then flaky-10g per seed
    let fault_pp = |plan: FaultPlan, seed: u64| {
        let cfg = OmxConfig {
            fault_plan: plan,
            regcache: false,
            seed,
            ..OmxConfig::with_ioat()
        };
        let mut pp = PingPongConfig::new(
            ClusterParams::with_cfg(cfg),
            1 << 20,
            Placement::TwoNodes {
                core_a: CoreId(2),
                core_b: CoreId(2),
            },
        );
        pp.iters = 12;
        let r = run_pingpong(pp);
        assert!(r.verified, "fault run failed verification");
        assert_eq!(r.run.skbuffs_held, 0, "leaked skbuffs under faults");
        assert_eq!(
            r.run.pinned_regions, 0,
            "leaked pinned regions under faults"
        );
        r
    };
    {
        let seed = seeds[0];
        cells.push(cell("ablations/fault/lossless", move || {
            CellOut::Num(fault_pp(FaultPlan::default(), seed).throughput_mibs)
        }));
    }
    for &seed in &seeds {
        cells.push(cell(
            format!("ablations/fault/flaky-10g/{seed}"),
            move || {
                let r = fault_pp(FaultPlan::flaky_10g(), seed);
                CellOut::NumText(
                    r.throughput_mibs,
                    breakdown_line("flaky-10g recovery counters", &r.run.stats),
                )
            },
        ));
    }

    // CPU-relief recap: 1 MB receive stream, memcpy vs I/OAT
    for (label, cfg_fn) in [
        ("memcpy", OmxConfig::default as fn() -> OmxConfig),
        ("I/OAT", OmxConfig::with_ioat),
    ] {
        cells.push(cell(format!("ablations/stream/{label}"), move || {
            let r = run_stream(StreamConfig::new(
                ClusterParams::with_cfg(cfg_fn()),
                1 << 20,
            ));
            let mut t = format!(
                "  {label:>6}: BH {:4.1} % driver {:4.1} % @ {:7.1} MiB/s (skbuffs held peak {})\n",
                r.bh_util * 100.0,
                r.driver_util * 100.0,
                r.throughput_mibs,
                r.max_skbuffs_held
            );
            t += &breakdown_line(&format!("{label} stream 1MB"), &r.breakdown);
            CellOut::Text(t)
        }));
    }

    let render = Box::new(move |mut o: Outs| {
        let mut t = banner("Ablations", "design-choice studies from §V/§VI");

        t += "--- thresholds: paper-fixed vs auto-tuned (§VI) ---\n";
        t += &format!("auto-tuned: {tuned:?}\n");
        for &size in &thr_sizes {
            let fixed = o.num();
            let auto = o.num();
            t += &format!(
                "  net {:>6}: fixed {:7.1} MiB/s | auto-tuned {:7.1} MiB/s\n",
                format_bytes(size as f64),
                fixed,
                auto
            );
        }

        t += "\n--- shm sync copy: busy-poll vs sleep-until-predicted (§VI) ---\n";
        for &size in &shm_sizes {
            let busy = o.num();
            let sleep = o.num();
            t += &format!(
                "  {:>5}: busy-poll {:7.1} MiB/s | sleep-predicted {:7.1} MiB/s\n",
                format_bytes(size as f64),
                busy,
                sleep
            );
        }

        t += "\n--- shm copy: one channel vs split across 4 channels (§V, [22]) ---\n";
        for &size in &shm_sizes {
            let single = o.num();
            let multi = o.num();
            t += &format!(
                "  {:>5}: single-channel {:7.1} MiB/s | 4-channel split {:7.1} MiB/s ({:+.0} %)\n",
                format_bytes(size as f64),
                single,
                multi,
                (multi / single - 1.0) * 100.0
            );
        }

        t += "\n--- warm-copy head: memcpy the first bytes, offload the rest (§V) ---\n";
        for &head in &heads {
            let rate = o.num();
            t += &format!(
                "  head {:>5}: 1MB ping-pong {rate:7.1} MiB/s\n",
                format_bytes(head as f64)
            );
        }

        t += "\n--- medium messages (16 kB): ring path vs sync-I/OAT vs kernel matching ---\n";
        let base = o.num();
        let sync = o.num();
        let kmatch = o.num();
        t += &format!("  library matching + memcpy ring:   {base:7.1} MiB/s (the paper's stack)\n");
        t += &format!(
            "  + synchronous I/OAT ring copies:  {sync:7.1} MiB/s (paper observed a degradation)\n"
        );
        t += &format!("  in-driver matching + async I/OAT: {kmatch:7.1} MiB/s (§VI future work)\n");

        t += "\n--- vectorial receive buffers (§IV-A: tiny chunks vs the threshold) ---\n";
        for (label, _) in VEC_SEGS {
            let a = o.u64s();
            let b = o.u64s();
            let (with_threshold, off_a) = (omx_sim::Ps(a[0]), a[1]);
            let (forced, off_b) = (omx_sim::Ps(b[0]), b[1]);
            t += &format!(
                "  {label:>14}: 1kB threshold {:>10} ({off_a:>4} offloads) | forced offload {:>10} ({off_b:>4} offloads)\n",
                format!("{with_threshold}"),
                format!("{forced}"),
            );
        }
        t += "  Tiny chunks make forced offload pay ~350 ns per 256 B descriptor;\n";
        t += "  the 1 kB fragment threshold falls back to memcpy and stays fast.\n";

        t += "\n--- Direct Cache Access (§II-C): warm-source BH copies, no offload ---\n";
        for label in ["DCA off", "DCA on "] {
            let rate = o.num();
            t += &format!("  {label}: 4MB ping-pong {rate:7.1} MiB/s\n");
        }
        t += "  DCA lifts the memcpy plateau but cannot reach the overlap of the\n";
        t += "  asynchronous offload — the two I/OAT features are complementary.\n";

        t += "\n--- fault injection: lossless wire vs the flaky-10g plan ---\n";
        let clean = o.num();
        t += &format!("  lossless:  1MB ping-pong {clean:7.1} MiB/s\n");
        for _ in &seeds {
            let (flaky, counters) = o.num_text();
            t += &format!(
                "  flaky-10g: 1MB ping-pong {flaky:7.1} MiB/s ({:.1}x slower, verified, no leaks)\n",
                clean / flaky
            );
            t += &counters;
        }
        t += "  Bursty loss, duplication, corruption and a stalled I/OAT channel\n";
        t += "  degrade throughput but never correctness: retransmit timeouts back\n";
        t += "  off adaptively and stuck copies are rescued onto the CPU.\n";

        t += "\n--- receive stream 1MB: CPU relief recap ---\n";
        t += &o.text();
        t += &o.text();
        o.finish();
        Rendered {
            text: t,
            series: Vec::new(),
        }
    });
    Plan { cells, render }
}
