//! RSS ablation — multi-queue receive scaling.
//!
//! The study behind the multi-queue RX path: the same medium-message
//! fan-in (eight senders into one host) and an IMB Alltoall are run
//! with 1, 2 and 4 RSS queues. One queue funnels every fragment
//! through the single IRQ-core bottom half; with four queues the RSS
//! hash lands the flows on four cores whose BHs drain concurrently,
//! and the aggregate drain rate must scale by at least 1.5×. A second
//! panel toggles GRO frame trains on the 4-queue configuration.

use crate::{banner, cell, CellOut, Grid, Outs, Plan, Rendered};
use omx_mpi::runner::{run_kernel, Layout};
use omx_mpi::Kernel;
use omx_sim::Ps;
use open_mx::cluster::ClusterParams;
use open_mx::harness::{run_fanin, FaninConfig, FaninResult};

const QUEUES: [usize; 3] = [1, 2, 4];
const FANIN_MSG: u64 = 16 << 10;

fn fanin_run(queues: usize, count: u32, gro: bool) -> FaninResult {
    let mut params = ClusterParams::default();
    params.nic.num_queues = queues;
    params.cfg.gro = gro;
    let mut cfg = FaninConfig::new(params, FANIN_MSG);
    cfg.count = count;
    let r = run_fanin(cfg);
    assert!(r.verified, "fan-in corruption at {queues} queues");
    assert_eq!(r.run.skbuffs_held, 0, "skbuff leak at {queues} queues");
    r
}

fn busy_total(r: &FaninResult) -> Ps {
    r.bh_busy_per_core.iter().fold(Ps::ZERO, |a, &b| a + b)
}

/// Throughput plus the row prefix (the render appends the speedup
/// column, which needs the single-queue baseline from another cell).
fn fanin_cell(queues: usize, count: u32) -> (f64, String) {
    let r = fanin_run(queues, count, false);
    let total = busy_total(&r);
    let active = r.bh_busy_per_core.iter().filter(|&&b| b > Ps::ZERO).count();
    let max_share = r
        .bh_busy_per_core
        .iter()
        .map(|b| b.as_ps())
        .max()
        .unwrap_or(0) as f64
        / total.as_ps().max(1) as f64;
    let row = format!(
        "{:>10} {:>12.1} {:>17} {:>15.2}",
        queues, r.throughput_mibs, active, max_share
    );
    (r.throughput_mibs, row)
}

fn gro_cell(gro: bool, count: u32) -> String {
    let r = fanin_run(4, count, gro);
    let bh_ms = busy_total(&r).as_ps() as f64 / 1e9;
    format!(
        "{:>10} {:>12.1} {:>17} {:>13.3}\n",
        if gro { "on" } else { "off" },
        r.throughput_mibs,
        r.gro_coalesced,
        bh_ms
    )
}

fn alltoall_cell(queues: usize, size: u64, iters: u32) -> (f64, String) {
    let mut params = ClusterParams::default();
    params.nic.num_queues = queues;
    let r = run_kernel(Kernel::Alltoall, Layout::TwoPerNode, size, iters, params);
    assert!(r.verified, "alltoall failed at {queues} queues");
    let usec = r.time_per_iter.as_ps() as f64 / 1e6;
    (usec, format!("{:>10} {:>12.1}", queues, usec))
}

/// Grid: queue count × {fan-in stream, alltoall}, plus the GRO panel.
pub fn plan(grid: &Grid) -> Plan {
    let fanin_count = grid.axis(&[256u32], &[8])[0];
    let (a2a_size, a2a_iters) = grid.axis(&[(256u64 << 10, 8u32)], &[(16 << 10, 2)])[0];
    let mut cells = Vec::new();
    for q in QUEUES {
        cells.push(cell(format!("rss_ablation/fanin/{q}"), move || {
            let (thr, row) = fanin_cell(q, fanin_count);
            CellOut::NumText(thr, row)
        }));
    }
    for gro in [false, true] {
        cells.push(cell(format!("rss_ablation/gro/{gro}"), move || {
            CellOut::Text(gro_cell(gro, fanin_count))
        }));
    }
    for q in QUEUES {
        cells.push(cell(format!("rss_ablation/alltoall/{q}"), move || {
            let (usec, row) = alltoall_cell(q, a2a_size, a2a_iters);
            CellOut::NumText(usec, row)
        }));
    }

    let render = Box::new(move |mut o: Outs| {
        let mut t = banner(
            "RSS ablation",
            "multi-queue receive: RSS steering, per-core BHs, GRO trains",
        );
        t += &format!(
            "--- medium fan-in stream: 8 senders x {} KiB messages -> 1 host ---\n",
            FANIN_MSG >> 10
        );
        t += &format!(
            "{:>10} {:>12} {:>17} {:>15} {:>10}\n",
            "queues", "MiB/s", "BH-active-cores", "max-core-share", "speedup"
        );
        let mut base = 0.0;
        for q in QUEUES {
            let (thr, row) = o.num_text();
            if q == 1 {
                base = thr;
            }
            let speedup = thr / base;
            if q == 4 {
                assert!(
                    speedup >= 1.5,
                    "4-queue fan-in must drain >=1.5x faster: {speedup:.2}"
                );
            }
            t += &format!("{row} {speedup:>10.2}\n");
        }
        t += "\n--- GRO frame trains (4 queues, same fan-in) ---\n";
        t += &format!(
            "{:>10} {:>12} {:>17} {:>13}\n",
            "gro", "MiB/s", "coalesced-frames", "bh+irq-ms"
        );
        t += &o.text();
        t += &o.text();
        t += "\n--- IMB Alltoall, 2 ppn (4 ranks / 2 nodes) ---\n";
        t += &format!("{:>10} {:>12} {:>10}\n", "queues", "usec/iter", "vs-1q");
        let mut a2a_base = 0.0;
        for q in QUEUES {
            let (usec, row) = o.num_text();
            if q == 1 {
                a2a_base = usec;
            }
            t += &format!("{row} {:>10.2}\n", a2a_base / usec);
        }
        t += "\nOne queue serializes every flow on the IRQ core; RSS spreads the\n";
        t += "fan-in across per-queue bottom halves and the drain rate scales.\n";
        o.finish();
        Rendered {
            text: t,
            series: Vec::new(),
        }
    });
    Plan { cells, render }
}
