//! Doorbell batching on the medium path — §IV-A revisited.
//!
//! The paper's synchronous medium-message offload *loses* because
//! every 4 kB fragment pays the full ~350 ns descriptor-submission
//! CPU cost, so the BH spends as long feeding the DMA engine as the
//! memcpy it replaced would have taken. The driver chains a submit
//! site's descriptors behind one doorbell, and every GRO-coalesced
//! train fragment after the head appends to the head's chain, paying
//! `HwParams::ioat_desc_chain_cpu` instead of a full submission. That
//! cost defaults to the full 350 ns (the paper's model); this
//! experiment lowers it and re-asks the paper's question: at which
//! chaining cost — if any — does synchronous offload of medium
//! fragments flip from loss to win, and from what message size?
//!
//! Five curves over the medium-class sizes: CPU memcpy (the default
//! medium path), synchronous offload at the default calibration (one
//! full submission per descriptor, the paper's losing configuration),
//! and synchronous offload at chaining costs of 350 ns, 100 ns and
//! 35 ns (progressively cheaper chain appends). A 350 ns chain append
//! is the default calibration itself, so that column is the
//! per-descriptor curve, simulated once and printed twice; `omx-hw`'s
//! `batched_cost_defaults_to_per_descriptor_cost` proves the identity.
//! The verdict block at the bottom is computed from the same numbers
//! the table shows.

use crate::{banner, cell, CellOut, Grid, Outs, Plan, Rendered};
use omx_hw::{CoreId, HwParams};
use omx_sim::stats::{format_bytes, Series};
use omx_sim::Ps;
use open_mx::cluster::ClusterParams;
use open_mx::config::OmxConfig;
use open_mx::harness::{run_pingpong, PingPongConfig, Placement};

/// The paper's medium-degradation workload: a GRO-coalescing network
/// ping-pong, so fragment trains reach the BH back to back and a
/// train's tail has a chain to append to.
fn medium_pingpong(size: u64, cfg: OmxConfig, chain: Option<Ps>) -> f64 {
    let mut params = ClusterParams::with_cfg(OmxConfig { gro: true, ..cfg });
    if let Some(c) = chain {
        params.hw = HwParams {
            ioat_desc_chain_cpu: c,
            ..params.hw
        };
    }
    let r = run_pingpong(PingPongConfig::new(
        params,
        size,
        Placement::TwoNodes {
            core_a: CoreId(2),
            core_b: CoreId(2),
        },
    ));
    assert!(r.verified, "payload corruption at {size} B");
    r.throughput_mibs
}

fn sync_cfg() -> OmxConfig {
    OmxConfig {
        ioat_medium_sync: true,
        ..OmxConfig::with_ioat()
    }
}

/// The verdict line for one offload curve against the memcpy
/// baseline: per-size margins (positive = offload wins), so the
/// conclusion below is backed by the same numbers the table shows.
fn verdict(name: &str, sizes: &[u64], offload: &Series, memcpy: &Series) -> String {
    let margins: Vec<String> = sizes
        .iter()
        .map(|&s| {
            let off = offload.y_at(s as f64).expect("size is on the curve");
            let cpu = memcpy.y_at(s as f64).expect("size is on the curve");
            format!(
                "{} {:+.1}%",
                format_bytes(s as f64),
                (off / cpu - 1.0) * 100.0
            )
        })
        .collect();
    format!("{name}: {}\n", margins.join(", "))
}

/// The honest flip analysis: did batching turn any per-descriptor
/// *loss* into a win, or was there no loss to flip at this
/// calibration?
fn flip_analysis(sizes: &[u64], memcpy: &Series, per_desc: &Series, best_batch: &Series) -> String {
    let at = |s: &Series, x: u64| s.y_at(x as f64).expect("size is on the curve");
    let losses: Vec<u64> = sizes
        .iter()
        .copied()
        .filter(|&s| at(per_desc, s) <= at(memcpy, s))
        .collect();
    if losses.is_empty() {
        return "No loss to flip: at this calibration the per-descriptor submission tax\n\
                already leaves sync offload at (or just above) memcpy parity — the\n\
                paper's measured degradation shows up here as break-even, not a loss\n\
                (see results/ablations.txt, medium section). Batching therefore does\n\
                not flip a verdict; it widens the margin by retiring the per-fragment\n\
                doorbell, and the win grows with message size as GRO trains lengthen.\n"
            .into();
    }
    let flipped: Vec<u64> = losses
        .iter()
        .copied()
        .filter(|&s| at(best_batch, s) > at(memcpy, s))
        .collect();
    if flipped.is_empty() {
        "Verdict not flipped: sizes that lose under per-descriptor submission\n\
         still lose with 35 ns chain appends.\n"
            .into()
    } else {
        format!(
            "Verdict flipped at {}: losses under per-descriptor submission that\n\
             35 ns chain appends turn into wins.\n",
            flipped
                .iter()
                .map(|&s| format_bytes(s as f64))
                .collect::<Vec<_>>()
                .join(", ")
        )
    }
}

/// Grid: {memcpy, per-descriptor sync, chained @100/@35 ns} × medium
/// sizes; the chained @350 ns column reuses the per-descriptor cells.
pub fn plan(grid: &Grid) -> Plan {
    let sizes = grid.axis(
        &[4u64 << 10, 8 << 10, 16 << 10, 32 << 10],
        &[4u64 << 10, 16 << 10],
    );
    type CurveCfg = (fn() -> OmxConfig, Option<Ps>);
    let curves: [(&str, CurveCfg); 4] = [
        ("memcpy", (OmxConfig::with_ioat, None)),
        ("sync_per_desc", (sync_cfg, None)),
        ("batch_100", (sync_cfg, Some(Ps::ns(100)))),
        ("batch_35", (sync_cfg, Some(Ps::ns(35)))),
    ];
    let mut cells = Vec::new();
    for (name, (cfg_fn, chain)) in curves {
        for &s in &sizes {
            cells.push(cell(format!("batch_doorbell/{name}/{s}"), move || {
                CellOut::Num(medium_pingpong(s, cfg_fn(), chain))
            }));
        }
    }
    let render = Box::new(move |mut o: Outs| {
        let memcpy = o.series("CPU memcpy (default)", &sizes);
        let per_desc = o.series("I/OAT sync, doorbell/desc", &sizes);
        let b350 = Series {
            name: "batched, chain 350ns".into(),
            ..per_desc.clone()
        };
        let b100 = o.series("batched, chain 100ns", &sizes);
        let b35 = o.series("batched, chain 35ns", &sizes);
        let all = vec![memcpy, per_desc, b350, b100, b35];
        let mut t = banner(
            "Batch doorbell",
            "Medium-message sync I/OAT offload vs memcpy as descriptor submission amortizes (MiB/s)",
        );
        t += &Series::table(&all, "size");
        t += "\n";
        t += "Margin of sync offload over the memcpy medium path (positive = offload wins):\n";
        t += &verdict(
            "  per-descriptor doorbells (paper)",
            &sizes,
            &all[1],
            &all[0],
        );
        t += &verdict(
            "  batched, chain 350ns (=submit)  ",
            &sizes,
            &all[2],
            &all[0],
        );
        t += &verdict(
            "  batched, chain 100ns            ",
            &sizes,
            &all[3],
            &all[0],
        );
        t += &verdict(
            "  batched, chain  35ns            ",
            &sizes,
            &all[4],
            &all[0],
        );
        t += "\n";
        t += &flip_analysis(&sizes, &all[0], &all[1], &all[4]);
        o.finish();
        Rendered {
            text: t,
            series: all,
        }
    });
    Plan { cells, render }
}
