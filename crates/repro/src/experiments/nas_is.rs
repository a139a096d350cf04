//! §IV-D NAS note — IS-like bucket-sort kernel with and without I/OAT
//! (grid port of the former `nas_is` binary).

use crate::{banner, breakdown_line, cell, CellOut, Grid, Outs, Plan, Rendered};
use omx_mpi::nas::is_scripts;
use omx_mpi::runner::{run_scripts, Layout};
use open_mx::cluster::ClusterParams;
use open_mx::config::OmxConfig;

fn run(total: u64, ioat: bool, layout: Layout) -> f64 {
    let params = ClusterParams::with_cfg(if ioat {
        OmxConfig::with_ioat()
    } else {
        OmxConfig::default()
    });
    let r = run_scripts(params, layout, is_scripts(layout.np(), total, 4));
    r.run.end.as_secs_f64()
}

/// Grid: layout × key count × {memcpy, I/OAT}, plus the breakdown
/// cell for the largest I/OAT run.
pub fn plan(grid: &Grid) -> Plan {
    let layouts = [(Layout::OnePerNode, 1u32), (Layout::TwoPerNode, 2)];
    let totals = grid.axis(&[8u64 << 20, 32 << 20], &[2u64 << 20]);
    let mut cells = Vec::new();
    for (layout, ppn) in layouts {
        for &total in &totals {
            for ioat in [false, true] {
                cells.push(cell(format!("nas_is/{ppn}ppn/{total}/{ioat}"), move || {
                    CellOut::Num(run(total, ioat, layout))
                }));
            }
        }
    }
    let bd_total = *totals.last().expect("non-empty totals");
    cells.push(cell("nas_is/breakdown", move || {
        let layout = Layout::OnePerNode;
        let r = run_scripts(
            ClusterParams::with_cfg(OmxConfig::with_ioat()),
            layout,
            is_scripts(layout.np(), bd_total, 4),
        );
        let label = format!("NAS-IS Open-MX+I/OAT {}M keys", bd_total >> 20);
        CellOut::Text(breakdown_line(&label, &r.breakdown))
    }));

    let n_totals = totals.clone();
    let render = Box::new(move |mut o: Outs| {
        let mut t = banner(
            "NAS IS (IV-D)",
            "IS-like bucket-sort kernel: total runtime with and without I/OAT",
        );
        t += &format!(
            "{:>10} {:>6} {:>14} {:>14} {:>10}\n",
            "keys", "ppn", "memcpy (ms)", "I/OAT (ms)", "speedup"
        );
        for (_, ppn) in layouts {
            for &total in &n_totals {
                let base = o.num();
                let ioat = o.num();
                t += &format!(
                    "{:>9}M {:>6} {:>14.2} {:>14.2} {:>9.1}%\n",
                    total >> 20,
                    ppn,
                    base * 1e3,
                    ioat * 1e3,
                    (base / ioat - 1.0) * 100.0
                );
            }
        }
        t += "\n";
        t += "Paper shape: up to ~10 % end-to-end gain on IS from I/OAT offload.\n";
        t += &o.text();
        o.finish();
        Rendered {
            text: t,
            series: Vec::new(),
        }
    });
    Plan { cells, render }
}
