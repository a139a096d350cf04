//! §IV-A micro-benchmarks — calibration constants and break-even
//! points (grid port of the former `microbench` binary).
//!
//! Pure hardware-model arithmetic, so the expansion is the same at
//! both scales; the cells exist so the constants are re-derived from
//! the grid's hardware profile like every other experiment.

use crate::{banner, breakdown_line, cell, CellOut, Grid, Outs, Plan, Rendered};
use omx_hw::IoatEngine;
use open_mx::autotune;
use open_mx::config::OmxConfig;
use open_mx::harness::copybench::{
    copy_breakdown, copy_rate_mibs, cpu_breakeven_bytes, CopyEngine,
};

/// Grid: one constants cell plus one breakdown cell, both against the
/// grid's hardware profile.
pub fn plan(grid: &Grid) -> Plan {
    let hw = grid.hw.clone();
    let mut cells = Vec::new();
    {
        let hw = hw.clone();
        cells.push(cell("microbench/constants", move || {
            let mut t = String::new();
            t += &format!(
                "I/OAT descriptor submission (CPU):        {}   (paper: ~350 ns)\n",
                hw.ioat_submit_cpu
            );
            t += &format!(
                "I/OAT completion check (in-order word):   {}    (paper: negligible)\n",
                hw.ioat_poll_cost
            );
            t += &format!(
                "memcpy rate, uncached:                    {:7.2} GiB/s (paper: ~1.6 GiB/s)\n",
                hw.memcpy_rate_uncached.as_mib_per_sec() / 1024.0
            );
            t += &format!(
                "memcpy rate, cache-resident:              {:7.2} GiB/s (paper: up to 12 GiB/s)\n",
                hw.memcpy_rate_cached.as_mib_per_sec() / 1024.0
            );
            t += &format!(
                "I/OAT sustained, 4 kB descriptors:        {:7.2} GiB/s (paper: ~2.4 GiB/s)\n",
                copy_rate_mibs(&hw, CopyEngine::Ioat, 16 << 20, 4096) / 1024.0
            );
            t += &format!(
                "memcpy sustained, 4 kB chunks:            {:7.2} GiB/s (paper: ~1.5 GiB/s)\n",
                copy_rate_mibs(&hw, CopyEngine::Memcpy, 16 << 20, 4096) / 1024.0
            );
            t += &format!(
                "CPU break-even (memcpy vs one submit):    {:>6} B    (paper: ~600 B)\n",
                cpu_breakeven_bytes(&hw)
            );
            // Cached break-even: how much can the shared-cache memcpy
            // move in one submission time.
            let mut cached_be = 64u64;
            while hw.memcpy_rate_shared_cache_pair.time_for(cached_be) < hw.ioat_submit_cpu {
                cached_be += 64;
            }
            t += &format!(
                "cached break-even:                        {cached_be:>6} B    (paper: ~2 kB)\n"
            );
            t += &format!(
                "submit cost for a 1 MB copy (256 desc):   {}  of CPU time\n",
                IoatEngine::submit_cpu_cost(&hw, 256, true)
            );
            t += "\n";
            let tune = autotune::calibrate(&hw, &OmxConfig::default());
            t += "auto-tuned thresholds (extension, §VI):\n";
            t += &format!(
                "  fragment ≥ {} B (paper: 1 kB), network message ≥ {} kB (paper: 64 kB), shm ≥ {} kB (paper: 1 MB)\n",
                tune.frag_threshold,
                tune.net_msg_threshold >> 10,
                tune.shm_threshold >> 10
            );
            let one_page = hw.ioat_desc_overhead + hw.ioat_raw_rate.time_for(4096);
            t += &format!(
                "one 4 kB descriptor executes in {} (≥ the {} submission: submission pipelines)\n",
                one_page, hw.ioat_submit_cpu
            );
            CellOut::Text(t)
        }));
    }
    cells.push(cell("microbench/breakdown", move || {
        CellOut::Text(breakdown_line(
            "I/OAT copy 16MB/4kB chunks",
            &copy_breakdown(&hw, CopyEngine::Ioat, 16 << 20, 4096),
        ))
    }));

    let render = Box::new(move |mut o: Outs| {
        let mut t = banner(
            "§IV-A micro-benchmarks",
            "submission/completion costs, copy rates and break-even points",
        );
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
