//! Scale ablation — one partitioned simulation across the rank axis.
//!
//! The partitioned engine's reason to exist: a single IMB Alltoall at
//! hundreds-to-thousands of ranks (one rank per node, so the cluster
//! axis is the paper's scale frontier), run with 1, 2 and 4 node
//! partitions. For every `(ranks, partitions)` point the panel prints
//! deterministic figures only — total engine events, simulated time,
//! and the peak-memory proxy (peak pending events and ranks resident
//! on the busiest shard) — plus an `identity` column asserting that
//! the partitioned run's full fingerprint (Stats + breakdown + marks +
//! end time + event total) is byte-identical to the single-engine run.
//!
//! Wall-clock events/sec is deliberately **not** part of the rendered
//! text (golden files must be byte-reproducible on any host). It is
//! still measured, reported on stderr, and — on the full grid, when
//! the host has at least 4 cores — the 4-partition cell of the
//! largest rank count must clear a 2× events/sec speedup over the
//! single-engine run, enforced with an assert.

use crate::{banner, cell, CellOut, Grid, Outs, Plan, Rendered, Scale};
use omx_mpi::runner::{run_kernel, KernelResult, Layout};
use omx_mpi::Kernel;
use omx_sim::walltime::{host_cores, Stopwatch};
use open_mx::cluster::ClusterParams;

const PARTS: [usize; 3] = [1, 2, 4];
const SIZE: u64 = 256;
const ITERS: u32 = 2;

fn alltoall(ranks: usize, parts: usize, workers: usize) -> KernelResult {
    let params = ClusterParams {
        partitions: parts,
        partition_workers: workers,
        ..ClusterParams::default()
    };
    let r = run_kernel(Kernel::Alltoall, Layout::Nodes(ranks), SIZE, ITERS, params);
    assert!(
        r.verified,
        "alltoall failed at {ranks} ranks / {parts} partitions"
    );
    assert_eq!(r.run.skbuffs_held, 0, "skbuff leak at {ranks}/{parts}");
    r
}

/// The byte-identity fingerprint of one run: everything observable.
fn fingerprint(r: &KernelResult) -> String {
    format!(
        "{}\n{}\n{:?}\n{}\n{}",
        serde_json::to_string(&r.run.stats).expect("stats serialize"),
        serde_json::to_string(&r.breakdown).expect("breakdown serialize"),
        r.marks,
        r.run.end,
        r.run.events,
    )
}

/// One rank count: run every partitioning, check identity against the
/// single-engine run, and render the deterministic rows. On the full
/// grid the largest rank count also carries the wall-clock speedup
/// gate (reported on stderr; asserted only when the host has the
/// cores to make 2× physically possible).
fn ranks_cell(ranks: usize, gate_speedup: bool) -> String {
    let mut rows = String::new();
    let mut base_fp = String::new();
    let mut base_secs = 0.0;
    for parts in PARTS {
        // `partition_workers == partitions` fans each run as wide as
        // its partitioning allows; identity across worker counts is
        // pinned separately by tests/determinism.rs.
        let sw = Stopwatch::start();
        let r = alltoall(ranks, parts, parts);
        let secs = sw.elapsed_secs();
        let fp = fingerprint(&r);
        let identical = if parts == 1 {
            base_fp = fp;
            base_secs = secs;
            true
        } else {
            fp == base_fp
        };
        assert!(
            identical,
            "{ranks} ranks: partitions={parts} diverged from the single engine"
        );
        let peak_pending = r
            .run
            .shards
            .iter()
            .map(|s| s.peak_pending)
            .max()
            .unwrap_or(0);
        let peak_ranks = r.run.shards.iter().map(|s| s.endpoints).max().unwrap_or(0);
        let sim_ms = r.run.end.as_ps() as f64 / 1e9;
        rows += &format!(
            "{:>8} {:>6} {:>12} {:>10.3} {:>15} {:>12} {:>9}\n",
            ranks, parts, r.run.events, sim_ms, peak_pending, peak_ranks, "ok"
        );
        let eps = r.run.events as f64 / secs.max(1e-9);
        eprintln!(
            "scale_ablation: {ranks} ranks x {parts} partitions: \
             {:.0} events/s ({:.2}x vs single engine, host-dependent)",
            eps,
            base_secs / secs.max(1e-9)
        );
        if parts == 4 && gate_speedup {
            let cores = host_cores();
            let speedup = base_secs / secs.max(1e-9);
            if cores >= 4 {
                assert!(
                    speedup >= 2.0,
                    "{ranks}-rank alltoall at 4 partitions must run >=2x the \
                     single-engine events/sec on a {cores}-core host: {speedup:.2}x"
                );
            } else {
                eprintln!(
                    "scale_ablation: speedup gate skipped \
                     ({cores} host core(s) cannot express a 2x wall-clock win)"
                );
            }
        }
    }
    rows
}

/// Grid: ranks × partitions, one cell per rank count (the partitioning
/// sweep must run sequentially inside the cell — the identity check
/// and the speedup measurement both compare against the
/// single-engine run of the same cell).
pub fn plan(grid: &Grid) -> Plan {
    let ranks_axis = grid.axis(&[256usize, 1024], &[32, 64]);
    let gate = grid.scale == Scale::Full;
    let largest = *ranks_axis.last().expect("nonempty ranks axis");
    let mut cells = Vec::new();
    for ranks in ranks_axis.clone() {
        cells.push(cell(
            format!("scale_ablation/alltoall/{ranks}"),
            move || CellOut::Text(ranks_cell(ranks, gate && ranks == largest)),
        ));
    }
    let ranks_for_render = ranks_axis;
    let render = Box::new(move |mut o: Outs| {
        let mut t = banner(
            "Scale ablation",
            "one partitioned Alltoall across the rank axis (1 rank/node)",
        );
        t += &format!(
            "--- IMB Alltoall, {SIZE} B x {ITERS} iters, partitions fan across workers ---\n"
        );
        t += &format!(
            "{:>8} {:>6} {:>12} {:>10} {:>15} {:>12} {:>9}\n",
            "ranks", "parts", "events", "sim-ms", "peak-pend/shard", "ranks/shard", "identity"
        );
        for _ in ranks_for_render {
            t += &o.text();
        }
        t += "\nidentity == ok: the partitioned run's Stats + breakdown + marks +\n";
        t += "end-time fingerprint is byte-identical to the single-engine run.\n";
        t += "Wall-clock events/sec is host-dependent and reported on stderr only;\n";
        t += "the full grid gates a >=2x speedup at 4 partitions on hosts with\n";
        t += ">=4 cores.\n";
        o.finish();
        Rendered {
            text: t,
            series: Vec::new(),
        }
    });
    Plan { cells, render }
}
