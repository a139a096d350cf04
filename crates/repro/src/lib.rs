//! `omx-repro`: the deterministic parallel experiment runner.
//!
//! The committed experimental record (`results/*.txt`) is this
//! reproduction's whole claim to the paper's headline numbers. Each
//! results file used to be regenerated by hand with one serial
//! `fig*` binary at a time — which is exactly how golden drift crept
//! in. This crate turns the record into a single declarative object:
//!
//! * every experiment ([`Experiment`]) expands a **grid** of
//!   independent simulation **cells** — workload × message-size curve
//!   × seed × fault plan × hardware profile ([`Grid`]);
//! * each cell constructs its own isolated `Cluster`, runs it to
//!   quiescence on whichever pool thread picks it up, and returns a
//!   serialized [`CellOut`];
//! * cell results are merged **in grid order**, never in completion
//!   order, so the rendered output is byte-identical regardless of
//!   `--jobs` (proved by `tests/runner.rs`, which compares `--jobs 1`
//!   against `--jobs 8` for every experiment).
//!
//! `omx-repro --all` regenerates the entire record in one command;
//! `omx-repro --check` regenerates it in memory and byte-compares
//! against the committed files, which makes `results/` a golden
//! regression suite (the CI `repro-check` job runs the reduced grid).
//!
//! Cells are embarrassingly parallel because each one owns its whole
//! world: the simulation is single-threaded *within* a cell (the
//! omx-lint D1 rule still holds — the one sanctioned `std::thread`
//! site is the pool spawn in [`pool`], with a documented waiver), and
//! the `SimSanitizer` registry is thread-local, so concurrent cells
//! cannot observe each other.

pub mod experiments;
pub mod pool;

use omx_sim::stats::Series;

// ---------------------------------------------------------------------
// grid
// ---------------------------------------------------------------------

/// How much of each axis an expansion covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The full committed record (`results/*.txt`).
    Full,
    /// The CI gate: small message sizes, one seed, the same cell
    /// structure (`results/golden/reduced/*.txt`).
    Reduced,
}

/// The declarative axes every experiment expands against.
///
/// The full grid pins each axis to the values behind the committed
/// record; the reduced grid shrinks the expensive axes (message sizes,
/// per-panel size points) while keeping one cell per workload so the
/// CI gate still exercises every generator.
#[derive(Debug, Clone)]
pub struct Grid {
    /// Which scale of the record this expansion targets.
    pub scale: Scale,
    /// RNG seeds for the fault-plan cells (single-element for the
    /// committed record: the `OmxConfig` default root seed).
    pub seeds: Vec<u64>,
    /// Hardware profile shared by every cell.
    pub hw: omx_hw::HwParams,
}

impl Grid {
    /// The grid behind the committed `results/*.txt` record.
    pub fn full() -> Grid {
        Grid {
            scale: Scale::Full,
            seeds: vec![open_mx::config::OmxConfig::default().seed],
            hw: omx_hw::HwParams::default(),
        }
    }

    /// The reduced CI grid: small sizes, one seed.
    pub fn reduced() -> Grid {
        Grid {
            scale: Scale::Reduced,
            seeds: vec![open_mx::config::OmxConfig::default().seed],
            hw: omx_hw::HwParams::default(),
        }
    }

    /// The message-size sweep axis (16 B … `full_max` by powers of
    /// two), clipped to `reduced_max` on the reduced grid.
    pub fn sweep(&self, full_max: u64, reduced_max: u64) -> Vec<u64> {
        let max = match self.scale {
            Scale::Full => full_max,
            Scale::Reduced => reduced_max,
        };
        open_mx::harness::size_sweep(max)
    }

    /// Pick the full or the reduced variant of an axis.
    pub fn axis<T: Clone>(&self, full: &[T], reduced: &[T]) -> Vec<T> {
        match self.scale {
            Scale::Full => full.to_vec(),
            Scale::Reduced => reduced.to_vec(),
        }
    }
}

// ---------------------------------------------------------------------
// cells
// ---------------------------------------------------------------------

/// Serialized result of one finished cell.
///
/// Values cross the pool boundary as owned data moved through a
/// channel — numbers stay bit-exact because they are never formatted
/// and re-parsed; text fragments are rendered inside the cell with
/// the same format strings the serial binaries used.
#[derive(Debug, Clone, PartialEq)]
pub enum CellOut {
    /// One measured number (throughput, time-per-iteration, ...).
    Num(f64),
    /// Several numbers belonging to one grid point.
    Nums(Vec<f64>),
    /// Exact integers (event times in picoseconds, counters).
    U64s(Vec<u64>),
    /// A pre-rendered output fragment (rows, breakdown JSON lines).
    Text(String),
    /// A number that feeds a cross-cell computation plus a fragment.
    NumText(f64, String),
}

/// One independent unit of work: an isolated simulation (or model
/// evaluation) identified by its grid coordinates.
pub struct Cell {
    /// `experiment/curve/point` style coordinates, for logs and tests.
    pub label: String,
    /// Runs the cell to quiescence. Must be pure: no shared state, no
    /// wall clock, no ambient RNG — determinism across thread counts
    /// rests on it.
    pub run: Box<dyn FnOnce() -> CellOut + Send>,
}

/// Build a cell from its grid coordinates and body.
pub fn cell(label: impl Into<String>, run: impl FnOnce() -> CellOut + Send + 'static) -> Cell {
    Cell {
        label: label.into(),
        run: Box::new(run),
    }
}

/// Grid-order cursor over finished cell results, consumed by render
/// functions in exactly the order the cells were declared.
pub struct Outs {
    v: std::vec::IntoIter<CellOut>,
}

impl Outs {
    /// Wrap the merged results of a plan's cells.
    pub fn new(outs: Vec<CellOut>) -> Outs {
        Outs {
            v: outs.into_iter(),
        }
    }

    fn next(&mut self) -> CellOut {
        self.v
            .next()
            .expect("render consumed more cells than the plan declared")
    }

    /// Consume one `Num` cell.
    pub fn num(&mut self) -> f64 {
        match self.next() {
            CellOut::Num(x) => x,
            other => panic!("expected Num cell, got {other:?}"),
        }
    }

    /// Consume one `Nums` cell.
    pub fn nums(&mut self) -> Vec<f64> {
        match self.next() {
            CellOut::Nums(x) => x,
            other => panic!("expected Nums cell, got {other:?}"),
        }
    }

    /// Consume one `U64s` cell.
    pub fn u64s(&mut self) -> Vec<u64> {
        match self.next() {
            CellOut::U64s(x) => x,
            other => panic!("expected U64s cell, got {other:?}"),
        }
    }

    /// Consume one `Text` cell.
    pub fn text(&mut self) -> String {
        match self.next() {
            CellOut::Text(x) => x,
            other => panic!("expected Text cell, got {other:?}"),
        }
    }

    /// Consume one `NumText` cell.
    pub fn num_text(&mut self) -> (f64, String) {
        match self.next() {
            CellOut::NumText(n, t) => (n, t),
            other => panic!("expected NumText cell, got {other:?}"),
        }
    }

    /// Consume `xs.len()` consecutive `Num` cells into a named series
    /// (the parallel replacement for the old serial `sweep_series`).
    pub fn series(&mut self, name: &str, xs: &[u64]) -> Series {
        let mut s = Series::new(name);
        for &x in xs {
            s.push(x as f64, self.num());
        }
        s
    }

    /// Assert every cell was consumed (catches plan/render drift).
    pub fn finish(mut self) {
        assert!(
            self.v.next().is_none(),
            "plan declared more cells than render consumed"
        );
    }
}

// ---------------------------------------------------------------------
// experiments
// ---------------------------------------------------------------------

/// An experiment's expansion: its cells plus the render function that
/// merges their results (in declaration order) into the output file.
pub struct Plan {
    /// Cells in grid order.
    pub cells: Vec<Cell>,
    /// Merge step: consumes the results in grid order.
    pub render: Box<dyn FnOnce(Outs) -> Rendered + Send>,
}

/// A rendered experiment: the results-file text plus the figure series
/// (printed as JSON by `omx-repro --json`).
pub struct Rendered {
    /// Byte-exact contents of the results file.
    pub text: String,
    /// The figure's curves, when it has any.
    pub series: Vec<Series>,
}

/// One named experiment of the committed record.
pub struct Experiment {
    /// CLI name (`fig3`, `ablations`, ...).
    pub name: &'static str,
    /// Repo-relative golden file the full grid regenerates.
    pub file: &'static str,
    /// One-line description for `--list`.
    pub title: &'static str,
    /// Grid expansion.
    pub plan: fn(&Grid) -> Plan,
}

/// Every experiment, in the order of the committed record.
pub fn all() -> Vec<Experiment> {
    use experiments::*;
    vec![
        Experiment {
            name: "fig3",
            file: "results/fig3.txt",
            title: "ping-pong: MX vs Open-MX vs no-copy prediction",
            plan: fig3::plan,
        },
        Experiment {
            name: "fig7",
            file: "results/fig7.txt",
            title: "pipelined memcpy vs I/OAT copy throughput by chunk size",
            plan: fig7::plan,
        },
        Experiment {
            name: "fig8",
            file: "results/fig8.txt",
            title: "ping-pong with I/OAT asynchronous copy offload",
            plan: fig8::plan,
        },
        Experiment {
            name: "fig9",
            file: "results/fig9.txt",
            title: "receiver CPU usage per category for a large-message stream",
            plan: fig9::plan,
        },
        Experiment {
            name: "fig10",
            file: "results/fig10.txt",
            title: "one-copy shared-memory ping-pong vs I/OAT sync copy",
            plan: fig10::plan,
        },
        Experiment {
            name: "fig11",
            file: "results/fig11.txt",
            title: "IMB PingPong with I/OAT and regcache toggled",
            plan: fig11::plan,
        },
        Experiment {
            name: "fig12",
            file: "results/fig12.txt",
            title: "all IMB kernels normalized to MXoE",
            plan: fig12::plan,
        },
        Experiment {
            name: "microbench",
            file: "results/microbench.txt",
            title: "§IV-A calibration constants and break-even points",
            plan: microbench::plan,
        },
        Experiment {
            name: "nas_is",
            file: "results/nas_is.txt",
            title: "IS-like bucket-sort kernel with and without I/OAT",
            plan: nas_is::plan,
        },
        Experiment {
            name: "ablations",
            file: "results/ablations.txt",
            title: "design-choice studies from §V/§VI",
            plan: ablations::plan,
        },
        Experiment {
            name: "rss_ablation",
            file: "results/rss_ablation.txt",
            title: "multi-queue RX: RSS steering, per-core BHs, GRO trains",
            plan: rss_ablation::plan,
        },
        Experiment {
            name: "incast",
            file: "results/incast.txt",
            title: "receiver-driven credit budget vs pull-protocol incast",
            plan: incast::plan,
        },
        Experiment {
            name: "batch_doorbell",
            file: "results/batch_doorbell.txt",
            title: "medium sync offload vs memcpy as doorbell batching amortizes submission",
            plan: batch_doorbell::plan,
        },
        Experiment {
            name: "scale_ablation",
            file: "results/scale_ablation.txt",
            title: "partitioned engine: one Alltoall across the rank axis",
            plan: scale_ablation::plan,
        },
    ]
}

/// Look an experiment up by CLI name.
pub fn by_name(name: &str) -> Option<Experiment> {
    all().into_iter().find(|e| e.name == name)
}

/// Expand, fan out and merge one experiment on `jobs` pool threads
/// (`jobs == 0` means one thread per available core).
pub fn run_experiment(e: &Experiment, grid: &Grid, jobs: usize) -> Rendered {
    let Plan { cells, render } = (e.plan)(grid);
    let outs = pool::run_cells(cells, jobs);
    render(Outs::new(outs))
}

/// Golden file an experiment regenerates at the given scale.
pub fn golden_path(e: &Experiment, scale: Scale) -> String {
    match scale {
        Scale::Full => e.file.to_string(),
        Scale::Reduced => format!(
            "results/golden/reduced/{}",
            e.file.trim_start_matches("results/")
        ),
    }
}

// ---------------------------------------------------------------------
// render helpers (byte-compatible with the old serial binaries)
// ---------------------------------------------------------------------

/// The figure-header banner, exactly as the `fig*` binaries print it.
pub fn banner(fig: &str, caption: &str) -> String {
    format!(
        "==================================================================\n\
         {fig}: {caption}\n\
         ==================================================================\n"
    )
}

/// One labelled component-breakdown JSON line (with trailing newline),
/// exactly as the old `print_breakdown` emitted it.
pub fn breakdown_line<T: serde::Serialize>(label: &str, data: &T) -> String {
    format!(
        "{{\"component_breakdown\":{{\"label\":{:?},\"data\":{}}}}}\n",
        label,
        serde_json::to_string(data).expect("serialize")
    )
}
