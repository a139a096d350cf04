//! `omx-repro` — regenerate or check the committed experimental
//! record.
//!
//! ```text
//! omx-repro --all [--jobs N] [--reduced]        regenerate results/*.txt
//! omx-repro --check [--jobs N] [--reduced]      byte-compare against committed files
//! omx-repro --only fig3,fig8 --all|--check      restrict to named experiments
//! omx-repro --only fig7 --json [--reduced]      print the text, then the series as JSON
//! omx-repro --list                              list experiments and golden paths
//! ```
//!
//! Output is byte-identical for any `--jobs` value (including `0`,
//! one worker per core): cells merge in grid order, never completion
//! order.

use omx_repro::{all, golden_path, run_experiment, Grid, Scale};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Opts {
    check: bool,
    regen: bool,
    list: bool,
    json: bool,
    jobs: usize,
    reduced: bool,
    only: Option<Vec<String>>,
    results_dir: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: omx-repro (--all | --check | --list | --json) [--only a,b] [--jobs N] [--reduced] [--results-dir DIR]"
    );
    std::process::exit(2)
}

fn parse_opts() -> Opts {
    let mut o = Opts {
        check: false,
        regen: false,
        list: false,
        json: false,
        jobs: 0,
        reduced: false,
        only: None,
        results_dir: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--all" => o.regen = true,
            "--check" => o.check = true,
            "--list" => o.list = true,
            "--json" => o.json = true,
            "--reduced" => o.reduced = true,
            "--jobs" => {
                o.jobs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--only" => {
                o.only = Some(
                    args.next()
                        .unwrap_or_else(|| usage())
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty())
                        .collect(),
                )
            }
            "--results-dir" => {
                o.results_dir = Some(PathBuf::from(args.next().unwrap_or_else(|| usage())))
            }
            _ => usage(),
        }
    }
    let modes = [o.regen, o.check, o.list, o.json];
    if modes.into_iter().filter(|&m| m).count() != 1 {
        usage()
    }
    o
}

/// Repo root: golden paths are committed repo-relative, so resolve
/// them against the workspace rather than the invocation directory.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

/// First line number and pair of lines where two texts diverge.
fn first_diff(a: &str, b: &str) -> Option<(usize, String, String)> {
    let (mut la, mut lb) = (a.lines(), b.lines());
    for n in 1.. {
        match (la.next(), lb.next()) {
            (None, None) => return None,
            (x, y) if x == y => continue,
            (x, y) => {
                return Some((
                    n,
                    x.unwrap_or("<end of file>").to_string(),
                    y.unwrap_or("<end of file>").to_string(),
                ))
            }
        }
    }
    unreachable!()
}

fn main() -> ExitCode {
    let opts = parse_opts();
    let scale = if opts.reduced {
        Scale::Reduced
    } else {
        Scale::Full
    };
    let grid = match scale {
        Scale::Full => Grid::full(),
        Scale::Reduced => Grid::reduced(),
    };
    let root = opts.results_dir.clone().unwrap_or_else(repo_root);

    let experiments: Vec<_> = match &opts.only {
        None => all(),
        Some(names) => {
            for n in names {
                if omx_repro::by_name(n).is_none() {
                    eprintln!("unknown experiment: {n}");
                    return ExitCode::from(2);
                }
            }
            all()
                .into_iter()
                .filter(|e| names.iter().any(|n| n == e.name))
                .collect()
        }
    };

    if opts.list {
        for e in &experiments {
            println!("{:<12} {:<32} {}", e.name, golden_path(e, scale), e.title);
        }
        return ExitCode::SUCCESS;
    }

    let mut drift = false;
    for e in &experiments {
        let rendered = run_experiment(e, &grid, opts.jobs);
        let path = root.join(golden_path(e, scale));
        if opts.json {
            print!("{}", rendered.text);
            let series = serde_json::to_string_pretty(&rendered.series).expect("serialize");
            println!("{series}");
        } else if opts.check {
            match std::fs::read_to_string(&path) {
                Err(err) => {
                    println!("DRIFT {:<12} {} ({err})", e.name, path.display());
                    drift = true;
                }
                Ok(committed) if committed != rendered.text => {
                    let (n, want, got) = first_diff(&committed, &rendered.text)
                        .expect("unequal texts must diverge somewhere");
                    println!("DRIFT {:<12} {} (line {n})", e.name, path.display());
                    println!("  committed:   {want}");
                    println!("  regenerated: {got}");
                    drift = true;
                }
                Ok(_) => println!("OK    {:<12} {}", e.name, path.display()),
            }
        } else {
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir).expect("create results dir");
            }
            std::fs::write(&path, &rendered.text).expect("write results file");
            println!("WROTE {:<12} {}", e.name, path.display());
        }
    }
    if drift {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
