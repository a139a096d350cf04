//! omx-benchmark: the seeded end-to-end and per-layer benchmark of the
//! simulator (see README.md in this directory).
//!
//! ```text
//! omx-benchmark [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--sets K]
//! ```
//!
//! Every metric is printed as one JSON line
//! `{"workload","metric","value","unit"}`; the last line of standard
//! output is `{"correct","attempted","failed","metrics"}`. `--trace 0`
//! measures the end-to-end metrics, `--trace 1` the per-layer ones, and
//! no `--trace` both. The exit code is non-zero when a correctness
//! check fails.

mod alloc;
mod probe;
mod trace;
mod workloads;

use omx_sim::{Ps, Sim};
use std::fmt::Write as _;
use trace::Name;
use workloads::{run_once, setup_ns, Plan, RunReport, Scale, Variant, Workload};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc::new();

/// The default seed; 4242 is held out to confirm a gain.
const DEFAULT_SEED: u64 = 17;
/// Measured runs per end-to-end measurement, at least.
const MIN_RUNS: usize = 3;
/// Rounds of the per-layer variants, at least.
const MIN_ROUNDS: usize = 2;
/// Set-ups timed for `setup_s` before the first run, and after each.
const SETUP_REPS: usize = 51;
const SETUP_BATCH: usize = 11;
const MIB: f64 = (1u64 << 20) as f64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Better {
    Lower,
    Higher,
}

/// One reported metric. `bound` is the share of the parent's median
/// by which an end-to-end metric may worsen (per-layer metrics have
/// none); `exact` marks a value that is deterministic for a seed and
/// must repeat bit for bit.
struct Def {
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: Option<f64>,
    exact: bool,
}

/// An end-to-end metric measured in host time.
const fn host(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

/// An end-to-end metric of the simulated run.
const fn sim(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        exact: true,
        ..host(name, unit, better, bound)
    }
}

/// A per-layer host timing.
const fn timing(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

/// A per-layer count read after the run.
const fn count(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        exact: true,
        ..timing(name, unit, better)
    }
}

use Better::{Higher, Lower};

const END_TO_END: &[Def] = &[
    host("msgs_per_s", "msg/s", Higher, 0.25),
    host("setup_s", "s", Lower, 0.25),
    host("peak_heap_mib", "MiB", Lower, 0.05),
    sim("sim_lat_p50_us", "sim_us", Lower, 0.06),
    sim("sim_lat_p99_us", "sim_us", Lower, 0.08),
    sim("sim_goodput_mibs", "sim_MiB/s", Higher, 0.05),
    sim("sim_rx_cpu_frac", "ratio", Lower, 0.05),
];

const PER_LAYER: &[Def] = &[
    count("engine.events_per_msg", "count", Lower),
    count("engine.peak_pending", "count", Lower),
    timing("engine.host_ns_per_event", "ns", Lower),
    timing("engine.sched_ns_per_event", "ns", Lower),
    timing("engine.sched_frac", "ratio", Lower),
    timing("metrics.host_frac", "ratio", Lower),
    timing("lib.post_ns_per_msg", "ns", Lower),
    timing("lib.post_frac", "ratio", Lower),
    timing("stack.ns_per_msg", "ns", Lower),
    count("nic.frames_per_msg", "count", Lower),
    count("nic.ring_drops_per_kmsg", "1/kmsg", Lower),
    count("proto.retx_per_kmsg", "1/kmsg", Lower),
    count("proto.useful_frame_frac", "ratio", Higher),
    count("credit.stalls_per_kmsg", "1/kmsg", Lower),
    count("credit.nacks_per_kmsg", "1/kmsg", Lower),
    count("driver.offload_byte_frac", "ratio", Higher),
    count("driver.fallback_copies", "count", Lower),
    count("regcache.hit_frac", "ratio", Higher),
    count("sim.wire_frac", "ratio", Lower),
    count("sim.bh_copy_frac", "ratio", Lower),
    count("sim.ioat_channel_frac", "ratio", Lower),
    count("sim.submit_cpu_frac", "ratio", Lower),
    count("sim.poll_wait_frac", "ratio", Lower),
    timing("partition.overhead_frac", "ratio", Lower),
    timing("partition.speedup", "ratio", Higher),
    count("partition.shard_imbalance", "ratio", Lower),
    count("alloc.per_msg", "count", Lower),
    count("alloc.bytes_per_msg", "B", Lower),
    timing("app.self_frac", "ratio", Lower),
    timing("trace.overhead_frac", "ratio", Lower),
];

/// The result of measuring one workload once.
#[derive(Default)]
struct Outcome {
    /// `(metric, value)` in table order.
    values: Vec<(&'static str, f64)>,
    /// Latency samples behind the `sim_lat_*` metrics.
    samples: usize,
    attempted: u64,
    failed: u64,
    /// Failed correctness checks, one line each.
    problems: Vec<String>,
}

impl Outcome {
    fn put(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Count a run and check it.
    fn run(&mut self, r: &RunReport, label: &str) {
        self.attempted += r.attempted;
        self.failed += r.failed;
        self.check(r.correct(), || {
            format!(
                "{label}: {} of {} messages intact, {} sends failed, {} skbuffs held",
                r.attempted - r.failed,
                r.attempted,
                r.sends_failed,
                r.skbuffs_held
            )
        });
    }

    fn value(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("metric {name} not measured"))
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `a / b`, or 0 when nothing was counted.
fn frac(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Nearest-rank percentile of unsorted samples.
fn percentile(samples: &[Ps], p: f64) -> Ps {
    let mut s = samples.to_vec();
    s.sort_unstable();
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// End-to-end metrics: one warm-up run whose simulated outputs give
/// the `sim_*` metrics, then untraced runs of the workload's own
/// configuration until `seconds` have passed. Host times are scaled to
/// the reference host speed by the probe next to them: `msgs_per_s` is
/// the median of the runs, each scaled by the mean of the probes taken
/// before and after it; `setup_s` is the median of set-ups timed in
/// batches, one before the warm-up and one after each run's probe, so
/// that a slow phase of the host moves only some of them. Runs are
/// dropped once read, so no run's peak heap holds an earlier run's
/// results.
fn measure_end_to_end(plan: &Plan, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let base = Variant::base(plan);
    let mut setups = Vec::new();
    let mut time_setups = |n: usize, slow: f64| {
        for _ in 0..n {
            setups.push(setup_ns(plan, base) as f64 / 1e9 / slow);
        }
    };
    let mut slow = probe::slowdown();
    time_setups(SETUP_REPS, slow);
    let warm = run_once(plan, base);
    out.run(&warm, "warm-up");
    let elapsed = warm.elapsed.as_secs_f64();
    let digest = warm.digest();
    out.samples = warm.lat.len();
    let sim = [
        ("sim_lat_p50_us", percentile(&warm.lat, 50.0).as_us_f64()),
        ("sim_lat_p99_us", percentile(&warm.lat, 99.0).as_us_f64()),
        ("sim_goodput_mibs", warm.bytes as f64 / elapsed / MIB),
        ("sim_rx_cpu_frac", warm.rx_busy.as_secs_f64() / elapsed),
    ];
    drop(warm);
    let (mut rates, mut peaks) = (Vec::new(), Vec::new());
    slow = probe::slowdown();
    let t0 = trace::now_ns();
    while rates.len() < MIN_RUNS || secs(trace::now_ns() - t0) < seconds {
        let r = run_once(plan, base);
        let after = probe::slowdown();
        let here = (slow + after) / 2.0;
        slow = after;
        eprintln!(
            "omx-benchmark: {}: run {:.3} s at {here:.2}x the reference time, {} events, \
             peak heap {:.1} MiB",
            plan.workload.name(),
            secs(r.run_ns),
            r.events,
            r.peak_heap as f64 / MIB
        );
        out.run(&r, "run");
        out.check(r.digest() == digest, || {
            "a repeat run changed the simulated output".to_string()
        });
        rates.push(r.delivered as f64 / secs(r.run_ns) * here);
        peaks.push(r.peak_heap as f64 / MIB);
        drop(r);
        time_setups(SETUP_BATCH, after);
    }
    out.put("msgs_per_s", median(rates));
    out.put("setup_s", median(setups));
    out.put("peak_heap_mib", median(peaks));
    for (name, v) in sim {
        out.put(name, v);
    }
    out
}

/// Host ns per event of a no-op `Sim<u64>`-style engine that executes
/// `events` events while holding `depth` pending, each rescheduled a
/// seeded delay ahead so the events span `span` of simulated time.
fn sched_ns_per_event(events: u64, depth: u64, span: Ps) -> f64 {
    struct World {
        scheduled: u64,
        limit: u64,
        gap: u64,
        rng: workloads::Rng,
    }
    fn tick(w: &mut World, sim: &mut Sim<World>) {
        if w.scheduled < w.limit {
            w.scheduled += 1;
            let delay = 1 + w.rng.next_u64() % (2 * w.gap);
            sim.schedule_in(Ps::ps(delay), tick);
        }
    }
    let depth = depth.clamp(1, events.max(1));
    let gap = (span.as_ps() / events.max(1) * depth).max(1);
    let mut world = World {
        scheduled: depth,
        limit: events,
        gap,
        rng: workloads::Rng::new(events),
    };
    let mut sim: Sim<World> = Sim::new();
    for _ in 0..depth {
        let at = world.rng.next_u64() % (2 * gap);
        sim.schedule_at(Ps::ps(at), tick);
    }
    let t0 = trace::now_ns();
    sim.run(&mut world);
    let ns = trace::now_ns() - t0;
    assert_eq!(sim.events_executed(), world.scheduled, "every event ran");
    ns as f64 / sim.events_executed() as f64
}

/// Per-layer metrics: rounds of interleaved differential runs (metrics
/// off, one traced run at one partition, and the partition variants)
/// until `seconds` have passed. Every host time is scaled to the
/// reference host speed by the probes around its round; a ratio of two
/// variants is the median of its per-round ratios, so drift between
/// rounds cancels. Counts come from the workload's own configuration.
fn measure_layers(plan: &Plan, seconds: f64, dump: Option<&std::path::Path>) -> Outcome {
    let mut out = Outcome::default();
    let base = Variant::base(plan);
    let p1 = Variant {
        partitions: 1,
        workers: 1,
        ..base
    };
    let p2w1 = Variant {
        partitions: 2,
        ..p1
    };
    let p2w2 = Variant {
        workers: 2.min(omx_sim::walltime::host_cores()),
        ..p2w1
    };
    let off = Variant {
        metrics: false,
        ..base
    };
    let traced = Variant { traced: true, ..p1 };
    // The plan's own configuration may coincide with a partition
    // variant; each distinct configuration runs once per round.
    let mut variants: Vec<Variant> = Vec::new();
    for v in [base, off, traced, p1, p2w1, p2w2] {
        if !variants.contains(&v) {
            variants.push(v);
        }
    }
    let at = |v: Variant| variants.iter().position(|&x| x == v).expect("variant ran");
    // Two workers on a small workload run an order of magnitude slower
    // than one: unless that is the workload's own configuration, they
    // are measured in the first round only. On a one-core host they are
    // the one-worker variant, which every round measures.
    let first_round_only = (p2w2 != p2w1 && p2w2 != base).then(|| at(p2w2));
    // Per round: each variant's scaled run time, the scheduler probe,
    // and the traced run's span ratios.
    let mut rounds: Vec<Vec<Option<f64>>> = Vec::new();
    let mut sched = Vec::new();
    let mut spans = Vec::new();
    let mut reports: Vec<Option<RunReport>> = (0..variants.len()).map(|_| None).collect();
    let mut slow = probe::slowdown();
    let t0 = trace::now_ns();
    while rounds.len() < MIN_ROUNDS || secs(trace::now_ns() - t0) < seconds {
        let mut times = vec![None; variants.len()];
        let mut span = None;
        // Each round starts at the next variant, so that no variant
        // always runs first after the probes or last before them.
        for i in (0..variants.len()).map(|k| (k + rounds.len()) % variants.len()) {
            if !rounds.is_empty() && first_round_only == Some(i) {
                continue;
            }
            let v = variants[i];
            let r = run_once(plan, v);
            out.run(&r, &format!("{v:?}"));
            times[i] = Some(r.run_ns as f64);
            if let Some(t) = &r.trace {
                // Net of what recording the spans cost, so the split
                // is one of an untraced run.
                let msgs = r.delivered as f64;
                let net = |names: &[Name]| names.iter().map(|&n| t.net_self_ns(n)).sum::<f64>();
                let post = net(&[Name::LibIsend, Name::LibIrecv]);
                let app = net(&[Name::AppOnStart, Name::AppOnCompletion]);
                let stack = net(&[Name::Run]);
                let run = stack + app + post;
                span = Some([post / msgs, post / run, stack / msgs, app / run]);
                if let (Some(dir), true) = (dump, rounds.is_empty()) {
                    let path = dir.join(format!("{}.spans.json", plan.workload.name()));
                    let written = std::fs::create_dir_all(dir)
                        .and_then(|()| std::fs::write(&path, t.to_json(plan.workload.name())));
                    out.check(written.is_ok(), || {
                        format!("cannot write {}", path.display())
                    });
                }
            }
            match &reports[i] {
                None => reports[i] = Some(r),
                Some(first) => out.check(first.digest() == r.digest(), || {
                    format!("{v:?}: a repeat run changed the simulated output")
                }),
            }
        }
        let b = reports[0].as_ref().expect("base ran");
        let sched_ns = sched_ns_per_event(b.events, b.peak_pending, b.elapsed);
        let after = probe::slowdown();
        let here = (slow + after) / 2.0;
        slow = after;
        rounds.push(times.into_iter().map(|t| t.map(|t| t / here)).collect());
        sched.push(sched_ns / here);
        if let Some([post_ns, post_frac, stack_ns, self_frac]) = span {
            spans.push([post_ns / here, post_frac, stack_ns / here, self_frac]);
        }
    }
    let time = |v: Variant| median(rounds.iter().filter_map(|r| r[at(v)]).collect());
    let ratio = |a: Variant, b: Variant| {
        median(
            rounds
                .iter()
                .filter_map(|r| Some(r[at(a)]? / r[at(b)]?))
                .collect(),
        )
    };
    let report = |v: Variant| reports[at(v)].as_ref().expect("variant ran");
    let b = report(base);
    let single = report(p1).digest();
    for (v, r) in variants.iter().zip(&reports) {
        let r = r.as_ref().expect("variant ran");
        if !v.metrics || r.digest() == single {
            continue;
        }
        // A workload that runs partitioned must match the single
        // engine. Elsewhere the partition variants only time the
        // executor, so a divergence is reported, not failed.
        if v.partitions > 1 && base.partitions == 1 {
            eprintln!(
                "omx-benchmark: note: {}: {v:?} diverged from partitions = 1 ({} vs {} events)",
                plan.workload.name(),
                r.events,
                report(p1).events
            );
        } else {
            out.check(false, || {
                format!("{v:?}: partitioning or tracing changed the simulated output")
            });
        }
    }
    out.check(report(off).schedule_digest() == b.schedule_digest(), || {
        "metrics off changed the simulated schedule or Stats".to_string()
    });
    let msgs = b.delivered as f64;
    let events = b.events as f64;
    let st = &b.stats;
    let c = &st.counters;
    let sched = median(sched);
    let host_ns = time(base) / events;
    let col = |k: usize| median(spans.iter().map(|s: &[f64; 4]| s[k]).collect());
    let kmsg = |n: u64| n as f64 * 1e3 / msgs;
    let elapsed = b.elapsed.as_ps() as f64;
    let busy = |p: Ps| p.as_ps() as f64 / elapsed;
    let r_p2 = report(p2w1);
    let shard_mean = r_p2.events as f64 / r_p2.shard_events.len() as f64;
    let shard_max = r_p2.shard_events.iter().copied().max().unwrap_or(0) as f64;
    let wasted = st.frames_ring_dropped
        + st.frames_corrupt_dropped
        + st.duplicates_dropped
        + st.retransmissions
        + st.pull_retransmissions;
    let r_p1 = report(p1);
    out.put("engine.events_per_msg", events / msgs);
    out.put("engine.peak_pending", b.peak_pending as f64);
    out.put("engine.host_ns_per_event", host_ns);
    out.put("engine.sched_ns_per_event", sched);
    out.put("engine.sched_frac", sched / host_ns);
    out.put("metrics.host_frac", 1.0 - ratio(off, base));
    out.put("lib.post_ns_per_msg", col(0));
    out.put("lib.post_frac", col(1));
    out.put("stack.ns_per_msg", col(2));
    out.put("nic.frames_per_msg", st.frames_sent as f64 / msgs);
    out.put("nic.ring_drops_per_kmsg", kmsg(st.frames_ring_dropped));
    out.put(
        "proto.retx_per_kmsg",
        kmsg(st.retransmissions + st.pull_retransmissions),
    );
    out.put(
        "proto.useful_frame_frac",
        1.0 - frac(wasted as f64, st.frames_sent as f64),
    );
    out.put("credit.stalls_per_kmsg", kmsg(st.credit_stalls));
    out.put("credit.nacks_per_kmsg", kmsg(st.credit_nacks));
    out.put("driver.offload_byte_frac", c.offload_fraction());
    out.put("driver.fallback_copies", c.copies_fallback as f64);
    out.put(
        "regcache.hit_frac",
        frac(
            c.regcache_hits as f64,
            (c.regcache_hits + c.regcache_misses) as f64,
        ),
    );
    out.put("sim.wire_frac", busy(b.busy.wire));
    out.put("sim.bh_copy_frac", busy(b.busy.bh_copy));
    out.put("sim.ioat_channel_frac", busy(b.busy.ioat_channel));
    out.put("sim.submit_cpu_frac", busy(b.busy.submit_cpu));
    out.put("sim.poll_wait_frac", busy(b.busy.poll_wait));
    out.put("partition.overhead_frac", ratio(p2w1, p1) - 1.0);
    out.put("partition.speedup", ratio(p2w1, p2w2));
    out.put("partition.shard_imbalance", shard_max / shard_mean);
    out.put("alloc.per_msg", r_p1.run_allocs as f64 / msgs);
    out.put("alloc.bytes_per_msg", r_p1.run_alloc_bytes as f64 / msgs);
    out.put("app.self_frac", col(3));
    out.put("trace.overhead_frac", ratio(traced, p1) - 1.0);
    out
}

/// Which metric sets a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Sets {
    end_to_end: bool,
    layers: bool,
}

fn measure(plan: &Plan, sets: Sets, seconds: f64, dump: Option<&std::path::Path>) -> Outcome {
    let mut out = Outcome::default();
    if sets.end_to_end {
        out = measure_end_to_end(plan, seconds);
    }
    if sets.layers {
        let l = measure_layers(plan, seconds, dump);
        out.values.extend(l.values);
        out.attempted += l.attempted;
        out.failed += l.failed;
        out.problems.extend(l.problems);
    }
    out
}

fn defs(sets: Sets) -> impl Iterator<Item = &'static Def> {
    let e2e: &[Def] = if sets.end_to_end { END_TO_END } else { &[] };
    let layers: &[Def] = if sets.layers { PER_LAYER } else { &[] };
    e2e.iter().chain(layers)
}

#[derive(Debug)]
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    sets: Sets,
    repeat: usize,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workloads: Workload::ALL.to_vec(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        sets: Sets {
            end_to_end: true,
            layers: true,
        },
        repeat: 1,
    };
    let mut it = args.peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value("--workload")?;
                a.workloads = vec![Workload::parse(&w).ok_or(format!("unknown workload {w}"))?];
            }
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--sets" => {
                a.repeat = value("--sets")?
                    .parse()
                    .map_err(|e| format!("--sets: {e}"))?;
                if a.repeat == 0 {
                    return Err("--sets must be at least 1".to_string());
                }
            }
            "--trace" => {
                let on = match it.peek().map(String::as_str) {
                    Some("0") => Some(false),
                    Some("1") => Some(true),
                    _ => None,
                };
                if on.is_some() {
                    it.next();
                }
                a.sets = match on {
                    Some(false) => Sets {
                        end_to_end: true,
                        layers: false,
                    },
                    _ => Sets {
                        end_to_end: false,
                        layers: true,
                    },
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

/// JSON number: every digit of a finite value.
fn num(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v}")
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("omx-benchmark: {e}");
            eprintln!(
                "usage: omx-benchmark [--workload pingpong_small|stream_large|incast_credit|\
                 alltoall_256] [--seed N] [--seconds S] [--trace [0|1]] [--sets K]"
            );
            std::process::exit(2);
        }
    };
    eprintln!(
        "omx-benchmark: seed {} for {} s per measurement on {} host cores",
        args.seed,
        args.seconds,
        omx_sim::walltime::host_cores()
    );
    let dump = std::path::Path::new("target/omx-benchmark");
    let many = args.workloads.len() > 1;
    let (mut attempted, mut failed, mut problems) = (0, 0, Vec::new());
    let mut summary = String::new();
    for &w in &args.workloads {
        let plan = Plan::new(w, args.seed, Scale::FULL);
        let outcomes: Vec<Outcome> = (0..args.repeat)
            .map(|_| measure(&plan, args.sets, args.seconds, Some(dump)))
            .collect();
        let first = &outcomes[0];
        let line = |metric: &str, v: f64, unit: &str, extra: &str| {
            println!(
                "{{\"workload\":\"{}\",\"metric\":\"{metric}\",\"value\":{},\"unit\":\"{unit}\"{extra}}}",
                w.name(),
                num(v),
            );
        };
        for d in defs(args.sets) {
            let v = first.value(d.name);
            let samples = if d.name.starts_with("sim_lat") {
                format!(",\"samples\":{}", first.samples)
            } else {
                String::new()
            };
            line(d.name, v, d.unit, &samples);
            let key = if many {
                format!("{}/{}", w.name(), d.name)
            } else {
                d.name.to_string()
            };
            let _ = write!(
                summary,
                "{}\"{key}\":{{\"value\":{},\"unit\":\"{}\"}}",
                if summary.is_empty() { "" } else { "," },
                num(v),
                d.unit
            );
        }
        if args.sets.end_to_end {
            // Zero unless a check failed, so it is no BENCHMARK.json
            // metric: failures go to the result line and the exit code.
            let failed = frac(first.failed as f64, first.attempted as f64);
            line("ops_failed_frac", failed, "ratio", "");
        }
        if args.repeat > 1 {
            compare_sets(w, args.sets, &outcomes, &mut problems);
        }
        for o in &outcomes {
            attempted += o.attempted;
            failed += o.failed;
            problems.extend(o.problems.iter().map(|p| format!("{}: {p}", w.name())));
        }
    }
    for p in &problems {
        eprintln!("omx-benchmark: check failed: {p}");
    }
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{summary}}}}}",
        problems.is_empty()
    );
    if !problems.is_empty() {
        std::process::exit(1);
    }
}

/// `--sets K`: per metric, every set's median, the relative difference
/// of the last set from the first, and the bound; exact metrics must
/// agree bit for bit.
fn compare_sets(w: Workload, sets: Sets, outcomes: &[Outcome], problems: &mut Vec<String>) {
    for d in defs(sets) {
        let vals: Vec<f64> = outcomes.iter().map(|o| o.value(d.name)).collect();
        let (a, z) = (vals[0], vals[vals.len() - 1]);
        let worse = match d.better {
            Lower => frac(z - a, a.abs()),
            Higher => frac(a - z, a.abs()),
        };
        let list: Vec<String> = vals.iter().map(|&v| num(v)).collect();
        println!(
            "{{\"workload\":\"{}\",\"metric\":\"{}\",\"set_medians\":[{}],\"rel_diff\":{},\
             \"worse_by\":{},\"bound\":{},\"exact\":{}}}",
            w.name(),
            d.name,
            list.join(","),
            num(frac(z - a, a.abs())),
            num(worse),
            d.bound.map_or("null".to_string(), num),
            d.exact
        );
        if d.exact && vals.iter().any(|v| v.to_bits() != a.to_bits()) {
            problems.push(format!(
                "{}: exact metric {} differs between sets",
                w.name(),
                d.name
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(w: Workload, seed: u64) -> Plan {
        Plan::new(w, seed, Scale::SMOKE)
    }

    #[test]
    fn every_workload_passes_its_checks_and_repeats_exactly() {
        for w in Workload::ALL {
            let plan = smoke(w, DEFAULT_SEED);
            let a = run_once(&plan, Variant::base(&plan));
            let b = run_once(&plan, Variant::base(&plan));
            assert!(a.correct(), "{}: {a:?}", w.name());
            assert_eq!(a.delivered, plan.messages(), "{}", w.name());
            assert_eq!(a.digest(), b.digest(), "{}: exact counts repeat", w.name());
            let held = run_once(&smoke(w, 4242), Variant::base(&plan));
            assert!(
                held.correct() && held.failed == 0,
                "{}: holdout seed",
                w.name()
            );
            assert_ne!(a.digest(), held.digest(), "{}: seeds differ", w.name());
            // The paths each workload exists to exercise ran.
            let st = &a.stats;
            let exercised = match w {
                Workload::PingpongSmall => st.counters.tx_tiny * st.counters.tx_medium > 0,
                Workload::StreamLarge => {
                    st.counters.bytes_offloaded * st.counters.regcache_hits > 0
                }
                Workload::IncastCredit => {
                    st.frames_ring_dropped * st.credit_stalls * st.pull_retransmissions > 0
                }
                Workload::Alltoall256 => a.shard_events.len() == 2,
            };
            assert!(exercised, "{}: {st:?}", w.name());
        }
    }

    #[test]
    fn alltoall_digest_is_partition_independent() {
        let plan = smoke(Workload::Alltoall256, DEFAULT_SEED);
        let run = |partitions, workers| {
            let v = Variant {
                partitions,
                workers,
                metrics: true,
                traced: false,
            };
            run_once(&plan, v).digest()
        };
        let single = run(1, 1);
        assert_eq!(single, run(2, 1), "partitions=2, one worker");
        assert_eq!(single, run(2, 2), "partitions=2, two workers");
    }

    #[test]
    fn metrics_off_leaves_stats_and_schedule_unchanged() {
        for w in Workload::ALL {
            let plan = smoke(w, DEFAULT_SEED);
            let on = run_once(&plan, Variant::base(&plan));
            let off = Variant {
                metrics: false,
                ..Variant::base(&plan)
            };
            let off = run_once(&plan, off);
            assert_eq!(on.schedule_digest(), off.schedule_digest(), "{}", w.name());
            assert_eq!(off.busy.wire, Ps::ZERO, "{}: recording was off", w.name());
        }
    }

    #[test]
    fn a_traced_run_nests_its_spans() {
        let plan = smoke(Workload::PingpongSmall, DEFAULT_SEED);
        let v = Variant {
            partitions: 1,
            workers: 1,
            metrics: true,
            traced: true,
        };
        let r = run_once(&plan, v);
        let t = r.trace.expect("traced");
        let posts = u64::from(Scale::SMOKE.round_trips) * 2;
        for (name, count) in [
            (Name::Setup, 1),
            (Name::ClusterNew, 1),
            (Name::Install, 1),
            (Name::Run, 1),
            (Name::Finish, 1),
            (Name::StatsSnapshot, 1),
            (Name::LeakCounts, 1),
            (Name::AppOnStart, 2),
            (Name::LibIsend, posts),
            (Name::LibIrecv, posts),
        ] {
            assert_eq!(t.agg(name).count, count, "{name:?}");
        }
        let parent = |s: &trace::Span| s.parent.map(|i| t.spans[i as usize].name);
        for s in &t.spans {
            let want: &[Name] = match s.name {
                Name::Setup | Name::Run | Name::Finish => &[],
                Name::ClusterNew | Name::Install => &[Name::Setup],
                Name::AppOnStart | Name::AppOnCompletion => &[Name::Run],
                Name::LibIsend | Name::LibIrecv => &[Name::AppOnStart, Name::AppOnCompletion],
                Name::StatsSnapshot | Name::LeakCounts => &[Name::Finish],
            };
            match parent(s) {
                None => assert!(want.is_empty(), "{:?} has no parent", s.name),
                Some(p) => assert!(want.contains(&p), "{:?} inside {p:?}", s.name),
            }
        }
        let run = t.agg(Name::Run);
        assert!(
            run.self_ns < run.total_ns,
            "app callbacks cover part of the run"
        );
    }

    #[test]
    fn every_metric_is_measured_at_smoke_scale() {
        let both = Sets {
            end_to_end: true,
            layers: true,
        };
        for w in Workload::ALL {
            let o = measure(&smoke(w, DEFAULT_SEED), both, 0.0, None);
            assert!(o.problems.is_empty(), "{}: {:?}", w.name(), o.problems);
            let names: Vec<&str> = o.values.iter().map(|&(n, _)| n).collect();
            let want: Vec<&str> = defs(both).map(|d| d.name).collect();
            assert_eq!(names, want, "{}", w.name());
            for (n, v) in &o.values {
                assert!(v.is_finite(), "{}: {n} = {v}", w.name());
            }
            for d in END_TO_END {
                assert!(
                    o.value(d.name) > 0.0,
                    "{}: {} is never zero",
                    w.name(),
                    d.name
                );
            }
            assert!(o.samples > 0, "{}: latency samples", w.name());
        }
    }

    #[test]
    fn benchmark_json_lists_every_end_to_end_metric() {
        let here = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let file = here
            .ancestors()
            .map(|d| d.join("BENCHMARK.json"))
            .find(|p| p.exists())
            .expect("BENCHMARK.json at the repository root");
        let text = std::fs::read_to_string(file).expect("readable");
        let entry = |d: &Def| {
            let better = match d.better {
                Lower => "lower",
                Higher => "higher",
            };
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"",
                d.name, d.unit
            )
        };
        for d in END_TO_END {
            let bound = d.bound.expect("end-to-end metrics have a bound");
            let e = format!("{}, \"bound\": {bound}}}", entry(d));
            assert!(text.contains(&e), "BENCHMARK.json lacks {e}");
        }
        for d in PER_LAYER {
            let e = format!("{}}}", entry(d));
            assert!(text.contains(&e), "BENCHMARK.json lacks {e}");
        }
        for w in Workload::ALL {
            assert!(
                text.contains(&format!("\"name\": \"{}\"", w.name())),
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn arguments_follow_both_spellings() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = args("--workload stream_large --seed 4 --seconds 2 --trace 0").unwrap();
        assert_eq!(a.workloads, vec![Workload::StreamLarge]);
        assert_eq!((a.seed, a.seconds), (4, 2.0));
        assert!(a.sets.end_to_end && !a.sets.layers);
        let b = args("--trace --sets 2").unwrap();
        assert!(!b.sets.end_to_end && b.sets.layers);
        assert_eq!((b.repeat, b.workloads.len()), (2, 4));
        assert!(args("--trace 1").unwrap().sets.layers);
        assert!(args("--workload nope").is_err());
        assert!(args("--sets 0").is_err());
    }
}
