//! In-memory host-time spans, recorded from the benchmark's own files
//! at each boundary where it calls into the stack.
//!
//! Recording is off unless [`start`] armed it, and then only on the
//! calling thread: traced runs use one partition, so the whole
//! simulation runs there, and runs on other threads stay untraced.
//! Every span is aggregated per name (count, total and self time) when
//! it closes; the first [`KEEP`] spans are also kept whole for the
//! dump.
//!
//! Span timestamps are raw time-stamp-counter ticks on x86-64, where a
//! read costs about half of `Instant::now()`, converted to nanoseconds
//! with the tick rate measured over the traced run itself.

use omx_sim::walltime::Stopwatch;
use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::sync::OnceLock;

/// Spans kept whole for the dump; the aggregates cover every span.
const KEEP: usize = 100_000;

static EPOCH: OnceLock<Stopwatch> = OnceLock::new();

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static TRACE: RefCell<Trace> = const { RefCell::new(Trace::new()) };
    /// `(ticks, now_ns)` when recording started on this thread.
    static ORIGIN: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// The boundaries the benchmark records, in nesting order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    Setup,
    ClusterNew,
    Install,
    Run,
    AppOnStart,
    AppOnCompletion,
    LibIsend,
    LibIrecv,
    Finish,
    StatsSnapshot,
    LeakCounts,
}

impl Name {
    const ALL: [Name; 11] = [
        Name::Setup,
        Name::ClusterNew,
        Name::Install,
        Name::Run,
        Name::AppOnStart,
        Name::AppOnCompletion,
        Name::LibIsend,
        Name::LibIrecv,
        Name::Finish,
        Name::StatsSnapshot,
        Name::LeakCounts,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            Name::Setup => "setup",
            Name::ClusterNew => "cluster.new",
            Name::Install => "install",
            Name::Run => "run",
            Name::AppOnStart => "app.on_start",
            Name::AppOnCompletion => "app.on_completion",
            Name::LibIsend => "lib.isend",
            Name::LibIrecv => "lib.irecv",
            Name::Finish => "finish",
            Name::StatsSnapshot => "stats_snapshot",
            Name::LeakCounts => "leak_counts",
        }
    }
}

/// Host nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Stopwatch::start).elapsed_nanos() as u64
}

/// A span timestamp.
#[cfg(target_arch = "x86_64")]
fn ticks() -> u64 {
    // SAFETY: RDTSC only reads the time-stamp counter; it has no
    // memory-safety preconditions.
    unsafe { std::arch::x86_64::_rdtsc() }
}

/// A span timestamp.
#[cfg(not(target_arch = "x86_64"))]
fn ticks() -> u64 {
    now_ns()
}

/// One span, in ticks.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: Name,
    start: u64,
    end: u64,
    /// Index of the enclosing span among the kept spans.
    pub parent: Option<u32>,
    pub shard: u32,
}

/// Per-name totals over every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the time covered by child spans.
    pub self_ns: u64,
    /// Direct child spans.
    pub children: u64,
}

impl Agg {
    const ZERO: Agg = Agg {
        count: 0,
        total_ns: 0,
        self_ns: 0,
        children: 0,
    };
}

/// Host time that recording one span adds: `inner_ns` inside the span
/// itself, `outer_ns` to its parent's self time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanCost {
    pub inner_ns: f64,
    pub outer_ns: f64,
}

#[derive(Debug)]
struct Open {
    name: Name,
    start: u64,
    kept: Option<u32>,
    /// Ticks covered by child spans, and their number.
    covered: u64,
    kids: u64,
}

/// Everything one traced run recorded.
#[derive(Debug)]
pub struct Trace {
    pub spans: Vec<Span>,
    /// Per-name totals, in ticks.
    aggs: [Agg; Name::ALL.len()],
    stack: Vec<Open>,
    shard: u32,
    ns_per_tick: f64,
    /// What recording a span cost on this host, measured by [`start`].
    pub cost: SpanCost,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

impl Trace {
    const fn new() -> Trace {
        Trace {
            spans: Vec::new(),
            aggs: [Agg::ZERO; Name::ALL.len()],
            stack: Vec::new(),
            shard: 0,
            ns_per_tick: 1.0,
            cost: SpanCost {
                inner_ns: 0.0,
                outer_ns: 0.0,
            },
        }
    }

    fn ns(&self, ticks: u64) -> u64 {
        (ticks as f64 * self.ns_per_tick) as u64
    }

    /// Totals for `name` in nanoseconds (zero if no such span closed).
    pub fn agg(&self, name: Name) -> Agg {
        let a = self.aggs[name as usize];
        Agg {
            count: a.count,
            total_ns: self.ns(a.total_ns),
            self_ns: self.ns(a.self_ns),
            children: a.children,
        }
    }

    /// Self time of `name` in nanoseconds, less what recording these
    /// spans and their children cost: the time the code between the
    /// boundaries takes in an untraced run.
    pub fn net_self_ns(&self, name: Name) -> f64 {
        let a = self.agg(name);
        a.self_ns as f64
            - a.count as f64 * self.cost.inner_ns
            - a.children as f64 * self.cost.outer_ns
    }

    fn open_at(&mut self, name: Name, start: u64) {
        let parent = self.stack.last().and_then(|o| o.kept);
        let kept = (self.spans.len() < KEEP).then(|| {
            self.spans.push(Span {
                name,
                start,
                end: start,
                parent,
                shard: self.shard,
            });
            (self.spans.len() - 1) as u32
        });
        self.stack.push(Open {
            name,
            start,
            kept,
            covered: 0,
            kids: 0,
        });
    }

    fn close_at(&mut self, end: u64) {
        let o = self.stack.pop().expect("close without an open span");
        let dur = end - o.start;
        if let Some(parent) = self.stack.last_mut() {
            parent.covered += dur;
            parent.kids += 1;
        }
        if let Some(k) = o.kept {
            self.spans[k as usize].end = end;
        }
        let agg = &mut self.aggs[o.name as usize];
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += dur - o.covered;
        agg.children += o.kids;
    }

    /// The kept spans as Chrome trace-event JSON (`ts`/`dur` in µs),
    /// with each span's index and parent index under `args`, followed
    /// by the per-name aggregates under `summary` and the measured
    /// recording cost under `span_cost`.
    pub fn to_json(&self, workload: &str) -> String {
        let base = self.spans.first().map_or(0, |s| s.start);
        let us = |t: u64| t as f64 * self.ns_per_tick / 1e3;
        let mut out =
            format!("{{\"workload\":\"{workload}\",\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":0,\"tid\":{},\
                 \"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name.as_str(),
                us(s.start - base),
                us(s.end - s.start),
                s.shard,
            );
        }
        out.push_str("],\"summary\":[");
        let closed = Name::ALL.map(|n| (n, self.agg(n)));
        let closed = closed.iter().filter(|(_, a)| a.count > 0);
        for (i, (name, a)) in closed.enumerate() {
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"count\":{},\"children\":{},\"total_ns\":{},\
                 \"self_ns\":{},\"net_self_ns\":{:.0}}}",
                if i == 0 { "" } else { ",\n" },
                name.as_str(),
                a.count,
                a.children,
                a.total_ns,
                a.self_ns,
                self.net_self_ns(*name)
            );
        }
        let _ = writeln!(
            out,
            "],\"span_cost\":{{\"inner_ns\":{:.1},\"outer_ns\":{:.1}}}}}",
            self.cost.inner_ns, self.cost.outer_ns
        );
        out
    }
}

/// Arm recording on this thread with an empty trace, after measuring
/// what recording a span costs.
pub fn start() {
    let cost = calibrate();
    arm();
    TRACE.with(|t| t.borrow_mut().cost = cost);
}

fn arm() {
    TRACE.with(|t| *t.borrow_mut() = Trace::new());
    ORIGIN.set((ticks(), now_ns()));
    ON.set(true);
}

/// Record empty spans inside one parent: their mean length is the
/// inner cost, the parent's self time per child the outer cost.
fn calibrate() -> SpanCost {
    const N: u32 = 20_000;
    arm();
    open(Name::Run);
    for _ in 0..N {
        open(Name::LibIsend);
        close();
    }
    close();
    let t = stop();
    SpanCost {
        inner_ns: t.agg(Name::LibIsend).total_ns as f64 / f64::from(N),
        outer_ns: t.agg(Name::Run).self_ns as f64 / f64::from(N),
    }
}

/// Disarm recording and hand back what this thread recorded, with the
/// tick rate measured since [`start`].
pub fn stop() -> Trace {
    ON.set(false);
    let (t0, n0) = ORIGIN.get();
    let mut t = TRACE.with(|t| std::mem::take(&mut *t.borrow_mut()));
    t.ns_per_tick = (now_ns() - n0) as f64 / (ticks() - t0).max(1) as f64;
    assert!(t.stack.is_empty(), "a span was left open");
    t
}

fn with(f: impl FnOnce(&mut Trace)) {
    if ON.get() {
        TRACE.with(|t| f(&mut t.borrow_mut()));
    }
}

/// Tag the spans that follow with a shard index.
pub fn set_shard(shard: usize) {
    with(|t| t.shard = shard as u32);
}

/// Open a span that a later [`close`] ends.
pub fn open(name: Name) {
    with(|t| t.open_at(name, ticks()));
}

/// Close the innermost open span.
pub fn close() {
    with(|t| t.close_at(ticks()));
}

/// A span that closes when the guard drops.
#[must_use]
pub struct Guard(bool);

pub fn span(name: Name) -> Guard {
    open(name);
    Guard(ON.get())
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.0 {
            close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let (outer, inner) = (Name::Run, Name::AppOnCompletion);
        let mut t = Trace::new();
        t.open_at(outer, 100);
        t.open_at(inner, 110);
        t.close_at(140);
        t.open_at(inner, 150);
        t.close_at(160);
        t.close_at(200);
        let (outer, inner) = (t.agg(outer), t.agg(inner));
        assert_eq!((outer.count, outer.total_ns, outer.self_ns), (1, 100, 60));
        assert_eq!((inner.count, inner.total_ns, inner.self_ns), (2, 40, 40));
        assert_eq!((outer.children, inner.children), (2, 0));
        t.cost = SpanCost {
            inner_ns: 3.0,
            outer_ns: 5.0,
        };
        assert_eq!(t.net_self_ns(Name::Run), 60.0 - 3.0 - 2.0 * 5.0);
        assert_eq!(t.net_self_ns(Name::AppOnCompletion), 40.0 - 2.0 * 3.0);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[0].parent, None);
        let json = t.to_json("w");
        assert!(
            json.contains("\"name\":\"app.on_completion\",\"ph\":\"X\",\"ts\":0.010,\"dur\":0.030")
        );
        assert!(json.contains("\"parent\":0}"));
        assert!(json.contains(
            "{\"name\":\"run\",\"count\":1,\"children\":2,\"total_ns\":100,\"self_ns\":60,\
             \"net_self_ns\":47}"
        ));
        assert!(json.ends_with("\"span_cost\":{\"inner_ns\":3.0,\"outer_ns\":5.0}}\n"));
    }
}
