//! Per-component observability: a metrics registry and an optional
//! structured event trace.
//!
//! The registry stores every instrument of the table in
//! [`crate::instruments`] once per *scope* — a small integer chosen by
//! the embedder (this workspace uses the node id). Three families:
//!
//! * **counters** — monotonic `u64` totals (frames, bytes, drops),
//! * **gauges** — last-value and high-watermark `i64`s (queue depths),
//! * **busy integrals** — accumulated [`Ps`] of resource occupancy
//!   (wire serialization, DMA channel busy, memcpy time).
//!
//! Storage is dense: one zero-initialized slot per (scope, instrument),
//! allocated once when the registry is built for a known number of
//! scopes, so a recording call is a checked index and an add — no
//! lookup, no allocation. Each slot also has a "written" bit, so a read
//! or a snapshot tells an instrument that recorded zero from one that
//! never recorded at all.
//!
//! A [`Metrics`] value is a cheap handle: clones share one registry.
//! The disabled handle ([`Metrics::disabled`]) is an `Option::None`
//! inside, so every recording call is a branch-and-return — near-zero
//! overhead. Crucially, recording **never charges simulated time**:
//! enabling or disabling observability cannot change any simulation
//! result, only what is reported about it.
//!
//! The optional trace is a bounded ring of [`TraceEvent`] records
//! (oldest evicted first). It is off by default and sized explicitly
//! via [`Metrics::with_trace`].

use crate::instruments::{members, Busy, Counter, Gauge, Kind, SLOTS};
use crate::time::Ps;
use serde::Serialize;
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

/// "Written" bits per scope, one per slot.
const WORDS: usize = SLOTS.div_ceil(64);

/// Words of storage per scope: its slots, then their "written" bits.
const STRIDE: usize = SLOTS + WORDS;

/// Every scope's slots and "written" bits, scope `s` at
/// `[s * STRIDE, (s + 1) * STRIDE)`: counter totals, gauges, busy
/// integrals in picoseconds and metered job counts. Everything starts
/// at zero, so the storage comes from the allocator already zeroed: a
/// gauge is stored as [`gauge_bits`], whose zero stands for
/// `i64::MIN`, so a first high-watermark raise needs no start value.
#[derive(Debug)]
struct Slots(Vec<u64>);

impl Slots {
    /// Replace the slot's value `v` with `f(v)` and mark it written.
    #[inline]
    fn update(&mut self, scope: u32, slot: usize, f: impl FnOnce(u64) -> u64) {
        if slot >= SLOTS {
            return;
        }
        let base = scope as usize * STRIDE;
        if let Some(words) = self.0.get_mut(base..base + STRIDE) {
            let (vals, written) = words.split_at_mut(SLOTS);
            if let (Some(val), Some(bits)) = (vals.get_mut(slot), written.get_mut(slot / 64)) {
                *val = f(*val);
                *bits |= 1 << (slot % 64);
            }
        }
    }

    /// The slot's value, or `None` if it was never written.
    fn read(&self, scope: usize, slot: usize) -> Option<u64> {
        let words = self.0.get(scope * STRIDE..(scope + 1) * STRIDE)?;
        let (vals, written) = words.split_at(SLOTS);
        let bits = written.get(slot / 64)?;
        (bits >> (slot % 64) & 1 == 1).then_some(*vals.get(slot)?)
    }
}

/// A gauge value as stored: the sign bit flipped, which maps `i64`
/// order onto `u64` order (so a raise is an unsigned `max`) and
/// `i64::MIN` onto zero.
fn gauge_bits(value: i64) -> u64 {
    value as u64 ^ 1 << 63
}

/// Inverse of [`gauge_bits`].
fn gauge_value(bits: u64) -> i64 {
    (bits ^ 1 << 63) as i64
}

#[derive(Debug)]
struct Registry {
    scopes: usize,
    slots: RefCell<Slots>,
    trace: Option<RefCell<TraceRing>>,
}

#[derive(Debug)]
struct TraceRing {
    capacity: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

/// One structured trace record: something `component` did at `at`,
/// with two free-form operands (byte counts, handles, sizes — the
/// `what` string documents their meaning).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TraceEvent {
    /// Simulation time of the event.
    pub at: Ps,
    /// Scope (node id) the event belongs to.
    pub scope: u32,
    /// Component path, e.g. `"driver.bh"`.
    pub component: &'static str,
    /// Event kind, e.g. `"rx_frag"`.
    pub what: &'static str,
    /// First operand (meaning depends on `what`).
    pub a: u64,
    /// Second operand (meaning depends on `what`).
    pub b: u64,
}

/// A serializable point-in-time view of the registry. Keys are
/// rendered as `"s<scope>.<name>"` and only written instruments
/// appear; busy integrals are reported in nanoseconds, and a metered
/// resource's job count appears among the counters under its busy
/// name.
#[derive(Debug, Clone, Serialize)]
pub struct MetricsSnapshot {
    /// Monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Gauges (last value or high watermark).
    pub gauges: BTreeMap<String, i64>,
    /// Busy-time integrals in nanoseconds.
    pub busy_ns: BTreeMap<String, f64>,
    /// Trace events evicted from the ring because it was full.
    pub trace_dropped: u64,
}

/// Shared handle to a metrics registry (see module docs).
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    inner: Option<Rc<Registry>>,
}

impl Metrics {
    /// An enabled registry for scopes `0..scopes`, without an event
    /// trace. Recordings for a scope outside that range are dropped.
    pub fn new(scopes: usize) -> Metrics {
        Metrics::build(scopes, None)
    }

    /// An enabled registry for scopes `0..scopes` with a trace ring of
    /// `capacity` events.
    pub fn with_trace(scopes: usize, capacity: usize) -> Metrics {
        let ring = (capacity > 0).then(|| {
            RefCell::new(TraceRing {
                capacity,
                events: VecDeque::with_capacity(capacity.min(4096)),
                dropped: 0,
            })
        });
        Metrics::build(scopes, ring)
    }

    fn build(scopes: usize, trace: Option<RefCell<TraceRing>>) -> Metrics {
        Metrics {
            inner: Some(Rc::new(Registry {
                scopes,
                slots: RefCell::new(Slots(vec![0; scopes * STRIDE])),
                trace,
            })),
        }
    }

    /// The no-op handle: every recording call returns immediately.
    pub fn disabled() -> Metrics {
        Metrics { inner: None }
    }

    /// Whether recording is active.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether an event trace ring is attached.
    pub fn trace_enabled(&self) -> bool {
        self.inner.as_ref().is_some_and(|r| r.trace.is_some())
    }

    #[inline]
    fn update(&self, scope: u32, slot: usize, f: impl FnOnce(u64) -> u64) {
        if let Some(r) = &self.inner {
            r.slots.borrow_mut().update(scope, slot, f);
        }
    }

    /// Add `delta` to counter `id` of `scope`.
    #[inline]
    pub fn count(&self, scope: u32, id: Counter, delta: u64) {
        self.update(scope, usize::from(id.0), |v| v + delta);
    }

    /// Set gauge `id` of `scope` to `value`.
    #[inline]
    pub fn gauge_set(&self, scope: u32, id: Gauge, value: i64) {
        self.update(scope, usize::from(id.0), |_| gauge_bits(value));
    }

    /// Raise gauge `id` of `scope` to `value` if it is higher than the
    /// stored value (high-watermark semantics).
    #[inline]
    pub fn gauge_max(&self, scope: u32, id: Gauge, value: i64) {
        self.update(scope, usize::from(id.0), |v| v.max(gauge_bits(value)));
    }

    /// Accumulate `service` into busy integral `id` of `scope`.
    #[inline]
    pub fn busy(&self, scope: u32, id: Busy, service: Ps) {
        self.update(scope, usize::from(id.0), |v| v + service.as_ps());
    }

    /// One job of a metered resource: accumulate `service` into busy
    /// integral `id` of `scope` and count the job under the same name.
    #[inline]
    pub fn meter(&self, scope: u32, id: Busy, service: Ps) {
        if let Some(r) = &self.inner {
            let mut slots = r.slots.borrow_mut();
            slots.update(scope, usize::from(id.0), |v| v + service.as_ps());
            slots.update(scope, usize::from(id.0) + 1, |jobs| jobs + 1);
        }
    }

    /// Append a trace event (dropped silently when no ring is attached;
    /// evicts the oldest event when the ring is full).
    #[inline]
    pub fn trace(
        &self,
        at: Ps,
        scope: u32,
        component: &'static str,
        what: &'static str,
        a: u64,
        b: u64,
    ) {
        if let Some(ring) = self.inner.as_ref().and_then(|r| r.trace.as_ref()) {
            let mut ring = ring.borrow_mut();
            if ring.events.len() >= ring.capacity {
                ring.events.pop_front();
                ring.dropped += 1;
            }
            ring.events.push_back(TraceEvent {
                at,
                scope,
                component,
                what,
                a,
                b,
            });
        }
    }

    fn read(&self, scope: u32, slot: usize) -> Option<u64> {
        self.inner
            .as_ref()?
            .slots
            .borrow()
            .read(scope as usize, slot)
    }

    fn sum_over_scopes(&self, slot: usize) -> u64 {
        let Some(r) = &self.inner else {
            return 0;
        };
        let slots = r.slots.borrow();
        (0..r.scopes).filter_map(|s| slots.read(s, slot)).sum()
    }

    /// Read a counter (0 when never written or disabled).
    pub fn counter(&self, scope: u32, id: Counter) -> u64 {
        self.read(scope, usize::from(id.0)).unwrap_or(0)
    }

    /// Read a gauge (`None` when never written or disabled).
    pub fn gauge(&self, scope: u32, id: Gauge) -> Option<i64> {
        self.read(scope, usize::from(id.0)).map(gauge_value)
    }

    /// Read a busy integral (zero when never written or disabled).
    pub fn busy_total(&self, scope: u32, id: Busy) -> Ps {
        Ps(self.read(scope, usize::from(id.0)).unwrap_or(0))
    }

    /// Jobs a metered resource admitted (0 when never written).
    pub fn jobs(&self, scope: u32, id: Busy) -> u64 {
        self.read(scope, usize::from(id.0) + 1).unwrap_or(0)
    }

    /// Sum of a busy integral across all scopes.
    pub fn busy_total_all_scopes(&self, id: Busy) -> Ps {
        Ps(self.sum_over_scopes(usize::from(id.0)))
    }

    /// Sum of a counter across all scopes.
    pub fn counter_all_scopes(&self, id: Counter) -> u64 {
        self.sum_over_scopes(usize::from(id.0))
    }

    /// A serializable snapshot of every written instrument.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot {
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            busy_ns: BTreeMap::new(),
            trace_dropped: 0,
        };
        let Some(r) = &self.inner else {
            return snap;
        };
        let slots = r.slots.borrow();
        for (slot, d, k) in members() {
            let name = d.member_name(k);
            for scope in 0..r.scopes {
                let key = || format!("s{scope}.{name}");
                match d.kind {
                    Kind::Counter => {
                        if let Some(v) = slots.read(scope, slot) {
                            snap.counters.insert(key(), v);
                        }
                    }
                    Kind::Gauge => {
                        if let Some(v) = slots.read(scope, slot) {
                            snap.gauges.insert(key(), gauge_value(v));
                        }
                    }
                    Kind::Busy => {
                        if let Some(v) = slots.read(scope, slot) {
                            snap.busy_ns.insert(key(), v as f64 / 1e3);
                        }
                        if let Some(jobs) = slots.read(scope, slot + 1) {
                            snap.counters.insert(key(), jobs);
                        }
                    }
                }
            }
        }
        if let Some(ring) = &r.trace {
            snap.trace_dropped = ring.borrow().dropped;
        }
        snap
    }

    /// The traced events currently in the ring, oldest first.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.inner
            .as_ref()
            .and_then(|r| r.trace.as_ref())
            .map(|ring| ring.borrow().events.iter().cloned().collect())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instruments::{IOAT_CHANNEL, LINK_WIRE, NIC_FRAMES, NIC_Q_RING_HIGH_WATERMARK};

    #[test]
    fn disabled_handle_records_nothing() {
        let m = Metrics::disabled();
        m.count(0, NIC_FRAMES, 5);
        m.busy(0, LINK_WIRE, Ps::ns(100));
        m.gauge_max(0, NIC_Q_RING_HIGH_WATERMARK.at(0), 9);
        m.trace(Ps::ZERO, 0, "c", "w", 1, 2);
        assert!(!m.is_enabled());
        assert_eq!(m.counter(0, NIC_FRAMES), 0);
        assert_eq!(m.busy_total(0, LINK_WIRE), Ps::ZERO);
        assert!(m.snapshot().counters.is_empty());
        assert!(m.trace_events().is_empty());
    }

    #[test]
    fn clones_share_one_registry() {
        let m = Metrics::new(3);
        let m2 = m.clone();
        m.count(1, NIC_FRAMES, 2);
        m2.count(1, NIC_FRAMES, 3);
        m2.busy(1, LINK_WIRE, Ps::ns(40));
        m.busy(2, LINK_WIRE, Ps::ns(60));
        assert_eq!(m.counter(1, NIC_FRAMES), 5);
        assert_eq!(m.busy_total_all_scopes(LINK_WIRE), Ps::ns(100));
        assert_eq!(m.counter_all_scopes(NIC_FRAMES), 5);
    }

    #[test]
    fn gauges_track_watermarks() {
        let m = Metrics::new(1);
        let g = NIC_Q_RING_HIGH_WATERMARK.at(2);
        assert_eq!(m.gauge(0, g), None);
        m.gauge_max(0, g, 3);
        m.gauge_max(0, g, 1);
        assert_eq!(m.gauge(0, g), Some(3));
        m.gauge_set(0, g, 1);
        assert_eq!(m.gauge(0, g), Some(1));
    }

    #[test]
    fn out_of_range_scopes_and_members_record_nothing() {
        let m = Metrics::new(1);
        m.count(1, NIC_FRAMES, 1);
        m.gauge_set(0, NIC_Q_RING_HIGH_WATERMARK.at(99), 7);
        assert_eq!(m.counter(1, NIC_FRAMES), 0);
        assert!(m.snapshot().gauges.is_empty());
    }

    #[test]
    fn trace_ring_is_bounded() {
        let m = Metrics::with_trace(1, 2);
        assert!(m.trace_enabled());
        for i in 0..5u64 {
            m.trace(Ps::ns(i), 0, "c", "tick", i, 0);
        }
        let ev = m.trace_events();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].a, 3);
        assert_eq!(ev[1].a, 4);
        assert_eq!(m.snapshot().trace_dropped, 3);
    }

    #[test]
    fn snapshot_renders_scoped_keys() {
        let m = Metrics::new(2);
        m.count(0, NIC_FRAMES, 7);
        m.meter(1, IOAT_CHANNEL, Ps::us(3));
        m.gauge_max(1, NIC_Q_RING_HIGH_WATERMARK.at(5), 4);
        let s = m.snapshot();
        assert_eq!(s.counters["s0.nic.frames"], 7);
        assert_eq!(s.counters["s1.ioat.channel"], 1);
        assert_eq!(s.gauges["s1.nic.q5.ring_high_watermark"], 4);
        assert!((s.busy_ns["s1.ioat.channel"] - 3000.0).abs() < 1e-9);
        assert_eq!(s.counters.len() + s.gauges.len() + s.busy_ns.len(), 4);
    }
}
