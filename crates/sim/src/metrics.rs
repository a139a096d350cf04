//! Per-component observability: a registry of busy-time integrals and
//! an optional structured event trace.
//!
//! The registry stores every instrument of the table in
//! [`crate::instruments`] once per *scope*, a small integer chosen by
//! the embedder (this workspace uses the node id). Each instrument is
//! a **busy integral**: the accumulated [`Ps`] a component spent on
//! one kind of work (wire serialization, DMA channel busy, memcpy
//! time, descriptor submission, completion polling).
//!
//! Storage is dense: one zero-initialized slot per (scope, instrument),
//! allocated once when the registry is built for a known number of
//! scopes, so a recording call is a checked index and an add: no
//! lookup, no allocation.
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

use crate::instruments::{Busy, SLOTS};
use crate::time::Ps;
use serde::Serialize;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

#[derive(Debug)]
struct Registry {
    /// Every scope's busy integrals in picoseconds, scope `s` at
    /// `[s * SLOTS, (s + 1) * SLOTS)`.
    busy: Box<[Cell<u64>]>,
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

/// Shared handle to a metrics registry (see module docs).
#[derive(Debug, Clone)]
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
                busy: (0..scopes * SLOTS).map(|_| Cell::new(0)).collect(),
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

    /// The slot of instrument `id` of `scope`, if the registry is
    /// enabled and holds that scope.
    #[inline]
    fn slot(&self, scope: usize, id: Busy) -> Option<&Cell<u64>> {
        let r = self.inner.as_ref()?;
        r.busy.get(scope * SLOTS + usize::from(id.0))
    }

    /// Accumulate `service` into busy integral `id` of `scope`.
    #[inline]
    pub fn busy(&self, scope: u32, id: Busy, service: Ps) {
        if let Some(slot) = self.slot(scope as usize, id) {
            slot.set(slot.get() + service.as_ps());
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

    /// Read a busy integral (zero when disabled).
    pub fn busy_total(&self, scope: u32, id: Busy) -> Ps {
        Ps(self.slot(scope as usize, id).map_or(0, Cell::get))
    }

    /// Sum of a busy integral across all scopes.
    pub fn busy_total_all_scopes(&self, id: Busy) -> Ps {
        let Some(r) = &self.inner else {
            return Ps::ZERO;
        };
        let slots = r.busy.iter().skip(usize::from(id.0)).step_by(SLOTS);
        Ps(slots.map(Cell::get).sum())
    }

    /// Trace events evicted from the ring because it was full.
    pub fn trace_dropped(&self) -> u64 {
        let ring = self.inner.as_ref().and_then(|r| r.trace.as_ref());
        ring.map_or(0, |ring| ring.borrow().dropped)
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
    use crate::instruments::{IOAT_CHANNEL, IOAT_POLL_WAIT, LINK_WIRE};

    #[test]
    fn disabled_handle_records_nothing() {
        let m = Metrics::disabled();
        m.busy(0, LINK_WIRE, Ps::ns(100));
        m.trace(Ps::ZERO, 0, "c", "w", 1, 2);
        assert!(!m.is_enabled());
        assert_eq!(m.busy_total(0, LINK_WIRE), Ps::ZERO);
        assert_eq!(m.busy_total_all_scopes(LINK_WIRE), Ps::ZERO);
        assert!(m.trace_events().is_empty());
    }

    #[test]
    fn clones_share_one_registry() {
        let m = Metrics::new(3);
        let m2 = m.clone();
        m.busy(1, IOAT_CHANNEL, Ps::ns(2));
        m2.busy(1, IOAT_CHANNEL, Ps::ns(3));
        m2.busy(1, LINK_WIRE, Ps::ns(40));
        m.busy(2, LINK_WIRE, Ps::ns(60));
        assert_eq!(m.busy_total(1, IOAT_CHANNEL), Ps::ns(5));
        assert_eq!(m.busy_total_all_scopes(LINK_WIRE), Ps::ns(100));
        assert_eq!(m.busy_total_all_scopes(IOAT_POLL_WAIT), Ps::ZERO);
    }

    #[test]
    fn out_of_range_scopes_record_nothing() {
        let m = Metrics::new(1);
        m.busy(1, LINK_WIRE, Ps::ns(1));
        m.busy(7, IOAT_POLL_WAIT, Ps::ns(1));
        assert_eq!(m.busy_total(1, LINK_WIRE), Ps::ZERO);
        assert_eq!(m.busy_total_all_scopes(LINK_WIRE), Ps::ZERO);
        assert_eq!(m.busy_total_all_scopes(IOAT_POLL_WAIT), Ps::ZERO);
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
        assert_eq!(m.trace_dropped(), 3);
    }
}
