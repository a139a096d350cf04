//! Serially-reusable resources.
//!
//! A [`FifoServer`] models anything that serves one job at a time in
//! arrival order: the Ethernet wire, an I/OAT DMA channel, a CPU core.
//! Admission returns the job's `(start, finish)` interval; the server
//! integrates its busy time so utilization can be reported afterwards
//! (that integral is what Figure 9 of the paper plots, per category).

use crate::instruments::Busy;
use crate::metrics::Metrics;
use crate::time::Ps;

/// A FIFO single-server queue with busy-time integration.
///
/// The server itself holds no job payloads; callers keep their own state
/// and use the returned completion times to schedule events.
///
/// A server can optionally carry a meter ([`Self::attach_meter`]): each
/// admitted job's service time then also accumulates into a busy
/// instrument of a shared [`Metrics`] registry, so per-resource
/// occupancy is summed per node without the owner exposing every
/// internal server.
#[derive(Debug, Clone)]
pub struct FifoServer {
    /// Time at which the server next becomes idle.
    busy_until: Ps,
    /// Total busy time integrated over all admitted jobs.
    busy_total: Ps,
    /// Optional metrics destination for admitted jobs.
    meter: Option<Meter>,
}

#[derive(Debug, Clone)]
struct Meter {
    metrics: Metrics,
    scope: u32,
    id: Busy,
}

impl Default for FifoServer {
    fn default() -> Self {
        Self::new()
    }
}

impl FifoServer {
    /// An idle server.
    pub fn new() -> Self {
        FifoServer {
            busy_until: Ps::ZERO,
            busy_total: Ps::ZERO,
            meter: None,
        }
    }

    /// Report every admitted job's service time to instrument `id` of
    /// `scope` in `metrics`. Replaces any earlier meter.
    pub fn attach_meter(&mut self, metrics: Metrics, scope: u32, id: Busy) {
        self.meter = if metrics.is_enabled() {
            Some(Meter { metrics, scope, id })
        } else {
            None
        };
    }

    /// Admit a job of length `service` at time `now`.
    ///
    /// The job starts when the server frees up (`max(now, busy_until)`)
    /// and occupies it for `service`. Returns `(start, finish)`.
    pub fn admit(&mut self, now: Ps, service: Ps) -> (Ps, Ps) {
        let start = now.max(self.busy_until);
        let finish = start + service;
        self.busy_until = finish;
        self.busy_total += service;
        if let Some(meter) = &self.meter {
            meter.metrics.busy(meter.scope, meter.id, service);
        }
        (start, finish)
    }

    /// When the server next becomes idle (equals the finish time of the
    /// last admitted job, or zero if none).
    #[inline]
    pub fn busy_until(&self) -> Ps {
        self.busy_until
    }

    /// Whether a job admitted at `now` would have to queue.
    #[inline]
    pub fn is_busy_at(&self, now: Ps) -> bool {
        self.busy_until > now
    }

    /// Backlog seen by an arrival at `now`: how long it would wait
    /// before starting service.
    #[inline]
    pub fn backlog_at(&self, now: Ps) -> Ps {
        self.busy_until.saturating_sub(now)
    }

    /// Total integrated busy time.
    #[inline]
    pub fn busy_total(&self) -> Ps {
        self.busy_total
    }

    /// Fraction of `[0, horizon]` the server spent busy. The horizon is
    /// usually the experiment end time. Clamped to `[0, 1]` — a job that
    /// overruns the horizon only counts up to it.
    pub fn utilization(&self, horizon: Ps) -> f64 {
        if horizon == Ps::ZERO {
            return 0.0;
        }
        let busy = self.busy_total.min(horizon);
        busy.as_ps() as f64 / horizon.as_ps() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_server_starts_immediately() {
        let mut s = FifoServer::new();
        let (start, finish) = s.admit(Ps::ns(10), Ps::ns(5));
        assert_eq!(start, Ps::ns(10));
        assert_eq!(finish, Ps::ns(15));
        assert_eq!(s.busy_until(), Ps::ns(15));
    }

    #[test]
    fn busy_server_queues_fifo() {
        let mut s = FifoServer::new();
        s.admit(Ps::ZERO, Ps::ns(100));
        let (start, finish) = s.admit(Ps::ns(10), Ps::ns(50));
        assert_eq!(start, Ps::ns(100));
        assert_eq!(finish, Ps::ns(150));
        // A third job arriving after the backlog drains starts on time.
        let (start, _) = s.admit(Ps::ns(500), Ps::ns(1));
        assert_eq!(start, Ps::ns(500));
    }

    #[test]
    fn busy_accounting_integrates_service_only() {
        let mut s = FifoServer::new();
        s.admit(Ps::ZERO, Ps::ns(100));
        // The idle gap 100..300 is not counted.
        assert_eq!(
            s.admit(Ps::ns(300), Ps::ns(100)),
            (Ps::ns(300), Ps::ns(400))
        );
        assert_eq!(s.busy_total(), Ps::ns(200));
        let u = s.utilization(Ps::ns(400));
        assert!((u - 0.5).abs() < 1e-9, "got {u}");
    }

    #[test]
    fn utilization_edge_cases() {
        let s = FifoServer::new();
        assert_eq!(s.utilization(Ps::ZERO), 0.0);
        assert_eq!(s.utilization(Ps::ns(10)), 0.0);
        let mut s = FifoServer::new();
        s.admit(Ps::ZERO, Ps::ns(100));
        // Horizon shorter than busy time clamps to 1.0.
        assert_eq!(s.utilization(Ps::ns(50)), 1.0);
    }

    #[test]
    fn attached_meter_mirrors_busy_time() {
        use crate::instruments::LINK_WIRE;
        let m = Metrics::new(4);
        let mut s = FifoServer::new();
        s.attach_meter(m.clone(), 3, LINK_WIRE);
        s.admit(Ps::ZERO, Ps::ns(100));
        s.admit(Ps::ns(500), Ps::ns(50));
        assert_eq!(m.busy_total(3, LINK_WIRE), s.busy_total());
        // A disabled registry never attaches, keeping admit at two
        // compares and three adds.
        let mut s2 = FifoServer::new();
        s2.attach_meter(Metrics::disabled(), 0, LINK_WIRE);
        s2.admit(Ps::ZERO, Ps::ns(1));
        assert!(s2.meter.is_none());
    }

    #[test]
    fn backlog_reports_waiting_time() {
        let mut s = FifoServer::new();
        s.admit(Ps::ZERO, Ps::ns(100));
        assert_eq!(s.backlog_at(Ps::ns(40)), Ps::ns(60));
        assert_eq!(s.backlog_at(Ps::ns(100)), Ps::ZERO);
        assert!(s.is_busy_at(Ps::ns(99)));
        assert!(!s.is_busy_at(Ps::ns(100)));
    }
}
