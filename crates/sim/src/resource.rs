//! Serially-reusable resources.
//!
//! A [`FifoServer`] models anything that serves one job at a time in
//! arrival order: the Ethernet wire, an I/OAT DMA channel, a CPU core.
//! Admission returns the job's `(start, finish)` interval; the server
//! integrates its busy time so utilization can be reported afterwards
//! (that integral is what Figure 9 of the paper plots, per category).

use crate::time::Ps;

/// A FIFO single-server queue with busy-time integration.
///
/// The server itself holds no job payloads; callers keep their own state
/// and use the returned completion times to schedule events. Its busy
/// integral is the only record of a resource's busy time: a run's
/// wire and I/OAT channel breakdown is summed from it.
#[derive(Debug, Clone)]
pub struct FifoServer {
    /// Time at which the server next becomes idle.
    busy_until: Ps,
    /// Total busy time integrated over all admitted jobs.
    busy_total: Ps,
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
        }
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
        (start, finish)
    }

    /// When the server next becomes idle (equals the finish time of the
    /// last admitted job, or zero if none).
    #[inline]
    pub fn busy_until(&self) -> Ps {
        self.busy_until
    }

    /// Total integrated busy time.
    #[inline]
    pub fn busy_total(&self) -> Ps {
        self.busy_total
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
    }
}
