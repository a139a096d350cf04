//! CPU cores with per-category busy accounting.
//!
//! Each core is a FIFO server: driver syscalls, bottom halves and
//! application work queue behind one another on the core they are
//! pinned/dispatched to. Every piece of work carries a category label;
//! the integrated per-category busy time divided by the experiment
//! duration is what the paper's Figure 9 plots (user-library vs driver
//! vs bottom-half receive CPU usage).

use crate::topology::{CoreId, Topology};
use omx_sim::{BusyMeter, FifoServer, Ps};

/// Category labels used across the stack. Plain `&'static str` so the
/// meter stays allocation-free and new categories need no enum churn.
pub mod category {
    /// User-space library work (posting requests, reaping events,
    /// copying ring data into application buffers).
    pub const USER_LIB: &str = "user-library";
    /// Driver work performed in syscall context (commands, pinning,
    /// shared-memory copies).
    pub const DRIVER: &str = "driver";
    /// Bottom-half receive processing (header decode, copies, I/OAT
    /// submissions, completion polling).
    pub const BH: &str = "bottom-half";
    /// Hard-IRQ handler time.
    pub const IRQ: &str = "irq";
    /// Application compute time (used by MPI kernels).
    pub const APP: &str = "app";
}

/// One CPU core.
#[derive(Debug, Clone, Default)]
pub struct Core {
    server: FifoServer,
    meter: BusyMeter,
}

impl Core {
    /// Run `work` of the given `cat` starting no earlier than `now`;
    /// returns `(start, finish)` after FIFO queueing on this core.
    pub fn run(&mut self, now: Ps, work: Ps, cat: &'static str) -> (Ps, Ps) {
        let span = self.server.admit(now, work);
        self.meter.charge(cat, work);
        span
    }

    /// When this core next becomes idle.
    pub fn busy_until(&self) -> Ps {
        self.server.busy_until()
    }

    /// Busy time charged to `cat` so far.
    pub fn busy_in(&self, cat: &str) -> Ps {
        self.meter.total(cat)
    }

    /// The category meter (read-only).
    pub fn meter(&self) -> &BusyMeter {
        &self.meter
    }

    /// Total busy time across categories.
    pub fn busy_total(&self) -> Ps {
        self.server.busy_total()
    }
}

/// All cores of one host.
#[derive(Debug, Clone)]
pub struct CpuSet {
    topology: Topology,
    cores: Vec<Core>,
}

impl CpuSet {
    /// Cores for `topology`, all idle.
    pub fn new(topology: Topology) -> Self {
        CpuSet {
            topology,
            cores: (0..topology.num_cores()).map(|_| Core::default()).collect(),
        }
    }

    /// The host topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Mutable access to one core.
    pub fn core_mut(&mut self, id: CoreId) -> &mut Core {
        &mut self.cores[id.0 as usize]
    }

    /// Shared access to one core.
    pub fn core(&self, id: CoreId) -> &Core {
        &self.cores[id.0 as usize]
    }

    /// Run work on a core (convenience forwarding to [`Core::run`]).
    pub fn run_on(&mut self, core: CoreId, now: Ps, work: Ps, cat: &'static str) -> (Ps, Ps) {
        self.core_mut(core).run(now, work, cat)
    }

    /// Host-wide meter: sum of all per-core meters.
    pub fn merged_meter(&self) -> BusyMeter {
        let mut m = BusyMeter::new();
        for c in &self.cores {
            m.merge(c.meter());
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_queues_fifo_per_core() {
        let mut cpus = CpuSet::new(Topology::default());
        let (s1, f1) = cpus.run_on(CoreId(0), Ps::ZERO, Ps::us(10), category::BH);
        let (s2, f2) = cpus.run_on(CoreId(0), Ps::us(2), Ps::us(5), category::DRIVER);
        assert_eq!((s1, f1), (Ps::ZERO, Ps::us(10)));
        assert_eq!((s2, f2), (Ps::us(10), Ps::us(15)));
        // A different core is unaffected.
        let (s3, _) = cpus.run_on(CoreId(1), Ps::us(2), Ps::us(5), category::BH);
        assert_eq!(s3, Ps::us(2));
    }

    #[test]
    fn categories_accumulate_independently() {
        let mut cpus = CpuSet::new(Topology::default());
        cpus.run_on(CoreId(0), Ps::ZERO, Ps::us(10), category::BH);
        cpus.run_on(CoreId(0), Ps::ZERO, Ps::us(4), category::DRIVER);
        cpus.run_on(CoreId(1), Ps::ZERO, Ps::us(6), category::BH);
        assert_eq!(cpus.core(CoreId(0)).busy_in(category::BH), Ps::us(10));
        assert_eq!(cpus.core(CoreId(0)).busy_in(category::DRIVER), Ps::us(4));
        let merged = cpus.merged_meter();
        assert_eq!(merged.total(category::BH), Ps::us(16));
        assert_eq!(merged.total(category::DRIVER), Ps::us(4));
        assert_eq!(merged.total(category::USER_LIB), Ps::ZERO);
    }

    #[test]
    fn busy_until_reflects_backlog() {
        let mut cpus = CpuSet::new(Topology::default());
        cpus.run_on(CoreId(0), Ps::ZERO, Ps::us(3), category::BH);
        assert_eq!(cpus.core(CoreId(0)).busy_until(), Ps::us(3));
        assert_eq!(cpus.core(CoreId(0)).busy_total(), Ps::us(3));
    }
}
