//! Per-rank script builders for the Intel MPI Benchmarks kernels the
//! paper runs in Figure 12 (plus PingPong for Figure 11).
//!
//! All algorithms are the classic power-of-two implementations (the
//! same families MPICH used at the time): binomial broadcast/reduce,
//! recursive doubling allreduce/allgather, recursive halving
//! reduce-scatter, pairwise alltoall, ring allgatherv. `np` must be a
//! power of two (2 or 4 in the paper's runs).

use crate::ops::{reduce_cost, Phase, RecvOp, Script, SendOp};
use serde::{Deserialize, Serialize};

/// The IMB kernels of Figure 12.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Kernel {
    /// Two-rank round trip.
    PingPong,
    /// Two ranks sending to each other simultaneously.
    PingPing,
    /// Ring send-receive.
    SendRecv,
    /// Bidirectional neighbor exchange.
    Exchange,
    /// Recursive-doubling allreduce.
    Allreduce,
    /// Binomial reduction to root 0.
    Reduce,
    /// Recursive-halving reduce-scatter.
    ReduceScatter,
    /// Recursive-doubling allgather.
    Allgather,
    /// Ring allgatherv.
    Allgatherv,
    /// Pairwise alltoall.
    Alltoall,
    /// Binomial broadcast from root 0.
    Bcast,
}

impl Kernel {
    /// Every kernel, in the paper's Figure 12 order.
    pub const ALL: [Kernel; 11] = [
        Kernel::PingPong,
        Kernel::PingPing,
        Kernel::SendRecv,
        Kernel::Exchange,
        Kernel::Allreduce,
        Kernel::Reduce,
        Kernel::ReduceScatter,
        Kernel::Allgather,
        Kernel::Allgatherv,
        Kernel::Alltoall,
        Kernel::Bcast,
    ];

    /// Display name matching the paper's x-axis labels.
    pub fn name(&self) -> &'static str {
        match self {
            Kernel::PingPong => "PingPong",
            Kernel::PingPing => "PingPing",
            Kernel::SendRecv => "SendRecv",
            Kernel::Exchange => "Exchange",
            Kernel::Allreduce => "Allreduce",
            Kernel::Reduce => "Reduce",
            Kernel::ReduceScatter => "Red.Scat.",
            Kernel::Allgather => "Allgather",
            Kernel::Allgatherv => "Allgatherv",
            Kernel::Alltoall => "Alltoall",
            Kernel::Bcast => "Bcast",
        }
    }

    /// Build the per-rank scripts for `np` ranks, message size `size`,
    /// `iters` iterations. Rank 0 marks the end of every iteration.
    pub fn scripts(&self, np: usize, size: u64, iters: u32) -> Vec<Script> {
        (0..np)
            .map(|rank| self.rank_script(rank, np, size, iters))
            .collect()
    }

    /// Build the script of **one** rank without materializing the
    /// whole job — the partitioned runner calls this so each shard
    /// only pays for its own ranks' scripts (a 4k-rank alltoall has
    /// ~16M phases per iteration across the job; per-rank generation
    /// keeps a shard's share of that, not all of it).
    pub fn rank_script(&self, rank: usize, np: usize, size: u64, iters: u32) -> Script {
        assert!(np.is_power_of_two() && np >= 2, "np must be a power of two");
        assert!(rank < np, "rank {rank} out of range for np {np}");
        let mut script = Vec::new();
        for _ in 0..iters {
            let mut phases: Vec<Phase> = match self {
                Kernel::PingPong => pingpong(rank, np, size),
                Kernel::PingPing => pingping(rank, np, size),
                Kernel::SendRecv => sendrecv_ring(rank, np, size),
                Kernel::Exchange => exchange(rank, np, size),
                Kernel::Allreduce => allreduce(rank, np, size),
                Kernel::Reduce => reduce(rank, np, size),
                Kernel::ReduceScatter => reduce_scatter(rank, np, size),
                Kernel::Allgather => allgather(rank, np, size),
                Kernel::Allgatherv => allgatherv(rank, np, size),
                Kernel::Alltoall => alltoall(rank, np, size),
                Kernel::Bcast => bcast(rank, np, size),
            };
            if rank == 0 {
                if let Some(last) = phases.last_mut() {
                    last.mark = true;
                }
            }
            script.extend(phases);
        }
        script
    }
}

fn log2(np: usize) -> usize {
    np.trailing_zeros() as usize
}

fn pingpong(r: usize, np: usize, size: u64) -> Vec<Phase> {
    assert!(np >= 2);
    match r {
        0 => vec![Phase::send(1, size, 0), Phase::recv(1, size, 1)],
        1 => vec![Phase::recv(0, size, 0), Phase::send(0, size, 1)],
        _ => Vec::new(), // extra ranks idle
    }
}

fn pingping(r: usize, np: usize, size: u64) -> Vec<Phase> {
    assert!(np >= 2);
    match r {
        0 => vec![Phase::sendrecv(1, size, 0, 1, size, 0)],
        1 => vec![Phase::sendrecv(0, size, 0, 0, size, 0)],
        _ => Vec::new(),
    }
}

fn sendrecv_ring(r: usize, np: usize, size: u64) -> Vec<Phase> {
    let right = (r + 1) % np;
    let left = (r + np - 1) % np;
    vec![Phase::sendrecv(right, size, 0, left, size, 0)]
}

fn exchange(r: usize, np: usize, size: u64) -> Vec<Phase> {
    let right = (r + 1) % np;
    let left = (r + np - 1) % np;
    vec![Phase {
        sends: vec![
            SendOp {
                to: right,
                bytes: size,
                tag: 0,
            },
            SendOp {
                to: left,
                bytes: size,
                tag: 1,
            },
        ],
        recvs: vec![
            RecvOp {
                from: left,
                bytes: size,
                tag: 0,
            },
            RecvOp {
                from: right,
                bytes: size,
                tag: 1,
            },
        ],
        ..Phase::default()
    }]
}

fn allreduce(r: usize, np: usize, size: u64) -> Vec<Phase> {
    (0..log2(np))
        .map(|s| {
            let partner = r ^ (1 << s);
            Phase::sendrecv(partner, size, s as u32, partner, size, s as u32)
                .with_compute(reduce_cost(size))
        })
        .collect()
}

fn reduce(r: usize, np: usize, size: u64) -> Vec<Phase> {
    let mut phases = Vec::new();
    for s in 0..log2(np) {
        let bit = 1usize << s;
        let group = bit << 1;
        if r % group == bit {
            phases.push(Phase::send(r - bit, size, s as u32));
            break; // this rank is done for the iteration
        } else if r.is_multiple_of(group) && r + bit < np {
            phases.push(Phase::recv(r + bit, size, s as u32).with_compute(reduce_cost(size)));
        }
    }
    phases
}

fn reduce_scatter(r: usize, np: usize, size: u64) -> Vec<Phase> {
    let mut phases = Vec::new();
    let mut dist = np / 2;
    let mut sz = size / 2;
    let mut step = 0u32;
    while dist >= 1 && sz > 0 {
        let partner = r ^ dist;
        phases.push(
            Phase::sendrecv(partner, sz, step, partner, sz, step).with_compute(reduce_cost(sz)),
        );
        dist /= 2;
        sz /= 2;
        step += 1;
    }
    phases
}

fn allgather(r: usize, np: usize, size: u64) -> Vec<Phase> {
    // Recursive doubling: exchanged block doubles each step, starting
    // from each rank's own `size`-byte contribution (IMB convention).
    (0..log2(np))
        .map(|s| {
            let partner = r ^ (1 << s);
            let block = size << s;
            Phase::sendrecv(partner, block, s as u32, partner, block, s as u32)
        })
        .collect()
}

fn allgatherv(r: usize, np: usize, size: u64) -> Vec<Phase> {
    // Ring: np-1 steps forwarding `size`-byte blocks.
    let right = (r + 1) % np;
    let left = (r + np - 1) % np;
    (0..np - 1)
        .map(|s| Phase::sendrecv(right, size, s as u32, left, size, s as u32))
        .collect()
}

fn alltoall(r: usize, np: usize, size: u64) -> Vec<Phase> {
    // Pairwise exchange: step i pairs rank with rank ^ i.
    (1..np)
        .map(|i| {
            let partner = r ^ i;
            Phase::sendrecv(partner, size, i as u32, partner, size, i as u32)
        })
        .collect()
}

fn bcast(r: usize, np: usize, size: u64) -> Vec<Phase> {
    let mut phases = Vec::new();
    for s in 0..log2(np) {
        let bit = 1usize << s;
        if r < bit {
            if r + bit < np {
                phases.push(Phase::send(r + bit, size, s as u32));
            }
        } else if r < bit << 1 {
            phases.push(Phase::recv(r - bit, size, s as u32));
        }
    }
    phases
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every send must have exactly one matching receive (same pair,
    /// same tag, same bytes) — otherwise the job deadlocks.
    fn check_balanced(kernel: Kernel, np: usize, size: u64) {
        let scripts = kernel.scripts(np, size, 3);
        let mut sends: Vec<(usize, usize, u32, u64)> = Vec::new();
        let mut recvs: Vec<(usize, usize, u32, u64)> = Vec::new();
        for (rank, script) in scripts.iter().enumerate() {
            for ph in script {
                for s in &ph.sends {
                    sends.push((rank, s.to, s.tag, s.bytes));
                }
                for r in &ph.recvs {
                    recvs.push((r.from, rank, r.tag, r.bytes));
                }
            }
        }
        sends.sort_unstable();
        recvs.sort_unstable();
        assert_eq!(
            sends,
            recvs,
            "{} np={np}: sends and receives must pair up",
            kernel.name()
        );
        assert!(
            !sends.is_empty(),
            "{} np={np}: kernel moved no data",
            kernel.name()
        );
    }

    #[test]
    fn all_kernels_balanced_np2_and_np4() {
        for k in Kernel::ALL {
            for np in [2usize, 4] {
                check_balanced(k, np, 128 << 10);
            }
        }
    }

    #[test]
    fn rank0_marks_every_iteration() {
        for k in Kernel::ALL {
            let scripts = k.scripts(4, 4096, 5);
            let marks = scripts[0].iter().filter(|p| p.mark).count();
            assert_eq!(marks, 5, "{}: one mark per iteration", k.name());
        }
    }

    #[test]
    fn bcast_reaches_everyone() {
        let scripts = Kernel::Bcast.scripts(4, 1024, 1);
        // Ranks 1..3 each receive exactly once.
        for (r, script) in scripts.iter().enumerate().skip(1) {
            let recvs: usize = script.iter().map(|p| p.recvs.len()).sum();
            assert_eq!(recvs, 1, "rank {r}");
        }
        // Root never receives.
        assert_eq!(scripts[0].iter().map(|p| p.recvs.len()).sum::<usize>(), 0);
    }

    #[test]
    fn reduce_scatter_halves_sizes() {
        let scripts = Kernel::ReduceScatter.scripts(4, 1 << 20, 1);
        let sizes: Vec<u64> = scripts[0]
            .iter()
            .flat_map(|p| p.sends.iter().map(|s| s.bytes))
            .collect();
        assert_eq!(sizes, vec![512 << 10, 256 << 10]);
    }

    #[test]
    fn alltoall_pairs_everyone() {
        let scripts = Kernel::Alltoall.scripts(4, 4096, 1);
        let partners: Vec<usize> = scripts[2]
            .iter()
            .flat_map(|p| p.sends.iter().map(|s| s.to))
            .collect();
        let mut sorted = partners.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 3]);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn odd_np_rejected() {
        Kernel::Allreduce.scripts(3, 1024, 1);
    }
}
