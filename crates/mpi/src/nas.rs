//! A NAS-IS-like communication kernel (§IV-D: "up to 10 % performance
//! increase on the NAS parallel benchmarks, especially on IS which
//! relies on large messages").
//!
//! IS (integer sort) per iteration: rank local key counting, a small
//! allreduce of bucket counts, a small alltoall of bucket sizes, then
//! the heavy alltoallv moving the keys themselves — the large messages
//! the paper credits for the I/OAT gain.

use crate::ops::{reduce_cost, Phase, Script};
use omx_sim::Ps;

/// Build per-rank scripts for an IS-like run.
///
/// * `np` — ranks (power of two),
/// * `total_keys_bytes` — total key volume per iteration (split evenly
///   across all rank pairs in the alltoallv),
/// * `iters` — iterations.
pub fn is_scripts(np: usize, total_keys_bytes: u64, iters: u32) -> Vec<Script> {
    assert!(np.is_power_of_two() && np >= 2);
    let bucket_bytes = 1 << 10; // bucket-count vectors
    let size_exchange = 256; // per-pair size announcements
    let keys_per_pair = total_keys_bytes / (np as u64 * np as u64);
    let mut scripts: Vec<Script> = vec![Vec::new(); np];
    for _ in 0..iters {
        for (rank, script) in scripts.iter_mut().enumerate() {
            // Local key work: counting pass + bucket scatter pass +
            // final ranking pass over this rank's share of the keys
            // (IS is compute-heavy; communication is roughly a fifth
            // of the iteration).
            let local = total_keys_bytes / np as u64;
            script.push(Phase::compute(Ps::ps(local * 2500)));
            // Allreduce of bucket counts (recursive doubling).
            for s in 0..np.trailing_zeros() {
                let partner = rank ^ (1usize << s);
                script.push(
                    Phase::sendrecv(
                        partner,
                        bucket_bytes,
                        100 + s,
                        partner,
                        bucket_bytes,
                        100 + s,
                    )
                    .with_compute(reduce_cost(bucket_bytes)),
                );
            }
            // Alltoall of bucket sizes (tiny).
            for i in 1..np {
                let partner = rank ^ i;
                script.push(Phase::sendrecv(
                    partner,
                    size_exchange,
                    200 + i as u32,
                    partner,
                    size_exchange,
                    200 + i as u32,
                ));
            }
            // Alltoallv of the keys (large messages — the I/OAT case).
            for i in 1..np {
                let partner = rank ^ i;
                let mut ph = Phase::sendrecv(
                    partner,
                    keys_per_pair,
                    300 + i as u32,
                    partner,
                    keys_per_pair,
                    300 + i as u32,
                );
                if i == np - 1 && rank == 0 {
                    ph.mark = true;
                }
                script.push(ph);
            }
            if rank == 0 && np == 2 {
                // With np=2 the single alltoallv phase already marked.
            }
        }
    }
    scripts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_scripts, Layout};
    use open_mx::cluster::ClusterParams;
    use open_mx::config::OmxConfig;

    #[test]
    fn scripts_balanced() {
        let scripts = is_scripts(4, 8 << 20, 2);
        let mut sends = Vec::new();
        let mut recvs = Vec::new();
        for (rank, s) in scripts.iter().enumerate() {
            for ph in s {
                for x in &ph.sends {
                    sends.push((rank, x.to, x.tag, x.bytes));
                }
                for x in &ph.recvs {
                    recvs.push((x.from, rank, x.tag, x.bytes));
                }
            }
        }
        sends.sort_unstable();
        recvs.sort_unstable();
        assert_eq!(sends, recvs);
    }

    #[test]
    fn ioat_gains_on_is() {
        let base = run_scripts(
            ClusterParams::default(),
            Layout::OnePerNode,
            is_scripts(2, 8 << 20, 3),
        );
        let p = ClusterParams::with_cfg(OmxConfig::with_ioat());
        let ioat = run_scripts(p, Layout::OnePerNode, is_scripts(2, 8 << 20, 3));
        assert!(
            ioat.run.end < base.run.end,
            "I/OAT {} vs memcpy {}",
            ioat.run.end,
            base.run.end
        );
    }
}
