//! A fixed host-speed probe.
//!
//! On a shared host the same run can take 1.7× longer in one minute
//! than in the next. The probe is three small kernels owned by the
//! benchmark — integer mixing, an ordered map under insert/remove with
//! heap churn, and copies between two 8 MiB buffers — timed next to
//! every measured run. Host times are scaled by `probe / REFERENCE_NS`,
//! so a phase in which the host runs slowly slows the probe too and
//! largely cancels out. The probe calls no code of the system under
//! test: a change to the simulator cannot move it.

use crate::trace::now_ns;
use crate::workloads::Rng;
use std::collections::BTreeMap;
use std::hint::black_box;

/// The probe's duration on the host the benchmark was defined on (two
/// vCPUs of a shared VM). Host-time metrics are reported at that speed.
const REFERENCE_NS: f64 = 35e6;

/// How much slower than the reference host this host runs now: the
/// probe's duration over [`REFERENCE_NS`].
pub fn slowdown() -> f64 {
    let mut src = vec![1u8; 8 << 20];
    let mut dst = vec![2u8; 8 << 20];
    let mut rng = Rng::new(1);
    let mut map = BTreeMap::new();
    let t0 = now_ns();
    let mut acc = 0u64;
    for _ in 0..5_000_000 {
        acc ^= rng.next_u64();
    }
    black_box(acc);
    for i in 0..100_000u64 {
        map.insert(rng.next_u64() % 50_000, Box::new(i));
        if i % 2 == 0 {
            map.remove(&(rng.next_u64() % 50_000));
        }
    }
    black_box(map.len());
    for _ in 0..4 {
        dst.copy_from_slice(&src);
        src.copy_from_slice(&dst);
    }
    black_box(&dst);
    (now_ns() - t0) as f64 / REFERENCE_NS
}
