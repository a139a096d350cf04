//! Criterion benches of the simulator's hot paths: the DES engine,
//! the wire protocol codec, the matcher, the hardware cost models and
//! a full end-to-end ping-pong simulation per figure family.

use bytes::Bytes;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use omx_hw::mem::{CopyContext, MemModel};
use omx_hw::{Distance, HwParams, IoatEngine};
use omx_sim::{Ps, ReferenceSim, Sim};
use open_mx::cluster::ClusterParams;
use open_mx::harness::copybench::{copy_time, CopyEngine};
use open_mx::harness::{run_pingpong, PingPongConfig, Placement};
use open_mx::matching::{Matcher, PostedRecv};
use open_mx::proto::Packet;
use open_mx::ReqId;

/// One bench body over both engine types (identical APIs, no shared
/// trait): `<name>` runs the timing wheel, `<name>_reference` the
/// retired `BinaryHeap` scheduler it must beat.
macro_rules! engine_bench {
    ($c:expr, $name:literal, |$sim:ident| $body:block) => {
        $c.bench_function($name, |b| {
            b.iter(|| {
                let mut $sim: Sim<u64> = Sim::new();
                black_box($body)
            })
        });
        $c.bench_function(concat!($name, "_reference"), |b| {
            b.iter(|| {
                let mut $sim: ReferenceSim<u64> = ReferenceSim::new();
                black_box($body)
            })
        });
    };
}

fn bench_engine(c: &mut Criterion) {
    engine_bench!(c, "sim_engine_schedule_run_10k", |sim| {
        let mut world = 0u64;
        for i in 0..10_000u64 {
            sim.schedule_at(Ps::ns(i), |w: &mut u64, _| *w += 1);
        }
        sim.run(&mut world);
        world
    });
    // 10k events at one instant: the whole burst lands in a single
    // wheel slot and must drain FIFO.
    engine_bench!(c, "sim_engine_same_instant_burst_10k", |sim| {
        let mut world = 0u64;
        let at = Ps::us(3);
        for _ in 0..10_000u64 {
            sim.schedule_at(at, |w: &mut u64, _| *w += 1);
        }
        sim.run(&mut world);
        world
    });
    // Events 100 µs apart — every one beyond the ~67 µs wheel window,
    // exercising the overflow heap and the cascade.
    engine_bench!(c, "sim_engine_far_future_overflow_10k", |sim| {
        let mut world = 0u64;
        for i in 0..10_000u64 {
            sim.schedule_at(Ps::us(100 * i), |w: &mut u64, _| *w += 1);
        }
        sim.run(&mut world);
        world
    });
    // Cancel-heavy: 3 of every 4 timers are revoked before firing
    // (retransmit timers in a healthy run).
    engine_bench!(c, "sim_engine_cancel_heavy_10k", |sim| {
        let mut world = 0u64;
        let ids: Vec<_> = (0..10_000u64)
            .map(|i| sim.schedule_at_cancellable(Ps::ns(10 + i), |w: &mut u64, _| *w += 1))
            .collect();
        for (i, id) in ids.into_iter().enumerate() {
            if i % 4 != 0 {
                sim.cancel(id);
            }
        }
        sim.run(&mut world);
        world
    });
}

fn bench_protocol(c: &mut Criterion) {
    let pkt = Packet::LargeFrag {
        src_ep: 1,
        dst_ep: 2,
        recv_handle: 88,
        frag_idx: 17,
        offset: 17 * 4096,
        data: Bytes::from(vec![0x5Au8; 4096]),
    };
    // The encoder consumes its packet and the parser its payload, so
    // each iteration also pays one refcount bump for the clone.
    c.bench_function("proto_encode_4k_frag", |b| {
        b.iter(|| black_box(pkt.clone().encode()))
    });
    let (header, payload) = pkt.encode();
    c.bench_function("proto_parse_4k_frag", |b| {
        b.iter(|| black_box(Packet::parse(&header, payload.clone()).expect("parses")))
    });
}

fn bench_matcher(c: &mut Criterion) {
    c.bench_function("matcher_post_and_match_64", |b| {
        b.iter(|| {
            let mut m = Matcher::new();
            for i in 0..64u64 {
                m.post_recv(PostedRecv {
                    req: ReqId(i),
                    match_info: i,
                    mask: u64::MAX,
                    len: 4096,
                });
            }
            for i in 0..64u64 {
                black_box(m.match_incoming(i));
            }
        })
    });
}

fn bench_models(c: &mut Criterion) {
    let hw = HwParams::default();
    c.bench_function("memcpy_model_1mb", |b| {
        let ctx = CopyContext::uncached(Distance::SameSocket);
        b.iter(|| black_box(MemModel::copy_time(&hw, 1 << 20, 256, &ctx)))
    });
    c.bench_function("ioat_model_1mb", |b| {
        b.iter(|| black_box(copy_time(&hw, CopyEngine::Ioat, 1 << 20, 4096)))
    });
    c.bench_function("ioat_submit_256_descriptors", |b| {
        b.iter(|| {
            let mut e = IoatEngine::new(&hw);
            for _ in 0..256 {
                black_box(e.submit(&hw, Ps::ZERO, 0, 4096, 1));
            }
        })
    });
}

fn bench_e2e(c: &mut Criterion) {
    let mut g = c.benchmark_group("e2e_pingpong_simulation");
    g.sample_size(10);
    for size in [4096u64, 256 << 10] {
        g.bench_function(format!("{size}B"), |b| {
            b.iter(|| {
                let mut cfg = PingPongConfig::new(
                    ClusterParams::default(),
                    size,
                    Placement::TwoNodes {
                        core_a: omx_hw::CoreId(2),
                        core_b: omx_hw::CoreId(2),
                    },
                );
                cfg.iters = 3;
                cfg.warmup = 1;
                black_box(run_pingpong(cfg).throughput_mibs)
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_engine,
    bench_protocol,
    bench_matcher,
    bench_models,
    bench_e2e
);
criterion_main!(benches);
