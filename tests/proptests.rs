//! Property-based tests on the core data structures and the full
//! stack: wire-codec round trips and robustness against truncation,
//! matcher semantics, cache-model invariants, DES determinism and
//! randomized end-to-end transfer integrity.

use bytes::Bytes;
use openmx_repro::ethernet::FrameHeader;
use openmx_repro::hw::cache::{CacheModel, RegionKey};
use openmx_repro::hw::{CoreId, HwParams, SubchipId};
use openmx_repro::omx::cluster::ClusterParams;
use openmx_repro::omx::config::OmxConfig;
use openmx_repro::omx::endpoint::RecvBuf;
use openmx_repro::omx::harness::{run_pingpong, PingPongConfig, Placement};
use openmx_repro::omx::matching::{matches, Matcher, PostedRecv};
use openmx_repro::omx::proto::Packet;
use openmx_repro::omx::ReqId;
use openmx_repro::sim::{Ps, Rate, Sim};
use proptest::prelude::*;

fn arb_packet() -> impl Strategy<Value = Packet> {
    let data = proptest::collection::vec(any::<u8>(), 0..4096).prop_map(Bytes::from);
    prop_oneof![
        (
            any::<u8>(),
            any::<u8>(),
            any::<u64>(),
            any::<u32>(),
            data.clone()
        )
            .prop_map(|(src_ep, dst_ep, match_info, msg_seq, data)| Packet::Tiny {
                src_ep,
                dst_ep,
                match_info,
                msg_seq,
                data
            }),
        (
            any::<u8>(),
            any::<u8>(),
            any::<u64>(),
            any::<u32>(),
            any::<u32>(),
            any::<u16>(),
            any::<u16>(),
            any::<u32>(),
            data.clone()
        )
            .prop_map(
                |(
                    src_ep,
                    dst_ep,
                    match_info,
                    msg_seq,
                    msg_len,
                    frag_idx,
                    frag_count,
                    offset,
                    data,
                )| {
                    Packet::MediumFrag {
                        src_ep,
                        dst_ep,
                        match_info,
                        msg_seq,
                        msg_len,
                        frag_idx,
                        frag_count,
                        offset,
                        data,
                    }
                }
            ),
        (
            any::<u8>(),
            any::<u8>(),
            any::<u64>(),
            any::<u32>(),
            any::<u64>(),
            any::<u32>()
        )
            .prop_map(
                |(src_ep, dst_ep, match_info, msg_seq, msg_len, sender_handle)| Packet::RndvReq {
                    src_ep,
                    dst_ep,
                    match_info,
                    msg_seq,
                    msg_len,
                    sender_handle
                }
            ),
        (
            any::<u8>(),
            any::<u8>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>()
        )
            .prop_map(
                |(src_ep, dst_ep, sender_handle, recv_handle, frag_start, frag_count)| {
                    Packet::PullReq {
                        src_ep,
                        dst_ep,
                        sender_handle,
                        recv_handle,
                        frag_start,
                        frag_count,
                    }
                }
            ),
        (
            any::<u8>(),
            any::<u8>(),
            any::<u32>(),
            any::<u32>(),
            any::<u64>(),
            data.clone()
        )
            .prop_map(|(src_ep, dst_ep, recv_handle, frag_idx, offset, data)| {
                Packet::LargeFrag {
                    src_ep,
                    dst_ep,
                    recv_handle,
                    frag_idx,
                    offset,
                    data,
                }
            }),
        (any::<u8>(), any::<u8>(), any::<u32>()).prop_map(|(src_ep, dst_ep, msg_seq)| {
            Packet::Ack {
                src_ep,
                dst_ep,
                msg_seq,
            }
        }),
        (any::<u8>(), any::<u8>(), any::<u64>(), any::<u32>(), data).prop_map(
            |(src_ep, dst_ep, match_info, msg_seq, data)| Packet::Small {
                src_ep,
                dst_ep,
                match_info,
                msg_seq,
                data
            }
        ),
        (any::<u8>(), any::<u8>(), any::<u32>()).prop_map(|(src_ep, dst_ep, sender_handle)| {
            Packet::Notify {
                src_ep,
                dst_ep,
                sender_handle,
            }
        }),
        (any::<u8>(), any::<u8>(), any::<u32>()).prop_map(|(src_ep, dst_ep, sender_handle)| {
            Packet::CreditNack {
                src_ep,
                dst_ep,
                sender_handle,
            }
        }),
    ]
}

/// Header length of each packet kind. Header plus data is the frame's
/// Ethernet payload, so these lengths set the wire time of every frame.
fn header_len(pkt: &Packet) -> usize {
    match pkt {
        Packet::Tiny { .. } | Packet::Small { .. } => 15,
        Packet::MediumFrag { .. } | Packet::RndvReq { .. } => 27,
        Packet::PullReq { .. } | Packet::LargeFrag { .. } => 19,
        Packet::Notify { .. } | Packet::Ack { .. } | Packet::CreditNack { .. } => 7,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn packet_round_trip(pkt in arb_packet()) {
        let (header, payload) = pkt.clone().encode();
        prop_assert_eq!(header.as_bytes().len(), header_len(&pkt));
        prop_assert_eq!(payload.len() as u64, pkt.data_len());
        let back = Packet::parse(&header, payload).expect("round trip parses");
        prop_assert_eq!(pkt, back);
    }

    #[test]
    fn truncated_packets_never_panic(pkt in arb_packet(), cut in 0usize..64) {
        let (header, payload) = pkt.encode();
        let full = header.as_bytes();
        // A header cut short is a parse error, never a panic...
        let head = cut.min(full.len());
        let mut short = FrameHeader::default();
        short.put(&full[..head]);
        prop_assert_eq!(Packet::parse(&short, Bytes::new()).is_ok(), head == full.len());
        // ...and a cut payload parses to a packet with shorter data.
        let data = cut.min(payload.len());
        let back = Packet::parse(&header, payload.slice(..data)).expect("whole header parses");
        prop_assert_eq!(back.data_len(), data as u64);
    }

    #[test]
    fn match_predicate_is_mask_respecting(info in any::<u64>(), mask in any::<u64>(), msg in any::<u64>()) {
        let hit = matches(info, mask, msg);
        prop_assert_eq!(hit, (msg & mask) == (info & mask));
        // Wildcard always matches; exact mask means equality.
        prop_assert!(matches(info, 0, msg));
        prop_assert_eq!(matches(info, u64::MAX, msg), info == msg);
    }

    #[test]
    fn matcher_conserves_requests(infos in proptest::collection::vec(any::<u8>(), 1..40)) {
        // Post receives for even infos, feed all infos: each message
        // either matches exactly one posted receive or none; posted
        // count decreases by exactly the number of hits.
        let mut m = Matcher::new();
        let posted: Vec<u64> = infos.iter().filter(|i| **i % 2 == 0).map(|i| *i as u64).collect();
        for (k, info) in posted.iter().enumerate() {
            m.post_recv(PostedRecv { req: ReqId(k as u64), match_info: *info, mask: u64::MAX, len: 64 });
        }
        let mut hits = 0usize;
        for info in &infos {
            if m.match_incoming(*info as u64).is_some() {
                hits += 1;
            }
        }
        prop_assert_eq!(m.posted_len(), posted.len() - hits);
        prop_assert!(hits <= posted.len());
    }

    #[test]
    fn cache_occupancy_never_exceeds_capacity(
        ops in proptest::collection::vec((0u64..8, 1u64..(8 << 20)), 1..60)
    ) {
        let hw = HwParams::default();
        let mut c = CacheModel::new();
        let cap = hw.l2_usable_bytes();
        for (key, bytes) in ops {
            c.touch(&hw, SubchipId(0), RegionKey(key), bytes);
            prop_assert!(c.occupancy(SubchipId(0)) <= cap);
            let frac = c.hit_fraction(SubchipId(0), RegionKey(key), bytes);
            prop_assert!((0.0..=1.0).contains(&frac));
        }
    }

    #[test]
    fn rate_conversions_are_consistent(bytes in 1u64..(1 << 30), mibs in 1u64..20_000) {
        let r = Rate::mib_per_sec(mibs);
        let t = r.time_for(bytes);
        prop_assert!(t > Ps::ZERO);
        let back = Rate::from_transfer(bytes, t).expect("nonzero");
        // Round-up in time_for means recovered ≤ original, within 1 ps
        // per byte of slack.
        prop_assert!(back <= r);
        prop_assert!(back.as_bytes_per_sec() as f64 >= r.as_bytes_per_sec() as f64 * 0.999);
    }

    #[test]
    fn bh_copy_cost_chunked_is_monotone_and_bounded_below(
        bytes in 0u64..(8 << 20),
        extra in 0u64..(8 << 20),
        chunk in 1u64..(64 << 10),
    ) {
        use openmx_repro::omx::cluster::Cluster;
        let cl = Cluster::new(ClusterParams::default());
        // More bytes never cost less at a fixed chunk size.
        let small = cl.bh_copy_cost_chunked(bytes, chunk);
        let big = cl.bh_copy_cost_chunked(bytes + extra, chunk);
        prop_assert!(big >= small, "chunked cost not monotone: {big} < {small}");
        // At page granularity the chunked model can only add
        // per-chunk overhead over the contiguous copy, never remove
        // cost (equality holds for page-aligned sizes).
        let page = 4096;
        let chunked = cl.bh_copy_cost_chunked(bytes, page);
        let contiguous = cl.bh_copy_cost(bytes);
        prop_assert!(
            chunked >= contiguous,
            "page-chunked {chunked} cheaper than contiguous {contiguous} for {bytes} B"
        );
    }

    /// Whatever the write sequence — out of order, duplicated,
    /// overlapping, past the posted length, leaving gaps — a receive
    /// buffer delivers exactly a zero-initialised array with the same
    /// writes applied, and nothing of the donated buffer's old bytes.
    #[test]
    fn recv_buf_delivers_a_zeroed_image_of_its_writes(
        posted in 0usize..2048,
        capacity in 0usize..4096,
        writes in proptest::collection::vec((0u64..2600, 0usize..700, any::<u8>()), 0..24),
        replay in 0usize..4,
        total in 0u64..2600,
    ) {
        // The donation is dirty: a previous message's bytes.
        let mut buf = RecvBuf::new(vec![0xEE; capacity], posted);
        let mut model = vec![0u8; posted];
        // Replaying a suffix of the sequence duplicates writes.
        let dups = writes.len().saturating_sub(replay * 2);
        for &(offset, len, seed) in writes.iter().chain(&writes[dups..]) {
            // Never zero, so a hole cannot pass for written data.
            let src: Vec<u8> = (0..len).map(|i| seed.wrapping_add(i as u8) | 1).collect();
            let start = (offset as usize).min(posted);
            let end = (start + len).min(posted);
            model[start..end].copy_from_slice(&src[..end - start]);
            prop_assert_eq!(buf.write(offset, &src), end - start);
        }
        model.truncate((total as usize).min(posted));
        prop_assert_eq!(buf.into_delivered(total), model);
    }

    #[test]
    fn des_engine_is_deterministic(times in proptest::collection::vec(0u64..1_000_000, 1..100)) {
        let run = |times: &[u64]| {
            let mut sim: Sim<Vec<u64>> = Sim::new();
            let mut world = Vec::new();
            for &t in times {
                sim.schedule_at(Ps::ns(t), move |w: &mut Vec<u64>, _| w.push(t));
            }
            sim.run(&mut world);
            world
        };
        let a = run(&times);
        let b = run(&times);
        prop_assert_eq!(&a, &b);
        let mut sorted = times.clone();
        sorted.sort_unstable();
        prop_assert_eq!(a, sorted);
    }
}

proptest! {
    // End-to-end cases are expensive; keep the case count low but the
    // coverage broad: random sizes across all message classes, random
    // I/OAT on/off, both placements.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_transfers_are_integral(
        size in 1u64..(2 << 20),
        ioat in any::<bool>(),
        local in any::<bool>(),
    ) {
        let params = ClusterParams::with_cfg(if ioat { OmxConfig::with_ioat() } else { OmxConfig::default() });
        let placement = if local {
            Placement::SameNode { core_a: CoreId(0), core_b: CoreId(4) }
        } else {
            Placement::TwoNodes { core_a: CoreId(2), core_b: CoreId(2) }
        };
        let mut cfg = PingPongConfig::new(params, size, placement);
        cfg.iters = 3;
        cfg.warmup = 1;
        let r = run_pingpong(cfg);
        prop_assert!(r.verified, "corrupted at {} B (ioat={}, local={})", size, ioat, local);
        prop_assert!(r.throughput_mibs > 0.0);
    }
}
