//! The native MXoE stack inside the cluster world (Fig 11/12 baseline).
//!
//! The same wire and the same applications, but the Myri-10G firmware
//! does what Open-MX cannot: it matches incoming fragments and
//! deposits them *directly* into the posted application buffer. No
//! ring skbuffs, no interrupts-per-fragment, no BH and — crucially —
//! no host receive copy. Costs come from [`omx_mx::MxParams`]; the
//! per-fragment firmware overhead caps large-message throughput near
//! the 1140 MiB/s the paper measures for MX.

use crate::cluster::Cluster;
use crate::matching::Unexpected;
use crate::proto::Packet;
use crate::{EpAddr, EpIdx, NodeId, ReqId};
use omx_ethernet::EthFrame;
use omx_hw::cpu::category;
use omx_sim::{Ps, Sim};
use std::collections::BTreeMap;

/// One in-progress MX "get" (rendezvous pull) on the receiver.
#[derive(Debug)]
pub struct MxPull {
    /// Receiving endpoint.
    pub ep: EpIdx,
    /// The receive being filled.
    pub req: ReqId,
    /// Sender address.
    pub src: EpAddr,
    /// Sender handle for the Notify.
    pub sender_handle: u32,
    /// Total bytes expected.
    pub total: u64,
    /// Bytes deposited.
    pub received: u64,
}

/// Per-node MXoE firmware state.
#[derive(Debug, Default)]
pub struct MxNodeState {
    /// In-progress pulls by receiver handle.
    pub pulls: BTreeMap<u32, MxPull>,
    /// Next pull handle.
    pub next_handle: u32,
}

impl Cluster {
    /// NIC doorbell processing of an MX send (already past the library
    /// post cost).
    pub(crate) fn mx_send(&mut self, sim: &mut Sim<Cluster>, me: EpAddr, req: ReqId) {
        let now = sim.now();
        let (dest, match_info, msg_seq, data) = {
            let st = self.ep(me).sends.get(&req).expect("send exists");
            (st.dest, st.match_info, st.msg_seq, st.data.clone())
        };
        let mx = self.p.mx;
        if dest.node == me.node {
            // MX shared-memory path: the sender library copies into a
            // shared segment, the receiver library copies out (two CPU
            // copies, no NIC). The copies pipeline per segment, so the
            // end-to-end latency is the slower copy plus one segment.
            let len = data.len() as u64;
            let seg = len.min(32 << 10);
            let t_in = mx.shm_copy_in_rate.time_for(len);
            let (_, fin_in) =
                self.run_core(me.node, self.ep(me).core, now, t_in, category::USER_LIB);
            if let Some(st) = self.ep_mut(me).sends.get_mut(&req) {
                st.acked = true;
            }
            self.finish_send(sim, me, req, fin_in);
            let t_out = mx.shm_copy_out_rate.time_for(len);
            let peer_core = self.ep(dest).core;
            // The receiver starts once the first segment landed and
            // cannot finish before the sender's last segment plus one
            // copy-out of it.
            let start_out = now + mx.shm_copy_in_rate.time_for(seg);
            let (_, fin_out) =
                self.run_core(dest.node, peer_core, start_out, t_out, category::USER_LIB);
            let fin_out = fin_out.max(fin_in + mx.shm_copy_out_rate.time_for(seg));
            sim.schedule_at(fin_out, move |c: &mut Cluster, s| {
                let now = s.now();
                c.mx_deposit_eager(
                    s,
                    dest,
                    me,
                    match_info,
                    msg_seq,
                    data.len() as u64,
                    0,
                    &data,
                    now,
                );
            });
            return;
        }
        if data.len() as u64 > mx.rndv_threshold {
            // Rendezvous: announce; the receiver pulls.
            let handle = self.node_mut(me.node).driver.alloc_tx_handle();
            self.node_mut(me.node).driver.tx_large.insert(
                handle,
                crate::driver::TxLargeState {
                    ep: me.ep,
                    req,
                    dest,
                },
            );
            {
                let st = self.ep_mut(me).sends.get_mut(&req).expect("send exists");
                st.sender_handle = Some(handle);
            }
            let pkt = Packet::RndvReq {
                src_ep: me.ep.0,
                dst_ep: dest.ep.0,
                match_info,
                msg_seq,
                msg_len: data.len() as u64,
                sender_handle: handle,
            };
            self.send_payload(sim, me.node, dest.node, pkt, now, Ps::ZERO);
            return;
        }
        // Eager: fragment and stream; the NIC DMA engine does the work.
        let frag = mx.frag_size as usize;
        let total = data.len();
        let count = total.div_ceil(frag).max(1);
        for i in 0..count {
            let lo = i * frag;
            let hi = (lo + frag).min(total);
            let pkt = Packet::MediumFrag {
                src_ep: me.ep.0,
                dst_ep: dest.ep.0,
                match_info,
                msg_seq,
                msg_len: total as u32,
                frag_idx: i as u16,
                frag_count: count as u16,
                offset: lo as u32,
                data: data.slice(lo..hi),
            };
            self.send_payload(sim, me.node, dest.node, pkt, now, mx.nic_frag_overhead);
        }
        // Eager MX sends complete once handed to the NIC.
        if let Some(st) = self.ep_mut(me).sends.get_mut(&req) {
            st.acked = true;
        }
        self.finish_send(sim, me, req, now);
    }

    /// MXoE frame arrival: the firmware handles everything in-line,
    /// zero host CPU.
    pub(crate) fn mx_on_frame(&mut self, sim: &mut Sim<Cluster>, node: NodeId, frame: EthFrame) {
        let pkt = match Packet::parse(&frame.header, frame.payload) {
            Ok(p) => p,
            Err(e) => {
                debug_assert!(false, "malformed MX frame: {e:?}");
                return;
            }
        };
        let src_node = NodeId(frame.src);
        let now = sim.now();
        match pkt {
            Packet::MediumFrag {
                src_ep,
                dst_ep,
                match_info,
                msg_seq,
                msg_len,
                offset,
                data,
                ..
            } => {
                let src = EpAddr {
                    node: src_node,
                    ep: EpIdx(src_ep),
                };
                let me = EpAddr {
                    node,
                    ep: EpIdx(dst_ep),
                };
                self.mx_deposit_eager(
                    sim,
                    me,
                    src,
                    match_info,
                    msg_seq,
                    msg_len as u64,
                    offset as u64,
                    &data,
                    now,
                );
            }
            Packet::RndvReq {
                src_ep,
                dst_ep,
                match_info,
                msg_seq,
                msg_len,
                sender_handle,
            } => {
                let src = EpAddr {
                    node: src_node,
                    ep: EpIdx(src_ep),
                };
                let me = EpAddr {
                    node,
                    ep: EpIdx(dst_ep),
                };
                match self.ep_mut(me).matcher.match_incoming(match_info) {
                    Some(posted) => {
                        self.lib_adopt_rndv(
                            sim,
                            me,
                            posted.req,
                            src,
                            match_info,
                            msg_seq,
                            msg_len,
                            sender_handle,
                            now + self.p.mx.nic_match_latency,
                        );
                    }
                    None => self.ep_mut(me).matcher.push_unexpected(Unexpected::Rndv {
                        src,
                        match_info,
                        msg_seq,
                        msg_len,
                        sender_handle,
                    }),
                }
            }
            Packet::PullReq {
                dst_ep,
                sender_handle,
                recv_handle,
                frag_start,
                frag_count,
                ..
            } => {
                let me = EpAddr {
                    node,
                    ep: EpIdx(dst_ep),
                };
                let Some(tx) = self.node(node).driver.tx_large.get(&sender_handle).copied() else {
                    return;
                };
                let (dest, data) = {
                    let st = self.ep(me).sends.get(&tx.req).expect("large send alive");
                    (st.dest, st.data.clone())
                };
                let frag = self.p.mx.frag_size;
                let overhead = self.p.mx.nic_frag_overhead;
                for i in frag_start..frag_start + frag_count {
                    let lo = (i as u64 * frag).min(data.len() as u64) as usize;
                    let hi = ((i as u64 + 1) * frag).min(data.len() as u64) as usize;
                    if lo >= hi {
                        break;
                    }
                    let pkt = Packet::LargeFrag {
                        src_ep: me.ep.0,
                        dst_ep: dest.ep.0,
                        recv_handle,
                        frag_idx: i,
                        offset: lo as u64,
                        data: data.slice(lo..hi),
                    };
                    self.send_payload(sim, node, dest.node, pkt, now, overhead);
                }
            }
            Packet::LargeFrag {
                recv_handle,
                offset,
                data,
                ..
            } => {
                self.mx_deposit_large(sim, node, recv_handle, offset, &data, now);
            }
            Packet::Notify {
                dst_ep,
                sender_handle,
                ..
            } => {
                let me = EpAddr {
                    node,
                    ep: EpIdx(dst_ep),
                };
                let Some(tx) = self.node_mut(node).driver.tx_large.remove(&sender_handle) else {
                    return;
                };
                if let Some(st) = self.ep_mut(me).sends.get_mut(&tx.req) {
                    st.acked = true;
                }
                let core = self.ep(me).core;
                let (_, fin) = self.run_core(
                    node,
                    core,
                    now,
                    self.p.mx.lib_event_cost,
                    category::USER_LIB,
                );
                self.finish_send(sim, me, tx.req, fin);
            }
            other => debug_assert!(false, "unexpected MX packet {other:?}"),
        }
    }

    /// Zero-copy eager deposit: matched fragments land straight in the
    /// application buffer; unmatched ones are buffered by the firmware
    /// and copied out at match time.
    #[allow(clippy::too_many_arguments)]
    fn mx_deposit_eager(
        &mut self,
        sim: &mut Sim<Cluster>,
        me: EpAddr,
        src: EpAddr,
        match_info: u64,
        msg_seq: u32,
        msg_len: u64,
        offset: u64,
        data: &[u8],
        now: Ps,
    ) {
        let ep = self.ep_mut(me);
        if let Some(req) = ep.apply_medium((src, msg_seq), match_info, msg_len, offset, data) {
            let core = ep.core;
            let at = now + self.p.mx.nic_match_latency;
            let (_, fin) = self.run_core(
                me.node,
                core,
                at,
                self.p.mx.lib_event_cost,
                category::USER_LIB,
            );
            self.finish_recv(sim, me, req, fin);
        }
    }

    /// Start an MX "get": one pull request for the whole message.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn mx_start_pull(
        &mut self,
        sim: &mut Sim<Cluster>,
        me: EpAddr,
        req: ReqId,
        src: EpAddr,
        sender_handle: u32,
        msg_len: u64,
        from: Ps,
    ) {
        let handle = {
            let mx = &mut self.node_mut(me.node).mx;
            mx.next_handle += 1;
            mx.pulls.insert(
                mx.next_handle,
                MxPull {
                    ep: me.ep,
                    req,
                    src,
                    sender_handle,
                    total: msg_len,
                    received: 0,
                },
            );
            mx.next_handle
        };
        let frags = self.p.mx.frags_for(msg_len) as u32;
        let pkt = Packet::PullReq {
            src_ep: me.ep.0,
            dst_ep: src.ep.0,
            sender_handle,
            recv_handle: handle,
            frag_start: 0,
            frag_count: frags,
        };
        let at = from + self.p.mx.rndv_host_cost;
        self.send_payload(sim, me.node, src.node, pkt, at, Ps::ZERO);
    }

    /// Zero-copy deposit of one pulled fragment.
    fn mx_deposit_large(
        &mut self,
        sim: &mut Sim<Cluster>,
        node: NodeId,
        recv_handle: u32,
        offset: u64,
        data: &[u8],
        now: Ps,
    ) {
        let Some((me, req, done, src, sender_handle)) = ({
            let mx = &mut self.node_mut(node).mx;
            mx.pulls.get_mut(&recv_handle).map(|p| {
                p.received += data.len() as u64;
                (
                    EpAddr { node, ep: p.ep },
                    p.req,
                    p.received >= p.total,
                    p.src,
                    p.sender_handle,
                )
            })
        }) else {
            return;
        };
        {
            let ep = self.ep_mut(me);
            if let Some(rs) = ep.recvs.get_mut(&req) {
                rs.buf.write(offset, data);
            }
        }
        if done {
            self.node_mut(node).mx.pulls.remove(&recv_handle);
            let pkt = Packet::Notify {
                src_ep: me.ep.0,
                dst_ep: src.ep.0,
                sender_handle,
            };
            self.send_payload(sim, node, src.node, pkt, now, Ps::ZERO);
            let core = self.ep(me).core;
            let at = now + self.p.mx.nic_match_latency;
            let (_, fin) =
                self.run_core(node, core, at, self.p.mx.lib_event_cost, category::USER_LIB);
            self.finish_recv(sim, me, req, fin);
        }
    }
}
