//! In-driver matching for medium messages (§VI future work,
//! extension).
//!
//! The paper's stack matches in the user library, which forces one
//! event — and one *synchronous* copy — per medium fragment (§III-C).
//! Moving the matching into the driver lets the BH copy fragments
//! straight into the posted buffer, offload them asynchronously like
//! large fragments, and raise a *single* event per message. This
//! module implements that plan behind `OmxConfig::kernel_matching`.

use crate::cluster::Cluster;
use crate::events::Event;
use crate::matching::PostedRecv;
use crate::{EpAddr, NodeId, ReqId};
use bytes::Bytes;
use omx_hw::cpu::category;
use omx_hw::ioat::CopyHandle;
use omx_hw::CoreId;
use omx_sim::instruments as ins;
use omx_sim::sanitize::SimSanitizer;
use omx_sim::{Ps, Sim};

/// Driver-side reassembly of one medium message under kernel matching.
#[derive(Debug)]
pub struct KernelAssembly {
    /// Matched receive, or `None` while the message is unexpected (the
    /// driver then buffers it in `data`).
    pub req: Option<ReqId>,
    /// Match information.
    pub match_info: u64,
    /// Total message length.
    pub total: u32,
    /// Kernel buffer for unexpected data.
    pub data: Option<Vec<u8>>,
    /// Outstanding asynchronous fragment copies.
    pub pending: Vec<CopyHandle>,
}

impl Cluster {
    /// BH handler for one medium fragment with in-driver matching.
    /// The caller already deduplicated via the driver bitmap.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn rx_medium_kernel_match(
        &mut self,
        sim: &mut Sim<Cluster>,
        node: NodeId,
        core: CoreId,
        src: EpAddr,
        me: EpAddr,
        match_info: u64,
        msg_seq: u32,
        msg_len: u32,
        _frag_idx: u16,
        frag_count: u16,
        offset: u32,
        data: Bytes,
        coalesced: bool,
    ) -> Ps {
        let _ = frag_count;
        let now = sim.now();
        let key = (me.ep, src, msg_seq);
        // First fragment: match in the driver.
        if !self.node(node).driver.kmatch.contains_key(&key) {
            let matched = self.ep_mut(me).matcher.match_incoming(match_info);
            let (req, buf) = match matched {
                Some(PostedRecv { req, .. }) => {
                    if let Some(rs) = self.ep_mut(me).recvs.get_mut(&req) {
                        rs.total = msg_len as u64;
                        rs.matched_info = Some(match_info);
                    }
                    (Some(req), None)
                }
                // omx-lint: allow(hot-path-alloc) unexpected-message buffer: only taken when no receive was posted, never in a pre-posted steady loop [test: tests/end_to_end.rs::extension_paths_stay_correct]
                None => (None, Some(vec![0u8; msg_len as usize])),
            };
            self.node_mut(node).driver.kmatch.insert(
                key,
                KernelAssembly {
                    req,
                    match_info,
                    total: msg_len,
                    data: buf,
                    // omx-lint: allow(hot-path-alloc) Vec::new is capacity-zero and touches no allocator; growth happens only on the offload path's first pends [test: tests/end_to_end.rs::extension_paths_stay_correct]
                    pending: Vec::new(),
                },
            );
        }
        let (req, matched) = {
            let a = self.node(node).driver.kmatch.get(&key).expect("ensured");
            (a.req, a.req.is_some())
        };
        // Copy path: matched fragments may be offloaded asynchronously
        // — the whole point of this extension.
        let len = data.len() as u64;
        let mut offload = matched
            && self.p.cfg.ioat_enabled
            && !self.p.cfg.ignore_bh_copy
            && len >= self.p.cfg.ioat_frag_threshold;
        // Graceful degradation: quarantined channels demote the copy
        // to the memcpy path.
        let mut ch = 0;
        if offload {
            ch = self.pick_healthy_channel(node, now);
            if !self.ioat_channel_usable(node, ch, now) {
                self.record_ioat_fallback(node, now, len);
                self.ep_mut(me).counters.copies_fallback += 1;
                offload = false;
            }
        }
        let fin = if offload {
            let ndesc = self.desc_count(offset as u64, len);
            let submit = self.ioat_submit_cost(ndesc, coalesced);
            let work = self.bh_frag_cost(coalesced) + submit;
            let (_, submit_fin) = self.run_core(node, core, now, work, category::BH);
            self.metrics.busy(node.0, ins::IOAT_SUBMIT_CPU, submit);
            let hw = self.p.hw.clone();
            let n = self.node_mut(node);
            let h = n.ioat.submit(&hw, submit_fin, ch, len, ndesc);
            self.node_mut(node)
                .driver
                .kmatch
                .get_mut(&key)
                .expect("present")
                .pending
                .push(h);
            self.node_mut(node).driver.hold_skbuffs(1);
            submit_fin
        } else {
            let copy = self.bh_copy_cost(len);
            let work = self.bh_frag_cost(coalesced) + copy;
            let (_, f) = self.run_core(node, core, now, work, category::BH);
            self.metrics.busy(node.0, ins::BH_COPY, copy);
            self.metrics.count(node.0, ins::BH_COPY_BYTES, len);
            f
        };
        // Apply the bytes.
        {
            let asm_data_needed = !matched;
            if asm_data_needed {
                let a = self
                    .node_mut(node)
                    .driver
                    .kmatch
                    .get_mut(&key)
                    .expect("present");
                let buf = a.data.as_mut().expect("unmatched buffers data");
                let end = ((offset as usize) + data.len()).min(buf.len());
                let start = (offset as usize).min(end);
                buf[start..end].copy_from_slice(&data[..end - start]);
            } else if let Some(rs) = self.ep_mut(me).recvs.get_mut(&req.expect("matched")) {
                rs.buf.write(u64::from(offset), &data);
            }
        }
        // Complete?
        let all_seen = self
            .ep(me)
            .drv_medium
            .get(&(src, msg_seq))
            .is_some_and(|v| v.iter().all(|&b| b));
        if !all_seen {
            return fin;
        }
        // Drain pending copies (only the last fragment waits, as in the
        // large path).
        let mut fin = fin;
        let last = self
            .node(node)
            .driver
            .kmatch
            .get(&key)
            .and_then(|a| a.pending.iter().map(|h| h.finish).max());
        if let Some(t) = last {
            let wait = t.saturating_sub(fin) + self.p.hw.ioat_poll_cost;
            let (_, f) = self.run_core(node, core, fin, wait, category::BH);
            self.metrics.busy(node.0, ins::IOAT_POLL_WAIT, wait);
            fin = f;
        }
        let asm = self
            .node_mut(node)
            .driver
            .kmatch
            .remove(&key)
            .expect("present");
        // The busy-poll above waited out the latest finish time, so
        // every pending descriptor is done: reap them.
        for h in &asm.pending {
            SimSanitizer::complete(h.san);
            SimSanitizer::release(h.san);
        }
        self.node_mut(node)
            .driver
            .release_skbuffs(asm.pending.len() as u64);
        if let Some(b) = self.ep_mut(me).drv_medium.remove(&(src, msg_seq)) {
            self.node_mut(node).driver.scratch.put_bitmap(b);
        }
        self.ep_mut(me).record_completed_seq(src, msg_seq);
        // Ack the sender.
        let pkt = crate::proto::Packet::Ack {
            src_ep: me.ep.0,
            dst_ep: src.ep.0,
            msg_seq,
        };
        let (_, f) = self.run_core(node, core, fin, self.p.cfg.ctrl_frame_cost, category::BH);
        fin = f;
        self.stats.acks_sent += 1;
        self.send_packet(sim, node, src.node, pkt, fin);
        match asm.req {
            Some(req) => {
                // One event per message — the extension's payoff.
                self.push_event_at(
                    sim,
                    me,
                    Event::RecvMediumDone {
                        req,
                        len: asm.total,
                    },
                    fin,
                );
            }
            None => {
                // Hand the buffered unexpected message to the library
                // as a complete assembly; adoption copies it out.
                let buf = asm.data.expect("unmatched buffers data");
                self.ep_mut(me).assemblies.insert(
                    (src, msg_seq),
                    crate::endpoint::MediumAssembly {
                        req: None,
                        match_info: asm.match_info,
                        // omx-lint: allow(hot-path-alloc) Vec::new is capacity-zero; the driver already deduplicated, the library never consults frag_seen for a complete assembly [test: tests/end_to_end.rs::extension_paths_stay_correct]
                        frag_seen: Vec::new(),
                        arrived: asm.total as u64,
                        total: asm.total as u64,
                        data: buf,
                    },
                );
            }
        }
        fin
    }
}
