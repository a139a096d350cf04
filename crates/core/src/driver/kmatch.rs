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
use crate::endpoint::MediumAssembly;
use crate::events::Event;
use crate::{EpAddr, NodeId};
use bytes::Bytes;
use omx_hw::cpu::category;
use omx_hw::ioat::CopyHandle;
use omx_hw::CoreId;
use omx_sim::sanitize::SimSanitizer;
use omx_sim::{Ps, Sim};

/// Driver-side reassembly of one medium message under kernel matching:
/// the shared assembly plus the fragment copies still in flight.
#[derive(Debug)]
pub struct KernelAssembly {
    /// The message's assembly; an unmatched one moves to
    /// `Endpoint::assemblies` once complete.
    pub asm: MediumAssembly,
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
        offset: u32,
        data: Bytes,
        coalesced: bool,
    ) -> Ps {
        let now = sim.now();
        let key = (me.ep, src, msg_seq);
        // First fragment: match in the driver.
        if !self.node(node).driver.kmatch.contains_key(&key) {
            let asm = MediumAssembly::start(self.ep_mut(me), match_info, u64::from(msg_len));
            self.node_mut(node).driver.kmatch.insert(
                key,
                KernelAssembly {
                    asm,
                    // omx-lint: allow(hot-path-alloc) Vec::new is capacity-zero and touches no allocator; growth happens only on the offload path's first pends [test: tests/end_to_end.rs::extension_paths_stay_correct]
                    pending: Vec::new(),
                },
            );
        }
        let matched = self.node(node).driver.kmatch[&key].asm.req.is_some();
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
                self.stats.ioat_fallback_copies += 1;
                self.ep_mut(me).counters.copies_fallback += 1;
                offload = false;
            }
        }
        let fin = if offload {
            let ndesc = self.desc_count(offset as u64, len);
            let submit = self.ioat_submit_cost(ndesc, coalesced);
            let work = self.bh_frag_cost(coalesced) + submit;
            let (_, submit_fin) = self.run_core(node, core, now, work, category::BH);
            self.submit_cpu_busy += submit;
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
            self.bh_copy_busy += copy;
            f
        };
        // Apply the bytes; the message is done once all of them arrived.
        let n = self.node_mut(node);
        let ka = n.driver.kmatch.get_mut(&key).expect("present");
        let recvs = &mut n.endpoints[me.ep.0 as usize].recvs;
        if !ka.asm.apply(recvs, u64::from(offset), &data) {
            return fin;
        }
        let ka = n.driver.kmatch.remove(&key).expect("present");
        // Drain pending copies (only the last fragment waits, as in the
        // large path).
        let mut fin = fin;
        if let Some(t) = ka.pending.iter().map(|h| h.finish).max() {
            let wait = t.saturating_sub(fin) + self.p.hw.ioat_poll_cost;
            let (_, f) = self.run_core(node, core, fin, wait, category::BH);
            self.poll_wait_busy += wait;
            fin = f;
        }
        // The busy-poll above waited out the latest finish time, so
        // every pending descriptor is done: reap them.
        for h in &ka.pending {
            SimSanitizer::complete(h.san);
            SimSanitizer::release(h.san);
        }
        self.node_mut(node)
            .driver
            .release_skbuffs(ka.pending.len() as u64);
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
        match ka.asm.req {
            Some(req) => {
                // One event per message — the extension's payoff.
                let len = ka.asm.total as u32;
                self.push_event_at(sim, me, Event::RecvMediumDone { req, len }, fin);
            }
            None => {
                // Hand the buffered unexpected message to the library
                // as a complete assembly; adoption copies it out.
                self.ep_mut(me).assemblies.insert((src, msg_seq), ka.asm);
            }
        }
        fin
    }
}
