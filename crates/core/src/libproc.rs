//! The user-space library: event-ring consumption, matching and the
//! library-side copies.
//!
//! With library-level matching (the paper's stack), the library reaps
//! one event per small message and one per *fragment* of a medium
//! message, copying payloads from the statically pinned ring into the
//! application buffer — the second copy of Fig 2. Large messages show
//! up twice: a rendezvous event that triggers the pull command, and a
//! single completion event once the driver finished the pull.

use crate::cluster::Cluster;
use crate::config::StackKind;
use crate::endpoint::MediumAssembly;
use crate::events::Event;
use crate::matching::{PostedRecv, Unexpected};
use crate::{EpAddr, ReqId};
use bytes::Bytes;
use omx_hw::cpu::category;
use omx_hw::mem::{CopyContext, MemModel};
use omx_hw::Distance;
use omx_sim::{Ps, Sim};

impl Cluster {
    /// Library copy cost: ring slot (or unexpected heap buffer) into
    /// the application buffer. The slot was written by the BH on
    /// another core, so the copy is uncached.
    pub(crate) fn lib_copy_cost(&self, bytes: u64) -> Ps {
        let ctx = CopyContext::uncached(Distance::SameSocket);
        MemModel::copy_time_paged(&self.p.hw, bytes, &ctx)
    }

    /// Drain the endpoint's event ring in library context.
    pub(crate) fn lib_poll(&mut self, sim: &mut Sim<Cluster>, me: EpAddr) {
        while let Some(ev) = self.ep_mut(me).events.pop() {
            self.lib_handle_event(sim, me, ev);
        }
    }

    fn lib_handle_event(&mut self, sim: &mut Sim<Cluster>, me: EpAddr, ev: Event) {
        let core = self.ep(me).core;
        let node = me.node;
        let now = sim.now();
        let ev_cost = self.p.cfg.lib_event_cost;
        match ev {
            Event::RecvTiny {
                src,
                match_info,
                msg_seq,
                data,
            } => {
                let cost = ev_cost + self.lib_copy_cost(data.len() as u64);
                let (_, fin) = self.run_core(node, core, now, cost, category::USER_LIB);
                // The inline payload is already shared `Bytes`: hand it
                // over without materializing a copy.
                self.lib_deliver_eager(sim, me, src, match_info, msg_seq, data, fin);
            }
            Event::RecvSmall {
                src,
                match_info,
                msg_seq,
                slot,
                len,
            } => {
                let cost = ev_cost + self.lib_copy_cost(len as u64);
                let (_, fin) = self.run_core(node, core, now, cost, category::USER_LIB);
                self.lib_deliver_eager_from_slot(
                    sim,
                    me,
                    src,
                    match_info,
                    msg_seq,
                    slot,
                    len as usize,
                    fin,
                );
            }
            Event::RecvMediumFrag {
                src,
                match_info,
                msg_seq,
                msg_len,
                frag_idx,
                frag_count,
                offset,
                slot,
                len,
            } => {
                let cost = ev_cost + self.lib_copy_cost(len as u64);
                let (_, fin) = self.run_core(node, core, now, cost, category::USER_LIB);
                self.lib_apply_medium_frag(
                    sim,
                    me,
                    src,
                    match_info,
                    msg_seq,
                    msg_len as u64,
                    frag_idx as u32,
                    frag_count as u32,
                    offset as u64,
                    slot,
                    len as usize,
                    fin,
                );
            }
            Event::RecvRndv {
                src,
                match_info,
                msg_seq,
                msg_len,
                sender_handle,
            } => {
                let (_, fin) = self.run_core(node, core, now, ev_cost, category::USER_LIB);
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
                            fin,
                        );
                    }
                    None => {
                        self.ep_mut(me).counters.unexpected += 1;
                        self.ep_mut(me).matcher.push_unexpected(Unexpected::Rndv {
                            src,
                            match_info,
                            msg_seq,
                            msg_len,
                            sender_handle,
                        });
                    }
                }
            }
            Event::RecvLargeDone { req, len } => {
                let (_, fin) = self.run_core(node, core, now, ev_cost, category::USER_LIB);
                if let Some(rs) = self.ep_mut(me).recvs.get_mut(&req) {
                    rs.total = len;
                }
                self.finish_recv(sim, me, req, fin);
            }
            Event::RecvMediumDone { req, len } => {
                let (_, fin) = self.run_core(node, core, now, ev_cost, category::USER_LIB);
                if let Some(rs) = self.ep_mut(me).recvs.get_mut(&req) {
                    rs.total = len as u64;
                }
                self.finish_recv(sim, me, req, fin);
            }
            Event::SendDone { req } => {
                let (_, fin) = self.run_core(node, core, now, ev_cost, category::USER_LIB);
                self.finish_send(sim, me, req, fin);
            }
        }
    }

    /// Deliver a complete single-fragment eager message whose payload
    /// is already in shared `Bytes` (tiny messages ride inline in the
    /// event): match or buffer as unexpected — either way without
    /// copying the payload an extra time.
    #[allow(clippy::too_many_arguments)]
    fn lib_deliver_eager(
        &mut self,
        sim: &mut Sim<Cluster>,
        me: EpAddr,
        src: EpAddr,
        match_info: u64,
        msg_seq: u32,
        data: Bytes,
        fin: Ps,
    ) {
        match self.ep_mut(me).matcher.match_incoming(match_info) {
            Some(posted) => {
                let ep = self.ep_mut(me);
                if let Some(rs) = ep.recvs.get_mut(&posted.req) {
                    rs.total = rs.buf.write(0, &data) as u64;
                    rs.matched_info = Some(match_info);
                }
                self.finish_recv(sim, me, posted.req, fin);
            }
            None => {
                let total = data.len() as u64;
                self.ep_mut(me).counters.unexpected += 1;
                self.ep_mut(me).matcher.push_unexpected(Unexpected::Eager {
                    src,
                    match_info,
                    msg_seq,
                    data,
                    arrived: total,
                    total,
                });
            }
        }
    }

    /// Deliver a single-fragment eager message whose payload sits in a
    /// pinned ring slot. A matched receive copies slot → application
    /// buffer directly (the slot pool and the receive table are
    /// disjoint endpoint fields, so no intermediate buffer is needed);
    /// an unmatched one keeps the slot's payload slice, uncopied.
    #[allow(clippy::too_many_arguments)]
    fn lib_deliver_eager_from_slot(
        &mut self,
        sim: &mut Sim<Cluster>,
        me: EpAddr,
        src: EpAddr,
        match_info: u64,
        msg_seq: u32,
        slot: usize,
        len: usize,
        fin: Ps,
    ) {
        match self.ep_mut(me).matcher.match_incoming(match_info) {
            Some(posted) => {
                let ep = self.ep_mut(me);
                if let Some(rs) = ep.recvs.get_mut(&posted.req) {
                    rs.total = rs.buf.write(0, ep.slots.read(slot, len)) as u64;
                    rs.matched_info = Some(match_info);
                }
                ep.slots.release(slot);
                self.finish_recv(sim, me, posted.req, fin);
            }
            None => {
                let ep = self.ep_mut(me);
                let data = ep.slots.take(slot, len);
                ep.counters.unexpected += 1;
                let total = len as u64;
                ep.matcher.push_unexpected(Unexpected::Eager {
                    src,
                    match_info,
                    msg_seq,
                    data,
                    arrived: total,
                    total,
                });
            }
        }
    }

    /// Apply one medium fragment to its (matched or unexpected)
    /// assembly, copying straight out of the pinned ring slot; the
    /// slot is released once the fragment has been applied (or
    /// recognized as a duplicate).
    #[allow(clippy::too_many_arguments)]
    fn lib_apply_medium_frag(
        &mut self,
        sim: &mut Sim<Cluster>,
        me: EpAddr,
        src: EpAddr,
        match_info: u64,
        msg_seq: u32,
        msg_len: u64,
        frag_idx: u32,
        frag_count: u32,
        offset: u64,
        slot: usize,
        len: usize,
        fin: Ps,
    ) {
        let key = (src, msg_seq);
        // First fragment of a new message: match it. A message that
        // fits in one fragment is complete on arrival, so it has no
        // assembly yet, and a receive that matches it takes it
        // straight from the ring slot. Unmatched, it is buffered as an
        // assembly like any other medium message.
        if frag_count == 1 || !self.ep(me).assemblies.contains_key(&key) {
            let matched = self.ep_mut(me).matcher.match_incoming(match_info);
            if let (1, Some(posted)) = (frag_count, &matched) {
                let req = posted.req;
                let ep = self.ep_mut(me);
                if let Some(rs) = ep.recvs.get_mut(&req) {
                    rs.total = msg_len;
                    rs.matched_info = Some(match_info);
                    rs.buf.write(offset, ep.slots.read(slot, len));
                }
                ep.slots.release(slot);
                self.finish_recv(sim, me, req, fin);
                return;
            }
            let (req, buf) = match matched {
                Some(posted) => {
                    if let Some(rs) = self.ep_mut(me).recvs.get_mut(&posted.req) {
                        rs.total = msg_len;
                        rs.matched_info = Some(match_info);
                    }
                    // omx-lint: allow(hot-path-alloc) Vec::new is capacity-zero and touches no allocator; matched data lands in the posted buffer [test: crates/sim/tests/alloc_count.rs::warmed_medium_pingpong_allocates_nothing]
                    (Some(posted.req), Vec::new())
                }
                // omx-lint: allow(hot-path-alloc) unexpected-message buffer: only taken when no receive was posted, never in a pre-posted steady loop [test: crates/sim/tests/alloc_count.rs::warmed_medium_pingpong_allocates_nothing]
                None => (None, vec![0u8; msg_len as usize]),
            };
            let frag_seen = self
                .node_mut(me.node)
                .driver
                .scratch
                .take_bitmap(frag_count as usize);
            self.ep_mut(me).assemblies.insert(
                key,
                MediumAssembly {
                    req,
                    match_info,
                    frag_seen,
                    arrived: 0,
                    total: msg_len,
                    data: buf,
                },
            );
        }
        // Apply the fragment straight from the ring slot.
        let (completed_req, done_unmatched) = {
            let ep = self.ep_mut(me);
            let asm = ep.assemblies.get_mut(&key).expect("just ensured");
            let result = if asm.frag_seen[frag_idx as usize] {
                (None, false)
            } else {
                asm.frag_seen[frag_idx as usize] = true;
                asm.arrived += len as u64;
                match asm.req {
                    Some(req) => {
                        if let Some(rs) = ep.recvs.get_mut(&req) {
                            rs.buf.write(offset, ep.slots.read(slot, len));
                        }
                        let asm = ep.assemblies.get_mut(&key).expect("present");
                        if asm.is_complete() {
                            (Some(req), false)
                        } else {
                            (None, false)
                        }
                    }
                    None => {
                        let data = ep.slots.read(slot, len);
                        let end = ((offset as usize) + len).min(asm.data.len());
                        let start = (offset as usize).min(end);
                        asm.data[start..end].copy_from_slice(&data[..end - start]);
                        (None, asm.is_complete())
                    }
                }
            };
            ep.slots.release(slot);
            result
        };
        if let Some(req) = completed_req {
            if let Some(asm) = self.ep_mut(me).assemblies.remove(&key) {
                self.node_mut(me.node)
                    .driver
                    .scratch
                    .put_bitmap(asm.frag_seen);
            }
            self.finish_recv(sim, me, req, fin);
        }
        // Complete-but-unmatched assemblies stay buffered until a
        // receive adopts them.
        let _ = done_unmatched;
    }

    /// A receive matched a rendezvous: record it and start the pull.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn lib_adopt_rndv(
        &mut self,
        sim: &mut Sim<Cluster>,
        me: EpAddr,
        req: ReqId,
        src: EpAddr,
        match_info: u64,
        msg_seq: u32,
        msg_len: u64,
        sender_handle: u32,
        fin: Ps,
    ) {
        if let Some(rs) = self.ep_mut(me).recvs.get_mut(&req) {
            rs.total = msg_len;
            rs.matched_info = Some(match_info);
        }
        // A network pull keeps its announcement in `rndv_pending` until
        // it finishes or the watchdog abandons it, so `rx_rndv` drops a
        // retransmitted announcement while the pull runs. MXoE and
        // intranode pulls are not driver pulls: their entry goes now.
        match self.p.cfg.stack {
            StackKind::Mxoe => {
                self.ep_mut(me).rndv_pending.remove(&(src, msg_seq));
                self.mx_start_pull(sim, me, req, src, sender_handle, msg_len, fin);
            }
            StackKind::OpenMx => {
                if src.node == me.node {
                    self.ep_mut(me).rndv_pending.remove(&(src, msg_seq));
                    self.start_local_pull(sim, me, req, src, sender_handle, msg_len, msg_seq, fin);
                } else {
                    self.start_pull(sim, me, req, src, sender_handle, msg_len, msg_seq, fin);
                }
            }
        }
    }

    /// A new receive was posted: try the matcher's unexpected queue,
    /// then buffered assemblies.
    pub(crate) fn lib_match_new_recv(&mut self, sim: &mut Sim<Cluster>, me: EpAddr, req: ReqId) {
        let now = sim.now();
        let core = self.ep(me).core;
        let (match_info, mask, cap) = {
            let rs = self.ep(me).recvs.get(&req).expect("just posted");
            (rs.match_info, rs.mask, rs.buf.posted_len() as u64)
        };
        let hit = self.ep_mut(me).matcher.post_recv(PostedRecv {
            req,
            match_info,
            mask,
            len: cap,
        });
        match hit {
            Some(Unexpected::Eager {
                match_info: mi,
                data,
                arrived,
                total,
                ..
            }) => {
                // Matcher-held eager unexpecteds are always complete
                // (partial mediums live in `assemblies` instead).
                debug_assert!(arrived >= total, "partial eager in matcher");
                let cost = self.lib_copy_cost(total);
                let (_, fin) = self.run_core(me.node, core, now, cost, category::USER_LIB);
                let ep = self.ep_mut(me);
                if let Some(rs) = ep.recvs.get_mut(&req) {
                    rs.total = rs.buf.write(0, &data) as u64;
                    rs.matched_info = Some(mi);
                }
                self.finish_recv(sim, me, req, fin);
            }
            Some(Unexpected::Rndv {
                src,
                match_info: mi,
                msg_seq,
                msg_len,
                sender_handle,
            }) => {
                self.lib_adopt_rndv(sim, me, req, src, mi, msg_seq, msg_len, sender_handle, now);
            }
            None => {
                // Any buffered unmatched assembly that fits?
                let found = {
                    let ep = self.ep(me);
                    ep.assemblies
                        .iter()
                        .filter(|(_, a)| a.req.is_none())
                        .find(|(_, a)| crate::matching::matches(match_info, mask, a.match_info))
                        .map(|(k, _)| *k)
                };
                if let Some(key) = found {
                    // Adopt: the receive leaves the matcher's queue.
                    self.ep_mut(me).matcher.remove_posted(req);
                    let (arrived, total, mi, complete) = {
                        let ep = self.ep_mut(me);
                        let asm = ep.assemblies.get_mut(&key).expect("found");
                        asm.req = Some(req);
                        (asm.arrived, asm.total, asm.match_info, asm.is_complete())
                    };
                    let cost = self.lib_copy_cost(arrived);
                    let (_, fin) = self.run_core(me.node, core, now, cost, category::USER_LIB);
                    {
                        let ep = self.ep_mut(me);
                        let asm = ep.assemblies.get_mut(&key).expect("found");
                        let data = std::mem::take(&mut asm.data);
                        if let Some(rs) = ep.recvs.get_mut(&req) {
                            // Unmatched assemblies buffer the full
                            // image, zero where fragments are still
                            // missing (they may have arrived out of
                            // order): copy all of it, and the missing
                            // fragments overwrite their ranges later.
                            rs.buf.write(0, &data);
                            rs.total = total;
                            rs.matched_info = Some(mi);
                        }
                    }
                    if complete {
                        if let Some(asm) = self.ep_mut(me).assemblies.remove(&key) {
                            self.node_mut(me.node)
                                .driver
                                .scratch
                                .put_bitmap(asm.frag_seen);
                        }
                        self.finish_recv(sim, me, req, fin);
                    }
                }
            }
        }
    }
}
