//! The Open-MX driver: send command processing and the BH receive
//! callback for eager (tiny/small/medium) traffic, acks and duplicate
//! suppression. The large-message pull paths live in `pull.rs`.

use crate::app::Completion;
use crate::cluster::Cluster;
use crate::config::MsgClass;
use crate::endpoint::{ReqTable, SendState};
use crate::events::Event;
use crate::proto::Packet;
use crate::{EpAddr, EpIdx, NodeId, ReqId};
use bytes::Bytes;
use omx_ethernet::Skbuff;
use omx_hw::cpu::category;
use omx_hw::mem::{CopyContext, MemModel};
use omx_hw::{CoreId, Distance, IoatEngine};
use omx_sim::instruments as ins;
use omx_sim::sanitize::SimSanitizer;
use omx_sim::{Ps, Sim};

/// Give up retransmitting after this many attempts (a real stack would
/// declare the peer dead).
const MAX_RETX_ATTEMPTS: u32 = 10;

/// Whether `req` still awaits the resend check it was armed for at
/// `at`: it is outstanding, unacked and records that deadline.
fn resend_due(sends: &ReqTable<SendState>, req: ReqId, at: Ps) -> bool {
    sends
        .get(&req)
        .is_some_and(|st| !st.acked && st.resend_at == at)
}

impl Cluster {
    /// CPU cost of the BH copying `bytes` out of an skbuff with page
    /// chunking. Honors the Fig 3 counterfactual switch.
    ///
    /// Public so calibration tools and property tests can probe the
    /// copy-cost model directly.
    pub fn bh_copy_cost(&self, bytes: u64) -> Ps {
        if self.p.cfg.ignore_bh_copy || bytes == 0 {
            return Ps::ZERO;
        }
        // With Direct Cache Access the NIC steered part of the payload
        // into the BH core's cache; the copy's read side is partially
        // warm (the write side still streams to memory, so the gain is
        // bounded well below the fully-cached rate).
        let cached_fraction = if self.p.cfg.dca_enabled { 0.35 } else { 0.0 };
        let ctx = CopyContext {
            distance: Distance::SameSocket,
            cached_fraction,
            shared_cache_pair: false,
        };
        MemModel::copy_time_paged(&self.p.hw, bytes, &ctx).scale(self.p.cfg.bh_copy_slowdown)
    }

    /// Like [`Self::bh_copy_cost`] but with an explicit chunk
    /// granularity (vectorial destination buffers).
    pub fn bh_copy_cost_chunked(&self, bytes: u64, chunk: u64) -> Ps {
        if self.p.cfg.ignore_bh_copy || bytes == 0 {
            return Ps::ZERO;
        }
        let chunk = chunk.min(self.p.hw.page_size).max(1);
        let chunks = bytes.div_ceil(chunk).max(1);
        let cached_fraction = if self.p.cfg.dca_enabled { 0.35 } else { 0.0 };
        let ctx = CopyContext {
            distance: Distance::SameSocket,
            cached_fraction,
            shared_cache_pair: false,
        };
        MemModel::copy_time(&self.p.hw, bytes, chunks, &ctx).scale(self.p.cfg.bh_copy_slowdown)
    }

    /// Per-fragment protocol bookkeeping cost in the BH. A fragment
    /// that arrived as the tail of a GRO-coalesced frame train
    /// (`coalesced`) skips the per-frame header parse and endpoint
    /// lookup and pays only the cheap continuation cost.
    pub(crate) fn bh_frag_cost(&self, coalesced: bool) -> Ps {
        if coalesced {
            self.p.cfg.gro_frag_process
        } else {
            self.p.cfg.bh_frag_process
        }
    }

    /// Descriptors needed for an I/OAT copy into `[offset, offset+len)`
    /// of a page-aligned destination region ("one or two chunks per
    /// page": one per destination page boundary crossed).
    pub(crate) fn desc_count(&self, offset: u64, len: u64) -> u64 {
        if len == 0 {
            // Nothing to move: no descriptor is built or submitted
            // (mirrors `IoatEngine::descriptors_for`).
            return 0;
        }
        let page = self.p.hw.page_size;
        let first = offset / page;
        let last = (offset + len - 1) / page;
        last - first + 1
    }

    /// CPU submission cost for `ndesc` descriptors at one driver
    /// submit site: they are chained behind one doorbell, and a GRO
    /// frame-train tail (`coalesced`) appends to the chain the train
    /// head already rang, paying no doorbell at all. At the default
    /// calibration every descriptor costs the paper's 350 ns (§IV-A).
    pub(crate) fn ioat_submit_cost(&self, ndesc: u64, coalesced: bool) -> Ps {
        IoatEngine::submit_cpu_cost(&self.p.hw, ndesc, !coalesced)
    }

    // ------------------------------------------------------------------
    // send command processing (driver, syscall context)
    // ------------------------------------------------------------------

    /// Driver processing of a network send command.
    pub(crate) fn net_send(&mut self, sim: &mut Sim<Cluster>, me: EpAddr, req: ReqId) {
        let now = sim.now();
        let core = self.ep(me).core;
        let (class, dest) = {
            let st = self.ep(me).sends.get(&req).expect("send exists");
            (st.class, st.dest)
        };
        {
            let st_len = self.ep(me).sends.get(&req).expect("send exists").data.len() as u64;
            let c = &mut self.ep_mut(me).counters;
            c.tx_bytes += st_len;
            match class {
                MsgClass::Tiny => c.tx_tiny += 1,
                MsgClass::Small => c.tx_small += 1,
                MsgClass::Medium => c.tx_medium += 1,
                MsgClass::Large => c.tx_large += 1,
            }
        }
        match class {
            MsgClass::Tiny | MsgClass::Small => {
                let fin = self.tx_eager_frames(sim, me, req, now);
                // Tiny/small sends complete at driver handoff (the data
                // was captured into the command).
                self.finish_send(sim, me, req, fin);
                self.schedule_eager_retx(sim, me, req, fin);
            }
            MsgClass::Medium => {
                let fin = self.tx_eager_frames(sim, me, req, now);
                // Medium sends are zero-copy: the buffer is only
                // reusable once the receiver acknowledged.
                self.schedule_eager_retx(sim, me, req, fin);
            }
            MsgClass::Large => {
                // Pin the send buffer, announce via rendezvous.
                let (tag, len, msg_seq, match_info) = {
                    let st = self.ep(me).sends.get(&req).expect("send exists");
                    (st.tag, st.data.len() as u64, st.msg_seq, st.match_info)
                };
                let hw = self.p.hw.clone();
                let reg_tag = tag.unwrap_or(req.0 | (1 << 63));
                let reg = self.ep_mut(me).regions.register(&hw, reg_tag, len);
                {
                    let c = &mut self.ep_mut(me).counters;
                    if reg.cache_hit {
                        c.regcache_hits += 1;
                    } else {
                        c.regcache_misses += 1;
                    }
                }
                let (_, fin) = self.run_core(me.node, core, now, reg.cost, category::DRIVER);
                let handle = self.node_mut(me.node).driver.alloc_tx_handle();
                {
                    let st = self.ep_mut(me).sends.get_mut(&req).expect("send exists");
                    st.region = Some(reg.region);
                    st.sender_handle = Some(handle);
                }
                self.node_mut(me.node).driver.tx_large.insert(
                    handle,
                    super::TxLargeState {
                        ep: me.ep,
                        req,
                        dest,
                    },
                );
                let (_, fin) = self.run_core(
                    me.node,
                    core,
                    fin,
                    self.p.cfg.ctrl_frame_cost,
                    category::DRIVER,
                );
                let pkt = Packet::RndvReq {
                    src_ep: me.ep.0,
                    dst_ep: dest.ep.0,
                    match_info,
                    msg_seq,
                    msg_len: len,
                    sender_handle: handle,
                };
                self.send_packet(sim, me.node, dest.node, pkt, fin);
                self.schedule_eager_retx(sim, me, req, fin);
            }
        }
    }

    /// Build and hand the eager frames of `req` to the NIC starting at
    /// `now`; returns the driver finish time.
    fn tx_eager_frames(&mut self, sim: &mut Sim<Cluster>, me: EpAddr, req: ReqId, now: Ps) -> Ps {
        let core = self.ep(me).core;
        let (class, dest, match_info, msg_seq, data) = {
            let st = self.ep(me).sends.get(&req).expect("send exists");
            (
                st.class,
                st.dest,
                st.match_info,
                st.msg_seq,
                st.data.clone(),
            )
        };
        let mut fin = now;
        match class {
            MsgClass::Tiny => {
                let (_, f) = self.run_core(
                    me.node,
                    core,
                    now,
                    self.p.cfg.tx_frag_cost,
                    category::DRIVER,
                );
                fin = f;
                let pkt = Packet::Tiny {
                    src_ep: me.ep.0,
                    dst_ep: dest.ep.0,
                    match_info,
                    msg_seq,
                    data,
                };
                self.send_packet(sim, me.node, dest.node, pkt, fin);
            }
            MsgClass::Small => {
                let (_, f) = self.run_core(
                    me.node,
                    core,
                    now,
                    self.p.cfg.tx_frag_cost,
                    category::DRIVER,
                );
                fin = f;
                let pkt = Packet::Small {
                    src_ep: me.ep.0,
                    dst_ep: dest.ep.0,
                    match_info,
                    msg_seq,
                    data,
                };
                self.send_packet(sim, me.node, dest.node, pkt, fin);
            }
            MsgClass::Medium => {
                let frag = self.p.cfg.frag_size as usize;
                let total = data.len();
                let count = total.div_ceil(frag).max(1);
                for i in 0..count {
                    let lo = i * frag;
                    let hi = (lo + frag).min(total);
                    let (_, f) = self.run_core(
                        me.node,
                        core,
                        fin,
                        self.p.cfg.tx_frag_cost,
                        category::DRIVER,
                    );
                    fin = f;
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
                    self.ep_mut(me).counters.tx_medium_frags += 1;
                    self.send_packet(sim, me.node, dest.node, pkt, fin);
                }
            }
            MsgClass::Large => unreachable!("large sends go through rendezvous"),
        }
        fin
    }

    /// Arm the eager/rendezvous retransmission timer. The timeout is
    /// the send's *adaptive* RTO: it starts at
    /// `cfg.retransmit_timeout` and doubles (with jitter) on every
    /// actual retransmission, so a lossy or congested path sees
    /// exponentially spaced re-sends instead of a fixed-period hammer.
    /// A send already acked or reaped needs no check.
    pub(crate) fn schedule_eager_retx(
        &mut self,
        sim: &mut Sim<Cluster>,
        me: EpAddr,
        req: ReqId,
        from: Ps,
    ) {
        let Some(rto) = self
            .ep(me)
            .sends
            .get(&req)
            .filter(|st| !st.acked)
            .map(|st| st.rto)
        else {
            return;
        };
        self.arm_resend(sim, me, req, from + rto);
    }

    /// Record that the send `req` is due a check at `at`, and set the
    /// endpoint's one resend timer for `at` if it would fire later.
    fn arm_resend(&mut self, sim: &mut Sim<Cluster>, me: EpAddr, req: ReqId, at: Ps) {
        let ep = self.ep_mut(me);
        if let Some(st) = ep.sends.get_mut(&req) {
            st.resend_at = at;
        }
        if ep.resends.arm(at, req) {
            sim.schedule_at(at, move |c: &mut Cluster, s| c.resend_timer(s, me));
        }
    }

    /// The endpoint's resend timer: check every send due now, in
    /// (deadline, arm order), then set the timer for the earliest
    /// deadline left, or leave it idle when no send is outstanding.
    ///
    /// An eager ack processed less than one base timeout ago shows the
    /// path delivering, so the fire is first held until one timeout
    /// after that ack, as RFC 6298 §5.3 restarts the timer on an ack of
    /// new data. It holds once per fire, so a send is checked at most
    /// one timeout after its own deadline.
    fn resend_timer(&mut self, sim: &mut Sim<Cluster>, me: EpAddr) {
        let now = sim.now();
        let base_rto = self.p.cfg.retransmit_timeout;
        let ep = self.ep_mut(me);
        if !ep.resends.fires_at(now) {
            return; // superseded by an earlier arm
        }
        if let Some(until) = ep.last_ack.map(|t| t + base_rto) {
            let sends = &ep.sends;
            if ep
                .resends
                .hold(now, until, |req, at| resend_due(sends, req, at))
            {
                sim.schedule_at(until, move |c: &mut Cluster, s| c.resend_timer(s, me));
                return;
            }
        }
        loop {
            let ep = self.ep_mut(me);
            let sends = &ep.sends;
            let Some(req) = ep
                .resends
                .pop_due(now, |req, at| resend_due(sends, req, at))
            else {
                break;
            };
            self.eager_retx_check(sim, me, req);
        }
        let ep = self.ep_mut(me);
        let sends = &ep.sends;
        if let Some(at) = ep.resends.rearm(now, |req, at| resend_due(sends, req, at)) {
            sim.schedule_at(at, move |c: &mut Cluster, s| c.resend_timer(s, me));
        }
    }

    fn eager_retx_check(&mut self, sim: &mut Sim<Cluster>, me: EpAddr, req: ReqId) {
        let Some(st) = self.ep(me).sends.get(&req) else {
            return; // completed and reaped
        };
        if st.acked {
            return;
        }
        // Recent receiver activity (pull requests) proves the transfer
        // is alive: push the deadline out instead of retransmitting.
        let deadline = st.last_activity + st.rto;
        if sim.now() < deadline {
            self.arm_resend(sim, me, req, deadline);
            return;
        }
        let attempts = st.retx_attempts;
        if attempts >= MAX_RETX_ATTEMPTS {
            // Give up: the peer is unreachable. Complete the send with
            // an error instead of leaking its state forever.
            self.fail_send(sim, me, req);
            return;
        }
        let class = st.class;
        let cur_rto = st.rto;
        let next_rto = self.escalate_rto(me.node, cur_rto);
        {
            let st = self.ep_mut(me).sends.get_mut(&req).expect("checked");
            st.retx_attempts = attempts + 1;
            st.rto = next_rto;
        }
        self.stats.retransmissions += 1;
        self.metrics
            .count(me.node.0, ins::DRIVER_RETRANSMISSIONS, 1);
        self.metrics.trace(
            sim.now(),
            me.node.0,
            "driver",
            "retransmit",
            req.0,
            u64::from(attempts + 1),
        );
        let now = sim.now();
        let fin = match class {
            MsgClass::Large => {
                // Re-announce the rendezvous; the receiver deduplicates
                // (active pull or completed sequence → re-notify).
                let (dest, match_info, msg_seq, len, handle) = {
                    let st = self.ep(me).sends.get(&req).expect("checked");
                    (
                        st.dest,
                        st.match_info,
                        st.msg_seq,
                        st.data.len() as u64,
                        st.sender_handle.expect("large send has handle"),
                    )
                };
                let core = self.ep(me).core;
                let (_, fin) = self.run_core(
                    me.node,
                    core,
                    now,
                    self.p.cfg.ctrl_frame_cost,
                    category::DRIVER,
                );
                let pkt = Packet::RndvReq {
                    src_ep: me.ep.0,
                    dst_ep: dest.ep.0,
                    match_info,
                    msg_seq,
                    msg_len: len,
                    sender_handle: handle,
                };
                self.send_packet(sim, me.node, dest.node, pkt, fin);
                fin
            }
            _ => self.tx_eager_frames(sim, me, req, now),
        };
        self.schedule_eager_retx(sim, me, req, fin);
    }

    /// Abort a send whose retransmission attempts are exhausted: drop
    /// every piece of driver state it holds (the pinned region, the
    /// sender-side large handle, the `sends` entry) and deliver an
    /// error completion so the failure surfaces to the application
    /// instead of hanging or leaking.
    fn fail_send(&mut self, sim: &mut Sim<Cluster>, me: EpAddr, req: ReqId) {
        let Some(st) = self.ep_mut(me).sends.remove(&req) else {
            return;
        };
        if let Some(r) = st.region {
            self.ep_mut(me).regions.release(r);
        }
        if let Some(h) = st.sender_handle {
            self.node_mut(me.node).driver.tx_large.remove(&h);
        }
        self.stats.sends_failed += 1;
        self.metrics.count(me.node.0, ins::DRIVER_SEND_FAILURES, 1);
        self.metrics.trace(
            sim.now(),
            me.node.0,
            "driver",
            "send_failed",
            req.0,
            u64::from(st.retx_attempts),
        );
        if !st.completed {
            // Tiny/small sends already delivered their (successful)
            // buffer-reuse completion at handoff; everything else gets
            // the error completion now.
            let at = sim.now();
            sim.schedule_at(at, move |c: &mut Cluster, s| {
                c.call_app(s, me, Completion::Send { req, failed: true });
            });
        }
    }

    // ------------------------------------------------------------------
    // BH receive callback
    // ------------------------------------------------------------------

    /// Process one received skbuff in BH context; returns the BH finish
    /// time for this packet. `coalesced` marks the tail of a GRO frame
    /// train: the fragment belongs to the same message as the previous
    /// skbuff in this BH run, so the data paths charge the cheaper
    /// continuation cost instead of the full per-frame processing.
    pub(crate) fn handle_rx_skbuff(
        &mut self,
        sim: &mut Sim<Cluster>,
        node: NodeId,
        core: CoreId,
        skb: Skbuff,
        coalesced: bool,
    ) -> Ps {
        // The protocol callback consumes the skbuff here: the payload
        // `Bytes` are shared onward (zero-copy), but the buffer itself
        // is recyclable the moment parsing hands out the packet. Any
        // copies still pending against the payload are tracked by the
        // descriptor/pull tokens, not the skbuff token.
        SimSanitizer::complete(skb.token());
        SimSanitizer::release(skb.token());
        let pkt = match Packet::parse(&skb.header, skb.data) {
            Ok(p) => p,
            Err(e) => {
                debug_assert!(false, "malformed frame: {e:?}");
                return sim.now();
            }
        };
        let src_node = NodeId(skb.src);
        match pkt {
            Packet::Tiny {
                src_ep,
                dst_ep,
                match_info,
                msg_seq,
                data,
            } => self.rx_tiny(
                sim, node, core, src_node, src_ep, dst_ep, match_info, msg_seq, data,
            ),
            Packet::Small {
                src_ep,
                dst_ep,
                match_info,
                msg_seq,
                data,
            } => self.rx_small(
                sim, node, core, src_node, src_ep, dst_ep, match_info, msg_seq, data,
            ),
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
            } => self.rx_medium_frag(
                sim, node, core, src_node, src_ep, dst_ep, match_info, msg_seq, msg_len, frag_idx,
                frag_count, offset, data, coalesced,
            ),
            Packet::RndvReq {
                src_ep,
                dst_ep,
                match_info,
                msg_seq,
                msg_len,
                sender_handle,
            } => self.rx_rndv(
                sim,
                node,
                core,
                src_node,
                src_ep,
                dst_ep,
                match_info,
                msg_seq,
                msg_len,
                sender_handle,
            ),
            Packet::PullReq {
                dst_ep,
                sender_handle,
                recv_handle,
                frag_start,
                frag_count,
                ..
            } => self.rx_pull_req(
                sim,
                node,
                core,
                dst_ep,
                sender_handle,
                recv_handle,
                frag_start,
                frag_count,
            ),
            Packet::LargeFrag {
                recv_handle,
                frag_idx,
                offset,
                data,
                ..
            } => self.rx_large_frag(
                sim,
                node,
                core,
                recv_handle,
                frag_idx,
                offset,
                data,
                coalesced,
            ),
            Packet::Notify {
                dst_ep,
                sender_handle,
                ..
            } => self.rx_notify(sim, node, core, dst_ep, sender_handle),
            Packet::Ack {
                src_ep,
                dst_ep,
                msg_seq,
            } => self.rx_ack(sim, node, core, src_node, src_ep, dst_ep, msg_seq),
            Packet::CreditNack {
                dst_ep,
                sender_handle,
                ..
            } => self.rx_credit_nack(sim, node, core, src_node, dst_ep, sender_handle),
        }
    }

    /// Receiver-driven congestion notification (credit revoke): the
    /// peer's RX ring shed one of our pull fragments. Escalate the
    /// affected large send's adaptive RTO *now* — the same backoff the
    /// watchdog would apply one timeout later — so the re-request storm
    /// turns into pacing. `sender_handle` 0 means the receiver could
    /// not attribute the drop; every large send toward that node backs
    /// off. The NACK doubles as proof of life (the peer saw our
    /// traffic), so the deadline is refreshed, but the give-up budget
    /// (`retx_attempts`) keeps counting: a peer that only ever NACKs is
    /// still a failed transfer.
    fn rx_credit_nack(
        &mut self,
        sim: &mut Sim<Cluster>,
        node: NodeId,
        core: CoreId,
        src_node: NodeId,
        dst_ep: u8,
        sender_handle: u32,
    ) -> Ps {
        let me = self.addr_of(node, dst_ep);
        let (_, fin) = self.run_core(
            node,
            core,
            sim.now(),
            self.p.cfg.bh_frag_process,
            category::BH,
        );
        // Counted in the registry, not `Counters`: the counter struct
        // is embedded verbatim in committed result JSON, and this path
        // is unreachable with credits off (byte-identity).
        self.metrics.count(node.0, ins::CREDIT_NACKS_RECEIVED, 1);
        let reqs: Vec<ReqId> = if sender_handle != 0 {
            self.node(node)
                .driver
                .tx_large
                .get(&sender_handle)
                .filter(|tx| tx.ep == me.ep)
                // omx-lint: allow(hot-path-alloc) NACKs fire only under ring pressure (a retransmission trigger), never in steady state [test: tests/incast_soak.rs::incast_with_credits_survives_every_plan]
                .map(|tx| vec![tx.req])
                .unwrap_or_default()
        } else {
            self.ep(me)
                .sends
                .iter()
                .filter(|(_, s)| matches!(s.class, MsgClass::Large) && s.dest.node == src_node)
                .map(|(r, _)| *r)
                // omx-lint: allow(hot-path-alloc) NACKs fire only under ring pressure (a retransmission trigger), never in steady state [test: tests/incast_soak.rs::incast_with_credits_survives_every_plan]
                .collect()
        };
        for req in reqs {
            let Some(cur) = self.ep(me).sends.get(&req).map(|st| st.rto) else {
                continue;
            };
            let next = self.escalate_rto(me.node, cur);
            if let Some(st) = self.ep_mut(me).sends.get_mut(&req) {
                st.rto = next;
                st.last_activity = fin;
            }
        }
        fin
    }

    fn addr_of(&self, node: NodeId, ep: u8) -> EpAddr {
        EpAddr {
            node,
            ep: EpIdx(ep),
        }
    }

    /// Send an ack for `msg_seq` back to the sender (BH context).
    #[allow(clippy::too_many_arguments)]
    fn send_ack(
        &mut self,
        sim: &mut Sim<Cluster>,
        node: NodeId,
        core: CoreId,
        src: EpAddr,
        my_ep: u8,
        msg_seq: u32,
        from: Ps,
    ) -> Ps {
        let (_, fin) = self.run_core(node, core, from, self.p.cfg.ctrl_frame_cost, category::BH);
        let pkt = Packet::Ack {
            src_ep: my_ep,
            dst_ep: src.ep.0,
            msg_seq,
        };
        self.stats.acks_sent += 1;
        self.send_packet(sim, node, src.node, pkt, fin);
        fin
    }

    #[allow(clippy::too_many_arguments)]
    fn rx_tiny(
        &mut self,
        sim: &mut Sim<Cluster>,
        node: NodeId,
        core: CoreId,
        src_node: NodeId,
        src_ep: u8,
        dst_ep: u8,
        match_info: u64,
        msg_seq: u32,
        data: Bytes,
    ) -> Ps {
        let src = self.addr_of(src_node, src_ep);
        let me = self.addr_of(node, dst_ep);
        let (_, fin) = self.run_core(
            node,
            core,
            sim.now(),
            self.p.cfg.bh_frag_process,
            category::BH,
        );
        if self.ep(me).seq_completed(src, msg_seq) {
            self.stats.duplicates_dropped += 1;
            return self.send_ack(sim, node, core, src, dst_ep, msg_seq, fin);
        }
        self.ep_mut(me).record_completed_seq(src, msg_seq);
        self.ep_mut(me).counters.rx_tiny += 1;
        self.push_event_at(
            sim,
            me,
            Event::RecvTiny {
                src,
                match_info,
                msg_seq,
                data,
            },
            fin,
        );
        self.send_ack(sim, node, core, src, dst_ep, msg_seq, fin)
    }

    #[allow(clippy::too_many_arguments)]
    fn rx_small(
        &mut self,
        sim: &mut Sim<Cluster>,
        node: NodeId,
        core: CoreId,
        src_node: NodeId,
        src_ep: u8,
        dst_ep: u8,
        match_info: u64,
        msg_seq: u32,
        data: Bytes,
    ) -> Ps {
        let src = self.addr_of(src_node, src_ep);
        let me = self.addr_of(node, dst_ep);
        let copy = self.bh_copy_cost(data.len() as u64);
        let process = self.p.cfg.bh_frag_process + copy;
        let (_, fin) = self.run_core(node, core, sim.now(), process, category::BH);
        self.metrics.busy(node.0, ins::BH_COPY, copy);
        self.metrics
            .count(node.0, ins::BH_COPY_BYTES, data.len() as u64);
        {
            let c = &mut self.ep_mut(me).counters;
            c.copies_memcpy += 1;
            c.bytes_memcpy += data.len() as u64;
        }
        if self.ep(me).seq_completed(src, msg_seq) {
            self.stats.duplicates_dropped += 1;
            return self.send_ack(sim, node, core, src, dst_ep, msg_seq, fin);
        }
        let len = data.len() as u32;
        let Some(slot) = self.ep_mut(me).slots.fill(&data) else {
            // Ring full: drop; the sender retransmits.
            return fin;
        };
        self.ep_mut(me).record_completed_seq(src, msg_seq);
        self.ep_mut(me).counters.rx_small += 1;
        self.push_event_at(
            sim,
            me,
            Event::RecvSmall {
                src,
                match_info,
                msg_seq,
                slot,
                len,
            },
            fin,
        );
        self.send_ack(sim, node, core, src, dst_ep, msg_seq, fin)
    }

    #[allow(clippy::too_many_arguments)]
    fn rx_medium_frag(
        &mut self,
        sim: &mut Sim<Cluster>,
        node: NodeId,
        core: CoreId,
        src_node: NodeId,
        src_ep: u8,
        dst_ep: u8,
        match_info: u64,
        msg_seq: u32,
        msg_len: u32,
        frag_idx: u16,
        frag_count: u16,
        offset: u32,
        data: Bytes,
        coalesced: bool,
    ) -> Ps {
        let src = self.addr_of(src_node, src_ep);
        let me = self.addr_of(node, dst_ep);
        let now = sim.now();
        if self.ep(me).seq_completed(src, msg_seq) {
            self.stats.duplicates_dropped += 1;
            let (_, fin) = self.run_core(node, core, now, self.p.cfg.bh_frag_process, category::BH);
            return self.send_ack(sim, node, core, src, dst_ep, msg_seq, fin);
        }
        // A message that fits in one fragment is complete on arrival:
        // it needs no reassembly bitmap, and `seq_completed` above is
        // its whole duplicate check. Kernel matching keeps its
        // per-message path.
        let whole = frag_count == 1 && frag_idx == 0 && !self.p.cfg.kernel_matching;
        // Duplicate fragment of an in-progress message?
        if !whole {
            let frag_slot = frag_idx as usize;
            if !self.ep(me).drv_medium.contains_key(&(src, msg_seq)) {
                // Per-message dedup bitmap, drawn from the per-node
                // scratch pool when the first fragment of a message
                // arrives: steady state recycles a retired message's
                // bitmap instead of allocating.
                let bitmap = self
                    .node_mut(node)
                    .driver
                    .scratch
                    .take_bitmap(frag_count as usize);
                self.ep_mut(me).drv_medium.insert((src, msg_seq), bitmap);
            }
            // A fragment index beyond the announced count would be a
            // sender bug; treat it as a duplicate, not a panic. A
            // missing map entry (impossible: inserted just above) folds
            // into the same path rather than panicking in BH context.
            let fresh = self
                .ep_mut(me)
                .drv_medium
                .get_mut(&(src, msg_seq))
                .is_some_and(|seen| match seen.get_mut(frag_slot) {
                    Some(bit) if !*bit => {
                        *bit = true;
                        true
                    }
                    _ => false,
                });
            if !fresh {
                self.stats.duplicates_dropped += 1;
                let (_, fin) =
                    self.run_core(node, core, now, self.p.cfg.bh_frag_process, category::BH);
                return fin;
            }
        }
        if self.p.cfg.kernel_matching {
            return self.rx_medium_kernel_match(
                sim, node, core, src, me, match_info, msg_seq, msg_len, frag_idx, frag_count,
                offset, data, coalesced,
            );
        }
        // Synchronous copy into a statically pinned ring slot: memcpy,
        // or (optionally, §III-C/IV-C) a synchronous I/OAT copy that
        // the BH must busy-poll — the measured medium-path degradation.
        let len = data.len() as u64;
        let mut work = self.bh_frag_cost(coalesced);
        let mut fin;
        if self.p.cfg.ioat_medium_sync
            && !self.p.cfg.ignore_bh_copy
            && len >= self.p.cfg.ioat_frag_threshold
        {
            // Ring-slot copies source from the skbuff payload, which
            // starts just past the packet header and is never page
            // aligned: "one or two chunks per page" (§IV-A) — here two.
            let ndesc = self.desc_count(offset as u64, len) + 1;
            let submit = self.ioat_submit_cost(ndesc, coalesced);
            work += submit;
            let (_, submit_fin) = self.run_core(node, core, now, work, category::BH);
            self.metrics.busy(node.0, ins::IOAT_SUBMIT_CPU, submit);
            let hw = self.p.hw.clone();
            let ch = self.pick_healthy_channel(node, submit_fin);
            let handle = self
                .node_mut(node)
                .ioat
                .submit(&hw, submit_fin, ch, len, ndesc);
            if handle.finish >= omx_hw::ioat::STALLED_FOREVER {
                // The channel died underneath the copy: busy-polling
                // here would never return. Quarantine it and re-do the
                // copy on the CPU.
                let until = submit_fin + self.p.cfg.ioat_quarantine_cooldown;
                self.quarantine_channel(node, ch, until);
                // The descriptor never completes on the dead channel:
                // release it without a complete.
                SimSanitizer::release(handle.san);
                let copy = self.bh_copy_cost(len);
                let (_, f) = self.run_core(node, core, submit_fin, copy, category::BH);
                self.metrics.busy(node.0, ins::BH_COPY, copy);
                self.metrics.count(node.0, ins::BH_COPY_BYTES, len);
                fin = f;
                self.record_ioat_fallback(node, fin, len);
                let c = &mut self.ep_mut(me).counters;
                c.copies_fallback += 1;
                c.copies_memcpy += 1;
                c.bytes_memcpy += len;
            } else {
                // Busy-poll until the copy completes.
                let wait = handle.finish.saturating_sub(submit_fin) + self.p.hw.ioat_poll_cost;
                let (_, f) = self.run_core(node, core, submit_fin, wait, category::BH);
                self.metrics.busy(node.0, ins::IOAT_POLL_WAIT, wait);
                fin = f;
                // Busy-polled to completion: reap the descriptor.
                SimSanitizer::complete(handle.san);
                SimSanitizer::release(handle.san);
                let c = &mut self.ep_mut(me).counters;
                c.copies_offloaded += 1;
                c.bytes_offloaded += len;
            }
        } else {
            let copy = self.bh_copy_cost(len);
            work += copy;
            let (_, f) = self.run_core(node, core, now, work, category::BH);
            self.metrics.busy(node.0, ins::BH_COPY, copy);
            self.metrics.count(node.0, ins::BH_COPY_BYTES, len);
            fin = f;
            let c = &mut self.ep_mut(me).counters;
            c.copies_memcpy += 1;
            c.bytes_memcpy += len;
        }
        let Some(slot) = self.ep_mut(me).slots.fill(&data) else {
            // Ring exhausted: the fragment is lost. A whole message
            // recorded nothing; any other fragment clears its dedup
            // bit. Either way the sender's retransmission is accepted.
            if !whole {
                if let Some(bit) = self
                    .ep_mut(me)
                    .drv_medium
                    .get_mut(&(src, msg_seq))
                    .and_then(|seen| seen.get_mut(frag_idx as usize))
                {
                    *bit = false;
                }
            }
            return fin;
        };
        self.ep_mut(me).counters.rx_medium_frags += 1;
        self.push_event_at(
            sim,
            me,
            Event::RecvMediumFrag {
                src,
                match_info,
                msg_seq,
                msg_len,
                frag_idx,
                frag_count,
                offset,
                slot,
                len: len as u32,
            },
            fin,
        );
        // Fully received? Then ack and mark completed.
        let done = whole || {
            let ep = self.ep(me);
            ep.drv_medium
                .get(&(src, msg_seq))
                .is_some_and(|v| v.iter().all(|&b| b))
        };
        if done {
            if !whole {
                if let Some(b) = self.ep_mut(me).drv_medium.remove(&(src, msg_seq)) {
                    self.node_mut(node).driver.scratch.put_bitmap(b);
                }
            }
            self.ep_mut(me).record_completed_seq(src, msg_seq);
            fin = self.send_ack(sim, node, core, src, dst_ep, msg_seq, fin);
        }
        fin
    }

    #[allow(clippy::too_many_arguments)]
    fn rx_rndv(
        &mut self,
        sim: &mut Sim<Cluster>,
        node: NodeId,
        core: CoreId,
        src_node: NodeId,
        src_ep: u8,
        dst_ep: u8,
        match_info: u64,
        msg_seq: u32,
        msg_len: u64,
        sender_handle: u32,
    ) -> Ps {
        let src = self.addr_of(src_node, src_ep);
        let me = self.addr_of(node, dst_ep);
        let (_, fin) = self.run_core(
            node,
            core,
            sim.now(),
            self.p.cfg.bh_frag_process,
            category::BH,
        );
        if self.ep(me).seq_completed(src, msg_seq) {
            // The pull finished but the Notify was lost: re-notify.
            self.stats.duplicates_dropped += 1;
            let (_, f) = self.run_core(node, core, fin, self.p.cfg.ctrl_frame_cost, category::BH);
            let pkt = Packet::Notify {
                src_ep: dst_ep,
                dst_ep: src_ep,
                sender_handle,
            };
            self.send_packet(sim, node, src.node, pkt, f);
            return f;
        }
        // Duplicate announcement while the original still sits in the
        // event ring / unexpected queue (sender retransmissions racing
        // a busy library), or while its pull is active: ignore. The
        // receiving endpoint's `rndv_pending` holds the announcement
        // from here until its pull finishes or is abandoned, so one
        // lookup answers both. Sequence numbers are per endpoint
        // *pair*, so the set is per receiving endpoint, or concurrent
        // transfers from one sender to two endpoints shadow each other.
        if self.ep(me).rndv_pending.contains(&(src, msg_seq)) {
            self.stats.duplicates_dropped += 1;
            // The announcement is a retransmission for a transfer we
            // are still working on (pull in flight, or the original
            // waiting on the library): answer with an ack as proof of
            // life, or a congested receiver looks dead to the sender
            // and the retransmission budget aborts a healthy send.
            let (_, f) = self.run_core(node, core, fin, self.p.cfg.ctrl_frame_cost, category::BH);
            let pkt = Packet::Ack {
                src_ep: dst_ep,
                dst_ep: src_ep,
                msg_seq,
            };
            self.stats.acks_sent += 1;
            self.send_packet(sim, node, src.node, pkt, f);
            return f;
        }
        self.ep_mut(me).rndv_pending.insert((src, msg_seq));
        self.ep_mut(me).counters.rx_rndv += 1;
        self.push_event_at(
            sim,
            me,
            Event::RecvRndv {
                src,
                match_info,
                msg_seq,
                msg_len,
                sender_handle,
            },
            fin,
        );
        fin
    }

    fn rx_notify(
        &mut self,
        sim: &mut Sim<Cluster>,
        node: NodeId,
        core: CoreId,
        dst_ep: u8,
        sender_handle: u32,
    ) -> Ps {
        let me = self.addr_of(node, dst_ep);
        let (_, fin) = self.run_core(
            node,
            core,
            sim.now(),
            self.p.cfg.bh_frag_process,
            category::BH,
        );
        let Some(tx) = self.node_mut(node).driver.tx_large.remove(&sender_handle) else {
            self.stats.duplicates_dropped += 1;
            return fin;
        };
        debug_assert_eq!(tx.ep, me.ep);
        // Release the pinned send region and complete the send.
        let region = self.ep(me).sends.get(&tx.req).and_then(|s| s.region);
        if let Some(r) = region {
            self.ep_mut(me).regions.release(r);
        }
        if let Some(st) = self.ep_mut(me).sends.get_mut(&tx.req) {
            st.acked = true;
        }
        self.push_event_at(sim, me, Event::SendDone { req: tx.req }, fin);
        fin
    }

    #[allow(clippy::too_many_arguments)]
    fn rx_ack(
        &mut self,
        sim: &mut Sim<Cluster>,
        node: NodeId,
        core: CoreId,
        src_node: NodeId,
        src_ep: u8,
        dst_ep: u8,
        msg_seq: u32,
    ) -> Ps {
        let me = self.addr_of(node, dst_ep);
        let acker = self.addr_of(src_node, src_ep);
        let (_, fin) = self.run_core(
            node,
            core,
            sim.now(),
            self.p.cfg.ctrl_frame_cost,
            category::BH,
        );
        let found = self
            .ep(me)
            .sends
            .iter()
            .find(|(_, s)| s.dest == acker && s.msg_seq == msg_seq)
            .map(|(r, _)| *r);
        let Some(req) = found else {
            return fin; // already reaped
        };
        let base_rto = self.p.cfg.retransmit_timeout;
        let (class, completed) = {
            // omx-lint: allow(fast-path-panic) `req` was found in this very map four lines up and nothing ran in between [test: tests/fault_soak.rs::duplicate_everything_is_idempotent]
            let st = self.ep_mut(me).sends.get_mut(&req).expect("just found");
            if matches!(st.class, MsgClass::Large) {
                // Liveness ack for an announced rendezvous: the
                // receiver knows the transfer but has not finished the
                // pull. Refresh the retransmission budget only — the
                // send must stay un-acked so re-announcement keeps
                // running (it is also what recovers a lost Notify).
                st.last_activity = fin;
                st.retx_attempts = 0;
                st.rto = base_rto;
                return fin;
            }
            st.acked = true;
            (st.class, st.completed)
        };
        self.ep_mut(me).last_ack = Some(fin);
        if completed {
            self.ep_mut(me).sends.remove(&req);
        } else if matches!(class, MsgClass::Medium) {
            // Medium sends complete on ack (zero-copy buffer reusable).
            self.push_event_at(sim, me, Event::SendDone { req }, fin);
        }
        fin
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{App, AppCtx};
    use crate::cluster::ClusterParams;
    use crate::config::OmxConfig;
    use std::cell::RefCell;
    use std::rc::Rc;

    type Seen = Rc<RefCell<Vec<(u64, Vec<u8>)>>>;

    /// Records each delivered receive as (match information, bytes)
    /// and, when given a message, sends it to `peer` at start.
    struct Host {
        seen: Seen,
        send: Option<(EpAddr, u64, Vec<u8>)>,
    }

    impl App for Host {
        fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
            if let Some((peer, tag, data)) = self.send.take() {
                ctx.isend(peer, tag, data, None);
            }
        }
        fn on_completion(&mut self, _ctx: &mut AppCtx<'_>, c: Completion) {
            if let Completion::Recv {
                match_info, data, ..
            } = c
            {
                self.seen.borrow_mut().push((match_info, data));
            }
        }
        fn is_done(&self) -> bool {
            true
        }
    }

    /// A receiver on node 0 and its peer on node 1 (sending `send` at
    /// start, if any); returns the receiver's deliveries too.
    fn world(
        cfg: OmxConfig,
        send: Option<(u64, Vec<u8>)>,
    ) -> (Cluster, Sim<Cluster>, EpAddr, EpAddr, Seen) {
        let mut c = Cluster::new(ClusterParams::with_cfg(cfg));
        let seen = Seen::default();
        let rx = c.add_endpoint(
            NodeId(0),
            CoreId(2),
            Box::new(Host {
                seen: seen.clone(),
                send: None,
            }),
        );
        let peer = c.add_endpoint(
            NodeId(1),
            CoreId(2),
            Box::new(Host {
                seen: Seen::default(),
                send: send.map(|(tag, data)| (rx, tag, data)),
            }),
        );
        (c, Sim::new(), rx, peer, seen)
    }

    fn bytes_of(seq: u32, len: usize) -> Vec<u8> {
        (0..len).map(|i| (i as u32 * 7 + seq) as u8).collect()
    }

    /// Message `seq` of `len` bytes, one fragment, as the peer sends it.
    fn one_fragment(seq: u32, tag: u64, len: usize) -> Packet {
        Packet::MediumFrag {
            src_ep: 0,
            dst_ep: 0,
            match_info: tag,
            msg_seq: seq,
            msg_len: len as u32,
            frag_idx: 0,
            frag_count: 1,
            offset: 0,
            data: bytes_of(seq, len).into(),
        }
    }

    fn rndv(seq: u32, tag: u64) -> Packet {
        Packet::RndvReq {
            src_ep: 0,
            dst_ep: 0,
            match_info: tag,
            msg_seq: seq,
            msg_len: 64 << 10,
            sender_handle: 1,
        }
    }

    /// A one-fragment medium message completes on arrival without a
    /// reassembly bitmap or assembly, and a copy arriving after it
    /// completed is acked and dropped.
    #[test]
    fn one_fragment_medium_is_acked_on_arrival_and_its_duplicate_dropped() {
        let (mut c, mut sim, rx, peer, seen) = world(OmxConfig::default(), None);
        c.post_irecv(&mut sim, rx, 5, u64::MAX, 4096, None);
        c.send_packet(
            &mut sim,
            NodeId(1),
            NodeId(0),
            one_fragment(0, 5, 2000),
            Ps::ZERO,
        );
        sim.run(&mut c);
        assert_eq!(*seen.borrow(), vec![(5, bytes_of(0, 2000))]);
        assert_eq!(c.stats.acks_sent, 1);
        assert!(c.ep(rx).seq_completed(peer, 0));
        assert!(c.ep(rx).drv_medium.is_empty(), "no reassembly bitmap");
        assert!(c.ep(rx).assemblies.is_empty(), "no assembly");

        let at = sim.now();
        c.send_packet(&mut sim, NodeId(1), NodeId(0), one_fragment(0, 5, 2000), at);
        sim.run(&mut c);
        assert_eq!(c.stats.duplicates_dropped, 1);
        assert_eq!(c.stats.acks_sent, 2, "the duplicate is acked");
        assert_eq!(c.ep(rx).counters.rx_medium_frags, 1, "and not delivered");
        assert_eq!(seen.borrow().len(), 1);
    }

    /// A one-fragment medium message dropped because the receive ring
    /// is full (its only slot still holds an event the library has not
    /// consumed) records nothing: the sender's retransmission is
    /// accepted and delivers the message intact.
    #[test]
    fn ring_full_drop_of_a_one_fragment_medium_is_retransmitted_intact() {
        let cfg = OmxConfig {
            recvq_slots: 1,
            ..OmxConfig::default()
        };
        let (mut c, mut sim, rx, peer, seen) = world(cfg, Some((5, bytes_of(3, 3000))));
        c.post_irecv(&mut sim, rx, 5, u64::MAX, 4096, None);
        let held = c
            .ep_mut(rx)
            .slots
            .fill(&Bytes::from_static(b"unconsumed"))
            .expect("an empty ring has a slot");
        sim.schedule_at(Ps::us(100), move |c: &mut Cluster, _| {
            c.ep_mut(rx).slots.release(held);
        });
        c.start(&mut sim);
        sim.run_until(&mut c, Ps::us(100));
        assert_eq!(c.ep(rx).slots.drops(), 1, "the first copy hit a full ring");
        assert!(!c.ep(rx).seq_completed(peer, 0), "nothing recorded");
        assert!(c.ep(rx).drv_medium.is_empty(), "no bitmap left behind");
        assert_eq!(c.stats.acks_sent, 0);
        sim.run(&mut c);
        assert_eq!(c.stats.retransmissions, 1);
        assert_eq!(*seen.borrow(), vec![(5, bytes_of(3, 3000))]);
        assert!(c.ep(peer).sends.is_empty(), "the ack completed the send");
    }

    /// An unmatched one-fragment medium is buffered as an assembly and
    /// adopted in the same order as before: a later receive takes an
    /// unexpected small message first, even one that arrived after the
    /// medium, then the buffered medium.
    #[test]
    fn unmatched_one_fragment_medium_is_adopted_after_unexpected_small_messages() {
        let (mut c, mut sim, rx, _, seen) = world(OmxConfig::default(), None);
        c.send_packet(
            &mut sim,
            NodeId(1),
            NodeId(0),
            one_fragment(0, 5, 2000),
            Ps::ZERO,
        );
        let small = Packet::Small {
            src_ep: 0,
            dst_ep: 0,
            match_info: 5,
            msg_seq: 1,
            data: bytes_of(1, 100).into(),
        };
        c.send_packet(&mut sim, NodeId(1), NodeId(0), small, Ps::us(20));
        sim.run(&mut c);
        assert_eq!(c.ep(rx).assemblies.len(), 1, "the medium is buffered");
        c.post_irecv(&mut sim, rx, 5, u64::MAX, 4096, None);
        c.post_irecv(&mut sim, rx, 5, u64::MAX, 4096, None);
        sim.run(&mut c);
        assert_eq!(
            *seen.borrow(),
            vec![(5, bytes_of(1, 100)), (5, bytes_of(0, 2000))]
        );
        assert!(c.ep(rx).assemblies.is_empty());
    }

    /// With kernel matching the driver still reassembles a
    /// one-fragment medium through its bitmap and matches it in the
    /// driver: one library event per message, matched or buffered.
    #[test]
    fn kernel_matching_keeps_its_one_fragment_path() {
        let cfg = OmxConfig {
            kernel_matching: true,
            ..OmxConfig::with_ioat()
        };
        let (mut c, mut sim, rx, _, seen) = world(cfg, None);
        c.post_irecv(&mut sim, rx, 5, u64::MAX, 4096, None);
        c.send_packet(
            &mut sim,
            NodeId(1),
            NodeId(0),
            one_fragment(0, 5, 2000),
            Ps::ZERO,
        );
        c.send_packet(
            &mut sim,
            NodeId(1),
            NodeId(0),
            one_fragment(1, 6, 1500),
            Ps::us(20),
        );
        sim.run(&mut c);
        assert_eq!(c.ep(rx).counters.events, 1, "one RecvMediumDone");
        assert_eq!(c.ep(rx).assemblies.len(), 1, "the unmatched one waits");
        assert!(c.ep(rx).drv_medium.is_empty());
        c.post_irecv(&mut sim, rx, 6, u64::MAX, 4096, None);
        sim.run(&mut c);
        assert_eq!(
            *seen.borrow(),
            vec![(5, bytes_of(0, 2000)), (6, bytes_of(1, 1500))]
        );
        assert_eq!(c.stats.acks_sent, 2);
    }

    /// A rendezvous announced again while its pull is in flight is
    /// acked as proof of life and dropped. Once the watchdog abandons
    /// the pull, the next announcement is a new rendezvous.
    #[test]
    fn duplicate_rendezvous_is_dropped_while_its_pull_runs_and_new_after_abandon() {
        let (mut c, mut sim, rx, peer, _) = world(OmxConfig::default(), None);
        c.post_irecv(&mut sim, rx, 9, u64::MAX, 64 << 10, None);
        c.send_packet(&mut sim, NodeId(1), NodeId(0), rndv(0, 9), Ps::ZERO);
        // The silent peer never answers the pull requests.
        sim.run_until(&mut c, Ps::us(100));
        assert_eq!(c.node(NodeId(0)).driver.pulls.len(), 1, "pull in flight");
        assert!(c.ep(rx).rndv_pending.contains(&(peer, 0)));
        let (acks, dups) = (c.stats.acks_sent, c.stats.duplicates_dropped);
        c.send_packet(&mut sim, NodeId(1), NodeId(0), rndv(0, 9), Ps::us(100));
        sim.run_until(&mut c, Ps::us(200));
        assert_eq!(c.stats.acks_sent, acks + 1, "acked");
        assert_eq!(c.stats.duplicates_dropped, dups + 1, "and dropped");
        assert_eq!(c.ep(rx).counters.rx_rndv, 1);
        assert_eq!(c.node(NodeId(0)).driver.pulls.len(), 1);

        sim.run(&mut c);
        assert!(c.node(NodeId(0)).driver.pulls.is_empty(), "abandoned");
        assert!(c.ep(rx).rndv_pending.is_empty());
        c.post_irecv(&mut sim, rx, 9, u64::MAX, 64 << 10, None);
        let at = sim.now();
        c.send_packet(&mut sim, NodeId(1), NodeId(0), rndv(0, 9), at);
        sim.run_until(&mut c, at + Ps::us(100));
        assert_eq!(c.ep(rx).counters.rx_rndv, 2, "a new rendezvous");
        assert_eq!(c.node(NodeId(0)).driver.pulls.len(), 1, "with a new pull");
        sim.run(&mut c);
    }
}
