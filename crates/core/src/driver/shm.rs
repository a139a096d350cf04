//! The Open-MX one-copy shared-memory path (§III-C, Fig 10).
//!
//! When source and destination endpoints live on the same host, the
//! driver short-circuits the network: a *single* copy moves the data
//! from the source process address space into the target. For large
//! messages that copy may be offloaded to the I/OAT engine as a
//! *synchronous* copy — the driver busy-polls for completion (or, with
//! the `SleepPredicted` extension, sleeps until the predicted finish).
//!
//! The memcpy rates here are what Figure 10 plots: ~6 GiB/s while two
//! processes share an L2 and the working set fits, collapsing to
//! ~1.2 GiB/s across sockets or beyond the cache, versus a steady
//! ~2.3 GiB/s for the offloaded copy.

use crate::cluster::Cluster;
use crate::config::{MsgClass, SyncWaitPolicy};
use crate::events::Event;
use crate::{EpAddr, ReqId};
use omx_hw::cache::RegionKey;
use omx_hw::cpu::category;
use omx_hw::mem::{CopyContext, MemModel};
use omx_hw::{Distance, IoatEngine};
use omx_sim::instruments as ins;
use omx_sim::sanitize::SimSanitizer;
use omx_sim::{Ps, Sim};

impl Cluster {
    /// Cost of one driver (syscall-context) CPU copy of `len` bytes
    /// from the buffer tagged `src_tag` (owned by a process on
    /// `src_core`) executed on `dst_core` of `node`.
    fn shm_memcpy_cost(
        &mut self,
        node: crate::NodeId,
        dst_core: omx_hw::CoreId,
        src_core: omx_hw::CoreId,
        src_tag: Option<u64>,
        dst_tag: Option<u64>,
        len: u64,
    ) -> Ps {
        let topo = self.p.topology;
        let distance = topo.distance(dst_core, src_core);
        let subchip = topo.subchip_of(dst_core);
        let cached_fraction = src_tag
            .map(|t| {
                self.node(node)
                    .cache
                    .hit_fraction(subchip, RegionKey(t), len)
            })
            .unwrap_or(0.0);
        let ctx = CopyContext {
            distance,
            cached_fraction,
            shared_cache_pair: distance == Distance::SameSubchip,
        };
        let cost = MemModel::copy_time_paged(&self.p.hw, len, &ctx);
        // The CPU copy streams both buffers through the copying core's
        // cache (this is the "pollution" I/OAT avoids). The source is
        // read (shared); the destination is written (exclusive, which
        // invalidates stale copies on other subchips).
        let hw = self.p.hw.clone();
        let cache = &mut self.node_mut(node).cache;
        if let Some(t) = src_tag {
            cache.touch(&hw, subchip, RegionKey(t), len);
        }
        if let Some(t) = dst_tag {
            cache.touch_exclusive(&hw, subchip, RegionKey(t), len);
        }
        self.metrics.busy(node.0, ins::SHM_COPY, cost);
        self.metrics.count(node.0, ins::SHM_COPY_BYTES, len);
        cost
    }

    /// Driver processing of a local (same-host) send command.
    pub(crate) fn shm_send(&mut self, sim: &mut Sim<Cluster>, me: EpAddr, req: ReqId) {
        let now = sim.now();
        let (class, dest, match_info, msg_seq, len) = {
            let st = self.ep(me).sends.get(&req).expect("send exists");
            (
                st.class,
                st.dest,
                st.match_info,
                st.msg_seq,
                st.data.len() as u64,
            )
        };
        self.ep_mut(me).counters.shm_tx += 1;
        self.ep_mut(me).counters.tx_bytes += len;
        match class {
            MsgClass::Tiny | MsgClass::Small | MsgClass::Medium => {
                self.shm_eager(sim, me, req, now);
            }
            MsgClass::Large => {
                // Local rendezvous: announce through the peer's event
                // ring; the receiver's pull command performs the copy.
                let handle = self.node_mut(me.node).driver.alloc_tx_handle();
                self.node_mut(me.node).driver.tx_large.insert(
                    handle,
                    super::TxLargeState {
                        ep: me.ep,
                        req,
                        dest,
                    },
                );
                {
                    let st = self.ep_mut(me).sends.get_mut(&req).expect("send exists");
                    st.sender_handle = Some(handle);
                }
                self.push_event_at(
                    sim,
                    dest,
                    Event::RecvRndv {
                        src: me,
                        match_info,
                        msg_seq,
                        msg_len: len,
                        sender_handle: handle,
                    },
                    now,
                );
            }
        }
    }

    /// Local eager delivery: the driver copies straight into the peer's
    /// ring (slots/events), one copy, in syscall context on the
    /// sender's core.
    fn shm_eager(&mut self, sim: &mut Sim<Cluster>, me: EpAddr, req: ReqId, now: Ps) {
        let (class, dest, match_info, msg_seq, data, tag) = {
            let st = self.ep(me).sends.get(&req).expect("send exists");
            (
                st.class,
                st.dest,
                st.match_info,
                st.msg_seq,
                st.data.clone(),
                st.tag,
            )
        };
        let node = me.node;
        let core = self.ep(me).core;
        let peer_core = self.ep(dest).core;
        match class {
            MsgClass::Tiny => {
                let cost = self.shm_memcpy_cost(node, core, core, tag, None, data.len() as u64);
                let (_, fin) = self.run_core(node, core, now, cost, category::DRIVER);
                self.push_event_at(
                    sim,
                    dest,
                    Event::RecvTiny {
                        src: me,
                        match_info,
                        msg_seq,
                        data,
                    },
                    fin,
                );
                self.finish_send(sim, me, req, fin);
                self.mark_local_send_acked(me, req);
            }
            MsgClass::Small => {
                let cost = self.shm_memcpy_cost(node, core, core, tag, None, data.len() as u64);
                let (_, fin) = self.run_core(node, core, now, cost, category::DRIVER);
                let len = data.len() as u32;
                match self.ep_mut(dest).slots.fill(&data) {
                    Some(slot) => {
                        self.push_event_at(
                            sim,
                            dest,
                            Event::RecvSmall {
                                src: me,
                                match_info,
                                msg_seq,
                                slot,
                                len,
                            },
                            fin,
                        );
                        self.finish_send(sim, me, req, fin);
                        self.mark_local_send_acked(me, req);
                    }
                    None => self.shm_retry_later(sim, me, req, fin),
                }
            }
            MsgClass::Medium => {
                // Per-fragment copies into the peer's ring slots. The
                // peer core matters: the slots will be read from there.
                let frag = self.p.cfg.frag_size as usize;
                let total = data.len();
                let count = total.div_ceil(frag).max(1);
                // All slots must be available; otherwise retry.
                if self.ep(dest).slots.free_slots() < count {
                    self.shm_retry_later(sim, me, req, now);
                    return;
                }
                let _ = peer_core;
                let mut fin = now;
                for i in 0..count {
                    let lo = i * frag;
                    let hi = (lo + frag).min(total);
                    let cost = self.shm_memcpy_cost(node, core, core, tag, None, (hi - lo) as u64);
                    let (_, f) = self.run_core(node, core, fin, cost, category::DRIVER);
                    fin = f;
                    let slot = self
                        .ep_mut(dest)
                        .slots
                        .fill(&data.slice(lo..hi))
                        .expect("slot availability checked");
                    self.push_event_at(
                        sim,
                        dest,
                        Event::RecvMediumFrag {
                            src: me,
                            match_info,
                            msg_seq,
                            msg_len: total as u32,
                            frag_idx: i as u16,
                            frag_count: count as u16,
                            offset: lo as u32,
                            slot,
                            len: (hi - lo) as u32,
                        },
                        fin,
                    );
                }
                self.finish_send(sim, me, req, fin);
                self.mark_local_send_acked(me, req);
            }
            MsgClass::Large => unreachable!("large local sends rendezvous"),
        }
    }

    /// Local sends need no ack; mark them so the completion reaps the
    /// request.
    fn mark_local_send_acked(&mut self, me: EpAddr, req: ReqId) {
        if let Some(st) = self.ep_mut(me).sends.get_mut(&req) {
            st.acked = true;
        }
    }

    /// Peer ring exhausted: retry the local send shortly.
    fn shm_retry_later(&mut self, sim: &mut Sim<Cluster>, me: EpAddr, req: ReqId, from: Ps) {
        sim.schedule_at(from + Ps::us(10), move |c: &mut Cluster, s| {
            if c.ep(me).sends.contains_key(&req) {
                c.shm_eager(s, me, req, s.now());
            }
        });
    }

    /// Receiver side of a local large transfer: the pull command's
    /// one-copy move, memcpy or synchronous I/OAT (§III-C).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn start_local_pull(
        &mut self,
        sim: &mut Sim<Cluster>,
        me: EpAddr,
        req: ReqId,
        src: EpAddr,
        sender_handle: u32,
        msg_len: u64,
        msg_seq: u32,
        from: Ps,
    ) {
        let node = me.node;
        let core = self.ep(me).core;
        let syscall = self.p.hw.syscall_cost + self.p.cfg.driver_cmd_cost;
        let (_, mut fin) = self.run_core(node, core, from, syscall, category::DRIVER);
        // Pull the source data and tags out of the sender's state.
        let tx = self
            .node(node)
            .driver
            .tx_large
            .get(&sender_handle)
            .copied()
            .expect("local rendezvous has sender state");
        let (data, src_tag, src_core) = {
            let sep = self.ep(src);
            let st = sep.sends.get(&tx.req).expect("large local send alive");
            (st.data.clone(), st.tag, sep.core)
        };
        let dst_tag = self.ep(me).recvs.get(&req).and_then(|r| r.tag);
        if let Some(rs) = self.ep_mut(me).recvs.get_mut(&req) {
            rs.total = msg_len;
        }
        self.ep_mut(me).counters.shm_pulls += 1;
        let offload = self.p.cfg.offload_shm_copy(msg_len);
        {
            let c = &mut self.ep_mut(me).counters;
            if offload {
                c.copies_offloaded += 1;
                c.bytes_offloaded += msg_len;
            } else {
                c.copies_memcpy += 1;
                c.bytes_memcpy += msg_len;
            }
        }
        if offload {
            // I/OAT needs both buffers pinned.
            let hw = self.p.hw.clone();
            let src_key = src_tag.unwrap_or(tx.req.0 | (1 << 61));
            let dst_key = dst_tag.unwrap_or(req.0 | (1 << 62));
            let reg_src = self.ep_mut(me).regions.register(&hw, src_key, msg_len);
            let reg_dst = self.ep_mut(me).regions.register(&hw, dst_key, msg_len);
            let (_, f) = self.run_core(
                node,
                core,
                fin,
                reg_src.cost + reg_dst.cost,
                category::DRIVER,
            );
            fin = f;
            // Submit one descriptor per page of each channel's share
            // (one share, or an equal split across every channel whose
            // last share takes the remainder). Submission pipelines
            // with execution: the channel starts after the *first*
            // descriptor lands while the CPU keeps feeding the rest
            // (350 ns each < the ~1.6 us a 4 kB descriptor executes).
            let multichannel = self.p.cfg.ioat_multichannel_split;
            let channels = if multichannel {
                self.node(node).ioat.num_channels() as u64
            } else {
                1
            };
            let per = msg_len / channels;
            let share = |ch: u64| {
                if ch == channels - 1 {
                    msg_len - per * (channels - 1)
                } else {
                    per
                }
            };
            let page = self.p.hw.page_size;
            let ndesc: u64 = (0..channels)
                .map(|ch| IoatEngine::descriptors_for(share(ch), page))
                .sum();
            // An intranode pull is one message: the whole descriptor
            // chain rings a single doorbell.
            let submit = self.ioat_submit_cost(ndesc, false);
            let (_, submit_fin) = self.run_core(node, core, fin, submit, category::DRIVER);
            self.metrics.busy(node.0, ins::IOAT_SUBMIT_CPU, submit);
            let first_desc_at = fin + self.p.hw.ioat_submit_cpu;
            let hw = self.p.hw.clone();
            let single_ch = if multichannel {
                0
            } else {
                self.pick_healthy_channel(node, first_desc_at)
            };
            // Collect the handles in the per-node scratch (taken out of
            // the driver for the duration so `self` stays usable).
            let mut handles = std::mem::take(&mut self.node_mut(node).driver.scratch.handles);
            handles.clear();
            let ioat = &mut self.node_mut(node).ioat;
            if multichannel {
                // Split across all channels; completion is the max.
                for ch in 0..channels {
                    let bytes = share(ch);
                    let descriptors = IoatEngine::descriptors_for(bytes, page);
                    handles.push(ioat.submit(&hw, first_desc_at, ch as usize, bytes, descriptors));
                }
            } else {
                handles.push(ioat.submit(&hw, first_desc_at, single_ch, msg_len, ndesc));
            }
            let mut handle_finish = if multichannel {
                first_desc_at
            } else {
                submit_fin
            };
            let mut any_stalled = false;
            for h in &handles {
                if h.finish >= omx_hw::ioat::STALLED_FOREVER {
                    any_stalled = true;
                }
                handle_finish = handle_finish.max(h.finish);
            }
            // The offloaded copy bypasses caches: stale destination
            // lines become invalid.
            if let Some(t) = dst_tag {
                self.node_mut(node).cache.invalidate(RegionKey(t));
            }
            // Release the registrations (the cache defers the unpin,
            // so repeated transfers of the same buffers pin for free).
            self.ep_mut(me).regions.release(reg_src.region);
            self.ep_mut(me).regions.release(reg_dst.region);
            let done = if any_stalled {
                // The engine died underneath the copy: both wait
                // policies below would wait forever. Quarantine the
                // dead channel(s) and re-do the copy on the CPU (the
                // predictor is *not* fed — a fallback memcpy says
                // nothing about healthy-channel copy latency). Every
                // submitted descriptor — including the healthy ones
                // nobody will poll again — is abandoned: release
                // without completing.
                for h in &handles {
                    SimSanitizer::release(h.san);
                }
                let cooldown = self.p.cfg.ioat_quarantine_cooldown;
                for h in &handles {
                    if h.finish >= omx_hw::ioat::STALLED_FOREVER {
                        self.quarantine_channel(node, h.channel, submit_fin + cooldown);
                    }
                }
                self.record_ioat_fallback(node, submit_fin, msg_len);
                {
                    // The copy ends up on the CPU after all: move the
                    // bytes from the offload counters to the memcpy
                    // counters so `omx_counters` reflects what ran.
                    let c = &mut self.ep_mut(me).counters;
                    c.copies_offloaded -= 1;
                    c.bytes_offloaded -= msg_len;
                    c.copies_fallback += 1;
                    c.copies_memcpy += 1;
                    c.bytes_memcpy += msg_len;
                }
                let cost = self.shm_memcpy_cost(node, core, src_core, src_tag, dst_tag, msg_len);
                let (_, f) = self.run_core(node, core, submit_fin, cost, category::DRIVER);
                f
            } else {
                // The wait below (busy-poll or sleep+poll) reaches
                // `handle_finish`, so every descriptor completes.
                for h in &handles {
                    SimSanitizer::complete(h.san);
                    SimSanitizer::release(h.san);
                }
                match self.p.cfg.sync_wait {
                    SyncWaitPolicy::BusyPoll => {
                        let wait =
                            handle_finish.saturating_sub(submit_fin) + self.p.hw.ioat_poll_cost;
                        let (_, f) = self.run_core(node, core, submit_fin, wait, category::DRIVER);
                        self.metrics.busy(node.0, ins::IOAT_POLL_WAIT, wait);
                        f
                    }
                    SyncWaitPolicy::SleepPredicted => {
                        // Sleep until the predicted completion, then poll;
                        // busy-poll any remainder (extension, §VI).
                        let predicted = {
                            let n = self.node_mut(node);
                            submit_fin + n.predictor.predict(msg_len)
                        };
                        let wake = predicted.max(submit_fin);
                        let f = if wake >= handle_finish {
                            let (_, f) = self.run_core(
                                node,
                                core,
                                wake,
                                self.p.hw.ioat_poll_cost,
                                category::DRIVER,
                            );
                            self.metrics.busy(
                                node.0,
                                ins::IOAT_POLL_WAIT,
                                self.p.hw.ioat_poll_cost,
                            );
                            f
                        } else {
                            let wait =
                                handle_finish.saturating_sub(wake) + self.p.hw.ioat_poll_cost;
                            let (_, f) = self.run_core(node, core, wake, wait, category::DRIVER);
                            self.metrics.busy(node.0, ins::IOAT_POLL_WAIT, wait);
                            f
                        };
                        let actual = handle_finish.saturating_sub(submit_fin);
                        self.node_mut(node).predictor.observe(msg_len, actual);
                        f
                    }
                }
            };
            fin = done;
            self.node_mut(node).driver.scratch.handles = handles;
        } else {
            let cost = self.shm_memcpy_cost(node, core, src_core, src_tag, dst_tag, msg_len);
            let (_, f) = self.run_core(node, core, fin, cost, category::DRIVER);
            fin = f;
        }
        // Apply the bytes.
        {
            let ep = self.ep_mut(me);
            if let Some(rs) = ep.recvs.get_mut(&req) {
                rs.buf.write(0, &data);
            }
        }
        // Complete both sides.
        self.node_mut(node).driver.tx_large.remove(&sender_handle);
        self.ep_mut(me).record_completed_seq(src, msg_seq);
        if let Some(st) = self.ep_mut(src).sends.get_mut(&tx.req) {
            st.acked = true;
        }
        self.push_event_at(sim, src, Event::SendDone { req: tx.req }, fin);
        self.push_event_at(sim, me, Event::RecvLargeDone { req, len: msg_len }, fin);
    }
}
