//! The large-message pull engine (§III-A/III-B).
//!
//! Receiver side: after the library matches a rendezvous, the driver
//! pins the destination region and requests fragments in blocks of 8,
//! keeping 2 blocks outstanding. Each arriving fragment is copied into
//! the pinned region — by memcpy, or (the paper's contribution) by an
//! *asynchronous* I/OAT copy submitted from the BH, which releases the
//! CPU immediately. Only the last fragment's BH waits for all pending
//! copies before raising the single completion event. Skbuffs held by
//! pending copies are released by the cleanup routine that piggybacks
//! on every new block request (bounding memory, §III-B) and on the
//! retransmission timeout.

use crate::cluster::Cluster;
use crate::driver::{PendingCopy, PullState};
use crate::events::Event;
use crate::proto::Packet;
use crate::{EpAddr, NodeId, ReqId};
use bytes::Bytes;
use omx_hw::cpu::category;
use omx_hw::CoreId;
use omx_sim::instruments as ins;
use omx_sim::sanitize::SimSanitizer;
use omx_sim::{Ps, Sim};

impl Cluster {
    /// Publish `ev` to `addr` at time `at` (the moment the producing
    /// work finishes).
    pub(crate) fn push_event_at(
        &mut self,
        sim: &mut Sim<Cluster>,
        addr: EpAddr,
        ev: Event,
        at: Ps,
    ) {
        sim.schedule_at(at, move |c: &mut Cluster, s| c.push_event(s, addr, ev));
    }

    /// Driver half of starting a pull: pin the region, create the pull
    /// state, request the first blocks. `from` is the time the library
    /// handed the command over.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn start_pull(
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
        let core = self.ep(me).core;
        let node = me.node;
        // Command syscall into the driver.
        let syscall = self.p.hw.syscall_cost + self.p.cfg.driver_cmd_cost;
        let (_, fin) = self.run_core(node, core, from, syscall, category::DRIVER);
        // Pin the destination buffer (registration cache may hit).
        let tag = self
            .ep(me)
            .recvs
            .get(&req)
            .and_then(|r| r.tag)
            .unwrap_or(req.0 | (1 << 62));
        let hw = self.p.hw.clone();
        let reg = self.ep_mut(me).regions.register(&hw, tag, msg_len);
        {
            let c = &mut self.ep_mut(me).counters;
            if reg.cache_hit {
                c.regcache_hits += 1;
            } else {
                c.regcache_misses += 1;
            }
        }
        let (_, mut fin) = self.run_core(node, core, fin, reg.cost, category::DRIVER);
        if let Some(rs) = self.ep_mut(me).recvs.get_mut(&req) {
            rs.region = Some(reg.region);
            rs.total = msg_len;
        }
        let frag = self.p.cfg.frag_size;
        let frags_total = msg_len.div_ceil(frag).max(1) as u32;
        let bf = self.p.cfg.pull_block_frags;
        let blocks_total = frags_total.div_ceil(bf);
        // Per-block and per-fragment accounting buffers come from the
        // per-node scratch pools: in steady state a new pull reuses the
        // buffers a finished one returned.
        let mut block_remaining = self.node_mut(node).driver.scratch.take_blocks();
        block_remaining.extend((0..blocks_total).map(|b| (frags_total - b * bf).min(bf)));
        let handle = self.node_mut(node).driver.alloc_pull_handle();
        let generation = self.node_mut(node).driver.alloc_pull_generation();
        // Prefer a channel that is not quarantined; if every channel is
        // blacklisted the fragment path falls back to memcpy anyway.
        let channel = self.pick_healthy_channel(node, fin);
        let credits = self.p.cfg.pull_credits;
        let first_blocks = blocks_total.min(self.p.cfg.pull_blocks_outstanding);
        // Credit mode: no block is pre-granted — every request goes
        // through the shared budget, so an incast start cannot stampede
        // the receiver with N uncoordinated first windows.
        let initial_blocks = if credits { 0 } else { first_blocks };
        let base_rto = self.p.cfg.retransmit_timeout;
        let drv = &mut self.node_mut(node).driver;
        let state = PullState::new(
            me.ep,
            req,
            src,
            sender_handle,
            msg_seq,
            msg_len,
            frags_total,
            block_remaining,
            initial_blocks,
            channel,
            from,
            generation,
            base_rto,
            &mut drv.scratch,
        );
        drv.pulls.insert(handle, state);
        if credits {
            self.credit_enqueue(node, handle);
            fin = self.credit_pump(sim, node, core, fin, category::DRIVER);
        } else {
            // Request the first window of blocks (driver context).
            for b in 0..first_blocks {
                let (_, f) = self.run_core(
                    node,
                    core,
                    fin,
                    self.p.cfg.ctrl_frame_cost,
                    category::DRIVER,
                );
                fin = f;
                self.send_block_request(sim, node, handle, b, fin);
            }
        }
        self.schedule_pull_watchdog(sim, node, handle, generation, 0, fin);
    }

    /// Build and send the PullReq for block `b` of pull `handle`.
    fn send_block_request(
        &mut self,
        sim: &mut Sim<Cluster>,
        node: NodeId,
        handle: u32,
        block: u32,
        at: Ps,
    ) {
        let bf = self.p.cfg.pull_block_frags;
        let Some(pull) = self.node(node).driver.pulls.get(&handle) else {
            return;
        };
        let frag_start = block * bf;
        let frag_count = (pull.frags_total - frag_start).min(bf);
        let pkt = Packet::PullReq {
            src_ep: pull.ep.0,
            dst_ep: pull.src.ep.0,
            sender_handle: pull.sender_handle,
            recv_handle: handle,
            frag_start,
            frag_count,
        };
        let dst = pull.src.node;
        self.send_packet(sim, node, dst, pkt, at);
    }

    /// Sender side: a pull request arrived in BH context — stream the
    /// requested fragments back, zero-copy from the pinned send buffer.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn rx_pull_req(
        &mut self,
        sim: &mut Sim<Cluster>,
        node: NodeId,
        core: CoreId,
        dst_ep: u8,
        sender_handle: u32,
        recv_handle: u32,
        frag_start: u32,
        frag_count: u32,
    ) -> Ps {
        let (_, mut fin) = self.run_core(
            node,
            core,
            sim.now(),
            self.p.cfg.bh_frag_process,
            category::BH,
        );
        let Some(tx) = self.node(node).driver.tx_large.get(&sender_handle).copied() else {
            self.stats.duplicates_dropped += 1;
            return fin;
        };
        let me = EpAddr {
            node,
            ep: crate::EpIdx(dst_ep),
        };
        debug_assert_eq!(tx.ep, me.ep, "pull request routed to wrong endpoint");
        let base_rto = self.p.cfg.retransmit_timeout;
        let (dest, data) = {
            let st = self
                .ep_mut(me)
                .sends
                .get_mut(&tx.req)
                // omx-lint: allow(fast-path-panic) tx_large entries and their send are created together and reaped together; duplicate/stale pull requests are rejected above [test: tests/fault_soak.rs::duplicate_everything_is_idempotent]
                .expect("large send alive");
            // Pull requests are proof the receiver is making progress:
            // reset the rendezvous retransmission deadline, the give-up
            // budget (exhaustion must mean *consecutive* silence, not
            // accumulated timeouts over a long transfer) and the
            // adaptive backoff.
            st.last_activity = fin;
            st.retx_attempts = 0;
            st.rto = base_rto;
            (st.dest, st.data.clone())
        };
        let frag = self.p.cfg.frag_size;
        for i in frag_start..frag_start + frag_count {
            let lo = (i as u64 * frag).min(data.len() as u64) as usize;
            let hi = ((i as u64 + 1) * frag).min(data.len() as u64) as usize;
            if lo >= hi {
                break;
            }
            let (_, f) = self.run_core(node, core, fin, self.p.cfg.tx_frag_cost, category::BH);
            fin = f;
            self.ep_mut(me).counters.tx_large_frags += 1;
            let pkt = Packet::LargeFrag {
                src_ep: me.ep.0,
                dst_ep: dest.ep.0,
                recv_handle,
                frag_idx: i,
                offset: lo as u64,
                data: data.slice(lo..hi),
            };
            self.send_packet(sim, node, dest.node, pkt, fin);
        }
        fin
    }

    /// Receiver side: one large fragment arrived in BH context.
    /// `coalesced` marks a GRO frame-train tail (cheaper bookkeeping).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn rx_large_frag(
        &mut self,
        sim: &mut Sim<Cluster>,
        node: NodeId,
        core: CoreId,
        recv_handle: u32,
        frag_idx: u32,
        offset: u64,
        data: Bytes,
        coalesced: bool,
    ) -> Ps {
        let now = sim.now();
        // Stale fragment after completion, duplicate, or out of range?
        // `frag_is_new` treats an out-of-bounds index as already-seen,
        // so a corrupted-but-FCS-clean or misrouted index cannot panic
        // the BH.
        let valid = self
            .node(node)
            .driver
            .pulls
            .get(&recv_handle)
            .map(|p| p.frag_is_new(frag_idx));
        match valid {
            None | Some(false) => {
                self.stats.duplicates_dropped += 1;
                let (_, fin) =
                    self.run_core(node, core, now, self.p.cfg.bh_frag_process, category::BH);
                return fin;
            }
            Some(true) => {}
        }
        let (me, req, msg_len, channel) = {
            let p = self
                .node(node)
                .driver
                .pulls
                .get(&recv_handle)
                // omx-lint: allow(fast-path-panic) freshness of recv_handle was checked on BH entry just above [test: tests/fault_soak.rs::duplicate_everything_is_idempotent]
                .expect("checked");
            (EpAddr { node, ep: p.ep }, p.req, p.msg_len, p.channel)
        };
        let len = data.len() as u64;
        // A vectorial destination splits the copy at segment
        // boundaries: the effective chunk shrinks and the fragment
        // threshold (§IV-A) decides against offloading tiny chunks.
        let seg = self
            .ep(me)
            .recvs
            .get(&req)
            .and_then(|r| r.seg_size)
            .unwrap_or(u64::MAX);
        let chunk_eff = len.min(seg).max(1);
        // --- copy path decision -----------------------------------------
        let in_warm_head = offset < self.p.cfg.warm_copy_head_bytes;
        let offload = self.p.cfg.offload_net_copy(msg_len, chunk_eff)
            && !self.p.cfg.ignore_bh_copy
            && !in_warm_head;
        // Graceful degradation: a quarantined (or scheduled-dead)
        // channel demotes this fragment to the memcpy path instead of
        // feeding more copies to hardware known to be stuck.
        let ch = if offload {
            let multichannel = self.p.cfg.ioat_multichannel_split;
            let n = self.node_mut(node);
            if multichannel {
                n.ioat.pick_channel_least_loaded()
            } else {
                channel
            }
        } else {
            channel
        };
        let channel_ok = !offload || self.ioat_channel_usable(node, ch, now);
        if offload && !channel_ok {
            self.record_ioat_fallback(node, now, len);
            self.ep_mut(me).counters.copies_fallback += 1;
        }
        let offload = offload && channel_ok;
        let mut fin;
        let mut copy_handle = None;
        if offload {
            let ndesc = self.desc_count(offset, len).max(len.div_ceil(chunk_eff));
            let submit = self.ioat_submit_cost(ndesc, coalesced);
            let work = self.bh_frag_cost(coalesced) + submit;
            let (_, submit_fin) = self.run_core(node, core, now, work, category::BH);
            self.metrics.busy(node.0, ins::IOAT_SUBMIT_CPU, submit);
            fin = submit_fin;
            let hw = self.p.hw.clone();
            let n = self.node_mut(node);
            copy_handle = Some(n.ioat.submit(&hw, submit_fin, ch, len, ndesc));
            self.node_mut(node).driver.hold_skbuffs(1);
            let c = &mut self.ep_mut(me).counters;
            c.copies_offloaded += 1;
            c.bytes_offloaded += len;
            c.rx_large_frags += 1;
        } else {
            let copy = self.bh_copy_cost_chunked(len, chunk_eff);
            let work = self.bh_frag_cost(coalesced) + copy;
            let (_, f) = self.run_core(node, core, now, work, category::BH);
            self.metrics.busy(node.0, ins::BH_COPY, copy);
            self.metrics.count(node.0, ins::BH_COPY_BYTES, len);
            fin = f;
            let c = &mut self.ep_mut(me).counters;
            c.copies_memcpy += 1;
            c.bytes_memcpy += len;
            c.rx_large_frags += 1;
        }
        // --- apply the data and progress accounting ----------------------
        {
            let ep = self.ep_mut(me);
            if let Some(rs) = ep.recvs.get_mut(&req) {
                rs.buf.write(offset, &data);
            }
        }
        let bf = self.p.cfg.pull_block_frags;
        let (progress, next_block, blocks_total) = {
            let p = self
                .node_mut(node)
                .driver
                .pulls
                .get_mut(&recv_handle)
                // omx-lint: allow(fast-path-panic) freshness of recv_handle was checked on BH entry just above [test: tests/fault_soak.rs::duplicate_everything_is_idempotent]
                .expect("checked");
            p.bytes_done += len;
            p.last_progress = fin;
            if let Some(h) = copy_handle {
                p.pending_copies.push(PendingCopy {
                    handle: h,
                    skbs: 1,
                    bytes: len,
                });
            }
            let progress = p
                .note_frag(frag_idx, bf)
                // omx-lint: allow(fast-path-panic) stale/duplicate fragments were filtered by the freshness check on BH entry [test: tests/fault_soak.rs::duplicate_everything_is_idempotent]
                .expect("freshness checked on BH entry");
            (progress, p.next_block, p.block_remaining.len() as u32)
        };
        let (block_done, all_arrived) = (progress.block_done, progress.all_arrived);
        // --- block completed: cleanup + request the next block -----------
        if self.p.cfg.pull_credits {
            if block_done {
                // Return the block's credit to the shared budget, then
                // let the pump hand it to whichever pull (this one or a
                // starved peer) is first in line.
                self.credit_release_block(node, recv_handle);
                self.credit_maybe_regrow(node, fin);
                if !all_arrived {
                    fin = self.pull_cleanup(sim, node, core, recv_handle, fin);
                    self.credit_enqueue(node, recv_handle);
                }
                fin = self.credit_pump(sim, node, core, fin, category::BH);
            }
        } else if block_done && next_block < blocks_total && !all_arrived {
            fin = self.pull_cleanup(sim, node, core, recv_handle, fin);
            let (_, f) = self.run_core(node, core, fin, self.p.cfg.ctrl_frame_cost, category::BH);
            fin = f;
            self.node_mut(node)
                .driver
                .pulls
                .get_mut(&recv_handle)
                // omx-lint: allow(fast-path-panic) freshness of recv_handle was checked on BH entry just above [test: tests/fault_soak.rs::duplicate_everything_is_idempotent]
                .expect("checked")
                .next_block += 1;
            self.send_block_request(sim, node, recv_handle, next_block, fin);
        }
        // --- message complete: drain copies, notify, raise the event -----
        if all_arrived {
            fin = self.finish_pull(sim, node, core, recv_handle, fin);
        }
        fin
    }

    /// The §III-B cleanup routine: poll the DMA channel once, release
    /// the skbuffs of completed copies. The same poll doubles as the
    /// stuck-channel detector: any copy whose completion lies further
    /// than the stall deadline in the future is re-done on the CPU and
    /// its channel quarantined.
    pub(crate) fn pull_cleanup(
        &mut self,
        sim: &mut Sim<Cluster>,
        node: NodeId,
        core: CoreId,
        recv_handle: u32,
        from: Ps,
    ) -> Ps {
        let _ = sim;
        let has_pending = self
            .node(node)
            .driver
            .pulls
            .get(&recv_handle)
            .is_some_and(|p| !p.pending_copies.is_empty());
        if !has_pending {
            return from;
        }
        let (_, fin) = self.run_core(node, core, from, self.p.hw.ioat_poll_cost, category::BH);
        let fin = self.rescue_stuck_copies(node, core, recv_handle, fin);
        let freed = self
            .node_mut(node)
            .driver
            .pulls
            .get_mut(&recv_handle)
            .map(|p| p.reap_completed(fin))
            .unwrap_or(0);
        self.node_mut(node).driver.release_skbuffs(freed);
        fin
    }

    /// Completion-poll deadline handling (the dmaengine-style recovery
    /// half of the fault model): pending copies whose completion is
    /// further than `cfg.ioat_stall_deadline` away are declared stuck.
    /// The driver re-does each on the CPU (the fragment data was
    /// already applied at arrival, so this charges the memcpy time and
    /// frees the pinned skbuffs) and quarantines the offending channel
    /// until the re-probe cool-down expires.
    fn rescue_stuck_copies(
        &mut self,
        node: NodeId,
        core: CoreId,
        recv_handle: u32,
        from: Ps,
    ) -> Ps {
        let deadline = self.p.cfg.ioat_stall_deadline;
        // Reusable extraction buffer: taken from the per-node scratch
        // (leaving an unallocated empty vec behind) and handed back
        // below, so the poll path never touches the allocator.
        let mut stuck = std::mem::take(&mut self.node_mut(node).driver.scratch.stuck);
        stuck.clear();
        let ep = match self.node_mut(node).driver.pulls.get_mut(&recv_handle) {
            Some(p) => {
                p.take_stuck(from, deadline, &mut stuck);
                Some(p.ep)
            }
            None => None,
        };
        let mut fin = from;
        for pc in stuck.drain(..) {
            let copy = self.bh_copy_cost(pc.bytes);
            let (_, f) = self.run_core(node, core, fin, copy, category::BH);
            self.metrics.busy(node.0, ins::BH_COPY, copy);
            fin = f;
            self.record_ioat_fallback(node, fin, pc.bytes);
            if let Some(ep) = ep {
                self.ep_mut(EpAddr { node, ep }).counters.copies_fallback += 1;
            }
            self.node_mut(node).driver.release_skbuffs(pc.skbs);
            let until = fin + self.p.cfg.ioat_quarantine_cooldown;
            self.quarantine_channel(node, pc.handle.channel, until);
        }
        self.node_mut(node).driver.scratch.stuck = stuck;
        fin
    }

    /// All fragments arrived: wait for pending asynchronous copies
    /// (busy-poll in BH context), then notify the sender and raise the
    /// single completion event.
    fn finish_pull(
        &mut self,
        sim: &mut Sim<Cluster>,
        node: NodeId,
        core: CoreId,
        recv_handle: u32,
        from: Ps,
    ) -> Ps {
        // Rescue stuck copies first — otherwise the busy-poll below
        // would wait for a completion that never comes.
        let mut fin = self.rescue_stuck_copies(node, core, recv_handle, from);
        let last_finish = self
            .node(node)
            .driver
            .pulls
            .get(&recv_handle)
            .and_then(|p| p.last_copy_finish());
        if let Some(t) = last_finish {
            // Busy-poll until every pending copy completed.
            let wait = t.saturating_sub(fin) + self.p.hw.ioat_poll_cost;
            let (_, f) = self.run_core(node, core, fin, wait, category::BH);
            self.metrics.busy(node.0, ins::IOAT_POLL_WAIT, wait);
            fin = f;
        }
        let pull = self
            .node_mut(node)
            .driver
            .pulls
            .remove(&recv_handle)
            .expect("completing an existing pull");
        let held: u64 = pull.pending_copies.iter().map(|pc| pc.skbs).sum();
        self.node_mut(node).driver.release_skbuffs(held);
        // Every remaining pending copy finished inside the busy-poll
        // above: observe each completion exactly once, then retire the
        // descriptors and the pull handle itself.
        for pc in &pull.pending_copies {
            SimSanitizer::complete(pc.handle.san);
            SimSanitizer::release(pc.handle.san);
        }
        SimSanitizer::complete(pull.token());
        SimSanitizer::release(pull.token());
        let me = EpAddr { node, ep: pull.ep };
        // Duplicate-suppress (the completed sequence now answers a
        // retransmitted announcement) and release the pinned region.
        self.ep_mut(me).record_completed_seq(pull.src, pull.msg_seq);
        self.ep_mut(me)
            .rndv_pending
            .remove(&(pull.src, pull.msg_seq));
        let region = self.ep(me).recvs.get(&pull.req).and_then(|r| r.region);
        if let Some(r) = region {
            self.ep_mut(me).regions.release(r);
        }
        // Notify the sender (its send completes on this).
        let (_, f) = self.run_core(node, core, fin, self.p.cfg.ctrl_frame_cost, category::BH);
        fin = f;
        let pkt = Packet::Notify {
            src_ep: me.ep.0,
            dst_ep: pull.src.ep.0,
            sender_handle: pull.sender_handle,
        };
        self.send_packet(sim, node, pull.src.node, pkt, fin);
        self.push_event_at(
            sim,
            me,
            Event::RecvLargeDone {
                req: pull.req,
                len: pull.msg_len,
            },
            fin,
        );
        // Return the pull's heap-backed state to the per-node scratch
        // pool so the next pull on this node allocates nothing.
        self.node_mut(node).driver.scratch.recycle_pull(pull);
        fin
    }

    /// Give up re-requesting after this many consecutive stalled
    /// checks (mirrors the eager path's retransmission bound; a real
    /// stack would declare the peer dead).
    const MAX_PULL_STALLS: u32 = 10;

    /// Arm the pull watchdog: if no fragment arrives within the
    /// (adaptive) retransmission timeout, run the cleanup routine (the
    /// paper ties it to this timer too) and re-request the incomplete
    /// blocks. The watchdog is stamped with the pull's generation so a
    /// timer armed for a dead pull no-ops when its small handle
    /// namespace is recycled by a later message.
    fn schedule_pull_watchdog(
        &mut self,
        sim: &mut Sim<Cluster>,
        node: NodeId,
        handle: u32,
        generation: u64,
        progress_snapshot: u64,
        from: Ps,
    ) {
        self.schedule_pull_watchdog_n(sim, node, handle, generation, progress_snapshot, 0, from);
    }

    #[allow(clippy::too_many_arguments)]
    fn schedule_pull_watchdog_n(
        &mut self,
        sim: &mut Sim<Cluster>,
        node: NodeId,
        handle: u32,
        generation: u64,
        progress_snapshot: u64,
        stalls: u32,
        from: Ps,
    ) {
        // The pull carries its own adaptive timeout (exponential
        // backoff while stalled); fall back to the base timeout when
        // the pull is already gone (the watchdog will no-op anyway).
        let mut timeout = self
            .node(node)
            .driver
            .pulls
            .get(&handle)
            .map(|p| p.rto)
            .unwrap_or(self.p.cfg.retransmit_timeout);
        if self.p.cfg.pull_credits {
            // The receiver sized the in-flight backlog itself: a block
            // granted behind k outstanding blocks legitimately waits k
            // service quanta in the RX ring before its first fragment
            // can land, so re-request patience scales with the granted
            // backlog. Without this, a wide incast re-requests blocks
            // that were merely queued — the base RTO is calibrated for
            // one pull's round trip, not the aggregate drain.
            let outstanding = self.node(node).driver.credits.outstanding as u64;
            timeout = Ps::ps(timeout.as_ps() * (8 + outstanding) / 8);
        }
        sim.schedule_at(from + timeout, move |c: &mut Cluster, s| {
            c.pull_watchdog(s, node, handle, generation, progress_snapshot, stalls);
        });
    }

    fn pull_watchdog(
        &mut self,
        sim: &mut Sim<Cluster>,
        node: NodeId,
        handle: u32,
        generation: u64,
        progress_snapshot: u64,
        stalls: u32,
    ) {
        let Some((bytes_done, ep, gen)) = self
            .node(node)
            .driver
            .pulls
            .get(&handle)
            .map(|p| (p.bytes_done, p.ep, p.generation))
        else {
            return; // completed
        };
        if gen != generation {
            // The handle was recycled by a newer pull: this timer
            // belongs to a pull that already completed. Acting on it
            // would re-request blocks of the *new* pull off-schedule
            // (or worse, abandon it).
            return;
        }
        let now = sim.now();
        if bytes_done != progress_snapshot {
            // Progress since last check: reset the backoff, re-arm.
            let base_rto = self.p.cfg.retransmit_timeout;
            if let Some(p) = self.node_mut(node).driver.pulls.get_mut(&handle) {
                p.rto = base_rto;
            }
            self.schedule_pull_watchdog(sim, node, handle, generation, bytes_done, now);
            return;
        }
        if self.p.cfg.pull_credits {
            let starved = self.node(node).driver.pulls.get(&handle).is_some_and(|p| {
                p.credits_held == 0 && (p.next_block as usize) < p.block_remaining.len()
            });
            if starved {
                // No block of this pull is in flight, so the silence is
                // budget exhaustion, not loss: the fabric owes us
                // nothing to retransmit. Re-enter the grant queue and
                // re-arm without escalating the RTO or spending the
                // stall budget — the pulls that *hold* credits either
                // progress or get abandoned, which frees budget for us.
                self.credit_enqueue(node, handle);
                let core = self.ep(EpAddr { node, ep }).core;
                let fin = self.credit_pump(sim, node, core, now, category::DRIVER);
                self.schedule_pull_watchdog_n(
                    sim, node, handle, generation, bytes_done, stalls, fin,
                );
                return;
            }
        }
        if stalls >= Self::MAX_PULL_STALLS {
            // The peer stopped responding entirely: abandon the pull so
            // the simulation drains instead of spinning forever,
            // releasing any skbuffs its pending copies still held.
            if let Some(p) = self.node_mut(node).driver.pulls.remove(&handle) {
                let held: u64 = p.pending_copies.iter().map(|pc| pc.skbs).sum();
                self.node_mut(node).driver.release_skbuffs(held);
                // Abandoned without completing: the descriptors and the
                // pull handle go straight to released.
                for pc in &p.pending_copies {
                    SimSanitizer::release(pc.handle.san);
                }
                SimSanitizer::release(p.token());
                // A later announcement of the message starts over.
                if let Some(e) = self.try_ep_mut(EpAddr { node, ep }) {
                    e.rndv_pending.remove(&(p.src, p.msg_seq));
                }
                if self.p.cfg.pull_credits {
                    // Return the abandoned pull's credits so waiters
                    // behind it are not starved by a dead transfer.
                    let cr = &mut self.nodes[node.0 as usize].driver.credits;
                    cr.outstanding = cr.outstanding.saturating_sub(p.credits_held);
                    let core = self.ep(EpAddr { node, ep }).core;
                    self.credit_pump(sim, node, core, now, category::DRIVER);
                }
                self.node_mut(node).driver.scratch.recycle_pull(p);
            }
            return;
        }
        // Stalled: escalate the timeout (exponential backoff with
        // jitter keeps repeated re-requests from hammering a congested
        // or lossy path in lockstep), then cleanup + re-request every
        // incomplete requested block.
        let cur = self
            .node(node)
            .driver
            .pulls
            .get(&handle)
            .map(|p| p.rto)
            .unwrap_or(self.p.cfg.retransmit_timeout);
        let next_rto = self.escalate_rto(node, cur);
        if let Some(p) = self.node_mut(node).driver.pulls.get_mut(&handle) {
            p.rto = next_rto;
        }
        let core = self.ep(EpAddr { node, ep }).core;
        let mut fin = self.pull_cleanup(sim, node, core, handle, now);
        let stalled: Vec<u32> = {
            let p = self.node(node).driver.pulls.get(&handle).expect("alive");
            (0..p.next_block)
                .filter(|&b| p.block_remaining[b as usize] > 0)
                .collect()
        };
        for b in stalled {
            self.stats.pull_retransmissions += 1;
            let (_, f) = self.run_core(
                node,
                core,
                fin,
                self.p.cfg.ctrl_frame_cost,
                category::DRIVER,
            );
            fin = f;
            self.send_block_request(sim, node, handle, b, fin);
        }
        self.schedule_pull_watchdog_n(sim, node, handle, generation, bytes_done, stalls + 1, fin);
    }

    // ------------------------------------------------------------------
    // receiver-driven credit control (the congestion-control tentpole)
    //
    // With `cfg.pull_credits` on, no pull requests blocks on its own:
    // every block grant comes out of the node-wide
    // [`crate::driver::CreditState`] budget, handed out FIFO by
    // [`Self::credit_pump`]. The budget adapts to RX-ring occupancy —
    // halved (cooldown-limited) when a ring sheds or crosses the high
    // watermark, regrown additively on sustained headroom. The PullReq
    // itself is the grant; only the revoke path needs a new packet
    // ([`Packet::CreditNack`]). Everything here is unreachable when the
    // knob is off, which keeps the default bit-identical to the fixed
    // per-pull window.
    // ------------------------------------------------------------------

    /// Put `handle` in line for a block grant unless it is already
    /// queued, has no blocks left to request, or is at its per-pull
    /// cap (`cfg.pull_blocks_outstanding` still bounds one pull's
    /// share of the budget). Counts a stall when the budget is
    /// currently exhausted — the controller's queueing signal.
    fn credit_enqueue(&mut self, node: NodeId, handle: u32) {
        let cap = self.p.cfg.pull_blocks_outstanding;
        let d = &mut self.nodes[node.0 as usize].driver;
        let Some(p) = d.pulls.get_mut(&handle) else {
            return;
        };
        if p.credit_queued
            || (p.next_block as usize) >= p.block_remaining.len()
            || p.credits_held >= cap
        {
            return;
        }
        p.credit_queued = true;
        d.credits.waiters.push_back(handle);
        if d.credits.outstanding >= d.credits.budget {
            self.stats.credit_stalls += 1;
            self.metrics.count(node.0, ins::CREDIT_STALLS, 1);
        }
    }

    /// Grant block credits to waiting pulls until the budget is
    /// exhausted or the queue drains, sending one PullReq per grant
    /// (the PullReq *is* the credit). `cat` is the CPU category of the
    /// calling context (driver syscall vs BH). Returns the new finish
    /// time.
    fn credit_pump(
        &mut self,
        sim: &mut Sim<Cluster>,
        node: NodeId,
        core: CoreId,
        mut fin: Ps,
        cat: &'static str,
    ) -> Ps {
        enum Pop {
            Stop,
            Skip,
            Grant(u32, u32),
        }
        let cap = self.p.cfg.pull_blocks_outstanding;
        loop {
            let action = {
                let d = &mut self.nodes[node.0 as usize].driver;
                if d.credits.outstanding >= d.credits.budget {
                    Pop::Stop
                } else {
                    match d.credits.waiters.pop_front() {
                        None => Pop::Stop,
                        Some(h) => {
                            // A stale entry (finished/abandoned pull, or
                            // one whose flag was cleared) is skipped;
                            // the `credit_queued` flag guarantees each
                            // live pull appears at most once.
                            let grant = d.pulls.get_mut(&h).and_then(|p| {
                                if !p.credit_queued {
                                    return None;
                                }
                                p.credit_queued = false;
                                if (p.next_block as usize) >= p.block_remaining.len()
                                    || p.credits_held >= cap
                                {
                                    return None;
                                }
                                let b = p.next_block;
                                p.next_block += 1;
                                p.credits_held += 1;
                                Some(b)
                            });
                            match grant {
                                None => Pop::Skip,
                                Some(b) => {
                                    d.credits.outstanding += 1;
                                    Pop::Grant(h, b)
                                }
                            }
                        }
                    }
                }
            };
            match action {
                Pop::Stop => return fin,
                Pop::Skip => continue,
                Pop::Grant(h, b) => {
                    // Round-robin fairness: if the pull wants more
                    // blocks it re-joins at the back of the line.
                    self.credit_enqueue(node, h);
                    let (_, f) = self.run_core(node, core, fin, self.p.cfg.ctrl_frame_cost, cat);
                    fin = f;
                    self.send_block_request(sim, node, h, b, fin);
                }
            }
        }
    }

    /// A granted block fully arrived: return its credit to the shared
    /// budget.
    fn credit_release_block(&mut self, node: NodeId, handle: u32) {
        let d = &mut self.nodes[node.0 as usize].driver;
        if let Some(p) = d.pulls.get_mut(&handle) {
            debug_assert!(p.credits_held > 0, "block completed without a credit");
            p.credits_held = p.credits_held.saturating_sub(1);
        }
        d.credits.outstanding = d.credits.outstanding.saturating_sub(1);
    }

    /// Multiplicative decrease: halve the budget (clamped to
    /// `cfg.credit_budget_min`), rate-limited by the shrink cooldown so
    /// one overload episode doesn't collapse the budget to the floor in
    /// a single burst of drops. Returns `true` when the cooldown window
    /// opened (even at the floor — callers use it to rate-limit NACKs).
    fn credit_shrink(&mut self, node: NodeId, now: Ps) -> bool {
        let cool = self.p.cfg.credit_shrink_cooldown;
        let min = self.p.cfg.credit_budget_min.max(1);
        let cr = &mut self.nodes[node.0 as usize].driver.credits;
        if cr.last_shrink != Ps::ZERO && now < cr.last_shrink + cool {
            return false;
        }
        cr.last_shrink = now;
        // A shrink also resets the regrow clock: headroom must be
        // *sustained* after trouble before the budget grows back.
        cr.last_regrow = now;
        cr.budget = (cr.budget / 2).max(min);
        true
    }

    /// Additive increase: grow the budget by one when every RX queue
    /// has stayed under the high-watermark fraction of its ring and a
    /// full regrow interval passed since both the last shrink and the
    /// last regrow. Called on block completions, so regrowth needs
    /// live traffic — an idle node keeps its budget.
    fn credit_maybe_regrow(&mut self, node: NodeId, now: Ps) {
        let max = self.p.cfg.credit_budget_max;
        let interval = self.p.cfg.credit_regrow_interval;
        let pct = self.p.cfg.credit_high_watermark_pct as usize;
        {
            let cr = &self.nodes[node.0 as usize].driver.credits;
            if cr.budget >= max
                || now < cr.last_regrow + interval
                || now < cr.last_shrink + interval
            {
                return;
            }
        }
        let n = &self.nodes[node.0 as usize];
        let ring = n.nic.params().rx_ring_size;
        let queues = n.nic.params().num_queues;
        let headroom = (0..queues).all(|q| n.nic.pending_on(q) * 100 < ring * pct);
        if !headroom {
            return;
        }
        let cr = &mut self.nodes[node.0 as usize].driver.credits;
        cr.budget += 1;
        cr.last_regrow = now;
        self.stats.credit_regrows += 1;
        self.metrics.count(node.0, ins::CREDIT_REGROWS, 1);
    }

    /// The RX ring dropped a frame: shed load. Shrinks the budget
    /// (cooldown-limited) and, when the dropped frame was a pull
    /// fragment we could attribute (`peek` = its parsed header), sends
    /// an explicit [`Packet::CreditNack`] back to the sender so its
    /// adaptive RTO backs off *now* instead of waiting out a timeout.
    pub(crate) fn credit_ring_shed(
        &mut self,
        sim: &mut Sim<Cluster>,
        node: NodeId,
        src_node: NodeId,
        peek: Option<(u8, u8, u32)>,
        now: Ps,
    ) {
        if !self.credit_shrink(node, now) {
            return;
        }
        self.stats.credit_shrinks += 1;
        self.metrics.count(node.0, ins::CREDIT_SHRINKS, 1);
        let Some((frag_src_ep, frag_dst_ep, recv_handle)) = peek else {
            return;
        };
        // sender_handle 0 = unattributed: the sender backs off every
        // pending send to this peer instead of one transfer.
        let sender_handle = self
            .node(node)
            .driver
            .pulls
            .get(&recv_handle)
            .map(|p| p.sender_handle)
            .unwrap_or(0);
        let pkt = Packet::CreditNack {
            src_ep: frag_dst_ep,
            dst_ep: frag_src_ep,
            sender_handle,
        };
        self.send_packet(sim, node, src_node, pkt, now);
        self.stats.credit_nacks += 1;
        self.metrics.count(node.0, ins::CREDIT_NACKS, 1);
    }

    /// Occupancy probe on the frame-queued path: crossing the high
    /// watermark shrinks the budget *before* the ring actually
    /// overflows (the PR-6 watermark gauge made this signal visible;
    /// this is the controller that consumes it).
    pub(crate) fn credit_occupancy_check(&mut self, node: NodeId, queue: usize, now: Ps) {
        let ring = self.node(node).nic.params().rx_ring_size;
        let pct = self.p.cfg.credit_high_watermark_pct as usize;
        if self.node(node).nic.pending_on(queue) * 100 >= ring * pct
            && self.credit_shrink(node, now)
        {
            self.stats.credit_shrinks += 1;
            self.metrics.count(node.0, ins::CREDIT_SHRINKS, 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterParams;
    use crate::EpIdx;

    fn pull_state(generation: u64) -> PullState {
        PullState::new(
            EpIdx(0),
            ReqId(1),
            EpAddr {
                node: NodeId(1),
                ep: EpIdx(0),
            },
            1,
            0,
            64 << 10,
            16,
            vec![8, 8],
            2,
            0,
            Ps::ZERO,
            generation,
            Ps::us(500),
            &mut crate::driver::DriverScratch::default(),
        )
    }

    /// Regression: the pull-handle namespace is a small wrapping u32,
    /// so a watchdog armed for one pull can fire after its handle was
    /// recycled by a newer message. Keyed by handle alone it would see
    /// the new pull at zero progress — matching its stale snapshot —
    /// and, with the stall budget exhausted, abandon a perfectly live
    /// transfer. The generation stamp makes it a no-op instead.
    #[test]
    fn stale_watchdog_noops_when_handle_recycled() {
        let mut c = Cluster::new(ClusterParams::default());
        let mut sim: Sim<Cluster> = Sim::new();
        let handle = 7;
        c.nodes[0].driver.pulls.insert(handle, pull_state(2));
        // The previous user of the handle ran at generation 1; its last
        // watchdog fires with an exhausted stall budget and a progress
        // snapshot that happens to match the new pull.
        c.pull_watchdog(&mut sim, NodeId(0), handle, 1, 0, Cluster::MAX_PULL_STALLS);
        assert!(
            c.nodes[0].driver.pulls.contains_key(&handle),
            "stale watchdog must not abandon the recycled handle's new pull"
        );
        // The current generation still enforces the stall bound.
        c.pull_watchdog(&mut sim, NodeId(0), handle, 2, 0, Cluster::MAX_PULL_STALLS);
        assert!(
            !c.nodes[0].driver.pulls.contains_key(&handle),
            "the live generation's exhausted watchdog still abandons"
        );
    }

    /// Satellite-3 regression: a block re-requested by the RTO
    /// watchdog races its own last in-flight fragment — the original
    /// copy completes the block, then the re-requested duplicate
    /// lands. The duplicate must be recognized as already-seen: a
    /// second decrement would underflow the block's `u32` remaining
    /// count and mint a phantom block completion (double-granting in
    /// credit mode, double `next_block` advance without). Out-of-range
    /// indices likewise must be inert, not a panic.
    #[test]
    fn duplicate_fragment_never_double_decrements_a_block() {
        let mut p = pull_state(1);
        let bf = 8;
        for i in 0..8 {
            let prog = p.note_frag(i, bf).expect("fresh fragment");
            assert_eq!(prog.block_done, i == 7, "block 0 completes on frag 7");
            assert!(!prog.all_arrived);
        }
        assert_eq!(p.block_remaining[0], 0);
        // The re-requested duplicate of the block's last fragment.
        assert!(!p.frag_is_new(7));
        assert!(p.note_frag(7, bf).is_none(), "duplicate must be inert");
        assert_eq!(p.block_remaining[0], 0, "no underflow");
        // Garbage index beyond the message: stale, not a panic.
        assert!(!p.frag_is_new(999));
        assert!(p.note_frag(999, bf).is_none());
        for i in 8..16 {
            let prog = p.note_frag(i, bf).expect("fresh fragment");
            assert_eq!(prog.block_done, i == 15);
            assert_eq!(prog.all_arrived, i == 15);
        }
        SimSanitizer::release(p.token());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// Satellite-3 property: under arbitrary arrival orders with
        /// duplicates and out-of-range indices, `note_frag` accepts
        /// each fragment exactly once, never touches state on a
        /// rejected index, and its remaining counts always match an
        /// independent seen-set model.
        #[test]
        fn note_frag_is_idempotent_and_exact(
            frags_total in 1u32..64,
            bf in 1u32..16,
            seq in proptest::collection::vec(0u32..80, 1..256),
        ) {
            use proptest::prelude::*;
            let blocks_total = frags_total.div_ceil(bf);
            let block_remaining: Vec<u32> = (0..blocks_total)
                .map(|b| (frags_total - b * bf).min(bf))
                .collect();
            let mut p = PullState::new(
                EpIdx(0),
                ReqId(1),
                EpAddr {
                    node: NodeId(1),
                    ep: EpIdx(0),
                },
                1,
                0,
                frags_total as u64 * 4096,
                frags_total,
                block_remaining,
                0,
                0,
                Ps::ZERO,
                1,
                Ps::us(500),
                &mut crate::driver::DriverScratch::default(),
            );
            let mut seen = vec![false; frags_total as usize];
            for idx in seq {
                let fresh = (idx as usize) < seen.len() && !seen[idx as usize];
                let before = p.block_remaining.clone();
                prop_assert_eq!(p.frag_is_new(idx), fresh);
                match p.note_frag(idx, bf) {
                    None => {
                        prop_assert!(!fresh, "fresh fragment rejected");
                        prop_assert_eq!(&p.block_remaining, &before);
                    }
                    Some(prog) => {
                        prop_assert!(fresh, "stale fragment accepted");
                        seen[idx as usize] = true;
                        let b = (idx / bf) as usize;
                        prop_assert_eq!(p.block_remaining[b] + 1, before[b]);
                        prop_assert_eq!(prog.block_done, p.block_remaining[b] == 0);
                        prop_assert_eq!(prog.all_arrived, seen.iter().all(|&s| s));
                        prop_assert_eq!(prog.all_arrived, p.frags_remaining == 0);
                    }
                }
            }
            for b in 0..blocks_total as usize {
                let lo = b as u32 * bf;
                let hi = ((b as u32 + 1) * bf).min(frags_total);
                let unseen = (lo..hi).filter(|&i| !seen[i as usize]).count() as u32;
                prop_assert_eq!(p.block_remaining[b], unseen);
            }
            let unseen = seen.iter().filter(|&&s| !s).count() as u32;
            prop_assert_eq!(p.frags_remaining, unseen);
            SimSanitizer::release(p.token());
        }
    }
}
