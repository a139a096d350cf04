//! The I/OAT DMA engine model.
//!
//! The engine has `ioat_channels` independent channels (4 on the Intel
//! 5000X). Each channel executes its descriptor queue in FIFO order;
//! one descriptor copies up to one contiguous chunk and costs
//!
//! ```text
//! ioat_desc_overhead + chunk_bytes / ioat_raw_rate
//! ```
//!
//! of channel time. Submitting a descriptor costs the *CPU*
//! `ioat_submit_cpu` (350 ns, §IV-A); each further descriptor chained
//! behind the same doorbell costs `ioat_desc_chain_cpu` (also 350 ns
//! by default). Completions are reported in order per channel through
//! a word in host memory, so "is copy X done?" is a single cheap read
//! (`ioat_poll_cost`) — and crucially there are *no interrupts*: a
//! waiter must poll (§III-C, §VI).
//!
//! Copies offloaded here bypass the CPU caches entirely — callers must
//! not touch the [`crate::cache::CacheModel`] for offloaded bytes.
//! That models both I/OAT advantages the paper names: overlap and no
//! cache pollution.

use crate::params::HwParams;
use omx_sim::sanitize::{Kind, SimSanitizer, Token};
use omx_sim::{FifoServer, Ps};
use serde::Serialize;

/// Identifier of one submitted copy (channel + in-channel cookie).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct CopyHandle {
    /// Channel the copy was queued on.
    pub channel: usize,
    /// Monotone per-channel sequence number.
    pub cookie: u64,
    /// Time at which the hardware finishes this copy.
    pub finish: Ps,
    /// Lifecycle sanitizer token (zero-sized in release builds). The
    /// handle is minted in the `submitted` state; the driver that
    /// reaps or abandons the copy must `complete`/`release` it.
    pub san: Token,
}

/// Completion time reported for a copy caught on a permanently failed
/// channel: far enough in the future that no simulation ever reaches
/// it (an hour of simulated time), small enough that adding poll
/// deadlines to it never overflows. Drivers treat any completion at or
/// beyond this horizon as "the hardware will never answer" and fall
/// back to CPU memcpy.
pub const STALLED_FOREVER: Ps = Ps::secs(3600);

/// Result of probing a channel's health before submitting to it
/// (Linux dmaengine keeps the same tri-state: usable, blacklisted, or
/// just returned from blacklist after a successful re-probe).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelProbe {
    /// Channel is usable.
    Healthy,
    /// Channel is quarantined; use the CPU fallback.
    Quarantined,
    /// Quarantine cool-down expired: this probe re-enabled the channel.
    Reprobed,
}

/// One scheduled hardware fault on a channel: from `at`, the channel
/// stops retiring descriptors for `duration` (`None` = forever).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ChannelFault {
    at: Ps,
    until: Option<Ps>,
}

#[derive(Debug, Clone, Default)]
struct Channel {
    server: FifoServer,
    next_cookie: u64,
    /// Scheduled faults (injected by the test/fault plan).
    faults: Vec<ChannelFault>,
    /// While set, the driver has blacklisted this channel; cleared by
    /// a successful re-probe after the cool-down expires.
    quarantined_until: Option<Ps>,
}

/// The DMA engine: a set of FIFO channels plus submission bookkeeping.
/// All channels share one memory port ([`HwParams::ioat_aggregate_rate`]),
/// so concurrent channels cannot multiply bandwidth beyond the chipset.
#[derive(Debug, Clone)]
pub struct IoatEngine {
    channels: Vec<Channel>,
    /// Shared chipset/memory port all channels drain through.
    memory_port: FifoServer,
    rr_next: usize,
    bytes_copied: u64,
    descriptors: u64,
}

impl IoatEngine {
    /// An engine with the channel count from `params`.
    pub fn new(params: &HwParams) -> Self {
        assert!(params.ioat_channels > 0, "need at least one DMA channel");
        IoatEngine {
            channels: vec![Channel::default(); params.ioat_channels],
            memory_port: FifoServer::new(),
            rr_next: 0,
            bytes_copied: 0,
            descriptors: 0,
        }
    }

    /// Number of channels.
    pub fn num_channels(&self) -> usize {
        self.channels.len()
    }

    /// Round-robin channel pick (the paper assigns one channel per
    /// message and relies on many concurrent messages to spread load).
    pub fn pick_channel_rr(&mut self) -> usize {
        let ch = self.rr_next;
        self.rr_next = (self.rr_next + 1) % self.channels.len();
        ch
    }

    /// Channel with the earliest `busy_until` (used by the multi-channel
    /// ablation).
    pub fn pick_channel_least_loaded(&self) -> usize {
        self.channels
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| c.server.busy_until())
            .map(|(i, _)| i)
            .expect("at least one channel")
    }

    /// CPU cost of submitting `descriptors` copy descriptors chained
    /// behind one doorbell. With `doorbell` the first descriptor pays
    /// the full [`HwParams::ioat_submit_cpu`] (setup + MMIO doorbell)
    /// and each further one the chaining cost
    /// [`HwParams::ioat_desc_chain_cpu`]; without it the caller extends
    /// a chain whose doorbell was already rung (the tail of a GRO
    /// fragment train), so every descriptor is a chain append. Zero
    /// descriptors cost nothing. At the default calibration
    /// (`ioat_desc_chain_cpu == ioat_submit_cpu`) this is the paper's
    /// §IV-A model either way: `ioat_submit_cpu` per descriptor.
    pub fn submit_cpu_cost(params: &HwParams, descriptors: u64, doorbell: bool) -> Ps {
        if descriptors == 0 {
            return Ps::ZERO;
        }
        if doorbell {
            params.ioat_submit_cpu + params.ioat_desc_chain_cpu * (descriptors - 1)
        } else {
            params.ioat_desc_chain_cpu * descriptors
        }
    }

    /// Schedule a hardware fault: from `at`, `channel` stops retiring
    /// descriptors for `duration` (`None` = the channel dies
    /// permanently). Copies whose completion would land inside the
    /// window are delayed past it (or forever); the driver's
    /// completion-poll deadline turns that into a memcpy fallback.
    pub fn inject_channel_stall(&mut self, channel: usize, at: Ps, duration: Option<Ps>) {
        let until = duration.map(|d| at + d);
        self.channels[channel]
            .faults
            .push(ChannelFault { at, until });
    }

    /// Whether any fault is scheduled anywhere (diagnostics).
    pub fn has_injected_faults(&self) -> bool {
        self.channels.iter().any(|c| !c.faults.is_empty())
    }

    /// Blacklist `channel` until `until` (driver-side decision after a
    /// completion-poll deadline fired). Returns `true` when the channel
    /// was not already quarantined — callers count that as one
    /// quarantine event. An existing quarantine is only ever extended,
    /// never shortened.
    pub fn quarantine(&mut self, channel: usize, until: Ps) -> bool {
        let existing = self.channels[channel].quarantined_until;
        let newly = existing.is_none();
        self.channels[channel].quarantined_until = Some(match existing {
            Some(e) => e.max(until),
            None => until,
        });
        newly
    }

    /// Probe `channel` health at `now` before submitting to it. An
    /// expired quarantine is cleared here — the dmaengine-style
    /// re-probe: the channel gets another chance, and if it is still
    /// dead the next poll deadline quarantines it again.
    pub fn probe_channel(&mut self, channel: usize, now: Ps) -> ChannelProbe {
        match self.channels[channel].quarantined_until {
            None => ChannelProbe::Healthy,
            Some(until) if now < until => ChannelProbe::Quarantined,
            Some(_) => {
                self.channels[channel].quarantined_until = None;
                ChannelProbe::Reprobed
            }
        }
    }

    /// Whether `channel` is currently quarantined (read-only; does not
    /// re-probe).
    pub fn is_quarantined(&self, channel: usize, now: Ps) -> bool {
        matches!(self.channels[channel].quarantined_until, Some(u) if now < u)
    }

    /// Number of descriptors needed to copy `bytes` with chunks of at
    /// most `chunk` bytes (page-aligned splitting in practice). A
    /// zero-length copy needs no descriptor at all.
    pub fn descriptors_for(bytes: u64, chunk: u64) -> u64 {
        assert!(chunk > 0, "chunk size must be positive");
        bytes.div_ceil(chunk)
    }

    /// Queue a copy of `bytes` as `descriptors` descriptors on
    /// `channel` at time `now` (after the submitting CPU has paid
    /// [`Self::submit_cpu_cost`]). Returns the handle carrying the
    /// hardware completion time.
    ///
    /// A zero-length copy costs nothing: no descriptor is queued, no
    /// channel or memory-port time is consumed, and the returned handle
    /// completes immediately at `now`.
    #[track_caller]
    pub fn submit(
        &mut self,
        params: &HwParams,
        now: Ps,
        channel: usize,
        bytes: u64,
        descriptors: u64,
    ) -> CopyHandle {
        if bytes == 0 {
            let ch = &mut self.channels[channel];
            let cookie = ch.next_cookie;
            ch.next_cookie += 1;
            let san = SimSanitizer::alloc(Kind::IoatDescriptor);
            SimSanitizer::submit(san);
            return CopyHandle {
                channel,
                cookie,
                finish: now,
                san,
            };
        }
        let descriptors = descriptors.max(1);
        let ch = &mut self.channels[channel];
        let service =
            params.ioat_desc_overhead * descriptors + params.ioat_raw_rate.time_for(bytes);
        let (_, ch_finish) = ch.server.admit(now, service);
        // The shared memory port serializes the actual data movement
        // across channels; a copy completes when both its channel and
        // its share of the port are done.
        let cookie = ch.next_cookie;
        ch.next_cookie += 1;
        let (_, port_finish) = self
            .memory_port
            .admit(now, params.ioat_aggregate_rate.time_for(bytes));
        let mut finish = ch_finish.max(port_finish);
        // Apply scheduled hardware faults: a copy that would retire
        // inside a stall window is pushed past it; a copy caught by a
        // permanent failure never completes (see [`STALLED_FOREVER`]).
        for f in &self.channels[channel].faults {
            if finish <= f.at {
                continue; // retires before the fault hits
            }
            match f.until {
                Some(until) if now < until => {
                    finish += until.saturating_sub(now.max(f.at));
                }
                Some(_) => {} // transient fault already over
                None => finish = finish.max(STALLED_FOREVER),
            }
        }
        self.bytes_copied += bytes;
        self.descriptors += descriptors;
        let san = SimSanitizer::alloc(Kind::IoatDescriptor);
        SimSanitizer::submit(san);
        CopyHandle {
            channel,
            cookie,
            finish,
            san,
        }
    }

    /// Whether `handle`'s copy has completed by `now`. Because each
    /// channel completes in order, this also means every earlier cookie
    /// on the same channel is done — exactly the cheap-check property
    /// the paper relies on (§IV-A).
    pub fn is_complete(&self, now: Ps, handle: &CopyHandle) -> bool {
        handle.finish <= now
    }

    /// Time at which `channel` drains completely.
    pub fn channel_busy_until(&self, channel: usize) -> Ps {
        self.channels[channel].server.busy_until()
    }

    /// Latest completion time across all channels (engine fully idle).
    pub fn all_idle_at(&self) -> Ps {
        self.channels
            .iter()
            .map(|c| c.server.busy_until())
            .max()
            .unwrap_or(Ps::ZERO)
    }

    /// Total bytes ever queued (diagnostics).
    pub fn bytes_copied(&self) -> u64 {
        self.bytes_copied
    }

    /// Total descriptors ever queued (diagnostics).
    pub fn descriptors_submitted(&self) -> u64 {
        self.descriptors
    }

    /// Busy time integrated over one channel (utilization reporting).
    pub fn channel_busy_total(&self, channel: usize) -> Ps {
        self.channels[channel].server.busy_total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> HwParams {
        HwParams::default()
    }

    #[test]
    fn single_descriptor_cost() {
        let params = p();
        let mut e = IoatEngine::new(&params);
        let h = e.submit(&params, Ps::ZERO, 0, 4096, 1);
        let expect = params.ioat_desc_overhead + params.ioat_raw_rate.time_for(4096);
        assert_eq!(h.finish, expect);
        assert!(!e.is_complete(Ps::ZERO, &h));
        assert!(e.is_complete(expect, &h));
    }

    #[test]
    fn sustained_4k_chunks_near_2_4_gib() {
        let params = p();
        let mut e = IoatEngine::new(&params);
        let total = 64u64 << 20;
        let chunk = 4096u64;
        let n = total / chunk;
        let mut last = Ps::ZERO;
        for _ in 0..n {
            last = e.submit(&params, Ps::ZERO, 0, chunk, 1).finish;
        }
        let gib = total as f64 / last.as_secs_f64() / (1u64 << 30) as f64;
        assert!((2.25..2.55).contains(&gib), "sustained {gib} GiB/s");
    }

    #[test]
    fn channels_are_independent() {
        let params = p();
        let mut e = IoatEngine::new(&params);
        let h0 = e.submit(&params, Ps::ZERO, 0, 1 << 20, 256);
        let h1 = e.submit(&params, Ps::ZERO, 1, 4096, 1);
        assert!(h1.finish < h0.finish, "channel 1 not blocked by channel 0");
        assert_eq!(e.channel_busy_until(2), Ps::ZERO);
        assert_eq!(e.all_idle_at(), h0.finish);
    }

    #[test]
    fn fifo_within_a_channel() {
        let params = p();
        let mut e = IoatEngine::new(&params);
        let h0 = e.submit(&params, Ps::ZERO, 0, 4096, 1);
        let h1 = e.submit(&params, Ps::ZERO, 0, 4096, 1);
        assert!(h1.cookie > h0.cookie);
        assert_eq!(h1.finish, h0.finish * 2);
        // In-order completion: later cookie never completes earlier.
        assert!(h1.finish >= h0.finish);
    }

    #[test]
    fn round_robin_cycles_all_channels() {
        let params = p();
        let mut e = IoatEngine::new(&params);
        let picks: Vec<usize> = (0..8).map(|_| e.pick_channel_rr()).collect();
        assert_eq!(picks, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn least_loaded_prefers_idle_channel() {
        let params = p();
        let mut e = IoatEngine::new(&params);
        e.submit(&params, Ps::ZERO, 0, 1 << 20, 256);
        e.submit(&params, Ps::ZERO, 1, 1 << 20, 256);
        let ch = e.pick_channel_least_loaded();
        assert!(ch == 2 || ch == 3);
    }

    #[test]
    fn descriptor_helpers() {
        assert_eq!(IoatEngine::descriptors_for(4096, 4096), 1);
        assert_eq!(IoatEngine::descriptors_for(4097, 4096), 2);
        // A zero-length copy needs no descriptor.
        assert_eq!(IoatEngine::descriptors_for(0, 4096), 0);
        assert_eq!(IoatEngine::descriptors_for(1 << 20, 4096), 256);
    }

    #[test]
    fn zero_length_copy_is_free_and_immediate() {
        let params = p();
        let mut e = IoatEngine::new(&params);
        let h = e.submit(&params, Ps::us(7), 0, 0, 0);
        assert_eq!(h.finish, Ps::us(7), "completes immediately");
        assert!(e.is_complete(Ps::us(7), &h));
        assert_eq!(e.bytes_copied(), 0);
        assert_eq!(e.descriptors_submitted(), 0);
        assert_eq!(e.channel_busy_total(0), Ps::ZERO);
        assert_eq!(e.channel_busy_until(0), Ps::ZERO);
        // A later real copy on the same channel is not delayed.
        let h2 = e.submit(&params, Ps::us(7), 0, 4096, 1);
        let expect = Ps::us(7) + params.ioat_desc_overhead + params.ioat_raw_rate.time_for(4096);
        assert_eq!(h2.finish, expect);
        assert!(h2.cookie > h.cookie, "cookies stay monotone");
    }

    #[test]
    fn zero_length_submit_leaves_diagnostics_alone() {
        let params = p();
        let mut e = IoatEngine::new(&params);
        e.submit(&params, Ps::ZERO, 0, 4096, 1);
        e.submit(&params, Ps::ZERO, 1, 1 << 20, 256);
        let before = (
            e.bytes_copied(),
            e.descriptors_submitted(),
            e.channel_busy_total(0),
        );
        e.submit(&params, Ps::ZERO, 0, 0, 0); // free, not counted
        assert_eq!(
            (
                e.bytes_copied(),
                e.descriptors_submitted(),
                e.channel_busy_total(0)
            ),
            before
        );
    }

    #[test]
    fn diagnostics_accumulate() {
        let params = p();
        let mut e = IoatEngine::new(&params);
        e.submit(&params, Ps::ZERO, 0, 4096, 1);
        e.submit(&params, Ps::ZERO, 1, 8192, 2);
        assert_eq!(e.bytes_copied(), 12288);
        assert_eq!(e.descriptors_submitted(), 3);
        assert!(e.channel_busy_total(0) > Ps::ZERO);
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn zero_chunk_rejected() {
        IoatEngine::descriptors_for(100, 0);
    }

    #[test]
    fn transient_stall_pushes_completions_past_window() {
        let params = p();
        let mut e = IoatEngine::new(&params);
        // Channel 0 stalls from 10 µs for 100 µs.
        e.inject_channel_stall(0, Ps::us(10), Some(Ps::us(100)));
        assert!(e.has_injected_faults());
        // A copy finishing before the stall is unaffected.
        let early = e.submit(&params, Ps::ZERO, 0, 4096, 1);
        assert!(early.finish < Ps::us(10));
        // A copy submitted mid-window is pushed past the stall end.
        let caught = e.submit(&params, Ps::us(50), 0, 4096, 1);
        assert!(caught.finish >= Ps::us(110), "finish {:?}", caught.finish);
        assert!(caught.finish < Ps::us(120));
        // Other channels never see the fault.
        let other = e.submit(&params, Ps::us(50), 1, 4096, 1);
        assert!(other.finish < Ps::us(60));
        // After the window the channel behaves normally again.
        let late = e.submit(&params, Ps::us(200), 0, 4096, 1);
        let expect = Ps::us(200) + params.ioat_desc_overhead + params.ioat_raw_rate.time_for(4096);
        assert_eq!(late.finish, expect);
    }

    #[test]
    fn permanent_failure_never_completes() {
        let params = p();
        let mut e = IoatEngine::new(&params);
        e.inject_channel_stall(2, Ps::us(5), None);
        let h = e.submit(&params, Ps::us(6), 2, 1 << 20, 256);
        assert!(h.finish >= STALLED_FOREVER);
        assert!(!e.is_complete(Ps::secs(60), &h));
        // Later copies on the dead channel stay at the horizon (which
        // routes the driver onto quarantine + memcpy fallback) and
        // still retire in cookie order: the completion word is in
        // order.
        let later = e.submit(&params, Ps::us(7), 2, 8192, 2);
        assert!(later.finish >= h.finish);
        assert!(later.cookie > h.cookie);
        // A healthy channel shares the memory port with the dead
        // channel's bytes but never sees the stall: in order and
        // prompt, never pushed to the horizon.
        let first = e.submit(&params, Ps::us(7), 0, 4096, 1);
        let second = e.submit(&params, Ps::us(7), 0, 4096, 1);
        assert!(second.cookie > first.cookie);
        assert!(second.finish > first.finish);
        assert!(second.finish < Ps::ms(1));
        // The driver's cheap is-done check: the healthy copies are
        // done once the port drains, the dead channel's never are.
        assert!(!e.is_complete(Ps::us(8), &first));
        assert!(e.is_complete(Ps::ms(1), &first));
        assert!(e.is_complete(Ps::ms(1), &second));
        assert!(!e.is_complete(Ps::secs(60), &later));
    }

    #[test]
    fn quarantine_blocks_then_reprobe_clears() {
        let params = p();
        let mut e = IoatEngine::new(&params);
        assert_eq!(e.probe_channel(0, Ps::ZERO), ChannelProbe::Healthy);
        assert!(e.quarantine(0, Ps::us(50)), "first quarantine is new");
        assert!(!e.quarantine(0, Ps::us(40)), "re-quarantine not counted");
        assert!(e.is_quarantined(0, Ps::us(10)));
        assert_eq!(e.probe_channel(0, Ps::us(10)), ChannelProbe::Quarantined);
        // Extension kept the *later* deadline.
        assert!(!e.quarantine(0, Ps::us(80)));
        assert_eq!(e.probe_channel(0, Ps::us(60)), ChannelProbe::Quarantined);
        // Cool-down over: the probe re-enables the channel.
        assert_eq!(e.probe_channel(0, Ps::us(80)), ChannelProbe::Reprobed);
        assert_eq!(e.probe_channel(0, Ps::us(80)), ChannelProbe::Healthy);
    }

    #[test]
    fn stalled_copy_quarantines_then_reprobes() {
        let params = p();
        let mut e = IoatEngine::new(&params);
        e.inject_channel_stall(0, Ps::ZERO, None);
        let h = e.submit(&params, Ps::us(1), 0, 4096, 1);
        assert!(
            h.finish >= STALLED_FOREVER,
            "the dead channel stalls the copy"
        );
        assert!(e.quarantine(0, Ps::us(30)), "one new quarantine");
        assert_eq!(e.probe_channel(0, Ps::us(20)), ChannelProbe::Quarantined);
        assert_eq!(e.probe_channel(0, Ps::us(40)), ChannelProbe::Reprobed);
        assert_eq!(e.probe_channel(0, Ps::us(40)), ChannelProbe::Healthy);
    }

    #[test]
    fn batched_cost_defaults_to_per_descriptor_cost() {
        // With the default calibration (chain cost == submit cost) a
        // chain charges the paper's §IV-A cost, `ioat_submit_cpu` per
        // descriptor, with or without a doorbell.
        let params = p();
        for n in 0..16 {
            for doorbell in [true, false] {
                assert_eq!(
                    IoatEngine::submit_cpu_cost(&params, n, doorbell),
                    params.ioat_submit_cpu * n
                );
            }
        }
    }

    #[test]
    fn batched_cost_amortizes_the_doorbell() {
        let params = HwParams {
            ioat_desc_chain_cpu: Ps::ns(100),
            ..p()
        };
        assert_eq!(IoatEngine::submit_cpu_cost(&params, 0, true), Ps::ZERO);
        // Doorbell: one full submit, the rest chained.
        assert_eq!(IoatEngine::submit_cpu_cost(&params, 1, true), Ps::ns(350));
        assert_eq!(
            IoatEngine::submit_cpu_cost(&params, 4, true),
            Ps::ns(350) + Ps::ns(100) * 3
        );
        // No doorbell (GRO-train tail): pure chain appends.
        assert_eq!(
            IoatEngine::submit_cpu_cost(&params, 4, false),
            Ps::ns(100) * 4
        );
    }
}
