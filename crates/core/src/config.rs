//! Open-MX stack configuration.
//!
//! Every threshold and toggle the paper discusses is a field here, with
//! the paper's empirically chosen values as defaults. The figure
//! regenerators flip exactly these switches (I/OAT on/off, registration
//! cache on/off, the counterfactual "ignore the BH copy" of Fig 3).

use crate::fault::FaultPlan;
use omx_sim::Ps;
use serde::{Deserialize, Serialize};

/// Which message-passing stack the cluster runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StackKind {
    /// Open-MX over the generic Ethernet layer (the paper's subject).
    OpenMx,
    /// Native MXoE on the same boards (the baseline).
    Mxoe,
}

/// How synchronous copies wait for I/OAT completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SyncWaitPolicy {
    /// Busy-poll the completion word (what the paper implemented;
    /// §IV-C "rely on busy polling ... with no overlap for now").
    BusyPoll,
    /// Predict the completion time from past copies, release the CPU
    /// and wake up near completion (§VI future work, implemented here
    /// as an extension; see `predict.rs`).
    SleepPredicted,
}

/// Full stack configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OmxConfig {
    /// Stack selector.
    pub stack: StackKind,

    // ---------------- message-class thresholds ----------------
    /// Messages at most this long travel inline in the event (tiny).
    pub tiny_max: u64,
    /// Messages at most this long use the one-slot small path.
    pub small_max: u64,
    /// Messages at most this long use the multi-fragment medium path;
    /// beyond it the rendezvous large path runs ("large message
    /// threshold (32 kB)").
    pub medium_max: u64,
    /// Wire fragment size (page-sized skbuffs).
    pub frag_size: u64,

    // ---------------- large-message pull protocol ----------------
    /// Fragments per pull block (paper footnote 3: 8).
    pub pull_block_frags: u32,
    /// Pull blocks kept outstanding (paper footnote 3: 2).
    pub pull_blocks_outstanding: u32,
    /// Initial retransmission timeout (eager resends and missing pull
    /// fragments). Under repeated timeouts the effective RTO backs off
    /// exponentially (with deterministic jitter) up to [`Self::rto_max`]
    /// and resets on any sign of peer liveness.
    pub retransmit_timeout: Ps,
    /// Cap on the adaptive retransmission timeout.
    pub rto_max: Ps,

    // ---------------- receiver-driven credit control ----------------
    /// Receiver-driven credit-based congestion control for the pull
    /// protocol. Off (the default): every pull independently keeps
    /// [`Self::pull_blocks_outstanding`] blocks requested, exactly the
    /// 2008 model — bit-identical to all committed results. On: block
    /// requests across *all* active pulls of a node draw from one
    /// shared adaptive budget, granted FIFO across pulls, and the
    /// budget tracks RX-ring occupancy (multiplicative decrease on
    /// ring pressure, additive regrowth on sustained headroom). A
    /// `PullReq` doubles as the credit grant, so the control loop adds
    /// no frames to the fast path; only the shed-load NACK is new.
    pub pull_credits: bool,
    /// Initial shared budget, in pull blocks, per receiving node.
    pub credit_budget_init: u32,
    /// Lower clamp for the adaptive budget (effective minimum 1 — the
    /// head-of-line pull must always be able to make progress).
    pub credit_budget_min: u32,
    /// Upper clamp for the adaptive budget. Kept well under the RX
    /// ring depth: regrowth is gated on instantaneous ring headroom,
    /// so without this cap the budget climbs until the standing
    /// backlog's queueing delay alone exceeds the pull RTO and the
    /// receiver re-requests blocks that were merely queued.
    pub credit_budget_max: u32,
    /// RX-ring occupancy, in percent of ring slots, at or above which
    /// the budget is halved (the PR-6 per-queue high-watermark signal
    /// is the controller's input).
    pub credit_high_watermark_pct: u32,
    /// Minimum spacing between two multiplicative decreases, and the
    /// rate limit on shed-load NACK frames.
    pub credit_shrink_cooldown: Ps,
    /// Spacing of additive regrowth (+1 block) while every ring stays
    /// under the high watermark.
    pub credit_regrow_interval: Ps,

    // ---------------- I/OAT offload ----------------
    /// Master switch for the DMA engine offload.
    pub ioat_enabled: bool,
    /// Direct Cache Access: the other I/OAT feature (§II-C) — NIC DMA
    /// writes are steered toward the cache of the core that will run
    /// the bottom half, so the CPU copy reads a warm source. Orthogonal
    /// to the copy offload (an offloaded copy bypasses caches anyway);
    /// default off, as in the paper's experiments.
    pub dca_enabled: bool,
    /// Offload network receive copies only for messages at least this
    /// long (paper: 64 kB).
    pub ioat_net_msg_threshold: u64,
    /// Offload only fragments at least this long (paper: 1 kB).
    pub ioat_frag_threshold: u64,
    /// Offload medium-message synchronous copies too (paper measured a
    /// degradation, default off).
    pub ioat_medium_sync: bool,
    /// Offload shared-memory copies for messages at least this long
    /// (paper: enabled beyond 1 MB).
    pub ioat_shm_threshold: u64,
    /// How synchronous offloads wait.
    pub sync_wait: SyncWaitPolicy,
    /// Split one large copy across all DMA channels instead of the
    /// paper's one-channel-per-message policy (§V related-work
    /// ablation; default off).
    pub ioat_multichannel_split: bool,
    /// Copy the first bytes of each offloaded message with memcpy to
    /// warm the consumer's cache, offload the rest (§V last paragraph,
    /// extension; 0 disables).
    pub warm_copy_head_bytes: u64,

    // ---------------- registration ----------------
    /// Keep registered regions cached across messages (deferred
    /// deregistration, Fig 11's "regcache" toggle).
    pub regcache: bool,

    // ---------------- receiver-side structure ----------------
    /// Move matching into the driver so medium messages raise a single
    /// event and their fragment copies can overlap (§VI future work,
    /// extension; default off = library-level matching as in the
    /// paper).
    pub kernel_matching: bool,

    /// GRO-style frame-train coalescing in the bottom half: while
    /// consecutive skbuffs of one BH run belong to the same message
    /// (same flow tuple and message/handle id), every fragment after
    /// the first is charged [`Self::gro_frag_process`] instead of the
    /// full [`Self::bh_frag_process`] — the header parse, endpoint
    /// lookup and bookkeeping are amortized over the train, like the
    /// kernel's generic receive offload amortizes per-packet protocol
    /// cost. Default off (the paper's per-frame receive path).
    pub gro: bool,
    /// Per-fragment BH processing cost for the coalesced tail of a
    /// GRO train (only the per-fragment bookkeeping; the flow lookup
    /// is inherited from the head fragment).
    pub gro_frag_process: Ps,

    // ---------------- counterfactuals / reliability ----------------
    /// Fig 3's prediction mode: process receives normally but charge
    /// zero CPU time for the BH data copy.
    pub ignore_bh_copy: bool,
    /// Declarative fault plan: bursty loss, corruption, duplication,
    /// reordering per link; RX ring pressure and scheduled I/OAT
    /// channel faults per node (see [`crate::fault::FaultPlan`]). The
    /// default plan is empty and injects nothing.
    pub fault_plan: FaultPlan,
    /// A pending I/OAT copy whose completion lies further than this
    /// past the poll time is declared stuck: the driver falls back to
    /// CPU memcpy and quarantines the channel (Linux dmaengine style).
    pub ioat_stall_deadline: Ps,
    /// How long a quarantined I/OAT channel is blacklisted before the
    /// driver re-probes it.
    pub ioat_quarantine_cooldown: Ps,
    /// RNG seed for loss injection and channel selection jitter.
    pub seed: u64,

    // ---------------- engine ----------------
    /// Timing-wheel depth of the DES engine driving the cluster: 2 (the
    /// default) layers a coarser ~34 ms ring over the ~67 µs one, so
    /// frame arrivals behind a queued link, retransmit timers and
    /// watchdogs stay slab-resident; 1 = the single ring, with events
    /// further out boxed onto the overflow heap. Execution order — and
    /// therefore every figure — is bit-identical at either depth; this
    /// is purely an events/sec knob (see BENCH_pr9.json).
    pub wheel_levels: u32,

    // ---------------- observability ----------------
    /// Enable the per-component metrics registry (counters, gauges and
    /// busy-time integrals on links, NIC rings, BH queues, I/OAT
    /// channels and driver copy paths). Recording never charges
    /// simulated time, so timing results are identical either way;
    /// disabling only removes the bookkeeping.
    pub metrics: bool,
    /// Capacity of the structured event-trace ring (0 = tracing off).
    /// The ring is bounded: when full, the oldest events are evicted
    /// and counted as dropped.
    pub trace_capacity: usize,

    // ---------------- calibrated Open-MX software costs ----------------
    /// BH cost to decode and route one incoming fragment (header
    /// parse, endpoint/handle lookup, bookkeeping).
    pub bh_frag_process: Ps,
    /// Effective BH memcpy degradation factor applied on top of the
    /// uncached rate: the copy shares the core with processing and
    /// suffers its own cache pollution (calibrated so the no-I/OAT
    /// receive plateau lands at the paper's ≈800 MiB/s).
    pub bh_copy_slowdown: f64,
    /// Driver cost to build and hand one TX fragment to the NIC
    /// (skbuff setup, user-page attach — the zero-copy send of §II-A).
    pub tx_frag_cost: Ps,
    /// Driver cost to build one control frame (pull request, notify,
    /// ack).
    pub ctrl_frame_cost: Ps,
    /// Library cost to post a request (before the syscall).
    pub lib_post_cost: Ps,
    /// Library cost to reap one event from the ring.
    pub lib_event_cost: Ps,
    /// Driver cost of one command syscall body (on top of
    /// `HwParams::syscall_cost`).
    pub driver_cmd_cost: Ps,
    /// Event-ring slots for small/medium data per endpoint.
    pub recvq_slots: usize,
}

impl Default for OmxConfig {
    fn default() -> Self {
        OmxConfig {
            stack: StackKind::OpenMx,
            tiny_max: 32,
            small_max: 128,
            medium_max: 32 << 10,
            frag_size: 4096,
            pull_block_frags: 8,
            pull_blocks_outstanding: 2,
            retransmit_timeout: Ps::us(500),
            rto_max: Ps::ms(8),
            pull_credits: false,
            credit_budget_init: 16,
            credit_budget_min: 2,
            credit_budget_max: 32,
            credit_high_watermark_pct: 75,
            credit_shrink_cooldown: Ps::us(50),
            credit_regrow_interval: Ps::us(200),
            ioat_enabled: false,
            dca_enabled: false,
            ioat_net_msg_threshold: 64 << 10,
            ioat_frag_threshold: 1 << 10,
            ioat_medium_sync: false,
            ioat_shm_threshold: 1 << 20,
            sync_wait: SyncWaitPolicy::BusyPoll,
            ioat_multichannel_split: false,
            warm_copy_head_bytes: 0,
            regcache: true,
            kernel_matching: false,
            gro: false,
            gro_frag_process: Ps::ns(700),
            ignore_bh_copy: false,
            fault_plan: FaultPlan::default(),
            ioat_stall_deadline: Ps::ms(2),
            ioat_quarantine_cooldown: Ps::ms(20),
            seed: 0x0031_4159_2653_5897,
            wheel_levels: 2,
            metrics: true,
            trace_capacity: 0,
            bh_frag_process: Ps::ns(1900),
            bh_copy_slowdown: 1.18,
            tx_frag_cost: Ps::ns(500),
            ctrl_frame_cost: Ps::ns(300),
            lib_post_cost: Ps::ns(200),
            lib_event_cost: Ps::ns(120),
            driver_cmd_cost: Ps::ns(250),
            recvq_slots: 256,
        }
    }
}

impl OmxConfig {
    /// Config with I/OAT offload enabled at the paper's thresholds.
    pub fn with_ioat() -> Self {
        OmxConfig {
            ioat_enabled: true,
            ..OmxConfig::default()
        }
    }

    /// Message class for a length.
    pub fn class_of(&self, len: u64) -> MsgClass {
        if len <= self.tiny_max {
            MsgClass::Tiny
        } else if len <= self.small_max {
            MsgClass::Small
        } else if len <= self.medium_max {
            MsgClass::Medium
        } else {
            MsgClass::Large
        }
    }

    /// Whether a network receive copy of `frag_len` bytes belonging to
    /// an `msg_len`-byte message should be offloaded (paper §IV-A
    /// conclusion: message ≥ 64 kB *and* fragment ≥ 1 kB).
    pub fn offload_net_copy(&self, msg_len: u64, frag_len: u64) -> bool {
        self.ioat_enabled
            && msg_len >= self.ioat_net_msg_threshold
            && frag_len >= self.ioat_frag_threshold
    }

    /// Whether a shared-memory copy of `msg_len` bytes should be
    /// offloaded.
    pub fn offload_shm_copy(&self, msg_len: u64) -> bool {
        self.ioat_enabled && msg_len >= self.ioat_shm_threshold
    }

    /// Fragments of an `len`-byte message.
    pub fn frags_for(&self, len: u64) -> u64 {
        len.div_ceil(self.frag_size).max(1)
    }

    /// Whether the fault plan injects anything. Harnesses use this to
    /// decide whether NIC drops mean "injected hazard, recovery
    /// expected" or "silent overload that must fail verification
    /// loudly".
    pub fn fault_injection_active(&self) -> bool {
        !self.fault_plan.is_inactive()
    }
}

/// The four Open-MX message classes (Fig 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MsgClass {
    /// Payload rides inside the event itself.
    Tiny,
    /// One copy into the shared ring, one copy out by the library.
    Small,
    /// Per-fragment ring copies, reassembled by the library.
    Medium,
    /// Rendezvous + pull into a pinned region; single completion event.
    Large,
}

#[cfg(test)]
mod tests {
    use super::*;
    use omx_ethernet::fault::LinkFaultParams;

    #[test]
    fn default_thresholds_match_paper() {
        let c = OmxConfig::default();
        assert_eq!(c.medium_max, 32 << 10);
        assert_eq!(c.ioat_net_msg_threshold, 64 << 10);
        assert_eq!(c.ioat_frag_threshold, 1 << 10);
        assert_eq!(c.ioat_shm_threshold, 1 << 20);
        assert_eq!(c.pull_block_frags, 8);
        assert_eq!(c.pull_blocks_outstanding, 2);
        assert!(!c.ioat_enabled);
        assert!(c.regcache);
    }

    #[test]
    fn credits_default_off_and_knobs_sane() {
        // Credits must default off: the fixed per-pull window is the
        // paper's model and every committed result depends on it.
        let c = OmxConfig::default();
        assert!(!c.pull_credits);
        assert!(c.credit_budget_min >= 1);
        assert!(c.credit_budget_min <= c.credit_budget_init);
        assert!(c.credit_budget_init <= c.credit_budget_max);
        assert!(c.credit_high_watermark_pct <= 100);
    }

    #[test]
    fn class_boundaries() {
        let c = OmxConfig::default();
        assert_eq!(c.class_of(0), MsgClass::Tiny);
        assert_eq!(c.class_of(32), MsgClass::Tiny);
        assert_eq!(c.class_of(33), MsgClass::Small);
        assert_eq!(c.class_of(128), MsgClass::Small);
        assert_eq!(c.class_of(129), MsgClass::Medium);
        assert_eq!(c.class_of(32 << 10), MsgClass::Medium);
        assert_eq!(c.class_of((32 << 10) + 1), MsgClass::Large);
    }

    #[test]
    fn offload_policy_needs_both_thresholds() {
        let c = OmxConfig::with_ioat();
        assert!(c.offload_net_copy(64 << 10, 4096));
        assert!(!c.offload_net_copy(63 << 10, 4096), "message too short");
        assert!(!c.offload_net_copy(64 << 10, 512), "fragment too short");
        let off = OmxConfig::default();
        assert!(!off.offload_net_copy(1 << 20, 4096), "master switch off");
    }

    #[test]
    fn shm_offload_threshold() {
        let c = OmxConfig::with_ioat();
        assert!(c.offload_shm_copy(1 << 20));
        assert!(!c.offload_shm_copy((1 << 20) - 1));
    }

    #[test]
    fn fault_injection_detection() {
        let c = OmxConfig::default();
        assert!(!c.fault_injection_active(), "default config is clean");
        let lossy = OmxConfig {
            fault_plan: FaultPlan {
                default_link: LinkFaultParams::uniform_loss(100),
                ..FaultPlan::default()
            },
            ..OmxConfig::default()
        };
        assert!(lossy.fault_injection_active());
        let planned = OmxConfig {
            fault_plan: FaultPlan::flaky_10g(),
            ..OmxConfig::default()
        };
        assert!(planned.fault_injection_active());
    }

    #[test]
    fn config_with_fault_plan_serializes() {
        // The whole config (fault plan included) lands in the JSON
        // record of a run, so it must serialize cleanly.
        let c = OmxConfig {
            fault_plan: FaultPlan::flaky_10g(),
            ..OmxConfig::with_ioat()
        };
        let json = serde_json::to_string(&c).unwrap();
        for key in [
            "fault_plan",
            "rto_max",
            "ioat_stall_deadline",
            "p_enter_bad",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
    }
}
