//! Link-level fault injection: a Gilbert–Elliott bursty-loss channel
//! plus independent corruption, duplication and bounded-reordering
//! hazards, evaluated per transmitted frame.
//!
//! The Gilbert–Elliott model is a two-state Markov chain: the link is
//! either in the *good* state (rare, independent drops at `loss_good`)
//! or the *bad* state (a fade or congestion episode dropping frames at
//! `loss_bad`). Transitions happen per frame with probabilities
//! `p_enter_bad` / `p_exit_bad`, so the stationary loss rate is
//!
//! ```text
//! pi_bad  = p_enter_bad / (p_enter_bad + p_exit_bad)
//! loss    = (1 - pi_bad) * loss_good + pi_bad * loss_bad
//! ```
//!
//! and the mean burst length is `1 / p_exit_bad` frames. Uniform loss
//! is the degenerate case where both states drop at the same rate —
//! see [`LinkFaultParams::uniform_loss`].
//!
//! Frames that survive the loss draw may still be corrupted (FCS
//! damage — the receiving NIC drops them before they consume a ring
//! slot), duplicated (delivered twice, as cut-through switches under
//! pause-frame storms occasionally do), or reordered (held back by a
//! bounded number of frame-serialization times).
//!
//! Each channel owns its own [`SplitMix64`] stream, handed over at
//! construction, so a fault pattern is a pure function of (seed,
//! link) — independent of how many frames *other* links carried and
//! of which partition of a split simulation evaluates the link. The
//! same plan + seed drops exactly the same frames every run, at every
//! partition count.

use omx_sim::SplitMix64;
use serde::{Deserialize, Serialize};

/// Per-link fault parameters (all probabilities per frame, in `[0,1]`).
///
/// The all-zero default is inert: [`LinkFaultParams::is_active`]
/// returns `false` and the cluster skips fault evaluation entirely for
/// such links, so an empty plan costs nothing and perturbs nothing.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct LinkFaultParams {
    /// Probability of transitioning good → bad before each frame.
    pub p_enter_bad: f64,
    /// Probability of transitioning bad → good before each frame.
    pub p_exit_bad: f64,
    /// Drop probability while in the good state.
    pub loss_good: f64,
    /// Drop probability while in the bad state.
    pub loss_bad: f64,
    /// Probability a delivered frame arrives with a damaged FCS (the
    /// NIC drops it without consuming an RX ring slot).
    pub corrupt_prob: f64,
    /// Probability a delivered frame is delivered twice.
    pub dup_prob: f64,
    /// Probability a delivered frame is held back (reordered).
    pub reorder_prob: f64,
    /// Maximum hold-back, in frame-serialization times (a reordered
    /// frame is delayed by 1..=depth extra serialization times, so
    /// later frames overtake it).
    pub reorder_depth: u32,
}

impl LinkFaultParams {
    /// Whether any hazard can ever fire. Inactive params draw no
    /// random numbers, keeping fault-free runs bit-identical to a
    /// build without this module.
    pub fn is_active(&self) -> bool {
        self.loss_good > 0.0
            || self.loss_bad > 0.0
            || self.p_enter_bad > 0.0
            || self.corrupt_prob > 0.0
            || self.dup_prob > 0.0
            || self.reorder_prob > 0.0
    }

    /// Uniform loss as a degenerate Gilbert–Elliott channel: both
    /// states drop at `1/one_in`, no state dynamics.
    pub fn uniform_loss(one_in: u64) -> LinkFaultParams {
        let p = if one_in == 0 {
            0.0
        } else {
            1.0 / one_in as f64
        };
        LinkFaultParams {
            loss_good: p,
            loss_bad: p,
            ..LinkFaultParams::default()
        }
    }

    /// Stationary (long-run) drop probability of the channel.
    pub fn stationary_loss(&self) -> f64 {
        let denom = self.p_enter_bad + self.p_exit_bad;
        let pi_bad = if denom > 0.0 {
            self.p_enter_bad / denom
        } else {
            0.0
        };
        (1.0 - pi_bad) * self.loss_good + pi_bad * self.loss_bad
    }
}

/// What the fault channel decided to do with one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FrameDisposition {
    /// Frame vanishes on the wire (never reaches the NIC).
    pub dropped: bool,
    /// Frame arrives with a damaged FCS (NIC drops and counts it).
    pub corrupted: bool,
    /// Frame is delivered a second time.
    pub duplicated: bool,
    /// Extra hold-back in frame-serialization times (0 = in order).
    pub reorder_extra: u32,
}

impl FrameDisposition {
    /// The disposition of a frame on a fault-free link.
    pub const CLEAN: FrameDisposition = FrameDisposition {
        dropped: false,
        corrupted: false,
        duplicated: false,
        reorder_extra: 0,
    };
}

/// Mutable per-link fault state: the parameters, the current
/// Gilbert–Elliott channel state, and the link's private draw stream.
#[derive(Debug, Clone)]
pub struct LinkFaultState {
    params: LinkFaultParams,
    in_bad: bool,
    rng: SplitMix64,
}

impl LinkFaultState {
    /// A channel starting in the good state, owning its draw stream.
    /// Derive `rng` purely from the run seed and the link's identity
    /// (e.g. `root.derive(key(src, dst))`) so the stream is the same
    /// no matter when the link is first touched or which partition
    /// hosts it.
    pub fn new(params: LinkFaultParams, rng: SplitMix64) -> LinkFaultState {
        LinkFaultState {
            params,
            in_bad: false,
            rng,
        }
    }

    /// The parameters this channel was built with.
    pub fn params(&self) -> &LinkFaultParams {
        &self.params
    }

    /// Evaluate the hazards for one frame. Draw order is fixed
    /// (transition, loss, corrupt, duplicate, reorder) so fault
    /// patterns are reproducible across runs with the same seed.
    pub fn next_frame(&mut self) -> FrameDisposition {
        let p = self.params;
        let rng = &mut self.rng;
        if self.in_bad {
            if rng.chance(p.p_exit_bad) {
                self.in_bad = false;
            }
        } else if rng.chance(p.p_enter_bad) {
            self.in_bad = true;
        }
        let loss = if self.in_bad { p.loss_bad } else { p.loss_good };
        if rng.chance(loss) {
            return FrameDisposition {
                dropped: true,
                ..FrameDisposition::CLEAN
            };
        }
        let corrupted = p.corrupt_prob > 0.0 && rng.chance(p.corrupt_prob);
        let duplicated = p.dup_prob > 0.0 && rng.chance(p.dup_prob);
        let reorder_extra =
            if p.reorder_prob > 0.0 && p.reorder_depth > 0 && rng.chance(p.reorder_prob) {
                1 + rng.next_below(p.reorder_depth as u64) as u32
            } else {
                0
            };
        FrameDisposition {
            dropped: false,
            corrupted,
            duplicated,
            reorder_extra,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_default_is_inactive() {
        let p = LinkFaultParams::default();
        assert!(!p.is_active());
        assert_eq!(p.stationary_loss(), 0.0);
    }

    #[test]
    fn uniform_loss_matches_one_in() {
        let p = LinkFaultParams::uniform_loss(50);
        assert!(p.is_active());
        assert!((p.stationary_loss() - 0.02).abs() < 1e-12);
        // Degenerate channel: both states drop identically.
        assert_eq!(p.loss_good, p.loss_bad);

        let mut st = LinkFaultState::new(p, SplitMix64::new(7));
        let n = 200_000;
        let drops = (0..n).filter(|_| st.next_frame().dropped).count();
        let rate = drops as f64 / n as f64;
        assert!((rate - 0.02).abs() < 0.004, "observed loss {rate}");
    }

    #[test]
    fn certain_loss_drops_every_frame() {
        // One-in-one uniform loss must drop everything through the
        // Gilbert–Elliott channel.
        let p = LinkFaultParams::uniform_loss(1);
        let mut st = LinkFaultState::new(p, SplitMix64::new(1));
        for _ in 0..1000 {
            assert!(st.next_frame().dropped);
        }
    }

    #[test]
    fn bursty_loss_clusters_drops() {
        // Rare entry, sticky bad state with certain loss: drops come
        // in runs whose mean length ≈ 1/p_exit_bad.
        let p = LinkFaultParams {
            p_enter_bad: 0.002,
            p_exit_bad: 0.2,
            loss_bad: 1.0,
            ..LinkFaultParams::default()
        };
        let mut st = LinkFaultState::new(p, SplitMix64::new(3));
        let n = 400_000;
        let mut drops = 0u64;
        let mut bursts = 0u64;
        let mut prev_dropped = false;
        for _ in 0..n {
            let d = st.next_frame().dropped;
            if d {
                drops += 1;
                if !prev_dropped {
                    bursts += 1;
                }
            }
            prev_dropped = d;
        }
        let loss = drops as f64 / n as f64;
        assert!((loss - p.stationary_loss()).abs() < 0.003, "loss {loss}");
        let mean_burst = drops as f64 / bursts as f64;
        assert!(
            mean_burst > 2.0,
            "bursty channel must cluster drops, mean burst {mean_burst}"
        );
    }

    #[test]
    fn secondary_hazards_fire_at_configured_rates() {
        let p = LinkFaultParams {
            corrupt_prob: 0.1,
            dup_prob: 0.05,
            reorder_prob: 0.2,
            reorder_depth: 4,
            ..LinkFaultParams::default()
        };
        let mut st = LinkFaultState::new(p, SplitMix64::new(9));
        let n = 100_000;
        let (mut c, mut d, mut r) = (0u64, 0u64, 0u64);
        let mut max_extra = 0u32;
        for _ in 0..n {
            let disp = st.next_frame();
            assert!(!disp.dropped);
            c += disp.corrupted as u64;
            d += disp.duplicated as u64;
            r += (disp.reorder_extra > 0) as u64;
            max_extra = max_extra.max(disp.reorder_extra);
        }
        assert!((c as f64 / n as f64 - 0.1).abs() < 0.01);
        assert!((d as f64 / n as f64 - 0.05).abs() < 0.01);
        assert!((r as f64 / n as f64 - 0.2).abs() < 0.01);
        assert!(max_extra <= 4, "reorder bounded by depth");
        assert!(max_extra >= 1);
    }

    #[test]
    fn same_seed_same_disposition_stream() {
        let p = LinkFaultParams {
            p_enter_bad: 0.01,
            p_exit_bad: 0.3,
            loss_bad: 0.8,
            corrupt_prob: 0.02,
            dup_prob: 0.02,
            reorder_prob: 0.05,
            reorder_depth: 3,
            ..LinkFaultParams::default()
        };
        let run = |seed: u64| {
            let mut st = LinkFaultState::new(p, SplitMix64::new(seed));
            (0..5000).map(|_| st.next_frame()).collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn serializes_every_field() {
        let p = LinkFaultParams {
            p_enter_bad: 0.002,
            p_exit_bad: 0.2,
            loss_bad: 1.0,
            reorder_prob: 0.005,
            reorder_depth: 4,
            ..LinkFaultParams::default()
        };
        let json = serde_json::to_string(&p).unwrap();
        for key in [
            "p_enter_bad",
            "p_exit_bad",
            "loss_good",
            "loss_bad",
            "corrupt_prob",
            "dup_prob",
            "reorder_prob",
            "reorder_depth",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
