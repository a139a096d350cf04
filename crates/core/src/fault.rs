//! Cluster-level fault plans.
//!
//! A [`FaultPlan`] is a declarative description of everything that
//! goes wrong during a run: per-link wire hazards (bursty loss,
//! corruption, duplication, reordering — see
//! [`omx_ethernet::fault::LinkFaultParams`]), and per-node hardware
//! trouble (an undersized NIC RX ring, I/OAT channels that stall or
//! die at scheduled times). The plan lives in
//! [`crate::config::OmxConfig::fault_plan`], so every harness,
//! benchmark and test reaches it the same way, and the whole plan is
//! serializable into the JSON record of a run.
//!
//! The empty plan is inert and free: no per-frame draws, no per-copy
//! checks beyond an empty-`Vec` scan, so fault-free simulations are
//! bit-identical with and without this subsystem (proven by
//! `tests/fault_soak.rs::inactive_plan_is_zero_cost`).
//!
//! A handful of named plans ([`FaultPlan::named`]) give the soak tests
//! and the docs a shared vocabulary — `flaky-10g` is the reference
//! scenario from the robustness issue: 1 % bursty loss, reorder depth
//! 4, one duplicate per ~5000 frames, and one I/OAT channel stalled
//! for 10 ms early in the run.

use omx_ethernet::fault::LinkFaultParams;
use omx_sim::Ps;
use serde::Serialize;

/// One scheduled I/OAT channel fault on a node: the channel stops
/// retiring descriptors at `at`, for `duration` (`None` = it never
/// comes back).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct IoatChannelFault {
    /// Channel index on the node's engine.
    pub channel: usize,
    /// When the fault hits.
    pub at: Ps,
    /// How long it lasts (`None` = permanent failure).
    pub duration: Option<Ps>,
}

/// Per-node hardware faults.
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct NodeFaultParams {
    /// Node this entry applies to.
    pub node: u32,
    /// Override the NIC RX ring size (ring pressure: small rings
    /// overflow under fragment streams and force retransmits).
    pub rx_ring_size: Option<usize>,
    /// Scheduled I/OAT channel stalls/failures.
    pub ioat_faults: Vec<IoatChannelFault>,
}

/// Per-link override: fault parameters for one directed link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct LinkFaultOverride {
    /// Sending node.
    pub src: u32,
    /// Receiving node.
    pub dst: u32,
    /// Parameters for this link (replaces the plan default).
    pub params: LinkFaultParams,
}

/// The full fault plan for a run (see module docs). The default plan
/// is empty and inert.
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct FaultPlan {
    /// Fault parameters applied to every directed link unless
    /// overridden in `links`.
    pub default_link: LinkFaultParams,
    /// Per-link overrides (directed: `(src, dst)`).
    pub links: Vec<LinkFaultOverride>,
    /// Per-node hardware faults.
    pub nodes: Vec<NodeFaultParams>,
}

impl FaultPlan {
    /// Whether the plan can never inject anything.
    pub fn is_inactive(&self) -> bool {
        !self.default_link.is_active()
            && self.links.iter().all(|o| !o.params.is_active())
            && self
                .nodes
                .iter()
                .all(|n| n.rx_ring_size.is_none() && n.ioat_faults.is_empty())
    }

    /// Whether any directed link can inject wire hazards (the plan
    /// default or any override is active).
    pub fn has_link_faults(&self) -> bool {
        self.default_link.is_active() || self.links.iter().any(|o| o.params.is_active())
    }

    /// Link fault parameters for the directed link `src → dst`
    /// (override if present, plan default otherwise).
    pub fn link_params(&self, src: u32, dst: u32) -> LinkFaultParams {
        self.links
            .iter()
            .find(|o| o.src == src && o.dst == dst)
            .map(|o| o.params)
            .unwrap_or(self.default_link)
    }

    /// Hardware faults for `node`, if any.
    pub fn node_params(&self, node: u32) -> Option<&NodeFaultParams> {
        self.nodes.iter().find(|n| n.node == node)
    }

    /// Look up a named plan (the shared vocabulary of the soak tests,
    /// the ablation bench and EXPERIMENTS.md). `None` for unknown
    /// names.
    pub fn named(name: &str) -> Option<FaultPlan> {
        match name {
            "flaky-10g" => Some(Self::flaky_10g()),
            "dirty-fiber" => Some(Self::dirty_fiber()),
            "dup-storm" => Some(Self::dup_storm()),
            "ring-pressure" => Some(Self::ring_pressure()),
            "ioat-dead" => Some(Self::ioat_dead()),
            _ => None,
        }
    }

    /// Names accepted by [`FaultPlan::named`].
    pub const NAMES: &'static [&'static str] = &[
        "flaky-10g",
        "dirty-fiber",
        "dup-storm",
        "ring-pressure",
        "ioat-dead",
    ];

    /// The reference robustness scenario: ≈1 % bursty loss (bad-state
    /// episodes of ~5 frames), bounded reordering up to depth 4, one
    /// duplicate per 5000 frames, and I/OAT channel 0 on every node
    /// stalled for 10 ms starting 100 µs into the run (early enough
    /// that even short benchmark runs hit the window).
    pub fn flaky_10g() -> FaultPlan {
        let link = LinkFaultParams {
            // Stationary bad fraction 0.002/(0.002+0.2) ≈ 1 %, mean
            // burst 1/0.2 = 5 frames, certain loss while bad.
            p_enter_bad: 0.002,
            p_exit_bad: 0.2,
            loss_good: 0.0,
            loss_bad: 1.0,
            corrupt_prob: 0.0,
            dup_prob: 1.0 / 5000.0,
            reorder_prob: 0.005,
            reorder_depth: 4,
        };
        let stall = |node: u32| NodeFaultParams {
            node,
            rx_ring_size: None,
            ioat_faults: vec![IoatChannelFault {
                channel: 0,
                at: Ps::us(100),
                duration: Some(Ps::ms(10)),
            }],
        };
        FaultPlan {
            default_link: link,
            links: Vec::new(),
            nodes: vec![stall(0), stall(1)],
        }
    }

    /// Wire corruption only: ~0.2 % of frames arrive with a damaged
    /// FCS and die at the NIC. Exercises the corrupt-drop counter and
    /// retransmit recovery without any other hazard.
    pub fn dirty_fiber() -> FaultPlan {
        FaultPlan {
            default_link: LinkFaultParams {
                corrupt_prob: 0.002,
                ..LinkFaultParams::default()
            },
            ..FaultPlan::default()
        }
    }

    /// Heavy duplication (2 % of frames delivered twice): exercises
    /// end-to-end idempotence of fragment and control-frame delivery.
    pub fn dup_storm() -> FaultPlan {
        FaultPlan {
            default_link: LinkFaultParams {
                dup_prob: 0.02,
                ..LinkFaultParams::default()
            },
            ..FaultPlan::default()
        }
    }

    /// Undersized RX rings on both nodes: fragment bursts overflow the
    /// ring and the pull watchdog must re-request the holes.
    pub fn ring_pressure() -> FaultPlan {
        FaultPlan {
            nodes: vec![
                NodeFaultParams {
                    node: 0,
                    rx_ring_size: Some(8),
                    ioat_faults: Vec::new(),
                },
                NodeFaultParams {
                    node: 1,
                    rx_ring_size: Some(8),
                    ioat_faults: Vec::new(),
                },
            ],
            ..FaultPlan::default()
        }
    }

    /// I/OAT channel 0 dies permanently 50 µs into the run on every
    /// node: the driver must fall back to memcpy, quarantine the
    /// channel, re-probe after the cool-down, find it still dead, and
    /// keep going on the remaining channels.
    pub fn ioat_dead() -> FaultPlan {
        let dead = |node: u32| NodeFaultParams {
            node,
            rx_ring_size: None,
            ioat_faults: vec![IoatChannelFault {
                channel: 0,
                at: Ps::us(50),
                duration: None,
            }],
        };
        FaultPlan {
            nodes: vec![dead(0), dead(1)],
            ..FaultPlan::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_inactive() {
        assert!(FaultPlan::default().is_inactive());
    }

    #[test]
    fn named_plans_resolve_and_are_active() {
        for name in FaultPlan::NAMES {
            let plan = FaultPlan::named(name).unwrap_or_else(|| panic!("{name} must resolve"));
            assert!(!plan.is_inactive(), "{name} must be active");
        }
        assert!(FaultPlan::named("no-such-plan").is_none());
    }

    #[test]
    fn flaky_10g_matches_issue_spec() {
        let p = FaultPlan::flaky_10g();
        let link = p.link_params(0, 1);
        let loss = link.stationary_loss();
        assert!((loss - 0.01).abs() < 0.001, "≈1 % loss, got {loss}");
        assert_eq!(link.reorder_depth, 4);
        assert!((link.dup_prob - 0.0002).abs() < 1e-9);
        let n0 = p.node_params(0).unwrap();
        assert_eq!(n0.ioat_faults.len(), 1);
        assert_eq!(n0.ioat_faults[0].channel, 0);
        assert_eq!(n0.ioat_faults[0].duration, Some(Ps::ms(10)));
    }

    #[test]
    fn link_overrides_shadow_the_default() {
        let special = LinkFaultParams {
            loss_good: 0.5,
            ..LinkFaultParams::default()
        };
        let plan = FaultPlan {
            default_link: LinkFaultParams::uniform_loss(100),
            links: vec![LinkFaultOverride {
                src: 1,
                dst: 0,
                params: special,
            }],
            ..FaultPlan::default()
        };
        assert_eq!(plan.link_params(1, 0), special);
        assert_eq!(plan.link_params(0, 1), LinkFaultParams::uniform_loss(100));
        assert!(!plan.is_inactive());
    }

    #[test]
    fn plan_serializes_to_json() {
        let json = serde_json::to_string(&FaultPlan::flaky_10g()).unwrap();
        for key in [
            "default_link",
            "p_enter_bad",
            "nodes",
            "ioat_faults",
            "channel",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
    }
}
