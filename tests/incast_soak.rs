//! Incast survival soak: a 64-sender large-message incast with the
//! receiver-driven credit budget enabled must complete — every message
//! delivered byte-verified, nothing leaked — on a clean wire, on a
//! ring shrunken to 8 slots, and on a flaky 1 %-loss link, across
//! seeds. The credits-off collapse is pinned as a contrast (fragment
//! waste, shed frames), and the whole path is bit-deterministic.

use openmx_repro::omx::cluster::ClusterParams;
use openmx_repro::omx::config::OmxConfig;
use openmx_repro::omx::fault::FaultPlan;
use openmx_repro::omx::harness::{run_incast, IncastConfig, IncastResult};

const SEEDS: [u64; 3] = [11, 23, 47];
const SENDERS: u32 = 64;
const SIZE: u64 = 96 << 10;
const COUNT: u32 = 2;

/// Credit-enabled incast config: four RSS queues on the receiver and
/// the registration cache off so `run.pinned_regions == 0` proves
/// every region was actually released.
fn incast(credits: bool, plan: FaultPlan, seed: u64) -> IncastResult {
    let mut params = ClusterParams::with_cfg(OmxConfig {
        fault_plan: plan,
        seed,
        regcache: false,
        pull_credits: credits,
        ..OmxConfig::default()
    });
    params.nic.num_queues = 4;
    run_incast(IncastConfig::new(params, SENDERS, SIZE, COUNT))
}

#[test]
fn incast_with_credits_survives_every_plan() {
    for plan_name in ["clean", "ring-pressure", "flaky-10g"] {
        let plan = FaultPlan::named(plan_name).unwrap_or_default();
        for seed in SEEDS {
            let r = incast(true, plan.clone(), seed);
            assert_eq!(
                r.delivered, r.expected,
                "{plan_name} seed {seed}: incast lost messages"
            );
            assert_eq!(r.corrupt, 0, "{plan_name} seed {seed}: corrupt payloads");
            assert!(
                r.verified,
                "{plan_name} seed {seed}: send failed or wire dirty"
            );
            assert_eq!(
                r.run.skbuffs_held, 0,
                "{plan_name} seed {seed}: leaked skbuffs"
            );
            assert_eq!(
                r.run.pinned_regions, 0,
                "{plan_name} seed {seed}: leaked pinned regions"
            );
        }
    }
}

#[test]
fn credits_beat_the_collapse_on_a_pressured_ring() {
    // The contrast panel: on the 8-slot ring the per-pull windows shed
    // frames and waste fragments; the shared budget must waste less on
    // both axes while the AIMD controller visibly engages.
    let seed = SEEDS[0];
    let off = incast(false, FaultPlan::ring_pressure(), seed);
    let on = incast(true, FaultPlan::ring_pressure(), seed);
    assert_eq!(on.delivered, on.expected);
    assert!(
        on.excess_frag_pct < off.excess_frag_pct,
        "credits must waste fewer fragments: {:.2}% vs {:.2}%",
        on.excess_frag_pct,
        off.excess_frag_pct
    );
    assert!(
        on.ring_dropped_injected < off.ring_dropped_injected,
        "credits must shed fewer frames: {} vs {}",
        on.ring_dropped_injected,
        off.ring_dropped_injected
    );
    assert!(on.run.stats.credit_shrinks > 0, "AIMD shrink never fired");
    assert_eq!(
        off.run.stats.credit_shrinks, 0,
        "credits-off run must not touch the controller"
    );
}

#[test]
fn ring_drop_blame_is_split_by_cause() {
    // Satellite check for the stats split: every drop on the shrunken
    // ring is attributable to the injected override, none to genuine
    // overload — and a clean credits-on run drops nothing at all.
    let pressured = incast(true, FaultPlan::ring_pressure(), SEEDS[0]);
    assert!(pressured.ring_dropped_injected > 0);
    assert_eq!(
        pressured.ring_dropped_genuine, 0,
        "all ring-pressure drops stem from the injected 8-slot ring"
    );
    let clean = incast(true, FaultPlan::default(), SEEDS[0]);
    assert_eq!(clean.ring_dropped_injected, 0);
    assert_eq!(clean.ring_dropped_genuine, 0);
}

#[test]
fn incast_with_credits_is_bit_deterministic() {
    for plan_name in ["clean", "ring-pressure", "flaky-10g"] {
        let plan = FaultPlan::named(plan_name).unwrap_or_default();
        let a = incast(true, plan.clone(), SEEDS[0]);
        let b = incast(true, plan, SEEDS[0]);
        let fp = |r: &IncastResult| {
            format!(
                "{}\n{}",
                serde_json::to_string(&r.run.stats).expect("stats serialize"),
                serde_json::to_string(&r.breakdown).expect("breakdown serialize"),
            )
        };
        assert_eq!(
            fp(&a),
            fp(&b),
            "{plan_name}: credit-enabled incast diverged between two runs"
        );
        assert_eq!(a.elapsed, b.elapsed, "{plan_name}: elapsed diverged");
    }
}
