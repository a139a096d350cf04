//! Incast — receiver-driven credit budget vs pull-protocol incast.
//!
//! The study behind the congestion-control tentpole: a swarm of
//! senders simultaneously rendezvous-pushes large messages at one
//! host. Panel one scales the swarm on a clean wire and plots the
//! per-message completion time — with the credit budget on it must
//! grow sub-linearly in the sender count, with fewer than 5 % excess
//! fragments. Panel two drops the same incast onto adverse fault
//! plans (a ring shrunken to 8 slots, a flaky 1 %-loss link): the
//! credits-off rows record the collapse honestly (fragment waste,
//! shed frames), the credits-on rows must still deliver every
//! message. A final panel embeds the receiver's end-of-run stats —
//! credit shrink/NACK/stall counters and the per-queue ring
//! high-watermarks — into the committed record.

use crate::{banner, breakdown_line, cell, CellOut, Grid, Outs, Plan, Rendered};
use open_mx::cluster::ClusterParams;
use open_mx::fault::FaultPlan;
use open_mx::harness::{run_incast, IncastConfig, IncastResult};

/// Large-class message size (24 pull fragments each).
const SIZE: u64 = 96 << 10;
/// Messages per sender, streamed back-to-back.
const COUNT: u32 = 2;

fn incast_run(senders: u32, credits: bool, plan: Option<&'static str>) -> IncastResult {
    let mut params = ClusterParams::default();
    params.nic.num_queues = 4;
    params.cfg.pull_credits = credits;
    if let Some(name) = plan {
        params.cfg.fault_plan = FaultPlan::named(name).expect("known fault plan");
    }
    run_incast(IncastConfig::new(params, senders, SIZE, COUNT))
}

fn peak_ring(r: &IncastResult) -> u64 {
    r.run
        .stats
        .ring_high_watermarks
        .first()
        .map(|q| q.iter().copied().max().unwrap_or(0))
        .unwrap_or(0)
}

fn on_off(credits: bool) -> &'static str {
    if credits {
        "on"
    } else {
        "off"
    }
}

/// Scaling row: per-message completion feeds the cross-cell growth
/// column, everything else is pre-rendered.
fn scaling_cell(senders: u32, credits: bool) -> (f64, String) {
    let r = incast_run(senders, credits, None);
    if credits {
        assert!(
            r.verified,
            "credits-on incast must complete on a clean wire at {senders} senders: {}/{}",
            r.delivered, r.expected
        );
        assert!(
            r.excess_frag_pct < 5.0,
            "credits-on retransmissions must stay under 5 % of fragments \
             at {senders} senders: {:.2}%",
            r.excess_frag_pct
        );
    }
    let usec = r.per_msg.as_ps() as f64 / 1e6;
    let row = format!(
        "{:>10} {:>8} {:>11} {:>10.2} {:>13.2} {:>10}",
        senders,
        on_off(credits),
        format!("{}/{}", r.delivered, r.expected),
        usec,
        r.excess_frag_pct,
        peak_ring(&r),
    );
    (usec, row)
}

/// Survival row under an adverse fault plan.
fn survival_cell(plan: &'static str, senders: u32, credits: bool) -> String {
    let r = incast_run(senders, credits, Some(plan));
    if credits {
        assert!(
            r.verified,
            "credits-on incast must survive {plan} at {senders} senders: {}/{}",
            r.delivered, r.expected
        );
    }
    format!(
        "{:>13} {:>8} {:>11} {:>9.2} {:>10} {:>10} {:>8} {:>6} {:>7}\n",
        plan,
        on_off(credits),
        format!("{}/{}", r.delivered, r.expected),
        r.excess_frag_pct,
        r.ring_dropped_injected,
        r.ring_dropped_genuine,
        r.run.stats.credit_shrinks,
        r.run.stats.credit_nacks,
        r.run.stats.credit_stalls,
    )
}

/// Grid: senders × credits scaling panel, plan × credits survival
/// panel, plus the credit-controller stats line.
pub fn plan(grid: &Grid) -> Plan {
    let senders_axis = grid.axis(&[64u32, 128, 256], &[8, 16]);
    let survival_senders = grid.axis(&[64u32], &[8])[0];
    let mut cells = Vec::new();
    for &s in &senders_axis {
        for credits in [false, true] {
            cells.push(cell(
                format!("incast/scaling/{s}/{}", on_off(credits)),
                move || {
                    let (usec, row) = scaling_cell(s, credits);
                    CellOut::NumText(usec, row)
                },
            ));
        }
    }
    for plan in ["ring-pressure", "flaky-10g"] {
        for credits in [false, true] {
            cells.push(cell(
                format!("incast/survival/{plan}/{}", on_off(credits)),
                move || CellOut::Text(survival_cell(plan, survival_senders, credits)),
            ));
        }
    }
    cells.push(cell("incast/stats/ring-pressure-on", move || {
        let r = incast_run(survival_senders, true, Some("ring-pressure"));
        CellOut::Text(breakdown_line(
            "incast_ring_pressure_credits_on",
            &r.run.stats,
        ))
    }));

    let render = Box::new(move |mut o: Outs| {
        let mut t = banner(
            "incast",
            "receiver-driven credit budget vs pull-protocol incast",
        );
        t += &format!(
            "--- scaling: N senders x {COUNT} x {} KiB large messages -> 1 host (clean wire) ---\n",
            SIZE >> 10
        );
        t += &format!(
            "{:>10} {:>8} {:>11} {:>10} {:>13} {:>10} {:>8}\n",
            "senders", "credits", "delivered", "usec/msg", "excess-frag%", "peak-ring", "growth"
        );
        let mut base = [0.0f64; 2];
        let mut growth = [0.0f64; 2];
        for (i, &s) in senders_axis.iter().enumerate() {
            for (c, _) in [false, true].into_iter().enumerate() {
                let (usec, row) = o.num_text();
                if i == 0 {
                    base[c] = usec;
                }
                growth[c] = usec / base[c];
                t += &format!("{row} {:>8.2}\n", growth[c]);
            }
            let _ = s;
        }
        // The tentpole's scaling claim: with credits on, per-message
        // completion grows sub-linearly in the sender count.
        let fan = *senders_axis.last().unwrap() as f64 / senders_axis[0] as f64;
        assert!(
            growth[1] < fan,
            "credits-on per-message completion must grow sub-linearly: \
             {:.2}x time over {fan:.0}x senders",
            growth[1]
        );
        t += &format!("\n--- survival: {survival_senders} senders under adverse plans ---\n");
        t += &format!(
            "{:>13} {:>8} {:>11} {:>9} {:>10} {:>10} {:>8} {:>6} {:>7}\n",
            "plan",
            "credits",
            "delivered",
            "excess%",
            "drops-inj",
            "drops-gen",
            "shrinks",
            "nacks",
            "stalls"
        );
        for _ in 0..4 {
            t += &o.text();
        }
        t += "\n--- credit controller state (ring-pressure, credits on) ---\n";
        t += &o.text();
        t += "\nPer-pull windows scale the in-flight fragment load with the\n";
        t += "sender count; the shared receiver budget caps it, sheds load by\n";
        t += "halving on ring pressure (NACKing the pushiest sender), and\n";
        t += "regrows additively once every queue shows sustained headroom.\n";
        o.finish();
        Rendered {
            text: t,
            series: Vec::new(),
        }
    });
    Plan { cells, render }
}
