//! A clean wire's results do not depend on the resend timeout.
//!
//! On a clean wire nothing is lost, so no resend timer and no pull
//! watchdog ever acts: every one that fires finds its send acked or
//! its pull progressing. Whatever a run reports must then be the same
//! at any `retransmit_timeout` long enough that nothing is resent.
//! This runs one small clean-wire cell of each harness shape the
//! reduced grid uses at the default 500 µs and at 5 ms, checks that
//! nothing is retransmitted at 500 µs, and compares the `Stats`, the
//! harness's own outputs, the component breakdown and `RunReport::end`
//! byte for byte. Engine event counts and peak pending are left out:
//! they count timer fires, which the timeout may move.

use openmx_repro::hw::CoreId;
use openmx_repro::mpi::nas::is_scripts;
use openmx_repro::mpi::runner::run_scripts;
use openmx_repro::mpi::{run_kernel, Kernel, KernelResult, Layout};
use openmx_repro::omx::cluster::ClusterParams;
use openmx_repro::omx::config::OmxConfig;
use openmx_repro::omx::harness::{
    run_fanin, run_pingpong, run_stream, FaninConfig, PingPongConfig, Placement, RunReport,
    StreamConfig,
};
use openmx_repro::sim::Ps;

/// The default resend timeout, and one ten times longer.
const TIMEOUTS: [Ps; 2] = [Ps::us(500), Ps::ms(5)];

/// What one run reports: its `Stats`, breakdown, `end` and whatever
/// the harness itself measured, as text, after the resends it made.
struct Report {
    resends: u64,
    text: String,
}

fn report(run: &RunReport, breakdown: &impl serde::Serialize, outputs: String) -> Report {
    Report {
        resends: run.stats.retransmissions + run.stats.pull_retransmissions,
        text: format!(
            "stats {}\nbreakdown {}\nend {}\noutputs {outputs}",
            serde_json::to_string(&run.stats).expect("stats serialize"),
            serde_json::to_string(breakdown).expect("breakdown serialize"),
            run.end.as_ps(),
        ),
    }
}

fn kernel_report(r: &KernelResult) -> Report {
    assert!(r.verified, "kernel run failed verification");
    let outputs = format!("{:?} {:?}", r.time_per_iter, r.marks);
    report(&r.run, &r.breakdown, outputs)
}

fn pingpong(cfg: OmxConfig, size: u64, placement: Placement) -> Report {
    let mut c = PingPongConfig::new(ClusterParams::with_cfg(cfg), size, placement);
    c.iters = 8;
    c.warmup = 1;
    let r = run_pingpong(c);
    assert!(r.verified, "pingpong of {size} B failed verification");
    let outputs = format!("{:?} {:?} {}", r.rtts, r.half_rtt, r.throughput_mibs);
    report(&r.run, &r.breakdown, outputs)
}

const NET: Placement = Placement::TwoNodes {
    core_a: CoreId(2),
    core_b: CoreId(2),
};

/// Each cell's report at one timeout, labelled.
fn cells(timeout: Ps) -> Vec<(&'static str, Report)> {
    let base = OmxConfig {
        retransmit_timeout: timeout,
        ..OmxConfig::default()
    };
    let ioat = OmxConfig {
        retransmit_timeout: timeout,
        ..OmxConfig::with_ioat()
    };
    let mut out = vec![
        ("network pingpong", pingpong(base.clone(), 64 << 10, NET)),
        (
            "shm pingpong",
            pingpong(
                ioat.clone(),
                256 << 10,
                Placement::SameNode {
                    core_a: CoreId(0),
                    core_b: CoreId(4),
                },
            ),
        ),
        ("I/OAT pingpong", pingpong(ioat.clone(), 256 << 10, NET)),
    ];
    let mut st = StreamConfig::new(ClusterParams::with_cfg(ioat.clone()), 256 << 10);
    st.count = 8;
    let r = run_stream(st);
    assert!(r.verified, "stream failed verification");
    let outputs = format!(
        "{} {} {} {} {} {:?}",
        r.bh_util, r.driver_util, r.user_util, r.throughput_mibs, r.max_skbuffs_held, r.elapsed
    );
    out.push(("stream", report(&r.run, &r.breakdown, outputs)));
    let mut params = ClusterParams::with_cfg(OmxConfig {
        gro: true,
        ..base.clone()
    });
    params.nic.num_queues = 4;
    let mut fi = FaninConfig::new(params, 16 << 10);
    fi.count = 8;
    let r = run_fanin(fi);
    assert!(r.verified, "fan-in failed verification");
    let outputs = format!(
        "{} {:?} {:?} {}",
        r.throughput_mibs, r.elapsed, r.bh_busy_per_core, r.gro_coalesced
    );
    out.push(("fan-in", report(&r.run, &r.breakdown, outputs)));
    let imb = run_kernel(
        Kernel::Alltoall,
        Layout::TwoPerNode,
        128 << 10,
        2,
        ClusterParams::with_cfg(ioat.clone()),
    );
    out.push(("IMB Alltoall", kernel_report(&imb)));
    let layout = Layout::OnePerNode;
    let nas = run_scripts(
        ClusterParams::with_cfg(ioat),
        layout,
        is_scripts(layout.np(), 2 << 20, 4),
    );
    out.push(("NAS IS", kernel_report(&nas)));
    let scale = run_kernel(
        Kernel::Alltoall,
        Layout::Nodes(32),
        256,
        2,
        ClusterParams::with_cfg(base),
    );
    out.push(("scale_ablation Alltoall, 32 ranks", kernel_report(&scale)));
    out
}

#[test]
fn clean_wire_results_are_the_same_at_any_resend_timeout() {
    let short = cells(TIMEOUTS[0]);
    for (label, r) in &short {
        assert_eq!(
            r.resends, 0,
            "{label}: a clean wire retransmitted at the default timeout:\n{}",
            r.text
        );
    }
    let long = cells(TIMEOUTS[1]);
    for ((label, a), (_, b)) in short.iter().zip(&long) {
        assert_eq!(
            a.text, b.text,
            "{label}: the clean-wire result moved with the resend timeout"
        );
    }
}
