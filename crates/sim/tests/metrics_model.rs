//! The dense metrics registry against a reference model of the
//! string-keyed registry it replaced: a `BTreeMap` per family keyed by
//! `(scope, name)`, where an entry exists once something was recorded
//! under it. Random sequences of recordings — every kind, family
//! members included — go to both, and every read and the snapshot JSON
//! must agree.

use omx_sim::instruments::{self as ins, Busy, Counter, Gauge, COUNTER_FIELDS, MAX_QUEUES};
use omx_sim::{Metrics, Ps};
use proptest::prelude::*;
use std::collections::BTreeMap;

const SCOPES: u32 = 3;

/// The replaced registry's semantics.
#[derive(Default)]
struct Model {
    counters: BTreeMap<(u32, String), u64>,
    gauges: BTreeMap<(u32, String), i64>,
    busy: BTreeMap<(u32, String), Ps>,
}

impl Model {
    fn count(&mut self, scope: u32, name: &str, delta: u64) {
        *self.counters.entry((scope, name.into())).or_insert(0) += delta;
    }
    fn gauge_max(&mut self, scope: u32, name: &str, v: i64) {
        let g = self.gauges.entry((scope, name.into())).or_insert(i64::MIN);
        *g = (*g).max(v);
    }
    fn busy(&mut self, scope: u32, name: &str, t: Ps) {
        *self.busy.entry((scope, name.into())).or_insert(Ps::ZERO) += t;
    }
    fn snapshot_json(&self) -> String {
        let key = |(s, n): &(u32, String)| format!("s{s}.{n}");
        let counters: BTreeMap<String, u64> =
            self.counters.iter().map(|(k, v)| (key(k), *v)).collect();
        let gauges: BTreeMap<String, i64> = self.gauges.iter().map(|(k, v)| (key(k), *v)).collect();
        let busy_ns: BTreeMap<String, f64> = self
            .busy
            .iter()
            .map(|(k, v)| (key(k), v.as_ps() as f64 / 1e3))
            .collect();
        let c = serde_json::to_string(&counters).expect("serialize");
        let g = serde_json::to_string(&gauges).expect("serialize");
        let b = serde_json::to_string(&busy_ns).expect("serialize");
        format!(r#"{{"counters":{c},"gauges":{g},"busy_ns":{b},"trace_dropped":0}}"#)
    }
}

#[derive(Debug, Clone, Copy)]
enum Id {
    C(Counter),
    G(Gauge),
    B(Busy),
}

/// Instruments under test with the names the old registry used: every
/// family member plus single rows of each kind.
fn instruments() -> Vec<(String, Id)> {
    let mut v = Vec::new();
    for q in 0..MAX_QUEUES {
        v.push((format!("nic.q{q}.frames"), Id::C(ins::NIC_Q_FRAMES.at(q))));
        v.push((format!("nic.q{q}.irqs"), Id::C(ins::NIC_Q_IRQS.at(q))));
        let coalesced = ins::NIC_Q_IRQS_COALESCED.at(q);
        v.push((format!("nic.q{q}.irqs_coalesced"), Id::C(coalesced)));
        v.push((
            format!("nic.q{q}.ring_drops"),
            Id::C(ins::NIC_Q_RING_DROPS.at(q)),
        ));
        let hwm = ins::NIC_Q_RING_HIGH_WATERMARK.at(q);
        v.push((format!("nic.q{q}.ring_high_watermark"), Id::G(hwm)));
    }
    for (k, field) in COUNTER_FIELDS.iter().enumerate() {
        v.push((format!("counters.{field}"), Id::G(ins::COUNTERS.at(k))));
    }
    v.extend([
        ("nic.frames".to_string(), Id::C(ins::NIC_FRAMES)),
        ("nic.ring_drops".to_string(), Id::C(ins::NIC_RING_DROPS)),
        ("ioat.bytes".to_string(), Id::C(ins::IOAT_BYTES)),
        ("credit.nacks".to_string(), Id::C(ins::CREDIT_NACKS)),
        (
            "fault.frames_duplicated".to_string(),
            Id::C(ins::FAULT_FRAMES_DUPLICATED),
        ),
        (
            "nic.ring_high_watermark".to_string(),
            Id::G(ins::NIC_RING_HIGH_WATERMARK),
        ),
        (
            "bh.backlog_high_watermark".to_string(),
            Id::G(ins::BH_BACKLOG_HIGH_WATERMARK),
        ),
        ("link.wire".to_string(), Id::B(ins::LINK_WIRE)),
        ("ioat.channel".to_string(), Id::B(ins::IOAT_CHANNEL)),
        ("ioat.mem_port".to_string(), Id::B(ins::IOAT_MEM_PORT)),
        ("bh.copy".to_string(), Id::B(ins::BH_COPY)),
        ("ioat.poll_wait".to_string(), Id::B(ins::IOAT_POLL_WAIT)),
    ]);
    v
}

/// One recording: scope, instrument index, which of the kind's two
/// operations (count and a zero count for counters; set and max for
/// gauges; busy and meter for busy instruments), and a value.
type Op = (u32, usize, bool, u64);

fn apply(m: &Metrics, model: &mut Model, insts: &[(String, Id)], &(scope, i, alt, raw): &Op) {
    let (name, id) = &insts[i % insts.len()];
    match *id {
        Id::C(c) => {
            let delta = if alt { 0 } else { raw >> 32 };
            m.count(scope, c, delta);
            model.count(scope, name, delta);
        }
        Id::G(g) => {
            let v = raw as i64;
            if alt {
                m.gauge_set(scope, g, v);
                model.gauges.insert((scope, name.clone()), v);
            } else {
                m.gauge_max(scope, g, v);
                model.gauge_max(scope, name, v);
            }
        }
        Id::B(b) => {
            let t = Ps::ps(raw >> 24);
            if alt {
                m.meter(scope, b, t);
                model.busy(scope, name, t);
                model.count(scope, name, 1);
            } else {
                m.busy(scope, b, t);
                model.busy(scope, name, t);
            }
        }
    }
}

fn assert_reads_agree(m: &Metrics, model: &Model, insts: &[(String, Id)]) {
    for (name, id) in insts {
        for scope in 0..SCOPES {
            let k = (scope, name.clone());
            match *id {
                Id::C(c) => {
                    assert_eq!(
                        m.counter(scope, c),
                        model.counters.get(&k).copied().unwrap_or(0)
                    );
                }
                Id::G(g) => assert_eq!(m.gauge(scope, g), model.gauges.get(&k).copied(), "{name}"),
                Id::B(b) => {
                    let want = model.busy.get(&k).copied().unwrap_or(Ps::ZERO);
                    assert_eq!(m.busy_total(scope, b), want, "{name}");
                    let jobs = model.counters.get(&k).copied().unwrap_or(0);
                    assert_eq!(m.jobs(scope, b), jobs, "{name}");
                }
            }
        }
        match *id {
            Id::C(c) => {
                let want: u64 = (model.counters.iter())
                    .filter(|((_, n), _)| n == name)
                    .map(|(_, v)| *v)
                    .sum();
                assert_eq!(m.counter_all_scopes(c), want, "{name}");
            }
            Id::B(b) => {
                let want = (model.busy.iter())
                    .filter(|((_, n), _)| n == name)
                    .fold(Ps::ZERO, |acc, (_, t)| acc + *t);
                assert_eq!(m.busy_total_all_scopes(b), want, "{name}");
            }
            Id::G(_) => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dense_registry_matches_the_string_keyed_model(
        ops in proptest::collection::vec(
            (0..SCOPES, any::<usize>(), any::<bool>(), any::<u64>()),
            0..400,
        )
    ) {
        let insts = instruments();
        let m = Metrics::new(SCOPES as usize);
        let mut model = Model::default();
        let (first, second) = ops.split_at(ops.len() / 2);
        for op in first {
            apply(&m, &mut model, &insts, op);
        }
        assert_reads_agree(&m, &model, &insts);
        for op in second {
            apply(&m, &mut model, &insts, op);
        }
        assert_reads_agree(&m, &model, &insts);
        let snap = serde_json::to_string(&m.snapshot()).expect("serialize");
        prop_assert_eq!(snap, model.snapshot_json());
    }
}
