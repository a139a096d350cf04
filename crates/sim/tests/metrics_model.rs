//! The dense metrics registry against a reference model of the
//! string-keyed registry it replaced: a `BTreeMap` keyed by
//! `(scope, name)`. Random sequences of busy recordings, scopes outside
//! the registry included, go to both, and every read must agree.

use omx_sim::instruments::{self as ins, Busy, NAMES};
use omx_sim::{Metrics, Ps};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Scopes the registry holds; recordings also go to one scope past it.
const SCOPES: u32 = 3;

/// Every instrument, in slot order (the order of [`NAMES`]).
const IDS: [Busy; 6] = [
    ins::LINK_WIRE,
    ins::BH_COPY,
    ins::SHM_COPY,
    ins::IOAT_CHANNEL,
    ins::IOAT_SUBMIT_CPU,
    ins::IOAT_POLL_WAIT,
];

/// The replaced registry's semantics: only scopes it was built for
/// record.
#[derive(Default)]
struct Model {
    busy: BTreeMap<(u32, &'static str), Ps>,
}

impl Model {
    fn busy(&mut self, scope: u32, name: &'static str, t: Ps) {
        if scope < SCOPES {
            *self.busy.entry((scope, name)).or_insert(Ps::ZERO) += t;
        }
    }
}

/// One recording: scope, instrument index and a service time.
type Op = (u32, usize, u64);

fn apply(m: &Metrics, model: &mut Model, &(scope, i, raw): &Op) {
    let k = i % IDS.len();
    let t = Ps::ps(raw >> 24);
    m.busy(scope, IDS[k], t);
    model.busy(scope, NAMES[k], t);
}

fn assert_reads_agree(m: &Metrics, model: &Model) {
    for (&id, &name) in IDS.iter().zip(NAMES) {
        for scope in 0..=SCOPES {
            let want = model.busy.get(&(scope, name)).copied();
            assert_eq!(m.busy_total(scope, id), want.unwrap_or(Ps::ZERO), "{name}");
        }
        let want = (model.busy.iter())
            .filter(|((_, n), _)| *n == name)
            .fold(Ps::ZERO, |acc, (_, t)| acc + *t);
        assert_eq!(m.busy_total_all_scopes(id), want, "{name}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dense_registry_matches_the_string_keyed_model(
        ops in proptest::collection::vec(
            (0..SCOPES + 1, any::<usize>(), any::<u64>()),
            0..400,
        )
    ) {
        let m = Metrics::new(SCOPES as usize);
        let mut model = Model::default();
        let (first, second) = ops.split_at(ops.len() / 2);
        for op in first {
            apply(&m, &mut model, op);
        }
        assert_reads_agree(&m, &model);
        for op in second {
            apply(&m, &mut model, op);
        }
        assert_reads_agree(&m, &model);
    }
}
