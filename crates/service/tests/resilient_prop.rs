//! Property: the resilience layer and the model table compose without
//! contaminating each other. In the service's model stack
//! (`ResilientModel<DbModel>`) an injected transient lookup failure is
//! answered by the analytic fallback *before* the table is ever
//! consulted — so the table's lookup counts see exactly the clean
//! lookups, every clean answer is the database's, and
//! `model_fallbacks` counts exactly the degraded answers, no more, no
//! less.

use std::sync::OnceLock;

use eavm_benchdb::{DbBuilder, ModelDatabase};
use eavm_core::{AllocationModel, AnalyticModel, DbModel, ResilientModel};
use eavm_faults::LookupFaults;
use eavm_telemetry::Counter;
use eavm_types::MixVector;
use proptest::prelude::*;

fn db() -> &'static ModelDatabase {
    static DB: OnceLock<ModelDatabase> = OnceLock::new();
    DB.get_or_init(|| DbBuilder::exact().build().expect("db"))
}

/// Small covered mixes the empirical database can answer for.
fn mix_pool() -> &'static Vec<MixVector> {
    static POOL: OnceLock<Vec<MixVector>> = OnceLock::new();
    POOL.get_or_init(|| {
        let mut pool = Vec::new();
        for c in 0..=2u32 {
            for m in 0..=2u32 {
                for i in 0..=2u32 {
                    let mix = MixVector::new(c, m, i);
                    if !mix.is_empty() && db().covers(mix) {
                        pool.push(mix);
                    }
                }
            }
        }
        pool
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn faulted_lookups_bypass_the_model_table(
        seed in 1u64..u64::MAX,
        rate in 0.0f64..=1.0,
        picks in proptest::collection::vec(0usize..64, 1..80),
    ) {
        let pool = mix_pool();
        let faults = LookupFaults::new(seed, rate);
        let stack = ResilientModel::with_faults(
            DbModel::new(db().clone()),
            faults,
            Counter::standalone(),
            0,
        );
        let primary = DbModel::new(db().clone());
        let analytic = AnalyticModel::reference();

        let mut ordinal = 0u64;
        let mut degraded = 0u64;
        let mut clean = 0u64;
        // Not `enumerate()`: the ordinal advances only when faults are
        // enabled, exactly like the wrapper's internal counter.
        #[allow(clippy::explicit_counter_loop)]
        for pick in &picks {
            let mix = pool[pick % pool.len()];
            // Mirror the wrapper's fault predicate: one fault-eligible
            // lookup per estimate, pure in (seed, ordinal).
            let faulted = faults.is_enabled() && {
                let k = ordinal;
                ordinal += 1;
                faults.fails(k)
            };
            let got = stack.estimate_mix(mix).expect("estimate");
            if faulted {
                degraded += 1;
                prop_assert_eq!(got, analytic.estimate_mix(mix).expect("analytic"),
                    "a faulted lookup must be answered by the analytic fallback");
            } else {
                clean += 1;
                prop_assert_eq!(got, primary.estimate_mix(mix).expect("primary"),
                    "an unfaulted lookup must be answered by the primary");
            }
        }

        // Exactly the degraded answers are counted as fallbacks.
        prop_assert_eq!(stack.model_fallbacks(), degraded);

        // The table saw exactly the clean lookups, every faulted one
        // bypassed it, and each pool mix is in the table.
        let (hits, misses) = stack.inner().take_lookup_counts();
        prop_assert_eq!(hits, clean);
        prop_assert_eq!(misses, 0);
    }
}
