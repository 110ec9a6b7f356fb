//! Fault-tolerant model wrapper: transient lookup failures degrade to
//! the analytic estimate instead of failing the allocation.
//!
//! [`ResilientModel`] sits between a strategy and its primary
//! [`AllocationModel`] (typically the empirical database). Under normal
//! operation it is a
//! transparent pass-through. When an injected [`LookupFaults`] predicate
//! declares a lookup transiently failed — simulating a database shard
//! timeout or a dropped RPC — the wrapper answers from its analytic
//! fallback model instead, and counts the event in a `model_fallbacks`
//! counter so the degradation is observable.
//!
//! Two properties matter for the workspace's determinism contract:
//!
//! * **Transparency without faults.** With [`LookupFaults::disabled`]
//!   the wrapper never consults the fallback, never touches the lookup
//!   ordinal, and returns exactly what the primary returns — pinned
//!   results cannot move.
//! * **Determinism with faults.** Which lookups fail is a pure function
//!   of `(seed, lookup ordinal)`. On a single-threaded driver (the
//!   simulator, deterministic replay) the ordinal sequence is itself
//!   deterministic, so the same seed perturbs the same lookups on every
//!   run, with telemetry on or off.
//!
//! Real primary-model errors (a genuine database miss, an infeasible
//! mix) are *not* masked: they pass through unchanged, because hiding
//! them would turn model bugs into silent behavioural drift.

use std::sync::atomic::{AtomicU64, Ordering};

use eavm_faults::LookupFaults;
use eavm_telemetry::Counter;
use eavm_types::{EavmError, Joules, MixVector, Seconds, Watts, WorkloadType};

use crate::model::{AllocationModel, AnalyticModel, MixEstimate};

/// An [`AllocationModel`] that survives injected transient lookup
/// failures by degrading to an analytic fallback.
#[derive(Debug)]
pub struct ResilientModel<M> {
    primary: M,
    fallback: AnalyticModel,
    faults: LookupFaults,
    /// Monotone ordinal of fault-eligible lookups; drives the predicate.
    lookups: AtomicU64,
    fallbacks: Counter,
    stripe: usize,
}

impl<M: AllocationModel> ResilientModel<M> {
    /// A transparent wrapper: no faults are ever injected and the
    /// fallback model is never consulted.
    pub fn transparent(primary: M) -> Self {
        Self::with_faults(primary, LookupFaults::disabled(), Counter::noop(), 0)
    }

    /// Wrap `primary` with an injected fault predicate; every fallback
    /// taken is counted on `fallbacks` stripe `stripe`.
    pub fn with_faults(
        primary: M,
        faults: LookupFaults,
        fallbacks: Counter,
        stripe: usize,
    ) -> Self {
        ResilientModel {
            primary,
            fallback: AnalyticModel::reference(),
            faults,
            lookups: AtomicU64::new(0),
            fallbacks,
            stripe,
        }
    }

    /// The wrapped primary model.
    pub fn inner(&self) -> &M {
        &self.primary
    }

    /// Number of lookups answered by the analytic fallback so far.
    pub fn model_fallbacks(&self) -> u64 {
        self.fallbacks.on_stripe(self.stripe)
    }

    /// Whether the next fault-eligible lookup is injected as failed.
    /// Never advances the ordinal when faults are disabled, so the
    /// transparent configuration is a pure pass-through.
    fn faulted(&self) -> bool {
        if !self.faults.is_enabled() {
            return false;
        }
        let k = self.lookups.fetch_add(1, Ordering::Relaxed);
        if self.faults.fails(k) {
            self.fallbacks.add_on(self.stripe, 1);
            true
        } else {
            false
        }
    }
}

impl<M: AllocationModel> AllocationModel for ResilientModel<M> {
    fn exec_time(&self, mix: MixVector, ty: WorkloadType) -> Result<Seconds, EavmError> {
        if self.faulted() {
            return self.fallback.exec_time(mix, ty);
        }
        self.primary.exec_time(mix, ty)
    }

    fn power(&self, mix: MixVector) -> Result<Watts, EavmError> {
        if self.faulted() {
            return self.fallback.power(mix);
        }
        self.primary.power(mix)
    }

    fn run_energy(&self, mix: MixVector) -> Result<Joules, EavmError> {
        if self.faulted() {
            return self.fallback.run_energy(mix);
        }
        self.primary.run_energy(mix)
    }

    fn estimate_mix(&self, mix: MixVector) -> Result<MixEstimate, EavmError> {
        if self.faulted() {
            return self.fallback.estimate_mix(mix);
        }
        self.primary.estimate_mix(mix)
    }

    // Structural queries are configuration, not lookups: they are never
    // faulted, so feasibility bounds stay stable under injected chaos.
    fn solo_time(&self, ty: WorkloadType) -> Seconds {
        self.primary.solo_time(ty)
    }

    fn max_mix(&self) -> MixVector {
        self.primary.max_mix()
    }

    fn cpu_slots(&self) -> u32 {
        self.primary.cpu_slots()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::DbModel;
    use eavm_benchdb::DbBuilder;

    fn primary() -> DbModel {
        DbModel::new(DbBuilder::exact().build().expect("db"))
    }

    #[test]
    fn transparent_wrapper_matches_the_primary_exactly() {
        let resilient = ResilientModel::transparent(primary());
        let raw = primary();
        for mix in [
            MixVector::new(1, 0, 0),
            MixVector::new(2, 1, 1),
            MixVector::new(0, 3, 2),
        ] {
            assert_eq!(
                resilient.estimate_mix(mix).unwrap(),
                raw.estimate_mix(mix).unwrap()
            );
            assert_eq!(resilient.power(mix).unwrap(), raw.power(mix).unwrap());
        }
        assert_eq!(resilient.max_mix(), raw.max_mix());
        assert_eq!(resilient.cpu_slots(), raw.cpu_slots());
        assert_eq!(resilient.model_fallbacks(), 0);
    }

    #[test]
    fn injected_faults_fall_back_and_are_counted() {
        // Every lookup fails: all answers must come from the analytic
        // model, with one fallback counted per lookup.
        let all_fail = ResilientModel::with_faults(
            primary(),
            LookupFaults::new(1, 1.0),
            Counter::standalone(),
            0,
        );
        let analytic = AnalyticModel::reference();
        let mix = MixVector::new(2, 1, 0);
        assert_eq!(
            all_fail.estimate_mix(mix).unwrap(),
            analytic.estimate_mix(mix).unwrap()
        );
        assert_eq!(all_fail.power(mix).unwrap(), analytic.power(mix).unwrap());
        assert_eq!(all_fail.model_fallbacks(), 2);
    }

    #[test]
    fn fault_sequence_is_deterministic_across_instances() {
        let observe = |_: ()| {
            let m = ResilientModel::with_faults(
                primary(),
                LookupFaults::new(42, 0.5),
                Counter::standalone(),
                0,
            );
            let mix = MixVector::new(1, 1, 1);
            let seq: Vec<f64> = (0..32)
                .map(|_| m.estimate_mix(mix).unwrap().energy.value())
                .collect();
            (seq, m.model_fallbacks())
        };
        let (a, fa) = observe(());
        let (b, fb) = observe(());
        assert_eq!(a, b);
        assert_eq!(fa, fb);
        assert!(
            fa > 0,
            "a 50% rate over 32 lookups must fault at least once"
        );
        assert!(fa < 32, "...and must not fault every time");
    }

    #[test]
    fn structural_queries_are_never_faulted() {
        let all_fail = ResilientModel::with_faults(
            primary(),
            LookupFaults::new(1, 1.0),
            Counter::standalone(),
            0,
        );
        let raw = primary();
        for ty in WorkloadType::ALL {
            assert_eq!(all_fail.solo_time(ty), raw.solo_time(ty));
        }
        assert_eq!(all_fail.max_mix(), raw.max_mix());
        assert_eq!(all_fail.model_fallbacks(), 0);
    }
}
