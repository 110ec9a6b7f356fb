//! The allocation-model abstraction.
//!
//! Everything the allocator and the simulator need to know about a
//! candidate per-server allocation `(Ncpu, Nmem, Nio)` flows through
//! [`AllocationModel`]: projected per-type execution times, average
//! power, and total run energy.
//!
//! Two implementations mirror the paper's methodology split:
//!
//! * [`DbModel`] wraps the empirical CSV database — this is the
//!   *knowledge* the PROACTIVE allocator acts on, noisy meter readings
//!   and all.
//! * [`AnalyticModel`] evaluates the testbed's contention equations
//!   directly — this is the *ground truth* the datacenter simulator
//!   executes, so allocator-model error propagates realistically into
//!   the results.

use std::cell::Cell;

use eavm_benchdb::{Estimate, ModelDatabase};
use eavm_testbed::{ApplicationProfile, BenchmarkSuite, ContentionModel, PowerModel, ServerSpec};
use eavm_types::{EavmError, Joules, MixVector, Seconds, Watts, WorkloadType};

/// A one-shot estimate of a mix: per-type execution times plus total run
/// energy. Strategies that score many candidate mixes use this to avoid
/// repeated lookups.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixEstimate {
    /// Projected execution time per type present in the mix.
    pub per_type_time: [Option<Seconds>; 3],
    /// Estimated total energy of running the mix to completion.
    pub energy: Joules,
}

impl MixEstimate {
    /// Execution time for a type, if present.
    pub fn time_of(&self, ty: WorkloadType) -> Option<Seconds> {
        self.per_type_time[ty.index()]
    }
}

/// Per-server behaviour estimates keyed by the type-mix vector.
pub trait AllocationModel {
    /// Projected full execution time of a VM of `ty` while `mix` (which
    /// must include it) resides on one server.
    fn exec_time(&self, mix: MixVector, ty: WorkloadType) -> Result<Seconds, EavmError>;

    /// Average power drawn by a server hosting `mix` (idle power for the
    /// empty mix).
    fn power(&self, mix: MixVector) -> Result<Watts, EavmError>;

    /// Estimated total energy of running `mix` to completion from scratch
    /// on one server.
    fn run_energy(&self, mix: MixVector) -> Result<Joules, EavmError>;

    /// Solo runtime of one VM of `ty` on an idle server.
    fn solo_time(&self, ty: WorkloadType) -> Seconds;

    /// Largest mix this model considers hostable on one server; the
    /// PROACTIVE allocator never proposes blocks beyond these bounds.
    fn max_mix(&self) -> MixVector;

    /// Physical CPU slots of the modelled server (the count-based
    /// baselines' capacity basis). Defaults to the reference machine's 4.
    fn cpu_slots(&self) -> u32 {
        4
    }

    /// Per-VM slowdown of `ty` under `mix` relative to its solo runtime.
    fn slowdown(&self, mix: MixVector, ty: WorkloadType) -> Result<f64, EavmError> {
        Ok(self.exec_time(mix, ty)? / self.solo_time(ty))
    }

    /// Estimate every per-type time and the run energy of a mix at once.
    /// The default composes the fine-grained methods; implementations
    /// with a natural one-shot lookup (the database) override it.
    fn estimate_mix(&self, mix: MixVector) -> Result<MixEstimate, EavmError> {
        let mut per_type_time = [None; 3];
        for ty in WorkloadType::ALL {
            if mix[ty] > 0 {
                per_type_time[ty.index()] = Some(self.exec_time(mix, ty)?);
            }
        }
        Ok(MixEstimate {
            per_type_time,
            energy: self.run_energy(mix)?,
        })
    }
}

/// The empirical model: lookups (and bounded extrapolation) against the
/// benchmarked database.
///
/// Every mix inside the hostable bounds is answered from a dense table
/// built once in [`DbModel::new`]; each entry is
/// [`ModelDatabase::estimate`] of its mix, so the database stays the
/// single source of truth and an in-box query costs index arithmetic
/// plus a load. Mixes outside the bounds, and in-box mixes the database
/// cannot estimate (the empty mix), go to the database directly.
///
/// The model counts its table hits and database misses in plain cells
/// (no atomics, no hashing); [`DbModel::take_lookup_counts`] drains
/// them. The cells make the model `Send` but not `Sync`: each thread
/// owns its own copy.
#[derive(Debug, Clone)]
pub struct DbModel {
    db: ModelDatabase,
    /// `table[slot(mix)]` is the database's estimate of `mix` over
    /// `MixVector::space(os_bounds)`; empty when the space exceeds
    /// [`DbModel::MAX_TABLE_LEN`].
    table: Vec<Option<MixEstimate>>,
    /// Lookups answered from the table since the last drain.
    hits: Cell<u64>,
    /// Lookups that went to the database since the last drain.
    misses: Cell<u64>,
}

impl DbModel {
    /// Largest bounds space tabulated (the paper's is 440 mixes); a
    /// database with larger bounds answers every query by search.
    const MAX_TABLE_LEN: usize = 1 << 16;

    /// Wrap a built database, tabulating its in-box estimates.
    pub fn new(db: ModelDatabase) -> Self {
        let bounds = db.aux().os_bounds;
        let len = [bounds.cpu, bounds.mem, bounds.io]
            .iter()
            .try_fold(1usize, |n, &b| n.checked_mul(b as usize + 1));
        let table = match len {
            Some(len) if len <= Self::MAX_TABLE_LEN => MixVector::space(bounds)
                .map(|mix| db.estimate(mix).ok().map(MixEstimate::from))
                .collect(),
            _ => Vec::new(),
        };
        DbModel {
            db,
            table,
            hits: Cell::new(0),
            misses: Cell::new(0),
        }
    }

    /// Access the underlying database.
    pub fn database(&self) -> &ModelDatabase {
        &self.db
    }

    /// Entries in the lookup table (0 when the bounds were too large to
    /// tabulate).
    pub fn table_len(&self) -> usize {
        self.table.len()
    }

    /// `(hits, misses)` of the `estimate_mix`/`exec_time`/`run_energy`
    /// lookups since the previous call, which resets both: hits were
    /// answered by the table, misses went to the database.
    pub fn take_lookup_counts(&self) -> (u64, u64) {
        (self.hits.take(), self.misses.take())
    }

    /// Position of an in-box mix in the table, in `MixVector::space`
    /// order.
    #[inline]
    fn slot(&self, mix: MixVector) -> Option<usize> {
        let b = self.db.aux().os_bounds;
        if !mix.fits_within(&b) {
            return None;
        }
        Some(
            ((mix.cpu as usize * (b.mem as usize + 1) + mix.mem as usize) * (b.io as usize + 1))
                + mix.io as usize,
        )
    }

    /// The database's estimate of `mix`, from the table when tabulated.
    #[inline]
    fn lookup(&self, mix: MixVector) -> Result<MixEstimate, EavmError> {
        if let Some(Some(est)) = self.slot(mix).and_then(|i| self.table.get(i)) {
            self.hits.set(self.hits.get() + 1);
            return Ok(*est);
        }
        self.misses.set(self.misses.get() + 1);
        self.db.estimate(mix).map(MixEstimate::from)
    }
}

impl From<Estimate> for MixEstimate {
    fn from(est: Estimate) -> Self {
        MixEstimate {
            per_type_time: est.per_type_time,
            energy: est.energy,
        }
    }
}

impl AllocationModel for DbModel {
    fn exec_time(&self, mix: MixVector, ty: WorkloadType) -> Result<Seconds, EavmError> {
        let est = self.lookup(mix)?;
        est.time_of(ty)
            .ok_or_else(|| EavmError::ModelMiss(format!("type {ty} absent from mix {mix}")))
    }

    fn estimate_mix(&self, mix: MixVector) -> Result<MixEstimate, EavmError> {
        self.lookup(mix)
    }

    fn power(&self, mix: MixVector) -> Result<Watts, EavmError> {
        if mix.is_empty() {
            // The database has no empty register; idle power is a known
            // constant of the platform (125 W, Sect. IV-A).
            return Ok(Watts(125.0));
        }
        Ok(self.db.estimate(mix)?.avg_power())
    }

    fn run_energy(&self, mix: MixVector) -> Result<Joules, EavmError> {
        if mix.is_empty() {
            return Ok(Joules::ZERO);
        }
        Ok(self.lookup(mix)?.energy)
    }

    fn solo_time(&self, ty: WorkloadType) -> Seconds {
        self.db.aux().solo_time(ty)
    }

    fn max_mix(&self) -> MixVector {
        self.db.aux().os_bounds
    }
}

/// The analytic ground-truth model: evaluates the contention equations of
/// the testbed for a mix held constant for the whole run.
#[derive(Debug, Clone)]
pub struct AnalyticModel {
    server: ServerSpec,
    contention: ContentionModel,
    representatives: [ApplicationProfile; 3],
    max_mix: MixVector,
}

impl AnalyticModel {
    /// Build from explicit parts. `max_mix` bounds what the model deems
    /// hostable (used for allocator feasibility, not simulation).
    pub fn new(
        server: ServerSpec,
        contention: ContentionModel,
        suite: &BenchmarkSuite,
        max_mix: MixVector,
    ) -> Self {
        AnalyticModel {
            server,
            contention,
            representatives: WorkloadType::ALL.map(|ty| suite.representative(ty).clone()),
            max_mix,
        }
    }

    /// The reference testbed with the standard suite; the hostable bound
    /// defaults to 16 VMs of any type (the base-test depth).
    pub fn reference() -> Self {
        Self::new(
            ServerSpec::reference_rack_server(),
            ContentionModel::default(),
            &BenchmarkSuite::standard(),
            MixVector::new(16, 16, 16),
        )
    }

    /// The server spec backing this model.
    pub fn server(&self) -> &ServerSpec {
        &self.server
    }

    fn vms_of(&self, mix: MixVector) -> Vec<&ApplicationProfile> {
        let mut vms = Vec::with_capacity(mix.total() as usize);
        for ty in WorkloadType::ALL {
            for _ in 0..mix[ty] {
                vms.push(&self.representatives[ty.index()]);
            }
        }
        vms
    }

    fn index_of_first(&self, mix: MixVector, ty: WorkloadType) -> Option<usize> {
        if mix[ty] == 0 {
            return None;
        }
        // vms_of lays types out in canonical order.
        let mut offset = 0usize;
        for t in WorkloadType::ALL {
            if t == ty {
                return Some(offset);
            }
            offset += mix[t] as usize;
        }
        None
    }
}

impl AllocationModel for AnalyticModel {
    fn exec_time(&self, mix: MixVector, ty: WorkloadType) -> Result<Seconds, EavmError> {
        let i = self
            .index_of_first(mix, ty)
            .ok_or_else(|| EavmError::ModelMiss(format!("type {ty} absent from mix {mix}")))?;
        let vms = self.vms_of(mix);
        Ok(self.contention.projected_time(&self.server, &vms, i))
    }

    fn power(&self, mix: MixVector) -> Result<Watts, EavmError> {
        let vms = self.vms_of(mix);
        Ok(PowerModel::power_with_vms(&self.server, &vms))
    }

    fn run_energy(&self, mix: MixVector) -> Result<Joules, EavmError> {
        if mix.is_empty() {
            return Ok(Joules::ZERO);
        }
        // Approximate the run as the mix held to the longest VM's finish;
        // the piecewise integrator in eavm-testbed refines this, but the
        // allocator only needs a consistent comparator.
        let vms = self.vms_of(mix);
        let longest = WorkloadType::ALL
            .into_iter()
            .filter(|&ty| mix[ty] > 0)
            .map(|ty| self.exec_time(mix, ty).expect("type present"))
            .fold(Seconds::ZERO, Seconds::max);
        let p = PowerModel::power_with_vms(&self.server, &vms);
        Ok(p * longest)
    }

    fn solo_time(&self, ty: WorkloadType) -> Seconds {
        self.representatives[ty.index()].base_runtime
    }

    fn max_mix(&self) -> MixVector {
        self.max_mix
    }

    fn cpu_slots(&self) -> u32 {
        self.server.cpu_slots()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eavm_benchdb::DbBuilder;

    fn db_model() -> DbModel {
        DbModel::new(
            DbBuilder {
                max_base_vms: 6,
                meter_seed: None,
                ..Default::default()
            }
            .build()
            .unwrap(),
        )
    }

    #[test]
    fn db_model_solo_exec_time_matches_base_runtime() {
        let m = db_model();
        for ty in WorkloadType::ALL {
            let t = m.exec_time(MixVector::single(ty, 1), ty).unwrap();
            assert!(
                (t.value() - m.solo_time(ty).value()).abs() / t.value() < 1e-6,
                "{ty}: {t} vs {}",
                m.solo_time(ty)
            );
            assert!((m.slowdown(MixVector::single(ty, 1), ty).unwrap() - 1.0).abs() < 1e-6);
        }
    }

    /// A lookup outcome reduced to bits, so `-0.0`/`0.0` or NaN
    /// payloads cannot hide a difference.
    fn outcome_bits(r: Result<MixEstimate, EavmError>) -> Result<([Option<u64>; 3], u64), String> {
        r.map(|est| {
            (
                est.per_type_time.map(|t| t.map(|t| t.value().to_bits())),
                est.energy.value().to_bits(),
            )
        })
        .map_err(|e| format!("{e:?}"))
    }

    #[test]
    fn table_answers_match_the_database_bit_for_bit() {
        for builder in [DbBuilder::exact(), DbBuilder::default()] {
            let m = DbModel::new(builder.build().unwrap());
            let bounds = m.max_mix();
            let space = MixVector::space(bounds).count();
            assert_eq!(m.table.len(), space, "the whole bounds box is tabulated");
            for mix in MixVector::space(bounds) {
                let direct = m.database().estimate(mix).map(MixEstimate::from);
                assert_eq!(
                    outcome_bits(m.estimate_mix(mix)),
                    outcome_bits(direct),
                    "{mix}"
                );
            }
            // The empty mix's error comes from the database itself.
            assert!(m.table[0].is_none());
            assert!(m.estimate_mix(MixVector::EMPTY).is_err());
            // Out-of-box queries go straight to the database.
            for mix in [
                MixVector::single(WorkloadType::Cpu, bounds.cpu + 5),
                MixVector::new(bounds.cpu + 1, 1, 0),
                MixVector::new(bounds.cpu, bounds.mem, bounds.io + 1),
            ] {
                let direct = m.database().estimate(mix).map(MixEstimate::from);
                assert_eq!(outcome_bits(m.estimate_mix(mix)), outcome_bits(direct));
            }
        }
    }

    #[test]
    fn lookup_counts_split_table_hits_from_database_misses() {
        let m = db_model();
        let bounds = m.max_mix();
        m.estimate_mix(MixVector::new(2, 1, 0)).unwrap();
        m.exec_time(MixVector::new(1, 0, 0), WorkloadType::Cpu)
            .unwrap();
        m.run_energy(MixVector::new(0, 1, 1)).unwrap();
        // The empty mix has no table entry; out-of-box mixes have no slot.
        assert!(m.estimate_mix(MixVector::EMPTY).is_err());
        m.estimate_mix(MixVector::new(bounds.cpu + 1, 0, 0)).ok();
        // Neither path counts: idle energy is a constant, power is not a
        // table lookup.
        m.run_energy(MixVector::EMPTY).unwrap();
        m.power(MixVector::new(1, 0, 0)).unwrap();
        assert_eq!(m.take_lookup_counts(), (3, 2));
        assert_eq!(m.take_lookup_counts(), (0, 0), "taking resets");
        assert_eq!(m.table_len(), MixVector::space(bounds).count());
    }

    #[test]
    fn db_model_empty_mix_power_is_idle() {
        let m = db_model();
        assert_eq!(m.power(MixVector::EMPTY).unwrap(), Watts(125.0));
        assert_eq!(m.run_energy(MixVector::EMPTY).unwrap(), Joules::ZERO);
    }

    #[test]
    fn analytic_and_db_models_agree_on_solo_times() {
        let a = AnalyticModel::reference();
        let d = db_model();
        for ty in WorkloadType::ALL {
            assert_eq!(a.solo_time(ty), d.solo_time(ty));
        }
    }

    #[test]
    fn analytic_model_exec_time_matches_contention_projection() {
        let a = AnalyticModel::reference();
        let mix = MixVector::new(2, 1, 1);
        for ty in WorkloadType::ALL {
            let t = a.exec_time(mix, ty).unwrap();
            assert!(t > a.solo_time(ty), "contention must stretch {ty}");
        }
        assert!(a
            .exec_time(MixVector::new(2, 0, 0), WorkloadType::Io)
            .is_err());
    }

    #[test]
    fn models_agree_within_tolerance_inside_the_grid() {
        // The database was *built* from the analytic model; inside the
        // grid the two must agree closely (exactly, without meter noise,
        // up to the held-mix vs piecewise-run difference).
        let a = AnalyticModel::reference();
        let d = db_model();
        for mix in [
            MixVector::new(2, 1, 0),
            MixVector::new(1, 1, 1),
            MixVector::new(3, 0, 2),
        ] {
            for ty in WorkloadType::ALL {
                if mix[ty] == 0 {
                    continue;
                }
                let ta = a.exec_time(mix, ty).unwrap().value();
                let td = d.exec_time(mix, ty).unwrap().value();
                let rel = (ta - td).abs() / ta;
                assert!(rel < 0.15, "{mix}/{ty}: analytic {ta} vs db {td}");
            }
        }
    }

    #[test]
    fn power_grows_with_mix_size_in_both_models() {
        let a = AnalyticModel::reference();
        let d = db_model();
        let small = MixVector::new(1, 0, 0);
        let big = MixVector::new(3, 1, 1);
        assert!(a.power(big).unwrap() > a.power(small).unwrap());
        assert!(d.power(big).unwrap() > Watts(125.0));
    }

    #[test]
    fn max_mix_bounds_are_exposed() {
        let d = db_model();
        assert_eq!(d.max_mix(), d.database().aux().os_bounds);
        let a = AnalyticModel::reference();
        assert_eq!(a.max_mix(), MixVector::new(16, 16, 16));
    }

    #[test]
    fn run_energy_scales_with_load() {
        let a = AnalyticModel::reference();
        let e1 = a.run_energy(MixVector::new(1, 0, 0)).unwrap();
        let e4 = a.run_energy(MixVector::new(4, 0, 0)).unwrap();
        assert!(e4 > e1);
        // But consolidation amortizes: energy per VM shrinks.
        assert!(e4.value() / 4.0 < e1.value());
    }
}
