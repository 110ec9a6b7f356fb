//! Parity of the PROACTIVE search over `DbModel`'s tabulated lookups
//! with the same search over plain database queries.
//!
//! `SearchModel` answers every query through `ModelDatabase::estimate`
//! (binary search plus extrapolation), the way `DbModel` did before it
//! tabulated the in-box mixes. Over random fleets and requests, every
//! goal, and QoS on and off, `explain` must give identical candidates:
//! same blocks, placements, energies, times, scores and choice.

use std::sync::OnceLock;

use eavm_benchdb::{DbBuilder, ModelDatabase};
use eavm_core::strategy::{RequestView, ServerView};
use eavm_core::{AllocationModel, DbModel, MixEstimate, OptimizationGoal, Proactive};
use eavm_types::{EavmError, JobId, Joules, MixVector, Seconds, ServerId, Watts, WorkloadType};
use proptest::prelude::*;

/// Every answer straight from the database, no table.
struct SearchModel(ModelDatabase);

impl AllocationModel for SearchModel {
    fn exec_time(&self, mix: MixVector, ty: WorkloadType) -> Result<Seconds, EavmError> {
        self.0
            .estimate(mix)?
            .time_of(ty)
            .ok_or_else(|| EavmError::ModelMiss(format!("type {ty} absent from mix {mix}")))
    }

    fn estimate_mix(&self, mix: MixVector) -> Result<MixEstimate, EavmError> {
        let est = self.0.estimate(mix)?;
        Ok(MixEstimate {
            per_type_time: est.per_type_time,
            energy: est.energy,
        })
    }

    fn power(&self, mix: MixVector) -> Result<Watts, EavmError> {
        if mix.is_empty() {
            return Ok(Watts(125.0));
        }
        Ok(self.0.estimate(mix)?.avg_power())
    }

    fn run_energy(&self, mix: MixVector) -> Result<Joules, EavmError> {
        if mix.is_empty() {
            return Ok(Joules::ZERO);
        }
        Ok(self.0.estimate(mix)?.energy)
    }

    fn solo_time(&self, ty: WorkloadType) -> Seconds {
        self.0.aux().solo_time(ty)
    }

    fn max_mix(&self) -> MixVector {
        self.0.aux().os_bounds
    }
}

/// The paper's database, meter noise included, built once.
fn database() -> &'static ModelDatabase {
    static DB: OnceLock<ModelDatabase> = OnceLock::new();
    DB.get_or_init(|| DbBuilder::default().build().expect("database builds"))
}

const DEADLINES: [Seconds; 3] = [Seconds(4800.0), Seconds(4000.0), Seconds(3600.0)];

/// A server's resident mix, drawn from a 0..=3 kind and three raw
/// counts: empty, partly full (inside the bounds), full (at the bound
/// of one type plus whatever else fits), or past the bounds (answered
/// by extrapolation).
fn resident_mix(kind: u32, raw: (u32, u32, u32), bounds: MixVector) -> MixVector {
    let part = MixVector::new(
        raw.0 % (bounds.cpu + 1),
        raw.1 % (bounds.mem + 1),
        raw.2 % (bounds.io + 1),
    );
    match kind {
        0 => MixVector::EMPTY,
        1 => part,
        2 => match raw.0 % 3 {
            0 => MixVector::new(bounds.cpu, part.mem, part.io),
            1 => MixVector::new(part.cpu, bounds.mem, part.io),
            _ => MixVector::new(part.cpu, part.mem, bounds.io),
        },
        _ => MixVector::new(bounds.cpu + 1 + raw.0 % 3, part.mem, 0),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tabulated_search_matches_database_search(
        fleet in proptest::collection::vec((0u32..=3, (0u32..64, 0u32..64, 0u32..64)), 0..9),
        ty in 0usize..3,
        vms in 1u32..=6,
        margin in 0.5f64..=1.0,
    ) {
        let db = database();
        let bounds = db.aux().os_bounds;
        let servers: Vec<ServerView> = fleet
            .iter()
            .enumerate()
            .map(|(i, &(kind, raw))| {
                ServerView::homogeneous(ServerId::new(i as u32), resident_mix(kind, raw, bounds))
            })
            .collect();
        let workload = WorkloadType::ALL[ty];
        let request = RequestView {
            id: JobId::new(1),
            workload,
            vm_count: vms,
            deadline: DEADLINES[ty],
        };
        for goal in [
            OptimizationGoal::PERFORMANCE,
            OptimizationGoal::BALANCED,
            OptimizationGoal::ENERGY,
        ] {
            for qos in [true, false] {
                let tabulated = Proactive::new(DbModel::new(db.clone()), goal, DEADLINES)
                    .with_qos_enforcement(qos)
                    .with_qos_margin(margin);
                let searched = Proactive::new(SearchModel(db.clone()), goal, DEADLINES)
                    .with_qos_enforcement(qos)
                    .with_qos_margin(margin);
                let a = tabulated.explain(&request, &servers).map_err(|e| format!("{e:?}"));
                let b = searched.explain(&request, &servers).map_err(|e| format!("{e:?}"));
                prop_assert_eq!(&a, &b, "{} qos={} on {:?}", goal.label(), qos, servers);
                // `==` on f64 cannot tell 0.0 from -0.0: compare bits too.
                let bits = |r: &Result<Vec<eavm_core::PartitionCandidate>, String>| {
                    r.iter()
                        .flatten()
                        .map(|c| (c.energy.value().to_bits(), c.time.value().to_bits(), c.score.to_bits()))
                        .collect::<Vec<_>>()
                };
                prop_assert_eq!(bits(&a), bits(&b));
            }
        }
    }
}
