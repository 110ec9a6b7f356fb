//! Parity tests of the PROACTIVE search.
//!
//! * Over `DbModel`'s tabulated lookups and over plain database
//!   queries: `SearchModel` answers every query through
//!   `ModelDatabase::estimate` (binary search plus extrapolation), the
//!   way `DbModel` did before it tabulated the in-box mixes.
//! * Against `oracle`, the search as it was before it grouped servers
//!   into classes: it scores every candidate server of every block with
//!   its own lookup, in list order. The class scan must reproduce it
//!   bit for bit, counters included.
//!
//! Over random fleets and requests, every goal, and QoS on and off,
//! `explain` must give identical candidates: same blocks, placements,
//! energies, times, scores and choice.

use std::sync::OnceLock;

use eavm_benchdb::{DbBuilder, ModelDatabase};
use eavm_core::strategy::{Placement, RequestView, ServerView};
use eavm_core::{
    AllocationModel, AllocationStrategy, DbModel, MixEstimate, OptimizationGoal,
    PartitionCandidate, Proactive, SearchMetrics,
};
use eavm_telemetry::Counter;
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
                prop_assert_eq!(bits(&a), bits(&b));
            }
        }
    }
}

/// `==` on f64 cannot tell 0.0 from -0.0: compare bits too.
fn bits(r: &Result<Vec<PartitionCandidate>, String>) -> Vec<(u64, u64, u64)> {
    r.iter()
        .flatten()
        .map(|c| {
            (
                c.energy.value().to_bits(),
                c.time.value().to_bits(),
                c.score.to_bits(),
            )
        })
        .collect()
}

/// The per-server search, kept as the reference the class scan must
/// reproduce. Built on the public API only.
mod oracle {
    use super::*;
    use eavm_partitions::for_each_multiset_partition;

    /// What one search counts.
    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    pub struct Counts {
        pub evaluated: u64,
        pub feasible: u64,
        pub pruned: u64,
    }

    pub struct Oracle<'a, M> {
        pub models: &'a [M],
        pub goal: OptimizationGoal,
        pub deadlines: [Seconds; 3],
        pub enforce_qos: bool,
        pub qos_margin: f64,
    }

    struct Candidate {
        placements: Vec<Placement>,
        energy: Joules,
        time: Seconds,
    }

    impl<M: AllocationModel> Oracle<'_, M> {
        fn model_for(&self, platform: u32) -> &M {
            self.models
                .get(platform as usize)
                .unwrap_or(&self.models[0])
        }

        fn feasible(&self, mix: MixVector, platform: u32) -> Option<MixEstimate> {
            let model = self.model_for(platform);
            if !mix.fits_within(&model.max_mix()) {
                return None;
            }
            let est = model.estimate_mix(mix).ok()?;
            let within_qos = !self.enforce_qos
                || WorkloadType::ALL
                    .into_iter()
                    .all(|ty| match est.time_of(ty) {
                        Some(t) => t <= self.deadlines[ty.index()] * self.qos_margin,
                        None => true,
                    });
            within_qos.then_some(est)
        }

        fn place_partition(
            &self,
            blocks: &[MixVector],
            servers: &[ServerView],
            resident: &[Option<Joules>],
            pruned: &mut u64,
        ) -> Option<Candidate> {
            let mut mixes: Vec<MixVector> = servers.iter().map(|s| s.mix).collect();
            let mut energies = resident.to_vec();
            let mut adds = vec![MixVector::EMPTY; servers.len()];
            let mut energy = Joules::ZERO;
            let mut time = Seconds::ZERO;
            for block in blocks {
                let mut best: Option<(usize, Joules, Seconds, Joules)> = None;
                let mut candidates = Vec::new();
                let mut empty_seen: Vec<u32> = Vec::new();
                for (i, m) in mixes.iter().enumerate() {
                    if m.is_empty() {
                        let platform = servers[i].platform;
                        if !empty_seen.contains(&platform) {
                            candidates.push(i);
                            empty_seen.push(platform);
                        }
                    } else {
                        candidates.push(i);
                    }
                }
                for i in candidates {
                    let Some(new_est) = self.feasible(mixes[i] + *block, servers[i].platform)
                    else {
                        *pruned += 1;
                        continue;
                    };
                    let Some(old_energy) = energies[i] else {
                        continue;
                    };
                    let d_energy = (new_est.energy - old_energy).max(Joules::ZERO);
                    let block_time = WorkloadType::ALL
                        .into_iter()
                        .filter(|&ty| block[ty] > 0)
                        .filter_map(|ty| new_est.time_of(ty))
                        .fold(Seconds::ZERO, Seconds::max);
                    let better = match &best {
                        None => true,
                        Some((_, be, bt, _)) => {
                            let e_norm = d_energy.value() / be.value().max(f64::MIN_POSITIVE);
                            let t_norm = block_time.value() / bt.value().max(f64::MIN_POSITIVE);
                            self.goal.score(e_norm, t_norm) < 1.0 - 1e-12
                        }
                    };
                    if better {
                        best = Some((i, d_energy, block_time, new_est.energy));
                    }
                }
                let (i, d_energy, block_time, new_energy) = best?;
                mixes[i] += *block;
                adds[i] += *block;
                energies[i] = Some(new_energy);
                energy += d_energy;
                time = time.max(block_time);
            }
            let placements = servers
                .iter()
                .zip(&adds)
                .filter(|(_, add)| !add.is_empty())
                .map(|(s, add)| Placement {
                    server: s.id,
                    add: *add,
                })
                .collect();
            Some(Candidate {
                placements,
                energy,
                time,
            })
        }

        pub fn explain(
            &self,
            request: &RequestView,
            servers: &[ServerView],
        ) -> (Result<Vec<PartitionCandidate>, String>, Counts) {
            let mix = request.mix();
            let counts = [mix.cpu, mix.mem, mix.io];
            let max_block = WorkloadType::ALL
                .into_iter()
                .filter(|&ty| mix[ty] > 0)
                .map(|ty| {
                    self.models
                        .iter()
                        .map(|m| m.max_mix()[ty])
                        .max()
                        .unwrap_or(0)
                })
                .min()
                .unwrap_or(0);
            if max_block == 0 {
                let e = EavmError::Infeasible(format!(
                    "request {} has a type the model cannot host",
                    request.id
                ));
                return (Err(format!("{e:?}")), Counts::default());
            }
            let resident: Vec<Option<Joules>> = servers
                .iter()
                .map(|s| {
                    if s.mix.is_empty() {
                        Some(Joules::ZERO)
                    } else {
                        let model = self.model_for(s.platform);
                        model.estimate_mix(s.mix).ok().map(|est| est.energy)
                    }
                })
                .collect();
            let mut min_energy = f64::INFINITY;
            let mut min_time = f64::INFINITY;
            let mut scored: Vec<(Vec<MixVector>, Candidate)> = Vec::new();
            let mut pruned = 0u64;
            let evaluated = for_each_multiset_partition(&counts, max_block, 4_096, |flat| {
                let blocks: Vec<MixVector> = flat
                    .chunks_exact(3)
                    .map(|b| MixVector::new(b[0], b[1], b[2]))
                    .collect();
                if let Some(c) = self.place_partition(&blocks, servers, &resident, &mut pruned) {
                    min_energy = min_energy.min(c.energy.value());
                    min_time = min_time.min(c.time.value());
                    scored.push((blocks, c));
                }
            }) as u64;
            let counts = Counts {
                evaluated,
                feasible: scored.len() as u64,
                pruned,
            };
            let mut out = Vec::new();
            let mut best: Option<(f64, usize)> = None;
            for (i, (blocks, c)) in scored.into_iter().enumerate() {
                let e_norm = if min_energy > 0.0 {
                    c.energy.value() / min_energy
                } else {
                    1.0
                };
                let t_norm = if min_time > 0.0 {
                    c.time.value() / min_time
                } else {
                    1.0
                };
                let score = self.goal.score(e_norm, t_norm);
                if best.is_none_or(|(s, _)| score < s - 1e-12) {
                    best = Some((score, i));
                }
                out.push(PartitionCandidate {
                    blocks,
                    placements: c.placements,
                    energy: c.energy,
                    time: c.time,
                    score,
                    chosen: false,
                });
            }
            if let Some((_, i)) = best {
                out[i].chosen = true;
            }
            (Ok(out), counts)
        }
    }
}

/// A database-backed model with knobs for the search's corner cases.
#[derive(Debug, Clone)]
struct TestModel {
    db: DbModel,
    bounds: MixVector,
    /// Lookups of mixes whose `cpu + 2·mem + 3·io` is a multiple of this
    /// fail (0: none do), so some servers have no resident energy and
    /// some candidates no estimate.
    fail_every: u32,
    /// Every mix costs the same energy, so every delta is zero.
    flat: bool,
    energy_scale: f64,
}

impl TestModel {
    fn plain(bounds: MixVector) -> Self {
        TestModel {
            db: DbModel::new(database().clone()),
            bounds,
            fail_every: 0,
            flat: false,
            energy_scale: 1.0,
        }
    }
}

impl AllocationModel for TestModel {
    fn exec_time(&self, mix: MixVector, ty: WorkloadType) -> Result<Seconds, EavmError> {
        self.estimate_mix(mix)?
            .time_of(ty)
            .ok_or_else(|| EavmError::ModelMiss(format!("type {ty} absent from mix {mix}")))
    }

    fn estimate_mix(&self, mix: MixVector) -> Result<MixEstimate, EavmError> {
        if self.fail_every > 0
            && (mix.cpu + 2 * mix.mem + 3 * mix.io).is_multiple_of(self.fail_every)
        {
            return Err(EavmError::ModelMiss(format!("no estimate for {mix}")));
        }
        let mut est = self.db.estimate_mix(mix)?;
        est.energy = if self.flat {
            Joules(500_000.0)
        } else {
            est.energy * self.energy_scale
        };
        Ok(est)
    }

    fn power(&self, mix: MixVector) -> Result<Watts, EavmError> {
        self.db.power(mix)
    }

    fn run_energy(&self, mix: MixVector) -> Result<Joules, EavmError> {
        Ok(self.estimate_mix(mix)?.energy)
    }

    fn solo_time(&self, ty: WorkloadType) -> Seconds {
        self.db.solo_time(ty)
    }

    fn max_mix(&self) -> MixVector {
        self.bounds
    }
}

/// Model sets the parity check runs: one platform, two platforms with
/// different boxes, lookups that fail, flat energy, and boxes too large
/// to index densely.
fn model_sets() -> Vec<(&'static str, Vec<TestModel>)> {
    let bounds = database().aux().os_bounds;
    let small = MixVector::new(
        bounds.cpu.saturating_sub(1).max(1),
        bounds.mem.saturating_sub(1).max(1),
        bounds.io.saturating_sub(2).max(1),
    );
    let failing = |mut m: TestModel, every| {
        m.fail_every = every;
        m
    };
    let flat = |mut m: TestModel| {
        m.flat = true;
        m
    };
    let scaled = TestModel {
        energy_scale: 1.3,
        ..TestModel::plain(small)
    };
    vec![
        ("noisy", vec![TestModel::plain(bounds)]),
        ("two platforms", vec![TestModel::plain(bounds), scaled]),
        (
            "failing lookups",
            vec![
                failing(TestModel::plain(bounds), 4),
                failing(TestModel::plain(small), 5),
            ],
        ),
        (
            "flat energy",
            vec![
                flat(TestModel::plain(bounds)),
                flat(TestModel::plain(small)),
            ],
        ),
        (
            "huge boxes",
            vec![
                TestModel::plain(MixVector::new(99, 99, 99)),
                TestModel {
                    energy_scale: 1.3,
                    ..TestModel::plain(MixVector::new(98, 98, 98))
                },
            ],
        ),
    ]
}

fn metrics() -> SearchMetrics {
    SearchMetrics {
        searches: Counter::standalone(),
        partitions_evaluated: Counter::standalone(),
        partitions_feasible: Counter::standalone(),
        candidates_pruned: Counter::standalone(),
        stripe: 0,
    }
}

fn counts(m: &SearchMetrics) -> oracle::Counts {
    oracle::Counts {
        evaluated: m.partitions_evaluated.get(),
        feasible: m.partitions_feasible.get(),
        pruned: m.candidates_pruned.get(),
    }
}

fn request(ty: usize, vms: u32) -> RequestView {
    RequestView {
        id: JobId::new(1),
        workload: WorkloadType::ALL[ty],
        vm_count: vms,
        deadline: DEADLINES[ty],
    }
}

/// The placements the oracle's chosen candidate commits.
fn chosen(r: &Result<Vec<PartitionCandidate>, String>) -> Option<Vec<Placement>> {
    r.as_ref()
        .ok()?
        .iter()
        .find(|c| c.chosen)
        .map(|c| c.placements.clone())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn class_scan_matches_per_server_oracle(
        fleet in proptest::collection::vec(
            (0u32..=2, 0u32..=3, (0u32..4, 0u32..4, 0u32..4)),
            0..24,
        ),
        ty in 0usize..3,
        vms in 1u32..=6,
        ty2 in 0usize..3,
        vms2 in 1u32..=4,
        margin in 0.5f64..=1.0,
    ) {
        let bounds = database().aux().os_bounds;
        // Platform 2 stands for an index no model has (falls back to
        // platform 0's model); small raw counts make duplicate mixes
        // the rule.
        let servers: Vec<ServerView> = fleet
            .iter()
            .enumerate()
            .map(|(i, &(platform, kind, raw))| ServerView {
                platform: [0, 1, 7][platform as usize],
                ..ServerView::homogeneous(ServerId::new(i as u32), resident_mix(kind, raw, bounds))
            })
            .collect();
        let first = request(ty, vms);
        let second = request(ty2, vms2);
        for (name, models) in model_sets() {
            for alpha in [0.0, 0.3, 0.5, 1.0] {
                let goal = OptimizationGoal::new(alpha).unwrap();
                for qos in [true, false] {
                    let oracle = oracle::Oracle {
                        models: &models,
                        goal,
                        deadlines: DEADLINES,
                        enforce_qos: qos,
                        qos_margin: margin,
                    };
                    let m = metrics();
                    let mut pa = Proactive::heterogeneous(models.clone(), goal, DEADLINES)
                        .with_qos_enforcement(qos)
                        .with_qos_margin(margin)
                        .with_search_metrics(m.clone());
                    let label = format!("{name} alpha={alpha} qos={qos}");

                    let (want, want_counts) = oracle.explain(&first, &servers);
                    let got = pa.explain(&first, &servers).map_err(|e| format!("{e:?}"));
                    prop_assert_eq!(&got, &want, "{} on {:?}", label, servers);
                    prop_assert_eq!(bits(&got), bits(&want), "{}", label);
                    prop_assert_eq!(counts(&m), want_counts, "{}", label);

                    // `allocate` reuses its buffers across searches and
                    // must commit the oracle's choice every time.
                    let (want2, _) = oracle.explain(&second, &servers);
                    for (r, want) in [(&first, &want), (&second, &want2), (&first, &want)] {
                        prop_assert_eq!(pa.allocate(r, &servers).ok(), chosen(want), "{}", label);
                    }
                }
            }
        }
    }
}

/// Answers from a fixed table of (resident or tentative) mixes; every
/// other mix is a miss.
struct TableModel(Vec<(MixVector, f64, f64)>);

impl AllocationModel for TableModel {
    fn exec_time(&self, mix: MixVector, ty: WorkloadType) -> Result<Seconds, EavmError> {
        self.estimate_mix(mix)?
            .time_of(ty)
            .ok_or_else(|| EavmError::ModelMiss(format!("type {ty} absent from mix {mix}")))
    }

    fn estimate_mix(&self, mix: MixVector) -> Result<MixEstimate, EavmError> {
        let &(_, energy, time) = self
            .0
            .iter()
            .find(|(m, _, _)| *m == mix)
            .ok_or_else(|| EavmError::ModelMiss(format!("no entry for {mix}")))?;
        let mut per_type_time = [None; 3];
        for ty in WorkloadType::ALL {
            if mix[ty] > 0 {
                per_type_time[ty.index()] = Some(Seconds(time));
            }
        }
        Ok(MixEstimate {
            per_type_time,
            energy: Joules(energy),
        })
    }

    fn power(&self, _mix: MixVector) -> Result<Watts, EavmError> {
        Ok(Watts(125.0))
    }

    fn run_energy(&self, mix: MixVector) -> Result<Joules, EavmError> {
        Ok(self.estimate_mix(mix)?.energy)
    }

    fn solo_time(&self, _ty: WorkloadType) -> Seconds {
        Seconds(1.0)
    }

    fn max_mix(&self) -> MixVector {
        MixVector::new(4, 4, 4)
    }
}

/// Explain one CPU VM over `mixes` with both searches; return the server
/// the search commits it to.
fn choose_one_cpu_vm(table: Vec<(MixVector, f64, f64)>, mixes: &[MixVector]) -> u32 {
    let models = [TableModel(table)];
    let servers: Vec<ServerView> = mixes
        .iter()
        .enumerate()
        .map(|(i, &mix)| ServerView::homogeneous(ServerId::new(i as u32), mix))
        .collect();
    let r = request(WorkloadType::Cpu.index(), 1);
    let want = oracle::Oracle {
        models: &models,
        goal: OptimizationGoal::BALANCED,
        deadlines: DEADLINES,
        enforce_qos: false,
        qos_margin: 1.0,
    }
    .explain(&r, &servers)
    .0;
    let [model] = models;
    let pa =
        Proactive::new(model, OptimizationGoal::BALANCED, DEADLINES).with_qos_enforcement(false);
    let got = pa.explain(&r, &servers).map_err(|e| format!("{e:?}"));
    assert_eq!(got, want);
    assert_eq!(bits(&got), bits(&want));
    let placements = chosen(&got).expect("the request places");
    assert_eq!(placements.len(), 1);
    placements[0].server.0
}

#[test]
fn a_later_class_member_can_win_after_its_first_member_lost() {
    // At α = 0.5, with (energy delta, block time) I1 = (0.757, 1.705),
    // A = B = (1.454, 0.144) and I2 = (1.073, 0.848), in list order
    // I1, A, I2, B: A loses to I1 (score 1.0026), I2 beats I1 (0.957),
    // then B beats I2 (0.762). Scoring only A for the class {A, B}
    // would stop at I2.
    let (i1, ab, i2) = (
        MixVector::new(0, 1, 0),
        MixVector::new(0, 0, 1),
        MixVector::new(0, 2, 0),
    );
    let cpu = MixVector::new(1, 0, 0);
    let table = vec![
        (i1, 100.0, 1.0),
        (ab, 100.0, 1.0),
        (i2, 100.0, 1.0),
        (i1 + cpu, 100.757, 1.705),
        (ab + cpu, 101.454, 0.144),
        (i2 + cpu, 101.073, 0.848),
    ];
    assert_eq!(choose_one_cpu_vm(table, &[i1, ab, i2, ab]), 3);
}

#[test]
fn with_zero_energy_deltas_the_last_member_of_a_class_wins() {
    // Identical servers and no energy delta: each later member scores
    // 1 − α = 0.5 against the one before it and displaces it.
    let mix = MixVector::new(1, 0, 0);
    let table = vec![(mix, 100.0, 1.0), (mix + mix, 100.0, 1.2)];
    assert_eq!(choose_one_cpu_vm(table, &[mix, mix, mix]), 2);
}
