//! Integration: the service's deterministic replay mode is bit-exact
//! against the batch simulator. The service's model stack must be
//! semantically transparent — `replay_deterministic` (Proactive over
//! the resilient, table-backed DbModel) and a plain `Simulation::run`
//! (Proactive over the bare DbModel) must make the same allocation
//! decisions, interval for interval, and report the same total energy,
//! while the model table demonstrably answers the lookups.

use std::sync::Arc;

use eavm::prelude::*;
use eavm::service::{replay_deterministic, replay_online, DeterministicConfig, ServiceConfig};

fn build_requests(seed: u64, total_vms: u32, solo: [Seconds; 3]) -> Vec<VmRequest> {
    let mut generator = TraceGenerator::new(GeneratorConfig {
        seed,
        total_jobs: (total_vms as usize) / 2,
        ..Default::default()
    })
    .unwrap();
    let mut trace = generator.generate();
    clean_trace(&mut trace);
    let cfg = AdaptConfig {
        qos_factor: 3.0,
        ..AdaptConfig::paper(seed, solo)
    };
    let mut requests = adapt_trace(&trace, &cfg);
    eavm::swf::truncate_to_vm_total(&mut requests, total_vms);
    requests
}

fn deadlines(db: &ModelDatabase, factor: f64) -> [Seconds; 3] {
    [
        db.aux().solo_time(WorkloadType::Cpu) * factor,
        db.aux().solo_time(WorkloadType::Mem) * factor,
        db.aux().solo_time(WorkloadType::Io) * factor,
    ]
}

#[test]
fn deterministic_replay_matches_batch_simulation_exactly() {
    let db = DbBuilder::exact().build().unwrap();
    let solo = [
        db.aux().solo_time(WorkloadType::Cpu),
        db.aux().solo_time(WorkloadType::Mem),
        db.aux().solo_time(WorkloadType::Io),
    ];
    let requests = build_requests(11, 500, solo);
    let cloud = CloudConfig::new("REPLAY", 6).unwrap();
    let dl = deadlines(&db, 3.0);

    // Reference: the batch simulator with the bare model.
    let mut reference = Proactive::new(DbModel::new(db.clone()), OptimizationGoal::BALANCED, dl)
        .with_qos_margin(0.65);
    let expected = Simulation::new(AnalyticModel::reference(), cloud.clone())
        .with_timeline()
        .run(&mut reference, &requests)
        .unwrap();

    // Service path: the service's allocator stack, with telemetry
    // ENABLED — instruments must observe the replay
    // without perturbing a single allocation decision.
    let telemetry = Telemetry::new();
    let mut config = DeterministicConfig::new(OptimizationGoal::BALANCED, dl)
        .with_telemetry(Arc::clone(&telemetry));
    config.timeline = true;
    let (outcome, cache, fallbacks) =
        replay_deterministic(AnalyticModel::reference(), cloud, db, &config, &requests).unwrap();
    assert_eq!(fallbacks, 0, "no fault plan must mean no fallbacks");

    // Same allocation decisions: the timeline records every per-server
    // allocation interval the strategy produced.
    assert!(!outcome.timeline.is_empty());
    assert_eq!(outcome.timeline, expected.timeline);
    // Same totals, energy included, bit for bit.
    assert_eq!(outcome, expected);
    assert_eq!(outcome.energy, expected.energy);
    assert_eq!(
        outcome.vms as u32,
        requests.iter().map(|r| r.vm_count).sum()
    );

    // And the table was genuinely exercised, not bypassed.
    assert!(cache.hits > 0, "model table never hit: {cache:?}");
    assert!(
        cache.hit_rate() > 0.5,
        "repeat mixes should dominate: {cache:?}"
    );

    // The registry saw the same traffic the stats structs report: one
    // source of truth, not parallel bookkeeping.
    let snap = telemetry.snapshot();
    assert_eq!(snap.counter("replay.cache.hits"), cache.hits);
    assert_eq!(snap.counter("replay.cache.misses"), cache.misses);
    assert_eq!(snap.counter("sim.vms_placed"), outcome.vms as u64);
    assert!(snap.counter("replay.search.searches") > 0);
}

#[test]
fn model_table_answers_all_online_service_lookups() {
    // On the exact paper database every mix the service ever looks up
    // lies inside the hostable bounds, so the table answers all of them:
    // no allocator, shard or coordinator, ever goes to the database.
    let db = DbBuilder::exact().build().unwrap();
    let solo = [
        db.aux().solo_time(WorkloadType::Cpu),
        db.aux().solo_time(WorkloadType::Mem),
        db.aux().solo_time(WorkloadType::Io),
    ];
    let requests = build_requests(11, 500, solo);
    let telemetry = Telemetry::new();
    let mut config = ServiceConfig::new(2, 6).with_telemetry(Arc::clone(&telemetry));
    config.deadlines = deadlines(&db, 3.0);
    let report = replay_online(&db, config, &requests).unwrap();
    let cache = report.stats.aggregate_cache;
    assert!(cache.hits > 0, "model table never hit: {cache:?}");
    assert_eq!(cache.misses, 0, "a lookup left the table: {cache:?}");
    assert_eq!(cache.evictions, 0);

    // The registry carries the same counts the stats report.
    let snap = telemetry.snapshot();
    assert_eq!(snap.counter("service.cache.hits"), cache.hits);
    assert_eq!(snap.counter("service.cache.misses"), 0);
}
