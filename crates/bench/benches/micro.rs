//! Criterion micro-benchmarks for the hot paths of the reproduction:
//! set-partition enumeration (Orlov), model-database lookup/estimation,
//! one PROACTIVE allocation decision at datacenter fleet width, the
//! single-server run integrator, and an end-to-end small simulation.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use eavm_bench::{Pipeline, PipelineConfig, StrategyKind};
use eavm_benchdb::{DbBuilder, ModelDatabase};
use eavm_core::strategy::{RequestView, ServerView};
use eavm_core::{AllocationStrategy, DbModel, OptimizationGoal, Proactive};
use eavm_faults::{FaultConfig, FaultPlan, LookupFaults};
use eavm_partitions::{
    for_each_multiset_partition, multiset_partitions, multiset_partitions_capped, SetPartitions,
};
use eavm_testbed::{ApplicationProfile, RunSimulator};
use eavm_types::{JobId, MixVector, Seconds, ServerId, WorkloadType};

fn bench_partitions(c: &mut Criterion) {
    c.bench_function("orlov_set_partitions_n10", |b| {
        b.iter(|| SetPartitions::new(black_box(10)).count())
    });
    c.bench_function("multiset_partitions_4_identical", |b| {
        b.iter(|| multiset_partitions(black_box(&[4, 0, 0]), u32::MAX).len())
    });
    c.bench_function("multiset_partitions_burst_20_capped", |b| {
        // A full burst: 5 jobs x 4 VMs across 3 types, block size <= 10,
        // bounded at the allocator's real search cap (4096 partitions).
        b.iter(|| multiset_partitions_capped(black_box(&[8, 6, 6]), 10, 4_096).len())
    });
    // The allocator's path: the same enumerations through the visitor,
    // which hands each partition over as a borrowed slice.
    c.bench_function("multiset_visitor_4_identical", |b| {
        b.iter(|| {
            for_each_multiset_partition(black_box(&[4, 0, 0]), u32::MAX, usize::MAX, |p| {
                black_box(p);
            })
        })
    });
    c.bench_function("multiset_visitor_burst_20_capped", |b| {
        b.iter(|| {
            for_each_multiset_partition(black_box(&[8, 6, 6]), 10, 4_096, |p| {
                black_box(p);
            })
        })
    });
}

fn database() -> ModelDatabase {
    DbBuilder::exact().build().expect("db")
}

fn bench_database(c: &mut Criterion) {
    let db = database();
    let bounds = db.aux().os_bounds;
    let mixes: Vec<MixVector> = MixVector::space(bounds).filter(|m| !m.is_empty()).collect();
    c.bench_function("db_binary_search_lookup", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % mixes.len();
            black_box(db.lookup(mixes[i]))
        })
    });
    c.bench_function("db_estimate_in_grid", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % mixes.len();
            black_box(db.estimate(mixes[i]).unwrap())
        })
    });
    c.bench_function("db_estimate_extrapolated", |b| {
        b.iter(|| black_box(db.estimate(MixVector::new(12, 6, 9)).unwrap()))
    });
}

/// A 70-server fleet in a mid-load state.
fn mid_load_fleet() -> Vec<ServerView> {
    (0..70u32)
        .map(|i| {
            let mix = match i % 4 {
                0 => MixVector::new(4, 0, 0),
                1 => MixVector::new(2, 1, 1),
                2 => MixVector::new(0, 2, 3),
                _ => MixVector::EMPTY,
            };
            ServerView::homogeneous(ServerId::new(i), mix)
        })
        .collect()
}

fn cpu_request(deadline: Seconds) -> RequestView {
    RequestView {
        id: JobId::new(0),
        workload: WorkloadType::Cpu,
        vm_count: 4,
        deadline,
    }
}

fn bench_proactive_decision(c: &mut Criterion) {
    let db = DbModel::new(database());
    let deadlines = [Seconds(3600.0), Seconds(3000.0), Seconds(2700.0)];
    let mut pa = Proactive::new(db, OptimizationGoal::BALANCED, deadlines).with_qos_margin(0.65);
    let servers = mid_load_fleet();
    let request = cpu_request(deadlines[0]);
    c.bench_function("proactive_allocate_4vms_70servers", |b| {
        b.iter(|| {
            pa.allocate(black_box(&request), black_box(&servers))
                .unwrap()
        })
    });
}

fn bench_runsim(c: &mut Criterion) {
    let sim = RunSimulator::reference();
    let fftw = ApplicationProfile::fftw();
    c.bench_function("runsim_9_fftw_clones", |b| {
        b.iter(|| sim.run_clones(black_box(&fftw), 9, None))
    });
    let suite = eavm_testbed::BenchmarkSuite::standard();
    let mixed: Vec<&ApplicationProfile> = vec![
        suite.representative(WorkloadType::Cpu),
        suite.representative(WorkloadType::Cpu),
        suite.representative(WorkloadType::Mem),
        suite.representative(WorkloadType::Io),
        suite.representative(WorkloadType::Io),
    ];
    c.bench_function("runsim_mixed_5vms", |b| {
        b.iter(|| sim.run(black_box(&mixed), None))
    });
}

fn bench_end_to_end(c: &mut Criterion) {
    let p = Pipeline::build(PipelineConfig::small(42)).expect("pipeline");
    let (smaller, _) = p.clouds();
    c.bench_function("simulate_600vms_ff", |b| {
        b.iter(|| p.run(StrategyKind::Ff, black_box(&smaller)).unwrap())
    });
    c.bench_function("simulate_600vms_pa05", |b| {
        b.iter(|| p.run(StrategyKind::Pa(0.5), black_box(&smaller)).unwrap())
    });
}

fn bench_learned_model(c: &mut Criterion) {
    let db = database();
    c.bench_function("learned_model_fit", |b| {
        b.iter(|| eavm_core::learned::LearnedModel::fit(black_box(&db)).unwrap())
    });
    let model = eavm_core::learned::LearnedModel::fit(&db).unwrap();
    use eavm_core::AllocationModel;
    c.bench_function("learned_model_estimate", |b| {
        b.iter(|| {
            model
                .estimate_mix(black_box(MixVector::new(4, 2, 3)))
                .unwrap()
        })
    });
}

fn bench_swf(c: &mut Criterion) {
    use eavm_swf::{GeneratorConfig, SwfTrace, TraceGenerator};
    let mut generator = TraceGenerator::new(GeneratorConfig {
        seed: 1,
        total_jobs: 2_000,
        ..Default::default()
    })
    .unwrap();
    let trace = generator.generate();
    let text = trace.to_text();
    c.bench_function("swf_parse_2000_jobs", |b| {
        b.iter(|| SwfTrace::parse(black_box(&text)).unwrap())
    });
    c.bench_function("swf_serialize_2000_jobs", |b| b.iter(|| trace.to_text()));
    c.bench_function("swf_clean_2000_jobs", |b| {
        b.iter(|| {
            let mut t = trace.clone();
            eavm_swf::clean_trace(&mut t)
        })
    });
}

fn bench_telemetry(c: &mut Criterion) {
    use eavm_service::{replay_online, ServiceConfig};
    use eavm_telemetry::Telemetry;

    // Raw instrument cost: a registry-backed increment/record against
    // the disabled no-op handles (a branch on `None`).
    let enabled = Telemetry::new();
    let disabled = Telemetry::disabled();
    let counter_on = enabled.counter("bench.counter");
    let counter_off = disabled.counter("bench.counter");
    let hist_on = enabled.histogram("bench.histogram");
    let hist_off = disabled.histogram("bench.histogram");
    let mut group = c.benchmark_group("telemetry_instrument");
    group.bench_function("counter_enabled", |b| {
        b.iter(|| counter_on.add(black_box(1)))
    });
    group.bench_function("counter_noop", |b| b.iter(|| counter_off.add(black_box(1))));
    group.bench_function("histogram_enabled", |b| {
        b.iter(|| hist_on.record(black_box(180)))
    });
    group.bench_function("histogram_noop", |b| {
        b.iter(|| hist_off.record(black_box(180)))
    });
    group.finish();

    // The overhead claim that matters: the full service throughput
    // sweep with telemetry disabled vs enabled (instrumentation must be
    // within noise when off, and cheap even when on).
    let p = Pipeline::build(PipelineConfig::small(42)).expect("pipeline");
    let mut group = c.benchmark_group("service_replay_telemetry");
    group.sample_size(10);
    for (label, handle) in [
        ("disabled", Telemetry::disabled()),
        ("enabled", Telemetry::new()),
    ] {
        let requests = &p.requests;
        let db = &p.db;
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut config = ServiceConfig::new(2, p.config.smaller_servers)
                    .with_telemetry(std::sync::Arc::clone(&handle));
                config.deadlines = p.deadlines;
                config.qos_margin = p.config.qos_margin;
                replay_online(black_box(db), config, black_box(requests)).unwrap()
            })
        });
    }
    group.finish();
}

fn bench_faults(c: &mut Criterion) {
    // Plan generation is front-loaded setup cost: it must stay cheap
    // enough to regenerate per experiment run.
    c.bench_function("fault_plan_generate_64_hosts_24h", |b| {
        b.iter(|| {
            FaultPlan::generate(black_box(&FaultConfig::uniform(42, 2.0)), 64, 86_400.0)
                .events()
                .len()
        })
    });
    // The lookup predicate sits on the model hot path when chaos is
    // armed; it is a hash and a compare, nothing more.
    let faults = LookupFaults::new(7, 0.1);
    c.bench_function("lookup_fault_predicate_1k", |b| {
        b.iter(|| {
            (0..1_000u64)
                .filter(|&k| faults.fails(black_box(k)))
                .count()
        })
    });
}

fn bench_db_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("db_build");
    group.sample_size(10);
    group.bench_function("sequential", |b| {
        b.iter(|| DbBuilder::exact().build().unwrap())
    });
    group.bench_function("parallel_4", |b| {
        b.iter(|| DbBuilder::exact().build_parallel(4).unwrap())
    });
    group.finish();
}

fn bench_durability(c: &mut Criterion) {
    use eavm_durability::{
        recover_dir, wal_path, PlacementRec, ReqRec, SnapshotRec, Wal, WalRecord,
    };

    fn bench_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("eavm-bench-dur-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn admitted(ticket: u64) -> WalRecord {
        WalRecord::Admitted {
            ticket,
            shard: (ticket % 4) as u32,
            placements: vec![PlacementRec {
                server: (ticket % 16) as u32,
                cpu: 2,
                mem: 1,
                io: 0,
            }],
        }
    }

    // Journal-append overhead per admission: one verdict record encoded
    // and framed into the WAL. A batch of 256 appends plus the one
    // fsync a checkpoint boundary would pay, on a fresh file each
    // iteration so the cost does not drift with file size.
    let mut group = c.benchmark_group("durability");
    group.sample_size(20);
    let dir = bench_dir("append");
    let mut n = 0u64;
    group.bench_function("wal_append_256_sync", |b| {
        b.iter(|| {
            n += 1;
            let path = wal_path(&dir).with_extension(format!("{n}"));
            let (mut wal, _) = Wal::open(&path).unwrap();
            for ticket in 0..256u64 {
                wal.append(black_box(&admitted(ticket).encode())).unwrap();
            }
            wal.sync().unwrap();
            drop(wal);
            let _ = std::fs::remove_file(&path);
        })
    });

    group.bench_function("wal_record_encode_decode", |b| {
        let record = admitted(12345);
        b.iter(|| {
            let bytes = black_box(&record).encode();
            WalRecord::decode(black_box(&bytes)).unwrap()
        })
    });

    // Replay cost: decode + validate a 2 000-frame WAL (1 000
    // submit/admit pairs), the dominant term of a snapshotless restart.
    let replay = bench_dir("replay");
    {
        let (mut wal, _) = Wal::open(&wal_path(&replay)).unwrap();
        for ticket in 0..1_000u64 {
            let req = ReqRec {
                id: ticket as u32,
                submit: ticket as f64,
                workload: (ticket % 3) as u8,
                vm_count: 2,
                deadline: 5_000.0,
                priority: (ticket % 3) as u8,
            };
            wal.append(&WalRecord::Submit { ticket, req }.encode())
                .unwrap();
            wal.append(&admitted(ticket).encode()).unwrap();
        }
        wal.sync().unwrap();
    }
    group.bench_function("recover_dir_2k_frames", |b| {
        b.iter(|| {
            let state = recover_dir(black_box(&replay)).unwrap();
            assert_eq!(state.frames, 2_000);
            state
        })
    });

    // Checkpoint round trip: a 4-shard, 64-server fleet snapshot,
    // written atomically (tmp + rename + fsync) and read back.
    let snapdir = bench_dir("snap");
    let snapshot = SnapshotRec {
        seq: 1,
        wal_frames: 2_000,
        now: 1_234.5,
        next_ticket: 1_000,
        shards: (0..4u32)
            .map(|index| eavm_durability::ShardSnapRec {
                index,
                clock: 1_234.5,
                energy: 9.9e6,
                servers: (0..16u32)
                    .map(|s| eavm_durability::ServerSnapRec {
                        server: index * 16 + s,
                        residents: vec![(0, 2_000.0), (1, 2_500.0), (2, 3_000.0)],
                    })
                    .collect(),
            })
            .collect(),
        parked: vec![],
        counters: vec![("submitted".into(), 1_000)],
        cooldowns: vec![0; 64],
        overload: None,
    };
    let mut seq = 0u64;
    group.bench_function("snapshot_write_read", |b| {
        b.iter(|| {
            seq += 1;
            let path = eavm_durability::write_snapshot(&snapdir, seq, &snapshot.encode()).unwrap();
            let payload = eavm_durability::read_snapshot(&path).unwrap();
            let _ = std::fs::remove_file(&path);
            SnapshotRec::decode(black_box(&payload)).unwrap()
        })
    });
    group.finish();

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&replay);
    let _ = std::fs::remove_dir_all(&snapdir);
}

criterion_group!(
    benches,
    bench_partitions,
    bench_database,
    bench_proactive_decision,
    bench_runsim,
    bench_end_to_end,
    bench_learned_model,
    bench_swf,
    bench_telemetry,
    bench_faults,
    bench_db_build,
    bench_durability
);
criterion_main!(benches);
