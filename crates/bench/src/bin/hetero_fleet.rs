//! Experiment: heterogeneous server hardware (the paper's future-work
//! item i, here implemented end-to-end).
//!
//! Fleet A is the homogeneous SMALLER cloud (70 reference servers).
//! Fleet B swaps 20 reference servers for 10 dual-socket big nodes
//! (similar aggregate CPU-slot count: 50×4 + 10×8 = 280 slots = 70×4).
//! Three allocators run on fleet B:
//!
//! * FF — slot-aware first fit (sees each platform's true slot count);
//! * PA-1 naive — PROACTIVE with only the reference-platform database
//!   (what the paper's homogeneous model would do on mixed hardware);
//! * PA-1 platform-aware — PROACTIVE with one database per platform
//!   ("we should include system characteristics such as number of CPUs,
//!   amount of memory, ..." — Sect. III-C).

#![forbid(unsafe_code)]

use eavm_bench::report::{pct_delta, Table};
use eavm_bench::{Pipeline, PipelineConfig, StrategyKind};
use eavm_benchdb::DbBuilder;
use eavm_core::{AnalyticModel, DbModel, OptimizationGoal, Proactive};
use eavm_simulator::{CloudConfig, Simulation};
use eavm_testbed::{BenchmarkSuite, ContentionModel, RunSimulator, ServerSpec};
use eavm_types::MixVector;

fn main() {
    let alpha: f64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(1.0);
    let goal = OptimizationGoal::new(alpha).expect("alpha");
    let p = Pipeline::build(PipelineConfig::default()).expect("pipeline");
    let (smaller, _) = p.clouds();

    // Per-platform ground truth and allocator knowledge for the big node.
    eprintln!("building the big-node database...");
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let db_big = DbBuilder {
        sim: RunSimulator {
            server: ServerSpec::big_node(),
            model: ContentionModel::default(),
        },
        meter_seed: Some(p.config.seed),
        ..Default::default()
    }
    .build_parallel(threads)
    .expect("big-node db");
    eprintln!(
        "big-node bounds {} vs reference {}",
        db_big.aux().os_bounds,
        p.db.aux().os_bounds
    );
    let big_truth = AnalyticModel::new(
        ServerSpec::big_node(),
        ContentionModel::default(),
        &BenchmarkSuite::standard(),
        MixVector::new(24, 24, 24),
    );

    let mixed_ref_servers = smaller.servers - 20;
    let mixed_big_servers = 10;
    let mixed_cloud = CloudConfig::new("MIXED", mixed_ref_servers).expect("cloud");
    let hetero_sim = |name: &str| {
        let mut c = mixed_cloud.clone();
        c.name = name.to_string();
        Simulation::new(p.ground_truth.clone(), c)
            .with_platform(big_truth.clone(), mixed_big_servers)
    };

    let mut t = Table::new(vec![
        "fleet",
        "strategy",
        "makespan_s",
        "energy_J",
        "sla_pct",
        "peak_busy",
        "mean_wait_s",
    ]);
    let mut push = |fleet: &str, out: eavm_simulator::SimOutcome| {
        t.row(vec![
            fleet.to_string(),
            out.strategy.clone(),
            format!("{:.0}", out.makespan().value()),
            format!("{:.3e}", out.energy.value()),
            format!("{:.1}", out.sla_violation_pct()),
            out.peak_servers_busy.to_string(),
            format!("{:.0}", out.mean_wait_time().value()),
        ]);
        out
    };

    // Fleet A: the homogeneous baseline.
    let homo_ff = push(
        "homogeneous",
        p.run(StrategyKind::Ff, &smaller).expect("ff"),
    );
    let homo_pa = push(
        "homogeneous",
        p.run(StrategyKind::Pa(alpha), &smaller).expect("pa"),
    );

    // Fleet B: mixed hardware.
    let mut ff = p.strategy(StrategyKind::Ff);
    let mixed_ff = push(
        "mixed",
        hetero_sim("MIXED")
            .run(ff.as_mut(), &p.requests)
            .expect("mixed ff"),
    );

    let mut pa_naive = Proactive::new(DbModel::new(p.db.clone()), goal, p.deadlines)
        .with_qos_margin(p.config.qos_margin);
    let mixed_naive = push(
        "mixed (naive PA)",
        hetero_sim("MIXED")
            .run(&mut pa_naive, &p.requests)
            .expect("naive"),
    );

    let mut pa_aware = Proactive::heterogeneous(
        vec![DbModel::new(p.db.clone()), DbModel::new(db_big)],
        goal,
        p.deadlines,
    )
    .with_qos_margin(p.config.qos_margin);
    let mixed_aware = push(
        "mixed (aware PA)",
        hetero_sim("MIXED")
            .run(&mut pa_aware, &p.requests)
            .expect("aware"),
    );

    println!("{}", t.render());
    println!(
        "platform awareness on mixed hardware: {:.1}% energy, {:.1}% makespan vs the naive \
         single-database allocator",
        pct_delta(mixed_naive.energy.value(), mixed_aware.energy.value()),
        pct_delta(
            mixed_naive.makespan().value(),
            mixed_aware.makespan().value()
        ),
    );
    println!(
        "context: homogeneous FF {:.3e} J / PA {:.3e} J; mixed FF {:.3e} J",
        homo_ff.energy.value(),
        homo_pa.energy.value(),
        mixed_ff.energy.value(),
    );
}
