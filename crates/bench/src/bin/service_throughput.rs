//! Throughput of the online allocation service (`eavm-service`) at
//! 1–8 shards on the paper's 10,000-VM trace.
//!
//! For each shard count the full adapted trace is replayed through a
//! live [`eavm_service::AllocService`] (bounded admission, batched
//! fast-path dispatch, cross-shard two-phase slow path) and the wall
//! time, request throughput, model-table hit rate, and admission
//! breakdown are reported. Usage:
//!
//! ```text
//! service_throughput [total_vms] [servers] [shard_counts,comma-separated]
//! ```

#![forbid(unsafe_code)]

use std::time::Instant;

use eavm_bench::{Pipeline, PipelineConfig};
use eavm_service::{replay_online, ServiceConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let total_vms: u32 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(10_000);
    let servers: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(70);
    let shard_counts: Vec<usize> = args
        .get(3)
        .map(|s| s.split(',').filter_map(|t| t.parse().ok()).collect())
        .unwrap_or_else(|| vec![1, 2, 4, 8]);

    let pipeline = Pipeline::build(PipelineConfig {
        total_vms,
        smaller_servers: servers,
        ..Default::default()
    })
    .expect("pipeline build");
    println!(
        "# service_throughput: {} requests / {} VMs on {} servers",
        pipeline.requests.len(),
        total_vms,
        servers
    );
    println!(
        "{:<7} {:>9} {:>9} {:>7} {:>10} {:>9} {:>9} {:>7} {:>9} {:>8} {:>8} {:>8} {:>10}",
        "shards",
        "wall_s",
        "req/s",
        "eff%",
        "table_hit%",
        "local",
        "cross",
        "shed",
        "conflicts",
        "p50_us",
        "p95_us",
        "p99_us",
        "energy_MJ"
    );

    // (first shard count, its wall time, its throughput): the scaling
    // baseline. eff% = throughput at N shards / (N/N0 x baseline
    // throughput) — 100% means perfectly linear scaling from the first
    // configuration (normally 1 shard).
    let mut baseline: Option<(usize, f64, f64)> = None;
    for &shards in &shard_counts {
        let mut config = ServiceConfig::new(shards, servers);
        config.deadlines = pipeline.deadlines;
        config.qos_margin = pipeline.config.qos_margin;

        let started = Instant::now();
        let report =
            replay_online(&pipeline.db, config, &pipeline.requests).expect("replay_online");
        let wall = started.elapsed().as_secs_f64();
        let stats = &report.stats;
        let throughput = report.requests as f64 / wall.max(1e-9);
        let shed = stats.shed_admission + stats.shed_wait_queue + stats.shed_unplaceable;
        let lat = &stats.admission_latency_us;
        let efficiency = match baseline {
            None => 100.0,
            Some((base_shards, _, base_tput)) => {
                let ideal = base_tput * shards as f64 / base_shards as f64;
                100.0 * throughput / ideal.max(1e-9)
            }
        };
        println!(
            "{:<7} {:>9.3} {:>9.0} {:>7.1} {:>10.1} {:>9} {:>9} {:>7} {:>9} {:>8} {:>8} {:>8} {:>10.3}",
            shards,
            wall,
            throughput,
            efficiency,
            100.0 * stats.aggregate_cache.hit_rate(),
            stats.admitted_local,
            stats.admitted_cross_shard,
            shed,
            stats.reserve_conflicts,
            lat.p50,
            lat.p95,
            lat.p99,
            stats.estimated_energy.value() / 1e6,
        );
        match baseline {
            None => baseline = Some((shards, wall, throughput)),
            Some((base_shards, base_wall, _)) => println!(
                "#   speedup vs {base_shards} shard(s) at {shards} shards: {:.2}x \
                 (scaling efficiency {efficiency:.1}%)",
                base_wall / wall.max(1e-9)
            ),
        }
    }
}
