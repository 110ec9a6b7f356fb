//! Overload-control sweep: flash crowds from 0.5x to 4x fleet capacity
//! against the adaptive admission plane (`eavm-overload`).
//!
//! A 2-shard, 4-server fleet (per-server CPU bound 10 ⇒ 40 single-VM
//! slots) receives a paced crowd of `multiplier x capacity` one-VM CPU
//! requests at a fixed 5-virtual-second arrival gap, mixed 9:4:2
//! Batch:Standard:Interactive. The overload plane runs with the same
//! regime the acceptance tests pin: AIMD ceiling 12 VMs/shard, 32-slot
//! park queue, generous queue aging. Per offered load the sweep reports
//! total and per-class goodput, the shed breakdown and the final AIMD
//! limits. Every column is a paced verdict count or derived from one,
//! so the output is byte-deterministic; admission latency reads the
//! wall clock and is not printed.

#![forbid(unsafe_code)]

use eavm_benchdb::DbBuilder;
use eavm_overload::{OverloadConfig, Priority};
use eavm_service::{replay_online_paced, ServiceConfig};
use eavm_swf::VmRequest;
use eavm_types::{JobId, Seconds, WorkloadType};

/// Fleet shape shared by every run in the sweep.
const SHARDS: usize = 2;
const SERVERS_PER_SHARD: usize = 4;
/// Per-server CPU OS bound of the exact database is 10 VMs.
const CAPACITY: usize = 40;
/// Offered load per run, as a multiple of `CAPACITY`.
const MULTIPLIERS: [f64; 5] = [0.5, 1.0, 2.0, 3.0, 4.0];

/// 9:4:2 Batch:Standard:Interactive, interleaved so every class keeps
/// arriving for the whole crowd (same pattern as the acceptance test).
const PATTERN: [Priority; 15] = [
    Priority::Batch,
    Priority::Batch,
    Priority::Interactive,
    Priority::Batch,
    Priority::Batch,
    Priority::Standard,
    Priority::Batch,
    Priority::Batch,
    Priority::Standard,
    Priority::Batch,
    Priority::Batch,
    Priority::Interactive,
    Priority::Batch,
    Priority::Standard,
    Priority::Standard,
];

fn crowd(offered: usize) -> Vec<VmRequest> {
    (0..offered)
        .map(|i| VmRequest {
            id: JobId::new(i as u32),
            submit: Seconds(i as f64 * 5.0),
            workload: WorkloadType::Cpu,
            vm_count: 1,
            deadline: Seconds(1e7),
            priority: PATTERN[i % PATTERN.len()],
        })
        .collect()
}

fn config() -> ServiceConfig {
    let mut config = ServiceConfig::new(SHARDS, SERVERS_PER_SHARD);
    config.queue_capacity = 32;
    config.deadlines = [Seconds(1e7), Seconds(1e7), Seconds(1e7)];
    config.overload = Some(OverloadConfig {
        max_limit: 12.0,
        queue_target: 7200.0,
        queue_interval: 7200.0,
        ..OverloadConfig::default()
    });
    config
}

fn main() {
    let db = DbBuilder::exact().build().expect("model database");
    println!(
        "# overload_shed: {SHARDS} shards x {SERVERS_PER_SHARD} servers \
         ({CAPACITY} single-VM CPU slots), 5 s arrival gap, 9:4:2 B:S:I"
    );
    println!(
        "{:<6} {:>7} {:>9} {:>7} {:>7} {:>7} {:>7} {:>9} {:>6} {:>7} {:>12}",
        "xcap",
        "offered",
        "admitted",
        "good%",
        "batch%",
        "std%",
        "inter%",
        "brownout",
        "aged",
        "q_full",
        "final_limits"
    );
    for multiplier in MULTIPLIERS {
        let offered = (CAPACITY as f64 * multiplier).round() as usize;
        let requests = crowd(offered);
        let report =
            replay_online_paced(&db, config(), &requests).expect("paced overloaded replay");
        let stats = &report.stats;
        let admitted: u64 = stats.admitted_class.iter().sum();
        let goodput = |class: Priority| {
            let sub = stats.submitted_class[class.index()];
            if sub == 0 {
                return 100.0;
            }
            100.0 * stats.admitted_class[class.index()] as f64 / sub as f64
        };
        let limits: Vec<String> = stats
            .overload
            .as_ref()
            .map(|s| s.limits.iter().map(|l| format!("{l:.0}")).collect())
            .unwrap_or_default();
        println!(
            "{:<6.2} {:>7} {:>9} {:>7.1} {:>7.1} {:>7.1} {:>7.1} {:>9} {:>6} {:>7} {:>12}",
            multiplier,
            offered,
            admitted,
            100.0 * admitted as f64 / offered.max(1) as f64,
            goodput(Priority::Batch),
            goodput(Priority::Standard),
            goodput(Priority::Interactive),
            stats.shed_brownout_class,
            stats.shed_queue_aged,
            stats.shed_wait_queue,
            limits.join("/"),
        );
    }
}
