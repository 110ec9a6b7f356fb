//! Property-based tests for the discrete-event engine: conservation and
//! metric consistency under every combination of engine features
//! (queue policy × burst allocation × migration × power accounting ×
//! timeline recording × fault plan × extra platform). Debug builds of
//! the engine also check, at every event, its cached next-finish minima
//! and finished marks against a scan of every resident VM, so these
//! cases exercise that invariant on each feature path.

use eavm_core::{AnalyticModel, FirstFit};
use eavm_faults::{FaultConfig, FaultPlan};
use eavm_simulator::{CloudConfig, MigrationConfig, Simulation};
use eavm_swf::{Priority, VmRequest};
use eavm_testbed::{BenchmarkSuite, ContentionModel, ServerSpec};
use eavm_types::{JobId, MixVector, Seconds, WorkloadType};
use proptest::prelude::*;

fn arb_requests() -> impl Strategy<Value = Vec<VmRequest>> {
    proptest::collection::vec((0.0f64..5_000.0, 0usize..3, 1u32..=4, 1.0f64..10.0), 1..25).prop_map(
        |specs| {
            let mut t = 0.0;
            specs
                .into_iter()
                .enumerate()
                .map(|(i, (gap, ty, n, slack))| {
                    t += gap;
                    VmRequest {
                        id: JobId::from(i),
                        submit: Seconds(t),
                        workload: WorkloadType::from_index(ty),
                        vm_count: n,
                        deadline: Seconds(1_200.0 * slack),
                        priority: Priority::Standard,
                    }
                })
                .collect()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever feature combination is enabled, the engine conserves the
    /// workload and its metrics stay self-consistent.
    #[test]
    fn engine_invariants_hold_across_feature_matrix(
        requests in arb_requests(),
        servers in 2usize..6,
        policy in 0usize..3,
        window in 1usize..8,
        burst in proptest::bool::ANY,
        migrate in proptest::bool::ANY,
        always_on in proptest::bool::ANY,
        timeline in proptest::bool::ANY,
        fault_seed in proptest::option::of(0u64..1_000),
        big_node in proptest::bool::ANY,
    ) {
        let mut sim = Simulation::new(
            AnalyticModel::reference(),
            CloudConfig::new("PROP", servers).unwrap(),
        );
        match policy {
            0 => {}
            1 => sim = sim.with_backfill(window),
            _ => sim = sim.with_edf(),
        }
        if big_node {
            sim = sim.with_platform(
                AnalyticModel::new(
                    ServerSpec::big_node(),
                    ContentionModel::default(),
                    &BenchmarkSuite::standard(),
                    MixVector::new(24, 24, 24),
                ),
                1,
            );
        }
        let hosts = servers + usize::from(big_node);
        if let Some(seed) = fault_seed {
            let horizon = requests.last().map_or(0.0, |r| r.submit.value()) + 20_000.0;
            let plan = FaultPlan::generate(&FaultConfig::uniform(seed, 1.0), hosts, horizon);
            sim = sim.with_faults(plan);
        }
        if burst {
            sim = sim.with_burst_allocation();
        }
        if migrate {
            sim = sim.with_migration(MigrationConfig {
                receiver_bound: MixVector::new(10, 4, 7),
                check_interval: Seconds(500.0),
                ..Default::default()
            });
        }
        if always_on {
            sim = sim.with_always_on_fleet();
        }
        if timeline {
            sim = sim.with_timeline();
        }

        // FF-2 gives enough per-server room that every 1–4-VM request is
        // eventually placeable.
        let mut strategy = FirstFit::with_multiplex(4, 2);
        let out = sim.run(&mut strategy, &requests).unwrap();

        // Conservation: every trace VM is placed once, plus once more
        // per crash restart.
        let total: u32 = requests.iter().map(|r| r.vm_count).sum();
        prop_assert_eq!(
            out.vms,
            total as usize + out.vms_restarted,
            "VMs lost or duplicated"
        );
        prop_assert_eq!(out.vms_restarted, out.vms_killed);
        if fault_seed.is_none() {
            prop_assert_eq!(out.host_crashes + out.host_degradations, 0);
        }
        prop_assert_eq!(out.requests, requests.len());
        prop_assert!(out.last_completion >= out.first_submit);
        if fault_seed.is_none() {
            // A restarted VM's wait is counted again from its original
            // submission at each placement, but its response only once.
            prop_assert!(out.total_response_time >= out.total_wait_time);
        }
        prop_assert!(out.energy >= out.idle_energy - eavm_types::Joules(1e-6));
        prop_assert!(out.peak_servers_busy <= hosts);
        prop_assert!(out.mean_servers_busy() <= hosts as f64 + 1e-9);
        prop_assert!(out.sla_violations <= out.requests);
        let per_type_total: usize = out.per_type_requests.iter().sum();
        prop_assert_eq!(per_type_total, out.requests);
        let per_type_viol: usize = out.per_type_violations.iter().sum();
        prop_assert_eq!(per_type_viol, out.sla_violations);

        if timeline {
            // Intervals are well-formed, per-server ordered and
            // non-overlapping, and cover exactly the busy server-seconds.
            let mut covered = Seconds::ZERO;
            for iv in &out.timeline {
                prop_assert!(iv.end >= iv.start);
                prop_assert!(!iv.mix.is_empty());
                covered += iv.duration();
            }
            prop_assert!(
                (covered.value() - out.busy_server_seconds.value()).abs() < 1e-6,
                "timeline covers {covered}, busy integral {}",
                out.busy_server_seconds
            );
            for si in 0..hosts {
                let tl = out.timeline_of(eavm_types::ServerId::from(si));
                for w in tl.windows(2) {
                    prop_assert!(w[0].end <= w[1].start + Seconds(1e-9));
                }
            }
        } else {
            prop_assert!(out.timeline.is_empty());
        }

        if !migrate {
            prop_assert_eq!(out.migrations, 0);
        }
    }

    /// Backfilling never increases total waiting relative to FIFO for the
    /// same inputs (it only ever starts requests earlier).
    #[test]
    fn backfill_never_hurts_waiting(requests in arb_requests(), servers in 2usize..5) {
        let cloud = CloudConfig::new("BF", servers).unwrap();
        let fifo = Simulation::new(AnalyticModel::reference(), cloud.clone())
            .run(&mut FirstFit::with_multiplex(4, 2), &requests)
            .unwrap();
        let backfill = Simulation::new(AnalyticModel::reference(), cloud)
            .with_backfill(16)
            .run(&mut FirstFit::with_multiplex(4, 2), &requests)
            .unwrap();
        prop_assert_eq!(fifo.vms, backfill.vms);
        // Not a theorem for arbitrary strategies (backfilled VMs add
        // contention that can delay completions), but for slot-counting
        // FF the start times only move earlier; allow a small tolerance
        // for contention-induced completion shifts.
        prop_assert!(
            backfill.total_wait_time <= fifo.total_wait_time * 1.05 + Seconds(1.0),
            "backfill wait {} vs fifo {}",
            backfill.total_wait_time,
            fifo.total_wait_time
        );
    }
}
