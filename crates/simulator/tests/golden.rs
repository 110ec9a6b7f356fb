//! Golden parity: fixed requests run under every engine feature, each
//! outcome compared against its recorded `Debug` string. `Debug` prints
//! floats as their shortest round-trip form, so equal strings mean
//! bit-identical outcomes: a change to the event loop that moves any
//! energy, time or count by one ulp fails here.
//!
//! The strings were recorded before the event loop's incremental
//! bookkeeping (cached server views, per-server next-finish minima and
//! the per-mix ground-truth table) went in; they must not be
//! re-recorded to make a change pass.

use eavm_benchdb::DbBuilder;
use eavm_core::{AnalyticModel, DbModel, FirstFit, OptimizationGoal, Proactive};
use eavm_faults::{FaultConfig, FaultPlan, SplitMix64};
use eavm_simulator::{CloudConfig, MigrationConfig, MigrationWindow, SimOutcome, Simulation};
use eavm_swf::{Priority, VmRequest};
use eavm_testbed::{BenchmarkSuite, ContentionModel, ServerSpec};
use eavm_types::{JobId, MixVector, Seconds, WorkloadType};

/// 40 requests from a fixed stream: gaps of 0–300 s (every fifth one
/// shares its predecessor's instant and type, so bursts form), 1–4 VMs,
/// and deadlines from 0.8× to 4× the solo runtime, so some miss.
fn requests() -> Vec<VmRequest> {
    let mut rng = SplitMix64::new(0x601D);
    let mut t = 0.0;
    let mut prev = WorkloadType::Cpu;
    (0..40u32)
        .map(|i| {
            let burst = i % 5 == 4;
            if !burst {
                t += (rng.next_f64() * 300.0).floor();
            }
            let ty = if burst {
                prev
            } else {
                WorkloadType::from_index((rng.next_u64() % 3) as usize)
            };
            prev = ty;
            VmRequest {
                id: JobId::from(i),
                submit: Seconds(t),
                workload: ty,
                vm_count: 1 + (rng.next_u64() % 4) as u32,
                deadline: Seconds(1_200.0 * (0.8 + rng.next_f64() * 3.2)),
                priority: Priority::Standard,
            }
        })
        .collect()
}

fn sim(servers: usize) -> Simulation<AnalyticModel> {
    Simulation::new(
        AnalyticModel::reference(),
        CloudConfig::new("GOLDEN", servers).unwrap(),
    )
}

fn ff2() -> FirstFit {
    FirstFit::with_multiplex(4, 2)
}

fn pa() -> Proactive<DbModel> {
    let db = DbModel::new(DbBuilder::exact().build().unwrap());
    let deadlines = [Seconds(4800.0), Seconds(4000.0), Seconds(3600.0)];
    Proactive::new(db, OptimizationGoal::BALANCED, deadlines)
}

fn migration() -> MigrationConfig {
    MigrationConfig {
        check_interval: Seconds(400.0),
        hysteresis_sweeps: 0,
        ..Default::default()
    }
}

fn check(name: &str, out: SimOutcome) {
    let want = GOLDEN
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("no golden string for {name}"))
        .1;
    assert_eq!(
        format!("{out:?}"),
        want,
        "{name} drifted from its golden outcome"
    );
}

#[test]
fn fifo_first_fit() {
    check("fifo_ff", sim(4).run(&mut ff2(), &requests()).unwrap());
}

#[test]
fn fifo_proactive() {
    check("fifo_pa", sim(5).run(&mut pa(), &requests()).unwrap());
}

#[test]
fn backfill() {
    let out = sim(3)
        .with_backfill(4)
        .run(&mut ff2(), &requests())
        .unwrap();
    check("backfill", out);
}

#[test]
fn edf() {
    check(
        "edf",
        sim(3).with_edf().run(&mut ff2(), &requests()).unwrap(),
    );
}

#[test]
fn burst_proactive() {
    let out = sim(4)
        .with_burst_allocation()
        .run(&mut pa(), &requests())
        .unwrap();
    check("burst_pa", out);
}

#[test]
fn run_wide_migration() {
    let out = sim(5)
        .with_migration(migration())
        .run(&mut ff2(), &requests())
        .unwrap();
    assert!(out.migrations > 0, "the sweep must move something");
    check("migration", out);
}

#[test]
fn migration_windows() {
    let windows = vec![
        MigrationWindow {
            start: Seconds(0.0),
            end: Seconds(6_000.0),
            config: migration(),
        },
        MigrationWindow {
            start: Seconds(8_000.0),
            end: Seconds(20_000.0),
            config: MigrationConfig {
                max_donor_vms: 3,
                ..migration()
            },
        },
    ];
    let out = sim(5)
        .with_migration_windows(windows)
        .run(&mut ff2(), &requests())
        .unwrap();
    assert!(out.migrations > 0, "a window must sweep");
    check("migration_windows", out);
}

#[test]
fn seeded_faults() {
    let plan = FaultPlan::generate(&FaultConfig::uniform(11, 1.0), 5, 20_000.0);
    assert!(plan.crash_count() > 0 && plan.degrade_count() > 0);
    let out = sim(5)
        .with_faults(plan)
        .run(&mut ff2(), &requests())
        .unwrap();
    assert!(out.host_crashes > 0 && out.host_degradations > 0 && out.vms_killed > 0);
    check("faults", out);
}

#[test]
fn extra_platform() {
    let big = AnalyticModel::new(
        ServerSpec::big_node(),
        ContentionModel::default(),
        &BenchmarkSuite::standard(),
        MixVector::new(24, 24, 24),
    );
    let out = sim(2)
        .with_platform(big, 2)
        .run(&mut ff2(), &requests())
        .unwrap();
    check("extra_platform", out);
}

#[test]
fn always_on_fleet() {
    let out = sim(4)
        .with_always_on_fleet()
        .run(&mut ff2(), &requests())
        .unwrap();
    check("always_on", out);
}

#[test]
fn timeline() {
    let out = sim(3)
        .with_timeline()
        .run(&mut FirstFit::ff(4), &requests()[..12])
        .unwrap();
    check("timeline", out);
}

const GOLDEN: &[(&str, &str)] = &[
    ("fifo_ff", "SimOutcome { strategy: \"FF-2\", cloud: \"GOLDEN\", requests: 40, vms: 103, first_submit: Seconds(105.0), last_completion: Seconds(17428.06126542981), energy: Joules(13800714.290466582), idle_energy: Joules(7185802.410434639), sla_violations: 33, total_response_time: Seconds(764325.8590328775), total_wait_time: Seconds(331613.7695176978), peak_servers_busy: 4, migrations: 0, migrated_mb: 0.0, migration_downtime: Seconds(0.0), hosts_powered_down: 0, per_type_violations: [7, 14, 12], per_type_requests: [9, 14, 17], busy_server_seconds: Seconds(57486.41928347712), host_crashes: 0, host_degradations: 0, vms_killed: 0, vms_restarted: 0, lost_work: Seconds(0.0), restart_energy: Joules(0.0), timeline: [] }"),
    ("fifo_pa", "SimOutcome { strategy: \"PA-0.5\", cloud: \"GOLDEN\", requests: 40, vms: 103, first_submit: Seconds(105.0), last_completion: Seconds(9160.345484534917), energy: Joules(9049608.466360608), idle_energy: Joules(4754251.365183242), sla_violations: 25, total_response_time: Seconds(339640.0491231355), total_wait_time: Seconds(67169.31048739827), peak_servers_busy: 5, migrations: 0, migrated_mb: 0.0, migration_downtime: Seconds(0.0), hosts_powered_down: 0, per_type_violations: [7, 9, 9], per_type_requests: [9, 14, 17], busy_server_seconds: Seconds(38034.01092146596), host_crashes: 0, host_degradations: 0, vms_killed: 0, vms_restarted: 0, lost_work: Seconds(0.0), restart_energy: Joules(0.0), timeline: [] }"),
    ("backfill", "SimOutcome { strategy: \"FF-2\", cloud: \"GOLDEN\", requests: 40, vms: 103, first_submit: Seconds(105.0), last_completion: Seconds(29073.633174627757), energy: Joules(15976765.602363676), idle_energy: Joules(8234007.616271661), sla_violations: 34, total_response_time: Seconds(1053167.3707629414), total_wait_time: Seconds(541362.1417947586), peak_servers_busy: 3, migrations: 0, migrated_mb: 0.0, migration_downtime: Seconds(0.0), hosts_powered_down: 0, per_type_violations: [8, 14, 12], per_type_requests: [9, 14, 17], busy_server_seconds: Seconds(65872.06093017325), host_crashes: 0, host_degradations: 0, vms_killed: 0, vms_restarted: 0, lost_work: Seconds(0.0), restart_energy: Joules(0.0), timeline: [] }"),
    ("edf", "SimOutcome { strategy: \"FF-2\", cloud: \"GOLDEN\", requests: 40, vms: 103, first_submit: Seconds(105.0), last_completion: Seconds(21180.007336875555), energy: Joules(13292793.831264205), idle_energy: Joules(6853031.537921941), sla_violations: 34, total_response_time: Seconds(927960.2680779023), total_wait_time: Seconds(512114.1357306183), peak_servers_busy: 3, migrations: 0, migrated_mb: 0.0, migration_downtime: Seconds(0.0), hosts_powered_down: 0, per_type_violations: [8, 14, 12], per_type_requests: [9, 14, 17], busy_server_seconds: Seconds(54824.25230337557), host_crashes: 0, host_degradations: 0, vms_killed: 0, vms_restarted: 0, lost_work: Seconds(0.0), restart_energy: Joules(0.0), timeline: [] }"),
    ("burst_pa", "SimOutcome { strategy: \"PA-0.5\", cloud: \"GOLDEN\", requests: 40, vms: 103, first_submit: Seconds(105.0), last_completion: Seconds(10002.930362574956), energy: Joules(8275718.176969584), idle_energy: Joules(4381024.641698869), sla_violations: 23, total_response_time: Seconds(353791.6298097219), total_wait_time: Seconds(106406.02079759497), peak_servers_busy: 4, migrations: 0, migrated_mb: 0.0, migration_downtime: Seconds(0.0), hosts_powered_down: 0, per_type_violations: [7, 9, 7], per_type_requests: [9, 14, 17], busy_server_seconds: Seconds(35048.19713359095), host_crashes: 0, host_degradations: 0, vms_killed: 0, vms_restarted: 0, lost_work: Seconds(0.0), restart_energy: Joules(0.0), timeline: [] }"),
    ("migration", "SimOutcome { strategy: \"FF-2\", cloud: \"GOLDEN\", requests: 40, vms: 103, first_submit: Seconds(105.0), last_completion: Seconds(14950.477222505215), energy: Joules(14737401.993948394), idle_energy: Joules(7606181.051488915), sla_violations: 32, total_response_time: Seconds(622542.5523617015), total_wait_time: Seconds(167219.17908816476), peak_servers_busy: 5, migrations: 2, migrated_mb: 2910.2080000000005, migration_downtime: Seconds(0.45875200000000005), hosts_powered_down: 1, per_type_violations: [7, 14, 11], per_type_requests: [9, 14, 17], busy_server_seconds: Seconds(60849.44841191122), host_crashes: 0, host_degradations: 0, vms_killed: 0, vms_restarted: 0, lost_work: Seconds(0.0), restart_energy: Joules(0.0), timeline: [] }"),
    ("migration_windows", "SimOutcome { strategy: \"FF-2\", cloud: \"GOLDEN\", requests: 40, vms: 103, first_submit: Seconds(105.0), last_completion: Seconds(14950.477222505215), energy: Joules(14737401.993948394), idle_energy: Joules(7606181.051488915), sla_violations: 32, total_response_time: Seconds(622542.5523617015), total_wait_time: Seconds(167219.17908816476), peak_servers_busy: 5, migrations: 2, migrated_mb: 2910.2080000000005, migration_downtime: Seconds(0.45875200000000005), hosts_powered_down: 1, per_type_violations: [7, 14, 11], per_type_requests: [9, 14, 17], busy_server_seconds: Seconds(60849.44841191122), host_crashes: 0, host_degradations: 0, vms_killed: 0, vms_restarted: 0, lost_work: Seconds(0.0), restart_energy: Joules(0.0), timeline: [] }"),
    ("faults", "SimOutcome { strategy: \"FF-2\", cloud: \"GOLDEN\", requests: 40, vms: 204, first_submit: Seconds(105.0), last_completion: Seconds(33511.61955295219), energy: Joules(21870561.440188166), idle_energy: Joules(11234731.98074828), sla_violations: 32, total_response_time: Seconds(1156775.8866246198), total_wait_time: Seconds(1357577.73756506), peak_servers_busy: 5, migrations: 0, migrated_mb: 0.0, migration_downtime: Seconds(0.0), hosts_powered_down: 0, per_type_violations: [7, 14, 11], per_type_requests: [9, 14, 17], busy_server_seconds: Seconds(89877.85584598625), host_crashes: 30, host_degradations: 30, vms_killed: 101, vms_restarted: 101, lost_work: Seconds(30533.27458953624), restart_energy: Joules(4511057.217787631), timeline: [] }"),
    ("extra_platform", "SimOutcome { strategy: \"FF-2\", cloud: \"GOLDEN\", requests: 40, vms: 103, first_submit: Seconds(105.0), last_completion: Seconds(13680.4411465174), energy: Joules(12458768.31850525), idle_energy: Joules(6377395.166214699), sla_violations: 25, total_response_time: Seconds(460032.96313094953), total_wait_time: Seconds(34535.2964638793), peak_servers_busy: 4, migrations: 0, migrated_mb: 0.0, migration_downtime: Seconds(0.0), hosts_powered_down: 0, per_type_violations: [6, 11, 8], per_type_requests: [9, 14, 17], busy_server_seconds: Seconds(37647.4360496091), host_crashes: 0, host_degradations: 0, vms_killed: 0, vms_restarted: 0, lost_work: Seconds(0.0), restart_energy: Joules(0.0), timeline: [] }"),
    ("always_on", "SimOutcome { strategy: \"FF-2\", cloud: \"GOLDEN\", requests: 40, vms: 103, first_submit: Seconds(105.0), last_completion: Seconds(17428.06126542981), energy: Joules(15276442.512746854), idle_energy: Joules(8661530.632714905), sla_violations: 33, total_response_time: Seconds(764325.8590328775), total_wait_time: Seconds(331613.7695176978), peak_servers_busy: 4, migrations: 0, migrated_mb: 0.0, migration_downtime: Seconds(0.0), hosts_powered_down: 0, per_type_violations: [7, 14, 12], per_type_requests: [9, 14, 17], busy_server_seconds: Seconds(57486.41928347712), host_crashes: 0, host_degradations: 0, vms_killed: 0, vms_restarted: 0, lost_work: Seconds(0.0), restart_energy: Joules(0.0), timeline: [] }"),
    ("timeline", "SimOutcome { strategy: \"FF\", cloud: \"GOLDEN\", requests: 12, vms: 31, first_submit: Seconds(105.0), last_completion: Seconds(3824.3607876237643), energy: Joules(1855115.5927571636), idle_energy: Joules(1203790.2047435336), sla_violations: 3, total_response_time: Seconds(60748.68270694222), total_wait_time: Seconds(24780.434340349566), peak_servers_busy: 3, migrations: 0, migrated_mb: 0.0, migration_downtime: Seconds(0.0), hosts_powered_down: 0, per_type_violations: [0, 1, 2], per_type_requests: [1, 4, 7], busy_server_seconds: Seconds(9630.321637948267), host_crashes: 0, host_degradations: 0, vms_killed: 0, vms_restarted: 0, lost_work: Seconds(0.0), restart_energy: Joules(0.0), timeline: [AllocationInterval { server: ServerId(0), start: Seconds(105.0), end: Seconds(133.0), mix: MixVector { cpu: 2, mem: 0, io: 0 } }, AllocationInterval { server: ServerId(0), start: Seconds(133.0), end: Seconds(230.0), mix: MixVector { cpu: 2, mem: 0, io: 1 } }, AllocationInterval { server: ServerId(1), start: Seconds(243.0), end: Seconds(308.0), mix: MixVector { cpu: 0, mem: 0, io: 3 } }, AllocationInterval { server: ServerId(0), start: Seconds(230.0), end: Seconds(1176.6936936936936), mix: MixVector { cpu: 2, mem: 1, io: 1 } }, AllocationInterval { server: ServerId(1), start: Seconds(308.0), end: Seconds(1321.4233369084202), mix: MixVector { cpu: 0, mem: 1, io: 3 } }, AllocationInterval { server: ServerId(0), start: Seconds(1176.6936936936936), end: Seconds(1321.4233369084202), mix: MixVector { cpu: 2, mem: 1, io: 0 } }, AllocationInterval { server: ServerId(1), start: Seconds(1321.4233369084202), end: Seconds(1321.4233369084202), mix: MixVector { cpu: 0, mem: 1, io: 0 } }, AllocationInterval { server: ServerId(0), start: Seconds(1321.4233369084202), end: Seconds(1387.828711372243), mix: MixVector { cpu: 2, mem: 2, io: 0 } }, AllocationInterval { server: ServerId(1), start: Seconds(1321.4233369084202), end: Seconds(1480.6523518585177), mix: MixVector { cpu: 0, mem: 3, io: 0 } }, AllocationInterval { server: ServerId(0), start: Seconds(1387.828711372243), end: Seconds(1480.6523518585177), mix: MixVector { cpu: 2, mem: 1, io: 0 } }, AllocationInterval { server: ServerId(1), start: Seconds(1480.6523518585177), end: Seconds(1480.6523518585177), mix: MixVector { cpu: 0, mem: 2, io: 0 } }, AllocationInterval { server: ServerId(2), start: Seconds(308.0), end: Seconds(1480.6523518585177), mix: MixVector { cpu: 0, mem: 3, io: 0 } }, AllocationInterval { server: ServerId(0), start: Seconds(1480.6523518585177), end: Seconds(1483.5036042126721), mix: MixVector { cpu: 2, mem: 1, io: 1 } }, AllocationInterval { server: ServerId(0), start: Seconds(1483.5036042126721), end: Seconds(1483.5036042126721), mix: MixVector { cpu: 0, mem: 1, io: 1 } }, AllocationInterval { server: ServerId(2), start: Seconds(1480.6523518585177), end: Seconds(1486.2332875663642), mix: MixVector { cpu: 0, mem: 3, io: 1 } }, AllocationInterval { server: ServerId(0), start: Seconds(1483.5036042126721), end: Seconds(1486.2332875663642), mix: MixVector { cpu: 0, mem: 1, io: 2 } }, AllocationInterval { server: ServerId(2), start: Seconds(1486.2332875663642), end: Seconds(1486.2332875663642), mix: MixVector { cpu: 0, mem: 0, io: 1 } }, AllocationInterval { server: ServerId(0), start: Seconds(1486.2332875663642), end: Seconds(2487.537013377166), mix: MixVector { cpu: 0, mem: 1, io: 3 } }, AllocationInterval { server: ServerId(1), start: Seconds(1480.6523518585177), end: Seconds(2488.156601301461), mix: MixVector { cpu: 0, mem: 2, io: 2 } }, AllocationInterval { server: ServerId(1), start: Seconds(2488.156601301461), end: Seconds(2525.2815084582808), mix: MixVector { cpu: 0, mem: 0, io: 2 } }, AllocationInterval { server: ServerId(0), start: Seconds(2487.537013377166), end: Seconds(2525.2815084582808), mix: MixVector { cpu: 0, mem: 0, io: 3 } }, AllocationInterval { server: ServerId(0), start: Seconds(2525.2815084582808), end: Seconds(2566.142603121975), mix: MixVector { cpu: 0, mem: 0, io: 4 } }, AllocationInterval { server: ServerId(0), start: Seconds(2566.142603121975), end: Seconds(2568.903604696644), mix: MixVector { cpu: 0, mem: 0, io: 3 } }, AllocationInterval { server: ServerId(0), start: Seconds(2568.903604696644), end: Seconds(2571.498033469748), mix: MixVector { cpu: 0, mem: 0, io: 2 } }, AllocationInterval { server: ServerId(0), start: Seconds(2571.498033469748), end: Seconds(2571.498033469748), mix: MixVector { cpu: 0, mem: 0, io: 1 } }, AllocationInterval { server: ServerId(1), start: Seconds(2525.2815084582808), end: Seconds(2571.498033469748), mix: MixVector { cpu: 0, mem: 0, io: 3 } }, AllocationInterval { server: ServerId(2), start: Seconds(1486.2332875663642), end: Seconds(2733.546525041098), mix: MixVector { cpu: 0, mem: 0, io: 4 } }, AllocationInterval { server: ServerId(2), start: Seconds(2733.546525041098), end: Seconds(2738.912574117658), mix: MixVector { cpu: 0, mem: 0, io: 3 } }, AllocationInterval { server: ServerId(0), start: Seconds(2571.498033469748), end: Seconds(3587.3016606104165), mix: MixVector { cpu: 0, mem: 3, io: 1 } }, AllocationInterval { server: ServerId(1), start: Seconds(2571.498033469748), end: Seconds(3604.9522823001407), mix: MixVector { cpu: 0, mem: 1, io: 3 } }, AllocationInterval { server: ServerId(1), start: Seconds(3604.9522823001407), end: Seconds(3723.0482762068464), mix: MixVector { cpu: 0, mem: 1, io: 0 } }, AllocationInterval { server: ServerId(0), start: Seconds(3587.3016606104165), end: Seconds(3824.3607876237643), mix: MixVector { cpu: 0, mem: 3, io: 0 } }] }"),
];
