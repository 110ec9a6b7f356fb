//! Crash-recovery determinism for the durable allocation service.
//!
//! The headline guarantee of `eavm-durability` + `AllocService::recover`
//! is *bit-exact* resumption: crash the service at ANY write-ahead-log
//! frame boundary, recover from whatever survived on disk (snapshots
//! included), re-drive the remaining traffic, and the reconstructed
//! verdict log is byte-identical to an uncrashed control run. These
//! tests enumerate every truncation point rather than sampling a few —
//! the WAL for the workload below is small enough that exhaustiveness
//! is cheap and it is exactly the property the paper-reproduction
//! pipeline leans on (a multi-day trace replay must be resumable
//! without perturbing a single allocation decision).

use std::path::{Path, PathBuf};
use std::sync::Arc;

use eavm::durability::{read_frames, recover_dir, wal_path, PlacementRec, Wal, WalRecord};
use eavm::faults::WorkerFaultPlan;
use eavm::migrate::ConsolidationConfig;
use eavm::prelude::*;
use eavm::service::{
    drive_paced, replay_online, replay_online_paced, verdict_line, AllocService, DurabilityConfig,
    ServiceConfig,
};
use eavm::telemetry::Telemetry;
use proptest::prelude::*;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eavm-recov-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn request(id: u32, submit: f64, ty: WorkloadType, vms: u32) -> VmRequest {
    VmRequest {
        id: JobId::new(id),
        submit: Seconds(submit),
        workload: ty,
        vm_count: vms,
        deadline: Seconds(1e7),
        priority: Priority::Standard,
    }
}

/// A workload that exercises every WAL record kind on a 2-shard,
/// 4-server fleet (per-server OS bounds: 10 CPU / 4 Mem VMs): local
/// fast-path admissions, a Mem block too big for one shard
/// (cross-shard two-phase commit), wait-queue parking with
/// admit-after-wait during drain, and an unplaceable shed.
fn workload() -> Vec<VmRequest> {
    vec![
        request(0, 0.0, WorkloadType::Cpu, 8),
        request(1, 50.0, WorkloadType::Io, 1),
        // Mem bound is 4 per server, 8 per shard: 10 spans both shards.
        request(2, 100.0, WorkloadType::Mem, 10),
        request(3, 150.0, WorkloadType::Cpu, 9),
        request(4, 200.0, WorkloadType::Cpu, 9),
        request(5, 250.0, WorkloadType::Mem, 2),
        // CPU resident 26 so far; 16 more exceeds the fleet bound of 40
        // until something retires: parked, admitted after wait.
        request(6, 300.0, WorkloadType::Cpu, 16),
        request(7, 350.0, WorkloadType::Io, 2),
        request(8, 400.0, WorkloadType::Cpu, 1),
        request(9, 450.0, WorkloadType::Io, 1),
        // 41 CPU VMs can never fit a 40-slot fleet: shed unplaceable.
        request(10, 500.0, WorkloadType::Cpu, 41),
        request(11, 550.0, WorkloadType::Io, 1),
        request(12, 600.0, WorkloadType::Cpu, 2),
        request(13, 650.0, WorkloadType::Mem, 2),
    ]
}

fn config(dir: &Path) -> ServiceConfig {
    let mut config = ServiceConfig::new(2, 4)
        .with_durability(DurabilityConfig::new(dir.to_path_buf()).with_checkpoint_every(4));
    config.deadlines = [Seconds(1e7), Seconds(1e7), Seconds(1e7)];
    config
}

/// The journaled verdict stream of a directory, stably ordered by
/// ticket (a ticket that was first Queued and later Admitted keeps its
/// two lines in emission order).
fn journal_lines(dir: &Path) -> Vec<(u64, String)> {
    let mut lines = recover_dir(dir).expect("recover_dir").verdict_lines();
    lines.sort_by_key(|(ticket, _)| *ticket);
    lines
}

#[test]
fn recovery_is_bit_exact_at_every_wal_truncation_point() {
    let db = DbBuilder::exact().build().expect("db");
    let requests = workload();

    // Control: one uncrashed paced run under a journal directory.
    let ctrl = tmp("ctrl");
    let report = replay_online_paced(&db, config(&ctrl), &requests).expect("control run");
    let control = journal_lines(&ctrl);

    // The journal reconstructs exactly the verdict stream the live
    // service handed out (same pinned line format, same tickets).
    let mut live: Vec<(u64, String)> = report
        .verdicts
        .iter()
        .map(|(ticket, verdict)| (*ticket, verdict_line(*ticket, verdict)))
        .collect();
    live.sort_by_key(|(ticket, _)| *ticket);
    assert_eq!(control, live, "journal must mirror the live verdict stream");

    // Sanity: the workload really exercised every record kind.
    let joined: String = control.iter().map(|(t, l)| format!("{t} {l}\n")).collect();
    assert!(
        joined.contains("admitted shard="),
        "no local admission:\n{joined}"
    );
    assert!(
        joined.contains("admitted-cross"),
        "no cross-shard commit:\n{joined}"
    );
    assert!(
        joined.contains("queued depth="),
        "no parked request:\n{joined}"
    );
    assert!(
        joined.contains("shed reason=unplaceable"),
        "no shed:\n{joined}"
    );

    let (payloads, torn) = read_frames(&wal_path(&ctrl)).expect("control wal");
    assert_eq!(torn, 0);
    let snapshots: Vec<PathBuf> = std::fs::read_dir(&ctrl)
        .unwrap()
        .filter_map(|e| {
            let path = e.unwrap().path();
            (path.extension().is_some_and(|x| x == "snap")).then_some(path)
        })
        .collect();
    assert!(
        !snapshots.is_empty(),
        "checkpoint_every=4 wrote no snapshots"
    );

    // Crash at EVERY frame boundary: keep the first k frames (plus
    // every control snapshot — snapshots "from the future" relative to
    // the truncated WAL must be skipped, older ones used), recover,
    // re-drive what the crashed process never got to, and demand a
    // byte-identical journal.
    for k in 0..=payloads.len() {
        let dir = tmp(&format!("cut{k}"));
        for snap in &snapshots {
            std::fs::copy(snap, dir.join(snap.file_name().unwrap())).unwrap();
        }
        let (mut wal, _) = Wal::open(&wal_path(&dir)).expect("wal");
        for payload in &payloads[..k] {
            wal.append(payload).expect("append");
        }
        wal.sync().expect("sync");
        drop(wal);

        let (service, report) = AllocService::recover(db.clone(), config(&dir)).expect("recover");
        let resume_from = report.next_ticket as usize;
        assert!(resume_from <= requests.len(), "ticket watermark ran ahead");
        drive_paced(&service, &requests[resume_from..]).expect("re-drive");
        service.drain().expect("drain");
        let _ = service.poll_verdicts();
        service.shutdown().expect("shutdown");

        let recovered = journal_lines(&dir);
        assert_eq!(
            recovered,
            control,
            "verdict log diverged after crash at WAL frame {k}/{}",
            payloads.len()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Like [`config`] but with consolidation sweeps enabled: every 100
/// virtual seconds any host holding at most 2 VMs drains onto best-fit
/// peers (no hysteresis, so every sweep is eligible). Paced submissions
/// below advance virtual time across many epoch boundaries, so sweeps —
/// and the `Migrate` WAL frames they journal *before* executing — are
/// interleaved with admissions, checkpoints, and retirements.
fn consolidated_config(dir: &Path) -> ServiceConfig {
    config(dir).with_consolidation(ConsolidationConfig {
        interval: Seconds(100.0),
        drain_threshold: 2,
        hysteresis_sweeps: 0,
        ..ConsolidationConfig::default()
    })
}

/// A workload whose paced submissions stretch across nine consolidation
/// epochs: an early block of CPU VMs anchors a receiver host while
/// later single-VM arrivals scatter stragglers for the sweeps to
/// harvest (deadlines are far out, so nothing retires mid-run and every
/// journaled move concerns a still-resident VM).
fn consolidating_workload() -> Vec<VmRequest> {
    vec![
        request(0, 0.0, WorkloadType::Cpu, 6),
        request(1, 60.0, WorkloadType::Io, 1),
        request(2, 120.0, WorkloadType::Mem, 1),
        request(3, 240.0, WorkloadType::Io, 1),
        request(4, 360.0, WorkloadType::Cpu, 2),
        request(5, 480.0, WorkloadType::Mem, 10),
        request(6, 600.0, WorkloadType::Cpu, 33),
        request(7, 720.0, WorkloadType::Io, 1),
        request(8, 840.0, WorkloadType::Cpu, 1),
    ]
}

/// Crash-mid-migration byte parity: with consolidation sweeps running
/// between admissions, truncate the WAL at EVERY frame boundary —
/// including boundaries that land between a journaled `Migrate` frame
/// and the sweep that follows it — recover, re-drive, and demand both a
/// byte-identical verdict log and identical consolidation totals. The
/// journal-before-execute discipline is what makes this hold: a sweep's
/// move list is durable before any VM moves, so replay re-executes
/// exactly the journaled schedule instead of re-planning.
#[test]
fn recovery_is_bit_exact_across_consolidation_sweeps() {
    let db = DbBuilder::exact().build().expect("db");
    let requests = consolidating_workload();

    let ctrl = tmp("mig-ctrl");
    let report =
        replay_online_paced(&db, consolidated_config(&ctrl), &requests).expect("control run");
    let control = journal_lines(&ctrl);
    assert!(
        report.stats.consolidation_migrations >= 1,
        "workload never migrated a VM: {:?}",
        report.stats
    );

    let (payloads, torn) = read_frames(&wal_path(&ctrl)).expect("control wal");
    assert_eq!(torn, 0);
    let migrate_frames = payloads
        .iter()
        .filter_map(|p| match WalRecord::decode(p) {
            Ok(WalRecord::Migrate { moves, .. }) => Some(moves.len()),
            _ => None,
        })
        .collect::<Vec<_>>();
    assert!(
        migrate_frames.iter().any(|&moves| moves > 0),
        "no Migrate frame with a non-empty move list was journaled"
    );
    let snapshots: Vec<PathBuf> = std::fs::read_dir(&ctrl)
        .unwrap()
        .filter_map(|e| {
            let path = e.unwrap().path();
            (path.extension().is_some_and(|x| x == "snap")).then_some(path)
        })
        .collect();

    for k in 0..=payloads.len() {
        let dir = tmp(&format!("mig-cut{k}"));
        for snap in &snapshots {
            std::fs::copy(snap, dir.join(snap.file_name().unwrap())).unwrap();
        }
        let (mut wal, _) = Wal::open(&wal_path(&dir)).expect("wal");
        for payload in &payloads[..k] {
            wal.append(payload).expect("append");
        }
        wal.sync().expect("sync");
        drop(wal);

        let (service, rec) =
            AllocService::recover(db.clone(), consolidated_config(&dir)).expect("recover");
        let resume_from = rec.next_ticket as usize;
        drive_paced(&service, &requests[resume_from..]).expect("re-drive");
        service.drain().expect("drain");
        let _ = service.poll_verdicts();
        let stats = service.shutdown().expect("shutdown");

        assert_eq!(
            journal_lines(&dir),
            control,
            "verdict log diverged after crash at WAL frame {k}/{}",
            payloads.len()
        );
        // The consolidation schedule itself converged too: the same
        // sweeps ran, the same VMs moved, the same donors powered down.
        assert_eq!(
            (
                stats.consolidation_sweeps,
                stats.consolidation_migrations,
                stats.consolidation_hosts_drained,
            ),
            (
                report.stats.consolidation_sweeps,
                report.stats.consolidation_migrations,
                report.stats.consolidation_hosts_drained,
            ),
            "consolidation totals diverged after crash at WAL frame {k}/{}",
            payloads.len()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&ctrl);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property: consolidation never creates or destroys a VM, no
    /// matter the sweep regime and no matter which shard workers die
    /// underneath it. Random (interval, threshold, hysteresis) regimes
    /// are crossed with seeded worker-kill plans; throughout, the
    /// coordinator's fleet mirror and the shards' own resident counts
    /// must agree, and every submission must still resolve to exactly
    /// one final verdict.
    #[test]
    fn consolidation_regimes_and_worker_faults_conserve_vms(
        seed in 1u64..u64::MAX,
        interval in 40.0f64..300.0,
        threshold in 1u32..=3,
        hysteresis in 0u32..=2,
        kill_probability in 0.0f64..=0.6,
    ) {
        let db = DbBuilder::exact().build().expect("db");
        let mut config = ServiceConfig::new(2, 6)
            .with_consolidation(ConsolidationConfig {
                interval: Seconds(interval),
                drain_threshold: threshold,
                hysteresis_sweeps: hysteresis,
                ..ConsolidationConfig::default()
            })
            .with_worker_faults(WorkerFaultPlan::generate(seed, 2, kill_probability, 20.0));
        config.deadlines = [Seconds(1e7), Seconds(1e7), Seconds(1e7)];
        let service = AllocService::start(db, config).expect("start");

        let total = 30u32;
        for i in 0..total {
            let ty = WorkloadType::ALL[(i % 3) as usize];
            service.submit(request(i, f64::from(i) * 30.0, ty, 1 + i % 2));
            service.stats().expect("stats");
        }

        // Mid-run, after many sweeps but before anything is forced to
        // retire: the mirror the coordinator plans sweeps against must
        // agree with the shards' ground truth.
        let mid = service.stats().expect("stats");
        let shard_resident: usize = mid.shards.iter().map(|s| s.resident_vms).sum();
        prop_assert_eq!(mid.resident_vms, shard_resident,
            "mirror out of sync with shards mid-run: {:?}", mid);
        prop_assert!(mid.consolidation_sweeps >= 1,
            "interval {} over 870 virtual seconds fired no sweep", interval);

        service.drain().expect("drain");
        let stats = service.shutdown().expect("shutdown");

        // Every submission resolves: nothing lost to a sweep or a
        // worker death, nothing double-counted.
        prop_assert_eq!(
            stats.admitted_local
                + stats.admitted_cross_shard
                + stats.shed_wait_queue
                + stats.shed_unplaceable
                + stats.shed_shard_failure,
            u64::from(total),
            "verdict conservation broken: {:?}", stats
        );
        prop_assert_eq!(stats.parked, 0);
        // A drained host implies at least one executed move.
        prop_assert!(
            stats.consolidation_migrations >= stats.consolidation_hosts_drained,
            "more hosts drained than VMs moved: {:?}", stats
        );
        let shard_resident: usize = stats.shards.iter().map(|s| s.resident_vms).sum();
        prop_assert_eq!(stats.resident_vms, shard_resident);
    }
}

#[test]
fn torn_and_corrupt_tails_are_dropped_without_panicking() {
    let db = DbBuilder::exact().build().expect("db");
    let requests = workload();
    let ctrl = tmp("tear-ctrl");
    replay_online_paced(&db, config(&ctrl), &requests).expect("control run");
    let control = journal_lines(&ctrl);
    let wal_bytes = std::fs::read(wal_path(&ctrl)).unwrap();

    // A half-written frame at the tail (the classic power-cut artifact)
    // is truncated away; recovery then re-executes from the last good
    // frame and still converges to the control log.
    let torn_dir = tmp("torn");
    let mut torn_bytes = wal_bytes.clone();
    torn_bytes.extend_from_slice(&[0x4a, 0x00, 0x00, 0x00, 0xde, 0xad]);
    std::fs::write(wal_path(&torn_dir), &torn_bytes).unwrap();
    let (service, report) = AllocService::recover(db.clone(), config(&torn_dir)).expect("recover");
    assert!(report.torn_frames_dropped >= 1, "torn tail went unnoticed");
    drive_paced(&service, &requests[report.next_ticket as usize..]).expect("re-drive");
    service.drain().expect("drain");
    let stats = service.shutdown().expect("shutdown");
    assert!(stats.durability.torn_frames_dropped >= 1);
    assert_eq!(journal_lines(&torn_dir), control);

    // A bit flip inside the final frame fails its CRC: that frame (and
    // only that frame) is dropped, and recovery re-executes it.
    let flip_dir = tmp("flip");
    let mut flipped = wal_bytes.clone();
    let last = flipped.len() - 1;
    flipped[last] ^= 0xff;
    std::fs::write(wal_path(&flip_dir), &flipped).unwrap();
    let (service, report) = AllocService::recover(db.clone(), config(&flip_dir)).expect("recover");
    assert_eq!(
        report.torn_frames_dropped, 1,
        "CRC failure must drop exactly the final frame"
    );
    drive_paced(&service, &requests[report.next_ticket as usize..]).expect("re-drive");
    service.drain().expect("drain");
    service.shutdown().expect("shutdown");
    assert_eq!(journal_lines(&flip_dir), control);
}

#[test]
fn parked_requests_and_counters_survive_recovery() {
    let db = DbBuilder::exact().build().expect("db");
    let dir = tmp("parked");
    // A fresh config per service instance: recovery models a NEW
    // process, so it must not share the first run's telemetry registry
    // (seeded counters would stack on the live ones).
    let cfg = || {
        let mut cfg = ServiceConfig::new(1, 1)
            .with_durability(DurabilityConfig::new(dir.clone()).with_checkpoint_every(5));
        cfg.deadlines = [Seconds(1e7), Seconds(1e7), Seconds(1e7)];
        cfg
    };

    // Saturate the single server's CPU bound (10), then park one more.
    let service = AllocService::start(db.clone(), cfg()).expect("start");
    for i in 0..11u32 {
        service.submit(request(i, i as f64, WorkloadType::Cpu, 1));
        service.stats().expect("stats");
    }
    let stats = service.stats().expect("stats");
    assert_eq!(stats.parked, 1, "11th VM should be waiting");
    // Shut down WITHOUT draining: the parked request must come back.
    service.shutdown().expect("shutdown");

    let (service, report) = AllocService::recover(db, cfg()).expect("recover");
    assert_eq!(report.restored_parked, 1);
    assert_eq!(report.resident_vms, 10);
    assert_eq!(report.next_ticket, 11);
    assert!(report.summary().contains("restored_parked=1"));
    let stats = service.stats().expect("stats");
    assert_eq!(stats.submitted, 11, "seeded counters lost across recovery");
    assert_eq!(stats.parked, 1);

    // Draining the recovered service retires residents and finally
    // admits the parked request — nothing is lost, nothing doubled.
    service.drain().expect("drain");
    let stats = service.shutdown().expect("shutdown");
    assert_eq!(stats.admitted_after_wait, 1);
    assert_eq!(stats.parked, 0);
    assert_eq!(
        stats.admitted_local + stats.admitted_cross_shard,
        11,
        "every submission must resolve to an admission: {stats:?}"
    );
}

/// Every `.snap` checkpoint file in a journal directory.
fn snapshot_files(dir: &Path) -> Vec<PathBuf> {
    std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| {
            let path = e.unwrap().path();
            (path.extension().is_some_and(|x| x == "snap")).then_some(path)
        })
        .collect()
}

/// Replace a journal directory's WAL with `payloads`, frame by frame.
fn write_wal(dir: &Path, payloads: &[Vec<u8>]) {
    let _ = std::fs::remove_file(wal_path(dir));
    let (mut wal, _) = Wal::open(&wal_path(dir)).expect("wal");
    for payload in payloads {
        wal.append(payload).expect("append");
    }
    wal.sync().expect("sync");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Recovery re-runs the coordinator on its journaled inputs, so it
    /// needs the coordinator to be a deterministic function of them at
    /// any shard count, batch shape and plane mix. An *unpaced* run
    /// forms batches of whatever sat in the mailbox; with its
    /// snapshots deleted, recovery from genesis must re-execute and
    /// verify every WAL frame, diverge nowhere, and leave nothing
    /// unwritten. Recovering from the older of the two kept snapshots
    /// must do the same over its tail (the checkpointed state is
    /// complete).
    #[test]
    fn unpaced_journals_recover_from_genesis_without_divergence(
        shards in 1usize..=4,
        consolidate in proptest::bool::ANY,
        overload in proptest::bool::ANY,
        seed in 0u64..1 << 32,
        trace in proptest::collection::vec((0u32..90, 0usize..3, 1u32..7, 0usize..3), 10..50),
    ) {
        let db = DbBuilder::exact().build().expect("db");
        let mut submit = 0.0;
        let requests: Vec<VmRequest> = trace
            .iter()
            .enumerate()
            .map(|(i, &(gap, ty, vms, class))| {
                submit += f64::from(gap);
                VmRequest {
                    id: JobId::new(i as u32),
                    submit: Seconds(submit),
                    workload: WorkloadType::ALL[ty],
                    vm_count: vms,
                    deadline: Seconds(3000.0),
                    priority: Priority::from_index(class),
                }
            })
            .collect();
        let dir = tmp(&format!("genesis-{shards}-{consolidate}-{overload}-{seed}"));
        let cfg = || {
            let mut cfg = ServiceConfig::new(shards, 8).with_durability(
                DurabilityConfig::new(dir.clone()).with_checkpoint_every(8),
            );
            cfg.queue_capacity = 6;
            if consolidate {
                cfg = cfg.with_consolidation(ConsolidationConfig {
                    interval: Seconds(100.0),
                    drain_threshold: 2,
                    hysteresis_sweeps: 1,
                    ..ConsolidationConfig::default()
                });
            }
            if overload {
                cfg = cfg.with_overload(
                    OverloadConfig {
                        queue_target: 60.0,
                        queue_interval: 60.0,
                        breaker_threshold: 3,
                        breaker_cooldown: 200.0,
                        ..OverloadConfig::default()
                    }
                    .with_breaker_stream(seed, 0.3),
                );
            }
            cfg
        };
        let live = replay_online(&db, cfg(), &requests).expect("unpaced run");
        let mut live_lines: Vec<(u64, String)> = live
            .verdicts
            .iter()
            .map(|(ticket, verdict)| (*ticket, verdict_line(*ticket, verdict)))
            .collect();
        live_lines.sort_by_key(|(ticket, _)| *ticket);
        let (payloads, _) = read_frames(&wal_path(&dir)).expect("wal");
        let mut snapshots = snapshot_files(&dir);
        snapshots.sort();
        let saved: Vec<(PathBuf, Vec<u8>)> = snapshots
            .iter()
            .map(|snap| (snap.clone(), std::fs::read(snap).unwrap()))
            .collect();
        for snap in &snapshots {
            std::fs::remove_file(snap).unwrap();
        }
        // Genesis first, then the older snapshot alone.
        let older = saved.len().checked_sub(2).map(|i| &saved[i]);
        for snapshot in [None, older] {
            if let Some((path, bytes)) = snapshot {
                std::fs::write(path, bytes).unwrap();
            }
            let (service, report) = AllocService::recover(db.clone(), cfg())
                .map_err(|e| TestCaseError(format!("recovery failed: {e}")))?;
            service.shutdown().expect("shutdown");
            if snapshot.is_none() {
                prop_assert_eq!(report.snapshots_loaded, 0);
                prop_assert_eq!(report.frames_replayed, payloads.len() as u64);
            }
            let mut lines = report.verdicts;
            lines.sort_by_key(|(ticket, _)| *ticket);
            prop_assert_eq!(&lines, &live_lines);
            let (after, _) = read_frames(&wal_path(&dir)).expect("wal");
            prop_assert_eq!(&after, &payloads, "recovery appended to a finished journal");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Unpaced parity at every truncation point: the control forms its
/// batches from whatever the submitter had queued, so no re-drive can
/// reproduce its tail — but the round a crash cut short must still be
/// finished exactly as the control finished it. At each cut, recovery
/// succeeds, and the recovered WAL matches the control's frame for
/// frame through the end of the cut round. (A cut inside a run of
/// `Submit` frames leaves a smaller batch, which is a different round:
/// only the frames before the cut are compared then.)
#[test]
fn unpaced_recovery_finishes_the_cut_round_at_every_wal_truncation_point() {
    let db = DbBuilder::exact().build().expect("db");
    let requests = workload();
    let ctrl = tmp("unpaced-ctrl");
    replay_online(&db, config(&ctrl), &requests).expect("control run");
    let (payloads, torn) = read_frames(&wal_path(&ctrl)).expect("control wal");
    assert_eq!(torn, 0);
    let records: Vec<WalRecord> = payloads
        .iter()
        .map(|p| WalRecord::decode(p).expect("decode"))
        .collect();
    let is_submit = |i: usize| matches!(records[i], WalRecord::Submit { .. });
    let round_starts =
        |j: usize| records[j].is_input() && !(j > 0 && is_submit(j) && is_submit(j - 1));
    let snapshots = snapshot_files(&ctrl);

    for k in 0..=payloads.len() {
        let end = if k == 0 || (k < payloads.len() && is_submit(k - 1) && is_submit(k)) {
            k
        } else {
            (k..payloads.len())
                .find(|&j| round_starts(j))
                .unwrap_or(payloads.len())
        };
        let dir = tmp(&format!("unpaced-cut{k}"));
        for snap in &snapshots {
            std::fs::copy(snap, dir.join(snap.file_name().unwrap())).unwrap();
        }
        write_wal(&dir, &payloads[..k]);

        let (service, _) = AllocService::recover(db.clone(), config(&dir))
            .unwrap_or_else(|e| panic!("recovery failed after crash at WAL frame {k}: {e}"));
        service.shutdown().expect("shutdown");
        let (recovered, _) = read_frames(&wal_path(&dir)).expect("recovered wal");
        assert!(
            recovered.len() >= end,
            "cut at {k}: the cut round (through frame {end}) was left unfinished"
        );
        assert_eq!(
            recovered[..end],
            payloads[..end],
            "cut at {k}: the recovered round diverged from the control's"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&ctrl);
}

/// A journal that re-execution does not reproduce fails recovery loudly,
/// naming the frame — it never recovers into a different fleet.
#[test]
fn a_tampered_admission_fails_recovery_naming_its_frame() {
    let db = DbBuilder::exact().build().expect("db");
    let dir = tmp("tampered");
    replay_online_paced(&db, config(&dir), &workload()).expect("control run");
    let (mut payloads, _) = read_frames(&wal_path(&dir)).expect("wal");
    // Move the first local admission's VMs onto another server; the
    // frame is re-encoded, so its CRC is valid.
    let (index, tampered) = payloads
        .iter()
        .enumerate()
        .find_map(|(i, p)| match WalRecord::decode(p) {
            Ok(WalRecord::Admitted {
                ticket,
                shard,
                placements,
            }) => Some((
                i,
                WalRecord::Admitted {
                    ticket,
                    shard,
                    placements: placements
                        .iter()
                        .map(|p| PlacementRec {
                            server: (p.server + 1) % 4,
                            ..*p
                        })
                        .collect(),
                },
            )),
            _ => None,
        })
        .expect("an admission frame");
    payloads[index] = tampered.encode();
    write_wal(&dir, &payloads);
    for snap in snapshot_files(&dir) {
        std::fs::remove_file(snap).unwrap();
    }
    let telemetry = Telemetry::new();
    let err = match AllocService::recover(db, config(&dir).with_telemetry(Arc::clone(&telemetry))) {
        Ok(_) => panic!("recovery accepted a tampered journal"),
        Err(err) => err.to_string(),
    };
    assert!(
        err.contains(&format!("WAL frame {index}:")),
        "error does not name frame {index}: {err}"
    );
    // A divergence is not a disk failure: nothing degrades on the way.
    let metrics = telemetry.snapshot();
    assert_eq!(metrics.counter("service.durability.degraded_entries"), 0);
    assert_eq!(metrics.counter("service.shed.storage_degraded"), 0);
    let events = telemetry.journal().events();
    assert!(
        events.iter().all(|e| !e.message.contains("degraded")),
        "{events:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every checkpoint is complete: a paced run with hysteresis cooldowns
/// and an armed overload plane, whose snapshots are collected as the
/// journal writes them, must recover from *each* one alone — the
/// re-executed tail reproducing every later WAL frame — and end with
/// the control's plane state and consolidation totals.
#[test]
fn every_checkpoint_resumes_the_journal_it_was_cut_from() {
    let db = DbBuilder::exact().build().expect("db");
    let dir = tmp("every-ckpt");
    let kept = tmp("every-ckpt-snaps");
    let cfg = || {
        let mut cfg = ServiceConfig::new(2, 8)
            .with_durability(DurabilityConfig::new(dir.clone()).with_checkpoint_every(3))
            .with_consolidation(ConsolidationConfig {
                interval: Seconds(60.0),
                drain_threshold: 2,
                hysteresis_sweeps: 2,
                ..ConsolidationConfig::default()
            })
            .with_overload(
                OverloadConfig {
                    queue_target: 60.0,
                    queue_interval: 60.0,
                    breaker_threshold: 2,
                    breaker_cooldown: 150.0,
                    ..OverloadConfig::default()
                }
                .with_breaker_stream(11, 0.4),
            );
        cfg.queue_capacity = 4;
        cfg.deadlines = [Seconds(1e7), Seconds(1e7), Seconds(1e7)];
        cfg
    };
    let mut state = 7u64;
    let requests: Vec<VmRequest> = (0..40u32)
        .map(|i| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let draw = (state >> 33) as u32;
            VmRequest {
                id: JobId::new(i),
                submit: Seconds(f64::from(i) * 45.0),
                workload: WorkloadType::ALL[(draw % 3) as usize],
                vm_count: 1 + draw / 3 % 2,
                deadline: Seconds(if i % 5 == 0 { 10.0 } else { 1e7 }),
                priority: Priority::from_index((draw / 12) as usize),
            }
        })
        .collect();

    let service = AllocService::start(db.clone(), cfg()).expect("start");
    for request in &requests {
        service.submit(request.clone());
        service.stats().expect("stats");
        for snap in snapshot_files(&dir) {
            std::fs::copy(&snap, kept.join(snap.file_name().unwrap())).unwrap();
        }
    }
    service.drain().expect("drain");
    let control = service.shutdown().expect("shutdown");
    assert!(
        control.consolidation_migrations >= 1,
        "no VM migrated: {control:?}"
    );
    let (payloads, _) = read_frames(&wal_path(&dir)).expect("wal");
    let lines = journal_lines(&dir);
    let checkpoints = snapshot_files(&kept);
    assert!(
        checkpoints.len() >= 5,
        "only {} checkpoints",
        checkpoints.len()
    );

    for snap in &checkpoints {
        for old in snapshot_files(&dir) {
            std::fs::remove_file(old).unwrap();
        }
        std::fs::copy(snap, dir.join(snap.file_name().unwrap())).unwrap();
        write_wal(&dir, &payloads);
        let (service, report) = AllocService::recover(db.clone(), cfg())
            .unwrap_or_else(|e| panic!("recovery from {} failed: {e}", snap.display()));
        let stats = service.shutdown().expect("shutdown");
        assert_eq!(
            report.snapshots_loaded,
            1,
            "{} was not loaded",
            snap.display()
        );
        assert_eq!(journal_lines(&dir), lines);
        assert_eq!(stats.overload, control.overload, "from {}", snap.display());
        assert_eq!(
            (stats.consolidation_sweeps, stats.consolidation_migrations),
            (
                control.consolidation_sweeps,
                control.consolidation_migrations
            ),
            "from {}",
            snap.display()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&kept);
}

/// The plane's clock is checkpointed state. After a clock advance is
/// checkpointed, a submission stamped earlier than that clock starts
/// the WAL tail; the recovered plane must judge it against the restored
/// clock, not the submission's own time, and end where the control did.
#[test]
fn a_tail_starting_before_the_checkpointed_clock_keeps_the_plane_clock() {
    let db = DbBuilder::exact().build().expect("db");
    let dir = tmp("plane-clock");
    let kept = tmp("plane-clock-snaps");
    let cfg = || {
        let mut cfg = ServiceConfig::new(2, 4)
            .with_durability(DurabilityConfig::new(dir.clone()).with_checkpoint_every(1))
            .with_overload(OverloadConfig::default());
        cfg.deadlines = [Seconds(1e7), Seconds(1e7), Seconds(1e7)];
        cfg
    };
    let service = AllocService::start(db.clone(), cfg()).expect("start");
    service.submit(request(0, 0.0, WorkloadType::Cpu, 1));
    service.advance_to(Seconds(1000.0)).expect("advance");
    service.stats().expect("stats");
    for snap in snapshot_files(&dir) {
        std::fs::copy(&snap, kept.join(snap.file_name().unwrap())).unwrap();
    }
    let mut late = request(1, 0.0, WorkloadType::Io, 1);
    late.deadline = Seconds(10.0);
    service.submit(late);
    service.stats().expect("stats");
    let control = service.shutdown().expect("shutdown");
    let plane = control.overload.clone().expect("overload armed");
    assert_eq!(plane.now, 1000.0, "{plane:?}");

    // Keep only the checkpoints written before the late submission.
    for snap in snapshot_files(&dir) {
        std::fs::remove_file(snap).unwrap();
    }
    for snap in snapshot_files(&kept) {
        std::fs::copy(&snap, dir.join(snap.file_name().unwrap())).unwrap();
    }
    let (service, report) = AllocService::recover(db, cfg()).expect("recover");
    let stats = service.shutdown().expect("shutdown");
    assert_eq!(report.snapshots_loaded, 1);
    assert!(report.frames_replayed >= 2, "{}", report.summary());
    assert_eq!(stats.overload, control.overload);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&kept);
}
