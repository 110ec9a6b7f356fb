//! Durability wiring: the bridge between the service's live types and
//! `eavm-durability`'s primitive WAL/snapshot records.
//!
//! Two responsibilities live here:
//!
//! * `Journal` — the coordinator's handle on the write-ahead log:
//!   journal-before-ack appends, checkpoint cadence, snapshot writes,
//!   the injected [`CrashSchedule`] that aborts the process after a
//!   chosen number of events became durable, and *verify mode*. A
//!   recovering journal starts with its cursor at the snapshot's
//!   coverage: it hands the coordinator the journaled inputs of the WAL
//!   tail, and every record the re-executing coordinator appends is
//!   compared byte for byte with the frame already on disk. Only once
//!   the cursor passes the end of the WAL does it append for real.
//! * Type conversions — `VmRequest`/`Placement`/[`Verdict`] and the
//!   checkpointed controller state to and from the primitive records,
//!   including [`verdict_line`], the *single* rendering both live
//!   services and WAL readers use (which is what makes "verdict-log
//!   byte equality" a meaningful acceptance test).

use std::path::PathBuf;

use eavm_core::{Placement, RequestView};
use eavm_durability::{
    prune_snapshots_with, sweep_tmp_files_with, wal_path, write_snapshot_with, OverloadRec,
    PlacementRec, RecoveredState, ReqRec, ServerSnapRec, ShardSnapRec, SnapshotRec, Wal, WalRecord,
};
use eavm_faults::CrashSchedule;
use eavm_overload::{BreakerState, OverloadSnapshot, Priority};
use eavm_storage::{FaultyStorage, OsStorage, Storage, StorageFaultConfig, StorageStats};
use eavm_swf::VmRequest;
use eavm_telemetry::{Counter, Telemetry};
use eavm_types::{EavmError, JobId, Joules, Seconds, ServerId, WorkloadType};

use crate::service::{Input, Verdict};
use crate::shard::ShardDump;

/// Durability knobs hung off `ServiceConfig`.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Journal directory: holds `wal.log` plus checkpoint snapshots.
    pub dir: PathBuf,
    /// Write a checkpoint snapshot every this many WAL appends (≥ 1).
    pub checkpoint_every: u64,
    /// Injected process crash after N durable journal events (testing
    /// and chaos drills only): the process aborts *after* fsyncing the
    /// triggering frame, so recovery always sees it.
    pub crash: Option<CrashSchedule>,
    /// Extra in-process retries for a failed WAL append (with a
    /// torn-tail repair between attempts) before the coordinator gives
    /// up and enters read-only degraded mode. Total attempts per record
    /// are `1 + append_retries`.
    pub append_retries: u32,
    /// Consecutive checkpoint failures tolerated — each widening the
    /// cadence with a doubling backoff — before snapshots are disabled
    /// for the rest of the process (WAL-only mode).
    pub checkpoint_retry_budget: u32,
    /// Run the offline scrubber over the journal directory before
    /// recovery: repairs torn WAL tails and quarantines corrupt
    /// snapshot files instead of merely skipping them.
    pub scrub_on_recover: bool,
    /// Deterministic storage-fault injection for every journal file
    /// operation; `None` is a plain OS passthrough.
    pub storage_faults: Option<StorageFaultConfig>,
}

impl DurabilityConfig {
    /// Journal into `dir` with the default checkpoint cadence (256).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            checkpoint_every: 256,
            crash: None,
            append_retries: 2,
            checkpoint_retry_budget: 3,
            scrub_on_recover: false,
            storage_faults: None,
        }
    }

    /// Change the checkpoint cadence (clamped to at least 1).
    pub fn with_checkpoint_every(mut self, every: u64) -> Self {
        self.checkpoint_every = every.max(1);
        self
    }

    /// Arm an injected process crash.
    pub fn with_crash(mut self, crash: CrashSchedule) -> Self {
        self.crash = Some(crash);
        self
    }

    /// Change the per-record append retry allowance.
    pub fn with_append_retries(mut self, retries: u32) -> Self {
        self.append_retries = retries;
        self
    }

    /// Change the consecutive-checkpoint-failure budget.
    pub fn with_checkpoint_retry_budget(mut self, budget: u32) -> Self {
        self.checkpoint_retry_budget = budget;
        self
    }

    /// Scrub (repair + quarantine) the journal directory before
    /// recovering from it.
    pub fn with_scrub_on_recover(mut self) -> Self {
        self.scrub_on_recover = true;
        self
    }

    /// Arm deterministic storage-fault injection.
    pub fn with_storage_faults(mut self, faults: StorageFaultConfig) -> Self {
        self.storage_faults = Some(faults);
        self
    }
}

/// The storage backend a [`DurabilityConfig`] asks for: the seeded
/// fault injector when faults are armed, the OS passthrough otherwise.
pub(crate) fn make_storage(cfg: &DurabilityConfig) -> Box<dyn Storage> {
    match cfg.storage_faults {
        Some(faults) if !faults.is_quiet() => Box::new(FaultyStorage::new(faults)),
        _ => Box::new(OsStorage::new()),
    }
}

/// Durability counters surfaced in `ServiceStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurabilityStats {
    /// WAL frames appended by this process.
    pub wal_appends: u64,
    /// Checkpoint snapshots written by this process.
    pub snapshots_written: u64,
    /// WAL frames re-executed and verified on top of the snapshot
    /// during recovery.
    pub frames_replayed: u64,
    /// Snapshots loaded during recovery (0 or 1).
    pub snapshots_loaded: u64,
    /// Torn or corrupt trailing frames dropped during recovery.
    pub torn_frames_dropped: u64,
    /// WAL appends that failed (each retry attempt counts).
    pub append_failures: u64,
    /// Checkpoint writes that failed (snapshot skipped, WAL retained).
    pub checkpoint_failures: u64,
    /// Times the service entered a degraded mode: WAL-only after a
    /// checkpoint failure, read-only after append retries ran dry.
    pub degraded_entries: u64,
    /// Torn WAL tails truncated back to a valid boundary (at open,
    /// between append retries, or by a pre-recovery scrub).
    pub torn_tails_repaired: u64,
    /// Corrupt snapshot files quarantined by a pre-recovery scrub.
    pub snapshots_quarantined: u64,
    /// Faults the storage backend injected (0 without injection).
    pub storage_faults_injected: u64,
    /// Directory fsyncs that failed after a snapshot rename (counted,
    /// never hidden: the rename itself still happened).
    pub dir_sync_failures: u64,
    /// Leftover checkpoint `*.tmp` files swept at open or recovery.
    pub tmp_swept: u64,
}

/// Live counter handles behind [`DurabilityStats`]; registry-backed
/// when telemetry is enabled, private standalone counters otherwise.
#[derive(Debug, Clone)]
pub(crate) struct DurInstruments {
    pub wal_appends: Counter,
    pub snapshots_written: Counter,
    pub frames_replayed: Counter,
    pub snapshots_loaded: Counter,
    pub torn_frames_dropped: Counter,
    pub append_failures: Counter,
    pub checkpoint_failures: Counter,
    pub degraded_entries: Counter,
    pub torn_tails_repaired: Counter,
    pub snapshots_quarantined: Counter,
    pub storage_faults_injected: Counter,
    pub dir_sync_failures: Counter,
    pub tmp_swept: Counter,
}

impl DurInstruments {
    pub(crate) fn new(telemetry: &Telemetry) -> Self {
        if telemetry.is_enabled() {
            DurInstruments {
                wal_appends: telemetry.counter("service.durability.wal_appends"),
                snapshots_written: telemetry.counter("service.durability.snapshots_written"),
                frames_replayed: telemetry.counter("service.durability.frames_replayed"),
                snapshots_loaded: telemetry.counter("service.durability.snapshots_loaded"),
                torn_frames_dropped: telemetry.counter("service.durability.torn_frames_dropped"),
                append_failures: telemetry.counter("service.durability.append_failures"),
                checkpoint_failures: telemetry.counter("service.durability.checkpoint_failures"),
                degraded_entries: telemetry.counter("service.durability.degraded_entries"),
                torn_tails_repaired: telemetry.counter("service.durability.torn_tails_repaired"),
                snapshots_quarantined: telemetry
                    .counter("service.durability.snapshots_quarantined"),
                storage_faults_injected: telemetry
                    .counter("service.durability.storage_faults_injected"),
                dir_sync_failures: telemetry.counter("service.durability.dir_sync_failures"),
                tmp_swept: telemetry.counter("service.durability.tmp_swept"),
            }
        } else {
            DurInstruments {
                wal_appends: Counter::standalone(),
                snapshots_written: Counter::standalone(),
                frames_replayed: Counter::standalone(),
                snapshots_loaded: Counter::standalone(),
                torn_frames_dropped: Counter::standalone(),
                append_failures: Counter::standalone(),
                checkpoint_failures: Counter::standalone(),
                degraded_entries: Counter::standalone(),
                torn_tails_repaired: Counter::standalone(),
                snapshots_quarantined: Counter::standalone(),
                storage_faults_injected: Counter::standalone(),
                dir_sync_failures: Counter::standalone(),
                tmp_swept: Counter::standalone(),
            }
        }
    }

    pub(crate) fn stats(&self) -> DurabilityStats {
        DurabilityStats {
            wal_appends: self.wal_appends.get(),
            snapshots_written: self.snapshots_written.get(),
            frames_replayed: self.frames_replayed.get(),
            snapshots_loaded: self.snapshots_loaded.get(),
            torn_frames_dropped: self.torn_frames_dropped.get(),
            append_failures: self.append_failures.get(),
            checkpoint_failures: self.checkpoint_failures.get(),
            degraded_entries: self.degraded_entries.get(),
            torn_tails_repaired: self.torn_tails_repaired.get(),
            snapshots_quarantined: self.snapshots_quarantined.get(),
            storage_faults_injected: self.storage_faults_injected.get(),
            dir_sync_failures: self.dir_sync_failures.get(),
            tmp_swept: self.tmp_swept.get(),
        }
    }
}

/// Checkpoint files kept per journal directory (newest N).
const SNAPSHOTS_KEPT: usize = 2;

/// The coordinator's write side of the journal.
pub(crate) struct Journal {
    storage: Box<dyn Storage>,
    wal: Wal,
    dir: PathBuf,
    checkpoint_every: u64,
    /// Appends before the next checkpoint attempt; equals
    /// `checkpoint_every` when healthy, doubles per consecutive failure
    /// (capped) so a sick disk is not hammered every cadence.
    checkpoint_wait: u64,
    since_checkpoint: u64,
    checkpoint_failure_streak: u32,
    /// Cleared after `checkpoint_retry_budget` consecutive failures:
    /// WAL-only for the rest of the process.
    snapshots_enabled: bool,
    append_retries: u32,
    checkpoint_retry_budget: u32,
    next_seq: u64,
    /// Frames appended by *this process* — the crash schedule counts
    /// these, not the historical frames a recovered WAL already held.
    appended: u64,
    crash: Option<CrashSchedule>,
    /// Verify mode: the WAL tail a recovering journal found on disk,
    /// starting at frame index `replay_base`. While `cursor` is behind
    /// its end, appends are compared with these records, not written.
    replay: Vec<WalRecord>,
    replay_base: usize,
    cursor: usize,
    /// The first mismatch verify mode found.
    divergence: Option<String>,
    /// Backend counters already published to the instruments; the delta
    /// since this baseline is what each publish adds.
    published: StorageStats,
    instruments: DurInstruments,
}

impl Journal {
    /// Open (or create) the journal under `cfg.dir`. A fresh start
    /// (`state == None`) on a directory that already holds WAL frames is
    /// refused: silently appending a second history onto the first would
    /// make the log unrecoverable — the caller must recover instead. A
    /// recovering journal (`state` given) opens in verify mode over the
    /// state's WAL tail.
    pub(crate) fn open(
        cfg: &DurabilityConfig,
        state: Option<&RecoveredState>,
        instruments: &DurInstruments,
    ) -> Result<Journal, EavmError> {
        let storage = make_storage(cfg);
        storage.create_dir_all(&cfg.dir)?;
        let swept = sweep_tmp_files_with(storage.as_ref(), &cfg.dir)?;
        instruments.tmp_swept.add(swept);
        let (wal, _torn) = Wal::open_with(storage.as_ref(), &wal_path(&cfg.dir))?;
        if wal.torn_bytes_dropped() > 0 {
            instruments.torn_tails_repaired.add(1);
        }
        if state.is_none() && wal.frames() > 0 {
            return Err(EavmError::InvalidConfig(format!(
                "journal directory {} already holds {} WAL frames; recover instead of starting fresh",
                cfg.dir.display(),
                wal.frames()
            )));
        }
        let next_seq = state
            .and_then(|s| s.snapshot.as_ref())
            .map(|s| s.seq + 1)
            .unwrap_or(1);
        let mut journal = Journal {
            storage,
            wal,
            dir: cfg.dir.clone(),
            checkpoint_every: cfg.checkpoint_every.max(1),
            checkpoint_wait: cfg.checkpoint_every.max(1),
            since_checkpoint: 0,
            checkpoint_failure_streak: 0,
            snapshots_enabled: true,
            append_retries: cfg.append_retries,
            checkpoint_retry_budget: cfg.checkpoint_retry_budget,
            next_seq,
            appended: 0,
            crash: cfg.crash,
            replay: state.map(|s| s.tail().to_vec()).unwrap_or_default(),
            replay_base: state.map_or(0, |s| s.tail_start),
            cursor: 0,
            divergence: None,
            published: StorageStats::default(),
            instruments: instruments.clone(),
        };
        journal.publish_storage();
        Ok(journal)
    }

    /// Fold the storage backend's fault/failure counters into the live
    /// instruments (delta since the last publish).
    fn publish_storage(&mut self) {
        let stats = self.storage.stats();
        self.instruments.storage_faults_injected.add(
            stats
                .faults_injected
                .saturating_sub(self.published.faults_injected),
        );
        self.instruments.dir_sync_failures.add(
            stats
                .dir_sync_failures
                .saturating_sub(self.published.dir_sync_failures),
        );
        self.published = stats;
    }

    /// `true` while the cursor is behind the end of the WAL found at
    /// recovery: appends are verified against disk, not written.
    pub(crate) fn replaying(&self) -> bool {
        self.cursor < self.replay.len()
    }

    /// WAL index of the frame the cursor stands at.
    fn frame_index(&self) -> usize {
        self.replay_base + self.cursor
    }

    /// The next journaled input of the WAL tail, for recovery to feed
    /// back into the coordinator; `None` once the cursor passed the end
    /// of the WAL. A batch is a maximal run of `Submit` frames: every
    /// submission gets a journaled verdict before the next batch's
    /// `Submit`s, unless the service degraded and journaled nothing
    /// more. An output frame here means the journal and re-execution
    /// disagree about where a round ended.
    pub(crate) fn next_input(&self) -> Result<Option<Input>, EavmError> {
        let rest = &self.replay[self.cursor..];
        let input = match rest.first() {
            None => return Ok(None),
            Some(WalRecord::Submit { .. }) => Input::Batch(
                rest.iter()
                    .map_while(|record| match record {
                        WalRecord::Submit { ticket, req } => Some((*ticket, rec_to_req(req))),
                        _ => None,
                    })
                    .collect(),
            ),
            Some(WalRecord::Advance { t }) => Input::AdvanceTo(Seconds(*t)),
            Some(WalRecord::Drain) => Input::Drain,
            Some(output) => {
                return Err(EavmError::Durability(format!(
                    "recovery diverged at WAL frame {}: the journal holds output {output:?} \
                     where the next input (Submit, Advance or Drain) belongs",
                    self.frame_index()
                )))
            }
        };
        Ok(Some(input))
    }

    /// Verify mode's append: `record` must encode to exactly the frame
    /// at the cursor. The first mismatch is kept for the recovery loop,
    /// which fails at the end of the step; it is not a storage failure,
    /// so the append itself succeeds. From then on the cursor stays put,
    /// so the diverged re-execution never writes to disk.
    fn verify(&mut self, record: &WalRecord) {
        if self.divergence.is_some() {
            return;
        }
        let expected = &self.replay[self.cursor];
        if expected.encode() == record.encode() {
            self.cursor += 1;
            return;
        }
        self.divergence = Some(format!(
            "recovery diverged at WAL frame {}: the journal holds {expected:?}, \
             re-execution produced {record:?}",
            self.frame_index()
        ));
    }

    /// The mismatch verify mode found, if any.
    pub(crate) fn take_divergence(&mut self) -> Option<EavmError> {
        self.divergence.take().map(EavmError::Durability)
    }

    /// Append one record (journal-before-ack: the caller sends the
    /// matching verdict only after this returns). When an injected
    /// crash schedule fires, the triggering frame is fsynced first and
    /// the process aborts — recovery must always see the frame whose
    /// ack may or may not have escaped.
    pub(crate) fn append(&mut self, record: &WalRecord) -> Result<(), EavmError> {
        self.wal.append(&record.encode())?;
        self.instruments.wal_appends.add(1);
        self.since_checkpoint += 1;
        self.appended += 1;
        if let Some(crash) = &self.crash {
            if crash.should_crash(self.appended) {
                let _ = self.wal.sync();
                std::process::abort();
            }
        }
        Ok(())
    }

    /// [`Journal::append`] with a bounded retry loop. A failed append
    /// may leave a torn frame prefix on disk, and a retry blindly
    /// appended after it would sit unreachable behind the tear — so the
    /// WAL is reopened (which truncates back to the valid boundary)
    /// between attempts. Exhausting the retries surfaces the last error;
    /// the caller decides whether that means degraded mode. In verify
    /// mode nothing is written: the record is checked against disk.
    pub(crate) fn append_resilient(&mut self, record: &WalRecord) -> Result<(), EavmError> {
        if self.replaying() {
            self.verify(record);
            return Ok(());
        }
        let mut attempts = 0u32;
        loop {
            match self.append(record) {
                Ok(()) => {
                    self.publish_storage();
                    return Ok(());
                }
                Err(err) => {
                    self.instruments.append_failures.add(1);
                    attempts += 1;
                    if attempts > self.append_retries || self.reopen_wal().is_err() {
                        self.publish_storage();
                        return Err(err);
                    }
                }
            }
        }
    }

    /// Reopen the WAL in place, truncating any torn prefix a failed
    /// append left behind.
    fn reopen_wal(&mut self) -> Result<(), EavmError> {
        let (wal, _torn) = Wal::open_with(self.storage.as_ref(), &wal_path(&self.dir))?;
        if wal.torn_bytes_dropped() > 0 {
            self.instruments.torn_tails_repaired.add(1);
        }
        self.wal = wal;
        Ok(())
    }

    /// A checkpoint is due once `checkpoint_wait` real appends landed
    /// since the last one. Never while verifying: a snapshot must not
    /// claim frames re-execution has not reached.
    pub(crate) fn checkpoint_due(&self) -> bool {
        !self.replaying() && self.snapshots_enabled && self.since_checkpoint >= self.checkpoint_wait
    }

    /// `true` once repeated checkpoint failures disabled snapshots for
    /// the rest of the process (the WAL alone still suffices to
    /// recover).
    pub(crate) fn snapshots_disabled(&self) -> bool {
        !self.snapshots_enabled
    }

    /// Write a checkpoint: fsync the WAL (the snapshot's `wal_frames`
    /// claim must never outrun durable frames), atomically publish the
    /// snapshot, prune old ones. A failure widens the cadence with a
    /// doubling backoff and — past the retry budget — disables
    /// snapshots entirely; the WAL alone always suffices to recover.
    pub(crate) fn write_checkpoint(&mut self, mut snap: SnapshotRec) -> Result<(), EavmError> {
        snap.seq = self.next_seq;
        snap.wal_frames = self.wal.frames();
        let written = self.wal.sync().and_then(|()| {
            write_snapshot_with(self.storage.as_ref(), &self.dir, snap.seq, &snap.encode())
                .map(|_| ())
        });
        match written {
            Ok(()) => {
                let _ = prune_snapshots_with(self.storage.as_ref(), &self.dir, SNAPSHOTS_KEPT);
                self.instruments.snapshots_written.add(1);
                self.since_checkpoint = 0;
                self.checkpoint_wait = self.checkpoint_every;
                self.checkpoint_failure_streak = 0;
                self.next_seq += 1;
                self.publish_storage();
                Ok(())
            }
            Err(err) => {
                self.instruments.checkpoint_failures.add(1);
                if self.checkpoint_failure_streak == 0 {
                    // First failure of a streak: the service just
                    // entered WAL-only degraded operation.
                    self.instruments.degraded_entries.add(1);
                }
                self.checkpoint_failure_streak += 1;
                self.checkpoint_wait =
                    self.checkpoint_every << self.checkpoint_failure_streak.min(4);
                self.since_checkpoint = 0;
                if self.checkpoint_failure_streak > self.checkpoint_retry_budget {
                    self.snapshots_enabled = false;
                }
                self.publish_storage();
                Err(err)
            }
        }
    }

    pub(crate) fn sync(&mut self) -> Result<(), EavmError> {
        self.wal.sync()
    }
}

// ---------------------------------------------------------------------
// Type conversions.

pub(crate) fn req_to_rec(request: &VmRequest) -> ReqRec {
    ReqRec {
        id: request.id.index() as u32,
        submit: request.submit.0,
        workload: request.workload.index() as u8,
        vm_count: request.vm_count,
        deadline: request.deadline.0,
        priority: request.priority.index() as u8,
    }
}

pub(crate) fn rec_to_req(rec: &ReqRec) -> VmRequest {
    VmRequest {
        id: JobId::new(rec.id),
        submit: Seconds(rec.submit),
        workload: WorkloadType::from_index(rec.workload as usize % WorkloadType::ALL.len()),
        vm_count: rec.vm_count,
        deadline: Seconds(rec.deadline),
        priority: Priority::from_index(rec.priority as usize),
    }
}

/// Parked entries snapshot the full request — including the *true*
/// submit instant and priority class — so a recovered coordinator
/// re-derives queue-age and brownout decisions bit-identically.
pub(crate) fn parked_to_rec(view: &RequestView, submit: Seconds, priority: Priority) -> ReqRec {
    ReqRec {
        id: view.id.index() as u32,
        submit: submit.0,
        workload: view.workload.index() as u8,
        vm_count: view.vm_count,
        deadline: view.deadline.0,
        priority: priority.index() as u8,
    }
}

pub(crate) fn placements_to_recs(placements: &[Placement]) -> Vec<PlacementRec> {
    placements
        .iter()
        .map(|p| PlacementRec {
            server: p.server.index() as u32,
            cpu: p.add[WorkloadType::Cpu],
            mem: p.add[WorkloadType::Mem],
            io: p.add[WorkloadType::Io],
        })
        .collect()
}

/// Map a verdict to its WAL record.
pub(crate) fn verdict_to_record(ticket: u64, verdict: &Verdict) -> WalRecord {
    match verdict {
        Verdict::Admitted { shard, placements } => WalRecord::Admitted {
            ticket,
            shard: *shard as u32,
            placements: placements_to_recs(placements),
        },
        Verdict::AdmittedCrossShard { shards, placements } => WalRecord::AdmittedCrossShard {
            ticket,
            shards: shards.iter().map(|&s| s as u32).collect(),
            placements: placements_to_recs(placements),
        },
        Verdict::Queued { depth } => WalRecord::Queued {
            ticket,
            depth: *depth as u32,
        },
        Verdict::Requeued { shard } => WalRecord::Requeued {
            ticket,
            shard: *shard as u32,
        },
        Verdict::Shed { reason } => WalRecord::Shed {
            ticket,
            reason: reason.index(),
        },
    }
}

/// The canonical verdict-log line for a live verdict. WAL readers
/// render through the identical `WalRecord::verdict_line`, so a
/// recovered run's combined log can be compared byte for byte against
/// an uncrashed control.
pub fn verdict_line(ticket: u64, verdict: &Verdict) -> String {
    verdict_to_record(ticket, verdict)
        .verdict_line()
        .expect("every verdict maps to a line")
}

pub(crate) fn dump_to_snap(index: usize, dump: &ShardDump) -> ShardSnapRec {
    ShardSnapRec {
        index: index as u32,
        clock: dump.clock.0,
        energy: dump.energy.0,
        servers: dump
            .servers
            .iter()
            .map(|(id, residents)| ServerSnapRec {
                server: id.index() as u32,
                residents: residents
                    .iter()
                    .map(|&(ty, finish)| (ty.index() as u8, finish.0))
                    .collect(),
            })
            .collect(),
    }
}

pub(crate) fn snap_to_dump(snap: &ShardSnapRec) -> ShardDump {
    ShardDump {
        clock: Seconds(snap.clock),
        energy: Joules(snap.energy),
        servers: snap
            .servers
            .iter()
            .map(|srv| {
                (
                    ServerId::from(srv.server as usize),
                    srv.residents
                        .iter()
                        .map(|&(ty, finish)| {
                            (
                                WorkloadType::from_index(ty as usize % WorkloadType::ALL.len()),
                                Seconds(finish),
                            )
                        })
                        .collect(),
                )
            })
            .collect(),
    }
}

pub(crate) fn overload_to_rec(state: &OverloadSnapshot) -> OverloadRec {
    OverloadRec {
        now: state.now,
        probes: state.probes,
        breaker: state.breaker.index() as u8,
        streak: state.breaker_streak,
        opened_at: state.opened_at,
        limits: state.limits.clone(),
    }
}

pub(crate) fn rec_to_overload(rec: &OverloadRec) -> OverloadSnapshot {
    OverloadSnapshot {
        limits: rec.limits.clone(),
        breaker: BreakerState::from_index(usize::from(rec.breaker)),
        breaker_streak: rec.streak,
        probes: rec.probes,
        now: rec.now,
        opened_at: rec.opened_at,
    }
}

// ---------------------------------------------------------------------
// Recovery.

/// What [`AllocService::recover`] reports about a completed recovery.
///
/// [`AllocService::recover`]: crate::service::AllocService::recover
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Snapshots loaded (0 or 1).
    pub snapshots_loaded: u64,
    /// WAL frames re-executed and verified on top of the snapshot.
    pub frames_replayed: u64,
    /// Torn/corrupt trailing frames dropped.
    pub torn_frames_dropped: u64,
    /// Requests whose submission was journaled but whose verdict was
    /// not; recovery decided them while re-running the crashed round.
    pub resumed_inflight: usize,
    /// Parked wait-queue entries after recovery.
    pub restored_parked: usize,
    /// VMs resident after recovery.
    pub resident_vms: usize,
    /// Virtual clock after recovery.
    pub virtual_now: Seconds,
    /// Next admission ticket (strictly above every journaled one).
    pub next_ticket: u64,
    /// Every verdict already decided before the crash, reconstructed
    /// from the WAL in emission order: `(ticket, verdict_line)`.
    pub verdicts: Vec<(u64, String)>,
}

impl RecoveryReport {
    /// One-line operator summary.
    pub fn summary(&self) -> String {
        format!(
            "recovered snapshots_loaded={} frames_replayed={} torn_frames_dropped={} \
             resumed_inflight={} restored_parked={} resident_vms={} now={:.3} next_ticket={}",
            self.snapshots_loaded,
            self.frames_replayed,
            self.torn_frames_dropped,
            self.resumed_inflight,
            self.restored_parked,
            self.resident_vms,
            self.virtual_now.0,
            self.next_ticket,
        )
    }
}
