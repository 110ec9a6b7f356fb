//! # eavm-durability
//!
//! Crash durability for the allocation service: an append-only
//! write-ahead log of admission events, periodic checkpoint snapshots,
//! and the recovery scan that stitches them back into live state.
//!
//! Design in one paragraph: the coordinator journals every input it is
//! given (submit, advance, drain) and every decision it makes (admit,
//! queue, requeue, shed, clock advance, consolidation sweep) as a
//! CRC32-checksummed length-prefixed frame *before* acking or executing
//! it, and every `checkpoint_every` appends it snapshots its full state
//! (per-shard resident VMs with bit-exact finish times, parked queue,
//! counters, consolidation cooldowns, overload-plane state) to an
//! atomically renamed snapshot file. Recovery loads the newest snapshot
//! whose coverage is consistent with the surviving WAL, truncates any
//! torn trailing frames, and hands the service the WAL tail: the
//! service re-runs its coordinator on the journaled inputs and checks
//! every decision it writes against the frame already on disk.
//!
//! The crate knows nothing about the service: records carry primitive
//! fields only, and the service layer owns the mapping to its own
//! `VmRequest`/`Placement`/`Verdict` types. That keeps this crate at
//! the bottom of the dependency DAG (only `eavm-types` and the
//! `eavm-storage` file-operation abstraction below it) and its formats
//! trivially testable. Every file access routes through an
//! [`eavm_storage::Storage`] backend, so the fault injector can drive
//! torn writes, bit rot, ENOSPC, and dropped syncs through the exact
//! production code paths; [`scrub`] is the offline repair pass that
//! truncates damaged tails and quarantines corrupt snapshots.

#![forbid(unsafe_code)]

pub mod codec;
pub mod crc32;
pub mod record;
pub mod recovery;
pub mod scrub;
pub mod snapshot;
pub mod wal;

pub use crc32::crc32;
pub use record::{
    shed_reason_name, MoveRec, OverloadRec, PlacementRec, ReqRec, ServerSnapRec, ShardSnapRec,
    SnapshotRec, WalRecord,
};
pub use recovery::{recover_dir, recover_dir_with, wal_path, RecoveredState, WAL_FILE};
pub use scrub::{scrub_dir, scrub_dir_with, ScrubReport};
pub use snapshot::{
    list_snapshots, list_snapshots_with, prune_snapshots, prune_snapshots_with, read_snapshot,
    read_snapshot_with, snapshot_name, sweep_tmp_files, sweep_tmp_files_with, write_snapshot,
    write_snapshot_with, QUARANTINE_SUFFIX, SNAPSHOT_MAGIC,
};
pub use wal::{read_frames, read_frames_with, Wal, FRAME_HEADER, MAX_FRAME_LEN, WAL_MAGIC};
