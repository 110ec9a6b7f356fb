//! # eavm-service
//!
//! An **online allocation control plane** on top of the paper's batch
//! machinery: where `eavm-simulator` replays a whole trace offline,
//! this crate keeps the fleet resident and serves a live stream of VM
//! requests.
//!
//! Two layers, bottom-up:
//!
//! * [`shard`] — the fleet is split into contiguous server groups, each
//!   owned exclusively by one `std::thread` worker with its own
//!   allocator. Its `DbModel` answers every in-box lookup from a dense
//!   table, whose hits and misses surface as [`CacheStats`]. Shards
//!   expose a message protocol with a fast-path `TryLocal` and a
//!   two-phase `Reserve`/`Commit`/`Abort` sequence for placements that
//!   must span shards atomically.
//! * [`service`] — [`service::AllocService`]: bounded-queue admission
//!   (blocking backpressure or shed-on-full), batched round-robin
//!   fast-path dispatch, the serial cross-shard slow path with
//!   optimistic validation and rollback, a parked FIFO wait queue tied
//!   to the virtual clock, and a per-ticket [`service::Verdict`]
//!   stream.
//!
//! The service is **self-healing**: shard workers are supervised
//! through their channels, so a dead worker (including one killed by an
//! injected [`eavm_faults::WorkerFaultPlan`]) surfaces as an explicit
//! failure, is respawned from the coordinator's fleet mirror, and its
//! in-flight requests are requeued ([`service::Verdict::Requeued`]) —
//! every submission still resolves to exactly one final verdict.
//! Injected transient model-lookup failures
//! ([`eavm_faults::LookupFaults`]) degrade to the analytic estimate via
//! [`eavm_core::ResilientModel`] and are counted as `model_fallbacks`.
//!
//! [`deterministic::replay_deterministic`] is the single-threaded
//! reference mode: the same allocator stack driven by the
//! discrete-event engine, reproducing `Simulation::run` exactly (the
//! `service_replay` integration test pins this down).

#![forbid(unsafe_code)]

pub mod deterministic;
pub mod durable;
pub mod service;
pub mod shard;

pub use deterministic::{replay_deterministic, DeterministicConfig};
pub use durable::{verdict_line, DurabilityConfig, DurabilityStats, RecoveryReport};
pub use service::{
    drive_paced, replay_online, replay_online_paced, AllocService, DrainReport, ReplayReport,
    ServiceConfig, ServiceStats, ShedReason, SubmitOutcome, Verdict,
};
pub use shard::{CacheStats, ShardStats};
