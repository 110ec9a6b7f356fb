//! The online service legs: the trace fed through a live
//! `AllocService` the way `replay_online` (and so `eavm serve`) feeds
//! it, with and without a journal, timed at the `eavm-service` and
//! `eavm-durability` public functions.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use eavm_bench::Pipeline;
use eavm_service::{verdict_line, AllocService, ServiceConfig, ServiceStats, Verdict};
use eavm_telemetry::{MetricsSnapshot, Telemetry};

use crate::trace::{Recorder, SpanId, Stopwatch, Timing};
use crate::Checks;

/// Outside timings of one traced pass, seconds.
#[derive(Debug, Default, Clone)]
pub struct Phases {
    pub start_s: f64,
    /// Time the submitting thread spent inside `submit` calls.
    pub submit_blocked_s: f64,
    pub drain_s: f64,
    pub shutdown_s: f64,
}

/// Journal-side figures of one durable pass.
#[derive(Debug, Default, Clone)]
pub struct Journal {
    pub wal_bytes: u64,
    /// `eavm_durability::recover_dir` on the pass's journal.
    pub recover_dir_s: f64,
    /// `AllocService::recover` on the pass's journal.
    pub recover: Option<Timing>,
    /// WAL frames `recover_dir` read.
    pub wal_frames: u64,
    /// WAL frames `AllocService::recover` replayed on top of its
    /// snapshot.
    pub frames_replayed: u64,
}

/// One pass of the whole trace through a fresh service.
#[derive(Debug)]
pub struct Pass {
    pub wall_s: f64,
    /// CPU time of all threads, the service's included.
    pub cpu_s: f64,
    pub requests: u64,
    /// Requests whose final verdict placed them, 0 for a pass that
    /// failed a check.
    pub served: u64,
    /// Requests parked at some point (a `Queued` verdict).
    pub queued: u64,
    pub stats: Option<ServiceStats>,
    pub telemetry: MetricsSnapshot,
    pub phases: Option<Phases>,
    pub journal: Option<Journal>,
}

/// The service configuration `eavm serve` uses for this pipeline.
fn config(p: &Pipeline, shards: usize, telemetry: &Arc<Telemetry>) -> ServiceConfig {
    let mut config =
        ServiceConfig::new(shards, p.config.smaller_servers).with_telemetry(Arc::clone(telemetry));
    config.deadlines = p.deadlines;
    config.qos_margin = p.config.qos_margin;
    config
}

/// Run one pass: start a service with `shards` shards (journaling into
/// `journal_dir` when given), submit the whole trace with blocking
/// backpressure, drain, and shut down — the sequence of
/// `replay_online`. `traced` times each call separately.
pub fn pass(
    p: &Pipeline,
    shards: usize,
    journal_dir: Option<&Path>,
    traced: bool,
    rec: &mut Recorder,
    parent: SpanId,
    checks: &mut Checks,
) -> Pass {
    let telemetry = Telemetry::new();
    let mut cfg = config(p, shards, &telemetry);
    if let Some(dir) = journal_dir {
        cfg = cfg.with_journal_dir(dir);
    }
    let db = p.db.clone();
    let name = match journal_dir {
        Some(_) => format!("durable.pass shards={shards}"),
        None => format!("online.pass shards={shards}"),
    };
    let span = rec.open(name, parent);
    let mut phases = Phases::default();

    let watch = Stopwatch::start();
    let driven = drive(p, db, cfg, traced, &mut phases);
    let Timing { wall_s, cpu_s } = watch.stop();
    rec.close(
        span,
        &[
            ("start_ns", phases.start_s * 1e9),
            ("submit_blocked_ns", phases.submit_blocked_s * 1e9),
            ("drain_ns", phases.drain_s * 1e9),
            ("shutdown_ns", phases.shutdown_s * 1e9),
        ],
    );

    let requests = p.requests.len() as u64;
    let mut out = Pass {
        wall_s,
        cpu_s,
        requests,
        served: 0,
        queued: 0,
        stats: None,
        telemetry: telemetry.snapshot(),
        phases: traced.then_some(phases),
        journal: None,
    };
    let (verdicts, stats) = match driven {
        Ok(driven) => driven,
        Err(e) => {
            checks.check(false, || format!("service pass failed: {e}"));
            return out;
        }
    };
    let served = check_verdicts(&verdicts, &stats, requests, checks);
    out.queued = verdicts
        .iter()
        .filter(|(_, v)| matches!(v, Verdict::Queued { .. }))
        .count() as u64;
    if let Some(dir) = journal_dir {
        let (journal, same) = check_journal(p, shards, dir, &verdicts, rec, span, checks);
        out.journal = Some(journal);
        out.served = if same { served } else { 0 };
    } else {
        out.served = served;
    }
    out.stats = Some(stats);
    out
}

type Driven = (Vec<(u64, Verdict)>, ServiceStats);

/// The `replay_online` sequence. Start, drain and shutdown are always
/// timed; each `submit` only when `traced`, since that is one clock
/// pair per request.
fn drive(
    p: &Pipeline,
    db: eavm_benchdb::ModelDatabase,
    cfg: ServiceConfig,
    traced: bool,
    phases: &mut Phases,
) -> Result<Driven, eavm_types::EavmError> {
    let mut since = Instant::now();
    let mut lap = || {
        let secs = since.elapsed().as_secs_f64();
        since = Instant::now();
        secs
    };
    let service = AllocService::start(db, cfg)?;
    phases.start_s = lap();
    for request in &p.requests {
        let request = request.clone();
        if traced {
            let submitted = Instant::now();
            service.submit(request);
            phases.submit_blocked_s += submitted.elapsed().as_secs_f64();
        } else {
            service.submit(request);
        }
    }
    lap();
    service.drain()?;
    phases.drain_s = lap();
    let mut verdicts = service.poll_verdicts();
    let stats = service.shutdown()?;
    phases.shutdown_s = lap();
    verdicts.sort_by_key(|(ticket, _)| *ticket);
    Ok((verdicts, stats))
}

/// Conservation (the same check as `eavm serve`) and one final verdict
/// per ticket. Returns the requests placed.
fn check_verdicts(
    verdicts: &[(u64, Verdict)],
    s: &ServiceStats,
    requests: u64,
    checks: &mut Checks,
) -> u64 {
    let finals = s.admitted_local
        + s.admitted_cross_shard
        + s.shed_wait_queue
        + s.shed_unplaceable
        + s.shed_shard_failure
        + s.shed_storage_degraded
        + s.shed_queue_aged
        + s.shed_brownout_class;
    let conserved = finals + s.parked == s.submitted && s.submitted == requests;
    checks.check(conserved, || {
        format!(
            "conservation violated: {finals} finals + {} parked, {} submitted of {requests}",
            s.parked, s.submitted
        )
    });
    let mut final_verdicts = 0u64;
    let mut placed = 0u64;
    for (_, verdict) in verdicts {
        match verdict {
            Verdict::Admitted { .. } | Verdict::AdmittedCrossShard { .. } => {
                final_verdicts += 1;
                placed += 1;
            }
            Verdict::Shed { .. } => final_verdicts += 1,
            Verdict::Queued { .. } | Verdict::Requeued { .. } => {}
        }
    }
    checks.check(final_verdicts == requests, || {
        format!("{final_verdicts} final verdicts for {requests} requests")
    });
    if conserved && final_verdicts == requests {
        placed
    } else {
        0
    }
}

/// Read the journal back twice — `recover_dir` and a full
/// `AllocService::recover` — and check the recovered verdict lines
/// equal the live ones. Returns the journal figures and whether they
/// matched.
fn check_journal(
    p: &Pipeline,
    shards: usize,
    dir: &Path,
    live: &[(u64, Verdict)],
    rec: &mut Recorder,
    parent: SpanId,
    checks: &mut Checks,
) -> (Journal, bool) {
    let mut journal = Journal {
        wal_bytes: std::fs::metadata(eavm_durability::wal_path(dir)).map_or(0, |m| m.len()),
        ..Journal::default()
    };
    let live_lines: Vec<(u64, String)> = live
        .iter()
        .map(|(ticket, v)| (*ticket, verdict_line(*ticket, v)))
        .collect();

    let span = rec.open("durability.recover_dir", parent);
    let started = Instant::now();
    let state = eavm_durability::recover_dir(dir);
    journal.recover_dir_s = started.elapsed().as_secs_f64();
    rec.close(span, &[]);
    journal.wal_frames = state.as_ref().map_or(0, |s| s.frames);
    let mut lines = state.map(|s| s.verdict_lines()).unwrap_or_default();
    lines.sort_by_key(|(ticket, _)| *ticket);
    let same_dir = lines == live_lines;
    checks.check(same_dir, || {
        "verdict lines recovered from the journal differ from the live ones".into()
    });

    let telemetry = Telemetry::new();
    let cfg = config(p, shards, &telemetry).with_journal_dir(dir);
    let db = p.db.clone();
    let span = rec.open("service.recover", parent);
    let watch = Stopwatch::start();
    let recovered = AllocService::recover(db, cfg);
    journal.recover = Some(watch.stop());
    rec.close(span, &[]);
    let same_service = match recovered {
        Ok((service, report)) => {
            journal.frames_replayed = report.frames_replayed;
            let mut lines = report.verdicts;
            lines.sort_by_key(|(ticket, _)| *ticket);
            service.shutdown().is_ok() && lines == live_lines
        }
        Err(_) => false,
    };
    checks.check(same_service, || {
        "AllocService::recover did not rebuild the live verdicts".into()
    });
    (journal, same_dir && same_service)
}
