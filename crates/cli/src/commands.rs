//! Subcommand implementations. Each returns its stdout payload as a
//! `String` so commands are directly unit-testable.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use eavm_benchdb::{DbBuilder, ModelDatabase};
use eavm_core::{AllocationStrategy, AnalyticModel, DbModel, OptimizationGoal, Proactive};
use eavm_faults::{CrashSchedule, FaultPlan};
use eavm_migrate::ConsolidationConfig;
use eavm_service::{CacheStats, DurabilityConfig, ReplayReport};
use eavm_simulator::{CloudConfig, MigrationConfig, SimOutcome, Simulation};
use eavm_swf::{
    adapt_trace, clean_trace, total_vms, truncate_to_vm_total, AdaptConfig, GeneratorConfig,
    SwfTrace, TraceGenerator,
};
use eavm_telemetry::Telemetry;
use eavm_types::{Seconds, WorkloadType};

use crate::args::{self, Args};
use crate::chaos::{storage_fault_flags, ChaosFlags};

/// Dispatch a command line; returns the stdout payload.
pub fn dispatch(argv: &[String]) -> Result<String, String> {
    let first = match argv.first().map(String::as_str) {
        None | Some("help" | "--help") => return Ok(usage()),
        Some(first) => first,
    };
    // `scenario check|run FILE` carries positionals the flag parser
    // rejects; peel them off before parsing the rest.
    let (name, file, rest) = match (first, &argv[1..]) {
        ("scenario", [action, file, rest @ ..]) if !file.starts_with("--") => {
            (format!("scenario {action}"), PathBuf::from(file), rest)
        }
        _ => (first.to_string(), PathBuf::new(), &argv[1..]),
    };
    let command = args::command(&name).ok_or_else(|| match first {
        "scenario" => "scenario needs an action (check or run) and a FILE".to_string(),
        _ => format!("unknown subcommand {name:?}"),
    })?;
    let args = Args::parse(command, rest)?;
    match command.name {
        "build-db" => build_db(&args),
        "gen-trace" => gen_trace(&args),
        "clean-trace" => clean_trace_cmd(&args),
        "trace-stats" => trace_stats(&args),
        "simulate" => simulate(&args),
        "serve" => serve(&args),
        "recover" => recover(&args),
        "scrub" => scrub_cmd(&args),
        "corrupt" => corrupt_cmd(&args),
        "replay-online" => replay_online_cmd(&args),
        "scenario check" => Ok(render_scenario_check(&load_scenario(&args, &file)?)),
        "scenario run" => scenario_run(&args, &load_scenario(&args, &file)?),
        "db-diff" => db_diff(&args),
        "info" => info(&args),
        "lint" => lint(&args),
        other => Err(format!(
            "subcommand {other:?} is declared but not dispatched"
        )),
    }
}

/// The `help` text, rendered from the flag tables.
fn usage() -> String {
    let mut out = String::from(
        "eavm-cli — energy-aware application-centric VM allocation (IPDPS 2011 reproduction)\n\n\
         USAGE:\n",
    );
    for command in args::COMMANDS {
        out.push_str(&command.usage());
    }
    out.push_str(&format!(
        "\nFlags are strict: an unknown flag, a value flag without a value, a switch\n\
         given a value, or a flag without the flag it needs is an error.\n\n\
         STRATEGIES: {} pa0 pa05 pa1 pa:<alpha>\n",
        eavm_core::BASELINE_NAMES.join(" ")
    ));
    out
}

fn db_paths(dir: &Path) -> (PathBuf, PathBuf) {
    (dir.join("model.csv"), dir.join("aux.txt"))
}

fn load_db(dir: &Path) -> Result<ModelDatabase, String> {
    let (dbp, auxp) = db_paths(dir);
    ModelDatabase::load(&dbp, &auxp).map_err(|e| e.to_string())
}

fn build_db(args: &Args) -> Result<String, String> {
    let out_dir = args.get_required::<PathBuf>("out-dir")?;
    let seed: u64 = args.get_or("seed", 0xE6EE)?;
    let threads: usize = args.get_or("threads", 1)?;
    let builder = DbBuilder {
        meter_seed: if args.flag("exact") { None } else { Some(seed) },
        ..Default::default()
    };
    let db = builder.build_parallel(threads).map_err(|e| e.to_string())?;
    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
    let (dbp, auxp) = db_paths(&out_dir);
    db.save(&dbp, &auxp).map_err(|e| e.to_string())?;
    Ok(format!(
        "wrote {} registers to {} (+ {})\nbounds {}  solo times ({}, {}, {})\n",
        db.len(),
        dbp.display(),
        auxp.display(),
        db.aux().os_bounds,
        db.aux().solo_times[0],
        db.aux().solo_times[1],
        db.aux().solo_times[2],
    ))
}

fn gen_trace(args: &Args) -> Result<String, String> {
    let out = args.get_required::<PathBuf>("out")?;
    let config = GeneratorConfig {
        seed: args.get_or("seed", 0xE6EE)?,
        total_jobs: args.get_or("jobs", 5_000)?,
        mean_burst_gap_s: args.get_or("burst-gap", 90.0)?,
        ..Default::default()
    };
    let mut generator = TraceGenerator::new(config)?;
    let trace = generator.generate();
    std::fs::write(&out, trace.to_text()).map_err(|e| e.to_string())?;
    Ok(format!(
        "wrote {} jobs (span {} s) to {}\n",
        trace.jobs.len(),
        trace.span(),
        out.display()
    ))
}

fn clean_trace_cmd(args: &Args) -> Result<String, String> {
    let input = args.get_required::<PathBuf>("input")?;
    let out = args.get_required::<PathBuf>("out")?;
    let text = std::fs::read_to_string(&input).map_err(|e| e.to_string())?;
    let mut trace = SwfTrace::parse(&text).map_err(|e| e.to_string())?;
    let report = clean_trace(&mut trace);
    std::fs::write(&out, trace.to_text()).map_err(|e| e.to_string())?;
    Ok(format!(
        "kept {} jobs; dropped {} (failed {}, cancelled {}, other-status {}, anomalies {}){}\n",
        report.kept,
        report.dropped(),
        report.failed,
        report.cancelled,
        report.other_status,
        report.anomalies,
        if report.reordered {
            "; repaired submission order"
        } else {
            ""
        },
    ))
}

fn trace_stats(args: &Args) -> Result<String, String> {
    let input = args.get_required::<PathBuf>("input")?;
    let text = std::fs::read_to_string(&input).map_err(|e| e.to_string())?;
    let trace = SwfTrace::parse(&text).map_err(|e| e.to_string())?;
    Ok(eavm_swf::TraceStats::of(&trace).render())
}

/// Parse a strategy name into a boxed strategy.
pub fn make_strategy(
    name: &str,
    db: &ModelDatabase,
    deadlines: [Seconds; 3],
    margin: f64,
) -> Result<Box<dyn AllocationStrategy>, String> {
    if let Some(baseline) = eavm_core::baseline(name) {
        return Ok(baseline);
    }
    let alpha = match name {
        "pa0" => 0.0,
        "pa05" => 0.5,
        "pa1" => 1.0,
        _ => name
            .strip_prefix("pa:")
            .ok_or_else(|| format!("unknown strategy {name:?}"))?
            .parse::<f64>()
            .map_err(|e| format!("bad alpha in {name:?}: {e}"))?,
    };
    let goal = OptimizationGoal::new(alpha).map_err(|e| e.to_string())?;
    Ok(Box::new(
        Proactive::new(DbModel::new(db.clone()), goal, deadlines).with_qos_margin(margin),
    ))
}

/// Shared front matter of `simulate` / `serve` / `replay-online`: load
/// the model database and the trace, clean + adapt it, and derive the
/// per-type deadlines.
fn load_workload(
    args: &Args,
) -> Result<(ModelDatabase, Vec<eavm_swf::VmRequest>, [Seconds; 3]), String> {
    let db_dir = args.get_required::<PathBuf>("db-dir")?;
    let trace_path = args.get_required::<PathBuf>("trace")?;
    let vm_cap: u32 = args.get_or("vms", 10_000)?;
    let seed: u64 = args.get_or("seed", 0xE6EE)?;
    let qos: f64 = args.get_or("qos", 3.0)?;

    let db = load_db(&db_dir)?;
    let text = std::fs::read_to_string(&trace_path).map_err(|e| e.to_string())?;
    let mut trace = SwfTrace::parse(&text).map_err(|e| e.to_string())?;
    clean_trace(&mut trace);

    let adapt_cfg = AdaptConfig {
        qos_factor: qos,
        ..AdaptConfig::paper(seed, db.aux().solo_times)
    };
    adapt_cfg.validate()?;
    let mut requests = adapt_trace(&trace, &adapt_cfg);
    truncate_to_vm_total(&mut requests, vm_cap);
    if requests.is_empty() {
        return Err("no requests after cleaning/adaptation".into());
    }

    let deadlines = WorkloadType::ALL.map(|ty| adapt_cfg.deadline(ty));
    Ok((db, requests, deadlines))
}

/// The one chaos summary line printed whenever a fault plan is armed.
fn render_faults(seed: u64, rate: f64, plan: &FaultPlan, out: &SimOutcome) -> String {
    format!(
        "faults: seed={seed} rate={rate} scheduled-crashes={} scheduled-degradations={} \
         crashes={} degradations={} vms-killed={} vms-restarted={} \
         lost-work={:.0}s restart-energy={:.3e}J\n",
        plan.crash_count(),
        plan.degrade_count(),
        out.host_crashes,
        out.host_degradations,
        out.vms_killed,
        out.vms_restarted,
        out.lost_work.value(),
        out.restart_energy.value(),
    )
}

/// VM-conservation check under chaos: every VM in the trace must be
/// placed exactly once, plus one extra placement per restart.
fn render_conservation(out: &SimOutcome, requests: &[eavm_swf::VmRequest]) -> String {
    let expected = total_vms(requests) as usize + out.vms_restarted;
    if out.vms == expected {
        format!("conservation: ok ({} = trace + restarts)\n", out.vms)
    } else {
        format!(
            "conservation: VIOLATED (placed {} != trace {} + restarts {})\n",
            out.vms,
            total_vms(requests),
            out.vms_restarted,
        )
    }
}

fn simulate(args: &Args) -> Result<String, String> {
    let strategy_name: String = args.get_required("strategy")?;
    let servers: usize = args.get_required("servers")?;
    let margin: f64 = args.get_or("margin", 0.65)?;
    let (db, requests, deadlines) = load_workload(args)?;
    let mut strategy = make_strategy(&strategy_name, &db, deadlines, margin)?;
    let cloud = CloudConfig::new("CLI", servers).map_err(|e| e.to_string())?;
    let mut sim = Simulation::new(AnalyticModel::reference(), cloud);
    let big_nodes: usize = args.get_or("big-nodes", 0)?;
    if big_nodes > 0 {
        // A second platform of dual-socket big nodes; the PROACTIVE
        // strategy keeps using the reference database for them (see the
        // hetero_fleet experiment for per-platform knowledge).
        let big = eavm_core::AnalyticModel::new(
            eavm_testbed::ServerSpec::big_node(),
            eavm_testbed::ContentionModel::default(),
            &eavm_testbed::BenchmarkSuite::standard(),
            eavm_types::MixVector::new(24, 24, 24),
        );
        sim = sim.with_platform(big, big_nodes);
    }
    if args.flag("burst") {
        sim = sim.with_burst_allocation();
    }
    if args.flag("always-on") {
        sim = sim.with_always_on_fleet();
    }
    let timeline_out = args.get_optional::<PathBuf>("timeline-out")?;
    if timeline_out.is_some() {
        sim = sim.with_timeline();
    }
    // `--consolidate-every SECS` arms the reactive consolidation sweep
    // (drain stragglers, power donors down), pricing every move with
    // the pre-copy migration model instead of a flat penalty.
    if let Some((every, threshold)) = consolidation_flags(args)? {
        sim = sim.with_migration(MigrationConfig {
            max_donor_vms: threshold,
            receiver_bound: db.aux().os_bounds,
            check_interval: Seconds(every),
            ..MigrationConfig::default()
        });
    }
    let chaos = ChaosFlags::from_args(args)?.host_plan(servers + big_nodes, &requests);
    if let Some((_, _, plan)) = &chaos {
        sim = sim.with_faults(plan.clone());
    }
    let out = sim
        .run(strategy.as_mut(), &requests)
        .map_err(|e| e.to_string())?;
    if let Some(path) = timeline_out {
        let mut csv = String::from("server,start_s,end_s,ncpu,nmem,nio\n");
        for iv in &out.timeline {
            csv.push_str(&format!(
                "{},{:.3},{:.3},{},{},{}\n",
                iv.server.index(),
                iv.start.value(),
                iv.end.value(),
                iv.mix.cpu,
                iv.mix.mem,
                iv.mix.io
            ));
        }
        std::fs::write(&path, csv).map_err(|e| e.to_string())?;
    }
    let mut output = render_outcome(&out, &requests);
    if let Some((seed, rate, plan)) = &chaos {
        output.push_str(&render_faults(*seed, *rate, plan, &out));
        output.push_str(&render_conservation(&out, &requests));
    }
    Ok(output)
}

/// The one model-table counters line shared by `serve` and
/// `replay-online`.
fn render_cache(cache: &CacheStats) -> String {
    format!(
        "cache: hits={} misses={} evictions={} hit-rate={:.1}%\n",
        cache.hits,
        cache.misses,
        cache.evictions,
        100.0 * cache.hit_rate(),
    )
}

/// Honour `--metrics-out FILE` / `--metrics-format prometheus|json`:
/// write the registry snapshot to the file and return a one-line note
/// for stdout (empty when no export was requested).
fn export_metrics(args: &Args, telemetry: &Telemetry) -> Result<String, String> {
    let Some(path) = args.get_optional::<PathBuf>("metrics-out")? else {
        return Ok(String::new());
    };
    let format: String = args.get_or("metrics-format", "prometheus".to_string())?;
    let snapshot = telemetry.snapshot();
    let payload = match format.as_str() {
        "prometheus" => snapshot.to_prometheus(),
        "json" => snapshot.to_json(),
        other => return Err(format!("unknown --metrics-format {other:?}")),
    };
    std::fs::write(&path, payload).map_err(|e| e.to_string())?;
    Ok(format!(
        "metrics: {} counters, {} gauges, {} histograms -> {} ({format})\n",
        snapshot.counters.len(),
        snapshot.gauges.len(),
        snapshot.histograms.len(),
        path.display(),
    ))
}

fn render_outcome(out: &SimOutcome, requests: &[eavm_swf::VmRequest]) -> String {
    format!(
        "{}\n{}\nsummary: strategy={} requests={} vms={} makespan={:.0}s energy={:.3e}J sla={:.1}%\n",
        SimOutcome::CSV_HEADER,
        out.to_csv(),
        out.strategy,
        requests.len(),
        total_vms(requests),
        out.makespan().value(),
        out.energy.value(),
        out.sla_violation_pct(),
    )
}

/// Honour `--consolidate-every SECS` / `--drain-threshold N`, the
/// consolidation knobs shared by `simulate`, `serve`, and `recover`.
/// Returns `(interval, threshold)` when sweeps are enabled.
fn consolidation_flags(args: &Args) -> Result<Option<(f64, u32)>, String> {
    let Some(every) = args.get_optional::<f64>("consolidate-every")? else {
        return Ok(None);
    };
    if !every.is_finite() || every <= 0.0 {
        return Err("--consolidate-every must be positive".into());
    }
    let threshold = args.get_or::<u32>("drain-threshold", 2)?;
    if threshold == 0 {
        return Err("--drain-threshold must be nonzero".into());
    }
    Ok(Some((every, threshold)))
}

/// Honour the overload-plane knobs shared by `serve` and `recover`:
/// `--overload` arms the adaptive plane (AIMD limits, CoDel queue
/// aging, brownout ladder, model circuit breaker); the value flags
/// tune it, and the flag table rejects them without `--overload`.
fn overload_flags(args: &Args) -> Result<Option<eavm_overload::OverloadConfig>, String> {
    if !args.flag("overload") {
        return Ok(None);
    }
    let mut config = eavm_overload::OverloadConfig::default();
    if let Some(cut) = args.get_optional::<f64>("overload-cut")? {
        if !(cut > 0.0 && cut < 1.0) {
            return Err(format!("--overload-cut must be within (0, 1), got {cut}"));
        }
        config.multiplicative_cut = cut;
    }
    if let Some(limit_max) = args.get_optional::<f64>("limit-max")? {
        if !limit_max.is_finite() || limit_max < 1.0 {
            return Err(format!("--limit-max must be at least 1, got {limit_max}"));
        }
        config.max_limit = limit_max;
    }
    if let Some(target) = args.get_optional::<f64>("queue-target")? {
        if !target.is_finite() || target <= 0.0 {
            return Err("--queue-target must be positive".into());
        }
        config.queue_target = target;
    }
    if let Some(interval) = args.get_optional::<f64>("queue-interval")? {
        if !interval.is_finite() || interval <= 0.0 {
            return Err("--queue-interval must be positive".into());
        }
        config.queue_interval = interval;
    }
    let breaker_seed = args.get_optional::<u64>("breaker-seed")?;
    if breaker_seed.is_some() || args.get_optional::<f64>("breaker-rate")?.is_some() {
        let rate = args.fraction_or("breaker-rate", 0.0)?;
        config = config.with_breaker_stream(breaker_seed.unwrap_or(0), rate);
    }
    // The auto-sized limits resolve against the fleet shape at service
    // launch, which also runs the full validate() pass.
    Ok(Some(config))
}

/// Build the [`eavm_service::ServiceConfig`] shared by `serve` and
/// `recover`: sizing, allocator knobs, consolidation, chaos injection,
/// and the durability flags (`--journal-dir DIR`, `--checkpoint-every
/// N`, `--crash-after-events N`). `os_bounds` is the model database's
/// per-server hostability bound, reused as the consolidation receiver
/// bound.
fn service_config(
    args: &Args,
    deadlines: [Seconds; 3],
    os_bounds: eavm_types::MixVector,
    telemetry: &Arc<Telemetry>,
) -> Result<eavm_service::ServiceConfig, String> {
    let servers: usize = args.get_required("servers")?;
    let shards: usize = args.get_or("shards", 4)?;
    let margin: f64 = args.get_or("margin", 0.65)?;
    let alpha: f64 = args.get_or("alpha", 0.5)?;
    let mut config =
        eavm_service::ServiceConfig::new(shards, servers).with_telemetry(Arc::clone(telemetry));
    config.queue_capacity = args.get_or("queue", 1024)?;
    config.goal = OptimizationGoal::new(alpha).map_err(|e| e.to_string())?;
    config.deadlines = deadlines;
    config.qos_margin = margin;
    // Consolidation sweeps between admissions: journaled before they
    // execute, so they survive `--crash-after-events` drills bit-exact.
    if let Some((every, threshold)) = consolidation_flags(args)? {
        config = config.with_consolidation(ConsolidationConfig {
            interval: Seconds(every),
            drain_threshold: threshold,
            receiver_bound: os_bounds,
            ..ConsolidationConfig::default()
        });
    }
    // Adaptive overload control (`--overload` + tuning flags): AIMD
    // per-shard limits, queue-age shedding, brownout ladder, breaker.
    config.overload = overload_flags(args)?;
    // Chaos knobs (shared parsing in [`ChaosFlags`]): `--fault-rate`
    // arms transient model-lookup failures (the simulator plan's
    // predicate for the same seed), `--kill-shard N` kills worker N after
    // `--kill-after M` served messages to exercise the supervised
    // respawn path end to end.
    let chaos = ChaosFlags::from_args(args)?;
    if let Some(lookup) = chaos.lookup_faults() {
        config = config.with_lookup_faults(lookup);
    }
    if let Some(plan) = chaos.worker_faults(shards)? {
        config = config.with_worker_faults(plan);
    }
    // Durability: journal every admission verdict before acking it and
    // checkpoint the fleet periodically; `--crash-after-events N`
    // aborts the process after N journal appends (crash-loop drills).
    // The storage-fault family (torn appends, bit rot, ENOSPC, dropped
    // syncs, failed renames) arms the journal's storage backend, and
    // `--scrub` repairs the directory before recovery replays it.
    // The flag table rejects every durability flag without a journal.
    let Some(dir) = args.get_optional::<PathBuf>("journal-dir")? else {
        return Ok(config);
    };
    if dir.is_file() {
        return Err(format!(
            "--journal-dir {}: exists and is a file, not a directory",
            dir.display()
        ));
    }
    let retries = args
        .nonzero_or("append-retries", 2)?
        .min(u64::from(u32::MAX)) as u32;
    let mut durability = DurabilityConfig::new(dir)
        .with_checkpoint_every(args.nonzero_or("checkpoint-every", 256)?)
        .with_append_retries(retries);
    if let Some(after) = args.get_optional::<u64>("crash-after-events")? {
        if after == 0 {
            return Err("--crash-after-events must be nonzero".into());
        }
        durability = durability.with_crash(CrashSchedule::after_events(after));
    }
    if let Some(faults) = storage_fault_flags(args)? {
        durability = durability.with_storage_faults(faults);
    }
    if args.flag("scrub") {
        durability = durability.with_scrub_on_recover();
    }
    Ok(config.with_durability(durability))
}

/// Honour `--verdicts-out FILE`: write the ticket-ordered verdict log.
/// With a journal directory the log is reconstructed from the WAL (the
/// canonical record, crash-surviving); otherwise it comes from the live
/// verdict stream. The two agree byte for byte on an uncrashed run.
fn export_verdicts(args: &Args, report: &ReplayReport) -> Result<String, String> {
    let Some(path) = args.get_optional::<PathBuf>("verdicts-out")? else {
        return Ok(String::new());
    };
    let mut lines: Vec<(u64, String)> = match args.get_optional::<PathBuf>("journal-dir")? {
        Some(dir) => eavm_durability::recover_dir(&dir)
            .map_err(|e| e.to_string())?
            .verdict_lines(),
        None => report
            .verdicts
            .iter()
            .map(|(t, v)| (*t, eavm_service::verdict_line(*t, v)))
            .collect(),
    };
    lines.sort_by_key(|(ticket, _)| *ticket);
    let text: String = lines
        .iter()
        .map(|(ticket, line)| format!("{ticket} {line}\n"))
        .collect();
    std::fs::write(&path, &text).map_err(|e| e.to_string())?;
    Ok(format!(
        "verdicts: {} lines -> {}\n",
        lines.len(),
        path.display()
    ))
}

/// The admitted, shed and per-class lines `serve` and `recover` share;
/// only `serve` has an admission queue to shed from.
fn render_verdict_counts(s: &eavm_service::ServiceStats, admission: Option<u64>) -> String {
    let admission = admission.map_or(String::new(), |n| format!("admission={n} "));
    let [sb, ss, si] = s.submitted_class;
    let [ab, as_, ai] = s.admitted_class;
    format!(
        "admitted: local={} cross-shard={} after-wait={}\n\
         shed: {admission}wait-queue={} unplaceable={} shard-failure={} storage-degraded={} \
         queue-aged={} brownout-class={}\n\
         classes: submitted-batch={sb} submitted-standard={ss} submitted-interactive={si} \
         admitted-batch={ab} admitted-standard={as_} admitted-interactive={ai}\n",
        s.admitted_local,
        s.admitted_cross_shard,
        s.admitted_after_wait,
        s.shed_wait_queue,
        s.shed_unplaceable,
        s.shed_shard_failure,
        s.shed_storage_degraded,
        s.shed_queue_aged,
        s.shed_brownout_class,
    )
}

/// The overload-plane summary line, printed only when `--overload`
/// armed the plane (clean-run output stays byte-stable without it).
fn render_overload(s: &eavm_service::ServiceStats) -> String {
    let Some(ovl) = &s.overload else {
        return String::new();
    };
    let min = ovl.limits.iter().copied().fold(f64::INFINITY, f64::min);
    let max = ovl.limits.iter().copied().fold(0.0_f64, f64::max);
    format!(
        "overload: breaker={:?} breaker-streak={} probes={} limit-min={:.2} limit-max={:.2}\n",
        ovl.breaker, ovl.breaker_streak, ovl.probes, min, max
    )
}

/// The one consolidation summary line, printed once sweeps have run.
fn render_consolidation(s: &eavm_service::ServiceStats) -> String {
    if s.consolidation_sweeps == 0 {
        return String::new();
    }
    format!(
        "consolidation: sweeps={} migrations={} hosts-drained={}\n",
        s.consolidation_sweeps, s.consolidation_migrations, s.consolidation_hosts_drained,
    )
}

/// The durability summary, printed whenever journaling is on: one line
/// always, plus a storage-health line when anything went wrong (kept
/// conditional so clean-run output stays byte-stable).
fn render_durability(s: &eavm_service::ServiceStats) -> String {
    let d = &s.durability;
    let mut out = format!(
        "durability: wal-appends={} snapshots-written={} frames-replayed={} \
         snapshots-loaded={} torn-frames-dropped={}\n",
        d.wal_appends,
        d.snapshots_written,
        d.frames_replayed,
        d.snapshots_loaded,
        d.torn_frames_dropped,
    );
    let troubled = d.storage_faults_injected
        + d.append_failures
        + d.checkpoint_failures
        + d.degraded_entries
        + d.torn_tails_repaired
        + d.snapshots_quarantined
        + d.dir_sync_failures
        + d.tmp_swept;
    if troubled > 0 {
        out.push_str(&format!(
            "storage: faults-injected={} append-failures={} checkpoint-failures={} \
             degraded-entries={} torn-tails-repaired={} snapshots-quarantined={} \
             dir-sync-failures={} tmp-swept={}\n",
            d.storage_faults_injected,
            d.append_failures,
            d.checkpoint_failures,
            d.degraded_entries,
            d.torn_tails_repaired,
            d.snapshots_quarantined,
            d.dir_sync_failures,
            d.tmp_swept,
        ));
    }
    out
}

/// Run the trace through the live concurrent service
/// ([`eavm_service::AllocService`]) and report its counters.
fn serve(args: &Args) -> Result<String, String> {
    let (db, requests, deadlines) = load_workload(args)?;
    let telemetry = Telemetry::new();
    let config = service_config(args, deadlines, db.aux().os_bounds, &telemetry)?;
    let (shards, servers) = (config.shards, config.servers);
    let journaled = config.durability.is_some();

    // eavm-lint: allow(D1, reason = "wall-clock throughput figure for the operator summary line; no simulated or replayed state reads it")
    let started = std::time::Instant::now();
    // Paced submission (one request per admission batch) trades
    // throughput for a fully deterministic verdict stream — the driving
    // mode the crash-recovery byte-parity guarantee is stated for.
    let report = if args.flag("paced") {
        eavm_service::replay_online_paced(&db, config, &requests)
    } else {
        eavm_service::replay_online(&db, config, &requests)
    }
    .map_err(|e| e.to_string())?;
    let elapsed = started.elapsed().as_secs_f64();
    let s = &report.stats;
    let lat = &s.admission_latency_us;
    let throughput = report.requests as f64 / elapsed.max(1e-9);
    // Every accepted request must resolve to exactly one final verdict,
    // shard deaths included.
    let finals = s.admitted_local
        + s.admitted_cross_shard
        + s.shed_wait_queue
        + s.shed_unplaceable
        + s.shed_shard_failure
        + s.shed_storage_degraded
        + s.shed_queue_aged
        + s.shed_brownout_class;
    let conservation = if finals + s.parked == s.submitted {
        format!(
            "conservation: ok ({finals} final verdicts + {} parked)\n",
            s.parked
        )
    } else {
        format!(
            "conservation: VIOLATED ({finals} finals + {} parked != {} submitted)\n",
            s.parked, s.submitted
        )
    };
    let mut output = format!(
        "service: shards={shards} servers={servers} requests={} vms={}\n\
         {}\
         faults: shard-failures={} respawns={} requeued={} model-fallbacks={}\n\
         {}\
         {}\
         admission-latency: p50={}us p95={}us p99={}us max={}us\n\
         reserve-conflicts={} virtual-makespan={:.0}s estimated-energy={:.3e}J\n\
         wall-time={elapsed:.3}s throughput={throughput:.0} req/s\n",
        report.requests,
        report.vms,
        render_verdict_counts(s, Some(s.shed_admission)),
        s.shard_failures,
        s.shard_respawns,
        s.requeued,
        s.model_fallbacks,
        conservation,
        render_cache(&s.aggregate_cache),
        lat.p50,
        lat.p95,
        lat.p99,
        lat.max,
        s.reserve_conflicts,
        s.virtual_now.value(),
        s.estimated_energy.value(),
    );
    output.push_str(&render_overload(s));
    output.push_str(&render_consolidation(s));
    if journaled {
        output.push_str(&render_durability(s));
    }
    output.push_str(&export_verdicts(args, &report)?);
    output.push_str(&export_metrics(args, &telemetry)?);
    Ok(output)
}

/// Resume a crashed (or cleanly stopped) `serve --journal-dir` run:
/// load the newest usable checkpoint, re-run the coordinator on the
/// inputs journaled in the WAL tail (finishing the round the crash cut
/// short), then submit whatever part of the trace the crashed process
/// never reached (paced, so the verdict stream stays deterministic) and
/// drain to completion.
/// The reconstructed verdict log is byte-identical to an uncrashed
/// paced run over the same trace.
fn recover(args: &Args) -> Result<String, String> {
    let (db, requests, deadlines) = load_workload(args)?;
    let telemetry = Telemetry::new();
    let config = service_config(args, deadlines, db.aux().os_bounds, &telemetry)?;

    let (service, recovery) =
        eavm_service::AllocService::recover(db, config).map_err(|e| e.to_string())?;
    // Tickets are dense in submission order, so the watermark says
    // exactly how far into the trace the crashed process got.
    let resume_from = (recovery.next_ticket as usize).min(requests.len());
    eavm_service::drive_paced(&service, &requests[resume_from..]).map_err(|e| e.to_string())?;
    service.drain().map_err(|e| e.to_string())?;
    let mut verdicts = service.poll_verdicts();
    let stats = service.shutdown().map_err(|e| e.to_string())?;
    verdicts.sort_by_key(|(ticket, _)| *ticket);
    let report = ReplayReport {
        stats,
        verdicts,
        requests: requests.len(),
        vms: requests.iter().map(|r| r.vm_count as u64).sum(),
    };

    let s = &report.stats;
    let mut output = format!(
        "{}\nresubmitted: {} of {} trace requests\n\
         {}\
         virtual-makespan={:.0}s estimated-energy={:.3e}J\n",
        recovery.summary(),
        requests.len() - resume_from,
        requests.len(),
        render_verdict_counts(s, None),
        s.virtual_now.value(),
        s.estimated_energy.value(),
    );
    output.push_str(&render_overload(s));
    output.push_str(&render_consolidation(s));
    output.push_str(&render_durability(s));
    output.push_str(&export_verdicts(args, &report)?);
    output.push_str(&export_metrics(args, &telemetry)?);
    Ok(output)
}

/// Offline journal repair: sweep checkpoint debris, truncate a torn or
/// bit-rotted WAL tail back to a valid record boundary, and quarantine
/// corrupt snapshots so recovery falls back to the next-newest good
/// one. The report is deterministic — same directory bytes, same
/// output — which is what the CI corruption drill `cmp`s.
fn scrub_cmd(args: &Args) -> Result<String, String> {
    let dir = args.get_required::<PathBuf>("journal-dir")?;
    if !dir.is_dir() {
        return Err(format!("--journal-dir {}: not a directory", dir.display()));
    }
    let report = eavm_durability::scrub_dir(&dir).map_err(|e| e.to_string())?;
    Ok(report.render())
}

/// Deterministically damage a journal directory for scrub/recovery
/// drills. Every mutation is a pure function of `--seed` and the file
/// bytes, so two copies of the same journal corrupted with the same
/// seed end up byte-identical (and scrub to identical reports).
fn corrupt_cmd(args: &Args) -> Result<String, String> {
    let dir = args.get_required::<PathBuf>("journal-dir")?;
    let kind: String = args.get_required("kind")?;
    let mut rng = eavm_storage::SplitMix64::new(args.get_or("seed", 0xC0FF)?);
    let read = |p: &Path| std::fs::read(p).map_err(|e| format!("{}: {e}", p.display()));
    let write =
        |p: &Path, raw: &[u8]| std::fs::write(p, raw).map_err(|e| format!("{}: {e}", p.display()));
    match kind.as_str() {
        // Flip one seeded bit in the newest snapshot: its CRC no longer
        // matches, so scrub must quarantine it and fall back.
        "snapshot-bit-flip" => {
            let snaps = eavm_durability::list_snapshots(&dir).map_err(|e| e.to_string())?;
            let (_, path) = snaps.first().ok_or("no snapshots to corrupt")?;
            let mut raw = read(path)?;
            let byte = (rng.next_u64() % raw.len().max(1) as u64) as usize;
            let bit = (rng.next_u64() % 8) as u32;
            raw[byte] ^= 1 << bit;
            write(path, &raw)?;
            let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
            Ok(format!(
                "corrupted: snapshot-bit-flip {} byte={byte} bit={bit}\n",
                name.unwrap_or_default()
            ))
        }
        // Append a frame header that promises more payload than
        // follows — exactly what a crash mid-append leaves behind.
        "wal-torn-tail" => {
            let path = eavm_durability::wal_path(&dir);
            let mut raw = read(&path)?;
            let promised = 64 + (rng.next_u64() % 192) as usize;
            raw.extend_from_slice(&(promised as u32).to_le_bytes());
            raw.extend_from_slice(&(rng.next_u64() as u32).to_le_bytes());
            for _ in 0..promised / 2 {
                raw.push(rng.next_u64() as u8);
            }
            write(&path, &raw)?;
            Ok(format!(
                "corrupted: wal-torn-tail promised={promised} written={}\n",
                promised / 2
            ))
        }
        // Zero a seeded run of bytes inside the record region: the
        // frame it lands in fails its CRC (or decodes to garbage), so
        // scrub truncates the WAL back to the last boundary before it.
        "wal-zero-run" => {
            let path = eavm_durability::wal_path(&dir);
            let mut raw = read(&path)?;
            let magic = eavm_durability::WAL_MAGIC.len();
            let body = raw.len().saturating_sub(magic);
            if body < 16 {
                return Err("WAL too short to corrupt".into());
            }
            let run = (8 + (rng.next_u64() % 24) as usize).min(body);
            let start = magic + (rng.next_u64() % (body - run + 1) as u64) as usize;
            raw[start..start + run].fill(0);
            write(&path, &raw)?;
            Ok(format!(
                "corrupted: wal-zero-run offset={start} len={run}\n"
            ))
        }
        other => Err(format!(
            "unknown --kind {other:?} (snapshot-bit-flip|wal-torn-tail|wal-zero-run)"
        )),
    }
}

/// Replay the trace through the deterministic single-thread service
/// mode: the simulator's virtual clock drives the service's allocator,
/// so output equals `simulate --strategy pa:<alpha>` exactly, plus the
/// allocator's model-table counters.
fn replay_online_cmd(args: &Args) -> Result<String, String> {
    let servers: usize = args.get_required("servers")?;
    let margin: f64 = args.get_or("margin", 0.65)?;
    let alpha: f64 = args.get_or("alpha", 0.5)?;
    let (db, requests, deadlines) = load_workload(args)?;

    let goal = OptimizationGoal::new(alpha).map_err(|e| e.to_string())?;
    let telemetry = Telemetry::new();
    let mut config = eavm_service::DeterministicConfig::new(goal, deadlines)
        .with_telemetry(Arc::clone(&telemetry));
    config.qos_margin = margin;
    let chaos = ChaosFlags::from_args(args)?.host_plan(servers, &requests);
    if let Some((_, _, plan)) = &chaos {
        config = config.with_faults(plan.clone());
    }
    let cloud = CloudConfig::new("SERVICE", servers).map_err(|e| e.to_string())?;
    let (out, cache, fallbacks) = eavm_service::replay_deterministic(
        AnalyticModel::reference(),
        cloud,
        db,
        &config,
        &requests,
    )
    .map_err(|e| e.to_string())?;
    let mut output = format!(
        "{}{}",
        render_outcome(&out, &requests),
        render_cache(&cache),
    );
    if let Some((seed, rate, plan)) = &chaos {
        output.push_str(&render_faults(*seed, *rate, plan, &out));
        output.push_str(&format!("model-fallbacks: {fallbacks}\n"));
        output.push_str(&render_conservation(&out, &requests));
    }
    output.push_str(&export_metrics(args, &telemetry)?);
    Ok(output)
}

fn db_diff(args: &Args) -> Result<String, String> {
    let left = load_db(&args.get_required::<PathBuf>("left")?)?;
    let right = load_db(&args.get_required::<PathBuf>("right")?)?;
    let diff = eavm_benchdb::DbDiff::between(&left, &right);
    let tolerance: f64 = args.get_or("tolerance", 0.02)?;
    Ok(format!(
        "{}within {tolerance:.3} tolerance: {}\n",
        diff.render(),
        if diff.within(tolerance) { "yes" } else { "NO" }
    ))
}

fn info(args: &Args) -> Result<String, String> {
    let db = load_db(&args.get_required::<PathBuf>("db-dir")?)?;
    Ok(format!("registers: {}\n{}", db.len(), db.aux().to_text()))
}

/// Run the workspace invariant checker ([`eavm_lint`]) over `--root`
/// (default: the current directory). `--rules D4,W1` restricts the run
/// to the named rules; unknown ids fail before any file is read.
/// Under `--deny`, any unwaived violation turns the report into an
/// `Err`, which exits nonzero — the mode CI runs between clippy and
/// the chaos smoke.
fn lint(args: &Args) -> Result<String, String> {
    let root = args.get_or("root", PathBuf::from("."))?;
    let format: String = args.get_or("format", "text".to_string())?;
    // Validate both the format and the rule list up front, so a typo
    // is a structured error before the scan spends time on 140 files.
    if !matches!(format.as_str(), "text" | "json" | "sarif") {
        return Err(format!("unknown --format {format:?} (text|json|sarif)"));
    }
    let config = eavm_lint::LintConfig::workspace_default();
    let config = match args.get_optional::<String>("rules")? {
        Some(list) => {
            let enabled = eavm_lint::parse_rule_list(&list).map_err(|e| format!("--rules: {e}"))?;
            config.restricted(&enabled)
        }
        None => config,
    };
    let report = eavm_lint::run_lint_with(&root, &config)?;
    let rendered = match format.as_str() {
        "text" => report.render_text(),
        "json" => report.render_json(),
        _ => report.render_sarif(),
    };
    let violations = report.violations().count();
    if args.flag("deny") && violations > 0 {
        let trailer = format!("lint: {violations} unwaived violation(s) under --deny");
        // SARIF goes to files/uploads; keep the denial note readable.
        return Err(match format.as_str() {
            "sarif" => trailer,
            _ => format!("{rendered}{trailer}"),
        });
    }
    Ok(rendered)
}

/// Parse the scenario `file` (a positional peeled off in [`dispatch`])
/// and overlay the command line's chaos flags.
fn load_scenario(args: &Args, file: &Path) -> Result<eavm_scenario::ScenarioSpec, String> {
    let text = std::fs::read_to_string(file).map_err(|e| format!("{}: {e}", file.display()))?;
    let mut spec =
        eavm_scenario::parse_scenario(&text).map_err(|e| format!("{}: {e}", file.display()))?;
    // Command-line chaos flags overlay the file's [faults] section.
    ChaosFlags::from_args(args)?.apply_to_spec(&mut spec)?;
    Ok(spec)
}

/// The `scenario check` report: the validated shape of the scenario,
/// one line per phase. Parsing already failed loudly if the file was
/// malformed, so reaching this function *is* the verdict.
fn render_scenario_check(spec: &eavm_scenario::ScenarioSpec) -> String {
    use std::fmt::Write as _;
    let big = if spec.fleet.big_nodes > 0 {
        format!("+{}big", spec.fleet.big_nodes)
    } else {
        String::new()
    };
    let mut out = format!(
        "scenario {:?}: ok (mode={} policy={} seed={} servers={}{} phases={})\n",
        spec.name,
        spec.mode.label(),
        spec.policy,
        spec.seed,
        spec.fleet.servers,
        big,
        spec.phases.len(),
    );
    for phase in &spec.phases {
        let exit = match phase.exit {
            eavm_scenario::ExitCondition::Jobs(n) => format!("{n} jobs"),
            eavm_scenario::ExitCondition::AfterSeconds(s) => format!("{s:.0}s"),
        };
        let policy = match &phase.policy {
            Some(p) => format!(" policy={p}"),
            None => String::new(),
        };
        let faults = if phase.has_faults() { " faults" } else { "" };
        let consolidate = if phase.consolidate {
            format!(
                " consolidate(every={:.0}s drain<={})",
                phase.consolidate_every_s, phase.drain_threshold
            )
        } else {
            String::new()
        };
        let _ = writeln!(
            out,
            "  phase {:?}: exit after {exit} gap={:.0}s burst<={} vms={}..={}{policy}{faults}{consolidate}",
            phase.name, phase.mean_gap_s, phase.max_burst, phase.vms_min, phase.vms_max,
        );
    }
    out
}

/// `scenario run`: compile and execute against `--db-dir DIR`, or —
/// when no database is given — the exact (meter-free) model built in
/// process, which is deterministic and keeps runs reproducible.
fn scenario_run(args: &Args, spec: &eavm_scenario::ScenarioSpec) -> Result<String, String> {
    let db = match args.get_optional::<PathBuf>("db-dir")? {
        Some(dir) => load_db(&dir)?,
        None => {
            let threads: usize = args.get_or("threads", 1)?;
            DbBuilder::exact()
                .build_parallel(threads)
                .map_err(|e| e.to_string())?
        }
    };
    let outcome = eavm_scenario::run_scenario(spec, &db)?;
    let csv = outcome.to_csv();
    match args.get_optional::<PathBuf>("out")? {
        Some(path) => {
            std::fs::write(&path, &csv).map_err(|e| e.to_string())?;
            let total = outcome.total();
            Ok(format!(
                "scenario {:?}: {} phase(s) -> {}\nsummary: jobs={} vms={} placed={} \
                 shed={} requeued={} sla={} energy={:.3e}J\n",
                spec.name,
                outcome.rows.len().saturating_sub(1),
                path.display(),
                total.jobs,
                total.vms,
                total.placed,
                total.shed,
                total.requeued,
                total.sla_violations,
                total.energy_j,
            ))
        }
        None => Ok(csv),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(tokens: &[&str]) -> Result<String, String> {
        let v: Vec<String> = tokens.iter().map(|s| s.to_string()).collect();
        dispatch(&v)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("eavm-cli-test-{tag}"));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn help_prints_usage() {
        let out = run(&["help"]).unwrap();
        assert!(out.contains("build-db"));
        assert!(out.contains("simulate"));
        let out2 = dispatch(&[]).unwrap();
        assert!(out2.contains("USAGE"));
    }

    #[test]
    fn unknown_subcommand_errors() {
        assert!(run(&["frobnicate"]).is_err());
    }

    #[test]
    fn gen_and_clean_trace_roundtrip() {
        let dir = temp_dir("trace");
        let raw = dir.join("raw.swf");
        let cleaned = dir.join("clean.swf");
        let out = run(&[
            "gen-trace",
            "--out",
            raw.to_str().unwrap(),
            "--seed",
            "3",
            "--jobs",
            "400",
        ])
        .unwrap();
        assert!(out.contains("400 jobs"));
        let out = run(&[
            "clean-trace",
            "--input",
            raw.to_str().unwrap(),
            "--out",
            cleaned.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("kept"));
        let t = SwfTrace::parse(&std::fs::read_to_string(cleaned).unwrap()).unwrap();
        assert!(!t.jobs.is_empty());
    }

    #[test]
    fn full_cli_pipeline_end_to_end() {
        let dir = temp_dir("pipeline");
        let dbdir = dir.join("db");
        let tracep = dir.join("t.swf");
        run(&[
            "build-db",
            "--out-dir",
            dbdir.to_str().unwrap(),
            "--exact",
            "--threads",
            "4",
        ])
        .unwrap();
        let info_out = run(&["info", "--db-dir", dbdir.to_str().unwrap()]).unwrap();
        assert!(info_out.contains("registers: 466"));

        run(&[
            "gen-trace",
            "--out",
            tracep.to_str().unwrap(),
            "--jobs",
            "300",
            "--seed",
            "5",
        ])
        .unwrap();

        for strategy in ["ff", "bf", "pa05", "pa:0.25"] {
            let out = run(&[
                "simulate",
                "--db-dir",
                dbdir.to_str().unwrap(),
                "--trace",
                tracep.to_str().unwrap(),
                "--strategy",
                strategy,
                "--servers",
                "8",
                "--vms",
                "500",
            ])
            .unwrap();
            assert!(out.contains("summary:"), "{strategy}: {out}");
            assert!(out.contains("makespan="));
        }

        // The service modes share the same db/trace front matter.
        let prom_path = dir.join("serve.prom");
        let serve_out = run(&[
            "serve",
            "--db-dir",
            dbdir.to_str().unwrap(),
            "--trace",
            tracep.to_str().unwrap(),
            "--servers",
            "8",
            "--shards",
            "2",
            "--vms",
            "200",
            "--metrics-out",
            prom_path.to_str().unwrap(),
        ])
        .unwrap();
        assert!(serve_out.contains("throughput="), "{serve_out}");
        assert!(serve_out.contains("hit-rate="), "{serve_out}");
        assert!(serve_out.contains("admission-latency: p50="), "{serve_out}");
        let prom = std::fs::read_to_string(&prom_path).unwrap();
        assert!(prom.contains("# TYPE service_submitted counter"), "{prom}");
        assert!(prom.contains("service_admitted_local"), "{prom}");

        let json_path = dir.join("replay.json");
        let replay_out = run(&[
            "replay-online",
            "--db-dir",
            dbdir.to_str().unwrap(),
            "--trace",
            tracep.to_str().unwrap(),
            "--servers",
            "8",
            "--vms",
            "200",
            "--metrics-out",
            json_path.to_str().unwrap(),
            "--metrics-format",
            "json",
        ])
        .unwrap();
        assert!(replay_out.contains("summary:"), "{replay_out}");
        assert!(replay_out.contains("cache: hits="), "{replay_out}");
        let json = std::fs::read_to_string(&json_path).unwrap();
        assert!(json.contains("\"replay.cache.hits\""), "{json}");
        assert!(json.contains("\"sim.vms_placed\""), "{json}");

        // Deterministic mode is the PROACTIVE simulation through the
        // service's allocator: the rendered outcome rows must match
        // `simulate` exactly.
        let sim_out = run(&[
            "simulate",
            "--db-dir",
            dbdir.to_str().unwrap(),
            "--trace",
            tracep.to_str().unwrap(),
            "--strategy",
            "pa05",
            "--servers",
            "8",
            "--vms",
            "200",
        ])
        .unwrap();
        let sim_summary = sim_out.lines().find(|l| l.starts_with("summary:"));
        let replay_summary = replay_out.lines().find(|l| l.starts_with("summary:"));
        assert_eq!(sim_summary, replay_summary);
    }

    #[test]
    fn trace_stats_reports_summary() {
        let dir = temp_dir("stats");
        let tracep = dir.join("s.swf");
        run(&[
            "gen-trace",
            "--out",
            tracep.to_str().unwrap(),
            "--jobs",
            "200",
            "--seed",
            "9",
        ])
        .unwrap();
        let out = run(&["trace-stats", "--input", tracep.to_str().unwrap()]).unwrap();
        assert!(out.contains("jobs:            200"));
        assert!(out.contains("bursts:"));
        assert!(run(&["trace-stats", "--input", "/no/such/file"]).is_err());
    }

    #[test]
    fn simulate_supports_big_nodes_and_flags() {
        let dir = temp_dir("hetero");
        let dbdir = dir.join("db");
        let tracep = dir.join("t.swf");
        run(&[
            "build-db",
            "--out-dir",
            dbdir.to_str().unwrap(),
            "--exact",
            "--threads",
            "4",
        ])
        .unwrap();
        run(&[
            "gen-trace",
            "--out",
            tracep.to_str().unwrap(),
            "--jobs",
            "150",
            "--seed",
            "3",
        ])
        .unwrap();
        let out = run(&[
            "simulate",
            "--db-dir",
            dbdir.to_str().unwrap(),
            "--trace",
            tracep.to_str().unwrap(),
            "--strategy",
            "ff",
            "--servers",
            "3",
            "--big-nodes",
            "2",
            "--vms",
            "300",
            "--burst",
            "--always-on",
            "--timeline-out",
            dir.join("timeline.csv").to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("summary:"), "{out}");
        let csv = std::fs::read_to_string(dir.join("timeline.csv")).unwrap();
        assert!(csv.starts_with("server,start_s,end_s,ncpu,nmem,nio"));
        assert!(csv.lines().count() > 1, "timeline rows missing");
    }

    #[test]
    fn chaos_flags_inject_faults_and_conserve_vms() {
        let dir = temp_dir("chaos");
        let dbdir = dir.join("db");
        let tracep = dir.join("t.swf");
        run(&[
            "build-db",
            "--out-dir",
            dbdir.to_str().unwrap(),
            "--exact",
            "--threads",
            "4",
        ])
        .unwrap();
        run(&[
            "gen-trace",
            "--out",
            tracep.to_str().unwrap(),
            "--jobs",
            "200",
            "--seed",
            "5",
        ])
        .unwrap();
        let replay = |_: usize| {
            run(&[
                "replay-online",
                "--db-dir",
                dbdir.to_str().unwrap(),
                "--trace",
                tracep.to_str().unwrap(),
                "--servers",
                "6",
                "--vms",
                "200",
                "--fault-seed",
                "42",
                "--fault-rate",
                "1.0",
            ])
            .unwrap()
        };
        let first = replay(0);
        assert!(first.contains("faults: seed=42 rate=1"), "{first}");
        assert!(first.contains("conservation: ok"), "{first}");
        assert!(first.contains("model-fallbacks:"), "{first}");
        // Deterministic chaos: the whole report reproduces byte for byte.
        assert_eq!(first, replay(1));

        // The live service survives an injected worker kill and still
        // resolves every submission.
        let serve_out = run(&[
            "serve",
            "--db-dir",
            dbdir.to_str().unwrap(),
            "--trace",
            tracep.to_str().unwrap(),
            "--servers",
            "6",
            "--shards",
            "2",
            "--vms",
            "200",
            "--fault-rate",
            "1.0",
            "--kill-shard",
            "0",
            "--kill-after",
            "5",
        ])
        .unwrap();
        assert!(serve_out.contains("conservation: ok"), "{serve_out}");
        assert!(serve_out.contains("respawns=1"), "{serve_out}");
        assert!(!serve_out.contains("VIOLATED"), "{serve_out}");

        // Out-of-range chaos knobs are rejected up front, not armed.
        let err = run(&[
            "replay-online",
            "--db-dir",
            dbdir.to_str().unwrap(),
            "--trace",
            tracep.to_str().unwrap(),
            "--servers",
            "6",
            "--fault-rate",
            "2.0",
        ])
        .unwrap_err();
        assert!(err.contains("[0, 1]"), "{err}");
        let err = run(&[
            "serve",
            "--db-dir",
            dbdir.to_str().unwrap(),
            "--trace",
            tracep.to_str().unwrap(),
            "--servers",
            "6",
            "--kill-shard",
            "0",
            "--kill-after",
            "0",
        ])
        .unwrap_err();
        assert!(err.contains("nonzero"), "{err}");
    }

    #[test]
    fn serve_journals_and_recover_reproduces_the_verdict_log() {
        let dir = temp_dir("journal");
        let dbdir = dir.join("db");
        let tracep = dir.join("t.swf");
        run(&[
            "build-db",
            "--out-dir",
            dbdir.to_str().unwrap(),
            "--exact",
            "--threads",
            "4",
        ])
        .unwrap();
        run(&[
            "gen-trace",
            "--out",
            tracep.to_str().unwrap(),
            "--jobs",
            "150",
            "--seed",
            "7",
        ])
        .unwrap();

        let journal = dir.join("journal");
        let _ = std::fs::remove_dir_all(&journal);
        let served = dir.join("served.log");
        let serve_out = run(&[
            "serve",
            "--db-dir",
            dbdir.to_str().unwrap(),
            "--trace",
            tracep.to_str().unwrap(),
            "--servers",
            "6",
            "--shards",
            "2",
            "--vms",
            "150",
            "--paced",
            "--journal-dir",
            journal.to_str().unwrap(),
            "--checkpoint-every",
            "16",
            "--verdicts-out",
            served.to_str().unwrap(),
        ])
        .unwrap();
        assert!(
            serve_out.contains("durability: wal-appends="),
            "{serve_out}"
        );
        assert!(serve_out.contains("verdicts:"), "{serve_out}");
        let served_log = std::fs::read_to_string(&served).unwrap();
        assert!(!served_log.is_empty());

        // Recovering a *completed* journal resubmits nothing, replays
        // the full WAL, and reconstructs the identical verdict log.
        let recovered = dir.join("recovered.log");
        let recover_out = run(&[
            "recover",
            "--db-dir",
            dbdir.to_str().unwrap(),
            "--trace",
            tracep.to_str().unwrap(),
            "--servers",
            "6",
            "--shards",
            "2",
            "--vms",
            "150",
            "--journal-dir",
            journal.to_str().unwrap(),
            "--checkpoint-every",
            "16",
            "--verdicts-out",
            recovered.to_str().unwrap(),
        ])
        .unwrap();
        assert!(
            recover_out.contains("recovered snapshots_loaded="),
            "{recover_out}"
        );
        assert!(recover_out.contains("resubmitted: 0 of"), "{recover_out}");
        let recovered_log = std::fs::read_to_string(&recovered).unwrap();
        assert_eq!(served_log, recovered_log, "verdict logs diverged");

        // The crash knob is guarded: it needs a journal to crash into,
        // and recover without a journal directory is meaningless.
        let err = run(&[
            "serve",
            "--db-dir",
            dbdir.to_str().unwrap(),
            "--trace",
            tracep.to_str().unwrap(),
            "--servers",
            "6",
            "--crash-after-events",
            "10",
        ])
        .unwrap_err();
        assert!(err.contains("--journal-dir"), "{err}");
        let err = run(&[
            "recover",
            "--db-dir",
            dbdir.to_str().unwrap(),
            "--trace",
            tracep.to_str().unwrap(),
            "--servers",
            "6",
        ])
        .unwrap_err();
        assert!(err.contains("--journal-dir"), "{err}");
    }

    /// Copy the flat journal directory `src` to `dst` byte-for-byte.
    fn copy_journal(src: &Path, dst: &Path) {
        std::fs::create_dir_all(dst).unwrap();
        for entry in std::fs::read_dir(src).unwrap() {
            let entry = entry.unwrap();
            std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
        }
    }

    #[test]
    fn corrupt_scrub_recover_drill_restores_byte_parity() {
        let dir = temp_dir("scrubdrill");
        let dbdir = dir.join("db");
        let tracep = dir.join("t.swf");
        run(&[
            "build-db",
            "--out-dir",
            dbdir.to_str().unwrap(),
            "--exact",
            "--threads",
            "4",
        ])
        .unwrap();
        run(&[
            "gen-trace",
            "--out",
            tracep.to_str().unwrap(),
            "--jobs",
            "120",
            "--seed",
            "13",
        ])
        .unwrap();

        // Control: a clean paced run; its verdict log is the oracle.
        let journal = dir.join("journal");
        let _ = std::fs::remove_dir_all(&journal);
        let ctrl = dir.join("ctrl.log");
        run(&[
            "serve",
            "--db-dir",
            dbdir.to_str().unwrap(),
            "--trace",
            tracep.to_str().unwrap(),
            "--servers",
            "6",
            "--shards",
            "2",
            "--vms",
            "120",
            "--paced",
            "--journal-dir",
            journal.to_str().unwrap(),
            "--checkpoint-every",
            "8",
            "--verdicts-out",
            ctrl.to_str().unwrap(),
        ])
        .unwrap();

        // Same seed, two copies of the journal: identical damage and
        // byte-identical scrub reports.
        let twin = dir.join("journal-twin");
        let _ = std::fs::remove_dir_all(&twin);
        copy_journal(&journal, &twin);
        for j in [&journal, &twin] {
            let note = run(&[
                "corrupt",
                "--journal-dir",
                j.to_str().unwrap(),
                "--kind",
                "snapshot-bit-flip",
                "--seed",
                "5",
            ])
            .unwrap();
            assert!(note.contains("snapshot-bit-flip snap-"), "{note}");
        }
        let report = run(&["scrub", "--journal-dir", journal.to_str().unwrap()]).unwrap();
        let twin_report = run(&["scrub", "--journal-dir", twin.to_str().unwrap()]).unwrap();
        assert_eq!(report, twin_report, "scrub reports diverged");
        assert!(report.contains("quarantined=1"), "{report}");
        assert!(report.contains("verdict: repaired"), "{report}");

        // Tear the WAL tail on top; scrub repairs that too, and a second
        // pass finds nothing left to fix.
        run(&[
            "corrupt",
            "--journal-dir",
            journal.to_str().unwrap(),
            "--kind",
            "wal-torn-tail",
            "--seed",
            "5",
        ])
        .unwrap();
        let report = run(&["scrub", "--journal-dir", journal.to_str().unwrap()]).unwrap();
        assert!(report.contains("torn_tails_repaired=1"), "{report}");
        assert!(run(&["scrub", "--journal-dir", journal.to_str().unwrap()])
            .unwrap()
            .contains("verdict: clean"));

        // Recovery from the scrubbed journal reproduces the control log.
        let recovered = dir.join("recovered.log");
        let recover_out = run(&[
            "recover",
            "--db-dir",
            dbdir.to_str().unwrap(),
            "--trace",
            tracep.to_str().unwrap(),
            "--servers",
            "6",
            "--shards",
            "2",
            "--vms",
            "120",
            "--journal-dir",
            journal.to_str().unwrap(),
            "--checkpoint-every",
            "8",
            "--verdicts-out",
            recovered.to_str().unwrap(),
        ])
        .unwrap();
        assert!(recover_out.contains("resubmitted: 0 of"), "{recover_out}");
        assert_eq!(
            std::fs::read_to_string(&ctrl).unwrap(),
            std::fs::read_to_string(&recovered).unwrap(),
            "verdict logs diverged after corrupt+scrub"
        );

        // Guard rails: a file is not a journal directory, the fault
        // flags need a journal, and scrub needs an existing directory.
        let not_a_dir = dir.join("plain.txt");
        std::fs::write(&not_a_dir, "hello").unwrap();
        let err = run(&[
            "serve",
            "--db-dir",
            dbdir.to_str().unwrap(),
            "--trace",
            tracep.to_str().unwrap(),
            "--servers",
            "6",
            "--journal-dir",
            not_a_dir.to_str().unwrap(),
        ])
        .unwrap_err();
        assert!(err.contains("not a directory"), "{err}");
        let err = run(&[
            "serve",
            "--db-dir",
            dbdir.to_str().unwrap(),
            "--trace",
            tracep.to_str().unwrap(),
            "--servers",
            "6",
            "--storage-enospc-after",
            "4096",
        ])
        .unwrap_err();
        assert!(err.contains("--journal-dir"), "{err}");
        assert!(run(&["scrub", "--journal-dir", not_a_dir.to_str().unwrap()]).is_err());
        assert!(run(&[
            "corrupt",
            "--journal-dir",
            journal.to_str().unwrap(),
            "--kind",
            "nonsense"
        ])
        .is_err());
    }

    #[test]
    fn enospc_serve_degrades_and_recovers_to_byte_parity() {
        let dir = temp_dir("enospc");
        let dbdir = dir.join("db");
        let tracep = dir.join("t.swf");
        run(&[
            "build-db",
            "--out-dir",
            dbdir.to_str().unwrap(),
            "--exact",
            "--threads",
            "4",
        ])
        .unwrap();
        run(&[
            "gen-trace",
            "--out",
            tracep.to_str().unwrap(),
            "--jobs",
            "100",
            "--seed",
            "21",
        ])
        .unwrap();
        let serve = |journal: &Path, log: &Path, extra: &[&str]| {
            let mut argv = vec![
                "serve",
                "--db-dir",
                dbdir.to_str().unwrap(),
                "--trace",
                tracep.to_str().unwrap(),
                "--servers",
                "6",
                "--shards",
                "2",
                "--vms",
                "100",
                "--paced",
                "--checkpoint-every",
                "8",
            ];
            let journal_s = journal.to_str().unwrap().to_string();
            let log_s = log.to_str().unwrap().to_string();
            argv.extend(["--journal-dir", &journal_s, "--verdicts-out", &log_s]);
            argv.extend(extra);
            run(&argv)
        };

        let ctrl_dir = dir.join("ctrl-journal");
        let _ = std::fs::remove_dir_all(&ctrl_dir);
        let ctrl = dir.join("ctrl.log");
        serve(&ctrl_dir, &ctrl, &[]).unwrap();

        // The faulty run exhausts its byte budget mid-trace, degrades to
        // shedding, and still resolves every submission exactly once.
        let faulty_dir = dir.join("faulty-journal");
        let _ = std::fs::remove_dir_all(&faulty_dir);
        let faulty_log = dir.join("faulty.log");
        let out = serve(
            &faulty_dir,
            &faulty_log,
            &[
                "--storage-enospc-after",
                "6000",
                "--storage-fault-seed",
                "3",
            ],
        )
        .unwrap();
        assert!(out.contains("conservation: ok"), "{out}");
        assert!(out.contains("storage: faults-injected="), "{out}");
        assert!(out.contains("degraded-entries="), "{out}");

        // Recovery over the surviving journal re-drives the shed tail
        // on healthy storage: the rebuilt log matches the clean control.
        let recovered = dir.join("recovered.log");
        let recover_out = run(&[
            "recover",
            "--db-dir",
            dbdir.to_str().unwrap(),
            "--trace",
            tracep.to_str().unwrap(),
            "--servers",
            "6",
            "--shards",
            "2",
            "--vms",
            "100",
            "--checkpoint-every",
            "8",
            "--journal-dir",
            faulty_dir.to_str().unwrap(),
            "--scrub",
            "--verdicts-out",
            recovered.to_str().unwrap(),
        ])
        .unwrap();
        assert!(!recover_out.contains("VIOLATED"), "{recover_out}");
        assert_eq!(
            std::fs::read_to_string(&ctrl).unwrap(),
            std::fs::read_to_string(&recovered).unwrap(),
            "ENOSPC recovery diverged from the clean control"
        );
    }

    const SCENARIO_FIXTURE: &str = r#"
[scenario]
name = "cli_smoke"
seed = 11
mode = "simulate"
alpha = 0.5

[fleet]
servers = 4

[phase.calm]
exit_jobs = 8
mean_gap_s = 60.0

[phase.rough]
exit_jobs = 8
mean_gap_s = 30.0
crash_rate = 0.4
"#;

    #[test]
    fn scenario_check_and_run_are_deterministic() {
        let dir = temp_dir("scenario");
        let file = dir.join("s.eavm");
        std::fs::write(&file, SCENARIO_FIXTURE).unwrap();

        let checked = run(&["scenario", "check", file.to_str().unwrap()]).unwrap();
        assert!(checked.contains("\"cli_smoke\": ok"), "{checked}");
        assert!(checked.contains("phase \"rough\""), "{checked}");

        // Without --out the CSV goes to stdout; with it, a summary does.
        let csv = run(&["scenario", "run", file.to_str().unwrap()]).unwrap();
        assert!(csv.starts_with("scenario,phase,backend,"), "{csv}");
        assert_eq!(csv.lines().count(), 1 + 2 + 1, "two phases + total");

        let a = dir.join("a.csv");
        let b = dir.join("b.csv");
        for out in [&a, &b] {
            let note = run(&[
                "scenario",
                "run",
                file.to_str().unwrap(),
                "--out",
                out.to_str().unwrap(),
            ])
            .unwrap();
            assert!(note.contains("2 phase(s)"), "{note}");
        }
        let bytes_a = std::fs::read(&a).unwrap();
        assert_eq!(bytes_a, std::fs::read(&b).unwrap(), "runs diverged");
        assert_eq!(String::from_utf8(bytes_a).unwrap(), csv);
    }

    #[test]
    fn scenario_flags_override_faults_and_usage_is_guarded() {
        let dir = temp_dir("scenover");
        let file = dir.join("s.eavm");
        std::fs::write(&file, SCENARIO_FIXTURE).unwrap();

        // Chaos overlays re-validate: a worker kill needs service mode.
        let err = run(&[
            "scenario",
            "run",
            file.to_str().unwrap(),
            "--kill-shard",
            "0",
        ])
        .unwrap_err();
        assert!(err.contains("kill_shard"), "{err}");
        // A fault-seed override still runs (and stays deterministic).
        let csv = run(&[
            "scenario",
            "run",
            file.to_str().unwrap(),
            "--fault-seed",
            "99",
        ])
        .unwrap();
        assert!(csv.contains("cli_smoke,total,"), "{csv}");

        assert!(run(&["scenario"]).is_err());
        assert!(run(&["scenario", "run"]).is_err());
        assert!(run(&["scenario", "audit", file.to_str().unwrap()]).is_err());
        assert!(run(&["scenario", "check", "/nonexistent/x.eavm"]).is_err());
        // Parse errors surface the file and the line.
        let bad = dir.join("bad.eavm");
        std::fs::write(&bad, "[scenario]\nname = \"x\"\nbogus = 1\n").unwrap();
        let err = run(&["scenario", "check", bad.to_str().unwrap()]).unwrap_err();
        assert!(err.contains("scenario:3:"), "{err}");
    }

    #[test]
    fn simulate_rejects_bad_strategy() {
        let dir = temp_dir("badstrat");
        let dbdir = dir.join("db");
        run(&[
            "build-db",
            "--out-dir",
            dbdir.to_str().unwrap(),
            "--exact",
            "--threads",
            "4",
        ])
        .unwrap();
        let db = ModelDatabase::load(&dbdir.join("model.csv"), &dbdir.join("aux.txt")).unwrap();
        let dl = [Seconds(1.0); 3];
        assert!(make_strategy("zz", &db, dl, 1.0).is_err());
        assert!(make_strategy("pa:nope", &db, dl, 1.0).is_err());
        assert!(make_strategy("pa:0.3", &db, dl, 1.0).is_ok());
    }

    #[test]
    fn db_diff_compares_two_builds() {
        let dir = temp_dir("diff");
        let a = dir.join("a");
        let b = dir.join("b");
        run(&[
            "build-db",
            "--out-dir",
            a.to_str().unwrap(),
            "--exact",
            "--threads",
            "4",
        ])
        .unwrap();
        run(&[
            "build-db",
            "--out-dir",
            b.to_str().unwrap(),
            "--seed",
            "7",
            "--threads",
            "4",
        ])
        .unwrap();
        let same = run(&[
            "db-diff",
            "--left",
            a.to_str().unwrap(),
            "--right",
            a.to_str().unwrap(),
        ])
        .unwrap();
        assert!(same.contains("within 0.020 tolerance: yes"), "{same}");
        let noisy = run(&[
            "db-diff",
            "--left",
            a.to_str().unwrap(),
            "--right",
            b.to_str().unwrap(),
        ])
        .unwrap();
        assert!(noisy.contains("shared keys:"), "{noisy}");
    }

    #[test]
    fn info_requires_existing_database() {
        assert!(run(&["info", "--db-dir", "/nonexistent/path"]).is_err());
    }

    /// `serve` with its three required flags plus `extra`.
    fn try_parse(extra: &[&str]) -> Result<Args, String> {
        let mut v: Vec<String> = ["--db-dir", "db", "--trace", "t.swf", "--servers", "8"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        v.extend(extra.iter().map(|s| s.to_string()));
        Args::parse(args::command("serve").unwrap(), &v)
    }

    fn parse(extra: &[&str]) -> Args {
        try_parse(extra).unwrap()
    }

    #[test]
    fn overload_flags_are_validated_up_front() {
        // Tuning flags without the arming switch fail loudly.
        let err = try_parse(&["--overload-cut", "0.4"]).unwrap_err();
        assert!(err.contains("--overload-cut needs --overload"), "{err}");
        // The armed plane picks up every tuning value.
        let cfg = overload_flags(&parse(&[
            "--overload",
            "--overload-cut",
            "0.4",
            "--limit-max",
            "12",
            "--queue-target",
            "30",
            "--queue-interval",
            "90",
            "--breaker-rate",
            "0.1",
            "--breaker-seed",
            "7",
        ]))
        .unwrap()
        .unwrap();
        assert_eq!(cfg.multiplicative_cut, 0.4);
        assert_eq!(cfg.max_limit, 12.0);
        assert_eq!(cfg.queue_target, 30.0);
        assert_eq!(cfg.queue_interval, 90.0);
        assert_eq!(cfg.breaker_rate, 0.1);
        assert_eq!(cfg.breaker_seed, 7);
        // Bare `--overload` arms the defaults.
        assert!(overload_flags(&parse(&["--overload"])).unwrap().is_some());
        assert!(overload_flags(&parse(&[])).unwrap().is_none());
        // Domain checks reject out-of-range knobs.
        let err = overload_flags(&parse(&["--overload", "--overload-cut", "1.0"])).unwrap_err();
        assert!(err.contains("(0, 1)"), "{err}");
        let err = overload_flags(&parse(&["--overload", "--queue-target", "0"])).unwrap_err();
        assert!(err.contains("positive"), "{err}");
        let err = overload_flags(&parse(&["--overload", "--limit-max", "0.5"])).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        let err = overload_flags(&parse(&["--overload", "--breaker-rate", "1.5"])).unwrap_err();
        assert!(err.contains("[0, 1]"), "{err}");
    }

    #[test]
    fn append_retries_flag_is_validated_like_checkpoint_every() {
        let dir = temp_dir("appendretries");
        let jd = dir.join("journal");
        let telemetry = Telemetry::new();
        let mk = |tokens: &[&str]| {
            service_config(
                &try_parse(tokens)?,
                [Seconds(1e7); 3],
                eavm_types::MixVector::new(4, 4, 4),
                &telemetry,
            )
        };
        // Zero retries is rejected, matching --checkpoint-every 0.
        let err = mk(&[
            "--journal-dir",
            jd.to_str().unwrap(),
            "--append-retries",
            "0",
        ])
        .unwrap_err();
        assert!(
            err.contains("append-retries") && err.contains("nonzero"),
            "{err}"
        );
        let err = mk(&[
            "--journal-dir",
            jd.to_str().unwrap(),
            "--checkpoint-every",
            "0",
        ])
        .unwrap_err();
        assert!(
            err.contains("checkpoint-every") && err.contains("nonzero"),
            "{err}"
        );
        // The knob needs a journal to retry into.
        let err = mk(&["--append-retries", "3"]).unwrap_err();
        assert!(err.contains("--journal-dir"), "{err}");
        // A valid count lands in the durability config.
        let config = mk(&[
            "--journal-dir",
            jd.to_str().unwrap(),
            "--append-retries",
            "5",
        ])
        .unwrap();
        assert_eq!(config.durability.unwrap().append_retries, 5);
    }

    /// The error `command` (given its required workload flags plus
    /// `extra`) fails with before it touches any file.
    fn parse_error(command: &str, extra: &[&str]) -> String {
        let mut argv = vec![
            command,
            "--db-dir",
            "db",
            "--trace",
            "t.swf",
            "--servers",
            "8",
        ];
        argv.extend(extra);
        run(&argv).expect_err("must be rejected")
    }

    #[test]
    fn mistyped_flag_is_rejected() {
        let err = parse_error("serve", &["--overlaod-cut", "0.3"]);
        assert!(err.contains("unknown flag --overlaod-cut"), "{err}");
        assert!(err.contains("[--overload-cut F]"), "usage missing: {err}");
    }

    #[test]
    fn removed_cache_flag_says_it_was_removed() {
        let err = parse_error("serve", &["--cache", "64"]);
        assert!(err.contains("--cache was removed"), "{err}");
    }

    #[test]
    fn value_flag_without_a_value_is_rejected() {
        let err = parse_error("serve", &["--journal-dir"]);
        assert!(err.contains("--journal-dir needs a value"), "{err}");
    }

    #[test]
    fn switch_given_a_value_is_rejected() {
        let err = parse_error("serve", &["--paced", "1"]);
        assert!(err.contains("--paced is a switch"), "{err}");
    }

    #[test]
    fn journal_flags_need_a_journal() {
        let err = parse_error("serve", &["--checkpoint-every", "16"]);
        assert!(
            err.contains("--checkpoint-every needs --journal-dir"),
            "{err}"
        );
        let err = parse_error("serve", &["--scrub"]);
        assert!(err.contains("--scrub needs --journal-dir"), "{err}");
    }

    #[test]
    fn metrics_format_needs_metrics_out() {
        let err = parse_error("serve", &["--metrics-format", "json"]);
        assert!(
            err.contains("--metrics-format needs --metrics-out"),
            "{err}"
        );
    }

    #[test]
    fn replay_online_rejects_worker_kill_flags() {
        let err = parse_error("replay-online", &["--kill-shard", "0"]);
        assert!(err.contains("unknown flag --kill-shard"), "{err}");
    }

    #[test]
    fn scenario_rejects_a_mistyped_flag() {
        let err = run(&["scenario", "check", "s.eavm", "--fault-rat", "0.3"]).unwrap_err();
        assert!(err.contains("unknown flag --fault-rat"), "{err}");
    }

    #[test]
    fn help_lists_every_declared_flag() {
        let help = run(&["help"]).unwrap();
        for command in args::COMMANDS {
            let usage = command.usage();
            assert!(help.contains(&usage), "{} missing from help", command.name);
            let words: Vec<&str> = usage
                .split_whitespace()
                .map(|w| w.trim_matches(['[', ']']))
                .collect();
            for flag in command.flags() {
                let name = format!("--{}", flag.name);
                assert!(words.contains(&name.as_str()), "{}: {name}", command.name);
            }
        }
    }
}
