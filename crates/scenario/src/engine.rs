//! Driving a compiled scenario to an outcome CSV.
//!
//! Two deterministic backends:
//!
//! * **Simulate** — the discrete-event simulator. Per-phase rows come
//!   from *prefix attribution*: the engine runs the simulation over
//!   `requests[..end_of_phase_k]` for each `k` and diffs successive
//!   outcomes, so each row is the marginal effect of adding that
//!   phase's arrivals (cross-phase interference — phase-k VMs slowing
//!   phase-(k−1) stragglers — is honestly charged to phase `k`).
//!   Policy switches are handled by [`PhasedStrategy`], which routes
//!   each request to its phase's strategy by request id.
//! * **Service** — the live sharded service driven *paced*
//!   ([`eavm_service::drive_paced`]), one phase chunk at a time, with
//!   coordinator counter snapshots at every phase boundary; the final
//!   phase absorbs the drain so shed-on-drain is attributed somewhere
//!   explicit. Telemetry is forced off, so the admission-latency column
//!   is deterministically zero (latency stamps are wall-clock).
//!
//! Either way the outcome CSV is a pure function of the scenario file —
//! the property CI's determinism gate runs every library file twice
//! against.

use eavm_benchdb::ModelDatabase;
use eavm_core::{
    AllocationStrategy, AnalyticModel, DbModel, OptimizationGoal, Placement, Proactive,
    RequestView, ServerView,
};
use eavm_faults::WorkerFaultPlan;
use eavm_migrate::ConsolidationConfig;
use eavm_overload::OverloadConfig;
use eavm_service::{drive_paced, AllocService, ServiceConfig, ServiceStats};
use eavm_simulator::{CloudConfig, MigrationConfig, MigrationWindow, SimOutcome, Simulation};
use eavm_telemetry::Telemetry;
use eavm_types::{EavmError, Seconds};

use crate::compile::{compile, CompiledScenario};
use crate::spec::{Mode, Policy, ScenarioSpec};

/// QoS margin used by every scenario-built PROACTIVE strategy (the
/// workspace-wide CLI default).
const QOS_MARGIN: f64 = 0.65;

/// One outcome row: a phase (or the `total` pseudo-phase) under one
/// backend. Counts are signed because simulate-mode rows are marginal
/// diffs between prefix runs.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRow {
    /// Scenario name.
    pub scenario: String,
    /// Phase name, or `"total"` for the whole-run row.
    pub phase: String,
    /// Backend label (`simulate` / `service`).
    pub backend: &'static str,
    /// Window start, seconds.
    pub start_s: f64,
    /// Window end, seconds.
    pub end_s: f64,
    /// Requests submitted during the window.
    pub jobs: usize,
    /// VMs requested during the window.
    pub vms: u64,
    /// VM placements (simulate) or admitted requests (service)
    /// attributed to the window.
    pub placed: i64,
    /// Requests shed (service mode; the simulator queues instead).
    pub shed: i64,
    /// VMs restarted after host crashes (simulate) or requests requeued
    /// past a dead shard (service).
    pub requeued: i64,
    /// Deadline misses attributed to the window (simulate mode; the
    /// service reports deadline pressure as shed instead).
    pub sla_violations: i64,
    /// Energy attributed to the window, Joules (model-estimated in
    /// service mode).
    pub energy_j: f64,
    /// p99 admission latency, microseconds. Zero whenever telemetry is
    /// off — which scenario runs force, keeping the CSV deterministic.
    pub p99_admission_us: u64,
}

impl PhaseRow {
    /// Header for [`Self::to_csv`].
    pub const CSV_HEADER: &'static str = "scenario,phase,backend,start_s,end_s,jobs,vms,\
placed,shed,requeued,sla_violations,energy_j,p99_admission_us";

    /// One CSV row (matches [`Self::CSV_HEADER`]).
    pub fn to_csv(&self) -> String {
        format!(
            "{},{},{},{:.3},{:.3},{},{},{},{},{},{},{:.3},{}",
            self.scenario,
            self.phase,
            self.backend,
            self.start_s,
            self.end_s,
            self.jobs,
            self.vms,
            self.placed,
            self.shed,
            self.requeued,
            self.sla_violations,
            self.energy_j,
            self.p99_admission_us,
        )
    }
}

/// The full result of one scenario run: per-phase rows plus a `total`
/// row, in order.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// Per-phase rows followed by the `total` row.
    pub rows: Vec<PhaseRow>,
}

impl ScenarioOutcome {
    /// The complete outcome CSV, header included, trailing newline.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(PhaseRow::CSV_HEADER);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.to_csv());
            out.push('\n');
        }
        out
    }

    /// The `total` row (always present).
    pub fn total(&self) -> &PhaseRow {
        self.rows.last().expect("outcome always has a total row")
    }
}

/// Build one phase's strategy from its resolved policy.
fn build_strategy(
    policy: &Policy,
    db: &ModelDatabase,
    deadlines: [Seconds; 3],
) -> Result<Box<dyn AllocationStrategy>, String> {
    Ok(match policy {
        Policy::Named(name) => {
            eavm_core::baseline(name).ok_or_else(|| format!("unknown strategy {name:?}"))?
        }
        Policy::Proactive { alpha } => {
            let goal = OptimizationGoal::new(*alpha).map_err(|e| e.to_string())?;
            Box::new(
                Proactive::new(DbModel::new(db.clone()), goal, deadlines)
                    .with_qos_margin(QOS_MARGIN),
            )
        }
    })
}

/// A strategy that routes each request to its phase's strategy.
///
/// Phases are contiguous, densely renumbered id ranges (the compiler
/// guarantees this), so the phase of request `id` is the first boundary
/// with `id < end_request`. The request view carries no submit time —
/// ids are the only phase key a strategy can see, which is exactly why
/// the compiler renumbers.
pub struct PhasedStrategy {
    /// `(end_request, strategy)` per phase, in phase order.
    arms: Vec<(usize, Box<dyn AllocationStrategy>)>,
    label: String,
}

impl PhasedStrategy {
    /// Build one arm per phase of the compiled scenario.
    pub fn new(compiled: &CompiledScenario, db: &ModelDatabase) -> Result<Self, String> {
        let deadlines = scenario_deadlines(&compiled.spec, db);
        let mut arms = Vec::with_capacity(compiled.phases.len());
        let mut labels = Vec::with_capacity(compiled.phases.len());
        for phase in &compiled.phases {
            arms.push((
                phase.end_request,
                build_strategy(&phase.policy, db, deadlines)?,
            ));
            labels.push(format!("{}", phase.policy));
        }
        Ok(PhasedStrategy {
            arms,
            label: format!("SC[{}]", labels.join("+")),
        })
    }
}

impl AllocationStrategy for PhasedStrategy {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn allocate(
        &mut self,
        request: &RequestView,
        servers: &[ServerView],
    ) -> Result<Vec<Placement>, EavmError> {
        let id = request.id.index();
        // Restarted VMs keep their original ids, so every id the
        // simulator can present falls inside some phase; fall back to
        // the last arm rather than panic if that ever changes.
        let k = self
            .arms
            .iter()
            .position(|(end, _)| id < *end)
            .unwrap_or(self.arms.len() - 1);
        self.arms[k].1.allocate(request, servers)
    }
}

/// Per-type deadlines of a scenario: `qos_factor ×` the model
/// database's solo times.
fn scenario_deadlines(spec: &ScenarioSpec, db: &ModelDatabase) -> [Seconds; 3] {
    solo_times(db).map(|solo| solo * spec.qos_factor)
}

/// The model database's solo times (the compiler's deadline basis).
pub fn solo_times(db: &ModelDatabase) -> [Seconds; 3] {
    db.aux().solo_times
}

/// Compile and run a scenario against the right backend.
pub fn run_scenario(spec: &ScenarioSpec, db: &ModelDatabase) -> Result<ScenarioOutcome, String> {
    let compiled = compile(spec, solo_times(db))?;
    match spec.mode {
        Mode::Simulate => run_simulate(&compiled, db),
        Mode::Service => run_service(&compiled, db),
    }
}

/// The counters a simulate-mode row diffs between prefix runs.
#[derive(Debug, Clone, Copy, Default)]
struct SimCounters {
    vms: i64,
    sla: i64,
    restarted: i64,
    energy: f64,
}

impl SimCounters {
    fn of(out: &SimOutcome) -> Self {
        SimCounters {
            vms: out.vms as i64,
            sla: out.sla_violations as i64,
            restarted: out.vms_restarted as i64,
            energy: out.energy.value(),
        }
    }
}

/// Simulate backend: per-phase rows by prefix attribution.
fn run_simulate(
    compiled: &CompiledScenario,
    db: &ModelDatabase,
) -> Result<ScenarioOutcome, String> {
    let spec = &compiled.spec;
    let cloud = CloudConfig::new("SCENARIO", spec.fleet.servers).map_err(|e| e.to_string())?;
    let mut sim = Simulation::new(AnalyticModel::reference(), cloud);
    if spec.fleet.big_nodes > 0 {
        let big = AnalyticModel::new(
            eavm_testbed::ServerSpec::big_node(),
            eavm_testbed::ContentionModel::default(),
            &eavm_testbed::BenchmarkSuite::standard(),
            eavm_types::MixVector::new(24, 24, 24),
        );
        sim = sim.with_platform(big, spec.fleet.big_nodes);
    }
    if !compiled.fault_plan.is_empty() {
        sim = sim.with_faults(compiled.fault_plan.clone());
    }
    // Phases with `consolidate = true` lower to absolute-time migration
    // windows: the sweep regime switches exactly at phase boundaries.
    let windows: Vec<MigrationWindow> = spec
        .phases
        .iter()
        .zip(&compiled.phases)
        .filter(|(p, _)| p.consolidate)
        .map(|(p, window)| MigrationWindow {
            start: Seconds(window.start),
            end: Seconds(window.end),
            config: MigrationConfig {
                max_donor_vms: p.drain_threshold,
                check_interval: Seconds(p.consolidate_every_s),
                ..MigrationConfig::default()
            },
        })
        .collect();
    if !windows.is_empty() {
        sim = sim.with_migration_windows(windows);
    }

    let mut rows = Vec::with_capacity(compiled.phases.len() + 1);
    let mut prev = SimCounters::default();
    let mut prev_end = 0usize;
    for (k, phase) in compiled.phases.iter().enumerate() {
        let current = if phase.end_request == prev_end {
            prev // empty phase: the prefix is unchanged, the row is zero
        } else {
            let mut strategy = PhasedStrategy::new(compiled, db)?;
            let out = sim
                .run(&mut strategy, &compiled.requests[..phase.end_request])
                .map_err(|e| e.to_string())?;
            SimCounters::of(&out)
        };
        rows.push(PhaseRow {
            scenario: spec.name.clone(),
            phase: phase.name.clone(),
            backend: spec.mode.label(),
            start_s: phase.start,
            end_s: phase.end,
            jobs: phase.request_count(),
            vms: compiled
                .phase_requests(k)
                .iter()
                .map(|r| r.vm_count as u64)
                .sum(),
            placed: current.vms - prev.vms,
            shed: 0,
            requeued: current.restarted - prev.restarted,
            sla_violations: current.sla - prev.sla,
            energy_j: current.energy - prev.energy,
            p99_admission_us: 0,
        });
        prev = current;
        prev_end = phase.end_request;
    }
    let mut total = total_row(compiled);
    total.placed = prev.vms;
    total.requeued = prev.restarted;
    total.sla_violations = prev.sla;
    total.energy_j = prev.energy;
    rows.push(total);
    Ok(ScenarioOutcome { rows })
}

/// The counters a service-mode row diffs between snapshots.
#[derive(Debug, Clone, Copy, Default)]
struct SvcCounters {
    placed: i64,
    shed: i64,
    requeued: i64,
    energy: f64,
    p99: u64,
}

impl SvcCounters {
    fn of(s: &ServiceStats) -> Self {
        SvcCounters {
            // `admitted_after_wait` is a subset of the two admitted
            // counters (it tags parked requests that later placed), so
            // it is deliberately not summed here.
            placed: (s.admitted_local + s.admitted_cross_shard) as i64,
            shed: (s.shed_admission
                + s.shed_wait_queue
                + s.shed_unplaceable
                + s.shed_shard_failure
                + s.shed_queue_aged
                + s.shed_brownout_class) as i64,
            requeued: s.requeued as i64,
            energy: s.estimated_energy.value(),
            p99: s.admission_latency_us.p99,
        }
    }
}

/// Service backend: paced phase chunks with counter snapshots at every
/// boundary; the drain (and shutdown) is folded into the final phase.
fn run_service(compiled: &CompiledScenario, db: &ModelDatabase) -> Result<ScenarioOutcome, String> {
    let spec = &compiled.spec;
    let mut config = ServiceConfig::new(spec.service.shards, spec.fleet.servers)
        // Telemetry stamps admission latency off the wall clock; a
        // scenario outcome must be a pure function of the file, so the
        // sink is forced off and the p99 column is deterministically 0.
        .with_telemetry(Telemetry::disabled());
    config.queue_capacity = spec.service.queue;
    config.deadlines = scenario_deadlines(spec, db);
    config.qos_margin = QOS_MARGIN;
    if let Policy::Proactive { alpha } = &spec.policy {
        config.goal = OptimizationGoal::new(*alpha).map_err(|e| e.to_string())?;
    }
    if spec.faults.lookup_failure_rate > 0.0 {
        config = config.with_lookup_faults(compiled.fault_plan.lookup_faults());
    }
    if let Some(shard) = spec.faults.kill_shard {
        config = config.with_worker_faults(WorkerFaultPlan::kill_shard(
            spec.service.shards,
            shard,
            spec.faults.kill_after,
        ));
    }
    // The service's consolidation regime is global (sweeps are keyed to
    // the virtual clock, not phase windows): the first consolidating
    // phase sets the knobs for the whole run.
    if let Some(phase) = spec.phases.iter().find(|p| p.consolidate) {
        config = config.with_consolidation(ConsolidationConfig {
            interval: Seconds(phase.consolidate_every_s),
            drain_threshold: phase.drain_threshold,
            ..ConsolidationConfig::default()
        });
    }
    // Likewise the overload plane: limiter/breaker state spans phase
    // boundaries, so the first overloading phase arms it for the run.
    if let Some(phase) = spec.phases.iter().find(|p| p.overload) {
        config.overload = Some(OverloadConfig {
            multiplicative_cut: phase.overload_cut,
            queue_target: phase.overload_queue_target_s,
            queue_interval: phase.overload_queue_interval_s,
            ..OverloadConfig::default()
        });
    }

    let service = AllocService::start(db.clone(), config).map_err(|e| e.to_string())?;
    let mut snapshots: Vec<SvcCounters> = Vec::with_capacity(compiled.phases.len());
    for k in 0..compiled.phases.len() {
        drive_paced(&service, compiled.phase_requests(k)).map_err(|e| e.to_string())?;
        if k + 1 < compiled.phases.len() {
            snapshots.push(SvcCounters::of(
                &service.stats().map_err(|e| e.to_string())?,
            ));
        }
    }
    service.drain().map_err(|e| e.to_string())?;
    let final_stats = service.shutdown().map_err(|e| e.to_string())?;
    snapshots.push(SvcCounters::of(&final_stats));

    let mut rows = Vec::with_capacity(compiled.phases.len() + 1);
    let mut prev = SvcCounters::default();
    for (k, (phase, current)) in compiled.phases.iter().zip(&snapshots).enumerate() {
        rows.push(PhaseRow {
            scenario: spec.name.clone(),
            phase: phase.name.clone(),
            backend: spec.mode.label(),
            start_s: phase.start,
            end_s: phase.end,
            jobs: phase.request_count(),
            vms: compiled
                .phase_requests(k)
                .iter()
                .map(|r| r.vm_count as u64)
                .sum(),
            placed: current.placed - prev.placed,
            shed: current.shed - prev.shed,
            requeued: current.requeued - prev.requeued,
            sla_violations: 0,
            energy_j: current.energy - prev.energy,
            p99_admission_us: current.p99,
        });
        prev = *current;
    }
    let last = *snapshots.last().expect("one snapshot per phase");
    let mut total = total_row(compiled);
    total.placed = last.placed;
    total.shed = last.shed;
    total.requeued = last.requeued;
    total.energy_j = last.energy;
    total.p99_admission_us = last.p99;
    rows.push(total);
    Ok(ScenarioOutcome { rows })
}

/// The whole-run `total` row skeleton: window, job/VM totals, and
/// zeroed counters for the caller to fill from its final snapshot.
fn total_row(compiled: &CompiledScenario) -> PhaseRow {
    let spec = &compiled.spec;
    PhaseRow {
        scenario: spec.name.clone(),
        phase: "total".into(),
        backend: spec.mode.label(),
        start_s: 0.0,
        end_s: compiled.phases.last().map(|p| p.end).unwrap_or(0.0),
        jobs: compiled.requests.len(),
        vms: compiled.requests.iter().map(|r| r.vm_count as u64).sum(),
        placed: 0,
        shed: 0,
        requeued: 0,
        sla_violations: 0,
        energy_j: 0.0,
        p99_admission_us: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_scenario;
    use eavm_benchdb::DbBuilder;
    use std::sync::OnceLock;

    fn db() -> &'static ModelDatabase {
        static DB: OnceLock<ModelDatabase> = OnceLock::new();
        DB.get_or_init(|| DbBuilder::exact().build_parallel(4).expect("db"))
    }

    const SIM: &str = r#"
[scenario]
name = "sim-smoke"
seed = 5
alpha = 0.5

[fleet]
servers = 8

[phase.warm]
exit_jobs = 25
mean_gap_s = 60.0

[phase.burst]
exit_jobs = 40
mean_gap_s = 8.0
max_burst = 6
crash_rate = 0.5
strategy = "ff"
"#;

    const SVC: &str = r#"
[scenario]
name = "svc-smoke"
seed = 6
mode = "service"
alpha = 0.5

[fleet]
servers = 8

[service]
shards = 2
queue = 64

[faults]
lookup_failure_rate = 0.05
kill_shard = 1
kill_after = 12

[phase.ramp]
exit_jobs = 20
mean_gap_s = 30.0

[phase.flood]
exit_jobs = 40
mean_gap_s = 4.0
vms_min = 1
vms_max = 2
"#;

    #[test]
    fn simulate_rows_are_deterministic_and_account_for_everything() {
        let spec = parse_scenario(SIM).expect("spec");
        let a = run_scenario(&spec, db()).expect("run a");
        let b = run_scenario(&spec, db()).expect("run b");
        assert_eq!(a.to_csv(), b.to_csv(), "simulate outcome must reproduce");

        assert_eq!(a.rows.len(), 3); // two phases + total
        let total = a.total();
        assert_eq!(total.phase, "total");
        assert_eq!(total.jobs, 65);
        // Phase placements sum to the total (prefix diffs telescope).
        let placed: i64 = a.rows[..2].iter().map(|r| r.placed).sum();
        assert_eq!(placed, total.placed);
        let energy: f64 = a.rows[..2].iter().map(|r| r.energy_j).sum();
        assert!((energy - total.energy_j).abs() < 1e-6);
        assert!(total.energy_j > 0.0);
        // The faulted phase restarts at least some VMs on this seed, or
        // at minimum the column stays non-negative.
        assert!(a.rows[1].requeued >= 0);
        assert_eq!(total.p99_admission_us, 0);
    }

    #[test]
    fn service_rows_are_deterministic_and_conserve_requests() {
        let spec = parse_scenario(SVC).expect("spec");
        let a = run_scenario(&spec, db()).expect("run a");
        let b = run_scenario(&spec, db()).expect("run b");
        assert_eq!(a.to_csv(), b.to_csv(), "service outcome must reproduce");

        let total = a.total();
        assert_eq!(total.jobs, 60);
        // Paced + drained: every request resolves to placed or shed.
        assert_eq!(total.placed + total.shed, total.jobs as i64);
        // Telemetry is off, so the latency column is exactly zero.
        assert!(a.rows.iter().all(|r| r.p99_admission_us == 0));
        // The injected shard kill fired and the service survived it:
        // conservation above already proves every request still
        // resolved. Paced batches are single-request, so the worker can
        // die idle — a requeue is possible but not guaranteed.
        assert!(total.requeued >= 0);
    }

    #[test]
    fn overloaded_service_runs_stay_deterministic_and_conserve_requests() {
        // Arm the overload plane during the flood phase with a tight
        // queue budget so aged parks and brownout sheds both count.
        let text = SVC.replace(
            "[phase.flood]",
            "[phase.flood]\noverload = true\noverload_cut = 0.5\n\
             overload_queue_target_s = 30.0\noverload_queue_interval_s = 60.0",
        );
        let spec = parse_scenario(&text).expect("spec");
        assert!(spec.phases[1].overload);
        let a = run_scenario(&spec, db()).expect("run a");
        let b = run_scenario(&spec, db()).expect("run b");
        assert_eq!(a.to_csv(), b.to_csv(), "overloaded service must reproduce");
        let total = a.total();
        // Conservation still holds with QueueAged/BrownoutClass sheds
        // folded into the shed column.
        assert_eq!(total.placed + total.shed, total.jobs as i64);
    }

    #[test]
    fn consolidating_phases_stay_deterministic_on_both_backends() {
        // Simulate: the burst phase gains a consolidation window.
        let text = SIM.replace(
            "strategy = \"ff\"",
            "strategy = \"ff\"\nconsolidate = true\nconsolidate_every_s = 300.0\ndrain_threshold = 2",
        );
        let spec = parse_scenario(&text).expect("spec");
        let a = run_scenario(&spec, db()).expect("run a");
        let b = run_scenario(&spec, db()).expect("run b");
        assert_eq!(a.to_csv(), b.to_csv(), "consolidating sim must reproduce");
        assert_eq!(a.total().jobs, 65);

        // Service: consolidation sweeps between admissions must not
        // break request conservation or determinism.
        let text = SVC.replace(
            "[phase.ramp]",
            "[phase.ramp]\nconsolidate = true\nconsolidate_every_s = 120.0",
        );
        let spec = parse_scenario(&text).expect("spec");
        let a = run_scenario(&spec, db()).expect("run a");
        let b = run_scenario(&spec, db()).expect("run b");
        assert_eq!(
            a.to_csv(),
            b.to_csv(),
            "consolidating service must reproduce"
        );
        let total = a.total();
        assert_eq!(total.placed + total.shed, total.jobs as i64);
    }

    #[test]
    fn csv_shape_matches_header() {
        let spec = parse_scenario(SIM).expect("spec");
        let out = run_scenario(&spec, db()).expect("run");
        let cols = PhaseRow::CSV_HEADER.split(',').count();
        for line in out.to_csv().lines() {
            assert_eq!(line.split(',').count(), cols, "{line}");
        }
    }
}
