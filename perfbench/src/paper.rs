//! The paper's evaluation: pipeline set-up and the strategy × cloud
//! matrix of Figs. 5–7, timed through `eavm-bench`, `eavm-simulator`,
//! `eavm-core` and `eavm-benchdb`.

use std::time::Instant;

use eavm_bench::{Pipeline, PipelineConfig, StrategyKind};
use eavm_benchdb::DbBuilder;
use eavm_core::{AllocationStrategy, DbModel, OptimizationGoal, Proactive, SearchMetrics};
use eavm_simulator::{CloudConfig, SimOutcome, Simulation};
use eavm_swf::{adapt, clean_trace, AdaptConfig, GeneratorConfig, TraceGenerator};
use eavm_telemetry::Counter;
use eavm_types::WorkloadType;

use crate::trace::{
    Recorder, SpanId, Stopwatch, Tally, TallyHandle, TimedModel, TimedStrategy, Timing,
};
use crate::Checks;

/// `Pipeline::build`, timed as a whole.
pub fn build(
    config: &PipelineConfig,
    rec: &mut Recorder,
    parent: SpanId,
) -> Result<(Pipeline, Timing), String> {
    let span = rec.open("setup.pipeline_build", parent);
    let watch = Stopwatch::start();
    let pipeline = Pipeline::build(config.clone()).map_err(|e| e.to_string())?;
    let timing = watch.stop();
    rec.close(span, &[]);
    Ok((pipeline, timing))
}

/// Set-up timed layer by layer: the steps of `Pipeline::build`, called
/// one at a time through the `eavm-benchdb` and `eavm-swf` public
/// functions. Returns the total's CPU seconds and the wall seconds of
/// the benchdb build and of trace synthesis, and checks the pieces
/// equal what `Pipeline::build` produced.
pub fn build_layered(
    reference: &Pipeline,
    rec: &mut Recorder,
    parent: SpanId,
    checks: &mut Checks,
) -> (f64, f64, f64) {
    let config = &reference.config;
    let span = rec.open("setup.layered", parent);
    let watch = Stopwatch::start();

    let db_span = rec.open("setup.benchdb_build", span);
    let db_started = Instant::now();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let db = DbBuilder {
        meter_seed: Some(config.seed),
        ..Default::default()
    }
    .build_parallel(threads);
    let db_s = db_started.elapsed().as_secs_f64();
    rec.close(db_span, &[]);

    let swf_span = rec.open("setup.swf", span);
    let swf_started = Instant::now();
    let requests = db.as_ref().ok().and_then(|db| {
        let mut generator = TraceGenerator::new(GeneratorConfig {
            seed: config.seed,
            total_jobs: (config.total_vms as usize / 2).max(64),
            mean_burst_gap_s: config.mean_burst_gap_s,
            ..Default::default()
        })
        .ok()?;
        let mut trace = generator.generate();
        clean_trace(&mut trace);
        let solo = WorkloadType::ALL.map(|ty| db.aux().solo_time(ty));
        let adapt_cfg = AdaptConfig {
            qos_factor: config.qos_factor,
            ..AdaptConfig::paper(config.seed ^ 0xADAF, solo)
        };
        let mut requests = adapt::adapt_trace(&trace, &adapt_cfg);
        adapt::truncate_to_vm_total(&mut requests, config.total_vms);
        Some(requests)
    });
    let swf_s = swf_started.elapsed().as_secs_f64();
    rec.close(swf_span, &[]);
    let total_s = watch.stop().cpu_s;
    rec.close(span, &[]);

    let same_db = db.is_ok_and(|db| db.to_csv() == reference.db.to_csv());
    checks.check(same_db, || {
        "layered benchdb build differs from Pipeline::build".into()
    });
    let same_requests = requests.as_ref() == Some(&reference.requests);
    checks.check(same_requests, || {
        "layered trace synthesis differs from Pipeline::build".into()
    });
    (total_s, db_s, swf_s)
}

/// One cell of the matrix: a paper strategy on one cloud.
#[derive(Debug, Clone)]
pub struct Cell {
    pub cloud: CloudConfig,
    pub kind: StrategyKind,
}

impl Cell {
    fn label(&self) -> String {
        format!("matrix.sim {} {}", self.cloud.name, self.kind.label())
    }
}

/// The twelve cells: every paper strategy on SMALLER, then on LARGER
/// (the order of `Pipeline::run_matrix`).
pub fn cells(p: &Pipeline) -> Vec<Cell> {
    let (smaller, larger) = p.clouds();
    [smaller, larger]
        .into_iter()
        .flat_map(|cloud| {
            StrategyKind::paper_set().into_iter().map(move |kind| Cell {
                cloud: cloud.clone(),
                kind,
            })
        })
        .collect()
}

/// Run one cell untraced through `Pipeline::run`: its timing and the
/// outcome, if it passed its checks.
pub fn run_cell(
    p: &Pipeline,
    cell: &Cell,
    rec: &mut Recorder,
    parent: SpanId,
    checks: &mut Checks,
) -> (Timing, Option<SimOutcome>) {
    let span = rec.open(cell.label(), parent);
    let watch = Stopwatch::start();
    let outcome = p.run(cell.kind, &cell.cloud);
    let timing = watch.stop();
    rec.close(span, &[("cpu_ns", timing.cpu_s * 1e9)]);
    (timing, check_outcome(p, cell.kind, outcome, checks))
}

fn check_outcome(
    p: &Pipeline,
    kind: StrategyKind,
    outcome: Result<SimOutcome, eavm_simulator::SimulationError>,
    checks: &mut Checks,
) -> Option<SimOutcome> {
    match outcome {
        Ok(out) => {
            let placed_all = out.vms as u64 == u64::from(p.total_vms());
            checks.check(placed_all, || {
                format!(
                    "{} on {} placed {} of {} VMs",
                    kind.label(),
                    out.cloud,
                    out.vms,
                    p.total_vms()
                )
            });
            placed_all.then_some(out)
        }
        Err(e) => {
            checks.check(false, || format!("{} failed: {e}", kind.label()));
            None
        }
    }
}

/// PA-0.5 must use less energy than FF on both clouds. `outcomes` are
/// the twelve cells' in [`cells`] order; `paper_set` lists FF first and
/// PA-0.5 last.
pub fn check_pa_beats_ff(outcomes: &[Option<SimOutcome>], checks: &mut Checks) {
    let per_cloud = StrategyKind::paper_set().len();
    for cloud in outcomes.chunks(per_cloud) {
        let beats = match (cloud.first(), cloud.last()) {
            (Some(Some(ff)), Some(Some(pa))) => pa.energy < ff.energy,
            _ => false,
        };
        checks.check(beats, || "PA-0.5 did not use less energy than FF".into());
    }
}

/// PA-0.5 energy saving over FF on SMALLER, percent.
pub fn saving_pct(outcomes: &[Option<SimOutcome>]) -> Option<f64> {
    let ff = outcomes.first()?.as_ref()?;
    let pa = outcomes
        .get(StrategyKind::paper_set().len() - 1)?
        .as_ref()?;
    Some(100.0 * (1.0 - pa.energy.value() / ff.energy.value()))
}

/// Layer figures of one traced cell.
#[derive(Debug, Default, Clone)]
pub struct CellLayers {
    /// Wall seconds of the cell.
    pub wall_s: f64,
    /// CPU seconds of the process during the cell.
    pub cpu_s: f64,
    /// Strategy construction and simulation set-up, outside `run`.
    pub setup_s: f64,
    pub estimate: Tally,
    pub allocate: Tally,
    pub infeasible: u64,
    pub partitions_evaluated: u64,
    pub partitions_feasible: u64,
    pub candidates_pruned: u64,
    /// Seconds inside `Simulation::run`.
    pub run_s: f64,
}

/// Run one cell traced: the strategy is built as `Pipeline::strategy`
/// builds it, with the `DbModel` inside a [`TimedModel`] and the
/// strategy inside a [`TimedStrategy`]. The outcome must equal the
/// untraced `reference`.
pub fn run_cell_traced(
    p: &Pipeline,
    cell: &Cell,
    reference: Option<&SimOutcome>,
    rec: &mut Recorder,
    parent: SpanId,
    checks: &mut Checks,
) -> CellLayers {
    let span = rec.open(cell.label(), parent);
    let watch = Stopwatch::start();
    let search = SearchMetrics {
        searches: Counter::standalone(),
        partitions_evaluated: Counter::standalone(),
        partitions_feasible: Counter::standalone(),
        candidates_pruned: Counter::standalone(),
        stripe: 0,
    };
    let (mut strategy, estimate) = timed_strategy(p, cell.kind, search.clone());
    let sim = Simulation::new(p.ground_truth.clone(), cell.cloud.clone());
    let run_started = Instant::now();
    let outcome = sim.run(&mut strategy, &p.requests);
    let run_s = run_started.elapsed().as_secs_f64();
    let Timing { wall_s, cpu_s } = watch.stop();

    let estimate = estimate.map(|t| t.get()).unwrap_or_default();
    let layers = CellLayers {
        wall_s,
        cpu_s,
        setup_s: wall_s - run_s,
        estimate,
        allocate: strategy.tally,
        infeasible: strategy.infeasible,
        partitions_evaluated: search.partitions_evaluated.get(),
        partitions_feasible: search.partitions_feasible.get(),
        candidates_pruned: search.candidates_pruned.get(),
        run_s,
    };
    rec.close(
        span,
        &[
            ("estimate_calls", estimate.calls as f64),
            ("estimate_timed_calls", estimate.timed as f64),
            ("estimate_timed_ns", estimate.busy.as_nanos() as f64),
            ("allocate_calls", strategy.tally.calls as f64),
            ("allocate_ns", strategy.tally.busy.as_nanos() as f64),
            ("run_ns", run_s * 1e9),
        ],
    );
    let outcome = check_outcome(p, cell.kind, outcome, checks);
    checks.check(outcome.as_ref() == reference, || {
        format!("traced {} differs from untraced", cell.label())
    });
    layers
}

/// `Pipeline::strategy(kind)`, wrapped for timing. A PROACTIVE kind is
/// rebuilt the way `Pipeline::strategy` builds it, to put the `DbModel`
/// inside a [`TimedModel`]; its tally handle is returned.
fn timed_strategy(
    p: &Pipeline,
    kind: StrategyKind,
    search: SearchMetrics,
) -> (TimedStrategy<dyn AllocationStrategy>, Option<TallyHandle>) {
    let StrategyKind::Pa(alpha) = kind else {
        return (TimedStrategy::new(p.strategy(kind)), None);
    };
    let goal = OptimizationGoal::new(alpha).expect("paper alphas are valid");
    let model = TimedModel::new(DbModel::new(p.db.clone()));
    let tally = model.tally_handle();
    let strategy = Proactive::new(model, goal, p.deadlines)
        .with_qos_margin(p.config.qos_margin)
        .with_search_metrics(search);
    (TimedStrategy::new(Box::new(strategy)), Some(tally))
}
