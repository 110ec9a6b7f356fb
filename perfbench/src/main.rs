//! The eavm benchmark: the paper's strategy × cloud matrix, the online
//! service replay at 1 and `nproc` shards, and the journaled replay
//! with recovery, on a trace made from `--seed`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper --seed 59118 --seconds 40 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` interleaves untraced and traced
//! passes and reports the per-layer metrics, tracing overheads and the
//! matrix ledger. Timed end-to-end metrics are process CPU time scaled
//! by a fixed reference kernel timed in the same run (`refkernel`). A
//! run also writes its metadata, sample summaries and (traced) spans
//! under `.perfbench_out/`. A failed correctness check makes the exit
//! code 1. See `perfbench/README.md`.

// The one foreign call, reading the process CPU clock, allows it locally.
#![deny(unsafe_code)]

mod online;
mod paper;
mod refkernel;
mod report;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use eavm_bench::{Pipeline, PipelineConfig};
use eavm_core::DbModel;
use eavm_simulator::SimOutcome;

use refkernel::RefKernel;
use report::{json_string, Report};
use stats::Summary;
use trace::Recorder;

/// Pipeline builds per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Minimum visits of each matrix cell, per traced/untraced mode.
const MIN_CELL_VISITS: usize = 2;
/// The service never runs more shards than this, nor more than `nproc`.
const MAX_SHARDS: usize = 8;
/// Relative gap between the ledger and the untraced matrix CPU time
/// the ledger may leave, percent.
const LEDGER_TOLERANCE_PCT: f64 = 10.0;
/// A run whose reference kernel times spread more than this (IQR over
/// median) ran on a machine whose speed changed under it; it is
/// flagged in its metadata and on stderr.
const REF_SPREAD_FLAG: f64 = 0.25;
const OUT_DIR: &str = ".perfbench_out";

/// The input sets, which differ in how fast the trace arrives.
#[derive(Debug, Clone, Copy)]
enum Workload {
    /// The paper's arrival rate: bursts every 18 s on average, so the
    /// fleet saturates and requests wait and cross shards.
    Paper,
    /// The same 10,000 VMs at half that rate (bursts every 36 s): the
    /// fleet rarely fills, so the wait queue and cross-shard path idle.
    Light,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "paper" => Some(Workload::Paper),
            "light" => Some(Workload::Light),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper",
            Workload::Light => "light",
        }
    }

    fn config(self, seed: u64) -> PipelineConfig {
        let gap = match self {
            Workload::Paper => PipelineConfig::default().mean_burst_gap_s,
            Workload::Light => 2.0 * PipelineConfig::default().mean_burst_gap_s,
        };
        PipelineConfig {
            seed,
            mean_burst_gap_s: gap,
            ..PipelineConfig::default()
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("not a u64"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("not a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Correctness checks made during the run.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {}", why());
        }
    }
}

/// Run `pass(i)` at least `min` times, then again while one more pass
/// as long as the previous one still ends before `until`.
fn repeat(min: usize, until: Instant, mut pass: impl FnMut(usize)) {
    let mut last = Duration::ZERO;
    let mut i = 0;
    loop {
        let now = Instant::now();
        if i >= min && now + last > until {
            return;
        }
        pass(i);
        last = now.elapsed();
        i += 1;
    }
}

/// Where the run's results, sample summaries and spans are written.
fn out_path(args: &Args, what: &str) -> PathBuf {
    Path::new(OUT_DIR).join(format!(
        "{}-seed{}-trace{}.{what}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ))
}

/// Run metadata recorded with every result.
fn metadata(args: &Args, nproc: usize, shards: usize, requests: usize, s: &Samples) -> String {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let rustc = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |v| v.trim().to_string());
    // Only a checkout with its own `.git` names a commit; a git call in
    // a plain source tree would report an enclosing repository's.
    let commit = Path::new(".git")
        .exists()
        .then(|| {
            Command::new("git")
                .args(["rev-parse", "HEAD"])
                .output()
                .ok()
        })
        .flatten()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |v| v.trim().to_string());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\
         \"shards\":{shards},\"requests\":{requests},\"steal_pct\":{},\"ref_kernel_ms\":{},\
         \"ref_kernel_spread\":{},\"ref_drift_flag\":{},\"commit\":{},\"profile\":{},\"rustc\":{}}}",
        json_string(args.workload.name()),
        args.seed,
        report::json_number(args.seconds),
        args.trace,
        s.steal_pct.map_or_else(|| "null".into(), report::json_number),
        report::json_number(s.reference.median * 1e3),
        report::json_number(s.reference.relative_spread()),
        s.reference.relative_spread() > REF_SPREAD_FLAG,
        json_string(&commit),
        json_string(profile),
        json_string(&rustc),
    )
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload paper|light --seed N --seconds S [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Samples gathered by the legs. Index `[0]` holds untraced passes,
/// `[1]` traced ones.
#[derive(Default)]
struct Samples {
    /// CPU seconds per set-up.
    setup: [Vec<f64>; 2],
    /// Wall seconds per set-up, untraced.
    setup_walls: Vec<f64>,
    benchdb_build: Vec<f64>,
    swf: Vec<f64>,
    /// CPU seconds per matrix cell.
    cells: [Vec<Vec<f64>>; 2],
    /// Wall seconds per matrix cell, untraced.
    cell_walls: Vec<Vec<f64>>,
    /// Layer figures per matrix cell, from traced visits.
    layers: Vec<Vec<paper::CellLayers>>,
    saving: Option<f64>,
    one_shard: [Vec<online::Pass>; 2],
    n_shard: [Vec<online::Pass>; 2],
    durable: [Vec<online::Pass>; 2],
    /// CPU time stolen by the hypervisor during the legs, percent.
    steal_pct: Option<f64>,
    /// What timing one model call adds to its measured duration.
    clock: Duration,
    /// CPU seconds of the reference kernel, timed before every set-up
    /// and every round.
    reference_samples: Vec<f64>,
    reference: Summary,
}

impl Samples {
    /// The factor that turns this run's CPU seconds into seconds at
    /// the reference speed.
    fn scale(&self) -> f64 {
        refkernel::NOMINAL_S / self.reference.median
    }
}

/// Hypervisor steal time so far, in clock ticks (Linux `/proc/stat`).
fn steal_ticks() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

fn run(args: &Args) -> Result<bool, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let shards = nproc.min(MAX_SHARDS);
    let config = args.workload.config(args.seed);
    let mut rec = Recorder::new(args.trace);
    let mut checks = Checks::default();
    let mut s = Samples::default();
    let kernel = RefKernel::new();
    let root = Recorder::root();
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;

    // Set-up: whole builds, then (traced) the same steps one by one.
    let mut pipeline: Option<Pipeline> = None;
    for _ in 0..SETUP_REPS {
        s.reference_samples.push(kernel.pass());
        let (built, timing) = paper::build(&config, &mut rec, root)?;
        s.setup[0].push(timing.cpu_s);
        s.setup_walls.push(timing.wall_s);
        pipeline.get_or_insert(built);
    }
    let p = pipeline.ok_or("no pipeline built")?;
    if args.trace {
        for _ in 0..SETUP_REPS {
            let (total, db, swf) = paper::build_layered(&p, &mut rec, root, &mut checks);
            s.setup[1].push(total);
            s.benchdb_build.push(db);
            s.swf.push(swf);
        }
    }

    // The legs, interleaved round by round so that a slow spell of the
    // machine lands on all of them alike. A round runs one matrix cell,
    // then one online pass at 1 shard and one at `shards` shards, then
    // one journaled pass. The reference kernel opens every round. In a
    // traced run the round visits its cell twice, untraced and traced
    // back to back, so that the ledger compares visits that saw the
    // same machine speed; the order alternates from the cell's second
    // round on, and the first untraced visit sets the outcome every
    // later visit must reproduce. Service rounds alternate between
    // untraced and traced.
    let cells = paper::cells(&p);
    let modes = if args.trace { 2 } else { 1 };
    s.cells = [vec![Vec::new(); cells.len()], vec![Vec::new(); cells.len()]];
    s.layers = vec![Vec::new(); cells.len()];
    s.cell_walls = vec![Vec::new(); cells.len()];
    let mut reference: Vec<Option<SimOutcome>> = vec![None; cells.len()];
    let mut visits = vec![0usize; cells.len()];
    let legs = rec.open("legs", root);
    let steal_before = steal_ticks();
    let legs_started = Instant::now();
    let until = legs_started + Duration::from_secs_f64(args.seconds);
    repeat(MIN_CELL_VISITS * cells.len(), until, |round| {
        s.reference_samples.push(kernel.pass());
        let c = round % cells.len();
        let traced_first = args.trace && visits[c] % 2 == 1;
        visits[c] += 1;
        for traced in [traced_first, !traced_first].into_iter().take(modes) {
            if traced {
                let layers = paper::run_cell_traced(
                    &p,
                    &cells[c],
                    reference[c].as_ref(),
                    &mut rec,
                    legs,
                    &mut checks,
                );
                s.cells[1][c].push(layers.cpu_s);
                s.layers[c].push(layers);
            } else {
                let (timing, outcome) = paper::run_cell(&p, &cells[c], &mut rec, legs, &mut checks);
                s.cells[0][c].push(timing.cpu_s);
                s.cell_walls[c].push(timing.wall_s);
                if visits[c] == 1 {
                    reference[c] = outcome;
                } else {
                    checks.check(outcome == reference[c], || {
                        format!("matrix cell {c} changed its outcome between visits")
                    });
                }
            }
        }

        let k = round % modes;
        let traced = k == 1;
        let one = online::pass(&p, 1, None, traced, &mut rec, legs, &mut checks);
        s.one_shard[k].push(one);
        let many = online::pass(&p, shards, None, traced, &mut rec, legs, &mut checks);
        s.n_shard[k].push(many);
        let dir = Path::new(OUT_DIR).join(format!("journal-{}-{round}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let durable = online::pass(&p, 1, Some(&dir), traced, &mut rec, legs, &mut checks);
        let _ = std::fs::remove_dir_all(&dir);
        s.durable[k].push(durable);
    });
    let legs_s = legs_started.elapsed().as_secs_f64();
    rec.close(legs, &[]);
    paper::check_pa_beats_ff(&reference, &mut checks);
    s.saving = paper::saving_pct(&reference);
    if args.trace {
        let mixes: Vec<_> = p.db.records().iter().map(|r| r.mix).collect();
        let mixes = mixes.repeat((50_000 / mixes.len().max(1)).max(1));
        s.clock = trace::clock_overhead(&DbModel::new(p.db.clone()), &mixes);
    }
    s.steal_pct = steal_before
        .zip(steal_ticks())
        .map(|(before, after)| (after - before) / (legs_s * 100.0 * nproc as f64) * 100.0);
    s.reference = Summary::of(&s.reference_samples).ok_or("reference kernel not timed")?;
    if s.reference.relative_spread() > REF_SPREAD_FLAG {
        eprintln!(
            "perfbench: machine speed drifted during the run: reference kernel spread {:.3} \
             (IQR over median) exceeds {REF_SPREAD_FLAG}",
            s.reference.relative_spread()
        );
    }

    let e2e_u = end_to_end(&s, 0);
    let mut report = if args.trace {
        per_layer(&s, &e2e_u, &end_to_end(&s, 1), &mut checks)
    } else {
        e2e_u
    };
    for name in &report.missing {
        checks.check(false, || format!("metric {name} has no samples"));
    }
    report.missing.clear();
    let correct = checks.failed == 0;

    let meta = metadata(args, nproc, shards, p.requests.len(), &s);
    println!("{meta}");
    eprint!("{}", report.table());
    let details = format!(
        "{{\"meta\":{meta},\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}\n",
        checks.attempted,
        checks.failed,
        report.summaries_json()
    );
    std::fs::write(out_path(args, "json"), details).map_err(|e| e.to_string())?;
    if args.trace {
        std::fs::write(out_path(args, "spans.jsonl"), rec.to_jsonl()).map_err(|e| e.to_string())?;
    }
    println!(
        "{}",
        report.result_line(correct, checks.attempted, checks.failed)
    );
    Ok(correct)
}

/// Per-request wall or CPU microseconds of each pass.
fn us_per_req(passes: &[online::Pass], cpu: bool) -> Vec<f64> {
    passes
        .iter()
        .map(|p| if cpu { p.cpu_s } else { p.wall_s } * 1e6 / p.requests as f64)
        .collect()
}

/// `AllocService::recover` wall or CPU milliseconds of each pass.
fn recover_ms(passes: &[online::Pass], cpu: bool) -> Vec<f64> {
    passes
        .iter()
        .filter_map(|p| p.journal.as_ref()?.recover)
        .map(|t| if cpu { t.cpu_s } else { t.wall_s } * 1e3)
        .collect()
}

fn scaled(samples: &[f64], by: f64) -> Vec<f64> {
    samples.iter().map(|v| v * by).collect()
}

/// CPU samples of the timed end-to-end metrics from the untraced
/// (`k = 0`) or traced (`k = 1`) passes. `matrix` holds one group of
/// samples per cell.
struct Timed {
    setup: Vec<f64>,
    matrix: Vec<Vec<f64>>,
    online: Vec<f64>,
    nshard: Vec<f64>,
    durable: Vec<f64>,
}

impl Timed {
    fn of(s: &Samples, k: usize) -> Timed {
        Timed {
            setup: s.setup[k].clone(),
            matrix: s.cells[k].clone(),
            online: us_per_req(&s.one_shard[k], true),
            nshard: us_per_req(&s.n_shard[k], true),
            durable: us_per_req(&s.durable[k], true),
        }
    }

    /// Add the metrics under `names` (set-up, matrix, 1-shard,
    /// `nproc`-shard, journaled), with every sample multiplied by `by`.
    fn add_to(&self, r: &mut Report, names: [&str; 5], by: f64) {
        let [setup, matrix, online, nshard, durable] = names;
        let cells: Vec<Vec<f64>> = self.matrix.iter().map(|c| scaled(c, by)).collect();
        r.add(setup, "s", &scaled(&self.setup, by));
        r.add_sum_of_medians(matrix, "s", &cells);
        r.add(online, "us", &scaled(&self.online, by));
        r.add(nshard, "us", &scaled(&self.nshard, by));
        r.add(durable, "us", &scaled(&self.durable, by));
    }
}

const MATRIX: &str = "matrix_ncpu_s";
const ONLINE: &str = "online_ncpu_us_per_req";
const NSHARD: &str = "online_ncpu_us_per_req_nshard";
const DURABLE: &str = "durable_ncpu_us_per_req";
/// The timed end-to-end metrics, normalised to the reference speed.
const NORMALISED: [&str; 5] = ["setup_s", MATRIX, ONLINE, NSHARD, DURABLE];
/// Their raw CPU counterparts, per layer.
const RAW_CPU: [&str; 5] = [
    "cpu.setup_s",
    "cpu.matrix_s",
    "cpu.online_us_per_req",
    "cpu.online_us_per_req_nshard",
    "cpu.durable_us_per_req",
];

/// The end-to-end metrics from the untraced (`k = 0`) or traced
/// (`k = 1`) passes. The timed ones are CPU time at the reference
/// speed.
fn end_to_end(s: &Samples, k: usize) -> Report {
    let mut r = Report::default();
    Timed::of(s, k).add_to(&mut r, NORMALISED, s.scale());
    r.add("pa_energy_saving_pct", "%", s.saving.as_slice());
    let energy: Vec<f64> = s.one_shard[k]
        .iter()
        .filter_map(|p| p.stats.as_ref())
        .map(|st| st.estimated_energy.value() / 1e6)
        .collect();
    r.add("online_energy_MJ", "MJ", &energy);
    let all = || {
        s.one_shard[k]
            .iter()
            .chain(&s.n_shard[k])
            .chain(&s.durable[k])
    };
    let requests: u64 = all().map(|p| p.requests).sum();
    let served: u64 = all().map(|p| p.served).sum();
    if requests > 0 {
        r.add(
            "served_pct",
            "%",
            &[100.0 * served as f64 / requests as f64],
        );
    }
    r
}

/// Per-pass values of `f` over passes that completed.
fn each(passes: &[online::Pass], f: impl Fn(&online::Pass) -> Option<f64>) -> Vec<f64> {
    passes.iter().filter_map(f).collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-layer metrics of a traced run: layer figures from the
/// traced passes, the matrix ledger, and each timed end-to-end
/// metric's tracing overhead (traced minus untraced). The ledger's
/// checks go into `checks`.
fn per_layer(s: &Samples, untraced: &Report, traced: &Report, checks: &mut Checks) -> Report {
    let mut r = Report::default();
    r.add("setup.benchdb_build_s", "s", &s.benchdb_build);
    r.add("setup.swf_s", "s", &s.swf);

    // Matrix layers: per cell the median over its traced visits, summed
    // over the twelve cells — one typical pass of the matrix. A visit's
    // layer times partition its wall time (self time = time in the
    // layer's calls less time in its children's). Wall-clock parts are
    // scaled by the visit's CPU/wall ratio, which spreads time the
    // thread waited for a processor evenly, so the parts add up to the
    // visit's CPU time; the sampled model calls already leave
    // descheduled samples out. Layer times are raw CPU seconds, not
    // scaled to the reference speed.
    let clock = s.clock;
    let cpu = |l: &paper::CellLayers| ratio(l.cpu_s, l.wall_s);
    let estimate = |l: &paper::CellLayers| l.estimate.busy_s(clock);
    let allocate = |l: &paper::CellLayers| l.allocate.busy_s(clock) * cpu(l);
    let allocate_self = |l: &paper::CellLayers| allocate(l) - estimate(l);
    let simulator_self = |l: &paper::CellLayers| l.run_s * cpu(l) - allocate(l);
    let setup = |l: &paper::CellLayers| l.setup_s * cpu(l);
    let pass = |f: &dyn Fn(&paper::CellLayers) -> f64| -> Vec<Vec<f64>> {
        s.layers
            .iter()
            .map(|visits| visits.iter().map(f).collect())
            .collect()
    };
    let total = |f: &dyn Fn(&paper::CellLayers) -> f64| Report::sum_of_medians(&pass(f));
    let estimate_calls = total(&|l| l.estimate.calls as f64);
    let allocate_calls = total(&|l| l.allocate.calls as f64);
    let evaluated = total(&|l| l.partitions_evaluated as f64);
    r.add_sum_of_medians(
        "benchdb.estimate.calls",
        "count",
        &pass(&|l| l.estimate.calls as f64),
    );
    if let (Some(busy), Some(calls)) = (total(&estimate), estimate_calls) {
        r.add(
            "benchdb.estimate.ns_per_call",
            "ns",
            &[ratio(busy * 1e9, calls)],
        );
    }
    r.add_sum_of_medians("benchdb.estimate.s", "s", &pass(&estimate));
    r.add_sum_of_medians(
        "core.allocate.calls",
        "count",
        &pass(&|l| l.allocate.calls as f64),
    );
    r.add_sum_of_medians("core.allocate.self_s", "s", &pass(&allocate_self));
    if let (Some(infeasible), Some(calls)) = (total(&|l| l.infeasible as f64), allocate_calls) {
        r.add(
            "core.allocate.infeasible_ratio",
            "ratio",
            &[ratio(infeasible, calls)],
        );
    }
    r.add_sum_of_medians(
        "core.search.partitions_evaluated",
        "count",
        &pass(&|l| l.partitions_evaluated as f64),
    );
    if let (Some(feasible), Some(evaluated)) = (total(&|l| l.partitions_feasible as f64), evaluated)
    {
        r.add(
            "core.search.feasible_ratio",
            "ratio",
            &[ratio(feasible, evaluated)],
        );
    }
    r.add_sum_of_medians(
        "core.search.candidates_pruned",
        "count",
        &pass(&|l| l.candidates_pruned as f64),
    );
    r.add_sum_of_medians("simulator.self_s", "s", &pass(&simulator_self));
    r.add_sum_of_medians("matrix.setup_s", "s", &pass(&setup));
    r.add(
        "trace.clock_overhead_ns",
        "ns",
        &[clock.as_secs_f64() * 1e9],
    );

    // The ledger. Per visit its parts sum to the visit's CPU time by
    // construction, so what can fail is a part going negative (a layer
    // figure larger than the call that contains it) and the traced sum
    // straying from the untraced matrix CPU time by more than the
    // tracing overhead and noise allow.
    for (c, visits) in s.layers.iter().enumerate() {
        for l in visits {
            let (alloc_self, sim_self) = (allocate_self(l), simulator_self(l));
            checks.check(alloc_self >= 0.0 && sim_self >= 0.0, || {
                format!(
                    "matrix cell {c}: negative ledger part (allocate self {alloc_self:.4} s, \
                     simulator self {sim_self:.4} s)"
                )
            });
        }
    }
    let ledger = pass(&|l| setup(l) + estimate(l) + allocate_self(l) + simulator_self(l));
    let closing = (
        Report::sum_of_medians(&ledger),
        Report::sum_of_medians(&s.cells[0]),
    );
    if let (Some(sum), Some(matrix_s)) = closing {
        let residual = 100.0 * (sum - matrix_s) / matrix_s;
        r.add("ledger.residual_pct", "%", &[residual]);
        checks.check(residual.abs() <= LEDGER_TOLERANCE_PCT, || {
            format!(
                "ledger open: setup + estimate + allocate self + simulator self = {sum:.3} s, \
                 untraced matrix CPU = {matrix_s:.3} s ({residual:+.2}%, tolerance \
                 ±{LEDGER_TOLERANCE_PCT}%)"
            )
        });
    }

    // Service layers: 1-shard traced passes, cross-shard figures at
    // `shards` shards.
    let one = &s.one_shard[1];
    let phase = |f: fn(&online::Phases) -> f64| each(one, |p| p.phases.as_ref().map(f));
    let stat = |passes: &[online::Pass], f: fn(&eavm_service::ServiceStats) -> f64| {
        each(passes, |p| p.stats.as_ref().map(f))
    };
    r.add("service.start_ms", "ms", &phase(|ph| ph.start_s * 1e3));
    r.add(
        "service.submit_blocked_s",
        "s",
        &phase(|ph| ph.submit_blocked_s),
    );
    r.add("service.drain_ms", "ms", &phase(|ph| ph.drain_s * 1e3));
    r.add(
        "service.shutdown_ms",
        "ms",
        &phase(|ph| ph.shutdown_s * 1e3),
    );
    r.add(
        "service.cache.hit_ratio",
        "ratio",
        &stat(one, |st| st.aggregate_cache.hit_rate()),
    );
    r.add(
        "service.cache.evictions",
        "count",
        &stat(one, |st| st.aggregate_cache.evictions as f64),
    );
    r.add(
        "service.search.partitions_per_req",
        "count",
        &each(one, |p| {
            Some(ratio(
                p.telemetry.counter("service.search.partitions_evaluated") as f64,
                p.requests as f64,
            ))
        }),
    );
    r.add(
        "service.parked",
        "count",
        &each(one, |p| Some(p.queued as f64)),
    );
    r.add(
        "service.admitted.after_wait",
        "count",
        &stat(one, |st| st.admitted_after_wait as f64),
    );
    let many = &s.n_shard[1];
    r.add(
        "service.cross_shard_share",
        "ratio",
        &stat(many, |st| {
            ratio(st.admitted_cross_shard as f64, st.submitted as f64)
        }),
    );
    r.add(
        "service.shard.nack_ratio",
        "ratio",
        &each(many, |p| {
            let nacked = p.telemetry.counter("service.shard.reserves_nacked") as f64;
            let acked = p.telemetry.counter("service.shard.reserves_acked") as f64;
            Some(ratio(nacked, nacked + acked))
        }),
    );
    r.add(
        "service.reserve.conflicts",
        "count",
        &stat(many, |st| st.reserve_conflicts as f64),
    );

    // Journal layers.
    let durable = &s.durable[1];
    r.add(
        "durability.wal_appends_per_req",
        "count",
        &stat(durable, |st| {
            ratio(st.durability.wal_appends as f64, st.submitted as f64)
        }),
    );
    r.add(
        "durability.wal_bytes_per_req",
        "bytes",
        &each(durable, |p| {
            p.journal
                .as_ref()
                .map(|j| ratio(j.wal_bytes as f64, p.requests as f64))
        }),
    );
    r.add(
        "durability.snapshots_written",
        "count",
        &stat(durable, |st| st.durability.snapshots_written as f64),
    );
    if let (Some(durable), Some(online)) = (traced.value(DURABLE), traced.value(ONLINE)) {
        r.add(
            "durability.overhead_ncpu_us_per_req",
            "us",
            &[durable - online],
        );
    }
    r.add(
        "durability.recover.frames_replayed",
        "count",
        &each(durable, |p| {
            p.journal.as_ref().map(|j| j.frames_replayed as f64)
        }),
    );
    r.add(
        "durability.recover.wal_frames",
        "count",
        &each(durable, |p| p.journal.as_ref().map(|j| j.wal_frames as f64)),
    );
    r.add(
        "durability.recover_cpu_ms",
        "ms",
        &recover_ms(durable, true),
    );
    r.add(
        "durability.recover_dir_ms",
        "ms",
        &each(durable, |p| {
            p.journal.as_ref().map(|j| j.recover_dir_s * 1e3)
        }),
    );
    // Raw CPU and wall-clock counterparts of the timed end-to-end
    // figures, untraced, and the reference kernel they are scaled by.
    Timed::of(s, 0).add_to(&mut r, RAW_CPU, 1.0);
    r.add(
        "machine.ref_kernel_ms",
        "ms",
        &scaled(&s.reference_samples, 1e3),
    );
    r.add("wall.setup_s", "s", &s.setup_walls);
    r.add_sum_of_medians("wall.matrix_s", "s", &s.cell_walls);
    r.add(
        "wall.online_us_per_req",
        "us",
        &us_per_req(&s.one_shard[0], false),
    );
    r.add(
        "wall.online_us_per_req_nshard",
        "us",
        &us_per_req(&s.n_shard[0], false),
    );
    r.add(
        "wall.durable_us_per_req",
        "us",
        &us_per_req(&s.durable[0], false),
    );
    r.add("wall.recover_ms", "ms", &recover_ms(&s.durable[0], false));
    if let Some(steal) = s.steal_pct {
        r.add("machine.steal_pct", "%", &[steal]);
    }

    // Tracing overhead per timed end-to-end metric. Set-up is left
    // out: its traced figure times a different code path (the layered
    // build), not the same one with tracing on.
    for name in [MATRIX, ONLINE, NSHARD, DURABLE] {
        if let (Some(t), Some(u)) = (
            traced.value(name),
            untraced.entries.iter().find(|e| e.name == name),
        ) {
            r.add(
                format!("trace_overhead.{name}"),
                u.unit,
                &[t - u.summary.median],
            );
        }
    }
    r
}
