//! The discrete-event engine.
//!
//! State advances between *events* — request arrivals and VM completions.
//! Within an inter-event interval every server's allocation is constant,
//! so each VM progresses linearly at rate `1 / T̂(mix, type)` and each
//! server draws constant power `P(mix)`; realized execution times and
//! energies are therefore exactly the interval-weighted averages of
//! Fig. 4. Placement decisions happen *proactively at submission* (or as
//! soon as the cloud can host a queued request after a completion), by
//! delegating to the injected [`AllocationStrategy`]; requests the
//! strategy cannot place wait in a FIFO queue.

use eavm_core::strategy::{validate_placements, RequestView, ServerView};
use eavm_core::{AllocationModel, AllocationStrategy};
use eavm_faults::{FaultKind, FaultPlan};
use eavm_swf::VmRequest;
use eavm_telemetry::{Severity, Telemetry};
use eavm_types::{EavmError, Joules, MixVector, Seconds, ServerId, Watts, WorkloadType};
use std::borrow::Cow;
use std::sync::Arc;

use eavm_migrate::{plan_moves, HostLoad, Hysteresis, MigrationTally};

use crate::cloud::CloudConfig;
use crate::metrics::{AllocationInterval, SimOutcome};
use crate::migration::{MigrationConfig, MigrationWindow};

/// Terminal simulation failures.
#[derive(Debug)]
pub enum SimulationError {
    /// A queued request can never be placed: the cloud is empty, nothing
    /// is running, and the strategy still refuses it.
    Stuck {
        /// Index of the stuck request within the input slice.
        request: usize,
        /// The strategy's refusal.
        reason: EavmError,
    },
    /// A strategy returned malformed placements or a hard error.
    Strategy(EavmError),
    /// The ground-truth model failed on a committed allocation.
    Model(EavmError),
    /// Invalid inputs (unsorted/empty trace etc.).
    Input(String),
}

impl std::fmt::Display for SimulationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimulationError::Stuck { request, reason } => {
                write!(f, "request #{request} can never be placed: {reason}")
            }
            SimulationError::Strategy(e) => write!(f, "strategy error: {e}"),
            SimulationError::Model(e) => write!(f, "ground-truth model error: {e}"),
            SimulationError::Input(msg) => write!(f, "invalid input: {msg}"),
        }
    }
}

impl std::error::Error for SimulationError {}

/// Queue discipline for requests the strategy cannot place immediately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueuePolicy {
    /// Strict first-come-first-served: a blocked head request blocks
    /// everything behind it (the default; simplest and starvation-free).
    Fifo,
    /// HPC-style backfilling: when the head is blocked, up to `window`
    /// later requests may be placed out of order. Placements only consume
    /// capacity, so backfilled requests can never delay the blocked head
    /// beyond what FIFO would — but they can start sooner.
    Backfill {
        /// How deep past the head to look for placeable requests.
        window: usize,
    },
    /// Earliest-deadline-first: the queue is kept ordered by absolute
    /// deadline (submission + response-time bound), so urgent requests
    /// jump the line. Can starve lax requests under sustained pressure.
    Edf,
}

/// Completion slack guarding against floating-point drift.
const EPS: f64 = 1e-9;

#[derive(Debug, Clone)]
struct Vm {
    ty: WorkloadType,
    request: usize,
    submit: Seconds,
    deadline: Seconds,
    remaining: f64,
    /// Whether a consolidation sweep ever moved this VM — a deadline
    /// miss on a migrated VM is charged to the migration SLA tally.
    migrated: bool,
}

/// One queue entry: a block of VMs waiting for placement. Arrivals map
/// a trace request 1:1; a host crash re-enqueues the killed VMs as a
/// `restart` entry attributed to the same origin request, so restarted
/// VMs keep the *original* submission instant for response/SLA
/// accounting (the restart's SLA impact is real and must show up),
/// while their wait counts from the crash that re-queued them.
#[derive(Debug, Clone, Copy)]
struct PendingReq {
    /// Index of the owning request within the input slice.
    origin: usize,
    /// When the entry joined the queue: the request's submission, or
    /// the crash that killed its VMs.
    queued_at: Seconds,
    /// VMs still to place for this entry (a restart may cover only the
    /// subset of the request's VMs that died on the crashed host).
    vm_count: u32,
    /// Whether this entry re-runs VMs killed by a host crash.
    restart: bool,
}

/// Transient host unavailability windows driven by the fault plan.
#[derive(Debug, Clone)]
struct FaultState {
    /// Cursor into the plan's sorted event list.
    cursor: usize,
    /// Per-host crash outage: the instant the host rejoins the fleet.
    down_until: Vec<Option<Seconds>>,
    /// Per-host degradation: (window end, progress-rate factor).
    degraded: Vec<Option<(Seconds, f64)>>,
}

impl FaultState {
    fn new(hosts: usize) -> Self {
        FaultState {
            cursor: 0,
            down_until: vec![None; hosts],
            degraded: vec![None; hosts],
        }
    }

    /// Whether host `si` can receive new placements right now.
    fn available(&self, si: usize) -> bool {
        self.down_until[si].is_none() && self.degraded[si].is_none()
    }

    /// Progress-rate multiplier for VMs resident on host `si`.
    fn rate(&self, si: usize) -> f64 {
        self.degraded[si].map(|(_, f)| f).unwrap_or(1.0)
    }

    /// Earliest instant at which any outage or degradation window ends.
    fn next_recovery(&self) -> Option<Seconds> {
        self.down_until
            .iter()
            .flatten()
            .chain(self.degraded.iter().flatten().map(|(end, _)| end))
            .copied()
            .reduce(Seconds::min)
    }

    /// Drop every window that has ended by `t`.
    fn clear_expired(&mut self, t: Seconds) {
        for d in &mut self.down_until {
            if d.is_some_and(|end| end.0 <= t.0) {
                *d = None;
            }
        }
        for d in &mut self.degraded {
            if d.is_some_and(|(end, _)| end.0 <= t.0) {
                *d = None;
            }
        }
    }

    /// Whether some host is down or degraded, hence cordoned.
    fn any_cordoned(&self) -> bool {
        self.down_until.iter().any(Option::is_some) || self.degraded.iter().any(Option::is_some)
    }

    /// Whether any window is still open or any plan event still pending.
    fn anything_pending(&self, events: usize) -> bool {
        self.cursor < events || self.any_cordoned()
    }
}

/// Restart bookkeeping accumulated while the fault plan fires.
#[derive(Debug, Clone, Copy, Default)]
struct FaultTallies {
    host_crashes: usize,
    host_degradations: usize,
    vms_killed: usize,
    vms_restarted: usize,
    lost_work: Seconds,
    restart_energy: Joules,
}

/// What the ground truth says about one mix on one platform: the power
/// draw and the projected execution time of each resident type.
#[derive(Debug, Clone, Copy)]
struct Ground {
    power: Watts,
    times: [Option<Seconds>; 3],
}

/// One platform's ground truth, memoized per mix for one run. Mixes
/// inside the model's `max_mix()` box live in a dense table filled on
/// first use (index arithmetic, like `DbModel`'s table); the rare mix
/// outside it goes to an ordered map. Every mix is thus evaluated at
/// most once per run, which is exact because a ground truth is a
/// function of the mix (see [`Simulation::model`]).
#[derive(Debug)]
struct Truth<'m, M> {
    model: &'m M,
    bounds: MixVector,
    table: Vec<Option<Ground>>,
    overflow: std::collections::BTreeMap<MixVector, Ground>,
}

impl<'m, M: AllocationModel> Truth<'m, M> {
    /// Largest box tabulated; a model with larger bounds memoizes every
    /// mix in the ordered map instead.
    const MAX_TABLE_LEN: usize = 1 << 16;

    fn new(model: &'m M) -> Self {
        let bounds = model.max_mix();
        let len = [bounds.cpu, bounds.mem, bounds.io]
            .iter()
            .try_fold(1usize, |n, &b| n.checked_mul(b as usize + 1))
            .filter(|&len| len <= Self::MAX_TABLE_LEN)
            .unwrap_or(0);
        Truth {
            model,
            bounds,
            table: vec![None; len],
            overflow: std::collections::BTreeMap::new(),
        }
    }

    /// The ground truth of `mix`, evaluated on first request.
    fn get(&mut self, mix: MixVector) -> Result<Ground, EavmError> {
        let b = self.bounds;
        let slot = (!self.table.is_empty() && mix.fits_within(&b)).then(|| {
            (mix.cpu as usize * (b.mem as usize + 1) + mix.mem as usize) * (b.io as usize + 1)
                + mix.io as usize
        });
        let cached = match slot {
            Some(i) => self.table[i],
            None => self.overflow.get(&mix).copied(),
        };
        if let Some(ground) = cached {
            return Ok(ground);
        }
        let ground = Ground {
            power: self.model.power(mix)?,
            times: if mix.is_empty() {
                [None; 3]
            } else {
                self.model.estimate_mix(mix)?.per_type_time
            },
        };
        match slot {
            Some(i) => self.table[i] = Some(ground),
            None => {
                self.overflow.insert(mix, ground);
            }
        }
        Ok(ground)
    }
}

/// Per-server engine state. The server's mix lives in its
/// [`ServerView`] (see [`Fleet`]).
#[derive(Debug, Clone)]
struct Srv {
    vms: Vec<usize>,
    /// Ground truth of the current mix (refreshed on every mix change).
    ground: Ground,
    /// Minimum over residents of `t_ty * (remaining / rate)`: the time
    /// to this server's next completion (infinite when empty).
    next_finish: Seconds,
    /// Some resident reached `remaining <= EPS` in the last accrual.
    finished: bool,
    /// Residents, mix or rate changed since `next_finish` was computed.
    dirty: bool,
}

impl Srv {
    /// Time to the next completion among the residents at progress
    /// rate `rate` (infinite when empty), in the same arithmetic as the
    /// accrual pass.
    fn project(&self, vms: &[Vm], rate: f64) -> Seconds {
        self.vms
            .iter()
            .map(|&vid| {
                let vm = &vms[vid];
                let t_ty = self.ground.times[vm.ty.index()]
                    .expect("resident type must have a cached time");
                t_ty * (vm.remaining / rate)
            })
            .fold(Seconds(f64::INFINITY), Seconds::min)
    }
}

/// The simulated servers, kept current incrementally: the strategy
/// views are built once per run and every mix change goes through
/// [`Fleet::set_mix`], which updates the view, the ground truth, the
/// busy count and the server's dirty mark together.
#[derive(Debug)]
struct Fleet<'m, M> {
    /// One view per server in id order; `views[i].mix` is server `i`'s
    /// mix (the only copy).
    views: Vec<ServerView>,
    servers: Vec<Srv>,
    /// Ground truth per platform index.
    truths: Vec<Truth<'m, M>>,
    /// Servers hosting at least one VM.
    busy: usize,
}

impl<M: AllocationModel> Fleet<'_, M> {
    /// Set server `si`'s mix and everything derived from it.
    fn set_mix(&mut self, si: usize, mix: MixVector) -> Result<(), EavmError> {
        let view = &mut self.views[si];
        self.busy = self.busy + usize::from(!mix.is_empty()) - usize::from(!view.mix.is_empty());
        view.mix = mix;
        let s = &mut self.servers[si];
        s.ground = self.truths[view.platform as usize].get(mix)?;
        s.dirty = true;
        Ok(())
    }
}

/// A configured datacenter simulation.
#[derive(Debug, Clone)]
pub struct Simulation<M> {
    /// Ground-truth allocation model executed by the engine.
    ///
    /// It must be a function of the mix: the engine asks it about each
    /// `(platform, mix)` at most once per run and reuses the answer, so
    /// a model whose `power` or `estimate_mix` varied between calls on
    /// the same mix would be read only once. Every ground truth in the
    /// repository is an `AnalyticModel`, which is pure.
    pub model: M,
    /// Cloud under simulation.
    pub cloud: CloudConfig,
    /// When `false` (default), a server draws power only while hosting at
    /// least one VM (empty servers are powered off) — the accounting under
    /// which "minimizing the number of servers that are in operation ...
    /// through VM consolidation will help reduce the energy consumption"
    /// (Sect. I). When `true`, every provisioned server draws the 125 W
    /// static floor for the whole makespan (always-on fleet ablation).
    pub idle_servers_powered: bool,
    /// When `true`, consecutive queued requests sharing a submission
    /// instant and workload profile — one scientific-workflow burst, in
    /// the paper's framing — are allocated as a single merged request, so
    /// the PROACTIVE partition search co-optimizes the entire burst.
    pub burst_allocation: bool,
    /// Optional reactive consolidation: periodically drain under-utilized
    /// servers via live VM migration (see [`MigrationConfig`]).
    pub migration: Option<MigrationConfig>,
    /// Absolute-time consolidation windows (scenario phases): inside a
    /// window, its regime sweeps; outside every window, consolidation is
    /// off. Ignored when [`Self::migration`] is set (a run-wide regime
    /// wins). Windows must be disjoint; the first covering window is
    /// used.
    pub migration_windows: Vec<MigrationWindow>,
    /// Record per-server allocation intervals (Fig. 4 timelines) into
    /// [`SimOutcome::timeline`]. Off by default (memory proportional to
    /// the number of allocation changes).
    pub record_timeline: bool,
    /// Queue discipline for blocked requests (default FIFO).
    pub queue_policy: QueuePolicy,
    /// Optional seeded fault plan: host crashes kill resident VMs (their
    /// jobs re-enter the queue with restart accounting) and degradation
    /// windows cordon hosts and slow resident VMs. `None` (default) is
    /// byte-identical to the pre-fault engine.
    pub faults: Option<FaultPlan>,
    /// Additional hardware platforms: `(ground-truth model, server
    /// count)` pairs appended after the `cloud.servers` reference-platform
    /// machines. Platform indices start at 1 (0 is the reference).
    pub extra_platforms: Vec<(M, usize)>,
    /// Observability sink (disabled by default). All instruments are
    /// counters/histograms over *virtual* quantities — attaching an
    /// enabled handle never changes simulation results.
    pub telemetry: Arc<Telemetry>,
}

impl<M: AllocationModel> Simulation<M> {
    /// Create a simulation of `cloud` governed by the ground-truth
    /// `model`.
    pub fn new(model: M, cloud: CloudConfig) -> Self {
        Simulation {
            model,
            cloud,
            idle_servers_powered: false,
            burst_allocation: false,
            migration: None,
            migration_windows: Vec::new(),
            record_timeline: false,
            queue_policy: QueuePolicy::Fifo,
            faults: None,
            extra_platforms: Vec::new(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Enable backfilling: when the queue head is blocked, up to `window`
    /// later requests may be placed out of order.
    pub fn with_backfill(mut self, window: usize) -> Self {
        assert!(window > 0, "backfill window must be positive");
        self.queue_policy = QueuePolicy::Backfill { window };
        self
    }

    /// Order the queue by absolute deadline (earliest-deadline-first).
    pub fn with_edf(mut self) -> Self {
        self.queue_policy = QueuePolicy::Edf;
        self
    }

    /// Record Fig.-4-style per-server allocation timelines.
    pub fn with_timeline(mut self) -> Self {
        self.record_timeline = true;
        self
    }

    /// Append `count` servers of an additional hardware platform governed
    /// by `model` (heterogeneous-fleet extension; the paper's future-work
    /// item i). The new platform gets the next platform index.
    pub fn with_platform(mut self, model: M, count: usize) -> Self {
        assert!(count > 0, "a platform needs at least one server");
        self.extra_platforms.push((model, count));
        self
    }

    /// Keep empty servers powered on (always-on fleet ablation).
    pub fn with_always_on_fleet(mut self) -> Self {
        self.idle_servers_powered = true;
        self
    }

    /// Allocate same-instant same-profile bursts as one merged request.
    pub fn with_burst_allocation(mut self) -> Self {
        self.burst_allocation = true;
        self
    }

    /// Attach an observability sink (metrics + journal).
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Inject a seeded fault plan: host-failure events become first-class
    /// timeline events. Same plan + same trace ⇒ byte-identical outcome,
    /// with telemetry on or off (deterministic chaos).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Enable periodic reactive consolidation sweeps (live VM migration).
    pub fn with_migration(mut self, config: MigrationConfig) -> Self {
        debug_assert!(config.validate().is_ok(), "invalid migration config");
        self.migration = Some(config);
        self
    }

    /// Enable per-window consolidation regimes (scenario phases lower to
    /// absolute-time windows; see [`MigrationWindow`]).
    pub fn with_migration_windows(mut self, windows: Vec<MigrationWindow>) -> Self {
        debug_assert!(
            windows.iter().all(|w| w.validate().is_ok()),
            "invalid migration window"
        );
        self.migration_windows = windows;
        self
    }

    /// The consolidation regime in force at simulated time `t`, if any.
    fn active_migration(&self, t: Seconds) -> Option<&MigrationConfig> {
        if let Some(cfg) = &self.migration {
            return Some(cfg);
        }
        self.migration_windows
            .iter()
            .find(|w| w.covers(t))
            .map(|w| &w.config)
    }

    /// The ground-truth model of a platform index.
    fn model_of(&self, platform: u32) -> &M {
        if platform == 0 {
            &self.model
        } else {
            &self.extra_platforms[platform as usize - 1].0
        }
    }

    /// Per-server platform indices: `cloud.servers` reference machines
    /// followed by each extra platform's block.
    fn platform_layout(&self) -> Vec<u32> {
        let mut layout = vec![0u32; self.cloud.servers];
        for (i, (_, count)) in self.extra_platforms.iter().enumerate() {
            layout.extend(std::iter::repeat_n(i as u32 + 1, *count));
        }
        layout
    }

    /// Replay `requests` (sorted by submission time) under `strategy`.
    pub fn run<S: AllocationStrategy + ?Sized>(
        &self,
        strategy: &mut S,
        requests: &[VmRequest],
    ) -> Result<SimOutcome, SimulationError> {
        if requests.is_empty() {
            return Err(SimulationError::Input("empty request list".into()));
        }
        if requests.windows(2).any(|w| w[0].submit > w[1].submit) {
            return Err(SimulationError::Input(
                "requests must be sorted by submission time".into(),
            ));
        }

        let platforms = self.platform_layout();
        let n_servers = platforms.len();
        let mut truths: Vec<Truth<M>> = std::iter::once(&self.model)
            .chain(self.extra_platforms.iter().map(|(m, _)| m))
            .map(Truth::new)
            .collect();
        let idle: Vec<Ground> = truths
            .iter_mut()
            .map(|truth| truth.get(MixVector::EMPTY))
            .collect::<Result<_, _>>()
            .map_err(SimulationError::Model)?;
        let mut fleet = Fleet {
            views: platforms
                .iter()
                .enumerate()
                .map(|(i, &platform)| ServerView {
                    id: ServerId::from(i),
                    mix: MixVector::EMPTY,
                    platform,
                    cpu_slots: self.model_of(platform).cpu_slots(),
                })
                .collect(),
            servers: platforms
                .iter()
                .map(|&platform| Srv {
                    vms: Vec::new(),
                    ground: idle[platform as usize],
                    next_finish: Seconds(f64::INFINITY),
                    finished: false,
                    dirty: false,
                })
                .collect(),
            truths,
            busy: 0,
        };

        let mut vms: Vec<Vm> = Vec::with_capacity(requests.len() * 2);
        // `queue` holds indices into `pending`, so crash restarts can
        // re-enter the line as fresh entries owned by their original
        // request. Without faults, `pending` mirrors `requests` 1:1.
        let mut pending: Vec<PendingReq> = Vec::with_capacity(requests.len());
        let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        let mut violated = vec![false; requests.len()];
        let fault_events = self.faults.as_ref().map(|p| p.events()).unwrap_or(&[]);
        let mut fault_state = FaultState::new(n_servers);
        let mut tallies = FaultTallies::default();

        let first_submit = requests[0].submit;
        let mut t = first_submit;
        let mut next_arrival = 0usize;
        let mut active = 0usize;

        let mut energy = Joules::ZERO;
        let mut idle_energy = Joules::ZERO;
        let idle_powers: Vec<Watts> = platforms
            .iter()
            .map(|&platform| idle[platform as usize].power)
            .collect();
        let mut peak_busy = 0usize;
        let mut total_response = Seconds::ZERO;
        let mut total_wait = Seconds::ZERO;
        let mut last_completion = first_submit;
        let mut total_vms = 0usize;
        let mut mig_tally = MigrationTally::new();
        let mut hysteresis = Hysteresis::new(n_servers);
        let mut last_sweep = first_submit;
        let mut busy_server_seconds = Seconds::ZERO;
        let mut timeline: Vec<AllocationInterval> = Vec::new();
        let mut open_mix: Vec<MixVector> = vec![MixVector::EMPTY; n_servers];
        let mut open_since: Vec<Seconds> = vec![first_submit; n_servers];
        let mut per_type_requests = [0usize; 3];
        for r in requests {
            per_type_requests[r.workload.index()] += 1;
        }
        // Per-VM queue wait in virtual seconds, recorded at placement.
        let wait_hist = self.telemetry.histogram("sim.queue_wait_s");
        // Per-move migration stall in virtual milliseconds; only
        // registered when consolidation can actually fire, so plain
        // runs expose an unchanged instrument set.
        let stall_hist = if self.migration.is_some() || !self.migration_windows.is_empty() {
            self.telemetry.histogram("sim.migration_stall_ms")
        } else {
            eavm_telemetry::Histogram::noop()
        };

        // Close/open Fig.-4 timeline intervals for servers whose mix
        // changed, stamping the change at `now`.
        fn sync_timeline(
            views: &[ServerView],
            open_mix: &mut [MixVector],
            open_since: &mut [Seconds],
            timeline: &mut Vec<AllocationInterval>,
            now: Seconds,
        ) {
            for (si, view) in views.iter().enumerate() {
                if view.mix != open_mix[si] {
                    if !open_mix[si].is_empty() {
                        timeline.push(AllocationInterval {
                            server: ServerId::from(si),
                            start: open_since[si],
                            end: now,
                            mix: open_mix[si],
                        });
                    }
                    open_mix[si] = view.mix;
                    open_since[si] = now;
                }
            }
        }

        loop {
            // Fault windows that ended by now close before anything else
            // observes this instant; then every plan event due at or
            // before `t` fires (crashes kill and re-enqueue, degradations
            // open their windows).
            if self.faults.is_some() {
                fault_state.clear_expired(t);
                while let Some(event) = fault_events.get(fault_state.cursor) {
                    if event.at > t.value() {
                        break;
                    }
                    fault_state.cursor += 1;
                    if event.host >= n_servers {
                        continue; // plan generated for a larger fleet
                    }
                    self.apply_fault(
                        event,
                        t,
                        &mut fleet,
                        &mut vms,
                        &mut pending,
                        &mut queue,
                        &mut fault_state,
                        &mut tallies,
                        &mut active,
                    )
                    .map_err(SimulationError::Model)?;
                }
            }

            // EDF: keep the queue ordered by absolute deadline so the
            // most urgent request is the head the drain works on.
            if self.queue_policy == QueuePolicy::Edf && queue.len() > 1 {
                queue.make_contiguous().sort_by(|&a, &b| {
                    let ra = &requests[pending[a].origin];
                    let rb = &requests[pending[b].origin];
                    let da = ra.submit + ra.deadline;
                    let db = rb.submit + rb.deadline;
                    da.total_cmp(db).then(a.cmp(&b))
                });
            }

            // Drain the queue as far as the strategy allows.
            while let Some(&qidx) = queue.front() {
                // Group: the head alone, or (burst mode) every consecutive
                // queued entry sharing its submit instant and profile.
                let head = &requests[pending[qidx].origin];
                let mut group: Vec<usize> = vec![qidx];
                if self.burst_allocation {
                    for &other in queue.iter().skip(1) {
                        let r = &requests[pending[other].origin];
                        // eavm-lint: allow(D4, reason = "burst grouping keys on exact identity of trace-supplied submit instants; both sides are copied from the input, never computed")
                        if r.submit == head.submit && r.workload == head.workload {
                            group.push(other);
                        } else {
                            break;
                        }
                    }
                }
                let group_vms: u32 = group.iter().map(|&i| pending[i].vm_count).sum();
                let view = RequestView {
                    id: head.id,
                    workload: head.workload,
                    vm_count: group_vms,
                    deadline: head.deadline,
                };
                let server_views = self.placeable(&fleet.views, &fault_state);
                match strategy.allocate(&view, &server_views) {
                    Ok(placements) => {
                        validate_placements(&view, &server_views, &placements)
                            .map_err(SimulationError::Strategy)?;
                        // Attribute the placed VMs back to the individual
                        // queue entries of the group, in queue order.
                        let mut owners: Vec<usize> = Vec::with_capacity(group_vms as usize);
                        for &g in &group {
                            owners.extend(std::iter::repeat_n(g, pending[g].vm_count as usize));
                            if pending[g].restart {
                                tallies.vms_restarted += pending[g].vm_count as usize;
                            }
                        }
                        self.commit_placements(
                            &placements,
                            &owners,
                            &pending,
                            requests,
                            t,
                            &mut fleet,
                            &mut vms,
                            &mut active,
                            &mut total_vms,
                            &mut total_wait,
                            &mut peak_busy,
                            &wait_hist,
                        )?;
                        for _ in 0..group.len() {
                            queue.pop_front();
                        }
                    }
                    Err(EavmError::Infeasible(reason)) => {
                        if group.len() > 1 {
                            // A merged burst may be infeasible while its
                            // head alone fits; retry the head unmerged by
                            // falling back to single-request placement.
                            let single = RequestView {
                                id: head.id,
                                workload: head.workload,
                                vm_count: pending[qidx].vm_count,
                                deadline: head.deadline,
                            };
                            let retry = match strategy.allocate(&single, &server_views) {
                                Ok(p) => Some(p),
                                Err(EavmError::Infeasible(_)) => None,
                                Err(e) => return Err(SimulationError::Strategy(e)),
                            };
                            if let Some(placements) = retry {
                                validate_placements(&single, &server_views, &placements)
                                    .map_err(SimulationError::Strategy)?;
                                let owners = vec![qidx; pending[qidx].vm_count as usize];
                                if pending[qidx].restart {
                                    tallies.vms_restarted += pending[qidx].vm_count as usize;
                                }
                                self.commit_placements(
                                    &placements,
                                    &owners,
                                    &pending,
                                    requests,
                                    t,
                                    &mut fleet,
                                    &mut vms,
                                    &mut active,
                                    &mut total_vms,
                                    &mut total_wait,
                                    &mut peak_busy,
                                    &wait_hist,
                                )?;
                                queue.pop_front();
                                continue;
                            }
                        }
                        // Head-of-line blocking: wait for a completion (or
                        // for a downed/degraded host to recover).
                        if active == 0
                            && next_arrival >= requests.len()
                            && !fault_state.anything_pending(fault_events.len())
                        {
                            self.telemetry.event(
                                t.value(),
                                "simulator",
                                Severity::Error,
                                "run stuck: request can never be placed",
                                vec![("request", pending[qidx].origin.to_string())],
                            );
                            return Err(SimulationError::Stuck {
                                request: pending[qidx].origin,
                                reason: EavmError::Infeasible(reason),
                            });
                        }
                        break;
                    }
                    Err(e) => return Err(SimulationError::Strategy(e)),
                }
            }

            // Backfilling: the head is blocked (or the queue drained);
            // try to place up to `window` later requests out of order.
            if let QueuePolicy::Backfill { window } = self.queue_policy {
                let mut idx = 1usize;
                while idx < queue.len() && idx <= window {
                    let qidx = queue[idx];
                    let req = &requests[pending[qidx].origin];
                    let view = RequestView {
                        id: req.id,
                        workload: req.workload,
                        vm_count: pending[qidx].vm_count,
                        deadline: req.deadline,
                    };
                    let server_views = self.placeable(&fleet.views, &fault_state);
                    match strategy.allocate(&view, &server_views) {
                        Ok(placements) => {
                            validate_placements(&view, &server_views, &placements)
                                .map_err(SimulationError::Strategy)?;
                            let owners = vec![qidx; pending[qidx].vm_count as usize];
                            if pending[qidx].restart {
                                tallies.vms_restarted += pending[qidx].vm_count as usize;
                            }
                            self.commit_placements(
                                &placements,
                                &owners,
                                &pending,
                                requests,
                                t,
                                &mut fleet,
                                &mut vms,
                                &mut active,
                                &mut total_vms,
                                &mut total_wait,
                                &mut peak_busy,
                                &wait_hist,
                            )?;
                            queue.remove(idx);
                        }
                        Err(EavmError::Infeasible(_)) => idx += 1,
                        Err(e) => return Err(SimulationError::Strategy(e)),
                    }
                }
            }

            // Placements from the drain above happened at the current
            // instant.
            if self.record_timeline {
                sync_timeline(
                    &fleet.views,
                    &mut open_mix,
                    &mut open_since,
                    &mut timeline,
                    t,
                );
            }

            // Next event: arrival, completion, fault, or fault recovery.
            // The next completion is `t` plus the smallest per-server
            // time to finish. Those minima come from the last accrual
            // pass; only servers changed since then recompute theirs.
            // This equals the minimum of `t + x` over every resident
            // because `x ↦ t + x` is monotone under rounding. Fault
            // windows change progress rates at any event, so under a
            // fault plan every server recomputes.
            let t_arrival = requests.get(next_arrival).map(|r| r.submit);
            let stale = self.faults.is_some();
            let mut nearest = Seconds(f64::INFINITY);
            for (si, s) in fleet.servers.iter_mut().enumerate() {
                if s.dirty || stale {
                    s.next_finish = s.project(&vms, fault_state.rate(si));
                    s.dirty = false;
                }
                nearest = nearest.min(s.next_finish);
            }
            let t_finish = nearest.value().is_finite().then(|| t + nearest);
            #[cfg(debug_assertions)]
            {
                let vms = &vms;
                let brute = fleet
                    .servers
                    .iter()
                    .enumerate()
                    .flat_map(|(si, s)| {
                        let rate = fault_state.rate(si);
                        s.vms.iter().map(move |&vid| {
                            let vm = &vms[vid];
                            let t_ty = s.ground.times[vm.ty.index()].expect("resident type");
                            t + t_ty * (vm.remaining / rate)
                        })
                    })
                    .reduce(Seconds::min);
                assert_eq!(
                    t_finish.map(|f| f.value().to_bits()),
                    brute.map(|f| f.value().to_bits()),
                    "cached next finish diverged from the resident scan at t={t}"
                );
            }
            // Fault events and window ends matter only while something is
            // running (a crash must interrupt it; a degradation end
            // changes its rate) or queued (a recovery frees capacity).
            let fault_relevant = active > 0 || !queue.is_empty();
            let t_fault = if fault_relevant {
                fault_events
                    .get(fault_state.cursor)
                    .map(|e| Seconds(e.at.max(t.value())))
            } else {
                None
            };
            let t_recover = if fault_relevant {
                fault_state.next_recovery()
            } else {
                None
            };

            let t_next = match [t_arrival, t_finish, t_fault, t_recover]
                .into_iter()
                .flatten()
                .reduce(Seconds::min)
            {
                Some(next) => next,
                None => break, // no arrivals, nothing running, no faults due
            };

            // Advance time: accrue energy and VM progress over [t, t_next],
            // and in the same pass each server's time to its next finish
            // and whether a resident is done.
            let dt = t_next - t;
            if dt > Seconds::ZERO {
                for (si, s) in fleet.servers.iter_mut().enumerate() {
                    let busy = !fleet.views[si].mix.is_empty();
                    if busy {
                        busy_server_seconds += dt;
                    }
                    if busy || self.idle_servers_powered {
                        energy += s.ground.power * dt;
                        // The static (idle-floor) share of the accrual.
                        idle_energy += idle_powers[si] * dt;
                    }
                    // A degraded host stretches its residents' projected
                    // finishes by 1/rate; rate is 1.0 on healthy hosts.
                    let rate = fault_state.rate(si);
                    let mut next = Seconds(f64::INFINITY);
                    let mut finished = false;
                    for &vid in &s.vms {
                        let vm = &mut vms[vid];
                        let t_ty = s.ground.times[vm.ty.index()].expect("resident type");
                        vm.remaining -= (dt / t_ty) * rate;
                        next = next.min(t_ty * (vm.remaining / rate));
                        finished |= vm.remaining <= EPS;
                    }
                    s.next_finish = next;
                    s.finished = finished;
                }
                t = t_next;
            }

            // Enqueue every arrival at this instant.
            while let Some(r) = requests.get(next_arrival) {
                if r.submit <= t {
                    pending.push(PendingReq {
                        origin: next_arrival,
                        queued_at: r.submit,
                        vm_count: r.vm_count,
                        restart: false,
                    });
                    queue.push_back(pending.len() - 1);
                    next_arrival += 1;
                } else {
                    break;
                }
            }

            // Retire completed VMs on the servers the accrual marked,
            // rewriting each in place (keeping resident order).
            for si in 0..n_servers {
                let s = &mut fleet.servers[si];
                debug_assert_eq!(
                    s.finished,
                    s.vms.iter().any(|&vid| vms[vid].remaining <= EPS),
                    "server {si}'s finished mark diverged from its residents at t={t}"
                );
                if !s.finished {
                    continue;
                }
                s.finished = false;
                let mut mix = fleet.views[si].mix;
                s.vms.retain(|&vid| {
                    let vm = &mut vms[vid];
                    let done = vm.remaining <= EPS;
                    if !done {
                        return true;
                    }
                    vm.remaining = 0.0;
                    active -= 1;
                    last_completion = last_completion.max(t);
                    let response = t - vm.submit;
                    total_response += response;
                    if response > vm.deadline {
                        violated[vm.request] = true;
                        if vm.migrated {
                            mig_tally.charge_violation();
                        }
                    }
                    mix = mix
                        .minus(vm.ty)
                        .expect("completed VM must be in its server's mix");
                    false
                });
                fleet.set_mix(si, mix).map_err(SimulationError::Model)?;
            }

            // Reactive consolidation sweep: drain straggler servers onto
            // busier peers so the freed machines power off. The active
            // regime is either the run-wide config or the scenario
            // window covering `t`.
            if let Some(cfg) = self.active_migration(t) {
                if (t - last_sweep) >= cfg.check_interval {
                    last_sweep = t;
                    self.consolidation_sweep(
                        cfg,
                        &mut fleet,
                        &mut vms,
                        &fault_state,
                        &mut hysteresis,
                        &mut mig_tally,
                        &stall_hist,
                    )
                    .map_err(SimulationError::Model)?;
                }
            }

            // Completions, burst fallbacks, and migrations above happened
            // at the advanced instant.
            if self.record_timeline {
                sync_timeline(
                    &fleet.views,
                    &mut open_mix,
                    &mut open_since,
                    &mut timeline,
                    t,
                );
            }
        }

        // Close any interval still open at the end of the run.
        if self.record_timeline {
            for (si, mix) in open_mix.iter().enumerate() {
                if !mix.is_empty() {
                    timeline.push(AllocationInterval {
                        server: ServerId::from(si),
                        start: open_since[si],
                        end: t,
                        mix: *mix,
                    });
                }
            }
        }

        if !queue.is_empty() {
            let origin = pending[*queue.front().expect("non-empty queue")].origin;
            self.telemetry.event(
                t.value(),
                "simulator",
                Severity::Error,
                "run stuck: queue drained no further",
                vec![("request", origin.to_string())],
            );
            return Err(SimulationError::Stuck {
                request: origin,
                reason: EavmError::Infeasible("queue drained no further".into()),
            });
        }

        // One flush per run keeps the event loop free of shared atomics.
        let tel = &self.telemetry;
        if tel.is_enabled() {
            tel.counter("sim.runs").inc();
            tel.counter("sim.requests").add(requests.len() as u64);
            tel.counter("sim.vms_placed").add(total_vms as u64);
            tel.counter("sim.sla_violations")
                .add(violated.iter().filter(|&&v| v).count() as u64);
            tel.counter("sim.migrations")
                .add(mig_tally.migrations as u64);
            if mig_tally.migrations > 0 {
                tel.counter("sim.migrated_mb")
                    .add(mig_tally.migrated_mb.round() as u64);
                tel.counter("sim.migration_downtime_ms")
                    .add((mig_tally.downtime.value() * 1e3).round() as u64);
                tel.counter("sim.hosts_powered_down")
                    .add(mig_tally.hosts_powered_down as u64);
                tel.counter("sim.migration_sla_violations")
                    .add(mig_tally.sla_violations as u64);
            }
            if self.faults.is_some() {
                tel.counter("sim.host_crashes")
                    .add(tallies.host_crashes as u64);
                tel.counter("sim.host_degradations")
                    .add(tallies.host_degradations as u64);
                tel.counter("sim.vms_killed").add(tallies.vms_killed as u64);
                tel.counter("sim.vms_restarted")
                    .add(tallies.vms_restarted as u64);
            }
            tel.event(
                t.value(),
                "simulator",
                Severity::Info,
                "run complete",
                vec![
                    ("requests", requests.len().to_string()),
                    ("vms", total_vms.to_string()),
                    ("energy_j", format!("{:.0}", energy.value())),
                ],
            );
        }

        Ok(SimOutcome {
            strategy: strategy.name(),
            cloud: self.cloud.name.clone(),
            requests: requests.len(),
            vms: total_vms,
            first_submit,
            last_completion,
            energy,
            idle_energy,
            sla_violations: violated.iter().filter(|&&v| v).count(),
            total_response_time: total_response,
            total_wait_time: total_wait,
            peak_servers_busy: peak_busy,
            migrations: mig_tally.migrations,
            migrated_mb: mig_tally.migrated_mb,
            migration_downtime: mig_tally.downtime,
            hosts_powered_down: mig_tally.hosts_powered_down,
            per_type_violations: {
                let mut v = [0usize; 3];
                for (r, &bad) in requests.iter().zip(&violated) {
                    if bad {
                        v[r.workload.index()] += 1;
                    }
                }
                v
            },
            per_type_requests,
            busy_server_seconds,
            host_crashes: tallies.host_crashes,
            host_degradations: tallies.host_degradations,
            vms_killed: tallies.vms_killed,
            vms_restarted: tallies.vms_restarted,
            lost_work: tallies.lost_work,
            restart_energy: tallies.restart_energy,
            timeline,
        })
    }

    /// Strategy views of the hosts that can receive placements right
    /// now: downed and degraded hosts are cordoned until their window
    /// ends. Without a fault plan no host is ever cordoned, so the
    /// persistent views pass as they are; a filtered copy is built only
    /// while some host is cordoned.
    fn placeable<'v>(
        &self,
        views: &'v [ServerView],
        fault_state: &FaultState,
    ) -> Cow<'v, [ServerView]> {
        if self.faults.is_none() || !fault_state.any_cordoned() {
            return Cow::Borrowed(views);
        }
        Cow::Owned(
            views
                .iter()
                .filter(|v| fault_state.available(v.id.index()))
                .copied()
                .collect(),
        )
    }

    /// Fire one plan event at instant `t`: a crash kills every VM on
    /// the host (the lost work re-enters the queue as restart entries
    /// owned by the original requests) and opens an outage window; a
    /// degradation opens a slowdown window. Windows end at the *event's*
    /// scheduled time plus duration, so late processing (an event due
    /// while the fleet was idle) stays deterministic.
    #[allow(clippy::too_many_arguments)]
    fn apply_fault(
        &self,
        event: &eavm_faults::FaultEvent,
        t: Seconds,
        fleet: &mut Fleet<M>,
        vms: &mut [Vm],
        pending: &mut Vec<PendingReq>,
        queue: &mut std::collections::VecDeque<usize>,
        fault_state: &mut FaultState,
        tallies: &mut FaultTallies,
        active: &mut usize,
    ) -> Result<(), EavmError> {
        let h = event.host;
        match event.kind {
            FaultKind::HostCrash { down_for } => {
                tallies.host_crashes += 1;
                let end = Seconds(event.at + down_for);
                if end > t {
                    fault_state.down_until[h] =
                        Some(fault_state.down_until[h].map_or(end, |cur| cur.max(end)));
                }
                // Degradation windows on a crashed host are moot.
                fault_state.degraded[h] = None;
                let resident = std::mem::take(&mut fleet.servers[h].vms);
                if !resident.is_empty() {
                    let model = self.model_of(fleet.views[h].platform);
                    // Group the killed VMs by owning request (BTreeMap:
                    // deterministic re-enqueue order) and account the
                    // work and energy thrown away.
                    let mut killed: std::collections::BTreeMap<usize, u32> =
                        std::collections::BTreeMap::new();
                    for vid in resident {
                        let vm = &mut vms[vid];
                        let progress = (1.0 - vm.remaining).clamp(0.0, 1.0);
                        tallies.lost_work += model.solo_time(vm.ty) * progress;
                        tallies.restart_energy += model
                            .run_energy(MixVector::single(vm.ty, 1))
                            .unwrap_or(Joules::ZERO)
                            * progress;
                        tallies.vms_killed += 1;
                        *active -= 1;
                        // The VM record becomes a dead husk: never
                        // resident again, never retired.
                        vm.remaining = 1.0;
                        *killed.entry(vm.request).or_insert(0) += 1;
                    }
                    for (origin, vm_count) in killed {
                        pending.push(PendingReq {
                            origin,
                            queued_at: t,
                            vm_count,
                            restart: true,
                        });
                        queue.push_back(pending.len() - 1);
                    }
                }
                fleet.set_mix(h, MixVector::EMPTY)?;
                self.telemetry.event(
                    t.value(),
                    "simulator",
                    Severity::Warn,
                    "host crash",
                    vec![
                        ("host", h.to_string()),
                        ("killed", tallies.vms_killed.to_string()),
                    ],
                );
            }
            FaultKind::HostDegraded { duration, factor } => {
                tallies.host_degradations += 1;
                let end = Seconds(event.at + duration);
                // A crashed host cannot also degrade; overlapping
                // degradations keep the longer window and slower rate.
                if fault_state.down_until[h].is_none() && end > t {
                    fault_state.degraded[h] = Some(match fault_state.degraded[h] {
                        Some((cur_end, cur_f)) => (cur_end.max(end), cur_f.min(factor)),
                        None => (end, factor),
                    });
                }
            }
        }
        Ok(())
    }

    /// Materialize validated placements: create the VMs (attributed to
    /// their owning queue entries, in order), update server mixes,
    /// refresh the per-server caches, and track peaks. Each VM's wait
    /// runs from its entry's (re)queue instant to `t`.
    #[allow(clippy::too_many_arguments)]
    fn commit_placements(
        &self,
        placements: &[eavm_core::Placement],
        owners: &[usize],
        pending: &[PendingReq],
        requests: &[VmRequest],
        t: Seconds,
        fleet: &mut Fleet<M>,
        vms: &mut Vec<Vm>,
        active: &mut usize,
        total_vms: &mut usize,
        total_wait: &mut Seconds,
        peak_busy: &mut usize,
        wait_hist: &eavm_telemetry::Histogram,
    ) -> Result<(), SimulationError> {
        let mut owner_iter = owners.iter().copied();
        for p in placements {
            let si = p.server.index();
            for (ty, count) in p.add.iter() {
                for _ in 0..count {
                    let entry = &pending[owner_iter.next().expect("owner per placed VM")];
                    let req = &requests[entry.origin];
                    let vid = vms.len();
                    vms.push(Vm {
                        ty,
                        request: entry.origin,
                        submit: req.submit,
                        deadline: req.deadline,
                        remaining: 1.0,
                        migrated: false,
                    });
                    fleet.servers[si].vms.push(vid);
                    *active += 1;
                    *total_vms += 1;
                    let wait = t - entry.queued_at;
                    *total_wait += wait;
                    wait_hist.record(wait.value().max(0.0) as u64);
                }
            }
            fleet
                .set_mix(si, fleet.views[si].mix + p.add)
                .map_err(SimulationError::Model)?;
        }
        *peak_busy = (*peak_busy).max(fleet.busy);
        Ok(())
    }

    /// One consolidation sweep: [`eavm_migrate::plan_moves`] picks the
    /// donors (servers hosting at most `max_donor_vms` VMs, hysteresis
    /// permitting) and re-homes *all* of their VMs onto non-straggler
    /// receivers (first fit within `receiver_bound`, slowdown-guarded),
    /// all-or-nothing per donor; on success the donor empties (and
    /// powers off) and each moved VM pays the pre-copy migration stall
    /// as lost progress.
    #[allow(clippy::too_many_arguments)] // the sweep is run()'s private helper over its loop state
    fn consolidation_sweep(
        &self,
        cfg: &MigrationConfig,
        fleet: &mut Fleet<M>,
        vms: &mut [Vm],
        fault_state: &FaultState,
        hysteresis: &mut Hysteresis,
        tally: &mut MigrationTally,
        stall_hist: &eavm_telemetry::Histogram,
    ) -> Result<(), EavmError> {
        let hosts: Vec<HostLoad> = fleet
            .views
            .iter()
            .enumerate()
            .map(|(i, v)| HostLoad {
                mix: v.mix,
                available: fault_state.available(i),
            })
            .collect();
        let policy = eavm_migrate::ConsolidationConfig {
            interval: cfg.check_interval,
            drain_threshold: cfg.max_donor_vms,
            receiver_bound: cfg.receiver_bound,
            hysteresis_sweeps: cfg.hysteresis_sweeps,
            model: cfg.model.clone(),
        };
        hysteresis.begin_sweep();
        // Degradation budget guard: nobody on the receiver may be
        // pushed past `max_slowdown x` its solo runtime.
        let plan = plan_moves(&hosts, &policy, hysteresis, |r, new_mix| {
            let truth = &mut fleet.truths[fleet.views[r].platform as usize];
            match truth.get(new_mix) {
                Ok(ground) => {
                    WorkloadType::ALL
                        .into_iter()
                        .all(|t| match ground.times[t.index()] {
                            Some(time) => time <= truth.model.solo_time(t) * cfg.max_slowdown,
                            None => true,
                        })
                }
                Err(_) => false,
            }
        });
        if plan.is_empty() {
            return Ok(());
        }

        // Commit: move VMs, charge the pre-copy stall, refresh caches.
        let cost = cfg.model.cost();
        let mut mixes: Vec<MixVector> = hosts.iter().map(|h| h.mix).collect();
        let mut touched: Vec<usize> = Vec::new();
        for m in &plan.moves {
            let from = &mut fleet.servers[m.from].vms;
            let vid = from
                .iter()
                .copied()
                .find(|&v| vms[v].ty == m.ty)
                .ok_or_else(|| {
                    EavmError::Infeasible("planned move references absent resident".into())
                })?;
            from.retain(|&x| x != vid);
            mixes[m.from] = mixes[m.from]
                .minus(m.ty)
                .expect("migrating VM must be resident");
            fleet.servers[m.to].vms.push(vid);
            mixes[m.to] = mixes[m.to].plus(m.ty);
            // Lost progress: stop-and-copy downtime plus degraded
            // pre-copy, expressed as a fraction of the solo runtime.
            let solo = self.model_of(fleet.views[m.to].platform).solo_time(m.ty);
            vms[vid].remaining = (vms[vid].remaining + cost.stall / solo).min(1.0);
            vms[vid].migrated = true;
            tally.record(&cost);
            stall_hist.record((cost.stall.value() * 1e3).round() as u64);
            touched.push(m.from);
            touched.push(m.to);
        }
        tally.record_powered_down(plan.emptied.len());
        hysteresis.commit(&plan, cfg.hysteresis_sweeps);
        touched.sort_unstable();
        touched.dedup();
        for i in touched {
            fleet.set_mix(i, mixes[i])?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eavm_core::{reference_cpu_slots, AnalyticModel, FirstFit, OptimizationGoal, Proactive};
    use eavm_types::JobId;

    fn model() -> AnalyticModel {
        AnalyticModel::reference()
    }

    /// Plain FIRST-FIT over the reference machine's core count.
    fn ff() -> FirstFit {
        FirstFit::ff(reference_cpu_slots())
    }

    fn req(id: u32, submit: f64, ty: WorkloadType, n: u32, deadline: f64) -> VmRequest {
        VmRequest {
            id: JobId::new(id),
            submit: Seconds(submit),
            workload: ty,
            vm_count: n,
            deadline: Seconds(deadline),
            priority: eavm_swf::Priority::Standard,
        }
    }

    fn cloud(n: usize) -> CloudConfig {
        CloudConfig::new("TEST", n).unwrap()
    }

    #[test]
    fn single_request_runs_at_solo_speed() {
        let sim = Simulation::new(model(), cloud(2));
        let mut ff = ff();
        let reqs = vec![req(0, 0.0, WorkloadType::Cpu, 1, 1e9)];
        let out = sim.run(&mut ff, &reqs).unwrap();
        // One FFTW-like VM alone: makespan == solo runtime (1200 s).
        assert!((out.makespan().value() - 1200.0).abs() < 1e-6);
        assert_eq!(out.vms, 1);
        assert_eq!(out.sla_violations, 0);
        assert_eq!(out.peak_servers_busy, 1);
    }

    #[test]
    fn default_accounting_powers_only_busy_servers() {
        let sim = Simulation::new(model(), cloud(3));
        let mut ff = ff();
        let reqs = vec![req(0, 0.0, WorkloadType::Cpu, 1, 1e9)];
        let out = sim.run(&mut ff, &reqs).unwrap();
        // One busy server draws its 125 W floor; the two empty servers
        // are powered off.
        let floor = 125.0 * out.makespan().value();
        assert!((out.idle_energy.value() - floor).abs() < 1e-3);
        assert!(out.energy > out.idle_energy);
        assert!(out.energy.value() < 2.0 * floor, "empty servers drew power");
    }

    #[test]
    fn always_on_fleet_charges_every_provisioned_server() {
        let sim = Simulation::new(model(), cloud(3)).with_always_on_fleet();
        let mut ff = ff();
        let reqs = vec![req(0, 0.0, WorkloadType::Cpu, 1, 1e9)];
        let out = sim.run(&mut ff, &reqs).unwrap();
        // Static floor: 3 servers × 125 W × makespan.
        let floor = 3.0 * 125.0 * out.makespan().value();
        assert!(
            out.energy.value() > floor - 1e-6,
            "{} < {floor}",
            out.energy
        );
        assert!((out.idle_energy.value() - floor).abs() < 1e-3);
        assert!(out.idle_energy_fraction() > 0.5);
    }

    #[test]
    fn contended_vms_take_longer_than_solo() {
        let sim = Simulation::new(model(), cloud(1));
        let mut ff = ff();
        let reqs = vec![req(0, 0.0, WorkloadType::Cpu, 4, 1e9)];
        let out = sim.run(&mut ff, &reqs).unwrap();
        assert!(out.makespan().value() > 1200.0);
        assert_eq!(out.vms, 4);
    }

    #[test]
    fn queueing_delays_requests_until_capacity_frees() {
        // One 4-slot server; two back-to-back 4-VM requests: the second
        // waits for the first to finish.
        let sim = Simulation::new(model(), cloud(1));
        let mut ff = ff();
        let reqs = vec![
            req(0, 0.0, WorkloadType::Cpu, 4, 1e9),
            req(1, 1.0, WorkloadType::Cpu, 4, 1e9),
        ];
        let out = sim.run(&mut ff, &reqs).unwrap();
        assert!(
            out.mean_wait_time() > Seconds(100.0),
            "{}",
            out.mean_wait_time()
        );
        assert_eq!(out.vms, 8);
        // Roughly two sequential batches.
        assert!(out.makespan().value() > 2.0 * 1200.0);
    }

    #[test]
    fn sla_violations_are_counted_per_request() {
        // Deadline lower than the solo runtime: guaranteed violation.
        let sim = Simulation::new(model(), cloud(2));
        let mut ff = ff();
        let reqs = vec![
            req(0, 0.0, WorkloadType::Cpu, 2, 600.0),
            req(1, 0.0, WorkloadType::Io, 1, 1e9),
        ];
        let out = sim.run(&mut ff, &reqs).unwrap();
        assert_eq!(out.sla_violations, 1);
        assert!((out.sla_violation_pct() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn interval_weighting_matches_fig4_semantics() {
        // VM A (CPU) starts alone; VM B (IO) joins the same server later.
        // A's realized time must lie between its solo time and the time
        // it would take if B had been present from the start.
        let sim = Simulation::new(model(), cloud(1));
        let mut ff = ff();
        let reqs = vec![
            req(0, 0.0, WorkloadType::Cpu, 1, 1e9),
            req(1, 300.0, WorkloadType::Io, 1, 1e9),
        ];
        let out = sim.run(&mut ff, &reqs).unwrap();
        let m = model();
        let t_solo = m.solo_time(WorkloadType::Cpu).value();
        let t_mixed = m
            .exec_time(MixVector::new(1, 0, 1), WorkloadType::Cpu)
            .unwrap()
            .value();
        // A finishes last (longer runtime); makespan = A's finish.
        let realized = out.makespan().value();
        assert!(realized > t_solo + 1e-6, "no contention accounted");
        assert!(realized < t_mixed - 1e-6, "solo head start ignored");
    }

    #[test]
    fn proactive_strategy_runs_end_to_end() {
        use eavm_benchdb::DbBuilder;
        use eavm_core::DbModel;
        let db = DbModel::new(DbBuilder::exact().build().unwrap());
        let sim = Simulation::new(model(), cloud(4));
        let deadlines = [Seconds(4800.0), Seconds(4000.0), Seconds(3600.0)];
        let mut pa = Proactive::new(db, OptimizationGoal::BALANCED, deadlines);
        let reqs: Vec<VmRequest> = (0..12)
            .map(|i| {
                req(
                    i,
                    (i as f64) * 50.0,
                    WorkloadType::from_index(i as usize % 3),
                    1 + i % 4,
                    4800.0,
                )
            })
            .collect();
        let out = sim.run(&mut pa, &reqs).unwrap();
        assert_eq!(out.requests, 12);
        assert_eq!(out.vms as u32, reqs.iter().map(|r| r.vm_count).sum::<u32>());
        assert!(out.makespan() > Seconds::ZERO);
    }

    #[test]
    fn impossible_request_reports_stuck() {
        // 5 VMs can never fit a single 4-slot server under plain FF.
        let sim = Simulation::new(model(), cloud(1));
        let mut ff = ff();
        let reqs = vec![req(0, 0.0, WorkloadType::Cpu, 5, 1e9)];
        match sim.run(&mut ff, &reqs) {
            Err(SimulationError::Stuck { request, .. }) => assert_eq!(request, 0),
            other => panic!("expected Stuck, got {other:?}"),
        }
    }

    #[test]
    fn unsorted_or_empty_inputs_rejected() {
        let sim = Simulation::new(model(), cloud(1));
        let mut ff = ff();
        assert!(matches!(
            sim.run(&mut ff, &[]),
            Err(SimulationError::Input(_))
        ));
        let reqs = vec![
            req(0, 100.0, WorkloadType::Cpu, 1, 1e9),
            req(1, 0.0, WorkloadType::Cpu, 1, 1e9),
        ];
        assert!(matches!(
            sim.run(&mut ff, &reqs),
            Err(SimulationError::Input(_))
        ));
    }

    #[test]
    fn identical_runs_are_deterministic() {
        let sim = Simulation::new(model(), cloud(3));
        let reqs: Vec<VmRequest> = (0..9)
            .map(|i| {
                req(
                    i,
                    (i as f64) * 100.0,
                    WorkloadType::from_index(i as usize % 3),
                    2,
                    1e9,
                )
            })
            .collect();
        let a = sim.run(&mut ff(), &reqs).unwrap();
        let b = sim.run(&mut ff(), &reqs).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn burst_allocation_preserves_vm_population() {
        use eavm_benchdb::DbBuilder;
        use eavm_core::DbModel;
        let db = DbModel::new(DbBuilder::exact().build().unwrap());
        let deadlines = [Seconds(4800.0), Seconds(4000.0), Seconds(3600.0)];
        // A 3-request burst (same instant, same profile) plus a straggler.
        let reqs = vec![
            req(0, 0.0, WorkloadType::Cpu, 2, 4800.0),
            req(1, 0.0, WorkloadType::Cpu, 3, 4800.0),
            req(2, 0.0, WorkloadType::Cpu, 1, 4800.0),
            req(3, 500.0, WorkloadType::Io, 2, 3600.0),
        ];
        let base = Simulation::new(model(), cloud(4));
        let burst = Simulation::new(model(), cloud(4)).with_burst_allocation();

        let mut pa1 = Proactive::new(db.clone(), OptimizationGoal::BALANCED, deadlines);
        let mut pa2 = Proactive::new(db, OptimizationGoal::BALANCED, deadlines);
        let per_request = base.run(&mut pa1, &reqs).unwrap();
        let per_burst = burst.run(&mut pa2, &reqs).unwrap();

        assert_eq!(per_request.vms, 8);
        assert_eq!(per_burst.vms, 8);
        assert_eq!(per_burst.requests, 4);
        // Burst-level search sees the whole 6-VM set at once; it must be
        // at least as consolidation-effective as per-request placement.
        assert!(per_burst.peak_servers_busy <= per_request.peak_servers_busy);
    }

    #[test]
    fn burst_allocation_falls_back_to_head_when_merged_burst_cannot_fit() {
        // A 2x4-VM burst (8 VMs) on a single 4-slot FF server: the merged
        // request can never fit, but the head alone can; the fallback
        // must place the head and queue the rest.
        let sim = Simulation::new(model(), cloud(1)).with_burst_allocation();
        let mut ff = ff();
        let reqs = vec![
            req(0, 0.0, WorkloadType::Cpu, 4, 1e9),
            req(1, 0.0, WorkloadType::Cpu, 4, 1e9),
        ];
        let out = sim.run(&mut ff, &reqs).unwrap();
        assert_eq!(out.vms, 8);
        // Two sequential batches, like the non-burst case.
        assert!(out.makespan().value() > 2.0 * 1200.0);
    }

    #[test]
    fn migration_drains_straggler_servers() {
        use crate::migration::MigrationConfig;
        let reqs = vec![
            req(0, 0.0, WorkloadType::Cpu, 4, 1e9), // fills server 0 under FF
            req(1, 0.0, WorkloadType::Io, 1, 1e9),  // straggler on server 1
            req(2, 400.0, WorkloadType::Io, 1, 1e9),
        ];
        let plain = Simulation::new(model(), cloud(2));
        let migrating = Simulation::new(model(), cloud(2)).with_migration(MigrationConfig {
            max_donor_vms: 2,
            receiver_bound: eavm_types::MixVector::new(10, 4, 7),
            check_interval: Seconds(300.0),
            max_slowdown: 1.8,
            // No cooldown: the straggler host receives a fresh arrival
            // right after being drained and must be drained again for
            // the energy win this test asserts.
            hysteresis_sweeps: 0,
            ..Default::default()
        });

        let base = plain.run(&mut ff(), &reqs).unwrap();
        let merged = migrating.run(&mut ff(), &reqs).unwrap();

        assert_eq!(base.migrations, 0);
        assert_eq!(base.hosts_powered_down, 0);
        assert_eq!(base.migrated_mb, 0.0);
        assert!(merged.migrations >= 1, "sweep never fired");
        assert_eq!(merged.vms, base.vms, "migration lost a VM");
        // The physical cost columns must be consistent with the count.
        let per_move = MigrationConfig::default().model.cost();
        assert!(
            (merged.migrated_mb - merged.migrations as f64 * per_move.bytes_mb).abs() < 1e-6,
            "migrated bytes must equal moves x per-move transfer"
        );
        assert!(
            (merged.migration_downtime.value()
                - merged.migrations as f64 * per_move.downtime.value())
            .abs()
                < 1e-9
        );
        assert!(merged.hosts_powered_down >= 1, "donor never powered down");
        // Draining the straggler powers a server off early: less energy,
        // at some makespan cost from the stall + added contention.
        assert!(
            merged.energy < base.energy,
            "migration should save energy: {} vs {}",
            merged.energy,
            base.energy
        );
        assert!(merged.makespan() >= base.makespan() - Seconds(1e-6));
    }

    #[test]
    fn migration_is_all_or_nothing_per_donor() {
        use crate::migration::MigrationConfig;
        // Only one server: the straggler has no receiver, so nothing may
        // move and nothing may be lost.
        let reqs = vec![
            req(0, 0.0, WorkloadType::Cpu, 1, 1e9),
            req(1, 2000.0, WorkloadType::Cpu, 1, 1e9),
        ];
        let sim = Simulation::new(model(), cloud(1)).with_migration(MigrationConfig {
            check_interval: Seconds(100.0),
            ..Default::default()
        });
        let out = sim.run(&mut ff(), &reqs).unwrap();
        assert_eq!(out.migrations, 0);
        assert_eq!(out.vms, 2);
    }

    #[test]
    fn migration_windows_gate_consolidation_in_time() {
        use crate::migration::{MigrationConfig, MigrationWindow};
        let reqs = vec![
            req(0, 0.0, WorkloadType::Cpu, 4, 1e9),
            req(1, 0.0, WorkloadType::Io, 1, 1e9),
            // An arrival event at 400 s gives the sweep gate an instant
            // to fire at while the straggler is still populated.
            req(2, 400.0, WorkloadType::Io, 1, 1e9),
        ];
        let cfg = MigrationConfig {
            check_interval: Seconds(300.0),
            ..Default::default()
        };
        // A window that closes before the first sweep could fire: the
        // regime is armed but never active, so nothing moves.
        let closed =
            Simulation::new(model(), cloud(2)).with_migration_windows(vec![MigrationWindow {
                start: Seconds(0.0),
                end: Seconds(100.0),
                config: cfg.clone(),
            }]);
        let out = closed.run(&mut ff(), &reqs).unwrap();
        assert_eq!(out.migrations, 0);

        // An all-run window behaves exactly like `with_migration`.
        let open =
            Simulation::new(model(), cloud(2)).with_migration_windows(vec![MigrationWindow {
                start: Seconds(0.0),
                end: Seconds(f64::MAX),
                config: cfg.clone(),
            }]);
        let windowed = open.run(&mut ff(), &reqs).unwrap();
        let flat = Simulation::new(model(), cloud(2))
            .with_migration(cfg)
            .run(&mut ff(), &reqs)
            .unwrap();
        assert_eq!(windowed, flat, "all-run window must equal flat config");
        assert!(windowed.migrations >= 1, "sweep never fired in-window");
    }

    #[test]
    fn heterogeneous_fleet_uses_big_node_capacity() {
        use eavm_core::AnalyticModel;
        use eavm_testbed::{BenchmarkSuite, ContentionModel, ServerSpec};
        use eavm_types::MixVector;

        let big = AnalyticModel::new(
            ServerSpec::big_node(),
            ContentionModel::default(),
            &BenchmarkSuite::standard(),
            MixVector::new(16, 16, 16),
        );
        // One reference server (4 slots) + one big node (8 slots).
        let hetero = Simulation::new(model(), cloud(1)).with_platform(big, 1);
        let homo = Simulation::new(model(), cloud(2));

        // 12 CPU VMs under plain FF: the hetero fleet fits them as 4 + 8;
        // the homogeneous pair can only hold 8 at a time and must queue.
        let reqs = vec![
            req(0, 0.0, WorkloadType::Cpu, 4, 1e9),
            req(1, 0.0, WorkloadType::Cpu, 4, 1e9),
            req(2, 0.0, WorkloadType::Cpu, 4, 1e9),
        ];
        let h = hetero.run(&mut ff(), &reqs).unwrap();
        let o = homo.run(&mut ff(), &reqs).unwrap();
        assert_eq!(h.vms, 12);
        assert!(
            h.mean_wait_time() < o.mean_wait_time(),
            "big node must absorb the overflow: {} vs {}",
            h.mean_wait_time(),
            o.mean_wait_time()
        );
        assert!(h.makespan() < o.makespan());
    }

    #[test]
    fn heterogeneous_proactive_uses_per_platform_models() {
        use eavm_benchdb::DbBuilder;
        use eavm_core::{AnalyticModel, DbModel, Proactive};
        use eavm_testbed::{BenchmarkSuite, ContentionModel, RunSimulator, ServerSpec};
        use eavm_types::MixVector;

        // Per-platform databases: reference + big node.
        let db_ref = DbBuilder::exact().build().unwrap();
        let db_big = DbBuilder {
            sim: RunSimulator {
                server: ServerSpec::big_node(),
                model: ContentionModel::default(),
            },
            meter_seed: None,
            ..Default::default()
        }
        .build()
        .unwrap();
        assert!(
            db_big.aux().os_bounds.cpu > db_ref.aux().os_bounds.cpu,
            "the big node must host more VMs before its optimum"
        );

        let big_truth = AnalyticModel::new(
            ServerSpec::big_node(),
            ContentionModel::default(),
            &BenchmarkSuite::standard(),
            MixVector::new(24, 24, 24),
        );
        let sim = Simulation::new(model(), cloud(1)).with_platform(big_truth, 1);
        let deadlines = [Seconds(4800.0), Seconds(4000.0), Seconds(3600.0)];
        let mut pa = Proactive::heterogeneous(
            vec![DbModel::new(db_ref), DbModel::new(db_big)],
            OptimizationGoal::ENERGY,
            deadlines,
        );
        let reqs: Vec<VmRequest> = (0..6)
            .map(|i| req(i, (i as f64) * 10.0, WorkloadType::Cpu, 4, 1e9))
            .collect();
        let out = sim.run(&mut pa, &reqs).unwrap();
        assert_eq!(out.vms, 24);
        assert!(out.makespan() > Seconds::ZERO);
    }

    #[test]
    fn per_type_violations_and_busy_seconds_are_tracked() {
        let sim = Simulation::new(model(), cloud(2));
        let mut ff = ff();
        // The CPU request's deadline is impossible; the IO one is lax.
        // 2 CPU + 4 IO VMs overflow the first 4-slot server, so two
        // servers host VMs for part of the run.
        let reqs = vec![
            req(0, 0.0, WorkloadType::Cpu, 2, 600.0),
            req(1, 0.0, WorkloadType::Io, 4, 1e9),
        ];
        let out = sim.run(&mut ff, &reqs).unwrap();
        assert_eq!(out.per_type_requests, [1, 0, 1]);
        assert_eq!(out.per_type_violations, [1, 0, 0]);
        assert!((out.sla_violation_pct_of(WorkloadType::Cpu) - 100.0).abs() < 1e-9);
        assert_eq!(out.sla_violation_pct_of(WorkloadType::Io), 0.0);
        // One server runs CPU VMs (~1266+ s), the other the IO VM (800 s):
        // busy integral is between 1 and 2 server-makespans.
        assert!(out.busy_server_seconds > out.makespan());
        assert!(out.busy_server_seconds < out.makespan() * 2.0);
        assert!(out.mean_servers_busy() > 1.0 && out.mean_servers_busy() < 2.0);
    }

    #[test]
    fn timeline_reconstructs_fig4_intervals() {
        // VM1 (CPU) runs alone, then VM2 (IO) joins at t=400; VM1
        // finishes first (1200 s base vs the IO VM's 900 s joined late),
        // leaving three intervals: (1,0,0), (1,0,1), (0,0,1).
        let sim = Simulation::new(model(), cloud(1)).with_timeline();
        let mut ff = ff();
        let reqs = vec![
            req(0, 0.0, WorkloadType::Cpu, 1, 1e9),
            req(1, 400.0, WorkloadType::Io, 1, 1e9),
        ];
        let out = sim.run(&mut ff, &reqs).unwrap();
        let tl = out.timeline_of(eavm_types::ServerId::new(0));
        assert_eq!(tl.len(), 3, "{tl:?}");
        assert_eq!(tl[0].mix, MixVector::new(1, 0, 0));
        assert_eq!(tl[1].mix, MixVector::new(1, 0, 1));
        assert_eq!(tl[2].mix, MixVector::new(0, 0, 1));
        // Contiguous, ordered, and covering submission..makespan.
        assert_eq!(tl[0].start, Seconds(0.0));
        assert_eq!(tl[0].end, tl[1].start);
        assert_eq!(tl[1].end, tl[2].start);
        assert_eq!(tl[2].end, out.last_completion);
        assert_eq!(tl[1].start, Seconds(400.0));
        // The realized VM1 execution time is the interval-weighted value.
        let total: f64 = tl.iter().map(|iv| iv.duration().value()).sum();
        assert!((total - out.makespan().value()).abs() < 1e-6);
    }

    #[test]
    fn timeline_is_empty_unless_enabled() {
        let sim = Simulation::new(model(), cloud(1));
        let mut ff = ff();
        let reqs = vec![req(0, 0.0, WorkloadType::Cpu, 1, 1e9)];
        let out = sim.run(&mut ff, &reqs).unwrap();
        assert!(out.timeline.is_empty());
    }

    #[test]
    fn backfill_places_small_requests_past_a_blocked_head() {
        // One 4-slot server running 2 VMs. Queue: [4-VM head (blocked),
        // 2-VM filler]. FIFO leaves the filler waiting; backfill starts
        // it immediately in the free slots.
        let reqs = vec![
            req(0, 0.0, WorkloadType::Cpu, 2, 1e9),
            req(1, 1.0, WorkloadType::Cpu, 4, 1e9),
            req(2, 2.0, WorkloadType::Io, 2, 1e9),
        ];
        let fifo = Simulation::new(model(), cloud(1))
            .run(&mut ff(), &reqs)
            .unwrap();
        let backfill = Simulation::new(model(), cloud(1))
            .with_backfill(8)
            .run(&mut ff(), &reqs)
            .unwrap();
        assert_eq!(fifo.vms, 8);
        assert_eq!(backfill.vms, 8);
        // The filler's wait shrinks, so total wait must drop.
        assert!(
            backfill.total_wait_time < fifo.total_wait_time,
            "backfill did not reduce waiting: {} vs {}",
            backfill.total_wait_time,
            fifo.total_wait_time
        );
        assert!(backfill.makespan() <= fifo.makespan() + Seconds(1e-6));
    }

    #[test]
    fn backfill_window_bounds_the_scan() {
        // Window 1 can only look one slot past the head: the placeable
        // request sits at depth 2 and must keep waiting.
        let reqs = vec![
            req(0, 0.0, WorkloadType::Cpu, 2, 1e9),
            req(1, 1.0, WorkloadType::Cpu, 4, 1e9), // blocked head
            req(2, 1.0, WorkloadType::Cpu, 4, 1e9), // also blocked (depth 1)
            req(3, 1.0, WorkloadType::Io, 2, 1e9),  // placeable (depth 2)
        ];
        let narrow = Simulation::new(model(), cloud(1))
            .with_backfill(1)
            .run(&mut ff(), &reqs)
            .unwrap();
        let wide = Simulation::new(model(), cloud(1))
            .with_backfill(8)
            .run(&mut ff(), &reqs)
            .unwrap();
        assert_eq!(narrow.vms, wide.vms);
        assert!(
            wide.total_wait_time < narrow.total_wait_time,
            "the wide window must reach the placeable request"
        );
    }

    #[test]
    fn edf_serves_the_urgent_request_first() {
        // Queue order: lax request first, tight-deadline request second.
        // FIFO serves them in order; EDF lets the urgent one jump.
        let reqs = vec![
            req(0, 0.0, WorkloadType::Cpu, 4, 1e9), // occupies the server
            req(1, 1.0, WorkloadType::Cpu, 4, 1e9), // lax
            req(2, 2.0, WorkloadType::Cpu, 4, 3000.0), // urgent
        ];
        let fifo = Simulation::new(model(), cloud(1))
            .run(&mut ff(), &reqs)
            .unwrap();
        let edf = Simulation::new(model(), cloud(1))
            .with_edf()
            .run(&mut ff(), &reqs)
            .unwrap();
        assert_eq!(fifo.vms, edf.vms);
        // FIFO: the urgent request waits two batches (~2800 s) and misses
        // its 3000 s deadline; EDF serves it in the second batch.
        assert_eq!(fifo.sla_violations, 1);
        assert_eq!(edf.sla_violations, 0, "EDF must save the urgent request");
    }

    #[test]
    fn telemetry_observes_without_changing_results() {
        let reqs = vec![
            req(0, 0.0, WorkloadType::Cpu, 4, 1e9),
            req(1, 1.0, WorkloadType::Cpu, 4, 600.0), // waits, then violates
        ];
        let plain = Simulation::new(model(), cloud(1));
        let telemetry = Telemetry::new();
        let observed = Simulation::new(model(), cloud(1)).with_telemetry(telemetry.clone());

        let a = plain.run(&mut ff(), &reqs).unwrap();
        let b = observed.run(&mut ff(), &reqs).unwrap();
        assert_eq!(a, b, "telemetry must not perturb the simulation");

        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("sim.runs"), 1);
        assert_eq!(snap.counter("sim.requests"), 2);
        assert_eq!(snap.counter("sim.vms_placed"), 8);
        assert_eq!(snap.counter("sim.sla_violations"), 1);
        let (name, waits) = &snap.histograms[0];
        assert_eq!(name, "sim.queue_wait_s");
        assert_eq!(waits.count, 8);
        assert!(waits.max > 1000, "the queued batch waited a full run");
        assert_eq!(telemetry.journal().events().len(), 1);
    }

    #[test]
    fn host_crash_restarts_resident_vms_and_conserves_population() {
        use eavm_faults::{FaultEvent, FaultKind, FaultPlan, LookupFaults};
        // Two CPU VMs run alone on server 0; it crashes mid-flight. Both
        // VMs must re-enter the queue, restart, and still finish.
        let reqs = vec![req(0, 0.0, WorkloadType::Cpu, 2, 1e9)];
        let plan = FaultPlan::from_events(
            vec![FaultEvent {
                at: 600.0,
                host: 0,
                kind: FaultKind::HostCrash { down_for: 300.0 },
            }],
            LookupFaults::disabled(),
        );
        let plain = Simulation::new(model(), cloud(2))
            .run(&mut ff(), &reqs)
            .unwrap();
        let out = Simulation::new(model(), cloud(2))
            .with_faults(plan)
            .run(&mut ff(), &reqs)
            .unwrap();
        assert_eq!(out.host_crashes, 1);
        assert_eq!(out.vms_killed, 2);
        assert_eq!(out.vms_restarted, 2, "killed VMs must be re-placed");
        // Conservation: placements = trace VMs + restarts.
        assert_eq!(out.vms, 2 + out.vms_restarted);
        assert!(out.lost_work > Seconds::ZERO);
        assert!(out.restart_energy > Joules::ZERO);
        // The restart redoes work, so the run must take strictly longer
        // and burn strictly more energy than the undisturbed one.
        assert!(out.makespan() > plain.makespan() + Seconds(1.0));
        assert!(out.energy > plain.energy);
        assert_eq!(out.requests, 1, "restarts must not invent requests");
    }

    #[test]
    fn crashed_host_is_cordoned_until_it_recovers() {
        use eavm_faults::{FaultEvent, FaultKind, FaultPlan, LookupFaults};
        // Single server, crash at t=100 with a long outage: the killed VM
        // cannot restart anywhere until the host recovers, so completion
        // lands after recovery + a full re-run.
        let reqs = vec![req(0, 0.0, WorkloadType::Cpu, 1, 1e9)];
        let plan = FaultPlan::from_events(
            vec![FaultEvent {
                at: 100.0,
                host: 0,
                kind: FaultKind::HostCrash { down_for: 5_000.0 },
            }],
            LookupFaults::disabled(),
        );
        let out = Simulation::new(model(), cloud(1))
            .with_faults(plan)
            .run(&mut ff(), &reqs)
            .unwrap();
        assert_eq!(out.vms_killed, 1);
        assert_eq!(out.vms_restarted, 1);
        // Restart can begin no earlier than recovery (t=5100), and the
        // fresh copy needs its full 1200 s solo runtime.
        assert!(
            out.last_completion >= Seconds(5_100.0 + 1_200.0 - 1e-6),
            "{}",
            out.last_completion
        );
    }

    #[test]
    fn degraded_host_slows_residents_for_the_window() {
        use eavm_faults::{FaultEvent, FaultKind, FaultPlan, LookupFaults};
        // The VM is resident before the window opens at t=50 (an open
        // window also cordons the host from *new* placements).
        let reqs = vec![req(0, 0.0, WorkloadType::Cpu, 1, 1e9)];
        let plan = FaultPlan::from_events(
            vec![FaultEvent {
                at: 50.0,
                host: 0,
                kind: FaultKind::HostDegraded {
                    duration: 600.0,
                    factor: 0.5,
                },
            }],
            LookupFaults::disabled(),
        );
        let out = Simulation::new(model(), cloud(1))
            .with_faults(plan)
            .run(&mut ff(), &reqs)
            .unwrap();
        assert_eq!(out.host_degradations, 1);
        assert_eq!(out.vms_killed, 0);
        // 50 s at full speed, 600 s at half speed (300 s of progress),
        // then the remaining 850 s at full speed: 1500 s total.
        assert!((out.makespan().value() - 1500.0).abs() < 1e-6, "{out:?}");
    }

    #[test]
    fn unit_degradation_factor_is_bitwise_transparent() {
        use eavm_faults::{FaultEvent, FaultKind, FaultPlan, LookupFaults};
        let reqs: Vec<VmRequest> = (0..6)
            .map(|i| {
                req(
                    i,
                    (i as f64) * 100.0,
                    WorkloadType::from_index(i as usize % 3),
                    2,
                    1e9,
                )
            })
            .collect();
        let plan = FaultPlan::from_events(
            vec![FaultEvent {
                at: 50.0,
                host: 0,
                kind: FaultKind::HostDegraded {
                    duration: 1e9,
                    factor: 1.0,
                },
            }],
            LookupFaults::disabled(),
        );
        let base = Simulation::new(model(), cloud(3))
            .run(&mut ff(), &reqs)
            .unwrap();
        let mut shadowed = Simulation::new(model(), cloud(3))
            .with_faults(plan)
            .run(&mut ff(), &reqs)
            .unwrap();
        // A rate-1.0 window cordons the host from *new* placements but
        // must not change any resident's arithmetic: neutralize the
        // counter difference and compare everything else exactly.
        assert_eq!(shadowed.host_degradations, 1);
        shadowed.host_degradations = 0;
        // Cordoning may shift placements; residents' progress must not
        // drift. With all requests fitting elsewhere the totals match.
        assert_eq!(shadowed.vms, base.vms);
        assert_eq!(shadowed.vms_killed, 0);
    }

    #[test]
    fn faulted_runs_are_deterministic_and_empty_plans_transparent() {
        use eavm_faults::{FaultConfig, FaultPlan};
        let reqs: Vec<VmRequest> = (0..10)
            .map(|i| {
                req(
                    i,
                    (i as f64) * 200.0,
                    WorkloadType::from_index(i as usize % 3),
                    1 + i % 3,
                    1e9,
                )
            })
            .collect();
        let horizon = 30_000.0;
        let cfg = FaultConfig::uniform(7, 1.5);
        let run = |plan: Option<FaultPlan>| {
            let mut sim = Simulation::new(model(), cloud(4));
            if let Some(p) = plan {
                sim = sim.with_faults(p);
            }
            sim.run(&mut ff(), &reqs).unwrap()
        };
        let a = run(Some(FaultPlan::generate(&cfg, 4, horizon)));
        let b = run(Some(FaultPlan::generate(&cfg, 4, horizon)));
        assert_eq!(a, b, "same seed must replay byte-identically");
        // An attached-but-empty plan must match the no-plan run.
        let bare = run(None);
        let empty = run(Some(FaultPlan::empty()));
        assert_eq!(bare, empty);
        assert_eq!(bare.host_crashes, 0);
        assert_eq!(bare.vms_restarted, 0);
    }

    #[test]
    fn ff3_packs_more_vms_per_server_than_ff() {
        let reqs: Vec<VmRequest> = (0..6)
            .map(|i| req(i, 0.0, WorkloadType::Cpu, 4, 1e9))
            .collect();
        let sim = Simulation::new(model(), cloud(6));
        let ff = sim.run(&mut ff(), &reqs).unwrap();
        let ff3 = sim.run(&mut FirstFit::with_multiplex(4, 3), &reqs).unwrap();
        assert!(ff3.peak_servers_busy < ff.peak_servers_busy);
        // Packing 12 CPU-heavy VMs per server crosses the thrash cliff:
        // FF-3 must be slower end-to-end.
        assert!(ff3.makespan() > ff.makespan());
    }

    /// A ground truth that counts how often each mix is evaluated.
    #[derive(Debug)]
    struct Counting {
        inner: AnalyticModel,
        power: std::cell::RefCell<std::collections::BTreeMap<MixVector, u32>>,
        estimates: std::cell::RefCell<std::collections::BTreeMap<MixVector, u32>>,
    }

    impl Counting {
        fn new(inner: AnalyticModel) -> Self {
            Counting {
                inner,
                power: Default::default(),
                estimates: Default::default(),
            }
        }

        /// Largest evaluation count of any one mix, and how many mixes
        /// were evaluated.
        fn most_and_distinct(&self) -> (u32, usize) {
            let power = self.power.borrow();
            let estimates = self.estimates.borrow();
            let most = power.values().chain(estimates.values()).copied().max();
            (most.unwrap_or(0), power.len())
        }
    }

    impl AllocationModel for Counting {
        fn exec_time(&self, mix: MixVector, ty: WorkloadType) -> Result<Seconds, EavmError> {
            self.inner.exec_time(mix, ty)
        }
        fn power(&self, mix: MixVector) -> Result<Watts, EavmError> {
            *self.power.borrow_mut().entry(mix).or_default() += 1;
            self.inner.power(mix)
        }
        fn run_energy(&self, mix: MixVector) -> Result<Joules, EavmError> {
            self.inner.run_energy(mix)
        }
        fn solo_time(&self, ty: WorkloadType) -> Seconds {
            self.inner.solo_time(ty)
        }
        fn max_mix(&self) -> MixVector {
            self.inner.max_mix()
        }
        fn cpu_slots(&self) -> u32 {
            self.inner.cpu_slots()
        }
        fn estimate_mix(&self, mix: MixVector) -> Result<eavm_core::MixEstimate, EavmError> {
            *self.estimates.borrow_mut().entry(mix).or_default() += 1;
            self.inner.estimate_mix(mix)
        }
    }

    #[test]
    fn ground_truth_is_evaluated_once_per_platform_and_mix() {
        use eavm_faults::{FaultConfig, FaultPlan};
        use eavm_testbed::{BenchmarkSuite, ContentionModel, ServerSpec};
        let big = AnalyticModel::new(
            ServerSpec::big_node(),
            ContentionModel::default(),
            &BenchmarkSuite::standard(),
            MixVector::new(24, 24, 24),
        );
        let reqs: Vec<VmRequest> = (0..30)
            .map(|i| {
                let ty = WorkloadType::from_index(i as usize % 3);
                req(i, (i as f64) * 200.0, ty, 1 + i % 3, 1e9)
            })
            .collect();
        let sim = Simulation::new(Counting::new(model()), cloud(2))
            .with_platform(Counting::new(big), 1)
            .with_migration(MigrationConfig {
                check_interval: Seconds(300.0),
                hysteresis_sweeps: 0,
                ..Default::default()
            })
            .with_faults(FaultPlan::generate(
                &FaultConfig::uniform(3, 1.0),
                3,
                20_000.0,
            ));
        let out = sim.run(&mut FirstFit::with_multiplex(4, 2), &reqs).unwrap();
        assert!(out.vms > 30 && out.host_crashes > 0 && out.migrations > 0);
        for truth in [&sim.model, &sim.extra_platforms[0].0] {
            let (most, distinct) = truth.most_and_distinct();
            assert!(distinct > 1, "the platform hosted no VM");
            assert_eq!(most, 1, "a mix was evaluated more than once");
        }
    }
}
