//! Deterministic overload control for the allocation service.
//!
//! Four cooperating mechanisms, all driven by the service's *logical*
//! clock (no wall time anywhere — the same stream of events always
//! produces the same control decisions):
//!
//! * **AIMD concurrency limiter** — one floating admission limit per
//!   shard. An on-deadline admission raises the involved shards'
//!   limits additively; a late admission or an overload shed cuts
//!   multiplicatively. The limit steers routing (prefer under-limit
//!   shards) and feeds brownout pressure; it never blocks a physically
//!   feasible placement outright.
//! * **CoDel-style queue aging** — a parked request whose sojourn has
//!   exceeded the target for a full interval is shed (`QueueAged`), so
//!   stale work cannot starve fresh work.
//! * **Circuit breaker** — a seeded probe process mirrors the
//!   model-lookup fault stream: enough consecutive failing probes open
//!   the breaker, a logical-clock cooldown moves it to half-open, and a
//!   single probe then closes or re-opens it. An open breaker raises
//!   the brownout rung so a degraded model DB sheds load early.
//! * **Priority brownout ladder** — requests carry a [`Priority`]
//!   class; under pressure rung 1 sheds `Batch`, rung 2 also sheds
//!   `Standard`, and `Interactive` is never brownout-shed.
//!
//! # Determinism contract
//!
//! [`OverloadPlane`] state mutates **only** in the event hooks
//! ([`on_submit`], [`on_clock`], [`on_admitted`], [`on_shed`]), each of
//! which corresponds 1:1 to a journaled WAL record: the coordinator
//! calls a hook immediately after the matching record is appended.
//! Plane state is therefore a pure function of the journaled event
//! stream. Checkpoints persist it through [`OverloadPlane::snapshot`]
//! and [`OverloadPlane::restore`], and crash recovery re-runs the same
//! coordinator code over the WAL tail, so the same hooks fire and the
//! decision helpers ([`queue_aged`], [`rung`], [`under_limit`], pure
//! reads) answer exactly as they did before the crash.
//!
//! [`on_submit`]: OverloadPlane::on_submit
//! [`on_clock`]: OverloadPlane::on_clock
//! [`on_admitted`]: OverloadPlane::on_admitted
//! [`on_shed`]: OverloadPlane::on_shed
//! [`queue_aged`]: OverloadPlane::queue_aged
//! [`rung`]: OverloadPlane::rung
//! [`under_limit`]: OverloadPlane::under_limit

#![forbid(unsafe_code)]

/// SplitMix64 finalizer (inlined so this crate stays dependency-free;
/// bit-identical to `eavm_faults::mix64`, which the breaker's probe
/// stream deliberately mirrors).
#[inline]
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Scheduling class carried on every request. Under overload the
/// brownout ladder sheds `Batch` first, then `Standard`; `Interactive`
/// is only ever refused by physical infeasibility, never by brownout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Throughput-oriented background work; first to go.
    Batch,
    /// The default class.
    Standard,
    /// Latency-sensitive foreground work; shed last.
    Interactive,
}

impl Priority {
    /// Every class, in shedding order (first shed first).
    pub const ALL: [Priority; 3] = [Priority::Batch, Priority::Standard, Priority::Interactive];

    /// Stable wire index (0 = Batch, 1 = Standard, 2 = Interactive).
    pub fn index(self) -> usize {
        match self {
            Priority::Batch => 0,
            Priority::Standard => 1,
            Priority::Interactive => 2,
        }
    }

    /// Inverse of [`Priority::index`], modulo the class count.
    pub fn from_index(index: usize) -> Priority {
        Priority::ALL[index % Priority::ALL.len()]
    }

    /// Stable lowercase name for logs and CSV columns.
    pub fn name(self) -> &'static str {
        match self {
            Priority::Batch => "batch",
            Priority::Standard => "standard",
            Priority::Interactive => "interactive",
        }
    }
}

/// Circuit-breaker state around model-database lookups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Lookups flow normally; consecutive failing probes are counted.
    Closed,
    /// Tripped: the brownout rung is raised until the cooldown elapses.
    Open,
    /// Cooldown elapsed: the next probe closes or re-opens the breaker.
    HalfOpen,
}

impl BreakerState {
    /// Stable wire index (0 = Closed, 1 = Open, 2 = HalfOpen).
    pub fn index(self) -> usize {
        match self {
            BreakerState::Closed => 0,
            BreakerState::Open => 1,
            BreakerState::HalfOpen => 2,
        }
    }

    /// Inverse of [`BreakerState::index`]; unknown indices are Closed.
    pub fn from_index(index: usize) -> BreakerState {
        match index {
            1 => BreakerState::Open,
            2 => BreakerState::HalfOpen,
            _ => BreakerState::Closed,
        }
    }

    /// Stable lowercase name for logs.
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

/// Knobs for the overload-control plane. A zero `initial_limit` or
/// `max_limit` means "derive from fleet shape" (see
/// [`OverloadConfig::resolve`]); everything else is taken literally.
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadConfig {
    /// Starting per-shard admission limit (resident VMs). `0.0` ⇒
    /// 4 × servers-per-shard at resolve time.
    pub initial_limit: f64,
    /// Floor the multiplicative cut can never go below.
    pub min_limit: f64,
    /// Ceiling the additive raise can never exceed. `0.0` ⇒
    /// 16 × servers-per-shard at resolve time.
    pub max_limit: f64,
    /// Additive raise per on-deadline admission (VM slots).
    pub additive_step: f64,
    /// Multiplicative factor applied on a late admission or an
    /// overload shed, in `(0, 1)`.
    pub multiplicative_cut: f64,
    /// CoDel target sojourn for parked requests, virtual seconds.
    pub queue_target: f64,
    /// CoDel interval: a parked request is shed once its sojourn has
    /// exceeded the target for this long, virtual seconds.
    pub queue_interval: f64,
    /// Consecutive failing probes that open the breaker.
    pub breaker_threshold: u32,
    /// Virtual seconds the breaker stays open before half-open.
    pub breaker_cooldown: f64,
    /// Seed of the breaker's probe stream (mirrors the lookup-fault
    /// stream when the service derives it from an armed fault plan).
    pub breaker_seed: u64,
    /// Per-probe failure probability in `[0, 1]`; `0.0` disables the
    /// breaker entirely.
    pub breaker_rate: f64,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            initial_limit: 0.0,
            min_limit: 1.0,
            max_limit: 0.0,
            additive_step: 1.0,
            multiplicative_cut: 0.5,
            queue_target: 60.0,
            queue_interval: 120.0,
            breaker_threshold: 8,
            breaker_cooldown: 600.0,
            breaker_seed: 0,
            breaker_rate: 0.0,
        }
    }
}

impl OverloadConfig {
    /// Fill the `0.0 ⇒ auto` fields from the fleet shape.
    pub fn resolve(mut self, servers_per_shard: usize) -> Self {
        let span = servers_per_shard.max(1) as f64;
        if self.initial_limit <= 0.0 {
            self.initial_limit = span * 4.0;
        }
        if self.max_limit <= 0.0 {
            self.max_limit = span * 16.0;
        }
        self
    }

    /// Arm the breaker's probe stream.
    pub fn with_breaker_stream(mut self, seed: u64, rate: f64) -> Self {
        self.breaker_seed = seed;
        self.breaker_rate = rate;
        self
    }

    /// Validate invariants (call after [`OverloadConfig::resolve`]).
    pub fn validate(&self) -> Result<(), String> {
        if self.min_limit.is_nan() || self.min_limit < 1.0 {
            return Err("overload min_limit must be at least 1".into());
        }
        if !(self.initial_limit >= self.min_limit && self.max_limit >= self.initial_limit) {
            return Err("overload limits must satisfy min <= initial <= max".into());
        }
        if self.additive_step.is_nan() || self.additive_step <= 0.0 {
            return Err("overload additive_step must be positive".into());
        }
        if !(self.multiplicative_cut > 0.0 && self.multiplicative_cut < 1.0) {
            return Err("overload multiplicative_cut must lie in (0, 1)".into());
        }
        if !(self.queue_target > 0.0 && self.queue_interval > 0.0) {
            return Err("overload queue target and interval must be positive".into());
        }
        if self.breaker_threshold == 0 {
            return Err("overload breaker_threshold must be at least 1".into());
        }
        if self.breaker_cooldown.is_nan() || self.breaker_cooldown <= 0.0 {
            return Err("overload breaker_cooldown must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.breaker_rate) {
            return Err("overload breaker_rate must lie in [0, 1]".into());
        }
        Ok(())
    }
}

/// A point-in-time copy of the plane's controller state, surfaced in
/// service stats and compared byte-for-byte by the recovery tests.
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadSnapshot {
    /// Per-shard AIMD admission limits.
    pub limits: Vec<f64>,
    /// Breaker state.
    pub breaker: BreakerState,
    /// Consecutive failing probes while closed.
    pub breaker_streak: u32,
    /// Probes drawn from the breaker's seeded stream so far.
    pub probes: u64,
    /// The plane's logical clock (max over submit/clock events seen).
    pub now: f64,
    /// Instant the breaker last opened (its cooldown runs from here).
    pub opened_at: f64,
}

/// The overload-control plane. See the crate docs for the determinism
/// contract: state changes only inside the four event hooks, each tied
/// to one journaled WAL record kind.
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadPlane {
    cfg: OverloadConfig,
    /// `breaker_rate` mapped onto the u64 range, the same mapping the
    /// lookup-fault predicate uses (1.0 saturates).
    probe_threshold: u64,
    limits: Vec<f64>,
    breaker: BreakerState,
    streak: u32,
    opened_at: f64,
    probes: u64,
    now: f64,
}

impl OverloadPlane {
    /// A fresh plane for `shards` shards. `cfg` must already be
    /// resolved; limits start at `cfg.initial_limit`.
    pub fn new(cfg: OverloadConfig, shards: usize) -> Self {
        let rate = cfg.breaker_rate.clamp(0.0, 1.0);
        let probe_threshold = if rate >= 1.0 {
            u64::MAX
        } else {
            (rate * u64::MAX as f64) as u64
        };
        OverloadPlane {
            limits: vec![cfg.initial_limit; shards],
            probe_threshold,
            cfg,
            breaker: BreakerState::Closed,
            streak: 0,
            opened_at: 0.0,
            probes: 0,
            now: 0.0,
        }
    }

    /// The configuration the plane runs under.
    pub fn config(&self) -> &OverloadConfig {
        &self.cfg
    }

    // -- event hooks (1:1 with journaled WAL records) ------------------

    /// A `Submit` record became durable: advance the logical clock,
    /// settle the breaker cooldown, and draw one breaker probe.
    pub fn on_submit(&mut self, submit: f64) {
        self.now = self.now.max(submit);
        self.settle_breaker();
        self.probe();
    }

    /// A `Clock` record became durable: advance the logical clock and
    /// settle the breaker cooldown.
    pub fn on_clock(&mut self, t: f64) {
        self.now = self.now.max(t);
        self.settle_breaker();
    }

    /// An `Admitted`/`AdmittedCrossShard` record became durable for a
    /// request submitted at `submit` with deadline `deadline`: raise
    /// the involved shards' limits if the admission sojourn met the
    /// deadline, cut them otherwise.
    pub fn on_admitted(&mut self, shards: &[usize], submit: f64, deadline: f64) {
        let on_time = self.now - submit <= deadline;
        for &shard in shards {
            if shard >= self.limits.len() {
                continue;
            }
            if on_time {
                self.limits[shard] =
                    (self.limits[shard] + self.cfg.additive_step).min(self.cfg.max_limit);
            } else {
                self.limits[shard] =
                    (self.limits[shard] * self.cfg.multiplicative_cut).max(self.cfg.min_limit);
            }
        }
    }

    /// A `Shed` record became durable. `cuts` is true for overload
    /// sheds (wait-queue-full, queue-aged): those cut every shard's
    /// limit. Policy sheds (brownout) must NOT cut — cutting on the
    /// ladder's own decisions is a positive-feedback death spiral.
    pub fn on_shed(&mut self, cuts: bool) {
        if !cuts {
            return;
        }
        for limit in &mut self.limits {
            *limit = (*limit * self.cfg.multiplicative_cut).max(self.cfg.min_limit);
        }
    }

    /// Open → HalfOpen once the cooldown has elapsed. Called lazily
    /// from the clock-bearing hooks.
    fn settle_breaker(&mut self) {
        if self.breaker == BreakerState::Open
            && self.now >= self.opened_at + self.cfg.breaker_cooldown
        {
            self.breaker = BreakerState::HalfOpen;
        }
    }

    /// Draw one probe from the seeded stream (skipped while open: the
    /// circuit is bypassing lookups, so there is nothing to observe).
    fn probe(&mut self) {
        if self.probe_threshold == 0 || self.breaker == BreakerState::Open {
            return;
        }
        let k = self.probes;
        self.probes += 1;
        let failed = mix64(self.cfg.breaker_seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            < self.probe_threshold;
        match self.breaker {
            BreakerState::Closed => {
                if failed {
                    self.streak += 1;
                    if self.streak >= self.cfg.breaker_threshold {
                        self.breaker = BreakerState::Open;
                        self.opened_at = self.now;
                    }
                } else {
                    self.streak = 0;
                }
            }
            BreakerState::HalfOpen => {
                if failed {
                    self.breaker = BreakerState::Open;
                    self.opened_at = self.now;
                } else {
                    self.breaker = BreakerState::Closed;
                    self.streak = 0;
                }
            }
            BreakerState::Open => {}
        }
    }

    // -- decision helpers (pure reads; live admission path only) -------

    /// The plane's logical clock.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Current AIMD limit for `shard` (infinite for unknown shards, so
    /// they never look preferable by accident).
    pub fn limit(&self, shard: usize) -> f64 {
        self.limits.get(shard).copied().unwrap_or(f64::INFINITY)
    }

    /// Whether `shard` is under its AIMD limit at `resident` VMs.
    pub fn under_limit(&self, shard: usize, resident: usize) -> bool {
        (resident as f64) < self.limit(shard)
    }

    /// Current breaker state.
    pub fn breaker(&self) -> BreakerState {
        self.breaker
    }

    /// Whether a request parked at `parked_at` has aged out: its
    /// sojourn exceeded the target for a full interval.
    pub fn queue_aged(&self, parked_at: f64) -> bool {
        self.now >= parked_at + self.cfg.queue_target + self.cfg.queue_interval
    }

    /// The brownout rung given per-shard resident counts and the wait
    /// queue's fill. Rung 0: admit everything. Rung 1 (every shard at
    /// or over its limit, or breaker open): shed Batch. Rung 2 (limit
    /// pressure plus a half-full queue, or both signals): also shed
    /// Standard. Interactive is never brownout-shed at any rung.
    pub fn rung(&self, residents: &[usize], parked: usize, queue_capacity: usize) -> u8 {
        let pressured = !residents.is_empty()
            && residents
                .iter()
                .enumerate()
                .all(|(shard, &resident)| resident as f64 >= self.limit(shard));
        let mut rung = 0u8;
        if pressured {
            rung += 1;
            if parked.saturating_mul(2) >= queue_capacity.max(1) {
                rung += 1;
            }
        }
        if self.breaker == BreakerState::Open {
            rung += 1;
        }
        rung.min(2)
    }

    /// Whether the ladder sheds `priority` at `rung`.
    pub fn sheds_class(rung: u8, priority: Priority) -> bool {
        match priority {
            Priority::Batch => rung >= 1,
            Priority::Standard => rung >= 2,
            Priority::Interactive => false,
        }
    }

    /// A copy of the controller state: surfaced in stats, compared by
    /// the parity tests, and persisted by checkpoints.
    pub fn snapshot(&self) -> OverloadSnapshot {
        OverloadSnapshot {
            limits: self.limits.clone(),
            breaker: self.breaker,
            breaker_streak: self.streak,
            probes: self.probes,
            now: self.now,
            opened_at: self.opened_at,
        }
    }

    /// Load controller state saved by [`OverloadPlane::snapshot`]. Limits
    /// for shards this plane does not have are dropped, missing ones
    /// keep their current value (fleet shape is config-owned).
    pub fn restore(&mut self, state: &OverloadSnapshot) {
        for (limit, saved) in self.limits.iter_mut().zip(&state.limits) {
            *limit = *saved;
        }
        self.breaker = state.breaker;
        self.streak = state.breaker_streak;
        self.probes = state.probes;
        self.now = state.now;
        self.opened_at = state.opened_at;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resolved() -> OverloadConfig {
        OverloadConfig::default().resolve(4)
    }

    #[test]
    fn priority_indices_round_trip() {
        for p in Priority::ALL {
            assert_eq!(Priority::from_index(p.index()), p);
            assert!(!p.name().is_empty());
        }
        assert_eq!(Priority::from_index(7), Priority::Standard);
    }

    #[test]
    fn breaker_state_indices_round_trip() {
        for s in [
            BreakerState::Closed,
            BreakerState::Open,
            BreakerState::HalfOpen,
        ] {
            assert_eq!(BreakerState::from_index(s.index()), s);
        }
        assert_eq!(BreakerState::from_index(9), BreakerState::Closed);
    }

    #[test]
    fn config_resolution_and_validation() {
        let cfg = resolved();
        assert_eq!(cfg.initial_limit, 16.0);
        assert_eq!(cfg.max_limit, 64.0);
        assert!(cfg.validate().is_ok());

        let mut bad = resolved();
        bad.multiplicative_cut = 1.5;
        assert!(bad.validate().is_err());
        let mut bad = resolved();
        bad.min_limit = 0.0;
        assert!(bad.validate().is_err());
        let mut bad = resolved();
        bad.queue_target = 0.0;
        assert!(bad.validate().is_err());
        let mut bad = resolved();
        bad.breaker_threshold = 0;
        assert!(bad.validate().is_err());
        let mut bad = resolved();
        bad.breaker_rate = 2.0;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn aimd_raises_additively_and_cuts_multiplicatively() {
        let mut plane = OverloadPlane::new(resolved(), 2);
        plane.on_submit(100.0);
        // On-deadline admission on shard 0: +1.
        plane.on_admitted(&[0], 100.0, 1e6);
        assert_eq!(plane.limit(0), 17.0);
        assert_eq!(plane.limit(1), 16.0);
        // Late admission cuts shard 1 by half.
        plane.on_admitted(&[1], 0.0, 1.0);
        assert_eq!(plane.limit(1), 8.0);
        // Overload shed cuts everything; brownout shed cuts nothing.
        plane.on_shed(true);
        assert_eq!(plane.limit(0), 8.5);
        assert_eq!(plane.limit(1), 4.0);
        plane.on_shed(false);
        assert_eq!(plane.limit(0), 8.5);
    }

    #[test]
    fn aimd_limits_are_clamped() {
        let mut plane = OverloadPlane::new(resolved(), 1);
        plane.on_submit(0.0);
        for _ in 0..1000 {
            plane.on_admitted(&[0], 0.0, 1e9);
        }
        assert_eq!(plane.limit(0), 64.0);
        for _ in 0..1000 {
            plane.on_shed(true);
        }
        assert_eq!(plane.limit(0), 1.0);
        // Unknown shards are never preferable and never panic.
        assert_eq!(plane.limit(9), f64::INFINITY);
        plane.on_admitted(&[9], 0.0, 1e9);
    }

    #[test]
    fn breaker_opens_cools_down_and_recloses() {
        let mut cfg = resolved().with_breaker_stream(7, 1.0);
        cfg.breaker_threshold = 3;
        cfg.breaker_cooldown = 100.0;
        let mut plane = OverloadPlane::new(cfg, 1);
        // Every probe fails at rate 1.0: three submits open the breaker.
        plane.on_submit(10.0);
        plane.on_submit(11.0);
        assert_eq!(plane.breaker(), BreakerState::Closed);
        plane.on_submit(12.0);
        assert_eq!(plane.breaker(), BreakerState::Open);
        let probes_when_open = plane.snapshot().probes;
        // While open no probes are drawn.
        plane.on_submit(50.0);
        assert_eq!(plane.snapshot().probes, probes_when_open);
        assert_eq!(plane.breaker(), BreakerState::Open);
        // Cooldown elapses on a clock advance; the next submit probes
        // half-open and (still failing) re-opens at the new instant.
        plane.on_clock(112.0);
        assert_eq!(plane.breaker(), BreakerState::HalfOpen);
        plane.on_submit(113.0);
        assert_eq!(plane.breaker(), BreakerState::Open);

        // A never-failing stream closes from half-open.
        let mut cfg = resolved().with_breaker_stream(7, 1.0);
        cfg.breaker_threshold = 1;
        cfg.breaker_cooldown = 10.0;
        let mut plane = OverloadPlane::new(cfg, 1);
        plane.on_submit(0.0);
        assert_eq!(plane.breaker(), BreakerState::Open);
        plane.on_clock(20.0);
        plane.probe_threshold = 0; // disable stream: probes cannot fail
        plane.on_submit(21.0);
        // Disabled stream draws no probe at all; still half-open.
        assert_eq!(plane.breaker(), BreakerState::HalfOpen);
        plane.probe_threshold = 1; // nearly-never-failing stream
        plane.on_submit(22.0);
        assert_eq!(plane.breaker(), BreakerState::Closed);
    }

    #[test]
    fn disabled_breaker_never_trips() {
        let mut plane = OverloadPlane::new(resolved(), 2);
        for i in 0..10_000 {
            plane.on_submit(i as f64);
        }
        assert_eq!(plane.breaker(), BreakerState::Closed);
        assert_eq!(plane.snapshot().probes, 0);
    }

    #[test]
    fn queue_aging_requires_target_plus_interval() {
        let mut plane = OverloadPlane::new(resolved(), 1);
        plane.on_clock(100.0);
        // target 60 + interval 120 = 180 virtual seconds of sojourn.
        assert!(!plane.queue_aged(100.0));
        plane.on_clock(279.0);
        assert!(!plane.queue_aged(100.0));
        plane.on_clock(280.0);
        assert!(plane.queue_aged(100.0));
    }

    #[test]
    fn brownout_ladder_sheds_in_priority_order() {
        let mut plane = OverloadPlane::new(resolved(), 2);
        // Under limit: rung 0, nothing shed.
        assert_eq!(plane.rung(&[3, 3], 0, 8), 0);
        for p in Priority::ALL {
            assert!(!OverloadPlane::sheds_class(0, p));
        }
        // Every shard at its limit: rung 1, Batch shed.
        assert_eq!(plane.rung(&[16, 16], 0, 8), 1);
        assert!(OverloadPlane::sheds_class(1, Priority::Batch));
        assert!(!OverloadPlane::sheds_class(1, Priority::Standard));
        // One shard under limit is enough to stay at rung 0.
        assert_eq!(plane.rung(&[16, 3], 7, 8), 0);
        // Limit pressure plus a half-full queue: rung 2.
        assert_eq!(plane.rung(&[16, 16], 4, 8), 2);
        assert!(OverloadPlane::sheds_class(2, Priority::Standard));
        assert!(!OverloadPlane::sheds_class(2, Priority::Interactive));
        // An open breaker raises the rung on its own.
        plane.breaker = BreakerState::Open;
        assert_eq!(plane.rung(&[3, 3], 0, 8), 1);
        assert_eq!(plane.rung(&[16, 16], 4, 8), 2);
    }

    #[test]
    fn save_load_round_trips_bit_exact() {
        let mut cfg = resolved().with_breaker_stream(99, 0.9);
        cfg.breaker_threshold = 2;
        let mut plane = OverloadPlane::new(cfg.clone(), 3);
        for i in 0..40 {
            plane.on_submit(i as f64 * 3.5);
            plane.on_admitted(&[i % 3], i as f64 * 3.5, if i % 4 == 0 { 0.0 } else { 1e9 });
            if i % 7 == 0 {
                plane.on_shed(true);
            }
        }
        let mut restored = OverloadPlane::new(cfg, 3);
        restored.restore(&plane.snapshot());
        assert_eq!(restored.snapshot(), plane.snapshot());
        assert_eq!(restored, plane);
    }

    #[test]
    fn identical_event_streams_yield_identical_state() {
        let drive = || {
            let mut plane = OverloadPlane::new(resolved().with_breaker_stream(3, 0.4), 2);
            for i in 0..200u64 {
                plane.on_submit(i as f64);
                match i % 5 {
                    0 => plane.on_admitted(&[0], i as f64, 50.0),
                    1 => plane.on_admitted(&[0, 1], i as f64 - 100.0, 10.0),
                    2 => plane.on_shed(true),
                    3 => plane.on_shed(false),
                    _ => plane.on_clock(i as f64 + 0.5),
                }
            }
            plane
        };
        assert_eq!(drive(), drive());
    }
}
