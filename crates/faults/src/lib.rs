//! Seeded, deterministic fault plans for chaos-testing the allocator.
//!
//! Everything in this crate is a pure function of a `u64` seed: no wall
//! clock, no OS entropy, no dependencies. The same seed and parameters
//! always produce byte-identical fault schedules, which is what makes
//! "deterministic chaos" possible — a faulted simulation or replay can
//! be reproduced exactly, with telemetry on or off.
//!
//! Three fault families are modelled:
//!
//! * **Host crashes** ([`FaultKind::HostCrash`]) — a host dies at a
//!   scheduled instant, killing every resident VM, and stays down for a
//!   bounded interval before rejoining the fleet.
//! * **Transient degradation** ([`FaultKind::HostDegraded`]) — a host's
//!   effective capacity shrinks for a bounded window: resident VMs make
//!   progress at a reduced rate and the host is cordoned from new
//!   placements until the window closes.
//! * **Model-lookup failures** ([`LookupFaults`]) — individual
//!   allocation-model lookups transiently fail, exercising the
//!   analytic-fallback path of the proactive strategy.
//!
//! Event times are drawn from per-host exponential inter-arrival
//! streams (a memoryless failure process, the standard reliability
//! model), each host seeded independently so adding hosts never
//! perturbs the schedule of existing ones.

#![forbid(unsafe_code)]

/// SplitMix64 finalizer: a high-quality 64-bit mixing function.
///
/// Used both as the PRNG state transition and as a stateless hash for
/// per-lookup fault decisions.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Minimal SplitMix64 PRNG — deterministic, allocation-free, no wall
/// clock anywhere near it.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator whose stream is fully determined by `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Exponentially distributed draw with the given mean (seconds).
    ///
    /// Returns `f64::INFINITY` for a non-positive mean, so a zero rate
    /// cleanly produces "never".
    pub fn next_exp(&mut self, mean: f64) -> f64 {
        if mean <= 0.0 {
            return f64::INFINITY;
        }
        // 1 - u is in (0, 1], so ln() is finite and non-positive.
        -mean * (1.0 - self.next_f64()).ln()
    }
}

/// What happens to a host when a fault event fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The host dies: resident VMs are killed and the host is removed
    /// from the placeable fleet for `down_for` seconds.
    HostCrash {
        /// Seconds until the host rejoins the fleet.
        down_for: f64,
    },
    /// The host degrades: resident VMs progress at `factor` of their
    /// normal rate and no new VMs are placed for `duration` seconds.
    HostDegraded {
        /// Seconds until the host recovers full capacity.
        duration: f64,
        /// Progress-rate multiplier while degraded, in `(0, 1]`.
        factor: f64,
    },
}

/// One scheduled fault: a host and the virtual instant it fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Virtual time (seconds) at which the fault fires.
    pub at: f64,
    /// Index of the affected host within the fleet.
    pub host: usize,
    /// What happens to the host.
    pub kind: FaultKind,
}

/// Parameters from which a [`FaultPlan`] is generated.
///
/// Rates are expected events *per host-hour*; durations are seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Seed for every stream derived by the plan.
    pub seed: u64,
    /// Expected host crashes per host-hour.
    pub crash_rate: f64,
    /// Expected degradation windows per host-hour.
    pub degrade_rate: f64,
    /// Mean downtime after a crash, seconds.
    pub mean_downtime: f64,
    /// Mean length of a degradation window, seconds.
    pub mean_degradation: f64,
    /// Progress-rate multiplier applied while a host is degraded.
    pub degrade_factor: f64,
    /// Probability that any individual model lookup transiently fails.
    pub lookup_failure_rate: f64,
}

impl FaultConfig {
    /// A quiet configuration: no faults of any kind.
    pub fn quiet(seed: u64) -> Self {
        FaultConfig {
            seed,
            crash_rate: 0.0,
            degrade_rate: 0.0,
            mean_downtime: 1800.0,
            mean_degradation: 900.0,
            degrade_factor: 0.5,
            lookup_failure_rate: 0.0,
        }
    }

    /// The single-knob configuration the CLI exposes: `rate` expected
    /// crashes *and* degradations per host-hour, half-hour mean
    /// downtime, and a small per-lookup failure probability scaled off
    /// the same knob (capped so lookups still mostly succeed).
    pub fn uniform(seed: u64, rate: f64) -> Self {
        FaultConfig {
            crash_rate: rate,
            degrade_rate: rate,
            lookup_failure_rate: (rate * 0.01).min(0.25),
            ..FaultConfig::quiet(seed)
        }
    }
}

/// Stateless deterministic predicate for transient model-lookup
/// failures: lookup number `k` fails iff a hash of `(seed, k)` falls
/// below a rate-derived threshold. Cloneable and shareable — every
/// clone answers identically for the same `k`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LookupFaults {
    seed: u64,
    threshold: u64,
}

impl LookupFaults {
    /// Faults with the given per-lookup failure probability in `[0, 1]`.
    pub fn new(seed: u64, rate: f64) -> Self {
        let clamped = rate.clamp(0.0, 1.0);
        // Map the probability onto the u64 range; 1.0 saturates.
        let threshold = if clamped >= 1.0 {
            u64::MAX
        } else {
            (clamped * u64::MAX as f64) as u64
        };
        LookupFaults { seed, threshold }
    }

    /// The predicate a fault plan seeded with `seed` arms: the seed is
    /// first mixed into its own stream, so lookup failures stay
    /// independent of the host schedules drawn from the same seed. Every
    /// surface that turns a chaos seed into lookup faults calls this, so
    /// simulator, scenario and service runs fail the same lookups.
    pub fn seeded(seed: u64, rate: f64) -> Self {
        LookupFaults::new(mix64(seed ^ LOOKUP_STREAM), rate)
    }

    /// A predicate that never fails — zero branch cost on the hot path.
    pub fn disabled() -> Self {
        LookupFaults {
            seed: 0,
            threshold: 0,
        }
    }

    /// Whether any lookup can ever fail under this predicate.
    pub fn is_enabled(&self) -> bool {
        self.threshold > 0
    }

    /// The seed the predicate hashes with — exposed so companion
    /// subsystems (the service's model circuit breaker) can derive a
    /// probe stream that agrees bit-for-bit with this fault stream.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The per-lookup failure probability this predicate was built
    /// with, recovered from the stored threshold (1.0 when saturated).
    pub fn failure_rate(&self) -> f64 {
        if self.threshold == u64::MAX {
            1.0
        } else {
            self.threshold as f64 / u64::MAX as f64
        }
    }

    /// Whether lookup number `k` fails. Pure: same `k`, same answer.
    pub fn fails(&self, k: u64) -> bool {
        self.threshold > 0
            && mix64(self.seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15)) < self.threshold
    }
}

impl Default for LookupFaults {
    fn default() -> Self {
        LookupFaults::disabled()
    }
}

// Stream-domain separators so crash and degradation schedules for the
// same host are independent.
const CRASH_STREAM: u64 = 0xC4A5_4001;
const DEGRADE_STREAM: u64 = 0xDE64_4ADE;
const DURATION_STREAM: u64 = 0xD0_4A71;
const LOOKUP_STREAM: u64 = 0x100C;

/// A fully materialized fault schedule for one fleet and horizon, plus
/// the lookup-failure predicate derived from the same seed.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
    lookup: LookupFaults,
}

impl FaultPlan {
    /// A plan with no events and lookups that never fail.
    pub fn empty() -> Self {
        FaultPlan {
            events: Vec::new(),
            lookup: LookupFaults::disabled(),
        }
    }

    /// A plan from an explicit event list (sorted into canonical
    /// `(time, host)` order) plus a lookup-failure predicate. Useful for
    /// targeted chaos tests that need one specific fault at one specific
    /// instant rather than a sampled schedule.
    pub fn from_events(mut events: Vec<FaultEvent>, lookup: LookupFaults) -> Self {
        events.sort_by(|a, b| a.at.total_cmp(&b.at).then(a.host.cmp(&b.host)));
        FaultPlan { events, lookup }
    }

    /// Generate the schedule for `hosts` hosts over `horizon` virtual
    /// seconds. Deterministic in `(cfg, hosts, horizon)`; each host's
    /// stream is seeded independently, so growing the fleet never
    /// reshuffles existing hosts' faults.
    pub fn generate(cfg: &FaultConfig, hosts: usize, horizon: f64) -> Self {
        let mut events = Vec::new();
        for host in 0..hosts {
            let host_seed = mix64(cfg.seed ^ (host as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            Self::host_stream(
                SplitMix64::new(host_seed ^ CRASH_STREAM),
                SplitMix64::new(host_seed ^ CRASH_STREAM ^ DURATION_STREAM),
                cfg.crash_rate,
                horizon,
                &mut events,
                |durations| FaultKind::HostCrash {
                    down_for: durations.next_exp(cfg.mean_downtime).min(horizon).max(1.0),
                },
                host,
            );
            Self::host_stream(
                SplitMix64::new(host_seed ^ DEGRADE_STREAM),
                SplitMix64::new(host_seed ^ DEGRADE_STREAM ^ DURATION_STREAM),
                cfg.degrade_rate,
                horizon,
                &mut events,
                |durations| FaultKind::HostDegraded {
                    duration: durations
                        .next_exp(cfg.mean_degradation)
                        .min(horizon)
                        .max(1.0),
                    factor: cfg.degrade_factor.clamp(0.05, 1.0),
                },
                host,
            );
        }
        // f64 times here are finite by construction; total_cmp gives a
        // total order, and (time, host) makes the sort fully stable.
        events.sort_by(|a, b| a.at.total_cmp(&b.at).then(a.host.cmp(&b.host)));
        FaultPlan {
            events,
            lookup: LookupFaults::seeded(cfg.seed, cfg.lookup_failure_rate),
        }
    }

    fn host_stream(
        mut arrivals: SplitMix64,
        mut durations: SplitMix64,
        rate_per_hour: f64,
        horizon: f64,
        events: &mut Vec<FaultEvent>,
        mut kind: impl FnMut(&mut SplitMix64) -> FaultKind,
        host: usize,
    ) {
        if rate_per_hour <= 0.0 || horizon <= 0.0 {
            return;
        }
        let mean_gap = 3600.0 / rate_per_hour;
        let mut t = arrivals.next_exp(mean_gap);
        while t < horizon {
            events.push(FaultEvent {
                at: t,
                host,
                kind: kind(&mut durations),
            });
            t += arrivals.next_exp(mean_gap);
        }
    }

    /// The scheduled events, sorted by firing time then host.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The lookup-failure predicate derived from the plan's seed.
    pub fn lookup_faults(&self) -> LookupFaults {
        self.lookup
    }

    /// Whether the plan schedules nothing and lookups never fail.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && !self.lookup.is_enabled()
    }

    /// Number of scheduled host crashes.
    pub fn crash_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::HostCrash { .. }))
            .count()
    }

    /// Number of scheduled degradation windows.
    pub fn degrade_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::HostDegraded { .. }))
            .count()
    }
}

/// Kill schedule for service shard workers: worker `i` dies (by
/// panicking) immediately before processing its `kill_after[i]`-th
/// mailbox message; `None` means the worker is immortal.
///
/// The kill *point* is deterministic per worker; which request happens
/// to be in flight when it fires depends on runtime interleaving, which
/// is exactly the regime the supervision protocol must survive.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerFaultPlan {
    kill_after: Vec<Option<u64>>,
}

impl WorkerFaultPlan {
    /// No worker ever dies.
    pub fn none(shards: usize) -> Self {
        WorkerFaultPlan {
            kill_after: vec![None; shards],
        }
    }

    /// Kill exactly one shard's worker before its `after`-th message.
    pub fn kill_shard(shards: usize, shard: usize, after: u64) -> Self {
        let mut plan = WorkerFaultPlan::none(shards);
        if shard < shards {
            plan.kill_after[shard] = Some(after.max(1));
        }
        plan
    }

    /// Seeded plan: each worker dies with probability `kill_probability`
    /// at an exponentially distributed message count of mean
    /// `mean_after`.
    pub fn generate(seed: u64, shards: usize, kill_probability: f64, mean_after: f64) -> Self {
        let mut kill_after = Vec::with_capacity(shards);
        for shard in 0..shards {
            let mut rng = SplitMix64::new(mix64(
                seed ^ (shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x3011,
            ));
            kill_after.push(if rng.next_f64() < kill_probability.clamp(0.0, 1.0) {
                Some(1 + rng.next_exp(mean_after.max(1.0)) as u64)
            } else {
                None
            });
        }
        WorkerFaultPlan { kill_after }
    }

    /// The message count before which worker `shard` dies, if any.
    pub fn kill_after(&self, shard: usize) -> Option<u64> {
        self.kill_after.get(shard).copied().flatten()
    }

    /// Whether any worker is scheduled to die.
    pub fn is_armed(&self) -> bool {
        self.kill_after.iter().any(|k| k.is_some())
    }
}

/// A scheduled *process* crash: the whole service aborts after the
/// journal has made its `after_events`-th admission event durable.
///
/// Unlike [`WorkerFaultPlan`], which kills one shard thread and lets the
/// supervisor respawn it, a process crash takes everything down — the
/// only survivor is the write-ahead journal, which is exactly what
/// `Service::recover` is tested against. The counter-based trigger makes
/// the crash point deterministic, so a chaos harness can crash a run at
/// a known WAL offset and compare the recovered verdict stream against
/// an uncrashed control byte for byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashSchedule {
    after_events: u64,
}

impl CrashSchedule {
    /// Crash once `n` journal events have been appended (clamped to at
    /// least 1 — "crash before doing anything" would journal nothing
    /// and prove nothing).
    pub fn after_events(n: u64) -> Self {
        CrashSchedule {
            after_events: n.max(1),
        }
    }

    /// Whether the process should crash now, given that `appended`
    /// events have been made durable.
    pub fn should_crash(&self, appended: u64) -> bool {
        appended >= self.after_events
    }

    /// The configured trigger count.
    pub fn trigger(&self) -> u64 {
        self.after_events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan() {
        let cfg = FaultConfig::uniform(42, 2.0);
        let a = FaultPlan::generate(&cfg, 16, 36_000.0);
        let b = FaultPlan::generate(&cfg, 16, 36_000.0);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::generate(&FaultConfig::uniform(1, 2.0), 16, 36_000.0);
        let b = FaultPlan::generate(&FaultConfig::uniform(2, 2.0), 16, 36_000.0);
        assert_ne!(a.events(), b.events());
    }

    #[test]
    fn events_stay_inside_the_horizon_and_are_sorted() {
        let plan = FaultPlan::generate(&FaultConfig::uniform(7, 4.0), 8, 7200.0);
        let events = plan.events();
        assert!(events.iter().all(|e| e.at > 0.0 && e.at < 7200.0));
        assert!(events.iter().all(|e| e.host < 8));
        assert!(events.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(plan.crash_count() + plan.degrade_count() == events.len());
    }

    #[test]
    fn event_count_tracks_the_rate() {
        // rate * hosts * hours = expected events; a 10x rate bump must
        // produce strictly more events on the same seed.
        let quiet = FaultPlan::generate(&FaultConfig::uniform(9, 0.5), 16, 36_000.0);
        let noisy = FaultPlan::generate(&FaultConfig::uniform(9, 5.0), 16, 36_000.0);
        assert!(noisy.events().len() > quiet.events().len());
        let expected = 5.0 * 16.0 * 10.0 * 2.0; // crash + degrade streams
        let got = noisy.events().len() as f64;
        assert!(
            got > expected * 0.5 && got < expected * 1.5,
            "expected ~{expected} events, got {got}"
        );
    }

    #[test]
    fn zero_rate_schedules_nothing() {
        let plan = FaultPlan::generate(&FaultConfig::quiet(3), 64, 1e6);
        assert!(plan.is_empty());
        assert!(!plan.lookup_faults().is_enabled());
    }

    #[test]
    fn growing_the_fleet_preserves_existing_host_schedules() {
        let cfg = FaultConfig::uniform(11, 3.0);
        let small = FaultPlan::generate(&cfg, 4, 10_000.0);
        let large = FaultPlan::generate(&cfg, 8, 10_000.0);
        let small_of_large: Vec<_> = large
            .events()
            .iter()
            .copied()
            .filter(|e| e.host < 4)
            .collect();
        assert_eq!(small.events(), small_of_large.as_slice());
    }

    #[test]
    fn lookup_faults_are_pure_and_rate_bounded() {
        let faults = LookupFaults::new(5, 0.1);
        let hits = (0..100_000u64).filter(|&k| faults.fails(k)).count();
        // 10% +- generous slack; the predicate is a hash, not a stream.
        assert!((5_000..15_000).contains(&hits), "hits = {hits}");
        for k in 0..1000 {
            assert_eq!(faults.fails(k), faults.fails(k), "purity at k={k}");
        }
        assert!(!LookupFaults::disabled().is_enabled());
        assert!((0..100_000u64).all(|k| !LookupFaults::disabled().fails(k)));
    }

    #[test]
    fn worker_plan_is_deterministic_and_targetable() {
        let a = WorkerFaultPlan::generate(21, 8, 0.5, 50.0);
        let b = WorkerFaultPlan::generate(21, 8, 0.5, 50.0);
        assert_eq!(a, b);
        assert!(WorkerFaultPlan::generate(21, 8, 1.0, 50.0).is_armed());
        assert!(!WorkerFaultPlan::none(4).is_armed());

        let one = WorkerFaultPlan::kill_shard(4, 2, 10);
        assert_eq!(one.kill_after(2), Some(10));
        assert_eq!(one.kill_after(0), None);
        assert_eq!(one.kill_after(99), None);
        // A zero message budget still kills before the first message.
        assert_eq!(WorkerFaultPlan::kill_shard(2, 0, 0).kill_after(0), Some(1));
    }

    #[test]
    fn crash_schedule_triggers_at_and_after_the_threshold() {
        let crash = CrashSchedule::after_events(5);
        assert_eq!(crash.trigger(), 5);
        assert!(!crash.should_crash(0));
        assert!(!crash.should_crash(4));
        assert!(crash.should_crash(5));
        assert!(crash.should_crash(6));
        // Zero clamps to 1: the crash always lets at least one event
        // become durable first.
        assert_eq!(CrashSchedule::after_events(0).trigger(), 1);
    }

    #[test]
    fn splitmix_streams_are_reproducible() {
        let mut a = SplitMix64::new(99);
        let mut b = SplitMix64::new(99);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let f = SplitMix64::new(7).next_f64();
        assert!((0.0..1.0).contains(&f));
        assert_eq!(SplitMix64::new(1).next_exp(0.0), f64::INFINITY);
        assert!(SplitMix64::new(1).next_exp(100.0) >= 0.0);
    }
}
