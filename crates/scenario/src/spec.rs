//! The validated scenario model: what a parsed `.eavm` file means.
//!
//! A scenario is a **multi-phase state machine** over the workload. The
//! machine is linear: phases run in declaration order, each one composes
//! an arrival mix (rate, burstiness, job-size distribution — the knobs
//! of [`eavm_swf::GeneratorConfig`] and [`eavm_swf::AdaptConfig`]), a
//! fault plan (delegating to [`eavm_faults`] seeds/rates/schedules),
//! optional policy switches, and exits on an event count (`exit_jobs`)
//! or a sim-time budget (`exit_after_s`). The spec is pure data; the
//! [`mod@crate::compile`] module lowers it onto the simulator/service.

use std::fmt;

/// Which backend drives the compiled scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The discrete-event simulator ([`eavm_simulator::Simulation`]):
    /// full energy/SLA physics, per-phase rows by prefix attribution.
    Simulate,
    /// The online allocation service driven *paced*
    /// ([`eavm_service::drive_paced`]): admission/shed/requeue
    /// accounting, per-phase rows from coordinator counter snapshots.
    Service,
}

impl Mode {
    /// The backend label used in outcome CSV rows.
    pub fn label(self) -> &'static str {
        match self {
            Mode::Simulate => "simulate",
            Mode::Service => "service",
        }
    }
}

/// How a phase (or the scenario default) places VMs.
#[derive(Debug, Clone, PartialEq)]
pub enum Policy {
    /// The PROACTIVE strategy with optimization goal α ∈ [0, 1].
    Proactive { alpha: f64 },
    /// A named reactive strategy: `ff`, `ff2`, `ff3`, `bf`, `bf2`, `bf3`.
    Named(String),
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Policy::Proactive { alpha } => write!(f, "pa:{alpha}"),
            Policy::Named(name) => write!(f, "{name}"),
        }
    }
}

/// A half-open host range `start..end`, used by maintenance/brownout
/// overrides to take a slice of the fleet down or degrade it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostRange {
    /// First host index (inclusive).
    pub start: usize,
    /// One past the last host index.
    pub end: usize,
}

impl HostRange {
    /// Number of hosts covered.
    pub fn len(&self) -> usize {
        self.end.saturating_sub(self.start)
    }

    /// Whether the range covers nothing.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// Phase exit condition: the state machine leaves a phase after a fixed
/// number of arrival events or a fixed span of simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExitCondition {
    /// Exit after exactly this many job arrivals.
    Jobs(usize),
    /// Exit after this many simulated seconds.
    AfterSeconds(f64),
}

/// One phase of the scenario state machine.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSpec {
    /// Unique phase name (the `[phase.<name>]` section header).
    pub name: String,
    /// When the machine leaves this phase.
    pub exit: ExitCondition,

    // Arrival mix (eavm-swf generator knobs).
    /// Mean seconds between submission bursts.
    pub mean_gap_s: f64,
    /// Burst size is uniform in `1..=max_burst`.
    pub max_burst: usize,
    /// Log-normal runtime μ (of the underlying normal), seconds.
    pub runtime_mu: f64,
    /// Log-normal runtime σ.
    pub runtime_sigma: f64,
    /// Diurnal arrival-rate modulation amplitude in `[0, 1)`.
    pub diurnal: f64,
    /// VM count per request is uniform in `vms_min..=vms_max`.
    pub vms_min: u32,
    /// Upper bound of the VM count range.
    pub vms_max: u32,

    // Fault plan (eavm-faults knobs), all scoped to this phase's window.
    /// Expected host crashes per host-hour in `[0, 1]`.
    pub crash_rate: f64,
    /// Expected degradation windows per host-hour in `[0, 1]`.
    pub degrade_rate: f64,
    /// Progress-rate multiplier while degraded, in `(0, 1]`.
    pub degrade_factor: f64,
    /// Mean downtime after a crash, seconds.
    pub mean_downtime_s: f64,
    /// Mean length of a degradation window, seconds.
    pub mean_degradation_s: f64,
    /// Hosts taken down (scheduled crash) for the whole phase.
    pub offline_hosts: Option<HostRange>,
    /// Hosts degraded (at `degrade_factor`) for the whole phase.
    pub degrade_hosts: Option<HostRange>,

    /// Policy override for requests submitted during this phase; `None`
    /// inherits the scenario default.
    pub policy: Option<Policy>,

    // Consolidation (eavm-migrate knobs), scoped to this phase's window.
    /// Whether threshold-driven consolidation sweeps run in this phase.
    pub consolidate: bool,
    /// Seconds between consolidation sweeps while enabled.
    pub consolidate_every_s: f64,
    /// Hosts with `0 < vms ≤ drain_threshold` are drain candidates.
    pub drain_threshold: u32,

    // Overload control (eavm-overload knobs, mode = "service" only).
    // Like consolidation, the service's overload regime is global: the
    // first overloading phase sets the knobs for the whole run.
    /// Whether the adaptive overload plane (AIMD limits, queue aging,
    /// brownout ladder) is armed for this run.
    pub overload: bool,
    /// Multiplicative limit cut on an overload signal, in `(0, 1)`.
    pub overload_cut: f64,
    /// CoDel target sojourn time for parked requests, seconds.
    pub overload_queue_target_s: f64,
    /// CoDel interval: age past target+interval sheds the entry.
    pub overload_queue_interval_s: f64,
}

impl PhaseSpec {
    /// A phase with library defaults and the given name/exit; every
    /// other knob starts at the generator/fault defaults.
    pub fn new(name: &str, exit: ExitCondition) -> Self {
        PhaseSpec {
            name: name.to_string(),
            exit,
            mean_gap_s: 90.0,
            max_burst: 5,
            runtime_mu: 6.9,
            runtime_sigma: 0.8,
            diurnal: 0.0,
            vms_min: 1,
            vms_max: 4,
            crash_rate: 0.0,
            degrade_rate: 0.0,
            degrade_factor: 0.5,
            mean_downtime_s: 1800.0,
            mean_degradation_s: 900.0,
            offline_hosts: None,
            degrade_hosts: None,
            policy: None,
            consolidate: false,
            consolidate_every_s: 600.0,
            drain_threshold: 2,
            overload: false,
            overload_cut: 0.5,
            overload_queue_target_s: 60.0,
            overload_queue_interval_s: 120.0,
        }
    }

    /// Whether the phase schedules any fault activity.
    pub fn has_faults(&self) -> bool {
        self.crash_rate > 0.0
            || self.degrade_rate > 0.0
            || self.offline_hosts.is_some()
            || self.degrade_hosts.is_some()
    }
}

/// Fleet sizing shared by every phase.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSpec {
    /// Reference-platform servers.
    pub servers: usize,
    /// Additional dual-socket big nodes (simulate mode only).
    pub big_nodes: usize,
}

/// Scenario-global fault knobs that cannot vary per phase.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Seed for every fault stream the scenario derives.
    pub seed: u64,
    /// Probability that an individual model lookup transiently fails.
    pub lookup_failure_rate: f64,
    /// Service mode: kill this shard's worker once…
    pub kill_shard: Option<usize>,
    /// …it has served this many mailbox messages.
    pub kill_after: u64,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            seed: 0xFA17,
            lookup_failure_rate: 0.0,
            kill_shard: None,
            kill_after: 16,
        }
    }
}

/// Service sizing (mode = "service" only).
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceSpec {
    /// Worker shards the fleet is split across.
    pub shards: usize,
    /// Admission channel / parked queue bound.
    pub queue: usize,
}

impl Default for ServiceSpec {
    fn default() -> Self {
        ServiceSpec {
            shards: 4,
            queue: 1024,
        }
    }
}

/// A fully validated scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (the `name` key; used as the CSV key column).
    pub name: String,
    /// Master seed; every phase derives its streams from it.
    pub seed: u64,
    /// Backend the scenario runs on.
    pub mode: Mode,
    /// Default policy for phases without an override.
    pub policy: Policy,
    /// QoS factor: deadline = qos_factor × per-type solo time.
    pub qos_factor: f64,
    /// Fleet sizing.
    pub fleet: FleetSpec,
    /// Global fault knobs.
    pub faults: FaultSpec,
    /// Service sizing (defaults apply when the section is absent).
    pub service: ServiceSpec,
    /// The phase state machine, in execution order (non-empty).
    pub phases: Vec<PhaseSpec>,
}

impl ScenarioSpec {
    /// Semantic validation beyond what the grammar enforces; returns a
    /// human-readable reason on the first violated invariant. Called by
    /// the parser, so any `ScenarioSpec` obtained from
    /// [`crate::parse_scenario`] already passed it.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("scenario name must be non-empty".into());
        }
        if self.fleet.servers == 0 {
            return Err("fleet needs at least one server".into());
        }
        if self.phases.is_empty() {
            return Err("scenario needs at least one [phase.<name>] section".into());
        }
        if !(0.0..=1.0).contains(&self.faults.lookup_failure_rate) {
            return Err("lookup_failure_rate must be within [0, 1]".into());
        }
        if self.qos_factor.is_nan() || self.qos_factor <= 1.0 {
            return Err("qos_factor must exceed 1".into());
        }
        self.validate_policy(&self.policy)?;
        match self.mode {
            Mode::Simulate => {
                if self.faults.kill_shard.is_some() {
                    return Err("kill_shard needs mode = \"service\"".into());
                }
            }
            Mode::Service => {
                if self.fleet.big_nodes > 0 {
                    return Err(
                        "big_nodes needs mode = \"simulate\" (the service fleet is homogeneous)"
                            .into(),
                    );
                }
                if self.service.shards == 0 {
                    return Err("service needs at least one shard".into());
                }
                if let Some(shard) = self.faults.kill_shard {
                    if shard >= self.service.shards {
                        return Err(format!(
                            "kill_shard {shard} out of range (shards = {})",
                            self.service.shards
                        ));
                    }
                }
                if self.faults.kill_after == 0 {
                    return Err("kill_after must be nonzero".into());
                }
                if !matches!(self.policy, Policy::Proactive { .. }) {
                    return Err(
                        "mode = \"service\" requires the proactive policy (alpha = F)".into(),
                    );
                }
            }
        }
        let hosts = self.fleet.servers + self.fleet.big_nodes;
        for phase in &self.phases {
            self.validate_phase(phase, hosts)?;
        }
        Ok(())
    }

    fn validate_policy(&self, policy: &Policy) -> Result<(), String> {
        match policy {
            Policy::Proactive { alpha } => {
                if !(0.0..=1.0).contains(alpha) {
                    return Err(format!("alpha must be within [0, 1], got {alpha}"));
                }
            }
            Policy::Named(name) => {
                if !eavm_core::BASELINE_NAMES.contains(&name.as_str()) {
                    let names = eavm_core::BASELINE_NAMES.join("|");
                    return Err(format!("unknown strategy {name:?} ({names}, or alpha = F)"));
                }
            }
        }
        Ok(())
    }

    fn validate_phase(&self, phase: &PhaseSpec, hosts: usize) -> Result<(), String> {
        let at = |msg: String| format!("phase {:?}: {msg}", phase.name);
        match phase.exit {
            ExitCondition::Jobs(0) => return Err(at("exit_jobs must be nonzero".into())),
            ExitCondition::AfterSeconds(s) if s.is_nan() || s <= 0.0 => {
                return Err(at("exit_after_s must be positive".into()))
            }
            _ => {}
        }
        if phase.mean_gap_s.is_nan() || phase.mean_gap_s <= 0.0 {
            return Err(at("mean_gap_s must be positive".into()));
        }
        if phase.max_burst == 0 {
            return Err(at("max_burst must be nonzero".into()));
        }
        if phase.runtime_sigma.is_nan() || phase.runtime_sigma < 0.0 {
            return Err(at("runtime_sigma must be nonnegative".into()));
        }
        if !(0.0..1.0).contains(&phase.diurnal) {
            return Err(at("diurnal must be within [0, 1)".into()));
        }
        if phase.vms_min == 0 || phase.vms_min > phase.vms_max {
            return Err(at("VM counts must satisfy 1 <= vms_min <= vms_max".into()));
        }
        for (key, rate) in [
            ("crash_rate", phase.crash_rate),
            ("degrade_rate", phase.degrade_rate),
        ] {
            if !(0.0..=1.0).contains(&rate) {
                return Err(at(format!("{key} must be within [0, 1], got {rate}")));
            }
        }
        if !(phase.degrade_factor > 0.0 && phase.degrade_factor <= 1.0) {
            return Err(at("degrade_factor must be within (0, 1]".into()));
        }
        for (key, duration) in [
            ("mean_downtime_s", phase.mean_downtime_s),
            ("mean_degradation_s", phase.mean_degradation_s),
        ] {
            if duration.is_nan() || duration <= 0.0 {
                return Err(at(format!("{key} must be positive")));
            }
        }
        for (key, range) in [
            ("offline_hosts", phase.offline_hosts),
            ("degrade_hosts", phase.degrade_hosts),
        ] {
            if let Some(r) = range {
                if r.is_empty() {
                    return Err(at(format!("{key} range {}..{} is empty", r.start, r.end)));
                }
                if r.end > hosts {
                    return Err(at(format!(
                        "{key} range {}..{} exceeds the fleet ({hosts} hosts)",
                        r.start, r.end
                    )));
                }
            }
        }
        if phase.consolidate_every_s.is_nan() || phase.consolidate_every_s <= 0.0 {
            return Err(at("consolidate_every_s must be positive".into()));
        }
        if phase.consolidate && phase.drain_threshold == 0 {
            return Err(at("drain_threshold must be nonzero".into()));
        }
        if let Some(policy) = &phase.policy {
            self.validate_policy(policy)?;
            if self.mode == Mode::Service {
                return Err(at(
                    "per-phase policy switches need mode = \"simulate\"".into()
                ));
            }
        }
        if self.mode == Mode::Service && phase.has_faults() {
            return Err(at("host crash/degradation plans need mode = \"simulate\" \
                 (service chaos is lookup_failure_rate / kill_shard)"
                .into()));
        }
        if phase.overload && self.mode != Mode::Service {
            return Err(at("overload needs mode = \"service\"".into()));
        }
        if !(phase.overload_cut > 0.0 && phase.overload_cut < 1.0) {
            return Err(at(format!(
                "overload_cut must be within (0, 1), got {}",
                phase.overload_cut
            )));
        }
        if phase.overload_queue_target_s.is_nan() || phase.overload_queue_target_s <= 0.0 {
            return Err(at("overload_queue_target_s must be positive".into()));
        }
        if phase.overload_queue_interval_s.is_nan() || phase.overload_queue_interval_s <= 0.0 {
            return Err(at("overload_queue_interval_s must be positive".into()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal() -> ScenarioSpec {
        ScenarioSpec {
            name: "t".into(),
            seed: 1,
            mode: Mode::Simulate,
            policy: Policy::Proactive { alpha: 0.5 },
            qos_factor: 4.0,
            fleet: FleetSpec {
                servers: 8,
                big_nodes: 0,
            },
            faults: FaultSpec::default(),
            service: ServiceSpec::default(),
            phases: vec![PhaseSpec::new("p", ExitCondition::Jobs(10))],
        }
    }

    #[test]
    fn minimal_spec_validates() {
        assert!(minimal().validate().is_ok());
    }

    #[test]
    fn fleet_and_phase_invariants_are_enforced() {
        let mut s = minimal();
        s.fleet.servers = 0;
        assert!(s.validate().is_err());

        let mut s = minimal();
        s.phases.clear();
        assert!(s.validate().is_err());

        let mut s = minimal();
        s.phases[0].crash_rate = 1.5;
        assert!(s.validate().unwrap_err().contains("crash_rate"));

        let mut s = minimal();
        s.phases[0].offline_hosts = Some(HostRange { start: 6, end: 12 });
        assert!(s.validate().unwrap_err().contains("exceeds the fleet"));

        let mut s = minimal();
        s.phases[0].vms_min = 3;
        s.phases[0].vms_max = 2;
        assert!(s.validate().is_err());
    }

    #[test]
    fn mode_feature_compatibility() {
        // Service mode rejects host-level fault plans and policy switches.
        let mut s = minimal();
        s.mode = Mode::Service;
        assert!(s.validate().is_ok());
        s.phases[0].crash_rate = 0.2;
        assert!(s.validate().unwrap_err().contains("simulate"));

        let mut s = minimal();
        s.mode = Mode::Service;
        s.phases[0].policy = Some(Policy::Proactive { alpha: 1.0 });
        assert!(s.validate().unwrap_err().contains("policy switches"));

        let mut s = minimal();
        s.mode = Mode::Service;
        s.fleet.big_nodes = 2;
        assert!(s.validate().unwrap_err().contains("big_nodes"));

        // Simulate mode rejects the worker-kill knob.
        let mut s = minimal();
        s.faults.kill_shard = Some(0);
        assert!(s.validate().unwrap_err().contains("kill_shard"));

        let mut s = minimal();
        s.mode = Mode::Service;
        s.faults.kill_shard = Some(9);
        assert!(s.validate().unwrap_err().contains("out of range"));
    }

    #[test]
    fn overload_knobs_are_service_only_and_range_checked() {
        // Simulate mode rejects the overload plane outright.
        let mut s = minimal();
        s.phases[0].overload = true;
        assert!(s.validate().unwrap_err().contains("overload needs mode"));

        let mut s = minimal();
        s.mode = Mode::Service;
        s.phases[0].overload = true;
        assert!(s.validate().is_ok());

        s.phases[0].overload_cut = 1.0;
        assert!(s.validate().unwrap_err().contains("overload_cut"));
        s.phases[0].overload_cut = 0.0;
        assert!(s.validate().unwrap_err().contains("overload_cut"));
        s.phases[0].overload_cut = 0.5;

        s.phases[0].overload_queue_target_s = 0.0;
        assert!(s
            .validate()
            .unwrap_err()
            .contains("overload_queue_target_s"));
        s.phases[0].overload_queue_target_s = 60.0;

        s.phases[0].overload_queue_interval_s = f64::NAN;
        assert!(s
            .validate()
            .unwrap_err()
            .contains("overload_queue_interval_s"));
    }

    #[test]
    fn policy_names_are_checked() {
        let mut s = minimal();
        s.policy = Policy::Named("zz".into());
        assert!(s.validate().is_err());
        s.policy = Policy::Named("bf2".into());
        assert!(s.validate().is_ok());
        s.policy = Policy::Proactive { alpha: 1.5 };
        assert!(s.validate().is_err());
    }
}
