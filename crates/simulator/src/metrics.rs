//! Evaluation metrics (Sect. IV-C).
//!
//! "makespan (workload execution time in seconds, which is the difference
//! between the earliest time of submission of any of the workload tasks,
//! and the latest time of completion of any of its tasks), energy
//! consumption (in Joules), and percentage of SLA violations. The number
//! of SLA violations were calculated by summing the number of missed
//! deadlines of all applications."

use eavm_types::{Joules, MixVector, Seconds, ServerId};

/// One interval of constant allocation on one server — the building
/// block of the paper's Fig. 4 ("possible VM allocation outcome over
/// time"). Only recorded when the simulation runs with
/// [`crate::Simulation::with_timeline`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AllocationInterval {
    /// The server whose allocation this describes.
    pub server: ServerId,
    /// Interval start.
    pub start: Seconds,
    /// Interval end.
    pub end: Seconds,
    /// The constant type mix during the interval (non-empty).
    pub mix: MixVector,
}

impl AllocationInterval {
    /// Interval length.
    pub fn duration(&self) -> Seconds {
        self.end - self.start
    }
}

/// Aggregate result of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// Strategy label (`FF`, `FF-2`, `FF-3`, `PA-1`, `PA-0`, `PA-0.5`).
    pub strategy: String,
    /// Cloud label (`SMALLER` / `LARGER`).
    pub cloud: String,
    /// Number of job requests simulated.
    pub requests: usize,
    /// Number of VMs simulated.
    pub vms: usize,
    /// Earliest submission of any task.
    pub first_submit: Seconds,
    /// Latest completion of any task.
    pub last_completion: Seconds,
    /// Total energy drawn by all provisioned servers over the makespan.
    pub energy: Joules,
    /// Portion of `energy` attributable to the 125 W static draw.
    pub idle_energy: Joules,
    /// Requests whose response time exceeded the deadline.
    pub sla_violations: usize,
    /// Sum of per-VM response times over the completed VMs (completion
    /// − the request's submission). A VM restarted after a host crash
    /// counts once, from its original submission to its final
    /// completion.
    pub total_response_time: Seconds,
    /// Sum of per-placement queueing delays (placement − the instant the
    /// VM last joined the queue: its submission, or the crash that
    /// re-queued it). A restarted VM adds both of its waits, so this
    /// never exceeds `total_response_time` on a drained run.
    pub total_wait_time: Seconds,
    /// Largest number of servers hosting at least one VM at once.
    pub peak_servers_busy: usize,
    /// Number of live VM migrations performed (0 unless the reactive
    /// consolidation extension is enabled).
    pub migrations: usize,
    /// Megabytes copied over migration links (every pre-copy round plus
    /// the final stop-and-copy, summed across all migrations).
    pub migrated_mb: f64,
    /// Total stop-and-copy downtime across all migrations.
    pub migration_downtime: Seconds,
    /// Donor hosts fully drained and powered off by consolidation.
    pub hosts_powered_down: usize,
    /// Requests violating their deadline, by workload type (the paper's
    /// QoS is defined per application type).
    pub per_type_violations: [usize; 3],
    /// Requests simulated, by workload type.
    pub per_type_requests: [usize; 3],
    /// Integral of the number of busy (hosting) servers over time,
    /// server-seconds; `busy_server_seconds / makespan` is the average
    /// fleet footprint.
    pub busy_server_seconds: Seconds,
    /// Host crashes fired by the fault plan (0 without faults).
    pub host_crashes: usize,
    /// Degradation windows opened by the fault plan (0 without faults).
    pub host_degradations: usize,
    /// VMs killed by host crashes.
    pub vms_killed: usize,
    /// Killed VMs re-placed after their host crashed. Equals
    /// `vms_killed` whenever the run drains (restart conservation).
    pub vms_restarted: usize,
    /// Completed solo-equivalent work thrown away by crashes.
    pub lost_work: Seconds,
    /// Model-estimated energy of the thrown-away work — the extra
    /// energy the restarts must re-spend.
    pub restart_energy: Joules,
    /// Per-server allocation intervals (Fig. 4 timelines); empty unless
    /// the simulation was configured with `with_timeline`.
    pub timeline: Vec<AllocationInterval>,
}

impl SimOutcome {
    /// Makespan: latest completion minus earliest submission.
    pub fn makespan(&self) -> Seconds {
        self.last_completion - self.first_submit
    }

    /// Percentage of requests violating their SLA, in `[0, 100]`.
    pub fn sla_violation_pct(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            100.0 * self.sla_violations as f64 / self.requests as f64
        }
    }

    /// VMs that ran to completion: every placement except the ones a
    /// host crash killed (each of those was placed again as a restart).
    pub fn vms_completed(&self) -> usize {
        self.vms - self.vms_killed
    }

    /// Mean response time per completed VM.
    pub fn mean_response_time(&self) -> Seconds {
        match self.vms_completed() {
            0 => Seconds::ZERO,
            n => self.total_response_time / n as f64,
        }
    }

    /// Mean queueing delay per completed VM (a restarted VM's waits
    /// before and after its crash both count).
    pub fn mean_wait_time(&self) -> Seconds {
        match self.vms_completed() {
            0 => Seconds::ZERO,
            n => self.total_wait_time / n as f64,
        }
    }

    /// Average number of servers hosting at least one VM over the
    /// makespan (the consolidation footprint).
    pub fn mean_servers_busy(&self) -> f64 {
        let span = self.makespan();
        if span <= Seconds::ZERO {
            0.0
        } else {
            self.busy_server_seconds / span
        }
    }

    /// SLA violation percentage for one workload type.
    pub fn sla_violation_pct_of(&self, ty: eavm_types::WorkloadType) -> f64 {
        let n = self.per_type_requests[ty.index()];
        if n == 0 {
            0.0
        } else {
            100.0 * self.per_type_violations[ty.index()] as f64 / n as f64
        }
    }

    /// The recorded allocation intervals of one server, in time order.
    pub fn timeline_of(&self, server: ServerId) -> Vec<AllocationInterval> {
        self.timeline
            .iter()
            .filter(|iv| iv.server == server)
            .copied()
            .collect()
    }

    /// Fraction of the total energy that is static (idle) draw.
    pub fn idle_energy_fraction(&self) -> f64 {
        // eavm-lint: allow(D4, reason = "exact-zero sentinel guarding the division below; energy is exactly 0.0 only when no interval was ever recorded")
        if self.energy.value() == 0.0 {
            0.0
        } else {
            self.idle_energy / self.energy
        }
    }

    /// One CSV row (see [`Self::CSV_HEADER`]).
    pub fn to_csv(&self) -> String {
        format!(
            "{},{},{},{},{:.3},{:.3},{:.3},{},{:.4},{:.3},{:.3},{},{},{:.1},{:.3},{},{},{},{},{},{:.3},{:.3}",
            self.strategy,
            self.cloud,
            self.requests,
            self.vms,
            self.makespan().value(),
            self.energy.value(),
            self.idle_energy.value(),
            self.sla_violations,
            self.sla_violation_pct(),
            self.mean_response_time().value(),
            self.mean_wait_time().value(),
            self.peak_servers_busy,
            self.migrations,
            self.migrated_mb,
            self.migration_downtime.value(),
            self.hosts_powered_down,
            self.host_crashes,
            self.host_degradations,
            self.vms_killed,
            self.vms_restarted,
            self.lost_work.value(),
            self.restart_energy.value(),
        )
    }

    /// Header for [`Self::to_csv`].
    pub const CSV_HEADER: &'static str = "strategy,cloud,requests,vms,makespan_s,energy_j,\
idle_energy_j,sla_violations,sla_pct,mean_response_s,mean_wait_s,peak_servers_busy,migrations,\
migrated_mb,migration_downtime_s,hosts_powered_down,\
host_crashes,host_degradations,vms_killed,vms_restarted,lost_work_s,restart_energy_j";
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> SimOutcome {
        SimOutcome {
            strategy: "FF".into(),
            cloud: "SMALLER".into(),
            requests: 200,
            vms: 500,
            first_submit: Seconds(100.0),
            last_completion: Seconds(10_100.0),
            energy: Joules(8.0e8),
            idle_energy: Joules(5.0e8),
            sla_violations: 30,
            total_response_time: Seconds(891_000.0),
            total_wait_time: Seconds(49_500.0),
            peak_servers_busy: 120,
            migrations: 0,
            migrated_mb: 0.0,
            migration_downtime: Seconds::ZERO,
            hosts_powered_down: 0,
            per_type_violations: [20, 6, 4],
            per_type_requests: [80, 60, 60],
            busy_server_seconds: Seconds(900_000.0),
            host_crashes: 2,
            host_degradations: 1,
            vms_killed: 5,
            vms_restarted: 5,
            lost_work: Seconds(3_000.0),
            restart_energy: Joules(1.0e6),
            timeline: Vec::new(),
        }
    }

    #[test]
    fn makespan_is_submission_to_completion() {
        assert_eq!(outcome().makespan(), Seconds(10_000.0));
    }

    #[test]
    fn sla_percentage() {
        assert!((outcome().sla_violation_pct() - 15.0).abs() < 1e-12);
        let mut o = outcome();
        o.requests = 0;
        assert_eq!(o.sla_violation_pct(), 0.0);
    }

    #[test]
    fn mean_times() {
        // 500 placements, 5 of them killed: 495 completed VMs.
        let o = outcome();
        assert_eq!(o.vms_completed(), 495);
        assert!((o.mean_response_time().value() - 1_800.0).abs() < 1e-9);
        assert!((o.mean_wait_time().value() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn idle_fraction() {
        assert!((outcome().idle_energy_fraction() - 0.625).abs() < 1e-12);
    }

    #[test]
    fn mean_busy_servers_is_integral_over_makespan() {
        let o = outcome();
        assert!((o.mean_servers_busy() - 90.0).abs() < 1e-9);
        let mut z = outcome();
        z.last_completion = z.first_submit;
        assert_eq!(z.mean_servers_busy(), 0.0);
    }

    #[test]
    fn per_type_sla_percentages() {
        use eavm_types::WorkloadType;
        let o = outcome();
        assert!((o.sla_violation_pct_of(WorkloadType::Cpu) - 25.0).abs() < 1e-9);
        assert!((o.sla_violation_pct_of(WorkloadType::Mem) - 10.0).abs() < 1e-9);
        let mut z = outcome();
        z.per_type_requests = [0; 3];
        assert_eq!(z.sla_violation_pct_of(WorkloadType::Io), 0.0);
    }

    #[test]
    fn csv_row_matches_header_arity() {
        let fields = SimOutcome::CSV_HEADER.split(',').count();
        assert_eq!(outcome().to_csv().split(',').count(), fields);
    }
}
