//! The deterministic online consolidation policy.
//!
//! Threshold-driven server consolidation: any *available* host holding
//! `0 < total ≤ drain_threshold` VMs is a **donor** candidate; donors
//! are drained emptiest-first, all-or-nothing (a donor keeps every VM
//! unless *all* of them find receivers — half-drained hosts save no
//! energy), into the first receiver that (a) is not itself a donor
//! candidate, (b) stays inside the capacity `receiver_bound`, and
//! (c) passes the caller's `can_host` guard (the simulator plugs its
//! slowdown estimate in here; the service plugs its shard-mirror
//! capacity check). A fully drained donor is *emptied* — the caller
//! powers it down.
//!
//! [`Hysteresis`] prevents flapping: every host touched by a committed
//! sweep (donors and receivers alike) sits out the next
//! `hysteresis_sweeps` sweeps before it may donate again, so a host
//! cannot be powered down, receive the next arrival, and be immediately
//! drained again.
//!
//! Everything here is pure and index-ordered: same inputs ⇒ the same
//! `MovePlan`, byte for byte, on every run.

use eavm_types::{MixVector, Seconds, WorkloadType};

use crate::model::MigrationModel;

/// Knobs of the consolidation engine. [`Default`] is the regime the
/// ablation study sweeps around: a 600 s interval, donors of ≤ 2 VMs,
/// one sweep of hysteresis, and the reference-server migration model.
#[derive(Debug, Clone, PartialEq)]
pub struct ConsolidationConfig {
    /// Sweep period: one consolidation pass per elapsed interval.
    pub interval: Seconds,
    /// Hosts with `0 < total ≤ drain_threshold` resident VMs are donor
    /// candidates; hosts above it are receiver candidates.
    pub drain_threshold: u32,
    /// Hard per-receiver capacity bound (component-wise) a receiver's
    /// tentative mix must fit within after every injected VM.
    pub receiver_bound: MixVector,
    /// Number of sweeps a touched host sits out before donating again.
    pub hysteresis_sweeps: u32,
    /// The pre-copy cost model pricing each move.
    pub model: MigrationModel,
}

impl Default for ConsolidationConfig {
    fn default() -> Self {
        ConsolidationConfig {
            interval: Seconds(600.0),
            drain_threshold: 2,
            receiver_bound: MixVector::new(10, 4, 7),
            hysteresis_sweeps: 1,
            model: MigrationModel::default(),
        }
    }
}

impl ConsolidationConfig {
    /// Check every knob is usable.
    pub fn validate(&self) -> Result<(), String> {
        if !self.interval.value().is_finite() || self.interval.value() <= 0.0 {
            return Err(format!(
                "interval must be finite and positive, got {}",
                self.interval.value()
            ));
        }
        if self.drain_threshold == 0 {
            return Err("drain_threshold must be nonzero".into());
        }
        if self.receiver_bound.is_empty() {
            return Err("receiver_bound must be non-empty".into());
        }
        self.model.validate()
    }

    /// Which sweep epoch a timestamp falls in: `floor(now / interval)`.
    /// A sweep runs when the epoch advances past the last swept one, so
    /// the schedule is a pure function of the clock — identical between
    /// a live run and its crash recovery.
    pub fn epoch_of(&self, now: Seconds) -> u64 {
        let e = (now.value() / self.interval.value()).floor();
        if e <= 0.0 {
            0
        } else {
            e as u64
        }
    }
}

/// Per-sweep cooldown preventing donate-receive-donate flapping.
#[derive(Debug, Clone, Default)]
pub struct Hysteresis {
    cooldown: Vec<u32>,
}

impl Hysteresis {
    /// A tracker for `hosts` hosts, all immediately eligible.
    pub fn new(hosts: usize) -> Self {
        Hysteresis {
            cooldown: vec![0; hosts],
        }
    }

    /// Start a sweep: every cooldown decays by one.
    pub fn begin_sweep(&mut self) {
        for c in &mut self.cooldown {
            *c = c.saturating_sub(1);
        }
    }

    /// May this host donate in the current sweep?
    pub fn eligible(&self, host: usize) -> bool {
        self.cooldown.get(host).is_none_or(|c| *c == 0)
    }

    /// Record a committed plan: every host it touched (donor or
    /// receiver) sits out the next `sweeps` sweeps. (`+1` because the
    /// next sweep's [`begin_sweep`](Self::begin_sweep) decays the
    /// counter before eligibility is read.)
    pub fn commit(&mut self, plan: &MovePlan, sweeps: u32) {
        for m in &plan.moves {
            for host in [m.from, m.to] {
                if let Some(c) = self.cooldown.get_mut(host) {
                    *c = sweeps.saturating_add(1);
                }
            }
        }
    }

    /// Per-host cooldowns, for durable checkpoints. Index = host.
    pub fn cooldowns(&self) -> &[u32] {
        &self.cooldown
    }

    /// Rebuild a tracker from checkpointed [`cooldowns`](Self::cooldowns),
    /// padded or truncated to `hosts` entries (fleet shape is
    /// config-owned).
    pub fn restore(hosts: usize, saved: &[u32]) -> Self {
        let mut h = Hysteresis::new(hosts);
        for (c, saved) in h.cooldown.iter_mut().zip(saved) {
            *c = *saved;
        }
        h
    }
}

/// What the planner needs to know about one host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostLoad {
    /// Resident VM mix.
    pub mix: MixVector,
    /// `false` for crashed / offline hosts: they neither donate nor
    /// receive.
    pub available: bool,
}

/// One planned migration: a VM of type `ty` moves `from → to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Move {
    /// Donor host index.
    pub from: usize,
    /// Receiver host index.
    pub to: usize,
    /// Workload type of the moved VM.
    pub ty: WorkloadType,
}

/// A committed consolidation plan: the ordered move list plus the
/// donors it fully drained (to be powered down by the caller).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MovePlan {
    /// Moves in execution order (donor by donor, canonical type order).
    pub moves: Vec<Move>,
    /// Donor hosts left empty by the plan, ascending.
    pub emptied: Vec<usize>,
}

impl MovePlan {
    /// `true` when the sweep found nothing to consolidate.
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
    }
}

/// Plan one consolidation sweep over a fleet snapshot.
///
/// `can_host(receiver, tentative_mix)` is the caller's admission guard:
/// it sees the receiver's mix *as it would be* after the injected VM
/// and must answer deterministically. The planner already enforces the
/// capacity `receiver_bound`; `can_host` adds whatever richer check the
/// caller owns (slowdown estimation, shard capacity).
///
/// The caller is responsible for `hysteresis.begin_sweep()` before
/// planning and `hysteresis.commit(&plan, ..)` after accepting it.
pub fn plan_moves(
    hosts: &[HostLoad],
    cfg: &ConsolidationConfig,
    hysteresis: &Hysteresis,
    mut can_host: impl FnMut(usize, MixVector) -> bool,
) -> MovePlan {
    let mut tentative: Vec<MixVector> = hosts.iter().map(|h| h.mix).collect();
    // Emptiest-first donor order (ties by index) so the cheapest drains
    // happen before receivers fill up.
    let mut donors: Vec<usize> = hosts
        .iter()
        .enumerate()
        .filter(|(i, h)| {
            h.available
                && !h.mix.is_empty()
                && h.mix.total() <= cfg.drain_threshold
                && hysteresis.eligible(*i)
        })
        .map(|(i, _)| i)
        .collect();
    donors.sort_by_key(|&i| (hosts[i].mix.total(), i));

    let mut plan = MovePlan::default();
    for donor in donors {
        let mut local = tentative.clone();
        let mut local_moves = Vec::new();
        let mut drained = true;
        'vms: for (ty, count) in hosts[donor].mix.iter() {
            for _ in 0..count {
                let receiver = (0..hosts.len()).find(|&r| {
                    r != donor
                        && hosts[r].available
                        && hosts[r].mix.total() > cfg.drain_threshold
                        && local[r].plus(ty).fits_within(&cfg.receiver_bound)
                        && can_host(r, local[r].plus(ty))
                });
                match receiver {
                    Some(r) => {
                        local[r] = local[r].plus(ty);
                        local[donor] = match local[donor].minus(ty) {
                            Some(m) => m,
                            None => {
                                drained = false;
                                break 'vms;
                            }
                        };
                        local_moves.push(Move {
                            from: donor,
                            to: r,
                            ty,
                        });
                    }
                    None => {
                        drained = false;
                        break 'vms;
                    }
                }
            }
        }
        // All-or-nothing: a partially drained donor still burns idle
        // power, so only fully emptied donors commit.
        if drained && !local_moves.is_empty() {
            tentative = local;
            plan.moves.extend(local_moves);
            plan.emptied.push(donor);
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host(cpu: u32, mem: u32, io: u32) -> HostLoad {
        HostLoad {
            mix: MixVector::new(cpu, mem, io),
            available: true,
        }
    }

    fn accept_all(_: usize, _: MixVector) -> bool {
        true
    }

    #[test]
    fn straggler_drains_into_loaded_receiver() {
        let hosts = [host(1, 0, 0), host(3, 1, 0), host(0, 0, 0)];
        let cfg = ConsolidationConfig::default();
        let plan = plan_moves(&hosts, &cfg, &Hysteresis::new(3), accept_all);
        assert_eq!(
            plan.moves,
            vec![Move {
                from: 0,
                to: 1,
                ty: WorkloadType::Cpu
            }]
        );
        assert_eq!(plan.emptied, vec![0]);
    }

    #[test]
    fn all_or_nothing_keeps_undrainable_donors_intact() {
        // The donor's two VMs fit capacity-wise, but the guard rejects
        // the second injection: nothing must move.
        let hosts = [host(1, 1, 0), host(3, 3, 0)];
        let cfg = ConsolidationConfig::default();
        let mut admitted = 0;
        let plan = plan_moves(&hosts, &cfg, &Hysteresis::new(2), |_, _| {
            admitted += 1;
            admitted <= 1
        });
        assert!(plan.is_empty());
        assert!(plan.emptied.is_empty());
    }

    #[test]
    fn donors_never_receive_and_offline_hosts_are_skipped() {
        let mut hosts = [host(1, 0, 0), host(2, 0, 0), host(4, 0, 0)];
        hosts[2].available = false;
        // Both stragglers are donor candidates; the only receiver is
        // offline, so nothing moves — donors must not merge into each
        // other.
        let cfg = ConsolidationConfig::default();
        let plan = plan_moves(&hosts, &cfg, &Hysteresis::new(3), accept_all);
        assert!(plan.is_empty());
    }

    #[test]
    fn emptiest_donor_drains_first() {
        let hosts = [host(2, 0, 0), host(1, 0, 0), host(5, 0, 0)];
        let cfg = ConsolidationConfig::default();
        let plan = plan_moves(&hosts, &cfg, &Hysteresis::new(3), accept_all);
        assert_eq!(plan.emptied, vec![1, 0]);
        assert_eq!(plan.moves[0].from, 1);
    }

    #[test]
    fn receiver_bound_is_enforced() {
        let hosts = [host(1, 0, 0), host(3, 0, 0)];
        let cfg = ConsolidationConfig {
            receiver_bound: MixVector::new(3, 4, 7),
            ..ConsolidationConfig::default()
        };
        let plan = plan_moves(&hosts, &cfg, &Hysteresis::new(2), accept_all);
        assert!(plan.is_empty(), "4 CPU VMs would exceed the bound of 3");
    }

    #[test]
    fn hysteresis_blocks_immediate_re_donation() {
        let hosts = [host(1, 0, 0), host(3, 0, 0)];
        let cfg = ConsolidationConfig::default();
        let mut hyst = Hysteresis::new(2);

        hyst.begin_sweep();
        let plan = plan_moves(&hosts, &cfg, &hyst, accept_all);
        assert_eq!(plan.emptied, vec![0]);
        hyst.commit(&plan, cfg.hysteresis_sweeps);

        // Next sweep: host 0 (and the receiver) are cooling down.
        hyst.begin_sweep();
        assert!(!hyst.eligible(0));
        assert!(!hyst.eligible(1));
        let again = plan_moves(&hosts, &cfg, &hyst, accept_all);
        assert!(again.is_empty());

        // The sweep after that, eligibility returns.
        hyst.begin_sweep();
        assert!(hyst.eligible(0));
    }

    #[test]
    fn hysteresis_round_trips_through_restore() {
        let hosts = [host(1, 0, 0), host(3, 0, 0)];
        let cfg = ConsolidationConfig::default();
        let mut hyst = Hysteresis::new(4);
        hyst.begin_sweep();
        let plan = plan_moves(&hosts, &cfg, &hyst, accept_all);
        hyst.commit(&plan, cfg.hysteresis_sweeps);

        let saved = hyst.cooldowns().to_vec();
        let restored = Hysteresis::restore(4, &saved);
        assert_eq!(restored.cooldowns(), hyst.cooldowns());
        // Out-of-range saved entries are dropped, not panicked on.
        let shrunk = Hysteresis::restore(1, &saved);
        assert_eq!(shrunk.cooldowns(), &saved[..1]);
    }

    #[test]
    fn epochs_are_a_pure_function_of_the_clock() {
        let cfg = ConsolidationConfig {
            interval: Seconds(600.0),
            ..ConsolidationConfig::default()
        };
        assert_eq!(cfg.epoch_of(Seconds(0.0)), 0);
        assert_eq!(cfg.epoch_of(Seconds(599.9)), 0);
        assert_eq!(cfg.epoch_of(Seconds(600.0)), 1);
        assert_eq!(cfg.epoch_of(Seconds(1800.0)), 3);
        assert_eq!(cfg.epoch_of(Seconds(-5.0)), 0);
    }

    #[test]
    fn config_validation_catches_bad_knobs() {
        let ok = ConsolidationConfig::default();
        ok.validate().unwrap();
        let mut bad = ok.clone();
        bad.interval = Seconds(0.0);
        assert!(bad.validate().unwrap_err().contains("interval"));
        let mut bad = ok.clone();
        bad.drain_threshold = 0;
        assert!(bad.validate().unwrap_err().contains("drain_threshold"));
        let mut bad = ok.clone();
        bad.receiver_bound = MixVector::EMPTY;
        assert!(bad.validate().unwrap_err().contains("receiver_bound"));
        let mut bad = ok;
        bad.model.max_rounds = 0;
        assert!(bad.validate().unwrap_err().contains("max_rounds"));
    }

    #[test]
    fn planning_is_deterministic() {
        let hosts: Vec<HostLoad> = (0..16)
            .map(|i| host((i % 4) as u32, (i % 3) as u32, (i % 2) as u32))
            .collect();
        let cfg = ConsolidationConfig::default();
        let a = plan_moves(&hosts, &cfg, &Hysteresis::new(16), accept_all);
        let b = plan_moves(&hosts, &cfg, &Hysteresis::new(16), accept_all);
        assert_eq!(a, b);
    }
}
