//! The FIRST-FIT baselines (Sect. IV-D).
//!
//! "FIRST-FIT (FF), in which job requests are allocated following the
//! first-fit policy based on CPU slots. It means that an incoming job
//! request is allocated to the first available server until the number
//! of allocated VMs is equal to the number of CPUs (VM multiplexing on
//! CPUs is not allowed). FIRST-FIT-2 (FF-2) and FIRST-FIT-3 (FF-3) are
//! two variants of FIRST-FIT that allow multiplexing up to 2 and 3 VMs
//! on each CPU, respectively."
//!
//! The policy is deliberately application-blind: only the VM *count* per
//! server matters, never the profile mix — that blindness is exactly
//! what the PROACTIVE strategy improves on.

use eavm_types::{EavmError, MixVector};

use crate::best_fit::BestFit;
use crate::strategy::{AllocationStrategy, Placement, RequestView, ServerView};

/// CPU-slot count of the paper's reference rack server (the quad-core
/// Xeon X3220) — the per-server budget the FF baselines count against.
/// Derived from the testbed spec rather than hardcoded so a change to
/// the reference machine propagates to every FF construction site.
pub fn reference_cpu_slots() -> u32 {
    eavm_testbed::ServerSpec::reference_rack_server().cpu_slots()
}

/// The names of the six CPU-slot baselines: FIRST-FIT and BEST-FIT at
/// multiplexing factors 1, 2 and 3.
pub const BASELINE_NAMES: [&str; 6] = ["ff", "ff2", "ff3", "bf", "bf2", "bf3"];

/// The baseline called `name` (one of [`BASELINE_NAMES`]) at
/// [`reference_cpu_slots`], or `None` for any other name.
pub fn baseline(name: &str) -> Option<Box<dyn AllocationStrategy>> {
    let slots = reference_cpu_slots();
    Some(match name {
        "ff" => Box::new(FirstFit::ff(slots)),
        "ff2" => Box::new(FirstFit::with_multiplex(slots, 2)),
        "ff3" => Box::new(FirstFit::with_multiplex(slots, 3)),
        "bf" => Box::new(BestFit::bf(slots)),
        "bf2" => Box::new(BestFit::with_multiplex(slots, 2)),
        "bf3" => Box::new(BestFit::with_multiplex(slots, 3)),
        _ => return None,
    })
}

/// CPU-slot-counting first fit with a multiplexing factor.
#[derive(Debug, Clone)]
pub struct FirstFit {
    /// VMs allowed per CPU (1 for plain FF, 2 for FF-2, 3 for FF-3).
    multiplex: u32,
    /// Physical CPU slots per server (4 on the reference machine).
    cpu_slots: u32,
}

impl FirstFit {
    /// Plain FIRST-FIT: one VM per CPU.
    pub fn ff(cpu_slots: u32) -> Self {
        Self::with_multiplex(cpu_slots, 1)
    }

    /// FF-k: up to `multiplex` VMs per CPU.
    pub fn with_multiplex(cpu_slots: u32, multiplex: u32) -> Self {
        assert!(cpu_slots > 0 && multiplex > 0);
        FirstFit {
            multiplex,
            cpu_slots,
        }
    }

    /// Per-server VM capacity under this policy.
    #[inline]
    pub fn capacity(&self) -> u32 {
        self.cpu_slots * self.multiplex
    }
}

impl AllocationStrategy for FirstFit {
    fn name(&self) -> String {
        if self.multiplex == 1 {
            "FF".to_string()
        } else {
            format!("FF-{}", self.multiplex)
        }
    }

    fn allocate(
        &mut self,
        request: &RequestView,
        servers: &[ServerView],
    ) -> Result<Vec<Placement>, EavmError> {
        let mut remaining = request.vm_count;
        let mut placements = Vec::new();
        for s in servers {
            if remaining == 0 {
                break;
            }
            let used = s.mix.total();
            // Capacity follows the server's own slot count (heterogeneous
            // fleets expose different platforms through the view).
            let cap = s.cpu_slots.max(1) * self.multiplex;
            let free = cap.saturating_sub(used);
            if free == 0 {
                continue;
            }
            let take = free.min(remaining);
            placements.push(Placement {
                server: s.id,
                add: MixVector::single(request.workload, take),
            });
            remaining -= take;
        }
        if remaining > 0 {
            return Err(EavmError::Infeasible(format!(
                "{}: {} VMs of request {} do not fit",
                self.name(),
                remaining,
                request.id
            )));
        }
        Ok(placements)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::validate_placements;
    use eavm_types::{JobId, Seconds, ServerId, WorkloadType};

    fn req(n: u32) -> RequestView {
        RequestView {
            id: JobId::new(0),
            workload: WorkloadType::Mem,
            vm_count: n,
            deadline: Seconds(4000.0),
        }
    }

    fn view(id: u32, total: u32) -> ServerView {
        ServerView::homogeneous(
            ServerId::new(id),
            MixVector::single(WorkloadType::Cpu, total),
        )
    }

    /// Slot budget used throughout: the reference machine's core count.
    fn slots() -> u32 {
        reference_cpu_slots()
    }

    #[test]
    fn reference_slots_match_the_testbed_quad_core() {
        assert_eq!(
            reference_cpu_slots(),
            eavm_testbed::ServerSpec::reference_rack_server().cpu_slots()
        );
        assert_eq!(reference_cpu_slots(), 4, "paper's Xeon X3220 is quad-core");
    }

    #[test]
    fn every_baseline_name_resolves_and_nothing_else_does() {
        let names: Vec<String> = BASELINE_NAMES
            .iter()
            .map(|n| baseline(n).expect("listed name resolves").name())
            .collect();
        assert_eq!(names, ["FF", "FF-2", "FF-3", "BF", "BF-2", "BF-3"]);
        assert!(baseline("pa05").is_none() && baseline("FF").is_none());
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(FirstFit::ff(slots()).name(), "FF");
        assert_eq!(FirstFit::with_multiplex(slots(), 2).name(), "FF-2");
        assert_eq!(FirstFit::with_multiplex(slots(), 3).name(), "FF-3");
    }

    #[test]
    fn capacities_scale_with_multiplex() {
        assert_eq!(FirstFit::ff(slots()).capacity(), slots());
        assert_eq!(FirstFit::with_multiplex(slots(), 2).capacity(), 2 * slots());
        assert_eq!(FirstFit::with_multiplex(slots(), 3).capacity(), 3 * slots());
    }

    #[test]
    fn fills_first_server_first() {
        let mut ff = FirstFit::ff(slots());
        let servers = vec![view(0, 0), view(1, 0)];
        let p = ff.allocate(&req(3), &servers).unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].server, ServerId::new(0));
        assert_eq!(p[0].add, MixVector::new(0, 3, 0));
        validate_placements(&req(3), &servers, &p).unwrap();
    }

    #[test]
    fn splits_across_servers_when_first_is_nearly_full() {
        let mut ff = FirstFit::ff(slots());
        let servers = vec![view(0, slots() - 1), view(1, 0)];
        let p = ff.allocate(&req(slots()), &servers).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p[0].add.total(), 1);
        assert_eq!(p[1].add.total(), slots() - 1);
        validate_placements(&req(slots()), &servers, &p).unwrap();
    }

    #[test]
    fn skips_full_servers() {
        let mut ff = FirstFit::ff(slots());
        let servers = vec![view(0, slots()), view(1, slots()), view(2, 1)];
        let p = ff.allocate(&req(2), &servers).unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].server, ServerId::new(2));
    }

    #[test]
    fn respects_multiplex_capacity() {
        let servers = vec![view(0, slots())];
        // Plain FF: the server is full at one VM per core.
        assert!(FirstFit::ff(slots()).allocate(&req(1), &servers).is_err());
        // FF-2 can still pack a full server's worth more.
        let p = FirstFit::with_multiplex(slots(), 2)
            .allocate(&req(slots()), &servers)
            .unwrap();
        assert_eq!(p[0].add.total(), slots());
        // FF-3 takes up to three VMs per core.
        let p = FirstFit::with_multiplex(slots(), 3)
            .allocate(&req(slots()), &servers)
            .unwrap();
        assert_eq!(p[0].add.total(), slots());
    }

    #[test]
    fn infeasible_when_cloud_is_saturated() {
        let mut ff = FirstFit::ff(slots());
        let servers = vec![view(0, slots()), view(1, slots())];
        let err = ff.allocate(&req(1), &servers).unwrap_err();
        assert!(matches!(err, EavmError::Infeasible(_)));
    }

    #[test]
    fn ignores_application_profile() {
        // The same counts decide regardless of workload types resident.
        let mut ff = FirstFit::with_multiplex(slots(), 2);
        let a = vec![ServerView::homogeneous(
            ServerId::new(0),
            MixVector::new(2, 2, 2),
        )];
        let b = vec![ServerView::homogeneous(
            ServerId::new(0),
            MixVector::new(6, 0, 0),
        )];
        let pa = ff.allocate(&req(2), &a).unwrap();
        let pb = ff.allocate(&req(2), &b).unwrap();
        assert_eq!(pa[0].add, pb[0].add);
    }
}
