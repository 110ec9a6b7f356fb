//! Shard workers: each shard is a `std::thread` owning a contiguous
//! block of the fleet plus its own allocator.
//!
//! A shard is the unit of state ownership — no locks, no sharing: the
//! only way to observe or mutate a shard's servers is a message on its
//! mailbox. The coordinator uses two kinds of traffic:
//!
//! * **Fast path** — `ShardMsg::TryLocal`: place a request entirely
//!   within this shard's servers and commit immediately. Shards process
//!   fast-path traffic for different requests in parallel.
//! * **Slow path** — the two-phase `ShardMsg::Reserve` /
//!   `ShardMsg::Commit` (or `ShardMsg::Abort`) sequence, which lets
//!   the coordinator place one partition atomically across several
//!   shards. A reservation carries the mixes the coordinator *expected*
//!   from its fleet mirror; a shard Nacks when its state has moved on
//!   (optimistic validation), and an aborted reservation rolls the
//!   provisional mixes back exactly. Commit/Abort need no reply: the
//!   mailbox is FIFO, so any later message observes the finished
//!   reservation.
//!
//! All placement/retirement logic lives in `ShardCore`, a plain
//! single-threaded struct, so the two-phase protocol is unit-testable
//! without spawning threads; the worker loop is a thin match over
//! `ShardMsg`.

use std::collections::BTreeMap;
use std::sync::mpsc::{Receiver, Sender};

use eavm_core::{
    AllocationModel, AllocationStrategy, DbModel, OptimizationGoal, Placement, Proactive,
    RequestView, ResilientModel, ServerView,
};
use eavm_faults::LookupFaults;
use eavm_telemetry::{Counter, Telemetry};
use eavm_types::{EavmError, Joules, MixVector, Seconds, ServerId, WorkloadType};

/// The allocator every shard (and the coordinator's global search)
/// runs: the empirical model, answered from its dense lookup table,
/// behind a fault-tolerant wrapper. The table is built once from the
/// database, so a degraded analytic answer can never end up in it.
pub(crate) type ServiceStrategy = Proactive<ResilientModel<DbModel>>;

/// Lookup counters of one allocator's model table, exposed in
/// `ServiceStats` and `ShardStats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups the table answered.
    pub hits: u64,
    /// Lookups that went to the database (mixes outside the table).
    pub misses: u64,
    /// Always 0: the table holds every in-box mix and never evicts.
    pub evictions: u64,
    /// Entries in the table.
    pub len: usize,
    /// Entries in the table (a table is always full).
    pub capacity: usize,
}

impl CacheStats {
    /// Counters of a table of `len` entries.
    pub(crate) fn of_table(hits: u64, misses: u64, len: usize) -> Self {
        CacheStats {
            hits,
            misses,
            evictions: 0,
            len,
            capacity: len,
        }
    }

    /// Hit rate in `[0, 1]` (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Merge another allocator's counters (sizes add; for aggregate
    /// reporting across shards).
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.len += other.len;
        self.capacity += other.capacity;
    }
}

/// Counter handles one allocator's model-table traffic lands on, on
/// `stripe`. The model counts in plain cells; [`TableCounters::flush`]
/// moves those counts here once per served message or search, so no
/// lookup pays for an atomic.
#[derive(Debug, Clone)]
pub(crate) struct TableCounters {
    hits: Counter,
    misses: Counter,
    stripe: usize,
}

impl TableCounters {
    /// Private single-stripe counters (the non-registry default).
    pub(crate) fn standalone() -> Self {
        TableCounters {
            hits: Counter::standalone(),
            misses: Counter::standalone(),
            stripe: 0,
        }
    }

    /// Stripe `stripe` of the service-wide `service.cache.*` counters;
    /// private standalone counters when telemetry is disabled.
    pub(crate) fn registered(telemetry: &Telemetry, stripes: usize, stripe: usize) -> Self {
        if !telemetry.is_enabled() {
            return TableCounters::standalone();
        }
        TableCounters {
            hits: telemetry.sharded_counter("service.cache.hits", stripes),
            misses: telemetry.sharded_counter("service.cache.misses", stripes),
            stripe,
        }
    }

    /// Move the lookups `strategy`'s model counted since the last flush
    /// onto this stripe.
    pub(crate) fn flush(&self, strategy: &ServiceStrategy) {
        let (hits, misses) = strategy.model().inner().take_lookup_counts();
        if hits > 0 {
            self.hits.add_on(self.stripe, hits);
        }
        if misses > 0 {
            self.misses.add_on(self.stripe, misses);
        }
    }

    /// Snapshot of this stripe, sized by `strategy`'s table.
    pub(crate) fn stats(&self, strategy: &ServiceStrategy) -> CacheStats {
        CacheStats::of_table(
            self.hits.on_stripe(self.stripe),
            self.misses.on_stripe(self.stripe),
            strategy.model().inner().table_len(),
        )
    }
}

/// One VM resident on a shard server, with its estimated completion
/// time (fixed at commit, from the post-placement mix).
#[derive(Debug, Clone, Copy)]
struct ResidentVm {
    ty: WorkloadType,
    finish: Seconds,
}

/// One server owned by a shard.
#[derive(Debug, Clone)]
struct SrvState {
    id: ServerId,
    mix: MixVector,
    resident: Vec<ResidentVm>,
}

/// An acked-but-uncommitted cross-shard reservation: the adds are
/// already folded into the server mixes (so concurrent searches see
/// them); `placements` is kept to materialize or roll back.
#[derive(Debug, Clone)]
struct PendingReservation {
    placements: Vec<Placement>,
}

/// Per-shard counters, snapshotted by `ShardCore::stats`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardStats {
    /// Shard index within the service.
    pub shard: usize,
    /// Servers owned by this shard.
    pub servers: usize,
    /// VMs currently resident (committed, not yet retired).
    pub resident_vms: usize,
    /// Fast-path placements committed locally.
    pub local_allocations: u64,
    /// Fast-path attempts that found no local placement.
    pub local_rejections: u64,
    /// Cross-shard reservations acknowledged.
    pub reserves_acked: u64,
    /// Cross-shard reservations rejected on stale expected mixes.
    pub reserves_nacked: u64,
    /// Reservations committed.
    pub commits: u64,
    /// Reservations rolled back.
    pub aborts: u64,
    /// VMs retired by virtual-clock advances.
    pub retired_vms: u64,
    /// Speculative fleet-wide searches run on behalf of the coordinator.
    pub global_searches: u64,
    /// Model lookups answered by the analytic fallback after an injected
    /// transient failure (0 without lookup-fault injection).
    pub model_fallbacks: u64,
    /// Sum of model-estimated dynamic energy of committed placements.
    pub estimated_energy: Joules,
    /// Lookup counters of this shard's model table.
    pub cache: CacheStats,
}

/// Live counter handles backing one shard's protocol counters.
///
/// Registry-backed services register one *sharded* counter per name and
/// hand every worker the same handles with a distinct stripe, so the
/// telemetry registry is the single source of truth while per-shard
/// [`ShardStats`] read their own stripe. When telemetry is disabled each
/// shard instead gets private standalone counters (stats keep working;
/// nothing is exported).
#[derive(Debug, Clone)]
pub(crate) struct ShardInstruments {
    pub local_allocations: Counter,
    pub local_rejections: Counter,
    pub reserves_acked: Counter,
    pub reserves_nacked: Counter,
    pub commits: Counter,
    pub aborts: Counter,
    pub retired_vms: Counter,
    pub global_searches: Counter,
    /// Model-table lookups of this shard's allocator.
    pub table: TableCounters,
    /// Stripe this shard writes and reads.
    pub stripe: usize,
}

impl ShardInstruments {
    /// Private single-stripe counters (for tests and disabled telemetry).
    pub(crate) fn standalone() -> Self {
        ShardInstruments {
            local_allocations: Counter::standalone(),
            local_rejections: Counter::standalone(),
            reserves_acked: Counter::standalone(),
            reserves_nacked: Counter::standalone(),
            commits: Counter::standalone(),
            aborts: Counter::standalone(),
            retired_vms: Counter::standalone(),
            global_searches: Counter::standalone(),
            table: TableCounters::standalone(),
            stripe: 0,
        }
    }

    /// Registry-backed handles writing stripe `stripe` of `stripes`-lane
    /// counters; falls back to [`ShardInstruments::standalone`] when the
    /// telemetry handle is disabled.
    pub(crate) fn registered(telemetry: &Telemetry, stripes: usize, stripe: usize) -> Self {
        if !telemetry.is_enabled() {
            return ShardInstruments::standalone();
        }
        ShardInstruments {
            local_allocations: telemetry
                .sharded_counter("service.shard.local_allocations", stripes),
            local_rejections: telemetry.sharded_counter("service.shard.local_rejections", stripes),
            reserves_acked: telemetry.sharded_counter("service.shard.reserves_acked", stripes),
            reserves_nacked: telemetry.sharded_counter("service.shard.reserves_nacked", stripes),
            commits: telemetry.sharded_counter("service.shard.commits", stripes),
            aborts: telemetry.sharded_counter("service.shard.aborts", stripes),
            retired_vms: telemetry.sharded_counter("service.shard.retired_vms", stripes),
            global_searches: telemetry.sharded_counter("service.shard.global_searches", stripes),
            // One more stripe than shards: the last is the coordinator's
            // global-search allocator.
            table: TableCounters::registered(telemetry, stripes + 1, stripe),
            stripe,
        }
    }
}

/// The single-threaded heart of a shard worker.
pub(crate) struct ShardCore {
    index: usize,
    servers: Vec<SrvState>,
    strategy: ServiceStrategy,
    clock: Seconds,
    /// Acked-but-uncommitted reservations by ticket. Ordered map: the
    /// shard is replay-critical state, so even bookkeeping never
    /// depends on hash order.
    pending: BTreeMap<u64, PendingReservation>,
    counters: ShardInstruments,
    estimated_energy: Joules,
}

impl ShardCore {
    pub(crate) fn new(
        index: usize,
        server_ids: impl IntoIterator<Item = ServerId>,
        strategy: ServiceStrategy,
        counters: ShardInstruments,
    ) -> Self {
        ShardCore {
            index,
            servers: server_ids
                .into_iter()
                .map(|id| SrvState {
                    id,
                    mix: MixVector::EMPTY,
                    resident: Vec::new(),
                })
                .collect(),
            strategy,
            clock: Seconds(0.0),
            pending: BTreeMap::new(),
            counters,
            estimated_energy: Joules(0.0),
        }
    }

    /// Rebuild a shard from the coordinator's fleet mirror after its
    /// worker died. The mirror holds only *committed* occupancy, so the
    /// restored shard is consistent by construction: any acked-but-
    /// uncommitted reservation the dead worker held is discarded (the
    /// coordinator re-drives those requests), and every resident VM gets
    /// a fresh finish estimate from `clock` — a crash loses progress,
    /// exactly like the simulator's restart accounting.
    pub(crate) fn restore(
        index: usize,
        occupancy: &[(ServerId, MixVector)],
        strategy: ServiceStrategy,
        clock: Seconds,
        counters: ShardInstruments,
    ) -> Self {
        let mut core = ShardCore {
            index,
            servers: occupancy
                .iter()
                .map(|&(id, mix)| SrvState {
                    id,
                    mix,
                    resident: Vec::new(),
                })
                .collect(),
            strategy,
            clock,
            pending: BTreeMap::new(),
            counters,
            estimated_energy: Joules(0.0),
        };
        // Two passes so the strategy borrow never overlaps the server
        // mutation (and no index arithmetic is needed): estimate every
        // resident's finish first, then move them into their servers.
        let mut energy = Joules(0.0);
        let mut materialized: Vec<Vec<ResidentVm>> = Vec::with_capacity(core.servers.len());
        for srv in &core.servers {
            let mix = srv.mix;
            let mut residents = Vec::new();
            if !mix.is_empty() {
                energy += core.strategy.model().run_energy(mix).unwrap_or(Joules(0.0));
                for (ty, count) in mix.iter().filter(|(_, count)| *count > 0) {
                    let finish = clock
                        + core
                            .strategy
                            .model()
                            .exec_time(mix, ty)
                            .unwrap_or_else(|_| core.strategy.model().solo_time(ty));
                    for _ in 0..count {
                        residents.push(ResidentVm { ty, finish });
                    }
                }
            }
            materialized.push(residents);
        }
        core.estimated_energy = energy;
        for (srv, residents) in core.servers.iter_mut().zip(materialized) {
            srv.resident = residents;
        }
        core
    }

    /// Bump one of this shard's counters on its stripe.
    fn bump(&self, counter: &Counter, n: u64) {
        counter.add_on(self.counters.stripe, n);
    }

    fn cpu_slots(&self) -> u32 {
        self.strategy.model().cpu_slots()
    }

    /// Current state of this shard's servers as strategy views.
    pub(crate) fn snapshot(&self) -> Vec<ServerView> {
        let slots = self.cpu_slots();
        self.servers
            .iter()
            .map(|s| ServerView {
                id: s.id,
                mix: s.mix,
                platform: 0,
                cpu_slots: slots,
            })
            .collect()
    }

    fn server_mut(&mut self, id: ServerId) -> Option<&mut SrvState> {
        self.servers.iter_mut().find(|s| s.id == id)
    }

    /// Fold `add` into the server's mix and materialize resident VMs
    /// with finish times estimated from the post-placement mix.
    fn materialize(&mut self, placement: &Placement) -> Result<(), EavmError> {
        let clock = self.clock;
        // Per-type finish estimates come from the (already updated) mix.
        let mix = self
            .server_mut(placement.server)
            .ok_or_else(|| EavmError::Infeasible(format!("unknown server {}", placement.server)))?
            .mix;
        // Estimate every finish before touching the server again, so no
        // second (fallible) lookup happens inside the mutation loop.
        let mut fresh: Vec<ResidentVm> = Vec::new();
        for (ty, count) in placement.add.iter().filter(|(_, count)| *count > 0) {
            let finish = clock + self.strategy.model().exec_time(mix, ty)?;
            for _ in 0..count {
                fresh.push(ResidentVm { ty, finish });
            }
        }
        if let Some(srv) = self.server_mut(placement.server) {
            srv.resident.extend(fresh);
        }
        Ok(())
    }

    /// Model-estimated dynamic energy delta of adding `add` onto `old`.
    fn energy_delta(&self, old: MixVector, add: MixVector) -> Joules {
        let model = self.strategy.model();
        let before = if old.is_empty() {
            Joules(0.0)
        } else {
            model.run_energy(old).unwrap_or(Joules(0.0))
        };
        let after = model.run_energy(old + add).unwrap_or(before);
        after - before
    }

    /// Fast path: place `request` entirely inside this shard and commit
    /// immediately. `None` means no feasible local placement.
    pub(crate) fn try_local(&mut self, request: &RequestView) -> Option<Vec<Placement>> {
        let views = self.snapshot();
        match self.strategy.allocate(request, &views) {
            Ok(placements) => {
                for p in &placements {
                    let old = self.server_mut(p.server).map(|s| s.mix)?;
                    self.estimated_energy += self.energy_delta(old, p.add);
                    self.server_mut(p.server)?.mix = old + p.add;
                    self.materialize(p).ok()?;
                }
                self.bump(&self.counters.local_allocations, 1);
                Some(placements)
            }
            Err(_) => {
                self.bump(&self.counters.local_rejections, 1);
                None
            }
        }
    }

    /// Speculative slow-path search on behalf of the coordinator: run
    /// the partition search over a *fleet-wide* snapshot without
    /// touching this shard's state. The coordinator validates the
    /// proposal against live shard state via the two-phase reserve.
    pub(crate) fn search_global(
        &mut self,
        request: &RequestView,
        fleet: &[ServerView],
    ) -> Option<Vec<Placement>> {
        self.bump(&self.counters.global_searches, 1);
        self.strategy.allocate(request, fleet).ok()
    }

    /// Phase one of cross-shard placement: validate the coordinator's
    /// snapshot and provisionally apply the adds. Returns `false` (Nack)
    /// if any expected mix is stale; the shard state is untouched then.
    pub(crate) fn reserve(
        &mut self,
        ticket: u64,
        expected: &[(ServerId, MixVector)],
        placements: Vec<Placement>,
    ) -> bool {
        let stale = expected.iter().any(|(id, mix)| {
            self.servers
                .iter()
                .find(|s| s.id == *id)
                .map(|s| s.mix != *mix)
                .unwrap_or(true)
        });
        if stale || self.pending.contains_key(&ticket) {
            self.bump(&self.counters.reserves_nacked, 1);
            return false;
        }
        for p in &placements {
            if let Some(srv) = self.server_mut(p.server) {
                srv.mix += p.add;
            }
        }
        self.pending
            .insert(ticket, PendingReservation { placements });
        self.bump(&self.counters.reserves_acked, 1);
        true
    }

    /// Phase two, success: turn the reservation's provisional mixes into
    /// resident VMs and account their energy.
    pub(crate) fn commit(&mut self, ticket: u64) {
        let Some(reservation) = self.pending.remove(&ticket) else {
            return;
        };
        for p in &reservation.placements {
            let new_mix = self.server_mut(p.server).map(|s| s.mix).unwrap_or_default();
            let old = new_mix.checked_sub(&p.add);
            debug_assert!(
                old.is_some(),
                "committing ticket on shard {}: reserved add {:?} not in live mix {:?}",
                self.index,
                p.add,
                new_mix
            );
            if let Some(old) = old {
                self.estimated_energy += self.energy_delta(old, p.add);
            }
            let _ = self.materialize(p);
        }
        self.bump(&self.counters.commits, 1);
    }

    /// Phase two, failure: roll the provisional mixes back exactly.
    pub(crate) fn abort(&mut self, ticket: u64) {
        let Some(reservation) = self.pending.remove(&ticket) else {
            return;
        };
        let index = self.index;
        for p in &reservation.placements {
            if let Some(srv) = self.server_mut(p.server) {
                let rolled = srv.mix.checked_sub(&p.add);
                debug_assert!(
                    rolled.is_some(),
                    "aborting ticket on shard {index}: reserved add {:?} not in live mix {:?}",
                    p.add,
                    srv.mix
                );
                // A shard worker must never panic (supervision treats a
                // panic as a crash); an unsubtractable rollback is a
                // protocol bug surfaced by the debug_assert, and release
                // builds keep the mix unchanged rather than dying.
                if let Some(rolled) = rolled {
                    srv.mix = rolled;
                }
            }
        }
        self.bump(&self.counters.aborts, 1);
    }

    /// Advance the virtual clock, retiring every VM whose estimated
    /// finish is at or before `t`. Returns the number retired plus the
    /// per-server freed mixes (so the coordinator can keep its fleet
    /// mirror exact without a snapshot round trip).
    pub(crate) fn advance_to(&mut self, t: Seconds) -> (usize, Vec<(ServerId, MixVector)>) {
        self.clock = self.clock.max(t);
        let mut retired = 0;
        let mut freed = Vec::new();
        for srv in &mut self.servers {
            let mut freed_here = MixVector::EMPTY;
            srv.resident.retain(|vm| {
                let done = vm.finish.0 <= t.0;
                if done {
                    freed_here += MixVector::single(vm.ty, 1);
                }
                !done
            });
            if !freed_here.is_empty() {
                let shrunk = srv.mix.checked_sub(&freed_here);
                debug_assert!(
                    shrunk.is_some(),
                    "retiring on server {}: freed {:?} not in mix {:?}",
                    srv.id,
                    freed_here,
                    srv.mix
                );
                srv.mix = shrunk.unwrap_or_default();
                retired += freed_here.total() as usize;
                freed.push((srv.id, freed_here));
            }
        }
        self.bump(&self.counters.retired_vms, retired as u64);
        (retired, freed)
    }

    /// Consolidation drain: remove the first resident VM of `ty` from
    /// `server` and return its estimated finish instant. `None` when
    /// the server is unknown or hosts no VM of that type — the
    /// coordinator skips the move then, leaving its mirror untouched.
    /// "First in `resident` order" is what makes a live drain and its
    /// re-execution in recovery pick the *same* VM (resident vectors
    /// load bit-exact from checkpoints).
    pub(crate) fn drain_vm(&mut self, server: ServerId, ty: WorkloadType) -> Option<Seconds> {
        let srv = self.server_mut(server)?;
        let pos = srv.resident.iter().position(|vm| vm.ty == ty)?;
        let shrunk = srv.mix.checked_sub(&MixVector::single(ty, 1))?;
        let vm = srv.resident.remove(pos);
        srv.mix = shrunk;
        Some(vm.finish)
    }

    /// Consolidation landing: host a drained VM on `server` with its
    /// migration-delayed finish instant. Appends to the resident vector
    /// (order matters for replay; see [`ShardCore::drain_vm`]). Returns
    /// `false` for an unknown server.
    pub(crate) fn inject_vm(
        &mut self,
        server: ServerId,
        ty: WorkloadType,
        finish: Seconds,
    ) -> bool {
        match self.server_mut(server) {
            Some(srv) => {
                srv.mix += MixVector::single(ty, 1);
                srv.resident.push(ResidentVm { ty, finish });
                true
            }
            None => false,
        }
    }

    /// Earliest estimated VM completion on this shard, if any.
    pub(crate) fn next_finish(&self) -> Option<Seconds> {
        self.servers
            .iter()
            .flat_map(|s| s.resident.iter().map(|vm| vm.finish))
            .reduce(Seconds::min)
    }

    /// Serialize this shard's placement state for a durability
    /// checkpoint: clock, accumulated energy, and every resident VM
    /// with its bit-exact finish time.
    pub(crate) fn dump(&self) -> ShardDump {
        ShardDump {
            clock: self.clock,
            energy: self.estimated_energy,
            servers: self
                .servers
                .iter()
                .map(|s| {
                    (
                        s.id,
                        s.resident.iter().map(|vm| (vm.ty, vm.finish)).collect(),
                    )
                })
                .collect(),
        }
    }

    /// Load a checkpoint dump into this core, replacing its placement
    /// state. Unlike [`ShardCore::restore`] (worker-crash path, which
    /// re-estimates finishes from the restore clock and so *loses*
    /// progress), this keeps every resident's persisted finish time, so
    /// a recovered process retires VMs at exactly the virtual instants
    /// the crashed one would have — the keystone of bit-exact recovery.
    pub(crate) fn load_dump(&mut self, dump: &ShardDump) {
        self.servers = dump
            .servers
            .iter()
            .map(|(id, residents)| {
                let mut mix = MixVector::EMPTY;
                for &(ty, _) in residents {
                    mix += MixVector::single(ty, 1);
                }
                SrvState {
                    id: *id,
                    mix,
                    resident: residents
                        .iter()
                        .map(|&(ty, finish)| ResidentVm { ty, finish })
                        .collect(),
                }
            })
            .collect();
        self.clock = dump.clock;
        self.pending.clear();
        self.estimated_energy = dump.energy;
    }

    /// Build a fresh shard directly from a checkpoint dump; see
    /// [`ShardCore::load_dump`].
    #[cfg(test)]
    pub(crate) fn from_dump(
        index: usize,
        dump: &ShardDump,
        strategy: ServiceStrategy,
        counters: ShardInstruments,
    ) -> Self {
        let mut core = ShardCore::new(index, Vec::<ServerId>::new(), strategy, counters);
        core.load_dump(dump);
        core
    }

    pub(crate) fn stats(&self) -> ShardStats {
        let c = &self.counters;
        let read = |counter: &Counter| counter.on_stripe(c.stripe);
        ShardStats {
            shard: self.index,
            servers: self.servers.len(),
            resident_vms: self.servers.iter().map(|s| s.resident.len()).sum(),
            local_allocations: read(&c.local_allocations),
            local_rejections: read(&c.local_rejections),
            reserves_acked: read(&c.reserves_acked),
            reserves_nacked: read(&c.reserves_nacked),
            commits: read(&c.commits),
            aborts: read(&c.aborts),
            retired_vms: read(&c.retired_vms),
            global_searches: read(&c.global_searches),
            model_fallbacks: self.strategy.model().model_fallbacks(),
            estimated_energy: self.estimated_energy,
            cache: c.table.stats(&self.strategy),
        }
    }
}

/// One shard's placement state serialized for a checkpoint: per-server
/// resident VMs carrying their exact finish instants.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ShardDump {
    pub clock: Seconds,
    pub energy: Joules,
    pub servers: Vec<(ServerId, Vec<(WorkloadType, Seconds)>)>,
}

/// Reply to `ShardMsg::TryLocal`: the committed placements (if the
/// request fit locally) plus whatever the piggybacked clock advance
/// retired, so the coordinator's fleet mirror stays exact without a
/// separate advance fan-out per submission burst.
pub(crate) struct TryLocalReply {
    pub placements: Option<Vec<Placement>>,
    pub freed: Vec<(ServerId, MixVector)>,
}

/// Mailbox protocol between coordinator and shard worker.
pub(crate) enum ShardMsg {
    /// Fast path: advance this shard's clock to the request's submit
    /// instant, then attempt a fully-local placement, committing on
    /// success.
    TryLocal {
        request: RequestView,
        now: Seconds,
        reply: Sender<TryLocalReply>,
    },
    /// Speculative fleet-wide search over a coordinator snapshot.
    SearchGlobal {
        request: RequestView,
        fleet: Vec<ServerView>,
        reply: Sender<Option<Vec<Placement>>>,
    },
    /// Two-phase reserve; `true` = Ack.
    Reserve {
        ticket: u64,
        expected: Vec<(ServerId, MixVector)>,
        placements: Vec<Placement>,
        reply: Sender<bool>,
    },
    /// Commit a previously acked reservation (fire-and-forget).
    Commit { ticket: u64 },
    /// Roll back a previously acked reservation (fire-and-forget).
    Abort { ticket: u64 },
    /// Advance the virtual clock; replies with the number of retired
    /// VMs and the per-server freed mixes.
    AdvanceTo {
        t: Seconds,
        done: Sender<(usize, Vec<(ServerId, MixVector)>)>,
    },
    /// Consolidation: drain the first resident VM of `ty` from
    /// `server`, replying with its finish instant (`None` = no such VM).
    DrainVm {
        server: ServerId,
        ty: WorkloadType,
        reply: Sender<Option<Seconds>>,
    },
    /// Consolidation: land a drained VM on `server` with its
    /// stall-delayed finish; `false` = unknown server.
    InjectVm {
        server: ServerId,
        ty: WorkloadType,
        finish: Seconds,
        done: Sender<bool>,
    },
    /// Earliest estimated completion on this shard.
    NextFinish { reply: Sender<Option<Seconds>> },
    /// Counter snapshot.
    Stats { reply: Sender<ShardStats> },
    /// Full placement-state dump for a durability checkpoint.
    Dump { reply: Sender<ShardDump> },
    /// Terminate the worker loop.
    Shutdown,
}

/// The shard worker thread body: serve mailbox messages until shutdown.
///
/// `kill_after` is the injected-fault switch: `Some(n)` makes the
/// worker panic immediately before serving its `n`-th message,
/// unwinding out of the loop. The unwind drops the mailbox receiver, so
/// the coordinator observes the death as a disconnected channel —
/// exactly what a crashed worker looks like — and respawns the shard
/// from its fleet mirror. Respawned workers always run with `None`.
pub(crate) fn run_worker(mut core: ShardCore, rx: Receiver<ShardMsg>, kill_after: Option<u64>) {
    let mut remaining = kill_after;
    while let Ok(msg) = rx.recv() {
        if let Some(n) = remaining.as_mut() {
            if *n == 0 {
                // eavm-lint: allow(P1, reason = "the injected-fault kill switch: this panic IS the simulated worker crash the supervisor must detect")
                panic!("injected fault: shard {} worker killed", core.index);
            }
            *n -= 1;
        }
        match msg {
            ShardMsg::TryLocal {
                request,
                now,
                reply,
            } => {
                let (_, freed) = core.advance_to(now);
                let _ = reply.send(TryLocalReply {
                    placements: core.try_local(&request),
                    freed,
                });
            }
            ShardMsg::SearchGlobal {
                request,
                fleet,
                reply,
            } => {
                let _ = reply.send(core.search_global(&request, &fleet));
            }
            ShardMsg::Reserve {
                ticket,
                expected,
                placements,
                reply,
            } => {
                let _ = reply.send(core.reserve(ticket, &expected, placements));
            }
            ShardMsg::Commit { ticket } => {
                core.commit(ticket);
            }
            ShardMsg::Abort { ticket } => {
                core.abort(ticket);
            }
            ShardMsg::AdvanceTo { t, done } => {
                let _ = done.send(core.advance_to(t));
            }
            ShardMsg::DrainVm { server, ty, reply } => {
                let _ = reply.send(core.drain_vm(server, ty));
            }
            ShardMsg::InjectVm {
                server,
                ty,
                finish,
                done,
            } => {
                let _ = done.send(core.inject_vm(server, ty, finish));
            }
            ShardMsg::NextFinish { reply } => {
                let _ = reply.send(core.next_finish());
            }
            ShardMsg::Stats { reply } => {
                let _ = reply.send(core.stats());
            }
            ShardMsg::Dump { reply } => {
                let _ = reply.send(core.dump());
            }
            ShardMsg::Shutdown => break,
        }
        core.counters.table.flush(&core.strategy);
    }
}

/// Build the per-shard allocator used by both shard workers and the
/// coordinator's global search, counting partition-search work into
/// `search_metrics` and injected-lookup-failure fallbacks into stripe
/// `fallback_stripe` of `fallbacks`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn build_strategy(
    db: eavm_benchdb::ModelDatabase,
    goal: OptimizationGoal,
    deadlines: [Seconds; 3],
    qos_margin: f64,
    search_metrics: eavm_core::SearchMetrics,
    lookup_faults: LookupFaults,
    fallbacks: Counter,
    fallback_stripe: usize,
) -> ServiceStrategy {
    Proactive::new(
        ResilientModel::with_faults(DbModel::new(db), lookup_faults, fallbacks, fallback_stripe),
        goal,
        deadlines,
    )
    .with_qos_margin(qos_margin)
    .with_search_metrics(search_metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eavm_benchdb::DbBuilder;
    use eavm_types::JobId;

    fn deadlines() -> [Seconds; 3] {
        [Seconds(6000.0), Seconds(6000.0), Seconds(6000.0)]
    }

    fn strategy() -> ServiceStrategy {
        let db = DbBuilder::exact().build().expect("db");
        build_strategy(
            db,
            OptimizationGoal::BALANCED,
            deadlines(),
            1.0,
            eavm_core::SearchMetrics::default(),
            LookupFaults::disabled(),
            Counter::noop(),
            0,
        )
    }

    fn core(n: usize) -> ShardCore {
        ShardCore::new(
            0,
            (0..n).map(ServerId::from),
            strategy(),
            ShardInstruments::standalone(),
        )
    }

    fn request(id: u32, ty: WorkloadType, vms: u32) -> RequestView {
        RequestView {
            id: JobId::new(id),
            workload: ty,
            vm_count: vms,
            deadline: deadlines()[ty.index()],
        }
    }

    #[test]
    fn try_local_commits_and_later_advance_retires() {
        let mut core = core(2);
        let placements = core
            .try_local(&request(1, WorkloadType::Cpu, 3))
            .expect("feasible on empty shard");
        let placed: u32 = placements.iter().map(|p| p.add.total()).sum();
        assert_eq!(placed, 3);
        let stats = core.stats();
        assert_eq!(stats.resident_vms, 3);
        assert_eq!(stats.local_allocations, 1);
        assert!(stats.estimated_energy.0 > 0.0);

        let finish = core.next_finish().expect("resident vms have finishes");
        assert!(finish.0 > 0.0);
        // Advancing short of the earliest finish retires nothing.
        let (retired, freed) = core.advance_to(Seconds(finish.0 / 2.0));
        assert_eq!(retired, 0);
        assert!(freed.is_empty());
        // Advancing past the last finish empties the shard and reports
        // the freed mixes per server.
        let (retired, freed) = core.advance_to(Seconds(finish.0 * 100.0));
        assert_eq!(retired, 3);
        assert_eq!(freed.iter().map(|(_, m)| m.total()).sum::<u32>(), 3);
        let stats = core.stats();
        assert_eq!(stats.resident_vms, 0);
        assert_eq!(stats.retired_vms, 3);
        assert!(core.snapshot().iter().all(|s| s.mix.is_empty()));
    }

    #[test]
    fn reserve_commit_materializes_and_reserve_abort_rolls_back() {
        let mut core = core(2);
        let target = ServerId::new(0);
        let add = MixVector::new(2, 0, 0);
        let expected = vec![(target, MixVector::EMPTY)];
        let placement = Placement {
            server: target,
            add,
        };

        assert!(core.reserve(7, &expected, vec![placement]));
        // The provisional mix is visible immediately.
        assert_eq!(core.snapshot()[0].mix, add);
        // ...but nothing is resident until commit.
        assert_eq!(core.stats().resident_vms, 0);
        core.commit(7);
        assert_eq!(core.stats().resident_vms, 2);
        assert_eq!(core.stats().commits, 1);

        // A second reservation rolled back leaves the committed state.
        assert!(core.reserve(8, &[(target, add)], vec![placement]));
        core.abort(8);
        assert_eq!(core.snapshot()[0].mix, add);
        assert_eq!(core.stats().aborts, 1);
        assert_eq!(core.stats().resident_vms, 2);
    }

    #[test]
    fn stale_expected_mix_nacks_without_side_effects() {
        let mut core = core(1);
        let target = ServerId::new(0);
        core.try_local(&request(1, WorkloadType::Mem, 1))
            .expect("feasible");
        let occupied = core.snapshot()[0].mix;
        assert!(!occupied.is_empty());

        // Coordinator's snapshot predates the fast-path commit.
        let stale = vec![(target, MixVector::EMPTY)];
        let ok = core.reserve(
            9,
            &stale,
            vec![Placement {
                server: target,
                add: MixVector::new(1, 0, 0),
            }],
        );
        assert!(!ok);
        assert_eq!(core.stats().reserves_nacked, 1);
        assert_eq!(core.snapshot()[0].mix, occupied);
        // Ticket 9 left no pending state: a commit of it is a no-op.
        core.commit(9);
        assert_eq!(core.stats().commits, 0);
    }

    #[test]
    fn restore_rebuilds_residents_from_committed_occupancy() {
        // Commit some load, snapshot the mixes (= what the coordinator's
        // mirror would hold), then rebuild a fresh core from them.
        let mut original = core(2);
        original
            .try_local(&request(1, WorkloadType::Cpu, 3))
            .expect("feasible");
        original
            .try_local(&request(2, WorkloadType::Io, 2))
            .expect("feasible");
        let occupancy: Vec<(ServerId, MixVector)> =
            original.snapshot().iter().map(|s| (s.id, s.mix)).collect();

        let restored = ShardCore::restore(
            0,
            &occupancy,
            strategy(),
            Seconds(500.0),
            ShardInstruments::standalone(),
        );
        let stats = restored.stats();
        assert_eq!(stats.resident_vms, 5, "every committed VM must survive");
        assert!(stats.estimated_energy.0 > 0.0);
        // Mix-for-mix identical to the dead shard's committed state.
        let restored_occ: Vec<(ServerId, MixVector)> =
            restored.snapshot().iter().map(|s| (s.id, s.mix)).collect();
        assert_eq!(restored_occ, occupancy);
        // Restored finishes restart from the restore clock: all strictly
        // after it (crash loses progress, never time-travels).
        let finish = restored.next_finish().expect("residents have finishes");
        assert!(finish > Seconds(500.0));
    }

    #[test]
    fn dump_round_trips_bit_exact() {
        let mut live = core(2);
        live.try_local(&request(1, WorkloadType::Cpu, 3))
            .expect("feasible");
        live.try_local(&request(2, WorkloadType::Io, 2))
            .expect("feasible");

        // from_dump(dump()) preserves mixes, energy, clock, and every
        // finish instant bit-exact.
        let dump = live.dump();
        let twin = ShardCore::from_dump(0, &dump, strategy(), ShardInstruments::standalone());
        assert_eq!(twin.dump(), dump);
        assert_eq!(
            twin.estimated_energy.0.to_bits(),
            live.estimated_energy.0.to_bits()
        );
        assert_eq!(
            twin.next_finish().unwrap().0.to_bits(),
            live.next_finish().unwrap().0.to_bits()
        );
    }

    #[test]
    fn drain_then_inject_preserves_the_vm_and_delays_its_finish() {
        let mut core = core(2);
        core.try_local(&request(1, WorkloadType::Cpu, 2))
            .expect("feasible");
        let before = core.stats().resident_vms;
        let donor = core
            .servers
            .iter()
            .find(|s| !s.mix.is_empty())
            .map(|s| s.id)
            .expect("placed somewhere");
        let receiver = core
            .servers
            .iter()
            .find(|s| s.id != donor)
            .map(|s| s.id)
            .expect("two servers");

        // No IO VM is resident: the drain refuses without side effects.
        assert_eq!(core.drain_vm(donor, WorkloadType::Io), None);

        let finish = core
            .drain_vm(donor, WorkloadType::Cpu)
            .expect("a cpu vm is resident");
        let stall = Seconds(1.5);
        assert!(core.inject_vm(receiver, WorkloadType::Cpu, finish + stall));
        assert_eq!(core.stats().resident_vms, before, "vm conservation");
        assert_eq!(
            core.server_mut(receiver).unwrap().mix,
            MixVector::new(1, 0, 0)
        );
        // The moved VM's finish carries the migration stall bit-exact.
        let moved = core.server_mut(receiver).unwrap().resident[0];
        assert_eq!(moved.finish.0.to_bits(), (finish + stall).0.to_bits());
        // Unknown servers are refused, not panicked on.
        assert!(!core.inject_vm(ServerId::new(99), WorkloadType::Cpu, finish));
        assert_eq!(core.drain_vm(ServerId::new(99), WorkloadType::Cpu), None);
    }

    #[test]
    fn local_infeasible_on_saturated_shard() {
        let mut core = core(1);
        // Fill the one server to its OS bound for CPU VMs.
        let bound = core.strategy.model().max_mix().cpu;
        for i in 0..bound {
            // One at a time: each is feasible until the bound is hit.
            if core.try_local(&request(i, WorkloadType::Cpu, 1)).is_none() {
                break;
            }
        }
        assert!(core.try_local(&request(99, WorkloadType::Cpu, 1)).is_none());
        assert!(core.stats().local_rejections >= 1);
    }
}
