//! The PROACTIVE application-centric allocator (Sect. III-D, Fig. 3).
//!
//! Control flow per incoming request, mirroring the paper's component
//! diagram:
//!
//! 1. **Partition search** — enumerate the set partitions of the
//!    request's VMs. VMs of one request share a workload profile, so the
//!    multiset enumeration from `eavm-partitions` is used (Orlov's RGS
//!    generator backs the general case; for `n` interchangeable VMs the
//!    candidates collapse to the integer partitions of `n`).
//! 2. **Per-block placement** — for each block of a partition, evaluate
//!    every active server plus one powered-off server: the block joins
//!    the server's current mix, the resulting mix is checked against the
//!    model's hostable bounds and the per-type QoS deadlines (estimated
//!    execution time of *every* resident type must stay within its
//!    deadline), and the feasible candidates are ranked by the
//!    optimization goal. Ties choose "the first server of the list".
//!    Servers on one platform with equal tentative mixes form a class
//!    that the model answers once per block; the ranking still scans
//!    servers in list order, so the choice is the per-server one.
//! 3. **Partition ranking** — each fully placed partition is scored as
//!    `α·(Ê/Ê_min) + (1−α)·(T̂/T̂_min)` where `Ê` is the summed
//!    incremental run energy of its placements and `T̂` the slowest
//!    block's estimated execution time; the best partition wins.
//!
//! Returning [`EavmError::Infeasible`] (no partition places) tells the
//! simulator to queue the request, exactly like a saturated cloud.

use std::ops::Range;

use eavm_partitions::for_each_multiset_partition;
use eavm_telemetry::Counter;
use eavm_types::{EavmError, Joules, MixVector, Seconds, WorkloadType};

use crate::goal::OptimizationGoal;
use crate::model::{AllocationModel, MixEstimate};
use crate::strategy::{AllocationStrategy, Placement, RequestView, ServerView};

/// Caps bounding the brute-force search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchCaps {
    /// Maximum number of partitions evaluated per request (the integer
    /// partitions of 4 VMs are only 5, but burst-level allocation can
    /// inflate the space).
    pub max_partitions: usize,
}

impl Default for SearchCaps {
    fn default() -> Self {
        SearchCaps {
            max_partitions: 4_096,
        }
    }
}

/// Counters observing the partition search. The default is all-no-op
/// handles (a dropped write is a branch on `None`), so an allocator built
/// without [`Proactive::with_search_metrics`] pays nothing.
///
/// Counts are accumulated locally during a search and flushed with one
/// atomic add per counter at the end, onto `stripe` — sharded services
/// give each worker its own stripe of one shared counter.
#[derive(Debug, Clone, Default)]
pub struct SearchMetrics {
    /// Searches run (one per [`Proactive::explain`] or `allocate` call).
    pub searches: Counter,
    /// Partitions pulled from the enumeration and placed (or attempted).
    pub partitions_evaluated: Counter,
    /// Partitions whose every block found a feasible server.
    pub partitions_feasible: Counter,
    /// Per-block server candidates rejected by hostability/QoS checks.
    pub candidates_pruned: Counter,
    /// Stripe index this allocator writes (wraps modulo stripe count).
    pub stripe: usize,
}

/// Marks "no class": in [`Scratch::slots`], and in [`Scratch::class_of`]
/// for servers that are not candidates.
const NO_CLASS: u32 = u32::MAX;

/// Largest summed `max_mix()` box over all platforms indexed densely;
/// past it classes are found by a scan of the search's class list.
const MAX_SLOTS: usize = 1 << 16;

/// Candidate servers on one model whose (tentative) mixes are equal.
/// The model answers every member alike, so each block is scored once
/// per class.
#[derive(Debug, Clone, Copy)]
struct Class {
    /// Index into [`Proactive::models`].
    model: usize,
    mix: MixVector,
    /// Run energy of `mix`: zero when empty, `None` when the model
    /// cannot estimate it.
    resident: Option<Joules>,
    /// Current members, and members at the start of the search.
    live: u32,
    base_live: u32,
    /// This block's score in [`Scratch::viable`], `None` when the class
    /// cannot take the block.
    viable: Option<u32>,
    /// Whether the class beats the incumbent, valid while `seen` equals
    /// the scan's count of incumbents so far.
    seen: u32,
    beats: bool,
}

/// A server the current partition changed: it received blocks, or it
/// is an empty server that became its platform's candidate when the one
/// before it filled.
#[derive(Debug, Clone, Copy)]
struct Extra {
    pos: u32,
    /// Its class at the start of the search.
    base: u32,
    /// VMs this partition adds to the server.
    add: MixVector,
}

/// A class's score for the current block.
#[derive(Debug, Clone, Copy)]
struct Viable {
    class: usize,
    d_energy: Joules,
    block_time: Seconds,
    /// Run energy of the class's mix plus the block.
    energy: Joules,
}

/// One partition whose every block placed; ranges index
/// [`Scratch::found_blocks`] and [`Scratch::placements`].
#[derive(Debug, Clone)]
struct Found {
    blocks: Range<usize>,
    placements: Range<usize>,
    energy: Joules,
    time: Seconds,
    score: f64,
}

/// Working buffers of one search. [`Proactive::allocate`] keeps them
/// between searches, so a search allocates nothing once they have
/// grown; [`Proactive::explain`] starts from empty ones.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// Each model's `max_mix()` and the start of its box in `slots`.
    bounds: Vec<MixVector>,
    offsets: Vec<usize>,
    /// Dense (model, mix) → index into `classes`, [`NO_CLASS`] outside
    /// the search's classes; empty when the boxes exceed [`MAX_SLOTS`].
    slots: Vec<u32>,
    classes: Vec<Class>,
    /// Classes present at the start of the search; the rest were made
    /// by the current partition.
    base_classes: usize,
    /// Each server's current class.
    class_of: Vec<u32>,
    /// Platforms whose first empty server is already a candidate.
    empty_platforms: Vec<u32>,
    /// Non-empty servers outside their model's box: pruned for every
    /// block without a lookup.
    unhostable: u64,
    extras: Vec<Extra>,
    viable: Vec<Viable>,
    blocks: Vec<MixVector>,
    found: Vec<Found>,
    found_blocks: Vec<MixVector>,
    placements: Vec<Placement>,
}

impl Scratch {
    /// Dense slot of an in-box mix of `model`.
    fn slot(&self, model: usize, mix: MixVector) -> usize {
        let b = self.bounds[model];
        self.offsets[model]
            + (mix.cpu as usize * (b.mem as usize + 1) + mix.mem as usize) * (b.io as usize + 1)
            + mix.io as usize
    }

    fn find(&self, model: usize, mix: MixVector) -> Option<usize> {
        if self.slots.is_empty() {
            return self
                .classes
                .iter()
                .position(|c| c.model == model && c.mix == mix);
        }
        let c = self.slots[self.slot(model, mix)];
        (c != NO_CLASS).then_some(c as usize)
    }

    /// The class of an in-box `mix` on `model`, made (with the resident
    /// energy `resident` gives) if the search has none yet.
    fn intern(
        &mut self,
        model: usize,
        mix: MixVector,
        resident: impl FnOnce() -> Option<Joules>,
    ) -> usize {
        if let Some(c) = self.find(model, mix) {
            return c;
        }
        let c = self.classes.len();
        self.classes.push(Class {
            model,
            mix,
            resident: resident(),
            live: 0,
            base_live: 0,
            viable: None,
            seen: 0,
            beats: false,
        });
        if !self.slots.is_empty() {
            let slot = self.slot(model, mix);
            self.slots[slot] = c as u32;
        }
        c
    }

    /// Drop every class from `keep` on, clearing their slots.
    fn forget_classes(&mut self, keep: usize) {
        if !self.slots.is_empty() {
            for c in keep..self.classes.len() {
                let slot = self.slot(self.classes[c].model, self.classes[c].mix);
                self.slots[slot] = NO_CLASS;
            }
        }
        self.classes.truncate(keep);
    }

    /// Return the servers and classes to the search's starting state.
    fn undo_partition(&mut self) {
        for x in self.extras.drain(..) {
            self.class_of[x.pos as usize] = x.base;
        }
        self.forget_classes(self.base_classes);
        for c in &mut self.classes {
            c.live = c.base_live;
        }
    }
}

/// One explained partition candidate: the Fig. 3 "rank" step's working
/// data, exposed for inspection and the `fig3_flow` experiment binary.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionCandidate {
    /// The partition's blocks (per-type VM counts).
    pub blocks: Vec<MixVector>,
    /// Greedily chosen placements for each block.
    pub placements: Vec<Placement>,
    /// Summed incremental run energy of the placements.
    pub energy: Joules,
    /// Estimated execution time of the slowest block.
    pub time: Seconds,
    /// Goal score, normalized against the best candidate (1.0 = best on
    /// both axes); lower is better.
    pub score: f64,
    /// `true` for the candidate [`Proactive::allocate`] would pick.
    pub chosen: bool,
}

/// The PROACTIVE allocation strategy.
///
/// Holds one allocation model per hardware platform (a single model in
/// the paper's homogeneous setting); candidate servers are estimated
/// against the model of *their* platform, which is the heterogeneous
/// extension the paper lists as future work.
///
/// Servers on one platform with equal mixes share one lookup per block,
/// so the choices equal a per-server search when each model is a
/// function of the mix. A model that answers one mix differently from
/// call to call (`ResilientModel` with faults armed) still gives
/// deterministic choices, but not the per-server search's.
#[derive(Debug, Clone)]
pub struct Proactive<M> {
    /// One model per platform, indexed by [`ServerView::platform`].
    models: Vec<M>,
    goal: OptimizationGoal,
    /// Per-type response-time deadlines (QoS guarantees).
    deadlines: [Seconds; 3],
    /// "The algorithm can be relaxed by disregarding the QoS guarantees
    /// but it might be not acceptable for production system."
    enforce_qos: bool,
    /// Planning headroom: a placement is feasible only if every resident
    /// type's estimated execution time stays within `qos_margin ×
    /// deadline`. Values below 1 reserve deadline budget for queueing
    /// delay (the deadline is a *response-time* bound, but the allocator
    /// can only control the execution-time share of it).
    qos_margin: f64,
    caps: SearchCaps,
    metrics: SearchMetrics,
    scratch: Scratch,
}

impl<M: AllocationModel> Proactive<M> {
    /// Build a PROACTIVE allocator over a model with per-type deadlines
    /// (homogeneous fleet).
    pub fn new(model: M, goal: OptimizationGoal, deadlines: [Seconds; 3]) -> Self {
        Self::heterogeneous(vec![model], goal, deadlines)
    }

    /// Build a platform-aware allocator: one model per hardware platform,
    /// indexed by [`ServerView::platform`]. Panics on an empty model list.
    pub fn heterogeneous(models: Vec<M>, goal: OptimizationGoal, deadlines: [Seconds; 3]) -> Self {
        assert!(!models.is_empty(), "at least one platform model required");
        Proactive {
            models,
            goal,
            deadlines,
            enforce_qos: true,
            qos_margin: 1.0,
            caps: SearchCaps::default(),
            metrics: SearchMetrics::default(),
            scratch: Scratch::default(),
        }
    }

    /// Disable/enable the QoS feasibility filter.
    pub fn with_qos_enforcement(mut self, enforce: bool) -> Self {
        self.enforce_qos = enforce;
        self
    }

    /// Set the planning headroom (fraction of each deadline the estimated
    /// execution time may consume; must be in `(0, 1]`).
    pub fn with_qos_margin(mut self, margin: f64) -> Self {
        assert!(
            margin > 0.0 && margin <= 1.0,
            "qos margin must be in (0, 1]"
        );
        self.qos_margin = margin;
        self
    }

    /// Override the search caps.
    pub fn with_caps(mut self, caps: SearchCaps) -> Self {
        self.caps = caps;
        self
    }

    /// Attach search counters (see [`SearchMetrics`]).
    pub fn with_search_metrics(mut self, metrics: SearchMetrics) -> Self {
        self.metrics = metrics;
        self
    }

    /// The model backing this allocator's reference platform.
    pub fn model(&self) -> &M {
        &self.models[0]
    }

    /// The configured goal.
    pub fn goal(&self) -> OptimizationGoal {
        self.goal
    }

    /// Index of a platform's model (unknown platforms fall back to the
    /// reference platform's model).
    fn model_index(&self, platform: u32) -> usize {
        let i = platform as usize;
        if i < self.models.len() {
            i
        } else {
            0
        }
    }

    /// Check hostability + QoS of a tentative mix on a model, returning
    /// the estimate the check read. Scoring uses that same estimate, so
    /// each candidate class costs one model lookup and the QoS verdict
    /// and the score can never come from different lookups.
    fn feasible(&self, model: usize, bounds: MixVector, mix: MixVector) -> Option<MixEstimate> {
        if !mix.fits_within(&bounds) {
            return None;
        }
        let est = self.models[model].estimate_mix(mix).ok()?;
        let within_qos = !self.enforce_qos
            || WorkloadType::ALL
                .into_iter()
                .all(|ty| match est.time_of(ty) {
                    Some(t) => t <= self.deadlines[ty.index()] * self.qos_margin,
                    None => true,
                });
        within_qos.then_some(est)
    }

    /// Group the candidate servers into classes: every non-empty server
    /// inside its model's box, plus the first empty server per
    /// platform. Looks up each class's resident energy once.
    fn classify(&self, servers: &[ServerView], s: &mut Scratch) {
        s.forget_classes(0);
        s.bounds.clear();
        s.offsets.clear();
        let mut total = 0usize;
        for m in &self.models {
            let b = m.max_mix();
            s.bounds.push(b);
            s.offsets.push(total);
            let len = [b.cpu, b.mem, b.io]
                .iter()
                .try_fold(1usize, |n, &x| n.checked_mul(x as usize + 1));
            total = len.map_or(usize::MAX, |len| total.saturating_add(len));
        }
        if total > MAX_SLOTS {
            s.slots.clear();
        } else if s.slots.len() != total {
            s.slots.clear();
            s.slots.resize(total, NO_CLASS);
        }

        s.class_of.clear();
        s.empty_platforms.clear();
        s.unhostable = 0;
        for v in servers {
            let model = self.model_index(v.platform);
            let c = if v.mix.is_empty() {
                if s.empty_platforms.contains(&v.platform) {
                    NO_CLASS
                } else {
                    s.empty_platforms.push(v.platform);
                    s.intern(model, v.mix, || Some(Joules::ZERO)) as u32
                }
            } else if v.mix.fits_within(&s.bounds[model]) {
                s.intern(model, v.mix, || {
                    self.models[model]
                        .estimate_mix(v.mix)
                        .ok()
                        .map(|est| est.energy)
                }) as u32
            } else {
                s.unhostable += 1;
                NO_CLASS
            };
            if c != NO_CLASS {
                s.classes[c as usize].base_live += 1;
            }
            s.class_of.push(c);
        }
        for c in &mut s.classes {
            c.live = c.base_live;
        }
        s.base_classes = s.classes.len();
    }

    /// Place the blocks of one partition greedily, returning its energy
    /// and time if every block fits and appending its placements to
    /// `s.placements`. `pruned` accumulates the per-block server
    /// candidates rejected by hostability/QoS.
    fn place_partition(
        &self,
        blocks: &[MixVector],
        servers: &[ServerView],
        s: &mut Scratch,
        pruned: &mut u64,
    ) -> Option<(Joules, Seconds)> {
        let placed = self.place_blocks(blocks, servers, s, pruned);
        s.undo_partition();
        placed
    }

    fn place_blocks(
        &self,
        blocks: &[MixVector],
        servers: &[ServerView],
        s: &mut Scratch,
        pruned: &mut u64,
    ) -> Option<(Joules, Seconds)> {
        let mut energy = Joules::ZERO;
        let mut time = Seconds::ZERO;

        for block in blocks {
            // Candidate servers: every currently non-empty (tentative)
            // server in list order, plus the first empty one *per
            // platform* — empty servers of one platform are
            // interchangeable, and the paper breaks ties by "the first
            // server of the list". Members of a class share one lookup.
            *pruned += s.unhostable;
            s.viable.clear();
            for (k, c) in s.classes.iter_mut().enumerate() {
                c.viable = None;
                c.seen = 0;
                if c.live == 0 {
                    continue;
                }
                let Some(new_est) = self.feasible(c.model, s.bounds[c.model], c.mix + *block)
                else {
                    *pruned += u64::from(c.live);
                    continue;
                };
                let Some(old_energy) = c.resident else {
                    continue;
                };
                // The block's VMs share the request's profile(s); the
                // block finishes when its slowest type does.
                let block_time = WorkloadType::ALL
                    .into_iter()
                    .filter(|&ty| block[ty] > 0)
                    .filter_map(|ty| new_est.time_of(ty))
                    .fold(Seconds::ZERO, Seconds::max);
                c.viable = Some(s.viable.len() as u32);
                s.viable.push(Viable {
                    class: k,
                    d_energy: (new_est.energy - old_energy).max(Joules::ZERO),
                    block_time,
                    energy: new_est.energy,
                });
            }

            // Scan the candidates in list order: a later server displaces
            // the incumbent only by beating it under the goal. That
            // relation is not transitive, so scoring only each class's
            // first member would not do; but while the incumbent holds,
            // every member of a class gets the same verdict, so each
            // class is compared at most once per incumbent.
            let (classes, viable) = (&mut s.classes, &s.viable);
            let mut best: Option<(usize, usize)> = None;
            let mut epoch = 1;
            for (pos, &c) in s.class_of.iter().enumerate() {
                let Some(class) = classes.get_mut(c as usize) else {
                    continue;
                };
                let Some(k) = class.viable.map(|k| k as usize) else {
                    continue;
                };
                if let Some((_, b)) = best {
                    if class.seen != epoch {
                        class.seen = epoch;
                        class.beats = self.beats(&viable[k], &viable[b]);
                    }
                    if !class.beats {
                        continue;
                    }
                }
                best = Some((pos, k));
                epoch += 1;
            }

            let (pos, k) = best?;
            let v = s.viable[k];
            let from = s.classes[v.class];
            // The server joins the class of its new mix, which passed the
            // box check; a class new to the search takes the energy just
            // estimated as its resident energy.
            let to = s.intern(from.model, from.mix + *block, || Some(v.energy));
            s.classes[v.class].live -= 1;
            s.classes[to].live += 1;
            match s.extras.iter_mut().find(|x| x.pos as usize == pos) {
                Some(x) => x.add += *block,
                None => s.extras.push(Extra {
                    pos: pos as u32,
                    base: s.class_of[pos],
                    add: *block,
                }),
            }
            s.class_of[pos] = to as u32;
            if from.mix.is_empty() {
                // The next empty server of the platform becomes its
                // platform's candidate.
                let platform = servers[pos].platform;
                if let Some(next) = (pos + 1..servers.len())
                    .find(|&i| servers[i].mix.is_empty() && servers[i].platform == platform)
                {
                    s.extras.push(Extra {
                        pos: next as u32,
                        base: s.class_of[next],
                        add: MixVector::EMPTY,
                    });
                    s.class_of[next] = v.class as u32;
                    s.classes[v.class].live += 1;
                }
            }
            energy += v.d_energy;
            time = time.max(v.block_time);
        }

        s.extras.sort_unstable_by_key(|x| x.pos);
        s.placements.extend(
            s.extras
                .iter()
                .filter(|x| !x.add.is_empty())
                .map(|x| Placement {
                    server: servers[x.pos as usize].id,
                    add: x.add,
                }),
        );
        Some((energy, time))
    }

    /// Per-block ranking under the goal, normalized by the incumbent;
    /// strict improvement required so ties keep the earliest server.
    fn beats(&self, candidate: &Viable, incumbent: &Viable) -> bool {
        let e_norm = candidate.d_energy.value() / incumbent.d_energy.value().max(f64::MIN_POSITIVE);
        let t_norm =
            candidate.block_time.value() / incumbent.block_time.value().max(f64::MIN_POSITIVE);
        self.goal.score(e_norm, t_norm) < 1.0 - 1e-12
    }
}

/// Convert a multiset-partition block (per-type counts) to a mix vector.
fn block_to_mix(block: &[u32]) -> MixVector {
    MixVector::new(block[0], block[1], block[2])
}

impl<M: AllocationModel> Proactive<M> {
    /// Search the request's partitions into `s.found`, scored, and
    /// return the index of the one to commit (`None` when no partition
    /// places).
    fn search(
        &self,
        request: &RequestView,
        servers: &[ServerView],
        s: &mut Scratch,
    ) -> Result<Option<usize>, EavmError> {
        let mix = request.mix();
        let counts = [mix.cpu, mix.mem, mix.io];
        // Blocks can never exceed the deepest hostable bound for the
        // request's type across the fleet's platforms, so cap block size
        // up front to prune the enumeration.
        let max_block = WorkloadType::ALL
            .into_iter()
            .filter(|&ty| mix[ty] > 0)
            .map(|ty| {
                self.models
                    .iter()
                    .map(|m| m.max_mix()[ty])
                    .max()
                    .unwrap_or(0)
            })
            .min()
            .unwrap_or(0);
        if max_block == 0 {
            return Err(EavmError::Infeasible(format!(
                "request {} has a type the model cannot host",
                request.id
            )));
        }

        self.classify(servers, s);
        s.found.clear();
        s.found_blocks.clear();
        s.placements.clear();
        let mut min_energy = f64::INFINITY;
        let mut min_time = f64::INFINITY;
        let mut pruned = 0u64;
        // One block buffer for the whole search.
        let mut blocks = std::mem::take(&mut s.blocks);
        let evaluated =
            for_each_multiset_partition(&counts, max_block, self.caps.max_partitions, |flat| {
                blocks.clear();
                blocks.extend(flat.chunks_exact(3).map(block_to_mix));
                let first = s.placements.len();
                if let Some((energy, time)) = self.place_partition(&blocks, servers, s, &mut pruned)
                {
                    min_energy = min_energy.min(energy.value());
                    min_time = min_time.min(time.value());
                    let b = s.found_blocks.len();
                    s.found_blocks.extend_from_slice(&blocks);
                    s.found.push(Found {
                        blocks: b..s.found_blocks.len(),
                        placements: first..s.placements.len(),
                        energy,
                        time,
                        score: 0.0,
                    });
                }
            }) as u64;
        s.blocks = blocks;
        // One flush per search keeps the hot loop free of atomics.
        let m = &self.metrics;
        m.searches.add_on(m.stripe, 1);
        m.partitions_evaluated.add_on(m.stripe, evaluated);
        m.partitions_feasible.add_on(m.stripe, s.found.len() as u64);
        m.candidates_pruned.add_on(m.stripe, pruned);

        // Normalize against the best-in-class values so α weighs two
        // comparable dimensionless quantities; the strict comparison
        // keeps the earliest (first-listed) partition on ties.
        let mut best: Option<(f64, usize)> = None;
        for (i, f) in s.found.iter_mut().enumerate() {
            let e_norm = if min_energy > 0.0 {
                f.energy.value() / min_energy
            } else {
                1.0
            };
            let t_norm = if min_time > 0.0 {
                f.time.value() / min_time
            } else {
                1.0
            };
            f.score = self.goal.score(e_norm, t_norm);
            if best.is_none_or(|(s, _)| f.score < s - 1e-12) {
                best = Some((f.score, i));
            }
        }
        Ok(best.map(|(_, i)| i))
    }

    /// Enumerate and score every feasible partition candidate for a
    /// request — the full working data of the Fig. 3 "rank the
    /// partitions" step. The candidate [`AllocationStrategy::allocate`]
    /// would commit is marked [`PartitionCandidate::chosen`].
    ///
    /// Returns an empty vector (not an error) when no partition places.
    pub fn explain(
        &self,
        request: &RequestView,
        servers: &[ServerView],
    ) -> Result<Vec<PartitionCandidate>, EavmError> {
        let mut s = Scratch::default();
        let chosen = self.search(request, servers, &mut s)?;
        Ok(s.found
            .iter()
            .enumerate()
            .map(|(i, f)| PartitionCandidate {
                blocks: s.found_blocks[f.blocks.clone()].to_vec(),
                placements: s.placements[f.placements.clone()].to_vec(),
                energy: f.energy,
                time: f.time,
                score: f.score,
                chosen: chosen == Some(i),
            })
            .collect())
    }
}

impl<M: AllocationModel> AllocationStrategy for Proactive<M> {
    fn name(&self) -> String {
        self.goal.label()
    }

    fn allocate(
        &mut self,
        request: &RequestView,
        servers: &[ServerView],
    ) -> Result<Vec<Placement>, EavmError> {
        let mut s = std::mem::take(&mut self.scratch);
        let chosen = self.search(request, servers, &mut s);
        let placements =
            chosen.map(|c| c.map(|i| s.placements[s.found[i].placements.clone()].to_vec()));
        self.scratch = s;
        placements?.ok_or_else(|| {
            EavmError::Infeasible(format!(
                "no feasible partition for request {} ({} VMs of {})",
                request.id, request.vm_count, request.workload
            ))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::DbModel;
    use crate::strategy::validate_placements;
    use eavm_benchdb::DbBuilder;
    use eavm_types::{JobId, ServerId};

    fn model() -> DbModel {
        DbModel::new(DbBuilder::exact().build().unwrap())
    }

    fn deadlines() -> [Seconds; 3] {
        [Seconds(4800.0), Seconds(4000.0), Seconds(3600.0)]
    }

    fn proactive(goal: OptimizationGoal) -> Proactive<DbModel> {
        Proactive::new(model(), goal, deadlines())
    }

    fn req(ty: WorkloadType, n: u32) -> RequestView {
        RequestView {
            id: JobId::new(1),
            workload: ty,
            vm_count: n,
            deadline: deadlines()[ty.index()],
        }
    }

    fn empty_servers(n: u32) -> Vec<ServerView> {
        (0..n)
            .map(|i| ServerView::homogeneous(ServerId::new(i), MixVector::EMPTY))
            .collect()
    }

    #[test]
    fn names_track_alpha() {
        assert_eq!(proactive(OptimizationGoal::ENERGY).name(), "PA-1");
        assert_eq!(proactive(OptimizationGoal::PERFORMANCE).name(), "PA-0");
        assert_eq!(proactive(OptimizationGoal::BALANCED).name(), "PA-0.5");
    }

    #[test]
    fn placements_cover_requests_exactly() {
        let mut pa = proactive(OptimizationGoal::BALANCED);
        let servers = empty_servers(4);
        for ty in WorkloadType::ALL {
            for n in 1..=4 {
                let r = req(ty, n);
                let p = pa.allocate(&r, &servers).unwrap();
                validate_placements(&r, &servers, &p).unwrap();
            }
        }
    }

    #[test]
    fn energy_goal_consolidates_onto_occupied_server() {
        // One server already runs 2 CPU VMs; a new 2-VM CPU request should
        // join it under PA-1 (amortized idle power) rather than power on a
        // second server.
        let mut pa = proactive(OptimizationGoal::ENERGY);
        let servers = vec![
            ServerView::homogeneous(ServerId::new(0), MixVector::new(2, 0, 0)),
            ServerView::homogeneous(ServerId::new(1), MixVector::EMPTY),
        ];
        let p = pa.allocate(&req(WorkloadType::Cpu, 2), &servers).unwrap();
        assert_eq!(p.len(), 1, "energy goal must not spread: {p:?}");
        assert_eq!(p[0].server, ServerId::new(0));
    }

    #[test]
    fn performance_goal_avoids_heavy_contention() {
        // Server 0 is packed near the CPU optimum; PA-0 should prefer the
        // idle server for a new CPU request, while PA-1 tolerates joining.
        let bounds_cpu = model().max_mix().cpu;
        let packed = MixVector::new(bounds_cpu - 1, 0, 0);
        let servers = vec![
            ServerView::homogeneous(ServerId::new(0), packed),
            ServerView::homogeneous(ServerId::new(1), MixVector::EMPTY),
        ];
        let mut pa0 = proactive(OptimizationGoal::PERFORMANCE);
        let p = pa0.allocate(&req(WorkloadType::Cpu, 1), &servers).unwrap();
        assert_eq!(
            p[0].server,
            ServerId::new(1),
            "performance goal must prefer the uncontended server"
        );
    }

    #[test]
    fn qos_filter_rejects_overloaded_placements() {
        // With sub-solo deadlines nothing can ever satisfy QoS.
        let mut pa = Proactive::new(
            model(),
            OptimizationGoal::BALANCED,
            [Seconds(10.0), Seconds(10.0), Seconds(10.0)],
        );
        let servers = empty_servers(2);
        assert!(matches!(
            pa.allocate(&req(WorkloadType::Cpu, 1), &servers),
            Err(EavmError::Infeasible(_))
        ));
        // Relaxing QoS ("the algorithm can be relaxed") makes it feasible.
        let mut relaxed = Proactive::new(
            model(),
            OptimizationGoal::BALANCED,
            [Seconds(10.0), Seconds(10.0), Seconds(10.0)],
        )
        .with_qos_enforcement(false);
        assert!(relaxed
            .allocate(&req(WorkloadType::Cpu, 1), &servers)
            .is_ok());
    }

    #[test]
    fn respects_model_hostability_bounds() {
        // Fill one server to the memory bound; the next memory VM must go
        // elsewhere even if QoS would allow it.
        let m = model();
        let osm = m.max_mix().mem;
        let servers = vec![
            ServerView::homogeneous(ServerId::new(0), MixVector::new(0, osm, 0)),
            ServerView::homogeneous(ServerId::new(1), MixVector::EMPTY),
        ];
        let mut pa = proactive(OptimizationGoal::ENERGY);
        let p = pa.allocate(&req(WorkloadType::Mem, 1), &servers).unwrap();
        assert_eq!(p[0].server, ServerId::new(1));
    }

    #[test]
    fn infeasible_when_everything_is_full() {
        let m = model();
        let bounds = m.max_mix();
        let full = MixVector::new(bounds.cpu, 0, 0);
        let servers = vec![ServerView::homogeneous(ServerId::new(0), full)];
        let mut pa = proactive(OptimizationGoal::BALANCED);
        assert!(matches!(
            pa.allocate(&req(WorkloadType::Cpu, 1), &servers),
            Err(EavmError::Infeasible(_))
        ));
    }

    #[test]
    fn application_awareness_separates_incompatible_types() {
        // A server nearly saturated with memory VMs: a new memory VM
        // placed there would thrash. PROACTIVE must send it elsewhere,
        // while count-based FF-2 would happily stack it.
        let m = model();
        let osm = m.max_mix().mem;
        let servers = vec![
            ServerView::homogeneous(
                ServerId::new(0),
                MixVector::new(0, osm.saturating_sub(1).max(1), 0),
            ),
            ServerView::homogeneous(ServerId::new(1), MixVector::new(1, 0, 0)),
        ];
        let mut pa = proactive(OptimizationGoal::PERFORMANCE);
        let p = pa.allocate(&req(WorkloadType::Mem, 2), &servers).unwrap();
        // At least one VM must avoid the memory-saturated server 0.
        let on_zero: u32 = p
            .iter()
            .filter(|pl| pl.server == ServerId::new(0))
            .map(|pl| pl.add.total())
            .sum();
        assert!(on_zero < 2, "PA-0 stacked memory VMs onto a thrashing host");
    }

    #[test]
    fn deterministic_for_same_inputs() {
        let servers = empty_servers(3);
        let r = req(WorkloadType::Io, 4);
        let p1 = proactive(OptimizationGoal::BALANCED)
            .allocate(&r, &servers)
            .unwrap();
        let p2 = proactive(OptimizationGoal::BALANCED)
            .allocate(&r, &servers)
            .unwrap();
        assert_eq!(p1, p2);
    }

    #[test]
    fn explain_exposes_the_ranked_candidates() {
        let pa = proactive(OptimizationGoal::BALANCED);
        let servers = empty_servers(4);
        let r = req(WorkloadType::Cpu, 4);
        let candidates = pa.explain(&r, &servers).unwrap();
        // 4 identical VMs: the 5 integer partitions of 4, all feasible on
        // an empty fleet.
        assert_eq!(candidates.len(), 5);
        assert_eq!(candidates.iter().filter(|c| c.chosen).count(), 1);
        let chosen = candidates.iter().find(|c| c.chosen).unwrap();
        // The chosen candidate carries the minimal score.
        for c in &candidates {
            assert!(chosen.score <= c.score + 1e-12);
            let placed: u32 = c.placements.iter().map(|p| p.add.total()).sum();
            assert_eq!(placed, 4, "every candidate covers the request");
            let block_sum: u32 = c.blocks.iter().map(|b| b.total()).sum();
            assert_eq!(block_sum, 4);
        }
        // allocate() commits exactly the chosen candidate's placements.
        let mut pa2 = proactive(OptimizationGoal::BALANCED);
        assert_eq!(pa2.allocate(&r, &servers).unwrap(), chosen.placements);
    }

    #[test]
    fn explain_returns_empty_when_nothing_fits() {
        let m = model();
        let full = MixVector::new(m.max_mix().cpu, 0, 0);
        let servers = vec![ServerView::homogeneous(ServerId::new(0), full)];
        let pa = proactive(OptimizationGoal::BALANCED);
        let candidates = pa.explain(&req(WorkloadType::Cpu, 2), &servers).unwrap();
        assert!(candidates.is_empty());
    }

    #[test]
    fn search_metrics_observe_the_search() {
        use eavm_telemetry::Counter;
        let metrics = SearchMetrics {
            searches: Counter::standalone(),
            partitions_evaluated: Counter::standalone(),
            partitions_feasible: Counter::standalone(),
            candidates_pruned: Counter::standalone(),
            stripe: 0,
        };
        let mut pa = proactive(OptimizationGoal::BALANCED).with_search_metrics(metrics.clone());
        let servers = empty_servers(4);
        pa.allocate(&req(WorkloadType::Cpu, 4), &servers).unwrap();
        assert_eq!(metrics.searches.get(), 1);
        // 4 identical VMs on an empty fleet: 5 partitions, all feasible.
        assert_eq!(metrics.partitions_evaluated.get(), 5);
        assert_eq!(metrics.partitions_feasible.get(), 5);
        // Default (no-op) metrics must not change behavior.
        let mut plain = proactive(OptimizationGoal::BALANCED);
        assert_eq!(
            plain
                .allocate(&req(WorkloadType::Cpu, 4), &servers)
                .unwrap(),
            pa.allocate(&req(WorkloadType::Cpu, 4), &servers).unwrap()
        );
    }

    /// Counts the lookups a search makes, by method.
    struct Counting {
        inner: DbModel,
        estimates: std::cell::Cell<u64>,
        other: std::cell::Cell<u64>,
    }

    impl Counting {
        fn new() -> Self {
            Counting {
                inner: model(),
                estimates: Default::default(),
                other: Default::default(),
            }
        }

        fn bump(cell: &std::cell::Cell<u64>) {
            cell.set(cell.get() + 1);
        }
    }

    impl AllocationModel for Counting {
        fn exec_time(&self, mix: MixVector, ty: WorkloadType) -> Result<Seconds, EavmError> {
            Self::bump(&self.other);
            self.inner.exec_time(mix, ty)
        }
        fn power(&self, mix: MixVector) -> Result<eavm_types::Watts, EavmError> {
            Self::bump(&self.other);
            self.inner.power(mix)
        }
        fn run_energy(&self, mix: MixVector) -> Result<Joules, EavmError> {
            Self::bump(&self.other);
            self.inner.run_energy(mix)
        }
        fn estimate_mix(&self, mix: MixVector) -> Result<MixEstimate, EavmError> {
            Self::bump(&self.estimates);
            self.inner.estimate_mix(mix)
        }
        fn solo_time(&self, ty: WorkloadType) -> Seconds {
            self.inner.solo_time(ty)
        }
        fn max_mix(&self) -> MixVector {
            self.inner.max_mix()
        }
    }

    #[test]
    fn search_makes_one_lookup_per_class_per_block_and_per_resident_class() {
        let bounds = model().max_mix();
        let pa = Proactive::new(Counting::new(), OptimizationGoal::BALANCED, deadlines());
        let count = |pa: &Proactive<Counting>| {
            let m = pa.model();
            (m.estimates.replace(0), m.other.replace(0))
        };

        // No empty servers: classes (1,0,0) of servers 0 and 1, (0,1,0)
        // and the full server, which fails the hostable bound with no
        // lookup. One resident lookup per hostable class: 3. Partition
        // {2}: 2 classes. Partition {1,1}: 2 classes for the first block,
        // which goes to server 0; server 0 then forms class (2,0,0), so
        // the second block sees 3 classes. 3 + 2 + 2 + 3 lookups, where
        // one per server would take 13.
        let servers = vec![
            ServerView::homogeneous(ServerId::new(0), MixVector::new(1, 0, 0)),
            ServerView::homogeneous(ServerId::new(1), MixVector::new(1, 0, 0)),
            ServerView::homogeneous(ServerId::new(2), MixVector::new(0, 1, 0)),
            ServerView::homogeneous(ServerId::new(3), MixVector::new(bounds.cpu, 0, 0)),
        ];
        let c = pa.explain(&req(WorkloadType::Cpu, 2), &servers).unwrap();
        assert_eq!(c.len(), 2, "both partitions place");
        let split = &c[1].placements;
        assert_eq!(split.len(), 2);
        assert_eq!(
            (split[0].server, split[1].server),
            (ServerId::new(0), ServerId::new(1))
        );
        assert_eq!(count(&pa), (3 + 2 + 2 + 3, 0));

        // Empty servers: only the first one is a candidate. One Mem VM is
        // one block over 3 classes, plus 2 resident lookups.
        let servers = vec![
            ServerView::homogeneous(ServerId::new(0), MixVector::EMPTY),
            ServerView::homogeneous(ServerId::new(1), MixVector::new(2, 0, 0)),
            ServerView::homogeneous(ServerId::new(2), MixVector::EMPTY),
            ServerView::homogeneous(ServerId::new(3), MixVector::new(0, 0, 1)),
        ];
        pa.explain(&req(WorkloadType::Mem, 1), &servers).unwrap();
        assert_eq!(count(&pa), (3 + 2, 0));
        // Resident energies are per search, not cached across searches.
        pa.explain(&req(WorkloadType::Mem, 1), &servers).unwrap();
        assert_eq!(count(&pa), (3 + 2, 0));

        // Duplicates share a lookup: four (1,0,0) servers and two empty
        // ones are two classes, one resident lookup.
        let mut servers = empty_servers(6);
        for s in &mut servers[1..5] {
            s.mix = MixVector::new(1, 0, 0);
        }
        pa.explain(&req(WorkloadType::Cpu, 1), &servers).unwrap();
        assert_eq!(count(&pa), (2 + 1, 0));
    }

    /// Answers even-numbered lookups from the database and odd-numbered
    /// ones from the analytic model, as `ResilientModel` does when every
    /// other lookup faults; records every answer it gives.
    struct Alternating {
        primary: DbModel,
        fallback: crate::model::AnalyticModel,
        answers: std::cell::RefCell<Vec<MixEstimate>>,
    }

    impl AllocationModel for Alternating {
        fn exec_time(&self, mix: MixVector, ty: WorkloadType) -> Result<Seconds, EavmError> {
            self.estimate_mix(mix)?
                .time_of(ty)
                .ok_or_else(|| EavmError::ModelMiss(format!("{ty} absent")))
        }
        fn power(&self, mix: MixVector) -> Result<eavm_types::Watts, EavmError> {
            self.primary.power(mix)
        }
        fn run_energy(&self, mix: MixVector) -> Result<Joules, EavmError> {
            Ok(self.estimate_mix(mix)?.energy)
        }
        fn estimate_mix(&self, mix: MixVector) -> Result<MixEstimate, EavmError> {
            let mut answers = self.answers.borrow_mut();
            let est = if answers.len().is_multiple_of(2) {
                self.primary.estimate_mix(mix)?
            } else {
                self.fallback.estimate_mix(mix)?
            };
            answers.push(est);
            Ok(est)
        }
        fn solo_time(&self, ty: WorkloadType) -> Seconds {
            self.primary.solo_time(ty)
        }
        fn max_mix(&self) -> MixVector {
            self.primary.max_mix()
        }
    }

    #[test]
    fn placement_is_scored_on_the_estimate_that_passed_feasibility() {
        let alternating = Alternating {
            primary: model(),
            fallback: crate::model::AnalyticModel::reference(),
            answers: Default::default(),
        };
        let pa = Proactive::new(alternating, OptimizationGoal::BALANCED, deadlines());
        // One VM, one empty server: one candidate, no resident lookup.
        let c = pa
            .explain(&req(WorkloadType::Cpu, 1), &empty_servers(1))
            .unwrap();
        let answers = pa.model().answers.borrow();
        assert_eq!(answers.len(), 1, "one lookup for the one candidate");
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].energy, answers[0].energy);
        assert_eq!(Some(c[0].time), answers[0].time_of(WorkloadType::Cpu));
        drop(answers);

        // Over a mixed fleet, whichever model answered, the time each
        // candidate is scored on is one that passed the QoS check.
        let deadline = deadlines()[WorkloadType::Cpu.index()] * 0.65;
        let pa = pa.with_qos_margin(0.65);
        let servers = vec![
            ServerView::homogeneous(ServerId::new(0), MixVector::new(3, 0, 0)),
            ServerView::homogeneous(ServerId::new(1), MixVector::new(1, 1, 0)),
            ServerView::homogeneous(ServerId::new(2), MixVector::new(0, 2, 1)),
            ServerView::homogeneous(ServerId::new(3), MixVector::EMPTY),
        ];
        for n in 1..=4 {
            for c in pa.explain(&req(WorkloadType::Cpu, n), &servers).unwrap() {
                assert!(c.time <= deadline, "{n} VMs: {} > {deadline}", c.time);
            }
        }
    }

    #[test]
    fn partition_cap_limits_search() {
        let mut pa =
            proactive(OptimizationGoal::BALANCED).with_caps(SearchCaps { max_partitions: 1 });
        let servers = empty_servers(4);
        // Still succeeds: the first (single-block) partition is feasible.
        let p = pa.allocate(&req(WorkloadType::Cpu, 4), &servers).unwrap();
        validate_placements(&req(WorkloadType::Cpu, 4), &servers, &p).unwrap();
    }
}
