//! The logical records framed into the WAL and snapshots.
//!
//! Records carry only primitive fields (`u32`/`u64`/`f64` bits) so this
//! crate sits at the bottom of the workspace DAG: the service layer maps
//! its own types (`VmRequest`, `Placement`, `Verdict`) into these and
//! back. Every record kind has a one-byte tag; decoding an unknown tag
//! or a short body is an [`EavmError::Durability`] so recovery treats it
//! exactly like frame corruption — stop, truncate, count.

use eavm_types::EavmError;

use crate::codec::{Dec, Enc};

/// A journaled admission request (mirror of `VmRequest`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReqRec {
    pub id: u32,
    /// Submission instant, virtual seconds.
    pub submit: f64,
    /// `WorkloadType` index (0 = Cpu, 1 = Mem, 2 = Io).
    pub workload: u8,
    pub vm_count: u32,
    /// Relative QoS deadline, virtual seconds.
    pub deadline: f64,
    /// `Priority` index (0 = Batch, 1 = Standard, 2 = Interactive).
    pub priority: u8,
}

impl ReqRec {
    fn encode(&self, e: &mut Enc) {
        e.put_u32(self.id);
        e.put_f64(self.submit);
        e.put_u8(self.workload);
        e.put_u32(self.vm_count);
        e.put_f64(self.deadline);
        e.put_u8(self.priority);
    }

    fn decode(d: &mut Dec) -> Result<Self, EavmError> {
        Ok(ReqRec {
            id: d.get_u32()?,
            submit: d.get_f64()?,
            workload: d.get_u8()?,
            vm_count: d.get_u32()?,
            deadline: d.get_f64()?,
            priority: d.get_u8()?,
        })
    }
}

/// One committed placement: `add` VMs by type onto one server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacementRec {
    pub server: u32,
    pub cpu: u32,
    pub mem: u32,
    pub io: u32,
}

impl PlacementRec {
    fn encode(&self, e: &mut Enc) {
        e.put_u32(self.server);
        e.put_u32(self.cpu);
        e.put_u32(self.mem);
        e.put_u32(self.io);
    }

    fn decode(d: &mut Dec) -> Result<Self, EavmError> {
        Ok(PlacementRec {
            server: d.get_u32()?,
            cpu: d.get_u32()?,
            mem: d.get_u32()?,
            io: d.get_u32()?,
        })
    }

    fn render(&self) -> String {
        format!("{}:{}/{}/{}", self.server, self.cpu, self.mem, self.io)
    }
}

fn encode_placements(e: &mut Enc, ps: &[PlacementRec]) {
    e.put_len(ps.len());
    for p in ps {
        p.encode(e);
    }
}

fn decode_placements(d: &mut Dec) -> Result<Vec<PlacementRec>, EavmError> {
    let n = d.get_len()?;
    (0..n).map(|_| PlacementRec::decode(d)).collect()
}

fn render_placements(ps: &[PlacementRec]) -> String {
    let body: Vec<String> = ps.iter().map(PlacementRec::render).collect();
    format!("[{}]", body.join(","))
}

const TAG_SUBMIT: u8 = 1;
const TAG_ADMITTED: u8 = 2;
const TAG_ADMITTED_CROSS: u8 = 3;
const TAG_QUEUED: u8 = 4;
const TAG_REQUEUED: u8 = 5;
const TAG_SHED: u8 = 6;
const TAG_CLOCK: u8 = 7;
const TAG_MIGRATE: u8 = 8;
const TAG_ADVANCE: u8 = 9;
const TAG_DRAIN: u8 = 10;

/// One VM move inside a journaled consolidation sweep: drain the
/// first resident of workload-type index `ty` from server `from` and
/// inject it on server `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MoveRec {
    pub from: u32,
    pub to: u32,
    /// Workload-type index (see `WorkloadType::index`).
    pub ty: u8,
}

impl MoveRec {
    fn encode(&self, e: &mut Enc) {
        e.put_u32(self.from);
        e.put_u32(self.to);
        e.put_u8(self.ty);
    }

    fn decode(d: &mut Dec) -> Result<MoveRec, EavmError> {
        Ok(MoveRec {
            from: d.get_u32()?,
            to: d.get_u32()?,
            ty: d.get_u8()?,
        })
    }
}

/// One journaled coordinator event. *Inputs* (`Submit`, `Advance`,
/// `Drain`) are what the coordinator was asked to do: recovery feeds
/// them back through the coordinator. Every other kind is an *output*
/// the coordinator wrote while handling an input, journaled before the
/// matching ack leaves it; recovery checks that re-execution writes
/// each one again byte for byte.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A request entered the coordinator under `ticket`. A maximal run
    /// of consecutive `Submit` frames is one admission batch.
    Submit { ticket: u64, req: ReqRec },
    /// The client asked for a fleet-wide clock advance to `t`.
    Advance { t: f64 },
    /// The client asked for a drain of the wait queue.
    Drain,
    /// Fast-path local admission on one shard.
    Admitted {
        ticket: u64,
        shard: u32,
        placements: Vec<PlacementRec>,
    },
    /// Two-phase commit across `shards`.
    AdmittedCrossShard {
        ticket: u64,
        shards: Vec<u32>,
        placements: Vec<PlacementRec>,
    },
    /// Parked in the wait queue at depth `depth`.
    Queued { ticket: u64, depth: u32 },
    /// Bounced by a dying shard and re-driven.
    Requeued { ticket: u64, shard: u32 },
    /// Rejected; `reason` is a `ShedReason` index.
    Shed { ticket: u64, reason: u8 },
    /// Fleet-wide virtual clock advance to `t`.
    Clock { t: f64 },
    /// One consolidation sweep at epoch `epoch`, journaled *before* any
    /// move executes: the sweep's virtual instant `t`, the per-move
    /// migration stall in solo-runtime seconds, and the full move list
    /// (possibly empty — an empty sweep still durably advances the
    /// epoch watermark so recovery never re-plans it).
    Migrate {
        epoch: u64,
        t: f64,
        stall: f64,
        moves: Vec<MoveRec>,
    },
}

impl WalRecord {
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        match self {
            WalRecord::Submit { ticket, req } => {
                e.put_u8(TAG_SUBMIT);
                e.put_u64(*ticket);
                req.encode(&mut e);
            }
            WalRecord::Admitted {
                ticket,
                shard,
                placements,
            } => {
                e.put_u8(TAG_ADMITTED);
                e.put_u64(*ticket);
                e.put_u32(*shard);
                encode_placements(&mut e, placements);
            }
            WalRecord::AdmittedCrossShard {
                ticket,
                shards,
                placements,
            } => {
                e.put_u8(TAG_ADMITTED_CROSS);
                e.put_u64(*ticket);
                e.put_len(shards.len());
                for s in shards {
                    e.put_u32(*s);
                }
                encode_placements(&mut e, placements);
            }
            WalRecord::Queued { ticket, depth } => {
                e.put_u8(TAG_QUEUED);
                e.put_u64(*ticket);
                e.put_u32(*depth);
            }
            WalRecord::Requeued { ticket, shard } => {
                e.put_u8(TAG_REQUEUED);
                e.put_u64(*ticket);
                e.put_u32(*shard);
            }
            WalRecord::Shed { ticket, reason } => {
                e.put_u8(TAG_SHED);
                e.put_u64(*ticket);
                e.put_u8(*reason);
            }
            WalRecord::Advance { t } => {
                e.put_u8(TAG_ADVANCE);
                e.put_f64(*t);
            }
            WalRecord::Drain => e.put_u8(TAG_DRAIN),
            WalRecord::Clock { t } => {
                e.put_u8(TAG_CLOCK);
                e.put_f64(*t);
            }
            WalRecord::Migrate {
                epoch,
                t,
                stall,
                moves,
            } => {
                e.put_u8(TAG_MIGRATE);
                e.put_u64(*epoch);
                e.put_f64(*t);
                e.put_f64(*stall);
                e.put_len(moves.len());
                for m in moves {
                    m.encode(&mut e);
                }
            }
        }
        e.finish()
    }

    pub fn decode(bytes: &[u8]) -> Result<WalRecord, EavmError> {
        let mut d = Dec::new(bytes);
        let record = match d.get_u8()? {
            TAG_SUBMIT => WalRecord::Submit {
                ticket: d.get_u64()?,
                req: ReqRec::decode(&mut d)?,
            },
            TAG_ADMITTED => WalRecord::Admitted {
                ticket: d.get_u64()?,
                shard: d.get_u32()?,
                placements: decode_placements(&mut d)?,
            },
            TAG_ADMITTED_CROSS => {
                let ticket = d.get_u64()?;
                let n = d.get_len()?;
                let shards = (0..n).map(|_| d.get_u32()).collect::<Result<_, _>>()?;
                WalRecord::AdmittedCrossShard {
                    ticket,
                    shards,
                    placements: decode_placements(&mut d)?,
                }
            }
            TAG_QUEUED => WalRecord::Queued {
                ticket: d.get_u64()?,
                depth: d.get_u32()?,
            },
            TAG_REQUEUED => WalRecord::Requeued {
                ticket: d.get_u64()?,
                shard: d.get_u32()?,
            },
            TAG_SHED => WalRecord::Shed {
                ticket: d.get_u64()?,
                reason: d.get_u8()?,
            },
            TAG_ADVANCE => WalRecord::Advance { t: d.get_f64()? },
            TAG_DRAIN => WalRecord::Drain,
            TAG_CLOCK => WalRecord::Clock { t: d.get_f64()? },
            TAG_MIGRATE => {
                let epoch = d.get_u64()?;
                let t = d.get_f64()?;
                let stall = d.get_f64()?;
                let n = d.get_len()?;
                let moves = (0..n)
                    .map(|_| MoveRec::decode(&mut d))
                    .collect::<Result<_, _>>()?;
                WalRecord::Migrate {
                    epoch,
                    t,
                    stall,
                    moves,
                }
            }
            tag => {
                return Err(EavmError::Durability(format!(
                    "unknown WAL record tag {tag}"
                )))
            }
        };
        d.expect_end()?;
        Ok(record)
    }

    /// Ticket this record belongs to, if any.
    pub fn ticket(&self) -> Option<u64> {
        match self {
            WalRecord::Submit { ticket, .. }
            | WalRecord::Admitted { ticket, .. }
            | WalRecord::AdmittedCrossShard { ticket, .. }
            | WalRecord::Queued { ticket, .. }
            | WalRecord::Requeued { ticket, .. }
            | WalRecord::Shed { ticket, .. } => Some(*ticket),
            WalRecord::Advance { .. }
            | WalRecord::Drain
            | WalRecord::Clock { .. }
            | WalRecord::Migrate { .. } => None,
        }
    }

    /// `true` for the records that journal a coordinator *input*.
    pub fn is_input(&self) -> bool {
        match self {
            WalRecord::Submit { .. } | WalRecord::Advance { .. } | WalRecord::Drain => true,
            WalRecord::Admitted { .. }
            | WalRecord::AdmittedCrossShard { .. }
            | WalRecord::Queued { .. }
            | WalRecord::Requeued { .. }
            | WalRecord::Shed { .. }
            | WalRecord::Clock { .. }
            | WalRecord::Migrate { .. } => false,
        }
    }

    /// The canonical verdict-log line for this record, or `None` for
    /// records that are not client-visible verdicts. Live services and
    /// WAL replays render through this single function, which is what
    /// makes "verdict-log byte equality" a meaningful crash-recovery
    /// acceptance test.
    pub fn verdict_line(&self) -> Option<String> {
        match self {
            // `Migrate` is an internal rebalance, never a client-visible
            // verdict — keeping it out of the verdict log is what makes
            // crashed-vs-uncrashed verdict files byte-identical even when
            // the crash lands mid-sweep.
            WalRecord::Submit { .. }
            | WalRecord::Advance { .. }
            | WalRecord::Drain
            | WalRecord::Clock { .. }
            | WalRecord::Migrate { .. } => None,
            WalRecord::Admitted {
                ticket,
                shard,
                placements,
            } => Some(format!(
                "{ticket} admitted shard={shard} placements={}",
                render_placements(placements)
            )),
            WalRecord::AdmittedCrossShard {
                ticket,
                shards,
                placements,
            } => {
                let s: Vec<String> = shards.iter().map(u32::to_string).collect();
                Some(format!(
                    "{ticket} admitted-cross shards=[{}] placements={}",
                    s.join(","),
                    render_placements(placements)
                ))
            }
            WalRecord::Queued { ticket, depth } => Some(format!("{ticket} queued depth={depth}")),
            WalRecord::Requeued { ticket, shard } => {
                Some(format!("{ticket} requeued shard={shard}"))
            }
            WalRecord::Shed { ticket, reason } => Some(format!(
                "{ticket} shed reason={}",
                shed_reason_name(*reason)
            )),
        }
    }
}

/// Stable names for `ShedReason` indices (see `eavm-service`).
pub fn shed_reason_name(reason: u8) -> &'static str {
    match reason {
        0 => "admission-full",
        1 => "wait-queue-full",
        2 => "unplaceable",
        3 => "shard-failure",
        4 => "storage-degraded",
        5 => "queue-aged",
        6 => "brownout-class",
        _ => "unknown",
    }
}

/// Per-server resident set inside a shard snapshot: the workload-type
/// index and estimated finish instant of every committed VM. Finish
/// times are persisted bit-exact so recovered shards retire VMs at the
/// same virtual instants the crashed process would have.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerSnapRec {
    pub server: u32,
    pub residents: Vec<(u8, f64)>,
}

/// One shard's full placement state at checkpoint time.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSnapRec {
    pub index: u32,
    /// The shard's virtual clock.
    pub clock: f64,
    /// Accumulated model-estimated dynamic energy (joules).
    pub energy: f64,
    pub servers: Vec<ServerSnapRec>,
}

/// The overload plane's controller state at checkpoint time (mirror of
/// `eavm_overload::OverloadSnapshot`).
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadRec {
    /// The plane's logical clock.
    pub now: f64,
    /// Probes drawn from the breaker's seeded stream so far.
    pub probes: u64,
    /// `BreakerState` index (0 = Closed, 1 = Open, 2 = HalfOpen).
    pub breaker: u8,
    /// Consecutive failing probes while closed.
    pub streak: u32,
    /// Instant the breaker last opened.
    pub opened_at: f64,
    /// Per-shard AIMD admission limits.
    pub limits: Vec<f64>,
}

impl OverloadRec {
    fn encode(&self, e: &mut Enc) {
        e.put_f64(self.now);
        e.put_u64(self.probes);
        e.put_u8(self.breaker);
        e.put_u32(self.streak);
        e.put_f64(self.opened_at);
        e.put_len(self.limits.len());
        for limit in &self.limits {
            e.put_f64(*limit);
        }
    }

    fn decode(d: &mut Dec) -> Result<Self, EavmError> {
        let now = d.get_f64()?;
        let probes = d.get_u64()?;
        let breaker = d.get_u8()?;
        let streak = d.get_u32()?;
        let opened_at = d.get_f64()?;
        let n = d.get_len()?;
        let limits = (0..n).map(|_| d.get_f64()).collect::<Result<_, _>>()?;
        Ok(OverloadRec {
            now,
            probes,
            breaker,
            streak,
            opened_at,
            limits,
        })
    }
}

// v3: typed consolidation cooldowns and overload-plane state replace
// the reserved counter names v2 carried them under; the unused cache
// generation is gone.
const SNAPSHOT_VERSION: u8 = 3;

/// A full coordinator checkpoint: everything needed to restart the
/// service without replaying the WAL prefix it covers.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotRec {
    /// Monotone checkpoint sequence number.
    pub seq: u64,
    /// WAL frames covered: recovery replays only frames `>= wal_frames`.
    pub wal_frames: u64,
    /// Coordinator virtual clock.
    pub now: f64,
    /// Next admission ticket to hand out.
    pub next_ticket: u64,
    pub shards: Vec<ShardSnapRec>,
    /// Parked wait-queue entries in FIFO order: ticket, the original
    /// request (true submit instant included), and the virtual instant
    /// the entry was parked (the queue-age shedding baseline).
    pub parked: Vec<(u64, ReqRec, f64)>,
    /// Coordinator counter values by name.
    pub counters: Vec<(String, u64)>,
    /// Consolidation hysteresis cooldown of every host, index = host.
    pub cooldowns: Vec<u32>,
    /// Overload-plane controller state; `None` without the plane.
    pub overload: Option<OverloadRec>,
}

impl SnapshotRec {
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.put_u8(SNAPSHOT_VERSION);
        e.put_u64(self.seq);
        e.put_u64(self.wal_frames);
        e.put_f64(self.now);
        e.put_u64(self.next_ticket);
        e.put_len(self.shards.len());
        for shard in &self.shards {
            e.put_u32(shard.index);
            e.put_f64(shard.clock);
            e.put_f64(shard.energy);
            e.put_len(shard.servers.len());
            for srv in &shard.servers {
                e.put_u32(srv.server);
                e.put_len(srv.residents.len());
                for (ty, finish) in &srv.residents {
                    e.put_u8(*ty);
                    e.put_f64(*finish);
                }
            }
        }
        e.put_len(self.parked.len());
        for (ticket, req, parked_at) in &self.parked {
            e.put_u64(*ticket);
            req.encode(&mut e);
            e.put_f64(*parked_at);
        }
        e.put_len(self.counters.len());
        for (name, value) in &self.counters {
            e.put_str(name);
            e.put_u64(*value);
        }
        e.put_len(self.cooldowns.len());
        for cooldown in &self.cooldowns {
            e.put_u32(*cooldown);
        }
        match &self.overload {
            Some(overload) => {
                e.put_u8(1);
                overload.encode(&mut e);
            }
            None => e.put_u8(0),
        }
        e.finish()
    }

    pub fn decode(bytes: &[u8]) -> Result<SnapshotRec, EavmError> {
        let mut d = Dec::new(bytes);
        let version = d.get_u8()?;
        if version != SNAPSHOT_VERSION {
            return Err(EavmError::Durability(format!(
                "unsupported snapshot version {version}"
            )));
        }
        let seq = d.get_u64()?;
        let wal_frames = d.get_u64()?;
        let now = d.get_f64()?;
        let next_ticket = d.get_u64()?;
        let shard_count = d.get_len()?;
        let mut shards = Vec::with_capacity(shard_count);
        for _ in 0..shard_count {
            let index = d.get_u32()?;
            let clock = d.get_f64()?;
            let energy = d.get_f64()?;
            let server_count = d.get_len()?;
            let mut servers = Vec::with_capacity(server_count);
            for _ in 0..server_count {
                let server = d.get_u32()?;
                let n = d.get_len()?;
                let residents = (0..n)
                    .map(|_| Ok((d.get_u8()?, d.get_f64()?)))
                    .collect::<Result<_, EavmError>>()?;
                servers.push(ServerSnapRec { server, residents });
            }
            shards.push(ShardSnapRec {
                index,
                clock,
                energy,
                servers,
            });
        }
        let parked_count = d.get_len()?;
        let parked = (0..parked_count)
            .map(|_| Ok((d.get_u64()?, ReqRec::decode(&mut d)?, d.get_f64()?)))
            .collect::<Result<_, EavmError>>()?;
        let counter_count = d.get_len()?;
        let counters = (0..counter_count)
            .map(|_| Ok((d.get_string()?, d.get_u64()?)))
            .collect::<Result<_, EavmError>>()?;
        let cooldown_count = d.get_len()?;
        let cooldowns = (0..cooldown_count)
            .map(|_| d.get_u32())
            .collect::<Result<_, _>>()?;
        let overload = match d.get_u8()? {
            0 => None,
            1 => Some(OverloadRec::decode(&mut d)?),
            flag => {
                return Err(EavmError::Durability(format!(
                    "bad overload presence flag {flag}"
                )))
            }
        };
        d.expect_end()?;
        Ok(SnapshotRec {
            seq,
            wal_frames,
            now,
            next_ticket,
            shards,
            parked,
            counters,
            cooldowns,
            overload,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Submit {
                ticket: 3,
                req: ReqRec {
                    id: 17,
                    submit: 120.5,
                    workload: 1,
                    vm_count: 4,
                    deadline: 9000.0,
                    priority: 2,
                },
            },
            WalRecord::Admitted {
                ticket: 3,
                shard: 1,
                placements: vec![PlacementRec {
                    server: 5,
                    cpu: 0,
                    mem: 4,
                    io: 0,
                }],
            },
            WalRecord::AdmittedCrossShard {
                ticket: 4,
                shards: vec![0, 1],
                placements: vec![
                    PlacementRec {
                        server: 0,
                        cpu: 2,
                        mem: 0,
                        io: 0,
                    },
                    PlacementRec {
                        server: 6,
                        cpu: 1,
                        mem: 0,
                        io: 0,
                    },
                ],
            },
            WalRecord::Queued {
                ticket: 5,
                depth: 2,
            },
            WalRecord::Requeued {
                ticket: 6,
                shard: 0,
            },
            WalRecord::Shed {
                ticket: 7,
                reason: 2,
            },
            WalRecord::Clock { t: 4321.0625 },
            WalRecord::Migrate {
                epoch: 9,
                t: 5400.5,
                stall: 1.90625,
                moves: vec![
                    MoveRec {
                        from: 3,
                        to: 0,
                        ty: 2,
                    },
                    MoveRec {
                        from: 3,
                        to: 1,
                        ty: 0,
                    },
                ],
            },
            WalRecord::Migrate {
                epoch: 10,
                t: 6000.0,
                stall: 1.90625,
                moves: vec![],
            },
            WalRecord::Advance { t: 6500.125 },
            WalRecord::Drain,
        ]
    }

    #[test]
    fn wal_records_round_trip() {
        for record in sample_records() {
            let decoded = WalRecord::decode(&record.encode()).unwrap();
            assert_eq!(decoded, record);
        }
    }

    #[test]
    fn unknown_tag_and_trailing_bytes_are_rejected() {
        assert!(WalRecord::decode(&[99]).is_err());
        let mut bytes = WalRecord::Clock { t: 1.0 }.encode();
        bytes.push(0);
        assert!(WalRecord::decode(&bytes).is_err());
        assert!(WalRecord::decode(&bytes[..bytes.len() - 3]).is_err());
    }

    #[test]
    fn verdict_lines_are_stable() {
        let lines: Vec<Option<String>> = sample_records()
            .iter()
            .map(WalRecord::verdict_line)
            .collect();
        assert_eq!(lines[0], None);
        assert_eq!(
            lines[1].as_deref(),
            Some("3 admitted shard=1 placements=[5:0/4/0]")
        );
        assert_eq!(
            lines[2].as_deref(),
            Some("4 admitted-cross shards=[0,1] placements=[0:2/0/0,6:1/0/0]")
        );
        assert_eq!(lines[3].as_deref(), Some("5 queued depth=2"));
        assert_eq!(lines[4].as_deref(), Some("6 requeued shard=0"));
        assert_eq!(lines[5].as_deref(), Some("7 shed reason=unplaceable"));
        assert_eq!(lines[6], None);
        // Migrate frames (with and without moves) never surface in the
        // verdict log.
        assert_eq!(lines[7], None);
        assert_eq!(lines[8], None);
        // Neither do the Advance and Drain inputs.
        assert_eq!(lines[9], None);
        assert_eq!(lines[10], None);
    }

    #[test]
    fn only_submit_advance_and_drain_are_inputs() {
        let inputs: Vec<bool> = sample_records().iter().map(WalRecord::is_input).collect();
        assert_eq!(
            inputs,
            [true, false, false, false, false, false, false, false, false, true, true]
        );
    }

    #[test]
    fn migrate_frames_carry_no_ticket_and_round_trip_bit_exact() {
        let rec = WalRecord::Migrate {
            epoch: 41,
            t: 12_300.25,
            stall: 1.906_25,
            moves: vec![MoveRec {
                from: 7,
                to: 2,
                ty: 1,
            }],
        };
        assert_eq!(rec.ticket(), None);
        let decoded = WalRecord::decode(&rec.encode()).unwrap();
        assert_eq!(decoded, rec);
        if let WalRecord::Migrate { stall, .. } = decoded {
            assert_eq!(stall.to_bits(), 1.906_25f64.to_bits());
        } else {
            panic!("decoded to a different variant");
        }
    }

    #[test]
    fn snapshot_round_trips_bit_exact() {
        let snap = SnapshotRec {
            seq: 12,
            wal_frames: 340,
            now: 7777.25,
            next_ticket: 901,
            shards: vec![ShardSnapRec {
                index: 0,
                clock: 7777.25,
                energy: 1.25e6,
                servers: vec![
                    ServerSnapRec {
                        server: 0,
                        residents: vec![(0, 8000.125), (2, 9000.5)],
                    },
                    ServerSnapRec {
                        server: 1,
                        residents: vec![],
                    },
                ],
            }],
            parked: vec![(
                900,
                ReqRec {
                    id: 55,
                    submit: 7000.0,
                    workload: 2,
                    vm_count: 3,
                    deadline: 12000.0,
                    priority: 0,
                },
                7400.125,
            )],
            counters: vec![
                ("service.submitted".into(), 900),
                ("service.requeued".into(), 2),
            ],
            cooldowns: vec![0, 2, 1],
            overload: Some(OverloadRec {
                now: 7777.25,
                probes: 41,
                breaker: 2,
                streak: 3,
                opened_at: 7100.5,
                limits: vec![12.375, 0.1],
            }),
        };
        let decoded = SnapshotRec::decode(&snap.encode()).unwrap();
        assert_eq!(decoded, snap);
        let plain = SnapshotRec {
            overload: None,
            cooldowns: vec![],
            ..snap.clone()
        };
        assert_eq!(SnapshotRec::decode(&plain.encode()).unwrap(), plain);
        // f64 fields survive bit-exact.
        assert_eq!(
            decoded.shards[0].servers[0].residents[0].1.to_bits(),
            8000.125f64.to_bits()
        );
        assert_eq!(decoded.parked[0].2.to_bits(), 7400.125f64.to_bits());
        let overload = decoded.overload.expect("overload state");
        assert_eq!(overload.limits[1].to_bits(), 0.1f64.to_bits());
    }

    #[test]
    fn every_shed_reason_has_a_stable_name() {
        let names: Vec<&str> = (0..7).map(shed_reason_name).collect();
        assert_eq!(
            names,
            [
                "admission-full",
                "wait-queue-full",
                "unplaceable",
                "shard-failure",
                "storage-degraded",
                "queue-aged",
                "brownout-class",
            ]
        );
        assert_eq!(shed_reason_name(7), "unknown");
        let line = WalRecord::Shed {
            ticket: 12,
            reason: 6,
        }
        .verdict_line();
        assert_eq!(line.as_deref(), Some("12 shed reason=brownout-class"));
    }

    #[test]
    fn snapshot_version_is_checked() {
        let mut bytes = SnapshotRec {
            seq: 0,
            wal_frames: 0,
            now: 0.0,
            next_ticket: 0,
            shards: vec![],
            parked: vec![],
            counters: vec![],
            cooldowns: vec![],
            overload: None,
        }
        .encode();
        bytes[0] = 9;
        assert!(SnapshotRec::decode(&bytes).is_err());
    }
}
