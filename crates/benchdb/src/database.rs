//! The model database (Sect. III-C).
//!
//! "As the amount of information was manageable using text files, we used
//! a plain-text file with comma-separated values (CSV) instead of an
//! actual database management system. ... As the registers of the
//! database are accessed using binary search, the searching cost is
//! O(log(num_tests)). Therefore, we sorted (in the ascending order) the
//! registers of the database by a searching key, which is composed of the
//! parameters that indicate the number of VMs of each workload type
//! (Ncpu, Nmem, Nio)."

use std::fs;
use std::path::Path;

use eavm_types::{EavmError, Joules, MixVector, Seconds, Watts, WorkloadType};

use crate::auxdata::AuxData;
use crate::record::DbRecord;

/// Estimated behaviour of a candidate allocation, as derived from the
/// database.
#[derive(Debug, Clone, PartialEq)]
pub struct Estimate {
    /// The queried mix.
    pub mix: MixVector,
    /// Estimated total (makespan) time of running the mix from scratch.
    pub time: Seconds,
    /// Estimated average execution time per VM.
    pub avg_time_vm: Seconds,
    /// Estimated total energy of running the mix from scratch.
    pub energy: Joules,
    /// Estimated peak power.
    pub max_power: Watts,
    /// Estimated per-type execution times (absent types are `None`).
    pub per_type_time: [Option<Seconds>; 3],
    /// `true` when the mix was outside the benchmarked grid and the values
    /// were extrapolated (pessimistically) from the nearest record.
    pub extrapolated: bool,
}

impl Estimate {
    /// Estimated execution time for VMs of `ty` in this mix.
    pub fn time_of(&self, ty: WorkloadType) -> Option<Seconds> {
        self.per_type_time[ty.index()]
    }

    /// Average power over the estimated run.
    pub fn avg_power(&self) -> Watts {
        if self.time <= Seconds::ZERO {
            Watts::ZERO
        } else {
            self.energy / self.time
        }
    }
}

/// The in-memory model database: sorted records + auxiliary parameters.
#[derive(Debug, Clone)]
pub struct ModelDatabase {
    records: Vec<DbRecord>,
    aux: AuxData,
    /// Per type, the deepest homogeneous (base-test) record's VM count;
    /// `None` when the type has no base tests.
    base_depth: [Option<u32>; 3],
}

/// Pessimistic extrapolation exponent: per-VM execution times beyond the
/// benchmarked grid are assumed to grow superlinearly in the VM count
/// ratio (contention only ever worsens past the optimal scenarios).
const EXTRAPOLATION_EXPONENT: f64 = 1.5;

impl ModelDatabase {
    /// Assemble a database; records are sorted by key (the paper's
    /// ascending `(Ncpu, Nmem, Nio)` order) and deduplicated keys are
    /// rejected.
    pub fn new(mut records: Vec<DbRecord>, aux: AuxData) -> Result<Self, EavmError> {
        records.sort_by_key(|r| r.mix);
        for w in records.windows(2) {
            if w[0].mix == w[1].mix {
                return Err(EavmError::Parse(format!(
                    "duplicate database key {}",
                    w[0].mix
                )));
            }
        }
        let base_depth = WorkloadType::ALL.map(|ty| {
            records
                .iter()
                .filter(|r| r.mix.sole_type() == Some(ty))
                .map(|r| r.mix[ty])
                .max()
        });
        Ok(ModelDatabase {
            records,
            aux,
            base_depth,
        })
    }

    /// The auxiliary (Table I) parameters.
    pub fn aux(&self) -> &AuxData {
        &self.aux
    }

    /// All records, ascending by key.
    pub fn records(&self) -> &[DbRecord] {
        &self.records
    }

    /// Number of registers.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when the database holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Binary-search lookup by key — the paper's `O(log num_tests)`
    /// register access.
    pub fn lookup(&self, mix: MixVector) -> Option<&DbRecord> {
        self.records
            .binary_search_by_key(&mix, |r| r.mix)
            .ok()
            .map(|i| &self.records[i])
    }

    /// `true` if the mix was benchmarked directly.
    pub fn covers(&self, mix: MixVector) -> bool {
        self.lookup(mix).is_some()
    }

    /// Estimate the behaviour of a mix: exact for benchmarked mixes,
    /// pessimistic extrapolation from the nearest (component-wise clamped)
    /// record otherwise.
    pub fn estimate(&self, mix: MixVector) -> Result<Estimate, EavmError> {
        if mix.is_empty() {
            return Err(EavmError::ModelMiss("empty mix has no estimate".into()));
        }
        if let Some(r) = self.lookup(mix) {
            return Ok(Estimate {
                mix,
                time: r.time,
                avg_time_vm: r.avg_time_vm,
                energy: r.energy,
                max_power: r.max_power,
                per_type_time: r.per_type_time,
                extrapolated: false,
            });
        }

        // Clamp to the benchmarked grid. Homogeneous mixes may reach the
        // deeper base-test range, so clamp against the largest benchmarked
        // homogeneous point for that type first.
        let clamped = self.clamp_to_grid(mix)?;
        let base = self.lookup(clamped).ok_or_else(|| {
            EavmError::ModelMiss(format!("no record at clamped mix {clamped} for {mix}"))
        })?;
        let ratio = mix.total() as f64 / clamped.total() as f64;
        let stretch = ratio.powf(EXTRAPOLATION_EXPONENT);
        let per_type_time = WorkloadType::ALL.map(|ty| {
            if mix[ty] == 0 {
                None
            } else {
                // A type present in `mix` but absent from the clamped
                // record falls back to its solo time, stretched.
                let t = base.time_of(ty).unwrap_or_else(|| self.aux.solo_time(ty));
                Some(t * stretch)
            }
        });
        let time = base.time * stretch;
        Ok(Estimate {
            mix,
            time,
            avg_time_vm: time / mix.total() as f64,
            energy: base.energy * stretch,
            max_power: base.max_power,
            per_type_time,
            extrapolated: true,
        })
    }

    /// Per-VM slowdown of type `ty` under `mix`, relative to its solo
    /// runtime — the quantity the datacenter simulator integrates.
    pub fn slowdown(&self, mix: MixVector, ty: WorkloadType) -> Result<f64, EavmError> {
        let est = self.estimate(mix)?;
        let t = est
            .time_of(ty)
            .ok_or_else(|| EavmError::ModelMiss(format!("type {ty} absent from mix {mix}")))?;
        Ok(t / self.aux.solo_time(ty))
    }

    fn clamp_to_grid(&self, mix: MixVector) -> Result<MixVector, EavmError> {
        let bounds = self.aux.os_bounds;
        if let Some(ty) = mix.sole_type() {
            // Homogeneous: clamp to the deepest base-test point.
            let max_n = self.base_depth[ty.index()]
                .ok_or_else(|| EavmError::ModelMiss(format!("no base tests for type {ty}")))?;
            return Ok(MixVector::single(ty, mix[ty].min(max_n)));
        }
        let clamped = MixVector::new(
            mix.cpu.min(bounds.cpu),
            mix.mem.min(bounds.mem),
            mix.io.min(bounds.io),
        );
        if clamped.is_empty() {
            return Err(EavmError::ModelMiss(format!(
                "mix {mix} clamps to empty under bounds {bounds}"
            )));
        }
        // A clamped heterogeneous mix may hit an excluded base point
        // (e.g. (5,0,0) when bounds zero out other types); that is still a
        // valid homogeneous record.
        Ok(clamped)
    }

    /// Serialize the records to CSV (header + one line per register).
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(64 * (self.records.len() + 1));
        out.push_str(DbRecord::CSV_HEADER);
        out.push('\n');
        for r in &self.records {
            out.push_str(&r.to_csv());
            out.push('\n');
        }
        out
    }

    /// Parse records from CSV text (header required) plus auxiliary text.
    pub fn from_csv(csv: &str, aux_text: &str) -> Result<Self, EavmError> {
        let mut lines = csv.lines();
        match lines.next() {
            Some(h) if h.trim() == DbRecord::CSV_HEADER => {}
            other => {
                return Err(EavmError::Parse(format!(
                    "bad or missing CSV header: {other:?}"
                )))
            }
        }
        let mut records = Vec::new();
        for (i, line) in lines.enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let r = DbRecord::from_csv(line)
                .map_err(|e| EavmError::Parse(format!("line {}: {e}", i + 2)))?;
            r.validate()
                .map_err(|e| EavmError::Parse(format!("line {}: {e}", i + 2)))?;
            records.push(r);
        }
        let aux = AuxData::from_text(aux_text)?;
        Self::new(records, aux)
    }

    /// Write the database (CSV) and auxiliary file to disk.
    pub fn save(&self, db_path: &Path, aux_path: &Path) -> Result<(), EavmError> {
        fs::write(db_path, self.to_csv())?;
        fs::write(aux_path, self.aux.to_text())?;
        Ok(())
    }

    /// Load a database written by [`Self::save`].
    pub fn load(db_path: &Path, aux_path: &Path) -> Result<Self, EavmError> {
        let csv = fs::read_to_string(db_path)?;
        let aux = fs::read_to_string(aux_path)?;
        Self::from_csv(&csv, &aux)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(mix: MixVector, time: f64) -> DbRecord {
        let total = mix.total();
        DbRecord {
            mix,
            time: Seconds(time),
            avg_time_vm: Seconds(time / total as f64),
            energy: Joules(200.0 * time),
            max_power: Watts(230.0),
            edp: 200.0 * time * time,
            per_type_time: WorkloadType::ALL.map(|ty| {
                if mix[ty] > 0 {
                    Some(Seconds(time * 0.9))
                } else {
                    None
                }
            }),
        }
    }

    fn sample_db() -> ModelDatabase {
        let aux = AuxData::new(
            MixVector::new(2, 2, 2),
            MixVector::new(2, 2, 2),
            [Seconds(1200.0), Seconds(1000.0), Seconds(900.0)],
        );
        let mut records = Vec::new();
        // Base tests: up to 4 clones per type.
        for ty in WorkloadType::ALL {
            for n in 1..=4u32 {
                records.push(record(MixVector::single(ty, n), 1000.0 + 100.0 * n as f64));
            }
        }
        // Combined grid within (2,2,2).
        for m in crate::combined::combined_mixes(MixVector::new(2, 2, 2)) {
            records.push(record(m, 900.0 + 150.0 * m.total() as f64));
        }
        ModelDatabase::new(records, aux).unwrap()
    }

    #[test]
    fn lookup_hits_every_stored_key() {
        let db = sample_db();
        for r in db.records() {
            assert_eq!(db.lookup(r.mix).unwrap().mix, r.mix);
        }
        assert!(db.lookup(MixVector::new(9, 9, 9)).is_none());
        assert!(!db.is_empty());
    }

    #[test]
    fn records_are_sorted_ascending() {
        let db = sample_db();
        for w in db.records().windows(2) {
            assert!(w[0].mix < w[1].mix);
        }
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let aux = sample_db().aux().clone();
        let dup = vec![
            record(MixVector::new(1, 0, 0), 100.0),
            record(MixVector::new(1, 0, 0), 200.0),
        ];
        assert!(ModelDatabase::new(dup, aux).is_err());
    }

    #[test]
    fn exact_estimates_are_not_extrapolated() {
        let db = sample_db();
        let e = db.estimate(MixVector::new(1, 1, 0)).unwrap();
        assert!(!e.extrapolated);
        assert_eq!(e.mix, MixVector::new(1, 1, 0));
        assert!(e.time_of(WorkloadType::Cpu).is_some());
        assert!(e.time_of(WorkloadType::Io).is_none());
    }

    #[test]
    fn out_of_grid_estimates_extrapolate_pessimistically() {
        let db = sample_db();
        let inside = db.estimate(MixVector::new(2, 2, 2)).unwrap();
        let outside = db.estimate(MixVector::new(3, 3, 3)).unwrap();
        assert!(outside.extrapolated);
        // Per-VM time must not improve beyond the grid.
        assert!(outside.avg_time_vm > inside.avg_time_vm * 0.99);
        assert!(outside.time > inside.time);
    }

    #[test]
    fn homogeneous_overflow_clamps_to_deepest_base_test() {
        let db = sample_db();
        let e = db
            .estimate(MixVector::single(WorkloadType::Cpu, 9))
            .unwrap();
        assert!(e.extrapolated);
        let base = db.lookup(MixVector::single(WorkloadType::Cpu, 4)).unwrap();
        assert!(e.time > base.time);
    }

    #[test]
    fn empty_mix_has_no_estimate() {
        assert!(sample_db().estimate(MixVector::EMPTY).is_err());
    }

    #[test]
    fn slowdown_is_relative_to_solo_time() {
        let db = sample_db();
        let s = db
            .slowdown(MixVector::new(2, 1, 0), WorkloadType::Cpu)
            .unwrap();
        let r = db.lookup(MixVector::new(2, 1, 0)).unwrap();
        let expect = r.time_of(WorkloadType::Cpu).unwrap() / Seconds(1200.0);
        assert!((s - expect).abs() < 1e-12);
        assert!(db
            .slowdown(MixVector::new(2, 1, 0), WorkloadType::Io)
            .is_err());
    }

    #[test]
    fn binary_search_hits_the_exact_first_and_last_records() {
        let db = sample_db();
        // Boundary hits: the endpoints of the sorted record array are
        // where an off-by-one in the binary search would bite.
        let first = db.records().first().unwrap().mix;
        let last = db.records().last().unwrap().mix;
        assert_eq!(db.lookup(first).unwrap().mix, first);
        assert_eq!(db.lookup(last).unwrap().mix, last);
        // Keys ordered strictly before the first / after the last
        // record miss cleanly instead of wrapping or panicking.
        assert!(MixVector::EMPTY < first);
        assert!(db.lookup(MixVector::EMPTY).is_none());
        let beyond = MixVector::new(last.cpu + 1, last.mem, last.io);
        assert!(last < beyond);
        assert!(db.lookup(beyond).is_none());
    }

    #[test]
    fn extrapolation_beyond_the_largest_recorded_mix_stays_monotone() {
        let db = sample_db();
        let grid_corner = db.estimate(MixVector::new(2, 2, 2)).unwrap();
        assert!(!grid_corner.extrapolated);
        // (5,5,5) exceeds every recorded mix component-wise.
        let outside = db.estimate(MixVector::new(5, 5, 5)).unwrap();
        assert!(outside.extrapolated);
        assert!(outside.time > grid_corner.time);
        // The pessimistic stretch keeps growing with distance, and the
        // per-type times stay populated for every present type.
        let farther = db.estimate(MixVector::new(6, 6, 6)).unwrap();
        assert!(farther.time >= outside.time);
        for ty in WorkloadType::ALL {
            assert!(outside.time_of(ty).is_some(), "missing {ty} time");
        }
    }

    #[test]
    fn csv_roundtrip_preserves_database() {
        let db = sample_db();
        let back = ModelDatabase::from_csv(&db.to_csv(), &db.aux().to_text()).unwrap();
        assert_eq!(back.len(), db.len());
        for (a, b) in back.records().iter().zip(db.records()) {
            assert_eq!(a.mix, b.mix);
            assert!((a.time.value() - b.time.value()).abs() < 1e-6);
        }
        assert_eq!(back.aux(), db.aux());
    }

    #[test]
    fn csv_parse_rejects_bad_header() {
        let db = sample_db();
        assert!(ModelDatabase::from_csv("nope\n", &db.aux().to_text()).is_err());
    }

    #[test]
    fn save_and_load_roundtrip_on_disk() {
        let db = sample_db();
        let dir = std::env::temp_dir().join("eavm-benchdb-test");
        std::fs::create_dir_all(&dir).unwrap();
        let dbp = dir.join("model.csv");
        let auxp = dir.join("aux.txt");
        db.save(&dbp, &auxp).unwrap();
        let back = ModelDatabase::load(&dbp, &auxp).unwrap();
        assert_eq!(back.len(), db.len());
        std::fs::remove_file(dbp).ok();
        std::fs::remove_file(auxp).ok();
    }

    #[test]
    fn estimate_avg_power_is_energy_over_time() {
        let db = sample_db();
        let e = db.estimate(MixVector::new(1, 0, 1)).unwrap();
        assert!((e.avg_power().value() - e.energy.value() / e.time.value()).abs() < 1e-9);
    }
}
