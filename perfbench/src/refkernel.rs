//! A fixed reference kernel that measures how fast the machine is
//! running right now.
//!
//! Process CPU time is not a property of the program alone: on a
//! shared host it rises and falls with what the neighbours do to
//! caches, memory bandwidth and sibling hyperthreads. The kernel here
//! is a fixed piece of work written in this package, so no change to
//! the program under test can move it. The run times it between its
//! legs, and the end-to-end CPU figures are scaled by
//! `NOMINAL_S / median kernel CPU time`: what they would have cost on
//! the machine at the speed it had when the bounds were set.
//!
//! The work mimics the program's mix: hashed lookups into a table of a
//! few megabytes (the model database), floating-point arithmetic on
//! what they return, and many short-lived small allocations and sorts
//! (the simulator's and the service's per-request bookkeeping).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use crate::trace::Stopwatch;

/// Median CPU time of one [`RefKernel::pass`] on the machine the
/// bounds were tuned on (a 2-vCPU x86-64 KVM guest, release build), in
/// seconds. Only the ratio to it matters; it fixes the scale of the
/// normalised figures.
pub const NOMINAL_S: f64 = 0.025;

/// Entries in the table: about 200 KB with the map's overhead.
const ENTRIES: u64 = 1 << 12;
/// Lookups per pass.
const LOOKUPS: usize = 1 << 19;
/// Lookups between two allocate-and-sort steps.
const BATCH: usize = 16;

/// `DefaultHasher::new()` has fixed keys, so the table's layout, and
/// with it the work, is the same in every run.
type FixedMap = HashMap<u64, [f64; 4], BuildHasherDefault<DefaultHasher>>;

/// SplitMix64: a fixed pseudo-random sequence.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub struct RefKernel {
    table: FixedMap,
    keys: Vec<u64>,
}

impl RefKernel {
    /// The same table and lookup order in every run.
    pub fn new() -> RefKernel {
        let mut state = 0x5EED_u64;
        let ids: Vec<u64> = (0..ENTRIES).map(|_| splitmix(&mut state)).collect();
        let table = ids
            .iter()
            .map(|&id| {
                let v = (id >> 11) as f64 / (1u64 << 53) as f64;
                (id, [v, 1.0 - v, 0.5 + v, 2.0 * v])
            })
            .collect();
        let keys = (0..LOOKUPS)
            .map(|_| ids[(splitmix(&mut state) % ENTRIES) as usize])
            .collect();
        RefKernel { table, keys }
    }

    /// One pass over the lookups; returns its CPU seconds.
    pub fn pass(&self) -> f64 {
        let watch = Stopwatch::start();
        let mut acc = 0.0_f64;
        for chunk in self.keys.chunks(BATCH) {
            let mut batch: Vec<f64> = Vec::with_capacity(BATCH);
            for key in chunk {
                let v = self.table.get(key).copied().unwrap_or_default();
                batch.push(v[0].mul_add(v[1], v[2] / (1.0 + v[3])));
            }
            batch.sort_by(f64::total_cmp);
            acc += batch[batch.len() / 2];
        }
        std::hint::black_box(acc);
        watch.stop().cpu_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_lookup_hits() {
        let k = RefKernel::new();
        assert_eq!(k.table.len() as u64, ENTRIES);
        assert!(k.keys.iter().all(|key| k.table.contains_key(key)));
    }

    #[test]
    fn pass_takes_time() {
        assert!(RefKernel::new().pass() > 0.0);
    }
}
