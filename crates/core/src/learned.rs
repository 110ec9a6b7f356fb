//! A learned (regression) allocation model — the paper's future-work
//! item: "using machine learning techniques to extract on-the-fly a model
//! out of the sub-system utilization data collected from offline
//! experiments".
//!
//! [`LearnedModel`] fits one quadratic least-squares regressor per
//! workload type (predicting that type's execution time from the mix
//! vector) plus one for run energy, against the records of an empirical
//! [`ModelDatabase`]. It implements [`AllocationModel`], so the PROACTIVE
//! allocator can run on the learned surrogate instead of exact table
//! lookups — the basis of the model-ablation benchmark.

use eavm_benchdb::ModelDatabase;
use eavm_types::{EavmError, Joules, MixVector, Seconds, Watts, WorkloadType};

use crate::model::AllocationModel;

/// Quadratic feature map over the mix vector plus two hinge terms that
/// let the regressor express the sharp onset of memory oversubscription
/// (high memory-VM counts, high total counts):
/// `[1, c, m, i, c², m², i², cm, ci, mi, max(0,m−3)², max(0,c+m+i−9)²]`.
fn features(mix: MixVector) -> [f64; NFEAT] {
    let (c, m, i) = (mix.cpu as f64, mix.mem as f64, mix.io as f64);
    let hinge_mem = (m - 3.0).max(0.0);
    let hinge_total = (c + m + i - 9.0).max(0.0);
    [
        1.0,
        c,
        m,
        i,
        c * c,
        m * m,
        i * i,
        c * m,
        c * i,
        m * i,
        hinge_mem * hinge_mem,
        hinge_total * hinge_total,
    ]
}

const NFEAT: usize = 12;

/// Solve the linear system `A x = b` (with `A` symmetric positive
/// semi-definite from normal equations) by Gaussian elimination with
/// partial pivoting. Tiny pivots get Tikhonov-style damping so collinear
/// feature sets (e.g. a type never varied) stay solvable.
#[allow(clippy::needless_range_loop)] // simultaneous row access in elimination
fn solve(mut a: [[f64; NFEAT]; NFEAT], mut b: [f64; NFEAT]) -> [f64; NFEAT] {
    // Ridge damping keeps the system well-posed.
    for (k, row) in a.iter_mut().enumerate() {
        row[k] += 1e-9;
    }
    for col in 0..NFEAT {
        // Pivot.
        let pivot_row = (col..NFEAT)
            .max_by(|&x, &y| a[x][col].abs().partial_cmp(&a[y][col].abs()).unwrap())
            .unwrap();
        a.swap(col, pivot_row);
        b.swap(col, pivot_row);
        let pivot = a[col][col];
        if pivot.abs() < 1e-30 {
            continue;
        }
        for row in col + 1..NFEAT {
            let f = a[row][col] / pivot;
            for k in col..NFEAT {
                a[row][k] -= f * a[col][k];
            }
            b[row] -= f * b[col];
        }
    }
    // Back substitution.
    let mut x = [0.0; NFEAT];
    for col in (0..NFEAT).rev() {
        let mut acc = b[col];
        for k in col + 1..NFEAT {
            acc -= a[col][k] * x[k];
        }
        x[col] = if a[col][col].abs() < 1e-30 {
            0.0
        } else {
            acc / a[col][col]
        };
    }
    x
}

/// Ordinary least squares via normal equations.
fn fit(xs: &[[f64; NFEAT]], ys: &[f64]) -> [f64; NFEAT] {
    let mut xtx = [[0.0; NFEAT]; NFEAT];
    let mut xty = [0.0; NFEAT];
    for (x, &y) in xs.iter().zip(ys) {
        for r in 0..NFEAT {
            for c in 0..NFEAT {
                xtx[r][c] += x[r] * x[c];
            }
            xty[r] += x[r] * y;
        }
    }
    solve(xtx, xty)
}

fn predict(theta: &[f64; NFEAT], x: &[f64; NFEAT]) -> f64 {
    theta.iter().zip(x).map(|(t, f)| t * f).sum()
}

/// Coefficient of determination on a sample.
fn r_squared(theta: &[f64; NFEAT], xs: &[[f64; NFEAT]], ys: &[f64]) -> f64 {
    let mean = ys.iter().sum::<f64>() / ys.len() as f64;
    let ss_tot: f64 = ys.iter().map(|y| (y - mean).powi(2)).sum();
    let ss_res: f64 = xs
        .iter()
        .zip(ys)
        .map(|(x, y)| (y - predict(theta, x)).powi(2))
        .sum();
    if ss_tot == 0.0 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    }
}

/// The regression surrogate of an empirical database.
#[derive(Debug, Clone)]
pub struct LearnedModel {
    /// One execution-time regressor per workload type.
    time_theta: [[f64; NFEAT]; 3],
    /// Run-energy regressor.
    energy_theta: [f64; NFEAT],
    /// Training R² per time regressor.
    time_r2: [f64; 3],
    /// Training R² of the energy regressor.
    energy_r2: f64,
    solo_times: [Seconds; 3],
    max_mix: MixVector,
    idle_power: Watts,
}

impl LearnedModel {
    /// Fit a surrogate to every record of the database.
    pub fn fit(db: &ModelDatabase) -> Result<Self, EavmError> {
        if db.is_empty() {
            return Err(EavmError::InvalidConfig(
                "cannot fit a learned model to an empty database".into(),
            ));
        }
        // Train only on mixes the allocator can actually propose (inside
        // the hostable bounds); the deep homogeneous base tests beyond the
        // optima carry the thrashing cliff and would distort a global
        // quadratic. Targets are fitted in log space so errors are
        // multiplicative, matching how contention compounds.
        let bounds = db.aux().os_bounds;
        let in_bounds = |mix: MixVector| mix.fits_within(&bounds);
        let mut time_theta = [[0.0; NFEAT]; 3];
        let mut time_r2 = [0.0; 3];
        for ty in WorkloadType::ALL {
            let mut xs = Vec::new();
            let mut ys = Vec::new();
            for r in db.records() {
                if !in_bounds(r.mix) {
                    continue;
                }
                if let Some(t) = r.time_of(ty) {
                    xs.push(features(r.mix));
                    ys.push(t.value().ln());
                }
            }
            if xs.len() < NFEAT {
                return Err(EavmError::InvalidConfig(format!(
                    "too few records ({}) to fit a time model for {ty}",
                    xs.len()
                )));
            }
            let theta = fit(&xs, &ys);
            time_r2[ty.index()] = r_squared(&theta, &xs, &ys);
            time_theta[ty.index()] = theta;
        }

        let trainable: Vec<_> = db.records().iter().filter(|r| in_bounds(r.mix)).collect();
        let xs: Vec<_> = trainable.iter().map(|r| features(r.mix)).collect();
        let ys: Vec<_> = trainable.iter().map(|r| r.energy.value().ln()).collect();
        let energy_theta = fit(&xs, &ys);
        let energy_r2 = r_squared(&energy_theta, &xs, &ys);

        Ok(LearnedModel {
            time_theta,
            energy_theta,
            time_r2,
            energy_r2,
            solo_times: db.aux().solo_times,
            max_mix: db.aux().os_bounds,
            idle_power: Watts(125.0),
        })
    }

    /// Training-set R² of the per-type time regressors.
    pub fn time_r2(&self) -> [f64; 3] {
        self.time_r2
    }

    /// k-fold cross-validation of the surrogate's execution-time
    /// predictions: fit on k−1 folds of the in-bounds records, evaluate
    /// the mean relative error on the held-out fold, and average across
    /// folds. Folds are assigned round-robin over the key-sorted records,
    /// so every fold spans the whole grid.
    pub fn cross_validate(db: &ModelDatabase, k: usize) -> Result<f64, EavmError> {
        if k < 2 {
            return Err(EavmError::InvalidConfig(
                "cross-validation needs at least 2 folds".into(),
            ));
        }
        let bounds = db.aux().os_bounds;
        let usable: Vec<_> = db
            .records()
            .iter()
            .filter(|r| r.mix.fits_within(&bounds))
            .collect();
        if usable.len() < k * NFEAT {
            return Err(EavmError::InvalidConfig(format!(
                "too few records ({}) for {k}-fold cross-validation",
                usable.len()
            )));
        }

        let mut fold_errors = Vec::with_capacity(k);
        for fold in 0..k {
            // Fit per-type time regressors on the training folds.
            let mut theta = [[0.0; NFEAT]; 3];
            for ty in WorkloadType::ALL {
                let mut xs = Vec::new();
                let mut ys = Vec::new();
                for (i, r) in usable.iter().enumerate() {
                    if i % k == fold {
                        continue;
                    }
                    if let Some(t) = r.time_of(ty) {
                        xs.push(features(r.mix));
                        ys.push(t.value().ln());
                    }
                }
                theta[ty.index()] = fit(&xs, &ys);
            }
            // Evaluate on the held-out fold.
            let mut err_sum = 0.0;
            let mut count = 0usize;
            for (i, r) in usable.iter().enumerate() {
                if i % k != fold {
                    continue;
                }
                for ty in WorkloadType::ALL {
                    if let Some(truth) = r.time_of(ty) {
                        let pred = predict(&theta[ty.index()], &features(r.mix)).exp();
                        err_sum += (pred - truth.value()).abs() / truth.value();
                        count += 1;
                    }
                }
            }
            if count > 0 {
                fold_errors.push(err_sum / count as f64);
            }
        }
        Ok(fold_errors.iter().sum::<f64>() / fold_errors.len() as f64)
    }

    /// Training-set R² of the energy regressor.
    pub fn energy_r2(&self) -> f64 {
        self.energy_r2
    }
}

impl AllocationModel for LearnedModel {
    fn exec_time(&self, mix: MixVector, ty: WorkloadType) -> Result<Seconds, EavmError> {
        if mix[ty] == 0 {
            return Err(EavmError::ModelMiss(format!(
                "type {ty} absent from mix {mix}"
            )));
        }
        let t = predict(&self.time_theta[ty.index()], &features(mix)).exp();
        // A regression can dip below physical floors near the grid edges;
        // clamp to at least half the solo time.
        Ok(Seconds(t.max(self.solo_times[ty.index()].value() * 0.5)))
    }

    fn power(&self, mix: MixVector) -> Result<Watts, EavmError> {
        if mix.is_empty() {
            return Ok(self.idle_power);
        }
        let e = self.run_energy(mix)?;
        let longest = WorkloadType::ALL
            .into_iter()
            .filter(|&ty| mix[ty] > 0)
            .map(|ty| self.exec_time(mix, ty).expect("type present"))
            .fold(Seconds::ZERO, Seconds::max);
        if longest <= Seconds::ZERO {
            return Ok(self.idle_power);
        }
        Ok((e / longest).max(self.idle_power))
    }

    fn run_energy(&self, mix: MixVector) -> Result<Joules, EavmError> {
        if mix.is_empty() {
            return Ok(Joules::ZERO);
        }
        let e = predict(&self.energy_theta, &features(mix)).exp();
        Ok(Joules(e.max(0.0)))
    }

    fn solo_time(&self, ty: WorkloadType) -> Seconds {
        self.solo_times[ty.index()]
    }

    fn max_mix(&self) -> MixVector {
        self.max_mix
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eavm_benchdb::DbBuilder;

    fn db() -> ModelDatabase {
        DbBuilder::exact().build().unwrap()
    }

    #[test]
    fn fit_achieves_high_training_r2() {
        let m = LearnedModel::fit(&db()).unwrap();
        for (i, r2) in m.time_r2().iter().enumerate() {
            assert!(*r2 > 0.85, "time regressor {i} underfits: R²={r2}");
        }
        assert!(m.energy_r2() > 0.85, "energy R²={}", m.energy_r2());
    }

    #[test]
    fn predictions_track_database_inside_grid() {
        let database = db();
        let m = LearnedModel::fit(&database).unwrap();
        let mut errs: Vec<f64> = Vec::new();
        for r in database.records() {
            // Compare only mixed records inside the training region.
            if r.mix.is_homogeneous() || !r.mix.fits_within(&database.aux().os_bounds) {
                continue;
            }
            for ty in WorkloadType::ALL {
                if let Some(truth) = r.time_of(ty) {
                    let pred = m.exec_time(r.mix, ty).unwrap();
                    errs.push((pred.value() - truth.value()).abs() / truth.value());
                }
            }
        }
        assert!(errs.len() > 100, "not enough comparisons: {}", errs.len());
        let mean = errs.iter().sum::<f64>() / errs.len() as f64;
        let worst = errs.iter().cloned().fold(0.0f64, f64::max);
        // The surrogate tracks the table within ~15 % on average; the
        // worst points sit at the oversubscription cliff, where even
        // hinge features leave sizeable residuals — that gap is exactly
        // what the lookup-vs-learned ablation benchmark measures.
        assert!(mean < 0.25, "mean relative error {mean}");
        assert!(worst < 1.0, "worst relative error {worst}");
    }

    #[test]
    fn implements_model_contract() {
        let m = LearnedModel::fit(&db()).unwrap();
        assert_eq!(m.max_mix(), db().aux().os_bounds);
        assert!(m
            .exec_time(MixVector::new(2, 1, 0), WorkloadType::Io)
            .is_err());
        assert_eq!(m.run_energy(MixVector::EMPTY).unwrap(), Joules::ZERO);
        assert_eq!(m.power(MixVector::EMPTY).unwrap(), Watts(125.0));
        let p = m.power(MixVector::new(3, 1, 1)).unwrap();
        assert!(p >= Watts(125.0) && p < Watts(400.0), "power {p}");
    }

    #[test]
    fn energy_grows_with_consolidated_load() {
        let m = LearnedModel::fit(&db()).unwrap();
        let e1 = m.run_energy(MixVector::new(1, 0, 0)).unwrap();
        let e3 = m.run_energy(MixVector::new(3, 1, 1)).unwrap();
        assert!(e3 > e1);
    }

    #[test]
    fn cross_validation_generalizes() {
        let database = db();
        let cv_err = LearnedModel::cross_validate(&database, 5).unwrap();
        // Held-out error should be in the same regime as the training
        // error (~15 % mean): no catastrophic overfitting.
        assert!(cv_err < 0.35, "5-fold CV mean relative error {cv_err}");
        assert!(cv_err > 0.0);
        assert!(LearnedModel::cross_validate(&database, 1).is_err());
    }

    #[test]
    fn empty_database_is_rejected() {
        use eavm_benchdb::AuxData;
        let aux = AuxData::new(
            MixVector::new(1, 1, 1),
            MixVector::new(1, 1, 1),
            [Seconds(1.0); 3],
        );
        let empty = ModelDatabase::new(Vec::new(), aux).unwrap();
        assert!(LearnedModel::fit(&empty).is_err());
    }
}
