//! The end-to-end evaluation pipeline (Sect. IV-A/B).
//!
//! Wires the whole reproduction together: build the empirical model on
//! the synthetic testbed (noisy-metered, like the paper), synthesize an
//! EGEE-like SWF trace, clean it, adapt it to typed VM requests capped at
//! the paper's 10,000 VMs, and replay it through the datacenter simulator
//! under each allocation strategy and cloud size.

use eavm_benchdb::{DbBuilder, ModelDatabase};
use eavm_core::{
    AllocationStrategy, AnalyticModel, DbModel, FirstFit, OptimizationGoal, Proactive,
};
use eavm_simulator::{CloudConfig, SimOutcome, Simulation, SimulationError};
use eavm_swf::{adapt, clean_trace, AdaptConfig, GeneratorConfig, TraceGenerator, VmRequest};
use eavm_types::{EavmError, Seconds, WorkloadType};

/// The strategies evaluated in Figures 5–7.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StrategyKind {
    /// FIRST-FIT, one VM per CPU.
    Ff,
    /// FIRST-FIT-2: up to 2 VMs per CPU.
    Ff2,
    /// FIRST-FIT-3: up to 3 VMs per CPU.
    Ff3,
    /// PROACTIVE with the given α.
    Pa(f64),
}

impl StrategyKind {
    /// The six strategies of the paper's evaluation, in figure order.
    pub fn paper_set() -> Vec<StrategyKind> {
        vec![
            StrategyKind::Ff,
            StrategyKind::Ff2,
            StrategyKind::Ff3,
            StrategyKind::Pa(1.0),
            StrategyKind::Pa(0.0),
            StrategyKind::Pa(0.5),
        ]
    }

    /// Display label matching the paper (`FF`, `FF-2`, `FF-3`, `PA-1`,
    /// `PA-0`, `PA-0.5`).
    pub fn label(&self) -> String {
        match self {
            StrategyKind::Ff => "FF".into(),
            StrategyKind::Ff2 => "FF-2".into(),
            StrategyKind::Ff3 => "FF-3".into(),
            StrategyKind::Pa(alpha) => OptimizationGoal::new(*alpha).expect("valid alpha").label(),
        }
    }
}

/// Pipeline tuning knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineConfig {
    /// Seed feeding the trace generator, the adapter, and the power
    /// meter.
    pub seed: u64,
    /// Cap on the total VM count of the adapted trace (paper: 10,000).
    pub total_vms: u32,
    /// Mean gap between submission bursts, seconds; smaller = higher
    /// load pressure.
    pub mean_burst_gap_s: f64,
    /// QoS factor: deadline = factor × solo time of the type.
    pub qos_factor: f64,
    /// PROACTIVE planning headroom (fraction of the deadline available to
    /// estimated execution time; the rest absorbs queueing delay).
    pub qos_margin: f64,
    /// Reference (SMALLER) cloud size in servers.
    pub smaller_servers: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            seed: 0xE6EE,
            total_vms: 10_000,
            mean_burst_gap_s: 18.0,
            qos_factor: 3.0,
            qos_margin: 0.65,
            smaller_servers: 70,
        }
    }
}

/// The assembled evaluation pipeline.
#[derive(Debug, Clone)]
pub struct Pipeline {
    /// Empirical model database (noisy-metered build).
    pub db: ModelDatabase,
    /// Ground truth executed by the simulator.
    pub ground_truth: AnalyticModel,
    /// The adapted, truncated request trace.
    pub requests: Vec<VmRequest>,
    /// Per-type response-time deadlines.
    pub deadlines: [Seconds; 3],
    /// Configuration this pipeline was built from.
    pub config: PipelineConfig,
}

impl Pipeline {
    /// Build the full pipeline from a configuration.
    pub fn build(config: PipelineConfig) -> Result<Self, EavmError> {
        // 1. Empirical model, metered like the paper's methodology; the
        //    benchmark campaign fans out across cores (bit-identical to a
        //    sequential build).
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let db = DbBuilder {
            meter_seed: Some(config.seed),
            ..Default::default()
        }
        .build_parallel(threads)?;

        // 2. Synthetic EGEE-like trace — oversized so the post-cleaning
        // adaptation still reaches the VM cap, then truncated.
        let jobs_needed = (config.total_vms as usize / 2).max(64);
        let mut generator = TraceGenerator::new(GeneratorConfig {
            seed: config.seed,
            total_jobs: jobs_needed,
            mean_burst_gap_s: config.mean_burst_gap_s,
            ..Default::default()
        })
        .map_err(EavmError::InvalidConfig)?;
        let mut trace = generator.generate();
        clean_trace(&mut trace);

        // 3. Adapt to typed VM requests with per-type QoS deadlines.
        let solo = [
            db.aux().solo_time(WorkloadType::Cpu),
            db.aux().solo_time(WorkloadType::Mem),
            db.aux().solo_time(WorkloadType::Io),
        ];
        let adapt_cfg = AdaptConfig {
            qos_factor: config.qos_factor,
            ..AdaptConfig::paper(config.seed ^ 0xADAF, solo)
        };
        let mut requests = adapt::adapt_trace(&trace, &adapt_cfg);
        adapt::truncate_to_vm_total(&mut requests, config.total_vms);
        if requests.is_empty() {
            return Err(EavmError::InvalidConfig(
                "trace adaptation produced no requests".into(),
            ));
        }

        let deadlines = [
            adapt_cfg.deadline(WorkloadType::Cpu),
            adapt_cfg.deadline(WorkloadType::Mem),
            adapt_cfg.deadline(WorkloadType::Io),
        ];

        Ok(Pipeline {
            db,
            ground_truth: AnalyticModel::reference(),
            requests,
            deadlines,
            config,
        })
    }

    /// The paper's SMALLER/LARGER cloud pair for this configuration.
    pub fn clouds(&self) -> (CloudConfig, CloudConfig) {
        CloudConfig::smaller_and_larger(self.config.smaller_servers).expect("positive server count")
    }

    /// Instantiate a strategy by kind.
    pub fn strategy(&self, kind: StrategyKind) -> Box<dyn AllocationStrategy> {
        let cpu_slots = self.ground_truth.server().cpu_slots();
        match kind {
            StrategyKind::Ff => Box::new(FirstFit::ff(cpu_slots)),
            StrategyKind::Ff2 => Box::new(FirstFit::with_multiplex(cpu_slots, 2)),
            StrategyKind::Ff3 => Box::new(FirstFit::with_multiplex(cpu_slots, 3)),
            StrategyKind::Pa(alpha) => {
                let goal = OptimizationGoal::new(alpha).expect("valid alpha");
                Box::new(
                    Proactive::new(DbModel::new(self.db.clone()), goal, self.deadlines)
                        .with_qos_margin(self.config.qos_margin),
                )
            }
        }
    }

    /// Run one strategy on one cloud.
    pub fn run(
        &self,
        kind: StrategyKind,
        cloud: &CloudConfig,
    ) -> Result<SimOutcome, SimulationError> {
        let mut strategy = self.strategy(kind);
        self.run_custom(strategy.as_mut(), cloud)
    }

    /// Run a caller-supplied strategy (used by the model and fleet
    /// ablations).
    pub fn run_custom(
        &self,
        strategy: &mut dyn AllocationStrategy,
        cloud: &CloudConfig,
    ) -> Result<SimOutcome, SimulationError> {
        let sim = Simulation::new(self.ground_truth.clone(), cloud.clone());
        sim.run(strategy, &self.requests)
    }

    /// Run the full Figures 5–7 matrix: every paper strategy on both
    /// clouds. Returns `(cloud label, outcomes in strategy order)` pairs.
    pub fn run_matrix(&self) -> Result<Vec<SimOutcome>, SimulationError> {
        let (smaller, larger) = self.clouds();
        let mut out = Vec::new();
        for cloud in [&smaller, &larger] {
            for kind in StrategyKind::paper_set() {
                out.push(self.run(kind, cloud)?);
            }
        }
        Ok(out)
    }

    /// Total VMs in the adapted trace.
    pub fn total_vms(&self) -> u32 {
        self.requests.iter().map(|r| r.vm_count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scaled-down configuration for fast tests (hundreds of VMs, small
    /// clouds).
    fn small(seed: u64) -> PipelineConfig {
        PipelineConfig {
            seed,
            total_vms: 600,
            mean_burst_gap_s: 90.0,
            qos_factor: 3.0,
            qos_margin: 0.65,
            smaller_servers: 5,
        }
    }

    #[test]
    fn labels_match_paper_names() {
        let labels: Vec<String> = StrategyKind::paper_set()
            .iter()
            .map(|k| k.label())
            .collect();
        assert_eq!(labels, vec!["FF", "FF-2", "FF-3", "PA-1", "PA-0", "PA-0.5"]);
    }

    #[test]
    fn small_pipeline_builds_and_runs_ff() {
        let p = Pipeline::build(small(7)).unwrap();
        assert!(p.total_vms() <= 600);
        assert!(p.total_vms() > 500);
        let (smaller, larger) = p.clouds();
        assert!(larger.servers > smaller.servers);
        let out = p.run(StrategyKind::Ff, &smaller).unwrap();
        assert_eq!(out.strategy, "FF");
        assert_eq!(out.vms as u32, p.total_vms());
        assert!(out.makespan() > Seconds::ZERO);
    }

    #[test]
    fn proactive_runs_on_small_pipeline() {
        let p = Pipeline::build(small(8)).unwrap();
        let (smaller, _) = p.clouds();
        let out = p.run(StrategyKind::Pa(0.5), &smaller).unwrap();
        assert_eq!(out.strategy, "PA-0.5");
        assert_eq!(out.vms as u32, p.total_vms());
    }

    #[test]
    fn pipeline_is_deterministic() {
        let a = Pipeline::build(small(9)).unwrap();
        let b = Pipeline::build(small(9)).unwrap();
        assert_eq!(a.requests, b.requests);
        let (cloud, _) = a.clouds();
        let ra = a.run(StrategyKind::Ff2, &cloud).unwrap();
        let rb = b.run(StrategyKind::Ff2, &cloud).unwrap();
        assert_eq!(ra, rb);
    }
}
