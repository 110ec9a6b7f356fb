//! # eavm-bench
//!
//! Experiment harness regenerating **every table and figure** of the
//! paper's evaluation, plus ablations. Each `src/bin/*.rs` binary prints
//! one artifact:
//!
//! | binary             | artifact |
//! |--------------------|----------|
//! | `fig1_profiles`    | Fig. 1 — subsystem utilization over time (CPU-intensive; CPU+network) |
//! | `fig2_fftw`        | Fig. 2 — FFTW average execution time vs #VMs |
//! | `table1_base`      | Table I — OSP/OSE/T per workload type |
//! | `table2_database`  | Table II — model-database schema + sample registers |
//! | `fig3_flow`        | Fig. 3 — executed partition-search walkthrough per goal |
//! | `fig4_intervals`   | Fig. 4 — interval-weighted worked example |
//! | `fig5_makespan`    | Fig. 5 — makespan per strategy × cloud |
//! | `fig6_energy`      | Fig. 6 — energy per strategy × cloud |
//! | `fig7_sla`         | Fig. 7 — % SLA violations per strategy × cloud |
//! | `all_experiments`  | everything above + headline-claim summary |
//! | `ablation_alpha`   | α sweep (incl. 0.75, which the paper reports as insignificant) |
//! | `ablation_model`   | DB lookup vs learned-regression allocator model |
//! | `ablation_fleet`   | busy-only vs always-on fleet power accounting |
//! | `ablation_scope`   | per-request vs burst-level allocation; best-fit baselines |
//! | `ablation_thermal` | RC thermal model vs consolidation depth |
//! | `ablation_migration` | reactive live migration vs proactive placement |
//! | `ablation_backfill` | FIFO vs backfilling queue discipline |
//! | `ablation_hetero`  | Table I parameters per server platform |
//! | `hetero_fleet`     | mixed-hardware fleet, naive vs platform-aware PROACTIVE |
//! | `seed_sweep`       | headline numbers across 5 trace seeds (mean ± std) |
//! | `overload_shed`    | flash crowds at 0.5–4× capacity against the overload plane |
//!
//! The library half hosts the shared [`pipeline`] (model building, trace
//! synthesis/cleaning/adaptation, simulation driving) and [`report`]
//! (fixed-width table rendering) so binaries stay thin.

#![forbid(unsafe_code)]

pub mod chart;
pub mod pipeline;
pub mod report;
pub mod stats;

pub use pipeline::{Pipeline, PipelineConfig, StrategyKind};
