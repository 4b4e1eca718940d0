//! Reproductions of every experiment in the paper's evaluation section.
//!
//! Each function regenerates the data behind one figure or table. The
//! functions are parameterized by group size and sampling budget so the
//! unit and integration tests can run them at reduced scale, while the
//! binaries in `magma-bench` run them at the paper's scale (group size 100,
//! 10 K samples).
//!
//! | Paper artefact | Function |
//! |---|---|
//! | Fig. 7 | [`fig7_job_analysis`] |
//! | Fig. 8 / Fig. 9 | [`compare_all_mappers`] |
//! | Fig. 10 | [`exploration_study`] |
//! | Fig. 11 / Fig. 16 | [`convergence_curves`], [`operator_ablation`] |
//! | Fig. 12 | [`bw_sweep`] |
//! | Fig. 13 | [`subaccel_combination_study`] |
//! | Fig. 14 | [`flexible_vs_fixed`] |
//! | Fig. 15 | [`schedule_comparison`] |
//! | Fig. 17 | [`group_size_sweep`] |
//! | Table V | [`warm_start_study`] |
//!
//! # Parallelism
//!
//! Every experiment drives its optimizers through the batch-evaluation
//! oracle in [`magma_optim::parallel`], so population fitness evaluation —
//! the dominant cost of every figure — fans out over `MAGMA_THREADS` worker
//! threads (default: all available cores). The knob only changes wall-clock
//! time: results are bit-identical at every thread count, which
//! `tests/integration_parallel.rs` asserts per optimizer. Wall-clock speed
//! is measured by `perfbench` (its `offline-map` workload runs MAGMA
//! searches end to end), and CI gates its 2-thread speedup over serial.

use magma_cost::{CostModel, DataflowStyle, SubAccelConfig};
use magma_m3e::{M3e, Objective, WarmStartEngine, WarmStartMode};
use magma_model::{zoo, TaskType, WorkloadSpec};
use magma_optim::{
    all_mappers, bw_sweep_mappers, Magma, MagmaConfig, OperatorSet, Optimizer, RandomSearch,
};
use magma_platform::{settings, AcceleratorPlatform, Setting};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

// ---------------------------------------------------------------------------
// Common result types
// ---------------------------------------------------------------------------

/// Throughput achieved by one mapping method on one problem instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MethodScore {
    /// The mapper's name (Table IV label).
    pub method: String,
    /// Achieved group throughput in GFLOP/s.
    pub gflops: f64,
    /// Throughput normalized by MAGMA's result on the same problem.
    pub normalized: f64,
}

/// Normalizes a list of raw scores by the entry named `"MAGMA"` (or the
/// maximum if MAGMA is absent), mirroring how every figure in the paper is
/// normalized.
pub fn normalize_by_magma(raw: Vec<(String, f64)>) -> Vec<MethodScore> {
    let reference = raw
        .iter()
        .find(|(n, _)| n == "MAGMA")
        .map(|(_, v)| *v)
        .unwrap_or_else(|| raw.iter().map(|(_, v)| *v).fold(f64::MIN_POSITIVE, f64::max));
    raw.into_iter()
        .map(|(method, gflops)| MethodScore {
            method,
            gflops,
            normalized: if reference > 0.0 { gflops / reference } else { 0.0 },
        })
        .collect()
}

fn build_platform(setting: Setting, bw_gbps: Option<f64>) -> AcceleratorPlatform {
    match bw_gbps {
        Some(bw) => settings::build_with_bw(setting, bw),
        None => settings::build(setting),
    }
}

fn build_problem(
    setting: Setting,
    task: TaskType,
    bw_gbps: Option<f64>,
    group_size: usize,
    seed: u64,
) -> M3e {
    let platform = build_platform(setting, bw_gbps);
    let group = WorkloadSpec::single_group(task, group_size, seed);
    M3e::new(platform, group, Objective::Throughput)
}

// ---------------------------------------------------------------------------
// Fig. 7 — per-model latency / bandwidth characteristics
// ---------------------------------------------------------------------------

/// One row of the Fig. 7(a) table: a model profiled on the HB and LB
/// dataflow styles.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobAnalysisRow {
    /// Model name.
    pub model: String,
    /// Task category of the model.
    pub task: TaskType,
    /// Average per-job no-stall latency on the HB core (cycles).
    pub hb_latency_cycles: f64,
    /// Average per-job no-stall latency on the LB core (cycles).
    pub lb_latency_cycles: f64,
    /// Average per-job required bandwidth on the HB core (GB/s).
    pub hb_bw_gbps: f64,
    /// Average per-job required bandwidth on the LB core (GB/s).
    pub lb_bw_gbps: f64,
}

/// Reproduces Fig. 7: the average per-job no-stall latency and required
/// bandwidth of three representative models per task, on a 64×64 HB core and
/// a 64×64 LB core, plus per-task averages.
///
/// Returns `(per_model_rows, per_task_averages)`.
pub fn fig7_job_analysis(batch: usize) -> (Vec<JobAnalysisRow>, Vec<JobAnalysisRow>) {
    let model_list = zoo::fig7_models();
    let cost = CostModel::default();
    let hb = SubAccelConfig::new("hb", 64, 64, DataflowStyle::HighBandwidth, 291 * 1024);
    let lb = SubAccelConfig::new("lb", 64, 64, DataflowStyle::LowBandwidth, 218 * 1024);

    let mut rows = Vec::new();
    for m in &model_list {
        let mut hb_lat = 0.0;
        let mut lb_lat = 0.0;
        let mut hb_bw = 0.0;
        let mut lb_bw = 0.0;
        let mut count = 0.0;
        for layer in m.accelerator_layers() {
            let eh = cost.estimate(layer, batch, &hb);
            let el = cost.estimate(layer, batch, &lb);
            hb_lat += eh.no_stall_cycles as f64;
            lb_lat += el.no_stall_cycles as f64;
            hb_bw += eh.required_bw_gbps;
            lb_bw += el.required_bw_gbps;
            count += 1.0;
        }
        rows.push(JobAnalysisRow {
            model: m.name().to_string(),
            task: m.task(),
            hb_latency_cycles: hb_lat / count,
            lb_latency_cycles: lb_lat / count,
            hb_bw_gbps: hb_bw / count,
            lb_bw_gbps: lb_bw / count,
        });
    }

    let mut averages = Vec::new();
    for task in TaskType::PURE {
        let task_rows: Vec<&JobAnalysisRow> = rows.iter().filter(|r| r.task == task).collect();
        let n = task_rows.len() as f64;
        averages.push(JobAnalysisRow {
            model: format!("{task} (avg)"),
            task,
            hb_latency_cycles: task_rows.iter().map(|r| r.hb_latency_cycles).sum::<f64>() / n,
            lb_latency_cycles: task_rows.iter().map(|r| r.lb_latency_cycles).sum::<f64>() / n,
            hb_bw_gbps: task_rows.iter().map(|r| r.hb_bw_gbps).sum::<f64>() / n,
            lb_bw_gbps: task_rows.iter().map(|r| r.lb_bw_gbps).sum::<f64>() / n,
        });
    }
    (rows, averages)
}

// ---------------------------------------------------------------------------
// Fig. 8 / Fig. 9 — mapper comparison on one accelerator setting
// ---------------------------------------------------------------------------

/// Runs every mapper of Table IV on one (setting, task, BW) problem instance
/// and returns their throughputs, normalized by MAGMA (Fig. 8 and Fig. 9).
pub fn compare_all_mappers(
    setting: Setting,
    task: TaskType,
    bw_gbps: Option<f64>,
    group_size: usize,
    budget: usize,
    seed: u64,
) -> Vec<MethodScore> {
    let problem = build_problem(setting, task, bw_gbps, group_size, seed);
    let raw = all_mappers()
        .iter()
        .map(|mapper| {
            let mut rng = StdRng::seed_from_u64(seed);
            let outcome = mapper.search(&problem, budget, &mut rng);
            (mapper.name().to_string(), outcome.best_fitness)
        })
        .collect();
    normalize_by_magma(raw)
}

// ---------------------------------------------------------------------------
// Fig. 10 — exploration study with an exhaustive-sampling reference
// ---------------------------------------------------------------------------

/// Reproduces the Fig. 10(c) table: the throughput reached by MAGMA, PPO2,
/// stdGA, PSO and CMA at `budget` samples, plus a random-sampling reference
/// given `reference_budget` samples (the paper's "exhaustively sampled"
/// column used ~1 M).
pub fn exploration_study(
    setting: Setting,
    task: TaskType,
    bw_gbps: Option<f64>,
    group_size: usize,
    budget: usize,
    reference_budget: usize,
    seed: u64,
) -> Vec<MethodScore> {
    let problem = build_problem(setting, task, bw_gbps, group_size, seed);
    let mut raw: Vec<(String, f64)> = Vec::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let reference = RandomSearch::new().search(&problem, reference_budget, &mut rng);
    raw.push(("Exhaustively Sampled".to_string(), reference.best_fitness));
    for mapper in all_mappers() {
        if ["MAGMA", "RL PPO2", "stdGA", "PSO", "CMA"].contains(&mapper.name()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let outcome = mapper.search(&problem, budget, &mut rng);
            raw.push((mapper.name().to_string(), outcome.best_fitness));
        }
    }
    normalize_by_magma(raw)
}

// ---------------------------------------------------------------------------
// Fig. 11 / Fig. 16 — convergence curves and operator ablation
// ---------------------------------------------------------------------------

/// A downsampled best-so-far convergence curve for one method.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConvergenceCurve {
    /// The mapper's name.
    pub method: String,
    /// (samples evaluated, best GFLOP/s so far) points.
    pub points: Vec<(usize, f64)>,
}

/// Reproduces Fig. 11: convergence curves of every mapper on one problem
/// instance, downsampled to `points` entries each.
pub fn convergence_curves(
    setting: Setting,
    task: TaskType,
    bw_gbps: Option<f64>,
    group_size: usize,
    budget: usize,
    points: usize,
    seed: u64,
) -> Vec<ConvergenceCurve> {
    let problem = build_problem(setting, task, bw_gbps, group_size, seed);
    all_mappers()
        .iter()
        .map(|mapper| {
            let mut rng = StdRng::seed_from_u64(seed);
            let outcome = mapper.search(&problem, budget, &mut rng);
            ConvergenceCurve {
                method: mapper.name().to_string(),
                points: outcome.history.downsampled_curve(points),
            }
        })
        .collect()
}

/// Reproduces Fig. 16: MAGMA's convergence with three operator sets —
/// mutation only, mutation + Crossover-gen, and all four operators.
pub fn operator_ablation(
    setting: Setting,
    task: TaskType,
    bw_gbps: Option<f64>,
    group_size: usize,
    budget: usize,
    points: usize,
    seed: u64,
) -> Vec<ConvergenceCurve> {
    let problem = build_problem(setting, task, bw_gbps, group_size, seed);
    [OperatorSet::mutation_only(), OperatorSet::mutation_and_gen(), OperatorSet::all()]
        .into_iter()
        .map(|ops| {
            let mut rng = StdRng::seed_from_u64(seed);
            let outcome = Magma::with_operators(ops).search(&problem, budget, &mut rng);
            ConvergenceCurve {
                method: ops.label(),
                points: outcome.history.downsampled_curve(points),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Fig. 12 — bandwidth sweep
// ---------------------------------------------------------------------------

/// Reproduces Fig. 12: Herald-like, RL A2C, RL PPO2 and MAGMA across a sweep
/// of system bandwidths. Returns one entry per bandwidth with the per-method
/// scores normalized by MAGMA at that bandwidth.
pub fn bw_sweep(
    setting: Setting,
    task: TaskType,
    bandwidths_gbps: &[f64],
    group_size: usize,
    budget: usize,
    seed: u64,
) -> Vec<(f64, Vec<MethodScore>)> {
    bandwidths_gbps
        .iter()
        .map(|&bw| {
            let problem = build_problem(setting, task, Some(bw), group_size, seed);
            let raw = bw_sweep_mappers()
                .iter()
                .map(|mapper| {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let outcome = mapper.search(&problem, budget, &mut rng);
                    (mapper.name().to_string(), outcome.best_fitness)
                })
                .collect();
            (bw, normalize_by_magma(raw))
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Fig. 13 — sub-accelerator combinations (S3 vs S4 vs S5)
// ---------------------------------------------------------------------------

/// One row of the Fig. 13 study: job-analysis statistics and MAGMA
/// throughput for one setting at one bandwidth.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CombinationRow {
    /// Accelerator setting.
    pub setting: String,
    /// System bandwidth used (GB/s).
    pub bw_gbps: f64,
    /// Average per-job no-stall latency across jobs and cores (cycles).
    pub avg_no_stall_cycles: f64,
    /// Average per-job required bandwidth across jobs and cores (GB/s).
    pub avg_required_bw_gbps: f64,
    /// Throughput reached by MAGMA (GFLOP/s).
    pub magma_gflops: f64,
}

/// Reproduces Fig. 13: compares S3 (homogeneous), S4 (heterogeneous) and S5
/// (BigLittle) under the given bandwidths using MAGMA.
pub fn subaccel_combination_study(
    task: TaskType,
    bandwidths_gbps: &[f64],
    group_size: usize,
    budget: usize,
    seed: u64,
) -> Vec<CombinationRow> {
    let mut rows = Vec::new();
    for &bw in bandwidths_gbps {
        for setting in [Setting::S3, Setting::S4, Setting::S5] {
            let problem = build_problem(setting, task, Some(bw), group_size, seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let outcome = Magma::default().search(&problem, budget, &mut rng);
            rows.push(CombinationRow {
                setting: setting.to_string(),
                bw_gbps: bw,
                avg_no_stall_cycles: problem.table().avg_no_stall_cycles(),
                avg_required_bw_gbps: problem.table().avg_required_bw_gbps(),
                magma_gflops: outcome.best_fitness,
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Fig. 14 — fixed vs flexible PE arrays
// ---------------------------------------------------------------------------

/// One row of the Fig. 14 study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlexibleRow {
    /// Accelerator setting the flexible variant is derived from.
    pub setting: String,
    /// Task category.
    pub task: TaskType,
    /// System bandwidth (GB/s).
    pub bw_gbps: f64,
    /// MAGMA throughput with fixed PE arrays (GFLOP/s).
    pub fixed_gflops: f64,
    /// MAGMA throughput with flexible PE arrays (GFLOP/s).
    pub flexible_gflops: f64,
    /// Average per-job no-stall latency, fixed arrays (cycles).
    pub fixed_avg_latency: f64,
    /// Average per-job no-stall latency, flexible arrays (cycles).
    pub flexible_avg_latency: f64,
    /// Average per-job required BW, fixed arrays (GB/s).
    pub fixed_avg_bw: f64,
    /// Average per-job required BW, flexible arrays (GB/s).
    pub flexible_avg_bw: f64,
}

/// Reproduces Fig. 14: MAGMA on fixed vs flexible PE-array variants of a
/// setting, for one task and one bandwidth.
pub fn flexible_vs_fixed(
    setting: Setting,
    task: TaskType,
    bw_gbps: f64,
    group_size: usize,
    budget: usize,
    seed: u64,
) -> FlexibleRow {
    let group = WorkloadSpec::single_group(task, group_size, seed);
    let fixed_platform = settings::build_with_bw(setting, bw_gbps);
    let flex_platform = settings::build_flexible(setting, bw_gbps);

    let fixed = M3e::new(fixed_platform, group.clone(), Objective::Throughput);
    let flex = M3e::new(flex_platform, group, Objective::Throughput);

    let mut rng = StdRng::seed_from_u64(seed);
    let fixed_out = Magma::default().search(&fixed, budget, &mut rng);
    let mut rng = StdRng::seed_from_u64(seed);
    let flex_out = Magma::default().search(&flex, budget, &mut rng);

    FlexibleRow {
        setting: setting.to_string(),
        task,
        bw_gbps,
        fixed_gflops: fixed_out.best_fitness,
        flexible_gflops: flex_out.best_fitness,
        fixed_avg_latency: fixed.table().avg_no_stall_cycles(),
        flexible_avg_latency: flex.table().avg_no_stall_cycles(),
        fixed_avg_bw: fixed.table().avg_required_bw_gbps(),
        flexible_avg_bw: flex.table().avg_required_bw_gbps(),
    }
}

// ---------------------------------------------------------------------------
// Fig. 15 — schedule visualization
// ---------------------------------------------------------------------------

/// The schedules found by Herald-like and MAGMA on the same problem, with
/// their text Gantt charts (Fig. 15).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleComparison {
    /// Herald-like finish time in seconds.
    pub herald_finish_sec: f64,
    /// MAGMA finish time in seconds.
    pub magma_finish_sec: f64,
    /// Herald-like throughput (GFLOP/s).
    pub herald_gflops: f64,
    /// MAGMA throughput (GFLOP/s).
    pub magma_gflops: f64,
    /// Text Gantt chart of the Herald-like schedule.
    pub herald_gantt: String,
    /// Text Gantt chart of the MAGMA schedule.
    pub magma_gantt: String,
}

/// Reproduces Fig. 15: the sub-accelerator and bandwidth allocation found by
/// Herald-like versus MAGMA on the same (task, setting, BW) instance.
pub fn schedule_comparison(
    setting: Setting,
    task: TaskType,
    bw_gbps: f64,
    group_size: usize,
    budget: usize,
    seed: u64,
) -> ScheduleComparison {
    let problem = build_problem(setting, task, Some(bw_gbps), group_size, seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let herald = magma_optim::HeraldLike::new().search(&problem, 1, &mut rng);
    let magma = Magma::default().search(&problem, budget, &mut rng);
    let hs = problem.schedule(&herald.best_mapping);
    let ms = problem.schedule(&magma.best_mapping);
    ScheduleComparison {
        herald_finish_sec: hs.makespan_sec(),
        magma_finish_sec: ms.makespan_sec(),
        herald_gflops: hs.throughput_gflops(),
        magma_gflops: ms.throughput_gflops(),
        herald_gantt: hs.render_gantt(100),
        magma_gantt: ms.render_gantt(100),
    }
}

// ---------------------------------------------------------------------------
// Fig. 17 — group-size sweep
// ---------------------------------------------------------------------------

/// Reproduces Fig. 17: MAGMA throughput for different group sizes on the same
/// (setting, task, BW) configuration. Returns `(group_size, gflops)` pairs.
pub fn group_size_sweep(
    setting: Setting,
    task: TaskType,
    bw_gbps: Option<f64>,
    group_sizes: &[usize],
    budget: usize,
    seed: u64,
) -> Vec<(usize, f64)> {
    group_sizes
        .iter()
        .map(|&gs| {
            let problem = build_problem(setting, task, bw_gbps, gs, seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let outcome = Magma::default().search(&problem, budget, &mut rng);
            (gs, outcome.best_fitness)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Table V — warm start
// ---------------------------------------------------------------------------

/// Warm-start performance on one problem instance, normalized by the full
/// optimization (Trf-100-ep ≡ 1.0), as in Table V.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WarmStartRow {
    /// Instance label (Insts0 is the originally optimized group).
    pub instance: String,
    /// Best random individual with no optimization (the "Raw" row).
    pub raw: f64,
    /// Warm-started solution before any optimization (Trf-0-ep).
    pub transfer_0_epoch: f64,
    /// Warm start followed by one epoch of MAGMA (Trf-1-ep).
    pub transfer_1_epoch: f64,
    /// Warm start followed by 30 epochs (Trf-30-ep).
    pub transfer_30_epoch: f64,
    /// Full optimization from the warm start (Trf-100-ep, the normalizer).
    pub transfer_100_epoch: f64,
}

/// Reproduces Table V(a): optimize one group (`Insts0`), then warm-start on
/// `num_instances` fresh groups of the same task and measure the normalized
/// throughput after 0, 1, 30 and 100 epochs (an epoch is one population worth
/// of samples, i.e. `group_size` evaluations).
///
/// Uses the profile-matched adaptation ([`WarmStartMode::ProfileMatched`]),
/// which carries the paper's transfer claim; see
/// [`warm_start_study_with_mode`] to reproduce the index-wrapped baseline.
pub fn warm_start_study(
    setting: Setting,
    task: TaskType,
    bw_gbps: Option<f64>,
    group_size: usize,
    num_instances: usize,
    seed: u64,
) -> Vec<WarmStartRow> {
    warm_start_study_with_mode(
        setting,
        task,
        bw_gbps,
        group_size,
        num_instances,
        seed,
        WarmStartMode::ProfileMatched,
    )
}

/// As [`warm_start_study`] but with an explicit adaptation mode, so the
/// profile-matched transfer (the paper-faithful result) can be compared
/// against the index-wrapped baseline that loses to a random epoch on
/// compute-bound groups.
pub fn warm_start_study_with_mode(
    setting: Setting,
    task: TaskType,
    bw_gbps: Option<f64>,
    group_size: usize,
    num_instances: usize,
    seed: u64,
    mode: WarmStartMode,
) -> Vec<WarmStartRow> {
    let epoch = group_size.max(16);
    let full_budget = 100 * epoch;
    let mut engine = WarmStartEngine::new();

    // --- Insts0: plain optimization, store the best mapping with the job
    // signatures it was optimized for. ---
    let base_problem = build_problem(setting, task, bw_gbps, group_size, seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let base_outcome = Magma::default().search(&base_problem, full_budget, &mut rng);
    engine.record_profiled(
        task,
        base_outcome.best_mapping.clone(),
        base_problem.signatures().to_vec(),
    );

    let mut rows = vec![WarmStartRow {
        instance: "Insts0 (optimized)".to_string(),
        raw: random_best(&base_problem, epoch, seed) / base_outcome.best_fitness,
        transfer_0_epoch: 1.0,
        transfer_1_epoch: 1.0,
        transfer_30_epoch: 1.0,
        transfer_100_epoch: 1.0,
    }];

    // --- Fresh instances of the same task: warm-start and refine. ---
    for inst in 1..=num_instances {
        let inst_seed = seed + inst as u64 * 101;
        let problem = build_problem(setting, task, bw_gbps, group_size, inst_seed);
        let mut rng = StdRng::seed_from_u64(inst_seed);

        let num_accels = build_platform(setting, bw_gbps).num_sub_accels();
        let seeded_pop = match mode {
            WarmStartMode::IndexWrap => {
                engine.seed_population(&mut rng, task, group_size, num_accels, epoch)
            }
            WarmStartMode::ProfileMatched => engine.seed_population_matched(
                &mut rng,
                task,
                problem.signatures(),
                num_accels,
                epoch,
            ),
        }
        .expect("knowledge was recorded for this task");
        let transfer_0 = problem.evaluate(&seeded_pop[0]);

        let run_epochs = |epochs: usize| -> f64 {
            let mut rng = StdRng::seed_from_u64(inst_seed);
            Magma::with_config(MagmaConfig {
                initial_population: Some(seeded_pop.clone()),
                ..MagmaConfig::default()
            })
            .search(&problem, epochs * epoch, &mut rng)
            .best_fitness
        };

        let full = run_epochs(100);
        rows.push(WarmStartRow {
            instance: format!("Insts{inst} (warm-start)"),
            raw: random_best(&problem, epoch, inst_seed) / full,
            transfer_0_epoch: transfer_0 / full,
            transfer_1_epoch: run_epochs(1) / full,
            transfer_30_epoch: run_epochs(30) / full,
            transfer_100_epoch: 1.0,
        });
    }
    rows
}

/// Best fitness of `budget` uniformly random mappings (the "Raw" baseline of
/// Table V).
fn random_best(problem: &M3e, budget: usize, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    RandomSearch::new().search(problem, budget, &mut rng).best_fitness
}

// ---------------------------------------------------------------------------
// Search-space size (Section IV-F)
// ---------------------------------------------------------------------------

/// Log10 of the mapping search-space size for a group size and core count
/// (Section IV-F; 60 jobs on 4 cores ≈ 1e81).
pub fn search_space_log10(group_size: usize, num_accels: usize) -> f64 {
    magma_m3e::encoding::search_space_log10(group_size, num_accels)
}

#[cfg(test)]
mod tests {
    use super::*;

    const GS: usize = 16;
    const BUDGET: usize = 150;

    #[test]
    fn fig7_has_expected_shape_and_trends() {
        let (rows, averages) = fig7_job_analysis(4);
        assert_eq!(rows.len(), 9);
        assert_eq!(averages.len(), 3);
        // HB is faster but hungrier than LB on language models (Fig. 7a).
        let gpt2 = rows.iter().find(|r| r.model == "GPT2").unwrap();
        assert!(gpt2.hb_latency_cycles < gpt2.lb_latency_cycles);
        assert!(gpt2.hb_bw_gbps > gpt2.lb_bw_gbps);
        // Vision has the highest latency, recommendation the highest BW need.
        let vis = &averages[0];
        let rec = &averages[2];
        assert!(vis.hb_latency_cycles > rec.hb_latency_cycles);
        assert!(rec.hb_bw_gbps > vis.hb_bw_gbps);
    }

    #[test]
    fn comparison_contains_all_ten_mappers_and_magma_is_reference() {
        let scores = compare_all_mappers(Setting::S2, TaskType::Mix, Some(16.0), GS, BUDGET, 0);
        assert_eq!(scores.len(), 10);
        let magma = scores.iter().find(|s| s.method == "MAGMA").unwrap();
        assert!((magma.normalized - 1.0).abs() < 1e-9);
        assert!(scores.iter().all(|s| s.gflops > 0.0));
    }

    #[test]
    fn bw_sweep_produces_one_row_per_bandwidth() {
        let rows = bw_sweep(Setting::S2, TaskType::Mix, &[1.0, 16.0], GS, BUDGET, 0);
        assert_eq!(rows.len(), 2);
        for (_, scores) in &rows {
            assert_eq!(scores.len(), 4);
        }
    }

    #[test]
    fn operator_ablation_has_three_levels() {
        let curves =
            operator_ablation(Setting::S2, TaskType::Vision, Some(16.0), GS, BUDGET, 10, 0);
        assert_eq!(curves.len(), 3);
        assert_eq!(curves[0].method, "Mut");
        assert_eq!(curves[2].method, "Mut+Crs-gen+Crs-rg+Crs-accel");
        for c in &curves {
            assert!(!c.points.is_empty());
        }
    }

    #[test]
    fn group_size_sweep_returns_requested_sizes() {
        let rows = group_size_sweep(Setting::S2, TaskType::Mix, Some(16.0), &[8, 16], BUDGET, 0);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, 8);
        assert!(rows.iter().all(|(_, g)| *g > 0.0));
    }

    #[test]
    fn flexible_beats_or_matches_fixed() {
        let row = flexible_vs_fixed(Setting::S1, TaskType::Mix, 16.0, GS, BUDGET, 0);
        assert!(row.flexible_gflops >= row.fixed_gflops * 0.9);
        assert!(row.flexible_avg_latency <= row.fixed_avg_latency * 1.05);
    }

    #[test]
    fn schedule_comparison_includes_ganff_charts() {
        let cmp = schedule_comparison(Setting::S2, TaskType::Mix, 1.0, GS, BUDGET, 0);
        assert!(cmp.herald_finish_sec > 0.0);
        assert!(cmp.magma_finish_sec > 0.0);
        assert!(cmp.herald_gantt.contains("accel"));
        assert!(cmp.magma_gantt.contains("GFLOP/s"));
        // MAGMA should not lose to the one-shot heuristic on its own problem.
        assert!(cmp.magma_gflops >= cmp.herald_gflops * 0.95);
    }

    #[test]
    fn search_space_matches_paper() {
        assert!((search_space_log10(60, 4) - 81.0).abs() < 1.5);
    }

    #[test]
    fn warm_start_rows_have_expected_shape_in_both_modes() {
        for mode in [WarmStartMode::IndexWrap, WarmStartMode::ProfileMatched] {
            let rows = warm_start_study_with_mode(
                Setting::S2,
                TaskType::Language,
                Some(16.0),
                8,
                1,
                0,
                mode,
            );
            assert_eq!(rows.len(), 2, "{mode}");
            // Trf-100-ep is the normalizer on every row.
            assert!(rows.iter().all(|r| r.transfer_100_epoch == 1.0), "{mode}");
            assert!(rows[1].transfer_0_epoch > 0.0, "{mode}");
        }
    }

    #[test]
    fn normalize_by_magma_uses_magma_as_reference() {
        let scores = normalize_by_magma(vec![("A".to_string(), 5.0), ("MAGMA".to_string(), 10.0)]);
        assert_eq!(scores[0].normalized, 0.5);
        assert_eq!(scores[1].normalized, 1.0);
    }
}
