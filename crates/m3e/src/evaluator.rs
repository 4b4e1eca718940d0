//! Objectives and the fitness function (Section IV-C).

use crate::analyzer::JobAnalysisTable;
use crate::bw_alloc::BwAllocator;
use crate::encoding::Mapping;
use crate::schedule::Schedule;
use magma_model::JobId;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::OnceLock;

/// The optimization objective. The paper uses throughput; the alternatives
/// are provided because M3E accepts the objective as an input (Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Objective {
    /// Maximize group throughput in GFLOP/s (the paper's metric).
    #[default]
    Throughput,
    /// Minimize the makespan (seconds); fitness is its negation.
    Latency,
    /// Minimize total energy (nJ); fitness is its negation.
    Energy,
    /// Minimize energy × delay; fitness is its negation.
    EnergyDelayProduct,
}

impl Objective {
    /// Extracts the fitness value (higher is always better) from a schedule.
    pub fn fitness_of(&self, schedule: &Schedule) -> f64 {
        match self {
            Objective::Throughput => schedule.throughput_gflops(),
            Objective::Latency => -schedule.makespan_sec(),
            Objective::Energy => -schedule.total_energy_nj(),
            Objective::EnergyDelayProduct => {
                -(schedule.total_energy_nj() * schedule.makespan_sec())
            }
        }
    }
}

impl fmt::Display for Objective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// The per-(job, core) quantities the bandwidth-allocator replay needs at
/// job launch: the bytes of DRAM traffic the job streams, its no-stall
/// bandwidth requirement, and the energy it charges at completion. Derived
/// from the [`JobAnalysisTable`] — [`CostMemo`] caches exactly these.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaunchCost {
    /// Total DRAM traffic of the job on the core, in bytes
    /// (`no-stall latency × required BW` — the `CurJobs` quantity of the
    /// paper's Algorithm 1).
    pub remaining_bytes: f64,
    /// No-stall bandwidth requirement, in GB/s.
    pub required_bw_gbps: f64,
    /// Energy charged when the job completes, in nJ.
    pub energy_nj: f64,
}

impl LaunchCost {
    /// Derives the launch quantities for `job` on `accel` from the table —
    /// the single copy of these expressions, used by both the fresh path and
    /// the memo fill, so the two are bit-identical by construction.
    pub fn derive(table: &JobAnalysisTable, job: JobId, accel: usize) -> Self {
        let lat = table.no_stall_seconds(job, accel);
        let bw = table.required_bw_gbps(job, accel);
        LaunchCost {
            remaining_bytes: lat * bw * 1e9,
            required_bw_gbps: bw,
            energy_nj: table.estimate(job, accel).energy_nj,
        }
    }
}

/// Per-(job, core) launch-cost memo, filled lazily and shared by every
/// evaluation of the problem's lifetime.
///
/// The bandwidth-allocator replay launches every job of every candidate, and
/// each launch re-derived the same three quantities from the analysis table
/// (a division by the core clock, two nested-`Vec` walks, a multiply).
/// Within one generation — and across generations, since mutation touches
/// few genes — the same (job, core) pairs recur constantly, so the memo
/// converges to fully warm after a handful of candidates and every later
/// launch is one flat-array load.
///
/// Each cell is a [`OnceLock`]: concurrent batch evaluation may race to fill
/// a cell, but both racers compute the identical value from the same table,
/// and every evaluation is bit-identical to the unmemoized path (the A/B
/// proptests lock this). Cloning an evaluator clones the memo *with* its
/// filled cells, so warm state survives `M3e` clones.
///
/// Always built by [`FitnessEvaluator::new`];
/// [`FitnessEvaluator::with_memoization`] switches it off for the A/B
/// reference path.
#[derive(Debug, Clone, Default)]
pub struct CostMemo {
    /// `cells[job * num_accels + accel]`.
    cells: Vec<OnceLock<LaunchCost>>,
    num_accels: usize,
}

impl CostMemo {
    /// Creates an empty memo covering `num_jobs × num_accels` cells.
    pub fn new(num_jobs: usize, num_accels: usize) -> Self {
        CostMemo { cells: vec![OnceLock::new(); num_jobs * num_accels], num_accels }
    }

    /// The launch cost of `job` on `accel`, derived from `table` on first
    /// use and cached thereafter.
    pub fn launch(&self, table: &JobAnalysisTable, job: JobId, accel: usize) -> LaunchCost {
        *self.cells[job.0 * self.num_accels + accel]
            .get_or_init(|| LaunchCost::derive(table, job, accel))
    }

    /// How many cells have been filled so far — the "entries survive across
    /// a generation" observable the memoization tests assert on.
    pub fn filled(&self) -> usize {
        self.cells.iter().filter(|c| c.get().is_some()).count()
    }

    /// Total cell count (`num_jobs × num_accels`).
    pub fn capacity(&self) -> usize {
        self.cells.len()
    }
}

/// The fitness function of M3E: decodes an encoded mapping, replays it through
/// the bandwidth allocator under the system-BW constraint, and extracts the
/// objective.
#[derive(Debug, Clone)]
pub struct FitnessEvaluator {
    table: JobAnalysisTable,
    system_bw_gbps: f64,
    objective: Objective,
    allocator: BwAllocator,
    memo: Option<CostMemo>,
}

impl FitnessEvaluator {
    /// Creates an evaluator from an analysis table, the system-bandwidth
    /// constraint and the objective, with launch-cost memoization on; use
    /// [`FitnessEvaluator::with_memoization`] to switch it off.
    ///
    /// # Panics
    ///
    /// Panics if `system_bw_gbps` is not positive.
    pub fn new(table: JobAnalysisTable, system_bw_gbps: f64, objective: Objective) -> Self {
        assert!(system_bw_gbps > 0.0, "system bandwidth must be positive");
        let allocator = BwAllocator::new();
        FitnessEvaluator { table, system_bw_gbps, objective, allocator, memo: None }
            .with_memoization(true)
    }

    /// Returns the evaluator with per-(job, core) launch-cost memoization
    /// switched on (a fresh, empty memo) or off. Results are bit-identical
    /// either way; the unmemoized path is the reference the A/B tests check
    /// the memo against.
    pub fn with_memoization(mut self, memoize: bool) -> Self {
        self.memo = memoize.then(|| CostMemo::new(self.table.num_jobs(), self.table.num_accels()));
        self
    }

    /// Whether this evaluator memoizes launch costs.
    pub fn memoized(&self) -> bool {
        self.memo.is_some()
    }

    /// The launch-cost memo, when memoization is on (test observability:
    /// `memo().unwrap().filled()` shows warm entries surviving across a
    /// generation).
    pub fn memo(&self) -> Option<&CostMemo> {
        self.memo.as_ref()
    }

    /// The job-analysis table this evaluator consults.
    pub fn table(&self) -> &JobAnalysisTable {
        &self.table
    }

    /// The system bandwidth constraint in GB/s.
    pub fn system_bw_gbps(&self) -> f64 {
        self.system_bw_gbps
    }

    /// The objective being optimized.
    pub fn objective(&self) -> Objective {
        self.objective
    }

    /// Evaluates a mapping and returns its fitness (higher is better).
    ///
    /// # Panics
    ///
    /// Panics if the mapping's job count or accelerator count do not match
    /// the analysis table.
    pub fn fitness(&self, mapping: &Mapping) -> f64 {
        self.objective.fitness_of(&self.schedule(mapping))
    }

    /// Evaluates a mapping and returns the full schedule (used for the
    /// schedule visualizations and detailed reports).
    pub fn schedule(&self, mapping: &Mapping) -> Schedule {
        assert_eq!(
            mapping.num_jobs(),
            self.table.num_jobs(),
            "mapping covers a different number of jobs than the analysis table"
        );
        assert_eq!(
            mapping.num_accels(),
            self.table.num_accels(),
            "mapping targets a different number of sub-accelerators than the table"
        );
        self.allocator.allocate_with_memo(
            &mapping.decode(),
            &self.table,
            self.system_bw_gbps,
            self.memo.as_ref(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::JobAnalyzer;
    use magma_model::{TaskType, WorkloadSpec};
    use magma_platform::{settings, Setting};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn evaluator(obj: Objective) -> FitnessEvaluator {
        let group = WorkloadSpec::single_group(TaskType::Mix, 24, 0);
        let platform = settings::build(Setting::S2);
        let table = JobAnalyzer::new().analyze(&group, &platform);
        FitnessEvaluator::new(table, platform.system_bw_gbps(), obj)
    }

    #[test]
    fn throughput_fitness_positive() {
        let ev = evaluator(Objective::Throughput);
        let mut rng = StdRng::seed_from_u64(0);
        let m = Mapping::random(&mut rng, 24, 4);
        assert!(ev.fitness(&m) > 0.0);
    }

    #[test]
    fn latency_and_energy_fitness_negative() {
        let mut rng = StdRng::seed_from_u64(0);
        let m = Mapping::random(&mut rng, 24, 4);
        assert!(evaluator(Objective::Latency).fitness(&m) < 0.0);
        assert!(evaluator(Objective::Energy).fitness(&m) < 0.0);
        assert!(evaluator(Objective::EnergyDelayProduct).fitness(&m) < 0.0);
    }

    #[test]
    fn fitness_matches_schedule_throughput() {
        let ev = evaluator(Objective::Throughput);
        let mut rng = StdRng::seed_from_u64(1);
        let m = Mapping::random(&mut rng, 24, 4);
        let s = ev.schedule(&m);
        assert!((ev.fitness(&m) - s.throughput_gflops()).abs() < 1e-9);
    }

    #[test]
    fn different_mappings_give_different_fitness() {
        let ev = evaluator(Objective::Throughput);
        let mut rng = StdRng::seed_from_u64(2);
        let a = Mapping::random(&mut rng, 24, 4);
        let b = Mapping::random(&mut rng, 24, 4);
        // Not a strict requirement, but with 24 mixed jobs two random mappings
        // almost surely differ in throughput.
        assert_ne!(ev.fitness(&a), ev.fitness(&b));
    }

    #[test]
    #[should_panic(expected = "different number of jobs")]
    fn wrong_job_count_panics() {
        let ev = evaluator(Objective::Throughput);
        let mut rng = StdRng::seed_from_u64(3);
        let m = Mapping::random(&mut rng, 10, 4);
        let _ = ev.fitness(&m);
    }

    #[test]
    fn memoization_defaults_on_and_is_overridable() {
        let ev = evaluator(Objective::Throughput);
        assert!(ev.memoized());
        let off = ev.with_memoization(false);
        assert!(!off.memoized() && off.memo().is_none());
        let on = off.with_memoization(true);
        assert!(on.memoized());
        assert_eq!(on.memo().unwrap().filled(), 0, "fresh memo starts cold");
    }

    #[test]
    fn memo_entries_survive_across_evaluations() {
        let ev = evaluator(Objective::Throughput).with_memoization(true);
        let mut rng = StdRng::seed_from_u64(5);
        let m = Mapping::random(&mut rng, 24, 4);
        let _ = ev.fitness(&m);
        let warm = ev.memo().unwrap().filled();
        // One candidate touches exactly its (job, chosen-core) pairs.
        assert_eq!(warm, 24);
        // A second candidate reuses every shared pair; the memo only grows.
        let m2 = Mapping::random(&mut rng, 24, 4);
        let _ = ev.fitness(&m2);
        let warmer = ev.memo().unwrap().filled();
        assert!(warmer >= warm);
        assert!(warmer <= ev.memo().unwrap().capacity());
        // Cloning carries the warm cells along.
        assert_eq!(ev.clone().memo().unwrap().filled(), warmer);
    }

    #[test]
    fn memoized_fitness_is_bit_identical_to_fresh() {
        for obj in [
            Objective::Throughput,
            Objective::Latency,
            Objective::Energy,
            Objective::EnergyDelayProduct,
        ] {
            let memoized = evaluator(obj).with_memoization(true);
            let fresh = evaluator(obj).with_memoization(false);
            let mut rng = StdRng::seed_from_u64(7);
            for _ in 0..16 {
                let m = Mapping::random(&mut rng, 24, 4);
                assert_eq!(
                    memoized.fitness(&m).to_bits(),
                    fresh.fitness(&m).to_bits(),
                    "{obj}: memoized and fresh paths diverged"
                );
            }
        }
    }

    #[test]
    fn launch_cost_derivation_matches_table() {
        let ev = evaluator(Objective::Throughput);
        let t = ev.table();
        for job in 0..4 {
            for accel in 0..t.num_accels() {
                let c = LaunchCost::derive(t, JobId(job), accel);
                assert_eq!(c.required_bw_gbps, t.required_bw_gbps(JobId(job), accel));
                assert_eq!(
                    c.remaining_bytes,
                    t.no_stall_seconds(JobId(job), accel) * c.required_bw_gbps * 1e9
                );
                assert_eq!(c.energy_nj, t.estimate(JobId(job), accel).energy_nj);
            }
        }
    }
}
