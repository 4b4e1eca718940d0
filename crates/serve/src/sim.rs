//! The deterministic, virtual-clock, single-queue serving simulator.
//!
//! It closes the paper's missing link from *traffic* to *mappings*:
//! arrivals (from [`crate::trace`]) feed the admission batcher
//! ([`crate::batcher`]); when the mapper is free and a group is ready, the
//! mapping service ([`crate::dispatch`]) searches or cache-adapts a
//! mapping; the resulting schedule's per-job finish times feed the metrics
//! pipeline ([`crate::metrics`]).
//!
//! [`simulate`] has no event loop of its own: it is a one-shard
//! [`crate::fleet`] run with the Uniform policy, one live session, no value
//! preemption and no shared cache tier, persisting its cache at
//! [`SimConfig::cache_path`] as given.
//!
//! Everything is virtual-time: searching costs `overhead_sec_per_sample`
//! per evaluated sample (so cache hits buy latency, not just samples), and
//! the group then occupies the accelerator for its schedule's makespan.
//! The simulation is a pure function of `(config, mix)` — no wall clock, no
//! ambient RNG — and every search evaluates candidates through the parallel
//! batch oracle, so results are bit-identical at every `MAGMA_THREADS`.
//!
//! # Overlap vs legacy mode
//!
//! The simulator runs in one of two modes ([`SimConfig::overlap`], default
//! on; the serving report always simulates both). In both, the search advances in
//! [`SimConfig::search_slice`]-sample slices, and the mapper clock reads
//! `start + samples since start × overhead`, recomputed from cumulative
//! samples so the slice size changes no metric.
//!
//! * **Overlap** — the mapper and the accelerator are separate resources:
//!   a group is cut when the batcher is ready and the *mapper* is free, and
//!   executes at `max(search end, accelerator free)` — so group *g+1*'s
//!   search hides behind group *g*'s execution.
//! * **Legacy (serial)** — the pre-session baseline: when a search
//!   finishes, the mapper waits for its accelerator (its clock moves to
//!   the time the accelerator becomes free), so search and execution share
//!   one timeline.
//!
//! The mode never changes which mapping a dispatch group gets, only *when*
//! things happen — the end-to-end latency win `serve_sim` reports.
//!
//! # Calibration
//!
//! Arrival rates are specified as an *offered load* relative to the
//! platform's unoptimized service rate: a calibration group (the first
//! `group_target` jobs of the mix, round-robin across tenants) is scheduled
//! under a seeded random mapping, and its per-job makespan share becomes the
//! unit the mean inter-arrival gap is derived from. This keeps one knob
//! meaningful across platforms from S1 to S6. The per-job SLA bound is
//! `sla_x × (batch window + calibrated group service time + cold mapper
//! overhead)` — the latency a job would see in a healthy, uncongested
//! system, times a tolerance factor.

use crate::dispatch::DispatchConfig;
use crate::fleet::{self, FleetConfig};
use crate::metrics::ServeMetrics;
use crate::trace::Scenario;
use magma_model::TenantMix;
use magma_platform::settings::{FleetPolicy, ServeKnobs};
use magma_platform::{PlatformSpec, Setting};

/// The full parameter set of one simulated scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// The accelerator platform: a Table III setting or a custom
    /// (registry-loaded) platform.
    pub platform: PlatformSpec,
    /// The traffic scenario.
    pub scenario: Scenario,
    /// Arrivals to simulate.
    pub requests: usize,
    /// Dispatch-group size target.
    pub group_target: usize,
    /// Admission deadline in batch-formation windows.
    pub max_wait_x: f64,
    /// Mini-batch size per job.
    pub mini_batch: usize,
    /// Offered load relative to the calibrated service rate.
    pub offered_load: f64,
    /// SLA tolerance factor (see module docs).
    pub sla_x: f64,
    /// Virtual mapper cost per evaluated sample, in seconds.
    pub overhead_sec_per_sample: f64,
    /// Whether search overlaps accelerator execution (see module docs).
    pub overlap: bool,
    /// Samples per search slice (result-invariant; sets the granularity at
    /// which the mapper clock advances).
    pub search_slice: usize,
    /// Search budgets and cache geometry.
    pub dispatch: DispatchConfig,
    /// Mapping-cache persistence file (`ServeKnobs::cache_path`): loaded —
    /// if present — before the run, saved back after it, so a restarted
    /// simulator starts warm. `None` keeps the cache in-memory only.
    pub cache_path: Option<std::path::PathBuf>,
    /// Trace/search seed.
    pub seed: u64,
}

impl SimConfig {
    /// Builds an overlap-mode config from the serving knobs for a scenario
    /// on the default platform (S2, the paper's main evaluation setting).
    pub fn from_knobs(knobs: &ServeKnobs, scenario: Scenario) -> Self {
        SimConfig {
            platform: PlatformSpec::Setting(Setting::S2),
            scenario,
            requests: knobs.requests,
            group_target: knobs.group_target,
            max_wait_x: knobs.max_wait_x,
            mini_batch: magma_model::workload::DEFAULT_MINI_BATCH,
            offered_load: knobs.offered_load,
            sla_x: knobs.sla_x,
            overhead_sec_per_sample: knobs.overhead_us_per_sample * 1e-6,
            overlap: true,
            search_slice: knobs.search_slice,
            dispatch: DispatchConfig::from_knobs(knobs),
            cache_path: knobs.cache_path.as_ref().map(std::path::PathBuf::from),
            seed: knobs.seed,
        }
    }

    /// This config with overlap mode forced on or off (used by the report
    /// layer to run the same scenario in both modes).
    pub fn with_overlap(mut self, overlap: bool) -> Self {
        self.overlap = overlap;
        self
    }

    /// This config with cache persistence at `path` (what
    /// `ServeKnobs::cache_path` maps to; the warm-restart tests set it
    /// directly).
    pub fn with_cache_path(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.cache_path = Some(path.into());
        self
    }
}

/// The output of one simulated scenario: the metrics block plus the
/// calibration constants that shaped it.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// The full metrics block.
    pub metrics: ServeMetrics,
    /// The calibrated mean inter-arrival gap, in virtual seconds.
    pub mean_interarrival_sec: f64,
    /// The per-job SLA bound applied, in virtual seconds.
    pub sla_sec: f64,
}

/// Runs one scenario to completion, as a one-shard run of the fleet loop
/// (see the module docs).
///
/// # Panics
///
/// Panics if the config is degenerate (zero requests/group target, a
/// non-positive offered load) — [`SimConfig::from_knobs`] never builds such
/// a config.
pub fn simulate(config: &SimConfig, mix: &TenantMix) -> SimResult {
    let slice = config.search_slice.max(1);
    let fleet = FleetConfig {
        shard_settings: vec![config.platform.clone()],
        scenario: config.scenario,
        requests: config.requests,
        group_target: config.group_target,
        max_wait_x: config.max_wait_x,
        mini_batch: config.mini_batch,
        offered_load: config.offered_load,
        sla_x: config.sla_x,
        overhead_sec_per_sample: config.overhead_sec_per_sample,
        dispatch: config.dispatch,
        shared_cache_capacity: 0,
        shared_tenant_quota: 0,
        // Persisted through the exact file below, not per-shard files.
        cache_path: None,
        policy: FleetPolicy::Uniform,
        max_live: 1,
        base_slice: slice,
        min_slice: slice,
        preempt_margin: 0.0,
        mapper_pressure: 0.0,
        seed: config.seed,
    };
    let files = config.cache_path.iter().cloned().collect();
    let result = fleet::run(&fleet, mix, files, !config.overlap);
    SimResult {
        metrics: result.metrics,
        mean_interarrival_sec: result.mean_interarrival_sec,
        sla_sec: result.sla_sec,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magma_model::TaskType;

    fn tiny_config(scenario: Scenario, seed: u64) -> SimConfig {
        SimConfig {
            platform: PlatformSpec::Setting(Setting::S2),
            scenario,
            requests: 48,
            group_target: 8,
            max_wait_x: 2.0,
            mini_batch: 4,
            offered_load: 0.7,
            sla_x: 3.0,
            overhead_sec_per_sample: 1e-6,
            overlap: false,
            search_slice: 8,
            dispatch: DispatchConfig::new(40, 4, 1.0, 16),
            cache_path: None,
            seed,
        }
    }

    #[test]
    fn every_arrival_completes_exactly_once() {
        let result = simulate(&tiny_config(Scenario::Poisson, 0), &TenantMix::standard());
        let m = &result.metrics;
        assert_eq!(m.jobs, 48);
        assert_eq!(m.tenants.iter().map(|t| t.jobs).sum::<usize>(), 48);
        assert_eq!(m.dispatch.cold + m.dispatch.hits, m.dispatch.dispatches);
        assert!(m.duration_sec > 0.0);
        assert!(m.jobs_per_sec > 0.0);
        assert!(m.throughput_gflops > 0.0);
    }

    #[test]
    fn latency_decomposition_is_consistent() {
        let result = simulate(&tiny_config(Scenario::Bursty, 1), &TenantMix::standard());
        let m = &result.metrics;
        // Percentile ordering within each profile.
        for stats in [&m.queueing, &m.service, &m.end_to_end] {
            assert!(stats.p50_sec <= stats.p95_sec);
            assert!(stats.p95_sec <= stats.p99_sec);
            assert!(stats.p99_sec <= stats.max_sec);
            assert!(stats.mean_sec >= 0.0);
        }
        // End-to-end mean = queueing mean + service mean (same population).
        let sum = m.queueing.mean_sec + m.service.mean_sec;
        assert!((m.end_to_end.mean_sec - sum).abs() < 1e-9 * sum.max(1.0));
    }

    #[test]
    fn simulation_is_deterministic() {
        let mix = TenantMix::standard();
        let a = simulate(&tiny_config(Scenario::Drift, 2), &mix);
        let b = simulate(&tiny_config(Scenario::Drift, 2), &mix);
        assert_eq!(a, b);
    }

    #[test]
    fn repeated_tenant_traffic_hits_the_cache() {
        let mix =
            TenantMix::single("recom", TaskType::Recommendation, vec![magma_model::zoo::ncf()]);
        let mut config = tiny_config(Scenario::Poisson, 3);
        config.requests = 64;
        let result = simulate(&config, &mix);
        let d = &result.metrics.dispatch;
        assert!(d.hits > 0, "periodic single-tenant windows must recur: {d:?}");
        assert!(result.metrics.cache.hit_rate > 0.0);
        // The acceptance criterion at miniature scale: hits reach ≥ 90% of
        // cold throughput on ≤ 10% of the cold sample budget.
        assert!(
            d.hit_cold_throughput_ratio >= 0.9,
            "hit/cold ratio {} too low",
            d.hit_cold_throughput_ratio
        );
        assert!(d.hit_sample_fraction <= 0.101, "fraction {}", d.hit_sample_fraction);
    }

    #[test]
    fn higher_load_increases_queueing() {
        let mix = TenantMix::standard();
        let mut relaxed = tiny_config(Scenario::Poisson, 4);
        relaxed.offered_load = 0.2;
        let mut loaded = tiny_config(Scenario::Poisson, 4);
        loaded.offered_load = 3.0;
        let a = simulate(&relaxed, &mix);
        let b = simulate(&loaded, &mix);
        // Queueing latency is measured in units of the (load-dependent)
        // inter-arrival scale; normalize before comparing.
        let norm_a = a.metrics.queueing.mean_sec / a.mean_interarrival_sec;
        let norm_b = b.metrics.queueing.mean_sec / b.mean_interarrival_sec;
        assert!(norm_b > norm_a, "overload must queue: {norm_b} vs {norm_a}");
    }

    #[test]
    fn sla_bound_scales_with_tolerance() {
        let mix = TenantMix::standard();
        let mut tight = tiny_config(Scenario::Poisson, 5);
        tight.sla_x = 0.01;
        let mut loose = tiny_config(Scenario::Poisson, 5);
        loose.sla_x = 100.0;
        let t = simulate(&tight, &mix);
        let l = simulate(&loose, &mix);
        let violations =
            |r: &SimResult| r.metrics.tenants.iter().map(|t| t.sla_violations).sum::<usize>();
        assert!(violations(&t) > 0, "a near-zero SLA must violate");
        assert_eq!(violations(&l), 0, "a huge SLA must not violate");
        assert!(t.sla_sec < l.sla_sec);
    }

    #[test]
    fn from_knobs_mirrors_the_knob_family() {
        let knobs = ServeKnobs::smoke();
        let config = SimConfig::from_knobs(&knobs, Scenario::Bursty);
        assert_eq!(config.requests, knobs.requests);
        assert_eq!(config.group_target, knobs.group_target);
        assert_eq!(config.dispatch.cold_budget, knobs.cold_budget);
        assert_eq!(config.dispatch.refine_budget, knobs.refine_budget);
        assert_eq!(config.scenario, Scenario::Bursty);
        assert!(config.overlap, "overlap mode defaults on");
        assert_eq!(config.search_slice, knobs.search_slice);
        assert_eq!(config.dispatch.cache_epsilon, knobs.cache_epsilon);
    }

    #[test]
    fn overlap_mode_is_deterministic_and_slice_size_invariant() {
        // The slice size only sets the mapper clock's granularity; by the
        // session-stepping invariant every mapping (and therefore every
        // metric) is identical at any slice size.
        let mix = TenantMix::standard();
        let base = tiny_config(Scenario::Poisson, 6).with_overlap(true);
        let a = simulate(&base, &mix);
        let mut one = base.clone();
        one.search_slice = 1;
        let mut big = base.clone();
        big.search_slice = 4096;
        assert_eq!(a, simulate(&one, &mix));
        assert_eq!(a, simulate(&big, &mix));
        assert_eq!(a, simulate(&base, &mix));
    }

    #[test]
    fn overlap_mode_cuts_mean_end_to_end_latency_under_load() {
        // Same trace, same budgets: overlap hides search behind execution
        // and never waits for the accelerator to cut a group, so the mean
        // end-to-end latency must drop.
        let mix =
            TenantMix::single("recom", TaskType::Recommendation, vec![magma_model::zoo::ncf()]);
        let mut config = tiny_config(Scenario::Poisson, 3);
        config.requests = 64;
        config.offered_load = 1.5;
        let legacy = simulate(&config.clone().with_overlap(false), &mix);
        let overlap = simulate(&config.with_overlap(true), &mix);
        assert!(
            overlap.metrics.end_to_end.mean_sec < legacy.metrics.end_to_end.mean_sec,
            "overlap {} must beat legacy {}",
            overlap.metrics.end_to_end.mean_sec,
            legacy.metrics.end_to_end.mean_sec
        );
    }

    #[test]
    fn per_tenant_sla_contracts_scale_the_bound() {
        let mix = TenantMix::standard().with_sla_multipliers(&[0.001, 1.0, 1000.0]);
        let result = simulate(&tiny_config(Scenario::Poisson, 5), &mix);
        let tenants = &result.metrics.tenants;
        assert_eq!(tenants[0].sla_multiplier, 0.001);
        assert_eq!(tenants[2].sla_multiplier, 1000.0);
        assert!(tenants[0].sla_sec < tenants[1].sla_sec);
        assert!(tenants[1].sla_sec < tenants[2].sla_sec);
        // A near-zero contract must violate on every job; a huge one never.
        assert_eq!(tenants[0].sla_violations, tenants[0].jobs);
        assert!(tenants[0].jobs > 0);
        assert_eq!(tenants[2].sla_violations, 0);
        // The uncontracted baseline equals the uniform bound.
        assert_eq!(tenants[1].sla_sec, result.sla_sec);
    }

    #[test]
    fn nearest_key_probe_unlocks_mix_traffic_hits() {
        // Mixed-tenant windows essentially never repeat a quantized
        // signature multiset; with the probe enabled, similar windows hit.
        let mix = TenantMix::standard();
        let mut config = tiny_config(Scenario::Poisson, 2);
        config.requests = 64;
        let exact = simulate(&config, &mix);
        config.dispatch = config.dispatch.with_cache_epsilon(3.0);
        let near = simulate(&config, &mix);
        assert_eq!(exact.metrics.cache.near_hits, 0);
        assert!(
            near.metrics.cache.near_hits > 0,
            "a generous epsilon must convert some mix misses into near hits: {:?}",
            near.metrics.cache
        );
        assert!(near.metrics.cache.hit_rate > exact.metrics.cache.hit_rate);
    }
}
