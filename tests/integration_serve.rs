//! Serving determinism suite: the online simulator must emit bit-identical
//! `BENCH_serve.json` metrics at a fixed seed, whatever the worker-thread
//! count and however often it is re-run.
//!
//! The report is purely virtual-clock (no wall-clock fields, no thread
//! counts), every search evaluates candidates through the order-stable
//! parallel batch oracle, and every RNG is seeded — so the *entire
//! serialized report* must be byte-equal across `MAGMA_THREADS` ∈ {1, 4}
//! (pinned per-thread via `magma_optim::parallel::with_threads`, exactly as
//! the optimizer determinism suite does) and across repeated runs. Since the
//! `magma-serve/v3` schema the report carries **both** serving modes —
//! overlap (search slices interleaved with execution, the default) and the
//! legacy serial baseline — and the suite locks the acceptance criteria of
//! both: the repeated-tenant cache economics (hits ≥ 90% of cold throughput
//! at ≤ 10% of the cold budget) and the overlap end-to-end latency win.

use magma_optim::parallel::with_threads;
use magma_platform::settings::ServeKnobs;
use magma_serve::report::{run_standard_scenarios, ScenarioResult, ServeReport};

/// Miniature but non-trivial knobs: several dispatch groups per scenario,
/// cold/refine budgets in the acceptance ratio, a real (bounded) cache.
fn test_knobs() -> ServeKnobs {
    ServeKnobs {
        requests: 64,
        group_target: 8,
        cold_budget: 50,
        refine_budget: 5,
        cache_capacity: 12,
        seed: 7,
        ..ServeKnobs::smoke()
    }
}

fn report_json(threads: usize) -> String {
    with_threads(threads, || {
        let report = run_standard_scenarios(&test_knobs(), true);
        serde_json::to_string_pretty(&report).expect("report serializes")
    })
}

fn repeated_tenant(ladder: &[ScenarioResult]) -> &ScenarioResult {
    ladder
        .iter()
        .find(|s| s.name == "repeated_tenant")
        .expect("the standard ladder always contains the repeated-tenant scenario")
}

#[test]
fn report_is_bit_identical_across_thread_counts() {
    let serial = report_json(1);
    let parallel = report_json(4);
    assert_eq!(serial, parallel, "MAGMA_THREADS must never change serving metrics");
    // Oversubscription (more workers than candidates) must not matter either.
    assert_eq!(serial, report_json(64));
}

#[test]
fn report_is_bit_identical_across_repeated_runs() {
    assert_eq!(report_json(2), report_json(2));
}

#[test]
fn report_survives_a_serde_round_trip_under_parallel_evaluation() {
    let json = report_json(4);
    let report: ServeReport = serde_json::from_str(&json).expect("report deserializes");
    assert_eq!(report.schema, magma_serve::SCHEMA);
    assert_eq!(report.scenarios.len(), 2);
    assert_eq!(report.baseline_scenarios.len(), 2);
    report.validate().expect("the v2 schema self-check holds after a round trip");
    assert_eq!(serde_json::to_string_pretty(&report).unwrap(), json);
}

#[test]
fn different_seeds_produce_different_reports() {
    let a = report_json(1);
    let b = with_threads(1, || {
        let knobs = ServeKnobs { seed: 8, ..test_knobs() };
        serde_json::to_string_pretty(&run_standard_scenarios(&knobs, true)).unwrap()
    });
    assert_ne!(a, b, "the seed must actually drive the trace and searches");
}

#[test]
fn acceptance_criterion_holds_on_the_repeated_tenant_trace() {
    let report = with_threads(4, || run_standard_scenarios(&test_knobs(), true));
    // The cache economics hold in both serving modes.
    for ladder in [&report.scenarios, &report.baseline_scenarios] {
        let repeat = repeated_tenant(ladder);
        let d = &repeat.metrics.dispatch;
        assert!(d.hits > 0, "repeated-tenant windows must recur in the cache: {d:?}");
        assert!(
            d.hit_cold_throughput_ratio >= 0.9,
            "hit dispatches reached only {:.3} of cold throughput",
            d.hit_cold_throughput_ratio
        );
        assert!(
            d.hit_sample_fraction <= 0.101,
            "hits spent {:.3} of the cold budget",
            d.hit_sample_fraction
        );
        // The cache never exceeds its bound.
        assert!(repeat.metrics.cache.entries <= test_knobs().cache_capacity);
    }
}

#[test]
fn overlap_mode_beats_legacy_end_to_end_on_the_repeated_tenant_trace() {
    let report = with_threads(2, || run_standard_scenarios(&test_knobs(), true));
    let overlap = repeated_tenant(&report.scenarios);
    let legacy = repeated_tenant(&report.baseline_scenarios);
    assert!(
        overlap.metrics.end_to_end.mean_sec < legacy.metrics.end_to_end.mean_sec,
        "overlap mean e2e {} must be strictly below legacy {}",
        overlap.metrics.end_to_end.mean_sec,
        legacy.metrics.end_to_end.mean_sec
    );
    // The comparison block mirrors the ladders.
    let cmp = report
        .comparison
        .iter()
        .find(|c| c.name == "repeated_tenant")
        .expect("one comparison entry per scenario");
    assert!(cmp.mean_speedup > 1.0, "speedup {} must exceed 1", cmp.mean_speedup);
    report.validate().expect("self-check");
}

/// The warm-restart contract of `ServeKnobs::cache_path`: a run persists
/// its mapping cache, a restart loads it and serves strictly more hits than
/// the cold run did — and two restarts from the same persisted file are
/// bit-identical whatever `MAGMA_THREADS` says.
#[test]
fn a_persisted_cache_restart_is_warm_and_thread_invariant() {
    use magma_model::TenantMix;
    use magma_serve::sim::{simulate, SimConfig};
    use magma_serve::trace::Scenario;

    let knobs = test_knobs();
    let mix = TenantMix::synthetic(8, knobs.seed);
    let dir = std::env::temp_dir();
    let seed_file = dir.join(format!("magma_serve_cache_seed_{}.json", std::process::id()));
    let _ = std::fs::remove_file(&seed_file);
    let base = SimConfig::from_knobs(&knobs, Scenario::Poisson);
    // First run: starts cold, persists its cache on exit.
    let cold = with_threads(2, || simulate(&base.clone().with_cache_path(&seed_file), &mix));
    // Every restart loads its own copy of the persisted file — a run
    // overwrites its cache file on exit, so copies keep the restarts
    // independent and comparable.
    let warm_run = |tag: &str, threads: usize| {
        let copy = dir.join(format!("magma_serve_cache_{tag}_{}.json", std::process::id()));
        std::fs::copy(&seed_file, &copy).expect("the persisted cache copies");
        let result = with_threads(threads, || simulate(&base.clone().with_cache_path(&copy), &mix));
        let _ = std::fs::remove_file(copy);
        result
    };
    let warm_serial = warm_run("t1", 1);
    let warm_parallel = warm_run("t4", 4);
    let _ = std::fs::remove_file(&seed_file);
    assert!(
        warm_serial.metrics.cache.hit_rate > cold.metrics.cache.hit_rate,
        "a restart from the persisted cache must hit more: warm {} vs cold {}",
        warm_serial.metrics.cache.hit_rate,
        cold.metrics.cache.hit_rate
    );
    assert!(warm_serial.metrics.cache.hits > cold.metrics.cache.hits);
    assert_eq!(
        warm_serial.metrics, warm_parallel.metrics,
        "a reloaded cache must reproduce identical metrics across MAGMA_THREADS"
    );
}

#[test]
fn every_scenario_completes_all_requests_with_sane_profiles() {
    let report = with_threads(2, || run_standard_scenarios(&test_knobs(), true));
    for s in report.scenarios.iter().chain(&report.baseline_scenarios) {
        let m = &s.metrics;
        assert_eq!(m.jobs, 64, "{}", s.name);
        assert_eq!(m.tenants.iter().map(|t| t.jobs).sum::<usize>(), m.jobs, "{}", s.name);
        assert!(m.duration_sec > 0.0 && m.throughput_gflops > 0.0, "{}", s.name);
        for stats in [&m.queueing, &m.service, &m.end_to_end] {
            assert_eq!(stats.count, m.jobs, "{}", s.name);
            assert!(stats.p50_sec <= stats.p95_sec && stats.p95_sec <= stats.p99_sec);
            assert!(stats.p99_sec <= stats.max_sec && stats.max_sec.is_finite());
        }
        assert_eq!(m.cache.hits + m.cache.misses, m.dispatch.dispatches as u64, "{}", s.name);
    }
}
