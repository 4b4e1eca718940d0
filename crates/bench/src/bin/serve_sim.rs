//! `serve_sim` — the online multi-tenant serving simulator behind
//! `BENCH_serve.json` (not a paper artefact; the serving layer on top of the
//! paper's per-group mapper).
//!
//! Runs the standard scenario ladder of `magma_serve::report` — stationary
//! Poisson multi-tenant traffic, a repeated-tenant trace, and (full mode)
//! bursty and tenant-drift traffic — through the virtual-clock simulator in
//! **both serving modes** (overlap: search slices interleaved with
//! accelerator execution through the steppable session API; legacy: the
//! serial baseline), prints a latency/throughput/cache profile per scenario
//! plus the overlap-vs-legacy comparison, and writes the schema-stable
//! `BENCH_serve.json` (schema `magma-serve/v3`, self-checked via
//! `ServeReport::validate`).
//!
//! With `--scenario <file>` the builtin ladder is replaced by a scenario
//! from the registry (`magma-registry`): the file's platform / tenant-mix /
//! traffic definitions are validated, resolved and run in both serving
//! modes, and the report embeds the resolved scenario descriptor.
//!
//! The builtin run doubles as an acceptance check and panics on regression
//! (so CI can never silently lose either win): on the repeated-tenant
//! scenario the cache-hit dispatches must reach ≥ 90% of the cold-search
//! throughput while spending ≤ 10% of the cold sample budget, and overlap
//! mode must report a strictly lower mean end-to-end latency than legacy
//! mode. Registry scenarios skip the ladder-specific acceptance gate.
//!
//! # Knobs
//!
//! | Option | Effect |
//! |---|---|
//! | `--smoke` | CI scale (`ServeKnobs::smoke`): 96 requests, groups of 8, 60/6 budgets, 2 scenarios |
//! | `--requests <n>` | arrivals per scenario (a scenario file's `traffic.requests` wins) |
//! | `--scenario <file>` | run a registry scenario file instead of the builtin ladder; its `traffic` and `serving` blocks pin load, seed, cache and SLA settings |
//! | `MAGMA_SCENARIO_DIR` | registry root the scenario's references resolve against (default `scenarios/`) |
//! | `MAGMA_THREADS` | evaluation worker threads — wall-clock only, the report never changes |
//! | `MAGMA_BENCH_DIR` | output directory of `BENCH_serve.json` |

use magma::platform::settings::ServeKnobs;
use magma_bench::Flag;
use magma_serve::metrics::LatencyStats;
use magma_serve::report::{
    run_custom_scenario, run_standard_scenarios, write_bench_json, ScenarioResult,
};
use magma_serve::ServeReport;

fn main() {
    let cli = magma_bench::serving_cli(&[Flag::Requests]);
    let (smoke, scenario) = (cli.smoke, cli.scenario);
    let mut knobs = if smoke { ServeKnobs::smoke() } else { ServeKnobs::full() };
    knobs.requests = cli.requests.unwrap_or(knobs.requests);
    println!("==============================================================");
    println!("serve_sim — online multi-tenant serving (magma-serve)");
    println!(
        "mode {}, {} requests/scenario, groups of {}, budgets {}/{} (cold/refine), \
         cache {} entries (epsilon {}), slice {}, seed {}",
        if smoke { "smoke" } else { "full" },
        knobs.requests,
        knobs.group_target,
        knobs.cold_budget,
        knobs.refine_budget,
        knobs.cache_capacity,
        knobs.cache_epsilon,
        knobs.search_slice,
        knobs.seed
    );
    println!("==============================================================");

    let report = match &scenario {
        Some(path) => {
            let resolved = magma_bench::resolve_scenario_or_exit(path);
            println!(
                "registry scenario {:?}: platform {} ({} cores), {} tenants, {} arrivals, \
                 descriptor {}",
                resolved.name,
                resolved.platform.name(),
                resolved.platform_def.core_count(),
                resolved.mix.len(),
                resolved.overrides.requests.unwrap_or(knobs.requests),
                resolved.descriptor.content_hash
            );
            run_custom_scenario(&knobs, smoke, &resolved.custom())
        }
        None => run_standard_scenarios(&knobs, smoke),
    };
    if let Err(violation) = report.validate() {
        eprintln!("magma-serve/v3 schema self-check failed: {violation}");
        std::process::exit(1);
    }
    print_report(&report);
    if scenario.is_none() {
        check_acceptance(&report);
    }

    match write_bench_json(&report) {
        Ok(path) => println!("\n(serving profile written to {})", path.display()),
        Err(e) => {
            eprintln!("could not write BENCH_serve.json: {e}");
            std::process::exit(1);
        }
    }
}

fn latency_row(label: &str, s: &LatencyStats) {
    println!(
        "  {label:<12} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
        s.mean_sec * 1e6,
        s.p50_sec * 1e6,
        s.p95_sec * 1e6,
        s.p99_sec * 1e6,
        s.max_sec * 1e6
    );
}

fn print_scenario(s: &ScenarioResult) {
    let m = &s.metrics;
    println!(
        "\n[{}] {} ({}) — {} jobs in {:.1} ms of virtual time ({:.0} jobs/s, {:.1} GFLOP/s)",
        s.name,
        s.scenario,
        if s.overlap { "overlap" } else { "legacy" },
        m.jobs,
        m.duration_sec * 1e3,
        m.jobs_per_sec,
        m.throughput_gflops
    );
    println!(
        "  {:<12} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "latency (µs)", "mean", "p50", "p95", "p99", "max"
    );
    latency_row("queueing", &m.queueing);
    latency_row("service", &m.service);
    latency_row("end-to-end", &m.end_to_end);
    println!(
        "  cache: {} hits ({} near) / {} misses (rate {:.2}), {} evictions, {} live entries",
        m.cache.hits,
        m.cache.near_hits,
        m.cache.misses,
        m.cache.hit_rate,
        m.cache.evictions,
        m.cache.entries
    );
    println!(
        "  dispatch: {} cold ({} samples, {:.1} GFLOP/s mean) vs {} hits \
         ({} samples, {:.1} GFLOP/s mean) → ratio {:.3} at {:.1}% of cold budget",
        m.dispatch.cold,
        m.dispatch.cold_samples,
        m.dispatch.cold_gflops_mean,
        m.dispatch.hits,
        m.dispatch.hit_samples,
        m.dispatch.hit_gflops_mean,
        m.dispatch.hit_cold_throughput_ratio,
        m.dispatch.hit_sample_fraction * 100.0
    );
    for t in &m.tenants {
        println!(
            "  tenant {:<16} {} jobs, p99 {:.1} µs, SLA({:.1} µs ×{:.2}) violations {} ({:.1}%)",
            t.tenant,
            t.jobs,
            t.latency.p99_sec * 1e6,
            t.sla_sec * 1e6,
            t.sla_multiplier,
            t.sla_violations,
            t.sla_violation_rate * 100.0
        );
    }
}

fn print_report(report: &ServeReport) {
    for s in &report.scenarios {
        print_scenario(s);
    }
    println!("\n--- baseline (legacy) ---");
    for s in &report.baseline_scenarios {
        print_scenario(s);
    }
    println!("\noverlap vs legacy (end-to-end, µs of virtual time):");
    println!(
        "  {:<22} {:>12} {:>12} {:>12} {:>12} {:>9}",
        "scenario", "ovl mean", "leg mean", "ovl p95", "leg p95", "speedup"
    );
    for c in &report.comparison {
        println!(
            "  {:<22} {:>12.1} {:>12.1} {:>12.1} {:>12.1} {:>8.2}x",
            c.name,
            c.overlap_mean_e2e_us,
            c.legacy_mean_e2e_us,
            c.overlap_p95_e2e_us,
            c.legacy_p95_e2e_us,
            c.mean_speedup
        );
    }
}

/// The acceptance criteria on the repeated-tenant scenario. Panics on
/// regression so CI fails loudly.
fn check_acceptance(report: &ServeReport) {
    let repeat = |ladder: &[ScenarioResult]| -> ScenarioResult {
        ladder
            .iter()
            .find(|s| s.name == "repeated_tenant")
            .expect("the standard ladder always contains the repeated-tenant scenario")
            .clone()
    };
    // Cache economics hold in both serving modes.
    for ladder in [&report.scenarios, &report.baseline_scenarios] {
        let d = repeat(ladder).metrics.dispatch;
        assert!(d.hits > 0, "repeated-tenant traffic produced no cache hits");
        assert!(
            d.hit_cold_throughput_ratio >= 0.9,
            "cache-hit dispatch reached only {:.1}% of cold-search throughput (acceptance: ≥ 90%)",
            d.hit_cold_throughput_ratio * 100.0
        );
        assert!(
            d.hit_sample_fraction <= 0.101,
            "cache hits spent {:.1}% of the cold sample budget (acceptance: ≤ 10%)",
            d.hit_sample_fraction * 100.0
        );
    }
    // Overlap must strictly beat legacy end-to-end on the repeated trace.
    let overlap = repeat(&report.scenarios);
    let legacy = repeat(&report.baseline_scenarios);
    assert!(
        overlap.metrics.end_to_end.mean_sec < legacy.metrics.end_to_end.mean_sec,
        "overlap mean e2e {:.1} µs is not below legacy {:.1} µs",
        overlap.metrics.end_to_end.mean_sec * 1e6,
        legacy.metrics.end_to_end.mean_sec * 1e6
    );
    let d = overlap.metrics.dispatch;
    println!(
        "\nacceptance: hit/cold throughput ratio {:.3} (≥ 0.9) at {:.1}% of the cold budget \
         (≤ 10%); overlap e2e mean {:.1} µs < legacy {:.1} µs",
        d.hit_cold_throughput_ratio,
        d.hit_sample_fraction * 100.0,
        overlap.metrics.end_to_end.mean_sec * 1e6,
        legacy.metrics.end_to_end.mean_sec * 1e6
    );
}
