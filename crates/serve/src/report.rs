//! The schema-stable serving report behind `BENCH_serve.json`.
//!
//! [`SCHEMA`] is a versioned tag; fields are only ever added, with a version
//! bump, never renamed or removed, so trend tooling can diff serving
//! profiles across commits. The report is purely virtual-clock — it contains
//! **no wall-clock measurements and no thread counts** — which is what makes
//! the determinism suite's bit-identical-JSON assertion possible across
//! `MAGMA_THREADS` settings.

use crate::descriptor::{CustomScenario, ScenarioDescriptor};
use crate::sim::{simulate, SimConfig};
use crate::trace::Scenario;
use magma_model::{TaskType, TenantMix};
use magma_platform::settings::ServeKnobs;
use serde::{Deserialize, Serialize, Value};
use std::path::PathBuf;

/// Version tag of the report layout. Bump when (and only when) fields are
/// added; existing fields are never renamed or removed.
///
/// `v2` (the steppable-session release) adds, on top of `v1`: the
/// `primary_overlap` flag, the `baseline_scenarios` ladder (the *other*
/// serving mode, so every report carries both overlap and legacy results),
/// the per-scenario `comparison` block, `overlap` on every scenario entry,
/// `near_hits` in the cache block and `sla_multiplier` per tenant.
///
/// `v3` (the scenario-registry release) adds the embedded
/// `scenario_descriptor`: what the report measured — builtin ladder knobs or
/// the resolved registry definitions — content-hashed and required by
/// [`ServeReport::validate`].
pub const SCHEMA: &str = "magma-serve/v3";

/// One simulated scenario's block in the report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioResult {
    /// Short stable identifier (e.g. `repeated_tenant`).
    pub name: String,
    /// The traffic scenario simulated.
    pub scenario: Scenario,
    /// Whether this entry was simulated in overlap mode.
    pub overlap: bool,
    /// Arrivals simulated.
    pub requests: usize,
    /// Dispatch-group size target.
    pub group_target: usize,
    /// Calibrated mean inter-arrival gap, µs of virtual time.
    pub mean_interarrival_us: f64,
    /// Per-job SLA bound, µs of virtual time.
    pub sla_us: f64,
    /// The full metrics block.
    pub metrics: crate::metrics::ServeMetrics,
}

/// The overlap-vs-legacy end-to-end latency comparison of one scenario —
/// the headline the overlap redesign is measured by.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioComparison {
    /// Scenario identifier (matches the ladders).
    pub name: String,
    /// Mean end-to-end latency in overlap mode, µs of virtual time.
    pub overlap_mean_e2e_us: f64,
    /// Mean end-to-end latency in legacy (serial) mode, µs.
    pub legacy_mean_e2e_us: f64,
    /// p95 end-to-end latency in overlap mode, µs.
    pub overlap_p95_e2e_us: f64,
    /// p95 end-to-end latency in legacy mode, µs.
    pub legacy_p95_e2e_us: f64,
    /// `legacy_mean / overlap_mean` — > 1 means overlap wins.
    pub mean_speedup: f64,
}

/// The full report written to `BENCH_serve.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Schema version tag ([`SCHEMA`]).
    pub schema: String,
    /// `smoke` or `full`.
    pub mode: String,
    /// Whether `scenarios` (the primary ladder) ran in overlap mode. Always
    /// `true`: the primary ladder is overlap mode and `baseline_scenarios`
    /// holds legacy mode. Kept so the `v2` layout stays unchanged.
    pub primary_overlap: bool,
    /// Trace/search seed.
    pub seed: u64,
    /// Cold-search sampling budget.
    pub cold_budget: usize,
    /// Cache-hit refinement budget.
    pub refine_budget: usize,
    /// Mapping-cache capacity.
    pub cache_capacity: usize,
    /// What this report measured: the resolved scenario descriptor
    /// (builtin ladder parameters, or the registry definitions behind a
    /// `--scenario` run), content-hashed.
    pub scenario_descriptor: ScenarioDescriptor,
    /// One entry per simulated scenario, in overlap mode.
    pub scenarios: Vec<ScenarioResult>,
    /// The same scenario ladder in legacy (serial) mode, so every report
    /// carries both the overlap results and the legacy baseline.
    pub baseline_scenarios: Vec<ScenarioResult>,
    /// Per-scenario overlap-vs-legacy end-to-end comparison.
    pub comparison: Vec<ScenarioComparison>,
}

impl ServeReport {
    /// The `magma-serve/v3` schema self-check: the versioned invariants CI
    /// asserts before uploading a profile. Returns the first violation as an
    /// error string.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema != SCHEMA {
            return Err(format!("schema tag {} != {}", self.schema, SCHEMA));
        }
        self.scenario_descriptor.validate().map_err(|e| format!("serve report: {e}"))?;
        if self.scenarios.is_empty() {
            return Err("empty primary ladder".into());
        }
        if self.scenarios.len() != self.baseline_scenarios.len() {
            return Err("primary and baseline ladders differ in length".into());
        }
        if self.comparison.len() != self.scenarios.len() {
            return Err("one comparison entry per scenario required".into());
        }
        for (s, b) in self.scenarios.iter().zip(&self.baseline_scenarios) {
            if s.name != b.name {
                return Err(format!("ladder misalignment: {} vs {}", s.name, b.name));
            }
            if !self.primary_overlap || !s.overlap || b.overlap {
                return Err(format!("mode flags inconsistent on {}", s.name));
            }
        }
        for c in &self.comparison {
            let overlap = self
                .scenarios
                .iter()
                .find(|s| s.name == c.name)
                .ok_or_else(|| format!("comparison for unknown scenario {}", c.name))?;
            let legacy = self
                .baseline_scenarios
                .iter()
                .find(|s| s.name == c.name)
                .expect("ladders are aligned");
            let mean = |s: &ScenarioResult| s.metrics.end_to_end.mean_sec * 1e6;
            if (c.overlap_mean_e2e_us - mean(overlap)).abs() > 1e-9 * mean(overlap).max(1.0)
                || (c.legacy_mean_e2e_us - mean(legacy)).abs() > 1e-9 * mean(legacy).max(1.0)
            {
                return Err(format!("comparison of {} disagrees with its ladders", c.name));
            }
        }
        Ok(())
    }
}

/// The standard scenario ladder: what `serve_sim` runs and the determinism
/// suite locks down.
///
/// * `poisson_mix` — stationary multi-tenant traffic (the paper's Mix task,
///   served online).
/// * `repeated_tenant` — a single small-model tenant whose job windows
///   recur; the repeated-tenant trace of the acceptance criteria (cache
///   economics and the overlap end-to-end win).
/// * (full mode only) `bursty_mix` and `drift_mix` — deadline-path stress
///   and cache-invalidation-under-drift.
pub fn standard_scenarios(smoke: bool) -> Vec<(&'static str, Scenario, TenantMix)> {
    let mut scenarios = vec![
        ("poisson_mix", Scenario::Poisson, TenantMix::standard()),
        (
            "repeated_tenant",
            Scenario::Poisson,
            TenantMix::single(
                "recommendation",
                TaskType::Recommendation,
                vec![magma_model::zoo::ncf()],
            ),
        ),
    ];
    if !smoke {
        scenarios.push(("bursty_mix", Scenario::Bursty, TenantMix::standard()));
        scenarios.push(("drift_mix", Scenario::Drift, TenantMix::standard()));
    }
    scenarios
}

/// Simulates one named scenario in the given mode on `config`'s platform.
fn run_one(name: &str, config: &SimConfig, mix: &TenantMix, overlap: bool) -> ScenarioResult {
    let config = config.clone().with_overlap(overlap);
    let result = simulate(&config, mix);
    ScenarioResult {
        name: name.to_string(),
        scenario: config.scenario,
        overlap,
        requests: config.requests,
        group_target: config.group_target,
        mean_interarrival_us: result.mean_interarrival_sec * 1e6,
        sla_us: result.sla_sec * 1e6,
        metrics: result.metrics,
    }
}

/// The report's simulation config for `scenario` under `knobs`. Every
/// scenario starts cold: a persistence file would leak cache state across
/// scenarios and ladders, so `cache_path` is ignored. Warm restarts are
/// exercised by `sim::simulate` callers and the integration suites, never
/// by the report.
fn cold_config(knobs: &ServeKnobs, scenario: Scenario) -> SimConfig {
    SimConfig { cache_path: None, ..SimConfig::from_knobs(knobs, scenario) }
}

/// Assembles a two-ladder report (overlap + legacy baseline + comparison)
/// from the scenarios to run — shared by the builtin and registry paths.
fn assemble_report(
    knobs: &ServeKnobs,
    smoke: bool,
    descriptor: ScenarioDescriptor,
    runs: &[(&str, SimConfig, &TenantMix)],
) -> ServeReport {
    let ladder = |overlap| -> Vec<ScenarioResult> {
        runs.iter().map(|(name, config, mix)| run_one(name, config, mix, overlap)).collect()
    };
    let scenarios = ladder(true);
    let baseline_scenarios = ladder(false);
    let comparison = scenarios
        .iter()
        .zip(&baseline_scenarios)
        .map(|(o, l)| {
            let overlap_mean = o.metrics.end_to_end.mean_sec * 1e6;
            let legacy_mean = l.metrics.end_to_end.mean_sec * 1e6;
            ScenarioComparison {
                name: o.name.clone(),
                overlap_mean_e2e_us: overlap_mean,
                legacy_mean_e2e_us: legacy_mean,
                overlap_p95_e2e_us: o.metrics.end_to_end.p95_sec * 1e6,
                legacy_p95_e2e_us: l.metrics.end_to_end.p95_sec * 1e6,
                mean_speedup: if overlap_mean > 0.0 { legacy_mean / overlap_mean } else { 0.0 },
            }
        })
        .collect();
    ServeReport {
        schema: SCHEMA.to_string(),
        mode: if smoke { "smoke" } else { "full" }.to_string(),
        primary_overlap: true,
        seed: knobs.seed,
        cold_budget: knobs.cold_budget,
        refine_budget: knobs.refine_budget,
        cache_capacity: knobs.cache_capacity,
        scenario_descriptor: descriptor,
        scenarios,
        baseline_scenarios,
        comparison,
    }
}

/// The builtin ladder's self-describing descriptor: the knob values that
/// shape the run plus the ladder's scenario names (the registry path embeds
/// the full resolved definitions instead).
fn builtin_serve_descriptor(knobs: &ServeKnobs, smoke: bool) -> ScenarioDescriptor {
    let names: Vec<Value> = standard_scenarios(smoke)
        .iter()
        .map(|(name, _, _)| Value::Str((*name).to_string()))
        .collect();
    let params = Value::Map(vec![
        ("requests".into(), Value::U64(knobs.requests as u64)),
        ("group_target".into(), Value::U64(knobs.group_target as u64)),
        ("offered_load".into(), Value::F64(knobs.offered_load)),
        ("sla_x".into(), Value::F64(knobs.sla_x)),
        ("cold_budget".into(), Value::U64(knobs.cold_budget as u64)),
        ("refine_budget".into(), Value::U64(knobs.refine_budget as u64)),
        ("cache_capacity".into(), Value::U64(knobs.cache_capacity as u64)),
        ("cache_epsilon".into(), Value::F64(knobs.cache_epsilon)),
        ("quant_step".into(), Value::F64(knobs.quant_step)),
        ("platform".into(), Value::Str("S2".into())),
        ("seed".into(), Value::U64(knobs.seed)),
        ("scenarios".into(), Value::Seq(names)),
    ]);
    ScenarioDescriptor::new("builtin", "standard_ladder", params)
}

/// Runs the standard scenario ladder under `knobs` in **both** serving modes
/// and assembles the report: `scenarios` holds the overlap ladder,
/// `baseline_scenarios` the legacy one, and the comparison block pairs them
/// per scenario.
pub fn run_standard_scenarios(knobs: &ServeKnobs, smoke: bool) -> ServeReport {
    let ladder = standard_scenarios(smoke);
    let runs: Vec<_> = ladder
        .iter()
        .map(|(name, scenario, mix)| (*name, cold_config(knobs, *scenario), mix))
        .collect();
    assemble_report(knobs, smoke, builtin_serve_descriptor(knobs, smoke), &runs)
}

/// Runs one registry-defined scenario in **both** serving modes and
/// assembles a single-scenario report embedding its descriptor. The
/// scenario supplies the platform, mix and arrival process; its pins
/// replace the matching knobs ([`ServeKnobs::with_overrides`]).
pub fn run_custom_scenario(
    knobs: &ServeKnobs,
    smoke: bool,
    custom: &CustomScenario,
) -> ServeReport {
    let knobs = &knobs.with_overrides(&custom.overrides);
    let config =
        SimConfig { platform: custom.platform.clone(), ..cold_config(knobs, custom.scenario) };
    let runs = [(custom.name.as_str(), config, &custom.mix)];
    assemble_report(knobs, smoke, custom.descriptor.clone(), &runs)
}

/// Writes the report to `BENCH_serve.json` in `MAGMA_BENCH_DIR` (default:
/// the current directory, i.e. the repo root under `cargo run`), returning
/// the path on success — same contract as the perf harness, so CI never
/// silently uploads a stale profile.
pub fn write_bench_json(report: &ServeReport) -> std::io::Result<PathBuf> {
    let dir = std::env::var("MAGMA_BENCH_DIR").map(PathBuf::from).unwrap_or_else(|_| ".".into());
    let path = dir.join("BENCH_serve.json");
    let json = serde_json::to_string_pretty(report)
        .map_err(|e| std::io::Error::other(format!("serializing the serve report: {e}")))?;
    std::fs::write(&path, json + "\n")?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use magma_platform::settings::ScenarioOverrides;

    fn tiny_knobs() -> ServeKnobs {
        ServeKnobs {
            requests: 40,
            group_target: 8,
            cold_budget: 40,
            refine_budget: 4,
            cache_capacity: 8,
            ..ServeKnobs::smoke()
        }
    }

    #[test]
    fn smoke_ladder_has_the_acceptance_scenario() {
        let names: Vec<&str> = standard_scenarios(true).iter().map(|(n, _, _)| *n).collect();
        assert_eq!(names, ["poisson_mix", "repeated_tenant"]);
        let full: Vec<&str> = standard_scenarios(false).iter().map(|(n, _, _)| *n).collect();
        assert_eq!(full.len(), 4);
        assert!(full.contains(&"repeated_tenant"));
    }

    #[test]
    fn report_round_trips_through_serde_with_stable_keys() {
        let report = run_standard_scenarios(&tiny_knobs(), true);
        assert_eq!(report.schema, SCHEMA);
        assert_eq!(report.scenarios.len(), 2);
        let json = serde_json::to_string_pretty(&report).unwrap();
        // The schema contract: these keys must never be renamed (only added
        // to, with a SCHEMA bump). v1 keys first, then the v2 additions.
        for key in [
            "\"schema\"",
            "\"mode\"",
            "\"seed\"",
            "\"cold_budget\"",
            "\"refine_budget\"",
            "\"cache_capacity\"",
            "\"scenarios\"",
            "\"name\"",
            "\"scenario\"",
            "\"requests\"",
            "\"group_target\"",
            "\"mean_interarrival_us\"",
            "\"sla_us\"",
            "\"metrics\"",
            "\"jobs\"",
            "\"duration_sec\"",
            "\"jobs_per_sec\"",
            "\"throughput_gflops\"",
            "\"queueing\"",
            "\"service\"",
            "\"end_to_end\"",
            "\"p50_sec\"",
            "\"p95_sec\"",
            "\"p99_sec\"",
            "\"tenants\"",
            "\"sla_violations\"",
            "\"cache\"",
            "\"hit_rate\"",
            "\"dispatch\"",
            "\"hit_cold_throughput_ratio\"",
            "\"hit_sample_fraction\"",
            // v2 additions.
            "\"primary_overlap\"",
            "\"baseline_scenarios\"",
            "\"comparison\"",
            "\"overlap\"",
            "\"overlap_mean_e2e_us\"",
            "\"legacy_mean_e2e_us\"",
            "\"overlap_p95_e2e_us\"",
            "\"legacy_p95_e2e_us\"",
            "\"mean_speedup\"",
            "\"near_hits\"",
            "\"sla_multiplier\"",
            // v3 additions.
            "\"scenario_descriptor\"",
            "\"source\"",
            "\"content_hash\"",
            "\"params\"",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
        let back: ServeReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn report_carries_both_modes_and_validates() {
        let report = run_standard_scenarios(&tiny_knobs(), true);
        assert!(report.primary_overlap, "overlap is the default primary mode");
        assert!(report.scenarios.iter().all(|s| s.overlap));
        assert!(report.baseline_scenarios.iter().all(|s| !s.overlap));
        assert_eq!(report.comparison.len(), report.scenarios.len());
        report.validate().expect("a freshly assembled report must self-check");
        // A report claiming a legacy primary ladder fails the self-check.
        let mut flipped = report.clone();
        flipped.primary_overlap = false;
        assert!(flipped.validate().is_err());
    }

    #[test]
    fn validate_rejects_a_corrupted_report() {
        let mut report = run_standard_scenarios(&tiny_knobs(), true);
        report.comparison[0].overlap_mean_e2e_us *= 2.0;
        assert!(report.validate().is_err(), "a tampered comparison must fail the self-check");
        let mut wrong_tag = run_standard_scenarios(&tiny_knobs(), true);
        wrong_tag.schema = "magma-serve/v1".into();
        assert!(wrong_tag.validate().is_err());
        // v3: a descriptor whose params were edited without re-hashing
        // fails the self-check.
        let mut stale_hash = run_standard_scenarios(&tiny_knobs(), true);
        stale_hash.scenario_descriptor.params = serde::Value::Null;
        assert!(stale_hash.validate().is_err());
    }

    #[test]
    fn custom_scenario_runs_and_embeds_its_descriptor() {
        use crate::descriptor::ScenarioDescriptor;
        use magma_platform::{PlatformSpec, Setting};
        let knobs = tiny_knobs();
        let descriptor = ScenarioDescriptor::new(
            "registry",
            "test_custom",
            serde::Value::Map(vec![("platform".into(), serde::Value::Str("S1".into()))]),
        );
        let custom = CustomScenario {
            name: "test_custom".into(),
            scenario: Scenario::Poisson,
            mix: TenantMix::standard(),
            platform: PlatformSpec::Setting(Setting::S1),
            overrides: ScenarioOverrides {
                requests: Some(32),
                seed: Some(9),
                ..ScenarioOverrides::default()
            },
            descriptor,
        };
        let report = run_custom_scenario(&knobs, true, &custom);
        report.validate().expect("custom-scenario report must self-check");
        assert_eq!(report.scenario_descriptor.source, "registry");
        assert_eq!(report.seed, 9);
        assert_eq!(report.scenarios.len(), 1);
        assert_eq!(report.scenarios[0].name, "test_custom");
        assert_eq!(report.scenarios[0].requests, 32);
        assert_eq!(report.scenarios[0].metrics.jobs, 32);
    }

    #[test]
    fn pinned_serving_block_overrides_the_knobs_in_the_report() {
        use crate::descriptor::ScenarioDescriptor;
        use magma_platform::{PlatformSpec, Setting};
        let knobs = tiny_knobs();
        let descriptor = ScenarioDescriptor::new("registry", "pinned", serde::Value::Null);
        let custom = CustomScenario {
            name: "pinned".into(),
            scenario: Scenario::Poisson,
            mix: TenantMix::standard(),
            platform: PlatformSpec::Setting(Setting::S1),
            overrides: ScenarioOverrides {
                requests: Some(16),
                cache_epsilon: Some(2.5),
                refine_budget: Some(7),
                ..ScenarioOverrides::default()
            },
            descriptor,
        };
        let effective = knobs.with_overrides(&custom.overrides);
        assert_eq!(effective.cache_epsilon, 2.5);
        assert_eq!(effective.refine_budget, 7);
        assert_eq!(effective.quant_step, knobs.quant_step, "unpinned knob inherits");
        let report = run_custom_scenario(&knobs, true, &custom);
        report.validate().expect("self-check");
        assert_eq!(report.refine_budget, 7, "report reflects the pinned serving config");
    }
}
