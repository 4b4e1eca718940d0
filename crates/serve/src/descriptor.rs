//! Self-describing scenario descriptors embedded in every `BENCH_*.json`
//! serving report.
//!
//! A [`ScenarioDescriptor`] records *what* a report measured: the scenario's
//! source (`builtin` for the hardcoded ladders, `registry` for a
//! `magma-registry` file), its name, the resolved parameter tree, and a
//! content hash over that tree so two reports can be compared for "same
//! scenario?" without diffing the whole parameter blob. Report `validate()`
//! self-checks recompute the hash, so a hand-edited report that changes the
//! parameters without re-hashing fails validation.

use crate::trace::Scenario;
use magma_model::TenantMix;
use magma_platform::settings::ScenarioOverrides;
use magma_platform::PlatformSpec;
use serde::{Deserialize, Serialize, Value};

/// The descriptor sources a report may carry.
pub const DESCRIPTOR_SOURCES: [&str; 2] = ["builtin", "registry"];

/// FNV-1a 64-bit hash — tiny, stable, dependency-free; plenty for
/// content-addressing scenario parameter trees (this is an integrity check
/// against accidental drift, not a cryptographic commitment).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// JSON-round-trips a value so its in-memory form matches what a reader of
/// the serialized report reconstructs (see [`ScenarioDescriptor::new`]).
fn canonicalize(v: Value) -> Value {
    serde_json::to_string(&v)
        .ok()
        .and_then(|s| serde_json::from_str(&s).ok())
        .unwrap_or(Value::Null)
}

/// The resolved description of the scenario a serving report measured.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioDescriptor {
    /// Where the scenario came from: `"builtin"` (hardcoded ladder) or
    /// `"registry"` (a `magma-registry` scenario file).
    pub source: String,
    /// The scenario's name (ladder name for builtins, registry name
    /// otherwise).
    pub name: String,
    /// FNV-1a 64-bit hash (hex, `fnv1a64:` prefixed) of the compact JSON
    /// serialization of `params`.
    pub content_hash: String,
    /// The resolved parameter tree: for registry scenarios the full
    /// platform/mix/traffic definitions; for builtins the knob values that
    /// shaped the run.
    pub params: Value,
}

impl ScenarioDescriptor {
    /// Builds a descriptor, computing the content hash of `params`.
    ///
    /// `params` is canonicalized through a JSON round-trip first: the
    /// vendored serializer prints whole floats without a decimal point
    /// (`3.0` → `3`), which reparses as an integer — canonicalizing up
    /// front makes an in-memory descriptor bit-equal to its reloaded form,
    /// so report round-trip equality (and the determinism suite's
    /// bit-identical-JSON assertions) hold.
    pub fn new(source: &str, name: &str, params: Value) -> Self {
        let params = canonicalize(params);
        let content_hash = Self::hash_of(&params);
        ScenarioDescriptor {
            source: source.to_string(),
            name: name.to_string(),
            content_hash,
            params,
        }
    }

    /// The canonical content hash of a parameter tree: FNV-1a 64 over its
    /// compact JSON serialization.
    pub fn hash_of(params: &Value) -> String {
        let compact = serde_json::to_string(params).unwrap_or_default();
        format!("fnv1a64:{:016x}", fnv1a64(compact.as_bytes()))
    }

    /// Self-check: known source, non-empty name, and a content hash that
    /// matches a recomputation over `params`.
    pub fn validate(&self) -> Result<(), String> {
        if !DESCRIPTOR_SOURCES.contains(&self.source.as_str()) {
            return Err(format!(
                "scenario descriptor source {:?} not in {:?}",
                self.source, DESCRIPTOR_SOURCES
            ));
        }
        if self.name.trim().is_empty() {
            return Err("scenario descriptor name is empty".into());
        }
        let expect = Self::hash_of(&self.params);
        if self.content_hash != expect {
            return Err(format!(
                "scenario descriptor content_hash {:?} does not match params (expected {expect:?})",
                self.content_hash
            ));
        }
        Ok(())
    }
}

/// A fully resolved, data-driven scenario ready to run: everything the
/// hardcoded ladders derive from their names, as one value. Built by the
/// scenario registry (`magma-registry`) from a scenario file; consumed by
/// [`crate::report::run_custom_scenario`],
/// [`crate::fleet::run_fleet_custom`] and
/// [`crate::sweep::run_cache_sweep_custom`].
#[derive(Debug, Clone, PartialEq)]
pub struct CustomScenario {
    /// The scenario's registry name (report scenario label).
    pub name: String,
    /// The arrival process.
    pub scenario: Scenario,
    /// The tenant mix driving the trace.
    pub mix: TenantMix,
    /// The platform to serve on (every fleet shard gets a copy).
    pub platform: PlatformSpec,
    /// What the scenario file pins on top of the knob preset (traffic
    /// `requests` / `offered_load` / `seed` and the serving block); every
    /// `None` inherits the preset.
    pub overrides: ScenarioOverrides,
    /// The self-describing descriptor embedded in any report this scenario
    /// produces.
    pub descriptor: ScenarioDescriptor,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_reference_vectors() {
        // Standard FNV-1a 64 vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn descriptor_hash_is_stable_and_validated() {
        let params = Value::Map(vec![
            ("requests".into(), Value::U64(96)),
            ("scenario".into(), Value::Str("poisson_mix".into())),
        ]);
        let d = ScenarioDescriptor::new("builtin", "standard_ladder", params.clone());
        assert!(d.validate().is_ok());
        assert_eq!(d.content_hash, ScenarioDescriptor::hash_of(&params));
        assert!(d.content_hash.starts_with("fnv1a64:"));

        let mut tampered = d.clone();
        tampered.params = Value::Map(vec![("requests".into(), Value::U64(97))]);
        assert!(tampered.validate().is_err());

        let mut bad_source = d.clone();
        bad_source.source = "handwritten".into();
        assert!(bad_source.validate().is_err());

        let mut unnamed = d;
        unnamed.name = "  ".into();
        assert!(unnamed.validate().is_err());
    }

    #[test]
    fn descriptor_round_trips_through_json() {
        let d = ScenarioDescriptor::new(
            "registry",
            "edge-duo-flash-crowd",
            Value::Map(vec![("load".into(), Value::F64(3.0))]),
        );
        let json = serde_json::to_string(&d).unwrap();
        let back: ScenarioDescriptor = serde_json::from_str(&json).unwrap();
        assert_eq!(back, d);
        assert!(back.validate().is_ok());
    }
}
