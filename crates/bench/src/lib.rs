//! Shared plumbing for the experiment-reproduction binaries.
//!
//! Every binary in `src/bin/` regenerates one figure or table of the paper's
//! evaluation section (each binary's doc comment names its artefact):
//!
//! | Binary | Paper artefact |
//! |---|---|
//! | `fig07_job_analysis` | Fig. 7 — HB/LB job characteristics |
//! | `fig08_homogeneous` | Fig. 8 — mappers on the homogeneous S1 |
//! | `fig09_heterogeneous` | Fig. 9 — mappers on heterogeneous S2/S4 |
//! | `fig10_exploration` | Fig. 10 — exploration study |
//! | `fig11_convergence` | Fig. 11 — convergence curves |
//! | `fig12_bw_sweep` | Fig. 12 — bandwidth sweep |
//! | `fig13_subaccel_combos` | Fig. 13 — sub-accelerator combinations |
//! | `fig14_flexible` | Fig. 14 — fixed vs flexible PE arrays |
//! | `fig15_schedule_visual` | Fig. 15 — schedule visualization |
//! | `fig16_operator_ablation` | Fig. 16 — GA operator ablation |
//! | `fig17_group_size` | Fig. 17 — group-size sweep |
//! | `tab05_warm_start` | Table V — warm-start transfer |
//! | `perf_suite` | not a paper artefact — the parallel-evaluation perf harness behind `BENCH_parallel_eval.json` (see [`perf`]) |
//! | `serve_sim` | not a paper artefact — the online multi-tenant serving simulator behind `BENCH_serve.json` (`magma-serve`) |
//!
//! By default the binaries run at a *reduced* scale so they finish in seconds
//! on a laptop; set the environment variable `MAGMA_FULL_SCALE=1` to run at
//! the paper's scale (group size 100, 10 000-sample budget), or override the
//! individual knobs with `MAGMA_GROUP_SIZE` and `MAGMA_BUDGET` (see
//! [`Scale::from_env`]; an unparsable value exits with status 2). Binaries
//! print paper-style tables and dump raw JSON under
//! `target/experiment-results/` via [`dump_json`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod perf;

use magma::experiments::MethodScore;
use serde::Serialize;
use std::path::PathBuf;

/// Scale parameters shared by all experiment binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Paper scale (`MAGMA_FULL_SCALE=1`). Binaries that sweep a variable
    /// of their own size the sweep from it.
    pub full: bool,
    /// Number of jobs per group.
    pub group_size: usize,
    /// Sampling budget per optimizer run.
    pub budget: usize,
    /// Workload / search seed.
    pub seed: u64,
    /// Worker threads for batch fitness evaluation (`MAGMA_THREADS`,
    /// default: available parallelism). Purely a wall-clock knob — results
    /// are identical at every thread count.
    pub threads: usize,
}

impl Scale {
    /// Reads the scale from the environment (see [`Scale::parse`]). An
    /// unparsable `MAGMA_GROUP_SIZE` / `MAGMA_BUDGET` / `MAGMA_SEED` exits
    /// with status 2, naming the variable.
    pub fn from_env() -> Self {
        let threads = magma::platform::settings::magma_threads();
        Scale::parse(threads, |name| std::env::var(name).ok()).unwrap_or_else(|e| exit_usage(&e))
    }

    /// Pure core of [`Scale::from_env`] over a variable lookup: paper scale
    /// when `MAGMA_FULL_SCALE=1`, reduced scale otherwise, with per-knob
    /// overrides via `MAGMA_GROUP_SIZE` / `MAGMA_BUDGET` / `MAGMA_SEED`. A
    /// set but unparsable override is an error, never a silent default.
    pub fn parse(threads: usize, var: impl Fn(&str) -> Option<String>) -> Result<Self, String> {
        let full = var("MAGMA_FULL_SCALE").is_some_and(|v| v == "1");
        let (group_size, budget) = if full { (100, 10_000) } else { (30, 1_000) };
        let knob = |name: &str, default: u64| -> Result<u64, String> {
            match var(name) {
                None => Ok(default),
                Some(v) => v.trim().parse().map_err(|_| {
                    format!("{name}={v:?} is not a non-negative integer; unset it or fix the value")
                }),
            }
        };
        Ok(Scale {
            full,
            group_size: knob("MAGMA_GROUP_SIZE", group_size)? as usize,
            budget: knob("MAGMA_BUDGET", budget)? as usize,
            seed: knob("MAGMA_SEED", 0)?,
            threads,
        })
    }
}

/// Prints `message` and exits with the usage-error status 2.
fn exit_usage(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

/// A value flag a serving binary may accept besides `--smoke` and
/// `--scenario`. Each binary lists the flags it uses; any other is an error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flag {
    /// `--requests N`: the trace length (`serve_sim`, `loadgen`).
    Requests,
    /// `--addr A`: the daemon's listen / dial address (`magma_server`,
    /// `loadgen`).
    Addr,
    /// `--cache-path P`: per-shard cache persistence at `P.shard<i>`
    /// (`magma_server`).
    CachePath,
}

impl Flag {
    /// The flag as typed, with its value placeholder.
    fn usage(self) -> &'static str {
        match self {
            Flag::Requests => "--requests <n>",
            Flag::Addr => "--addr <host:port>",
            Flag::CachePath => "--cache-path <file>",
        }
    }
}

/// The parsed command line shared by the serving binaries (`serve_sim`,
/// `fleet_sim`, `cache_sweep`, `magma_server`, `loadgen`). Together with the
/// smoke/full knob preset and the scenario file it is the whole run
/// configuration.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServingCli {
    /// CI scale requested (`--smoke`).
    pub smoke: bool,
    /// Registry scenario file to run instead of the builtin ladder
    /// (`--scenario <file>`).
    pub scenario: Option<PathBuf>,
    /// `--requests <n>`: replaces the preset's trace length. A scenario
    /// file that pins `traffic.requests` keeps its own.
    pub requests: Option<usize>,
    /// `--addr <host:port>`: replaces the preset's daemon address.
    pub addr: Option<String>,
    /// `--cache-path <file>`: enables per-shard cache persistence.
    pub cache_path: Option<String>,
}

/// Pure parser behind [`serving_cli`]: accepts `--smoke`, `--scenario` and
/// the value flags in `accepts`, each as `--flag value` or `--flag=value`.
/// **Any other argument is a hard error**, as is a missing value, a
/// non-numeric or zero `--requests`, or a known flag this binary does not
/// accept.
pub fn parse_serving_args<I>(args: I, accepts: &[Flag]) -> Result<ServingCli, String>
where
    I: IntoIterator<Item = String>,
{
    let mut expected = vec!["--smoke", "--scenario <file>"];
    expected.extend(accepts.iter().map(|f| f.usage()));
    let expected = expected.join(", ");
    let mut cli = ServingCli::default();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if arg == "--smoke" {
            cli.smoke = true;
            continue;
        }
        let (name, inline) = match arg.split_once('=') {
            Some((name, value)) => (name, Some(value.to_string())),
            None => (arg.as_str(), None),
        };
        let flag = match name {
            "--scenario" => None,
            "--requests" => Some(Flag::Requests),
            "--addr" => Some(Flag::Addr),
            "--cache-path" => Some(Flag::CachePath),
            _ => return Err(format!("unknown argument {arg:?} (expected {expected})")),
        };
        if flag.is_some_and(|f| !accepts.contains(&f)) {
            return Err(format!("{name} is not accepted by this binary (expected {expected})"));
        }
        let usage = flag.map_or("--scenario <file>", Flag::usage);
        let value = inline
            .or_else(|| args.next())
            .filter(|v| !v.is_empty() && !v.starts_with("--"))
            .ok_or_else(|| format!("{name} requires a value ({usage})"))?;
        match flag {
            None => cli.scenario = Some(PathBuf::from(value)),
            Some(Flag::Requests) => match value.parse() {
                Ok(n) if n > 0 => cli.requests = Some(n),
                _ => return Err(format!("{usage} needs a positive integer, got {value:?}")),
            },
            Some(Flag::Addr) => cli.addr = Some(value),
            Some(Flag::CachePath) => cli.cache_path = Some(value),
        }
    }
    Ok(cli)
}

/// The environment knob families the serving binaries no longer read.
const REMOVED_FAMILIES: [(&str, &str); 3] = [
    ("MAGMA_SERVE_", "ServeKnobs"),
    ("MAGMA_FLEET_", "FleetKnobs"),
    ("MAGMA_SERVER_", "ServerKnobs"),
];

/// Removed knobs replaced by a flag or a scenario-file field; every other
/// knob of the families above is replaced by the preset.
const REMOVED_KNOBS: [(&str, &str); 13] = [
    ("MAGMA_SERVE_REQUESTS", "--requests <n> (serve_sim) or the scenario file's traffic.requests"),
    ("MAGMA_SERVE_LOAD", "the scenario file's traffic.offered_load"),
    ("MAGMA_SERVE_SEED", "the scenario file's traffic.seed"),
    ("MAGMA_SERVE_CACHE_EPSILON", "the scenario file's serving.cache_epsilon"),
    ("MAGMA_SERVE_REFINE_BUDGET", "the scenario file's serving.refine_budget"),
    ("MAGMA_SERVE_QUANT", "the scenario file's serving.quant_step"),
    ("MAGMA_SERVE_SLA_X", "the scenario file's serving.sla_x"),
    ("MAGMA_SERVE_CACHE_PATH", "--cache-path <file> (magma_server)"),
    ("MAGMA_SERVE_OVERLAP", "nothing (both serving modes always run)"),
    ("MAGMA_FLEET_REQUESTS", "the scenario file's traffic.requests"),
    ("MAGMA_FLEET_LOAD", "the scenario file's traffic.offered_load"),
    ("MAGMA_SERVER_REQUESTS", "--requests <n> (loadgen) or the scenario file's traffic.requests"),
    ("MAGMA_SERVER_ADDR", "--addr <host:port>"),
];

/// Pure check behind [`serving_cli`]: an error naming every removed
/// `MAGMA_SERVE_*` / `MAGMA_FLEET_*` / `MAGMA_SERVER_*` variable among
/// `names` and what replaced it, so a stale or misspelled knob can never be
/// silently ignored. Process-level variables (`MAGMA_THREADS`,
/// `MAGMA_BENCH_DIR`, `MAGMA_SCENARIO_DIR`, …) pass.
pub fn refuse_removed_knobs<I>(names: I) -> Result<(), String>
where
    I: IntoIterator<Item = String>,
{
    let mut refused: Vec<String> = names
        .into_iter()
        .filter_map(|name| {
            let (_, knobs) = REMOVED_FAMILIES.iter().find(|(p, _)| name.starts_with(p))?;
            let replacement = match REMOVED_KNOBS.iter().find(|(k, _)| *k == name) {
                Some((_, r)) => r.to_string(),
                None if name.ends_with("_MODE") => "--smoke".to_string(),
                None => format!("the --smoke / full preset (library callers set {knobs} fields)"),
            };
            Some(format!("  {name}: replaced by {replacement}"))
        })
        .collect();
    if refused.is_empty() {
        return Ok(());
    }
    refused.sort();
    Err(format!(
        "the serving binaries no longer read MAGMA_SERVE_* / MAGMA_FLEET_* / MAGMA_SERVER_* \
         knobs; unset these:\n{}",
        refused.join("\n")
    ))
}

/// Reads a serving binary's run configuration: refuses removed environment
/// knobs ([`refuse_removed_knobs`]), then parses the arguments against the
/// binary's accepted flags ([`parse_serving_args`]). Either failure exits
/// with status 2 and an actionable message.
pub fn serving_cli(accepts: &[Flag]) -> ServingCli {
    let env = std::env::vars_os().map(|(name, _)| name.to_string_lossy().into_owned());
    refuse_removed_knobs(env)
        .and_then(|()| parse_serving_args(std::env::args().skip(1), accepts))
        .unwrap_or_else(|e| exit_usage(&e))
}

/// Resolves a `--scenario` path against the registry
/// (`MAGMA_SCENARIO_DIR`, default `scenarios/`), exiting with the
/// registry's actionable error on any rejection.
pub fn resolve_scenario_or_exit(path: &std::path::Path) -> magma_registry::ResolvedScenario {
    magma_registry::resolve_scenario_file(path).unwrap_or_else(|e| exit_usage(&e.to_string()))
}

/// Prints a banner naming the experiment and the scale it runs at.
pub fn banner(title: &str, scale: &Scale) {
    println!("==============================================================");
    println!("{title}");
    println!(
        "group size {}, budget {} samples, seed {}, {} eval thread(s) \
         (set MAGMA_FULL_SCALE=1 for paper scale, MAGMA_THREADS=n for the pool size)",
        scale.group_size, scale.budget, scale.seed, scale.threads
    );
    println!("==============================================================");
}

/// Prints a normalized-throughput table in the layout of the paper's bar
/// charts (one row per mapper).
pub fn print_scores(label: &str, scores: &[MethodScore]) {
    println!("\n[{label}]");
    println!("{:<22} {:>14} {:>12}", "mapper", "GFLOP/s", "norm (MAGMA=1)");
    for s in scores {
        println!("{:<22} {:>14.2} {:>12.3}", s.method, s.gflops, s.normalized);
    }
}

/// Writes any serializable result next to the printed table as JSON so the
/// numbers can be post-processed/plotted. Files land in
/// `target/experiment-results/`.
pub fn dump_json<T: Serialize>(name: &str, value: &T) {
    let dir = PathBuf::from("target/experiment-results");
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(s) => {
            if std::fs::write(&path, s).is_ok() {
                println!("\n(raw data written to {})", path.display());
            }
        }
        Err(e) => eprintln!("could not serialize {name}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduced_scale_defaults_are_modest() {
        // The default (no env override) must stay laptop-friendly.
        let s = Scale::parse(1, |_| None).unwrap();
        assert_eq!(s, Scale { full: false, group_size: 30, budget: 1_000, seed: 0, threads: 1 });
        assert!(Scale::from_env().threads >= 1);
    }

    #[test]
    fn scale_knobs_parse_strictly() {
        let env = |pairs: &'static [(&'static str, &'static str)]| {
            move |name: &str| pairs.iter().find(|(k, _)| *k == name).map(|(_, v)| v.to_string())
        };
        let full = Scale::parse(2, env(&[("MAGMA_FULL_SCALE", "1")])).unwrap();
        assert!(full.full && full.group_size == 100 && full.budget == 10_000);
        let over = Scale::parse(2, env(&[("MAGMA_GROUP_SIZE", " 8 "), ("MAGMA_SEED", "5")]));
        assert_eq!(
            over.unwrap(),
            Scale { full: false, group_size: 8, budget: 1_000, seed: 5, threads: 2 }
        );
        // A typo'd value is an error naming the variable, never a default.
        for (name, bad) in [
            ("MAGMA_GROUP_SIZE", "8x"),
            ("MAGMA_BUDGET", "1e3"),
            ("MAGMA_SEED", "-1"),
            ("MAGMA_BUDGET", ""),
        ] {
            let err = Scale::parse(1, |n| (n == name).then(|| bad.to_string())).unwrap_err();
            assert!(err.contains(name), "{err}");
        }
    }

    const ALL: &[Flag] = &[Flag::Requests, Flag::Addr, Flag::CachePath];

    fn to_args(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn serving_cli_accepts_the_shared_flags() {
        let parse = |s: &[&str]| parse_serving_args(to_args(s), ALL).unwrap();
        assert_eq!(parse(&[]), ServingCli::default());
        assert_eq!(parse_serving_args(to_args(&[]), &[]).unwrap(), ServingCli::default());
        let cli = parse(&["--smoke"]);
        assert!(cli.smoke && cli.scenario.is_none());
        let cli = parse(&["--scenario", "a/b.json", "--smoke"]);
        assert!(cli.smoke);
        assert_eq!(cli.scenario.as_deref(), Some(std::path::Path::new("a/b.json")));
        let cli = parse(&["--scenario=c.json"]);
        assert_eq!(cli.scenario.as_deref(), Some(std::path::Path::new("c.json")));
        // The value flags, in both the `--x v` and `--x=v` forms.
        for args in [
            &["--requests", "24", "--addr", "127.0.0.1:0", "--cache-path", "c/cache.json"][..],
            &["--requests=24", "--addr=127.0.0.1:0", "--cache-path=c/cache.json"][..],
        ] {
            let cli = parse(args);
            assert_eq!(cli.requests, Some(24));
            assert_eq!(cli.addr.as_deref(), Some("127.0.0.1:0"));
            assert_eq!(cli.cache_path.as_deref(), Some("c/cache.json"));
        }
        let cli = parse_serving_args(to_args(&["--requests", "48"]), &[Flag::Requests]).unwrap();
        assert_eq!(cli.requests, Some(48));
    }

    #[test]
    fn serving_cli_rejects_unknown_and_malformed_flags() {
        let err =
            |s: &[&str], accepts: &[Flag]| parse_serving_args(to_args(s), accepts).unwrap_err();
        assert!(err(&["--smokey"], ALL).contains("--smokey"));
        assert!(err(&["extra"], ALL).contains("extra"));
        assert!(err(&["--scenario"], ALL).contains("--scenario <file>"));
        assert!(err(&["--scenario="], ALL).contains("requires a value"));
        // The first bad flag wins even after valid ones.
        assert!(err(&["--smoke", "--verbose"], ALL).contains("--verbose"));
        assert!(err(&["--smoke=1"], ALL).contains("--smoke=1"));
        // A missing value, in either form, or swallowed by the next flag.
        for args in
            [&["--requests"][..], &["--requests="], &["--addr", "--smoke"], &["--cache-path"]]
        {
            assert!(err(args, ALL).contains("requires a value"), "{args:?}");
        }
        // `--requests` is a positive integer.
        for bad in ["many", "-3", "2.5", "0"] {
            assert!(err(&["--requests", bad], ALL).contains("positive integer"), "{bad}");
        }
        // A flag the binary does not use is an error, not ignored.
        assert!(err(&["--addr", "x:1"], &[Flag::Requests]).contains("not accepted"));
        assert!(err(&["--cache-path=c.json"], &[Flag::Addr]).contains("not accepted"));
        assert!(err(&["--requests", "4"], &[]).contains("not accepted"));
        // The usage line lists only what this binary accepts.
        let usage = err(&["--bogus"], &[Flag::Addr]);
        assert!(usage.contains("--addr") && !usage.contains("--requests"), "{usage}");
    }

    #[test]
    fn removed_serving_knobs_are_refused_with_their_replacement() {
        let check = |names: &[&str]| refuse_removed_knobs(to_args(names));
        // Process-level variables and unrelated knobs pass.
        assert!(check(&[
            "MAGMA_THREADS",
            "MAGMA_BENCH_DIR",
            "MAGMA_SCENARIO_DIR",
            "MAGMA_BUDGET",
            "MAGMA_SERVERLESS",
            "PATH"
        ])
        .is_ok());
        for (name, replacement) in [
            ("MAGMA_SERVE_REQUESTS", "--requests"),
            ("MAGMA_SERVER_REQUESTS", "--requests"),
            ("MAGMA_SERVE_CACHE_PATH", "--cache-path"),
            ("MAGMA_SERVER_ADDR", "--addr"),
            ("MAGMA_SERVE_CACHE_EPSILON", "serving.cache_epsilon"),
            ("MAGMA_FLEET_LOAD", "traffic.offered_load"),
            ("MAGMA_SERVE_MODE", "--smoke"),
            ("MAGMA_FLEET_MODE", "--smoke"),
            ("MAGMA_SERVER_MODE", "--smoke"),
            ("MAGMA_SERVE_COLD_BUDGET", "ServeKnobs"),
            ("MAGMA_FLEET_SHARDS", "FleetKnobs"),
            ("MAGMA_SERVER_RATE", "ServerKnobs"),
            // A misspelled knob of a removed family is refused too.
            ("MAGMA_SERVE_REQEUSTS", "preset"),
        ] {
            let err = check(&["MAGMA_THREADS", name]).unwrap_err();
            assert!(err.contains(name) && err.contains(replacement), "{name}: {err}");
        }
        // Every offending variable is named, in a stable order.
        let err = check(&["MAGMA_SERVER_ADDR", "MAGMA_FLEET_SHARDS"]).unwrap_err();
        assert!(err.find("MAGMA_FLEET_SHARDS").unwrap() < err.find("MAGMA_SERVER_ADDR").unwrap());
    }

    #[test]
    fn print_scores_does_not_panic() {
        print_scores(
            "test",
            &[MethodScore { method: "MAGMA".into(), gflops: 10.0, normalized: 1.0 }],
        );
    }
}
