//! The wall-clock benchmark of record for the MAGMA workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <offline-map|fleet-mix|fleet-repeat|rpc-ladder> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a human-readable block, then as its last line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. See
//! `perfbench/README.md` for what each workload and metric measures.

mod fleet;
mod offline;
mod report;
mod rpc;
mod span;
mod util;

use report::{Report, LAYERS};
use std::process::ExitCode;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// The seed held out from tuning; claims are checked on it.
pub const HELD_OUT_SEED: u64 = 7_919;

const WORKLOADS: [&str; 4] = ["offline-map", "fleet-mix", "fleet-repeat", "rpc-ladder"];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// A tiny run (seconds ignored) for the benchmark's own tests.
    pub tiny: bool,
    /// Batch-evaluation workers, as set through `MAGMA_THREADS`.
    pub workers: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        tiny: false,
        workers: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            args.tiny = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| format!("bad --seconds {value}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(format!("--seconds {value} out of range (0, 600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(args)
}

/// Run hygiene: any `MAGMA_*` knob other than `MAGMA_THREADS` would silently
/// change the workload, so the benchmark refuses to run under one; the
/// worker count is set only through `MAGMA_THREADS`, at most `nproc`
/// (default `min(2, nproc)`).
fn hygiene() -> Result<usize, String> {
    let stray: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("MAGMA_") && k != "MAGMA_THREADS")
        .collect();
    if !stray.is_empty() {
        return Err(format!("refusing to run with {stray:?} set: they change the workload"));
    }
    let nproc = util::nproc();
    let workers = match std::env::var("MAGMA_THREADS") {
        Ok(v) => v.trim().parse::<usize>().map_err(|_| format!("bad MAGMA_THREADS {v:?}"))?,
        Err(_) => nproc.min(2),
    };
    if workers == 0 || workers > nproc {
        return Err(format!("MAGMA_THREADS={workers} must lie in 1..={nproc}"));
    }
    // Set before any thread exists: the pool reads it on every batch.
    std::env::set_var("MAGMA_THREADS", workers.to_string());
    Ok(workers)
}

fn main() -> ExitCode {
    let workers = match hygiene() {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    args.workers = workers;
    println!(
        "perfbench {} seed {} seconds {} trace {} | host nproc {} {} {} | commit {} | workers {} | held-out seed {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        util::nproc(),
        std::env::consts::OS,
        std::env::consts::ARCH,
        util::commit(),
        workers,
        HELD_OUT_SEED
    );

    let mut report: Report = match args.workload.as_str() {
        "offline-map" => offline::run(&args),
        "fleet-mix" => fleet::run(fleet::Kind::Mix, &args),
        "fleet-repeat" => fleet::run(fleet::Kind::Repeat, &args),
        "rpc-ladder" => rpc::run(&args),
        _ => unreachable!("validated by parse_args"),
    };
    let rss = util::peak_rss_mb();

    for note in &report.notes {
        println!("  {note}");
    }
    let failed = report.failed_ops + report.check_failures.len() as u64;
    let attempted = report.attempted.max(1);
    println!("end-to-end ({}):", if args.trace { "traced run" } else { "untraced run" });
    let e2e = [
        ("setup_s", report.setup_s, "s"),
        ("peak_rss_mb", rss, "MB"),
        ("ops_per_s", report.ops_per_s, "1/s"),
        ("p50_ms", report.p50_ms, "ms"),
        ("tail_ms", report.tail_ms, "ms"),
    ];
    for (name, value, unit) in &e2e {
        println!("  {name:<28} {value:>16.6} {unit}");
    }
    for (name, value, unit) in &report.named {
        println!("  {name:<28} {value:>16.6} {unit}");
    }
    println!(
        "  {:<28} {:>16.6} ratio ({failed} of {attempted})",
        "fail_share",
        failed as f64 / attempted as f64
    );
    println!("digest {:016x}", report.digest);
    for f in &report.check_failures {
        println!("CHECK FAILED: {f}");
    }

    let mut non_finite = Vec::new();
    let mut json = |name: &str, value: f64, unit: &str| {
        if !value.is_finite() {
            non_finite.push(name.to_string());
        }
        let value = if value.is_finite() { value } else { 0.0 };
        format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
    };
    let metrics: Vec<String> = if args.trace {
        if let Some(&traced) = report.layers.get("bench.traced_ops_per_s") {
            println!(
                "tracing overhead: ops_per_s {:.1} untraced vs {traced:.1} traced ({:+.1}%)",
                report.ops_per_s,
                (report.ops_per_s / traced - 1.0) * 100.0
            );
        }
        println!("per-layer (traced run; 0 = not attributed on this workload):");
        LAYERS
            .iter()
            .map(|(name, unit, method)| {
                let value = report.layers.get(name).copied();
                println!(
                    "  {name:<30} {:>16.6} {unit:<6} {}",
                    value.unwrap_or(0.0),
                    if value.is_some() { method } else { &"not attributed on this workload" }
                );
                json(name, value.unwrap_or(0.0), unit)
            })
            .collect()
    } else {
        e2e.iter().map(|(name, value, unit)| json(name, *value, unit)).collect()
    };
    if let Some(rec) = report.spans.take() {
        let path = std::path::Path::new(".perfbench")
            .join(format!("spans-{}-{}.csv", args.workload, args.seed));
        if let Err(e) = rec.write(&path) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
    }
    for name in &non_finite {
        println!("CHECK FAILED: metric {name} is not a finite number");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.check_failures.is_empty() && non_finite.is_empty(),
        failed + non_finite.len() as u64,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
