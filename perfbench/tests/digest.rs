//! Every workload at a tiny length: the modelled statistics (the digest)
//! must not depend on the worker count or on tracing, and every
//! correctness check must pass.

use std::process::Command;

fn run(workload: &str, workers: usize, trace: bool) -> (String, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    for (k, _) in std::env::vars().filter(|(k, _)| k.starts_with("MAGMA_")) {
        cmd.env_remove(k);
    }
    let out = cmd
        .env("MAGMA_THREADS", workers.to_string())
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1", "--tiny"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "{workload} exited with {}: {stdout}", out.status);
    let digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix("digest "))
        .unwrap_or_else(|| panic!("{workload}: no digest line in {stdout}"))
        .to_string();
    let last = stdout.lines().last().expect("a result line").to_string();
    (digest, last)
}

fn check(workload: &str) {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get()).min(2);
    let (serial, serial_json) = run(workload, 1, false);
    let (parallel, parallel_json) = run(workload, workers, false);
    let (traced, traced_json) = run(workload, workers, true);
    for json in [&serial_json, &parallel_json, &traced_json] {
        assert!(json.starts_with("{\"correct\": true,"), "{workload}: {json}");
        assert!(json.contains("\"failed\": 0,"), "{workload}: {json}");
    }
    assert_eq!(serial, parallel, "{workload}: 1 vs {workers} workers");
    assert_eq!(parallel, traced, "{workload}: untraced vs traced");
}

#[test]
fn offline_map_digest_is_stable() {
    check("offline-map");
}

#[test]
fn fleet_mix_digest_is_stable() {
    check("fleet-mix");
}

#[test]
fn fleet_repeat_digest_is_stable() {
    check("fleet-repeat");
}

#[test]
fn rpc_ladder_digest_is_stable() {
    check("rpc-ladder");
}

#[test]
fn stray_knobs_are_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .env("MAGMA_SERVE_REQUESTS", "7")
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .args(["--workload", "offline-map", "--seed", "1", "--seconds", "1", "--trace", "0"])
        .output()
        .expect("the benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no result may be printed");
}
