//! What one workload run hands back to `main`, and the per-layer catalogue.

use std::collections::BTreeMap;

/// Every per-layer metric, with its unit and how it is attributed. A
/// workload reports the layers it attributes; the others print as 0 with
/// the method `not attributed on this workload`.
pub const LAYERS: &[(&str, &str, &str)] = &[
    ("m3e.encoding.decode_us", "us", "timed Mapping::decode on sampled mappings of the traced searches"),
    ("m3e.bw_alloc.replay_us", "us", "timed BwAllocator::allocate_with_memo on the same decoded mappings"),
    ("m3e.evaluator.fitness_us", "us", "span self time of each evaluation through a forwarding MappingProblem"),
    ("m3e.evaluator.schedule_us", "us", "timed M3e::schedule on the same mappings"),
    ("m3e.analyzer.build_us", "us", "timed M3e::new per group (Job Analyzer table build)"),
    ("m3e.warmstart.adapt_us", "us", "timed WarmStartEngine::adapt_matched between consecutive groups"),
    ("optim.session.step_us", "us", "span duration of each SessionState::step"),
    ("optim.session.self_us", "us", "step span minus the union of its evaluation spans (breeding)"),
    ("optim.pool.batch_evals", "count", "evaluations per pool batch (pool::stats batches)"),
    ("optim.pool.efficiency", "ratio", "evaluation busy time / (batch span x workers)"),
    ("optim.pool.wait_us", "us", "batch span covered by no evaluation span, per batch"),
    ("optim.pool.builds", "count", "pool::stats().builds at exit"),
    ("serve.cache.probe_us", "us", "timed MappingCache::lookup_near at the workload's capacity and epsilon"),
    ("serve.cache.insert_us", "us", "timed MappingCache::insert at the workload's capacity"),
    ("serve.cache.hit_ratio", "ratio", "shard-cache hits / probes"),
    ("serve.cache.near_ratio", "ratio", "near-key hits / probes"),
    ("serve.cache.evictions", "count", "shard-cache evictions"),
    ("serve.cache.shared_hit_ratio", "ratio", "shared-tier hits / shared-tier probes"),
    ("serve.dispatch.cold_samples", "count", "samples spent by cold searches"),
    ("serve.dispatch.hit_samples", "count", "samples spent by cache-hit refinements"),
    ("serve.dispatch.hit_cold_ratio", "ratio", "mean hit GFLOP/s / mean cold GFLOP/s"),
    ("serve.scheduler.preempted", "count", "sessions early-finished (deadline + value)"),
    ("serve.scheduler.late", "count", "sessions admitted past their deadline"),
    ("serve.scheduler.clamped", "count", "steps clamped to the slice floor"),
    ("serve.router.affinity_ratio", "ratio", "affinity placements / placements"),
    ("serve.batcher.group_size_mean", "count", "requests / admitted sessions"),
    ("serve.batcher.queue_p50_ms", "ms", "median modelled queueing delay"),
    ("serve.fleet.residual_s", "s", "fleet wall time minus count x unit cost of every attributed layer"),
    ("serve.trace.generate_ms", "ms", "timed generate_trace at the workload's parameters"),
    ("serve.engine.submit_us", "us", "timed ServeEngine::submit replaying the busy rung with synthetic time"),
    ("serve.engine.poll_us", "us", "timed ServeEngine::poll in the same replay"),
    ("serve.engine.poll_calls", "count", "ServeEngine::poll calls in the same replay"),
    ("server.proto.encode_us", "us", "timed proto::encode of the busy rung's submits"),
    ("server.proto.decode_us", "us", "timed proto::decode of the same payloads"),
    ("server.frame.roundtrip_us", "us", "timed write_frame + read_frame through memory"),
    ("server.client.submit_us", "us", "timed Client::submit during the live busy rung"),
    ("server.rpc.ack_ms_p50", "ms", "send to accepted, busy rung, median"),
    ("server.rpc.ack_ms_p99", "ms", "send to accepted, busy rung, p99"),
    ("server.daemon.busy", "count", "submits refused busy, all rungs"),
    ("server.daemon.timed_out", "count", "submits done past the session timeout, all rungs"),
    ("bench.gen_late_ms_p99", "ms", "how late the generator sent, p99 over all rungs"),
    ("bench.traced_ops_per_s", "1/s", "ops_per_s with spans on (offline-map: its traced repetitions; elsewhere spans stay outside the timed loop)"),
];

/// The result of one workload run.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (searches, simulated requests, submits).
    pub attempted: u64,
    /// Operations that failed, were refused, timed out or were dropped.
    pub failed_ops: u64,
    /// Correctness checks that failed, each with its reason.
    pub check_failures: Vec<String>,
    /// Median set-up time, seconds.
    pub setup_s: f64,
    /// The workload's throughput (see the README for its meaning per
    /// workload).
    pub ops_per_s: f64,
    /// The workload's median latency, milliseconds.
    pub p50_ms: f64,
    /// Its tail latency: the highest percentile with at least ten samples
    /// beyond it (p99 on the fleet and RPC workloads, p90 on offline-map).
    pub tail_ms: f64,
    /// The workload's own named end-to-end metrics: `(name, value, unit)`.
    pub named: Vec<(String, f64, &'static str)>,
    /// Per-layer values by catalogue name (trace runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Digest of every modelled statistic.
    pub digest: u64,
    /// Free-form lines printed before the result.
    pub notes: Vec<String>,
    /// Spans of a traced run, written at exit.
    pub spans: Option<crate::span::Recorder>,
}

impl Report {
    /// Records a correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    pub fn named(&mut self, name: &str, value: f64, unit: &'static str) {
        self.named.push((name.to_string(), value, unit));
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(LAYERS.iter().any(|l| l.0 == name), "unknown layer metric {name}");
        self.layers.insert(name, value);
    }
}
