//! `rpc-ladder`: an open loop against an in-process `magma-server` daemon.
//!
//! Poisson submits go out at a fixed ladder of rates, each rung on a fresh
//! daemon (shipped `ServerKnobs::full()` policy, ephemeral port) ended by a
//! `drain`. Every request is timed from its *due* time, not from when it was
//! actually sent, so a stalled generator shows up as latency; how late the
//! generator ran is reported on its own. Refused, errored, timed-out and
//! dropped submits miss every latency limit.

use crate::report::Report;
use crate::util::{median, percentile, secs, Digest};
use crate::Args;
use magma_model::TenantMix;
use magma_platform::settings::ServerKnobs;
use magma_serve::trace::{generate_trace, Scenario, TraceParams};
use magma_serve::{Admission, Arrival, EngineConfig, EngineStats, ServeEngine};
use magma_server::frame::{read_frame, write_frame};
use magma_server::proto::{decode, encode};
use magma_server::{Client, Event, RequestMsg, Server};
use std::collections::HashMap;
use std::io;
use std::time::{Duration, Instant};

/// `(offered submits/s, share of --seconds spent sending)`. Light sits well
/// below the knee, busy at about two thirds of it, the top rung above it.
/// On a shared 2-vCPU host the knee moves between about 700 and 1200
/// submits/s with the CPU time other tenants steal, so no rung sits between
/// busy and the top: a rung at 800 or 900 passed on some runs and failed on
/// others, and `rpc.max_rate` flipped between rungs.
const RUNGS: [(f64, f64); 3] = [(250.0, 0.4), (600.0, 0.3), (1500.0, 0.3)];
const LIGHT: usize = 0;
const BUSY: usize = 1;
/// The latency limit on p99 for `rpc.max_rate`.
const P99_LIMIT_MS: f64 = 1_000.0;
/// Completions must keep up with this share of the offered rate.
const KEEP_UP: f64 = 0.95;
/// Reported latencies are capped here (a percentile that lands on a
/// failed request is infinite).
const CAP_MS: f64 = 60_000.0;
/// The daemon's engine poll tick, reused for the synthetic-time replay.
const TICK_SEC: f64 = 0.002;

#[derive(Clone, Copy, PartialEq)]
enum Terminal {
    Pending,
    Done { timed_out: bool },
    Busy,
    Errored,
    Cancelled,
}

struct Track {
    due: Instant,
    sent: Instant,
    accepted: Option<Instant>,
    done: Option<Instant>,
    terminal: Terminal,
}

#[derive(Default)]
struct Rung {
    rate: f64,
    sent: usize,
    accepted: usize,
    busy: usize,
    errored: usize,
    completed: usize,
    timed_out: usize,
    dropped: usize,
    /// From due time; failures are infinite.
    latency_ms: Vec<f64>,
    late_ms: Vec<f64>,
    ack_ms: Vec<f64>,
    submit_us: Vec<f64>,
    keep_up: f64,
    setup_s: f64,
    drained_jobs: usize,
    server: EngineStats,
    problems: Vec<String>,
}

impl Rung {
    fn failures(&self) -> usize {
        self.busy + self.errored + self.timed_out + self.dropped
    }

    fn p(&self, q: f64) -> f64 {
        percentile(&self.latency_ms, q).min(CAP_MS)
    }

    fn passes(&self) -> bool {
        self.failures() == 0 && self.p(0.99) <= P99_LIMIT_MS && self.keep_up >= KEEP_UP
    }
}

fn trace_for(rate: f64, secs_sending: f64, seed: u64, mix: &TenantMix) -> Vec<Arrival> {
    generate_trace(
        &TraceParams {
            scenario: Scenario::Poisson,
            requests: ((rate * secs_sending).round() as usize).max(1),
            mean_interarrival_sec: 1.0 / rate,
            mini_batch: magma_model::workload::DEFAULT_MINI_BATCH,
            seed,
        },
        mix,
    )
}

/// The shipped full-scale server defaults, told the rung's offered rate
/// (which sizes the admission batcher's deadline) and the workload seed.
fn knobs_at(rate: f64) -> ServerKnobs {
    ServerKnobs { rate, ..ServerKnobs::full() }
}

fn engine_config(knobs: &ServerKnobs, seed: u64) -> EngineConfig {
    let mut config = EngineConfig::from_knobs(knobs);
    config.seed = seed;
    config.cache_path = None;
    config
}

fn on_event(
    event: Event,
    tracks: &mut HashMap<u64, Track>,
    drained: &mut Option<(usize, Option<EngineStats>)>,
) {
    let now = Instant::now();
    let id = match &event {
        Event::Accepted { id }
        | Event::Busy { id, .. }
        | Event::Error { id, .. }
        | Event::Cancelled { id }
        | Event::Done { id, .. } => *id,
        Event::Drained { jobs, stats, .. } => {
            *drained = Some((*jobs, *stats));
            return;
        }
        Event::Stats { .. } => return,
    };
    let Some(t) = tracks.get_mut(&id) else { return };
    match event {
        Event::Accepted { .. } => t.accepted = Some(now),
        Event::Busy { .. } => t.terminal = Terminal::Busy,
        Event::Error { .. } => t.terminal = Terminal::Errored,
        Event::Cancelled { .. } => t.terminal = Terminal::Cancelled,
        Event::Done { timed_out, .. } => {
            t.done = Some(now);
            t.terminal = Terminal::Done { timed_out };
        }
        Event::Drained { .. } | Event::Stats { .. } => unreachable!("returned above"),
    }
}

/// Runs one rung on a fresh daemon.
fn run_rung(rate: f64, sending_sec: f64, seed: u64, timed_calls: bool) -> io::Result<Rung> {
    let mut rung = Rung { rate, ..Rung::default() };
    let t = Instant::now();
    let knobs = knobs_at(rate);
    let mix = TenantMix::synthetic(knobs.fleet.tenants, crate::fleet::REFERENCE_SEED);
    let trace = trace_for(rate, sending_sec, seed, &mix);
    let server =
        Server::start("127.0.0.1:0", knobs.max_frame_bytes, engine_config(&knobs, seed), mix)?;
    let mut client = Client::connect(&server.addr().to_string(), knobs.max_frame_bytes)?;
    rung.setup_s = secs(t);

    let mut tracks: HashMap<u64, Track> = HashMap::with_capacity(trace.len());
    let mut drained = None;
    let start = Instant::now();
    for a in &trace {
        let due = start + Duration::from_secs_f64(a.time_sec);
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            if let Some(e) = client.poll_event((due - now).min(Duration::from_millis(2)))? {
                on_event(e, &mut tracks, &mut drained);
            }
        }
        let sent = Instant::now();
        let id = client.submit(a.tenant, vec![a.job.clone()])?;
        if timed_calls {
            rung.submit_us.push(secs(sent) * 1e6);
        }
        rung.late_ms.push((sent - due).as_secs_f64() * 1e3);
        tracks.insert(
            id,
            Track { due, sent, accepted: None, done: None, terminal: Terminal::Pending },
        );
    }
    rung.sent = trace.len();

    // Stragglers, bounded; then drain (which finishes whatever is left).
    let wait_until = Instant::now() + Duration::from_secs_f64((2.0 * sending_sec).max(5.0));
    while client.outstanding() > 0 && Instant::now() < wait_until {
        if let Some(e) = client.poll_event(Duration::from_millis(10))? {
            on_event(e, &mut tracks, &mut drained);
        }
    }
    client.drain()?;
    let drain_until = Instant::now() + Duration::from_secs(60);
    while drained.is_none() && Instant::now() < drain_until {
        if let Some(e) = client.poll_event(Duration::from_millis(10))? {
            on_event(e, &mut tracks, &mut drained);
        }
    }
    let Some((jobs, stats)) = drained else {
        return Err(io::Error::new(
            io::ErrorKind::TimedOut,
            "the daemon never acknowledged the drain",
        ));
    };
    drop(client);
    let joined = server.join();
    rung.drained_jobs = jobs;
    rung.server = stats.unwrap_or(joined);

    // Tally against due times.
    let half_due = 0.5 * trace.last().map_or(0.0, |a| a.time_sec);
    let (mut first_half, mut second_half) = (Vec::new(), Vec::new());
    for t in tracks.values() {
        if let Some(done) = t.done {
            let latency = (done - t.due).as_secs_f64();
            if (t.due - start).as_secs_f64() < half_due {
                first_half.push(latency);
            } else {
                second_half.push(latency);
            }
        }
        let ok = match t.terminal {
            Terminal::Busy => {
                rung.busy += 1;
                false
            }
            Terminal::Errored | Terminal::Cancelled => {
                rung.errored += 1;
                false
            }
            Terminal::Pending => {
                rung.accepted += 1;
                rung.dropped += 1;
                false
            }
            Terminal::Done { timed_out } => {
                rung.accepted += 1;
                rung.completed += 1;
                rung.timed_out += usize::from(timed_out);
                !timed_out
            }
        };
        if let Some(acc) = t.accepted {
            if timed_calls {
                rung.ack_ms.push((acc - t.sent).as_secs_f64() * 1e3);
            }
        }
        rung.latency_ms.push(match (ok, t.done) {
            (true, Some(done)) => (done - t.due).as_secs_f64() * 1e3,
            _ => f64::INFINITY,
        });
    }
    // Keep-up: completions per offered submit. A backlog that grows by `g`
    // seconds per second of sending stretches completions by `1 + g`, so
    // keep-up is `1 / (1 + g)`, with `g` the rise of the median latency
    // from the first to the second half of the rung (half the rung apart).
    // Flat latency keeps it at 1; medians of whole halves are robust to the
    // bursts in which groups complete.
    let growth = (median(&second_half) - median(&first_half)) / half_due.max(1e-9);
    rung.keep_up = if first_half.is_empty() || second_half.is_empty() {
        0.0
    } else {
        1.0 / (1.0 + growth.max(-0.5))
    };

    // The drain guarantees.
    if rung.dropped != 0 {
        rung.problems.push(format!("{} accepted submits never reached a terminal", rung.dropped));
    }
    if rung.drained_jobs != rung.accepted {
        rung.problems.push(format!(
            "drain reported {} jobs for {} accepted submits",
            rung.drained_jobs, rung.accepted
        ));
    }
    if rung.server.accepted != rung.accepted as u64 {
        rung.problems.push(format!(
            "daemon accepted {} submits, the client saw {}",
            rung.server.accepted, rung.accepted
        ));
    }
    Ok(rung)
}

/// Replays a trace through `ServeEngine` with synthetic time and no socket:
/// the deterministic half of the workload (its digest) and the engine's
/// per-call costs. Returns `(digest, submit us, poll us, poll calls, stats)`.
fn replay(trace: &[Arrival], rate: f64, seed: u64) -> (u64, f64, f64, usize, EngineStats) {
    let knobs = knobs_at(rate);
    let mix = TenantMix::synthetic(knobs.fleet.tenants, crate::fleet::REFERENCE_SEED);
    let mut engine = ServeEngine::new(engine_config(&knobs, seed), mix);
    let mut digest = Digest::new();
    let (mut submit_ns, mut poll_ns, mut polls) = (0u128, 0u128, 0usize);
    let mut done = 0usize;
    let mut accepted = 0usize;
    let mut now = 0.0f64;
    let mut poll = |engine: &mut ServeEngine, now: f64, digest: &mut Digest, done: &mut usize| {
        let t = Instant::now();
        let out = engine.poll(now);
        poll_ns += t.elapsed().as_nanos();
        polls += 1;
        *done += out.len();
        for c in out {
            digest.feed(&format!("{c:?};"));
        }
    };
    for (i, a) in trace.iter().enumerate() {
        while now + TICK_SEC <= a.time_sec {
            now += TICK_SEC;
            poll(&mut engine, now, &mut digest, &mut done);
        }
        let t = Instant::now();
        let verdict = engine.submit(a.time_sec, i as u64 + 1, a.tenant, vec![a.job.clone()]);
        submit_ns += t.elapsed().as_nanos();
        accepted += usize::from(verdict == Admission::Accepted);
        digest.feed(&format!("{verdict:?};"));
    }
    // Keep ticking until the engine has caught up, as the daemon would.
    let mut idle_ticks = 0;
    while done < accepted && idle_ticks < 100_000 {
        now += TICK_SEC;
        let before = done;
        poll(&mut engine, now, &mut digest, &mut done);
        idle_ticks = if done == before { idle_ticks + 1 } else { 0 };
    }
    for c in engine.drain(now) {
        digest.feed(&format!("{c:?};"));
    }
    let stats = engine.stats();
    digest.feed(&format!("{stats:?}"));
    let submit_us = submit_ns as f64 / trace.len().max(1) as f64 / 1e3;
    let poll_us = poll_ns as f64 / polls.max(1) as f64 / 1e3;
    (digest.value(), submit_us, poll_us, polls, stats)
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let scale = if args.tiny { 0.05 } else { 1.0 };
    let mut rungs = Vec::new();
    for (k, &(rate, share)) in RUNGS.iter().enumerate() {
        if args.tiny && k > BUSY {
            break;
        }
        let seed = args.seed.wrapping_add(k as u64);
        match run_rung(rate, share * args.seconds * scale, seed, args.trace) {
            Ok(r) => {
                for p in &r.problems {
                    report.check_failures.push(format!("rung {rate}/s: {p}"));
                }
                rungs.push(r);
            }
            Err(e) => {
                report.check_failures.push(format!("rung {rate}/s failed: {e}"));
                return report;
            }
        }
    }

    let max_rate = rungs.iter().filter(|r| r.passes()).map(|r| r.rate).fold(0.0, f64::max);
    for r in &rungs {
        // Refusals above the sustainable rate are backpressure working as
        // designed; at or below it every failure counts.
        if r.rate <= max_rate || !report.check_failures.is_empty() {
            report.attempted += r.sent as u64;
            report.failed_ops += r.failures() as u64;
        }
        report.notes.push(format!(
            "rung {:>6}/s: {} sent, {} accepted, {} busy, {} errored, {} done ({} timed out), {} dropped; \
             from due p50 {:.1} ms p99 {:.1} ms over {} samples; keep-up {:.3}; generator late p99 {:.2} ms",
            r.rate,
            r.sent,
            r.accepted,
            r.busy,
            r.errored,
            r.completed,
            r.timed_out,
            r.dropped,
            r.p(0.5),
            r.p(0.99),
            r.latency_ms.len(),
            r.keep_up,
            percentile(&r.late_ms, 0.99)
        ));
    }
    if report.attempted == 0 {
        report.attempted = rungs.iter().map(|r| r.sent as u64).sum();
        report.failed_ops = rungs.iter().map(|r| r.failures() as u64).sum();
    }
    report.setup_s = median(&rungs.iter().map(|r| r.setup_s).collect::<Vec<_>>());
    report.ops_per_s = max_rate;
    // The light rung's latency is set by the batch window and the mapper,
    // not by how much CPU the host grants at the moment; the busy rung's
    // moves by 2x with the CPU time other tenants steal, so it is printed
    // but not bounded.
    let (light, busy) = (&rungs[LIGHT], &rungs[BUSY]);
    report.p50_ms = light.p(0.5);
    report.tail_ms = light.p(0.99);
    report.named("rpc.p50_ms.light", light.p(0.5), "ms");
    report.named("rpc.p99_ms.light", light.p(0.99), "ms");
    report.named("rpc.p50_ms.busy", busy.p(0.5), "ms");
    report.named("rpc.p99_ms.busy", busy.p(0.99), "ms");
    report.named("rpc.max_rate", max_rate, "1/s");

    // The deterministic replay of the busy rung's trace.
    let knobs = knobs_at(RUNGS[BUSY].0);
    let busy_seed = args.seed.wrapping_add(BUSY as u64);
    let mix = TenantMix::synthetic(knobs.fleet.tenants, crate::fleet::REFERENCE_SEED);
    let trace = trace_for(RUNGS[BUSY].0, RUNGS[BUSY].1 * args.seconds * scale, busy_seed, &mix);
    let (digest, submit_us, poll_us, polls, stats) = replay(&trace, RUNGS[BUSY].0, busy_seed);
    report.digest = digest;
    report.check(stats.completed_jobs == stats.accepted, || {
        format!("replay completed {} jobs of {} accepted", stats.completed_jobs, stats.accepted)
    });

    if args.trace {
        let (mut enc_ns, mut dec_ns, mut frame_ns) = (0u128, 0u128, 0u128);
        for (i, a) in trace.iter().enumerate() {
            let msg = RequestMsg::submit(i as u64 + 1, a.tenant, vec![a.job.clone()]);
            let t = Instant::now();
            let bytes = encode(&msg);
            let t1 = Instant::now();
            let back: Result<RequestMsg, _> = decode(&bytes);
            let t2 = Instant::now();
            report.check(back.is_ok(), || format!("submit {i} does not decode"));
            let mut buf = Vec::with_capacity(bytes.len() + 8);
            let t3 = Instant::now();
            let framed = write_frame(&mut buf, &bytes, knobs.max_frame_bytes)
                .and_then(|()| read_frame(&mut io::Cursor::new(&buf), knobs.max_frame_bytes));
            frame_ns += t3.elapsed().as_nanos();
            report.check(matches!(&framed, Ok(Some(p)) if *p == bytes), || {
                format!("submit {i} does not survive a frame round trip")
            });
            enc_ns += (t1 - t).as_nanos();
            dec_ns += (t2 - t1).as_nanos();
        }
        let n = trace.len().max(1) as f64;
        let late: Vec<f64> = rungs.iter().flat_map(|r| r.late_ms.iter().copied()).collect();
        let probes = (stats.cache_hits + stats.cache_misses).max(1) as f64;
        report.layer("serve.cache.hit_ratio", stats.cache_hits as f64 / probes);
        report.layer("serve.cache.near_ratio", stats.cache_near_hits as f64 / probes);
        report.layer("serve.scheduler.preempted", stats.preempted_sessions as f64);
        report.layer("serve.engine.submit_us", submit_us);
        report.layer("serve.engine.poll_us", poll_us);
        report.layer("serve.engine.poll_calls", polls as f64);
        report.layer("server.proto.encode_us", enc_ns as f64 / n / 1e3);
        report.layer("server.proto.decode_us", dec_ns as f64 / n / 1e3);
        report.layer("server.frame.roundtrip_us", frame_ns as f64 / n / 1e3);
        report.layer("server.client.submit_us", median(&busy.submit_us));
        report.layer("server.rpc.ack_ms_p50", percentile(&busy.ack_ms, 0.5));
        report.layer("server.rpc.ack_ms_p99", percentile(&busy.ack_ms, 0.99));
        report.layer("server.daemon.busy", rungs.iter().map(|r| r.busy).sum::<usize>() as f64);
        report.layer(
            "server.daemon.timed_out",
            rungs.iter().map(|r| r.timed_out).sum::<usize>() as f64,
        );
        report.layer("bench.gen_late_ms_p99", percentile(&late, 0.99));
        report.layer("bench.traced_ops_per_s", max_rate);
        report.layer("optim.pool.builds", magma_optim::pool::stats().builds as f64);
    }
    report
}
