//! `magma_server` — the wall-clock RPC serving daemon (`magma-server`).
//!
//! Binds a TCP socket and serves the mapping pipeline for real: clients
//! submit job groups over the length-prefixed JSON protocol, the engine
//! batches, places and searches them against `Instant::now()`, and every
//! group's execution is reported back as a multiplexed `done` response.
//! The process runs until a client sends `drain`: admissions close, every
//! live session finishes, shard caches persist (when `--cache-path` is
//! given) and the daemon exits with a final counter summary.
//!
//! With `--scenario <file>` the platform and tenant mix come from a
//! registry scenario (`magma-registry`) instead of the synthetic
//! defaults; the scenario's seed and cache/SLA pins apply to the engine.
//!
//! # Knobs
//!
//! | Option | Effect |
//! |---|---|
//! | `--smoke` | CI scale (`ServerKnobs::smoke`): smaller budgets, tighter timeout |
//! | `--addr <host:port>` | bind address (default `127.0.0.1:4270`; port 0 = ephemeral) |
//! | `--cache-path <file>` | per-shard cache persistence at `<file>.shard<i>` |
//! | `--scenario <file>` | serve a registry scenario's platform/mix |
//! | `MAGMA_SCENARIO_DIR` | registry root for scenario references (default `scenarios/`) |

use magma::platform::settings::{PlatformSpec, ServerKnobs};
use magma_bench::Flag;
use magma_model::TenantMix;
use magma_serve::EngineConfig;
use magma_server::Server;

fn main() {
    let cli = magma_bench::serving_cli(&[Flag::Addr, Flag::CachePath]);
    let smoke = cli.smoke;
    let mut knobs = if smoke { ServerKnobs::smoke() } else { ServerKnobs::full() };
    knobs.addr = cli.addr.unwrap_or(knobs.addr);
    knobs.fleet.serve.cache_path = cli.cache_path;

    println!("==============================================================");
    println!("magma_server — wall-clock RPC serving daemon (magma-server)");

    let (config, mix) = match &cli.scenario {
        Some(path) => {
            let resolved = magma_bench::resolve_scenario_or_exit(path);
            knobs = knobs.with_overrides(&resolved.overrides);
            let mut config = EngineConfig::from_knobs(&knobs);
            config.shard_settings =
                vec![PlatformSpec::Custom(resolved.platform.clone()); knobs.fleet.shards];
            println!(
                "registry scenario {:?}: platform {} ({} cores) on every shard, {} tenants, \
                 descriptor {}",
                resolved.name,
                resolved.platform.name(),
                resolved.platform_def.core_count(),
                resolved.mix.len(),
                resolved.descriptor.content_hash
            );
            (config, resolved.mix)
        }
        None => (
            EngineConfig::from_knobs(&knobs),
            TenantMix::synthetic(knobs.fleet.tenants, knobs.fleet.serve.seed),
        ),
    };
    println!(
        "mode {}, {} shards, policy {}, max_live {}, backlog bound {}s, \
         pending/shard {}, timeout {}s, seed {}",
        if smoke { "smoke" } else { "full" },
        config.shards(),
        config.policy,
        config.max_live,
        config.max_backlog_sec,
        config.pending_per_shard,
        config.timeout_sec,
        config.seed
    );
    println!("==============================================================");

    let server = match Server::start(&knobs.addr, knobs.max_frame_bytes, config, mix) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("could not bind {}: {e}", knobs.addr);
            std::process::exit(1);
        }
    };
    // Scripts (and the CI smoke job) scrape this line for the resolved
    // address, so keep its shape stable.
    println!("listening on {}", server.addr());

    let stats = server.join();
    println!(
        "drained: {} accepted / {} rejected submits; {} jobs completed \
         ({} timed out, {} cancelled); sessions {} admitted = {} completed + {} preempted; \
         cache {}/{}/{} hit/near/miss",
        stats.accepted,
        stats.rejected,
        stats.completed_jobs,
        stats.timed_out_jobs,
        stats.cancelled_jobs,
        stats.admitted_sessions,
        stats.completed_sessions,
        stats.preempted_sessions,
        stats.cache_hits,
        stats.cache_near_hits,
        stats.cache_misses
    );
}
