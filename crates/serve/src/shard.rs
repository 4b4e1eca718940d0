//! The shard layer: the per-shard machinery under both serving loops, the
//! virtual-clock fleet ([`crate::fleet`]) and the wall-clock engine
//! ([`crate::engine`]).
//!
//! [`Shards`] owns the platforms, mapping services, session schedulers,
//! router, optional shared cache tier and accelerator timelines, and does
//! the two halves of a dispatch that do not depend on whose clock runs:
//! [`Shards::admit`] (key → placement → plan → open → admit) and
//! [`Shards::finish`] (cache → tier → accelerator timeline → job records).
//! Each loop drives the schedulers itself through [`Shards::scheds`].

use crate::batcher::DispatchGroup;
use crate::cache::{quantize_signatures, CacheStats, MappingCache, SharedCache};
use crate::dispatch::{DispatchConfig, DispatchOutcome, MappingService};
use crate::metrics::{CacheReport, JobRecord};
use crate::router::{RouterStats, ShardRouter};
use crate::scheduler::{LiveSession, SchedStats, SchedulerConfig, SessionScheduler};
use crate::trace::Arrival;
use magma_m3e::{M3e, Objective, StoredSolution};
use magma_model::{Group, JobId, JobSignature, TenantMix};
use magma_platform::{AcceleratorPlatform, PlatformSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};

/// Seed stride decorrelating per-dispatch search RNG streams (the 64-bit
/// golden ratio, as used by splitmix-style generators).
const K_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Per-dispatch search seed, decorrelated by the golden-ratio stride.
fn dispatch_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_add((index as u64).wrapping_mul(K_SEED_STRIDE))
}

/// Builds the M3E problem of one dispatch group.
fn group_problem(platform: &AcceleratorPlatform, group: &DispatchGroup) -> M3e {
    let jobs: Vec<_> =
        group.arrivals.iter().enumerate().map(|(k, a)| a.job.clone().with_id(JobId(k))).collect();
    M3e::new(platform.clone(), Group::new(jobs), Objective::Throughput)
}

/// A group's preemption value: Σ `1 / sla_multiplier` over its arrivals —
/// tighter contracts are worth more, bigger groups are worth more.
pub(crate) fn group_value<'a>(arrivals: impl Iterator<Item = &'a Arrival>, mix: &TenantMix) -> f64 {
    arrivals.map(|a| 1.0 / mix.tenants()[a.tenant].sla_multiplier().unwrap_or(1.0)).sum()
}

/// A group's dominant tenant: the most frequent tenant among its arrivals,
/// smallest index on ties — the tenant the shared tier charges the
/// published entry to.
fn dominant_tenant(arrivals: &[Arrival]) -> usize {
    let mut counts: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
    for a in arrivals {
        *counts.entry(a.tenant).or_insert(0) += 1;
    }
    counts
        .into_iter()
        .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
        .map(|(tenant, _)| tenant)
        .unwrap_or(0)
}

/// The per-shard persistence file a base path expands to: the fleet and
/// the engine both load and save shard `i`'s cache at `<base>.shard<i>`.
pub fn shard_cache_file(base: &Path, shard: usize) -> PathBuf {
    PathBuf::from(format!("{}.shard{shard}", base.display()))
}

/// One persistence file per shard under `base`, or none without a base.
pub(crate) fn shard_cache_files(base: Option<&Path>, shards: usize) -> Vec<PathBuf> {
    base.map_or_else(Vec::new, |base| (0..shards).map(|i| shard_cache_file(base, i)).collect())
}

/// The reported cache block of `stats` over `entries` live entries.
fn cache_block(stats: CacheStats, entries: usize) -> CacheReport {
    CacheReport {
        hits: stats.hits,
        misses: stats.misses,
        near_hits: stats.near_hits,
        evictions: stats.evictions,
        hit_rate: stats.hit_rate(),
        entries,
    }
}

/// Every shard of one fleet or engine. See the module docs.
pub(crate) struct Shards {
    platforms: Vec<AcceleratorPlatform>,
    services: Vec<MappingService>,
    /// One session scheduler per shard; the drivers step them on their own
    /// clocks.
    pub(crate) scheds: Vec<SessionScheduler>,
    router: ShardRouter,
    shared: Option<SharedCache>,
    /// When each shard's accelerator is next free.
    accel_free: Vec<f64>,
    /// One persistence file per shard, or none.
    cache_files: Vec<PathBuf>,
    overhead_sec_per_sample: f64,
    seed: u64,
    admitted: u64,
}

impl Shards {
    /// Builds one shard per platform spec and warm-restarts each shard's
    /// cache from its file in `cache_files` (empty, or one per shard) when
    /// the file exists. A missing file is the normal first run; an
    /// unreadable one is reported and that shard comes up cold (a serving
    /// fleet must come up cold rather than not at all).
    pub(crate) fn new(
        settings: &[PlatformSpec],
        dispatch: DispatchConfig,
        shared_cache_capacity: usize,
        shared_tenant_quota: usize,
        sched: SchedulerConfig,
        cache_files: Vec<PathBuf>,
        seed: u64,
    ) -> Self {
        let shards = settings.len();
        debug_assert!(cache_files.is_empty() || cache_files.len() == shards);
        let mut services: Vec<_> = (0..shards).map(|_| MappingService::new(dispatch)).collect();
        for (service, file) in services.iter_mut().zip(&cache_files) {
            if file.exists() {
                match MappingCache::load(file) {
                    Ok(cache) => service.install_cache(cache),
                    Err(e) => {
                        eprintln!("warning: ignoring mapping cache at {}: {e}", file.display())
                    }
                }
            }
        }
        Shards {
            platforms: settings.iter().map(|s| s.build()).collect(),
            services,
            scheds: (0..shards).map(|_| SessionScheduler::new(sched)).collect(),
            router: ShardRouter::new(shards),
            shared: (shared_cache_capacity > 0)
                .then(|| SharedCache::new(shared_cache_capacity, shared_tenant_quota)),
            accel_free: vec![0.0; shards],
            cache_files,
            overhead_sec_per_sample: sched.overhead_sec_per_sample,
            seed,
            admitted: 0,
        }
    }

    /// Number of shards.
    pub(crate) fn len(&self) -> usize {
        self.scheds.len()
    }

    /// Whether some shard can admit a session without preempting.
    pub(crate) fn has_room(&self) -> bool {
        self.scheds.iter().any(|s| s.has_room())
    }

    /// Live sessions across shards.
    pub(crate) fn live(&self) -> usize {
        self.scheds.iter().map(|s| s.live()).sum()
    }

    /// When `shard`'s accelerator is next free.
    pub(crate) fn accel_free(&self, shard: usize) -> f64 {
        self.accel_free[shard]
    }

    /// One shard's congestion in seconds — the router's load measure: queued
    /// mapper work plus how far its accelerator timeline runs past `now_sec`.
    /// Search is usually cheap, so the accelerator queue is what actually
    /// differentiates shards under load.
    pub(crate) fn load(&self, shard: usize, now_sec: f64) -> f64 {
        self.scheds[shard].backlog() * self.overhead_sec_per_sample
            + (self.accel_free[shard] - now_sec).max(0.0)
    }

    /// Places a freshly cut group on a shard with room, plans and opens its
    /// search (seeded by the admission index) and admits it to that shard's
    /// scheduler at `t` with the caller's deadline. Returns the shard and
    /// the session id (the admission index).
    ///
    /// # Panics
    ///
    /// Panics when no shard has room (callers gate cuts on
    /// [`Shards::has_room`] or preempt first).
    pub(crate) fn admit(
        &mut self,
        group: DispatchGroup,
        t: f64,
        deadline_sec: f64,
        mix: &TenantMix,
    ) -> (usize, u64) {
        let sigs: Vec<JobSignature> = group.arrivals.iter().map(|a| a.job.signature()).collect();
        let key = quantize_signatures(&sigs, self.services[0].config().quant_step);
        let admissible: Vec<bool> = self.scheds.iter().map(|s| s.has_room()).collect();
        let loads: Vec<f64> = (0..self.len()).map(|s| self.load(s, t)).collect();
        // A key the shared tier holds is served warm from any shard, so
        // affinity buys nothing: place purely by load.
        let shard = if self.shared.as_ref().is_some_and(|tier| tier.contains(&key)) {
            self.router.place_balanced(&loads, &admissible)
        } else {
            self.router.place(&key, &loads, &admissible)
        };
        let problem = group_problem(&self.platforms[shard], &group);
        let mut rng = StdRng::seed_from_u64(dispatch_seed(self.seed, self.admitted as usize));
        let plan = self.services[shard].plan_group_shared(&problem, &mut rng, self.shared.as_mut());
        let state = self.services[shard].open_search(&plan, &problem, &mut rng);
        let value = group_value(group.arrivals.iter(), mix);
        let id = self.admitted;
        let session = LiveSession { id, group, plan, problem, rng, state, deadline_sec, value };
        self.scheds[shard].admit(session, t);
        self.admitted += 1;
        (shard, id)
    }

    /// Completes a session that left `shard`'s scheduler (finished,
    /// preempted or cancelled): stores the best mapping in the shard's
    /// cache, publishes it to the shared tier (when one exists) under the
    /// group's dominant tenant, and books execution at `max(search end,
    /// accelerator free)`. Returns the dispatch outcome and one record per
    /// job, in arrival order, dispatched when the group was cut.
    pub(crate) fn finish(
        &mut self,
        shard: usize,
        session: LiveSession,
        search_end_sec: f64,
    ) -> (DispatchOutcome, Vec<JobRecord>) {
        let LiveSession { group, plan, problem, state, .. } = session;
        let key = plan.key().clone();
        let outcome = self.services[shard].complete_group(&problem, plan, state.finish());
        if let Some(tier) = self.shared.as_mut() {
            tier.publish(
                key,
                StoredSolution::new(outcome.mapping.clone(), Some(problem.signatures().to_vec())),
                dominant_tenant(&group.arrivals),
            );
        }
        let exec_start = search_end_sec.max(self.accel_free[shard]);
        self.accel_free[shard] = exec_start + outcome.schedule.makespan_sec();
        let mut end_by_job = vec![0.0f64; group.arrivals.len()];
        for seg in outcome.schedule.segments() {
            end_by_job[seg.job.0] = seg.end_sec;
        }
        let records = group
            .arrivals
            .iter()
            .zip(end_by_job)
            .map(|(a, end)| JobRecord {
                tenant: a.tenant,
                arrival_sec: a.time_sec,
                dispatched_sec: group.formed_at_sec,
                completed_sec: exec_start + end,
                flops: a.job.flops(),
            })
            .collect();
        (outcome, records)
    }

    /// Saves each shard's mapping cache to its persistence file (a failure
    /// is reported, never fatal).
    pub(crate) fn persist(&self) {
        for (service, file) in self.services.iter().zip(&self.cache_files) {
            if let Err(e) = service.cache().save(file) {
                eprintln!("warning: could not persist mapping cache to {}: {e}", file.display());
            }
        }
    }

    /// Shard-cache counters summed over shards.
    pub(crate) fn cache_report(&self) -> CacheReport {
        let mut total = CacheStats::default();
        let mut entries = 0usize;
        for service in &self.services {
            let s = service.cache_stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.near_hits += s.near_hits;
            total.evictions += s.evictions;
            entries += service.cache_len();
        }
        cache_block(total, entries)
    }

    /// Shared-tier counters (all zero when the tier is disabled).
    pub(crate) fn shared_report(&self) -> CacheReport {
        self.shared
            .as_ref()
            .map_or_else(CacheReport::default, |tier| cache_block(tier.stats(), tier.len()))
    }

    /// Scheduler lifecycle counters summed over shards.
    pub(crate) fn sched_stats(&self) -> SchedStats {
        self.scheds.iter().fold(SchedStats::default(), |mut acc, s| {
            let st = s.stats();
            acc.admitted += st.admitted;
            acc.completed += st.completed;
            acc.preempted_deadline += st.preempted_deadline;
            acc.preempted_value += st.preempted_value;
            acc.late_admissions += st.late_admissions;
            acc.min_slice_clamps += st.min_slice_clamps;
            acc
        })
    }

    /// Router placement counters.
    pub(crate) fn router_stats(&self) -> RouterStats {
        self.router.stats()
    }
}
