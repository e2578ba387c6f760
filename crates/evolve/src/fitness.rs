//! The genetic algorithm's fitness function (paper Section 4.3).
//!
//! For each workload, an LLC access stream is captured once through the
//! fixed L1/L2 hierarchy; candidate vectors then replay the stream at the
//! LLC only. Fitness is the workload-weighted arithmetic mean of the
//! linear-CPI speedup over LRU — exactly the paper's recipe ("we estimate
//! the resulting CPI as a linear function of the number of misses" and
//! evolve for "a good arithmetic mean speedup").

use gippr::{DgipprPolicy, GiplrPolicy, GipprPolicy, Ipv};
use mem_model::cpi::LinearCpiModel;
use mem_model::{
    capture_llc_stream_into, plan, replay_llc_sharded, Engine, HierarchyConfig, Replayer,
    WindowPerfModel,
};
use sim_core::{
    Access, CacheGeometry, ReplacementPolicy, SampledStream, ShardedStream, StackDistanceProfile,
};
use std::sync::{Arc, Mutex};
use traces::spec2006::Spec2006;
use traces::WorkloadSpec;

/// Which replacement substrate a single vector drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Substrate {
    /// Tree PseudoLRU state (GIPPR, Section 3.4).
    Plru,
    /// Full true-LRU recency stacks (GIPLR, Section 2).
    Lru,
}

/// Scale knobs for fitness evaluation; the defaults fit CI-speed runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FitnessScale {
    /// Shift applied to cache capacities and workload footprints
    /// (`HierarchyConfig::paper_scaled`); 0 = the paper's 4 MB LLC.
    pub shift: u32,
    /// Worker threads for population evaluation.
    pub threads: usize,
}

impl Default for FitnessScale {
    fn default() -> Self {
        FitnessScale {
            shift: 4,
            threads: available_threads(),
        }
    }
}

fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Default sampling period for the set-sampled fitness fidelity: one in
/// four sets is replayed (an exact 4× access-count reduction for
/// set-local policies).
pub const DEFAULT_SAMPLE_EVERY: usize = 4;

/// A workload's set-sampled sub-stream plus its own LRU baseline, the
/// inputs of the mid-fidelity tier ([`FitnessContext::fitness_single_sampled`]).
#[derive(Debug, Clone)]
pub struct SampledWorkload {
    /// The deterministic set-sampled sub-stream.
    pub stream: SampledStream,
    /// Instructions attributed to the sampled accesses' measured portion.
    pub instructions: u64,
    /// True-LRU misses over the sampled measured portion (from a Mattson
    /// pass over the sub-stream — exact, no replay).
    pub lru_misses: u64,
}

impl SampledWorkload {
    /// Captures the sampled sub-stream and its LRU baseline.
    pub fn build(
        stream: &[Access],
        geom: &CacheGeometry,
        warmup: usize,
        every: usize,
        offset: usize,
    ) -> Self {
        let sampled = SampledStream::build(stream, geom, warmup, every, offset);
        let profile =
            StackDistanceProfile::capture(sampled.stream(), geom, sampled.warmup(), geom.ways());
        SampledWorkload {
            instructions: profile.instructions().max(1),
            lru_misses: profile.misses(geom.ways()),
            stream: sampled,
        }
    }
}

/// One workload's captured LLC stream and its LRU baseline.
#[derive(Debug, Clone)]
pub struct WorkloadStream {
    /// Workload display name.
    pub name: String,
    /// The captured LLC access stream (shared, replayed by every candidate).
    pub stream: Arc<Vec<Access>>,
    /// The same stream pre-routed by set index, built once at context
    /// construction; candidates the planner shards (set-local, no usable
    /// slice kernel) replay it shard by shard.
    pub sharded: Arc<ShardedStream>,
    /// Accesses used to warm the cache before measuring.
    pub warmup: usize,
    /// Instructions represented by the measured portion.
    pub instructions: u64,
    /// LRU misses over the measured portion (the speedup denominator).
    pub lru_misses: u64,
    /// Single-pass stack-distance profile of the stream at the context
    /// geometry's set partition: exact LRU hit/miss counts at every
    /// associativity up to the geometry's ways, captured once. Source of
    /// `lru_misses`/`instructions` and of the associativity prefilter
    /// ([`FitnessContext::lru_speedup_at`]).
    pub profile: Arc<StackDistanceProfile>,
    /// Set-sampled sub-stream and its LRU baseline (fidelity 2 of the
    /// evaluation ladder). Built once at context construction from the
    /// same capture, so the sampled subset is a pure function of the
    /// stream and geometry — identical across shard counts and resumes.
    pub sampled: Arc<SampledWorkload>,
    /// Simpoint/benchmark weight in the mean.
    pub weight: f64,
}

impl WorkloadStream {
    /// One spec's share of [`FitnessContext::from_specs`]: captures its
    /// first `accesses` references into `stream` (empty, pre-sized by the
    /// caller) and builds everything derived from the capture.
    fn build(
        spec: &WorkloadSpec,
        weight: f64,
        config: HierarchyConfig,
        accesses: usize,
        shift: u32,
        mut stream: Vec<Access>,
    ) -> Self {
        let scaled = spec.scaled_down(shift);
        capture_llc_stream_into(
            config,
            scaled.generator(0).take(accesses),
            false,
            &mut stream,
        );
        let warmup = mem_model::llc::default_warmup(stream.len());
        // One Mattson pass replaces the LRU baseline replay: the profile's
        // miss count at the full associativity IS the sequential replay's
        // (exactness is proven in sim-verify and the mem-model
        // differential tests), and the same capture answers every
        // narrower associativity for the prefilter
        // ([`FitnessContext::lru_speedup_at`]).
        let profile =
            StackDistanceProfile::capture(&stream, &config.llc, warmup, config.llc.ways());
        let sharded = ShardedStream::for_parallelism(
            &stream,
            &config.llc,
            warmup,
            sim_core::pool::global().cap(),
        );
        let sampled = SampledWorkload::build(&stream, &config.llc, warmup, DEFAULT_SAMPLE_EVERY, 0);
        WorkloadStream {
            name: scaled.name,
            stream: Arc::new(stream),
            sharded: Arc::new(sharded),
            warmup,
            instructions: profile.instructions().max(1),
            lru_misses: profile.misses(config.llc.ways()),
            profile: Arc::new(profile),
            sampled: Arc::new(sampled),
            weight,
        }
    }
}

/// Captured streams plus everything needed to score a candidate vector.
#[derive(Debug, Clone)]
pub struct FitnessContext {
    streams: Vec<WorkloadStream>,
    geom: CacheGeometry,
    model: LinearCpiModel,
    threads: usize,
}

impl FitnessContext {
    /// Builds a context from explicit workload specs. `accesses_per_stream`
    /// is the reference-trace length fed to L1 (the LLC stream is shorter).
    ///
    /// Each spec's set-up (generate, capture, Mattson profile, shard
    /// routing, sampled build) is independent of the others, so the specs
    /// fan out over [`sim_core::pool::global`], at most `scale.threads`
    /// at a time, and come back in spec order: the context is the same at
    /// any thread count and when built from inside a pool task. The
    /// captured-stream buffers are allocated here, on the calling thread,
    /// and filled by the tasks: a buffer a pool worker allocated would
    /// come from that worker's malloc arena, which keeps freed buffers
    /// resident after the context is dropped.
    pub fn from_specs(
        specs: &[(WorkloadSpec, f64)],
        accesses_per_stream: usize,
        scale: FitnessScale,
    ) -> Self {
        let config = HierarchyConfig::paper_scaled(scale.shift)
            .expect("scale shift leaves valid geometries");
        let threads = scale.threads.max(1);
        let buffers: Vec<Mutex<Vec<Access>>> = specs
            .iter()
            .map(|_| Mutex::new(Vec::with_capacity(accesses_per_stream)))
            .collect();
        let streams = sim_core::pool::global().run(specs.len(), threads, |i| {
            let (spec, weight) = &specs[i];
            let buffer = std::mem::take(
                &mut *buffers[i]
                    .lock()
                    .expect("no task panics while holding a buffer lock"),
            );
            WorkloadStream::build(
                spec,
                *weight,
                config,
                accesses_per_stream,
                scale.shift,
                buffer,
            )
        });
        FitnessContext {
            streams,
            geom: config.llc,
            model: LinearCpiModel::default(),
            threads,
        }
    }

    /// Builds a context over SPEC benchmark models, `simpoints` weighted
    /// segments each.
    pub fn for_benchmarks(
        benchmarks: &[Spec2006],
        simpoints: usize,
        accesses_per_stream: usize,
        scale: FitnessScale,
    ) -> Self {
        let specs: Vec<(WorkloadSpec, f64)> = benchmarks
            .iter()
            .flat_map(|b| {
                b.simpoints()
                    .into_iter()
                    .take(simpoints.max(1))
                    .map(move |sp| {
                        let mut spec = b.workload();
                        spec.seed ^= sp.index.wrapping_mul(0x517c_c1b7_2722_0a95);
                        (spec, sp.weight)
                    })
            })
            .collect();
        Self::from_specs(&specs, accesses_per_stream, scale)
    }

    /// The LLC geometry candidates are scored against.
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    /// The captured workload streams.
    pub fn streams(&self) -> &[WorkloadStream] {
        &self.streams
    }

    /// Worker threads used by [`FitnessContext::fitness_many`].
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Cheap associativity prefilter: the weighted-mean linear-CPI speedup
    /// of `ways`-way true LRU (same set count, narrower sets) over the
    /// context's full-width LRU baseline, read straight off the per-stream
    /// stack-distance profiles with no replay. LRU is inclusion-preserving,
    /// so these are exact miss counts, not estimates — the GA can rank
    /// candidate associativities (or bound how much headroom a narrower
    /// cache leaves) before paying for any per-candidate replays.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= ways <= geometry().ways()`.
    pub fn lru_speedup_at(&self, ways: usize) -> f64 {
        let mut total = 0.0;
        let mut total_weight = 0.0;
        for ws in &self.streams {
            let misses = ws.profile.misses(ways);
            total += self.model.speedup(ws.instructions, ws.lru_misses, misses) * ws.weight;
            total_weight += ws.weight;
        }
        if total_weight == 0.0 {
            1.0
        } else {
            total / total_weight
        }
    }

    /// Re-routes every captured stream into exactly `shards` shards
    /// (power of two, at most the geometry's set count). The default
    /// routing follows the worker pool's budget; tests and benchmarks use
    /// this to pin a specific routing regardless of host parallelism.
    pub fn with_shards(mut self, shards: usize) -> Self {
        for ws in &mut self.streams {
            ws.sharded = Arc::new(ShardedStream::build(
                &ws.stream, &self.geom, ws.warmup, shards,
            ));
        }
        self
    }

    /// Returns a context restricted to streams whose names pass `keep`
    /// (the WN1 holdout mechanism).
    pub fn filtered<F: Fn(&str) -> bool>(&self, keep: F) -> FitnessContext {
        FitnessContext {
            streams: self
                .streams
                .iter()
                .filter(|s| keep(&s.name))
                .cloned()
                .collect(),
            geom: self.geom,
            model: self.model,
            threads: self.threads,
        }
    }

    /// The GA inner loop: the workload-weighted mean speedup of a fresh
    /// policy from `make` over every stream, on the full streams or (with
    /// `sampled`) the set-sampled sub-streams against their own LRU
    /// baselines. Generic over the concrete policy type so a mono replay
    /// monomorphizes per substrate instead of paying double virtual
    /// dispatch through `Box<dyn>`; the engine is [`plan`]'s. The linear
    /// CPI model reads only misses, so every replay but the sharded one
    /// runs [`Replayer::misses`] (the sliced kernel's miss-count mode).
    ///
    /// The full tier plans with the stream's routed shard count, so
    /// set-local policies without a usable kernel replay the pre-routed
    /// stream shard by shard. The sampled tier plans for one shard: for
    /// set-local policies its per-set results are exact (set
    /// independence, proven by the shard-affinity model check) — only the
    /// *aggregation* over a subset of sets makes it an estimate of the
    /// full-stream fitness — and it is bit-identical across shard counts.
    fn weighted_speedup<P: ReplacementPolicy, F: Fn() -> P>(&self, make: F, sampled: bool) -> f64 {
        let perf = WindowPerfModel::default();
        let probe = make();
        let mut total_weight = 0.0;
        let mut total = 0.0;
        for ws in &self.streams {
            let sw = &ws.sampled;
            let (stream, warmup, instructions, lru_misses, shards) = if sampled {
                let s = sw.stream.stream();
                (s, sw.stream.warmup(), sw.instructions, sw.lru_misses, 1)
            } else {
                let s = &ws.stream[..];
                (
                    s,
                    ws.warmup,
                    ws.instructions,
                    ws.lru_misses,
                    ws.sharded.shards(),
                )
            };
            let plan = plan(&probe, &self.geom, shards);
            let misses = match plan.engine {
                Engine::Sharded => replay_llc_sharded(&ws.sharded, &make, &perf).stats.misses,
                _ => Replayer::new(&plan, self.geom, &make, &perf).misses(stream, warmup),
            };
            let speedup = self.model.speedup(instructions, lru_misses, misses);
            total += speedup * ws.weight;
            total_weight += ws.weight;
        }
        if total_weight == 0.0 {
            1.0
        } else {
            total / total_weight
        }
    }

    /// Set-sampled mean speedup of a single vector (ladder fidelity 2):
    /// an exact per-set replay of one in
    /// [`SampledStream::every`](sim_core::SampledStream::every) sets.
    pub fn fitness_single_sampled(&self, ipv: &Ipv, substrate: Substrate) -> f64 {
        self.single_vector(ipv, substrate, true)
    }

    /// Set-sampled mean speedup of a dueling vector set (ladder
    /// fidelity 2). Leader sets are re-derived from the *sampled* set
    /// count, so the duel keeps its leader/follower proportions; DGIPPR's
    /// PSEL makes this tier an estimate in a second way (cross-set
    /// coupling), which is fine — elites are re-scored at full fidelity.
    ///
    /// # Panics
    ///
    /// Panics unless `vectors.len()` is 2 or 4.
    pub fn fitness_set_sampled(&self, vectors: &[Ipv]) -> f64 {
        self.vector_set(vectors, true)
    }

    /// Zero-replay profile score of a single vector (ladder fidelity 1).
    ///
    /// The `sim-lint` reachability analysis proves which recency positions
    /// a vector can ever populate; a vector with `d` dead positions runs
    /// the cache as if it were at most `ways - d` ways wide, and the
    /// stored Mattson profiles answer "what would `ways - d`-way LRU
    /// cost?" exactly, with no replay at all. This is a *heuristic
    /// ranking* (insertion/promotion order within the live positions is
    /// invisible to it), never a fitness: it only decides which genomes
    /// graduate to the replay tiers.
    pub fn profile_score_single(&self, ipv: &Ipv) -> f64 {
        let analysis = ipv.analysis();
        let live = analysis.reachable_positions().len().max(1);
        let ways = self.geom.ways();
        self.lru_speedup_at(live.min(ways))
    }

    /// Zero-replay profile score of a vector set (ladder fidelity 1): the
    /// best member's score — a duel can always fall back to its best
    /// vector, so the set's potential is bounded by its best member.
    pub fn profile_score_set(&self, vectors: &[Ipv]) -> f64 {
        vectors
            .iter()
            .map(|v| self.profile_score_single(v))
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Mean speedup over LRU of a single vector on `substrate`.
    pub fn fitness_single(&self, ipv: &Ipv, substrate: Substrate) -> f64 {
        self.single_vector(ipv, substrate, false)
    }

    fn single_vector(&self, ipv: &Ipv, substrate: Substrate, sampled: bool) -> f64 {
        let geom = self.geom;
        match substrate {
            Substrate::Plru => self.weighted_speedup(
                || GipprPolicy::new(&geom, ipv.clone()).expect("assoc matches"),
                sampled,
            ),
            Substrate::Lru => self.weighted_speedup(
                || GiplrPolicy::new(&geom, ipv.clone()).expect("assoc matches"),
                sampled,
            ),
        }
    }

    /// Mean speedup over LRU of a dueling 2- or 4-vector set (DGIPPR).
    ///
    /// # Panics
    ///
    /// Panics unless `vectors.len()` is 2 or 4.
    pub fn fitness_set(&self, vectors: &[Ipv]) -> f64 {
        self.vector_set(vectors, false)
    }

    fn vector_set(&self, vectors: &[Ipv], sampled: bool) -> f64 {
        assert!(
            vectors.len() == 2 || vectors.len() == 4,
            "DGIPPR duels 2 or 4 vectors, got {}",
            vectors.len()
        );
        let geom = self.geom;
        // Smaller scaled caches have fewer sets; shrink the leader count to
        // fit while keeping the paper's 32 for full-size runs.
        let leaders = (geom.sets() / 64).clamp(4, 32);
        self.weighted_speedup(
            || {
                DgipprPolicy::with_config(&geom, vectors.to_vec(), leaders, "DGIPPR")
                    .expect("valid duel config")
            },
            sampled,
        )
    }

    /// Per-workload speedups (not aggregated), for reporting.
    pub fn per_workload_single(&self, ipv: &Ipv, substrate: Substrate) -> Vec<(String, f64)> {
        let perf = WindowPerfModel::default();
        let geom = self.geom;
        self.streams
            .iter()
            .map(|ws| {
                let misses = match substrate {
                    Substrate::Plru => {
                        let p = GipprPolicy::new(&geom, ipv.clone()).expect("assoc matches");
                        Replayer::whole(geom, p, &perf).misses(&ws.stream, ws.warmup)
                    }
                    Substrate::Lru => {
                        let p = GiplrPolicy::new(&geom, ipv.clone()).expect("assoc matches");
                        Replayer::whole(geom, p, &perf).misses(&ws.stream, ws.warmup)
                    }
                };
                let speedup = self.model.speedup(ws.instructions, ws.lru_misses, misses);
                (ws.name.clone(), speedup)
            })
            .collect()
    }

    /// Evaluates many candidates on the persistent worker pool, capped at
    /// `self.threads` concurrent executors. The pool threads are created
    /// once per process and reused across generations and experiments.
    pub fn fitness_many<G, F>(&self, genomes: &[G], eval: F) -> Vec<f64>
    where
        G: Sync,
        F: Fn(&FitnessContext, &G) -> f64 + Sync,
    {
        sim_core::pool::global().run(genomes.len(), self.threads, |i| eval(self, &genomes[i]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mem_model::replay_llc_mono;

    fn tiny_ctx() -> FitnessContext {
        FitnessContext::for_benchmarks(
            &[Spec2006::Libquantum, Spec2006::DealII],
            1,
            20_000,
            FitnessScale {
                shift: 6,
                threads: 2,
            },
        )
    }

    fn assert_same_stream(got: &WorkloadStream, want: &WorkloadStream, how: &str) {
        let what = format!("{} ({how})", want.name);
        assert_eq!(got.name, want.name, "{what}");
        assert!(got.stream == want.stream, "{what}: stream");
        assert_eq!(got.warmup, want.warmup, "{what}");
        assert_eq!(got.instructions, want.instructions, "{what}");
        assert_eq!(got.lru_misses, want.lru_misses, "{what}");
        assert_eq!(got.weight.to_bits(), want.weight.to_bits(), "{what}");
        let (p, q) = (&got.profile, &want.profile);
        assert_eq!(p.histogram(), q.histogram(), "{what}: profile");
        assert_eq!(
            (p.beyond(), p.accesses(), p.instructions()),
            (q.beyond(), q.accesses(), q.instructions()),
            "{what}: profile"
        );
        let (s, t) = (&got.sampled, &want.sampled);
        assert!(s.stream.stream() == t.stream.stream(), "{what}: sampled");
        assert_eq!(
            (s.stream.warmup(), s.instructions, s.lru_misses),
            (t.stream.warmup(), t.instructions, t.lru_misses),
            "{what}: sampled"
        );
        let (r, u) = (&got.sharded, &want.sharded);
        assert_eq!(
            (r.shards(), r.len(), r.warmup()),
            (u.shards(), u.len(), u.warmup()),
            "{what}"
        );
        assert_eq!(r.shard_of(), u.shard_of(), "{what}: routing");
        assert_eq!(r.icount(), u.icount(), "{what}: routing");
        for k in 0..r.shards() {
            assert_eq!(r.measured_in(k), u.measured_in(k), "{what}: shard {k}");
        }
    }

    #[test]
    fn pooled_context_build_equals_a_serial_build() {
        let specs: Vec<(WorkloadSpec, f64)> = [
            Spec2006::Mcf,
            Spec2006::Libquantum,
            Spec2006::DealII,
            Spec2006::Gamess,
            Spec2006::Soplex,
        ]
        .iter()
        .enumerate()
        .map(|(i, b)| (b.workload(), 0.5 + i as f64))
        .collect();
        let (accesses, shift) = (12_000, 6);
        let config = HierarchyConfig::paper_scaled(shift).unwrap();
        let serial: Vec<WorkloadStream> = specs
            .iter()
            .map(|(spec, w)| WorkloadStream::build(spec, *w, config, accesses, shift, Vec::new()))
            .collect();
        let build =
            |threads| FitnessContext::from_specs(&specs, accesses, FitnessScale { shift, threads });
        let mut builds = vec![("1 thread", build(1)), ("2 threads", build(2))];
        // From inside pool tasks, as `WorkloadCache::fitness_context` can
        // be: the inner fan-out is a nested `run`.
        let nested = sim_core::pool::global().run(2, usize::MAX, |_| build(2));
        builds.extend(nested.into_iter().map(|ctx| ("nested in a pool task", ctx)));
        for (how, ctx) in &builds {
            assert_eq!(ctx.streams().len(), serial.len());
            for (got, want) in ctx.streams().iter().zip(&serial) {
                assert_same_stream(got, want, how);
            }
        }
    }

    #[test]
    fn lru_vector_scores_about_one() {
        let ctx = tiny_ctx();
        let f = ctx.fitness_single(&Ipv::lru(16), Substrate::Lru);
        assert!(
            (f - 1.0).abs() < 1e-9,
            "GIPLR with the LRU vector IS LRU: {f}"
        );
    }

    #[test]
    fn lip_beats_lru_on_streaming_heavy_mix() {
        let ctx = FitnessContext::for_benchmarks(
            &[Spec2006::Libquantum],
            1,
            20_000,
            FitnessScale {
                shift: 6,
                threads: 1,
            },
        );
        let f = ctx.fitness_single(&Ipv::lru_insertion(16), Substrate::Lru);
        assert!(f > 1.02, "LIP on pure streaming should beat LRU: {f}");
    }

    #[test]
    fn filtered_drops_holdout() {
        let ctx = tiny_ctx();
        let kept = ctx.filtered(|name| !name.contains("libquantum"));
        assert_eq!(kept.streams().len(), ctx.streams().len() - 1);
        assert!(kept
            .streams()
            .iter()
            .all(|s| !s.name.contains("libquantum")));
    }

    #[test]
    fn fitness_many_matches_sequential() {
        let ctx = tiny_ctx();
        let candidates = vec![Ipv::lru(16), Ipv::lru_insertion(16)];
        let parallel = ctx.fitness_many(&candidates, |c, g| c.fitness_single(g, Substrate::Plru));
        let sequential: Vec<f64> = candidates
            .iter()
            .map(|g| ctx.fitness_single(g, Substrate::Plru))
            .collect();
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn sharded_fitness_matches_sequential_replay() {
        // fitness_single plans GIPPR/GIPLR against a pinned multi-shard
        // routing; whichever engine the plan picks, recomputing the same
        // mean with sequential whole-stream mono replays must agree to
        // the bit.
        let ctx = tiny_ctx().with_shards(4);
        let ipv = Ipv::lru_insertion(16);
        for substrate in [Substrate::Plru, Substrate::Lru] {
            let sharded = ctx.fitness_single(&ipv, substrate);
            let perf = WindowPerfModel::default();
            let mut total = 0.0;
            let mut total_weight = 0.0;
            for ws in ctx.streams() {
                let misses = match substrate {
                    Substrate::Plru => {
                        let p = GipprPolicy::new(&ctx.geometry(), ipv.clone()).unwrap();
                        replay_llc_mono(&ws.stream, ctx.geometry(), p, ws.warmup, &perf)
                    }
                    Substrate::Lru => {
                        let p = GiplrPolicy::new(&ctx.geometry(), ipv.clone()).unwrap();
                        replay_llc_mono(&ws.stream, ctx.geometry(), p, ws.warmup, &perf)
                    }
                }
                .stats
                .misses;
                total += ctx.model.speedup(ws.instructions, ws.lru_misses, misses) * ws.weight;
                total_weight += ws.weight;
            }
            assert_eq!(sharded, total / total_weight, "{substrate:?}");
        }
    }

    #[test]
    fn assoc_prefilter_matches_replayed_lru() {
        // The prefilter reads miss counts off the stored profiles; they
        // must be bit-identical to actually replaying true LRU at the
        // narrower associativity (same set count), and the full-width
        // prefilter is the baseline itself: exactly 1.0.
        let ctx = tiny_ctx();
        assert_eq!(ctx.lru_speedup_at(ctx.geometry().ways()), 1.0);
        let perf = WindowPerfModel::default();
        for ways in [2usize, 4] {
            let narrow =
                CacheGeometry::from_sets(ctx.geometry().sets(), ways, ctx.geometry().line_bytes())
                    .unwrap();
            let mut total = 0.0;
            let mut total_weight = 0.0;
            for ws in ctx.streams() {
                let run = replay_llc_mono(
                    &ws.stream,
                    narrow,
                    baselines::TrueLru::new(&narrow),
                    ws.warmup,
                    &perf,
                );
                assert_eq!(ws.profile.misses(ways), run.stats.misses, "{}", ws.name);
                total += ctx
                    .model
                    .speedup(ws.instructions, ws.lru_misses, run.stats.misses)
                    * ws.weight;
                total_weight += ws.weight;
            }
            assert_eq!(ctx.lru_speedup_at(ways), total / total_weight);
        }
    }

    #[test]
    fn vector_set_fitness_runs() {
        let ctx = tiny_ctx();
        let f = ctx.fitness_set(&gippr::vectors::wi_2dgippr());
        assert!(f > 0.5 && f < 3.0, "sane speedup range: {f}");
    }

    #[test]
    #[should_panic(expected = "2 or 4")]
    fn vector_set_rejects_three() {
        let ctx = tiny_ctx();
        let v = Ipv::lru(16);
        let _ = ctx.fitness_set(&[v.clone(), v.clone(), v]);
    }

    #[test]
    fn per_workload_reports_every_stream() {
        let ctx = tiny_ctx();
        let rows = ctx.per_workload_single(&Ipv::lru(16), Substrate::Plru);
        assert_eq!(rows.len(), ctx.streams().len());
    }
}
