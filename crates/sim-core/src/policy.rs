//! The replacement-policy interface.

use crate::access::AccessContext;
use crate::cache::{MonoEngine, SetAssocCache};
use crate::geometry::CacheGeometry;

/// How a policy's state decomposes across cache sets, which determines
/// whether the sharded replay engine (`sim_core::shard`) may drive disjoint
/// set ranges of the same stream concurrently on independent policy clones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardAffinity {
    /// Every state transition depends only on the set being accessed, so
    /// replaying disjoint set ranges independently (each on a fresh policy
    /// instance) produces exactly the per-set transitions of a sequential
    /// replay. Global *read-only* configuration (an IPV, a seed vector) is
    /// fine; global *mutable* counters are not — with one exception: a
    /// global monotonic clock whose influence reduces to within-set
    /// relative order (e.g. true-LRU timestamps) still qualifies, because
    /// stable bucketing preserves per-set access order.
    ///
    /// Policies claiming `SetLocal` must also not depend on the sub-line
    /// bits of `AccessContext::addr`: the sharded engine reconstructs the
    /// address from the block address, zeroing the line offset.
    SetLocal,
    /// State is shared across sets (PSEL duel counters, global RNG streams,
    /// reuse-distance samplers keyed on the full access sequence). Sharded
    /// replay falls back to a sequential whole-stream pass for these, which
    /// preserves exact semantics at the cost of per-policy parallelism only.
    Global,
}

/// A cache replacement policy.
///
/// One policy object serves an entire cache level; every callback carries the
/// set index so policies may keep per-set state (recency stacks, PLRU bits,
/// RRPVs) as well as cache-global state (set-dueling counters, reuse-distance
/// samplers). Policies deal only in *way indices* — the cache owns tags,
/// validity, and dirtiness.
///
/// Callback protocol, per lookup:
///
/// 1. **Hit** → [`on_hit`](ReplacementPolicy::on_hit).
/// 2. **Miss** → [`on_miss`](ReplacementPolicy::on_miss), then, unless the
///    policy chose to bypass, either a fill into an invalid way or
///    [`victim`](ReplacementPolicy::victim) followed by
///    [`on_evict`](ReplacementPolicy::on_evict); finally
///    [`on_fill`](ReplacementPolicy::on_fill) for the incoming block.
///
/// `Send` is a supertrait so long-lived engines (e.g. the serving
/// daemon's per-tenant sessions) can be handed between worker-pool
/// threads; every policy is a plain data structure, so this costs
/// implementors nothing. [`IntoMonoEngine`] is a supertrait with a
/// blanket impl, so every `'static` policy gets it for free.
pub trait ReplacementPolicy: Send + IntoMonoEngine {
    /// A short human-readable policy name (e.g. `"WN1-4-DGIPPR"`).
    fn name(&self) -> &str;

    /// Chooses the way to evict in `set`. Called only when the set is full.
    fn victim(&mut self, set: usize, ctx: &AccessContext) -> usize;

    /// Records a hit on `way` in `set` (promotion happens here).
    fn on_hit(&mut self, set: usize, way: usize, ctx: &AccessContext);

    /// Records that the incoming block was placed in `way` (insertion
    /// happens here). Called for both cold fills and replacement fills.
    fn on_fill(&mut self, set: usize, way: usize, ctx: &AccessContext);

    /// Records a miss in `set` before any fill (set-dueling feedback).
    fn on_miss(&mut self, _set: usize, _ctx: &AccessContext) {}

    /// Records that `way` in `set` was evicted (before the fill).
    fn on_evict(&mut self, _set: usize, _way: usize) {}

    /// Returns true to skip caching the incoming block entirely
    /// (bypass). The default never bypasses; the paper's PDP configuration
    /// also runs without bypass.
    fn should_bypass(&mut self, _set: usize, _ctx: &AccessContext) -> bool {
        false
    }

    /// Replacement metadata cost in bits per set (paper Section 3.6).
    fn bits_per_set(&self) -> u64;

    /// Cache-global metadata cost in bits (e.g. PSEL counters). Defaults to 0.
    fn global_bits(&self) -> u64 {
        0
    }

    /// Whether this policy's transitions are per-set independent (see
    /// [`ShardAffinity`]). Defaults to [`ShardAffinity::Global`] — the
    /// conservative answer: the sharded engine then replays the policy
    /// sequentially, which is always correct. Policies whose state is
    /// provably per-set opt in to [`ShardAffinity::SetLocal`].
    fn shard_affinity(&self) -> ShardAffinity {
        ShardAffinity::Global
    }

    /// A plain-data [`SliceKernel`](crate::slice::SliceKernel) description
    /// of this policy for the bit-sliced replay engine, or `None` (the
    /// default) if its transitions cannot be expressed as one.
    ///
    /// A policy may only return `Some` when the kernel reproduces its
    /// `victim`/`on_hit`/`on_miss`/`on_fill` *exactly* (same victim on
    /// every full set, same state after every transition, starting from
    /// the same initial state) and its `on_evict`/`should_bypass` are the
    /// trait defaults — the sliced engine never calls back into the policy
    /// object. Only a [`SliceKernel::Duel`](crate::slice::SliceKernel)
    /// expresses a non-default `on_miss` (leader misses feeding PSEL). Engines still validate the kernel against the concrete
    /// geometry via [`SliceKernel::supports`](crate::slice::SliceKernel)
    /// and fall back to the monomorphized replay when it declines.
    fn slice_kernel(&self) -> Option<crate::slice::SliceKernel> {
        None
    }

    /// Canonical digest of this policy's state *attributable to `set`*, or
    /// `None` (the default) when the policy does not support state auditing.
    ///
    /// Used by the bounded model checker and the shard-affinity auditor
    /// (`sim-verify`, `xtask model-check`). The contract mirrors the
    /// soundness obligation of `sim_lint::bounded`: two per-set states with
    /// equal digests must be behaviourally indistinguishable *for that set*.
    /// Unbounded monotone state (timestamps, clocks) must be canonicalized —
    /// e.g. reduced to within-set rank order or rebased against the running
    /// minimum — precisely the reduction that justifies a
    /// [`ShardAffinity::SetLocal`] claim in the first place.
    fn audit_set_digest(&self, _set: usize) -> Option<Vec<u8>> {
        None
    }

    /// Canonical digest of this policy's cross-set state (duel counters,
    /// shared predictor tables, RNG words). Defaults to empty — correct for
    /// policies whose state fully decomposes per set. Policies overriding
    /// [`audit_set_digest`](ReplacementPolicy::audit_set_digest) while
    /// keeping mutable global state must override this too, or the model
    /// checker will merge states it should distinguish.
    fn audit_global_digest(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Checks the policy's internal metadata invariants (counter saturation,
    /// list-capacity bounds, partition disjointness, …), returning
    /// `Err(description)` on violation. Called by the bounded model checker
    /// after every transition; the default has nothing to check.
    fn audit_invariants(&self) -> Result<(), String> {
        Ok(())
    }
}

/// Turns a boxed policy into a [`MonoEngine`] for its concrete type.
///
/// The blanket impl covers every `'static` [`ReplacementPolicy`], and as
/// a supertrait this method sits in the trait object's vtable: called on
/// a `Box<dyn ReplacementPolicy>`, it reaches the concrete policy's impl
/// and returns a `SetAssocCache<ConcretePolicy>`, whose per-access loop
/// inlines every callback. The caller pays one virtual call per chunk
/// of accesses instead of one per callback, and no factory changes.
///
/// Box a concrete policy *once* before calling it: on a
/// `Box<Box<dyn ReplacementPolicy>>` the blanket impl sees the outer box
/// as the policy, and the engine steps the boxed callbacks.
pub trait IntoMonoEngine {
    /// A cold [`SetAssocCache`] of `geom` driving
    /// this policy, behind the chunk interface.
    fn into_mono_engine(self: Box<Self>, geom: CacheGeometry) -> Box<dyn MonoEngine>;
}

impl<P: ReplacementPolicy + 'static> IntoMonoEngine for P {
    fn into_mono_engine(self: Box<Self>, geom: CacheGeometry) -> Box<dyn MonoEngine> {
        Box::new(SetAssocCache::with_policy(geom, *self))
    }
}

/// Boxed policies are policies too: this keeps `Box<dyn ReplacementPolicy>`
/// usable as the default policy parameter of
/// [`SetAssocCache`] while concrete types take the
/// monomorphized fast path.
impl<P: ReplacementPolicy + ?Sized + 'static> ReplacementPolicy for Box<P> {
    #[inline]
    fn name(&self) -> &str {
        (**self).name()
    }

    #[inline]
    fn victim(&mut self, set: usize, ctx: &AccessContext) -> usize {
        (**self).victim(set, ctx)
    }

    #[inline]
    fn on_hit(&mut self, set: usize, way: usize, ctx: &AccessContext) {
        (**self).on_hit(set, way, ctx)
    }

    #[inline]
    fn on_fill(&mut self, set: usize, way: usize, ctx: &AccessContext) {
        (**self).on_fill(set, way, ctx)
    }

    #[inline]
    fn on_miss(&mut self, set: usize, ctx: &AccessContext) {
        (**self).on_miss(set, ctx)
    }

    #[inline]
    fn on_evict(&mut self, set: usize, way: usize) {
        (**self).on_evict(set, way)
    }

    #[inline]
    fn should_bypass(&mut self, set: usize, ctx: &AccessContext) -> bool {
        (**self).should_bypass(set, ctx)
    }

    #[inline]
    fn bits_per_set(&self) -> u64 {
        (**self).bits_per_set()
    }

    #[inline]
    fn global_bits(&self) -> u64 {
        (**self).global_bits()
    }

    #[inline]
    fn shard_affinity(&self) -> ShardAffinity {
        (**self).shard_affinity()
    }

    #[inline]
    fn slice_kernel(&self) -> Option<crate::slice::SliceKernel> {
        (**self).slice_kernel()
    }

    #[inline]
    fn audit_set_digest(&self, set: usize) -> Option<Vec<u8>> {
        (**self).audit_set_digest(set)
    }

    #[inline]
    fn audit_global_digest(&self) -> Vec<u8> {
        (**self).audit_global_digest()
    }

    #[inline]
    fn audit_invariants(&self) -> Result<(), String> {
        (**self).audit_invariants()
    }
}

/// A constructor for policy instances, used by sweeps that simulate the same
/// cache under many policies (and by multi-threaded experiments).
pub type PolicyFactory = Box<dyn Fn(&CacheGeometry) -> Box<dyn ReplacementPolicy> + Send + Sync>;

/// Wraps a closure into a [`PolicyFactory`].
///
/// # Example
///
/// ```
/// use sim_core::policy::{factory, fifo_like_fixture::AlwaysWayZero};
/// use sim_core::CacheGeometry;
///
/// # fn main() -> Result<(), sim_core::GeometryError> {
/// let f = factory(|geom| Box::new(AlwaysWayZero::new(geom)));
/// let geom = CacheGeometry::new(4096, 4, 64)?;
/// assert_eq!(f(&geom).bits_per_set(), 0);
/// # Ok(())
/// # }
/// ```
pub fn factory<F>(f: F) -> PolicyFactory
where
    F: Fn(&CacheGeometry) -> Box<dyn ReplacementPolicy> + Send + Sync + 'static,
{
    Box::new(f)
}

/// A deliberately bad fixture policy used in documentation examples and
/// substrate tests: it always evicts way 0 and keeps no state.
pub mod fifo_like_fixture {
    use super::*;

    /// Evicts way 0 unconditionally. Zero metadata.
    #[derive(Debug, Clone, Default)]
    pub struct AlwaysWayZero;

    impl AlwaysWayZero {
        /// Creates the fixture; geometry is accepted for interface symmetry.
        pub fn new(_geom: &CacheGeometry) -> Self {
            AlwaysWayZero
        }
    }

    impl ReplacementPolicy for AlwaysWayZero {
        fn name(&self) -> &str {
            "always-way-0"
        }

        fn victim(&mut self, _set: usize, _ctx: &AccessContext) -> usize {
            0
        }

        fn on_hit(&mut self, _set: usize, _way: usize, _ctx: &AccessContext) {}

        fn on_fill(&mut self, _set: usize, _way: usize, _ctx: &AccessContext) {}

        fn bits_per_set(&self) -> u64 {
            0
        }

        fn shard_affinity(&self) -> ShardAffinity {
            ShardAffinity::SetLocal
        }
    }
}

#[cfg(test)]
mod tests {
    use super::fifo_like_fixture::AlwaysWayZero;
    use super::*;

    #[test]
    fn fixture_behaviour() {
        let geom = CacheGeometry::new(4096, 4, 64).unwrap();
        let mut p = AlwaysWayZero::new(&geom);
        assert_eq!(p.victim(3, &AccessContext::blank()), 0);
        assert_eq!(p.bits_per_set(), 0);
        assert_eq!(p.global_bits(), 0);
        assert!(!p.should_bypass(0, &AccessContext::blank()));
        assert_eq!(p.name(), "always-way-0");
    }

    #[test]
    fn factory_is_reusable() {
        let f = factory(|g| Box::new(AlwaysWayZero::new(g)));
        let geom = CacheGeometry::new(4096, 4, 64).unwrap();
        let a = f(&geom);
        let b = f(&geom);
        assert_eq!(a.name(), b.name());
    }
}
