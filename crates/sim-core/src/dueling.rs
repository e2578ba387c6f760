//! Set-dueling: leader-set selection and policy-selection counters.
//!
//! Set-dueling (Qureshi et al., ISCA 2007) dedicates a few *leader sets* to
//! each candidate policy and lets the remaining *follower sets* adopt
//! whichever candidate is currently missing less. The paper's 2-DGIPPR uses
//! one 11-bit PSEL counter; 4-DGIPPR uses three (two pair counters and a
//! meta counter, after Loh's multi-queue dueling).

use std::error::Error;
use std::fmt;

/// Error returned when a dueling configuration is inconsistent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DuelingError {
    /// `sets` was zero or not a power of two.
    BadSetCount(usize),
    /// `leaders_per_policy` does not divide the set count, or leaves regions
    /// too small to host one leader per policy.
    BadLeaderCount {
        /// Requested leaders per policy.
        leaders_per_policy: usize,
        /// Total sets in the cache.
        sets: usize,
        /// Number of competing policies.
        policies: usize,
    },
}

impl fmt::Display for DuelingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DuelingError::BadSetCount(n) => {
                write!(f, "set count {n} must be a nonzero power of two")
            }
            DuelingError::BadLeaderCount {
                leaders_per_policy,
                sets,
                policies,
            } => write!(
                f,
                "cannot place {leaders_per_policy} leaders per policy for {policies} policies \
                 in {sets} sets"
            ),
        }
    }
}

impl Error for DuelingError {}

/// A saturating up/down policy-selection counter.
///
/// Semantics follow the paper: the counter counts **up** when the first
/// policy of a duel misses in its leader sets and **down** when the second
/// does; followers adopt the first policy while the counter is negative.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Psel {
    value: i32,
    min: i32,
    max: i32,
    bits: u32,
}

impl Psel {
    /// Creates a zeroed counter of `bits` width (paper uses 11).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 31.
    pub fn new(bits: u32) -> Self {
        assert!(bits > 0 && bits < 32, "PSEL width must be in 1..=31");
        let half = 1i32 << (bits - 1);
        Psel {
            value: 0,
            min: -half,
            max: half - 1,
            bits,
        }
    }

    /// Current counter value.
    pub fn value(&self) -> i32 {
        self.value
    }

    /// Counter width in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Records a miss by the first dueled policy (counts up, saturating).
    #[inline]
    pub fn up(&mut self) {
        self.value = (self.value + 1).min(self.max);
    }

    /// Records a miss by the second dueled policy (counts down, saturating).
    #[inline]
    pub fn down(&mut self) {
        self.value = (self.value - 1).max(self.min);
    }

    /// Index (0 or 1) of the policy followers should adopt: the first while
    /// the counter is below zero, otherwise the second.
    #[inline]
    pub fn winner(&self) -> usize {
        usize::from(self.value >= 0)
    }
}

/// The role a set plays in a duel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetRole {
    /// The set always runs candidate policy `.0` and feeds the counters.
    Leader(usize),
    /// The set runs whichever candidate currently wins.
    Follower,
}

/// Assigns leader sets to candidate policies.
///
/// The cache's sets are divided into `leaders_per_policy` equally sized
/// constituencies; inside each constituency one set is dedicated to each
/// candidate at an offset that varies per constituency, so leaders are
/// spread over the whole index space rather than clustered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaderMap {
    sets: usize,
    policies: usize,
    /// `log2(region_size)`: regions are a power of two because `sets` is
    /// and `leaders_per_policy` divides it, so [`LeaderMap::role`] needs
    /// only shifts and masks.
    region_shift: u32,
    stride: usize,
    salt: usize,
}

impl LeaderMap {
    /// Creates a map for `policies` candidates over `sets` sets with
    /// `leaders_per_policy` leader sets each (32 is the customary value for
    /// a 4096-set LLC).
    ///
    /// # Errors
    ///
    /// Returns [`DuelingError`] when the sets cannot be partitioned as
    /// requested.
    pub fn new(
        sets: usize,
        policies: usize,
        leaders_per_policy: usize,
    ) -> Result<Self, DuelingError> {
        Self::new_salted(sets, policies, leaders_per_policy, 0)
    }

    /// Like [`LeaderMap::new`] with a `salt` that shifts every leader's
    /// placement, so independent duels on the same cache (e.g. DGIPPR's
    /// vector duel plus its bypass duel) do not pin their leaders to the
    /// same sets.
    ///
    /// # Errors
    ///
    /// Returns [`DuelingError`] when the sets cannot be partitioned as
    /// requested.
    pub fn new_salted(
        sets: usize,
        policies: usize,
        leaders_per_policy: usize,
        salt: usize,
    ) -> Result<Self, DuelingError> {
        if sets == 0 || !sets.is_power_of_two() {
            return Err(DuelingError::BadSetCount(sets));
        }
        if leaders_per_policy == 0
            || policies == 0
            || sets % leaders_per_policy != 0
            || sets / leaders_per_policy < policies
        {
            return Err(DuelingError::BadLeaderCount {
                leaders_per_policy,
                sets,
                policies,
            });
        }
        let region_size = sets / leaders_per_policy;
        debug_assert!(region_size.is_power_of_two());
        Ok(LeaderMap {
            sets,
            policies,
            region_shift: region_size.trailing_zeros(),
            stride: region_size / policies,
            salt,
        })
    }

    /// Total sets covered by this map.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Number of candidate policies.
    pub fn policies(&self) -> usize {
        self.policies
    }

    /// The leader-placement salt (see [`LeaderMap::new_salted`]).
    pub fn salt(&self) -> usize {
        self.salt
    }

    /// The role of `set` in the duel.
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range.
    #[inline]
    pub fn role(&self, set: usize) -> SetRole {
        assert!(
            set < self.sets,
            "set {set} out of range (sets = {})",
            self.sets
        );
        // `x % region_size` is `x & mask` for a power-of-two region.
        let mask = (1usize << self.region_shift) - 1;
        let region = set >> self.region_shift;
        let offset = set & mask;
        // Spread each constituency's leaders to a different offset so a
        // pathological stride in the workload cannot hammer only leaders.
        let base = region.wrapping_mul(0x9e37_79b9).wrapping_add(self.salt) & mask;
        for p in 0..self.policies {
            if offset == (base + p * self.stride) & mask {
                return SetRole::Leader(p);
            }
        }
        SetRole::Follower
    }

    /// Number of leader sets per policy.
    pub fn leaders_per_policy(&self) -> usize {
        self.sets >> self.region_shift
    }
}

/// The counter arrangement used by a duel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Selector {
    /// A fixed winner; no counters (degenerate, used for single-policy runs).
    Static(usize),
    /// Two candidates, one PSEL counter (DIP, DRRIP, 2-DGIPPR).
    Two(Psel),
    /// Four candidates: pair counters plus a meta counter (4-DGIPPR).
    Four {
        /// Duel between candidates 0 and 1.
        p01: Psel,
        /// Duel between candidates 2 and 3.
        p23: Psel,
        /// Duel between the two pairs.
        meta: Psel,
    },
}

impl Selector {
    /// Zeroed counters of `bits` width for `policies` candidates: one PSEL
    /// for two, the pair-plus-meta tournament for four.
    ///
    /// # Panics
    ///
    /// Panics unless `policies` is 2 or 4, or if `bits` is not a valid
    /// [`Psel`] width.
    pub fn new(policies: usize, bits: u32) -> Self {
        match policies {
            2 => Selector::Two(Psel::new(bits)),
            4 => Selector::Four {
                p01: Psel::new(bits),
                p23: Psel::new(bits),
                meta: Psel::new(bits),
            },
            n => panic!("set dueling runs 2 or 4 candidates, got {n}"),
        }
    }

    /// Routes a leader-set miss by candidate `policy` into the counters.
    #[inline]
    pub fn record_miss(&mut self, policy: usize) {
        match self {
            Selector::Static(_) => {}
            Selector::Two(psel) => match policy {
                0 => psel.up(),
                _ => psel.down(),
            },
            Selector::Four { p01, p23, meta } => {
                match policy {
                    0 => p01.up(),
                    1 => p01.down(),
                    2 => p23.up(),
                    _ => p23.down(),
                }
                // The meta counter duels pair {0,1} against pair {2,3}.
                if policy < 2 {
                    meta.up();
                } else {
                    meta.down();
                }
            }
        }
    }

    /// The candidate followers should currently adopt.
    #[inline]
    pub fn winner(&self) -> usize {
        match self {
            Selector::Static(p) => *p,
            Selector::Two(psel) => psel.winner(),
            Selector::Four { p01, p23, meta } => {
                if meta.winner() == 0 {
                    p01.winner()
                } else {
                    2 + p23.winner()
                }
            }
        }
    }

    /// Total counter storage in bits.
    pub fn counter_bits(&self) -> u64 {
        match self {
            Selector::Static(_) => 0,
            Selector::Two(p) => u64::from(p.bits()),
            Selector::Four { p01, p23, meta } => {
                u64::from(p01.bits()) + u64::from(p23.bits()) + u64::from(meta.bits())
            }
        }
    }
}

/// A leader map plus selector: the full set-dueling mechanism.
///
/// # Example
///
/// ```
/// use sim_core::dueling::DuelController;
///
/// # fn main() -> Result<(), sim_core::dueling::DuelingError> {
/// let mut duel = DuelController::two(4096, 32, 11)?;
/// // Hammer policy 0's leader sets with misses; followers switch to 1.
/// for set in 0..4096 {
///     if duel.policy_for_set(set) == 0 {
///         duel.record_miss(set);
///     }
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DuelController {
    map: LeaderMap,
    selector: Selector,
}

impl DuelController {
    /// Creates a two-candidate duel with one `bits`-wide PSEL counter.
    ///
    /// # Errors
    ///
    /// Propagates [`DuelingError`] from leader-map construction.
    pub fn two(sets: usize, leaders_per_policy: usize, bits: u32) -> Result<Self, DuelingError> {
        Self::two_salted(sets, leaders_per_policy, bits, 0)
    }

    /// Like [`DuelController::two`] with a leader-placement salt (see
    /// [`LeaderMap::new_salted`]).
    ///
    /// # Errors
    ///
    /// Propagates [`DuelingError`] from leader-map construction.
    pub fn two_salted(
        sets: usize,
        leaders_per_policy: usize,
        bits: u32,
        salt: usize,
    ) -> Result<Self, DuelingError> {
        Ok(DuelController {
            map: LeaderMap::new_salted(sets, 2, leaders_per_policy, salt)?,
            selector: Selector::new(2, bits),
        })
    }

    /// Creates a four-candidate tournament with three `bits`-wide counters.
    ///
    /// # Errors
    ///
    /// Propagates [`DuelingError`] from leader-map construction.
    pub fn four(sets: usize, leaders_per_policy: usize, bits: u32) -> Result<Self, DuelingError> {
        Ok(DuelController {
            map: LeaderMap::new(sets, 4, leaders_per_policy)?,
            selector: Selector::new(4, bits),
        })
    }

    /// The leader map in use.
    pub fn leader_map(&self) -> &LeaderMap {
        &self.map
    }

    /// The candidate policy `set` should execute right now: leaders run
    /// their own candidate, followers run the current winner.
    #[inline]
    pub fn policy_for_set(&self, set: usize) -> usize {
        match self.map.role(set) {
            SetRole::Leader(p) => p,
            SetRole::Follower => self.selector.winner(),
        }
    }

    /// Feeds a miss in `set` into the counters (no-op for followers).
    #[inline]
    pub fn record_miss(&mut self, set: usize) {
        if let SetRole::Leader(p) = self.map.role(set) {
            self.selector.record_miss(p);
        }
    }

    /// The candidate followers currently adopt.
    #[inline]
    pub fn winner(&self) -> usize {
        self.selector.winner()
    }

    /// Total counter storage in bits (the paper's "33 bits for the entire
    /// microprocessor" for 4-DGIPPR).
    pub fn counter_bits(&self) -> u64 {
        self.selector.counter_bits()
    }

    /// Width of each PSEL counter (0 for a static selector).
    pub fn psel_bits(&self) -> u32 {
        match &self.selector {
            Selector::Static(_) => 0,
            Selector::Two(p) | Selector::Four { p01: p, .. } => p.bits(),
        }
    }

    /// Canonical bytes of the mutable counter state, for
    /// `ReplacementPolicy::audit_global_digest`. The leader map is static
    /// configuration and is excluded.
    pub fn audit_digest(&self) -> Vec<u8> {
        match &self.selector {
            Selector::Static(p) => (*p as u32).to_le_bytes().to_vec(),
            Selector::Two(psel) => psel.value().to_le_bytes().to_vec(),
            Selector::Four { p01, p23, meta } => [p01, p23, meta]
                .iter()
                .flat_map(|p| p.value().to_le_bytes())
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn psel_saturates_both_ends() {
        let mut p = Psel::new(4); // range [-8, 7]
        for _ in 0..100 {
            p.up();
        }
        assert_eq!(p.value(), 7);
        for _ in 0..100 {
            p.down();
        }
        assert_eq!(p.value(), -8);
    }

    #[test]
    fn psel_winner_semantics_match_paper() {
        let mut p = Psel::new(11);
        assert_eq!(p.winner(), 1, "counter at zero: follow second policy");
        p.down();
        assert_eq!(p.winner(), 0, "negative counter: follow first policy");
    }

    #[test]
    #[should_panic(expected = "PSEL width")]
    fn psel_rejects_zero_width() {
        let _ = Psel::new(0);
    }

    #[test]
    fn leader_map_counts() {
        let map = LeaderMap::new(4096, 2, 32).unwrap();
        let mut counts = [0usize; 2];
        let mut followers = 0;
        for s in 0..4096 {
            match map.role(s) {
                SetRole::Leader(p) => counts[p] += 1,
                SetRole::Follower => followers += 1,
            }
        }
        assert_eq!(counts, [32, 32]);
        assert_eq!(followers, 4096 - 64);
    }

    #[test]
    fn leader_map_four_policies_disjoint() {
        let map = LeaderMap::new(4096, 4, 32).unwrap();
        let mut counts = [0usize; 4];
        for s in 0..4096 {
            if let SetRole::Leader(p) = map.role(s) {
                counts[p] += 1;
            }
        }
        assert_eq!(counts, [32, 32, 32, 32]);
    }

    /// The original division formula for [`LeaderMap::role`], kept as
    /// the oracle for the shift-and-mask implementation.
    fn role_by_division(
        sets: usize,
        policies: usize,
        leaders: usize,
        salt: usize,
        set: usize,
    ) -> SetRole {
        let region_size = sets / leaders;
        let stride = region_size / policies;
        let region = set / region_size;
        let offset = set % region_size;
        let base = region.wrapping_mul(0x9e37_79b9).wrapping_add(salt) % region_size;
        for p in 0..policies {
            if offset == (base + p * stride) % region_size {
                return SetRole::Leader(p);
            }
        }
        SetRole::Follower
    }

    #[test]
    fn masked_role_matches_division_formula() {
        let mut checked = 0;
        for sets in [64usize, 512, 1024, 4096] {
            for policies in [2usize, 4] {
                for leaders in [1usize, 2, 4, 8, 16, 32, 64] {
                    for salt in [0usize, 7] {
                        let Ok(map) = LeaderMap::new_salted(sets, policies, leaders, salt) else {
                            continue;
                        };
                        assert_eq!(map.leaders_per_policy(), leaders);
                        for set in 0..sets {
                            assert_eq!(
                                map.role(set),
                                role_by_division(sets, policies, leaders, salt, set),
                                "sets={sets} policies={policies} leaders={leaders} \
                                 salt={salt} set={set}"
                            );
                        }
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked >= 40, "too few layouts checked: {checked}");
    }

    #[test]
    fn selector_new_matches_controller_layouts() {
        assert_eq!(Selector::new(2, 11).counter_bits(), 11);
        assert_eq!(Selector::new(4, 11).counter_bits(), 33);
        assert_eq!(DuelController::two(4096, 32, 10).unwrap().psel_bits(), 10);
        assert_eq!(DuelController::four(4096, 32, 11).unwrap().psel_bits(), 11);
    }

    #[test]
    fn leader_map_rejects_bad_configs() {
        assert!(LeaderMap::new(0, 2, 32).is_err());
        assert!(LeaderMap::new(100, 2, 32).is_err()); // not a power of two
        assert!(LeaderMap::new(64, 2, 0).is_err());
        // 64 sets / 64 leaders = 1-set regions: cannot host 2 policies.
        assert!(LeaderMap::new(64, 2, 64).is_err());
    }

    #[test]
    fn two_way_duel_converges() {
        let mut d = DuelController::two(1024, 16, 11).unwrap();
        // Only policy 1's leaders miss -> followers should pick policy 0.
        for _ in 0..3 {
            for s in 0..1024 {
                if let SetRole::Leader(1) = d.leader_map().role(s) {
                    d.record_miss(s);
                }
            }
        }
        assert_eq!(d.winner(), 0);
        // Leaders keep their own policies regardless.
        for s in 0..1024 {
            if let SetRole::Leader(p) = d.leader_map().role(s) {
                assert_eq!(d.policy_for_set(s), p);
            } else {
                assert_eq!(d.policy_for_set(s), 0);
            }
        }
    }

    #[test]
    fn four_way_tournament_picks_least_missing() {
        let mut d = DuelController::four(4096, 32, 11).unwrap();
        // Miss everywhere except policy 2's leaders: winner must be 2.
        for _ in 0..5 {
            for s in 0..4096 {
                match d.leader_map().role(s) {
                    SetRole::Leader(2) => {}
                    SetRole::Leader(_) => d.record_miss(s),
                    SetRole::Follower => {}
                }
            }
        }
        assert_eq!(d.winner(), 2);
    }

    #[test]
    fn four_way_meta_counter_weighs_pairs() {
        let mut d = DuelController::four(4096, 32, 11).unwrap();
        // Pair {0,1} misses a lot; within pair {2,3}, candidate 3 misses more.
        for _ in 0..5 {
            for s in 0..4096 {
                match d.leader_map().role(s) {
                    SetRole::Leader(0) | SetRole::Leader(1) => d.record_miss(s),
                    SetRole::Leader(3) => d.record_miss(s),
                    _ => {}
                }
            }
        }
        assert_eq!(d.winner(), 2);
    }

    #[test]
    fn counter_bits_match_paper() {
        let two = DuelController::two(4096, 32, 11).unwrap();
        assert_eq!(two.counter_bits(), 11);
        let four = DuelController::four(4096, 32, 11).unwrap();
        assert_eq!(four.counter_bits(), 33);
    }

    #[test]
    fn static_selector_never_changes() {
        let mut s = Selector::Static(1);
        s.record_miss(0);
        s.record_miss(1);
        assert_eq!(s.winner(), 1);
        assert_eq!(s.counter_bits(), 0);
    }

    #[test]
    fn error_display() {
        assert!(!DuelingError::BadSetCount(3).to_string().is_empty());
        let e = DuelingError::BadLeaderCount {
            leaders_per_policy: 1,
            sets: 2,
            policies: 4,
        };
        assert!(!e.to_string().is_empty());
    }
}
