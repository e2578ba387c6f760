//! Bit-sliced replay kernel: packed replacement state advanced with
//! word-parallel ALU ops.
//!
//! A 16-way tree PseudoLRU set is 15 bits of state; this module packs
//! four such trees (one per 16-bit lane) into a single `u64` and runs
//! victim selection, position reads, and position writes directly on the
//! packed word — no per-set struct, no bounds-checked `Vec<PlruTree>`
//! indexing, and co-resident sets share cache lines. Recency stacks and
//! RRPV arrays get the same treatment as 4-bit-per-way nibble vectors
//! driven by SWAR (SIMD-within-a-register) find/shift ops.
//!
//! The kernel is *data-driven*: a policy that qualifies describes itself
//! as a [`SliceKernel`] (via
//! [`ReplacementPolicy::slice_kernel`](crate::ReplacementPolicy::slice_kernel)),
//! and [`SlicedCache`] interprets that description over a stream, fed in
//! any chunking, with the exact per-access protocol of the mono engine's
//! [`SetAssocCache::access_fast`](crate::SetAssocCache::access_fast) —
//! same statistics fields, same fill-invalid-first rule, same
//! dirty/writeback accounting — so final stats are bit-identical to a
//! monomorphized sequential replay (proven roster-wide by `sim-verify`).
//!
//! Because a fill takes the lowest invalid way and this engine never
//! invalidates a line, each set's valid lines form a prefix of its ways.
//! `step` leans on that: its tag scan builds only the match mask, and a
//! miss reads the last way's valid bit to learn whether the set is full;
//! the first invalid way is looked up only while a set is still filling.
//!
//! The one per-access `step` records in one of two modes, fixed at
//! compile time. The full mode ([`SlicedCache::feed`],
//! [`SlicedCache::access_block`]) is that exact protocol and serves batch
//! replay, the serving daemon and the L1/L2 capture. The miss-count mode
//! ([`SlicedCache::count_misses`]) serves GA fitness, whose linear CPI
//! model reads nothing but misses: it runs the same replacement
//! transitions and keeps no dirty bits, no other counters and no cycle
//! sink.
//!
//! Set-dueling policies (DGIPPR, DIP, DRRIP) describe themselves as a
//! [`SliceKernel::Duel`]: 2 or 4 per-side tables of one family over the
//! *same* packed words, plus three pieces of duel state the engine keeps
//! beside them — a per-set role byte precomputed from
//! [`LeaderMap::role`](crate::dueling::LeaderMap::role), the
//! [`Selector`] counters fed by leader-set
//! misses, and an optional bimodal fill tick (BIP's and BRRIP's ε).
//!
//! Lane layout for the PLRU family (16-way shown; `k`-way uses
//! `64 / k`-lane words, each lane `k` bits: `k - 1` tree bits plus one
//! pad bit that is never written):
//!
//! ```text
//!   u64 word:  [ lane 3 | lane 2 | lane 1 | lane 0 ]   4 sets per word
//!   lane bits:  b14 .. b1 b0 | pad                      node i at bit i-1
//! ```
//!
//! Lane moves are table-driven: `static` tables, built by `const fn` for
//! each supported associativity, hold every way's path mask and the path
//! bits that place it at each position, so a promotion or insertion is
//! one masked OR; the victim walk looks up the top ≤ 3 tree levels at
//! once (one more bit read finishes a 16-way tree).
//!
//! [`kernel_soundness_sweep`] checks the packed state that actually runs:
//! it drives the replay interpreters (`PlruLanes`, `StackList`,
//! `RripNibbles`, alone or under a duel's side dispatch) transition by
//! transition against independent scalar models for every kernel shape at
//! every lane offset, exhaustively wherever the state space permits. For
//! the PLRU family the model is `sim_lint::MirrorTree`, every
//! `(way, position)` lane write (so every move-table entry) is checked as
//! well as every victim, hit and fill, and sibling lanes hold a poison
//! pattern whose integrity (with the pad bit) is asserted after every
//! operation, so any cross-lane contamination is caught immediately. It
//! also drives the miss-count mode against a full-mode twin, comparing
//! the hit and the packed state after every access.

#![forbid(unsafe_code)]

use crate::access::{Access, AccessKind};
use crate::cache::{Evicted, LINE_DIRTY, LINE_TAG_MASK, LINE_VALID};
use crate::dueling::{LeaderMap, Selector, SetRole};
use crate::geometry::CacheGeometry;
use crate::stats::CacheStats;
use sim_lint::{MirrorTree, PlruState};

/// A plain-data description of a qualifying replacement policy, complete
/// enough for [`SlicedCache`] to reproduce its transitions exactly.
///
/// A policy may only return one of these (from
/// [`ReplacementPolicy::slice_kernel`](crate::ReplacementPolicy::slice_kernel))
/// if its `on_evict` and `should_bypass` are the trait defaults (no-op /
/// never bypass) and every other callback is fully determined by the
/// kernel data below — the sliced engine never calls back into the
/// policy object. The three single-table shapes also require the
/// default (no-op) `on_miss`; a [`SliceKernel::Duel`] reproduces exactly
/// one `on_miss`: feeding leader-set misses into the duel's counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SliceKernel {
    /// Tree PseudoLRU driven by an insertion/promotion vector
    /// `V[0..=k]`: a hit at pseudo-position `p` rewrites the block to
    /// position `V[p]`, a fill lands at `V[k]`, the victim sits at
    /// position `k - 1`. Plain PLRU is the all-zero vector.
    PlruIpv {
        /// The `k + 1` vector entries, each `< k`.
        ipv: Vec<u8>,
    },
    /// A true-LRU recency stack driven by an insertion/promotion vector
    /// with shift-by-one move semantics (GIPLR). True LRU is the
    /// all-zero vector.
    StackIpv {
        /// The `k + 1` vector entries, each `< k`.
        ipv: Vec<u8>,
    },
    /// RRIP with a 5-entry vector `V[0..=4]`: a hit at RRPV `i` rewrites
    /// to `V[i]`, a fill installs `V[4]`; the victim is the lowest way
    /// at max RRPV, aging all ways until one exists. SRRIP is
    /// `[0, 0, 0, 0, 2]`.
    RripIpv {
        /// Promotion targets for RRPVs 0–3 plus the insertion RRPV.
        vector: [u8; 5],
    },
    /// Set dueling among 2 or 4 sides of one single-table family over
    /// one shared packed state (one PLRU tree, stack or RRPV array per
    /// set, whichever side last touched it). Leader sets always apply
    /// their own side's table and feed their misses into the
    /// [`Selector`] counters; follower sets apply the current winner's.
    /// This is `DuelController` semantics exactly: the layout is
    /// `LeaderMap::new_salted(sets, sides, leaders_per_side, salt)`.
    Duel {
        /// The per-side tables, 2 or 4 of the same single-table family.
        sides: Vec<SliceKernel>,
        /// Leader sets dedicated to each side.
        leaders_per_side: usize,
        /// Leader-placement salt (`LeaderMap::new_salted`).
        salt: usize,
        /// Width of each PSEL counter.
        psel_bits: u32,
        /// An optional bimodal insertion rule for one side.
        bimodal: Option<Bimodal>,
    },
}

/// A bimodal insertion rule (BIP's and BRRIP's ε = 1/`every`): side
/// `side` inserts at its own position except on every `every`-th fill of
/// that side, which inserts at `rare`. The tick counts that side's fills
/// in every set, leader or follower.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bimodal {
    /// The side that inserts bimodally.
    pub side: usize,
    /// Period of the rare insertion, at least 1.
    pub every: u64,
    /// The rare insertion position (an RRPV for the RRIP family).
    pub rare: u8,
}

impl SliceKernel {
    /// Whether [`SlicedCache`] can run this kernel on `geom`: the
    /// associativity must be a power of two in `2..=16`, the vector
    /// entries must be in range, and a duel's leader layout must fit the
    /// set count.
    pub fn supports(&self, geom: &CacheGeometry) -> bool {
        self.supports_ways(geom.ways())
            && match self {
                SliceKernel::Duel {
                    sides,
                    leaders_per_side,
                    salt,
                    ..
                } => LeaderMap::new_salted(geom.sets(), sides.len(), *leaders_per_side, *salt)
                    .is_ok(),
                _ => true,
            }
    }

    /// [`supports`](Self::supports) without the set-count check: the
    /// tables (and a duel's shape) are valid at `ways`.
    fn supports_ways(&self, ways: usize) -> bool {
        if !matches!(ways, 2 | 4 | 8 | 16) {
            return false;
        }
        match self {
            SliceKernel::PlruIpv { ipv } | SliceKernel::StackIpv { ipv } => {
                ipv.len() == ways + 1 && ipv.iter().all(|&e| usize::from(e) < ways)
            }
            SliceKernel::RripIpv { vector } => vector.iter().all(|&e| e < 4),
            SliceKernel::Duel {
                sides,
                psel_bits,
                bimodal,
                ..
            } => {
                if !matches!(sides.len(), 2 | 4) {
                    return false;
                }
                let family = std::mem::discriminant(&sides[0]);
                let rare_ok = |rare: u8| match &sides[0] {
                    SliceKernel::RripIpv { .. } => rare < 4,
                    _ => usize::from(rare) < ways,
                };
                (1..32).contains(psel_bits)
                    && sides.iter().all(|s| {
                        std::mem::discriminant(s) == family
                            && !matches!(s, SliceKernel::Duel { .. })
                            && s.supports_ways(ways)
                    })
                    && bimodal.map_or(true, |b| {
                        b.side < sides.len() && b.every > 0 && rare_ok(b.rare)
                    })
            }
        }
    }

    /// Sets packed per `u64` state word at associativity `ways`: `64/k`
    /// for the PLRU family (the headline bit-slicing win), 1 for the
    /// nibble-vector kernels (a 16-way stack or RRPV array fills the
    /// word by itself). A duel packs like its sides.
    pub fn lanes(&self, ways: usize) -> usize {
        match self {
            SliceKernel::PlruIpv { .. } => 64 / ways,
            SliceKernel::StackIpv { .. } | SliceKernel::RripIpv { .. } => 1,
            SliceKernel::Duel { sides, .. } => sides.first().map_or(1, |s| s.lanes(ways)),
        }
    }
}

// ---------------------------------------------------------------------------
// PLRU lane math. A move rewrites a way's `log2 ways` path bits as a fixed
// function of (way, target position), so it is one masked OR of two
// `static` table entries; the victim walk reads the top ≤ 3 tree levels
// (≤ 7 node bits) in one lookup and finishes 16-way trees with one more
// bit. The tables are built by `const fn` at compile time, one per
// supported associativity. The hot kernel (where `ways` is a
// const-propagated literal, so the table address folds) and the kernel
// soundness sweep, which checks every entry lane by lane, call the same
// functions.
// ---------------------------------------------------------------------------

/// The move and victim tables of `ways`-way PLRU lanes (lane-relative
/// bits: node `i` at bit `i - 1`).
struct LaneTables {
    /// The tree bits on each way's root-to-leaf path.
    path: [u16; 16],
    /// `stored[way][pos]`: the path bits that place `way` at pseudo
    /// position `pos` (bit `i` of `pos` comes from the path's `i`-th node
    /// above the leaf: the node's bit if the child is a right child, its
    /// complement if left).
    stored: [[u16; 16]; 16],
    /// The victim walk over the top `min(log2 ways, 3)` levels, indexed
    /// by node bits 1..=7: the node it reaches (`ways + victim` for
    /// `ways ≤ 8`, one of the level-3 nodes 8..=15 at 16 ways).
    top: [u8; 128],
}

const fn lane_tables(ways: usize) -> LaneTables {
    let mut t = LaneTables {
        path: [0; 16],
        stored: [[0; 16]; 16],
        top: [0; 128],
    };
    let mut way = 0;
    while way < ways {
        let mut pos = 0;
        while pos < ways {
            let (mut node, mut i) = (ways + way, 0);
            let (mut path, mut stored) = (0u16, 0u16);
            while node > 1 {
                let parent = node / 2;
                let bit = (pos >> i) & 1;
                path |= 1 << (parent - 1);
                stored |= ((bit ^ ((node & 1) ^ 1)) as u16) << (parent - 1);
                node = parent;
                i += 1;
            }
            t.path[way] = path;
            t.stored[way][pos] = stored;
            pos += 1;
        }
        way += 1;
    }
    let top_leaves = if ways < 8 { ways } else { 8 };
    let mut idx = 0;
    while idx < 128 {
        let mut node = 1;
        while node < top_leaves {
            node = 2 * node + ((idx >> (node - 1)) & 1);
        }
        t.top[idx] = node as u8;
        idx += 1;
    }
    t
}

static LANES_2: LaneTables = lane_tables(2);
static LANES_4: LaneTables = lane_tables(4);
static LANES_8: LaneTables = lane_tables(8);
static LANES_16: LaneTables = lane_tables(16);

/// The tables for `ways` (2, 4, 8 or 16, which `supports` validated).
#[inline(always)]
fn lane_tables_at(ways: usize) -> &'static LaneTables {
    match ways {
        2 => &LANES_2,
        4 => &LANES_4,
        8 => &LANES_8,
        _ => &LANES_16,
    }
}

/// Victim walk over the tree in the lane at bit offset `off`: follow node
/// bits from the root (node 1, stored at `off`), 0 = left, 1 = right.
#[inline(always)]
fn lane_victim(word: u64, off: u32, ways: usize) -> usize {
    let lane = word >> off;
    let node = usize::from(lane_tables_at(ways).top[(lane & tree_mask(ways.min(8))) as usize]);
    if ways > 8 {
        // 16 ways: one level below the looked-up nodes 8..=15.
        2 * node + ((lane >> ((node - 1) & 63)) & 1) as usize - ways
    } else {
        node - ways
    }
}

/// Reads `way`'s pseudo recency position from the lane at `off`: walking
/// leaf-to-root, visited node `i` contributes bit `i` of the position —
/// the parent's bit if the node is a right child, its complement if left.
#[inline(always)]
fn lane_position(word: u64, off: u32, ways: usize, way: usize) -> usize {
    let mut node = ways + way;
    let mut pos = 0usize;
    let mut i = 0u32;
    while node > 1 {
        let parent = node / 2;
        let pbit = ((word >> (off + parent as u32 - 1)) & 1) as usize;
        pos |= (pbit ^ ((node & 1) ^ 1)) << i;
        node = parent;
        i += 1;
    }
    pos
}

/// Writes `way`'s position into the lane at `off`: one masked OR of the
/// way's path bits; sibling lanes untouched.
#[inline(always)]
fn lane_set_position(word: u64, off: u32, ways: usize, way: usize, position: usize) -> u64 {
    let t = lane_tables_at(ways);
    let path = u64::from(t.path[way & 15]);
    let stored = u64::from(t.stored[way & 15][position & 15]);
    (word & !(path << off)) | (stored << off)
}

/// Mask of a lane's `ways - 1` tree bits (lane-relative).
#[inline]
fn tree_mask(ways: usize) -> u64 {
    (1u64 << (ways - 1)) - 1
}

/// Deterministic non-zero filler for the lanes the soundness sweep is not
/// driving.
fn lane_poison(ways: usize, lane: usize) -> u64 {
    0x9e37_79b9_7f4a_7c15u64.rotate_left(lane as u32 * 7) & tree_mask(ways)
}

// ---------------------------------------------------------------------------
// Nibble SWAR: recency stacks and RRPV arrays as 4-bit-per-entry words.
// ---------------------------------------------------------------------------

/// `0x1111…` repeated over the low `ways` nibbles.
#[inline(always)]
fn nib_rep(ways: usize) -> u64 {
    (0x1111_1111_1111_1111u128 & ((1u128 << (4 * ways)) - 1)) as u64
}

/// Index of the lowest nibble of `word` equal to `target` (which must be
/// present among the low `ways` nibbles). Classic SWAR zero-detect on
/// `word ^ target·rep`: below the lowest genuine zero nibble no borrow
/// has started, so the lowest flagged nibble is exact.
#[inline(always)]
fn nib_find(word: u64, target: u64, ways: usize) -> usize {
    let rep = nib_rep(ways);
    let x = word ^ target.wrapping_mul(rep);
    let y = x.wrapping_sub(rep) & !x & (rep << 3);
    debug_assert_ne!(y, 0, "target nibble must be present");
    (y.trailing_zeros() / 4) as usize
}

/// Nibble `idx` of `word`.
#[inline(always)]
fn nib_read(word: u64, idx: usize) -> u64 {
    (word >> (4 * idx as u32)) & 0xF
}

/// `word` with nibble `idx` replaced by `val` (`val < 16`).
#[inline(always)]
fn nib_write(word: u64, idx: usize, val: u64) -> u64 {
    let sh = 4 * idx as u32;
    (word & !(0xFu64 << sh)) | (val << sh)
}

/// Bit mask covering nibbles `lo..hi` (i.e. bits `4·lo..4·hi`, `hi ≤ 16`).
#[inline(always)]
fn nib_span(lo: usize, hi: usize) -> u64 {
    ((1u128 << (4 * hi)) - (1u128 << (4 * lo))) as u64
}

/// Moves `way` from stack position `current` to `target` in a packed
/// nibble list (`nibble p` = way at position `p`), shifting the
/// intervening occupants by one — the packed twin of
/// `gippr::RecencyStack::move_to`.
#[inline(always)]
fn stack_move(list: u64, way: u64, current: usize, target: usize) -> u64 {
    match target.cmp(&current) {
        std::cmp::Ordering::Equal => list,
        std::cmp::Ordering::Less => {
            // Occupants of positions [target, current) slide up one.
            (list & !nib_span(target, current + 1))
                | ((list & nib_span(target, current)) << 4)
                | (way << (4 * target as u32))
        }
        std::cmp::Ordering::Greater => {
            // Occupants of positions (current, target] slide down one.
            (list & !nib_span(current, target + 1))
                | ((list & nib_span(current + 1, target + 1)) >> 4)
                | (way << (4 * target as u32))
        }
    }
}

// ---------------------------------------------------------------------------
// Packed per-kernel replacement state.
// ---------------------------------------------------------------------------

/// One side's rule, the same shape for every family: a hit moves a block
/// from its current position `p` (its RRPV for RRIP) to `promo[p]`, a fill
/// places it at `insert`.
#[derive(Clone, Copy, Default)]
struct Table {
    promo: [u8; 16],
    insert: u8,
}

impl Table {
    /// The table of a single-table kernel at associativity `ways`.
    fn of(kernel: &SliceKernel, ways: usize) -> Table {
        let mut promo = [0u8; 16];
        let insert = match kernel {
            SliceKernel::PlruIpv { ipv } | SliceKernel::StackIpv { ipv } => {
                promo[..ways].copy_from_slice(&ipv[..ways]);
                ipv[ways]
            }
            SliceKernel::RripIpv { vector } => {
                promo[..4].copy_from_slice(&vector[..4]);
                vector[4]
            }
            SliceKernel::Duel { .. } => unreachable!("a duel side is a single-table kernel"),
        };
        Table { promo, insert }
    }
}

/// The packed words of one kernel family: victim selection plus the two
/// table-driven moves every rule above reduces to. `ways` is passed by
/// the (const-dispatched) caller so every division and shift below folds
/// to a constant.
trait Words {
    /// Cold state for `sets` sets.
    fn new(sets: usize, ways: usize) -> Self;
    /// The packed words (the soundness sweep writes start states here).
    fn words(&mut self) -> &mut [u64];
    fn victim(&mut self, ways: usize, set: usize) -> usize;
    /// Moves `way` from its current position `p` to `promo[p]`.
    fn promote(&mut self, ways: usize, set: usize, way: usize, promo: &[u8; 16]);
    /// Places `way` at position `pos`.
    fn place(&mut self, ways: usize, set: usize, way: usize, pos: u8);
}

/// `64/k` PLRU trees per word, all starting at zero bits.
struct PlruLanes {
    words: Vec<u64>,
}

impl PlruLanes {
    #[inline(always)]
    fn locate(ways: usize, set: usize) -> (usize, u32) {
        let lanes = 64 / ways; // power of two: folds to shift + mask
        (set / lanes, ((set % lanes) * ways) as u32)
    }
}

impl Words for PlruLanes {
    fn new(sets: usize, ways: usize) -> Self {
        PlruLanes {
            words: vec![0u64; sets.div_ceil(64 / ways)],
        }
    }

    fn words(&mut self) -> &mut [u64] {
        &mut self.words
    }

    #[inline(always)]
    fn victim(&mut self, ways: usize, set: usize) -> usize {
        let (ix, off) = Self::locate(ways, set);
        lane_victim(self.words[ix], off, ways)
    }

    #[inline(always)]
    fn promote(&mut self, ways: usize, set: usize, way: usize, promo: &[u8; 16]) {
        let (ix, off) = Self::locate(ways, set);
        let w = self.words[ix];
        let pos = lane_position(w, off, ways, way);
        self.words[ix] = lane_set_position(w, off, ways, way, usize::from(promo[pos & 15]));
    }

    #[inline(always)]
    fn place(&mut self, ways: usize, set: usize, way: usize, pos: u8) {
        let (ix, off) = Self::locate(ways, set);
        self.words[ix] = lane_set_position(self.words[ix], off, ways, way, usize::from(pos));
    }
}

/// One packed recency stack per set: nibble `p` holds the way at
/// position `p`, starting from the identity permutation (way `p` at
/// position `p`, matching `RecencyStack::new`).
struct StackList {
    words: Vec<u64>,
}

impl Words for StackList {
    fn new(sets: usize, ways: usize) -> Self {
        let mut identity = 0u64;
        for p in 0..ways {
            identity |= (p as u64) << (4 * p as u32);
        }
        StackList {
            words: vec![identity; sets],
        }
    }

    fn words(&mut self) -> &mut [u64] {
        &mut self.words
    }

    #[inline(always)]
    fn victim(&mut self, ways: usize, set: usize) -> usize {
        nib_read(self.words[set], ways - 1) as usize
    }

    #[inline(always)]
    fn promote(&mut self, ways: usize, set: usize, way: usize, promo: &[u8; 16]) {
        let l = self.words[set];
        let pos = nib_find(l, way as u64, ways);
        self.words[set] = stack_move(l, way as u64, pos, usize::from(promo[pos & 15]));
    }

    #[inline(always)]
    fn place(&mut self, ways: usize, set: usize, way: usize, pos: u8) {
        let l = self.words[set];
        let cur = nib_find(l, way as u64, ways);
        self.words[set] = stack_move(l, way as u64, cur, usize::from(pos));
    }
}

/// One packed RRPV array per set: nibble `w` holds way `w`'s RRPV,
/// starting at max (3), matching the reference RRIP tables.
struct RripNibbles {
    words: Vec<u64>,
}

impl Words for RripNibbles {
    fn new(sets: usize, ways: usize) -> Self {
        RripNibbles {
            words: vec![nib_rep(ways).wrapping_mul(3); sets],
        }
    }

    fn words(&mut self) -> &mut [u64] {
        &mut self.words
    }

    #[inline(always)]
    fn victim(&mut self, ways: usize, set: usize) -> usize {
        let rep = nib_rep(ways);
        let max = rep.wrapping_mul(3);
        let word = &mut self.words[set];
        loop {
            let x = *word ^ max;
            let y = x.wrapping_sub(rep) & !x & (rep << 3);
            if y != 0 {
                // Lowest max nibble = lowest-index way at max RRPV,
                // matching the reference's ascending-way scan.
                return (y.trailing_zeros() / 4) as usize;
            }
            // Age every way by one. No nibble is at max here, so the
            // per-nibble add never carries.
            *word += rep;
        }
    }

    #[inline(always)]
    fn promote(&mut self, _ways: usize, set: usize, way: usize, promo: &[u8; 16]) {
        let r = nib_read(self.words[set], way) as usize;
        self.words[set] = nib_write(self.words[set], way, u64::from(promo[r & 3]));
    }

    #[inline(always)]
    fn place(&mut self, _ways: usize, set: usize, way: usize, pos: u8) {
        self.words[set] = nib_write(self.words[set], way, u64::from(pos));
    }
}

/// The replacement-state interface the replay loop drives, called in
/// the mono engine's `SetAssocCache::access_fast` order.
trait ReplState {
    fn victim(&mut self, ways: usize, set: usize) -> usize;
    fn on_hit(&mut self, ways: usize, set: usize, way: usize);
    /// Every miss, after it is counted and before the victim and fill.
    #[inline(always)]
    fn on_miss(&mut self, _set: usize) {}
    fn on_fill(&mut self, ways: usize, set: usize, way: usize);
    /// The packed words (the soundness sweep writes start states here).
    fn words(&mut self) -> &mut [u64];
}

/// A single-table kernel: one rule for every set.
struct Single<W> {
    words: W,
    table: Table,
}

impl<W: Words> Single<W> {
    fn new(sets: usize, ways: usize, kernel: &SliceKernel) -> Self {
        Single {
            words: W::new(sets, ways),
            table: Table::of(kernel, ways),
        }
    }
}

impl<W: Words> ReplState for Single<W> {
    #[inline(always)]
    fn victim(&mut self, ways: usize, set: usize) -> usize {
        self.words.victim(ways, set)
    }

    #[inline(always)]
    fn on_hit(&mut self, ways: usize, set: usize, way: usize) {
        self.words.promote(ways, set, way, &self.table.promo);
    }

    #[inline(always)]
    fn on_fill(&mut self, ways: usize, set: usize, way: usize) {
        self.words.place(ways, set, way, self.table.insert);
    }

    fn words(&mut self) -> &mut [u64] {
        self.words.words()
    }
}

/// Role byte of a follower set; leaders store their side index.
const FOLLOWER: u8 = u8::MAX;

/// A [`Bimodal`] rule as a countdown to the next rare fill, so the hot
/// path needs no division.
struct BimodalTick {
    side: usize,
    every: u64,
    left: u64,
    rare: u8,
}

/// Per-set role bytes for `map`: the side index of a leader,
/// [`FOLLOWER`] otherwise.
fn role_bytes(map: &LeaderMap) -> Vec<u8> {
    (0..map.sets())
        .map(|set| match map.role(set) {
            SetRole::Leader(p) => p as u8,
            SetRole::Follower => FOLLOWER,
        })
        .collect()
}

/// A duel kernel: per-side tables over shared words, with the leader
/// roles, the PSEL counters and the bimodal tick beside them.
struct Duel<W> {
    words: W,
    tables: [Table; 4],
    roles: Vec<u8>,
    selector: Selector,
    /// `selector.winner()`, refreshed on each leader miss.
    winner: u8,
    bimodal: Option<BimodalTick>,
}

impl<W: Words> Duel<W> {
    /// A cold duel over `sets` sets with the given per-set `roles` (a side
    /// index for leaders, [`FOLLOWER`] otherwise).
    fn new(
        sets: usize,
        ways: usize,
        sides: &[SliceKernel],
        roles: Vec<u8>,
        psel_bits: u32,
        bimodal: Option<Bimodal>,
    ) -> Self {
        let mut tables = [Table::default(); 4];
        for (t, side) in tables.iter_mut().zip(sides) {
            *t = Table::of(side, ways);
        }
        let selector = Selector::new(sides.len(), psel_bits);
        Duel {
            words: W::new(sets, ways),
            tables,
            roles,
            winner: selector.winner() as u8,
            selector,
            bimodal: bimodal.map(|b| BimodalTick {
                side: b.side,
                every: b.every,
                left: b.every,
                rare: b.rare,
            }),
        }
    }

    /// The side `set` plays right now: its own as a leader, else the winner.
    #[inline(always)]
    fn side(&self, set: usize) -> usize {
        let role = self.roles[set];
        usize::from(if role == FOLLOWER { self.winner } else { role }) & 3
    }
}

impl<W: Words> ReplState for Duel<W> {
    #[inline(always)]
    fn victim(&mut self, ways: usize, set: usize) -> usize {
        self.words.victim(ways, set)
    }

    #[inline(always)]
    fn on_hit(&mut self, ways: usize, set: usize, way: usize) {
        let side = self.side(set);
        self.words.promote(ways, set, way, &self.tables[side].promo);
    }

    #[inline(always)]
    fn on_miss(&mut self, set: usize) {
        let role = self.roles[set];
        if role != FOLLOWER {
            self.selector.record_miss(usize::from(role));
            self.winner = self.selector.winner() as u8;
        }
    }

    #[inline(always)]
    fn on_fill(&mut self, ways: usize, set: usize, way: usize) {
        let side = self.side(set);
        let mut pos = self.tables[side].insert;
        if let Some(b) = &mut self.bimodal {
            if b.side == side {
                b.left -= 1;
                if b.left == 0 {
                    b.left = b.every;
                    pos = b.rare;
                }
            }
        }
        self.words.place(ways, set, way, pos);
    }

    fn words(&mut self) -> &mut [u64] {
        self.words.words()
    }
}

// ---------------------------------------------------------------------------
// Kernel soundness sweep: the packed interpreters above, checked transition
// by transition against independent scalar models.
// ---------------------------------------------------------------------------

/// Outcome of one [`kernel_soundness_sweep`] run over a single kernel at a
/// single associativity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelSweepReport {
    /// Lane offsets exercised (`64 / ways` for the PLRU family, 1 for the
    /// nibble kernels, which fill the word by themselves).
    pub lanes: usize,
    /// Distinct start states driven (per lane for the PLRU family, per
    /// side and role for a duel).
    pub states: u64,
    /// Packed transitions checked against the scalar model (for the PLRU
    /// family, every `(way, position)` lane write too).
    pub transitions: u64,
    /// Accesses driven through [`SlicedCache::access_block`] on a small
    /// cache, each checked against a [`SlicedCache::feed`] twin and a
    /// residency model of the displaced lines.
    pub accesses: u64,
    /// Accesses driven through [`SlicedCache::count_misses`] on a small
    /// cache, each checked against a [`SlicedCache::feed`] twin: the same
    /// hit, the same packed replacement words and duel state, and the
    /// same tags.
    pub count_accesses: u64,
    /// Whether the start states covered the entire state space. True for
    /// every PLRU sweep and for nibble kernels up to 8 ways; the 16-way
    /// nibble spaces (`16!` stack orders, `4^16` RRPV maps) are driven by
    /// a deterministic transition walk instead.
    pub exhaustive: bool,
}

/// Which defect (if any) the sweep driver injects — the seeded-bug hook
/// proving the sweep catches its class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SweepDefect {
    None,
    /// PLRU family: flip one bit in a sibling lane after the packed hit;
    /// nibble kernels: corrupt the rewritten nibble; duels: swap the
    /// tables of sides 0 and 1.
    Seeded,
}

/// Checks the packed kernel interpreter used by [`SlicedCache`] against
/// an independent scalar model: every lane offset, every start state
/// (every *reachable* state is a subset; a deterministic walk substitutes
/// where the space is astronomically large), and every
/// `victim`/`on_hit`/`on_fill` transition out of each. PLRU-family checks
/// additionally check every position read and every `(way, position)`
/// lane write against `sim_lint::MirrorTree`, and assert that sibling-lane
/// poison and the pad bit survive every operation, so a cross-lane leak
/// cannot hide.
///
/// A [`SliceKernel::Duel`] is swept once per side and role: every set a
/// leader of that side, then every set a follower with that side winning.
/// Each pass drives the duel interpreter's own side dispatch and bimodal
/// tick through the family sweep, against a scalar model read straight
/// from that side's kernel. The leader layout is the replayed geometry's
/// business ([`SliceKernel::supports`]) and is not checked here.
///
/// On a small cache of the kernel's shape the sweep then drives
/// [`SlicedCache::access_block`] against `feed`, and the miss-count mode
/// ([`SlicedCache::count_misses`]) against a full-mode twin, comparing
/// the hit, the packed words and the duel state after every access.
///
/// # Errors
///
/// Returns the first counterexample as a human-readable description of
/// the kernel, lane, start state, and offending transition.
pub fn kernel_soundness_sweep(
    kernel: &SliceKernel,
    ways: usize,
) -> Result<KernelSweepReport, String> {
    sweep(kernel, ways, SweepDefect::None)
}

/// [`kernel_soundness_sweep`] with a deliberately corrupted interpreter: a
/// cross-lane bit leak in the PLRU hit, a wrong nibble rewrite in the
/// stack/RRIP hit, or a duel whose sides 0 and 1 swapped tables. Exists
/// so tests and the `cargo xtask model-check` gate can prove the sweep
/// detects its defect class; returns `Err` unless a duel's sides 0 and 1
/// carry identical tables.
#[doc(hidden)]
pub fn kernel_soundness_sweep_poisoned(
    kernel: &SliceKernel,
    ways: usize,
) -> Result<KernelSweepReport, String> {
    sweep(kernel, ways, SweepDefect::Seeded)
}

fn sweep(
    kernel: &SliceKernel,
    ways: usize,
    defect: SweepDefect,
) -> Result<KernelSweepReport, String> {
    if !kernel.supports_ways(ways) {
        return Err(format!("kernel {kernel:?} does not support {ways} ways"));
    }
    let family = match kernel {
        SliceKernel::Duel { sides, .. } => &sides[0],
        single => single,
    };
    let mut report = match family {
        SliceKernel::PlruIpv { .. } => {
            // The lane writes are table-independent: check them once per
            // kernel rather than once per duel side and role.
            let writes = sweep_plru_writes(ways)?;
            let mut report = sweep_with::<PlruLanes>(kernel, family, ways, defect)?;
            report.transitions += writes;
            report
        }
        SliceKernel::StackIpv { .. } => sweep_with::<StackList>(kernel, family, ways, defect)?,
        SliceKernel::RripIpv { .. } => sweep_with::<RripNibbles>(kernel, family, ways, defect)?,
        SliceKernel::Duel { .. } => unreachable!("supports_ways rejects nested duels"),
    };
    report.accesses = sweep_access_entry(kernel, ways)?;
    report.count_accesses = sweep_count_mode(kernel, ways)?;
    Ok(report)
}

/// The smallest sweep geometry at `ways` whose leader layout a duel
/// accepts.
fn sweep_geometry(kernel: &SliceKernel, ways: usize) -> Result<CacheGeometry, String> {
    [8usize, 64, 1024, 4096]
        .iter()
        .filter_map(|&sets| CacheGeometry::from_sets(sets, ways, 64).ok())
        .find(|g| kernel.supports(g))
        .ok_or_else(|| format!("kernel {kernel:?} supports no {ways}-way sweep geometry"))
}

/// Deterministic sweep traffic over `pool` blocks: `(block, is_write)`,
/// about a third of them stores.
fn sweep_traffic(pool: u64, n: u64) -> impl Iterator<Item = (u64, bool)> {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    (0..n).map(move |_| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % pool, x >> 60 < 5)
    })
}

/// An access to `block` as the stream paths see it.
fn block_access(block: u64, is_write: bool) -> Access {
    Access {
        addr: block << 6,
        pc: 0,
        kind: if is_write {
            AccessKind::Write
        } else {
            AccessKind::Read
        },
        icount_delta: 1,
    }
}

/// Checks the miss-count mode against a full-mode twin access by access:
/// the same hit, then the same packed replacement words, duel state
/// (selector, winner, bimodal tick) and tags, dirty bits aside. Every
/// third run of 97 accesses goes through `feed` on the count-mode side
/// too, so the switch back (which clears the dirty bits) is checked as
/// well. Returns the number of count-mode accesses checked.
fn sweep_count_mode(kernel: &SliceKernel, ways: usize) -> Result<u64, String> {
    let geom = sweep_geometry(kernel, ways)?;
    let mut count = SlicedCache::new(&geom, kernel).expect("supports() checked");
    let mut twin = SlicedCache::new(&geom, kernel).expect("supports() checked");
    let pool = (2 * geom.sets() * ways) as u64;
    let mut checked = 0u64;
    for (i, (block, is_write)) in sweep_traffic(pool, 64 * pool).enumerate() {
        let a = [block_access(block, is_write)];
        let mut want = None;
        twin.feed(&a, |_, h| want = Some(h));
        let got = if (i / 97) % 3 == 2 {
            let mut h = None;
            count.feed(&a, |_, hit| h = Some(hit));
            h
        } else {
            checked += 1;
            Some(count.count_misses(&a) == 0)
        };
        let fault = |what: String| {
            format!("{kernel:?} {ways}-way count mode, access {i} (block {block}): {what}")
        };
        if got != want {
            return Err(fault(format!("hit {got:?}, full mode says {want:?}")));
        }
        if count.state.snapshot() != twin.state.snapshot() {
            return Err(fault("replacement state differs from full mode".into()));
        }
        let tags = |c: &SlicedCache| c.lines.iter().map(|l| l & !LINE_DIRTY).collect::<Vec<_>>();
        if tags(&count) != tags(&twin) {
            return Err(fault("tag array differs from full mode".into()));
        }
    }
    Ok(checked)
}

/// Checks [`SlicedCache::access_block`] access by access: its hit flag
/// and statistics equal a [`SlicedCache::feed`] twin's, and the line it
/// reports displaced is exactly what a residency model says left the set
/// (a resident block of the accessed set, with the dirty bit its stores
/// gave it, reported only when the set was full). Returns the number of
/// accesses checked.
fn sweep_access_entry(kernel: &SliceKernel, ways: usize) -> Result<u64, String> {
    let geom = sweep_geometry(kernel, ways)?;
    let mut cache = SlicedCache::new(&geom, kernel).expect("supports() checked");
    let mut twin = SlicedCache::new(&geom, kernel).expect("supports() checked");
    // Per set: resident blocks and their dirty bits.
    let mut resident: Vec<Vec<(u64, bool)>> = vec![Vec::new(); geom.sets()];
    // Two blocks per way of every set: frequent hits and evictions alike.
    let pool = (2 * geom.sets() * ways) as u64;
    let accesses = 64 * pool;
    for (i, (block, is_write)) in sweep_traffic(pool, accesses).enumerate() {
        let a = block_access(block, is_write);
        let (hit, evicted) = cache.access_block(block, is_write);
        let mut twin_hit = None;
        twin.feed(std::slice::from_ref(&a), |_, h| twin_hit = Some(h));
        let fault =
            |what: String| format!("{kernel:?} {ways}-way access {i} (block {block}): {what}");
        if twin_hit != Some(hit) {
            return Err(fault(format!(
                "access_block hit {hit}, feed says {twin_hit:?}"
            )));
        }
        let set = &mut resident[geom.set_of_block(block)];
        let slot = set.iter().position(|&(b, _)| b == block);
        if hit != slot.is_some() {
            return Err(fault(format!(
                "hit {hit} but residency model says {}",
                !hit
            )));
        }
        if let Some(k) = slot {
            set[k].1 |= is_write;
            continue;
        }
        match evicted {
            Some(ev) => {
                let k = set.iter().position(|&(b, _)| b == ev.block_addr);
                let Some(k) = k.filter(|_| set.len() == ways) else {
                    return Err(fault(format!(
                        "reported {ev:?} displaced, not a resident of a full set"
                    )));
                };
                if set[k].1 != ev.dirty {
                    return Err(fault(format!(
                        "reported {ev:?}, model dirty bit {}",
                        set[k].1
                    )));
                }
                set.swap_remove(k);
            }
            None if set.len() == ways => {
                return Err(fault("filled a full set without displacing a line".into()));
            }
            None => {}
        }
        set.push((block, is_write));
    }
    if cache.stats() != twin.stats() {
        return Err(format!(
            "{kernel:?} {ways}-way: access_block stats {:?}, feed stats {:?}",
            cache.stats(),
            twin.stats()
        ));
    }
    Ok(accesses)
}

/// Builds the interpreter for `kernel` on the packed words `W` of its
/// family and runs the family sweep, once per side and role for a duel.
fn sweep_with<W: Words>(
    kernel: &SliceKernel,
    family: &SliceKernel,
    ways: usize,
    defect: SweepDefect,
) -> Result<KernelSweepReport, String> {
    // One word's worth of sets for the PLRU family, one set otherwise.
    let sets = family.lanes(ways);
    let name = match family {
        SliceKernel::PlruIpv { .. } => "PlruIpv",
        SliceKernel::StackIpv { .. } => "StackIpv",
        _ => "RripIpv",
    };
    let SliceKernel::Duel {
        sides,
        psel_bits,
        bimodal,
        ..
    } = kernel
    else {
        let mut st = Single::<W>::new(sets, ways, kernel);
        let mut model = SideModel::of(kernel, ways, None);
        return sweep_family(&mut st, &mut model, name, family, ways, defect);
    };
    let mut total = KernelSweepReport {
        lanes: sets,
        states: 0,
        transitions: 0,
        exhaustive: true,
        accesses: 0,
        count_accesses: 0,
    };
    for side in 0..sides.len() {
        for leader in [true, false] {
            let role = if leader { side as u8 } else { FOLLOWER };
            let mut st = Duel::<W>::new(sets, ways, sides, vec![role; sets], *psel_bits, *bimodal);
            st.winner = side as u8;
            if defect == SweepDefect::Seeded {
                st.tables.swap(0, 1);
            }
            let rule = bimodal.filter(|b| b.side == side);
            let mut model = SideModel::of(&sides[side], ways, rule.as_ref());
            let label = format!(
                "Duel side {side} ({}) {name}",
                if leader { "leader" } else { "follower" }
            );
            let r = sweep_family(&mut st, &mut model, &label, family, ways, SweepDefect::None)?;
            total.states += r.states;
            total.transitions += r.transitions;
            total.exhaustive &= r.exhaustive;
        }
    }
    Ok(total)
}

fn sweep_family<S: ReplState>(
    st: &mut S,
    model: &mut SideModel,
    label: &str,
    family: &SliceKernel,
    ways: usize,
    defect: SweepDefect,
) -> Result<KernelSweepReport, String> {
    match family {
        SliceKernel::PlruIpv { .. } => sweep_plru(st, model, label, ways, defect),
        SliceKernel::StackIpv { .. } => sweep_stack(st, model, label, ways, defect),
        _ => sweep_rrip(st, model, label, ways, defect),
    }
}

/// The scalar model's reading of one side, taken straight from the
/// kernel description (independently of the interpreter's `Table`),
/// with its own count of the side's fills for a bimodal rule.
struct SideModel {
    promo: Vec<u8>,
    insert: u8,
    rare: Option<(u64, u8)>,
    fills: u64,
}

impl SideModel {
    fn of(kernel: &SliceKernel, ways: usize, bimodal: Option<&Bimodal>) -> Self {
        let (promo, insert) = match kernel {
            SliceKernel::PlruIpv { ipv } | SliceKernel::StackIpv { ipv } => {
                (ipv[..ways].to_vec(), ipv[ways])
            }
            SliceKernel::RripIpv { vector } => (vector[..4].to_vec(), vector[4]),
            SliceKernel::Duel { .. } => unreachable!("a duel side is a single-table kernel"),
        };
        SideModel {
            promo,
            insert,
            rare: bimodal.map(|b| (b.every, b.rare)),
            fills: 0,
        }
    }

    /// Where the next fill of this side lands.
    fn next_insert(&mut self) -> u8 {
        match self.rare {
            Some((every, rare)) => {
                self.fills += 1;
                if self.fills % every == 0 {
                    rare
                } else {
                    self.insert
                }
            }
            None => self.insert,
        }
    }
}

/// Sibling poison for a word whose live lane is `lane`: every other lane
/// holds its [`lane_poison`] pattern.
fn sibling_poison(ways: usize, lane: usize) -> u64 {
    (0..64 / ways)
        .filter(|&l| l != lane)
        .fold(0, |word, l| word | lane_poison(ways, l) << (l * ways))
}

/// What is wrong with `word` after an operation on `lane`, if anything:
/// the pad bit written, a sibling lane's poison clobbered, or tree bits
/// other than `expect`.
#[inline(always)]
fn lane_fault(word: u64, sibling: u64, ways: usize, lane: usize, expect: u64) -> Option<String> {
    let off = lane * ways;
    if word == sibling | (expect << off) {
        return None;
    }
    let lane_mask = (1u64 << ways) - 1;
    let lane_field = (word >> off) & lane_mask;
    if lane_field >> (ways - 1) != 0 {
        return Some("wrote the pad bit".to_string());
    }
    if word & !(lane_mask << off) != sibling {
        return Some(format!(
            "leaked across the lane boundary (sibling poison clobbered, word {word:#018x})"
        ));
    }
    if lane_field != expect {
        return Some(format!(
            "produced tree bits {lane_field:#x}, scalar model says {expect:#x}"
        ));
    }
    None
}

/// Checks the lane tables of [`PlruLanes`] against
/// [`MirrorTree`](sim_lint::MirrorTree): from every tree state, the victim,
/// every way's position read and every `(way, position)` write, at every
/// lane offset. Returns the number of writes checked.
fn sweep_plru_writes(ways: usize) -> Result<u64, String> {
    // Literal arguments, as in `SlicedCache::feed`: the lane math folds to
    // shifts, which keeps the 16-way sweep's 34M writes cheap.
    match ways {
        2 => plru_writes_at(2, 0..1 << 1),
        4 => plru_writes_at(4, 0..1 << 3),
        8 => plru_writes_at(8, 0..1 << 7),
        _ => plru_writes_at(16, 0..1 << 15),
    }
}

/// [`sweep_plru_writes`] from the tree states `states` (lane-relative
/// bits, each below `2^(ways - 1)`).
#[inline(always)]
fn plru_writes_at(ways: usize, states: impl Iterator<Item = u64>) -> Result<u64, String> {
    let lanes = 64 / ways;
    let mut packed = PlruLanes::new(lanes, ways);
    let siblings: Vec<u64> = (0..lanes).map(|lane| sibling_poison(ways, lane)).collect();
    let mut writes = 0u64;
    for bits in states {
        let mirror = MirrorTree::from_bits(ways, bits);
        for (lane, &sibling) in siblings.iter().enumerate() {
            packed.words[0] = sibling | (bits << PlruLanes::locate(ways, lane).1);
            let got = packed.victim(ways, lane);
            if got != mirror.victim() {
                return Err(format!(
                    "PlruLanes {ways}-way lane {lane}: victim from state {bits:#x} is way \
                     {got}, scalar model says {}",
                    mirror.victim()
                ));
            }
        }
        for way in 0..ways {
            let want = mirror.position(way);
            for (lane, &sibling) in siblings.iter().enumerate() {
                let (_, off) = PlruLanes::locate(ways, lane);
                let got = lane_position(sibling | (bits << off), off, ways, way);
                if got != want {
                    return Err(format!(
                        "PlruLanes {ways}-way lane {lane}: position(way {way}) from state \
                         {bits:#x} is {got}, scalar model says {want}"
                    ));
                }
            }
            // A write rewrites the way's whole path, so successive writes
            // into one copy each start from `bits` off the path.
            let mut m = mirror.clone();
            for pos in 0..ways {
                m.set_position(way, pos);
                let expect = m.bits();
                for (lane, &sibling) in siblings.iter().enumerate() {
                    let (_, off) = PlruLanes::locate(ways, lane);
                    packed.words[0] = sibling | (bits << off);
                    packed.place(ways, lane, way, pos as u8);
                    writes += 1;
                    if let Some(fault) = lane_fault(packed.words[0], sibling, ways, lane, expect) {
                        return Err(format!(
                            "PlruLanes {ways}-way lane {lane}: set_position(way {way}, pos \
                             {pos}) from state {bits:#x} {fault}"
                        ));
                    }
                }
            }
        }
    }
    Ok(writes)
}

fn sweep_plru<S: ReplState>(
    st: &mut S,
    model: &mut SideModel,
    label: &str,
    ways: usize,
    defect: SweepDefect,
) -> Result<KernelSweepReport, String> {
    let lanes = 64 / ways;
    let tree_states = 1u64 << (ways - 1);
    let mut transitions = 0u64;
    for lane in 0..lanes {
        let off = (lane * ways) as u32;
        let sibling = sibling_poison(ways, lane);
        // One word hosts all lanes (`sets == lanes`); ops target `lane`.
        let check = |word: u64, expect: u64, op: &str, way: usize, bits: u64| {
            lane_fault(word, sibling, ways, lane, expect).map_or(Ok(()), |fault| {
                Err(format!(
                    "{label} {ways}-way lane {lane}: {op}(way {way}) from state {bits:#x} {fault}"
                ))
            })
        };
        for bits in 0..tree_states {
            let start = sibling | (bits << off);
            let mirror = MirrorTree::from_bits(ways, bits);

            st.words()[0] = start;
            let got = st.victim(ways, lane);
            transitions += 1;
            if got != mirror.victim() {
                return Err(format!(
                    "{label} {ways}-way lane {lane}: victim from state {bits:#x} is way \
                     {got}, scalar model says {}",
                    mirror.victim()
                ));
            }
            if st.words()[0] != start {
                return Err(format!(
                    "{label} {ways}-way lane {lane}: victim from state {bits:#x} mutated \
                     the packed word"
                ));
            }

            for way in 0..ways {
                st.words()[0] = start;
                st.on_hit(ways, lane, way);
                if defect == SweepDefect::Seeded {
                    st.words()[0] ^= 1u64 << (((lane + 1) % lanes) * ways);
                }
                let mut n = mirror.clone();
                let pos = n.position(way);
                n.set_position(way, usize::from(model.promo[pos]));
                transitions += 1;
                check(st.words()[0], n.bits(), "on_hit", way, bits)?;

                st.words()[0] = start;
                st.on_fill(ways, lane, way);
                let mut n = mirror.clone();
                n.set_position(way, usize::from(model.next_insert()));
                transitions += 1;
                check(st.words()[0], n.bits(), "on_fill", way, bits)?;
            }
        }
    }
    Ok(KernelSweepReport {
        lanes,
        states: tree_states,
        transitions,
        exhaustive: true,
        accesses: 0,
        count_accesses: 0,
    })
}

/// Heap's algorithm over `0..ways`, calling `f` on every permutation.
fn for_each_permutation(
    ways: usize,
    f: &mut dyn FnMut(&[u8]) -> Result<(), String>,
) -> Result<(), String> {
    let mut a: Vec<u8> = (0..ways as u8).collect();
    let mut c = vec![0usize; ways];
    f(&a)?;
    let mut i = 0;
    while i < ways {
        if c[i] < i {
            if i % 2 == 0 {
                a.swap(0, i);
            } else {
                a.swap(c[i], i);
            }
            f(&a)?;
            c[i] += 1;
            i = 0;
        } else {
            c[i] = 0;
            i += 1;
        }
    }
    Ok(())
}

fn sweep_stack<S: ReplState>(
    st: &mut S,
    model: &mut SideModel,
    label: &str,
    ways: usize,
    defect: SweepDefect,
) -> Result<KernelSweepReport, String> {
    let mut transitions = 0u64;
    let mut states = 0u64;
    // Scalar state: `perm[p]` = way at stack position `p`, packed one
    // nibble per position — directly comparable to the SWAR word.
    let pack = |perm: &[u8]| {
        perm.iter()
            .enumerate()
            .fold(0u64, |acc, (p, &w)| acc | (u64::from(w) << (4 * p)))
    };
    // Reference shift-by-one move: remove at the current position,
    // reinsert at the target.
    let moved = |perm: &[u8], cur: usize, target: usize| {
        let mut m = perm.to_vec();
        let v = m.remove(cur);
        m.insert(target, v);
        m
    };
    let (promo, insert) = (model.promo.clone(), usize::from(model.insert));

    let mut drive = |perm: &[u8]| -> Result<(), String> {
        states += 1;
        let word = pack(perm);
        st.words()[0] = word;
        let got = st.victim(ways, 0);
        transitions += 1;
        if got != usize::from(perm[ways - 1]) {
            return Err(format!(
                "{label} {ways}-way: victim from order {perm:?} is way {got}, scalar \
                 model says {}",
                perm[ways - 1]
            ));
        }
        if st.words()[0] != word {
            return Err(format!(
                "{label} {ways}-way: victim from order {perm:?} mutated the packed word"
            ));
        }
        for way in 0..ways {
            let cur = perm.iter().position(|&w| usize::from(w) == way).unwrap();
            for op in ["on_hit", "on_fill"] {
                st.words()[0] = word;
                let target = if op == "on_hit" {
                    st.on_hit(ways, 0, way);
                    if defect == SweepDefect::Seeded {
                        let w = st.words()[0];
                        st.words()[0] = nib_write(w, 0, (nib_read(w, 0) + 1) % ways as u64);
                    }
                    usize::from(promo[cur])
                } else {
                    st.on_fill(ways, 0, way);
                    usize::from(model.next_insert())
                };
                let want = pack(&moved(perm, cur, target));
                transitions += 1;
                if st.words()[0] != want {
                    return Err(format!(
                        "{label} {ways}-way: {op}(way {way}) from order {perm:?} produced \
                         word {:#018x}, scalar model says {want:#018x}",
                        st.words()[0]
                    ));
                }
            }
        }
        Ok(())
    };

    let exhaustive = ways <= 8;
    if exhaustive {
        for_each_permutation(ways, &mut drive)?;
    } else {
        // 16! start orders are out of reach: walk the transition graph
        // deterministically from the identity order, checking every
        // transition out of each visited state.
        let mut perm: Vec<u8> = (0..ways as u8).collect();
        let mut seed = 0x243f_6a88_85a3_08d3u64;
        for _ in 0..2048 {
            drive(&perm)?;
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let way = ((seed >> 33) as usize) % ways;
            let cur = perm.iter().position(|&w| usize::from(w) == way).unwrap();
            let target = if seed & 1 == 0 {
                usize::from(promo[cur])
            } else {
                insert
            };
            perm = moved(&perm, cur, target);
        }
    }
    Ok(KernelSweepReport {
        lanes: 1,
        states,
        transitions,
        exhaustive,
        accesses: 0,
        count_accesses: 0,
    })
}

fn sweep_rrip<S: ReplState>(
    st: &mut S,
    model: &mut SideModel,
    label: &str,
    ways: usize,
    defect: SweepDefect,
) -> Result<KernelSweepReport, String> {
    let mut transitions = 0u64;
    let mut states = 0u64;
    let pack = |rrpv: &[u8]| {
        rrpv.iter()
            .enumerate()
            .fold(0u64, |acc, (w, &r)| acc | (u64::from(r) << (4 * w)))
    };
    // Scalar victim with aging side effects, mirrored into `model`.
    let scalar_victim = |rrpv: &mut [u8]| loop {
        if let Some(w) = (0..rrpv.len()).find(|&w| rrpv[w] == 3) {
            return w;
        }
        for r in rrpv.iter_mut() {
            *r += 1;
        }
    };
    let (promo, insert) = (model.promo.clone(), model.insert);

    let mut drive = |rrpv: &[u8]| -> Result<(), String> {
        states += 1;
        let word = pack(rrpv);
        let mut want = rrpv.to_vec();
        st.words()[0] = word;
        let got = st.victim(ways, 0);
        let want_way = scalar_victim(&mut want);
        transitions += 1;
        if got != want_way || st.words()[0] != pack(&want) {
            return Err(format!(
                "{label} {ways}-way: victim from rrpv {rrpv:?} gave (way {got}, word \
                 {:#018x}), scalar model says (way {want_way}, word {:#018x})",
                st.words()[0],
                pack(&want)
            ));
        }
        for way in 0..ways {
            let mut want = rrpv.to_vec();
            want[way] = promo[usize::from(want[way])];
            st.words()[0] = word;
            st.on_hit(ways, 0, way);
            if defect == SweepDefect::Seeded {
                let w = st.words()[0];
                st.words()[0] = nib_write(w, way, (nib_read(w, way) + 1) & 3);
            }
            transitions += 1;
            if st.words()[0] != pack(&want) {
                return Err(format!(
                    "{label} {ways}-way: on_hit(way {way}) from rrpv {rrpv:?} produced \
                     word {:#018x}, scalar model says {:#018x}",
                    st.words()[0],
                    pack(&want)
                ));
            }

            let mut want = rrpv.to_vec();
            want[way] = model.next_insert();
            st.words()[0] = word;
            st.on_fill(ways, 0, way);
            transitions += 1;
            if st.words()[0] != pack(&want) {
                return Err(format!(
                    "{label} {ways}-way: on_fill(way {way}) from rrpv {rrpv:?} produced \
                     word {:#018x}, scalar model says {:#018x}",
                    st.words()[0],
                    pack(&want)
                ));
            }
        }
        Ok(())
    };

    let exhaustive = ways <= 8;
    if exhaustive {
        let total = 1u64 << (2 * ways);
        let mut rrpv = vec![0u8; ways];
        for code in 0..total {
            for (w, r) in rrpv.iter_mut().enumerate() {
                *r = ((code >> (2 * w)) & 3) as u8;
            }
            drive(&rrpv)?;
        }
    } else {
        // 4^16 RRPV maps: deterministic walk from the all-max fill state.
        let mut rrpv = vec![3u8; ways];
        let mut seed = 0x1319_8a2e_0370_7344u64;
        for _ in 0..2048 {
            drive(&rrpv)?;
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let way = ((seed >> 33) as usize) % ways;
            match seed % 3 {
                0 => {
                    scalar_victim(&mut rrpv);
                }
                1 => rrpv[way] = promo[usize::from(rrpv[way])],
                _ => rrpv[way] = insert,
            }
        }
    }
    Ok(KernelSweepReport {
        lanes: 1,
        states,
        transitions,
        exhaustive,
        accesses: 0,
        count_accesses: 0,
    })
}

// ---------------------------------------------------------------------------
// The replay loop.
// ---------------------------------------------------------------------------

/// One access to `block` against the packed tag array + replacement
/// state, in one of two recording modes chosen at compile time.
///
/// With `FULL`, this is the exact statistics protocol and callback order
/// of the mono engine's [`SetAssocCache::access_fast`](crate::SetAssocCache::access_fast):
/// dirty bits, and the accesses, hits, misses, evictions and writebacks
/// counters. Qualifying kernels use the default `should_bypass` and
/// `on_evict` (never / no-op), so those callbacks are elided rather than
/// emulated.
///
/// Without `FULL` (the miss-count mode) it runs the same replacement
/// transitions — the scan, fill-invalid-first, `victim`, the duel's
/// `on_miss`, `on_hit` and `on_fill` — but sets no dirty bit and counts
/// only `stats.misses`. With no dirty bit in the array, a hit is an exact
/// `tag | VALID` compare. The hit/miss sequence and the packed state are
/// those of a full-mode replay of the same stream with every store read
/// as a load, whose misses are the same.
///
/// A set's valid lines always form a prefix of its ways: a fill takes the
/// lowest invalid way, and the sliced engine never invalidates a line.
/// So the scan looks for the match only, and a miss reads the last way's
/// valid bit: set, the set is full and the victim walk runs; clear, the
/// set is still filling, and only then is the first invalid way looked
/// up.
///
/// Returns whether the access hit, and the packed line word the fill
/// displaced (0 when it hit or filled an invalid way). [`run`] drops the
/// word, so the stream paths pay nothing for it.
#[inline(always)]
fn step<P: ReplState, const FULL: bool>(
    ways: usize,
    geom: &CacheGeometry,
    lines: &mut [u64],
    state: &mut P,
    stats: &mut CacheStats,
    block: u64,
    is_write: bool,
) -> (bool, u64) {
    let set = geom.set_of_block(block);
    let tag = geom.tag_of_block(block);
    let base = set * ways;
    let is_write = FULL && is_write;
    if FULL {
        stats.accesses += 1;
    }

    // The miss-count mode runs on clean lines only (`count_misses` makes
    // sure of it), so it compares whole words; full mode masks the dirty
    // bit off first.
    let want = tag | LINE_VALID;
    let keep = if FULL { !LINE_DIRTY } else { !0 };
    let words = lines[base..base + ways].iter().enumerate();
    let match_mask = words.fold(0u64, |m, (w, &x)| m | u64::from(x & keep == want) << w);

    if match_mask != 0 {
        let way = match_mask.trailing_zeros() as usize;
        if is_write {
            lines[base + way] |= LINE_DIRTY;
        }
        if FULL {
            stats.hits += 1;
        }
        state.on_hit(ways, set, way);
        return (true, 0);
    }

    stats.misses += 1;
    state.on_miss(set);
    let (fill_way, displaced) = if lines[base + ways - 1] & LINE_VALID != 0 {
        debug_assert!(
            lines[base..base + ways]
                .iter()
                .all(|&x| x & LINE_VALID != 0),
            "set {set}: last way valid but the set is not full"
        );
        let w = state.victim(ways, set);
        debug_assert!(w < ways, "sliced victim out of range");
        let old = lines[base + w];
        if FULL {
            stats.evictions += 1;
            stats.writebacks += u64::from(old & LINE_DIRTY != 0);
        }
        (w, old)
    } else {
        // Still filling: the valid prefix ends at the first invalid way.
        let words = lines[base..base + ways].iter().enumerate();
        let valid = words.fold(0u64, |m, (w, &x)| m | u64::from(x & LINE_VALID != 0) << w);
        debug_assert_eq!(
            valid & (valid + 1),
            0,
            "set {set}: valid lines {valid:#b} are not a prefix"
        );
        (valid.trailing_ones() as usize, 0)
    };
    lines[base + fill_way] = tag | LINE_VALID | if is_write { LINE_DIRTY } else { 0 };
    state.on_fill(ways, set, fill_way);
    (false, displaced)
}

/// The packed replacement state of one kernel. Duel state is boxed to
/// keep the enum small; `feed` derefs it once per call, not per access.
enum Packed {
    Plru(Single<PlruLanes>),
    Stack(Single<StackList>),
    Rrip(Single<RripNibbles>),
    DuelPlru(Box<Duel<PlruLanes>>),
    DuelStack(Box<Duel<StackList>>),
    DuelRrip(Box<Duel<RripNibbles>>),
}

/// Everything a [`Packed`] state holds, for the count-mode sweep: the
/// packed words, and a duel's selector, winner and bimodal countdown.
type Snapshot = (Vec<u64>, Option<(Selector, u8, Option<u64>)>);

impl Packed {
    fn snapshot(&mut self) -> Snapshot {
        fn duel<W: Words>(d: &mut Duel<W>) -> Snapshot {
            let rest = (
                d.selector.clone(),
                d.winner,
                d.bimodal.as_ref().map(|b| b.left),
            );
            (d.words().to_vec(), Some(rest))
        }
        match self {
            Packed::Plru(st) => (st.words().to_vec(), None),
            Packed::Stack(st) => (st.words().to_vec(), None),
            Packed::Rrip(st) => (st.words().to_vec(), None),
            Packed::DuelPlru(d) => duel(d),
            Packed::DuelStack(d) => duel(d),
            Packed::DuelRrip(d) => duel(d),
        }
    }
}

/// The bit-sliced engine as streaming state: the packed tag array and
/// replacement state persist across [`SlicedCache::feed`] calls, so
/// feeding a stream in any chunking reproduces a whole-stream replay
/// exactly.
pub struct SlicedCache {
    geom: CacheGeometry,
    lines: Vec<u64>,
    state: Packed,
    stats: CacheStats,
    /// No line holds a dirty bit: true on a cold cache and after
    /// [`SlicedCache::count_misses`], false once full mode may have set one.
    clean: bool,
    /// [`SlicedCache::access_block`]'s `step`, monomorphized for this
    /// cache's state variant and associativity and chosen once in `new`:
    /// a predicted call through it costs less than matching both per
    /// access, which a caller interleaving two caches pays twice per
    /// reference (measured on the L1/L2 capture).
    step_one: StepFn,
}

/// One `step` on a [`SlicedCache`]: `(hit, displaced line word)`.
type StepFn = fn(&mut SlicedCache, u64, bool) -> (bool, u64);

/// The [`StepFn`] for `state` at `ways` (which `supports` validated).
/// `$deref` unboxes the duel variants.
fn step_fn(state: &Packed, ways: usize) -> StepFn {
    macro_rules! at {
        ($variant:ident, $($deref:tt)*) => {
            match ways {
                2 => at!(@ $variant, 2, $($deref)*),
                4 => at!(@ $variant, 4, $($deref)*),
                8 => at!(@ $variant, 8, $($deref)*),
                16 => at!(@ $variant, 16, $($deref)*),
                _ => unreachable!("supports() admitted ways {ways}"),
            }
        };
        (@ $variant:ident, $w:literal, $($deref:tt)*) => {
            |c: &mut SlicedCache, block: u64, is_write: bool| {
                let SlicedCache { geom, lines, state, stats, .. } = c;
                let Packed::$variant(st) = state else {
                    unreachable!("step_fn matched the state variant")
                };
                step::<_, true>($w, geom, lines, $($deref)* st, stats, block, is_write)
            }
        };
    }
    match state {
        Packed::Plru(_) => at!(Plru,),
        Packed::Stack(_) => at!(Stack,),
        Packed::Rrip(_) => at!(Rrip,),
        Packed::DuelPlru(_) => at!(DuelPlru, &mut **),
        Packed::DuelStack(_) => at!(DuelStack, &mut **),
        Packed::DuelRrip(_) => at!(DuelRrip, &mut **),
    }
}

impl SlicedCache {
    /// A cold cache running `kernel` on `geom`, or `None` when the kernel
    /// does not support the geometry (see [`SliceKernel::supports`]).
    pub fn new(geom: &CacheGeometry, kernel: &SliceKernel) -> Option<Self> {
        if !kernel.supports(geom) {
            return None;
        }
        let (sets, ways) = (geom.sets(), geom.ways());
        let state = match kernel {
            SliceKernel::PlruIpv { .. } => Packed::Plru(Single::new(sets, ways, kernel)),
            SliceKernel::StackIpv { .. } => Packed::Stack(Single::new(sets, ways, kernel)),
            SliceKernel::RripIpv { .. } => Packed::Rrip(Single::new(sets, ways, kernel)),
            SliceKernel::Duel {
                sides,
                leaders_per_side,
                salt,
                psel_bits,
                bimodal,
            } => {
                let map = LeaderMap::new_salted(sets, sides.len(), *leaders_per_side, *salt)
                    .expect("supports() checked the leader layout");
                let (roles, bits, bimodal) = (role_bytes(&map), *psel_bits, *bimodal);
                match &sides[0] {
                    SliceKernel::PlruIpv { .. } => Packed::DuelPlru(Box::new(Duel::new(
                        sets, ways, sides, roles, bits, bimodal,
                    ))),
                    SliceKernel::StackIpv { .. } => Packed::DuelStack(Box::new(Duel::new(
                        sets, ways, sides, roles, bits, bimodal,
                    ))),
                    _ => Packed::DuelRrip(Box::new(Duel::new(
                        sets, ways, sides, roles, bits, bimodal,
                    ))),
                }
            }
        };
        Some(SlicedCache {
            geom: *geom,
            lines: vec![0u64; sets * ways],
            step_one: step_fn(&state, ways),
            state,
            stats: CacheStats::new(),
            clean: true,
        })
    }

    /// Runs `accesses` through the cache with the exact per-access
    /// protocol of the mono engine's `SetAssocCache::access_fast`; `sink`
    /// receives each access's `(icount_delta, hit)` in stream order.
    pub fn feed<S: FnMut(u32, bool)>(&mut self, accesses: &[Access], sink: S) {
        self.clean = false;
        self.drive::<true, S>(accesses, sink);
    }

    /// Runs `accesses` through the cache in the miss-count mode and
    /// returns their misses: the replacement transitions of
    /// [`feed`](Self::feed), without its dirty bits, statistics or sink.
    /// [`stats`](Self::stats) is left as it was.
    ///
    /// The mode compares tags exactly, so it first clears any dirty bit a
    /// full-mode access left, and the lines it fills or hits stay clean.
    /// A later `feed` therefore reports the writebacks of a stream whose
    /// accesses up to the last `count_misses` were all loads; its hits,
    /// misses and evictions are those of an all-`feed` replay.
    pub fn count_misses(&mut self, accesses: &[Access]) -> u64 {
        if !self.clean {
            for line in &mut self.lines {
                *line &= !LINE_DIRTY;
            }
            self.clean = true;
        }
        self.drive::<false, _>(accesses, |_, _| {})
    }

    /// The one stream loop of both modes; returns the misses it counted.
    fn drive<const FULL: bool, S: FnMut(u32, bool)>(
        &mut self,
        accesses: &[Access],
        mut sink: S,
    ) -> u64 {
        let SlicedCache {
            geom,
            lines,
            state,
            stats,
            ..
        } = self;
        let mut tally = CacheStats::new();
        let stats = if FULL { stats } else { &mut tally };
        let before = stats.misses;
        // Dispatch on the (validated) associativity with literal arguments
        // so each arm monomorphizes `run` with a constant `ways`: the lane
        // walks unroll and the `64/ways` lane math folds to shifts.
        macro_rules! run_ways {
            ($st:expr) => {
                match geom.ways() {
                    2 => run::<_, _, FULL>(2, geom, lines, $st, stats, accesses, &mut sink),
                    4 => run::<_, _, FULL>(4, geom, lines, $st, stats, accesses, &mut sink),
                    8 => run::<_, _, FULL>(8, geom, lines, $st, stats, accesses, &mut sink),
                    16 => run::<_, _, FULL>(16, geom, lines, $st, stats, accesses, &mut sink),
                    _ => unreachable!("supports() admitted ways {}", geom.ways()),
                }
            };
        }
        match state {
            Packed::Plru(st) => run_ways!(st),
            Packed::Stack(st) => run_ways!(st),
            Packed::Rrip(st) => run_ways!(st),
            Packed::DuelPlru(st) => run_ways!(&mut **st),
            Packed::DuelStack(st) => run_ways!(&mut **st),
            Packed::DuelRrip(st) => run_ways!(&mut **st),
        }
        stats.misses - before
    }

    /// One access to `block` with the per-access protocol of
    /// [`feed`](Self::feed) (the same `step`), for callers that drive a
    /// cache level by level: returns whether it hit and the block the fill
    /// displaced, with its dirty bit, so a dirty victim can be written to
    /// the next level. This is how `mem_model`'s L1/L2 capture runs true
    /// LRU (the all-zero [`SliceKernel::StackIpv`]) on the packed state.
    #[inline(always)]
    pub fn access_block(&mut self, block: u64, is_write: bool) -> (bool, Option<Evicted>) {
        self.clean = false;
        let (hit, displaced) = (self.step_one)(self, block, is_write);
        let geom = &self.geom;
        let evicted = (displaced & LINE_VALID != 0).then(|| Evicted {
            block_addr: geom.block_from_parts(geom.set_of_block(block), displaced & LINE_TAG_MASK),
            dirty: displaced & LINE_DIRTY != 0,
        });
        (hit, evicted)
    }

    /// Zeroes the statistics (the warm-up boundary); cache and
    /// replacement state are kept.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::new();
    }

    /// Statistics since construction or the last [`reset_stats`](Self::reset_stats).
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }
}

#[inline(always)]
fn run<P: ReplState, S: FnMut(u32, bool), const FULL: bool>(
    ways: usize,
    geom: &CacheGeometry,
    lines: &mut [u64],
    state: &mut P,
    stats: &mut CacheStats,
    accesses: &[Access],
    sink: &mut S,
) {
    // A local copy keeps the counters in registers across the loop.
    let mut local = *stats;
    for a in accesses {
        let (hit, _) = step::<P, FULL>(
            ways,
            geom,
            lines,
            state,
            &mut local,
            geom.block_of(a.addr),
            a.is_write(),
        );
        sink(a.icount_delta, hit);
    }
    *stats = local;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{Access, AccessContext};
    use crate::cache::SetAssocCache;
    use crate::policy::{ReplacementPolicy, ShardAffinity};
    use proptest::prelude::*;

    // -- SWAR helpers against naive models ---------------------------------

    #[test]
    fn nib_find_matches_linear_scan() {
        for ways in [2usize, 4, 8, 16] {
            let mut word = 0u64;
            // An arbitrary permutation of 0..ways.
            for p in 0..ways {
                word |= (((p * 7 + 3) % ways) as u64) << (4 * p);
            }
            for target in 0..ways as u64 {
                let naive = (0..ways).find(|&p| nib_read(word, p) == target).unwrap();
                assert_eq!(nib_find(word, target, ways), naive, "ways={ways}");
            }
        }
    }

    #[test]
    fn stack_move_matches_vec_model() {
        // Drive the packed stack and a positions-vector model (the exact
        // RecencyStack::move_to semantics) through chaotic moves.
        for ways in [2usize, 4, 8, 16] {
            let mut list = 0u64;
            for p in 0..ways {
                list |= (p as u64) << (4 * p);
            }
            let mut pos: Vec<usize> = (0..ways).collect(); // pos[way]
            let mut seed = 0x12345678u64;
            for _ in 0..500 {
                seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                let way = (seed >> 33) as usize % ways;
                let target = (seed >> 49) as usize % ways;
                let current = pos[way];
                list = stack_move(list, way as u64, current, target);
                // Reference shift semantics.
                if target < current {
                    for p in pos.iter_mut() {
                        if (target..current).contains(p) {
                            *p += 1;
                        }
                    }
                } else {
                    for p in pos.iter_mut() {
                        if *p > current && *p <= target {
                            *p -= 1;
                        }
                    }
                }
                pos[way] = target;
                for (w, &p) in pos.iter().enumerate() {
                    assert_eq!(
                        nib_read(list, p),
                        w as u64,
                        "ways={ways} way={way} target={target}"
                    );
                }
            }
        }
    }

    // -- Whole-kernel differential: sliced replay vs SetAssocCache ---------

    /// Interprets a [`SliceKernel`] naively as a boxed policy, so the
    /// sliced engine can be differentially tested against the production
    /// cache without depending on the policy crates (which sit above
    /// `sim-core` in the workspace graph). A duel runs the textbook
    /// `DuelController` protocol: leader misses feed the counters from
    /// `on_miss`, and each callback asks the leader map which side the
    /// set plays.
    struct NaiveKernelPolicy {
        kernel: SliceKernel,
        trees: Vec<MirrorTree>,
        stacks: Vec<Vec<usize>>, // pos[way] per set
        rrpv: Vec<Vec<u8>>,
        ways: usize,
        duel: Option<(LeaderMap, Selector)>,
        bimodal_fills: u64,
    }

    impl NaiveKernelPolicy {
        fn new(geom: &CacheGeometry, kernel: SliceKernel) -> Self {
            let (sets, ways) = (geom.sets(), geom.ways());
            let duel = match &kernel {
                SliceKernel::Duel {
                    sides,
                    leaders_per_side,
                    salt,
                    psel_bits,
                    ..
                } => Some((
                    LeaderMap::new_salted(sets, sides.len(), *leaders_per_side, *salt).unwrap(),
                    Selector::new(sides.len(), *psel_bits),
                )),
                _ => None,
            };
            NaiveKernelPolicy {
                kernel,
                trees: vec![MirrorTree::new(ways); sets],
                stacks: vec![(0..ways).collect(); sets],
                rrpv: vec![vec![3u8; ways]; sets],
                ways,
                duel,
                bimodal_fills: 0,
            }
        }

        /// The single-table kernel `set` applies right now, and its side.
        fn rule(&self, set: usize) -> (SliceKernel, usize) {
            match (&self.kernel, &self.duel) {
                (SliceKernel::Duel { sides, .. }, Some((map, selector))) => {
                    let side = match map.role(set) {
                        SetRole::Leader(p) => p,
                        SetRole::Follower => selector.winner(),
                    };
                    (sides[side].clone(), side)
                }
                (k, _) => (k.clone(), 0),
            }
        }

        fn stack_move_to(&mut self, set: usize, way: usize, target: usize) {
            let current = self.stacks[set][way];
            if target < current {
                for p in self.stacks[set].iter_mut() {
                    if (target..current).contains(p) {
                        *p += 1;
                    }
                }
            } else {
                for p in self.stacks[set].iter_mut() {
                    if *p > current && *p <= target {
                        *p -= 1;
                    }
                }
            }
            self.stacks[set][way] = target;
        }
    }

    impl ReplacementPolicy for NaiveKernelPolicy {
        fn name(&self) -> &str {
            "naive-kernel"
        }

        fn victim(&mut self, set: usize, _ctx: &AccessContext) -> usize {
            match self.rule(set).0 {
                SliceKernel::PlruIpv { .. } => self.trees[set].victim(),
                SliceKernel::StackIpv { .. } => (0..self.ways)
                    .find(|&w| self.stacks[set][w] == self.ways - 1)
                    .unwrap(),
                _ => loop {
                    if let Some(w) = (0..self.ways).find(|&w| self.rrpv[set][w] == 3) {
                        break w;
                    }
                    for r in self.rrpv[set].iter_mut() {
                        *r += 1;
                    }
                },
            }
        }

        fn on_hit(&mut self, set: usize, way: usize, _ctx: &AccessContext) {
            match self.rule(set).0 {
                SliceKernel::PlruIpv { ipv } => {
                    let p = self.trees[set].position(way);
                    self.trees[set].set_position(way, usize::from(ipv[p]));
                }
                SliceKernel::StackIpv { ipv } => {
                    let p = self.stacks[set][way];
                    self.stack_move_to(set, way, usize::from(ipv[p]));
                }
                SliceKernel::RripIpv { vector } => {
                    let r = usize::from(self.rrpv[set][way]);
                    self.rrpv[set][way] = vector[r];
                }
                SliceKernel::Duel { .. } => unreachable!(),
            }
        }

        fn on_miss(&mut self, set: usize, _ctx: &AccessContext) {
            if let Some((map, selector)) = &mut self.duel {
                if let SetRole::Leader(p) = map.role(set) {
                    selector.record_miss(p);
                }
            }
        }

        fn on_fill(&mut self, set: usize, way: usize, _ctx: &AccessContext) {
            let (rule, side) = self.rule(set);
            let mut insert = match &rule {
                SliceKernel::PlruIpv { ipv } | SliceKernel::StackIpv { ipv } => ipv[self.ways],
                SliceKernel::RripIpv { vector } => vector[4],
                SliceKernel::Duel { .. } => unreachable!(),
            };
            if let SliceKernel::Duel {
                bimodal: Some(b), ..
            } = &self.kernel
            {
                if b.side == side {
                    self.bimodal_fills += 1;
                    if self.bimodal_fills % b.every == 0 {
                        insert = b.rare;
                    }
                }
            }
            match rule {
                SliceKernel::PlruIpv { .. } => {
                    self.trees[set].set_position(way, usize::from(insert));
                }
                SliceKernel::StackIpv { .. } => {
                    self.stack_move_to(set, way, usize::from(insert));
                }
                _ => self.rrpv[set][way] = insert,
            }
        }

        fn bits_per_set(&self) -> u64 {
            0
        }

        fn shard_affinity(&self) -> ShardAffinity {
            ShardAffinity::SetLocal
        }
    }

    fn mixed_stream(n: usize, blocks: u64) -> Vec<Access> {
        let mut state = 0x9e3779b97f4a7c15u64;
        (0..n)
            .map(|i| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let hot = i % 3 == 0;
                let addr = (state % if hot { blocks / 8 } else { blocks }) * 64;
                let a = if state & 3 == 0 {
                    Access::write(addr, state % 256)
                } else {
                    Access::read(addr, state % 256)
                };
                a.with_icount_delta((state % 5) as u32 + 1)
            })
            .collect()
    }

    /// A duel over `sides` with 4 leaders per side, narrow PSELs so the
    /// winner flips within a test stream, and an optional bimodal rule.
    fn duel(sides: Vec<SliceKernel>, salt: usize, bimodal: Option<Bimodal>) -> SliceKernel {
        SliceKernel::Duel {
            sides,
            leaders_per_side: 4,
            salt,
            psel_bits: 4,
            bimodal,
        }
    }

    fn kernels(ways: usize) -> Vec<SliceKernel> {
        let zero = vec![0u8; ways + 1];
        let mut churn = vec![0u8; ways + 1];
        for (i, e) in churn.iter_mut().enumerate() {
            *e = ((i * 3 + 1) % ways) as u8;
        }
        let mut lip = zero.clone();
        lip[ways] = (ways - 1) as u8;
        let mut mid = churn.clone();
        mid[ways] = (ways / 2) as u8;
        let plru = |ipv: &Vec<u8>| SliceKernel::PlruIpv { ipv: ipv.clone() };
        let stack = |ipv: &Vec<u8>| SliceKernel::StackIpv { ipv: ipv.clone() };
        let rrip = |vector: [u8; 5]| SliceKernel::RripIpv { vector };
        let bip = Some(Bimodal {
            side: 1,
            every: 5,
            rare: 0,
        });
        vec![
            plru(&zero),
            plru(&churn),
            stack(&zero),
            stack(&churn),
            rrip([0, 0, 0, 0, 2]),
            rrip([0, 1, 1, 2, 3]),
            duel(vec![plru(&zero), plru(&lip)], 0, None),
            duel(
                vec![plru(&zero), plru(&churn), plru(&lip), plru(&mid)],
                0,
                None,
            ),
            duel(vec![plru(&churn), plru(&lip)], 7, bip),
            duel(vec![stack(&zero), stack(&lip)], 0, bip),
            duel(
                vec![rrip([0, 0, 0, 0, 2]), rrip([0, 0, 0, 0, 3])],
                0,
                Some(Bimodal {
                    side: 1,
                    every: 5,
                    rare: 2,
                }),
            ),
        ]
    }

    #[test]
    fn sliced_replay_is_bit_identical_to_cache_replay() {
        for ways in [2usize, 4, 8, 16] {
            let geom = CacheGeometry::from_sets(32, ways, 64).unwrap();
            let stream = mixed_stream(12_000, 32 * ways as u64 * 3);
            let warmup = 3_000;
            for kernel in kernels(ways) {
                // Reference: the production cache driving the naive
                // kernel interpreter.
                let mut cache =
                    SetAssocCache::with_policy(geom, NaiveKernelPolicy::new(&geom, kernel.clone()));
                for a in &stream[..warmup] {
                    cache.access_fast(a);
                }
                cache.reset_stats();
                let mut ref_hits = Vec::new();
                for a in &stream[warmup..] {
                    ref_hits.push(cache.access_fast(a));
                }

                let mut sliced =
                    SlicedCache::new(&geom, &kernel).expect("kernel supports geometry");
                sliced.feed(&stream[..warmup], |_, _| {});
                sliced.reset_stats();
                let mut hits = Vec::new();
                sliced.feed(&stream[warmup..], |_, h| hits.push(h));
                assert_eq!(
                    *sliced.stats(),
                    *cache.stats(),
                    "ways={ways} kernel={kernel:?}"
                );
                assert_eq!(hits, ref_hits, "ways={ways} kernel={kernel:?}");
            }
        }
    }

    #[test]
    fn count_mode_counts_the_misses_of_feed() {
        for ways in [2usize, 4, 8, 16] {
            let geom = CacheGeometry::from_sets(32, ways, 64).unwrap();
            let stream = mixed_stream(12_000, 32 * ways as u64 * 3);
            let (warm, measured) = stream.split_at(3_000);
            for kernel in kernels(ways) {
                let mut full = SlicedCache::new(&geom, &kernel).unwrap();
                full.feed(warm, |_, _| {});
                full.reset_stats();
                full.feed(measured, |_, _| {});
                let mut count = SlicedCache::new(&geom, &kernel).unwrap();
                count.count_misses(warm);
                let misses = count.count_misses(measured);
                assert_eq!(misses, full.stats().misses, "ways={ways} kernel={kernel:?}");
                assert_eq!(
                    *count.stats(),
                    CacheStats::new(),
                    "count mode keeps no stats"
                );
            }
        }
    }

    #[test]
    fn unsupported_geometry_falls_back() {
        let geom = CacheGeometry::from_sets(4, 32, 64).unwrap(); // 32-way
        let kernel = SliceKernel::PlruIpv { ipv: vec![0; 33] };
        assert!(!kernel.supports(&geom));
        assert!(SlicedCache::new(&geom, &kernel).is_none());
    }

    #[test]
    fn malformed_kernels_are_rejected() {
        let geom = CacheGeometry::from_sets(4, 16, 64).unwrap();
        assert!(!SliceKernel::PlruIpv { ipv: vec![0; 16] }.supports(&geom)); // short
        assert!(!SliceKernel::StackIpv { ipv: vec![16; 17] }.supports(&geom)); // out of range
        assert!(!SliceKernel::RripIpv {
            vector: [0, 0, 0, 0, 4]
        }
        .supports(&geom));
        assert!(SliceKernel::RripIpv {
            vector: [0, 0, 0, 0, 2]
        }
        .supports(&geom));
    }

    #[test]
    fn lanes_reporting() {
        let plru = SliceKernel::PlruIpv { ipv: vec![0; 17] };
        assert_eq!(plru.lanes(16), 4);
        assert_eq!(plru.lanes(8), 8);
        assert_eq!(SliceKernel::StackIpv { ipv: vec![0; 17] }.lanes(16), 1);
        assert_eq!(SliceKernel::RripIpv { vector: [0; 5] }.lanes(16), 1);
        assert_eq!(duel(vec![plru.clone(), plru], 0, None).lanes(16), 4);
        // A nibble duel (DRRIP's shape) shares one word-filling set.
        let rrip = SliceKernel::RripIpv { vector: [0; 5] };
        assert_eq!(duel(vec![rrip.clone(), rrip], 0, None).lanes(16), 1);
    }

    #[test]
    fn malformed_duels_are_rejected() {
        let geom = CacheGeometry::from_sets(64, 16, 64).unwrap();
        let plru = SliceKernel::PlruIpv { ipv: vec![0; 17] };
        let stack = SliceKernel::StackIpv { ipv: vec![0; 17] };
        let ok = duel(vec![plru.clone(), plru.clone()], 0, None);
        assert!(ok.supports(&geom));
        // Three sides, mixed families, a nested duel, a bad PSEL width,
        // a bimodal rule naming no side or an out-of-range position.
        assert!(!duel(vec![plru.clone(); 3], 0, None).supports(&geom));
        assert!(!duel(vec![plru.clone(), stack], 0, None).supports(&geom));
        assert!(!duel(vec![ok.clone(), ok.clone()], 0, None).supports(&geom));
        let mut wide = ok.clone();
        if let SliceKernel::Duel { psel_bits, .. } = &mut wide {
            *psel_bits = 32;
        }
        assert!(!wide.supports(&geom));
        let rule = |side, every, rare| Some(Bimodal { side, every, rare });
        assert!(!duel(vec![plru.clone(); 2], 0, rule(2, 32, 0)).supports(&geom));
        assert!(!duel(vec![plru.clone(); 2], 0, rule(1, 0, 0)).supports(&geom));
        assert!(!duel(vec![plru.clone(); 2], 0, rule(1, 32, 16)).supports(&geom));
        // The leader layout must fit the sets: 4 sides x 4 leaders need
        // 16 regions of at least 4 sets.
        let four = duel(vec![plru; 4], 0, None);
        assert!(four.supports(&geom));
        let small = CacheGeometry::from_sets(8, 16, 64).unwrap();
        assert!(!four.supports(&small));
        assert!(SlicedCache::new(&small, &four).is_none());
    }

    // -- Kernel soundness sweep --------------------------------------------

    #[test]
    fn kernel_sweep_passes_for_every_kernel_shape() {
        for ways in [2usize, 4, 8] {
            for kernel in kernels(ways) {
                let r = kernel_soundness_sweep(&kernel, ways)
                    .unwrap_or_else(|e| panic!("ways={ways} kernel={kernel:?}: {e}"));
                assert!(r.exhaustive, "ways={ways} kernel={kernel:?}");
                assert!(r.transitions > 0);
                assert!(r.accesses > 0, "the single-access entry is swept");
                assert!(r.count_accesses > 0, "the miss-count mode is swept");
            }
        }
        // 16-way nibble kernels fall back to the deterministic walk; the
        // exhaustive 16-way PLRU sweep runs from xtask model-check in
        // release, where its 4M transitions and 34M lane writes are cheap.
        let r = kernel_soundness_sweep(&SliceKernel::StackIpv { ipv: vec![0; 17] }, 16).unwrap();
        assert!(!r.exhaustive);
        let r = kernel_soundness_sweep(
            &SliceKernel::RripIpv {
                vector: [0, 0, 0, 0, 2],
            },
            16,
        )
        .unwrap();
        assert!(!r.exhaustive);
    }

    #[test]
    fn access_block_reports_the_displaced_line() {
        // 1 set x 2 ways of true LRU: A (stored), B, then C displaces A,
        // dirty; D displaces B, clean.
        let geom = CacheGeometry::from_sets(1, 2, 64).unwrap();
        let lru = SliceKernel::StackIpv { ipv: vec![0; 3] };
        let mut c = SlicedCache::new(&geom, &lru).unwrap();
        assert_eq!(c.access_block(10, true), (false, None));
        assert_eq!(c.access_block(11, false), (false, None));
        assert_eq!(c.access_block(11, false), (true, None));
        let dirty = Evicted {
            block_addr: 10,
            dirty: true,
        };
        assert_eq!(c.access_block(12, false), (false, Some(dirty)));
        let clean = Evicted {
            block_addr: 11,
            dirty: false,
        };
        assert_eq!(c.access_block(13, false), (false, Some(clean)));
        assert_eq!((c.stats().evictions, c.stats().writebacks), (2, 1));
    }

    #[test]
    fn plru_sweep_checks_every_lane_write() {
        for ways in [2u64, 4, 8] {
            let kernel = SliceKernel::PlruIpv {
                ipv: vec![0; ways as usize + 1],
            };
            let r = kernel_soundness_sweep(&kernel, ways as usize).unwrap();
            // Per lane and tree state: the victim, a hit and a fill per
            // way, and a write per (way, position).
            let per_state = 1 + 2 * ways + ways * ways;
            assert_eq!(r.transitions, (64 / ways) * (1 << (ways - 1)) * per_state);
        }
    }

    #[test]
    fn lane_tables_match_mirror_tree_at_16_ways() {
        // Sampled 16-way tree states (the exhaustive 2^15 sweep runs from
        // xtask model-check in release): both extremes, every single node
        // bit, and a deterministic xorshift walk. From each, the victim,
        // every position read and every (way, position) write is checked
        // at all 4 lane offsets.
        let mask = tree_mask(16);
        let corners = [0, mask].into_iter().chain((0..15).map(|b| 1u64 << b));
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let walk = (0..512).map(move |_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x & mask
        });
        let writes = plru_writes_at(16, corners.chain(walk)).unwrap();
        assert_eq!(writes, (2 + 15 + 512) * 16 * 16 * 4);
    }

    /// Whether every set's valid lines form a prefix of its ways, and hold
    /// as many lines as the distinct blocks the set has seen, up to its
    /// ways. Returns the sets caught mid-fill (some but not all ways
    /// valid), or the first fault.
    fn check_prefix(c: &SlicedCache, seen: &[Vec<u64>]) -> Result<usize, String> {
        let ways = c.geom.ways();
        let mut mid_fill = 0;
        for (set, lines) in c.lines.chunks(ways).enumerate() {
            let valid = lines
                .iter()
                .enumerate()
                .fold(0u64, |m, (w, &x)| m | u64::from(x & LINE_VALID != 0) << w);
            if valid & (valid + 1) != 0 {
                return Err(format!(
                    "set {set}: valid lines {valid:#b} are not a prefix"
                ));
            }
            let want = seen[set].len().min(ways);
            if valid.count_ones() as usize != want {
                return Err(format!(
                    "set {set}: {} valid lines, {want} distinct blocks seen",
                    valid.count_ones()
                ));
            }
            mid_fill += usize::from(want > 0 && want < ways);
        }
        Ok(mid_fill)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The prefix invariant `step` relies on holds after any
        /// interleaving of `feed`, `count_misses` and `access_block`, for
        /// every kernel family at 2–16 ways, with sets checked while they
        /// are still filling (so the first-invalid scan runs).
        #[test]
        fn valid_lines_form_a_prefix_after_any_interleaving(
            kernel_ix in 0usize..11,
            ops in proptest::collection::vec((0u8..3, 1usize..25, any::<u64>()), 1..24),
        ) {
            for ways in [2usize, 4, 8, 16] {
                let all = kernels(ways);
                let kernel = &all[kernel_ix % all.len()];
                let geom = CacheGeometry::from_sets(32, ways, 64).unwrap();
                let mut c = SlicedCache::new(&geom, kernel).expect("kernel supports geometry");
                let pool = (2 * geom.sets() * ways) as u64;
                let mut seen = vec![Vec::new(); geom.sets()];
                let note = |seen: &mut [Vec<u64>], block: u64| {
                    let set = &mut seen[geom.set_of_block(block)];
                    if !set.contains(&block) {
                        set.push(block);
                    }
                };
                // Two fills of set 0: the second misses into a set holding
                // one line, so the first-invalid scan runs on a live prefix.
                let mut mid_fill = 0;
                for block in [0, geom.sets() as u64] {
                    c.access_block(block, false);
                    note(&mut seen, block);
                    mid_fill += check_prefix(&c, &seen)
                        .unwrap_or_else(|e| panic!("{ways}-way {kernel:?}: {e}"));
                }
                for &(kind, len, seed) in &ops {
                    let mut x = seed | 1;
                    let chunk: Vec<Access> = (0..len)
                        .map(|_| {
                            x ^= x << 13;
                            x ^= x >> 7;
                            x ^= x << 17;
                            block_access(x % pool, x >> 62 == 0)
                        })
                        .collect();
                    match kind {
                        0 => c.feed(&chunk, |_, _| {}),
                        1 => {
                            c.count_misses(&chunk);
                        }
                        _ => {
                            for a in &chunk {
                                c.access_block(geom.block_of(a.addr), a.is_write());
                            }
                        }
                    }
                    for a in &chunk {
                        note(&mut seen, geom.block_of(a.addr));
                    }
                    mid_fill += check_prefix(&c, &seen)
                        .unwrap_or_else(|e| panic!("{ways}-way {kernel:?} after op {kind}: {e}"));
                }
                prop_assert!(mid_fill > 0, "no set was caught mid-fill");
            }
        }
    }

    #[test]
    fn kernel_sweep_rejects_unsupported_shapes() {
        assert!(kernel_soundness_sweep(&SliceKernel::PlruIpv { ipv: vec![0; 5] }, 3).is_err());
        assert!(kernel_soundness_sweep(&SliceKernel::PlruIpv { ipv: vec![0; 5] }, 8).is_err());
    }

    #[test]
    fn kernel_sweep_catches_seeded_lane_leak() {
        let err = kernel_soundness_sweep_poisoned(&SliceKernel::PlruIpv { ipv: vec![0; 5] }, 4)
            .unwrap_err();
        assert!(err.contains("lane boundary"), "{err}");
    }

    #[test]
    fn kernel_sweep_catches_swapped_duel_sides() {
        for ways in [4usize, 8] {
            for kernel in kernels(ways) {
                if matches!(kernel, SliceKernel::Duel { .. }) {
                    let err = kernel_soundness_sweep_poisoned(&kernel, ways)
                        .expect_err("swapped side tables must be caught");
                    assert!(err.contains("Duel side"), "{err}");
                }
            }
        }
    }

    #[test]
    fn kernel_sweep_catches_seeded_nibble_corruption() {
        let err = kernel_soundness_sweep_poisoned(&SliceKernel::StackIpv { ipv: vec![0; 5] }, 4)
            .unwrap_err();
        assert!(err.contains("on_hit"), "{err}");
        let err = kernel_soundness_sweep_poisoned(
            &SliceKernel::RripIpv {
                vector: [0, 0, 0, 0, 2],
            },
            4,
        )
        .unwrap_err();
        assert!(err.contains("on_hit"), "{err}");
        // At 16 ways the walk path must catch the same defect.
        let err = kernel_soundness_sweep_poisoned(&SliceKernel::StackIpv { ipv: vec![0; 17] }, 16)
            .unwrap_err();
        assert!(err.contains("on_hit"), "{err}");
    }
}
