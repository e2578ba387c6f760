//! Composable synthetic access-pattern generators.
//!
//! A [`WorkloadSpec`] describes a program as a sequence of [`Phase`]s, each
//! a weighted mixture of primitive [`Pattern`]s (streams, loops, gathers,
//! pointer chases). A [`WorkloadGen`] turns the spec into a deterministic,
//! endless iterator of [`Access`]es. The primitives were chosen to span the
//! reuse-distance behaviours that drive last-level-cache replacement:
//! zero-reuse streaming, capacity-scale looping, irregular gathers, and
//! dependent pointer chasing.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sim_core::{Access, AccessKind};

/// A primitive access pattern. All sizes are in bytes; generated addresses
/// are line-aligned (64-byte lines assumed for alignment only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pattern {
    /// Sequential streaming through a large region with zero short-range
    /// reuse (the "zero-reuse blocks" of the paper's Section 2.2). Wraps
    /// after `region_bytes`, so reuse exists only at region scale.
    Stream {
        /// Base byte address of the region.
        start: u64,
        /// Distance between consecutive accesses.
        stride: u64,
        /// Region size before wrapping.
        region_bytes: u64,
    },
    /// Repeated in-order sweep over a fixed working set: uniform reuse
    /// distance equal to the working-set size.
    Loop {
        /// Base byte address of the working set.
        start: u64,
        /// Working-set size.
        working_set_bytes: u64,
        /// Distance between consecutive accesses.
        stride: u64,
    },
    /// Uniformly random accesses within a region: geometric-ish reuse
    /// distances, models hash tables and sparse solvers.
    Gather {
        /// Base byte address of the region.
        start: u64,
        /// Region size.
        region_bytes: u64,
    },
    /// A dependent pointer chase over a pseudo-random full-cycle
    /// permutation of `nodes` cache lines: irregular but eventually
    /// revisits every node (reuse distance = node count).
    PointerChase {
        /// Base byte address of the node pool.
        start: u64,
        /// Number of 64-byte nodes; must be a power of two.
        nodes: u64,
    },
    /// Repeated sweeps over a window that slides through a larger region:
    /// each block is reused once per sweep for a bounded number of sweeps,
    /// then never again. Strongly recency-friendly — the pattern where
    /// classic LRU is near-optimal and early-eviction insertion policies
    /// (LIP/BRRIP/PLRU-insertion) lose, used to model the paper's
    /// 447.dealII regression case.
    SlidingWindow {
        /// Base byte address of the region.
        start: u64,
        /// Size of the actively swept window.
        window_bytes: u64,
        /// Lines the window advances after each full sweep (the block
        /// lifetime is `window_bytes / 64 / advance_lines` sweeps).
        advance_lines: u64,
        /// Total region the window wraps within.
        region_bytes: u64,
    },
}

/// Per-pattern generator state.
#[derive(Debug, Clone)]
struct PatternState {
    pattern: Pattern,
    /// [`Pattern::Stream`]/[`Pattern::Loop`]: the byte offset of the next
    /// access, already wrapped; [`Pattern::PointerChase`]: the LCG state;
    /// [`Pattern::SlidingWindow`]: the line within the current sweep.
    cursor: u64,
    /// Window base for [`Pattern::SlidingWindow`].
    window_base: u64,
    /// PCs attributed to this pattern's accesses (a small pool, so
    /// PC-indexed policies such as SHiP see realistic locality).
    pcs: [u64; 4],
}

impl PatternState {
    fn new(pattern: Pattern, pc_seed: u64) -> Self {
        let base = 0x40_0000 + (pc_seed % 0xffff) * 0x40;
        PatternState {
            pattern,
            cursor: 0,
            window_base: 0,
            pcs: [base, base + 8, base + 16, base + 24],
        }
    }

    fn next_addr(&mut self, rng: &mut StdRng) -> u64 {
        match self.pattern {
            Pattern::Stream {
                start,
                stride,
                region_bytes: wrap,
            }
            | Pattern::Loop {
                start,
                stride,
                working_set_bytes: wrap,
            } => {
                // The `i`-th offset is `(i * stride) % wrap.max(stride)`,
                // kept incrementally: `stride <= wrap.max(stride)`, so one
                // conditional subtraction wraps each step exactly.
                let offset = self.cursor;
                let next = offset + stride;
                let modulus = wrap.max(stride);
                self.cursor = if next >= modulus {
                    next - modulus
                } else {
                    next
                };
                start + (offset & !63)
            }
            Pattern::Gather {
                start,
                region_bytes,
            } => {
                let lines = (region_bytes / 64).max(1);
                start + rng.gen_range(0..lines) * 64
            }
            Pattern::PointerChase { start, nodes } => {
                debug_assert!(nodes.is_power_of_two());
                // Full-period LCG over the node index space: c odd,
                // a ≡ 1 (mod 4) gives period 2^k (Hull–Dobell).
                self.cursor = (self.cursor.wrapping_mul(0xd1342543de82ef95 & !3 | 1))
                    .wrapping_add(0x9e3779b97f4a7c15 | 1)
                    & (nodes - 1);
                start + self.cursor * 64
            }
            Pattern::SlidingWindow {
                start,
                window_bytes,
                advance_lines,
                region_bytes,
            } => {
                let window_lines = (window_bytes / 64).max(1);
                let region_lines = (region_bytes / 64).max(window_lines);
                // Both terms are below `region_lines` (`window_lines` is
                // at most that), so one conditional subtraction wraps.
                let line = self.window_base + self.cursor;
                let line = if line >= region_lines {
                    line - region_lines
                } else {
                    line
                };
                self.cursor += 1;
                if self.cursor >= window_lines {
                    self.cursor = 0;
                    self.window_base = (self.window_base + advance_lines.max(1)) % region_lines;
                }
                start + line * 64
            }
        }
    }

    fn pc(&self, rng: &mut StdRng) -> u64 {
        self.pcs[rng.gen_range(0..4)]
    }
}

/// One weighted pattern inside a phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Component {
    /// The pattern.
    pub pattern: Pattern,
    /// Relative share of the phase's accesses this pattern receives.
    pub weight: f64,
}

/// A program phase: a mixture of patterns active for `accesses` references.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// Pattern mixture (weights need not sum to one).
    pub components: Vec<Component>,
    /// Accesses spent in this phase before moving to the next (phases
    /// repeat cyclically).
    pub accesses: u64,
}

impl Phase {
    /// A single-pattern phase.
    pub fn uniform(pattern: Pattern, accesses: u64) -> Self {
        Phase {
            components: vec![Component {
                pattern,
                weight: 1.0,
            }],
            accesses,
        }
    }
}

/// A complete synthetic workload description.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Display name (e.g. `"462.libquantum"`).
    pub name: String,
    /// Base RNG seed; generators add the simpoint index.
    pub seed: u64,
    /// Mean instructions per memory access (≥ 1); drives `icount_delta`.
    pub instructions_per_access: f64,
    /// Fraction of accesses that are stores.
    pub write_ratio: f64,
    /// The phase schedule (repeats cyclically).
    pub phases: Vec<Phase>,
}

impl WorkloadSpec {
    /// Creates an endless deterministic generator for this spec.
    /// `variant` perturbs the seed (used for simpoints).
    ///
    /// # Panics
    ///
    /// Panics if the spec has no phases, a phase has no components, or
    /// the write ratio is NaN.
    pub fn generator(&self, variant: u64) -> WorkloadGen {
        WorkloadGen::new(self, variant)
    }

    /// Returns a copy with every working-set/region size divided by
    /// `2^shift` (floored at one cache line). Used to run the paper's
    /// workload suite against proportionally smaller caches so quick test
    /// and benchmark runs keep the same capacity *ratios*.
    pub fn scaled_down(&self, shift: u32) -> WorkloadSpec {
        let scale = |bytes: u64| (bytes >> shift).max(64);
        let mut spec = self.clone();
        for phase in &mut spec.phases {
            for comp in &mut phase.components {
                comp.pattern = match comp.pattern {
                    Pattern::Stream {
                        start,
                        stride,
                        region_bytes,
                    } => Pattern::Stream {
                        start,
                        stride,
                        region_bytes: scale(region_bytes),
                    },
                    Pattern::Loop {
                        start,
                        working_set_bytes,
                        stride,
                    } => Pattern::Loop {
                        start,
                        working_set_bytes: scale(working_set_bytes),
                        stride,
                    },
                    Pattern::Gather {
                        start,
                        region_bytes,
                    } => Pattern::Gather {
                        start,
                        region_bytes: scale(region_bytes),
                    },
                    Pattern::PointerChase { start, nodes } => Pattern::PointerChase {
                        start,
                        nodes: (nodes >> shift).max(2).next_power_of_two(),
                    },
                    Pattern::SlidingWindow {
                        start,
                        window_bytes,
                        advance_lines,
                        region_bytes,
                    } => Pattern::SlidingWindow {
                        start,
                        window_bytes: scale(window_bytes),
                        advance_lines: (advance_lines >> shift).max(1),
                        region_bytes: scale(region_bytes),
                    },
                };
            }
        }
        spec
    }
}

/// An endless iterator of [`Access`]es drawn from a [`WorkloadSpec`].
#[derive(Debug, Clone)]
pub struct WorkloadGen {
    rng: StdRng,
    phases: Vec<(Vec<PatternState>, Vec<f64>, u64)>,
    phase_idx: usize,
    in_phase: u64,
    /// `ln(1 - 1/mean)` of the geometric instruction gap, or `None` when
    /// the mean is 1 (every gap is 1).
    gap_log_q: Option<f64>,
    /// Store probability, checked to lie in `[0, 1]` at construction.
    write_ratio: f64,
}

impl WorkloadGen {
    fn new(spec: &WorkloadSpec, variant: u64) -> Self {
        assert!(
            !spec.phases.is_empty(),
            "workload {} has no phases",
            spec.name
        );
        let mut pc_seed = spec.seed;
        let phases = spec
            .phases
            .iter()
            .map(|phase| {
                assert!(
                    !phase.components.is_empty(),
                    "workload {} has an empty phase",
                    spec.name
                );
                let states: Vec<PatternState> = phase
                    .components
                    .iter()
                    .map(|c| {
                        pc_seed = pc_seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                        PatternState::new(c.pattern, pc_seed)
                    })
                    .collect();
                let total: f64 = phase.components.iter().map(|c| c.weight).sum();
                let mut acc = 0.0;
                let cumulative: Vec<f64> = phase
                    .components
                    .iter()
                    .map(|c| {
                        acc += c.weight / total;
                        acc
                    })
                    .collect();
                (states, cumulative, phase.accesses.max(1))
            })
            .collect();
        let mean = spec.instructions_per_access.max(1.0);
        let write_ratio = spec.write_ratio.clamp(0.0, 1.0);
        assert!(
            (0.0..=1.0).contains(&write_ratio),
            "workload {} has write ratio {}",
            spec.name,
            spec.write_ratio
        );
        WorkloadGen {
            rng: StdRng::seed_from_u64(spec.seed ^ variant.wrapping_mul(0x9e3779b97f4a7c15)),
            phases,
            phase_idx: 0,
            in_phase: 0,
            gap_log_q: (mean > 1.0).then(|| (1.0 - 1.0 / mean).ln()),
            write_ratio,
        }
    }
}

impl Iterator for WorkloadGen {
    type Item = Access;

    fn next(&mut self) -> Option<Access> {
        let (states, cumulative, len) = &mut self.phases[self.phase_idx];
        // Pick a component by weight.
        let r: f64 = self.rng.gen();
        let idx = cumulative
            .iter()
            .position(|&c| r <= c)
            .unwrap_or(states.len() - 1);
        let addr = states[idx].next_addr(&mut self.rng);
        let pc = states[idx].pc(&mut self.rng);
        // Geometric instruction gap with the requested mean.
        let gap = match self.gap_log_q {
            None => 1,
            Some(log_q) => {
                let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
                (1.0 + (u.ln() / log_q)).floor().min(1000.0) as u32
            }
        };
        // `gen_bool`'s draw without its per-call range check: the ratio
        // was checked once in `new`.
        let kind = if self.rng.gen::<f64>() < self.write_ratio {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        // Advance the phase schedule.
        self.in_phase += 1;
        if self.in_phase >= *len {
            self.in_phase = 0;
            self.phase_idx = (self.phase_idx + 1) % self.phases.len();
        }
        Some(Access {
            addr,
            pc,
            kind,
            icount_delta: gap.max(1),
        })
    }

    /// Endless: `take(n).collect()` then sizes its buffer once, for `n`.
    fn size_hint(&self) -> (usize, Option<usize>) {
        (usize::MAX, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_spec() -> WorkloadSpec {
        WorkloadSpec {
            name: "test-stream".into(),
            seed: 1,
            instructions_per_access: 3.0,
            write_ratio: 0.25,
            phases: vec![Phase::uniform(
                Pattern::Stream {
                    start: 0,
                    stride: 64,
                    region_bytes: 1 << 30,
                },
                1000,
            )],
        }
    }

    #[test]
    fn stream_is_sequential_and_line_aligned() {
        let accesses: Vec<Access> = stream_spec().generator(0).take(100).collect();
        for (i, a) in accesses.iter().enumerate() {
            assert_eq!(a.addr, i as u64 * 64);
            assert_eq!(a.addr % 64, 0);
        }
    }

    #[test]
    fn loop_pattern_wraps_at_working_set() {
        let spec = WorkloadSpec {
            name: "test-loop".into(),
            seed: 2,
            instructions_per_access: 1.0,
            write_ratio: 0.0,
            phases: vec![Phase::uniform(
                Pattern::Loop {
                    start: 4096,
                    working_set_bytes: 256,
                    stride: 64,
                },
                100,
            )],
        };
        let addrs: Vec<u64> = spec.generator(0).take(8).map(|a| a.addr).collect();
        assert_eq!(addrs, vec![4096, 4160, 4224, 4288, 4096, 4160, 4224, 4288]);
    }

    #[test]
    fn gather_stays_in_region() {
        let spec = WorkloadSpec {
            name: "test-gather".into(),
            seed: 3,
            instructions_per_access: 2.0,
            write_ratio: 0.0,
            phases: vec![Phase::uniform(
                Pattern::Gather {
                    start: 1 << 20,
                    region_bytes: 1 << 16,
                },
                100,
            )],
        };
        for a in spec.generator(0).take(1000) {
            assert!(a.addr >= 1 << 20);
            assert!(a.addr < (1 << 20) + (1 << 16));
            assert_eq!(a.addr % 64, 0);
        }
    }

    #[test]
    fn pointer_chase_visits_every_node() {
        let spec = WorkloadSpec {
            name: "test-chase".into(),
            seed: 4,
            instructions_per_access: 1.0,
            write_ratio: 0.0,
            phases: vec![Phase::uniform(
                Pattern::PointerChase {
                    start: 0,
                    nodes: 64,
                },
                100,
            )],
        };
        let mut seen = std::collections::HashSet::new();
        for a in spec.generator(0).take(64) {
            seen.insert(a.addr);
        }
        assert_eq!(seen.len(), 64, "full-period permutation covers all nodes");
    }

    #[test]
    fn sliding_window_sweeps_then_advances() {
        let spec = WorkloadSpec {
            name: "test-slide".into(),
            seed: 11,
            instructions_per_access: 1.0,
            write_ratio: 0.0,
            phases: vec![Phase::uniform(
                Pattern::SlidingWindow {
                    start: 0,
                    window_bytes: 256, // 4 lines
                    advance_lines: 2,
                    region_bytes: 1024, // 16 lines
                },
                100,
            )],
        };
        let addrs: Vec<u64> = spec.generator(0).take(10).map(|a| a.addr / 64).collect();
        // First sweep: lines 0..4; then the window advances by 2.
        assert_eq!(&addrs[0..4], &[0, 1, 2, 3]);
        assert_eq!(&addrs[4..8], &[2, 3, 4, 5]);
        assert_eq!(&addrs[8..10], &[4, 5]);
    }

    #[test]
    fn sliding_window_blocks_have_bounded_lifetime() {
        let spec = WorkloadSpec {
            name: "test-slide-life".into(),
            seed: 12,
            instructions_per_access: 1.0,
            write_ratio: 0.0,
            phases: vec![Phase::uniform(
                Pattern::SlidingWindow {
                    start: 0,
                    window_bytes: 512, // 8 lines
                    advance_lines: 4,
                    region_bytes: 1 << 20,
                },
                1000,
            )],
        };
        // An interior line x is swept while base ∈ (x-8, x], i.e. for
        // window/advance = 2 sweeps, then never again.
        let addrs: Vec<u64> = spec.generator(0).take(200).map(|a| a.addr / 64).collect();
        let uses = addrs.iter().filter(|&&l| l == 5).count();
        assert_eq!(uses, 2, "each block reused a bounded number of times");
    }

    #[test]
    fn generator_is_deterministic_per_variant() {
        let spec = stream_spec();
        let a: Vec<Access> = spec.generator(5).take(200).collect();
        let b: Vec<Access> = spec.generator(5).take(200).collect();
        assert_eq!(a, b);
        let c: Vec<Access> = spec.generator(6).take(200).collect();
        assert_ne!(a, c, "different variants differ");
    }

    #[test]
    fn taken_prefix_collects_in_one_allocation() {
        // (Below 4 elements `Vec` rounds any first allocation up to 4.)
        for n in [4usize, 1000, 100_003, 300_000] {
            let v: Vec<Access> = stream_spec().generator(0).take(n).collect();
            assert_eq!(v.len(), n);
            assert!(v.capacity() <= n + 1, "n {n}: capacity {}", v.capacity());
        }
    }

    #[test]
    fn write_ratio_is_respected() {
        let accesses: Vec<Access> = stream_spec().generator(0).take(10_000).collect();
        let writes = accesses.iter().filter(|a| a.is_write()).count();
        let ratio = writes as f64 / accesses.len() as f64;
        assert!((ratio - 0.25).abs() < 0.03, "write ratio {ratio}");
    }

    #[test]
    fn instruction_gap_mean_is_close() {
        let accesses: Vec<Access> = stream_spec().generator(0).take(20_000).collect();
        let total: u64 = accesses.iter().map(|a| u64::from(a.icount_delta)).sum();
        let mean = total as f64 / accesses.len() as f64;
        assert!((mean - 3.0).abs() < 0.25, "icount mean {mean}");
    }

    #[test]
    fn phases_alternate() {
        let spec = WorkloadSpec {
            name: "test-phases".into(),
            seed: 9,
            instructions_per_access: 1.0,
            write_ratio: 0.0,
            phases: vec![
                Phase::uniform(
                    Pattern::Loop {
                        start: 0,
                        working_set_bytes: 64,
                        stride: 64,
                    },
                    3,
                ),
                Phase::uniform(
                    Pattern::Loop {
                        start: 1 << 30,
                        working_set_bytes: 64,
                        stride: 64,
                    },
                    2,
                ),
            ],
        };
        let addrs: Vec<u64> = spec.generator(0).take(10).map(|a| a.addr).collect();
        assert_eq!(&addrs[0..3], &[0, 0, 0]);
        assert_eq!(&addrs[3..5], &[1 << 30, 1 << 30]);
        assert_eq!(&addrs[5..8], &[0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "write ratio NaN")]
    fn nan_write_ratio_panics_at_construction() {
        let mut spec = stream_spec();
        spec.write_ratio = f64::NAN;
        let _ = spec.generator(0);
    }

    #[test]
    #[should_panic(expected = "no phases")]
    fn empty_spec_panics() {
        let spec = WorkloadSpec {
            name: "empty".into(),
            seed: 0,
            instructions_per_access: 1.0,
            write_ratio: 0.0,
            phases: vec![],
        };
        let _ = spec.generator(0);
    }
}
