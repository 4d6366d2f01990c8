//! Deterministic micro-op stream generation from a [`WorkloadProfile`].

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

use hotgauge_perf::instr::{Instr, InstrClass, InstrSource};

use crate::profile::WorkloadProfile;

/// A deterministic, infinite micro-op stream for one profile.
///
/// Two generators with the same `(profile, seed)` produce identical streams,
/// which makes every figure of the reproduction bit-reproducible. `Clone`
/// snapshots the stream position, so a cloned co-simulation replays the
/// identical instruction sequence.
#[derive(Clone, Debug)]
pub struct WorkloadGen {
    profile: WorkloadProfile,
    rng: SmallRng,
    /// Dynamic instruction counter.
    icount: u64,
    /// Position within the phase cycle.
    phase_pos: u64,
    phase_idx: usize,
    /// Per-static-branch bias bit (the branch's usual direction).
    branch_bias: Vec<bool>,
    /// Current sequential-stream address.
    stream_addr: u64,
    /// Current code position within the footprint.
    pc: u64,
    /// Base address of the current hot code region (inner loop).
    region_base: u64,
    /// Salt for the per-PC static-instruction hash.
    class_salt: u64,
    /// `ceil(stream_fraction * 2^53)` — see [`bool_threshold`].
    stream_thresh: u64,
    /// `ceil(predictability * 2^53)` — see [`bool_threshold`].
    pred_thresh: u64,
    /// `static_branches - 1` when the count is a power of two (every shipped
    /// profile), else `u64::MAX` to select the modulo fallback.
    bias_mask: u64,
    /// Phase-constant values hoisted out of the per-instruction path, valid
    /// for `derived_phase`. Phases run for tens of thousands of
    /// instructions, so recomputing the scaled mix and cumulative class
    /// thresholds per instruction was pure waste — co-simulation warm-up
    /// alone draws millions of instructions per run.
    derived: PhaseDerived,
    /// Which `phase_idx` `derived` was computed for (`usize::MAX` = stale).
    derived_phase: usize,
}

/// Per-phase constants of the instruction stream: the cumulative class
/// thresholds (in the exact f64 accumulation order of the original
/// per-instruction walk, so streams are bit-identical), the scaled serial
/// fraction, and the scaled cold-set fraction.
#[derive(Clone, Copy, Debug, Default)]
struct PhaseDerived {
    /// Cumulative thresholds: loads, +stores, +branches, +int_simple,
    /// +int_complex, +fp. A class roll `r` falls in the first class whose
    /// threshold exceeds it; `r >= fp_cum` is AVX.
    loads_cum: f64,
    stores_cum: f64,
    branches_cum: f64,
    int_simple_cum: f64,
    int_complex_cum: f64,
    fp_cum: f64,
    /// `ceil((serial_fraction * serial_scale).min(1.0) * 2^53)`.
    serial_thresh: u64,
    /// `ceil((mem.big_fraction * mem_scale).min(1.0) * 2^53)`.
    big_thresh: u64,
    /// The phase's `length_instrs`, so the per-instruction phase advance
    /// does not re-index the phase table.
    phase_len: u64,
}

/// Base of the data segment for generated addresses.
const DATA_BASE: u64 = 0x1000_0000;
/// Base of the large (cold) data segment.
const BIG_BASE: u64 = 0x8000_0000;
/// Base of the code segment.
const CODE_BASE: u64 = 0x40_0000;

/// `ceil(5e-4 * 2^53)`: the hot-region migration probability as a
/// [`bool_threshold`] (pinned against the computed value by a test).
const REGION_MIGRATE_THRESH: u64 = 4_503_599_627_371;

/// `ceil(p * 2^53)`, the integer acceptance threshold equivalent to
/// `Rng::gen_bool(p)`: `gen_bool` draws 53 mantissa bits `x` and tests
/// `x * 2^-53 < p`. Both the int→float conversion of `x` and the
/// power-of-two scalings are exact, so the comparison over the reals is
/// `x < p * 2^53`, i.e. `x < ceil(p * 2^53)` for integer `x`. Comparing the
/// raw draw against a precomputed threshold accepts bit-for-bit the same
/// samples while keeping float conversions off the per-instruction path.
fn bool_threshold(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).ceil().max(0.0) as u64
}

/// Integer-threshold form of `gen_bool` — consumes exactly one `next_u64`,
/// like the floating-point version it replaces.
#[inline]
fn draw_bool(rng: &mut SmallRng, thresh: u64) -> bool {
    (rng.next_u64() >> 11) < thresh
}

impl WorkloadGen {
    /// Creates a generator for `profile` with the given seed.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails validation.
    pub fn new(profile: WorkloadProfile, seed: u64) -> Self {
        #[expect(
            clippy::panic,
            reason = "profiles come from the compile-time SPEC2006/idle tables or from callers that validated them; documented panic"
        )]
        profile
            .validate()
            .unwrap_or_else(|e| panic!("invalid profile {}: {e}", profile.name));
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
        let branch_bias: Vec<bool> = (0..profile.branch.static_branches)
            .map(|_| rng.gen_bool(0.5))
            .collect();
        let bias_len = branch_bias.len() as u64;
        let bias_mask = if bias_len.is_power_of_two() {
            bias_len - 1
        } else {
            u64::MAX
        };
        let stream_thresh = bool_threshold(profile.mem.stream_fraction);
        let pred_thresh = bool_threshold(profile.branch.predictability);
        Self {
            profile,
            rng,
            icount: 0,
            phase_pos: 0,
            phase_idx: 0,
            branch_bias,
            stream_addr: DATA_BASE,
            pc: CODE_BASE,
            region_base: CODE_BASE,
            class_salt: seed.wrapping_mul(0xA076_1D64_78BD_642F) | 1,
            stream_thresh,
            pred_thresh,
            bias_mask,
            derived: PhaseDerived::default(),
            derived_phase: usize::MAX,
        }
    }

    /// Recomputes the phase-constant values for the current phase. Every
    /// arithmetic step mirrors the original per-instruction computation —
    /// same operations, same order — so the generated stream is bit-exact.
    fn refresh_derived(&mut self) {
        let phase = self.profile.phases[self.phase_idx];
        let mix = self.profile.mix;
        // Phase-scaled FP share: hot phases shift weight from int to FP/AVX.
        let fp = (mix.fp * phase.fp_scale).min(0.9);
        let avx = (mix.avx * phase.fp_scale).min(0.9 - fp);
        let shift = (fp - mix.fp) + (avx - mix.avx);
        let int_simple = (mix.int_simple - shift).max(0.0);
        let loads_cum = mix.loads;
        let stores_cum = loads_cum + mix.stores;
        let branches_cum = stores_cum + mix.branches;
        let int_simple_cum = branches_cum + int_simple;
        let int_complex_cum = int_simple_cum + mix.int_complex;
        let fp_cum = int_complex_cum + fp;
        self.derived = PhaseDerived {
            loads_cum,
            stores_cum,
            branches_cum,
            int_simple_cum,
            int_complex_cum,
            fp_cum,
            serial_thresh: bool_threshold(
                (self.profile.serial_fraction * phase.serial_scale).min(1.0),
            ),
            big_thresh: bool_threshold((self.profile.mem.big_fraction * phase.mem_scale).min(1.0)),
            phase_len: phase.length_instrs,
        };
        self.derived_phase = self.phase_idx;
    }

    /// The profile driving this stream.
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    /// Instructions generated so far.
    pub fn generated(&self) -> u64 {
        self.icount
    }

    /// Skips `n` instructions of the dynamic stream without generating them,
    /// advancing the phase position accordingly. Used by the sampling
    /// co-simulation: only a sample of each 1 M-cycle window is simulated in
    /// detail, but phase progression must track *all* instructions the
    /// window represents.
    pub fn skip(&mut self, n: u64) {
        self.icount += n;
        let cycle = self.profile.phase_cycle_instrs();
        let mut rem = n % cycle;
        while rem > 0 {
            let left = self.profile.phases[self.phase_idx].length_instrs - self.phase_pos;
            if rem >= left {
                rem -= left;
                self.phase_pos = 0;
                self.phase_idx = (self.phase_idx + 1) % self.profile.phases.len();
            } else {
                self.phase_pos += rem;
                rem = 0;
            }
        }
    }

    fn next_pc(&mut self) -> u64 {
        // Loop-dominated code model: execution stays inside a hot region
        // (an inner loop) and occasionally migrates to a different region of
        // the footprint, as phase-structured programs do. Large footprints
        // therefore cost I-cache misses at region switches, not on every
        // fetch — walking the whole text sequentially would thrash the L1I
        // in a way real programs do not.
        const HOT_REGION_BYTES: u64 = 8 * 1024;
        let footprint = self.profile.code_footprint_bytes;
        let region = HOT_REGION_BYTES.min(footprint);
        if draw_bool(&mut self.rng, REGION_MIGRATE_THRESH) {
            // Migrate to a new hot region.
            let regions = (footprint / region).max(1);
            self.region_base = CODE_BASE + self.rng.gen_range(0..regions) * region;
        }
        self.pc += 4;
        if self.pc < self.region_base || self.pc >= self.region_base + region {
            self.pc = self.region_base;
        }
        self.pc
    }

    fn data_address(&mut self, big_thresh: u64) -> u64 {
        let mem = self.profile.mem;
        if draw_bool(&mut self.rng, big_thresh) {
            // Cold/large set: random within big_set.
            let lines = (mem.big_set_bytes / 64).max(1);
            BIG_BASE + self.rng.gen_range(0..lines) * 64
        } else if draw_bool(&mut self.rng, self.stream_thresh) {
            // Sequential streaming through the working set.
            self.stream_addr += 64;
            if self.stream_addr >= DATA_BASE + mem.working_set_bytes {
                self.stream_addr = DATA_BASE;
            }
            self.stream_addr
        } else {
            // Random within the hot working set.
            let lines = (mem.working_set_bytes / 64).max(1);
            DATA_BASE + self.rng.gen_range(0..lines) * 64
        }
    }

    /// Deterministic per-PC roll in [0, 1): real programs execute the *same*
    /// instruction at a given PC on every pass, which is what lets branch
    /// predictors and instruction caches train. Salted by the phase so phase
    /// transitions change the executed code.
    fn class_roll(&self, pc: u64) -> f64 {
        let mut z = pc ^ ((self.phase_idx as u64) << 48) ^ self.class_salt;
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as f64 / u64::MAX as f64
    }

    fn branch_outcome(&mut self, pc: u64) -> bool {
        // Every shipped profile has a power-of-two static-branch count, so
        // the index is a mask; the modulo fallback keeps arbitrary counts
        // working identically.
        let idx = if self.bias_mask != u64::MAX {
            ((pc / 4) & self.bias_mask) as usize
        } else {
            ((pc / 4) % self.branch_bias.len() as u64) as usize
        };
        let bias = self.branch_bias[idx];
        if draw_bool(&mut self.rng, self.pred_thresh) {
            bias
        } else {
            !bias
        }
    }
}

impl InstrSource for WorkloadGen {
    fn next_instr(&mut self) -> Instr {
        self.icount += 1;
        if self.derived_phase != self.phase_idx {
            self.refresh_derived();
        }
        let d = self.derived;
        // Inline phase advance against the cached length (`advance_phase`
        // with the table lookup folded into `derived`).
        self.phase_pos += 1;
        if self.phase_pos >= d.phase_len {
            self.phase_pos = 0;
            self.phase_idx = (self.phase_idx + 1) % self.profile.phases.len();
        }

        let pc = self.next_pc();
        let r: f64 = self.class_roll(pc);
        // The roll lands in the first class whose cumulative threshold
        // exceeds it (thresholds precomputed per phase in `refresh_derived`).
        let mut ins = if r < d.loads_cum {
            Instr::load(pc, self.data_address(d.big_thresh))
        } else if r < d.stores_cum {
            Instr::store(pc, self.data_address(d.big_thresh))
        } else if r < d.branches_cum {
            let taken = self.branch_outcome(pc);
            Instr::branch(pc, taken)
        } else if r < d.int_simple_cum {
            Instr::compute(InstrClass::IntSimple, pc)
        } else if r < d.int_complex_cum {
            let mut i = Instr::compute(InstrClass::IntComplex, pc);
            // Complex ops (mul/div) carry real latency.
            i.extra_latency = 2;
            i
        } else if r < d.fp_cum {
            Instr::compute(InstrClass::FpScalar, pc)
        } else {
            Instr::compute(InstrClass::Avx512, pc)
        };

        // Dependency-chain serialization, scaled by the phase.
        if !matches!(ins.class, InstrClass::IntComplex) && draw_bool(&mut self.rng, d.serial_thresh)
        {
            ins.extra_latency = ins.extra_latency.max(self.rng.gen_range(1..=2));
        }
        ins
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{BranchBehavior, InstMix, MemoryBehavior, Phase};

    fn profile() -> WorkloadProfile {
        WorkloadProfile {
            name: "synthetic".into(),
            mix: InstMix {
                loads: 0.25,
                stores: 0.10,
                branches: 0.15,
                int_simple: 0.35,
                int_complex: 0.05,
                fp: 0.08,
                avx: 0.02,
            },
            mem: MemoryBehavior {
                working_set_bytes: 256 * 1024,
                big_set_bytes: 64 * 1024 * 1024,
                big_fraction: 0.02,
                stream_fraction: 0.5,
            },
            branch: BranchBehavior {
                predictability: 0.94,
                static_branches: 512,
            },
            serial_fraction: 0.15,
            code_footprint_bytes: 32 * 1024,
            phases: vec![Phase::neutral(100_000)],
        }
    }

    #[test]
    fn bool_threshold_matches_gen_bool_exactly() {
        // draw_bool must accept bit-for-bit the same samples as gen_bool for
        // any probability, including the scaled per-phase values and edge
        // cases; both consume exactly one draw, so the streams stay aligned.
        let ps = [
            0.0, 1e-9, 5e-4, 0.02, 0.15, 0.3, 0.5, 0.93, 0.94, 0.9999, 1.0, 1.5,
        ];
        for (i, &p) in ps.iter().enumerate() {
            let t = bool_threshold(p);
            let mut a = SmallRng::seed_from_u64(i as u64);
            let mut b = a.clone();
            for _ in 0..50_000 {
                assert_eq!(a.gen_bool(p), draw_bool(&mut b, t), "p = {p}");
            }
        }
        assert_eq!(bool_threshold(5e-4), REGION_MIGRATE_THRESH);
    }

    #[test]
    fn modulo_fallback_matches_mask_path() {
        // A non-power-of-two static-branch count exercises the modulo
        // fallback; the two index computations agree wherever both apply.
        let mut p = profile();
        p.branch.static_branches = 384;
        let mut g = WorkloadGen::new(p, 11);
        assert_eq!(g.bias_mask, u64::MAX);
        for _ in 0..20_000 {
            let i = g.next_instr();
            if i.class == InstrClass::Branch {
                // The modulo path indexed in bounds.
                assert!(i.pc >= CODE_BASE);
            }
        }
    }

    #[test]
    fn determinism() {
        let mut a = WorkloadGen::new(profile(), 7);
        let mut b = WorkloadGen::new(profile(), 7);
        for _ in 0..10_000 {
            assert_eq!(a.next_instr(), b.next_instr());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = WorkloadGen::new(profile(), 1);
        let mut b = WorkloadGen::new(profile(), 2);
        let differs = (0..1000).any(|_| a.next_instr() != b.next_instr());
        assert!(differs);
    }

    #[test]
    fn mix_fractions_are_respected() {
        let mut g = WorkloadGen::new(profile(), 3);
        let n = 200_000;
        let mut loads = 0;
        let mut branches = 0;
        let mut fp = 0;
        for _ in 0..n {
            match g.next_instr().class {
                InstrClass::Load => loads += 1,
                InstrClass::Branch => branches += 1,
                InstrClass::FpScalar | InstrClass::Avx512 => fp += 1,
                _ => {}
            }
        }
        let fl = loads as f64 / n as f64;
        let fb = branches as f64 / n as f64;
        let ff = fp as f64 / n as f64;
        assert!((fl - 0.25).abs() < 0.02, "load fraction {fl}");
        assert!((fb - 0.15).abs() < 0.02, "branch fraction {fb}");
        assert!((ff - 0.10).abs() < 0.02, "fp fraction {ff}");
    }

    #[test]
    fn addresses_stay_in_segments() {
        let mut g = WorkloadGen::new(profile(), 4);
        for _ in 0..50_000 {
            let i = g.next_instr();
            if matches!(i.class, InstrClass::Load | InstrClass::Store) {
                let in_hot = (DATA_BASE..DATA_BASE + 256 * 1024 + 64).contains(&i.addr);
                let in_big = (BIG_BASE..BIG_BASE + 64 * 1024 * 1024 + 64).contains(&i.addr);
                assert!(in_hot || in_big, "address {:x} outside segments", i.addr);
            }
            assert!(i.pc >= CODE_BASE && i.pc < CODE_BASE + 32 * 1024 + 4);
        }
    }

    #[test]
    fn shipped_profiles_stay_below_the_cache_tag_bound() {
        // `hotgauge_perf::cache` picks each level's tag word for addresses
        // below 2^32 (narrow `u16` tags on the Table-I L3), so every
        // segment a shipped profile draws from must end at or below it.
        const ADDRESS_LIMIT: u64 = 1 << 32;
        let profiles: Vec<WorkloadProfile> = crate::spec2006::all_profiles()
            .into_iter()
            .chain(crate::server::all_profiles())
            .chain([crate::idle::idle_profile()])
            .collect();
        assert_eq!(profiles.len(), 19 + 3 + 1);
        for p in &profiles {
            let ends = [
                CODE_BASE + p.code_footprint_bytes,
                DATA_BASE + p.mem.working_set_bytes,
                BIG_BASE + p.mem.big_set_bytes,
            ];
            assert!(
                ends.iter().all(|&end| end <= ADDRESS_LIMIT),
                "{}: code, data and cold-set segments end at {ends:#x?}",
                p.name
            );
        }
    }

    #[test]
    fn phase_scaling_changes_fp_share() {
        let mut p = profile();
        p.phases = vec![Phase {
            length_instrs: 50_000,
            serial_scale: 1.0,
            mem_scale: 1.0,
            fp_scale: 5.0,
        }];
        let mut g = WorkloadGen::new(p, 5);
        let n = 50_000;
        let fp = (0..n).filter(|_| g.next_instr().class.is_fp()).count() as f64 / n as f64;
        assert!(fp > 0.3, "fp share under 5x scale: {fp}");
    }

    #[test]
    fn skip_advances_phase_like_generation() {
        let mut p = profile();
        p.phases = vec![
            Phase::neutral(1000),
            Phase {
                length_instrs: 500,
                serial_scale: 2.0,
                mem_scale: 1.0,
                fp_scale: 1.0,
            },
        ];
        let mut a = WorkloadGen::new(p.clone(), 9);
        let mut b = WorkloadGen::new(p, 9);
        // Generating n instructions and skipping n must land in the same
        // phase position.
        for _ in 0..1234 {
            a.next_instr();
        }
        b.skip(1234);
        assert_eq!(a.phase_idx, b.phase_idx);
        assert_eq!(a.phase_pos, b.phase_pos);
        assert_eq!(a.generated(), b.generated());
        // Skipping a whole number of cycles is a no-op on phase position.
        let (pi, pp) = (b.phase_idx, b.phase_pos);
        b.skip(1500 * 4);
        assert_eq!((pi, pp), (b.phase_idx, b.phase_pos));
    }

    #[test]
    fn generated_counts() {
        let mut g = WorkloadGen::new(profile(), 6);
        for _ in 0..123 {
            g.next_instr();
        }
        assert_eq!(g.generated(), 123);
    }
}
