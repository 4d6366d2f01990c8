//! The interval-model out-of-order core.
//!
//! This is a mechanistic ("interval") core model in the style Sniper uses for
//! its instruction-window-centric simulations: sustained dispatch at the
//! pipeline width, interrupted by *intervals* caused by miss events —
//! branch mispredictions, long-latency loads, and serialized dependency
//! chains. Long-latency misses that fall within one reorder-buffer span of
//! each other overlap (memory-level parallelism); isolated misses stall the
//! window for their full latency minus the ROB drain the OoO engine hides.
//!
//! Every micro-op also increments the per-unit activity counters consumed by
//! the power model, which is what ultimately drives hotspot formation.

use crate::activity::ActivityCounters;
use crate::branch::TournamentPredictor;
use crate::cache::{HitLevel, MemoryHierarchy};
use crate::config::{CoreConfig, MemoryConfig};
use crate::instr::{InstrClass, InstrSource};

/// One simulated out-of-order core.
#[derive(Debug, Clone)]
pub struct CoreSim {
    cfg: CoreConfig,
    /// The core's view of the memory hierarchy.
    pub mem: MemoryHierarchy,
    /// Branch predictor.
    pub bpu: TournamentPredictor,
    last_fetch_line: u64,
    /// Instruction index of the most recent long-latency miss (for the MLP
    /// overlap window).
    last_long_miss: Option<u64>,
    icount: u64,
}

impl CoreSim {
    /// A fresh core with cold caches and an untrained predictor.
    pub fn new(cfg: CoreConfig, mem_cfg: MemoryConfig) -> Self {
        Self {
            cfg,
            mem: MemoryHierarchy::new(mem_cfg),
            bpu: TournamentPredictor::new(13, 13, 12),
            last_fetch_line: u64::MAX,
            last_long_miss: None,
            icount: 0,
        }
    }

    /// The core configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Total instructions executed over the core's lifetime.
    pub fn instruction_count(&self) -> u64 {
        self.icount
    }

    /// Runs instructions (without collecting a window) to warm the caches
    /// and branch predictor, as the paper does before each region of
    /// interest ("cache warm-up is always performed").
    ///
    /// Warm-up discards the activity counters, so it runs the
    /// `COUNT = false` specialization of the executor: every piece of model
    /// state (caches, predictor, MLP window, the workload stream's RNG)
    /// advances exactly as in a counted run — only the dead accounting
    /// stores are compiled out. Every co-simulation pays 2 M warm-up
    /// micro-ops per run before its first sampled window, which made these
    /// stores the hottest dead code in whole-figure sweeps. The warm-up
    /// length is still counted, once per call, as
    /// `perf.warmup_instructions` (telemetry builds only).
    pub fn warm_up<S: InstrSource>(&mut self, src: &mut S, instructions: u64) {
        let mut sink = ActivityCounters::default();
        self.execute::<S, false>(src, WindowLimit::Instructions(instructions), &mut sink);
        hotgauge_telemetry::counter!("perf.warmup_instructions", sink.instructions);
    }

    /// Runs until at least `cycles` core cycles have elapsed; returns the
    /// window's activity counters. This is the per-time-step entry point
    /// (1 M cycles = 200 µs at 5 GHz).
    pub fn run_cycles<S: InstrSource>(&mut self, src: &mut S, cycles: u64) -> ActivityCounters {
        let mut out = ActivityCounters::default();
        self.execute::<S, true>(src, WindowLimit::Cycles(cycles), &mut out);
        hotgauge_telemetry::counter!("perf.instructions", out.instructions);
        hotgauge_telemetry::counter!("perf.cycles", out.cycles);
        out
    }

    /// Runs exactly `instructions` micro-ops; returns the window counters.
    pub fn run_instructions<S: InstrSource>(
        &mut self,
        src: &mut S,
        instructions: u64,
    ) -> ActivityCounters {
        let mut out = ActivityCounters::default();
        self.execute::<S, true>(src, WindowLimit::Instructions(instructions), &mut out);
        hotgauge_telemetry::counter!("perf.instructions", out.instructions);
        hotgauge_telemetry::counter!("perf.cycles", out.cycles);
        out
    }

    /// The dispatch loop. `COUNT = false` (warm-up) elides the activity
    /// stores while performing the identical state updates, so a counted
    /// window after an uncounted warm-up is bit-identical to one after a
    /// counted warm-up.
    fn execute<S: InstrSource, const COUNT: bool>(
        &mut self,
        src: &mut S,
        limit: WindowLimit,
        out: &mut ActivityCounters,
    ) {
        let width = self.cfg.dispatch_width as u64;
        let mut dispatch_slots: u64 = 0;
        let mut penalty_cycles: u64 = 0;

        loop {
            match limit {
                WindowLimit::Cycles(c) => {
                    let cycles_so_far = dispatch_slots.div_ceil(width) + penalty_cycles;
                    if cycles_so_far >= c {
                        break;
                    }
                }
                WindowLimit::Instructions(n) => {
                    if out.instructions >= n {
                        break;
                    }
                }
            }

            let ins = src.next_instr();
            self.icount += 1;
            out.instructions += 1;
            dispatch_slots += 1;
            if COUNT {
                out.decoded_uops += 1;
                out.rob_dispatches += 1;
                out.rob_retires += 1;
            }

            // Front end: one L1I access per fetched line.
            let line = ins.pc >> 6;
            if line != self.last_fetch_line {
                self.last_fetch_line = line;
                let r = self.mem.access_instr(ins.pc);
                if COUNT {
                    out.l1i_accesses += 1;
                }
                match r.level {
                    HitLevel::L1 => {}
                    HitLevel::L2 => {
                        if COUNT {
                            out.l1i_misses += 1;
                            out.l2_accesses += 1;
                        }
                        penalty_cycles += self.mem.config().l2.latency_cycles / 4;
                    }
                    HitLevel::L3 => {
                        if COUNT {
                            out.l1i_misses += 1;
                            out.l2_accesses += 1;
                            out.l2_misses += 1;
                            out.l3_accesses += 1;
                        }
                        penalty_cycles += self.mem.config().l3.latency_cycles / 4;
                    }
                    HitLevel::Memory => {
                        if COUNT {
                            out.l1i_misses += 1;
                            out.l2_accesses += 1;
                            out.l2_misses += 1;
                            out.l3_accesses += 1;
                            out.l3_misses += 1;
                            out.dram_accesses += 1;
                        }
                        penalty_cycles += self.mem.config().dram_latency_cycles / 4;
                    }
                }
            }

            // Dependency-chain serialization emitted by the workload model.
            penalty_cycles += ins.extra_latency as u64;

            match ins.class {
                InstrClass::Branch => {
                    if COUNT {
                        out.bpu_lookups += 1;
                        out.int_rat_writes += 1;
                        out.int_iwin_issues += 1;
                        out.int_rf_reads += 1;
                        out.simple_alu_ops += 1;
                    }
                    let correct = self.bpu.predict_and_update(ins.pc, ins.taken);
                    if !correct {
                        if COUNT {
                            out.bpu_mispredicts += 1;
                        }
                        penalty_cycles += self.cfg.mispredict_penalty;
                    }
                }
                InstrClass::IntSimple => {
                    if COUNT {
                        out.int_rat_writes += 1;
                        out.int_iwin_issues += 1;
                        out.int_rf_reads += 2;
                        out.int_rf_writes += 1;
                        out.simple_alu_ops += 1;
                    }
                }
                InstrClass::IntComplex => {
                    if COUNT {
                        out.int_rat_writes += 1;
                        out.int_iwin_issues += 1;
                        out.int_rf_reads += 2;
                        out.int_rf_writes += 1;
                        out.complex_alu_ops += 1;
                    }
                }
                InstrClass::FpScalar => {
                    if COUNT {
                        out.fp_rat_writes += 1;
                        out.fp_iwin_issues += 1;
                        out.fp_rf_reads += 2;
                        out.fp_rf_writes += 1;
                        out.fpu_ops += 1;
                    }
                }
                InstrClass::Avx512 => {
                    if COUNT {
                        out.fp_rat_writes += 1;
                        out.fp_iwin_issues += 1;
                        out.fp_rf_reads += 2;
                        out.fp_rf_writes += 1;
                        out.avx_ops += 1;
                    }
                }
                InstrClass::Load | InstrClass::Store => {
                    if COUNT {
                        out.int_rat_writes += 1;
                        out.int_iwin_issues += 1;
                        out.agu_ops += 1;
                        out.lsq_ops += 1;
                        out.dtlb_accesses += 1;
                        out.l1d_accesses += 1;
                        if ins.class == InstrClass::Load {
                            out.int_rf_writes += 1;
                        } else {
                            out.int_rf_reads += 1;
                        }
                    }
                    let r = self.mem.access_data(ins.addr);
                    match r.level {
                        HitLevel::L1 => {}
                        HitLevel::L2 => {
                            if COUNT {
                                out.l1d_misses += 1;
                                out.l2_accesses += 1;
                                // L2 hits are almost entirely hidden by the
                                // OoO window.
                            }
                        }
                        HitLevel::L3 => {
                            if COUNT {
                                out.l1d_misses += 1;
                                out.l2_accesses += 1;
                                out.l2_misses += 1;
                                out.l3_accesses += 1;
                            }
                            if ins.class == InstrClass::Load {
                                penalty_cycles +=
                                    self.charge_long_miss(self.mem.config().l3.latency_cycles / 3);
                            }
                        }
                        HitLevel::Memory => {
                            if COUNT {
                                out.l1d_misses += 1;
                                out.l2_accesses += 1;
                                out.l2_misses += 1;
                                out.l3_accesses += 1;
                                out.l3_misses += 1;
                                out.dram_accesses += 1;
                            }
                            if ins.class == InstrClass::Load {
                                penalty_cycles +=
                                    self.charge_long_miss(self.mem.config().dram_latency_cycles);
                            }
                        }
                    }
                }
            }
        }

        out.cycles += dispatch_slots.div_ceil(width) + penalty_cycles;
    }

    /// Memory-level-parallelism model: a long-latency load stalls the window
    /// for its latency unless another long miss occurred within one ROB span
    /// — in that case they overlap and only the bandwidth-limited share of
    /// the latency is charged (finite miss-handling resources cap the MLP).
    fn charge_long_miss(&mut self, latency: u64) -> u64 {
        /// Maximum effective memory-level parallelism (outstanding misses).
        const MAX_MLP: u64 = 8;
        let overlapped = match self.last_long_miss {
            Some(prev) => self.icount - prev < self.cfg.rob_entries as u64,
            None => false,
        };
        self.last_long_miss = Some(self.icount);
        if overlapped {
            latency / MAX_MLP
        } else {
            latency
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum WindowLimit {
    Cycles(u64),
    Instructions(u64),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Instr;

    /// A source of pure register compute with perfectly predictable control.
    struct ComputeSource {
        pc: u64,
    }
    impl InstrSource for ComputeSource {
        fn next_instr(&mut self) -> Instr {
            self.pc = (self.pc + 4) & 0xFFF; // small loop, fits in L1I
            Instr::compute(InstrClass::IntSimple, self.pc)
        }
    }

    /// A pointer-chasing source with a huge working set (every load a DRAM
    /// miss once the caches are saturated) and sparse placement so lines
    /// never reuse.
    struct StreamSource {
        pc: u64,
        addr: u64,
        i: u64,
    }
    impl InstrSource for StreamSource {
        fn next_instr(&mut self) -> Instr {
            self.i += 1;
            if self.i.is_multiple_of(4) {
                self.addr = self.addr.wrapping_add(64 * 1024); // new line, new set far away
                Instr::load(0x400, self.addr)
            } else {
                self.pc = (self.pc + 4) & 0xFFF;
                Instr::compute(InstrClass::IntSimple, self.pc)
            }
        }
    }

    #[test]
    fn compute_bound_reaches_dispatch_width() {
        let mut core = CoreSim::new(CoreConfig::default(), MemoryConfig::default());
        let mut src = ComputeSource { pc: 0 };
        core.warm_up(&mut src, 10_000); // absorb cold I-cache misses
        let a = core.run_instructions(&mut src, 100_000);
        let ipc = a.ipc();
        assert!(
            ipc > 3.5 && ipc <= 4.0 + 1e-9,
            "compute-bound IPC should be near the dispatch width, got {ipc}"
        );
    }

    #[test]
    fn memory_bound_is_slower() {
        let mut core = CoreSim::new(CoreConfig::default(), MemoryConfig::default());
        let mut src = StreamSource {
            pc: 0,
            addr: 0,
            i: 0,
        };
        let a = core.run_instructions(&mut src, 200_000);
        assert!(
            a.ipc() < 2.5,
            "streaming loads should cut IPC, got {}",
            a.ipc()
        );
        assert!(a.dram_accesses > 0);
        assert!(a.l1d_mpki() > 100.0);
    }

    #[test]
    fn run_cycles_hits_cycle_target() {
        let mut core = CoreSim::new(CoreConfig::default(), MemoryConfig::default());
        let mut src = ComputeSource { pc: 0 };
        let a = core.run_cycles(&mut src, 10_000);
        assert!(a.cycles >= 10_000);
        assert!(
            a.cycles < 10_100,
            "should not badly overshoot: {}",
            a.cycles
        );
    }

    #[test]
    fn mispredicts_add_penalty() {
        struct RandomBranches {
            x: u64,
            pc: u64,
        }
        impl InstrSource for RandomBranches {
            fn next_instr(&mut self) -> Instr {
                self.x = self
                    .x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                self.pc = (self.pc + 4) & 0xFFF;
                if self.x >> 62 == 0 {
                    Instr::branch(self.pc, (self.x >> 33) & 1 == 1)
                } else {
                    Instr::compute(InstrClass::IntSimple, self.pc)
                }
            }
        }
        let mut core = CoreSim::new(CoreConfig::default(), MemoryConfig::default());
        let mut src = RandomBranches { x: 42, pc: 0 };
        let a = core.run_instructions(&mut src, 100_000);
        assert!(a.bpu_mispredicts > 0);
        assert!(
            a.ipc() < 3.0,
            "random branches must hurt IPC, got {}",
            a.ipc()
        );
    }

    #[test]
    fn activity_counters_are_consistent() {
        let mut core = CoreSim::new(CoreConfig::default(), MemoryConfig::default());
        let mut src = StreamSource {
            pc: 0,
            addr: 0,
            i: 0,
        };
        let a = core.run_instructions(&mut src, 50_000);
        assert_eq!(a.rob_dispatches, a.instructions);
        assert_eq!(a.rob_retires, a.instructions);
        assert_eq!(a.decoded_uops, a.instructions);
        assert_eq!(a.l1d_accesses, a.lsq_ops);
        assert_eq!(a.agu_ops, a.lsq_ops);
        assert!(a.l1d_misses <= a.l1d_accesses);
        assert!(a.l2_misses <= a.l2_accesses);
        assert!(a.l3_misses <= a.l3_accesses);
        // Every uop renames exactly once.
        assert_eq!(a.int_rat_writes + a.fp_rat_writes, a.instructions);
    }

    #[test]
    fn warm_up_trains_structures() {
        let mut core = CoreSim::new(CoreConfig::default(), MemoryConfig::default());
        // Loads over a 16 KiB set (fits in L1D).
        struct SmallSet {
            i: u64,
        }
        impl InstrSource for SmallSet {
            fn next_instr(&mut self) -> Instr {
                self.i += 1;
                Instr::load(0x400, (self.i * 64) % 16384)
            }
        }
        core.warm_up(&mut SmallSet { i: 0 }, 10_000);
        let a = core.run_instructions(&mut SmallSet { i: 0 }, 10_000);
        assert!(
            a.l1d_mpki() < 1.0,
            "after warm-up the small set must hit, mpki {}",
            a.l1d_mpki()
        );
    }

    #[test]
    fn identical_streams_give_identical_windows() {
        let mk_core = || CoreSim::new(CoreConfig::default(), MemoryConfig::default());
        let mut a = mk_core();
        let mut b = mk_core();
        let a_w = a.run_instructions(&mut ComputeSource { pc: 0 }, 30_000);
        let b_w = b.run_instructions(&mut ComputeSource { pc: 0 }, 30_000);
        assert_eq!(a_w, b_w);
        assert_eq!(a.instruction_count(), b.instruction_count());
    }

    #[test]
    fn mlp_overlap_reduces_stalls() {
        // Two cores, same stream; one with a tiny ROB (no overlap window).
        let mut big = CoreSim::new(CoreConfig::default(), MemoryConfig::default());
        let small_cfg = CoreConfig {
            rob_entries: 2,
            ..CoreConfig::default()
        };
        let mut small = CoreSim::new(small_cfg, MemoryConfig::default());
        let mk = || StreamSource {
            pc: 0,
            addr: 0,
            i: 0,
        };
        let a_big = big.run_instructions(&mut mk(), 100_000);
        let a_small = small.run_instructions(&mut mk(), 100_000);
        assert!(
            a_big.ipc() > a_small.ipc() * 1.5,
            "large ROB should overlap misses: {} vs {}",
            a_big.ipc(),
            a_small.ipc()
        );
    }
}
