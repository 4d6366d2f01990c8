//! FNV-1a fingerprints of the workload generator and the core model: the
//! bit-exactness harness behind the `stream_hash` bin and the golden-hash
//! test that pins the core model.
//!
//! Build the same fingerprint in two trees and compare: equal hashes prove
//! a refactor left the pinned layer's behaviour unchanged.

use hotgauge_perf::config::{CoreConfig, MemoryConfig};
use hotgauge_perf::engine::CoreSim;
use hotgauge_perf::instr::InstrSource;
use hotgauge_workloads::generator::WorkloadGen;
use hotgauge_workloads::spec2006;

/// The instruction-stream seed every fingerprint uses.
pub const SEED: u64 = 7;

/// Incremental 64-bit FNV-1a over `u64` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn push(&mut self, v: u64) {
        self.0 ^= v;
        self.0 = self.0.wrapping_mul(0x100_0000_01b3);
    }
}

fn generator(bench: &str) -> Option<WorkloadGen> {
    spec2006::profile(bench).map(|p| WorkloadGen::new(p, SEED))
}

/// Hash of the first `instrs` micro-ops `(pc, addr, class, taken,
/// extra_latency)` the generator emits for `bench`; `None` for an unknown
/// benchmark.
pub fn stream_hash(bench: &str, instrs: u64) -> Option<u64> {
    let mut g = generator(bench)?;
    let mut h = Fnv::new();
    for _ in 0..instrs {
        let i = g.next_instr();
        h.push(i.pc);
        h.push(i.addr);
        h.push(i.class as u64);
        h.push(i.taken as u64);
        h.push(i.extra_latency as u64);
    }
    Some(h.0)
}

/// Hash of the Table-I core model on `bench`: a `warm_up(warmup_instrs)`
/// followed by one `run_cycles(window_cycles)` window, as every
/// co-simulation run starts. It covers every field of the window's
/// `ActivityCounters` plus the lifetime access and miss counts of all four
/// caches, so any change to cache replacement, branch prediction or the
/// interval timing shows. `None` for an unknown benchmark.
pub fn core_hash(bench: &str, warmup_instrs: u64, window_cycles: u64) -> Option<u64> {
    let mut g = generator(bench)?;
    let mut core = CoreSim::new(CoreConfig::default(), MemoryConfig::default());
    core.warm_up(&mut g, warmup_instrs);
    let act = core.run_cycles(&mut g, window_cycles);
    let mut h = Fnv::new();
    for b in format!("{act:?}").bytes() {
        h.push(u64::from(b));
    }
    h.push(core.instruction_count());
    let m = &core.mem;
    for c in [&m.l1i, &m.l1d, &m.l2, &m.l3] {
        h.push(c.accesses());
        h.push(c.misses());
    }
    Some(h.0)
}
