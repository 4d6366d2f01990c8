//! `CoreSim::warm_up` charges its instructions to the
//! `perf.warmup_instructions` counter, once per call, and leaves the ROI
//! counter `perf.instructions` alone. The recorder is process-global, so
//! this file holds a single test.

// hotgauge-lint: allow(L002, "this test reads the recorder's snapshot API directly, which only exists under the feature; the facade macros cannot gate a whole test file")
#![cfg(feature = "telemetry")]

use hotgauge_perf::prelude::*;

/// A register-compute loop that fits the L1I.
struct Loop(u64);

impl InstrSource for Loop {
    fn next_instr(&mut self) -> Instr {
        self.0 = (self.0 + 4) & 0xFFF;
        Instr::compute(InstrClass::IntSimple, self.0)
    }
}

#[test]
fn warm_up_counts_its_instructions() {
    let total = |label: &str| {
        hotgauge_telemetry::snapshot()
            .counter(label)
            .map_or((0, 0.0), |c| (c.calls, c.total))
    };
    let (calls0, warm0) = total("perf.warmup_instructions");
    let (_, roi0) = total("perf.instructions");

    let mut core = CoreSim::new(CoreConfig::default(), MemoryConfig::default());
    let mut src = Loop(0);
    core.warm_up(&mut src, 20_000);
    core.warm_up(&mut src, 5_000);

    let (calls1, warm1) = total("perf.warmup_instructions");
    let (_, roi1) = total("perf.instructions");
    assert_eq!(calls1 - calls0, 2);
    assert_eq!(warm1 - warm0, 25_000.0);
    assert_eq!(roi1, roi0, "warm-up is not ROI work");
    assert_eq!(core.instruction_count(), 25_000);
}
