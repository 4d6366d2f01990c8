//! Simultaneous multi-threading support: interleaves two micro-op streams
//! onto one core (Table I models 2 threads/core).

use crate::instr::{Instr, InstrSource};

/// Round-robin interleaving of two hardware threads onto one core's dispatch
/// bandwidth. The shared structures (caches, predictor) are exercised by
/// both streams, which is the first-order SMT interference effect.
#[derive(Debug)]
pub struct SmtInterleaver<A, B> {
    a: A,
    b: B,
    toggle: bool,
}

impl<A: InstrSource, B: InstrSource> SmtInterleaver<A, B> {
    /// Creates an interleaver over two thread streams.
    pub fn new(a: A, b: B) -> Self {
        Self {
            a,
            b,
            toggle: false,
        }
    }

    /// Consumes the interleaver, returning the thread sources.
    pub fn into_inner(self) -> (A, B) {
        (self.a, self.b)
    }
}

impl<A: InstrSource, B: InstrSource> InstrSource for SmtInterleaver<A, B> {
    fn next_instr(&mut self) -> Instr {
        self.toggle = !self.toggle;
        if self.toggle {
            self.a.next_instr()
        } else {
            self.b.next_instr()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CoreConfig, MemoryConfig};
    use crate::engine::CoreSim;
    use crate::instr::InstrClass;

    struct Tagged {
        pc: u64,
    }
    impl InstrSource for Tagged {
        fn next_instr(&mut self) -> Instr {
            self.pc += 4;
            Instr::compute(InstrClass::IntSimple, self.pc)
        }
    }

    struct FpOnly {
        pc: u64,
    }
    impl InstrSource for FpOnly {
        fn next_instr(&mut self) -> Instr {
            self.pc += 4;
            Instr::compute(InstrClass::FpScalar, self.pc)
        }
    }

    #[test]
    fn interleaves_fairly() {
        let mut s = SmtInterleaver::new(Tagged { pc: 0 }, FpOnly { pc: 0x100000 });
        let mut int_count = 0;
        let mut fp_count = 0;
        for _ in 0..100 {
            match s.next_instr().class {
                InstrClass::IntSimple => int_count += 1,
                InstrClass::FpScalar => fp_count += 1,
                other => panic!("unexpected instruction class {other:?}"),
            }
        }
        assert_eq!(int_count, 50);
        assert_eq!(fp_count, 50);
    }

    #[test]
    fn smt_window_mixes_unit_activity() {
        let mut core = CoreSim::new(CoreConfig::default(), MemoryConfig::default());
        let mut src = SmtInterleaver::new(Tagged { pc: 0 }, FpOnly { pc: 0x100000 });
        let a = core.run_instructions(&mut src, 10_000);
        assert!(a.simple_alu_ops > 0);
        assert!(a.fpu_ops > 0);
        assert_eq!(a.simple_alu_ops, a.fpu_ops);
    }
}
