//! The benchmark's only clock reads and its only look at the build flavour.
//!
//! Inside the program, hotgauge-lint's L002 keeps `Instant::now` and the
//! `telemetry` feature gate behind the hotgauge-telemetry facade. The
//! benchmark times the program from the outside, so it reads the host clock
//! directly — here, and nowhere else in this package.

use std::time::Instant;

/// Whether this build compiles the program's spans and counters in (the
/// `telemetry` feature), so `hotgauge_telemetry::snapshot()` returns them.
// hotgauge-lint: allow(L002, "the benchmark must know whether its own build is the traced one; the program never sees this")
pub const TRACED: bool = cfg!(feature = "telemetry");

/// A monotonic timer started at construction.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        // hotgauge-lint: allow(L002, "host time measured outside the program is what the benchmark reports; the program's spans are read separately")
        Stopwatch(Instant::now())
    }

    /// Seconds since [`Stopwatch::start`].
    pub fn elapsed_s(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    /// Milliseconds since [`Stopwatch::start`].
    pub fn elapsed_ms(&self) -> f64 {
        self.elapsed_s() * 1e3
    }
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU nanoseconds this process has consumed since it was created, in
/// user and kernel mode: for a fresh process, `exec`, dynamic loading and
/// everything run since, but not time spent waiting for a CPU.
pub fn process_cpu_ns() -> Option<u64> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` for the whole
    // call, and clock_gettime writes nothing but that struct.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    let secs = u64::try_from(ts.tv_sec).ok()?;
    let nanos = u64::try_from(ts.tv_nsec).ok()?;
    (rc == 0).then(|| secs * 1_000_000_000 + nanos)
}
