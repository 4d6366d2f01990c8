//! Test fixtures shared by the thermal integration tests.

use hotgauge_thermal::sparse::{CsrMatrix, TripletBuilder};

/// Builds a random backward-Euler style system `C/Δt + G` over an RC
/// network: a chain guarantees connectivity, extra random edges add
/// fill, every node gets a grounded conductance and a capacitance term,
/// so the assembled matrix is SPD and strictly diagonally dominant.
pub fn rc_system(n: usize, seed: u64) -> CsrMatrix {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    // Conductances in [0.05, 10.05): strictly positive, well scaled.
    fn g_of(bits: u64) -> f64 {
        0.05 + (bits % 1000) as f64 / 100.0
    }

    let mut b = TripletBuilder::new(n);
    for i in 1..n {
        b.add_conductance(i - 1, i, g_of(next()));
    }
    // Random long-range edges (roughly one per node).
    for _ in 0..n {
        let i = (next() % n as u64) as usize;
        let j = (next() % n as u64) as usize;
        if i != j {
            b.add_conductance(i.min(j), i.max(j), g_of(next()));
        }
    }
    for i in 0..n {
        b.add_grounded_conductance(i, g_of(next())); // heat path to ambient
        b.add_grounded_conductance(i, 0.2 + g_of(next())); // C/Δt lump
    }
    b.build()
}
