//! Compact transient thermal model (CTTM) for the HotGauge reproduction —
//! the Rust stand-in for 3D-ICE 3.0.
//!
//! The crate implements the same modeling approach as 3D-ICE: a finite-volume
//! thermal RC network over a layered stack, supporting both **steady-state**
//! and **transient** simulation, plus the paper's additions — an active/bulk
//! silicon split for realistic vertical spreading and **non-uniform
//! temperature initialization** (idle warm-up).
//!
//! * [`materials`] — thermal properties (Table II values);
//! * [`stack`] — layer stack and domain description (Fig. 4);
//! * [`sparse`] / [`stencil`] / [`solver`] — CSR assembly, the 7-point
//!   stencil storage the solver runs on, and warm-started
//!   Jacobi-preconditioned CG, the only linear solver: one loop over one
//!   right-hand side, which every simulation runs on its own state;
//! * [`model`] — RC-network assembly, [`model::ThermalModel`] (steady) and
//!   [`model::ThermalSim`] (transient, backward Euler, solved by CG);
//! * [`frame`] — active-layer temperature snapshots consumed by the hotspot
//!   metrics;
//! * [`analysis`] — Ψ_j,a and TDP (Table IV);
//! * [`warmup`] — cold / idle-warm-up initial conditions (Fig. 8, 11);
//! * [`export`] — PPM heat maps and CSV dumps of frames.
//!
//! # Examples
//!
//! ```
//! use hotgauge_thermal::prelude::*;
//!
//! // A 3 mm × 3 mm die at 300 µm resolution with the paper's stack.
//! let stack = StackDescription::client_cpu(10, 10, 300.0);
//! let model = ThermalModel::new(stack);
//! let mut sim = ThermalSim::new(model, 40.0);
//!
//! // 2 W uniformly over the die for 1 ms.
//! let power = vec![0.02; 100];
//! for _ in 0..5 {
//!     sim.step(&power, 200e-6);
//! }
//! let frame = sim.die_frame();
//! assert!(frame.max() > 40.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod export;
pub mod frame;
pub mod materials;
pub mod model;
pub mod solver;
pub mod sparse;
pub mod stack;
pub mod stencil;
pub mod warmup;

pub use crate::analysis::{psi_tdp, PsiTdp, PAPER_THERMAL_BUDGET_C};
pub use crate::export::{frame_to_csv, frame_to_ppm, write_ppm, ColorMap};
pub use crate::frame::ThermalFrame;
pub use crate::materials::Material;
pub use crate::model::{ThermalModel, ThermalSim};
pub use crate::solver::{solve_cg, solve_cg_with, CgConfig, CgWorkspace, SolveStats, SpdOperator};
pub use crate::stack::{Layer, StackDescription, DEFAULT_BORDER_M, HS483_FILM_COEFF};
pub use crate::stencil::{Stencil7, StencilError};
pub use crate::warmup::{initial_state, Warmup};

/// Convenient glob import of the most used types.
pub mod prelude {
    pub use crate::analysis::{psi_tdp, PsiTdp, PAPER_THERMAL_BUDGET_C};
    pub use crate::frame::ThermalFrame;
    pub use crate::materials::Material;
    pub use crate::model::{ThermalModel, ThermalSim};
    pub use crate::solver::{CgConfig, CgWorkspace, SolveStats};
    pub use crate::stack::{Layer, StackDescription};
    pub use crate::warmup::{initial_state, Warmup};
}
