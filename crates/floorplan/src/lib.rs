//! Floorplan modeling for the HotGauge reproduction.
//!
//! This crate provides the geometric substrate of the methodology:
//!
//! * [`geometry`] — planar primitives ([`geometry::Rect`], [`geometry::Point`]);
//! * [`mod@unit`] — the functional-unit taxonomy of the Skylake-proxy client CPU
//!   (Fig. 5 of the paper), including the paper's added AVX-512, System
//!   Agent, IMC, and I/O models;
//! * [`layout`] — a slicing-tree layout engine that guarantees non-overlapping,
//!   area-proportional tilings and expresses the paper's unit-scaling
//!   mitigation study;
//! * [`tech`] — 14/10/7 nm (and beyond) technology scaling rules
//!   (50 % area, −20 % `C_dyn` per node);
//! * [`skylake`] — the 7-core client die generator used by the case study;
//! * [`grid`] — rasterization onto the thermal model's uniform grid with
//!   power-conserving unit→cell mapping.
//!
//! # Examples
//!
//! ```
//! use hotgauge_floorplan::prelude::*;
//!
//! let fp = SkylakeProxy::new(TechNode::N7).build();
//! let grid = FloorplanGrid::rasterize(&fp, 100.0); // 100 µm cells
//! assert_eq!(grid.coverage.len(), fp.units.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod floorplan;
pub mod geometry;
pub mod grid;
pub mod layout;
pub mod skylake;
pub mod tech;
pub mod unit;

pub use crate::floorplan::Floorplan;
pub use crate::geometry::{Point, Rect};
pub use crate::grid::FloorplanGrid;
pub use crate::skylake::SkylakeProxy;
pub use crate::tech::TechNode;
pub use crate::unit::{FloorplanUnit, UnitKind};

/// Convenient glob import of the most used types.
pub mod prelude {
    pub use crate::floorplan::Floorplan;
    pub use crate::geometry::{Point, Rect};
    pub use crate::grid::FloorplanGrid;
    pub use crate::skylake::SkylakeProxy;
    pub use crate::tech::TechNode;
    pub use crate::unit::{FloorplanUnit, UnitKind};
}
