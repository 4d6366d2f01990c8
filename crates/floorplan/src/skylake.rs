//! Skylake-proxy client die generator.
//!
//! Builds the 7-core client CPU floorplan used throughout the paper's case
//! study (Table I, Fig. 5): an out-of-order core with a 3×2 aspect ratio and
//! 5 / 2.5 / 1.25 mm² of area at 14 / 10 / 7 nm, a shared 16 MiB ring L3,
//! and the paper's added uncore models (AVX-512 inside each core, System
//! Agent / SoC, memory controller, and I/O).
//!
//! Die organization (three columns of cores, matching the paper's §IV-B
//! observation that cores 0, 2, 5 lie on the **left** side of the die,
//! cores 1, 4, 6 on the **right**, and core 3 in the middle):
//!
//! ```text
//!   +--------------------------------------+
//!   |   System Agent          |    I/O     |
//!   +--------------------------------------+
//!   | core 0 |   L3.0   | core 1           |
//!   | core 2 |   L3.1  core 3  L3.2        |  <- core 3 central column
//!   | core 5 |   L3.3   | core 4 / core 6  |
//!   +--------------------------------------+
//!   |        IMC (memory controller)       |
//!   +--------------------------------------+
//! ```
//!
//! Left-column cores are mirrored so their L2 faces the die edge, as on real
//! client parts; this is what gives rise to the orientation-dependent
//! hotspot behavior the paper reports for `core_other` (§IV-D).

use crate::floorplan::Floorplan;
use crate::geometry::Rect;
use crate::layout::{mirror_x, LayoutNode};
use crate::tech::TechNode;
use crate::unit::{FloorplanUnit, UnitKind};

/// Core area at 14 nm, mm² (Table I).
pub const CORE_AREA_14NM_MM2: f64 = 5.0;
/// Core aspect ratio (width : height) from Table I's "3×2".
pub const CORE_ASPECT: f64 = 1.5;
/// Number of cores in the case-study die (Table I).
pub const DEFAULT_CORE_COUNT: usize = 7;

/// Relative area weights of the per-core units, in percent of core area.
///
/// These follow Skylake die-shot proportions: a large L2 side column, an
/// L1I/front-end strip, rename/retire, schedulers + register files, the
/// execution stack (with the AVX-512 block the paper adds), and the
/// load/store complex.
pub const CORE_UNIT_WEIGHTS: [(UnitKind, f64); 22] = [
    (UnitKind::L2, 18.0),
    (UnitKind::Fetch, 3.0),
    (UnitKind::Bpu, 2.5),
    (UnitKind::L1I, 6.0),
    (UnitKind::Decode, 5.5),
    (UnitKind::IntRat, 2.2),
    (UnitKind::FpRat, 1.8),
    (UnitKind::Rob, 4.5),
    (UnitKind::RetireOther, 3.5),
    (UnitKind::IntIWin, 3.5),
    (UnitKind::FpIWin, 3.0),
    (UnitKind::IntRf, 3.0),
    (UnitKind::FpRf, 3.5),
    (UnitKind::SimpleAlu, 3.2),
    (UnitKind::CAlu, 2.8),
    (UnitKind::Agu, 2.5),
    (UnitKind::Fpu, 4.0),
    (UnitKind::Avx512, 7.5),
    (UnitKind::L1D, 6.0),
    (UnitKind::Lsq, 4.0),
    (UnitKind::Mmu, 3.0),
    (UnitKind::CoreOther, 7.0),
];

/// Builder for the Skylake-proxy die.
///
/// # Examples
///
/// ```
/// use hotgauge_floorplan::skylake::SkylakeProxy;
/// use hotgauge_floorplan::tech::TechNode;
/// use hotgauge_floorplan::unit::UnitKind;
///
/// let fp = SkylakeProxy::new(TechNode::N7).build();
/// assert_eq!(fp.core_count(), 7);
///
/// // Mitigation study: grow every fpIWin 10x (paper Fig. 13a).
/// let scaled = SkylakeProxy::new(TechNode::N7)
///     .scale_unit(UnitKind::FpIWin, 10.0)
///     .build();
/// assert!(scaled.die_area() > fp.die_area());
/// ```
#[derive(Debug, Clone)]
pub struct SkylakeProxy {
    node: TechNode,
    core_count: usize,
    unit_scales: Vec<(UnitKind, f64)>,
    ic_area_factor: f64,
}

impl SkylakeProxy {
    /// A proxy die at the given technology node with the paper's defaults
    /// (7 cores, no mitigation scaling).
    pub fn new(node: TechNode) -> Self {
        Self {
            node,
            core_count: DEFAULT_CORE_COUNT,
            unit_scales: Vec::new(),
            ic_area_factor: 1.0,
        }
    }

    /// Overrides the number of cores (1..=7 supported by the fixed column
    /// layout; more cores extend the columns).
    pub fn core_count(mut self, n: usize) -> Self {
        assert!(n >= 1, "need at least one core");
        self.core_count = n;
        self
    }

    /// Scales the area of every instance of `kind` by `factor`
    /// (the §V-A problematic-unit scaling study). May be called repeatedly
    /// for different units.
    pub fn scale_unit(mut self, kind: UnitKind, factor: f64) -> Self {
        assert!(factor.is_finite() && factor > 0.0);
        self.unit_scales.push((kind, factor));
        self
    }

    /// Adds white space uniformly across the IC, multiplying the total die
    /// area by `factor` while keeping per-unit power constant
    /// (the §V-B IC-scaling limit study).
    pub fn ic_area_factor(mut self, factor: f64) -> Self {
        assert!(factor.is_finite() && factor >= 1.0);
        self.ic_area_factor = factor;
        self
    }

    /// The technology node this builder targets.
    pub fn node(&self) -> TechNode {
        self.node
    }

    fn core_tree(&self) -> LayoutNode {
        let w = |k: UnitKind| -> f64 {
            #[expect(
                clippy::expect_used,
                reason = "CORE_UNIT_WEIGHTS is a compile-time table covering every UnitKind the proxy emits"
            )]
            let base = CORE_UNIT_WEIGHTS
                .iter()
                .find(|(kk, _)| *kk == k)
                .map(|(_, wgt)| *wgt)
                .expect("all core kinds have weights");
            let scale: f64 = self
                .unit_scales
                .iter()
                .filter(|(kk, _)| *kk == k)
                .map(|(_, f)| *f)
                .product();
            base * scale
        };
        // L2 is a full-height column on one side; the rest of the core is a
        // stack of pipeline-stage rows (front end at the top, memory at the
        // bottom) mimicking Fig. 5.
        LayoutNode::Row(vec![
            LayoutNode::leaf(UnitKind::L2, w(UnitKind::L2)),
            LayoutNode::Col(vec![
                // Memory row (bottom).
                LayoutNode::Row(vec![
                    LayoutNode::leaf(UnitKind::L1D, w(UnitKind::L1D)),
                    LayoutNode::leaf(UnitKind::Lsq, w(UnitKind::Lsq)),
                    LayoutNode::leaf(UnitKind::Mmu, w(UnitKind::Mmu)),
                    LayoutNode::leaf(UnitKind::CoreOther, w(UnitKind::CoreOther)),
                ]),
                // Execution row.
                LayoutNode::Row(vec![
                    LayoutNode::leaf(UnitKind::SimpleAlu, w(UnitKind::SimpleAlu)),
                    LayoutNode::leaf(UnitKind::CAlu, w(UnitKind::CAlu)),
                    LayoutNode::leaf(UnitKind::Agu, w(UnitKind::Agu)),
                    LayoutNode::leaf(UnitKind::Fpu, w(UnitKind::Fpu)),
                    LayoutNode::leaf(UnitKind::Avx512, w(UnitKind::Avx512)),
                ]),
                // Scheduler + register-file row.
                LayoutNode::Row(vec![
                    LayoutNode::leaf(UnitKind::IntIWin, w(UnitKind::IntIWin)),
                    LayoutNode::leaf(UnitKind::FpIWin, w(UnitKind::FpIWin)),
                    LayoutNode::leaf(UnitKind::IntRf, w(UnitKind::IntRf)),
                    LayoutNode::leaf(UnitKind::FpRf, w(UnitKind::FpRf)),
                ]),
                // Rename / retire row.
                LayoutNode::Row(vec![
                    LayoutNode::leaf(UnitKind::IntRat, w(UnitKind::IntRat)),
                    LayoutNode::leaf(UnitKind::FpRat, w(UnitKind::FpRat)),
                    LayoutNode::leaf(UnitKind::Rob, w(UnitKind::Rob)),
                    LayoutNode::leaf(UnitKind::RetireOther, w(UnitKind::RetireOther)),
                ]),
                // Front-end row (top).
                LayoutNode::Row(vec![
                    LayoutNode::leaf(UnitKind::Fetch, w(UnitKind::Fetch)),
                    LayoutNode::leaf(UnitKind::Bpu, w(UnitKind::Bpu)),
                    LayoutNode::leaf(UnitKind::L1I, w(UnitKind::L1I)),
                    LayoutNode::leaf(UnitKind::Decode, w(UnitKind::Decode)),
                ]),
            ]),
        ])
    }

    /// Builds the floorplan.
    pub fn build(&self) -> Floorplan {
        let tree = self.core_tree();
        // Core area grows with any unit scaling (total weight / base weight).
        let base_weight: f64 = CORE_UNIT_WEIGHTS.iter().map(|(_, w)| w).sum();
        let core_area =
            CORE_AREA_14NM_MM2 * self.node.area_scale_from_14() * tree.total_weight() / base_weight;
        let core_h = (core_area / CORE_ASPECT).sqrt();
        let core_w = core_area / core_h;

        // Fixed 3-row / 3-column client layout. Left and right columns are
        // core-wide; the middle column is core-wide as well (core 3 keeps its
        // shape) with L3 slices filling the rest of its height.
        let main_h = 3.0 * core_h;
        let die_w = 3.0 * core_w;
        let sa_h = 0.35 * core_h;
        let imc_h = 0.25 * core_h;
        let die_h = main_h + sa_h + imc_h;

        let mut units: Vec<FloorplanUnit> = Vec::new();

        // Bottom strip: IMC.
        units.push(FloorplanUnit::new(
            "IMC",
            UnitKind::Imc,
            None,
            Rect::new(0.0, 0.0, die_w, imc_h),
        ));
        // Top strip: System Agent (60%) + IO (40%).
        let sa_y = imc_h + main_h;
        units.push(FloorplanUnit::new(
            "SA",
            UnitKind::SystemAgent,
            None,
            Rect::new(0.0, sa_y, die_w * 0.6, sa_h),
        ));
        units.push(FloorplanUnit::new(
            "IO",
            UnitKind::Io,
            None,
            Rect::new(die_w * 0.6, sa_y, die_w * 0.4, sa_h),
        ));

        // Core placements: (core index, column 0..3, row 0..3).
        // Left column: 0, 2, 5 (top to bottom); right column: 1, 4, 6;
        // middle column: core 3 in the middle row, L3 slices elsewhere.
        let placements: [(usize, usize, usize); 7] = [
            (0, 0, 0),
            (2, 0, 1),
            (5, 0, 2),
            (1, 2, 0),
            (4, 2, 1),
            (6, 2, 2),
            (3, 1, 1),
        ];
        let mut l3_idx = 0;
        // Middle-column L3 slices at rows 0 and 2, split into two slices each
        // (4 slices of the 16 MiB ring).
        for row in [0usize, 2usize] {
            let y = imc_h + (2 - row) as f64 * core_h;
            let x = core_w;
            for half in 0..2 {
                units.push(FloorplanUnit::new(
                    format!("L3.{l3_idx}"),
                    UnitKind::L3Slice,
                    None,
                    Rect::new(x, y + half as f64 * core_h / 2.0, core_w, core_h / 2.0),
                ));
                l3_idx += 1;
            }
        }

        for &(core, col, row) in placements.iter().take(7) {
            if core >= self.core_count {
                // Unpopulated core slots become additional L3 area so the die
                // stays fully tiled.
                let x = col as f64 * core_w;
                let y = imc_h + (2 - row) as f64 * core_h;
                units.push(FloorplanUnit::new(
                    format!("L3.{l3_idx}"),
                    UnitKind::L3Slice,
                    None,
                    Rect::new(x, y, core_w, core_h),
                ));
                l3_idx += 1;
                continue;
            }
            let x = col as f64 * core_w;
            let y = imc_h + (2 - row) as f64 * core_h;
            let frame = Rect::new(x, y, core_w, core_h);
            let mut tiles = tree.placed(frame);
            // The layout tree puts L2 leftmost, which already faces the die
            // edge for the left column; mirror the right column so its L2
            // faces the right edge as on real client parts.
            if col == 2 {
                mirror_x(&mut tiles, frame);
            }
            for (kind, rect) in tiles {
                units.push(FloorplanUnit::new(
                    format!("core{core}.{}", kind.label()),
                    kind,
                    Some(core),
                    rect,
                ));
            }
        }

        let die = Rect::new(0.0, 0.0, die_w, die_h);
        let mut name = format!("skylake_proxy_{}", self.node.label());
        for (k, f) in &self.unit_scales {
            // The exact factor (`2`, `1.5`): names key the idle warm-up
            // cache, so distinct scales must never share one.
            name.push_str(&format!("_{}x{}", k.label(), f));
        }
        let fp = Floorplan::new(name, die, units);
        if self.ic_area_factor > 1.0 {
            fp.scaled_by_area(self.ic_area_factor)
        } else {
            fp
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_valid_7core_die() {
        for node in TechNode::PAPER_NODES {
            let fp = SkylakeProxy::new(node).build();
            assert_eq!(fp.core_count(), 7, "{node}");
            assert!(fp.validate().is_ok());
            // 22 units per core + 4 L3 slices + SA + IMC + IO.
            assert_eq!(fp.units.len(), 7 * 22 + 4 + 3);
        }
    }

    #[test]
    fn core_area_matches_table1() {
        for (node, expect) in [
            (TechNode::N14, 5.0),
            (TechNode::N10, 2.5),
            (TechNode::N7, 1.25),
        ] {
            let fp = SkylakeProxy::new(node).build();
            let area: f64 = fp.units_of_core(0).map(|u| u.area()).sum();
            assert!(
                (area - expect).abs() / expect < 1e-9,
                "{node}: got {area}, expected {expect}"
            );
        }
    }

    #[test]
    fn die_scales_by_half_per_node() {
        let a14 = SkylakeProxy::new(TechNode::N14).build().die_area();
        let a10 = SkylakeProxy::new(TechNode::N10).build().die_area();
        let a7 = SkylakeProxy::new(TechNode::N7).build().die_area();
        assert!((a10 / a14 - 0.5).abs() < 1e-9);
        assert!((a7 / a14 - 0.25).abs() < 1e-9);
    }

    #[test]
    fn left_and_right_cores_are_on_expected_sides() {
        let fp = SkylakeProxy::new(TechNode::N7).build();
        let die_mid = fp.die.center().x;
        for c in [0, 2, 5] {
            let bbox = fp.core_bbox(c).unwrap();
            assert!(
                bbox.center().x < die_mid,
                "core {c} should be left of center"
            );
        }
        for c in [1, 4, 6] {
            let bbox = fp.core_bbox(c).unwrap();
            assert!(
                bbox.center().x > die_mid,
                "core {c} should be right of center"
            );
        }
        let c3 = fp.core_bbox(3).unwrap();
        assert!((c3.center().x - die_mid).abs() < c3.w / 2.0);
    }

    #[test]
    fn unit_scaling_grows_unit_and_die() {
        let base = SkylakeProxy::new(TechNode::N7).build();
        let scaled = SkylakeProxy::new(TechNode::N7)
            .scale_unit(UnitKind::FpIWin, 10.0)
            .build();
        let a0 = base.unit_by_name("core0.fpIWin").unwrap().area();
        let a1 = scaled.unit_by_name("core0.fpIWin").unwrap().area();
        // The unit's share of the core grew 10x; the core itself also grew, so
        // the absolute area ratio exceeds 10x relative share but must be >5x.
        assert!(
            a1 / a0 > 5.0,
            "fpIWin should grow substantially: {}",
            a1 / a0
        );
        assert!(scaled.die_area() > base.die_area());
        assert!(scaled.validate().is_ok());
    }

    #[test]
    fn ic_scaling_grows_die_and_units_uniformly() {
        let base = SkylakeProxy::new(TechNode::N7).build();
        let grown = SkylakeProxy::new(TechNode::N7).ic_area_factor(1.75).build();
        assert!((grown.die_area() / base.die_area() - 1.75).abs() < 1e-9);
        let r = grown.unit_by_name("core0.cALU").unwrap().area()
            / base.unit_by_name("core0.cALU").unwrap().area();
        assert!((r - 1.75).abs() < 1e-9);
    }

    #[test]
    fn l2_faces_die_edges() {
        let fp = SkylakeProxy::new(TechNode::N14).build();
        // Left-column core 0: L2 at the left edge of its core bbox.
        let c0 = fp.core_bbox(0).unwrap();
        let l2_0 = fp.unit_by_name("core0.L2").unwrap();
        assert!((l2_0.rect.x - c0.x).abs() < 1e-9);
        // Right-column core 1 is mirrored: L2 at the right edge.
        let c1 = fp.core_bbox(1).unwrap();
        let l2_1 = fp.unit_by_name("core1.L2").unwrap();
        assert!((l2_1.rect.x2() - c1.x2()).abs() < 1e-9);
    }

    #[test]
    fn reduced_core_count_backfills_l3() {
        let fp = SkylakeProxy::new(TechNode::N7).core_count(4).build();
        assert_eq!(fp.core_count(), 4);
        assert!(fp.validate().is_ok());
        assert!(fp.units_of_kind(UnitKind::L3Slice).count() > 4);
    }
}
