//! Slicing-tree floorplan layout engine.
//!
//! A floorplan is described as a tree of horizontal (`Row`) and vertical
//! (`Col`) slices whose leaves are functional units with relative area
//! weights. Placement divides a rectangle among children proportionally to
//! their total weights, which guarantees — by construction — that the
//! resulting tiles are non-overlapping, cover the parent exactly, and have
//! areas proportional to their weights.
//!
//! The mitigation case studies of the paper (§V-A) are expressed by scaling a
//! leaf's weight: the layout is then recomputed with a correspondingly larger
//! enclosing rectangle, exactly like the authors' "many new floorplans with
//! scaled versions of the unit under study".

use crate::geometry::Rect;
use crate::unit::UnitKind;

/// One node of a slicing-tree layout.
#[derive(Debug, Clone, PartialEq)]
pub enum LayoutNode {
    /// A functional unit occupying area proportional to `weight`.
    Leaf {
        /// The unit placed at this leaf.
        kind: UnitKind,
        /// Relative area weight (arbitrary positive scale).
        weight: f64,
    },
    /// Children are placed side by side along the x axis (full parent height).
    Row(Vec<LayoutNode>),
    /// Children are stacked along the y axis (full parent width).
    Col(Vec<LayoutNode>),
}

impl LayoutNode {
    /// Convenience constructor for a leaf.
    pub fn leaf(kind: UnitKind, weight: f64) -> Self {
        assert!(
            weight.is_finite() && weight > 0.0,
            "leaf weight must be positive, got {weight} for {kind:?}"
        );
        LayoutNode::Leaf { kind, weight }
    }

    /// Total weight of the subtree.
    pub fn total_weight(&self) -> f64 {
        match self {
            LayoutNode::Leaf { weight, .. } => *weight,
            LayoutNode::Row(children) | LayoutNode::Col(children) => {
                children.iter().map(LayoutNode::total_weight).sum()
            }
        }
    }

    /// Multiplies the weight of every leaf of the given kind by `factor`.
    /// Returns how many leaves were scaled.
    pub fn scale_unit(&mut self, kind: UnitKind, factor: f64) -> usize {
        assert!(
            factor.is_finite() && factor > 0.0,
            "scale factor must be positive"
        );
        match self {
            LayoutNode::Leaf { kind: k, weight } => {
                if *k == kind {
                    *weight *= factor;
                    1
                } else {
                    0
                }
            }
            LayoutNode::Row(children) | LayoutNode::Col(children) => children
                .iter_mut()
                .map(|c| c.scale_unit(kind, factor))
                .sum(),
        }
    }

    /// Places the subtree inside `rect`, appending `(kind, tile)` pairs to
    /// `out` in depth-first order.
    pub fn place(&self, rect: Rect, out: &mut Vec<(UnitKind, Rect)>) {
        match self {
            LayoutNode::Leaf { kind, .. } => out.push((*kind, rect)),
            LayoutNode::Row(children) => {
                let total = self.total_weight();
                let mut x = rect.x;
                let n = children.len();
                for (i, child) in children.iter().enumerate() {
                    // Give the last child the exact remaining span so floating
                    // point drift cannot leave a sliver of uncovered area.
                    let w = if i + 1 == n {
                        rect.x2() - x
                    } else {
                        rect.w * child.total_weight() / total
                    };
                    child.place(Rect::new(x, rect.y, w.max(0.0), rect.h), out);
                    x += w;
                }
            }
            LayoutNode::Col(children) => {
                let total = self.total_weight();
                let mut y = rect.y;
                let n = children.len();
                for (i, child) in children.iter().enumerate() {
                    let h = if i + 1 == n {
                        rect.y2() - y
                    } else {
                        rect.h * child.total_weight() / total
                    };
                    child.place(Rect::new(rect.x, y, rect.w, h.max(0.0)), out);
                    y += h;
                }
            }
        }
    }

    /// Places the subtree and returns the tiles.
    pub fn placed(&self, rect: Rect) -> Vec<(UnitKind, Rect)> {
        let mut out = Vec::new();
        self.place(rect, &mut out);
        out
    }

    /// Number of leaves in the subtree.
    pub fn leaf_count(&self) -> usize {
        match self {
            LayoutNode::Leaf { .. } => 1,
            LayoutNode::Row(children) | LayoutNode::Col(children) => {
                children.iter().map(LayoutNode::leaf_count).sum()
            }
        }
    }
}

/// Mirrors a set of placed tiles horizontally inside `frame`
/// (used to flip core orientation so caches face the die edge).
pub fn mirror_x(tiles: &mut [(UnitKind, Rect)], frame: Rect) {
    for (_, r) in tiles.iter_mut() {
        let new_x = frame.x + (frame.x2() - r.x2());
        *r = Rect::new(new_x, r.y, r.w, r.h);
    }
}

/// Mirrors a set of placed tiles vertically inside `frame`.
pub fn mirror_y(tiles: &mut [(UnitKind, Rect)], frame: Rect) {
    for (_, r) in tiles.iter_mut() {
        let new_y = frame.y + (frame.y2() - r.y2());
        *r = Rect::new(r.x, new_y, r.w, r.h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tree() -> LayoutNode {
        LayoutNode::Row(vec![
            LayoutNode::leaf(UnitKind::L2, 2.0),
            LayoutNode::Col(vec![
                LayoutNode::leaf(UnitKind::Rob, 1.0),
                LayoutNode::leaf(UnitKind::FpIWin, 1.0),
                LayoutNode::leaf(UnitKind::CAlu, 2.0),
            ]),
        ])
    }

    #[test]
    fn areas_proportional_to_weights() {
        let tree = sample_tree();
        let tiles = tree.placed(Rect::new(0.0, 0.0, 6.0, 2.0));
        let total: f64 = tiles.iter().map(|(_, r)| r.area()).sum();
        assert!((total - 12.0).abs() < 1e-9);
        for (kind, r) in &tiles {
            let expect = match kind {
                UnitKind::L2 => 2.0 / 6.0 * 12.0,
                UnitKind::Rob | UnitKind::FpIWin => 1.0 / 6.0 * 12.0,
                UnitKind::CAlu => 2.0 / 6.0 * 12.0,
                other => panic!("unexpected unit kind {other:?}"),
            };
            assert!((r.area() - expect).abs() < 1e-9, "{kind:?}");
        }
    }

    #[test]
    fn tiles_do_not_overlap() {
        let tiles = sample_tree().placed(Rect::new(0.0, 0.0, 6.0, 2.0));
        for i in 0..tiles.len() {
            for j in (i + 1)..tiles.len() {
                assert!(
                    tiles[i].1.intersection_area(&tiles[j].1) < 1e-12,
                    "{:?} overlaps {:?}",
                    tiles[i],
                    tiles[j]
                );
            }
        }
    }

    #[test]
    fn tiles_cover_parent_exactly() {
        let frame = Rect::new(1.0, 2.0, 5.0, 3.0);
        let tiles = sample_tree().placed(frame);
        let total: f64 = tiles.iter().map(|(_, r)| r.area()).sum();
        assert!((total - frame.area()).abs() < 1e-9);
        for (_, r) in &tiles {
            assert!(r.x >= frame.x - 1e-12 && r.x2() <= frame.x2() + 1e-12);
            assert!(r.y >= frame.y - 1e-12 && r.y2() <= frame.y2() + 1e-12);
        }
    }

    #[test]
    fn scale_unit_changes_weight() {
        let mut tree = sample_tree();
        let n = tree.scale_unit(UnitKind::FpIWin, 10.0);
        assert_eq!(n, 1);
        assert!((tree.total_weight() - 15.0).abs() < 1e-12);
        assert_eq!(tree.scale_unit(UnitKind::Avx512, 2.0), 0);
    }

    #[test]
    fn mirror_x_preserves_areas_and_bounds() {
        let frame = Rect::new(0.0, 0.0, 6.0, 2.0);
        let mut tiles = sample_tree().placed(frame);
        let before: f64 = tiles.iter().map(|(_, r)| r.area()).sum();
        mirror_x(&mut tiles, frame);
        let after: f64 = tiles.iter().map(|(_, r)| r.area()).sum();
        assert!((before - after).abs() < 1e-9);
        // L2 had x=0 (left edge); after mirroring it should touch the right edge.
        let l2 = tiles.iter().find(|(k, _)| *k == UnitKind::L2).unwrap();
        assert!((l2.1.x2() - frame.x2()).abs() < 1e-12);
    }

    #[test]
    fn mirror_y_flips_vertical_order() {
        let frame = Rect::new(0.0, 0.0, 2.0, 4.0);
        let tree = LayoutNode::Col(vec![
            LayoutNode::leaf(UnitKind::Rob, 1.0),
            LayoutNode::leaf(UnitKind::CAlu, 1.0),
        ]);
        let mut tiles = tree.placed(frame);
        let rob_y_before = tiles.iter().find(|(k, _)| *k == UnitKind::Rob).unwrap().1.y;
        mirror_y(&mut tiles, frame);
        let rob_y_after = tiles.iter().find(|(k, _)| *k == UnitKind::Rob).unwrap().1.y;
        assert_ne!(rob_y_before, rob_y_after);
        let total: f64 = tiles.iter().map(|(_, r)| r.area()).sum();
        assert!((total - frame.area()).abs() < 1e-9);
    }

    #[test]
    fn leaf_count_counts_leaves() {
        assert_eq!(sample_tree().leaf_count(), 4);
    }
}
