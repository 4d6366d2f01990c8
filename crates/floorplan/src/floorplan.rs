//! The [`Floorplan`] container: a named set of placed functional units.

use serde::{Deserialize, Serialize};

use crate::geometry::{Point, Rect};
use crate::unit::{FloorplanUnit, UnitKind};

/// A complete die floorplan: every functional unit with its footprint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Floorplan {
    /// Descriptive name, e.g. `skylake_proxy_7nm`.
    pub name: String,
    /// The die outline. All units lie within this rectangle.
    pub die: Rect,
    /// The placed units.
    pub units: Vec<FloorplanUnit>,
}

impl Floorplan {
    /// Creates a floorplan and validates it (see [`Floorplan::validate`]).
    ///
    /// # Panics
    ///
    /// Panics if validation fails; floorplans are produced by generators and
    /// an invalid one is a programming error.
    pub fn new(name: impl Into<String>, die: Rect, units: Vec<FloorplanUnit>) -> Self {
        let fp = Self {
            name: name.into(),
            die,
            units,
        };
        fp.validate()
            // hotgauge-lint: allow(L001, "this constructor takes programmatic geometry; user-supplied floorplans go through from_json, which returns the validation error")
            .unwrap_or_else(|e| panic!("invalid floorplan: {e}"));
        fp
    }

    /// Total die area in mm².
    pub fn die_area(&self) -> f64 {
        self.die.area()
    }

    /// Sum of all unit areas in mm² (≤ die area; the difference is
    /// white space).
    pub fn occupied_area(&self) -> f64 {
        self.units.iter().map(FloorplanUnit::area).sum()
    }

    /// Number of distinct cores referenced by the units.
    pub fn core_count(&self) -> usize {
        self.units
            .iter()
            .filter_map(|u| u.core)
            .max()
            .map_or(0, |m| m + 1)
    }

    /// Looks up a unit by its unique name.
    pub fn unit_by_name(&self, name: &str) -> Option<&FloorplanUnit> {
        self.units.iter().find(|u| u.name == name)
    }

    /// Index of a unit by its unique name.
    pub fn unit_index_by_name(&self, name: &str) -> Option<usize> {
        self.units.iter().position(|u| u.name == name)
    }

    /// All units of the given kind (across all cores).
    pub fn units_of_kind(&self, kind: UnitKind) -> impl Iterator<Item = &FloorplanUnit> {
        self.units.iter().filter(move |u| u.kind == kind)
    }

    /// All units belonging to the given core.
    pub fn units_of_core(&self, core: usize) -> impl Iterator<Item = &FloorplanUnit> {
        self.units.iter().filter(move |u| u.core == Some(core))
    }

    /// Bounding box of a core (union of its unit rectangles), if present.
    pub fn core_bbox(&self, core: usize) -> Option<Rect> {
        let mut it = self.units_of_core(core);
        let first = it.next()?.rect;
        Some(it.fold(first, |acc, u| acc.union_bbox(&u.rect)))
    }

    /// The unit containing the given point, if any.
    pub fn unit_at(&self, p: Point) -> Option<&FloorplanUnit> {
        self.units.iter().find(|u| u.rect.contains(p))
    }

    /// Returns a uniformly scaled copy: all positions and sizes multiplied by
    /// `sqrt(area_factor)`, increasing the die (and every unit's) area by
    /// `area_factor`.
    ///
    /// With per-unit power held constant this reduces power density uniformly
    /// across the IC — the paper's §V-B "IC scaling" limit study.
    pub fn scaled_by_area(&self, area_factor: f64) -> Floorplan {
        assert!(
            area_factor.is_finite() && area_factor > 0.0,
            "area factor must be positive"
        );
        let s = area_factor.sqrt();
        Floorplan {
            // The exact factor (`1.5`, `1.504`): names key the idle warm-up
            // memo, so factors that round alike must not share a name.
            name: format!("{}_areax{}", self.name, area_factor),
            die: self.die.scaled(s),
            units: self
                .units
                .iter()
                .map(|u| FloorplanUnit::new(u.name.clone(), u.kind, u.core, u.rect.scaled(s)))
                .collect(),
        }
    }

    /// Serializes the floorplan to pretty JSON — the interchange format for
    /// custom architectures ("HotGauge is system-agnostic ... if provided
    /// with a power and performance model", §III).
    pub fn to_json(&self) -> String {
        // hotgauge-lint: allow(L001, "Floorplan derives Serialize with no fallible custom impls; a failure is a programming error")
        serde_json::to_string_pretty(self).expect("floorplans serialize")
    }

    /// Parses a floorplan from JSON and validates it.
    pub fn from_json(json: &str) -> Result<Floorplan, String> {
        let fp: Floorplan = serde_json::from_str(json).map_err(|e| e.to_string())?;
        fp.validate()?;
        Ok(fp)
    }

    /// Checks structural invariants:
    /// unit names unique, all units within the die, no two units overlapping.
    pub fn validate(&self) -> Result<(), String> {
        let mut names: Vec<&str> = self.units.iter().map(|u| u.name.as_str()).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        if names.len() != n {
            return Err("duplicate unit names".into());
        }
        const EPS: f64 = 1e-6; // 1 nm²-scale slack for floating-point tiling
        for u in &self.units {
            if u.rect.x < self.die.x - EPS
                || u.rect.y < self.die.y - EPS
                || u.rect.x2() > self.die.x2() + EPS
                || u.rect.y2() > self.die.y2() + EPS
            {
                return Err(format!("unit {} extends beyond the die", u.name));
            }
            if !(u.rect.w > 0.0 && u.rect.h > 0.0) {
                return Err(format!("unit {} has zero area", u.name));
            }
        }
        for i in 0..self.units.len() {
            for j in (i + 1)..self.units.len() {
                let a = &self.units[i];
                let b = &self.units[j];
                if a.rect.intersection_area(&b.rect) > EPS {
                    return Err(format!("units {} and {} overlap", a.name, b.name));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_unit_plan() -> Floorplan {
        Floorplan::new(
            "test",
            Rect::new(0.0, 0.0, 2.0, 1.0),
            vec![
                FloorplanUnit::new("a", UnitKind::Rob, Some(0), Rect::new(0.0, 0.0, 1.0, 1.0)),
                FloorplanUnit::new("b", UnitKind::CAlu, Some(0), Rect::new(1.0, 0.0, 1.0, 1.0)),
            ],
        )
    }

    #[test]
    fn accessors() {
        let fp = two_unit_plan();
        assert_eq!(fp.die_area(), 2.0);
        assert_eq!(fp.occupied_area(), 2.0);
        assert_eq!(fp.core_count(), 1);
        assert!(fp.unit_by_name("a").is_some());
        assert!(fp.unit_by_name("missing").is_none());
        assert_eq!(fp.units_of_kind(UnitKind::Rob).count(), 1);
        assert_eq!(fp.units_of_core(0).count(), 2);
        assert_eq!(
            fp.unit_at(Point::new(1.5, 0.5)).unwrap().name,
            "b".to_string()
        );
    }

    #[test]
    fn core_bbox_unions_units() {
        let fp = two_unit_plan();
        assert_eq!(fp.core_bbox(0).unwrap(), Rect::new(0.0, 0.0, 2.0, 1.0));
        assert!(fp.core_bbox(3).is_none());
    }

    #[test]
    fn scaled_by_area_scales_everything() {
        let fp = two_unit_plan();
        let s = fp.scaled_by_area(4.0);
        assert!((s.die_area() - 8.0).abs() < 1e-12);
        assert!((s.units[0].area() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn json_roundtrip_preserves_floorplan() {
        let fp = two_unit_plan();
        let json = fp.to_json();
        let back = Floorplan::from_json(&json).unwrap();
        assert_eq!(fp, back);
    }

    #[test]
    fn from_json_rejects_invalid_floorplans() {
        // Valid JSON encoding an overlapping floorplan must be rejected.
        let bad = r#"{
            "name": "bad",
            "die": {"x": 0.0, "y": 0.0, "w": 2.0, "h": 1.0},
            "units": [
                {"name": "a", "kind": "Rob", "core": 0,
                 "rect": {"x": 0.0, "y": 0.0, "w": 1.5, "h": 1.0}},
                {"name": "b", "kind": "CAlu", "core": 0,
                 "rect": {"x": 1.0, "y": 0.0, "w": 1.0, "h": 1.0}}
            ]
        }"#;
        assert!(Floorplan::from_json(bad).is_err());
        assert!(Floorplan::from_json("not json").is_err());
    }

    #[test]
    fn overlap_detected() {
        let res = Floorplan {
            name: "bad".into(),
            die: Rect::new(0.0, 0.0, 2.0, 1.0),
            units: vec![
                FloorplanUnit::new("a", UnitKind::Rob, None, Rect::new(0.0, 0.0, 1.5, 1.0)),
                FloorplanUnit::new("b", UnitKind::CAlu, None, Rect::new(1.0, 0.0, 1.0, 1.0)),
            ],
        }
        .validate();
        assert!(res.is_err());
    }

    #[test]
    fn out_of_die_detected() {
        let res = Floorplan {
            name: "bad".into(),
            die: Rect::new(0.0, 0.0, 1.0, 1.0),
            units: vec![FloorplanUnit::new(
                "a",
                UnitKind::Rob,
                None,
                Rect::new(0.5, 0.0, 1.0, 1.0),
            )],
        }
        .validate();
        assert!(res.is_err());
    }

    #[test]
    fn duplicate_names_detected() {
        let res = Floorplan {
            name: "bad".into(),
            die: Rect::new(0.0, 0.0, 2.0, 1.0),
            units: vec![
                FloorplanUnit::new("a", UnitKind::Rob, None, Rect::new(0.0, 0.0, 1.0, 1.0)),
                FloorplanUnit::new("a", UnitKind::CAlu, None, Rect::new(1.0, 0.0, 1.0, 1.0)),
            ],
        }
        .validate();
        assert!(res.is_err());
    }
}
