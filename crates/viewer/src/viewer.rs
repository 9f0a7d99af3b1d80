//! One canvas window: a viewer with an (n+1)-dimensional position.

use crate::error::ViewError;
use crate::render_pass::{compose_scene, data_bounds, render_composite, CullOptions, Slider};
use tioga2_display::Composite;
use tioga2_obs::Recorder;
use tioga2_render::{Framebuffer, HitIndex, Scene, Viewport};

/// The (n+1)-dimensional position of a viewer (§2): pan center +
/// elevation for the screen dimensions, and a range per slider dimension.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewerPosition {
    pub center: (f64, f64),
    pub elevation: f64,
    pub sliders: Vec<Slider>,
}

/// A canvas window.
#[derive(Debug, Clone, PartialEq)]
pub struct Viewer {
    /// Canvas name (matches the Viewer box in the program window).
    pub name: String,
    pub position: ViewerPosition,
    /// Screen size in pixels.
    pub size: (u32, u32),
    pub cull: CullOptions,
}

impl Viewer {
    pub fn new(name: impl Into<String>, width: u32, height: u32) -> Self {
        Viewer {
            name: name.into(),
            position: ViewerPosition { center: (0.0, 0.0), elevation: 100.0, sliders: Vec::new() },
            size: (width.max(1), height.max(1)),
            cull: CullOptions::default(),
        }
    }

    /// The current world↔screen transform.
    pub fn viewport(&self) -> Viewport {
        Viewport::new(self.position.center, self.position.elevation, self.size.0, self.size.1)
    }

    /// Initialize position and sliders from the data: fit the screen
    /// window to the data bounds and give every slider dimension its full
    /// data range.
    pub fn fit(&mut self, composite: &Composite) -> Result<(), ViewError> {
        if let Some(bounds) = data_bounds(composite)? {
            let vp = Viewport::fit(bounds, self.size.0, self.size.1, 1.15);
            self.position.center = vp.center;
            self.position.elevation = vp.elevation;
        }
        self.position.sliders.clear();
        for dim in composite.slider_attrs() {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for layer in &composite.layers {
                if let Some(i) = layer.location_attrs().iter().position(|a| *a == dim) {
                    for seq in 0..layer.rel.len() {
                        let pos = layer.tuple_position(seq)?;
                        let v = pos[i];
                        if !v.is_nan() {
                            lo = lo.min(v);
                            hi = hi.max(v);
                        }
                    }
                }
            }
            if lo <= hi {
                self.position.sliders.push(Slider::new(dim, lo, hi));
            }
        }
        Ok(())
    }

    /// Pan by a screen-pixel delta (scroll bars, §3).
    pub fn pan_px(&mut self, dx: i32, dy: i32) {
        let mut vp = self.viewport();
        vp.pan_px(dx, dy);
        self.position.center = vp.center;
    }

    /// Zoom by a factor (elevation multiplier; < 1 descends).
    pub fn zoom(&mut self, factor: f64) {
        self.position.elevation = (self.position.elevation * factor).max(f64::MIN_POSITIVE);
    }

    /// Move a slider (canvas slider bars, §3).
    pub fn set_slider(&mut self, dim: &str, lo: f64, hi: f64) -> Result<(), ViewError> {
        match self.position.sliders.iter_mut().find(|s| s.dim == dim) {
            Some(s) => {
                s.range = (lo.min(hi), lo.max(hi));
                Ok(())
            }
            None => Err(ViewError::Config(format!("viewer '{}' has no slider '{dim}'", self.name))),
        }
    }

    /// Build the scene for the current position.
    pub fn scene(&self, composite: &Composite) -> Result<Scene, ViewError> {
        let vp = self.viewport();
        compose_scene(
            composite,
            self.position.elevation,
            &self.position.sliders,
            vp.world_bounds(),
            self.cull,
        )
    }

    /// Render the composite to a fresh framebuffer, returning pixels, the
    /// hit index, and the scene that produced them; both passes are traced
    /// through `rec`.
    pub fn render(
        &self,
        composite: &Composite,
        rec: &dyn Recorder,
    ) -> Result<(Framebuffer, HitIndex, Scene), ViewError> {
        render_composite(
            composite,
            self.position.elevation,
            &self.position.sliders,
            &self.viewport(),
            self.cull,
            rec,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tioga2_display::attr_ops::{add_attribute, set_attribute, AttrRole};
    use tioga2_display::defaults::make_display_relation;
    use tioga2_expr::{parse, Color, ScalarType as T, Value};
    use tioga2_obs::noop_ref;
    use tioga2_relational::relation::RelationBuilder;

    fn composite() -> Composite {
        let mut b = RelationBuilder::new()
            .field("lon", T::Float)
            .field("lat", T::Float)
            .field("alt", T::Float);
        for (x, y, a) in [(0.0, 0.0, 10.0), (50.0, 25.0, 20.0), (-50.0, -25.0, 30.0)] {
            b = b.row(vec![Value::Float(x), Value::Float(y), Value::Float(a)]);
        }
        let dr = make_display_relation(b.build().unwrap(), "pts").unwrap();
        let dr = set_attribute(&dr, "x", T::Float, parse("lon").unwrap()).unwrap();
        let dr = set_attribute(&dr, "y", T::Float, parse("lat").unwrap()).unwrap();
        let dr = set_attribute(&dr, "display", T::DrawList, parse("circle(2.0,'red')").unwrap())
            .unwrap();
        let dr =
            add_attribute(&dr, "altitude", T::Float, parse("alt").unwrap(), AttrRole::Location)
                .unwrap();
        Composite::new(vec![dr]).unwrap()
    }

    #[test]
    fn fit_shows_everything() {
        let c = composite();
        let mut v = Viewer::new("main", 200, 200);
        v.fit(&c).unwrap();
        let (fb, hits, scene) = v.render(&c, noop_ref()).unwrap();
        assert_eq!(scene.len(), 3);
        assert_eq!(hits.len(), 3);
        assert!(fb.count_color(Color::RED) > 0);
        // Slider initialized to full data range.
        assert_eq!(v.position.sliders.len(), 1);
        assert_eq!(v.position.sliders[0].range, (10.0, 30.0));
    }

    #[test]
    fn zoom_in_culls_far_points() {
        let c = composite();
        let mut v = Viewer::new("main", 200, 200);
        v.fit(&c).unwrap();
        v.zoom(0.1);
        let (_, hits, _) = v.render(&c, noop_ref()).unwrap();
        assert_eq!(hits.len(), 1, "only the center point remains visible");
    }

    #[test]
    fn pan_moves_view() {
        let c = composite();
        let mut v = Viewer::new("main", 200, 200);
        v.fit(&c).unwrap();
        v.zoom(0.1);
        let before = v.position.center;
        // Pan so the (50, 25) point comes into view.
        let vp = v.viewport();
        let (px, py) = vp.to_screen(50.0, 25.0);
        v.pan_px(100 - px, 100 - py);
        assert_ne!(v.position.center, before);
        let (_, hits, _) = v.render(&c, noop_ref()).unwrap();
        assert!(hits.top_hit(100, 100).is_some(), "panned point under the crosshair");
    }

    #[test]
    fn slider_updates_filter() {
        let c = composite();
        let mut v = Viewer::new("main", 200, 200);
        v.fit(&c).unwrap();
        v.set_slider("altitude", 15.0, 25.0).unwrap();
        let (_, hits, _) = v.render(&c, noop_ref()).unwrap();
        assert_eq!(hits.len(), 1);
        assert!(v.set_slider("nope", 0.0, 1.0).is_err());
    }

    #[test]
    fn fit_on_empty_data_keeps_defaults() {
        let empty =
            make_display_relation(RelationBuilder::new().field("a", T::Int).build().unwrap(), "e")
                .unwrap();
        let c = Composite::new(vec![empty]).unwrap();
        let mut v = Viewer::new("main", 100, 100);
        v.fit(&c).unwrap();
        assert_eq!(v.position.elevation, 100.0);
        let (fb, hits, _) = v.render(&c, noop_ref()).unwrap();
        assert_eq!(hits.len(), 0);
        assert_eq!(fb.ink_fraction(), 0.0);
    }
}
