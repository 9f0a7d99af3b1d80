//! Magnifying glasses (paper §7.2): viewers within viewers.
//!
//! "A user may create a magnifying glass by placing a viewer inside of
//! another viewer.  Typically, a user will place a copy of the current
//! viewer inside of itself; he will then zoom the inner viewer, so it
//! magnifies what is in the outer viewer. ...  The inner and outer
//! viewers may be slaved so that they move in unison."
//!
//! The Figure 9 idiom is also supported: the inner viewer may look at an
//! *alternative display attribute* of the same data (the precipitation
//! display under a temperature plot).

use crate::error::ViewError;
use crate::render_pass::{render_composite, CullOptions};
use crate::viewer::Viewer;
use tioga2_display::attr_ops::set_active_display;
use tioga2_display::Composite;
use tioga2_expr::Color;
use tioga2_obs::Recorder;
use tioga2_render::{Framebuffer, Viewport};

/// A magnifying glass attached to an outer viewer.
#[derive(Debug, Clone, PartialEq)]
pub struct Magnifier {
    /// Screen rectangle on the outer canvas (x, y, w, h in pixels).
    pub rect_px: (i32, i32, u32, u32),
    /// Zoom factor relative to the outer viewer (2.0 = 2x magnification).
    pub zoom: f64,
    /// When slaved (the default), the inner center tracks the world point
    /// under the magnifier's own center on the outer canvas.
    pub slaved: bool,
    /// Fixed inner center when not slaved.
    pub center: (f64, f64),
    /// Optional alternative display attribute for the inner view
    /// (Figure 9: a precipitation magnifier over a temperature plot).
    pub display_attr: Option<String>,
}

impl Magnifier {
    pub fn new(rect_px: (i32, i32, u32, u32), zoom: f64) -> Result<Self, ViewError> {
        if rect_px.2 == 0 || rect_px.3 == 0 {
            return Err(ViewError::Config("magnifier rectangle is empty".into()));
        }
        if !(zoom.is_finite() && zoom > 0.0) {
            return Err(ViewError::Config(format!("bad magnifier zoom {zoom}")));
        }
        Ok(Magnifier { rect_px, zoom, slaved: true, center: (0.0, 0.0), display_attr: None })
    }

    pub fn with_display(mut self, attr: impl Into<String>) -> Self {
        self.display_attr = Some(attr.into());
        self
    }

    pub fn unslaved_at(mut self, center: (f64, f64)) -> Self {
        self.slaved = false;
        self.center = center;
        self
    }

    /// The inner viewport: same dimension as the outer viewer
    /// ("magnifying glasses must have the same dimension as their
    /// containing viewer"), at `outer elevation / zoom`.
    pub fn inner_viewport(&self, outer: &Viewer) -> Viewport {
        let ovp = outer.viewport();
        let center = if self.slaved {
            // World point under the magnifier rectangle's center.
            let cx = self.rect_px.0 + self.rect_px.2 as i32 / 2;
            let cy = self.rect_px.1 + self.rect_px.3 as i32 / 2;
            ovp.to_world(cx, cy)
        } else {
            self.center
        };
        // The inner window is rect_px-sized; match the vertical scale of
        // the outer view divided by zoom.
        let elevation = ovp.elevation / self.zoom * (self.rect_px.3 as f64 / outer.size.1 as f64);
        Viewport::new(center, elevation, self.rect_px.2, self.rect_px.3)
    }

    /// Render the magnifier's contents (traced through `rec`) and blit
    /// them into `fb` (the outer canvas framebuffer), framed.
    pub fn render_into(
        &self,
        outer: &Viewer,
        composite: &Composite,
        fb: &mut Framebuffer,
        rec: &dyn Recorder,
    ) -> Result<(), ViewError> {
        // Alternative display: swap the active display attribute of every
        // layer that has it (Figure 9's Swap Attribute box).
        let inner_composite = match &self.display_attr {
            None => composite.clone(),
            Some(attr) => {
                let mut layers = Vec::with_capacity(composite.layers.len());
                for l in &composite.layers {
                    if l.display_attrs().iter().any(|a| a == attr) {
                        layers.push(set_active_display(l, attr)?);
                    } else {
                        layers.push(l.clone());
                    }
                }
                Composite::new(layers)?
            }
        };
        let ivp = self.inner_viewport(outer);
        let (sub, _, _) = render_composite(
            &inner_composite,
            ivp.elevation,
            &outer.position.sliders,
            &ivp,
            CullOptions::default(),
            rec,
        )?;
        fb.blit(&sub, self.rect_px.0, self.rect_px.1);
        // Frame the lens.
        fb.draw_rect(
            self.rect_px.0,
            self.rect_px.1,
            self.rect_px.0 + self.rect_px.2 as i32 - 1,
            self.rect_px.1 + self.rect_px.3 as i32 - 1,
            2,
            Color::GRAY,
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tioga2_display::attr_ops::{add_attribute, set_attribute, AttrRole};
    use tioga2_display::defaults::make_display_relation;
    use tioga2_expr::{parse, ScalarType as T, Value};
    use tioga2_obs::noop_ref;
    use tioga2_relational::relation::RelationBuilder;

    fn temp_composite() -> Composite {
        let mut b = RelationBuilder::new()
            .field("time", T::Float)
            .field("temp", T::Float)
            .field("precip", T::Float);
        for i in 0..10 {
            b = b.row(vec![
                Value::Float(i as f64 * 10.0),
                Value::Float(20.0 + i as f64),
                Value::Float(i as f64 * 0.5),
            ]);
        }
        let dr = make_display_relation(b.build().unwrap(), "obs").unwrap();
        let dr = set_attribute(&dr, "x", T::Float, parse("time").unwrap()).unwrap();
        let dr = set_attribute(&dr, "y", T::Float, parse("temp").unwrap()).unwrap();
        let dr = set_attribute(&dr, "display", T::DrawList, parse("circle(2.0,'red')").unwrap())
            .unwrap();
        let dr = add_attribute(
            &dr,
            "precip_display",
            T::Drawable,
            parse("rect(2.0, 2.0, 'blue')").unwrap(),
            AttrRole::Display,
        )
        .unwrap();
        Composite::new(vec![dr]).unwrap()
    }

    fn outer() -> Viewer {
        let mut v = Viewer::new("main", 200, 200);
        v.position.center = (45.0, 25.0);
        v.position.elevation = 100.0;
        v
    }

    #[test]
    fn magnifier_renders_into_outer_canvas() {
        let c = temp_composite();
        let v = outer();
        let (mut fb, _, _) = v.render(&c, noop_ref()).unwrap();
        let red_before = fb.count_color(Color::RED);
        // Lens centered on the data (screen center is world (45, 25)).
        let m = Magnifier::new((60, 60, 80, 80), 2.0).unwrap();
        m.render_into(&v, &c, &mut fb, noop_ref()).unwrap();
        assert!(fb.count_color(Color::GRAY) > 100, "lens frame drawn");
        // The lens magnifies: red circles inside the lens are larger.
        let red_after = fb.count_color(Color::RED);
        assert!(red_after > 0 && red_after != red_before, "{red_after} vs {red_before}");
    }

    #[test]
    fn magnifier_zoom_magnifies() {
        let c = temp_composite();
        let v = outer();
        let m2 = Magnifier::new((0, 0, 100, 100), 2.0).unwrap();
        let m8 = Magnifier::new((0, 0, 100, 100), 8.0).unwrap();
        assert!(m8.inner_viewport(&v).elevation < m2.inner_viewport(&v).elevation);
        // Center both lenses exactly on a data point; the higher zoom
        // draws that point's circle with a larger pixel radius.
        let mut fb2 = Framebuffer::new(200, 200);
        let mut fb8 = Framebuffer::new(200, 200);
        let m2c = m2.unslaved_at((40.0, 24.0));
        let m8c = m8.unslaved_at((40.0, 24.0));
        m2c.render_into(&v, &c, &mut fb2, noop_ref()).unwrap();
        m8c.render_into(&v, &c, &mut fb8, noop_ref()).unwrap();
        let per_circle_2 = fb2.count_color(Color::RED);
        let per_circle_8 = fb8.count_color(Color::RED);
        assert!(per_circle_8 > per_circle_2, "{per_circle_8} vs {per_circle_2}");
    }

    #[test]
    fn figure9_alternative_display_lens() {
        let c = temp_composite();
        let v = outer();
        let (mut fb, _, _) = v.render(&c, noop_ref()).unwrap();
        assert_eq!(fb.count_color(Color::BLUE), 0, "outer shows temperature (red)");
        let m = Magnifier::new((50, 50, 80, 80), 1.0).unwrap().with_display("precip_display");
        m.render_into(&v, &c, &mut fb, noop_ref()).unwrap();
        assert!(fb.count_color(Color::BLUE) > 0, "lens shows precipitation (blue)");
        assert!(fb.count_color(Color::RED) > 0, "outer temperature still visible");
    }

    #[test]
    fn slaved_lens_tracks_outer_pan() {
        let _c = temp_composite();
        let mut v = outer();
        let m = Magnifier::new((80, 80, 40, 40), 2.0).unwrap();
        let before = m.inner_viewport(&v).center;
        v.pan_px(-50, 0);
        let after = m.inner_viewport(&v).center;
        assert!(after.0 > before.0, "lens follows the view");
        // Unslaved lens stays put.
        let fixed = Magnifier::new((80, 80, 40, 40), 2.0).unwrap().unslaved_at((1.0, 2.0));
        assert_eq!(fixed.inner_viewport(&v).center, (1.0, 2.0));
    }

    #[test]
    fn bad_magnifier_configs_rejected() {
        assert!(Magnifier::new((0, 0, 0, 10), 2.0).is_err());
        assert!(Magnifier::new((0, 0, 10, 10), 0.0).is_err());
        assert!(Magnifier::new((0, 0, 10, 10), f64::NAN).is_err());
    }
}
