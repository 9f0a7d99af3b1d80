//! Scenes: display lists of positioned drawables with tuple provenance.
//!
//! The viewer layer lowers displayables to a `Scene` (one item per
//! drawable per visible tuple, in composite draw order) and this module
//! rasterizes the scene through a [`Viewport`], producing the pixels and
//! the [`HitIndex`] that maps screen objects back to tuples.
//!
//! Geometry semantics: shape extents (circle radii, rectangle sizes, line
//! vectors, polygon vertices, drawable offsets) are **world units** — they
//! scale with zoom.  Text renders at a fixed pixel size regardless of
//! elevation, like real map labels; this is why the paper's Figure 7
//! range-limits the name layer "at high elevations, where they would be
//! illegible".

use crate::font;
use crate::framebuffer::Framebuffer;
use crate::hittest::{HitIndex, HitRecord, Provenance};
use crate::viewport::Viewport;
use tioga2_expr::{Color, Drawable, Shape};

/// One positioned drawable.
#[derive(Debug, Clone, PartialEq)]
pub struct SceneItem {
    /// World position of the owning tuple (x, y location attributes plus
    /// any overlay offset).
    pub world: (f64, f64),
    pub drawable: Drawable,
    pub provenance: Provenance,
}

/// A display list in drawing order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scene {
    pub items: Vec<SceneItem>,
}

impl Scene {
    pub fn push(&mut self, item: SceneItem) {
        self.items.push(item);
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

fn clamp_px(v: f64) -> i32 {
    v.clamp(i32::MIN as f64, i32::MAX as f64).round() as i32
}

/// Render `scene` into `fb` through `vp`, returning the hit index.
/// Items whose bounding box misses the screen entirely are skipped (and
/// therefore not clickable).
pub fn render_scene(scene: &Scene, vp: &Viewport, fb: &mut Framebuffer) -> HitIndex {
    let mut hits = HitIndex::default();
    for (idx, item) in scene.items.iter().enumerate() {
        if let Some(bbox) = draw_item(item, vp, fb) {
            hits.push(HitRecord {
                bbox,
                kind: item.drawable.kind(),
                provenance: item.provenance.clone(),
                scene_index: idx,
            });
        }
    }
    hits
}

/// Screen bbox of an item without drawing (used by wormhole pass-through
/// checks).
pub fn item_screen_bbox(item: &SceneItem, vp: &Viewport) -> (i32, i32, i32, i32) {
    let (wx0, wy0, wx1, wy1) = item.drawable.bounds();
    let (ax, ay) = item.world;
    let (px0, py1) = vp.to_screen(ax + wx0, ay + wy0);
    let (px1, py0) = vp.to_screen(ax + wx1, ay + wy1);
    if let Shape::Text { content } = &item.drawable.shape {
        let (tw, th) = font::text_extent(content, item.drawable.style.text_scale);
        let (cx, cy) = vp.to_screen(ax + item.drawable.offset.0, ay + item.drawable.offset.1);
        return (cx - tw as i32 / 2, cy - th as i32 / 2, cx + tw as i32 / 2, cy + th as i32 / 2);
    }
    // Ensure at least a 1px box so degenerate shapes stay clickable.
    (px0.min(px1), py0.min(py1), px0.max(px1).saturating_add(1), py0.max(py1).saturating_add(1))
}

fn on_screen(bbox: (i32, i32, i32, i32), fb: &Framebuffer) -> bool {
    let (x0, y0, x1, y1) = bbox;
    x1 >= 0 && y1 >= 0 && x0 < fb.width() as i32 && y0 < fb.height() as i32
}

fn draw_item(
    item: &SceneItem,
    vp: &Viewport,
    fb: &mut Framebuffer,
) -> Option<(i32, i32, i32, i32)> {
    let bbox = item_screen_bbox(item, vp);
    if !on_screen(bbox, fb) {
        return None;
    }
    let d = &item.drawable;
    let (ax, ay) = (item.world.0 + d.offset.0, item.world.1 + d.offset.1);
    let (cx, cy) = {
        let (x, y) = vp.to_screen(ax, ay);
        (x, y)
    };
    let color = d.color;
    let sw = d.style.stroke_width.max(1);
    match &d.shape {
        Shape::Point => fb.draw_point(cx, cy, sw, color),
        Shape::Line { dx, dy } => {
            let (x1, y1) = vp.to_screen(ax + dx, ay + dy);
            fb.draw_line(cx, cy, x1, y1, sw, color);
        }
        Shape::Rect { w, h } => {
            let hw = (vp.len_to_px(*w) / 2).max(0);
            let hh = (vp.len_to_px(*h) / 2).max(0);
            let (x0, y0) = (cx.saturating_sub(hw), cy.saturating_sub(hh));
            let (x1, y1) = (cx.saturating_add(hw), cy.saturating_add(hh));
            if d.style.filled {
                fb.fill_rect(x0, y0, x1, y1, color);
            } else {
                fb.draw_rect(x0, y0, x1, y1, sw, color);
            }
        }
        Shape::Circle { radius } => {
            let r = vp.len_to_px(*radius).max(1);
            if d.style.filled {
                fb.fill_circle(cx, cy, r, color);
            } else {
                fb.draw_circle(cx, cy, r, sw, color);
            }
        }
        Shape::Polygon { points } => {
            let pts: Vec<(i32, i32)> = points
                .iter()
                .map(|(px, py)| vp.to_screen(ax + px, ay + py))
                .map(|(x, y)| (clamp_px(x as f64), clamp_px(y as f64)))
                .collect();
            if d.style.filled {
                fb.fill_polygon(&pts, color);
            } else {
                fb.draw_polygon(&pts, sw, color);
            }
        }
        Shape::Text { content } => {
            let (tw, th) = font::text_extent(content, d.style.text_scale);
            font::draw_text(
                fb,
                cx - tw as i32 / 2,
                cy - th as i32 / 2,
                content,
                color,
                d.style.text_scale,
            );
        }
        Shape::Viewer(spec) => {
            // The wormhole aperture: a framed window.  The destination
            // canvas's preview is blitted by the viewer runtime; here we
            // draw the frame and a faint backdrop so an unfilled wormhole
            // is still visible.
            let hw = (vp.len_to_px(spec.size.0) / 2).max(2);
            let hh = (vp.len_to_px(spec.size.1) / 2).max(2);
            let (x0, y0) = (cx.saturating_sub(hw), cy.saturating_sub(hh));
            let (x1, y1) = (cx.saturating_add(hw), cy.saturating_add(hh));
            fb.fill_rect(x0, y0, x1, y1, Color { r: 235, g: 235, b: 245, a: 255 });
            fb.draw_rect(x0, y0, x1, y1, sw.max(2), color);
        }
    }
    Some(bbox)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tioga2_expr::ViewerSpec;

    fn prov(row: u64) -> Provenance {
        Provenance { layer: "t".into(), row_id: row, seq: row as usize, source: None }
    }

    fn item(world: (f64, f64), d: Drawable) -> SceneItem {
        SceneItem { world, drawable: d, provenance: prov(0) }
    }

    fn setup() -> (Viewport, Framebuffer) {
        (Viewport::new((0.0, 0.0), 100.0, 200, 200), Framebuffer::new(200, 200))
    }

    #[test]
    fn circle_renders_at_world_position() {
        let (vp, mut fb) = setup();
        let mut scene = Scene::default();
        scene.push(item((0.0, 0.0), Drawable::circle(5.0, Color::RED)));
        let hits = render_scene(&scene, &vp, &mut fb);
        assert_eq!(hits.len(), 1);
        assert_eq!(fb.get(100, 100).unwrap()[0], Color::RED.r, "center pixel red");
        // radius 5 world = 10 px.
        assert_eq!(fb.get(100, 88).unwrap(), [255, 255, 255, 255]);
        assert!(hits.top_hit(100, 100).is_some());
    }

    #[test]
    fn offscreen_items_skipped() {
        let (vp, mut fb) = setup();
        let mut scene = Scene::default();
        scene.push(item((1e6, 1e6), Drawable::circle(5.0, Color::RED)));
        let hits = render_scene(&scene, &vp, &mut fb);
        assert_eq!(hits.len(), 0);
        assert_eq!(fb.ink_fraction(), 0.0);
    }

    #[test]
    fn zoom_scales_shapes_but_not_text() {
        let mut scene = Scene::default();
        scene.push(item((0.0, 0.0), Drawable::circle(5.0, Color::RED)));
        scene.push(item((0.0, 0.0), Drawable::text("Hi", Color::BLACK)));

        let far = Viewport::new((0.0, 0.0), 400.0, 200, 200);
        let near = Viewport::new((0.0, 0.0), 50.0, 200, 200);
        let mut fb_far = Framebuffer::new(200, 200);
        let mut fb_near = Framebuffer::new(200, 200);
        render_scene(&scene, &far, &mut fb_far);
        render_scene(&scene, &near, &mut fb_near);
        assert!(
            fb_near.count_color(Color::RED) > 4 * fb_far.count_color(Color::RED),
            "circle grows when zooming in"
        );
        // Text pixel count identical at both elevations (fixed label size).
        assert_eq!(fb_far.count_color(Color::BLACK), fb_near.count_color(Color::BLACK));
    }

    #[test]
    fn drawable_offset_is_world_space() {
        let (vp, mut fb) = setup();
        let mut scene = Scene::default();
        scene.push(item((0.0, 0.0), Drawable::point(Color::BLACK).with_offset(10.0, 0.0)));
        render_scene(&scene, &vp, &mut fb);
        // 10 world units right = 20 px right of center.
        assert_eq!(fb.get(120, 100).unwrap()[0], 0);
    }

    #[test]
    fn draw_order_is_paint_order() {
        let (vp, mut fb) = setup();
        let mut scene = Scene::default();
        scene.push(item((0.0, 0.0), Drawable::circle(5.0, Color::RED)));
        scene.push(item((0.0, 0.0), Drawable::circle(5.0, Color::BLUE)));
        let hits = render_scene(&scene, &vp, &mut fb);
        assert_eq!(fb.get(100, 100).unwrap()[2], Color::BLUE.b, "later layer wins");
        assert_eq!(hits.top_hit(100, 100).unwrap().scene_index, 1);
    }

    #[test]
    fn lines_rects_polygons_render() {
        let (vp, mut fb) = setup();
        let mut scene = Scene::default();
        scene.push(item((-20.0, 0.0), Drawable::line(10.0, 10.0, Color::BLACK)));
        scene.push(item((20.0, 0.0), Drawable::rect(10.0, 6.0, Color::GREEN)));
        scene.push(item(
            (0.0, -30.0),
            Drawable::polygon(vec![(0.0, 0.0), (8.0, 0.0), (4.0, 8.0)], Color::PURPLE),
        ));
        let hits = render_scene(&scene, &vp, &mut fb);
        assert_eq!(hits.len(), 3);
        assert!(fb.count_color(Color::GREEN) > 50);
        assert!(fb.count_color(Color::PURPLE) > 20);
        assert!(fb.count_color(Color::BLACK) > 5);
    }

    #[test]
    fn outlined_style_leaves_interior_empty() {
        let (vp, mut fb) = setup();
        let mut d = Drawable::rect(20.0, 20.0, Color::BLACK);
        d.style.filled = false;
        let mut scene = Scene::default();
        scene.push(item((0.0, 0.0), d));
        render_scene(&scene, &vp, &mut fb);
        assert_eq!(fb.get(100, 100), Some([255, 255, 255, 255]));
    }

    #[test]
    fn viewer_drawable_renders_frame_and_is_hittable() {
        let (vp, mut fb) = setup();
        let mut scene = Scene::default();
        scene.push(item(
            (0.0, 0.0),
            Drawable::viewer(ViewerSpec {
                destination: "temps".into(),
                elevation: 50.0,
                at: (0.0, 0.0),
                size: (20.0, 16.0),
            }),
        ));
        let hits = render_scene(&scene, &vp, &mut fb);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits.records()[0].kind, "viewer");
        assert!(hits.top_hit(100, 100).is_some(), "click inside the aperture hits");
        assert!(fb.ink_fraction() > 0.0);
    }

    #[test]
    fn text_hit_box_matches_extent() {
        let (vp, mut fb) = setup();
        let mut scene = Scene::default();
        scene.push(item((0.0, 0.0), Drawable::text("Baton Rouge", Color::BLACK)));
        let hits = render_scene(&scene, &vp, &mut fb);
        let r = hits.top_hit(100, 100).expect("click on label center");
        let (x0, _, x1, _) = r.bbox;
        let (w, _) = font::text_extent("Baton Rouge", 1);
        assert_eq!((x1 - x0) as u32, w);
    }
}
