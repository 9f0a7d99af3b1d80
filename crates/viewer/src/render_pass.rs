//! Lowering composites to render scenes.
//!
//! Paper §2: "the viewer filters tuples to the ranges specified by the
//! sliders for dimensions l1 ... ln-2, filters tuples to the visible real
//! estate on the screen for dimensions x and y, and then renders the
//! tuples' display attribute to the screen."  Plus §6.1: layers whose
//! elevation range excludes the current elevation contribute nothing, and
//! layers lacking a slider dimension are *invariant* in it.

use crate::error::ViewError;
use tioga2_display::Composite;
use tioga2_obs::Recorder;
use tioga2_render::hittest::Provenance;
use tioga2_render::scene::{Scene, SceneItem};
use tioga2_render::{render_scene, Framebuffer, HitIndex, Viewport};

/// One slider: a named dimension and its visible range (inclusive).
#[derive(Debug, Clone, PartialEq)]
pub struct Slider {
    pub dim: String,
    pub range: (f64, f64),
}

impl Slider {
    pub fn new(dim: impl Into<String>, lo: f64, hi: f64) -> Self {
        Slider { dim: dim.into(), range: (lo.min(hi), lo.max(hi)) }
    }
}

/// Culling switches — the A2 ablation bench turns these off to measure
/// what the paper's elevation-range machinery buys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CullOptions {
    /// Skip layers whose elevation range excludes the current elevation.
    pub elevation: bool,
    /// Skip tuples outside the visible world rectangle (with margin).
    pub bounds: bool,
}

impl Default for CullOptions {
    fn default() -> Self {
        CullOptions { elevation: true, bounds: true }
    }
}

/// Margin factor applied to the visible rectangle so shapes whose anchor
/// sits just off-screen still draw their on-screen parts.
pub(crate) const BOUNDS_MARGIN: f64 = 0.25;

/// Build the scene for `composite` as seen from `elevation` within the
/// world rectangle `bounds = (min_x, min_y, max_x, max_y)`.
///
/// A negative `elevation` renders the *underside*: only layers whose
/// elevation range reaches below zero appear (rear view mirrors, §6.3).
pub fn compose_scene(
    composite: &Composite,
    elevation: f64,
    sliders: &[Slider],
    bounds: (f64, f64, f64, f64),
    opts: CullOptions,
) -> Result<Scene, ViewError> {
    let mut scene = Scene::default();
    let (min_x, min_y, max_x, max_y) = bounds;
    let margin_x = (max_x - min_x).abs() * BOUNDS_MARGIN;
    let margin_y = (max_y - min_y).abs() * BOUNDS_MARGIN;

    for layer in &composite.layers {
        if opts.elevation && !layer.elev_range.contains(elevation) {
            continue;
        }
        // Map each slider to this layer's dimension index, if it has it.
        let slider_dims: Vec<(usize, (f64, f64))> = sliders
            .iter()
            .filter_map(|s| {
                layer.location_attrs().iter().position(|a| *a == s.dim).map(|i| (i, s.range))
            })
            .collect();

        let source = layer.rel.source().map(str::to_string);
        for seq in 0..layer.rel.len() {
            let pos = layer.tuple_position(seq)?;
            let (x, y) = (pos[0], pos[1]);
            if x.is_nan() || y.is_nan() {
                // Null locations are invisible (SQL semantics), never an
                // error: the relation stays "always visualizable".
                continue;
            }
            if opts.bounds
                && (x < min_x - margin_x
                    || x > max_x + margin_x
                    || y < min_y - margin_y
                    || y > max_y + margin_y)
            {
                continue;
            }
            // Slider filtering; layers lacking the dimension are
            // invariant (handled by slider_dims only containing present
            // dimensions).
            let mut visible = true;
            for (dim_idx, (lo, hi)) in &slider_dims {
                let v = pos[*dim_idx];
                if v.is_nan() || v < *lo || v > *hi {
                    visible = false;
                    break;
                }
            }
            if !visible {
                continue;
            }
            let row_id = layer.rel.tuples()[seq].row_id;
            for drawable in layer.tuple_display(seq)? {
                scene.push(SceneItem {
                    world: (x, y),
                    drawable,
                    provenance: Provenance {
                        layer: layer.name.clone(),
                        row_id,
                        seq,
                        source: source.clone(),
                    },
                });
            }
        }
    }
    Ok(scene)
}

/// The one compose → draw pass every viewer-shaped window runs: canvases
/// ([`crate::Viewer::render`]), magnifying glasses and the rear-view
/// mirror.  Composes `composite` as seen from `elevation` within `vp`'s
/// world rectangle, then rasterizes the scene into a fresh framebuffer of
/// `vp`'s pixel size.  Returns the pixels, the hit index and the scene.
///
/// With an enabled recorder the two passes are traced as `render.compose`
/// (layers, items) and `render.draw` (items, drawn, culled) spans; a
/// disabled recorder returns before any span is opened.
pub fn render_composite(
    composite: &Composite,
    elevation: f64,
    sliders: &[Slider],
    vp: &Viewport,
    opts: CullOptions,
    rec: &dyn Recorder,
) -> Result<(Framebuffer, HitIndex, Scene), ViewError> {
    let compose = || compose_scene(composite, elevation, sliders, vp.world_bounds(), opts);
    let draw = |scene: &Scene| {
        let mut fb = Framebuffer::new(vp.width_px, vp.height_px);
        let hits = render_scene(scene, vp, &mut fb);
        (fb, hits)
    };
    if !rec.is_enabled() {
        let scene = compose()?;
        let (fb, hits) = draw(&scene);
        return Ok((fb, hits, scene));
    }
    let span = rec.span_begin("render.compose", "");
    let scene = compose();
    let items = scene.as_ref().map_or(-1, |s| s.len() as i64);
    rec.span_end(span, &[("layers", composite.layers.len() as i64), ("items", items)]);
    let scene = scene?;
    let span = rec.span_begin("render.draw", "");
    let (fb, hits) = draw(&scene);
    rec.span_end(
        span,
        &[
            ("items", scene.len() as i64),
            ("drawn", hits.len() as i64),
            ("culled", (scene.len() - hits.len()) as i64),
        ],
    );
    Ok((fb, hits, scene))
}

/// World-space bounding rectangle of the composite's tuples in the two
/// screen dimensions (ignores elevation ranges).  Used by `fit` /
/// default viewer positioning.  Returns None for empty data.
pub fn data_bounds(composite: &Composite) -> Result<Option<(f64, f64, f64, f64)>, ViewError> {
    let mut b: Option<(f64, f64, f64, f64)> = None;
    for layer in &composite.layers {
        for seq in 0..layer.rel.len() {
            let pos = layer.tuple_position(seq)?;
            let (x, y) = (pos[0], pos[1]);
            if x.is_nan() || y.is_nan() {
                continue;
            }
            b = Some(match b {
                None => (x, y, x, y),
                Some((x0, y0, x1, y1)) => (x0.min(x), y0.min(y), x1.max(x), y1.max(y)),
            });
        }
    }
    Ok(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tioga2_display::attr_ops::{add_attribute, set_attribute, AttrRole};
    use tioga2_display::defaults::make_display_relation;
    use tioga2_display::drilldown::set_range;
    use tioga2_display::DisplayRelation;
    use tioga2_expr::{parse, ScalarType as T, Value};
    use tioga2_relational::relation::RelationBuilder;

    /// Stations at (i*10, i*5) with altitude i*100, i in 0..4.
    fn stations() -> DisplayRelation {
        let mut b = RelationBuilder::new()
            .field("name", T::Text)
            .field("lon", T::Float)
            .field("lat", T::Float)
            .field("alt", T::Float);
        for i in 0..4 {
            b = b.row(vec![
                Value::Text(format!("s{i}")),
                Value::Float(i as f64 * 10.0),
                Value::Float(i as f64 * 5.0),
                Value::Float(i as f64 * 100.0),
            ]);
        }
        let dr = make_display_relation(b.build().unwrap(), "stations").unwrap();
        let dr = set_attribute(&dr, "x", T::Float, parse("lon").unwrap()).unwrap();
        let dr = set_attribute(&dr, "y", T::Float, parse("lat").unwrap()).unwrap();
        set_attribute(
            &dr,
            "display",
            T::DrawList,
            parse("circle(1.0,'red') ++ text(name,'black')").unwrap(),
        )
        .unwrap()
    }

    fn with_alt_dim(dr: &DisplayRelation) -> DisplayRelation {
        add_attribute(dr, "altitude", T::Float, parse("alt").unwrap(), AttrRole::Location).unwrap()
    }

    const WIDE: (f64, f64, f64, f64) = (-100.0, -100.0, 100.0, 100.0);

    #[test]
    fn all_tuples_when_unfiltered() {
        let c = Composite::new(vec![stations()]).unwrap();
        let scene = compose_scene(&c, 50.0, &[], WIDE, CullOptions::default()).unwrap();
        assert_eq!(scene.len(), 8, "4 tuples x 2 drawables");
    }

    #[test]
    fn bounds_culling() {
        let c = Composite::new(vec![stations()]).unwrap();
        let narrow = (-1.0, -1.0, 12.0, 12.0);
        let scene = compose_scene(&c, 50.0, &[], narrow, CullOptions::default()).unwrap();
        // s0 (0,0) and s1 (10,5) inside; s2 (20,10) within 25% margin of
        // a 13-wide window? margin_x = 3.25 -> 20 > 15.25 culled.
        assert_eq!(scene.len(), 4);
        // Culling off: everything.
        let all =
            compose_scene(&c, 50.0, &[], narrow, CullOptions { elevation: true, bounds: false })
                .unwrap();
        assert_eq!(all.len(), 8);
    }

    #[test]
    fn elevation_culling_figure7() {
        // Figure 7: names visible only below 50, circles only above 50.
        let names = set_range(&stations(), 0.0, 50.0).unwrap();
        let mut circles = set_range(&stations(), 50.0, f64::INFINITY).unwrap();
        circles.name = "circles".into();
        let c = Composite::new(vec![names, circles]).unwrap();
        let high = compose_scene(&c, 100.0, &[], WIDE, CullOptions::default()).unwrap();
        assert!(high.items.iter().all(|i| i.provenance.layer == "circles"));
        let low = compose_scene(&c, 10.0, &[], WIDE, CullOptions::default()).unwrap();
        assert!(low.items.iter().all(|i| i.provenance.layer == "stations"));
        // At exactly 50 both are visible (inclusive ranges).
        let mid = compose_scene(&c, 50.0, &[], WIDE, CullOptions::default()).unwrap();
        assert_eq!(mid.len(), 16);
        // Ablation: culling off draws everything regardless.
        let no_cull =
            compose_scene(&c, 100.0, &[], WIDE, CullOptions { elevation: false, bounds: true })
                .unwrap();
        assert_eq!(no_cull.len(), 16);
    }

    #[test]
    fn slider_filters_layers_with_dimension() {
        let dr = with_alt_dim(&stations());
        let c = Composite::new(vec![dr]).unwrap();
        let slider = Slider::new("altitude", 50.0, 250.0);
        let scene = compose_scene(&c, 50.0, &[slider], WIDE, CullOptions::default()).unwrap();
        // alt 100 and 200 pass; 0 and 300 filtered.
        assert_eq!(scene.len(), 4);
    }

    #[test]
    fn slider_invariance_for_flat_layers() {
        // The Figure 7 rule: the 2-D map layer ignores the Altitude slider.
        let map = stations(); // 2-D
        let stations3d = with_alt_dim(&stations());
        let c = Composite::new(vec![map, stations3d]).unwrap();
        let slider = Slider::new("altitude", 1000.0, 2000.0); // excludes all
        let scene = compose_scene(&c, 50.0, &[slider], WIDE, CullOptions::default()).unwrap();
        // 3-D stations all filtered out; flat layer fully present.
        assert_eq!(scene.len(), 8);
        assert!(scene.items.iter().all(|i| i.provenance.layer == "stations"));
    }

    #[test]
    fn underside_layers_only_at_negative_elevation() {
        // §6.3: min<0 layers are visible from below.
        let top = set_range(&stations(), 0.0, 1e6).unwrap();
        let mut under = set_range(&stations(), -1e6, -1.0).unwrap();
        under.name = "under".into();
        let c = Composite::new(vec![top, under]).unwrap();
        let below = compose_scene(&c, -10.0, &[], WIDE, CullOptions::default()).unwrap();
        assert!(below.items.iter().all(|i| i.provenance.layer == "under"));
        let above = compose_scene(&c, 10.0, &[], WIDE, CullOptions::default()).unwrap();
        assert!(above.items.iter().all(|i| i.provenance.layer == "stations"));
    }

    #[test]
    fn null_locations_skipped() {
        let mut b = RelationBuilder::new().field("lon", T::Float);
        b = b.row(vec![Value::Null]).row(vec![Value::Float(5.0)]);
        let dr = make_display_relation(b.build().unwrap(), "t").unwrap();
        let dr = set_attribute(&dr, "x", T::Float, parse("lon").unwrap()).unwrap();
        let c = Composite::new(vec![dr]).unwrap();
        let scene = compose_scene(&c, 50.0, &[], WIDE, CullOptions::default()).unwrap();
        assert_eq!(scene.len(), 1, "null-positioned tuple is invisible, not an error");
    }

    #[test]
    fn scene_order_follows_draw_order() {
        let mut a = stations();
        a.name = "bottom".into();
        let mut b = stations();
        b.name = "top".into();
        let c = Composite::new(vec![a, b]).unwrap();
        let scene = compose_scene(&c, 50.0, &[], WIDE, CullOptions::default()).unwrap();
        let first_half: Vec<&str> =
            scene.items[..8].iter().map(|i| i.provenance.layer.as_str()).collect();
        assert!(first_half.iter().all(|l| *l == "bottom"));
    }

    #[test]
    fn data_bounds_cover_all_tuples() {
        let c = Composite::new(vec![stations()]).unwrap();
        let b = data_bounds(&c).unwrap().unwrap();
        assert_eq!(b, (0.0, 0.0, 30.0, 15.0));
        // Empty relation -> None.
        let empty =
            make_display_relation(RelationBuilder::new().field("a", T::Int).build().unwrap(), "e")
                .unwrap();
        assert_eq!(data_bounds(&Composite::new(vec![empty]).unwrap()).unwrap(), None);
    }

    #[test]
    fn provenance_carries_row_identity() {
        let c = Composite::new(vec![stations()]).unwrap();
        let scene = compose_scene(&c, 50.0, &[], WIDE, CullOptions::default()).unwrap();
        let item = &scene.items[2]; // second tuple's circle
        assert_eq!(item.provenance.seq, 1);
        assert_eq!(item.provenance.row_id, 1);
    }
}
