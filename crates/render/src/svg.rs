//! SVG writer: serializes a [`Scene`] through a [`Viewport`] into vector
//! form.  Produces resolution-independent versions of the paper figures;
//! geometry matches the rasterizer's conventions (shape extents in world
//! units, text at fixed pixel size).

use crate::scene::Scene;
use crate::viewport::Viewport;
use std::fmt::Write as _;
use tioga2_expr::{Color, Shape};

fn esc(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;")
}

fn fill_stroke(color: Color, filled: bool, stroke_width: u32) -> String {
    if filled {
        format!("fill=\"{}\"", color.to_hex())
    } else {
        format!(
            "fill=\"none\" stroke=\"{}\" stroke-width=\"{}\"",
            color.to_hex(),
            stroke_width.max(1)
        )
    }
}

/// Render the scene to an SVG document string.
pub fn scene_to_svg(scene: &Scene, vp: &Viewport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{w}\" height=\"{h}\" viewBox=\"0 0 {w} {h}\">",
        w = vp.width_px,
        h = vp.height_px
    );
    let _ = writeln!(out, "<rect width=\"100%\" height=\"100%\" fill=\"#ffffff\"/>");
    for item in &scene.items {
        let d = &item.drawable;
        let (ax, ay) = (item.world.0 + d.offset.0, item.world.1 + d.offset.1);
        let (cx, cy) = vp.to_screen(ax, ay);
        let c = d.color.to_hex();
        let sw = d.style.stroke_width.max(1);
        match &d.shape {
            Shape::Point => {
                let _ = writeln!(
                    out,
                    "<rect x=\"{}\" y=\"{}\" width=\"{sw}\" height=\"{sw}\" fill=\"{c}\"/>",
                    cx - sw as i32 / 2,
                    cy - sw as i32 / 2
                );
            }
            Shape::Line { dx, dy } => {
                let (x1, y1) = vp.to_screen(ax + dx, ay + dy);
                let _ = writeln!(
                    out,
                    "<line x1=\"{cx}\" y1=\"{cy}\" x2=\"{x1}\" y2=\"{y1}\" stroke=\"{c}\" stroke-width=\"{sw}\"/>"
                );
            }
            Shape::Rect { w, h } => {
                let pw = vp.len_to_px(*w).max(1);
                let ph = vp.len_to_px(*h).max(1);
                let _ = writeln!(
                    out,
                    "<rect x=\"{}\" y=\"{}\" width=\"{pw}\" height=\"{ph}\" {}/>",
                    cx - pw / 2,
                    cy - ph / 2,
                    fill_stroke(d.color, d.style.filled, sw)
                );
            }
            Shape::Circle { radius } => {
                let r = vp.len_to_px(*radius).max(1);
                let _ = writeln!(
                    out,
                    "<circle cx=\"{cx}\" cy=\"{cy}\" r=\"{r}\" {}/>",
                    fill_stroke(d.color, d.style.filled, sw)
                );
            }
            Shape::Polygon { points } => {
                let pts: Vec<String> = points
                    .iter()
                    .map(|(px, py)| {
                        let (x, y) = vp.to_screen(ax + px, ay + py);
                        format!("{x},{y}")
                    })
                    .collect();
                let _ = writeln!(
                    out,
                    "<polygon points=\"{}\" {}/>",
                    pts.join(" "),
                    fill_stroke(d.color, d.style.filled, sw)
                );
            }
            Shape::Text { content } => {
                let size = 8 * d.style.text_scale.max(1);
                let _ = writeln!(
                    out,
                    "<text x=\"{cx}\" y=\"{cy}\" font-family=\"monospace\" font-size=\"{size}\" text-anchor=\"middle\" dominant-baseline=\"middle\" fill=\"{c}\">{}</text>",
                    esc(content)
                );
            }
            Shape::Viewer(spec) => {
                let pw = vp.len_to_px(spec.size.0).max(4);
                let ph = vp.len_to_px(spec.size.1).max(4);
                let _ = writeln!(
                    out,
                    "<g><rect x=\"{x}\" y=\"{y}\" width=\"{pw}\" height=\"{ph}\" fill=\"#ebebf5\" stroke=\"{c}\" stroke-width=\"2\"/><text x=\"{cx}\" y=\"{cy}\" font-family=\"monospace\" font-size=\"7\" text-anchor=\"middle\" fill=\"#555555\">{}</text></g>",
                    esc(&spec.destination),
                    x = cx - pw / 2,
                    y = cy - ph / 2,
                );
            }
        }
    }
    out.push_str("</svg>\n");
    out
}

/// Convenience: write SVG to a file.
pub fn write_svg(
    scene: &Scene,
    vp: &Viewport,
    path: impl AsRef<std::path::Path>,
) -> std::io::Result<()> {
    std::fs::write(path, scene_to_svg(scene, vp))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hittest::Provenance;
    use crate::scene::SceneItem;
    use tioga2_expr::{Drawable, ViewerSpec};

    fn scene() -> Scene {
        let mut s = Scene::default();
        let prov = Provenance { layer: "t".into(), row_id: 0, seq: 0, source: None };
        s.push(SceneItem {
            world: (0.0, 0.0),
            drawable: Drawable::circle(5.0, Color::RED),
            provenance: prov.clone(),
        });
        s.push(SceneItem {
            world: (10.0, 10.0),
            drawable: Drawable::text("a<b&c", Color::BLACK),
            provenance: prov.clone(),
        });
        s.push(SceneItem {
            world: (-10.0, 0.0),
            drawable: Drawable::viewer(ViewerSpec {
                destination: "temps".into(),
                elevation: 10.0,
                at: (0.0, 0.0),
                size: (8.0, 6.0),
            }),
            provenance: prov,
        });
        s
    }

    #[test]
    fn svg_structure() {
        let vp = Viewport::new((0.0, 0.0), 100.0, 300, 200);
        let svg = scene_to_svg(&scene(), &vp);
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>\n"));
        assert!(svg.contains("<circle"));
        assert!(svg.contains("a&lt;b&amp;c"), "text is escaped");
        assert!(svg.contains("temps"), "wormhole labelled with destination");
    }

    #[test]
    fn svg_scales_with_elevation() {
        let near = Viewport::new((0.0, 0.0), 50.0, 300, 200);
        let far = Viewport::new((0.0, 0.0), 200.0, 300, 200);
        let s_near = scene_to_svg(&scene(), &near);
        let s_far = scene_to_svg(&scene(), &far);
        // Circle radius is in pixels post-transform: bigger when near.
        let r_near: i32 =
            s_near.split("r=\"").nth(1).unwrap().split('"').next().unwrap().parse().unwrap();
        let r_far: i32 =
            s_far.split("r=\"").nth(1).unwrap().split('"').next().unwrap().parse().unwrap();
        assert!(r_near > r_far);
    }
}
