//! Layer replay: re-render the frame a session just produced, one public
//! call per layer, on a benchmark-owned [`Engine`], so each layer's share
//! of the frame can be timed from outside the program.  The replayed
//! framebuffer must equal the session's byte for byte; a replay that
//! drifts from what `Session::render` does is a failed check, not a
//! measurement.

use crate::trace::Tracer;
use tioga2_core::Session;
use tioga2_dataflow::{Engine, NodeId};
use tioga2_display::Displayable;
use tioga2_relational::Catalog;
use tioga2_render::{render_scene, Framebuffer};
use tioga2_viewer::group::{member_viewer_name, GroupWindow};
use tioga2_viewer::slaving::ViewerSet;

/// Span names the replay records.  The first group adds up to the frame
/// for relation/composite canvases, the second for group canvases; the
/// per-member compose/draw split of a group is a separate, uncompared
/// pass and does not count toward the frame.
pub const SINGLE_LAYERS: [&str; 5] = [
    "dataflow.demand",
    "viewer.window_predicate",
    "display.into_composite",
    "viewer.compose",
    "render.draw",
];
pub const GROUP_LAYERS: [&str; 2] = ["dataflow.demand", "viewer.group_render"];

/// What one replayed frame produced.
pub struct Replayed {
    pub fb: Framebuffer,
    pub group: bool,
    /// Scene items composed, and the composite rows they came from.
    pub items: usize,
    pub rows: usize,
    /// Rows the plan examined and rows it emitted, from an untimed
    /// analyzed demand of the same window (`None` without a plan).
    pub examined: Option<(u64, u64)>,
}

pub struct Replay {
    engine: Engine,
}

fn leaf_rows_in(n: &tioga2_obs::OpNode) -> u64 {
    if n.children.is_empty() {
        n.rows_in
    } else {
        n.children.iter().map(leaf_rows_in).sum()
    }
}

impl Replay {
    pub fn new(catalog: Catalog) -> Replay {
        Replay { engine: Engine::new(catalog) }
    }

    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// Replay the current frame of `canvas` (a Viewer box `node`), in the
    /// order `Session::render` runs the same steps.
    pub fn frame(
        &mut self,
        t: &mut Tracer,
        session: &mut Session,
        canvas: &str,
        node: NodeId,
    ) -> Result<Replayed, String> {
        let err = |e: &dyn std::fmt::Display| e.to_string();
        let graph = &session.graph;
        let viewer = session.viewers.get(canvas).ok().cloned();
        let span = t.begin("dataflow.demand");
        let header = self.engine.plan_root_header(graph, node, 0);
        t.end(span);
        let header = header.map_err(|e| err(&e))?;
        let window = t.time("viewer.window_predicate", || match (&viewer, &header) {
            (Some(v), Some(h)) => tioga2_viewer::window_predicate(v, h),
            _ => None,
        });
        let span = t.begin("dataflow.demand");
        let demanded = match &window {
            Some(pred) => self
                .engine
                .demand_planned_opts(graph, node, 0, true, Some(pred))
                .and_then(|d| d.into_displayable().map_err(Into::into)),
            None => self.engine.demand_displayable(graph, node, 0),
        };
        t.end(span);
        let displayable = demanded.map_err(|e| err(&e))?;
        let examined = match &window {
            Some(pred) => self
                .engine
                .demand_analyzed(graph, node, 0, true, Some(pred))
                .map_err(|e| err(&e))?
                .1
                .map(|tr| (leaf_rows_in(&tr.root), tr.root.rows_out)),
            None => None,
        };

        match displayable {
            Displayable::G(g) => {
                let live = session.group_window_mut(canvas).map_err(|e| err(&e))?;
                let mut viewers = ViewerSet::new();
                for i in 0..g.members.len() {
                    viewers.insert(
                        live.viewers.get(&member_viewer_name(i)).map_err(|e| err(&e))?.clone(),
                    );
                }
                let gw = GroupWindow {
                    group: g,
                    viewers,
                    window: live.window,
                    size: live.size,
                    elevation_map_cursor: live.elevation_map_cursor,
                };
                let (fb, _) = t.time("viewer.group_render", || gw.render()).map_err(|e| err(&e))?;
                // Uncompared split of the group render into its member
                // compose and draw passes.
                let (mut items, mut rows) = (0, 0);
                for (i, member) in gw.group.members.iter().enumerate() {
                    let v = gw.viewers.get(&member_viewer_name(i)).map_err(|e| err(&e))?;
                    let scene =
                        t.time("viewer.compose", || v.scene(member)).map_err(|e| err(&e))?;
                    let mut sub = Framebuffer::new(v.size.0, v.size.1);
                    t.time("render.draw", || render_scene(&scene, &v.viewport(), &mut sub));
                    items += scene.len();
                    rows += member.layers.iter().map(|l| l.rel.len()).sum::<usize>();
                }
                Ok(Replayed { fb, group: true, items, rows, examined })
            }
            other => {
                let viewer = viewer.ok_or_else(|| format!("canvas '{canvas}' has no viewer"))?;
                // `Session::render` composes from a clone of the demanded
                // displayable; so does the replay.
                let composite = t
                    .time("display.into_composite", || other.clone().into_composite())
                    .map_err(|e| err(&e))?;
                let scene =
                    t.time("viewer.compose", || viewer.scene(&composite)).map_err(|e| err(&e))?;
                let mut fb = Framebuffer::new(viewer.size.0, viewer.size.1);
                t.time("render.draw", || render_scene(&scene, &viewer.viewport(), &mut fb));
                let rows = composite.layers.iter().map(|l| l.rel.len()).sum();
                Ok(Replayed { fb, group: false, items: scene.len(), rows, examined })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{self, Rng};
    use crate::inproc::{build_program, Scene};
    use tioga2_core::Environment;

    /// Render through the session, replay, and compare the pixels.
    fn assert_replay_matches(s: &mut Session, scene: Scene, node: NodeId, threads: usize) {
        let canvas = scene.canvas();
        let frame = s.render(canvas).unwrap();
        let mut replay = Replay::new(s.env.catalog.clone());
        replay.engine_mut().set_threads(threads);
        let r = replay.frame(&mut Tracer::default(), s, canvas, node).unwrap();
        assert!(r.fb == frame.fb, "{scene:?} replay differs at {threads} worker(s)");
        assert!(r.items > 0);
    }

    fn workers() -> [usize; 2] {
        [1, tioga2_relational::par::threads()]
    }

    #[test]
    fn replay_equals_session_render_on_a_windowed_scatter() {
        for threads in workers() {
            let catalog = gen::points_catalog(&gen::points(3_000, &mut Rng::new(5)));
            let mut s = Session::new(Environment::new(catalog));
            s.set_threads(threads);
            let node = build_program(Scene::Browse, &mut s).unwrap();
            s.zoom(Scene::Browse.canvas(), 6.0).unwrap();
            assert_replay_matches(&mut s, Scene::Browse, node, threads);
            s.pan(Scene::Browse.canvas(), 17, -9).unwrap();
            assert_replay_matches(&mut s, Scene::Browse, node, threads);
        }
    }

    #[test]
    fn replay_equals_session_render_on_a_group() {
        for threads in workers() {
            let catalog = gen::observations_catalog(1, 3650, &mut Rng::new(9));
            let mut s = Session::new(Environment::new(catalog));
            s.set_threads(threads);
            let node = build_program(Scene::Overview, &mut s).unwrap();
            assert_replay_matches(&mut s, Scene::Overview, node, threads);
            s.group_window_mut(Scene::Overview.canvas()).unwrap().pan_member(0, 12, 5).unwrap();
            assert_replay_matches(&mut s, Scene::Overview, node, threads);
        }
    }
}
