//! Canvas windows: the screen half of a Viewer box.
//!
//! Each viewer in the program owns one canvas window (§3).  A canvas
//! renders whatever displayable its viewer box currently sees: relations
//! and composites through a single [`tioga2_viewer::Viewer`] (held in the
//! session's `ViewerSet` so canvases can be slaved), groups through a
//! [`GroupWindow`] with per-member focus.  Magnifying glasses attach per
//! canvas.

use crate::error::CoreError;
use tioga2_dataflow::NodeId;
use tioga2_display::Displayable;
use tioga2_obs::Recorder;
use tioga2_render::{Framebuffer, HitIndex, Scene};
use tioga2_viewer::group::GroupWindow;
use tioga2_viewer::magnifier::Magnifier;
use tioga2_viewer::slaving::ViewerSet;
use tioga2_viewer::Viewer;

/// One canvas window.
pub struct Canvas {
    /// The Viewer box this canvas belongs to.
    pub node: NodeId,
    /// Group window state, for canvases whose content is a `G`.
    pub group: Option<GroupWindow>,
    pub magnifiers: Vec<Magnifier>,
    /// Pixel size of the canvas.
    pub size: (u32, u32),
    /// Whether the viewer has been fitted to data at least once.
    pub fitted: bool,
}

/// What a canvas render produced.
pub struct CanvasFrame {
    pub fb: Framebuffer,
    /// Hit index for R/C canvases (canvas-global coordinates).
    pub hits: HitIndex,
    /// Per-member hit indices for group canvases (member-local).
    pub member_hits: Vec<HitIndex>,
    /// The scene behind `hits` (empty for group canvases).
    pub scene: Scene,
}

impl Canvas {
    pub fn new(node: NodeId, width: u32, height: u32) -> Self {
        Canvas { node, group: None, magnifiers: Vec::new(), size: (width, height), fitted: false }
    }

    /// Render `content` through this canvas, using `viewers` for the
    /// canvas's own pan/zoom state (looked up under `name`).  The canvas
    /// and each of its magnifying glasses draw through one recorded pass,
    /// traced in `rec`.
    pub fn render(
        &mut self,
        name: &str,
        content: &Displayable,
        viewers: &mut ViewerSet,
        rec: &dyn Recorder,
    ) -> Result<CanvasFrame, CoreError> {
        match content {
            Displayable::G(g) => {
                let rebuild = match &self.group {
                    Some(gw) => gw.group.members.len() != g.members.len(),
                    None => true,
                };
                if rebuild {
                    self.group = Some(GroupWindow::new(g.clone(), self.size.0, self.size.1)?);
                } else if let Some(gw) = &mut self.group {
                    gw.group = g.clone();
                }
                let gw = self.group.as_mut().expect("group window exists");
                let (fb, member_hits) = gw.render()?;
                Ok(CanvasFrame {
                    fb,
                    hits: HitIndex::default(),
                    member_hits,
                    scene: Scene::default(),
                })
            }
            other => {
                self.group = None;
                let composite = other.clone().into_composite()?;
                if viewers.get(name).is_err() {
                    viewers.insert(Viewer::new(name, self.size.0, self.size.1));
                }
                if !self.fitted {
                    viewers.get_mut(name)?.fit(&composite)?;
                    self.fitted = true;
                }
                let viewer = viewers.get(name)?.clone();
                let (mut fb, hits, scene) = viewer.render(&composite, rec)?;
                for m in &self.magnifiers {
                    m.render_into(&viewer, &composite, &mut fb, rec)?;
                }
                Ok(CanvasFrame { fb, hits, member_hits: Vec::new(), scene })
            }
        }
    }
}
