//! Rendering group displayables (paper §7.3–§7.4).
//!
//! "Groups can be displayed side-by-side, arranged vertically, or laid
//! out in a tabular fashion.  If the user performs a window operation on
//! one of the group members, such as moving the window on the screen or
//! iconifying it, then the same operation is performed on the other
//! members.  Zooming and panning is defined for each of the constituent
//! displays" — i.e. per-member focus, shared window state.

use crate::error::ViewError;
use crate::slaving::ViewerSet;
use crate::viewer::Viewer;
use tioga2_display::Group;
use tioga2_expr::Color;
use tioga2_render::{font, Framebuffer, HitIndex};

/// Pixel gap between group members.
const GUTTER: u32 = 4;
/// Pixel height reserved for the member caption.
const CAPTION_H: u32 = 12;

/// Shared window state: window operations on one member apply to all
/// (§7.3).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowState {
    pub iconified: bool,
    /// Screen position of the whole group window.
    pub origin: (i32, i32),
}

/// A group window: per-member viewers plus shared window state.
pub struct GroupWindow {
    pub group: Group,
    /// One viewer per member — "there is a separate focus for all
    /// components".  Stored in a [`ViewerSet`] so members can be slaved
    /// to one another (the Figure 10 date-range idiom).
    pub viewers: ViewerSet,
    pub window: WindowState,
    pub size: (u32, u32),
    /// Which member's elevation map is currently shown (§6.1: "a viewer
    /// shows an elevation map for only one member of the group at a
    /// time ... the user can explicitly cycle through all of the
    /// elevation maps").
    pub elevation_map_cursor: usize,
}

/// Name of the viewer attached to group member `i`.
pub fn member_viewer_name(i: usize) -> String {
    format!("member-{i}")
}

impl GroupWindow {
    /// Create a group window, fitting each member's viewer to its data.
    pub fn new(group: Group, width: u32, height: u32) -> Result<Self, ViewError> {
        let n = group.members.len();
        let (cols, rows) = group.layout.grid(n);
        let cell_w = (width.saturating_sub(GUTTER * (cols as u32 + 1)) / cols as u32).max(8);
        let cell_h = ((height.saturating_sub(GUTTER * (rows as u32 + 1)) / rows as u32)
            .saturating_sub(CAPTION_H))
        .max(8);
        let mut viewers = ViewerSet::new();
        for (i, member) in group.members.iter().enumerate() {
            let mut v = Viewer::new(member_viewer_name(i), cell_w, cell_h);
            v.fit(member)?;
            viewers.insert(v);
        }
        Ok(GroupWindow {
            group,
            viewers,
            window: WindowState::default(),
            size: (width, height),
            elevation_map_cursor: 0,
        })
    }

    /// Cycle the elevation map to the next member; returns the new
    /// member index.
    pub fn cycle_elevation_map(&mut self) -> usize {
        self.elevation_map_cursor = (self.elevation_map_cursor + 1) % self.group.members.len();
        self.elevation_map_cursor
    }

    /// The elevation map of the member the cursor points at, probed at
    /// that member's own elevation.
    pub fn current_elevation_map(
        &self,
    ) -> Result<Vec<tioga2_display::drilldown::ElevationBar>, ViewError> {
        let i = self.elevation_map_cursor.min(self.group.members.len() - 1);
        let viewer = self.viewers.get(&member_viewer_name(i))?;
        Ok(tioga2_display::drilldown::elevation_map(
            &self.group.members[i],
            viewer.position.elevation,
        ))
    }

    /// Screen rectangle (x, y, w, h) of member `i` within the group
    /// window.
    pub fn member_rect(&self, i: usize) -> (i32, i32, u32, u32) {
        let (cols, _) = self.group.layout.grid(self.group.members.len());
        let v = self.viewers.get(&member_viewer_name(i)).expect("member viewer");
        let col = i % cols;
        let row = i / cols;
        let x = GUTTER as i32 + col as i32 * (v.size.0 + GUTTER) as i32;
        let y = GUTTER as i32 + row as i32 * (v.size.1 + CAPTION_H + GUTTER) as i32;
        (x, y, v.size.0, v.size.1 + CAPTION_H)
    }

    /// A window operation applied to any member applies to the whole
    /// group (§7.3).
    pub fn iconify(&mut self) {
        self.window.iconified = true;
    }

    pub fn deiconify(&mut self) {
        self.window.iconified = false;
    }

    pub fn move_window(&mut self, x: i32, y: i32) {
        self.window.origin = (x, y);
    }

    /// Slave member `b` to member `a` (Figure 10: the precipitation
    /// display slaved to the temperature display's date range).
    pub fn slave_members(&mut self, a: usize, b: usize) -> Result<(), ViewError> {
        self.viewers.slave(&member_viewer_name(a), &member_viewer_name(b))
    }

    /// Pan one member (propagates to slaved members).
    pub fn pan_member(&mut self, i: usize, dx: i32, dy: i32) -> Result<(), ViewError> {
        self.viewers.pan_px(&member_viewer_name(i), dx, dy)
    }

    /// Zoom one member (propagates to slaved members).
    pub fn zoom_member(&mut self, i: usize, factor: f64) -> Result<(), ViewError> {
        self.viewers.zoom(&member_viewer_name(i), factor)
    }

    /// Render the whole group window.  Returns the framebuffer and one
    /// hit index per member (hit coordinates are member-local).
    pub fn render(&self) -> Result<(Framebuffer, Vec<HitIndex>), ViewError> {
        let mut fb = Framebuffer::new(self.size.0, self.size.1);
        if self.window.iconified {
            // An iconified window renders as a small title bar only.
            fb.fill_rect(0, 0, self.size.0 as i32 - 1, CAPTION_H as i32, Color::GRAY);
            return Ok((fb, Vec::new()));
        }
        let mut hits = Vec::with_capacity(self.group.members.len());
        for (i, member) in self.group.members.iter().enumerate() {
            let v = self.viewers.get(&member_viewer_name(i))?;
            let (x, y, w, h) = self.member_rect(i);
            // Members stay untraced until this path takes a recorder.
            let (sub, hit, _) = v.render(member, tioga2_obs::noop_ref())?;
            fb.blit(&sub, x, y + CAPTION_H as i32);
            fb.draw_rect(
                x - 1,
                y + CAPTION_H as i32 - 1,
                x + w as i32,
                y + h as i32,
                1,
                Color::GRAY,
            );
            let label = &self.group.labels[i];
            font::draw_text(&mut fb, x, y, label, Color::BLACK, 1);
            hits.push(hit);
        }
        Ok((fb, hits))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tioga2_display::attr_ops::set_attribute;
    use tioga2_display::compose::stitch;
    use tioga2_display::defaults::make_display_relation;
    use tioga2_display::{Composite, Layout};
    use tioga2_expr::{parse, ScalarType as T, Value};
    use tioga2_relational::relation::RelationBuilder;

    fn member(color: &str) -> Composite {
        let mut b = RelationBuilder::new().field("t", T::Float).field("v", T::Float);
        for i in 0..5 {
            b = b.row(vec![Value::Float(i as f64), Value::Float(i as f64 * 2.0)]);
        }
        let dr = make_display_relation(b.build().unwrap(), "m").unwrap();
        let dr = set_attribute(&dr, "x", T::Float, parse("t").unwrap()).unwrap();
        let dr = set_attribute(&dr, "y", T::Float, parse("v").unwrap()).unwrap();
        let dr = set_attribute(
            &dr,
            "display",
            T::DrawList,
            parse(&format!("circle(0.3,'{color}') ++ nodraw()")).unwrap(),
        )
        .unwrap();
        Composite::new(vec![dr]).unwrap()
    }

    fn window(layout: Layout) -> GroupWindow {
        let g = stitch(vec![member("red"), member("blue")], layout).unwrap();
        GroupWindow::new(g, 300, 200).unwrap()
    }

    #[test]
    fn members_render_in_their_cells() {
        let w = window(Layout::Horizontal);
        let (fb, hits) = w.render().unwrap();
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().all(|h| h.len() == 5));
        assert!(fb.count_color(Color::RED) > 0);
        assert!(fb.count_color(Color::BLUE) > 0);
        // Horizontal layout: red strictly left of blue.
        let (x0, _, w0, _) = w.member_rect(0);
        let (x1, _, _, _) = w.member_rect(1);
        assert!(x0 + (w0 as i32) <= x1);
    }

    #[test]
    fn vertical_and_tabular_layouts() {
        let wv = window(Layout::Vertical);
        let (_, _, _, h0) = wv.member_rect(0);
        let (_, y1, _, _) = wv.member_rect(1);
        assert!(y1 >= h0 as i32, "second member below the first");

        let g3 = stitch(
            vec![member("red"), member("blue"), member("green")],
            Layout::Tabular { cols: 2 },
        )
        .unwrap();
        let wt = GroupWindow::new(g3, 300, 300).unwrap();
        let (_, ya, _, _) = wt.member_rect(0);
        let (_, yc, _, _) = wt.member_rect(2);
        assert!(yc > ya, "third member wraps to the second row");
    }

    #[test]
    fn member_focus_independent_until_slaved() {
        let mut w = window(Layout::Horizontal);
        let before1 = w.viewers.get(&member_viewer_name(1)).unwrap().position.clone();
        w.pan_member(0, 20, 0).unwrap();
        assert_eq!(
            w.viewers.get(&member_viewer_name(1)).unwrap().position,
            before1,
            "independent focus"
        );
        // Figure 10: slave member 1 to member 0.
        w.slave_members(0, 1).unwrap();
        w.pan_member(0, 20, 0).unwrap();
        assert_ne!(w.viewers.get(&member_viewer_name(1)).unwrap().position, before1);
    }

    #[test]
    fn zoom_propagates_when_slaved() {
        let mut w = window(Layout::Horizontal);
        w.slave_members(0, 1).unwrap();
        let e_before = w.viewers.get(&member_viewer_name(1)).unwrap().position.elevation;
        w.zoom_member(0, 0.5).unwrap();
        let e_after = w.viewers.get(&member_viewer_name(1)).unwrap().position.elevation;
        assert!((e_after / e_before - 0.5).abs() < 1e-9);
    }

    #[test]
    fn window_ops_propagate_to_whole_group() {
        let mut w = window(Layout::Horizontal);
        w.iconify();
        assert!(w.window.iconified);
        let (fb, hits) = w.render().unwrap();
        assert!(hits.is_empty(), "iconified group renders no members");
        assert!(fb.count_color(Color::RED) == 0);
        w.deiconify();
        w.move_window(40, 50);
        assert_eq!(w.window.origin, (40, 50));
        let (_, hits) = w.render().unwrap();
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn elevation_map_cycles_through_members() {
        let mut w = window(Layout::Horizontal);
        assert_eq!(w.elevation_map_cursor, 0);
        let m0 = w.current_elevation_map().unwrap();
        assert_eq!(m0.len(), 1, "one layer per member here");
        assert_eq!(w.cycle_elevation_map(), 1);
        let m1 = w.current_elevation_map().unwrap();
        assert_eq!(m1.len(), 1);
        assert_eq!(w.cycle_elevation_map(), 0, "wraps around");
    }

    #[test]
    fn captions_drawn_from_labels() {
        let g = stitch(vec![member("red")], Layout::Horizontal)
            .unwrap()
            .with_labels(vec!["before 1990".into()])
            .unwrap();
        let w = GroupWindow::new(g, 200, 150).unwrap();
        let (fb, _) = w.render().unwrap();
        assert!(fb.count_color(Color::BLACK) > 20, "caption text pixels present");
    }
}
