//! Integration tests for the Tioga-2 session: every operation group of
//! the paper exercised through the user-facing API.

use tioga2_core::{Environment, EvalMode, Session};
use tioga2_dataflow::boxes::RelOpKind;
use tioga2_dataflow::{BoxKind, PortType};
use tioga2_datagen::register_standard_catalog;
use tioga2_display::attr_ops::AttrRole;
use tioga2_display::compose::PartitionSpec;
use tioga2_display::{Displayable, Layout, Selection};
use tioga2_expr::{parse, Color, ScalarType as T};
use tioga2_obs::Recorder as _;
use tioga2_relational::Catalog;
use tioga2_viewer::magnifier::Magnifier;

fn session() -> Session {
    let catalog = Catalog::new();
    register_standard_catalog(&catalog, 120, 8, 42);
    Session::new(Environment::new(catalog))
}

/// The Figure 1 pipeline: Stations -> Restrict(LA) -> Project -> Viewer.
fn figure1(s: &mut Session) -> (tioga2_dataflow::NodeId, tioga2_dataflow::NodeId) {
    let t = s.add_table("Stations").unwrap();
    let r = s.restrict(t, "state = 'LA'").unwrap();
    let p = s.project(r, &["name", "longitude", "latitude", "altitude"]).unwrap();
    let v = s.add_viewer(p, "main").unwrap();
    (p, v)
}

#[test]
fn figure1_default_table_view() {
    let mut s = session();
    let (p, _) = figure1(&mut s);
    let d = s.demand(p, 0).unwrap();
    assert!(d.tuple_count() > 5, "Louisiana stations present");
    // Default display renders: the canvas shows ink.
    let frame = s.render("main").unwrap();
    assert!(frame.fb.ink_fraction() > 0.0);
    assert!(!frame.hits.is_empty());
    // The default display is an ASCII table: one text drawable per field.
    assert!(frame.scene.items.iter().all(|i| i.drawable.kind() == "text"));
}

#[test]
fn inspect_partial_results_on_any_edge() {
    // "The user can also inspect any of the partial results" (§4).
    let mut s = session();
    let t = s.add_table("Stations").unwrap();
    let r = s.restrict(t, "state = 'LA'").unwrap();
    let full = s.demand(t, 0).unwrap().tuple_count();
    let la = s.demand(r, 0).unwrap().tuple_count();
    assert!(full > la && la > 0);
    // Install a probe viewer on the existing edge.
    let probe = s.add_viewer_on_edge(r, 0, "probe").unwrap();
    assert_eq!(s.demand(probe, 0).unwrap().tuple_count(), full);
    let frame = s.render("probe").unwrap();
    assert!(frame.fb.ink_fraction() > 0.0);
}

#[test]
fn figure4_station_map() {
    let mut s = session();
    let t = s.add_table("Stations").unwrap();
    let r = s.restrict(t, "state = 'LA'").unwrap();
    let x = s.set_attribute(r, "x", T::Float, "longitude").unwrap();
    let y = s.set_attribute(x, "y", T::Float, "latitude").unwrap();
    let d = s
        .set_attribute(
            y,
            "display",
            T::DrawList,
            "circle(0.05,'red') ++ offset(text(name,'black'), 0.0, -0.08)",
        )
        .unwrap();
    let alt = s.add_attribute(d, "alt", T::Float, "altitude", AttrRole::Location).unwrap();
    s.add_viewer(alt, "map").unwrap();
    let frame = s.render("map").unwrap();
    assert!(frame.fb.count_color(Color::RED) > 0, "circles visible");
    assert!(frame.fb.count_color(Color::BLACK) > 0, "names visible");
    // The altitude slider exists and filters.
    let total = frame.hits.len();
    s.set_slider("map", "alt", -1.0, 0.5).unwrap();
    let filtered = s.render("map").unwrap().hits.len();
    assert!(filtered < total, "{filtered} < {total}");
}

#[test]
fn incremental_edit_replaces_predicate_cheaply() {
    let mut s = session();
    let t = s.add_table("Stations").unwrap();
    let r = s.restrict(t, "state = 'LA'").unwrap();
    s.add_viewer(r, "main").unwrap();
    let la = s.displayable("main").unwrap().tuple_count();
    let evals_before = s.engine_stats().box_evals;
    // Edit the predicate in place (direct manipulation of the box).
    s.update_box(
        r,
        BoxKind::RelOp {
            op: RelOpKind::Restrict(parse("state = 'TX'").unwrap()),
            shape: PortType::R,
            sel: Selection::default(),
        },
    )
    .unwrap();
    let tx = s.displayable("main").unwrap().tuple_count();
    assert_ne!(la, tx);
    // Only the restrict and the viewer re-fired, not the table.
    assert!(s.engine_stats().box_evals - evals_before <= 2);
}

#[test]
fn undo_redo_across_session_edits() {
    let mut s = session();
    let t = s.add_table("Stations").unwrap();
    let r = s.restrict(t, "state = 'LA'").unwrap();
    s.add_viewer(r, "main").unwrap();
    let n = s.graph.len();
    assert!(s.undo());
    assert_eq!(s.graph.len(), n - 1);
    assert!(s.canvas_names().is_empty(), "canvas disappears with its viewer box");
    assert!(s.redo());
    assert_eq!(s.graph.len(), n);
    assert_eq!(s.canvas_names(), vec!["main".to_string()]);
    // A failed edit does not pollute the undo stack.
    assert!(s.restrict(t, "no_such_attr = 1").is_err());
    assert_eq!(s.graph.len(), n, "rolled back");
}

#[test]
fn save_load_roundtrip_through_environment() {
    let mut s = session();
    figure1(&mut s);
    s.save_program("louisiana");
    let n = s.graph.len();
    s.new_program();
    assert_eq!(s.graph.len(), 0);
    assert!(s.canvas_names().is_empty());
    s.load_program("louisiana").unwrap();
    assert_eq!(s.graph.len(), n);
    assert_eq!(s.canvas_names(), vec!["main".to_string()]);
    // Add Program merges rather than replaces... but duplicate canvas
    // names collide on the same window, which the session tolerates by
    // pointing the canvas at the latest viewer box.
    s.add_program("louisiana").unwrap();
    assert_eq!(s.graph.len(), 2 * n);
}

#[test]
fn delete_and_replace_box_rules() {
    let mut s = session();
    let t = s.add_table("Stations").unwrap();
    let r = s.restrict(t, "state = 'LA'").unwrap();
    let v = s.add_viewer(r, "main").unwrap();
    // Splice out the restrict: viewer then sees the whole table.
    s.delete_box(r).unwrap();
    let full = s.displayable("main").unwrap().tuple_count();
    assert_eq!(full, 120);
    // Table has a connected output -> not deletable.
    assert!(s.delete_box(t).is_err());
    // Viewer deletable (no connected outputs) and its canvas goes away.
    s.delete_box(v).unwrap();
    assert!(s.canvas_names().is_empty());
}

#[test]
fn tee_and_switch_routing() {
    let mut s = session();
    let t = s.add_table("Stations").unwrap();
    let r = s.restrict(t, "state = 'LA'").unwrap();
    s.add_viewer(r, "main").unwrap();
    // T on the edge into restrict; probe both branches.
    let tee = s.add_tee(r, 0).unwrap();
    let sw = s.switch(tee, "state = 'LA'").unwrap();
    // Connect switch's second... switch already consumed tee output 0?
    // switch() appended to output 0; tee's output 1 is free:
    let hi = s.demand(sw, 0).unwrap().tuple_count();
    let lo = s.demand(sw, 1).unwrap().tuple_count();
    assert_eq!(hi + lo, 120);
    assert!(hi > 0 && lo > 0);
}

#[test]
fn apply_box_menu_matches_edges() {
    let mut s = session();
    let t = s.add_table("Stations").unwrap();
    let candidates = s.apply_box_candidates(&[(t, 0)]).unwrap();
    let names: Vec<&str> = candidates.iter().map(|c| c.name.as_str()).collect();
    assert!(names.contains(&"Restrict"));
    assert!(names.contains(&"Replicate"));
    let pair = s.apply_box_candidates(&[(t, 0), (t, 0)]).unwrap();
    assert!(pair.iter().any(|c| c.name == "Join"));
}

#[test]
fn join_stations_observations() {
    let mut s = session();
    let st = s.add_table("Stations").unwrap();
    let la = s.restrict(st, "state = 'LA'").unwrap();
    let obs = s.add_table("Observations").unwrap();
    let j = s.join(la, obs, "id = station_id").unwrap();
    let d = s.demand(j, 0).unwrap();
    let la_count = s.demand(la, 0).unwrap().tuple_count();
    assert_eq!(d.tuple_count(), la_count * 8, "8 observations per station");
}

#[test]
fn figure7_overlay_with_ranges_and_elevation_map() {
    let mut s = session();
    // Map layer from the border lines.
    let m = s.add_table("LaBorder").unwrap();
    let mx = s.set_attribute(m, "x", T::Float, "x1").unwrap();
    let my = s.set_attribute(mx, "y", T::Float, "y1").unwrap();
    let md = s
        .set_attribute(my, "display", T::DrawList, "line(x2 - x1, y2 - y1, 'gray') ++ nodraw()")
        .unwrap();
    let map = s.set_layer_name(md, "map").unwrap();

    // Stations with circles at high elevation, names at low.
    let t = s.add_table("Stations").unwrap();
    let la = s.restrict(t, "state = 'LA'").unwrap();
    let sx = s.set_attribute(la, "x", T::Float, "longitude").unwrap();
    let sy = s.set_attribute(sx, "y", T::Float, "latitude").unwrap();
    let tee = s.add_tee(sy, 0).unwrap();
    // tee used as input to two styling chains... first chain:
    let circles0 =
        s.set_attribute(tee, "display", T::DrawList, "circle(0.04,'red') ++ nodraw()").unwrap();
    let circles1 = s.set_layer_name(circles0, "circles").unwrap();
    let circles = s.set_range(circles1, 2.0, 1e9, Selection::default()).unwrap();

    let names0 = s
        .add_box(BoxKind::RelOp {
            op: RelOpKind::SetAttribute {
                name: "display".into(),
                ty: T::DrawList,
                def: parse("circle(0.04,'red') ++ offset(text(name,'black'), 0.0, -0.07)").unwrap(),
            },
            shape: PortType::R,
            sel: Selection::default(),
        })
        .unwrap();
    s.connect(tee, 1, names0, 0).unwrap();
    let names1 = s.set_layer_name(names0, "names").unwrap();
    let names = s.set_range(names1, 0.0, 2.0, Selection::default()).unwrap();

    // Overlay: map (2-D) under stations detail layers (dimension match
    // here, but use invariant mode as the paper's dialog would).
    let o1 = s.overlay(map, circles, vec![], true).unwrap();
    let o2 = s.overlay(o1, names, vec![], true).unwrap();
    s.add_viewer(o2, "atlas").unwrap();

    let frame = s.render("atlas").unwrap();
    assert!(frame.fb.count_color(Color::GRAY) > 0, "map lines visible");

    // Elevation map shows three layers with the right activity.
    let bars = s.elevation_map("atlas").unwrap();
    assert_eq!(bars.len(), 3);
    let by_name = |n: &str| bars.iter().find(|b| b.layer_name == n).unwrap();
    assert!(by_name("map").range.max.is_infinite());
    assert_eq!(by_name("circles").range.min, 2.0);
    assert_eq!(by_name("names").range.max, 2.0);

    // Drag the names bar on the elevation map: the program grows a Set
    // Range box on the canvas edge.
    let n_before = s.graph.len();
    s.set_range_via_map("atlas", 2, 0.0, 5.0).unwrap();
    assert_eq!(s.graph.len(), n_before + 1);
    let bars2 = s.elevation_map("atlas").unwrap();
    assert_eq!(bars2[2].range.max, 5.0);

    // Reorder via the elevation map, too.
    s.reorder_via_map("atlas", 2, 0).unwrap();
    let bars3 = s.elevation_map("atlas").unwrap();
    assert_eq!(bars3[0].layer_name, "names");
}

#[test]
fn figure8_wormholes_and_rear_view() {
    let mut s = session();
    // Destination canvas: temperature vs time.
    let obs = s.add_table("Observations").unwrap();
    let ox = s.set_attribute(obs, "x", T::Float, "to_float(epoch(time)) / 86400.0").unwrap();
    let oy = s.set_attribute(ox, "y", T::Float, "temperature").unwrap();
    let od = s.set_attribute(oy, "display", T::DrawList, "point('blue') ++ nodraw()").unwrap();
    s.add_viewer(od, "temps").unwrap();

    // Source canvas: one station with a wormhole to temps, plus an
    // underside layer for the mirror.
    let t = s.add_table("Stations").unwrap();
    let one = s.restrict(t, "id = 0").unwrap();
    let sx = s.set_attribute(one, "x", T::Float, "longitude").unwrap();
    let sy = s.set_attribute(sx, "y", T::Float, "latitude").unwrap();
    let tee = s.add_tee(sy, 0).unwrap();
    let wh = s
        .set_attribute(
            tee,
            "display",
            T::DrawList,
            "circle(0.05,'red') ++ viewer('temps', 50.0, 5500.0, 20.0, 0.4, 0.3)",
        )
        .unwrap();
    // Underside marker (negative range) overlaid on the same canvas.
    let under0 = s
        .add_box(BoxKind::RelOp {
            op: RelOpKind::SetAttribute {
                name: "display".into(),
                ty: T::DrawList,
                def: parse("rect(0.5,0.5,'green') ++ nodraw()").unwrap(),
            },
            shape: PortType::R,
            sel: Selection::default(),
        })
        .unwrap();
    s.connect(tee, 1, under0, 0).unwrap();
    let under = s.set_range(under0, -1e9, -0.001, Selection::default()).unwrap();
    let both = s.overlay(wh, under, vec![], true).unwrap();
    s.add_viewer(both, "stations").unwrap();

    // Zoom down onto the station: pass through.
    s.render("stations").unwrap();
    let mut dest = None;
    for _ in 0..80 {
        if let Some(d) = s.zoom("stations", 0.5).unwrap() {
            dest = Some(d);
            break;
        }
    }
    assert_eq!(dest.as_deref(), Some("temps"));
    assert_eq!(s.focus(), Some("temps"));
    assert_eq!(s.travel_depth(), 1);
    // Arrived at the spec position.
    let v = s.viewers.get("temps").unwrap();
    assert_eq!(v.position.center, (5500.0, 20.0));
    assert_eq!(v.position.elevation, 50.0);

    // Descend on temps; the rear view shows the stations underside.
    s.zoom("temps", 0.5).unwrap();
    let rear = s.rear_view_elevation().unwrap();
    assert!(rear < 0.0);
    let (fb, scene) = s.render_rear_view(120, 120).unwrap().unwrap();
    assert!(!scene.is_empty());
    assert!(fb.count_color(Color::GREEN) > 0, "underside marker in the mirror");

    // Go home.
    let home = s.go_back().unwrap();
    assert_eq!(home, "stations");
    assert_eq!(s.focus(), Some("stations"));
    assert_eq!(s.travel_depth(), 0);
}

#[test]
fn figure9_magnifier_with_alternative_display() {
    let mut s = session();
    let obs = s.add_table("Observations").unwrap();
    let ox = s.set_attribute(obs, "x", T::Float, "to_float(epoch(time)) / 86400.0").unwrap();
    let oy = s.set_attribute(ox, "y", T::Float, "temperature").unwrap();
    let od = s.set_attribute(oy, "display", T::DrawList, "circle(0.4,'red') ++ nodraw()").unwrap();
    let alt = s
        .add_attribute(od, "precip_view", T::Drawable, "rect(0.4,0.4,'blue')", AttrRole::Display)
        .unwrap();
    s.add_viewer(alt, "plot").unwrap();
    s.render("plot").unwrap();
    let m = Magnifier::new((200, 150, 160, 120), 2.0).unwrap().with_display("precip_view");
    s.add_magnifier("plot", m).unwrap();
    let frame = s.render("plot").unwrap();
    assert!(frame.fb.count_color(Color::BLUE) > 0, "lens shows the precip display");
    assert!(frame.fb.count_color(Color::RED) > 0, "outer still temperature");
    s.remove_magnifier("plot", 0).unwrap();
    assert!(s.remove_magnifier("plot", 0).is_err());
}

#[test]
fn figure10_stitch_with_slaved_members() {
    let mut s = session();
    let obs = s.add_table("Observations").unwrap();
    let x = s.set_attribute(obs, "x", T::Float, "to_float(epoch(time)) / 86400.0").unwrap();
    let tee = s.add_tee(x, 0).unwrap();
    let temp = s.set_attribute(tee, "y", T::Float, "temperature").unwrap();
    let precip0 = s
        .add_box(BoxKind::RelOp {
            op: RelOpKind::SetAttribute {
                name: "y".into(),
                ty: T::Float,
                def: parse("precipitation").unwrap(),
            },
            shape: PortType::R,
            sel: Selection::default(),
        })
        .unwrap();
    s.connect(tee, 1, precip0, 0).unwrap();
    let st = s.stitch(&[temp, precip0], Layout::Vertical).unwrap();
    s.add_viewer(st, "both").unwrap();
    let frame = s.render("both").unwrap();
    assert_eq!(frame.member_hits.len(), 2);
    // Slave the precipitation member to the temperature member; panning
    // the date range moves both.
    {
        let gw = s.group_window_mut("both").unwrap();
        gw.slave_members(0, 1).unwrap();
        let before =
            gw.viewers.get(&tioga2_viewer::group::member_viewer_name(1)).unwrap().position.clone();
        gw.pan_member(0, 40, 0).unwrap();
        let after =
            gw.viewers.get(&tioga2_viewer::group::member_viewer_name(1)).unwrap().position.clone();
        assert_ne!(before.center, after.center);
    }
    // Window ops propagate.
    s.group_window_mut("both").unwrap().iconify();
    let frame2 = s.render("both").unwrap();
    assert!(frame2.member_hits.is_empty());
}

#[test]
fn figure11_replicate_before_after_1990() {
    let mut s = session();
    let obs = s.add_table("Observations").unwrap();
    let x = s.set_attribute(obs, "x", T::Float, "to_float(epoch(time)) / 86400.0").unwrap();
    let y = s.set_attribute(x, "y", T::Float, "temperature").unwrap();
    let g = s
        .replicate(
            y,
            PartitionSpec::Predicates(vec![
                ("year < 1990".into(), parse("year(time) < 1990").unwrap()),
                ("year >= 1990".into(), parse("year(time) >= 1990").unwrap()),
            ]),
            None,
            Selection::default(),
        )
        .unwrap();
    s.add_viewer(g, "replicated").unwrap();
    match s.displayable("replicated").unwrap() {
        Displayable::G(group) => {
            assert_eq!(group.members.len(), 2);
            assert_eq!(group.labels[0], "year < 1990");
            let a = group.members[0].layers[0].rel.len();
            let b = group.members[1].layers[0].rel.len();
            assert_eq!(a + b, 120 * 8, "partition is exhaustive");
        }
        other => panic!("expected group, got {}", other.type_tag()),
    }
    let frame = s.render("replicated").unwrap();
    assert_eq!(frame.member_hits.len(), 2);
}

#[test]
fn section8_update_roundtrip() {
    let mut s = session();
    let t = s.add_table("Employees").unwrap();
    let v = s.add_viewer(t, "emps").unwrap();
    let _ = v;
    let frame = s.render("emps").unwrap();
    // Click the first visible screen object.
    let rec = frame.hits.records()[1].clone();
    let (cx, cy) = ((rec.bbox.0 + rec.bbox.2) / 2, (rec.bbox.1 + rec.bbox.3) / 2);
    let mut dialog = s.begin_update("emps", cx, cy).unwrap();
    assert_eq!(dialog.table, "Employees");
    let before_salary: i64 =
        dialog.fields.iter().find(|f| f.name == "salary").unwrap().original.parse().unwrap();
    dialog.set_field("salary", "9999").unwrap();
    assert!(dialog.set_field("no_such", "x").is_err());
    let row_id = dialog.row_id;
    dialog.commit(&mut s).unwrap();
    // Visible through the pipeline after invalidation.
    let snap = s.env.catalog.snapshot("Employees").unwrap();
    let updated = snap.tuples().iter().find(|t| t.row_id == row_id).unwrap();
    let idx = snap.schema().index_of("salary").unwrap();
    assert_eq!(updated.values()[idx], tioga2_expr::Value::Int(9999));
    assert_ne!(before_salary, 9999);
    // And the rendered canvas reflects it.
    let d = s.displayable("emps").unwrap();
    match d {
        Displayable::R(dr) => {
            let found = (0..dr.rel.len())
                .any(|i| dr.rel.attr_value(i, "salary").unwrap() == tioga2_expr::Value::Int(9999));
            assert!(found);
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn update_rejects_bad_field_text() {
    let mut s = session();
    s.add_table("Employees").and_then(|t| s.add_viewer(t, "emps")).unwrap();
    let frame = s.render("emps").unwrap();
    let rec = frame.hits.records()[0].clone();
    let (cx, cy) = ((rec.bbox.0 + rec.bbox.2) / 2, (rec.bbox.1 + rec.bbox.3) / 2);
    let mut dialog = s.begin_update("emps", cx, cy).unwrap();
    dialog.set_field("salary", "lots").unwrap();
    assert!(dialog.commit(&mut s).is_err());
}

#[test]
fn encapsulate_and_reuse_through_menu() {
    let mut s = session();
    let t = s.add_table("Stations").unwrap();
    let r = s.restrict(t, "state = 'LA'").unwrap();
    let p = s.project(r, &["name", "state", "altitude"]).unwrap();
    let def = s.encapsulate(&[r, p], &[], "LaPrep").unwrap();
    assert!(tioga2_core::menus::boxes_menu(&s).contains(&"LaPrep".to_string()));
    // Instantiate in a fresh program.
    s.new_program();
    let t2 = s.add_table("Stations").unwrap();
    let inst = def.instantiate(vec![]).unwrap();
    let e = s.add_box(inst).unwrap();
    s.connect(t2, 0, e, 0).unwrap();
    let d = s.demand(e, 0).unwrap();
    assert!(d.tuple_count() > 0);
    match d {
        Displayable::R(dr) => assert_eq!(dr.rel.schema().len(), 3),
        other => panic!("{other:?}"),
    }
}

#[test]
fn tioga1_eager_mode_recomputes_on_every_edit() {
    let mut s = session();
    s.set_mode(EvalMode::EagerTioga1);
    let t = s.add_table("Stations").unwrap();
    let r = s.restrict(t, "state = 'LA'").unwrap();
    let _ = s.restrict(r, "altitude > 1.0").unwrap();
    // 1 + 2 + 3 box evaluations across the three edits.
    assert_eq!(s.eager_evals, 6);
    s.set_mode(EvalMode::Lazy);
    assert_eq!(s.mode(), EvalMode::Lazy);
}

#[test]
fn slaved_canvases_pan_together() {
    let mut s = session();
    let t = s.add_table("Stations").unwrap();
    let tee = s.add_tee_root(t);
    // Two viewers on the same data.
    let v1 = s.add_viewer(tee.0, "left").unwrap();
    let _ = v1;
    s.add_viewer_second(tee, "right");
    s.render("left").unwrap();
    s.render("right").unwrap();
    s.slave("left", "right").unwrap();
    let before = s.viewers.get("right").unwrap().position.center;
    s.pan("left", 30, 0).unwrap();
    let after = s.viewers.get("right").unwrap().position.center;
    assert_ne!(before, after);
    s.unslave("left", "right").unwrap();
    let frozen = s.viewers.get("right").unwrap().position.center;
    s.pan("left", 30, 0).unwrap();
    assert_eq!(s.viewers.get("right").unwrap().position.center, frozen);
}

// Helper trait impls used by the slaving test: a T directly after a
// table so two viewers can watch the same output.
trait TeeRoot {
    fn add_tee_root(&mut self, t: tioga2_dataflow::NodeId) -> (tioga2_dataflow::NodeId, usize);
    fn add_viewer_second(&mut self, from: (tioga2_dataflow::NodeId, usize), name: &str);
}

impl TeeRoot for Session {
    fn add_tee_root(&mut self, t: tioga2_dataflow::NodeId) -> (tioga2_dataflow::NodeId, usize) {
        let tee = self.add_box(BoxKind::Tee(PortType::R)).unwrap();
        self.connect(t, 0, tee, 0).unwrap();
        (tee, 1)
    }

    fn add_viewer_second(&mut self, from: (tioga2_dataflow::NodeId, usize), name: &str) {
        let v = self.add_box(BoxKind::Viewer { canvas: name.into(), ty: PortType::R }).unwrap();
        self.connect(from.0, from.1, v, 0).unwrap();
    }
}

#[test]
fn menus_reflect_catalog_and_registry() {
    let s = session();
    let tables = tioga2_core::menus::tables_menu(&s);
    for t in ["Stations", "Observations", "LaBorder", "Employees"] {
        assert!(tables.contains(&t.to_string()));
    }
    assert!(tioga2_core::menus::help("Overlay").is_some());
}

#[test]
fn aggregate_distinct_limit_rename_through_session() {
    use tioga2_relational::{AggFunc, AggSpec};
    let mut s = session();
    let obs = s.add_table("Observations").unwrap();
    // Per-station temperature statistics.
    let agg = s
        .aggregate(
            obs,
            &["station_id"],
            vec![
                AggSpec::count("n"),
                AggSpec::of(AggFunc::Avg, "temperature", "mean_temp"),
                AggSpec::of(AggFunc::Max, "precipitation", "max_precip"),
            ],
        )
        .unwrap();
    match s.demand(agg, 0).unwrap() {
        Displayable::R(dr) => {
            assert_eq!(dr.rel.len(), 120, "one group per station");
            assert_eq!(dr.rel.schema().len(), 4);
            dr.validate().unwrap();
            // Every group counted all 8 observations.
            for seq in 0..dr.rel.len() {
                assert_eq!(dr.rel.attr_value(seq, "n").unwrap(), tioga2_expr::Value::Int(8));
            }
        }
        other => panic!("{other:?}"),
    }
    // Chain: rename, distinct, limit, and a viewer at the end.
    let renamed = s.rename_field(agg, "mean_temp", "avg_temperature").unwrap();
    let lim = s.limit(renamed, 10, 25).unwrap();
    s.add_viewer(lim, "stats").unwrap();
    let d = s.displayable("stats").unwrap();
    assert_eq!(d.tuple_count(), 25);

    let st = s.add_table("Stations").unwrap();
    let states = s.distinct(st, &["state"]).unwrap();
    let n_states = s.demand(states, 0).unwrap().tuple_count();
    assert!(n_states > 5 && n_states < 120, "{n_states} distinct states");

    // New ops persist through save/load.
    s.save_program("stats-program");
    let before = s.graph.clone();
    s.load_program("stats-program").unwrap();
    assert_eq!(s.graph.len(), before.len());
    assert_eq!(s.displayable("stats").unwrap().tuple_count(), 25);

    // Bad aggregates are rejected atomically.
    let n = s.graph.len();
    assert!(s.aggregate(st, &["nope"], vec![AggSpec::count("n")]).is_err());
    assert_eq!(s.graph.len(), n);
}

#[test]
fn group_elevation_map_cycles_and_canvas_clones() {
    let mut s = session();
    let t = s.add_table("Stations").unwrap();
    let la = s.restrict(t, "state = 'LA'").unwrap();
    // A 3-member replicated group.
    let g = s
        .replicate(la, PartitionSpec::Enumerate("state".into()), None, Selection::default())
        .unwrap();
    s.add_viewer(g, "grp").unwrap();
    // Only one member's elevation map is visible; cycling walks members.
    let m0 = s.elevation_map("grp").unwrap();
    assert_eq!(m0.len(), 1);
    let next = s.cycle_elevation_map("grp").unwrap();
    assert_eq!(next, 0, "single-state enumerate wraps to itself");

    // Clone a plain canvas: shares the edge, copies the position.
    let v = s.add_viewer(la, "orig").unwrap();
    let _ = v;
    s.render("orig").unwrap();
    s.pan("orig", 25, -10).unwrap();
    let pos = s.viewers.get("orig").unwrap().position.clone();
    s.clone_canvas("orig", "copy").unwrap();
    assert_eq!(s.viewers.get("copy").unwrap().position, pos);
    assert_eq!(
        s.displayable("copy").unwrap().tuple_count(),
        s.displayable("orig").unwrap().tuple_count()
    );
    // Clones move independently unless slaved.
    s.pan("copy", 10, 0).unwrap();
    assert_ne!(s.viewers.get("copy").unwrap().position, s.viewers.get("orig").unwrap().position);
    assert!(s.clone_canvas("orig", "copy").is_err(), "name collision rejected");
}

#[test]
fn runtime_parameters_twiddle_interactively() {
    use tioga2_expr::Value;
    let mut s = session();
    let t = s.add_table("Stations").unwrap();
    let cutoff = s.add_const(Value::Float(100.0)).unwrap();
    let which = s.add_const(Value::Text("LA".into())).unwrap();
    let r = s
        .restrict_with_params(
            t,
            "altitude > cutoff AND state = which",
            &[("cutoff", cutoff), ("which", which)],
        )
        .unwrap();
    s.add_viewer(r, "main").unwrap();
    let high_la = s.displayable("main").unwrap().tuple_count();
    assert!(high_la > 0);

    // Twiddle the cutoff: only the restrict cone re-fires.
    let evals = s.engine_stats().box_evals;
    s.set_const(cutoff, Value::Float(0.0)).unwrap();
    let all_la = s.displayable("main").unwrap().tuple_count();
    assert!(all_la > high_la, "{all_la} > {high_la}");
    assert!(s.engine_stats().box_evals - evals <= 3, "const + restrict + viewer only");

    // Type-changing const edits are rejected (signature change).
    assert!(s.set_const(cutoff, Value::Text("oops".into())).is_err());
    // Drawable constants rejected outright.
    assert!(s
        .add_const(Value::Drawable(Box::new(tioga2_expr::Drawable::point(Color::RED))))
        .is_err());
    // Program with parameters persists and reloads.
    s.save_program("params");
    s.load_program("params").unwrap();
    assert_eq!(s.displayable("main").unwrap().tuple_count(), all_la);
}

#[test]
fn update_through_group_member_canvas() {
    let mut s = session();
    let t = s.add_table("Employees").unwrap();
    let g = s
        .replicate(t, PartitionSpec::Enumerate("department".into()), None, Selection::default())
        .unwrap();
    s.add_viewer(g, "byteam").unwrap();
    let frame = s.render("byteam").unwrap();
    let member = 0;
    let rec = frame.member_hits[member].records()[1].clone();
    let (cx, cy) = ((rec.bbox.0 + rec.bbox.2) / 2, (rec.bbox.1 + rec.bbox.3) / 2);
    let hit = s.click_member("byteam", member, cx, cy).unwrap().unwrap();
    assert_eq!(hit.provenance.source.as_deref(), Some("Employees"));
    let mut dialog = s.begin_update_member("byteam", member, cx, cy).unwrap();
    dialog.set_field("salary", "7777").unwrap();
    let row = dialog.row_id;
    dialog.commit(&mut s).unwrap();
    let snap = s.env.catalog.snapshot("Employees").unwrap();
    let idx = snap.schema().index_of("salary").unwrap();
    let updated = snap.tuples().iter().find(|t| t.row_id == row).unwrap();
    assert_eq!(updated.values()[idx], tioga2_expr::Value::Int(7777));
    assert!(s.click_member("byteam", 99, 0, 0).is_err());
}

#[test]
fn zoomed_render_pushes_window_into_plan() {
    // A table with *stored* numeric x/y: positions do not depend on
    // __seq, so the viewer's window is expressible as a predicate and
    // the render path may demand through the plan layer.
    let catalog = Catalog::new();
    let mut b = tioga2_relational::relation::RelationBuilder::new()
        .field("name", T::Text)
        .field("x", T::Float)
        .field("y", T::Float);
    for i in 0..100 {
        b = b.row(vec![
            tioga2_expr::Value::Text(format!("p{i}")),
            tioga2_expr::Value::Float(i as f64),
            tioga2_expr::Value::Float(i as f64),
        ]);
    }
    catalog.register("Pts", b.build().unwrap());
    let mut s = Session::new(Environment::new(catalog));
    let rec = std::sync::Arc::new(tioga2_obs::InMemoryRecorder::new());
    s.set_recorder(rec.clone());

    let t = s.add_table("Pts").unwrap();
    let r = s.restrict(t, "x >= 0.0").unwrap();
    s.add_viewer(r, "main").unwrap();

    // First render fits the canvas (full demand, no window yet).
    let full = s.render("main").unwrap();
    assert_eq!(
        full.scene
            .items
            .iter()
            .map(|i| i.provenance.row_id)
            .collect::<std::collections::BTreeSet<_>>()
            .len(),
        100
    );

    // Zoom in hard: most tuples fall outside the window + margin.
    s.zoom("main", 0.05).unwrap();
    let zoomed = s.render("main").unwrap();
    let zoomed_rows: std::collections::BTreeSet<u64> =
        zoomed.scene.items.iter().map(|i| i.provenance.row_id).collect();
    assert!(!zoomed_rows.is_empty());
    assert!(zoomed_rows.len() < 100, "zoomed window must cull most rows");

    // The plan layer actually carried the demand: its executor span ran
    // and the synthesized window restrict fused with the box's own.
    assert!(rec.completed_spans().iter().any(|sp| sp.name == "plan.execute"));
    assert!(rec.counters().get("plan.rewrite.fuse_restricts").copied().unwrap_or(0) >= 1);

    // Equivalence: the windowed render shows exactly what an unwindowed
    // compose of the full relation shows.
    let full_rows: std::collections::BTreeSet<u64> =
        full.scene.items.iter().map(|i| i.provenance.row_id).collect();
    assert!(zoomed_rows.is_subset(&full_rows));
}

#[test]
fn explain_analyze_renders_attributed_tree() {
    let mut s = session();
    let (p, _) = figure1(&mut s);
    let report = s.explain_analyze(p, 0).unwrap();
    assert!(report.contains("demand #"), "{report}");
    assert!(report.contains("Restrict"), "{report}");
    assert!(report.contains("Source"), "{report}");
    assert!(report.contains("rows"), "{report}");
    assert!(report.contains('%'), "{report}");
    assert!(report.contains("plan cache"), "{report}");
    // The analyzed demand landed in the trace ring.
    assert_eq!(s.demand_traces().len(), 1);

    // A bare table box has no relational chain to attribute.
    let t = s.add_table("Stations").unwrap();
    let report = s.explain_analyze(t, 0).unwrap();
    assert!(report.contains("no relational chain"), "{report}");
}

#[test]
fn explain_analyze_on_fitted_canvas_shows_the_window_restrict() {
    // Same setup as zoomed_render_pushes_window_into_plan: stored x/y so
    // the viewer window is expressible as a predicate.
    let catalog = Catalog::new();
    let mut b = tioga2_relational::relation::RelationBuilder::new()
        .field("name", T::Text)
        .field("x", T::Float)
        .field("y", T::Float);
    for i in 0..100 {
        b = b.row(vec![
            tioga2_expr::Value::Text(format!("p{i}")),
            tioga2_expr::Value::Float(i as f64),
            tioga2_expr::Value::Float(i as f64),
        ]);
    }
    catalog.register("Pts", b.build().unwrap());
    let mut s = Session::new(Environment::new(catalog));
    let t = s.add_table("Pts").unwrap();
    let r = s.restrict(t, "x >= 0.0").unwrap();
    let v = s.add_viewer(r, "main").unwrap();
    s.render("main").unwrap();
    s.zoom("main", 0.05).unwrap();
    // Analyzing the viewer's output uses the render's window pushdown;
    // the fused restrict is visible with rewritten provenance.
    let report = s.explain_analyze(v, 0).unwrap();
    assert!(report.contains("[rewritten]") || report.contains("[window]"), "{report}");
}

#[test]
fn sys_tables_are_ordinary_demandable_relations() {
    let mut s = session();
    s.set_recorder(std::sync::Arc::new(tioga2_obs::InMemoryRecorder::new()));
    let (p, _) = figure1(&mut s);
    s.render("main").unwrap();
    s.explain_analyze(p, 0).unwrap();

    let registered = s.refresh_sys_tables().unwrap();
    assert_eq!(registered, Session::SYS_TABLES.to_vec());
    for name in Session::SYS_TABLES {
        assert!(s.env.catalog.contains(name), "missing {name}");
    }

    // sys.counters carries the engine's own counters.
    let counters = s.env.catalog.snapshot("sys.counters").unwrap();
    let names: Vec<String> = (0..counters.len())
        .map(|i| match counters.attr_value(i, "name").unwrap() {
            tioga2_expr::Value::Text(t) => t,
            other => panic!("{other:?}"),
        })
        .collect();
    assert!(names.iter().any(|n| n == "engine.box_evals"), "{names:?}");

    // sys.demands is demandable and restrictable like any relation:
    // exactly one depth-0 tuple per recorded trace.
    let traces = s.demand_traces().len();
    assert!(traces >= 1);
    let t = s.add_table("sys.demands").unwrap();
    let roots = s.restrict(t, "depth = 0").unwrap();
    assert_eq!(s.demand(roots, 0).unwrap().tuple_count(), traces);
    let all = s.demand(t, 0).unwrap().tuple_count();
    assert!(all > traces, "per-operator tuples present");
}

#[test]
fn tuple_edit_propagates_as_delta_not_invalidation() {
    // PR 8 regression: `install_update` must never reach
    // `invalidate_all`.  A cached plan over an *unrelated* table
    // survives a tuple edit untouched (still a cache hit, no box
    // refires), and the edited table's own chain is patched in place —
    // the re-demand reflects the new value with `plan.delta.applied`
    // counted and zero plan-level recomputation.
    let mut s = session();
    let rec = std::sync::Arc::new(tioga2_obs::InMemoryRecorder::new());
    s.set_recorder(rec.clone());

    // Unrelated pipeline over Stations.
    let t1 = s.add_table("Stations").unwrap();
    let r1 = s.restrict(t1, "state = 'LA'").unwrap();
    let unrelated_before = s.demand(r1, 0).unwrap().tuple_count();

    // Edited pipeline over Employees (a pure restrict chain: patchable).
    let t2 = s.add_table("Employees").unwrap();
    let r2 = s.restrict(t2, "salary >= 0").unwrap();
    s.demand(r2, 0).unwrap();
    s.add_viewer(t2, "emps").unwrap();
    let frame = s.render("emps").unwrap();

    // Warm-cache baselines.
    let hits_before = rec.counter("plan.cache_hits").unwrap_or(0);
    s.demand(r1, 0).unwrap();
    assert_eq!(rec.counter("plan.cache_hits"), Some(hits_before + 1), "warm");
    let evals_before = s.engine_stats().box_evals;

    // Commit a field edit through the §8 dialog.
    let hit = frame.hits.records()[1].clone();
    let (cx, cy) = ((hit.bbox.0 + hit.bbox.2) / 2, (hit.bbox.1 + hit.bbox.3) / 2);
    let mut dialog = s.begin_update("emps", cx, cy).unwrap();
    let row_id = dialog.row_id;
    dialog.set_field("salary", "123456").unwrap();
    dialog.commit(&mut s).unwrap();

    // The delta was applied, not a flush: no full invalidation event,
    // and at least the Table boundary + restrict chain were patched.
    assert!(rec.counter("plan.delta.applied").unwrap_or(0) >= 2, "patched entries");
    let hits_mid = rec.counter("plan.cache_hits").unwrap_or(0);

    // Unrelated chain: still answered from the plan cache, no refires.
    assert_eq!(s.demand(r1, 0).unwrap().tuple_count(), unrelated_before);
    assert_eq!(rec.counter("plan.cache_hits"), Some(hits_mid + 1), "unrelated survives");
    assert_eq!(s.engine_stats().box_evals, evals_before, "no box refired");

    // Edited chain: the patched cache answers with the new value.
    let d = s.demand(r2, 0).unwrap();
    assert_eq!(rec.counter("plan.cache_hits"), Some(hits_mid + 2), "edited chain patched");
    match d {
        Displayable::R(dr) => {
            let i = (0..dr.rel.len())
                .find(|&i| dr.rel.tuples()[i].row_id == row_id)
                .expect("edited row visible");
            assert_eq!(dr.rel.attr_value(i, "salary").unwrap(), tioga2_expr::Value::Int(123456));
        }
        other => panic!("{other:?}"),
    }
}

/// A 40×40 grid of stored `Points(x, y)` (spacing 2.5) → Restrict →
/// Viewer `grid`, fitted and then zoomed in tenfold, under `mode`.
fn zoomed_grid(mode: EvalMode) -> Session {
    use tioga2_expr::Value;
    let catalog = Catalog::new();
    let mut b = tioga2_relational::relation::RelationBuilder::new()
        .field("x", T::Float)
        .field("y", T::Float);
    for i in 0..40 {
        for j in 0..40 {
            b = b.row(vec![Value::Float(i as f64 * 2.5), Value::Float(j as f64 * 2.5)]);
        }
    }
    catalog.register("Points", b.build().unwrap());
    let mut s = Session::new(Environment::new(catalog));
    s.set_mode(mode);
    let t = s.add_table("Points").unwrap();
    let r = s.restrict(t, "x >= 0.0").unwrap();
    s.add_viewer(r, "grid").unwrap();
    s.render("grid").unwrap();
    s.zoom("grid", 0.1).unwrap();
    s
}

/// Non-background pixels strictly inside a lens's 2-pixel frame.
fn lens_ink(fb: &tioga2_render::Framebuffer, (x, y, w, h): (i32, i32, u32, u32)) -> usize {
    let (x1, y1) = (x + w as i32 - 2, y + h as i32 - 2);
    (y + 2..y1)
        .flat_map(|py| (x + 2..x1).map(move |px| (px, py)))
        .filter(|&(px, py)| fb.get(px, py) != Some([255, 255, 255, 255]))
        .count()
}

#[test]
fn lenses_draw_rows_outside_the_outer_window() {
    // The outer view is zoomed onto the grid's middle; one lens looks at
    // a corner the outer window excludes, the other shrinks (zoom 0.1)
    // and so sees far past the outer window.  The window pushdown must
    // not starve either lens: the lazy frame equals the eager one.
    let lenses = [
        Magnifier::new((20, 20, 120, 90), 2.0).unwrap().unslaved_at((5.0, 5.0)),
        Magnifier::new((400, 300, 160, 120), 0.1).unwrap(),
    ];
    for lens in lenses {
        let [lazy, eager] = [EvalMode::Lazy, EvalMode::EagerTioga1].map(|mode| {
            let mut s = zoomed_grid(mode);
            s.add_magnifier("grid", lens.clone()).unwrap();
            s.render("grid").unwrap().fb
        });
        assert!(lens_ink(&eager, lens.rect_px) > 0, "the lens sees grid points");
        assert_eq!(lens_ink(&lazy, lens.rect_px), lens_ink(&eager, lens.rect_px));
        assert!(lazy == eager, "lazy frame differs from the eager frame");
    }
}

/// Two canvases for wormhole travel (§6.2, §6.3): `stations` shows one
/// spot at the origin carrying a wormhole to `temps` (visible only up to
/// elevation 20) over an underside layer `under` that only a rear view
/// mirror sees; `temps` is a plain five-point plot.  The user starts on
/// `stations`, centered on the spot at elevation 10.
fn travel_world() -> Session {
    use tioga2_expr::Value;
    use tioga2_relational::relation::RelationBuilder;
    let catalog = Catalog::new();
    let spot = RelationBuilder::new().field("x", T::Float).field("y", T::Float);
    catalog.register("Spot", spot.row(vec![Value::Float(0.0), Value::Float(0.0)]).build().unwrap());
    let mut temps = RelationBuilder::new().field("x", T::Float).field("y", T::Float);
    for i in 0..5 {
        temps = temps.row(vec![Value::Float(i as f64), Value::Float(20.0 + i as f64)]);
    }
    catalog.register("Temps", temps.build().unwrap());
    let mut s = Session::new(Environment::new(catalog));

    let t = s.add_table("Temps").unwrap();
    s.add_viewer(t, "temps").unwrap();
    let a = s.add_table("Spot").unwrap();
    let wh = s
        .set_attribute(
            a,
            "display",
            T::DrawList,
            "circle(1.0,'red') ++ viewer('temps', 80.0, 5.0, 3.0, 6.0, 4.0)",
        )
        .unwrap();
    let wh = s.set_range(wh, 0.0, 20.0, Selection::default()).unwrap();
    let b = s.add_table("Spot").unwrap();
    let under = s.set_attribute(b, "display", T::DrawList, "rect(4.0,4.0,'blue') ++ nodraw()");
    let under = s.set_range(under.unwrap(), -1e6, -0.0001, Selection::default()).unwrap();
    let under = s.set_layer_name(under, "under").unwrap();
    let both = s.overlay(wh, under, vec![], true).unwrap();
    s.add_viewer(both, "stations").unwrap();
    s.render("stations").unwrap();
    s.set_focus("stations").unwrap();
    let v = s.viewers.get_mut("stations").unwrap();
    v.position.center = (0.0, 0.0);
    v.position.elevation = 10.0;
    s
}

#[test]
fn wormhole_is_range_culled_at_high_elevation() {
    let mut s = travel_world();
    let spec = s.wormhole_under_center("stations").unwrap().expect("wormhole under the center");
    assert_eq!(spec.destination, "temps");
    s.viewers.get_mut("stations").unwrap().position.elevation = 100.0;
    assert!(s.wormhole_under_center("stations").unwrap().is_none());
}

#[test]
fn zooming_to_ground_without_a_wormhole_clamps() {
    use tioga2_core::session::PASS_THROUGH_ELEVATION;
    let mut s = travel_world();
    s.viewers.get_mut("stations").unwrap().position.center = (500.0, 500.0);
    for _ in 0..80 {
        assert_eq!(s.zoom("stations", 0.5).unwrap(), None);
    }
    assert_eq!(s.viewers.get("stations").unwrap().position.elevation, PASS_THROUGH_ELEVATION);
    assert_eq!(s.focus(), Some("stations"), "no travel happened");
    assert_eq!(s.travel_depth(), 0);
}

#[test]
fn rear_view_shows_only_the_underside_layer() {
    let mut s = travel_world();
    let spec = s.wormhole_under_center("stations").unwrap().unwrap();
    s.traverse("stations", &spec).unwrap();
    // Descend the new canvas: the rear view elevation goes negative.
    s.viewers.get_mut("temps").unwrap().position.elevation = 40.0;
    assert_eq!(s.rear_view_elevation(), Some(40.0 - 80.0));
    let (fb, scene) = s.render_rear_view(100, 100).unwrap().unwrap();
    assert_eq!(scene.len(), 1, "only the underside layer appears");
    assert_eq!(scene.items[0].provenance.layer, "under");
    assert!(fb.count_color(Color::BLUE) > 0);
}

#[test]
fn no_rear_view_before_travel() {
    let mut s = travel_world();
    assert!(s.render_rear_view(50, 50).unwrap().is_none());
    assert_eq!(s.rear_view_elevation(), None);
}

#[test]
fn go_back_restores_the_exact_position() {
    let mut s = travel_world();
    let before = s.viewers.get("stations").unwrap().position.clone();
    let spec = s.wormhole_under_center("stations").unwrap().unwrap();
    s.traverse("stations", &spec).unwrap();
    s.viewers.get_mut("stations").unwrap().position.center = (99.0, 99.0);
    s.viewers.get_mut("temps").unwrap().position.center = (99.0, 99.0);
    assert_eq!(s.go_back().unwrap(), "stations");
    let after = &s.viewers.get("stations").unwrap().position;
    assert_eq!(after.center, before.center);
    assert_eq!(after.elevation, before.elevation);
    assert!(s.go_back().is_err(), "history exhausted");
}

#[test]
fn two_hop_travel_unwinds_last_in_first_out() {
    let mut s = travel_world();
    let spec = s.wormhole_under_center("stations").unwrap().unwrap();
    s.traverse("stations", &spec).unwrap();
    let back = tioga2_expr::ViewerSpec {
        destination: "stations".into(),
        elevation: 30.0,
        at: (0.0, 0.0),
        size: (5.0, 5.0),
    };
    s.traverse("temps", &back).unwrap();
    assert_eq!(s.travel_depth(), 2);
    assert_eq!(s.focus(), Some("stations"));
    assert_eq!(s.go_back().unwrap(), "temps");
    assert_eq!(s.go_back().unwrap(), "stations");
    assert_eq!(s.travel_depth(), 0);
}

#[test]
fn traverse_to_a_non_canvas_fails_cleanly() {
    let mut s = travel_world();
    let spec = s.wormhole_under_center("stations").unwrap().unwrap();
    s.traverse("stations", &spec).unwrap();
    let nowhere = tioga2_expr::ViewerSpec {
        destination: "nope".into(),
        elevation: 10.0,
        at: (0.0, 0.0),
        size: (1.0, 1.0),
    };
    assert!(s.traverse("temps", &nowhere).is_err());
    assert_eq!(s.focus(), Some("temps"));
    assert_eq!(s.travel_depth(), 1, "a failed traversal leaves no history");
}
