//! The window index (DESIGN.md §7, "Window index"): a windowed Restrict
//! over a stored-column source reads only a grid index's candidate rows.
//!
//! * Oracle: for random tables (Null / NaN / infinite keys, duplicate
//!   points, zero-extent columns) and random windows (partly or wholly
//!   outside the data, empty, location offsets, slider conjuncts) the
//!   planned demand is byte-identical to the naive one at 1, 2 and 8
//!   workers, and the `plan.window_index.*` counters show the index path
//!   ran.
//! * Stale-index regressions: an update that moves a row across grid
//!   cells shows in the next panned frame exactly as a cold session draws
//!   it, and catalog forks share one index until one of them edits.

use proptest::prelude::*;
use std::sync::Arc;
use tioga2::core::{Environment, Session};
use tioga2::dataflow::boxes::{BoxKind, RelOpKind};
use tioga2::dataflow::{Engine, Graph, NodeId};
use tioga2::display::Displayable;
use tioga2::expr::{BinOp, Expr, ScalarType, Value};
use tioga2::obs::{InMemoryRecorder, Recorder};
use tioga2::relational::relation::RelationBuilder;
use tioga2::relational::update::{install_update, FieldChange};
use tioga2::relational::{Catalog, Relation};

/// A location key: mostly finite (a third snapped to a coarse lattice so
/// points repeat), sometimes Null, NaN or infinite.
fn key() -> impl Strategy<Value = Value> {
    (0u8..40, -100.0f64..100.0).prop_map(|(tag, f)| match tag {
        0 => Value::Null,
        1 => Value::Float(f64::NAN),
        2 => Value::Float(if f < 0.0 { f64::NEG_INFINITY } else { f64::INFINITY }),
        3..=15 => Value::Float((f / 10.0).round() * 10.0),
        _ => Value::Float((f * 10.0).round() / 10.0),
    })
}

/// `T(x, y, d)`; with `flat`, every finite `x` is the same value (a
/// zero-extent column).  Two anchor rows keep `y`'s extent non-zero.
fn arb_table() -> impl Strategy<Value = Relation> {
    (proptest::collection::vec((key(), key(), -100.0f64..100.0), 64..300), any::<bool>()).prop_map(
        |(rows, flat)| {
            let mut b = RelationBuilder::new()
                .field("x", ScalarType::Float)
                .field("y", ScalarType::Float)
                .field("d", ScalarType::Float);
            let anchors = [(0.0, -100.0, 0.0), (0.0, 100.0, 0.0)]
                .map(|(x, y, d)| (Value::Float(x), Value::Float(y), d));
            for (x, y, d) in anchors.into_iter().chain(rows) {
                let x = match x {
                    Value::Float(v) if flat && v.is_finite() => Value::Float(7.0),
                    other => other,
                };
                b = b.row(vec![x, y, Value::Float(d)]);
            }
            b.build().unwrap()
        },
    )
}

fn lit(v: f64) -> Expr {
    Expr::Literal(Value::Float(v))
}

fn and(a: Expr, b: Expr) -> Expr {
    Expr::Binary(BinOp::And, Box::new(a), Box::new(b))
}

/// `attr + off` (`off` elided when zero).
fn shifted(attr: &str, off: f64) -> Expr {
    let a = Expr::Attr(attr.to_string());
    if off == 0.0 {
        a
    } else {
        Expr::Binary(BinOp::Add, Box::new(a), Box::new(lit(off)))
    }
}

/// `attr + off >= lo and attr + off <= hi`, the viewer's window shape.
fn range(attr: &str, off: f64, lo: f64, hi: f64) -> Expr {
    and(
        Expr::Binary(BinOp::Ge, Box::new(shifted(attr, off)), Box::new(lit(lo))),
        Expr::Binary(BinOp::Le, Box::new(shifted(attr, off)), Box::new(lit(hi))),
    )
}

/// `T → Restrict(pred)`.
fn restricted(pred: Expr) -> (Graph, NodeId) {
    let mut g = Graph::new();
    let t = g.add(BoxKind::Table("T".into()));
    let r = g.add(BoxKind::rel(RelOpKind::Restrict(pred)));
    g.connect(t, 0, r, 0).unwrap();
    (g, r)
}

fn engine(rel: &Relation, threads: usize) -> (Engine, Arc<InMemoryRecorder>) {
    let c = Catalog::new();
    c.register("T", rel.clone());
    let mut e = Engine::new(c);
    e.set_threads(threads);
    let rec = Arc::new(InMemoryRecorder::new());
    e.set_recorder(rec.clone());
    (e, rec)
}

/// Debug text of a demanded relation: byte identity, NaN keys included.
fn text(d: Displayable) -> String {
    match d {
        Displayable::R(dr) => format!("{dr:?}"),
        other => panic!("expected R, got {}", other.type_tag()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn indexed_window_equals_naive(
        rel in arb_table(),
        x0 in -150.0f64..150.0,
        y0 in -150.0f64..150.0,
        w in 0.0f64..120.0,
        h in 0.0f64..120.0,
        offs in (-20.0f64..20.0, -20.0f64..20.0, any::<bool>()),
        slider in (-100.0f64..100.0, 0.0f64..150.0, any::<bool>()),
        open_x in any::<bool>(),
        gap in 0.0f64..200.0,
    ) {
        let (ox, oy) = if offs.2 { (offs.0, offs.1) } else { (0.0, 0.0) };
        // An open-ended x range also admits rows whose x is +inf or NaN.
        let x_range = if open_x {
            Expr::Binary(BinOp::Ge, Box::new(shifted("x", ox)), Box::new(lit(x0)))
        } else {
            range("x", ox, x0, x0 + w)
        };
        let mut pred = and(x_range, range("y", oy, y0, y0 + h));
        if slider.2 {
            pred = and(pred, range("d", 0.0, slider.0, slider.0 + slider.1));
        }
        // A window wholly outside the data: only Null / non-finite keys
        // are candidates, so the index path always answers it.
        let outside = and(range("x", ox, 1e4, 1e4 + 1.0), range("y", oy, 1e4, 1e4 + 1.0));
        // A contradictory x range (a user's `x >= lo` fused with a window
        // ending below it) next to a valid y range: again only the
        // unkeyed rows are candidates.
        let empty = and(range("x", ox, x0 + gap, x0), range("y", oy, y0, y0 + h));
        for (pred, always_indexed) in [(pred, false), (outside, true), (empty, true)] {
            let (g, r) = restricted(pred);
            let naive = text(engine(&rel, 1).0.demand_displayable(&g, r, 0).unwrap());
            for threads in [1usize, 2, 8] {
                let (mut e, rec) = engine(&rel, threads);
                let planned = text(e.demand_planned(&g, r, 0).unwrap().into_displayable().unwrap());
                prop_assert_eq!(&naive, &planned);
                prop_assert_eq!(rec.counter("plan.window_index.probes"), Some(1));
                if always_indexed {
                    prop_assert_eq!(rec.counter("plan.window_index.fallbacks"), None);
                }
            }
            if always_indexed {
                // The trace's source leaf reports the candidates it read.
                let (mut e, _) = engine(&rel, 1);
                let trace = e.demand_analyzed(&g, r, 0, true, None).unwrap().1.unwrap();
                let leaf = &trace.root.children[0];
                prop_assert_eq!(leaf.provenance.as_str(), "window-index");
                prop_assert!(leaf.rows_in * 2 <= rel.len() as u64);
                prop_assert_eq!(trace.root.rows_in, leaf.rows_out);
            }
        }
    }
}

/// A source referenced twice in one plan is never narrowed: here the
/// windowed side of a self-join may not shrink the unwindowed side.
#[test]
fn self_join_keeps_the_unwindowed_side_whole() {
    let mut b = RelationBuilder::new()
        .field("x", ScalarType::Float)
        .field("y", ScalarType::Float)
        .field("d", ScalarType::Float);
    for i in 0..400 {
        let v = |f: f64| Value::Float(f);
        b = b.row(vec![v((i % 20) as f64), v((i / 20) as f64), v((i % 7) as f64)]);
    }
    let rel = b.build().unwrap();
    let mut g = Graph::new();
    let t = g.add(BoxKind::Table("T".into()));
    let r = g.add(BoxKind::rel(RelOpKind::Restrict(and(
        range("x", 0.0, 2.0, 4.0),
        range("y", 0.0, 2.0, 4.0),
    ))));
    let j = g.add(BoxKind::Join(tioga2::expr::parse("d = d_2").unwrap()));
    g.connect(t, 0, r, 0).unwrap();
    g.connect(r, 0, j, 0).unwrap();
    g.connect(t, 0, j, 1).unwrap();
    // Join outputs carry synthetic row ids, so compare the value rows.
    let rows = |d: Displayable| match d {
        Displayable::R(dr) => {
            dr.rel.tuples().iter().map(|t| t.values().to_vec()).collect::<Vec<_>>()
        }
        other => panic!("expected R, got {}", other.type_tag()),
    };
    let naive = rows(engine(&rel, 1).0.demand_displayable(&g, j, 0).unwrap());
    assert_eq!(naive.len(), 516, "each of the 9 window rows meets its whole d class");
    for threads in [1usize, 2, 8] {
        let (mut e, rec) = engine(&rel, threads);
        assert_eq!(naive, rows(e.demand_planned(&g, j, 0).unwrap().into_displayable().unwrap()));
        assert_eq!(rec.counter("plan.window_index.probes"), None);
    }
}

/// A window over most of the data falls back to the plain scan on a
/// sample of the rows, without building the grid; a zoomed window over
/// the same store builds it once, and from then on every probe is exact.
#[test]
fn wide_window_falls_back_without_building_the_grid() {
    let rel = points().snapshot("Points").unwrap();
    let (mut e, rec) = engine(&rel, 1);
    let demand = |e: &mut Engine, lo: f64, hi: f64| {
        let (g, r) = restricted(and(range("x", 0.0, lo, hi), range("y", 0.0, lo, hi)));
        let planned = text(e.demand_planned(&g, r, 0).unwrap().into_displayable().unwrap());
        let naive = text(engine(&rel, 1).0.demand_displayable(&g, r, 0).unwrap());
        assert_eq!(planned, naive);
    };
    let counters = |rec: &InMemoryRecorder| {
        ["probes", "builds", "fallbacks"]
            .map(|c| rec.counter(&format!("plan.window_index.{c}")).unwrap_or(0))
    };
    demand(&mut e, -1.0, 90.0);
    assert_eq!(counters(&rec), [1, 0, 1], "fitted view: no grid built");
    demand(&mut e, 10.0, 20.0);
    assert_eq!(counters(&rec), [2, 1, 1], "the zoomed view builds it");
    demand(&mut e, -5.0, 95.0);
    assert_eq!(counters(&rec), [3, 1, 2], "the built grid answers exactly, and declines");
}

/// `Points(x, y)`: a 100 × 100 lattice over a 100-unit square.
fn points() -> Catalog {
    let mut b = RelationBuilder::new().field("x", ScalarType::Float).field("y", ScalarType::Float);
    for i in 0..10_000 {
        b = b.row(vec![Value::Float((i % 100) as f64), Value::Float((i / 100) as f64)]);
    }
    let c = Catalog::new();
    c.register("Points", b.build().unwrap());
    c
}

fn points_session(catalog: Catalog) -> Session {
    let mut s = Session::new(Environment::new(catalog));
    s.set_canvas_size(320, 240);
    let t = s.add_table("Points").unwrap();
    let dots = s
        .set_attribute(t, "display", ScalarType::DrawList, "circle(0.3,'red') ++ nodraw()")
        .unwrap();
    // A relational box gives the canvas a plan to push its window into.
    let kept = s.restrict(dots, "y >= 0.0").unwrap();
    s.add_viewer(kept, "v").unwrap();
    s
}

/// An update moves a row to a cell far from where the index filed it;
/// the next panned frame draws it there, pixel for pixel as a cold
/// session over the updated catalog does.
#[test]
fn moved_row_appears_in_the_next_panned_frame() {
    let mut s = points_session(points());
    let rec = Arc::new(InMemoryRecorder::new());
    s.set_recorder(rec.clone());
    s.render("v").unwrap();
    s.zoom("v", 0.1).unwrap();
    let frame = s.render("v").unwrap();
    assert!(rec.counter("plan.window_index.probes").unwrap_or(0) >= 1, "the index answered");
    assert_eq!(rec.counter("plan.window_index.builds"), Some(1));

    let hit = frame.hits.records()[0].clone();
    let (cx, cy) = ((hit.bbox.0 + hit.bbox.2) / 2, (hit.bbox.1 + hit.bbox.3) / 2);
    let mut dialog = s.begin_update("v", cx, cy).unwrap();
    // Pan two screen widths away and move the row to the new center.
    s.pan("v", 640, 0).unwrap();
    let (nx, ny) = s.viewers.get("v").unwrap().position.center;
    dialog.set_field("x", format!("{nx}")).unwrap();
    dialog.set_field("y", format!("{ny}")).unwrap();
    let buffer = |s: &Session| s.env.catalog.snapshot("Points").unwrap().tuples().as_ptr();
    let before = buffer(&s);
    dialog.commit(&mut s).unwrap();
    assert_eq!(buffer(&s), before, "the edit is written in place, not into a copy");
    let moved = s.render("v").unwrap();
    assert!(
        moved.hits.records().iter().any(|r| r.provenance.row_id == hit.provenance.row_id),
        "the moved row is drawn at its new position"
    );
    assert_eq!(rec.counter("plan.window_index.builds"), Some(2), "the edit dropped the index");

    let mut cold = points_session(s.env.catalog.fork());
    cold.render("v").unwrap();
    cold.viewers.get_mut("v").unwrap().position = s.viewers.get("v").unwrap().position.clone();
    let expect = cold.render("v").unwrap();
    assert_eq!(moved.fb, expect.fb, "panned frame matches a cold recompute");
    assert_eq!(moved.hits.records(), expect.hits.records());
}

/// Forks share one grid index allocation, exactly as they share the tuple
/// store it lives in, until an edit diverges the writer's copy.
#[test]
fn forks_share_one_index_until_one_edits() {
    let base = points();
    let forks = [base.fork(), base.fork()];
    let grid = |c: &Catalog| c.snapshot("Points").unwrap().grid_index("x", "y").unwrap();

    let g0 = grid(&forks[0]);
    assert!(Arc::ptr_eq(&g0, &grid(&forks[1])), "the second fork reuses the first fork's index");
    assert_eq!(base.storage_refs("Points").unwrap(), 3, "the index holds no store reference");

    let row = base.snapshot("Points").unwrap().tuples()[0].row_id;
    let change = [FieldChange { field: "x".into(), value: Value::Float(55.5) }];
    install_update(&forks[0], "Points", row, &change).unwrap();
    assert!(!Arc::ptr_eq(&grid(&forks[0]), &g0), "the writer indexes its own copy");
    assert!(Arc::ptr_eq(&grid(&forks[1]), &g0), "the other fork keeps the shared index");
    assert!(Arc::ptr_eq(&grid(&base), &g0));
}
