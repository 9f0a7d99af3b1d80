//! End-to-end observability check: run the Figure 7 pipeline under an
//! `InMemoryRecorder` and verify the recorded spans tell the memoization
//! story the engine claims — every box fires once on the cold render,
//! and a second demand is pure cache hits.

use std::sync::Arc;
use tioga2_bench::{build_figure1, build_figure7, catalog, points_catalog, session};
use tioga2_obs::{InMemoryRecorder, Recorder};

#[test]
fn figure7_under_recorder_traces_every_fire_then_caches() {
    let mut s = session(catalog(60, 4));
    let rec = Arc::new(InMemoryRecorder::new());
    s.set_recorder(rec.clone());

    build_figure7(&mut s);
    s.render("atlas").expect("cold render");

    let cold_stats = s.engine_stats();
    assert!(cold_stats.box_evals > 0, "the cold render fires boxes");
    assert!(cold_stats.rows_in > 0 && cold_stats.rows_out > 0);

    // Every fired box produced exactly one `fire:` span.
    let spans = rec.completed_spans();
    let fire_spans: Vec<_> = spans.iter().filter(|sp| sp.name.starts_with("fire:")).collect();
    assert_eq!(fire_spans.len() as u64, cold_stats.box_evals, "one fire span per box evaluation");
    // Fire spans nest under the demand that triggered them.
    assert!(fire_spans.iter().all(|sp| sp.depth >= 1), "fires nest inside engine.demand");
    // rows_in/rows_out fields ride on every fire span.
    assert!(fire_spans.iter().all(|sp| sp.fields.iter().any(|(k, _)| *k == "rows_in")
        && sp.fields.iter().any(|(k, _)| *k == "rows_out")));
    // The session-level render span is present and encloses depth 0.
    assert!(spans.iter().any(|sp| sp.name == "session.render" && sp.depth == 0));
    // The render passes were traced too.
    assert!(spans.iter().any(|sp| sp.name == "render.compose"));
    assert!(spans.iter().any(|sp| sp.name == "render.draw"));

    // A second demand of the same canvas is answered from the memo
    // cache: no new fire spans, only cache hits.
    let fires_before = fire_spans.len();
    rec.reset();
    s.render("atlas").expect("warm render");
    let warm_stats = s.engine_stats();
    assert_eq!(warm_stats.box_evals, cold_stats.box_evals, "warm render fires nothing new");
    assert!(warm_stats.cache_hits > cold_stats.cache_hits, "warm render hits the cache");

    let warm_spans = rec.completed_spans();
    assert_eq!(
        warm_spans.iter().filter(|sp| sp.name.starts_with("fire:")).count(),
        0,
        "no fire spans on the warm render (had {fires_before} cold ones)"
    );
    assert!(rec.counter("engine.cache_hits").unwrap_or(0) > 0);
    // Per-node tallies see the warm probes as hits.
    let tallies = rec.node_cache_tallies();
    assert!(!tallies.is_empty());
    assert!(tallies.values().all(|t| t.misses == 0), "warm probes never miss");

    // The exporters accept the whole journal.
    let json = rec.chrome_trace_json().expect("chrome trace");
    assert!(json.contains("\"traceEvents\""));
    let table = rec.summary_table().expect("summary");
    assert!(table.contains("engine.cache_hits"));
}

/// Satellite audit: the counter and span names the engine, plan layer,
/// viewer, and session actually emit are *exactly* the set DESIGN.md §9
/// documents (modulo the two documented dynamic prefixes).  A new
/// emission site must update the doc; a renamed counter fails here.
const DOCUMENTED_COUNTERS: &[&str] = &[
    "engine.box_evals",
    "engine.cache_hits",
    "cache.invalidations",
    "cache.invalidated_entries",
    "plan.cache_hits",
    "plan.parallel.segments",
    "plan.parallel.rows",
    "plan.window_index.probes",
    "plan.window_index.builds",
    "plan.window_index.fallbacks",
];
/// `plan.rewrite.<rule>` counters are dynamic per rewrite rule.
const DOCUMENTED_COUNTER_PREFIXES: &[&str] = &["plan.rewrite."];
const DOCUMENTED_SPANS: &[&str] = &[
    "engine.demand",
    "plan.execute",
    "session.edit",
    "session.undo",
    "session.redo",
    "session.render",
    "session.pan",
    "session.zoom",
    "render.compose",
    "render.draw",
];
/// `fire:<Box>` / `relop:<Op>` spans are dynamic per box kind.
const DOCUMENTED_SPAN_PREFIXES: &[&str] = &["fire:", "relop:"];

#[test]
fn counter_and_span_names_match_design_doc() {
    let mut s = session(catalog(60, 4));
    s.set_threads(4);
    let rec = Arc::new(InMemoryRecorder::new());
    s.set_recorder(rec.clone());

    // A figure-7 run exercising every instrumented layer: edits,
    // renders, gestures, the plan layer with a firing rewrite, demand
    // attribution, undo/redo, and cache invalidation.
    build_figure7(&mut s);
    s.render("atlas").expect("cold render");
    s.zoom("atlas", 0.5).expect("zoom");
    s.pan("atlas", 5, 5).expect("pan");
    s.render("atlas").expect("warm render");
    let t = s.add_table("Stations").expect("table");
    let r1 = s.restrict(t, "state = 'LA'").expect("restrict");
    let r2 = s.restrict(r1, "altitude > 10").expect("restrict");
    s.explain_analyze(r2, 0).expect("analyze");
    s.explain_analyze(r2, 0).expect("re-analyze hits the plan cache");
    assert!(s.undo());
    assert!(s.redo());
    s.refresh_sys_tables().expect("sys refresh invalidates caches");

    // A windowed canvas over stored x/y: the fitted frame's window covers
    // every row (the index probe falls back to the scan), the zoomed one
    // reads only the grid index's candidates.
    let mut pts = session(points_catalog(20_000));
    pts.set_recorder(rec.clone());
    let t = pts.add_table("Points").expect("table");
    let r = pts.restrict(t, "mass >= 0.0").expect("restrict");
    pts.add_viewer(r, "pts").expect("viewer");
    pts.render("pts").expect("fit");
    pts.render("pts").expect("fitted window");
    pts.zoom("pts", 0.05).expect("zoom");
    pts.render("pts").expect("zoomed window");

    // Every emitted counter is documented.
    let counters = rec.counters();
    for name in counters.keys() {
        assert!(
            DOCUMENTED_COUNTERS.contains(&name.as_str())
                || DOCUMENTED_COUNTER_PREFIXES.iter().any(|p| name.starts_with(p)),
            "counter '{name}' is emitted but not documented in DESIGN.md §9"
        );
    }
    // ... and every documented counter was emitted by this run.
    for name in DOCUMENTED_COUNTERS {
        assert!(counters.contains_key(*name), "documented counter '{name}' never emitted");
    }
    // The dynamic prefix is live too (two restricts fuse).
    assert!(
        counters.keys().any(|n| n.starts_with("plan.rewrite.")),
        "no plan.rewrite.<rule> counter fired: {counters:?}"
    );

    // Every emitted span name is documented.
    let spans = rec.completed_spans();
    for sp in spans.iter() {
        assert!(
            DOCUMENTED_SPANS.contains(&sp.name.as_str())
                || DOCUMENTED_SPAN_PREFIXES.iter().any(|p| sp.name.starts_with(p)),
            "span '{}' is emitted but not documented in DESIGN.md §9",
            sp.name
        );
    }
    // ... and every documented span was emitted by this run.
    for name in DOCUMENTED_SPANS {
        assert!(
            spans.iter().any(|sp| sp.name == *name),
            "documented span '{name}' never emitted by the figure-7 run"
        );
    }
    assert!(spans.iter().any(|sp| sp.name.starts_with("fire:")));
    assert!(spans.iter().any(|sp| sp.name.starts_with("relop:")));
}

/// Magnifying glasses and the rear view mirror draw through the same
/// recorded pass as the canvas: each lens and the mirror add one
/// `render.compose` and one `render.draw` span.
#[test]
fn lenses_and_rear_view_mirror_are_traced() {
    let mut s = session(catalog(60, 4));
    build_figure7(&mut s);
    build_figure1(&mut s);
    s.render("atlas").expect("fit");
    let lens = tioga2_viewer::magnifier::Magnifier::new((200, 150, 160, 120), 2.0).expect("lens");
    s.add_magnifier("atlas", lens).expect("attach lens");
    let count = |rec: &InMemoryRecorder, name: &str| {
        rec.completed_spans().iter().filter(|sp| sp.name == name).count()
    };

    let rec = Arc::new(InMemoryRecorder::new());
    s.set_recorder(rec.clone());
    s.render("atlas").expect("render with a lens");
    assert_eq!(count(&rec, "render.compose"), 2, "canvas + lens compose");
    assert_eq!(count(&rec, "render.draw"), 2, "canvas + lens draw");

    let spec = tioga2_expr::ViewerSpec {
        destination: "main".into(),
        elevation: 5.0,
        at: (0.0, 0.0),
        size: (1.0, 1.0),
    };
    s.traverse("atlas", &spec).expect("travel to main");
    let rec = Arc::new(InMemoryRecorder::new());
    s.set_recorder(rec.clone());
    s.render_rear_view(120, 90).expect("mirror").expect("travel history");
    assert_eq!(count(&rec, "render.compose"), 1, "mirror compose");
    assert_eq!(count(&rec, "render.draw"), 1, "mirror draw");
}
