//! Ablation benchmarks (DESIGN.md experiments A1–A3 and U1).
//!
//! * A1 — lazy memoized evaluation (Tioga-2) vs eager whole-program
//!   recompute after each edit (Tioga-1 baseline, paper §1.1 problem 2).
//! * A2 — elevation-range culling on vs off (§6.1's machinery).
//! * A3 — Sample as an interactive-response optimization (§4.2: "Sample
//!   is useful for improving interactive response").
//! * A4 — a deep-zoom windowed demand answered from the grid index on
//!   stored columns vs a full scan over method-computed ones ([Che95]).
//! * A5 — the plan-and-stream layer: box chains lowered to a rewritten
//!   streaming plan (restrict fusion, window pushdown) vs naive
//!   box-at-a-time demand.
//! * U1 — §8 update machinery: click-to-tuple hit testing and the update
//!   round trip.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tioga2_bench::{scatter_composite, stations_only_catalog, SEED};
use tioga2_dataflow::boxes::RelOpKind;
use tioga2_dataflow::engine::eval_eager;
use tioga2_dataflow::{BoxKind, Engine, Graph};
use tioga2_display::drilldown::set_range;
use tioga2_display::Composite;
use tioga2_expr::parse;
use tioga2_obs::noop_ref;
use tioga2_relational::ops;
use tioga2_relational::update::{install_update, FieldChange};
use tioga2_render::{render_scene, Framebuffer};
use tioga2_viewer::{compose_scene, CullOptions, Viewer};

/// A k-box chain over the stations table.
fn chain(k: usize) -> (Graph, tioga2_dataflow::NodeId, Vec<tioga2_dataflow::NodeId>) {
    let mut g = Graph::new();
    let t = g.add(BoxKind::Table("Stations".into()));
    let mut prev = t;
    let mut nodes = vec![t];
    for i in 0..k {
        let r = g.add(BoxKind::rel(RelOpKind::Restrict(
            parse(&format!("altitude > {}.0", i % 5)).unwrap(),
        )));
        g.connect(prev, 0, r, 0).unwrap();
        nodes.push(r);
        prev = r;
    }
    (g, prev, nodes)
}

/// A1: apply `edits` successive tail edits; measure total evaluation work
/// under the lazy engine vs the Tioga-1 eager discipline.
fn a1_lazy_vs_eager(c: &mut Criterion) {
    let mut g = c.benchmark_group("a1_lazy_vs_eager");
    g.sample_size(10);
    let cat = stations_only_catalog(5_000);
    for &edits in &[1usize, 10, 50] {
        g.bench_with_input(BenchmarkId::new("tioga2_lazy", edits), &edits, |b, &edits| {
            b.iter(|| {
                let (mut graph, sink, _) = chain(20);
                let mut engine = Engine::new(cat.clone());
                engine.demand(&graph, sink, 0).unwrap();
                for i in 0..edits {
                    graph
                        .update_kind(
                            sink,
                            BoxKind::rel(RelOpKind::Restrict(
                                parse(&format!("altitude > {}.0", i % 9)).unwrap(),
                            )),
                        )
                        .unwrap();
                    engine.demand(&graph, sink, 0).unwrap();
                }
                black_box(engine.stats.box_evals)
            });
        });
        g.bench_with_input(BenchmarkId::new("tioga1_eager", edits), &edits, |b, &edits| {
            b.iter(|| {
                let (mut graph, sink, _) = chain(20);
                let mut total = 0u64;
                let (_, stats) = eval_eager(&graph, &cat).unwrap();
                total += stats.box_evals;
                for i in 0..edits {
                    graph
                        .update_kind(
                            sink,
                            BoxKind::rel(RelOpKind::Restrict(
                                parse(&format!("altitude > {}.0", i % 9)).unwrap(),
                            )),
                        )
                        .unwrap();
                    let (_, stats) = eval_eager(&graph, &cat).unwrap();
                    total += stats.box_evals;
                }
                black_box(total)
            });
        });
    }
    g.finish();
}

/// A2: the Figure 7 composite rendered with and without elevation-range
/// culling.  Only ~1/8 of the layers are active at the probe elevation.
fn a2_culling(c: &mut Criterion) {
    let mut g = c.benchmark_group("a2_elevation_culling");
    g.sample_size(12);
    let base = scatter_composite(5_000);
    let layers: Vec<_> = (0..8)
        .map(|i| {
            let lo = i as f64 * 10.0;
            let mut l = set_range(&base.layers[0], lo, lo + 10.0).unwrap();
            l.name = format!("layer{i}");
            l
        })
        .collect();
    let composite = Composite::new(layers).unwrap();
    let mut viewer = Viewer::new("v", 640, 480);
    viewer.fit(&composite).unwrap();
    viewer.position.elevation = 15.0;
    for (label, cull) in [
        ("culling_on", CullOptions { elevation: true, bounds: true }),
        ("culling_off", CullOptions { elevation: false, bounds: true }),
    ] {
        g.bench_function(label, |b| {
            b.iter(|| {
                let vp = viewer.viewport();
                let scene = compose_scene(
                    &composite,
                    viewer.position.elevation,
                    &[],
                    vp.world_bounds(),
                    cull,
                )
                .unwrap();
                let mut fb = Framebuffer::new(640, 480);
                black_box(render_scene(&scene, &vp, &mut fb).len())
            });
        });
    }
    g.finish();
}

/// A3: render latency vs sample probability on a large relation — the
/// paper's stated purpose for the Sample box.
fn a3_sample(c: &mut Criterion) {
    let mut g = c.benchmark_group("a3_sample_interactivity");
    g.sample_size(10);
    let composite = scatter_composite(200_000);
    let full = &composite.layers[0];
    for &pct in &[100u32, 10, 1] {
        let p = pct as f64 / 100.0;
        let sampled = {
            let mut l = full.clone();
            l.rel = ops::sample(&full.rel, p, SEED).unwrap();
            Composite::new(vec![l]).unwrap()
        };
        let mut viewer = Viewer::new("v", 640, 480);
        viewer.fit(&sampled).unwrap();
        g.bench_with_input(BenchmarkId::new("render_sampled_pct", pct), &pct, |b, _| {
            b.iter(|| black_box(viewer.render(&sampled, noop_ref()).unwrap().1.len()));
        });
    }
    g.finish();
}

/// A4: the [Che95] browsing-query ablation — a windowed planned demand
/// at deep zoom (a window over ~0.1% of the plane).
///
/// * `indexed` — stored `x`/`y`: the plan executor feeds the window
///   Restrict only the grid index's candidate rows;
/// * `scan` — the same points with `x`/`y` as methods over stored
///   `px`/`py`: the index does not apply, so the Restrict reads every row;
/// * `index_build` — building the grid over stored `x`/`y` once.
///
/// Two windows alternate so every demand misses the plan cache.
fn a4_window_index(c: &mut Criterion) {
    use tioga2_bench::points_catalog;
    use tioga2_relational::GridIndex;

    let mut g = c.benchmark_group("a4_window_index");
    g.sample_size(10);
    for &n in &[10_000usize, 200_000] {
        let cat = points_catalog(n);
        let points = cat.snapshot("Points").unwrap();
        // The same rows with method-computed locations.
        let computed = tioga2_relational::rename(&points, "x", "px").unwrap();
        let mut computed = tioga2_relational::rename(&computed, "y", "py").unwrap();
        computed.add_method("x", tioga2_expr::ScalarType::Float, parse("px").unwrap()).unwrap();
        computed.add_method("y", tioga2_expr::ScalarType::Float, parse("py").unwrap()).unwrap();
        cat.register("Computed", computed);

        let windows: Vec<_> = [(500.0, 500.0), (200.0, 700.0)]
            .iter()
            .map(|(x, y)| {
                parse(&format!(
                    "x >= {x:.1} and x <= {:.1} and y >= {y:.1} and y <= {:.1}",
                    x + 30.0,
                    y + 30.0
                ))
                .unwrap()
            })
            .collect();
        for (name, table) in [("indexed", "Points"), ("scan", "Computed")] {
            let mut graph = Graph::new();
            let t = graph.add(BoxKind::Table(table.into()));
            let mut engine = Engine::new(cat.clone());
            let mut i = 0usize;
            g.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
                b.iter(|| {
                    i += 1;
                    let w = &windows[i % 2];
                    black_box(engine.demand_planned_opts(&graph, t, 0, true, Some(w)).unwrap())
                });
            });
        }
        g.bench_with_input(BenchmarkId::new("index_build", n), &n, |b, _| {
            b.iter(|| black_box(GridIndex::build(points.tuples(), [1, 2])));
        });
    }
    g.finish();
}

/// U1: click-to-tuple resolution and the §8 update round trip.
fn u1_update(c: &mut Criterion) {
    let mut g = c.benchmark_group("u1_update");
    for &n in &[1_000usize, 100_000] {
        let composite = scatter_composite(n);
        let mut viewer = Viewer::new("v", 640, 480);
        viewer.fit(&composite).unwrap();
        let (_, hits, _) = viewer.render(&composite, noop_ref()).unwrap();
        g.bench_with_input(BenchmarkId::new("hit_test", n), &n, |b, _| {
            b.iter(|| black_box(hits.top_hit(320, 240).is_some()));
        });
    }
    let cat = stations_only_catalog(10_000);
    let rel = cat.snapshot("Stations").unwrap();
    let row = rel.tuples()[500].row_id;
    let mut toggle = 0i64;
    g.bench_function("update_roundtrip_10k", |b| {
        b.iter(|| {
            toggle += 1;
            install_update(
                &cat,
                "Stations",
                row,
                &[FieldChange {
                    field: "altitude".into(),
                    value: tioga2_expr::Value::Float(toggle as f64),
                }],
            )
            .unwrap();
            black_box(toggle)
        });
    });
    g.finish();
}

/// A5: the plan-and-stream layer vs naive box-at-a-time demand.
///
/// * `f1_*` — the Figure 1 chain (Restrict → Project) over 100k
///   stations: streaming fuses the chain into one pass with no
///   intermediate materialization.
/// * `window_*` — a zoomed viewer over 100k stored-position points: the
///   synthesized window predicate is pushed into the plan, so off-screen
///   tuples are never materialized before compose culls them.
fn a5_plan_pushdown(c: &mut Criterion) {
    use tioga2_bench::points_catalog;
    use tioga2_display::{Composite, Displayable};
    use tioga2_viewer::window_predicate;

    let dr_of = |d: tioga2_dataflow::Data| match d.into_displayable().unwrap() {
        Displayable::R(dr) => dr,
        other => panic!("expected R, got {}", other.type_tag()),
    };

    let mut g = c.benchmark_group("a5_plan_pushdown");
    g.sample_size(10);

    // Figure 1 chain, engine-level, fresh engine per iteration.
    let cat = stations_only_catalog(100_000);
    let mut fg = Graph::new();
    let t = fg.add(BoxKind::Table("Stations".into()));
    let r = fg.add(BoxKind::rel(RelOpKind::Restrict(parse("state = 'LA'").unwrap())));
    let p = fg.add(BoxKind::rel(RelOpKind::Project(
        ["name", "longitude", "latitude", "altitude"].iter().map(|s| s.to_string()).collect(),
    )));
    fg.connect(t, 0, r, 0).unwrap();
    fg.connect(r, 0, p, 0).unwrap();
    g.bench_function("f1_naive_100k", |b| {
        b.iter(|| {
            let mut e = Engine::new(cat.clone());
            black_box(e.demand(&fg, p, 0).unwrap())
        });
    });
    g.bench_function("f1_planned_100k", |b| {
        b.iter(|| {
            let mut e = Engine::new(cat.clone());
            black_box(e.demand_planned(&fg, p, 0).unwrap())
        });
    });

    // A zoomed viewer over stored-position points: window pushdown.
    let pcat = points_catalog(100_000);
    let mut wg = Graph::new();
    let t = wg.add(BoxKind::Table("Points".into()));
    let r = wg.add(BoxKind::rel(RelOpKind::Restrict(parse("mass >= 0.0").unwrap())));
    let srt = wg.add(BoxKind::rel(RelOpKind::Sort(vec![("name".to_string(), true)])));
    wg.connect(t, 0, r, 0).unwrap();
    wg.connect(r, 0, srt, 0).unwrap();
    let r = srt;
    let mut seed_engine = Engine::new(pcat.clone());
    let dr = dr_of(seed_engine.demand(&wg, r, 0).unwrap());
    let mut viewer = Viewer::new("main", 640, 480);
    viewer.fit(&Composite::new(vec![dr.clone()]).unwrap()).unwrap();
    viewer.zoom(0.05);
    let hdr = seed_engine.plan_root_header(&wg, r, 0).unwrap().unwrap();
    let pred = window_predicate(&viewer, &hdr).expect("stored x/y is filterable");
    let bounds = viewer.viewport().world_bounds();
    let elevation = viewer.position.elevation;
    g.bench_function("window_naive_100k", |b| {
        b.iter(|| {
            let mut e = Engine::new(pcat.clone());
            let dr = dr_of(e.demand(&wg, r, 0).unwrap());
            let composite = Composite::new(vec![dr]).unwrap();
            black_box(
                compose_scene(&composite, elevation, &[], bounds, CullOptions::default())
                    .unwrap()
                    .len(),
            )
        });
    });
    g.bench_function("window_pushdown_100k", |b| {
        b.iter(|| {
            let mut e = Engine::new(pcat.clone());
            let dr = dr_of(e.demand_planned_opts(&wg, r, 0, true, Some(&pred)).unwrap());
            let composite = Composite::new(vec![dr]).unwrap();
            black_box(
                compose_scene(&composite, elevation, &[], bounds, CullOptions::default())
                    .unwrap()
                    .len(),
            )
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    a1_lazy_vs_eager,
    a2_culling,
    a3_sample,
    a4_window_index,
    u1_update,
    a5_plan_pushdown
);
criterion_main!(benches);
