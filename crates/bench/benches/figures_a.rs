//! Benchmarks for paper Figures 1–5 (see DESIGN.md per-experiment index).
//!
//! * F1 — the Figure 1 pipeline: cold evaluation and re-demand latency
//!   vs catalog size.
//! * F2 — program-window operations: edit scripts, Apply Box matching,
//!   encapsulation, save/load.
//! * F3 — the Figure 3 database operators, scaling sweeps.
//! * F4 — the Figure 4 scatter render (scene build + rasterization) vs
//!   tuple count and slider selectivity.
//! * F5 — the Figure 5 attribute operations: edit cost must be O(1) in
//!   relation size (laziness), evaluation cost paid only at render.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tioga2_bench::{catalog, scatter_composite, session, stations_only_catalog, SEED};
use tioga2_dataflow::boxes::RelOpKind;
use tioga2_dataflow::{edit, BoxKind, BoxRegistry, Engine, Graph, PortType};
use tioga2_display::attr_ops;
use tioga2_display::defaults::make_display_relation;
use tioga2_expr::{parse, ScalarType as T};
use tioga2_obs::noop_ref;
use tioga2_relational::ops;
use tioga2_render::{render_scene, Framebuffer, Viewport};
use tioga2_viewer::{compose_scene, CullOptions, Slider, Viewer};

fn fig1_pipeline(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig1_pipeline");
    g.sample_size(20);
    for &n in &[1_000usize, 10_000, 50_000] {
        let cat = stations_only_catalog(n);
        g.bench_with_input(BenchmarkId::new("cold_eval", n), &n, |b, _| {
            b.iter(|| {
                let mut s = session(cat.clone());
                s.set_validate(false);
                let p = tioga2_bench::build_figure1(&mut s);
                black_box(s.demand(p, 0).unwrap().tuple_count())
            });
        });
        // Re-demand after warm-up: the memoized case the user sees while
        // browsing.
        let mut s = session(cat.clone());
        let p = tioga2_bench::build_figure1(&mut s);
        s.demand(p, 0).unwrap();
        g.bench_with_input(BenchmarkId::new("warm_demand", n), &n, |b, _| {
            b.iter(|| black_box(s.demand(p, 0).unwrap().tuple_count()));
        });
    }
    g.finish();
}

fn fig2_program_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig2_program_ops");
    for &boxes in &[10usize, 100, 500] {
        g.bench_with_input(BenchmarkId::new("edit_script", boxes), &boxes, |b, &boxes| {
            b.iter(|| {
                let mut graph = Graph::new();
                let t = graph.add(BoxKind::Table("Stations".into()));
                let mut prev = t;
                for i in 0..boxes {
                    let r = graph.add(BoxKind::rel(RelOpKind::Restrict(
                        parse(&format!("altitude > {i}.0")).unwrap(),
                    )));
                    graph.connect(prev, 0, r, 0).unwrap();
                    prev = r;
                }
                black_box(graph.len())
            });
        });
    }
    // Apply Box matching over a large registry.
    let mut registry = BoxRegistry::with_primitives();
    for i in 0..200 {
        registry.register(tioga2_dataflow::BoxTemplate {
            name: format!("Custom{i}"),
            in_types: vec![if i % 2 == 0 { PortType::R } else { PortType::C }],
            out_types: vec![PortType::R],
            kind: None,
        });
    }
    g.bench_function("apply_box_match_200", |b| {
        b.iter(|| black_box(registry.matching(&[PortType::R]).len()));
    });

    // Encapsulate a 50-box chain; instantiate it.
    let mut graph = Graph::new();
    let t = graph.add(BoxKind::Table("Stations".into()));
    let mut prev = t;
    let mut region = Vec::new();
    for i in 0..50 {
        let r = graph
            .add(BoxKind::rel(RelOpKind::Restrict(parse(&format!("altitude > {i}.0")).unwrap())));
        graph.connect(prev, 0, r, 0).unwrap();
        region.push(r);
        prev = r;
    }
    g.bench_function("encapsulate_50", |b| {
        b.iter(|| {
            black_box(
                tioga2_dataflow::encapsulate::encapsulate(&graph, &region, &[], "Chain").unwrap(),
            )
        });
    });

    // Save/load a 100-box program.
    let text = tioga2_dataflow::persist::save_program(&graph);
    let reg = BoxRegistry::with_primitives();
    g.bench_function("save_program_50", |b| {
        b.iter(|| black_box(tioga2_dataflow::persist::save_program(&graph).len()));
    });
    g.bench_function("load_program_50", |b| {
        b.iter(|| black_box(tioga2_dataflow::persist::load_program(&text, &reg).unwrap().len()));
    });
    g.finish();
}

fn fig3_db_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig3_db_ops");
    g.sample_size(15);
    for &n in &[1_000usize, 10_000, 100_000] {
        let cat = stations_only_catalog(n);
        let rel = cat.snapshot("Stations").unwrap();
        g.bench_with_input(BenchmarkId::new("restrict", n), &n, |b, _| {
            let pred = parse("state = 'LA'").unwrap();
            b.iter(|| black_box(ops::restrict(&rel, &pred).unwrap().len()));
        });
        g.bench_with_input(BenchmarkId::new("project", n), &n, |b, _| {
            b.iter(|| black_box(ops::project(&rel, &["name", "state"]).unwrap().len()));
        });
        g.bench_with_input(BenchmarkId::new("sample_10pct", n), &n, |b, _| {
            b.iter(|| black_box(ops::sample(&rel, 0.1, SEED).unwrap().len()));
        });
        g.bench_with_input(BenchmarkId::new("sort", n), &n, |b, _| {
            b.iter(|| black_box(ops::sort(&rel, &[("altitude", true)]).unwrap().len()));
        });
    }
    // Join selectivity sweep at fixed size.
    let cat = catalog(2_000, 5);
    let st = cat.snapshot("Stations").unwrap();
    let obs = cat.snapshot("Observations").unwrap();
    g.bench_function("hash_join_2k_x_10k", |b| {
        let pred = parse("id = station_id").unwrap();
        b.iter(|| black_box(ops::join(&st, &obs, &pred).unwrap().len()));
    });
    // The theta fallback is quadratic: keep the bench point small (the
    // shape, not the absolute scale, is the claim).
    g.bench_function("theta_join_500_x_500", |b| {
        let left = ops::sample(&st, 0.25, SEED).unwrap();
        let right = ops::sample(&obs, 0.05, SEED).unwrap();
        let pred = parse("altitude > temperature").unwrap();
        b.iter(|| black_box(ops::join(&left, &right, &pred).unwrap().len()));
    });
    g.finish();
}

fn fig4_scatter_render(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig4_scatter_render");
    g.sample_size(15);
    for &n in &[1_000usize, 10_000, 100_000] {
        let composite = scatter_composite(n);
        let mut viewer = Viewer::new("bench", 640, 480);
        viewer.fit(&composite).unwrap();
        g.bench_with_input(BenchmarkId::new("scene_and_raster", n), &n, |b, _| {
            b.iter(|| {
                let (fb, hits, _) = viewer.render(&composite, noop_ref()).unwrap();
                black_box((fb.ink_fraction(), hits.len()))
            });
        });
    }
    // Slider selectivity: same data volume, shrinking visible fraction.
    let composite = {
        let mut c2 = scatter_composite(50_000);
        let layer = &mut c2.layers[0];
        layer.rel.add_method("alt", T::Float, parse("px * 10.0").unwrap()).unwrap();
        layer.push_location_attr("alt").unwrap();
        c2
    };
    let vp = Viewport::new((50.0, 50.0), 115.0, 640, 480);
    for &pct in &[100u32, 10, 1] {
        let hi = 1000.0 * pct as f64 / 100.0;
        let sliders = vec![Slider::new("alt", 0.0, hi)];
        g.bench_with_input(BenchmarkId::new("slider_selectivity_pct", pct), &pct, |b, _| {
            b.iter(|| {
                let scene = compose_scene(
                    &composite,
                    vp.elevation,
                    &sliders,
                    vp.world_bounds(),
                    CullOptions::default(),
                )
                .unwrap();
                let mut fb = Framebuffer::new(640, 480);
                black_box(render_scene(&scene, &vp, &mut fb).len())
            });
        });
    }
    g.finish();
}

fn fig5_attr_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig5_attr_ops");
    for &n in &[1_000usize, 100_000] {
        let cat = stations_only_catalog(n);
        let dr = make_display_relation(cat.snapshot("Stations").unwrap(), "s").unwrap();
        // Edit cost: attribute operations only touch metadata; expect the
        // 1k and 100k curves to coincide (laziness).
        g.bench_with_input(BenchmarkId::new("set_attribute_edit", n), &n, |b, _| {
            let def = parse("longitude").unwrap();
            b.iter(|| {
                black_box(
                    attr_ops::set_attribute(&dr, "x", T::Float, def.clone()).unwrap().name.len(),
                )
            });
        });
        g.bench_with_input(BenchmarkId::new("swap_attributes_edit", n), &n, |b, _| {
            b.iter(|| black_box(attr_ops::swap_attributes(&dr, "x", "y").unwrap().dimension()));
        });
        g.bench_with_input(BenchmarkId::new("scale_attribute_edit", n), &n, |b, _| {
            b.iter(|| black_box(attr_ops::scale_attribute(&dr, "x", 2.0).unwrap().dimension()));
        });
        // Evaluation cost: materialize every tuple's position (paid at
        // render, proportional to n).
        let positioned =
            attr_ops::set_attribute(&dr, "x", T::Float, parse("longitude").unwrap()).unwrap();
        g.bench_with_input(BenchmarkId::new("evaluate_positions", n), &n, |b, _| {
            b.iter(|| {
                let mut acc = 0.0;
                for seq in 0..positioned.rel.len() {
                    acc += positioned.tuple_position(seq).unwrap()[0];
                }
                black_box(acc)
            });
        });
    }
    g.finish();
}

fn fig2_lazy_engine(c: &mut Criterion) {
    // Incremental re-evaluation: edit one box in a 30-box chain and
    // re-demand (the memoized engine should re-fire only the cone).
    let mut g = c.benchmark_group("fig2_incremental_eval");
    g.sample_size(20);
    let cat = stations_only_catalog(5_000);
    let mut graph = Graph::new();
    let t = graph.add(BoxKind::Table("Stations".into()));
    let mut prev = t;
    let mut nodes = vec![t];
    for i in 0..30 {
        let r = graph.add(BoxKind::rel(RelOpKind::Restrict(
            parse(&format!("altitude > {}.0", i % 7)).unwrap(),
        )));
        graph.connect(prev, 0, r, 0).unwrap();
        nodes.push(r);
        prev = r;
    }
    let sink = prev;
    let mut engine = Engine::new(cat);
    engine.demand(&graph, sink, 0).unwrap();
    let mut flip = 0u64;
    g.bench_function("edit_tail_box_and_demand", |b| {
        b.iter(|| {
            flip += 1;
            graph
                .update_kind(
                    sink,
                    BoxKind::rel(RelOpKind::Restrict(
                        parse(&format!("altitude > {}.0", flip % 5)).unwrap(),
                    )),
                )
                .unwrap();
            black_box(engine.demand(&graph, sink, 0).unwrap())
        });
    });
    g.bench_function("edit_head_box_and_demand", |b| {
        b.iter(|| {
            flip += 1;
            graph
                .update_kind(
                    nodes[1],
                    BoxKind::rel(RelOpKind::Restrict(
                        parse(&format!("altitude > {}.0", flip % 5)).unwrap(),
                    )),
                )
                .unwrap();
            black_box(engine.demand(&graph, sink, 0).unwrap())
        });
    });
    let _ = edit::apply_box_candidates(&graph, &BoxRegistry::with_primitives(), &[(sink, 0)]);
    g.finish();
}

criterion_group!(
    benches,
    fig1_pipeline,
    fig2_program_ops,
    fig2_lazy_engine,
    fig3_db_ops,
    fig4_scatter_render,
    fig5_attr_ops
);
criterion_main!(benches);
