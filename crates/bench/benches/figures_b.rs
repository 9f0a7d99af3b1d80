//! Benchmarks for paper Figures 6–11 (see DESIGN.md per-experiment
//! index).
//!
//! * F6 — drill-down primitives: overlay assembly, shuffle, elevation-map
//!   construction with k layers.
//! * F7 — rendering the ranged overlay along a zoom path.
//! * F8 — wormhole detection / pass-through latency vs wormhole count,
//!   and rear-view rendering.
//! * F9 — magnifying-glass rendering vs lens size and zoom.
//! * F10 — slaving propagation chains and stitched-group rendering.
//! * F11 — replicate partition sweeps.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tioga2_bench::{catalog, scatter_composite, session};
use tioga2_display::compose::{replicate, stitch, PartitionSpec};
use tioga2_display::drilldown::{
    elevation_map, overlay, set_range, shuffle_to_top, MismatchPolicy,
};
use tioga2_display::{Composite, Layout};
use tioga2_expr::parse;
use tioga2_obs::noop_ref;
use tioga2_viewer::group::GroupWindow;
use tioga2_viewer::magnifier::Magnifier;
use tioga2_viewer::slaving::ViewerSet;
use tioga2_viewer::Viewer;

/// A composite of `k` scatter layers whose ranges tile the zoom axis.
fn layered_composite(k: usize, per_layer: usize) -> Composite {
    let base = scatter_composite(per_layer);
    let mut layers = Vec::with_capacity(k);
    for i in 0..k {
        let lo = i as f64 * 10.0;
        let mut l = set_range(&base.layers[0], lo, lo + 20.0).unwrap();
        l.name = format!("layer{i}");
        layers.push(l);
    }
    Composite::new(layers).unwrap()
}

fn fig6_drilldown(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig6_drilldown");
    for &k in &[2usize, 8, 32] {
        let composite = layered_composite(k, 2_000);
        g.bench_with_input(BenchmarkId::new("overlay_assembly", k), &k, |b, _| {
            let single = Composite::new(vec![composite.layers[0].clone()]).unwrap();
            b.iter(|| {
                let mut acc = single.clone();
                for _ in 0..k {
                    acc = overlay(&acc, &single, &[], MismatchPolicy::Invariant).unwrap();
                }
                black_box(acc.layers.len())
            });
        });
        g.bench_with_input(BenchmarkId::new("shuffle", k), &k, |b, _| {
            b.iter(|| black_box(shuffle_to_top(&composite, 0).unwrap().layers.len()));
        });
        g.bench_with_input(BenchmarkId::new("elevation_map", k), &k, |b, _| {
            b.iter(|| black_box(elevation_map(&composite, 15.0).len()));
        });
    }
    g.finish();
}

fn fig7_overlay_zoom_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig7_overlay_ranges");
    g.sample_size(12);
    let composite = layered_composite(8, 5_000);
    let mut viewer = Viewer::new("atlas", 640, 480);
    viewer.fit(&composite).unwrap();
    // Render along a descent: each elevation activates ~2 of 8 layers.
    g.bench_function("zoom_path_render_8_layers", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for &e in &[75.0, 45.0, 25.0, 12.0, 5.0] {
                viewer.position.elevation = e;
                let (_, hits, _) = viewer.render(&composite, noop_ref()).unwrap();
                total += hits.len();
            }
            black_box(total)
        });
    });
    g.finish();
}

fn fig8_wormholes(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig8_wormholes");
    g.sample_size(12);
    for &n in &[64usize, 1024] {
        let cat = tioga2_bench::stations_only_catalog(n);
        let mut s = session(cat);
        tioga2_bench_build_wormholes(&mut s);
        s.render("stations").unwrap();
        // Wormhole search at the screen center (the per-gesture cost while
        // descending).
        g.bench_with_input(BenchmarkId::new("wormhole_probe", n), &n, |b, _| {
            b.iter(|| black_box(s.wormhole_under_center("stations").unwrap().is_some()));
        });
    }
    // Traversal + go_back round trip.
    let cat = tioga2_bench::stations_only_catalog(128);
    let mut s = session(cat);
    tioga2_bench_build_wormholes(&mut s);
    s.render("stations").unwrap();
    let spec = tioga2_expr::ViewerSpec {
        destination: "temps".into(),
        elevation: 50.0,
        at: (0.0, 0.0),
        size: (1.0, 1.0),
    };
    g.bench_function("traverse_and_back", |b| {
        b.iter(|| {
            s.traverse("stations", &spec).unwrap();
            black_box(s.go_back().unwrap().len())
        });
    });
    s.traverse("stations", &spec).unwrap();
    g.bench_function("rear_view_render", |b| {
        b.iter(|| black_box(s.render_rear_view(200, 160).unwrap().is_some()));
    });
    g.finish();
}

/// F8 scenario with a wormhole on every station plus a temps canvas.
fn tioga2_bench_build_wormholes(s: &mut tioga2_core::Session) {
    use tioga2_expr::ScalarType as T;
    let t = s.add_table("Stations").expect("Stations");
    let sx = s.set_attribute(t, "x", T::Float, "longitude").expect("x");
    let sy = s.set_attribute(sx, "y", T::Float, "latitude").expect("y");
    let wh = s
        .set_attribute(
            sy,
            "display",
            T::DrawList,
            "circle(0.05,'red') ++ viewer('temps', 50.0, 0.0, 0.0, 0.4, 0.3)",
        )
        .expect("wormholes");
    s.add_viewer(wh, "stations").expect("viewer");
    let t2 = s.add_table("Stations").expect("Stations");
    s.add_viewer(t2, "temps").expect("viewer");
}

fn fig9_magnifier(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig9_magnifier");
    g.sample_size(15);
    let composite = scatter_composite(20_000);
    let mut viewer = Viewer::new("plot", 640, 480);
    viewer.fit(&composite).unwrap();
    let (base_fb, _, _) = viewer.render(&composite, noop_ref()).unwrap();
    for &(w, h) in &[(80u32, 60u32), (320, 240)] {
        let m = Magnifier::new((100, 100, w, h), 3.0).unwrap();
        g.bench_with_input(BenchmarkId::new("lens_render", format!("{w}x{h}")), &w, |b, _| {
            b.iter(|| {
                let mut fb = base_fb.clone();
                m.render_into(&viewer, &composite, &mut fb, noop_ref()).unwrap();
                black_box(fb.ink_fraction())
            });
        });
    }
    g.finish();
}

fn fig10_stitch_slave(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig10_stitch_slave");
    // Slaving propagation chains.
    for &len in &[2usize, 16, 64] {
        g.bench_with_input(BenchmarkId::new("slave_chain_pan", len), &len, |b, &len| {
            let mut set = ViewerSet::new();
            for i in 0..len {
                set.insert(Viewer::new(format!("v{i}"), 100, 100));
            }
            for i in 1..len {
                set.slave(&format!("v{}", i - 1), &format!("v{i}")).unwrap();
            }
            b.iter(|| {
                set.pan_px("v0", 3, 1).unwrap();
                black_box(set.get(&format!("v{}", len - 1)).unwrap().position.center)
            });
        });
    }
    // Stitched group rendering.
    g.sample_size(12);
    for &members in &[2usize, 8] {
        let composites: Vec<Composite> = (0..members).map(|_| scatter_composite(2_000)).collect();
        let group = stitch(composites, Layout::Tabular { cols: 4 }).unwrap();
        let gw = GroupWindow::new(group, 800, 600).unwrap();
        g.bench_with_input(BenchmarkId::new("group_render", members), &members, |b, _| {
            b.iter(|| black_box(gw.render().unwrap().1.len()));
        });
    }
    g.finish();
}

fn fig11_replicate(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig11_replicate");
    g.sample_size(15);
    let cat = catalog(500, 0);
    let employees = cat.snapshot("Employees").unwrap();
    let dr = tioga2_display::defaults::make_display_relation(employees, "emps").unwrap();
    for &p in &[2usize, 4, 16, 64] {
        // p salary-band predicates.
        let preds: Vec<(String, tioga2_expr::Expr)> = (0..p)
            .map(|i| {
                let lo = 2000 + i * (8000 / p);
                let hi = 2000 + (i + 1) * (8000 / p);
                (format!("band{i}"), parse(&format!("salary >= {lo} AND salary < {hi}")).unwrap())
            })
            .collect();
        g.bench_with_input(BenchmarkId::new("partitions", p), &p, |b, _| {
            b.iter(|| {
                black_box(
                    replicate(&dr, PartitionSpec::Predicates(preds.clone()), None)
                        .unwrap()
                        .members
                        .len(),
                )
            });
        });
    }
    // The paper's tabular example: 2 predicates x department enum.
    g.bench_function("tabular_2x_departments", |b| {
        b.iter(|| {
            black_box(
                replicate(
                    &dr,
                    PartitionSpec::Predicates(vec![
                        ("lo".into(), parse("salary <= 5000").unwrap()),
                        ("hi".into(), parse("salary > 5000").unwrap()),
                    ]),
                    Some(PartitionSpec::Enumerate("department".into())),
                )
                .unwrap()
                .members
                .len(),
            )
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    fig6_drilldown,
    fig7_overlay_zoom_path,
    fig8_wormholes,
    fig9_magnifier,
    fig10_stitch_slave,
    fig11_replicate
);
criterion_main!(benches);
