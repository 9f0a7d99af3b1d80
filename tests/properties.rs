//! Cross-crate property-based tests (proptest) on the system's core
//! invariants — see DESIGN.md §5.

use proptest::prelude::*;
use tioga2::expr::{self, BinOp, Expr, ScalarType, UnaryOp, Value};
use tioga2::relational::ops;
use tioga2::relational::relation::RelationBuilder;
use tioga2::relational::Relation;

const KEYWORDS: &[&str] =
    &["and", "or", "not", "true", "false", "null", "if", "then", "else", "end"];

fn ident() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,6}".prop_filter("not a keyword", |s| !KEYWORDS.contains(&s.as_str()))
}

/// Literals whose printed form lexes back to the same literal.
fn printable_literal() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        // i64::MIN prints as a magnitude the lexer cannot re-admit.
        (i64::MIN + 1..i64::MAX).prop_map(Value::Int),
        any::<f64>()
            .prop_filter("finite", |x| x.is_finite())
            .prop_map(|x| Value::Float(if x == 0.0 { 0.0 } else { x })),
        ".*".prop_map(Value::Text),
    ]
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf =
        prop_oneof![printable_literal().prop_map(Expr::Literal), ident().prop_map(Expr::Attr),];
    leaf.prop_recursive(4, 24, 4, |inner| {
        prop_oneof![
            (any::<bool>(), inner.clone()).prop_map(|(neg, e)| {
                // Unary minus over a numeric literal folds in the parser;
                // avoid the non-roundtripping corner by wrapping literals.
                let op = if neg { UnaryOp::Neg } else { UnaryOp::Not };
                match (&op, &e) {
                    (UnaryOp::Neg, Expr::Literal(Value::Int(_) | Value::Float(_))) => e,
                    _ => Expr::Unary(op, Box::new(e)),
                }
            }),
            (
                prop_oneof![
                    Just(BinOp::Or),
                    Just(BinOp::And),
                    Just(BinOp::Eq),
                    Just(BinOp::Ne),
                    Just(BinOp::Lt),
                    Just(BinOp::Le),
                    Just(BinOp::Gt),
                    Just(BinOp::Ge),
                    Just(BinOp::Add),
                    Just(BinOp::Sub),
                    Just(BinOp::Concat),
                    Just(BinOp::Combine),
                    Just(BinOp::Mul),
                    Just(BinOp::Div),
                    Just(BinOp::Mod),
                ],
                inner.clone(),
                inner.clone()
            )
                .prop_map(|(op, l, r)| Expr::bin(op, l, r)),
            (ident(), proptest::collection::vec(inner.clone(), 0..3))
                .prop_map(|(name, args)| Expr::call(name, args)),
            (inner.clone(), inner.clone(), inner).prop_map(|(c, t, e)| Expr::If(
                Box::new(c),
                Box::new(t),
                Box::new(e)
            )),
        ]
    })
}

/// A small relation of integers/floats/texts for algebraic laws.
fn arb_relation() -> impl Strategy<Value = Relation> {
    proptest::collection::vec((any::<i64>(), -1e6f64..1e6, "[a-z]{0,4}"), 0..40).prop_map(|rows| {
        let mut b = RelationBuilder::new()
            .field("k", ScalarType::Int)
            .field("v", ScalarType::Float)
            .field("s", ScalarType::Text);
        for (k, v, s) in rows {
            b = b.row(vec![Value::Int(k), Value::Float(v), Value::Text(s)]);
        }
        b.build().unwrap()
    })
}

fn pred(src: &str) -> Expr {
    expr::parse(src).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The expression printer emits source that parses back to the same
    /// AST — the foundation of program persistence.
    #[test]
    fn expr_print_parse_roundtrip(e in arb_expr()) {
        let printed = e.to_string();
        let parsed = expr::parse(&printed)
            .unwrap_or_else(|err| panic!("printed `{printed}` failed to parse: {err}"));
        prop_assert_eq!(parsed, e);
    }

    /// Restrict is commutative and composable: filtering by p then q
    /// equals filtering by q then p equals filtering by p AND q.
    #[test]
    fn restrict_commutes(rel in arb_relation(), c1 in -1000i64..1000, c2 in -1000i64..1000) {
        let p = pred(&format!("k > {c1}"));
        let q = pred(&format!("k % 7 <> {}", c2.rem_euclid(7)));
        let pq = ops::restrict(&ops::restrict(&rel, &p).unwrap(), &q).unwrap();
        let qp = ops::restrict(&ops::restrict(&rel, &q).unwrap(), &p).unwrap();
        let conj = ops::restrict(&rel, &pred(&format!("k > {c1} AND k % 7 <> {}", c2.rem_euclid(7)))).unwrap();
        prop_assert_eq!(pq.tuples(), qp.tuples());
        prop_assert_eq!(pq.tuples(), conj.tuples());
    }

    /// Sample at probability 1 is the identity; at 0 it is empty; and it
    /// is deterministic in the seed.
    #[test]
    fn sample_boundaries(rel in arb_relation(), seed in any::<u64>(), p in 0.0f64..=1.0) {
        let all = ops::sample(&rel, 1.0, seed).unwrap();
        prop_assert_eq!(all.tuples(), rel.tuples());
        prop_assert_eq!(ops::sample(&rel, 0.0, seed).unwrap().len(), 0);
        let a = ops::sample(&rel, p, seed).unwrap();
        let b = ops::sample(&rel, p, seed).unwrap();
        prop_assert_eq!(a.tuples(), b.tuples());
        prop_assert!(a.len() <= rel.len());
    }

    /// Join with a TRUE predicate is the cross product; equijoin output
    /// is a subset of it.
    #[test]
    fn join_cardinalities(a in arb_relation(), b in arb_relation()) {
        let cross = ops::join(&a, &b, &pred("TRUE")).unwrap();
        prop_assert_eq!(cross.len(), a.len() * b.len());
        let eq = ops::join(&a, &b, &pred("k = k_2")).unwrap();
        prop_assert!(eq.len() <= cross.len());
        // The hash path agrees with the nested-loop path.
        let nl = ops::join(&a, &b, &pred("TRUE AND to_float(k) = to_float(k_2)")).unwrap();
        prop_assert_eq!(eq.len(), nl.len());
    }

    /// Sorting produces an ordered permutation.
    #[test]
    fn sort_is_ordered_permutation(rel in arb_relation()) {
        let sorted = ops::sort(&rel, &[("v", true)]).unwrap();
        prop_assert_eq!(sorted.len(), rel.len());
        let mut ids: Vec<u64> = sorted.tuples().iter().map(|t| t.row_id).collect();
        ids.sort_unstable();
        let mut orig: Vec<u64> = rel.tuples().iter().map(|t| t.row_id).collect();
        orig.sort_unstable();
        prop_assert_eq!(ids, orig);
        for w in sorted.tuples().windows(2) {
            let x = w[0].values()[1].as_f64().unwrap();
            let y = w[1].values()[1].as_f64().unwrap();
            prop_assert!(x <= y);
        }
    }

    /// Projection drops columns but never tuples, and keeps the relation
    /// displayable via re-defaulting.
    #[test]
    fn project_preserves_cardinality(rel in arb_relation()) {
        let p = ops::project(&rel, &["s", "k"]).unwrap();
        prop_assert_eq!(p.len(), rel.len());
        prop_assert_eq!(p.schema().len(), 2);
        let dr = tioga2::display::defaults::make_display_relation(p, "t").unwrap();
        dr.validate().unwrap();
    }

    /// Rendering any viewport over a random scatter never panics and
    /// never writes outside the buffer (implicit: Framebuffer bounds are
    /// enforced by construction).
    #[test]
    fn render_any_viewport_is_safe(
        rel in arb_relation(),
        cx in -1e9f64..1e9,
        cy in -1e9f64..1e9,
        elev in prop_oneof![1e-6f64..1e-3, 1e-3f64..1e3, 1e3f64..1e12],
    ) {
        use tioga2::display::{defaults, Composite};
        use tioga2::viewer::{compose_scene, CullOptions};
        let mut dr = defaults::make_display_relation(rel, "t").unwrap();
        dr.rel.set_method("x", ScalarType::Float, pred("v")).unwrap();
        dr.rel
            .set_method(
                "display",
                ScalarType::DrawList,
                pred("circle(1.0,'red') ++ rect(2.0,1.0,'blue') ++ line(3.0,3.0,'black') ++ text(s,'green')"),
            )
            .unwrap();
        let c = Composite::new(vec![dr]).unwrap();
        let vp = tioga2::render::Viewport::new((cx, cy), elev, 64, 64);
        let scene = compose_scene(&c, elev, &[], vp.world_bounds(), CullOptions::default()).unwrap();
        let mut fb = tioga2::render::Framebuffer::new(64, 64);
        let hits = tioga2::render::render_scene(&scene, &vp, &mut fb);
        prop_assert!(hits.len() <= scene.len());
    }

    /// Elevation culling never changes what is drawn when every layer is
    /// visible at the probe elevation (A2's correctness side).
    #[test]
    fn culling_is_invisible_when_nothing_culled(rel in arb_relation(), elev in 1.0f64..1e4) {
        use tioga2::display::{defaults, Composite};
        use tioga2::viewer::{compose_scene, CullOptions};
        let mut dr = defaults::make_display_relation(rel, "t").unwrap();
        dr.rel.set_method("x", ScalarType::Float, pred("v")).unwrap();
        let c = Composite::new(vec![dr]).unwrap();
        let vp = tioga2::render::Viewport::new((0.0, 0.0), elev, 48, 48);
        let on = compose_scene(&c, elev, &[], vp.world_bounds(), CullOptions { elevation: true, bounds: false }).unwrap();
        let off = compose_scene(&c, elev, &[], vp.world_bounds(), CullOptions { elevation: false, bounds: false }).unwrap();
        prop_assert_eq!(on, off);
    }

    /// Bounds culling changes which items enter the scene, but never the
    /// rendered pixels: culled items were invisible anyway.
    #[test]
    fn bounds_culling_preserves_pixels(rel in arb_relation(), cx in -100f64..100.0) {
        use tioga2::display::{defaults, Composite};
        use tioga2::viewer::{compose_scene, CullOptions};
        let mut dr = defaults::make_display_relation(rel, "t").unwrap();
        dr.rel.set_method("x", ScalarType::Float, pred("v / 1000.0")).unwrap();
        dr.rel
            .set_method("display", ScalarType::DrawList, pred("point('red') ++ nodraw()"))
            .unwrap();
        let c = Composite::new(vec![dr]).unwrap();
        let vp = tioga2::render::Viewport::new((cx, 0.0), 50.0, 64, 64);
        let culled = compose_scene(&c, 1.0, &[], vp.world_bounds(), CullOptions::default()).unwrap();
        let full = compose_scene(&c, 1.0, &[], vp.world_bounds(), CullOptions { elevation: true, bounds: false }).unwrap();
        let mut fb1 = tioga2::render::Framebuffer::new(64, 64);
        let mut fb2 = tioga2::render::Framebuffer::new(64, 64);
        tioga2::render::render_scene(&culled, &vp, &mut fb1);
        tioga2::render::render_scene(&full, &vp, &mut fb2);
        prop_assert_eq!(fb1.pixels(), fb2.pixels());
    }

    /// Relation persistence is lossless.
    #[test]
    fn relation_persistence_roundtrip(rel in arb_relation()) {
        let text = tioga2::relational::persist::save_relation(&rel).unwrap();
        let back = tioga2::relational::persist::load_relation(&text).unwrap();
        prop_assert_eq!(back.tuples(), rel.tuples());
        prop_assert_eq!(back.schema(), rel.schema());
    }
}

/// Random legal edit scripts keep the session invariant: no dangling
/// inputs, every canvas renders, undo restores the previous program.
#[test]
fn random_edit_scripts_preserve_visualizability() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tioga2::core::{Environment, Session};
    use tioga2::datagen::register_standard_catalog;
    use tioga2::relational::Catalog;

    for seed in 0..12u64 {
        let catalog = Catalog::new();
        register_standard_catalog(&catalog, 25, 3, seed);
        let mut s = Session::new(Environment::new(catalog));
        let mut rng = StdRng::seed_from_u64(seed);
        let t = s.add_table("Stations").unwrap();
        let mut frontier = t;
        let mut viewer_count = 0usize;

        for step in 0..30 {
            let before = s.graph.clone();
            let choice = rng.gen_range(0..8);
            let result = match choice {
                0 => s.restrict(frontier, "altitude > 10.0").map(|n| {
                    frontier = n;
                }),
                1 => s.sample(frontier, 0.8, rng.gen()).map(|n| {
                    frontier = n;
                }),
                2 => s.sort(frontier, &[("name", true)]).map(|n| {
                    frontier = n;
                }),
                3 => s.scale_attribute(frontier, "y", 2.0).map(|n| {
                    frontier = n;
                }),
                4 => {
                    viewer_count += 1;
                    s.add_viewer(frontier, &format!("c{viewer_count}")).map(|_| ())
                }
                5 => s.add_tee(frontier, 0).map(|_| ()).or(Ok::<(), tioga2::core::CoreError>(())),
                6 => s.set_range(frontier, 0.0, 1e6, Default::default()).map(|n| {
                    frontier = n;
                }),
                _ => {
                    // Undo/redo churn.
                    s.undo();
                    s.redo();
                    Ok(())
                }
            };
            let _ = result; // Edits may legitimately fail (e.g. tee with no edge).

            // Invariants after every step: every input port connected —
            // session-level edits never leave a box dangling.
            assert!(
                s.graph.dangling_inputs().is_empty(),
                "dangling inputs after step {step} (seed {seed})"
            );
            // Everything demanded renders.
            for c in s.canvas_names() {
                let frame = s.render(&c).unwrap_or_else(|e| panic!("canvas {c} failed: {e}"));
                let _ = frame;
            }
            // Undo exactly inverts the last successful edit.
            let after = s.graph.clone();
            if after != before && s.undo() {
                assert_eq!(
                    s.graph, before,
                    "undo must restore the pre-edit program (seed {seed}, step {step})"
                );
                assert!(s.redo());
                assert_eq!(s.graph, after);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Aggregation laws: grouped counts sum to the relation size, and the
    /// grouped sums add up to the global sum.
    #[test]
    fn aggregate_partition_laws(rel in arb_relation()) {
        use tioga2::relational::{aggregate, AggFunc, AggSpec};
        let grouped = aggregate(
            &rel,
            &["s"],
            &[AggSpec::count("n"), AggSpec::of(AggFunc::Sum, "v", "total")],
        )
        .unwrap();
        let n: i64 = grouped
            .tuples()
            .iter()
            .map(|t| match t.values()[1] {
                Value::Int(i) => i,
                _ => 0,
            })
            .sum();
        prop_assert_eq!(n as usize, rel.len());
        let group_sum: f64 = grouped
            .tuples()
            .iter()
            .filter_map(|t| t.values()[2].as_f64())
            .sum();
        let global = aggregate(&rel, &[], &[AggSpec::of(AggFunc::Sum, "v", "total")]).unwrap();
        let global_sum = global.tuples()[0].values()[0].as_f64().unwrap_or(0.0);
        prop_assert!((group_sum - global_sum).abs() <= 1e-6 * global_sum.abs().max(1.0));
        // Distinct group keys == number of groups.
        let d = tioga2::relational::distinct(&rel, &["s"]).unwrap();
        prop_assert_eq!(d.len(), grouped.len());
    }

    /// Replicate with complementary predicates is an exhaustive,
    /// disjoint partition of the tuples.
    #[test]
    fn replicate_partitions_exhaustively(rel in arb_relation(), cut in -1000i64..1000) {
        use tioga2::display::compose::{replicate, PartitionSpec};
        use tioga2::display::defaults::make_display_relation;
        let dr = make_display_relation(rel.clone(), "t").unwrap();
        let g = replicate(
            &dr,
            PartitionSpec::Predicates(vec![
                ("lo".into(), pred(&format!("k <= {cut}"))),
                ("hi".into(), pred(&format!("k > {cut}"))),
            ]),
            None,
        )
        .unwrap();
        let total: usize = g.members.iter().map(|m| m.layers[0].rel.len()).sum();
        prop_assert_eq!(total, rel.len());
        // Disjoint: no row id appears in both partitions.
        let lo: std::collections::HashSet<u64> =
            g.members[0].layers[0].rel.tuples().iter().map(|t| t.row_id).collect();
        for t in g.members[1].layers[0].rel.tuples() {
            prop_assert!(!lo.contains(&t.row_id));
        }
    }
}
