//! Property test: delta-maintained caches are indistinguishable from
//! recompute-from-scratch.
//!
//! Random Restrict / Project / Sample / Sort / Distinct / Limit /
//! Rename chains (including `__seq`-dependent predicates and window
//! wraps) are demanded to warm the caches, then random edit sequences
//! are committed as tuple deltas via [`Engine::apply_delta`].  After
//! every edit, the warm engine's re-demand must be byte-identical —
//! schema, methods, display metadata, tuple contents, order and row
//! ids — to a cold engine evaluating the same graph over the same
//! catalog from scratch.  Operators with a delta rule are patched in
//! place; everything else must *fall back* to selective eviction and
//! still converge to the same answer.  A third property injects
//! chaos-harness faults (error and panic actions) mid-delta and checks
//! no poisoned cache survives.

use proptest::prelude::*;
use tioga2::dataflow::boxes::{BoxKind, RelOpKind};
use tioga2::dataflow::{Engine, Graph, NodeId};
use tioga2::display::{DisplayRelation, Displayable};
use tioga2::expr::{parse, ScalarType, Value};
use tioga2::relational::relation::RelationBuilder;
use tioga2::relational::update::{install_update_delta, FieldChange};
use tioga2::relational::{AggFunc, AggSpec, Catalog, FaultPlan, Relation};

fn arb_relation() -> impl Strategy<Value = Relation> {
    proptest::collection::vec((any::<i64>(), -1e6f64..1e6, "[a-z]{0,4}"), 1..40).prop_map(|rows| {
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

/// One op per seed triple, decoded against the columns still present at
/// that point in the chain so every generated program is total.  Tag 7
/// restricts on the default layout method `y = -__seq * 12`, forcing
/// the position-dependent fallback path.
fn decode_ops(seeds: &[(u8, u64, u64)]) -> Vec<RelOpKind> {
    let mut cols: Vec<(String, ScalarType)> = vec![
        ("k".into(), ScalarType::Int),
        ("v".into(), ScalarType::Float),
        ("s".into(), ScalarType::Text),
    ];
    let mut kinds = Vec::new();
    for (i, &(tag, a, b)) in seeds.iter().enumerate() {
        let pick = |x: u64| cols[(x as usize) % cols.len()].clone();
        match tag % 8 {
            0 => {
                let (c, t) = pick(a);
                let p = match t {
                    ScalarType::Int => format!("{c} > {}", (a % 100) as i64 - 50),
                    ScalarType::Float => {
                        format!("{c} <= {:.1}", (b % 2000) as f64 / 10.0 - 100.0)
                    }
                    _ => format!("{c} <> 'q'"),
                };
                kinds.push(RelOpKind::Restrict(parse(&p).unwrap()));
            }
            1 => {
                let mut keep: Vec<(String, ScalarType)> = cols
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| (a >> j) & 1 == 1)
                    .map(|(_, c)| c.clone())
                    .collect();
                if keep.is_empty() {
                    keep = cols.clone();
                }
                kinds.push(RelOpKind::Project(keep.iter().map(|c| c.0.clone()).collect()));
                cols = keep;
            }
            2 => kinds.push(RelOpKind::Sample { p: (a % 101) as f64 / 100.0, seed: b }),
            3 => {
                let mut keys = vec![(pick(a).0, a & 1 == 0)];
                if b & 1 == 1 {
                    let k2 = pick(b).0;
                    if k2 != keys[0].0 {
                        keys.push((k2, b & 2 == 0));
                    }
                }
                kinds.push(RelOpKind::Sort(keys));
            }
            4 => {
                let cs = if a % 2 == 0 { Vec::new() } else { vec![pick(b).0] };
                kinds.push(RelOpKind::Distinct(cs));
            }
            5 => {
                kinds.push(RelOpKind::Limit { offset: (a % 10) as usize, count: (b % 20) as usize })
            }
            6 => {
                let (from, t) = pick(a);
                let to = format!("r{i}");
                let idx = cols.iter().position(|c| c.0 == from).unwrap();
                cols[idx] = (to.clone(), t);
                kinds.push(RelOpKind::Rename { from, to });
            }
            7 => {
                let bound = -((a % 6) as f64) * 12.0;
                kinds.push(RelOpKind::Restrict(parse(&format!("y >= {bound:.1}")).unwrap()));
            }
            _ => unreachable!(),
        }
    }
    kinds
}

fn dr_of(d: Displayable) -> DisplayRelation {
    match d {
        Displayable::R(dr) => dr,
        other => panic!("expected R, got {}", other.type_tag()),
    }
}

fn build_chain(kinds: Vec<RelOpKind>) -> (Graph, NodeId) {
    let mut g = Graph::new();
    let t = g.add(BoxKind::Table("T".into()));
    let mut prev = t;
    for kind in kinds {
        let n = g.add(BoxKind::rel(kind));
        g.connect(prev, 0, n, 0).unwrap();
        prev = n;
    }
    (g, prev)
}

/// One edit against the base table: pick a live row, a stored field,
/// and a type-conforming new value.
fn apply_edit(catalog: &Catalog, edit: &(u64, u64, i64, String)) -> tioga2::relational::Delta {
    let (row_seed, field_seed, ival, sval) = edit;
    let snap = catalog.snapshot("T").unwrap();
    let row_id = snap.tuples()[(*row_seed as usize) % snap.len()].row_id;
    let (field, value) = match field_seed % 3 {
        0 => ("k", Value::Int(*ival)),
        1 => ("v", Value::Float((*ival % 2_000_000) as f64 / 1000.0)),
        _ => ("s", Value::Text(sval.clone())),
    };
    install_update_delta(catalog, "T", row_id, &[FieldChange { field: field.into(), value }])
        .unwrap()
}

fn edits_strategy() -> impl Strategy<Value = Vec<(u64, u64, i64, String)>> {
    proptest::collection::vec((any::<u64>(), any::<u64>(), any::<i64>(), "[a-z]{0,3}"), 1..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Warm caches + apply_delta == cold recompute, for any chain, any
    /// edit sequence, any worker count, with and without a window wrap.
    #[test]
    fn delta_maintained_equals_recompute(
        rel in arb_relation(),
        seeds in proptest::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 0..6),
        edits in edits_strategy(),
        window_pick in 0u8..3,
    ) {
        let (g, root) = build_chain(decode_ops(&seeds));
        let window = match window_pick {
            0 => None,
            // Content-dependent window: patchable when the chain is.
            1 => Some(parse("x >= 0.0").unwrap()),
            // `y` defaults to -__seq * 12: position-dependent fallback.
            _ => Some(parse("y >= 0.0 - 120.0").unwrap()),
        };
        for threads in [1usize, 2, 8] {
            let catalog = Catalog::new();
            catalog.register("T", rel.clone());
            let mut warm = Engine::new(catalog.clone());
            warm.set_threads(threads);
            warm.demand_planned_opts(&g, root, 0, true, window.as_ref()).unwrap();
            for edit in &edits {
                let delta = apply_edit(&catalog, edit);
                warm.apply_delta(&g, &delta);
                let got = dr_of(
                    warm.demand_planned_opts(&g, root, 0, true, window.as_ref())
                        .unwrap().into_displayable().unwrap(),
                );
                let mut cold = Engine::new(catalog.clone());
                cold.set_threads(threads);
                let want = dr_of(
                    cold.demand_planned_opts(&g, root, 0, true, window.as_ref())
                        .unwrap().into_displayable().unwrap(),
                );
                prop_assert!(
                    got == want,
                    "threads={} window={}: {:?} != {:?}",
                    threads,
                    window_pick,
                    got,
                    want
                );
            }
        }
    }

    /// Aggregates over the edited table: mergeable cells are patched,
    /// everything else (avg, ties, float sums, key changes) falls back —
    /// either way the memo answer equals a cold recompute.
    #[test]
    fn aggregate_delta_equals_recompute(
        rel in arb_relation(),
        edits in edits_strategy(),
        spec_seed in any::<u64>(),
    ) {
        let aggs = vec![
            AggSpec::count("n"),
            AggSpec::of(AggFunc::Sum, "k", "sk"),
            AggSpec::of(AggFunc::Min, "v", "lo"),
            AggSpec::of(AggFunc::Max, "v", "hi"),
            AggSpec::of(AggFunc::Avg, "k", "ak"),
        ];
        let keys = if spec_seed.is_multiple_of(2) { vec!["s".to_string()] } else { vec![] };
        let mut g = Graph::new();
        let t = g.add(BoxKind::Table("T".into()));
        let a = g.add(BoxKind::rel(RelOpKind::Aggregate { keys, aggs }));
        g.connect(t, 0, a, 0).unwrap();
        let catalog = Catalog::new();
        catalog.register("T", rel.clone());
        let mut warm = Engine::new(catalog.clone());
        warm.demand_planned(&g, a, 0).unwrap();
        for edit in &edits {
            let delta = apply_edit(&catalog, edit);
            warm.apply_delta(&g, &delta);
            let got = dr_of(warm.demand_planned(&g, a, 0).unwrap().into_displayable().unwrap());
            let mut cold = Engine::new(catalog.clone());
            let want = dr_of(cold.demand_planned(&g, a, 0).unwrap().into_displayable().unwrap());
            prop_assert_eq!(&got, &want);
        }
    }

    /// Chaos: a fault (error *or* panic action) injected at any `delta`
    /// patch site degrades that entry to eviction — never a poisoned
    /// cache, never `invalidate_all`.  The re-demand still equals a cold
    /// recompute, and unrelated-table entries survive the faulty delta.
    #[test]
    fn fault_mid_delta_leaves_no_poisoned_cache(
        rel in arb_relation(),
        seeds in proptest::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 0..5),
        edit in (any::<u64>(), any::<u64>(), any::<i64>(), "[a-z]{0,3}"),
        coord in 0u64..4,
        panic_action in any::<bool>(),
    ) {
        let (mut g, root) = build_chain(decode_ops(&seeds));
        // A second, unrelated table feeding its own chain.
        let u = g.add(BoxKind::Table("U".into()));
        let ur = g.add(BoxKind::rel(RelOpKind::Restrict(parse("k > -1000000").unwrap())));
        g.connect(u, 0, ur, 0).unwrap();
        let catalog = Catalog::new();
        catalog.register("T", rel.clone());
        catalog.register("U", rel.clone());
        let mut warm = Engine::new(catalog.clone());
        warm.demand_planned(&g, root, 0).unwrap();
        let unrelated_before =
            dr_of(warm.demand_planned(&g, ur, 0).unwrap().into_displayable().unwrap());
        let action = if panic_action { "panic" } else { "err" };
        warm.set_fault_plan(Some(FaultPlan::parse(&format!("delta:{coord}={action}")).unwrap()));
        let delta = apply_edit(&catalog, &edit);
        warm.apply_delta(&g, &delta);
        warm.set_fault_plan(None);
        let got = dr_of(warm.demand_planned(&g, root, 0).unwrap().into_displayable().unwrap());
        let mut cold = Engine::new(catalog.clone());
        let want = dr_of(cold.demand_planned(&g, root, 0).unwrap().into_displayable().unwrap());
        prop_assert_eq!(&got, &want);
        // The unrelated table's cone was never touched by the delta walk.
        let unrelated_after =
            dr_of(warm.demand_planned(&g, ur, 0).unwrap().into_displayable().unwrap());
        prop_assert_eq!(&unrelated_before, &unrelated_after);
    }
}
