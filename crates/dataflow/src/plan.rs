//! The logical query plan lowered from maximal relational box chains.
//!
//! The box graph is the *program*; this module is the *plan* the engine
//! actually runs for a demanded visualization.  [`crate::lower::lower`]
//! extracts a chain of relational operators (Restrict / Project / Sample /
//! Sort / Distinct / Limit / Rename / Join) into a [`Plan`] tree whose
//! leaves are [`Plan::Source`] boundaries evaluated through the normal
//! memoized engine path.  A rule-based [`rewrite`] pass then fuses and
//! pushes operators (classic relational rewrites, guarded for Tioga-2's
//! position-dependent `__seq` semantics), and [`execute`] runs the result
//! as a pull-based [`TupleStream`] pipeline with early exit.
//!
//! Display metadata (location/display attributes, offsets, default
//! methods added by `redefault`) is *replayed* from the **original**
//! plan via [`header_of`], so rewrites only ever have to preserve the
//! stored-tuple contents, never the per-stage metadata bookkeeping.

use crate::engine::apply_rel_op;
use crate::error::FlowError;
use crate::graph::{Graph, NodeId};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tioga2_display::defaults::redefault;
use tioga2_display::DisplayRelation;
use tioga2_expr::{BinOp, Expr, ScalarType, Value};
use tioga2_relational::ops::{self, join_renames};
use tioga2_relational::{
    BudgetMeter, FaultPlan, OpCell, ParPipeline, Relation, Tuple, TupleContext, TupleStream,
    SEQ_ATTR,
};

use crate::boxes::RelOpKind;

/// Boundary values the plan executor reads: the fully evaluated display
/// relation on each `(node, out_port)` source of the plan.
pub type SourceMap = HashMap<(NodeId, usize), DisplayRelation>;

/// A logical plan over one demanded output.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// A boundary: anything the lowering pass does not absorb (base
    /// tables, aggregates, attribute ops, multi-consumer boxes, C/G
    /// shaped data).  Evaluated through `Engine::demand`, keeping the
    /// per-box memo cache semantics intact.
    Source {
        node: NodeId,
        port: usize,
    },
    Restrict {
        input: Box<Plan>,
        pred: Expr,
    },
    Project {
        input: Box<Plan>,
        cols: Vec<String>,
    },
    Sample {
        input: Box<Plan>,
        p: f64,
        seed: u64,
    },
    Sort {
        input: Box<Plan>,
        keys: Vec<(String, bool)>,
    },
    Distinct {
        input: Box<Plan>,
        cols: Vec<String>,
    },
    Limit {
        input: Box<Plan>,
        offset: usize,
        count: usize,
    },
    Rename {
        input: Box<Plan>,
        from: String,
        to: String,
    },
    Join {
        left: Box<Plan>,
        right: Box<Plan>,
        pred: Expr,
    },
}

impl Plan {
    pub fn is_source(&self) -> bool {
        matches!(self, Plan::Source { .. })
    }

    /// All boundary `(node, port)` pairs, in deterministic traversal
    /// order (left-to-right, leaves of the tree).
    pub fn sources(&self) -> Vec<(NodeId, usize)> {
        let mut out = Vec::new();
        self.collect_sources(&mut out);
        out
    }

    fn collect_sources(&self, out: &mut Vec<(NodeId, usize)>) {
        match self {
            Plan::Source { node, port } => {
                if !out.contains(&(*node, *port)) {
                    out.push((*node, *port));
                }
            }
            Plan::Restrict { input, .. }
            | Plan::Project { input, .. }
            | Plan::Sample { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Distinct { input, .. }
            | Plan::Limit { input, .. }
            | Plan::Rename { input, .. } => input.collect_sources(out),
            Plan::Join { left, right, .. } => {
                left.collect_sources(out);
                right.collect_sources(out);
            }
        }
    }

    /// Direct children, in execution order (unary input; Join: left then
    /// right).  [`AttrNode`] trees and trace trees mirror this order.
    pub fn children(&self) -> Vec<&Plan> {
        match self {
            Plan::Source { .. } => Vec::new(),
            Plan::Restrict { input, .. }
            | Plan::Project { input, .. }
            | Plan::Sample { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Distinct { input, .. }
            | Plan::Limit { input, .. }
            | Plan::Rename { input, .. } => vec![input],
            Plan::Join { left, right, .. } => vec![left, right],
        }
    }

    /// Number of operator nodes (sources excluded).
    pub fn op_count(&self) -> usize {
        match self {
            Plan::Source { .. } => 0,
            Plan::Restrict { input, .. }
            | Plan::Project { input, .. }
            | Plan::Sample { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Distinct { input, .. }
            | Plan::Limit { input, .. }
            | Plan::Rename { input, .. } => 1 + input.op_count(),
            Plan::Join { left, right, .. } => 1 + left.op_count() + right.op_count(),
        }
    }

    /// Canonical one-line form; two plans are the same iff their canon
    /// strings are equal.  The engine fingerprints this.
    pub fn canon(&self) -> String {
        let mut s = String::new();
        self.fmt_canon(&mut s);
        s
    }

    fn fmt_canon(&self, s: &mut String) {
        match self {
            Plan::Source { node, port } => {
                s.push_str(&format!("src({node}.{port})"));
            }
            Plan::Restrict { input, pred } => {
                s.push_str(&format!("restrict[{pred}]("));
                input.fmt_canon(s);
                s.push(')');
            }
            Plan::Project { input, cols } => {
                s.push_str(&format!("project[{}](", cols.join(",")));
                input.fmt_canon(s);
                s.push(')');
            }
            Plan::Sample { input, p, seed } => {
                s.push_str(&format!("sample[{p:?},{seed}]("));
                input.fmt_canon(s);
                s.push(')');
            }
            Plan::Sort { input, keys } => {
                let ks: Vec<String> = keys
                    .iter()
                    .map(|(k, asc)| format!("{k}{}", if *asc { "+" } else { "-" }))
                    .collect();
                s.push_str(&format!("sort[{}](", ks.join(",")));
                input.fmt_canon(s);
                s.push(')');
            }
            Plan::Distinct { input, cols } => {
                s.push_str(&format!("distinct[{}](", cols.join(",")));
                input.fmt_canon(s);
                s.push(')');
            }
            Plan::Limit { input, offset, count } => {
                s.push_str(&format!("limit[{offset},{count}]("));
                input.fmt_canon(s);
                s.push(')');
            }
            Plan::Rename { input, from, to } => {
                s.push_str(&format!("rename[{from}->{to}]("));
                input.fmt_canon(s);
                s.push(')');
            }
            Plan::Join { left, right, pred } => {
                s.push_str(&format!("join[{pred}]("));
                left.fmt_canon(s);
                s.push(',');
                right.fmt_canon(s);
                s.push(')');
            }
        }
    }

    /// Multi-line indented rendering for `:explain`.  Box names are
    /// looked up in `graph` when available.
    pub fn pretty(&self, graph: &Graph) -> String {
        let mut s = String::new();
        self.fmt_pretty(graph, 0, &mut s);
        s
    }

    /// The one-line label of this node alone, exactly as [`pretty`]
    /// prints it (and as trace trees report it).
    ///
    /// [`pretty`]: Plan::pretty
    pub fn node_label(&self, graph: &Graph) -> String {
        match self {
            Plan::Source { node, port } => {
                let name = graph.node(*node).map(|n| n.name()).unwrap_or_else(|_| "?".to_string());
                format!("Source {node}.{port} ({name})")
            }
            Plan::Restrict { pred, .. } => format!("Restrict {pred}"),
            Plan::Project { cols, .. } => format!("Project [{}]", cols.join(", ")),
            Plan::Sample { p, seed, .. } => format!("Sample p={p} seed={seed}"),
            Plan::Sort { keys, .. } => {
                let ks: Vec<String> = keys
                    .iter()
                    .map(|(k, asc)| format!("{k} {}", if *asc { "asc" } else { "desc" }))
                    .collect();
                format!("Sort [{}]", ks.join(", "))
            }
            Plan::Distinct { cols, .. } => format!("Distinct [{}]", cols.join(", ")),
            Plan::Limit { offset, count, .. } => format!("Limit offset={offset} count={count}"),
            Plan::Rename { from, to, .. } => format!("Rename {from} -> {to}"),
            Plan::Join { pred, .. } => format!("Join on {pred}"),
        }
    }

    fn fmt_pretty(&self, graph: &Graph, depth: usize, s: &mut String) {
        let pad = "  ".repeat(depth);
        s.push_str(&format!("{pad}{}\n", self.node_label(graph)));
        for child in self.children() {
            child.fmt_pretty(graph, depth + 1, s);
        }
    }
}

/// FNV-1a over a byte string (same constants as the engine's signature
/// hash, applied to the plan's canonical form).
pub(crate) fn hash_str(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

fn missing_source(node: NodeId, port: usize) -> FlowError {
    FlowError::Eval(format!("plan source {node}.{port} was not evaluated"))
}

/// Replay the display-relation *header* (schema, methods — including
/// `redefault`-added ones — and display metadata) a plan node produces,
/// without touching any tuples.  This is exactly the engine's per-box
/// metadata path ([`apply_rel_op`] / join + `redefault`) applied to
/// emptied relations.
pub fn header_of(plan: &Plan, srcs: &SourceMap) -> Result<DisplayRelation, FlowError> {
    match plan {
        Plan::Source { node, port } => {
            let dr = srcs.get(&(*node, *port)).ok_or_else(|| missing_source(*node, *port))?;
            let mut h = dr.clone();
            h.rel = h.rel.with_tuples(Vec::new());
            Ok(h)
        }
        Plan::Restrict { input, pred } => {
            Ok(apply_rel_op(&RelOpKind::Restrict(pred.clone()), &header_of(input, srcs)?)?)
        }
        Plan::Project { input, cols } => {
            Ok(apply_rel_op(&RelOpKind::Project(cols.clone()), &header_of(input, srcs)?)?)
        }
        Plan::Sample { input, p, seed } => {
            Ok(apply_rel_op(&RelOpKind::Sample { p: *p, seed: *seed }, &header_of(input, srcs)?)?)
        }
        Plan::Sort { input, keys } => {
            Ok(apply_rel_op(&RelOpKind::Sort(keys.clone()), &header_of(input, srcs)?)?)
        }
        Plan::Distinct { input, cols } => {
            Ok(apply_rel_op(&RelOpKind::Distinct(cols.clone()), &header_of(input, srcs)?)?)
        }
        Plan::Limit { input, offset, count } => Ok(apply_rel_op(
            &RelOpKind::Limit { offset: *offset, count: *count },
            &header_of(input, srcs)?,
        )?),
        Plan::Rename { input, from, to } => Ok(apply_rel_op(
            &RelOpKind::Rename { from: from.clone(), to: to.clone() },
            &header_of(input, srcs)?,
        )?),
        Plan::Join { left, right, pred } => {
            let lh = header_of(left, srcs)?;
            let rh = header_of(right, srcs)?;
            let joined = ops::join(&lh.rel, &rh.rel, pred)?;
            Ok(redefault(joined, &lh)?)
        }
    }
}

/// Delta rule for pure unary Restrict / Project / Rename chains over a
/// single base-table source: patch `cached` — the memoized output of
/// `plan` — in place for the row changes of a base-table delta, instead
/// of evicting and recomputing the whole chain.
///
/// Soundness rests on three chain invariants: these operators are 1:1
/// (or filtering) and order-preserving over the base scan, they
/// preserve `row_id` (project rebuilds values but keeps identity,
/// rename is schema-only), and — checked here per stage — no restrict
/// predicate's transitive closure observes `__seq`, so membership of a
/// tuple is decided by its values alone, independent of position.
/// Any other operator (Sort, Distinct, Sample, Limit, Join), a
/// `__seq`-dependent predicate, or an evaluation error returns `None`
/// and the caller falls back to invalidation.
///
/// `base` is the *post-update* display relation of the table source
/// (headers are content-independent, so replaying stage metadata on it
/// is exact); `cached` is patched copy-on-write and returned.
pub fn patch_chain(
    plan: &Plan,
    base: &DisplayRelation,
    cached: &DisplayRelation,
    changes: &[tioga2_relational::RowChange],
) -> Option<DisplayRelation> {
    use tioga2_relational::RowChange;

    // Walk root -> source, collecting the patchable stages.
    enum Stage<'a> {
        Restrict(&'a Expr),
        Project(&'a [String]),
        Rename(&'a str, &'a str),
    }
    let mut stages: Vec<Stage> = Vec::new();
    let mut cur = plan;
    loop {
        match cur {
            Plan::Source { .. } => break,
            Plan::Restrict { input, pred } => {
                stages.push(Stage::Restrict(pred));
                cur = input;
            }
            Plan::Project { input, cols } => {
                stages.push(Stage::Project(cols));
                cur = input;
            }
            Plan::Rename { input, from, to } => {
                stages.push(Stage::Rename(from, to));
                cur = input;
            }
            _ => return None,
        }
    }
    stages.reverse();

    // Replay the *input* header of every stage bottom-up (`__seq`-free
    // predicate closures are checked against the header they evaluate
    // on, exactly as the rewriter does).
    let mut header = base.clone();
    header.rel = header.rel.with_tuples(Vec::new());
    let mut in_headers: Vec<DisplayRelation> = Vec::with_capacity(stages.len());
    for s in &stages {
        in_headers.push(header.clone());
        let op = match s {
            Stage::Restrict(pred) => {
                if closure_uses_seq(pred, &header.rel) {
                    return None;
                }
                RelOpKind::Restrict((*pred).clone())
            }
            Stage::Project(cols) => RelOpKind::Project(cols.to_vec()),
            Stage::Rename(from, to) => {
                RelOpKind::Rename { from: (*from).to_string(), to: (*to).to_string() }
            }
        };
        header = apply_rel_op(&op, &header).ok()?;
    }

    // Push one tuple through all stages: `Some(t)` survives, `None` is
    // filtered out.  Errors surface as a fallback via `?` in the caller.
    let push = |t: &Tuple| -> Result<Option<Tuple>, FlowError> {
        let mut cur = t.clone();
        for (s, h) in stages.iter().zip(&in_headers) {
            match s {
                Stage::Restrict(pred) => {
                    let ctx = TupleContext::new(&h.rel, &cur, 0);
                    if !tioga2_expr::eval_predicate(pred, &ctx).map_err(FlowError::from)? {
                        return Ok(None);
                    }
                }
                Stage::Project(cols) => {
                    let mut vals = Vec::with_capacity(cols.len());
                    for c in cols.iter() {
                        let i = h.rel.schema().index_of(c).ok_or_else(|| {
                            FlowError::from(tioga2_relational::RelError::UnknownAttribute(
                                c.clone(),
                            ))
                        })?;
                        vals.push(cur.values()[i].clone());
                    }
                    cur = Tuple::new(cur.row_id, vals);
                }
                // Schema-only: the tuple's values are untouched.
                Stage::Rename(..) => {}
            }
        }
        Ok(Some(cur))
    };

    let mut tuples = cached.rel.tuples().to_vec();
    for ch in changes {
        let find = |ts: &[Tuple], rid: u64| ts.iter().position(|t| t.row_id == rid);
        match ch {
            RowChange::Update { old, new } => {
                let was_in = push(old).ok()?;
                let now_in = push(new).ok()?;
                match (was_in, now_in) {
                    (Some(_), Some(n)) => {
                        let pos = find(&tuples, old.row_id)?;
                        tuples[pos] = n;
                    }
                    (Some(_), None) => {
                        let pos = find(&tuples, old.row_id)?;
                        tuples.remove(pos);
                    }
                    (None, Some(n)) => insert_in_base_order(&mut tuples, n, &base.rel)?,
                    (None, None) => {}
                }
            }
            RowChange::Insert { new } => {
                if let Some(n) = push(new).ok()? {
                    insert_in_base_order(&mut tuples, n, &base.rel)?;
                }
            }
            RowChange::Delete { old } => {
                // The old tuple may or may not have passed the filters;
                // absence from the cached output is not an error.
                if push(old).ok()?.is_some() {
                    let pos = find(&tuples, old.row_id)?;
                    tuples.remove(pos);
                }
            }
        }
    }
    let mut out = cached.clone();
    out.rel = cached.rel.with_tuples(tuples);
    Some(out)
}

/// Insert `t` into `out` (a filtered, order-preserving projection of
/// `base`) at the position matching base-table order: directly before
/// the first later base row that survived, or at the end.  `None` when
/// `t`'s row is not in `base` at all (caller falls back).
fn insert_in_base_order(out: &mut Vec<Tuple>, t: Tuple, base: &Relation) -> Option<()> {
    let base_pos = base.tuples().iter().position(|b| b.row_id == t.row_id)?;
    let successors: std::collections::HashSet<u64> =
        base.tuples()[base_pos + 1..].iter().map(|b| b.row_id).collect();
    let at = out.iter().position(|o| successors.contains(&o.row_id)).unwrap_or(out.len());
    out.insert(at, t);
    Some(())
}

/// Per-rule application counts from one [`rewrite`] run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RewriteStats {
    pub counts: BTreeMap<&'static str, u64>,
}

impl RewriteStats {
    fn bump(&mut self, rule: &'static str) {
        *self.counts.entry(rule).or_insert(0) += 1;
    }

    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }
}

/// Transitive attribute closure of `pred` against `header`: directly
/// referenced attributes plus everything their method definitions pull
/// in.  Position-dependence shows up as [`SEQ_ATTR`] in this set.
fn closure(pred: &Expr, header: &Relation) -> Vec<String> {
    pred.referenced_attrs_closure(|name| header.method(name).map(|m| m.def.clone()))
}

fn closure_uses_seq(pred: &Expr, header: &Relation) -> bool {
    closure(pred, header).iter().any(|a| a == SEQ_ATTR)
}

/// Can `pred`, currently evaluated against `outer` (the output of a 1:1
/// order-preserving operator over `inner`), be evaluated against `inner`
/// with identical results?  True when every attribute in its transitive
/// closure is either `__seq`, a stored field of `inner`, or a method
/// defined identically in both.
fn pred_transfers(pred: &Expr, outer: &Relation, inner: &Relation) -> bool {
    for name in closure(pred, outer) {
        if name == SEQ_ATTR {
            continue;
        }
        if outer.schema().names().any(|n| n == name) {
            // Stored in the outer relation: must be stored (same column)
            // in the inner one too.
            if inner.schema().names().any(|n| n == name) {
                continue;
            }
            return false;
        }
        match (outer.method(&name), inner.method(&name)) {
            (Some(o), Some(i)) if o.def == i.def && o.ty == i.ty => {}
            _ => return false,
        }
    }
    true
}

/// Flatten an `And` tree into its conjuncts, left to right.
fn conjuncts(pred: &Expr) -> Vec<Expr> {
    match pred {
        Expr::Binary(BinOp::And, l, r) => {
            let mut out = conjuncts(l);
            out.extend(conjuncts(r));
            out
        }
        other => vec![other.clone()],
    }
}

fn and_all(mut preds: Vec<Expr>) -> Option<Expr> {
    preds.reverse();
    let first = preds.pop()?;
    Some(
        preds
            .into_iter()
            .rev()
            .fold(first, |acc, p| Expr::Binary(BinOp::And, Box::new(acc), Box::new(p))),
    )
}

/// Rewrite `plan` to a cheaper equivalent.  Every rule preserves the
/// stored tuple contents and order exactly (display metadata comes from
/// replaying the *original* plan, so it is outside the rules' proof
/// obligation); the only observable difference permitted is the synthetic
/// `row_id` numbering of join outputs, which carry no provenance
/// (`source = None`) and are not update-traceable.
pub fn rewrite(plan: Plan, srcs: &SourceMap) -> (Plan, RewriteStats) {
    let mut stats = RewriteStats::default();
    let mut current = plan;
    // Fixpoint: each pass applies rules bottom-up; chains are tiny so a
    // generous iteration cap guards against rule ping-pong.
    for _ in 0..32 {
        let (next, changed) = rewrite_pass(current, srcs, &mut stats);
        current = next;
        if !changed {
            break;
        }
    }
    (current, stats)
}

fn rewrite_pass(plan: Plan, srcs: &SourceMap, stats: &mut RewriteStats) -> (Plan, bool) {
    // Rewrite children first.
    let (plan, mut changed) = match plan {
        Plan::Source { .. } => (plan, false),
        Plan::Restrict { input, pred } => {
            let (i, c) = rewrite_pass(*input, srcs, stats);
            (Plan::Restrict { input: Box::new(i), pred }, c)
        }
        Plan::Project { input, cols } => {
            let (i, c) = rewrite_pass(*input, srcs, stats);
            (Plan::Project { input: Box::new(i), cols }, c)
        }
        Plan::Sample { input, p, seed } => {
            let (i, c) = rewrite_pass(*input, srcs, stats);
            (Plan::Sample { input: Box::new(i), p, seed }, c)
        }
        Plan::Sort { input, keys } => {
            let (i, c) = rewrite_pass(*input, srcs, stats);
            (Plan::Sort { input: Box::new(i), keys }, c)
        }
        Plan::Distinct { input, cols } => {
            let (i, c) = rewrite_pass(*input, srcs, stats);
            (Plan::Distinct { input: Box::new(i), cols }, c)
        }
        Plan::Limit { input, offset, count } => {
            let (i, c) = rewrite_pass(*input, srcs, stats);
            (Plan::Limit { input: Box::new(i), offset, count }, c)
        }
        Plan::Rename { input, from, to } => {
            let (i, c) = rewrite_pass(*input, srcs, stats);
            (Plan::Rename { input: Box::new(i), from, to }, c)
        }
        Plan::Join { left, right, pred } => {
            let (l, cl) = rewrite_pass(*left, srcs, stats);
            let (r, cr) = rewrite_pass(*right, srcs, stats);
            (Plan::Join { left: Box::new(l), right: Box::new(r), pred }, cl || cr)
        }
    };
    match rewrite_node(plan, srcs, stats) {
        (p, true) => {
            changed = true;
            (p, changed)
        }
        (p, false) => (p, changed),
    }
}

/// Try each rule at this node; returns the (possibly) rewritten node and
/// whether anything fired.
fn rewrite_node(plan: Plan, srcs: &SourceMap, stats: &mut RewriteStats) -> (Plan, bool) {
    // Headers are only needed inside guards; a replay failure simply
    // vetoes the rule (execution of the unrewritten plan will surface the
    // same error the naive path would).
    let hdr = |p: &Plan| header_of(p, srcs).ok();

    match plan {
        Plan::Restrict { input, pred: q } => match *input {
            // ---- restrict fusion: σq(σp(x)) → σ(p ∧ q)(x) --------------
            // q must not be position-dependent: fusing evaluates it at
            // x's pre-filter `__seq` positions.  p keeps its positions
            // either way, and `And` short-circuits left-to-right, so rows
            // that fail p never evaluate q — error semantics match the
            // unfused form.
            Plan::Restrict { input: x, pred: p } => {
                let ok = hdr(&x).map(|h| !closure_uses_seq(&q, &h.rel)).unwrap_or(false);
                if ok {
                    stats.bump("fuse_restricts");
                    (
                        Plan::Restrict {
                            input: x,
                            pred: Expr::Binary(BinOp::And, Box::new(p), Box::new(q)),
                        },
                        true,
                    )
                } else {
                    (
                        Plan::Restrict {
                            input: Box::new(Plan::Restrict { input: x, pred: p }),
                            pred: q,
                        },
                        false,
                    )
                }
            }

            // ---- predicate pushdown below Project ----------------------
            // Project is 1:1 and order-preserving (`__seq` is unchanged),
            // so the predicate transfers whenever everything it reads is
            // visible below with the same meaning.
            Plan::Project { input: x, cols } => {
                let outer = Plan::Project { input: x, cols };
                let ok = match (hdr(&outer), {
                    let Plan::Project { input, .. } = &outer else { unreachable!() };
                    hdr(input)
                }) {
                    (Some(o), Some(i)) => pred_transfers(&q, &o.rel, &i.rel),
                    _ => false,
                };
                let Plan::Project { input: x, cols } = outer else { unreachable!() };
                if ok {
                    stats.bump("push_restrict_below_project");
                    (
                        Plan::Project {
                            input: Box::new(Plan::Restrict { input: x, pred: q }),
                            cols,
                        },
                        true,
                    )
                } else {
                    (
                        Plan::Restrict {
                            input: Box::new(Plan::Project { input: x, cols }),
                            pred: q,
                        },
                        false,
                    )
                }
            }

            // ---- predicate pushdown below Rename -----------------------
            // Rewrite references to the new name back to the old one; the
            // operator is 1:1 so `__seq` is unaffected.  Blocked only if
            // the predicate already mentions the old name (rewriting
            // would conflate the two).
            Plan::Rename { input: x, from, to } => {
                if !q.referenced_attrs().contains(&from) {
                    let mut q2 = q.clone();
                    q2.rename_attr(&to, &from);
                    stats.bump("push_restrict_below_rename");
                    (
                        Plan::Rename {
                            input: Box::new(Plan::Restrict { input: x, pred: q2 }),
                            from,
                            to,
                        },
                        true,
                    )
                } else {
                    (
                        Plan::Restrict {
                            input: Box::new(Plan::Rename { input: x, from, to }),
                            pred: q,
                        },
                        false,
                    )
                }
            }

            // ---- predicate pushdown below Sort -------------------------
            // Sort is stable and schema-preserving; filtering first keeps
            // the surviving rows in the same relative order.  Blocked for
            // position-dependent predicates (sorting renumbers `__seq`).
            Plan::Sort { input: x, keys } => {
                let ok = hdr(&x).map(|h| !closure_uses_seq(&q, &h.rel)).unwrap_or(false);
                if ok {
                    stats.bump("push_restrict_below_sort");
                    (
                        Plan::Sort { input: Box::new(Plan::Restrict { input: x, pred: q }), keys },
                        true,
                    )
                } else {
                    (
                        Plan::Restrict { input: Box::new(Plan::Sort { input: x, keys }), pred: q },
                        false,
                    )
                }
            }

            // ---- predicate pushdown below Join -------------------------
            // Split the predicate into conjuncts and push each one that
            // reads stored fields of exactly one side.  Sound only when
            // the join predicate itself is position-independent (pushing
            // a filter renumbers the inputs' `__seq`).  Join output
            // `row_id`s are renumbered; they are synthetic (source=None).
            Plan::Join { left, right, pred: jp } => {
                try_push_below_join(q, left, right, jp, srcs, stats)
            }

            other => (Plan::Restrict { input: Box::new(other), pred: q }, false),
        },

        // ---- Sample pushdown below Project / Rename --------------------
        // Both are 1:1 and order-preserving, so the same Bernoulli draws
        // hit the same rows; sampling first avoids projecting rows that
        // are about to be dropped.  Sample must NOT move below Sort,
        // Restrict, Distinct or Limit (the draw sequence is positional).
        Plan::Sample { input, p, seed } => match *input {
            Plan::Project { input: x, cols } => {
                stats.bump("push_sample_below_project");
                (Plan::Project { input: Box::new(Plan::Sample { input: x, p, seed }), cols }, true)
            }
            Plan::Rename { input: x, from, to } => {
                stats.bump("push_sample_below_rename");
                (
                    Plan::Rename { input: Box::new(Plan::Sample { input: x, p, seed }), from, to },
                    true,
                )
            }
            other => (Plan::Sample { input: Box::new(other), p, seed }, false),
        },

        // ---- Limit pushdown below Project / Rename ---------------------
        Plan::Limit { input, offset, count } => match *input {
            Plan::Project { input: x, cols } => {
                stats.bump("push_limit_below_project");
                (
                    Plan::Project {
                        input: Box::new(Plan::Limit { input: x, offset, count }),
                        cols,
                    },
                    true,
                )
            }
            Plan::Rename { input: x, from, to } => {
                stats.bump("push_limit_below_rename");
                (
                    Plan::Rename {
                        input: Box::new(Plan::Limit { input: x, offset, count }),
                        from,
                        to,
                    },
                    true,
                )
            }
            other => (Plan::Limit { input: Box::new(other), offset, count }, false),
        },

        // ---- projection pruning ----------------------------------------
        Plan::Project { input, cols } => match *input {
            // π_c1(π_c2(x)) → π_c1(x), legal when c1 ⊆ c2 (otherwise the
            // original plan errors on a missing column and the collapsed
            // one might not).  All of c2 are stored fields of x, so c1
            // resolves below.  Method retention and redefault compose to
            // the same header either way — and the final display metadata
            // is replayed from the original plan regardless.
            Plan::Project { input: x, cols: inner } if cols.iter().all(|c| inner.contains(c)) => {
                stats.bump("collapse_projects");
                (Plan::Project { input: x, cols }, true)
            }
            other => {
                // π_all(x) → x when the replayed headers are identical,
                // i.e. the projection neither drops columns nor perturbs
                // methods or display metadata.
                let candidate = Plan::Project { input: Box::new(other), cols };
                let identical = {
                    let Plan::Project { input, .. } = &candidate else { unreachable!() };
                    matches!((hdr(&candidate), hdr(input)), (Some(a), Some(b)) if a == b)
                };
                if identical {
                    let Plan::Project { input, .. } = candidate else { unreachable!() };
                    stats.bump("drop_noop_project");
                    (*input, true)
                } else {
                    (candidate, false)
                }
            }
        },

        other => (other, false),
    }
}

/// Pushdown of restrict conjuncts below a join (see `rewrite_node`).
fn try_push_below_join(
    q: Expr,
    left: Box<Plan>,
    right: Box<Plan>,
    jp: Expr,
    srcs: &SourceMap,
    stats: &mut RewriteStats,
) -> (Plan, bool) {
    let rebuilt = |l: Box<Plan>, r: Box<Plan>, q: Expr, jp: Expr| Plan::Restrict {
        input: Box::new(Plan::Join { left: l, right: r, pred: jp }),
        pred: q,
    };

    let (Some(lh), Some(rh)) = (header_of(&left, srcs).ok(), header_of(&right, srcs).ok()) else {
        return (rebuilt(left, right, q, jp), false);
    };
    // The join predicate sees per-side `__seq`; filtering an input would
    // renumber it.
    let jp_uses_seq = jp
        .referenced_attrs_closure(|name| {
            lh.rel.method(name).or_else(|| rh.rel.method(name)).map(|m| m.def.clone())
        })
        .iter()
        .any(|a| a == SEQ_ATTR);
    if jp_uses_seq {
        return (rebuilt(left, right, q, jp), false);
    }
    let Ok((_, right_renames)) = join_renames(&lh.rel, &rh.rel) else {
        return (rebuilt(left, right, q, jp), false);
    };
    let left_fields: Vec<String> = lh.rel.schema().names().map(str::to_string).collect();

    let mut push_left = Vec::new();
    let mut push_right = Vec::new();
    let mut residual = Vec::new();
    for c in conjuncts(&q) {
        let refs = c.referenced_attrs();
        // Only stored-field conjuncts move: their values are identical
        // before and after the join, independent of `__seq` and methods.
        let all_left = !refs.is_empty() && refs.iter().all(|a| left_fields.contains(a));
        let all_right = !refs.is_empty()
            && refs.iter().all(|a| {
                right_renames.contains_key(a)
                    || (!left_fields.contains(a) && rh.rel.schema().names().any(|n| n == *a))
            });
        if all_left {
            push_left.push(c);
        } else if all_right {
            let mut c2 = c;
            for (new, old) in &right_renames {
                c2.rename_attr(new, old);
            }
            push_right.push(c2);
        } else {
            residual.push(c);
        }
    }
    if push_left.is_empty() && push_right.is_empty() {
        return (rebuilt(left, right, q, jp), false);
    }
    stats.bump("push_restrict_below_join");
    let left = match and_all(push_left) {
        Some(p) => Box::new(Plan::Restrict { input: left, pred: p }),
        None => left,
    };
    let right = match and_all(push_right) {
        Some(p) => Box::new(Plan::Restrict { input: right, pred: p }),
        None => right,
    };
    let join = Plan::Join { left, right, pred: jp };
    match and_all(residual) {
        Some(p) => (Plan::Restrict { input: Box::new(join), pred: p }, true),
        None => (join, true),
    }
}

/// One node of the per-demand attribution tree, mirroring the executed
/// [`Plan`]'s shape exactly (same traversal order as
/// [`Plan::children`]).  The executor feeds each node's [`OpCell`] while
/// streaming — exact row counts, sampled pull times — and the engine
/// rolls a finished tree into a `DemandTrace` afterwards.
#[derive(Debug)]
pub struct AttrNode {
    /// The mirrored plan node's [`Plan::node_label`].
    pub label: String,
    /// Row/time cell the streaming executor feeds.
    pub cell: Arc<OpCell>,
    /// Workers used by the partition-parallel segment rooted here
    /// (0 = ran serially).
    pub par_workers: AtomicU64,
    /// Set on `Source` leaves: the memo boundary this leaf demands.
    pub source: Option<(NodeId, usize)>,
    /// Set on `Source` leaves whose scan read only window-index
    /// candidates (see `index_windows`).
    pub window_index: AtomicBool,
    pub children: Vec<AttrNode>,
}

impl AttrNode {
    /// Build a fresh (all-zero) cell tree mirroring `plan`.
    pub fn build(plan: &Plan, graph: &Graph) -> AttrNode {
        AttrNode {
            label: plan.node_label(graph),
            cell: OpCell::new(),
            par_workers: AtomicU64::new(0),
            window_index: AtomicBool::new(false),
            source: match plan {
                Plan::Source { node, port } => Some((*node, *port)),
                _ => None,
            },
            children: plan.children().into_iter().map(|c| Self::build(c, graph)).collect(),
        }
    }
}

/// Per-execution observability: how much of the plan ran on the
/// partition-parallel path.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ExecStats {
    /// Scan-to-top chains executed as a [`ParPipeline`].
    pub par_segments: u64,
    /// Input tuples those segments scanned (across all segments, before
    /// filtering).
    pub par_rows: u64,
    /// Parallel segments abandoned because a partition worker panicked;
    /// each one was re-run serially (the panic was contained, the demand
    /// still produced its result or the serial path's own error).
    pub par_worker_panics: u64,
    /// Eligible windowed Restricts that consulted a grid index.
    pub window_index_probes: u64,
    /// Grid indexes those probes had to build first.
    pub window_index_builds: u64,
    /// Probes whose candidates exceeded half the rows, so the plain scan
    /// ran instead.
    pub window_index_fallbacks: u64,
}

/// Governance context threaded through plan execution: the demand's
/// shared budget meter plus the armed fault plan, both captured once per
/// demand by the engine.  `ExecGov::default()` governs nothing and costs
/// nothing on the pull path.
#[derive(Clone, Default)]
pub struct ExecGov {
    pub meter: Option<Arc<BudgetMeter>>,
    pub faults: Option<Arc<FaultPlan>>,
}

impl ExecGov {
    fn probe(&self) -> Result<(), FlowError> {
        if let Some(m) = &self.meter {
            m.probe()?;
        }
        Ok(())
    }

    /// Trip a coarse (non-pull) fault site: eager operators pass
    /// coordinate 0 — use a wildcard spec (`sort=err`) to hit them.
    fn trip(&self, site: &str) -> Result<(), FlowError> {
        if let Some(p) = &self.faults {
            p.trip(site, 0)?;
        }
        Ok(())
    }
}

/// Run `exec_plan` as a streaming pipeline and dress the collected tuples
/// in the display header replayed from `final_header` (the *original*
/// plan's root header, so rewrites cannot perturb display metadata).
///
/// Eligible scan-to-top segments run partition-parallel when
/// `threads > 1`, with output tuple-for-tuple identical to the serial
/// pipeline.  With `attr` set, every operator's output stream is routed
/// through its mirror node's cell (exact rows; pull time sampled every
/// Nth tuple), eager operators (Sort, Join) charge their wall time
/// directly, and parallel segments flush thread-invariant merged counts
/// plus the slowest worker's wall time into the chain's cells.  Under
/// `gov`, streams charge the demand's budget meter at the scan, parallel
/// workers checkpoint it in their partition loops, and tagged fault
/// sites consult the armed [`FaultPlan`].
pub fn execute(
    exec_plan: &Plan,
    final_header: &DisplayRelation,
    srcs: &SourceMap,
    threads: usize,
    attr: Option<&AttrNode>,
    gov: &ExecGov,
) -> Result<(DisplayRelation, ExecStats), FlowError> {
    let mut stats = ExecStats::default();
    let indexed = index_windows(exec_plan, srcs, &mut stats, attr);
    let srcs = indexed.as_ref().unwrap_or(srcs);
    let (stream, _hdr) = exec(exec_plan, srcs, threads, &mut stats, attr, gov)?;
    let rel = stream.with_header(&final_header.rel)?.collect()?;
    let mut out = final_header.clone();
    out.rel = rel;
    out.validate()?;
    Ok((out, stats))
}

/// The window index: substitute, for every `Restrict` directly over a
/// [`Plan::Source`] whose predicate a grid index can answer, the source
/// relation by the index's candidate rows.  Returns the substituted
/// source map, or `None` when nothing was substituted.
///
/// Eligibility: the source is referenced once in `plan` (a second
/// reference must still see every row), and every conjunct of the
/// predicate reads `col [+ off] {<,<=,>,>=} lit` over a stored `Float`
/// column no method shadows, with finite literals, on at least two
/// distinct columns.  Such a conjunct cannot raise on any row, so
/// skipping rows cannot hide an error the scan would have raised, and
/// its closure cannot reach `__seq`, so the Restrict's output does not
/// depend on which rows it is fed.  The index only proposes candidates
/// (a superset of the matching rows, in base order); the original
/// predicate still decides.  A probe whose candidates exceed half the
/// rows falls back to the plain scan; until the grid exists, that is
/// judged from a sample of the rows, so a window covering most of the
/// data falls back without building it.
fn index_windows(
    plan: &Plan,
    srcs: &SourceMap,
    stats: &mut ExecStats,
    attr: Option<&AttrNode>,
) -> Option<SourceMap> {
    /// Collects the Restrict-over-Source windows and counts the
    /// references to every source, in one pass.
    fn walk<'a>(
        plan: &'a Plan,
        attr: Option<&'a AttrNode>,
        windows: &mut Vec<(&'a Expr, (NodeId, usize), Option<&'a AttrNode>)>,
        refs: &mut HashMap<(NodeId, usize), usize>,
    ) {
        match plan {
            Plan::Source { node, port } => *refs.entry((*node, *port)).or_default() += 1,
            Plan::Restrict { input, pred } => {
                if let Plan::Source { node, port } = **input {
                    windows.push((pred, (node, port), attr.map(|a| &a.children[0])));
                }
            }
            _ => {}
        }
        for (i, child) in plan.children().into_iter().enumerate() {
            walk(child, attr.map(|a| &a.children[i]), windows, refs);
        }
    }
    let (mut windows, mut refs) = (Vec::new(), HashMap::new());
    walk(plan, attr, &mut windows, &mut refs);
    let mut out: Option<SourceMap> = None;
    for (pred, key, leaf) in windows {
        if refs[&key] != 1 {
            continue;
        }
        let Some(dr) = srcs.get(&key) else { continue };
        let Some([(a, a_lo, a_hi), (b, b_lo, b_hi)]) = window_bounds(pred, &dr.rel) else {
            continue;
        };
        let ranges = [(a_lo, a_hi), (b_lo, b_hi)];
        let Some(probe) = dr.rel.window_candidates(&a, &b, ranges, dr.rel.len() / 2) else {
            continue;
        };
        stats.window_index_probes += 1;
        stats.window_index_builds += probe.built as u64;
        let Some(rows) = probe.rows else {
            stats.window_index_fallbacks += 1;
            continue;
        };
        let tuples = dr.rel.tuples();
        let mut sub = dr.clone();
        sub.rel = dr.rel.with_tuples(rows.iter().map(|&i| tuples[i as usize].clone()).collect());
        out.get_or_insert_with(|| srcs.clone()).insert(key, sub);
        if let Some(l) = leaf {
            l.window_index.store(true, Ordering::Relaxed);
        }
    }
    out
}

/// A column and the closed range of values a window admits on it.
type ColumnRange = (String, f64, f64);

/// The two indexed columns and their value ranges implied by `pred`, if
/// every conjunct is an index-answerable range bound over `rel` (see
/// [`index_windows`]).  Columns bounded on both sides are preferred, in
/// order of first appearance.  Each bound is widened by a relative slack
/// that absorbs the rounding of `lit - off` against `col + off`.
fn window_bounds(pred: &Expr, rel: &Relation) -> Option<[ColumnRange; 2]> {
    let mut cols: Vec<ColumnRange> = Vec::new();
    for c in conjuncts(pred) {
        let Expr::Binary(op, lhs, rhs) = &c else { return None };
        let Expr::Literal(Value::Float(lit)) = **rhs else { return None };
        let (col, off) = match &**lhs {
            Expr::Attr(col) => (col, 0.0),
            Expr::Binary(BinOp::Add, a, o) => match (&**a, &**o) {
                (Expr::Attr(col), Expr::Literal(Value::Float(off))) => (col, *off),
                _ => return None,
            },
            _ => return None,
        };
        let stored_float = rel.schema().field(col).is_some_and(|f| f.ty == ScalarType::Float);
        if !stored_float || rel.method(col).is_some() || !lit.is_finite() || !off.is_finite() {
            return None;
        }
        let bound = lit - off;
        let slack = (lit.abs() + off.abs()) * 1e-12;
        let i = cols.iter().position(|(n, ..)| n == col).unwrap_or_else(|| {
            cols.push((col.clone(), f64::NEG_INFINITY, f64::INFINITY));
            cols.len() - 1
        });
        match op {
            BinOp::Gt | BinOp::Ge => cols[i].1 = cols[i].1.max(bound - slack),
            BinOp::Lt | BinOp::Le => cols[i].2 = cols[i].2.min(bound + slack),
            _ => return None,
        }
    }
    let one_sided = |c: &ColumnRange| c.1 == f64::NEG_INFINITY || c.2 == f64::INFINITY;
    cols.sort_by_key(one_sided);
    cols.truncate(2);
    cols.try_into().ok()
}

/// Build the pull pipeline for `plan`.  Alongside the stream we thread
/// the replayed header of each stage and install it via
/// [`TupleStream::with_header`], so predicates evaluated mid-stream see
/// the same methods (including `redefault`-added ones) the box-at-a-time
/// path would give them.  With `threads > 1`, any eligible chain of
/// per-tuple operators ending at a source is executed partition-parallel
/// first (see [`try_exec_parallel`]); the remaining operators above it
/// stream serially as usual.
fn exec(
    plan: &Plan,
    srcs: &SourceMap,
    threads: usize,
    stats: &mut ExecStats,
    attr: Option<&AttrNode>,
    gov: &ExecGov,
) -> Result<(TupleStream, DisplayRelation), FlowError> {
    if let Some(done) = try_exec_parallel(plan, srcs, threads, stats, attr, gov)? {
        return Ok(done);
    }
    // Route this node's output through its attribution cell (a no-op
    // identity when nobody is watching).
    let tag = |s: TupleStream| match attr {
        Some(a) => s.attributed(Arc::clone(&a.cell)),
        None => s,
    };
    // Eager operators (Sort, Join) drain their inputs inside one call,
    // invisible to per-pull sampling: charge their wall time directly.
    let charge = |t0: Instant| {
        if let Some(a) = attr {
            a.cell.add_direct_ns(t0.elapsed().as_nanos() as u64);
        }
    };
    let child = |i: usize| attr.map(|a| &a.children[i]);
    match plan {
        Plan::Source { node, port } => {
            let dr = srcs.get(&(*node, *port)).ok_or_else(|| missing_source(*node, *port))?;
            // The scan is the serial pipeline's governance point: the
            // `scan` fault site fires per pull at the scan position, and
            // the budget meter is charged for every scanned row.
            let stream = tag(TupleStream::scan(&dr.rel)
                .fault_site(&gov.faults, "scan")
                .governed(&gov.meter));
            let mut hdr = dr.clone();
            hdr.rel = hdr.rel.with_tuples(Vec::new());
            Ok((stream, hdr))
        }
        Plan::Restrict { input, pred } => {
            let (s, h) = exec(input, srcs, threads, stats, child(0), gov)?;
            let s = tag(s
                .with_header(&h.rel)?
                .restrict(pred)?
                .fault_site(&gov.faults, "restrict:pull"));
            let h2 = apply_rel_op(&RelOpKind::Restrict(pred.clone()), &h)?;
            Ok((s, h2))
        }
        Plan::Project { input, cols } => {
            let (s, h) = exec(input, srcs, threads, stats, child(0), gov)?;
            let fields: Vec<&str> = cols.iter().map(String::as_str).collect();
            let s = tag(s
                .with_header(&h.rel)?
                .project(&fields)?
                .fault_site(&gov.faults, "project:pull"));
            let h2 = apply_rel_op(&RelOpKind::Project(cols.clone()), &h)?;
            Ok((s, h2))
        }
        Plan::Sample { input, p, seed } => {
            let (s, h) = exec(input, srcs, threads, stats, child(0), gov)?;
            let s = tag(s
                .with_header(&h.rel)?
                .sample(*p, *seed)?
                .fault_site(&gov.faults, "sample:pull"));
            let h2 = apply_rel_op(&RelOpKind::Sample { p: *p, seed: *seed }, &h)?;
            Ok((s, h2))
        }
        Plan::Sort { input, keys } => {
            let (s, h) = exec(input, srcs, threads, stats, child(0), gov)?;
            let ks: Vec<(&str, bool)> = keys.iter().map(|(k, a)| (k.as_str(), *a)).collect();
            gov.probe()?;
            gov.trip("sort")?;
            let t0 = Instant::now();
            let s = s.with_header(&h.rel)?.sort(&ks)?;
            charge(t0);
            let s = tag(s);
            let h2 = apply_rel_op(&RelOpKind::Sort(keys.clone()), &h)?;
            Ok((s, h2))
        }
        Plan::Distinct { input, cols } => {
            let (s, h) = exec(input, srcs, threads, stats, child(0), gov)?;
            let attrs: Vec<&str> = cols.iter().map(String::as_str).collect();
            let s = tag(s
                .with_header(&h.rel)?
                .distinct(&attrs)?
                .fault_site(&gov.faults, "distinct:pull"));
            let h2 = apply_rel_op(&RelOpKind::Distinct(cols.clone()), &h)?;
            Ok((s, h2))
        }
        Plan::Limit { input, offset, count } => {
            let (s, h) = exec(input, srcs, threads, stats, child(0), gov)?;
            let s = tag(s
                .with_header(&h.rel)?
                .limit(*offset, *count)
                .fault_site(&gov.faults, "limit:pull"));
            let h2 = apply_rel_op(&RelOpKind::Limit { offset: *offset, count: *count }, &h)?;
            Ok((s, h2))
        }
        Plan::Rename { input, from, to } => {
            let (s, h) = exec(input, srcs, threads, stats, child(0), gov)?;
            let s = tag(s.with_header(&h.rel)?.rename(from, to)?);
            let h2 = apply_rel_op(&RelOpKind::Rename { from: from.clone(), to: to.clone() }, &h)?;
            Ok((s, h2))
        }
        Plan::Join { left, right, pred } => {
            // Joins are pipeline breakers: collect both sides, join with
            // the engine's operator (hash join on equi-keys), re-scan.
            let (ls, lh) = exec(left, srcs, threads, stats, child(0), gov)?;
            let (rs, rh) = exec(right, srcs, threads, stats, child(1), gov)?;
            gov.probe()?;
            gov.trip("join")?;
            let t0 = Instant::now();
            let lrel = ls.with_header(&lh.rel)?.collect()?;
            let rrel = rs.with_header(&rh.rel)?.collect()?;
            let joined = ops::join(&lrel, &rrel, pred)?;
            charge(t0);
            let out = redefault(joined, &lh)?;
            let stream = tag(TupleStream::scan(&out.rel));
            let mut hdr = out;
            hdr.rel = hdr.rel.with_tuples(Vec::new());
            Ok((stream, hdr))
        }
    }
}

/// Execute `plan` as one partition-parallel segment if it is a chain of
/// per-tuple operators (Restrict / Project / Rename / Sample / Distinct)
/// ending at a [`Plan::Source`] and every stage is position-independent.
/// Returns `Ok(None)` whenever the plan is ineligible **or** any
/// build-time validation fails — the serial path then raises the
/// identical error the batch semantics define, so parallelism never
/// changes what the user observes.
///
/// Eligibility per stage (checked bottom-up while replaying headers):
///
/// * `Restrict` — predicate closure must not touch [`SEQ_ATTR`]
///   (workers number tuples partition-locally);
/// * `Project` / `Rename` — always (1:1, schema-level);
/// * `Sample` — only 1:1 stages below it, enforced by
///   [`ParPipeline::sample`], so the per-worker RNG skip-ahead stays
///   positionally aligned with the scan;
/// * `Distinct` — topmost stage of the segment (a later filter would
///   observe partition-local dedup choices before the global merge) with
///   `__seq`-free key closures.
fn try_exec_parallel(
    plan: &Plan,
    srcs: &SourceMap,
    threads: usize,
    stats: &mut ExecStats,
    attr: Option<&AttrNode>,
    gov: &ExecGov,
) -> Result<Option<(TupleStream, DisplayRelation)>, FlowError> {
    if threads < 2 {
        return Ok(None);
    }
    // Top-down: collect the maximal per-tuple chain ending at a source,
    // walking the mirrored attribution tree in lockstep.
    let mut chain: Vec<&Plan> = Vec::new();
    let mut chain_attrs: Vec<Option<&AttrNode>> = Vec::new();
    let mut cur = plan;
    let mut cur_attr = attr;
    let (node, port) = loop {
        match cur {
            Plan::Source { node, port } => break (*node, *port),
            Plan::Restrict { input, .. }
            | Plan::Project { input, .. }
            | Plan::Sample { input, .. }
            | Plan::Distinct { input, .. }
            | Plan::Rename { input, .. } => {
                chain.push(cur);
                chain_attrs.push(cur_attr);
                cur = input;
                cur_attr = cur_attr.map(|a| &a.children[0]);
            }
            _ => return Ok(None),
        }
    };
    let source_attr = cur_attr;
    if chain.is_empty() {
        return Ok(None);
    }
    let dr = srcs.get(&(node, port)).ok_or_else(|| missing_source(node, port))?;
    let rows = dr.rel.len();
    if rows < 2 {
        return Ok(None);
    }

    let mut pipe = ParPipeline::new(&dr.rel);
    let mut hdr = dr.clone();
    hdr.rel = hdr.rel.with_tuples(Vec::new());
    let mut stage_cells: Vec<Option<Arc<OpCell>>> = Vec::new();
    for (pos, (op, op_attr)) in chain.iter().rev().zip(chain_attrs.iter().rev()).enumerate() {
        let topmost = pos + 1 == chain.len();
        let kind = match op {
            Plan::Restrict { pred, .. } => {
                if closure_uses_seq(pred, &hdr.rel) {
                    return Ok(None);
                }
                if pipe.restrict(&hdr.rel, pred).is_err() {
                    return Ok(None);
                }
                RelOpKind::Restrict(pred.clone())
            }
            Plan::Project { cols, .. } => {
                let fields: Vec<&str> = cols.iter().map(String::as_str).collect();
                if pipe.project(&hdr.rel, &fields).is_err() {
                    return Ok(None);
                }
                RelOpKind::Project(cols.clone())
            }
            Plan::Rename { from, to, .. } => {
                RelOpKind::Rename { from: from.clone(), to: to.clone() }
            }
            Plan::Sample { p, seed, .. } => {
                // `ParPipeline::sample` also refuses non-1:1 stages below.
                if pipe.sample(*p, *seed).is_err() {
                    return Ok(None);
                }
                RelOpKind::Sample { p: *p, seed: *seed }
            }
            Plan::Distinct { cols, .. } => {
                if !topmost {
                    return Ok(None);
                }
                let keys: Vec<String> = if cols.is_empty() {
                    hdr.rel.schema().names().map(str::to_string).collect()
                } else {
                    cols.clone()
                };
                for k in &keys {
                    if closure_uses_seq(&Expr::Attr(k.clone()), &hdr.rel) {
                        return Ok(None);
                    }
                }
                let attrs: Vec<&str> = cols.iter().map(String::as_str).collect();
                if pipe.distinct(&hdr.rel, &attrs).is_err() {
                    return Ok(None);
                }
                RelOpKind::Distinct(cols.clone())
            }
            _ => unreachable!("chain collects only per-tuple operators"),
        };
        // Renames compile to no pipeline stage; every other operator
        // just appended exactly one, so its watcher (if any) aligns.
        if !matches!(kind, RelOpKind::Rename { .. }) {
            stage_cells.push(op_attr.map(|a| Arc::clone(&a.cell)));
        }
        hdr = match apply_rel_op(&kind, &hdr) {
            Ok(h) => h,
            // Serial replay would fail identically; let it own the error.
            Err(_) => return Ok(None),
        };
    }
    if pipe.stage_count() == 0 {
        // Pure rename chains: the serial path re-shares the Arc store
        // without copying — strictly better than a parallel pass.
        return Ok(None);
    }
    pipe.set_cells(source_attr.map(|a| Arc::clone(&a.cell)), stage_cells)?;
    pipe.set_govern(gov.meter.clone(), gov.faults.clone());
    let workers = pipe.planned_workers(threads.min(rows)) as u64;
    let tuples = match pipe.run(threads.min(rows)) {
        Ok(tuples) => tuples,
        Err(tioga2_relational::RelError::Panic(_)) => {
            // A worker panicked (contained in the pipeline).  Fall back
            // to the serial path for this segment: wipe the aborted
            // run's partial attribution so the serial re-run's counts
            // stay exact, and let `exec` stream it.
            stats.par_worker_panics += 1;
            if let Some(a) = source_attr {
                a.cell.reset();
            }
            for a in chain_attrs.iter().flatten() {
                a.cell.reset();
            }
            return Ok(None);
        }
        Err(e) => return Err(e.into()),
    };
    stats.par_segments += 1;
    stats.par_rows += rows as u64;
    if attr.is_some() {
        // Stage cells carry the merged (thread-invariant) survivor
        // counts now; credit each stage-less Rename the row count of
        // whatever feeds it (it is 1:1), bottom-up from the scan.
        let mut prev = rows as u64;
        for (op, op_attr) in chain.iter().rev().zip(chain_attrs.iter().rev()) {
            if let Some(a) = op_attr {
                if matches!(op, Plan::Rename { .. }) {
                    a.cell.add_rows(prev);
                } else {
                    prev = a.cell.rows_out();
                }
            }
        }
        if let Some(a) = chain_attrs[0] {
            a.par_workers.store(workers, Ordering::Relaxed);
        }
    }
    let stream = TupleStream::scan(&hdr.rel.with_tuples(tuples));
    Ok(Some((stream, hdr)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boxes::BoxKind;
    use crate::engine::Engine;
    use crate::lower::lower;
    use crate::port::{Data, PortType};
    use tioga2_display::Displayable;
    use tioga2_expr::{parse, ScalarType as T, Value};
    use tioga2_obs::Recorder;
    use tioga2_relational::relation::RelationBuilder;
    use tioga2_relational::{AggSpec, Catalog};

    fn catalog() -> Catalog {
        let c = Catalog::new();
        let mut b = RelationBuilder::new()
            .field("name", T::Text)
            .field("state", T::Text)
            .field("altitude", T::Float);
        for (n, s, a) in [
            ("Baton Rouge", "LA", 17.0),
            ("New Orleans", "LA", 2.0),
            ("Shreveport", "LA", 55.0),
            ("Austin", "TX", 149.0),
            ("Houston", "TX", 13.0),
        ] {
            b = b.row(vec![Value::Text(n.into()), Value::Text(s.into()), Value::Float(a)]);
        }
        c.register("Stations", b.build().unwrap());
        let mut s = RelationBuilder::new().field("st", T::Text).field("pop", T::Float);
        for (st, p) in [("LA", 4.6), ("TX", 29.5), ("NY", 19.6)] {
            s = s.row(vec![Value::Text(st.into()), Value::Float(p)]);
        }
        c.register("States", s.build().unwrap());
        c
    }

    fn restrict(src: &str) -> BoxKind {
        BoxKind::rel(RelOpKind::Restrict(parse(src).unwrap()))
    }

    fn project(cols: &[&str]) -> BoxKind {
        BoxKind::rel(RelOpKind::Project(cols.iter().map(|c| c.to_string()).collect()))
    }

    fn dr_of(d: Data) -> DisplayRelation {
        match d.into_displayable().unwrap() {
            Displayable::R(dr) => dr,
            other => panic!("expected R, got {}", other.type_tag()),
        }
    }

    /// Lower + evaluate boundaries, for driving the rewriter directly.
    fn lowered(g: &Graph, e: &mut Engine, node: NodeId) -> (Plan, SourceMap) {
        let plan = lower(g, node, 0);
        let mut srcs = SourceMap::new();
        for (n, p) in plan.sources() {
            srcs.insert((n, p), dr_of(e.demand(g, n, p).unwrap()));
        }
        (plan, srcs)
    }

    /// The planned result must equal the box-at-a-time result *exactly* —
    /// schema, methods, metadata, tuples, row ids.
    fn assert_planned_equals_naive(g: &Graph, node: NodeId) {
        let mut e = Engine::new(catalog());
        let naive = dr_of(e.demand(g, node, 0).unwrap());
        let mut e2 = Engine::new(catalog());
        let planned = dr_of(e2.demand_planned(g, node, 0).unwrap());
        assert_eq!(naive, planned);
    }

    /// Row-id-blind comparison for join outputs (join row ids are
    /// synthetic: `source = None`, not update-traceable).
    fn assert_same_values(a: &DisplayRelation, b: &DisplayRelation) {
        assert_eq!(a.rel.schema(), b.rel.schema());
        assert_eq!(a.rel.len(), b.rel.len());
        for (x, y) in a.rel.tuples().iter().zip(b.rel.tuples()) {
            assert_eq!(x.values(), y.values());
        }
    }

    #[test]
    fn lowering_extracts_chain_and_viewer_is_transparent() {
        let mut g = Graph::new();
        let t = g.add(BoxKind::Table("Stations".into()));
        let r = g.add(restrict("state = 'LA'"));
        let p = g.add(project(&["name", "altitude"]));
        let v = g.add(BoxKind::Viewer { canvas: "main".into(), ty: PortType::R });
        g.connect(t, 0, r, 0).unwrap();
        g.connect(r, 0, p, 0).unwrap();
        g.connect(p, 0, v, 0).unwrap();
        let plan = lower(&g, v, 0);
        assert_eq!(
            plan.canon(),
            format!("project[name,altitude](restrict[state = 'LA'](src({t}.0)))")
        );
        assert_eq!(plan.op_count(), 2);
        assert_planned_equals_naive(&g, v);
    }

    #[test]
    fn fuse_restricts_fires_and_is_equivalent() {
        let mut g = Graph::new();
        let t = g.add(BoxKind::Table("Stations".into()));
        let r1 = g.add(restrict("state = 'LA'"));
        let r2 = g.add(restrict("altitude > 10.0"));
        g.connect(t, 0, r1, 0).unwrap();
        g.connect(r1, 0, r2, 0).unwrap();
        let mut e = Engine::new(catalog());
        let (plan, srcs) = lowered(&g, &mut e, r2);
        let (opt, stats) = rewrite(plan, &srcs);
        assert_eq!(stats.counts.get("fuse_restricts"), Some(&1));
        assert_eq!(opt.op_count(), 1, "two restricts fused into one");
        assert_planned_equals_naive(&g, r2);
    }

    #[test]
    fn position_dependent_predicate_blocks_fusion_and_sort_pushdown() {
        // The default `y` method is -__seq * 12: filtering first would
        // renumber it.  Both fusion and the sort pushdown must refuse.
        let mut g = Graph::new();
        let t = g.add(BoxKind::Table("Stations".into()));
        let r1 = g.add(restrict("state = 'LA'"));
        let r2 = g.add(restrict("y > -30.0"));
        g.connect(t, 0, r1, 0).unwrap();
        g.connect(r1, 0, r2, 0).unwrap();
        let mut e = Engine::new(catalog());
        let (plan, srcs) = lowered(&g, &mut e, r2);
        let (opt, stats) = rewrite(plan.clone(), &srcs);
        assert_eq!(stats.total(), 0, "no rewrite may fire: {stats:?}");
        assert_eq!(opt, plan);
        assert_planned_equals_naive(&g, r2);

        let mut g2 = Graph::new();
        let t = g2.add(BoxKind::Table("Stations".into()));
        let s = g2.add(BoxKind::rel(RelOpKind::Sort(vec![("altitude".into(), true)])));
        let r = g2.add(restrict("y > -30.0"));
        g2.connect(t, 0, s, 0).unwrap();
        g2.connect(s, 0, r, 0).unwrap();
        let mut e = Engine::new(catalog());
        let (plan, srcs) = lowered(&g2, &mut e, r);
        let (_, stats) = rewrite(plan, &srcs);
        assert_eq!(stats.total(), 0);
        assert_planned_equals_naive(&g2, r);
    }

    #[test]
    fn restrict_pushes_below_project_and_sort() {
        let mut g = Graph::new();
        let t = g.add(BoxKind::Table("Stations".into()));
        let p = g.add(project(&["name", "altitude"]));
        let s = g.add(BoxKind::rel(RelOpKind::Sort(vec![("altitude".into(), false)])));
        let r = g.add(restrict("altitude > 10.0"));
        g.connect(t, 0, p, 0).unwrap();
        g.connect(p, 0, s, 0).unwrap();
        g.connect(s, 0, r, 0).unwrap();
        let mut e = Engine::new(catalog());
        let (plan, srcs) = lowered(&g, &mut e, r);
        let (opt, stats) = rewrite(plan, &srcs);
        assert_eq!(stats.counts.get("push_restrict_below_sort"), Some(&1));
        assert_eq!(stats.counts.get("push_restrict_below_project"), Some(&1));
        // Fully pushed: sort(project(restrict(src))).
        assert_eq!(
            opt.canon(),
            format!(
                "sort[altitude-](project[name,altitude](restrict[altitude > 10.0](src({t}.0))))"
            )
        );
        assert_planned_equals_naive(&g, r);
    }

    #[test]
    fn restrict_pushes_below_rename_with_attr_rewrite() {
        let mut g = Graph::new();
        let t = g.add(BoxKind::Table("Stations".into()));
        let rn =
            g.add(BoxKind::rel(RelOpKind::Rename { from: "altitude".into(), to: "elev".into() }));
        let r = g.add(restrict("elev > 10.0"));
        g.connect(t, 0, rn, 0).unwrap();
        g.connect(rn, 0, r, 0).unwrap();
        let mut e = Engine::new(catalog());
        let (plan, srcs) = lowered(&g, &mut e, r);
        let (opt, stats) = rewrite(plan, &srcs);
        assert_eq!(stats.counts.get("push_restrict_below_rename"), Some(&1));
        assert!(opt.canon().contains("restrict[altitude > 10.0]"), "got {}", opt.canon());
        assert_planned_equals_naive(&g, r);
    }

    #[test]
    fn no_pushdown_past_aggregate() {
        let mut g = Graph::new();
        let t = g.add(BoxKind::Table("Stations".into()));
        let a = g.add(BoxKind::rel(RelOpKind::Aggregate {
            keys: vec!["state".into()],
            aggs: vec![AggSpec::count("n")],
        }));
        let r = g.add(restrict("n > 1"));
        g.connect(t, 0, a, 0).unwrap();
        g.connect(a, 0, r, 0).unwrap();
        let mut e = Engine::new(catalog());
        let (plan, srcs) = lowered(&g, &mut e, r);
        // The aggregate is a boundary: the chain is just σ(src).
        assert_eq!(plan.op_count(), 1);
        let (_, stats) = rewrite(plan, &srcs);
        assert_eq!(stats.total(), 0);
        assert_planned_equals_naive(&g, r);
    }

    #[test]
    fn multi_consumer_box_stays_a_memo_boundary() {
        let mut g = Graph::new();
        let t = g.add(BoxKind::Table("Stations".into()));
        let r1 = g.add(restrict("state = 'LA'"));
        let r2a = g.add(restrict("altitude > 10.0"));
        let r2b = g.add(restrict("altitude < 10.0"));
        g.connect(t, 0, r1, 0).unwrap();
        g.connect(r1, 0, r2a, 0).unwrap();
        g.connect(r1, 0, r2b, 0).unwrap();
        // r1 feeds two consumers: it must stay in the box memo cache, not
        // be re-run inside both plans.
        let plan = lower(&g, r2a, 0);
        assert_eq!(plan.canon(), format!("restrict[altitude > 10.0](src({r1}.0))"));
        assert_planned_equals_naive(&g, r2a);
    }

    #[test]
    fn sample_pushes_below_project_but_stays_above_sort() {
        let mut g = Graph::new();
        let t = g.add(BoxKind::Table("Stations".into()));
        let p = g.add(project(&["name", "altitude"]));
        let sm = g.add(BoxKind::rel(RelOpKind::Sample { p: 0.5, seed: 7 }));
        g.connect(t, 0, p, 0).unwrap();
        g.connect(p, 0, sm, 0).unwrap();
        let mut e = Engine::new(catalog());
        let (plan, srcs) = lowered(&g, &mut e, sm);
        let (opt, stats) = rewrite(plan, &srcs);
        assert_eq!(stats.counts.get("push_sample_below_project"), Some(&1));
        assert!(opt.canon().starts_with("project["));
        assert_planned_equals_naive(&g, sm);

        // Sample over Sort: the draw sequence is positional, moving it
        // below the sort would sample different rows.
        let mut g2 = Graph::new();
        let t = g2.add(BoxKind::Table("Stations".into()));
        let s = g2.add(BoxKind::rel(RelOpKind::Sort(vec![("altitude".into(), true)])));
        let sm = g2.add(BoxKind::rel(RelOpKind::Sample { p: 0.5, seed: 7 }));
        g2.connect(t, 0, s, 0).unwrap();
        g2.connect(s, 0, sm, 0).unwrap();
        let mut e = Engine::new(catalog());
        let (plan, srcs) = lowered(&g2, &mut e, sm);
        let (_, stats) = rewrite(plan, &srcs);
        assert_eq!(stats.total(), 0);
        assert_planned_equals_naive(&g2, sm);
    }

    #[test]
    fn restrict_does_not_move_below_sample_or_limit() {
        let mut g = Graph::new();
        let t = g.add(BoxKind::Table("Stations".into()));
        let sm = g.add(BoxKind::rel(RelOpKind::Sample { p: 0.8, seed: 3 }));
        let lim = g.add(BoxKind::rel(RelOpKind::Limit { offset: 0, count: 2 }));
        let r = g.add(restrict("altitude > 1.0"));
        g.connect(t, 0, sm, 0).unwrap();
        g.connect(sm, 0, lim, 0).unwrap();
        g.connect(lim, 0, r, 0).unwrap();
        let mut e = Engine::new(catalog());
        let (plan, srcs) = lowered(&g, &mut e, r);
        let (_, stats) = rewrite(plan, &srcs);
        assert_eq!(stats.total(), 0, "filtering before sample/limit changes the result");
        assert_planned_equals_naive(&g, r);
    }

    #[test]
    fn limit_pushes_below_project() {
        let mut g = Graph::new();
        let t = g.add(BoxKind::Table("Stations".into()));
        let p = g.add(project(&["name"]));
        let lim = g.add(BoxKind::rel(RelOpKind::Limit { offset: 1, count: 2 }));
        g.connect(t, 0, p, 0).unwrap();
        g.connect(p, 0, lim, 0).unwrap();
        let mut e = Engine::new(catalog());
        let (plan, srcs) = lowered(&g, &mut e, lim);
        let (_, stats) = rewrite(plan, &srcs);
        assert_eq!(stats.counts.get("push_limit_below_project"), Some(&1));
        assert_planned_equals_naive(&g, lim);
    }

    #[test]
    fn projects_collapse_and_noop_projects_drop() {
        let mut g = Graph::new();
        let t = g.add(BoxKind::Table("Stations".into()));
        let p1 = g.add(project(&["name", "state"]));
        let p2 = g.add(project(&["name"]));
        g.connect(t, 0, p1, 0).unwrap();
        g.connect(p1, 0, p2, 0).unwrap();
        let mut e = Engine::new(catalog());
        let (plan, srcs) = lowered(&g, &mut e, p2);
        let (_, stats) = rewrite(plan, &srcs);
        assert_eq!(stats.counts.get("collapse_projects"), Some(&1));
        assert_planned_equals_naive(&g, p2);

        // A projection of all columns in order is a no-op and vanishes.
        let mut g2 = Graph::new();
        let t = g2.add(BoxKind::Table("Stations".into()));
        let p = g2.add(project(&["name", "state", "altitude"]));
        g2.connect(t, 0, p, 0).unwrap();
        let mut e = Engine::new(catalog());
        let (plan, srcs) = lowered(&g2, &mut e, p);
        let (opt, stats) = rewrite(plan, &srcs);
        assert_eq!(stats.counts.get("drop_noop_project"), Some(&1));
        assert!(opt.is_source());
        assert_planned_equals_naive(&g2, p);
    }

    #[test]
    fn join_conjunct_pushdown_splits_by_side() {
        let mut g = Graph::new();
        let t1 = g.add(BoxKind::Table("Stations".into()));
        let t2 = g.add(BoxKind::Table("States".into()));
        let j = g.add(BoxKind::Join(parse("state = st").unwrap()));
        let r = g.add(restrict("pop > 5.0 and altitude > 10.0"));
        g.connect(t1, 0, j, 0).unwrap();
        g.connect(t2, 0, j, 1).unwrap();
        g.connect(j, 0, r, 0).unwrap();
        let mut e = Engine::new(catalog());
        let (plan, srcs) = lowered(&g, &mut e, r);
        let (opt, stats) = rewrite(plan, &srcs);
        assert_eq!(stats.counts.get("push_restrict_below_join"), Some(&1));
        // Both conjuncts moved: the root is the join itself.
        assert!(opt.canon().starts_with("join["), "got {}", opt.canon());

        // Join row ids are synthetic; compare values, schema and order.
        let mut e1 = Engine::new(catalog());
        let naive = dr_of(e1.demand(&g, r, 0).unwrap());
        let mut e2 = Engine::new(catalog());
        let planned = dr_of(e2.demand_planned(&g, r, 0).unwrap());
        assert_same_values(&naive, &planned);
        assert_eq!(naive.rel.len(), 2, "TX stations with pop > 5 and altitude > 10");
    }

    #[test]
    fn plan_cache_hits_and_is_invalidated() {
        let mut g = Graph::new();
        let t = g.add(BoxKind::Table("Stations".into()));
        let r1 = g.add(restrict("state = 'LA'"));
        let r2 = g.add(restrict("altitude > 10.0"));
        g.connect(t, 0, r1, 0).unwrap();
        g.connect(r1, 0, r2, 0).unwrap();
        let mut e = Engine::new(catalog());
        let first = dr_of(e.demand_planned(&g, r2, 0).unwrap());
        let evals = e.stats.box_evals;
        // Second demand: plan cache hit, no boundary re-demand.
        let second = dr_of(e.demand_planned(&g, r2, 0).unwrap());
        assert_eq!(e.stats.box_evals, evals);
        assert_eq!(first, second);
        // Editing a chain box changes the fingerprint.
        g.update_kind(r2, restrict("altitude > 20.0")).unwrap();
        let third = dr_of(e.demand_planned(&g, r2, 0).unwrap());
        assert_eq!(third.rel.len(), 1);
        // Catalog updates flow through invalidate_all, like the box cache.
        e.catalog().register(
            "Stations",
            RelationBuilder::new()
                .field("name", T::Text)
                .field("state", T::Text)
                .field("altitude", T::Float)
                .build()
                .unwrap(),
        );
        e.invalidate_all();
        let fourth = dr_of(e.demand_planned(&g, r2, 0).unwrap());
        assert_eq!(fourth.rel.len(), 0);
    }

    #[test]
    fn window_restrict_is_applied_on_top() {
        let mut g = Graph::new();
        let t = g.add(BoxKind::Table("Stations".into()));
        let r = g.add(restrict("state = 'LA'"));
        g.connect(t, 0, r, 0).unwrap();
        let w = parse("altitude > 10.0").unwrap();
        let mut e = Engine::new(catalog());
        let dr = dr_of(e.demand_planned_opts(&g, r, 0, true, Some(&w)).unwrap());
        assert_eq!(dr.rel.len(), 2, "LA stations above 10m");
        // Schema and metadata are those of the unwindowed chain.
        let mut e2 = Engine::new(catalog());
        let full = dr_of(e2.demand(&g, r, 0).unwrap());
        assert_eq!(full.rel.schema(), dr.rel.schema());
        assert_eq!(full.location_attrs(), dr.location_attrs());
    }

    #[test]
    fn parallel_execution_matches_serial_and_counts_segments() {
        use tioga2_obs::InMemoryRecorder;
        let mut g = Graph::new();
        let t = g.add(BoxKind::Table("Stations".into()));
        let r = g.add(restrict("altitude > 5.0"));
        let p = g.add(project(&["name", "altitude"]));
        g.connect(t, 0, r, 0).unwrap();
        g.connect(r, 0, p, 0).unwrap();
        let mut naive_engine = Engine::new(catalog());
        let naive = dr_of(naive_engine.demand(&g, p, 0).unwrap());
        for threads in [1usize, 2, 8] {
            let rec = std::sync::Arc::new(InMemoryRecorder::new());
            let mut e = Engine::new(catalog());
            e.set_threads(threads);
            e.set_recorder(rec.clone());
            let planned = dr_of(e.demand_planned(&g, p, 0).unwrap());
            assert_eq!(naive, planned, "threads={threads}");
            if threads > 1 {
                assert_eq!(rec.counter("plan.parallel.segments"), Some(1));
                assert_eq!(rec.counter("plan.parallel.rows"), Some(5));
            } else {
                assert_eq!(rec.counter("plan.parallel.segments"), None);
            }
        }
    }

    #[test]
    fn parallel_refuses_position_dependent_predicates() {
        use tioga2_obs::InMemoryRecorder;
        // The default layout's `y` method is __seq-derived, so a
        // predicate over it must run serially at any thread count — and
        // still produce identical results.
        let mut g = Graph::new();
        let t = g.add(BoxKind::Table("Stations".into()));
        let r = g.add(restrict("y < 0.0 - 20.0"));
        g.connect(t, 0, r, 0).unwrap();
        let mut naive_engine = Engine::new(catalog());
        let naive = dr_of(naive_engine.demand(&g, r, 0).unwrap());
        let rec = std::sync::Arc::new(InMemoryRecorder::new());
        let mut e = Engine::new(catalog());
        e.set_threads(8);
        e.set_recorder(rec.clone());
        let planned = dr_of(e.demand_planned(&g, r, 0).unwrap());
        assert_eq!(naive, planned);
        assert_eq!(rec.counter("plan.parallel.segments"), None, "must refuse parallelism");
    }

    #[test]
    fn parallel_segment_below_a_seq_dependent_top_stage() {
        // Mixed chain: the lower __seq-free restrict parallelizes, the
        // __seq-dependent one above it streams serially over the merged
        // result.  (Rewrites off so the two restricts are not fused.)
        use tioga2_obs::InMemoryRecorder;
        let mut g = Graph::new();
        let t = g.add(BoxKind::Table("Stations".into()));
        let r1 = g.add(restrict("altitude > 5.0"));
        let r2 = g.add(restrict("y < 0.0 - 20.0"));
        g.connect(t, 0, r1, 0).unwrap();
        g.connect(r1, 0, r2, 0).unwrap();
        let mut naive_engine = Engine::new(catalog());
        let naive = dr_of(naive_engine.demand(&g, r2, 0).unwrap());
        let rec = std::sync::Arc::new(InMemoryRecorder::new());
        let mut e = Engine::new(catalog());
        e.set_threads(4);
        e.set_recorder(rec.clone());
        let planned = dr_of(e.demand_planned_opts(&g, r2, 0, false, None).unwrap());
        assert_eq!(naive, planned);
        assert_eq!(rec.counter("plan.parallel.segments"), Some(1));
    }

    #[test]
    fn plan_cache_evicts_entries_for_deleted_boxes() {
        let mut g = Graph::new();
        let t = g.add(BoxKind::Table("Stations".into()));
        let r1 = g.add(restrict("state = 'LA'"));
        let r2 = g.add(restrict("altitude > 10.0"));
        g.connect(t, 0, r1, 0).unwrap();
        g.connect(t, 0, r2, 0).unwrap();
        let mut e = Engine::new(catalog());
        e.demand_planned(&g, r1, 0).unwrap();
        e.demand_planned(&g, r2, 0).unwrap();
        assert_eq!(e.plan_cache_len(), 2);
        crate::edit::delete_box(&mut g, r2).unwrap();
        // The next planned demand sweeps keys whose box is gone.
        e.demand_planned(&g, r1, 0).unwrap();
        assert_eq!(e.plan_cache_len(), 1, "deleted box's entry swept");
    }

    #[test]
    fn invalidate_all_counts_plan_cache_entries() {
        use tioga2_obs::InMemoryRecorder;
        let rec = std::sync::Arc::new(InMemoryRecorder::new());
        let mut g = Graph::new();
        let t = g.add(BoxKind::Table("Stations".into()));
        let r = g.add(restrict("state = 'LA'"));
        g.connect(t, 0, r, 0).unwrap();
        let mut e = Engine::new(catalog());
        e.set_recorder(rec.clone());
        e.demand(&g, r, 0).unwrap(); // memo entries: t, r
        e.demand_planned(&g, r, 0).unwrap(); // plan entry: (r, 0)
        assert_eq!(e.plan_cache_len(), 1);
        e.invalidate_all();
        assert_eq!(
            rec.counter("cache.invalidated_entries"),
            Some(3),
            "2 memo entries + 1 plan-cache entry"
        );
    }

    #[test]
    fn explain_reports_rules() {
        let mut g = Graph::new();
        let t = g.add(BoxKind::Table("Stations".into()));
        let r1 = g.add(restrict("state = 'LA'"));
        let r2 = g.add(restrict("altitude > 10.0"));
        g.connect(t, 0, r1, 0).unwrap();
        g.connect(r1, 0, r2, 0).unwrap();
        let mut e = Engine::new(catalog());
        let text = e.explain(&g, r2, 0).unwrap();
        assert!(text.contains("Restrict"), "{text}");
        assert!(text.contains("fuse_restricts"), "{text}");
        assert!(text.contains("optimized:"), "{text}");
        // A bare table has no chain.
        let text = e.explain(&g, t, 0).unwrap();
        assert!(text.contains("no relational chain"), "{text}");
    }
}
