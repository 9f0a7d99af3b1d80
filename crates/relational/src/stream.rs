//! Pull-based streaming forms of the relational operators.
//!
//! A [`TupleStream`] is a Volcano-style iterator pipeline over one
//! relation's tuples: each adapter (`restrict`, `project`, `sample`,
//! `limit`, `distinct`, `rename`, `sort`) consumes the stream below it
//! and yields tuples on demand, so a chain of operators makes a single
//! pass with no intermediate `Vec<Tuple>` materializations, and an
//! early-exiting consumer (`limit`) stops pulling as soon as it is
//! satisfied.  The batch operators in [`crate::ops`] and
//! [`crate::aggregate`] are thin wrappers that scan + adapt + collect.
//!
//! Semantics are tuple-for-tuple identical to the batch forms: every
//! adapter enumerates its own input, so the `__seq` pseudo-attribute seen
//! by predicates and methods at each stage equals the position the tuple
//! would have had in that stage's materialized input relation.
//!
//! A stream that reaches `collect()` without any tuple-level adapter
//! (plain scan, or scan + rename, which is schema-only) re-shares the
//! input's `Arc` tuple store instead of copying it.
//!
//! [`ParPipeline`] is the partition-parallel sibling: a pre-compiled
//! chain of the per-tuple adapters (restrict / project / sample /
//! distinct) run over contiguous partitions of the scanned tuple store on
//! scoped worker threads, merged order-preservingly so the output is
//! tuple-for-tuple identical to the serial stream.  All iterators here
//! are `Send`, so partitioned pipelines and streamed ones compose.

use crate::aggregate::group_key;
use crate::error::RelError;
use crate::fault::FaultPlan;
use crate::govern::{BudgetMeter, GOVERN_CHECK_PERIOD};
use crate::ops;
use crate::relation::{Method, Relation, Store};
use crate::schema::Schema;
use crate::tuple::{Tuple, TupleContext};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tioga2_expr::{eval_predicate, typecheck, Context, Expr, ScalarType, Value};

type TupleIter = Box<dyn Iterator<Item = Result<Tuple, RelError>> + Send>;

/// One in every `ATTR_SAMPLE_PERIOD` pulls through an
/// [`attributed`](TupleStream::attributed) stream is timed; the rest pay
/// only two relaxed atomic increments.  The estimate scales the sampled
/// time by the pull count, keeping attribution overhead far below the 5%
/// budget while rows stay exact.
pub const ATTR_SAMPLE_PERIOD: u64 = 64;

/// A shared attribution cell: one per plan operator, written by the
/// executing stream (or parallel pipeline) and read back when the engine
/// assembles the demand's trace tree.  Row counts are exact; times are
/// coarse samples (see [`ATTR_SAMPLE_PERIOD`]).
#[derive(Debug, Default)]
pub struct OpCell {
    rows_out: AtomicU64,
    calls: AtomicU64,
    sampled_calls: AtomicU64,
    sampled_ns: AtomicU64,
    direct_ns: AtomicU64,
}

impl OpCell {
    pub fn new() -> Arc<OpCell> {
        Arc::new(OpCell::default())
    }

    /// Exact tuples observed leaving the operator.
    pub fn rows_out(&self) -> u64 {
        self.rows_out.load(Ordering::Relaxed)
    }

    pub fn add_rows(&self, n: u64) {
        self.rows_out.fetch_add(n, Ordering::Relaxed);
    }

    /// Charge wall time measured outside the per-pull sampler (pipeline
    /// breakers like sort/join, parallel segment walls).
    pub fn add_direct_ns(&self, ns: u64) {
        self.direct_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Zero every counter.  Used when a partially-run parallel segment is
    /// abandoned (worker panic) and re-run serially: the aborted run's
    /// partial credits must not inflate the serial run's exact counts.
    pub fn reset(&self) {
        self.rows_out.store(0, Ordering::Relaxed);
        self.calls.store(0, Ordering::Relaxed);
        self.sampled_calls.store(0, Ordering::Relaxed);
        self.sampled_ns.store(0, Ordering::Relaxed);
        self.direct_ns.store(0, Ordering::Relaxed);
    }

    /// Estimated cumulative nanoseconds: directly-charged time plus the
    /// sampled pull time scaled up to the full pull count.
    pub fn est_ns(&self) -> u64 {
        let direct = self.direct_ns.load(Ordering::Relaxed);
        let sampled_calls = self.sampled_calls.load(Ordering::Relaxed);
        if sampled_calls == 0 {
            return direct;
        }
        let calls = self.calls.load(Ordering::Relaxed).max(sampled_calls);
        let sampled_ns = self.sampled_ns.load(Ordering::Relaxed) as u128;
        direct + (sampled_ns * calls as u128 / sampled_calls as u128) as u64
    }
}

enum Inner {
    /// The untouched tuple store of the scanned relation: collecting this
    /// shares the `Arc` instead of copying.
    Whole(Arc<Store>),
    Iter(TupleIter),
}

/// A streaming relational pipeline: a schema-level header (schema,
/// methods, provenance — with an empty tuple store) plus a lazy tuple
/// iterator.
pub struct TupleStream {
    header: Arc<Relation>,
    inner: Inner,
}

fn empty_header(rel: &Relation) -> Relation {
    rel.with_tuples(Vec::new())
}

impl TupleStream {
    /// Start a pipeline over `rel`'s tuples.
    pub fn scan(rel: &Relation) -> TupleStream {
        TupleStream { header: Arc::new(empty_header(rel)), inner: Inner::Whole(rel.tuples_arc()) }
    }

    /// The schema-level shape of the stream at this point (empty tuples).
    pub fn header(&self) -> &Relation {
        &self.header
    }

    fn into_iter_inner(self) -> (Arc<Relation>, TupleIter) {
        let iter: TupleIter = match self.inner {
            Inner::Whole(tuples) => {
                let n = tuples.len();
                Box::new((0..n).map(move |i| Ok(tuples[i].clone())))
            }
            Inner::Iter(it) => it,
        };
        (self.header, iter)
    }

    /// Filter to tuples satisfying `pred` (streaming σ).
    pub fn restrict(self, pred: &Expr) -> Result<TupleStream, RelError> {
        let ty = typecheck(pred, &self.header.type_env())?;
        if ty != ScalarType::Bool {
            return Err(RelError::Schema(format!("restrict predicate has type {ty}, not bool")));
        }
        let (header, input) = self.into_iter_inner();
        let ctx_rel = Arc::clone(&header);
        let pred = pred.clone();
        let mut input = input.enumerate();
        let iter = std::iter::from_fn(move || {
            for (seq, item) in input.by_ref() {
                let t = match item {
                    Ok(t) => t,
                    Err(e) => return Some(Err(e)),
                };
                let ctx = TupleContext::new(&ctx_rel, &t, seq);
                match eval_predicate(&pred, &ctx) {
                    Ok(true) => return Some(Ok(t)),
                    Ok(false) => continue,
                    Err(e) => return Some(Err(e.into())),
                }
            }
            None
        });
        Ok(TupleStream { header, inner: Inner::Iter(Box::new(iter)) })
    }

    /// Keep only the named stored fields (streaming π); methods survive
    /// iff their transitive dependencies do, exactly as in batch project.
    pub fn project(self, fields: &[&str]) -> Result<TupleStream, RelError> {
        let (idxs, schema, keep) = project_shape(&self.header, fields)?;
        let (header, input) = self.into_iter_inner();
        let new_header =
            Relation::from_parts(schema, keep, Vec::new(), header.source().map(str::to_string));
        let iter = input.map(move |item| {
            item.map(|t| {
                Tuple::new(t.row_id, idxs.iter().map(|&i| t.values()[i].clone()).collect())
            })
        });
        Ok(TupleStream { header: Arc::new(new_header), inner: Inner::Iter(Box::new(iter)) })
    }

    /// Keep each tuple independently with probability `p` (streaming
    /// Sample).  One RNG draw per input tuple, in order, so the kept set
    /// matches the batch operator for the same seed.
    pub fn sample(self, p: f64, seed: u64) -> Result<TupleStream, RelError> {
        if !(0.0..=1.0).contains(&p) {
            return Err(RelError::Schema(format!("sample probability {p} outside [0, 1]")));
        }
        let (header, input) = self.into_iter_inner();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut input = input;
        let iter = std::iter::from_fn(move || {
            for item in input.by_ref() {
                let t = match item {
                    Ok(t) => t,
                    Err(e) => return Some(Err(e)),
                };
                if rng.gen::<f64>() < p {
                    return Some(Ok(t));
                }
            }
            None
        });
        Ok(TupleStream { header, inner: Inner::Iter(Box::new(iter)) })
    }

    /// LIMIT/OFFSET in stream order, with early exit: once `count` tuples
    /// have been yielded, upstream operators are never pulled again.
    pub fn limit(self, offset: usize, count: usize) -> TupleStream {
        let (header, mut input) = self.into_iter_inner();
        let mut skipped = 0usize;
        let mut taken = 0usize;
        let iter = std::iter::from_fn(move || {
            if taken >= count {
                return None;
            }
            for item in input.by_ref() {
                let t = match item {
                    Ok(t) => t,
                    Err(e) => return Some(Err(e)),
                };
                if skipped < offset {
                    skipped += 1;
                    continue;
                }
                taken += 1;
                return Some(Ok(t));
            }
            None
        });
        TupleStream { header, inner: Inner::Iter(Box::new(iter)) }
    }

    /// First tuple of each distinct key (streaming Distinct; empty
    /// `attrs` keys on every stored field).
    pub fn distinct(self, attrs: &[&str]) -> Result<TupleStream, RelError> {
        let names: Vec<String> = if attrs.is_empty() {
            self.header.schema().names().map(str::to_string).collect()
        } else {
            for a in attrs {
                if !self.header.has_attr(a) {
                    return Err(RelError::UnknownAttribute(a.to_string()));
                }
            }
            attrs.iter().map(|s| s.to_string()).collect()
        };
        let (header, input) = self.into_iter_inner();
        let ctx_rel = Arc::clone(&header);
        let mut seen = HashSet::new();
        let mut input = input.enumerate();
        let iter = std::iter::from_fn(move || {
            for (seq, item) in input.by_ref() {
                let t = match item {
                    Ok(t) => t,
                    Err(e) => return Some(Err(e)),
                };
                let ctx = TupleContext::new(&ctx_rel, &t, seq);
                let vals: Vec<Value> =
                    names.iter().map(|n| ctx.get(n).unwrap_or(Value::Null)).collect();
                if seen.insert(group_key(&vals)) {
                    return Some(Ok(t));
                }
            }
            None
        });
        Ok(TupleStream { header, inner: Inner::Iter(Box::new(iter)) })
    }

    /// Rename a stored field.  Schema-only: tuples pass through untouched,
    /// so a pristine scan stays pristine (the `Arc` store is re-shared on
    /// collect).
    pub fn rename(self, from: &str, to: &str) -> Result<TupleStream, RelError> {
        let new_header = crate::aggregate::rename(&self.header, from, to)?;
        Ok(TupleStream { header: Arc::new(new_header), inner: self.inner })
    }

    /// Sort by the given keys (pipeline breaker: drains the stream,
    /// delegates to the batch sort, and re-streams the result).
    pub fn sort(self, keys: &[(&str, bool)]) -> Result<TupleStream, RelError> {
        let rel = self.collect()?;
        Ok(TupleStream::scan(&ops::sort(&rel, keys)?))
    }

    /// Replace the stream's schema-level header with `rel`'s (empty-tuple)
    /// shape.  The stored fields must match by name and type in order;
    /// methods and provenance may differ — this is how the plan executor
    /// installs display-layer headers (whose re-defaulted methods the bare
    /// relational operators do not know about) so that downstream
    /// predicates can reference them.
    pub fn with_header(self, rel: &Relation) -> Result<TupleStream, RelError> {
        if rel.schema() != self.header.schema() {
            return Err(RelError::Schema(format!(
                "stream header mismatch: stream has {:?}, replacement has {:?}",
                self.header.schema().names().collect::<Vec<_>>(),
                rel.schema().names().collect::<Vec<_>>()
            )));
        }
        Ok(TupleStream { header: Arc::new(empty_header(rel)), inner: self.inner })
    }

    /// Route the stream through an attribution cell: `cell` counts every
    /// tuple that passes this point (exact) and samples the pull time
    /// (every [`ATTR_SAMPLE_PERIOD`]-th `next()` is timed and scaled).
    ///
    /// A pristine `Whole` stream stays zero-copy: its rows are known up
    /// front and `collect` re-shares the `Arc` without per-tuple pulls,
    /// so the cell is credited the full store size and no time.
    pub fn attributed(self, cell: Arc<OpCell>) -> TupleStream {
        match self.inner {
            Inner::Whole(tuples) => {
                cell.add_rows(tuples.len() as u64);
                TupleStream { header: self.header, inner: Inner::Whole(tuples) }
            }
            Inner::Iter(mut it) => {
                let iter = std::iter::from_fn(move || {
                    let n = cell.calls.fetch_add(1, Ordering::Relaxed);
                    let item = if n.is_multiple_of(ATTR_SAMPLE_PERIOD) {
                        let t0 = Instant::now();
                        let item = it.next();
                        cell.sampled_ns
                            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                        cell.sampled_calls.fetch_add(1, Ordering::Relaxed);
                        item
                    } else {
                        it.next()
                    };
                    if matches!(item, Some(Ok(_))) {
                        cell.rows_out.fetch_add(1, Ordering::Relaxed);
                    }
                    item
                });
                TupleStream { header: self.header, inner: Inner::Iter(Box::new(iter)) }
            }
        }
    }

    /// Route the stream through a budget meter: rows passing this point
    /// are charged against the demand's shared [`BudgetMeter`], in batches
    /// of [`GOVERN_CHECK_PERIOD`] so the per-pull fast path is a local
    /// counter bump.  `None` is a no-op (zero cost when ungoverned).
    ///
    /// A pristine `Whole` stream stays zero-copy: its rows are known up
    /// front, so they are charged in one call and, if the budget rejects
    /// them, the stream degrades to a single-error iterator.
    pub fn governed(self, meter: &Option<Arc<BudgetMeter>>) -> TupleStream {
        let Some(meter) = meter else { return self };
        let meter = Arc::clone(meter);
        match self.inner {
            Inner::Whole(tuples) => match meter.charge(tuples.len() as u64) {
                Ok(()) => TupleStream { header: self.header, inner: Inner::Whole(tuples) },
                Err(e) => {
                    let mut err = Some(e);
                    let iter = std::iter::from_fn(move || err.take().map(Err));
                    TupleStream { header: self.header, inner: Inner::Iter(Box::new(iter)) }
                }
            },
            Inner::Iter(mut it) => {
                let mut pending = 0u64;
                let mut failed = false;
                let iter = std::iter::from_fn(move || {
                    if failed {
                        return None;
                    }
                    pending += 1;
                    if pending >= GOVERN_CHECK_PERIOD {
                        if let Err(e) = meter.charge(std::mem::take(&mut pending)) {
                            failed = true;
                            return Some(Err(e));
                        }
                    }
                    match it.next() {
                        Some(item) => Some(item),
                        None => {
                            // Flush the tail batch (minus the pull that hit
                            // exhaustion) so the demand's cumulative row
                            // account stays exact; the work is already
                            // done, so a cap trip here is not an error.
                            pending = pending.saturating_sub(1);
                            if pending > 0 {
                                let _ = meter.charge(std::mem::take(&mut pending));
                            }
                            None
                        }
                    }
                });
                TupleStream { header: self.header, inner: Inner::Iter(Box::new(iter)) }
            }
        }
    }

    /// Tag this point of the stream as a named fault-injection site: each
    /// pull passes its 0-based pull count as the site coordinate to the
    /// armed [`FaultPlan`].  `None` (the disarmed case) is a no-op that
    /// preserves the stream untouched, including `Whole` zero-copy.
    pub fn fault_site(self, plan: &Option<Arc<FaultPlan>>, site: &'static str) -> TupleStream {
        let Some(plan) = plan else { return self };
        let plan = Arc::clone(plan);
        let (header, mut it) = self.into_iter_inner();
        let mut pulls = 0u64;
        let mut failed = false;
        let iter = std::iter::from_fn(move || {
            if failed {
                return None;
            }
            let coord = pulls;
            pulls += 1;
            if let Err(e) = plan.trip(site, coord) {
                failed = true;
                return Some(Err(e));
            }
            it.next()
        });
        TupleStream { header, inner: Inner::Iter(Box::new(iter)) }
    }

    /// Drain the stream into a relation under the current header.
    pub fn collect(self) -> Result<Relation, RelError> {
        let schema = self.header.schema().clone();
        let methods = self.header.methods().to_vec();
        let source = self.header.source().map(str::to_string);
        match self.inner {
            Inner::Whole(tuples) => Ok(Relation::from_shared(schema, methods, tuples, source)),
            Inner::Iter(iter) => {
                let tuples = iter.collect::<Result<Vec<Tuple>, RelError>>()?;
                Ok(Relation::from_parts(schema, methods, tuples, source))
            }
        }
    }
}

/// The schema-level shape of a projection: stored-field indices to keep,
/// the projected schema, and the surviving methods (fixpoint over
/// transitive dependencies).  Shared by the batch and streaming forms.
pub(crate) fn project_shape(
    rel: &Relation,
    fields: &[&str],
) -> Result<(Vec<usize>, Schema, Vec<Method>), RelError> {
    let mut idxs = Vec::with_capacity(fields.len());
    let mut new_fields = Vec::with_capacity(fields.len());
    for &f in fields {
        let i =
            rel.schema().index_of(f).ok_or_else(|| RelError::UnknownAttribute(f.to_string()))?;
        idxs.push(i);
        new_fields.push(rel.schema().fields()[i].clone());
    }
    let schema = Schema::new(new_fields)?;

    // Iteratively keep methods whose deps all resolve.
    let mut keep: Vec<Method> = Vec::new();
    let mut changed = true;
    let mut remaining: Vec<&Method> = rel.methods().iter().collect();
    while changed {
        changed = false;
        remaining.retain(|m| {
            let ok = m.def.referenced_attrs().iter().all(|a| {
                a == crate::SEQ_ATTR
                    || schema.index_of(a).is_some()
                    || keep.iter().any(|k| &k.name == a)
            });
            if ok {
                keep.push((*m).clone());
                changed = true;
                false
            } else {
                true
            }
        });
    }
    Ok((idxs, schema, keep))
}

/// One pre-compiled per-tuple stage of a [`ParPipeline`].  Each stage
/// carries the (empty-tuple) header its expressions evaluate against, so
/// workers see exactly the methods the serial stream would install via
/// [`TupleStream::with_header`].
enum ParStage {
    Restrict { header: Relation, pred: Expr },
    Project { idxs: Vec<usize> },
    Sample { p: f64, seed: u64 },
    Distinct { header: Relation, names: Vec<String> },
}

/// Per-partition worker output: surviving tuples in partition order,
/// plus their distinct keys when the pipeline ends in a Distinct stage
/// (the merge deduplicates globally across partitions), plus the
/// attribution facts the merge rolls up — per-stage survivor counts
/// (partition-local, summed at merge so the totals are identical to a
/// serial run) and the worker's wall time.
struct PartOut {
    tuples: Vec<Tuple>,
    keys: Vec<String>,
    stage_rows: Vec<u64>,
    wall_ns: u64,
}

/// A partition-parallel pipeline over one relation's tuple store.
///
/// The caller pushes stages bottom-up (the same order the serial stream
/// chains its adapters) and then [`ParPipeline::run`]s them over `k`
/// contiguous partitions on `std::thread::scope` workers.  The merged
/// output is tuple-for-tuple identical to the serial [`TupleStream`]
/// chain — same tuples, same order, and on failure the same (earliest)
/// error — provided the caller upholds two invariants this type cannot
/// check itself:
///
/// * **Position independence**: no restrict predicate or distinct key
///   may (transitively, through methods) observe `__seq`.  Workers
///   evaluate with partition-local sequence numbers; a position-dependent
///   expression would see different numbers than the serial stream.  The
///   plan layer guards this with its `__seq` closure analysis.
/// * **Positional sampling**: a Sample stage's input positions must equal
///   the scan positions (only 1:1 stages below it), because each worker
///   fast-forwards the seeded RNG by its partition's start offset to
///   reproduce the serial draw sequence exactly.
pub struct ParPipeline {
    src: Arc<Store>,
    stages: Vec<ParStage>,
    /// Every stage so far passes each input tuple through exactly once
    /// (only projections/renames below): required for a Sample stage's
    /// RNG skip-ahead to be positionally aligned with the scan.
    one_to_one: bool,
    /// Attribution: `stage_cells[i]` receives stage `i`'s merged output
    /// row count; `source_cell` the scanned store size.  A terminal
    /// Distinct stage is credited the *globally* deduplicated count (at
    /// merge), never partition-local ones, so rows stay identical across
    /// thread counts.  The topmost stage cell is also charged the
    /// slowest worker's wall time.
    source_cell: Option<Arc<OpCell>>,
    stage_cells: Vec<Option<Arc<OpCell>>>,
    /// Governance: shared budget meter (rows charged in batches from the
    /// partition loops) and the armed fault plan (`worker`/`scan` sites).
    meter: Option<Arc<BudgetMeter>>,
    faults: Option<Arc<FaultPlan>>,
}

impl ParPipeline {
    /// Start a pipeline over `rel`'s tuples (shares the `Arc` store).
    pub fn new(rel: &Relation) -> ParPipeline {
        ParPipeline {
            src: rel.tuples_arc(),
            stages: Vec::new(),
            one_to_one: true,
            source_cell: None,
            stage_cells: Vec::new(),
            meter: None,
            faults: None,
        }
    }

    /// Attach the demand's budget meter and/or the armed fault plan.
    /// Workers charge the shared meter every [`GOVERN_CHECK_PERIOD`] rows
    /// and expose the `worker` (coordinate = partition index) and `scan`
    /// (coordinate = scan position) fault sites.
    pub fn set_govern(&mut self, meter: Option<Arc<BudgetMeter>>, faults: Option<Arc<FaultPlan>>) {
        self.meter = meter;
        self.faults = faults;
    }

    /// Number of compiled stages (renames are schema-only and add none).
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// How many workers [`run`](Self::run) would actually use for a
    /// given budget (partitioning never splits below one row per
    /// worker).
    pub fn planned_workers(&self, threads: usize) -> usize {
        crate::par::partition_ranges(self.src.len(), threads).len()
    }

    /// Attach attribution cells; `stage_cells` must align 1:1 with the
    /// compiled stages (pass `None` for stages nobody is watching).
    pub fn set_cells(
        &mut self,
        source_cell: Option<Arc<OpCell>>,
        stage_cells: Vec<Option<Arc<OpCell>>>,
    ) -> Result<(), RelError> {
        if stage_cells.len() != self.stages.len() {
            return Err(RelError::Schema(format!(
                "attribution cells misaligned: {} cells for {} stages",
                stage_cells.len(),
                self.stages.len()
            )));
        }
        self.source_cell = source_cell;
        self.stage_cells = stage_cells;
        Ok(())
    }

    fn check_open(&self) -> Result<(), RelError> {
        if matches!(self.stages.last(), Some(ParStage::Distinct { .. })) {
            // Stages above a distinct may not run before the *global*
            // dedup: a partition-local survivor dropped by a later filter
            // would wrongly let another partition's duplicate through.
            return Err(RelError::Schema(
                "parallel pipeline: Distinct must be the final stage".into(),
            ));
        }
        Ok(())
    }

    /// Append a filter stage; `header` is the stage's input shape (the
    /// serial stream's `with_header` relation).  Typechecks exactly as
    /// [`TupleStream::restrict`] does.
    pub fn restrict(&mut self, header: &Relation, pred: &Expr) -> Result<(), RelError> {
        self.check_open()?;
        let ty = typecheck(pred, &header.type_env())?;
        if ty != ScalarType::Bool {
            return Err(RelError::Schema(format!("restrict predicate has type {ty}, not bool")));
        }
        self.stages.push(ParStage::Restrict {
            header: header.with_tuples(Vec::new()),
            pred: pred.clone(),
        });
        self.one_to_one = false;
        Ok(())
    }

    /// Append a projection stage over `header`'s stored fields.
    pub fn project(&mut self, header: &Relation, fields: &[&str]) -> Result<(), RelError> {
        self.check_open()?;
        let (idxs, _, _) = project_shape(header, fields)?;
        self.stages.push(ParStage::Project { idxs });
        Ok(())
    }

    /// Append a Bernoulli sample stage.  Refused unless every stage below
    /// is 1:1, because the worker-side RNG skip-ahead assumes the stage's
    /// input positions equal the scan positions.
    pub fn sample(&mut self, p: f64, seed: u64) -> Result<(), RelError> {
        self.check_open()?;
        if !self.one_to_one {
            return Err(RelError::Schema(
                "parallel pipeline: Sample requires only 1:1 stages below it".into(),
            ));
        }
        if !(0.0..=1.0).contains(&p) {
            return Err(RelError::Schema(format!("sample probability {p} outside [0, 1]")));
        }
        self.stages.push(ParStage::Sample { p, seed });
        self.one_to_one = false;
        Ok(())
    }

    /// Append the terminal first-occurrence Distinct stage (empty `attrs`
    /// keys on every stored field of `header`).  No further stage may be
    /// pushed after it.
    pub fn distinct(&mut self, header: &Relation, attrs: &[&str]) -> Result<(), RelError> {
        self.check_open()?;
        let names: Vec<String> = if attrs.is_empty() {
            header.schema().names().map(str::to_string).collect()
        } else {
            for a in attrs {
                if !header.has_attr(a) {
                    return Err(RelError::UnknownAttribute(a.to_string()));
                }
            }
            attrs.iter().map(|s| s.to_string()).collect()
        };
        self.stages.push(ParStage::Distinct { header: header.with_tuples(Vec::new()), names });
        Ok(())
    }

    /// Run the pipeline over at most `threads` contiguous partitions and
    /// merge in partition order.
    pub fn run(self, threads: usize) -> Result<Vec<Tuple>, RelError> {
        let ranges = crate::par::partition_ranges(self.src.len(), threads);
        let stages = &self.stages;
        let src = &self.src;
        let meter = &self.meter;
        let faults = &self.faults;
        // Each worker body is contained: a panic anywhere in a partition
        // (a buggy method, an injected `worker:<i>=panic` fault) becomes a
        // structured `RelError::Panic` for that partition instead of
        // poisoning the scope and aborting the process.  The plan layer
        // uses that signal to fall back to serial execution.
        let worker = |w: usize, tuples: &[Tuple], start: usize| -> Result<PartOut, RelError> {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if let Some(plan) = faults {
                    plan.trip("worker", w as u64)?;
                }
                run_partition(stages, tuples, start, meter.as_deref(), faults.as_deref())
            }))
            .unwrap_or_else(|payload| Err(RelError::Panic(crate::govern::panic_message(payload))))
        };
        let parts: Vec<Result<PartOut, RelError>> = if ranges.len() <= 1 {
            ranges.into_iter().map(|r| worker(0, &src[r], 0)).collect()
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = ranges
                    .into_iter()
                    .enumerate()
                    .map(|(w, r)| {
                        let start = r.start;
                        let worker = &worker;
                        scope.spawn(move || worker(w, &src[r], start))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        h.join().unwrap_or_else(|payload| {
                            Err(RelError::Panic(crate::govern::panic_message(payload)))
                        })
                    })
                    .collect()
            })
        };
        // Merge in partition order: partitions are contiguous scan
        // ranges, so concatenation reproduces the serial output order and
        // the first failing partition holds the globally earliest error.
        let dedup = matches!(self.stages.last(), Some(ParStage::Distinct { .. }));
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        let mut max_wall = 0u64;
        let mut kept_by_dedup = 0u64;
        for part in parts {
            let part = part?;
            max_wall = max_wall.max(part.wall_ns);
            for (i, n) in part.stage_rows.iter().enumerate() {
                // A terminal Distinct's partition-local survivor count
                // depends on the partitioning; only the global count
                // below is meaningful.
                if dedup && i + 1 == self.stages.len() {
                    continue;
                }
                if let Some(cell) = self.stage_cells.get(i).and_then(Option::as_ref) {
                    cell.add_rows(*n);
                }
            }
            if dedup {
                for (k, t) in part.keys.into_iter().zip(part.tuples) {
                    if seen.insert(k) {
                        kept_by_dedup += 1;
                        out.push(t);
                    }
                }
            } else {
                out.extend(part.tuples);
            }
        }
        if let Some(cell) = &self.source_cell {
            cell.add_rows(self.src.len() as u64);
        }
        if dedup {
            if let Some(cell) = self.stage_cells.last().and_then(Option::as_ref) {
                cell.add_rows(kept_by_dedup);
            }
        }
        // Segment time: the slowest worker's wall, charged to the top of
        // the fused chain (per-stage time is inseparable inside the
        // fused loop).
        if let Some(cell) = self.stage_cells.last().and_then(Option::as_ref) {
            cell.add_direct_ns(max_wall);
        }
        Ok(out)
    }
}

/// Apply every stage to one partition's tuples.  Sequence numbers are
/// partition-local (sound only under the position-independence invariant
/// on [`ParPipeline`]); sample RNGs are fast-forwarded by `scan_start`
/// draws to land on the partition's slice of the serial draw sequence.
fn run_partition(
    stages: &[ParStage],
    tuples: &[Tuple],
    scan_start: usize,
    meter: Option<&BudgetMeter>,
    faults: Option<&FaultPlan>,
) -> Result<PartOut, RelError> {
    let mut rngs: Vec<Option<StdRng>> = stages
        .iter()
        .map(|s| match s {
            ParStage::Sample { seed, .. } => {
                let mut rng = StdRng::seed_from_u64(*seed);
                for _ in 0..scan_start {
                    rng.gen::<f64>();
                }
                Some(rng)
            }
            _ => None,
        })
        .collect();
    let t0 = Instant::now();
    let mut seqs = vec![0usize; stages.len()];
    let mut local_seen = HashSet::new();
    let mut out = PartOut {
        tuples: Vec::new(),
        keys: Vec::new(),
        stage_rows: vec![0; stages.len()],
        wall_ns: 0,
    };
    let mut pending = 0u64;
    'tuples: for (off, t) in tuples.iter().enumerate() {
        // Governance checkpoints, amortized per row: the `scan` fault site
        // fires at the tuple's *global* scan position (identical serial vs
        // parallel), and budget rows are charged in batches.
        if let Some(plan) = faults {
            plan.trip("scan", (scan_start + off) as u64)?;
        }
        if let Some(m) = meter {
            pending += 1;
            if pending >= GOVERN_CHECK_PERIOD {
                m.charge(std::mem::take(&mut pending))?;
            }
        }
        let mut t = t.clone();
        let mut key = None;
        for (i, stage) in stages.iter().enumerate() {
            match stage {
                ParStage::Restrict { header, pred } => {
                    let seq = seqs[i];
                    seqs[i] += 1;
                    let ctx = TupleContext::new(header, &t, seq);
                    match eval_predicate(pred, &ctx) {
                        Ok(true) => {}
                        Ok(false) => continue 'tuples,
                        Err(e) => return Err(e.into()),
                    }
                }
                ParStage::Project { idxs } => {
                    t = Tuple::new(t.row_id, idxs.iter().map(|&j| t.values()[j].clone()).collect());
                }
                ParStage::Sample { p, .. } => {
                    let rng = rngs[i].as_mut().expect("sample stage has an rng");
                    if rng.gen::<f64>() >= *p {
                        continue 'tuples;
                    }
                }
                ParStage::Distinct { header, names } => {
                    let seq = seqs[i];
                    seqs[i] += 1;
                    let ctx = TupleContext::new(header, &t, seq);
                    let vals: Vec<Value> =
                        names.iter().map(|n| ctx.get(n).unwrap_or(Value::Null)).collect();
                    let k = group_key(&vals);
                    if !local_seen.insert(k.clone()) {
                        continue 'tuples;
                    }
                    key = Some(k);
                }
            }
            out.stage_rows[i] += 1;
        }
        if let Some(k) = key {
            out.keys.push(k);
        }
        out.tuples.push(t);
    }
    if pending > 0 {
        if let Some(m) = meter {
            m.charge(pending)?;
        }
    }
    out.wall_ns = t0.elapsed().as_nanos() as u64;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::RelationBuilder;
    use tioga2_expr::{parse, ScalarType as T, Value};

    fn nums(n: i64) -> Relation {
        let mut b = RelationBuilder::new().field("v", T::Int).field("w", T::Int);
        for i in 0..n {
            b = b.row(vec![Value::Int(i), Value::Int(i * 10)]);
        }
        b.build().unwrap()
    }

    #[test]
    fn scan_collect_shares_storage() {
        let r = nums(5);
        let out = TupleStream::scan(&r).collect().unwrap();
        assert_eq!(out, r);
        assert!(std::ptr::eq(r.tuples().as_ptr(), out.tuples().as_ptr()), "no copy");
    }

    #[test]
    fn rename_keeps_shared_storage() {
        let r = nums(5);
        let out = TupleStream::scan(&r).rename("v", "x").unwrap().collect().unwrap();
        assert!(out.has_attr("x") && !out.has_attr("v"));
        assert!(std::ptr::eq(r.tuples().as_ptr(), out.tuples().as_ptr()), "schema-only change");
    }

    #[test]
    fn chained_stream_matches_batch() {
        let r = nums(100);
        let pred = parse("v % 3 = 0").unwrap();
        let streamed = TupleStream::scan(&r)
            .restrict(&pred)
            .unwrap()
            .project(&["w"])
            .unwrap()
            .limit(2, 5)
            .collect()
            .unwrap();
        let batch =
            crate::limit(&ops::project(&ops::restrict(&r, &pred).unwrap(), &["w"]).unwrap(), 2, 5);
        assert_eq!(streamed, batch);
    }

    #[test]
    fn limit_exits_early() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let r = nums(1_000);
        let count = Arc::new(AtomicUsize::new(0));
        let c2 = count.clone();
        let (header, input) = TupleStream::scan(&r).into_iter_inner();
        let counted = input.inspect(move |_| {
            c2.fetch_add(1, Ordering::Relaxed);
        });
        let s = TupleStream { header, inner: Inner::Iter(Box::new(counted)) };
        assert_eq!(s.limit(1, 4).collect().unwrap().len(), 4);
        assert_eq!(count.load(Ordering::Relaxed), 5, "limit pulled exactly offset + count tuples");
    }

    #[test]
    fn sample_matches_batch_for_same_seed() {
        let r = nums(200);
        let streamed = TupleStream::scan(&r).sample(0.3, 42).unwrap().collect().unwrap();
        let batch = ops::sample(&r, 0.3, 42).unwrap();
        assert_eq!(streamed, batch);
    }

    #[test]
    fn distinct_streams_first_occurrences() {
        let mut b = RelationBuilder::new().field("k", T::Int).field("v", T::Int);
        for (k, v) in [(1, 10), (2, 20), (1, 30), (2, 40), (3, 50)] {
            b = b.row(vec![Value::Int(k), Value::Int(v)]);
        }
        let r = b.build().unwrap();
        let streamed = TupleStream::scan(&r).distinct(&["k"]).unwrap().collect().unwrap();
        let batch = crate::distinct(&r, &["k"]).unwrap();
        assert_eq!(streamed, batch);
        assert_eq!(streamed.len(), 3);
    }

    #[test]
    fn restrict_sees_stage_local_seq() {
        // After a restrict, a downstream __seq predicate must see the
        // *compacted* positions, exactly as in batch evaluation.
        let r = nums(10);
        let streamed = TupleStream::scan(&r)
            .restrict(&parse("v >= 5").unwrap())
            .unwrap()
            .restrict(&parse("__seq < 2").unwrap())
            .unwrap()
            .collect()
            .unwrap();
        let batch = ops::restrict(
            &ops::restrict(&r, &parse("v >= 5").unwrap()).unwrap(),
            &parse("__seq < 2").unwrap(),
        )
        .unwrap();
        assert_eq!(streamed, batch);
        assert_eq!(streamed.len(), 2);
    }

    #[test]
    fn errors_propagate() {
        let r = nums(3);
        assert!(TupleStream::scan(&r).restrict(&parse("v").unwrap()).is_err(), "non-bool");
        assert!(TupleStream::scan(&r).project(&["nope"]).is_err());
        assert!(TupleStream::scan(&r).sample(1.5, 0).is_err());
        assert!(TupleStream::scan(&r).distinct(&["nope"]).is_err());
    }

    /// Serial reference for the parallel tests: the same chain through
    /// the streaming adapters (sample at the bottom, where it is
    /// positionally aligned with the scan).
    fn serial_chain(r: &Relation) -> Vec<Tuple> {
        TupleStream::scan(r)
            .sample(0.7, 99)
            .unwrap()
            .restrict(&parse("v % 3 <> 1").unwrap())
            .unwrap()
            .project(&["w"])
            .unwrap()
            .collect()
            .unwrap()
            .tuples()
            .to_vec()
    }

    #[test]
    fn parallel_chain_matches_serial_at_every_thread_count() {
        for n in [0i64, 1, 2, 37, 500] {
            let r = nums(n);
            let expected = serial_chain(&r);
            for threads in [1usize, 2, 3, 8, 64] {
                let mut p = ParPipeline::new(&r);
                p.sample(0.7, 99).unwrap();
                p.restrict(&r, &parse("v % 3 <> 1").unwrap()).unwrap();
                p.project(&r, &["w"]).unwrap();
                assert_eq!(p.stage_count(), 3);
                let got = p.run(threads).unwrap();
                assert_eq!(got, expected, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn parallel_sample_refused_above_a_filter() {
        let r = nums(10);
        let mut p = ParPipeline::new(&r);
        p.restrict(&r, &parse("v > 2").unwrap()).unwrap();
        assert!(p.sample(0.5, 1).is_err(), "sample above restrict is positionally misaligned");
    }

    #[test]
    fn parallel_sample_skips_ahead_correctly() {
        // Sample below nothing 1:1-breaking: each worker must reproduce
        // exactly its slice of the serial draw sequence.
        let r = nums(301);
        let serial = TupleStream::scan(&r).sample(0.42, 7).unwrap().collect().unwrap();
        for threads in [2usize, 5, 16] {
            let mut p = ParPipeline::new(&r);
            p.sample(0.42, 7).unwrap();
            assert_eq!(p.run(threads).unwrap(), serial.tuples().to_vec());
        }
    }

    #[test]
    fn parallel_distinct_dedups_across_partitions() {
        let mut b = RelationBuilder::new().field("k", T::Int).field("v", T::Int);
        for i in 0..200i64 {
            b = b.row(vec![Value::Int(i % 7), Value::Int(i)]);
        }
        let r = b.build().unwrap();
        let serial = TupleStream::scan(&r).distinct(&["k"]).unwrap().collect().unwrap();
        for threads in [1usize, 2, 8] {
            let mut p = ParPipeline::new(&r);
            p.distinct(&r, &["k"]).unwrap();
            assert_eq!(p.run(threads).unwrap(), serial.tuples().to_vec(), "threads={threads}");
        }
    }

    #[test]
    fn parallel_pipeline_is_sealed_after_distinct() {
        let r = nums(10);
        let mut p = ParPipeline::new(&r);
        p.distinct(&r, &[]).unwrap();
        assert!(p.restrict(&r, &parse("v > 2").unwrap()).is_err());
        assert!(p.sample(0.5, 1).is_err());
    }

    #[test]
    fn parallel_build_errors_match_serial() {
        let r = nums(3);
        let mut p = ParPipeline::new(&r);
        assert!(p.restrict(&r, &parse("v").unwrap()).is_err(), "non-bool");
        assert!(p.project(&r, &["nope"]).is_err());
        assert!(p.sample(1.5, 0).is_err());
        assert!(p.distinct(&r, &["nope"]).is_err());
    }

    #[test]
    fn attributed_counts_exact_rows_and_keeps_zero_copy() {
        let r = nums(500);
        let source = OpCell::new();
        let after = OpCell::new();
        let out = TupleStream::scan(&r)
            .attributed(source.clone())
            .restrict(&parse("v % 2 = 0").unwrap())
            .unwrap()
            .attributed(after.clone())
            .collect()
            .unwrap();
        assert_eq!(source.rows_out(), 500);
        assert_eq!(after.rows_out(), 250);
        assert_eq!(out.len(), 250);

        // Attribution on a pristine scan must not break Arc sharing.
        let cell = OpCell::new();
        let shared = TupleStream::scan(&r).attributed(cell.clone()).collect().unwrap();
        assert!(std::ptr::eq(r.tuples().as_ptr(), shared.tuples().as_ptr()), "no copy");
        assert_eq!(cell.rows_out(), 500);
        assert_eq!(cell.est_ns(), 0, "a Whole pass-through costs no pull time");

        // Directly-charged time feeds the estimate.
        cell.add_direct_ns(1234);
        assert!(cell.est_ns() >= 1234);
    }

    #[test]
    fn parallel_cells_report_thread_invariant_rows() {
        let mut b = RelationBuilder::new().field("k", T::Int).field("v", T::Int);
        for i in 0..200i64 {
            b = b.row(vec![Value::Int(i % 7), Value::Int(i)]);
        }
        let r = b.build().unwrap();
        let pred = parse("v % 3 <> 1").unwrap();
        let serial_restricted = ops::restrict(&r, &pred).unwrap().len() as u64;
        let serial_out = crate::distinct(&ops::restrict(&r, &pred).unwrap(), &["k"]).unwrap();
        for threads in [1usize, 2, 8] {
            let mut p = ParPipeline::new(&r);
            p.restrict(&r, &pred).unwrap();
            p.distinct(&r, &["k"]).unwrap();
            let src = OpCell::new();
            let c_restrict = OpCell::new();
            let c_distinct = OpCell::new();
            p.set_cells(
                Some(src.clone()),
                vec![Some(c_restrict.clone()), Some(c_distinct.clone())],
            )
            .unwrap();
            assert!(p.planned_workers(threads) <= threads);
            let out = p.run(threads).unwrap();
            assert_eq!(out, serial_out.tuples().to_vec(), "threads={threads}");
            assert_eq!(src.rows_out(), 200, "threads={threads}");
            assert_eq!(c_restrict.rows_out(), serial_restricted, "threads={threads}");
            // Distinct is credited the *global* count — identical at any
            // thread count, never the partition-local survivor sums.
            assert_eq!(c_distinct.rows_out(), out.len() as u64, "threads={threads}");
        }
    }

    #[test]
    fn misaligned_cells_are_refused() {
        let r = nums(10);
        let mut p = ParPipeline::new(&r);
        p.project(&r, &["v"]).unwrap();
        assert!(p.set_cells(None, vec![]).is_err());
        assert!(p.set_cells(None, vec![None]).is_ok());
    }

    #[test]
    fn parallel_eval_error_is_the_earliest_in_scan_order() {
        // A predicate that errors on a specific row: the parallel run must
        // surface the same error the serial stream would hit first.
        let mut b = RelationBuilder::new().field("v", T::Int).field("s", T::Text);
        for i in 0..40i64 {
            let s = if i == 11 || i == 33 { "x" } else { "3" };
            b = b.row(vec![Value::Int(i), Value::Text(s.into())]);
        }
        let r = b.build().unwrap();
        let pred = parse("to_float(s) > 1.0").unwrap();
        let serial_err = TupleStream::scan(&r)
            .restrict(&pred)
            .unwrap()
            .collect()
            .expect_err("to_float('x') must fail")
            .to_string();
        for threads in [2usize, 4, 8] {
            let mut p = ParPipeline::new(&r);
            p.restrict(&r, &pred).unwrap();
            let got = p.run(threads).expect_err("parallel must fail too").to_string();
            assert_eq!(got, serial_err, "threads={threads}");
        }
    }
}
