//! The lazy, memoizing evaluation engine.
//!
//! Paper §2: "When data is present on all of a box's inputs, the box can
//! 'fire', producing results on one or more outputs.  Execution is lazy,
//! evaluating only what is required to produce the demanded
//! visualization."
//!
//! The engine is demand-driven: [`Engine::demand`] pulls one output port,
//! recursively firing upstream boxes.  Every fired box's outputs are
//! cached under a structural *signature* — a hash of the node's revision
//! and its transitive input signatures — so an edit to one box
//! invalidates exactly its downstream cone while everything else is a
//! cache hit.  [`eval_eager`] is the Tioga-1 baseline for the A1
//! ablation: recompute everything, no cache.

use crate::boxes::{BoxKind, CompOpKind, RelOpKind};
use crate::error::FlowError;
use crate::graph::{Graph, NodeId};
use crate::plan;
use crate::port::Data;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;
use tioga2_display::attr_ops;
use tioga2_display::compose::{replicate_within, stitch};
use tioga2_display::defaults::{make_display_relation, redefault};
use tioga2_display::drilldown::{
    overlay, reorder_layer, set_range, shuffle_to_top, MismatchPolicy,
};
use tioga2_display::lift::{apply_to_composite, apply_to_relation};
use tioga2_display::{DisplayRelation, Displayable};
use tioga2_expr::{Expr, UnaryOp};
use tioga2_obs::{CacheStatus, DemandTrace, EventLog, OpNode, Recorder, SessionEvent, SpanId};
use tioga2_relational::ops;
use tioga2_relational::update::{check_update, install_update_delta, FieldChange};
use tioga2_relational::{
    fault, govern, Budget, BudgetMeter, CancelToken, Catalog, Delta, RelError, RowChange,
};

/// Evaluation counters, used by tests and the ablation benches.
///
/// These are always maintained (they are a handful of integer adds per
/// box fire); richer telemetry — per-box spans, per-node cache tallies,
/// latency histograms — flows through the engine's [`Recorder`] and is
/// only collected when an enabled recorder is installed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Boxes actually fired.
    pub box_evals: u64,
    /// Demands satisfied from the memo cache.
    pub cache_hits: u64,
    /// Total tuples entering fired boxes.
    pub rows_in: u64,
    /// Total tuples leaving fired boxes.
    pub rows_out: u64,
}

struct CacheEntry {
    sig: u64,
    outputs: Vec<Data>,
}

/// Outcome of one [`Engine::apply_delta`] walk, also surfaced as the
/// `plan.delta.{applied,fallback,rows}` counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaOutcome {
    /// Cached entries patched in place (memo boundaries refreshed,
    /// aggregates merged, chains pushed through).
    pub applied: u64,
    /// Tainted entries with no applicable delta rule, evicted instead.
    pub fallback: u64,
    /// Row changes pushed into patched entries (`delta.rows()` each).
    pub rows: u64,
    /// Total entries removed from either cache (fallbacks plus sweeps
    /// of deleted boxes).
    pub evicted: u64,
}

/// Memoized result of one planned demand, keyed by the plan fingerprint
/// (canonical plan text + boundary structural signatures), so any edit
/// that changes the chain or anything upstream of it misses naturally.
struct PlanCacheEntry {
    fp: u64,
    output: Data,
    /// The pre-rewrite plan (window wrap included) whose execution
    /// produced `output`, kept so [`Engine::apply_delta`] can push
    /// base-table deltas through the chain and patch `output` in place.
    plan: plan::Plan,
}

/// Default capacity of the finished-[`DemandTrace`] ring (oldest evicted
/// first).  Small: traces exist for `:explain analyze`, `sys.demands`,
/// and flamegraph export, not as a durable log.  Override per process
/// with `TIOGA2_TRACE_RING`, per engine with [`Engine::set_trace_ring`].
pub const DEMAND_TRACE_RING: usize = 32;

/// With a recorder enabled (but no explicit analyze and no armed
/// slowlog), attribute one planned demand in this many.  Full
/// attribution threads a counting/timing cell through every tuple pull
/// — cheap per row but multiplied by every row of every monitored
/// demand; sampling keeps fleet telemetry under its <2% overhead budget
/// (the A11 ablation) while `sys.demands` still fills from ordinary
/// renders.
pub const TRACE_SAMPLE_PERIOD: u64 = 64;

/// Trace-ring capacity from `TIOGA2_TRACE_RING`, clamped to >= 1;
/// [`DEMAND_TRACE_RING`] when unset or unparsable.
fn env_trace_ring() -> usize {
    std::env::var("TIOGA2_TRACE_RING")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .unwrap_or(DEMAND_TRACE_RING)
        .max(1)
}

/// The lazy engine.  One engine is attached to one top-level graph; inner
/// (encapsulated) graphs get transient sub-engines.
pub struct Engine {
    catalog: Catalog,
    cache: HashMap<NodeId, CacheEntry>,
    plan_cache: HashMap<(NodeId, usize), PlanCacheEntry>,
    pub stats: EvalStats,
    recorder: Arc<dyn Recorder>,
    /// Worker count for partition-parallel plan execution; copied from
    /// [`tioga2_relational::par::threads`] at construction.
    threads: usize,
    /// Ring of the last [`Engine::trace_ring`] per-demand trace trees.
    /// Populated by [`Engine::demand_analyzed`] and while the slowlog is
    /// armed unconditionally, and by a 1-in-[`TRACE_SAMPLE_PERIOD`]
    /// sample of planned demands while an enabled recorder is installed.
    demand_traces: VecDeque<DemandTrace>,
    /// Recordable plan executions seen, for the sampling decision
    /// (plan-cache hits do not count — they never build traces).
    trace_sample_seq: u64,
    /// Capacity of `demand_traces`; `TIOGA2_TRACE_RING` at construction.
    trace_ring: usize,
    /// Traces evicted from the ring over this engine's lifetime (also
    /// surfaced as the `demand.traces_dropped` counter).
    traces_dropped: u64,
    next_demand_id: u64,
    /// Session event journal sink; when armed, every planned demand's
    /// outcome and every cache invalidation is appended as a typed event.
    journal: Option<EventLog>,
    /// Declarative budget applied to every demand (row cap, deadline,
    /// cancel token).  `None` means ungoverned; seeded from
    /// `TIOGA2_BUDGET` at construction.
    budget: Option<Budget>,
    /// The in-flight demand's started budget meter, shared by every
    /// governed site of that demand (streams, workers, box fires).  Set
    /// by the outermost containment frame, inherited by sub-engines.
    meter: Option<Arc<BudgetMeter>>,
    /// Per-engine fault-plan override.  `None` falls back to the
    /// process-global registry (`TIOGA2_FAULTS` / `fault::install`), so
    /// tests can inject deterministically without cross-engine bleed.
    faults: Option<Arc<fault::FaultPlan>>,
    /// Containment nesting depth: demand-outcome counters and panic
    /// cache-invalidation run only when the outermost frame unwinds.
    govern_depth: usize,
    /// Protocol request id stamped onto traces and journaled demand
    /// events until the next [`Engine::set_request_id`]; 0 outside a
    /// request context (REPL, tests).
    request_id: u64,
    /// Slow-demand sink plus the `{tenant, session}` labels its entries
    /// carry; installed by the session (standalone: from
    /// `TIOGA2_SLOWLOG`; under `tiogad`: the daemon's fleet-wide log).
    slowlog: Option<(Arc<tioga2_obs::SlowLog>, String, String)>,
}

fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

impl Engine {
    pub fn new(catalog: Catalog) -> Self {
        Engine {
            catalog,
            cache: HashMap::new(),
            plan_cache: HashMap::new(),
            stats: EvalStats::default(),
            recorder: tioga2_obs::noop(),
            threads: tioga2_relational::par::threads(),
            demand_traces: VecDeque::new(),
            trace_sample_seq: 0,
            trace_ring: env_trace_ring(),
            traces_dropped: 0,
            next_demand_id: 0,
            journal: None,
            budget: govern::env_budget(),
            meter: None,
            faults: None,
            govern_depth: 0,
            request_id: 0,
            slowlog: None,
        }
    }

    /// Stamp subsequent demands with a protocol request id (0 clears).
    /// `tiogad`'s session worker sets this per frame before running the
    /// command, so traces and journal events correlate to the wire.
    pub fn set_request_id(&mut self, request_id: u64) {
        self.request_id = request_id;
    }

    /// The request id subsequent demands will be stamped with.
    pub fn request_id(&self) -> u64 {
        self.request_id
    }

    /// Install the slow-demand sink with the labels its entries carry.
    pub fn set_slowlog(&mut self, log: Arc<tioga2_obs::SlowLog>, tenant: &str, session: &str) {
        self.slowlog = Some((log, tenant.to_string(), session.to_string()));
    }

    /// The installed slow-demand sink, if any.
    pub fn slowlog(&self) -> Option<&Arc<tioga2_obs::SlowLog>> {
        self.slowlog.as_ref().map(|(log, _, _)| log)
    }

    /// Install (or clear) the budget applied to subsequent demands.
    pub fn set_budget(&mut self, budget: Option<Budget>) {
        self.budget = budget;
    }

    /// Install (or clear) a fault plan scoped to this engine alone; when
    /// unset, demands consult the process-global registry instead.
    pub fn set_fault_plan(&mut self, plan: Option<fault::FaultPlan>) {
        self.faults = plan.map(Arc::new);
    }

    /// Attach a cancel token to the current budget (creating an otherwise
    /// empty budget if none is set).  The session uses this so a
    /// superseding render can cancel the in-flight demand cooperatively.
    pub fn set_cancel_token(&mut self, token: Option<CancelToken>) {
        match (&mut self.budget, token) {
            (Some(b), t) => b.token = t,
            (None, Some(t)) => self.budget = Some(Budget::new().with_token(t)),
            (None, None) => {}
        }
    }

    /// Classify a demand error for counters and trace status.
    fn error_status(e: &FlowError) -> &'static str {
        match e {
            FlowError::Rel(RelError::BudgetExceeded(_)) => "budget_exceeded",
            FlowError::Rel(RelError::Cancelled) => "cancelled",
            FlowError::Rel(RelError::FaultInjected(_)) => "fault_injected",
            FlowError::Rel(RelError::Panic(_)) => "panic",
            _ => "error",
        }
    }

    /// The containment frame wrapped around every public demand entry
    /// point: starts the budget meter (outermost frame only), catches
    /// panics from box procedures and operator code into structured
    /// [`RelError::Panic`] errors, and — when the outermost frame sees a
    /// failure — bumps the outcome counters and, for panics, drops every
    /// memo/plan-cache entry so a poisoned partial result is never served.
    fn contain<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, FlowError>,
    ) -> Result<T, FlowError> {
        self.govern_depth += 1;
        let owns_meter = self.meter.is_none() && self.budget.is_some();
        if owns_meter {
            self.meter = Some(self.budget.as_ref().expect("checked above").start());
        }
        // An already-cancelled token (or blown deadline) aborts before any
        // evaluation happens.
        let preflight = match &self.meter {
            Some(m) => m.probe().map_err(FlowError::from),
            None => Ok(()),
        };
        let result = match preflight {
            Ok(()) => std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(self)))
                .unwrap_or_else(|p| Err(FlowError::Rel(RelError::Panic(govern::panic_message(p))))),
            Err(e) => Err(e),
        };
        if owns_meter {
            self.meter = None;
        }
        self.govern_depth -= 1;
        if self.govern_depth == 0 {
            if let Err(e) = &result {
                let status = Self::error_status(e);
                match status {
                    "budget_exceeded" => self.recorder.add("demand.budget_exceeded", 1),
                    "cancelled" => self.recorder.add("demand.cancelled", 1),
                    "fault_injected" => self.recorder.add("faults.injected", 1),
                    "panic" => {
                        self.recorder.add("demand.panics_contained", 1);
                        // A panic can strike mid-insert anywhere in the
                        // demand's cone; discard everything it may have
                        // touched rather than serve a poisoned partial.
                        self.invalidate_all();
                    }
                    _ => {}
                }
            }
        }
        result
    }

    /// The retained per-demand trace trees, oldest first.
    pub fn demand_traces(&self) -> &VecDeque<DemandTrace> {
        &self.demand_traces
    }

    /// Current capacity of the demand-trace ring.
    pub fn trace_ring(&self) -> usize {
        self.trace_ring
    }

    /// Traces evicted from the ring over this engine's lifetime.
    pub fn traces_dropped(&self) -> u64 {
        self.traces_dropped
    }

    /// Resize the demand-trace ring (clamped to >= 1).  Shrinking evicts
    /// the oldest traces immediately; evictions count as dropped.
    pub fn set_trace_ring(&mut self, capacity: usize) {
        self.trace_ring = capacity.max(1);
        while self.demand_traces.len() > self.trace_ring {
            self.demand_traces.pop_front();
            self.traces_dropped += 1;
            self.recorder.add("demand.traces_dropped", 1);
        }
    }

    /// Attach (or detach) the session event journal.  When armed, every
    /// planned demand appends a [`SessionEvent::Demand`] outcome and
    /// every invalidation a [`SessionEvent::CacheInvalidation`].
    pub fn set_journal(&mut self, journal: Option<EventLog>) {
        self.journal = journal;
    }

    pub fn journal(&self) -> Option<&EventLog> {
        self.journal.as_ref()
    }

    /// The most recent trace for a given demanded `(node, port)`, if one
    /// is still in the ring.
    pub fn last_trace_for(&self, node: NodeId, port: usize) -> Option<&DemandTrace> {
        let label_prefix = format!("{node}.{port} ");
        self.demand_traces.iter().rev().find(|t| t.label.starts_with(&label_prefix))
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Worker count used by partition-parallel plan execution.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Override this engine's worker count (clamped to >= 1).  Purely an
    /// execution strategy: results are identical at any setting, so the
    /// plan cache is *not* invalidated.
    pub fn set_threads(&mut self, n: usize) {
        self.threads = n.max(1);
    }

    /// Number of live plan-cache entries (tests & diagnostics).
    pub fn plan_cache_len(&self) -> usize {
        self.plan_cache.len()
    }

    /// Install an instrumentation sink.  Sub-engines spawned for
    /// encapsulated boxes inherit it.
    pub fn set_recorder(&mut self, recorder: Arc<dyn Recorder>) {
        self.recorder = recorder;
    }

    pub fn recorder(&self) -> &Arc<dyn Recorder> {
        &self.recorder
    }

    /// Drop all memoized results (catalog updates call this: base-table
    /// contents are outside the structural signature).  Records a
    /// `cache.invalidations` counter event with the number of entries
    /// evicted journaled alongside.
    pub fn invalidate_all(&mut self) {
        // Plan results embed base-table contents too: same lifetime, and
        // the counter reports both kinds of evicted entries.
        let evicted = (self.cache.len() + self.plan_cache.len()) as u64;
        self.cache.clear();
        self.plan_cache.clear();
        self.recorder.add("cache.invalidations", 1);
        self.recorder.add("cache.invalidated_entries", evicted);
        if let Some(j) = &self.journal {
            j.append(SessionEvent::CacheInvalidation { scope: "all".into(), entries: evicted });
        }
    }

    /// Does `kind` read any of `tables` from the catalog?  Encapsulated
    /// boxes are searched recursively (inner graph and plugs).  `Custom`
    /// boxes are treated as readers conservatively: their closure is
    /// opaque, so we cannot prove they ignore the catalog.
    fn kind_reads(kind: &BoxKind, tables: &[String]) -> bool {
        match kind {
            BoxKind::Table(t) => tables.iter().any(|x| x == t),
            BoxKind::Encapsulated { def, plugs } => {
                def.graph.nodes().any(|n| Self::kind_reads(&n.kind, tables))
                    || plugs.iter().any(|p| Self::kind_reads(p, tables))
            }
            BoxKind::Custom(_) => true,
            _ => false,
        }
    }

    /// The nodes whose demand cone reads one of `tables`: every node
    /// whose kind reads a listed table, propagated downstream to a
    /// fixpoint (graphs are interactive-UI sized; quadratic worst case
    /// is fine).
    fn tainted_nodes(graph: &Graph, tables: &[String]) -> HashSet<NodeId> {
        let mut tainted: HashSet<NodeId> =
            graph.nodes().filter(|n| Self::kind_reads(&n.kind, tables)).map(|n| n.id).collect();
        loop {
            let mut grew = false;
            for n in graph.nodes() {
                if !tainted.contains(&n.id)
                    && n.inputs.iter().flatten().any(|(src, _)| tainted.contains(src))
                {
                    tainted.insert(n.id);
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
        tainted
    }

    /// Drop only the memoized results whose demand cone reads one of
    /// `tables` — a node is evicted iff its kind reads a listed table or
    /// any transitive input does.  Entries keyed by nodes no longer in
    /// `graph` are evicted too (nothing can be proven about a deleted
    /// box).  Returns the number of entries evicted.  This is what
    /// `sys.*` refreshes use so that unrelated cached plans survive.
    pub fn invalidate_reading(&mut self, graph: &Graph, tables: &[String]) -> u64 {
        let tainted = Self::tainted_nodes(graph, tables);
        let before = self.cache.len() + self.plan_cache.len();
        self.cache.retain(|id, _| graph.node(*id).is_ok() && !tainted.contains(id));
        self.plan_cache.retain(|(id, _), _| graph.node(*id).is_ok() && !tainted.contains(id));
        let evicted = (before - self.cache.len() - self.plan_cache.len()) as u64;
        self.recorder.add("cache.invalidations", 1);
        self.recorder.add("cache.invalidated_entries", evicted);
        if let Some(j) = &self.journal {
            // The journaled scope carries the *actual* table list so
            // `sys.events` and replay can tell a selective eviction from
            // a full flush (whose scope is `"all"`).
            j.append(SessionEvent::CacheInvalidation { scope: tables.join(","), entries: evicted });
        }
        evicted
    }

    /// Install a committed update of row `row_id` in base table `table`
    /// of this engine's catalog, then propagate it with
    /// [`Engine::apply_delta`].
    ///
    /// Memo entries over the table pin the tuple store they read (a
    /// boundary snapshot, or an attribute box whose output shares the
    /// tuples), which would make the write copy the whole table and
    /// `apply_delta` free the old copy.  `apply_delta` never reads what
    /// those entries hold — it refreshes the table's boundaries from the
    /// catalog and evicts every other tainted entry but a mergeable
    /// aggregate — so, once the update has been checked, they let go of
    /// it first, and when nothing else holds the store the write lands
    /// in place.  Should the write still fail (a concurrent writer
    /// changed the row), the released entries are evicted.
    pub fn install_update(
        &mut self,
        graph: &Graph,
        table: &str,
        row_id: u64,
        changes: &[FieldChange],
    ) -> Result<(Delta, DeltaOutcome), RelError> {
        check_update(&self.catalog.snapshot(table)?, row_id, changes)?;
        let tainted = Self::tainted_nodes(graph, &[table.to_string()]);
        let mut released = Vec::new();
        for (id, entry) in self.cache.iter_mut() {
            let merges = graph.node(*id).is_ok_and(|n| {
                matches!(n.kind, BoxKind::RelOp { op: RelOpKind::Aggregate { .. }, .. })
            });
            if tainted.contains(id) && !merges {
                entry.outputs.clear();
                released.push(*id);
            }
        }
        match install_update_delta(&self.catalog, table, row_id, changes) {
            Ok(delta) => {
                let out = self.apply_delta(graph, &delta);
                Ok((delta, out))
            }
            Err(e) => {
                for id in released {
                    self.cache.remove(&id);
                }
                Err(e)
            }
        }
    }

    /// Propagate a committed base-table [`Delta`] through the caches:
    /// patch every memoized result a delta rule covers in place, evict
    /// (selectively — never [`Engine::invalidate_all`]) the tainted
    /// entries no rule covers, and leave everything whose demand cone
    /// does not read the edited table untouched.
    ///
    /// Rules, per cached entry:
    /// * **Table boundary** memo entries for the edited table are
    ///   refreshed from the catalog (a snapshot + display-header
    ///   rebuild, O(1) in Arc clones — tuples are shared).
    /// * **Mergeable aggregates** — an `Aggregate` box fed directly by
    ///   the edited table — are patched by
    ///   [`tioga2_relational::aggregate::patch_aggregate_update`].
    /// * **Plan-cache chains** of Restrict / Project / Rename (window
    ///   wraps included) over the edited table are patched by
    ///   [`plan::patch_chain`].
    /// * Everything else tainted falls back to eviction: Sort, Distinct,
    ///   Sample, Limit, Join, `__seq`-dependent predicates, Custom
    ///   boxes, multi-source plans, aggregate ties/floats.
    ///
    /// Fingerprints and structural signatures exclude base-table
    /// contents, so a patched entry keeps hitting.  Each patch attempt
    /// charges the engine budget (`delta.rows()` per entry) and passes
    /// the `delta` fault site; a budget denial, injected fault, or panic
    /// inside a patch evicts that entry instead — a fault mid-delta can
    /// never leave a poisoned cache.
    pub fn apply_delta(&mut self, graph: &Graph, delta: &Delta) -> DeltaOutcome {
        let tables = [delta.table.clone()];
        let tainted = Self::tainted_nodes(graph, &tables);
        let meter = self.budget.as_ref().map(|b| b.start());
        let faults = self.faults.clone().or_else(fault::current);
        // One fresh display relation serves every reference to the table
        // (display headers are schema-derived, not content-derived).
        let base = self
            .catalog
            .snapshot(&delta.table)
            .ok()
            .and_then(|rel| make_display_relation(rel, delta.table.clone()).ok());
        let mut out = DeltaOutcome::default();
        let mut coord = 0u64;

        // Budget + fault + panic containment around one patch attempt:
        // any denial degrades to eviction for that entry only.
        let mut guard = |f: &mut dyn FnMut() -> Option<Data>| -> Option<Data> {
            coord += 1;
            if let Some(m) = &meter {
                m.charge(delta.rows()).ok()?;
            }
            // The fault trip goes *inside* the containment: a panic
            // action must degrade to eviction exactly like a real one.
            let site = coord - 1;
            let faults = faults.as_ref();
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if let Some(fp) = faults {
                    fp.trip("delta", site).ok()?;
                }
                f()
            }))
            .ok()
            .flatten()
        };

        // Box memo cache.
        let ids: Vec<NodeId> = self.cache.keys().copied().collect();
        for id in ids {
            if graph.node(id).is_err() {
                self.cache.remove(&id);
                out.evicted += 1;
                continue;
            }
            if !tainted.contains(&id) {
                continue;
            }
            let patched = {
                let cache = &self.cache;
                guard(&mut || {
                    Self::patch_memo_entry(graph, id, cache.get(&id)?, base.as_ref()?, delta)
                })
            };
            match patched {
                Some(data) => {
                    let entry = self.cache.get_mut(&id).expect("present above");
                    entry.outputs = vec![data];
                    out.applied += 1;
                    out.rows += delta.rows();
                }
                None => {
                    self.cache.remove(&id);
                    out.fallback += 1;
                    out.evicted += 1;
                }
            }
        }

        // Plan cache.
        let keys: Vec<(NodeId, usize)> = self.plan_cache.keys().copied().collect();
        for key in keys {
            if graph.node(key.0).is_err() {
                self.plan_cache.remove(&key);
                out.evicted += 1;
                continue;
            }
            let entry = self.plan_cache.get(&key).expect("key just listed");
            let srcs = entry.plan.sources();
            if !srcs.iter().any(|(n, _)| tainted.contains(n)) {
                continue; // demand cone never reads the edited table
            }
            let single_table_src = srcs.len() == 1
                && graph
                    .node(srcs[0].0)
                    .is_ok_and(|n| matches!(&n.kind, BoxKind::Table(t) if *t == delta.table));
            let patched = if single_table_src {
                let (plan_ref, output_ref) = (&entry.plan, &entry.output);
                guard(&mut || {
                    let Data::D(Displayable::R(dr)) = output_ref else { return None };
                    let patched = plan::patch_chain(plan_ref, base.as_ref()?, dr, &delta.changes)?;
                    Some(Data::D(Displayable::R(patched)))
                })
            } else {
                None
            };
            match patched {
                Some(data) => {
                    self.plan_cache.get_mut(&key).expect("present above").output = data;
                    out.applied += 1;
                    out.rows += delta.rows();
                }
                None => {
                    self.plan_cache.remove(&key);
                    out.fallback += 1;
                    out.evicted += 1;
                }
            }
        }

        self.recorder.add("plan.delta.applied", out.applied);
        self.recorder.add("plan.delta.fallback", out.fallback);
        self.recorder.add("plan.delta.rows", out.rows);
        if out.evicted > 0 {
            self.recorder.add("cache.invalidations", 1);
            self.recorder.add("cache.invalidated_entries", out.evicted);
        }
        if let Some(j) = &self.journal {
            j.append(SessionEvent::CacheInvalidation {
                scope: delta.table.clone(),
                entries: out.evicted,
            });
        }
        out
    }

    /// The delta rules for one box memo entry; `None` means fallback.
    fn patch_memo_entry(
        graph: &Graph,
        id: NodeId,
        entry: &CacheEntry,
        base: &DisplayRelation,
        delta: &Delta,
    ) -> Option<Data> {
        let node = graph.node(id).ok()?;
        match &node.kind {
            // The edited table itself: refresh the boundary from the
            // catalog (same structural signature — contents are outside
            // it — so downstream fingerprints keep matching).
            BoxKind::Table(t) if *t == delta.table => Some(Data::D(Displayable::R(base.clone()))),
            // A mergeable aggregate directly over the edited table.
            BoxKind::RelOp { op: RelOpKind::Aggregate { keys, aggs }, .. } => {
                let (src, sport) = node.inputs.first()?.as_ref()?;
                if *sport != 0
                    || node.inputs.len() != 1
                    || !matches!(&graph.node(*src).ok()?.kind,
                                 BoxKind::Table(t) if *t == delta.table)
                {
                    return None;
                }
                let [Data::D(Displayable::R(dr))] = entry.outputs.as_slice() else {
                    return None;
                };
                let krefs: Vec<&str> = keys.iter().map(String::as_str).collect();
                let mut rel = dr.rel.clone();
                for ch in &delta.changes {
                    let RowChange::Update { old, new } = ch else { return None };
                    rel = tioga2_relational::aggregate::patch_aggregate_update(
                        &base.rel, &rel, &krefs, aggs, old, new,
                    )?;
                }
                let mut out = dr.clone();
                out.rel = rel;
                Some(Data::D(Displayable::R(out)))
            }
            _ => None,
        }
    }

    /// Demand the value on `(node, out_port)` of `graph`.
    pub fn demand(&mut self, graph: &Graph, node: NodeId, port: usize) -> Result<Data, FlowError> {
        let span = if self.recorder.is_enabled() {
            self.recorder.span_begin("engine.demand", &format!("{node}:{port}"))
        } else {
            SpanId::NONE
        };
        let result = self.contain(|e| {
            let mut sigs = HashMap::new();
            e.eval_node(graph, node, &[], &[], &mut sigs)
        });
        if !span.is_none() {
            self.recorder.span_end(span, &[("ok", result.is_ok() as i64)]);
        }
        result?
            .get(port)
            .cloned()
            .ok_or_else(|| FlowError::Graph(format!("{node} has no output {port}")))
    }

    /// Demand the displayable on `(node, out_port)`.
    pub fn demand_displayable(
        &mut self,
        graph: &Graph,
        node: NodeId,
        port: usize,
    ) -> Result<Displayable, FlowError> {
        Ok(self.demand(graph, node, port)?.into_displayable()?)
    }

    /// Demand `(node, out_port)` through the plan layer: lower the
    /// maximal relational chain feeding it to a [`Plan`], rewrite it
    /// (fusion / pushdown / pruning), and run it as one streaming
    /// pipeline.  Falls back to [`Engine::demand`] when there is no chain
    /// to plan.  Results are memoized in a separate plan cache keyed on
    /// the plan fingerprint, so box edits invalidate exactly as the
    /// box-at-a-time path does.
    pub fn demand_planned(
        &mut self,
        graph: &Graph,
        node: NodeId,
        port: usize,
    ) -> Result<Data, FlowError> {
        self.demand_planned_opts(graph, node, port, true, None)
    }

    /// [`Engine::demand_planned`] with knobs: `rewrite` toggles the
    /// optimizer (the A5 ablation runs with it off), and `window` is an
    /// extra synthesized Restrict applied at the top of the plan — the
    /// viewer pushes its visible-region and slider-range predicate here.
    pub fn demand_planned_opts(
        &mut self,
        graph: &Graph,
        node: NodeId,
        port: usize,
        rewrite: bool,
        window: Option<&Expr>,
    ) -> Result<Data, FlowError> {
        self.demand_planned_impl(graph, node, port, rewrite, window, false).map(|(d, _)| d)
    }

    /// `:explain analyze`: execute the planned demand *with attribution
    /// forced on* (even under a disabled recorder) and return both the
    /// result and its [`DemandTrace`].  Unlike the passive path, a plan
    /// cache hit does not short-circuit — the demand is re-executed so
    /// per-operator rows and times are real, while the trace still
    /// reports that the cache *would* have answered.  `None` when the
    /// demand has no relational chain to plan (single box / non-R data).
    pub fn demand_analyzed(
        &mut self,
        graph: &Graph,
        node: NodeId,
        port: usize,
        rewrite: bool,
        window: Option<&Expr>,
    ) -> Result<(Data, Option<DemandTrace>), FlowError> {
        self.demand_planned_impl(graph, node, port, rewrite, window, true)
    }

    fn demand_planned_impl(
        &mut self,
        graph: &Graph,
        node: NodeId,
        port: usize,
        rewrite: bool,
        window: Option<&Expr>,
        force_trace: bool,
    ) -> Result<(Data, Option<DemandTrace>), FlowError> {
        let journal_armed = self.journal.as_ref().is_some_and(|j| j.is_enabled());
        let t0 = Instant::now();
        let id_before = self.next_demand_id;
        let result = self
            .contain(|e| e.demand_planned_inner(graph, node, port, rewrite, window, force_trace));
        if !journal_armed {
            return result;
        }
        // Journaling armed: record the demand's lifecycle outcome —
        // including aborts classified by `error_status` — as one event.
        // A pushed trace consumed `id_before`; otherwise claim it so
        // journal demand ids stay aligned with trace ids.
        if self.next_demand_id == id_before {
            self.next_demand_id += 1;
        }
        let name = graph.node(node).map(|n| n.name()).unwrap_or_else(|_| "?".to_string());
        let (status, rows_out, detail) = match &result {
            Ok((Data::D(Displayable::R(dr)), _)) => {
                ("ok".into(), dr.rel.len() as u64, String::new())
            }
            Ok(_) => ("ok".into(), 0, String::new()),
            Err(e) => (Self::error_status(e).to_string(), 0, format!("{e}")),
        };
        if let Some(j) = &self.journal {
            j.append(SessionEvent::Demand {
                demand_id: id_before,
                request_id: self.request_id,
                label: format!("{node}.{port} ({name})"),
                status,
                rows_out,
                wall_ns: t0.elapsed().as_nanos() as u64,
                threads: self.threads as u64,
                detail,
            });
        }
        result
    }

    fn demand_planned_inner(
        &mut self,
        graph: &Graph,
        node: NodeId,
        port: usize,
        rewrite: bool,
        window: Option<&Expr>,
        force_trace: bool,
    ) -> Result<(Data, Option<DemandTrace>), FlowError> {
        let t0 = Instant::now();
        let orig = crate::lower::lower(graph, node, port);
        if orig.is_source() && window.is_none() {
            return Ok((self.demand(graph, node, port)?, None));
        }
        // Attribution policy.  Full per-operator attribution threads an
        // extra counting/timing layer through every tuple pull — a few
        // percent of demand wall time, too much to charge every gesture
        // of every monitored session.  So: an explicit analyze and an
        // armed slowlog attribute *every* demand (the slowlog must hold
        // a full trace for any over-threshold demand it captures); a
        // merely-enabled recorder attributes a 1-in-
        // [`TRACE_SAMPLE_PERIOD`] sample (decided after the plan-cache
        // probe, so hits never burn sample slots), which is what fills
        // `sys.demands` from ordinary renders.  The `demand.latency_ns`
        // histogram sees every demand either way.
        let slow_armed =
            self.slowlog.as_ref().is_some_and(|(log, _, _)| log.threshold_ns().is_some());
        let mut record = force_trace || slow_armed;
        let may_sample = self.recorder.is_enabled();
        // Canon strings of every subtree present in the user's program:
        // executed nodes outside this set were synthesized by the window
        // wrap or moved/produced by the optimizer (trace provenance).
        let orig_canons = (record || may_sample).then(|| {
            let mut set = HashSet::new();
            collect_canons(&orig, &mut set);
            set
        });
        let window_str = window.map(|w| format!("{w}"));
        let plan = match window {
            Some(w) => plan::Plan::Restrict { input: Box::new(orig), pred: w.clone() },
            None => orig,
        };

        // Fingerprint before evaluating anything: canonical plan text
        // plus the structural signature of every boundary.  Base-table
        // contents are outside it, exactly like the box memo cache —
        // `invalidate_all` clears both.
        let mut sigs = HashMap::new();
        let mut words = vec![plan::hash_str(&plan.canon()), rewrite as u64];
        for (n, p) in plan.sources() {
            words.push(self.signature(graph, n, 0, &mut sigs)?);
            words.push(p as u64);
        }
        let fp = fnv1a(words);
        // Sweep entries whose root box no longer exists: fingerprints are
        // keyed by `(node, port)`, so a deleted box's entry would
        // otherwise linger for the whole session.
        self.plan_cache.retain(|(n, _), _| graph.node(*n).is_ok());
        let mut would_hit = false;
        if let Some(entry) = self.plan_cache.get(&(node, port)) {
            if entry.fp == fp {
                self.recorder.add("plan.cache_hits", 1);
                if !force_trace {
                    self.recorder.observe_ns("demand.latency_ns", t0.elapsed().as_nanos() as u64);
                    return Ok((entry.output.clone(), None));
                }
                would_hit = true;
            }
        }
        if !record && may_sample {
            let seq = self.trace_sample_seq;
            self.trace_sample_seq += 1;
            record = seq.is_multiple_of(TRACE_SAMPLE_PERIOD);
        }

        // A non-relational boundary means the chain is not actually R
        // shaped; fall back to box-at-a-time.
        let mut src_memo: HashMap<(NodeId, usize), CacheStatus> = HashMap::new();
        let Some(srcs) = self.load_sources(graph, &plan, record.then_some(&mut src_memo))? else {
            return Ok((self.demand(graph, node, port)?, None));
        };

        // Display metadata is replayed from the *original* plan; the
        // rewriter only has to preserve stored tuple contents.
        let final_header = plan::header_of(&plan, &srcs)?;
        let (exec_plan, rw) = if rewrite {
            plan::rewrite(plan.clone(), &srcs)
        } else {
            (plan.clone(), plan::RewriteStats::default())
        };
        let span = if self.recorder.is_enabled() {
            for (rule, n) in &rw.counts {
                self.recorder.add(&format!("plan.rewrite.{rule}"), *n);
            }
            self.recorder.span_begin("plan.execute", &format!("{node}:{port}"))
        } else {
            SpanId::NONE
        };
        let attr = record.then(|| plan::AttrNode::build(&exec_plan, graph));
        let gov = plan::ExecGov {
            meter: self.meter.clone(),
            faults: self.faults.clone().or_else(fault::current),
        };
        let result =
            plan::execute(&exec_plan, &final_header, &srcs, self.threads, attr.as_ref(), &gov);
        if let Ok((_, es)) = &result {
            if es.par_segments > 0 {
                self.recorder.add("plan.parallel.segments", es.par_segments);
                self.recorder.add("plan.parallel.rows", es.par_rows);
            }
            if es.par_worker_panics > 0 {
                self.recorder.add("plan.parallel.worker_panics", es.par_worker_panics);
            }
            for (name, n) in [
                ("plan.window_index.probes", es.window_index_probes),
                ("plan.window_index.builds", es.window_index_builds),
                ("plan.window_index.fallbacks", es.window_index_fallbacks),
            ] {
                if n > 0 {
                    self.recorder.add(name, n);
                }
            }
        }
        if !span.is_none() {
            let rows = result.as_ref().map_or(-1, |(dr, _)| dr.rel.len() as i64);
            let segs = result.as_ref().map_or(0, |(_, es)| es.par_segments as i64);
            self.recorder.span_end(
                span,
                &[
                    ("plan_ops", exec_plan.op_count() as i64),
                    ("rewrites", rw.total() as i64),
                    ("rows_out", rows),
                    ("threads", self.threads as i64),
                    ("par_segments", segs),
                ],
            );
        }
        let push_trace = |eng: &mut Self, es: &plan::ExecStats, status: &str| {
            attr.as_ref().map(|attr| {
                let orig_canons =
                    orig_canons.as_ref().expect("canon set collected whenever attr is");
                let root =
                    build_op_node(&exec_plan, attr, &src_memo, orig_canons, window_str.as_deref());
                let name = graph.node(node).map(|n| n.name()).unwrap_or_else(|_| "?".to_string());
                let t = DemandTrace {
                    demand_id: eng.next_demand_id,
                    request_id: eng.request_id,
                    label: format!("{node}.{port} ({name})"),
                    total_ns: t0.elapsed().as_nanos() as u64,
                    threads: eng.threads,
                    par_segments: es.par_segments,
                    plan_cache: if would_hit { CacheStatus::Hit } else { CacheStatus::Miss },
                    rewrites: rw.counts.iter().map(|(r, n)| (r.to_string(), *n)).collect(),
                    status: status.to_string(),
                    root,
                };
                eng.next_demand_id += 1;
                if let Some((log, tenant, session)) = &eng.slowlog {
                    log.observe(tenant, session, &t);
                }
                while eng.demand_traces.len() >= eng.trace_ring {
                    eng.demand_traces.pop_front();
                    eng.traces_dropped += 1;
                    eng.recorder.add("demand.traces_dropped", 1);
                }
                eng.demand_traces.push_back(t.clone());
                t
            })
        };
        let (out_dr, es) = match result {
            Ok(v) => v,
            Err(e) => {
                // Keep the failure visible: the partial attribution cells
                // become an *aborted* trace in the ring (`:explain
                // analyze` / `sys.demands` show how far the demand got).
                push_trace(self, &plan::ExecStats::default(), Self::error_status(&e));
                self.recorder.observe_ns("demand.latency_ns", t0.elapsed().as_nanos() as u64);
                return Err(e);
            }
        };
        let data = Data::D(Displayable::R(out_dr));
        self.plan_cache.insert((node, port), PlanCacheEntry { fp, output: data.clone(), plan });
        let trace = push_trace(self, &es, "ok");
        self.recorder.observe_ns("demand.latency_ns", t0.elapsed().as_nanos() as u64);
        Ok((data, trace))
    }

    /// The display-relation *header* (schema + methods + metadata, no
    /// tuples) the planned demand of `(node, port)` would produce, or
    /// `None` when the output is not a planned relational chain.  Cheap:
    /// boundaries are demanded through the memo cache, the chain itself
    /// is replayed on empty relations.  The viewer uses this to build its
    /// window predicate before demanding any tuples.
    pub fn plan_root_header(
        &mut self,
        graph: &Graph,
        node: NodeId,
        port: usize,
    ) -> Result<Option<DisplayRelation>, FlowError> {
        let plan = crate::lower::lower(graph, node, port);
        if plan.is_source() {
            return Ok(None);
        }
        match self.load_sources(graph, &plan, None)? {
            Some(srcs) => Ok(Some(plan::header_of(&plan, &srcs)?)),
            None => Ok(None),
        }
    }

    /// Render the plan for `(node, port)`: the lowered chain, the rules
    /// that fired, and the optimized form.  Backs the REPL's `:explain`.
    pub fn explain(
        &mut self,
        graph: &Graph,
        node: NodeId,
        port: usize,
    ) -> Result<String, FlowError> {
        let plan = crate::lower::lower(graph, node, port);
        if plan.is_source() {
            return Ok(format!("{node}.{port}: single box, no relational chain to plan\n"));
        }
        let Some(srcs) = self.load_sources(graph, &plan, None)? else {
            return Ok(format!(
                "{node}.{port}: chain feeds non-relational data; planned \
                 execution does not apply\n"
            ));
        };
        let (opt, rw) = plan::rewrite(plan.clone(), &srcs);
        let mut out = format!("plan for {node}.{port}:\n{}", plan.pretty(graph));
        if rw.counts.is_empty() {
            out.push_str("no rewrites apply\n");
        } else {
            out.push_str("rewrites:\n");
            for (rule, n) in &rw.counts {
                out.push_str(&format!("  {rule} x{n}\n"));
            }
            out.push_str(&format!("optimized:\n{}", opt.pretty(graph)));
        }
        Ok(out)
    }

    /// Demand every boundary of `plan` through the normal memoized path.
    /// `None` when a boundary is not relational (the chain is not
    /// actually R shaped).  With `memo`, records per boundary whether its
    /// cone was fully memoized (nothing fired).
    fn load_sources(
        &mut self,
        graph: &Graph,
        plan: &plan::Plan,
        mut memo: Option<&mut HashMap<(NodeId, usize), CacheStatus>>,
    ) -> Result<Option<plan::SourceMap>, FlowError> {
        let mut srcs = plan::SourceMap::new();
        for (n, p) in plan.sources() {
            let evals_before = self.stats.box_evals;
            let Data::D(Displayable::R(dr)) = self.demand(graph, n, p)? else {
                return Ok(None);
            };
            if let Some(memo) = memo.as_deref_mut() {
                let hit = self.stats.box_evals == evals_before;
                memo.insert((n, p), if hit { CacheStatus::Hit } else { CacheStatus::Miss });
            }
            srcs.insert((n, p), dr);
        }
        Ok(Some(srcs))
    }

    fn signature(
        &self,
        graph: &Graph,
        id: NodeId,
        env_sig: u64,
        sigs: &mut HashMap<NodeId, u64>,
    ) -> Result<u64, FlowError> {
        if let Some(s) = sigs.get(&id) {
            return Ok(*s);
        }
        let node = graph.node(id)?;
        let mut words = vec![node.rev, env_sig];
        for inp in &node.inputs {
            match inp {
                Some((src, port)) => {
                    words.push(self.signature(graph, *src, env_sig, sigs)?);
                    words.push(*port as u64 + 1);
                }
                None => words.push(u64::MAX),
            }
        }
        let s = fnv1a(words);
        sigs.insert(id, s);
        Ok(s)
    }

    fn eval_node(
        &mut self,
        graph: &Graph,
        id: NodeId,
        env: &[Data],
        plugs: &[BoxKind],
        sigs: &mut HashMap<NodeId, u64>,
    ) -> Result<Vec<Data>, FlowError> {
        // Environment-dependent evaluations (inside encapsulations) are
        // handled by sub-engines, whose caches are per-instantiation, so
        // an env signature of 0 at the top level is sound.
        let sig = self.signature(graph, id, 0, sigs)?;
        if let Some(entry) = self.cache.get(&id) {
            if entry.sig == sig {
                self.stats.cache_hits += 1;
                if self.recorder.is_enabled() {
                    let node = graph.node(id)?;
                    self.recorder.add("engine.cache_hits", 1);
                    self.recorder.cache_access(&format!("{}#{id}", node.name()), true);
                }
                return Ok(entry.outputs.clone());
            }
        }
        let node = graph.node(id)?.clone();
        let mut inputs = Vec::with_capacity(node.inputs.len());
        for (i, inp) in node.inputs.iter().enumerate() {
            match inp {
                Some((src, port)) => {
                    let outs = self.eval_node(graph, *src, env, plugs, sigs)?;
                    inputs.push(
                        outs.get(*port).cloned().ok_or_else(|| {
                            FlowError::Graph(format!("{src} has no output {port}"))
                        })?,
                    );
                }
                None => {
                    return Err(FlowError::Dangling { node: node.name(), port: i });
                }
            }
        }
        let rows_in: u64 = inputs.iter().map(data_rows).sum();
        // Box-at-a-time governance point: charge the fire's input rows
        // and observe cancellation/deadline before evaluating the body.
        if let Some(m) = &self.meter {
            m.charge(rows_in)?;
        }
        self.stats.box_evals += 1;
        self.stats.rows_in += rows_in;
        // Fire span: all string work is gated on an enabled recorder so
        // the disabled path costs two virtual calls and the row sums.
        let span = if self.recorder.is_enabled() {
            self.recorder.add("engine.box_evals", 1);
            self.recorder.cache_access(&format!("{}#{id}", node.name()), false);
            self.recorder
                .span_begin(&format!("fire:{}", node.name()), &format!("{}#{id}", node.name()))
        } else {
            SpanId::NONE
        };
        let result = self.eval_kind(&node.kind, inputs, env, plugs);
        if !span.is_none() {
            let rows_out = result.as_ref().map(|outs| outs.iter().map(data_rows).sum::<u64>());
            self.recorder.span_end(
                span,
                &[("rows_in", rows_in as i64), ("rows_out", rows_out.map_or(-1, |r| r as i64))],
            );
        }
        let outputs = result?;
        self.stats.rows_out += outputs.iter().map(data_rows).sum::<u64>();
        if outputs.len() != node.out_types.len() {
            return Err(FlowError::Eval(format!(
                "box '{}' produced {} outputs, expected {}",
                node.name(),
                outputs.len(),
                node.out_types.len()
            )));
        }
        self.cache.insert(id, CacheEntry { sig, outputs: outputs.clone() });
        Ok(outputs)
    }

    fn eval_kind(
        &mut self,
        kind: &BoxKind,
        mut inputs: Vec<Data>,
        env: &[Data],
        plugs: &[BoxKind],
    ) -> Result<Vec<Data>, FlowError> {
        match kind {
            BoxKind::Table(name) => {
                let rel = self.catalog.snapshot(name)?;
                let dr = make_display_relation(rel, name.clone())?;
                Ok(vec![Data::D(Displayable::R(dr))])
            }
            BoxKind::Join(pred) => {
                let right = displayable_relation(inputs.pop(), "Join right")?;
                let left = displayable_relation(inputs.pop(), "Join left")?;
                let joined = ops::join(&left.rel, &right.rel, pred)?;
                let dr = redefault(joined, &left)?;
                Ok(vec![Data::D(Displayable::R(dr))])
            }
            BoxKind::RelOp { op, sel, .. } => {
                let d = input_displayable(inputs.pop(), op.name())?;
                let rec = self.recorder.as_ref();
                // One `relop:<name>` span (rows in/out) per relation the
                // op applies to; a disabled recorder skips the span.
                let out = apply_to_relation(&d, *sel, |dr| {
                    if !rec.is_enabled() {
                        return apply_rel_op(op, dr);
                    }
                    let span = rec.span_begin(&format!("relop:{}", op.name()), "");
                    let result = apply_rel_op(op, dr);
                    let rows_out = result.as_ref().map_or(-1, |out| out.rel.len() as i64);
                    rec.span_end(span, &[("rows_in", dr.rel.len() as i64), ("rows_out", rows_out)]);
                    result
                })?;
                Ok(vec![Data::D(out)])
            }
            BoxKind::CompOp { op, sel, .. } => {
                let d = input_displayable(inputs.pop(), op.name())?;
                let out = apply_to_composite(&d, *sel, |c| match op {
                    CompOpKind::Shuffle(i) => shuffle_to_top(c, *i),
                    CompOpKind::Reorder { from, to } => reorder_layer(c, *from, *to),
                })?;
                Ok(vec![Data::D(out)])
            }
            BoxKind::Overlay { offset, invariant } => {
                let top = input_displayable(inputs.pop(), "Overlay top")?.into_composite()?;
                let bottom = input_displayable(inputs.pop(), "Overlay bottom")?.into_composite()?;
                let policy =
                    if *invariant { MismatchPolicy::Invariant } else { MismatchPolicy::Reject };
                let c = overlay(&bottom, &top, offset, policy)?;
                Ok(vec![Data::D(Displayable::C(c))])
            }
            BoxKind::Stitch { layout, .. } => {
                let mut composites = Vec::with_capacity(inputs.len());
                for d in inputs {
                    composites.push(input_displayable(Some(d), "Stitch")?.into_composite()?);
                }
                let g = stitch(composites, *layout)?;
                Ok(vec![Data::D(Displayable::G(g))])
            }
            BoxKind::Replicate { horizontal, vertical, sel, .. } => {
                let d = input_displayable(inputs.pop(), "Replicate")?;
                let g = replicate_within(&d, *sel, horizontal.clone(), vertical.clone())?;
                Ok(vec![Data::D(Displayable::G(g))])
            }
            BoxKind::Switch(pred) => {
                let dr = displayable_relation(inputs.pop(), "Switch")?;
                let yes = ops::restrict(&dr.rel, pred)?;
                let not_pred = Expr::Unary(UnaryOp::Not, Box::new(pred.clone()));
                let no = ops::restrict(&dr.rel, &not_pred)?;
                let mut dyes = dr.clone();
                dyes.rel = yes;
                let mut dno = dr;
                dno.rel = no;
                Ok(vec![Data::D(Displayable::R(dyes)), Data::D(Displayable::R(dno))])
            }
            BoxKind::Const(v) => Ok(vec![Data::Scalar(v.clone())]),
            BoxKind::ParamRestrict { pred, params, sel, .. } => {
                let mut bound = std::collections::BTreeMap::new();
                // inputs: [displayable, scalar...] in declaration order.
                let scalars = inputs.split_off(1);
                for ((name, _), data) in params.iter().zip(scalars) {
                    match data {
                        Data::Scalar(v) => {
                            bound.insert(name.clone(), v);
                        }
                        Data::D(_) => {
                            return Err(FlowError::Eval(format!(
                                "parameter '{name}' received a displayable"
                            )))
                        }
                    }
                }
                let d = input_displayable(inputs.pop(), "Restrict(params)")?;
                let out = apply_to_relation(&d, *sel, |dr| {
                    let mut o = dr.clone();
                    o.rel = ops::restrict_with_params(&dr.rel, pred, &bound)?;
                    Ok(o)
                })?;
                Ok(vec![Data::D(out)])
            }
            BoxKind::Tee(_) => {
                let d = inputs.pop().ok_or_else(|| FlowError::Eval("T needs an input".into()))?;
                Ok(vec![d.clone(), d])
            }
            BoxKind::Viewer { .. } => {
                let d =
                    inputs.pop().ok_or_else(|| FlowError::Eval("Viewer needs an input".into()))?;
                Ok(vec![d])
            }
            BoxKind::Param { idx, .. } => env
                .get(*idx)
                .cloned()
                .map(|d| vec![d])
                .ok_or_else(|| FlowError::Eval(format!("unbound parameter {idx}"))),
            BoxKind::Hole { idx, .. } => {
                let plug = plugs
                    .get(*idx)
                    .ok_or_else(|| FlowError::Eval(format!("hole {idx} has no plug")))?
                    .clone();
                self.eval_kind(&plug, inputs, env, plugs)
            }
            BoxKind::Encapsulated { def, plugs: my_plugs } => {
                // Fresh sub-engine: inner results are represented in the
                // outer cache by this node's own entry.
                let mut sub = Engine::new(self.catalog.clone());
                sub.set_recorder(self.recorder.clone());
                // The enclosing demand's governance follows the work: the
                // sub-engine charges the *same* meter, so budgets span
                // encapsulation boundaries.
                sub.budget = self.budget.clone();
                sub.meter = self.meter.clone();
                sub.faults = self.faults.clone();
                let mut outs = Vec::with_capacity(def.output_bindings.len());
                let mut sigs = HashMap::new();
                for (node, port) in &def.output_bindings {
                    let vals = sub.eval_node(&def.graph, *node, &inputs, my_plugs, &mut sigs)?;
                    outs.push(vals.get(*port).cloned().ok_or_else(|| {
                        FlowError::Eval(format!("encapsulated output {node}.{port} missing"))
                    })?);
                }
                self.stats.box_evals += sub.stats.box_evals;
                self.stats.cache_hits += sub.stats.cache_hits;
                self.stats.rows_in += sub.stats.rows_in;
                self.stats.rows_out += sub.stats.rows_out;
                Ok(outs)
            }
            BoxKind::Custom(c) => (c.f)(&inputs),
        }
    }
}

/// All subtree canon strings of `plan`.  Used for trace provenance: an
/// executed node whose canon is absent from the user's original plan was
/// synthesized (window wrap) or produced/moved by the optimizer.
fn collect_canons(plan: &plan::Plan, out: &mut HashSet<String>) {
    out.insert(plan.canon());
    for child in plan.children() {
        collect_canons(child, out);
    }
}

/// Roll one executed plan node plus its fed attribution mirror into a
/// trace-tree node.  `rows_in` is derived, never measured twice: the sum
/// of the children's outputs (a source's input is its own scan count —
/// for a `window-index` source, the candidates it examined).
fn build_op_node(
    plan_node: &plan::Plan,
    attr: &plan::AttrNode,
    src_memo: &HashMap<(NodeId, usize), CacheStatus>,
    orig_canons: &HashSet<String>,
    window_pred: Option<&str>,
) -> OpNode {
    let children: Vec<OpNode> = plan_node
        .children()
        .into_iter()
        .zip(&attr.children)
        .map(|(p, a)| build_op_node(p, a, src_memo, orig_canons, window_pred))
        .collect();
    let rows_out = attr.cell.rows_out();
    let rows_in = match plan_node {
        plan::Plan::Source { .. } => rows_out,
        _ => children.iter().map(|c| c.rows_out).sum(),
    };
    let cache = match plan_node {
        plan::Plan::Source { node, port } => {
            src_memo.get(&(*node, *port)).copied().unwrap_or(CacheStatus::NotCached)
        }
        _ => CacheStatus::NotCached,
    };
    let provenance = if attr.window_index.load(Ordering::Relaxed) {
        "window-index".to_string()
    } else if orig_canons.contains(&plan_node.canon()) {
        String::new()
    } else if matches!(plan_node, plan::Plan::Restrict { pred, .. }
        if window_pred == Some(format!("{pred}").as_str()))
    {
        "window".to_string()
    } else {
        "rewritten".to_string()
    };
    OpNode {
        op: attr.label.clone(),
        rows_in,
        rows_out,
        ns: attr.cell.est_ns(),
        cache,
        provenance,
        par_workers: attr.par_workers.load(Ordering::Relaxed),
        children,
    }
}

/// Tuple count of a dataflow value: scalars carry no rows.
fn data_rows(d: &Data) -> u64 {
    match d {
        Data::D(d) => d.tuple_count() as u64,
        Data::Scalar(_) => 0,
    }
}

fn input_displayable(d: Option<Data>, what: &str) -> Result<Displayable, FlowError> {
    match d {
        Some(Data::D(d)) => Ok(d),
        Some(Data::Scalar(v)) => {
            Err(FlowError::Eval(format!("{what} expected a displayable, got scalar {v}")))
        }
        None => Err(FlowError::Eval(format!("{what} is missing an input"))),
    }
}

fn displayable_relation(d: Option<Data>, what: &str) -> Result<DisplayRelation, FlowError> {
    match input_displayable(d, what)? {
        Displayable::R(r) => Ok(r),
        other => {
            Err(FlowError::Eval(format!("{what} expected a relation, got {}", other.type_tag())))
        }
    }
}

/// Apply one relation-level operation to a display relation.
pub fn apply_rel_op(
    op: &RelOpKind,
    dr: &DisplayRelation,
) -> Result<DisplayRelation, tioga2_display::DisplayError> {
    match op {
        RelOpKind::Restrict(pred) => {
            let mut out = dr.clone();
            out.rel = ops::restrict(&dr.rel, pred)?;
            Ok(out)
        }
        RelOpKind::Project(cols) => {
            let fields: Vec<&str> = cols.iter().map(String::as_str).collect();
            let rel = ops::project(&dr.rel, &fields)?;
            redefault(rel, dr)
        }
        RelOpKind::Sample { p, seed } => {
            let mut out = dr.clone();
            out.rel = ops::sample(&dr.rel, *p, *seed)?;
            Ok(out)
        }
        RelOpKind::Aggregate { keys, aggs } => {
            let keys: Vec<&str> = keys.iter().map(String::as_str).collect();
            let rel = tioga2_relational::aggregate(&dr.rel, &keys, aggs)?;
            redefault(rel, dr)
        }
        RelOpKind::Distinct(attrs) => {
            let attrs: Vec<&str> = attrs.iter().map(String::as_str).collect();
            let mut out = dr.clone();
            out.rel = tioga2_relational::distinct(&dr.rel, &attrs)?;
            Ok(out)
        }
        RelOpKind::Limit { offset, count } => {
            let mut out = dr.clone();
            out.rel = tioga2_relational::limit(&dr.rel, *offset, *count);
            Ok(out)
        }
        RelOpKind::Rename { from, to } => {
            let mut out = dr.clone();
            out.rel = tioga2_relational::rename(&dr.rel, from, to)?;
            out.rename_attr_refs(from, to);
            out.validate()?;
            Ok(out)
        }
        RelOpKind::Sort(keys) => {
            let keys: Vec<(&str, bool)> = keys.iter().map(|(k, a)| (k.as_str(), *a)).collect();
            let mut out = dr.clone();
            out.rel = ops::sort(&dr.rel, &keys)?;
            Ok(out)
        }
        RelOpKind::AddAttribute { name, ty, def, role } => {
            attr_ops::add_attribute(dr, name, ty.clone(), def.clone(), *role)
        }
        RelOpKind::RemoveAttribute(name) => attr_ops::remove_attribute(dr, name),
        RelOpKind::SetAttribute { name, ty, def } => {
            attr_ops::set_attribute(dr, name, ty.clone(), def.clone())
        }
        RelOpKind::SwapAttributes(a, b) => attr_ops::swap_attributes(dr, a, b),
        RelOpKind::ScaleAttribute(name, k) => attr_ops::scale_attribute(dr, name, *k),
        RelOpKind::TranslateAttribute(name, c) => attr_ops::translate_attribute(dr, name, *c),
        RelOpKind::CombineDisplays { first, second, dx, dy, new_name } => {
            attr_ops::combine_displays(dr, first, second, (*dx, *dy), new_name)
        }
        RelOpKind::SetActiveDisplay(name) => attr_ops::set_active_display(dr, name),
        RelOpKind::SetRange { min, max } => set_range(dr, *min, *max),
        RelOpKind::SetLayerName(name) => {
            let mut out = dr.clone();
            out.name = name.clone();
            Ok(out)
        }
    }
}

/// The Tioga-1 baseline: eagerly evaluate *every* sink after an edit with
/// no caching (fresh engine).  Returns the stats of the full recompute.
pub fn eval_eager(graph: &Graph, catalog: &Catalog) -> Result<(Vec<Data>, EvalStats), FlowError> {
    let mut engine = Engine::new(catalog.clone());
    let mut out = Vec::new();
    for sink in graph.sinks() {
        let node = graph.node(sink)?;
        for port in 0..node.out_types.len() {
            out.push(engine.demand(graph, sink, port)?);
        }
    }
    Ok((out, engine.stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boxes::{BoxRegistry, CustomBox};
    use crate::encapsulate::encapsulate;
    use crate::port::PortType;
    use tioga2_expr::{parse, ScalarType as T, Value};
    use tioga2_relational::relation::RelationBuilder;

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
        ] {
            b = b.row(vec![Value::Text(n.into()), Value::Text(s.into()), Value::Float(a)]);
        }
        c.register("Stations", b.build().unwrap());
        c
    }

    fn restrict(src: &str) -> BoxKind {
        BoxKind::rel(RelOpKind::Restrict(parse(src).unwrap()))
    }

    #[test]
    fn table_then_restrict_pipeline() {
        let mut g = Graph::new();
        let t = g.add(BoxKind::Table("Stations".into()));
        let r = g.add(restrict("state = 'LA'"));
        g.connect(t, 0, r, 0).unwrap();
        let mut e = Engine::new(catalog());
        let d = e.demand_displayable(&g, r, 0).unwrap();
        assert_eq!(d.tuple_count(), 3);
        assert_eq!(e.stats.box_evals, 2);
    }

    #[test]
    fn unknown_table_is_an_error() {
        let mut g = Graph::new();
        let t = g.add(BoxKind::Table("Nope".into()));
        let mut e = Engine::new(catalog());
        assert!(e.demand(&g, t, 0).is_err());
    }

    #[test]
    fn dangling_input_reported() {
        let mut g = Graph::new();
        let r = g.add(restrict("state = 'LA'"));
        let mut e = Engine::new(catalog());
        assert!(matches!(e.demand(&g, r, 0), Err(FlowError::Dangling { .. })));
    }

    #[test]
    fn memoization_and_invalidation() {
        let mut g = Graph::new();
        let t = g.add(BoxKind::Table("Stations".into()));
        let r1 = g.add(restrict("state = 'LA'"));
        let r2 = g.add(restrict("altitude > 10.0"));
        g.connect(t, 0, r1, 0).unwrap();
        g.connect(r1, 0, r2, 0).unwrap();
        let mut e = Engine::new(catalog());
        e.demand(&g, r2, 0).unwrap();
        assert_eq!(e.stats.box_evals, 3);

        // Re-demand: all cache hits, no evals.
        e.demand(&g, r2, 0).unwrap();
        assert_eq!(e.stats.box_evals, 3);
        assert!(e.stats.cache_hits >= 1);

        // Edit the tail box: only it re-fires.
        g.update_kind(r2, restrict("altitude > 20.0")).unwrap();
        e.demand(&g, r2, 0).unwrap();
        assert_eq!(e.stats.box_evals, 4, "only the edited box re-evaluates");

        // Edit the head box: the whole cone re-fires.
        g.update_kind(r1, restrict("state = 'TX'")).unwrap();
        e.demand(&g, r2, 0).unwrap();
        assert_eq!(e.stats.box_evals, 6);
    }

    #[test]
    fn laziness_only_demanded_cone_fires() {
        let mut g = Graph::new();
        let t = g.add(BoxKind::Table("Stations".into()));
        let r1 = g.add(restrict("state = 'LA'"));
        let r2 = g.add(restrict("state = 'TX'"));
        g.connect(t, 0, r1, 0).unwrap();
        g.connect(t, 0, r2, 0).unwrap();
        let mut e = Engine::new(catalog());
        e.demand(&g, r1, 0).unwrap();
        assert_eq!(e.stats.box_evals, 2, "r2 was never demanded");
    }

    #[test]
    fn tee_duplicates() {
        let mut g = Graph::new();
        let t = g.add(BoxKind::Table("Stations".into()));
        let tee = g.add(BoxKind::Tee(PortType::R));
        let r1 = g.add(restrict("state = 'LA'"));
        let r2 = g.add(restrict("state = 'TX'"));
        g.connect(t, 0, tee, 0).unwrap();
        g.connect(tee, 0, r1, 0).unwrap();
        g.connect(tee, 1, r2, 0).unwrap();
        let mut e = Engine::new(catalog());
        assert_eq!(e.demand_displayable(&g, r1, 0).unwrap().tuple_count(), 3);
        assert_eq!(e.demand_displayable(&g, r2, 0).unwrap().tuple_count(), 1);
        // The table fired once: tee reused the cached upstream.
        assert_eq!(e.stats.box_evals, 4);
    }

    #[test]
    fn switch_routes_by_predicate() {
        let mut g = Graph::new();
        let t = g.add(BoxKind::Table("Stations".into()));
        let sw = g.add(BoxKind::Switch(parse("altitude > 50.0").unwrap()));
        g.connect(t, 0, sw, 0).unwrap();
        let mut e = Engine::new(catalog());
        let hi = e.demand_displayable(&g, sw, 0).unwrap();
        let lo = e.demand_displayable(&g, sw, 1).unwrap();
        assert_eq!(hi.tuple_count(), 2);
        assert_eq!(lo.tuple_count(), 2);
    }

    #[test]
    fn join_evaluates() {
        let cat = catalog();
        let mut obs = RelationBuilder::new()
            .field("station", T::Text)
            .field("temp", T::Float)
            .build()
            .unwrap();
        obs.push_row(vec![Value::Text("Austin".into()), Value::Float(35.0)]).unwrap();
        cat.register("Obs", obs);
        let mut g = Graph::new();
        let a = g.add(BoxKind::Table("Stations".into()));
        let b = g.add(BoxKind::Table("Obs".into()));
        let j = g.add(BoxKind::Join(parse("name = station").unwrap()));
        g.connect(a, 0, j, 0).unwrap();
        g.connect(b, 0, j, 1).unwrap();
        let mut e = Engine::new(cat);
        let d = e.demand_displayable(&g, j, 0).unwrap();
        assert_eq!(d.tuple_count(), 1);
    }

    #[test]
    fn viewer_passes_through() {
        let mut g = Graph::new();
        let t = g.add(BoxKind::Table("Stations".into()));
        let v = g.add(BoxKind::Viewer { canvas: "main".into(), ty: PortType::R });
        let r = g.add(restrict("state = 'LA'"));
        g.connect(t, 0, v, 0).unwrap();
        g.connect(v, 0, r, 0).unwrap();
        let mut e = Engine::new(catalog());
        // The viewer observes the full table; downstream keeps working.
        assert_eq!(e.demand_displayable(&g, v, 0).unwrap().tuple_count(), 4);
        assert_eq!(e.demand_displayable(&g, r, 0).unwrap().tuple_count(), 3);
    }

    #[test]
    fn stitch_and_overlay() {
        let mut g = Graph::new();
        let t = g.add(BoxKind::Table("Stations".into()));
        let tee = g.add(BoxKind::Tee(PortType::R));
        g.connect(t, 0, tee, 0).unwrap();
        let ov = g.add(BoxKind::Overlay { offset: vec![], invariant: true });
        g.connect(tee, 0, ov, 0).unwrap();
        g.connect(tee, 1, ov, 1).unwrap();
        let st = g.add(BoxKind::Stitch { arity: 2, layout: tioga2_display::Layout::Horizontal });
        let t2 = g.add(BoxKind::Table("Stations".into()));
        g.connect(ov, 0, st, 0).unwrap();
        g.connect(t2, 0, st, 1).unwrap();
        let mut e = Engine::new(catalog());
        match e.demand_displayable(&g, st, 0).unwrap() {
            Displayable::G(grp) => {
                assert_eq!(grp.members.len(), 2);
                assert_eq!(grp.members[0].layers.len(), 2, "overlay stacked two layers");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn encapsulated_box_evaluates() {
        let mut g = Graph::new();
        let t = g.add(BoxKind::Table("Stations".into()));
        let r1 = g.add(restrict("state = 'LA'"));
        let s = g.add(BoxKind::rel(RelOpKind::Sort(vec![("altitude".into(), true)])));
        let r2 = g.add(restrict("altitude > 10.0"));
        g.connect(t, 0, r1, 0).unwrap();
        g.connect(r1, 0, s, 0).unwrap();
        g.connect(s, 0, r2, 0).unwrap();
        let def = std::sync::Arc::new(encapsulate(&g, &[r1, s, r2], &[], "LaPipeline").unwrap());

        // Use the encapsulated box in a fresh program.
        let mut g2 = Graph::new();
        let t2 = g2.add(BoxKind::Table("Stations".into()));
        let ebox = g2.add(def.instantiate(vec![]).unwrap());
        g2.connect(t2, 0, ebox, 0).unwrap();
        let mut e = Engine::new(catalog());
        let d = e.demand_displayable(&g2, ebox, 0).unwrap();
        assert_eq!(d.tuple_count(), 2);
    }

    #[test]
    fn encapsulated_hole_plugs_behave_as_macro() {
        let mut g = Graph::new();
        let t = g.add(BoxKind::Table("Stations".into()));
        let r1 = g.add(restrict("state = 'LA'"));
        let mid = g.add(restrict("TRUE"));
        let r2 = g.add(restrict("altitude > 0.0"));
        g.connect(t, 0, r1, 0).unwrap();
        g.connect(r1, 0, mid, 0).unwrap();
        g.connect(mid, 0, r2, 0).unwrap();
        let def =
            std::sync::Arc::new(encapsulate(&g, &[r1, mid, r2], &[vec![mid]], "Holey").unwrap());

        let mut g2 = Graph::new();
        let t2 = g2.add(BoxKind::Table("Stations".into()));
        // Plug the hole with a Sample box -> probabilistic filter.
        let inst =
            def.instantiate(vec![BoxKind::rel(RelOpKind::Sample { p: 1.0, seed: 7 })]).unwrap();
        let ebox = g2.add(inst);
        g2.connect(t2, 0, ebox, 0).unwrap();
        let mut e = Engine::new(catalog());
        assert_eq!(e.demand_displayable(&g2, ebox, 0).unwrap().tuple_count(), 3);

        // A different plug changes the behaviour: restrict to altitude < 10.
        let inst2 = def.instantiate(vec![restrict("altitude < 10.0")]).unwrap();
        g2.replace_kind(ebox, inst2).unwrap();
        assert_eq!(e.demand_displayable(&g2, ebox, 0).unwrap().tuple_count(), 1);
    }

    #[test]
    fn custom_box_fires() {
        let mut reg = BoxRegistry::default();
        let custom = std::sync::Arc::new(CustomBox {
            name: "TakeFirst".into(),
            in_types: vec![PortType::R],
            out_types: vec![PortType::R],
            f: Box::new(|ins| {
                let d = ins[0].clone().into_displayable().map_err(FlowError::from)?;
                match d {
                    Displayable::R(mut dr) => {
                        let first = dr.rel.tuples().first().cloned();
                        let keep = first.map(|t| t.row_id);
                        dr.rel.tuples_mut().retain(|t| Some(t.row_id) == keep);
                        Ok(vec![Data::D(Displayable::R(dr))])
                    }
                    other => Ok(vec![Data::D(other)]),
                }
            }),
        });
        reg.register_custom(custom.clone());
        let mut g = Graph::new();
        let t = g.add(BoxKind::Table("Stations".into()));
        let c = g.add(reg.get("TakeFirst").unwrap().kind.clone().unwrap());
        g.connect(t, 0, c, 0).unwrap();
        let mut e = Engine::new(catalog());
        assert_eq!(e.demand_displayable(&g, c, 0).unwrap().tuple_count(), 1);
    }

    #[test]
    fn eager_baseline_recomputes_everything() {
        let mut g = Graph::new();
        let t = g.add(BoxKind::Table("Stations".into()));
        let r1 = g.add(restrict("state = 'LA'"));
        let r2 = g.add(restrict("altitude > 10.0"));
        g.connect(t, 0, r1, 0).unwrap();
        g.connect(r1, 0, r2, 0).unwrap();
        let cat = catalog();
        let (out1, stats1) = eval_eager(&g, &cat).unwrap();
        assert_eq!(out1.len(), 1);
        assert_eq!(stats1.box_evals, 3);
        // Lazy engine across two consecutive identical demands fires 3
        // boxes total; eager across two "edits" fires 6.
        let (_, stats2) = eval_eager(&g, &cat).unwrap();
        assert_eq!(stats1.box_evals + stats2.box_evals, 6);
    }

    #[test]
    fn catalog_update_visible_after_invalidate() {
        let cat = catalog();
        let mut g = Graph::new();
        let t = g.add(BoxKind::Table("Stations".into()));
        let mut e = Engine::new(cat.clone());
        assert_eq!(e.demand_displayable(&g, t, 0).unwrap().tuple_count(), 4);
        tioga2_relational::update::insert_row(
            &cat,
            "Stations",
            vec![Value::Text("Lafayette".into()), Value::Text("LA".into()), Value::Float(11.0)],
        )
        .unwrap();
        // Structural signature unchanged -> stale cache until invalidated.
        assert_eq!(e.demand_displayable(&g, t, 0).unwrap().tuple_count(), 4);
        e.invalidate_all();
        assert_eq!(e.demand_displayable(&g, t, 0).unwrap().tuple_count(), 5);
    }

    #[test]
    fn recorder_sees_fires_hits_and_invalidations() {
        use tioga2_obs::InMemoryRecorder;
        let rec = std::sync::Arc::new(InMemoryRecorder::new());
        let mut g = Graph::new();
        let t = g.add(BoxKind::Table("Stations".into()));
        let r = g.add(restrict("state = 'LA'"));
        g.connect(t, 0, r, 0).unwrap();
        let mut e = Engine::new(catalog());
        e.set_recorder(rec.clone());

        e.demand(&g, r, 0).unwrap();
        assert_eq!(rec.counter("engine.box_evals"), Some(2));
        let spans = rec.completed_spans();
        let fires: Vec<&str> =
            spans.iter().filter(|s| s.name.starts_with("fire:")).map(|s| s.name.as_str()).collect();
        assert_eq!(fires.len(), 2);
        // Fire spans nest under the demand span; the relop span nests
        // under the Restrict fire.
        assert!(spans.iter().any(|s| s.name == "engine.demand" && s.depth == 0));
        assert!(spans.iter().any(|s| s.name.starts_with("fire:") && s.depth > 0));
        assert!(spans.iter().any(|s| s.name == "relop:Restrict"));
        // Rows flowed: the restrict saw 4 in, 3 out.
        let relop = spans.iter().find(|s| s.name == "relop:Restrict").unwrap();
        assert_eq!(relop.fields, vec![("rows_in", 4), ("rows_out", 3)]);
        assert_eq!(e.stats.rows_in, 4, "table takes no rows, restrict takes 4");
        assert_eq!(e.stats.rows_out, 7, "table emits 4, restrict emits 3");

        // Second demand: pure cache hits, no new fire spans.
        e.demand(&g, r, 0).unwrap();
        assert_eq!(rec.counter("engine.box_evals"), Some(2));
        assert_eq!(rec.counter("engine.cache_hits"), Some(1));
        let tallies = rec.node_cache_tallies();
        let restrict_tally =
            tallies.iter().find(|(k, _)| k.starts_with("Restrict")).map(|(_, v)| *v).unwrap();
        assert_eq!(restrict_tally.misses, 1);
        assert_eq!(restrict_tally.hits, 1);

        // Invalidation records its counter event.
        e.invalidate_all();
        assert_eq!(rec.counter("cache.invalidations"), Some(1));
        assert_eq!(rec.counter("cache.invalidated_entries"), Some(2));
    }

    #[test]
    fn demand_analyzed_builds_a_trace_tree() {
        let mut g = Graph::new();
        let t = g.add(BoxKind::Table("Stations".into()));
        let r1 = g.add(restrict("state = 'LA'"));
        let r2 = g.add(restrict("altitude > 10.0"));
        g.connect(t, 0, r1, 0).unwrap();
        g.connect(r1, 0, r2, 0).unwrap();
        let mut e = Engine::new(catalog());
        let (_, trace) = e.demand_analyzed(&g, r2, 0, true, None).unwrap();
        let trace = trace.unwrap();
        assert_eq!(trace.plan_cache, CacheStatus::Miss);
        // The two restricts fused: the root is optimizer-made.
        assert!(trace.rewrites.iter().any(|(r, _)| r == "fuse_restricts"), "{:?}", trace.rewrites);
        assert_eq!(trace.root.provenance, "rewritten");
        assert_eq!(trace.root.rows_in, 4);
        assert_eq!(trace.root.rows_out, 2, "LA stations above 10m");
        let src = &trace.root.children[0];
        assert_eq!(src.rows_out, 4);
        assert_eq!(src.cache, CacheStatus::Miss, "first demand fires the table box");
        assert_eq!(src.provenance, "");

        // Analyze again: the plan cache would have answered, and the
        // boundary cone is memoized now — but rows are still real.
        let (_, trace2) = e.demand_analyzed(&g, r2, 0, true, None).unwrap();
        let trace2 = trace2.unwrap();
        assert_eq!(trace2.plan_cache, CacheStatus::Hit);
        assert_eq!(trace2.root.children[0].cache, CacheStatus::Hit);
        assert_eq!(trace2.root.rows_out, 2);
        assert_eq!(e.demand_traces().len(), 2);
        assert!(e.last_trace_for(r2, 0).is_some());
    }

    #[test]
    fn analyzed_window_restrict_is_marked() {
        let mut g = Graph::new();
        let t = g.add(BoxKind::Table("Stations".into()));
        let r = g.add(restrict("state = 'LA'"));
        g.connect(t, 0, r, 0).unwrap();
        let w = parse("altitude > 10.0").unwrap();
        let mut e = Engine::new(catalog());
        // Rewrites off so the synthesized window restrict stays on top.
        let (_, trace) = e.demand_analyzed(&g, r, 0, false, Some(&w)).unwrap();
        let root = trace.unwrap().root;
        assert_eq!(root.provenance, "window");
        assert_eq!(root.children[0].provenance, "", "the user's own restrict");
    }

    #[test]
    fn passive_planned_demands_fill_the_trace_ring_only_when_recording() {
        use tioga2_obs::InMemoryRecorder;
        let mut g = Graph::new();
        let t = g.add(BoxKind::Table("Stations".into()));
        let r = g.add(restrict("state = 'LA'"));
        g.connect(t, 0, r, 0).unwrap();
        let mut e = Engine::new(catalog());
        e.demand_planned(&g, r, 0).unwrap();
        assert!(e.demand_traces().is_empty(), "noop recorder: no attribution");
        let rec = std::sync::Arc::new(InMemoryRecorder::new());
        e.set_recorder(rec.clone());
        e.invalidate_all();
        e.demand_planned(&g, r, 0).unwrap();
        assert_eq!(e.demand_traces().len(), 1, "first recordable demand is sampled");
        let trace = &e.demand_traces()[0];
        assert_eq!(trace.root.rows_out, 3);
        assert_eq!(trace.threads, e.threads());
        // The next TRACE_SAMPLE_PERIOD-1 recordable demands ride without
        // attribution; the one after is sampled again.
        for _ in 0..(TRACE_SAMPLE_PERIOD - 1) {
            e.invalidate_all();
            e.demand_planned(&g, r, 0).unwrap();
        }
        assert_eq!(e.demand_traces().len(), 1, "1-in-{TRACE_SAMPLE_PERIOD} sampling");
        e.invalidate_all();
        e.demand_planned(&g, r, 0).unwrap();
        assert_eq!(e.demand_traces().len(), 2);
        // ...but the latency histogram saw every demand, sampled or not.
        let hists = rec.histograms();
        let lat = hists.get("demand.latency_ns").expect("demand latency histogram");
        assert_eq!(lat.count(), TRACE_SAMPLE_PERIOD + 1);
    }

    #[test]
    fn trace_ring_is_bounded() {
        let mut g = Graph::new();
        let t = g.add(BoxKind::Table("Stations".into()));
        let r = g.add(restrict("state = 'LA'"));
        g.connect(t, 0, r, 0).unwrap();
        let mut e = Engine::new(catalog());
        for _ in 0..(DEMAND_TRACE_RING + 5) {
            e.demand_analyzed(&g, r, 0, true, None).unwrap();
        }
        assert_eq!(e.demand_traces().len(), DEMAND_TRACE_RING);
        let first = e.demand_traces()[0].demand_id;
        assert_eq!(first, 5, "oldest traces evicted");
    }

    #[test]
    fn stats_rows_accumulate_without_recorder() {
        let mut g = Graph::new();
        let t = g.add(BoxKind::Table("Stations".into()));
        let r = g.add(restrict("state = 'LA'"));
        g.connect(t, 0, r, 0).unwrap();
        let mut e = Engine::new(catalog());
        e.demand(&g, r, 0).unwrap();
        assert_eq!(e.stats.rows_in, 4);
        assert_eq!(e.stats.rows_out, 7);
    }

    #[test]
    fn project_keeps_everything_visualizable() {
        let mut g = Graph::new();
        let t = g.add(BoxKind::Table("Stations".into()));
        let p = g.add(BoxKind::rel(RelOpKind::Project(vec!["name".into()])));
        g.connect(t, 0, p, 0).unwrap();
        let mut e = Engine::new(catalog());
        let d = e.demand_displayable(&g, p, 0).unwrap();
        match d {
            Displayable::R(dr) => {
                dr.validate().unwrap();
                assert_eq!(dr.rel.schema().len(), 1);
                assert!(!dr.tuple_display(0).unwrap().is_empty());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn install_update_writes_in_place_and_patches_caches() {
        let c = catalog();
        let mut g = Graph::new();
        let t = g.add(BoxKind::Table("Stations".into()));
        let r = g.add(restrict("altitude > 10.0"));
        g.connect(t, 0, r, 0).unwrap();
        let mut e = Engine::new(c.clone());
        e.demand_planned(&g, r, 0).unwrap();
        assert_eq!(c.storage_refs("Stations").unwrap(), 2, "the memo pins the table's store");
        let buffer = |c: &Catalog| c.snapshot("Stations").unwrap().tuples().as_ptr() as usize;
        let before = buffer(&c);
        let row = c.snapshot("Stations").unwrap().tuples()[1].row_id;
        let change = [FieldChange { field: "altitude".into(), value: Value::Float(30.0) }];
        let (delta, out) = e.install_update(&g, "Stations", row, &change).unwrap();
        assert_eq!(buffer(&c), before, "the write did not copy the table");
        assert_eq!((delta.rows(), out.fallback), (1, 0));
        assert!(out.applied >= 2, "memo boundary and plan chain patched: {out:?}");
        let hits = e.stats.cache_hits;
        let warm = e.demand_planned(&g, r, 0).unwrap();
        let cold = Engine::new(c.clone()).demand_planned(&g, r, 0).unwrap();
        assert_eq!(format!("{warm:?}"), format!("{cold:?}"));
        assert_eq!(e.demand_displayable(&g, t, 0).unwrap().tuple_count(), 4);
        assert_eq!(e.stats.cache_hits, hits + 1, "the refreshed boundary still hits");

        // A failed install changes nothing and leaves the boundary usable.
        let bad = [FieldChange { field: "altitude".into(), value: Value::Text("high".into()) }];
        assert!(e.install_update(&g, "Stations", row, &bad).is_err());
        assert!(e.install_update(&g, "Stations", 999, &change).is_err());
        let evals = e.stats.box_evals;
        assert_eq!(format!("{:?}", e.demand_planned(&g, r, 0).unwrap()), format!("{cold:?}"));
        assert_eq!(e.demand_displayable(&g, t, 0).unwrap().tuple_count(), 4);
        assert_eq!(e.stats.box_evals, evals, "no box re-fired");
    }
}
