//! A Tioga-2 session: the single user interface of paper §3 for both
//! building and using programs.

use crate::canvas::{Canvas, CanvasFrame};
use crate::environment::Environment;
use crate::error::CoreError;
use std::collections::BTreeMap;
use std::sync::Arc;
use tioga2_dataflow::boxes::{CompOpKind, RelOpKind};
use tioga2_dataflow::edit;
use tioga2_dataflow::encapsulate::{encapsulate, EncapsulatedDef};
use tioga2_dataflow::engine::eval_eager;
use tioga2_dataflow::persist;
use tioga2_dataflow::{
    BoxKind, BoxTemplate, Engine, EvalStats, FlowError, Graph, Journal, NodeId, PortType,
};
use tioga2_display::compose::PartitionSpec;
use tioga2_display::drilldown::{elevation_map, ElevationBar};
use tioga2_display::{Displayable, Layout, Selection};
use tioga2_expr::{parse, ScalarType, Shape, ViewerSpec};
use tioga2_obs::{
    CanvasView, EventLog, MagnifierView, Recorder, SessionEvent, SessionSnapshot, SpanId,
    TravelView, ViewState,
};
use tioga2_relational::persist as rel_persist;
use tioga2_relational::{Budget, CancelToken, Catalog};
use tioga2_render::HitRecord;
use tioga2_viewer::magnifier::Magnifier;
use tioga2_viewer::render_pass::Slider;
use tioga2_viewer::slaving::ViewerSet;
use tioga2_viewer::Viewer;

/// Evaluation discipline: the lazy Tioga-2 engine, or the eager
/// whole-program recompute of the original Tioga (the A1 baseline).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalMode {
    Lazy,
    EagerTioga1,
}

/// The elevation at (or below) which zooming over a wormhole passes
/// through it (§6.2); zooming lower with no wormhole under the screen
/// center clamps here.
pub const PASS_THROUGH_ELEVATION: f64 = 1e-3;

/// One wormhole traversal on the travel stack.
#[derive(Debug, Clone, PartialEq)]
struct Travel {
    canvas: String,
    center: (f64, f64),
    elevation: f64,
    entry_elevation: f64,
}

/// Default canvas window size in pixels.
pub const DEFAULT_CANVAS_SIZE: (u32, u32) = (640, 480);

/// Default auto-snapshot period (one snapshot marker per this many
/// journaled edits); override with `TIOGA2_SNAPSHOT_EVERY`.
pub const DEFAULT_SNAPSHOT_EVERY: usize = 64;

fn env_snapshot_every() -> usize {
    std::env::var("TIOGA2_SNAPSHOT_EVERY")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .filter(|n: &usize| *n > 0)
        .unwrap_or(DEFAULT_SNAPSHOT_EVERY)
}

/// One user session.
///
/// ```
/// use tioga2_core::{Environment, Session};
/// use tioga2_datagen::register_standard_catalog;
/// use tioga2_relational::Catalog;
///
/// let catalog = Catalog::new();
/// register_standard_catalog(&catalog, 50, 4, 1);
/// let mut session = Session::new(Environment::new(catalog));
///
/// // The paper's Figure 1 pipeline, built incrementally.
/// let stations = session.add_table("Stations")?;
/// let louisiana = session.restrict(stations, "state = 'LA'")?;
/// session.add_viewer(louisiana, "main")?;
/// let frame = session.render("main")?;
/// assert!(frame.fb.ink_fraction() > 0.0);
/// # Ok::<(), tioga2_core::CoreError>(())
/// ```
pub struct Session {
    pub env: Environment,
    pub graph: Graph,
    engine: Engine,
    journal: Journal,
    pub viewers: ViewerSet,
    canvases: BTreeMap<String, Canvas>,
    focus: Option<String>,
    history: Vec<Travel>,
    mode: EvalMode,
    canvas_size: (u32, u32),
    /// Box evaluations spent in eager (Tioga-1) recomputes.
    pub eager_evals: u64,
    /// Validate appended boxes by evaluating them immediately (the
    /// paper's immediate-feedback principle).  Benches may disable it to
    /// measure pure edit cost.
    validate_edits: bool,
    /// Instrumentation sink, shared with the engine (defaults to the
    /// zero-overhead no-op recorder).
    recorder: Arc<dyn Recorder>,
    /// Session-level demand budget (row cap / wall-clock deadline).  When
    /// set, every demand the session issues runs under it; `None` leaves
    /// whatever the engine inherited (e.g. from `TIOGA2_BUDGET`).
    budget: Option<Budget>,
    /// Cancel token of the most recently armed demand, shared with
    /// [`SupersedeHandle`]s.  Each render arms a fresh token and cancels
    /// the previous one, so a superseding render aborts any
    /// still-running predecessor cooperatively; other threads (e.g. a
    /// `tiogad` connection thread) cancel through the same slot while
    /// the session worker is blocked inside the demand.
    inflight_shared: Arc<std::sync::Mutex<Option<CancelToken>>>,
    /// The session event journal: every edit, gesture, render, update,
    /// config change and demand outcome, plus periodic snapshot markers.
    /// Shared with the engine (which appends demand/cache events).
    events: EventLog,
    /// Nesting depth of public session ops.  Only the outermost op
    /// journals itself, so a zoom that passes through a wormhole does not
    /// also journal the inner traversal (replay would apply it twice).
    op_depth: u32,
    /// Edits journaled since the last snapshot marker.
    edits_since_snapshot: usize,
    /// Auto-snapshot period in edits (`TIOGA2_SNAPSHOT_EVERY`).
    snapshot_every: usize,
    /// `:watch` live-tail filter: `Some("")` tails every kind,
    /// `Some(kind)` one kind, `None` is off.
    watch: Option<String>,
    /// Last journal sequence number already delivered to `:watch`.
    watch_cursor: u64,
    /// Slow-demand ring shared with the engine (standalone sessions own
    /// one seeded from `TIOGA2_SLOWLOG`; `tiogad` swaps in its
    /// fleet-wide log via [`Session::install_slowlog`]).
    slowlog: Arc<tioga2_obs::SlowLog>,
}

/// A clonable, thread-safe view of one session's in-flight demand token
/// (see [`Session::supersede_handle`]).
#[derive(Clone)]
pub struct SupersedeHandle(Arc<std::sync::Mutex<Option<CancelToken>>>);

impl SupersedeHandle {
    /// Cancel the demand currently in flight, if any.  Returns whether a
    /// token was armed.  Cooperative: the running demand notices at its
    /// next cancellation check and aborts with a structured error.
    pub fn cancel_inflight(&self) -> bool {
        match self.0.lock().unwrap().as_ref() {
            Some(token) => {
                token.cancel();
                true
            }
            None => false,
        }
    }
}

impl Session {
    pub fn new(env: Environment) -> Self {
        let mut engine = Engine::new(env.catalog.clone());
        let events = EventLog::new();
        engine.set_journal(Some(events.clone()));
        let slowlog = Arc::new(tioga2_obs::SlowLog::from_env());
        engine.set_slowlog(slowlog.clone(), "", "");
        Session {
            env,
            graph: Graph::new(),
            engine,
            journal: Journal::new(),
            viewers: ViewerSet::new(),
            canvases: BTreeMap::new(),
            focus: None,
            history: Vec::new(),
            mode: EvalMode::Lazy,
            canvas_size: DEFAULT_CANVAS_SIZE,
            eager_evals: 0,
            validate_edits: true,
            recorder: tioga2_obs::noop(),
            budget: None,
            inflight_shared: Arc::new(std::sync::Mutex::new(None)),
            events,
            op_depth: 0,
            edits_since_snapshot: 0,
            snapshot_every: env_snapshot_every(),
            watch: None,
            watch_cursor: 0,
            slowlog,
        }
    }

    /// The session's slow-demand ring (see [`tioga2_obs::SlowLog`]).
    pub fn slowlog(&self) -> &Arc<tioga2_obs::SlowLog> {
        &self.slowlog
    }

    /// Replace the slow-demand sink and the `{tenant, session}` labels
    /// its captures carry.  `tiogad` installs its fleet-wide log here on
    /// attach so one ring aggregates slow demands across all tenants.
    pub fn install_slowlog(&mut self, log: Arc<tioga2_obs::SlowLog>, tenant: &str, session: &str) {
        self.engine.set_slowlog(log.clone(), tenant, session);
        self.slowlog = log;
    }

    /// Stamp subsequent demands with a protocol request id (0 clears);
    /// see [`Engine::set_request_id`].
    pub fn set_request_id(&mut self, request_id: u64) {
        self.engine.set_request_id(request_id);
    }

    /// Install an instrumentation recorder for this session and its
    /// engine.  Pass [`tioga2_obs::noop()`] to turn tracing back off.
    pub fn set_recorder(&mut self, recorder: Arc<dyn Recorder>) {
        self.engine.set_recorder(recorder.clone());
        self.recorder = recorder;
    }

    /// The session's current recorder.
    pub fn recorder(&self) -> &Arc<dyn Recorder> {
        &self.recorder
    }

    /// Begin a session-level op span (no-op unless tracing is enabled).
    fn op_span(&self, name: &str, detail: &str) -> SpanId {
        if self.recorder.is_enabled() {
            self.recorder.span_begin(name, detail)
        } else {
            SpanId::NONE
        }
    }

    /// Toggle immediate evaluation of newly appended boxes.
    pub fn set_validate(&mut self, on: bool) {
        self.validate_edits = on;
    }

    pub fn set_canvas_size(&mut self, width: u32, height: u32) {
        self.canvas_size = (width.max(8), height.max(8));
        let (w, h) = self.canvas_size;
        self.journal_outer(SessionEvent::Config {
            key: "canvas_size".into(),
            value: format!("{w}x{h}"),
        });
    }

    pub fn set_mode(&mut self, mode: EvalMode) {
        self.mode = mode;
        self.journal_outer(SessionEvent::Config {
            key: "mode".into(),
            value: if mode == EvalMode::Lazy { "lazy" } else { "eager" }.into(),
        });
    }

    pub fn mode(&self) -> EvalMode {
        self.mode
    }

    /// Lazy-engine statistics (box firings / cache hits).
    pub fn engine_stats(&self) -> EvalStats {
        self.engine.stats
    }

    /// Worker count for partition-parallel plan execution.
    pub fn threads(&self) -> usize {
        self.engine.threads()
    }

    /// Set the worker count for this session's engine and the
    /// process-wide default (so future engines inherit it).  Purely an
    /// execution strategy — results are identical at any setting.
    pub fn set_threads(&mut self, n: usize) {
        self.engine.set_threads(n);
        tioga2_relational::par::set_threads(n);
        self.journal_outer(SessionEvent::Config {
            key: "threads".into(),
            value: self.engine.threads().to_string(),
        });
    }

    // ------------------------------------------------- governance (§10)

    /// Set (or clear, with `None`) the session-wide demand budget.  Takes
    /// effect on the next demand; clearing also removes any engine-level
    /// budget inherited from `TIOGA2_BUDGET`.
    pub fn set_budget(&mut self, budget: Option<Budget>) {
        self.budget = budget.clone();
        self.engine.set_budget(budget);
    }

    /// The session-wide demand budget, if any.
    pub fn budget(&self) -> Option<&Budget> {
        self.budget.as_ref()
    }

    /// A clonable, thread-safe handle onto this session's in-flight
    /// demand.  `tiogad` hands one to each connection thread so a newly
    /// arriving demand-class command can cancel the demand the session
    /// worker is currently executing (admission control's "supersede"
    /// rule) without locking the session itself.
    pub fn supersede_handle(&self) -> SupersedeHandle {
        SupersedeHandle(self.inflight_shared.clone())
    }

    /// Arm a fresh cancel token for a demand about to run, cancelling the
    /// token of the demand it supersedes (§10: a newer render aborts the
    /// in-flight one instead of queueing behind it).
    fn arm_demand(&mut self) -> CancelToken {
        let token = CancelToken::new();
        let prev = self
            .inflight_shared
            .lock()
            .expect("no thread panics while holding the in-flight slot")
            .replace(token.clone());
        if let Some(prev) = prev {
            prev.cancel();
        }
        match &self.budget {
            Some(b) => self.engine.set_budget(Some(b.clone().with_token(token.clone()))),
            None => self.engine.set_cancel_token(Some(token.clone())),
        }
        token
    }

    /// Scope a fault-injection plan to this session's engine (the chaos
    /// suite uses this to keep faults out of the process-global
    /// registry).  `None` falls back to `TIOGA2_FAULTS`/`fault::install`.
    pub fn set_fault_plan(&mut self, plan: Option<tioga2_relational::FaultPlan>) {
        self.engine.set_fault_plan(plan);
    }

    // ----------------------------------------- session event journal

    /// The session's event journal.  Shared with the engine, which
    /// appends demand-lifecycle and cache-invalidation events to it.
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// Serialize the journal as versioned JSONL (header + one event per
    /// line) — the input format of [`Session::recover`].
    pub fn journal_text(&self) -> String {
        self.events.to_jsonl()
    }

    /// Attach an append-only JSONL file sink to the journal.
    pub fn attach_journal_file(&self, path: &str) -> std::io::Result<()> {
        self.events.attach_file(path)
    }

    /// Turn fsync-on-commit on or off for the journal file sink.
    pub fn set_journal_fsync(&self, on: bool) {
        self.events.set_fsync(on);
    }

    /// Flush and fsync the journal file sink (drain / eviction path).
    pub fn sync_journal(&self) -> Result<(), CoreError> {
        self.events.sync().map_err(CoreError::Session)
    }

    /// Append an event if this is the outermost public op (nested ops —
    /// e.g. the render inside a pan's first fit — are implied by the
    /// outer event and must not be replayed twice).
    fn journal_outer(&self, ev: SessionEvent) {
        if self.op_depth == 0 {
            self.events.append(ev);
        }
    }

    /// Journal a successful program edit: the op label plus the full
    /// serialized post-edit program, so replay needs no knowledge of the
    /// edit itself.  Every `snapshot_every` edits a snapshot marker
    /// follows, bounding the tail recovery has to replay.
    fn journal_edit(&mut self, op: &str) {
        if self.op_depth != 0 {
            return;
        }
        let ev =
            SessionEvent::Edit { op: op.to_string(), program: persist::save_program(&self.graph) };
        if self.events.append(ev).is_none() {
            return; // journal disabled (recovery replay in progress)
        }
        self.edits_since_snapshot += 1;
        if self.edits_since_snapshot >= self.snapshot_every {
            let _ = self.snapshot_now();
        }
    }

    /// Write a snapshot marker embedding the full session state (program,
    /// catalog, saved-program library, undo stacks, view state).
    /// Recovery restores the last snapshot and replays the tail after it.
    pub fn snapshot_now(&mut self) -> Result<u64, CoreError> {
        let snap = self.build_snapshot()?;
        let seq = self.events.append(SessionEvent::Snapshot(Box::new(snap)));
        self.edits_since_snapshot = 0;
        seq.ok_or_else(|| CoreError::Session("event journal is disabled".into()))
    }

    fn build_snapshot(&self) -> Result<SessionSnapshot, CoreError> {
        let mut tables = Vec::new();
        for name in self.env.catalog.table_names() {
            if name.starts_with("sys.") {
                continue; // self-hosted tables are rebuilt on demand
            }
            let rel = self.env.catalog.snapshot(&name)?;
            tables.push((name, rel_persist::save_relation(&rel)?));
        }
        let (past, future) = self.journal.stacks();
        let canvases = self
            .canvases
            .iter()
            .map(|(name, c)| {
                let (center, elevation, sliders) = match self.viewers.get(name) {
                    Ok(v) => (
                        v.position.center,
                        v.position.elevation,
                        v.position
                            .sliders
                            .iter()
                            .map(|s| (s.dim.clone(), s.range.0, s.range.1))
                            .collect(),
                    ),
                    Err(_) => ((0.0, 0.0), 0.0, Vec::new()),
                };
                CanvasView {
                    name: name.clone(),
                    fitted: c.fitted,
                    size: (c.size.0 as u64, c.size.1 as u64),
                    center,
                    elevation,
                    sliders,
                    magnifiers: c
                        .magnifiers
                        .iter()
                        .map(|m| MagnifierView {
                            rect: (
                                m.rect_px.0 as i64,
                                m.rect_px.1 as i64,
                                m.rect_px.2 as u64,
                                m.rect_px.3 as u64,
                            ),
                            zoom: m.zoom,
                            slaved: m.slaved,
                            center: m.center,
                            display_attr: m.display_attr.clone(),
                        })
                        .collect(),
                }
            })
            .collect();
        Ok(SessionSnapshot {
            program: persist::save_program(&self.graph),
            tables,
            programs: self.env.programs_snapshot(),
            undo_past: past.iter().map(persist::save_program).collect(),
            undo_future: future.iter().map(persist::save_program).collect(),
            view: ViewState {
                focus: self.focus.clone(),
                canvas_size: (self.canvas_size.0 as u64, self.canvas_size.1 as u64),
                canvases,
                slaves: self.viewers.slaved_pairs(),
                travels: self
                    .history
                    .iter()
                    .map(|t| TravelView {
                        canvas: t.canvas.clone(),
                        center: t.center,
                        elevation: t.elevation,
                        entry_elevation: t.entry_elevation,
                    })
                    .collect(),
            },
        })
    }

    /// Rebuild a session from a serialized journal: restore the last
    /// snapshot (program, catalog, program library, undo stacks, view
    /// state), then replay the replayable tail after it.  The recovered
    /// session's canvases, catalog, and demand results are byte-identical
    /// to the crashed session's.
    ///
    /// Limitations (documented in DESIGN.md §11): big-programmer custom
    /// boxes must be re-registered before recovery can load programs that
    /// use them, and a group canvas's member cursor is not journaled.
    pub fn recover(text: &str) -> Result<Session, CoreError> {
        let log = EventLog::from_jsonl(text).map_err(CoreError::Session)?;
        Self::recover_from_log(log)
    }

    /// [`Session::recover`], but tolerant of a torn final journal line —
    /// the signature of a crash (SIGKILL, power loss) mid-append.  The
    /// torn record is dropped (its op never acknowledged durable) and
    /// the second element reports whether that happened.  Corruption
    /// anywhere earlier is still a hard error.
    pub fn recover_crashed(text: &str) -> Result<(Session, bool), CoreError> {
        let (log, torn) = EventLog::from_jsonl_recovering(text).map_err(CoreError::Session)?;
        Ok((Self::recover_from_log(log)?, torn))
    }

    fn recover_from_log(log: EventLog) -> Result<Session, CoreError> {
        let snap_seq = log
            .last_snapshot_seq()
            .ok_or_else(|| CoreError::Session("journal has no snapshot to recover from".into()))?;
        let snap = log
            .events()
            .into_iter()
            .find_map(|(s, ev)| match ev {
                SessionEvent::Snapshot(b) if s == snap_seq => Some(*b),
                _ => None,
            })
            .ok_or_else(|| CoreError::Session("snapshot marker missing from journal".into()))?;

        let catalog = Catalog::new();
        for (name, text) in &snap.tables {
            catalog.register(name.clone(), rel_persist::load_relation(text)?);
        }
        let mut env = Environment::new(catalog);
        for (name, text) in &snap.programs {
            env.restore_program_text(name.clone(), text.clone());
        }

        let mut s = Session::new(env);
        // Replay must not re-journal: disable the fresh log for the
        // duration, then adopt the loaded log wholesale.
        s.events.set_enabled(false);
        s.graph = persist::load_program(&snap.program, &s.env.registry)?;
        let past = snap
            .undo_past
            .iter()
            .map(|t| persist::load_program(t, &s.env.registry))
            .collect::<Result<Vec<_>, _>>()?;
        let future = snap
            .undo_future
            .iter()
            .map(|t| persist::load_program(t, &s.env.registry))
            .collect::<Result<Vec<_>, _>>()?;
        s.journal.restore_stacks(past, future);
        s.sync_canvases();

        // View state: canvas sizes and flags, then viewer positions, then
        // slaving (which captures offsets from the restored positions),
        // then the travel stack and focus.
        s.canvas_size = (snap.view.canvas_size.0 as u32, snap.view.canvas_size.1 as u32);
        for cv in &snap.view.canvases {
            let Some(c) = s.canvases.get_mut(&cv.name) else { continue };
            c.size = (cv.size.0 as u32, cv.size.1 as u32);
            c.fitted = cv.fitted;
            c.magnifiers = cv
                .magnifiers
                .iter()
                .map(|m| Magnifier {
                    rect_px: (m.rect.0 as i32, m.rect.1 as i32, m.rect.2 as u32, m.rect.3 as u32),
                    zoom: m.zoom,
                    slaved: m.slaved,
                    center: m.center,
                    display_attr: m.display_attr.clone(),
                })
                .collect();
            if cv.fitted {
                let mut v = Viewer::new(&cv.name, c.size.0, c.size.1);
                v.position.center = cv.center;
                v.position.elevation = cv.elevation;
                v.position.sliders = cv
                    .sliders
                    .iter()
                    .map(|(d, lo, hi)| Slider { dim: d.clone(), range: (*lo, *hi) })
                    .collect();
                s.viewers.insert(v);
            }
        }
        for (a, b) in &snap.view.slaves {
            s.viewers.slave(a, b)?;
        }
        s.history = snap
            .view
            .travels
            .iter()
            .map(|t| Travel {
                canvas: t.canvas.clone(),
                center: t.center,
                elevation: t.elevation,
                entry_elevation: t.entry_elevation,
            })
            .collect();
        s.focus = snap.view.focus.clone();

        for (seq, ev) in log.events() {
            if seq <= snap_seq || !ev.is_replayable() {
                continue;
            }
            s.replay_event(&ev)?;
        }

        // Adopt the loaded journal: the recovered session continues
        // appending after the crashed session's last sequence number.
        s.events = log;
        s.engine.set_journal(Some(s.events.clone()));
        s.events.set_enabled(true);
        Ok(s)
    }

    /// Re-apply one replayable journal event (recovery tail replay).
    fn replay_event(&mut self, ev: &SessionEvent) -> Result<(), CoreError> {
        match ev {
            SessionEvent::Edit { program, .. } => {
                self.journal.checkpoint(&self.graph);
                self.graph = persist::load_program(program, &self.env.registry)?;
                // A reloaded graph reuses node ids and revisions; stale
                // memoized results must not leak across the swap.
                self.engine.invalidate_all();
                self.after_edit();
            }
            SessionEvent::Undo => {
                self.undo();
            }
            SessionEvent::Redo => {
                self.redo();
            }
            SessionEvent::Render { canvas } => {
                self.render(canvas)?;
            }
            SessionEvent::Gesture { gesture, canvas, args } => {
                self.replay_gesture(gesture, canvas, args)?;
            }
            SessionEvent::Update { table, row_id, changes } => {
                let changes = changes
                    .iter()
                    .map(|(f, enc)| {
                        Ok(tioga2_relational::update::FieldChange {
                            field: f.clone(),
                            value: rel_persist::decode_value(enc)?,
                        })
                    })
                    .collect::<Result<Vec<_>, tioga2_relational::RelError>>()?;
                self.install_update(table, *row_id, &changes)?;
            }
            SessionEvent::Config { key, value } => self.replay_config(key, value),
            _ => {}
        }
        Ok(())
    }

    fn replay_gesture(
        &mut self,
        gesture: &str,
        canvas: &str,
        args: &[String],
    ) -> Result<(), CoreError> {
        let txt = |i: usize| args.get(i).map(|s| s.as_str()).unwrap_or("");
        let num = |i: usize| txt(i).parse::<f64>().unwrap_or(0.0);
        let int = |i: usize| txt(i).parse::<i64>().unwrap_or(0);
        match gesture {
            "pan" => self.pan(canvas, int(0) as i32, int(1) as i32)?,
            "zoom" => {
                self.zoom(canvas, num(0))?;
            }
            "set_slider" => self.set_slider(canvas, txt(0), num(1), num(2))?,
            "slave" => self.slave(canvas, txt(0))?,
            "unslave" => self.unslave(canvas, txt(0))?,
            "traverse" => {
                let spec = ViewerSpec {
                    destination: txt(0).to_string(),
                    at: (num(1), num(2)),
                    elevation: num(3),
                    size: (num(4), num(5)),
                };
                self.traverse(canvas, &spec)?;
            }
            "go_back" => {
                self.go_back()?;
            }
            "add_magnifier" => {
                let mut m = Magnifier::new(
                    (int(0) as i32, int(1) as i32, int(2) as u32, int(3) as u32),
                    num(4),
                )?;
                m.slaved = int(5) != 0;
                m.center = (num(6), num(7));
                m.display_attr = args.get(8).filter(|s| !s.is_empty()).cloned();
                self.add_magnifier(canvas, m)?;
            }
            "remove_magnifier" => self.remove_magnifier(canvas, int(0) as usize)?,
            "cycle_map" => {
                self.cycle_elevation_map(canvas)?;
            }
            "clone_view" => {
                // The graph edit was replayed by the preceding Edit
                // event; this re-applies the viewer-position copy.
                if let Ok(srcv) = self.viewers.get(txt(0)) {
                    let pos = srcv.position.clone();
                    let size = srcv.size;
                    let mut v = Viewer::new(canvas, size.0, size.1);
                    v.position = pos;
                    self.viewers.insert(v);
                    if let Some(c) = self.canvases.get_mut(canvas) {
                        c.fitted = true;
                    }
                }
            }
            other => {
                return Err(CoreError::Session(format!("unknown journaled gesture '{other}'")))
            }
        }
        Ok(())
    }

    fn replay_config(&mut self, key: &str, value: &str) {
        match key {
            "threads" => self.set_threads(value.parse().unwrap_or(1)),
            "canvas_size" => {
                if let Some((w, h)) = value.split_once('x') {
                    let w = w.parse().unwrap_or(DEFAULT_CANVAS_SIZE.0);
                    let h = h.parse().unwrap_or(DEFAULT_CANVAS_SIZE.1);
                    self.set_canvas_size(w, h);
                }
            }
            "mode" => {
                self.set_mode(if value == "eager" { EvalMode::EagerTioga1 } else { EvalMode::Lazy })
            }
            "focus" => {
                let _ = self.set_focus(value);
            }
            "trace_ring" => self.set_trace_ring(value.parse().unwrap_or(32)),
            "save_program" => self.save_program(value),
            // Unknown keys from a newer writer are informational only.
            _ => {}
        }
    }

    // ------------------------------------------ time travel (:rewind)

    /// `:rewind N`: step backwards through the undo machinery, journaling
    /// each step.  Returns how many steps actually applied.
    pub fn rewind(&mut self, n: usize) -> usize {
        let mut done = 0;
        for _ in 0..n {
            if !self.undo() {
                break;
            }
            done += 1;
        }
        done
    }

    /// `:replay N`: step forwards again (redo). Returns steps applied.
    pub fn replay_forward(&mut self, n: usize) -> usize {
        let mut done = 0;
        for _ in 0..n {
            if !self.redo() {
                break;
            }
            done += 1;
        }
        done
    }

    // ------------------------------------------------ live tail (:watch)

    /// Arm the `:watch` live tail.  `filter` restricts to one event kind
    /// (e.g. `"demand"`); `None` tails everything.  The cursor starts at
    /// the current log head, so only *new* events are delivered.
    pub fn set_watch(&mut self, filter: Option<&str>) {
        self.watch = Some(filter.unwrap_or("").to_string());
        self.watch_cursor = self.events.last_seq().unwrap_or(0);
    }

    /// Disarm the live tail.
    pub fn clear_watch(&mut self) {
        self.watch = None;
    }

    /// The armed watch filter: `Some("")` = all kinds, `None` = off.
    pub fn watch_filter(&self) -> Option<&str> {
        self.watch.as_deref()
    }

    /// Drain events appended since the watch cursor, advancing it.
    /// Returns an empty vec when `:watch` is off.
    pub fn drain_watch(&mut self) -> Vec<(u64, SessionEvent)> {
        let Some(filter) = self.watch.clone() else { return Vec::new() };
        let evs = self.events.events_since(self.watch_cursor);
        if let Some((s, _)) = evs.last() {
            self.watch_cursor = *s;
        }
        evs.into_iter().filter(|(_, e)| filter.is_empty() || e.kind() == filter).collect()
    }

    // ------------------------------------------- trace ring (satellite)

    /// Resize the engine's demand-trace ring (`TIOGA2_TRACE_RING` sets
    /// the initial size).
    pub fn set_trace_ring(&mut self, capacity: usize) {
        self.engine.set_trace_ring(capacity);
        self.journal_outer(SessionEvent::Config {
            key: "trace_ring".into(),
            value: self.engine.trace_ring().to_string(),
        });
    }

    /// Current demand-trace ring capacity.
    pub fn trace_ring(&self) -> usize {
        self.engine.trace_ring()
    }

    /// Demand traces evicted from the ring so far.
    pub fn traces_dropped(&self) -> u64 {
        self.engine.traces_dropped()
    }

    // ------------------------------------------------------------ edits

    /// Run one journaled edit.  On failure the program is rolled back, so
    /// a rejected operation never leaves the session half-edited.
    fn edit<R>(
        &mut self,
        f: impl FnOnce(&mut Graph) -> Result<R, FlowError>,
    ) -> Result<R, CoreError> {
        let span = self.op_span("session.edit", "");
        self.journal.checkpoint(&self.graph);
        let result = match f(&mut self.graph) {
            Ok(r) => {
                self.after_edit();
                Ok(r)
            }
            Err(e) => {
                self.journal.undo(&mut self.graph);
                Err(e.into())
            }
        };
        self.recorder.span_end(span, &[("ok", result.is_ok() as i64)]);
        result
    }

    fn after_edit(&mut self) {
        self.sync_canvases();
        if self.mode == EvalMode::EagerTioga1 {
            // The Tioga-1 discipline: recompute the whole program after
            // every edit, no caching.
            if let Ok((_, stats)) = eval_eager(&self.graph, &self.engine.catalog().clone()) {
                self.eager_evals += stats.box_evals;
            }
        }
    }

    /// Reconcile canvas windows with the viewer boxes in the program:
    /// every Viewer box has a canvas; no canvas outlives its box.
    fn sync_canvases(&mut self) {
        let mut present: BTreeMap<String, NodeId> = BTreeMap::new();
        for n in self.graph.nodes() {
            if let BoxKind::Viewer { canvas, .. } = &n.kind {
                present.insert(canvas.clone(), n.id);
            }
        }
        let stale: Vec<String> =
            self.canvases.keys().filter(|k| !present.contains_key(*k)).cloned().collect();
        for name in stale {
            self.canvases.remove(&name);
            let _ = self.viewers.delete(&name);
            if self.focus.as_deref() == Some(&name) {
                self.focus = None;
            }
        }
        for (name, node) in present {
            let entry = self
                .canvases
                .entry(name.clone())
                .or_insert_with(|| Canvas::new(node, self.canvas_size.0, self.canvas_size.1));
            entry.node = node;
            if self.focus.is_none() {
                self.focus = Some(name);
            }
        }
    }

    // --------------------------------------------- program ops (Fig. 2)

    /// **New Program**: erase the program canvas.
    pub fn new_program(&mut self) {
        self.journal.checkpoint(&self.graph);
        self.graph = Graph::new();
        self.history.clear();
        // A fresh graph reuses node ids and revisions; memoized results
        // from the old graph must not be mistaken for the new one's.
        self.engine.invalidate_all();
        self.after_edit();
        self.journal_edit("new_program");
    }

    /// **Add Program**: add a named (saved) program to the canvas.
    pub fn add_program(&mut self, name: &str) -> Result<(), CoreError> {
        let other = self.env.load_program(name)?;
        self.journal.checkpoint(&self.graph);
        self.graph.add_program(&other);
        self.after_edit();
        self.journal_edit(&format!("add_program:{name}"));
        Ok(())
    }

    /// **Load Program**: shorthand for New Program followed by Add
    /// Program (paper Figure 2).
    pub fn load_program(&mut self, name: &str) -> Result<(), CoreError> {
        let other = self.env.load_program(name)?;
        self.journal.checkpoint(&self.graph);
        self.graph = Graph::new();
        self.history.clear();
        self.engine.invalidate_all();
        self.graph.add_program(&other);
        self.after_edit();
        self.journal_edit(&format!("load_program:{name}"));
        Ok(())
    }

    /// **Save Program** under a name in the environment.  Journaled as a
    /// config event: replaying it re-saves the then-current program, so
    /// the library round-trips through recovery.
    pub fn save_program(&mut self, name: &str) {
        let graph = self.graph.clone();
        self.env.save_program(name, &graph);
        self.journal_outer(SessionEvent::Config {
            key: "save_program".into(),
            value: name.to_string(),
        });
    }

    /// **Apply Box**: boxes whose inputs match the selected output edges.
    pub fn apply_box_candidates(
        &self,
        outputs: &[(NodeId, usize)],
    ) -> Result<Vec<BoxTemplate>, CoreError> {
        Ok(edit::apply_box_candidates(&self.graph, &self.env.registry, outputs)?
            .into_iter()
            .cloned()
            .collect())
    }

    /// Add a disconnected box.
    pub fn add_box(&mut self, kind: BoxKind) -> Result<NodeId, CoreError> {
        let op = format!("add_box:{}", kind.name());
        let id = self.edit(|g| Ok(g.add(kind)))?;
        self.journal_edit(&op);
        Ok(id)
    }

    /// Connect an output to an input (type-checked).
    pub fn connect(
        &mut self,
        from: NodeId,
        out_port: usize,
        to: NodeId,
        in_port: usize,
    ) -> Result<(), CoreError> {
        self.edit(|g| g.connect(from, out_port, to, in_port))?;
        self.journal_edit("connect");
        Ok(())
    }

    /// **Delete Box** under the paper's legality rules.
    pub fn delete_box(&mut self, id: NodeId) -> Result<(), CoreError> {
        self.edit(|g| edit::delete_box(g, id))?;
        self.journal_edit("delete_box");
        Ok(())
    }

    /// **Replace Box** by a different box with compatible types.
    pub fn replace_box(&mut self, id: NodeId, kind: BoxKind) -> Result<(), CoreError> {
        let op = format!("replace_box:{}", kind.name());
        self.edit(|g| g.replace_kind(id, kind))?;
        self.journal_edit(&op);
        Ok(())
    }

    /// Re-parameterize a box without changing its signature (editing a
    /// Restrict predicate in place).
    pub fn update_box(&mut self, id: NodeId, kind: BoxKind) -> Result<(), CoreError> {
        let op = format!("update_box:{}", kind.name());
        self.edit(|g| g.update_kind(id, kind))?;
        self.journal_edit(&op);
        Ok(())
    }

    /// **T**: insert a T node on the edge into `(to, in_port)`.
    pub fn add_tee(&mut self, to: NodeId, in_port: usize) -> Result<NodeId, CoreError> {
        let id = self.edit(|g| edit::insert_tee(g, to, in_port))?;
        self.journal_edit("add_tee");
        Ok(id)
    }

    /// **Encapsulate** a region (with optional holes) and register the
    /// definition as a reusable box.
    pub fn encapsulate(
        &mut self,
        region: &[NodeId],
        holes: &[Vec<NodeId>],
        name: &str,
    ) -> Result<Arc<EncapsulatedDef>, CoreError> {
        let def = Arc::new(encapsulate(&self.graph, region, holes, name)?);
        self.env.register_encapsulated(def.clone());
        Ok(def)
    }

    /// The undo button.
    pub fn undo(&mut self) -> bool {
        let span = self.op_span("session.undo", "");
        let did = self.journal.undo(&mut self.graph);
        if did {
            self.sync_canvases();
            self.journal_outer(SessionEvent::Undo);
        }
        self.recorder.span_end(span, &[("did", did as i64)]);
        did
    }

    pub fn redo(&mut self) -> bool {
        let span = self.op_span("session.redo", "");
        let did = self.journal.redo(&mut self.graph);
        if did {
            self.sync_canvases();
            self.journal_outer(SessionEvent::Redo);
        }
        self.recorder.span_end(span, &[("did", did as i64)]);
        did
    }

    // ------------------------------------------------- DB ops (Fig. 3)

    fn out_shape(&self, node: NodeId, port: usize) -> Result<PortType, CoreError> {
        let n = self.graph.node(node)?;
        let ty = n
            .out_types
            .get(port)
            .ok_or_else(|| CoreError::Session(format!("{node} has no output {port}")))?;
        if !ty.is_displayable() {
            return Err(CoreError::Session(format!(
                "output {port} of '{}' is not a displayable",
                n.name()
            )));
        }
        Ok(ty.clone())
    }

    fn append(&mut self, upstream: NodeId, kind: BoxKind) -> Result<NodeId, CoreError> {
        let op = format!("append:{}", kind.name());
        let id = self.edit(|g| {
            let id = g.add(kind);
            g.connect(upstream, 0, id, 0)?;
            Ok(id)
        })?;
        let id = self.validate_new(id)?;
        self.journal_edit(&op);
        Ok(id)
    }

    /// Evaluate every output of a freshly added box so bad parameters
    /// (e.g. a predicate naming a missing attribute) surface as an error
    /// of the *action*, with the program rolled back — "every result of a
    /// user action has a valid visual representation" (§1.2).
    fn validate_new(&mut self, id: NodeId) -> Result<NodeId, CoreError> {
        if !self.validate_edits {
            return Ok(id);
        }
        let ports = self.graph.node(id)?.out_types.len();
        for port in 0..ports {
            // Unconnected *inputs* elsewhere are fine; only this box must
            // evaluate.
            if let Err(e) = self.engine.demand(&self.graph, id, port) {
                self.journal.undo(&mut self.graph);
                self.journal.forget_future();
                self.sync_canvases();
                return Err(e.into());
            }
        }
        Ok(id)
    }

    /// **Add Table**: the zero-input box producing a relation's tuples.
    pub fn add_table(&mut self, table: &str) -> Result<NodeId, CoreError> {
        if !self.env.catalog.contains(table) {
            return Err(CoreError::Session(format!("no table '{table}' in the catalog")));
        }
        let id = self.edit(|g| Ok(g.add(BoxKind::Table(table.into()))))?;
        self.journal_edit(&format!("add_table:{table}"));
        Ok(id)
    }

    /// Apply a relation-level op after `upstream`, lifted through the
    /// component `sel` when the upstream displayable is a C or G (§2).
    pub fn apply_rel_op(
        &mut self,
        upstream: NodeId,
        op: RelOpKind,
        sel: Selection,
    ) -> Result<NodeId, CoreError> {
        let shape = self.out_shape(upstream, 0)?;
        self.append(upstream, BoxKind::RelOp { op, shape, sel })
    }

    /// **Restrict** with a predicate in surface syntax.
    pub fn restrict(&mut self, upstream: NodeId, predicate: &str) -> Result<NodeId, CoreError> {
        let pred = parse(predicate)?;
        self.apply_rel_op(upstream, RelOpKind::Restrict(pred), Selection::default())
    }

    /// **Project** to the named stored fields.
    pub fn project(&mut self, upstream: NodeId, fields: &[&str]) -> Result<NodeId, CoreError> {
        let cols = fields.iter().map(|s| s.to_string()).collect();
        self.apply_rel_op(upstream, RelOpKind::Project(cols), Selection::default())
    }

    /// **Sample** with retention probability `p`.
    pub fn sample(&mut self, upstream: NodeId, p: f64, seed: u64) -> Result<NodeId, CoreError> {
        self.apply_rel_op(upstream, RelOpKind::Sample { p, seed }, Selection::default())
    }

    /// Sort by `(attribute, ascending)` keys.
    pub fn sort(&mut self, upstream: NodeId, keys: &[(&str, bool)]) -> Result<NodeId, CoreError> {
        let keys = keys.iter().map(|(k, a)| (k.to_string(), *a)).collect();
        self.apply_rel_op(upstream, RelOpKind::Sort(keys), Selection::default())
    }

    /// GROUP BY + aggregates, producing a fresh displayable relation
    /// (defaults re-applied to the grouped schema).
    pub fn aggregate(
        &mut self,
        upstream: NodeId,
        keys: &[&str],
        aggs: Vec<tioga2_relational::AggSpec>,
    ) -> Result<NodeId, CoreError> {
        let keys = keys.iter().map(|s| s.to_string()).collect();
        self.apply_rel_op(upstream, RelOpKind::Aggregate { keys, aggs }, Selection::default())
    }

    /// DISTINCT on the given attributes (all stored fields if empty).
    pub fn distinct(&mut self, upstream: NodeId, attrs: &[&str]) -> Result<NodeId, CoreError> {
        let attrs = attrs.iter().map(|s| s.to_string()).collect();
        self.apply_rel_op(upstream, RelOpKind::Distinct(attrs), Selection::default())
    }

    /// LIMIT/OFFSET in current tuple order.
    pub fn limit(
        &mut self,
        upstream: NodeId,
        offset: usize,
        count: usize,
    ) -> Result<NodeId, CoreError> {
        self.apply_rel_op(upstream, RelOpKind::Limit { offset, count }, Selection::default())
    }

    /// Rename a stored field.
    pub fn rename_field(
        &mut self,
        upstream: NodeId,
        from: &str,
        to: &str,
    ) -> Result<NodeId, CoreError> {
        self.apply_rel_op(
            upstream,
            RelOpKind::Rename { from: from.into(), to: to.into() },
            Selection::default(),
        )
    }

    /// **Join** two relation outputs on a predicate over the combined
    /// naming (right-side collisions renamed `name` → `name_2`).
    pub fn join(
        &mut self,
        left: NodeId,
        right: NodeId,
        predicate: &str,
    ) -> Result<NodeId, CoreError> {
        let pred = parse(predicate)?;
        let id = self.edit(|g| {
            let id = g.add(BoxKind::Join(pred));
            g.connect(left, 0, id, 0)?;
            g.connect(right, 0, id, 1)?;
            Ok(id)
        })?;
        let id = self.validate_new(id)?;
        self.journal_edit("join");
        Ok(id)
    }

    /// Add a scalar constant box — a runtime parameter (§2).  Update it
    /// later with [`Session::set_const`] to twiddle the parameter.
    pub fn add_const(&mut self, value: tioga2_expr::Value) -> Result<NodeId, CoreError> {
        if matches!(value, tioga2_expr::Value::Drawable(_) | tioga2_expr::Value::DrawList(_)) {
            return Err(CoreError::Session("constants must be scalar values".into()));
        }
        let id = self.edit(|g| Ok(g.add(BoxKind::Const(value))))?;
        self.journal_edit("add_const");
        Ok(id)
    }

    /// Change a constant's value in place.  The type must stay the same
    /// (signature-preserving edit); only the consuming cone re-fires.
    pub fn set_const(&mut self, id: NodeId, value: tioga2_expr::Value) -> Result<(), CoreError> {
        self.edit(|g| g.update_kind(id, BoxKind::Const(value)))?;
        self.journal_edit("set_const");
        Ok(())
    }

    /// **Restrict** with named parameters fed by scalar boxes: the
    /// predicate may reference each `(name, source node)` pair as a free
    /// variable bound to that box's output.
    pub fn restrict_with_params(
        &mut self,
        upstream: NodeId,
        predicate: &str,
        params: &[(&str, NodeId)],
    ) -> Result<NodeId, CoreError> {
        let pred = parse(predicate)?;
        let shape = self.out_shape(upstream, 0)?;
        let mut sig = Vec::new();
        for (name, src) in params {
            let n = self.graph.node(*src)?;
            match n.out_types.first() {
                Some(PortType::Scalar(t)) => sig.push((name.to_string(), t.clone())),
                _ => {
                    return Err(CoreError::Session(format!(
                        "parameter '{name}' source is not a scalar box"
                    )))
                }
            }
        }
        let kind = BoxKind::ParamRestrict { pred, params: sig, shape, sel: Selection::default() };
        let params: Vec<(String, NodeId)> =
            params.iter().map(|(n, id)| (n.to_string(), *id)).collect();
        let id = self.edit(move |g| {
            let id = g.add(kind);
            g.connect(upstream, 0, id, 0)?;
            for (i, (_, src)) in params.iter().enumerate() {
                g.connect(*src, 0, id, i + 1)?;
            }
            Ok(id)
        })?;
        let id = self.validate_new(id)?;
        self.journal_edit("param_restrict");
        Ok(id)
    }

    /// **Switch**: route tuples satisfying the predicate to output 0 and
    /// the rest to output 1 (multi-output control flow, §1.2).
    pub fn switch(&mut self, upstream: NodeId, predicate: &str) -> Result<NodeId, CoreError> {
        let pred = parse(predicate)?;
        self.append(upstream, BoxKind::Switch(pred))
    }

    // ------------------------------------- attribute ops (Fig. 5)

    /// **Add Attribute** with a definition in surface syntax.
    pub fn add_attribute(
        &mut self,
        upstream: NodeId,
        name: &str,
        ty: ScalarType,
        def: &str,
        role: tioga2_display::attr_ops::AttrRole,
    ) -> Result<NodeId, CoreError> {
        let def = parse(def)?;
        self.apply_rel_op(
            upstream,
            RelOpKind::AddAttribute { name: name.into(), ty, def, role },
            Selection::default(),
        )
    }

    /// **Set Attribute**.
    pub fn set_attribute(
        &mut self,
        upstream: NodeId,
        name: &str,
        ty: ScalarType,
        def: &str,
    ) -> Result<NodeId, CoreError> {
        let def = parse(def)?;
        self.apply_rel_op(
            upstream,
            RelOpKind::SetAttribute { name: name.into(), ty, def },
            Selection::default(),
        )
    }

    /// **Remove Attribute**.
    pub fn remove_attribute(&mut self, upstream: NodeId, name: &str) -> Result<NodeId, CoreError> {
        self.apply_rel_op(upstream, RelOpKind::RemoveAttribute(name.into()), Selection::default())
    }

    /// **Swap Attributes**.
    pub fn swap_attributes(
        &mut self,
        upstream: NodeId,
        a: &str,
        b: &str,
    ) -> Result<NodeId, CoreError> {
        self.apply_rel_op(
            upstream,
            RelOpKind::SwapAttributes(a.into(), b.into()),
            Selection::default(),
        )
    }

    /// **Scale Attribute**.
    pub fn scale_attribute(
        &mut self,
        upstream: NodeId,
        name: &str,
        k: f64,
    ) -> Result<NodeId, CoreError> {
        self.apply_rel_op(upstream, RelOpKind::ScaleAttribute(name.into(), k), Selection::default())
    }

    /// **Translate Attribute**.
    pub fn translate_attribute(
        &mut self,
        upstream: NodeId,
        name: &str,
        c: f64,
    ) -> Result<NodeId, CoreError> {
        self.apply_rel_op(
            upstream,
            RelOpKind::TranslateAttribute(name.into(), c),
            Selection::default(),
        )
    }

    /// **Combine Displays** into a new display attribute.
    pub fn combine_displays(
        &mut self,
        upstream: NodeId,
        first: &str,
        second: &str,
        offset: (f64, f64),
        new_name: &str,
    ) -> Result<NodeId, CoreError> {
        self.apply_rel_op(
            upstream,
            RelOpKind::CombineDisplays {
                first: first.into(),
                second: second.into(),
                dx: offset.0,
                dy: offset.1,
                new_name: new_name.into(),
            },
            Selection::default(),
        )
    }

    /// Make an alternative display the active one.
    pub fn set_active_display(
        &mut self,
        upstream: NodeId,
        name: &str,
    ) -> Result<NodeId, CoreError> {
        self.apply_rel_op(upstream, RelOpKind::SetActiveDisplay(name.into()), Selection::default())
    }

    // ----------------------------------------- drill down (Fig. 6, §7)

    /// **Set Range** of a layer's elevation visibility.
    pub fn set_range(
        &mut self,
        upstream: NodeId,
        min: f64,
        max: f64,
        sel: Selection,
    ) -> Result<NodeId, CoreError> {
        self.apply_rel_op(upstream, RelOpKind::SetRange { min, max }, sel)
    }

    /// Rename a layer (elevation map caption).
    pub fn set_layer_name(&mut self, upstream: NodeId, name: &str) -> Result<NodeId, CoreError> {
        self.apply_rel_op(upstream, RelOpKind::SetLayerName(name.into()), Selection::default())
    }

    /// **Overlay** `top` onto `bottom` with an n-dimensional offset.
    /// `invariant` is the user's answer to the dimension-mismatch
    /// warning (§6.1).
    pub fn overlay(
        &mut self,
        bottom: NodeId,
        top: NodeId,
        offset: Vec<f64>,
        invariant: bool,
    ) -> Result<NodeId, CoreError> {
        let id = self.edit(|g| {
            let id = g.add(BoxKind::Overlay { offset, invariant });
            g.connect(bottom, 0, id, 0)?;
            g.connect(top, 0, id, 1)?;
            Ok(id)
        })?;
        let id = self.validate_new(id)?;
        self.journal_edit("overlay");
        Ok(id)
    }

    /// **Shuffle**: move a layer to the top of the drawing order.
    pub fn shuffle(
        &mut self,
        upstream: NodeId,
        layer: usize,
        sel: Selection,
    ) -> Result<NodeId, CoreError> {
        let shape = self.out_shape(upstream, 0)?;
        let shape = if shape == PortType::R { PortType::C } else { shape };
        self.append(upstream, BoxKind::CompOp { op: CompOpKind::Shuffle(layer), shape, sel })
    }

    /// **Stitch** composites into a group.
    pub fn stitch(&mut self, members: &[NodeId], layout: Layout) -> Result<NodeId, CoreError> {
        let members = members.to_vec();
        let id = self.edit(move |g| {
            let id = g.add(BoxKind::Stitch { arity: members.len(), layout });
            for (i, m) in members.iter().enumerate() {
                g.connect(*m, 0, id, i)?;
            }
            Ok(id)
        })?;
        let id = self.validate_new(id)?;
        self.journal_edit("stitch");
        Ok(id)
    }

    /// **Replicate** by partition specs (§7.4), lifted through `sel`.
    pub fn replicate(
        &mut self,
        upstream: NodeId,
        horizontal: PartitionSpec,
        vertical: Option<PartitionSpec>,
        sel: Selection,
    ) -> Result<NodeId, CoreError> {
        let shape = self.out_shape(upstream, 0)?;
        self.append(upstream, BoxKind::Replicate { horizontal, vertical, shape, sel })
    }

    // ------------------------------------------------ viewers & canvases

    /// Attach a viewer (and its canvas window) to `upstream`'s output.
    /// Viewers may be installed on any arc; this appends at the frontier.
    pub fn add_viewer(&mut self, upstream: NodeId, canvas: &str) -> Result<NodeId, CoreError> {
        if self.canvases.contains_key(canvas) {
            return Err(CoreError::Session(format!("canvas '{canvas}' already exists")));
        }
        let ty = self.out_shape(upstream, 0)?;
        let canvas_name = canvas.to_string();
        let id = self.edit(move |g| {
            let id = g.add(BoxKind::Viewer { canvas: canvas_name, ty });
            g.connect(upstream, 0, id, 0)?;
            Ok(id)
        })?;
        self.journal_edit(&format!("add_viewer:{canvas}"));
        Ok(id)
    }

    /// Install a viewer *on an existing edge* — the paper's debugging
    /// idiom ("it is easy to instrument a program", §10).
    pub fn add_viewer_on_edge(
        &mut self,
        to: NodeId,
        in_port: usize,
        canvas: &str,
    ) -> Result<NodeId, CoreError> {
        if self.canvases.contains_key(canvas) {
            return Err(CoreError::Session(format!("canvas '{canvas}' already exists")));
        }
        let node = self.graph.node(to)?;
        let Some(Some((src, src_port))) = node.inputs.get(in_port).copied() else {
            return Err(CoreError::Session(format!("no edge into input {in_port} of {to}")));
        };
        let ty = self.graph.node(src)?.out_types[src_port].clone();
        let canvas_name = canvas.to_string();
        let id = self.edit(move |g| {
            edit::insert_on_edge(g, to, in_port, BoxKind::Viewer { canvas: canvas_name, ty })
        })?;
        self.journal_edit(&format!("add_viewer:{canvas}"));
        Ok(id)
    }

    pub fn canvas_names(&self) -> Vec<String> {
        self.canvases.keys().cloned().collect()
    }

    pub fn focus(&self) -> Option<&str> {
        self.focus.as_deref()
    }

    pub fn set_focus(&mut self, canvas: &str) -> Result<(), CoreError> {
        if !self.canvases.contains_key(canvas) {
            return Err(CoreError::Session(format!("no canvas '{canvas}'")));
        }
        self.focus = Some(canvas.to_string());
        self.journal_outer(SessionEvent::Config { key: "focus".into(), value: canvas.to_string() });
        Ok(())
    }

    fn canvas_node(&self, canvas: &str) -> Result<NodeId, CoreError> {
        self.canvases
            .get(canvas)
            .map(|c| c.node)
            .ok_or_else(|| CoreError::Session(format!("no canvas '{canvas}'")))
    }

    /// The displayable a canvas currently shows (demanding evaluation).
    pub fn displayable(&mut self, canvas: &str) -> Result<Displayable, CoreError> {
        let node = self.canvas_node(canvas)?;
        Ok(self.engine.demand_displayable(&self.graph, node, 0)?)
    }

    /// Demand any node output directly (inspection of partial results).
    /// Runs through the plan layer, so the demand's outcome (status,
    /// rows, wall time) lands in the session event journal.
    pub fn demand(&mut self, node: NodeId, port: usize) -> Result<Displayable, CoreError> {
        self.arm_demand();
        Ok(self.engine.demand_planned(&self.graph, node, port)?.into_displayable()?)
    }

    /// Explain the streaming plan for a node's output: the lowered chain,
    /// the rewrite rules that fire, and the optimized form.
    pub fn explain(&mut self, node: NodeId, port: usize) -> Result<String, CoreError> {
        Ok(self.engine.explain(&self.graph, node, port)?)
    }

    // --------------------------------------------- observability (§9)

    /// `EXPLAIN ANALYZE`: execute the demand with per-operator
    /// attribution forced on and render the annotated trace tree.  When
    /// the node is a fitted canvas viewer, the same window predicate the
    /// renderer pushes down is applied, so the trace shows exactly what a
    /// render of that canvas executes.
    pub fn explain_analyze(&mut self, node: NodeId, port: usize) -> Result<String, CoreError> {
        self.arm_demand();
        let canvas = self
            .canvases
            .iter()
            .find(|(_, c)| port == 0 && c.node == node && c.fitted)
            .map(|(name, _)| name.clone());
        let window = match canvas {
            Some(canvas) => self.window_pred(&canvas)?,
            None => None,
        };
        match self.engine.demand_analyzed(&self.graph, node, port, true, window.as_ref()) {
            Ok((_, Some(t))) => Ok(t.render()),
            Ok((_, None)) => {
                Ok(format!("{node}.{port}: single box, no relational chain to attribute\n"))
            }
            Err(e) => {
                // An aborted demand still leaves a trace in the ring —
                // render it so the partial attribution is not lost.
                if let Some(t) = self.engine.last_trace_for(node, port) {
                    if t.is_aborted() {
                        return Ok(format!("{}error: {e}\n", t.render()));
                    }
                }
                Err(e.into())
            }
        }
    }

    /// The engine's ring of recently traced demands (newest last).
    pub fn demand_traces(&self) -> &std::collections::VecDeque<tioga2_obs::DemandTrace> {
        self.engine.demand_traces()
    }

    /// Names of the self-hosted introspection tables maintained by
    /// [`Session::refresh_sys_tables`].
    pub const SYS_TABLES: [&'static str; 5] =
        ["sys.counters", "sys.histograms", "sys.demands", "sys.events", "sys.slow"];

    /// Publish the session's own instrumentation as ordinary catalog
    /// tables — the engine monitoring itself with its own machinery.
    ///
    /// * `sys.counters(name, value)` — every recorder counter.
    /// * `sys.histograms(name, count, p50_ns, p95_ns, p99_ns, mean_ns,
    ///   max_ns)` — every recorder histogram.
    /// * `sys.demands(demand_id, node, depth, rows_in, rows_out, ns,
    ///   cache, provenance, par_workers, status)` — one tuple per
    ///   operator of every trace in the demand ring, in preorder;
    ///   `status` is `ok` or the abort class of the whole demand.
    /// * `sys.slow(request, demand, tenant, session, label, status,
    ///   wall_ms, threshold_ms, ops, folded)` — one tuple per captured
    ///   slow demand (see `:slowlog`), so an ordinary box chain can
    ///   render the engine's own slow-query dashboard.
    ///
    /// The tables are snapshots: re-run to refresh.  Because base-table
    /// contents changed outside the structural signature, all memoized
    /// results are invalidated, exactly as a §8 update would.
    pub fn refresh_sys_tables(&mut self) -> Result<Vec<String>, CoreError> {
        use tioga2_expr::{ScalarType as T, Value};
        use tioga2_relational::relation::RelationBuilder;

        let mut counters = RelationBuilder::new().field("name", T::Text).field("value", T::Int);
        for (name, v) in self.recorder.counters_snapshot() {
            counters = counters.row(vec![Value::Text(name), Value::Int(v as i64)]);
        }
        // Trace-ring and journal gauges, surfaced alongside the recorder
        // counters even when the no-op recorder is installed.
        for (name, v) in [
            ("demand.trace_ring.size".to_string(), self.engine.trace_ring() as i64),
            ("demand.trace_ring.dropped".to_string(), self.engine.traces_dropped() as i64),
            ("journal.events".to_string(), self.events.len() as i64),
            ("journal.dropped".to_string(), self.events.dropped() as i64),
        ] {
            counters = counters.row(vec![Value::Text(name), Value::Int(v)]);
        }
        self.env.catalog.register("sys.counters", counters.build()?);

        let mut hists = RelationBuilder::new()
            .field("name", T::Text)
            .field("count", T::Int)
            .field("p50_ns", T::Int)
            .field("p95_ns", T::Int)
            .field("p99_ns", T::Int)
            .field("mean_ns", T::Float)
            .field("max_ns", T::Int);
        for (name, h) in self.recorder.histograms_snapshot() {
            hists = hists.row(vec![
                Value::Text(name),
                Value::Int(h.count() as i64),
                Value::Int(h.p50() as i64),
                Value::Int(h.p95() as i64),
                Value::Int(h.p99() as i64),
                Value::Float(h.mean()),
                Value::Int(h.max() as i64),
            ]);
        }
        self.env.catalog.register("sys.histograms", hists.build()?);

        let mut demands = RelationBuilder::new()
            .field("demand_id", T::Int)
            .field("node", T::Text)
            .field("depth", T::Int)
            .field("rows_in", T::Int)
            .field("rows_out", T::Int)
            .field("ns", T::Int)
            .field("cache", T::Text)
            .field("provenance", T::Text)
            .field("par_workers", T::Int)
            .field("status", T::Text);
        fn walk(
            b: tioga2_relational::relation::RelationBuilder,
            id: u64,
            depth: i64,
            status: &str,
            n: &tioga2_obs::OpNode,
        ) -> tioga2_relational::relation::RelationBuilder {
            use tioga2_expr::Value;
            let mut b = b.row(vec![
                Value::Int(id as i64),
                Value::Text(n.op.clone()),
                Value::Int(depth),
                Value::Int(n.rows_in as i64),
                Value::Int(n.rows_out as i64),
                Value::Int(n.effective_ns() as i64),
                Value::Text(n.cache.label().to_string()),
                Value::Text(n.provenance.clone()),
                Value::Int(n.par_workers as i64),
                Value::Text(status.to_string()),
            ]);
            for child in &n.children {
                b = walk(b, id, depth + 1, status, child);
            }
            b
        }
        for t in self.engine.demand_traces() {
            demands = walk(demands, t.demand_id, 0, &t.status, &t.root);
        }
        self.env.catalog.register("sys.demands", demands.build()?);

        // sys.events: the session journal as an ordinary relation, so an
        // ordinary box chain can query the session's own history.
        let mut events = RelationBuilder::new()
            .field("seq", T::Int)
            .field("kind", T::Text)
            .field("label", T::Text)
            .field("status", T::Text)
            .field("rows", T::Int)
            .field("ns", T::Int)
            .field("detail", T::Text);
        for (seq, ev) in self.events.events() {
            let (label, status, rows, ns, detail) = match &ev {
                SessionEvent::Edit { op, .. } => (op.clone(), String::new(), 0, 0, String::new()),
                SessionEvent::Undo | SessionEvent::Redo => {
                    (ev.kind().to_string(), String::new(), 0, 0, String::new())
                }
                SessionEvent::Gesture { gesture, canvas, args } => {
                    (gesture.clone(), String::new(), 0, 0, format!("{canvas} {}", args.join(" ")))
                }
                SessionEvent::Render { canvas } => {
                    (canvas.clone(), String::new(), 0, 0, String::new())
                }
                SessionEvent::Update { table, row_id, changes } => {
                    (table.clone(), String::new(), changes.len() as i64, 0, format!("row {row_id}"))
                }
                SessionEvent::Config { key, value } => {
                    (key.clone(), String::new(), 0, 0, value.clone())
                }
                SessionEvent::Demand { label, status, rows_out, wall_ns, detail, .. } => (
                    label.clone(),
                    status.clone(),
                    *rows_out as i64,
                    *wall_ns as i64,
                    detail.clone(),
                ),
                SessionEvent::CacheInvalidation { scope, entries } => {
                    (scope.clone(), String::new(), *entries as i64, 0, String::new())
                }
                SessionEvent::Snapshot(s) => (
                    "snapshot".to_string(),
                    String::new(),
                    s.tables.len() as i64,
                    0,
                    format!("{} undo levels", s.undo_past.len()),
                ),
                SessionEvent::Lifecycle { state, tenant } => {
                    (state.clone(), String::new(), 0, 0, tenant.clone())
                }
            };
            events = events.row(vec![
                Value::Int(seq as i64),
                Value::Text(ev.kind().to_string()),
                Value::Text(label),
                Value::Text(status),
                Value::Int(rows),
                Value::Int(ns),
                Value::Text(detail),
            ]);
        }
        self.env.catalog.register("sys.events", events.build()?);

        // sys.slow: the slow-demand ring as a relation — request id
        // first, because correlating wire frame -> slow trace is the
        // point of the table.
        let mut slow = RelationBuilder::new()
            .field("request", T::Int)
            .field("demand", T::Int)
            .field("tenant", T::Text)
            .field("session", T::Text)
            .field("label", T::Text)
            .field("status", T::Text)
            .field("wall_ms", T::Float)
            .field("threshold_ms", T::Float)
            .field("ops", T::Int)
            .field("folded", T::Text);
        for e in self.slowlog.entries() {
            slow = slow.row(vec![
                Value::Int(e.trace.request_id as i64),
                Value::Int(e.trace.demand_id as i64),
                Value::Text(e.tenant),
                Value::Text(e.session),
                Value::Text(e.trace.label.clone()),
                Value::Text(e.trace.status.clone()),
                Value::Float(e.trace.total_ns as f64 / 1e6),
                Value::Float(e.threshold_ns as f64 / 1e6),
                Value::Int(e.trace.root.node_count() as i64),
                Value::Text(e.folded),
            ]);
        }
        self.env.catalog.register("sys.slow", slow.build()?);

        // Catalog contents changed outside the structural signature — but
        // only for the sys.* relations, so only plans that read them are
        // evicted; everything else stays memoized across a refresh.
        let sys: Vec<String> = Self::SYS_TABLES.iter().map(|s| s.to_string()).collect();
        self.engine.invalidate_reading(&self.graph, &sys);
        Ok(sys)
    }

    /// Render a canvas window.
    pub fn render(&mut self, canvas: &str) -> Result<CanvasFrame, CoreError> {
        let span = self.op_span("session.render", canvas);
        let result = self.render_inner(canvas);
        self.recorder.span_end(span, &[("ok", result.is_ok() as i64)]);
        if result.is_ok() {
            // A render fits the viewer on first contact, so replay must
            // re-render to reproduce view state.
            self.journal_outer(SessionEvent::Render { canvas: canvas.to_string() });
        }
        result
    }

    fn render_inner(&mut self, canvas: &str) -> Result<CanvasFrame, CoreError> {
        self.arm_demand();
        // The window pushdown only avoids materializing off-screen
        // tuples: the composed scene is identical either way.
        let content = match self.window_pred(canvas)? {
            Some(pred) => {
                let node = self.canvas_node(canvas)?;
                self.engine
                    .demand_planned_opts(&self.graph, node, 0, true, Some(&pred))?
                    .into_displayable()
                    .map_err(FlowError::from)?
            }
            None => self.displayable(canvas)?,
        };
        let c = self
            .canvases
            .get_mut(canvas)
            .ok_or_else(|| CoreError::Session(format!("no canvas '{canvas}'")))?;
        c.render(canvas, &content, &mut self.viewers, self.recorder.as_ref())
    }

    /// The window predicate (visible bounds + slider ranges) a render of
    /// `canvas` pushes into its demanded plan, when that is sound: lazy
    /// mode, an already-fitted canvas with no magnifying glass (a lens
    /// may look outside the outer window, §7.2), a planned relational
    /// chain, and a position-independent layout.
    fn window_pred(&mut self, canvas: &str) -> Result<Option<tioga2_expr::Expr>, CoreError> {
        let fitted = self.canvases.get(canvas).filter(|c| c.fitted && c.magnifiers.is_empty());
        let Some(node) = fitted.map(|c| c.node).filter(|_| self.mode == EvalMode::Lazy) else {
            return Ok(None);
        };
        let Some(hdr) = self.engine.plan_root_header(&self.graph, node, 0)? else {
            return Ok(None);
        };
        Ok(self.viewers.get(canvas).ok().and_then(|v| tioga2_viewer::window_predicate(v, &hdr)))
    }

    fn ensure_fitted(&mut self, canvas: &str) -> Result<(), CoreError> {
        let fitted = self
            .canvases
            .get(canvas)
            .ok_or_else(|| CoreError::Session(format!("no canvas '{canvas}'")))?
            .fitted;
        if !fitted {
            self.render(canvas)?;
        }
        Ok(())
    }

    // -------------------------------------------------- gestures (§3, §6)

    /// Pan a canvas by screen pixels (slaved canvases follow).
    pub fn pan(&mut self, canvas: &str, dx: i32, dy: i32) -> Result<(), CoreError> {
        let span = self.op_span("session.pan", canvas);
        self.op_depth += 1;
        let result = (|| {
            self.ensure_fitted(canvas)?;
            Ok(self.viewers.pan_px(canvas, dx, dy)?)
        })();
        self.op_depth -= 1;
        self.recorder.span_end(span, &[("ok", result.is_ok() as i64)]);
        if result.is_ok() {
            self.journal_outer(SessionEvent::Gesture {
                gesture: "pan".into(),
                canvas: canvas.to_string(),
                args: vec![dx.to_string(), dy.to_string()],
            });
        }
        result
    }

    /// Zoom a canvas.  Returns the destination canvas if the elevation
    /// bottomed out over a wormhole and the user passed through (§6.2).
    pub fn zoom(&mut self, canvas: &str, factor: f64) -> Result<Option<String>, CoreError> {
        let span = self.op_span("session.zoom", canvas);
        self.op_depth += 1;
        let result = self.zoom_inner(canvas, factor);
        self.op_depth -= 1;
        self.recorder.span_end(
            span,
            &[("ok", result.is_ok() as i64), ("traversed", matches!(result, Ok(Some(_))) as i64)],
        );
        if result.is_ok() {
            self.journal_outer(SessionEvent::Gesture {
                gesture: "zoom".into(),
                canvas: canvas.to_string(),
                args: vec![format!("{factor:?}")],
            });
        }
        result
    }

    fn zoom_inner(&mut self, canvas: &str, factor: f64) -> Result<Option<String>, CoreError> {
        self.ensure_fitted(canvas)?;
        self.viewers.zoom(canvas, factor)?;
        let elevation = self.viewers.get(canvas)?.position.elevation;
        if elevation <= PASS_THROUGH_ELEVATION {
            if let Some(spec) = self.wormhole_under_center(canvas)? {
                self.traverse(canvas, &spec)?;
                return Ok(Some(spec.destination));
            }
            self.viewers.get_mut(canvas)?.position.elevation = PASS_THROUGH_ELEVATION;
        }
        Ok(None)
    }

    /// Move a canvas slider (§3).
    pub fn set_slider(
        &mut self,
        canvas: &str,
        dim: &str,
        lo: f64,
        hi: f64,
    ) -> Result<(), CoreError> {
        self.op_depth += 1;
        let result = (|| {
            self.ensure_fitted(canvas)?;
            Ok(self.viewers.get_mut(canvas)?.set_slider(dim, lo, hi)?)
        })();
        self.op_depth -= 1;
        if result.is_ok() {
            self.journal_outer(SessionEvent::Gesture {
                gesture: "set_slider".into(),
                canvas: canvas.to_string(),
                args: vec![dim.to_string(), format!("{lo:?}"), format!("{hi:?}")],
            });
        }
        result
    }

    /// Slave two canvases together (§7.1).
    pub fn slave(&mut self, a: &str, b: &str) -> Result<(), CoreError> {
        self.op_depth += 1;
        let result = (|| {
            self.ensure_fitted(a)?;
            self.ensure_fitted(b)?;
            Ok(self.viewers.slave(a, b)?)
        })();
        self.op_depth -= 1;
        if result.is_ok() {
            self.journal_outer(SessionEvent::Gesture {
                gesture: "slave".into(),
                canvas: a.to_string(),
                args: vec![b.to_string()],
            });
        }
        result
    }

    pub fn unslave(&mut self, a: &str, b: &str) -> Result<(), CoreError> {
        self.viewers.unslave(a, b)?;
        self.journal_outer(SessionEvent::Gesture {
            gesture: "unslave".into(),
            canvas: a.to_string(),
            args: vec![b.to_string()],
        });
        Ok(())
    }

    /// Attach a magnifying glass to a canvas (§7.2).
    pub fn add_magnifier(&mut self, canvas: &str, m: Magnifier) -> Result<usize, CoreError> {
        let c = self
            .canvases
            .get_mut(canvas)
            .ok_or_else(|| CoreError::Session(format!("no canvas '{canvas}'")))?;
        c.magnifiers.push(m.clone());
        let idx = c.magnifiers.len() - 1;
        self.journal_outer(SessionEvent::Gesture {
            gesture: "add_magnifier".into(),
            canvas: canvas.to_string(),
            args: vec![
                m.rect_px.0.to_string(),
                m.rect_px.1.to_string(),
                m.rect_px.2.to_string(),
                m.rect_px.3.to_string(),
                format!("{:?}", m.zoom),
                (m.slaved as u8).to_string(),
                format!("{:?}", m.center.0),
                format!("{:?}", m.center.1),
                m.display_attr.clone().unwrap_or_default(),
            ],
        });
        Ok(idx)
    }

    pub fn remove_magnifier(&mut self, canvas: &str, idx: usize) -> Result<(), CoreError> {
        let c = self
            .canvases
            .get_mut(canvas)
            .ok_or_else(|| CoreError::Session(format!("no canvas '{canvas}'")))?;
        if idx >= c.magnifiers.len() {
            return Err(CoreError::Session(format!("no magnifier {idx} on '{canvas}'")));
        }
        c.magnifiers.remove(idx);
        self.journal_outer(SessionEvent::Gesture {
            gesture: "remove_magnifier".into(),
            canvas: canvas.to_string(),
            args: vec![idx.to_string()],
        });
        Ok(())
    }

    /// The group window behind a canvas showing a `G`, after a render.
    pub fn group_window_mut(
        &mut self,
        canvas: &str,
    ) -> Result<&mut tioga2_viewer::group::GroupWindow, CoreError> {
        self.canvases
            .get_mut(canvas)
            .ok_or_else(|| CoreError::Session(format!("no canvas '{canvas}'")))?
            .group
            .as_mut()
            .ok_or_else(|| CoreError::Session(format!("canvas '{canvas}' is not showing a group")))
    }

    // -------------------------------------------- wormholes & rear view

    fn composite_of(&mut self, canvas: &str) -> Result<tioga2_display::Composite, CoreError> {
        Ok(self.displayable(canvas)?.into_composite()?)
    }

    /// The wormhole under the screen center of a canvas, if any.
    pub fn wormhole_under_center(&mut self, canvas: &str) -> Result<Option<ViewerSpec>, CoreError> {
        self.ensure_fitted(canvas)?;
        let composite = self.composite_of(canvas)?;
        let viewer = self.viewers.get(canvas)?;
        let scene = viewer.scene(&composite)?;
        let vp = viewer.viewport();
        let (cx, cy) = (vp.width_px as i32 / 2, vp.height_px as i32 / 2);
        for item in scene.items.iter().rev() {
            if let Shape::Viewer(spec) = &item.drawable.shape {
                let bbox = tioga2_render::scene::item_screen_bbox(item, &vp);
                if cx >= bbox.0 && cx <= bbox.2 && cy >= bbox.1 && cy <= bbox.3 {
                    return Ok(Some(spec.clone()));
                }
            }
        }
        Ok(None)
    }

    /// Pass through a wormhole from `canvas` (§6.2).  The destination
    /// canvas must exist (i.e. the program has a viewer of that name).
    pub fn traverse(&mut self, canvas: &str, spec: &ViewerSpec) -> Result<(), CoreError> {
        if !self.canvases.contains_key(&spec.destination) {
            return Err(CoreError::Session(format!(
                "wormhole destination '{}' is not a canvas of this program",
                spec.destination
            )));
        }
        self.op_depth += 1;
        let result = (|| {
            self.ensure_fitted(canvas)?;
            self.ensure_fitted(&spec.destination)?;
            let from = self.viewers.get(canvas)?.position.clone();
            self.history.push(Travel {
                canvas: canvas.to_string(),
                center: from.center,
                elevation: from.elevation.max(PASS_THROUGH_ELEVATION),
                entry_elevation: spec.elevation,
            });
            let v = self.viewers.get_mut(&spec.destination)?;
            v.position.center = spec.at;
            v.position.elevation = spec.elevation.max(PASS_THROUGH_ELEVATION);
            self.focus = Some(spec.destination.clone());
            Ok(())
        })();
        self.op_depth -= 1;
        if result.is_ok() {
            self.journal_outer(SessionEvent::Gesture {
                gesture: "traverse".into(),
                canvas: canvas.to_string(),
                args: vec![
                    spec.destination.clone(),
                    format!("{:?}", spec.at.0),
                    format!("{:?}", spec.at.1),
                    format!("{:?}", spec.elevation),
                    format!("{:?}", spec.size.0),
                    format!("{:?}", spec.size.1),
                ],
            });
        }
        result
    }

    /// Rear-view elevation for the canvas the user last left (§6.3):
    /// zero at the moment of passage, increasingly negative as the user
    /// descends on the current canvas.
    pub fn rear_view_elevation(&self) -> Option<f64> {
        let last = self.history.last()?;
        let cur = self
            .focus
            .as_ref()
            .and_then(|f| self.viewers.get(f).ok())
            .map(|v| v.position.elevation)?;
        Some((cur - last.entry_elevation).min(0.0))
    }

    /// Render the rear view mirror: the underside of the previous canvas.
    pub fn render_rear_view(
        &mut self,
        width: u32,
        height: u32,
    ) -> Result<Option<(tioga2_render::Framebuffer, tioga2_render::Scene)>, CoreError> {
        let Some(last) = self.history.last().cloned() else { return Ok(None) };
        let rear = self.rear_view_elevation().unwrap_or(0.0).min(-PASS_THROUGH_ELEVATION);
        let composite = self.composite_of(&last.canvas)?;
        // The mirror's extent grows with the distance descended from the
        // departed canvas (see §6.3: "he increases the distance from the
        // previous canvas").
        let extent = rear.abs().max(last.elevation);
        let vp = tioga2_render::Viewport::new(last.center, extent, width, height);
        let (fb, _, scene) = tioga2_viewer::render_composite(
            &composite,
            rear,
            &[],
            &vp,
            Default::default(),
            self.recorder.as_ref(),
        )?;
        Ok(Some((fb, scene)))
    }

    /// "Find your way home" (§6.3): pop the travel stack.
    pub fn go_back(&mut self) -> Result<String, CoreError> {
        self.op_depth += 1;
        let result = (|| {
            let last = self
                .history
                .pop()
                .ok_or_else(|| CoreError::Session("no canvas to go back to".into()))?;
            self.ensure_fitted(&last.canvas)?;
            let v = self.viewers.get_mut(&last.canvas)?;
            v.position.center = last.center;
            v.position.elevation = last.elevation;
            self.focus = Some(last.canvas.clone());
            Ok(last.canvas)
        })();
        self.op_depth -= 1;
        if let Ok(canvas) = &result {
            self.journal_outer(SessionEvent::Gesture {
                gesture: "go_back".into(),
                canvas: canvas.clone(),
                args: Vec::new(),
            });
        }
        result
    }

    pub fn travel_depth(&self) -> usize {
        self.history.len()
    }

    // ------------------------------------------- elevation map (§6.1)

    /// The elevation map of a canvas at its current elevation.  For a
    /// group canvas this is the map of the member under the cycling
    /// cursor (§6.1).
    pub fn elevation_map(&mut self, canvas: &str) -> Result<Vec<ElevationBar>, CoreError> {
        // Group canvases: per-member maps through the cursor.
        let is_group = matches!(self.displayable(canvas)?, Displayable::G(_));
        if is_group {
            self.render(canvas)?;
            return Ok(self.group_window_mut(canvas)?.current_elevation_map()?);
        }
        self.ensure_fitted(canvas)?;
        let composite = self.composite_of(canvas)?;
        let elevation = self.viewers.get(canvas)?.position.elevation;
        Ok(elevation_map(&composite, elevation))
    }

    /// Cycle a group canvas's elevation map to its next member.
    pub fn cycle_elevation_map(&mut self, canvas: &str) -> Result<usize, CoreError> {
        self.op_depth += 1;
        let result = (|| {
            self.render(canvas)?;
            Ok(self.group_window_mut(canvas)?.cycle_elevation_map())
        })();
        self.op_depth -= 1;
        if result.is_ok() {
            self.journal_outer(SessionEvent::Gesture {
                gesture: "cycle_map".into(),
                canvas: canvas.to_string(),
                args: Vec::new(),
            });
        }
        result
    }

    /// Clone a canvas: a second viewer box on the same edge with the same
    /// position (one of the viewer features inherited from the original
    /// Tioga design, §1.1).
    pub fn clone_canvas(&mut self, src: &str, new_name: &str) -> Result<NodeId, CoreError> {
        if self.canvases.contains_key(new_name) {
            return Err(CoreError::Session(format!("canvas '{new_name}' already exists")));
        }
        let node = self.canvas_node(src)?;
        let (from, port, ty) = {
            let n = self.graph.node(node)?;
            let Some(Some((from, port))) = n.inputs.first().copied() else {
                return Err(CoreError::Session(format!("canvas '{src}' has no input edge")));
            };
            (from, port, self.graph.node(from)?.out_types[port].clone())
        };
        let canvas_name = new_name.to_string();
        let id = self.edit(move |g| {
            let v = g.add(BoxKind::Viewer { canvas: canvas_name, ty });
            g.connect(from, port, v, 0)?;
            Ok(v)
        })?;
        self.journal_edit(&format!("clone_canvas:{new_name}"));
        // Copy the viewer position if the source has been rendered.
        if let Ok(srcv) = self.viewers.get(src) {
            let pos = srcv.position.clone();
            let size = srcv.size;
            let mut v = tioga2_viewer::Viewer::new(new_name, size.0, size.1);
            v.position = pos;
            self.viewers.insert(v);
            if let Some(c) = self.canvases.get_mut(new_name) {
                c.fitted = true;
            }
            // The position copy is view-layer state the Edit replay does
            // not reproduce; journal it as its own gesture.
            self.journal_outer(SessionEvent::Gesture {
                gesture: "clone_view".into(),
                canvas: new_name.to_string(),
                args: vec![src.to_string()],
            });
        }
        Ok(id)
    }

    /// Direct manipulation of an elevation-map bar: dragging a layer's
    /// range endpoints *edits the program* — a Set Range box is spliced
    /// into the edge feeding the canvas's viewer.
    pub fn set_range_via_map(
        &mut self,
        canvas: &str,
        layer: usize,
        min: f64,
        max: f64,
    ) -> Result<NodeId, CoreError> {
        let node = self.canvas_node(canvas)?;
        let src_ty = {
            let n = self.graph.node(node)?;
            let Some(Some((src, port))) = n.inputs.first().copied() else {
                return Err(CoreError::Session(format!("canvas '{canvas}' has no input edge")));
            };
            self.graph.node(src)?.out_types[port].clone()
        };
        let kind = BoxKind::RelOp {
            op: RelOpKind::SetRange { min, max },
            shape: src_ty,
            sel: Selection::layer(layer),
        };
        let id = self.edit(|g| edit::insert_on_edge(g, node, 0, kind))?;
        self.journal_edit("set_range_via_map");
        Ok(id)
    }

    /// Elevation-map drawing-order manipulation: splice a Reorder box
    /// into the canvas's edge.
    pub fn reorder_via_map(
        &mut self,
        canvas: &str,
        from: usize,
        to: usize,
    ) -> Result<NodeId, CoreError> {
        let node = self.canvas_node(canvas)?;
        let src_ty = {
            let n = self.graph.node(node)?;
            let Some(Some((src, port))) = n.inputs.first().copied() else {
                return Err(CoreError::Session(format!("canvas '{canvas}' has no input edge")));
            };
            self.graph.node(src)?.out_types[port].clone()
        };
        let shape = if src_ty == PortType::R { PortType::C } else { src_ty };
        let kind = BoxKind::CompOp {
            op: CompOpKind::Reorder { from, to },
            shape,
            sel: Selection::default(),
        };
        let id = self.edit(|g| edit::insert_on_edge(g, node, 0, kind))?;
        self.journal_edit("reorder_via_map");
        Ok(id)
    }

    // --------------------------------------------------- update (§8)

    /// Click a canvas: the topmost screen object under the pixel.
    pub fn click(&mut self, canvas: &str, x: i32, y: i32) -> Result<Option<HitRecord>, CoreError> {
        let frame = self.render(canvas)?;
        Ok(frame.hits.top_hit(x, y).cloned())
    }

    /// Click inside one member of a group canvas (member-local pixel
    /// coordinates).
    pub fn click_member(
        &mut self,
        canvas: &str,
        member: usize,
        x: i32,
        y: i32,
    ) -> Result<Option<HitRecord>, CoreError> {
        let frame = self.render(canvas)?;
        let hits = frame.member_hits.get(member).ok_or_else(|| {
            CoreError::Session(format!("canvas '{canvas}' has no group member {member}"))
        })?;
        Ok(hits.top_hit(x, y).cloned())
    }

    /// §8 update through a group member's canvas.
    pub fn begin_update_member(
        &mut self,
        canvas: &str,
        member: usize,
        x: i32,
        y: i32,
    ) -> Result<crate::update::UpdateDialog, CoreError> {
        let hit = self
            .click_member(canvas, member, x, y)?
            .ok_or_else(|| CoreError::Update("no screen object at that position".into()))?;
        crate::update::UpdateDialog::for_hit(self, &hit)
    }

    /// Click a screen object and open the generic update dialog for its
    /// tuple (§8).
    pub fn begin_update(
        &mut self,
        canvas: &str,
        x: i32,
        y: i32,
    ) -> Result<crate::update::UpdateDialog, CoreError> {
        let hit = self
            .click(canvas, x, y)?
            .ok_or_else(|| CoreError::Update("no screen object at that position".into()))?;
        crate::update::UpdateDialog::for_hit(self, &hit)
    }

    /// Install committed changes (called by `UpdateDialog::commit`).
    pub(crate) fn install_update(
        &mut self,
        table: &str,
        row_id: u64,
        changes: &[tioga2_relational::update::FieldChange],
    ) -> Result<(), CoreError> {
        // Base data changed outside the structural signature — but the
        // edit is *local*: capture it as a tuple delta and propagate it
        // through the cached plans.  Entries a delta rule covers are
        // patched in place; the rest fall back to selective eviction of
        // the edited table's demand cone, so cached plans over unrelated
        // tables keep hitting.  `invalidate_all` is never reached from
        // here.  The engine installs it (into `env.catalog`, which it
        // shares) so its own snapshot of the table does not force a
        // copy of the whole table.
        self.engine.install_update(&self.graph, table, row_id, changes)?;
        let mut enc = Vec::with_capacity(changes.len());
        for c in changes {
            enc.push((c.field.clone(), rel_persist::encode_value(&c.value)?));
        }
        self.journal_outer(SessionEvent::Update { table: table.to_string(), row_id, changes: enc });
        Ok(())
    }
}
