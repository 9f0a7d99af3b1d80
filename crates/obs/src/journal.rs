//! The session event journal: a typed, versioned, append-only log of
//! everything that changes a session.
//!
//! The paper's core move is that every direct-manipulation gesture *is* a
//! well-specified program edit — so a session is an event log.  This
//! module makes that log first-class:
//!
//! * [`SessionEvent`] — the typed event vocabulary: program edits (each
//!   carrying the full serialized program, so replay is exact), gestures,
//!   renders, §8 updates, configuration changes, demand lifecycle
//!   outcomes (status / budget / fault class), cache invalidations, and
//!   snapshot markers embedding a full [`SessionSnapshot`].
//! * [`EventLog`] — a thread-safe append-only log with a bounded
//!   in-memory ring, an optional JSONL file sink, and a cursor API
//!   (`events_since`) that backs the REPL's `:watch` live tail.
//! * A versioned JSONL wire format (`{"format":"tioga2-journal",
//!   "version":1}` header, one JSON object per line) written and parsed
//!   by hand — the workspace is dependency-free, so a ~150-line JSON
//!   value round-trip lives here too.
//!
//! Recovery = restore the last [`SessionEvent::Snapshot`] (program,
//! catalog, saved-program library, undo stacks, view state) and replay
//! the log tail.  The session layer owns that replay; this module only
//! guarantees the events round-trip byte-exactly.

use crate::export::escape_json;
use parking_lot::Mutex;
use std::sync::{Arc, OnceLock};

/// Wire-format version stamped into the JSONL header line.
pub const JOURNAL_VERSION: u64 = 1;

// ------------------------------------------------------ io fault hook

/// A process-global hook tripped before every journal fsync, so a chaos
/// harness can inject `journal.fsync` faults without this crate knowing
/// about any fault registry.  Arguments are the site name and the log's
/// monotonically increasing sync coordinate; `Err` makes the sync fail
/// with that message (counted in [`EventLog::sync_errors`]), and a
/// panicking hook simulates a crash mid-commit.
pub type IoFaultHook = Arc<dyn Fn(&str, u64) -> Result<(), String> + Send + Sync>;

fn io_fault_hook() -> &'static Mutex<Option<IoFaultHook>> {
    static HOOK: OnceLock<Mutex<Option<IoFaultHook>>> = OnceLock::new();
    HOOK.get_or_init(|| Mutex::new(None))
}

/// Install (or with `None`, remove) the journal IO fault hook.
pub fn set_io_fault_hook(hook: Option<IoFaultHook>) {
    *io_fault_hook().lock() = hook;
}

fn trip_io_fault(site: &str, coord: u64) -> Result<(), String> {
    let hook = io_fault_hook().lock().clone();
    match hook {
        Some(h) => h(site, coord),
        None => Ok(()),
    }
}

/// [`SessionEvent::Lifecycle`] states: a daemon opened the journal, or
/// closed it on detach / idle eviction, or on graceful drain.
pub const ATTACHED: &str = "attached";
pub const DETACHED: &str = "detached";
pub const DRAINED: &str = "drained";

/// Default bound on the in-memory event ring (events beyond it are
/// dropped oldest-first and counted; a file sink keeps everything).
pub const DEFAULT_EVENT_CAPACITY: usize = 65_536;

// ------------------------------------------------------------- events

/// One entry of the session journal.
///
/// Events fall into two classes: *replayable* state changes (edits,
/// undo/redo, gestures, renders, updates, config) that recovery re-applies,
/// and *observability* records (demand lifecycle, cache invalidations,
/// snapshot markers) that recovery skips but `sys.events` and `:watch`
/// expose.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionEvent {
    /// A successful program edit.  `program` is the full serialized
    /// program *after* the edit (`TIOGA2-PROGRAM v1` text), so replay
    /// needs no knowledge of the edit op itself.
    Edit { op: String, program: String },
    /// The undo button (replayed through the undo machinery).
    Undo,
    /// The redo button.
    Redo,
    /// A viewer gesture: pan, zoom, slider, slaving, traversal…
    /// `args` are the gesture's parameters printed exactly (`{:?}` for
    /// floats round-trips).
    Gesture { gesture: String, canvas: String, args: Vec<String> },
    /// A canvas render (fits the viewer on first render, so replay must
    /// re-render to reproduce view state).
    Render { canvas: String },
    /// A §8 base-table update: `changes` are `(field, encoded value)`
    /// pairs in the relational persistence encoding.
    Update { table: String, row_id: u64, changes: Vec<(String, String)> },
    /// A session configuration change (threads, canvas size, focus…).
    Config { key: String, value: String },
    /// Demand lifecycle outcome: `status` is `ok` or the abort class
    /// (`budget_exceeded`, `cancelled`, `fault_injected`, `panic`,
    /// `error`); `detail` carries the error text when aborted.
    Demand {
        demand_id: u64,
        /// Protocol request id of the frame that issued the demand (0
        /// outside a request context — REPL, tests, journals written
        /// before the field existed).
        request_id: u64,
        label: String,
        status: String,
        rows_out: u64,
        wall_ns: u64,
        threads: u64,
        detail: String,
    },
    /// A cache invalidation: `scope` is `"all"` for a full flush, or
    /// the comma-separated list of base tables whose demand cones were
    /// selectively evicted (or delta-patched); `entries` is how many
    /// memoized results were evicted.
    CacheInvalidation { scope: String, entries: u64 },
    /// A recovery point embedding the full session state.
    Snapshot(Box<SessionSnapshot>),
    /// A daemon opened ([`ATTACHED`]) or closed ([`DETACHED`],
    /// [`DRAINED`]) this journal for `tenant`.  The journal directory's
    /// live session set is derived from these records
    /// ([`crate::FleetManifest::load`]).
    Lifecycle { state: String, tenant: String },
}

/// Everything recovery needs to rebuild a session at a cut point.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SessionSnapshot {
    /// Serialized current program (`TIOGA2-PROGRAM v1` text).
    pub program: String,
    /// Catalog base tables as `(name, TIOGA2-RELATION v1 text)` pairs
    /// (self-hosted `sys.*` tables are rebuilt on demand, not stored).
    pub tables: Vec<(String, String)>,
    /// The environment's saved-program library.
    pub programs: Vec<(String, String)>,
    /// Undo stack (oldest first), as serialized programs.
    pub undo_past: Vec<String>,
    /// Redo stack (oldest first), as serialized programs.
    pub undo_future: Vec<String>,
    /// View state: canvases, viewer positions, slaving, travel stack.
    pub view: ViewState,
}

/// The session's view-layer state at a snapshot.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ViewState {
    pub focus: Option<String>,
    pub canvas_size: (u64, u64),
    pub canvases: Vec<CanvasView>,
    /// Slaved canvas pairs, in slaving order.
    pub slaves: Vec<(String, String)>,
    /// Wormhole travel stack (oldest first).
    pub travels: Vec<TravelView>,
}

/// One canvas's viewer state.
#[derive(Debug, Clone, PartialEq)]
pub struct CanvasView {
    pub name: String,
    pub fitted: bool,
    pub size: (u64, u64),
    pub center: (f64, f64),
    pub elevation: f64,
    /// Slider dimensions as `(dim, lo, hi)`.
    pub sliders: Vec<(String, f64, f64)>,
    /// Magnifying glasses attached to the canvas (they affect rendering,
    /// so byte-identical recovery must restore them).
    pub magnifiers: Vec<MagnifierView>,
}

/// One magnifying glass on a canvas.
#[derive(Debug, Clone, PartialEq)]
pub struct MagnifierView {
    /// Screen rectangle (x, y, w, h) in pixels.
    pub rect: (i64, i64, u64, u64),
    pub zoom: f64,
    pub slaved: bool,
    /// Fixed inner center when not slaved.
    pub center: (f64, f64),
    /// Optional alternative display attribute (Figure 9).
    pub display_attr: Option<String>,
}

/// One wormhole traversal on the travel stack.
#[derive(Debug, Clone, PartialEq)]
pub struct TravelView {
    pub canvas: String,
    pub center: (f64, f64),
    pub elevation: f64,
    pub entry_elevation: f64,
}

impl SessionEvent {
    /// Stable kind tag, used for `:watch` filtering and `sys.events`.
    pub fn kind(&self) -> &'static str {
        match self {
            SessionEvent::Edit { .. } => "edit",
            SessionEvent::Undo => "undo",
            SessionEvent::Redo => "redo",
            SessionEvent::Gesture { .. } => "gesture",
            SessionEvent::Render { .. } => "render",
            SessionEvent::Update { .. } => "update",
            SessionEvent::Config { .. } => "config",
            SessionEvent::Demand { .. } => "demand",
            SessionEvent::CacheInvalidation { .. } => "cache",
            SessionEvent::Snapshot(_) => "snapshot",
            SessionEvent::Lifecycle { .. } => "lifecycle",
        }
    }

    /// Does recovery re-apply this event when replaying the log tail?
    pub fn is_replayable(&self) -> bool {
        !matches!(
            self,
            SessionEvent::Demand { .. }
                | SessionEvent::CacheInvalidation { .. }
                | SessionEvent::Snapshot(_)
                | SessionEvent::Lifecycle { .. }
        )
    }

    /// One-line human summary for `:journal tail` / `:watch`.
    pub fn summary(&self) -> String {
        match self {
            SessionEvent::Edit { op, program } => {
                format!("edit {op} ({} bytes of program)", program.len())
            }
            SessionEvent::Undo => "undo".into(),
            SessionEvent::Redo => "redo".into(),
            SessionEvent::Gesture { gesture, canvas, args } => {
                format!("gesture {gesture} '{canvas}' [{}]", args.join(", "))
            }
            SessionEvent::Render { canvas } => format!("render '{canvas}'"),
            SessionEvent::Update { table, row_id, changes } => {
                format!("update '{table}' row {row_id} ({} fields)", changes.len())
            }
            SessionEvent::Config { key, value } => format!("config {key}={value}"),
            SessionEvent::Demand {
                demand_id,
                request_id,
                label,
                status,
                rows_out,
                wall_ns,
                ..
            } => {
                let req =
                    if *request_id != 0 { format!(" req={request_id}") } else { String::new() };
                format!("demand #{demand_id}{req} {label} {status} rows={rows_out} ns={wall_ns}")
            }
            SessionEvent::CacheInvalidation { scope, entries } => {
                format!("cache invalidate scope={scope} entries={entries}")
            }
            SessionEvent::Snapshot(s) => {
                format!("snapshot ({} tables, {} undo levels)", s.tables.len(), s.undo_past.len())
            }
            SessionEvent::Lifecycle { state, tenant } => format!("{state} (tenant {tenant})"),
        }
    }
}

// ----------------------------------------------------- minimal JSON

/// A JSON value — the dependency-free workspace hand-rolls the ~150
/// lines rather than pulling serde in.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => {
                if x.fract() == 0.0 && x.abs() < 9.0e15 {
                    out.push_str(&format!("{}", *x as i64));
                } else {
                    out.push_str(&format!("{x:?}"));
                }
            }
            Json::Str(s) => {
                out.push('"');
                out.push_str(&escape_json(s));
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&escape_json(k));
                    out.push_str("\":");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    pub(crate) fn to_text(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }

    pub(crate) fn parse(src: &str) -> Result<Json, String> {
        let mut p = JsonParser { chars: src.chars().peekable() };
        let v = p.value()?;
        p.skip_ws();
        if p.chars.peek().is_some() {
            return Err("trailing input after JSON value".into());
        }
        Ok(v)
    }

    fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn str_field(&self, key: &str) -> Result<String, String> {
        match self.get(key) {
            Some(Json::Str(s)) => Ok(s.clone()),
            _ => Err(format!("missing string field '{key}'")),
        }
    }

    fn num_field(&self, key: &str) -> Result<f64, String> {
        match self.get(key) {
            Some(Json::Num(x)) => Ok(*x),
            _ => Err(format!("missing numeric field '{key}'")),
        }
    }

    fn u64_field(&self, key: &str) -> Result<u64, String> {
        Ok(self.num_field(key)? as u64)
    }

    fn bool_field(&self, key: &str) -> Result<bool, String> {
        match self.get(key) {
            Some(Json::Bool(b)) => Ok(*b),
            _ => Err(format!("missing boolean field '{key}'")),
        }
    }

    fn arr_field<'a>(&'a self, key: &str) -> Result<&'a [Json], String> {
        match self.get(key) {
            Some(Json::Arr(items)) => Ok(items),
            _ => Err(format!("missing array field '{key}'")),
        }
    }

    fn as_str(&self) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(format!("expected string, got {}", other.to_text())),
        }
    }

    fn as_num(&self) -> Result<f64, String> {
        match self {
            Json::Num(x) => Ok(*x),
            other => Err(format!("expected number, got {}", other.to_text())),
        }
    }

    fn as_arr(&self) -> Result<&[Json], String> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(format!("expected array, got {}", other.to_text())),
        }
    }
}

struct JsonParser<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.chars.peek(), Some(c) if c.is_whitespace()) {
            self.chars.next();
        }
    }

    fn expect(&mut self, c: char) -> Result<(), String> {
        self.skip_ws();
        match self.chars.next() {
            Some(got) if got == c => Ok(()),
            other => Err(format!("expected '{c}', got {other:?}")),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        for expected in word.chars() {
            if self.chars.next() != Some(expected) {
                return Err(format!("bad literal (wanted '{word}')"));
            }
        }
        Ok(v)
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.chars.peek() {
            None => Err("unexpected end of JSON input".into()),
            Some('n') => self.literal("null", Json::Null),
            Some('t') => self.literal("true", Json::Bool(true)),
            Some('f') => self.literal("false", Json::Bool(false)),
            Some('"') => Ok(Json::Str(self.string()?)),
            Some('[') => {
                self.chars.next();
                let mut items = Vec::new();
                self.skip_ws();
                if self.chars.peek() == Some(&']') {
                    self.chars.next();
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.chars.next() {
                        Some(',') => continue,
                        Some(']') => return Ok(Json::Arr(items)),
                        other => return Err(format!("expected ',' or ']', got {other:?}")),
                    }
                }
            }
            Some('{') => {
                self.chars.next();
                let mut fields = Vec::new();
                self.skip_ws();
                if self.chars.peek() == Some(&'}') {
                    self.chars.next();
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.expect(':')?;
                    let v = self.value()?;
                    fields.push((key, v));
                    self.skip_ws();
                    match self.chars.next() {
                        Some(',') => continue,
                        Some('}') => return Ok(Json::Obj(fields)),
                        other => return Err(format!("expected ',' or '}}', got {other:?}")),
                    }
                }
            }
            Some(_) => {
                // Number.
                let mut text = String::new();
                while let Some(&c) = self.chars.peek() {
                    if c.is_ascii_digit() || "+-.eE".contains(c) {
                        text.push(c);
                        self.chars.next();
                    } else {
                        break;
                    }
                }
                text.parse::<f64>().map(Json::Num).map_err(|_| format!("bad number '{text}'"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        match self.chars.next() {
            Some('"') => {}
            other => return Err(format!("expected '\"', got {other:?}")),
        }
        let mut s = String::new();
        loop {
            match self.chars.next() {
                None => return Err("unclosed JSON string".into()),
                Some('"') => return Ok(s),
                Some('\\') => match self.chars.next() {
                    Some('"') => s.push('"'),
                    Some('\\') => s.push('\\'),
                    Some('/') => s.push('/'),
                    Some('n') => s.push('\n'),
                    Some('r') => s.push('\r'),
                    Some('t') => s.push('\t'),
                    Some('b') => s.push('\u{8}'),
                    Some('f') => s.push('\u{c}'),
                    Some('u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self
                                .chars
                                .next()
                                .and_then(|c| c.to_digit(16))
                                .ok_or("bad \\u escape")?;
                            code = code * 16 + d;
                        }
                        s.push(char::from_u32(code).ok_or("bad \\u code point")?);
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some(c) => s.push(c),
            }
        }
    }
}

// -------------------------------------------- event <-> JSON encoding

fn pairs_json(pairs: &[(String, String)]) -> Json {
    Json::Arr(
        pairs
            .iter()
            .map(|(a, b)| Json::Arr(vec![Json::Str(a.clone()), Json::Str(b.clone())]))
            .collect(),
    )
}

fn pairs_from(items: &[Json]) -> Result<Vec<(String, String)>, String> {
    items
        .iter()
        .map(|p| {
            let pair = p.as_arr()?;
            if pair.len() != 2 {
                return Err("expected a [a, b] pair".into());
            }
            Ok((pair[0].as_str()?.to_string(), pair[1].as_str()?.to_string()))
        })
        .collect()
}

fn strings_json(items: &[String]) -> Json {
    Json::Arr(items.iter().map(|s| Json::Str(s.clone())).collect())
}

fn strings_from(items: &[Json]) -> Result<Vec<String>, String> {
    items.iter().map(|s| Ok(s.as_str()?.to_string())).collect()
}

fn view_json(v: &ViewState) -> Json {
    let canvases = v
        .canvases
        .iter()
        .map(|c| {
            Json::Obj(vec![
                ("name".into(), Json::Str(c.name.clone())),
                ("fitted".into(), Json::Bool(c.fitted)),
                ("w".into(), Json::Num(c.size.0 as f64)),
                ("h".into(), Json::Num(c.size.1 as f64)),
                ("cx".into(), Json::Num(c.center.0)),
                ("cy".into(), Json::Num(c.center.1)),
                ("elevation".into(), Json::Num(c.elevation)),
                (
                    "sliders".into(),
                    Json::Arr(
                        c.sliders
                            .iter()
                            .map(|(d, lo, hi)| {
                                Json::Arr(vec![
                                    Json::Str(d.clone()),
                                    Json::Num(*lo),
                                    Json::Num(*hi),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "magnifiers".into(),
                    Json::Arr(
                        c.magnifiers
                            .iter()
                            .map(|m| {
                                Json::Obj(vec![
                                    ("x".into(), Json::Num(m.rect.0 as f64)),
                                    ("y".into(), Json::Num(m.rect.1 as f64)),
                                    ("w".into(), Json::Num(m.rect.2 as f64)),
                                    ("h".into(), Json::Num(m.rect.3 as f64)),
                                    ("zoom".into(), Json::Num(m.zoom)),
                                    ("slaved".into(), Json::Bool(m.slaved)),
                                    ("cx".into(), Json::Num(m.center.0)),
                                    ("cy".into(), Json::Num(m.center.1)),
                                    (
                                        "display".into(),
                                        match &m.display_attr {
                                            Some(d) => Json::Str(d.clone()),
                                            None => Json::Null,
                                        },
                                    ),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    let travels = v
        .travels
        .iter()
        .map(|t| {
            Json::Obj(vec![
                ("canvas".into(), Json::Str(t.canvas.clone())),
                ("cx".into(), Json::Num(t.center.0)),
                ("cy".into(), Json::Num(t.center.1)),
                ("elevation".into(), Json::Num(t.elevation)),
                ("entry".into(), Json::Num(t.entry_elevation)),
            ])
        })
        .collect();
    Json::Obj(vec![
        (
            "focus".into(),
            match &v.focus {
                Some(f) => Json::Str(f.clone()),
                None => Json::Null,
            },
        ),
        ("cw".into(), Json::Num(v.canvas_size.0 as f64)),
        ("ch".into(), Json::Num(v.canvas_size.1 as f64)),
        ("canvases".into(), Json::Arr(canvases)),
        ("slaves".into(), pairs_json(&v.slaves)),
        ("travels".into(), Json::Arr(travels)),
    ])
}

fn view_from(j: &Json) -> Result<ViewState, String> {
    let focus = match j.get("focus") {
        Some(Json::Str(s)) => Some(s.clone()),
        _ => None,
    };
    let mut canvases = Vec::new();
    for c in j.arr_field("canvases")? {
        let mut sliders = Vec::new();
        for s in c.arr_field("sliders")? {
            let t = s.as_arr()?;
            if t.len() != 3 {
                return Err("bad slider triple".into());
            }
            sliders.push((t[0].as_str()?.to_string(), t[1].as_num()?, t[2].as_num()?));
        }
        let mut magnifiers = Vec::new();
        for m in c.arr_field("magnifiers")? {
            magnifiers.push(MagnifierView {
                rect: (
                    m.num_field("x")? as i64,
                    m.num_field("y")? as i64,
                    m.u64_field("w")?,
                    m.u64_field("h")?,
                ),
                zoom: m.num_field("zoom")?,
                slaved: m.bool_field("slaved")?,
                center: (m.num_field("cx")?, m.num_field("cy")?),
                display_attr: match m.get("display") {
                    Some(Json::Str(s)) => Some(s.clone()),
                    _ => None,
                },
            });
        }
        canvases.push(CanvasView {
            name: c.str_field("name")?,
            fitted: c.bool_field("fitted")?,
            size: (c.u64_field("w")?, c.u64_field("h")?),
            center: (c.num_field("cx")?, c.num_field("cy")?),
            elevation: c.num_field("elevation")?,
            sliders,
            magnifiers,
        });
    }
    let mut travels = Vec::new();
    for t in j.arr_field("travels")? {
        travels.push(TravelView {
            canvas: t.str_field("canvas")?,
            center: (t.num_field("cx")?, t.num_field("cy")?),
            elevation: t.num_field("elevation")?,
            entry_elevation: t.num_field("entry")?,
        });
    }
    Ok(ViewState {
        focus,
        canvas_size: (j.u64_field("cw")?, j.u64_field("ch")?),
        canvases,
        slaves: pairs_from(j.arr_field("slaves")?)?,
        travels,
    })
}

fn event_json(seq: u64, ev: &SessionEvent) -> Json {
    let mut fields = vec![
        ("seq".to_string(), Json::Num(seq as f64)),
        ("kind".to_string(), Json::Str(ev.kind().to_string())),
    ];
    match ev {
        SessionEvent::Edit { op, program } => {
            fields.push(("op".into(), Json::Str(op.clone())));
            fields.push(("program".into(), Json::Str(program.clone())));
        }
        SessionEvent::Undo | SessionEvent::Redo => {}
        SessionEvent::Gesture { gesture, canvas, args } => {
            fields.push(("gesture".into(), Json::Str(gesture.clone())));
            fields.push(("canvas".into(), Json::Str(canvas.clone())));
            fields.push(("args".into(), strings_json(args)));
        }
        SessionEvent::Render { canvas } => {
            fields.push(("canvas".into(), Json::Str(canvas.clone())));
        }
        SessionEvent::Update { table, row_id, changes } => {
            fields.push(("table".into(), Json::Str(table.clone())));
            fields.push(("row".into(), Json::Num(*row_id as f64)));
            fields.push(("changes".into(), pairs_json(changes)));
        }
        SessionEvent::Config { key, value } => {
            fields.push(("key".into(), Json::Str(key.clone())));
            fields.push(("value".into(), Json::Str(value.clone())));
        }
        SessionEvent::Demand {
            demand_id,
            request_id,
            label,
            status,
            rows_out,
            wall_ns,
            threads,
            detail,
        } => {
            fields.push(("demand".into(), Json::Num(*demand_id as f64)));
            fields.push(("req".into(), Json::Num(*request_id as f64)));
            fields.push(("label".into(), Json::Str(label.clone())));
            fields.push(("status".into(), Json::Str(status.clone())));
            fields.push(("rows".into(), Json::Num(*rows_out as f64)));
            fields.push(("ns".into(), Json::Num(*wall_ns as f64)));
            fields.push(("threads".into(), Json::Num(*threads as f64)));
            fields.push(("detail".into(), Json::Str(detail.clone())));
        }
        SessionEvent::CacheInvalidation { scope, entries } => {
            fields.push(("scope".into(), Json::Str(scope.clone())));
            fields.push(("entries".into(), Json::Num(*entries as f64)));
        }
        SessionEvent::Snapshot(s) => {
            fields.push(("program".into(), Json::Str(s.program.clone())));
            fields.push(("tables".into(), pairs_json(&s.tables)));
            fields.push(("programs".into(), pairs_json(&s.programs)));
            fields.push(("undo_past".into(), strings_json(&s.undo_past)));
            fields.push(("undo_future".into(), strings_json(&s.undo_future)));
            fields.push(("view".into(), view_json(&s.view)));
        }
        SessionEvent::Lifecycle { state, tenant } => {
            fields.push(("state".into(), Json::Str(state.clone())));
            fields.push(("tenant".into(), Json::Str(tenant.clone())));
        }
    }
    Json::Obj(fields)
}

fn event_from(j: &Json) -> Result<(u64, SessionEvent), String> {
    let seq = j.u64_field("seq")?;
    let kind = j.str_field("kind")?;
    let ev = match kind.as_str() {
        "edit" => SessionEvent::Edit { op: j.str_field("op")?, program: j.str_field("program")? },
        "undo" => SessionEvent::Undo,
        "redo" => SessionEvent::Redo,
        "gesture" => SessionEvent::Gesture {
            gesture: j.str_field("gesture")?,
            canvas: j.str_field("canvas")?,
            args: strings_from(j.arr_field("args")?)?,
        },
        "render" => SessionEvent::Render { canvas: j.str_field("canvas")? },
        "update" => SessionEvent::Update {
            table: j.str_field("table")?,
            row_id: j.u64_field("row")?,
            changes: pairs_from(j.arr_field("changes")?)?,
        },
        "config" => SessionEvent::Config { key: j.str_field("key")?, value: j.str_field("value")? },
        "demand" => SessionEvent::Demand {
            demand_id: j.u64_field("demand")?,
            // Absent in journals written before request correlation
            // existed — decode those as "no request context".
            request_id: j.u64_field("req").unwrap_or(0),
            label: j.str_field("label")?,
            status: j.str_field("status")?,
            rows_out: j.u64_field("rows")?,
            wall_ns: j.u64_field("ns")?,
            threads: j.u64_field("threads")?,
            detail: j.str_field("detail")?,
        },
        "cache" => SessionEvent::CacheInvalidation {
            scope: j.str_field("scope")?,
            entries: j.u64_field("entries")?,
        },
        "snapshot" => SessionEvent::Snapshot(Box::new(SessionSnapshot {
            program: j.str_field("program")?,
            tables: pairs_from(j.arr_field("tables")?)?,
            programs: pairs_from(j.arr_field("programs")?)?,
            undo_past: strings_from(j.arr_field("undo_past")?)?,
            undo_future: strings_from(j.arr_field("undo_future")?)?,
            view: view_from(j.get("view").ok_or("missing 'view'")?)?,
        })),
        "lifecycle" => {
            SessionEvent::Lifecycle { state: j.str_field("state")?, tenant: j.str_field("tenant")? }
        }
        other => return Err(format!("unknown event kind '{other}'")),
    };
    Ok((seq, ev))
}

/// Serialize one event as its JSONL line (no trailing newline).
pub fn event_line(seq: u64, ev: &SessionEvent) -> String {
    event_json(seq, ev).to_text()
}

/// Parse one JSONL event line: the inverse of [`event_line`].
pub fn parse_event_line(line: &str) -> Result<(u64, SessionEvent), String> {
    event_from(&Json::parse(line)?)
}

/// The `(state, tenant)` of a lifecycle event line; `None` for any
/// other record and for one that does not decode (a torn tail).  Other
/// kinds are rejected on their encoded `kind` field without decoding,
/// so a liveness scan never parses snapshot or command records: the
/// encoding is compact, and a quote inside an encoded string is always
/// escaped, so the literal below occurs only as the kind itself.
pub fn lifecycle_of_line(line: &str) -> Option<(String, String)> {
    if !line.contains("\"kind\":\"lifecycle\"") {
        return None;
    }
    match parse_event_line(line.trim_end()) {
        Ok((_, SessionEvent::Lifecycle { state, tenant })) => Some((state, tenant)),
        _ => None,
    }
}

/// The JSONL header line for a fresh journal.
pub fn header_line() -> String {
    Json::Obj(vec![
        ("format".into(), Json::Str("tioga2-journal".into())),
        ("version".into(), Json::Num(JOURNAL_VERSION as f64)),
    ])
    .to_text()
}

/// Parse a serialized journal: header line + one event per line.
/// Blank lines are tolerated; an unknown format or version is rejected.
pub fn parse_jsonl(text: &str) -> Result<Vec<(u64, SessionEvent)>, String> {
    parse_journal(text, false).map(|(events, _)| events)
}

/// [`parse_jsonl`], but tolerant of a torn *final* record: a crash
/// (SIGKILL, power loss) mid-append leaves the last line truncated, and
/// recovery must not refuse the whole journal over it.  Returns the
/// parsed events plus whether a torn tail was dropped.  Corruption
/// anywhere before the final line is still a hard error — that is not a
/// crash signature, it is a damaged file.
pub fn parse_jsonl_recovering(text: &str) -> Result<(Vec<(u64, SessionEvent)>, bool), String> {
    parse_journal(text, true)
}

/// The one journal reader behind both entry points: with `drop_torn_tail`
/// an undecodable final line is dropped and reported as `true`, without
/// it every bad line is an error.
fn parse_journal(
    text: &str,
    drop_torn_tail: bool,
) -> Result<(Vec<(u64, SessionEvent)>, bool), String> {
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    let header = lines.first().ok_or("empty journal")?;
    let h = Json::parse(header).map_err(|e| format!("bad journal header: {e}"))?;
    if h.str_field("format").as_deref() != Ok("tioga2-journal") {
        return Err("not a tioga2 journal (bad format field)".into());
    }
    let version = h.u64_field("version").map_err(|e| format!("bad journal header: {e}"))?;
    if version != JOURNAL_VERSION {
        return Err(format!("unsupported journal version {version} (want {JOURNAL_VERSION})"));
    }
    let body = &lines[1..];
    let mut events = Vec::with_capacity(body.len());
    for (i, line) in body.iter().enumerate() {
        match parse_event_line(line) {
            Ok(ev) => events.push(ev),
            Err(_) if drop_torn_tail && i + 1 == body.len() => return Ok((events, true)),
            Err(e) => return Err(format!("journal line {}: {e}", i + 2)),
        }
    }
    Ok((events, false))
}

// ----------------------------------------------------------- EventLog

struct LogInner {
    events: std::collections::VecDeque<(u64, SessionEvent)>,
    next_seq: u64,
    capacity: usize,
    dropped: u64,
    enabled: bool,
    last_snapshot: Option<u64>,
    sink: Option<std::fs::File>,
    sink_path: Option<String>,
    /// fsync the sink after every appended event (durability-on-commit).
    fsync: bool,
    /// Monotonic fsync coordinate (the `journal.fsync` fault site's).
    syncs: u64,
    /// fsyncs that failed (injected fault or real IO error).
    sync_errors: u64,
}

/// A shared, thread-safe, append-only session event log.
///
/// Clones share the same underlying log (the session and its engine each
/// hold one).  The in-memory ring is bounded; an optional file sink
/// receives every event as a JSONL line regardless of the ring.
#[derive(Clone)]
pub struct EventLog {
    inner: Arc<Mutex<LogInner>>,
}

impl Default for EventLog {
    fn default() -> Self {
        Self::new()
    }
}

impl EventLog {
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_EVENT_CAPACITY)
    }

    pub fn with_capacity(capacity: usize) -> Self {
        EventLog {
            inner: Arc::new(Mutex::new(LogInner {
                events: std::collections::VecDeque::new(),
                next_seq: 1,
                capacity: capacity.max(1),
                dropped: 0,
                enabled: true,
                last_snapshot: None,
                sink: None,
                sink_path: None,
                fsync: false,
                syncs: 0,
                sync_errors: 0,
            })),
        }
    }

    /// Rebuild a log from serialized JSONL (recovery path).  The loaded
    /// events keep their sequence numbers; appends continue after them.
    pub fn from_jsonl(text: &str) -> Result<EventLog, String> {
        Self::adopt(parse_jsonl(text)?)
    }

    /// [`EventLog::from_jsonl`] with crash tolerance: a torn final line
    /// (the signature of a kill mid-append) is dropped instead of
    /// refusing the journal.  Returns whether a tail was dropped.
    pub fn from_jsonl_recovering(text: &str) -> Result<(EventLog, bool), String> {
        let (events, truncated) = parse_jsonl_recovering(text)?;
        Ok((Self::adopt(events)?, truncated))
    }

    fn adopt(events: Vec<(u64, SessionEvent)>) -> Result<EventLog, String> {
        let log = EventLog::new();
        {
            let mut inner = log.inner.lock();
            for (seq, ev) in events {
                if matches!(ev, SessionEvent::Snapshot(_)) {
                    inner.last_snapshot = Some(seq);
                }
                inner.next_seq = inner.next_seq.max(seq + 1);
                inner.events.push_back((seq, ev));
            }
        }
        Ok(log)
    }

    /// Append an event; returns its sequence number.  Returns `None`
    /// without recording when the log is disabled.
    pub fn append(&self, ev: SessionEvent) -> Option<u64> {
        let mut inner = self.inner.lock();
        if !inner.enabled {
            return None;
        }
        let seq = inner.next_seq;
        inner.next_seq += 1;
        if matches!(ev, SessionEvent::Snapshot(_)) {
            inner.last_snapshot = Some(seq);
        }
        if inner.sink.is_some() {
            use std::io::Write;
            let mut line = event_line(seq, &ev);
            line.push('\n');
            let fsync = inner.fsync;
            let coord = inner.syncs;
            let f = inner.sink.as_mut().unwrap();
            let _ = f.write_all(line.as_bytes());
            if fsync {
                // Durability-on-commit: the event is on stable storage
                // before the op that produced it reports success.  The
                // fault hook lets chaos runs fail (or die at) exactly
                // this point.
                inner.syncs += 1;
                match trip_io_fault("journal.fsync", coord) {
                    Ok(()) => {
                        if inner.sink.as_mut().unwrap().sync_data().is_err() {
                            inner.sync_errors += 1;
                        }
                    }
                    Err(_) => inner.sync_errors += 1,
                }
            }
        }
        inner.events.push_back((seq, ev));
        while inner.events.len() > inner.capacity {
            inner.events.pop_front();
            inner.dropped += 1;
        }
        Some(seq)
    }

    /// Turn fsync-on-commit on or off for the file sink.
    pub fn set_fsync(&self, on: bool) {
        self.inner.lock().fsync = on;
    }

    pub fn fsync_enabled(&self) -> bool {
        self.inner.lock().fsync
    }

    /// Flush and fsync the file sink now (drain / eviction path).  A
    /// no-op without a sink.  Trips the `journal.fsync` fault site.
    pub fn sync(&self) -> Result<(), String> {
        let mut inner = self.inner.lock();
        if inner.sink.is_none() {
            return Ok(());
        }
        let coord = inner.syncs;
        inner.syncs += 1;
        if let Err(e) = trip_io_fault("journal.fsync", coord) {
            inner.sync_errors += 1;
            return Err(e);
        }
        let res = {
            use std::io::Write;
            let f = inner.sink.as_mut().unwrap();
            f.flush().and_then(|()| f.sync_data())
        };
        match res {
            Ok(()) => Ok(()),
            Err(e) => {
                inner.sync_errors += 1;
                Err(e.to_string())
            }
        }
    }

    /// fsyncs that failed (injected `journal.fsync` faults or IO errors).
    pub fn sync_errors(&self) -> u64 {
        self.inner.lock().sync_errors
    }

    /// Total fsyncs attempted (the `journal.fsync` fault coordinate).
    pub fn syncs(&self) -> u64 {
        self.inner.lock().syncs
    }

    /// Enable or disable appends (recovery replays with the log
    /// disabled so replayed ops are not re-journaled).
    pub fn set_enabled(&self, on: bool) {
        self.inner.lock().enabled = on;
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.lock().enabled
    }

    /// Attach an append-only file sink.  A fresh (empty) file gets the
    /// JSONL header plus every event currently in the ring, so the file
    /// is a complete journal from the first write.
    pub fn attach_file(&self, path: &str) -> std::io::Result<()> {
        use std::io::Write;
        let mut inner = self.inner.lock();
        let existing = std::fs::metadata(path).map(|m| m.len() > 0).unwrap_or(false);
        let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        if !existing {
            let mut text = header_line();
            text.push('\n');
            for (seq, ev) in &inner.events {
                text.push_str(&event_line(*seq, ev));
                text.push('\n');
            }
            f.write_all(text.as_bytes())?;
        }
        inner.sink = Some(f);
        inner.sink_path = Some(path.to_string());
        Ok(())
    }

    pub fn sink_path(&self) -> Option<String> {
        self.inner.lock().sink_path.clone()
    }

    /// Number of events currently retained in the ring.
    pub fn len(&self) -> usize {
        self.inner.lock().events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.inner.lock().events.is_empty()
    }

    /// Events evicted from the bounded ring so far.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }

    /// Sequence number of the most recent event, if any.
    pub fn last_seq(&self) -> Option<u64> {
        self.inner.lock().events.back().map(|(s, _)| *s)
    }

    /// Sequence number of the most recent snapshot marker, if any.
    pub fn last_snapshot_seq(&self) -> Option<u64> {
        self.inner.lock().last_snapshot
    }

    /// All retained events (oldest first).
    pub fn events(&self) -> Vec<(u64, SessionEvent)> {
        self.inner.lock().events.iter().cloned().collect()
    }

    /// Events with sequence number strictly greater than `seq` — the
    /// `:watch` cursor API.
    pub fn events_since(&self, seq: u64) -> Vec<(u64, SessionEvent)> {
        self.inner.lock().events.iter().filter(|(s, _)| *s > seq).cloned().collect()
    }

    /// Serialize the retained events as a versioned JSONL document.
    pub fn to_jsonl(&self) -> String {
        let inner = self.inner.lock();
        let mut out = header_line();
        out.push('\n');
        for (seq, ev) in &inner.events {
            out.push_str(&event_line(*seq, ev));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<SessionEvent> {
        vec![
            SessionEvent::Edit {
                op: "restrict".into(),
                program: "TIOGA2-PROGRAM v1\n(graph (nodes) (edges))\n".into(),
            },
            SessionEvent::Undo,
            SessionEvent::Redo,
            SessionEvent::Gesture {
                gesture: "pan".into(),
                canvas: "main \"q\"".into(),
                args: vec!["3".into(), "-4".into()],
            },
            SessionEvent::Render { canvas: "main".into() },
            SessionEvent::Update {
                table: "Stations".into(),
                row_id: 7,
                changes: vec![("name".into(), "S:n\tx".into())],
            },
            SessionEvent::Config { key: "threads".into(), value: "2".into() },
            SessionEvent::Demand {
                demand_id: 3,
                request_id: 17,
                label: "Project.0".into(),
                status: "budget_exceeded".into(),
                rows_out: 0,
                wall_ns: 12_345,
                threads: 2,
                detail: "row budget exhausted".into(),
            },
            SessionEvent::CacheInvalidation { scope: "all".into(), entries: 12 },
            // Selective scopes carry the edited/refreshed table list so
            // replay can tell them from a full flush.
            SessionEvent::CacheInvalidation { scope: "Stations,sys.counters".into(), entries: 3 },
            SessionEvent::Lifecycle { state: "attached".into(), tenant: "acme \"q\"".into() },
            SessionEvent::Snapshot(Box::new(SessionSnapshot {
                program: "TIOGA2-PROGRAM v1\n(graph (nodes) (edges))\n".into(),
                tables: vec![("Stations".into(), "TIOGA2-RELATION v1\n...".into())],
                programs: vec![("fav".into(), "TIOGA2-PROGRAM v1\n...".into())],
                undo_past: vec!["TIOGA2-PROGRAM v1\np0\n".into()],
                undo_future: vec![],
                view: ViewState {
                    focus: Some("main".into()),
                    canvas_size: (640, 480),
                    canvases: vec![CanvasView {
                        name: "main".into(),
                        fitted: true,
                        size: (640, 480),
                        center: (1.5, -2.25),
                        elevation: 97.125,
                        sliders: vec![("alt".into(), 0.5, 9.75)],
                        magnifiers: vec![MagnifierView {
                            rect: (-4, 12, 80, 60),
                            zoom: 2.5,
                            slaved: false,
                            center: (0.25, -1.75),
                            display_attr: Some("precip".into()),
                        }],
                    }],
                    slaves: vec![("main".into(), "map".into())],
                    travels: vec![TravelView {
                        canvas: "main".into(),
                        center: (0.0, 0.0),
                        elevation: 100.0,
                        entry_elevation: 20.0,
                    }],
                },
            })),
        ]
    }

    #[test]
    fn events_roundtrip_through_jsonl() {
        let log = EventLog::new();
        for ev in sample_events() {
            log.append(ev);
        }
        let text = log.to_jsonl();
        let back = parse_jsonl(&text).unwrap();
        assert_eq!(back.len(), sample_events().len());
        for ((seq, ev), (i, expected)) in back.iter().zip(sample_events().iter().enumerate()) {
            assert_eq!(*seq, i as u64 + 1);
            assert_eq!(ev, expected);
        }
    }

    /// The liveness scan's kind filter must agree with the encoder: a
    /// change to the line format that hid lifecycle records would make
    /// every journal look dormant.
    #[test]
    fn lifecycle_of_line_recognizes_exactly_lifecycle_records() {
        for (i, ev) in sample_events().iter().enumerate() {
            let line = event_line(i as u64 + 1, ev);
            let expected = match ev {
                SessionEvent::Lifecycle { state, tenant } => Some((state.clone(), tenant.clone())),
                _ => None,
            };
            assert_eq!(lifecycle_of_line(&line), expected, "{line}");
        }
        let torn =
            event_line(9, &SessionEvent::Lifecycle { state: DETACHED.into(), tenant: "t".into() });
        assert_eq!(lifecycle_of_line(&torn[..torn.len() - 3]), None);
    }

    #[test]
    fn demand_events_without_req_field_decode_as_request_zero() {
        // Journals written before request-ID correlation carry no "req"
        // field; they must still load, defaulting to "no request".
        let line = format!(
            "{}\n{{\"seq\":1,\"kind\":\"demand\",\"demand\":4,\"label\":\"#1.0\",\
             \"status\":\"ok\",\"rows\":10,\"ns\":99,\"threads\":1,\"detail\":\"\"}}",
            header_line()
        );
        let back = parse_jsonl(&line).unwrap();
        match &back[0].1 {
            SessionEvent::Demand { demand_id, request_id, .. } => {
                assert_eq!(*demand_id, 4);
                assert_eq!(*request_id, 0);
            }
            other => panic!("wrong event: {other:?}"),
        }
    }

    #[test]
    fn from_jsonl_restores_cursor_state() {
        let log = EventLog::new();
        for ev in sample_events() {
            log.append(ev);
        }
        let restored = EventLog::from_jsonl(&log.to_jsonl()).unwrap();
        assert_eq!(restored.len(), log.len());
        assert_eq!(restored.last_seq(), log.last_seq());
        let snap_seq = sample_events().len() as u64; // snapshot is the last sample event
        assert_eq!(restored.last_snapshot_seq(), Some(snap_seq));
        // Appends continue after the loaded sequence numbers.
        let seq = restored.append(SessionEvent::Undo).unwrap();
        assert_eq!(Some(seq), restored.last_seq());
        assert!(seq > snap_seq);
    }

    #[test]
    fn recovering_parse_drops_torn_tail_only() {
        let log = EventLog::new();
        for ev in sample_events() {
            log.append(ev);
        }
        let text = log.to_jsonl();
        let n = sample_events().len();

        // Intact journal: everything parses, no truncation reported.
        let (events, torn) = parse_jsonl_recovering(&text).unwrap();
        assert_eq!(events.len(), n);
        assert!(!torn);

        // A crash mid-append tears the *final* line: drop it, recover
        // the rest, and report the truncation.
        let torn_tail = &text[..text.trim_end().len() - 10];
        let (events, torn) = parse_jsonl_recovering(torn_tail).unwrap();
        assert_eq!(events.len(), n - 1);
        assert!(torn);
        let (log2, torn) = EventLog::from_jsonl_recovering(torn_tail).unwrap();
        assert_eq!(log2.len(), n - 1);
        assert!(torn);

        // Corruption *before* the final line is not a crash signature —
        // still a hard error.
        let mut lines: Vec<&str> = text.trim_end().lines().collect();
        lines[2] = "{\"seq\":2,\"kind\":\"nope";
        let damaged = lines.join("\n");
        assert!(parse_jsonl_recovering(&damaged).is_err());
        // Strict parsing rejects the torn tail outright.
        assert!(parse_jsonl(torn_tail).is_err());
    }

    #[test]
    fn fsync_policy_counts_syncs_and_faults() {
        let path =
            std::env::temp_dir().join(format!("tioga2-fsync-test-{}.journal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let log = EventLog::new();
        log.attach_file(path.to_str().unwrap()).unwrap();
        assert!(!log.fsync_enabled());
        log.set_fsync(true);
        assert!(log.fsync_enabled());
        log.append(SessionEvent::Undo);
        log.append(SessionEvent::Redo);
        assert_eq!(log.syncs(), 2);
        assert_eq!(log.sync_errors(), 0);

        // An injected journal.fsync fault surfaces as a sync error on
        // the append path and a structured Err from explicit sync().
        set_io_fault_hook(Some(Arc::new(|site: &str, _coord: u64| {
            if site == "journal.fsync" {
                Err("injected fsync fault".to_string())
            } else {
                Ok(())
            }
        })));
        log.append(SessionEvent::Undo);
        assert_eq!(log.sync_errors(), 1);
        assert!(log.sync().unwrap_err().contains("injected"));
        assert_eq!(log.sync_errors(), 2);
        set_io_fault_hook(None);
        log.sync().unwrap();

        // The events all reached the file regardless of the fault.
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(parse_jsonl(&text).unwrap().len(), 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bad_journals_are_rejected() {
        assert!(parse_jsonl("").is_err());
        assert!(parse_jsonl("not json").is_err());
        assert!(parse_jsonl("{\"format\":\"other\",\"version\":1}").is_err());
        assert!(parse_jsonl("{\"format\":\"tioga2-journal\",\"version\":99}").is_err());
        let bad_line = format!("{}\n{{\"seq\":1,\"kind\":\"nope\"}}", header_line());
        assert!(parse_jsonl(&bad_line).is_err());
        let truncated = format!("{}\n{{\"seq\":1,\"kind\":\"edit\"}}", header_line());
        assert!(parse_jsonl(&truncated).is_err());
    }

    #[test]
    fn ring_bound_drops_oldest_and_counts() {
        let log = EventLog::with_capacity(3);
        for i in 0..5 {
            log.append(SessionEvent::Config { key: "k".into(), value: i.to_string() });
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.dropped(), 2);
        let evs = log.events();
        assert_eq!(evs.first().map(|(s, _)| *s), Some(3));
    }

    #[test]
    fn disabled_log_drops_appends() {
        let log = EventLog::new();
        log.set_enabled(false);
        assert_eq!(log.append(SessionEvent::Undo), None);
        assert!(log.is_empty());
        log.set_enabled(true);
        assert!(log.append(SessionEvent::Undo).is_some());
    }

    #[test]
    fn events_since_is_a_cursor() {
        let log = EventLog::new();
        for ev in sample_events() {
            log.append(ev);
        }
        let cursor = 4;
        let tail = log.events_since(cursor);
        assert_eq!(tail.first().map(|(s, _)| *s), Some(5));
        assert_eq!(tail.len(), log.len() - cursor as usize);
        assert!(log.events_since(u64::MAX).is_empty());
    }

    #[test]
    fn json_escaping_survives_awkward_strings() {
        let ev = SessionEvent::Edit {
            op: "quote \" backslash \\ newline \n tab \t control \u{1}".into(),
            program: "TIOGA2-PROGRAM v1\n(graph (nodes (0 (table \"A \\\"B\\\"\"))) (edges))\n"
                .into(),
        };
        let line = event_line(1, &ev);
        let j = Json::parse(&line).unwrap();
        let (seq, back) = event_from(&j).unwrap();
        assert_eq!(seq, 1);
        assert_eq!(back, ev);
    }

    #[test]
    fn file_sink_writes_complete_journal() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("tioga2_journal_test_{}.jsonl", std::process::id()));
        let path_s = path.to_string_lossy().to_string();
        let _ = std::fs::remove_file(&path);
        let log = EventLog::new();
        log.append(SessionEvent::Undo);
        log.attach_file(&path_s).unwrap();
        assert_eq!(log.sink_path().as_deref(), Some(path_s.as_str()));
        log.append(SessionEvent::Redo);
        let text = std::fs::read_to_string(&path).unwrap();
        let events = parse_jsonl(&text).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].1, SessionEvent::Undo);
        assert_eq!(events[1].1, SessionEvent::Redo);
        let _ = std::fs::remove_file(&path);
    }
}
