//! The command surface: one typed [`Command`] per paper operation.
//!
//! Historically the REPL owned both the parser and the dispatch bodies
//! (~1.2k lines of `match` in `src/repl.rs`), and the `:help` text was a
//! separate hand-maintained constant that drifted from the real grammar.
//! This module is the single source of truth for all three:
//!
//! * [`Command`] — the typed surface.  `parse` turns one line into a
//!   command, so any front end — the REPL, `tiogad`'s wire protocol, a
//!   script runner — speaks the same language.
//! * [`dispatch`] — executes one command against a [`Session`].  Errors
//!   are strings and never poison the session (edits roll back).
//! * [`COMMANDS`] — the spec table.  `help_text()` is generated from it,
//!   and each entry carries a canonical `example` that the tests parse,
//!   so the help text cannot drift from the grammar again.

use crate::{CoreError, Session};
use tioga2_dataflow::NodeId;
use tioga2_display::attr_ops::AttrRole;
use tioga2_display::compose::PartitionSpec;
use tioga2_display::{Layout, Selection};
use tioga2_expr::{ScalarType, Value};
use tioga2_relational::{AggFunc, AggSpec};

/// Outcome of one dispatched command.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Text to print (or frame back over the wire).
    Message(String),
    /// The client asked to leave.
    Quit,
}

/// Errors surface as strings; the session itself is never poisoned.
pub type CommandResult = Result<Response, String>;

/// `:budget` subcommands.  The spec is kept as its source string (it is
/// validated at parse time) so `Command` stays `PartialEq`.
#[derive(Debug, Clone, PartialEq)]
pub enum BudgetCmd {
    Show,
    Off,
    Set(String),
}

/// `:faults` subcommands.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultsCmd {
    Show,
    Off,
    Arm(String),
}

/// `:trace` subcommands.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceCmd {
    On,
    Off,
    Export(String),
    Prom(String),
    Folded(String),
}

/// `:slowlog` subcommands.
#[derive(Debug, Clone, PartialEq)]
pub enum SlowlogCmd {
    /// Show the armed state and every captured slow demand.
    Show,
    /// Disarm capture (entries are kept).
    Off,
    /// Arm at a millisecond threshold (0 captures every traced demand).
    Threshold(u64),
    /// Drop the captured entries.
    Clear,
}

/// `:journal` subcommands.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalCmd {
    Status,
    Tail(Option<usize>),
    Save(String),
    Snapshot,
    Recover(String),
}

/// `:watch` subcommands.
#[derive(Debug, Clone, PartialEq)]
pub enum WatchCmd {
    Show,
    Off,
    All,
    Kind(String),
}

/// `programs` subcommands (the bare form lists the library).
#[derive(Debug, Clone, PartialEq)]
pub enum ProgramsCmd {
    List,
    Export(String),
    Restore(String),
}

/// One REPL/wire command — every variant maps onto a `Session` method,
/// i.e. onto a paper operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    Quit,
    Help(Option<String>),
    Ops,
    Tables,
    Boxes,
    Programs(ProgramsCmd),
    AddTable { name: String },
    Restrict { node: NodeId, predicate: String },
    Project { node: NodeId, fields: Vec<String> },
    Sample { node: NodeId, p: f64, seed: u64 },
    Sort { node: NodeId, keys: Vec<(String, bool)> },
    Join { left: NodeId, right: NodeId, predicate: String },
    Switch { node: NodeId, predicate: String },
    Aggregate { node: NodeId, keys: Vec<String>, aggs: Vec<AggSpec> },
    Distinct { node: NodeId, attrs: Vec<String> },
    Limit { node: NodeId, offset: usize, count: usize },
    SetAttr { node: NodeId, name: String, ty: ScalarType, def: String },
    AddAttr { node: NodeId, name: String, ty: ScalarType, role: AttrRole, def: String },
    RmAttr { node: NodeId, name: String },
    SwapAttrs { node: NodeId, a: String, b: String },
    ScaleAttr { node: NodeId, attr: String, k: f64 },
    TranslateAttr { node: NodeId, attr: String, c: f64 },
    Combine { node: NodeId, a: String, b: String, dx: f64, dy: f64, new: String },
    SetRange { node: NodeId, lo: f64, hi: f64 },
    LayerName { node: NodeId, name: String },
    Overlay { bottom: NodeId, top: NodeId },
    Shuffle { node: NodeId, layer: usize },
    Stitch { members: Vec<NodeId>, layout: Layout },
    Replicate { node: NodeId, attr: String },
    Const { ty: String, text: String },
    SetConst { node: NodeId, ty: String, text: String },
    RestrictP { node: NodeId, params: Vec<(String, NodeId)>, predicate: String },
    Viewer { node: NodeId, canvas: String },
    CloneCanvas { canvas: String, new: String },
    Encapsulate { region: Vec<NodeId>, name: String, holes: Vec<Vec<NodeId>> },
    UseBox { name: String, inputs: Vec<NodeId> },
    Tee { node: NodeId, port: usize },
    Delete { node: NodeId },
    Candidates { node: NodeId },
    Show { node: NodeId, rows: Option<usize> },
    Program,
    Diagram { file: String },
    Render { canvas: String, file: Option<String> },
    ElevMap { canvas: String },
    CycleMap { canvas: String },
    Pan { canvas: String, dx: i32, dy: i32 },
    Zoom { canvas: String, factor: f64 },
    Slider { canvas: String, dim: String, lo: f64, hi: f64 },
    Slave { a: String, b: String },
    Unslave { a: String, b: String },
    Click { canvas: String, x: i32, y: i32 },
    Update { canvas: String, x: i32, y: i32, assigns: Vec<(String, String)> },
    Back,
    Undo,
    Redo,
    Save { name: String },
    Load { name: String },
    NewProgram,
    Explain { node: NodeId },
    ExplainAnalyze { node: NodeId },
    Sys,
    Stats,
    Threads(Option<usize>),
    Budget(BudgetCmd),
    Faults(FaultsCmd),
    Trace(TraceCmd),
    Slowlog(SlowlogCmd),
    Journal(JournalCmd),
    Rewind(Option<usize>),
    Replay(Option<usize>),
    Watch(WatchCmd),
}

/// One row of the command table: the grammar and the help line live
/// together so they cannot drift apart.
pub struct CommandSpec {
    /// The command word as typed.
    pub name: &'static str,
    /// Usage string shown by `help`.
    pub usage: &'static str,
    /// One-line summary (usually the paper operation's name).
    pub summary: &'static str,
    /// A canonical line that must parse to a `Command` (pinned by the
    /// parse tests).
    pub example: &'static str,
}

/// The full command table — `help_text()` and the parse tests both
/// derive from it.
pub const COMMANDS: &[CommandSpec] = &[
    CommandSpec {
        name: "tables",
        usage: "tables",
        summary: "menu of catalog tables",
        example: "tables",
    },
    CommandSpec {
        name: "boxes",
        usage: "boxes",
        summary: "menu of registry boxes",
        example: "boxes",
    },
    CommandSpec { name: "ops", usage: "ops", summary: "menu of paper operations", example: "ops" },
    CommandSpec {
        name: "help",
        usage: "help [op]",
        summary: "this text, or one operation's help",
        example: "help Overlay",
    },
    CommandSpec {
        name: "programs",
        usage: "programs [export <path> | restore <path>]",
        summary: "saved-program library",
        example: "programs export out/progs.t2p",
    },
    CommandSpec {
        name: "table",
        usage: "table <name>",
        summary: "Add Table",
        example: "table Stations",
    },
    CommandSpec {
        name: "restrict",
        usage: "restrict <node> <predicate>",
        summary: "Restrict",
        example: "restrict 0 state = 'LA'",
    },
    CommandSpec {
        name: "project",
        usage: "project <node> <f1,f2,...>",
        summary: "Project",
        example: "project 1 name,longitude,latitude",
    },
    CommandSpec {
        name: "sample",
        usage: "sample <node> <p> [seed]",
        summary: "Sample",
        example: "sample 0 0.25 42",
    },
    CommandSpec {
        name: "sort",
        usage: "sort <node> <attr[:desc],...>",
        summary: "Sort",
        example: "sort 0 altitude:desc,name",
    },
    CommandSpec {
        name: "join",
        usage: "join <left> <right> <predicate>",
        summary: "Join",
        example: "join 0 1 id = station_id",
    },
    CommandSpec {
        name: "switch",
        usage: "switch <node> <predicate>",
        summary: "Switch (2 outputs)",
        example: "switch 0 altitude > 100",
    },
    CommandSpec {
        name: "aggregate",
        usage: "aggregate <node> <k1,k2|-> <fn:attr:out,...>",
        summary: "Aggregate",
        example: "aggregate 0 station_id count:-:n,avg:temperature:mean",
    },
    CommandSpec {
        name: "distinct",
        usage: "distinct <node> [a1,a2,...]",
        summary: "Distinct",
        example: "distinct 0 state",
    },
    CommandSpec {
        name: "limit",
        usage: "limit <node> <offset> <count>",
        summary: "Limit",
        example: "limit 0 0 5",
    },
    CommandSpec {
        name: "setattr",
        usage: "setattr <node> <name> <type> <def>",
        summary: "Set Attribute",
        example: "setattr 0 flag bool altitude > 50",
    },
    CommandSpec {
        name: "addattr",
        usage: "addattr <node> <name> <type> <plain|location|display> <def>",
        summary: "Add Attribute",
        example: "addattr 0 high bool plain altitude > 50",
    },
    CommandSpec {
        name: "rmattr",
        usage: "rmattr <node> <name>",
        summary: "Remove Attribute",
        example: "rmattr 0 altitude",
    },
    CommandSpec {
        name: "swap",
        usage: "swap <node> <a> <b>",
        summary: "Swap Attributes",
        example: "swap 0 longitude latitude",
    },
    CommandSpec {
        name: "scale",
        usage: "scale <node> <attr> <k>",
        summary: "Scale Attribute",
        example: "scale 0 altitude 0.5",
    },
    CommandSpec {
        name: "translate",
        usage: "translate <node> <attr> <c>",
        summary: "Translate Attribute",
        example: "translate 0 altitude 10",
    },
    CommandSpec {
        name: "combine",
        usage: "combine <node> <a> <b> <dx> <dy> <new>",
        summary: "Combine Displays",
        example: "combine 0 shape label 4 4 glyph",
    },
    CommandSpec {
        name: "range",
        usage: "range <node> <min> <max>",
        summary: "Set Range",
        example: "range 0 0 1000",
    },
    CommandSpec {
        name: "layername",
        usage: "layername <node> <name>",
        summary: "Set Layer Name",
        example: "layername 0 stations",
    },
    CommandSpec {
        name: "overlay",
        usage: "overlay <bottom> <top>",
        summary: "Overlay (invariant mode)",
        example: "overlay 0 1",
    },
    CommandSpec {
        name: "shuffle",
        usage: "shuffle <node> <layer>",
        summary: "Shuffle",
        example: "shuffle 0 1",
    },
    CommandSpec {
        name: "stitch",
        usage: "stitch <n1,n2,...> <h|v|tab:k>",
        summary: "Stitch",
        example: "stitch 0,1 tab:2",
    },
    CommandSpec {
        name: "replicate",
        usage: "replicate <node> enum:<attr>",
        summary: "Replicate by enumerated type",
        example: "replicate 0 enum:state",
    },
    CommandSpec {
        name: "const",
        usage: "const <int|float|text> <value>",
        summary: "scalar parameter box",
        example: "const float 100.0",
    },
    CommandSpec {
        name: "setconst",
        usage: "setconst <node> <int|float|text> <v>",
        summary: "twiddle a parameter in place",
        example: "setconst 1 float 0.0",
    },
    CommandSpec {
        name: "restrictp",
        usage: "restrictp <node> <name=node,...> <predicate>",
        summary: "Restrict with parameters",
        example: "restrictp 0 cutoff=1 altitude > cutoff",
    },
    CommandSpec {
        name: "viewer",
        usage: "viewer <node> <canvas>",
        summary: "attach a canvas",
        example: "viewer 0 main",
    },
    CommandSpec {
        name: "clone",
        usage: "clone <canvas> <new>",
        summary: "clone a canvas",
        example: "clone main side",
    },
    CommandSpec {
        name: "tee",
        usage: "tee <node> <in_port>",
        summary: "T on the edge into a port",
        example: "tee 2 0",
    },
    CommandSpec {
        name: "encapsulate",
        usage: "encapsulate <n1,n2,...> <name> [hole:<n1,n2>]...",
        summary: "Encapsulate",
        example: "encapsulate 1,2 LaSorted hole:2",
    },
    CommandSpec {
        name: "usebox",
        usage: "usebox <name> <in1,in2,...>",
        summary: "instantiate a registry box",
        example: "usebox LaSorted 3",
    },
    CommandSpec {
        name: "delete",
        usage: "delete <node>",
        summary: "Delete Box",
        example: "delete 3",
    },
    CommandSpec {
        name: "candidates",
        usage: "candidates <node>",
        summary: "Apply Box menu for an edge",
        example: "candidates 0",
    },
    CommandSpec {
        name: "show",
        usage: "show <node> [rows]",
        summary: "ASCII table of a node's output",
        example: "show 1 5",
    },
    CommandSpec {
        name: "program",
        usage: "program",
        summary: "the program window (ASCII)",
        example: "program",
    },
    CommandSpec {
        name: "diagram",
        usage: "diagram <file>",
        summary: "program window as out/<file>.svg",
        example: "diagram fig1",
    },
    CommandSpec {
        name: "render",
        usage: "render <canvas> [file]",
        summary: "render; writes out/<file>.ppm",
        example: "render main fig1",
    },
    CommandSpec {
        name: "elevmap",
        usage: "elevmap <canvas>",
        summary: "the elevation map",
        example: "elevmap main",
    },
    CommandSpec {
        name: "cyclemap",
        usage: "cyclemap <canvas>",
        summary: "cycle a group's elevation map",
        example: "cyclemap main",
    },
    CommandSpec {
        name: "pan",
        usage: "pan <canvas> <dx> <dy>",
        summary: "pan the canvas",
        example: "pan main 3 -2",
    },
    CommandSpec {
        name: "zoom",
        usage: "zoom <canvas> <factor>",
        summary: "zoom (may cross a wormhole)",
        example: "zoom main 2.0",
    },
    CommandSpec {
        name: "slider",
        usage: "slider <canvas> <dim> <lo> <hi>",
        summary: "slide an invisible dimension",
        example: "slider main time 0 10",
    },
    CommandSpec {
        name: "slave",
        usage: "slave <a> <b>",
        summary: "slave canvas b to a",
        example: "slave main side",
    },
    CommandSpec {
        name: "unslave",
        usage: "unslave <a> <b>",
        summary: "unslave canvas b from a",
        example: "unslave main side",
    },
    CommandSpec {
        name: "click",
        usage: "click <canvas> <x> <y>",
        summary: "probe a pixel (provenance)",
        example: "click main 100 20",
    },
    CommandSpec {
        name: "update",
        usage: "update <canvas> <x> <y> <field>=<text> ...",
        summary: "update the clicked tuple (§8)",
        example: "update emps 100 20 salary=1234",
    },
    CommandSpec { name: "back", usage: "back", summary: "rear-view 'go home'", example: "back" },
    CommandSpec { name: "undo", usage: "undo", summary: "undo one edit", example: "undo" },
    CommandSpec { name: "redo", usage: "redo", summary: "redo one edit", example: "redo" },
    CommandSpec {
        name: "save",
        usage: "save <name>",
        summary: "Save Program",
        example: "save mine",
    },
    CommandSpec {
        name: "load",
        usage: "load <name>",
        summary: "load a saved program",
        example: "load mine",
    },
    CommandSpec { name: "new", usage: "new", summary: "start a fresh program", example: "new" },
    CommandSpec {
        name: ":explain",
        usage: ":explain [analyze] <node>",
        summary: "streaming plan + rewrites (analyze: execute too)",
        example: ":explain analyze 2",
    },
    CommandSpec {
        name: ":sys",
        usage: ":sys",
        summary: "refresh sys.* introspection tables",
        example: ":sys",
    },
    CommandSpec {
        name: ":stats",
        usage: ":stats",
        summary: "engine counters + trace summary",
        example: ":stats",
    },
    CommandSpec {
        name: ":threads",
        usage: ":threads [n]",
        summary: "show/set parallel plan workers",
        example: ":threads 2",
    },
    CommandSpec {
        name: ":budget",
        usage: ":budget [rows=<n>] [ms=<n>] | off",
        summary: "cap rows/wall-clock per demand",
        example: ":budget rows=500 ms=250",
    },
    CommandSpec {
        name: ":faults",
        usage: ":faults <site[:at][=err|panic],...> | off",
        summary: "arm deterministic fault injection",
        example: ":faults restrict:pull:3=err",
    },
    CommandSpec {
        name: ":trace",
        usage: ":trace on|off|export <p>|prom <p>|folded <p>",
        summary: "span/histogram collection + exports",
        example: ":trace export out/trace.json",
    },
    CommandSpec {
        name: ":slowlog",
        usage: ":slowlog [<ms>|off|clear]",
        summary: "slow-demand ring: show, arm threshold, disarm",
        example: ":slowlog 250",
    },
    CommandSpec {
        name: ":journal",
        usage: ":journal [tail [n]|save <p>|snapshot|recover <p>]",
        summary: "event-journal status and tools",
        example: ":journal tail 5",
    },
    CommandSpec {
        name: ":rewind",
        usage: ":rewind [n]",
        summary: "time-travel back over journaled edits",
        example: ":rewind 2",
    },
    CommandSpec {
        name: ":replay",
        usage: ":replay [n]",
        summary: "time-travel forward again",
        example: ":replay 2",
    },
    CommandSpec {
        name: ":watch",
        usage: ":watch [all|<kind>|off]",
        summary: "live-tail journal events by kind",
        example: ":watch demand",
    },
    CommandSpec {
        name: "quit",
        usage: "quit | exit",
        summary: "leave the session",
        example: "quit",
    },
];

/// The generated help text (header pinned by the REPL tests).
pub fn help_text() -> String {
    let mut out = String::from("Tioga-2 REPL — every command is one paper operation.\n");
    for spec in COMMANDS {
        out.push_str(&format!("  {:44} {}\n", spec.usage, spec.summary));
    }
    out.push_str("  (# starts a comment; blank lines are ignored)");
    out
}

fn node(tok: &str) -> Result<NodeId, String> {
    let t = tok.trim_start_matches('#');
    t.parse::<u32>().map(NodeId).map_err(|_| format!("'{tok}' is not a node id"))
}

fn node_list(tok: &str) -> Result<Vec<NodeId>, String> {
    tok.split(',').map(node).collect()
}

fn scalar_type(tok: &str) -> Result<ScalarType, String> {
    ScalarType::parse(tok).ok_or_else(|| format!("'{tok}' is not a type"))
}

fn layout(tok: &str) -> Result<Layout, String> {
    match tok {
        "h" | "horizontal" => Ok(Layout::Horizontal),
        "v" | "vertical" => Ok(Layout::Vertical),
        other => match other.strip_prefix("tab:") {
            Some(k) => k
                .parse()
                .map(|cols| Layout::Tabular { cols })
                .map_err(|_| format!("bad tabular column count in '{other}'")),
            None => Err(format!("'{other}' is not a layout (h, v, tab:<cols>)")),
        },
    }
}

fn attr_role(tok: &str) -> Result<AttrRole, String> {
    match tok {
        "plain" => Ok(AttrRole::Plain),
        "location" => Ok(AttrRole::Location),
        "display" => Ok(AttrRole::Display),
        other => Err(format!("'{other}' is not an attribute role")),
    }
}

fn const_type(tok: &str) -> Result<String, String> {
    match tok {
        "int" | "float" | "text" => Ok(tok.to_string()),
        other => Err(format!("'{other}' is not a const type (int, float, text)")),
    }
}

fn parse_const(ty: &str, text: &str) -> Result<Value, String> {
    match ty {
        "int" => text.trim().parse().map(Value::Int).map_err(|_| format!("'{text}' is not an int")),
        "float" => {
            text.trim().parse().map(Value::Float).map_err(|_| format!("'{text}' is not a float"))
        }
        "text" => Ok(Value::Text(text.trim_matches('\'').to_string())),
        other => Err(format!("'{other}' is not a const type (int, float, text)")),
    }
}

fn describe_budget(b: &tioga2_relational::Budget) -> String {
    let mut parts = Vec::new();
    if let Some(r) = b.row_cap {
        parts.push(format!("rows={r}"));
    }
    if let Some(ms) = b.wall_ms {
        parts.push(format!("ms={ms}"));
    }
    if parts.is_empty() {
        "unlimited".to_string()
    } else {
        parts.join(" ")
    }
}

fn err(e: CoreError) -> String {
    e.to_string()
}

impl Command {
    /// Parse one line.  `Ok(None)` for blank lines and comments; the
    /// grammar is exactly the table in [`COMMANDS`].
    pub fn parse(line: &str) -> Result<Option<Command>, String> {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            return Ok(None);
        }
        let mut parts = line.split_whitespace();
        let cmd = parts.next().unwrap_or("");
        let args: Vec<&str> = parts.collect();
        let rest = |from: usize| args[from..].join(" ");
        let need = |n: usize| -> Result<(), String> {
            if args.len() < n {
                Err(format!("'{cmd}' needs at least {n} argument(s); try 'help'"))
            } else {
                Ok(())
            }
        };

        let c = match cmd {
            "quit" | "exit" => Command::Quit,
            "help" => Command::Help(args.first().map(|s| s.to_string())),
            "ops" => Command::Ops,
            "tables" => Command::Tables,
            "boxes" => Command::Boxes,
            "programs" => match args.first() {
                None => Command::Programs(ProgramsCmd::List),
                Some(&"export") => {
                    need(2)?;
                    Command::Programs(ProgramsCmd::Export(args[1].to_string()))
                }
                Some(&"restore") => {
                    need(2)?;
                    Command::Programs(ProgramsCmd::Restore(args[1].to_string()))
                }
                Some(other) => {
                    return Err(format!(
                    "'programs {other}' is not a programs command (export <path>, restore <path>)"
                ))
                }
            },
            "table" => {
                need(1)?;
                Command::AddTable { name: args[0].to_string() }
            }
            "restrict" => {
                need(2)?;
                Command::Restrict { node: node(args[0])?, predicate: rest(1) }
            }
            "project" => {
                need(2)?;
                Command::Project {
                    node: node(args[0])?,
                    fields: args[1].split(',').map(str::to_string).collect(),
                }
            }
            "sample" => {
                need(2)?;
                let p: f64 = args[1].parse().map_err(|_| "bad probability".to_string())?;
                let seed: u64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(0);
                Command::Sample { node: node(args[0])?, p, seed }
            }
            "sort" => {
                need(2)?;
                let keys = args[1]
                    .split(',')
                    .map(|k| match k.strip_suffix(":desc") {
                        Some(a) => (a.to_string(), false),
                        None => (k.strip_suffix(":asc").unwrap_or(k).to_string(), true),
                    })
                    .collect();
                Command::Sort { node: node(args[0])?, keys }
            }
            "join" => {
                need(3)?;
                Command::Join { left: node(args[0])?, right: node(args[1])?, predicate: rest(2) }
            }
            "switch" => {
                need(2)?;
                Command::Switch { node: node(args[0])?, predicate: rest(1) }
            }
            "aggregate" => {
                need(3)?;
                let keys: Vec<String> = if args[1] == "-" {
                    vec![]
                } else {
                    args[1].split(',').map(str::to_string).collect()
                };
                let mut aggs = Vec::new();
                for spec in args[2].split(',') {
                    let mut it = spec.split(':');
                    let func = it
                        .next()
                        .and_then(AggFunc::parse)
                        .ok_or_else(|| format!("bad aggregate in '{spec}'"))?;
                    let attr = it.next().ok_or_else(|| format!("bad aggregate in '{spec}'"))?;
                    let out = it.next().ok_or_else(|| format!("bad aggregate in '{spec}'"))?;
                    aggs.push(AggSpec {
                        func,
                        attr: if attr == "-" { None } else { Some(attr.to_string()) },
                        output: out.to_string(),
                    });
                }
                Command::Aggregate { node: node(args[0])?, keys, aggs }
            }
            "distinct" => {
                need(1)?;
                let attrs = args
                    .get(1)
                    .map(|a| a.split(',').map(str::to_string).collect())
                    .unwrap_or_default();
                Command::Distinct { node: node(args[0])?, attrs }
            }
            "limit" => {
                need(3)?;
                Command::Limit {
                    node: node(args[0])?,
                    offset: args[1].parse().map_err(|_| "bad offset".to_string())?,
                    count: args[2].parse().map_err(|_| "bad count".to_string())?,
                }
            }
            "setattr" => {
                need(4)?;
                Command::SetAttr {
                    node: node(args[0])?,
                    name: args[1].to_string(),
                    ty: scalar_type(args[2])?,
                    def: rest(3),
                }
            }
            "addattr" => {
                need(5)?;
                Command::AddAttr {
                    node: node(args[0])?,
                    name: args[1].to_string(),
                    ty: scalar_type(args[2])?,
                    role: attr_role(args[3])?,
                    def: rest(4),
                }
            }
            "rmattr" => {
                need(2)?;
                Command::RmAttr { node: node(args[0])?, name: args[1].to_string() }
            }
            "swap" => {
                need(3)?;
                Command::SwapAttrs {
                    node: node(args[0])?,
                    a: args[1].to_string(),
                    b: args[2].to_string(),
                }
            }
            "scale" => {
                need(3)?;
                Command::ScaleAttr {
                    node: node(args[0])?,
                    attr: args[1].to_string(),
                    k: args[2].parse().map_err(|_| "bad factor".to_string())?,
                }
            }
            "translate" => {
                need(3)?;
                Command::TranslateAttr {
                    node: node(args[0])?,
                    attr: args[1].to_string(),
                    c: args[2].parse().map_err(|_| "bad offset".to_string())?,
                }
            }
            "combine" => {
                need(6)?;
                Command::Combine {
                    node: node(args[0])?,
                    a: args[1].to_string(),
                    b: args[2].to_string(),
                    dx: args[3].parse().map_err(|_| "bad dx".to_string())?,
                    dy: args[4].parse().map_err(|_| "bad dy".to_string())?,
                    new: args[5].to_string(),
                }
            }
            "range" => {
                need(3)?;
                Command::SetRange {
                    node: node(args[0])?,
                    lo: args[1].parse().map_err(|_| "bad min".to_string())?,
                    hi: args[2].parse().map_err(|_| "bad max".to_string())?,
                }
            }
            "layername" => {
                need(2)?;
                Command::LayerName { node: node(args[0])?, name: rest(1) }
            }
            "overlay" => {
                need(2)?;
                Command::Overlay { bottom: node(args[0])?, top: node(args[1])? }
            }
            "shuffle" => {
                need(2)?;
                Command::Shuffle {
                    node: node(args[0])?,
                    layer: args[1].parse().map_err(|_| "bad layer index".to_string())?,
                }
            }
            "stitch" => {
                need(2)?;
                Command::Stitch { members: node_list(args[0])?, layout: layout(args[1])? }
            }
            "replicate" => {
                need(2)?;
                match args[1].strip_prefix("enum:") {
                    Some(attr) => {
                        Command::Replicate { node: node(args[0])?, attr: attr.to_string() }
                    }
                    None => return Err("replicate currently takes enum:<attr>".to_string()),
                }
            }
            "const" => {
                need(2)?;
                Command::Const { ty: const_type(args[0])?, text: rest(1) }
            }
            "setconst" => {
                need(3)?;
                Command::SetConst { node: node(args[0])?, ty: const_type(args[1])?, text: rest(2) }
            }
            "restrictp" => {
                need(3)?;
                let mut params = Vec::new();
                for pair in args[1].split(',') {
                    let (name, src) =
                        pair.split_once('=').ok_or_else(|| format!("'{pair}' is not name=node"))?;
                    params.push((name.to_string(), node(src)?));
                }
                Command::RestrictP { node: node(args[0])?, params, predicate: rest(2) }
            }
            "viewer" => {
                need(2)?;
                Command::Viewer { node: node(args[0])?, canvas: args[1].to_string() }
            }
            "clone" => {
                need(2)?;
                Command::CloneCanvas { canvas: args[0].to_string(), new: args[1].to_string() }
            }
            "encapsulate" => {
                need(2)?;
                let region = node_list(args[0])?;
                let mut holes = Vec::new();
                for h in &args[2..] {
                    let ids = h
                        .strip_prefix("hole:")
                        .ok_or_else(|| format!("'{h}' is not hole:<nodes>"))?;
                    holes.push(node_list(ids)?);
                }
                Command::Encapsulate { region, name: args[1].to_string(), holes }
            }
            "usebox" => {
                need(1)?;
                let inputs = match args.get(1) {
                    Some(list) => node_list(list)?,
                    None => vec![],
                };
                Command::UseBox { name: args[0].to_string(), inputs }
            }
            "tee" => {
                need(2)?;
                Command::Tee {
                    node: node(args[0])?,
                    port: args[1].parse().map_err(|_| "bad port".to_string())?,
                }
            }
            "delete" => {
                need(1)?;
                Command::Delete { node: node(args[0])? }
            }
            "candidates" => {
                need(1)?;
                Command::Candidates { node: node(args[0])? }
            }
            "show" => {
                need(1)?;
                Command::Show {
                    node: node(args[0])?,
                    rows: args.get(1).and_then(|s| s.parse().ok()),
                }
            }
            "program" => Command::Program,
            "diagram" => {
                need(1)?;
                Command::Diagram { file: args[0].to_string() }
            }
            "render" => {
                need(1)?;
                Command::Render {
                    canvas: args[0].to_string(),
                    file: args.get(1).map(|s| s.to_string()),
                }
            }
            "elevmap" => {
                need(1)?;
                Command::ElevMap { canvas: args[0].to_string() }
            }
            "cyclemap" => {
                need(1)?;
                Command::CycleMap { canvas: args[0].to_string() }
            }
            "pan" => {
                need(3)?;
                Command::Pan {
                    canvas: args[0].to_string(),
                    dx: args[1].parse().map_err(|_| "bad dx".to_string())?,
                    dy: args[2].parse().map_err(|_| "bad dy".to_string())?,
                }
            }
            "zoom" => {
                need(2)?;
                Command::Zoom {
                    canvas: args[0].to_string(),
                    factor: args[1].parse().map_err(|_| "bad factor".to_string())?,
                }
            }
            "slider" => {
                need(4)?;
                Command::Slider {
                    canvas: args[0].to_string(),
                    dim: args[1].to_string(),
                    lo: args[2].parse().map_err(|_| "bad lo".to_string())?,
                    hi: args[3].parse().map_err(|_| "bad hi".to_string())?,
                }
            }
            "slave" => {
                need(2)?;
                Command::Slave { a: args[0].to_string(), b: args[1].to_string() }
            }
            "unslave" => {
                need(2)?;
                Command::Unslave { a: args[0].to_string(), b: args[1].to_string() }
            }
            "click" => {
                need(3)?;
                Command::Click {
                    canvas: args[0].to_string(),
                    x: args[1].parse().map_err(|_| "bad x".to_string())?,
                    y: args[2].parse().map_err(|_| "bad y".to_string())?,
                }
            }
            "update" => {
                need(4)?;
                let mut assigns = Vec::new();
                for assign in &args[3..] {
                    let (field, text) = assign
                        .split_once('=')
                        .ok_or_else(|| format!("'{assign}' is not field=text"))?;
                    assigns.push((field.to_string(), text.to_string()));
                }
                Command::Update {
                    canvas: args[0].to_string(),
                    x: args[1].parse().map_err(|_| "bad x".to_string())?,
                    y: args[2].parse().map_err(|_| "bad y".to_string())?,
                    assigns,
                }
            }
            "back" => Command::Back,
            "undo" => Command::Undo,
            "redo" => Command::Redo,
            "save" => {
                need(1)?;
                Command::Save { name: args[0].to_string() }
            }
            "load" => {
                need(1)?;
                Command::Load { name: args[0].to_string() }
            }
            "new" => Command::NewProgram,
            ":explain" | "explain" => {
                need(1)?;
                if args[0] == "analyze" {
                    need(2)?;
                    Command::ExplainAnalyze { node: node(args[1])? }
                } else {
                    Command::Explain { node: node(args[0])? }
                }
            }
            ":sys" | "sys" => Command::Sys,
            ":stats" | "stats" => Command::Stats,
            ":threads" | "threads" => match args.first() {
                None => Command::Threads(None),
                Some(tok) => Command::Threads(Some(
                    tok.parse()
                        .ok()
                        .filter(|&n: &usize| n >= 1)
                        .ok_or_else(|| format!("'{tok}' is not a thread count (>= 1)"))?,
                )),
            },
            ":budget" | "budget" => {
                if args.is_empty() {
                    Command::Budget(BudgetCmd::Show)
                } else if args[0] == "off" {
                    Command::Budget(BudgetCmd::Off)
                } else {
                    let spec = rest(0);
                    tioga2_relational::govern::parse_budget_spec(&spec)
                        .filter(|b| !b.is_empty())
                        .ok_or_else(|| {
                        format!(
                            "'{spec}' is not a budget; \
                                 try ':budget rows=<n> ms=<n>' or ':budget off'"
                        )
                    })?;
                    Command::Budget(BudgetCmd::Set(spec))
                }
            }
            ":faults" | "faults" => {
                if args.is_empty() {
                    Command::Faults(FaultsCmd::Show)
                } else if args[0] == "off" {
                    Command::Faults(FaultsCmd::Off)
                } else {
                    let spec = rest(0);
                    tioga2_relational::FaultPlan::parse(&spec)?;
                    Command::Faults(FaultsCmd::Arm(spec))
                }
            }
            ":trace" | "trace" => {
                need(1)?;
                match args[0] {
                    "on" => Command::Trace(TraceCmd::On),
                    "off" => Command::Trace(TraceCmd::Off),
                    "export" => {
                        need(2)?;
                        Command::Trace(TraceCmd::Export(args[1].to_string()))
                    }
                    "prom" => {
                        need(2)?;
                        Command::Trace(TraceCmd::Prom(args[1].to_string()))
                    }
                    "folded" => {
                        need(2)?;
                        Command::Trace(TraceCmd::Folded(args[1].to_string()))
                    }
                    other => {
                        return Err(format!(
                            "':trace {other}' is not a trace command \
                             (on, off, export <path>, prom <path>, folded <path>)"
                        ))
                    }
                }
            }
            ":slowlog" | "slowlog" => {
                if args.is_empty() {
                    Command::Slowlog(SlowlogCmd::Show)
                } else {
                    match args[0] {
                        "off" => Command::Slowlog(SlowlogCmd::Off),
                        "clear" => Command::Slowlog(SlowlogCmd::Clear),
                        ms => Command::Slowlog(SlowlogCmd::Threshold(ms.parse().map_err(
                            |_| format!("':slowlog {ms}': expected a millisecond threshold, 'off', or 'clear'"),
                        )?)),
                    }
                }
            }
            ":journal" | "journal" => {
                if args.is_empty() {
                    Command::Journal(JournalCmd::Status)
                } else {
                    match args[0] {
                        "tail" => Command::Journal(JournalCmd::Tail(
                            args.get(1).and_then(|s| s.parse().ok()),
                        )),
                        "save" => {
                            need(2)?;
                            Command::Journal(JournalCmd::Save(args[1].to_string()))
                        }
                        "snapshot" => Command::Journal(JournalCmd::Snapshot),
                        "recover" => {
                            need(2)?;
                            Command::Journal(JournalCmd::Recover(args[1].to_string()))
                        }
                        other => {
                            return Err(format!(
                                "':journal {other}' is not a journal command \
                                 (tail [n], save <path>, snapshot, recover <path>)"
                            ))
                        }
                    }
                }
            }
            ":rewind" | "rewind" => Command::Rewind(args.first().and_then(|s| s.parse().ok())),
            ":replay" | "replay" => Command::Replay(args.first().and_then(|s| s.parse().ok())),
            ":watch" | "watch" => {
                if args.is_empty() {
                    Command::Watch(WatchCmd::Show)
                } else {
                    match args[0] {
                        "off" => Command::Watch(WatchCmd::Off),
                        "all" => Command::Watch(WatchCmd::All),
                        kind => Command::Watch(WatchCmd::Kind(kind.to_string())),
                    }
                }
            }
            other => return Err(format!("unknown command '{other}'; try 'help'")),
        };
        Ok(Some(c))
    }

    /// Demand-class commands pull data through the engine (heavy); the
    /// server cancels a session's in-flight demand when a newer one
    /// arrives (§6 "a user gesture supersedes the previous one").
    pub fn is_demand(&self) -> bool {
        matches!(
            self,
            Command::Show { .. } | Command::Render { .. } | Command::ExplainAnalyze { .. }
        )
    }
}

/// Serialize the session's saved-program library as framed text
/// (`programs export`): a header line, then per program one
/// `program <name> <byte_len>` line followed by exactly that many bytes.
pub fn programs_to_text(session: &Session) -> String {
    let mut out = String::from("tioga2-programs v1\n");
    for (name, text) in session.env.programs_snapshot() {
        out.push_str(&format!("program {name} {}\n", text.len()));
        out.push_str(&text);
        out.push('\n');
    }
    out
}

/// Parse the `programs export` format back into `(name, text)` pairs.
pub fn programs_from_text(text: &str) -> Result<Vec<(String, String)>, String> {
    let mut rest = text
        .strip_prefix("tioga2-programs v1\n")
        .ok_or_else(|| "not a tioga2-programs file".to_string())?;
    let mut out = Vec::new();
    while !rest.is_empty() {
        let (header, body) =
            rest.split_once('\n').ok_or_else(|| "truncated program header".to_string())?;
        let mut it = header.split_whitespace();
        if it.next() != Some("program") {
            return Err(format!("bad program header '{header}'"));
        }
        let name = it.next().ok_or_else(|| "missing program name".to_string())?.to_string();
        let len: usize = it
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| "missing program length".to_string())?;
        if body.len() < len + 1 {
            return Err(format!("truncated program '{name}'"));
        }
        out.push((name, body[..len].to_string()));
        rest = &body[len + 1..];
    }
    Ok(out)
}

/// Execute one command against the session.
pub fn dispatch(session: &mut Session, cmd: &Command) -> CommandResult {
    let msg = |s: String| Ok(Response::Message(s));
    match cmd {
        Command::Quit => Ok(Response::Quit),
        Command::Help(None) => msg(help_text()),
        Command::Help(Some(op)) => match crate::menus::help(op) {
            Some(h) => msg(format!("{} ({}): {}", h.name, h.reference, h.help)),
            None => Err(format!("no operation named '{op}'")),
        },
        Command::Ops => msg(crate::menus::OPERATIONS
            .iter()
            .map(|o| format!("{:22} {}", o.name, o.reference))
            .collect::<Vec<_>>()
            .join("\n")),
        Command::Tables => msg(crate::menus::tables_menu(session).join("\n")),
        Command::Boxes => msg(crate::menus::boxes_menu(session).join("\n")),
        Command::Programs(ProgramsCmd::List) => msg(session.env.program_names().join("\n")),
        Command::Programs(ProgramsCmd::Export(path)) => {
            let text = programs_to_text(session);
            let n = session.env.program_names().len();
            std::fs::write(path, text).map_err(|e| e.to_string())?;
            msg(format!("{path} written ({n} program(s))"))
        }
        Command::Programs(ProgramsCmd::Restore(path)) => {
            let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
            let progs = programs_from_text(&text)?;
            let n = progs.len();
            for (name, text) in progs {
                session.env.restore_program_text(name, text);
            }
            // Snapshot so the restored library is durable in the journal
            // (recovery replays from the last snapshot).
            let seq = session.snapshot_now().map_err(err)?;
            msg(format!("{n} program(s) restored (snapshot #{seq})"))
        }
        Command::AddTable { name } => {
            let id = session.add_table(name).map_err(err)?;
            msg(format!("{id} = {name}"))
        }
        Command::Restrict { node, predicate } => {
            let id = session.restrict(*node, predicate).map_err(err)?;
            msg(format!("{id} = Restrict"))
        }
        Command::Project { node, fields } => {
            let fields: Vec<&str> = fields.iter().map(String::as_str).collect();
            let id = session.project(*node, &fields).map_err(err)?;
            msg(format!("{id} = Project"))
        }
        Command::Sample { node, p, seed } => {
            let id = session.sample(*node, *p, *seed).map_err(err)?;
            msg(format!("{id} = Sample({p})"))
        }
        Command::Sort { node, keys } => {
            let keys: Vec<(&str, bool)> = keys.iter().map(|(a, asc)| (a.as_str(), *asc)).collect();
            let id = session.sort(*node, &keys).map_err(err)?;
            msg(format!("{id} = Sort"))
        }
        Command::Join { left, right, predicate } => {
            let id = session.join(*left, *right, predicate).map_err(err)?;
            msg(format!("{id} = Join"))
        }
        Command::Switch { node, predicate } => {
            let id = session.switch(*node, predicate).map_err(err)?;
            msg(format!("{id} = Switch (outputs 0 = match, 1 = rest)"))
        }
        Command::Aggregate { node, keys, aggs } => {
            let keys: Vec<&str> = keys.iter().map(String::as_str).collect();
            let id = session.aggregate(*node, &keys, aggs.clone()).map_err(err)?;
            msg(format!("{id} = Aggregate"))
        }
        Command::Distinct { node, attrs } => {
            let attrs: Vec<&str> = attrs.iter().map(String::as_str).collect();
            let id = session.distinct(*node, &attrs).map_err(err)?;
            msg(format!("{id} = Distinct"))
        }
        Command::Limit { node, offset, count } => {
            let id = session.limit(*node, *offset, *count).map_err(err)?;
            msg(format!("{id} = Limit"))
        }
        Command::SetAttr { node, name, ty, def } => {
            let id = session.set_attribute(*node, name, ty.clone(), def).map_err(err)?;
            msg(format!("{id} = Set Attribute {name}"))
        }
        Command::AddAttr { node, name, ty, role, def } => {
            let id = session.add_attribute(*node, name, ty.clone(), def, *role).map_err(err)?;
            msg(format!("{id} = Add Attribute {name}"))
        }
        Command::RmAttr { node, name } => {
            let id = session.remove_attribute(*node, name).map_err(err)?;
            msg(format!("{id} = Remove Attribute"))
        }
        Command::SwapAttrs { node, a, b } => {
            let id = session.swap_attributes(*node, a, b).map_err(err)?;
            msg(format!("{id} = Swap Attributes"))
        }
        Command::ScaleAttr { node, attr, k } => {
            let id = session.scale_attribute(*node, attr, *k).map_err(err)?;
            msg(format!("{id} = Scale Attribute"))
        }
        Command::TranslateAttr { node, attr, c } => {
            let id = session.translate_attribute(*node, attr, *c).map_err(err)?;
            msg(format!("{id} = Translate Attribute"))
        }
        Command::Combine { node, a, b, dx, dy, new } => {
            let id = session.combine_displays(*node, a, b, (*dx, *dy), new).map_err(err)?;
            msg(format!("{id} = Combine Displays -> {new}"))
        }
        Command::SetRange { node, lo, hi } => {
            let id = session.set_range(*node, *lo, *hi, Selection::default()).map_err(err)?;
            msg(format!("{id} = Set Range [{lo}, {hi}]"))
        }
        Command::LayerName { node, name } => {
            let id = session.set_layer_name(*node, name).map_err(err)?;
            msg(format!("{id} = Set Layer Name"))
        }
        Command::Overlay { bottom, top } => {
            let id = session.overlay(*bottom, *top, vec![], true).map_err(err)?;
            msg(format!("{id} = Overlay"))
        }
        Command::Shuffle { node, layer } => {
            let id = session.shuffle(*node, *layer, Selection::default()).map_err(err)?;
            msg(format!("{id} = Shuffle"))
        }
        Command::Stitch { members, layout } => {
            let id = session.stitch(members, *layout).map_err(err)?;
            msg(format!("{id} = Stitch"))
        }
        Command::Replicate { node, attr } => {
            let spec = PartitionSpec::Enumerate(attr.clone());
            let id = session.replicate(*node, spec, None, Selection::default()).map_err(err)?;
            msg(format!("{id} = Replicate"))
        }
        Command::Const { ty, text } => {
            let v = parse_const(ty, text)?;
            let id = session.add_const(v).map_err(err)?;
            msg(format!("{id} = Const"))
        }
        Command::SetConst { node, ty, text } => {
            let v = parse_const(ty, text)?;
            session.set_const(*node, v).map_err(err)?;
            msg("parameter updated".to_string())
        }
        Command::RestrictP { node, params, predicate } => {
            let params: Vec<(&str, NodeId)> =
                params.iter().map(|(n, src)| (n.as_str(), *src)).collect();
            let id = session.restrict_with_params(*node, predicate, &params).map_err(err)?;
            msg(format!("{id} = Restrict(params)"))
        }
        Command::Viewer { node, canvas } => {
            let id = session.add_viewer(*node, canvas).map_err(err)?;
            msg(format!("{id} = Viewer[{canvas}]"))
        }
        Command::CloneCanvas { canvas, new } => {
            let id = session.clone_canvas(canvas, new).map_err(err)?;
            msg(format!("{id} = Viewer[{new}] (clone of {canvas})"))
        }
        Command::Encapsulate { region, name, holes } => {
            let holes: Vec<Vec<NodeId>> = holes.clone();
            let def = session.encapsulate(region, &holes, name).map_err(err)?;
            msg(format!(
                "registered '{}' ({} input(s), {} output(s), {} hole(s))",
                def.name,
                def.in_types.len(),
                def.out_types.len(),
                def.holes.len()
            ))
        }
        Command::UseBox { name, inputs } => {
            let template = session
                .env
                .registry
                .get(name)
                .ok_or_else(|| format!("no box named '{name}' in the registry"))?;
            let kind = template.kind.clone().ok_or_else(|| {
                format!(
                    "'{name}' needs parameters (or hole plugs); it cannot be instantiated directly"
                )
            })?;
            let id = session.add_box(kind).map_err(err)?;
            for (i, src) in inputs.iter().enumerate() {
                session.connect(*src, 0, id, i).map_err(err)?;
            }
            msg(format!("{id} = {name}"))
        }
        Command::Tee { node, port } => {
            let id = session.add_tee(*node, *port).map_err(err)?;
            msg(format!("{id} = T"))
        }
        Command::Delete { node } => {
            session.delete_box(*node).map_err(err)?;
            msg("deleted".to_string())
        }
        Command::Candidates { node } => {
            let cands = session.apply_box_candidates(&[(*node, 0)]).map_err(err)?;
            msg(cands.iter().map(|c| c.name.clone()).collect::<Vec<_>>().join("\n"))
        }
        Command::Show { node, rows } => {
            let rows = rows.unwrap_or(12);
            let d = session.demand(*node, 0).map_err(err)?;
            match d {
                tioga2_display::Displayable::R(dr) => {
                    msg(format!("{} tuples\n{}", dr.rel.len(), dr.rel.to_ascii_table(rows)))
                }
                other => msg(format!(
                    "{} displayable with {} tuples",
                    other.type_tag(),
                    other.tuple_count()
                )),
            }
        }
        Command::Program => msg(session.graph.to_ascii()),
        Command::Diagram { file } => {
            std::fs::create_dir_all("out").map_err(|e| e.to_string())?;
            let path = format!("out/{file}.svg");
            std::fs::write(&path, tioga2_dataflow::diagram::to_svg(&session.graph))
                .map_err(|e| e.to_string())?;
            msg(format!("{path} written"))
        }
        Command::Render { canvas, file } => {
            let frame = session.render(canvas).map_err(err)?;
            let file = file.as_deref().unwrap_or(canvas);
            std::fs::create_dir_all("out").map_err(|e| e.to_string())?;
            let path = format!("out/{file}.ppm");
            tioga2_render::ppm::write_ppm(&frame.fb, &path).map_err(|e| e.to_string())?;
            msg(format!(
                "{path}: {}x{} px, {} screen objects",
                frame.fb.width(),
                frame.fb.height(),
                frame.hits.len().max(frame.member_hits.iter().map(|h| h.len()).sum())
            ))
        }
        Command::ElevMap { canvas } => {
            let bars = session.elevation_map(canvas).map_err(err)?;
            msg(bars
                .iter()
                .map(|b| {
                    format!(
                        "[{}] {:20} {:>10.2}..{:<10.2} {}",
                        b.order,
                        b.layer_name,
                        b.range.min,
                        b.range.max,
                        if b.active { "ACTIVE" } else { "" }
                    )
                })
                .collect::<Vec<_>>()
                .join("\n"))
        }
        Command::CycleMap { canvas } => {
            let i = session.cycle_elevation_map(canvas).map_err(err)?;
            msg(format!("elevation map now shows member {i}"))
        }
        Command::Pan { canvas, dx, dy } => {
            session.pan(canvas, *dx, *dy).map_err(err)?;
            msg("ok".to_string())
        }
        Command::Zoom { canvas, factor } => match session.zoom(canvas, *factor).map_err(err)? {
            Some(dest) => msg(format!("passed through a wormhole to '{dest}'")),
            None => msg(format!(
                "elevation {:.4}",
                session.viewers.get(canvas).map_err(|e| e.to_string())?.position.elevation
            )),
        },
        Command::Slider { canvas, dim, lo, hi } => {
            session.set_slider(canvas, dim, *lo, *hi).map_err(err)?;
            msg("ok".to_string())
        }
        Command::Slave { a, b } => {
            session.slave(a, b).map_err(err)?;
            msg("slaved".to_string())
        }
        Command::Unslave { a, b } => {
            session.unslave(a, b).map_err(err)?;
            msg("unslaved".to_string())
        }
        Command::Click { canvas, x, y } => match session.click(canvas, *x, *y).map_err(err)? {
            Some(hit) => msg(format!(
                "{} from layer '{}' (row {}, table {:?})",
                hit.kind, hit.provenance.layer, hit.provenance.row_id, hit.provenance.source
            )),
            None => msg("nothing there".to_string()),
        },
        Command::Update { canvas, x, y, assigns } => {
            let mut dialog = session.begin_update(canvas, *x, *y).map_err(err)?;
            let mut changed = Vec::new();
            for (field, text) in assigns {
                dialog.set_field(field, text).map_err(err)?;
                changed.push(field.clone());
            }
            let table = dialog.table.clone();
            let row = dialog.row_id;
            dialog.commit(session).map_err(err)?;
            msg(format!("updated {} of {table} row {row}", changed.join(", ")))
        }
        Command::Back => {
            let home = session.go_back().map_err(err)?;
            msg(format!("back on '{home}'"))
        }
        Command::Undo => msg(if session.undo() { "undone" } else { "nothing to undo" }.to_string()),
        Command::Redo => msg(if session.redo() { "redone" } else { "nothing to redo" }.to_string()),
        Command::Save { name } => {
            session.save_program(name);
            msg(format!("saved '{name}'"))
        }
        Command::Load { name } => {
            session.load_program(name).map_err(err)?;
            msg(format!("loaded '{name}' ({} boxes)", session.graph.len()))
        }
        Command::NewProgram => {
            session.new_program();
            msg("new program".to_string())
        }
        Command::Explain { node } => {
            msg(session.explain(*node, 0).map_err(err)?.trim_end().to_string())
        }
        Command::ExplainAnalyze { node } => {
            msg(session.explain_analyze(*node, 0).map_err(err)?.trim_end().to_string())
        }
        Command::Sys => {
            let names = session.refresh_sys_tables().map_err(err)?;
            let mut out = Vec::new();
            for name in names {
                let rows = session.env.catalog.snapshot(&name).map(|r| r.len()).unwrap_or(0);
                out.push(format!("{name:16} {rows} tuple(s)"));
            }
            out.push("refreshed — demand them like any table ('table sys.demands')".to_string());
            msg(out.join("\n"))
        }
        Command::Stats => {
            let st = session.engine_stats();
            let mut out = format!(
                "engine: box_evals={} cache_hits={} rows_in={} rows_out={}",
                st.box_evals, st.cache_hits, st.rows_in, st.rows_out
            );
            match session.recorder().summary_table() {
                Some(table) => {
                    out.push('\n');
                    out.push_str(table.trim_end());
                }
                None => out.push_str("\ntracing off — ':trace on' collects spans and histograms"),
            }
            msg(out)
        }
        Command::Threads(None) => msg(format!("threads={}", session.threads())),
        Command::Threads(Some(n)) => {
            session.set_threads(*n);
            msg(format!("threads={n}"))
        }
        Command::Budget(BudgetCmd::Show) => match session.budget() {
            Some(b) => msg(format!("budget: {}", describe_budget(b))),
            None => msg("budget off".to_string()),
        },
        Command::Budget(BudgetCmd::Off) => {
            session.set_budget(None);
            msg("budget off".to_string())
        }
        Command::Budget(BudgetCmd::Set(spec)) => {
            let budget = tioga2_relational::govern::parse_budget_spec(spec)
                .filter(|b| !b.is_empty())
                .ok_or_else(|| {
                    format!(
                        "'{spec}' is not a budget; try ':budget rows=<n> ms=<n>' or ':budget off'"
                    )
                })?;
            session.set_budget(Some(budget.clone()));
            msg(format!("budget: {}", describe_budget(&budget)))
        }
        Command::Faults(FaultsCmd::Show) => match tioga2_relational::fault::current() {
            Some(p) => msg(format!(
                "faults armed: {} spec(s), {} injected",
                p.specs().len(),
                p.injected_count()
            )),
            None => msg("faults off".to_string()),
        },
        Command::Faults(FaultsCmd::Off) => {
            tioga2_relational::fault::install(None);
            msg("faults off".to_string())
        }
        Command::Faults(FaultsCmd::Arm(spec)) => {
            let plan = tioga2_relational::FaultPlan::parse(spec)?;
            let n = plan.specs().len();
            tioga2_relational::fault::install(Some(plan));
            msg(format!("faults armed: {n} spec(s)"))
        }
        Command::Trace(TraceCmd::On) => {
            session.set_recorder(std::sync::Arc::new(tioga2_obs::InMemoryRecorder::new()));
            msg("tracing on".to_string())
        }
        Command::Trace(TraceCmd::Off) => {
            session.set_recorder(tioga2_obs::noop());
            msg("tracing off".to_string())
        }
        Command::Trace(TraceCmd::Export(path)) => {
            let json = session
                .recorder()
                .chrome_trace_json()
                .ok_or_else(|| "tracing is off; ':trace on' first".to_string())?;
            std::fs::write(path, json).map_err(|e| e.to_string())?;
            msg(format!("{path} written — open in Perfetto (ui.perfetto.dev)"))
        }
        Command::Trace(TraceCmd::Prom(path)) => {
            let text = session
                .recorder()
                .prometheus_text()
                .ok_or_else(|| "tracing is off; ':trace on' first".to_string())?;
            std::fs::write(path, text).map_err(|e| e.to_string())?;
            msg(format!("{path} written"))
        }
        Command::Trace(TraceCmd::Folded(path)) => {
            let traces: Vec<tioga2_obs::DemandTrace> =
                session.demand_traces().iter().cloned().collect();
            if traces.is_empty() {
                return Err(
                    "no demand traces; ':explain analyze <node>' or ':trace on' first".to_string()
                );
            }
            let text = tioga2_obs::export::folded_stacks(&traces);
            std::fs::write(path, text).map_err(|e| e.to_string())?;
            msg(format!("{path} written ({} demand trace(s))", traces.len()))
        }
        Command::Slowlog(SlowlogCmd::Show) => msg(session.slowlog().render()),
        Command::Slowlog(SlowlogCmd::Off) => {
            session.slowlog().disarm();
            msg("slowlog off (captured entries kept; ':slowlog clear' drops them)".to_string())
        }
        Command::Slowlog(SlowlogCmd::Clear) => {
            session.slowlog().clear();
            msg("slowlog cleared".to_string())
        }
        Command::Slowlog(SlowlogCmd::Threshold(ms)) => {
            session.slowlog().arm_ms(*ms);
            msg(format!(
                "slowlog armed: demands over {ms} ms are captured (':sys' refreshes sys.slow)"
            ))
        }
        Command::Journal(JournalCmd::Status) => {
            let ev = session.events();
            let snap = ev
                .last_snapshot_seq()
                .map(|s| format!("#{s}"))
                .unwrap_or_else(|| "none".to_string());
            let sink = ev.sink_path().unwrap_or_else(|| "none".to_string());
            msg(format!(
                "journal: {} event(s), {} dropped, last snapshot {snap}, file sink {sink}",
                ev.len(),
                ev.dropped()
            ))
        }
        Command::Journal(JournalCmd::Tail(n)) => {
            let n = n.unwrap_or(10);
            let evs = session.events().events();
            let start = evs.len().saturating_sub(n);
            let lines: Vec<String> =
                evs[start..].iter().map(|(seq, e)| format!("#{seq:<5} {}", e.summary())).collect();
            msg(if lines.is_empty() { "journal empty".to_string() } else { lines.join("\n") })
        }
        Command::Journal(JournalCmd::Save(path)) => {
            std::fs::write(path, session.journal_text()).map_err(|e| e.to_string())?;
            msg(format!("{path} written ({} event(s))", session.events().len()))
        }
        Command::Journal(JournalCmd::Snapshot) => {
            let seq = session.snapshot_now().map_err(err)?;
            msg(format!("snapshot #{seq} (canvas + catalog + undo stacks)"))
        }
        Command::Journal(JournalCmd::Recover(path)) => {
            let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
            *session = Session::recover(&text).map_err(err)?;
            msg(format!(
                "recovered: {} box(es), {} canvas(es), {} journal event(s)",
                session.graph.len(),
                session.canvas_names().len(),
                session.events().len()
            ))
        }
        Command::Rewind(n) => {
            let done = session.rewind(n.unwrap_or(1));
            msg(format!("rewound {done} step(s) ({} box(es) now)", session.graph.len()))
        }
        Command::Replay(n) => {
            let done = session.replay_forward(n.unwrap_or(1));
            msg(format!("replayed {done} step(s) ({} box(es) now)", session.graph.len()))
        }
        Command::Watch(WatchCmd::Show) => match session.watch_filter() {
            Some("") => msg("watching all events".to_string()),
            Some(k) => msg(format!("watching '{k}' events")),
            None => {
                msg("watch off — ':watch all' or ':watch <kind>' tails the journal".to_string())
            }
        },
        Command::Watch(WatchCmd::Off) => {
            session.clear_watch();
            msg("watch off".to_string())
        }
        Command::Watch(WatchCmd::All) => {
            session.set_watch(Some(""));
            msg("watching all events".to_string())
        }
        Command::Watch(WatchCmd::Kind(kind)) => {
            session.set_watch(Some(kind));
            msg(format!("watching '{kind}' events"))
        }
    }
}

/// Parse + dispatch one line, then append the `:watch` live tail (new
/// journal events matching the filter interleave with normal output).
pub fn run_line(session: &mut Session, line: &str) -> CommandResult {
    let cmd = match Command::parse(line)? {
        None => return Ok(Response::Message(String::new())),
        Some(c) => c,
    };
    let result = dispatch(session, &cmd);
    match result {
        Ok(Response::Message(m)) if session.watch_filter().is_some() => {
            let tail: Vec<String> = session
                .drain_watch()
                .into_iter()
                .map(|(seq, e)| format!("[watch #{seq}] {}", e.summary()))
                .collect();
            if tail.is_empty() {
                Ok(Response::Message(m))
            } else if m.is_empty() {
                Ok(Response::Message(tail.join("\n")))
            } else {
                Ok(Response::Message(format!("{m}\n{}", tail.join("\n"))))
            }
        }
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Environment;
    use tioga2_relational::Catalog;

    #[test]
    fn every_spec_example_parses() {
        for spec in COMMANDS {
            Command::parse(spec.example)
                .unwrap_or_else(|e| panic!("example '{}' failed: {e}", spec.example))
                .unwrap_or_else(|| panic!("example '{}' parsed to nothing", spec.example));
        }
    }

    #[test]
    fn every_spec_example_starts_with_its_command_word() {
        for spec in COMMANDS {
            let first = spec.example.split_whitespace().next().unwrap();
            // `quit | exit` lists aliases; the example uses the primary.
            assert!(
                first == spec.name || spec.usage.contains(first),
                "example '{}' does not exercise '{}'",
                spec.example,
                spec.name
            );
        }
    }

    #[test]
    fn help_text_is_generated_from_the_table() {
        let help = help_text();
        assert!(help.contains("Tioga-2 REPL"));
        for spec in COMMANDS {
            assert!(help.contains(spec.usage), "usage '{}' missing from help", spec.usage);
            assert!(help.contains(spec.summary), "summary '{}' missing from help", spec.summary);
        }
    }

    #[test]
    fn variants_beyond_the_examples_parse() {
        // Optional fields, empty lists, and alias forms.
        for line in [
            "show 3",
            "show 3 20",
            "render main",
            "distinct 0",
            "usebox Thing",
            "sample 0 0.5",
            "aggregate 0 - count:-:n",
            "sort 0 a:asc,b:desc",
            "encapsulate 1,2 Name hole:3 hole:4,5",
            ":journal tail",
            ":rewind",
            ":replay 3",
            ":threads",
            ":budget",
            ":watch",
            "help",
            "programs",
        ] {
            assert!(
                matches!(Command::parse(line), Ok(Some(_))),
                "'{line}' did not parse to a command"
            );
        }
        // Colon-less aliases parse to the colon form's command.
        let explain = Ok(Some(Command::Explain { node: NodeId(3) }));
        assert_eq!(Command::parse("explain 3"), explain);
        assert_eq!(Command::parse(":explain 3"), explain);
        let c = Command::parse("exit").unwrap().unwrap();
        assert_eq!(c, Command::Quit);
    }

    #[test]
    fn parse_rejects_bad_input_early() {
        assert!(Command::parse("frobnicate").is_err());
        assert!(Command::parse("restrict zebra TRUE").is_err());
        assert!(Command::parse("const puppy 3").is_err());
        assert!(Command::parse(":budget zebras=9").is_err());
        assert!(Command::parse(":faults restrict:pull:=bogus").is_err());
        assert!(Command::parse(":threads 0").is_err());
        assert!(Command::parse(":trace sideways").is_err());
        assert!(Command::parse("table").is_err(), "missing args caught at parse time");
        assert_eq!(Command::parse("  # comment").unwrap(), None);
        assert_eq!(Command::parse("").unwrap(), None);
    }

    #[test]
    fn demand_classifier() {
        assert!(Command::parse("show 0").unwrap().unwrap().is_demand());
        assert!(Command::parse("render main").unwrap().unwrap().is_demand());
        assert!(Command::parse(":explain analyze 2").unwrap().unwrap().is_demand());
        assert!(!Command::parse("restrict 0 a > 1").unwrap().unwrap().is_demand());
        assert!(!Command::parse("pan main 1 1").unwrap().unwrap().is_demand());
    }

    #[test]
    fn slowlog_captures_demands_into_sys_slow() {
        let catalog = Catalog::new();
        tioga2_datagen::register_standard_catalog(&catalog, 20, 2, 3);
        let mut s = Session::new(Environment::new(catalog));
        // Threshold 0: every traced demand is "slow".
        run_line(&mut s, ":slowlog 0").unwrap();
        run_line(&mut s, "table Stations").unwrap();
        run_line(&mut s, "restrict 0 state = 'LA'").unwrap();
        run_line(&mut s, "show 1").unwrap();
        assert!(!s.slowlog().entries().is_empty(), "armed slowlog captured nothing");

        let text = match run_line(&mut s, ":slowlog").unwrap() {
            Response::Message(m) => m,
            other => panic!("{other:?}"),
        };
        assert!(text.contains("slowlog armed at 0 ms"), "{text}");
        assert!(text.contains("slow demand(s) captured"), "{text}");

        // The ring is an ordinary relation after a sys refresh.
        run_line(&mut s, ":sys").unwrap();
        run_line(&mut s, "table sys.slow").unwrap();
        let shown = match run_line(&mut s, "show 2").unwrap() {
            Response::Message(m) => m,
            other => panic!("{other:?}"),
        };
        assert!(shown.contains("request"), "{shown}");
        assert!(shown.contains("#1.0"), "{shown}");

        // Disarm, demand again on a fresh chain: nothing new captured.
        let before = s.slowlog().entries().len();
        run_line(&mut s, ":slowlog off").unwrap();
        run_line(&mut s, "restrict 0 altitude > 0").unwrap();
        run_line(&mut s, "show 3").unwrap();
        assert_eq!(s.slowlog().entries().len(), before);
        run_line(&mut s, ":slowlog clear").unwrap();
        assert!(s.slowlog().entries().is_empty());
    }

    #[test]
    fn programs_text_round_trips() {
        let catalog = Catalog::new();
        tioga2_datagen::register_standard_catalog(&catalog, 20, 2, 3);
        let mut s = Session::new(Environment::new(catalog));
        run_line(&mut s, "table Stations").unwrap();
        run_line(&mut s, "restrict 0 state = 'LA'").unwrap();
        run_line(&mut s, "save first").unwrap();
        run_line(&mut s, "new").unwrap();
        run_line(&mut s, "table Stations").unwrap();
        run_line(&mut s, "save second").unwrap();

        let text = programs_to_text(&s);
        let progs = programs_from_text(&text).unwrap();
        assert_eq!(progs.len(), 2);
        assert_eq!(progs[0].0, "first");
        assert_eq!(progs[1].0, "second");
        assert_eq!(progs, s.env.programs_snapshot());

        assert!(programs_from_text("garbage").is_err());
        assert!(programs_from_text("tioga2-programs v1\nprogram x 999\nshort\n").is_err());
    }

    #[test]
    fn programs_export_restore_via_dispatch() {
        let dir = std::env::temp_dir().join("tioga2_programs_cmd_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("library.t2p");
        let path = path.to_str().unwrap();

        let catalog = Catalog::new();
        tioga2_datagen::register_standard_catalog(&catalog, 20, 2, 3);
        let mut s = Session::new(Environment::new(catalog.clone()));
        run_line(&mut s, "table Stations").unwrap();
        run_line(&mut s, "save mine").unwrap();
        let m = match run_line(&mut s, &format!("programs export {path}")).unwrap() {
            Response::Message(m) => m,
            other => panic!("{other:?}"),
        };
        assert!(m.contains("1 program(s)"), "{m}");

        // A fresh session restores the library and can load from it.
        let mut t = Session::new(Environment::new(catalog));
        let m = match run_line(&mut t, &format!("programs restore {path}")).unwrap() {
            Response::Message(m) => m,
            other => panic!("{other:?}"),
        };
        assert!(m.contains("1 program(s) restored"), "{m}");
        run_line(&mut t, "load mine").unwrap();
        assert_eq!(t.graph.len(), 1);
    }
}
