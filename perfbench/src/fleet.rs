//! `fleet_edit`: `tiogad` on loopback TCP, started from this process
//! with `ServerHandle`, serving two clients in a closed loop.
//!
//! Each client attaches its own forked session and builds a
//! `Points → Restrict → Viewer` canvas.  Four in five interactions are a
//! pan or zoom followed by a frame request; one in five is a §8
//! `update <canvas> x y field=value` on a visible tuple (alternating the
//! payload field `mass` with a small move of the location `x`) followed
//! by a frame request.  It is the only workload that drives wire framing,
//! admission and per-session workers, journal append, copy-on-write
//! catalog forks and delta propagation.
//!
//! Frames are requested with `click` on a visible tuple rather than with
//! `render`: both verbs run `Session::render`, but `render` also writes
//! the frame as a 0.9 MB PPM file, and two clients doing that some fifty
//! times a second each made every latency follow the disk (on a 2-vCPU
//! virtual machine with an ext4 virtual disk, p95 varied by half between
//! runs).  The click reply doubles as the frame check: it must name an
//! object.
//!
//! The daemon runs with its default configuration (telemetry on), the
//! journal on and fsync off: fsync here would measure the host disk, not
//! the program.  Its working directory and journal directory are a fresh
//! scratch directory under the benchmark's `out/`.

use crate::gen::{self, round3, Gesture, GestureStream, Rng};
use crate::replay::{Replay, SINGLE_LAYERS};
use crate::report::{
    closed_loop, journal_replay, peak_rss_mb, push_layers, write_spans, Layers, LoopResult,
    Outcome, ScratchDir, Until, SETUPS,
};
use crate::stats::{median, Summary};
use crate::trace::Tracer;
use crate::Args;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use tioga2_core::command::run_line;
use tioga2_core::{Environment, Response, Session};
use tioga2_dataflow::NodeId;
use tioga2_relational::update::{install_update_delta, FieldChange};
use tioga2_relational::Catalog;
use tioga2_server::{Client, Server, ServerConfig, ServerHandle};
use tioga2_viewer::Viewer;

pub const FLEET_ROWS: usize = 30_000;
pub const CLIENTS: usize = 2;
/// Zoom applied after the fitted first frame: about a tenth of the
/// world's width is visible, some three hundred tuples.
const FLEET_ZOOM: f64 = 0.1;
/// Every fifth interaction is an edit.
const EDIT_EVERY: u64 = 5;
/// Interactions each client plays during set-up: all views, so the first
/// edit is a timed one and a replay started after set-up has seen every
/// write.
const WARMUP: u64 = EDIT_EVERY - 1;
/// Edit targets keep this many pixels away from the canvas edge.
const MARGIN: i32 = 8;
const TENANT: &str = "bench";

fn canvas(client: usize) -> String {
    format!("c{client}")
}

/// The program each client builds, one command per line.  Box ids are
/// 0 (table), 1 (restrict), 2 (viewer).
fn program(client: usize) -> Vec<String> {
    let c = canvas(client);
    vec![
        "table Points".into(),
        "restrict 0 mass >= 0.0".into(),
        format!("viewer 1 {c}"),
        format!("render {c}"),
        format!("zoom {c} {FLEET_ZOOM}"),
    ]
}
const VIEWER_NODE: NodeId = NodeId(2);

/// Something that answers command lines: the daemon over TCP, the
/// daemon's in-process admission path, or a bare session.
trait Endpoint {
    fn call(&mut self, line: &str) -> Result<String, String>;
}

struct Tcp(Client);

impl Endpoint for Tcp {
    fn call(&mut self, line: &str) -> Result<String, String> {
        self.0.run(line).map_err(|e| format!("wire: {e}"))?
    }
}

struct Admission {
    server: Arc<Server>,
    sid: String,
}

impl Endpoint for Admission {
    fn call(&mut self, line: &str) -> Result<String, String> {
        self.server.run(&self.sid, line).map(|(reply, _)| reply)
    }
}

struct Bare(Session);

impl Endpoint for Bare {
    fn call(&mut self, line: &str) -> Result<String, String> {
        match run_line(&mut self.0, line)? {
            Response::Message(m) => Ok(m),
            Response::Quit => Err("session quit".into()),
        }
    }
}

/// One interaction's two command lines.
struct Step {
    edit: bool,
    lines: [String; 2],
    /// Field and value an edit writes.
    write: Option<(&'static str, f64)>,
    /// Row the frame request aims at, and a request at another tuple to
    /// send instead should the edit land on (and move) that row.
    frame_row: usize,
    fallback: String,
}

/// A client's deterministic script.  It mirrors the canvas viewer and
/// the tuple locations so that edits and frame requests aim only at
/// pixels that hold a tuple, and remembers every acknowledged write for
/// the read-back check.
struct Script {
    canvas: String,
    gestures: GestureStream,
    rng: Rng,
    viewer: Viewer,
    /// Current (x, y) of every row, by row id.
    points: Vec<(f64, f64)>,
    /// Rows whose location an edit moved; frame requests avoid them.
    moved: BTreeSet<usize>,
    edits: u64,
    /// Last acknowledged value of each (row, field).
    expected: BTreeMap<(u64, &'static str), f64>,
}

impl Script {
    fn new(client: usize, seed: u64, viewer: &Viewer, rows: &[(f64, f64, f64)]) -> Script {
        let mut rng = Rng::new(seed.wrapping_add(1 + client as u64).wrapping_mul(0x9e37_79b9));
        Script {
            canvas: canvas(client),
            gestures: GestureStream::new(rng.fork(), 1280.0, (0.95, 1.05)),
            rng: rng.fork(),
            viewer: viewer.clone(),
            points: rows.iter().map(|&(x, y, _)| (x, y)).collect(),
            moved: BTreeSet::new(),
            edits: 0,
            expected: BTreeMap::new(),
        }
    }

    /// A random tuple inside the mirrored view (away from the edges),
    /// other than `except` and the moved rows, with its pixel.
    fn visible_tuple(&mut self, except: Option<usize>) -> Result<(usize, i32, i32), String> {
        let vp = self.viewer.viewport();
        let (w, h) = (self.viewer.size.0 as i32, self.viewer.size.1 as i32);
        let visible: Vec<(usize, i32, i32)> = self
            .points
            .iter()
            .enumerate()
            .filter(|(r, _)| Some(*r) != except && !self.moved.contains(r))
            .filter_map(|(r, &(x, y))| {
                let (px, py) = vp.to_screen(x, y);
                (px >= MARGIN && px < w - MARGIN && py >= MARGIN && py < h - MARGIN)
                    .then_some((r, px, py))
            })
            .collect();
        if visible.is_empty() {
            return Err("no visible tuple in the view".into());
        }
        Ok(visible[(self.rng.next_u64() % visible.len() as u64) as usize])
    }

    /// The next interaction: a gesture or an edit, then a frame request.
    /// The frame is asked for with `click` on a visible tuple: the verb
    /// renders the canvas exactly like `render` and hit-tests the new
    /// frame, so a reply naming no object is a blank or wrong frame.
    fn next(&mut self, i: u64) -> Result<Step, String> {
        let c = self.canvas.clone();
        let (first, edited, write) = if i % EDIT_EVERY == EDIT_EVERY - 1 {
            let (row, px, py) = self.visible_tuple(None)?;
            let write = if self.edits.is_multiple_of(2) {
                ("mass", round3(self.rng.unit() * 100.0))
            } else {
                ("x", round3(self.points[row].0 + (self.rng.unit() - 0.5) * 2.0))
            };
            self.edits += 1;
            (format!("update {c} {px} {py} {}={:.3}", write.0, write.1), Some(row), Some(write))
        } else {
            let line = match self.gestures.next_gesture() {
                Gesture::Pan(dx, dy) => {
                    self.viewer.pan_px(dx, dy);
                    format!("pan {c} {dx} {dy}")
                }
                Gesture::Zoom(f) => {
                    self.viewer.zoom(f);
                    format!("zoom {c} {f}")
                }
            };
            (line, None, None)
        };
        let (frame_row, px, py) = self.visible_tuple(edited)?;
        let frame = format!("click {c} {px} {py}");
        let (_, px, py) = self.visible_tuple(Some(frame_row))?;
        let fallback = format!("click {c} {px} {py}");
        Ok(Step { edit: write.is_some(), lines: [first, frame], write, frame_row, fallback })
    }

    /// Record an acknowledged update (`updated <f> of Points row <n>`).
    fn ack(&mut self, write: (&'static str, f64), reply: &str) -> Result<(), String> {
        let row =
            Script::row_of(reply).ok_or_else(|| format!("unexpected update reply '{reply}'"))?;
        self.expected.insert((row, write.0), write.1);
        if write.0 == "x" {
            let p = self.points.get_mut(row as usize).ok_or("update hit an unknown row")?;
            p.0 = write.1;
            self.moved.insert(row as usize);
        }
        Ok(())
    }

    /// The row an update reply names.
    fn row_of(reply: &str) -> Option<u64> {
        reply.rsplit(' ').next().and_then(|t| t.parse().ok())
    }
}

/// The (verb, ms) of an interaction's two command lines.
type LineTimes = [(&'static str, f64); 2];

/// Latencies of one client's loop.
#[derive(Default)]
struct ClientRun {
    run: LoopResult,
    edit_ms: Vec<f64>,
    /// Per interaction index: total ms and per-line (verb, ms).
    per: BTreeMap<u64, (f64, LineTimes)>,
    errors: Vec<String>,
}

/// The dispatch-metric class of a command line; `click` renders.
fn verb(line: &str) -> &'static str {
    match line.split(' ').next() {
        Some("click") => "render",
        Some("update") => "update",
        _ => "gesture",
    }
}

/// Play `script` against `ep` in a closed loop.  `after` runs outside
/// the clock once an interaction's replies are in.
fn drive<E: Endpoint>(
    ep: &mut E,
    script: &mut Script,
    until: Until,
    mut after: impl FnMut(&mut E, &Step, &[String], u64) -> Result<(), String>,
) -> ClientRun {
    let mut edit_ms = Vec::new();
    let mut per = BTreeMap::new();
    let (run, errors) = closed_loop(until, |i| {
        let mut step = script.next(i)?;
        let mut results: Vec<Result<String, String>> = Vec::with_capacity(2);
        let mut line_ms = [0.0; 2];
        let t0 = Instant::now();
        for (k, slot) in line_ms.iter_mut().enumerate() {
            if k == 1 && step.write.is_some() {
                // An update names the row it changed; a moved row may no
                // longer cover the pixel the frame request aims at.
                let hit = results[0].as_deref().ok().and_then(Script::row_of);
                if hit == Some(step.frame_row as u64) {
                    step.lines[1] = std::mem::take(&mut step.fallback);
                }
            }
            let t = Instant::now();
            let r = ep.call(&step.lines[k]);
            *slot = t.elapsed().as_secs_f64() * 1e3;
            let failed = r.is_err();
            results.push(r);
            if failed {
                break;
            }
        }
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if let (Some(write), Some(Ok(reply))) = (step.write, results.first()) {
            script.ack(write, reply)?;
        }
        let replies = results.into_iter().collect::<Result<Vec<_>, _>>()?;
        if replies[1] == "nothing there" {
            return Err(format!("blank frame: no object under '{}'", step.lines[1]));
        }
        after(ep, &step, &replies, i)?;
        if step.edit {
            edit_ms.push(ms);
        }
        per.insert(
            i,
            (ms, [(verb(&step.lines[0]), line_ms[0]), (verb(&step.lines[1]), line_ms[1])]),
        );
        Ok(ms)
    });
    ClientRun { run, edit_ms, per, errors }
}

/// Run `f` once per client input, each on its own thread, started
/// together.
fn per_client<I: Send, T: Send>(inputs: Vec<I>, f: impl Fn(usize, I) -> T + Sync) -> Vec<T> {
    let barrier = Barrier::new(inputs.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = inputs
            .into_iter()
            .enumerate()
            .map(|(c, input)| {
                let (f, barrier) = (&f, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    f(c, input)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    })
}

/// Restores the working directory when dropped.
struct Cwd(PathBuf);

impl Cwd {
    fn enter(dir: &Path) -> Result<Cwd, String> {
        let prev = std::env::current_dir().map_err(|e| e.to_string())?;
        std::env::set_current_dir(dir).map_err(|e| e.to_string())?;
        Ok(Cwd(prev))
    }
}

impl Drop for Cwd {
    fn drop(&mut self) {
        let _ = std::env::set_current_dir(&self.0);
    }
}

/// A running daemon and the inputs its scripts are built from.  Field
/// order is drop order: the daemon stops before its directory goes.
struct Fleet {
    handle: ServerHandle,
    journals: PathBuf,
    /// Fork of the base catalog kept by the benchmark.
    base: Catalog,
    rows: Vec<(f64, f64, f64)>,
    viewer: Viewer,
    seed: u64,
    _cwd: Cwd,
    _dir: ScratchDir,
}

impl Fleet {
    /// Data generation and daemon start (no sessions yet).
    fn start(seed: u64) -> Result<Fleet, String> {
        let dir = ScratchDir::new("fleet").map_err(|e| e.to_string())?;
        let cwd = Cwd::enter(dir.path())?;
        let rows = gen::points(FLEET_ROWS, &mut Rng::new(seed));
        let catalog = gen::points_catalog(&rows);
        let base = catalog.fork();
        // The scripts' view of the canvas: the same program on a local
        // fork, rendered once so the viewer is fitted exactly as the
        // daemon's sessions will be.
        let mut mirror = Bare(Session::new(Environment::new(catalog.fork())));
        for line in program(0) {
            mirror.call(&line)?;
        }
        let viewer = mirror.0.viewers.get(&canvas(0)).map_err(|e| e.to_string())?.clone();
        let journals = dir.path().join("journals");
        let cfg = ServerConfig {
            journal_dir: Some(journals.clone()),
            fsync: false,
            ..Default::default()
        };
        let handle = ServerHandle::start(catalog, cfg, "127.0.0.1:0").map_err(|e| e.to_string())?;
        Ok(Fleet { handle, journals, base, rows, viewer, seed, _cwd: cwd, _dir: dir })
    }

    fn script(&self, client: usize) -> Script {
        Script::new(client, self.seed, &self.viewer, &self.rows)
    }

    /// A client connected over TCP with its program built and warmed up.
    fn tcp_client(&self, client: usize) -> Result<(Tcp, Script), String> {
        let mut c = Client::connect(self.handle.addr()).map_err(|e| e.to_string())?;
        c.attach(None, Some(TENANT)).map_err(|e| e.to_string())??;
        self.prepare(Tcp(c), client)
    }

    /// A session on the daemon driven through `Server::run`, no socket.
    fn admission_client(&self, client: usize) -> Result<(Admission, Script), String> {
        let server = self.handle.server().clone();
        let sid = server.attach(None, TENANT)?;
        self.prepare(Admission { server, sid }, client)
    }

    /// A bare session over its own fork, set up like a daemon session
    /// with telemetry on.
    fn bare_client(&self, client: usize) -> Result<(Bare, Script), String> {
        let mut s = Session::new(Environment::new(self.base.fork()));
        s.set_recorder(Arc::new(tioga2_obs::InMemoryRecorder::new()));
        self.prepare(Bare(s), client)
    }

    /// Build the client's program and play the warm-up interactions.
    fn prepare<E: Endpoint>(&self, mut ep: E, client: usize) -> Result<(E, Script), String> {
        for line in program(client) {
            ep.call(&line)?;
        }
        let mut script = self.script(client);
        let warm = drive(&mut ep, &mut script, Until::Count(WARMUP), |_, _, _, _| Ok(()));
        if warm.run.failed > 0 {
            return Err(format!("warm-up failed: {:?}", warm.errors));
        }
        Ok((ep, script))
    }

    fn journal_bytes(&self) -> u64 {
        std::fs::read_dir(&self.journals)
            .map(|rd| {
                rd.filter_map(|e| e.ok())
                    .filter(|e| e.path().extension().is_some_and(|x| x == "jsonl"))
                    .filter_map(|e| e.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0)
    }

    /// Graceful drain, then stop; the manifest must record a clean
    /// shutdown.
    fn shutdown(mut self) -> Result<(), String> {
        self.handle.server().drain();
        self.handle.stop();
        match tioga2_obs::FleetManifest::load(&self.journals)? {
            Some(m) if m.clean_shutdown => Ok(()),
            Some(_) => Err("manifest does not record a clean shutdown".into()),
            None => Err("no manifest after drain".into()),
        }
    }
}

/// Output check: every acknowledged write reads back through `show`.
/// Returns the number of (row, field) values compared.
fn read_back<E: Endpoint>(ep: &mut E, script: &Script) -> Result<usize, String> {
    let table = ep.call(&format!("show 0 {}", FLEET_ROWS + 1))?;
    let mut lines = table.lines().skip(1);
    let header: Vec<&str> = lines.next().ok_or("empty show reply")?.split_whitespace().collect();
    let col = |name: &str| {
        header.iter().position(|h| *h == name).ok_or_else(|| format!("show has no column {name}"))
    };
    let (name_col, x_col, mass_col) = (col("name")?, col("x")?, col("mass")?);
    let mut actual: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
    for line in lines.skip(1) {
        let cells: Vec<&str> = line.split_whitespace().collect();
        let Some(row) = cells.get(name_col).and_then(|n| n.strip_prefix('p')?.parse().ok()) else {
            continue;
        };
        let num = |i: usize| cells.get(i).and_then(|v| v.parse::<f64>().ok());
        if let (Some(x), Some(m)) = (num(x_col), num(mass_col)) {
            actual.insert(row, (x, m));
        }
    }
    for (&(row, field), &want) in &script.expected {
        let (x, m) = actual.get(&row).ok_or_else(|| format!("row {row} missing from show"))?;
        let got = if field == "x" { *x } else { *m };
        if (got - want).abs() > 5e-4 {
            return Err(format!("row {row} {field}: wrote {want}, show reads {got}"));
        }
    }
    Ok(script.expected.len())
}

/// Sum of every sample of the Prometheus series whose name (up to the
/// label set) is `metric`.
fn scrape(text: &str, metric: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter(|l| {
            l.strip_prefix(metric)
                .is_some_and(|rest| rest.starts_with('{') || rest.starts_with(' '))
        })
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

fn merged(runs: &[ClientRun]) -> (LoopResult, Vec<f64>) {
    let mut all = LoopResult::default();
    let mut edits = Vec::new();
    for r in runs {
        all.merge(r.run.clone());
        edits.extend(&r.edit_ms);
    }
    (all, edits)
}

fn note_errors(out: &mut Outcome, runs: &[ClientRun]) {
    for (c, r) in runs.iter().enumerate() {
        for e in &r.errors {
            out.note(format!("client {c} failed {e}"));
        }
    }
}

type TcpClients = Vec<(Tcp, Script)>;

/// Daemon start, client attach, program build, first fitted frame and
/// warm-up.  Returns the daemon, its clients and the seconds it took.
fn timed_setup(seed: u64) -> Result<(Fleet, TcpClients, f64), String> {
    let t0 = Instant::now();
    let fleet = Fleet::start(seed)?;
    let clients = (0..CLIENTS).map(|c| fleet.tcp_client(c)).collect::<Result<Vec<_>, _>>()?;
    Ok((fleet, clients, t0.elapsed().as_secs_f64()))
}

pub fn sizes() -> String {
    format!(
        "Points rows={FLEET_ROWS}, clients={CLIENTS}, zoom={FLEET_ZOOM} of fit, \
         1 edit per {EDIT_EVERY} interactions, telemetry on, journal on, fsync off"
    )
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome { correct: true, ..Default::default() };
    out.note(format!("sizes: {}", sizes()));
    out.note(format!("loop: closed, {CLIENTS} clients over loopback TCP, no think time"));
    let secs = Duration::from_secs_f64(args.seconds);
    if args.trace {
        return traced(args, out);
    }
    let (fleet, clients, first_setup) = timed_setup(args.seed)?;
    let runs = per_client(clients, |_, (mut ep, mut script)| {
        let r = drive(&mut ep, &mut script, Until::For(secs), |_, _, _, _| Ok(()));
        (ep, script, r)
    });
    let mut results = Vec::new();
    for (mut ep, script, r) in runs {
        let checked = read_back(&mut ep, &script);
        out.check(checked.is_ok(), format!("read-back: {:?}", checked.as_ref().err()));
        if let Ok(n) = checked {
            out.note(format!("read-back: {n} acknowledged writes read back via show"));
        }
        results.push(r);
    }
    note_errors(&mut out, &results);
    let shut = fleet.shutdown();
    out.check(shut.is_ok(), format!("clean shutdown: {:?}", shut.err()));
    // The other set-ups run after the measurement: memory a torn-down
    // daemon leaves in the allocator would otherwise count toward the
    // measured run's peak.
    let peak_rss = peak_rss_mb();
    let mut setups = vec![first_setup];
    for _ in 1..SETUPS {
        let (fleet, clients, secs) = timed_setup(args.seed)?;
        setups.push(secs);
        drop(clients);
        let shut = fleet.shutdown();
        out.check(shut.is_ok(), format!("clean shutdown: {:?}", shut.err()));
    }
    let setup_s = median(&setups);
    let (all, edits) = merged(&results);
    let s = Summary::of(&all.samples);
    let e = Summary::of(&edits);
    out.attempted += all.attempted;
    out.failed += all.failed;
    out.correct &= all.failed == 0;
    out.check(s.tail_ok(), format!("only {} samples beyond p95", s.beyond_p95));
    out.note(format!(
        "interactions: {} ok of {} in {:.3} s; p50 n={} p95 n={} ({} beyond p95); \
         edits p50 {:.3} ms p95 {:.3} ms (n={})",
        all.samples.len(),
        all.attempted,
        all.elapsed.as_secs_f64(),
        s.n,
        s.n,
        s.beyond_p95,
        e.p50,
        e.p95,
        e.n
    ));
    out.push("setup_s", setup_s, "s");
    out.push("interaction_p50_ms", s.p50, "ms");
    out.push("interaction_p95_ms", s.p95, "ms");
    out.push("interactions_per_s", all.per_second(), "1/s");
    out.push("peak_rss_mb", peak_rss, "MiB");
    Ok(out)
}

/// The traced run: the same client scripts through three public entry
/// points — `Client::run` over TCP, `Server::run` (admission, no
/// socket) and `command::run_line` on a bare session — then a scrape of
/// the `metrics` verb.  Pairing interaction `i` of a client across the
/// three passes splits its latency into wire, admission and dispatch.
fn traced(args: &Args, mut out: Outcome) -> Result<Outcome, String> {
    let secs = Duration::from_secs_f64(args.seconds);
    let fleet = Fleet::start(args.seed)?;
    let untimed = |_: &mut Tcp, _: &Step, _: &[String], _: u64| Ok(());

    // Untraced reference, then the TCP pass.
    let clients = (0..CLIENTS).map(|c| fleet.tcp_client(c)).collect::<Result<Vec<_>, _>>()?;
    let reference = per_client(clients, |_, (mut ep, mut script)| {
        drive(&mut ep, &mut script, Until::For(secs.mul_f64(0.2)), untimed)
    });
    let clients = (0..CLIENTS).map(|c| fleet.tcp_client(c)).collect::<Result<Vec<_>, _>>()?;
    let bytes0 = fleet.journal_bytes();
    let wire = per_client(clients, |_, (mut ep, mut script)| {
        let r = drive(&mut ep, &mut script, Until::For(secs.mul_f64(0.25)), untimed);
        let checked = read_back(&mut ep, &script);
        (r, checked)
    });
    let bytes1 = fleet.journal_bytes();
    let mut wire_runs = Vec::new();
    for (r, checked) in wire {
        out.check(checked.is_ok(), format!("read-back: {:?}", checked.err()));
        wire_runs.push(r);
    }
    let counts: Vec<u64> = wire_runs.iter().map(|r| r.run.attempted).collect();

    // Admission pass: same scripts, same counts, no socket.
    let clients = (0..CLIENTS)
        .map(|c| fleet.admission_client(c).map(|p| (p, counts[c])))
        .collect::<Result<Vec<_>, _>>()?;
    let admission = per_client(clients, |_, ((mut ep, mut script), n)| {
        let r = drive(&mut ep, &mut script, Until::Count(n), |_, _, _, _| Ok(()));
        (r, read_back(&mut ep, &script))
    });
    let admission: Vec<ClientRun> = admission
        .into_iter()
        .map(|(r, checked)| {
            out.check(checked.is_ok(), format!("read-back: {:?}", checked.err()));
            r
        })
        .collect();

    // Dispatch pass on bare sessions, with the layer replay after each
    // frame and every edit mirrored onto a benchmark-owned fork.
    let clients = (0..CLIENTS)
        .map(|c| fleet.bare_client(c).map(|p| (p, counts[c])))
        .collect::<Result<Vec<_>, _>>()?;
    let bare = per_client(clients, |c, ((ep, script), n)| bare_pass(&fleet.base, c, ep, script, n));
    for b in &bare {
        out.check(b.read_back.is_ok(), format!("read-back: {:?}", b.read_back.as_ref().err()));
    }

    // Metrics scrape, then a clean shutdown.
    let mut probe = Client::connect(fleet.handle.addr()).map_err(|e| e.to_string())?;
    let metrics = probe.run("metrics").map_err(|e| e.to_string())??;
    drop(probe);
    let refused = scrape(&metrics, "tioga2_daemon_admissions_refused_total")
        + scrape(&metrics, "tioga2_daemon_queue_full_total");
    let applied = scrape(&metrics, "tioga2_fleet_plan_delta_applied");
    let fallback = scrape(&metrics, "tioga2_fleet_plan_delta_fallback");
    let shut = fleet.shutdown();
    out.check(shut.is_ok(), format!("clean shutdown: {:?}", shut.err()));

    // Pair each command line across the passes: TCP − admission is the
    // wire, admission − bare dispatch is admission and the session
    // worker hand-off.  The layer metrics use the pan/zoom lines, whose
    // dispatch is tens of microseconds, so the differences are not
    // buried in frame-time noise; every verb's median is printed.
    let mut wire: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut admit: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut dispatch: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for c in 0..CLIENTS {
        for (i, (_, a)) in &wire_runs[c].per {
            let (Some((_, b)), Some((_, d))) = (admission[c].per.get(i), bare[c].run.per.get(i))
            else {
                continue;
            };
            for k in 0..2 {
                let verb = a[k].0;
                wire.entry(verb).or_default().push(a[k].1 - b[k].1);
                admit.entry(verb).or_default().push(b[k].1 - d[k].1);
                dispatch.entry(verb).or_default().push(d[k].1);
            }
        }
    }
    let by_verb = |m: &BTreeMap<&str, Vec<f64>>, verb: &str| m.get(verb).map_or(0.0, |v| median(v));
    for verb in ["gesture", "update", "render"] {
        out.note(format!(
            "{verb} lines: wire {:.4} ms, admission {:.4} ms, dispatch {:.4} ms (n={})",
            by_verb(&wire, verb),
            by_verb(&admit, verb),
            by_verb(&dispatch, verb),
            dispatch.get(verb).map_or(0, Vec::len)
        ));
    }
    let (reference_all, edits) = merged(&reference);
    let (wire_all, _) = merged(&wire_runs);
    note_errors(&mut out, &reference);
    note_errors(&mut out, &wire_runs);
    note_errors(&mut out, &admission);
    let bare_runs: Vec<ClientRun> = bare
        .iter()
        .map(|b| ClientRun {
            run: b.run.run.clone(),
            errors: b.run.errors.clone(),
            ..Default::default()
        })
        .collect();
    note_errors(&mut out, &bare_runs);
    let mismatches: u64 = bare.iter().map(|b| b.mismatches).sum();
    for runs in [&reference, &wire_runs, &admission, &bare_runs] {
        let (all, _) = merged(runs);
        out.attempted += all.attempted;
        out.failed += all.failed;
    }
    out.correct &= out.failed == 0 && mismatches == 0;

    // Layers from the bare pass: per-interaction sums over both clients.
    let mut layer: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut unattributed = Vec::new();
    for BarePass { run, tracer, .. } in &bare {
        let named: Vec<_> = SINGLE_LAYERS.iter().map(|l| tracer.per_interaction_ms(l)).collect();
        for (name, m) in SINGLE_LAYERS.iter().zip(&named) {
            layer.entry(name).or_default().extend(m.values());
        }
        for name in ["relational.install_update", "dataflow.apply_delta"] {
            layer.entry(name).or_default().extend(tracer.per_interaction_ms(name).values());
        }
        for (i, (_, lines)) in &run.per {
            let render = lines[1].1;
            let sum: f64 = named.iter().map(|m| m.get(i).copied().unwrap_or(0.0)).sum();
            unattributed.push(render - sum);
        }
    }
    let med = |name: &str| layer.get(name).map_or(0.0, |v| median(v));
    let items_per_row: Vec<f64> = bare.iter().flat_map(|b| b.items_per_row.clone()).collect();
    let examined: Vec<f64> = bare.iter().flat_map(|b| b.examined_per_out.clone()).collect();
    let memo: Vec<f64> = bare.iter().map(|b| b.memo_hit_ratio).collect();
    let events: u64 = bare.iter().map(|b| b.workload_events).sum();
    let bare_n: f64 = bare.iter().map(|b| b.run.run.samples.len()).sum::<usize>().max(1) as f64;
    let dir = ScratchDir::new("journal").map_err(|e| e.to_string())?;
    let all_events: Vec<_> = bare.iter().flat_map(|b| b.events.clone()).collect();
    let (append_us, _) = journal_replay(&all_events, dir.path())?;
    let e = Summary::of(&edits);
    let wire_p50 = Summary::of(&wire_all.samples).p50;
    let ref_p50 = Summary::of(&reference_all.samples).p50;
    out.note(format!(
        "passes: reference {} / tcp {} / admission {} / bare {} interactions; \
         {mismatches} replay mismatches; {} paired",
        reference_all.samples.len(),
        wire_all.samples.len(),
        merged(&admission).0.samples.len(),
        bare_n,
        dispatch.get("render").map_or(0, Vec::len)
    ));
    out.note("fleet: core.render_ms is the bare session's `click` dispatch (render + hit test)");
    for (c, b) in bare.iter().enumerate() {
        write_spans(&b.tracer, args, &format!("-client{c}"), &mut out);
    }

    push_layers(
        &mut out,
        Layers {
            demand_ms: med("dataflow.demand"),
            rows_examined_per_row_out: median(&examined),
            memo_hit_ratio: median(&memo),
            items_per_row_demanded: median(&items_per_row),
            window_predicate_us: med("viewer.window_predicate") * 1e3,
            into_composite_us: med("display.into_composite") * 1e3,
            compose_ms: med("viewer.compose"),
            draw_ms: med("render.draw"),
            render_ms: by_verb(&dispatch, "render"),
            unattributed_ms: median(&unattributed),
            dispatch_render_ms: by_verb(&dispatch, "render"),
            dispatch_update_ms: by_verb(&dispatch, "update"),
            dispatch_gesture_us: by_verb(&dispatch, "gesture") * 1e3,
            admission_ms: by_verb(&admit, "gesture"),
            wire_ms: by_verb(&wire, "gesture"),
            refused,
            install_update_us: med("relational.install_update") * 1e3,
            apply_delta_us: med("dataflow.apply_delta") * 1e3,
            delta_applied_ratio: applied / (applied + fallback).max(1.0),
            journal_append_us: append_us,
            events_per_interaction: events as f64 / bare_n,
            journal_bytes_per_interaction: (bytes1 - bytes0) as f64
                / wire_all.samples.len().max(1) as f64,
            edit_p50_ms: e.p50,
            edit_p95_ms: e.p95,
            tracing_overhead: wire_p50 / ref_p50,
            ..Layers::default()
        },
    );
    Ok(out)
}

/// What the dispatch pass measured for one client.
struct BarePass {
    run: ClientRun,
    tracer: Tracer,
    mismatches: u64,
    /// Journal events the session appended during the timed loop, and
    /// how many of them the interactions themselves caused.
    events: Vec<(u64, tioga2_obs::SessionEvent)>,
    workload_events: u64,
    items_per_row: Vec<f64>,
    examined_per_out: Vec<f64>,
    memo_hit_ratio: f64,
    read_back: Result<usize, String>,
}

/// Play `n` interactions through `run_line` on a bare session.  After
/// each frame (outside the clock) every edit is mirrored onto a
/// benchmark-owned fork — timing `install_update_delta` and
/// `Engine::apply_delta` — and the frame is replayed layer by layer on
/// an engine over that fork, which must reproduce `Session::render` byte
/// for byte.
fn bare_pass(base: &Catalog, client: usize, mut ep: Bare, mut script: Script, n: u64) -> BarePass {
    let shadow = base.fork();
    let mut replay = Replay::new(shadow.clone());
    let mut tracer = Tracer::default();
    let mut mismatches = 0u64;
    let mut check_events = 0u64;
    let (mut items_per_row, mut examined_per_out) = (Vec::new(), Vec::new());
    let stats0 = ep.0.engine_stats();
    let seq0 = ep.0.events().last_seq().unwrap_or(0);
    let canvas = canvas(client);
    let run = drive(&mut ep, &mut script, Until::Count(n), |ep, step, replies, i| {
        tracer.set_interaction(i);
        if let (Some((field, value)), Some(row)) = (step.write, Script::row_of(&replies[0])) {
            // The value exactly as the update line spelled it.
            let value = format!("{value:.3}").parse::<f64>().map_err(|e| e.to_string())?;
            let change =
                FieldChange { field: field.into(), value: tioga2_expr::Value::Float(value) };
            let span = tracer.begin("relational.install_update");
            let delta = install_update_delta(&shadow, "Points", row, &[change]);
            tracer.end(span);
            let delta = delta.map_err(|e| e.to_string())?;
            let span = tracer.begin("dataflow.apply_delta");
            replay.engine_mut().apply_delta(&ep.0.graph, &delta);
            tracer.end(span);
        }
        let replayed = replay.frame(&mut tracer, &mut ep.0, &canvas, VIEWER_NODE)?;
        // The frame `click` drew, rendered again for the comparison; its
        // journal events are not the workload's.
        let seq = ep.0.events().last_seq().unwrap_or(0);
        let fb = ep.0.render(&canvas).map_err(|e| e.to_string())?.fb;
        check_events += ep.0.events().last_seq().unwrap_or(0) - seq;
        if replayed.fb != fb {
            mismatches += 1;
            return Err("replayed frame differs from Session::render".into());
        }
        if replayed.rows > 0 {
            items_per_row.push(replayed.items as f64 / replayed.rows as f64);
        }
        if let Some((examined, emitted)) = replayed.examined {
            examined_per_out.push(examined as f64 / emitted.max(1) as f64);
        }
        Ok(())
    });
    let stats1 = ep.0.engine_stats();
    let hits = (stats1.cache_hits - stats0.cache_hits) as f64;
    let evals = (stats1.box_evals - stats0.box_evals) as f64;
    let events = ep.0.events().events_since(seq0);
    let workload_events = events.len() as u64 - check_events;
    let read_back = read_back(&mut ep, &script);
    BarePass {
        run,
        tracer,
        mismatches,
        events,
        workload_events,
        items_per_row,
        examined_per_out,
        memo_hit_ratio: hits / (hits + evals).max(1.0),
        read_back,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Answers each call with the next scripted reply.
    struct Scripted(std::collections::VecDeque<Result<String, String>>);

    impl Endpoint for Scripted {
        fn call(&mut self, _line: &str) -> Result<String, String> {
            self.0.pop_front().unwrap_or_else(|| Err("script exhausted".into()))
        }
    }

    fn hit() -> Result<String, String> {
        Ok("point from layer 'Points' (row 0, table Some(\"Points\"))".to_string())
    }

    #[test]
    fn refused_admission_and_blank_frame_count_as_failed() {
        let replies = vec![
            Ok("ok".to_string()),
            hit(),
            Err("admission denied: server is at max_sessions=64".to_string()),
            Ok("ok".to_string()),
            Ok("nothing there".to_string()),
            Ok("ok".to_string()),
            hit(),
        ];
        let mut ep = Scripted(replies.into_iter().collect());
        let viewer = Viewer::new("c0", 640, 480);
        let mut script = Script::new(0, 1, &viewer, &[(0.0, 0.0, 1.0), (1.0, 1.0, 2.0)]);
        let r = drive(&mut ep, &mut script, Until::Count(4), |_, _, _, _| Ok(()));
        assert_eq!(r.run.attempted, 4);
        assert_eq!(r.run.failed, 2, "{:?}", r.errors);
        assert_eq!(r.run.samples.len(), 2);
        assert!(r.errors.iter().any(|e| e.contains("admission denied")));
        assert!(r.errors.iter().any(|e| e.contains("blank frame")));
    }

    #[test]
    fn scrape_sums_every_labelled_series() {
        let text = "# TYPE tioga2_fleet_plan_delta_applied counter\n\
                    tioga2_fleet_plan_delta_applied{tenant=\"a\",session=\"s1\"} 3\n\
                    tioga2_fleet_plan_delta_applied{tenant=\"a\",session=\"s2\"} 4\n\
                    tioga2_fleet_plan_delta_applied_rows{tenant=\"a\",session=\"s2\"} 9\n\
                    tioga2_daemon_queue_full_total 2\n";
        assert_eq!(scrape(text, "tioga2_fleet_plan_delta_applied"), 7.0);
        assert_eq!(scrape(text, "tioga2_daemon_queue_full_total"), 2.0);
    }
}
