//! The in-process workloads: one `Session`, gestures through its public
//! API, each followed by `Session::render`.
//!
//! * `browse_zoomed` — a `Points → Restrict → Viewer` canvas zoomed deep
//!   into a 100k-row scatter.  Every pan or zoom moves the window the
//!   session pushes into the plan, so the plan cache misses on every frame
//!   and plan execution over all rows dominates.
//! * `overview_replicate` — the Figure 11 scene: a daily `Observations`
//!   series replicated into year partitions, members slaved, gestures on
//!   one member near fit.  The group demand is a memo hit and no window
//!   can prune, so compose and draw dominate.

use crate::gen::{self, Gesture, GestureStream, Rng};
use crate::replay::{Replay, GROUP_LAYERS, SINGLE_LAYERS};
use crate::report::{
    closed_loop, journal_replay, peak_rss_mb, push_layers, write_spans, Layers, LoopResult,
    Outcome, ScratchDir, Until, SETUPS,
};
use crate::stats::{median, Summary};
use crate::trace::Tracer;
use crate::Args;
use std::time::{Duration, Instant};
use tioga2_core::{Environment, Session};
use tioga2_dataflow::NodeId;
use tioga2_display::compose::PartitionSpec;
use tioga2_display::Selection;
use tioga2_expr::{parse, ScalarType as T};
use tioga2_render::Framebuffer;
use tioga2_viewer::group::member_viewer_name;

pub const BROWSE_ROWS: usize = 100_000;
/// Zoom applied after the fitted first frame: the window shows about 5%
/// of the world's width.
const BROWSE_ZOOM: f64 = 0.05;
pub const OVERVIEW_STATIONS: usize = 3;
pub const OVERVIEW_DAYS: usize = 3650;
/// Zoom applied to the fitted members before the first gesture.
const OVERVIEW_ZOOM: f64 = 1.3;
const CANVAS_SIZE: (u32, u32) = (640, 480);
/// Zoom gestures keep the elevation within this band around its start.
const ZOOM_BAND: (f64, f64) = (0.95, 1.05);
/// Interactions played during set-up, before the first timed one.
const WARMUP: u64 = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scene {
    Browse,
    Overview,
}

impl Scene {
    pub fn canvas(self) -> &'static str {
        match self {
            Scene::Browse => "browse",
            Scene::Overview => "overview",
        }
    }

    pub fn sizes(self) -> String {
        match self {
            Scene::Browse => format!(
                "Points rows={BROWSE_ROWS}, zoom={BROWSE_ZOOM} of fit, canvas {}x{}",
                CANVAS_SIZE.0, CANVAS_SIZE.1
            ),
            Scene::Overview => format!(
                "Observations rows={} ({OVERVIEW_STATIONS} stations x {OVERVIEW_DAYS} days), \
                 2 members, canvas {}x{}",
                OVERVIEW_STATIONS * OVERVIEW_DAYS,
                CANVAS_SIZE.0,
                CANVAS_SIZE.1
            ),
        }
    }
}

/// A session ready for timed interactions.
pub struct Live {
    scene: Scene,
    pub session: Session,
    node: NodeId,
    gestures: GestureStream,
    /// Framebuffer of the most recent frame.
    last_fb: Option<Framebuffer>,
}

fn core_err(e: tioga2_core::CoreError) -> String {
    e.to_string()
}

impl Live {
    /// Data generation, program build, first fitted frame and warm-up.
    pub fn setup(scene: Scene, seed: u64) -> Result<Live, String> {
        let mut rng = Rng::new(seed);
        let catalog = match scene {
            Scene::Browse => gen::points_catalog(&gen::points(BROWSE_ROWS, &mut rng)),
            Scene::Overview => {
                gen::observations_catalog(OVERVIEW_STATIONS, OVERVIEW_DAYS, &mut rng)
            }
        };
        let mut s = Session::new(Environment::new(catalog));
        s.set_canvas_size(CANVAS_SIZE.0, CANVAS_SIZE.1);
        // The journal recovers from its last snapshot: take one holding
        // the generated catalog before the program is built.
        s.snapshot_now().map_err(core_err)?;
        let node = build_program(scene, &mut s)?;
        let gestures = match scene {
            // Deep zoom: wander up to two screens from home.  Zoom stays
            // within 5% of the start, so every frame shows about as many
            // points and the work per frame does not depend on the walk.
            Scene::Browse => GestureStream::new(rng.fork(), 1280.0, ZOOM_BAND),
            // Near fit: zoomed out about 1.3x of fit and at most 30 px off
            // center, so every row stays visible in every frame.
            Scene::Overview => GestureStream::new(rng.fork(), 30.0, ZOOM_BAND),
        };
        let mut live = Live { scene, session: s, node, gestures, last_fb: None };
        for _ in 0..WARMUP {
            live.interact(None)?;
        }
        Ok(live)
    }

    fn gesture(&mut self, g: Gesture) -> Result<(), String> {
        let canvas = self.scene.canvas();
        match (self.scene, g) {
            (Scene::Browse, Gesture::Pan(dx, dy)) => {
                self.session.pan(canvas, dx, dy).map_err(core_err)
            }
            (Scene::Browse, Gesture::Zoom(f)) => {
                self.session.zoom(canvas, f).map(|_| ()).map_err(core_err)
            }
            (Scene::Overview, g) => {
                let gw = self.session.group_window_mut(canvas).map_err(core_err)?;
                match g {
                    Gesture::Pan(dx, dy) => gw.pan_member(0, dx, dy),
                    Gesture::Zoom(f) => gw.zoom_member(0, f),
                }
                .map_err(|e| e.to_string())
            }
        }
    }

    /// One interaction: the next gesture, then the frame it causes.
    /// Returns the latency in ms; a blank frame is a failure.
    fn interact(&mut self, tracer: Option<&mut Tracer>) -> Result<f64, String> {
        let g = self.gestures.next_gesture();
        let canvas = self.scene.canvas();
        let t0 = Instant::now();
        let frame = match tracer {
            None => {
                self.gesture(g)?;
                self.session.render(canvas).map_err(core_err)?
            }
            Some(t) => {
                let span = t.begin("interaction");
                let gs = t.begin("core.gesture");
                let r = self.gesture(g);
                t.end(gs);
                r?;
                let rs = t.begin("core.render");
                let frame = self.session.render(canvas);
                t.end(rs);
                t.end(span);
                frame.map_err(core_err)?
            }
        };
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let objects = frame.hits.len().max(frame.member_hits.iter().map(|h| h.len()).sum());
        self.last_fb = Some(frame.fb);
        if objects == 0 {
            return Err(format!("blank frame after {g:?}"));
        }
        Ok(ms)
    }

    /// Output check: a session recovered from this session's journal
    /// renders the final view byte-identically.
    ///
    /// Group-member gestures go through `Session::group_window_mut`, which
    /// the journal does not record, so for a group canvas the live member
    /// viewer positions are copied into the recovered session before it
    /// renders; everything the journal does record (program, data, canvas,
    /// view state) must then reproduce the frame exactly.  The count of
    /// such unjournaled gestures is reported beside the check.
    pub fn recover_check(&mut self) -> Result<(), String> {
        let canvas = self.scene.canvas();
        let dropped = self.session.events().dropped();
        if dropped > 0 {
            return Err(format!("journal ring dropped {dropped} events"));
        }
        let live_fb = self.last_fb.clone().ok_or("no frame rendered")?;
        let mut rec = Session::recover(&self.session.journal_text()).map_err(core_err)?;
        if self.scene == Scene::Overview {
            rec.render(canvas).map_err(core_err)?;
            let live = self.session.group_window_mut(canvas).map_err(core_err)?;
            let positions: Vec<_> = (0..live.group.members.len())
                .map(|i| live.viewers.get(&member_viewer_name(i)).map(|v| v.position.clone()))
                .collect::<Result<_, _>>()
                .map_err(|e| e.to_string())?;
            let gw = rec.group_window_mut(canvas).map_err(core_err)?;
            for (i, p) in positions.into_iter().enumerate() {
                gw.viewers.get_mut(&member_viewer_name(i)).map_err(|e| e.to_string())?.position = p;
            }
        }
        let fb = rec.render(canvas).map_err(core_err)?.fb;
        if fb != live_fb {
            return Err("recovered session renders a different frame than the live one".into());
        }
        Ok(())
    }
}

/// Build the workload's program on `s` and render its first, fitted
/// frame.  Returns the Viewer box.
pub fn build_program(scene: Scene, s: &mut Session) -> Result<NodeId, String> {
    let canvas = scene.canvas();
    match scene {
        Scene::Browse => {
            let t = s.add_table("Points").map_err(core_err)?;
            let r = s.restrict(t, "mass >= 0.0").map_err(core_err)?;
            let v = s.add_viewer(r, canvas).map_err(core_err)?;
            s.render(canvas).map_err(core_err)?;
            s.zoom(canvas, BROWSE_ZOOM).map_err(core_err)?;
            Ok(v)
        }
        Scene::Overview => {
            let t = s.add_table("Observations").map_err(core_err)?;
            let x = s
                .set_attribute(t, "x", T::Float, "to_float(epoch(time)) / 86400.0")
                .map_err(core_err)?;
            let y = s.set_attribute(x, "y", T::Float, "temperature").map_err(core_err)?;
            let cut = |p: &str| parse(p).map_err(|e| e.to_string());
            let parts = PartitionSpec::Predicates(vec![
                ("year < 1990".into(), cut("year(time) < 1990")?),
                ("year >= 1990".into(), cut("year(time) >= 1990")?),
            ]);
            let g = s.replicate(y, parts, None, Selection::default()).map_err(core_err)?;
            let v = s.add_viewer(g, canvas).map_err(core_err)?;
            s.render(canvas).map_err(core_err)?;
            let gw = s.group_window_mut(canvas).map_err(core_err)?;
            gw.slave_members(0, 1).map_err(|e| e.to_string())?;
            gw.zoom_member(0, OVERVIEW_ZOOM).map_err(|e| e.to_string())?;
            Ok(v)
        }
    }
}

/// Set up `SETUPS` times, keeping the last; returns it with the median
/// set-up time in seconds.
fn timed_setups(scene: Scene, seed: u64) -> Result<(Live, f64), String> {
    let mut times = Vec::new();
    let mut live = None;
    for _ in 0..SETUPS {
        drop(live.take());
        let t0 = Instant::now();
        live = Some(Live::setup(scene, seed)?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((live.expect("at least one set-up"), median(&times)))
}

fn run_untraced(live: &mut Live, until: Until) -> (LoopResult, Vec<String>) {
    closed_loop(until, |_| live.interact(None))
}

pub fn run(scene: Scene, args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome { correct: true, ..Default::default() };
    out.note(format!("sizes: {}", scene.sizes()));
    out.note("loop: closed, 1 client, no think time");
    let secs = Duration::from_secs_f64(args.seconds);
    if !args.trace {
        let (mut live, setup_s) = timed_setups(scene, args.seed)?;
        let (r, errors) = run_untraced(&mut live, Until::Tail(secs));
        for e in errors {
            out.note(format!("failed {e}"));
        }
        let s = Summary::of(&r.samples);
        out.attempted = r.attempted;
        out.failed = r.failed;
        out.correct = r.failed == 0;
        out.check(s.tail_ok(), format!("only {} samples beyond p95", s.beyond_p95));
        out.note(format!(
            "interactions: {} ok of {} in {:.3} s; p50 n={} p95 n={} ({} beyond p95)",
            r.samples.len(),
            r.attempted,
            r.elapsed.as_secs_f64(),
            s.n,
            s.n,
            s.beyond_p95
        ));
        let recovered = live.recover_check();
        out.check(recovered.is_ok(), format!("recover: {:?}", recovered.err()));
        if scene == Scene::Overview {
            out.note(format!(
                "journal: {} group-member gestures bypass the session journal (not replayed by recover)",
                r.attempted + WARMUP
            ));
        }
        out.push("setup_s", setup_s, "s");
        out.push("interaction_p50_ms", s.p50, "ms");
        out.push("interaction_p95_ms", s.p95, "ms");
        out.push("interactions_per_s", r.per_second(), "1/s");
        out.push("peak_rss_mb", peak_rss_mb(), "MiB");
        return Ok(out);
    }

    // Traced run: an untraced reference pass, then the same seed and
    // gesture stream again with spans and the layer replay.
    let mut reference = Live::setup(scene, args.seed)?;
    let (base, _) = run_untraced(&mut reference, Until::For(secs.mul_f64(0.3)));
    drop(reference);
    let mut live = Live::setup(scene, args.seed)?;
    let mut tracer = Tracer::default();
    let mut replay = Replay::new(live.session.env.catalog.clone());
    let canvas = scene.canvas();
    let node = live.node;
    let stats0 = live.session.engine_stats();
    let seq0 = live.session.events().last_seq().unwrap_or(0);
    let mut mismatches = 0u64;
    let mut items_per_row = Vec::new();
    let mut examined_per_out = Vec::new();
    let mut is_group = false;
    let (traced, errors) = closed_loop(Until::For(secs.mul_f64(0.7)), |i| {
        tracer.set_interaction(i);
        let ms = live.interact(Some(&mut tracer))?;
        let r = replay.frame(&mut tracer, &mut live.session, canvas, node)?;
        is_group = r.group;
        if Some(&r.fb) != live.last_fb.as_ref() {
            mismatches += 1;
            return Err("replayed frame differs from Session::render".into());
        }
        if r.rows > 0 {
            items_per_row.push(r.items as f64 / r.rows as f64);
        }
        if let Some((examined, emitted)) = r.examined {
            examined_per_out.push(examined as f64 / emitted.max(1) as f64);
        }
        Ok(ms)
    });
    for e in errors {
        out.note(format!("failed {e}"));
    }
    let stats1 = live.session.engine_stats();
    let seq1 = live.session.events().last_seq().unwrap_or(0);
    out.attempted = traced.attempted;
    out.failed = traced.failed;
    out.correct = traced.failed == 0 && mismatches == 0;
    let recovered = live.recover_check();
    out.check(recovered.is_ok(), format!("recover: {:?}", recovered.err()));
    let n = traced.samples.len().max(1) as f64;

    let layers: &[&str] = if is_group { &GROUP_LAYERS } else { &SINGLE_LAYERS };
    let layer =
        |name: &str| median(&tracer.per_interaction_ms(name).into_values().collect::<Vec<_>>());
    let render = tracer.per_interaction_ms("core.render");
    let named: Vec<_> = layers.iter().map(|l| tracer.per_interaction_ms(l)).collect();
    let unattributed: Vec<f64> = render
        .iter()
        .map(|(i, total)| {
            total - named.iter().map(|m| m.get(i).copied().unwrap_or(0.0)).sum::<f64>()
        })
        .collect();
    let render_ms = median(&render.values().copied().collect::<Vec<_>>());
    let unattributed_ms = median(&unattributed);
    out.note(format!(
        "replay: {} of {} frames byte-identical; named layers cover {:.1}% of core.render_ms",
        traced.samples.len(),
        traced.attempted,
        100.0 * (1.0 - unattributed_ms / render_ms)
    ));

    // Journal: replay this run's events into a fresh file-backed log.
    let events = live.session.events().events_since(seq0);
    let dir = ScratchDir::new("journal").map_err(|e| e.to_string())?;
    let (append_us, bytes) = journal_replay(&events, dir.path())?;
    let d_hits = stats1.cache_hits - stats0.cache_hits;
    let d_evals = stats1.box_evals - stats0.box_evals;
    let traced_p50 = Summary::of(&traced.samples).p50;
    let base_p50 = Summary::of(&base.samples).p50;
    out.note(format!(
        "trace: {} spans; untraced reference p50 {:.3} ms (n={}), traced p50 {:.3} ms (n={})",
        tracer.spans().len(),
        base_p50,
        base.samples.len(),
        traced_p50,
        traced.samples.len()
    ));
    write_spans(&tracer, args, "", &mut out);
    if is_group {
        // Only group canvases have this layer and only this workload
        // draws one, so it is reported here rather than in the result
        // line, whose per-layer set every workload shares.
        out.note(format!("layer viewer.group_render_ms = {} ms", layer("viewer.group_render")));
    }

    push_layers(
        &mut out,
        Layers {
            demand_ms: layer("dataflow.demand"),
            rows_examined_per_row_out: median(&examined_per_out),
            memo_hit_ratio: d_hits as f64 / (d_hits + d_evals).max(1) as f64,
            window_predicate_us: layer("viewer.window_predicate") * 1e3,
            into_composite_us: layer("display.into_composite") * 1e3,
            compose_ms: layer("viewer.compose"),
            items_per_row_demanded: median(&items_per_row),
            draw_ms: layer("render.draw"),
            gesture_us: layer("core.gesture") * 1e3,
            render_ms,
            unattributed_ms,
            journal_append_us: append_us,
            events_per_interaction: (seq1 - seq0) as f64 / n,
            journal_bytes_per_interaction: bytes as f64 / n,
            tracing_overhead: traced_p50 / base_p50,
            ..Layers::default()
        },
    );
    Ok(out)
}
