//! The session event journal end to end: append, snapshot, recover
//! byte-identically, time-travel, live tail, and the `sys.events`
//! self-hosted table.

use tioga2_core::{Environment, Session};
use tioga2_datagen::register_standard_catalog;
use tioga2_expr::ViewerSpec;
use tioga2_relational::persist as rel_persist;
use tioga2_relational::Catalog;
use tioga2_viewer::magnifier::Magnifier;

fn session() -> Session {
    let catalog = Catalog::new();
    register_standard_catalog(&catalog, 120, 8, 42);
    Session::new(Environment::new(catalog))
}

/// Figure 1 plus some view-layer state: two canvases, a pan/zoom, a
/// slider, slaving, and a magnifier.
fn busy_session() -> Session {
    let mut s = session();
    let t = s.add_table("Stations").unwrap();
    let r = s.restrict(t, "state = 'LA'").unwrap();
    let p = s.project(r, &["name", "longitude", "latitude", "altitude"]).unwrap();
    s.add_viewer(p, "main").unwrap();
    let t2 = s.add_table("Stations").unwrap();
    let r2 = s.restrict(t2, "altitude > 100.0").unwrap();
    s.add_viewer(r2, "high").unwrap();
    s.render("main").unwrap();
    s.render("high").unwrap();
    s.pan("main", 12, -7).unwrap();
    s.zoom("main", 1.5).unwrap();
    s.slave("main", "high").unwrap();
    s.add_magnifier("main", Magnifier::new((10, 10, 60, 40), 2.0).unwrap()).unwrap();
    s.save_program("fig1");
    s
}

/// Everything observable about a session that recovery must reproduce:
/// framebuffer bytes per canvas, catalog relations (serialized), saved
/// programs, focus, and undo depth.
type Fingerprint = (Vec<(String, Vec<u8>)>, Vec<(String, String)>, Vec<String>);

fn fingerprint(s: &mut Session) -> Fingerprint {
    let mut frames = Vec::new();
    for c in s.canvas_names() {
        let f = s.render(&c).unwrap();
        frames.push((c.clone(), f.fb.pixels().iter().flatten().copied().collect()));
    }
    let mut tables = Vec::new();
    for name in s.env.catalog.table_names() {
        if name.starts_with("sys.") {
            continue;
        }
        let rel = s.env.catalog.snapshot(&name).unwrap();
        tables.push((name.clone(), rel_persist::save_relation(&rel).unwrap()));
    }
    (frames, tables, s.env.program_names())
}

#[test]
fn recover_is_byte_identical() {
    let mut s = busy_session();
    s.snapshot_now().unwrap();
    // Post-snapshot tail: more edits and gestures that replay must apply.
    let t = s.add_table("Observations").unwrap();
    s.add_viewer(t, "obs2").unwrap();
    s.render("obs2").unwrap();
    s.pan("main", -3, 4).unwrap();
    s.zoom("high", 0.75).unwrap();

    let want = fingerprint(&mut s);
    let text = s.journal_text();
    let mut back = Session::recover(&text).unwrap();
    let got = fingerprint(&mut back);
    assert_eq!(want.0.len(), got.0.len(), "same canvases");
    for ((wc, wf), (gc, gf)) in want.0.iter().zip(got.0.iter()) {
        assert_eq!(wc, gc);
        assert_eq!(wf, gf, "framebuffer for '{wc}' differs after recovery");
    }
    assert_eq!(want.1, got.1, "catalog differs after recovery");
    assert_eq!(want.2, got.2, "saved programs differ after recovery");
    assert_eq!(s.focus(), back.focus());
}

#[test]
fn recover_survives_undo_redo_and_traverse() {
    let mut s = session();
    let t = s.add_table("Stations").unwrap();
    let r = s.restrict(t, "state = 'LA'").unwrap();
    s.add_viewer(r, "main").unwrap();
    s.render("main").unwrap();
    s.snapshot_now().unwrap();
    // Tail: an edit, an undo, a redo, and a wormhole traversal.
    let t2 = s.add_table("Stations").unwrap();
    s.add_viewer(t2, "all").unwrap();
    s.undo();
    s.redo();
    s.render("all").unwrap();
    s.traverse(
        "main",
        &ViewerSpec { destination: "all".into(), elevation: 0.5, at: (0.1, 0.2), size: (0.4, 0.4) },
    )
    .unwrap();

    let text = s.journal_text();
    let mut back = Session::recover(&text).unwrap();
    assert_eq!(s.travel_depth(), back.travel_depth());
    assert_eq!(s.canvas_names(), back.canvas_names());
    for c in s.canvas_names() {
        let a = s.render(&c).unwrap();
        let b = back.render(&c).unwrap();
        assert_eq!(a.fb.pixels(), b.fb.pixels(), "canvas '{c}'");
    }
    // Undo depth survives: both sessions can undo the same number of steps.
    let mut n_orig = 0;
    while s.undo() {
        n_orig += 1;
    }
    let mut n_back = 0;
    while back.undo() {
        n_back += 1;
    }
    assert_eq!(n_orig, n_back, "undo stack depth differs after recovery");
}

#[test]
fn recover_without_snapshot_is_an_error() {
    let mut s = session();
    s.add_table("Stations").unwrap();
    let text = s.journal_text();
    let err = match Session::recover(&text) {
        Ok(_) => panic!("recovery without a snapshot should fail"),
        Err(e) => e,
    };
    assert!(format!("{err}").contains("snapshot"), "got: {err}");
}

#[test]
fn auto_snapshot_fires_on_edit_cadence() {
    let mut s = session();
    // snapshot_every defaults to 64; drive enough edits to cross it.
    let t = s.add_table("Stations").unwrap();
    let mut cur = t;
    for i in 0..70 {
        cur = s.restrict(cur, &format!("altitude > {i}.0")).unwrap();
    }
    let snaps = s.events().events().iter().filter(|(_, e)| matches!(e.kind(), "snapshot")).count();
    assert!(snaps >= 1, "auto-snapshot never fired over 71 edits");
    // And the log recovers from the auto-snapshot alone.
    let back = Session::recover(&s.journal_text()).unwrap();
    assert_eq!(back.graph.len(), s.graph.len());
}

#[test]
fn rewind_and_replay_reuse_undo_machinery() {
    let mut s = session();
    let t = s.add_table("Stations").unwrap();
    let r = s.restrict(t, "state = 'LA'").unwrap();
    s.add_viewer(r, "main").unwrap();
    let len_full = s.graph.len();
    assert_eq!(s.rewind(2), 2, "two steps back");
    assert!(s.graph.len() < len_full);
    assert_eq!(s.replay_forward(2), 2, "two steps forward again");
    assert_eq!(s.graph.len(), len_full);
    // Rewinding past the beginning stops early rather than erroring.
    let n = s.rewind(100);
    assert!(n <= 3);
    assert_eq!(s.replay_forward(100), n);
    // Undo/redo show up in the journal as replayable events.
    let kinds: Vec<&str> = s.events().events().iter().map(|(_, e)| e.kind()).collect();
    assert!(kinds.contains(&"undo") && kinds.contains(&"redo"));
}

#[test]
fn watch_tails_a_live_demand() {
    let mut s = session();
    let t = s.add_table("Stations").unwrap();
    let r = s.restrict(t, "state = 'LA'").unwrap();
    s.set_watch(Some("demand"));
    assert!(s.drain_watch().is_empty(), "nothing new yet");
    s.demand(r, 0).unwrap();
    let got = s.drain_watch();
    assert!(!got.is_empty(), "demand not delivered to watch");
    assert!(got.iter().all(|(_, e)| e.kind() == "demand"));
    // The filter really filters: edits are skipped but advance the cursor.
    s.add_table("Observations").unwrap();
    assert!(s.drain_watch().is_empty());
    s.set_watch(Some(""));
    s.add_table("Employees").unwrap();
    let all = s.drain_watch();
    assert!(all.iter().any(|(_, e)| e.kind() == "edit"), "unfiltered watch sees edits");
    s.clear_watch();
    assert!(s.watch_filter().is_none());
}

#[test]
fn sys_events_queryable_through_box_chain() {
    let mut s = session();
    let t = s.add_table("Stations").unwrap();
    let r = s.restrict(t, "state = 'LA'").unwrap();
    s.demand(r, 0).unwrap();
    s.refresh_sys_tables().unwrap();
    // Ordinary box chain over the self-hosted event table.
    let ev = s.add_table("sys.events").unwrap();
    let edits = s.restrict(ev, "kind = 'edit'").unwrap();
    let d = s.demand(edits, 0).unwrap();
    assert!(d.tuple_count() >= 2, "expected the add_table/restrict edits, got {}", d.tuple_count());
    let all = s.demand(ev, 0).unwrap();
    assert!(all.tuple_count() > d.tuple_count());
}

#[test]
fn refresh_sys_tables_keeps_non_sys_plans_cached() {
    let mut s = session();
    let t = s.add_table("Stations").unwrap();
    let r = s.restrict(t, "state = 'LA'").unwrap();
    s.demand(r, 0).unwrap();
    let evals_before = s.engine_stats().box_evals;
    s.refresh_sys_tables().unwrap();
    s.demand(r, 0).unwrap();
    assert_eq!(
        s.engine_stats().box_evals,
        evals_before,
        "non-sys plan re-evaluated after :sys refresh — selective invalidation regressed"
    );
    // But a sys-reading plan IS invalidated and recomputes fresh results.
    let ev = s.add_table("sys.counters").unwrap();
    let before = s.demand(ev, 0).unwrap().tuple_count();
    s.refresh_sys_tables().unwrap();
    let evals = s.engine_stats().box_evals;
    let after = s.demand(ev, 0).unwrap().tuple_count();
    assert!(s.engine_stats().box_evals > evals, "sys plan must recompute after refresh");
    assert!(after >= before);
}

#[test]
fn trace_ring_is_configurable_and_counts_drops() {
    let mut s = session();
    assert_eq!(s.trace_ring(), 32, "default ring size");
    s.set_trace_ring(2);
    assert_eq!(s.trace_ring(), 2);
    let t = s.add_table("Stations").unwrap();
    let a = s.restrict(t, "altitude > 1.0").unwrap();
    let b = s.restrict(t, "altitude > 2.0").unwrap();
    let c = s.restrict(t, "altitude > 3.0").unwrap();
    for n in [a, b, c] {
        s.explain_analyze(n, 0).unwrap();
    }
    assert!(s.demand_traces().len() <= 2, "ring respects its capacity");
    assert!(s.traces_dropped() >= 1, "evictions are counted");
    // The counters surface in sys.counters after a refresh.
    s.refresh_sys_tables().unwrap();
    let rel = s.env.catalog.snapshot("sys.counters").unwrap();
    let text = rel_persist::save_relation(&rel).unwrap();
    assert!(text.contains("demand.trace_ring.size"), "ring size counter missing");
    assert!(text.contains("demand.trace_ring.dropped"), "dropped counter missing");
    assert!(text.contains("journal.events"), "journal length counter missing");
}

#[test]
fn journal_roundtrips_updates_and_config() {
    let mut s = busy_session();
    s.set_threads(2);
    s.set_canvas_size(320, 200);
    s.snapshot_now().unwrap();
    s.set_threads(1);
    let text = s.journal_text();
    let back = Session::recover(&text).unwrap();
    assert_eq!(back.threads(), 1, "post-snapshot config replays");
    // The recovered journal still has the full history and stays armed:
    // new events append after the adopted tail.
    assert!(back.events().len() >= s.events().len());
}
