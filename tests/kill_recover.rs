//! Kill-and-recover chaos properties: crash a session at any fault site,
//! replay its journal, and require the recovered session to be
//! byte-identical — framebuffers, catalog, and demand results — at 1, 2,
//! and 8 plan workers.
//!
//! "Crash" here means: a fault (structured error or contained panic)
//! fires mid-demand, and all that survives is the append-only event
//! journal.  Recovery rebuilds the session from the last snapshot plus
//! the replayable tail, with the fault disarmed (a restart does not
//! re-arm the crash).  Faults are scoped to the session's own engine, so
//! this binary never touches the process-global fault registry.

use proptest::prelude::*;
use std::sync::OnceLock;
use tioga2::core::{Environment, Session};
use tioga2::datagen::register_standard_catalog;
use tioga2::relational::persist as rel_persist;
use tioga2::relational::{Catalog, FaultPlan};

/// Keep injected panics (expected here) from spraying backtraces.
fn quiet_injected_panics() {
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info
                .payload()
                .downcast_ref::<String>()
                .map(|s| s.as_str())
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !payload.contains("injected fault") {
                default(info);
            }
        }));
    });
}

/// A per-session plan that never fires: keeps the engine off the
/// process-global fault registry.
fn noop_plan() -> FaultPlan {
    FaultPlan::parse("kill_recover_noop_site=err").unwrap()
}

fn session() -> Session {
    let catalog = Catalog::new();
    register_standard_catalog(&catalog, 90, 6, 77);
    let mut s = Session::new(Environment::new(catalog));
    s.set_fault_plan(Some(noop_plan()));
    s
}

/// Seed program: Figure 1 with a canvas, rendered once, snapshotted so
/// the journal is recoverable whatever the random tail does.
fn seed_session() -> Session {
    let mut s = session();
    let t = s.add_table("Stations").unwrap();
    let r = s.restrict(t, "state = 'LA'").unwrap();
    s.add_viewer(r, "main").unwrap();
    s.render("main").unwrap();
    s.snapshot_now().unwrap();
    s
}

/// Random session activity after the snapshot: edits, gestures, undo,
/// more snapshots.  Individual failures are fine (and rolled back); the
/// property only requires that whatever *was* journaled replays exactly.
fn apply_ops(s: &mut Session, seeds: &[(u8, u64)]) {
    for &(tag, a) in seeds {
        match tag % 8 {
            0 => {
                let last = s.graph.node_ids().last().copied();
                if let Some(n) = last {
                    let _ = s.restrict(n, &format!("altitude > {}.0", (a % 200) as i64 - 100));
                }
            }
            1 => {
                let _ = s.add_table("Observations");
            }
            2 => {
                let _ = s.pan("main", (a % 21) as i32 - 10, (a % 13) as i32 - 6);
            }
            3 => {
                let _ = s.zoom("main", 0.5 + (a % 30) as f64 / 10.0);
            }
            4 => {
                s.undo();
            }
            5 => {
                s.redo();
            }
            6 => {
                let _ = s.render("main");
            }
            7 => {
                let _ = s.snapshot_now();
            }
            _ => unreachable!(),
        }
    }
}

/// The fault sites a "crash" draws from: stream sites, eager sites, and
/// worker panics, as errors and as contained panics.
fn site_pool(coord: u64) -> Vec<String> {
    vec![
        format!("scan:{coord}=err"),
        format!("scan:{coord}=panic"),
        "scan=err".to_string(),
        format!("restrict:pull:{coord}=err"),
        format!("restrict:pull:{coord}=panic"),
        "sort=err".to_string(),
        "sort=panic".to_string(),
        "worker=panic".to_string(),
    ]
}

/// Everything recovery must reproduce: per-canvas framebuffer bytes,
/// per-canvas demand results (serialized relations), and the non-sys
/// catalog.
type Fingerprint = (Vec<(String, Vec<u8>)>, Vec<String>, Vec<(String, String)>);

fn fingerprint(s: &mut Session) -> Fingerprint {
    let mut frames = Vec::new();
    let mut demands = Vec::new();
    for c in s.canvas_names() {
        let f = s.render(&c).expect("unfaulted render");
        frames.push((c.clone(), f.fb.pixels().iter().flatten().copied().collect()));
        match s.displayable(&c).expect("unfaulted demand") {
            tioga2::display::Displayable::R(dr) => {
                demands.push(rel_persist::save_relation(&dr.rel).unwrap())
            }
            other => demands.push(format!("non-relational: {}", other.type_tag())),
        }
    }
    let mut tables = Vec::new();
    for name in s.env.catalog.table_names() {
        if name.starts_with("sys.") {
            continue;
        }
        let rel = s.env.catalog.snapshot(&name).unwrap();
        tables.push((name, rel_persist::save_relation(&rel).unwrap()));
    }
    (frames, demands, tables)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Crash at any fault site, recover from the journal, and compare
    /// the recovered session byte-for-byte at 1, 2, and 8 workers.
    #[test]
    fn crash_replay_is_byte_identical_across_worker_counts(
        seeds in proptest::collection::vec((any::<u8>(), any::<u64>()), 0..6),
        site in 0usize..8,
        coord in 0u64..16,
    ) {
        quiet_injected_panics();
        let mut s = seed_session();
        apply_ops(&mut s, &seeds);

        // The crash: arm a fault on this session's engine and drive the
        // canvas.  The demand dies (or the site is never reached); either
        // way the journal is what survives.
        let spec = site_pool(coord)[site].clone();
        s.set_fault_plan(Some(FaultPlan::parse(&spec).unwrap()));
        let crashed = s.render("main").is_err();
        let log = s.journal_text();

        // Post-crash restart: fault disarmed.  The original session is
        // the reference for what the journal must reproduce.
        s.set_fault_plan(Some(noop_plan()));
        let want = fingerprint(&mut s);

        for threads in [1usize, 2, 8] {
            let mut back = Session::recover(&log)
                .unwrap_or_else(|e| panic!("recover (crashed={crashed}, {spec}): {e}"));
            back.set_fault_plan(Some(noop_plan()));
            back.set_threads(threads);
            let got = fingerprint(&mut back);
            prop_assert_eq!(&want.0, &got.0);
            prop_assert_eq!(&want.1, &got.1);
            prop_assert_eq!(&want.2, &got.2);
        }
    }
}

/// A fault firing *during replay itself* must not wedge recovery: replay
/// applies edits and gestures, not demands, so a recovered session is
/// rebuildable even while a fault plan is globally armed — renders fail
/// afterwards, structure survives.
#[test]
fn recovery_replays_edits_even_if_renders_would_fault() {
    let mut s = seed_session();
    let t2 = s.add_table("Observations").unwrap();
    s.add_viewer(t2, "obs").unwrap();
    s.render("obs").unwrap();
    let log = s.journal_text();

    let back = Session::recover(&log).unwrap();
    assert_eq!(back.graph.len(), s.graph.len());
    assert_eq!(back.canvas_names(), s.canvas_names());
}
