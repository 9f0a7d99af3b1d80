//! Crash-durability integration tests: graceful drain, idle eviction,
//! duplicate suppression, fleet restart recovery, and the journal-dir
//! edge cases (empty dir, damaged journals, foreign lockfiles).  The
//! network-fault chaos matrix lives in the workspace-level
//! `tests/fleet_chaos.rs`; these tests exercise the same machinery
//! deterministically through the public server API.

use std::io::{Read, Write};
use std::time::Duration;
use tioga2_datagen::register_standard_catalog;
use tioga2_obs::{journal, DirLock, FleetManifest, SessionEvent};
use tioga2_relational::Catalog;
use tioga2_server::{proto, Client, Reply, ServerConfig, ServerHandle};

fn catalog(stations: usize) -> Catalog {
    let c = Catalog::new();
    register_standard_catalog(&c, stations, 3, 7);
    c
}

fn start(cfg: ServerConfig) -> ServerHandle {
    ServerHandle::start(catalog(40), cfg, "127.0.0.1:0").expect("bind")
}

/// A fresh scratch dir per test (removed up front so reruns are clean).
fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tiogad_durability_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn drain_refuses_new_work_and_closes_every_journal() {
    let dir = scratch("drain");
    let cfg = ServerConfig { journal_dir: Some(dir.clone()), ..ServerConfig::default() };
    let mut h = start(cfg);
    let mut c = Client::connect(h.addr()).unwrap();
    c.attach(Some("s1"), Some("acme")).unwrap().unwrap();
    c.run("table Stations").unwrap().unwrap();

    let ms = h.server().drain();
    assert!(h.server().is_draining());
    assert!(h.server().session_ids().is_empty(), "drain must empty the fleet");
    let _ = ms; // wall time is environment-dependent; the histogram records it

    // Post-drain admission is refused with the retryable marker: a
    // well-behaved client backs off and retries against the successor.
    let refused = c.run("table Stations").unwrap().unwrap_err();
    assert!(proto::is_retryable(&refused), "{refused}");
    let mut fresh = Client::connect(h.addr()).unwrap();
    let refused = fresh.attach(Some("s2"), None).unwrap().unwrap_err();
    assert!(proto::is_retryable(&refused), "{refused}");

    // Observability: stats and metrics both expose the drain.
    let stats = fresh.run("stats").unwrap().unwrap();
    assert!(stats.contains("draining: yes"), "{stats}");
    assert!(stats.contains("evictions_drain=1"), "{stats}");
    let metrics = fresh.run("metrics").unwrap().unwrap();
    assert!(metrics.contains("tioga2_daemon_draining 1"), "{metrics}");
    assert!(metrics.contains("tioga2_fleet_evictions_total{reason=\"drain\"} 1"), "{metrics}");
    assert!(metrics.contains("tioga2_fleet_drain_duration_ms_count 1"), "{metrics}");

    // Every journal on disk records the clean shutdown.
    let live = FleetManifest::load(&dir).unwrap().expect("the drained journal stays on disk");
    assert!(live.clean_shutdown);
    assert!(live.sessions.is_empty(), "a drained fleet has no live sessions");

    // A second drain is a no-op, not a second histogram sample.
    h.server().drain();
    let metrics = fresh.run("metrics").unwrap().unwrap();
    assert!(metrics.contains("tioga2_fleet_drain_duration_ms_count 1"), "{metrics}");
    h.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_drain_verb_drains_then_stops() {
    let dir = scratch("drain_verb");
    let cfg = ServerConfig { journal_dir: Some(dir.clone()), ..ServerConfig::default() };
    let mut h = start(cfg);
    let mut c = Client::connect(h.addr()).unwrap();
    c.attach(Some("s"), None).unwrap().unwrap();
    c.run("table Stations").unwrap().unwrap();
    match c.send("shutdown drain").unwrap() {
        Reply::Bye(b) => assert!(b.contains("drain"), "{b}"),
        other => panic!("expected bye, got {other:?}"),
    }
    // The verb drains synchronously before acknowledging, then stops
    // the daemon; the journal outlives it, closed as drained.
    for _ in 0..200 {
        if h.server().is_shutdown() {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(h.server().is_shutdown(), "shutdown drain must stop the daemon");
    assert!(FleetManifest::load(&dir).unwrap().expect("journal").clean_shutdown);
    h.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn duplicate_request_ids_are_suppressed() {
    let mut h = start(ServerConfig::default());
    let mut c = Client::connect(h.addr()).unwrap();
    c.attach(Some("s"), None).unwrap().unwrap();

    // The same stamped frame twice — exactly what a client retrying a
    // lost reply sends.  The second must be answered from the dedup
    // cache, not re-executed.
    let stamped = proto::stamp_rid(424242, "table Stations");
    let first = c.run(&stamped).unwrap().unwrap();
    let second = c.run(&stamped).unwrap().unwrap();
    assert_eq!(first, second, "a replayed request must get the cached reply");

    // One `table` command executed, not two: the program has one box.
    let program = c.run("program").unwrap().unwrap();
    assert_eq!(program.lines().count(), 1, "duplicate suppression must not re-execute:\n{program}");
    let stats = c.run("stats").unwrap().unwrap();
    assert!(stats.contains("dedup_hits=1"), "{stats}");
    h.stop();
}

#[test]
fn minted_rids_never_answer_for_client_stamps() {
    let mut h = start(ServerConfig::default());
    let mut c = Client::connect(h.addr()).unwrap();
    c.attach(Some("s"), None).unwrap().unwrap();

    // An unstamped command that happens to carry the same numeric rid a
    // client will later stamp — exactly what a plain client and a
    // RetryClient sharing a session produce, since the server's minting
    // counter and each client's stamp counter are independent.
    let minted = 424_242;
    h.server().run_req("s", "table Stations", minted, false).unwrap();

    // The stamped frame is a *different* namespace: its command must
    // execute, not be answered from a cache entry left by the unstamped
    // job.
    let stamped = proto::stamp_rid(minted, "table Stations");
    c.run(&stamped).unwrap().unwrap();
    let program = c.run("program").unwrap().unwrap();
    assert_eq!(
        program.lines().count(),
        2,
        "a minted rid answered for a colliding client stamp:\n{program}"
    );
    let stats = c.run("stats").unwrap().unwrap();
    assert!(stats.contains("dedup_hits=0"), "{stats}");
    h.stop();
}

#[test]
fn anonymous_retry_attach_mints_the_id_client_side() {
    let mut h = start(ServerConfig::default());
    let mut c = tioga2_server::RetryClient::connect(h.addr().to_string());
    // The client chooses the id, so a resent attach (lost reply) joins
    // the same session instead of minting a fresh one per retry.
    let sid = c.attach(None, Some("acme")).unwrap();
    assert!(sid.starts_with('c'), "client-minted id expected, got '{sid}'");
    assert_eq!(h.server().session_ids(), vec![sid.clone()]);
    // Resending the identical attach line (what a retry does) is a
    // no-op join, not a second session.
    let mut raw = Client::connect(h.addr()).unwrap();
    raw.attach(Some(&sid), Some("acme")).unwrap().unwrap();
    assert_eq!(h.server().session_ids(), vec![sid]);
    h.stop();
}

#[test]
fn idle_sessions_are_evicted_and_reattach_exactly() {
    let dir = scratch("idle");
    let cfg = ServerConfig {
        journal_dir: Some(dir.clone()),
        idle_evict_ms: Some(50),
        ..ServerConfig::default()
    };
    let mut h = start(cfg);
    let mut c = Client::connect(h.addr()).unwrap();
    c.attach(Some("lazy"), Some("acme")).unwrap().unwrap();
    c.run("table Stations").unwrap().unwrap();
    c.run("restrict 0 state = 'LA'").unwrap().unwrap();
    let before = c.run("show 1 5").unwrap().unwrap();

    // The accept loop reaps roughly every 250ms; wait for the slot to go.
    let mut evicted = false;
    for _ in 0..100 {
        if h.server().session_ids().is_empty() {
            evicted = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(evicted, "idle session was never reaped");

    // The same connection keeps working: eviction is journal-backed, so
    // the connection loop transparently reattaches and the session state
    // is byte-identical.
    let after = c.run("show 1 5").unwrap().unwrap();
    assert_eq!(before, after, "journal-backed eviction must be exact");
    let stats = c.run("stats").unwrap().unwrap();
    assert!(stats.contains("evictions_idle=1"), "{stats}");
    h.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fleet_restart_recovery_is_byte_identical() {
    let dir = scratch("restart");
    let cfg = ServerConfig { journal_dir: Some(dir.clone()), ..ServerConfig::default() };
    let mut h = start(cfg.clone());
    let mut shows = std::collections::BTreeMap::new();
    for (sid, state) in [("s1", "LA"), ("s2", "NV"), ("s3", "CA")] {
        let mut c = Client::connect(h.addr()).unwrap();
        c.attach(Some(sid), Some("acme")).unwrap().unwrap();
        c.run("table Stations").unwrap().unwrap();
        c.run(&format!("restrict 0 state = '{state}'")).unwrap().unwrap();
        shows.insert(sid.to_string(), c.run("show 1 5").unwrap().unwrap());
    }

    // Die like SIGKILL: no retire, no journal closed, lockfile left.
    h.server().crash();
    h.stop();
    assert!(dir.join("tiogad.lock").exists(), "crash must leave the lockfile");
    let live = FleetManifest::load(&dir).unwrap().expect("journals");
    assert!(!live.clean_shutdown);
    assert_eq!(live.sessions.len(), 3, "the journals still record the fleet as live");

    // Restart on the same dir: the stale lock is reclaimed (same pid
    // here; a dead pid in production) and the whole fleet is rebuilt
    // before the listener opens.
    let mut h2 = start(cfg);
    assert_eq!(h2.server().session_ids(), vec!["s1", "s2", "s3"]);
    for (sid, before) in &shows {
        let mut c = Client::connect(h2.addr()).unwrap();
        // Reattach must land on the *recovered* session, same tenant.
        c.attach(Some(sid), Some("acme")).unwrap().unwrap();
        let after = c.run("show 1 5").unwrap().unwrap();
        assert_eq!(before, &after, "session '{sid}' must recover byte-identically");
    }
    let mut c = Client::connect(h2.addr()).unwrap();
    c.attach(None, None).unwrap().unwrap();
    let stats = c.run("stats").unwrap().unwrap();
    assert!(stats.contains("recoveries=3"), "{stats}");
    h2.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn empty_journal_dir_boots_clean() {
    let dir = scratch("empty");
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = ServerConfig { journal_dir: Some(dir.clone()), ..ServerConfig::default() };
    let mut h = start(cfg);
    assert!(h.server().session_ids().is_empty());
    let mut c = Client::connect(h.addr()).unwrap();
    c.attach(Some("s"), None).unwrap().unwrap();
    c.run("table Stations").unwrap().unwrap();
    h.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn damaged_journal_refuses_that_session_but_boot_proceeds() {
    let dir = scratch("damaged");
    std::fs::create_dir_all(&dir).unwrap();

    // Build one good journal the honest way.
    let cfg = ServerConfig { journal_dir: Some(dir.clone()), ..ServerConfig::default() };
    let mut h = start(cfg.clone());
    let mut c = Client::connect(h.addr()).unwrap();
    c.attach(Some("good"), Some("acme")).unwrap().unwrap();
    c.run("table Stations").unwrap().unwrap();
    let before = c.run("show 0 5").unwrap().unwrap();
    h.server().crash();
    h.stop();

    // Plant a second live journal that is corrupt *early* (not a torn
    // tail): its attach record is intact, a later record is garbage.
    let attached = SessionEvent::Lifecycle { state: "attached".into(), tenant: "acme".into() };
    let lines = [
        journal::header_line(),
        journal::event_line(1, &attached),
        "this is not a journal record".into(),
        journal::event_line(3, &SessionEvent::Undo),
    ];
    std::fs::write(dir.join("bad.jsonl"), lines.join("\n") + "\n").unwrap();
    // And a "journal" that cannot be read at all.
    std::fs::create_dir_all(dir.join("odd.jsonl")).unwrap();

    // Boot succeeds; 'good' is byte-identical; 'bad' and 'odd' are
    // reported damaged and refuse to attach — and keep refusing when a
    // client asks for them explicitly.
    let server = tioga2_server::Server::new(catalog(40), cfg.clone());
    let report = server.recover_fleet().unwrap();
    assert_eq!(report.recovered, vec!["good"]);
    let damaged: Vec<&str> = report.damaged.iter().map(|(sid, _)| sid.as_str()).collect();
    assert_eq!(damaged, vec!["bad", "odd"]);
    server.crash(); // leave 'good' live for the next boot
    drop(server);
    let mut h2 = start(cfg);
    assert_eq!(h2.server().session_ids(), vec!["good"]);
    let mut c = Client::connect(h2.addr()).unwrap();
    c.attach(Some("good"), Some("acme")).unwrap().unwrap();
    assert_eq!(before, c.run("show 0 5").unwrap().unwrap());
    let mut b = Client::connect(h2.addr()).unwrap();
    for sid in ["bad", "odd"] {
        let refused = b.attach(Some(sid), Some("acme")).unwrap().unwrap_err();
        assert!(!proto::is_retryable(&refused), "a damaged journal is not retryable: {refused}");
    }
    h2.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A journal written before lifecycle records existed names no tenant
/// and no liveness: boot leaves it dormant, and attaching its id still
/// recovers it.
#[test]
fn journal_without_lifecycle_records_boots_dormant_and_reattaches() {
    let dir = scratch("prelifecycle");
    let cfg = ServerConfig { journal_dir: Some(dir.clone()), ..ServerConfig::default() };
    let mut h = start(cfg.clone());
    let mut c = Client::connect(h.addr()).unwrap();
    c.attach(Some("old"), Some("acme")).unwrap().unwrap();
    c.run("table Stations").unwrap().unwrap();
    let before = c.run("show 0 5").unwrap().unwrap();
    h.server().crash();
    h.stop();

    // Strip the lifecycle records, leaving the journal as an older
    // daemon would have written it; an old manifest file is ignored.
    let path = dir.join("old.jsonl");
    let text = std::fs::read_to_string(&path).unwrap();
    let kept: String = text
        .lines()
        .filter(|l| journal::lifecycle_of_line(l).is_none())
        .map(|l| format!("{l}\n"))
        .collect();
    assert_ne!(kept, text, "the journal carried lifecycle records");
    std::fs::write(&path, kept).unwrap();
    std::fs::write(dir.join("fleet-manifest.json"), "{\"sessions\":[\"old\"]}\n").unwrap();

    let mut h2 = start(cfg);
    assert!(h2.server().session_ids().is_empty(), "an old journal is not recovered eagerly");
    let mut c = Client::connect(h2.addr()).unwrap();
    c.attach(Some("old"), Some("acme")).unwrap().unwrap();
    assert_eq!(before, c.run("show 0 5").unwrap().unwrap());
    h2.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Concurrent attach/detach from many threads: after every round the
/// live set derived from the journals equals the server's, and a crash
/// at any round boundary recovers exactly the acknowledged live set.
#[test]
fn concurrent_attach_detach_storm_keeps_journals_and_fleet_in_step() {
    const THREADS: usize = 8;
    const IDS: usize = 4;
    const ROUNDS: usize = 15;
    let dir = scratch("storm");
    let cfg = ServerConfig {
        journal_dir: Some(dir.clone()),
        max_sessions: THREADS * IDS,
        max_per_tenant: THREADS * IDS,
        ..ServerConfig::default()
    };
    let mut h = start(cfg.clone());
    let server = h.server().clone();
    for round in 0..ROUNDS {
        // Release every thread at once so attaches and detaches overlap.
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (server, start) = (&server, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..IDS {
                        let sid = format!("t{t}-{i}");
                        // Each id flips state on a round-dependent
                        // pattern, so every round attaches fresh ids,
                        // reattaches detached ones, and detaches some.
                        if (round + i + t) % 3 != 0 {
                            server.attach(Some(&sid), &format!("tenant{}", t % 3)).unwrap();
                        } else if server.session_ids().contains(&sid) {
                            server.detach(&sid).unwrap();
                        }
                    }
                });
            }
        });
        let live = FleetManifest::load(&dir).unwrap().expect("journals");
        let from_journals: Vec<String> = live.sessions.keys().cloned().collect();
        assert_eq!(from_journals, server.session_ids(), "round {round}");
        for (sid, tenant) in &live.sessions {
            let t: usize = sid[1..sid.find('-').unwrap()].parse().unwrap();
            assert_eq!(tenant, &format!("tenant{}", t % 3), "round {round}: {sid}");
        }
    }
    let acknowledged = server.session_ids();
    assert!(!acknowledged.is_empty() && acknowledged.len() < THREADS * IDS);
    server.crash();
    h.stop();
    drop(server);

    let mut h2 = start(cfg);
    assert_eq!(h2.server().session_ids(), acknowledged, "recovered set != acknowledged live set");
    h2.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Threads sharing session ids: detaches, quits and reattaches of the
/// same id overlap, and the derived live set still equals the server's
/// after every round; a crash recovers exactly the acknowledged set.
#[test]
fn shared_id_storm_keeps_journals_and_fleet_in_step() {
    const THREADS: usize = 8;
    const IDS: usize = 3;
    const STEPS: usize = 6;
    const ROUNDS: usize = 10;
    let dir = scratch("shared_storm");
    let cfg = ServerConfig { journal_dir: Some(dir.clone()), ..ServerConfig::default() };
    let mut h = start(cfg.clone());
    let server = h.server().clone();
    for round in 0..ROUNDS {
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (server, start) = (&server, &start);
                scope.spawn(move || {
                    start.wait();
                    for step in 0..STEPS {
                        let sid = format!("shared{}", (t + step) % IDS);
                        attach_retrying(server, &sid);
                        // Another thread may detach it first.
                        let _ = server.run(&sid, "tables");
                        if (t + step + round) % 2 == 0 {
                            let _ = server.detach(&sid);
                        } else if (t + step + round) % 5 == 0 {
                            let _ = server.run(&sid, "quit");
                        }
                    }
                });
            }
        });
        let live = FleetManifest::load(&dir).unwrap().expect("journals");
        let from_journals: Vec<String> = live.sessions.keys().cloned().collect();
        assert_eq!(from_journals, server.session_ids(), "round {round}");
    }
    let acknowledged = server.session_ids();
    server.crash();
    h.stop();
    drop(server);

    let mut h2 = start(cfg);
    assert_eq!(h2.server().session_ids(), acknowledged, "recovered set != acknowledged live set");
    h2.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Attach `sid` for tenant `acme`, retrying while another thread is
/// mid-attach or mid-detach on the same id (a retryable refusal).
fn attach_retrying(server: &tioga2_server::Server, sid: &str) {
    loop {
        match server.attach(Some(sid), "acme") {
            Ok(_) => return,
            Err(e) if proto::is_retryable(&e) => std::thread::sleep(Duration::from_millis(1)),
            Err(e) => panic!("attach {sid}: {e}"),
        }
    }
}

/// The interleaving behind a stale `detached`: a detach whose worker is
/// still busy with another client's command, and a reattach of the same
/// id meanwhile.  The reattach must wait for the old worker to close the
/// journal; otherwise the old `detached` lands after the new `attached`
/// and a live session reads as dormant.  The busy command is held in
/// its fsync-on-commit by a journal IO hook that stalls this test's
/// worker once.
#[test]
fn reattach_waits_for_the_detaching_worker() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    static STALL: AtomicBool = AtomicBool::new(false);
    let dir = scratch("reattach_wait");
    let cfg =
        ServerConfig { journal_dir: Some(dir.clone()), fsync: true, ..ServerConfig::default() };
    let mut h = start(cfg);
    // Installed after the server exists, so its once-per-process fault
    // bridge cannot replace this hook; no test here arms fault sites.
    journal::set_io_fault_hook(Some(Arc::new(|_site: &str, _coord: u64| {
        let ours = std::thread::current().name() == Some("tiogad-slowsync");
        if ours && STALL.swap(false, Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(150));
        }
        Ok(())
    })));
    let server = h.server().clone();
    for round in 0..3 {
        server.attach(Some("slowsync"), "acme").unwrap();
        STALL.store(true, Ordering::SeqCst);
        std::thread::scope(|scope| {
            scope.spawn(|| server.run("slowsync", "tables"));
            std::thread::sleep(Duration::from_millis(20));
            scope.spawn(|| server.detach("slowsync"));
            std::thread::sleep(Duration::from_millis(20));
            attach_retrying(&server, "slowsync");
        });
        let live = FleetManifest::load(&dir).unwrap().expect("journal");
        let from_journals: Vec<String> = live.sessions.keys().cloned().collect();
        assert_eq!(from_journals, server.session_ids(), "round {round}");
        assert_eq!(from_journals, vec!["slowsync"], "round {round}");
        server.detach("slowsync").unwrap();
    }
    h.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A journal's file stem is its session id, so ids that are not safe
/// file stems are refused instead of being mapped onto another file.
#[test]
fn session_ids_must_be_safe_file_stems() {
    let mut h = start(ServerConfig::default());
    for bad in ["../x", "a.b", "a/b", "a_b\\"] {
        let err = h.server().attach(Some(bad), "t").unwrap_err();
        assert!(err.contains("may hold only"), "{err}");
    }
    h.server().attach(Some("ok-1_é"), "t").unwrap();
    h.stop();
}

#[test]
fn torn_journal_tail_is_dropped_not_fatal() {
    let dir = scratch("torn");
    let cfg = ServerConfig { journal_dir: Some(dir.clone()), ..ServerConfig::default() };
    let mut h = start(cfg.clone());
    let mut c = Client::connect(h.addr()).unwrap();
    c.attach(Some("s"), None).unwrap().unwrap();
    c.run("table Stations").unwrap().unwrap();
    let before = c.run("show 0 5").unwrap().unwrap();
    // One more command whose loss cannot affect box 0: its journal
    // record becomes the torn tail.
    c.run("table Stations").unwrap().unwrap();
    h.server().crash();
    h.stop();

    // Simulate a crash mid-append: chop the *final* record in half
    // (never earlier lines — those were acknowledged durable).
    let path = dir.join("s.jsonl");
    let text = std::fs::read_to_string(&path).unwrap();
    let body = text.strip_suffix('\n').unwrap_or(&text);
    let last_start = body.rfind('\n').map(|i| i + 1).unwrap_or(0);
    let keep = (last_start + (body.len() - last_start) / 2).max(last_start + 1);
    std::fs::write(&path, &text[..keep]).unwrap();

    let mut h2 = start(cfg);
    let mut c = Client::connect(h2.addr()).unwrap();
    c.attach(Some("s"), None).unwrap().unwrap();
    // The torn record was never acknowledged durable; everything before
    // it must replay exactly.
    assert_eq!(before, c.run("show 0 5").unwrap().unwrap());
    let stats = c.run("stats").unwrap().unwrap();
    assert!(stats.contains("torn_tails=1"), "{stats}");
    h2.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn foreign_live_lockfile_refuses_boot() {
    let dir = scratch("lock");
    std::fs::create_dir_all(&dir).unwrap();
    // pid 1 is init: always alive, never us.
    std::fs::write(dir.join("tiogad.lock"), "1\n").unwrap();
    let cfg = ServerConfig { journal_dir: Some(dir.clone()), ..ServerConfig::default() };
    let err = ServerHandle::start(catalog(8), cfg, "127.0.0.1:0")
        .err()
        .expect("a live foreign lock must refuse boot");
    assert!(err.to_string().contains("lock"), "{err}");

    // A *dead* holder's lock is reclaimed; u32::MAX is above any real
    // pid_max, so no process ever holds it.
    std::fs::write(dir.join("tiogad.lock"), format!("{}\n", u32::MAX)).unwrap();
    let lock = DirLock::acquire(&dir).expect("stale lock must be reclaimed");
    drop(lock);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn metrics_scrape_tolerates_split_and_stalled_requests() {
    let cfg = ServerConfig { metrics_addr: Some("127.0.0.1:0".into()), ..ServerConfig::default() };
    let mut h = start(cfg);
    let maddr = h.metrics_addr().expect("metrics listener");

    // Request line split across three writes with pauses: the listener
    // must accumulate, not 400 on the first fragment.
    let mut s = std::net::TcpStream::connect(maddr).unwrap();
    for part in ["GET /met", "rics HT", "TP/1.0\r\n\r\n"] {
        s.write_all(part.as_bytes()).unwrap();
        s.flush().unwrap();
        std::thread::sleep(Duration::from_millis(30));
    }
    let mut response = String::new();
    s.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.0 200"), "{response}");
    assert!(response.contains("tioga2_daemon_uptime_seconds"), "{response}");

    // A peer that never finishes its request line gets 408, not a
    // pinned listener thread.
    let mut stall = std::net::TcpStream::connect(maddr).unwrap();
    stall.write_all(b"GET /metrics").unwrap(); // no newline, ever
    let mut response = String::new();
    stall.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.0 408"), "{response}");

    // And while that one stalled, a second scrape was never blocked.
    let mut ok = std::net::TcpStream::connect(maddr).unwrap();
    ok.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    let mut response = String::new();
    ok.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.0 200"), "{response}");
    h.stop();
}

#[test]
fn fsync_on_commit_counts_syncs_and_survives_restart() {
    let dir = scratch("fsync");
    let cfg =
        ServerConfig { journal_dir: Some(dir.clone()), fsync: true, ..ServerConfig::default() };
    let mut h = start(cfg.clone());
    let mut c = Client::connect(h.addr()).unwrap();
    c.attach(Some("s"), None).unwrap().unwrap();
    c.run("table Stations").unwrap().unwrap();
    c.run("restrict 0 state = 'LA'").unwrap().unwrap();
    let before = c.run("show 1 5").unwrap().unwrap();
    let stats = c.run("stats").unwrap().unwrap();
    assert!(stats.contains("fsync=on"), "{stats}");
    h.server().crash();
    h.stop();

    let mut h2 = start(cfg);
    let mut c = Client::connect(h2.addr()).unwrap();
    c.attach(Some("s"), None).unwrap().unwrap();
    assert_eq!(before, c.run("show 1 5").unwrap().unwrap());
    h2.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
