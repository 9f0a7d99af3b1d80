//! Fleet-level network-fault chaos: arm the `net.*` and `journal.fsync`
//! chaos sites on a live tiogad, drive sessions through [`RetryClient`],
//! kill the daemon, restart it, and require
//!
//! * **byte-identical recovery** — every session's demand output after
//!   the restart equals its pre-crash output;
//! * **exactly-once retries** — lost replies, torn frames, and dropped
//!   connections make the client resend, but request-id duplicate
//!   suppression means no command ever applies twice (the program has
//!   exactly as many boxes as commands issued).
//!
//! The fault registry is process-global, so every test here serializes
//! on one mutex and disarms the plan before releasing it.

use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;
use tioga2::datagen::register_standard_catalog;
use tioga2::relational::{fault, Catalog, FaultPlan};
use tioga2_server::{Client, RetryClient, RetryPolicy, ServerConfig, ServerHandle};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|e| e.into_inner())
}

/// Arm a global plan for the duration of a scope; disarm on drop even if
/// the test panics (the next test must start from a clean registry).
struct Armed;
impl Armed {
    fn new(spec: &str) -> Armed {
        fault::install(Some(FaultPlan::parse(spec).expect("valid fault spec")));
        Armed
    }
}
impl Drop for Armed {
    fn drop(&mut self) {
        fault::install(None);
    }
}

fn catalog() -> Catalog {
    let c = Catalog::new();
    register_standard_catalog(&c, 60, 3, 7);
    c
}

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tioga2_fleet_chaos_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start(dir: &std::path::Path) -> ServerHandle {
    let cfg = ServerConfig { journal_dir: Some(dir.to_path_buf()), ..ServerConfig::default() };
    ServerHandle::start(catalog(), cfg, "127.0.0.1:0").expect("bind")
}

fn retry_client(addr: std::net::SocketAddr) -> RetryClient {
    let policy = RetryPolicy {
        attempts: 8,
        base: Duration::from_millis(5),
        cap: Duration::from_millis(100),
        timeout: Duration::from_secs(5),
    };
    RetryClient::connect_with(addr.to_string(), policy)
}

/// The fixed per-session workload: three program-building commands, so
/// exactly-once execution is observable as exactly three program lines.
const WORKLOAD: [&str; 3] = ["table Stations", "restrict 0 state = 'LA'", "restrict 0 id >= 0"];

fn drive(addr: std::net::SocketAddr, sid: &str) -> (RetryClient, String) {
    let mut c = retry_client(addr);
    c.attach(Some(sid), Some("chaos")).expect("attach despite faults");
    for cmd in WORKLOAD {
        c.run(cmd).expect("retry budget").expect(cmd);
    }
    let show = c.run("show 2 5").expect("retry budget").expect("show");
    (c, show)
}

fn assert_exactly_once(c: &mut RetryClient) {
    let program = c.run("program").unwrap().unwrap();
    assert_eq!(
        program.lines().count(),
        WORKLOAD.len(),
        "retries must never double-apply:\n{program}"
    );
}

/// The matrix heart: run the workload under an armed fault spec, kill
/// the daemon (SIGKILL semantics: no retire, journals left open, lock
/// left), restart on the same journal dir, and compare bytes.
fn kill_restart_under(spec: &str, name: &str) {
    let _guard = serial();
    let dir = scratch(name);
    let shows: Vec<(String, String)>;
    {
        let _armed = Armed::new(spec);
        let mut h = start(&dir);
        let mut fleet = Vec::new();
        for i in 0..3 {
            let sid = format!("chaos{i}");
            let (mut c, show) = drive(h.addr(), &sid);
            assert_exactly_once(&mut c);
            fleet.push((sid, show, c));
        }
        shows = fleet.iter().map(|(sid, show, _)| (sid.clone(), show.clone())).collect();
        h.server().crash();
        h.stop();
    } // faults disarmed: the restart itself runs clean

    let mut h2 = start(&dir);
    assert_eq!(
        h2.server().session_ids(),
        vec!["chaos0", "chaos1", "chaos2"],
        "restart must rebuild the whole fleet ({spec})"
    );
    for (sid, before) in &shows {
        let mut c = retry_client(h2.addr());
        c.attach(Some(sid), Some("chaos")).unwrap();
        let after = c.run("show 2 5").unwrap().unwrap();
        assert_eq!(before, &after, "session '{sid}' must recover byte-identically ({spec})");
        assert_exactly_once(&mut c);
    }
    h2.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_restart_with_dropped_connections() {
    // Every connection's second frame (the first command after attach)
    // is dropped before its reply — the client must reconnect, reattach,
    // and resend without double-applying.
    kill_restart_under("net.disconnect:1=err", "disconnect");
}

#[test]
fn kill_restart_with_torn_reply_frames() {
    // Frame 2's reply is cut mid-frame: the client sees a torn frame
    // (unexpected EOF mid-payload), not a hang, and retries.
    kill_restart_under("net.torn_frame:2=err", "torn");
}

#[test]
fn kill_restart_with_stalled_replies() {
    // Frame 1's reply stalls (100ms); the client deadline is generous
    // here, so this exercises the socket deadlines *not* firing early.
    kill_restart_under("net.stall:1=err", "stall");
}

#[test]
fn kill_restart_with_fsync_faults() {
    // The journal fsync site fires on one coordinate; that command is
    // refused (durability could not be acknowledged), later ones
    // proceed, and restart recovery still converges.
    let _guard = serial();
    let dir = scratch("fsync");
    let cfg =
        ServerConfig { journal_dir: Some(dir.clone()), fsync: true, ..ServerConfig::default() };
    let before;
    {
        let _armed = Armed::new("journal.fsync:2=err");
        let mut h = ServerHandle::start(catalog(), cfg.clone(), "127.0.0.1:0").unwrap();
        let mut c = retry_client(h.addr());
        c.attach(Some("f"), Some("chaos")).unwrap();
        let mut outcomes = Vec::new();
        for cmd in WORKLOAD {
            outcomes.push(c.run(cmd).expect("io"));
        }
        // At least one command tripped the fsync fault and was refused
        // with a structured error naming the journal.
        let failed: Vec<&String> = outcomes.iter().filter_map(|o| o.as_ref().err()).collect();
        assert!(
            failed.iter().all(|e| e.contains("journal fsync failed")),
            "fsync faults must surface structurally: {failed:?}"
        );
        before = c.run("show 0 3").expect("io").expect("session stays usable");
        h.server().crash();
        h.stop();
    }

    let mut h2 = ServerHandle::start(catalog(), cfg, "127.0.0.1:0").unwrap();
    let mut c = retry_client(h2.addr());
    c.attach(Some("f"), Some("chaos")).unwrap();
    assert_eq!(before, c.run("show 0 3").unwrap().unwrap());
    h2.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn retry_counters_record_the_fight() {
    let _guard = serial();
    let dir = scratch("counters");
    // Frame 0 is the attach; frame 2 is a stamped workload command —
    // dropping its reply forces a stamped resend, which must be answered
    // from the worker's dedup cache.
    let _armed = Armed::new("net.disconnect:2=err");
    let mut h = start(&dir);
    let (c, _show) = drive(h.addr(), "counted");
    let stats = c.stats();
    assert!(stats.retries >= 1, "disconnects must force retries: {stats:?}");
    assert!(stats.reconnects >= 2, "each drop must reconnect: {stats:?}");
    // Server side: the dedup cache answered at least one replay.
    let mut raw = Client::connect(h.addr()).unwrap();
    let text = raw.run("stats").unwrap().unwrap();
    let dedup: u64 = text
        .split("dedup_hits=")
        .nth(1)
        .and_then(|t| t.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or(0);
    assert!(dedup >= 1, "replays must hit the dedup cache:\n{text}");
    h.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn env_spec_accepts_net_sites() {
    // `TIOGA2_FAULTS=net.disconnect:3=err,journal.fsync=err` must parse:
    // the chaos sites ride the same registry grammar as engine sites.
    let plan =
        FaultPlan::parse("net.disconnect:3=err,net.torn_frame=panic,journal.fsync:7=err").unwrap();
    assert_eq!(plan.specs().len(), 3);
    assert!(plan.check("net.disconnect", 3).is_some());
    assert!(plan.check("net.disconnect", 2).is_none());
    assert!(plan.check("net.torn_frame", 99).is_some());
    assert!(plan.check("journal.fsync", 7).is_some());
}
