//! `tiogad` — the Tioga-2 multi-session daemon.
//!
//! ```sh
//! tiogad --addr 127.0.0.1:7104                 # serve the standard catalog
//! tiogad --addr 127.0.0.1:0 --port-file p.txt  # ephemeral port for scripts
//! tiogad --journal-dir out/sessions            # durable per-session journals
//! tiogad --fsync                               # fsync-on-commit durability
//! tiogad --budget "rows=100000 ms=2000"        # default per-session budget
//! tiogad --metrics-addr 127.0.0.1:9104         # HTTP GET /metrics scrape
//! tiogad --slowlog 250                         # capture demands over 250ms
//! tiogad --idle-evict-ms 60000                 # reap sessions idle >60s
//! ```
//!
//! Clients speak the framed line protocol of `tioga2_server::proto`:
//! `attach [session [tenant]]`, then any REPL command line, `stats`,
//! `metrics`, `slowlog`, `detach`, `shutdown`, and `shutdown drain`
//! (graceful: finish in-flight demands, close every journal with a
//! `drained` record, fsync, exit).  SIGTERM takes the same graceful-drain
//! path; with a `--journal-dir`, a SIGKILLed daemon recovers its whole
//! fleet on the next start: every journal it left open (last lifecycle
//! record `attached`) is replayed.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use tioga2_datagen::register_standard_catalog;
use tioga2_relational::{govern::parse_budget_spec, Catalog};
use tioga2_server::{ServerConfig, ServerHandle};

fn usage() -> ! {
    eprintln!(
        "usage: tiogad [--addr HOST:PORT] [--port-file PATH] [--journal-dir DIR] [--fsync]\n\
         \x20             [--budget SPEC] [--max-sessions N] [--max-per-tenant N] [--queue-depth N]\n\
         \x20             [--stations N] [--obs-per-station N]\n\
         \x20             [--metrics-addr HOST:PORT] [--metrics-port-file PATH]\n\
         \x20             [--slowlog MS] [--no-telemetry]\n\
         \x20             [--drain-ms MS] [--idle-evict-ms MS] [--conn-timeout-ms MS]"
    );
    std::process::exit(2)
}

/// SIGTERM → graceful drain.  std-only signal handling: the handler
/// just flips an atomic; a monitor thread does the actual drain (no
/// async-signal-safety worries).
static TERM: AtomicBool = AtomicBool::new(false);

extern "C" fn on_term(_sig: i32) {
    TERM.store(true, Ordering::SeqCst);
}

#[cfg(unix)]
fn install_sigterm() {
    // Hand-declared to stay dependency-free (no libc crate): SIGTERM is
    // 15 on every unix this builds on, and signal(2) with a handler fn
    // pointer is all we need.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_term as extern "C" fn(i32) as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_sigterm() {}

fn main() -> std::io::Result<()> {
    let mut addr = "127.0.0.1:7104".to_string();
    let mut port_file: Option<PathBuf> = None;
    let mut metrics_port_file: Option<PathBuf> = None;
    let mut cfg = ServerConfig::default();
    let mut stations = 300usize;
    let mut obs_per = 24usize;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--addr" => addr = value("--addr"),
            "--port-file" => port_file = Some(PathBuf::from(value("--port-file"))),
            "--journal-dir" => cfg.journal_dir = Some(PathBuf::from(value("--journal-dir"))),
            "--fsync" => cfg.fsync = true,
            "--budget" => {
                let spec = value("--budget");
                cfg.default_budget =
                    Some(parse_budget_spec(&spec).filter(|b| !b.is_empty()).unwrap_or_else(|| {
                        eprintln!("'{spec}' is not a budget (rows=<n> ms=<n>)");
                        usage()
                    }));
            }
            "--max-sessions" => {
                cfg.max_sessions = value("--max-sessions").parse().unwrap_or_else(|_| usage())
            }
            "--max-per-tenant" => {
                cfg.max_per_tenant = value("--max-per-tenant").parse().unwrap_or_else(|_| usage())
            }
            "--queue-depth" => {
                cfg.queue_depth = value("--queue-depth").parse().unwrap_or_else(|_| usage())
            }
            "--metrics-addr" => cfg.metrics_addr = Some(value("--metrics-addr")),
            "--metrics-port-file" => {
                metrics_port_file = Some(PathBuf::from(value("--metrics-port-file")))
            }
            "--slowlog" => {
                cfg.slowlog_ms = Some(value("--slowlog").parse().unwrap_or_else(|_| usage()))
            }
            "--drain-ms" => {
                cfg.drain_deadline_ms = value("--drain-ms").parse().unwrap_or_else(|_| usage())
            }
            "--idle-evict-ms" => {
                cfg.idle_evict_ms =
                    Some(value("--idle-evict-ms").parse().unwrap_or_else(|_| usage()))
            }
            "--conn-timeout-ms" => {
                cfg.conn_timeout_ms = value("--conn-timeout-ms").parse().unwrap_or_else(|_| usage())
            }
            "--no-telemetry" => cfg.telemetry = false,
            "--stations" => stations = value("--stations").parse().unwrap_or_else(|_| usage()),
            "--obs-per-station" => {
                obs_per = value("--obs-per-station").parse().unwrap_or_else(|_| usage())
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag '{other}'");
                usage()
            }
        }
    }

    if cfg.fsync && cfg.journal_dir.is_none() {
        eprintln!("--fsync needs --journal-dir (there is nothing to sync)");
        usage()
    }

    install_sigterm();
    let catalog = Catalog::new();
    register_standard_catalog(&catalog, stations, obs_per, 42);
    let mut handle = ServerHandle::start(catalog, cfg, &addr)?;
    let bound = handle.addr();
    if let Some(pf) = &port_file {
        std::fs::write(pf, bound.port().to_string())?;
    }
    if let Some(maddr) = handle.metrics_addr() {
        if let Some(pf) = &metrics_port_file {
            std::fs::write(pf, maddr.port().to_string())?;
        }
        eprintln!("tiogad metrics on http://{maddr}/metrics");
    }
    eprintln!("tiogad listening on {bound} ({stations} stations x {obs_per} observations)");

    // SIGTERM monitor: drain, then stop the accept loop so wait()
    // returns and the process exits 0.
    {
        let server = handle.server().clone();
        std::thread::Builder::new().name("tiogad-sigterm".into()).spawn(move || loop {
            if TERM.load(Ordering::SeqCst) {
                eprintln!("tiogad: SIGTERM, draining");
                server.drain();
                server.shutdown();
                return;
            }
            if server.is_shutdown() {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        })?;
    }

    handle.wait();
    eprintln!("tiogad: clean shutdown");
    Ok(())
}
