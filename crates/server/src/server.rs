//! The tiogad runtime: many [`Session`]s over one shared catalog.
//!
//! Architecture (one box per thread):
//!
//! ```text
//!                    ┌───────────────┐
//!   TCP clients ───▶ │  accept loop  │
//!                    └──────┬────────┘
//!                           │ one thread per connection
//!                  ┌────────▼─────────┐     verbs: attach/detach/
//!                  │ connection thread │     stats/shutdown, else a
//!                  └────────┬─────────┘     core::command line
//!                           │ bounded sync_channel (admission queue)
//!                  ┌────────▼─────────┐
//!                  │  session worker  │  owns one Session over
//!                  │  (one per sid)   │  base.fork() + its journal
//!                  └──────────────────┘
//! ```
//!
//! Every session runs over [`Catalog::fork`]: base relations are
//! `Arc`-shared snapshots (one allocation no matter how many sessions),
//! and a session's `update.rs` writes copy-on-write diverge only its own
//! table — sessions never observe each other's edits.
//!
//! Admission control (built on PR 5's budget/cancel machinery):
//! * **session caps** — at most `max_sessions` live sessions, at most
//!   `max_per_tenant` per tenant; excess `attach`es are refused.
//! * **bounded demand queue** — each session's command queue holds at
//!   most `queue_depth` entries; when full, commands are refused with a
//!   structured error instead of queueing unboundedly.
//! * **supersede** — a newly arriving demand-class command (`show`,
//!   `render`, `:explain analyze`) cancels the session's in-flight
//!   demand via [`SupersedeHandle`]: the newest gesture wins (§6).
//! * **tenant budgets** — each session runs under its tenant's row/
//!   wall-clock budget (or the server default).

use crate::proto::{
    next_request_id, retryable, split_rid, write_frame, FrameEvent, FrameReader, Reply,
};
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tioga2_core::command::{self, Command, Response};
use tioga2_core::{Environment, Session, SupersedeHandle};
use tioga2_obs::export::{escape_json, histogram_series};
use tioga2_obs::journal::{ATTACHED, DETACHED, DRAINED};
use tioga2_obs::{
    DirLock, FleetManifest, FleetRecorder, Histogram, InMemoryRecorder, SessionEvent, SlowLog,
};
use tioga2_relational::{fault, Budget, Catalog};

/// Server configuration.
#[derive(Clone)]
pub struct ServerConfig {
    /// Most live sessions, across all tenants.
    pub max_sessions: usize,
    /// Most live sessions per tenant.
    pub max_per_tenant: usize,
    /// Bounded per-session command queue depth.
    pub queue_depth: usize,
    /// Default per-session demand budget (tenant overrides win).
    pub default_budget: Option<Budget>,
    /// Per-tenant demand budgets, keyed by tenant name.
    pub tenant_budgets: BTreeMap<String, Budget>,
    /// Directory for per-session journals; `None` disables durability.
    /// A re-`attach` of a dead session id recovers from its journal.
    pub journal_dir: Option<PathBuf>,
    /// Fleet telemetry: give every session an [`InMemoryRecorder`] and
    /// aggregate them in a [`FleetRecorder`] under `{tenant, session}`
    /// labels.  Off = sessions keep the noop recorder (the A11 ablation
    /// baseline).
    pub telemetry: bool,
    /// Bind a second listener serving `GET /metrics` Prometheus text
    /// (use port 0 for an ephemeral port); `None` disables it.  The
    /// `metrics` protocol verb works either way.
    pub metrics_addr: Option<String>,
    /// Arm the fleet-wide slow-demand log at this threshold (ms);
    /// `None` defers to the `TIOGA2_SLOWLOG` env var.
    pub slowlog_ms: Option<u64>,
    /// Durability-on-commit: fsync a session's journal after every
    /// executed command, *before* the reply frame is sent.  A positive
    /// reply then means the edit is on stable storage.  Requires
    /// `journal_dir`; measured <5% on the A12 gesture workload.
    pub fsync: bool,
    /// How long a graceful drain lets in-flight demands run before
    /// cancelling them via their supersede handles.
    pub drain_deadline_ms: u64,
    /// Evict sessions idle longer than this (journal-backed: flush +
    /// detach, a later `attach` recovers them).  `None` disables
    /// reaping; ignored without a `journal_dir` since eviction would
    /// otherwise lose state.
    pub idle_evict_ms: Option<u64>,
    /// Per-connection socket read/write deadline.  Reads at a frame
    /// boundary merely poll shutdown flags on expiry; a peer stalled
    /// *mid-frame* (or a write blocked this long) tears the connection.
    pub conn_timeout_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_sessions: 64,
            max_per_tenant: 16,
            queue_depth: 8,
            default_budget: None,
            tenant_budgets: BTreeMap::new(),
            journal_dir: None,
            telemetry: true,
            metrics_addr: None,
            slowlog_ms: None,
            fsync: false,
            drain_deadline_ms: 2_000,
            idle_evict_ms: None,
            conn_timeout_ms: 30_000,
        }
    }
}

/// One queued command plus the channel its reply goes back on.  `rid`
/// is the request id stamped on the protocol frame (or minted by
/// [`Server::run`]); the worker installs it in the session so the
/// demand trace, journal event, and slow log all carry it.  `stamped`
/// records whether the *client* chose the rid: only those enter the
/// worker's duplicate-suppression cache — client counters and the
/// server's minting counter are independent namespaces, so a minted
/// rid must never be allowed to answer for a stamped retry.
struct Job {
    line: String,
    rid: u64,
    stamped: bool,
    reply: SyncSender<JobReply>,
}

/// Worker's answer: the command outcome plus whether the session quit.
/// `Clone` so the worker's duplicate-suppression cache can re-serve it
/// when a retried frame carries an already-executed request id.
#[derive(Clone)]
struct JobReply {
    result: Result<String, String>,
    quit: bool,
}

/// One hosted session: its admission queue, supersede handle, forked
/// catalog (for the storage proof), and worker thread.
struct SessionSlot {
    tenant: String,
    tx: SyncSender<Job>,
    supersede: SupersedeHandle,
    catalog: Catalog,
    worker: Option<JoinHandle<()>>,
    /// Last admission into this session — the idle reaper's clock.
    last_used: Instant,
    /// How the worker closes its journal once its queue ends: the
    /// lifecycle state (`detached`/`drained`) it records.  Left unset by
    /// a crash, so the journal stays live for restart recovery.
    close_as: Arc<OnceLock<&'static str>>,
}

/// Shared server state.
pub struct Server {
    base: Catalog,
    cfg: ServerConfig,
    slots: Mutex<BTreeMap<String, SessionSlot>>,
    next_sid: AtomicU64,
    shutdown: AtomicBool,
    // Live connection sockets, so shutdown can unblock their readers.
    conns: Mutex<BTreeMap<u64, TcpStream>>,
    next_conn: AtomicU64,
    // Fleet telemetry: per-session recorders aggregated under
    // {tenant, session} labels, plus the shared slow-demand ring.
    fleet: Arc<FleetRecorder>,
    slowlog: Arc<SlowLog>,
    started: Instant,
    // Daemon-level admission counters (monotonic).
    attaches: AtomicU64,
    refused_max_sessions: AtomicU64,
    refused_max_per_tenant: AtomicU64,
    queue_full: AtomicU64,
    // --- crash durability & drain state (PR 10) ---
    /// Set by `shutdown drain` / SIGTERM: stop admitting, finish
    /// in-flight work, record `drained` in every journal, fsync, exit.
    draining: AtomicBool,
    /// Session ids mid-attach (worker building/recovering) or
    /// mid-detach (worker closing its journal) — counted against the
    /// caps but not in `slots`, so attach does not hold the slots lock
    /// across an expensive journal recovery, and never opens a journal
    /// whose previous worker has not yet closed it.
    reserved: Mutex<BTreeMap<String, String>>,
    /// Exclusive claim on the journal dir (held for the server's life).
    dir_lock: Mutex<Option<DirLock>>,
    /// Sessions rebuilt from journals (startup recovery + reattach).
    recoveries: AtomicU64,
    /// Journals whose final record was torn by a crash mid-append.
    torn_tails: AtomicU64,
    /// Journal-backed evictions, by reason.
    evictions_idle: AtomicU64,
    evictions_drain: AtomicU64,
    /// Retried frames answered from a worker's duplicate-suppression
    /// cache instead of re-executing (the server-visible face of client
    /// retries).
    dedup_hits: Arc<AtomicU64>,
    /// Server-wide reply frames served; the coordinate stream for the
    /// `net.*` chaos sites.
    net_frames: AtomicU64,
    /// Wall time of completed drains (ms).
    drain_hist: Mutex<Histogram>,
}

/// What startup fleet recovery found in the journal directory.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// Sessions rebuilt from their journals (sorted by id).
    pub recovered: Vec<String>,
    /// Sessions whose journals refused to load, with the reason — they
    /// refuse `attach` with the same error but never fail the boot.
    pub damaged: Vec<(String, String)>,
    /// Whether the previous daemon closed every journal it hosted
    /// (detach or drain) before it stopped.
    pub clean_shutdown: bool,
}

/// The shared-snapshot memory proof: across the base catalog and every
/// live session, how many distinct tuple allocations back each table.
#[derive(Debug, Clone, PartialEq)]
pub struct StorageProof {
    /// Live session count.
    pub sessions: usize,
    /// Base tables examined.
    pub tables: usize,
    /// The worst table's distinct-allocation count (1 = every session
    /// shares the base allocation; >1 = some session wrote and COW
    /// diverged).
    pub max_distinct_allocations: usize,
}

impl Server {
    pub fn new(base: Catalog, cfg: ServerConfig) -> Arc<Server> {
        Self::install_io_fault_bridge();
        let slowlog = match cfg.slowlog_ms {
            Some(ms) => {
                let log = SlowLog::new();
                log.arm_ms(ms);
                log
            }
            None => SlowLog::from_env(),
        };
        Arc::new(Server {
            base,
            cfg,
            slots: Mutex::new(BTreeMap::new()),
            next_sid: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(BTreeMap::new()),
            next_conn: AtomicU64::new(1),
            fleet: Arc::new(FleetRecorder::new()),
            slowlog: Arc::new(slowlog),
            started: Instant::now(),
            attaches: AtomicU64::new(0),
            refused_max_sessions: AtomicU64::new(0),
            refused_max_per_tenant: AtomicU64::new(0),
            queue_full: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            reserved: Mutex::new(BTreeMap::new()),
            dir_lock: Mutex::new(None),
            recoveries: AtomicU64::new(0),
            torn_tails: AtomicU64::new(0),
            evictions_idle: AtomicU64::new(0),
            evictions_drain: AtomicU64::new(0),
            dedup_hits: Arc::new(AtomicU64::new(0)),
            drain_hist: Mutex::new(Histogram::default()),
            net_frames: AtomicU64::new(0),
        })
    }

    /// Bridge the obs journal's IO fault hook to the process-global
    /// fault registry, arming the `journal.fsync` chaos site.  Installed
    /// once per process; near-free when `TIOGA2_FAULTS` is unset (one
    /// atomic load per fsync).
    fn install_io_fault_bridge() {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            tioga2_obs::journal::set_io_fault_hook(Some(Arc::new(|site: &str, coord: u64| {
                fault::trip_global(site, coord).map_err(|e| e.to_string())
            })));
        });
    }

    /// The fleet-wide metrics aggregator (per-session recorders under
    /// `{tenant, session}` labels).
    pub fn fleet(&self) -> &Arc<FleetRecorder> {
        &self.fleet
    }

    /// The shared slow-demand ring every hosted session reports into.
    pub fn slowlog(&self) -> &Arc<SlowLog> {
        &self.slowlog
    }

    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// `<journal_dir>/<sid>.jsonl`.  Attach admits only ids that are
    /// safe file stems, so the file name maps back to the id exactly.
    fn journal_path(&self, sid: &str) -> Option<PathBuf> {
        self.cfg.journal_dir.as_ref().map(|d| d.join(format!("{sid}.jsonl")))
    }

    /// Attach (create or join) the session `sid` for `tenant`.  Enforces
    /// the session caps; a dead session id with a journal on disk is
    /// recovered instead of recreated blank.
    ///
    /// The slots lock is *not* held while the worker builds (possibly
    /// recovers) the session: the id is reserved first, so concurrent
    /// attaches — startup recovery runs many in parallel — only
    /// serialize on the cheap bookkeeping.
    pub fn attach(&self, sid: Option<&str>, tenant: &str) -> Result<String, String> {
        let sid = match sid {
            Some(s) if !s.chars().all(|c| c.is_alphanumeric() || c == '-' || c == '_') => {
                return Err(format!(
                    "admission denied: session id '{s}' may hold only letters, digits, '-' and '_'"
                ));
            }
            Some(s) => s.to_string(),
            // Anonymous attach mints an id — skipping any that is live,
            // reserved, or has a journal on disk (after a restart the
            // counter starts over, but recovered sessions and dormant
            // journals still own their ids).
            None => loop {
                let cand = format!("s{}", self.next_sid.fetch_add(1, Ordering::Relaxed));
                let taken = self.slots.lock().unwrap().contains_key(&cand)
                    || self.reserved.lock().unwrap().contains_key(&cand)
                    || self.journal_path(&cand).map(|p| p.exists()).unwrap_or(false);
                if !taken {
                    break cand;
                }
            },
        };
        // Phase 1: caps + reservation, under the locks.
        {
            let mut slots = self.slots.lock().unwrap();
            let mut reserved = self.reserved.lock().unwrap();
            if let Some(slot) = slots.get_mut(&sid) {
                if slot.tenant != tenant {
                    return Err(format!(
                        "admission denied: session '{sid}' belongs to tenant '{}'",
                        slot.tenant
                    ));
                }
                slot.last_used = Instant::now();
                return Ok(sid); // joining an existing session is free
            }
            if self.draining.load(Ordering::SeqCst) || self.is_shutdown() {
                return Err(retryable("admission denied: server is draining"));
            }
            if reserved.contains_key(&sid) {
                return Err(retryable(format!("session '{sid}' is attaching or detaching")));
            }
            if slots.len() + reserved.len() >= self.cfg.max_sessions {
                self.refused_max_sessions.fetch_add(1, Ordering::Relaxed);
                return Err(format!(
                    "admission denied: server is at max_sessions={}",
                    self.cfg.max_sessions
                ));
            }
            let tenant_count = slots.values().filter(|s| s.tenant == tenant).count()
                + reserved.values().filter(|t| t.as_str() == tenant).count();
            if tenant_count >= self.cfg.max_per_tenant {
                self.refused_max_per_tenant.fetch_add(1, Ordering::Relaxed);
                return Err(format!(
                    "admission denied: tenant '{tenant}' is at max_per_tenant={}",
                    self.cfg.max_per_tenant
                ));
            }
            reserved.insert(sid.clone(), tenant.to_string());
        }

        // Phase 2: build the session off-lock; always release the
        // reservation, success or not.
        let built = self.spawn_worker(&sid, tenant);
        let mut slots = self.slots.lock().unwrap();
        self.reserved.lock().unwrap().remove(&sid);
        let (slot, recovered) = built?;
        slots.insert(sid.clone(), slot);
        drop(slots);
        self.attaches.fetch_add(1, Ordering::Relaxed);
        if recovered {
            self.recoveries.fetch_add(1, Ordering::Relaxed);
        }
        Ok(sid)
    }

    /// Spawn the worker thread for a new (or journal-recovered) session
    /// and wait for it to hand back the slot's handles.
    fn spawn_worker(&self, sid: &str, tenant: &str) -> Result<(SessionSlot, bool), String> {
        let budget = self
            .cfg
            .tenant_budgets
            .get(tenant)
            .cloned()
            .or_else(|| self.cfg.default_budget.clone());
        let fork = self.base.fork();
        let journal = self.journal_path(sid);
        if let Some(dir) = &self.cfg.journal_dir {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        }
        let will_recover = journal
            .as_ref()
            .map(|p| std::fs::metadata(p).map(|m| m.len() > 0).unwrap_or(false))
            .unwrap_or(false);

        let (tx, rx) = sync_channel::<Job>(self.cfg.queue_depth);
        let close_as = Arc::new(OnceLock::new());
        let obs = WorkerObs {
            fleet: self.cfg.telemetry.then(|| self.fleet.clone()),
            slowlog: self.slowlog.clone(),
            tenant: tenant.to_string(),
            sid: sid.to_string(),
            fsync: self.cfg.fsync,
            dedup_hits: self.dedup_hits.clone(),
            close_as: close_as.clone(),
        };
        // The session is built on the worker thread (it owns it for
        // life); the supersede handle and forked catalog come back over
        // a one-shot channel so the slot can expose them.
        let (init_tx, init_rx) =
            sync_channel::<Result<(SupersedeHandle, Catalog, bool), String>>(1);
        let worker = std::thread::Builder::new()
            .name(format!("tiogad-{sid}"))
            .spawn(move || session_worker(fork, budget, journal, obs, rx, init_tx))
            .map_err(|e| e.to_string())?;
        let (supersede, catalog, torn) =
            init_rx.recv().map_err(|_| "session worker died during startup".to_string())??;
        if torn {
            self.torn_tails.fetch_add(1, Ordering::Relaxed);
        }
        Ok((
            SessionSlot {
                tenant: tenant.to_string(),
                tx,
                supersede,
                catalog,
                worker: Some(worker),
                last_used: Instant::now(),
                close_as,
            },
            will_recover,
        ))
    }

    /// Detach `sid`: the worker drains its queue, records `detached` in
    /// the journal, fsyncs it, and exits.  With a journal dir configured
    /// the session's state survives on disk and a later `attach` of the
    /// same id recovers it.  The id stays reserved until the worker has
    /// exited, so a concurrent attach is refused (retryably) rather than
    /// opening the journal before `detached` is written.
    pub fn detach(&self, sid: &str) -> Result<(), String> {
        let slot = {
            let mut slots = self.slots.lock().unwrap();
            let slot = slots.remove(sid).ok_or_else(|| format!("no session '{sid}'"))?;
            self.reserved.lock().unwrap().insert(sid.to_string(), slot.tenant.clone());
            slot
        };
        let _ = slot.close_as.set(DETACHED);
        drop(slot.tx);
        if let Some(w) = slot.worker {
            let _ = w.join();
        }
        // After the worker has stopped recording: fold the session's
        // final counters/histograms into the tenant's retired aggregate
        // so fleet totals stay monotonic (no-op when telemetry is off).
        self.fleet.retire(&slot.tenant, sid);
        self.reserved.lock().unwrap().remove(sid);
        Ok(())
    }

    /// Evict every session idle longer than `idle_evict_ms`.  Eviction
    /// is a journal-backed detach — flush, fsync, free the slot — so an
    /// evicted session reattaches with full state.  Skipped entirely
    /// without a journal dir (eviction would lose state).  Returns the
    /// evicted session ids.
    pub fn reap_idle(&self) -> Vec<String> {
        let (Some(ms), Some(_)) = (self.cfg.idle_evict_ms, self.cfg.journal_dir.as_ref()) else {
            return Vec::new();
        };
        if self.draining.load(Ordering::SeqCst) {
            return Vec::new();
        }
        let cutoff = Duration::from_millis(ms);
        let idle: Vec<String> = {
            let slots = self.slots.lock().unwrap();
            slots
                .iter()
                .filter(|(_, slot)| slot.last_used.elapsed() >= cutoff)
                .map(|(sid, _)| sid.clone())
                .collect()
        };
        let mut evicted = Vec::new();
        for sid in idle {
            if self.detach(&sid).is_ok() {
                self.evictions_idle.fetch_add(1, Ordering::Relaxed);
                evicted.push(sid);
            }
        }
        evicted
    }

    /// Whether a graceful drain is underway (exposed by `stats`).
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Graceful drain: stop admitting (attaches and new commands are
    /// refused with a retryable error), let queued and in-flight demands
    /// finish under `drain_deadline_ms` (a watchdog then cancels them
    /// via their supersede handles), and record `drained` in every
    /// journal and fsync it as its worker exits.  Returns the drain wall
    /// time in ms.  Idempotent — a second drain is a no-op.
    pub fn drain(&self) -> u64 {
        if self.draining.swap(true, Ordering::SeqCst) {
            return 0;
        }
        let start = Instant::now();
        let drained: Vec<(String, SessionSlot)> = {
            let mut slots = self.slots.lock().unwrap();
            std::mem::take(&mut *slots).into_iter().collect()
        };
        let n = drained.len() as u64;

        // Deadline watchdog: if the fleet has not finished by the drain
        // deadline, cancel every in-flight demand so workers unblock.
        let cancels: Vec<SupersedeHandle> =
            drained.iter().map(|(_, s)| s.supersede.clone()).collect();
        let deadline = Duration::from_millis(self.cfg.drain_deadline_ms);
        let done = Arc::new(AtomicBool::new(false));
        let done2 = done.clone();
        let watchdog = std::thread::Builder::new()
            .name("tiogad-drain-watchdog".into())
            .spawn(move || {
                let tick = Duration::from_millis(10);
                let begun = Instant::now();
                while !done2.load(Ordering::SeqCst) {
                    if begun.elapsed() >= deadline {
                        for handle in &cancels {
                            handle.cancel_inflight();
                        }
                        return;
                    }
                    std::thread::sleep(tick);
                }
            })
            .ok();

        // Dropping a slot's sender ends its worker's queue; the worker
        // finishes whatever was admitted, records `drained`, fsyncs its
        // journal, and exits.
        for (sid, slot) in drained {
            let _ = slot.close_as.set(DRAINED);
            drop(slot.tx);
            if let Some(w) = slot.worker {
                let _ = w.join();
            }
            self.fleet.retire(&slot.tenant, &sid);
            self.evictions_drain.fetch_add(1, Ordering::Relaxed);
        }
        done.store(true, Ordering::SeqCst);
        if let Some(w) = watchdog {
            let _ = w.join();
        }

        // Every journal now ends in `drained`, so recovery after a clean
        // shutdown starts lazy — journals stay attachable by id.
        let ms = start.elapsed().as_millis() as u64;
        self.drain_hist.lock().unwrap().record(ms);
        eprintln!("tiogad: drained {n} session(s) in {ms} ms");
        ms
    }

    /// Startup recovery: claim the journal dir (lockfile, pid-liveness
    /// stale detection), find the live journals (see [`FleetManifest`]),
    /// and rebuild those sessions — in parallel, bounded — so clients can
    /// reattach to their pre-crash `{tenant, session}` immediately.
    /// Per-session failures (damaged journals) degrade to that session
    /// refusing to attach; they never fail the boot.  Only a foreign *live* daemon holding
    /// the lock is fatal.
    pub fn recover_fleet(&self) -> Result<RecoveryReport, String> {
        let Some(dir) = self.cfg.journal_dir.clone() else {
            return Ok(RecoveryReport::default());
        };
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let lock = DirLock::acquire(&dir)?;
        *self.dir_lock.lock().unwrap() = Some(lock);

        let live = FleetManifest::load(&dir).unwrap_or_else(|e| {
            // An unreadable directory downgrades to lazy recovery.
            eprintln!("tiogad: journal scan failed ({e}); sessions recover on attach");
            None
        });
        let Some(live) = live else { return Ok(RecoveryReport::default()) };
        let mut report =
            RecoveryReport { clean_shutdown: live.clean_shutdown, ..Default::default() };
        // A journal the scan could not read is damaged: attaching it
        // would fail the same way.
        for (sid, e) in live.unreadable {
            report.damaged.push((sid, format!("journal unreadable: {e}")));
        }

        // Bounded parallel rebuild: attach() reserves ids up front and
        // builds off-lock, so K recovery threads overlap journal replay.
        type SessionResults = Vec<(String, Result<(), String>)>;
        let threads = live.sessions.len().min(4);
        let work = Arc::new(Mutex::new(live.sessions.into_iter().collect::<Vec<_>>()));
        let results: Arc<Mutex<SessionResults>> = Arc::new(Mutex::new(Vec::new()));
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let work = work.clone();
                let results = results.clone();
                scope.spawn(move || loop {
                    let Some((sid, tenant)) = work.lock().unwrap().pop() else { break };
                    let out = self.attach(Some(&sid), &tenant).map(|_| ());
                    results.lock().unwrap().push((sid, out));
                });
            }
        });
        let mut results = std::mem::take(&mut *results.lock().unwrap());
        results.sort_by(|a, b| a.0.cmp(&b.0));
        for (sid, out) in results {
            match out {
                Ok(()) => report.recovered.push(sid),
                Err(e) => report.damaged.push((sid, e)),
            }
        }
        report.damaged.sort();
        Ok(report)
    }

    /// Run one command line in session `sid`, minting a fresh request
    /// id.  This is the admission path: demand-class commands supersede
    /// the in-flight demand, and a full queue refuses the command
    /// instead of blocking.
    pub fn run(&self, sid: &str, line: &str) -> Result<(String, bool), String> {
        self.run_req(sid, line, next_request_id(), false)
    }

    /// [`Server::run`] with an explicit request id (the connection loop
    /// stamps one per protocol frame so replies, journal events, and
    /// slowlog entries correlate).  `stamped` marks a client-chosen rid:
    /// only those participate in duplicate suppression, because a
    /// server-minted rid lives in a different counter namespace and may
    /// collide with a client's.
    pub fn run_req(
        &self,
        sid: &str,
        line: &str,
        rid: u64,
        stamped: bool,
    ) -> Result<(String, bool), String> {
        if self.draining.load(Ordering::SeqCst) {
            return Err(retryable("admission denied: server is draining"));
        }
        let (tx, supersede) = {
            let mut slots = self.slots.lock().unwrap();
            let slot = slots.get_mut(sid).ok_or_else(|| format!("no session '{sid}'"))?;
            slot.last_used = Instant::now();
            (slot.tx.clone(), slot.supersede.clone())
        };
        // Parse up front so admission can classify; the worker re-parses
        // (cheap) so its journal and errors are identical to the REPL's.
        if let Ok(Some(cmd)) = Command::parse(line) {
            if cmd.is_demand() {
                supersede.cancel_inflight();
            }
        }
        let (rtx, rrx) = sync_channel::<JobReply>(1);
        match tx.try_send(Job { line: line.to_string(), rid, stamped, reply: rtx }) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) => {
                self.queue_full.fetch_add(1, Ordering::Relaxed);
                return Err(retryable(format!(
                    "admission denied: session '{sid}' queue is full (depth {})",
                    self.cfg.queue_depth
                )));
            }
            Err(TrySendError::Disconnected(_)) => {
                self.slots.lock().unwrap().remove(sid);
                return Err(format!("session '{sid}' worker exited"));
            }
        }
        let reply = rrx.recv().map_err(|_| format!("session '{sid}' worker exited"))?;
        if reply.quit {
            // `quit` ends the hosted session like an explicit detach.
            let _ = self.detach(sid);
        }
        reply.result.map(|body| (body, reply.quit))
    }

    /// The shared-snapshot memory proof over all live sessions.
    pub fn storage_proof(&self) -> StorageProof {
        let slots = self.slots.lock().unwrap();
        let tables = self.base.table_names();
        let mut max_distinct = 0usize;
        for name in &tables {
            let mut ids = std::collections::BTreeSet::new();
            if let Ok(id) = self.base.storage_id(name) {
                ids.insert(id);
            }
            for slot in slots.values() {
                if let Ok(id) = slot.catalog.storage_id(name) {
                    ids.insert(id);
                }
            }
            max_distinct = max_distinct.max(ids.len());
        }
        StorageProof {
            sessions: slots.len(),
            tables: tables.len(),
            max_distinct_allocations: max_distinct,
        }
    }

    /// Human-readable `stats` verb output.
    pub fn stats_text(&self) -> String {
        let proof = self.storage_proof();
        let slots = self.slots.lock().unwrap();
        let mut tenants: BTreeMap<&str, usize> = BTreeMap::new();
        for slot in slots.values() {
            *tenants.entry(slot.tenant.as_str()).or_default() += 1;
        }
        let tenants = tenants.iter().map(|(t, n)| format!("{t}={n}")).collect::<Vec<_>>().join(" ");
        let slow = match self.slowlog.threshold_ns() {
            Some(ns) => format!("armed at {} ms", ns / 1_000_000),
            None => "off".to_string(),
        };
        format!(
            "sessions={} max_sessions={} queue_depth={}\ntenants: {}\nstorage: {} base table(s), max {} allocation(s) per table across all sessions\nuptime: {}s  telemetry: {}  slowlog: {}  draining: {}\nadmission: attaches={} refused_max_sessions={} refused_max_per_tenant={} queue_full={}\ndurability: fsync={} recoveries={} torn_tails={} evictions_idle={} evictions_drain={} dedup_hits={}",
            proof.sessions,
            self.cfg.max_sessions,
            self.cfg.queue_depth,
            if tenants.is_empty() { "none" } else { &tenants },
            proof.tables,
            proof.max_distinct_allocations,
            self.started.elapsed().as_secs(),
            if self.cfg.telemetry { "on" } else { "off" },
            slow,
            if self.is_draining() { "yes" } else { "no" },
            self.attaches.load(Ordering::Relaxed),
            self.refused_max_sessions.load(Ordering::Relaxed),
            self.refused_max_per_tenant.load(Ordering::Relaxed),
            self.queue_full.load(Ordering::Relaxed),
            if self.cfg.fsync { "on" } else { "off" },
            self.recoveries.load(Ordering::Relaxed),
            self.torn_tails.load(Ordering::Relaxed),
            self.evictions_idle.load(Ordering::Relaxed),
            self.evictions_drain.load(Ordering::Relaxed),
            self.dedup_hits.load(Ordering::Relaxed),
        )
    }

    /// The full Prometheus exposition: daemon-level series (uptime,
    /// live sessions per tenant, admission counters) followed by the
    /// fleet's per-`{tenant, session}` counter and histogram families.
    /// Backs both the `metrics` protocol verb and the HTTP `/metrics`
    /// scrape listener.
    pub fn metrics_text(&self) -> String {
        let mut out = String::new();
        out.push_str("# TYPE tioga2_daemon_uptime_seconds gauge\n");
        out.push_str(&format!(
            "tioga2_daemon_uptime_seconds {}\n",
            self.started.elapsed().as_secs()
        ));
        out.push_str("# TYPE tioga2_daemon_sessions gauge\n");
        let mut tenants: BTreeMap<String, usize> = BTreeMap::new();
        for slot in self.slots.lock().unwrap().values() {
            *tenants.entry(slot.tenant.clone()).or_default() += 1;
        }
        for (tenant, n) in &tenants {
            out.push_str(&format!(
                "tioga2_daemon_sessions{{tenant=\"{}\"}} {n}\n",
                escape_json(tenant)
            ));
        }
        out.push_str("# TYPE tioga2_daemon_attaches_total counter\n");
        out.push_str(&format!(
            "tioga2_daemon_attaches_total {}\n",
            self.attaches.load(Ordering::Relaxed)
        ));
        out.push_str("# TYPE tioga2_daemon_admissions_refused_total counter\n");
        out.push_str(&format!(
            "tioga2_daemon_admissions_refused_total{{reason=\"max_sessions\"}} {}\n",
            self.refused_max_sessions.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "tioga2_daemon_admissions_refused_total{{reason=\"max_per_tenant\"}} {}\n",
            self.refused_max_per_tenant.load(Ordering::Relaxed)
        ));
        out.push_str("# TYPE tioga2_daemon_queue_full_total counter\n");
        out.push_str(&format!(
            "tioga2_daemon_queue_full_total {}\n",
            self.queue_full.load(Ordering::Relaxed)
        ));
        out.push_str("# TYPE tioga2_daemon_slowlog_entries gauge\n");
        out.push_str(&format!("tioga2_daemon_slowlog_entries {}\n", self.slowlog.entries().len()));
        out.push_str("# TYPE tioga2_daemon_draining gauge\n");
        out.push_str(&format!(
            "tioga2_daemon_draining {}\n",
            if self.is_draining() { 1 } else { 0 }
        ));
        out.push_str("# TYPE tioga2_fleet_recoveries_total counter\n");
        out.push_str(&format!(
            "tioga2_fleet_recoveries_total {}\n",
            self.recoveries.load(Ordering::Relaxed)
        ));
        out.push_str("# TYPE tioga2_fleet_torn_tails_total counter\n");
        out.push_str(&format!(
            "tioga2_fleet_torn_tails_total {}\n",
            self.torn_tails.load(Ordering::Relaxed)
        ));
        out.push_str("# TYPE tioga2_fleet_evictions_total counter\n");
        out.push_str(&format!(
            "tioga2_fleet_evictions_total{{reason=\"idle\"}} {}\n",
            self.evictions_idle.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "tioga2_fleet_evictions_total{{reason=\"drain\"}} {}\n",
            self.evictions_drain.load(Ordering::Relaxed)
        ));
        out.push_str("# TYPE tioga2_fleet_dedup_hits_total counter\n");
        out.push_str(&format!(
            "tioga2_fleet_dedup_hits_total {}\n",
            self.dedup_hits.load(Ordering::Relaxed)
        ));
        let drain = self.drain_hist.lock().unwrap().clone();
        if drain.count() > 0 {
            out.push_str("# TYPE tioga2_fleet_drain_duration_ms histogram\n");
            histogram_series(&mut out, "tioga2_fleet_drain_duration_ms", "", &drain);
        }
        out.push_str(&self.fleet.prometheus_text());
        out
    }

    /// Live session ids (sorted).
    pub fn session_ids(&self) -> Vec<String> {
        self.slots.lock().unwrap().keys().cloned().collect()
    }

    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Begin shutdown: detach every session (workers drain and exit),
    /// tell the accept loop to stop, and close live connections so their
    /// reader threads unblock.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let slots: Vec<String> = self.slots.lock().unwrap().keys().cloned().collect();
        for sid in slots {
            let _ = self.detach(&sid);
        }
        for (_, stream) in std::mem::take(&mut *self.conns.lock().unwrap()) {
            let _ = stream.shutdown(Shutdown::Both);
        }
        // Release the journal-dir claim so a successor daemon can boot.
        self.dir_lock.lock().unwrap().take();
    }

    /// Chaos hook: stop serving the way a crashed daemon would.  Worker
    /// threads are joined so journal files close, but sessions are not
    /// retired, no journal records its closing (each stays live), and
    /// the lockfile is left on disk exactly as SIGKILL would leave it —
    /// startup recovery must cope with all of that.
    pub fn crash(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let slots = std::mem::take(&mut *self.slots.lock().unwrap());
        for (_, slot) in slots {
            drop(slot.tx);
            if let Some(w) = slot.worker {
                let _ = w.join();
            }
        }
        for (_, stream) in std::mem::take(&mut *self.conns.lock().unwrap()) {
            let _ = stream.shutdown(Shutdown::Both);
        }
        if let Some(lock) = self.dir_lock.lock().unwrap().take() {
            std::mem::forget(lock); // leave the lockfile behind, like a real crash
        }
    }

    fn register_conn(&self, stream: &TcpStream) -> Option<u64> {
        let handle = stream.try_clone().ok()?;
        let id = self.next_conn.fetch_add(1, Ordering::Relaxed);
        self.conns.lock().unwrap().insert(id, handle);
        Some(id)
    }

    fn deregister_conn(&self, id: Option<u64>) {
        if let Some(id) = id {
            self.conns.lock().unwrap().remove(&id);
        }
    }
}

/// Per-session telemetry handed to the worker at attach time: the
/// fleet aggregator to register with (when telemetry is on), the shared
/// slow-demand ring, and the session's `{tenant, session}` labels.
struct WorkerObs {
    fleet: Option<Arc<FleetRecorder>>,
    slowlog: Arc<SlowLog>,
    tenant: String,
    sid: String,
    /// Durability-on-commit: fsync the journal after every executed
    /// command, before its reply is sent.
    fsync: bool,
    /// Shared counter of retried frames answered from the dedup cache.
    dedup_hits: Arc<AtomicU64>,
    /// The slot's closing lifecycle state (see [`SessionSlot`]).
    close_as: Arc<OnceLock<&'static str>>,
}

/// How many recently executed request ids each worker remembers for
/// duplicate suppression.  A client retries one in-flight command at a
/// time, so even a small window is generous; 64 also covers a proxy
/// replaying a burst.
const DEDUP_WINDOW: usize = 64;

/// The per-session worker: owns the session for its whole life, drains
/// the bounded queue, executes through exactly the same
/// `core::command::run_line` the REPL uses.
fn session_worker(
    fork: Catalog,
    budget: Option<Budget>,
    journal: Option<PathBuf>,
    obs: WorkerObs,
    rx: Receiver<Job>,
    init_tx: SyncSender<Result<(SupersedeHandle, Catalog, bool), String>>,
) {
    let (mut session, torn) = match build_session(fork, &journal) {
        Ok(pair) => pair,
        Err(e) => {
            let _ = init_tx.send(Err(e));
            return;
        }
    };
    if let Some(b) = budget {
        session.set_budget(Some(b));
    }
    if let Some(fleet) = &obs.fleet {
        let rec = Arc::new(InMemoryRecorder::new());
        session.set_recorder(rec.clone());
        fleet.register(&obs.tenant, &obs.sid, rec);
    }
    session.install_slowlog(obs.slowlog, &obs.tenant, &obs.sid);
    let catalog = session.env.catalog.clone();
    let lifecycle = |state: &str| SessionEvent::Lifecycle {
        state: state.to_string(),
        tenant: obs.tenant.clone(),
    };
    if journal.is_some() {
        session.events().append(lifecycle(ATTACHED));
    }
    if init_tx.send(Ok((session.supersede_handle(), catalog, torn))).is_err() {
        return;
    }
    // Duplicate suppression: a retried frame (same client-stamped
    // request id) is answered from this bounded cache instead of
    // re-executing — the exactly-once half of the client retry contract.
    let mut recent: std::collections::VecDeque<(u64, JobReply)> = std::collections::VecDeque::new();
    while let Ok(job) = rx.recv() {
        if job.stamped {
            if let Some((_, cached)) = recent.iter().find(|(rid, _)| *rid == job.rid) {
                obs.dedup_hits.fetch_add(1, Ordering::Relaxed);
                let _ = job.reply.send(cached.clone());
                continue;
            }
        }
        session.set_request_id(job.rid);
        let (mut result, mut quit) = match command::run_line(&mut session, &job.line) {
            Ok(Response::Message(m)) => (Ok(m), false),
            Ok(Response::Quit) => (Ok("bye".to_string()), true),
            Err(e) => (Err(e), false),
        };
        session.set_request_id(0);
        if obs.fsync {
            // The reply is the durability acknowledgement: the journal
            // events behind this command hit stable storage first.
            // (The `journal.fsync` chaos site fires inside.)  A failed
            // fsync becomes the reply — and is cached below like any
            // other outcome, because the command *did* mutate in-memory
            // state: a retry of the same rid must not re-execute it.
            if let Err(e) = session.sync_journal() {
                result = Err(format!("journal fsync failed: {e}"));
                quit = false;
            }
        }
        let out = JobReply { result, quit };
        if job.stamped {
            recent.push_back((job.rid, out.clone()));
            while recent.len() > DEDUP_WINDOW {
                recent.pop_front();
            }
        }
        let _ = job.reply.send(out);
        if quit {
            let _ = obs.close_as.set(DETACHED);
            break;
        }
    }
    // Queue closed (detach / eviction / drain / quit): record how, then
    // put the journal on stable storage before the slot is considered
    // gone.  A crash sets no closing state, so its journals stay live.
    if let (Some(_), Some(state)) = (&journal, obs.close_as.get()) {
        session.events().append(lifecycle(state));
    }
    let _ = session.sync_journal();
}

/// Fresh session over the forked catalog — or, when its journal already
/// exists on disk, the session recovered from it (saved programs, canvas
/// positions, and private table edits all survive re-attach).  The
/// `bool` reports a torn final journal record (crash mid-append): the
/// record is dropped — its op was never acknowledged durable — and
/// recovery proceeds.
fn build_session(fork: Catalog, journal: &Option<PathBuf>) -> Result<(Session, bool), String> {
    match journal {
        None => Ok((Session::new(Environment::new(fork)), false)),
        Some(path) => {
            let existing = std::fs::metadata(path).map(|m| m.len() > 0).unwrap_or(false);
            let (session, torn, text) = if existing {
                let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
                let (s, torn) = Session::recover_crashed(&text).map_err(|e| e.to_string())?;
                (s, torn, text)
            } else {
                (Session::new(Environment::new(fork)), false, String::new())
            };
            let mut session = session;
            let path_str = path.to_str().ok_or_else(|| "journal path is not UTF-8".to_string())?;
            if torn {
                // Cut the torn record off the file so the sink's
                // subsequent appends follow a complete line.  Truncate
                // in place with `set_len` — a full rewrite (O_TRUNC +
                // write) would, if interrupted, corrupt records *before*
                // the tail and turn a recoverable torn-tail crash into
                // an unattachable session.  An interrupted `set_len`
                // leaves either the old torn tail or the repaired file:
                // both recover.
                let keep = drop_last_line(&text).len() as u64;
                let file = std::fs::OpenOptions::new()
                    .write(true)
                    .open(path)
                    .map_err(|e| e.to_string())?;
                file.set_len(keep).map_err(|e| e.to_string())?;
                file.sync_all().map_err(|e| e.to_string())?;
            }
            session.attach_journal_file(path_str).map_err(|e| e.to_string())?;
            if !existing {
                // The journal is the session's only record: its
                // directory entry must be as durable as its contents.
                let dir = path.parent().ok_or("journal path has no directory")?;
                std::fs::File::open(dir).and_then(|d| d.sync_all()).map_err(|e| e.to_string())?;
            }
            if session.events().last_snapshot_seq().is_none() {
                // Fresh journal: snapshot immediately so the file is
                // recoverable from the first byte.
                session.snapshot_now().map_err(|e| e.to_string())?;
            }
            Ok((session, torn))
        }
    }
}

/// Everything up to (and including) the newline that ends the second-to-
/// last line — i.e. the text with its final (torn) record removed.
fn drop_last_line(text: &str) -> &str {
    let t = text.strip_suffix('\n').unwrap_or(text);
    match t.rfind('\n') {
        Some(i) => &t[..=i],
        None => "",
    }
}

/// A running server bound to a TCP address (plus, optionally, a second
/// listener serving `GET /metrics`).
pub struct ServerHandle {
    server: Arc<Server>,
    addr: std::net::SocketAddr,
    accept: Option<JoinHandle<()>>,
    metrics_addr: Option<std::net::SocketAddr>,
    metrics: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// Bind `addr` (use port 0 for an ephemeral port) and start the
    /// accept loop.  When the config names a `metrics_addr`, also bind
    /// the HTTP scrape listener.
    pub fn start(base: Catalog, cfg: ServerConfig, addr: &str) -> io::Result<ServerHandle> {
        let scrape = cfg.metrics_addr.clone();
        let server = Server::new(base, cfg);
        // Claim the journal dir and rebuild the pre-crash fleet before
        // the listener opens: clients reattach to recovered sessions on
        // the first frame.  A foreign live daemon on the same dir is
        // the one fatal case.
        let report = server.recover_fleet().map_err(io::Error::other)?;
        if !report.recovered.is_empty() || !report.damaged.is_empty() {
            eprintln!(
                "tiogad: recovered {} session(s){} ({} shutdown){}",
                report.recovered.len(),
                if report.damaged.is_empty() {
                    String::new()
                } else {
                    format!(", {} damaged", report.damaged.len())
                },
                if report.clean_shutdown { "clean" } else { "unclean" },
                if report.damaged.is_empty() { "" } else { " — damaged journals refuse attach" },
            );
            for (sid, why) in &report.damaged {
                eprintln!("tiogad: session '{sid}' journal damaged: {why}");
            }
        }
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let srv = server.clone();
        let accept = std::thread::Builder::new()
            .name("tiogad-accept".into())
            .spawn(move || accept_loop(listener, srv))?;
        let (metrics_addr, metrics) = match scrape {
            None => (None, None),
            Some(maddr) => {
                let ml = TcpListener::bind(maddr.as_str())?;
                let bound = ml.local_addr()?;
                ml.set_nonblocking(true)?;
                let srv = server.clone();
                let h = std::thread::Builder::new()
                    .name("tiogad-metrics".into())
                    .spawn(move || metrics_loop(ml, srv))?;
                (Some(bound), Some(h))
            }
        };
        Ok(ServerHandle { server, addr, accept: Some(accept), metrics_addr, metrics })
    }

    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Bound address of the `/metrics` HTTP listener, when configured.
    pub fn metrics_addr(&self) -> Option<std::net::SocketAddr> {
        self.metrics_addr
    }

    pub fn server(&self) -> &Arc<Server> {
        &self.server
    }

    /// Shut down: sessions detach, the accept loops exit, and this call
    /// joins them.  Idempotent.
    pub fn stop(&mut self) {
        self.server.shutdown();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.metrics.take() {
            let _ = h.join();
        }
    }

    /// Block until the accept loop exits (a client's `shutdown` verb
    /// stops it); then reap sessions.  The tiogad binary's main loop.
    pub fn wait(&mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.server.shutdown();
        if let Some(h) = self.metrics.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The scrape listener: a deliberately minimal std-only HTTP/1.0
/// responder.  `GET /metrics` answers the Prometheus exposition; every
/// other path is 404.  One request per connection (`Connection: close`)
/// keeps it free of keep-alive state.
///
/// Each accepted scrape gets its own short-lived thread: a slow or
/// stalled scraper must never serialize behind-it scrapes (the old
/// serial accept loop let one slow-loris peer block the whole
/// endpoint for its full read deadline).
fn metrics_loop(listener: TcpListener, server: Arc<Server>) {
    let mut scrapes: Vec<JoinHandle<()>> = Vec::new();
    while !server.is_shutdown() {
        match listener.accept() {
            Ok((stream, _)) => {
                let srv = server.clone();
                if let Ok(h) = std::thread::Builder::new()
                    .name("tiogad-scrape".into())
                    .spawn(move || serve_scrape(stream, &srv))
                {
                    scrapes.push(h);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => break,
        }
        scrapes.retain(|h| !h.is_finished());
    }
    for h in scrapes {
        let _ = h.join();
    }
}

fn serve_scrape(mut stream: TcpStream, server: &Arc<Server>) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(1_000)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    // Accumulate split/partial reads until the *request line* is
    // complete (first newline) — the head's blank-line terminator is
    // not worth waiting for, the request line is all we act on.  A peer
    // that stalls before finishing one line gets 408 and the socket
    // back.
    let mut head = Vec::new();
    let mut buf = [0u8; 512];
    let request_line = loop {
        if let Some(nl) = head.iter().position(|&b| b == b'\n') {
            break String::from_utf8_lossy(&head[..nl]).into_owned();
        }
        if head.len() > 8192 {
            break String::new(); // header flood: treat as malformed
        }
        match stream.read(&mut buf) {
            Ok(0) => break String::from_utf8_lossy(&head).into_owned(),
            Ok(n) => head.extend_from_slice(&buf[..n]),
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                break String::new()
            }
            Err(_) => break String::new(),
        }
    };
    let mut parts = request_line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let (status, body) = if method == "GET" && (path == "/metrics" || path == "/metrics/") {
        ("200 OK", server.metrics_text())
    } else if request_line.is_empty() {
        ("408 Request Timeout", "request line never arrived\n".to_string())
    } else {
        ("404 Not Found", "only GET /metrics is served here\n".to_string())
    };
    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.shutdown(Shutdown::Both);
}

fn accept_loop(listener: TcpListener, server: Arc<Server>) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    let mut last_reap = Instant::now();
    while !server.is_shutdown() {
        match listener.accept() {
            Ok((stream, _)) => {
                let srv = server.clone();
                if let Ok(h) = std::thread::Builder::new()
                    .name("tiogad-conn".into())
                    .spawn(move || connection(stream, srv))
                {
                    conns.push(h);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => break,
        }
        conns.retain(|h| !h.is_finished());
        // Idle-session reaping rides the accept loop's heartbeat — no
        // extra thread, ~4 checks/second when the server is quiet.
        if last_reap.elapsed() >= Duration::from_millis(250) {
            last_reap = Instant::now();
            server.reap_idle();
        }
    }
    for h in conns {
        let _ = h.join();
    }
}

/// One connection: frames in, replies out.  The connection tracks which
/// session (and tenant) it is attached to; command lines are admitted
/// into that session's queue.
///
/// Robustness decisions live here:
/// * the socket carries read/write deadlines; a deadline at a frame
///   boundary just polls the shutdown flag, mid-frame it tears the
///   connection (a stalled or byte-dribbling peer cannot pin a thread);
/// * command payloads may carry a client request-id stamp (`#<rid> `),
///   which rides into the worker's duplicate suppression;
/// * an evicted session is transparently reattached (journal-backed
///   eviction means recovery is exact) before the command runs;
/// * the `net.stall` / `net.torn_frame` / `net.disconnect` chaos sites
///   fire on the reply path, coordinate = server-wide replies served.
fn connection(stream: TcpStream, server: Arc<Server>) {
    let timeout = Duration::from_millis(server.cfg.conn_timeout_ms.max(1));
    let _ = stream.set_read_timeout(Some(timeout));
    let _ = stream.set_write_timeout(Some(timeout));
    let mut reader = FrameReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let conn_id = server.register_conn(&stream);
    let mut writer = stream;
    let mut attached: Option<(String, String)> = None; // (sid, tenant)
    loop {
        let line = match reader.next_event() {
            Ok(FrameEvent::Frame(line)) => line,
            Ok(FrameEvent::Idle) => {
                if server.is_shutdown() {
                    break;
                }
                continue;
            }
            // Err (torn frame, protocol garbage) and clean EOF both end
            // the connection; the client reconnects and reattaches.
            Ok(FrameEvent::Eof) | Err(_) => break,
        };
        let (stamped_rid, line) = split_rid(&line);
        let mut parts = line.split_whitespace();
        let reply = match parts.next() {
            Some("attach") => {
                // `-` as the session id means "pick one for me" (used
                // when only the tenant is given).
                let sid = parts.next().filter(|s| *s != "-");
                let tenant = parts.next().unwrap_or("default").to_string();
                match server.attach(sid, &tenant) {
                    Ok(sid) => {
                        attached = Some((sid.clone(), tenant));
                        Reply::Ok(format!("attached {sid}"))
                    }
                    Err(e) => Reply::Err(e),
                }
            }
            Some("detach") => match attached.take() {
                Some((sid, _)) => match server.detach(&sid) {
                    Ok(()) => Reply::Ok(format!("detached {sid}")),
                    Err(e) => Reply::Err(e),
                },
                None => Reply::Err("not attached".to_string()),
            },
            Some("stats") => Reply::Ok(server.stats_text()),
            Some("metrics") => Reply::Ok(server.metrics_text()),
            Some("slowlog") => Reply::Ok(server.slowlog.render()),
            Some("shutdown") => {
                let drain = parts.next() == Some("drain");
                // Reply before shutdown(): it closes this socket too.
                let bye = if drain { "draining, then shutting down" } else { "shutting down" };
                let _ = write_frame(&mut writer, &Reply::Bye(bye.into()).encode());
                if drain {
                    server.drain();
                }
                server.shutdown();
                break;
            }
            Some(_) => match &attached {
                None => Reply::Err("not attached; 'attach [session [tenant]]' first".to_string()),
                Some((sid, tenant)) => {
                    // Every command frame gets a request id — the
                    // client's stamp when present (retries reuse it, so
                    // the worker can suppress duplicates), else minted
                    // here.  Either way it travels through the worker
                    // into the demand trace, journal, and slow log —
                    // but only client-stamped ids join the dedup
                    // window (the two counters are separate namespaces).
                    let (rid, stamped) = match stamped_rid {
                        Some(r) => (r, true),
                        None => (next_request_id(), false),
                    };
                    let mut out = server.run_req(sid, line, rid, stamped);
                    if matches!(&out, Err(e) if e.starts_with("no session")) {
                        // The idle reaper evicted this session between
                        // commands; its journal makes reattach exact.
                        // A refusal (say, the eviction is still closing
                        // the journal: retryable) goes to the client.
                        out = server
                            .attach(Some(sid), tenant)
                            .and_then(|_| server.run_req(sid, line, rid, stamped));
                    }
                    match out {
                        Ok((body, true)) => {
                            attached = None;
                            Reply::Bye(body)
                        }
                        Ok((body, false)) => Reply::Ok(body),
                        Err(e) => Reply::Err(e),
                    }
                }
            },
            None => Reply::Ok(String::new()),
        };
        // Network chaos sites, in reply order: stall the writer, tear
        // the reply frame, drop the connection after executing but
        // before replying (the client's retry must then be exactly-once).
        // The coordinate is the *server-wide* reply count: a coordinate
        // fires once and is then past, so a retrying client always makes
        // progress (a per-connection counter would re-trip the same
        // fault on every reconnect — a livelock, not a test).
        let coord = server.net_frames.fetch_add(1, Ordering::Relaxed);
        if fault::trip_global("net.stall", coord).is_err() {
            std::thread::sleep(Duration::from_millis(100));
        }
        if fault::trip_global("net.torn_frame", coord).is_err() {
            let encoded = reply.encode();
            let mut framed = Vec::new();
            let _ = write_frame(&mut framed, &encoded);
            let cut = framed.len().saturating_sub(framed.len() / 2).max(1);
            let _ = writer.write_all(&framed[..cut]);
            break;
        }
        if fault::trip_global("net.disconnect", coord).is_err() {
            break;
        }
        if write_frame(&mut writer, &reply.encode()).is_err() {
            break;
        }
    }
    let _ = writer.shutdown(Shutdown::Both);
    server.deregister_conn(conn_id);
}
