//! A minimal blocking tiogad client: one TCP connection, framed
//! request/reply.  Used by the CI smoke script, the load generator, and
//! the golden tests; real front ends can speak the same five lines of
//! protocol from any language.
//!
//! [`RetryClient`] layers the crash-durability contract on top: bounded
//! retry with exponential backoff + jitter, reconnect-then-reattach
//! after a torn connection, and request-id stamping so the server's
//! duplicate suppression makes every retried command exactly-once.

use crate::proto::{is_retryable, stamp_rid, write_frame, FrameEvent, FrameReader, Reply};
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

pub struct Client {
    reader: FrameReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        Self::connect_with(addr, Some(Duration::from_secs(30)))
    }

    /// Connect with an explicit socket deadline (`None` = block
    /// forever, the pre-deadline behaviour).  A reply that takes longer
    /// surfaces as a timeout error instead of hanging the caller.
    pub fn connect_with(addr: impl ToSocketAddrs, timeout: Option<Duration>) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(timeout)?;
        stream.set_write_timeout(timeout)?;
        let reader = FrameReader::new(stream.try_clone()?);
        Ok(Client { reader, writer: stream })
    }

    /// Send one line; wait for its reply.
    pub fn send(&mut self, line: &str) -> io::Result<Reply> {
        write_frame(&mut self.writer, line)?;
        match self.reader.next_event()? {
            FrameEvent::Frame(payload) => Reply::decode(&payload),
            FrameEvent::Eof => {
                Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed connection"))
            }
            FrameEvent::Idle => {
                Err(io::Error::new(io::ErrorKind::TimedOut, "no reply before the deadline"))
            }
        }
    }

    /// Send one line; return the body, turning `err` replies into
    /// `Err(String)` like the REPL does.
    pub fn run(&mut self, line: &str) -> io::Result<Result<String, String>> {
        Ok(match self.send(line)? {
            Reply::Ok(b) | Reply::Bye(b) => Ok(b),
            Reply::Err(e) => Err(e),
        })
    }

    /// `attach` convenience: returns the session id.
    pub fn attach(
        &mut self,
        sid: Option<&str>,
        tenant: Option<&str>,
    ) -> io::Result<Result<String, String>> {
        let line = attach_line(sid, tenant);
        Ok(match self.send(&line)? {
            Reply::Ok(b) => Ok(b.trim_start_matches("attached ").to_string()),
            Reply::Bye(b) => Ok(b),
            Reply::Err(e) => Err(e),
        })
    }
}

/// Mint the next client-stamped request id.  Deliberately *not* the
/// server's `proto::next_request_id` (a per-process counter starting at
/// 1): the worker's duplicate-suppression cache is keyed by stamped rid
/// alone, so two client processes sharing one session must not produce
/// colliding stamps — or one client's command would be answered with
/// the other's cached reply and silently never execute.  The counter is
/// seeded from pid + wall-clock nanos with the top bit forced on, which
/// also keeps it disjoint from the server's small minted ids and
/// nonzero (0 is the reserved "no request" id).
fn next_client_rid() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::OnceLock;
    static NEXT: OnceLock<AtomicU64> = OnceLock::new();
    NEXT.get_or_init(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        AtomicU64::new(((u64::from(std::process::id()) << 33) ^ nanos) | (1 << 63))
    })
    .fetch_add(1, Ordering::Relaxed)
}

/// Mint a client-side session id for anonymous [`RetryClient::attach`].
/// `c`-prefixed so it cannot collide with the server's `s<N>` namespace;
/// pid + wall-clock nanos + a process counter keep concurrent clients
/// (and rapid restarts of one client) apart without a PRNG dependency.
fn mint_sid() -> String {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    format!("c{:x}-{:x}-{}", std::process::id(), nanos, NEXT.fetch_add(1, Ordering::Relaxed))
}

fn attach_line(sid: Option<&str>, tenant: Option<&str>) -> String {
    match (sid, tenant) {
        (None, None) => "attach".to_string(),
        (Some(s), None) => format!("attach {s}"),
        (Some(s), Some(t)) => format!("attach {s} {t}"),
        (None, Some(t)) => format!("attach - {t}"),
    }
}

/// Retry/backoff policy for [`RetryClient`].
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Attempts per command (first try included).
    pub attempts: u32,
    /// Base backoff; attempt k sleeps `base * 2^k` plus jitter.
    pub base: Duration,
    /// Backoff ceiling.
    pub cap: Duration,
    /// Socket read/write deadline per attempt.
    pub timeout: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 6,
            base: Duration::from_millis(25),
            cap: Duration::from_secs(2),
            timeout: Duration::from_secs(10),
        }
    }
}

impl RetryPolicy {
    /// Exponential backoff with full jitter (decorrelates a thundering
    /// herd of clients retrying a drained daemon).  Dependency-free
    /// jitter: the subsecond clock is as good as a PRNG here.
    fn backoff(&self, attempt: u32) -> Duration {
        let exp = self.base.saturating_mul(1u32 << attempt.min(10)).min(self.cap);
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos() as u64)
            .unwrap_or(0);
        let jitter = exp.as_millis() as u64;
        let jitter = if jitter == 0 { 0 } else { nanos % jitter };
        exp / 2 + Duration::from_millis(jitter / 2)
    }
}

/// Counters a [`RetryClient`] keeps about its own resilience work.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Commands resent after an IO failure or retryable refusal.
    pub retries: u64,
    /// TCP connections re-established (reconnect-then-reattach).
    pub reconnects: u64,
    /// Retryable refusals observed (queue full, draining, ...).
    pub refusals: u64,
}

/// A [`Client`] that survives the failure modes tiogad now injects:
/// torn frames, dropped connections, drains, and full queues.  Every
/// command is stamped with a fresh request id; a retry resends the
/// *same* stamp, so the session worker's duplicate suppression
/// guarantees the command applies exactly once even when the loss
/// happened after execution.
pub struct RetryClient {
    addr: String,
    policy: RetryPolicy,
    conn: Option<Client>,
    sid: Option<String>,
    tenant: Option<String>,
    stats: RetryStats,
}

impl RetryClient {
    pub fn connect(addr: impl Into<String>) -> RetryClient {
        Self::connect_with(addr, RetryPolicy::default())
    }

    pub fn connect_with(addr: impl Into<String>, policy: RetryPolicy) -> RetryClient {
        RetryClient {
            addr: addr.into(),
            policy,
            conn: None,
            sid: None,
            tenant: None,
            stats: RetryStats::default(),
        }
    }

    pub fn stats(&self) -> RetryStats {
        self.stats
    }

    /// Attach (with retry); the session/tenant pair is remembered so a
    /// reconnect can reattach transparently mid-stream.  Attach by
    /// *explicit* id is idempotent server-side (joining an existing
    /// session under the same tenant is free), so a lost attach reply is
    /// simply resent.  An anonymous attach is made idempotent by minting
    /// the session id here: a server-minted id would be chosen afresh on
    /// every resend, leaking one orphan session per lost reply.
    pub fn attach(&mut self, sid: Option<&str>, tenant: Option<&str>) -> io::Result<String> {
        self.tenant = tenant.map(str::to_string);
        // Not yet attached: `ensure_conn` must not reattach mid-attach.
        self.sid = None;
        let sid = match sid {
            Some(s) => s.to_string(),
            None => mint_sid(),
        };
        let line = attach_line(Some(&sid), tenant);
        let body = self.request(&line, false)?;
        let got = body.trim_start_matches("attached ").to_string();
        self.sid = Some(got.clone());
        Ok(got)
    }

    /// Run one command line with retry + duplicate suppression.
    /// `Ok(Err(e))` is a non-retryable server-side refusal (same shape
    /// as [`Client::run`]); `Err(_)` means the retry budget ran out.
    pub fn run(&mut self, line: &str) -> io::Result<Result<String, String>> {
        Ok(match self.send(line)? {
            Reply::Ok(b) | Reply::Bye(b) => Ok(b),
            Reply::Err(e) => Err(e),
        })
    }

    /// Send one line with retry; returns the protocol-level reply so
    /// callers can distinguish `bye` (connection ending) from `ok`.  A
    /// non-retryable `err` reply comes back as [`Reply::Err`] without
    /// burning retries; `Err(_)` means the retry budget ran out.
    pub fn send(&mut self, line: &str) -> io::Result<Reply> {
        self.request_reply(line, true)
    }

    fn ensure_conn(&mut self) -> io::Result<()> {
        if self.conn.is_some() {
            return Ok(());
        }
        let mut conn = Client::connect_with(&self.addr, Some(self.policy.timeout))?;
        self.stats.reconnects += 1;
        // Reattach before replaying the in-flight command: the session
        // journal makes this exact even after a daemon restart.
        if let Some(sid) = self.sid.clone() {
            let line = attach_line(Some(&sid), self.tenant.as_deref());
            match conn.send(&line)? {
                Reply::Ok(_) | Reply::Bye(_) => {}
                Reply::Err(e) if is_retryable(&e) => {
                    return Err(io::Error::new(io::ErrorKind::WouldBlock, e));
                }
                Reply::Err(e) => return Err(io::Error::other(format!("reattach failed: {e}"))),
            }
        }
        self.conn = Some(conn);
        Ok(())
    }

    fn request(&mut self, line: &str, stamp: bool) -> io::Result<String> {
        match self.request_reply(line, stamp)? {
            Reply::Ok(b) | Reply::Bye(b) => Ok(b),
            Reply::Err(e) => Err(io::Error::other(format!("server: {e}"))),
        }
    }

    /// The retry loop.  `stamp`ed requests carry one request id across
    /// all resends; verbs (attach/stats/...) are idempotent and go
    /// unstamped.
    fn request_reply(&mut self, line: &str, stamp: bool) -> io::Result<Reply> {
        let payload = if stamp { stamp_rid(next_client_rid(), line) } else { line.to_string() };
        let mut last_err: Option<io::Error> = None;
        for attempt in 0..self.policy.attempts {
            if attempt > 0 {
                self.stats.retries += 1;
                std::thread::sleep(self.policy.backoff(attempt - 1));
            }
            match self.try_once(&payload) {
                Ok(Reply::Err(e)) if is_retryable(&e) => {
                    self.stats.refusals += 1;
                    last_err = Some(io::Error::new(io::ErrorKind::WouldBlock, e));
                }
                // Definitive reply — ok, bye, or a non-retryable
                // refusal: surface it as-is.
                Ok(reply) => return Ok(reply),
                Err(e) => {
                    // Torn frame / timeout / dropped conn: next attempt
                    // reconnects and reattaches.
                    self.conn = None;
                    last_err = Some(e);
                }
            }
        }
        Err(last_err.unwrap_or_else(|| io::Error::other("retry budget exhausted")))
    }

    fn try_once(&mut self, payload: &str) -> io::Result<Reply> {
        self.ensure_conn()?;
        let conn = self.conn.as_mut().expect("ensure_conn filled the slot");
        conn.send(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The stamp counter must be seeded per-process, top bit on: a
    /// counter starting at 1 would collide with another client process
    /// (or the server's minted ids) and let the dedup cache answer one
    /// client's command with another's reply.
    #[test]
    fn client_rids_are_seeded_disjoint_from_small_counters() {
        let a = next_client_rid();
        let b = next_client_rid();
        assert_eq!(b, a + 1, "monotonic within the process");
        assert!(a & (1 << 63) != 0, "top bit forced on, got {a:#x}");
        assert!(a > u64::from(u32::MAX), "never in the small-integer range of fresh counters");
    }

    #[test]
    fn minted_sids_are_unique_and_c_prefixed() {
        let a = mint_sid();
        let b = mint_sid();
        assert_ne!(a, b);
        assert!(a.starts_with('c') && b.starts_with('c'));
        assert!(a.split_whitespace().count() == 1, "sid must be one token: '{a}'");
    }

    /// Serve one connection on a loopback port: read the request frame,
    /// then hand the socket to `reply`.  Returns the address to dial.
    fn loopback(
        reply: impl FnOnce(TcpStream) + Send + 'static,
    ) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = FrameReader::new(stream.try_clone().unwrap());
            assert_eq!(reader.next_event().unwrap(), FrameEvent::Frame("stats".into()));
            reply(stream);
        });
        (addr, server)
    }

    #[test]
    fn reply_written_in_chunks_reassembles() {
        let (addr, server) = loopback(|mut stream| {
            let mut wire = Vec::new();
            write_frame(&mut wire, &Reply::Ok("line1\nline2".into()).encode()).unwrap();
            for chunk in wire.chunks(3) {
                io::Write::write_all(&mut stream, chunk).unwrap();
                io::Write::flush(&mut stream).unwrap();
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        let mut c = Client::connect_with(addr, Some(Duration::from_secs(10))).unwrap();
        assert_eq!(c.send("stats").unwrap(), Reply::Ok("line1\nline2".into()));
        server.join().unwrap();
    }

    #[test]
    fn silent_server_times_out_instead_of_hanging() {
        let (addr, server) = loopback(|stream| {
            // Never reply; hold the socket open until the client hangs up.
            let mut reader = FrameReader::new(stream);
            assert_eq!(reader.next_event().unwrap(), FrameEvent::Eof);
        });
        let mut c = Client::connect_with(addr, Some(Duration::from_millis(100))).unwrap();
        let t0 = std::time::Instant::now();
        let err = c.send("stats").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut, "{err}");
        assert!(t0.elapsed() < Duration::from_secs(5), "waited {:?}", t0.elapsed());
        drop(c);
        server.join().unwrap();
    }

    #[test]
    fn server_closing_before_reply_is_unexpected_eof() {
        let (addr, server) = loopback(drop);
        let mut c = Client::connect_with(addr, Some(Duration::from_secs(10))).unwrap();
        let err = c.send("stats").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
        server.join().unwrap();
    }
}
