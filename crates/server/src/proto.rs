//! The tiogad wire protocol: length-prefixed UTF-8 frames over TCP.
//!
//! One frame is an ASCII decimal byte length, a newline, exactly that
//! many payload bytes, and a trailing newline:
//!
//! ```text
//! frame    = length "\n" payload "\n"
//! length   = 1*DIGIT                ; byte length of payload
//! payload  = request | reply
//! request  = "attach" [" " session [" " tenant]]
//!          | "detach" | "stats" | "shutdown"
//!          | command-line           ; any core::command line
//! reply    = ("ok" | "err" | "bye") ["\n" body]
//! ```
//!
//! Length-prefixing keeps multi-line bodies (ASCII tables, help text,
//! journal tails) unambiguous without any escaping, and lets a client
//! preallocate.  Frames are capped at [`MAX_FRAME`] bytes; an oversized
//! length is a protocol error, not an allocation.

use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};

/// Upper bound on one frame's payload (16 MiB — a rendered ASCII table
/// of the largest bench catalog fits with room to spare).
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Mint the next request id (process-wide, monotonic, starting at 1).
/// The connection loop stamps one per command frame; it rides through
/// the session worker into the demand trace, the journal's demand
/// event, and the slow-demand log, so one wire request can be chased
/// through every telemetry surface.  0 is reserved for "no request
/// context" (e.g. the REPL).
pub fn next_request_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Marks a refusal the client may safely retry (queue full, draining,
/// attach in progress).  Retried *commands* are additionally stamped
/// with a request id ([`stamp_rid`]) so the session worker's duplicate
/// suppression makes the retry exactly-once.
pub const RETRYABLE_PREFIX: &str = "retryable: ";

/// Wrap an error body as retryable.
pub fn retryable(msg: impl std::fmt::Display) -> String {
    format!("{RETRYABLE_PREFIX}{msg}")
}

/// Whether an `err` reply body carries the retryable marker.
pub fn is_retryable(err: &str) -> bool {
    err.starts_with(RETRYABLE_PREFIX)
}

/// Stamp a client-chosen request id onto a command payload:
/// `#<rid> <line>`.  The server echoes the id into its telemetry and —
/// the point of client-side stamping — uses it to suppress duplicates,
/// so a retry after a lost reply never double-applies an edit.
pub fn stamp_rid(rid: u64, line: &str) -> String {
    format!("#{rid} {line}")
}

/// Split a payload into its optional `#<rid> ` stamp and the command
/// line.  Payloads without a well-formed stamp come back whole (a bare
/// `#` word is someone's command text, not a stamp).
pub fn split_rid(payload: &str) -> (Option<u64>, &str) {
    let Some(rest) = payload.strip_prefix('#') else { return (None, payload) };
    let Some((digits, line)) = rest.split_once(' ') else { return (None, payload) };
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return (None, payload);
    }
    match digits.parse::<u64>() {
        Ok(rid) if rid > 0 => (Some(rid), line),
        _ => (None, payload),
    }
}

/// Write one frame.
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    let mut buf = Vec::with_capacity(payload.len() + 16);
    buf.extend_from_slice(payload.len().to_string().as_bytes());
    buf.push(b'\n');
    buf.extend_from_slice(payload.as_bytes());
    buf.push(b'\n');
    w.write_all(&buf)?;
    w.flush()
}

/// What [`FrameReader::next_event`] observed on the socket.
#[derive(Debug, PartialEq, Eq)]
pub enum FrameEvent {
    /// One complete frame payload.
    Frame(String),
    /// The read deadline passed at a frame *boundary* — the peer is
    /// merely quiet.  The caller loops (checking shutdown/drain flags).
    Idle,
    /// Clean EOF at a frame boundary.
    Eof,
}

// The longest header `write_frame` can emit: MAX_FRAME is 8 digits, so
// anything longer without a newline is not a frame header.
const MAX_HEADER: usize = 20;

/// Incremental frame reader for sockets with read deadlines — the one
/// frame parser, used by both the server's connection loop and
/// [`crate::Client`].
///
/// The reader owns the partial-frame state, so it can tell a quiet peer
/// from a stalled one: a deadline at a frame boundary is
/// [`FrameEvent::Idle`] (harmless — the connection loop uses it to poll
/// shutdown flags), a deadline or EOF *mid-frame* is a structured error
/// (torn frame), and byte-at-a-time or split writes reassemble
/// transparently.
pub struct FrameReader<R: io::Read> {
    inner: R,
    buf: Vec<u8>,
}

impl<R: io::Read> FrameReader<R> {
    pub fn new(inner: R) -> FrameReader<R> {
        FrameReader { inner, buf: Vec::new() }
    }

    /// Bytes of an incomplete frame currently buffered.
    pub fn mid_frame(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Pull the next frame, idling or failing per [`FrameEvent`].
    pub fn next_event(&mut self) -> io::Result<FrameEvent> {
        loop {
            if let Some(frame) = self.try_parse()? {
                return Ok(FrameEvent::Frame(frame));
            }
            let mut chunk = [0u8; 64 * 1024];
            match self.inner.read(&mut chunk) {
                Ok(0) => {
                    if self.buf.is_empty() {
                        return Ok(FrameEvent::Eof);
                    }
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "torn frame: connection closed mid-frame",
                    ));
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e)
                    if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
                {
                    if self.buf.is_empty() {
                        return Ok(FrameEvent::Idle);
                    }
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "torn frame: peer stalled mid-frame",
                    ));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Try to cut one complete frame off the front of the buffer.
    fn try_parse(&mut self) -> io::Result<Option<String>> {
        let Some(nl) = self.buf.iter().position(|&b| b == b'\n') else {
            if self.buf.len() > MAX_HEADER {
                return Err(io::Error::new(io::ErrorKind::InvalidData, "bad frame length"));
            }
            return Ok(None);
        };
        // Accept exactly what `write_frame` emits: canonical ASCII digits —
        // no sign, no whitespace padding, no leading zeros ("0" itself is
        // canonical).  `trim().parse()` would also take " 5 ", "+5" and
        // "005", silently admitting frames no conforming peer ever sends.
        let digits = &self.buf[..nl];
        let canonical = !digits.is_empty()
            && digits.iter().all(|b| b.is_ascii_digit())
            && (digits == b"0" || digits[0] != b'0');
        let len: usize = if canonical {
            std::str::from_utf8(digits).ok().and_then(|d| d.parse().ok())
        } else {
            None
        }
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad frame length"))?;
        if len > MAX_FRAME {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "frame too large"));
        }
        let total = nl + 1 + len + 1;
        if self.buf.len() < total {
            return Ok(None);
        }
        if self.buf[total - 1] != b'\n' {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "missing frame terminator"));
        }
        let payload = self.buf[nl + 1..total - 1].to_vec();
        self.buf.drain(..total);
        String::from_utf8(payload)
            .map(Some)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8"))
    }
}

/// One decoded reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    Ok(String),
    Err(String),
    /// Sent for `quit`/`shutdown`; the server closes the connection next.
    Bye(String),
}

impl Reply {
    pub fn encode(&self) -> String {
        let (tag, body) = match self {
            Reply::Ok(b) => ("ok", b),
            Reply::Err(b) => ("err", b),
            Reply::Bye(b) => ("bye", b),
        };
        if body.is_empty() {
            tag.to_string()
        } else {
            format!("{tag}\n{body}")
        }
    }

    pub fn decode(payload: &str) -> io::Result<Reply> {
        let (tag, body) = match payload.split_once('\n') {
            Some((t, b)) => (t, b.to_string()),
            None => (payload, String::new()),
        };
        match tag {
            "ok" => Ok(Reply::Ok(body)),
            "err" => Ok(Reply::Err(body)),
            "bye" => Ok(Reply::Bye(body)),
            other => {
                Err(io::Error::new(io::ErrorKind::InvalidData, format!("bad reply tag '{other}'")))
            }
        }
    }

    /// The body regardless of tag.
    pub fn body(&self) -> &str {
        match self {
            Reply::Ok(b) | Reply::Err(b) | Reply::Bye(b) => b,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "hello\nworld").unwrap();
        write_frame(&mut buf, "").unwrap();
        let mut r = FrameReader::new(&buf[..]);
        assert_eq!(r.next_event().unwrap(), FrameEvent::Frame("hello\nworld".into()));
        assert_eq!(r.next_event().unwrap(), FrameEvent::Frame("".into()));
        assert_eq!(r.next_event().unwrap(), FrameEvent::Eof, "clean EOF");
    }

    #[test]
    fn request_ids_are_unique_and_nonzero() {
        let a = next_request_id();
        let b = next_request_id();
        assert!(a > 0 && b > 0);
        assert_ne!(a, b);
    }

    /// A reader that hands out its script one chunk per `read` call —
    /// `None` chunks simulate a read deadline firing (WouldBlock).
    struct ScriptedReader {
        chunks: std::collections::VecDeque<Option<Vec<u8>>>,
    }

    impl io::Read for ScriptedReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.chunks.pop_front() {
                None => Ok(0), // EOF
                Some(None) => Err(io::Error::new(io::ErrorKind::WouldBlock, "deadline")),
                Some(Some(bytes)) => {
                    buf[..bytes.len()].copy_from_slice(&bytes);
                    Ok(bytes.len())
                }
            }
        }
    }

    fn scripted(chunks: Vec<Option<Vec<u8>>>) -> FrameReader<ScriptedReader> {
        FrameReader::new(ScriptedReader { chunks: chunks.into() })
    }

    #[test]
    fn frame_reader_reassembles_byte_at_a_time() {
        let mut wire = Vec::new();
        write_frame(&mut wire, "hello\nworld").unwrap();
        write_frame(&mut wire, "").unwrap();
        let chunks = wire.iter().map(|b| Some(vec![*b])).collect();
        let mut r = scripted(chunks);
        assert_eq!(r.next_event().unwrap(), FrameEvent::Frame("hello\nworld".into()));
        assert_eq!(r.next_event().unwrap(), FrameEvent::Frame("".into()));
        assert_eq!(r.next_event().unwrap(), FrameEvent::Eof);
    }

    #[test]
    fn frame_reader_split_write_matrix() {
        let mut wire = Vec::new();
        write_frame(&mut wire, "attach s1 acme").unwrap();
        // Split the frame at every byte boundary: both halves arrive as
        // separate reads, with a deadline firing in between.
        for cut in 1..wire.len() {
            let mut r = scripted(vec![
                Some(wire[..cut].to_vec()),
                None, // deadline mid-frame must not lose buffered bytes
                Some(wire[cut..].to_vec()),
            ]);
            // The deadline surfaces as a torn-frame error only if it
            // fires with a partial frame; a FrameReader caller that
            // keeps going (our connection loop breaks instead) would
            // resume cleanly — here we just assert the classification.
            match r.next_event() {
                Err(e) => assert_eq!(e.kind(), io::ErrorKind::TimedOut, "cut={cut}"),
                Ok(ev) => panic!("cut={cut}: expected torn-frame timeout, got {ev:?}"),
            }
        }
        // Without the deadline, every split reassembles.
        for cut in 1..wire.len() {
            let mut r = scripted(vec![Some(wire[..cut].to_vec()), Some(wire[cut..].to_vec())]);
            assert_eq!(
                r.next_event().unwrap(),
                FrameEvent::Frame("attach s1 acme".into()),
                "cut={cut}"
            );
            assert_eq!(r.next_event().unwrap(), FrameEvent::Eof);
        }
    }

    #[test]
    fn frame_reader_idle_vs_torn() {
        // Deadline at a frame boundary: Idle, then the frame arrives.
        let mut wire = Vec::new();
        write_frame(&mut wire, "stats").unwrap();
        let mut r = scripted(vec![None, Some(wire.clone()), None]);
        assert_eq!(r.next_event().unwrap(), FrameEvent::Idle);
        assert_eq!(r.next_event().unwrap(), FrameEvent::Frame("stats".into()));
        assert_eq!(r.next_event().unwrap(), FrameEvent::Idle);
        assert!(!r.mid_frame());

        // EOF mid-frame: torn, not a clean Eof.
        let mut r = scripted(vec![Some(wire[..3].to_vec())]);
        let err = r.next_event().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);

        // Torn *header* (digits, no newline, then stall) is mid-frame.
        let mut r = scripted(vec![Some(b"12".to_vec()), None]);
        assert!(r.next_event().is_err());

        // EOF mid-header and EOF mid-payload are torn frames too: an
        // error, not a panic or a short frame.
        for torn in [&b"12"[..], b"5\nab"] {
            let err = FrameReader::new(torn).next_event().unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{torn:?}");
        }
    }

    #[test]
    fn frame_reader_rejects_bad_headers() {
        // Each of these parses under `trim().parse()` but is not a
        // header `write_frame` can emit — all must be InvalidData.
        for bad in
            [" 5 \n", "+5\n", "05\n", "005\n", " 0\n", "5 \n", "\n", "+0\n", "-0\n", "zebra\n"]
        {
            let input = format!("{bad}hello\n");
            let mut r = scripted(vec![Some(input.into_bytes())]);
            let err = r.next_event().unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{bad:?}");
        }
        // Canonical zero is still fine.
        let mut r = FrameReader::new(&b"0\n\n"[..]);
        assert_eq!(r.next_event().unwrap(), FrameEvent::Frame("".into()));
        // Oversized length refused before any allocation.
        let huge = format!("{}\n", MAX_FRAME + 1);
        let mut r = scripted(vec![Some(huge.into_bytes())]);
        assert!(r.next_event().is_err());
        // A run of non-newline garbage longer than any header.
        let mut r = scripted(vec![Some(vec![b'9'; MAX_HEADER + 1])]);
        assert!(r.next_event().is_err());
    }

    #[test]
    fn rid_stamp_round_trip() {
        let stamped = stamp_rid(42, "show 1 w");
        assert_eq!(stamped, "#42 show 1 w");
        assert_eq!(split_rid(&stamped), (Some(42), "show 1 w"));
        // Unstamped payloads pass through whole.
        assert_eq!(split_rid("show 1 w"), (None, "show 1 w"));
        assert_eq!(split_rid("#notdigits x"), (None, "#notdigits x"));
        assert_eq!(split_rid("#0 x"), (None, "#0 x"), "rid 0 is reserved");
        assert_eq!(split_rid("#"), (None, "#"));
        assert_eq!(split_rid(""), (None, ""));
    }

    #[test]
    fn retryable_marker() {
        let e = retryable("queue is full");
        assert!(is_retryable(&e));
        assert!(!is_retryable("no session 's9'"));
    }

    #[test]
    fn reply_round_trip() {
        for reply in [
            Reply::Ok(String::new()),
            Reply::Ok("line1\nline2".into()),
            Reply::Err("budget exceeded".into()),
            Reply::Bye(String::new()),
        ] {
            assert_eq!(Reply::decode(&reply.encode()).unwrap(), reply);
        }
        assert!(Reply::decode("zorp\nbody").is_err());
    }
}
