//! The fleet's live-session set, derived from its journals, plus the
//! journal-directory lock for tiogad restart recovery.
//!
//! Every session journal (`<dir>/<sid>.jsonl`) records its own hosting
//! lifecycle: an `attached` record (carrying the tenant) when a daemon
//! opens it, and `detached` or `drained` before the daemon's final fsync
//! when it closes it.  A journal whose last lifecycle record is
//! `attached` was live when the daemon stopped, so a crash (no closing
//! record) leaves exactly the acknowledged live set behind.  On restart
//! the daemon eagerly recovers those sessions; every other journal stays
//! on disk and remains lazily attachable by id.  The scan reads each
//! journal backwards to its latest lifecycle record, so a closed journal
//! costs one small read however large it is.  Nothing here is stored
//! beside the journals, so there is no second record to fall out of
//! step with them.
//!
//! The lock file pins a journal directory to one daemon: two tiogads
//! pointed at the same `--journal-dir` would interleave appends and
//! corrupt every journal.  Staleness is decided by pid liveness
//! (`/proc/<pid>` on Linux), so a SIGKILLed daemon's lock does not
//! block the restart that recovery exists for.

use crate::journal::{lifecycle_of_line, ATTACHED};
use std::collections::BTreeMap;
use std::fs;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

/// File name of the daemon lock inside the journal directory.
pub const LOCK_FILE: &str = "tiogad.lock";

/// The fleet's live sessions, as derived from the journal directory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetManifest {
    /// Live sessions: id (the journal file stem, `<sid>.jsonl`) to
    /// owning tenant, which a reattach must present.
    pub sessions: BTreeMap<String, String>,
    /// Journals that could not be read, with the error.  Whether they
    /// are live is unknown; recovery reports them as damaged.
    pub unreadable: BTreeMap<String, String>,
    /// `true` when no journal is live (and every journal was readable):
    /// the last daemon detached or drained every session it hosted.  A
    /// crash leaves it `false`.
    pub clean_shutdown: bool,
}

impl FleetManifest {
    /// Scan `dir`'s journals (read-only).  A journal is live when its
    /// last complete lifecycle record is `attached`; that record names
    /// the tenant.  A torn final line is ignored, so a crash mid-append
    /// leaves the journal live.  Journals with no lifecycle record
    /// (written before the record existed) are not live.  A journal
    /// that cannot be read is listed in `unreadable` and the scan goes
    /// on.  `Ok(None)` when the directory holds no journals (or does not
    /// exist).
    pub fn load(dir: &Path) -> Result<Option<FleetManifest>, String> {
        let entries = match fs::read_dir(dir) {
            Ok(rd) => rd,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(format!("journal dir read: {e}")),
        };
        let mut journals = 0;
        let mut m = FleetManifest::default();
        for entry in entries {
            let path = entry.map_err(|e| format!("journal dir read: {e}"))?.path();
            let Some(sid) = path.file_stem().and_then(|s| s.to_str()) else { continue };
            if path.extension().is_none_or(|x| x != "jsonl") {
                continue;
            }
            journals += 1;
            match live_tenant(&path) {
                Ok(Some(tenant)) => {
                    m.sessions.insert(sid.to_string(), tenant);
                }
                Ok(None) => {}
                Err(e) => {
                    m.unreadable.insert(sid.to_string(), e.to_string());
                }
            }
        }
        if journals == 0 {
            return Ok(None);
        }
        m.clean_shutdown = m.sessions.is_empty() && m.unreadable.is_empty();
        Ok(Some(m))
    }
}

/// Bytes [`live_tenant`] first reads from the end of a journal.
const TAIL_READ: u64 = 4096;

/// The tenant of the journal at `path` when its last lifecycle record is
/// `attached`.  Reads a window at the end of the file, doubling it until
/// it holds a lifecycle record: a closed journal ends in its `detached`
/// or `drained` record, so it costs one small read however large it is,
/// and a live one is read back only to its latest `attached`.
fn live_tenant(path: &Path) -> std::io::Result<Option<String>> {
    let mut file = fs::File::open(path)?;
    let len = file.metadata()?.len();
    let mut take = TAIL_READ.min(len);
    loop {
        let mut window = vec![0; take as usize];
        file.seek(SeekFrom::Start(len - take))?;
        file.read_exact(&mut window)?;
        let mut lines = window.split(|&b| b == b'\n');
        if take < len {
            lines.next(); // starts mid-line
        }
        for line in lines.rev() {
            if let Some((state, tenant)) = lifecycle_of_line(&String::from_utf8_lossy(line)) {
                return Ok((state == ATTACHED).then_some(tenant));
            }
        }
        if take == len {
            return Ok(None);
        }
        take = (take * 2).min(len);
    }
}

/// Exclusive ownership of a journal directory, released on drop.
#[derive(Debug)]
pub struct DirLock {
    path: PathBuf,
}

impl DirLock {
    /// Take the lock, refusing if another *live* daemon holds it.  A
    /// lock left by a dead pid (crash) is silently replaced.
    pub fn acquire(dir: &Path) -> Result<DirLock, String> {
        let path = dir.join(LOCK_FILE);
        let pid = std::process::id();
        match fs::read_to_string(&path) {
            Ok(prev) => {
                let prev_pid: Option<u32> = prev.trim().parse().ok();
                match prev_pid {
                    Some(p) if p != pid && pid_alive(p) => {
                        return Err(format!(
                            "journal dir {} is locked by live pid {p} (remove {} if stale)",
                            dir.display(),
                            path.display()
                        ));
                    }
                    _ => {} // dead holder or unparseable: reclaim
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(format!("lockfile read: {e}")),
        }
        fs::write(&path, format!("{pid}\n")).map_err(|e| format!("lockfile write: {e}"))?;
        Ok(DirLock { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for DirLock {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

fn pid_alive(pid: u32) -> bool {
    // Linux-only liveness probe; on other platforms assume alive so we
    // err on the side of refusing to double-attach a journal dir.
    if !cfg!(target_os = "linux") {
        return true;
    }
    // `/proc/<pid>` alone is not enough: a SIGKILLed daemon lingers
    // there as a zombie until its parent reaps it, and a zombie cannot
    // be writing journals — treating it as live would block exactly the
    // restart recovery the lock exists to protect.  State is the third
    // field of `/proc/<pid>/stat`, after the parenthesized comm (which
    // may itself contain spaces or parens, hence rfind).
    match fs::read_to_string(format!("/proc/{pid}/stat")) {
        Err(_) => false,
        Ok(stat) => match stat.rfind(')') {
            None => true, // unparseable: assume alive, refuse the dir
            Some(i) => !matches!(
                stat[i + 1..].split_whitespace().next(),
                Some("Z") | Some("X") | Some("x")
            ),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("tioga2-manifest-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn journal(dir: &Path, sid: &str, lines: &[&str]) {
        let mut text = crate::journal::header_line();
        for l in lines {
            text.push('\n');
            text.push_str(l);
        }
        fs::write(dir.join(format!("{sid}.jsonl")), text).unwrap();
    }

    fn lifecycle(seq: u64, state: &str, tenant: &str) -> String {
        let ev = crate::SessionEvent::Lifecycle { state: state.into(), tenant: tenant.into() };
        crate::journal::event_line(seq, &ev)
    }

    #[test]
    fn live_set_is_derived_from_lifecycle_records() {
        let dir = tmpdir("derive");
        assert_eq!(FleetManifest::load(&dir).unwrap(), None);
        assert_eq!(FleetManifest::load(&dir.join("absent")).unwrap(), None);
        let edit = r#"{"seq":2,"kind":"undo"}"#;
        let att = lifecycle(1, "attached", "acme");
        journal(&dir, "live", &[&att, edit]);
        journal(&dir, "gone", &[&att, &lifecycle(3, "detached", "acme")]);
        journal(
            &dir,
            "back",
            &[&att, &lifecycle(2, "drained", "acme"), &lifecycle(3, "attached", "zen \"q\"")],
        );
        // Written before lifecycle records existed: dormant.
        journal(&dir, "old", &[edit]);
        // Torn final record (a crash mid-append) leaves the journal live.
        journal(&dir, "torn", &[&att, r#"{"seq":2,"kind":"lifecycle","sta"#]);
        // A string value that merely mentions the marker is not a record.
        journal(
            &dir,
            "quoted",
            &[
                &att,
                &lifecycle(2, "detached", "acme"),
                r#"{"seq":3,"kind":"edit","op":"x","program":"\"kind\":\"lifecycle\",\"state\":\"attached\""}"#,
            ],
        );
        // Records longer than the backward scan's read size: the latest
        // `attached` lies several reads before the end, and a closing
        // record follows a record that spans reads.
        let big =
            format!(r#"{{"seq":2,"kind":"edit","op":"x","program":"{}"}}"#, "p".repeat(150_000));
        let small = r#"{"seq":3,"kind":"undo"}"#;
        let mut long_tail: Vec<&str> = vec![&att, &big];
        long_tail.extend(std::iter::repeat_n(small, 20_000));
        journal(&dir, "long", &long_tail);
        journal(&dir, "longgone", &[&big, &att, &big, &lifecycle(4, "detached", "acme")]);
        fs::write(dir.join("fleet-manifest.json"), "{}").unwrap();
        let m = FleetManifest::load(&dir).unwrap().expect("journals present");
        let live: Vec<(&str, &str)> =
            m.sessions.iter().map(|(sid, tenant)| (sid.as_str(), tenant.as_str())).collect();
        assert_eq!(
            live,
            vec![("back", "zen \"q\""), ("live", "acme"), ("long", "acme"), ("torn", "acme")]
        );
        assert!(m.unreadable.is_empty());
        assert!(!m.clean_shutdown);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_live_journal_is_a_clean_shutdown() {
        let dir = tmpdir("clean");
        journal(&dir, "a", &[&lifecycle(1, "attached", "t"), &lifecycle(2, "drained", "t")]);
        let m = FleetManifest::load(&dir).unwrap().unwrap();
        assert!(m.sessions.is_empty());
        assert!(m.clean_shutdown);
        let _ = fs::remove_dir_all(&dir);
    }

    /// One journal that cannot be read is reported on its own; the
    /// scan still finds the live journals beside it.
    #[test]
    fn unreadable_journal_does_not_hide_the_others() {
        let dir = tmpdir("unreadable");
        journal(&dir, "live", &[&lifecycle(1, "attached", "t")]);
        fs::create_dir_all(dir.join("odd.jsonl")).unwrap();
        let m = FleetManifest::load(&dir).unwrap().unwrap();
        assert_eq!(m.sessions.keys().collect::<Vec<_>>(), vec!["live"]);
        assert_eq!(m.unreadable.keys().collect::<Vec<_>>(), vec!["odd"]);
        assert!(!m.clean_shutdown);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn dirlock_excludes_live_pid_and_reclaims_dead() {
        let dir = tmpdir("lock");
        let lock = DirLock::acquire(&dir).unwrap();
        // Same (live) pid re-acquiring is allowed — it is *our* lock.
        drop(DirLock::acquire(&dir).unwrap());
        drop(lock);
        assert!(!dir.join(LOCK_FILE).exists());
        // A live foreign pid refuses: pid 1 is always alive on Linux.
        if cfg!(target_os = "linux") {
            fs::write(dir.join(LOCK_FILE), "1\n").unwrap();
            assert!(DirLock::acquire(&dir).is_err());
        }
        // A dead pid's lock is reclaimed.
        fs::write(dir.join(LOCK_FILE), "4294967: not-a-pid\n").unwrap();
        let lock = DirLock::acquire(&dir).unwrap();
        drop(lock);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A SIGKILLed daemon lingers in `/proc` as a zombie until its
    /// parent reaps it; its lock must still be reclaimable — blocking
    /// on a zombie would defeat the restart recovery the lock protects.
    #[test]
    #[cfg(target_os = "linux")]
    fn dirlock_reclaims_zombie_holder() {
        let dir = tmpdir("zombie");
        fs::create_dir_all(&dir).unwrap();
        let mut child = std::process::Command::new("true").spawn().unwrap();
        // Wait for the process to exit WITHOUT reaping it: /proc/<pid>
        // stays present with state Z until `wait` below.
        let stat = format!("/proc/{}/stat", child.id());
        for _ in 0..200 {
            let state = fs::read_to_string(&stat)
                .ok()
                .and_then(|s| s[s.rfind(')')? + 1..].split_whitespace().next().map(String::from));
            if state.as_deref() == Some("Z") {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        fs::write(dir.join(LOCK_FILE), format!("{}\n", child.id())).unwrap();
        let lock = DirLock::acquire(&dir);
        let _ = child.wait();
        drop(lock.expect("a zombie holder's lock must be reclaimed"));
        let _ = fs::remove_dir_all(&dir);
    }
}
