//! Demand governance: budgets and cooperative cancellation.
//!
//! Tioga-2's contract is interactivity (paper §1): a demand issued by a
//! direct-manipulation gesture must be abortable the moment a newer gesture
//! supersedes it, and a runaway operator (a cross-product, an unselective
//! restrict over a huge table) must degrade into a structured error instead
//! of freezing the canvas.  This module supplies the two primitives:
//!
//! * [`CancelToken`] — a cheap, cloneable cooperative cancel flag.  The
//!   session hands the token of the in-flight demand to whoever may want to
//!   supersede it; flipping the flag makes every governed pull site abort
//!   with [`RelError::Cancelled`] at its next checkpoint.
//! * [`Budget`] — an optional row cap and wall-clock deadline.  A budget is
//!   *started* once per demand, producing a [`BudgetMeter`] shared (via
//!   `Arc`) by every operator of that demand: serial stream scans, parallel
//!   partition workers, and naive box fires all charge rows into the same
//!   meter, so the cap is global to the demand no matter which execution
//!   strategy the planner picked.
//!
//! Checks are amortized: row counts are accumulated locally and charged in
//! batches of [`GOVERN_CHECK_PERIOD`] rows, and the (comparatively costly)
//! `Instant::now()` deadline probe and cancel-flag load only run once per
//! batch.  The `obs_overhead` bench gates the fast path at <2% on the cold
//! figure-1 demand.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::RelError;

/// Governed pull sites batch this many rows between budget checkpoints.
/// Row caps are therefore enforced with a slack of at most one batch per
/// concurrent worker — "cooperative", in the sense of the paper's
/// interactivity contract, not instantaneous.
pub const GOVERN_CHECK_PERIOD: u64 = 64;

/// A cooperative cancellation flag. Cloning is cheap (one `Arc` bump); all
/// clones observe the same flag.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation. Every governed site observes this at its next
    /// checkpoint and aborts with [`RelError::Cancelled`].
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// A declarative budget for one demand: row cap, wall-clock deadline, and/or
/// a cancel token. All parts optional; an empty budget governs nothing but
/// still threads the token plumbing.
#[derive(Clone, Debug, Default)]
pub struct Budget {
    /// Maximum number of rows the demand may process (rows charged at
    /// governed sites: source scans, parallel partition loops, box fires).
    pub row_cap: Option<u64>,
    /// Maximum wall-clock time for the demand, in milliseconds, measured
    /// from [`Budget::start`].
    pub wall_ms: Option<u64>,
    /// Cooperative cancel flag, usually owned by the session so a
    /// superseding render can abort the in-flight demand.
    pub token: Option<CancelToken>,
}

impl Budget {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn rows(mut self, cap: u64) -> Self {
        self.row_cap = Some(cap);
        self
    }

    pub fn millis(mut self, ms: u64) -> Self {
        self.wall_ms = Some(ms);
        self
    }

    pub fn with_token(mut self, token: CancelToken) -> Self {
        self.token = Some(token);
        self
    }

    /// True if the budget constrains nothing (no cap, no deadline, no token).
    pub fn is_empty(&self) -> bool {
        self.row_cap.is_none() && self.wall_ms.is_none() && self.token.is_none()
    }

    /// Start the budget clock for one demand, producing the shared meter.
    pub fn start(&self) -> Arc<BudgetMeter> {
        Arc::new(BudgetMeter {
            rows: AtomicU64::new(0),
            row_cap: self.row_cap.unwrap_or(u64::MAX),
            deadline: self.wall_ms.map(|ms| Instant::now() + Duration::from_millis(ms)),
            token: self.token.clone(),
            describe: self.clone(),
        })
    }
}

/// Per-demand budget state, shared across all operators (and worker threads)
/// of one demand. Created by [`Budget::start`].
#[derive(Debug)]
pub struct BudgetMeter {
    rows: AtomicU64,
    row_cap: u64,
    deadline: Option<Instant>,
    token: Option<CancelToken>,
    describe: Budget,
}

impl BudgetMeter {
    /// Charge `n` rows against the budget and run the time/cancel probes.
    /// Callers batch charges (see [`GOVERN_CHECK_PERIOD`]) so this is off
    /// the per-row fast path.
    pub fn charge(&self, n: u64) -> Result<(), RelError> {
        let total = self.rows.fetch_add(n, Ordering::Relaxed).saturating_add(n);
        if total > self.row_cap {
            return Err(RelError::BudgetExceeded(format!(
                "row cap {} exceeded ({} rows processed)",
                self.row_cap, total
            )));
        }
        self.probe()
    }

    /// Check the deadline and cancel flag without charging rows. Used at
    /// coarse checkpoints (between box fires) where row counts are charged
    /// separately or not applicable.
    pub fn probe(&self) -> Result<(), RelError> {
        if let Some(tok) = &self.token {
            if tok.is_cancelled() {
                return Err(RelError::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() > deadline {
                return Err(RelError::BudgetExceeded(format!(
                    "wall-clock deadline of {}ms exceeded",
                    self.describe.wall_ms.unwrap_or(0)
                )));
            }
        }
        Ok(())
    }
}

/// Stringify a caught panic payload for embedding in
/// [`RelError::Panic`].  Panic-payload policy (DESIGN.md §10): `&str` and
/// `String` payloads are preserved verbatim; anything else is opaque.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    // Taken by value: a `&Box<dyn Any>` would unsize to `&dyn Any` *as the
    // box*, making every downcast miss.
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(other) => match other.downcast::<&str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "non-string panic payload".to_string(),
        },
    }
}

/// Parse a budget from the `TIOGA2_BUDGET` environment variable syntax:
/// `rows=<n>,ms=<n>` (either part optional, comma or whitespace separated).
/// Returns `None` for an unset/empty/unparseable spec.
pub fn parse_budget_spec(spec: &str) -> Option<Budget> {
    let mut budget = Budget::new();
    for part in spec.split([',', ' ']).filter(|p| !p.trim().is_empty()) {
        let (key, val) = part.trim().split_once('=')?;
        let n: u64 = val.trim().parse().ok()?;
        match key.trim() {
            "rows" => budget.row_cap = Some(n),
            "ms" => budget.wall_ms = Some(n),
            _ => return None,
        }
    }
    if budget.is_empty() {
        None
    } else {
        Some(budget)
    }
}

/// Resolve the process-wide default budget from `TIOGA2_BUDGET`, read once.
/// Engines start with this budget unless a caller overrides it; the CI chaos
/// leg uses it to run the whole suite governed.
pub fn env_budget() -> Option<Budget> {
    use std::sync::OnceLock;
    static ENV: OnceLock<Option<Budget>> = OnceLock::new();
    ENV.get_or_init(|| std::env::var("TIOGA2_BUDGET").ok().as_deref().and_then(parse_budget_spec))
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_cap_trips_once_total_exceeds() {
        let meter = Budget::new().rows(100).start();
        assert!(meter.charge(64).is_ok());
        assert!(meter.charge(36).is_ok()); // exactly at the cap is fine
        let err = meter.charge(1).unwrap_err();
        assert!(matches!(err, RelError::BudgetExceeded(_)), "{err:?}");
    }

    #[test]
    fn cancel_token_observed_by_probe() {
        let tok = CancelToken::new();
        let meter = Budget::new().with_token(tok.clone()).start();
        assert!(meter.probe().is_ok());
        tok.cancel();
        assert_eq!(meter.probe(), Err(RelError::Cancelled));
        assert_eq!(meter.charge(1), Err(RelError::Cancelled));
    }

    #[test]
    fn deadline_trips_after_elapse() {
        let meter = Budget::new().millis(0).start();
        std::thread::sleep(Duration::from_millis(2));
        assert!(matches!(meter.probe(), Err(RelError::BudgetExceeded(_))));
    }

    #[test]
    fn empty_budget_never_trips() {
        let meter = Budget::new().start();
        assert!(meter.charge(u64::MAX / 2).is_ok());
        assert!(meter.probe().is_ok());
    }

    #[test]
    fn spec_parsing() {
        let b = parse_budget_spec("rows=100,ms=250").unwrap();
        assert_eq!(b.row_cap, Some(100));
        assert_eq!(b.wall_ms, Some(250));
        let b = parse_budget_spec("rows=5").unwrap();
        assert_eq!(b.row_cap, Some(5));
        assert_eq!(b.wall_ms, None);
        assert!(parse_budget_spec("").is_none());
        assert!(parse_budget_spec("rows=abc").is_none());
        assert!(parse_budget_spec("frobs=1").is_none());
    }
}
