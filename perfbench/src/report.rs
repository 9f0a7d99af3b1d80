//! The result line and the helpers every workload shares: closed-loop
//! timing, peak memory, and the scratch directory runs write into.

use crate::stats::{median, Summary};
use crate::trace::Tracer;
use crate::Args;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every output check passed (and no interaction failed).
    pub correct: bool,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Record a failed output check: it counts against `failed` and makes
    /// the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.failed += 1;
            self.attempted += 1;
            self.correct = false;
            self.notes.push(format!("CHECK FAILED: {}", what.into()));
        }
    }

    /// The single JSON object the run ends with.  Values are printed with
    /// Rust's shortest round-trip formatting, i.e. with all their digits.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Peak resident set (VmHWM) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Latency samples of one closed loop.
#[derive(Debug, Default, Clone)]
pub struct LoopResult {
    /// Per-interaction latency in ms, successful interactions only.
    pub samples: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub elapsed: Duration,
}

impl LoopResult {
    pub fn merge(&mut self, other: LoopResult) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.elapsed = self.elapsed.max(other.elapsed);
    }

    pub fn per_second(&self) -> f64 {
        self.samples.len() as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// How long a closed loop keeps going.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// At least this long, and further until p95 has its tail samples
    /// (capped at three times the duration).
    Tail(Duration),
    /// Exactly this many interactions.
    Count(u64),
    /// This long, no tail requirement.
    For(Duration),
}

/// Run a closed loop: `step(i)` performs interaction `i` and returns its
/// latency in ms (`Err` = failed interaction).  No think time.
pub fn closed_loop(
    until: Until,
    mut step: impl FnMut(u64) -> Result<f64, String>,
) -> (LoopResult, Vec<String>) {
    let start = Instant::now();
    let mut out = LoopResult::default();
    let mut errors = Vec::new();
    let mut i = 0u64;
    loop {
        match until {
            Until::Count(n) if i >= n => break,
            Until::For(d) if start.elapsed() >= d => break,
            Until::Tail(d) => {
                let e = start.elapsed();
                if e >= d * 3 || (e >= d && Summary::of(&out.samples).tail_ok()) {
                    break;
                }
            }
            _ => {}
        }
        out.attempted += 1;
        match step(i) {
            Ok(ms) => out.samples.push(ms),
            Err(e) => {
                out.failed += 1;
                if errors.len() < 5 {
                    errors.push(format!("interaction {i}: {e}"));
                }
            }
        }
        i += 1;
    }
    out.elapsed = start.elapsed();
    (out, errors)
}

/// Directory under the benchmark's own `out/` for this run's files.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A fresh, empty directory that is removed again when dropped.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> std::io::Result<ScratchDir> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let dir = out_dir().join(format!("{tag}-{}-{nanos}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Non-finite values (a median of no samples) are reported as 0.
fn or_zero(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Append `events` to a fresh file-backed `EventLog`, timing each
/// append.  Returns the median append in µs and the bytes appended.
pub fn journal_replay(
    events: &[(u64, tioga2_obs::SessionEvent)],
    dir: &std::path::Path,
) -> Result<(f64, u64), String> {
    let path = dir.join("replay.jsonl");
    let log = tioga2_obs::EventLog::new();
    log.attach_file(path.to_str().ok_or("non-UTF-8 scratch path")?).map_err(|e| e.to_string())?;
    let size = || std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    let before = size();
    let mut us = Vec::with_capacity(events.len());
    for (_, ev) in events {
        let ev = ev.clone();
        let t0 = Instant::now();
        log.append(ev);
        us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    Ok((or_zero(median(&us)), size() - before))
}

pub fn write_spans(tracer: &Tracer, args: &Args, suffix: &str, out: &mut Outcome) {
    let dir = out_dir();
    let path = dir.join(format!("{}-seed{}{suffix}.spans.tsv", args.workload, args.seed));
    match std::fs::create_dir_all(&dir).and_then(|_| tracer.write_tsv(&path)) {
        Ok(()) => out.note(format!("spans written to {}", path.display())),
        Err(e) => out.note(format!("spans not written: {e}")),
    }
}

/// Every per-layer metric.  A layer a workload never enters reports 0.
#[derive(Debug, Default)]
pub struct Layers {
    pub demand_ms: f64,
    pub rows_examined_per_row_out: f64,
    pub memo_hit_ratio: f64,
    pub window_predicate_us: f64,
    pub into_composite_us: f64,
    pub compose_ms: f64,
    pub items_per_row_demanded: f64,
    pub draw_ms: f64,
    pub gesture_us: f64,
    pub render_ms: f64,
    pub unattributed_ms: f64,
    pub dispatch_render_ms: f64,
    pub dispatch_update_ms: f64,
    pub dispatch_gesture_us: f64,
    pub admission_ms: f64,
    pub wire_ms: f64,
    pub refused: f64,
    pub install_update_us: f64,
    pub apply_delta_us: f64,
    pub delta_applied_ratio: f64,
    pub journal_append_us: f64,
    pub events_per_interaction: f64,
    pub journal_bytes_per_interaction: f64,
    pub edit_p50_ms: f64,
    pub edit_p95_ms: f64,
    pub tracing_overhead: f64,
}

pub fn push_layers(out: &mut Outcome, l: Layers) {
    let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
    for (name, v, unit) in [
        ("dataflow.demand_ms", l.demand_ms, "ms"),
        ("dataflow.rows_examined_per_row_out", l.rows_examined_per_row_out, "ratio"),
        ("dataflow.memo_hit_ratio", l.memo_hit_ratio, "ratio"),
        ("viewer.window_predicate_us", l.window_predicate_us, "us"),
        ("display.into_composite_us", l.into_composite_us, "us"),
        ("viewer.compose_ms", l.compose_ms, "ms"),
        ("viewer.items_per_row_demanded", l.items_per_row_demanded, "ratio"),
        ("render.draw_ms", l.draw_ms, "ms"),
        ("core.gesture_us", l.gesture_us, "us"),
        ("core.render_ms", l.render_ms, "ms"),
        ("core.unattributed_ms", l.unattributed_ms, "ms"),
        ("core.dispatch_render_ms", l.dispatch_render_ms, "ms"),
        ("core.dispatch_update_ms", l.dispatch_update_ms, "ms"),
        ("core.dispatch_gesture_us", l.dispatch_gesture_us, "us"),
        ("server.admission_ms", l.admission_ms, "ms"),
        ("server.wire_ms", l.wire_ms, "ms"),
        ("server.refused", l.refused, "count"),
        ("relational.install_update_us", l.install_update_us, "us"),
        ("dataflow.apply_delta_us", l.apply_delta_us, "us"),
        ("dataflow.delta_applied_ratio", l.delta_applied_ratio, "ratio"),
        ("obs.journal_append_us", l.journal_append_us, "us"),
        ("obs.events_per_interaction", l.events_per_interaction, "count"),
        ("obs.journal_bytes_per_interaction", l.journal_bytes_per_interaction, "bytes"),
        ("edit_p50_ms", l.edit_p50_ms, "ms"),
        ("edit_p95_ms", l.edit_p95_ms, "ms"),
        ("error_rate", error_rate, "ratio"),
        ("trace.overhead_ratio", l.tracing_overhead, "ratio"),
    ] {
        out.push(name, or_zero(v), unit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_interactions_are_counted_not_timed() {
        let (r, errors) =
            closed_loop(
                Until::Count(10),
                |i| if i % 5 == 0 { Err("refused".into()) } else { Ok(1.0) },
            );
        assert_eq!(r.attempted, 10);
        assert_eq!(r.failed, 2);
        assert_eq!(r.samples.len(), 8);
        assert_eq!(errors.len(), 2);
    }

    #[test]
    fn failed_check_makes_the_run_incorrect() {
        let mut o = Outcome { correct: true, ..Default::default() };
        o.check(true, "fine");
        assert!(o.correct);
        o.check(false, "blank frame");
        assert!(!o.correct);
        assert_eq!(o.failed, 1);
        let json = o.json();
        assert!(json.starts_with("{\"correct\": false, \"attempted\": 1, \"failed\": 1"), "{json}");
    }

    #[test]
    fn json_keeps_every_digit() {
        let mut o = Outcome { correct: true, attempted: 3, ..Default::default() };
        o.push("latency_ms", 1.203_456_789_123, "ms");
        assert!(o.json().contains("\"latency_ms\": {\"value\": 1.203456789123, \"unit\": \"ms\"}"));
    }
}
