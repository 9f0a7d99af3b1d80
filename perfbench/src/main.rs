//! Interaction benchmark for Tioga-2.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <browse_zoomed|overview_replicate|fleet_edit> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The unit of work is the *interaction*: one gesture plus the frame it
//! causes, timed from the gesture call to the returned frame.  Each
//! workload runs as a closed loop with no think time.  `--trace 0`
//! reports the end-to-end metrics; `--trace 1` replays the same seed and
//! gesture stream with spans around each layer's public calls and
//! reports the per-layer metrics.  The last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.

mod fleet;
mod gen;
mod inproc;
mod replay;
mod report;
mod stats;
mod trace;

use report::Outcome;

/// Environment variables that change the program under test.  They are
/// cleared before any session is built, so an inherited setting (CI legs
/// export several) cannot silently change what is measured.
const PINNED_ENV: [&str; 6] = [
    "TIOGA2_THREADS",
    "TIOGA2_BUDGET",
    "TIOGA2_FAULTS",
    "TIOGA2_SLOWLOG",
    "TIOGA2_SNAPSHOT_EVERY",
    "TIOGA2_TRACE_RING",
];

pub const WORKLOADS: [&str; 3] = ["browse_zoomed", "overview_replicate", "fleet_edit"];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}' (one of {})", WORKLOADS.join(", ")));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    for var in PINNED_ENV {
        std::env::remove_var(var);
    }
    let workers = tioga2_relational::par::threads();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench: workload={} seed={} seconds={} trace={} workers={workers} nproc={nproc}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let result = match args.workload.as_str() {
        "browse_zoomed" => inproc::run(inproc::Scene::Browse, &args),
        "overview_replicate" => inproc::run(inproc::Scene::Overview, &args),
        _ => fleet::run(&args),
    };
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    finish(outcome);
}

fn finish(outcome: Outcome) -> ! {
    for line in &outcome.notes {
        println!("{line}");
    }
    for m in &outcome.metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    println!("{}", outcome.json());
    std::process::exit(if outcome.correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv("--workload fleet_edit --seed 7 --seconds 12 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("fleet_edit", 7, 12.0, true)
        );
        assert!(parse_args(&argv("--workload nope --seed 1")).is_err());
        assert!(parse_args(&argv("--workload browse_zoomed --seed 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload browse_zoomed")).is_err());
    }
}
