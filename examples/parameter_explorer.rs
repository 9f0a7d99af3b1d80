//! Runtime parameters and browsing-query performance: the §2 "runtime
//! parameter supplied by the user" flowing through scalar edges, plus the
//! [Che95]-style window index answering a deep-zoom visible-region query.
//!
//! Run with: `cargo run --example parameter_explorer`

use std::time::Instant;
use tioga2::core::{Environment, Session};
use tioga2::datagen::register_standard_catalog;
use tioga2::expr::{ScalarType as T, Value};
use tioga2::relational::{AggFunc, AggSpec, Catalog};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let catalog = Catalog::new();
    register_standard_catalog(&catalog, 5_000, 4, 17);
    let mut s = Session::new(Environment::new(catalog));

    // ---- A parameterized pipeline: one Const box drives the predicate.
    let stations = s.add_table("Stations")?;
    let cutoff = s.add_const(Value::Float(500.0))?;
    let filtered = s.restrict_with_params(stations, "altitude > cutoff", &[("cutoff", cutoff)])?;
    s.add_viewer(filtered, "high")?;

    println!("altitude cutoff sweep (same program, one Const box twiddled):");
    for c in [0.0, 250.0, 500.0, 1000.0, 2000.0] {
        s.set_const(cutoff, Value::Float(c))?;
        let n = s.displayable("high")?.tuple_count();
        let evals = s.engine_stats();
        println!(
            "  cutoff {c:>7.0} -> {n:>5} stations   (cumulative box evals {})",
            evals.box_evals
        );
    }

    // ---- Aggregate the filtered view per state.
    let per_state = s.aggregate(
        filtered,
        &["state"],
        vec![AggSpec::count("n"), AggSpec::of(AggFunc::Avg, "altitude", "avg_alt")],
    )?;
    if let tioga2::display::Displayable::R(dr) = s.demand(per_state, 0)? {
        println!("\nhigh stations per state (cutoff 2000):");
        print!("{}", dr.rel.to_ascii_table(8));
    }

    // ---- Window index: a deep-zoom browsing query over the continent.
    // A ~1-degree window around Baton Rouge.  Over the stored longitude /
    // latitude columns the plan executor answers it from a grid index
    // built on first use; over method-computed x / y it scans every row.
    let window =
        "longitude >= -91.6 and longitude <= -90.6 and latitude >= 29.9 and latitude <= 30.9";
    let stored = s.restrict(stations, window)?;
    let sx = s.set_attribute(stations, "x", T::Float, "longitude")?;
    let sy = s.set_attribute(sx, "y", T::Float, "latitude")?;
    let computed = s.restrict(sy, "x >= -91.6 and x <= -90.6 and y >= 29.9 and y <= 30.9")?;

    let t0 = Instant::now();
    let hits = s.demand(stored, 0)?.tuple_count();
    let indexed_t = t0.elapsed();
    let t0 = Instant::now();
    let scanned = s.demand(computed, 0)?.tuple_count();
    let scan_t = t0.elapsed();
    assert_eq!(hits, scanned, "the index must be invisible to output");

    println!("\ndeep-zoom window over 5000 stations ({hits} inside):");
    println!("  method-computed x/y (plain scan)   {scan_t:>12.2?}");
    println!(
        "  stored columns (window index)      {indexed_t:>12.2?}   (includes the index build)"
    );
    println!("\n{}", s.explain_analyze(stored, 0)?);
    Ok(())
}
