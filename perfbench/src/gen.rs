//! Seeded inputs: the catalogs each workload loads and the gesture
//! streams it plays.  The same seed always yields the same inputs; the
//! program under test only ever sees what is generated here.

use tioga2_expr::{ScalarType as T, Value};
use tioga2_relational::relation::RelationBuilder;
use tioga2_relational::Catalog;

/// SplitMix64: tiny, seedable, and good enough to scatter points and
/// pick gestures.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x7104_a2be_9c5d_3f11)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }

    /// A derived generator for an independent stream (one per client).
    pub fn fork(&mut self) -> Rng {
        Rng(self.next_u64())
    }
}

/// Side of the square world the points are scattered over.
pub const WORLD: f64 = 1000.0;

/// Values are generated with three decimals, the precision the `show`
/// verb prints floats with, so a read-back compares exactly.
pub fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

/// `Points(name text, x float, y float, mass float)`: `n` points with
/// stored locations scattered uniformly over the world.  Row `i` is named
/// `p<i>`.
pub fn points(n: usize, rng: &mut Rng) -> Vec<(f64, f64, f64)> {
    (0..n)
        .map(|_| {
            (round3(rng.unit() * WORLD), round3(rng.unit() * WORLD), round3(rng.unit() * 100.0))
        })
        .collect()
}

pub fn points_catalog(rows: &[(f64, f64, f64)]) -> Catalog {
    let mut b = RelationBuilder::new()
        .field("name", T::Text)
        .field("x", T::Float)
        .field("y", T::Float)
        .field("mass", T::Float);
    for (i, &(x, y, m)) in rows.iter().enumerate() {
        b = b.row(vec![
            Value::Text(format!("p{i}")),
            Value::Float(x),
            Value::Float(y),
            Value::Float(m),
        ]);
    }
    let c = Catalog::new();
    c.register("Points", b.build().expect("generated Points relation is well-formed"));
    c
}

/// `Observations(station_id int, time timestamp, temperature float,
/// precipitation float)`: one daily series per station from 1985-01-01,
/// so ten years put the 1990 cutoff of Figure 11 in the middle.
/// Temperature is a per-station base, a seasonal sinusoid and seeded
/// noise; the bases are fixed so the value range, and with it the fitted
/// view, does not depend on the seed.
pub fn observations_catalog(stations: usize, days: usize, rng: &mut Rng) -> Catalog {
    const DAY: i64 = 86_400;
    let start = tioga2_expr::value::timestamp_from_parts(1985, 1, 1, 12, 0);
    let mut b = RelationBuilder::new()
        .field("station_id", T::Int)
        .field("time", T::Timestamp)
        .field("temperature", T::Float)
        .field("precipitation", T::Float);
    for station in 0..stations {
        let base = 12.0 + 4.0 * station as f64;
        let phase = rng.unit() * 0.05;
        for d in 0..days {
            let year_frac = d as f64 / 365.25 + phase;
            let seasonal = -10.0 * (std::f64::consts::TAU * year_frac).cos();
            let temp = base + seasonal + (rng.unit() - 0.5) * 4.0;
            let precip = if rng.unit() < 0.2 { round3(rng.unit() * 20.0) } else { 0.0 };
            b = b.row(vec![
                Value::Int(station as i64),
                Value::Timestamp(start + d as i64 * DAY),
                Value::Float((temp * 10.0).round() / 10.0),
                Value::Float(precip),
            ]);
        }
    }
    let c = Catalog::new();
    c.register("Observations", b.build().expect("generated Observations relation is well-formed"));
    c
}

/// One view gesture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gesture {
    Pan(i32, i32),
    Zoom(f64),
}

/// A bounded random walk of pans and zooms.  Every gesture moves the
/// window (no zero pan, no unit zoom); the walk stays within `max_px` of
/// its home position and within `zoom_range` of its starting elevation,
/// so the view never drifts off the data.
#[derive(Debug, Clone)]
pub struct GestureStream {
    rng: Rng,
    /// Offset of the view center from home, in pixels at the current
    /// scale (x grows right, y grows down, as on screen).
    drift: (f64, f64),
    /// Cumulative zoom product relative to the start.
    zoom: f64,
    max_px: f64,
    zoom_range: (f64, f64),
    max_step_px: i64,
    max_zoom_step: f64,
    zoom_share: f64,
}

impl GestureStream {
    pub fn new(rng: Rng, max_px: f64, zoom_range: (f64, f64)) -> GestureStream {
        GestureStream {
            rng,
            drift: (0.0, 0.0),
            zoom: 1.0,
            max_px,
            zoom_range,
            max_step_px: 48,
            // Small enough that the inverse of a step that would leave the
            // range always lands inside it.
            max_zoom_step: (zoom_range.1 / zoom_range.0).sqrt().min(1.25),
            zoom_share: 0.3,
        }
    }

    pub fn next_gesture(&mut self) -> Gesture {
        if self.rng.unit() < self.zoom_share {
            // log-uniform step, never 1.0
            let mut f = self.max_zoom_step.powf(self.rng.unit() * 2.0 - 1.0);
            if (f - 1.0).abs() < 0.02 {
                f = if f < 1.0 { 0.98 } else { 1.02 };
            }
            let z = self.zoom * f;
            if z < self.zoom_range.0 || z > self.zoom_range.1 {
                f = 1.0 / f;
            }
            self.zoom *= f;
            // Zooming keeps the world point under the center fixed, so the
            // pixel drift scales by 1/f.
            self.drift = (self.drift.0 / f, self.drift.1 / f);
            Gesture::Zoom(f)
        } else {
            let step = |rng: &mut Rng, m: i64| loop {
                let v = rng.range(-m, m);
                if v != 0 {
                    return v;
                }
            };
            let mut dx = step(&mut self.rng, self.max_step_px);
            let mut dy = step(&mut self.rng, self.max_step_px);
            // A drag by (dx, dy) moves the view center by (-dx, -dy) px;
            // a step that would leave the bound heads back home instead.
            if (self.drift.0 - dx as f64).abs() > self.max_px {
                dx = self.drift.0.signum() as i64 * dx.abs();
            }
            if (self.drift.1 - dy as f64).abs() > self.max_px {
                dy = self.drift.1.signum() as i64 * dy.abs();
            }
            self.drift = (self.drift.0 - dx as f64, self.drift.1 - dy as f64);
            Gesture::Pan(dx as i32, dy as i32)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = points(50, &mut Rng::new(7));
        let b = points(50, &mut Rng::new(7));
        assert_eq!(a, b);
        assert_ne!(a, points(50, &mut Rng::new(8)));
    }

    #[test]
    fn gestures_always_move_and_stay_bounded() {
        let mut g = GestureStream::new(Rng::new(3), 200.0, (0.5, 2.0));
        let mut narrow = GestureStream::new(Rng::new(4), 30.0, (0.95, 1.05));
        for _ in 0..10_000 {
            narrow.next_gesture();
            assert!(narrow.zoom >= 0.95 - 1e-9 && narrow.zoom <= 1.05 + 1e-9, "{}", narrow.zoom);
        }
        for _ in 0..10_000 {
            match g.next_gesture() {
                Gesture::Pan(dx, dy) => assert!(dx != 0 && dy != 0),
                Gesture::Zoom(f) => assert!((f - 1.0).abs() >= 0.019),
            }
            assert!(g.drift.0.abs() <= 200.0 * 2.0 && g.drift.1.abs() <= 200.0 * 2.0);
            assert!(g.zoom >= 0.5 / 1.25 && g.zoom <= 2.0 * 1.25);
        }
    }
}
