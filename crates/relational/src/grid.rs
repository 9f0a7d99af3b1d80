//! A uniform-grid index over a pair of stored numeric columns.
//!
//! The paper defers browsing-query performance to \[Che95\]: a viewer
//! zoomed deep into a large canvas shows a handful of tuples, yet a plain
//! windowed Restrict reads every row to find them.  A [`GridIndex`] cuts
//! the plane spanned by two stored columns into cells and lists each
//! cell's rows in CSR form (cell offsets plus row positions), so a window
//! query reads only the cells it overlaps.
//!
//! The index only ever *proposes* rows: `GridIndex::candidates` returns
//! a superset of the rows whose keys fall in the queried ranges (every
//! range is widened by one cell, and rows with a Null or non-finite key
//! are always included), and the caller re-evaluates its own predicate on
//! them.  An index is built lazily by [`crate::Relation::grid_index`] or
//! [`crate::Relation::window_candidates`] and lives inside the tuple store
//! it describes, so it is dropped together with the store on the first
//! mutation.

use crate::tuple::Tuple;

/// Target number of keyed rows per cell.
const ROWS_PER_CELL: f64 = 4.0;
/// Upper bound on cells per dimension (bounds the offset table).
const MAX_SIDE: usize = 4096;
/// Rows read by [`GridIndex::estimate`].
const SAMPLE: usize = 256;

/// A uniform grid over stored columns `cols[0]` × `cols[1]`.
#[derive(Debug)]
pub struct GridIndex {
    cols: [usize; 2],
    /// Smallest finite key and cell width per dimension.
    min: [f64; 2],
    width: [f64; 2],
    /// Cells per dimension (1 for a zero-extent or empty dimension).
    side: [usize; 2],
    /// CSR layout: the rows of cell `c` (row-major, dimension 0 fastest)
    /// are `rows[offsets[c]..offsets[c + 1]]`, in ascending position.
    offsets: Vec<u32>,
    rows: Vec<u32>,
    /// Rows whose key is Null or non-finite in either column.
    unkeyed: Vec<u32>,
}

/// The numeric key of column `col`, or `None` for Null and non-finite
/// values (those rows are never placed in a cell).
fn key(t: &Tuple, col: usize) -> Option<f64> {
    t.get(col).and_then(|v| v.as_f64()).filter(|v| v.is_finite())
}

impl GridIndex {
    /// Index `tuples` over the stored columns at positions `cols`.
    /// Positions are stored as `u32`: at most `u32::MAX` tuples.
    pub fn build(tuples: &[Tuple], cols: [usize; 2]) -> GridIndex {
        assert!(u32::try_from(tuples.len()).is_ok(), "a grid indexes at most u32::MAX rows");
        let mut min = [f64::INFINITY; 2];
        let mut max = [f64::NEG_INFINITY; 2];
        let mut keyed = 0usize;
        for t in tuples {
            if let (Some(a), Some(b)) = (key(t, cols[0]), key(t, cols[1])) {
                for (d, v) in [a, b].into_iter().enumerate() {
                    min[d] = min[d].min(v);
                    max[d] = max[d].max(v);
                }
                keyed += 1;
            }
        }
        let per_dim = ((keyed as f64 / ROWS_PER_CELL).sqrt().ceil() as usize).clamp(1, MAX_SIDE);
        // A dimension is cut only when its cell width is a positive finite
        // number, so cell coordinates never divide by zero or infinity.
        let width = [0, 1].map(|d| (max[d] - min[d]) / per_dim as f64);
        let side = width.map(|w| if w > 0.0 && w.is_finite() { per_dim } else { 1 });
        let mut grid = GridIndex {
            cols,
            min,
            width,
            side,
            offsets: vec![0; side[0] * side[1] + 1],
            rows: vec![0; keyed],
            unkeyed: Vec::with_capacity(tuples.len() - keyed),
        };
        // Counting sort into cells: positions come out ascending per cell.
        let cells: Vec<Option<usize>> = tuples
            .iter()
            .map(|t| match (key(t, cols[0]), key(t, cols[1])) {
                (Some(a), Some(b)) => Some(grid.cell_of(0, a) + side[0] * grid.cell_of(1, b)),
                _ => None,
            })
            .collect();
        for c in cells.iter().flatten() {
            grid.offsets[c + 1] += 1;
        }
        for c in 1..grid.offsets.len() {
            grid.offsets[c] += grid.offsets[c - 1];
        }
        let mut next = grid.offsets.clone();
        for (pos, cell) in cells.into_iter().enumerate() {
            match cell {
                Some(c) => {
                    grid.rows[next[c] as usize] = pos as u32;
                    next[c] += 1;
                }
                None => grid.unkeyed.push(pos as u32),
            }
        }
        grid
    }

    /// The number of `tuples` whose keys in `cols` lie in `ranges`, plus
    /// the unkeyed ones (both as [`GridIndex::candidates`] counts them,
    /// less the one-cell widening), estimated from at most [`SAMPLE`]
    /// evenly spaced rows.  Lets a caller decline to build a grid for a
    /// window that covers most rows.
    pub(crate) fn estimate(tuples: &[Tuple], cols: [usize; 2], ranges: [(f64, f64); 2]) -> f64 {
        let n = tuples.len();
        let k = n.min(SAMPLE);
        if k == 0 {
            return 0.0;
        }
        // NaN bounds constrain nothing.
        let inside =
            |v: f64, (lo, hi): (f64, f64)| (lo.is_nan() || v >= lo) && (hi.is_nan() || v <= hi);
        let hits = (0..k)
            .filter(|j| {
                let t = &tuples[j * n / k];
                match (key(t, cols[0]), key(t, cols[1])) {
                    (Some(a), Some(b)) => inside(a, ranges[0]) && inside(b, ranges[1]),
                    _ => true,
                }
            })
            .count();
        (hits * n) as f64 / k as f64
    }

    /// The stored-column positions this grid indexes.
    pub(crate) fn cols(&self) -> [usize; 2] {
        self.cols
    }

    /// Unclamped cell coordinate of `v` along dimension `d`.  Monotone
    /// non-decreasing in `v` (every step is), which is what makes the
    /// probe a superset: a key inside `[lo, hi]` lands in a cell between
    /// the coordinates of `lo` and `hi`.
    fn coord(&self, d: usize, v: f64) -> f64 {
        if self.side[d] == 1 {
            return 0.0;
        }
        ((v - self.min[d]) / self.width[d]).floor()
    }

    fn cell_of(&self, d: usize, v: f64) -> usize {
        self.coord(d, v).clamp(0.0, (self.side[d] - 1) as f64) as usize
    }

    /// Positions of every row whose keys may lie in `ranges` (closed
    /// intervals on column values, either end possibly infinite), in
    /// ascending order — or `None` once more than `limit` rows would be
    /// returned.  Each range is widened by one cell, and rows with a
    /// Null or non-finite key are always returned.  An empty range (its
    /// low end above its high end) admits no keyed row.
    pub(crate) fn candidates(&self, ranges: [(f64, f64); 2], limit: usize) -> Option<Vec<u32>> {
        let mut span = [(0usize, 0usize); 2];
        for (d, (lo, hi)) in ranges.into_iter().enumerate() {
            let last = (self.side[d] - 1) as f64;
            // NaN bounds constrain nothing.
            let a = if lo.is_nan() { f64::NEG_INFINITY } else { lo };
            let b = if hi.is_nan() { f64::INFINITY } else { hi };
            let (from, to) = (self.coord(d, a) - 1.0, self.coord(d, b) + 1.0);
            if a > b || to < 0.0 || from > last {
                return self.collect(None, limit);
            }
            // `a <= b` and `coord` is monotone, so `from <= to` here.
            span[d] = (from.clamp(0.0, last) as usize, to.clamp(0.0, last) as usize);
        }
        self.collect(Some(span), limit)
    }

    fn collect(&self, span: Option<[(usize, usize); 2]>, limit: usize) -> Option<Vec<u32>> {
        let runs = |f: &mut dyn FnMut(usize, usize)| {
            if let Some([(x0, x1), (y0, y1)]) = span {
                for y in y0..=y1 {
                    let row = y * self.side[0];
                    f(self.offsets[row + x0] as usize, self.offsets[row + x1 + 1] as usize);
                }
            }
        };
        let mut n = self.unkeyed.len();
        runs(&mut |a, b| n += b - a);
        if n > limit {
            return None;
        }
        let mut out = Vec::with_capacity(n);
        runs(&mut |a, b| out.extend_from_slice(&self.rows[a..b]));
        out.extend_from_slice(&self.unkeyed);
        out.sort_unstable();
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tioga2_expr::Value;

    fn tuples(points: &[(Value, Value)]) -> Vec<Tuple> {
        points
            .iter()
            .enumerate()
            .map(|(i, (x, y))| Tuple::new(i as u64, vec![x.clone(), y.clone()]))
            .collect()
    }

    fn brute(ts: &[Tuple], ranges: [(f64, f64); 2]) -> Vec<u32> {
        (0..ts.len() as u32)
            .filter(|&i| {
                let t = &ts[i as usize];
                match (key(t, 0), key(t, 1)) {
                    (Some(x), Some(y)) => {
                        ranges[0].0 <= x && x <= ranges[0].1 && ranges[1].0 <= y && y <= ranges[1].1
                    }
                    _ => true,
                }
            })
            .collect()
    }

    fn grid_points(n: usize) -> Vec<Tuple> {
        let pts: Vec<(Value, Value)> = (0..n)
            .map(|i| (Value::Float((i % 37) as f64 * 2.5), Value::Float((i / 37) as f64)))
            .collect();
        tuples(&pts)
    }

    #[test]
    fn candidates_cover_every_matching_row() {
        let ts = grid_points(2000);
        let g = GridIndex::build(&ts, [0, 1]);
        for ranges in [
            [(10.0, 20.0), (5.0, 9.0)],
            [(f64::NEG_INFINITY, 3.0), (50.0, f64::INFINITY)],
            [(-5.0, 1000.0), (-5.0, 1000.0)],
            [(40.0, 40.0), (20.0, 20.0)],
        ] {
            let got = g.candidates(ranges, usize::MAX).unwrap();
            assert!(got.windows(2).all(|w| w[0] < w[1]), "ascending, no duplicates");
            for want in brute(&ts, ranges) {
                assert!(got.binary_search(&want).is_ok(), "row {want} missing for {ranges:?}");
            }
        }
    }

    #[test]
    fn small_window_reads_few_rows() {
        let ts = grid_points(10_000);
        let g = GridIndex::build(&ts, [0, 1]);
        let got = g.candidates([(10.0, 12.0), (100.0, 102.0)], usize::MAX).unwrap();
        assert!(got.len() < 200, "{} candidates", got.len());
    }

    #[test]
    fn limit_and_outside_windows() {
        let ts = grid_points(1000);
        let g = GridIndex::build(&ts, [0, 1]);
        assert!(g.candidates([(f64::NEG_INFINITY, f64::INFINITY); 2], 500).is_none());
        assert_eq!(g.candidates([(1e9, 2e9), (0.0, 10.0)], 0), Some(Vec::new()));
        assert_eq!(g.candidates([(0.0, 100.0), (-9e9, -1e9)], 0), Some(Vec::new()));
    }

    #[test]
    fn unkeyed_rows_are_always_candidates() {
        let mut ts = grid_points(400);
        let n = ts.len() as u64;
        for (i, (x, y)) in [
            (Value::Null, Value::Float(1.0)),
            (Value::Float(f64::NAN), Value::Float(1.0)),
            (Value::Float(2.0), Value::Float(f64::INFINITY)),
        ]
        .into_iter()
        .enumerate()
        {
            ts.push(Tuple::new(n + i as u64, vec![x, y]));
        }
        let g = GridIndex::build(&ts, [0, 1]);
        let got = g.candidates([(1e6, 2e6), (1e6, 2e6)], usize::MAX).unwrap();
        assert_eq!(got, vec![400, 401, 402]);
    }

    #[test]
    fn empty_ranges_admit_only_unkeyed_rows() {
        let mut ts = grid_points(2000);
        ts.push(Tuple::new(2000, vec![Value::Null, Value::Float(1.0)]));
        let g = GridIndex::build(&ts, [0, 1]);
        // A contradictory x range (`x >= 60 and x <= 40`) next to a valid
        // y range, and the reverse: no keyed row, whatever the gap.
        for ranges in [
            [(60.0, 40.0), (0.0, f64::INFINITY)],
            [(0.0, 90.0), (30.0, 2.0)],
            [(f64::INFINITY, f64::NEG_INFINITY), (0.0, 10.0)],
        ] {
            assert_eq!(g.candidates(ranges, usize::MAX), Some(vec![2000]), "{ranges:?}");
            assert_eq!(g.candidates(ranges, 1), Some(vec![2000]));
        }
    }

    #[test]
    fn estimate_samples_the_window_share() {
        // x = (i % 37) * 2.5 spans [0, 90]; y = i / 37 spans [0, 99].
        let mut ts = grid_points(3700);
        let all = [(f64::NEG_INFINITY, f64::INFINITY); 2];
        assert_eq!(GridIndex::estimate(&ts, [0, 1], all), 3700.0);
        assert_eq!(GridIndex::estimate(&ts, [0, 1], [(f64::NAN, f64::NAN); 2]), 3700.0);
        let half = GridIndex::estimate(&ts, [0, 1], [(0.0, 45.0), (f64::NAN, f64::NAN)]);
        assert!((1700.0..2100.0).contains(&half), "{half}");
        assert_eq!(GridIndex::estimate(&ts, [0, 1], [(1e9, 2e9), (0.0, 99.0)]), 0.0);
        // Unkeyed rows count wherever the window is.
        for t in ts.iter_mut().step_by(2) {
            *t = Tuple::new(t.row_id, vec![Value::Null, Value::Float(0.0)]);
        }
        let unkeyed = GridIndex::estimate(&ts, [0, 1], [(1e9, 2e9), (0.0, 99.0)]);
        assert!((1700.0..2100.0).contains(&unkeyed), "{unkeyed}");
        assert_eq!(GridIndex::estimate(&[], [0, 1], all), 0.0);
    }

    #[test]
    fn zero_extent_and_empty_inputs() {
        let same: Vec<(Value, Value)> =
            (0..50).map(|i| (Value::Float(3.0), Value::Float(i as f64))).collect();
        let ts = tuples(&same);
        let g = GridIndex::build(&ts, [0, 1]);
        let got = g.candidates([(3.0, 3.0), (10.0, 12.0)], usize::MAX).unwrap();
        for want in brute(&ts, [(3.0, 3.0), (10.0, 12.0)]) {
            assert!(got.contains(&want));
        }
        let empty = GridIndex::build(&[], [0, 1]);
        assert_eq!(empty.candidates([(0.0, 1.0); 2], 0), Some(Vec::new()));
    }
}
