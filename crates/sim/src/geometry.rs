//! Planar geometry for the wireless network model.
//!
//! Nodes live in a rectangular field (the paper uses 300 m × 300 m) and two
//! nodes can communicate when their Euclidean distance is at most the radio
//! range (70 m, typical 802.11n).

use std::fmt;

/// A point in the simulation field, in meters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate in meters.
    pub x: f64,
    /// Vertical coordinate in meters.
    pub y: f64,
}

impl Point {
    /// Creates a point.
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other`, in meters.
    pub fn distance(&self, other: &Point) -> f64 {
        self.distance_squared(other).sqrt()
    }

    /// The square of [`Point::distance`], in m², rounded as the distance
    /// is computed before its square root.
    pub(crate) fn distance_squared(&self, other: &Point) -> f64 {
        (self.x - other.x).powi(2) + (self.y - other.y).powi(2)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.1}, {:.1})", self.x, self.y)
    }
}

impl From<(f64, f64)> for Point {
    fn from((x, y): (f64, f64)) -> Self {
        Point { x, y }
    }
}

/// A rectangular deployment field anchored at the origin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Field {
    /// Width in meters.
    pub width: f64,
    /// Height in meters.
    pub height: f64,
}

impl Field {
    /// Creates a field.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is not strictly positive.
    pub fn new(width: f64, height: f64) -> Self {
        assert!(
            width > 0.0 && height > 0.0,
            "field dimensions must be positive"
        );
        Field { width, height }
    }

    /// The paper's evaluation field: 300 m × 300 m.
    pub fn paper_default() -> Self {
        Field::new(300.0, 300.0)
    }

    /// Clamps a point into the field.
    pub fn clamp(&self, p: Point) -> Point {
        Point {
            x: p.x.clamp(0.0, self.width),
            y: p.y.clamp(0.0, self.height),
        }
    }

    /// Whether the field contains `p`.
    pub fn contains(&self, p: &Point) -> bool {
        (0.0..=self.width).contains(&p.x) && (0.0..=self.height).contains(&p.y)
    }
}

impl Default for Field {
    fn default() -> Self {
        Field::paper_default()
    }
}

/// A uniform-grid spatial hash over a [`Field`].
///
/// Buckets points into square cells at least `cell` meters wide. With
/// `cell >= radio range`, every point within range of a query point lies
/// in the query's own cell or one of its 8 neighbors, so range queries
/// touch O(density · cell²) candidates instead of all `n` points. Cells
/// are widened to `sqrt(area / n)` when that is larger, so a sparse field
/// holds about `n` buckets instead of `area / cell²`.
///
/// The buckets are counting-sorted into one array: cell `c` holds
/// `entries[start[c]..start[c + 1]]`, each `(position, index)` in index
/// order, and cells are laid out row-major — so the three cells of one
/// grid row are one contiguous slice.
#[derive(Debug, Clone)]
pub struct CellGrid {
    cell: f64,
    cols: usize,
    rows: usize,
    start: Vec<usize>,
    entries: Vec<(Point, usize)>,
}

impl CellGrid {
    /// Buckets `points` (indexed by position in the slice) into cells of
    /// side `max(cell, sqrt(area / n))` meters. A wider cell's 3×3 block
    /// still covers radius `cell`; it only visits more candidates, in a
    /// different order. Points outside the field are clamped into the
    /// border cells, so out-of-field coordinates still land in a bucket.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is not strictly positive.
    pub fn new(field: &Field, cell: f64, points: &[Point]) -> Self {
        assert!(cell > 0.0, "cell size must be positive");
        let per_point = (field.width * field.height / points.len().max(1) as f64).sqrt();
        let cell = cell.max(per_point);
        let cols = (field.width / cell).ceil().max(1.0) as usize;
        let rows = (field.height / cell).ceil().max(1.0) as usize;
        let mut grid = CellGrid {
            cell,
            cols,
            rows,
            start: vec![0; cols * rows + 1],
            entries: vec![(Point::default(), 0); points.len()],
        };
        let cells: Vec<usize> = points.iter().map(|p| grid.cell_of(p)).collect();
        for &c in &cells {
            grid.start[c + 1] += 1;
        }
        for c in 0..cols * rows {
            grid.start[c + 1] += grid.start[c];
        }
        let mut next = grid.start.clone();
        for (i, (&c, &p)) in cells.iter().zip(points).enumerate() {
            grid.entries[next[c]] = (p, i);
            next[c] += 1;
        }
        grid
    }

    /// Column and row of the cell containing `p` (clamped to the grid).
    fn cell_xy(&self, p: &Point) -> (usize, usize) {
        let cx = ((p.x / self.cell).floor().max(0.0) as usize).min(self.cols - 1);
        let cy = ((p.y / self.cell).floor().max(0.0) as usize).min(self.rows - 1);
        (cx, cy)
    }

    /// Bucket index containing `p` (clamped to the grid bounds).
    fn cell_of(&self, p: &Point) -> usize {
        let (cx, cy) = self.cell_xy(p);
        cy * self.cols + cx
    }

    /// Visits every point in the 3×3 cell neighborhood of `p` — a
    /// superset of all points within `cell` meters of `p` — as
    /// `(index, position)`. Cells are visited row by row and each cell in
    /// index order, so the caller must sort if it needs a canonical
    /// ordering.
    pub fn for_each_candidate<F: FnMut(usize, Point)>(&self, p: &Point, mut f: F) {
        let (cx, cy) = self.cell_xy(p);
        let (x0, x1) = (cx.saturating_sub(1), (cx + 1).min(self.cols - 1));
        for y in cy.saturating_sub(1)..=(cy + 1).min(self.rows - 1) {
            let row = y * self.cols;
            for &(q, i) in &self.entries[self.start[row + x0]..self.start[row + x1 + 1]] {
                f(i, q);
            }
        }
    }

    /// Estimated heap usage in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.start.capacity() * std::mem::size_of::<usize>()
            + self.entries.capacity() * std::mem::size_of::<(Point, usize)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_basics() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert!((a.distance(&b) - 5.0).abs() < 1e-12);
        assert_eq!(a.distance(&a), 0.0);
    }

    #[test]
    fn distance_symmetry() {
        let a = Point::new(1.5, 2.5);
        let b = Point::new(-4.0, 7.0);
        assert_eq!(a.distance(&b), b.distance(&a));
    }

    #[test]
    fn field_clamp_and_contains() {
        let f = Field::paper_default();
        assert!(f.contains(&Point::new(150.0, 150.0)));
        assert!(!f.contains(&Point::new(301.0, 0.0)));
        let clamped = f.clamp(Point::new(-5.0, 500.0));
        assert_eq!(clamped, Point::new(0.0, 300.0));
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_field_rejected() {
        let _ = Field::new(0.0, 10.0);
    }

    #[test]
    fn point_display() {
        assert_eq!(format!("{}", Point::new(1.25, 2.0)), "(1.2, 2.0)");
    }

    #[test]
    fn cell_grid_candidates_cover_all_in_range_pairs() {
        let field = Field::paper_default();
        // Deterministic pseudo-grid of points, including field corners.
        let mut pts = Vec::new();
        for i in 0..12 {
            for j in 0..12 {
                pts.push(Point::new(
                    (i as f64 * 27.3) % 300.0,
                    (j as f64 * 41.7) % 300.0,
                ));
            }
        }
        let range = 70.0;
        let grid = CellGrid::new(&field, range, &pts);
        for (a, pa) in pts.iter().enumerate() {
            let mut candidates = Vec::new();
            grid.for_each_candidate(pa, |i, q| {
                assert_eq!(q, pts[i], "candidate {i} carries its own position");
                candidates.push(i);
            });
            // Every in-range point (including `a` itself) is a candidate.
            for (b, pb) in pts.iter().enumerate() {
                if pa.distance(pb) <= range {
                    assert!(candidates.contains(&b), "{a} missing in-range {b}");
                }
            }
        }
    }

    #[test]
    fn cell_grid_clamps_out_of_field_points() {
        let field = Field::new(100.0, 100.0);
        let pts = vec![Point::new(-10.0, 50.0), Point::new(250.0, 250.0)];
        let grid = CellGrid::new(&field, 70.0, &pts);
        let mut seen = Vec::new();
        grid.for_each_candidate(&Point::new(0.0, 50.0), |i, _| seen.push(i));
        assert!(seen.contains(&0));
        let mut far = Vec::new();
        grid.for_each_candidate(&Point::new(100.0, 100.0), |i, _| far.push(i));
        assert!(far.contains(&1));
        assert!(grid.memory_bytes() > 0);
    }

    #[test]
    fn a_sparse_field_holds_about_one_bucket_per_point() {
        // 100 points, in 50 m pairs, on a 200 km square: 70 m cells would
        // be 2,858² ≈ 8 × 10⁶ buckets (65 MB of offsets).
        let field = Field::new(2e5, 2e5);
        let pts: Vec<Point> = (0..50)
            .flat_map(|i| {
                let (x, y) = ((i * 3_917) % 199_900, (i * 7_741) % 199_900);
                let p = Point::new(x as f64, y as f64);
                [p, Point::new(p.x + 30.0, p.y + 40.0)]
            })
            .collect();
        let grid = CellGrid::new(&field, 70.0, &pts);
        assert!(
            grid.memory_bytes() <= 64 * 1024,
            "{} bytes for {} points",
            grid.memory_bytes(),
            pts.len()
        );
        for (a, pa) in pts.iter().enumerate() {
            let mut candidates = Vec::new();
            grid.for_each_candidate(pa, |i, _| candidates.push(i));
            for (b, pb) in pts.iter().enumerate() {
                if pa.distance(pb) <= 70.0 {
                    assert!(candidates.contains(&b), "{a} missing in-range {b}");
                }
            }
        }
    }
}
