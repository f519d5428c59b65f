//! The maze-routing grid of the paper's routing stage (§4.2.2).
//!
//! The region between two nodes to be merged is partitioned into routing
//! grid cells. The paper uses a default resolution of **R = 45 cells per
//! dimension** of the bounding box and *grows* the resolution for long nets
//! so that enough candidate buffer locations exist along any path, while the
//! cell count (and thus routing time) stays steady for short nets.

use crate::{Point, Rect};
use std::fmt;

/// Identifier of a routing-grid cell: `(column, row)` indices.
///
/// Cell `(0, 0)` is the lower-left cell. `CellId` is deliberately a plain
/// index pair (not a linear offset) so that neighbor math is legible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct CellId {
    /// Column index (x direction).
    pub col: u32,
    /// Row index (y direction).
    pub row: u32,
}

impl CellId {
    /// Creates a cell id from column and row indices.
    pub const fn new(col: u32, row: u32) -> CellId {
        CellId { col, row }
    }
}

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}r{}", self.col, self.row)
    }
}

/// A uniform routing grid over a rectangular region.
///
/// The grid is the search space of the bi-directional maze router: cell
/// centers are candidate wire bend points and buffer locations. Resolution
/// is chosen per net pair (see [`RoutingGrid::between`]), implementing the
/// paper's dynamic grid sizing.
///
/// ```
/// use cts_geom::{Point, RoutingGrid};
/// let g = RoutingGrid::between(Point::new(0.0, 0.0), Point::new(900.0, 450.0), 45);
/// let s = g.nearest_cell(Point::new(0.0, 0.0));
/// let t = g.nearest_cell(Point::new(900.0, 450.0));
/// assert!(g.cell_center(s).manhattan_dist(Point::new(0.0, 0.0)) <= g.pitch());
/// assert_ne!(s, t);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingGrid {
    region: Rect,
    cols: u32,
    rows: u32,
    pitch_x: f64,
    pitch_y: f64,
}

/// Maximum distance (µm) between adjacent candidate buffer sites the dynamic
/// sizing rule tolerates. With 10× unit parasitics (0.2 fF/µm), slew
/// degrades over a few hundred µm of wire, so candidate sites must be
/// considerably denser than that for the router to land a buffer near the
/// ideal spot.
pub const MAX_CELL_PITCH_UM: f64 = 120.0;

impl RoutingGrid {
    /// Builds the routing grid for merging two nodes, with dynamic
    /// resolution.
    ///
    /// The region is the bounding box of `a` and `b`, expanded by 10% of its
    /// longer dimension (at least one pitch) so that slight detours around
    /// the box remain representable. The base resolution is `r_default`
    /// cells per dimension (the paper's R = 45); if that would make cells
    /// coarser than [`MAX_CELL_PITCH_UM`], the resolution grows until the
    /// pitch is fine enough — the paper's "for large distance the routing
    /// grid size can increase dynamically".
    ///
    /// # Panics
    ///
    /// Panics if `r_default` is zero, the points are non-finite, or they
    /// are so far apart that no `u32` cell count reaches the pitch (see
    /// [`RoutingGrid::dims_for_region`]).
    pub fn between(a: Point, b: Point, r_default: u32) -> RoutingGrid {
        let (cols, rows) = RoutingGrid::dims_between(a, b, r_default)
            .expect("span too large for a u32 cell count at the maximum pitch");
        RoutingGrid::between_with_dims(a, b, cols, rows)
    }

    /// The column/row counts [`RoutingGrid::between`] would pick for this
    /// pair, or `None` if the span is too large for them (see
    /// [`RoutingGrid::dims_for_region`]).
    ///
    /// # Panics
    ///
    /// Panics if `r_default` is zero or the points are non-finite.
    pub fn dims_between(a: Point, b: Point, r_default: u32) -> Option<(u32, u32)> {
        assert!(
            a.is_finite() && b.is_finite(),
            "grid corners must be finite"
        );
        RoutingGrid::dims_for_region(RoutingGrid::region_between(a, b), r_default)
    }

    /// The dynamic-resolution rule alone: the column/row counts for a
    /// region of the given dimensions. A pure function of the region's
    /// **width and height** (exact `f64` values) and `r_default` — which is
    /// what makes the counts cacheable across the many similar merges of a
    /// topology level.
    ///
    /// Returns `None` when doubling would overflow `u32` before the pitch
    /// reaches [`MAX_CELL_PITCH_UM`]: an extent beyond 2.6·10¹¹ to
    /// 5.2·10¹¹ µm depending on `r_default` (an infinite one included),
    /// far beyond any die.
    ///
    /// # Panics
    ///
    /// Panics if `r_default` is zero.
    pub fn dims_for_region(region: Rect, r_default: u32) -> Option<(u32, u32)> {
        assert!(r_default > 0, "grid resolution must be positive");
        let grow = |extent: f64| {
            let mut n = r_default;
            while extent / n as f64 > MAX_CELL_PITCH_UM {
                n = n.checked_mul(2)?;
            }
            Some(n)
        };
        Some((grow(region.width())?, grow(region.height())?))
    }

    /// [`RoutingGrid::between`] with precomputed column/row counts (from
    /// [`RoutingGrid::dims_between`], possibly cached by the caller). For
    /// matching dims the result is identical — bit for bit — to calling
    /// `between` directly: the region, pitches, and cell centers are the
    /// same arithmetic either way.
    ///
    /// # Panics
    ///
    /// Panics if `cols`/`rows` is zero or the points are non-finite.
    pub fn between_with_dims(a: Point, b: Point, cols: u32, rows: u32) -> RoutingGrid {
        assert!(
            a.is_finite() && b.is_finite(),
            "grid corners must be finite"
        );
        RoutingGrid::over_region(RoutingGrid::region_between(a, b), cols, rows)
    }

    /// The routed region between two points: their bounding box expanded by
    /// 10% of its longer dimension (at least one pitch) so slight detours
    /// around the box remain representable. Degenerate boxes (coincident or
    /// axis-aligned points) still need an area to route in and get a
    /// minimal square around the centroid.
    ///
    /// Note for dimension caching: the expanded region's width/height are
    /// *not* a pure function of the pair's span — the expansion arithmetic
    /// rounds against the absolute coordinates — so cache keys must use the
    /// region dimensions themselves, not the raw span.
    pub fn region_between(a: Point, b: Point) -> Rect {
        let bb = Rect::from_corners(a, b);
        let span = bb.longer_dim().max(1.0);
        bb.expand(0.10 * span)
    }

    /// Builds a grid with explicit column/row counts over `region`.
    ///
    /// # Panics
    ///
    /// Panics if `cols` or `rows` is zero.
    pub fn over_region(region: Rect, cols: u32, rows: u32) -> RoutingGrid {
        assert!(cols > 0 && rows > 0, "grid must have at least one cell");
        RoutingGrid {
            region,
            cols,
            rows,
            pitch_x: region.width() / cols as f64,
            pitch_y: region.height() / rows as f64,
        }
    }

    /// The routed region.
    pub fn region(&self) -> Rect {
        self.region
    }

    /// Number of columns.
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// Number of rows.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Total number of cells.
    pub fn cell_count(&self) -> usize {
        self.cols as usize * self.rows as usize
    }

    /// Cell pitch: Manhattan distance between horizontally or vertically
    /// adjacent cell centers, conservatively the larger of the two axes.
    pub fn pitch(&self) -> f64 {
        self.pitch_x.max(self.pitch_y)
    }

    /// Horizontal pitch (µm).
    pub fn pitch_x(&self) -> f64 {
        self.pitch_x
    }

    /// Vertical pitch (µm).
    pub fn pitch_y(&self) -> f64 {
        self.pitch_y
    }

    /// Center point of a cell.
    ///
    /// # Panics
    ///
    /// Panics if the cell is out of bounds.
    pub fn cell_center(&self, id: CellId) -> Point {
        assert!(
            self.in_bounds(id),
            "cell {id} outside {}x{} grid",
            self.cols,
            self.rows
        );
        Point::new(
            self.region.lo().x + (id.col as f64 + 0.5) * self.pitch_x,
            self.region.lo().y + (id.row as f64 + 0.5) * self.pitch_y,
        )
    }

    /// Returns `true` if `id` addresses a cell of this grid.
    pub fn in_bounds(&self, id: CellId) -> bool {
        id.col < self.cols && id.row < self.rows
    }

    /// The cell whose center is nearest to `p` (clamped into the region).
    pub fn nearest_cell(&self, p: Point) -> CellId {
        let q = self.region.clamp(p);
        let col = if self.pitch_x > 0.0 {
            (((q.x - self.region.lo().x) / self.pitch_x).floor() as i64)
                .clamp(0, self.cols as i64 - 1) as u32
        } else {
            0
        };
        let row = if self.pitch_y > 0.0 {
            (((q.y - self.region.lo().y) / self.pitch_y).floor() as i64)
                .clamp(0, self.rows as i64 - 1) as u32
        } else {
            0
        };
        CellId::new(col, row)
    }

    /// Linear index of a cell (row-major), for dense per-cell storage.
    pub fn linear_index(&self, id: CellId) -> usize {
        id.row as usize * self.cols as usize + id.col as usize
    }

    /// The 4-connected neighbors of a cell (von Neumann neighborhood),
    /// in-bounds only.
    pub fn neighbors(&self, id: CellId) -> impl Iterator<Item = CellId> + '_ {
        let deltas: [(i64, i64); 4] = [(1, 0), (-1, 0), (0, 1), (0, -1)];
        deltas.into_iter().filter_map(move |(dc, dr)| {
            let col = id.col as i64 + dc;
            let row = id.row as i64 + dr;
            if col >= 0 && row >= 0 {
                let cand = CellId::new(col as u32, row as u32);
                self.in_bounds(cand).then_some(cand)
            } else {
                None
            }
        })
    }

    /// Manhattan distance between the centers of two cells.
    pub fn cell_dist(&self, a: CellId, b: CellId) -> f64 {
        self.cell_center(a).manhattan_dist(self.cell_center(b))
    }
}

impl fmt::Display for RoutingGrid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{} grid over {} (pitch {:.2} µm)",
            self.cols,
            self.rows,
            self.region,
            self.pitch()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_resolution_for_short_nets() {
        let g = RoutingGrid::between(Point::ORIGIN, Point::new(100.0, 80.0), 45);
        assert_eq!(g.cols(), 45);
        assert_eq!(g.rows(), 45);
    }

    #[test]
    fn resolution_grows_for_long_nets() {
        let g = RoutingGrid::between(Point::ORIGIN, Point::new(20_000.0, 500.0), 45);
        assert!(g.cols() > 45, "cols = {}", g.cols());
        assert!(g.pitch_x() <= MAX_CELL_PITCH_UM);
    }

    #[test]
    fn nearest_cell_roundtrip() {
        let g = RoutingGrid::between(Point::ORIGIN, Point::new(450.0, 450.0), 45);
        for &(x, y) in &[(0.0, 0.0), (450.0, 450.0), (225.0, 10.0)] {
            let p = Point::new(x, y);
            let c = g.nearest_cell(p);
            assert!(g.in_bounds(c));
            assert!(g.cell_center(c).manhattan_dist(p) <= g.pitch_x() + g.pitch_y());
        }
    }

    #[test]
    fn nearest_cell_clamps_outside_points() {
        let g = RoutingGrid::between(Point::ORIGIN, Point::new(100.0, 100.0), 10);
        let far = Point::new(1e6, -1e6);
        let c = g.nearest_cell(far);
        assert!(g.in_bounds(c));
    }

    #[test]
    fn neighbors_are_in_bounds_and_adjacent() {
        let g = RoutingGrid::between(Point::ORIGIN, Point::new(100.0, 100.0), 5);
        let corner = CellId::new(0, 0);
        let n: Vec<_> = g.neighbors(corner).collect();
        assert_eq!(n.len(), 2);
        let middle = CellId::new(2, 2);
        let n: Vec<_> = g.neighbors(middle).collect();
        assert_eq!(n.len(), 4);
        for m in n {
            let d = (m.col as i64 - 2).abs() + (m.row as i64 - 2).abs();
            assert_eq!(d, 1);
        }
    }

    #[test]
    fn cached_dims_reproduce_between_exactly() {
        // The grid cache in the maze scratch rebuilds grids from cached
        // (cols, rows); the rebuilt grid must be bit-identical to a fresh
        // `between` call for the synthesis flow to stay deterministic.
        let pairs = [
            (Point::new(13.5, -7.25), Point::new(913.5, 442.75)),
            (Point::ORIGIN, Point::new(20_000.0, 500.0)),
            (Point::new(5.0, 5.0), Point::new(5.0, 5.0)),
            (Point::new(-300.0, 90.0), Point::new(120.0, 90.0)),
        ];
        for (a, b) in pairs {
            let fresh = RoutingGrid::between(a, b, 45);
            let (cols, rows) = RoutingGrid::dims_between(a, b, 45).unwrap();
            let rebuilt = RoutingGrid::between_with_dims(a, b, cols, rows);
            assert_eq!(fresh, rebuilt);
            // `dims_for_region` keyed by the exact region dimensions is the
            // cacheable decomposition of `between`.
            let region = RoutingGrid::region_between(a, b);
            assert_eq!(Some((cols, rows)), RoutingGrid::dims_for_region(region, 45));
            assert_eq!(fresh.region(), region);
        }
    }

    #[test]
    fn spans_beyond_u32_cell_counts_have_no_dims() {
        // 45 · 2²⁶ columns at 120 µm cover 3.6·10¹¹ µm; one more doubling
        // overflows. The doubling must stop there, not wrap to zero and
        // divide by it forever.
        let huge = RoutingGrid::region_between(Point::ORIGIN, Point::new(1e12, 0.0));
        assert_eq!(RoutingGrid::dims_for_region(huge, 45), None);
        let endless = Rect::from_corners(Point::ORIGIN, Point::new(f64::INFINITY, 1.0));
        assert_eq!(RoutingGrid::dims_for_region(endless, 45), None);
        assert_eq!(
            RoutingGrid::dims_between(Point::ORIGIN, Point::new(0.0, 1e12), 45),
            None
        );
        // The largest span that fits still gets counts.
        let big = Rect::with_size(3.0e11, 1.0);
        assert_eq!(RoutingGrid::dims_for_region(big, 45), Some((45 << 26, 45)));
    }

    #[test]
    fn coincident_points_still_make_a_grid() {
        let p = Point::new(5.0, 5.0);
        let g = RoutingGrid::between(p, p, 45);
        assert!(g.cell_count() > 0);
        assert!(g.region().contains(p));
    }

    #[test]
    fn linear_index_bijective() {
        let g = RoutingGrid::over_region(Rect::with_size(10.0, 10.0), 7, 3);
        let mut seen = vec![false; g.cell_count()];
        for row in 0..g.rows() {
            for col in 0..g.cols() {
                let i = g.linear_index(CellId::new(col, row));
                assert!(!seen[i]);
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "at least one cell")]
    fn zero_cells_rejected() {
        let _ = RoutingGrid::over_region(Rect::with_size(1.0, 1.0), 0, 3);
    }
}
