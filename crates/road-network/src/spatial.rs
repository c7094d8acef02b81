//! Planar geometry primitives used throughout the workspace.
//!
//! All coordinates are expressed in a local, metric, planar frame (metres on
//! both axes).  The paper's road networks come from OpenStreetMap in
//! longitude/latitude; our synthetic networks are generated directly in a
//! projected frame, which keeps every distance computation a plain Euclidean
//! one and avoids pulling in a geodesy dependency.

/// A point in the local planar frame, in metres.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Easting in metres.
    pub x: f64,
    /// Northing in metres.
    pub y: f64,
}

impl Point {
    /// Creates a point from easting/northing metres.
    pub fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other`, in metres.
    pub fn distance(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }

    /// Linear interpolation between `self` (t = 0) and `other` (t = 1).
    pub fn lerp(&self, other: &Point, t: f64) -> Point {
        Point {
            x: self.x + (other.x - self.x) * t,
            y: self.y + (other.y - self.y) * t,
        }
    }
}

/// An axis-aligned bounding box.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundingBox {
    /// Minimum corner.
    pub min: Point,
    /// Maximum corner.
    pub max: Point,
}

impl BoundingBox {
    /// An "empty" box that any point will expand.
    pub fn empty() -> Self {
        BoundingBox {
            min: Point::new(f64::INFINITY, f64::INFINITY),
            max: Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
        }
    }

    /// Builds the tightest box around `points`; returns [`BoundingBox::empty`]
    /// when the iterator is empty.
    pub fn from_points<'a, I: IntoIterator<Item = &'a Point>>(points: I) -> Self {
        let mut bb = Self::empty();
        for p in points {
            bb.expand(p);
        }
        bb
    }

    /// Grows the box to include `p`.
    fn expand(&mut self, p: &Point) {
        self.min.x = self.min.x.min(p.x);
        self.min.y = self.min.y.min(p.y);
        self.max.x = self.max.x.max(p.x);
        self.max.y = self.max.y.max(p.y);
    }

    /// Whether the box contains `p` (inclusive).
    pub fn contains(&self, p: &Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Width (x extent) in metres; zero for an empty box.
    pub fn width(&self) -> f64 {
        (self.max.x - self.min.x).max(0.0)
    }

    /// Height (y extent) in metres; zero for an empty box.
    pub fn height(&self) -> f64 {
        (self.max.y - self.min.y).max(0.0)
    }

    /// True when no point has been added yet.
    pub fn is_empty(&self) -> bool {
        self.min.x > self.max.x || self.min.y > self.max.y
    }
}

/// Distance from point `p` to the segment `a`–`b`, and the projection
/// parameter `t ∈ [0, 1]` of the closest point on the segment.
pub fn point_segment_distance(p: &Point, a: &Point, b: &Point) -> (f64, f64) {
    let abx = b.x - a.x;
    let aby = b.y - a.y;
    let len_sq = abx * abx + aby * aby;
    if len_sq <= f64::EPSILON {
        return (p.distance(a), 0.0);
    }
    let t = ((p.x - a.x) * abx + (p.y - a.y) * aby) / len_sq;
    let t = t.clamp(0.0, 1.0);
    let proj = a.lerp(b, t);
    (p.distance(&proj), t)
}

/// Convex hull of a point set (monotone chain), returned in counter-clockwise
/// order without the closing point.  Degenerate inputs (< 3 distinct points)
/// return whatever distinct points exist.
pub fn convex_hull(points: &[Point]) -> Vec<Point> {
    let mut pts: Vec<Point> = points.to_vec();
    pts.sort_by(|a, b| a.x.total_cmp(&b.x).then(a.y.total_cmp(&b.y)));
    pts.dedup_by(|a, b| (a.x - b.x).abs() < 1e-9 && (a.y - b.y).abs() < 1e-9);
    let n = pts.len();
    if n < 3 {
        return pts;
    }
    let cross = |o: &Point, a: &Point, b: &Point| -> f64 {
        (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)
    };
    let mut hull: Vec<Point> = Vec::with_capacity(2 * n);
    // Lower hull.
    for p in &pts {
        while hull.len() >= 2 && cross(&hull[hull.len() - 2], &hull[hull.len() - 1], p) <= 0.0 {
            hull.pop();
        }
        hull.push(*p);
    }
    // Upper hull.
    let lower_len = hull.len() + 1;
    for p in pts.iter().rev().skip(1) {
        while hull.len() >= lower_len
            && cross(&hull[hull.len() - 2], &hull[hull.len() - 1], p) <= 0.0
        {
            hull.pop();
        }
        hull.push(*p);
    }
    hull.pop();
    hull
}

/// Area (m²) of a convex polygon given in order (shoelace formula).
pub fn polygon_area(hull: &[Point]) -> f64 {
    if hull.len() < 3 {
        return 0.0;
    }
    let mut acc = 0.0;
    for i in 0..hull.len() {
        let a = &hull[i];
        let b = &hull[(i + 1) % hull.len()];
        acc += a.x * b.y - b.x * a.y;
    }
    acc.abs() * 0.5
}

/// Maximum pairwise distance (diameter, in metres) of a point set.
///
/// Quadratic, intended for the small hulls produced by [`convex_hull`].
pub fn diameter(points: &[Point]) -> f64 {
    let mut best = 0.0f64;
    for i in 0..points.len() {
        for j in (i + 1)..points.len() {
            best = best.max(points[i].distance(&points[j]));
        }
    }
    best
}

/// Centroid (arithmetic mean) of a point set; origin for an empty set.
pub fn centroid(points: &[Point]) -> Point {
    if points.is_empty() {
        return Point::default();
    }
    let mut x = 0.0;
    let mut y = 0.0;
    for p in points {
        x += p.x;
        y += p.y;
    }
    Point::new(x / points.len() as f64, y / points.len() as f64)
}

/// A grid cell size (metres) derived from item density instead of a fixed
/// constant: sized so a cell holds about `target_per_cell` items when
/// `num_items` are spread over `bbox` (`cell ≈ sqrt(area · target / n)`),
/// clamped to [1 m, 50 km] and to at most ~4M cells as a memory guard.
///
/// Fixed cell sizes stop working once networks span two orders of
/// magnitude of |V|: a 50 m cell over a country-scale box allocates
/// hundreds of millions of empty cells, while a 1 km cell over a town puts
/// every vertex in one bucket and queries degrade to linear scans.  Deriving
/// the size from density keeps expected candidate-list lengths
/// O(`target_per_cell`) at any scale.  Callers that also have a
/// query-radius constraint (e.g. map matching) combine both bounds before
/// building the grid with [`GridIndex::new`].
pub fn density_cell_size(bbox: BoundingBox, num_items: usize, target_per_cell: f64) -> f64 {
    const MAX_CELLS: f64 = 4_000_000.0;
    let area = bbox.width() * bbox.height();
    let target = target_per_cell.max(0.25);
    if num_items == 0 || area <= 0.0 {
        // Degenerate extent or nothing to index: one cell is enough.
        bbox.width().max(bbox.height()).max(1.0)
    } else {
        let wanted = (area * target / num_items as f64).sqrt();
        let floor_by_memory = (area / MAX_CELLS).sqrt();
        wanted.max(floor_by_memory).clamp(1.0, 50_000.0)
    }
}

/// A uniform grid over a bounding box used to answer "items near a point"
/// queries.  It stores item ids (`u32`) in cells; the caller decides what the
/// ids refer to (vertices, edges, GPS samples, …).
#[derive(Debug, Clone)]
pub struct GridIndex {
    bbox: BoundingBox,
    cell_size: f64,
    cols: usize,
    rows: usize,
    cells: Vec<Vec<u32>>,
}

impl GridIndex {
    /// Creates an empty grid covering `bbox` with square cells of
    /// `cell_size` metres (minimum 1 m).
    pub fn new(bbox: BoundingBox, cell_size: f64) -> Self {
        let cell_size = cell_size.max(1.0);
        let cols = ((bbox.width() / cell_size).ceil() as usize).max(1);
        let rows = ((bbox.height() / cell_size).ceil() as usize).max(1);
        GridIndex {
            bbox,
            cell_size,
            cols,
            rows,
            cells: vec![Vec::new(); cols * rows],
        }
    }

    fn cell_of(&self, p: &Point) -> (usize, usize) {
        let cx = ((p.x - self.bbox.min.x) / self.cell_size).floor();
        let cy = ((p.y - self.bbox.min.y) / self.cell_size).floor();
        let cx = cx.clamp(0.0, (self.cols - 1) as f64) as usize;
        let cy = cy.clamp(0.0, (self.rows - 1) as f64) as usize;
        (cx, cy)
    }

    /// Inserts item `id` at location `p`.
    pub fn insert(&mut self, id: u32, p: &Point) {
        let (cx, cy) = self.cell_of(p);
        self.cells[cy * self.cols + cx].push(id);
    }

    /// Returns candidate item ids whose cell is within `radius` metres of `p`.
    /// The result may contain duplicates and false positives; callers filter
    /// by exact distance.
    pub fn query(&self, p: &Point, radius: f64) -> Vec<u32> {
        let r_cells = (radius / self.cell_size).ceil() as i64 + 1;
        let (cx, cy) = self.cell_of(p);
        let mut out = Vec::new();
        for dy in -r_cells..=r_cells {
            for dx in -r_cells..=r_cells {
                let x = cx as i64 + dx;
                let y = cy as i64 + dy;
                if x < 0 || y < 0 || x >= self.cols as i64 || y >= self.rows as i64 {
                    continue;
                }
                out.extend_from_slice(&self.cells[y as usize * self.cols + x as usize]);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Total number of cells allocated (`cols × rows`).
    fn num_cells(grid: &GridIndex) -> usize {
        grid.cols * grid.rows
    }

    #[test]
    fn point_distance_is_euclidean() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert!((a.distance(&b) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, 20.0);
        assert_eq!(a.lerp(&b, 0.0), a);
        assert_eq!(a.lerp(&b, 1.0), b);
        let m = a.lerp(&b, 0.5);
        assert!((m.x - 5.0).abs() < 1e-12 && (m.y - 10.0).abs() < 1e-12);
    }

    #[test]
    fn bounding_box_expansion_and_containment() {
        let mut bb = BoundingBox::empty();
        assert!(bb.is_empty());
        bb.expand(&Point::new(1.0, 2.0));
        bb.expand(&Point::new(-1.0, 5.0));
        assert!(!bb.is_empty());
        assert!(bb.contains(&Point::new(0.0, 3.0)));
        assert!(!bb.contains(&Point::new(2.0, 3.0)));
        assert!((bb.width() - 2.0).abs() < 1e-12);
        assert!((bb.height() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn segment_distance_projects_onto_segment() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, 0.0);
        let (d, t) = point_segment_distance(&Point::new(5.0, 3.0), &a, &b);
        assert!((d - 3.0).abs() < 1e-12);
        assert!((t - 0.5).abs() < 1e-12);
        // Beyond the end of the segment the closest point is the endpoint.
        let (d, t) = point_segment_distance(&Point::new(15.0, 0.0), &a, &b);
        assert!((d - 5.0).abs() < 1e-12);
        assert!((t - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_segment_distance() {
        let a = Point::new(2.0, 2.0);
        let (d, t) = point_segment_distance(&Point::new(5.0, 6.0), &a, &a);
        assert!((d - 5.0).abs() < 1e-12);
        assert_eq!(t, 0.0);
    }

    #[test]
    fn convex_hull_of_square_with_interior_points() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 10.0),
            Point::new(0.0, 10.0),
            Point::new(5.0, 5.0),
            Point::new(2.0, 7.0),
        ];
        let hull = convex_hull(&pts);
        assert_eq!(hull.len(), 4);
        assert!((polygon_area(&hull) - 100.0).abs() < 1e-9);
        assert!((diameter(&hull) - (200.0f64).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn convex_hull_degenerate_inputs() {
        assert!(convex_hull(&[]).is_empty());
        let single = convex_hull(&[Point::new(1.0, 1.0)]);
        assert_eq!(single.len(), 1);
        let collinear = convex_hull(&[
            Point::new(0.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(2.0, 2.0),
        ]);
        assert!(polygon_area(&collinear) < 1e-9);
    }

    #[test]
    fn centroid_of_square() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 10.0),
            Point::new(0.0, 10.0),
        ];
        let c = centroid(&pts);
        assert!((c.x - 5.0).abs() < 1e-12 && (c.y - 5.0).abs() < 1e-12);
    }

    #[test]
    fn grid_index_finds_nearby_items() {
        let bbox = BoundingBox {
            min: Point::new(0.0, 0.0),
            max: Point::new(1000.0, 1000.0),
        };
        let mut grid = GridIndex::new(bbox, 100.0);
        grid.insert(1, &Point::new(50.0, 50.0));
        grid.insert(2, &Point::new(950.0, 950.0));
        let near_origin = grid.query(&Point::new(60.0, 60.0), 50.0);
        assert!(near_origin.contains(&1));
        assert!(!near_origin.contains(&2));
        // Large radius finds everything.
        let all = grid.query(&Point::new(500.0, 500.0), 2000.0);
        assert!(all.contains(&1) && all.contains(&2));
    }

    #[test]
    fn density_derived_grid_keeps_occupancy_bounded_across_scales() {
        // The same constructor must produce sane grids for a town and for a
        // country-scale box: cell count tracks item count, not extent.
        for (extent_m, n_items) in [(10_000.0, 1_000usize), (400_000.0, 500_000usize)] {
            let bbox = BoundingBox {
                min: Point::new(0.0, 0.0),
                max: Point::new(extent_m, extent_m),
            };
            let grid = GridIndex::new(bbox, density_cell_size(bbox, n_items, 4.0));
            let cells = num_cells(&grid) as f64;
            // Expected occupancy within a small factor of the target.
            let occupancy = n_items as f64 / cells;
            assert!(
                (1.0..=16.0).contains(&occupancy),
                "extent={extent_m} items={n_items}: occupancy {occupancy} out of range \
                 ({cells} cells, cell {} m)",
                grid.cell_size
            );
            assert!(num_cells(&grid) <= 4_100_000, "memory guard violated");
        }
    }

    #[test]
    fn density_derived_grid_handles_degenerate_inputs() {
        let empty_box = BoundingBox::empty();
        let g = GridIndex::new(empty_box, density_cell_size(empty_box, 100, 4.0));
        assert!(num_cells(&g) >= 1);
        let point_box = BoundingBox {
            min: Point::new(5.0, 5.0),
            max: Point::new(5.0, 5.0),
        };
        let mut g = GridIndex::new(point_box, density_cell_size(point_box, 0, 4.0));
        g.insert(1, &Point::new(5.0, 5.0));
        assert!(g.query(&Point::new(5.0, 5.0), 1.0).contains(&1));
    }
}
