//! Trajectories (point sequences) and bounding boxes.

use crate::point::Point;

/// An axis-aligned bounding box.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Bbox {
    /// Lower-left corner.
    pub min: Point,
    /// Upper-right corner.
    pub max: Point,
}

impl Bbox {
    /// An empty box ready for [`Bbox::expand`].
    pub fn empty() -> Self {
        Bbox {
            min: Point::new(f64::INFINITY, f64::INFINITY),
            max: Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
        }
    }

    /// A box spanning the two corner points.
    pub fn new(min: Point, max: Point) -> Self {
        Bbox { min, max }
    }

    /// Grows the box to include `p`.
    pub fn expand(&mut self, p: &Point) {
        self.min.x = self.min.x.min(p.x);
        self.min.y = self.min.y.min(p.y);
        self.max.x = self.max.x.max(p.x);
        self.max.y = self.max.y.max(p.y);
    }

    /// Union of two boxes.
    pub fn union(&self, other: &Bbox) -> Bbox {
        Bbox {
            min: Point::new(self.min.x.min(other.min.x), self.min.y.min(other.min.y)),
            max: Point::new(self.max.x.max(other.max.x), self.max.y.max(other.max.y)),
        }
    }

    /// True if `p` lies inside (inclusive).
    pub fn contains(&self, p: &Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Width in meters.
    pub fn width(&self) -> f64 {
        (self.max.x - self.min.x).max(0.0)
    }

    /// Height in meters.
    pub fn height(&self) -> f64 {
        (self.max.y - self.min.y).max(0.0)
    }

    /// Minimum distance from `p` to this box (0 when inside).
    pub fn dist_to_point(&self, p: &Point) -> f64 {
        let dx = (self.min.x - p.x).max(0.0).max(p.x - self.max.x);
        let dy = (self.min.y - p.y).max(0.0).max(p.y - self.max.y);
        (dx * dx + dy * dy).sqrt()
    }
}

/// A trajectory: an ordered sequence of at least one location point
/// (`T = [p1, …, p|T|]` in the paper's notation).
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Trajectory {
    points: Vec<Point>,
}

impl Trajectory {
    /// Wraps a point sequence.
    pub fn new(points: Vec<Point>) -> Self {
        Trajectory { points }
    }

    /// Builds a trajectory from `(x, y)` tuples.
    pub fn from_xy(coords: &[(f64, f64)]) -> Self {
        Trajectory {
            points: coords.iter().map(|&(x, y)| Point::new(x, y)).collect(),
        }
    }

    /// Number of points `|T|`.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if the trajectory has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The underlying points.
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Mutable access to the points.
    pub fn points_mut(&mut self) -> &mut Vec<Point> {
        &mut self.points
    }

    /// The `i`-th point.
    pub fn point(&self, i: usize) -> Point {
        self.points[i]
    }

    /// Appends a point.
    pub fn push(&mut self, p: Point) {
        self.points.push(p);
    }

    /// Total polyline length in meters.
    pub fn length(&self) -> f64 {
        self.points.windows(2).map(|w| w[0].dist(&w[1])).sum()
    }

    /// Bounding box of all points.
    ///
    /// # Panics
    /// Panics on an empty trajectory.
    pub fn bbox(&self) -> Bbox {
        assert!(!self.points.is_empty(), "bbox of empty trajectory");
        let mut b = Bbox::empty();
        for p in &self.points {
            b.expand(p);
        }
        b
    }

    /// Sub-trajectory with the points at even indices (`p1, p3, …` in
    /// 1-based paper notation) — used by the §V-B ground-truth protocol.
    pub fn odd_points(&self) -> Trajectory {
        Trajectory::new(self.points.iter().copied().step_by(2).collect())
    }

    /// Sub-trajectory with the points at odd indices (`p2, p4, …`).
    pub fn even_points(&self) -> Trajectory {
        Trajectory::new(self.points.iter().skip(1).copied().step_by(2).collect())
    }

    /// Iterator over consecutive segments.
    pub fn segments(&self) -> impl Iterator<Item = (Point, Point)> + '_ {
        self.points.windows(2).map(|w| (w[0], w[1]))
    }
}

impl FromIterator<Point> for Trajectory {
    fn from_iter<I: IntoIterator<Item = Point>>(iter: I) -> Self {
        Trajectory {
            points: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn staircase() -> Trajectory {
        Trajectory::from_xy(&[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (2.0, 1.0), (2.0, 2.0)])
    }

    #[test]
    fn length_sums_segments() {
        assert_eq!(staircase().length(), 4.0);
        assert_eq!(Trajectory::from_xy(&[(5.0, 5.0)]).length(), 0.0);
    }

    #[test]
    fn bbox_covers_all_points() {
        let b = staircase().bbox();
        assert_eq!(b.min, Point::new(0.0, 0.0));
        assert_eq!(b.max, Point::new(2.0, 2.0));
        assert!(b.contains(&Point::new(1.0, 1.5)));
        assert!(!b.contains(&Point::new(3.0, 0.0)));
    }

    #[test]
    fn odd_even_split_partitions_points() {
        let t = staircase();
        let a = t.odd_points();
        let b = t.even_points();
        assert_eq!(a.len() + b.len(), t.len());
        assert_eq!(a.points()[0], t.points()[0]);
        assert_eq!(a.points()[1], t.points()[2]);
        assert_eq!(b.points()[0], t.points()[1]);
        assert_eq!(b.points()[1], t.points()[3]);
    }

    #[test]
    fn bbox_point_distance() {
        let b = Bbox::new(Point::new(0.0, 0.0), Point::new(2.0, 2.0));
        assert_eq!(b.dist_to_point(&Point::new(1.0, 1.0)), 0.0);
        assert_eq!(b.dist_to_point(&Point::new(5.0, 6.0)), 5.0);
    }

    #[test]
    fn union_and_dims() {
        let a = Bbox::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0));
        let b = Bbox::new(Point::new(2.0, -1.0), Point::new(3.0, 0.5));
        let u = a.union(&b);
        assert_eq!(u.min, Point::new(0.0, -1.0));
        assert_eq!(u.max, Point::new(3.0, 1.0));
        assert_eq!(u.width(), 3.0);
        assert_eq!(u.height(), 2.0);
    }

    #[test]
    fn segments_iterator() {
        let t = staircase();
        assert_eq!(t.segments().count(), 4);
    }
}
