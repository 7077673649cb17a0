//! k-dimensional feature vectors.

use crate::Coord;
use std::fmt;

/// A k-dimensional feature vector.
///
/// Points are the unit of data indexed by every structure in this
/// workspace. They are immutable once constructed; coordinates are stored
/// in a boxed slice so a `Point` is two words plus its payload.
#[derive(Clone, PartialEq)]
pub struct Point {
    coords: Box<[Coord]>,
}

impl Point {
    /// Creates a point from a coordinate vector.
    ///
    /// # Panics
    /// Panics if `coords` is empty or contains a non-finite value: index
    /// construction and the EDA cost model are undefined for NaN/infinite
    /// coordinates, so they are rejected at the boundary.
    pub fn new(coords: Vec<Coord>) -> Self {
        assert!(!coords.is_empty(), "points must have at least 1 dimension");
        match Self::try_new(coords) {
            Some(p) => p,
            None => panic!("point coordinates must be finite"),
        }
    }

    /// Creates a point from a coordinate vector, or `None` if `coords` is
    /// empty or contains a non-finite value: the checks of
    /// [`Point::new`] for input that is data, not a caller's promise
    /// (page bytes, parsed text).
    pub fn try_new(coords: Vec<Coord>) -> Option<Self> {
        if coords.is_empty() || !coords.iter().all(|c| c.is_finite()) {
            return None;
        }
        Some(Self {
            coords: coords.into_boxed_slice(),
        })
    }

    /// The dimensionality `k` of the point.
    #[inline]
    pub fn dim(&self) -> usize {
        self.coords.len()
    }

    /// The coordinate along `d`.
    ///
    /// # Panics
    /// Panics if `d >= self.dim()`.
    #[inline]
    pub fn coord(&self, d: usize) -> Coord {
        self.coords[d]
    }

    /// All coordinates as a slice.
    #[inline]
    pub fn coords(&self) -> &[Coord] {
        &self.coords
    }

    /// The origin of a `dim`-dimensional space.
    pub fn origin(dim: usize) -> Self {
        Self::new(vec![0.0; dim])
    }

    /// Exact equality of every coordinate bit pattern.
    ///
    /// Used by deletion to locate the stored copy of a previously inserted
    /// point; `PartialEq` on `f32` suffices because points are rejected at
    /// construction if any coordinate is NaN.
    #[inline]
    pub fn same_coords(&self, other: &Point) -> bool {
        self.coords == other.coords
    }
}

impl fmt::Debug for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Point{:?}", &self.coords[..self.dim().min(8)])?;
        if self.dim() > 8 {
            write!(f, "(+{} dims)", self.dim() - 8)?;
        }
        Ok(())
    }
}

impl From<Vec<Coord>> for Point {
    fn from(v: Vec<Coord>) -> Self {
        Point::new(v)
    }
}

impl From<&[Coord]> for Point {
    fn from(v: &[Coord]) -> Self {
        Point::new(v.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let p = Point::new(vec![1.0, 2.0, 3.0]);
        assert_eq!(p.dim(), 3);
        assert_eq!(p.coord(0), 1.0);
        assert_eq!(p.coord(2), 3.0);
        assert_eq!(p.coords(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "at least 1 dimension")]
    fn empty_point_rejected() {
        let _ = Point::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_rejected() {
        let _ = Point::new(vec![0.0, f32::NAN]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn infinity_rejected() {
        let _ = Point::new(vec![f32::INFINITY]);
    }

    #[test]
    fn origin_is_zero() {
        let p = Point::origin(4);
        assert_eq!(p.coords(), &[0.0; 4]);
    }

    #[test]
    fn same_coords_is_exact() {
        let a = Point::new(vec![0.1, 0.2]);
        let b = Point::new(vec![0.1, 0.2]);
        let c = Point::new(vec![0.1, 0.2000001]);
        assert!(a.same_coords(&b));
        assert!(!a.same_coords(&c));
    }

    #[test]
    fn debug_truncates_high_dims() {
        let p = Point::new(vec![0.0; 20]);
        let s = format!("{p:?}");
        assert!(s.contains("+12 dims"));
    }
}
