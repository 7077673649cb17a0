//! Brute-force answers over the generated points, and the flat-array
//! scan the normalized CPU cost divides by.
//!
//! The oracle decides correctness with the same `hyt_geom` predicates the
//! index uses (`Rect::contains_point`, `Metric::distance`), so a
//! disagreement is a wrong answer, not a rounding difference. The flat
//! scan is the paper's linear-scan baseline: the benchmark's own code
//! over a row-major `f32` array, timed but never trusted for answers.

use hyt_geom::{Metric, Point, Rect};
use std::collections::BinaryHeap;

/// One query of a workload.
#[derive(Clone, Debug)]
pub enum Query {
    /// kNN under L2: center and k.
    Knn(Point, usize),
    /// Bounding-box (window) query.
    Box(Rect),
    /// L1 distance-range query: center and radius.
    Range(Point, f64),
}

/// Query kinds, in report order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kind {
    Knn,
    Box,
    Range,
}

pub const KINDS: [Kind; 3] = [Kind::Knn, Kind::Box, Kind::Range];

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Knn => "knn",
            Kind::Box => "box",
            Kind::Range => "range",
        }
    }
}

impl Query {
    pub fn kind(&self) -> Kind {
        match self {
            Query::Knn(..) => Kind::Knn,
            Query::Box(_) => Kind::Box,
            Query::Range(..) => Kind::Range,
        }
    }
}

/// An index's answer: sorted oids, or kNN `(oid, distance)` pairs in
/// ascending distance.
#[derive(Clone, Debug, PartialEq)]
pub enum Answer {
    Oids(Vec<u64>),
    Knn(Vec<(u64, f64)>),
}

/// The generated points by oid, with the set currently stored in the
/// index (all of them, except in the ingest workload).
pub struct Corpus {
    pub points: Vec<Point>,
    alive: Vec<bool>,
    live: Vec<u64>,
    /// Position of each live oid in `live`, for O(1) removal.
    slot: Vec<usize>,
}

impl Corpus {
    /// A corpus whose first `stored` points are in the index.
    pub fn new(points: Vec<Point>, stored: usize) -> Self {
        let n = points.len();
        let mut c = Self {
            points,
            alive: vec![false; n],
            live: Vec::with_capacity(n),
            slot: vec![usize::MAX; n],
        };
        for oid in 0..stored as u64 {
            c.mark_inserted(oid);
        }
        c
    }

    pub fn len(&self) -> usize {
        self.live.len()
    }

    pub fn live(&self) -> &[u64] {
        &self.live
    }

    pub fn mark_inserted(&mut self, oid: u64) {
        let i = oid as usize;
        assert!(!self.alive[i], "oid {oid} inserted twice");
        self.alive[i] = true;
        self.slot[i] = self.live.len();
        self.live.push(oid);
    }

    pub fn mark_deleted(&mut self, oid: u64) {
        let i = oid as usize;
        assert!(self.alive[i], "oid {oid} is not live");
        self.alive[i] = false;
        let at = self.slot[i];
        self.live.swap_remove(at);
        if let Some(&moved) = self.live.get(at) {
            self.slot[moved as usize] = at;
        }
    }

    fn live_points(&self) -> impl Iterator<Item = (u64, &Point)> {
        self.live.iter().map(|&o| (o, &self.points[o as usize]))
    }

    /// The brute-force answer to `q` over the live points.
    pub fn expect(&self, q: &Query, metric_knn: &dyn Metric, metric_range: &dyn Metric) -> Answer {
        match q {
            Query::Box(rect) => {
                let mut oids: Vec<u64> = self
                    .live_points()
                    .filter(|(_, p)| rect.contains_point(p))
                    .map(|(o, _)| o)
                    .collect();
                oids.sort_unstable();
                Answer::Oids(oids)
            }
            Query::Range(c, r) => {
                let mut oids: Vec<u64> = self
                    .live_points()
                    .filter(|(_, p)| metric_range.distance(c, p) <= *r)
                    .map(|(o, _)| o)
                    .collect();
                oids.sort_unstable();
                Answer::Oids(oids)
            }
            Query::Knn(c, k) => {
                let mut all: Vec<(u64, f64)> = self
                    .live_points()
                    .map(|(o, p)| (o, metric_knn.distance(c, p)))
                    .collect();
                let order =
                    |a: &(u64, f64), b: &(u64, f64)| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0));
                if *k < all.len() {
                    all.select_nth_unstable_by(*k, order);
                    all.truncate(*k);
                }
                all.sort_by(order);
                Answer::Knn(all)
            }
        }
    }

    /// Checks `got` against the brute-force answer. Box and range answers
    /// must be the exact oid set. A kNN answer must list live, distinct
    /// oids whose true distances are the reported ones and equal the k
    /// smallest distances, so ties may resolve to either oid.
    pub fn check(
        &self,
        q: &Query,
        got: &Answer,
        metric_knn: &dyn Metric,
        metric_range: &dyn Metric,
    ) -> Result<(), String> {
        let want = self.expect(q, metric_knn, metric_range);
        match (got, &want) {
            (Answer::Oids(g), Answer::Oids(w)) => {
                let mut g = g.clone();
                g.sort_unstable();
                if &g == w {
                    Ok(())
                } else {
                    Err(format!(
                        "{} query: {} oids returned, {} expected",
                        q.kind().name(),
                        g.len(),
                        w.len()
                    ))
                }
            }
            (Answer::Knn(g), Answer::Knn(w)) => {
                let Query::Knn(c, _) = q else {
                    unreachable!("kNN answer to a non-kNN query")
                };
                if g.len() != w.len() {
                    return Err(format!("kNN: {} results, {} expected", g.len(), w.len()));
                }
                let mut seen = std::collections::HashSet::new();
                for (i, (&(oid, d), &(_, wd))) in g.iter().zip(w).enumerate() {
                    if !self.alive.get(oid as usize).copied().unwrap_or(false) {
                        return Err(format!("kNN: result {i} is oid {oid}, not stored"));
                    }
                    if !seen.insert(oid) {
                        return Err(format!("kNN: oid {oid} returned twice"));
                    }
                    let true_d = metric_knn.distance(c, &self.points[oid as usize]);
                    if !close(true_d, d) || !close(d, wd) {
                        return Err(format!(
                            "kNN: result {i} reports {d}, its true distance is {true_d}, \
                             rank {i} should be {wd}"
                        ));
                    }
                }
                Ok(())
            }
            _ => Err(format!("{} query: wrong answer shape", q.kind().name())),
        }
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Row-major `f32` copy of the stored points: the linear-scan baseline.
pub struct Flat {
    dim: usize,
    rows: Vec<f32>,
}

impl Flat {
    pub fn new(corpus: &Corpus) -> Self {
        let dim = corpus.points[0].dim();
        let mut rows = Vec::with_capacity(corpus.len() * dim);
        for &o in corpus.live() {
            rows.extend_from_slice(corpus.points[o as usize].coords());
        }
        Self { dim, rows }
    }

    /// Scans every row for `q`, returning the answer size (or the k-th
    /// squared distance for kNN) so the work cannot be optimized away.
    pub fn scan(&self, q: &Query) -> f64 {
        match q {
            Query::Box(rect) => {
                let (lo, hi): (Vec<f32>, Vec<f32>) =
                    (0..self.dim).map(|d| (rect.lo(d), rect.hi(d))).unzip();
                self.rows
                    .chunks_exact(self.dim)
                    .filter(|row| {
                        row.iter()
                            .zip(lo.iter().zip(&hi))
                            .all(|(x, (l, h))| x >= l && x <= h)
                    })
                    .count() as f64
            }
            Query::Range(c, r) => {
                let c = c.coords();
                self.rows
                    .chunks_exact(self.dim)
                    .filter(|row| {
                        let d: f64 = row.iter().zip(c).map(|(x, y)| (x - y).abs() as f64).sum();
                        d <= *r
                    })
                    .count() as f64
            }
            Query::Knn(c, k) => {
                let c = c.coords();
                // Max-heap of the k best squared distances so far.
                let mut best: BinaryHeap<OrdF64> = BinaryHeap::with_capacity(k + 1);
                for row in self.rows.chunks_exact(self.dim) {
                    let d: f64 = row
                        .iter()
                        .zip(c)
                        .map(|(x, y)| {
                            let t = (x - y) as f64;
                            t * t
                        })
                        .sum();
                    if best.len() < *k {
                        best.push(OrdF64(d));
                    } else if best.peek().is_some_and(|b| d < b.0) {
                        best.pop();
                        best.push(OrdF64(d));
                    }
                }
                best.peek().map_or(0.0, |b| b.0)
            }
        }
    }
}

/// An `f64` ordered by `total_cmp`, for the scan's max-heap.
struct OrdF64(f64);

impl PartialEq for OrdF64 {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyt_geom::{L1, L2};

    fn corpus() -> Corpus {
        let pts = (0..50)
            .map(|i| Point::new(vec![i as f32 / 50.0, (i % 7) as f32 / 7.0]))
            .collect();
        Corpus::new(pts, 50)
    }

    #[test]
    fn oracle_accepts_its_own_answers() {
        let c = corpus();
        for q in [
            Query::Knn(Point::new(vec![0.3, 0.3]), 5),
            Query::Box(Rect::new(vec![0.1, 0.0], vec![0.5, 0.5])),
            Query::Range(Point::new(vec![0.5, 0.5]), 0.2),
        ] {
            let a = c.expect(&q, &L2, &L1);
            assert!(c.check(&q, &a, &L2, &L1).is_ok());
        }
    }

    #[test]
    fn oracle_flags_injected_wrong_answers() {
        let c = corpus();
        let q = Query::Box(Rect::new(vec![0.1, 0.0], vec![0.5, 0.5]));
        let Answer::Oids(mut oids) = c.expect(&q, &L2, &L1) else {
            unreachable!()
        };
        oids.pop();
        assert!(c.check(&q, &Answer::Oids(oids.clone()), &L2, &L1).is_err());
        oids.push(49);
        assert!(c.check(&q, &Answer::Oids(oids), &L2, &L1).is_err());

        let q = Query::Knn(Point::new(vec![0.3, 0.3]), 5);
        let Answer::Knn(hits) = c.expect(&q, &L2, &L1) else {
            unreachable!()
        };
        // A farther point passed off with the right distance.
        let mut swapped = hits.clone();
        swapped[4].0 = 49;
        assert!(c.check(&q, &Answer::Knn(swapped), &L2, &L1).is_err());
        // The true oid with a wrong distance.
        let mut skewed = hits.clone();
        skewed[0].1 += 1e-3;
        assert!(c.check(&q, &Answer::Knn(skewed), &L2, &L1).is_err());
        // One result short.
        assert!(c
            .check(&q, &Answer::Knn(hits[..4].to_vec()), &L2, &L1)
            .is_err());
    }

    #[test]
    fn knn_ties_may_resolve_to_either_oid() {
        let pts = vec![
            Point::new(vec![0.0]),
            Point::new(vec![1.0]),
            Point::new(vec![-1.0]),
        ];
        let c = Corpus::new(pts, 3);
        let q = Query::Knn(Point::new(vec![0.0]), 2);
        for tie in [1, 2] {
            let a = Answer::Knn(vec![(0, 0.0), (tie, 1.0)]);
            assert!(c.check(&q, &a, &L2, &L1).is_ok());
        }
    }

    #[test]
    fn deleted_points_leave_the_answer() {
        let mut c = corpus();
        c.mark_deleted(10);
        c.mark_deleted(49);
        assert_eq!(c.len(), 48);
        let q = Query::Box(Rect::new(vec![0.0, 0.0], vec![1.0, 1.0]));
        let Answer::Oids(oids) = c.expect(&q, &L2, &L1) else {
            unreachable!()
        };
        assert!(!oids.contains(&10) && oids.len() == 48);
        let with_deleted = Answer::Oids((0..50).collect());
        assert!(c.check(&q, &with_deleted, &L2, &L1).is_err());
    }

    #[test]
    fn flat_scan_agrees_with_the_oracle() {
        let c = corpus();
        let flat = Flat::new(&c);
        let q = Query::Box(Rect::new(vec![0.1, 0.0], vec![0.5, 0.5]));
        let Answer::Oids(oids) = c.expect(&q, &L2, &L1) else {
            unreachable!()
        };
        assert_eq!(flat.scan(&q), oids.len() as f64);
        let q = Query::Knn(Point::new(vec![0.3, 0.3]), 3);
        let Answer::Knn(hits) = c.expect(&q, &L2, &L1) else {
            unreachable!()
        };
        assert!((flat.scan(&q).sqrt() - hits[2].1).abs() < 1e-6);
    }
}
