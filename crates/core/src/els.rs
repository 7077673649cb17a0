//! Encoded Live Space (ELS) — dead-space elimination (paper §3.4).
//!
//! Space-partitioning structures index *dead space*: regions that contain
//! no data. The hybrid tree removes most of it by remembering, per child,
//! the bounding box of the data actually beneath the child (its *live
//! space*), quantized relative to the child's kd-region using a small
//! number of bits per boundary. At query time the kd-region is checked
//! first and the live-space BR is consulted only if the kd-region
//! qualifies (§3.4).
//!
//! The paper stores the encoded table in memory ("for 8K page, 4 bit
//! precision and 64-d space, the overhead is less than 1% of the database
//! size and can be stored in memory"). This implementation keeps, per
//! child, both the *exact* live BR (needed to re-derive live space after
//! splits) and the `bits`-precision *quantized* BR in absolute
//! coordinates. Quantization happens at update time, against the child's
//! kd-region of that moment; the quantized box conservatively contains
//! the live space forever after (regions only ever grow), so queries can
//! prune with it directly — no kd-region needed on the hot path.
//! [`ElsTable::encoded_bytes`] reports the size the table would occupy at
//! the configured precision, which is what the paper's <1% figure
//! measures.
//!
//! ## Layout
//!
//! The table is a flat arena indexed by page id: page `p` owns slot `p`
//! of two `Vec<Coord>` arrays, `2 * dim` coordinates each — the lo row
//! followed by the hi row. The quantized array is the one queries read:
//! bounding a directory page's children scans contiguous rows with no
//! hashing and no pointer chasing. The exact array is touched only by
//! mutation, scrub and persist. A presence bitmap says which slots hold
//! an entry; every lookup goes through [`ElsTable::get`]. A freed page's
//! slot is cleared from the bitmap and reused when the page id is
//! reallocated. Memory is `(max page id + 1) * 4 * dim * 4` bytes.

use hyt_geom::{Coord, Point, Rect};
use hyt_page::{ByteReader, ByteWriter, PageError, PageId, PageResult};

/// Memory-resident live-space table, indexed by child page id.
pub struct ElsTable {
    bits: u8,
    dim: usize,
    /// Quantized live boxes: slot `p` is `quant[p * 2dim..][..2dim]`, the
    /// lo row then the hi row.
    quant: Vec<Coord>,
    /// Exact live boxes, same layout as `quant`.
    exact: Vec<Coord>,
    /// Bit `p` is set when slot `p` holds an entry.
    present: Vec<u64>,
    /// Number of set bits in `present`.
    len: usize,
}

impl ElsTable {
    /// Creates a table with the given precision; `bits == 0` disables ELS
    /// (every lookup falls back to the kd-region).
    pub fn new(dim: usize, bits: u8) -> Self {
        assert!(bits <= 16, "ELS precision is capped at 16 bits");
        Self {
            bits,
            dim,
            quant: Vec::new(),
            exact: Vec::new(),
            present: Vec::new(),
            len: 0,
        }
    }

    /// Precision in bits per boundary.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Dimensionality of the stored boxes.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Whether ELS is enabled.
    pub fn enabled(&self) -> bool {
        self.bits > 0
    }

    /// Number of children tracked.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes the quantized table would occupy: `2 * dim * bits` bits per
    /// child (the paper's overhead accounting).
    pub fn encoded_bytes(&self) -> usize {
        if !self.enabled() {
            return 0;
        }
        let bits_per_child = 2 * self.dim * self.bits as usize;
        (self.len * bits_per_child).div_ceil(8)
    }

    /// The arena offset of `child`'s rows, if the table holds an entry
    /// for it. Page ids beyond the arena have no entry.
    #[inline]
    fn get(&self, child: PageId) -> Option<usize> {
        let i = child.0 as usize;
        let word = *self.present.get(i / 64)?;
        (word >> (i % 64) & 1 == 1).then_some(i * 2 * self.dim)
    }

    /// Marks `child`'s slot present, growing the arena to reach it, and
    /// returns its arena offset. The rows keep whatever they held; the
    /// caller overwrites them.
    fn claim(&mut self, child: PageId) -> usize {
        let i = child.0 as usize;
        let base = i * 2 * self.dim;
        let end = base + 2 * self.dim;
        if self.quant.len() < end {
            self.quant.resize(end, 0.0);
            self.exact.resize(end, 0.0);
        }
        if self.present.len() <= i / 64 {
            self.present.resize(i / 64 + 1, 0);
        }
        let bit = 1u64 << (i % 64);
        if self.present[i / 64] & bit == 0 {
            self.present[i / 64] |= bit;
            self.len += 1;
        }
        base
    }

    /// Page ids holding an entry, ascending.
    fn slots(&self) -> impl Iterator<Item = u32> + '_ {
        self.present.iter().enumerate().flat_map(|(w, &word)| {
            (0..64u32)
                .filter(move |b| word >> b & 1 == 1)
                .map(move |b| w as u32 * 64 + b)
        })
    }

    /// Re-derives the quantized rows at `base` from the exact rows, to the
    /// table's precision relative to `region`, rounding outward
    /// (conservative).
    fn quantize(&mut self, base: usize, region: &Rect) {
        let dim = self.dim;
        let levels = f64::from(1u32 << self.bits);
        let (lo, hi) = self.exact[base..base + 2 * dim].split_at(dim);
        let (qlo, qhi) = self.quant[base..base + 2 * dim].split_at_mut(dim);
        for d in 0..dim {
            let rmin = f64::from(region.lo(d));
            let rmax = f64::from(region.hi(d));
            let ext = rmax - rmin;
            if ext <= 0.0 {
                qlo[d] = lo[d].min(region.lo(d));
                qhi[d] = hi[d].max(region.hi(d));
                continue;
            }
            let l = f64::from(lo[d]).clamp(rmin, rmax);
            let h = f64::from(hi[d]).clamp(rmin, rmax);
            let lcode = (((l - rmin) / ext) * levels).floor().min(levels - 1.0);
            let hcode = (((h - rmin) / ext) * levels).ceil().max(1.0).min(levels);
            qlo[d] = (rmin + lcode / levels * ext) as Coord;
            qhi[d] = (rmin + hcode / levels * ext) as Coord;
        }
    }

    /// Replaces the live BR of `child` with the bounding box of `points`,
    /// quantized against the child's current kd-region.
    pub fn set_from_points<'a, I: IntoIterator<Item = &'a Point>>(
        &mut self,
        child: PageId,
        points: I,
        region: &Rect,
    ) {
        if !self.enabled() {
            return;
        }
        let mut it = points.into_iter();
        let Some(first) = it.next() else {
            self.remove(child);
            return;
        };
        let base = self.claim(child);
        let (lo, hi) = self.exact[base..base + 2 * self.dim].split_at_mut(self.dim);
        lo.copy_from_slice(first.coords());
        hi.copy_from_slice(first.coords());
        for p in it {
            for d in 0..self.dim {
                lo[d] = lo[d].min(p.coord(d));
                hi[d] = hi[d].max(p.coord(d));
            }
        }
        self.quantize(base, region);
    }

    /// Replaces the live BR of `child` with the union of `rects`.
    pub fn set_from_rects<'a, I: IntoIterator<Item = &'a Rect>>(
        &mut self,
        child: PageId,
        rects: I,
        region: &Rect,
    ) {
        if !self.enabled() {
            return;
        }
        let mut it = rects.into_iter();
        let Some(first) = it.next() else {
            self.remove(child);
            return;
        };
        let base = self.claim(child);
        let (lo, hi) = self.exact[base..base + 2 * self.dim].split_at_mut(self.dim);
        for d in 0..self.dim {
            lo[d] = first.lo(d);
            hi[d] = first.hi(d);
        }
        for r in it {
            for d in 0..self.dim {
                lo[d] = lo[d].min(r.lo(d));
                hi[d] = hi[d].max(r.hi(d));
            }
        }
        self.quantize(base, region);
    }

    /// Grows the live BR of `child` to cover `p` (insertion path),
    /// re-quantizing against the child's current kd-region.
    pub fn extend(&mut self, child: PageId, p: &Point, region: &Rect) {
        if !self.enabled() {
            return;
        }
        let dim = self.dim;
        let base = match self.get(child) {
            Some(base) => {
                let (lo, hi) = self.exact[base..base + 2 * dim].split_at_mut(dim);
                for d in 0..dim {
                    lo[d] = lo[d].min(p.coord(d));
                    hi[d] = hi[d].max(p.coord(d));
                }
                base
            }
            None => {
                let base = self.claim(child);
                let (lo, hi) = self.exact[base..base + 2 * dim].split_at_mut(dim);
                lo.copy_from_slice(p.coords());
                hi.copy_from_slice(p.coords());
                base
            }
        };
        self.quantize(base, region);
    }

    /// Drops the entry for a freed page; its slot is reused if the page
    /// id is allocated again.
    pub fn remove(&mut self, child: PageId) {
        if self.get(child).is_some() {
            let i = child.0 as usize;
            self.present[i / 64] &= !(1u64 << (i % 64));
            self.len -= 1;
        }
    }

    /// The quantized live BR of `child` (absolute coordinates) as borrowed
    /// `(lo, hi)` rows, if any. This is the allocation-free pruning
    /// surface for distance queries
    /// ([`Metric::min_dist_rect_sq_within`](hyt_geom::Metric::min_dist_rect_sq_within)).
    #[inline]
    pub fn quant_rect(&self, child: PageId) -> Option<(&[Coord], &[Coord])> {
        let base = self.get(child)?;
        Some(self.quant[base..base + 2 * self.dim].split_at(self.dim))
    }

    /// The exact (unquantized) live BR recorded for `child`, if any.
    pub fn exact_live(&self, child: PageId) -> Option<Rect> {
        let base = self.get(child)?;
        let (lo, hi) = self.exact[base..base + 2 * self.dim].split_at(self.dim);
        Some(Rect::new(lo.to_vec(), hi.to_vec()))
    }

    /// Whether the quantized live BR of `child` intersects the query box;
    /// `true` when unknown (no false dismissals).
    #[inline]
    pub fn may_intersect(&self, child: PageId, query: &Rect) -> bool {
        let Some((lo, hi)) = self.quant_rect(child) else {
            return true;
        };
        (0..self.dim).all(|d| lo[d] <= query.hi(d) && query.lo(d) <= hi[d])
    }

    /// Whether the quantized live BR of `child` contains the point;
    /// `true` when unknown.
    #[inline]
    pub fn may_contain(&self, child: PageId, p: &Point) -> bool {
        let Some((lo, hi)) = self.quant_rect(child) else {
            return true;
        };
        (0..self.dim).all(|d| lo[d] <= p.coord(d) && p.coord(d) <= hi[d])
    }

    /// The pruning region for `child`: its quantized live BR intersected
    /// with the supplied kd-region (which also serves as the fallback when
    /// the child is untracked or ELS is disabled).
    pub fn effective_region(&self, child: PageId, kd_region: &Rect) -> Rect {
        let Some((qlo, qhi)) = self.quant_rect(child) else {
            return kd_region.clone();
        };
        // Intersect (the quantized box may poke outside a region that was
        // smaller at quantization time than the kd-region is now — both
        // contain the live space, so the intersection does too).
        let lo: Vec<Coord> = (0..self.dim)
            .map(|d| qlo[d].max(kd_region.lo(d)).min(kd_region.hi(d)))
            .collect();
        let hi: Vec<Coord> = (0..self.dim)
            .map(|d| qhi[d].min(kd_region.hi(d)).max(lo[d]))
            .collect();
        Rect::new(lo, hi)
    }
}

impl ElsTable {
    /// Serializes the table (for [`HybridTree::persist`]): entries in
    /// ascending page id order, each with its exact and quantized bounds
    /// interleaved per dimension.
    ///
    /// [`HybridTree::persist`]: crate::HybridTree::persist
    pub fn encode(&self, w: &mut ByteWriter) {
        let dim = self.dim;
        w.put_u8(self.bits);
        w.put_u32(dim as u32);
        w.put_u32(self.len as u32);
        for pid in self.slots() {
            let base = pid as usize * 2 * dim;
            let exact = &self.exact[base..base + 2 * dim];
            let quant = &self.quant[base..base + 2 * dim];
            w.put_u32(pid);
            for d in 0..dim {
                w.put_f32(exact[d]);
                w.put_f32(exact[dim + d]);
                w.put_f32(quant[d]);
                w.put_f32(quant[dim + d]);
            }
        }
    }

    /// Parses a table serialized by [`encode`](Self::encode) for a page
    /// file of `page_slots` slots.
    ///
    /// Page ids are the one input that sizes the arena, so each must be
    /// below `page_slots`, and ids must ascend strictly (as `encode`
    /// writes them). Either violation, or a box that is not finite with
    /// `lo <= hi`, is [`PageError::Corrupt`].
    pub fn decode(r: &mut ByteReader<'_>, page_slots: u32) -> PageResult<Self> {
        let bits = r.get_u8()?;
        if bits > 16 {
            return Err(PageError::Corrupt(format!("ELS bits {bits} out of range")));
        }
        let dim = r.get_u32()? as usize;
        if dim == 0 || dim > u16::MAX as usize {
            return Err(PageError::Corrupt(format!(
                "ELS dimensionality {dim} out of range"
            )));
        }
        let n = r.get_u32()? as usize;
        // Checked: a hostile header must not overflow the size estimate.
        let need = n
            .checked_mul(dim)
            .and_then(|v| v.checked_mul(16))
            .filter(|&need| need <= r.remaining());
        if need.is_none() {
            return Err(PageError::Corrupt(
                "ELS table claims more entries than the buffer holds".into(),
            ));
        }
        let mut t = Self::new(dim, bits);
        let mut prev: Option<u32> = None;
        for _ in 0..n {
            let pid = r.get_u32()?;
            if pid >= page_slots {
                return Err(PageError::Corrupt(format!(
                    "ELS entry for page {pid}, but the page file has {page_slots} slots"
                )));
            }
            if prev.is_some_and(|p| pid <= p) {
                return Err(PageError::Corrupt(format!(
                    "ELS page id {pid} duplicated or out of order"
                )));
            }
            prev = Some(pid);
            let base = t.claim(PageId(pid));
            for d in 0..dim {
                t.exact[base + d] = r.get_f32()?;
                t.exact[base + dim + d] = r.get_f32()?;
                t.quant[base + d] = r.get_f32()?;
                t.quant[base + dim + d] = r.get_f32()?;
            }
            let valid = |row: &[Coord]| {
                let (lo, hi) = row.split_at(dim);
                lo.iter()
                    .zip(hi)
                    .all(|(l, h)| l.is_finite() && h.is_finite() && l <= h)
            };
            if !valid(&t.exact[base..base + 2 * dim]) || !valid(&t.quant[base..base + 2 * dim]) {
                return Err(PageError::Corrupt(format!(
                    "ELS entry for page {pid} is not a valid box"
                )));
            }
        }
        Ok(t)
    }
}

impl std::fmt::Debug for ElsTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ElsTable")
            .field("bits", &self.bits)
            .field("dim", &self.dim)
            .field("children", &self.len)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(n: u32) -> PageId {
        PageId(n)
    }

    #[test]
    fn disabled_table_is_passthrough() {
        let mut t = ElsTable::new(2, 0);
        let region = Rect::unit(2);
        t.extend(pid(1), &Point::new(vec![0.5, 0.5]), &region);
        assert!(t.is_empty());
        assert_eq!(t.effective_region(pid(1), &region), region);
        assert!(t.may_intersect(pid(1), &region));
        assert_eq!(t.encoded_bytes(), 0);
    }

    #[test]
    fn effective_region_contains_live_space() {
        let mut t = ElsTable::new(2, 4);
        let pts = vec![Point::new(vec![0.30, 0.30]), Point::new(vec![0.40, 0.60])];
        let region = Rect::unit(2);
        t.set_from_points(pid(1), pts.iter(), &region);
        let eff = t.effective_region(pid(1), &region);
        for p in &pts {
            assert!(eff.contains_point(p), "quantization must be conservative");
            assert!(t.may_contain(pid(1), p));
        }
        assert!(eff.volume() < region.volume());
        assert!(region.contains_rect(&eff));
    }

    #[test]
    fn may_intersect_prunes_disjoint_boxes() {
        let mut t = ElsTable::new(2, 8);
        let region = Rect::unit(2);
        t.set_from_points(pid(1), [Point::new(vec![0.1, 0.1])].iter(), &region);
        assert!(t.may_intersect(pid(1), &Rect::new(vec![0.0, 0.0], vec![0.2, 0.2])));
        assert!(!t.may_intersect(pid(1), &Rect::new(vec![0.8, 0.8], vec![0.9, 0.9])));
    }

    #[test]
    fn more_bits_means_tighter_regions() {
        let pts = [
            Point::new(vec![0.301, 0.299]),
            Point::new(vec![0.302, 0.301]),
        ];
        let region = Rect::unit(2);
        let mut vol_prev = f64::INFINITY;
        for bits in [1u8, 2, 4, 8, 12] {
            let mut t = ElsTable::new(2, bits);
            t.set_from_points(pid(1), pts.iter(), &region);
            let v = t.effective_region(pid(1), &region).volume();
            assert!(v <= vol_prev + 1e-12, "bits={bits} gave looser region");
            vol_prev = v;
        }
        assert!(vol_prev < 1e-3);
    }

    #[test]
    fn extend_grows_monotonically() {
        let mut t = ElsTable::new(2, 8);
        let region = Rect::unit(2);
        t.extend(pid(1), &Point::new(vec![0.5, 0.5]), &region);
        t.extend(pid(1), &Point::new(vec![0.8, 0.2]), &region);
        assert!(t.may_contain(pid(1), &Point::new(vec![0.5, 0.5])));
        assert!(t.may_contain(pid(1), &Point::new(vec![0.8, 0.2])));
    }

    #[test]
    fn survives_region_enlargement() {
        // A live BR quantized against a small region must stay valid when
        // the kd-region is later enlarged (the gap-insertion case).
        let mut t = ElsTable::new(1, 4);
        let small = Rect::new(vec![0.4], vec![0.5]);
        t.set_from_points(pid(1), [Point::new(vec![0.45])].iter(), &small);
        let grown = Rect::new(vec![0.2], vec![0.5]);
        assert!(t
            .effective_region(pid(1), &small)
            .contains_point(&Point::new(vec![0.45])));
        assert!(t
            .effective_region(pid(1), &grown)
            .contains_point(&Point::new(vec![0.45])));
        assert!(t.may_contain(pid(1), &Point::new(vec![0.45])));
    }

    #[test]
    fn set_from_rects_unions() {
        let mut t = ElsTable::new(2, 8);
        let region = Rect::unit(2);
        let a = Rect::new(vec![0.1, 0.1], vec![0.2, 0.2]);
        let b = Rect::new(vec![0.5, 0.5], vec![0.6, 0.9]);
        t.set_from_rects(pid(3), [a.clone(), b.clone()].iter(), &region);
        let eff = t.effective_region(pid(3), &region);
        assert!(eff.contains_rect(&a));
        assert!(eff.contains_rect(&b));
    }

    #[test]
    fn encoded_bytes_matches_paper_accounting() {
        let mut t = ElsTable::new(64, 4);
        let region = Rect::unit(64);
        for i in 0..100 {
            t.extend(pid(i), &Point::new(vec![0.5; 64]), &region);
        }
        // 2 * 64 * 4 bits = 64 bytes per child.
        assert_eq!(t.encoded_bytes(), 6400);
    }

    #[test]
    fn remove_clears_entry() {
        let mut t = ElsTable::new(2, 4);
        let region = Rect::unit(2);
        t.extend(pid(1), &Point::new(vec![0.5, 0.5]), &region);
        assert_eq!(t.len(), 1);
        t.remove(pid(1));
        assert!(t.is_empty());
        assert_eq!(t.effective_region(pid(1), &region), region);
    }

    #[test]
    fn degenerate_region_extent_is_handled() {
        let mut t = ElsTable::new(2, 4);
        let region = Rect::new(vec![0.5, 0.0], vec![0.5, 1.0]);
        t.set_from_points(pid(1), [Point::new(vec![0.5, 0.3])].iter(), &region);
        let eff = t.effective_region(pid(1), &region);
        assert!(eff.contains_point(&Point::new(vec![0.5, 0.3])));
    }

    /// The three-entry table whose encoding is pinned below: ids out of
    /// insertion order, one from each mutation path.
    fn three_entry_table() -> ElsTable {
        let mut t = ElsTable::new(2, 4);
        let unit = Rect::unit(2);
        let pts = [Point::new(vec![0.30, 0.30]), Point::new(vec![0.40, 0.60])];
        t.set_from_points(pid(7), pts.iter(), &unit);
        t.extend(pid(1), &Point::new(vec![0.5, 0.25]), &unit);
        let half = Rect::new(vec![0.0, 0.0], vec![0.5, 0.5]);
        let live = Rect::new(vec![0.1, 0.1], vec![0.2, 0.2]);
        t.set_from_rects(pid(4), [live].iter(), &half);
        t
    }

    #[test]
    fn encode_is_byte_identical_to_the_catalog_format() {
        // Pinned bytes: the catalog's ELS section format must not change
        // with the in-memory layout.
        const GOLDEN: [u8; 117] = [
            4, 2, 0, 0, 0, 3, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 63, 0, 0, 0, 63, 0, 0, 0, 63, 0, 0, 0,
            63, 0, 0, 128, 62, 0, 0, 128, 62, 0, 0, 128, 62, 0, 0, 128, 62, 4, 0, 0, 0, 205, 204,
            204, 61, 205, 204, 76, 62, 0, 0, 192, 61, 0, 0, 96, 62, 205, 204, 204, 61, 205, 204,
            76, 62, 0, 0, 192, 61, 0, 0, 96, 62, 7, 0, 0, 0, 154, 153, 153, 62, 205, 204, 204, 62,
            0, 0, 128, 62, 0, 0, 224, 62, 154, 153, 153, 62, 154, 153, 25, 63, 0, 0, 128, 62, 0, 0,
            32, 63,
        ];
        let mut w = ByteWriter::new();
        three_entry_table().encode(&mut w);
        assert_eq!(w.as_slice(), &GOLDEN[..]);
        let back = ElsTable::decode(&mut ByteReader::new(&GOLDEN), 8).unwrap();
        let mut again = ByteWriter::new();
        back.encode(&mut again);
        assert_eq!(again.as_slice(), &GOLDEN[..]);
    }

    #[test]
    fn decode_rejects_ids_past_the_page_file_and_duplicates() {
        let mut w = ByteWriter::new();
        three_entry_table().encode(&mut w);
        let bytes = w.into_inner();
        // The largest id is 7: eight slots hold it, seven do not.
        assert!(ElsTable::decode(&mut ByteReader::new(&bytes), 8).is_ok());
        assert!(matches!(
            ElsTable::decode(&mut ByteReader::new(&bytes), 7),
            Err(PageError::Corrupt(_))
        ));
        // Entry 1's id (4) rewritten to entry 0's (1).
        let mut dup = bytes.clone();
        let second = 9 + (4 + 16 * 2);
        dup[second..second + 4].copy_from_slice(&1u32.to_le_bytes());
        assert!(matches!(
            ElsTable::decode(&mut ByteReader::new(&dup), 8),
            Err(PageError::Corrupt(_))
        ));
    }

    #[test]
    fn freed_slot_is_reused_by_a_later_page() {
        let mut t = ElsTable::new(2, 8);
        let region = Rect::unit(2);
        t.set_from_points(pid(3), [Point::new(vec![0.1, 0.1])].iter(), &region);
        t.set_from_points(pid(5), [Point::new(vec![0.9, 0.9])].iter(), &region);
        t.remove(pid(3));
        assert_eq!(t.len(), 1);
        assert!(t.quant_rect(pid(3)).is_none());
        assert!(t.exact_live(pid(3)).is_none());
        // Page 3 reallocated: its slot holds the new page's box only.
        t.extend(pid(3), &Point::new(vec![0.6, 0.4]), &region);
        assert_eq!(t.len(), 2);
        assert_eq!(
            t.exact_live(pid(3)).unwrap(),
            Rect::new(vec![0.6, 0.4], vec![0.6, 0.4])
        );
        assert!(!t.may_contain(pid(3), &Point::new(vec![0.1, 0.1])));
        assert!(t.may_contain(pid(3), &Point::new(vec![0.6, 0.4])));
        assert!(t.may_contain(pid(5), &Point::new(vec![0.9, 0.9])));
    }

    #[test]
    fn lookup_beyond_the_arena_has_no_box() {
        let mut t = ElsTable::new(2, 4);
        let region = Rect::unit(2);
        t.extend(pid(2), &Point::new(vec![0.5, 0.5]), &region);
        let far = Rect::new(vec![0.9, 0.9], vec![1.0, 1.0]);
        for id in [64, 1000, u32::MAX] {
            // No box: distance expansion bounds the child by 0, and box
            // and point probes cannot prune it.
            assert!(t.quant_rect(pid(id)).is_none());
            assert!(t.may_intersect(pid(id), &far));
            assert!(t.may_contain(pid(id), &Point::new(vec![0.9, 0.9])));
            assert_eq!(t.effective_region(pid(id), &region), region);
            t.remove(pid(id));
        }
        assert_eq!(t.len(), 1);
        assert!(!t.may_intersect(pid(2), &far));
    }

    #[test]
    fn persist_then_open_keeps_every_quantized_row() {
        use crate::{HybridTree, HybridTreeConfig};
        use hyt_index::MultidimIndex;
        let dir = std::env::temp_dir().join(format!("hyt_els_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (pages, meta) = (dir.join("rows.pages"), dir.join("rows.meta"));
        let cfg = HybridTreeConfig {
            page_size: 512,
            ..HybridTreeConfig::default()
        };
        let mut t = HybridTree::create_durable(4, cfg, &pages).unwrap();
        for i in 0..600u64 {
            let x = (i * 37 % 600) as f32 / 600.0;
            t.insert(Point::new(vec![x, 1.0 - x, x * x, 0.5]), i)
                .unwrap();
        }
        t.persist(&meta).unwrap();
        let reopened = HybridTree::open(&pages, &meta).unwrap();
        let slots = t.pool.with_storage(|s| s.page_slots());
        assert!(t.els.len() > 10);
        assert_eq!(reopened.els.len(), t.els.len());
        for id in 0..slots {
            assert_eq!(reopened.els.quant_rect(pid(id)), t.els.quant_rect(pid(id)));
            assert_eq!(reopened.els.exact_live(pid(id)), t.els.exact_live(pid(id)));
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
