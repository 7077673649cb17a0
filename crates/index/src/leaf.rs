//! The leaf page format every engine shares.
//!
//! The paper's data nodes hold fixed-size `(point, oid)` entries (§3).
//! Every engine in the workspace stores them the same way: a `u32` row
//! count followed by that many rows of `dim` little-endian `f32`
//! coordinates and a little-endian `u64` object id. Engines frame the
//! rows with their own bytes (a node tag, the hB-tree's redirects after
//! the rows); this module owns the rows themselves — their size, how
//! many fit a page, how they are written, and how they are read, either
//! decoded into [`Point`]s or filtered in place through [`LeafRows`].

use hyt_geom::{Point, Rect};
use hyt_page::{ByteReader, ByteWriter, PageError, PageResult};
use std::slice::ChunksExact;

/// Bytes of the row count that precedes the rows.
const COUNT_BYTES: usize = 4;

/// Bytes one `(point, oid)` row occupies: `dim` coordinates and the oid.
pub fn row_bytes(dim: usize) -> usize {
    4 * dim + 8
}

/// Bytes of a count plus `rows` rows.
pub fn encoded_len(rows: usize, dim: usize) -> usize {
    COUNT_BYTES + rows * row_bytes(dim)
}

/// Rows a page of `page_size` bytes holds when the engine spends
/// `framing` bytes of it besides the count and the rows (a node tag,
/// a trailer).
pub fn capacity(page_size: usize, framing: usize, dim: usize) -> usize {
    page_size.saturating_sub(framing + COUNT_BYTES) / row_bytes(dim)
}

/// Writes the row count and then every row.
pub fn put_rows<'p>(w: &mut ByteWriter, rows: impl ExactSizeIterator<Item = (&'p Point, u64)>) {
    w.put_u32(rows.len() as u32);
    for (p, oid) in rows {
        for &c in p.coords() {
            w.put_f32(c);
        }
        w.put_u64(oid);
    }
}

/// Reads a row count and its rows, building one `T` per row with
/// `make`. A count past the end of `r` or a row that is not a valid
/// point (a non-finite coordinate) is [`PageError::Corrupt`].
pub fn get_rows<T>(
    r: &mut ByteReader<'_>,
    dim: usize,
    make: impl FnMut(Point, u64) -> T,
) -> PageResult<Vec<T>> {
    LeafRows::read(r, dim)?.decode(make)
}

/// The rows of a leaf page, read in place from the page bytes.
pub struct LeafRows<'a> {
    rows: &'a [u8],
    count: usize,
    dim: usize,
}

impl<'a> LeafRows<'a> {
    /// Reads the row count at `r` and borrows the rows after it. A count
    /// that runs past the end of `r` is [`PageError::Corrupt`].
    pub fn read(r: &mut ByteReader<'a>, dim: usize) -> PageResult<Self> {
        let count = r.get_u32()? as usize;
        let len = count
            .checked_mul(row_bytes(dim))
            .filter(|&len| len <= r.remaining())
            .ok_or_else(|| {
                PageError::Corrupt(format!(
                    "leaf claims {count} rows, only {} bytes remain",
                    r.remaining()
                ))
            })?;
        Ok(Self {
            rows: r.get_bytes(len)?,
            count,
            dim,
        })
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the leaf has no rows.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Each row split into its coordinates' bytes and its oid's bytes.
    fn rows(&self) -> impl Iterator<Item = (ChunksExact<'a, u8>, &'a [u8])> + 'a {
        let coord_bytes = 4 * self.dim;
        self.rows.chunks_exact(row_bytes(self.dim)).map(move |row| {
            let (coords, oid) = row.split_at(coord_bytes);
            (coords.chunks_exact(4), oid)
        })
    }

    /// Appends the oids of rows inside `rect`, reading coordinates in
    /// place with early exit on the first failing dimension. A NaN
    /// coordinate lies in no box.
    pub fn filter_box(&self, rect: &Rect, out: &mut Vec<u64>) {
        'row: for (coords, oid) in self.rows() {
            for (d, c) in coords.enumerate() {
                if !(rect.lo(d)..=rect.hi(d)).contains(&f32_le(c)) {
                    continue 'row;
                }
            }
            out.push(u64_le(oid));
        }
    }

    /// Appends the oids of rows whose point equals `p` bit for bit.
    pub fn filter_point(&self, p: &Point, out: &mut Vec<u64>) {
        'row: for (coords, oid) in self.rows() {
            for (c, &x) in coords.zip(p.coords()) {
                if f32_le(c).to_bits() != x.to_bits() {
                    continue 'row;
                }
            }
            out.push(u64_le(oid));
        }
    }

    /// Decodes every row, building one `T` per row with `make`. A row
    /// that is not a valid point (a non-finite coordinate) is
    /// [`PageError::Corrupt`].
    fn decode<T>(&self, mut make: impl FnMut(Point, u64) -> T) -> PageResult<Vec<T>> {
        let mut out = Vec::with_capacity(self.count);
        for (i, (coords, oid)) in self.rows().enumerate() {
            let point = Point::try_new(coords.map(f32_le).collect()).ok_or_else(|| {
                PageError::Corrupt(format!("leaf row {i} holds a non-finite coordinate"))
            })?;
            out.push(make(point, u64_le(oid)));
        }
        Ok(out)
    }
}

#[inline]
fn f32_le(b: &[u8]) -> f32 {
    f32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

#[inline]
fn u64_le(b: &[u8]) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(b);
    u64::from_le_bytes(a)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(rows: &[(Vec<f32>, u64)]) -> Vec<u8> {
        let points: Vec<(Point, u64)> = rows
            .iter()
            .map(|(c, oid)| (Point::new(c.clone()), *oid))
            .collect();
        let mut w = ByteWriter::new();
        put_rows(&mut w, points.iter().map(|(p, oid)| (p, *oid)));
        w.into_inner()
    }

    #[test]
    fn sizes_match_paper_arithmetic() {
        // A 64-d row: 64 * 4 bytes of coordinates + an 8-byte oid.
        assert_eq!(row_bytes(64), 264);
        // A 4K page with a one-byte tag holds 15 such rows.
        assert_eq!(capacity(4096, 1, 64), 15);
        // Fanout of data pages in low dimensions is much higher.
        assert!(capacity(4096, 1, 8) > 100);
        assert_eq!(encoded_len(3, 2), 4 + 3 * 16);
        // A page too small for its framing holds nothing.
        assert_eq!(capacity(3, 1, 2), 0);
    }

    #[test]
    fn rows_roundtrip() {
        let rows = vec![(vec![0.1, 0.2, 0.3], 42), (vec![0.9, 0.8, 0.7], u64::MAX)];
        let buf = page(&rows);
        let mut r = ByteReader::new(&buf);
        let got = get_rows(&mut r, 3, |p, oid| (p.coords().to_vec(), oid)).unwrap();
        assert_eq!(got, rows);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn leaf_rows_filter_in_place() {
        let rows: Vec<(Vec<f32>, u64)> = (0..10).map(|i| (vec![i as f32 / 10.0, 0.5], i)).collect();
        let buf = page(&rows);
        let view = LeafRows::read(&mut ByteReader::new(&buf), 2).unwrap();
        assert_eq!(view.len(), 10);
        let mut out = Vec::new();
        view.filter_box(&Rect::new(vec![0.25, 0.0], vec![0.65, 1.0]), &mut out);
        assert_eq!(out, vec![3, 4, 5, 6]);
        out.clear();
        view.filter_point(&Point::new(vec![0.3, 0.5]), &mut out);
        assert_eq!(out, vec![3]);
    }

    #[test]
    fn empty_leaf_rows() {
        let buf = page(&[]);
        let view = LeafRows::read(&mut ByteReader::new(&buf), 3).unwrap();
        assert!(view.is_empty());
        let mut out = Vec::new();
        view.filter_box(&Rect::unit(3), &mut out);
        assert!(out.is_empty());
        assert!(view.decode(|p, oid| (p, oid)).unwrap().is_empty());
    }

    #[test]
    fn count_past_the_buffer_is_corrupt() {
        for count in [1u32, 1000, u32::MAX] {
            let buf = count.to_le_bytes();
            assert!(matches!(
                LeafRows::read(&mut ByteReader::new(&buf), 2),
                Err(PageError::Corrupt(_))
            ));
        }
        assert!(matches!(
            LeafRows::read(&mut ByteReader::new(&[1, 0]), 2),
            Err(PageError::Corrupt(_))
        ));
    }

    #[test]
    fn non_finite_coordinate_is_corrupt() {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut buf = page(&[(vec![0.25, 0.5], 1), (vec![0.75, 0.5], 2)]);
            let at = COUNT_BYTES + row_bytes(2) + 4;
            buf[at..at + 4].copy_from_slice(&bad.to_le_bytes());
            let got = get_rows(&mut ByteReader::new(&buf), 2, |p, oid| (p, oid));
            assert!(matches!(got, Err(PageError::Corrupt(_))), "{bad}");
            // The in-place filters read the row without building a point.
            let view = LeafRows::read(&mut ByteReader::new(&buf), 2).unwrap();
            let mut out = Vec::new();
            view.filter_box(&Rect::unit(2), &mut out);
            assert_eq!(out, vec![1]);
        }
    }

    #[test]
    fn subnormal_coordinates_decode() {
        let tiny = f32::from_bits(1);
        let buf = page(&[(vec![tiny, -tiny], 3)]);
        let got = get_rows(&mut ByteReader::new(&buf), 2, |p, oid| (p, oid)).unwrap();
        assert_eq!(got[0].0.coords(), &[tiny, -tiny]);
    }
}
