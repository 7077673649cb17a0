//! Decode-path fuzzing: every deserializer in the read path must map
//! arbitrary, truncated, bit-flipped, or zeroed input to a *typed*
//! [`PageError`] — never a panic, never an out-of-bounds access. These
//! are the code paths that face bytes straight off a disk that may have
//! been torn, rotted, or overwritten by another program.

use hybridtree_repro::core::{
    scrub_index, ElsTable, HybridTree, HybridTreeConfig, KdTree, Node, NodeView,
};
use hybridtree_repro::geom::Point;
use hybridtree_repro::index::MultidimIndex;
use hybridtree_repro::page::{
    crc32, inspect_frame, inspect_header, ByteReader, DurableStorage, FrameStatus, PageError,
    FRAME_HEADER_BYTES,
};
use hybridtree_repro::srtree::SrNode;
use proptest::prelude::*;

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("hyt_fuzz_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// A valid encoded data node to mutate.
fn valid_data_node(dim: usize, n: usize) -> Vec<u8> {
    let entries: Vec<_> = (0..n)
        .map(|i| {
            let p = Point::new((0..dim).map(|d| (i * dim + d) as f32 / 64.0).collect());
            hybridtree_repro::core::DataEntry {
                point: p,
                oid: i as u64,
            }
        })
        .collect();
    Node::Data(entries).encode(dim)
}

proptest! {
    // Arbitrary garbage: the decoder must classify, not crash.
    #[test]
    fn node_decode_never_panics_on_garbage(
        raw in proptest::collection::vec(0u16..256, 0..600),
        dim in 1usize..20,
    ) {
        let bytes: Vec<u8> = raw.iter().map(|&v| v as u8).collect();
        let _ = Node::decode(&bytes, dim);
    }

    // Truncations of a valid node: every cut is Ok (a shorter valid
    // prefix cannot exist for this format, so in practice Corrupt) or a
    // typed error.
    #[test]
    fn node_decode_survives_truncation(cut in 0usize..400, dim in 1usize..9) {
        let buf = valid_data_node(dim, 8);
        let cut = cut.min(buf.len());
        let _ = Node::decode(&buf[..cut], dim);
    }

    // Bit flips in a valid node, decoded at the SAME dim: no panic; and
    // decoded at a DIFFERENT dim (a cross-linked page): no panic.
    #[test]
    fn node_decode_survives_bit_flips(
        pos in 0usize..300,
        bit in 0u8..8,
        dim in 1usize..9,
        other_dim in 1usize..9,
    ) {
        let mut buf = valid_data_node(dim, 8);
        let pos = pos % buf.len();
        buf[pos] ^= 1 << bit;
        let _ = Node::decode(&buf, dim);
        let _ = Node::decode(&buf, other_dim);
    }

    // The kd-tree decoder walks a recursive format — hostile bytes must
    // not blow the stack or panic.
    #[test]
    fn kdtree_decode_never_panics(raw in proptest::collection::vec(0u16..256, 0..400)) {
        let bytes: Vec<u8> = raw.iter().map(|&v| v as u8).collect();
        let _ = KdTree::decode(&mut ByteReader::new(&bytes));
    }

    // The ELS side-table decoder (catalog section).
    #[test]
    fn els_decode_never_panics(raw in proptest::collection::vec(0u16..256, 0..400)) {
        let bytes: Vec<u8> = raw.iter().map(|&v| v as u8).collect();
        let _ = ElsTable::decode(&mut ByteReader::new(&bytes), 1 << 16);
    }

    // Frame inspection over arbitrary slot contents: must classify as
    // Live/Free/Corrupt, never panic, and never claim a payload longer
    // than the slot.
    #[test]
    fn frame_inspection_never_panics(
        raw in proptest::collection::vec(0u16..256, 0..256),
        id in 0u32..64,
    ) {
        let bytes: Vec<u8> = raw.iter().map(|&v| v as u8).collect();
        let id = hybridtree_repro::page::PageId(id);
        if bytes.len() >= FRAME_HEADER_BYTES {
            let mut hdr = [0u8; FRAME_HEADER_BYTES];
            hdr.copy_from_slice(&bytes[..FRAME_HEADER_BYTES]);
            let _ = inspect_header(id, &hdr);
        }
        match inspect_frame(id, &bytes) {
            FrameStatus::Live { payload_len, .. } => {
                prop_assert!(FRAME_HEADER_BYTES + payload_len as usize <= bytes.len());
            }
            FrameStatus::Free | FrameStatus::Corrupt(_) => {}
        }
    }
}

/// Coordinate bit patterns that reach every branch of a leaf decoder:
/// ordinary values, any bits at all, NaNs of either sign and any
/// payload, both infinities, and subnormals.
fn coord_bits() -> impl Strategy<Value = u32> {
    prop_oneof![
        6 => (0u32..1000).prop_map(|i| (i as f32 / 1000.0).to_bits()),
        3 => 0u32..u32::MAX,
        1 => (0x7f80_0001u32..0x8000_0000, 0u32..2).prop_map(|(b, sign)| b | (sign << 31)),
        1 => Just(f32::INFINITY.to_bits()),
        1 => Just(f32::NEG_INFINITY.to_bits()),
        2 => (1u32..0x0080_0000, 0u32..2).prop_map(|(b, sign)| b | (sign << 31)),
    ]
}

/// A data page of the hybrid and SR-tree formats (tag 0, row count,
/// rows) whose rows hold `bits` as coordinates, `dim` per row.
fn leaf_page(dim: usize, bits: &[u32]) -> Vec<u8> {
    let mut page = vec![0u8];
    page.extend_from_slice(&((bits.len() / dim) as u32).to_le_bytes());
    for (oid, row) in bits.chunks_exact(dim).enumerate() {
        for b in row {
            page.extend_from_slice(&b.to_le_bytes());
        }
        page.extend_from_slice(&(oid as u64).to_le_bytes());
    }
    page
}

proptest! {
    // Leaf pages with arbitrary coordinate bits: a page whose
    // coordinates are all finite decodes to exactly those bits; any
    // non-finite coordinate makes the page Corrupt. Never a panic, on
    // the decoders and on the in-place view.
    #[test]
    fn leaf_decode_maps_non_finite_coordinates_to_corrupt(
        dim in 1usize..9,
        rows in 1usize..6,
        bits in proptest::collection::vec(coord_bits(), 40),
    ) {
        let bits = &bits[..dim * rows];
        let page = leaf_page(dim, bits);
        let finite = bits.iter().all(|&b| f32::from_bits(b).is_finite());
        let decoded: Vec<Result<Vec<Vec<u32>>, PageError>> = vec![
            Node::decode(&page, dim).map(|n| {
                n.expect_data()
                    .iter()
                    .map(|e| e.point.coords().iter().map(|c| c.to_bits()).collect())
                    .collect()
            }),
            SrNode::decode(&page, dim).map(|n| match n {
                SrNode::Data(rows) => rows
                    .iter()
                    .map(|(p, _)| p.coords().iter().map(|c| c.to_bits()).collect())
                    .collect(),
                SrNode::Index { .. } => Vec::new(),
            }),
        ];
        for got in decoded {
            match got {
                Ok(rows) => {
                    prop_assert!(finite, "a non-finite coordinate decoded");
                    let want: Vec<Vec<u32>> = bits.chunks_exact(dim).map(<[u32]>::to_vec).collect();
                    prop_assert_eq!(rows, want);
                }
                Err(PageError::Corrupt(_)) => prop_assert!(!finite, "finite rows rejected"),
                Err(e) => prop_assert!(false, "not Corrupt: {}", e),
            }
        }
        let Ok(NodeView::Data(view)) = NodeView::parse(&page, dim) else {
            panic!("a well-sized leaf page parses as data");
        };
        prop_assert_eq!(view.len(), rows);
        let mut out = Vec::new();
        view.filter_box(&hybridtree_repro::geom::Rect::unit(dim), &mut out);
        view.filter_point(&Point::new(vec![0.5; dim]), &mut out);
    }
}

proptest! {
    // File-per-case is slower; keep the case count moderate.
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    // A catalog file of arbitrary bytes: open and scrub must both fail
    // typed (or, absurdly unlikely, succeed), never panic.
    #[test]
    fn catalog_decode_never_panics_on_garbage(
        raw in proptest::collection::vec(0u16..256, 0..256),
        with_magic in 0u8..2,
    ) {
        let pages = tmp("garbage.pages");
        let meta = tmp("garbage.meta");
        let _ = DurableStorage::create(&pages, 256).unwrap();
        let mut body: Vec<u8> = raw.iter().map(|&v| v as u8).collect();
        if with_magic == 1 {
            // Force the parser past the magic check into section parsing.
            let mut m = b"HYTREE03".to_vec();
            m.extend_from_slice(&body);
            body = m;
        }
        std::fs::write(&meta, &body).unwrap();
        let _ = HybridTree::open(&pages, &meta);
        let _ = scrub_index(&pages, &meta);
    }
}

/// Zeroed page file regions: a page file of all zeros is all free slots —
/// decodable, scrubbable, and refusing to open as a tree.
#[test]
fn zeroed_page_file_is_free_slots_not_a_crash() {
    let pages = tmp("zeros.pages");
    let meta = tmp("zeros.meta");
    let cfg = HybridTreeConfig {
        page_size: 256,
        ..HybridTreeConfig::default()
    };
    {
        let mut t = HybridTree::create_durable(3, cfg, &pages).unwrap();
        for i in 0..200u64 {
            let x = i as f32 / 200.0;
            t.insert(Point::new(vec![x, 1.0 - x, 0.5]), i).unwrap();
        }
        t.persist(&meta).unwrap();
    }
    let len = std::fs::metadata(&pages).unwrap().len() as usize;
    std::fs::write(&pages, vec![0u8; len]).unwrap();
    // Every slot now reads as free: scrub reports no live pages, open
    // fails typed (the root the catalog points at is gone).
    let report = scrub_index(&pages, &meta).unwrap();
    assert_eq!(report.live, 0);
    assert!(!report.is_clean());
    assert!(HybridTree::open(&pages, &meta).is_err());
    std::fs::remove_file(&pages).ok();
    std::fs::remove_file(&meta).ok();
}

/// Builds and persists a small 3-d durable tree; returns its paths.
fn persisted_tree(name: &str) -> (std::path::PathBuf, std::path::PathBuf) {
    let pages = tmp(&format!("{name}.pages"));
    let meta = tmp(&format!("{name}.meta"));
    let cfg = HybridTreeConfig {
        page_size: 256,
        ..HybridTreeConfig::default()
    };
    let mut t = HybridTree::create_durable(3, cfg, &pages).unwrap();
    for i in 0..200u64 {
        let x = i as f32 / 200.0;
        t.insert(Point::new(vec![x, 1.0 - x, 0.5]), i).unwrap();
    }
    t.persist(&meta).unwrap();
    (pages, meta)
}

/// Rewrites the catalog's ELS section with `edit` and re-seals its
/// checksum, so the damage reaches the decoder instead of failing the
/// CRC. Catalog layout: magic, then `(len, bytes, crc)` for the core
/// section and again for the ELS section. Returns the edited section.
fn edit_els_section(meta: &std::path::Path, edit: impl FnOnce(&mut [u8])) -> Vec<u8> {
    let mut cat = std::fs::read(meta).unwrap();
    let u32_at = |b: &[u8], at: usize| u32::from_le_bytes(b[at..at + 4].try_into().unwrap());
    let core_len = u32_at(&cat, 8) as usize;
    let els_at = 8 + 4 + core_len + 4;
    let els_len = u32_at(&cat, els_at) as usize;
    let body = els_at + 4;
    edit(&mut cat[body..body + els_len]);
    let crc = crc32(&cat[body..body + els_len]);
    cat[body + els_len..body + els_len + 4].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(meta, &cat).unwrap();
    cat[body..body + els_len].to_vec()
}

/// ELS section layout: bits (1), dim (4), count (4), then per entry a
/// page id (4) and `16 * dim` bytes of bounds.
fn els_entry_id_at(entry: usize, dim: usize) -> usize {
    9 + entry * (4 + 16 * dim)
}

/// Opening must recover from a bad ELS section (the table is rebuilt
/// from the pages) or fail typed; either way the damaged section itself
/// decodes to `Corrupt`, and scrub reports it.
fn assert_bad_els_recovers(pages: &std::path::Path, meta: &std::path::Path, section: &[u8]) {
    let slots = DurableStorage::open(pages, 256).unwrap().page_slots();
    assert!(matches!(
        ElsTable::decode(&mut ByteReader::new(section), slots),
        Err(PageError::Corrupt(_))
    ));
    match HybridTree::open(pages, meta) {
        Ok(t) => {
            assert_eq!(t.len(), 200);
            t.check_invariants().unwrap();
        }
        Err(e) => assert!(e.to_string().to_lowercase().contains("corrupt"), "{e}"),
    }
    let report = scrub_index(pages, meta).unwrap();
    assert!(!report.is_clean());
    std::fs::remove_file(pages).ok();
    std::fs::remove_file(meta).ok();
}

/// An ELS entry naming page `u32::MAX - 1` must not size the arena: it
/// is past the page file, so open treats the section as damaged.
#[test]
fn els_entry_past_the_page_file_recovers() {
    let (pages, meta) = persisted_tree("els_far_id");
    let section = edit_els_section(&meta, |els| {
        let at = els_entry_id_at(0, 3);
        els[at..at + 4].copy_from_slice(&(u32::MAX - 1).to_le_bytes());
    });
    assert_bad_els_recovers(&pages, &meta, &section);
}

/// A duplicated page id in the ELS section is damage, not a silent
/// overwrite.
#[test]
fn els_duplicated_page_id_recovers() {
    let (pages, meta) = persisted_tree("els_dup_id");
    let section = edit_els_section(&meta, |els| {
        let (first, second) = (els_entry_id_at(0, 3), els_entry_id_at(1, 3));
        let id: [u8; 4] = els[first..first + 4].try_into().unwrap();
        els[second..second + 4].copy_from_slice(&id);
    });
    assert_bad_els_recovers(&pages, &meta, &section);
}
