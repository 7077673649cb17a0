//! Per-layer probes: timed calls into each layer's public functions,
//! made from the benchmark's own code and each wrapped in a span.

use crate::common::{execute, Env, K, KNN_METRIC, RANGE_METRIC};
use crate::oracle::{Corpus, Query};
use crate::stats::median;
use crate::trace::Counters;
use hybrid_tree::{Node, NodeView};
use hyt_geom::{Metric, Point, Rect, L1, L2};
use hyt_index::{MultidimIndex, QueryContext, StructureStats};
use hyt_page::{crc32, DurableStorage, PageId, Storage, DEFAULT_PAGE_SIZE};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Timing rounds per probe; each reports the median round.
const ROUNDS: usize = 5;

/// Median over rounds of the mean time per item, in ns.
fn per_item<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let rounds: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let t0 = Instant::now();
            for it in items {
                f(black_box(it));
            }
            t0.elapsed().as_nanos() as f64 / items.len().max(1) as f64
        })
        .collect();
    median(&rounds)
}

/// Runs `f` inside a probe span.
fn probe<R>(env: &mut Env, name: &'static str, f: impl FnOnce() -> R) -> R {
    env.tracer.span(name, 0, f)
}

/// Page images read back from a durable page file, split by node kind.
#[derive(Default)]
pub struct Pages {
    pub data: Vec<Vec<u8>>,
    pub index: Vec<Vec<u8>>,
}

/// `page.storage.read_us`: `DurableStorage::read` (pread plus frame CRC
/// check) per page over up to `max` live pages of the file at `path`.
/// Also returns the page images for the decode probes.
pub fn storage_read(
    env: &mut Env,
    path: &Path,
    dim: usize,
    max: usize,
) -> Result<(f64, Pages), String> {
    probe(env, "probe.page.storage_read", || {
        let store = DurableStorage::open(path, DEFAULT_PAGE_SIZE).map_err(|e| e.to_string())?;
        let ids: Vec<PageId> = (0..store.page_slots())
            .map(PageId)
            .filter(|&id| !store.is_freed(id))
            .take(max)
            .collect();
        let mut buf = vec![0u8; DEFAULT_PAGE_SIZE];
        let mut pages = Pages::default();
        for &id in &ids {
            store.read(id, &mut buf).map_err(|e| e.to_string())?;
            match NodeView::parse(&buf, dim) {
                Ok(NodeView::Data(_)) => pages.data.push(buf.clone()),
                Ok(NodeView::Index(_)) => pages.index.push(buf.clone()),
                Err(e) => return Err(format!("probe read of {id}: {e}")),
            }
        }
        let ns = per_item(&ids, |&id| {
            store
                .read(id, &mut buf)
                .expect("page read back a moment ago");
            black_box(&buf);
        });
        Ok((ns / 1e3, pages))
    })
}

/// `page.crc_us`: `crc32` over one page.
pub fn crc_us(env: &mut Env, pages: &Pages) -> f64 {
    probe(env, "probe.page.crc", || {
        per_item(&pages.data, |p| {
            black_box(crc32(p));
        }) / 1e3
    })
}

/// `page.storage.write_us`: `DurableStorage::write` per page into a
/// fresh file of the run directory, without fsync.
pub fn storage_write_us(env: &mut Env, pages: &Pages) -> Result<f64, String> {
    let path = env.dir.join("probe-write.pages");
    let us = probe(env, "probe.page.storage_write", || {
        let mut store =
            DurableStorage::create(&path, DEFAULT_PAGE_SIZE).map_err(|e| e.to_string())?;
        let images: Vec<&Vec<u8>> = pages.data.iter().take(256).collect();
        let ids = images
            .iter()
            .map(|_| store.allocate())
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        let work: Vec<(PageId, &Vec<u8>)> = ids.into_iter().zip(images).collect();
        let ns = per_item(&work, |(id, img)| {
            store.write(*id, img).expect("write to a fresh probe file");
        });
        Ok::<f64, String>(ns / 1e3)
    })?;
    let _ = std::fs::remove_file(&path);
    Ok(us)
}

/// `core.decode_data_us` and `core.decode_index_us`: `Node::decode` per
/// page of each kind.
pub fn decode_us(env: &mut Env, pages: &Pages, dim: usize) -> (f64, f64) {
    probe(env, "probe.core.decode", || {
        let one = |p: &Vec<u8>| {
            black_box(Node::decode(p, dim).expect("page parsed a moment ago"));
        };
        (
            per_item(&pages.data, one) / 1e3,
            per_item(&pages.index, one) / 1e3,
        )
    })
}

/// `core.view_filter_us`: `NodeView::parse` plus `filter_box` per data
/// page, with one of the workload's boxes.
pub fn view_filter_us(env: &mut Env, pages: &Pages, dim: usize, rect: &Rect) -> f64 {
    probe(env, "probe.core.view_filter", || {
        let mut out = Vec::new();
        per_item(&pages.data, |p| {
            out.clear();
            if let Ok(NodeView::Data(v)) = NodeView::parse(p, dim) {
                v.filter_box(rect, &mut out);
            }
            black_box(&out);
        }) / 1e3
    })
}

/// `geom.*`: the distance kernels per entry, through `&dyn Metric` as the
/// engines call them, at the workload's dimensionality. `bound_sq` is a
/// typical k-th neighbor squared distance, so the early-abandon kernel
/// abandons as often as in a real kNN scan.
pub fn geom_ns(env: &mut Env, corpus: &Corpus, queries: &[Query], bound_sq: f64) -> [f64; 4] {
    probe(env, "probe.geom", || {
        let live = corpus.live();
        let points: Vec<&Point> = (0..4096)
            .map(|i| &corpus.points[live[i * 7919 % live.len()] as usize])
            .collect();
        let centers: Vec<&Point> = queries
            .iter()
            .filter_map(|q| match q {
                Query::Knn(c, _) | Query::Range(c, _) => Some(c),
                Query::Box(_) => None,
            })
            .take(4)
            .collect();
        let rects: Vec<&Rect> = queries
            .iter()
            .filter_map(|q| match q {
                Query::Box(r) => Some(r),
                _ => None,
            })
            .take(256)
            .collect();
        let l2: &dyn Metric = &L2;
        let l1: &dyn Metric = &L1;
        let each = |f: &dyn Fn(&Point, &Point)| {
            median(
                &centers
                    .iter()
                    .map(|c| per_item(&points, |p| f(c, p)))
                    .collect::<Vec<_>>(),
            )
        };
        let sq = each(&|c, p| {
            black_box(l2.distance_sq(c, p));
        });
        let within = each(&|c, p| {
            black_box(l2.distance_sq_within(c, p, bound_sq));
        });
        let l1_ns = each(&|c, p| {
            black_box(l1.distance(c, p));
        });
        let rect_ns = median(
            &centers
                .iter()
                .map(|c| {
                    per_item(&rects, |r| {
                        black_box(l2.min_dist_rect_sq(c, r));
                    })
                })
                .collect::<Vec<_>>(),
        );
        [sq, within, l1_ns, rect_ns]
    })
}

/// `exec.cursor_over_batch`: time for `knn_stream` to yield `K` results
/// over time for `knn_ctx` on the same queries, alternating which runs
/// first.
pub fn cursor_over_batch(env: &mut Env, idx: &dyn MultidimIndex, knn: &[Point]) -> f64 {
    probe(env, "probe.exec.cursor_over_batch", || {
        let ctx = QueryContext::unlimited();
        let (mut stream_s, mut batch_s) = (0.0, 0.0);
        for (i, c) in knn.iter().enumerate() {
            let batch = || {
                let t0 = Instant::now();
                black_box(idx.knn_ctx(c, K, &KNN_METRIC, ctx).ok());
                t0.elapsed().as_secs_f64()
            };
            let stream = || {
                let t0 = Instant::now();
                if let Ok(mut cur) = idx.knn_stream(c, &KNN_METRIC, ctx) {
                    for _ in 0..K {
                        if black_box(cur.next()).is_none() {
                            break;
                        }
                    }
                }
                t0.elapsed().as_secs_f64()
            };
            if i % 2 == 0 {
                batch_s += batch();
                stream_s += stream();
            } else {
                stream_s += stream();
                batch_s += batch();
            }
        }
        stream_s / batch_s
    })
}

/// `ref.sr_tree.*`: kNN p50 (µs) and pages per query of an in-memory
/// SR-tree, decoded-node cache larger than the tree, over the live
/// points, after one warming pass over the same queries. The warming
/// pass's answers are checked against brute force, so a fast but wrong
/// reference cannot pass.
pub fn sr_tree(env: &mut Env, corpus: &Corpus, knn: &[Point]) -> Result<(f64, f64), String> {
    let dim = corpus.points[0].dim();
    let tree = probe(env, "probe.ref.sr_tree_build", || {
        let mut t = hyt_srtree::SrTree::new(
            dim,
            hyt_srtree::SrTreeConfig {
                node_cache_entries: 16_384,
                ..Default::default()
            },
        )
        .map_err(|e| e.to_string())?;
        for &o in corpus.live() {
            t.insert(corpus.points[o as usize].clone(), o)
                .map_err(|e| e.to_string())?;
        }
        Ok::<_, String>(t)
    })?;
    let queries: Vec<Query> = knn.iter().map(|c| Query::Knn(c.clone(), K)).collect();
    for (i, q) in queries.iter().enumerate() {
        env.attempted += 1;
        let checked = execute(&tree, q).and_then(|(a, _)| {
            if i < 20 {
                corpus.check(q, &a, &KNN_METRIC, &RANGE_METRIC)
            } else {
                Ok(())
            }
        });
        if let Err(e) = checked {
            env.fail(format!("SR-tree reference: {e}"));
        }
    }
    probe(env, "probe.ref.sr_tree_knn", || {
        let mut times = Vec::with_capacity(queries.len());
        let mut pages = 0u64;
        for q in &queries {
            let t0 = Instant::now();
            let (_, io) = execute(&tree, q)?;
            times.push(t0.elapsed().as_secs_f64() * 1e6);
            pages += io.logical_reads;
        }
        Ok((median(&times), pages as f64 / queries.len().max(1) as f64))
    })
}

/// Structural metrics from `structure_stats`.
pub fn structure(env: &mut Env, st: &StructureStats) {
    env.report.set("core.height", st.height as f64);
    env.report.set("core.leaf_util", st.avg_leaf_utilization);
    env.report.set("core.overlap_frac", st.avg_overlap_fraction);
    env.report.set("core.pages", st.total_nodes as f64);
}

/// Unit costs measured by the probes, for `exec.rest_us`.
pub struct UnitCosts {
    pub read_us: f64,
    pub decode_data_us: f64,
    pub decode_index_us: f64,
    pub l2_within_ns: f64,
}

/// `exec.rest_us`: kNN p50 minus what the probes account for, from the
/// per-kNN counts the program reports: physical page reads times the
/// storage read cost, decodes (decoded-node cache misses, which count
/// decodes with the cache on or off) times the decode cost, data and
/// index pages weighted as in the tree, and entries times the
/// early-abandon kernel cost. Entries per kNN are estimated as pages read
/// times the tree's mean entries per page. What remains stands for the
/// traversal kernel, heap, governance and child expansion.
pub fn rest_us(
    knn_p50_us: f64,
    per_knn: &Counters,
    queries: usize,
    units: &UnitCosts,
    st: &StructureStats,
    len: usize,
) -> f64 {
    let q = queries.max(1) as f64;
    let pages = per_knn.logical_reads as f64 / q;
    let physical = per_knn.physical_reads as f64 / q;
    let decodes = per_knn.decodes as f64 / q;
    let total = st.total_nodes.max(1) as f64;
    let decode_us = (st.data_nodes as f64 * units.decode_data_us
        + st.index_nodes as f64 * units.decode_index_us)
        / total;
    let entries = pages * len as f64 / total;
    knn_p50_us - physical * units.read_us - decodes * decode_us - entries * units.l2_within_ns / 1e3
}
