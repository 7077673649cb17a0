//! The three workloads. Each builds its index, runs its timed closed
//! loops, checks answers against brute force and fills the report with
//! either the end-to-end metrics (untraced) or the per-layer ones
//! (traced).

mod cold;
mod ingest;
mod warm;

pub use cold::run as cold;
pub use ingest::run as ingest;
pub use warm::run as warm;

use crate::common::{Env, WRITE_WINDOW};
use crate::oracle::{Corpus, Query};
use crate::probes::{self, Pages, UnitCosts};
use crate::stats::{median, Windows};
use crate::trace::Counters;
use hybrid_tree::{HybridTree, HybridTreeConfig};
use hyt_geom::Point;
use hyt_index::{MultidimIndex, StructureStats};
use hyt_page::DurableStorage;
use std::path::Path;
use std::time::Instant;

/// Paper defaults (EDA splits, 4-bit ELS, 4 KiB pages) with the given
/// buffer pool and decoded-node cache sizes.
pub fn paper_config(pool_pages: usize, node_cache_entries: usize) -> HybridTreeConfig {
    HybridTreeConfig {
        pool_pages,
        node_cache_entries,
        ..HybridTreeConfig::default()
    }
}

/// Inserts `oids` of `corpus` one by one, pushing each insert's latency
/// (µs) to `lat` when given.
pub fn insert_all(
    tree: &mut dyn MultidimIndex,
    corpus: &Corpus,
    oids: impl Iterator<Item = u64>,
    mut lat: Option<&mut Windows>,
) -> Result<(), String> {
    for oid in oids {
        let p = corpus.points[oid as usize].clone();
        let t0 = Instant::now();
        tree.insert(p, oid)
            .map_err(|e| format!("insert of {oid}: {e}"))?;
        if let Some(lat) = lat.as_deref_mut() {
            lat.push_sized(t0.elapsed().as_secs_f64() * 1e6, WRITE_WINDOW);
        }
    }
    Ok(())
}

/// Counters of a set-up build since the tree was made, for the per-write
/// layer metrics of the read-only workloads (their only writes happen
/// there).
pub fn build_counters(tree: &dyn MultidimIndex) -> Counters {
    let none = Default::default();
    Counters::from_stats(&tree.io_stats(), &none, &tree.cache_stats())
}

/// Times `f` in ms inside a span.
pub fn timed_ms<R>(env: &mut Env, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let open = env.tracer.begin(name, 0);
    let t0 = Instant::now();
    let r = f();
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    env.tracer.end(open, Counters::default());
    (r, ms)
}

/// Size of a file in bytes (0 when missing).
pub fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Median `recover` time in ms over three walks of a committed index.
pub fn recover_ms(env: &mut Env, pages: &Path, meta: &Path) -> Result<f64, String> {
    let mut times = Vec::new();
    for _ in 0..3 {
        let (r, ms) = timed_ms(env, "core.recover", || HybridTree::recover(pages, meta));
        drop(r.map_err(|e| format!("recover: {e}"))?);
        times.push(ms);
    }
    Ok(median(&times))
}

/// What the per-layer tail of every workload needs to know.
pub struct LayerInputs<'a> {
    pub idx: &'a dyn MultidimIndex,
    pub corpus: &'a Corpus,
    pub queries: &'a [Query],
    pub knn: &'a [Point],
    /// A durable page file holding this workload's points.
    pub pages_path: &'a Path,
    pub knn_p50_us: f64,
    /// A typical k-th neighbor squared distance.
    pub bound_sq: f64,
}

/// The probes every workload shares: storage, checksum, decode and view
/// costs over a page file of the workload's points; the distance kernels
/// at its dimensionality; cursor against batch kNN; the SR-tree
/// reference; structure; and `exec.rest_us`.
pub fn layer_probes(env: &mut Env, x: &LayerInputs) -> Result<(), String> {
    let dim = x.corpus.points[0].dim();
    let (read_us, pages): (f64, Pages) = probes::storage_read(env, x.pages_path, dim, 2_000)?;
    if pages.data.is_empty() || pages.index.is_empty() {
        return Err("probe page file has no data or no index pages".into());
    }
    env.report.set("page.storage.read_us", read_us);
    let crc = probes::crc_us(env, &pages);
    env.report.set("page.crc_us", crc);
    let write = probes::storage_write_us(env, &pages)?;
    env.report.set("page.storage.write_us", write);
    let (decode_data_us, decode_index_us) = probes::decode_us(env, &pages, dim);
    env.report.set("core.decode_data_us", decode_data_us);
    env.report.set("core.decode_index_us", decode_index_us);
    let rect = x
        .queries
        .iter()
        .find_map(|q| match q {
            Query::Box(r) => Some(r.clone()),
            _ => None,
        })
        .ok_or("workload has no box query")?;
    let view = probes::view_filter_us(env, &pages, dim, &rect);
    env.report.set("core.view_filter_us", view);
    let [sq, within, l1, rect_ns] = probes::geom_ns(env, x.corpus, x.queries, x.bound_sq);
    env.report.set("geom.l2_sq_ns", sq);
    env.report.set("geom.l2_within_ns", within);
    env.report.set("geom.l1_ns", l1);
    env.report.set("geom.min_dist_rect_sq_ns", rect_ns);
    let probe_knn = &x.knn[..x.knn.len().min(300)];
    let ratio = probes::cursor_over_batch(env, x.idx, probe_knn);
    env.report.set("exec.cursor_over_batch", ratio);
    let (sr_p50, sr_pages) = probes::sr_tree(env, x.corpus, probe_knn)?;
    env.report.set("ref.sr_tree.knn_p50_us", sr_p50);
    env.report.set("ref.sr_tree.pages_per_query", sr_pages);
    let st: StructureStats = x.idx.structure_stats().map_err(|e| e.to_string())?;
    probes::structure(env, &st);
    let (n, per_knn) = env.tracer.totals("engine.knn");
    let units = UnitCosts {
        read_us,
        decode_data_us,
        decode_index_us,
        l2_within_ns: within,
    };
    let rest = probes::rest_us(x.knn_p50_us, &per_knn, n, &units, &st, x.idx.len());
    env.report.set("exec.rest_us", rest);
    Ok(())
}

/// Query-side counters of a traced loop: pool hit rate, physical reads
/// and decodes per query, cache hit rate.
pub fn query_counters(env: &mut Env) {
    let mut n = 0usize;
    let mut c = Counters::default();
    for name in ["engine.knn", "engine.box", "engine.range"] {
        let (k, t) = env.tracer.totals(name);
        n += k;
        c.logical_reads += t.logical_reads;
        c.physical_reads += t.physical_reads;
        c.pool_hits += t.pool_hits;
        c.cache_hits += t.cache_hits;
        c.decodes += t.decodes;
    }
    let n = n.max(1) as f64;
    env.report.set(
        "page.pool.hit_rate",
        c.pool_hits as f64 / c.logical_reads.max(1) as f64,
    );
    env.report.set(
        "page.pool.physical_reads_per_query",
        c.physical_reads as f64 / n,
    );
    env.report.set(
        "page.cache.hit_rate",
        c.cache_hits as f64 / (c.cache_hits + c.decodes).max(1) as f64,
    );
    env.report
        .set("page.cache.decodes_per_query", c.decodes as f64 / n);
}

/// Per-write counters: physical page writes and cache invalidations.
pub fn write_counters(env: &mut Env, writes: u64, c: &Counters) {
    let w = writes.max(1) as f64;
    env.report.set(
        "page.pool.physical_writes_per_write",
        c.physical_writes as f64 / w,
    );
    env.report.set(
        "page.cache.invalidations_per_write",
        c.invalidations as f64 / w,
    );
}

/// A small durable tree over a seeded subsample of an in-memory
/// workload's points, for the page-file probes: persist, open and
/// recover times in ms and the page file path.
pub fn probe_tree(
    env: &mut Env,
    corpus: &Corpus,
    n: usize,
) -> Result<(f64, f64, f64, std::path::PathBuf), String> {
    let dim = corpus.points[0].dim();
    let pages = env.dir.join("probe.pages");
    let meta = env.dir.join("probe.meta");
    let live = corpus.live();
    let step = (live.len() / n).max(1);
    let mut tree =
        HybridTree::create_durable(dim, paper_config(0, 0), &pages).map_err(|e| e.to_string())?;
    insert_all(&mut tree, corpus, live.iter().step_by(step).copied(), None)?;
    let (r, persist) = timed_ms(env, "core.persist", || tree.persist(&meta));
    r.map_err(|e| format!("persist: {e}"))?;
    drop(tree);
    let (r, open) = timed_ms(env, "core.open", || {
        HybridTree::<DurableStorage>::open(&pages, &meta)
    });
    drop(r.map_err(|e| format!("open: {e}"))?);
    let recover = recover_ms(env, &pages, &meta)?;
    Ok((persist, open, recover, pages))
}
