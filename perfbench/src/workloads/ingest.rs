//! `colhist32-ingest`: writes beside reads. Set-up inserts a seeded half
//! of 70K COLHIST 32-d points into a durable file with a buffer pool of
//! about a quarter of the final tree and the decoded-node cache on,
//! committing every 5,000 inserts. The timed stream then inserts from
//! the held-out half; per 4 inserts it deletes one live point and runs one
//! kNN10 (L2) and one box or L1 range query. It commits with `persist`
//! every 5,000 writes and once at the end. Two clients then run kNN on
//! the final tree, and a reopen of the last commit must return the
//! committed state.
//!
//! The stream's work is fixed by `--seconds` alone: a round runs
//! [`stream_cycles`] cycles, however fast the program is, so every run
//! inserts, deletes and queries the same tree sizes.

use super::warm::kth_sq;
use super::{
    file_len, layer_probes, paper_config, query_counters, recover_ms, timed_ms, write_counters,
    LayerInputs,
};
use crate::common::{
    execute, insertion_order, io_delta, knn_centers, knn_throughput, make_queries, peak_rss_mb,
    raw_bytes, report_queries, report_writes, time_scan, timed_query, trace_overhead, Env,
    Latencies, Throughput, COLHIST_SEED, K, KNN_METRIC, RANGE_METRIC, ROUNDS, SCAN_EVERY,
    WRITE_WINDOW,
};
use crate::oracle::{Answer, Corpus, Flat, Kind, Query};
use crate::stats::{median, Windows};
use crate::trace::Counters;
use hybrid_tree::HybridTree;
use hyt_index::MultidimIndex;
use hyt_page::DurableStorage;
use rand::prelude::*;
use rand::rngs::StdRng;
use std::path::Path;
use std::time::{Duration, Instant};

const N: usize = 70_000;
const DIM: usize = 32;
const SELECTIVITY: f64 = 0.002;
/// About a quarter of the final tree's ~3.6K pages.
const POOL_PAGES: usize = 900;
const CACHE: usize = 4_096;
/// Writes between commits.
const COMMIT_EVERY: u64 = 5_000;
/// Share of stream reads checked against brute force on the spot.
const CHECK_SHARE: f64 = 1.0 / 24.0;
/// Share of `--seconds` the streams of all rounds are sized to take.
const STREAM_SHARE: f64 = 0.75;
/// Stream cycles (4 inserts, 1 delete, 2 reads) per second, as measured
/// on the reference host (2-core x86-64, ~2,700 writes/s): the rate that
/// sizes a round's fixed stream.
const CYCLES_PER_S: f64 = 540.0;
/// A round's stream fails the run when it takes this many times its
/// nominal share of `--seconds`, so a run still ends in bounded time.
const SAFETY_CAP: f64 = 4.0;

type Tree = HybridTree<DurableStorage>;

fn commit(env: &mut Env, tree: &mut Tree, meta: &Path) -> Result<f64, String> {
    let io0 = tree.io_stats();
    let open = env.tracer.begin("core.persist", 0);
    let t0 = Instant::now();
    let r = tree.persist(meta);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let io = io_delta(&tree.io_stats(), &io0);
    env.tracer.end(
        open,
        Counters {
            physical_writes: io.physical_writes,
            ..Counters::default()
        },
    );
    r.map_err(|e| format!("persist: {e}"))?;
    Ok(ms)
}

fn setup(env: &mut Env, corpus: &Corpus, pages: &Path, meta: &Path) -> Result<Tree, String> {
    let mut tree = HybridTree::create_durable(DIM, paper_config(POOL_PAGES, CACHE), pages)
        .map_err(|e| e.to_string())?;
    for (i, &oid) in corpus.live().iter().enumerate() {
        let p = corpus.points[oid as usize].clone();
        tree.insert(p, oid)
            .map_err(|e| format!("insert of {oid}: {e}"))?;
        if (i as u64 + 1).is_multiple_of(COMMIT_EVERY) {
            commit(env, &mut tree, meta)?;
        }
    }
    commit(env, &mut tree, meta)?;
    Ok(tree)
}

/// One write as the stream sees it: its latency in µs, with the pool and
/// cache counters in a span when tracing.
fn write_op(
    env: &mut Env,
    tree: &mut Tree,
    name: &'static str,
    op: impl FnOnce(&mut Tree) -> Result<(), String>,
) -> Result<f64, String> {
    let (io0, c0) = (tree.io_stats(), tree.cache_stats());
    let open = env.tracer.begin(name, 0);
    let t0 = Instant::now();
    let r = op(tree);
    let us = t0.elapsed().as_secs_f64() * 1e6;
    if env.traced() {
        let io = io_delta(&tree.io_stats(), &io0);
        env.tracer
            .end(open, Counters::from_stats(&io, &c0, &tree.cache_stats()));
    } else {
        env.tracer.end(open, Counters::default());
    }
    r.map(|()| us)
}

/// What the stream rounds of a run accumulate.
#[derive(Default)]
struct Stream {
    lat: Latencies,
    scan: Latencies,
    write_lat: Windows,
    commits: Vec<f64>,
    query_pages: u64,
    writes: u64,
    clock: Duration,
    /// Writes per second of each round's stream.
    write_rates: Vec<f64>,
    /// Pool and cache counters of the writes, for the traced run.
    io: Counters,
    cycle: usize,
}

/// Cycles of one round's stream: its share of `--seconds` at
/// `CYCLES_PER_S`, and at most what the held-out half can feed. At
/// `--seconds 15` a round inserts 8,100 of the 35,000 held-out points.
fn stream_cycles(seconds: f64) -> usize {
    let cycles = (seconds * STREAM_SHARE / ROUNDS as f64 * CYCLES_PER_S).round() as usize;
    cycles.clamp(1, (N - N / 2) / 4)
}

/// Runs `cycles` stream cycles, each 4 inserts from the held-out half,
/// one delete of a random live point, one kNN and one box or range
/// query. Commits every `COMMIT_EVERY` writes and at the end. The clock
/// excludes the on-the-spot answer checks and flat scans. Fails when the
/// round's wall time passes `cap`.
#[allow(clippy::too_many_arguments)]
fn stream(
    env: &mut Env,
    tree: &mut Tree,
    corpus: &mut Corpus,
    knn: &[Query],
    other: &[Query],
    meta: &Path,
    cycles: usize,
    cap: Duration,
    rng: &mut StdRng,
    s: &mut Stream,
) -> Result<(), String> {
    let (io0, c0) = (tree.io_stats(), tree.cache_stats());
    s.lat.start_round();
    s.write_lat.start_round();
    let writes0 = s.writes;
    let mut flat = Flat::new(corpus);
    let mut clock = Duration::ZERO;
    let mut next = (N / 2) as u64;
    let mut since_commit = 0u64;
    let wall = Instant::now();
    for _ in 0..cycles {
        if wall.elapsed() > cap {
            return Err(format!(
                "stream round passed its safety cap of {:.1} s",
                cap.as_secs_f64()
            ));
        }
        let t0 = Instant::now();
        let mut aside = Duration::ZERO;
        let cycle_start = s.writes;
        for _ in 0..4 {
            let oid = next;
            let p = corpus.points[oid as usize].clone();
            env.attempted += 1;
            match write_op(env, tree, "engine.insert", |t| {
                t.insert(p, oid)
                    .map_err(|e| format!("insert of {oid}: {e}"))
            }) {
                Ok(us) => {
                    s.write_lat.push_sized(us, WRITE_WINDOW);
                    corpus.mark_inserted(oid);
                }
                Err(e) => env.fail(e),
            }
            next += 1;
            s.writes += 1;
        }
        let victim = corpus.live()[rng.gen_range(0..corpus.len())];
        let p = corpus.points[victim as usize].clone();
        env.attempted += 1;
        match write_op(env, tree, "engine.delete", |t| match t.delete(&p, victim) {
            Ok(true) => Ok(()),
            Ok(false) => Err(format!("delete of stored oid {victim} found nothing")),
            Err(e) => Err(format!("delete of {victim}: {e}")),
        }) {
            Ok(us) => {
                s.write_lat.push_sized(us, WRITE_WINDOW);
                corpus.mark_deleted(victim);
            }
            Err(e) => env.fail(e),
        }
        s.writes += 1;
        since_commit += s.writes - cycle_start;
        let cycle = s.cycle;
        s.cycle += 1;
        for q in [&knn[cycle % knn.len()], &other[cycle % other.len()]] {
            let (r, us) = timed_query(env, tree, q, cycle as u64);
            env.attempted += 1;
            let (answer, io) = match r {
                Ok(ok) => ok,
                Err(e) => {
                    env.fail(e);
                    continue;
                }
            };
            s.lat.push(q.kind(), us);
            s.query_pages += io.logical_reads + io.seq_reads;
            let c = Instant::now();
            if cycle.is_multiple_of(SCAN_EVERY) {
                s.scan.push(q.kind(), time_scan(&flat, q));
            }
            if rng.gen::<f64>() < CHECK_SHARE {
                if let Err(e) = corpus.check(q, &answer, &KNN_METRIC, &RANGE_METRIC) {
                    env.fail(format!("stream cycle {cycle}: {e}"));
                }
            }
            aside += c.elapsed();
        }
        if since_commit >= COMMIT_EVERY {
            s.commits.push(commit(env, tree, meta)?);
            since_commit = 0;
            let c = Instant::now();
            flat = Flat::new(corpus);
            aside += c.elapsed();
        }
        clock += t0.elapsed() - aside;
    }
    let t0 = Instant::now();
    s.commits.push(commit(env, tree, meta)?);
    clock += t0.elapsed();
    s.clock += clock;
    s.write_rates
        .push((s.writes - writes0) as f64 / clock.as_secs_f64());
    let io = Counters::from_stats(&io_delta(&tree.io_stats(), &io0), &c0, &tree.cache_stats());
    s.io.physical_writes += io.physical_writes;
    s.io.invalidations += io.invalidations;
    Ok(())
}

pub fn run(env: &mut Env) -> Result<(), String> {
    let t_gen = Instant::now();
    let mut rng = env.rng(3);
    let data = hyt_data::colhist(N, DIM, COLHIST_SEED);
    let qs = make_queries(&data, 2_000, 0.5, SELECTIVITY, SELECTIVITY, &mut rng);
    let (knn, other): (Vec<Query>, Vec<Query>) = qs
        .queries
        .iter()
        .cloned()
        .partition(|q| q.kind() == Kind::Knn);
    let centers = knn_centers(&knn);
    println!(
        "generated {N} points, {} queries (box side {:.4}, L1 radius {:.4}) in {:.2} s",
        qs.queries.len(),
        qs.side,
        qs.radius,
        t_gen.elapsed().as_secs_f64()
    );

    let pages = env.dir.join("ingest.pages");
    let meta = env.dir.join("ingest.meta");
    let mut setups = Vec::new();
    let mut opens = Vec::new();
    let mut st = Stream::default();
    let mut tp = Throughput::default();
    // Each round sets up the first half of its own insertion order (which
    // also spreads COLHIST's themes over both halves) and streams the rest.
    let mut last = None;
    for round in 0..ROUNDS {
        drop(last.take());
        let mut corpus = Corpus::new(insertion_order(&data, round), N / 2);
        let open = env.tracer.begin("setup.build", round as u64);
        let t0 = Instant::now();
        let mut tree = setup(env, &corpus, &pages, &meta)?;
        setups.push(t0.elapsed().as_secs_f64());
        env.tracer.end(open, Counters::default());

        let share = STREAM_SHARE / ROUNDS as f64;
        stream(
            env,
            &mut tree,
            &mut corpus,
            &knn,
            &other,
            &meta,
            stream_cycles(env.seconds),
            env.budget(share * SAFETY_CAP),
            &mut rng,
            &mut st,
        )?;
        env.require(tree.len() == corpus.len(), || {
            format!(
                "len {} after the stream, {} expected",
                tree.len(),
                corpus.len()
            )
        });
        let inv = tree.check_invariants();
        env.require(inv.is_ok(), || {
            format!("invariants after the stream: {inv:?}")
        });
        let budget = env.budget((1.0 - STREAM_SHARE) / ROUNDS as f64);
        knn_throughput(env, &tree, &corpus, &centers, budget, &mut tp);
        drop(tree);

        // Reopen the last commit: it must hold exactly the live set.
        let (r, ms) = timed_ms(env, "core.open", || Tree::open(&pages, &meta));
        opens.push(ms);
        let tree = r.map_err(|e| format!("reopen of the last commit: {e}"))?;
        env.require(tree.len() == corpus.len(), || {
            format!("reopened len {}, {} committed", tree.len(), corpus.len())
        });
        let inv = tree.check_invariants();
        env.require(inv.is_ok(), || format!("invariants after reopen: {inv:?}"));
        for (i, q) in qs.queries.iter().step_by(qs.queries.len() / 30).enumerate() {
            env.attempted += 1;
            let checked = execute(&tree, q)
                .and_then(|(a, _)| corpus.check(q, &a, &KNN_METRIC, &RANGE_METRIC));
            if let Err(e) = checked {
                env.fail(format!("query {i} after reopen: {e}"));
            }
        }
        last = Some((tree, corpus));
    }
    let (tree, corpus) = last.expect("at least one round");
    println!(
        "stream: {} writes, {} reads, {} commits in {:.3} s over {ROUNDS} rounds",
        st.writes,
        st.lat.count(),
        st.commits.len(),
        st.clock.as_secs_f64()
    );

    report_queries(env, &st.lat, &st.scan);
    tp.report(env);
    env.report.set("setup_s", median(&setups));
    report_writes(env, &st.write_lat);
    env.report.set("write_per_s", median(&st.write_rates));
    env.report.set(
        "pages_per_query",
        st.query_pages as f64 / st.lat.count().max(1) as f64,
    );
    env.report.set("peak_rss_mb", peak_rss_mb());
    env.report.set(
        "space_amp",
        (file_len(&pages) + file_len(&meta)) as f64 / raw_bytes(corpus.len(), DIM),
    );

    if env.traced() {
        query_counters(env);
        write_counters(env, st.writes, &st.io);
        env.report.set("core.persist_ms", median(&st.commits));
        env.report.set("core.open_ms", median(&opens));
        let recover = recover_ms(env, &pages, &meta)?;
        env.report.set("core.recover_ms", recover);
        let overhead = trace_overhead(env, &tree, &centers[..centers.len().min(300)]);
        env.report.set("trace.overhead", overhead);
        layer_probes(
            env,
            &LayerInputs {
                idx: &tree,
                corpus: &corpus,
                queries: &qs.queries,
                knn: &centers,
                pages_path: &pages,
                knn_p50_us: st.lat.dist(Kind::Knn).median(),
                bound_sq: kth_sq_of(&tree, &centers),
            },
        )?;
    }
    Ok(())
}

/// Median squared k-th neighbor distance of up to 50 kNN queries.
fn kth_sq_of(tree: &Tree, centers: &[hyt_geom::Point]) -> f64 {
    let answers: Vec<(usize, Answer)> = centers
        .iter()
        .take(50)
        .filter_map(|c| execute(tree, &Query::Knn(c.clone(), K)).ok())
        .map(|(a, _)| (0, a))
        .collect();
    kth_sq(&answers)
}
