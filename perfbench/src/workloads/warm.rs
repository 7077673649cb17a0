//! `colhist32-knn-warm`: COLHIST 32-d, 70K points, in-memory pages and a
//! decoded-node cache larger than the tree, so every decoded node visit
//! after the warming pass hits the cache. One client runs a seeded mix
//! that is half kNN10 (L2) and half box and L1 range queries at 0.2%
//! selectivity; then two clients run kNN through `run_batch_parallel`.

use super::{
    build_counters, insert_all, layer_probes, paper_config, probe_tree, query_counters,
    write_counters, LayerInputs,
};
use crate::common::{
    execute, insertion_order, knn_centers, make_queries, peak_rss_mb, query_loop, raw_bytes,
    report_queries, report_writes, sample_flags, trace_overhead, Env, LoopInputs, QueryPhase,
    Throughput, COLHIST_SEED, ROUNDS,
};
use crate::oracle::{Answer, Corpus, Flat, Kind, Query};
use crate::stats::{median, Windows};
use crate::trace::Counters;
use hybrid_tree::HybridTree;
use hyt_index::MultidimIndex;
use std::time::Instant;

const N: usize = 70_000;
const DIM: usize = 32;
/// Decoded-node cache entries: the tree has about 3.6K pages.
const CACHE: usize = 8_192;
/// COLHIST selectivity of box and range queries (paper §4).
const SELECTIVITY: f64 = 0.002;

pub fn run(env: &mut Env) -> Result<(), String> {
    let t_gen = Instant::now();
    let mut rng = env.rng(1);
    let data = hyt_data::colhist(N, DIM, COLHIST_SEED);
    let qs = make_queries(&data, 2_000, 0.5, SELECTIVITY, SELECTIVITY, &mut rng);
    let sample = sample_flags(qs.queries.len(), 50, &mut rng);
    let knn = knn_centers(&qs.queries);
    let flat = Flat::new(&Corpus::new(data.clone(), N));
    println!(
        "generated {N} points, {} queries (box side {:.4}, L1 radius {:.4}) in {:.2} s",
        qs.queries.len(),
        qs.side,
        qs.radius,
        t_gen.elapsed().as_secs_f64()
    );

    // Each round builds a tree in its own insertion order, warms it and
    // runs both loops, so every metric samples the whole run.
    let mut builds = Vec::new();
    let mut write_lat = Windows::default();
    let mut phase = QueryPhase::new(qs.queries.len());
    let mut tp = Throughput::default();
    let mut build_io = Counters::default();
    let mut last = None;
    for round in 0..ROUNDS {
        drop(last.take());
        let corpus = Corpus::new(insertion_order(&data, round), N);
        let open = env.tracer.begin("setup.build", round as u64);
        let t0 = Instant::now();
        let mut t = HybridTree::new(DIM, paper_config(0, CACHE)).map_err(|e| e.to_string())?;
        write_lat.start_round();
        insert_all(&mut t, &corpus, 0..N as u64, Some(&mut write_lat))?;
        builds.push(t0.elapsed().as_secs_f64());
        build_io = build_counters(&t);
        env.tracer.end(open, build_io);
        // Warm the cache: a range query covering the whole space decodes
        // every page once.
        execute(&t, &Query::Range(data[0].clone(), f64::from(u16::MAX)))?;
        let inputs = LoopInputs {
            idx: &t,
            corpus: &corpus,
            queries: &qs.queries,
            sample: &sample,
            knn: &knn,
            flat: &flat,
        };
        let budget = env.budget(1.0 / ROUNDS as f64);
        query_loop(env, &inputs, budget, 0.4, &mut phase, &mut tp);
        env.require(t.len() == N, || {
            format!("len {} after build, expected {N}", t.len())
        });
        last = Some((t, corpus));
    }
    let (tree, corpus) = last.expect("at least one round");

    let setup_s = median(&builds);
    report_queries(env, &phase.lat, &phase.scan);
    tp.report(env);
    env.report.set("setup_s", setup_s);
    report_writes(env, &write_lat);
    env.report.set("write_per_s", N as f64 / setup_s);
    env.report.set("pages_per_query", phase.pages_per_query());
    env.report.set("peak_rss_mb", peak_rss_mb());
    let st = tree.structure_stats().map_err(|e| e.to_string())?;
    env.report.set(
        "space_amp",
        (st.total_nodes * tree.config().page_size) as f64 / raw_bytes(N, DIM),
    );

    if env.traced() {
        query_counters(env);
        write_counters(env, N as u64, &build_io);
        let overhead = trace_overhead(env, &tree, &knn[..knn.len().min(300)]);
        env.report.set("trace.overhead", overhead);
        // The workload's own pages are in memory: the page-file probes
        // run over a durable tree of a 10K-point subsample.
        let (persist, open, recover, pages_path) = probe_tree(env, &corpus, 10_000)?;
        env.report.set("core.persist_ms", persist);
        env.report.set("core.open_ms", open);
        env.report.set("core.recover_ms", recover);
        layer_probes(
            env,
            &LayerInputs {
                idx: &tree,
                corpus: &corpus,
                queries: &qs.queries,
                knn: &knn,
                pages_path: &pages_path,
                knn_p50_us: phase.lat.dist(Kind::Knn).median(),
                bound_sq: kth_sq(&phase.answers),
            },
        )?;
    }
    Ok(())
}

/// Median squared distance of the k-th neighbor over recorded kNN answers.
pub fn kth_sq(answers: &[(usize, Answer)]) -> f64 {
    let d: Vec<f64> = answers
        .iter()
        .filter_map(|(_, a)| match a {
            Answer::Knn(hits) => hits.last().map(|h| h.1 * h.1),
            Answer::Oids(_) => None,
        })
        .collect();
    median(&d)
}
