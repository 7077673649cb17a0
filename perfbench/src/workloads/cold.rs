//! `fourier16-cold`: FOURIER 16-d built with `create_durable` (no buffer
//! pool, no decoded-node cache), persisted and reopened with `open`. One
//! client runs a seeded interleaved mix of box queries at 0.07%
//! selectivity, L1 range queries at 0.2% and kNN10 under L2, so every
//! node visit is a `pread`, a CRC check and a decode or view. Then two
//! clients run kNN through `run_batch_parallel`.

use super::warm::kth_sq;
use super::{
    build_counters, file_len, insert_all, layer_probes, paper_config, query_counters, recover_ms,
    timed_ms, write_counters, LayerInputs,
};
use crate::common::{
    insertion_order, knn_centers, make_queries, peak_rss_mb, query_loop, raw_bytes, report_queries,
    report_writes, sample_flags, trace_overhead, Env, LoopInputs, QueryPhase, Throughput,
    FOURIER_SEED, ROUNDS,
};
use crate::oracle::{Corpus, Flat, Kind};
use crate::stats::{median, Windows};
use crate::trace::Counters;
use hybrid_tree::HybridTree;
use hyt_index::MultidimIndex;
use hyt_page::DurableStorage;
use std::time::Instant;

/// The paper uses 400K points; 50K keeps a durable build per round
/// within the run-time budget.
const N: usize = 50_000;
const DIM: usize = 16;
const BOX_SELECTIVITY: f64 = 0.0007;
const RANGE_SELECTIVITY: f64 = 0.002;

pub fn run(env: &mut Env) -> Result<(), String> {
    let t_gen = Instant::now();
    let mut rng = env.rng(2);
    let data = hyt_data::fourier(N, DIM, FOURIER_SEED);
    let qs = make_queries(
        &data,
        1_500,
        1.0 / 3.0,
        BOX_SELECTIVITY,
        RANGE_SELECTIVITY,
        &mut rng,
    );
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

    // Each round builds, persists and reopens a tree in its own insertion
    // order, then runs both loops on it.
    let pages = env.dir.join("cold.pages");
    let meta = env.dir.join("cold.meta");
    let (mut setups, mut builds, mut persists, mut opens) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
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
        let mut t = HybridTree::create_durable(DIM, paper_config(0, 0), &pages)
            .map_err(|e| e.to_string())?;
        write_lat.start_round();
        insert_all(&mut t, &corpus, 0..N as u64, Some(&mut write_lat))?;
        builds.push(t0.elapsed().as_secs_f64());
        build_io = build_counters(&t);
        env.tracer.end(open, build_io);
        let (r, ms) = timed_ms(env, "core.persist", || t.persist(&meta));
        r.map_err(|e| format!("persist: {e}"))?;
        persists.push(ms);
        drop(t);
        let (r, ms) = timed_ms(env, "core.open", || {
            HybridTree::<DurableStorage>::open(&pages, &meta)
        });
        opens.push(ms);
        let t = r.map_err(|e| format!("open: {e}"))?;
        setups.push(t0.elapsed().as_secs_f64());
        let inputs = LoopInputs {
            idx: &t,
            corpus: &corpus,
            queries: &qs.queries,
            sample: &sample,
            knn: &knn,
            flat: &flat,
        };
        let budget = env.budget(1.0 / ROUNDS as f64);
        query_loop(env, &inputs, budget, 0.3, &mut phase, &mut tp);
        env.require(t.len() == N, || {
            format!("len {} after open, expected {N}", t.len())
        });
        last = Some((t, corpus));
    }
    let (tree, corpus) = last.expect("at least one round");

    report_queries(env, &phase.lat, &phase.scan);
    tp.report(env);
    env.report.set("setup_s", median(&setups));
    report_writes(env, &write_lat);
    env.report.set("write_per_s", N as f64 / median(&builds));
    env.report.set("pages_per_query", phase.pages_per_query());
    env.report.set("peak_rss_mb", peak_rss_mb());
    env.report.set(
        "space_amp",
        (file_len(&pages) + file_len(&meta)) as f64 / raw_bytes(N, DIM),
    );

    if env.traced() {
        query_counters(env);
        write_counters(env, N as u64, &build_io);
        env.report.set("core.persist_ms", median(&persists));
        env.report.set("core.open_ms", median(&opens));
        let recover = recover_ms(env, &pages, &meta)?;
        env.report.set("core.recover_ms", recover);
        let overhead = trace_overhead(env, &tree, &knn[..knn.len().min(300)]);
        env.report.set("trace.overhead", overhead);
        layer_probes(
            env,
            &LayerInputs {
                idx: &tree,
                corpus: &corpus,
                queries: &qs.queries,
                knn: &knn,
                pages_path: &pages,
                knn_p50_us: phase.lat.dist(Kind::Knn).median(),
                bound_sq: kth_sq(&phase.answers),
            },
        )?;
    }
    Ok(())
}
