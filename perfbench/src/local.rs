//! `local-query`: an in-process `Context` (parallelism 2) over a cached,
//! BSP-partitioned world-events dataset with land/sea skew. One thread
//! runs a closed loop over a seeded, fixed-order query mix: range
//! filters at several selectivities, withinDistance filters, kNN on a
//! live index and a withinDistance join of a small probe set.

use crate::common::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stark::distributed::EventRow;
use stark::{
    BspPartitioner, IndexedSpatialRdd, JoinConfig, STObject, STPredicate, SpatialRdd, SpatialRddExt,
};
use stark_engine::{Context, EngineConfig, MetricsSnapshot};
use stark_eventsim::EventGenerator;
use stark_geo::DistanceFn;
use std::sync::Arc;
use std::time::{Duration, Instant};

const ROWS: usize = 100_000;
const PARALLELISM: usize = 2;
const INPUT_PARTITIONS: usize = 8;
const INDEX_ORDER: usize = 16;
const SETUPS: usize = 7;
const MIX_BLOCKS: usize = 8;
const KNN_K: usize = 10;
const PROBES: usize = 32;
const JOIN_DIST: f64 = 0.25;

enum Query {
    Range(STObject),
    Within(STObject, f64),
    Knn(STObject),
    Join(Vec<EventRow>),
}

#[derive(PartialEq, Debug)]
enum Answer {
    Ids(Vec<u64>),
    Dists(Vec<f64>),
    Pairs(Vec<(u64, u64)>),
}

fn box_query(x: f64, y: f64, half: f64, t0: i64, t1: i64) -> STObject {
    let (x0, y0, x1, y1) = (x - half, y - half, x + half, y + half);
    STObject::from_wkt_interval(
        &format!("POLYGON(({x0} {y0}, {x1} {y0}, {x1} {y1}, {x0} {y1}, {x0} {y0}))"),
        t0,
        t1,
    )
    .expect("query box")
}

/// The fixed-order mix: `MIX_BLOCKS` blocks of 8 range filters, 1 join,
/// 4 withinDistance filters and 3 kNN, each query centred on a data point
/// so it lands on land. Centres are stratified: across the blocks, each
/// query slot draws once from every `1 / MIX_BLOCKS` quantile of the
/// data's longitudes, so the mix covers the skew the same way whatever
/// the seed.
fn query_mix(rows: &[EventRow], seed: u64) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(mix(seed, 3));
    let mut by_x: Vec<usize> = (0..rows.len()).collect();
    by_x.sort_by(|&a, &b| rows[a].0.centroid().x.total_cmp(&rows[b].0.centroid().x));
    let at = |rng: &mut StdRng, stratum: usize| {
        let stratum = stratum % MIX_BLOCKS;
        let (lo, hi) = (stratum * rows.len() / MIX_BLOCKS, (stratum + 1) * rows.len() / MIX_BLOCKS);
        let c = rows[by_x[rng.gen_range(lo..hi)]].0.centroid();
        (c.x, c.y)
    };
    let mut mix = Vec::new();
    for block in 0..MIX_BLOCKS {
        // (half side in degrees, time window share)
        let ranges = [
            (1.0, 1.0),
            (3.0, 0.5),
            (6.0, 0.25),
            (12.0, 0.1),
            (2.0, 1.0),
            (4.0, 0.5),
            (8.0, 0.2),
            (20.0, 0.05),
        ];
        for (slot, (half, share)) in ranges.into_iter().enumerate() {
            let (x, y) = at(&mut rng, block + slot);
            let span = (1_000_000.0 * share) as i64;
            let t0 = rng.gen_range(0..=(1_000_000 - span));
            mix.push(Query::Range(box_query(x, y, half, t0, t0 + span)));
        }
        let probes = (0..PROBES)
            .map(|i| {
                let (x, y) = at(&mut rng, block + i);
                let (dx, dy) = (rng.gen_range(-0.5..0.5), rng.gen_range(-0.5..0.5));
                let id = 1_000_000_000 + (block * PROBES + i) as u64;
                (STObject::point_at(x + dx, y + dy, 0), (id, "probe".to_string()))
            })
            .collect();
        mix.push(Query::Join(probes));
        for (slot, dist) in [0.5, 1.0, 2.0, 4.0].into_iter().enumerate() {
            let (x, y) = at(&mut rng, block + slot);
            mix.push(Query::Within(STObject::point(x, y), dist));
        }
        for slot in 0..3 {
            let (x, y) = at(&mut rng, block + slot);
            mix.push(Query::Knn(STObject::point(x, y)));
        }
    }
    mix
}

/// Naive-scan answer of one query.
fn reference(rows: &[EventRow], q: &Query) -> Answer {
    let ids = |pred: STPredicate, query: &STObject| {
        let mut ids: Vec<u64> =
            rows.iter().filter(|(o, _)| pred.eval(o, query)).map(|(_, (id, _))| *id).collect();
        ids.sort_unstable();
        Answer::Ids(ids)
    };
    match q {
        Query::Range(query) => ids(STPredicate::ContainedBy, query),
        Query::Within(query, d) => ids(STPredicate::within_distance(*d), query),
        Query::Knn(query) => {
            let mut d: Vec<f64> =
                rows.iter().map(|(o, _)| o.distance(query, DistanceFn::Euclidean)).collect();
            d.sort_by(f64::total_cmp);
            d.truncate(KNN_K);
            Answer::Dists(d)
        }
        Query::Join(probes) => {
            let pred = STPredicate::within_distance(JOIN_DIST);
            let mut pairs = Vec::new();
            for (o, (id, _)) in rows {
                for (p, (pid, _)) in probes {
                    if pred.eval(o, p) {
                        pairs.push((*id, *pid));
                    }
                }
            }
            pairs.sort_unstable();
            Answer::Pairs(pairs)
        }
    }
}

struct World {
    ctx: Context,
    parted: SpatialRdd<(u64, String)>,
    index: IndexedSpatialRdd<(u64, String)>,
}

/// The system set-up: context, dataset registration, summary, BSP
/// build, partition_by (cached), live index. Returns the partition and
/// index build times too.
fn setup(rows: Vec<EventRow>) -> (World, Duration, Duration) {
    let ctx = Context::with_config(EngineConfig {
        parallelism: PARALLELISM,
        default_partitions: PARALLELISM,
        ..EngineConfig::default()
    });
    let base = ctx.parallelize(rows, INPUT_PARTITIONS).spatial();
    let t = Instant::now();
    let summary = base.summarize();
    let bsp = BspPartitioner::build((ROWS / 64).max(8), 1.0, &summary);
    let parted = base.partition_by(Arc::new(bsp));
    let partition = t.elapsed();
    let t = Instant::now();
    let index = parted.live_index(INDEX_ORDER);
    index.count();
    (World { ctx, parted, index }, partition, t.elapsed())
}

struct Done {
    kind: usize,
    latency: Duration,
    results: usize,
    /// Rows in the partitions a filter could not prune.
    scanned: usize,
    engine: MetricsSnapshot,
    ok: bool,
}

fn execute(w: &World, tr: &Tracer, q: &Query, req: u64) -> (Answer, Duration, MetricsSnapshot) {
    let before = w.ctx.metrics();
    let t = Instant::now();
    let answer = tr.span("bench", "query", req, || match q {
        Query::Range(query) | Query::Within(query, _) => {
            let pred = match q {
                Query::Within(_, d) => STPredicate::within_distance(*d),
                _ => STPredicate::ContainedBy,
            };
            let filtered = tr.span("core", "filter", req, || w.parted.filter(query, pred));
            let rows = tr.span("rdd", "collect", req, || filtered.collect());
            let mut ids: Vec<u64> = rows.into_iter().map(|(_, (id, _))| id).collect();
            ids.sort_unstable();
            Answer::Ids(ids)
        }
        Query::Knn(query) => {
            let found =
                tr.span("index", "knn", req, || w.index.knn(query, KNN_K, DistanceFn::Euclidean));
            Answer::Dists(found.into_iter().map(|(d, _)| d).collect())
        }
        Query::Join(probes) => {
            let joined = tr.span("core", "join", req, || {
                let probe = w.ctx.parallelize(probes.clone(), PARALLELISM).spatial();
                w.parted.join(
                    &probe,
                    STPredicate::within_distance(JOIN_DIST),
                    JoinConfig::default(),
                )
            });
            let pairs = tr.span("rdd", "collect", req, || joined.collect());
            let mut pairs: Vec<(u64, u64)> =
                pairs.into_iter().map(|((_, (l, _)), (_, (r, _)))| (l, r)).collect();
            pairs.sort_unstable();
            Answer::Pairs(pairs)
        }
    });
    let latency = t.elapsed();
    (answer, latency, w.ctx.metrics().diff(&before))
}

/// Per query of the mix: rows in the partitions a filter cannot prune
/// (what its kernels must examine); 0 for kNN and joins.
fn unpruned_rows(w: &World, mix: &[Query]) -> Vec<usize> {
    let sizes = w.parted.rdd().run_partitions(|_, data| data.len());
    let info = w.parted.partitioning().expect("BSP-partitioned");
    mix.iter()
        .map(|q| {
            let (query, pred) = match q {
                Query::Range(query) => (query, STPredicate::ContainedBy),
                Query::Within(query, d) => (query, STPredicate::within_distance(*d)),
                _ => return 0,
            };
            info.mask_for(&pred, query)
                .iter()
                .zip(&sizes)
                .filter(|(keep, _)| **keep)
                .map(|(_, n)| n)
                .sum()
        })
        .collect()
}

fn kind_of(q: &Query) -> usize {
    match q {
        Query::Range(_) | Query::Within(..) => 0,
        Query::Knn(_) => 1,
        Query::Join(_) => 2,
    }
}

fn size(a: &Answer) -> usize {
    match a {
        Answer::Ids(v) => v.len(),
        Answer::Dists(v) => v.len(),
        Answer::Pairs(v) => v.len(),
    }
}

/// Runs whole passes over the mix, in order, until `dur` has passed.
fn phase(
    w: &World,
    tr: &Tracer,
    mix: &[Query],
    refs: &[Answer],
    scanned: &[usize],
    dur: Duration,
    req: &mut u64,
) -> Vec<Done> {
    let deadline = Instant::now() + dur;
    let mut done = Vec::new();
    while Instant::now() < deadline || done.is_empty() || done.len() % mix.len() != 0 {
        let i = done.len() % mix.len();
        *req += 1;
        let (answer, latency, engine) = execute(w, tr, &mix[i], *req);
        let ok = answer == refs[i];
        if !ok {
            eprintln!("perfbench: local query {i} diverged from the naive scan");
        }
        done.push(Done {
            kind: kind_of(&mix[i]),
            latency,
            results: size(&answer),
            scanned: scanned[i],
            engine,
            ok,
        });
    }
    done
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    base_meta(&mut report, args);
    let events = EventGenerator::new(mix(args.seed, 1)).world_events(ROWS);
    let rows: Vec<EventRow> = events.iter().map(|e| e.to_pair()).collect();
    drop(events);
    let mix = query_mix(&rows, args.seed);
    let refs: Vec<Answer> = mix.iter().map(|q| reference(&rows, q)).collect();
    report.meta("rows", ROWS);
    report.meta("mix", mix.len());
    report.meta("mix_results", refs.iter().map(size).sum::<usize>());

    let tr = Tracer::new(args.trace);
    let mut setups = Vec::new();
    let mut partition_ms = Vec::new();
    let mut index_ms = Vec::new();
    let mut world = None;
    for _ in 0..SETUPS {
        drop(world.take());
        let data = rows.clone();
        let t = Instant::now();
        let (w, part, index) = setup(data);
        setups.push(t.elapsed().as_secs_f64());
        partition_ms.push(ms(part));
        index_ms.push(ms(index));
        world = Some(w);
    }
    let w = world.expect("world");
    report.meta("partitions", w.parted.num_partitions());
    let scanned = unpruned_rows(&w, &mix);

    // warm-up: one checked pass builds the lazy columnar sidecars
    let mut req = 0;
    let warm = phase(&w, &Tracer::new(false), &mix, &refs, &scanned, Duration::ZERO, &mut req);
    let total = Duration::from_secs_f64(args.seconds);
    // an operation is one pass over the mix; its latency sums the
    // latencies of its queries (checks excluded)
    let lat = |d: &[Done]| {
        d.chunks(mix.len()).map(|b| b.iter().map(|q| ms(q.latency)).sum()).collect::<Vec<f64>>()
    };
    let (done, untraced) = if args.trace {
        let untraced = phase(&w, &Tracer::new(false), &mix, &refs, &scanned, total / 2, &mut req);
        (phase(&w, &tr, &mix, &refs, &scanned, total / 2, &mut req), Some(untraced))
    } else {
        (phase(&w, &tr, &mix, &refs, &scanned, total, &mut req), None)
    };
    let checked = warm.iter().chain(&done).chain(untraced.iter().flatten());
    let (attempted, bad) = checked.fold((0, 0), |(a, b), q| (a + 1, b + u64::from(!q.ok)));
    report.attempted = attempted;
    report.failed = bad;
    report.meta("queries", done.len());
    report.meta("passes", done.len() / mix.len());

    let latencies = lat(&done);
    match untraced {
        None => {
            report.metric("setup_s", median(&setups), "s");
            report.metric("latency_ms_p50", median(&latencies), "ms");
            report.metric("latency_ms_p90", pct(&latencies, 0.9), "ms");
            let busy: f64 = done.iter().map(|q| q.latency.as_secs_f64()).sum();
            report.metric("throughput_per_s", done.len() as f64 / busy, "1/s");
            report.metric("ok_ratio", report.ok_ratio(), "ratio");
            report.metric("peak_rss_mb", peak_rss_mib(), "MiB");
        }
        Some(untraced) => {
            let sample = &rows[..2_000];
            codec_geo_probes(
                &mut report,
                sample,
                STPredicate::within_distance(JOIN_DIST),
                &candidate_pairs(sample, 1.0, 200_000),
            );
            report.metric("core.setup_partition_ms", median(&partition_ms), "ms");
            report.metric("index.build_ms", median(&index_ms), "ms");
            let of_kind = |k: usize| {
                done.iter().filter(|q| q.kind == k).map(|q| ms(q.latency)).collect::<Vec<_>>()
            };
            report.metric("core.filter_ms_p50", median(&of_kind(0)), "ms");
            report.metric("core.knn_ms_p50", median(&of_kind(1)), "ms");
            report.metric("core.join_ms_p50", median(&of_kind(2)), "ms");
            let n = done.len() as f64;
            let sum = |f: &dyn Fn(&MetricsSnapshot) -> u64, k: Option<usize>| {
                done.iter()
                    .filter(|q| k.is_none_or(|k| q.kind == k))
                    .map(|q| f(&q.engine))
                    .sum::<u64>() as f64
            };
            report.metric("rdd.tasks_per_query", sum(&|m| m.tasks_launched, None) / n, "count");
            report.metric(
                "rdd.busy_share",
                sum(&|m| m.task_nanos, None)
                    / (sum(&|m| m.job_nanos, None) * PARALLELISM as f64).max(1.0),
                "ratio",
            );
            report.metric("rdd.records_cloned", sum(&|m| m.records_cloned, None) / n, "count");
            let filters = done.iter().filter(|q| q.kind == 0).count() as f64;
            let scanned: usize = done.iter().map(|q| q.scanned).sum();
            report.metric(
                "core.pruned_ratio",
                sum(&|m| m.partitions_pruned, Some(0))
                    / (filters * w.parted.num_partitions() as f64).max(1.0),
                "ratio",
            );
            let results: usize = done.iter().filter(|q| q.kind == 0).map(|q| q.results).sum();
            report.metric(
                "core.examined_per_result",
                scanned as f64 / results.max(1) as f64,
                "ratio",
            );
            report.metric(
                "core.columnar_share",
                sum(&|m| m.rows_scanned_columnar, Some(0)) / (scanned as f64).max(1.0),
                "ratio",
            );
            report_trace(
                &mut report,
                &tr,
                latencies.len() as u64,
                median(&latencies),
                median(&lat(&untraced)),
            );
            let path = args.out_dir.join(format!("trace-local-query-{}.json", args.seed));
            tr.write_chrome(&path).unwrap_or_else(|e| fail(&format!("write trace: {e}")));
            report.meta("trace_file", path.display());
        }
    }
    report
}
