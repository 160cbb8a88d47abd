//! `dist-shuffle`: A1 filter and F4 self-join jobs through a long-lived
//! pool of two forked `stark-worker`s, via `WorkerPool::run_shuffle`
//! in `ShuffleMode::Remote` with grid routing. One job is in flight at a
//! time (closed loop); an operation is one A1 job followed by one F4 job.

use crate::common::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stark::distributed::{self_join_pairs, to_arg, EventRow, SelfJoinArg, StFilterArg};
use stark::{DataSummary, GridPartitioner, STObject, STPredicate, SpatialPartitioner};
use stark_engine::plan::{decode_rows, encode_rows};
use stark_engine::{
    DistTask, PlanFragment, PlanInput, PlanOp, PlanSink, PoolStats, ShuffleMode, ShuffleSpec,
    TaskOutput, WorkerPool, WorkerPoolConfig,
};
use std::time::{Duration, Instant};

const WORKERS: usize = 2;
const MAP_TASKS: usize = 4;
const ROWS_PER_TASK: usize = 1_000;
const GRID_DIMS: usize = 4;
const JOIN_DIST: f64 = 5.0;
const SETUPS: usize = 9;
const MIN_OPS: usize = 3;

struct Input {
    rows: Vec<EventRow>,
    grid: GridPartitioner,
    query: STObject,
    a1_ref: Vec<u64>,
    f4_ref: Vec<(u64, u64)>,
}

fn input(seed: u64) -> Input {
    let rows = lattice_clusters(mix(seed, 1), MAP_TASKS * ROWS_PER_TASK, 10, 8.0);
    let summary: DataSummary = rows.iter().map(|(o, _)| (o.envelope(), o.centroid())).collect();
    let grid = GridPartitioner::build(GRID_DIMS, &summary);

    // A1's query box: the central quarter of the space, jittered by the seed.
    let mut rng = StdRng::seed_from_u64(mix(seed, 2));
    let (x0, y0) = (rng.gen_range(225.0..275.0), rng.gen_range(225.0..275.0));
    let (x1, y1) = (x0 + 500.0, y0 + 500.0);
    let query = STObject::from_wkt_interval(
        &format!("POLYGON(({x0} {y0}, {x1} {y0}, {x1} {y1}, {x0} {y1}, {x0} {y0}))"),
        0,
        1_000_000,
    )
    .expect("query polygon");

    let mut a1_ref: Vec<u64> = rows
        .iter()
        .filter(|(o, _)| STPredicate::ContainedBy.eval(o, &query))
        .map(|(_, (id, _))| *id)
        .collect();
    a1_ref.sort_unstable();
    let mut f4_ref: Vec<(u64, u64)> = partition_rows(&rows, &grid)
        .iter()
        .flat_map(|p| self_join_pairs(p, STPredicate::within_distance(JOIN_DIST)))
        .collect();
    f4_ref.sort_unstable();
    Input { rows, grid, query, a1_ref, f4_ref }
}

fn partition_rows(rows: &[EventRow], grid: &GridPartitioner) -> Vec<Vec<EventRow>> {
    let mut parts = vec![Vec::new(); grid.num_partitions()];
    for row in rows {
        parts[grid.partition_of(&row.0)].push(row.clone());
    }
    parts
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    A1,
    F4,
}

/// One job's measurements.
struct Job {
    wall: Duration,
    encode: Duration,
    shuffle: Duration,
    decode: Duration,
    ok: bool,
    /// Pool counters before and after the job.
    stats: (PoolStats, PoolStats),
}

fn map_fragment() -> PlanFragment {
    // run_shuffle replaces the sink with the shuffle write
    PlanFragment {
        schema: "event".into(),
        input: PlanInput::Inline,
        ops: Vec::new(),
        sink: PlanSink::Collect,
    }
}

fn run_job(pool: &mut WorkerPool, tr: &Tracer, input: &Input, kind: Kind, req: u64) -> Job {
    let before = pool.stats();
    let start = Instant::now();
    let (reduce_ops, reduce_sink) = match kind {
        Kind::A1 => (
            vec![PlanOp::Filter {
                op: "st_filter".into(),
                arg: to_arg(&StFilterArg {
                    query: input.query.clone(),
                    predicate: STPredicate::ContainedBy,
                }),
            }],
            PlanSink::Collect,
        ),
        Kind::F4 => (
            Vec::new(),
            PlanSink::CollectWith {
                op: "self_join_pairs".into(),
                arg: to_arg(&SelfJoinArg { predicate: STPredicate::within_distance(JOIN_DIST) }),
            },
        ),
    };
    let spec = ShuffleSpec {
        mode: ShuffleMode::Remote,
        partitioner: "grid".into(),
        partitioner_arg: to_arg(&input.grid),
        num_partitions: input.grid.num_partitions(),
        prefix: format!("perfbench/job-{req}"),
        reduce_ops,
        reduce_sink,
    };
    tr.span("bench", "job", req, || {
        let t = Instant::now();
        let tasks: Vec<DistTask> = tr.span("plan", "encode_rows", req, || {
            input
                .rows
                .chunks(ROWS_PER_TASK)
                .map(|rows| {
                    DistTask::with_rows(map_fragment(), encode_rows(rows).expect("encode map rows"))
                })
                .collect()
        });
        let encode = t.elapsed();
        let t = Instant::now();
        let results = tr.span("supervisor", "run_shuffle", req, || pool.run_shuffle(&tasks, &spec));
        let shuffle = t.elapsed();
        let t = Instant::now();
        let outcome = results.map_err(|e| e.to_string()).and_then(|results| {
            tr.span("serde", "result_decode", req, || match kind {
                Kind::A1 => {
                    let mut ids = Vec::new();
                    for r in &results {
                        let payload = r.payload.as_deref().ok_or("collect without payload")?;
                        let rows: Vec<EventRow> =
                            decode_rows(payload).map_err(|e| e.to_string())?;
                        ids.extend(rows.into_iter().map(|(_, (id, _))| id));
                    }
                    Ok((ids, Vec::new()))
                }
                Kind::F4 => {
                    let mut pairs = Vec::new();
                    for r in &results {
                        let TaskOutput::Json(v) = &r.output else {
                            return Err(format!("expected JSON pairs, got {:?}", r.output));
                        };
                        let part: Vec<(u64, u64)> =
                            serde::Deserialize::from_value(v).map_err(|e| e.to_string())?;
                        pairs.extend(part);
                    }
                    Ok((Vec::new(), pairs))
                }
            })
        });
        let decode = t.elapsed();
        let wall = start.elapsed();
        let ok = tr.span("bench", "check", req, || match outcome {
            Ok((mut ids, mut pairs)) => {
                ids.sort_unstable();
                pairs.sort_unstable();
                match kind {
                    Kind::A1 => ids == input.a1_ref,
                    Kind::F4 => pairs == input.f4_ref,
                }
            }
            Err(e) => {
                eprintln!("perfbench: dist job {req} failed: {e}");
                false
            }
        });
        Job { wall, encode, shuffle, decode, ok, stats: (before, pool.stats()) }
    })
}

/// Runs operations (A1 then F4) until `dur` has passed.
fn phase(
    pool: &mut WorkerPool,
    tr: &Tracer,
    input: &Input,
    dur: Duration,
    req: &mut u64,
) -> (Vec<f64>, Vec<Job>) {
    let deadline = Instant::now() + dur;
    let mut ops = Vec::new();
    let mut jobs = Vec::new();
    while Instant::now() < deadline || ops.len() < MIN_OPS {
        let mut op = 0.0;
        for kind in [Kind::A1, Kind::F4] {
            *req += 1;
            let job = run_job(pool, tr, input, kind, *req);
            op += ms(job.wall);
            jobs.push(job);
        }
        ops.push(op);
    }
    (ops, jobs)
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    base_meta(&mut report, args);
    let bin = match args.worker_bin.as_deref().map(check_worker_bin) {
        Some(Ok(bin)) => bin,
        Some(Err(e)) => fail(&format!("refusing to run dist-shuffle: {e}")),
        None => fail("dist-shuffle needs --worker-bin <release stark-worker>"),
    };
    report.meta("worker_bin", bin.display());

    let input = input(args.seed);
    let rows = input.rows.len();
    report.meta("rows", rows);
    report.meta("map_tasks", MAP_TASKS);
    report.meta("workers", WORKERS);
    report.meta("a1_results", input.a1_ref.len());
    report.meta("f4_pairs", input.f4_ref.len());

    // set-up: fork and handshake the pool, several times
    let mut cfg = WorkerPoolConfig::new(&bin);
    cfg.workers = WORKERS;
    let mut setups = Vec::new();
    let mut pool: Option<WorkerPool> = None;
    for _ in 0..SETUPS {
        if let Some(old) = pool.take() {
            old.shutdown();
        }
        let t = Instant::now();
        let p =
            WorkerPool::spawn(cfg.clone()).unwrap_or_else(|e| fail(&format!("spawn pool: {e}")));
        setups.push(t.elapsed().as_secs_f64());
        pool = Some(p);
    }
    let mut pool = pool.expect("pool");
    let mut req = 0u64;

    let total = Duration::from_secs_f64(args.seconds);
    let mut checked = Vec::new();
    let (ops, jobs, traced) = if args.trace {
        let (untraced, first) = phase(&mut pool, &Tracer::new(false), &input, total / 2, &mut req);
        checked.extend(first.iter().map(|j| j.ok));
        let tr = Tracer::new(true);
        let (ops, jobs) = phase(&mut pool, &tr, &input, total / 2, &mut req);
        let ratio = (median(&ops), median(&untraced));
        (ops, jobs, Some((tr, ratio)))
    } else {
        let (ops, jobs) = phase(&mut pool, &Tracer::new(false), &input, total, &mut req);
        (ops, jobs, None)
    };
    checked.extend(jobs.iter().map(|j| j.ok));

    report.attempted = checked.len() as u64;
    report.failed = checked.iter().filter(|ok| !**ok).count() as u64;
    report.meta("ops", ops.len());
    report.meta("jobs", jobs.len());
    let job_secs: f64 = jobs.iter().map(|j| j.wall.as_secs_f64()).sum();

    match traced {
        None => {
            report.metric("setup_s", median(&setups), "s");
            report.metric("latency_ms_p50", median(&ops), "ms");
            report.metric("latency_ms_p90", pct(&ops, 0.9), "ms");
            report.metric("throughput_per_s", (rows * jobs.len()) as f64 / job_secs, "1/s");
            report.metric("ok_ratio", report.ok_ratio(), "ratio");
            report.metric("peak_rss_mb", peak_rss_mib() + children_peak_rss_mib(), "MiB");
        }
        Some((tr, (traced_p50, untraced_p50))) => {
            layer_metrics(&mut report, &mut pool, &input, &jobs);
            report_trace(&mut report, &tr, ops.len() as u64, traced_p50, untraced_p50);
            let path = args.out_dir.join(format!("trace-dist-shuffle-{}.json", args.seed));
            tr.write_chrome(&path).unwrap_or_else(|e| fail(&format!("write trace: {e}")));
            report.meta("trace_file", path.display());
        }
    }
    pool.shutdown();
    report
}

fn layer_metrics(report: &mut Report, pool: &mut WorkerPool, input: &Input, jobs: &[Job]) {
    let pred = STPredicate::within_distance(JOIN_DIST);
    let first = &input.rows[..ROWS_PER_TASK];
    codec_geo_probes(report, first, pred, &candidate_pairs(first, JOIN_DIST, 200_000));

    // timed path
    let per_job = |f: &dyn Fn(&Job) -> f64| jobs.iter().map(f).collect::<Vec<f64>>();
    let rows = input.rows.len() as f64;
    report.metric(
        "plan.encode_ns_per_row",
        median(&per_job(&|j| j.encode.as_nanos() as f64)) / rows,
        "ns",
    );
    report.metric("supervisor.run_shuffle_ms", median(&per_job(&|j| ms(j.shuffle))), "ms");
    report.metric("driver.result_decode_ms", median(&per_job(&|j| ms(j.decode))), "ms");
    let n = jobs.len().max(1) as f64;
    let sum = |f: &dyn Fn(&PoolStats) -> u64| {
        jobs.iter().map(|j| f(&j.stats.1) - f(&j.stats.0)).sum::<u64>() as f64
    };
    report.metric("supervisor.tasks_dispatched", sum(&|s| s.tasks_dispatched) / n, "count");
    report.metric("supervisor.tasks_retried", sum(&|s| s.tasks_retried), "count");
    report.metric("supervisor.tasks_reassigned", sum(&|s| s.tasks_reassigned), "count");
    report.metric("supervisor.workers_lost", sum(&|s| s.workers_lost), "count");
    report.metric("supervisor.bytes_tx", sum(&|s| s.bytes_tx) / n, "B");
    report.metric("supervisor.bytes_rx", sum(&|s| s.bytes_rx) / n, "B");
    report.metric("shuffle.bytes_fetched", sum(&|s| s.shuffle_bytes_fetched_remote) / n, "B");
    report.metric("shuffle.fetch_retries", sum(&|s| s.fetch_retries), "count");
    report.metric("shuffle.fetch_failures", sum(&|s| s.fetch_failures), "count");
    report.metric("shuffle.map_outputs_lost", sum(&|s| s.map_outputs_lost), "count");

    // replay: decode of the map payloads and of the buckets workers write
    let mut decode_ns = 0.0;
    let mut decoded = 0usize;
    let mut payload_ns = Vec::new();
    for chunk in input.rows.chunks(ROWS_PER_TASK) {
        let payload = encode_rows(chunk).expect("encode");
        let (ns, _) = time_median(3, || decode_rows::<EventRow>(&payload).expect("decode").len());
        payload_ns.push(ns);
        decode_ns += ns;
        decoded += chunk.len();
        for bucket in partition_rows(chunk, &input.grid).iter().filter(|b| !b.is_empty()) {
            let bytes = encode_rows(bucket).expect("encode");
            let (ns, _) = time_median(3, || decode_rows::<EventRow>(&bytes).expect("decode").len());
            decode_ns += ns;
            decoded += bucket.len();
        }
    }
    report.metric("plan.decode_ns_per_row", decode_ns / decoded as f64, "ns");
    let double = encode_rows(&input.rows[..2 * ROWS_PER_TASK]).expect("encode");
    let (double_ns, _) = time_median(3, || decode_rows::<EventRow>(&double).expect("decode").len());
    report.metric("plan.decode_scaling_2x", double_ns / median(&payload_ns), "ratio");

    // replay: grid skew and per-partition compute
    let parts = partition_rows(&input.rows, &input.grid);
    let counts: Vec<f64> = parts.iter().map(|p| p.len() as f64).collect();
    let mean = counts.iter().sum::<f64>() / counts.len().max(1) as f64;
    report.metric("shuffle.partition_skew", pct(&counts, 1.0) / mean.max(1e-9), "ratio");
    let compute = parts
        .iter()
        .map(|p| {
            let (ns, _) = time_median(3, || {
                let hits = p
                    .iter()
                    .filter(|(o, _)| STPredicate::ContainedBy.eval(o, &input.query))
                    .count();
                hits + self_join_pairs(p, pred).len()
            });
            ns / 1e6
        })
        .fold(0.0, f64::max);
    report.metric("worker.compute_ms_max", compute, "ms");

    // empty-task round trip on the live pool
    let empty = DistTask::with_rows(
        PlanFragment {
            schema: "event".into(),
            input: PlanInput::Inline,
            ops: Vec::new(),
            sink: PlanSink::Count,
        },
        encode_rows::<EventRow>(&[]).expect("encode"),
    );
    let rtts: Vec<f64> = (0..40)
        .map(|_| {
            let t = Instant::now();
            pool.execute(std::slice::from_ref(&empty))
                .unwrap_or_else(|e| fail(&format!("rtt: {e}")));
            ms(t.elapsed())
        })
        .collect();
    report.metric("supervisor.task_rtt_ms_p50", median(&rtts), "ms");
}
