//! `stream-ivm`: a `StreamContext` in `PipelineMode::Incremental` fed
//! open loop by the benchmark's own paced source: a drifting hotspot, a
//! share of out-of-order and late events, and retractions of what was
//! inserted a fixed number of batches earlier. The job has tumbling
//! windows with grid aggregation, a standing withinDistance join and
//! indexed continuous queries; a benchmark sink stamps each batch.

use crate::common::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stark::distributed::EventRow;
use stark::{GridPartitioner, STObject, STPredicate, SpatialPartitioner};
use stark_engine::{Context, EngineConfig, MetricsSnapshot};
use stark_geo::{Coord, Envelope};
use stark_stream::{
    BatchId, BatchMetrics, ContinuousQueryEngine, Delta, EventPayload, JoinEmission, JoinSpec,
    LatePolicy, PipelineMode, Sink, Source, StandingQuery, StreamConfig, StreamContext, StreamJob,
    StreamReport, WindowSpec,
};
use std::collections::{HashSet, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const PARALLELISM: usize = 2;
const BATCH_INTERVAL: Duration = Duration::from_millis(50);
const EVENTS_PER_BATCH: usize = 400;
/// A batch retracts what the batch this many batches earlier inserted.
const LIVE_BATCHES: usize = 25;
/// Event-time units per batch.
const SPAN: i64 = 1_000;
const OUT_OF_ORDER: f64 = 0.10;
const WINDOW: i64 = 5_000;
const ALLOWED_LATENESS: i64 = 1_500;
const JOIN_DIST: f64 = 2.0;
const GRID: usize = 8;
const HOTSPOT: f64 = 0.25;
const SETUPS: usize = 5;

fn space() -> Envelope {
    Envelope::from_bounds(0.0, 0.0, 1000.0, 1000.0)
}

/// What the source and the sink leave behind for the checks.
#[derive(Default)]
struct Shared {
    due: Vec<Instant>,
    /// Start and end of each batch's generation.
    generated: Vec<(Instant, Instant)>,
    lag_ms_max: f64,
    /// Records inserted and not yet retracted, oldest batch first.
    live: VecDeque<Vec<EventRow>>,
    standing: HashSet<(u64, u64)>,
    /// Retractions of absent pairs and re-insertions of present ones.
    join_anomalies: u64,
    batches: Vec<(Instant, BatchMetrics)>,
}

/// Batch 0 is the bootstrap: the first `LIVE_BATCHES` slots of events at
/// once, the state a long-running job would hold. Once the sink has seen
/// it, batches 1.. follow on a fixed schedule, each holding the next
/// slot and retracting the oldest live one.
struct PacedSource {
    rng: StdRng,
    /// Paced batches after the bootstrap.
    batches: usize,
    next: usize,
    next_id: u64,
    start: Option<Instant>,
    shared: Arc<Mutex<Shared>>,
}

impl PacedSource {
    /// The sub-box slot `b` draws from: a quarter of each side, drifting
    /// across the space.
    fn hotspot(b: usize) -> Envelope {
        let s = space();
        let (w, h) = (s.width() * HOTSPOT, s.height() * HOTSPOT);
        let phase = |k: f64| (b as f64 * k).fract();
        let (ox, oy) = (
            s.min_x() + (s.width() - w) * phase(0.0137),
            s.min_y() + (s.height() - h) * phase(0.0293),
        );
        Envelope::from_bounds(ox, oy, ox + w, oy + h)
    }

    fn generate(&mut self, b: usize) -> Vec<EventRow> {
        let area = Self::hotspot(b);
        let cats =
            ["earthquake", "concert", "protest", "election", "flood", "festival", "accident"];
        (0..EVENTS_PER_BATCH)
            .map(|_| {
                let x = self.rng.gen_range(area.min_x()..area.max_x());
                let y = self.rng.gen_range(area.min_y()..area.max_y());
                let base = b as i64 * SPAN;
                let t = if self.rng.gen_bool(OUT_OF_ORDER) {
                    // behind the batch: some within the allowed lateness,
                    // some past it
                    base - self.rng.gen_range(0..3 * SPAN)
                } else {
                    base + self.rng.gen_range(0..SPAN)
                };
                let id = self.next_id;
                self.next_id += 1;
                (STObject::point_at(x, y, t), (id, cats[(id % 7) as usize].to_string()))
            })
            .collect()
    }
}

impl Source<EventPayload> for PacedSource {
    fn next_batch(&mut self, max_records: usize) -> Option<Vec<EventRow>> {
        self.next_delta(max_records).map(|d| d.inserts)
    }

    fn next_delta(&mut self, _max_records: usize) -> Option<Delta<EventPayload>> {
        if self.next == 0 {
            self.next = 1;
            let generating = Instant::now();
            let slots: Vec<Vec<EventRow>> = (0..LIVE_BATCHES).map(|s| self.generate(s)).collect();
            let mut shared = self.shared.lock().expect("shared state");
            shared.due.push(generating);
            shared.generated.push((generating, Instant::now()));
            shared.live = slots.iter().cloned().collect();
            return Some(Delta::from_inserts(slots.into_iter().flatten().collect()));
        }
        if self.next > self.batches {
            return None;
        }
        let b = self.next;
        self.next += 1;
        let start = *self.start.get_or_insert_with(|| {
            // pace from the moment the bootstrap state is in place
            while self.shared.lock().expect("shared state").batches.is_empty() {
                std::thread::sleep(Duration::from_millis(1));
            }
            Instant::now()
        });
        let due = start + BATCH_INTERVAL * (b - 1) as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let lag = ms(Instant::now().saturating_duration_since(due));
        let generating = Instant::now();
        let inserts = self.generate(LIVE_BATCHES + b - 1);
        let mut shared = self.shared.lock().expect("shared state");
        shared.due.push(due);
        shared.generated.push((generating, Instant::now()));
        shared.lag_ms_max = shared.lag_ms_max.max(lag);
        let retracts = if shared.live.len() >= LIVE_BATCHES {
            shared.live.pop_front().unwrap_or_default()
        } else {
            Vec::new()
        };
        shared.live.push_back(inserts.clone());
        Some(Delta::new(inserts, retracts))
    }
}

struct StampSink {
    shared: Arc<Mutex<Shared>>,
}

impl Sink<EventPayload> for StampSink {
    fn on_join(&mut self, _batch: BatchId, emission: &JoinEmission<EventPayload>) {
        let mut shared = self.shared.lock().expect("shared state");
        match emission {
            JoinEmission::Delta { inserts, retracts } => {
                for ((_, l), (_, r)) in retracts {
                    if !shared.standing.remove(&(l.0, r.0)) {
                        shared.join_anomalies += 1;
                    }
                }
                for ((_, l), (_, r)) in inserts {
                    if !shared.standing.insert((l.0, r.0)) {
                        shared.join_anomalies += 1;
                    }
                }
            }
            JoinEmission::Full(pairs) => {
                shared.standing = pairs.iter().map(|((_, l), (_, r))| (l.0, r.0)).collect();
            }
        }
    }

    fn on_batch(&mut self, metrics: &BatchMetrics) {
        let now = Instant::now();
        self.shared.lock().expect("shared state").batches.push((now, metrics.clone()));
    }
}

fn context() -> Context {
    Context::with_config(EngineConfig {
        parallelism: PARALLELISM,
        default_partitions: PARALLELISM,
        ..EngineConfig::default()
    })
}

/// The system set-up: stream context and job (join, windows, grid
/// aggregation, indexed continuous queries, sink).
fn setup(shared: &Arc<Mutex<Shared>>) -> (StreamContext, StreamJob<EventPayload>) {
    let sc = StreamContext::with_config(
        context(),
        StreamConfig {
            batch_records: 4 * EVENTS_PER_BATCH,
            channel_capacity: 4,
            parallelism: PARALLELISM,
            ..Default::default()
        },
    );
    let s = space();
    let corners = vec![
        (Envelope::from_point(Coord::new(s.min_x(), s.min_y())), Coord::new(s.min_x(), s.min_y())),
        (Envelope::from_point(Coord::new(s.max_x(), s.max_y())), Coord::new(s.max_x(), s.max_y())),
    ];
    let partitioner: Arc<dyn SpatialPartitioner> = Arc::new(GridPartitioner::build(GRID, &corners));
    let join = JoinSpec::new(
        "near",
        Arc::new(|_: &STObject, v: &EventPayload| v.0.is_multiple_of(2)),
        Arc::new(|_: &STObject, v: &EventPayload| !v.0.is_multiple_of(2)),
        STPredicate::within_distance(JOIN_DIST),
        partitioner.clone(),
        16,
    );
    let center = STObject::point(500.0, 500.0);
    let region = STObject::from_wkt("POLYGON((300 300, 700 300, 700 700, 300 700, 300 300))")
        .expect("region");
    let queries = ContinuousQueryEngine::indexed(partitioner, 16)
        .with_query(StandingQuery::filter("region", region, STPredicate::ContainedBy))
        .with_query(StandingQuery::within_distance("near-center", center.clone(), 50.0))
        .with_query(StandingQuery::knn("nearest", center, 10));
    let job = StreamJob::new()
        .with_mode(PipelineMode::Incremental)
        .with_join(join)
        .with_windows(WindowSpec::tumbling(WINDOW), ALLOWED_LATENESS, LatePolicy::Drop)
        .with_grid_aggregation(GRID, s)
        .with_queries(queries)
        .with_sink(StampSink { shared: shared.clone() });
    (sc, job)
}

struct Run {
    report: StreamReport,
    shared: Shared,
    engine: MetricsSnapshot,
}

/// Sets the job up `SETUPS` times, each up to the sink's stamp of the
/// bootstrap batch, and keeps the last set-up for `dur` of paced batches.
fn run_stream(seed: u64, dur: Duration, setups: &mut Vec<f64>) -> Run {
    for i in 1..=SETUPS {
        let shared = Arc::new(Mutex::new(Shared::default()));
        let t = Instant::now();
        let (sc, job) = setup(&shared);
        let before = sc.engine().metrics();
        let source = PacedSource {
            rng: StdRng::seed_from_u64(mix(seed, 5)),
            batches: if i == SETUPS {
                (dur.as_secs_f64() / BATCH_INTERVAL.as_secs_f64()).ceil() as usize
            } else {
                0
            },
            next: 0,
            next_id: 0,
            start: None,
            shared: shared.clone(),
        };
        let report = sc.run(source, job);
        let engine = sc.engine().metrics().diff(&before);
        drop(sc);
        let shared = std::mem::take(&mut *shared.lock().expect("shared state"));
        let bootstrapped =
            shared.batches.first().map(|(at, _)| *at).unwrap_or_else(|| fail("no bootstrap batch"));
        setups.push((bootstrapped - t).as_secs_f64());
        if i == SETUPS {
            return Run { report, shared, engine };
        }
    }
    unreachable!("SETUPS >= 1")
}

impl Run {
    /// Paced batches: everything after the bootstrap.
    fn paced(&self) -> impl Iterator<Item = &(Instant, BatchMetrics)> {
        self.shared.batches.iter().filter(|(_, m)| m.batch > 0)
    }

    /// Event-to-result time per paced batch: scheduled creation to `on_batch`.
    fn batch_ms(&self) -> Vec<f64> {
        self.paced().map(|(at, m)| ms(*at - self.shared.due[m.batch as usize])).collect()
    }

    /// Processing time per paced batch, as the stream reports it.
    fn proc_ms(&self) -> Vec<f64> {
        self.paced().map(|(_, m)| ms(m.latency)).collect()
    }

    /// Records of paced batches ÷ their summed processing time.
    fn events_per_s(&self) -> f64 {
        let records: u64 = self.paced().map(|(_, m)| m.records).sum();
        records as f64 / self.paced().map(|(_, m)| m.latency.as_secs_f64()).sum::<f64>()
    }

    /// The standing join must equal a brute-force join over the records
    /// the stream accepted and did not retract.
    fn join_matches(&self) -> bool {
        let live: Vec<&EventRow> = self.shared.live.iter().flatten().collect();
        let pred = STPredicate::within_distance(JOIN_DIST);
        let (left, right): (Vec<&EventRow>, Vec<&EventRow>) =
            live.iter().partition(|(_, v)| v.0 % 2 == 0);
        let mut expected = HashSet::new();
        for (lo, lv) in &left {
            for (ro, rv) in &right {
                if pred.eval(lo, ro) {
                    expected.insert((lv.0, rv.0));
                }
            }
        }
        expected == self.shared.standing && self.shared.join_anomalies == 0
    }

    /// Spans of each batch: generation, queue wait and processing, under
    /// one root from the batch's due time to its sink stamp.
    fn record_spans(&self, tr: &Tracer) {
        for (at, m) in self.paced() {
            let b = m.batch as usize;
            let (due, (gen_start, gen_end)) = (self.shared.due[b], self.shared.generated[b]);
            let processing = at.checked_sub(m.latency).unwrap_or(*at).max(gen_end);
            let root = tr.record(0, "bench", "batch", m.batch, due, *at);
            tr.record(root, "bench", "generate", m.batch, gen_start, gen_end);
            tr.record(root, "stream", "queue_wait", m.batch, gen_end, processing);
            tr.record(root, "stream", "process_batch", m.batch, processing, *at);
        }
    }
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    base_meta(&mut report, args);
    report.meta("events_per_batch", EVENTS_PER_BATCH);
    report.meta("batch_interval_ms", ms(BATCH_INTERVAL));
    report.meta("live_batches", LIVE_BATCHES);

    let total = Duration::from_secs_f64(args.seconds);
    // spans are assembled from stamps after the run; the origin comes first
    let tr = Tracer::new(args.trace);
    let mut setups = Vec::new();
    let mut runs = Vec::new();
    if args.trace {
        runs.push(run_stream(args.seed, total / 2, &mut setups));
        runs.push(run_stream(mix(args.seed, 6), total / 2, &mut setups));
    } else {
        runs.push(run_stream(args.seed, total, &mut setups));
    }
    for r in &runs {
        report.attempted += r.shared.batches.len() as u64 + 1;
        report.failed += r.report.batches_failed() + r.report.records_shed;
        if !r.join_matches() {
            eprintln!("perfbench: standing join diverged from the brute-force join");
            report.failed += 1;
        }
    }
    let main = runs.last().expect("a stream run");
    let batch_ms = main.batch_ms();
    let proc_ms = main.proc_ms();
    report.meta("batches", batch_ms.len());
    report.meta("records", main.report.total_records());
    report.meta("setups", setups.len());

    if !args.trace {
        report.metric("setup_s", median(&setups), "s");
        report.metric("latency_ms_p50", median(&batch_ms), "ms");
        report.metric("latency_ms_p90", pct(&batch_ms, 0.9), "ms");
        report.metric("throughput_per_s", main.events_per_s(), "1/s");
        report.metric("ok_ratio", report.ok_ratio(), "ratio");
        report.metric("peak_rss_mb", peak_rss_mib(), "MiB");
        return report;
    }

    main.record_spans(&tr);
    let sample: Vec<EventRow> = main.shared.live.iter().flatten().take(2_000).cloned().collect();
    codec_geo_probes(
        &mut report,
        &sample,
        STPredicate::within_distance(JOIN_DIST),
        &candidate_pairs(&sample, JOIN_DIST, 200_000),
    );
    let q = tail_q(proc_ms.len());
    report.meta("stream_tail_quantile", q);
    report.metric("stream.proc_ms_p50", median(&proc_ms), "ms");
    report.metric("stream.proc_ms_p99", pct(&proc_ms, q), "ms");
    let wait: Vec<f64> = batch_ms.iter().zip(&proc_ms).map(|(b, p)| b - p).collect();
    report.metric("stream.wait_ms_p99", pct(&wait, q), "ms");
    let sum =
        |f: &dyn Fn(&BatchMetrics) -> u64| main.report.batches.iter().map(f).sum::<u64>() as f64;
    report.metric(
        "stream.backlog_max",
        main.report.batches.iter().map(|m| m.queue_depth).max().unwrap_or(0) as f64,
        "count",
    );
    report.metric("stream.join_pairs", main.shared.standing.len() as f64, "count");
    report.metric("stream.retractions_emitted", sum(&|m| m.retractions_emitted), "count");
    report.metric("stream.windows_fired", sum(&|m| m.windows_fired), "count");
    report.metric("stream.late_dropped", sum(&|m| m.late_dropped), "count");
    report.metric("stream.records_shed", main.report.records_shed as f64, "count");
    report.metric(
        "stream.rebuilt_ratio",
        sum(&|m| m.partitions_rebuilt as u64) / sum(&|m| m.partitions_touched as u64).max(1.0),
        "ratio",
    );
    report.metric("gen.lag_ms_max", main.shared.lag_ms_max, "ms");
    let batches = main.report.batches.len().max(1) as f64;
    report.metric("rdd.tasks_per_query", main.engine.tasks_launched as f64 / batches, "count");
    report.metric(
        "rdd.busy_share",
        main.engine.task_nanos as f64
            / (main.engine.job_nanos as f64 * PARALLELISM as f64).max(1.0),
        "ratio",
    );
    report.metric("rdd.records_cloned", main.engine.records_cloned as f64 / batches, "count");
    // both halves replay the same pacing; the first has no spans
    let untraced = runs[0].batch_ms();
    report_trace(&mut report, &tr, batch_ms.len() as u64, median(&batch_ms), median(&untraced));
    let path = args.out_dir.join(format!("trace-stream-ivm-{}.json", args.seed));
    tr.write_chrome(&path).unwrap_or_else(|e| fail(&format!("write trace: {e}")));
    report.meta("trace_file", path.display());
    report
}
