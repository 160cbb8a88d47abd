//! `serve-piglet`: a `QueryServer` over an `(id, category, time, wkt)`
//! event dataset. Two client connections send a seeded Piglet mix, first
//! open loop at a fixed rate below saturation (latency timed from each
//! request's due time), then closed loop on both connections.

use crate::common::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stark::distributed::EventRow;
use stark::STPredicate;
use stark_engine::{Context, EngineConfig, MetricsSnapshot};
use stark_piglet::{normalize_script, Executor, Output, Value};
use stark_server::protocol::{read_frame, write_frame};
use stark_server::{QueryServer, Request, Response, ServerConfig, ServerHandle, ServiceStats};
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const ROWS: usize = 10_000;
const PARALLELISM: usize = 2;
const SETUPS: usize = 31;
const CONNECTIONS: usize = 2;
/// Open-loop arrival rate over both connections, requests per second.
const OPEN_RATE: f64 = 40.0;
/// Share of the run spent in the open-loop phase.
const OPEN_SHARE: f64 = 0.6;
const SCRIPTS: usize = 96;
const TENANT: &str = "default";

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Spatial,
    TopK,
    Group,
}

struct Script {
    kind: Kind,
    text: String,
    expected: Vec<Output>,
}

fn dataset(seed: u64) -> Vec<Vec<Value>> {
    lattice_clusters(mix(seed, 1), ROWS, 10, 25.0)
        .into_iter()
        .map(|(obj, (id, category))| {
            vec![
                Value::Int(id as i64),
                Value::Str(category),
                Value::Int(obj.time().map(|t| t.start()).unwrap_or(0)),
                Value::Str(obj.geo().to_wkt()),
            ]
        })
        .collect()
}

fn schema() -> Arc<Vec<String>> {
    Arc::new(["id", "category", "time", "wkt"].iter().map(|s| s.to_string()).collect())
}

/// The seeded script pool: literal-varying spatio-temporal filters,
/// filter + order + limit, and group counts, in turn.
fn scripts(tuples: &[Vec<Value>], seed: u64) -> Vec<(Kind, String)> {
    let mut rng = StdRng::seed_from_u64(mix(seed, 4));
    let cats = ["earthquake", "concert", "protest", "election", "flood", "festival", "accident"];
    (0..SCRIPTS)
        .map(|i| match i % 3 {
            0 => {
                let row = &tuples[rng.gen_range(0..tuples.len())];
                let obj = stark::STObject::from_wkt(row[3].as_str().expect("wkt")).expect("wkt");
                let c = obj.centroid();
                let half = rng.gen_range(15.0..35.0);
                let (x0, y0, x1, y1) = (c.x - half, c.y - half, c.x + half, c.y + half);
                let t0 = rng.gen_range(0..500_000);
                let text = format!(
                    "e = FOREACH ev GENERATE id, category, time, ST(wkt, time) AS obj;\n\
                     s = SPATIAL_FILTER e BY CONTAINEDBY(obj, ST('POLYGON(({x0} {y0}, {x1} {y0}, \
                     {x1} {y1}, {x0} {y1}, {x0} {y0}))', {t0}, {}));\nDUMP s;",
                    t0 + 500_000
                );
                (Kind::Spatial, text)
            }
            1 => {
                let cat = cats[rng.gen_range(0..cats.len())];
                let t = rng.gen_range(200_000..1_000_000);
                let k = rng.gen_range(20..200);
                let text = format!(
                    "f = FILTER ev BY category == '{cat}' AND time < {t};\n\
                     o = ORDER f BY time DESC;\nl = LIMIT o {k};\nDUMP l;"
                );
                (Kind::TopK, text)
            }
            _ => {
                let t = rng.gen_range(100_000..1_000_000);
                let text =
                    format!("f = FILTER ev BY time < {t};\ng = GROUP f BY category;\nDUMP g;");
                (Kind::Group, text)
            }
        })
        .collect()
}

/// Outputs in comparable form: the server renames aliases when it
/// normalizes a script, and group output has no defined row order, so it
/// compares as a multiset.
fn canonical(kind: Kind, mut outputs: Vec<Output>) -> Vec<Output> {
    for out in &mut outputs {
        if let Output::Dump { alias, lines } = out {
            alias.clear();
            if kind == Kind::Group {
                lines.sort();
            }
        }
    }
    outputs
}

fn start(ctx: Context, tuples: Vec<Vec<Value>>) -> ServerHandle {
    let rdd = ctx.parallelize(tuples, PARALLELISM);
    let config = ServerConfig {
        workers: PARALLELISM,
        max_queue_depth: 64,
        default_deadline_ms: 30_000,
        ..ServerConfig::default()
    };
    QueryServer::start(ctx, vec![("ev".to_string(), schema(), rdd)], config)
        .unwrap_or_else(|e| fail(&format!("start server: {e}")))
}

fn context() -> Context {
    Context::with_config(EngineConfig {
        parallelism: PARALLELISM,
        default_partitions: PARALLELISM,
        ..EngineConfig::default()
    })
}

/// One client connection speaking the STK1 frame protocol directly.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

/// One completed request.
struct Sample {
    kind: Kind,
    /// From due time (open loop) or send time (closed loop) to decoded response.
    latency: Duration,
    /// From send to decoded response.
    service: Duration,
    lag: Duration,
    ok: bool,
    failed: bool,
    micros: u64,
    cache_hit: bool,
    bytes: usize,
    decode: Duration,
    engine: Option<MetricsSnapshot>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Conn {
        let stream = TcpStream::connect(addr).unwrap_or_else(|e| fail(&format!("connect: {e}")));
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Conn { reader, writer: BufWriter::new(stream) }
    }

    fn round_trip(&mut self, body: &[u8]) -> std::io::Result<Vec<u8>> {
        write_frame(&mut self.writer, body)?;
        self.writer.flush()?;
        read_frame(&mut self.reader)?
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "server hung up"))
    }

    fn stats(&mut self) -> ServiceStats {
        let body = serde_json::to_vec(&Request::Stats).expect("encode stats request");
        let frame = self.round_trip(&body).unwrap_or_else(|e| fail(&format!("stats: {e}")));
        match serde_json::from_slice::<Response>(&frame) {
            Ok(Response::Stats(s)) => s,
            other => fail(&format!("stats: unexpected {other:?}")),
        }
    }

    fn query(&mut self, tr: &Tracer, req: u64, script: &Script, due: Instant) -> Sample {
        let sent = Instant::now();
        let lag = sent.saturating_duration_since(due);
        tr.span("bench", "request", req, || {
            let body = tr.span("serde", "request_encode", req, || {
                serde_json::to_vec(&Request::Query {
                    tenant: TENANT.into(),
                    script: script.text.clone(),
                    deadline_ms: None,
                })
                .expect("encode request")
            });
            let (frame, round_trip, received) = tr.span("server", "round_trip", req, || {
                (self.round_trip(&body), tr.current(), Instant::now())
            });
            let mut sample = Sample {
                kind: script.kind,
                latency: Duration::ZERO,
                service: Duration::ZERO,
                lag,
                ok: false,
                failed: true,
                micros: 0,
                cache_hit: false,
                bytes: 0,
                decode: Duration::ZERO,
                engine: None,
            };
            let Ok(frame) = frame else { return sample };
            sample.bytes = frame.len();
            let t = Instant::now();
            let response = tr.span("serde", "response_decode", req, || {
                serde_json::from_slice::<Response>(&frame)
            });
            sample.decode = t.elapsed();
            let done = Instant::now();
            sample.latency = done - due;
            sample.service = done - sent;
            let response = match response {
                Ok(Response::Ok { outputs, cache_hit, engine, micros }) => {
                    (outputs, cache_hit, engine, micros)
                }
                other => {
                    eprintln!("perfbench: request {req} failed: {other:?}");
                    return sample;
                }
            };
            {
                let (outputs, cache_hit, engine, micros) = response;
                // the service time the server reports, placed at the end
                // of the round trip it happened in
                let exec_start =
                    received.checked_sub(Duration::from_micros(micros)).unwrap_or(received);
                tr.record(round_trip, "piglet", "exec", req, exec_start, received);
                sample.failed = false;
                sample.micros = micros;
                sample.cache_hit = cache_hit;
                sample.engine = Some(*engine);
                let outputs = canonical(script.kind, outputs);
                sample.ok = tr.span("bench", "check", req, || outputs == script.expected);
                if !sample.ok {
                    eprintln!("perfbench: request {req} diverged from Executor::run_script");
                }
            }
            sample
        })
    }
}

/// Open loop: request `j = k * CONNECTIONS + c` goes out on connection
/// `c` at `start + j / OPEN_RATE`, regardless of replies, and runs script
/// `j` of the pool (in turn, so every run sends the same mix).
fn open_loop(addr: SocketAddr, scripts: &[Script], tr: &Tracer, dur: Duration) -> Vec<Sample> {
    let start = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                s.spawn(move || {
                    let mut conn = Conn::open(addr);
                    let mut out = Vec::new();
                    for k in 0.. {
                        let j = k * CONNECTIONS + c;
                        let offset = j as f64 / OPEN_RATE;
                        if offset >= dur.as_secs_f64() {
                            break;
                        }
                        let due = start + Duration::from_secs_f64(offset);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        out.push(conn.query(tr, j as u64 + 1, &scripts[j % scripts.len()], due));
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("open-loop client")).collect()
    })
}

/// Closed loop: both connections send back to back until `dur` passes,
/// each walking the pool in turn from its own half.
fn closed_loop(addr: SocketAddr, scripts: &[Script], dur: Duration) -> (Vec<Sample>, Duration) {
    let tr = Tracer::new(false);
    let start = Instant::now();
    let deadline = start + dur;
    let samples = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let tr = &tr;
                s.spawn(move || {
                    let mut conn = Conn::open(addr);
                    let mut out = Vec::new();
                    let mut j = c * scripts.len() / CONNECTIONS;
                    while Instant::now() < deadline {
                        out.push(conn.query(tr, 0, &scripts[j % scripts.len()], Instant::now()));
                        j += 1;
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("closed-loop client")).collect()
    });
    (samples, start.elapsed())
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    base_meta(&mut report, args);
    let tuples = dataset(args.seed);

    // expected outputs: the same scripts through a plain Executor
    let reference_ctx = context();
    let mut reference = Executor::new(reference_ctx.clone());
    reference.register_shared(
        "ev",
        schema(),
        reference_ctx.parallelize(tuples.clone(), PARALLELISM),
    );
    let scripts: Vec<Script> = scripts(&tuples, args.seed)
        .into_iter()
        .map(|(kind, text)| {
            let outputs =
                reference.run_script(&text).unwrap_or_else(|e| fail(&format!("reference: {e}")));
            Script { kind, text, expected: canonical(kind, outputs) }
        })
        .collect();
    drop(reference);
    let rows_out: Vec<usize> = scripts
        .iter()
        .map(|s| {
            s.expected
                .iter()
                .map(|o| if let Output::Dump { lines, .. } = o { lines.len() } else { 0 })
                .sum()
        })
        .collect();
    report.meta("rows", ROWS);
    report.meta("scripts", SCRIPTS);
    report.meta("result_rows_p50", median(&rows_out.iter().map(|&n| n as f64).collect::<Vec<_>>()));
    report.meta("open_rate_per_s", OPEN_RATE);
    report.meta("connections", CONNECTIONS);

    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..SETUPS {
        drop(server.take());
        let (ctx, data) = (context(), tuples.clone());
        let t = Instant::now();
        server = Some(start(ctx, data));
        setups.push(t.elapsed().as_secs_f64());
    }
    let server = server.expect("server");
    let addr = server.addr();

    let total = Duration::from_secs_f64(args.seconds);
    let open_dur = total.mul_f64(OPEN_SHARE);
    let mut admin = Conn::open(addr);
    let before = admin.stats();
    // warm-up: one request per script fills the plan cache
    let warm: Vec<Sample> =
        scripts.iter().map(|s| admin.query(&Tracer::new(false), 0, s, Instant::now())).collect();
    drop(admin);

    let tr = Tracer::new(args.trace);
    let (open, closed, untraced) = if args.trace {
        let untraced = open_loop(addr, &scripts, &Tracer::new(false), total / 2);
        (open_loop(addr, &scripts, &tr, total / 2), None, Some(untraced))
    } else {
        let open = open_loop(addr, &scripts, &tr, open_dur);
        (open, Some(closed_loop(addr, &scripts, total - open_dur)), None)
    };
    let mut admin = Conn::open(addr);
    let after = admin.stats();
    drop(admin);

    let all = warm
        .iter()
        .chain(&open)
        .chain(closed.iter().flat_map(|(c, _)| c))
        .chain(untraced.iter().flatten());
    for s in all {
        report.attempted += 1;
        report.failed += u64::from(!s.ok);
    }
    report.meta("open_requests", open.len());
    let latencies: Vec<f64> = open.iter().filter(|s| !s.failed).map(|s| ms(s.latency)).collect();
    let lag = open.iter().map(|s| ms(s.lag)).fold(0.0, f64::max);
    report.meta("gen_lag_ms_max", lag);
    for (kind, name) in [(Kind::Spatial, "spatial"), (Kind::TopK, "topk"), (Kind::Group, "group")] {
        let of_kind: Vec<f64> =
            open.iter().filter(|s| !s.failed && s.kind == kind).map(|s| ms(s.latency)).collect();
        report.meta(&format!("latency_ms_p50_{name}"), median(&of_kind));
    }

    match closed {
        Some((closed, elapsed)) => {
            report.meta("closed_requests", closed.len());
            report.metric("setup_s", median(&setups), "s");
            report.metric("latency_ms_p50", median(&latencies), "ms");
            report.metric("latency_ms_p90", pct(&latencies, 0.9), "ms");
            let completed = closed.iter().filter(|s| !s.failed).count();
            report.metric("throughput_per_s", completed as f64 / elapsed.as_secs_f64(), "1/s");
            report.metric("ok_ratio", report.ok_ratio(), "ratio");
            report.metric("peak_rss_mb", peak_rss_mib(), "MiB");
        }
        None => {
            let untraced = untraced.expect("untraced phase");
            let sample_rows: Vec<EventRow> = tuples
                .iter()
                .take(2_000)
                .map(|t| {
                    let obj = stark::STObject::from_wkt_instant(
                        t[3].as_str().unwrap_or(""),
                        t[2].as_i64().unwrap_or(0),
                    )
                    .expect("dataset wkt");
                    (obj, (t[0].as_i64().unwrap_or(0) as u64, t[1].to_string()))
                })
                .collect();
            codec_geo_probes(
                &mut report,
                &sample_rows,
                STPredicate::ContainedBy,
                &candidate_pairs(&sample_rows, 30.0, 200_000),
            );
            let ok: Vec<&Sample> = open.iter().filter(|s| !s.failed).collect();
            let overhead: Vec<f64> =
                ok.iter().map(|s| ms(s.service) - s.micros as f64 / 1e3).collect();
            let q = tail_q(overhead.len());
            report.metric("server.overhead_ms_p50", median(&overhead), "ms");
            report.metric("server.overhead_ms_p99", pct(&overhead, q), "ms");
            report.meta("server_overhead_tail_quantile", q);
            report.metric(
                "server.cache_hit_ratio",
                ok.iter().filter(|s| s.cache_hit).count() as f64 / ok.len().max(1) as f64,
                "ratio",
            );
            let delta = |f: fn(&ServiceStats) -> u64| (f(&after) - f(&before)) as f64;
            report.metric("server.shed", delta(|s| s.shed_overload), "count");
            report.metric("server.exec_errors", delta(|s| s.exec_errors), "count");
            report.metric("server.deadline_exceeded", delta(|s| s.deadline_exceeded), "count");
            let kib: Vec<f64> = ok.iter().map(|s| s.bytes as f64 / 1024.0).collect();
            report.metric("server.response_kib_p50", median(&kib), "KiB");
            let dec: Vec<f64> = ok.iter().map(|s| s.decode.as_nanos() as f64 / 1e3).collect();
            report.metric("serde.response_decode_us_p50", median(&dec), "us");
            let normalize: Vec<f64> = scripts
                .iter()
                .map(|s| {
                    time_median(5, || {
                        normalize_script(&s.text).map(|n| n.params.len()).unwrap_or(0)
                    })
                    .0 / 1e3
                })
                .collect();
            report.metric("piglet.normalize_us_p50", median(&normalize), "us");
            let exec: Vec<f64> = ok.iter().map(|s| s.micros as f64 / 1e3).collect();
            report.metric("piglet.exec_ms_p50", median(&exec), "ms");
            let engines: Vec<&MetricsSnapshot> =
                ok.iter().filter_map(|s| s.engine.as_ref()).collect();
            let n = engines.len().max(1) as f64;
            let tasks: u64 = engines.iter().map(|e| e.tasks_launched).sum();
            report.metric("rdd.tasks_per_request", tasks as f64 / n, "count");
            let task_ns: u64 = engines.iter().map(|e| e.task_nanos).sum();
            let job_ns: u64 = engines.iter().map(|e| e.job_nanos).sum();
            report.metric(
                "rdd.busy_share",
                task_ns as f64 / (job_ns as f64 * PARALLELISM as f64).max(1.0),
                "ratio",
            );
            let cloned: u64 = engines.iter().map(|e| e.records_cloned).sum();
            report.metric("rdd.records_cloned", cloned as f64 / n, "count");
            report.metric("gen.lag_ms_max", lag, "ms");
            let untraced_lat: Vec<f64> =
                untraced.iter().filter(|s| !s.failed).map(|s| ms(s.latency)).collect();
            report_trace(
                &mut report,
                &tr,
                open.len() as u64,
                median(&latencies),
                median(&untraced_lat),
            );
            let path = args.out_dir.join(format!("trace-serve-piglet-{}.json", args.seed));
            tr.write_chrome(&path).unwrap_or_else(|e| fail(&format!("write trace: {e}")));
            report.meta("trace_file", path.display());
        }
    }
    drop(server);
    report
}
