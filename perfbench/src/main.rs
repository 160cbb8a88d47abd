//! Workload benchmark for the stark-rs workspace.
//!
//! ```text
//! perfbench --workload <dist-shuffle|local-query|serve-piglet|stream-ivm>
//!           --seed N --seconds S --trace 0|1
//!           [--worker-bin PATH] [--rev DIGEST] [--out-dir DIR]
//! ```
//!
//! Normally started through `python3 perfbench/run.py`, which builds the
//! workspace's release `stark-worker` and this binary first. With
//! `--trace 0` the last stdout line is a JSON object carrying every
//! end-to-end metric; with `--trace 1` it carries every per-layer metric
//! and the spans are written as Chrome trace-event JSON under `--out-dir`.

mod common;
mod dist;
mod local;
mod serve;
mod stream;

use common::{fail, Args};
use std::path::PathBuf;

/// End-to-end metrics, measured with tracing off, on every workload.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("throughput_per_s", "1/s"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run. A workload that does not drive a
/// layer reports 0 for that layer's counters and timers.
const PER_LAYER: &[(&str, &str)] = &[
    ("plan.encode_ns_per_row", "ns"),
    ("plan.bytes_per_row", "B"),
    ("plan.decode_ns_per_row", "ns"),
    ("plan.decode_scaling_2x", "ratio"),
    ("transport.frame_ns_per_kib", "ns"),
    ("supervisor.run_shuffle_ms", "ms"),
    ("supervisor.task_rtt_ms_p50", "ms"),
    ("supervisor.tasks_dispatched", "count"),
    ("supervisor.tasks_retried", "count"),
    ("supervisor.tasks_reassigned", "count"),
    ("supervisor.workers_lost", "count"),
    ("supervisor.bytes_tx", "B"),
    ("supervisor.bytes_rx", "B"),
    ("shuffle.bytes_fetched", "B"),
    ("shuffle.fetch_retries", "count"),
    ("shuffle.fetch_failures", "count"),
    ("shuffle.map_outputs_lost", "count"),
    ("shuffle.partition_skew", "ratio"),
    ("worker.compute_ms_max", "ms"),
    ("driver.result_decode_ms", "ms"),
    ("rdd.tasks_per_query", "count"),
    ("rdd.busy_share", "ratio"),
    ("rdd.records_cloned", "count"),
    ("core.setup_partition_ms", "ms"),
    ("core.filter_ms_p50", "ms"),
    ("core.join_ms_p50", "ms"),
    ("core.knn_ms_p50", "ms"),
    ("core.pruned_ratio", "ratio"),
    ("core.examined_per_result", "ratio"),
    ("core.columnar_share", "ratio"),
    ("index.build_ms", "ms"),
    ("stream.rebuilt_ratio", "ratio"),
    ("geo.predicate_ns", "ns"),
    ("geo.wkt_parse_ns", "ns"),
    ("piglet.normalize_us_p50", "us"),
    ("piglet.exec_ms_p50", "ms"),
    ("rdd.tasks_per_request", "count"),
    ("server.overhead_ms_p50", "ms"),
    ("server.overhead_ms_p99", "ms"),
    ("server.cache_hit_ratio", "ratio"),
    ("server.shed", "count"),
    ("server.exec_errors", "count"),
    ("server.deadline_exceeded", "count"),
    ("server.response_kib_p50", "KiB"),
    ("serde.response_decode_us_p50", "us"),
    ("stream.proc_ms_p50", "ms"),
    ("stream.proc_ms_p99", "ms"),
    ("stream.wait_ms_p99", "ms"),
    ("stream.backlog_max", "count"),
    ("stream.join_pairs", "count"),
    ("stream.retractions_emitted", "count"),
    ("stream.windows_fired", "count"),
    ("stream.late_dropped", "count"),
    ("stream.records_shed", "count"),
    ("gen.lag_ms_max", "ms"),
    ("trace.op_ms_p50", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("self_ms.bench", "ms"),
    ("self_ms.plan", "ms"),
    ("self_ms.serde", "ms"),
    ("self_ms.supervisor", "ms"),
    ("self_ms.rdd", "ms"),
    ("self_ms.core", "ms"),
    ("self_ms.index", "ms"),
    ("self_ms.piglet", "ms"),
    ("self_ms.server", "ms"),
    ("self_ms.stream", "ms"),
];

pub const WORKLOADS: &[&str] = &["dist-shuffle", "local-query", "serve-piglet", "stream-ivm"];

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        worker_bin: None,
        rev: "unknown".into(),
        out_dir: PathBuf::from("perfbench/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| fail(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => args.workload = value(),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| fail("bad --seed")),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| fail("bad --seconds")),
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => fail("--trace takes 0 or 1"),
                }
            }
            "--worker-bin" => args.worker_bin = Some(PathBuf::from(value())),
            "--rev" => args.rev = value(),
            "--out-dir" => args.out_dir = PathBuf::from(value()),
            other => fail(&format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        fail(&format!("--workload must be one of {WORKLOADS:?}"));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        fail("--seconds must be positive");
    }
    args
}

fn main() {
    let args = parse_args();
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mut report = match args.workload.as_str() {
        "dist-shuffle" => dist::run(&args),
        "local-query" => local::run(&args),
        "serve-piglet" => serve::run(&args),
        "stream-ivm" => stream::run(&args),
        _ => unreachable!("validated above"),
    };
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    if args.trace {
        // layers this workload does not drive report zero
        for (name, unit) in wanted {
            if !report.metrics.iter().any(|(n, _, _)| n == name) {
                report.metric(name, 0.0, unit);
            }
        }
    }
    report.print(wanted);
}
