//! Regenerates every table and figure of the paper's evaluation.
//!
//! Usage:
//!   repro all `[n]`          # every experiment (default scale)
//!   repro figure4 `[n]`      # the Figure 4 self-join comparison
//!   repro fusion `[n]`       # S7 fused-vs-unfused narrow chains (writes target/s7-fusion.json;
//!                            # exits 1 unless fused <= 1.25x unfused, min of 3 interleaved runs)
//!   repro chaos `[n]`        # S8 fault-tolerance ablation (writes target/s8-chaos.json;
//!                            # seed via STARK_CHAOS_SEED)
//!   repro stragglers `[n]`   # S9 straggler ablation (writes target/s9-stragglers.json;
//!                            # seed via STARK_CHAOS_SEED; exits 1 unless speculation beats
//!                            # the undefended stall, min of 3 interleaved runs)
//!   repro memory `[n]`       # S10 memory-governance ablation (writes target/s10-memory.json;
//!                            # seed via STARK_CHAOS_SEED)
//!   repro service `[n]`      # S11 query-service load + fairness (writes target/s11-service.json;
//!                            # seed via STARK_CHAOS_SEED, session cap via S11_MAX_SESSIONS)
//!   repro columnar `[n]`     # S12 columnar-vs-row filter ablation (writes target/s12-columnar.json)
//!   repro ivm `[n]`          # S13 incremental-view-maintenance ablation: standing join at
//!                            # 10x the S6 rate, recompute vs delta (writes target/s13-ivm.json)
//!   repro distributed `[n]`  # S14 supervised multi-process ablation: A1/F4/A2 on forked
//!                            # workers over TCP, with a mid-shuffle worker kill
//!                            # (writes target/s14-distributed.json)
//!   repro shuffle `[n]`      # S15 remote-shuffle ablation: peer-served vs shared-store
//!                            # buckets, plus kill-mid-shuffle lineage recovery
//!                            # (writes target/s15-shuffle.json)
//!   repro features | filter | join | knn | dbscan | pruning | balance | indexmodes | stream
//!
//! `n` overrides the workload size. Figure 4's paper-scale run is
//! `repro figure4 1000000` (takes a while on a small machine).

use stark_bench::experiments;
use stark_bench::Table;
use stark_engine::Context;

/// Interleaved runs behind each wall-clock gate.
const GATE_RUNS: usize = 3;

/// Wall-clock gate over interleaved runs of a two-arm ablation: every run
/// times both arms back to back, each arm keeps its fastest time (the
/// `col` cell of rows `arms`), and the process exits 1 unless
/// `holds(base, arm)`. Min-of-k discounts the load spikes a single pair
/// of runs cannot.
fn timing_gate(
    tag: &str,
    runs: &[Table],
    arms: (usize, usize),
    col: usize,
    what: &str,
    holds: impl Fn(f64, f64) -> bool,
) {
    let best = |row: usize| {
        runs.iter()
            .map(|t| t.rows[row][col].parse::<f64>().expect("time cell"))
            .fold(f64::INFINITY, f64::min)
    };
    let (base, arm) = (best(arms.0), best(arms.1));
    let held = holds(base, arm);
    let verdict = if held { "ok" } else { "FAILED" };
    eprintln!("[{tag}] gate {what}: min-of-{} {base:.3}s vs {arm:.3}s: {verdict}", runs.len());
    if !held {
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let which = args.get(1).map(String::as_str).unwrap_or("all");
    let n: Option<usize> = args.get(2).and_then(|s| s.parse().ok());
    let ctx = Context::new();

    let run = |name: &str| which == "all" || which == name;
    let mut ran = false;

    if run("features") {
        ran = true;
        print!("{}", experiments::features().render());
        println!();
    }
    if run("figure4") {
        ran = true;
        print!("{}", experiments::figure4(&ctx, n.unwrap_or(100_000)).render());
        println!();
    }
    if run("filter") {
        ran = true;
        print!("{}", experiments::filter(&ctx, n.unwrap_or(200_000)).render());
        println!();
    }
    if run("join") {
        ran = true;
        print!("{}", experiments::join(&ctx, n.unwrap_or(20_000)).render());
        println!();
    }
    if run("knn") {
        ran = true;
        print!("{}", experiments::knn(&ctx, n.unwrap_or(200_000)).render());
        println!();
    }
    if run("dbscan") {
        ran = true;
        let base = n.unwrap_or(30_000);
        print!("{}", experiments::dbscan_scaling(&ctx, &[base / 4, base / 2, base]).render());
        println!();
    }
    if run("pruning") {
        ran = true;
        print!("{}", experiments::pruning(&ctx, n.unwrap_or(200_000)).render());
        println!();
    }
    if run("balance") {
        ran = true;
        print!("{}", experiments::balance(&ctx, n.unwrap_or(100_000)).render());
        println!();
    }
    if run("scaling") {
        ran = true;
        let base = n.unwrap_or(200_000);
        print!("{}", experiments::scaling(&ctx, &[base / 4, base / 2, base]).render());
        println!();
    }
    if run("temporal") {
        ran = true;
        print!("{}", experiments::temporal(&ctx, n.unwrap_or(200_000)).render());
        println!();
    }
    if run("indexmodes") {
        ran = true;
        print!("{}", experiments::index_modes(&ctx, n.unwrap_or(100_000), 10).render());
        println!();
    }
    if run("stream") {
        ran = true;
        let base = n.unwrap_or(4_000);
        print!("{}", experiments::stream(&ctx, &[base / 4, base / 2, base], 8).render());
        println!();
    }
    if run("fusion") {
        ran = true;
        let runs: Vec<Table> = (0..GATE_RUNS)
            .map(|_| experiments::fusion(ctx.parallelism(), n.unwrap_or(200_000), 5))
            .collect();
        let t = &runs[0];
        print!("{}", t.render());
        println!();
        // machine-readable copy for CI artifacts
        let json = serde_json::to_string_pretty(t).expect("serialise S7 table");
        let path = std::env::var("S7_JSON").unwrap_or_else(|_| "target/s7-fusion.json".into());
        if let Some(dir) = std::path::Path::new(&path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        std::fs::write(&path, json).expect("write S7 json");
        eprintln!("[s7] wrote {path}");
        // rows: 0 = fusion off, 1 = on; column 2 = time [s]
        timing_gate("s7", &runs, (0, 1), 2, "fused <= 1.25x unfused", |off, on| on <= off * 1.25);
    }
    if run("columnar") {
        ran = true;
        let t = experiments::columnar(ctx.parallelism(), n.unwrap_or(200_000), 5);
        print!("{}", t.render());
        println!();
        // machine-readable copy for CI artifacts
        let json = serde_json::to_string_pretty(&t).expect("serialise S12 table");
        let path = std::env::var("S12_JSON").unwrap_or_else(|_| "target/s12-columnar.json".into());
        if let Some(dir) = std::path::Path::new(&path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        std::fs::write(&path, json).expect("write S12 json");
        eprintln!("[s12] wrote {path}");
    }
    if run("ivm") {
        ran = true;
        // S6 streams 1 000 events per generator batch; S13 holds the
        // standing join at ten times that rate
        let t = experiments::ivm(&ctx, 8, n.unwrap_or(10_000));
        print!("{}", t.render());
        println!();
        // machine-readable copy for CI artifacts
        let json = serde_json::to_string_pretty(&t).expect("serialise S13 table");
        let path = std::env::var("S13_JSON").unwrap_or_else(|_| "target/s13-ivm.json".into());
        if let Some(dir) = std::path::Path::new(&path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        std::fs::write(&path, json).expect("write S13 json");
        eprintln!("[s13] wrote {path}");
    }
    if run("distributed") {
        ran = true;
        let workers: usize = std::env::var("S14_WORKERS")
            .ok()
            .map(|s| s.trim().parse().expect("S14_WORKERS must be a usize"))
            .unwrap_or(4);
        let t = experiments::distributed(n.unwrap_or(20_000), workers);
        print!("{}", t.render());
        println!();
        // machine-readable copy for CI artifacts
        let json = serde_json::to_string_pretty(&t).expect("serialise S14 table");
        let path =
            std::env::var("S14_JSON").unwrap_or_else(|_| "target/s14-distributed.json".into());
        if let Some(dir) = std::path::Path::new(&path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        std::fs::write(&path, json).expect("write S14 json");
        eprintln!("[s14] wrote {path}");
    }
    if run("shuffle") {
        ran = true;
        let workers: usize = std::env::var("S15_WORKERS")
            .ok()
            .map(|s| s.trim().parse().expect("S15_WORKERS must be a usize"))
            .unwrap_or(4);
        let t = experiments::remote_shuffle(n.unwrap_or(20_000), workers);
        print!("{}", t.render());
        println!();
        // machine-readable copy for CI artifacts
        let json = serde_json::to_string_pretty(&t).expect("serialise S15 table");
        let path = std::env::var("S15_JSON").unwrap_or_else(|_| "target/s15-shuffle.json".into());
        if let Some(dir) = std::path::Path::new(&path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        std::fs::write(&path, json).expect("write S15 json");
        eprintln!("[s15] wrote {path}");
    }
    if run("chaos") {
        ran = true;
        let seed: u64 = std::env::var("STARK_CHAOS_SEED")
            .ok()
            .map(|s| s.trim().parse().expect("STARK_CHAOS_SEED must be a u64"))
            .unwrap_or(0xC4A05);
        let t = experiments::chaos(ctx.parallelism(), n.unwrap_or(100_000), seed);
        print!("{}", t.render());
        println!();
        // machine-readable copy for CI artifacts
        let json = serde_json::to_string_pretty(&t).expect("serialise S8 table");
        let path = std::env::var("S8_JSON").unwrap_or_else(|_| "target/s8-chaos.json".into());
        if let Some(dir) = std::path::Path::new(&path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        std::fs::write(&path, json).expect("write S8 json");
        eprintln!("[s8] wrote {path}");
    }
    if run("stragglers") {
        ran = true;
        let seed: u64 = std::env::var("STARK_CHAOS_SEED")
            .ok()
            .map(|s| s.trim().parse().expect("STARK_CHAOS_SEED must be a u64"))
            .unwrap_or(0xC4A05);
        let runs: Vec<Table> = (0..GATE_RUNS)
            .map(|_| experiments::stragglers(ctx.parallelism(), n.unwrap_or(100_000), seed))
            .collect();
        let t = &runs[0];
        print!("{}", t.render());
        println!();
        // machine-readable copy for CI artifacts
        let json = serde_json::to_string_pretty(t).expect("serialise S9 table");
        let path = std::env::var("S9_JSON").unwrap_or_else(|_| "target/s9-stragglers.json".into());
        if let Some(dir) = std::path::Path::new(&path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        std::fs::write(&path, json).expect("write S9 json");
        eprintln!("[s9] wrote {path}");
        // rows: 1 = delay faults without defence, 2 = with speculation;
        // column 3 = time [s]
        timing_gate("s9", &runs, (1, 2), 3, "speculation < no defence", |off, on| on < off);
    }
    if run("memory") {
        ran = true;
        let seed: u64 = std::env::var("STARK_CHAOS_SEED")
            .ok()
            .map(|s| s.trim().parse().expect("STARK_CHAOS_SEED must be a u64"))
            .unwrap_or(0xC4A05);
        let t = experiments::memory(ctx.parallelism(), n.unwrap_or(100_000), seed);
        print!("{}", t.render());
        println!();
        // machine-readable copy for CI artifacts
        let json = serde_json::to_string_pretty(&t).expect("serialise S10 table");
        let path = std::env::var("S10_JSON").unwrap_or_else(|_| "target/s10-memory.json".into());
        if let Some(dir) = std::path::Path::new(&path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        std::fs::write(&path, json).expect("write S10 json");
        eprintln!("[s10] wrote {path}");
    }

    if run("service") {
        ran = true;
        let seed: u64 = std::env::var("STARK_CHAOS_SEED")
            .ok()
            .map(|s| s.trim().parse().expect("STARK_CHAOS_SEED must be a u64"))
            .unwrap_or(0xC4A05);
        let max_sessions: usize = std::env::var("S11_MAX_SESSIONS")
            .ok()
            .map(|s| s.trim().parse().expect("S11_MAX_SESSIONS must be a usize"))
            .unwrap_or(1024);
        let rows = n.unwrap_or(20_000) as i64;
        let t = stark_bench::service::service(ctx.parallelism(), rows, seed, max_sessions);
        print!("{}", t.render());
        println!();
        // machine-readable copy for CI artifacts
        let json = serde_json::to_string_pretty(&t).expect("serialise S11 table");
        let path = std::env::var("S11_JSON").unwrap_or_else(|_| "target/s11-service.json".into());
        if let Some(dir) = std::path::Path::new(&path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        std::fs::write(&path, json).expect("write S11 json");
        eprintln!("[s11] wrote {path}");
    }

    if !ran {
        eprintln!(
            "unknown experiment {which:?}; try: all, features, figure4, filter, join, knn, dbscan, pruning, balance, scaling, temporal, indexmodes, stream, fusion, columnar, ivm, distributed, shuffle, chaos, stragglers, memory, service"
        );
        std::process::exit(2);
    }

    let m = ctx.metrics();
    eprintln!(
        "[engine] jobs={} tasks={} records={} pruned_partitions={} shuffles={} task_time={:.2}s job_time={:.2}s",
        m.jobs,
        m.tasks_launched,
        m.records_read,
        m.partitions_pruned,
        m.shuffles,
        m.task_nanos as f64 / 1e9,
        m.job_nanos as f64 / 1e9
    );
}
