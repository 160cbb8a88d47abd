//! Shared benchmark plumbing: run arguments, the metric report, the
//! span recorder, percentile helpers, peak-RSS probes, the worker-binary
//! guard and the replay probes every workload runs on its own rows.

use stark::distributed::EventRow;
use stark::{STObject, STPredicate};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Command-line arguments of one benchmark run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub worker_bin: Option<PathBuf>,
    pub rev: String,
    pub out_dir: PathBuf,
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

/// Everything one run prints: outcome counts, metrics and metadata.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    /// Operations that failed, were refused or produced a wrong output.
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
    pub meta: Vec<(String, String)>,
}

impl Report {
    /// Sets a metric, replacing an earlier value of the same name.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.retain(|(n, _, _)| n != name);
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn meta(&mut self, key: &str, value: impl ToString) {
        self.meta.push((key.to_string(), value.to_string()));
    }

    /// `(attempted - failed) / attempted`.
    pub fn ok_ratio(&self) -> f64 {
        (self.attempted - self.failed.min(self.attempted)) as f64 / self.attempted.max(1) as f64
    }

    /// Prints the human-readable table, a metadata line, and the final
    /// one-line JSON result (which must stay the last stdout line).
    pub fn print(&self, wanted: &[(&str, &str)]) {
        let mut correct = self.failed == 0 && self.attempted > 0;
        let by_name: HashMap<&str, (f64, &str)> =
            self.metrics.iter().map(|(n, v, u)| (n.as_str(), (*v, *u))).collect();
        let mut json = String::from("{");
        for (i, (name, unit)) in wanted.iter().enumerate() {
            let value = match by_name.get(name) {
                Some((v, u)) => {
                    debug_assert_eq!(u, unit, "{name}: unit mismatch");
                    *v
                }
                None => {
                    eprintln!("perfbench: metric {name} was not measured");
                    correct = false;
                    0.0
                }
            };
            let value = if value.is_finite() {
                value
            } else {
                eprintln!("perfbench: metric {name} is not finite ({value})");
                correct = false;
                0.0
            };
            println!("  {name:<32} {value:>16.6} {unit}");
            if i > 0 {
                json.push_str(", ");
            }
            let _ = write!(json, "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
        }
        json.push('}');
        let mut meta = String::from("{");
        for (i, (k, v)) in self.meta.iter().enumerate() {
            if i > 0 {
                meta.push_str(", ");
            }
            let _ = write!(meta, "\"{}\": \"{}\"", escape(k), escape(v));
        }
        meta.push('}');
        println!("# meta {meta}");
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {json}}}",
            self.attempted.max(1),
            self.failed.min(self.attempted.max(1)),
        );
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// Nearest-rank percentile (`q` in `[0, 1]`) of unsorted samples; 0 when
/// there are none.
pub fn pct(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((v.len() as f64 * q).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    pct(samples, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `f` `reps` times and returns the median wall time in
/// nanoseconds together with the last result.
pub fn time_median<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let r = f();
        times.push(t.elapsed().as_nanos() as f64);
        last = Some(r);
    }
    (median(&times), last.expect("at least one repetition"))
}

/// The percentile whose tail still holds at least ten samples: p99 with
/// 1000+ samples, p90 with 100+, else the median.
pub fn tail_q(samples: usize) -> f64 {
    if samples >= 1000 {
        0.99
    } else if samples >= 100 {
        0.90
    } else {
        0.5
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
struct Span {
    id: u64,
    parent: u64,
    req: u64,
    layer: &'static str,
    name: &'static str,
    start: u64,
    end: u64,
    tid: u64,
}

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// In-memory span recorder around the calls the benchmark makes into
/// each layer. Off, it adds one branch per call.
pub struct Tracer {
    on: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, origin: Instant::now(), next_id: AtomicU64::new(1), spans: Mutex::default() }
    }

    fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `f` inside a span `layer.name` of request `req`.
    pub fn span<R>(
        &self,
        layer: &'static str,
        name: &'static str,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.on {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied().unwrap_or(0);
            s.push(id);
            parent
        });
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        STACK.with(|s| s.borrow_mut().pop());
        self.push(Span {
            id,
            parent,
            req,
            layer,
            name,
            start: self.at(start),
            end: self.at(end),
            tid: TID.with(|t| *t),
        });
        r
    }

    /// Id of the innermost open span on this thread (0 at top level).
    pub fn current(&self) -> u64 {
        STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
    }

    /// Records a span measured elsewhere (a time the program reports, or
    /// an interval between two stamps) under `parent`; returns its id.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        parent: u64,
        layer: &'static str,
        name: &'static str,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.on {
            return 0;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            id,
            parent,
            req,
            layer,
            name,
            start: self.at(start),
            end: self.at(end.max(start)),
            tid: TID.with(|t| *t),
        });
        id
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span buffer").push(span);
    }

    fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer").clone()
    }

    /// Self time per layer in nanoseconds: each span's duration minus
    /// the part of it its direct children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans();
        let mut covered: HashMap<u64, u64> = HashMap::new();
        for s in &spans {
            if s.parent != 0 {
                *covered.entry(s.parent).or_default() += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for s in &spans {
            let dur = s.end - s.start;
            let own = dur.saturating_sub(covered.get(&s.id).copied().unwrap_or(0));
            *out.entry(s.layer).or_insert(0.0) += own as f64;
        }
        out
    }

    /// Writes the spans as Chrome trace-event JSON (chrome://tracing).
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\": \"{}.{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"span\": {}, \"parent\": {}, \"req\": {}}}}}",
                s.layer,
                s.name,
                s.layer,
                s.tid,
                s.start as f64 / 1e3,
                (s.end - s.start) as f64 / 1e3,
                s.id,
                s.parent,
                s.req
            );
        }
        out.push_str("\n], \"displayTimeUnit\": \"ms\"}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Layers whose self time the traced run reports, in output order.
const SELF_LAYERS: &[&str] =
    &["bench", "plan", "serde", "supervisor", "rdd", "core", "index", "piglet", "server", "stream"];

/// Adds `self_ms.<layer>` (per operation), the operation latency the self
/// times add up to (`trace.op_ms_p50`, traced half) and
/// `trace.overhead_ratio`.
pub fn report_trace(
    report: &mut Report,
    tracer: &Tracer,
    ops: u64,
    traced_p50: f64,
    untraced_p50: f64,
) {
    let selfs = tracer.self_times();
    for layer in SELF_LAYERS {
        let ns = selfs.get(layer).copied().unwrap_or(0.0);
        report.metric(&format!("self_ms.{layer}"), ns / 1e6 / ops.max(1) as f64, "ms");
    }
    report.metric("trace.op_ms_p50", traced_p50, "ms");
    report.metric("trace.overhead_ratio", traced_p50 / untraced_p50.max(1e-9), "ratio");
}

// ---------------------------------------------------------------------------
// Process probes
// ---------------------------------------------------------------------------

fn vm_hwm_kib(pid: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

/// Peak resident set of this process, MiB.
pub fn peak_rss_mib() -> f64 {
    vm_hwm_kib("self").unwrap_or(0) as f64 / 1024.0
}

/// Summed peak resident sets of this process's live children, MiB.
pub fn children_peak_rss_mib() -> f64 {
    let me = std::process::id().to_string();
    let Ok(dir) = std::fs::read_dir("/proc") else { return 0.0 };
    let mut total = 0.0;
    for entry in dir.flatten() {
        let name = entry.file_name().to_string_lossy().to_string();
        if !name.bytes().all(|b| b.is_ascii_digit()) {
            continue;
        }
        let Ok(stat) = std::fs::read_to_string(format!("/proc/{name}/stat")) else { continue };
        // fields after the `(comm)`: state ppid ...
        let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else { continue };
        if rest.split_whitespace().nth(1) == Some(me.as_str()) {
            total += vm_hwm_kib(&name).unwrap_or(0) as f64 / 1024.0;
        }
    }
    total
}

// ---------------------------------------------------------------------------
// Worker-binary guard
// ---------------------------------------------------------------------------

/// Accepts only a release `stark-worker` built from this source tree and
/// not older than any of its sources, as recorded in the dep-info file
/// cargo writes beside the binary.
pub fn check_worker_bin(bin: &Path) -> Result<PathBuf, String> {
    let bin = bin.canonicalize().map_err(|e| format!("worker binary {bin:?}: {e}"))?;
    if bin.file_name().and_then(|n| n.to_str()) != Some("stark-worker") {
        return Err(format!("{bin:?} is not a stark-worker binary"));
    }
    let profile = bin.parent().and_then(|p| p.file_name()).and_then(|n| n.to_str());
    if profile != Some("release") {
        return Err(format!("{bin:?} is not a release build (profile dir {profile:?})"));
    }
    let built = std::fs::metadata(&bin)
        .and_then(|m| m.modified())
        .map_err(|e| format!("worker binary {bin:?}: {e}"))?;
    let dep_info = bin.with_file_name("stark-worker.d");
    let deps = std::fs::read_to_string(&dep_info)
        .map_err(|e| format!("dep-info {dep_info:?} missing ({e}); cannot prove freshness"))?;
    let tree = std::env::current_dir()
        .and_then(|d| d.canonicalize())
        .map_err(|e| format!("checkout root: {e}"))?;
    let sources = deps.split_once(": ").map(|(_, s)| s).unwrap_or("");
    let mut checked = 0;
    for src in split_dep_list(sources) {
        let path = PathBuf::from(&src);
        let canon = path.canonicalize().map_err(|e| format!("worker source {src}: {e}"))?;
        if !canon.starts_with(&tree) {
            return Err(format!("worker was built from another tree: {src} is outside {tree:?}"));
        }
        let modified =
            std::fs::metadata(&canon).and_then(|m| m.modified()).map_err(|e| e.to_string())?;
        if modified > built {
            return Err(format!("stale worker binary: {src} changed after {bin:?} was built"));
        }
        checked += 1;
    }
    if checked == 0 {
        return Err(format!("dep-info {dep_info:?} lists no sources"));
    }
    Ok(bin)
}

/// Splits a make-style dependency list (spaces escaped as `\ `).
fn split_dep_list(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut chars = s.trim().chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '\\' if chars.peek() == Some(&' ') => {
                cur.push(' ');
                chars.next();
            }
            c if c.is_whitespace() => {
                if !cur.is_empty() {
                    out.push(std::mem::take(&mut cur));
                }
            }
            c => cur.push(c),
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

// ---------------------------------------------------------------------------
// Replay probes on a workload's own rows
// ---------------------------------------------------------------------------

/// Codec, framing and geometry costs measured on `rows` and `pairs`
/// (candidate pairs of the workload's own predicate).
pub fn codec_geo_probes(
    report: &mut Report,
    rows: &[EventRow],
    pred: STPredicate,
    pairs: &[(usize, usize)],
) {
    use stark_engine::plan::{decode_rows, encode_rows};
    use stark_engine::transport::{read_frame, write_frame};

    let n = rows.len().max(1);
    let half = &rows[..rows.len() / 2];
    let (enc_ns, payload) = time_median(5, || encode_rows(rows).expect("encode rows"));
    let half_payload = encode_rows(half).expect("encode rows");
    let (dec_ns, _) =
        time_median(3, || decode_rows::<EventRow>(&payload).expect("decode rows").len());
    let (half_ns, _) =
        time_median(3, || decode_rows::<EventRow>(&half_payload).expect("decode rows").len());
    report.metric("plan.encode_ns_per_row", enc_ns / n as f64, "ns");
    report.metric("plan.bytes_per_row", payload.len() as f64 / n as f64, "B");
    report.metric("plan.decode_ns_per_row", dec_ns / n as f64, "ns");
    report.metric("plan.decode_scaling_2x", dec_ns / half_ns.max(1.0), "ratio");

    let (frame_ns, _) = time_median(5, || {
        let mut buf = Vec::with_capacity(payload.len() + 16);
        write_frame(&mut buf, &payload).expect("write frame");
        read_frame(&mut std::io::Cursor::new(buf)).expect("read frame").map(|p| p.len())
    });
    report.metric("transport.frame_ns_per_kib", frame_ns / (payload.len() as f64 / 1024.0), "ns");

    if !pairs.is_empty() {
        let (pred_ns, _) = time_median(3, || {
            pairs.iter().filter(|(i, j)| pred.eval(&rows[*i].0, &rows[*j].0)).count()
        });
        report.metric("geo.predicate_ns", pred_ns / pairs.len() as f64, "ns");
    }

    let wkts: Vec<(String, i64)> = rows
        .iter()
        .take(20_000)
        .map(|(o, _)| (o.geo().to_wkt(), o.time().map(|t| t.start()).unwrap_or(0)))
        .collect();
    let (wkt_ns, _) = time_median(3, || {
        wkts.iter().filter(|(w, t)| STObject::from_wkt_instant(w, *t).is_ok()).count()
    });
    report.metric("geo.wkt_parse_ns", wkt_ns / wkts.len().max(1) as f64, "ns");
}

/// Candidate pairs for the predicate replay: row pairs sharing a cell of
/// a `cell`-sized grid, capped at `cap`.
pub fn candidate_pairs(rows: &[EventRow], cell: f64, cap: usize) -> Vec<(usize, usize)> {
    let mut cells: HashMap<(i64, i64), Vec<usize>> = HashMap::new();
    for (i, (o, _)) in rows.iter().enumerate() {
        let c = o.centroid();
        cells
            .entry(((c.x / cell).floor() as i64, (c.y / cell).floor() as i64))
            .or_default()
            .push(i);
    }
    let mut keys: Vec<_> = cells.keys().copied().collect();
    keys.sort_unstable();
    let mut out = Vec::new();
    for k in keys {
        let members = &cells[&k];
        for (a, &i) in members.iter().enumerate() {
            for &j in &members[a + 1..] {
                out.push((i, j));
                if out.len() >= cap {
                    return out;
                }
            }
        }
    }
    out
}

/// Clustered point events in `[0, 1000)²`: `lattice²` Gaussian hotspots
/// of spread `sigma` whose centres sit on a lattice, jittered by up to a
/// fifth of a cell. The seed moves every point and centre, but the load
/// per region, and so the cost of a spatial job, stays about the same.
pub fn lattice_clusters(seed: u64, n: usize, lattice: usize, sigma: f64) -> Vec<EventRow> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let cell = 1000.0 / lattice as f64;
    let centers: Vec<(f64, f64)> = (0..lattice * lattice)
        .map(|i| {
            let (cx, cy) = ((i % lattice) as f64 + 0.5, (i / lattice) as f64 + 0.5);
            (
                cx * cell + rng.gen_range(-0.2..0.2) * cell,
                cy * cell + rng.gen_range(-0.2..0.2) * cell,
            )
        })
        .collect();
    let cats = ["earthquake", "concert", "protest", "election", "flood", "festival", "accident"];
    (0..n)
        .map(|i| {
            let (cx, cy) = centers[i % centers.len()];
            // Box-Muller
            let (u, v): (f64, f64) = (rng.gen_range(f64::EPSILON..1.0), rng.gen_range(0.0..1.0));
            let r = sigma * (-2.0 * u.ln()).sqrt();
            let (dx, dy) =
                (r * (std::f64::consts::TAU * v).cos(), r * (std::f64::consts::TAU * v).sin());
            let (x, y) = ((cx + dx).clamp(0.0, 999.999), (cy + dy).clamp(0.0, 999.999));
            let t = rng.gen_range(0..1_000_000i64);
            (STObject::point_at(x, y, t), (i as u64, cats[i % cats.len()].to_string()))
        })
        .collect()
}

/// Deterministic 64-bit mix used to derive sub-seeds.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Run-wide metadata every workload records.
pub fn base_meta(report: &mut Report, args: &Args) {
    report.meta("workload", &args.workload);
    report.meta("seed", args.seed);
    report.meta("seconds", args.seconds);
    report.meta("trace", args.trace as u8);
    report.meta("tree_digest", &args.rev);
    report.meta("nproc", std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0));
    report.meta("profile", if cfg!(debug_assertions) { "debug" } else { "release" });
}

/// Aborts the run without a result line.
pub fn fail(message: &str) -> ! {
    eprintln!("perfbench: {message}");
    std::process::exit(1)
}
