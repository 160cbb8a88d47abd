//! Driver-side supervision of worker processes.
//!
//! A [`WorkerPool`] forks N worker processes (any binary built on
//! [`crate::worker::WorkerRuntime`]), each of which dials back over TCP
//! and is supervised for the pool's lifetime:
//!
//! * **Liveness** — every inbound frame refreshes the worker's
//!   `last_seen`; workers push heartbeats on a fixed cadence, so a
//!   silent socket (network partition, frozen process) trips the
//!   heartbeat timeout even though the connection looks open.
//! * **Worker-loss detection** — connection EOF or a torn frame
//!   (fail-stop workers die on any protocol error), heartbeat silence,
//!   or a task outliving its per-task deadline. All three funnel into
//!   one `mark_down` path, which also enforces the per-task retry budget.
//! * **Recovery** — a dead worker's in-flight task is reassigned to a
//!   survivor with a bumped attempt number (its shuffle output lives in
//!   the shared object store and is simply rewritten — lineage-based
//!   recovery at the granularity of plan fragments). The seat respawns
//!   with exponential backoff, jittered so a mass outage doesn't
//!   thunder back in lockstep.
//! * **Graceful drain** — shutdown sends [`DriverMsg::Drain`], waits
//!   briefly for clean exits, then kills stragglers.
//!
//! A dispatch-layer [`FaultPlan`] hooks the dispatch path: kill -9 at
//! send, dropped/truncated/corrupted/delayed task frames.
//! Each fault exercises a different detection route, but recovery is
//! always the same reassignment path — which is why the chaos suite can
//! pin `tasks_reassigned == injected` and byte-identical results.

use crate::fault::{jittered_backoff, splitmix64, Fault, FaultPlan, Site};
use crate::metrics::counters;
use crate::plan::{
    shuffle_bucket_key, PlanFragment, PlanInput, PlanOp, PlanSink, TaskOutput, TaskResult,
};
use crate::shuffle::{FetchFailure, FetchSource};
use crate::storage::ObjectStore;
use crate::transport::{recv_msg, recv_payload, send_msg, write_frame, DriverMsg, WorkerMsg};
use serde_json::Value;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::io::{self, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Configuration of a [`WorkerPool`].
#[derive(Debug, Clone)]
pub struct WorkerPoolConfig {
    /// Number of worker seats.
    pub workers: usize,
    /// Worker binary to fork (see [`find_worker_bin`]).
    pub program: PathBuf,
    /// Heartbeat cadence pushed by workers (passed on their command
    /// line).
    pub heartbeat_interval: Duration,
    /// A worker whose last inbound frame is older than this is declared
    /// lost even if its socket is still open.
    pub heartbeat_timeout: Duration,
    /// A dispatched task not answered within this window marks its
    /// worker lost (catches dropped task frames and wedged workers that
    /// still heartbeat).
    pub task_timeout: Duration,
    /// How long a freshly forked worker may take to dial back.
    pub spawn_timeout: Duration,
    /// Base respawn backoff; doubled per consecutive failure of the
    /// seat and jittered into `[0.5, 1.5)` of the scaled value.
    pub respawn_backoff: Duration,
    /// Respawn budget per seat.
    pub max_respawns: u32,
    /// Reassignment/retry budget per task.
    pub max_task_retries: u32,
    /// Shared object store for shuffle buckets and checkpoints; `None`
    /// creates a fresh temp-dir store.
    pub store_root: Option<PathBuf>,
    /// Fault injection. A dispatch-layer plan is consulted on every
    /// dispatch; a fetch-layer plan is handed to every forked worker as
    /// `--faults <spec>` (each worker counts its own strikes).
    pub faults: Option<Arc<FaultPlan>>,
    /// How many lost-output regeneration rounds one remote shuffle may
    /// run before giving up (a fetch failure that survives this many
    /// re-productions is not transient).
    pub max_shuffle_regens: u32,
    /// Seed for the respawn-backoff jitter.
    pub seed: u64,
}

impl WorkerPoolConfig {
    pub fn new(program: impl Into<PathBuf>) -> Self {
        WorkerPoolConfig {
            workers: 4,
            program: program.into(),
            heartbeat_interval: Duration::from_millis(25),
            heartbeat_timeout: Duration::from_secs(2),
            task_timeout: Duration::from_secs(30),
            spawn_timeout: Duration::from_secs(10),
            respawn_backoff: Duration::from_millis(50),
            max_respawns: 3,
            max_task_retries: 3,
            store_root: None,
            faults: None,
            max_shuffle_regens: 4,
            seed: 0xC4A05,
        }
    }
}

/// Locates a worker binary: `STARK_WORKER_BIN` first, then as a sibling
/// of the current executable (walking up from `target/*/deps` for test
/// binaries). Returns `None` if the binary has not been built.
pub fn find_worker_bin(name: &str) -> Option<PathBuf> {
    if let Ok(p) = std::env::var("STARK_WORKER_BIN") {
        let p = PathBuf::from(p);
        if p.is_file() {
            return Some(p);
        }
    }
    let exe = std::env::current_exe().ok()?;
    let mut dir = exe.parent()?;
    for _ in 0..2 {
        let cand = dir.join(name);
        if cand.is_file() {
            return Some(cand);
        }
        dir = dir.parent()?;
    }
    None
}

// ---------------------------------------------------------------------------
// Errors and stats
// ---------------------------------------------------------------------------

/// Typed pool failure.
#[derive(Debug)]
pub enum PoolError {
    Io(io::Error),
    /// A worker seat failed to fork or complete its handshake.
    Spawn {
        seat: usize,
        message: String,
    },
    /// A task failed deterministically (non-retryable plan error).
    TaskFailed {
        task: usize,
        message: String,
    },
    /// A task exhausted its reassignment/retry budget.
    RetriesExhausted {
        task: usize,
        attempts: u32,
        last: String,
    },
    /// Every worker is down and no respawn budget remains.
    NoWorkers {
        pending: usize,
    },
    /// A reduce task's remote bucket fetch failed for good (budget
    /// exhausted or stale epoch); carries the typed failure so the
    /// lost-output recovery loop can decide what to invalidate.
    FetchFailed {
        task: usize,
        failure: FetchFailure,
    },
    /// A remote shuffle regenerated lost map outputs
    /// [`WorkerPoolConfig::max_shuffle_regens`] times and fetches still
    /// failed — the failure is not transient.
    ShuffleRegensExhausted {
        prefix: String,
        rounds: u32,
    },
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolError::Io(e) => write!(f, "pool I/O error: {e}"),
            PoolError::Spawn { seat, message } => write!(f, "worker seat {seat}: {message}"),
            PoolError::TaskFailed { task, message } => write!(f, "task {task} failed: {message}"),
            PoolError::RetriesExhausted { task, attempts, last } => {
                write!(f, "task {task} failed after {attempts} attempts: {last}")
            }
            PoolError::NoWorkers { pending } => {
                write!(f, "all workers lost with {pending} tasks outstanding and no respawn budget")
            }
            PoolError::FetchFailed { task, failure } => {
                write!(f, "reduce task {task}: {failure}")
            }
            PoolError::ShuffleRegensExhausted { prefix, rounds } => {
                write!(
                    f,
                    "shuffle {prefix:?} still failing after {rounds} map-output regeneration rounds"
                )
            }
        }
    }
}

impl std::error::Error for PoolError {}

impl From<io::Error> for PoolError {
    fn from(e: io::Error) -> Self {
        PoolError::Io(e)
    }
}

counters! {
    /// The pool's live counters, shared with the per-worker reader threads.
    pub(crate) struct PoolCounters;
    /// Pool-level counters, readable at any time via [`WorkerPool::stats`].
    pub struct PoolStats {
        /// Worker processes forked (initial spawns and respawns both count).
        workers_spawned: sum,
        /// Workers declared lost (crash, heartbeat silence, torn frame or a
        /// blown task deadline).
        workers_lost: sum,
        /// Lost worker seats successfully brought back.
        workers_respawned: sum,
        /// Plan-fragment tasks dispatched to worker processes.
        tasks_dispatched: sum,
        /// Tasks whose first result the driver accepted.
        tasks_completed: sum,
        /// Tasks re-run after a worker-reported (retryable) failure.
        tasks_retried: sum,
        /// Tasks re-run because their worker was lost mid-flight.
        tasks_reassigned: sum,
        /// Heartbeat frames received, summed over all reader threads.
        heartbeats: sum,
        /// Row-payload bytes shipped driver → workers.
        bytes_tx: sum,
        /// Row-payload bytes received workers → driver.
        bytes_rx: sum,
        /// Remote-shuffle fetch attempts beyond the first, summed over all
        /// workers (each struck transfer costs exactly one retry).
        fetch_retries: sum,
        /// Fetches that exhausted their retry budget or hit a stale epoch.
        fetch_failures: sum,
        /// Registered map outputs invalidated because their producer died
        /// or served unusable bytes.
        map_outputs_lost: sum,
        /// Map outputs re-produced via lineage at a bumped shuffle epoch.
        /// Recovery is exact when this equals `map_outputs_lost`.
        map_outputs_regenerated: sum,
        /// Bucket payload bytes pulled over peer-to-peer fetch connections.
        shuffle_bytes_fetched_remote: sum,
    }
}

// ---------------------------------------------------------------------------
// Tasks
// ---------------------------------------------------------------------------

/// One task to run on the pool: a plan fragment plus its optional inline
/// row payload.
#[derive(Debug, Clone)]
pub struct DistTask {
    pub fragment: PlanFragment,
    pub payload: Option<Vec<u8>>,
}

impl DistTask {
    pub fn new(fragment: PlanFragment) -> Self {
        DistTask { fragment, payload: None }
    }

    pub fn with_rows(fragment: PlanFragment, payload: Vec<u8>) -> Self {
        DistTask { fragment, payload: Some(payload) }
    }
}

/// Derives the reduce-side store keys for `partition` from the map
/// stage's [`TaskOutput::BucketCounts`] (one `Vec<u64>` per map task) —
/// only buckets a map task actually wrote appear.
pub fn bucket_keys_for_partition(
    prefix: &str,
    counts: &[Vec<u64>],
    partition: usize,
) -> Vec<String> {
    counts
        .iter()
        .enumerate()
        .filter(|(_, c)| c.get(partition).copied().unwrap_or(0) > 0)
        .map(|(task, _)| crate::plan::shuffle_bucket_key(prefix, task, partition))
        .collect()
}

// ---------------------------------------------------------------------------
// Shuffle stages
// ---------------------------------------------------------------------------

/// How a shuffle stage moves buckets from map tasks to reduce tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShuffleMode {
    /// Map tasks write buckets into the pool's shared [`ObjectStore`];
    /// reduce tasks read them back by key. No recovery needed — the
    /// store outlives any worker.
    SharedStore,
    /// Map tasks keep buckets in their own local store and serve them
    /// over a per-worker shuffle port; reduce tasks fetch peer-to-peer.
    /// Lost outputs are re-produced via lineage at a bumped epoch.
    Remote,
}

/// Declarative description of one shuffle stage for
/// [`WorkerPool::run_shuffle`]. The pool builds the map-side sinks and
/// reduce-side inputs itself, so the two [`ShuffleMode`]s stay
/// byte-identical by construction.
#[derive(Debug, Clone)]
pub struct ShuffleSpec {
    pub mode: ShuffleMode,
    /// Registered partitioner op name (e.g. `"mod"`).
    pub partitioner: String,
    pub partitioner_arg: Value,
    pub num_partitions: usize,
    /// Stage key prefix; also names the map-output registry entry.
    pub prefix: String,
    /// Ops applied to each reduce partition's concatenated rows.
    pub reduce_ops: Vec<PlanOp>,
    /// Sink of each reduce task (one task per partition).
    pub reduce_sink: PlanSink,
}

/// Where one map task's buckets live: which seat incarnation produced
/// them, at which epoch, and how many rows each bucket holds.
#[derive(Debug, Clone)]
struct MapOutputEntry {
    seat: usize,
    gen: u64,
    port: u16,
    epoch: u64,
    counts: Vec<u64>,
}

/// Map-output registry for one shuffle stage: map task index → current
/// output location. `epoch` is the stage's high-water mark; entries
/// below it were produced before the most recent regeneration round.
#[derive(Default)]
struct ShuffleRegistry {
    epoch: u64,
    entries: HashMap<usize, MapOutputEntry>,
}

impl ShuffleRegistry {
    /// Registers a map output. Mirrors the duplicate-completion guard:
    /// an entry at the same or newer epoch wins, so a straggling
    /// duplicate production can never clobber a regenerated output.
    fn register(&mut self, task: usize, entry: MapOutputEntry) -> bool {
        if let Some(existing) = self.entries.get(&task) {
            if existing.epoch >= entry.epoch {
                return false;
            }
        }
        self.entries.insert(task, entry);
        true
    }
}

/// Builds the fetch list for one reduce partition, in map-task order so
/// concatenation matches the shared-store path byte for byte. Zero-count
/// buckets are skipped — they were never written.
fn fetch_sources(reg: &ShuffleRegistry, prefix: &str, partition: usize) -> Vec<FetchSource> {
    let mut tasks: Vec<usize> = reg.entries.keys().copied().collect();
    tasks.sort_unstable();
    tasks
        .into_iter()
        .filter_map(|task| {
            let e = &reg.entries[&task];
            if e.counts.get(partition).copied().unwrap_or(0) == 0 {
                return None;
            }
            Some(FetchSource {
                addr: format!("127.0.0.1:{}", e.port),
                key: shuffle_bucket_key(prefix, task, partition),
                epoch: e.epoch,
            })
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Pool internals
// ---------------------------------------------------------------------------

enum Event {
    Msg { seat: usize, gen: u64, msg: WorkerMsg, rows: Option<Vec<u8>> },
    Gone { seat: usize, gen: u64, reason: String },
}

enum SlotState {
    Idle,
    Busy { task: usize, attempt: u32, deadline: Instant },
    Down,
}

struct WorkerSlot {
    /// Incarnation counter; events from a previous incarnation of this
    /// seat are stale and ignored.
    gen: u64,
    child: Option<Child>,
    writer: Option<TcpStream>,
    last_seen: Arc<Mutex<Instant>>,
    state: SlotState,
    /// Consecutive losses of this seat — the respawn-backoff exponent,
    /// reset when the seat completes a task.
    consecutive_failures: u32,
    respawns_left: u32,
    next_respawn: Option<Instant>,
    /// Port of this incarnation's bucket server (0 = none announced).
    shuffle_port: u16,
}

impl WorkerSlot {
    fn is_live(&self) -> bool {
        !matches!(self.state, SlotState::Down)
    }
}

/// A supervised pool of worker processes executing [`DistTask`]s.
pub struct WorkerPool {
    cfg: WorkerPoolConfig,
    listener: TcpListener,
    addr: String,
    slots: Vec<WorkerSlot>,
    events_rx: Receiver<Event>,
    events_tx: Sender<Event>,
    store: ObjectStore,
    counters: Arc<PoolCounters>,
    /// Prefix and final epoch of the latest remote shuffle (its map
    /// outputs are released once it returns).
    last_shuffle: Option<(String, u64)>,
    /// Monotonic job counter — part of the chaos draw identity.
    jobs: u64,
    /// splitmix64 state for respawn jitter.
    rng: u64,
    closed: bool,
}

impl WorkerPool {
    /// Forks `cfg.workers` worker processes and completes their
    /// handshakes. On any seat failure the already-started workers are
    /// killed before the error returns.
    pub fn spawn(cfg: WorkerPoolConfig) -> Result<WorkerPool, PoolError> {
        assert!(cfg.workers >= 1, "a pool needs at least one worker");
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?.to_string();
        let store_root = cfg.store_root.clone().unwrap_or_else(|| {
            static SEQ: AtomicU64 = AtomicU64::new(0);
            std::env::temp_dir().join(format!(
                "stark-pool-{}-{}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed)
            ))
        });
        let store = ObjectStore::open(&store_root)
            .map_err(|e| PoolError::Spawn { seat: 0, message: format!("open store: {e}") })?;
        let (events_tx, events_rx) = std::sync::mpsc::channel();
        let mut pool = WorkerPool {
            rng: splitmix64(cfg.seed ^ 0x57A2_4B00),
            cfg,
            listener,
            addr,
            slots: Vec::new(),
            events_rx,
            events_tx,
            store,
            counters: Arc::default(),
            last_shuffle: None,
            jobs: 0,
            closed: false,
        };
        for seat in 0..pool.cfg.workers {
            pool.slots.push(WorkerSlot {
                gen: 0,
                child: None,
                writer: None,
                last_seen: Arc::new(Mutex::new(Instant::now())),
                state: SlotState::Down,
                consecutive_failures: 0,
                respawns_left: pool.cfg.max_respawns,
                next_respawn: None,
                shuffle_port: 0,
            });
            if let Err(e) = pool.spawn_worker(seat) {
                pool.shutdown_inner();
                return Err(e);
            }
        }
        Ok(pool)
    }

    /// The shared object store workers read shuffle input from and write
    /// shuffle/checkpoint output to.
    pub fn store(&self) -> &ObjectStore {
        &self.store
    }

    /// Pool counters.
    pub fn stats(&self) -> PoolStats {
        self.counters.snapshot()
    }

    /// Number of workers currently live (connected and not timed out).
    pub fn live_workers(&self) -> usize {
        self.slots.iter().filter(|s| s.is_live()).count()
    }

    /// Forks one worker for `seat` and completes the Hello handshake.
    fn spawn_worker(&mut self, seat: usize) -> Result<(), PoolError> {
        let spawn_err = |message: String| PoolError::Spawn { seat, message };
        let mut cmd = Command::new(&self.cfg.program);
        cmd.arg("--addr")
            .arg(&self.addr)
            .arg("--id")
            .arg(seat.to_string())
            .arg("--heartbeat-ms")
            .arg(self.cfg.heartbeat_interval.as_millis().max(1).to_string())
            .arg("--store")
            .arg(self.store.root())
            .stdin(Stdio::null())
            .stdout(Stdio::null());
        if let Some(plan) = self.cfg.faults.as_ref().filter(|p| p.strikes_fetches()) {
            cmd.arg("--faults").arg(plan.to_spec());
        }
        let mut child =
            cmd.spawn().map_err(|e| spawn_err(format!("fork {:?}: {e}", self.cfg.program)))?;

        // The listener is non-blocking; poll for the dial-back while
        // watching for an early child death.
        let deadline = Instant::now() + self.cfg.spawn_timeout;
        let stream = loop {
            match self.listener.accept() {
                Ok((stream, _)) => break stream,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if let Ok(Some(status)) = child.try_wait() {
                        return Err(spawn_err(format!("worker exited during spawn: {status}")));
                    }
                    if Instant::now() >= deadline {
                        let _ = child.kill();
                        return Err(spawn_err("worker never dialed back".into()));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => {
                    let _ = child.kill();
                    return Err(e.into());
                }
            }
        };
        stream.set_nodelay(true).ok();

        // Hello must arrive promptly.
        stream.set_read_timeout(Some(self.cfg.spawn_timeout)).ok();
        let mut hello_reader = BufReader::new(stream.try_clone()?);
        let shuffle_port = match recv_msg::<WorkerMsg>(&mut hello_reader) {
            Ok(Some(WorkerMsg::Hello { worker_id, shuffle_port, .. })) if worker_id == seat => {
                shuffle_port
            }
            Ok(other) => {
                let _ = child.kill();
                return Err(spawn_err(format!("bad handshake: {other:?}")));
            }
            Err(e) => {
                let _ = child.kill();
                return Err(spawn_err(format!("handshake: {e}")));
            }
        };
        // Reads stay bounded for the connection's whole life: a peer
        // that wedges mid-frame trips this timeout and is reported Gone,
        // instead of parking the reader thread forever. Heartbeats
        // arrive every `heartbeat_interval`, so a healthy worker never
        // comes near the bound.
        stream.set_read_timeout(Some(self.cfg.heartbeat_timeout * 2)).ok();

        let slot = &mut self.slots[seat];
        slot.shuffle_port = shuffle_port;
        slot.gen += 1;
        slot.child = Some(child);
        slot.writer = Some(stream);
        slot.state = SlotState::Idle;
        *slot.last_seen.lock().unwrap() = Instant::now();
        slot.next_respawn = None;
        self.counters.workers_spawned.add(1);

        // Reader thread: forwards messages and reports connection loss.
        let gen = self.slots[seat].gen;
        let tx = self.events_tx.clone();
        let last_seen = self.slots[seat].last_seen.clone();
        let counters = self.counters.clone();
        std::thread::spawn(move || reader_loop(hello_reader, seat, gen, tx, last_seen, counters));
        Ok(())
    }

    /// Runs a stage of tasks to completion, reassigning work away from
    /// lost workers, and returns the per-task results in input order.
    pub fn execute(&mut self, tasks: &[DistTask]) -> Result<Vec<TaskResult>, PoolError> {
        Ok(self.execute_traced(tasks)?.into_iter().map(|(r, _, _)| r).collect())
    }

    /// Like [`Self::execute`] but also reports which seat incarnation
    /// `(seat, gen)` completed each task — the map-output registry needs
    /// the producer's identity to later detect its loss.
    fn execute_traced(
        &mut self,
        tasks: &[DistTask],
    ) -> Result<Vec<(TaskResult, usize, u64)>, PoolError> {
        if tasks.is_empty() {
            return Ok(Vec::new());
        }
        let job = self.jobs;
        self.jobs += 1;
        self.reset_for_new_job();

        let n = tasks.len();
        let mut results: Vec<Option<(TaskResult, usize, u64)>> = vec![None; n];
        let mut pending: VecDeque<(usize, u32)> = (0..n).map(|i| (i, 0)).collect();
        let mut done = 0usize;

        while done < n {
            self.respawn_due();
            self.assign_pending(&mut pending, tasks, job);

            if self.live_workers() == 0 && !self.respawn_possible() {
                return Err(PoolError::NoWorkers { pending: n - done });
            }

            match self.events_rx.recv_timeout(Duration::from_millis(5)) {
                Ok(ev) => self.handle_event(ev, &mut results, &mut pending, &mut done)?,
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    unreachable!("pool holds an event sender")
                }
            }
            self.check_timeouts(&mut pending)?;
        }
        Ok(results.into_iter().map(|r| r.expect("all tasks completed")).collect())
    }

    // -----------------------------------------------------------------
    // Shuffle stages
    // -----------------------------------------------------------------

    /// Runs a full map → shuffle → reduce stage. `map_tasks` supply the
    /// map-side schema/input/ops and payloads; their sinks are replaced
    /// by the pool so both [`ShuffleMode`]s bucket rows identically.
    /// Returns one [`TaskResult`] per partition, in partition order.
    ///
    /// In [`ShuffleMode::Remote`], map outputs lost to a worker death
    /// (or served corrupt) are re-produced via lineage at a bumped
    /// epoch, up to [`WorkerPoolConfig::max_shuffle_regens`] rounds.
    pub fn run_shuffle(
        &mut self,
        map_tasks: &[DistTask],
        spec: &ShuffleSpec,
    ) -> Result<Vec<TaskResult>, PoolError> {
        if map_tasks.is_empty() {
            return Ok(Vec::new());
        }
        match spec.mode {
            ShuffleMode::SharedStore => self.run_shuffle_shared(map_tasks, spec),
            ShuffleMode::Remote => self.run_shuffle_remote(map_tasks, spec),
        }
    }

    /// Final epoch of the map-output registry of the latest
    /// [`ShuffleMode::Remote`] stage, if it ran under `prefix` (`None`
    /// for any other prefix: finished stages are released).
    pub fn shuffle_epoch(&self, prefix: &str) -> Option<u64> {
        self.last_shuffle.as_ref().filter(|(p, _)| p == prefix).map(|(_, epoch)| *epoch)
    }

    fn run_shuffle_shared(
        &mut self,
        map_tasks: &[DistTask],
        spec: &ShuffleSpec,
    ) -> Result<Vec<TaskResult>, PoolError> {
        let schema = map_tasks[0].fragment.schema.clone();
        let staged: Vec<DistTask> = map_tasks
            .iter()
            .enumerate()
            .map(|(task, d)| {
                let mut frag = d.fragment.clone();
                frag.sink = PlanSink::ShuffleWrite {
                    partitioner: spec.partitioner.clone(),
                    arg: spec.partitioner_arg.clone(),
                    num_partitions: spec.num_partitions,
                    prefix: spec.prefix.clone(),
                    task,
                };
                DistTask { fragment: frag, payload: d.payload.clone() }
            })
            .collect();
        let counts: Vec<Vec<u64>> = self
            .execute(&staged)?
            .into_iter()
            .map(|r| match r.output {
                TaskOutput::BucketCounts(c) => c,
                other => panic!("shuffle map task returned {other:?}, not bucket counts"),
            })
            .collect();
        let reduces: Vec<DistTask> = (0..spec.num_partitions)
            .map(|p| {
                DistTask::new(PlanFragment {
                    schema: schema.clone(),
                    input: PlanInput::Store {
                        keys: bucket_keys_for_partition(&spec.prefix, &counts, p),
                    },
                    ops: spec.reduce_ops.clone(),
                    sink: spec.reduce_sink.clone(),
                })
            })
            .collect();
        self.execute(&reduces)
    }

    /// Runs a remote shuffle, then tells every live worker to release
    /// the stage's map outputs — whether it succeeded or not.
    fn run_shuffle_remote(
        &mut self,
        map_tasks: &[DistTask],
        spec: &ShuffleSpec,
    ) -> Result<Vec<TaskResult>, PoolError> {
        let mut reg = ShuffleRegistry::default();
        let result = self.shuffle_stages(map_tasks, spec, &mut reg);
        self.last_shuffle = Some((spec.prefix.clone(), reg.epoch));
        let release = DriverMsg::ReleaseShuffle { prefix: spec.prefix.clone() };
        // only live seats hold a writer; a failed send is a lost
        // connection, which the seat's reader thread reports
        for w in self.slots.iter_mut().filter_map(|s| s.writer.as_mut()) {
            let _ = send_msg(w, &release);
        }
        result
    }

    fn shuffle_stages(
        &mut self,
        map_tasks: &[DistTask],
        spec: &ShuffleSpec,
        reg: &mut ShuffleRegistry,
    ) -> Result<Vec<TaskResult>, PoolError> {
        let schema = map_tasks[0].fragment.schema.clone();

        // Map stage, epoch 0: every producer keeps its buckets local.
        let all: Vec<usize> = (0..map_tasks.len()).collect();
        self.produce_map_outputs(map_tasks, spec, &all, reg)?;

        let mut rounds = 0u32;
        loop {
            // Outputs whose producer incarnation is gone are lost; their
            // map tasks re-run on survivors at a bumped epoch (lineage).
            self.invalidate_dead_outputs(reg);
            let missing: Vec<usize> =
                (0..map_tasks.len()).filter(|t| !reg.entries.contains_key(t)).collect();
            if !missing.is_empty() {
                reg.epoch += 1;
                self.produce_map_outputs(map_tasks, spec, &missing, reg)?;
                // a producer may have died again during regeneration;
                // re-check before building reduce inputs
                continue;
            }

            let reduces: Vec<DistTask> = (0..spec.num_partitions)
                .map(|p| {
                    DistTask::new(PlanFragment {
                        schema: schema.clone(),
                        input: PlanInput::Fetch { sources: fetch_sources(reg, &spec.prefix, p) },
                        ops: spec.reduce_ops.clone(),
                        sink: spec.reduce_sink.clone(),
                    })
                })
                .collect();
            match self.execute_traced(&reduces) {
                Ok(traced) => {
                    return Ok(traced.into_iter().map(|(r, _, _)| r).collect());
                }
                Err(PoolError::FetchFailed { task: _, failure }) => {
                    rounds += 1;
                    if rounds > self.cfg.max_shuffle_regens {
                        return Err(PoolError::ShuffleRegensExhausted {
                            prefix: spec.prefix.clone(),
                            rounds,
                        });
                    }
                    // Let in-flight reduces of the aborted round settle
                    // so their answers can't be mistaken for the next
                    // round's (task ids restart at 0 every job).
                    self.quiesce();
                    if !failure.stale {
                        // The peer is unreachable or serving unusable
                        // bytes: take it down. invalidate_dead_outputs
                        // reaps its registry entries on the next pass.
                        self.fail_address(&failure.addr);
                    }
                    // Stale epoch needs no invalidation: the registry has
                    // already moved on, and the rebuilt sources carry the
                    // new epoch.
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Runs the given map tasks with local-bucket sinks at the registry's
    /// current epoch and registers their outputs. An output whose
    /// producer died before registration counts as lost — it was
    /// produced but never servable, and the next round re-produces it.
    fn produce_map_outputs(
        &mut self,
        map_tasks: &[DistTask],
        spec: &ShuffleSpec,
        which: &[usize],
        reg: &mut ShuffleRegistry,
    ) -> Result<(), PoolError> {
        let epoch = reg.epoch;
        let staged: Vec<DistTask> = which
            .iter()
            .map(|&task| {
                let mut frag = map_tasks[task].fragment.clone();
                frag.sink = PlanSink::ShuffleWriteLocal {
                    partitioner: spec.partitioner.clone(),
                    arg: spec.partitioner_arg.clone(),
                    num_partitions: spec.num_partitions,
                    prefix: spec.prefix.clone(),
                    task,
                    epoch,
                };
                DistTask { fragment: frag, payload: map_tasks[task].payload.clone() }
            })
            .collect();
        let traced = self.execute_traced(&staged)?;
        let mut lost = 0u64;
        let mut regenerated = 0u64;
        for (i, (result, seat, gen)) in traced.into_iter().enumerate() {
            let task = which[i];
            let counts = match result.output {
                TaskOutput::BucketCounts(c) => c,
                other => panic!("shuffle map task returned {other:?}, not bucket counts"),
            };
            let port = self.slots[seat].shuffle_port;
            if self.slots[seat].gen != gen || !self.slots[seat].is_live() || port == 0 {
                lost += 1;
                continue;
            }
            if reg.register(task, MapOutputEntry { seat, gen, port, epoch, counts }) && epoch > 0 {
                regenerated += 1;
            }
        }
        self.counters.map_outputs_lost.add(lost);
        self.counters.map_outputs_regenerated.add(regenerated);
        Ok(())
    }

    /// Drops registry entries whose producer incarnation is no longer
    /// live and counts them lost.
    fn invalidate_dead_outputs(&self, reg: &mut ShuffleRegistry) {
        let live: Vec<(u64, bool)> = self.slots.iter().map(|s| (s.gen, s.is_live())).collect();
        let before = reg.entries.len();
        reg.entries.retain(|_, e| live[e.seat] == (e.gen, true));
        self.counters.map_outputs_lost.add((before - reg.entries.len()) as u64);
    }

    /// Takes down the live seat currently serving `addr` (shape
    /// `127.0.0.1:<port>`). Entries registered against an *older*
    /// incarnation of this seat fall out via the gen check in
    /// [`Self::invalidate_dead_outputs`] instead.
    fn fail_address(&mut self, addr: &str) {
        let Some(port) = addr.rsplit(':').next().and_then(|p| p.parse::<u16>().ok()) else {
            return;
        };
        for seat in 0..self.slots.len() {
            if self.slots[seat].shuffle_port == port {
                self.take_down(seat, self.slots[seat].gen, "unusable shuffle server");
            }
        }
    }

    /// Waits for every Busy slot to settle (answer, die, or hit its
    /// deadline) after an aborted job. Anything still wedged past the
    /// task timeout is taken down so its eventual answer arrives under a
    /// stale incarnation and is discarded.
    fn quiesce(&mut self) {
        let deadline = Instant::now() + self.cfg.task_timeout;
        while self.slots.iter().any(|s| matches!(s.state, SlotState::Busy { .. })) {
            if Instant::now() >= deadline {
                break;
            }
            match self.events_rx.recv_timeout(Duration::from_millis(5)) {
                Ok(Event::Msg {
                    seat,
                    gen,
                    msg: WorkerMsg::TaskOk { id, .. } | WorkerMsg::TaskErr { id, .. },
                    ..
                }) if self.slots[seat].gen == gen => {
                    self.settle(seat, id);
                }
                Ok(Event::Msg { .. }) => {}
                Ok(Event::Gone { seat, gen, reason }) => self.take_down(seat, gen, &reason),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        for seat in 0..self.slots.len() {
            if matches!(self.slots[seat].state, SlotState::Busy { .. }) {
                self.take_down(seat, self.slots[seat].gen, "wedged during quiesce");
            }
        }
    }

    /// Discards events and in-flight bookkeeping left over from an
    /// aborted previous job. `Gone` events are still honoured (the
    /// worker is genuinely dead, just not reassigned — its task belongs
    /// to a job that already failed).
    fn reset_for_new_job(&mut self) {
        while let Ok(ev) = self.events_rx.try_recv() {
            if let Event::Gone { seat, gen, reason } = ev {
                self.take_down(seat, gen, &reason);
            }
        }
        for slot in &mut self.slots {
            if matches!(slot.state, SlotState::Busy { .. }) {
                slot.state = SlotState::Idle;
            }
        }
    }

    fn respawn_possible(&self) -> bool {
        self.slots.iter().any(|s| !s.is_live() && s.respawns_left > 0 && s.next_respawn.is_some())
    }

    fn respawn_due(&mut self) {
        for seat in 0..self.slots.len() {
            let due = {
                let s = &self.slots[seat];
                !s.is_live()
                    && s.respawns_left > 0
                    && s.next_respawn.is_some_and(|t| Instant::now() >= t)
            };
            if due {
                self.slots[seat].respawns_left -= 1;
                match self.spawn_worker(seat) {
                    Ok(()) => self.counters.workers_respawned.add(1),
                    // try again while the budget lasts, backoff grown
                    Err(_) => self.schedule_respawn(seat),
                }
            }
        }
    }

    fn assign_pending(
        &mut self,
        pending: &mut VecDeque<(usize, u32)>,
        tasks: &[DistTask],
        job: u64,
    ) {
        for seat in 0..self.slots.len() {
            if pending.is_empty() {
                return;
            }
            if matches!(self.slots[seat].state, SlotState::Idle) {
                let (task, attempt) = pending.pop_front().expect("checked non-empty");
                if let Err(reason) = self.dispatch(seat, task, attempt, &tasks[task], job) {
                    // The send itself failed: the task never reached the
                    // worker, so requeue it at the same attempt. Clear the
                    // Busy state first so it is not reassigned a second
                    // time.
                    self.slots[seat].state = SlotState::Idle;
                    pending.push_front((task, attempt));
                    self.take_down(seat, self.slots[seat].gen, &reason);
                }
            }
        }
    }

    /// Sends one task to one worker, applying any injected dispatch
    /// fault. Returns `Err(reason)` if the transport write failed.
    fn dispatch(
        &mut self,
        seat: usize,
        task: usize,
        attempt: u32,
        dist: &DistTask,
        job: u64,
    ) -> Result<(), String> {
        let fault = self
            .cfg
            .faults
            .as_ref()
            .and_then(|p| p.strike(Site::Dispatch { job, task: task as u64, attempt }));
        let deadline = Instant::now() + self.cfg.task_timeout;
        self.slots[seat].state = SlotState::Busy { task, attempt, deadline };
        self.counters.tasks_dispatched.add(1);

        let msg = DriverMsg::Task {
            id: task as u64,
            attempt,
            fragment: dist.fragment.clone(),
            has_payload: dist.payload.is_some(),
        };

        match fault {
            Some(Fault::DropFrame) => {
                // the worker never hears about the task; the per-task
                // deadline recovers it
                return Ok(());
            }
            Some(Fault::KillWorker) => {
                // Fail-stop crash at dispatch: the victim dies before the
                // task frame lands, so the in-flight task is always
                // recovered by reassignment (never by a duplicate
                // completion racing the kill). The reader thread reports
                // EOF and the Gone path takes over.
                if let Some(child) = &mut self.slots[seat].child {
                    let _ = child.kill();
                }
                return Ok(());
            }
            Some(Fault::DelayFrame(d)) => std::thread::sleep(d),
            _ => {}
        }

        let payload_len = dist.payload.as_ref().map(|p| p.len() as u64).unwrap_or(0);
        let writer = self.slots[seat].writer.as_mut().expect("live worker has a writer");
        let send_result = match fault {
            Some(f @ (Fault::TruncateFrame | Fault::CorruptFrame)) => {
                // Build the real frame, then tear it (the length prefix
                // promises bytes that never come: the worker wedges
                // mid-read) or flip its last payload byte after the CRC
                // (the worker's decoder rejects it and fail-stops).
                let mut frame = Vec::new();
                send_msg(&mut frame, &msg).map_err(|e| format!("dispatch: {e}"))?;
                if f == Fault::TruncateFrame {
                    frame.truncate(frame.len() / 2);
                } else if let Some(last) = frame.last_mut() {
                    *last ^= 0x40;
                }
                writer.write_all(&frame)
            }
            _ => {
                let r = send_msg(writer, &msg);
                match (&r, &dist.payload) {
                    (Ok(()), Some(p)) => write_frame(writer, p),
                    _ => r,
                }
            }
        };
        send_result.map_err(|e| format!("dispatch: {e}"))?;
        let _ = writer.flush();
        self.counters.bytes_tx.add(payload_len);
        Ok(())
    }

    fn handle_event(
        &mut self,
        ev: Event,
        results: &mut [Option<(TaskResult, usize, u64)>],
        pending: &mut VecDeque<(usize, u32)>,
        done: &mut usize,
    ) -> Result<(), PoolError> {
        match ev {
            Event::Msg { seat, gen, msg, rows } => {
                if self.slots[seat].gen != gen {
                    return Ok(()); // stale incarnation
                }
                match msg {
                    WorkerMsg::TaskOk { id, output, micros: _, fetch_retries, fetch_bytes } => {
                        let Some((task, _)) = self.settle(seat, id) else { return Ok(()) };
                        self.slots[seat].consecutive_failures = 0;
                        self.counters.fetch_retries.add(fetch_retries);
                        self.counters.shuffle_bytes_fetched_remote.add(fetch_bytes);
                        if results[task].is_some() {
                            return Ok(()); // duplicate of an already-recovered task
                        }
                        let bytes = rows.as_ref().map(|r| r.len() as u64).unwrap_or(0);
                        self.counters.bytes_rx.add(bytes);
                        results[task] = Some((TaskResult { output, payload: rows }, seat, gen));
                        *done += 1;
                        self.counters.tasks_completed.add(1);
                    }
                    WorkerMsg::TaskErr { id, message, retryable, fetch_retries, fetch } => {
                        let Some((task, attempt)) = self.settle(seat, id) else { return Ok(()) };
                        self.counters.fetch_retries.add(fetch_retries);
                        if let Some(failure) = fetch {
                            // escalate to the lost-output recovery loop
                            // instead of burning generic task retries
                            self.counters.fetch_failures.add(1);
                            return Err(PoolError::FetchFailed { task, failure });
                        }
                        if !retryable {
                            return Err(PoolError::TaskFailed { task, message });
                        }
                        if attempt + 1 > self.cfg.max_task_retries {
                            return Err(PoolError::RetriesExhausted {
                                task,
                                attempts: attempt + 1,
                                last: message,
                            });
                        }
                        self.counters.tasks_retried.add(1);
                        pending.push_back((task, attempt + 1));
                    }
                    // liveness traffic is consumed by the reader thread
                    WorkerMsg::Hello { .. }
                    | WorkerMsg::Pong { .. }
                    | WorkerMsg::Heartbeat { .. } => {}
                }
            }
            Event::Gone { seat, gen, reason } => {
                if self.slots[seat].gen != gen || !self.slots[seat].is_live() {
                    return Ok(()); // stale or already handled
                }
                self.mark_down(seat, &reason, Some(pending))?;
            }
        }
        Ok(())
    }

    /// Settles `seat`'s in-flight task if `id` answers it: the seat goes
    /// Idle and the task's `(index, attempt)` is returned. An answer to
    /// anything else (a task of an abandoned job) is ignored.
    fn settle(&mut self, seat: usize, id: u64) -> Option<(usize, u32)> {
        match self.slots[seat].state {
            SlotState::Busy { task, attempt, .. } if task as u64 == id => {
                self.slots[seat].state = SlotState::Idle;
                Some((task, attempt))
            }
            _ => None,
        }
    }

    /// Declares a worker lost: kills the process, schedules a respawn
    /// with jittered exponential backoff and, given a `requeue`, reassigns
    /// its in-flight task there at the next attempt — failing with
    /// [`PoolError::RetriesExhausted`] (citing `reason`) once that attempt
    /// is past the retry budget. Without a `requeue` the task is
    /// abandoned.
    fn mark_down(
        &mut self,
        seat: usize,
        reason: &str,
        requeue: Option<&mut VecDeque<(usize, u32)>>,
    ) -> Result<(), PoolError> {
        let slot = &mut self.slots[seat];
        if let Some(child) = &mut slot.child {
            let _ = child.kill();
            let _ = child.wait();
        }
        slot.child = None;
        slot.writer = None;
        let orphan = match slot.state {
            SlotState::Busy { task, attempt, .. } => Some((task, attempt + 1)),
            _ => None,
        };
        slot.state = SlotState::Down;
        self.counters.workers_lost.add(1);
        self.schedule_respawn(seat);
        let (Some(pending), Some((task, attempt))) = (requeue, orphan) else { return Ok(()) };
        // lineage-based reassignment: the task's input is either inline
        // (driver still holds it) or in the shared store, so any survivor
        // can recompute it
        self.counters.tasks_reassigned.add(1);
        if attempt > self.cfg.max_task_retries {
            return Err(PoolError::RetriesExhausted {
                task,
                attempts: attempt,
                last: reason.into(),
            });
        }
        pending.push_back((task, attempt));
        Ok(())
    }

    /// Takes a current incarnation down without requeueing its task: for
    /// loss reports and wedges met between jobs or while an aborted job
    /// settles (the task belongs to a job that already failed), and for
    /// a seat whose task was already requeued. Stale reports are ignored.
    fn take_down(&mut self, seat: usize, gen: u64, reason: &str) {
        if self.slots[seat].gen == gen && self.slots[seat].is_live() {
            // without a requeue, mark_down has no budget to exhaust
            let _ = self.mark_down(seat, reason, None);
        }
    }

    fn check_timeouts(&mut self, pending: &mut VecDeque<(usize, u32)>) -> Result<(), PoolError> {
        let now = Instant::now();
        for seat in 0..self.slots.len() {
            if !self.slots[seat].is_live() {
                continue;
            }
            let silent =
                self.slots[seat].last_seen.lock().unwrap().elapsed() > self.cfg.heartbeat_timeout;
            let overdue = matches!(
                self.slots[seat].state,
                SlotState::Busy { deadline, .. } if now >= deadline
            );
            if silent || overdue {
                let reason = if silent { "heartbeat timeout" } else { "task deadline exceeded" };
                self.mark_down(seat, reason, Some(pending))?;
            }
        }
        Ok(())
    }

    /// Counts a failure of `seat` and, while its respawn budget lasts,
    /// schedules the next respawn after a jittered exponential backoff
    /// (exponent: the seat's consecutive failures), drawn from the pool's
    /// seeded stream so seats that died together don't respawn in
    /// lockstep.
    fn schedule_respawn(&mut self, seat: usize) {
        let exp = self.slots[seat].consecutive_failures;
        self.slots[seat].consecutive_failures = exp.saturating_add(1);
        self.slots[seat].next_respawn = None;
        if self.slots[seat].respawns_left > 0 {
            let wait = jittered_backoff(self.cfg.respawn_backoff, exp, self.rng);
            self.rng = splitmix64(self.rng);
            self.slots[seat].next_respawn = Some(Instant::now() + wait);
        }
    }

    /// Waits up to `timeout` for scheduled respawns to bring lost seats
    /// back, forking each as its backoff expires. Respawns normally
    /// happen inside [`Self::execute`]'s scheduling loop; call this
    /// between jobs to restore full capacity before dispatching the next
    /// stage. Returns the number of live workers afterwards.
    pub fn heal(&mut self, timeout: Duration) -> usize {
        let deadline = Instant::now() + timeout;
        loop {
            // honour loss reports that arrived while the pool was idle
            while let Ok(ev) = self.events_rx.try_recv() {
                if let Event::Gone { seat, gen, reason } = ev {
                    self.take_down(seat, gen, &reason);
                }
            }
            self.respawn_due();
            if self.live_workers() == self.slots.len()
                || Instant::now() >= deadline
                || !self.respawn_possible()
            {
                return self.live_workers();
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Graceful drain: ask every live worker to finish and exit, wait
    /// briefly, then kill stragglers. Idempotent.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        for slot in &mut self.slots {
            if let Some(w) = &mut slot.writer {
                let _ = send_msg(w, &DriverMsg::Drain);
                let _ = w.flush();
            }
        }
        let deadline = Instant::now() + Duration::from_secs(2);
        for slot in &mut self.slots {
            if let Some(child) = &mut slot.child {
                loop {
                    match child.try_wait() {
                        Ok(Some(_)) => break,
                        Ok(None) if Instant::now() < deadline => {
                            std::thread::sleep(Duration::from_millis(5))
                        }
                        _ => {
                            let _ = child.kill();
                            let _ = child.wait();
                            break;
                        }
                    }
                }
            }
            slot.child = None;
            slot.writer = None;
            slot.state = SlotState::Down;
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

// ---------------------------------------------------------------------------
// Reader thread
// ---------------------------------------------------------------------------

fn reader_loop(
    mut reader: BufReader<TcpStream>,
    seat: usize,
    gen: u64,
    tx: Sender<Event>,
    last_seen: Arc<Mutex<Instant>>,
    counters: Arc<PoolCounters>,
) {
    loop {
        match recv_msg::<WorkerMsg>(&mut reader) {
            Ok(Some(msg)) => {
                *last_seen.lock().unwrap() = Instant::now();
                if matches!(msg, WorkerMsg::Heartbeat { .. }) {
                    counters.heartbeats.add(1);
                    continue;
                }
                let rows = if matches!(&msg, WorkerMsg::TaskOk { output, .. } if output.has_payload())
                {
                    match recv_payload(&mut reader) {
                        Ok(p) => Some(p),
                        Err(e) => {
                            let _ = tx.send(Event::Gone {
                                seat,
                                gen,
                                reason: format!("result payload: {e}"),
                            });
                            return;
                        }
                    }
                } else {
                    None
                };
                if tx.send(Event::Msg { seat, gen, msg, rows }).is_err() {
                    return; // pool dropped
                }
            }
            Ok(None) => {
                let _ = tx.send(Event::Gone { seat, gen, reason: "connection closed".into() });
                return;
            }
            Err(e) => {
                let _ = tx.send(Event::Gone { seat, gen, reason: e.to_string() });
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_output_guard_keeps_the_newest_epoch() {
        let mut reg = ShuffleRegistry::default();
        let entry = |seat: usize, epoch: u64| MapOutputEntry {
            seat,
            gen: 1,
            port: 40000,
            epoch,
            counts: vec![1, 2],
        };
        assert!(reg.register(7, entry(0, 0)));
        // a straggling duplicate at the same epoch is rejected
        assert!(!reg.register(7, entry(1, 0)));
        assert_eq!(reg.entries[&7].seat, 0);
        // a regenerated output at a bumped epoch wins
        assert!(reg.register(7, entry(2, 1)));
        assert_eq!(reg.entries[&7].seat, 2);
        // ...and the late original can no longer clobber it
        assert!(!reg.register(7, entry(0, 0)));
        assert_eq!(reg.entries[&7].epoch, 1);
    }

    #[test]
    fn bucket_keys_skip_empty_buckets() {
        let counts = vec![vec![2, 0, 1], vec![0, 0, 3], vec![1, 0, 0]];
        assert_eq!(
            bucket_keys_for_partition("sh", &counts, 0),
            vec!["sh/task-00000/bucket-00000", "sh/task-00002/bucket-00000"]
        );
        assert!(bucket_keys_for_partition("sh", &counts, 1).is_empty());
        assert_eq!(
            bucket_keys_for_partition("sh", &counts, 2),
            vec!["sh/task-00000/bucket-00002", "sh/task-00001/bucket-00002"]
        );
    }

    #[test]
    fn pool_error_displays() {
        let e = PoolError::RetriesExhausted { task: 3, attempts: 4, last: "gone".into() };
        assert!(e.to_string().contains("task 3"));
        assert!(PoolError::NoWorkers { pending: 2 }.to_string().contains("2 tasks"));
    }

    #[test]
    fn find_worker_bin_rejects_missing() {
        assert!(find_worker_bin("definitely-not-a-real-binary-name").is_none());
    }
}
