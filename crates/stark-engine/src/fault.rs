//! Deterministic fault injection for chaos testing.
//!
//! Spark's resilience story — lost tasks are retried, lost workers'
//! tasks reassigned, lost map outputs regenerated from lineage — is
//! untestable by inspection, so the engine carries one seeded chaos
//! harness: a [`FaultPlan`]. A plan holds one [`Fault`], and the fault's
//! variant fixes the layer that consults it:
//!
//! * **task attempts** — the executor, at the start of every attempt
//!   ([`EngineConfig::faults`](crate::EngineConfig));
//! * **task dispatches** — `WorkerPool::dispatch`, before a task frame
//!   goes to a worker process
//!   ([`WorkerPoolConfig::faults`](crate::WorkerPoolConfig));
//! * **bucket fetches** — each worker's shuffle server, on every remote
//!   bucket request. Workers are separate processes, so the pool hands
//!   them the plan as `--faults <spec>` and each worker counts its own
//!   strikes.
//!
//! Every strike is decided by one rule, `FaultPlan::strike`: layer
//! match, target match, the attempt gate, the seeded draw, the strike
//! cap, and the count. Whether a site is struck is a pure function of the
//! seed and the site, so a failing chaos run reproduces exactly from its
//! seed (CI exports it; locally `STARK_CHAOS_SEED=<n>` re-runs the same
//! schedule). The attempt gate is what makes recovery converge: retries,
//! reassignments and regenerated shuffle epochs run past it and are never
//! struck again, which lets tests pin `tasks_retried == injected`,
//! `tasks_reassigned == injected` and `fetch_retries == strikes`.

use crate::storage::crc32;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// What an injected fault does. The variant fixes the layer it strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    // -- task attempts (executor) --
    /// The attempt panics; a retry past the plan's `fail_attempts` gate
    /// succeeds (a lost executor, a flaky read). Task retry must fully
    /// absorb these: results are identical to a fault-free run.
    Transient,
    /// Every attempt panics (a poison record, a deterministic bug): the
    /// gate defaults to unlimited, the retry budget exhausts and the job
    /// surfaces a permanent [`TaskError`](crate::TaskError).
    Panic,
    /// Stall the attempt this long before computing (a straggler). The
    /// sleep is cooperative, so a stalled attempt that loses a
    /// speculation race or hits a deadline releases its worker promptly;
    /// a speculative duplicate runs past the gate and is not stalled.
    Delay(Duration),
    /// Shrink the context's effective memory budget to at most this many
    /// bytes (sticky until [`MemoryManager::lift_restriction`](crate::MemoryManager)).
    /// The struck attempt proceeds normally; every *later* reservation
    /// spills or evicts. Results must not change.
    MemoryPressure(u64),
    // -- task dispatches (worker pool) --
    /// SIGKILL the worker process at dispatch — a fail-stop crash,
    /// detected by connection EOF.
    KillWorker,
    /// Drop the task frame: the worker idles, heartbeating healthily, and
    /// only the per-task deadline catches it.
    DropFrame,
    /// Send a torn frame whose length prefix promises more bytes than
    /// follow: the worker blocks mid-read, wedged but alive, until the
    /// task deadline fires.
    TruncateFrame,
    /// Flip a payload byte after the checksum is computed: the worker's
    /// frame decoder rejects it and the worker fail-stops.
    CorruptFrame,
    /// Stall the dispatch this long (slow network); the task completes.
    DelayFrame(Duration),
    // -- bucket fetches (shuffle server) --
    /// Answer with an explicit refusal; the client retries with backoff.
    RefuseFetch,
    /// Send the header and half the remaining payload, then hang up — a
    /// torn transfer the client resumes from its received offset.
    DropBucket,
    /// Send the full payload with one byte flipped after the CRC was
    /// announced; the client rejects it and refetches from offset 0.
    CorruptBucket,
    /// Stall this long before serving (a slow peer); no retry is spent.
    DelayFetch(Duration),
    /// The serving worker exits: its map outputs are lost and the driver
    /// regenerates them via lineage on survivors.
    KillServingWorker,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layer {
    Task,
    Dispatch,
    Fetch,
}

impl Fault {
    fn layer(self) -> Layer {
        use Fault::*;
        match self {
            Transient | Panic | Delay(_) | MemoryPressure(_) => Layer::Task,
            KillWorker | DropFrame | TruncateFrame | CorruptFrame | DelayFrame(_) => {
                Layer::Dispatch
            }
            RefuseFetch | DropBucket | CorruptBucket | DelayFetch(_) | KillServingWorker => {
                Layer::Fetch
            }
        }
    }

    /// Spec name and argument (delays in µs, memory in bytes; 0 when the
    /// variant carries none).
    fn parts(self) -> (&'static str, u64) {
        let us = |d: Duration| d.as_micros() as u64;
        match self {
            Fault::Transient => ("transient", 0),
            Fault::Panic => ("panic", 0),
            Fault::Delay(d) => ("delay", us(d)),
            Fault::MemoryPressure(bytes) => ("memory-pressure", bytes),
            Fault::KillWorker => ("kill-worker", 0),
            Fault::DropFrame => ("drop-frame", 0),
            Fault::TruncateFrame => ("truncate-frame", 0),
            Fault::CorruptFrame => ("corrupt-frame", 0),
            Fault::DelayFrame(d) => ("delay-frame", us(d)),
            Fault::RefuseFetch => ("refuse-fetch", 0),
            Fault::DropBucket => ("drop-bucket", 0),
            Fault::CorruptBucket => ("corrupt-bucket", 0),
            Fault::DelayFetch(d) => ("delay-fetch", us(d)),
            Fault::KillServingWorker => ("kill-serving-worker", 0),
        }
    }

    fn from_parts(name: &str, arg: u64) -> Option<Fault> {
        use Fault::*;
        let d = Duration::from_micros(arg);
        [
            Transient,
            Panic,
            Delay(d),
            MemoryPressure(arg),
            KillWorker,
            DropFrame,
            TruncateFrame,
            CorruptFrame,
            DelayFrame(d),
            RefuseFetch,
            DropBucket,
            CorruptBucket,
            DelayFetch(d),
            KillServingWorker,
        ]
        .into_iter()
        .find(|f| f.parts().0 == name)
    }
}

/// Narrows a plan to one partition, stage or bucket key. A target only
/// matches sites of the layer it names: `Partition` and `Stage` task
/// attempts, `Key` bucket fetches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Target {
    /// Every task attempt computing this partition index, in every stage.
    Partition(usize),
    /// Every task attempt of this stage ordinal (stages number job
    /// sweeps on a context, starting at 0).
    Stage(u64),
    /// Every fetch of a bucket key containing this substring (e.g.
    /// `"task-00000/"`: one map task's outputs, so exactly one worker).
    Key(String),
}

/// One place a plan is consulted.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Site<'a> {
    /// An attempt of `partition`'s task in stage `stage`.
    Task { stage: u64, partition: usize, attempt: u32 },
    /// A dispatch of task `task` of pool job `job`.
    Dispatch { job: u64, task: u64, attempt: u32 },
    /// A bucket request; its shuffle epoch counts as the attempt, so
    /// outputs regenerated at a bumped epoch serve cleanly.
    Fetch { key: &'a str, epoch: u64 },
}

/// A seeded, deterministic fault plan.
///
/// ```
/// use stark_engine::{Context, EngineConfig, FaultPlan};
/// use std::sync::Arc;
///
/// let chaos = Arc::new(FaultPlan::transient(0xC4A05, 0.10));
/// let ctx = Context::with_config(EngineConfig {
///     parallelism: 4,
///     max_task_retries: 3,
///     faults: Some(chaos.clone()),
///     ..EngineConfig::default()
/// });
/// // ~10% of tasks panic once and are retried; the result is identical
/// // to a fault-free run.
/// let sum = ctx.parallelize((1..=100).collect(), 16).reduce(|a, b| a + b);
/// assert_eq!(sum, Some(5050));
/// assert_eq!(ctx.metrics().tasks_retried, chaos.injected());
/// ```
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    fault: Fault,
    /// Probability that an eligible site is struck.
    rate: f64,
    target: Option<Target>,
    /// Attempts below this are eligible (default 1: only first attempts;
    /// unlimited for [`Fault::Panic`]).
    fail_attempts: u32,
    /// When set, strike at most this many sites in total.
    max_strikes: Option<u64>,
    injected: AtomicU64,
}

impl FaultPlan {
    /// Plan striking every eligible site of `fault`'s layer independently
    /// with probability `rate` — the "p% of tasks fail" configuration.
    pub fn new(seed: u64, rate: f64, fault: Fault) -> Self {
        assert!((0.0..=1.0).contains(&rate), "fault rate must be in [0, 1]");
        let fail_attempts = if fault == Fault::Panic { u32::MAX } else { 1 };
        FaultPlan {
            seed,
            fault,
            rate,
            target: None,
            fail_attempts,
            max_strikes: None,
            injected: AtomicU64::new(0),
        }
    }

    /// Transient task faults at `rate` — the standard chaos configuration.
    pub fn transient(seed: u64, rate: f64) -> Self {
        Self::new(seed, rate, Fault::Transient)
    }

    /// Memory-pressure task faults at `rate`: a struck attempt shrinks the
    /// context's effective budget to `budget` bytes mid-job.
    pub fn memory_pressure(seed: u64, rate: f64, budget: u64) -> Self {
        Self::new(seed, rate, Fault::MemoryPressure(budget))
    }

    /// Plan that strikes exactly the first eligible site it sees and
    /// nothing else — "kill one worker mid-job", deterministically.
    pub fn once(fault: Fault) -> Self {
        Self::new(0, 1.0, fault).with_max_strikes(1)
    }

    /// Strikes only sites matching `target`.
    pub fn with_target(mut self, target: Target) -> Self {
        self.target = Some(target);
        self
    }

    /// Number of attempts of a site that are eligible. A transient fault
    /// with `n` needs a retry budget of at least `n` to recover.
    pub fn with_fail_attempts(mut self, n: u32) -> Self {
        assert!(n >= 1, "fail_attempts must be at least 1");
        self.fail_attempts = n;
        self
    }

    /// Caps the total number of strikes.
    pub fn with_max_strikes(mut self, n: u64) -> Self {
        self.max_strikes = Some(n);
        self
    }

    /// Strikes so far (in this process: a fetch plan counts in workers).
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Whether this plan strikes bucket fetches — the layer that runs in
    /// worker processes, so the pool forwards it to each worker.
    pub(crate) fn strikes_fetches(&self) -> bool {
        self.fault.layer() == Layer::Fetch
    }

    /// The one strike rule: returns the fault to apply at `site`, or
    /// `None` to proceed normally. Counts every strike; the cap is
    /// claimed atomically, so concurrent callers cannot overshoot it.
    pub(crate) fn strike(&self, site: Site<'_>) -> Option<Fault> {
        let (layer, a, b, attempt) = match site {
            Site::Task { stage, partition, attempt } => {
                (Layer::Task, stage, partition as u64, u64::from(attempt))
            }
            Site::Dispatch { job, task, attempt } => {
                (Layer::Dispatch, job, task, u64::from(attempt))
            }
            Site::Fetch { key, epoch } => {
                (Layer::Fetch, epoch, u64::from(crc32(key.as_bytes())), epoch)
            }
        };
        let targeted = match (&self.target, site) {
            (None, _) => true,
            (Some(Target::Partition(p)), Site::Task { partition, .. }) => partition == *p,
            (Some(Target::Stage(s)), Site::Task { stage, .. }) => stage == *s,
            (Some(Target::Key(k)), Site::Fetch { key, .. }) => key.contains(k.as_str()),
            _ => false,
        };
        if layer != self.fault.layer() || !targeted || attempt >= u64::from(self.fail_attempts) {
            return None;
        }
        let h = splitmix64(
            self.seed
                ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F),
        );
        if unit(h) >= self.rate {
            return None;
        }
        let cap = self.max_strikes.unwrap_or(u64::MAX);
        self.injected
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| (n < cap).then_some(n + 1))
            .ok()?;
        Some(self.fault)
    }

    /// Encodes the plan (not its strike count) for a worker's `--faults`
    /// flag: `fault:arg|seed|rate|fail_attempts|max_strikes|target`, with
    /// an empty cap for "uncapped" and an empty or `partition:N` /
    /// `stage:N` / `key:SUBSTR` target.
    pub(crate) fn to_spec(&self) -> String {
        let (name, arg) = self.fault.parts();
        let cap = self.max_strikes.map(|n| n.to_string()).unwrap_or_default();
        let target = match &self.target {
            None => String::new(),
            Some(Target::Partition(p)) => format!("partition:{p}"),
            Some(Target::Stage(s)) => format!("stage:{s}"),
            Some(Target::Key(k)) => format!("key:{k}"),
        };
        format!("{name}:{arg}|{}|{}|{}|{cap}|{target}", self.seed, self.rate, self.fail_attempts)
    }

    /// Decodes [`Self::to_spec`]'s format. Any mismatch is an error, so a
    /// worker handed a bad spec refuses to start instead of running
    /// unarmed.
    pub(crate) fn from_spec(spec: &str) -> Result<FaultPlan, String> {
        fn num<T: std::str::FromStr>(s: &str) -> Option<T> {
            s.parse().ok()
        }
        let decode = || {
            let mut f = spec.splitn(6, '|');
            let (name, arg) = f.next()?.split_once(':')?;
            let mut plan =
                FaultPlan::new(num(f.next()?)?, 1.0, Fault::from_parts(name, num(arg)?)?);
            plan.rate = num::<f64>(f.next()?).filter(|r| (0.0..=1.0).contains(r))?;
            plan.fail_attempts = num(f.next()?).filter(|&n| n >= 1)?;
            plan.max_strikes = match f.next()? {
                "" => None,
                n => Some(num(n)?),
            };
            plan.target = match f.next()? {
                "" => None,
                t => Some(match t.split_once(':')? {
                    ("partition", p) => Target::Partition(num(p)?),
                    ("stage", s) => Target::Stage(num(s)?),
                    ("key", k) => Target::Key(k.to_string()),
                    _ => return None,
                }),
            };
            Some(plan)
        };
        decode().ok_or_else(|| format!("malformed fault spec {spec:?}"))
    }
}

/// splitmix64 finaliser: the one hash behind every seeded draw — fault
/// strikes, backoff jitter and `Rdd::sample`.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a hash to a uniform draw in `[0, 1)`.
pub(crate) fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Jittered exponential backoff: `base · 2^min(exp, 6)`, scaled into
/// `[0.5, 1.5)` by a draw keyed on `key`, so work that failed together
/// does not retry in lockstep. Shared by task retries, worker respawns
/// and shuffle fetches.
pub(crate) fn jittered_backoff(base: Duration, exp: u32, key: u64) -> Duration {
    (base * (1u32 << exp.min(6))).mul_f64(0.5 + unit(splitmix64(key)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::inject_task_fault;
    use crate::memory::MemoryManager;

    fn hits(plan: &FaultPlan, stage: u64, partition: usize) -> bool {
        plan.strike(Site::Task { stage, partition, attempt: 0 }).is_some()
    }

    #[test]
    fn probability_draws_are_deterministic_and_proportional() {
        let a = FaultPlan::transient(42, 0.25);
        let b = FaultPlan::transient(42, 0.25);
        let hit_count: usize = (0..40u64)
            .flat_map(|s| (0..100usize).map(move |p| (s, p)))
            .filter(|&(s, p)| hits(&a, s, p))
            .count();
        for s in 0..40u64 {
            for p in 0..100usize {
                assert_eq!(hits(&a, s, p), hits(&b, s, p), "same seed must draw identically");
            }
        }
        let rate = hit_count as f64 / 4000.0;
        assert!((rate - 0.25).abs() < 0.05, "got hit rate {rate}, expected ~0.25");
        // a different seed produces a different schedule
        let c = FaultPlan::transient(43, 0.25);
        let differs = (0..40u64)
            .flat_map(|s| (0..100usize).map(move |p| (s, p)))
            .any(|(s, p)| hits(&a, s, p) != hits(&c, s, p));
        assert!(differs, "different seeds must differ somewhere");
    }

    #[test]
    fn scope_targets_partition_and_stage() {
        let p = FaultPlan::new(1, 1.0, Fault::Transient).with_target(Target::Partition(3));
        assert!(hits(&p, 0, 3) && hits(&p, 9, 3));
        assert!(!hits(&p, 0, 2));
        let s = FaultPlan::new(1, 1.0, Fault::Transient).with_target(Target::Stage(2));
        assert!(hits(&s, 2, 0) && hits(&s, 2, 7));
        assert!(!hits(&s, 3, 0));
    }

    #[test]
    fn transient_faults_stop_after_fail_attempts() {
        let mm = MemoryManager::new(None, std::sync::Arc::new(crate::metrics::Metrics::default()));
        let plan = FaultPlan::new(7, 1.0, Fault::Transient)
            .with_target(Target::Partition(0))
            .with_fail_attempts(2);
        for attempt in 0..2 {
            let err = std::panic::catch_unwind(|| inject_task_fault(&plan, 0, 0, attempt, &mm));
            assert!(err.is_err(), "attempt {attempt} must fail");
        }
        let ok = std::panic::catch_unwind(|| inject_task_fault(&plan, 0, 0, 2, &mm));
        assert!(ok.is_ok(), "attempt past the threshold must pass");
        assert_eq!(plan.injected(), 2);
    }

    #[test]
    fn memory_pressure_restricts_without_panicking() {
        let mm = MemoryManager::new(
            Some(1_000_000),
            std::sync::Arc::new(crate::metrics::Metrics::default()),
        );
        let plan =
            FaultPlan::new(9, 1.0, Fault::MemoryPressure(64)).with_target(Target::Partition(1));
        inject_task_fault(&plan, 0, 1, 0, &mm); // strikes: no panic, budget shrinks
        assert_eq!(plan.injected(), 1);
        assert_eq!(mm.budget(), Some(64));
        inject_task_fault(&plan, 0, 1, 1, &mm); // past fail_attempts: no-op
        assert_eq!(plan.injected(), 1);
        inject_task_fault(&plan, 0, 0, 0, &mm); // untargeted partition: no-op
        assert_eq!(plan.injected(), 1);
        mm.lift_restriction();
        assert_eq!(mm.budget(), Some(1_000_000));
    }

    #[test]
    fn rate_bounds_validated() {
        let r = std::panic::catch_unwind(|| FaultPlan::transient(0, 1.5));
        assert!(r.is_err());
    }

    #[test]
    fn transport_draws_are_deterministic_and_skip_retries() {
        let a = FaultPlan::new(99, 0.3, Fault::KillWorker);
        let b = FaultPlan::new(99, 0.3, Fault::KillWorker);
        let draw =
            |p: &FaultPlan, job, task, attempt| p.strike(Site::Dispatch { job, task, attempt });
        let mut hit_count = 0usize;
        for job in 0..10u64 {
            for task in 0..100u64 {
                let da = draw(&a, job, task, 0);
                assert_eq!(da, draw(&b, job, task, 0), "same seed must draw identically");
                if da.is_some() {
                    hit_count += 1;
                }
                // reassigned attempts are never struck again
                assert_eq!(draw(&a, job, task, 1), None);
            }
        }
        let rate = hit_count as f64 / 1000.0;
        assert!((rate - 0.3).abs() < 0.08, "got strike rate {rate}, expected ~0.3");
        assert_eq!(a.injected() as usize, hit_count);
        // a dispatch plan never strikes another layer
        assert!(!hits(&FaultPlan::new(99, 1.0, Fault::KillWorker), 0, 0));
    }

    #[test]
    fn once_strikes_exactly_one_dispatch() {
        let c = FaultPlan::once(Fault::CorruptFrame);
        let draw = |task| c.strike(Site::Dispatch { job: 0, task, attempt: 0 });
        assert_eq!(draw(0), Some(Fault::CorruptFrame));
        for task in 1..50 {
            assert_eq!(draw(task), None);
        }
        assert_eq!(c.injected(), 1);
    }

    #[test]
    fn fault_spec_roundtrip_and_garbage_rejection() {
        for plan in [
            FaultPlan::once(Fault::KillServingWorker)
                .with_target(Target::Key("task-00000/".into())),
            FaultPlan::once(Fault::RefuseFetch),
            FaultPlan::once(Fault::DropBucket).with_max_strikes(3),
            FaultPlan::once(Fault::CorruptBucket),
            FaultPlan::new(5, 1.0, Fault::DelayFetch(Duration::from_millis(75)))
                .with_max_strikes(2)
                .with_fail_attempts(2),
            FaultPlan::new(805381, 0.1, Fault::Delay(Duration::from_micros(50)))
                .with_target(Target::Stage(4)),
            FaultPlan::memory_pressure(3, 0.25, 16 * 1024).with_target(Target::Partition(7)),
            FaultPlan::new(1, 0.5, Fault::Panic),
            FaultPlan::new(2, 0.5, Fault::DelayFrame(Duration::from_millis(50))),
        ] {
            let spec = plan.to_spec();
            let back = FaultPlan::from_spec(&spec).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(format!("{back:?}"), format!("{plan:?}"), "spec {spec:?} must roundtrip");
        }
        for garbage in [
            "garbage|x|y|z",
            "",
            "kill-worker:0|1|1.5|1||",
            "kill-worker:0|1|1|0||",
            "transient:0|1|0.1|1||galaxy:3",
            "transient|1|0.1|1||",
        ] {
            assert!(FaultPlan::from_spec(garbage).is_err(), "{garbage:?} must be rejected");
        }
    }

    #[test]
    fn fetch_chaos_respects_epoch_filter_and_cap() {
        let plan = FaultPlan::once(Fault::RefuseFetch)
            .with_max_strikes(2)
            .with_target(Target::Key("task-00001/".into()));
        let draw = |key, epoch| plan.strike(Site::Fetch { key, epoch });
        // wrong key: never struck
        assert_eq!(draw("sh/task-00000/bucket-00000", 0), None);
        // regenerated epoch: never struck, even on a matching key
        assert_eq!(draw("sh/task-00001/bucket-00000", 1), None);
        // matching key at epoch 0: struck until the cap
        assert_eq!(draw("sh/task-00001/bucket-00000", 0), Some(Fault::RefuseFetch));
        assert_eq!(draw("sh/task-00001/bucket-00001", 0), Some(Fault::RefuseFetch));
        assert_eq!(draw("sh/task-00001/bucket-00002", 0), None, "cap exhausted");
        assert_eq!(plan.injected(), 2);
    }

    #[test]
    fn max_strikes_caps_under_concurrency() {
        let c = std::sync::Arc::new(FaultPlan::new(5, 1.0, Fault::DropFrame).with_max_strikes(3));
        std::thread::scope(|s| {
            for job in 0..8u64 {
                let c = c.clone();
                s.spawn(move || {
                    for task in 0..100u64 {
                        let _ = c.strike(Site::Dispatch { job, task, attempt: 0 });
                    }
                });
            }
        });
        assert_eq!(c.injected(), 3);
    }

    /// `(stage, partition)` / `(job, task)` pairs seed 805381 strikes at
    /// rate 0.10 over 8 × 64 — both layers share one draw, so one list.
    #[rustfmt::skip]
    const GOLDEN_805381: [(u64, u64); 41] = [
        (0, 17), (0, 18), (0, 27), (0, 37), (0, 38), (0, 55), (0, 58), (1, 32), (1, 37),
        (2, 47), (2, 55), (3, 22), (3, 26), (3, 28), (3, 41), (3, 59), (4, 6), (4, 34),
        (4, 37), (4, 44), (5, 5), (5, 7), (5, 37), (5, 54), (6, 4), (6, 12), (6, 18),
        (6, 22), (6, 24), (6, 25), (6, 37), (6, 46), (6, 59), (7, 1), (7, 2), (7, 17),
        (7, 22), (7, 31), (7, 34), (7, 46), (7, 61),
    ];

    #[test]
    fn golden_schedule_is_pinned() {
        let grid = || (0..8u64).flat_map(|a| (0..64u64).map(move |b| (a, b)));
        let tasks = FaultPlan::transient(805381, 0.10);
        let struck: Vec<(u64, u64)> =
            grid().filter(|&(s, p)| hits(&tasks, s, p as usize)).collect();
        assert_eq!(struck, GOLDEN_805381);
        let dispatch = FaultPlan::new(805381, 0.10, Fault::KillWorker);
        let struck: Vec<(u64, u64)> = grid()
            .filter(|&(job, task)| {
                dispatch.strike(Site::Dispatch { job, task, attempt: 0 }).is_some()
            })
            .collect();
        assert_eq!(struck, GOLDEN_805381);
    }
}
