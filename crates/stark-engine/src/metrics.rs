//! Engine instrumentation.
//!
//! Spark exposes task- and stage-level metrics through its UI; this engine
//! exposes the counters the STARK evaluation cares about — most notably
//! how many partition tasks ran and how many were pruned away by spatial
//! partition bounds (paper §2.1: pruned partitions "decrease the number of
//! data items to process significantly").
//!
//! Every counter set is declared once, through `counters!`: one entry
//! per counter generates the shared atomic field, the plain snapshot
//! field, its `snapshot()` load and its `diff()` rule. The engine's set
//! is [`Metrics`]; the worker pool's is
//! [`PoolStats`](crate::supervisor::PoolStats).

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotone event counter: snapshots diff by subtraction.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Counts `n` more events.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A high-water-mark gauge: a diff carries the later value, since a
/// peak has no meaningful delta.
#[derive(Debug, Default)]
pub struct Peak(AtomicU64);

impl Peak {
    /// Raises the mark to at least `n`; a lower value never regresses it.
    pub fn raise(&self, n: u64) {
        self.0.fetch_max(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Declares a counter set: a struct of shared atomic cells, its
/// plain-data snapshot (serializable, cheap to copy), `snapshot()` and
/// `diff()`. Each entry is `/// doc` `name: kind`, where `kind` is `sum`
/// (a [`Counter`]) or `peak` (a [`Peak`]). The snapshot struct is always
/// `pub`: the vendored serde derive cannot parse a substituted visibility.
macro_rules! counters {
    (
        $(#[$live_attr:meta])*
        $live_vis:vis struct $live:ident;
        $(#[$snap_attr:meta])*
        pub struct $snap:ident {
            $( $(#[$attr:meta])* $name:ident: $kind:ident, )*
        }
    ) => {
        $(#[$live_attr])*
        #[derive(Debug, Default)]
        $live_vis struct $live {
            $( $(#[$attr])* pub $name: $crate::metrics::counters!(@cell $kind), )*
        }

        impl $live {
            /// A point-in-time copy of all counters.
            pub fn snapshot(&self) -> $snap {
                $snap { $( $name: self.$name.get(), )* }
            }
        }

        $(#[$snap_attr])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
        pub struct $snap {
            $( $(#[$attr])* pub $name: u64, )*
        }

        impl $snap {
            /// Counter deltas since `earlier`; a peak carries the later
            /// value.
            pub fn diff(&self, earlier: &$snap) -> $snap {
                $snap {
                    $( $name: $crate::metrics::counters!(@diff $kind, self.$name, earlier.$name), )*
                }
            }
        }
    };
    (@cell sum) => { $crate::metrics::Counter };
    (@cell peak) => { $crate::metrics::Peak };
    (@diff sum, $later:expr, $earlier:expr) => { $later - $earlier };
    (@diff peak, $later:expr, $earlier:expr) => { $later };
}
pub(crate) use counters;

counters! {
    /// Monotonic counters shared by every job run on a [`crate::Context`].
    pub struct Metrics;
    /// Plain-data view of [`Metrics`]. Serializable so services can put
    /// per-request counter deltas on the wire.
    pub struct MetricsSnapshot {
        /// Partition tasks actually executed.
        tasks_launched: sum,
        /// Records materialised out of partition computations.
        records_read: sum,
        /// Partition tasks skipped by predicate-driven pruning.
        partitions_pruned: sum,
        /// Shuffles (full re-partitioning passes) performed.
        shuffles: sum,
        /// Actions (jobs) started.
        jobs: sum,
        /// Cumulative wall-clock time spent inside partition tasks, in
        /// nanoseconds (summed across workers, so it can exceed elapsed time).
        task_nanos: sum,
        /// Cumulative wall-clock time of whole job runs (partition sweeps),
        /// in nanoseconds. Only top-level jobs accumulate here: a shuffle
        /// materialising inside a running job is covered by the enclosing
        /// job's interval and would otherwise be double-counted.
        job_nanos: sum,
        /// Records deep-cloned out of shared partition storage because a
        /// consumer needed owned elements (the clone the zero-copy
        /// [`Partition`](crate::Partition) data path could not avoid).
        records_cloned: sum,
        /// Shallow payload bytes served by Arc-sharing a partition handle
        /// (caches, shuffle buckets, parallelized sources) instead of
        /// deep-cloning the partition on access.
        clone_bytes_avoided: sum,
        /// In-process executor task attempts that failed and were retried
        /// (each retry of each task counts once).
        tasks_retried: sum,
        /// Tasks that exhausted their retry budget (or hit a non-retryable
        /// error) and surfaced a permanent [`TaskError`](crate::TaskError).
        tasks_failed_permanently: sum,
        /// Partitions recomputed from lineage (or re-read from a
        /// checkpoint) on a post-failure attempt.
        partitions_recomputed: sum,
        /// Serialised bytes written by [`Rdd::checkpoint`](crate::Rdd).
        checkpoint_bytes: sum,
        /// Speculative duplicate attempts launched for straggling tasks.
        tasks_speculated: sum,
        /// Speculative duplicates that finished before the original attempt
        /// and supplied the partition's result.
        speculative_wins: sum,
        /// Task attempts that observed cooperative cancellation (explicit
        /// cancel, lost speculation race, or a passed deadline) and aborted.
        tasks_cancelled: sum,
        /// Top-level jobs that failed with
        /// [`TaskErrorKind::DeadlineExceeded`](crate::TaskErrorKind).
        deadline_exceeded_jobs: sum,
        /// High-water mark of accounted bytes reserved from the context's
        /// [`MemoryManager`](crate::MemoryManager).
        bytes_reserved_peak: peak,
        /// Serialised bytes written to the spill store by shuffle tasks
        /// whose reservation did not fit the memory budget.
        bytes_spilled: sum,
        /// Spill blobs (one per non-empty shuffle bucket) written.
        spill_blobs_written: sum,
        /// Cache/checkpoint cells evicted by memory pressure (budget
        /// eviction, not task-failure eviction).
        partitions_evicted_for_pressure: sum,
        /// Columnar sidecars built from row partitions (one per
        /// [`Partition::to_columns`](crate::Partition) builder run — cache
        /// hits on an already-built sidecar do not count).
        columnar_batches_built: sum,
        /// Rows evaluated by columnar predicate kernels (each surviving row
        /// counts once per kernel pass, mirroring `records_read` for the
        /// row path).
        rows_scanned_columnar: sum,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = Metrics::default();
        m.tasks_launched.add(3);
        m.records_read.add(100);
        m.partitions_pruned.add(2);
        m.shuffles.add(1);
        m.jobs.add(1);
        m.records_cloned.add(17);
        m.clone_bytes_avoided.add(4096);
        let s = m.snapshot();
        assert_eq!(s.tasks_launched, 3);
        assert_eq!(s.records_read, 100);
        assert_eq!(s.partitions_pruned, 2);
        assert_eq!(s.shuffles, 1);
        assert_eq!(s.jobs, 1);
        assert_eq!(s.records_cloned, 17);
        assert_eq!(s.clone_bytes_avoided, 4096);
    }

    #[test]
    fn snapshot_diff() {
        let m = Metrics::default();
        m.tasks_launched.add(5);
        let before = m.snapshot();
        m.tasks_launched.add(7);
        let delta = m.snapshot().diff(&before);
        assert_eq!(delta.tasks_launched, 7);
    }

    #[test]
    fn memory_counters_accumulate_and_peak_is_a_high_water_mark() {
        let m = Metrics::default();
        m.bytes_reserved_peak.raise(100);
        m.bytes_reserved_peak.raise(40); // lower value must not regress the peak
        m.bytes_spilled.add(2048);
        m.spill_blobs_written.add(3);
        m.partitions_evicted_for_pressure.add(2);
        let before = m.snapshot();
        assert_eq!(before.bytes_reserved_peak, 100);
        assert_eq!(before.bytes_spilled, 2048);
        assert_eq!(before.spill_blobs_written, 3);
        assert_eq!(before.partitions_evicted_for_pressure, 2);
        m.bytes_reserved_peak.raise(500);
        m.bytes_spilled.add(1000);
        let delta = m.snapshot().diff(&before);
        assert_eq!(delta.bytes_spilled, 1000, "spill volume diffs like a counter");
        assert_eq!(delta.bytes_reserved_peak, 500, "the peak carries the later high-water mark");
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let m = Metrics::default();
        m.records_read.add(42);
        m.bytes_reserved_peak.raise(7);
        let s = m.snapshot();
        let back: MetricsSnapshot =
            serde_json::from_str(&serde_json::to_string(&s).unwrap()).unwrap();
        assert_eq!(back, s);
    }
}
