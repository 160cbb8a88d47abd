//! Peer-to-peer remote shuffle: per-worker bucket serving and fetching.
//!
//! Under [`ShuffleMode::Remote`](crate::supervisor::ShuffleMode) each
//! worker keeps its map outputs in a private local [`ObjectStore`] and
//! serves them over its own **shuffle port**. Reducers fetch buckets
//! directly from the producing worker instead of reading a shared
//! directory — the layout a real cluster needs, where no common
//! filesystem exists.
//!
//! A map task's non-empty buckets land in **one blob per map task**
//! (Spark's sort-based shuffle layout: one data file plus an index,
//! instead of one file per bucket). The worker's registry records each
//! bucket's epoch, byte range in that blob and the CRC32 taken when the
//! bucket was written; the server reads just that range and checks it
//! against that CRC before announcing it.
//!
//! The fetch protocol is one STK1-framed request/response pair followed
//! by a *raw* byte stream:
//!
//! ```text
//! client → server   frame { Bucket { key, epoch, offset } }
//! server → client   frame { Bucket { len, crc } }  |  NotFound  |
//!                   StaleEpoch { have }            |  Refused
//! server → client   raw bytes payload[offset..]    (only after Bucket)
//! ```
//!
//! The payload intentionally travels *unframed*: a torn transfer leaves
//! the client holding a usable prefix, and the next attempt resumes from
//! `offset = bytes held` instead of refetching everything. Integrity
//! comes from the whole-payload CRC32 announced in the response header,
//! verified once the assembled buffer is complete — a flipped byte
//! discards the buffer and restarts from offset 0.
//!
//! The server answers any number of requests on one connection, and the
//! client keeps idle connections per peer: a connection returns to the
//! pool once a bucket fetched over it passed its CRC check, and later
//! fetches from that peer reuse it.
//!
//! Every bucket carries a **shuffle epoch**. Map outputs regenerated
//! after a worker loss register at a bumped epoch, and the server rejects
//! requests whose epoch does not match its registration
//! ([`FetchRsp::StaleEpoch`]) — a reducer built against a superseded
//! registry snapshot fails fast instead of consuming half-dead data.
//!
//! Failure handling is layered: connect/read timeouts bound every
//! blocking call, capped retries with jittered exponential backoff
//! absorb transient faults, and only then does a typed [`FetchFailure`]
//! escalate to the driver, which treats it as a lost-map-output signal
//! (see `WorkerPool::run_shuffle`). Once a stage is finished the driver
//! tells every worker to [`ShuffleEnv::release`] it.

use crate::fault::{jittered_backoff, splitmix64, Fault, FaultPlan, Site};
use crate::plan::shuffle_bucket_key;
use crate::storage::{crc32, ObjectStore, StorageError, MAX_BLOB_LEN};
use crate::transport::{recv_msg, send_msg};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::Duration;

// ---------------------------------------------------------------------------
// Wire types
// ---------------------------------------------------------------------------

/// One bucket a reduce task must fetch: where it lives, its store key,
/// and the shuffle epoch it was registered under.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct FetchSource {
    /// Shuffle address of the producing worker (`host:port`).
    pub addr: String,
    /// Bucket key in the producer's local store.
    pub key: String,
    /// Epoch the driver's registry holds for this output.
    pub epoch: u64,
}

/// A fetch that exhausted its retry budget (or was rejected as stale),
/// reported by the worker inside `TaskErr` so the driver can run
/// lost-output recovery instead of blind task retry.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct FetchFailure {
    pub addr: String,
    pub key: String,
    pub epoch: u64,
    /// The server holds a different epoch for this key — the reducer's
    /// source list is outdated, not the output lost.
    pub stale: bool,
    pub reason: String,
}

impl std::fmt::Display for FetchFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fetch of {:?} (epoch {}) from {} failed: {}",
            self.key, self.epoch, self.addr, self.reason
        )
    }
}

#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
enum FetchReq {
    Bucket { key: String, epoch: u64, offset: u64 },
}

#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
enum FetchRsp {
    /// The payload's total length and whole-payload CRC32; the bytes from
    /// the requested offset follow raw.
    Bucket {
        len: u64,
        crc: u32,
    },
    NotFound,
    StaleEpoch {
        have: u64,
    },
    Refused,
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Client/server knobs of the remote-shuffle data plane.
#[derive(Debug, Clone)]
pub struct FetchConfig {
    /// Bound on establishing a connection to a peer.
    pub connect_timeout: Duration,
    /// Bound on every blocking read (both sides): a hung peer surfaces
    /// as a timeout error, never a wedged thread.
    pub read_timeout: Duration,
    /// Re-attempts after the first failed fetch of a bucket.
    pub max_retries: u32,
    /// Base retry backoff; doubled per attempt and jittered into
    /// `[0.5, 1.5)`.
    pub backoff_base: Duration,
    /// Seed for the backoff jitter.
    pub seed: u64,
}

impl Default for FetchConfig {
    fn default() -> Self {
        FetchConfig {
            connect_timeout: Duration::from_secs(1),
            read_timeout: Duration::from_secs(5),
            max_retries: 4,
            backoff_base: Duration::from_millis(10),
            seed: 0xFE7C,
        }
    }
}

// ---------------------------------------------------------------------------
// Shuffle environment
// ---------------------------------------------------------------------------

/// Where one registered bucket lives: a byte range of its map task's
/// blob, with the CRC32 taken when the bucket was written.
#[derive(Debug, Clone)]
struct BucketLoc {
    epoch: u64,
    /// Store key of the map task's output blob.
    blob: String,
    offset: usize,
    len: usize,
    crc: u32,
}

/// Store key of one map task's output blob.
fn map_output_key(prefix: &str, task: usize) -> String {
    format!("{prefix}/task-{task:05}.data")
}

/// One client connection to a peer's bucket server.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// A worker's shuffle half: the local bucket store it serves from, the
/// registry guarding those buckets, and the fetch client reducers on
/// this worker use to pull peers' buckets.
///
/// Shared (`Arc`) between the executing thread, the accept loop and the
/// per-connection handlers. The accept loop and the handlers hold only
/// [`Weak`] references, so dropping every strong handle stops the server
/// and removes the backing directory.
pub struct ShuffleEnv {
    store: ObjectStore,
    /// Registered buckets by bucket key; requests must match the epoch
    /// exactly.
    buckets: Mutex<HashMap<String, BucketLoc>>,
    cfg: FetchConfig,
    /// Fetch-layer fault plan consulted on every bucket request served.
    faults: Option<FaultPlan>,
    /// Idle fetch connections per peer address.
    idle: Mutex<HashMap<String, Vec<Conn>>>,
    /// The bucket server's listening address, once serving.
    listen: OnceLock<SocketAddr>,
    accepted: AtomicU64,
    fetch_retries: AtomicU64,
    bytes_fetched: AtomicU64,
    rng: AtomicU64,
}

impl ShuffleEnv {
    /// Creates the bucket store at `root` (private to this worker).
    pub fn new(
        root: impl AsRef<Path>,
        cfg: FetchConfig,
        faults: Option<FaultPlan>,
    ) -> Result<Arc<ShuffleEnv>, StorageError> {
        let store = ObjectStore::open(root)?;
        Ok(Arc::new(ShuffleEnv {
            store,
            buckets: Mutex::new(HashMap::new()),
            rng: AtomicU64::new(splitmix64(cfg.seed ^ 0x5A17_F00D)),
            cfg,
            faults,
            idle: Mutex::new(HashMap::new()),
            listen: OnceLock::new(),
            accepted: AtomicU64::new(0),
            fetch_retries: AtomicU64::new(0),
            bytes_fetched: AtomicU64::new(0),
        }))
    }

    /// The local bucket store.
    pub fn store(&self) -> &ObjectStore {
        &self.store
    }

    /// Writes map task `task`'s non-empty buckets — `(bucket index,
    /// encoded rows)` pairs — as one blob, and registers each bucket
    /// under `epoch` by its [`shuffle_bucket_key`] with its byte range
    /// and CRC32.
    pub fn put_map_output(
        &self,
        prefix: &str,
        task: usize,
        epoch: u64,
        buckets: &[(usize, Vec<u8>)],
    ) -> Result<(), StorageError> {
        if buckets.is_empty() {
            return Ok(());
        }
        let blob = map_output_key(prefix, task);
        let mut data = Vec::with_capacity(buckets.iter().map(|(_, b)| b.len()).sum());
        let mut locs = Vec::with_capacity(buckets.len());
        for (bucket, bytes) in buckets {
            let loc = BucketLoc {
                epoch,
                blob: blob.clone(),
                offset: data.len(),
                len: bytes.len(),
                crc: crc32(bytes),
            };
            locs.push((shuffle_bucket_key(prefix, task, *bucket), loc));
            data.extend_from_slice(bytes);
        }
        self.store.put_bytes(&blob, &data)?;
        self.buckets.lock().expect("bucket registry poisoned").extend(locs);
        Ok(())
    }

    /// The epoch a bucket is currently registered under, if any.
    pub fn registered_epoch(&self, key: &str) -> Option<u64> {
        self.buckets.lock().expect("bucket registry poisoned").get(key).map(|loc| loc.epoch)
    }

    /// Forgets every bucket of shuffle stage `prefix` and deletes the
    /// stage's blobs — sent by the driver once the stage is finished.
    pub fn release(&self, prefix: &str) {
        let stage = format!("{prefix}/");
        self.buckets
            .lock()
            .expect("bucket registry poisoned")
            .retain(|key, _| !key.starts_with(&stage));
        let _ = self.store.delete_prefix(prefix);
    }

    /// Connections the bucket server has accepted so far.
    pub fn connections_accepted(&self) -> u64 {
        self.accepted.load(Ordering::Relaxed)
    }

    /// Swaps out and returns the per-task fetch counters
    /// `(retries, bytes_fetched)` accumulated since the last call.
    pub fn take_counters(&self) -> (u64, u64) {
        (
            self.fetch_retries.swap(0, Ordering::Relaxed),
            self.bytes_fetched.swap(0, Ordering::Relaxed),
        )
    }

    /// Binds the shuffle port and starts the accept loop. Returns the
    /// bound port. The loop blocks in `accept`; dropping the env wakes it
    /// with a self-connect, and it exits once every strong `Arc` is gone.
    pub fn serve(self: &Arc<Self>) -> io::Result<u16> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let _ = self.listen.set(addr);
        let weak: Weak<ShuffleEnv> = Arc::downgrade(self);
        std::thread::spawn(move || loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    let Some(env) = weak.upgrade() else { return };
                    env.accepted.fetch_add(1, Ordering::Relaxed);
                    let weak = weak.clone();
                    std::thread::spawn(move || {
                        let _ = Self::handle_conn(&weak, stream);
                    });
                }
                // the peer gave up before we accepted, or a signal: the
                // listener itself is fine
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::ConnectionAborted | io::ErrorKind::Interrupted
                    ) => {}
                Err(_) => return,
            }
        });
        Ok(addr.port())
    }

    /// Serves fetch requests on one connection until the peer hangs up,
    /// the env is dropped, or the connection idles past the read timeout.
    fn handle_conn(env: &Weak<ShuffleEnv>, stream: TcpStream) -> io::Result<()> {
        let Some(timeout) = env.upgrade().map(|e| e.cfg.read_timeout) else { return Ok(()) };
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(timeout)).ok();
        stream.set_write_timeout(Some(timeout)).ok();
        let mut writer = stream.try_clone()?;
        let mut reader = BufReader::new(stream);
        loop {
            let Some(req) = recv_msg::<FetchReq>(&mut reader)? else {
                return Ok(()); // clean hangup
            };
            let Some(env) = env.upgrade() else { return Ok(()) };
            if !env.answer(req, &mut writer)? {
                return Ok(());
            }
        }
    }

    /// Answers one bucket request. Returns `false` when the connection
    /// must close after it (a torn transfer).
    fn answer(&self, req: FetchReq, writer: &mut TcpStream) -> io::Result<bool> {
        let FetchReq::Bucket { key, epoch, offset } = req;
        let registered = self.buckets.lock().expect("bucket registry poisoned").get(&key).cloned();
        let loc = match registered {
            None => {
                send_msg(writer, &FetchRsp::NotFound)?;
                return Ok(true);
            }
            Some(loc) if loc.epoch != epoch => {
                send_msg(writer, &FetchRsp::StaleEpoch { have: loc.epoch })?;
                return Ok(true);
            }
            Some(loc) => loc,
        };
        let fault = self.faults.as_ref().and_then(|p| p.strike(Site::Fetch { key: &key, epoch }));
        match fault {
            Some(Fault::KillServingWorker) => {
                // fail-stop: the worker (and all its map outputs)
                // vanishes mid-shuffle
                std::process::exit(1);
            }
            Some(Fault::RefuseFetch) => {
                send_msg(writer, &FetchRsp::Refused)?;
                return Ok(true);
            }
            Some(Fault::DelayFetch(d)) => std::thread::sleep(d),
            _ => {}
        }
        // the bucket's range only, checked against its write-time CRC
        let data = match self.store.get_range(&loc.blob, loc.offset, loc.len) {
            Ok(data) if crc32(&data) == loc.crc => data,
            _ => {
                send_msg(writer, &FetchRsp::NotFound)?;
                return Ok(true);
            }
        };
        let off = (offset as usize).min(data.len());
        send_msg(writer, &FetchRsp::Bucket { len: data.len() as u64, crc: loc.crc })?;
        match fault {
            Some(Fault::DropBucket) => {
                // torn transfer: half the remaining bytes, then hang
                // up — the client resumes from its new offset
                let part = &data[off..off + (data.len() - off) / 2];
                writer.write_all(part)?;
                return Ok(false);
            }
            Some(Fault::CorruptBucket) => {
                // full-length transfer, one byte flipped after the
                // CRC was announced — the client must reject it
                let mut sent = data[off..].to_vec();
                if !sent.is_empty() {
                    let mid = sent.len() / 2;
                    sent[mid] ^= 0x40;
                }
                writer.write_all(&sent)?;
            }
            _ => writer.write_all(&data[off..])?,
        }
        writer.flush()?;
        Ok(true)
    }

    /// Fetches one bucket from a peer, with bounded timeouts, capped
    /// jittered retries and partial-fetch resume. A stale-epoch rejection
    /// escalates immediately (retrying cannot help); everything else
    /// retries until the budget is spent.
    pub fn fetch(&self, addr: &str, key: &str, epoch: u64) -> Result<Vec<u8>, FetchFailure> {
        let mut buf: Vec<u8> = Vec::new();
        let mut last = String::from("never attempted");
        let attempts = self.cfg.max_retries + 1;
        for attempt in 0..attempts {
            if attempt > 0 {
                self.fetch_retries.fetch_add(1, Ordering::Relaxed);
                let jitter = self.rng.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
                std::thread::sleep(jittered_backoff(self.cfg.backoff_base, attempt - 1, jitter));
            }
            match self.try_fetch(addr, key, epoch, &mut buf) {
                Ok(()) => {
                    self.bytes_fetched.fetch_add(buf.len() as u64, Ordering::Relaxed);
                    return Ok(buf);
                }
                Err(AttemptError::Stale { have }) => {
                    return Err(FetchFailure {
                        addr: addr.to_string(),
                        key: key.to_string(),
                        epoch,
                        stale: true,
                        reason: format!("stale epoch (server has {have})"),
                    });
                }
                Err(AttemptError::Transient(reason) | AttemptError::Unanswered(reason)) => {
                    last = reason
                }
            }
        }
        Err(FetchFailure {
            addr: addr.to_string(),
            key: key.to_string(),
            epoch,
            stale: false,
            reason: format!("{attempts} attempts exhausted; last: {last}"),
        })
    }

    /// One fetch attempt, on an idle pooled connection when there is one.
    /// A pooled connection that dies before any response header arrives
    /// (the server timed it out while idle) is dropped and the attempt
    /// re-runs once on a fresh connection — not a retry, so
    /// `fetch_retries` keeps counting only answered failures.
    fn try_fetch(
        &self,
        addr: &str,
        key: &str,
        epoch: u64,
        buf: &mut Vec<u8>,
    ) -> Result<(), AttemptError> {
        let pooled = self.idle.lock().expect("idle pool poisoned").get_mut(addr).and_then(Vec::pop);
        if let Some(conn) = pooled {
            match self.exchange(conn, addr, key, epoch, buf) {
                Err(AttemptError::Unanswered(_)) => {}
                answered => return answered,
            }
        }
        let conn = self.connect(addr).inspect_err(|_| {
            // the peer is gone: so are its idle connections
            self.idle.lock().expect("idle pool poisoned").remove(addr);
        })?;
        self.exchange(conn, addr, key, epoch, buf)
    }

    fn connect(&self, addr: &str) -> Result<Conn, AttemptError> {
        let io_err = |e: io::Error| AttemptError::Transient(e.to_string());
        let sock = addr
            .to_socket_addrs()
            .map_err(io_err)?
            .next()
            .ok_or_else(|| AttemptError::Transient(format!("unresolvable address {addr:?}")))?;
        let stream = TcpStream::connect_timeout(&sock, self.cfg.connect_timeout).map_err(io_err)?;
        stream.set_read_timeout(Some(self.cfg.read_timeout)).map_err(io_err)?;
        stream.set_write_timeout(Some(self.cfg.read_timeout)).map_err(io_err)?;
        stream.set_nodelay(true).ok();
        Ok(Conn { writer: stream.try_clone().map_err(io_err)?, reader: BufReader::new(stream) })
    }

    /// One request/response on `conn`. Received bytes accumulate into
    /// `buf` (the resume state); a checksum mismatch clears it. The
    /// connection goes back to the idle pool only after a verified bucket.
    fn exchange(
        &self,
        mut conn: Conn,
        addr: &str,
        key: &str,
        epoch: u64,
        buf: &mut Vec<u8>,
    ) -> Result<(), AttemptError> {
        let io_err = |e: io::Error| AttemptError::Transient(e.to_string());
        // a hang-up before the response header: the request may never
        // have reached a live handler
        let unanswered = |e: io::Error| match e.kind() {
            io::ErrorKind::BrokenPipe
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted => AttemptError::Unanswered(e.to_string()),
            _ => AttemptError::Transient(e.to_string()),
        };
        let req = FetchReq::Bucket { key: key.to_string(), epoch, offset: buf.len() as u64 };
        send_msg(&mut conn.writer, &req).map_err(unanswered)?;
        let rsp: FetchRsp = recv_msg(&mut conn.reader)
            .map_err(unanswered)?
            .ok_or_else(|| AttemptError::Unanswered("server hung up before responding".into()))?;
        let (len, crc) = match rsp {
            FetchRsp::Refused => return Err(AttemptError::Transient("fetch refused".into())),
            FetchRsp::NotFound => {
                return Err(AttemptError::Transient(
                    "bucket not served (unregistered or unreadable)".into(),
                ))
            }
            FetchRsp::StaleEpoch { have } => return Err(AttemptError::Stale { have }),
            FetchRsp::Bucket { len, crc } => (len as usize, crc),
        };
        if len > MAX_BLOB_LEN {
            return Err(AttemptError::Transient(format!(
                "announced bucket length {len} exceeds blob cap"
            )));
        }
        if buf.len() > len {
            buf.clear(); // the server's view shrank; resume state is junk
        }
        buf.reserve(len - buf.len());
        let mut chunk = [0u8; 16 * 1024];
        while buf.len() < len {
            // never read past this bucket: the connection may be reused
            let want = (len - buf.len()).min(chunk.len());
            let n = conn.reader.read(&mut chunk[..want]).map_err(io_err)?;
            if n == 0 {
                return Err(AttemptError::Transient(format!(
                    "connection closed mid-transfer at {}/{len} bytes",
                    buf.len()
                )));
            }
            buf.extend_from_slice(&chunk[..n]);
        }
        if crc32(buf) != crc {
            buf.clear();
            return Err(AttemptError::Transient("bucket checksum mismatch".into()));
        }
        self.idle
            .lock()
            .expect("idle pool poisoned")
            .entry(addr.to_string())
            .or_default()
            .push(conn);
        Ok(())
    }
}

impl Drop for ShuffleEnv {
    fn drop(&mut self) {
        // wake the blocking accept loop; it finds the env gone and exits
        if let Some(addr) = self.listen.get() {
            let _ = TcpStream::connect_timeout(addr, Duration::from_millis(200));
        }
        // the bucket store is private to this worker's lifetime
        let _ = std::fs::remove_dir_all(self.store.root());
    }
}

enum AttemptError {
    /// Worth retrying (refused, torn, corrupt, timeout, unreachable).
    Transient(String),
    /// The connection hung up before any response header arrived.
    Unanswered(String),
    /// The server registered a different epoch — escalate immediately.
    Stale { have: u64 },
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env_with(tag: &str, faults: Option<FaultPlan>) -> Arc<ShuffleEnv> {
        env_timing_out(tag, faults, Duration::from_millis(1000))
    }

    fn env_timing_out(
        tag: &str,
        faults: Option<FaultPlan>,
        read_timeout: Duration,
    ) -> Arc<ShuffleEnv> {
        let root =
            std::env::temp_dir().join(format!("stark-shuffle-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cfg = FetchConfig {
            connect_timeout: Duration::from_millis(500),
            read_timeout,
            max_retries: 4,
            backoff_base: Duration::from_millis(2),
            seed: 7,
        };
        ShuffleEnv::new(root, cfg, faults).unwrap()
    }

    /// Three buckets (0, 2, 5) of distinct sizes and contents.
    fn three_buckets() -> Vec<(usize, Vec<u8>)> {
        [(0usize, 700u32), (2, 1300), (5, 90)]
            .into_iter()
            .map(|(b, n)| (b, (0..n).map(|x| (x * 7 + b as u32) as u8).collect()))
            .collect()
    }

    fn addr(port: u16) -> String {
        format!("127.0.0.1:{port}")
    }

    #[test]
    fn put_serve_fetch_roundtrip() {
        let server = env_with("roundtrip", None);
        let data: Vec<u8> = (0..10_000u32).flat_map(|x| x.to_le_bytes()).collect();
        server.put_map_output("sh", 0, 0, &[(1, data.clone())]).unwrap();
        let port = server.serve().unwrap();

        let client = env_with("roundtrip-client", None);
        let got = client.fetch(&addr(port), "sh/task-00000/bucket-00001", 0).unwrap();
        assert_eq!(got, data);
        let (retries, bytes) = client.take_counters();
        assert_eq!(retries, 0, "clean fetch must not retry");
        assert_eq!(bytes, data.len() as u64);
    }

    #[test]
    fn stale_epoch_is_rejected_without_burning_retries() {
        let server = env_with("stale", None);
        server.put_map_output("sh", 0, 1, &[(0, b"fresh".to_vec())]).unwrap();
        let port = server.serve().unwrap();

        let client = env_with("stale-client", None);
        let err = client.fetch(&addr(port), "sh/task-00000/bucket-00000", 0).unwrap_err();
        assert!(err.stale, "an epoch mismatch is a stale fetch: {err}");
        assert!(err.reason.contains("server has 1"), "{err}");
        assert_eq!(client.take_counters().0, 0, "stale escalates before any retry");
        // the matching epoch still serves
        assert_eq!(client.fetch(&addr(port), "sh/task-00000/bucket-00000", 1).unwrap(), b"fresh");
    }

    #[test]
    fn missing_bucket_exhausts_the_budget() {
        let server = env_with("missing", None);
        let port = server.serve().unwrap();
        let client = env_with("missing-client", None);
        let err = client.fetch(&addr(port), "sh/task-00000/bucket-00000", 0).unwrap_err();
        assert!(!err.stale);
        assert!(err.reason.contains("attempts exhausted"), "{err}");
        assert_eq!(client.take_counters().0, 4, "every re-attempt counts as a retry");
    }

    #[test]
    fn torn_transfers_resume_from_the_received_offset() {
        let chaos = FaultPlan::once(Fault::DropBucket).with_max_strikes(2);
        let server = env_with("torn", Some(chaos));
        let data: Vec<u8> = (0..50_000u32).map(|x| x as u8).collect();
        server.put_map_output("sh", 0, 0, &[(0, data.clone())]).unwrap();
        let port = server.serve().unwrap();

        let client = env_with("torn-client", None);
        let got = client.fetch(&addr(port), "sh/task-00000/bucket-00000", 0).unwrap();
        assert_eq!(got, data, "resumed assembly must be byte-identical");
        assert_eq!(client.take_counters().0, 2, "each torn transfer costs one retry");
    }

    #[test]
    fn corrupt_transfers_are_rejected_and_refetched() {
        let chaos = FaultPlan::once(Fault::CorruptBucket);
        let server = env_with("corrupt", Some(chaos));
        let data = vec![0x5Au8; 9000];
        server.put_map_output("sh", 0, 0, &[(0, data.clone())]).unwrap();
        let port = server.serve().unwrap();

        let client = env_with("corrupt-client", None);
        let got = client.fetch(&addr(port), "sh/task-00000/bucket-00000", 0).unwrap();
        assert_eq!(got, data);
        assert_eq!(client.take_counters().0, 1);
    }

    #[test]
    fn refused_fetches_retry_until_the_policy_exhausts() {
        let chaos = FaultPlan::once(Fault::RefuseFetch).with_max_strikes(3);
        let server = env_with("refused", Some(chaos));
        server.put_map_output("sh", 0, 0, &[(0, b"payload".to_vec())]).unwrap();
        let port = server.serve().unwrap();

        let client = env_with("refused-client", None);
        let got = client.fetch(&addr(port), "sh/task-00000/bucket-00000", 0).unwrap();
        assert_eq!(got, b"payload");
        assert_eq!(client.take_counters().0, 3);
    }

    #[test]
    fn unreachable_peer_fails_with_bounded_attempts() {
        let client = env_with("unreachable", None);
        // a port nothing listens on: every connect is refused promptly
        let err = client.fetch("127.0.0.1:1", "sh/task-00000/bucket-00000", 0).unwrap_err();
        assert!(!err.stale);
        assert_eq!(client.take_counters().0, 4);
    }

    #[test]
    fn one_blob_per_map_task_serves_each_bucket() {
        let server = env_with("blob", None);
        let buckets = three_buckets();
        server.put_map_output("sh", 3, 0, &buckets).unwrap();
        assert_eq!(server.store().list("").unwrap(), vec![map_output_key("sh", 3)]);
        let port = server.serve().unwrap();

        let client = env_with("blob-client", None);
        for (b, data) in &buckets {
            let key = shuffle_bucket_key("sh", 3, *b);
            assert_eq!(&client.fetch(&addr(port), &key, 0).unwrap(), data);
        }
        let unwritten = shuffle_bucket_key("sh", 3, 1);
        assert!(client.fetch(&addr(port), &unwritten, 0).is_err());
    }

    #[test]
    fn sequential_fetches_from_one_peer_share_one_connection() {
        let server = env_with("pooled", None);
        let buckets = three_buckets();
        server.put_map_output("sh", 0, 0, &buckets).unwrap();
        let port = server.serve().unwrap();

        let client = env_with("pooled-client", None);
        for _ in 0..3 {
            for (b, data) in &buckets {
                let key = shuffle_bucket_key("sh", 0, *b);
                assert_eq!(&client.fetch(&addr(port), &key, 0).unwrap(), data);
            }
        }
        assert_eq!(server.connections_accepted(), 1, "nine fetches, one connection");
        assert_eq!(client.take_counters().0, 0);
    }

    #[test]
    fn a_pooled_connection_the_server_closed_is_replaced_without_a_retry() {
        // the server drops connections idle for 100ms
        let server = env_timing_out("idle", None, Duration::from_millis(100));
        server.put_map_output("sh", 0, 0, &[(0, b"payload".to_vec())]).unwrap();
        let port = server.serve().unwrap();

        let client = env_with("idle-client", None);
        let key = shuffle_bucket_key("sh", 0, 0);
        assert_eq!(client.fetch(&addr(port), &key, 0).unwrap(), b"payload");
        // wait until the server has hung up the pooled connection
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let closed = {
                let idle = client.idle.lock().unwrap();
                let pooled = &idle[&addr(port)][0].writer;
                pooled.set_nonblocking(true).unwrap();
                let peeked = pooled.peek(&mut [0u8; 1]);
                pooled.set_nonblocking(false).unwrap();
                matches!(peeked, Ok(0))
            };
            if closed {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "server kept the idle connection");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(client.fetch(&addr(port), &key, 0).unwrap(), b"payload");
        assert_eq!(client.take_counters().0, 0, "a dead idle connection is not a retry");
        assert_eq!(server.connections_accepted(), 2);
    }

    #[test]
    fn a_flipped_byte_fails_only_its_bucket() {
        let server = env_with("flip", None);
        let buckets = three_buckets();
        server.put_map_output("sh", 0, 0, &buckets).unwrap();
        // flip one byte inside bucket 2's range (the second in the blob)
        let path = server.store().root().join(map_output_key("sh", 0));
        let mut raw = std::fs::read(&path).unwrap();
        raw[crate::storage::BLOB_HEADER_LEN + buckets[0].1.len() + 5] ^= 0x40;
        std::fs::write(&path, &raw).unwrap();
        let port = server.serve().unwrap();

        let client = env_with("flip-client", None);
        let err = client.fetch(&addr(port), &shuffle_bucket_key("sh", 0, 2), 0).unwrap_err();
        assert!(!err.stale);
        assert!(err.reason.contains("attempts exhausted"), "{err}");
        for (b, data) in [&buckets[0], &buckets[2]] {
            let key = shuffle_bucket_key("sh", 0, *b);
            assert_eq!(&client.fetch(&addr(port), &key, 0).unwrap(), data, "bucket {b}");
        }
    }

    #[test]
    fn release_forgets_one_stage_and_deletes_its_blobs() {
        let server = env_with("release", None);
        for task in 0..2 {
            server.put_map_output("st/job-1", task, 0, &three_buckets()).unwrap();
        }
        server.put_map_output("st/job-10", 0, 0, &three_buckets()).unwrap();
        let port = server.serve().unwrap();

        server.release("st/job-1");
        assert_eq!(server.registered_epoch(&shuffle_bucket_key("st/job-1", 0, 0)), None);
        assert_eq!(server.registered_epoch(&shuffle_bucket_key("st/job-10", 0, 0)), Some(0));
        assert_eq!(server.store().list("").unwrap(), vec![map_output_key("st/job-10", 0)]);
        let client = env_with("release-client", None);
        assert!(client.fetch(&addr(port), &shuffle_bucket_key("st/job-1", 1, 5), 0).is_err());
        let kept = client.fetch(&addr(port), &shuffle_bucket_key("st/job-10", 0, 5), 0);
        assert_eq!(kept.unwrap(), three_buckets()[2].1);
    }

    #[test]
    fn dropping_the_env_stops_its_server() {
        let server = env_with("stop", None);
        let port = server.serve().unwrap();
        drop(server);
        // the woken accept loop exits and closes the listener
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while TcpStream::connect(addr(port)).is_ok() {
            assert!(std::time::Instant::now() < deadline, "server still accepting");
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}
