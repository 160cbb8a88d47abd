//! Peer-to-peer remote shuffle: per-worker bucket serving and fetching.
//!
//! Under [`ShuffleMode::Remote`](crate::supervisor::ShuffleMode) each
//! worker keeps its map outputs in a private local [`ObjectStore`] and
//! serves them over its own **shuffle port**. Reducers fetch buckets
//! directly from the producing worker instead of reading a shared
//! directory — the layout a real cluster needs, where no common
//! filesystem exists.
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
//! (see `WorkerPool::run_shuffle`).

use crate::fault::{jittered_backoff, splitmix64, Fault, FaultPlan, Site};
use crate::storage::{crc32, ObjectStore, StorageError, MAX_BLOB_LEN};
use crate::transport::{recv_msg, send_msg};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io::{self, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
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

/// A worker's shuffle half: the local bucket store it serves from, the
/// epoch registry guarding those buckets, and the fetch client reducers
/// on this worker use to pull peers' buckets.
///
/// Shared (`Arc`) between the executing thread, the accept loop and the
/// per-connection handlers. The accept loop holds only a [`Weak`]
/// reference, so dropping every strong handle stops the server and
/// removes the backing directory.
pub struct ShuffleEnv {
    store: ObjectStore,
    /// Registered epoch per bucket key; requests must match exactly.
    epochs: Mutex<HashMap<String, u64>>,
    cfg: FetchConfig,
    /// Fetch-layer fault plan consulted on every bucket request served.
    faults: Option<FaultPlan>,
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
            epochs: Mutex::new(HashMap::new()),
            rng: AtomicU64::new(splitmix64(cfg.seed ^ 0x5A17_F00D)),
            cfg,
            faults,
            fetch_retries: AtomicU64::new(0),
            bytes_fetched: AtomicU64::new(0),
        }))
    }

    /// The local bucket store.
    pub fn store(&self) -> &ObjectStore {
        &self.store
    }

    /// Writes a map-output bucket and registers it under `epoch`.
    pub fn put_bucket(&self, key: &str, epoch: u64, data: &[u8]) -> Result<(), StorageError> {
        self.store.put_bytes(key, data)?;
        self.epochs.lock().unwrap().insert(key.to_string(), epoch);
        Ok(())
    }

    /// The epoch a bucket is currently registered under, if any.
    pub fn registered_epoch(&self, key: &str) -> Option<u64> {
        self.epochs.lock().unwrap().get(key).copied()
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
    /// bound port. The loop exits once every strong `Arc` is dropped.
    pub fn serve(self: &Arc<Self>) -> io::Result<u16> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let port = listener.local_addr()?.port();
        let weak: Weak<ShuffleEnv> = Arc::downgrade(self);
        std::thread::spawn(move || loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    let Some(env) = weak.upgrade() else { return };
                    std::thread::spawn(move || {
                        let _ = env.handle_conn(stream);
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if weak.strong_count() == 0 {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(_) => return,
            }
        });
        Ok(port)
    }

    /// Serves fetch requests on one connection until the peer hangs up.
    fn handle_conn(self: &Arc<Self>, stream: TcpStream) -> io::Result<()> {
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(self.cfg.read_timeout)).ok();
        stream.set_write_timeout(Some(self.cfg.read_timeout)).ok();
        let mut writer = stream.try_clone()?;
        let mut reader = BufReader::new(stream);
        loop {
            let Some(FetchReq::Bucket { key, epoch, offset }) = recv_msg(&mut reader)? else {
                return Ok(()); // clean hangup
            };
            match self.registered_epoch(&key) {
                None => {
                    send_msg(&mut writer, &FetchRsp::NotFound)?;
                    continue;
                }
                Some(have) if have != epoch => {
                    send_msg(&mut writer, &FetchRsp::StaleEpoch { have })?;
                    continue;
                }
                Some(_) => {}
            }
            let fault =
                self.faults.as_ref().and_then(|p| p.strike(Site::Fetch { key: &key, epoch }));
            match fault {
                Some(Fault::KillServingWorker) => {
                    // fail-stop: the worker (and all its map outputs)
                    // vanishes mid-shuffle
                    std::process::exit(1);
                }
                Some(Fault::RefuseFetch) => {
                    send_msg(&mut writer, &FetchRsp::Refused)?;
                    continue;
                }
                Some(Fault::DelayFetch(d)) => std::thread::sleep(d),
                _ => {}
            }
            let Ok(data) = self.store.get_bytes(&key) else {
                send_msg(&mut writer, &FetchRsp::NotFound)?;
                continue;
            };
            let off = (offset as usize).min(data.len());
            send_msg(&mut writer, &FetchRsp::Bucket { len: data.len() as u64, crc: crc32(&data) })?;
            match fault {
                Some(Fault::DropBucket) => {
                    // torn transfer: half the remaining bytes, then hang
                    // up — the client resumes from its new offset
                    let part = &data[off..off + (data.len() - off) / 2];
                    writer.write_all(part)?;
                    return Ok(());
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
        }
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
                Err(AttemptError::Transient(reason)) => last = reason,
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

    /// One fetch attempt. Received bytes accumulate into `buf` (the
    /// resume state); a checksum mismatch clears it.
    fn try_fetch(
        &self,
        addr: &str,
        key: &str,
        epoch: u64,
        buf: &mut Vec<u8>,
    ) -> Result<(), AttemptError> {
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
        let mut writer = stream.try_clone().map_err(io_err)?;
        send_msg(
            &mut writer,
            &FetchReq::Bucket { key: key.to_string(), epoch, offset: buf.len() as u64 },
        )
        .map_err(io_err)?;
        let mut reader = BufReader::new(stream);
        let rsp: FetchRsp = recv_msg(&mut reader)
            .map_err(io_err)?
            .ok_or_else(|| AttemptError::Transient("server hung up before responding".into()))?;
        let (len, crc) = match rsp {
            FetchRsp::Refused => return Err(AttemptError::Transient("fetch refused".into())),
            FetchRsp::NotFound => {
                return Err(AttemptError::Transient("bucket not registered on server".into()))
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
        let mut chunk = [0u8; 16 * 1024];
        while buf.len() < len {
            let n = reader.read(&mut chunk).map_err(io_err)?;
            if n == 0 {
                return Err(AttemptError::Transient(format!(
                    "connection closed mid-transfer at {}/{len} bytes",
                    buf.len()
                )));
            }
            let take = n.min(len - buf.len());
            buf.extend_from_slice(&chunk[..take]);
        }
        if crc32(buf) != crc {
            buf.clear();
            return Err(AttemptError::Transient("bucket checksum mismatch".into()));
        }
        Ok(())
    }
}

impl Drop for ShuffleEnv {
    fn drop(&mut self) {
        // the bucket store is private to this worker's lifetime
        let _ = std::fs::remove_dir_all(self.store.root());
    }
}

enum AttemptError {
    /// Worth retrying (refused, torn, corrupt, timeout, unreachable).
    Transient(String),
    /// The server registered a different epoch — escalate immediately.
    Stale { have: u64 },
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env_with(tag: &str, faults: Option<FaultPlan>) -> Arc<ShuffleEnv> {
        let root =
            std::env::temp_dir().join(format!("stark-shuffle-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cfg = FetchConfig {
            connect_timeout: Duration::from_millis(500),
            read_timeout: Duration::from_millis(1000),
            max_retries: 4,
            backoff_base: Duration::from_millis(2),
            seed: 7,
        };
        ShuffleEnv::new(root, cfg, faults).unwrap()
    }

    fn addr(port: u16) -> String {
        format!("127.0.0.1:{port}")
    }

    #[test]
    fn put_serve_fetch_roundtrip() {
        let server = env_with("roundtrip", None);
        let data: Vec<u8> = (0..10_000u32).flat_map(|x| x.to_le_bytes()).collect();
        server.put_bucket("sh/task-00000/bucket-00001", 0, &data).unwrap();
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
        server.put_bucket("sh/task-00000/bucket-00000", 1, b"fresh").unwrap();
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
        server.put_bucket("sh/task-00000/bucket-00000", 0, &data).unwrap();
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
        server.put_bucket("sh/task-00000/bucket-00000", 0, &data).unwrap();
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
        server.put_bucket("sh/task-00000/bucket-00000", 0, b"payload").unwrap();
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
}
