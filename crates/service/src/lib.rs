//! # retroweb-service — a multi-threaded extraction server
//!
//! The paper's §3.5 repository exists so "external agents, for instance
//! the XML extractor" can apply recorded rules at scale. This crate is
//! that serving layer: a std-only HTTP/1.1 server
//! (`std::net::TcpListener` + a fixed-size worker pool with a bounded
//! job queue — no network dependencies) exposing the rule repository
//! and the compiled-rule extraction pipeline:
//!
//! | Endpoint | Role |
//! |---|---|
//! | `POST /extract/{cluster}` | one HTML page → extracted XML |
//! | `POST /extract/{cluster}/batch` | JSON page array → parallel extraction **streamed** as chunked XML (or NDJSON via `Accept: application/x-ndjson`) |
//! | `GET`/`PUT`/`DELETE /clusters/{name}` | rule CRUD over `retroweb-json` persistence |
//! | `POST /check/{cluster}` | §7 failure detection (drift report) on submitted pages |
//! | `GET /healthz`, `GET /metrics` | liveness, counters, latency histograms |
//!
//! **Streaming batches:** the batch endpoint drives the extraction
//! sinks (`retrozilla::ExtractionSink`) straight into the connection —
//! first bytes on the wire after the first page, server memory
//! O(threads) instead of O(batch), concatenated XML byte-identical to
//! the materialised document.
//!
//! **Sharded, lock-free repository:** the in-memory store is a
//! `retrozilla::ShardedRepository` used exclusively through the
//! `retrozilla::ClusterStore` storage trait — reads (extraction,
//! `GET`s, metrics) clone an atomically-published `Arc` snapshot and
//! never take a lock; a `PUT` copy-on-writes only the one shard its
//! cluster hashes to. With a repository path, persistence is the
//! `<repo>.d/` directory with one snapshot + WAL pair per shard
//! (parallel replay, per-shard compaction). A single-file `<repo>` +
//! `<repo>.wal` pair is imported into it once, on first start; see the
//! README's durability and sharding sections.
//!
//! **Hot rule reload for free:** every extraction runs through the
//! store's compiled-cluster cache, and `PUT /clusters/{name}`
//! re-records the cluster, which invalidates that cache — so the next
//! request (including ones already queued) executes the new rules, with
//! no restart and no dropped in-flight requests.
//!
//! **Graceful shutdown:** [`ServerHandle::shutdown`] stops accepting,
//! lets the worker pool drain every queued connection, and joins all
//! threads; accepted requests are never dropped on the floor.
//!
//! Ship form: the `retrozilla-serve` binary (`--repo rules.json` to
//! load/persist, `--self-test` for a loopback smoke test). See the
//! crate README for a curl walkthrough.

#[cfg(unix)]
pub mod evented;
pub mod handlers;
pub mod http;
pub mod metrics;
pub mod pipe;
pub mod pool;
pub mod testdata;

pub use http::{request_once, Client, ClientResponse, Reply, Request, Response, StreamingResponse};
pub use metrics::{Endpoint, Histogram, Metrics};
pub use pool::ThreadPool;

use retrozilla::{
    ClusterRules, ClusterStore, DurableRepository, RepositoryStats, RuleRepository,
    ShardedOpenReport, ShardedRepository, WalStats,
};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads serving connections.
    pub threads: usize,
    /// Bounded connection-queue capacity (backpressure past this).
    pub queue_capacity: usize,
    /// Default per-batch extraction parallelism (`?threads=` overrides).
    pub extract_threads: usize,
    /// Idle-connection poll interval; also bounds shutdown latency.
    pub read_timeout: Duration,
    /// When set, `PUT`/`DELETE /clusters` persist the repository in
    /// the `<repo_path>.d/` directory: one snapshot + write-ahead log
    /// pair per shard (see [`ServerConfig::shard_dir`]). A single-file
    /// `<repo_path>` + `<repo_path>.wal` pair is imported into it on
    /// first start. Without it, mutations live only in memory.
    pub repo_path: Option<PathBuf>,
    /// Mutations folded into a shard's snapshot per compaction of that
    /// shard.
    pub compact_every: u64,
    /// In-memory repository shards. Reads are always lock-free `Arc`
    /// snapshot clones; more shards spread *writer* contention. Also
    /// the shard count a new `<repo>.d/` directory is created with (an
    /// existing directory's manifest fixes its own).
    pub shards: usize,
    /// Serve through the evented front end: one `poll(2)` loop thread
    /// owns every socket and only *ready requests* occupy workers, so
    /// idle keep-alive connections cost a registration instead of a
    /// thread. Unix only. The worker-pool front end stays the default.
    pub evented: bool,
    /// Evented mode: admission cap on concurrently open connections;
    /// beyond it new arrivals are shed with `503` + `Connection: close`.
    pub max_conns: usize,
    /// Evented mode: a connection that has sent part of a request head
    /// must complete it within this window (slowloris defence) or the
    /// loop answers `408` and closes.
    pub header_timeout: Duration,
    /// Evented mode: idle keep-alive connections (no request in
    /// progress) are closed after this long.
    pub idle_timeout: Duration,
    /// Evented mode: a connection that stops draining a pending
    /// response for this long is dropped (write-stall defence).
    pub write_stall_timeout: Duration,
    /// Evented mode: in-flight-bytes budget per streaming response —
    /// how far a producer may run ahead of a slow client before it
    /// blocks (backpressure) instead of buffering without bound.
    pub stream_budget: usize,
    /// Reject `PUT /clusters/{name}` bodies whose rules carry
    /// error-level lint findings (provably-empty XPaths, unsatisfiable
    /// predicates) with a `400` carrying the diagnostics. Warnings are
    /// reported in the response body either way.
    pub strict_lint: bool,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 4,
            queue_capacity: 64,
            extract_threads: 4,
            read_timeout: Duration::from_millis(100),
            repo_path: None,
            compact_every: 1024,
            shards: 8,
            evented: false,
            max_conns: 4096,
            header_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(60),
            write_stall_timeout: Duration::from_secs(30),
            stream_budget: 256 * 1024,
            strict_lint: false,
        }
    }
}

impl ServerConfig {
    /// The repository directory: `<repo>.d` next to the repository
    /// path.
    pub fn shard_dir(&self) -> Option<PathBuf> {
        self.repo_path.as_deref().map(|repo| Self::suffixed(repo, ".d"))
    }

    /// The single-file log imported with `<repo>` on first start:
    /// `<repo>.wal`.
    pub fn legacy_wal_path(&self) -> Option<PathBuf> {
        self.repo_path.as_deref().map(|repo| Self::suffixed(repo, ".wal"))
    }

    fn suffixed(path: &std::path::Path, suffix: &str) -> PathBuf {
        let mut name = path.file_name().unwrap_or_default().to_os_string();
        name.push(suffix);
        path.with_file_name(name)
    }
}

/// State shared by every worker: the sharded rule store (lock-free
/// snapshot reads + per-shard compiled-rule caches), its durability
/// layer (per-shard WAL/snapshot persistence), the metrics, and the
/// shutdown flag.
pub struct ServiceState {
    store: Arc<ShardedRepository>,
    durable: DurableRepository,
    sharded_open: Option<ShardedOpenReport>,
    metrics: Metrics,
    extract_threads: usize,
    strict_lint: bool,
    shutting_down: AtomicBool,
    /// Set once by `Server::start`; lets `/metrics` report live worker
    /// gauges without threading the pool through every handler.
    pool: OnceLock<Arc<ThreadPool>>,
}

impl ServiceState {
    /// The rule store, through the [`ClusterStore`] storage API — the
    /// only repository surface handlers use.
    pub fn repo(&self) -> &dyn ClusterStore {
        self.store.as_ref()
    }

    /// Per-shard cache/size gauges for `/metrics`.
    pub fn shard_stats(&self) -> Vec<RepositoryStats> {
        self.store.shard_stats()
    }

    /// The persistence layer itself, for mutation endpoints.
    pub fn durable(&self) -> &DurableRepository {
        &self.durable
    }

    /// What the sharded open did at startup (import, manifest
    /// adoption); `None` without a repository path.
    pub fn sharded_open_report(&self) -> Option<ShardedOpenReport> {
        self.sharded_open
    }

    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    pub fn extract_threads(&self) -> usize {
        self.extract_threads
    }

    /// Whether `PUT /clusters/{name}` rejects rule sets with
    /// error-level lint findings.
    pub fn strict_lint(&self) -> bool {
        self.strict_lint
    }

    pub fn shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    /// Live worker-pool gauges for `/metrics`; `None` before
    /// `Server::start` wires the pool in.
    pub fn worker_snapshot(&self) -> Option<metrics::WorkerSnapshot> {
        self.pool.get().map(|pool| metrics::WorkerSnapshot {
            threads: pool.threads(),
            busy: pool.busy(),
            busy_high_water: pool.busy_high_water(),
            queued: pool.queued(),
        })
    }

    /// Record a cluster durably: on `Ok`, the mutation is fsynced (one
    /// shard-WAL append — O(change), not O(repo)) and live in memory.
    pub fn record_cluster(&self, rules: ClusterRules) -> io::Result<()> {
        self.durable.record(rules)
    }

    /// Remove a cluster durably; returns whether it existed.
    pub fn remove_cluster(&self, name: &str) -> io::Result<bool> {
        self.durable.remove(name)
    }

    /// Aggregate WAL counters for `/metrics`; `None` when not in WAL
    /// mode.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.durable.wal_stats()
    }

    /// Per-WAL-shard counters; `None` when not in WAL mode.
    pub fn shard_wal_stats(&self) -> Option<Vec<WalStats>> {
        self.durable.shard_wal_stats()
    }
}

/// A bound-but-not-yet-serving server.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServiceState>,
    config: ServerConfig,
}

impl Server {
    /// Bind the listener and wrap the repository in shared state.
    ///
    /// With `repo_path` set, the `<repo>.d/` directory is opened (one
    /// snapshot + log per shard, replayed in parallel). `seed` and the
    /// single-file `<repo>` + `<repo>.wal` pair initialise a brand-new
    /// directory, inside the import's crash-safe commit point, with the
    /// legacy files winning over seed clusters; an existing directory's
    /// replayed history (including deletions) is authoritative and both
    /// are ignored. Without `repo_path`, the seed is served from memory.
    pub fn bind(seed: RuleRepository, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let (store, durable, sharded_open) = match config.shard_dir() {
            Some(dir) => {
                let (durable, store, report) = DurableRepository::open_sharded(
                    &dir,
                    config.shards,
                    config.compact_every,
                    Some(&seed.snapshot()),
                    config.repo_path.as_deref(),
                    config.legacy_wal_path().as_deref(),
                )
                .map_err(io::Error::other)?;
                (store, durable, Some(report))
            }
            None => {
                let store = Arc::new(ShardedRepository::new(config.shards.max(1)));
                for (_, rules) in seed.snapshot().iter() {
                    store.record(rules.clone());
                }
                let durable =
                    DurableRepository::ephemeral(Arc::clone(&store) as Arc<dyn ClusterStore>);
                (store, durable, None)
            }
        };
        let state = Arc::new(ServiceState {
            store,
            durable,
            sharded_open,
            metrics: Metrics::new(),
            extract_threads: config.extract_threads.max(1),
            strict_lint: config.strict_lint,
            shutting_down: AtomicBool::new(false),
            pool: OnceLock::new(),
        });
        Ok(Server { listener, state, config })
    }

    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Spawn the front end (worker-pool acceptor by default, evented
    /// loop with `config.evented`) and the worker pool; returns the
    /// control handle.
    pub fn start(self) -> io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let Server { listener, state, config } = self;
        let pool = Arc::new(ThreadPool::new(config.threads, config.queue_capacity));
        let _ = state.pool.set(Arc::clone(&pool));
        if config.evented {
            #[cfg(unix)]
            {
                let loop_state = Arc::clone(&state);
                let acceptor = evented::spawn_loop(listener, loop_state, pool, &config)?;
                return Ok(ServerHandle { addr, state, acceptor: Some(acceptor) });
            }
            #[cfg(not(unix))]
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "evented mode needs poll(2); use the worker-pool front end",
            ));
        }
        let accept_state = Arc::clone(&state);
        let read_timeout = config.read_timeout;
        let acceptor =
            std::thread::Builder::new().name("retroweb-acceptor".to_string()).spawn(move || {
                for stream in listener.incoming() {
                    if accept_state.shutting_down() {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    accept_state.metrics().add_connection();
                    let conn_state = Arc::clone(&accept_state);
                    let job = Box::new(move || serve_connection(stream, &conn_state, read_timeout));
                    if pool.submit(job).is_err() {
                        break;
                    }
                }
                // Drain: every accepted-and-queued connection still gets
                // served before the workers exit.
                pool.shutdown();
            })?;
        Ok(ServerHandle { addr, state, acceptor: Some(acceptor) })
    }
}

/// Control handle for a running server.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServiceState>,
    acceptor: Option<JoinHandle<()>>,
}

impl ServerHandle {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn state(&self) -> &Arc<ServiceState> {
        &self.state
    }

    /// Graceful shutdown: stop accepting, drain the queue, join every
    /// thread. In-flight requests complete; idle keep-alive connections
    /// are closed at the next poll tick.
    pub fn shutdown(mut self) {
        self.begin_shutdown();
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }

    /// Block until the server stops (i.e. until some other shutdown
    /// path, such as SIGKILL, takes the process down).
    pub fn join(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }

    fn begin_shutdown(&self) {
        self.state.shutting_down.store(true, Ordering::SeqCst);
        // Poke the listener so a blocked `accept` observes the flag.
        let _ = TcpStream::connect(self.addr);
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            self.begin_shutdown();
            if let Some(acceptor) = self.acceptor.take() {
                let _ = acceptor.join();
            }
        }
    }
}

/// Serve one connection: keep-alive request loop with a shutdown-aware
/// idle poll. In-flight requests always complete; the connection closes
/// once the client asks for it, goes away, or shutdown begins.
fn serve_connection(stream: TcpStream, state: &Arc<ServiceState>, read_timeout: Duration) {
    let Ok(mut conn) = http::Conn::new(stream, read_timeout) else { return };
    loop {
        match conn.read_request() {
            http::ReadOutcome::Idle => {
                if state.shutting_down() {
                    return;
                }
            }
            http::ReadOutcome::Closed => return,
            http::ReadOutcome::Malformed(status, why) => {
                let _ = conn.write_response(&Response::error(status, why).closed());
                conn.discard_pending_input();
                return;
            }
            http::ReadOutcome::Request(req) => {
                let started = Instant::now();
                let (endpoint, reply) = handlers::route(state, &req);
                match reply {
                    http::Reply::Full(mut resp) => {
                        state.metrics().observe(endpoint, resp.status, started.elapsed());
                        if req.wants_close() || state.shutting_down() {
                            resp.close = true;
                        }
                        let write_ok = conn.write_response(&resp).is_ok();
                        if !write_ok || resp.close {
                            return;
                        }
                    }
                    http::Reply::Streaming(resp) => {
                        // Chunked framing needs an HTTP/1.1 peer; a 1.0
                        // client gets the stream EOF-delimited, which
                        // forces close. Latency is measured to the end
                        // of the body — the handler's work happens
                        // while writing.
                        let chunked = !req.http10;
                        let close = !chunked || req.wants_close() || state.shutting_down();
                        let status = resp.status;
                        let write_ok = conn.write_streaming(resp, chunked, close).is_ok();
                        state.metrics().observe(endpoint, status, started.elapsed());
                        if !write_ok || close {
                            return;
                        }
                    }
                }
            }
        }
    }
}
