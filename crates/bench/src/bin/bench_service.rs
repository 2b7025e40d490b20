//! Service throughput bench: pages/s and request latency over loopback
//! HTTP, for the `retroweb-service` extraction server.
//!
//! Seven scenarios:
//! - **single**: one keep-alive client, sequential `POST /extract/{c}`
//!   requests (per-request latency distribution);
//! - **batch**: several client threads each streaming
//!   `POST /extract/{c}/batch` requests (aggregate pages/s, now over
//!   chunked responses);
//! - **memory**: in-process streaming-vs-buffered comparison of the
//!   batch output path — the buffered baseline materialises the
//!   `XmlDocument` + full response string (the pre-sink behaviour),
//!   the streaming path drives `XmlWriterSink` — with **peak heap**
//!   measured by a tracking global allocator at two batch sizes, so
//!   the committed numbers pin down that streaming peak memory no
//!   longer grows with batch size;
//! - **rule churn**: durable rule mutations against a populated
//!   repository, WAL append (O(change)) vs whole-snapshot rewrite
//!   (O(repo)) — both fully fsynced — in mutations/s, pinning down the
//!   serving layer's `PUT /clusters/{name}` persistence cost;
//! - **contention**: 8 threads of mixed repository traffic (2/3
//!   lock-free reads, 1/3 fsynced durable writes) against the
//!   monolithic-lock stack (RwLock store + single WAL + whole-repo
//!   compaction — PR 4's architecture) vs the redesigned stack
//!   (`ShardedRepository` + per-shard WALs with concurrent fsyncs and
//!   per-shard compaction) — the redesign's acceptance number is the
//!   sharded/monolithic throughput ratio;
//! - **fusion**: whole-cluster pages/s on a label-anchored
//!   many-attribute cluster, fused one-pass extraction
//!   (`extract_page_compiled`, the cluster's rules merged into one
//!   shared-prefix plan run in a single DOM traversal) vs per-rule
//!   compiled execution (`extract_page_compiled_per_rule`) — the
//!   fusion PR's acceptance number is the fused/per-rule ratio;
//! - **connections**: idle-connection scaling — 10k established
//!   keep-alive connections (held by a hidden `--idle-flood` child
//!   process so both socket ends don't share one fd budget) with a
//!   small active set on top, evented front end vs the worker-pool
//!   baseline. The evented loop holds the sea with flat worker usage
//!   and serves the active set at unloaded latency; the worker-pool
//!   pins a thread per connection, and `threads` idle connections are
//!   enough to starve an active probe.
//!
//! Results go to stdout, `target/experiments/service_throughput.json`,
//! and `BENCH_service.json` in the working directory — the committed
//! copy tracks the serving-layer perf trajectory PR over PR.
//!
//! Run with: `cargo run --release -p retroweb-bench --bin bench_service`.
//! `--smoke` (or `BENCH_SERVICE_QUICK=1`) shrinks every scenario for a
//! CI gate; `--scenario contention|fusion|connections` runs that
//! scenario alone (no server, no committed-file rewrite) — CI uses
//! `--smoke --scenario contention` to fail the build on lock
//! regressions, `--smoke --scenario fusion` to fail it on
//! one-pass-extraction regressions, and `--smoke --scenario
//! connections` (512 connections) to fail it when the evented front
//! end stops holding an idle sea with flat worker usage.

use retroweb_bench::write_experiment;
use retroweb_json::Json;
use retroweb_service::testdata::{
    cluster_from, demo_cluster_json, demo_page, demo_pages, demo_repository, pages_json,
    DEMO_CLUSTER,
};
use retroweb_service::{Client, Server, ServerConfig};
use retrozilla::{
    extract_cluster_parallel_compiled_to, ClusterRules, ClusterStore, CollectSink, CompiledCluster,
    ComponentName, DurableRepository, Format, MappingRule, Multiplicity, Optionality,
    RepositorySnapshot, RepositoryStats, RuleRepository, Wal, WalOp,
};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Heap-tracking allocator: every live byte counted, peak retained, so
/// the memory scenario reports real peak heap deltas instead of
/// process-wide RSS noise.
mod peak_alloc {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicUsize, Ordering};

    pub struct PeakAlloc;

    static CURRENT: AtomicUsize = AtomicUsize::new(0);
    static PEAK: AtomicUsize = AtomicUsize::new(0);

    unsafe impl GlobalAlloc for PeakAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let p = System.alloc(layout);
            if !p.is_null() {
                let live = CURRENT.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
                PEAK.fetch_max(live, Ordering::Relaxed);
            }
            p
        }

        unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
            System.dealloc(p, layout);
            CURRENT.fetch_sub(layout.size(), Ordering::Relaxed);
        }
    }

    /// Reset the peak to the current live size (start of a scenario).
    pub fn reset_peak() {
        PEAK.store(CURRENT.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    pub fn current() -> usize {
        CURRENT.load(Ordering::Relaxed)
    }

    pub fn peak() -> usize {
        PEAK.load(Ordering::Relaxed)
    }
}

#[global_allocator]
static ALLOC: peak_alloc::PeakAlloc = peak_alloc::PeakAlloc;

/// One mode's measurement at one batch size.
struct MemoryRun {
    pages_per_s: f64,
    peak_heap_bytes: usize,
    output_bytes: u64,
}

/// Run the batch output path over `pages`, buffered or streaming, and
/// measure throughput + peak heap delta for the extraction itself.
fn memory_run(
    rules: &retrozilla::CompiledCluster,
    pages: &[(String, String)],
    threads: usize,
    streaming: bool,
) -> MemoryRun {
    peak_alloc::reset_peak();
    let before = peak_alloc::current();
    let started = Instant::now();
    let output_bytes = if streaming {
        // The served path: sink straight into an (discarding) writer,
        // as the chunked connection would consume it.
        let mut sink = retrozilla::XmlWriterSink::new(std::io::sink());
        extract_cluster_parallel_compiled_to(rules, pages, threads, &mut sink)
            .expect("sink never fails");
        sink.bytes_written()
    } else {
        // The pre-streaming path: materialise the whole document, then
        // the whole response string.
        let mut sink = CollectSink::new();
        extract_cluster_parallel_compiled_to(rules, pages, threads, &mut sink)
            .expect("CollectSink never fails");
        let body = sink.into_result().xml.to_string_with(2);
        body.len() as u64
    };
    let elapsed = started.elapsed().as_secs_f64();
    MemoryRun {
        pages_per_s: pages.len() as f64 / elapsed,
        peak_heap_bytes: peak_alloc::peak().saturating_sub(before),
        output_bytes,
    }
}

/// One persistence mode's rule-churn measurement.
struct ChurnRun {
    mutations_per_s: f64,
    bytes_written: u64,
}

/// Apply `mutations` alternating record mutations of one cluster to a
/// repository pre-populated with `repo_clusters` clusters and measure
/// acknowledged mutations/s. Both modes pay a real fsync per mutation —
/// the difference is O(change) log appends (the server's one-shard
/// directory layout, compaction kept out of the window) vs O(repo)
/// whole-snapshot rewrites (the pre-WAL persistence, kept here as the
/// baseline because the library no longer ships it).
fn churn_run(dir: &std::path::Path, repo_clusters: usize, mutations: usize, wal: bool) -> ChurnRun {
    let base = RuleRepository::new();
    for i in 0..repo_clusters {
        let mut c = cluster_from(&demo_cluster_json());
        c.cluster = format!("cluster-{i:04}");
        base.record(c);
    }
    let v1 = cluster_from(&demo_cluster_json());
    let v2 = cluster_from(&retroweb_service::testdata::updated_cluster_json());
    let timed = |mutate: &mut dyn FnMut(ClusterRules)| {
        let started = Instant::now();
        for i in 0..mutations {
            let mut c = if i.is_multiple_of(2) { v2.clone() } else { v1.clone() };
            c.cluster = "cluster-0000".to_string();
            mutate(c);
        }
        mutations as f64 / started.elapsed().as_secs_f64()
    };
    if wal {
        let layout = dir.join("churn-wal.d");
        let _ = std::fs::remove_dir_all(&layout);
        // Compaction stays out of the measured window (the default 1024
        // cadence amortises it away in production too).
        let seed = base.snapshot();
        let (durable, _, _) =
            DurableRepository::open_sharded(&layout, 1, u64::MAX, Some(&seed), None, None)
                .expect("wal");
        let mutations_per_s = timed(&mut |c| durable.record(c).expect("durable record"));
        let bytes_written = durable.wal_stats().expect("wal mode").appended_bytes;
        ChurnRun { mutations_per_s, bytes_written }
    } else {
        let snapshot = dir.join("churn-rewrite.json");
        let mutations_per_s = timed(&mut |c| {
            base.record(c);
            base.save(&snapshot).expect("snapshot rewrite");
        });
        let file_bytes = std::fs::metadata(&snapshot).map(|m| m.len()).unwrap_or(0);
        ChurnRun { mutations_per_s, bytes_written: file_bytes * mutations as u64 }
    }
}

// ---- contention scenario ---------------------------------------------------

/// The contention baseline's store: the monolithic pre-sharding
/// design, kept here because the library no longer ships it. One `RwLock` map (a
/// [`RuleRepository`]) for the rules and one `RwLock` map for the
/// compiled cache, which `record` and `remove` invalidate and a cache
/// miss fills while holding the cache-wide write lock.
#[derive(Debug, Default)]
struct LockedStore {
    rules: RuleRepository,
    compiled: RwLock<BTreeMap<String, Arc<CompiledCluster>>>,
}

impl ClusterStore for LockedStore {
    fn get(&self, cluster: &str) -> Option<ClusterRules> {
        self.rules.get(cluster)
    }

    fn compiled(&self, cluster: &str) -> Option<Arc<CompiledCluster>> {
        if let Some(hit) = self.compiled.read().expect("lock poisoned").get(cluster) {
            return Some(Arc::clone(hit));
        }
        // Build under the cache write lock, so a concurrent `record`
        // either lands first or removes the entry inserted here.
        let mut cache = self.compiled.write().expect("lock poisoned");
        if let Some(hit) = cache.get(cluster) {
            return Some(Arc::clone(hit));
        }
        let compiled = Arc::new(self.rules.get(cluster)?.compile());
        cache.insert(cluster.to_string(), Arc::clone(&compiled));
        Some(compiled)
    }

    fn record(&self, rules: ClusterRules) {
        let name = rules.cluster.clone();
        self.rules.record(rules);
        self.compiled.write().expect("lock poisoned").remove(&name);
    }

    fn remove(&self, cluster: &str) -> bool {
        let existed = self.rules.remove(cluster);
        self.compiled.write().expect("lock poisoned").remove(cluster);
        existed
    }

    fn snapshot(&self) -> RepositorySnapshot {
        self.rules.snapshot()
    }

    fn stats(&self) -> RepositoryStats {
        RepositoryStats {
            clusters: self.rules.len(),
            compiled_cache_entries: self.compiled.read().expect("lock poisoned").len(),
            ..RepositoryStats::default()
        }
    }
}

/// The contention baseline's persistence: the pre-sharding durability
/// layer, kept here because the library no longer ships it. One WAL
/// behind one mutex logs every mutation (so fsyncs never overlap), and
/// every `compact_every` mutations the *whole* store is rewritten into
/// one snapshot under that mutex before the log is truncated.
struct MonolithicWal {
    store: LockedStore,
    log: Mutex<(Wal, u64)>,
    snapshot: PathBuf,
    compact_every: u64,
}

impl MonolithicWal {
    /// Log-then-apply under the one mutex, compacting on the cadence.
    fn record(&self, rules: ClusterRules) -> std::io::Result<()> {
        let mut log = self.log.lock().expect("wal lock poisoned");
        let (wal, since_compaction) = &mut *log;
        let op = WalOp::Record(rules);
        wal.append(&op)?;
        op.apply(&self.store);
        *since_compaction += 1;
        if *since_compaction >= self.compact_every {
            self.store.snapshot().save(&self.snapshot)?;
            wal.truncate()?;
            *since_compaction = 0;
        }
        Ok(())
    }
}

/// Threads in the contention workload — fixed at 8 (the acceptance
/// criterion's number), independent of host cores: lock convoys and
/// fsync pipelining are scheduling phenomena, not parallelism ones.
const CONTENTION_THREADS: usize = 8;
/// Shards for the sharded side (the criterion's floor is 8; 32 keeps
/// per-shard COW maps small and spreads concurrent fsyncs over more
/// independent logs).
const CONTENTION_SHARDS: usize = 32;
/// Mutations folded into a (shard) snapshot per compaction, identical
/// for both stacks. Deliberately tight — ~1.5% of the repository per
/// fold — so recovery replay stays short at this cluster count; the
/// monolithic stack pays a whole-repository rewrite per fold, the
/// sharded stack 1/32 of it, 32× less often per shard.
const CONTENTION_COMPACT_EVERY: u64 = 128;

/// A deliberately small cluster (one trivial rule) so the workload
/// measures the *store*, not rule compilation or deep clones.
fn contention_cluster(name: &str, version: usize) -> ClusterRules {
    let mut c = ClusterRules::new(name, &format!("page-v{version}"));
    c.rules.push(retrozilla::MappingRule {
        name: retrozilla::ComponentName::new("title").unwrap(),
        optionality: retrozilla::Optionality::Mandatory,
        multiplicity: retrozilla::Multiplicity::SingleValued,
        format: retrozilla::Format::Text,
        locations: vec![retroweb_xpath::parse("/HTML[1]/BODY[1]/H1[1]/text()").unwrap()],
        post: vec![],
    });
    c
}

struct ContentionRun {
    ops_per_s: f64,
    reads: u64,
    writes: u64,
    writes_per_s: f64,
}

/// Hammer a durable repository from [`CONTENTION_THREADS`] threads for
/// `duration` with a mixed read/write serving workload — per 3 ops: 1
/// durable `record` (the `PUT /clusters/{name}` path: one fsynced WAL
/// append before acknowledgement) and 2 reads alternating `compiled`
/// (the extraction hot path) and `get` (`GET /clusters/{name}`). Same
/// deterministic op stream per thread regardless of backend, so the
/// two stacks face identical work and only the locking/layout differs:
/// the monolithic baseline serialises every writer behind one `RwLock`
/// map and **one** WAL mutex (PR-4's architecture — fsyncs cannot
/// overlap, and each compaction rewrites the whole repository under
/// that mutex), while the sharded stack routes writers to per-shard
/// mutexes and per-shard logs whose fsyncs proceed concurrently and
/// whose compactions each fold 1/32 of the data, with readers never
/// taking a lock at all.
fn contention_run(
    store: &dyn ClusterStore,
    record: &(dyn Fn(ClusterRules) -> std::io::Result<()> + Sync),
    names: &[String],
    duration: Duration,
) -> ContentionRun {
    let stop = AtomicBool::new(false);
    let (ops, writes) = std::thread::scope(|scope| {
        let mut workers = Vec::new();
        for t in 0..CONTENTION_THREADS {
            let stop = &stop;
            workers.push(scope.spawn(move || {
                let mut rng: u64 = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(t as u64 + 1);
                let mut ops = 0u64;
                let mut writes = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    for _ in 0..16 {
                        rng = rng
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1_442_695_040_888_963_407);
                        let r = (rng >> 33) as usize;
                        let name = &names[r % names.len()];
                        match r % 3 {
                            0 => {
                                record(contention_cluster(name, r % 4)).expect("durable record");
                                writes += 1;
                            }
                            1 => {
                                std::hint::black_box(store.get(name));
                            }
                            _ => {
                                std::hint::black_box(store.compiled(name));
                            }
                        }
                        ops += 1;
                    }
                }
                (ops, writes)
            }));
        }
        std::thread::sleep(duration);
        stop.store(true, Ordering::Relaxed);
        workers
            .into_iter()
            .map(|w| w.join().expect("contention worker"))
            .fold((0u64, 0u64), |(o, w), (po, pw)| (o + po, w + pw))
    });
    ContentionRun {
        ops_per_s: ops as f64 / duration.as_secs_f64(),
        reads: ops - writes,
        writes,
        writes_per_s: writes as f64 / duration.as_secs_f64(),
    }
}

/// The contention scenario: identical mixed read/write workloads
/// against the monolithic-lock baseline (RwLock store + single WAL —
/// the pre-redesign serving stack) and the sharded stack
/// (`ShardedRepository` + per-shard WALs via `open_sharded`). Prints
/// both and returns the JSON record. `gate` is the minimum accepted
/// sharded/monolithic throughput ratio — the full run enforces the
/// PR's ≥3× acceptance criterion, the CI smoke run a looser floor that
/// still fails the build on a regression (a stack whose writers
/// re-serialise measures ~1×).
fn contention_scenario(quick: bool) -> Json {
    // Smoke mode shrinks the repository and the windows; the gate drops
    // with it (a smaller repo softens the compaction asymmetry), but a
    // regression to serialised writers still measures ~1× and fails.
    let clusters = if quick { 2_048usize } else { 8_192 };
    let window = Duration::from_millis(if quick { 300 } else { 1_000 });
    let rounds = if quick { 2usize } else { 3 };
    let gate = if quick { 1.3 } else { 3.0 };
    let names: Vec<String> = (0..clusters).map(|i| format!("cluster-{i:05}")).collect();
    let dir =
        std::env::temp_dir().join(format!("retrozilla-bench-contention-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("contention dir");
    println!(
        "\ncontention: {CONTENTION_THREADS} threads, {clusters} clusters, mix 1/3 durable \
         record + 2/3 lock-free reads, compact every {CONTENTION_COMPACT_EVERY}, \
         {rounds}x{window:?} interleaved windows per stack"
    );

    // Baseline: monolithic RwLock store, one WAL, one persist mutex —
    // the PR-4 serving stack. Seeded in memory (its "loaded snapshot"
    // base state) before the WAL opens.
    let mono_wal = {
        let store = LockedStore::default();
        for name in &names {
            store.record(contention_cluster(name, 0));
            store.compiled(name).expect("warm the compiled cache");
        }
        let (wal, _) = Wal::open(&dir.join("mono.wal")).expect("mono wal");
        MonolithicWal {
            store,
            log: Mutex::new((wal, 0)),
            snapshot: dir.join("mono.json"),
            compact_every: CONTENTION_COMPACT_EVERY,
        }
    };
    let mono_record = |rules| mono_wal.record(rules);
    // The redesign: sharded store + per-shard WAL directory. Seeded
    // through its own durable path (per-shard appends + compactions).
    let (shard_durable, sharded_store, _) = DurableRepository::open_sharded(
        &dir.join("sharded.d"),
        CONTENTION_SHARDS,
        CONTENTION_COMPACT_EVERY,
        None,
        None,
        None,
    )
    .expect("sharded open");
    for name in &names {
        shard_durable.record(contention_cluster(name, 0)).expect("seed");
        sharded_store.compiled(name).expect("warm the compiled cache");
    }
    let shard_record = |rules| shard_durable.record(rules);

    // Warm both stacks, then measure in alternating windows: fsync
    // latency on shared hosts drifts over seconds, and interleaving
    // spreads that drift evenly over both sides instead of letting it
    // bias whichever stack ran last.
    let warm = Duration::from_millis(150);
    contention_run(&mono_wal.store, &mono_record, &names, warm);
    contention_run(sharded_store.as_ref(), &shard_record, &names, warm);
    let zero = || ContentionRun { ops_per_s: 0.0, reads: 0, writes: 0, writes_per_s: 0.0 };
    let fold = |total: ContentionRun, run: ContentionRun| ContentionRun {
        ops_per_s: total.ops_per_s + run.ops_per_s / rounds as f64,
        reads: total.reads + run.reads,
        writes: total.writes + run.writes,
        writes_per_s: total.writes_per_s + run.writes_per_s / rounds as f64,
    };
    let (mut mono, mut shard) = (zero(), zero());
    for _ in 0..rounds {
        mono = fold(mono, contention_run(&mono_wal.store, &mono_record, &names, window));
        shard = fold(shard, contention_run(sharded_store.as_ref(), &shard_record, &names, window));
    }
    drop(mono_wal);
    drop(shard_durable);
    let _ = std::fs::remove_dir_all(&dir);

    let speedup = shard.ops_per_s / mono.ops_per_s.max(f64::MIN_POSITIVE);
    println!(
        "  monolithic lock + 1 WAL:   {:>8.0} ops/s ({:.0} fsynced writes/s)\n  \
         sharded x{CONTENTION_SHARDS} + {CONTENTION_SHARDS} WALs: {:>8.0} ops/s \
         ({:.0} fsynced writes/s)\n  -> {speedup:.1}x",
        mono.ops_per_s, mono.writes_per_s, shard.ops_per_s, shard.writes_per_s,
    );
    assert!(
        speedup >= gate,
        "sharded repository must beat the monolithic-lock baseline by at least {gate}x under \
         mixed 8-thread read/write load, measured {speedup:.2}x"
    );
    let side = |run: &ContentionRun| {
        Json::object(vec![
            ("ops_per_s".into(), Json::from(round3(run.ops_per_s))),
            ("reads".into(), Json::from(run.reads as usize)),
            ("writes".into(), Json::from(run.writes as usize)),
            ("writes_per_s".into(), Json::from(round3(run.writes_per_s))),
        ])
    };
    Json::object(vec![
        ("threads".into(), Json::from(CONTENTION_THREADS)),
        ("shards".into(), Json::from(CONTENTION_SHARDS)),
        ("clusters".into(), Json::from(clusters)),
        ("write_fraction".into(), Json::from(1.0 / 3.0)),
        ("compact_every".into(), Json::from(CONTENTION_COMPACT_EVERY as usize)),
        ("durable_writes".into(), Json::from("one fsynced WAL append per record")),
        (
            "host_cpus".into(),
            Json::from(std::thread::available_parallelism().map(usize::from).unwrap_or(1)),
        ),
        ("window_ms".into(), Json::from(window.as_millis() as usize)),
        ("rounds".into(), Json::from(rounds)),
        ("monolithic".into(), side(&mono)),
        ("sharded".into(), side(&shard)),
        ("speedup".into(), Json::from(round3(speedup))),
    ])
}

// ---- fusion scenario -------------------------------------------------------

/// A label-anchored many-attribute cluster, the shape the paper's
/// clusters take after refinement: every attribute's location anchors
/// on the same `//TD/text()` label walk (shared fused-trie prefix) and
/// differs only in the label it tests, plus a few positional rules
/// sharing the `/HTML/BODY/TABLE` spine.
fn fusion_rule(name: &str, location: &str) -> MappingRule {
    MappingRule {
        name: ComponentName::new(name).expect("bench rule name"),
        optionality: Optionality::Optional,
        multiplicity: Multiplicity::SingleValued,
        format: Format::Text,
        locations: vec![retroweb_xpath::parse(location).expect("bench rule location")],
        post: vec![],
    }
}

fn fusion_cluster(labels: usize) -> ClusterRules {
    let mut c = ClusterRules::new("fusion-bench", "record");
    for i in 0..labels {
        c.rules.push(fusion_rule(
            &format!("attr{i}"),
            &format!(
                "//TD/text()[preceding::text()[normalize-space(.) != \"\"][1]\
                 [contains(normalize-space(.), \"Label{i}:\")]]"
            ),
        ));
    }
    c.rules.push(fusion_rule("pos0", "/HTML[1]/BODY[1]/TABLE[1]/TR[1]/TD[2]/text()"));
    c.rules.push(fusion_rule("pos1", "/HTML[1]/BODY[1]/H1[1]/text()"));
    c
}

/// One fact page for the fusion cluster: the label/value fact table
/// every rule anchors on, surrounded by the boilerplate a real detail
/// page carries — navigation, related-item lists, footer paragraphs.
/// The boilerplate is what the shared `//TD` walk has to wade through;
/// fusing the cluster wades through it once instead of once per rule.
fn fusion_page(labels: usize, seed: usize) -> String {
    let mut html = format!("<html><body><h1>Record {seed}</h1><div>");
    for i in 0..250 {
        html.push_str(&format!("<p>nav {seed}-{i} <span>x</span> <em>y</em> <a>link</a></p>"));
    }
    html.push_str("</div><table>");
    for i in 0..labels {
        html.push_str(&format!("<tr><td><b>Label{i}:</b></td><td>value-{seed}-{i}</td></tr>"));
    }
    html.push_str("</table><ul>");
    for i in 0..100 {
        html.push_str(&format!("<li>item {seed}-{i} <span>tag</span></li>"));
    }
    html.push_str("</ul><div>");
    for i in 0..100 {
        html.push_str(&format!("<p>footer paragraph {seed}-{i} with <b>markup</b></p>"));
    }
    html.push_str("</div></body></html>");
    html
}

/// The fusion scenario: whole-cluster pages/s on a label-anchored
/// many-attribute cluster, fused one-pass execution
/// (`extract_page_compiled`) vs per-rule compiled execution
/// (`extract_page_compiled_per_rule`), on identical parsed documents.
/// Asserts output equality before timing, then gates the speedup.
fn fusion_scenario(quick: bool) -> Json {
    let labels = 14usize;
    let page_count = if quick { 24 } else { 200 };
    let rounds = if quick { 3 } else { 5 };
    let gate = if quick { 1.3 } else { 2.0 };
    let cluster = fusion_cluster(labels);
    let rule_count = cluster.rules.len();
    let compiled = cluster.compile();
    let stats = compiled.fused().stats();
    let docs: Vec<retroweb_html::Document> =
        (0..page_count).map(|i| retroweb_html::parse(&fusion_page(labels, i))).collect();
    println!(
        "\nfusion: {rule_count} label-anchored rules, {page_count} pages, \
         {}/{} steps shared in the fused plan",
        stats.steps_shared, stats.steps_total
    );

    // Both paths must agree on every page before any timing counts.
    for (i, doc) in docs.iter().enumerate() {
        let (mut ff, mut pf) = (Vec::new(), Vec::new());
        let fused = retrozilla::extract_page_compiled(&compiled, "u", doc, &mut ff);
        let per_rule = retrozilla::extract_page_compiled_per_rule(&compiled, "u", doc, &mut pf);
        assert_eq!(fused, per_rule, "fused/per-rule outputs diverge on page {i}");
        assert_eq!(ff, pf, "fused/per-rule failures diverge on page {i}");
    }

    let run = |fused: bool| -> f64 {
        let started = Instant::now();
        for _ in 0..rounds {
            for doc in &docs {
                let mut failures = Vec::new();
                let out = if fused {
                    retrozilla::extract_page_compiled(&compiled, "u", doc, &mut failures)
                } else {
                    retrozilla::extract_page_compiled_per_rule(&compiled, "u", doc, &mut failures)
                };
                std::hint::black_box(out);
            }
        }
        (rounds * docs.len()) as f64 / started.elapsed().as_secs_f64()
    };
    // Warm both paths, then interleave measurement rounds.
    run(false);
    run(true);
    let per_rule_pages_per_s = run(false);
    let fused_pages_per_s = run(true);
    let speedup = fused_pages_per_s / per_rule_pages_per_s.max(f64::MIN_POSITIVE);
    println!(
        "  per-rule: {per_rule_pages_per_s:>8.0} pages/s | fused: {fused_pages_per_s:>8.0} \
         pages/s -> {speedup:.1}x"
    );
    assert!(
        speedup >= gate,
        "fused one-pass extraction must beat per-rule execution by at least {gate}x on a \
         shared-anchor cluster, measured {speedup:.2}x"
    );
    Json::object(vec![
        ("rules".into(), Json::from(rule_count)),
        ("pages".into(), Json::from(page_count)),
        ("rounds".into(), Json::from(rounds)),
        ("steps_total".into(), Json::from(stats.steps_total)),
        ("steps_shared".into(), Json::from(stats.steps_shared)),
        ("per_rule_pages_per_s".into(), Json::from(round3(per_rule_pages_per_s))),
        ("fused_pages_per_s".into(), Json::from(round3(fused_pages_per_s))),
        ("speedup".into(), Json::from(round3(speedup))),
        ("gate".into(), Json::from(gate)),
    ])
}

// ---- connections scenario --------------------------------------------------

fn connect_retry(addr: std::net::SocketAddr) -> Client {
    for _ in 0..100 {
        match Client::connect(addr) {
            Ok(client) => return client,
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    panic!("could not connect to {addr} after 100 attempts");
}

/// Child-process body for the hidden `--idle-flood ADDR N` mode: hold
/// `n` keep-alive connections (one `/healthz` exchange each, then
/// idle), announce `READY`, and sit on them until the parent closes our
/// stdin. Run out-of-process so the client-side descriptors don't share
/// the bench process's fd budget with the server-side ones — at 10k
/// connections both ends together would blow the limit.
fn idle_flood(addr: &str, n: usize) {
    let addr: std::net::SocketAddr = addr.parse().expect("--idle-flood addr");
    let mut held = Vec::with_capacity(n);
    for _ in 0..n {
        let mut client = connect_retry(addr);
        let resp = client.request("GET", "/healthz", &[], b"").expect("flood healthz");
        assert_eq!(resp.status, 200, "flood connection refused");
        held.push(client);
    }
    println!("READY {n}");
    use std::io::Read as _;
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    drop(held);
}

/// A sea of established-then-idle keep-alive connections, held either
/// in-process (small counts) or by an `--idle-flood` child (large
/// counts; see [`idle_flood`]). Released explicitly so teardown order
/// against the server is deliberate.
enum IdleFlood {
    InProcess(Vec<Client>),
    Child(std::process::Child),
}

impl IdleFlood {
    fn hold(addr: std::net::SocketAddr, n: usize, in_process: bool) -> IdleFlood {
        if in_process {
            let mut held = Vec::with_capacity(n);
            for _ in 0..n {
                let mut client = connect_retry(addr);
                let resp = client.request("GET", "/healthz", &[], b"").expect("flood healthz");
                assert_eq!(resp.status, 200);
                held.push(client);
            }
            IdleFlood::InProcess(held)
        } else {
            let exe = std::env::current_exe().expect("current exe");
            let mut child = std::process::Command::new(exe)
                .args(["--idle-flood", &addr.to_string(), &n.to_string()])
                .stdin(std::process::Stdio::piped())
                .stdout(std::process::Stdio::piped())
                .spawn()
                .expect("spawn --idle-flood child");
            let stdout = child.stdout.take().expect("child stdout");
            let mut line = String::new();
            use std::io::BufRead as _;
            std::io::BufReader::new(stdout).read_line(&mut line).expect("read child READY");
            assert!(line.starts_with("READY"), "idle-flood child said {line:?}");
            IdleFlood::Child(child)
        }
    }

    fn release(self) {
        match self {
            IdleFlood::InProcess(held) => drop(held),
            IdleFlood::Child(mut child) => {
                // EOF on its stdin is the child's release signal.
                drop(child.stdin.take());
                let _ = child.wait();
            }
        }
    }
}

/// Sequential single-page extraction latency through whatever else the
/// server is holding — the "small active set" riding above the idle
/// sea.
fn probe_latency(addr: std::net::SocketAddr, requests: usize) -> LatencySummary {
    let (uri, html) = demo_page(3);
    let mut client = connect_retry(addr);
    let path = format!("/extract/{DEMO_CLUSTER}");
    let headers = [("x-page-uri", uri.as_str())];
    for _ in 0..10 {
        client.request("POST", &path, &headers, html.as_bytes()).expect("probe warmup");
    }
    let mut samples = Vec::with_capacity(requests);
    for _ in 0..requests {
        let t = Instant::now();
        let resp = client.request("POST", &path, &headers, html.as_bytes()).expect("probe");
        assert_eq!(resp.status, 200);
        samples.push(t.elapsed());
    }
    summarize(samples)
}

/// One raw `/healthz` exchange with a read deadline: did the server
/// answer at all? The saturation detector — a worker-pool server whose
/// threads are all pinned by idle connections accepts this socket into
/// the queue and never serves it.
fn deadline_probe(addr: std::net::SocketAddr, timeout: Duration) -> bool {
    use std::io::{Read as _, Write as _};
    let Ok(mut stream) = std::net::TcpStream::connect(addr) else { return false };
    stream.set_read_timeout(Some(timeout)).expect("read timeout");
    if stream
        .write_all(b"GET /healthz HTTP/1.1\r\nhost: bench\r\nconnection: close\r\n\r\n")
        .is_err()
    {
        return false;
    }
    let mut buf = [0u8; 1024];
    matches!(stream.read(&mut buf), Ok(n) if n > 0)
}

fn metrics_json(addr: std::net::SocketAddr) -> Json {
    retroweb_service::request_once(addr, "GET", "/metrics", &[], b"")
        .expect("metrics")
        .body_json()
        .expect("metrics json")
}

fn metrics_u64(metrics: &Json, section: &str, key: &str) -> u64 {
    metrics
        .get(section)
        .and_then(|s| s.get(key))
        .and_then(|v| v.as_u64())
        .unwrap_or_else(|| panic!("/metrics missing {section}.{key}: {metrics}"))
}

/// The connections scenario: a sea of idle keep-alive connections with
/// a small active set on top. The evented front end keys worker usage
/// to *ready requests*, so it holds the sea at one loop thread and
/// serves the active set at unloaded latency; the worker-pool front end
/// pins a thread per connection and saturates at pool size — `threads`
/// idle connections are enough to starve an active probe. The committed
/// numbers are the evented p50/p99 under the full flood next to the
/// worker-pool's unloaded latency and its saturation point.
fn connections_scenario(quick: bool) -> Json {
    if !cfg!(unix) {
        return Json::object(vec![(
            "skipped".into(),
            Json::from("evented front end is unix-only"),
        )]);
    }
    let conns = if quick { 512 } else { 10_000 };
    let probe_requests = if quick { 200 } else { 2_000 };
    let threads = 4usize;
    // Both socket ends of an in-process flood land in one fd budget;
    // past a few thousand the holder must be a child process.
    let in_process = conns < 4_000;

    // Evented side: establish the flood, then measure the active set
    // through it.
    let handle = Server::bind(
        demo_repository(),
        ServerConfig {
            evented: true,
            threads,
            max_conns: conns + 64,
            idle_timeout: Duration::from_secs(600),
            ..Default::default()
        },
    )
    .expect("bind evented")
    .start()
    .expect("start evented");
    let addr = handle.addr();
    let flood_started = Instant::now();
    let flood = IdleFlood::hold(addr, conns, in_process);
    let flood_establish_s = flood_started.elapsed().as_secs_f64();
    let evented_lat = probe_latency(addr, probe_requests);
    let metrics = metrics_json(addr);
    let open = metrics_u64(&metrics, "evented", "open");
    let evented_busy_hw = metrics_u64(&metrics, "workers", "busy_high_water");
    let evented_probe_served = deadline_probe(addr, Duration::from_secs(5));
    flood.release();
    handle.shutdown();

    // Worker-pool baseline: unloaded latency first, then saturation —
    // `threads` idle keep-alive connections pin every worker in its
    // keep-alive read loop, and the next arrival waits forever.
    let handle = Server::bind(demo_repository(), ServerConfig { threads, ..Default::default() })
        .expect("bind baseline")
        .start()
        .expect("start baseline");
    let addr = handle.addr();
    let baseline_lat = probe_latency(addr, probe_requests);
    let baseline_flood = IdleFlood::hold(addr, threads, true);
    let probe_timeout = if quick { Duration::from_millis(750) } else { Duration::from_secs(2) };
    let baseline_probe_served = deadline_probe(addr, probe_timeout);
    baseline_flood.release();
    let baseline_busy_hw = metrics_u64(&metrics_json(addr), "workers", "busy_high_water");
    handle.shutdown();

    println!(
        "connections: {conns} idle conns established in {flood_establish_s:.1}s \
         ({} flood)",
        if in_process { "in-process" } else { "child-process" }
    );
    println!(
        "  evented:     open={open} busy_high_water={evented_busy_hw}/{threads} \
         active p50={:.2}ms p99={:.2}ms probe_served={evented_probe_served}",
        evented_lat.p50_ms, evented_lat.p99_ms
    );
    println!(
        "  worker-pool: saturated by {threads} idle conns (busy_high_water=\
         {baseline_busy_hw}/{threads}, probe_served={baseline_probe_served}) | \
         unloaded p50={:.2}ms p99={:.2}ms",
        baseline_lat.p50_ms, baseline_lat.p99_ms
    );
    assert!(
        evented_probe_served,
        "evented front end must stay responsive while holding {conns} idle connections"
    );
    assert!(
        open >= conns as u64,
        "evented front end dropped idle connections: open gauge {open} < {conns}"
    );
    assert!(
        evented_busy_hw <= threads as u64,
        "worker usage must not scale with connection count: busy high-water {evented_busy_hw} \
         with a pool of {threads}"
    );
    assert!(
        !baseline_probe_served,
        "worker-pool baseline unexpectedly survived {threads} idle connections — the evented \
         front end's reason to exist needs re-measuring"
    );

    Json::object(vec![
        ("idle_conns".into(), Json::from(conns)),
        ("flood_establish_s".into(), Json::from(round3(flood_establish_s))),
        ("pool_threads".into(), Json::from(threads)),
        (
            "evented".into(),
            Json::object(vec![
                ("open".into(), Json::from(open as i64)),
                ("busy_high_water".into(), Json::from(evented_busy_hw as i64)),
                ("probe_served".into(), Json::from(evented_probe_served)),
                ("active_p50_ms".into(), Json::from(round3(evented_lat.p50_ms))),
                ("active_p99_ms".into(), Json::from(round3(evented_lat.p99_ms))),
                ("active_mean_ms".into(), Json::from(round3(evented_lat.mean_ms))),
            ]),
        ),
        (
            "worker_pool".into(),
            Json::object(vec![
                ("idle_conns_to_saturate".into(), Json::from(threads)),
                ("busy_high_water".into(), Json::from(baseline_busy_hw as i64)),
                ("probe_served_while_saturated".into(), Json::from(baseline_probe_served)),
                ("unloaded_p50_ms".into(), Json::from(round3(baseline_lat.p50_ms))),
                ("unloaded_p99_ms".into(), Json::from(round3(baseline_lat.p99_ms))),
                ("unloaded_mean_ms".into(), Json::from(round3(baseline_lat.mean_ms))),
            ]),
        ),
    ])
}

struct LatencySummary {
    p50_ms: f64,
    p99_ms: f64,
    mean_ms: f64,
}

fn summarize(mut samples: Vec<Duration>) -> LatencySummary {
    assert!(!samples.is_empty());
    samples.sort();
    let q = |q: f64| -> f64 {
        let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
        samples[rank - 1].as_secs_f64() * 1_000.0
    };
    let mean_ms =
        samples.iter().map(Duration::as_secs_f64).sum::<f64>() / samples.len() as f64 * 1_000.0;
    LatencySummary { p50_ms: q(0.50), p99_ms: q(0.99), mean_ms }
}

fn round3(x: f64) -> f64 {
    (x * 1_000.0).round() / 1_000.0
}

fn main() {
    // Hidden child mode for the connections scenario (see
    // [`idle_flood`]): not part of the user-facing CLI.
    let raw: Vec<String> = std::env::args().collect();
    if raw.get(1).map(String::as_str) == Some("--idle-flood") {
        let addr = raw.get(2).expect("--idle-flood ADDR N");
        let n = raw.get(3).expect("--idle-flood ADDR N").parse().expect("flood count");
        idle_flood(addr, n);
        return;
    }
    let mut quick = std::env::var("BENCH_SERVICE_QUICK").is_ok();
    let mut only: Option<String> = None;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--smoke" => quick = true,
            "--scenario" => {
                only = Some(argv.next().expect("--scenario needs a name"));
            }
            other => {
                panic!(
                    "unknown argument '{other}' (try --smoke, --scenario \
                     contention|fusion|connections)"
                )
            }
        }
    }
    if let Some(name) = only {
        // Standalone scenarios skip the committed BENCH_service.json —
        // a partial record must never overwrite the full trajectory.
        let scenario = match name.as_str() {
            "contention" => contention_scenario(quick),
            "fusion" => fusion_scenario(quick),
            "connections" => connections_scenario(quick),
            other => panic!(
                "only 'contention', 'fusion' and 'connections' run standalone, not '{other}'"
            ),
        };
        let record = Json::object(vec![
            ("bench".into(), Json::from(format!("service_{name}"))),
            ("smoke".into(), Json::from(quick)),
            (name.clone(), scenario),
        ]);
        write_experiment(&format!("service_{name}"), &record);
        println!("[{name}-only run; BENCH_service.json left untouched]");
        return;
    }
    let workers = std::thread::available_parallelism().map(usize::from).unwrap_or(4).clamp(2, 8);
    let server = Server::bind(
        demo_repository(),
        ServerConfig { threads: workers + 1, queue_capacity: 128, ..Default::default() },
    )
    .expect("bind");
    let handle = server.start().expect("start");
    let addr = handle.addr();

    println!("service throughput over loopback ({workers} workers)\n");

    // ---- scenario 1: sequential single-page extraction -------------------
    let (uri, html) = demo_page(7);
    let single_requests = if quick { 50 } else { 5_000 };
    let mut client = Client::connect(addr).expect("connect");
    // Warmup builds the compiled-cluster cache.
    for _ in 0..10 {
        client
            .request(
                "POST",
                &format!("/extract/{DEMO_CLUSTER}"),
                &[("x-page-uri", uri.as_str())],
                html.as_bytes(),
            )
            .expect("warmup");
    }
    let mut samples = Vec::with_capacity(single_requests);
    let started = Instant::now();
    for _ in 0..single_requests {
        let t = Instant::now();
        let resp = client
            .request(
                "POST",
                &format!("/extract/{DEMO_CLUSTER}"),
                &[("x-page-uri", uri.as_str())],
                html.as_bytes(),
            )
            .expect("single extract");
        assert_eq!(resp.status, 200);
        samples.push(t.elapsed());
    }
    let single_elapsed = started.elapsed().as_secs_f64();
    let single = summarize(samples);
    let single_pages_per_s = single_requests as f64 / single_elapsed;
    println!(
        "single: {single_requests} requests in {single_elapsed:.2}s -> {:.0} pages/s  \
         (p50 {:.3} ms, p99 {:.3} ms, mean {:.3} ms)",
        single_pages_per_s, single.p50_ms, single.p99_ms, single.mean_ms
    );

    // ---- scenario 2: concurrent batch extraction -------------------------
    let clients = workers.min(4);
    let batch_size = 64;
    let requests_per_client = if quick { 4 } else { 200 };
    let body = pages_json(&demo_pages(batch_size));
    let started = Instant::now();
    let per_client: Vec<Vec<Duration>> = std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for _ in 0..clients {
            let body = body.as_str();
            joins.push(scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut samples = Vec::with_capacity(requests_per_client);
                for _ in 0..requests_per_client {
                    let t = Instant::now();
                    let resp = client
                        .request(
                            "POST",
                            &format!("/extract/{DEMO_CLUSTER}/batch?threads=2"),
                            &[],
                            body.as_bytes(),
                        )
                        .expect("batch extract");
                    assert_eq!(resp.status, 200);
                    samples.push(t.elapsed());
                }
                samples
            }));
        }
        joins.into_iter().map(|j| j.join().expect("bench client")).collect()
    });
    let batch_elapsed = started.elapsed().as_secs_f64();
    let total_pages = clients * requests_per_client * batch_size;
    let batch = summarize(per_client.into_iter().flatten().collect());
    let batch_pages_per_s = total_pages as f64 / batch_elapsed;
    println!(
        "batch:  {clients} clients x {requests_per_client} x {batch_size} pages in {batch_elapsed:.2}s \
         -> {:.0} pages/s  (p50 {:.1} ms, p99 {:.1} ms per request)",
        batch_pages_per_s, batch.p50_ms, batch.p99_ms
    );

    handle.shutdown();

    // ---- scenario 3: streaming vs buffered batch output path -------------
    let rules = cluster_from(&demo_cluster_json()).compile();
    let memory_sizes: &[usize] = if quick { &[64, 256] } else { &[256, 2048] };
    let mut memory_records = Vec::new();
    println!("\nmemory: streaming vs buffered batch output ({workers} extract threads)");
    for &size in memory_sizes {
        let pages = demo_pages(size);
        // Warm both paths once so allocator pools settle.
        memory_run(&rules, &pages, workers, false);
        memory_run(&rules, &pages, workers, true);
        let buffered = memory_run(&rules, &pages, workers, false);
        let streaming = memory_run(&rules, &pages, workers, true);
        assert_eq!(
            buffered.output_bytes, streaming.output_bytes,
            "both modes must produce identical output"
        );
        println!(
            "  batch {size:>5}: buffered {:>7.0} pages/s, peak {:>9} B | \
             streaming {:>7.0} pages/s, peak {:>9} B ({:.1}x less)",
            buffered.pages_per_s,
            buffered.peak_heap_bytes,
            streaming.pages_per_s,
            streaming.peak_heap_bytes,
            buffered.peak_heap_bytes as f64 / streaming.peak_heap_bytes.max(1) as f64,
        );
        let mode = |run: &MemoryRun| {
            Json::object(vec![
                ("pages_per_s".into(), Json::from(round3(run.pages_per_s))),
                ("peak_heap_bytes".into(), Json::from(run.peak_heap_bytes)),
            ])
        };
        memory_records.push(Json::object(vec![
            ("batch_size".into(), Json::from(size)),
            ("output_bytes".into(), Json::from(streaming.output_bytes as usize)),
            ("buffered".into(), mode(&buffered)),
            ("streaming".into(), mode(&streaming)),
        ]));
    }
    // The acceptance criterion in machine-checkable form: buffered peak
    // grows with batch size, streaming peak must not (3x slack covers
    // allocator jitter on a quick run).
    let peak_of = |rec: &Json, mode: &str| -> f64 {
        rec.get(mode).unwrap().get("peak_heap_bytes").unwrap().as_f64().unwrap()
    };
    let small = &memory_records[0];
    let large = &memory_records[memory_records.len() - 1];
    let streaming_growth = peak_of(large, "streaming") / peak_of(small, "streaming").max(1.0);
    let buffered_growth = peak_of(large, "buffered") / peak_of(small, "buffered").max(1.0);
    println!(
        "  peak-heap growth {}x batch: buffered {buffered_growth:.1}x, \
         streaming {streaming_growth:.1}x",
        memory_sizes[memory_sizes.len() - 1] / memory_sizes[0],
    );
    assert!(
        streaming_growth < 3.0,
        "streaming peak heap grew {streaming_growth:.1}x with batch size"
    );

    // ---- scenario 4: rule churn, WAL append vs snapshot rewrite ----------
    let churn_dir =
        std::env::temp_dir().join(format!("retrozilla-bench-churn-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&churn_dir);
    std::fs::create_dir_all(&churn_dir).expect("churn dir");
    let repo_clusters = 200;
    let churn_mutations = if quick { 40 } else { 400 };
    // Warm both stores (file creation, allocator) outside the window.
    churn_run(&churn_dir, 8, 4, false);
    churn_run(&churn_dir, 8, 4, true);
    let rewrite = churn_run(&churn_dir, repo_clusters, churn_mutations, false);
    let wal = churn_run(&churn_dir, repo_clusters, churn_mutations, true);
    let _ = std::fs::remove_dir_all(&churn_dir);
    println!(
        "\nchurn:  {churn_mutations} fsynced mutations over {repo_clusters} clusters\n\
         \x20 rewrite {:>7.0} mut/s ({} B written) | wal {:>7.0} mut/s ({} B appended) \
         -> {:.1}x",
        rewrite.mutations_per_s,
        rewrite.bytes_written,
        wal.mutations_per_s,
        wal.bytes_written,
        wal.mutations_per_s / rewrite.mutations_per_s.max(f64::MIN_POSITIVE),
    );
    assert!(
        wal.bytes_written < rewrite.bytes_written,
        "a WAL append must write less than a whole-repository rewrite"
    );
    let churn_mode = |run: &ChurnRun| {
        Json::object(vec![
            ("mutations_per_s".into(), Json::from(round3(run.mutations_per_s))),
            ("bytes_written".into(), Json::from(run.bytes_written as usize)),
        ])
    };
    let churn_record = Json::object(vec![
        ("repo_clusters".into(), Json::from(repo_clusters)),
        ("mutations".into(), Json::from(churn_mutations)),
        ("full_rewrite".into(), churn_mode(&rewrite)),
        ("wal".into(), churn_mode(&wal)),
        (
            "wal_speedup".into(),
            Json::from(round3(
                wal.mutations_per_s / rewrite.mutations_per_s.max(f64::MIN_POSITIVE),
            )),
        ),
    ]);

    // ---- scenario 5: repository lock contention --------------------------
    let contention_record = contention_scenario(quick);

    // ---- scenario 6: fused one-pass cluster extraction -------------------
    let fusion_record = fusion_scenario(quick);

    // ---- scenario 7: idle-connection scaling, evented vs worker-pool -----
    let connections_record = connections_scenario(quick);

    let record = Json::object(vec![
        ("bench".into(), Json::from("service_throughput")),
        ("server_workers".into(), Json::from(workers + 1)),
        (
            "single".into(),
            Json::object(vec![
                ("requests".into(), Json::from(single_requests)),
                ("pages_per_s".into(), Json::from(round3(single_pages_per_s))),
                ("p50_ms".into(), Json::from(round3(single.p50_ms))),
                ("p99_ms".into(), Json::from(round3(single.p99_ms))),
                ("mean_ms".into(), Json::from(round3(single.mean_ms))),
            ]),
        ),
        (
            "batch".into(),
            Json::object(vec![
                ("clients".into(), Json::from(clients)),
                ("requests_per_client".into(), Json::from(requests_per_client)),
                ("batch_size".into(), Json::from(batch_size)),
                ("pages".into(), Json::from(total_pages)),
                ("pages_per_s".into(), Json::from(round3(batch_pages_per_s))),
                ("p50_ms".into(), Json::from(round3(batch.p50_ms))),
                ("p99_ms".into(), Json::from(round3(batch.p99_ms))),
            ]),
        ),
        ("memory".into(), Json::Array(memory_records)),
        ("rule_churn".into(), churn_record),
        ("contention".into(), contention_record),
        ("fusion".into(), fusion_record),
        ("connections".into(), connections_record),
    ]);
    write_experiment("service_throughput", &record);
    std::fs::write("BENCH_service.json", record.to_string_pretty())
        .expect("write BENCH_service.json");
    println!("[record written to BENCH_service.json]");
}
