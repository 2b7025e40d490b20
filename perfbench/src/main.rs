//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --server PATH --workload NAME|all --seed N --seconds S --trace 0|1 [--work DIR]
//! perfbench --server PATH --self-test [--work DIR]
//! ```
//!
//! Starts `retrozilla-serve` as its own process on the workload's
//! on-disk repository (only `--addr` and `--repo` are passed; every
//! other setting is the server's default), drives a closed-loop load
//! over loopback, checks every response against in-process extraction,
//! and prints the metrics. With `--trace 0` the last stdout line carries
//! the end-to-end metrics; with `--trace 1` a traced in-process replay
//! of sampled requests yields the per-layer metrics instead. See
//! `README.md` beside this crate for the workloads and metrics.

mod client;
mod inputs;
mod load;
mod oracle;
mod server;
mod stats;
mod trace;

use client::Client;
use inputs::{Inputs, Kind, Workload};
use load::{ClientLog, Op, Tally};
use retroweb_service::{Server as InProcessServer, ServerConfig};
use retrozilla::{RuleRepository, Wal, WalOp};
use server::{metric, Server};
use stats::{median, quantile};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

struct Args {
    server: PathBuf,
    work: PathBuf,
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    short: bool,
    self_test: bool,
}

const USAGE: &str = "usage: perfbench --server PATH --workload NAME|all --seed N --seconds S \
                     --trace 0|1 [--work DIR] | --server PATH --self-test [--work DIR]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        server: PathBuf::new(),
        work: PathBuf::from(".bench_work"),
        workloads: Vec::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        short: false,
        self_test: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--server" => args.server = PathBuf::from(value()?),
            "--work" => args.work = PathBuf::from(value()?),
            "--workload" => {
                let name = value()?;
                args.workloads = match name.as_str() {
                    "all" => Workload::ALL.to_vec(),
                    _ => vec![Workload::from_name(&name)
                        .ok_or_else(|| format!("unknown workload '{name}'"))?],
                };
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("bad --seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace '{other}': expected 0 or 1")),
                }
            }
            "--self-test" => args.self_test = true,
            _ => return Err(format!("unknown flag '{flag}'\n{USAGE}")),
        }
    }
    if args.server.as_os_str().is_empty() {
        return Err(format!("--server is required\n{USAGE}"));
    }
    if !(args.seconds >= 1.0 && args.seconds.is_finite()) {
        return Err(format!("bad --seconds: expected at least 1\n{USAGE}"));
    }
    if args.workloads.is_empty() && !args.self_test {
        return Err(format!("--workload is required\n{USAGE}"));
    }
    Ok(args)
}

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    samples: usize,
}

/// End-to-end metrics, in `BENCHMARK.json` order; `failed_ratio` is
/// printed with them but travels as `attempted`/`failed` in the result
/// line (a metric that is 0 on a correct run has no relative bound).
const END_TO_END: &[(&str, &str)] = &[
    ("pages_per_s", "pages/s"),
    ("req_p50_ms", "ms"),
    ("req_p95_ms", "ms"),
    ("cpu_us_per_page", "us"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

const PER_LAYER: &[(&str, &str)] = &[
    ("service.http_parse_us", "us"),
    ("service.response_encode_us", "us"),
    ("service.residual_us", "us"),
    ("json.decode_us", "us"),
    ("json.decode_mb_per_s", "MB/s"),
    ("html.parse_us", "us"),
    ("html.parse_mb_per_s", "MB/s"),
    ("html.nodes_per_page", "count"),
    ("html.depth_p99", "count"),
    ("html.free_us", "us"),
    ("xpath.executor_setup_us", "us"),
    ("xpath.fused_exec_us", "us"),
    ("xpath.fused_shared_ratio", "ratio"),
    ("core.values_us", "us"),
    ("core.rule_failures_per_page", "count"),
    ("core.sink_xml_us", "us"),
    ("core.sink_ndjson_us", "us"),
    ("core.sink_bytes_per_page", "bytes"),
    ("xmlout.serialize_us", "us"),
    ("core.from_json_us", "us"),
    ("core.lint_us", "us"),
    ("core.compile_us", "us"),
    ("core.wal_record_us", "us"),
    ("core.wal_bytes_per_mutation", "bytes"),
    ("core.compactions", "count"),
    ("core.compiled_cache_hit_ratio", "ratio"),
    ("core.store_lookup_ns", "ns"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

fn unit_of(table: &[(&'static str, &'static str)], name: &str) -> &'static str {
    table.iter().find(|(n, _)| *n == name).map(|(_, u)| *u).expect("known metric")
}

#[derive(Default)]
struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Outcome {
    fn push(
        &mut self,
        table: &[(&'static str, &'static str)],
        name: &'static str,
        value: f64,
        samples: usize,
    ) {
        self.metrics.push(Metric { name, unit: unit_of(table, name), value, samples });
    }

    fn absorb(&mut self, log: &ClientLog) {
        self.attempted += log.attempted;
        self.failed += log.failed;
        self.errors.extend(log.errors.iter().cloned());
    }

    fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }

    /// The metrics as JSON members, names prefixed with `prefix`.
    fn metrics_json(&self, prefix: &str) -> Vec<String> {
        self.metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{prefix}{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect()
    }
}

/// Write the workload's repository as the server finds it on disk: the
/// snapshot, and the write-ahead log tail at the path the server derives
/// from `--repo`.
fn write_repo(inputs: &Inputs, snapshot: &Path) -> Result<(), String> {
    let io = |e: std::io::Error| format!("cannot write the repository: {e}");
    inputs.repo.snapshot.save(snapshot).map_err(io)?;
    let config = ServerConfig { repo_path: Some(snapshot.to_path_buf()), ..Default::default() };
    let wal_path = config.legacy_wal_path().expect("repo path set");
    let (mut wal, _) = Wal::open(&wal_path).map_err(io)?;
    for rules in &inputs.repo.wal_tail {
        wal.append(&WalOp::Record(rules.clone())).map_err(io)?;
    }
    Ok(())
}

/// Spawn the server and time it to the first correct extraction on
/// every workload cluster. The probe connection is returned for reuse.
fn set_up(
    args: &Args,
    inputs: &Inputs,
    repo: &Path,
) -> Result<(Server, f64, ClientLog, Option<Client>), String> {
    let started = Instant::now();
    let server = Server::spawn(&args.server, repo)?;
    let mut conn = None;
    let log = load::sequential(server.addr, inputs, &inputs.probes, &mut conn);
    let seconds = started.elapsed().as_secs_f64();
    if log.failed > 0 {
        return Err(format!("set-up probe failed: {}", log.errors.join("; ")));
    }
    Ok((server, seconds, log, conn))
}

/// The file system holding `path`, from the longest matching mount point
/// in `/proc/mounts` (fsync cost depends on it: disk or tmpfs).
fn filesystem_of(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let fields: Vec<&str> = line.split_whitespace().collect();
            (fields.len() >= 3 && path.starts_with(fields[1]))
                .then(|| (fields[1].len(), format!("{} on {}", fields[2], fields[0])))
        })
        .max()
        .map_or_else(|| "unknown file system".to_string(), |(_, fs)| fs)
}

/// CPU model and the parallelism the benchmark's threads can use.
fn host() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map_or("unknown CPU", |m| m.trim_start_matches([' ', '\t', ':']));
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!("{model}, available parallelism {cpus}")
}

fn kind_of(inputs: &Inputs, op: &Op) -> Kind {
    inputs.requests[op.request as usize].kind
}

/// Latency median and the `q` quantile in ms, with the sample count.
fn latency(ops: &[&Op], q: f64) -> (f64, f64, usize) {
    let ms: Vec<f64> = ops.iter().map(|op| load::ms(op)).collect();
    (median(&ms), quantile(&ms, q), ms.len())
}

/// The `q` latency quantile (ms) of each whole `window_s`-second window
/// of a `run_s`-second timed run that holds at least `min_samples`
/// operations, and the median across those windows: a burst of
/// interference from outside the benchmark then moves one window, not
/// the figure. Falls back to the whole run when no window qualifies.
fn windowed_latency(ops: &[&Op], q: f64, window_s: u64, min_samples: usize, run_s: u64) -> f64 {
    let mut windows: Vec<Vec<f64>> = vec![Vec::new(); (run_s / window_s) as usize];
    for op in ops {
        let w = (op.done_ns / (window_s * 1_000_000_000)) as usize;
        if let Some(window) = windows.get_mut(w) {
            window.push(load::ms(op));
        }
    }
    let per_window: Vec<f64> =
        windows.iter().filter(|w| w.len() >= min_samples).map(|w| quantile(w, q)).collect();
    if per_window.is_empty() {
        latency(ops, q).1
    } else {
        median(&per_window)
    }
}

struct LoadRun {
    setup: Vec<f64>,
    logs: Vec<ClientLog>,
    /// The publish bursts, on workloads whose load has no author.
    publish: Vec<ClientLog>,
    /// Server CPU seconds at each whole second of the timed window.
    cpu: Vec<f64>,
    peak_rss_mb: f64,
    tally: Tally,
}

/// Set-ups per untraced run, `setup_s` being their median: at least
/// `SETUP_RUNS.0`, then more while under `SETUP_BUDGET`, at most
/// `SETUP_RUNS.1`.
const SETUP_RUNS: (usize, usize) = (11, 41);
const SETUP_BUDGET: Duration = Duration::from_secs(2);

/// Rule publishing on workloads whose load has no author: bursts of
/// back-to-back `PUT`s of the workload's own rules after the load
/// window, apart, so that the reported `put_p50_ms` (the median of the
/// burst medians) samples the host's fsync latency at several moments,
/// and the traced run has PUTs to replay.
const PUBLISH_BURSTS: usize = 4;
const PUBLISH_BURST_PUTS: usize = 50;
const PUBLISH_GAP: Duration = Duration::from_millis(250);

/// Set up (repeatedly when untraced, keeping the last server), run
/// the load, then publish. Returns the server, still running, with the
/// run's record.
fn load_run(
    args: &Args,
    inputs: &Inputs,
    repo: &Path,
    out: &mut Outcome,
) -> Result<(Server, LoadRun), String> {
    let (least, most) = if args.trace {
        (1, 1)
    } else if args.short {
        (2, 2)
    } else {
        SETUP_RUNS
    };
    let mut setup = Vec::new();
    let mut current = None;
    let started = Instant::now();
    while setup.len() < least || (setup.len() < most && started.elapsed() < SETUP_BUDGET) {
        if let Some((server, _, _)) = current.take() {
            Server::stop(server);
        }
        let (server, seconds, log, conn) = set_up(args, inputs, repo)?;
        out.absorb(&log);
        setup.push(seconds);
        current = Some((server, log.tally, conn));
    }
    // Every phase after set-up keeps to the same connections (the probe
    // connection is the first client's), so the server serves the run
    // with the same worker threads every time.
    let (server, mut tally, probe_conn) = current.expect("at least one spawn");
    let mut conns: Vec<Option<Client>> = std::iter::once(probe_conn)
        .chain(std::iter::repeat_with(|| None))
        .take(inputs.clients.len())
        .collect();
    for conn in conns.iter_mut().filter(|c| c.is_none()) {
        *conn = Client::connect(server.addr).ok();
    }

    let warmup = Duration::from_secs_f64(if args.short { 0.2 } else { 1.0 });
    let start = Instant::now() + warmup;
    let end = start + Duration::from_secs_f64(args.seconds);
    // Server CPU at every whole second of the timed window.
    let (cpu, logs) = std::thread::scope(|scope| {
        let cpu = scope.spawn(|| {
            (0..=args.seconds.floor() as u32)
                .map(|k| {
                    let at = start + Duration::from_secs(k.into());
                    std::thread::sleep(at.saturating_duration_since(Instant::now()));
                    server.cpu_seconds()
                })
                .collect::<Vec<f64>>()
        });
        let logs = load::run(server.addr, inputs, start, end, &mut conns);
        (cpu.join().expect("cpu reader"), logs)
    });
    for log in &logs {
        out.absorb(log);
        tally.add(log.tally);
    }
    let (bursts, burst_puts) =
        if args.short { (2, 20) } else { (PUBLISH_BURSTS, PUBLISH_BURST_PUTS) };
    let burst: Vec<usize> = inputs.publish.iter().cycle().take(burst_puts).copied().collect();
    let mut publish = Vec::new();
    for _ in 0..if burst.is_empty() { 0 } else { bursts } {
        std::thread::sleep(PUBLISH_GAP);
        let log = load::sequential(server.addr, inputs, &burst, &mut conns[0]);
        out.absorb(&log);
        tally.add(log.tally);
        publish.push(log);
    }
    let peak_rss_mb = server.peak_rss_mib();
    Ok((server, LoadRun { setup, logs, publish, cpu, peak_rss_mb, tally }))
}

/// `/metrics` must agree with what the clients received.
fn check_counters(metrics: &retroweb_json::Json, tally: &Tally, out: &mut Outcome) {
    let pages = metric(metrics, &["pages_extracted"]);
    let failures = metric(metrics, &["failures_detected"]);
    if pages != tally.pages as f64 {
        out.errors.push(format!(
            "counter coherence: /metrics pages_extracted={pages}, clients received {} page(s) with 200",
            tally.pages
        ));
    }
    if failures < tally.failures_lo as f64 || failures > tally.failures_hi as f64 {
        out.errors.push(format!(
            "counter coherence: /metrics failures_detected={failures}, oracle predicts {}..={}",
            tally.failures_lo, tally.failures_hi
        ));
    }
    println!(
        "counters: pages_extracted={pages} (clients {}), failures_detected={failures} (oracle {}..={})",
        tally.pages, tally.failures_lo, tally.failures_hi
    );
}

fn end_to_end(inputs: &Inputs, run: &LoadRun, out: &mut Outcome) {
    let timed: Vec<&Op> = run.logs.iter().flat_map(|l| &l.ops).collect();
    let extracts: Vec<&Op> =
        timed.iter().copied().filter(|op| kind_of(inputs, op) != Kind::Put).collect();
    let mut puts: Vec<&Op> =
        timed.iter().copied().filter(|op| kind_of(inputs, op) == Kind::Put).collect();
    let pages: u64 = run.logs.iter().map(|l| l.pages).sum();
    // Throughput and CPU per page are medians over the whole seconds of
    // the window, so a burst of interference from outside the benchmark
    // moves them less than it would move a mean. A request's pages count
    // towards each second its flight overlaps, in proportion.
    const SECOND: f64 = 1e9;
    let mut per_second = vec![0f64; run.cpu.len().saturating_sub(1)];
    for op in &extracts {
        let pages = inputs.requests[op.request as usize].pages.len() as f64;
        let (end, flight) = (op.done_ns as f64, op.latency_ns.max(1) as f64);
        let begin = end - flight;
        for (w, count) in per_second.iter_mut().enumerate() {
            let lo = w as f64 * SECOND;
            let overlap = end.min(lo + SECOND) - begin.max(lo);
            if overlap > 0.0 {
                *count += pages * overlap / flight;
            }
        }
    }
    let cpu_per_page: Vec<f64> = per_second
        .iter()
        .zip(run.cpu.windows(2))
        .map(|(&p, cpu)| (cpu[1] - cpu[0]) * 1e6 / p.max(1.0))
        .collect();
    // Medians of one-second medians and of five-second p95s (each window
    // with at least ten samples beyond its percentile). The request tail
    // is p95, not p99: on `listing_batch` the p99 of batch latency
    // follows the host's scheduling noise and did not repeat within the
    // largest allowed bound on the reference host; it is reported.
    let run_s = per_second.len() as u64;
    let req_p50 = windowed_latency(&extracts, 0.5, 1, 1, run_s);
    let req_p95 = windowed_latency(&extracts, 0.95, 5, 200, run_s);
    let req_p99 = windowed_latency(&extracts, 0.99, 5, 1000, run_s);
    println!("report req_p99_ms {req_p99} ms (not gated)");
    let n_req = extracts.len();
    // An author in the load: the median of one-second medians, as for
    // extraction. Otherwise the median of the publish bursts' medians.
    let put_p50 = if puts.is_empty() {
        puts = run.publish.iter().flat_map(|log| &log.ops).collect();
        let bursts: Vec<f64> = run
            .publish
            .iter()
            .map(|log| median(&log.ops.iter().map(load::ms).collect::<Vec<f64>>()))
            .collect();
        median(&bursts)
    } else {
        windowed_latency(&puts, 0.5, 1, 1, run_s)
    };
    // PUT latency is reported, not gated: it follows the host's fsync
    // latency, and on `detail_pages` even its median did not repeat within
    // the largest allowed bound on the reference host.
    let (_, put_p95, n_put) = latency(&puts, 0.95);
    println!("report put_p50_ms {put_p50} ms over {n_put} PUT(s) (not gated)");
    println!("report put_p95_ms {put_p95} ms (not gated)");
    for (log, plan) in run.logs.iter().zip(&inputs.clients) {
        let ms: Vec<f64> = log.ops.iter().map(load::ms).collect();
        let (label, value) = stats::tail(&ms).unwrap_or(("p50", median(&ms)));
        println!(
            "load: client {}: {} op(s), {} page(s), p50 {:.4} ms, {label} {:.4} ms (highest percentile \
             with at least ten samples beyond it)",
            plan.role,
            ms.len(),
            log.pages,
            median(&ms),
            value
        );
    }
    let t = END_TO_END;
    out.push(t, "pages_per_s", median(&per_second), pages as usize);
    out.push(t, "req_p50_ms", req_p50, n_req);
    out.push(t, "req_p95_ms", req_p95, n_req);
    out.push(t, "cpu_us_per_page", median(&cpu_per_page), pages as usize);
    out.push(t, "peak_rss_mb", run.peak_rss_mb, 1);
    out.push(t, "setup_s", median(&run.setup), run.setup.len());
    // Timed requests whose body an earlier timed request already sent.
    let mut seen = std::collections::HashSet::new();
    let repeats = timed.iter().filter(|op| !seen.insert(op.request)).count();
    println!(
        "inputs: share of request bodies repeated within the run={:.3} ({} of {} requests)",
        repeats as f64 / timed.len().max(1) as f64,
        repeats,
        timed.len()
    );
}

fn run_workload(args: &Args, workload: Workload) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let inputs = inputs::generate(workload, args.seed, args.short);
    let pre = oracle::precheck(&inputs);
    pre.lines.iter().for_each(|l| println!("{l}"));
    out.errors.extend(pre.errors);
    let page_stats = inputs::page_stats(&inputs.pages);
    inputs.report(&page_stats).iter().for_each(|l| println!("{l}"));

    let dir = args.work.join(format!("{}-{}-{}", workload.name(), args.seed, std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    println!("storage: the repository lives in {} ({})", dir.display(), filesystem_of(&dir));
    println!("host: {}", host());
    let result = (|| {
        let repo = dir.join("rules.json");
        write_repo(&inputs, &repo)?;
        let (server, run) = load_run(args, &inputs, &repo, &mut out)?;
        let metrics = server.metrics()?;
        Server::stop(server);
        check_counters(&metrics, &run.tally, &mut out);
        if args.trace {
            per_layer(args, &inputs, &page_stats, &run, &metrics, &dir, &mut out)
        } else {
            end_to_end(&inputs, &run, &mut out);
            Ok(())
        }
    })();
    let _ = std::fs::remove_dir_all(&dir);
    result?;
    let failed_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    for m in &out.metrics {
        println!("metric {:<32} {:>14.4} {:<8} (n={})", m.name, m.value, m.unit, m.samples);
    }
    println!(
        "metric {:<32} {:>14.4} {:<8} (n={})",
        "failed_ratio", failed_ratio, "ratio", out.attempted
    );
    Ok(out)
}

/// Every traced span with its pass and self time (span minus children).
struct Layers {
    spans: Vec<(usize, trace::Span, u64)>,
}

impl Layers {
    fn new(passes: &[Vec<trace::Span>]) -> Layers {
        let spans = passes
            .iter()
            .enumerate()
            .flat_map(|(pass, spans)| {
                let selfs = trace::self_times(spans);
                spans.iter().zip(selfs).map(move |(&span, self_ns)| (pass, span, self_ns))
            })
            .collect();
        Layers { spans }
    }

    fn named<'a>(
        &'a self,
        name: &'a str,
        keep: impl Fn(u32) -> bool + 'a,
    ) -> impl Iterator<Item = &'a (usize, trace::Span, u64)> + 'a {
        self.spans.iter().filter(move |(_, s, _)| s.name == name && keep(s.req))
    }

    /// Self times (µs) of the `name` spans of requests `keep` accepts.
    fn self_us(&self, name: &str, keep: impl Fn(u32) -> bool) -> Vec<f64> {
        self.named(name, keep).map(|&(_, _, ns)| ns as f64 / 1e3).collect()
    }

    /// Whole durations (µs) of the `name` spans of requests `keep` accepts.
    fn span_us(&self, name: &str, keep: impl Fn(u32) -> bool) -> Vec<f64> {
        self.named(name, keep).map(|(_, s, _)| s.ns() as f64 / 1e3).collect()
    }

    /// Self time (µs) of all `name` spans of one request in one pass,
    /// over the request's pages.
    fn per_page_us(&self, name: &str, pages_of: impl Fn(u32) -> usize) -> Vec<f64> {
        let mut per_req: std::collections::BTreeMap<(usize, u32), f64> = Default::default();
        for &(pass, s, ns) in self.named(name, |_| true) {
            *per_req.entry((pass, s.req)).or_default() += ns as f64 / 1e3;
        }
        per_req.iter().map(|(&(_, req), &us)| us / pages_of(req).max(1) as f64).collect()
    }

    /// Input megabytes per second of the `name` spans `keep` accepts.
    fn mb_per_s(&self, name: &str, keep: impl Fn(u32) -> bool) -> f64 {
        let (bytes, ns) =
            self.named(name, keep).fold((0, 0), |(b, n), (_, s, _)| (b + s.bytes, n + s.ns()));
        bytes as f64 / 1e6 / (ns as f64 / 1e9)
    }
}

/// Replay the sampled requests: one warm-up pass, then five untraced
/// and five traced passes alternating. Traced passes also probe the
/// requests' pages off the request path. Returns the traced passes'
/// spans and the untraced and traced pass times (ns, requests only).
fn replay_passes(
    replay: &mut trace::Replay<'_>,
    sampled: &[Op],
) -> (Vec<Vec<trace::Span>>, Vec<f64>, Vec<f64>) {
    let inputs = replay.inputs;
    let epoch = Instant::now();
    let (mut passes, mut untraced_ns, mut traced_ns) = (Vec::new(), Vec::new(), Vec::new());
    let schedule = std::iter::once(None).chain((0..5).flat_map(|_| [Some(false), Some(true)]));
    for pass in schedule {
        let traced = pass == Some(true);
        replay.tracer = trace::Tracer::new(traced, epoch);
        let started = Instant::now();
        for (i, op) in sampled.iter().enumerate() {
            replay.request(i as u32, op.request as usize);
        }
        let ns = started.elapsed().as_nanos() as f64;
        match pass {
            None => continue,
            Some(false) => {
                untraced_ns.push(ns);
                continue;
            }
            Some(true) => traced_ns.push(ns),
        }
        for (i, op) in sampled.iter().enumerate() {
            let req = &inputs.requests[op.request as usize];
            if req.kind == Kind::Put {
                continue;
            }
            let name = &inputs.clusters[req.cluster].name;
            let compiled = replay.state.repo().compiled(name).expect("workload cluster");
            let id = PROBE_BASE + i as u32;
            for &page in req.pages.iter().take(4) {
                let p = &inputs.pages[page];
                replay.probe_page(id, &compiled, &p.uri, &p.html);
                let doc = retroweb_html::parse(&p.html);
                match req.kind {
                    Kind::Batch { .. } => replay.probe_serialize(id, &compiled, &p.uri, doc),
                    _ => replay.probe_sinks(id, &compiled, &p.uri, doc),
                }
            }
        }
        passes.push(std::mem::replace(&mut replay.tracer, trace::Tracer::new(false, epoch)).spans);
    }
    (passes, untraced_ns, traced_ns)
}

/// Request ids of the replay are indices into the sampled operations;
/// off-path probes of sampled operation `i` use `PROBE_BASE + i`.
const PROBE_BASE: u32 = 1 << 20;

#[allow(clippy::too_many_arguments)]
fn per_layer(
    args: &Args,
    inputs: &Inputs,
    page_stats: &inputs::PageStats,
    run: &LoadRun,
    metrics: &retroweb_json::Json,
    dir: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    // The sampled requests: the first timed operations of each client,
    // then further PUTs until there are at least 30 of them.
    let per_client: Vec<usize> = match (inputs.workload, args.short) {
        (_, true) => vec![8, 8],
        (Workload::DetailPages, _) => vec![150, 150],
        (Workload::ListingBatch, _) => vec![24, 24],
        (Workload::RuleChurn, _) => vec![120, 240],
    };
    let is_put = |op: &Op| kind_of(inputs, op) == Kind::Put;
    let mut sampled: Vec<Op> = run
        .logs
        .iter()
        .zip(&per_client)
        .flat_map(|(log, &n)| log.ops.iter().take(n).copied())
        .collect();
    let more_puts = 30usize.saturating_sub(sampled.iter().filter(|op| is_put(op)).count());
    let later = run.logs.iter().zip(&per_client).flat_map(|(log, &n)| log.ops.iter().skip(n));
    let published = run.publish.iter().flat_map(|log| &log.ops);
    sampled.extend(later.chain(published).filter(|op| is_put(op)).take(more_puts).copied());

    // The server's own state, in process, on a fresh copy of the
    // repository; the listener is bound but never connected to.
    let trace_dir = dir.join("trace");
    std::fs::create_dir_all(&trace_dir).map_err(|e| format!("{e}"))?;
    let repo = trace_dir.join("rules.json");
    write_repo(inputs, &repo)?;
    let seed = RuleRepository::load(&repo).map_err(|e| format!("{e}"))?;
    let config = ServerConfig { repo_path: Some(repo.clone()), ..Default::default() };
    let handle = InProcessServer::bind(seed, config)
        .and_then(InProcessServer::start)
        .map_err(|e| format!("in-process server state: {e}"))?;
    let names: Vec<String> = inputs.clusters.iter().map(|c| c.name.clone()).collect();
    for name in &names {
        handle.state().repo().compiled(name);
    }
    let mut replay = trace::Replay {
        inputs,
        state: std::sync::Arc::clone(handle.state()),
        tracer: trace::Tracer::new(false, Instant::now()),
        probe_failures: Vec::new(),
        sink_bytes: 0,
        sink_pages: 0,
        errors: Vec::new(),
    };

    let (passes, untraced_ns, traced_ns) = replay_passes(&mut replay, &sampled);
    let lookup_ns = trace::store_lookup_ns(handle.state().repo(), &names);
    out.errors.extend(replay.errors.iter().cloned());

    let spans_dir = args.work.join("spans");
    std::fs::create_dir_all(&spans_dir).map_err(|e| format!("{e}"))?;
    let spans_path = spans_dir.join(format!("{}-seed{}.jsonl", inputs.workload.name(), args.seed));
    trace::write_spans(&spans_path, &passes).map_err(|e| format!("cannot write spans: {e}"))?;
    println!(
        "trace: {} span(s) in {}",
        passes.iter().map(Vec::len).sum::<usize>(),
        spans_path.display()
    );

    let layers = Layers::new(&passes);
    let any = |_: u32| true;
    let probe = |req: u32| req >= PROBE_BASE;
    let extraction = |req: u32| sampled.get(req as usize).is_some_and(|op| !is_put(op));
    let pages_of = |req: u32| {
        sampled.get(req as usize).map_or(1, |op| inputs.requests[op.request as usize].pages.len())
    };
    // A span's calls on extraction requests where they take the path;
    // on the PUTs otherwise.
    let keep_for = |name: &str| {
        let only_extraction = !layers.self_us(name, extraction).is_empty();
        move |req: u32| !only_extraction || extraction(req)
    };
    // Each metric with its sample count: medians of per-call values, or
    // one figure over `n` calls or items.
    let mut push = |name, (value, n): (f64, usize)| out.push(PER_LAYER, name, value, n);
    let med = |values: Vec<f64>| (median(&values), values.len());
    for (metric_name, span) in [
        ("service.http_parse_us", "service.http_parse"),
        ("service.response_encode_us", "service.response_encode"),
    ] {
        push(metric_name, med(layers.self_us(span, keep_for(span))));
    }
    // Client latency minus the in-process time of the same request.
    let residual = sampled
        .iter()
        .enumerate()
        .filter(|(_, op)| kind_of(inputs, op) != Kind::Put)
        .map(|(i, op)| {
            let roots = layers.span_us("service.request", |req| req == i as u32);
            op.latency_ns as f64 / 1e3 - median(&roots)
        })
        .collect();
    push("service.residual_us", med(residual));
    let decodes = layers.self_us("json.decode", keep_for("json.decode"));
    let n_decodes = decodes.len();
    push("json.decode_us", med(decodes));
    let decode_rate = layers.mb_per_s("json.decode", keep_for("json.decode"));
    push("json.decode_mb_per_s", (decode_rate, n_decodes));
    let parses = layers.self_us("html.parse", any).len();
    push("html.parse_us", med(layers.self_us("html.parse", any)));
    push("html.parse_mb_per_s", (layers.mb_per_s("html.parse", any), parses));
    push("html.nodes_per_page", med(page_stats.nodes.clone()));
    push("html.depth_p99", (quantile(&page_stats.depth, 0.99), page_stats.depth.len()));
    push("html.free_us", med(layers.per_page_us("html.free", pages_of)));
    push("xpath.executor_setup_us", med(layers.self_us("xpath.executor_setup", probe)));
    push("xpath.fused_exec_us", med(layers.self_us("xpath.fused_exec", probe)));
    let page_us = layers.self_us("core.extract_page", probe);
    let warm_exec_us = layers.self_us("probe.warm_exec", probe);
    let values = page_us.iter().zip(&warm_exec_us).map(|(p, e)| p - e).collect();
    let (shared, total) =
        inputs.clusters.iter().flat_map(|c| &c.compiled).fold((0, 0), |(s, n), c| {
            let stats = c.fused().stats();
            (s + stats.steps_shared, n + stats.steps_total)
        });
    push("xpath.fused_shared_ratio", (shared as f64 / total.max(1) as f64, total));
    push("core.values_us", med(values));
    let failures: usize = replay.probe_failures.iter().sum();
    let probed = replay.probe_failures.len().max(1) as f64;
    push("core.rule_failures_per_page", (failures as f64 / probed, replay.probe_failures.len()));
    push("core.sink_xml_us", med(layers.per_page_us("core.sink_xml", pages_of)));
    push("core.sink_ndjson_us", med(layers.per_page_us("core.sink_ndjson", pages_of)));
    let sink_pages = replay.sink_pages.max(1) as f64;
    push(
        "core.sink_bytes_per_page",
        (replay.sink_bytes as f64 / sink_pages, replay.sink_pages as usize),
    );
    push("xmlout.serialize_us", med(layers.self_us("xmlout.serialize", any)));
    push("core.from_json_us", med(layers.self_us("core.from_json", any)));
    push("core.lint_us", med(layers.self_us("core.lint", any)));
    push("core.compile_us", med(layers.self_us("core.compile", any)));
    push("core.wal_record_us", med(layers.self_us("core.wal_record", any)));
    let appended = metric(metrics, &["wal", "appended_records"]);
    let wal_bytes = metric(metrics, &["wal", "appended_bytes"]);
    push("core.wal_bytes_per_mutation", (wal_bytes / appended.max(1.0), appended as usize));
    push("core.compactions", (metric(metrics, &["wal", "compactions"]), 1));
    let hits = metric(metrics, &["repository", "compiled_cache_hits"]);
    let builds = metric(metrics, &["repository", "compiled_cache_builds"]);
    let lookups = hits + builds;
    push("core.compiled_cache_hit_ratio", (hits / lookups.max(1.0), lookups as usize));
    push("core.store_lookup_ns", (lookup_ns, 20));
    let roots = layers.span_us("service.request", any);
    let root_self = layers.self_us("service.request", any);
    let coverage = 1.0 - root_self.iter().sum::<f64>() / roots.iter().sum::<f64>();
    push("trace.coverage", (coverage, roots.len()));
    push("trace.overhead_ratio", (median(&traced_ns) / median(&untraced_ns), traced_ns.len()));
    drop(replay);
    handle.shutdown();
    Ok(())
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[String]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    )
}

/// Every metric the mode promises, finite, with its unit.
fn missing_metrics(out: &mut Outcome, trace: bool) {
    let table = if trace { PER_LAYER } else { END_TO_END };
    for (name, unit) in table {
        match out.metrics.iter().find(|m| m.name == *name) {
            Some(m) if m.value.is_finite() && m.unit == *unit => {}
            Some(m) => {
                out.errors.push(format!("metric {name} = {} {} is not usable", m.value, m.unit))
            }
            None => out.errors.push(format!("metric {name} was not measured")),
        }
    }
}

fn self_test(args: &mut Args) -> bool {
    let mut ok = true;
    args.short = true;
    args.seconds = 1.0;
    for workload in Workload::ALL {
        for trace in [false, true] {
            args.trace = trace;
            match run_workload(args, workload) {
                Ok(mut out) => {
                    missing_metrics(&mut out, trace);
                    let failed_ratio = out.failed as f64 / out.attempted.max(1) as f64;
                    if failed_ratio != 0.0 {
                        out.errors.push(format!("failed_ratio = {failed_ratio}"));
                    }
                    let verdict = if out.errors.is_empty() { "ok" } else { "FAILED" };
                    println!("self-test {} trace={}: {verdict}", workload.name(), trace as u8);
                    for e in &out.errors {
                        println!("  {e}");
                    }
                    ok &= out.errors.is_empty();
                }
                Err(e) => {
                    println!("self-test {} trace={}: FAILED: {e}", workload.name(), trace as u8);
                    ok = false;
                }
            }
        }
    }
    ok
}

fn main() -> ExitCode {
    let mut args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.self_test {
        return if self_test(&mut args) { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }
    // One workload: its metrics as measured. Several: every workload's,
    // named `<workload>.<metric>`.
    let (mut correct, mut attempted, mut failed, mut metrics) = (true, 0, 0, Vec::new());
    let several = args.workloads.len() > 1;
    for &workload in &args.workloads {
        match run_workload(&args, workload) {
            Ok(mut out) => {
                missing_metrics(&mut out, args.trace);
                for e in &out.errors {
                    eprintln!("error: {}: {e}", workload.name());
                }
                correct &= out.correct();
                attempted += out.attempted;
                failed += out.failed;
                let prefix = if several { format!("{}.", workload.name()) } else { String::new() };
                metrics.extend(out.metrics_json(&prefix));
            }
            Err(e) => {
                eprintln!("error: {}: {e}", workload.name());
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{}", result_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
