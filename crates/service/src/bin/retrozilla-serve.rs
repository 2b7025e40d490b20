//! `retrozilla-serve` — serve a rule repository over HTTP.
//!
//! ```text
//! retrozilla-serve [--addr 127.0.0.1:7878] [--threads N] [--queue N]
//!                  [--extract-threads N] [--repo rules.json]
//!                  [--compact-every N] [--shards N] [--evented]
//!                  [--max-conns N]
//!                  [--header-timeout-ms N] [--idle-timeout-ms N]
//!                  [--write-stall-timeout-ms N] [--stream-budget BYTES]
//!                  [--strict-lint] [--lint] [--wal-info] [--self-test]
//! ```
//!
//! `--evented` switches the front end from thread-per-connection to a
//! single `poll(2)` event-loop thread that owns every socket and hands
//! only *complete, ready requests* to the worker pool — ten thousand
//! idle keep-alive connections cost registrations, not threads. The
//! loop sheds arrivals past `--max-conns` with `503`, answers `408` to
//! request heads slower than `--header-timeout-ms`, closes keep-alive
//! connections idle past `--idle-timeout-ms`, and drops clients that
//! stop draining a response for `--write-stall-timeout-ms`.
//!
//! With `--repo rules.json`, the repository lives in the directory
//! `rules.json.d/` — one snapshot + write-ahead log pair per shard of
//! the in-memory store. Startup replays every shard's log over its
//! snapshot, in parallel, recovering mutations acknowledged after the
//! last compaction; every `PUT`/`DELETE /clusters` is one fsynced
//! O(change) append to the log of the shard its cluster routes to, and
//! each shard folds its log into its snapshot every `--compact-every`
//! of its mutations (default 1024). On the first start, when the
//! directory does not exist yet, a single-file `rules.json` +
//! `rules.json.wal` pair is imported into it (and left in place, no
//! longer read). `--shards N` sets the shard count a new directory is
//! created with; an existing directory's `manifest.json` fixes its
//! own.
//!
//! `--strict-lint` makes `PUT /clusters/{name}` reject rule sets whose
//! XPaths carry error-level linter findings (provably-empty paths,
//! unsatisfiable predicates) with a `400` carrying the structured
//! diagnostics; without it the findings ride along in the success body
//! and on `GET /metrics`.
//!
//! `--lint` is the offline audit mode: read the repository a server
//! started with the same `--repo` would serve (or the built-in demo
//! repository without one), print every linter finding, and exit
//! non-zero iff any error-level finding exists — no server is started
//! and no file is written, so CI can gate rule repositories on it
//! directly.
//!
//! `--wal-info` prints replay statistics (records, torn bytes, last
//! intact offset) for every shard log of the `--repo` directory — or,
//! before the first start, for the single-file log that start would
//! import — **without starting the server and without mutating any
//! file**: the first step toward point-in-time recovery tooling.
//!
//! `--self-test` runs a loopback smoke test — record → extract → batch
//! → drift-check → hot-reload → percent-decoding → metrics, plus a
//! single-file import followed by a directory replay on restart — and
//! exits non-zero on any mismatch; CI uses it as the serve-layer gate.

use retroweb_service::testdata;
use retroweb_service::{request_once, Client, Server, ServerConfig};
use retrozilla::{read_layout, wal_info, ClusterStore, RuleRepository, ShardManifest, Wal, WalOp};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: retrozilla-serve [--addr HOST:PORT] [--threads N] [--queue N] \
                     [--extract-threads N] [--repo FILE.json] \
                     [--compact-every N] [--shards N] [--evented] [--max-conns N] \
                     [--header-timeout-ms N] [--idle-timeout-ms N] [--write-stall-timeout-ms N] \
                     [--stream-budget BYTES] \
                     [--strict-lint] [--lint] [--wal-info] [--self-test]";

struct Args {
    config: ServerConfig,
    self_test: bool,
    wal_info: bool,
    lint: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut config = ServerConfig { addr: "127.0.0.1:7878".to_string(), ..Default::default() };
    let mut self_test = false;
    let mut wal_info = false;
    let mut lint = false;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value =
            |flag: &str| argv.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"));
        match arg.as_str() {
            "--addr" => config.addr = value("--addr")?,
            "--threads" => {
                config.threads =
                    value("--threads")?.parse().map_err(|e| format!("bad --threads: {e}"))?
            }
            "--queue" => {
                config.queue_capacity =
                    value("--queue")?.parse().map_err(|e| format!("bad --queue: {e}"))?
            }
            "--extract-threads" => {
                config.extract_threads = value("--extract-threads")?
                    .parse()
                    .map_err(|e| format!("bad --extract-threads: {e}"))?
            }
            "--repo" => config.repo_path = Some(PathBuf::from(value("--repo")?)),
            "--compact-every" => {
                config.compact_every = value("--compact-every")?
                    .parse()
                    .map_err(|e| format!("bad --compact-every: {e}"))?
            }
            "--shards" => {
                config.shards = value("--shards")?
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or("bad --shards: expected a positive integer")?
            }
            "--evented" => config.evented = true,
            "--max-conns" => {
                config.max_conns =
                    value("--max-conns")?.parse().map_err(|e| format!("bad --max-conns: {e}"))?
            }
            "--header-timeout-ms" => {
                config.header_timeout = std::time::Duration::from_millis(
                    value("--header-timeout-ms")?
                        .parse()
                        .map_err(|e| format!("bad --header-timeout-ms: {e}"))?,
                )
            }
            "--idle-timeout-ms" => {
                config.idle_timeout = std::time::Duration::from_millis(
                    value("--idle-timeout-ms")?
                        .parse()
                        .map_err(|e| format!("bad --idle-timeout-ms: {e}"))?,
                )
            }
            "--write-stall-timeout-ms" => {
                config.write_stall_timeout = std::time::Duration::from_millis(
                    value("--write-stall-timeout-ms")?
                        .parse()
                        .map_err(|e| format!("bad --write-stall-timeout-ms: {e}"))?,
                )
            }
            "--stream-budget" => {
                config.stream_budget = value("--stream-budget")?
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 16 * 1024)
                    .ok_or("bad --stream-budget: expected a byte count of at least 16384")?
            }
            "--strict-lint" => config.strict_lint = true,
            "--lint" => lint = true,
            "--wal-info" => wal_info = true,
            "--self-test" => self_test = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag '{other}'\n{USAGE}")),
        }
    }
    Ok(Args { config, self_test, wal_info, lint })
}

/// `--lint`: audit the addressed repository offline. Prints every
/// linter finding and returns whether any error-level finding exists —
/// the CI gate's exit code. Lints what a server started with the same
/// `--repo` would serve, read without writing: the directory's shard
/// snapshots with every shard log replayed over them, or the
/// single-file pair the first start would import. Without `--repo` the
/// built-in demo repository is audited, which doubles as the
/// linter-is-clean check over the self-test rule set.
fn lint_repository(config: &ServerConfig) -> Result<bool, String> {
    let repo = match (&config.repo_path, config.shard_dir(), config.legacy_wal_path()) {
        (Some(path), Some(dir), Some(wal)) => {
            if ![&dir, path, &wal].iter().any(|p| p.exists()) {
                return Err(format!("cannot lint: {} does not exist", path.display()));
            }
            read_layout(&dir, Some(path), Some(&wal))
                .map_err(|e| format!("cannot load repository for linting: {e}"))?
                .snapshot()
        }
        _ => testdata::demo_repository().snapshot(),
    };
    let (mut errors, mut warnings, mut infos) = (0usize, 0usize, 0usize);
    for (name, rules) in repo.iter() {
        let lint = rules.lint();
        for finding in &lint.diagnostics {
            println!("{name}: {finding}");
        }
        errors += lint.errors();
        warnings += lint.warnings();
        infos += lint.infos();
    }
    println!(
        "linted {} cluster(s): {errors} error(s), {warnings} warning(s), {infos} info(s)",
        repo.len()
    );
    Ok(errors > 0)
}

/// `--wal-info`: print replay statistics for every WAL `--repo`
/// addresses, read-only: each shard log of the directory once its
/// manifest exists, otherwise the single-file log the first start
/// would import.
fn print_wal_info(config: &ServerConfig) -> Result<(), String> {
    let describe = |path: &std::path::Path| -> Result<retrozilla::WalInfo, String> {
        wal_info(path).map_err(|e| format!("cannot inspect {}: {e}", path.display()))
    };
    let line = |label: &str, info: &retrozilla::WalInfo| {
        println!(
            "  {label}: {} record(s) ({} upsert / {} remove), last offset {}, \
             torn {} byte(s), file {} byte(s)",
            info.records,
            info.record_ops,
            info.remove_ops,
            info.last_offset,
            info.torn_bytes,
            info.file_bytes,
        );
        if info.torn_bytes > 0 {
            println!(
                "    ! torn/corrupt tail: a recovery would truncate to offset {}",
                info.last_offset
            );
        }
    };
    let shard_dir = config.shard_dir();
    let manifest = match &shard_dir {
        Some(dir) if dir.exists() => {
            ShardManifest::load(dir).map_err(|e| format!("bad shard directory: {e}"))?
        }
        _ => None,
    };
    match (manifest, shard_dir) {
        (Some(manifest), Some(dir)) => {
            println!("sharded WAL layout at {} ({} shard(s)):", dir.display(), manifest.shards);
            let mut total_records = 0u64;
            let mut total_torn = 0u64;
            for shard in 0..manifest.shards {
                let path = ShardManifest::wal_path(&dir, shard);
                let info = describe(&path)?;
                line(&format!("shard-{shard:03}.wal"), &info);
                total_records += info.records;
                total_torn += info.torn_bytes;
            }
            println!("  total: {total_records} record(s), {total_torn} torn byte(s)");
        }
        _ => {
            let path = config.legacy_wal_path().ok_or("--wal-info needs --repo to locate a log")?;
            println!("single-file WAL (imported into the directory on the next start):");
            let info = describe(&path)?;
            line(&path.display().to_string(), &info);
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if args.self_test {
        return match self_test() {
            Ok(summary) => {
                println!("self-test ok: {summary}");
                ExitCode::SUCCESS
            }
            Err(why) => {
                eprintln!("self-test FAILED: {why}");
                ExitCode::FAILURE
            }
        };
    }
    if args.lint {
        return match lint_repository(&args.config) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::FAILURE,
            Err(why) => {
                eprintln!("{why}");
                ExitCode::FAILURE
            }
        };
    }
    if args.wal_info {
        return match print_wal_info(&args.config) {
            Ok(()) => ExitCode::SUCCESS,
            Err(why) => {
                eprintln!("{why}");
                ExitCode::FAILURE
            }
        };
    }

    // The server opens (and, on first start, imports into) the
    // directory itself; there is no seed to load here.
    let server = match Server::bind(RuleRepository::new(), args.config.clone()) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("cannot bind {}: {e}", args.config.addr);
            return ExitCode::FAILURE;
        }
    };
    let addr = server.local_addr().expect("bound listener has an address");
    let handle = match server.start() {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("cannot start server: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(report) = handle.state().sharded_open_report() {
        let dir = args.config.shard_dir().expect("a repository path implies a shard dir");
        println!(
            "sharded repository at {} — {} shard(s), {} cluster(s) live",
            dir.display(),
            report.shards,
            handle.state().repo().len(),
        );
        if let Some(migrated) = report.migrated_clusters {
            println!(
                "  created the directory with {migrated} cluster(s) imported from the \
                 single-file pair (legacy files left in place, no longer read)"
            );
        }
        if report.adopted_manifest_shards {
            println!(
                "  note: the directory's manifest fixes the shard count at {}; \
                 the requested --shards value was ignored",
                report.shards
            );
        }
    }
    if let (Some(wal), Some(dir)) = (handle.state().wal_stats(), args.config.shard_dir()) {
        println!(
            "WAL {}/shard-*.wal — replayed {} record(s){} over the snapshots (parallel replay)",
            dir.display(),
            wal.replayed_records,
            if wal.replay_torn_bytes > 0 {
                format!(" (recovered a torn tail: {} byte(s) discarded)", wal.replay_torn_bytes)
            } else {
                String::new()
            },
        );
    }
    println!(
        "retrozilla-serve listening on http://{addr} ({} front end, {} workers, queue {})",
        if args.config.evented { "evented" } else { "thread-per-connection" },
        args.config.threads,
        args.config.queue_capacity
    );
    handle.join();
    ExitCode::SUCCESS
}

/// Loopback smoke test used by CI: every endpoint once, output checked
/// against the in-process extraction pipeline.
fn self_test() -> Result<String, String> {
    let io = |e: std::io::Error| format!("I/O: {e}");
    let server = Server::bind(testdata::demo_repository(), ServerConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    let handle = server.start().map_err(|e| format!("start: {e}"))?;
    let addr = handle.addr();

    // healthz
    let resp = request_once(addr, "GET", "/healthz", &[], b"").map_err(io)?;
    expect(resp.status == 200, "healthz status", resp.status)?;

    // single-page extract matches the direct pipeline
    let rules = testdata::cluster_from(&testdata::demo_cluster_json());
    let (uri, html) = testdata::demo_page(1);
    let want = testdata::direct_extract_xml(&rules, &[(uri.clone(), html.clone())]);
    let resp = request_once(
        addr,
        "POST",
        &format!("/extract/{}", testdata::DEMO_CLUSTER),
        &[("x-page-uri", &uri)],
        html.as_bytes(),
    )
    .map_err(io)?;
    expect(resp.status == 200, "extract status", resp.status)?;
    expect(resp.body_utf8() == want, "extract body differs from direct extraction", "")?;

    // batch extract over a keep-alive client, byte-identical
    let pages = testdata::demo_pages(16);
    let want_batch = testdata::direct_extract_xml(&rules, &pages);
    let mut client = Client::connect(addr).map_err(io)?;
    let resp = client
        .request(
            "POST",
            &format!("/extract/{}/batch?threads=4", testdata::DEMO_CLUSTER),
            &[],
            testdata::pages_json(&pages).as_bytes(),
        )
        .map_err(io)?;
    expect(resp.status == 200, "batch status", resp.status)?;
    expect(resp.body_utf8() == want_batch, "batch body differs from direct extraction", "")?;
    expect(
        resp.header("transfer-encoding") == Some("chunked"),
        "batch chunked framing",
        resp.header("transfer-encoding").unwrap_or("missing"),
    )?;

    // NDJSON negotiation: one line per page plus a summary line
    let resp = client
        .request(
            "POST",
            &format!("/extract/{}/batch", testdata::DEMO_CLUSTER),
            &[("accept", "application/x-ndjson")],
            testdata::pages_json(&pages).as_bytes(),
        )
        .map_err(io)?;
    expect(
        resp.header("content-type") == Some("application/x-ndjson"),
        "ndjson content type",
        resp.header("content-type").unwrap_or("missing"),
    )?;
    let lines = resp.body_utf8().lines().count();
    expect(lines == pages.len() + 1, "ndjson line count", lines)?;

    // unparseable ?threads= is a diagnosed client error
    let resp = client
        .request(
            "POST",
            &format!("/extract/{}/batch?threads=abc", testdata::DEMO_CLUSTER),
            &[],
            testdata::pages_json(&pages).as_bytes(),
        )
        .map_err(io)?;
    expect(resp.status == 400, "bad threads status", resp.status)?;

    // drift check flags the redesigned page
    let drifted = vec![testdata::drifted_page(0)];
    let resp = client
        .request(
            "POST",
            &format!("/check/{}", testdata::DEMO_CLUSTER),
            &[],
            testdata::pages_json(&drifted).as_bytes(),
        )
        .map_err(io)?;
    expect(resp.status == 200, "check status", resp.status)?;
    let report = resp.body_json().map_err(|e| format!("check body: {e}"))?;
    expect(
        report.get("drifted").and_then(|d| d.as_bool()) == Some(true),
        "drift detected",
        report.to_string_compact(),
    )?;

    // hot reload via PUT, observed by the next extraction
    let resp = client
        .request(
            "PUT",
            &format!("/clusters/{}", testdata::DEMO_CLUSTER),
            &[],
            testdata::updated_cluster_json().as_bytes(),
        )
        .map_err(io)?;
    expect(resp.status == 200, "reload status", resp.status)?;
    let updated = testdata::cluster_from(&testdata::updated_cluster_json());
    let want_v2 = testdata::direct_extract_xml(&updated, &pages);
    let resp = client
        .request(
            "POST",
            &format!("/extract/{}/batch", testdata::DEMO_CLUSTER),
            &[],
            testdata::pages_json(&pages).as_bytes(),
        )
        .map_err(io)?;
    expect(resp.body_utf8() == want_v2, "post-reload body differs", "")?;

    // percent-encoded cluster names round-trip: the PUT and the GET
    // address the same (decoded) cluster, and bad escapes are 400s
    let spaced = testdata::demo_cluster_json().replace("demo-movies", "demo movies");
    let resp =
        client.request("PUT", "/clusters/demo%20movies", &[], spaced.as_bytes()).map_err(io)?;
    expect(resp.status == 201, "percent-encoded PUT status", resp.status)?;
    let resp = client.request("GET", "/clusters/demo%20movies", &[], b"").map_err(io)?;
    expect(resp.status == 200, "percent-encoded GET status", resp.status)?;
    let resp = client.request("GET", "/clusters/%zz", &[], b"").map_err(io)?;
    expect(resp.status == 400, "invalid escape status", resp.status)?;

    // the rule linter finds nothing to complain about in the demo rules
    let resp = request_once(addr, "GET", "/lint", &[], b"").map_err(io)?;
    expect(resp.status == 200, "repo lint status", resp.status)?;
    let report = resp.body_json().map_err(|e| format!("lint body: {e}"))?;
    expect(
        report.get("errors").and_then(|e| e.as_u64()) == Some(0),
        "demo repository lint-clean",
        report.to_string_compact(),
    )?;
    let resp =
        request_once(addr, "GET", &format!("/clusters/{}/lint", testdata::DEMO_CLUSTER), &[], b"")
            .map_err(io)?;
    expect(resp.status == 200, "cluster lint status", resp.status)?;

    // metrics counted all of the above
    let resp = request_once(addr, "GET", "/metrics", &[], b"").map_err(io)?;
    let metrics = resp.body_json().map_err(|e| format!("metrics body: {e}"))?;
    let total =
        metrics.get("requests").and_then(|r| r.get("total")).and_then(|t| t.as_u64()).unwrap_or(0);
    expect(total >= 6, "metrics request total", total)?;
    expect(
        metrics.get("lint").and_then(|l| l.get("errors")).is_some(),
        "lint section on /metrics",
        metrics.to_string_compact(),
    )?;

    handle.shutdown();

    // Strict-lint gate: a provably-empty rule (TR[0] can never match) is
    // rejected with its diagnostics before anything is recorded, and an
    // unparseable rule comes back as a parse-error diagnostic with a
    // byte offset.
    {
        let config = ServerConfig { strict_lint: true, ..ServerConfig::default() };
        let server = Server::bind(testdata::demo_repository(), config)
            .map_err(|e| format!("strict bind: {e}"))?;
        let handle = server.start().map_err(|e| format!("strict start: {e}"))?;
        let bad = testdata::demo_cluster_json()
            .replace("//TABLE[1]/TR[1]/TD[2]/text()", "//TABLE[1]/TR[0]/TD[2]/text()");
        let resp = request_once(
            handle.addr(),
            "PUT",
            &format!("/clusters/{}", testdata::DEMO_CLUSTER),
            &[],
            bad.as_bytes(),
        )
        .map_err(io)?;
        expect(resp.status == 400, "strict-lint rejection status", resp.status)?;
        let body = resp.body_json().map_err(|e| format!("strict-lint body: {e}"))?;
        let code = body
            .get("lint")
            .and_then(|l| l.get("diagnostics"))
            .and_then(|d| d.as_array())
            .and_then(<[retroweb_json::Json]>::first)
            .and_then(|d| d.get("code"))
            .and_then(|c| c.as_str());
        expect(
            code == Some("unsat-position"),
            "strict-lint diagnostic code",
            body.to_string_compact(),
        )?;
        let unparseable = testdata::demo_cluster_json()
            .replace("//UL[1]/LI[position() >= 1]/text()", "//UL[1]/LI[");
        let resp = request_once(
            handle.addr(),
            "PUT",
            &format!("/clusters/{}", testdata::DEMO_CLUSTER),
            &[],
            unparseable.as_bytes(),
        )
        .map_err(io)?;
        expect(resp.status == 400, "parse-error rejection status", resp.status)?;
        let body = resp.body_json().map_err(|e| format!("parse-error body: {e}"))?;
        let diag = body
            .get("diagnostics")
            .and_then(|d| d.as_array())
            .and_then(<[retroweb_json::Json]>::first);
        expect(
            diag.and_then(|d| d.get("code")).and_then(|c| c.as_str()) == Some("parse-error"),
            "parse-error diagnostic code",
            body.to_string_compact(),
        )?;
        expect(
            diag.and_then(|d| d.get("span")).is_some(),
            "parse-error diagnostic span",
            body.to_string_compact(),
        )?;
        // Neither rejected body replaced the live rules.
        let resp = request_once(
            handle.addr(),
            "GET",
            &format!("/clusters/{}", testdata::DEMO_CLUSTER),
            &[],
            b"",
        )
        .map_err(io)?;
        expect(
            resp.body_utf8().contains("TR[1]"),
            "original rules survive strict rejections",
            resp.body_utf8(),
        )?;
        handle.shutdown();
    }

    // Evented front end: the same requests must come back byte-identical
    // through the poll(2) loop — full responses and the chunked stream.
    if cfg!(unix) {
        let config = ServerConfig { evented: true, ..ServerConfig::default() };
        let server = Server::bind(testdata::demo_repository(), config)
            .map_err(|e| format!("evented bind: {e}"))?;
        let handle = server.start().map_err(|e| format!("evented start: {e}"))?;
        let addr = handle.addr();
        let resp = request_once(
            addr,
            "POST",
            &format!("/extract/{}", testdata::DEMO_CLUSTER),
            &[("x-page-uri", &uri)],
            html.as_bytes(),
        )
        .map_err(io)?;
        expect(resp.status == 200, "evented extract status", resp.status)?;
        expect(resp.body_utf8() == want, "evented extract body differs", "")?;
        let mut client = Client::connect(addr).map_err(io)?;
        let resp = client
            .request(
                "POST",
                &format!("/extract/{}/batch?threads=4", testdata::DEMO_CLUSTER),
                &[],
                testdata::pages_json(&pages).as_bytes(),
            )
            .map_err(io)?;
        expect(resp.status == 200, "evented batch status", resp.status)?;
        expect(resp.body_utf8() == want_batch, "evented batch body differs", "")?;
        expect(
            resp.header("transfer-encoding") == Some("chunked"),
            "evented batch chunked framing",
            resp.header("transfer-encoding").unwrap_or("missing"),
        )?;
        // A second request on the same connection proves keep-alive
        // survives a chunked stream under the evented writer.
        let resp = client.request("GET", "/healthz", &[], b"").map_err(io)?;
        expect(resp.status == 200, "evented keep-alive after stream", resp.status)?;
        let resp = request_once(addr, "GET", "/metrics", &[], b"").map_err(io)?;
        let metrics = resp.body_json().map_err(|e| format!("evented metrics body: {e}"))?;
        let open = metrics.get("evented").and_then(|e| e.get("open")).and_then(|o| o.as_u64());
        expect(open.is_some(), "evented gauges on /metrics", metrics.to_string_compact())?;
        handle.shutdown();
    }

    // Single-file import, then directory replay: a `<repo>` snapshot
    // plus a `<repo>.wal` tail (one log-only mutation) is imported into
    // `<repo>.d/` on the first start, a mutation lands in exactly one
    // shard's WAL, and a restart replays it (in parallel) without
    // importing the legacy pair again.
    let dir = std::env::temp_dir().join(format!("retrozilla-selftest-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(io)?;
    let repo_path = dir.join("rules.json");
    testdata::demo_repository().save(&repo_path).map_err(io)?;
    let updated = testdata::cluster_from(&testdata::updated_cluster_json()).to_json();
    {
        let (mut wal, _) = Wal::open(&dir.join("rules.json.wal")).map_err(io)?;
        let op = WalOp::Record(testdata::cluster_from(&testdata::updated_cluster_json()));
        wal.append(&op).map_err(io)?;
    }
    let config = ServerConfig {
        repo_path: Some(repo_path.clone()),
        compact_every: 1_000_000, // keep every mutation in the logs
        shards: 4,
        ..ServerConfig::default()
    };
    let server = Server::bind(RuleRepository::new(), config.clone())
        .map_err(|e| format!("import bind: {e}"))?;
    let handle = server.start().map_err(|e| format!("import start: {e}"))?;
    let report = handle.state().sharded_open_report().ok_or("missing sharded open report")?;
    expect(report.shards == 4, "shard count", report.shards)?;
    expect(
        report.migrated_clusters == Some(1),
        "single-file pair imported into the directory",
        format!("{:?}", report.migrated_clusters),
    )?;
    let demo_uri = format!("/clusters/{}", testdata::DEMO_CLUSTER);
    let resp = request_once(handle.addr(), "GET", &demo_uri, &[], b"").map_err(io)?;
    expect(
        resp.body_json().ok() == Some(updated.clone()),
        "imported cluster is the single-file log tail's version",
        resp.body_utf8(),
    )?;
    let spaced = testdata::demo_cluster_json().replace("demo-movies", "sharded movies");
    let resp =
        request_once(handle.addr(), "PUT", "/clusters/sharded%20movies", &[], spaced.as_bytes())
            .map_err(io)?;
    expect(resp.status == 201, "sharded PUT status", resp.status)?;
    let resp = request_once(handle.addr(), "GET", "/metrics", &[], b"").map_err(io)?;
    let metrics = resp.body_json().map_err(|e| format!("sharded metrics body: {e}"))?;
    let shard_gauges = metrics
        .get("repository")
        .and_then(|r| r.get("shards"))
        .and_then(|s| s.as_array())
        .map(<[retroweb_json::Json]>::len)
        .unwrap_or(0);
    expect(shard_gauges == 4, "per-shard repository gauges on /metrics", shard_gauges)?;
    let wal_gauges = metrics
        .get("wal")
        .and_then(|w| w.get("per_shard"))
        .and_then(|s| s.as_array())
        .map(<[retroweb_json::Json]>::len)
        .unwrap_or(0);
    expect(wal_gauges == 4, "per-shard wal gauges on /metrics", wal_gauges)?;
    handle.shutdown();
    let server = Server::bind(RuleRepository::new(), config).map_err(|e| format!("rebind: {e}"))?;
    let handle = server.start().map_err(|e| format!("restart: {e}"))?;
    let report = handle.state().sharded_open_report().ok_or("missing sharded open report")?;
    expect(
        report.migrated_clusters.is_none(),
        "restart does not import the single-file pair again",
        format!("{:?}", report.migrated_clusters),
    )?;
    let replayed = handle.state().wal_stats().map(|w| w.replayed_records).unwrap_or(0);
    expect(replayed == 1, "replayed record count after restart", replayed)?;
    let resp =
        request_once(handle.addr(), "GET", "/clusters/sharded%20movies", &[], b"").map_err(io)?;
    expect(resp.status == 200, "replayed cluster served", resp.status)?;
    let resp = request_once(handle.addr(), "GET", &demo_uri, &[], b"").map_err(io)?;
    expect(
        resp.body_json().ok() == Some(updated),
        "imported cluster served after restart",
        resp.body_utf8(),
    )?;
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();

    Ok(format!(
        "7 endpoints exercised, {total} requests served, streaming + drift + hot reload + \
         percent-decoding + rule lint (incl. strict gate + parse-error offsets) + evented \
         front end + single-file import and WAL replay verified"
    ))
}

fn expect(ok: bool, what: &str, got: impl std::fmt::Display) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("{what} (got: {got})"))
    }
}
