//! Loopback end-to-end tests for the evented (`poll(2)`-loop) front
//! end. The contract under test: every response is **byte-identical**
//! to the worker-pool front end's (both run the same encoders), with
//! the evented loop adding pipelining, admission shedding, slow-client
//! deadlines, and a draining shutdown on top.
#![cfg(unix)]

use retroweb_service::testdata::{
    self, demo_pages, demo_repository, direct_extract_xml, pages_json, DEMO_CLUSTER,
};
use retroweb_service::{request_once, Client, Server, ServerConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn evented_config() -> ServerConfig {
    ServerConfig { evented: true, ..ServerConfig::default() }
}

fn start_server(config: ServerConfig) -> retroweb_service::ServerHandle {
    Server::bind(demo_repository(), config).expect("bind").start().expect("start")
}

/// Send one raw request and read the complete raw response bytes (to
/// EOF — callers pass `connection: close` requests).
fn raw_response(addr: std::net::SocketAddr, request: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(request).expect("write");
    let mut out = Vec::new();
    stream.read_to_end(&mut out).expect("read");
    out
}

/// The headline guarantee: the same raw requests produce the same raw
/// bytes — headers, framing and all — from both front ends. Covers a
/// full response, a chunked streaming batch, an NDJSON stream, and an
/// error.
#[test]
fn responses_byte_identical_to_worker_pool_mode() {
    let evented = start_server(evented_config());
    let blocking = start_server(ServerConfig::default());

    let pages = demo_pages(24);
    let body = pages_json(&pages);
    let (uri, html) = testdata::demo_page(1);
    let requests: Vec<Vec<u8>> = vec![
        b"GET /healthz HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n".to_vec(),
        format!(
            "POST /extract/{DEMO_CLUSTER} HTTP/1.1\r\nhost: t\r\nx-page-uri: {uri}\r\n\
             connection: close\r\ncontent-length: {}\r\n\r\n{html}",
            html.len()
        )
        .into_bytes(),
        format!(
            "POST /extract/{DEMO_CLUSTER}/batch?threads=3 HTTP/1.1\r\nhost: t\r\n\
             connection: close\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes(),
        format!(
            "POST /extract/{DEMO_CLUSTER}/batch HTTP/1.1\r\nhost: t\r\naccept: application/x-ndjson\r\n\
             connection: close\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes(),
        b"POST /extract/no-such-cluster HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\
          content-length: 4\r\n\r\nhtml"
            .to_vec(),
        b"GET /clusters HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n".to_vec(),
    ];
    for (i, request) in requests.iter().enumerate() {
        let from_evented = raw_response(evented.addr(), request);
        let from_blocking = raw_response(blocking.addr(), request);
        assert!(
            from_evented == from_blocking,
            "request {i}: evented and worker-pool responses differ\n\
             evented:  {:?}\nblocking: {:?}",
            String::from_utf8_lossy(&from_evented),
            String::from_utf8_lossy(&from_blocking),
        );
        assert!(!from_evented.is_empty(), "request {i}: empty response");
    }
    // The chunked batch really was chunk-framed and decodes to the
    // direct pipeline's bytes through the shared client.
    let want = direct_extract_xml(&testdata::cluster_from(&testdata::demo_cluster_json()), &pages);
    let mut client = Client::connect(evented.addr()).expect("connect");
    let resp = client
        .request("POST", &format!("/extract/{DEMO_CLUSTER}/batch"), &[], body.as_bytes())
        .expect("batch");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("transfer-encoding"), Some("chunked"));
    assert_eq!(resp.body_utf8(), want);
    // Keep-alive survives a chunked stream under the evented writer.
    let resp = client.request("GET", "/healthz", &[], b"").expect("keep-alive");
    assert_eq!(resp.status, 200);

    evented.shutdown();
    blocking.shutdown();
}

/// Satellite: HTTP/1.1 pipelining. N requests written in one TCP
/// segment produce N in-order responses on one connection, and the
/// bytes equal N sequential keep-alive exchanges.
#[test]
fn pipelined_requests_answer_in_order_and_match_sequential() {
    let handle = start_server(evented_config());
    let addr = handle.addr();

    const N: usize = 5;
    let one = b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n";
    let mut burst = Vec::new();
    for _ in 0..N {
        burst.extend_from_slice(one);
    }

    // One segment, N requests. Close afterwards so read_to_end ends.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(&burst).expect("pipelined burst");
    stream.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut pipelined = Vec::new();
    stream.read_to_end(&mut pipelined).expect("responses");

    // Sequential keep-alive reference on a second connection.
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut sequential = Vec::new();
    for _ in 0..N {
        stream.write_all(one).expect("sequential request");
        // Keep-alive responses carry content-length; read exactly one.
        let mut resp = Vec::new();
        let mut byte = [0u8; 1];
        while !resp.ends_with(b"\r\n\r\n") {
            stream.read_exact(&mut byte).expect("header byte");
            resp.push(byte[0]);
        }
        let head = String::from_utf8_lossy(&resp).to_lowercase();
        let len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("content-length:"))
            .expect("content-length")
            .trim()
            .parse()
            .expect("length");
        let mut body = vec![0u8; len];
        stream.read_exact(&mut body).expect("body");
        resp.extend_from_slice(&body);
        sequential.extend_from_slice(&resp);
    }
    drop(stream);

    assert_eq!(
        String::from_utf8_lossy(&pipelined),
        String::from_utf8_lossy(&sequential),
        "pipelined burst must be byte-identical to sequential keep-alive"
    );
    let starts = pipelined.windows(4).filter(|w| w == b"HTTP").count();
    assert_eq!(starts, N, "expected {N} responses in the pipelined burst");

    // The loop counted the burst's follow-on requests as pipelined.
    let resp = request_once(addr, "GET", "/metrics", &[], b"").expect("metrics");
    let metrics = resp.body_json().expect("metrics json");
    let pipelined_total = metrics
        .get("evented")
        .and_then(|e| e.get("pipelined"))
        .and_then(|p| p.as_u64())
        .unwrap_or(0);
    assert!(pipelined_total >= (N as u64) - 1, "pipelined gauge: {metrics}");
    handle.shutdown();
}

/// Satellite: oversized request heads are answered `431` and closed —
/// in both front ends, with identical bytes.
#[test]
fn oversized_head_gets_431_in_both_modes() {
    let evented = start_server(evented_config());
    let blocking = start_server(ServerConfig::default());

    // 96 KiB of headers against a 64 KiB cap, sent as complete lines so
    // the rejection is about total size, not a torn line.
    let mut request = b"GET /healthz HTTP/1.1\r\nhost: t\r\n".to_vec();
    let filler = format!("x-filler: {}\r\n", "y".repeat(1000));
    while request.len() < 96 * 1024 {
        request.extend_from_slice(filler.as_bytes());
    }
    request.extend_from_slice(b"\r\n");

    let check = |addr: std::net::SocketAddr, label: &str| -> Vec<u8> {
        let mut stream = TcpStream::connect(addr).expect("connect");
        // The server may answer (and close) before the whole oversized
        // head is written; a write error past that point is expected.
        let _ = stream.write_all(&request);
        let mut resp = Vec::new();
        stream.read_to_end(&mut resp).unwrap_or_default();
        let text = String::from_utf8_lossy(&resp).to_string();
        assert!(text.starts_with("HTTP/1.1 431"), "{label}: {text}");
        assert!(text.contains("connection: close"), "{label}: {text}");
        resp
    };
    let from_evented = check(evented.addr(), "evented");
    let from_blocking = check(blocking.addr(), "worker-pool");
    assert_eq!(from_evented, from_blocking, "431 responses must match across front ends");

    // Both servers still serve normal traffic afterwards.
    for handle in [&evented, &blocking] {
        let resp = request_once(handle.addr(), "GET", "/healthz", &[], b"").expect("healthz");
        assert_eq!(resp.status, 200);
    }
    evented.shutdown();
    blocking.shutdown();
}

/// Satellite: an HTTP/1.0 peer gets the streamed batch EOF-delimited —
/// unframed bytes, `connection: close`, and an orderly FIN once the
/// write queue drains (read_to_end returning Ok proves FIN, not RST).
#[test]
fn http10_streaming_ends_with_orderly_fin() {
    let handle = start_server(evented_config());
    let addr = handle.addr();
    let pages = demo_pages(32);
    let body = pages_json(&pages);
    let want = direct_extract_xml(&testdata::cluster_from(&testdata::demo_cluster_json()), &pages);

    let mut stream = TcpStream::connect(addr).expect("connect");
    let head = format!(
        "POST /extract/{DEMO_CLUSTER}/batch HTTP/1.0\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("head");
    stream.write_all(body.as_bytes()).expect("body");
    let mut raw = Vec::new();
    // An RST mid-body or a truncating close errors here (or cuts the
    // body short, caught below).
    stream.read_to_end(&mut raw).expect("EOF-delimited body must end in a clean FIN");
    let text = String::from_utf8_lossy(&raw);
    let head_end = text.find("\r\n\r\n").expect("response head") + 4;
    assert!(text.starts_with("HTTP/1.1 200"), "{text}");
    assert!(text[..head_end].contains("connection: close"), "{text}");
    assert!(!text[..head_end].contains("transfer-encoding"), "1.0 peer must not see chunking");
    assert_eq!(&text[head_end..], want, "EOF-delimited body truncated or reordered");
    handle.shutdown();
}

/// Admission control: past `max_conns` open connections, arrivals are
/// shed with `503` + `connection: close` while established connections
/// keep working.
#[test]
fn connections_past_cap_are_shed_with_503() {
    let handle = start_server(ServerConfig { max_conns: 2, ..evented_config() });
    let addr = handle.addr();

    // Fill the cap with two live keep-alive connections.
    let mut held = Vec::new();
    for _ in 0..2 {
        let mut client = Client::connect(addr).expect("connect");
        let resp = client.request("GET", "/healthz", &[], b"").expect("held conn request");
        assert_eq!(resp.status, 200);
        held.push(client);
    }
    // The third arrival is shed.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n").ok();
    stream.shutdown(std::net::Shutdown::Write).ok();
    let mut resp = Vec::new();
    stream.read_to_end(&mut resp).expect("shed response");
    let text = String::from_utf8_lossy(&resp);
    assert!(text.starts_with("HTTP/1.1 503"), "expected shed 503: {text}");
    assert!(text.contains("connection: close"), "{text}");

    // Held connections still serve; the shed is visible on /metrics.
    let resp = held[0].request("GET", "/metrics", &[], b"").expect("metrics");
    assert_eq!(resp.status, 200);
    let metrics = resp.body_json().expect("metrics json");
    let evented = metrics.get("evented").expect("evented section");
    assert_eq!(evented.get("shed").and_then(|s| s.as_u64()), Some(1), "{metrics}");
    assert_eq!(evented.get("open").and_then(|o| o.as_u64()), Some(2), "{metrics}");
    drop(held);
    handle.shutdown();
}

/// Slow-client defence: a connection that dribbles a partial request
/// head is answered `408` at the header deadline; an idle keep-alive
/// connection is closed quietly at the idle deadline.
#[test]
fn slowloris_gets_408_and_idle_connections_are_reaped() {
    let handle = start_server(ServerConfig {
        header_timeout: Duration::from_millis(150),
        idle_timeout: Duration::from_millis(300),
        ..evented_config()
    });
    let addr = handle.addr();

    // Partial head, then silence: the server must answer 408 and close
    // rather than hold the socket forever.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(b"GET /healthz HT").expect("partial head");
    let mut resp = Vec::new();
    stream.read_to_end(&mut resp).expect("408 then close");
    let text = String::from_utf8_lossy(&resp);
    assert!(text.starts_with("HTTP/1.1 408"), "expected 408: {text}");
    assert!(text.contains("connection: close"), "{text}");

    // A completed exchange moves the connection to the (longer) idle
    // deadline; expiry closes it with a bare FIN, no error response.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n").expect("request");
    std::thread::sleep(Duration::from_millis(700));
    let mut leftover = Vec::new();
    stream.read_to_end(&mut leftover).expect("response then idle close");
    let text = String::from_utf8_lossy(&leftover);
    assert!(text.starts_with("HTTP/1.1 200"), "{text}");
    assert!(!text.contains("408"), "idle reap must not produce an error response: {text}");

    let resp = request_once(addr, "GET", "/metrics", &[], b"").expect("metrics");
    let metrics = resp.body_json().expect("metrics json");
    let timed_out = metrics
        .get("evented")
        .and_then(|e| e.get("timed_out"))
        .and_then(|t| t.as_u64())
        .unwrap_or(0);
    assert!(timed_out >= 1, "header timeout must count: {metrics}");
    handle.shutdown();
}

/// `Expect: 100-continue` works through the evented loop: interim nod
/// first, then the real response, on one connection.
#[test]
fn expect_continue_gets_interim_nod() {
    let handle = start_server(evented_config());
    let addr = handle.addr();
    let mut stream = TcpStream::connect(addr).expect("connect");
    let body = b"<html><body>x</body></html>";
    let head = format!(
        "POST /extract/{DEMO_CLUSTER} HTTP/1.1\r\nexpect: 100-continue\r\n\
         connection: close\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("head");
    let mut first = [0u8; 25];
    stream.read_exact(&mut first).expect("interim response");
    assert_eq!(&first, b"HTTP/1.1 100 Continue\r\n\r\n");
    stream.write_all(body).expect("body");
    let mut rest = String::new();
    stream.read_to_string(&mut rest).expect("final response");
    assert!(rest.starts_with("HTTP/1.1 200"), "{rest}");
    handle.shutdown();
}

/// Hot rule reload holds under the evented front end: a PUT on one
/// connection is observed by the next extraction on another.
#[test]
fn hot_reload_is_observed_across_connections() {
    let handle = start_server(evented_config());
    let addr = handle.addr();
    let pages = demo_pages(8);
    let body = pages_json(&pages);
    let want_v1 =
        direct_extract_xml(&testdata::cluster_from(&testdata::demo_cluster_json()), &pages);
    let want_v2 =
        direct_extract_xml(&testdata::cluster_from(&testdata::updated_cluster_json()), &pages);
    assert_ne!(want_v1, want_v2);

    let mut client = Client::connect(addr).expect("connect");
    let resp = client
        .request("POST", &format!("/extract/{DEMO_CLUSTER}/batch"), &[], body.as_bytes())
        .expect("v1 batch");
    assert_eq!(resp.body_utf8(), want_v1);
    let resp = request_once(
        addr,
        "PUT",
        &format!("/clusters/{DEMO_CLUSTER}"),
        &[],
        testdata::updated_cluster_json().as_bytes(),
    )
    .expect("reload");
    assert_eq!(resp.status, 200);
    // Same keep-alive connection as v1: the reload applies without
    // reconnecting.
    let resp = client
        .request("POST", &format!("/extract/{DEMO_CLUSTER}/batch"), &[], body.as_bytes())
        .expect("v2 batch");
    assert_eq!(resp.body_utf8(), want_v2);
    handle.shutdown();
}

/// Shutdown drains: requests in flight when shutdown begins still get
/// complete, correct responses through the evented loop.
#[test]
fn shutdown_drains_in_flight_requests() {
    let handle = start_server(ServerConfig { threads: 2, ..evented_config() });
    let addr = handle.addr();
    let pages = demo_pages(8);
    let body = std::sync::Arc::new(pages_json(&pages));
    let want = direct_extract_xml(&testdata::cluster_from(&testdata::demo_cluster_json()), &pages);

    const BURST: usize = 8;
    let mut clients = Vec::new();
    for _ in 0..BURST {
        let body = std::sync::Arc::clone(&body);
        clients.push(std::thread::spawn(move || {
            request_once(
                addr,
                "POST",
                &format!("/extract/{DEMO_CLUSTER}/batch"),
                &[],
                body.as_bytes(),
            )
        }));
    }
    std::thread::sleep(Duration::from_millis(100));
    handle.shutdown();
    let mut served = 0;
    for client in clients {
        let resp = client.join().expect("client thread");
        // A request that raced the listener teardown may have been
        // refused outright — but anything *answered* must be complete.
        if let Ok(resp) = resp {
            assert_eq!(resp.status, 200);
            assert_eq!(resp.body_utf8(), want);
            served += 1;
        }
    }
    assert!(served >= 1, "shutdown answered nothing");
}

/// The evented gauges on `/metrics` reflect the live connection table.
#[test]
fn metrics_report_evented_gauges() {
    let handle = start_server(evented_config());
    let addr = handle.addr();
    let mut held = Client::connect(addr).expect("connect");
    let resp = held.request("GET", "/healthz", &[], b"").expect("warm-up");
    assert_eq!(resp.status, 200);

    let resp = held.request("GET", "/metrics", &[], b"").expect("metrics");
    let metrics = resp.body_json().expect("metrics json");
    let evented = metrics.get("evented").expect("evented section");
    // This connection is open and actively being served; the gauge
    // includes it.
    assert!(evented.get("open").and_then(|o| o.as_u64()) >= Some(1), "{metrics}");
    assert!(evented.get("accepted").and_then(|a| a.as_u64()) >= Some(1), "{metrics}");
    // The worker section rides along once the pool is wired in.
    let workers = metrics.get("workers").expect("workers section");
    assert_eq!(workers.get("threads").and_then(|t| t.as_u64()), Some(4), "{metrics}");
    drop(held);
    handle.shutdown();
}

/// Streamed batch replies go out as several small writes (head, then
/// chunks). Without `TCP_NODELAY` on the accepted socket, Nagle holds
/// each trailing segment until the client's delayed ACK (40 ms on
/// Linux), so every keep-alive batch request pays that floor. The
/// median over sequential requests on one connection must stay well
/// below it.
#[test]
fn streamed_batches_on_keep_alive_do_not_wait_for_delayed_acks() {
    let handle = start_server(evented_config());
    let body = pages_json(&demo_pages(8));
    let mut client = Client::connect(handle.addr()).expect("connect");
    let mut millis: Vec<f64> = (0..20)
        .map(|_| {
            let started = std::time::Instant::now();
            let resp = client
                .request("POST", &format!("/extract/{DEMO_CLUSTER}/batch"), &[], body.as_bytes())
                .expect("batch");
            assert_eq!(resp.status, 200);
            assert_eq!(resp.header("transfer-encoding"), Some("chunked"));
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    millis.sort_by(f64::total_cmp);
    let median = millis[millis.len() / 2];
    assert!(median < 20.0, "median streamed batch took {median:.1} ms: {millis:?}");
    handle.shutdown();
}
