//! Closed-loop load over loopback: each client sends its next request
//! only after the previous reply arrived and passed the output oracle.

use crate::client::{Client, Reply};
use crate::inputs::{Inputs, Kind, Request};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// What the server's `/metrics` counters must add up to: pages answered
/// with 200 and the §7 failures the oracle predicts for them (a range,
/// because two rule versions can render the same body with different
/// failure counts).
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub pages: u64,
    pub failures_lo: u64,
    pub failures_hi: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.pages += other.pages;
        self.failures_lo += other.failures_lo;
        self.failures_hi += other.failures_hi;
    }
}

/// Check one reply against the oracle. On success returns what the
/// reply contributes to the server's counters.
pub fn check(inputs: &Inputs, req: &Request, reply: &Reply) -> Result<Tally, String> {
    let name = &inputs.clusters[req.cluster].name;
    if req.kind == Kind::Put {
        if reply.status != 200 {
            return Err(format!("PUT {name}: status {}", reply.status));
        }
        let json = retroweb_json::parse(&String::from_utf8_lossy(&reply.body))
            .map_err(|e| format!("PUT {name}: reply is not JSON: {e}"))?;
        let rules = inputs.clusters[req.cluster].versions[req.version].rules.len() as u64;
        let ok = json.get("cluster").and_then(|v| v.as_str()) == Some(name.as_str())
            && json.get("rules").and_then(|v| v.as_u64()) == Some(rules)
            && json.get("replaced").and_then(|v| v.as_bool()) == Some(true);
        return if ok {
            Ok(Tally::default())
        } else {
            Err(format!("PUT {name}: unexpected reply"))
        };
    }
    if reply.status != 200 {
        return Err(format!("extract {name}: status {}", reply.status));
    }
    let matches: Vec<u64> =
        req.expect.iter().filter(|e| e.body == reply.body).map(|e| e.failures as u64).collect();
    if matches.is_empty() {
        return Err(format!(
            "extract {name} ({} page(s)): body differs from in-process extraction",
            req.pages.len()
        ));
    }
    Ok(Tally {
        pages: req.pages.len() as u64,
        failures_lo: *matches.iter().min().expect("non-empty"),
        failures_hi: *matches.iter().max().expect("non-empty"),
    })
}

/// One timed operation.
#[derive(Clone, Copy, Debug)]
pub struct Op {
    pub request: u32,
    pub latency_ns: u64,
    /// Completion time, from the start of the timed window (or of the
    /// sequence, for sequential runs).
    pub done_ns: u64,
}

#[derive(Default)]
pub struct ClientLog {
    /// Operations completed inside the timed window, in order.
    pub ops: Vec<Op>,
    /// Operations sent and failed, warm-up included.
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Counter contributions of every reply, warm-up included.
    pub tally: Tally,
    /// Pages extracted correctly inside the timed window.
    pub pages: u64,
}

/// Send `req` and check the reply; connection failures reconnect.
fn attempt(
    client: &mut Option<Client>,
    addr: SocketAddr,
    inputs: &Inputs,
    req: &Request,
) -> (u64, Result<Tally, String>) {
    let started = Instant::now();
    let sent = match client {
        Some(c) => c.send(&req.bytes),
        None => Client::connect(addr).and_then(|c| client.insert(c).send(&req.bytes)),
    };
    let latency = started.elapsed().as_nanos() as u64;
    match sent {
        Ok(reply) => (latency, check(inputs, req, &reply)),
        Err(e) => {
            *client = None;
            (latency, Err(format!("I/O: {e}")))
        }
    }
}

/// Run every client plan concurrently, plan `i` on connection `i`: warm
/// up until `start`, then time operations until `end`.
pub fn run(
    addr: SocketAddr,
    inputs: &Inputs,
    start: Instant,
    end: Instant,
    conns: &mut [Option<Client>],
) -> Vec<ClientLog> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = inputs
            .clients
            .iter()
            .zip(conns.iter_mut())
            .map(|(plan, client)| {
                scope.spawn(move || {
                    let mut log = ClientLog::default();
                    let mut sequence = plan.sequence.iter().cycle();
                    let mut slot = Instant::now();
                    loop {
                        if let Some(pace) = plan.pace {
                            std::thread::sleep(slot.saturating_duration_since(Instant::now()));
                            slot += pace;
                        }
                        let now = Instant::now();
                        if now >= end {
                            break;
                        }
                        let timed = now >= start;
                        let index = *sequence.next().expect("non-empty plan");
                        let req = &inputs.requests[index];
                        let (latency_ns, outcome) = attempt(client, addr, inputs, req);
                        match outcome {
                            Ok(tally) => {
                                log.tally.add(tally);
                                if timed {
                                    log.pages += tally.pages;
                                    let done_ns = start.elapsed().as_nanos() as u64;
                                    log.ops.push(Op { request: index as u32, latency_ns, done_ns });
                                }
                            }
                            Err(e) => {
                                log.failed += 1;
                                if log.errors.len() < 5 {
                                    log.errors.push(e);
                                }
                            }
                        }
                        log.attempted += 1;
                    }
                    log
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    })
}

/// Send `requests` one after another on one connection (set-up probes,
/// rule publishing), logging each like a timed operation.
pub fn sequential(
    addr: SocketAddr,
    inputs: &Inputs,
    requests: &[usize],
    client: &mut Option<Client>,
) -> ClientLog {
    let mut log = ClientLog::default();
    let started = Instant::now();
    for &index in requests {
        let req = &inputs.requests[index];
        let (latency_ns, outcome) = attempt(client, addr, inputs, req);
        log.attempted += 1;
        match outcome {
            Ok(tally) => {
                log.tally.add(tally);
                log.pages += tally.pages;
                let done_ns = started.elapsed().as_nanos() as u64;
                log.ops.push(Op { request: index as u32, latency_ns, done_ns });
            }
            Err(e) => {
                log.failed += 1;
                if log.errors.len() < 5 {
                    log.errors.push(e);
                }
            }
        }
    }
    log
}

pub fn ms(op: &Op) -> f64 {
    Duration::from_nanos(op.latency_ns).as_secs_f64() * 1e3
}
