//! The extraction server as a child process: spawned with its defaults
//! plus the two deployment settings (address and repository path), and
//! observed through `/proc` and `GET /metrics`.

use crate::client::Client;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    drain: Option<std::thread::JoinHandle<()>>,
}

const LISTENING: &str = "listening on http://";

impl Server {
    /// Spawn `binary --addr 127.0.0.1:0 --repo <repo>` and wait until it
    /// announces its address.
    pub fn spawn(binary: &Path, repo: &Path) -> Result<Server, String> {
        let mut child = Command::new(binary)
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--repo")
            .arg(repo)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, rx) = mpsc::channel();
        // Keep draining stdout after the address line so the server can
        // never block on a full pipe.
        let drain = std::thread::spawn(move || {
            let mut tx = Some(tx);
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if let Some(at) = line.find(LISTENING) {
                    let addr = line[at + LISTENING.len()..].split_whitespace().next().unwrap_or("");
                    if let Some(tx) = tx.take() {
                        let _ = tx.send(addr.to_string());
                    }
                }
            }
        });
        let mut server =
            Server { child, addr: "127.0.0.1:1".parse().expect("addr"), drain: Some(drain) };
        match rx.recv_timeout(Duration::from_secs(60)) {
            Ok(addr) => {
                server.addr = addr.parse().map_err(|e| format!("bad address '{addr}': {e}"))?;
                Ok(server)
            }
            Err(_) => Err("server did not report its address".to_string()),
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// User + system CPU of the whole process so far, in seconds.
    pub fn cpu_seconds(&self) -> f64 {
        let stat =
            std::fs::read_to_string(format!("/proc/{}/stat", self.pid())).unwrap_or_default();
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
        (ticks(11) + ticks(12)) / clock_ticks_per_second()
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mib(&self) -> f64 {
        let status =
            std::fs::read_to_string(format!("/proc/{}/status", self.pid())).unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(f64::NAN, |kib| kib / 1024.0)
    }

    pub fn metrics(&self) -> Result<retroweb_json::Json, String> {
        let mut client = Client::connect(self.addr).map_err(|e| format!("metrics: {e}"))?;
        let reply = client
            .send(b"GET /metrics HTTP/1.1\r\nhost: loopback\r\ncontent-length: 0\r\n\r\n")
            .map_err(|e| format!("metrics: {e}"))?;
        if reply.status != 200 {
            return Err(format!("metrics: status {}", reply.status));
        }
        let text = String::from_utf8_lossy(&reply.body);
        retroweb_json::parse(&text).map_err(|e| format!("metrics: {e}"))
    }

    /// Kill the server and wait for it (and the stdout drain) to end.
    pub fn stop(self) {
        drop(self);
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.kill();
    }
}

/// `sysconf(_SC_CLK_TCK)`; Linux reports CPU times in these units
/// (100 on every mainstream configuration).
fn clock_ticks_per_second() -> f64 {
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: sysconf has no preconditions and only reads a constant.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    if ticks > 0 {
        ticks as f64
    } else {
        100.0
    }
}

/// The number at `path` (nested object keys) in a `/metrics` document;
/// `NaN` when absent.
pub fn metric(json: &retroweb_json::Json, path: &[&str]) -> f64 {
    let mut node = Some(json);
    for key in path {
        node = node.and_then(|n| n.get(key));
    }
    node.and_then(|n| n.as_f64()).unwrap_or(f64::NAN)
}
