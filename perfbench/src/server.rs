//! The `tsx-server` child process: spawn, address, peak memory, scrape,
//! and a kill-and-wait on drop so no run leaves a server behind.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};

use serde::Value;
use tsexplain_server::Client;

/// A running server process, killed and reaped when dropped.
pub struct ServerProcess {
    child: Child,
    // Held open so the server's stdout never hits a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl ServerProcess {
    /// Starts `binary` on an ephemeral port with two workers and two
    /// threads per request, and waits for its listening line.
    pub fn spawn(binary: &Path, budget_mb: Option<usize>) -> Result<ServerProcess, String> {
        let mut command = Command::new(binary);
        command.args([
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--threads",
            "2",
            "--log-level",
            "off",
        ]);
        if let Some(mb) = budget_mb {
            command.args(["--budget-mb", &mb.to_string()]);
        }
        let mut child = command
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut line = String::new();
        let addr = stdout
            .read_line(&mut line)
            .ok()
            .and_then(|_| line.split("http://").nth(1))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|addr| addr.parse().ok());
        match addr {
            Some(addr) => Ok(ServerProcess {
                child,
                _stdout: stdout,
                addr,
            }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("server printed no address: {line:?}"))
            }
        }
    }

    /// The server's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("cannot read the server's /proc status: {e}"))?;
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|rest| {
                rest.trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM line in the server's /proc status".to_string())
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One scrape of the server's counters: the registry totals from
/// `GET /metrics` and the per-route request-duration histograms from the
/// Prometheus exposition.
#[derive(Debug, Default)]
pub struct Scrape {
    /// `registry.totals` of the JSON metrics document.
    pub totals: BTreeMap<String, f64>,
    /// Route label → (sum of seconds, count).
    pub routes: BTreeMap<String, (f64, f64)>,
}

impl Scrape {
    pub fn take(client: &mut Client) -> Result<Scrape, String> {
        let doc = client.metrics().map_err(|e| e.to_string())?;
        let totals = doc
            .get("registry")
            .and_then(|r| r.get("totals"))
            .and_then(Value::as_object)
            .ok_or("the metrics document has no registry.totals")?
            .iter()
            .filter_map(|(k, v)| v.as_f64().map(|v| (k.clone(), v)))
            .collect();
        let text = client.metrics_prometheus().map_err(|e| e.to_string())?;
        let mut routes: BTreeMap<String, (f64, f64)> = BTreeMap::new();
        for line in text.lines() {
            let Some(rest) = line.strip_prefix("tsx_request_duration_seconds_") else {
                continue;
            };
            let (is_sum, rest) = match rest.split_once("{route=\"") {
                Some(("sum", rest)) => (true, rest),
                Some(("count", rest)) => (false, rest),
                _ => continue,
            };
            let Some((route, value)) = rest.split_once("\"} ") else {
                continue;
            };
            let Ok(value) = value.trim().parse::<f64>() else {
                continue;
            };
            let entry = routes.entry(route.to_string()).or_default();
            if is_sum {
                entry.0 = value;
            } else {
                entry.1 = value;
            }
        }
        Ok(Scrape { totals, routes })
    }

    /// A registry total's growth since `earlier`.
    pub fn total_since(&self, earlier: &Scrape, key: &str) -> f64 {
        self.totals.get(key).copied().unwrap_or(0.0)
            - earlier.totals.get(key).copied().unwrap_or(0.0)
    }

    /// A route's (seconds, requests) growth since `earlier`.
    pub fn route_since(&self, earlier: &Scrape, route: &str) -> (f64, f64) {
        let now = self.routes.get(route).copied().unwrap_or_default();
        let then = earlier.routes.get(route).copied().unwrap_or_default();
        (now.0 - then.0, now.1 - then.1)
    }
}
