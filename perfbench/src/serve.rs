//! Running `edna serve` as a child process.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::workload::Workload;

/// Background checkpoint interval of the server (`--checkpoint-secs`).
pub const CHECKPOINT_SECS: u64 = 5;

/// A running `edna serve`.
pub struct Server {
    child: Child,
    /// Kept open so the server's later status lines never hit a closed
    /// pipe.
    _stdout: BufReader<ChildStdout>,
    /// Where it listens.
    pub addr: SocketAddr,
    /// The operator token the wire `shutdown` must present.
    pub token: String,
    /// From spawn to the listener being up: workspace open (recovery and
    /// spec re-registration), the start-up audit, and the bind.
    pub setup: Duration,
}

impl Server {
    /// Starts `edna serve` on `state` with the benchmark's fixed
    /// configuration: two connections, the decay daemon off, a fixed
    /// checkpoint interval.
    pub fn spawn(edna: &Path, state: &Path, workload: Workload) -> Result<Server, String> {
        let mut cmd = Command::new(edna);
        cmd.arg("serve")
            .arg(state)
            .args(["--addr", "127.0.0.1:0", "--max-conns", "2", "--no-decay"])
            .args(["--checkpoint-secs", &CHECKPOINT_SECS.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if let Some(p) = workload.passphrase() {
            cmd.args(["--passphrase", p]);
        }
        let started = Instant::now();
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot run {}: {e}", edna.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut server = Server {
            child,
            _stdout: BufReader::new(stdout),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            token: String::new(),
            setup: Duration::ZERO,
        };
        let mut line = String::new();
        for _ in 0..2 {
            line.clear();
            let n = server
                ._stdout
                .read_line(&mut line)
                .map_err(|e| format!("reading the banner: {e}"))?;
            if n == 0 {
                return Err("edna serve exited before it was ready".to_string());
            }
            if let Some(addr) = line.trim().strip_prefix("listening on ") {
                server.setup = started.elapsed();
                server.addr = addr
                    .parse()
                    .map_err(|e| format!("bad listen address {addr:?}: {e}"))?;
            } else if let Some(token) = line.trim().strip_prefix("shutdown token ") {
                server.token = token.to_string();
            }
        }
        if server.token.is_empty() || server.setup.is_zero() {
            return Err(format!("unexpected banner line {line:?}"));
        }
        Ok(server)
    }

    /// Peak resident memory of the server process, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }

    /// Drains the server with the operator-token `shutdown` and waits for
    /// the process to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut client = edna_server::Client::connect(self.addr)
            .map_err(|e| format!("connecting for shutdown: {e}"))?;
        let resp = client
            .shutdown(&self.token)
            .map_err(|e| format!("shutdown: {e}"))?;
        if !resp.ok {
            return Err(format!("shutdown refused: {}", resp.body.trim_end()));
        }
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("edna serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                Ok(None) => return Err("edna serve did not drain within 60 s".to_string()),
                Err(e) => return Err(format!("waiting for edna serve: {e}")),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Reached with the process still running only on an error path:
        // never leave it behind.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}
