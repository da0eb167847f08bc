//! The `docql-serve` child process: spawn, find its port, shut it down.

use crate::client::Client;
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a shutdown may take before the child is killed.
const SHUTDOWN_LIMIT: Duration = Duration::from_secs(30);

/// A running server. Dropping it kills the process and waits for it.
pub struct ServerProc {
    child: Child,
    /// Held open so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// The address from the server's `listening on` line.
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Start `bin` on an ephemeral port, durable under `dir` when given.
    /// The server's standard error goes to `log`.
    pub fn spawn(bin: &Path, dir: Option<&Path>, log: &Path) -> io::Result<ServerProc> {
        let mut cmd = Command::new(bin);
        cmd.args(["--addr", "127.0.0.1:0"]);
        if let Some(dir) = dir {
            cmd.arg("--dir").arg(dir);
        }
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(log)?;
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log))
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = match stdout.read_line(&mut line) {
            Ok(n) if n > 0 => line
                .trim()
                .strip_prefix("listening on ")
                .and_then(|a| a.parse::<SocketAddr>().ok()),
            _ => None,
        };
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!(
                "docql-serve did not report its address (got {line:?})"
            )));
        };
        Ok(ServerProc {
            child,
            _stdout: stdout,
            addr,
        })
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Ask for a graceful drain on a fresh connection and wait for the
    /// process to exit. Callers close their own idle connections first: an
    /// idle keep-alive connection holds the drain until the server's read
    /// timeout. Returns how long the shutdown took.
    pub fn shutdown(mut self) -> io::Result<Duration> {
        let t0 = Instant::now();
        let mut control = Client::with_rotation(self.addr, 1);
        let resp = control.post("/admin/shutdown", b"")?;
        if resp.status != 202 {
            return Err(io::Error::other(format!(
                "shutdown answered {}",
                resp.status
            )));
        }
        loop {
            if let Some(status) = self.child.try_wait()? {
                if !status.success() {
                    return Err(io::Error::other(format!(
                        "docql-serve exited with {status}"
                    )));
                }
                return Ok(t0.elapsed());
            }
            if t0.elapsed() > SHUTDOWN_LIMIT {
                return Err(io::Error::other("docql-serve did not drain in time"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// A fresh, empty directory `name` under `root`.
pub fn fresh_dir(root: &Path, name: &str) -> io::Result<PathBuf> {
    let dir = root.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}
