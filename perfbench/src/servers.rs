//! Spawning and stopping the `detserved` processes a workload runs on.

use crate::pool::Shape;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const ANY_PORT: &str = "127.0.0.1:0";

/// Fixed backend addresses of a group. The router's consistent-hash ring
/// is built from these labels, so fixed ports give every run the same key
/// placement: with ephemeral ports the split of the hot keys between the
/// backends, and with it the group's capacity, changed from run to run by
/// up to 1.8x. With this pair one backend owns two of the three hot keys
/// and 14 of the 24 pool keys.
const BACKEND_ADDRS: [&str; 2] = ["127.0.0.1:39721", "127.0.0.1:39722"];

/// The live processes of one workload. Dropping it kills whatever is
/// still running and waits for it.
pub struct Servers {
    children: Vec<Child>,
    /// Where clients connect (the router for a group).
    pub front: String,
    /// The `detserved` processes that run jobs (the front itself for a
    /// single server).
    pub backends: Vec<String>,
}

/// How to start a server: binary, directory for ready files and logs, extra
/// environment.
pub struct Launch {
    pub bin: PathBuf,
    pub dir: PathBuf,
    pub env: Vec<(String, String)>,
}

impl Launch {
    fn start(
        &self,
        name: &str,
        addr: &str,
        args: &[&str],
        children: &mut Vec<Child>,
    ) -> Result<String, String> {
        let ready = self.dir.join(format!("{name}.ready"));
        let _ = std::fs::remove_file(&ready);
        let log = std::fs::File::create(self.dir.join(format!("{name}.log")))
            .map_err(|e| format!("{name}.log: {e}"))?;
        // The servers run at a lower scheduling priority than the load
        // generator, so sends leave on time while the shards saturate the
        // cores.
        let mut cmd = Command::new("nice");
        cmd.args(["-n", "10"])
            .arg(&self.bin)
            .args(["--addr", addr, "--ready-file"])
            .arg(&ready)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log);
        // Servers run with shipped defaults: no inherited overrides.
        for (key, _) in std::env::vars() {
            if key.starts_with("DETLOCK_") {
                cmd.env_remove(key);
            }
        }
        cmd.envs(self.env.iter().map(|(k, v)| (k, v)));
        let child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", self.bin.display()))?;
        children.push(child);
        wait_ready(&ready, children.last_mut().expect("just pushed"))
    }

    /// Start the servers of `shape` and wait until every one accepts.
    pub fn spawn(&self, shape: Shape) -> Result<Servers, String> {
        let mut servers = Servers {
            children: Vec::new(),
            front: String::new(),
            backends: Vec::new(),
        };
        match shape {
            Shape::Single => {
                let addr = self.start(
                    "server",
                    ANY_PORT,
                    &["--shards", "2"],
                    &mut servers.children,
                )?;
                servers.backends.push(addr.clone());
                servers.front = addr;
            }
            Shape::Group => {
                for (i, addr) in BACKEND_ADDRS.iter().enumerate() {
                    // A busy fixed port falls back to an ephemeral one:
                    // the run still works, but its ring layout differs.
                    let addr = if std::net::TcpListener::bind(addr).is_ok() {
                        addr
                    } else {
                        eprintln!(
                            "perfbench: {addr} is busy; ring layout will differ from the reference"
                        );
                        ANY_PORT
                    };
                    let name = format!("backend{i}");
                    let addr =
                        self.start(&name, addr, &["--shards", "1"], &mut servers.children)?;
                    servers.backends.push(addr);
                }
                servers.front = self.start_router(&servers.backends, &mut servers.children)?;
            }
        }
        Ok(servers)
    }
}

impl Launch {
    fn start_router(
        &self,
        backends: &[String],
        children: &mut Vec<Child>,
    ) -> Result<String, String> {
        self.start(
            "router",
            ANY_PORT,
            &["--route", &backends.join(",")],
            children,
        )
    }

    /// A router in front of already running `backends`. Its `front` is the
    /// router; dropping it kills only the router.
    pub fn spawn_router(&self, backends: &[String]) -> Result<Servers, String> {
        let mut children = Vec::new();
        let front = self.start_router(backends, &mut children)?;
        Ok(Servers {
            children,
            front,
            backends: backends.to_vec(),
        })
    }
}

fn wait_ready(path: &Path, child: &mut Child) -> Result<String, String> {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Ok(text) = std::fs::read_to_string(path) {
            if text.ends_with('\n') {
                return Ok(text.trim().to_string());
            }
        }
        if let Ok(Some(status)) = child.try_wait() {
            return Err(format!("server exited before ready: {status}"));
        }
        if Instant::now() > deadline {
            return Err("server not ready within 60 s".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// One control-plane request on a fresh connection.
pub fn request(addr: &str, line: &str) -> Result<String, String> {
    let err = |e: std::io::Error| format!("{addr}: {e}");
    let mut stream = TcpStream::connect(addr).map_err(err)?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(err)?;
    stream
        .write_all(format!("{line}\n").as_bytes())
        .map_err(err)?;
    let mut resp = String::new();
    BufReader::new(stream).read_line(&mut resp).map_err(err)?;
    Ok(resp)
}

impl Servers {
    /// `/stats` of every job-running process.
    pub fn stats(&self) -> Result<Vec<String>, String> {
        self.backends
            .iter()
            .map(|a| request(a, r#"{"op":"stats"}"#))
            .collect()
    }

    /// `/stats` of the front (the router's view, for a group).
    pub fn front_stats(&self) -> Result<String, String> {
        request(&self.front, r#"{"op":"stats"}"#)
    }

    /// Graceful drain through the front (a router forwards it to its
    /// backends), then wait; anything still running after 10 s is killed.
    pub fn shutdown(mut self) {
        let _ = request(&self.front, r#"{"op":"shutdown"}"#);
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if self
                .children
                .iter_mut()
                .all(|c| matches!(c.try_wait(), Ok(Some(_))))
            {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Servers {
    fn drop(&mut self) {
        for child in &mut self.children {
            if !matches!(child.try_wait(), Ok(Some(_))) {
                let _ = child.kill();
            }
            let _ = child.wait();
        }
    }
}
