//! Set-up and teardown of the system under test: the corpus on disk, the
//! `sensormeta load` snapshot, and a child `sensormeta serve` process.

use crate::http;
use crate::workloads::{Corpus, Workload};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Where the benchmark finds the program and may write.
#[derive(Debug, Clone)]
pub struct Env {
    /// The release `sensormeta` binary.
    pub server_bin: PathBuf,
    /// Scratch directory inside the checkout.
    pub work_dir: PathBuf,
}

/// A running server child. Dropping it kills the child and waits for it.
pub struct Target {
    child: Child,
    pub addr: SocketAddr,
    pub snapshot: PathBuf,
    /// Kept open so the child never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

type Error = Box<dyn std::error::Error>;

/// One full set-up: corpus generation, `sensormeta load`, and server start
/// until `/healthz` answers 200. Returns the server and the seconds it took.
pub fn set_up(env: &Env, workload: Workload) -> Result<(Target, f64), Error> {
    let started = Instant::now();
    std::fs::create_dir_all(&env.work_dir)?;
    let corpus = Corpus::generate();
    let corpus_path = env.work_dir.join("corpus.jsonl");
    std::fs::write(&corpus_path, &corpus.jsonl)?;
    let snapshot = env.work_dir.join("repo.snap");
    for stale in [
        sensormeta::relstore::wal_path_for(&snapshot),
        snapshot.clone(),
    ] {
        let _ = std::fs::remove_file(stale);
    }
    let run_load = |pin: Option<usize>| {
        server_command(env, pin)
            .arg("load")
            .arg("--snapshot")
            .arg(&snapshot)
            .arg(&corpus_path)
            .stdout(Stdio::null())
            .status()
    };
    // `sensormeta load` is one thread that waits for the disk thousands of
    // times. On the CPU the disk interrupts it takes 2.0 s here, on the
    // other one 3.0 s, and the scheduler makes that choice once per run:
    // unpinned, set-up time reads one or the other at random. Pinned to one
    // CPU it reads the same every time (the last CPU, which on the reference
    // runner is the disk's). Without `taskset` it runs unpinned.
    let load = match run_load(last_cpu()) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => run_load(None),
        other => other,
    }?;
    if !load.success() {
        return Err(format!("`sensormeta load` exited with {load}").into());
    }
    let target = start_server(env, &snapshot, workload.shards())?;
    Ok((target, started.elapsed().as_secs_f64()))
}

/// `sensormeta` with no `SENSORMETA_*` inherited and the `par` pool sized to
/// the machine; through `taskset -c <pin>` if pinned.
fn server_command(env: &Env, pin: Option<usize>) -> Command {
    let mut cmd = match pin {
        Some(cpu) => {
            let mut taskset = Command::new("taskset");
            taskset.arg("-c").arg(cpu.to_string()).arg(&env.server_bin);
            taskset
        }
        None => Command::new(&env.server_bin),
    };
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("SENSORMETA_") {
            cmd.env_remove(key);
        }
    }
    cmd.env("SENSORMETA_THREADS", nproc().to_string());
    cmd
}

/// Starts `sensormeta serve` on a fresh loopback port (so no TIME_WAIT
/// socket of an earlier run shares its address) with default `--workers`.
pub fn start_server(env: &Env, snapshot: &Path, shards: usize) -> Result<Target, Error> {
    let mut cmd = server_command(env, None);
    if shards > 1 {
        cmd.env("SENSORMETA_SHARDS", shards.to_string());
    }
    let mut child = cmd
        .arg("serve")
        .arg("--snapshot")
        .arg(snapshot)
        .arg("--addr")
        .arg("127.0.0.1:0")
        .stdout(Stdio::piped())
        .spawn()?;
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
    let mut line = String::new();
    let addr: SocketAddr = loop {
        line.clear();
        if stdout.read_line(&mut line)? == 0 {
            let _ = child.kill();
            let _ = child.wait();
            return Err("`sensormeta serve` exited before it was serving".into());
        }
        if let Some(rest) = line.trim().strip_prefix("serving on http://") {
            break rest.parse()?;
        }
    };
    let target = Target {
        child,
        addr,
        snapshot: snapshot.to_owned(),
        _stdout: stdout,
    };
    let give_up = Instant::now() + Duration::from_secs(30);
    loop {
        match http::get(addr, "/healthz") {
            Ok(reply) if reply.status == 200 => return Ok(target),
            _ if Instant::now() > give_up => return Err("/healthz never answered 200".into()),
            _ => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

impl Target {
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// CPU time the child has used, in nanoseconds: the on-CPU time of each
    /// of its threads from `schedstat`, or `utime + stime` from `stat` (10 ms
    /// ticks) where the kernel keeps no scheduler statistics.
    pub fn cpu_ns(&self) -> u64 {
        let pid = self.pid();
        let per_thread: Option<u64> =
            std::fs::read_dir(format!("/proc/{pid}/task"))
                .ok()
                .map(|tasks| {
                    tasks
                        .flatten()
                        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
                        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
                        .sum()
                });
        match per_thread {
            Some(ns) if ns > 0 => ns,
            _ => {
                let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
                // Fields after the parenthesised command name; utime and
                // stime are the 14th and 15th of the whole line.
                let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
                let ticks: u64 = after
                    .split_whitespace()
                    .skip(11)
                    .take(2)
                    .filter_map(|f| f.parse::<u64>().ok())
                    .sum();
                ticks * 10_000_000
            }
        }
    }

    /// Peak resident set size of the child (`VmHWM`), in MB.
    pub fn rss_peak_mb(&self) -> f64 {
        std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("VmHWM:"))?
                    .split_whitespace()
                    .next()?
                    .parse::<f64>()
                    .ok()
            })
            .map_or(0.0, |kb| kb / 1024.0)
    }
}

impl Drop for Target {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The highest-numbered CPU this process may run on.
fn last_cpu() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let allowed = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    allowed.trim().rsplit([',', '-']).next()?.parse().ok()
}

/// 1-minute load average.
pub fn loadavg() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}
