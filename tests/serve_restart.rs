//! `sensormeta serve` keeps what it acknowledges: every page of a 10-page
//! `/bulkload` (one WAL transaction) is served again after the server is
//! killed with SIGKILL and restarted on the same snapshot, and `serve`
//! refuses a snapshot path that holds no repository instead of serving an
//! empty one.
//!
//! Drives the built binary as a child process over real sockets.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_sensormeta");
const MARKER: &str = "zqxrestartmarker";
const TITLE: &str = "Deployment:restart_probe";

/// A scratch directory removed when the test ends, pass or fail.
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("sensormeta-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A running `sensormeta serve`, killed (SIGKILL) on drop. Its stdout pipe
/// stays open for the server's lifetime so a late print cannot fail.
struct Served {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Served {
    fn start(snapshot: &Path) -> Served {
        let mut child = Command::new(BIN)
            .args(["serve", "--addr", "127.0.0.1:0", "--snapshot"])
            .arg(snapshot)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn serve");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let addr = loop {
            let mut line = String::new();
            let n = stdout.read_line(&mut line).expect("read serve output");
            assert!(n > 0, "serve exited before listening");
            if let Some(rest) = line.trim().strip_prefix("serving on http://") {
                break rest.parse().expect("listen address");
            }
        };
        Served {
            child,
            _stdout: stdout,
            addr,
        }
    }

    /// Sends one request on a fresh connection and returns status and body.
    fn request(&self, method: &str, path: &str, body: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(self.addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        write!(
            stream,
            "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Type: application/jsonl\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .expect("send request");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read response");
        let (head, body) = raw.split_once("\r\n\r\n").unwrap_or((&raw, ""));
        let status = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("no status line in {head:?}"));
        (status, body.to_owned())
    }

    /// SIGKILL: no shutdown path runs, so only what reached the disk counts.
    fn kill(mut self) {
        self.child.kill().expect("kill serve");
        self.child.wait().expect("reap serve");
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn run_ok(args: &[&str]) {
    let out = Command::new(BIN)
        .args(args)
        .output()
        .expect("run sensormeta");
    assert!(
        out.status.success(),
        "sensormeta {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn acknowledged_bulkload_survives_kill_and_restart() {
    let dir = TempDir::new("restart");
    let corpus = dir.0.join("corpus.jsonl");
    let snapshot = dir.0.join("repo.snap");
    let (corpus_s, snapshot_s) = (corpus.to_str().unwrap(), snapshot.to_str().unwrap());
    run_ok(&[
        "generate",
        "--out",
        corpus_s,
        "--institutions",
        "1",
        "--projects",
        "1",
        "--sites",
        "1",
        "--deployments",
        "2",
    ]);
    run_ok(&["load", "--snapshot", snapshot_s, corpus_s]);

    let server = Served::start(&snapshot);
    // The probe and nine more pages, acknowledged together.
    let others: Vec<String> = (1..10).map(|i| format!("Deployment:restart_{i}")).collect();
    let mut load = format!(
        "{{\"title\":\"{TITLE}\",\"namespace\":\"Deployment\",\
         \"body\":\"probe {MARKER} sensor\",\"annotations\":[[\"measuresQuantity\",\"{MARKER}\"]]}}\n"
    );
    for title in &others {
        load.push_str(&format!(
            "{{\"title\":\"{title}\",\"namespace\":\"Deployment\",\"body\":\"{title} body\"}}\n"
        ));
    }
    let (status, body) = server.request("POST", "/bulkload", &load);
    assert_eq!(status, 200, "bulkload: {body}");
    assert!(body.contains("\"created\":10"), "bulkload report: {body}");
    let (status, _) = server.request("GET", &format!("/page/{TITLE}"), "");
    assert_eq!(status, 200, "served before the restart");
    server.kill();

    let server = Served::start(&snapshot);
    let (status, body) = server.request("GET", &format!("/page/{TITLE}"), "");
    assert_eq!(status, 200, "page lost at restart: {body}");
    assert!(body.contains(MARKER), "page body after restart: {body}");
    for title in &others {
        let (status, body) = server.request("GET", &format!("/page/{title}"), "");
        assert_eq!(status, 200, "{title} lost at restart: {body}");
        assert!(
            body.contains(&format!("{title} body")),
            "{title} after restart: {body}"
        );
    }
    let (status, body) = server.request("GET", &format!("/search?q={MARKER}"), "");
    assert_eq!(status, 200, "search after restart: {body}");
    assert!(body.contains(TITLE), "search misses the page: {body}");
}

#[test]
fn serve_refuses_a_missing_snapshot() {
    let dir = TempDir::new("missing");
    let snapshot = dir.0.join("absent.snap");
    let mut child = Command::new(BIN)
        .args(["serve", "--addr", "127.0.0.1:0", "--snapshot"])
        .arg(&snapshot)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let started = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll serve") {
            break status;
        }
        if started.elapsed() > Duration::from_secs(60) {
            let _ = child.kill();
            let _ = child.wait();
            panic!("serve kept running on a missing snapshot");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    assert!(!status.success(), "serve exited 0 on a missing snapshot");
    assert!(stderr.contains("no database at"), "error: {stderr}");
    assert!(!snapshot.exists(), "serve created a snapshot");
    assert!(
        !dir.0.join("absent.snap.wal").exists(),
        "serve created a log"
    );
}
