//! TCP accept loop with a fixed worker pool, a bounded accept backlog,
//! keep-alive connections that never pin a worker, and panic isolation per
//! request.

use crate::app::{parse_opt_ms, retry_after_secs, App};
use crate::http::{is_timeout, read_request_from, HttpError, Response};
use crossbeam::channel;
use sensormeta_obs as obs;
use std::io::{BufRead, BufReader};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// A running HTTP server.
pub struct Server {
    /// Bound local address (useful with port 0).
    pub addr: std::net::SocketAddr,
    pool: Arc<Pool>,
    accept_thread: Option<thread::JoinHandle<()>>,
}

/// Serving knobs for [`serve_with`]. [`ServeConfig::from_env`] reads the
/// `SENSORMETA_*` variables; tests pass explicit values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Handler threads (always at least 1): the bound on concurrently
    /// executing requests.
    pub workers: usize,
    /// Wall-clock bound on reading one whole request, from its first byte
    /// on a kept-alive connection; `None` disables it and leaves only the
    /// per-read socket timeout.
    pub read_deadline: Option<Duration>,
    /// Max connections queued for workers before the accept loop sheds
    /// with an immediate 503 (`0` = unbounded).
    pub backlog: usize,
}

/// Handler threads of `sensormeta serve` unless `--workers` says otherwise.
pub const DEFAULT_WORKERS: usize = 8;

/// Default wall-clock bound on reading one request (`SENSORMETA_READ_DEADLINE_MS`).
const DEFAULT_READ_DEADLINE: Duration = Duration::from_millis(5000);

/// Default accept-backlog bound (`SENSORMETA_ACCEPT_BACKLOG`).
const DEFAULT_ACCEPT_BACKLOG: usize = 1024;

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: DEFAULT_WORKERS,
            read_deadline: Some(DEFAULT_READ_DEADLINE),
            backlog: DEFAULT_ACCEPT_BACKLOG,
        }
    }
}

impl ServeConfig {
    /// Reads `SENSORMETA_READ_DEADLINE_MS` (`0` disables) and
    /// `SENSORMETA_ACCEPT_BACKLOG` (`0` = unbounded); unset or unparsable
    /// values fall back to the defaults.
    pub fn from_env() -> ServeConfig {
        ServeConfig {
            workers: DEFAULT_WORKERS,
            read_deadline: parse_opt_ms(
                std::env::var("SENSORMETA_READ_DEADLINE_MS").ok().as_deref(),
                DEFAULT_READ_DEADLINE,
            ),
            backlog: parse_backlog(std::env::var("SENSORMETA_ACCEPT_BACKLOG").ok().as_deref()),
        }
    }
}

fn parse_backlog(raw: Option<&str>) -> usize {
    match raw.map(|s| s.trim().parse::<usize>()) {
        Some(Ok(n)) => n,
        Some(Err(_)) | None => DEFAULT_ACCEPT_BACKLOG,
    }
}

/// What the accept loop and the workers share.
#[derive(Default)]
struct Pool {
    /// Connections accepted but not yet picked up by a worker. The channel
    /// shim cannot block producers, so the backlog bound is this explicit
    /// gauge: accept increments, a worker decrements on pickup.
    queued: AtomicUsize,
    /// Set by [`Server::stop`].
    stopping: AtomicBool,
}

impl Pool {
    /// An idle kept-alive connection should give its worker back: a fresh
    /// connection is waiting for one, or the server is stopping.
    fn wants_worker(&self) -> bool {
        self.queued.load(Ordering::Acquire) > 0 || self.stopping.load(Ordering::Acquire)
    }
}

/// Starts the server on `addr` (e.g. `127.0.0.1:0`) with `workers` handler
/// threads and the remaining knobs from the environment. Returns once the
/// socket is bound and accepting.
pub fn serve(app: App, addr: &str, workers: usize) -> std::io::Result<Server> {
    let cfg = ServeConfig {
        workers,
        ..ServeConfig::from_env()
    };
    serve_with(app, addr, cfg)
}

/// [`serve`] with explicit knobs.
pub fn serve_with(app: App, addr: &str, cfg: ServeConfig) -> std::io::Result<Server> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let app = Arc::new(app);
    let (tx, rx) = channel::unbounded::<TcpStream>();
    let pool = Arc::new(Pool::default());
    for _ in 0..cfg.workers.max(1) {
        let rx = rx.clone();
        let app = Arc::clone(&app);
        let pool = Arc::clone(&pool);
        let read_deadline = cfg.read_deadline;
        thread::spawn(move || {
            while let Ok(stream) = rx.recv() {
                pool.queued.fetch_sub(1, Ordering::AcqRel);
                handle_connection(&app, &stream, read_deadline, &pool);
            }
        });
    }
    let backlog = cfg.backlog;
    let accept_pool = Arc::clone(&pool);
    let accept_thread = thread::spawn(move || {
        let pool = accept_pool;
        let connections = obs::counter("http_connections_total");
        // Transient accept errors (signal interruptions, aborted handshakes,
        // transient resource pressure) are retried with exponential backoff
        // instead of killing the listener.
        let mut backoff_ms: u64 = 1;
        loop {
            if pool.stopping.load(Ordering::Acquire) {
                break;
            }
            match listener.accept() {
                Ok((mut s, _)) => {
                    backoff_ms = 1;
                    connections.inc();
                    if backlog != 0 && pool.queued.load(Ordering::Acquire) >= backlog {
                        // Shed at the door: queueing behind saturated
                        // workers would just time the client out later.
                        obs::counter("http_accept_shed_total").inc();
                        let _ = s.set_write_timeout(Some(Duration::from_secs(1)));
                        let _ = Response::error(503, "server backlog full")
                            .with_header("Retry-After", retry_after_secs().to_string())
                            .with_header("Connection", "close")
                            .write_to(&mut s);
                        let _ = s.shutdown(std::net::Shutdown::Both);
                    } else {
                        pool.queued.fetch_add(1, Ordering::AcqRel);
                        let _ = tx.send(s);
                    }
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock
                            | std::io::ErrorKind::Interrupted
                            | std::io::ErrorKind::TimedOut
                            | std::io::ErrorKind::ConnectionAborted
                            | std::io::ErrorKind::ConnectionReset
                    ) =>
                {
                    thread::sleep(std::time::Duration::from_millis(backoff_ms));
                    backoff_ms = (backoff_ms * 2).min(100);
                }
                Err(_) => break,
            }
        }
    });
    Ok(Server {
        addr: local,
        pool,
        accept_thread: Some(accept_thread),
    })
}

/// Per-read socket timeout: bounds each individual stall. The overall
/// read deadline bounds the sum (slow-loris protection).
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Between requests a worker waits for the next one's first byte in
/// slices this long, and after each decides whether to give the
/// connection up.
const IDLE_POLL: Duration = Duration::from_millis(20);

/// A kept-alive connection idle this long is closed.
const IDLE_TIMEOUT: Duration = Duration::from_secs(5);

/// Requests served on one connection; the last one's response closes it.
const MAX_REQUESTS_PER_CONNECTION: usize = 1000;

/// Serves requests on one connection until it closes. One reader lives
/// for the whole connection, so pipelined requests are kept. The
/// connection stays open after a response only when the client allows it
/// (HTTP/1.1, no `Connection: close`), the request parsed and the request
/// cap is not reached; every other response carries `Connection: close`.
fn handle_connection(app: &App, stream: &TcpStream, read_deadline: Option<Duration>, pool: &Pool) {
    // Cap the per-read stall by the overall read budget so one silent
    // client can't hold the thread for a full IO_TIMEOUT past its deadline.
    let per_read = read_deadline.map_or(IO_TIMEOUT, |d| {
        d.min(IO_TIMEOUT).max(Duration::from_millis(1))
    });
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    // A kept-alive response must not wait for the client's delayed ACK.
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream);
    let mut writer = stream;
    for served in 1..=MAX_REQUESTS_PER_CONNECTION {
        // The first request is read as soon as the connection is picked
        // up; a later one's deadline starts at its first byte.
        if served > 1 && !await_request(&mut reader, pool) {
            break;
        }
        let _ = stream.set_read_timeout(Some(per_read));
        let deadline = read_deadline.map(|d| Instant::now() + d);
        let (response, client_keeps) = match read_request_from(&mut reader, deadline) {
            // A handler panic (a bug, or an injected chaos panic) must cost
            // exactly one 500, not a worker thread.
            Ok((req, keep)) => match catch_unwind(AssertUnwindSafe(|| app.handle(&req))) {
                Ok(resp) => (resp, keep),
                Err(_) => {
                    obs::counter("http_handler_panics_total").inc();
                    (Response::error(500, "internal server error"), keep)
                }
            },
            Err(HttpError::TooLarge) => (Response::error(413, "payload too large"), false),
            Err(HttpError::HeaderTooLarge) => (
                Response::error(431, "request line or headers too large"),
                false,
            ),
            Err(HttpError::Timeout) => (Response::error(408, "request timed out"), false),
            Err(e) => (Response::error(400, e.to_string()), false),
        };
        let keep = client_keeps && served < MAX_REQUESTS_PER_CONNECTION;
        let response = if keep {
            response
        } else {
            response.with_header("Connection", "close")
        };
        if response.write_to(&mut writer).is_err() || !keep {
            break;
        }
    }
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// Waits for the first byte of the next request on a kept-alive
/// connection. Returns `false` when the connection should close instead:
/// the client closed it, it sat idle for [`IDLE_TIMEOUT`], or
/// [`Pool::wants_worker`]. No byte of a request has been read then, so
/// nothing is lost; an HTTP/1.1 client retries on a fresh connection.
fn await_request(reader: &mut BufReader<&TcpStream>, pool: &Pool) -> bool {
    if !reader.buffer().is_empty() {
        return true;
    }
    let _ = reader.get_ref().set_read_timeout(Some(IDLE_POLL));
    let idle_since = Instant::now();
    loop {
        match reader.fill_buf() {
            Ok(bytes) => return !bytes.is_empty(),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => {
                if pool.wants_worker() || idle_since.elapsed() >= IDLE_TIMEOUT {
                    return false;
                }
            }
            Err(_) => return false,
        }
    }
}

impl Server {
    /// Signals shutdown: the accept loop exits on the next connection and
    /// kept-alive connections close at their next idle poll.
    pub fn stop(mut self) {
        self.pool.stopping.store(true, Ordering::Release);
        // Poke the listener so `accept()` returns once more.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knob_parsing() {
        let default = DEFAULT_READ_DEADLINE;
        assert_eq!(parse_opt_ms(None, default), Some(default));
        assert_eq!(
            parse_opt_ms(Some("250"), default),
            Some(Duration::from_millis(250))
        );
        assert_eq!(
            parse_opt_ms(Some("750"), default),
            Some(Duration::from_millis(750))
        );
        assert_eq!(parse_opt_ms(Some("0"), default), None, "0 disables");
        assert_eq!(parse_opt_ms(Some("nope"), default), Some(default));
        assert_eq!(parse_backlog(None), DEFAULT_ACCEPT_BACKLOG);
        assert_eq!(parse_backlog(Some("8")), 8);
        assert_eq!(parse_backlog(Some("0")), 0, "0 means unbounded");
        assert_eq!(parse_backlog(Some("many")), DEFAULT_ACCEPT_BACKLOG);
    }
}
