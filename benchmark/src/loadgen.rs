//! Open-loop and closed-loop load generation over [`Client`] connections.
//!
//! Open loop: requests go out at their due times whether or not earlier
//! ones have completed, as independent users would send them, and every
//! latency is timed from the due time, so a stall is charged to each request
//! that fell due during it. Closed loop: each connection sends its next
//! request when the previous one completes, which gives capacity.

use crate::http::{Client, Reply};
use crate::workloads::{Req, Route};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// 2xx.
    Ok,
    /// Any other status.
    Status(u16),
    /// Connection refused or reset.
    Refused,
    TimedOut,
}

/// One completed (or failed) request.
#[derive(Debug)]
pub struct Sample {
    /// Index into the phase's request list.
    pub index: usize,
    pub route: Route,
    /// Open loop: due time to last body byte. Closed loop: send to last byte.
    pub latency_ns: u64,
    pub outcome: Outcome,
    /// A stale response that does not say so: `Warning: 110` without
    /// `Cache-Status: stale`, or `Cache-Status: degraded` without `Warning`.
    pub unlabelled_stale: bool,
    /// The body, for requests the caller asked to keep.
    pub body: Option<Vec<u8>>,
    /// Writer only: `/bulkload` due time to the first `/search` response
    /// that returns the new page.
    pub visible_ns: Option<u64>,
}

/// Everything one phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    pub samples: Vec<Sample>,
    pub wall: Duration,
    pub conn_opens: u64,
    pub bytes_in: u64,
    /// Per request, how long after the later of its due time and the moment
    /// its sender became free the send began: the generator's own lateness.
    pub lateness_ns: Vec<u64>,
    /// Per request, send start minus due time: lateness plus the wait for
    /// one of the `nproc` connections.
    pub send_delay_ns: Vec<u64>,
}

impl Phase {
    fn absorb(&mut self, other: Phase) {
        self.samples.extend(other.samples);
        self.conn_opens += other.conn_opens;
        self.bytes_in += other.bytes_in;
        self.lateness_ns.extend(other.lateness_ns);
        self.send_delay_ns.extend(other.send_delay_ns);
    }

    pub fn ok_count(&self) -> usize {
        self.samples
            .iter()
            .filter(|s| s.outcome == Outcome::Ok)
            .count()
    }
}

/// Sleeps to just short of `due`, then spins: `thread::sleep` alone
/// overshoots by the timer slack, which at hundreds of requests a second
/// would be a visible share of the latency charged from the due time.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(150);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

fn classify(result: &std::io::Result<Reply>) -> Outcome {
    match result {
        Ok(r) if r.ok() => Outcome::Ok,
        Ok(r) => Outcome::Status(r.status),
        Err(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
            ) =>
        {
            Outcome::TimedOut
        }
        Err(_) => Outcome::Refused,
    }
}

fn sample(
    index: usize,
    req: &Req,
    from: Instant,
    result: std::io::Result<Reply>,
    keep: bool,
) -> Sample {
    let latency_ns = from.elapsed().as_nanos() as u64;
    let outcome = classify(&result);
    let reply = result.ok();
    let unlabelled_stale =
        reply
            .as_ref()
            .is_some_and(|r| match (r.header("cache-status"), r.header("warning")) {
                (Some("degraded"), None) => true,
                (status, Some(_)) => status != Some("stale"),
                _ => false,
            });
    Sample {
        index,
        route: req.route,
        latency_ns,
        outcome,
        unlabelled_stale,
        body: reply.filter(|_| keep).map(|r| r.body),
        visible_ns: None,
    }
}

/// Runs `body` on `threads` senders, each with a connection slot and a
/// phase of its own, and merges what they measured.
fn on_senders(
    addr: SocketAddr,
    threads: usize,
    body: impl Fn(&mut Client, &mut Phase) + Sync,
) -> Phase {
    let mut phase = Phase::default();
    std::thread::scope(|scope| {
        let senders: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = Client::new(addr);
                    let mut mine = Phase::default();
                    body(&mut client, &mut mine);
                    mine.conn_opens = client.opens;
                    mine.bytes_in = client.bytes_in;
                    mine
                })
            })
            .collect();
        for s in senders {
            phase.absorb(s.join().expect("sender thread panicked"));
        }
    });
    phase
}

/// Runs `reqs` on their due times (offsets from `t0`) over `threads`
/// senders, each owning at most one connection at a time. A free sender
/// takes the next request in due order. `keep[i]` keeps the body of
/// request `i`.
pub fn open_loop(
    addr: SocketAddr,
    reqs: &[Req],
    threads: usize,
    t0: Instant,
    keep: &[bool],
) -> Phase {
    let next = AtomicUsize::new(0);
    let mut phase = on_senders(addr, threads, |client, mine| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(req) = reqs.get(i) else { break };
        let due = t0 + Duration::from_nanos(req.due_ns);
        let free_at = Instant::now();
        wait_until(due);
        let start = Instant::now();
        mine.lateness_ns
            .push((start - due.max(free_at)).as_nanos() as u64);
        mine.send_delay_ns.push((start - due).as_nanos() as u64);
        let result = client.send(&req.wire_bytes());
        mine.samples.push(sample(i, req, due, result, keep[i]));
    });
    phase.wall = t0.elapsed();
    phase.samples.sort_by_key(|s| s.index);
    phase
}

/// Runs `reqs` back to back on `threads` connections until `limit` has
/// passed or the list ends.
pub fn closed_loop(addr: SocketAddr, reqs: &[Req], threads: usize, limit: Duration) -> Phase {
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    let mut phase = on_senders(addr, threads, |client, mine| {
        while t0.elapsed() < limit {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(req) = reqs.get(i) else { break };
            let start = Instant::now();
            let result = client.send(&req.wire_bytes());
            mine.samples.push(sample(i, req, start, result, false));
        }
    });
    phase.wall = t0.elapsed();
    phase
}

/// The writer of `ingest_mixed`, on its own connection and schedule
/// (offsets from `t0`) until `stop` is set. After each `/bulkload` it polls
/// `/search?q=<marker>` until the new page is returned.
pub fn writer(addr: SocketAddr, ops: &[Req], t0: Instant, stop: &AtomicBool) -> Phase {
    let mut client = Client::new(addr);
    let mut phase = Phase::default();
    for (i, op) in ops.iter().enumerate() {
        let due = t0 + Duration::from_nanos(op.due_ns);
        // Sleep in slices so a stop request is seen within milliseconds.
        while Instant::now() < due && !stop.load(Ordering::SeqCst) {
            wait_until(due.min(Instant::now() + Duration::from_millis(5)));
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let result = client.send(&op.wire_bytes());
        let mut s = sample(i, op, due, result, false);
        if let (Outcome::Ok, Some((title, marker))) = (s.outcome, op.new_pages.last()) {
            let probe = format!("GET /search?q={marker}&limit=10 HTTP/1.1\r\nHost: bench\r\n\r\n");
            let needle = format!("\"title\":\"{title}\"");
            let give_up = Instant::now() + Duration::from_secs(5);
            while Instant::now() < give_up {
                let seen = client
                    .send(probe.as_bytes())
                    .is_ok_and(|r| r.ok() && String::from_utf8_lossy(&r.body).contains(&needle));
                if seen {
                    s.visible_ns = Some(due.elapsed().as_nanos() as u64);
                    break;
                }
            }
        }
        phase.samples.push(s);
    }
    phase.conn_opens = client.opens;
    phase.bytes_in = client.bytes_in;
    phase
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpListener;

    fn reqs_at(rate: f64, secs: f64) -> Vec<Req> {
        (0..(rate * secs) as usize)
            .map(|i| Req {
                due_ns: (i as f64 / rate * 1e9) as u64,
                route: Route::Page,
                method: "GET",
                target: "/x".into(),
                body: Vec::new(),
                form: None,
                new_pages: Vec::new(),
            })
            .collect()
    }

    /// Answers each connection with `Connection: close`; stalls once, for
    /// `stall`, starting `stall_at` after `t0`.
    fn stalling_stub(t0: Instant, stall_at: Duration, stall: Duration, total: usize) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let mut stalled = false;
            for _ in 0..total {
                let (mut s, _) = listener.accept().unwrap();
                let mut buf = [0u8; 1024];
                let _ = s.read(&mut buf);
                if !stalled && t0.elapsed() >= stall_at {
                    stalled = true;
                    std::thread::sleep(stall);
                }
                let _ = write!(
                    s,
                    "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok"
                );
            }
        });
        addr
    }

    /// Latency counts from the due time: the requests that fall due while
    /// the server stalls each report at least the stall time that remained
    /// at their due time, not just their own service time.
    #[test]
    fn a_stall_is_charged_to_every_request_due_during_it() {
        let rate = 100.0;
        let reqs = reqs_at(rate, 1.0);
        let stall_at = Duration::from_millis(300);
        let stall = Duration::from_millis(200);
        let t0 = Instant::now() + Duration::from_millis(20);
        let addr = stalling_stub(t0, stall_at, stall, reqs.len());
        let keep = vec![false; reqs.len()];
        // One sender: the stalled request holds the only connection.
        let phase = open_loop(addr, &reqs, 1, t0, &keep);
        assert_eq!(phase.ok_count(), reqs.len());

        // The stall begins with the first request the stub reads after
        // `stall_at`; requests due in the following 200 ms queue behind it.
        let first = phase
            .samples
            .iter()
            .position(|s| s.latency_ns >= stall.as_nanos() as u64)
            .expect("one request met the stall");
        let stall_start_ns = reqs[first].due_ns;
        let during: Vec<&Sample> = phase
            .samples
            .iter()
            .filter(|s| {
                let due = reqs[s.index].due_ns;
                due >= stall_start_ns && due < stall_start_ns + stall.as_nanos() as u64
            })
            .collect();
        assert!(
            (18..=22).contains(&during.len()),
            "{} requests were due during the stall",
            during.len()
        );
        for s in during {
            let into_stall = reqs[s.index].due_ns - stall_start_ns;
            let remaining = stall.as_nanos() as u64 - into_stall;
            assert!(
                s.latency_ns >= remaining,
                "request {} due {} ms into the stall reports {} ms",
                s.index,
                into_stall / 1_000_000,
                s.latency_ns / 1_000_000
            );
        }
        // Before the stall nothing waits.
        assert!(phase.samples[..first]
            .iter()
            .all(|s| s.latency_ns < 50_000_000));
        // The backlog shows as send delay, not as generator lateness.
        let max = |v: &[u64]| v.iter().copied().max().unwrap();
        assert!(max(&phase.send_delay_ns) >= 150_000_000);
        assert!(max(&phase.lateness_ns) < 20_000_000);
    }

    #[test]
    fn closed_loop_stops_at_the_limit() {
        let reqs = reqs_at(100_000.0, 1.0);
        let addr = stalling_stub(
            Instant::now(),
            Duration::from_secs(3600),
            Duration::ZERO,
            reqs.len(),
        );
        let phase = closed_loop(addr, &reqs, 2, Duration::from_millis(50));
        assert!(phase.ok_count() > 0 && phase.ok_count() < reqs.len());
        assert_eq!(phase.conn_opens as usize, phase.samples.len());
    }
}
