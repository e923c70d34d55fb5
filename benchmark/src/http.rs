//! The benchmark's HTTP/1.1 client.
//!
//! It never sends `Connection: close`, reuses a connection if and only if
//! the response allows it, and reconnects otherwise. Against a server that
//! answers `Connection: close` every request pays a handshake; a keep-alive
//! server is measured without editing the benchmark.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Longest a single read or write may stall before the request counts as
/// timed out.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// A parsed response.
#[derive(Debug)]
pub struct Reply {
    pub status: u16,
    /// Header names lowercased.
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Reply {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

/// One sender's connection slot: at most one connection at a time.
pub struct Client {
    addr: SocketAddr,
    conn: Option<TcpStream>,
    /// Connections opened so far.
    pub opens: u64,
    /// Response bytes read so far, heads included.
    pub bytes_in: u64,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            conn: None,
            opens: 0,
            bytes_in: 0,
        }
    }

    fn connect(&mut self) -> std::io::Result<TcpStream> {
        let stream = TcpStream::connect_timeout(&self.addr, IO_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        self.opens += 1;
        Ok(stream)
    }

    /// Sends one request and reads the whole response. A reused connection
    /// the server has meanwhile closed is retried once on a fresh one.
    pub fn send(&mut self, request: &[u8]) -> std::io::Result<Reply> {
        if let Some(mut stream) = self.conn.take() {
            if let Ok(reply) = self.exchange(&mut stream, request) {
                return self.finish(stream, reply);
            }
        }
        let mut stream = self.connect()?;
        let reply = self.exchange(&mut stream, request)?;
        self.finish(stream, reply)
    }

    fn finish(&mut self, stream: TcpStream, reply: (Reply, bool)) -> std::io::Result<Reply> {
        let (reply, reusable) = reply;
        if reusable {
            self.conn = Some(stream);
        }
        Ok(reply)
    }

    fn exchange(
        &mut self,
        stream: &mut TcpStream,
        request: &[u8],
    ) -> std::io::Result<(Reply, bool)> {
        stream.write_all(request)?;
        let mut buf: Vec<u8> = Vec::with_capacity(32 * 1024);
        let mut chunk = [0u8; 16 * 1024];
        let head_end = loop {
            if let Some(pos) = find_head_end(&buf) {
                break pos;
            }
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed before the response head ended",
                ));
            }
            buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or_default();
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed status line")
            })?;
        let headers: Vec<(String, String)> = lines
            .filter_map(|l| l.split_once(':'))
            .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_owned()))
            .collect();
        let header = |name: &str| {
            headers
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.as_str())
        };
        let length: Option<usize> = header("content-length").and_then(|v| v.parse().ok());
        let mut body = buf.split_off(head_end + 4);
        match length {
            Some(len) => {
                while body.len() < len {
                    let n = stream.read(&mut chunk)?;
                    if n == 0 {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::UnexpectedEof,
                            "connection closed before the body ended",
                        ));
                    }
                    body.extend_from_slice(&chunk[..n]);
                }
                body.truncate(len);
            }
            None => {
                stream.read_to_end(&mut body)?;
            }
        }
        self.bytes_in += (head_end + 4 + body.len()) as u64;
        let reusable = length.is_some()
            && status_line.starts_with("HTTP/1.1")
            && !header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"));
        Ok((
            Reply {
                status,
                headers,
                body,
            },
            reusable,
        ))
    }
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// A bare `GET` outside any timed phase (health probe, metrics scrape).
pub fn get(addr: SocketAddr, target: &str) -> std::io::Result<Reply> {
    Client::new(addr).send(format!("GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A stub that serves `responses` requests per connection it accepts,
    /// with or without `Connection: close`, and counts connections.
    fn stub(close: bool, total: usize) -> (SocketAddr, std::thread::JoinHandle<usize>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let mut served = 0;
            let mut conns = 0;
            while served < total {
                let (mut s, _) = listener.accept().unwrap();
                conns += 1;
                loop {
                    let mut buf = [0u8; 4096];
                    let mut head = Vec::new();
                    while find_head_end(&head).is_none() {
                        let n = s.read(&mut buf).unwrap();
                        if n == 0 {
                            break;
                        }
                        head.extend_from_slice(&buf[..n]);
                    }
                    if find_head_end(&head).is_none() {
                        break;
                    }
                    let extra = if close { "Connection: close\r\n" } else { "" };
                    write!(s, "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n{extra}\r\nok").unwrap();
                    served += 1;
                    if close || served == total {
                        break;
                    }
                }
            }
            conns
        });
        (addr, handle)
    }

    #[test]
    fn reuses_a_connection_the_server_keeps_open() {
        let (addr, server) = stub(false, 5);
        let mut client = Client::new(addr);
        for _ in 0..5 {
            let reply = client.send(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
            assert_eq!((reply.status, reply.body.as_slice()), (200, &b"ok"[..]));
        }
        assert_eq!(client.opens, 1);
        assert_eq!(server.join().unwrap(), 1);
    }

    #[test]
    fn reconnects_when_the_server_says_close() {
        let (addr, server) = stub(true, 3);
        let mut client = Client::new(addr);
        for _ in 0..3 {
            assert!(client
                .send(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n")
                .unwrap()
                .ok());
        }
        assert_eq!(client.opens, 3);
        assert_eq!(server.join().unwrap(), 3);
    }
}
