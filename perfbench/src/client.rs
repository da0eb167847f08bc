//! The load generator's HTTP/1.1 client: keep-alive connections that are
//! rotated before the server's per-connection request cap, and reopened
//! once when the server closes an idle keep-alive connection.
//!
//! It is written here rather than borrowed from the program, so that a
//! change to the program's own client cannot move the measurements.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// The server's default `max_requests_per_conn`.
pub const SERVER_MAX_REQUESTS_PER_CONN: usize = 1024;

/// Requests sent on one connection before the client rotates it; the last
/// of them asks the server to close.
pub const ROTATE_AFTER: usize = 1000;
const _: () = assert!(ROTATE_AFTER < SERVER_MAX_REQUESTS_PER_CONN);

/// Socket deadline: far above any request of the workloads, so only a hung
/// server trips it.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// One decoded response.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// The body with any chunk framing removed.
    pub body: Vec<u8>,
    /// Headers, then trailers, in arrival order.
    pub fields: Vec<(String, String)>,
}

impl Response {
    /// First value of `name` among headers and trailers.
    pub fn field(&self, name: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// The bytes of one request as the client sends it.
pub fn encode_request(method: &str, path: &str, body: &[u8], close: bool) -> Vec<u8> {
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n",
        body.len()
    )
    .into_bytes();
    if close {
        out.extend_from_slice(b"Connection: close\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
    out
}

struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    sent: usize,
}

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        stream.set_nodelay(true)?;
        let reader = BufReader::with_capacity(64 * 1024, stream.try_clone()?);
        Ok(Conn {
            stream,
            reader,
            sent: 0,
        })
    }
}

/// Why an exchange failed.
#[derive(Debug)]
enum Failure {
    /// The connection was closed before any byte of the response arrived:
    /// the request may be retried on a fresh connection.
    ClosedBeforeResponse(io::Error),
    /// Anything else.
    Other(io::Error),
}

/// A client holding at most one keep-alive connection.
pub struct Client {
    addr: SocketAddr,
    conn: Option<Conn>,
    rotate_after: usize,
    /// Connections closed because they reached `rotate_after` requests.
    pub rotations: u64,
    /// Connections found closed by the server and reopened.
    pub reconnects: u64,
}

impl Client {
    /// A client of `addr` that rotates after [`ROTATE_AFTER`] requests.
    pub fn new(addr: SocketAddr) -> Client {
        Client::with_rotation(addr, ROTATE_AFTER)
    }

    /// A client of `addr` that rotates its connection after
    /// `rotate_after` requests.
    pub fn with_rotation(addr: SocketAddr, rotate_after: usize) -> Client {
        Client {
            addr,
            conn: None,
            rotate_after: rotate_after.max(1),
            rotations: 0,
            reconnects: 0,
        }
    }

    /// Drop the open connection, if any.
    pub fn close(&mut self) {
        self.conn = None;
    }

    /// `POST` `body` to `path` and read the response. A reused connection
    /// that the server already closed is reopened once and the request
    /// sent again; a failure after that is returned.
    pub fn post(&mut self, path: &str, body: &[u8]) -> io::Result<Response> {
        match self.exchange(path, body) {
            Ok(r) => Ok(r),
            Err(Failure::ClosedBeforeResponse(_)) => {
                self.reconnects += 1;
                self.exchange(path, body).map_err(|f| match f {
                    Failure::ClosedBeforeResponse(e) | Failure::Other(e) => e,
                })
            }
            Err(Failure::Other(e)) => Err(e),
        }
    }

    fn exchange(&mut self, path: &str, body: &[u8]) -> Result<Response, Failure> {
        if self.conn.is_none() {
            self.conn = Some(Conn::open(self.addr).map_err(Failure::Other)?);
        }
        let conn = self.conn.as_mut().expect("connection opened above");
        let reused = conn.sent > 0;
        conn.sent += 1;
        let last = conn.sent >= self.rotate_after;
        let request = encode_request("POST", path, body, last);
        let result = match conn.stream.write_all(&request) {
            Err(e) => Err((e, false)),
            Ok(()) => read_response(&mut conn.reader),
        };
        match result {
            Ok(resp) => {
                let server_closes = resp
                    .field("connection")
                    .is_some_and(|v| v.eq_ignore_ascii_case("close"));
                if last {
                    self.rotations += 1;
                    self.conn = None;
                } else if server_closes {
                    self.conn = None;
                }
                Ok(resp)
            }
            Err((e, got_any)) => {
                self.conn = None;
                if reused && !got_any && is_closed(&e) {
                    Err(Failure::ClosedBeforeResponse(e))
                } else {
                    Err(Failure::Other(e))
                }
            }
        }
    }
}

fn is_closed(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
    )
}

fn eof() -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed")
}

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

fn read_line(r: &mut impl BufRead, line: &mut String) -> io::Result<()> {
    line.clear();
    if r.read_line(line)? == 0 {
        return Err(eof());
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(())
}

fn read_fields(r: &mut impl BufRead, out: &mut Vec<(String, String)>) -> io::Result<()> {
    let mut line = String::new();
    loop {
        read_line(r, &mut line)?;
        if line.is_empty() {
            return Ok(());
        }
        let (name, value) = line.split_once(':').ok_or_else(|| bad("header line"))?;
        out.push((name.to_string(), value.trim().to_string()));
    }
}

/// Read one response. On error, also says whether any byte of it arrived.
pub fn read_response(r: &mut impl BufRead) -> Result<Response, (io::Error, bool)> {
    let mut line = String::new();
    read_line(r, &mut line).map_err(|e| (e, false))?;
    let more = |e| (e, true);
    let status = line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| more(bad("status line")))?;
    let mut fields = Vec::new();
    read_fields(r, &mut fields).map_err(more)?;
    let field = |name: &str| {
        fields
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.clone())
    };
    let mut body = Vec::new();
    if field("transfer-encoding").is_some_and(|v| v.eq_ignore_ascii_case("chunked")) {
        loop {
            read_line(r, &mut line).map_err(more)?;
            let size =
                usize::from_str_radix(line.trim(), 16).map_err(|_| more(bad("chunk size")))?;
            if size == 0 {
                read_fields(r, &mut fields).map_err(more)?;
                break;
            }
            let start = body.len();
            body.resize(start + size, 0);
            r.read_exact(&mut body[start..]).map_err(more)?;
            let mut crlf = [0u8; 2];
            r.read_exact(&mut crlf).map_err(more)?;
        }
    } else if let Some(n) = field("content-length") {
        let n: usize = n.parse().map_err(|_| more(bad("content-length")))?;
        body.resize(n, 0);
        r.read_exact(&mut body).map_err(more)?;
    }
    Ok(Response {
        status,
        body,
        fields,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A server answering `200 ok` with a counter, closing each connection
    /// after `cap` requests without saying so (as `docql-serve` does at
    /// `max_requests_per_conn`). Serves `total` requests, then returns the
    /// number of connections it accepted.
    fn capped_server(cap: usize, total: usize) -> (SocketAddr, std::thread::JoinHandle<usize>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let handle = std::thread::spawn(move || {
            let mut served = 0;
            let mut conns = 0;
            while served < total {
                let (stream, _) = listener.accept().expect("accept");
                conns += 1;
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                let mut out = stream;
                for _ in 0..cap {
                    let req = docql_serve::read_request(
                        &mut reader,
                        &docql_serve::ParseLimits::default(),
                    );
                    let Ok(req) = req else { break };
                    served += 1;
                    let body = format!("{served}");
                    let close = !req.keep_alive();
                    docql_serve::write_response(&mut out, 200, &[], body.as_bytes(), close)
                        .expect("write");
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
    fn rotates_before_the_cap() {
        let (addr, server) = capped_server(5, 12);
        let mut client = Client::with_rotation(addr, 4);
        for i in 1..=12 {
            let resp = client.post("/x", b"q").expect("request");
            assert_eq!(resp.body, i.to_string().into_bytes());
        }
        client.close();
        assert_eq!(client.rotations, 3);
        assert_eq!(client.reconnects, 0);
        assert_eq!(server.join().expect("server"), 3);
    }

    #[test]
    fn reconnects_after_a_server_close() {
        let (addr, server) = capped_server(3, 7);
        let mut client = Client::with_rotation(addr, 100);
        for i in 1..=7 {
            let resp = client.post("/x", b"q").expect("request");
            assert_eq!(resp.body, i.to_string().into_bytes());
        }
        client.close();
        assert_eq!(client.rotations, 0);
        assert_eq!(client.reconnects, 2);
        assert_eq!(server.join().expect("server"), 3);
    }

    #[test]
    fn decodes_chunked_bodies_and_trailers() {
        let mut wire = Vec::new();
        {
            let mut w =
                docql_serve::ChunkedWriter::begin(&mut wire, 200, &[], &["X-Rows"]).expect("begin");
            w.chunk(b"a | b\n").expect("chunk");
            w.chunk(b"1 | 2\n").expect("chunk");
            w.finish(&[("X-Rows", "1".to_string())]).expect("finish");
        }
        let resp = read_response(&mut io::Cursor::new(wire)).expect("response");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"a | b\n1 | 2\n");
        assert_eq!(resp.field("x-rows"), Some("1"));
        let (e, got_any) = read_response(&mut io::Cursor::new(Vec::new())).expect_err("eof");
        assert_eq!((e.kind(), got_any), (io::ErrorKind::UnexpectedEof, false));
    }

    #[test]
    fn request_bytes_parse_back() {
        let bytes = encode_request("POST", "/query", b"select 1", true);
        let req = docql_serve::read_request(
            &mut io::Cursor::new(bytes),
            &docql_serve::ParseLimits::default(),
        )
        .expect("parse");
        assert_eq!(req.body, b"select 1");
        assert!(!req.keep_alive());
    }
}
