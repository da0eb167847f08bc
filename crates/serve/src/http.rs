//! A deliberately small HTTP/1.1 wire layer: a bounded request parser and
//! response writers (fixed-length, which the server uses for every
//! response, and chunked-with-trailers).
//!
//! The parser is written for hostile input. Every byte read is charged
//! against a hard limit ([`ParseLimits`]), so a peer can make us hold at
//! most `max_head_bytes + max_body_bytes` for a connection no matter what
//! it sends; anything over a limit or outside the grammar becomes a typed
//! [`HttpError`] that maps onto one status code ([`HttpError::status`]) —
//! never a panic, never unbounded buffering. Reads are expected to run
//! over a socket with an OS-level read timeout, which surfaces here as
//! [`HttpError::Timeout`] (the slow-loris path).

use std::io::{self, Read, Write};

/// Hard ceilings on what the parser will buffer for one request.
#[derive(Debug, Clone)]
pub struct ParseLimits {
    /// Request line + all header bytes (including separators).
    pub max_head_bytes: usize,
    /// Number of header lines.
    pub max_headers: usize,
    /// Declared `Content-Length` bodies above this are refused unread.
    pub max_body_bytes: usize,
}

impl Default for ParseLimits {
    fn default() -> ParseLimits {
        ParseLimits {
            max_head_bytes: 8 * 1024,
            max_headers: 64,
            max_body_bytes: 1024 * 1024,
        }
    }
}

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// The method token, as sent (e.g. `GET`).
    pub method: String,
    /// The request target path, query string stripped.
    pub path: String,
    /// `HTTP/1.0` or `HTTP/1.1`.
    pub version: String,
    /// Header name/value pairs in arrival order, names as sent.
    pub headers: Vec<(String, String)>,
    /// The body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of `name`, matched case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Does the peer want the connection kept open after this exchange?
    pub fn keep_alive(&self) -> bool {
        match self.header("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => false,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
            _ => self.version == "HTTP/1.1",
        }
    }
}

/// Everything that can go wrong reading one request.
#[derive(Debug)]
pub enum HttpError {
    /// Grammar violation (bad request line, header without `:`, bad
    /// `Content-Length`, unsupported transfer coding, non-HTTP version).
    Malformed(&'static str),
    /// Request line + headers exceeded [`ParseLimits::max_head_bytes`] or
    /// [`ParseLimits::max_headers`].
    HeadersTooLarge,
    /// Declared body exceeds [`ParseLimits::max_body_bytes`].
    BodyTooLarge,
    /// The socket's read deadline fired mid-request (slow loris).
    Timeout,
    /// The peer went away: clean EOF before any byte of a request, EOF
    /// mid-request, or a connection-level I/O error. Nothing to answer.
    Closed,
}

impl HttpError {
    /// The status code this error is answered with, or `None` when the
    /// peer is gone and no response can be delivered.
    pub fn status(&self) -> Option<u16> {
        match self {
            HttpError::Malformed(_) => Some(400),
            HttpError::HeadersTooLarge => Some(431),
            HttpError::BodyTooLarge => Some(413),
            HttpError::Timeout => Some(408),
            HttpError::Closed => None,
        }
    }

    /// Short human text for the response body.
    pub fn message(&self) -> String {
        match self {
            HttpError::Malformed(why) => format!("malformed request: {why}"),
            HttpError::HeadersTooLarge => "request head too large".to_string(),
            HttpError::BodyTooLarge => "request body too large".to_string(),
            HttpError::Timeout => "timed out reading request".to_string(),
            HttpError::Closed => "connection closed".to_string(),
        }
    }
}

fn io_error(e: io::Error, got_any: bool) -> HttpError {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => {
            // A fresh keep-alive connection idling out is a clean close;
            // a deadline firing mid-request is the slow-loris signature.
            if got_any {
                HttpError::Timeout
            } else {
                HttpError::Closed
            }
        }
        _ => HttpError::Closed,
    }
}

/// Read one request from `r`, enforcing `limits` as the bytes arrive.
///
/// `Err(HttpError::Closed)` covers both the benign case (peer closed an
/// idle keep-alive connection) and mid-request disconnects; either way
/// there is no one left to answer. `r` should be a buffered reader over a
/// socket with a read timeout set.
pub fn read_request(r: &mut impl Read, limits: &ParseLimits) -> Result<Request, HttpError> {
    // Head: accumulate until CRLFCRLF (or LFLF), bounded.
    let mut head = Vec::with_capacity(256);
    let mut byte = [0u8; 1];
    loop {
        match r.read(&mut byte) {
            Ok(0) => return Err(HttpError::Closed),
            Ok(_) => head.push(byte[0]),
            Err(e) => return Err(io_error(e, !head.is_empty())),
        }
        if head.ends_with(b"\r\n\r\n") || head.ends_with(b"\n\n") {
            break;
        }
        if head.len() > limits.max_head_bytes {
            return Err(HttpError::HeadersTooLarge);
        }
    }

    let head = std::str::from_utf8(&head).map_err(|_| HttpError::Malformed("head not UTF-8"))?;
    let mut lines = head.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(HttpError::Malformed("request line")),
    };
    if !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(HttpError::Malformed("method token"));
    }
    if !(version == "HTTP/1.1" || version == "HTTP/1.0") {
        return Err(HttpError::Malformed("http version"));
    }

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue; // the blank terminator line
        }
        if headers.len() >= limits.max_headers {
            return Err(HttpError::HeadersTooLarge);
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(HttpError::Malformed("header without colon"))?;
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::Malformed("header name"));
        }
        headers.push((name.to_string(), value.trim().to_string()));
    }

    let request = Request {
        method: method.to_string(),
        path: target.split('?').next().unwrap_or(target).to_string(),
        version: version.to_string(),
        headers,
        body: Vec::new(),
    };

    if request
        .header("transfer-encoding")
        .is_some_and(|v| !v.eq_ignore_ascii_case("identity"))
    {
        return Err(HttpError::Malformed("transfer-encoding not supported"));
    }
    let body_len = match request.header("content-length") {
        None => 0usize,
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| HttpError::Malformed("content-length"))?,
    };
    if body_len > limits.max_body_bytes {
        return Err(HttpError::BodyTooLarge);
    }
    let mut body = vec![0u8; body_len];
    let mut filled = 0usize;
    while filled < body_len {
        match r.read(&mut body[filled..]) {
            Ok(0) => return Err(HttpError::Closed),
            Ok(n) => filled += n,
            Err(e) => return Err(io_error(e, true)),
        }
    }
    Ok(Request { body, ..request })
}

/// The reason phrase for the statuses this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        202 => "Accepted",
        204 => "No Content",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        499 => "Client Closed Request",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Write a complete fixed-length response. `close` adds
/// `Connection: close`. Head and body leave in one `write`, so a response
/// never goes out as several small segments on a `TCP_NODELAY` socket.
pub fn write_response(
    w: &mut impl Write,
    status: u16,
    headers: &[(&str, String)],
    body: &[u8],
    close: bool,
) -> io::Result<()> {
    let mut wire = Vec::with_capacity(256 + body.len());
    write!(wire, "HTTP/1.1 {status} {}\r\n", reason(status))?;
    for (name, value) in headers {
        write!(wire, "{name}: {value}\r\n")?;
    }
    write!(wire, "Content-Length: {}\r\n", body.len())?;
    wire.extend_from_slice(b"Content-Type: text/plain; charset=utf-8\r\n");
    if close {
        wire.extend_from_slice(b"Connection: close\r\n");
    }
    wire.extend_from_slice(b"\r\n");
    wire.extend_from_slice(body);
    w.write_all(&wire)?;
    w.flush()
}

/// A `Transfer-Encoding: chunked` response in progress: data goes out one
/// chunk at a time and trailers follow the last chunk. The server itself
/// answers every route with [`write_response`]; this writer remains for
/// tools that model or test chunked framing.
pub struct ChunkedWriter<'a, W: Write> {
    w: &'a mut W,
}

impl<'a, W: Write> ChunkedWriter<'a, W> {
    /// Write the response head announcing chunked transfer and the
    /// trailer names that will follow the last chunk.
    pub fn begin(
        w: &'a mut W,
        status: u16,
        headers: &[(&str, String)],
        trailer_names: &[&str],
    ) -> io::Result<ChunkedWriter<'a, W>> {
        let mut head = format!("HTTP/1.1 {status} {}\r\n", reason(status));
        for (name, value) in headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str("Content-Type: text/plain; charset=utf-8\r\n");
        head.push_str("Transfer-Encoding: chunked\r\n");
        if !trailer_names.is_empty() {
            head.push_str(&format!("Trailer: {}\r\n", trailer_names.join(", ")));
        }
        head.push_str("\r\n");
        w.write_all(head.as_bytes())?;
        Ok(ChunkedWriter { w })
    }

    /// Stream one chunk (empty input writes nothing — an empty chunk
    /// would terminate the body).
    pub fn chunk(&mut self, data: &[u8]) -> io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        write!(self.w, "{:x}\r\n", data.len())?;
        self.w.write_all(data)?;
        self.w.write_all(b"\r\n")
    }

    /// Terminate the body and emit the trailers.
    pub fn finish(self, trailers: &[(&str, String)]) -> io::Result<()> {
        self.w.write_all(b"0\r\n")?;
        for (name, value) in trailers {
            write!(self.w, "{name}: {value}\r\n")?;
        }
        self.w.write_all(b"\r\n")?;
        self.w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(bytes: &[u8]) -> Result<Request, HttpError> {
        read_request(
            &mut io::Cursor::new(bytes.to_vec()),
            &ParseLimits::default(),
        )
    }

    #[test]
    fn parses_a_simple_request() {
        let r =
            parse(b"POST /query?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 2\r\n\r\nhi").unwrap();
        assert_eq!((r.method.as_str(), r.path.as_str()), ("POST", "/query"));
        assert_eq!(r.header("host"), Some("h"));
        assert_eq!(r.body, b"hi");
        assert!(r.keep_alive());
    }

    #[test]
    fn error_statuses_are_mapped() {
        assert_eq!(parse(b"GARBAGE\r\n\r\n").unwrap_err().status(), Some(400));
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(10_000));
        assert_eq!(parse(long.as_bytes()).unwrap_err().status(), Some(431));
        assert_eq!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n")
                .unwrap_err()
                .status(),
            Some(413)
        );
        assert!(matches!(parse(b""), Err(HttpError::Closed)));
    }

    /// A writer that counts its `write` calls.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_response_leaves_in_one_write() {
        for body in [Vec::new(), vec![b'x'; 64 * 1024]] {
            let mut w = CountingWriter::default();
            let headers = [("X-Docql-Rows", "1".to_string())];
            write_response(&mut w, 200, &headers, &body, true).unwrap();
            assert_eq!(w.writes, 1, "{}-byte body", body.len());
            let head = format!(
                "HTTP/1.1 200 OK\r\nX-Docql-Rows: 1\r\nContent-Length: {}\r\n\
                 Content-Type: text/plain; charset=utf-8\r\nConnection: close\r\n\r\n",
                body.len()
            );
            assert_eq!(&w.bytes[..head.len()], head.as_bytes());
            assert_eq!(&w.bytes[head.len()..], &body[..]);
        }
    }

    #[test]
    fn chunked_round_trip_shape() {
        let mut out = Vec::new();
        let mut w = ChunkedWriter::begin(
            &mut out,
            200,
            &[("X-Docql-Trace-Id", "00ff".to_string())],
            &["X-Docql-Rows"],
        )
        .unwrap();
        w.chunk(b"a | b\n").unwrap();
        w.chunk(b"").unwrap();
        w.finish(&[("X-Docql-Rows", "1".to_string())]).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(
            text.contains("6\r\na | b\n\r\n0\r\nX-Docql-Rows: 1\r\n\r\n"),
            "{text}"
        );
    }
}
