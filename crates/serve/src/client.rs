//! A small blocking HTTP/1.1 client, just capable enough to talk to this
//! crate's server: keep-alive and `Content-Length` bodies, the only
//! framing the server sends. The integration suites and the chaos battery
//! drive the server through it, so the server is exercised over real
//! sockets rather than in-process shortcuts.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// One parsed response.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Headers in arrival order.
    pub headers: Vec<(String, String)>,
    /// The body.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// First value of header `name`, case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// A keep-alive connection to the server.
pub struct HttpClient {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl HttpClient {
    /// Connect, with a read/write timeout applied to the socket.
    pub fn connect(addr: impl ToSocketAddrs, timeout: Duration) -> io::Result<HttpClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(HttpClient { stream, reader })
    }

    /// The underlying socket (for fault injection in tests).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Send one request and read the response.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> io::Result<HttpResponse> {
        let mut head = format!("{method} {path} HTTP/1.1\r\nHost: docql\r\n");
        for (name, value) in headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(body)?;
        self.stream.flush()?;
        self.read_response()
    }

    /// `GET`, no body.
    pub fn get(&mut self, path: &str) -> io::Result<HttpResponse> {
        self.request("GET", path, &[], b"")
    }

    /// `POST` with extra headers.
    pub fn post(
        &mut self,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> io::Result<HttpResponse> {
        self.request("POST", path, headers, body)
    }

    fn read_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }

    fn read_header_block(&mut self) -> io::Result<Vec<(String, String)>> {
        let mut out = Vec::new();
        loop {
            let line = self.read_line()?;
            if line.is_empty() {
                return Ok(out);
            }
            if let Some((name, value)) = line.split_once(':') {
                out.push((name.to_string(), value.trim().to_string()));
            }
        }
    }

    /// Read one response (the request must already have been sent).
    pub fn read_response(&mut self) -> io::Result<HttpResponse> {
        let status_line = self.read_line()?;
        let status = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad status line: {status_line:?}"),
                )
            })?;
        let headers = self.read_header_block()?;
        let mut response = HttpResponse {
            status,
            headers,
            body: Vec::new(),
        };
        let len = response
            .header("content-length")
            .and_then(|v| v.parse().ok());
        response.body = vec![0u8; len.unwrap_or(0)];
        self.reader.read_exact(&mut response.body)?;
        Ok(response)
    }
}
