//! Property tests for the bounded HTTP request parser (satellite 3): over
//! arbitrary and near-valid byte streams, `read_request` never panics and
//! never buffers more than its configured ceilings — plus golden tests
//! pinning each `HttpError` → status mapping.

mod common;

use docql_prop::{check, prop_assert, usize_in, vec_of, zip3};
use docql_serve::http::{read_request, reason, HttpError, ParseLimits};
use std::io::{self, Read};

/// A reader that counts every byte handed to the parser — the "bounded
/// memory" oracle: the parser can hold at most what it has consumed.
struct MeteredReader<R> {
    inner: R,
    consumed: usize,
}

impl<R: Read> Read for MeteredReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.consumed += n;
        Ok(n)
    }
}

fn small_limits() -> ParseLimits {
    ParseLimits {
        max_head_bytes: 128,
        max_headers: 8,
        max_body_bytes: 256,
    }
}

/// Parse `bytes` under `limits`, asserting the consumption bound; the
/// parser buffers only consumed bytes, so this bounds its memory too.
fn parse_metered(bytes: &[u8], limits: &ParseLimits) -> Result<(), String> {
    let mut r = MeteredReader {
        inner: io::Cursor::new(bytes.to_vec()),
        consumed: 0,
    };
    let _ = read_request(&mut r, limits); // must not panic
    let bound = limits.max_head_bytes + limits.max_body_bytes + 8;
    prop_assert!(
        r.consumed <= bound,
        "consumed {} bytes, bound {bound}",
        r.consumed
    );
    Ok(())
}

#[test]
fn prop_arbitrary_bytes_never_panic_and_memory_is_bounded() {
    let limits = small_limits();
    let bytes =
        vec_of(usize_in(0..256), 0..512).map(|v| v.iter().map(|&b| b as u8).collect::<Vec<u8>>());
    check("parser_arbitrary_bytes", 512, &bytes, move |bytes| {
        parse_metered(bytes, &limits)
    });
}

#[test]
fn prop_mutated_requests_never_panic_and_memory_is_bounded() {
    // Near-valid requests: a plausible head with attacker-chosen path
    // length, declared body length, and a truncation point — the space
    // where off-by-ones in limit accounting live.
    let limits = small_limits();
    let gen = zip3(
        usize_in(0..300), // path length
        usize_in(0..600), // declared Content-Length
        usize_in(0..700), // cut the wire after this many bytes
    );
    check(
        "parser_mutated_requests",
        512,
        &gen,
        move |&(path_len, body_len, cut)| {
            let mut wire = format!(
                "POST /{} HTTP/1.1\r\nHost: h\r\nContent-Length: {body_len}\r\n\r\n",
                "q".repeat(path_len)
            )
            .into_bytes();
            wire.extend(std::iter::repeat_n(b'x', body_len));
            wire.truncate(cut);
            parse_metered(&wire, &limits)
        },
    );
}

#[test]
fn prop_valid_requests_round_trip() {
    let gen = zip3(
        usize_in(0..40),                         // path length
        usize_in(0..100),                        // body length
        usize_in(0..small_limits().max_headers), // extra headers
    );
    check(
        "parser_valid_requests",
        256,
        &gen,
        |&(path_len, body_len, extra)| {
            let path = format!("/{}", "p".repeat(path_len));
            let body: Vec<u8> = (0..body_len).map(|i| (i % 251) as u8).collect();
            let mut head = format!("POST {path}?x=1 HTTP/1.1\r\nHost: h\r\n");
            for i in 0..extra {
                head.push_str(&format!("X-Extra-{i}: v{i}\r\n"));
            }
            head.push_str(&format!("Content-Length: {body_len}\r\n\r\n"));
            let mut wire = head.into_bytes();
            wire.extend_from_slice(&body);
            let req = read_request(&mut io::Cursor::new(wire), &ParseLimits::default())
                .map_err(|e| format!("rejected valid request: {}", e.message()))?;
            prop_assert!(req.method == "POST");
            prop_assert!(req.path == path, "path {:?} != {path:?}", req.path);
            prop_assert!(req.body == body);
            prop_assert!(req.header("host") == Some("h"));
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// Goldens: one test per error → status mapping.

fn err_of(bytes: &[u8]) -> HttpError {
    read_request(
        &mut io::Cursor::new(bytes.to_vec()),
        &ParseLimits::default(),
    )
    .unwrap_err()
}

#[test]
fn golden_400_malformed_variants() {
    for wire in [
        &b"GARBAGE\r\n\r\n"[..],                    // one-token request line
        b"get / HTTP/1.1\r\n\r\n",                  // lowercase method
        b"GET / SPDY/9\r\n\r\n",                    // unknown protocol
        b"GET / HTTP/1.1 extra\r\n\r\n",            // four tokens
        b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n", // header without colon
        b"GET / HTTP/1.1\r\nBad Name: v\r\n\r\n",   // space in header name
        b"POST / HTTP/1.1\r\nContent-Length: banana\r\n\r\n", // unparsable length
        b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", // unsupported coding
        b"GET /\xff\xfe HTTP/1.1\r\n\r\n",          // non-UTF-8 head
    ] {
        let e = err_of(wire);
        assert_eq!(
            e.status(),
            Some(400),
            "{:?} -> {e:?}",
            String::from_utf8_lossy(wire)
        );
        assert!(matches!(e, HttpError::Malformed(_)));
    }
}

#[test]
fn golden_431_head_too_large() {
    let long_target = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(10_000));
    let e = err_of(long_target.as_bytes());
    assert!(matches!(e, HttpError::HeadersTooLarge));
    assert_eq!(e.status(), Some(431));

    let many_headers = format!(
        "GET / HTTP/1.1\r\n{}\r\n",
        (0..100).map(|i| format!("H{i}: v\r\n")).collect::<String>()
    );
    let e = err_of(many_headers.as_bytes());
    assert!(matches!(e, HttpError::HeadersTooLarge));
    assert_eq!(e.status(), Some(431));
}

#[test]
fn golden_413_body_too_large_is_refused_unread() {
    // The oversized body is refused from the declaration alone: the
    // parser must not consume a single body byte.
    let limits = ParseLimits::default();
    let head = format!(
        "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        limits.max_body_bytes + 1
    );
    let mut r = MeteredReader {
        inner: io::Cursor::new(head.clone().into_bytes()),
        consumed: 0,
    };
    let e = read_request(&mut r, &limits).unwrap_err();
    assert!(matches!(e, HttpError::BodyTooLarge));
    assert_eq!(e.status(), Some(413));
    assert_eq!(r.consumed, head.len());
}

#[test]
fn golden_408_timeout_only_mid_request() {
    // A read deadline mid-request is a slow loris (408)...
    struct TimeoutAfter(Vec<u8>, usize);
    impl Read for TimeoutAfter {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.1 >= self.0.len() {
                return Err(io::Error::from(io::ErrorKind::WouldBlock));
            }
            buf[0] = self.0[self.1];
            self.1 += 1;
            Ok(1)
        }
    }
    let limits = ParseLimits::default();
    let e = read_request(&mut TimeoutAfter(b"GET / HT".to_vec(), 0), &limits).unwrap_err();
    assert!(matches!(e, HttpError::Timeout));
    assert_eq!(e.status(), Some(408));

    // ...but an idle keep-alive connection timing out before any byte is
    // a clean close: nothing to answer.
    let e = read_request(&mut TimeoutAfter(Vec::new(), 0), &limits).unwrap_err();
    assert!(matches!(e, HttpError::Closed));
    assert_eq!(e.status(), None);
}

#[test]
fn golden_closed_has_no_status() {
    for wire in [
        &b""[..],
        b"GET / HTTP/1.1\r\nHost",
        b"POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nab",
    ] {
        let e = err_of(wire);
        assert!(
            matches!(e, HttpError::Closed),
            "{:?}",
            String::from_utf8_lossy(wire)
        );
        assert_eq!(e.status(), None);
    }
}

#[test]
fn golden_reason_phrases_cover_the_emitted_statuses() {
    for (status, phrase) in [
        (200, "OK"),
        (201, "Created"),
        (202, "Accepted"),
        (204, "No Content"),
        (400, "Bad Request"),
        (404, "Not Found"),
        (405, "Method Not Allowed"),
        (408, "Request Timeout"),
        (413, "Payload Too Large"),
        (422, "Unprocessable Entity"),
        (431, "Request Header Fields Too Large"),
        (499, "Client Closed Request"),
        (500, "Internal Server Error"),
        (503, "Service Unavailable"),
        (504, "Gateway Timeout"),
    ] {
        assert_eq!(reason(status), phrase);
    }
}
