//! A deliberately small HTTP/1.1 subset over `std::net::TcpStream`.
//!
//! The service speaks exactly what its clients need and nothing more:
//!
//! * **Persistent connections.** A [`Connection`] serves requests one
//!   after another on one socket. It keeps a read buffer, so bytes that
//!   arrive after one request's body (a pipelined request) start the
//!   next one. A response carries `Connection: close`, and the socket is
//!   closed after it, only when the client asked for that
//!   (`Connection: close`, or an HTTP/1.0 request), when the response is
//!   an error after which the framing is in doubt (400, 408, 413, 503),
//!   or when the server is draining.
//! * **`Content-Length` framing only.** A request with
//!   `Transfer-Encoding`, or with `Content-Length` headers that disagree,
//!   is rejected: on a kept connection either would desynchronise the
//!   request boundaries.
//! * **Bounds.** Headers are capped at 8 KiB and bodies by the server's
//!   configured limit. A request must arrive within the read deadline of
//!   its first byte, so a slow or stalled client cannot pin a handler
//!   thread. A kept connection idle for the deadline is closed without a
//!   response: a 408 there could be read as the answer to the client's
//!   next request.
//!
//! Keeping the parser this narrow is what keeps the crate
//! dependency-free without turning it into a second project.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Upper bound on the request line plus headers.
const MAX_HEAD: usize = 8 * 1024;

/// Longest a blocked read waits before rechecking the request deadline
/// and the drain flag; it bounds how long a drain waits for an idle
/// connection to notice.
const WAKE: Duration = Duration::from_millis(50);

/// A parsed request head plus its body.
#[derive(Debug)]
pub struct Request {
    /// Request method, uppercased by the client per RFC (not normalized).
    pub method: String,
    /// Request target path, query string stripped.
    pub path: String,
    /// Raw body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// The client wants the connection closed after the response: it
    /// sent `Connection: close`, or spoke HTTP/1.0.
    pub close: bool,
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum RecvError {
    /// No byte of a request arrived: the client closed the connection,
    /// it stayed idle for the read deadline, or the server is draining.
    Closed,
    /// The client did not deliver the full request before the deadline.
    Timeout,
    /// Declared body (or the head) exceeds the configured limits.
    TooLarge,
    /// The bytes on the wire are not an HTTP/1.1 request we accept.
    Malformed(&'static str),
    /// Transport error.
    Io(std::io::Error),
}

/// One client connection and the bytes read from it but not yet consumed.
#[derive(Debug)]
pub struct Connection {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Connection {
    /// Wraps an accepted stream.
    pub fn new(stream: TcpStream) -> std::io::Result<Connection> {
        stream.set_read_timeout(Some(WAKE))?;
        // A response is one write, but its last segment must not wait
        // for the ACK of the one before.
        stream.set_nodelay(true)?;
        Ok(Connection {
            stream,
            buf: Vec::with_capacity(1024),
        })
    }

    /// Reads the next request. Waits up to `deadline` for its first
    /// byte, or until `draining` is set, and then up to `deadline` more
    /// for the whole request; `max_body` bounds the declared body length.
    pub fn read_request(
        &mut self,
        deadline: Duration,
        max_body: usize,
        draining: &AtomicBool,
    ) -> Result<Request, RecvError> {
        let idle_since = Instant::now();
        while self.buf.is_empty() {
            if draining.load(Ordering::SeqCst) || idle_since.elapsed() >= deadline {
                return Err(RecvError::Closed);
            }
            self.fill(RecvError::Closed)?;
        }

        // Accumulate until the blank line ending the head.
        let start = Instant::now();
        let head_end = loop {
            if let Some(pos) = find_head_end(&self.buf) {
                break pos;
            }
            if self.buf.len() > MAX_HEAD {
                return Err(RecvError::TooLarge);
            }
            if start.elapsed() >= deadline {
                return Err(RecvError::Timeout);
            }
            self.fill(RecvError::Malformed("connection closed mid-head"))?;
        };

        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| RecvError::Malformed("head is not UTF-8"))?;
        let mut lines = head.split("\r\n");
        let request_line = lines.next().unwrap_or("");
        let mut parts = request_line.split(' ');
        let method = parts
            .next()
            .filter(|m| !m.is_empty())
            .ok_or(RecvError::Malformed("empty request line"))?
            .to_string();
        let target = parts
            .next()
            .ok_or(RecvError::Malformed("missing request target"))?;
        let version = parts
            .next()
            .ok_or(RecvError::Malformed("missing HTTP version"))?;
        if !version.starts_with("HTTP/1.") {
            return Err(RecvError::Malformed("not HTTP/1.x"));
        }
        let path = target.split('?').next().unwrap_or(target).to_string();

        let mut close = version == "HTTP/1.0";
        let mut content_length: Option<usize> = None;
        for header in lines {
            let Some((name, value)) = header.split_once(':') else {
                continue;
            };
            let (name, value) = (name.trim(), value.trim());
            if name.eq_ignore_ascii_case("content-length") {
                let len = value
                    .parse()
                    .map_err(|_| RecvError::Malformed("unparseable Content-Length"))?;
                if content_length.is_some_and(|seen| seen != len) {
                    return Err(RecvError::Malformed("conflicting Content-Length headers"));
                }
                content_length = Some(len);
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                return Err(RecvError::Malformed(
                    "Transfer-Encoding is not supported; send Content-Length",
                ));
            } else if name.eq_ignore_ascii_case("connection") {
                close |= value
                    .split(',')
                    .any(|token| token.trim().eq_ignore_ascii_case("close"));
            }
        }
        let content_length = content_length.unwrap_or(0);
        if content_length > max_body {
            return Err(RecvError::TooLarge);
        }

        // The body may already be partially (or fully) in the buffer,
        // followed by the start of a pipelined request.
        let body_start = head_end + 4;
        let end = body_start + content_length;
        while self.buf.len() < end {
            if start.elapsed() >= deadline {
                return Err(RecvError::Timeout);
            }
            self.fill(RecvError::Malformed("connection closed mid-body"))?;
        }
        let body = self.buf[body_start..end].to_vec();
        self.buf.drain(..end);
        Ok(Request {
            method,
            path,
            body,
            close,
        })
    }

    /// Appends what arrives within one [`WAKE`] interval to the buffer;
    /// `eof` is the error for a client that closed its side.
    fn fill(&mut self, eof: RecvError) -> Result<(), RecvError> {
        let mut chunk = [0u8; 4096];
        match self.stream.read(&mut chunk) {
            Ok(0) => Err(eof),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                Ok(())
            }
            Err(e) => Err(RecvError::Io(e)),
        }
    }

    /// Writes `response`, with `Connection: close` unless `keep_alive`
    /// holds and the status leaves the framing intact. Returns whether
    /// the connection stays open. Write errors are swallowed (the client
    /// may already be gone, and there is nobody left to tell) and close it.
    pub fn send(&mut self, response: &Response, keep_alive: bool) -> bool {
        let keep_alive = keep_alive && !matches!(response.status, 400 | 408 | 413 | 503);
        let sent = self
            .stream
            .write_all(&response.to_bytes(keep_alive))
            .and_then(|()| self.stream.flush());
        keep_alive && sent.is_ok()
    }

    /// Discards whatever the client is still sending, bounded by `max`
    /// bytes and a short window. Closing a socket with unread input makes
    /// the kernel send RST, which clobbers a response the client has not
    /// read yet — early rejections (413, 400) must drain before closing so
    /// the refusal actually arrives.
    pub fn drain_input(&mut self, max: usize) {
        let _ = self
            .stream
            .set_read_timeout(Some(Duration::from_millis(200)));
        let mut scratch = [0u8; 4096];
        let mut seen = 0usize;
        while seen < max {
            match self.stream.read(&mut scratch) {
                Ok(0) | Err(_) => break,
                Ok(n) => seen += n,
            }
        }
    }
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// An HTTP response under construction.
#[derive(Debug)]
pub struct Response {
    status: u16,
    reason: &'static str,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl Response {
    /// A response with the given status code.
    pub fn new(status: u16) -> Response {
        let reason = match status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Response",
        };
        Response {
            status,
            reason,
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    /// Status code of this response.
    pub fn status(&self) -> u16 {
        self.status
    }

    /// Adds a header.
    pub fn header(mut self, name: &str, value: impl Into<String>) -> Response {
        self.headers.push((name.to_string(), value.into()));
        self
    }

    /// Sets a JSON body.
    pub fn json(self, body: impl Into<Vec<u8>>) -> Response {
        self.body_with("application/json", body.into())
    }

    /// Sets a plain-text body.
    pub fn text(self, body: impl Into<String>) -> Response {
        self.body_with("text/plain; charset=utf-8", body.into().into_bytes())
    }

    fn body_with(mut self, content_type: &str, body: Vec<u8>) -> Response {
        self.headers
            .push(("Content-Type".to_string(), content_type.to_string()));
        self.body = body;
        self
    }

    /// Serializes head + body to wire format; without `keep_alive` the
    /// head says `Connection: close`.
    pub fn to_bytes(&self, keep_alive: bool) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.body.len() + 256);
        out.extend_from_slice(format!("HTTP/1.1 {} {}\r\n", self.status, self.reason).as_bytes());
        for (name, value) in &self.headers {
            out.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
        }
        out.extend_from_slice(format!("Content-Length: {}\r\n", self.body.len()).as_bytes());
        if !keep_alive {
            out.extend_from_slice(b"Connection: close\r\n");
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::thread;

    fn roundtrip(raw: &[u8]) -> Result<Request, RecvError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let writer = thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&raw).unwrap();
            s.flush().unwrap();
            // Keep the socket open briefly so the reader sees the data,
            // then drop (close) it.
        });
        let (stream, _) = listener.accept().unwrap();
        let req = Connection::new(stream).unwrap().read_request(
            Duration::from_millis(500),
            1024,
            &AtomicBool::new(false),
        );
        writer.join().unwrap();
        req
    }

    #[test]
    fn parses_post_with_body() {
        let req =
            roundtrip(b"POST /v1/run?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\nabcd")
                .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/run");
        assert_eq!(req.body, b"abcd");
        assert!(!req.close);
    }

    #[test]
    fn repeated_equal_content_length_is_one_length() {
        let req = roundtrip(b"POST / HTTP/1.1\r\nContent-Length: 2\r\ncontent-length: 2\r\n\r\nok")
            .unwrap();
        assert_eq!(req.body, b"ok");
    }

    #[test]
    fn close_is_requested_by_header_or_http_1_0() {
        for raw in [
            &b"GET / HTTP/1.1\r\nConnection: keep-alive, Close\r\n\r\n"[..],
            b"GET / HTTP/1.0\r\n\r\n",
        ] {
            assert!(roundtrip(raw).unwrap().close);
        }
    }

    #[test]
    fn rejects_oversized_body_from_header_alone() {
        let err = roundtrip(b"POST / HTTP/1.1\r\nContent-Length: 999999\r\n\r\n").unwrap_err();
        assert!(matches!(err, RecvError::TooLarge), "{err:?}");
    }

    #[test]
    fn rejects_non_http() {
        let err = roundtrip(b"SSH-2.0-OpenSSH\r\n\r\n").unwrap_err();
        assert!(matches!(err, RecvError::Malformed(_)), "{err:?}");
    }

    #[test]
    fn slow_client_times_out() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            // Declare a body but never send it.
            s.write_all(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\n")
                .unwrap();
            s.flush().unwrap();
            thread::sleep(Duration::from_millis(400));
        });
        let (stream, _) = listener.accept().unwrap();
        let err = Connection::new(stream)
            .unwrap()
            .read_request(Duration::from_millis(100), 1024, &AtomicBool::new(false))
            .unwrap_err();
        assert!(matches!(err, RecvError::Timeout), "{err:?}");
        writer.join().unwrap();
    }

    #[test]
    fn response_wire_format() {
        let response = Response::new(429)
            .header("Retry-After", "1")
            .json(br#"{"error":"queue full"}"#.to_vec());
        let text = String::from_utf8(response.to_bytes(false)).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("{\"error\":\"queue full\"}"));
        let kept = String::from_utf8(response.to_bytes(true)).unwrap();
        assert!(!kept.contains("Connection:"), "{kept}");
        assert_eq!(kept.len() + "Connection: close\r\n".len(), text.len());
    }
}
