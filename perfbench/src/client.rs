//! A plain HTTP/1.1 client for the load generator.
//!
//! Requests go out without a `Connection` header, so HTTP/1.1 makes the
//! connection persistent by default. The client keeps the connection for
//! the next request unless the response says `Connection: close`, and it
//! reconnects otherwise. A server that starts honouring keep-alive is
//! therefore measured as such without any change here. Bodies are framed
//! by `Content-Length`; a response without one must close the connection.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One response as the client saw it.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// The `X-Cache` header, if any.
    pub x_cache: Option<String>,
    /// Body bytes.
    pub body: Vec<u8>,
}

/// A client bound to one server address, holding at most one connection.
pub struct Client {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
    /// TCP connections opened so far.
    pub connects: u64,
}

fn bad(detail: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, detail.to_string())
}

impl Client {
    /// A client for `addr`; it connects on first use.
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            conn: None,
            connects: 0,
        }
    }

    /// Sends one request and reads its response.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Response> {
        let reused = self.conn.is_some();
        match self.exchange(method, path, body) {
            Ok(resp) => Ok(resp),
            // A kept connection the server has since closed fails on first
            // use; that is not an error of the request, so retry once.
            Err(_) if reused => {
                self.conn = None;
                self.exchange(method, path, body)
            }
            Err(e) => {
                self.conn = None;
                Err(e)
            }
        }
    }

    /// Opens a connection unless one is open already.
    pub fn connect(&mut self) -> io::Result<()> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(60)))?;
            self.connects += 1;
            self.conn = Some(BufReader::new(stream));
        }
        Ok(())
    }

    fn exchange(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Response> {
        self.connect()?;
        let conn = self.conn.as_mut().expect("connect opened it");
        let mut head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\n",
            self.addr,
            body.len()
        );
        if !body.is_empty() {
            head.push_str("Content-Type: application/json\r\n");
        }
        head.push_str("\r\n");
        let mut out = head.into_bytes();
        out.extend_from_slice(body);
        conn.get_mut().write_all(&out)?;

        let mut line = String::new();
        if conn.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before a status line",
            ));
        }
        let status = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .filter(|_| line.starts_with("HTTP/1."))
            .ok_or_else(|| bad("malformed status line"))?;
        let mut length = None;
        let mut close = false;
        let mut x_cache = None;
        loop {
            line.clear();
            if conn.read_line(&mut line)? == 0 {
                return Err(bad("connection closed inside the header block"));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            let Some((name, value)) = header.split_once(':') else {
                return Err(bad("malformed header line"));
            };
            let value = value.trim();
            match name.trim().to_ascii_lowercase().as_str() {
                "content-length" => {
                    length = Some(
                        value
                            .parse::<usize>()
                            .map_err(|_| bad("bad Content-Length"))?,
                    )
                }
                "connection" => close = value.eq_ignore_ascii_case("close"),
                "transfer-encoding" => return Err(bad("transfer codings are not supported")),
                "x-cache" => x_cache = Some(value.to_string()),
                _ => {}
            }
        }
        let mut body = Vec::new();
        match length {
            Some(n) => {
                body.resize(n, 0);
                conn.read_exact(&mut body)?;
            }
            None if close => {
                conn.read_to_end(&mut body)?;
            }
            None => return Err(bad("persistent response without Content-Length")),
        }
        if close {
            self.conn = None;
        }
        Ok(Response {
            status,
            x_cache,
            body,
        })
    }
}
