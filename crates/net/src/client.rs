//! A minimal keep-alive HTTP/1.1 client for the workload harness, the CLI's
//! HTTP mode and the examples.
//!
//! One [`HttpClient`] owns one connection and reuses it across requests;
//! when the server closes (keep-alive request cap, shutdown, idle timeout)
//! the next request transparently reconnects once.  Reconnects are paced by
//! a capped, jittered [`Backoff`] so a dead socket cannot be hammered in a
//! tight loop, connection failures surface as a typed [`ConnectError`]
//! (refused vs. timed out vs. reset), and the client keeps separate
//! `retries` / `connect_errors` / `timeouts` counters so a chaos run is
//! diagnosable from the summary.  Only what the harness needs: `GET`/`POST`,
//! `Content-Length` framing, no redirects, no TLS.
//!
//! Each request is framed — request line, headers, JSON body — into one
//! reused buffer and leaves in one `write`.  The response is read into the
//! connection's receive buffer and parsed by the same head reader the
//! server uses for requests (see [`crate::http`]).

use crate::backoff::Backoff;
use crate::http::{put_header, HeadError, RecvBuf};
use crate::server::TRACE_HEADER;
use crate::{NetError, NetResult};
use opaq_metrics::TraceId;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Why a connection could not be established (or died mid-use).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnectErrorKind {
    /// The peer actively refused the connection (nothing listening).
    Refused,
    /// The connect attempt (or a read on it) exceeded its deadline.
    Timeout,
    /// The peer reset or aborted an established connection.
    Reset,
    /// Any other socket-level failure (unroutable, resolution, …).
    Other,
}

/// A typed connection failure: which peer, and how it failed.
#[derive(Debug, Clone)]
pub struct ConnectError {
    /// Failure classification.
    pub kind: ConnectErrorKind,
    /// The address the client was trying to reach.
    pub addr: String,
    /// The underlying OS error text.
    pub detail: String,
}

impl fmt::Display for ConnectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.kind {
            ConnectErrorKind::Refused => "refused",
            ConnectErrorKind::Timeout => "timed out",
            ConnectErrorKind::Reset => "reset",
            ConnectErrorKind::Other => "failed",
        };
        write!(f, "connection to {} {kind}: {}", self.addr, self.detail)
    }
}

impl std::error::Error for ConnectError {}

impl ConnectError {
    fn classify(addr: &str, e: &io::Error) -> Self {
        let kind = match e.kind() {
            io::ErrorKind::ConnectionRefused => ConnectErrorKind::Refused,
            io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => ConnectErrorKind::Timeout,
            io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::UnexpectedEof => ConnectErrorKind::Reset,
            _ => ConnectErrorKind::Other,
        };
        Self {
            kind,
            addr: addr.to_string(),
            detail: e.to_string(),
        }
    }
}

/// Running failure/retry tallies for one client, reset never.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Transparent reconnect-and-retry attempts made after a failed request.
    pub retries: u64,
    /// Failures to establish (or keep) a TCP connection.
    pub connect_errors: u64,
    /// Requests that died to a read/connect deadline specifically.
    pub timeouts: u64,
}

/// A parsed response as seen by the client.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// Status code.
    pub status: u16,
    /// Headers in order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First header value by (lower-case) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8.
    ///
    /// # Errors
    /// [`NetError::Protocol`] if the body is not UTF-8.
    pub fn body_str(&self) -> NetResult<&str> {
        std::str::from_utf8(&self.body)
            .map_err(|_| NetError::Protocol("response body is not UTF-8".into()))
    }
}

/// Cap on a response's header block.
const MAX_RESPONSE_HEAD_BYTES: usize = 64 * 1024;

/// An open connection and the bytes received on it.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    recv: RecvBuf,
}

/// A keep-alive connection to one server.
#[derive(Debug)]
pub struct HttpClient {
    addr: String,
    conn: Option<Conn>,
    /// The outgoing request, framed whole; reused across requests.
    out: Vec<u8>,
    read_timeout: Duration,
    connect_timeout: Duration,
    backoff: Backoff,
    stats: ClientStats,
    trace_id: Option<TraceId>,
}

impl HttpClient {
    /// Create a client for `addr` (e.g. `"127.0.0.1:8080"`); connects lazily.
    pub fn new(addr: impl Into<String>) -> Self {
        let addr = addr.into();
        // Seed the jitter from the address so a fleet of clients pointed at
        // different replicas never shares a retry schedule, while any given
        // client stays deterministic.
        let seed = addr.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        Self {
            addr,
            conn: None,
            out: Vec::new(),
            read_timeout: Duration::from_secs(10),
            connect_timeout: Duration::from_secs(2),
            backoff: Backoff::for_connect(seed),
            stats: ClientStats::default(),
            trace_id: None,
        }
    }

    /// Set (or clear) the trace id sent as `x-opaq-trace-id` on every
    /// subsequent request, so a hop to this server records its spans under
    /// the caller's trace.  Sticky until changed.
    pub fn set_trace_id(&mut self, trace: Option<TraceId>) {
        self.trace_id = trace;
    }

    /// The trace id currently stamped on outgoing requests.
    pub fn trace_id(&self) -> Option<TraceId> {
        self.trace_id
    }

    /// Override the per-response read timeout.
    pub fn with_read_timeout(mut self, timeout: Duration) -> Self {
        self.read_timeout = timeout;
        self
    }

    /// Override the connect deadline (default 2s).
    pub fn with_connect_timeout(mut self, timeout: Duration) -> Self {
        self.connect_timeout = timeout;
        self
    }

    /// The address this client targets.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Cumulative retry/connect-failure/timeout tallies.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// `GET target` (path plus optional query string).
    ///
    /// # Errors
    /// Connection or protocol failures; HTTP error statuses are *not*
    /// errors — check [`ClientResponse::status`].
    pub fn get(&mut self, target: &str) -> NetResult<ClientResponse> {
        self.request("GET", target, None)
    }

    /// `POST target` with a JSON body.
    ///
    /// # Errors
    /// As for [`Self::get`].
    pub fn post_json(&mut self, target: &str, body: &str) -> NetResult<ClientResponse> {
        self.request("POST", target, Some(body))
    }

    fn request(
        &mut self,
        method: &str,
        target: &str,
        body: Option<&str>,
    ) -> NetResult<ClientResponse> {
        // First attempt on the cached connection (if any), one transparent
        // retry on a fresh connection: a server that closed the keep-alive
        // between requests surfaces as an I/O error or clean EOF here.  The
        // retry waits out a backoff delay first, so a dead socket throttles
        // its caller instead of spinning.
        let had_conn = self.conn.is_some();
        match self.attempt(method, target, body) {
            Ok(response) => {
                self.backoff.reset();
                Ok(response)
            }
            Err(first) if had_conn => {
                self.conn = None;
                self.note_failure(&first);
                self.stats.retries += 1;
                std::thread::sleep(self.backoff.next_delay());
                match self.attempt(method, target, body) {
                    Ok(response) => {
                        self.backoff.reset();
                        Ok(response)
                    }
                    Err(second) => {
                        self.conn = None;
                        self.note_failure(&second);
                        self.backoff.next_delay();
                        Err(second)
                    }
                }
            }
            Err(e) => {
                self.conn = None;
                self.note_failure(&e);
                // Remember the failure so the *next* call's fresh connect is
                // paced — that is what stops a retry loop on a dead replica.
                self.backoff.next_delay();
                Err(e)
            }
        }
    }

    fn note_failure(&mut self, e: &NetError) {
        match e {
            NetError::Connect(c) => {
                self.stats.connect_errors += 1;
                if c.kind == ConnectErrorKind::Timeout {
                    self.stats.timeouts += 1;
                }
            }
            NetError::Io(io_err)
                if matches!(
                    io_err.kind(),
                    io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
                ) =>
            {
                self.stats.timeouts += 1;
            }
            _ => {}
        }
    }

    fn connect(&mut self) -> NetResult<()> {
        let classify = |e: io::Error| NetError::Connect(ConnectError::classify(&self.addr, &e));
        let target = self
            .addr
            .to_socket_addrs()
            .map_err(classify)?
            .next()
            .ok_or_else(|| {
                NetError::Connect(ConnectError {
                    kind: ConnectErrorKind::Other,
                    addr: self.addr.clone(),
                    detail: "address resolved to nothing".into(),
                })
            })?;
        let stream = TcpStream::connect_timeout(&target, self.connect_timeout).map_err(classify)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(self.read_timeout))?;
        self.conn = Some(Conn {
            stream,
            recv: RecvBuf::new(),
        });
        Ok(())
    }

    fn attempt(
        &mut self,
        method: &str,
        target: &str,
        body: Option<&str>,
    ) -> NetResult<ClientResponse> {
        if self.conn.is_none() {
            self.connect()?;
        }
        let conn = self.conn.as_mut().expect("just connected");
        self.out.clear();
        encode_request(
            &mut self.out,
            method,
            target,
            &self.addr,
            self.trace_id,
            body,
        );
        (&conn.stream).write_all(&self.out)?;

        let response = read_response(&mut conn.recv, &mut &conn.stream)?;
        if response
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
        {
            self.conn = None;
        }
        Ok(response)
    }
}

/// Frame one request — request line, headers, body — into `out`.
pub(crate) fn encode_request(
    out: &mut Vec<u8>,
    method: &str,
    target: &str,
    host: &str,
    trace: Option<TraceId>,
    body: Option<&str>,
) {
    // Writing into a `Vec` cannot fail.
    let _ = write!(out, "{method} {target} HTTP/1.1\r\n");
    put_header(out, "host", host);
    if let Some(trace) = trace {
        let _ = write!(out, "{TRACE_HEADER}: {trace}\r\n");
    }
    if let Some(body) = body {
        put_header(out, "content-type", "application/json");
        let _ = write!(out, "content-length: {}\r\n", body.len());
    }
    out.extend_from_slice(b"\r\n");
    if let Some(body) = body {
        out.extend_from_slice(body.as_bytes());
    }
}

/// Read one response: its head from `recv` (filled from `r` as needed),
/// then its body.
pub(crate) fn read_response(recv: &mut RecvBuf, r: &mut impl Read) -> NetResult<ClientResponse> {
    let mut lines = recv
        .read_head(r, MAX_RESPONSE_HEAD_BYTES)
        .map_err(|e| match e {
            HeadError::Closed | HeadError::Truncated => {
                NetError::Protocol("connection closed mid-response".into())
            }
            HeadError::TooLarge => NetError::Protocol("response header block too large".into()),
            HeadError::NotUtf8 => NetError::Protocol("non-UTF-8 response header".into()),
            HeadError::Io(e) => NetError::Io(e),
        })?;
    let status_line = lines
        .next()
        .ok_or_else(|| NetError::Protocol("empty status line".into()))?;
    let mut parts = status_line.splitn(3, ' ');
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(NetError::Protocol(format!(
            "bad status line: {status_line:?}"
        )));
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| NetError::Protocol(format!("bad status code in {status_line:?}")))?;

    let mut headers = Vec::new();
    let mut length = None;
    for line in lines {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| NetError::Protocol("response header without ':'".into()))?;
        let value = value.trim();
        if length.is_none() && name.eq_ignore_ascii_case("content-length") {
            length = Some(value.parse::<usize>().ok());
        }
        headers.push((name.to_ascii_lowercase(), value.to_string()));
    }
    let length = length
        .flatten()
        .ok_or_else(|| NetError::Protocol("response without Content-Length".into()))?;
    let body = recv.read_body(r, length)?;
    Ok(ClientResponse {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{read_request, ReadLimits};

    #[test]
    fn a_post_is_framed_as_one_buffer() {
        let trace = TraceId::from_raw(0x2a).unwrap();
        let body = "{\"phis\":[0.5]}";
        let mut out = Vec::new();
        encode_request(
            &mut out,
            "POST",
            "/v1/a/b/quantile_batch",
            "127.0.0.1:9",
            Some(trace),
            Some(body),
        );
        assert_eq!(
            String::from_utf8(out.clone()).unwrap(),
            "POST /v1/a/b/quantile_batch HTTP/1.1\r\nhost: 127.0.0.1:9\r\n\
             x-opaq-trace-id: 000000000000002a\r\ncontent-type: application/json\r\n\
             content-length: 14\r\n\r\n{\"phis\":[0.5]}"
        );
        // The server reads back exactly what was framed.
        let request = read_request(
            &mut RecvBuf::new(),
            &mut out.as_slice(),
            &ReadLimits::default(),
        )
        .unwrap();
        assert_eq!(request.body, body.as_bytes());
        assert_eq!(request.header(TRACE_HEADER), Some("000000000000002a"));

        let mut get = Vec::new();
        encode_request(&mut get, "GET", "/healthz", "h:1", None, None);
        assert_eq!(get, b"GET /healthz HTTP/1.1\r\nhost: h:1\r\n\r\n");
    }

    #[test]
    fn responses_parse_through_the_shared_head_reader() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nX-Opaq-Version: 3\r\n\r\nokHTTP/1.1";
        let mut recv = RecvBuf::new();
        let response = read_response(&mut recv, &mut &raw[..]).unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(response.header("x-opaq-version"), Some("3"));
        assert_eq!(response.body, b"ok");
        assert_eq!(recv.buffered(), b"HTTP/1.1");
        for (raw, message) in [
            (&b""[..], "connection closed mid-response"),
            (
                b"HTTP/1.1 200 OK\r\ncontent-len",
                "connection closed mid-response",
            ),
            (
                b"HTTP/1.1 200 OK\r\n\r\n",
                "response without Content-Length",
            ),
            (b"SPDY 200\r\n\r\n", "bad status line: \"SPDY 200\""),
        ] {
            match read_response(&mut RecvBuf::new(), &mut &raw[..]) {
                Err(NetError::Protocol(m)) => assert_eq!(m, message),
                other => panic!("{raw:?} gave {other:?}"),
            }
        }
    }
}
