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

use crate::backoff::Backoff;
use crate::server::TRACE_HEADER;
use crate::{NetError, NetResult};
use opaq_metrics::TraceId;
use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};
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

/// A keep-alive connection to one server.
#[derive(Debug)]
pub struct HttpClient {
    addr: String,
    conn: Option<BufReader<TcpStream>>,
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
        self.conn = Some(BufReader::new(stream));
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

        let mut head = format!("{method} {target} HTTP/1.1\r\nhost: {}\r\n", self.addr);
        if let Some(trace) = self.trace_id {
            head.push_str(&format!("{TRACE_HEADER}: {trace}\r\n"));
        }
        if let Some(body) = body {
            head.push_str("content-type: application/json\r\n");
            head.push_str(&format!("content-length: {}\r\n", body.len()));
        }
        head.push_str("\r\n");
        let stream = conn.get_mut();
        stream.write_all(head.as_bytes())?;
        if let Some(body) = body {
            stream.write_all(body.as_bytes())?;
        }
        stream.flush()?;

        let response = read_response(conn)?;
        if response
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
        {
            self.conn = None;
        }
        Ok(response)
    }
}

fn read_response(conn: &mut BufReader<TcpStream>) -> NetResult<ClientResponse> {
    let status_line = read_line(conn)?;
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
    loop {
        let line = read_line(conn)?;
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| NetError::Protocol("response header without ':'".into()))?;
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    let length: usize = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .and_then(|(_, v)| v.parse().ok())
        .ok_or_else(|| NetError::Protocol("response without Content-Length".into()))?;
    let mut body = vec![0u8; length];
    conn.read_exact(&mut body)?;
    Ok(ClientResponse {
        status,
        headers,
        body,
    })
}

fn read_line(conn: &mut BufReader<TcpStream>) -> NetResult<String> {
    let mut line = Vec::new();
    let n = conn.read_until(b'\n', &mut line)?;
    if n == 0 {
        return Err(NetError::Protocol("connection closed mid-response".into()));
    }
    if line.last() == Some(&b'\n') {
        line.pop();
        if line.last() == Some(&b'\r') {
            line.pop();
        }
    }
    String::from_utf8(line).map_err(|_| NetError::Protocol("non-UTF-8 response header".into()))
}
