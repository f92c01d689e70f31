//! Hand-rolled HTTP/1.1 message framing, shared by the server and the
//! client: reading a message from a connection's own buffer and writing one
//! in a single `write`.
//!
//! Only the subset the front-end needs, parsed strictly:
//!
//! * request line `METHOD target HTTP/1.1` (or 1.0), target split into path
//!   and query string, both percent-decoded per segment/parameter;
//! * headers until the blank line, with a hard cap on total header bytes
//!   (overflow → [`ParseError::HeadersTooLarge`], surfaced as **431**);
//! * bodies framed by a single strict `Content-Length` (digits only, one
//!   occurrence), capped ([`ParseError::BodyTooLarge`] → **413**);
//!   `Transfer-Encoding` is refused rather than half-implemented (**501**).
//!
//! **Reading.** Each end keeps one receive buffer per connection
//! (`RecvBuf`).  One `read` fills it with whatever the socket holds, and
//! one head reader (`RecvBuf::read_head`) finds the header block there and
//! yields its lines as `&str` borrowed from the buffer — for the server's
//! requests and the client's responses alike.  Only the fields a parsed
//! message owns are allocated; bytes past the message (a pipelined request)
//! stay buffered for the next one.
//!
//! **Writing.** A message is framed — start line, headers, body — into one
//! buffer and leaves in one `write`: [`Response::write_to`] on the server,
//! the client's request encoder on the other end.  Two writes on a
//! `TCP_NODELAY` socket are two segments and two wake-ups of the peer.
//!
//! Keep-alive policy lives in the server; this module just reports what the
//! request asked for ([`Request::wants_keep_alive`]).

use opaq_metrics::TraceId;
use std::io::{Read, Write};

/// One parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Upper-case method token (`GET`, `POST`, ...).
    pub method: String,
    /// The raw (still percent-encoded) path, always starting with `/`.
    /// Routing uses [`Request::segments`]; the raw form is kept so an
    /// encoded `/` inside a segment stays distinguishable from a separator.
    pub path: String,
    /// The `/`-separated path segments, percent-decoded individually (so
    /// `a%2Fb` is one segment containing a literal slash, and `+` stays a
    /// plus — `+`-as-space applies to query values only).
    pub segments: Vec<String>,
    /// Percent-decoded query parameters in order of appearance.
    pub query: Vec<(String, String)>,
    /// Headers in order, names lower-cased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
    /// Whether the request line said HTTP/1.1 (vs 1.0).
    pub http11: bool,
}

impl Request {
    /// First header value by lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// First query parameter by name.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client wants the connection kept open after the response
    /// (HTTP/1.1 defaults to yes, 1.0 to no; `Connection` overrides).
    /// A `close` token wins over `keep-alive`; tokens match without regard
    /// to case.
    pub fn wants_keep_alive(&self) -> bool {
        let has = |token: &str| {
            self.header("connection")
                .is_some_and(|v| v.split(',').any(|t| t.trim().eq_ignore_ascii_case(token)))
        };
        if has("close") {
            false
        } else if has("keep-alive") {
            true
        } else {
            self.http11
        }
    }
}

/// Why a request could not be parsed; each variant maps to one HTTP status.
#[derive(Debug)]
pub enum ParseError {
    /// Clean EOF before the first byte of a request (keep-alive close).
    ConnectionClosed,
    /// The socket read failed or timed out mid-request.
    Io(std::io::Error),
    /// Malformed request line / header / length framing (**400**).
    Malformed(String),
    /// Header block exceeded the configured cap (**431**).
    HeadersTooLarge,
    /// Declared body exceeded the configured cap (**413**).
    BodyTooLarge,
    /// `Transfer-Encoding` or other framing this server refuses (**501**).
    Unsupported(String),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::ConnectionClosed => write!(f, "connection closed"),
            ParseError::Io(e) => write!(f, "i/o error: {e}"),
            ParseError::Malformed(msg) => write!(f, "malformed request: {msg}"),
            ParseError::HeadersTooLarge => write!(f, "request header block too large"),
            ParseError::BodyTooLarge => write!(f, "request body too large"),
            ParseError::Unsupported(what) => write!(f, "unsupported: {what}"),
        }
    }
}

/// Framing limits applied while reading one request.
#[derive(Debug, Clone, Copy)]
pub struct ReadLimits {
    /// Cap on request line + all header bytes (431 beyond this).
    pub max_header_bytes: usize,
    /// Cap on the declared body length (413 beyond this).
    pub max_body_bytes: usize,
}

impl Default for ReadLimits {
    fn default() -> Self {
        Self {
            max_header_bytes: 8 * 1024,
            max_body_bytes: 64 * 1024,
        }
    }
}

/// Bytes received on one connection and not yet consumed.
///
/// Both ends of the wire read through one of these: each [`RecvBuf::fill`]
/// is a single `read` that takes as much as the socket offers, so a request
/// or response that arrived in one segment is parsed straight from here
/// with no further system call.  Bytes past the current message (a
/// pipelined request) stay buffered for the next one.
#[derive(Debug)]
pub(crate) struct RecvBuf {
    buf: Vec<u8>,
    /// First unconsumed byte.
    start: usize,
    /// One past the last received byte.
    end: usize,
}

/// Initial receive buffer size; it grows only for a header block that
/// does not fit.
const RECV_BUF_BYTES: usize = 8 * 1024;

/// Why [`RecvBuf::read_head`] found no header block.
#[derive(Debug)]
pub(crate) enum HeadError {
    /// Clean EOF before the first byte.
    Closed,
    /// EOF after some bytes of the head but before its blank line.
    Truncated,
    /// The header block is longer than the cap.
    TooLarge,
    /// The header block is not UTF-8.
    NotUtf8,
    /// The read failed or timed out.
    Io(std::io::Error),
}

impl RecvBuf {
    pub(crate) fn new() -> Self {
        Self {
            buf: vec![0; RECV_BUF_BYTES],
            start: 0,
            end: 0,
        }
    }

    /// The received bytes not yet consumed.
    pub(crate) fn buffered(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    fn consume(&mut self, n: usize) {
        self.start += n;
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
    }

    /// One `read` from `r` appended to the buffered bytes, making room
    /// first (compacting, then growing) if the buffer is full.  Returns the
    /// bytes read; `Ok(0)` is EOF.
    ///
    /// # Errors
    /// The read's error, including a read timeout.
    pub(crate) fn fill(&mut self, r: &mut impl Read) -> std::io::Result<usize> {
        if self.end == self.buf.len() {
            if self.start > 0 {
                self.buf.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
            } else {
                self.buf.resize(self.buf.len() * 2, 0);
            }
        }
        loop {
            match r.read(&mut self.buf[self.end..]) {
                Ok(n) => {
                    self.end += n;
                    return Ok(n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// The header block at the front of the buffer — the start line, the
    /// header lines and the blank line ending them — reading from `r` until
    /// it is complete.  Its bytes are consumed; the lines are borrowed from
    /// the buffer.  The block may be at most `max_bytes` long, terminators
    /// included.
    ///
    /// # Errors
    /// See [`HeadError`].
    pub(crate) fn read_head(
        &mut self,
        r: &mut impl Read,
        max_bytes: usize,
    ) -> Result<HeadLines<'_>, HeadError> {
        // Where the current line starts, and how far it has been searched
        // for its end: each received byte is scanned once, however the
        // head is split across reads.
        let (mut line_start, mut searched) = (0, 0);
        let len = 'found: loop {
            let buffered = self.buffered();
            while let Some(nl) = buffered[searched..].iter().position(|&b| b == b'\n') {
                let line = &buffered[line_start..searched + nl];
                searched += nl + 1;
                line_start = searched;
                if line.is_empty() || line == b"\r" {
                    break 'found searched;
                }
            }
            searched = buffered.len();
            if buffered.len() > max_bytes {
                return Err(HeadError::TooLarge);
            }
            match self.fill(r) {
                Ok(0) if self.buffered().is_empty() => return Err(HeadError::Closed),
                Ok(0) => return Err(HeadError::Truncated),
                Ok(_) => {}
                Err(e) => return Err(HeadError::Io(e)),
            }
        };
        if len > max_bytes {
            return Err(HeadError::TooLarge);
        }
        let start = self.start;
        self.consume(len);
        let text =
            std::str::from_utf8(&self.buf[start..start + len]).map_err(|_| HeadError::NotUtf8)?;
        Ok(HeadLines { rest: text })
    }

    /// A body of `len` bytes: what is buffered, then the rest read from `r`
    /// directly into the body.
    ///
    /// # Errors
    /// The read's error; `UnexpectedEof` if the peer closed first.
    pub(crate) fn read_body(&mut self, r: &mut impl Read, len: usize) -> std::io::Result<Vec<u8>> {
        let take = len.min(self.end - self.start);
        let mut body = Vec::with_capacity(len);
        body.extend_from_slice(&self.buffered()[..take]);
        self.consume(take);
        if take < len {
            body.resize(len, 0);
            r.read_exact(&mut body[take..])?;
        }
        Ok(body)
    }
}

/// The lines of one header block, without their `\r\n` (or bare `\n`)
/// terminators, ending before the blank line.
#[derive(Debug)]
pub(crate) struct HeadLines<'a> {
    rest: &'a str,
}

impl<'a> Iterator for HeadLines<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let (line, rest) = self.rest.split_once('\n')?;
        self.rest = rest;
        let line = line.strip_suffix('\r').unwrap_or(line);
        (!line.is_empty()).then_some(line)
    }
}

/// Read one request: its head from `buf` (filled from `r` as needed), then
/// its body.
///
/// # Errors
/// See [`ParseError`]; `ConnectionClosed` is the *clean* end of a keep-alive
/// connection, everything else is a real fault.
pub(crate) fn read_request(
    buf: &mut RecvBuf,
    r: &mut impl Read,
    limits: &ReadLimits,
) -> Result<Request, ParseError> {
    let mut lines = buf
        .read_head(r, limits.max_header_bytes)
        .map_err(|e| match e {
            HeadError::Closed => ParseError::ConnectionClosed,
            HeadError::Truncated => ParseError::Malformed("truncated header line".into()),
            HeadError::TooLarge => ParseError::HeadersTooLarge,
            HeadError::NotUtf8 => ParseError::Malformed("non-UTF-8 header bytes".into()),
            HeadError::Io(e) => ParseError::Io(e),
        })?;
    let request_line = lines
        .next()
        .ok_or_else(|| ParseError::Malformed("empty request line".into()))?;
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty() && m.bytes().all(|b| b.is_ascii_uppercase()))
        .ok_or_else(|| ParseError::Malformed("missing method".into()))?
        .to_string();
    let target = parts
        .next()
        .filter(|t| t.starts_with('/'))
        .ok_or_else(|| ParseError::Malformed("missing request target".into()))?;
    let version = parts
        .next()
        .ok_or_else(|| ParseError::Malformed("missing HTTP version".into()))?;
    if parts.next().is_some() {
        return Err(ParseError::Malformed("extra tokens in request line".into()));
    }
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        other => {
            return Err(ParseError::Unsupported(format!("HTTP version {other}")));
        }
    };

    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    // Split on `/` *before* decoding so an encoded slash inside a segment
    // (tenant ids may contain one) is data, not a separator; `+` is a
    // literal in paths, a space only in query strings.
    let segments = raw_path
        .split('/')
        .filter(|s| !s.is_empty())
        .map(|s| percent_decode(s, false))
        .collect::<Option<Vec<String>>>()
        .ok_or_else(|| ParseError::Malformed("bad percent-encoding in path".into()))?;
    let path = raw_path.to_string();
    let mut query = Vec::new();
    if let Some(raw_query) = raw_query {
        for pair in raw_query.split('&').filter(|p| !p.is_empty()) {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            let k = percent_decode(k, true)
                .ok_or_else(|| ParseError::Malformed("bad percent-encoding in query".into()))?;
            let v = percent_decode(v, true)
                .ok_or_else(|| ParseError::Malformed("bad percent-encoding in query".into()))?;
            query.push((k, v));
        }
    }

    let mut headers = Vec::new();
    let mut chunked = false;
    let mut length: Option<&str> = None;
    let mut lengths = 0usize;
    for line in lines {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ParseError::Malformed("header without ':'".into()))?;
        if name.is_empty() || name.contains(' ') {
            return Err(ParseError::Malformed("bad header name".into()));
        }
        let value = value.trim();
        if name.eq_ignore_ascii_case("transfer-encoding") {
            chunked = true;
        } else if name.eq_ignore_ascii_case("content-length") {
            lengths += 1;
            length = Some(value);
        }
        headers.push((name.to_ascii_lowercase(), value.to_string()));
    }

    if chunked {
        return Err(ParseError::Unsupported("Transfer-Encoding".into()));
    }
    if lengths > 1 {
        return Err(ParseError::Malformed(
            "multiple Content-Length headers".into(),
        ));
    }
    let body = match length {
        None => Vec::new(),
        Some(raw) => {
            if raw.is_empty() || !raw.bytes().all(|b| b.is_ascii_digit()) {
                return Err(ParseError::Malformed("non-numeric Content-Length".into()));
            }
            let declared: u64 = raw
                .parse()
                .map_err(|_| ParseError::Malformed("Content-Length out of range".into()))?;
            if declared > limits.max_body_bytes as u64 {
                return Err(ParseError::BodyTooLarge);
            }
            buf.read_body(r, declared as usize)
                .map_err(ParseError::Io)?
        }
    };

    Ok(Request {
        method,
        path,
        segments,
        query,
        headers,
        body,
        http11,
    })
}

/// Decode `%xx` sequences in one path segment or query component;
/// `plus_as_space` additionally maps `+` to a space (query strings only).
fn percent_decode(s: &str, plus_as_space: bool) -> Option<String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hi = hex_val(*bytes.get(i + 1)?)?;
                let lo = hex_val(*bytes.get(i + 2)?)?;
                out.push(hi * 16 + lo);
                i += 3;
            }
            b'+' if plus_as_space => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).ok()
}

fn hex_val(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

/// One HTTP response ready to serialize.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code (reason phrase derived from it).
    pub status: u16,
    /// Extra headers (`Content-Length`, `Content-Type` and `Connection` are
    /// managed by the writer).  Names are the server's header constants.
    pub headers: Vec<(&'static str, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
    /// `Content-Type` of the body.
    pub content_type: &'static str,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Self {
            status,
            headers: Vec::new(),
            body: body.into_bytes(),
            content_type: "application/json",
        }
    }

    /// A binary response (`application/octet-stream`) — the sketch-transfer
    /// frames of the replication sync endpoints.
    pub fn octets(status: u16, body: Vec<u8>) -> Self {
        Self {
            status,
            headers: Vec::new(),
            body,
            content_type: "application/octet-stream",
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: String) -> Self {
        Self {
            status,
            headers: Vec::new(),
            body: body.into_bytes(),
            content_type: "text/plain; charset=utf-8",
        }
    }

    /// A typed JSON error response, `{"error":{"code":...,"message":...}}`,
    /// with the code derived from the status via [`default_error_code`].
    /// Every error body the server emits goes through here (or
    /// [`Response::error_coded`]), so clients can branch on one stable
    /// machine-readable `code` across all endpoints.
    pub fn error(status: u16, message: &str) -> Self {
        Self::error_coded(status, default_error_code(status), message)
    }

    /// A typed JSON error response with an explicit `code` (for statuses
    /// that carry more than one distinct error kind, e.g. the plan
    /// endpoint's `invalid_plan` vs `needs_coalesce` under 400).
    pub fn error_coded(status: u16, code: &str, message: &str) -> Self {
        let mut body = String::from("{\"error\":{\"code\":");
        crate::json::write_escaped(&mut body, code);
        body.push_str(",\"message\":");
        crate::json::write_escaped(&mut body, message);
        body.push_str("}}");
        Self::json(status, body)
    }

    /// Add a header.
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Self {
        self.headers.push((name, value.into()));
        self
    }

    /// Send the response to `w` in one write: the status line, headers
    /// (announcing `keep_alive` in `Connection`, the trace id last) and
    /// body are framed into `out` first.  `out` is cleared, not shrunk, so
    /// a connection reuses one across its responses.
    pub fn write_to(
        &self,
        w: &mut impl Write,
        out: &mut Vec<u8>,
        keep_alive: bool,
        trace: TraceId,
    ) -> std::io::Result<()> {
        out.clear();
        // Writing into a `Vec` cannot fail.
        let _ = write!(
            out,
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
            self.status,
            reason_phrase(self.status),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        );
        for (name, value) in &self.headers {
            put_header(out, name, value);
        }
        let _ = write!(out, "{}: {trace}\r\n", crate::server::TRACE_HEADER);
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
        w.write_all(out)?;
        w.flush()
    }
}

/// Append one `name: value` header line.
pub(crate) fn put_header(out: &mut Vec<u8>, name: &str, value: &str) {
    out.extend_from_slice(name.as_bytes());
    out.extend_from_slice(b": ");
    out.extend_from_slice(value.as_bytes());
    out.extend_from_slice(b"\r\n");
}

/// Stable machine-readable error code for a status (the `code` field of
/// the `{"error":{...}}` body when the emitter doesn't pick a finer one).
pub fn default_error_code(status: u16) -> &'static str {
    match status {
        400 => "bad_request",
        404 => "not_found",
        405 => "method_not_allowed",
        408 => "timeout",
        411 => "length_required",
        421 => "wrong_owner",
        413 => "payload_too_large",
        431 => "headers_too_large",
        500 => "internal",
        501 => "unsupported",
        503 => "overloaded",
        _ => "error",
    }
}

/// Reason phrase for the status codes this server emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        411 => "Length Required",
        421 => "Misdirected Request",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_decoding() {
        // Query components: `+` is a space.
        assert_eq!(percent_decode("a%20b+c", true).as_deref(), Some("a b c"));
        // Path segments: `+` is a literal plus; %2F is a literal slash
        // *inside* the segment (splitting already happened).
        assert_eq!(percent_decode("a%20b+c", false).as_deref(), Some("a b+c"));
        assert_eq!(percent_decode("a%2Fb", false).as_deref(), Some("a/b"));
        assert_eq!(percent_decode("caf%C3%A9", false).as_deref(), Some("café"));
        assert!(percent_decode("%zz", false).is_none());
        assert!(percent_decode("%2", false).is_none());
        assert!(
            percent_decode("%ff", false).is_none(),
            "invalid UTF-8 rejected"
        );
    }

    #[test]
    fn reason_phrases_cover_emitted_codes() {
        for code in [
            200u16, 400, 404, 405, 408, 411, 413, 421, 431, 500, 501, 503,
        ] {
            assert_ne!(reason_phrase(code), "Unknown", "{code}");
        }
        assert_eq!(reason_phrase(418), "Unknown");
    }

    #[test]
    fn response_serialization_is_framed() {
        let trace = TraceId::from_raw(0xab).unwrap();
        let mut sent = Vec::new();
        Response::text(404, "gone".into())
            .with_header("x-opaq-owner", "g1")
            .write_to(&mut sent, &mut Vec::new(), true, trace)
            .unwrap();
        assert_eq!(
            String::from_utf8(sent).unwrap(),
            "HTTP/1.1 404 Not Found\r\ncontent-type: text/plain; charset=utf-8\r\n\
             content-length: 4\r\nconnection: keep-alive\r\nx-opaq-owner: g1\r\n\
             x-opaq-trace-id: 00000000000000ab\r\n\r\ngone"
        );
    }

    /// A `Write` that counts its `write` calls.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_to_makes_one_write_for_head_and_body() {
        let resp =
            Response::json(200, "{\"ok\":true}".to_string()).with_header("x-opaq-version", "7");
        let trace = TraceId::from_raw(1).unwrap();
        let mut w = CountingWriter::default();
        // The reused buffer still holds the previous response.
        let mut out = b"HTTP/1.1 503 stale".to_vec();
        resp.write_to(&mut w, &mut out, false, trace).unwrap();
        assert_eq!(w.writes, 1);
        assert_eq!(w.bytes, out);
        let text = String::from_utf8(w.bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("content-length: 11\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
    }

    /// A reader that hands out its bytes in fixed pieces, one per `read`.
    struct Pieces<'a> {
        pieces: std::collections::VecDeque<&'a [u8]>,
    }

    impl<'a> Pieces<'a> {
        fn new(pieces: impl IntoIterator<Item = &'a [u8]>) -> Self {
            Self {
                pieces: pieces.into_iter().collect(),
            }
        }

        fn bytewise(bytes: &'a [u8]) -> Self {
            Self::new(bytes.chunks(1))
        }
    }

    impl Read for Pieces<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let Some(piece) = self.pieces.pop_front() else {
                return Ok(0);
            };
            let n = piece.len().min(buf.len());
            buf[..n].copy_from_slice(&piece[..n]);
            if n < piece.len() {
                self.pieces.push_front(&piece[n..]);
            }
            Ok(n)
        }
    }

    fn parse(r: &mut impl Read, limits: &ReadLimits) -> Result<Request, ParseError> {
        read_request(&mut RecvBuf::new(), r, limits)
    }

    const POST: &[u8] = b"POST /v1/a%2Fb/ev/quantile_batch?x=1+2 HTTP/1.1\r\n\
        Host: h\r\nContent-Length: 14\r\n\r\n{\"phis\":[0.5]}";

    #[test]
    fn a_request_split_into_single_bytes_parses_whole() {
        let request = parse(&mut Pieces::bytewise(POST), &ReadLimits::default()).unwrap();
        assert_eq!(request.method, "POST");
        assert_eq!(request.path, "/v1/a%2Fb/ev/quantile_batch");
        assert_eq!(request.segments, ["v1", "a/b", "ev", "quantile_batch"]);
        assert_eq!(request.query, [("x".to_string(), "1 2".to_string())]);
        assert_eq!(request.header("host"), Some("h"));
        assert_eq!(request.header("content-length"), Some("14"));
        assert_eq!(request.body, b"{\"phis\":[0.5]}");
        assert!(request.http11);
    }

    #[test]
    fn a_body_arriving_after_its_head_still_parses() {
        let split = POST.len() - 14;
        let mut r = Pieces::new([&POST[..split], &POST[split..split + 4], &POST[split + 4..]]);
        let request = parse(&mut r, &ReadLimits::default()).unwrap();
        assert_eq!(request.body, b"{\"phis\":[0.5]}");
    }

    #[test]
    fn pipelined_requests_parse_in_order_from_one_read() {
        let mut bytes = POST.to_vec();
        bytes.extend_from_slice(b"GET /healthz HTTP/1.0\nconnection: Keep-Alive\n\nGET /b");
        let mut r = Pieces::new([bytes.as_slice()]);
        let mut buf = RecvBuf::new();
        let limits = ReadLimits::default();
        let first = read_request(&mut buf, &mut r, &limits).unwrap();
        assert_eq!(first.body, b"{\"phis\":[0.5]}");
        let second = read_request(&mut buf, &mut r, &limits).unwrap();
        assert_eq!(
            (second.method.as_str(), second.path.as_str()),
            ("GET", "/healthz")
        );
        assert!(!second.http11 && second.wants_keep_alive());
        assert_eq!(
            buf.buffered(),
            b"GET /b",
            "the third request stays buffered"
        );
        assert!(matches!(
            read_request(&mut buf, &mut r, &limits),
            Err(ParseError::Malformed(_))
        ));
        assert!(matches!(
            parse(&mut Pieces::new([]), &limits),
            Err(ParseError::ConnectionClosed)
        ));
    }

    /// A GET whose header block, blank line included, is `len` bytes.
    fn head_of_len(len: usize) -> Vec<u8> {
        let fixed = "GET / HTTP/1.1\r\nx-pad: \r\n\r\n".len();
        format!(
            "GET / HTTP/1.1\r\nx-pad: {}\r\n\r\n",
            "p".repeat(len - fixed)
        )
        .into_bytes()
    }

    #[test]
    fn the_header_cap_admits_exactly_max_bytes() {
        // Below, at and above the receive buffer's initial size.
        for max in [200, RECV_BUF_BYTES, 3 * RECV_BUF_BYTES + 5] {
            let limits = ReadLimits {
                max_header_bytes: max,
                ..ReadLimits::default()
            };
            let at = head_of_len(max);
            let request = parse(&mut Pieces::new([at.as_slice()]), &limits).unwrap();
            assert_eq!(request.header("x-pad").map(str::len), Some(max - 27));
            let request = parse(&mut Pieces::bytewise(&at), &limits).unwrap();
            assert_eq!(request.header("x-pad").map(str::len), Some(max - 27));
            let over = head_of_len(max + 1);
            assert!(
                matches!(
                    parse(&mut Pieces::new([over.as_slice()]), &limits),
                    Err(ParseError::HeadersTooLarge)
                ),
                "max {max}"
            );
            // A head that never ends is cut off at the cap, not read forever.
            let endless = vec![b'x'; 4 * max];
            assert!(matches!(
                parse(&mut Pieces::bytewise(&endless), &limits),
                Err(ParseError::HeadersTooLarge)
            ));
        }
    }

    #[test]
    fn framing_errors_keep_their_variants() {
        let limits = ReadLimits {
            max_header_bytes: 1024,
            max_body_bytes: 4,
        };
        let case = |raw: &[u8]| parse(&mut Pieces::new([raw]), &limits);
        assert!(matches!(
            case(b"GET / HTTP/1.1\r\nhost: h"),
            Err(ParseError::Malformed(m)) if m == "truncated header line"
        ));
        assert!(matches!(
            case(b"\r\n\r\n"),
            Err(ParseError::Malformed(m)) if m == "empty request line"
        ));
        assert!(matches!(
            case(b"GET / HTTP/1.1\r\nx: \xff\r\n\r\n"),
            Err(ParseError::Malformed(m)) if m == "non-UTF-8 header bytes"
        ));
        assert!(matches!(
            case(b"POST / HTTP/1.1\r\ncontent-length: 5\r\n\r\nabcde"),
            Err(ParseError::BodyTooLarge)
        ));
        assert!(matches!(
            case(b"POST / HTTP/1.1\r\ncontent-length: 1\r\ncontent-length: 1\r\n\r\na"),
            Err(ParseError::Malformed(m)) if m == "multiple Content-Length headers"
        ));
        assert!(matches!(
            case(b"POST / HTTP/1.1\r\ncontent-length: 1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(ParseError::Unsupported(_))
        ));
        assert!(matches!(
            case(b"POST / HTTP/1.1\r\ncontent-length: 3\r\n\r\nab"),
            Err(ParseError::Io(e)) if e.kind() == std::io::ErrorKind::UnexpectedEof
        ));
    }

    #[test]
    fn keep_alive_tokens_match_without_case_and_close_wins() {
        let wants = |http11: bool, connection: Option<&str>| {
            Request {
                method: "GET".into(),
                path: "/".into(),
                segments: Vec::new(),
                query: Vec::new(),
                headers: connection
                    .map(|v| ("connection".to_string(), v.to_string()))
                    .into_iter()
                    .collect(),
                body: Vec::new(),
                http11,
            }
            .wants_keep_alive()
        };
        assert!(wants(true, None));
        assert!(!wants(false, None));
        assert!(!wants(true, Some("Close")));
        assert!(!wants(true, Some("keep-alive, CLOSE")));
        assert!(wants(false, Some("Keep-Alive")));
        assert!(wants(false, Some("upgrade, keep-alive")));
        assert!(wants(true, Some("upgrade")));
        assert!(!wants(false, Some("upgrade")));
    }

    #[test]
    fn error_bodies_are_typed_json_objects() {
        let resp = Response::error(404, "no such \"entry\"");
        assert_eq!(
            String::from_utf8(resp.body).unwrap(),
            "{\"error\":{\"code\":\"not_found\",\"message\":\"no such \\\"entry\\\"\"}}"
        );
        let resp = Response::error_coded(400, "needs_coalesce", "add '| coalesce'");
        assert_eq!(
            String::from_utf8(resp.body).unwrap(),
            "{\"error\":{\"code\":\"needs_coalesce\",\"message\":\"add '| coalesce'\"}}"
        );
    }

    #[test]
    fn every_emitted_status_has_a_stable_code() {
        for code in [400u16, 404, 405, 408, 411, 413, 421, 431, 500, 501, 503] {
            assert_ne!(default_error_code(code), "error", "{code}");
        }
        assert_eq!(default_error_code(418), "error");
    }
}
