//! A deliberately small HTTP/1.1 layer on `std::net`.
//!
//! The build environment has no crates.io access, so the server speaks just
//! enough HTTP for its JSON job API: request line, headers, `Content-Length`
//! bodies, keep-alive. No chunked encoding, no TLS, no pipelining beyond the
//! sequential keep-alive loop. Lines are capped at 8 KiB and requests at 100
//! headers. Anything malformed gets a JSON error response and the connection
//! is closed.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Largest accepted request body. Job specs are small JSON documents; this
/// bound keeps a misbehaving client from ballooning server memory.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// Longest accepted request line or header line, line ending included. A
/// client that never sends a newline is cut off here instead of growing the
/// line buffer without limit.
const MAX_LINE_BYTES: u64 = 8 * 1024;

/// Most header lines accepted in one request.
const MAX_HEADERS: usize = 100;

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method, uppercased by the client (`GET`, `POST`, `DELETE`).
    pub method: String,
    /// Request target path, query string stripped.
    pub path: String,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum ReadError {
    /// The peer closed the connection before a request line (normal end of a
    /// keep-alive session).
    Closed,
    /// The bytes on the wire were not an acceptable HTTP/1.1 request.
    Malformed(String),
    /// The declared body exceeds [`MAX_BODY_BYTES`].
    TooLarge(usize),
    /// Transport error mid-request.
    Io(std::io::Error),
}

/// Reads one line of at most [`MAX_LINE_BYTES`] bytes; `None` at end of
/// stream. A longer line or one that is not UTF-8 is malformed.
fn read_line(reader: &mut BufReader<TcpStream>) -> Result<Option<String>, ReadError> {
    let mut bytes = Vec::new();
    let n = reader
        .by_ref()
        .take(MAX_LINE_BYTES)
        .read_until(b'\n', &mut bytes)
        .map_err(ReadError::Io)?;
    if n == 0 {
        return Ok(None);
    }
    if n as u64 == MAX_LINE_BYTES && !bytes.ends_with(b"\n") {
        return Err(ReadError::Malformed(format!(
            "line longer than {MAX_LINE_BYTES} bytes"
        )));
    }
    String::from_utf8(bytes)
        .map(Some)
        .map_err(|_| ReadError::Malformed("line is not UTF-8".into()))
}

/// Reads one request from a buffered connection.
pub fn read_request(reader: &mut BufReader<TcpStream>) -> Result<Request, ReadError> {
    let Some(line) = read_line(reader)? else {
        return Err(ReadError::Closed);
    };
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| ReadError::Malformed("empty request line".into()))?
        .to_string();
    let target = parts
        .next()
        .ok_or_else(|| ReadError::Malformed("request line has no target".into()))?;
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(ReadError::Malformed(format!(
            "unsupported protocol `{version}`"
        )));
    }
    // Strip any query string: the job API routes on the path alone.
    let path = target.split('?').next().unwrap_or(target).to_string();

    let mut content_length = 0usize;
    // HTTP/1.1 defaults to keep-alive; `Connection: close` opts out.
    let mut keep_alive = !version.starts_with("HTTP/1.0");
    let mut headers = 0;
    loop {
        let Some(header) = read_line(reader)? else {
            return Err(ReadError::Malformed("connection closed mid-headers".into()));
        };
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return Err(ReadError::Malformed(format!(
                "more than {MAX_HEADERS} headers"
            )));
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(ReadError::Malformed(format!("malformed header `{header}`")));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "content-length" => {
                content_length = value
                    .parse()
                    .map_err(|_| ReadError::Malformed(format!("bad content-length `{value}`")))?;
            }
            "connection" => {
                let value = value.to_ascii_lowercase();
                if value.contains("close") {
                    keep_alive = false;
                } else if value.contains("keep-alive") {
                    keep_alive = true;
                }
            }
            _ => {}
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(ReadError::TooLarge(content_length));
    }
    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        reader.read_exact(&mut body).map_err(ReadError::Io)?;
    }
    Ok(Request {
        method,
        path,
        body,
        keep_alive,
    })
}

/// One response to serialize onto the wire.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response body, always JSON in this API.
    pub body: String,
    /// Extra headers, e.g. `Retry-After` on 429.
    pub extra_headers: Vec<(String, String)>,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            body,
            extra_headers: Vec::new(),
        }
    }

    /// A `{"error": …}` response with the given status.
    pub fn error(status: u16, message: &str) -> Response {
        let body = mav_types::Json::object()
            .field("error", message)
            .to_string_pretty();
        Response::json(status, body + "\n")
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &str, value: &str) -> Response {
        self.extra_headers.push((name.into(), value.into()));
        self
    }

    /// The standard reason phrase for the codes this API uses.
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            202 => "Accepted",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            409 => "Conflict",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            _ => "Internal Server Error",
        }
    }
}

/// Writes a response; `keep_alive` picks the `Connection` header.
pub fn write_response(
    stream: &mut TcpStream,
    response: &Response,
    keep_alive: bool,
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: {}\r\n",
        response.status,
        response.reason(),
        response.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in &response.extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    // One write for head + body: two small segments would trip the
    // Nagle/delayed-ACK interaction and add ~40 ms to every response.
    head.push_str(&response.body);
    stream.write_all(head.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// Round-trips raw request bytes through a real socket pair.
    fn parse(raw: &str) -> Result<Request, ReadError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(raw.as_bytes()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(server_side);
        read_request(&mut reader)
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse("POST /jobs HTTP/1.1\r\ncontent-length: 4\r\n\r\n{}ab").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs");
        assert_eq!(req.body, b"{}ab");
        assert!(req.keep_alive);
    }

    #[test]
    fn connection_close_and_queries_are_handled() {
        let req = parse("GET /jobs/3?verbose=1 HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert_eq!(req.path, "/jobs/3");
        assert!(!req.keep_alive);
    }

    #[test]
    fn malformed_requests_are_rejected() {
        assert!(matches!(
            parse("GET /jobs SMTP/9\r\n\r\n"),
            Err(ReadError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET /jobs HTTP/1.1\r\nbroken header\r\n\r\n"),
            Err(ReadError::Malformed(_))
        ));
        let huge = format!(
            "POST /jobs HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(parse(&huge), Err(ReadError::TooLarge(_))));
    }

    #[test]
    fn an_over_long_request_line_is_malformed() {
        let target = "a".repeat(MAX_LINE_BYTES as usize);
        let raw = format!("GET /{target} HTTP/1.1\r\n\r\n");
        assert!(matches!(parse(&raw), Err(ReadError::Malformed(_))));
        // A client that never ends its line is cut off at the bound too.
        let raw = "G".repeat(2 * MAX_LINE_BYTES as usize);
        assert!(matches!(parse(&raw), Err(ReadError::Malformed(_))));
    }

    #[test]
    fn an_over_long_header_is_malformed() {
        // A header line of exactly the bound, line ending included, fits.
        let value = "v".repeat(MAX_LINE_BYTES as usize - "x-long: \r\n".len());
        let raw = format!("GET /jobs HTTP/1.1\r\nx-long: {value}\r\n\r\n");
        assert!(parse(&raw).is_ok());
        let value = "v".repeat(MAX_LINE_BYTES as usize);
        let raw = format!("GET /jobs HTTP/1.1\r\nx-long: {value}\r\n\r\n");
        assert!(matches!(parse(&raw), Err(ReadError::Malformed(_))));
    }

    #[test]
    fn too_many_headers_are_malformed() {
        let headers = |n: usize| {
            let lines: String = (0..n).map(|i| format!("x-h{i}: {i}\r\n")).collect();
            format!("GET /jobs HTTP/1.1\r\n{lines}\r\n")
        };
        assert!(parse(&headers(MAX_HEADERS)).is_ok());
        assert!(matches!(
            parse(&headers(MAX_HEADERS + 1)),
            Err(ReadError::Malformed(_))
        ));
    }

    #[test]
    fn responses_carry_status_and_headers() {
        let r = Response::error(429, "queue full").with_header("retry-after", "1");
        assert_eq!(r.status, 429);
        assert_eq!(r.reason(), "Too Many Requests");
        assert!(r.body.contains("queue full"));
        assert_eq!(r.extra_headers.len(), 1);
    }
}
