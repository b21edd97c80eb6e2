//! A minimal HTTP/1.1 keep-alive client for the job server.

use mav_types::Json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How long one job may take before the client gives up on it, so a wedged
/// server ends the run with failures instead of hanging it.
const JOB_DEADLINE: Duration = Duration::from_secs(30);

/// Status code and body of one response.
#[derive(Debug)]
pub struct Reply {
    /// HTTP status.
    pub status: u16,
    /// Response body.
    pub body: String,
}

/// One persistent connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

fn invalid(message: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message)
}

impl Client {
    /// Connects to `addr`.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one request and reads its response.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<Reply> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: mavperf\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        self.writer.write_all(head.as_bytes())?;
        self.writer.write_all(body.as_bytes())?;
        self.writer.flush()?;

        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid(format!("bad status line {line:?}")))?;
        let mut length = 0usize;
        loop {
            line.clear();
            self.reader.read_line(&mut line)?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    length = value
                        .trim()
                        .parse()
                        .map_err(|_| invalid(format!("bad content-length {value:?}")))?;
                }
            }
        }
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        let body = String::from_utf8(body).map_err(|_| invalid("body is not UTF-8".into()))?;
        Ok(Reply { status, body })
    }
}

/// How one job went, as the client saw it.
#[derive(Debug)]
pub struct JobRun {
    /// The job id the server assigned.
    pub id: u64,
    /// Whether the submission was answered from the cache (200).
    pub cached: bool,
    /// The result document's bytes.
    pub result: String,
}

/// Submits `spec`, polls until the job is done and fetches the result.
/// A refusal (429) or any other non-success status is an error.
pub fn run_job(client: &mut Client, spec: &str) -> Result<JobRun, String> {
    let submitted = client
        .request("POST", "/jobs", spec)
        .map_err(|e| format!("submit: {e}"))?;
    if submitted.status != 200 && submitted.status != 202 {
        return Err(format!("submit: HTTP {}", submitted.status));
    }
    let cached = submitted.status == 200;
    let id = Json::parse(&submitted.body)
        .ok()
        .and_then(|json| json.get("id").and_then(Json::as_i128))
        .and_then(|id| u64::try_from(id).ok())
        .ok_or_else(|| format!("submit reply has no id: {}", submitted.body))?;
    let mut status = submitted.body;
    let path = format!("/jobs/{id}");
    let deadline = Instant::now() + JOB_DEADLINE;
    while !status.contains("\"status\": \"done\"") {
        if Instant::now() > deadline {
            return Err(format!("job {id} not done after {JOB_DEADLINE:?}"));
        }
        std::thread::sleep(Duration::from_micros(500));
        let reply = client
            .request("GET", &path, "")
            .map_err(|e| format!("poll: {e}"))?;
        if reply.status != 200 {
            return Err(format!("poll: HTTP {}", reply.status));
        }
        status = reply.body;
    }
    let reply = client
        .request("GET", &format!("/jobs/{id}/result"), "")
        .map_err(|e| format!("result: {e}"))?;
    if reply.status != 200 {
        return Err(format!("result: HTTP {}", reply.status));
    }
    Ok(JobRun {
        id,
        cached,
        result: reply.body,
    })
}

/// Deletes a finished job, so the server's job table stays bounded.
pub fn delete_job(client: &mut Client, id: u64) -> Result<(), String> {
    let reply = client
        .request("DELETE", &format!("/jobs/{id}"), "")
        .map_err(|e| format!("delete: {e}"))?;
    if reply.status == 200 {
        Ok(())
    } else {
        Err(format!("delete: HTTP {}", reply.status))
    }
}
