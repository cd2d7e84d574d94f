//! The sweep-service client: `st submit` / `st status` / `st serve stop`.
//!
//! Thin, dependency-free counterpart to [`crate::service`]: opens one
//! TCP connection per request and speaks the same minimal HTTP/1.1.
//! Every record stream — a `/submit` sweep and a `/points` range — is
//! read by one line reader with one count check against the
//! `X-Sweep-Records` head, and each complete record line goes to the
//! caller as it arrives. The bytes a [`submit`] writes are exactly the
//! bytes a local `st run` of the same spec would put in
//! `<out>/<name>.jsonl`; a torn last record is never passed on.
//!
//! Errors are a single [`ClientError`] string, already prefixed with
//! enough context (address, HTTP status, the server's structured
//! `error` message) for the CLI to print verbatim and exit non-zero.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

use crate::json::Json;

/// Errors produced while talking to a sweep service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientError(pub String);

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ClientError {}

fn err<T>(msg: impl Into<String>) -> Result<T, ClientError> {
    Err(ClientError(msg.into()))
}

/// Submits a sweep spec (the raw TOML/JSON text, exactly as `st run`
/// would read it from a file) to the service at `addr` and copies the
/// streamed JSONL response into `sink` as records arrive. Returns the
/// number of body bytes streamed.
///
/// # Errors
///
/// As [`submit_each`], plus a failed write to `sink`.
pub fn submit(addr: &str, spec_text: &str, sink: &mut dyn Write) -> Result<u64, ClientError> {
    let mut bytes = 0;
    submit_each(addr, spec_text, &mut |record| {
        writeln!(sink, "{record}")
            .map_err(|e| ClientError(format!("cannot write streamed records: {e}")))?;
        bytes += record.len() as u64 + 1;
        Ok(())
    })?;
    Ok(bytes)
}

/// Submits a sweep spec and hands each streamed record line, without
/// its newline, to `on_record` as it arrives. Returns the number of
/// records.
///
/// The response body is `Connection: close` delimited, so a server
/// dying mid-stream looks like a clean end-of-stream at the socket
/// level; the server therefore announces the exact record count in an
/// `X-Sweep-Records` header, and a stream short of it is an error, never
/// a silently short sweep.
///
/// # Errors
///
/// Connection failures, malformed replies, a stream without the
/// `X-Sweep-Records` head, truncated streams, any non-200 response (the
/// server's structured error message is folded into the
/// [`ClientError`]), and the first error `on_record` returns.
pub fn submit_each(
    addr: &str,
    spec_text: &str,
    on_record: &mut dyn FnMut(&str) -> Result<(), ClientError>,
) -> Result<u64, ClientError> {
    let reply = request(addr, "POST", "/submit", spec_text, HEAD_TIMEOUT)?;
    // The head arrived; from here the gaps between records are bounded
    // only by simulation time, so the body reads with no deadline (see
    // HEAD_TIMEOUT for why that is safe).
    read_records(addr, reply, None, on_record)
}

/// Fetches a fingerprint sub-range of an expanded grid from the service
/// at `addr` (`GET /points?range=lo-hi` with the spec as the body) and
/// hands each shard `point` record line (without its newline) to
/// `on_record` as it arrives, in `(fingerprint, seq)` order. Returns
/// the number of records delivered.
///
/// `read_timeout` bounds the connect, the wait for the response head and
/// each read *between* records. `None` waits up to the client's 30 s
/// head timeout for the connect and the head, then forever between
/// records. The fleet coordinator passes a finite deadline so a wedged
/// worker is detected and its range failed over, while simple callers
/// can wait out arbitrarily slow points.
///
/// # Errors
///
/// Connection failures, malformed replies, non-200 responses, a stream
/// without the `X-Sweep-Records` head, a record count short of its
/// announcement, or the first `Err` returned by `on_record` (a
/// validation failure, folded into the [`ClientError`]).
pub fn fetch_points(
    addr: &str,
    spec_text: &str,
    range: (u64, u64),
    read_timeout: Option<std::time::Duration>,
    on_record: &mut dyn FnMut(&str) -> Result<(), String>,
) -> Result<u64, ClientError> {
    let path = format!("/points?range={}", crate::shard::format_fp_range(range.0, range.1));
    let reply = request(addr, "GET", &path, spec_text, read_timeout.unwrap_or(HEAD_TIMEOUT))?;
    read_records(addr, reply, read_timeout, &mut |record| {
        on_record(record).map_err(|m| ClientError(format!("bad point record from {addr}: {m}")))
    })
}

/// The one reader of a record stream: refuses a reply that announces
/// no record count, hands each line of the body, without its newline,
/// to `on_record`, then checks the count against the announcement. A
/// torn last line (the server died mid-record) is never delivered; the
/// count check reports it.
fn read_records(
    addr: &str,
    reply: Reply,
    read_timeout: Option<std::time::Duration>,
    on_record: &mut dyn FnMut(&str) -> Result<(), ClientError>,
) -> Result<u64, ClientError> {
    let (mut reader, Some(expected)) = (reply.reader, reply.records) else {
        return err(format!(
            "record stream from {addr} has no X-Sweep-Records head, so its end cannot be checked"
        ));
    };
    reader
        .get_ref()
        .set_read_timeout(read_timeout)
        .map_err(|e| ClientError(format!("cannot configure connection to {addr}: {e}")))?;
    let (mut records, mut line) = (0u64, String::new());
    loop {
        line.clear();
        reader
            .read_line(&mut line)
            .map_err(|e| ClientError(format!("stream from {addr} interrupted: {e}")))?;
        let Some(record) = line.strip_suffix('\n') else { break };
        on_record(record)?;
        records += 1;
    }
    if records != expected {
        return err(format!(
            "truncated stream from {addr}: got {records} of {expected} records \
             (did the server die mid-sweep?)"
        ));
    }
    Ok(records)
}

/// Fetches the service's status counters: the raw one-line JSON body of
/// `GET /status`.
///
/// # Errors
///
/// Connection failures, malformed replies, non-200 responses.
pub fn status(addr: &str) -> Result<String, ClientError> {
    read_to_string(addr, request(addr, "GET", "/status", "", HEAD_TIMEOUT)?.reader)
}

/// Asks the service at `addr` to shut down gracefully (`POST
/// /shutdown`): it finishes every in-flight stream, then exits. Returns
/// the server's acknowledgement body.
///
/// # Errors
///
/// Connection failures, malformed replies, non-200 responses.
pub fn shutdown(addr: &str) -> Result<String, ClientError> {
    read_to_string(addr, request(addr, "POST", "/shutdown", "", HEAD_TIMEOUT)?.reader)
}

fn read_to_string(addr: &str, mut reader: BufReader<TcpStream>) -> Result<String, ClientError> {
    let mut body = String::new();
    reader
        .read_to_string(&mut body)
        .map_err(|e| ClientError(format!("reply from {addr} interrupted: {e}")))?;
    Ok(body)
}

/// A parsed 2xx response head: the reader positioned at the start of
/// the body, plus the `X-Sweep-Records` count when the server sent one.
struct Reply {
    reader: BufReader<TcpStream>,
    records: Option<u64>,
}

/// How long to wait for the connection and the response *head*, unless
/// the caller gives its own bound ([`fetch_points`]). A submission's
/// streamed body gets no deadline — gaps between records are bounded
/// only by the instruction budget of the slowest point, and a server
/// that actually dies surfaces as EOF/reset, which the record-count
/// check converts into a hard error.
const HEAD_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(30);

/// Sends one request and parses the response head, waiting at most
/// `head_timeout` for the connection and for each read of the head. On
/// 2xx, returns the reader positioned at the start of the body
/// (`Connection: close` delimited); otherwise folds the server's error
/// body into the error.
fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
    head_timeout: std::time::Duration,
) -> Result<Reply, ClientError> {
    // Resolve ourselves so the connect can carry a timeout: a peer that
    // accepts but never serves (a daemon mid-drain, a non-HTTP
    // listener) must produce a diagnostic, not an infinite hang.
    let socket_addr = std::net::ToSocketAddrs::to_socket_addrs(addr)
        .map_err(|e| ClientError(format!("cannot resolve sweep service address {addr}: {e}")))?
        .next()
        .ok_or_else(|| ClientError(format!("sweep service address {addr} resolves to nothing")))?;
    let mut stream = TcpStream::connect_timeout(&socket_addr, head_timeout)
        .map_err(|e| ClientError(format!("cannot connect to sweep service at {addr}: {e}")))?;
    stream
        .set_read_timeout(Some(head_timeout))
        .map_err(|e| ClientError(format!("cannot configure connection to {addr}: {e}")))?;
    // A server rejecting the request early (413 on an oversized body,
    // say) closes its read side while we are still writing; the write
    // fails with a pipe/reset error, but the structured reply we want
    // is usually already on the wire — fall through and read it.
    let sent = write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    if let Err(e) = &sent {
        use std::io::ErrorKind;
        if !matches!(
            e.kind(),
            ErrorKind::BrokenPipe | ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted
        ) {
            return err(format!("cannot send request to {addr}: {e}"));
        }
    }

    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let got_reply = reader.read_line(&mut line);
    match (got_reply, &sent) {
        (Ok(0), Err(e)) => {
            // The connection died and nothing came back: report the send
            // failure, the more truthful of the two.
            return err(format!("cannot send request to {addr}: {e}"));
        }
        (Ok(_), _) => {}
        (Err(read_err), _) => {
            return err(format!("cannot read reply from {addr}: {read_err}"));
        }
    }
    // `HTTP/1.1 200 OK` — the status code is the second token.
    let status: u16 = match line.split_whitespace().nth(1).map(str::parse) {
        Some(Ok(code)) => code,
        _ => return err(format!("malformed reply from {addr}: `{}`", line.trim())),
    };
    let mut records = None;
    loop {
        let mut header = String::new();
        reader
            .read_line(&mut header)
            .map_err(|e| ClientError(format!("cannot read reply headers from {addr}: {e}")))?;
        let header = header.trim();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.trim().eq_ignore_ascii_case("x-sweep-records") {
                records = value.trim().parse().ok();
            }
        }
    }
    if !(200..300).contains(&status) {
        let mut body = String::new();
        let _ = reader.read_to_string(&mut body);
        // Prefer the structured error message; fall back to raw bytes.
        let message = Json::parse(body.trim())
            .ok()
            .and_then(|j| j.get("error").and_then(|e| e.as_str().ok().map(str::to_string)))
            .unwrap_or_else(|| body.trim().to_string());
        return err(format!("sweep service at {addr} replied {status}: {message}"));
    }
    Ok(Reply { reader, records })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A one-shot fake server replying with canned bytes, for failure
    /// modes the real server cannot be asked to produce.
    fn fake_server(reply: &'static str) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut drain = [0u8; 1024];
            let _ = std::io::Read::read(&mut stream, &mut drain);
            stream.write_all(reply.as_bytes()).expect("reply");
            // Drain the rest of the request before closing: a socket
            // closed with unread input resets the connection, and the
            // client could then see the reset instead of the reply.
            let _ = stream.shutdown(std::net::Shutdown::Write);
            let _ = std::io::copy(&mut stream, &mut std::io::sink());
        });
        addr
    }

    #[test]
    fn submit_detects_a_truncated_stream() {
        // The server promised 5 records but died after 2 and part of a
        // third.
        let addr = fake_server(
            "HTTP/1.1 200 OK\r\nX-Sweep-Records: 5\r\nConnection: close\r\n\r\n\
             {\"kind\":\"report\"}\n{\"kind\":\"report\"}\n{\"kind\":\"rep",
        );
        let mut out = Vec::new();
        let e = submit(&addr, "name = \"t\"", &mut out).expect_err("truncation detected");
        assert!(e.0.contains("got 2 of 5 records"), "{e}");
        // The complete records that did arrive were still relayed; the
        // torn one was not.
        assert_eq!(String::from_utf8(out).expect("utf8").lines().count(), 2);
    }

    #[test]
    fn submit_accepts_a_complete_stream_and_malformed_heads_fail() {
        let addr = fake_server(
            "HTTP/1.1 200 OK\r\nX-Sweep-Records: 1\r\nConnection: close\r\n\r\n\
             {\"kind\":\"report\"}\n",
        );
        let mut out = Vec::new();
        let bytes = submit(&addr, "name = \"t\"", &mut out).expect("complete stream");
        assert_eq!(bytes, out.len() as u64);
        assert_eq!(out, b"{\"kind\":\"report\"}\n");

        let addr = fake_server("not http at all\r\n");
        let e = submit(&addr, "name = \"t\"", &mut Vec::new()).expect_err("malformed head");
        assert!(e.0.contains("malformed reply"), "{e}");
    }

    /// A one-point spec, the body of the requests below (the fake
    /// servers ignore it).
    const ONE_POINT_SPEC: &str = "name = \"t\"\nworkloads = [\"go\"]\nbaseline = false\n\
                                  axis.instructions = [400]\n";

    #[test]
    fn record_streams_without_the_records_head_are_refused() {
        // A server that omits X-Sweep-Records gives no way to tell a
        // complete stream from one cut short, so even a whole-looking
        // stream is refused, by both readers, before any record passes.
        let headless = "HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n{\"kind\":\"report\"}\n";
        let mut out = Vec::new();
        let e = submit(&fake_server(headless), ONE_POINT_SPEC, &mut out).expect_err("no head");
        assert!(e.0.contains("no X-Sweep-Records head"), "{e}");
        assert!(out.is_empty(), "nothing relayed");
        let e =
            fetch_points(&fake_server(headless), ONE_POINT_SPEC, (0, u64::MAX), None, &mut |_| {
                panic!("a record passed")
            })
            .expect_err("no head");
        assert!(e.0.contains("no X-Sweep-Records head"), "{e}");
    }

    #[test]
    fn backpressure_replies_surface_as_structured_client_errors() {
        let addr = fake_server(
            "HTTP/1.1 429 Too Many Requests\r\nContent-Type: application/json\r\n\
             Connection: close\r\n\r\n\
             {\"kind\":\"error\",\"error\":\"fleet at capacity: 4 submissions in flight (limit 4); retry later\"}",
        );
        let e = submit(&addr, ONE_POINT_SPEC, &mut Vec::new()).expect_err("backpressure");
        assert!(e.0.contains("replied 429"), "{e}");
        assert!(e.0.contains("fleet at capacity"), "{e}");
        assert!(e.0.contains("retry later"), "{e}");
    }

    #[test]
    fn fetch_points_delivers_records_and_detects_short_and_torn_streams() {
        let record = "{\"kind\":\"point\",\"seq\":0,\"fp\":\"00\",\"hash\":\"00\",\"report\":{}}";
        let full = format!(
            "HTTP/1.1 200 OK\r\nX-Sweep-Records: 2\r\nConnection: close\r\n\r\n{record}\n{record}\n"
        );
        let addr = fake_server(Box::leak(full.into_boxed_str()));
        let mut got = Vec::new();
        let n = fetch_points(&addr, ONE_POINT_SPEC, (0, u64::MAX), None, &mut |line| {
            got.push(line.to_string());
            Ok(())
        })
        .expect("complete range");
        assert_eq!(n, 2);
        assert_eq!(got, vec![record.to_string(), record.to_string()]);

        // Promised 3, delivered 2 — plus a torn half-record that must
        // never reach the callback.
        let short = format!(
            "HTTP/1.1 200 OK\r\nX-Sweep-Records: 3\r\nConnection: close\r\n\r\n{record}\n{record}\n{{\"kind\":\"poi"
        );
        let addr = fake_server(Box::leak(short.into_boxed_str()));
        let mut delivered = 0;
        let e = fetch_points(&addr, ONE_POINT_SPEC, (0, u64::MAX), None, &mut |_| {
            delivered += 1;
            Ok(())
        })
        .expect_err("truncation detected");
        assert!(e.0.contains("got 2 of 3 records"), "{e}");
        assert_eq!(delivered, 2, "torn tail never delivered");

        // A callback rejection (tamper detection upstream) aborts with
        // its message folded in.
        let addr = fake_server(
            "HTTP/1.1 200 OK\r\nX-Sweep-Records: 1\r\nConnection: close\r\n\r\nnonsense\n",
        );
        let e = fetch_points(&addr, ONE_POINT_SPEC, (0, u64::MAX), None, &mut |_| {
            Err("not a point record".to_string())
        })
        .expect_err("callback rejection");
        assert!(e.0.contains("bad point record"), "{e}");
        assert!(e.0.contains("not a point record"), "{e}");
    }
}
