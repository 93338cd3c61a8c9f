//! The `serve` subcommand: a line-delimited TCP query service.
//!
//! One process loads a graph once and answers queries from many
//! connections, sharing a single [`QueryCache`] (plans + small answer
//! sets) and the process-wide worker pool across all of them — the
//! serving layer this repo's PSPACE-hard per-query costs demand.
//!
//! ## Protocol
//!
//! Requests are single lines; responses are a header line, zero or more
//! answer-tuple lines, and a lone `.` terminator.
//!
//! ```text
//! PING                      → pong
//! STATS                     → ok stats, key=value lines, .
//! QUIT                      → ok bye, . — closes the connection
//! SHUTDOWN                  → ok shutting down, . — stops the server
//! [--flag value ...] query  → ok answers=N shown=M engine=E cached=O ... / err ...
//! ```
//!
//! Query lines may lead with any of `--engine`, `--k`, `--limit`,
//! `--timeout-ms`, `--max-steps`, `--max-mem-mb` to override the
//! server-wide defaults for that one request. Every request runs under
//! its own [`Governor`]; a client that disconnects mid-evaluation trips
//! the governor's cancel flag, so abandoned queries stop burning the
//! pool (and, being aborted, never poison the cache).

use crate::{parse_engine, parse_graph, CmdError, EvalCmdOptions};
use cxrpq_core::{CacheConfig, EvalOptions, Governor, QueryCache, ServedAnswers, Verdict};
use cxrpq_graph::GraphDb;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

/// How often a request handler checks its socket for a disconnect while
/// the query evaluates.
const WATCH_TICK: Duration = Duration::from_millis(25);

/// Longest request line read, in bytes without the newline. A client that
/// sends more without a newline gets `err request line too long` and the
/// connection closes, so no client can make the server buffer without
/// bound.
pub const MAX_REQUEST_LINE: usize = 64 * 1024;

/// Configuration for [`run_serve`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address. Port 0 picks an ephemeral port; the bound address is
    /// handed to `on_ready` either way.
    pub addr: String,
    /// Server-wide per-request defaults (engine, k, limit, governor
    /// budgets), overridable per request line.
    pub defaults: EvalCmdOptions,
    /// Query-cache sizing.
    pub cache: CacheConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7878".to_string(),
            defaults: EvalCmdOptions {
                // A server should never let one request hog the process
                // forever; clients can still raise or lower this per line.
                timeout_ms: Some(30_000),
                ..EvalCmdOptions::default()
            },
            cache: CacheConfig::default(),
        }
    }
}

/// Shared state for all connection threads.
struct Server {
    db: GraphDb,
    cache: QueryCache,
    defaults: EvalCmdOptions,
    addr: SocketAddr,
    shutdown: AtomicBool,
    requests: AtomicU64,
    errors: AtomicU64,
    aborted: AtomicU64,
}

// Connection threads share the server through an `Arc`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Server>();
};

/// Runs the query service until a client sends `SHUTDOWN`. Calls
/// `on_ready` with the bound address once the listener is accepting
/// (port 0 in `cfg.addr` is resolved here), and returns a final report.
pub fn run_serve(
    graph_text: &str,
    cfg: ServeConfig,
    on_ready: impl FnOnce(SocketAddr),
) -> Result<String, CmdError> {
    let ServeConfig {
        addr: bind_addr,
        defaults,
        cache,
    } = cfg;
    let (db, _) = parse_graph(graph_text)?;
    let listener = TcpListener::bind(&bind_addr).map_err(|e| format!("bind {bind_addr}: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let srv = Arc::new(Server {
        db,
        cache: QueryCache::new(cache),
        defaults,
        addr,
        shutdown: AtomicBool::new(false),
        requests: AtomicU64::new(0),
        errors: AtomicU64::new(0),
        aborted: AtomicU64::new(0),
    });
    on_ready(addr);

    let mut handles = Vec::new();
    for conn in listener.incoming() {
        if srv.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let stream = match conn {
            Ok(s) => s,
            Err(_) => continue,
        };
        let srv = Arc::clone(&srv);
        handles.push(std::thread::spawn(move || handle_connection(&srv, stream)));
        handles.retain(|h| !h.is_finished());
    }
    for h in handles {
        let _ = h.join();
    }

    let s = srv.cache.stats();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "served {} request(s) · {} error(s) · {} aborted",
        srv.requests.load(Ordering::Relaxed),
        srv.errors.load(Ordering::Relaxed),
        srv.aborted.load(Ordering::Relaxed),
    );
    let _ = writeln!(
        out,
        "cache: {} lookup(s) · {} answer-hit(s) · {} plan-hit(s) · {} miss(es) · {} eviction(s)",
        s.lookups, s.answer_hits, s.plan_hits, s.misses, s.evictions
    );
    Ok(out)
}

/// One connection: read request lines, write framed responses.
fn handle_connection(srv: &Server, stream: TcpStream) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    loop {
        let line = match read_request_line(&mut reader) {
            RequestLine::Text(line) => line,
            RequestLine::TooLong => {
                srv.errors.fetch_add(1, Ordering::Relaxed);
                let _ = writer.write_all(render_error("request line too long").as_bytes());
                let _ = writer.flush();
                break;
            }
            RequestLine::End => break,
        };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let response = match line {
            "PING" => "pong\n".to_string(),
            "STATS" => render_stats(srv),
            "QUIT" => "ok bye\n.\n".to_string(),
            "SHUTDOWN" => {
                srv.shutdown.store(true, Ordering::SeqCst);
                // Unblock the accept loop so it observes the flag.
                let _ = TcpStream::connect(srv.addr);
                "ok shutting down\n.\n".to_string()
            }
            request => handle_query(srv, &writer, request),
        };
        if writer.write_all(response.as_bytes()).is_err() || writer.flush().is_err() {
            break;
        }
        if line == "QUIT" || line == "SHUTDOWN" {
            break;
        }
    }
}

/// One read from a connection.
enum RequestLine {
    /// A complete line, newline stripped.
    Text(String),
    /// More than [`MAX_REQUEST_LINE`] bytes without a newline.
    TooLong,
    /// End of stream, a read error or a line that is not UTF-8.
    End,
}

/// Reads one request line, consuming at most [`MAX_REQUEST_LINE`] + 1
/// bytes. A last line without a newline still counts as a line.
fn read_request_line(reader: &mut impl BufRead) -> RequestLine {
    let mut buf = Vec::new();
    let cap = MAX_REQUEST_LINE as u64 + 1;
    match reader.take(cap).read_until(b'\n', &mut buf) {
        Ok(0) | Err(_) => return RequestLine::End,
        Ok(_) => {}
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
    } else if buf.len() > MAX_REQUEST_LINE {
        return RequestLine::TooLong;
    }
    String::from_utf8(buf).map_or(RequestLine::End, RequestLine::Text)
}

/// Evaluates one query request line through the shared cache under a
/// per-request governor. The evaluation runs on a scoped thread; this
/// thread waits on its completion in [`WATCH_TICK`] slices and, between
/// slices, checks the socket for a disconnect, which trips the governor's
/// cancel flag. A result wakes the handler at once: no poll sits between a
/// finished evaluation and its response.
fn handle_query(srv: &Server, stream: &TcpStream, request: &str) -> String {
    srv.requests.fetch_add(1, Ordering::Relaxed);
    let (opts, query) = match parse_request(request, &srv.defaults) {
        Ok(parsed) => parsed,
        Err(e) => {
            srv.errors.fetch_add(1, Ordering::Relaxed);
            return render_error(&e);
        }
    };
    let eval_opts = EvalOptions {
        bounded_k: opts.k.unwrap_or(3),
        force: opts.engine,
        governor: None,
        plan_seed: None,
    };
    let gov = opts
        .governor()
        .unwrap_or_else(|| Arc::new(Governor::unlimited()));
    let result = std::thread::scope(|s| {
        let (done_tx, done_rx) = mpsc::channel::<()>();
        let eval_gov = Arc::clone(&gov);
        let (query, eval_opts) = (&query, &eval_opts);
        let eval = s.spawn(move || {
            let r = srv
                .cache
                .answers_governed(&srv.db, query, eval_opts, eval_gov);
            let _ = done_tx.send(());
            r
        });
        // `Disconnected` means the evaluation panicked; `join` re-raises.
        while let Err(RecvTimeoutError::Timeout) = done_rx.recv_timeout(WATCH_TICK) {
            if !gov.is_aborted() && client_gone(stream) {
                gov.cancel();
            }
        }
        eval.join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    });
    match result {
        Ok(served) => {
            if matches!(served.verdict, Verdict::Aborted(_)) {
                srv.aborted.fetch_add(1, Ordering::Relaxed);
            }
            render_answers(&srv.db, &served, opts.limit)
        }
        Err(e) => {
            srv.errors.fetch_add(1, Ordering::Relaxed);
            render_error(&e.to_string())
        }
    }
}

/// Splits `[--flag value ...] query text` into per-request options
/// (seeded from the server defaults) and the query text proper.
fn parse_request(
    line: &str,
    defaults: &EvalCmdOptions,
) -> Result<(EvalCmdOptions, String), CmdError> {
    let toks: Vec<&str> = line.split_whitespace().collect();
    let mut opts = *defaults;
    let mut i = 0;
    while i < toks.len() && toks[i].starts_with("--") {
        let value = toks
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", toks[i]))?;
        match toks[i] {
            "--engine" => opts.engine = Some(parse_engine(value)?),
            "--k" => opts.k = Some(parse_num(toks[i], value)?),
            "--limit" => opts.limit = Some(parse_num(toks[i], value)?),
            "--timeout-ms" => opts.timeout_ms = Some(parse_num(toks[i], value)?),
            "--max-steps" => opts.max_steps = Some(parse_num(toks[i], value)?),
            "--max-mem-mb" => opts.max_mem_mb = Some(parse_num(toks[i], value)?),
            other => return Err(format!("unknown option {other:?}")),
        }
        i += 2;
    }
    if i == toks.len() {
        return Err("empty query".to_string());
    }
    Ok((opts, toks[i..].join(" ")))
}

fn parse_num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, CmdError>
where
    T::Err: std::fmt::Display,
{
    value.parse().map_err(|e| format!("{flag}: {e}"))
}

/// Whether the client has hung up: one non-blocking `peek` (which never
/// consumes bytes, so pipelined follow-up requests are untouched) that
/// sees EOF or a socket error. The socket is back in blocking mode, with
/// no read timeout, when this returns.
fn client_gone(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return false;
    }
    let mut buf = [0u8; 1];
    let gone = match stream.peek(&mut buf) {
        Ok(n) => n == 0,
        Err(e) => !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted),
    };
    let _ = stream.set_nonblocking(false);
    gone
}

fn render_answers(db: &GraphDb, served: &ServedAnswers, limit: Option<usize>) -> String {
    let limit = limit.unwrap_or(usize::MAX);
    let shown = served.answers.len().min(limit);
    let mut out = String::new();
    let _ = write!(
        out,
        "ok answers={} shown={} arity={} engine={} cached={} exact={} elapsed-us={}",
        served.answers.len(),
        shown,
        served.arity,
        served.engine,
        served.outcome,
        served.exact,
        served.elapsed.as_micros()
    );
    if let Verdict::Aborted(reason) = served.verdict {
        let _ = write!(out, " aborted={reason}");
    }
    out.push('\n');
    for tuple in served.answers.iter().take(limit) {
        let names: Vec<String> = tuple.iter().map(|&n| db.node_name(n)).collect();
        let _ = writeln!(out, "({})", names.join(", "));
    }
    out.push_str(".\n");
    out
}

fn render_stats(srv: &Server) -> String {
    let s = srv.cache.stats();
    let mut out = String::from("ok stats\n");
    let _ = writeln!(out, "requests={}", srv.requests.load(Ordering::Relaxed));
    let _ = writeln!(out, "errors={}", srv.errors.load(Ordering::Relaxed));
    let _ = writeln!(out, "aborted={}", srv.aborted.load(Ordering::Relaxed));
    let _ = writeln!(out, "lookups={}", s.lookups);
    let _ = writeln!(out, "answer-hits={}", s.answer_hits);
    let _ = writeln!(out, "plan-hits={}", s.plan_hits);
    let _ = writeln!(out, "misses={}", s.misses);
    let _ = writeln!(out, "survived-appends={}", s.survived_appends);
    let _ = writeln!(out, "invalidated={}", s.invalidated);
    let _ = writeln!(out, "aborted-uncached={}", s.aborted_uncached);
    let _ = writeln!(out, "evictions={}", s.evictions);
    out.push_str(".\n");
    out
}

/// Errors are flattened to one line so the `.` framing stays parseable.
fn render_error(msg: &str) -> String {
    let flat = msg.replace('\n', "; ");
    format!("err {flat}\n.\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_parsing_splits_flags_from_query() {
        let defaults = EvalCmdOptions::default();
        let (opts, q) = parse_request(
            "--limit 2 --timeout-ms 500 ans(x, y) <- (x) -[ a ]-> (y)",
            &defaults,
        )
        .unwrap();
        assert_eq!(opts.limit, Some(2));
        assert_eq!(opts.timeout_ms, Some(500));
        assert_eq!(q, "ans(x, y) <- (x) -[ a ]-> (y)");
    }

    #[test]
    fn request_parsing_keeps_defaults_and_rejects_garbage() {
        let defaults = EvalCmdOptions {
            timeout_ms: Some(30_000),
            ..EvalCmdOptions::default()
        };
        let (opts, _) = parse_request("ans() <- (x) -[ a ]-> (y)", &defaults).unwrap();
        assert_eq!(opts.timeout_ms, Some(30_000), "server default survives");
        let (opts2, _) =
            parse_request("--timeout-ms 7 ans() <- (x) -[ a ]-> (y)", &defaults).unwrap();
        assert_eq!(opts2.timeout_ms, Some(7), "per-request override wins");
        assert!(parse_request("--limit", &defaults).is_err());
        assert!(parse_request("--bogus 3 q", &defaults).is_err());
        assert!(parse_request("--limit 3", &defaults)
            .unwrap_err()
            .contains("empty query"));
        assert!(parse_request("--k xyz q", &defaults).is_err());
    }

    #[test]
    fn error_rendering_is_single_frame() {
        let r = render_error("boom\nline two");
        assert_eq!(r, "err boom; line two\n.\n");
    }
}
