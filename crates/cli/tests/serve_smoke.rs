//! End-to-end smoke test for the `serve` subcommand: a real TCP server,
//! a mixed workload over multiple connections (repeated queries, a
//! governed abort, protocol verbs), shared-cache warm hits, and a clean
//! `SHUTDOWN`, plus the connection cap and a `SHUTDOWN` that neither an
//! idle client nor one that never reads its responses can hold up.

use cxrpq_cli::serve::{MAX_CONNECTIONS, MAX_REQUEST_LINE};
use cxrpq_cli::{run_serve, ServeConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

const GRAPH: &str = "\
alphabet a b c
edge u a m1
edge m1 b m2
edge m2 c m3
edge m3 a m4
edge m4 b v
";

const Q_SIMPLE: &str = "ans(x, y) <- (x) -[ a ]-> (y)";
const Q_HEAVY: &str = "ans(x, y) <- (x) -[ z{(a|b)+}cz ]-> (y)";

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Self {
        let writer = TcpStream::connect(addr).expect("connect");
        let reader = BufReader::new(writer.try_clone().expect("clone"));
        Client { reader, writer }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.writer, "{line}").expect("send");
        self.writer.flush().expect("flush");
    }

    fn read_line(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read");
        assert!(n > 0, "server closed the connection unexpectedly");
        line.trim_end().to_string()
    }

    /// Reads one `.`-terminated response frame (header + body lines).
    fn read_frame(&mut self) -> Vec<String> {
        let mut lines = Vec::new();
        loop {
            let line = self.read_line();
            if line == "." {
                return lines;
            }
            lines.push(line);
        }
    }

    fn request(&mut self, line: &str) -> Vec<String> {
        self.send(line);
        self.read_frame()
    }
}

fn header_field<'a>(header: &'a str, key: &str) -> &'a str {
    header
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix(key).and_then(|t| t.strip_prefix('=')))
        .unwrap_or_else(|| panic!("missing {key}= in {header:?}"))
}

#[test]
fn serve_smoke_mixed_workload() {
    let (tx, rx) = mpsc::channel();
    let server = std::thread::spawn(move || {
        run_serve(
            GRAPH,
            ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                ..ServeConfig::default()
            },
            move |addr| tx.send(addr).unwrap(),
        )
    });
    let addr = rx.recv().expect("server ready");

    let mut a = Client::connect(addr);

    // Liveness.
    a.send("PING");
    assert_eq!(a.read_line(), "pong");

    // Cold evaluation, then a warm repeat served from the shared cache.
    let cold = a.request(Q_SIMPLE);
    assert_eq!(header_field(&cold[0], "cached"), "miss", "{cold:?}");
    assert_eq!(header_field(&cold[0], "answers"), "2", "{cold:?}");
    assert!(cold.contains(&"(u, m1)".to_string()), "{cold:?}");
    let warm = a.request(Q_SIMPLE);
    assert_eq!(header_field(&warm[0], "cached"), "answer-hit", "{warm:?}");
    assert_eq!(&cold[1..], &warm[1..], "cached answers must be identical");

    // A formatting variant of the same query also hits (normalized key).
    let variant = a.request("ans( x ,  y ) <- ( x ) -[ a ]-> ( y )");
    assert_eq!(header_field(&variant[0], "cached"), "answer-hit");

    // Governed abort: the partial result is flagged and never cached.
    let aborted = a.request(&format!("--max-steps 1 {Q_HEAVY}"));
    assert!(aborted[0].contains("aborted=fuel"), "{aborted:?}");
    let retry = a.request(Q_HEAVY);
    assert_eq!(
        header_field(&retry[0], "cached"),
        "miss",
        "aborted run must not have poisoned the cache: {retry:?}"
    );
    assert_eq!(header_field(&retry[0], "answers"), "1", "{retry:?}");

    // Per-request limit only truncates what is shown.
    let limited = a.request(&format!("--limit 1 {Q_SIMPLE}"));
    assert_eq!(header_field(&limited[0], "answers"), "2");
    assert_eq!(header_field(&limited[0], "shown"), "1");
    assert_eq!(limited.len(), 2, "header + one tuple: {limited:?}");

    // Pipelined requests in one write: each gets its own frame, in order.
    a.send(&format!("{Q_SIMPLE}\nPING\n{Q_HEAVY}"));
    let first = a.read_frame();
    assert_eq!(header_field(&first[0], "answers"), "2", "{first:?}");
    assert_eq!(a.read_line(), "pong");
    let third = a.read_frame();
    assert_eq!(header_field(&third[0], "answers"), "1", "{third:?}");

    // Malformed input is an error frame, not a dropped connection.
    let bad = a.request("ans( <- broken");
    assert!(bad[0].starts_with("err "), "{bad:?}");
    a.send("PING");
    assert_eq!(a.read_line(), "pong", "connection survives bad requests");

    // A second connection shares the same cache.
    let mut b = Client::connect(addr);
    let shared = b.request(Q_SIMPLE);
    assert_eq!(
        header_field(&shared[0], "cached"),
        "answer-hit",
        "{shared:?}"
    );

    // STATS reflects the workload: warm hits happened, the abort was
    // refused by the cache.
    let stats = b.request("STATS");
    assert_eq!(stats[0], "ok stats");
    let field = |key: &str| -> u64 {
        stats
            .iter()
            .find_map(|l| l.strip_prefix(key).and_then(|l| l.strip_prefix('=')))
            .unwrap_or_else(|| panic!("missing {key} in {stats:?}"))
            .parse()
            .unwrap()
    };
    assert!(field("answer-hits") >= 3, "{stats:?}");
    assert_eq!(field("aborted-uncached"), 1, "{stats:?}");
    assert_eq!(field("errors"), 1, "{stats:?}");

    let bye = b.request("QUIT");
    assert_eq!(bye[0], "ok bye");

    // Clean shutdown from the first connection.
    let down = a.request("SHUTDOWN");
    assert_eq!(down[0], "ok shutting down");
    let report = server.join().expect("server thread").expect("serve ok");
    assert!(report.contains("served"), "{report}");
    assert!(report.contains("answer-hit(s)"), "{report}");
}

#[test]
fn serve_cancels_on_disconnect() {
    // A client that hangs up mid-connection must not wedge the server:
    // the disconnect watcher trips the per-request governor, the
    // (aborted) run installs nothing, and the server keeps serving.
    let (tx, rx) = mpsc::channel();
    let server = std::thread::spawn(move || {
        run_serve(
            GRAPH,
            ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                ..ServeConfig::default()
            },
            move |addr| tx.send(addr).unwrap(),
        )
    });
    let addr = rx.recv().expect("server ready");

    {
        let mut ghost = Client::connect(addr);
        ghost.send(Q_HEAVY);
        // Drop without reading the response: the socket closes and the
        // watcher cancels whatever is still running.
    }

    let mut c = Client::connect(addr);
    let r = c.request(Q_SIMPLE);
    assert!(r[0].starts_with("ok "), "server still serving: {r:?}");
    let down = c.request("SHUTDOWN");
    assert_eq!(down[0], "ok shutting down");
    server.join().expect("server thread").expect("serve ok");
}

#[test]
fn serve_refuses_an_overlong_request_line() {
    let (tx, rx) = mpsc::channel();
    let server = std::thread::spawn(move || {
        run_serve(
            GRAPH,
            ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                ..ServeConfig::default()
            },
            move |addr| tx.send(addr).unwrap(),
        )
    });
    let addr = rx.recv().expect("server ready");

    // One byte past the cap and no newline: the server answers once and
    // hangs up instead of buffering on.
    let mut long = Client::connect(addr);
    long.writer
        .write_all(&vec![b'a'; MAX_REQUEST_LINE + 1])
        .expect("send");
    long.writer.flush().expect("flush");
    assert_eq!(long.read_frame(), ["err request line too long"]);
    let mut rest = String::new();
    assert_eq!(long.reader.read_line(&mut rest).expect("read"), 0);

    // A line of exactly the cap is read whole (a parse error, not a
    // refusal), and other connections are unaffected.
    let mut c = Client::connect(addr);
    let at_cap = "a".repeat(MAX_REQUEST_LINE);
    let r = c.request(&at_cap);
    assert!(
        r[0].starts_with("err ") && r[0] != "err request line too long",
        "{r:?}"
    );
    let ok = c.request(Q_SIMPLE);
    assert!(ok[0].starts_with("ok "), "{ok:?}");
    let down = c.request("SHUTDOWN");
    assert_eq!(down[0], "ok shutting down");
    server.join().expect("server thread").expect("serve ok");
}

/// A 60-node graph, two arcs per node and label, on which
/// `z{(a|b)+}cz` runs for minutes.
fn heavy_graph() -> String {
    let mut g = String::from("alphabet a b c\n");
    for i in 0..60u32 {
        for (l, k) in [("a", 97u32), ("b", 98), ("c", 99)] {
            g += &format!("edge n{i} {l} n{}\n", (i * 7 + k * 13 + 1) % 60);
            g += &format!("edge n{i} {l} n{}\n", (i * 11 + k * 5 + 3) % 60);
        }
    }
    g
}

#[test]
fn serve_cancels_a_running_query_on_disconnect() {
    // The request would run far past this test unless the handler sees
    // the hang-up while the query evaluates and cancels it.
    let graph = heavy_graph();
    let (tx, rx) = mpsc::channel();
    let server = std::thread::spawn(move || {
        run_serve(
            &graph,
            ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                ..ServeConfig::default()
            },
            move |addr| tx.send(addr).unwrap(),
        )
    });
    let addr = rx.recv().expect("server ready");
    {
        let mut ghost = Client::connect(addr);
        ghost.send(Q_HEAVY);
        std::thread::sleep(Duration::from_millis(100));
    }
    let mut c = Client::connect(addr);
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let stats = c.request("STATS");
        if stats.iter().any(|l| l == "aborted=1") {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "abandoned query was not cancelled: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let down = c.request("SHUTDOWN");
    assert_eq!(down[0], "ok shutting down");
    server.join().expect("server thread").expect("serve ok");
}

/// Starts a server on an ephemeral port. Its report arrives on the
/// returned channel, so a test can bound how long it waits for shutdown.
fn spawn_server() -> (SocketAddr, mpsc::Receiver<Result<String, String>>) {
    let (ready_tx, ready_rx) = mpsc::channel();
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        let report = run_serve(
            GRAPH,
            ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                ..ServeConfig::default()
            },
            move |addr| ready_tx.send(addr).unwrap(),
        );
        let _ = done_tx.send(report);
    });
    (ready_rx.recv().expect("server ready"), done_rx)
}

#[test]
fn serve_refuses_connections_past_the_cap() {
    let (addr, done) = spawn_server();
    let mut held: Vec<Client> = (0..MAX_CONNECTIONS)
        .map(|_| {
            let mut c = Client::connect(addr);
            c.send("PING");
            assert_eq!(c.read_line(), "pong");
            c
        })
        .collect();

    // One past the cap: one error frame, then the server hangs up.
    let mut extra = Client::connect(addr);
    assert_eq!(extra.read_frame(), ["err busy"]);
    let mut rest = String::new();
    assert_eq!(extra.reader.read_line(&mut rest).expect("read"), 0);

    // A freed slot serves the next client once its handler has exited.
    assert_eq!(held.pop().unwrap().request("QUIT"), ["ok bye"]);
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut next = loop {
        let mut c = Client::connect(addr);
        c.send("PING");
        if c.read_line() == "pong" {
            break c;
        }
        assert!(Instant::now() < deadline, "the freed slot was never reused");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(next.request("SHUTDOWN"), ["ok shutting down"]);
    let report = done
        .recv_timeout(Duration::from_secs(10))
        .expect("server exits");
    assert!(report.expect("serve ok").contains("served"));
}

#[test]
fn serve_shuts_down_while_an_idle_client_is_connected() {
    let (addr, done) = spawn_server();
    let mut idle = Client::connect(addr);
    idle.send("PING");
    assert_eq!(idle.read_line(), "pong");

    let mut c = Client::connect(addr);
    assert_eq!(c.request("SHUTDOWN"), ["ok shutting down"]);
    let report = done
        .recv_timeout(Duration::from_secs(10))
        .expect("an idle client must not hold up SHUTDOWN");
    assert!(report.expect("serve ok").contains("served"));
    // The idle connection was closed on the way out.
    let mut rest = String::new();
    assert_eq!(idle.reader.read_line(&mut rest).expect("read"), 0);
}

#[test]
fn serve_outlasts_a_client_that_never_reads() {
    let (addr, done) = spawn_server();
    // Pipeline requests without reading a byte until this client's own
    // writes stall: the responses have filled the socket buffers, and the
    // server's handler waits to write the next one.
    let mut sink = TcpStream::connect(addr).expect("connect");
    sink.set_write_timeout(Some(Duration::from_millis(200)))
        .expect("write timeout");
    let batch = "STATS\n".repeat(1024);
    let deadline = Instant::now() + Duration::from_secs(20);
    while sink.write_all(batch.as_bytes()).is_ok() {
        assert!(Instant::now() < deadline, "the server kept reading forever");
    }

    // Another client is still answered.
    let mut c = Client::connect(addr);
    c.send("PING");
    assert_eq!(c.read_line(), "pong");
    assert_eq!(c.request(Q_SIMPLE)[0].split(' ').next(), Some("ok"));

    // The stalled handler gives up its write on SHUTDOWN.
    assert_eq!(c.request("SHUTDOWN"), ["ok shutting down"]);
    let report = done
        .recv_timeout(Duration::from_secs(10))
        .expect("a client that never reads must not hold up SHUTDOWN");
    assert!(report.expect("serve ok").contains("served"));
    drop(sink);
}
