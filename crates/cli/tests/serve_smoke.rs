//! End-to-end smoke test for the `serve` subcommand: a real TCP server,
//! a mixed workload over multiple connections (repeated queries, a
//! governed abort, protocol verbs), shared-cache warm hits, and a clean
//! `SHUTDOWN`.

use cxrpq_cli::serve::MAX_REQUEST_LINE;
use cxrpq_cli::{run_serve, ServeConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;

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
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    let mut c = Client::connect(addr);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    loop {
        let stats = c.request("STATS");
        if stats.iter().any(|l| l == "aborted=1") {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "abandoned query was not cancelled: {stats:?}"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let down = c.request("SHUTDOWN");
    assert_eq!(down[0], "ok shutting down");
    server.join().expect("server thread").expect("serve ok");
}
