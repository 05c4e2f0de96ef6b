//! End-to-end tests of the running service over real sockets.
//!
//! Each test boots a server on an ephemeral port (`port: 0`), drives it
//! with the same minimal HTTP client the load generator uses, or with a
//! raw kept connection, and shuts it down through `POST /shutdown` — the
//! same `ShutdownHandle` SIGTERM trips. One test sends SIGTERM to the
//! binary itself.

use nvp_serve::bench::{http_request, shutdown_local_server, spawn_local_server, Exchange};
use nvp_serve::server::ServerConfig;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

fn small_server() -> (SocketAddr, thread::JoinHandle<()>) {
    spawn_local_server(ServerConfig {
        read_deadline: Duration::from_millis(300),
        max_body: 4 * 1024,
        ..ServerConfig::default()
    })
}

fn post_run(addr: SocketAddr, body: &str) -> Exchange {
    http_request(addr, "POST", "/v1/run", body).expect("request")
}

const FAST_RUN: &str = r#"{"kernel":"sobel","img":8,"frames":1,"seconds":0.2}"#;

#[test]
fn health_kernels_and_metrics_respond() {
    let (addr, handle) = small_server();
    let health = http_request(addr, "GET", "/healthz", "").unwrap();
    assert_eq!(health.status, 200);
    assert_eq!(health.body, b"ok\n");

    let kernels = http_request(addr, "GET", "/v1/kernels", "").unwrap();
    assert_eq!(kernels.status, 200);
    let text = String::from_utf8(kernels.body).unwrap();
    assert!(text.contains("\"sobel\""), "{text}");
    assert!(
        text.contains("\"FFT\"") && text.contains("\"median\""),
        "{text}"
    );

    let metrics = http_request(addr, "GET", "/metrics", "").unwrap();
    assert_eq!(metrics.status, 200);
    let text = String::from_utf8(metrics.body).unwrap();
    assert!(text.contains("nvp_requests_total"), "{text}");
    assert!(text.contains("nvp_cache_entries"), "{text}");

    shutdown_local_server(addr, handle);
}

#[test]
fn run_roundtrip_and_cache_hit_bytes_match() {
    let (addr, handle) = small_server();

    let first = post_run(addr, FAST_RUN);
    assert_eq!(
        first.status,
        200,
        "{:?}",
        String::from_utf8_lossy(&first.body)
    );
    assert_eq!(
        first.headers.get("x-cache").map(String::as_str),
        Some("miss")
    );
    let text = String::from_utf8(first.body.clone()).unwrap();
    assert!(text.contains("\"forward_progress\""), "{text}");
    assert!(text.contains("\"energy_nj\""), "{text}");

    // Same request, different spelling: must be a hit with identical bytes.
    let respelled = r#"{"seconds":0.20,"frames":1,"img":8,"kernel":"Sobel"}"#;
    let second = post_run(addr, respelled);
    assert_eq!(second.status, 200);
    assert_eq!(
        second.headers.get("x-cache").map(String::as_str),
        Some("hit")
    );
    assert_eq!(
        second.body, first.body,
        "cached body must be byte-identical"
    );

    shutdown_local_server(addr, handle);
}

#[test]
fn sixteen_concurrent_clients_one_simulation_identical_bodies() {
    let (addr, handle) = small_server();

    let clients: Vec<_> = (0..16)
        .map(|_| thread::spawn(move || post_run(addr, FAST_RUN)))
        .collect();
    let exchanges: Vec<Exchange> = clients.into_iter().map(|c| c.join().unwrap()).collect();

    let first_body = &exchanges[0].body;
    for ex in &exchanges {
        assert_eq!(ex.status, 200);
        assert_eq!(&ex.body, first_body, "all 16 bodies must be byte-identical");
    }

    // The service must have simulated exactly once: every response was a
    // miss (the leader), a coalesced join, or a post-completion hit.
    let metrics = http_request(addr, "GET", "/metrics", "").unwrap();
    let text = String::from_utf8(metrics.body).unwrap();
    let counter = |name: &str| -> u64 {
        text.lines()
            .find(|l| l.starts_with(name))
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("missing {name} in {text}"))
    };
    assert_eq!(counter("nvp_simulations_total"), 1, "metrics:\n{text}");
    assert_eq!(counter("nvp_cache_misses_total"), 1);
    assert_eq!(
        counter("nvp_cache_hits_total") + counter("nvp_coalesced_total"),
        15
    );

    shutdown_local_server(addr, handle);
}

#[test]
fn malformed_and_invalid_requests_get_structured_400s() {
    let (addr, handle) = small_server();

    let garbage = post_run(addr, "{not json");
    assert_eq!(garbage.status, 400);
    assert!(String::from_utf8(garbage.body)
        .unwrap()
        .contains("\"error\""));

    let unknown = post_run(addr, r#"{"kernel":"warp"}"#);
    assert_eq!(unknown.status, 400);
    let text = String::from_utf8(unknown.body).unwrap();
    assert!(text.contains("\"field\":\"kernel\""), "{text}");

    let out_of_range = post_run(addr, r#"{"kernel":"sobel","img":4096}"#);
    assert_eq!(out_of_range.status, 400);
    let text = String::from_utf8(out_of_range.body).unwrap();
    assert!(text.contains("\"field\":\"img\""), "{text}");

    let not_found = http_request(addr, "GET", "/v2/everything", "").unwrap();
    assert_eq!(not_found.status, 404);

    let wrong_method = http_request(addr, "GET", "/v1/run", "").unwrap();
    assert_eq!(wrong_method.status, 405);

    shutdown_local_server(addr, handle);
}

#[test]
fn oversized_body_gets_413() {
    let (addr, handle) = small_server();
    let huge = "x".repeat(10 * 1024); // over the 4 KiB test limit
    let ex = post_run(addr, &huge);
    assert_eq!(ex.status, 413);
    shutdown_local_server(addr, handle);
}

#[test]
fn slow_client_is_cut_off_by_read_deadline() {
    let (addr, handle) = small_server();

    let mut stream = TcpStream::connect(addr).unwrap();
    // Declare a body, never deliver it; the 300ms deadline must fire.
    stream
        .write_all(b"POST /v1/run HTTP/1.1\r\nContent-Length: 50\r\n\r\n")
        .unwrap();
    stream.flush().unwrap();
    let mut raw = Vec::new();
    use std::io::Read;
    stream.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 408"), "{text}");

    shutdown_local_server(addr, handle);
}

#[test]
fn full_queue_answers_429_with_retry_after() {
    // One worker, one queue slot, twelve simultaneous cold requests with
    // distinct keys: at most a handful can be running-or-queued at once,
    // so admission control must bounce some of them with 429. Retried
    // 429s are not followed up — the test wants the rejection itself.
    let (addr, handle) = spawn_local_server(ServerConfig {
        workers: 1,
        queue: 1,
        ..ServerConfig::default()
    });

    let body = |seed: u64| {
        format!(r#"{{"kernel":"fft","img":32,"frames":8,"seconds":8.0,"seed":{seed}}}"#)
    };
    let clients: Vec<_> = (1..=12)
        .map(|seed| {
            let body = body(seed);
            thread::spawn(move || post_run(addr, &body))
        })
        .collect();
    let exchanges: Vec<Exchange> = clients.into_iter().map(|c| c.join().unwrap()).collect();
    let rejected: Vec<&Exchange> = exchanges.iter().filter(|e| e.status == 429).collect();
    assert!(
        !rejected.is_empty(),
        "expected at least one admission rejection, got statuses {:?}",
        exchanges.iter().map(|e| e.status).collect::<Vec<_>>()
    );
    for ex in &rejected {
        assert_eq!(ex.headers.get("retry-after").map(String::as_str), Some("1"));
        assert!(String::from_utf8_lossy(&ex.body).contains("queue"));
    }
    for ex in &exchanges {
        assert!(
            ex.status == 200 || ex.status == 429,
            "only 200/429 expected, got {}",
            ex.status
        );
    }

    shutdown_local_server(addr, handle);
}

#[test]
fn sweep_shares_the_run_cache_and_splices_identical_cell_bodies() {
    let (addr, handle) = small_server();

    // Warm one cell via /v1/run.
    let run = post_run(addr, FAST_RUN);
    assert_eq!(run.status, 200);

    let sweep_body = r#"{"kernels":["sobel"],"profiles":["p1"],"modes":["precise",{"fixed":4}],"img":8,"frames":1,"seconds":0.2}"#;
    let sweep = http_request(addr, "POST", "/v1/sweep", sweep_body).unwrap();
    assert_eq!(
        sweep.status,
        200,
        "{}",
        String::from_utf8_lossy(&sweep.body)
    );
    let text = String::from_utf8(sweep.body).unwrap();
    // The warmed cell's bytes appear verbatim inside the sweep envelope.
    let run_text = String::from_utf8(run.body).unwrap();
    assert!(
        text.contains(&run_text),
        "sweep must splice the cached run body"
    );

    // An oversized sweep is refused at parse time.
    let big = r#"{"kernels":["sobel","median","integral","susan.corners","susan.edges","susan.smoothing","jpeg.encode.mb","tiff2bw","tiff2rgba","fft"],"profiles":["p1","p2","p3","p4","p5"],"modes":["precise","simd4"]}"#;
    let refused = http_request(addr, "POST", "/v1/sweep", big).unwrap();
    assert_eq!(refused.status, 400);
    assert!(String::from_utf8(refused.body).unwrap().contains("cells"));

    shutdown_local_server(addr, handle);
}

#[test]
fn shutdown_drains_inflight_work_and_stops_accepting() {
    let (addr, handle) = spawn_local_server(ServerConfig {
        workers: 1,
        queue: 8,
        ..ServerConfig::default()
    });

    // Start a slow request, then immediately request shutdown.
    let slow = r#"{"kernel":"fft","img":16,"frames":4,"seconds":2.0,"seed":99}"#;
    let worker = thread::spawn(move || post_run(addr, slow));
    thread::sleep(Duration::from_millis(100));
    let ack = http_request(addr, "POST", "/shutdown", "").unwrap();
    assert_eq!(ack.status, 200);

    // The in-flight simulation still completes with a full response.
    let ex = worker.join().unwrap();
    assert_eq!(ex.status, 200);
    assert!(String::from_utf8(ex.body)
        .unwrap()
        .contains("forward_progress"));

    // The server thread exits; afterwards the port refuses new requests.
    handle.join().unwrap();
    assert!(http_request(addr, "GET", "/healthz", "").is_err());
}

#[test]
fn traced_run_embeds_the_event_stream_and_keys_separately() {
    let (addr, handle) = small_server();

    let plain = post_run(addr, FAST_RUN);
    let traced = post_run(
        addr,
        r#"{"kernel":"sobel","img":8,"frames":1,"seconds":0.2,"trace":true}"#,
    );
    assert_eq!(traced.status, 200);
    // Tracing is part of the key: this was a miss, not a hit on `plain`.
    assert_eq!(
        traced.headers.get("x-cache").map(String::as_str),
        Some("miss")
    );
    let text = String::from_utf8(traced.body).unwrap();
    assert!(text.contains("\"trace_events\""), "{text}");
    assert!(text.contains("\"ev\":\"run_end\""), "{text}");
    assert!(text.len() > plain.body.len(), "traced body embeds events");

    shutdown_local_server(addr, handle);
}

/// A raw connection the test keeps open across requests. Reads time out,
/// so a server that wrongly holds the connection fails the test instead
/// of hanging it.
fn open(addr: SocketAddr) -> BufReader<TcpStream> {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    BufReader::new(stream)
}

fn send(conn: &mut BufReader<TcpStream>, raw: &str) {
    conn.get_mut().write_all(raw.as_bytes()).unwrap();
}

fn post(path: &str, body: &str) -> String {
    format!(
        "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

fn get(path: &str) -> String {
    format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n")
}

/// Reads one response framed by its `Content-Length`: status, head, body.
fn read_response(conn: &mut BufReader<TcpStream>) -> (u16, String, Vec<u8>) {
    let mut head = String::new();
    loop {
        let mut line = String::new();
        assert!(conn.read_line(&mut line).unwrap() > 0, "EOF in a head");
        if line == "\r\n" {
            break;
        }
        head.push_str(&line);
    }
    let status = head.split(' ').nth(1).unwrap().parse().unwrap();
    let length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .expect("every response carries Content-Length")
        .parse()
        .unwrap();
    let mut body = vec![0; length];
    conn.read_exact(&mut body).unwrap();
    (status, head, body)
}

/// Reads until the server closes the connection.
fn read_to_eof(conn: &mut BufReader<TcpStream>) -> Vec<u8> {
    let mut rest = Vec::new();
    conn.read_to_end(&mut rest).unwrap();
    rest
}

#[test]
fn one_socket_serves_many_requests_and_hits_match_the_miss() {
    let (addr, handle) = small_server();
    let mut conn = open(addr);

    send(&mut conn, &post("/v1/run", FAST_RUN));
    let (status, head, miss) = read_response(&mut conn);
    assert_eq!(status, 200);
    assert!(head.contains("X-Cache: miss"), "{head}");
    assert!(
        !head.contains("Connection:"),
        "kept responses say nothing: {head}"
    );
    for _ in 0..3 {
        send(&mut conn, &post("/v1/run", FAST_RUN));
        let (status, head, hit) = read_response(&mut conn);
        assert_eq!(status, 200);
        assert!(head.contains("X-Cache: hit"), "{head}");
        assert_eq!(hit, miss, "cached body must be byte-identical");
    }

    // Everything so far, this scrape included, came over one connection.
    send(&mut conn, &get("/metrics"));
    let (_, _, metrics) = read_response(&mut conn);
    let text = String::from_utf8(metrics).unwrap();
    for line in [
        "nvp_connections_accepted_total 1\n",
        "nvp_connections_open 1\n",
        "nvp_requests_total 5\n",
    ] {
        assert!(text.contains(line), "{line} missing from\n{text}");
    }

    drop(conn);
    shutdown_local_server(addr, handle);
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let (addr, handle) = small_server();
    let mut conn = open(addr);

    // Two requests in one write.
    send(
        &mut conn,
        &format!("{}{}", get("/healthz"), get("/v1/kernels")),
    );
    let (status, _, ok) = read_response(&mut conn);
    assert_eq!((status, ok.as_slice()), (200, &b"ok\n"[..]));
    let (status, _, kernels) = read_response(&mut conn);
    assert_eq!(status, 200);
    assert!(String::from_utf8(kernels).unwrap().contains("\"sobel\""));

    // A request right behind a body.
    send(
        &mut conn,
        &format!("{}{}", post("/v1/run", FAST_RUN), get("/healthz")),
    );
    assert_eq!(read_response(&mut conn).0, 200);
    let (status, _, ok) = read_response(&mut conn);
    assert_eq!((status, ok.as_slice()), (200, &b"ok\n"[..]));

    // A 400 answers, then closes, even with a request queued behind it.
    send(
        &mut conn,
        &format!("{}{}", post("/v1/run", "{not json"), get("/healthz")),
    );
    let (status, head, _) = read_response(&mut conn);
    assert_eq!(status, 400);
    assert!(head.contains("Connection: close"), "{head}");
    conn.get_mut().shutdown(Shutdown::Write).unwrap();
    assert!(read_to_eof(&mut conn).is_empty());

    shutdown_local_server(addr, handle);
}

#[test]
fn close_requests_get_one_response_then_eof() {
    let (addr, handle) = small_server();
    for raw in [
        "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        "GET /healthz HTTP/1.0\r\n\r\n",
    ] {
        let mut conn = open(addr);
        send(&mut conn, raw);
        let (status, head, body) = read_response(&mut conn);
        assert_eq!((status, body.as_slice()), (200, &b"ok\n"[..]), "{raw}");
        assert!(head.contains("Connection: close"), "{head}");
        assert!(read_to_eof(&mut conn).is_empty(), "{raw}");
    }
    shutdown_local_server(addr, handle);
}

#[test]
fn idle_kept_connection_is_closed_without_a_response() {
    let (addr, handle) = small_server();
    let mut conn = open(addr);
    send(&mut conn, &get("/healthz"));
    assert_eq!(read_response(&mut conn).0, 200);
    let idle = Instant::now();
    assert!(
        read_to_eof(&mut conn).is_empty(),
        "no 408 on an idle connection"
    );
    let waited = idle.elapsed();
    assert!(
        waited >= Duration::from_millis(250) && waited < Duration::from_secs(3),
        "closed after {waited:?}, read deadline 300ms"
    );
    shutdown_local_server(addr, handle);
}

#[test]
fn errors_and_ambiguous_framing_close_the_connection() {
    let (addr, handle) = small_server();
    let cases = [
        (post("/v1/run", "{not json"), 400, "body"),
        ("NONSENSE\r\n\r\n".to_string(), 400, "request target"),
        (
            "POST /v1/run HTTP/1.1\r\nContent-Length: 99999\r\n\r\n".to_string(),
            413,
            "size limit",
        ),
        (
            "POST /v1/run HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n".to_string(),
            400,
            "Transfer-Encoding",
        ),
        (
            "POST /v1/run HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nabc"
                .to_string(),
            400,
            "conflicting Content-Length",
        ),
        // Never delivers the declared body: 408 once the deadline passes.
        (
            "POST /v1/run HTTP/1.1\r\nContent-Length: 50\r\n\r\n".to_string(),
            408,
            "deadline",
        ),
    ];
    for (raw, want, detail) in cases {
        // Each error follows a kept exchange, so closing is the error's doing.
        let mut conn = open(addr);
        send(&mut conn, &get("/healthz"));
        assert_eq!(read_response(&mut conn).0, 200);
        send(&mut conn, &raw);
        if want != 408 {
            conn.get_mut().shutdown(Shutdown::Write).unwrap();
        }
        let (status, head, body) = read_response(&mut conn);
        let body = String::from_utf8(body).unwrap();
        assert_eq!(status, want, "{raw}: {body}");
        assert!(body.contains(detail), "{raw}: {body}");
        assert!(head.contains("Connection: close"), "{head}");
        assert!(read_to_eof(&mut conn).is_empty(), "{raw}");
    }
    shutdown_local_server(addr, handle);
}

#[test]
fn shutdown_does_not_wait_out_idle_kept_connections() {
    let deadline = Duration::from_secs(5);
    let (addr, handle) = spawn_local_server(ServerConfig {
        read_deadline: deadline,
        ..ServerConfig::default()
    });
    let mut idle = open(addr);
    send(&mut idle, &get("/healthz"));
    assert_eq!(read_response(&mut idle).0, 200);

    let started = Instant::now();
    let ack = http_request(addr, "POST", "/shutdown", "").unwrap();
    assert_eq!(ack.status, 200);
    handle.join().unwrap();
    let drained = started.elapsed();
    assert!(
        drained < deadline / 5,
        "run() took {drained:?} with an idle client, read deadline {deadline:?}"
    );
    assert!(read_to_eof(&mut idle).is_empty());
}

/// The binary bridges SIGTERM to the same drain, with an idle kept
/// connection open.
#[cfg(unix)]
#[test]
fn sigterm_drains_the_binary() {
    use std::process::{Command, Stdio};
    let mut child = Command::new(env!("CARGO_BIN_EXE_nvp-serve"))
        .args(["serve", "--port", "0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut banner = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut banner)
        .unwrap();
    let addr: SocketAddr = banner
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .parse()
        .unwrap();
    let mut idle = open(addr);
    send(&mut idle, &get("/healthz"));
    assert_eq!(read_response(&mut idle).0, 200);

    let killed = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .unwrap();
    assert!(killed.success());
    let started = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "no exit within 5s of SIGTERM"
        );
        thread::sleep(Duration::from_millis(10));
    };
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut stderr)
        .unwrap();
    assert!(status.success(), "{status:?}: {stderr}");
    assert!(stderr.contains("drained, exiting"), "{stderr}");
}
