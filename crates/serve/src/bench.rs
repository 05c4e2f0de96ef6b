//! Closed-loop load generator (`nvp-serve bench`).
//!
//! Spawns N clients that each hammer the service synchronously — one
//! request in flight per client, the classic closed-loop model — under
//! three workloads per client count:
//!
//! * **cold**: every request uses a fresh seed, so every request misses
//!   the cache and pays for a full simulation;
//! * **hot**: every request repeats one key, so after the first fill the
//!   service answers from the content-addressed cache;
//! * **mixed**: each request flips a deterministic per-client LCG coin
//!   and goes hot with probability `hit_rate`.
//!
//! The run writes `BENCH_serve.json` with throughput, latency
//! percentiles, and observed cache hit rates, and fails (nonzero exit)
//! if any 5xx was served, if the hot workload saw zero cache hits, or
//! if cached bodies were not byte-identical to the first response.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::Instant;

/// One HTTP exchange as the bench client sees it.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// Response status code.
    pub status: u16,
    /// Lowercased response headers.
    pub headers: HashMap<String, String>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

/// Minimal blocking HTTP/1.1 client: one request, `Connection: close`.
/// Public so the integration tests drive the server with the exact
/// client the load generator uses.
pub fn http_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<Exchange> {
    let mut stream = TcpStream::connect(addr)?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    // Writes are best-effort: a server rejecting early (413 from the
    // Content-Length alone) may close its read side mid-body, and the
    // response is still worth reading.
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_response(&raw)
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad response"))
}

fn parse_response(raw: &[u8]) -> Option<Exchange> {
    let head_end = raw.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&raw[..head_end]).ok()?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines.next()?.split(' ').nth(1)?.parse().ok()?;
    let mut headers = HashMap::new();
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
        }
    }
    Some(Exchange {
        status,
        headers,
        body: raw[head_end + 4..].to_vec(),
    })
}

/// Bench parameters.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Service address.
    pub addr: SocketAddr,
    /// Client counts to sweep (closed-loop threads per phase).
    pub client_counts: Vec<usize>,
    /// Total requests per phase (split across clients).
    pub requests: usize,
    /// Probability a mixed-workload request repeats the hot key.
    pub hit_rate: f64,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            addr: "127.0.0.1:0".parse().expect("literal addr"),
            client_counts: vec![1, 4, 16],
            requests: 200,
            hit_rate: 0.75,
        }
    }
}

/// One phase's aggregate results.
#[derive(Debug, Clone)]
pub struct PhaseResult {
    /// Closed-loop client count.
    pub clients: usize,
    /// Workload label (`cold`, `hot`, `mixed`).
    pub workload: &'static str,
    /// Requests completed.
    pub requests: usize,
    /// Wall-clock requests per second.
    pub throughput_rps: f64,
    /// Median per-request latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile per-request latency, microseconds.
    pub p99_us: u64,
    /// Fraction of responses served with `X-Cache: hit` or `coalesced`.
    pub cache_hit_rate: f64,
    /// Count of 5xx responses (any nonzero fails the bench).
    pub errors_5xx: usize,
    /// Count of 429 admission rejections (reported, not fatal).
    pub rejected_429: usize,
}

/// Full bench outcome.
#[derive(Debug)]
pub struct BenchReport {
    /// Per-phase results, in execution order.
    pub phases: Vec<PhaseResult>,
    /// Hot-over-cold throughput ratio at the largest client count.
    pub speedup_hot_over_cold: f64,
    /// Whether every hot-path body matched the first byte-for-byte.
    pub cached_body_identical: bool,
}

/// Deterministic per-client coin: a 64-bit LCG (Knuth's constants).
struct Lcg(u64);

impl Lcg {
    fn next_unit(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn run_body(seed: u64) -> String {
    // Heavy enough that a cache miss pays a visible simulation cost —
    // the hot/cold throughput ratio is measuring the cache, and a
    // trivial workload would measure connection overhead instead.
    format!(r#"{{"kernel":"sobel","img":32,"frames":8,"seconds":4,"seed":{seed}}}"#)
}

/// The key the hot workload repeats. Phase-scoped so `cold` phases at
/// different client counts never collide with it.
const HOT_SEED: u64 = 7;

fn run_phase(
    addr: SocketAddr,
    clients: usize,
    requests: usize,
    workload: &'static str,
    hit_rate: f64,
    seed_base: u64,
) -> (PhaseResult, Vec<Vec<u8>>) {
    let per_client = requests.div_ceil(clients.max(1));
    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            thread::spawn(move || {
                let mut latencies: Vec<u64> = Vec::with_capacity(per_client);
                let mut hits = 0usize;
                let mut errors = 0usize;
                let mut rejected = 0usize;
                let mut hot_bodies: Vec<Vec<u8>> = Vec::new();
                let mut coin = Lcg(0x9E37_79B9 ^ (c as u64) << 17);
                for i in 0..per_client {
                    let unique = seed_base + (c as u64) * 1_000_003 + i as u64;
                    let hot = match workload {
                        "hot" => true,
                        "cold" => false,
                        _ => coin.next_unit() < hit_rate,
                    };
                    let body = run_body(if hot { HOT_SEED } else { unique });
                    let t0 = Instant::now();
                    let Ok(ex) = http_request(addr, "POST", "/v1/run", &body) else {
                        errors += 1;
                        continue;
                    };
                    latencies.push(t0.elapsed().as_micros() as u64);
                    match ex.status {
                        429 => rejected += 1,
                        s if s >= 500 => errors += 1,
                        _ => {}
                    }
                    match ex.headers.get("x-cache").map(String::as_str) {
                        Some("hit") | Some("coalesced") => hits += 1,
                        _ => {}
                    }
                    if hot && ex.status == 200 {
                        hot_bodies.push(ex.body);
                    }
                }
                (latencies, hits, errors, rejected, hot_bodies)
            })
        })
        .collect();
    let mut latencies = Vec::new();
    let mut hits = 0;
    let mut errors = 0;
    let mut rejected = 0;
    let mut hot_bodies = Vec::new();
    for handle in handles {
        let (l, h, e, r, b) = handle.join().expect("bench client panicked");
        latencies.extend(l);
        hits += h;
        errors += e;
        rejected += r;
        hot_bodies.extend(b);
    }
    let elapsed = started.elapsed().as_secs_f64().max(1e-9);
    latencies.sort_unstable();
    let quantile = |q: f64| -> u64 {
        if latencies.is_empty() {
            return 0;
        }
        let idx = ((latencies.len() as f64 * q).ceil() as usize).clamp(1, latencies.len()) - 1;
        latencies[idx]
    };
    let completed = latencies.len();
    (
        PhaseResult {
            clients,
            workload,
            requests: completed,
            throughput_rps: completed as f64 / elapsed,
            p50_us: quantile(0.50),
            p99_us: quantile(0.99),
            cache_hit_rate: if completed == 0 {
                0.0
            } else {
                hits as f64 / completed as f64
            },
            errors_5xx: errors,
            rejected_429: rejected,
        },
        hot_bodies,
    )
}

/// Runs the full bench against a live service.
pub fn run(config: &BenchConfig) -> BenchReport {
    let mut phases = Vec::new();
    let mut all_hot_bodies: Vec<Vec<u8>> = Vec::new();
    let mut seed_base = 1_000_000;
    for &clients in &config.client_counts {
        for workload in ["cold", "hot", "mixed"] {
            let (result, hot_bodies) = run_phase(
                config.addr,
                clients,
                config.requests,
                workload,
                config.hit_rate,
                seed_base,
            );
            // Distinct seed ranges per phase keep cold phases genuinely cold.
            seed_base += 100_000_000;
            eprintln!(
                "bench: clients={} workload={:<5} rps={:8.1} p50={}us p99={}us hit_rate={:.2} 5xx={} 429={}",
                result.clients,
                result.workload,
                result.throughput_rps,
                result.p50_us,
                result.p99_us,
                result.cache_hit_rate,
                result.errors_5xx,
                result.rejected_429,
            );
            phases.push(result);
            all_hot_bodies.extend(hot_bodies);
        }
    }
    let cached_body_identical = match all_hot_bodies.split_first() {
        None => false,
        Some((first, rest)) => rest.iter().all(|b| b == first),
    };
    let max_clients = config.client_counts.iter().copied().max().unwrap_or(1);
    let rps = |workload: &str| {
        phases
            .iter()
            .find(|p| p.clients == max_clients && p.workload == workload)
            .map(|p| p.throughput_rps)
            .unwrap_or(0.0)
    };
    let cold = rps("cold");
    BenchReport {
        speedup_hot_over_cold: if cold > 0.0 { rps("hot") / cold } else { 0.0 },
        cached_body_identical,
        phases,
    }
}

impl BenchReport {
    /// True when the acceptance gates hold: no 5xx anywhere, the hot
    /// workload actually hit the cache, and cached bodies were
    /// byte-identical.
    pub fn passed(&self) -> bool {
        let no_5xx = self.phases.iter().all(|p| p.errors_5xx == 0);
        let hot_hit = self
            .phases
            .iter()
            .filter(|p| p.workload == "hot")
            .all(|p| p.cache_hit_rate > 0.0);
        no_5xx && hot_hit && self.cached_body_identical
    }

    /// Renders the `BENCH_serve.json` document.
    pub fn to_json(&self) -> String {
        use crate::json::Json;
        let phases: Vec<Json> = self
            .phases
            .iter()
            .map(|p| {
                Json::obj(vec![
                    ("clients", Json::Num(p.clients as f64)),
                    ("workload", Json::str(p.workload)),
                    ("requests", Json::Num(p.requests as f64)),
                    (
                        "throughput_rps",
                        Json::Num((p.throughput_rps * 10.0).round() / 10.0),
                    ),
                    ("p50_us", Json::Num(p.p50_us as f64)),
                    ("p99_us", Json::Num(p.p99_us as f64)),
                    (
                        "cache_hit_rate",
                        Json::Num((p.cache_hit_rate * 1000.0).round() / 1000.0),
                    ),
                    ("errors_5xx", Json::Num(p.errors_5xx as f64)),
                    ("rejected_429", Json::Num(p.rejected_429 as f64)),
                ])
            })
            .collect();
        let host_cpus = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Json::obj(vec![
            ("bench", Json::str("nvp-serve")),
            ("host_cpus", Json::Num(host_cpus as f64)),
            ("phases", Json::Arr(phases)),
            (
                "speedup_hot_over_cold",
                Json::Num((self.speedup_hot_over_cold * 100.0).round() / 100.0),
            ),
            (
                "cached_body_identical",
                Json::Bool(self.cached_body_identical),
            ),
            ("passed", Json::Bool(self.passed())),
        ])
        .render()
    }
}

/// Spawns an in-process server on an ephemeral port and returns its
/// address plus a guard thread handle; used by `bench --self-host` and
/// the integration tests.
pub fn spawn_local_server(
    config: crate::server::ServerConfig,
) -> (SocketAddr, thread::JoinHandle<()>) {
    let server = crate::server::Server::bind(config).expect("bind ephemeral port");
    let addr = server.addr();
    let handle = thread::spawn(move || server.run());
    (addr, handle)
}

/// Requests a clean shutdown of a server started by [`spawn_local_server`].
pub fn shutdown_local_server(addr: SocketAddr, handle: thread::JoinHandle<()>) {
    let _ = http_request(addr, "POST", "/shutdown", "");
    let _ = handle.join();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lcg_is_deterministic_and_unit_ranged() {
        let mut a = Lcg(42);
        let mut b = Lcg(42);
        for _ in 0..100 {
            let (x, y) = (a.next_unit(), b.next_unit());
            assert_eq!(x, y);
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn response_parser_handles_headers_and_body() {
        let ex = parse_response(b"HTTP/1.1 200 OK\r\nX-Cache: hit\r\nContent-Length: 2\r\n\r\nok")
            .unwrap();
        assert_eq!(ex.status, 200);
        assert_eq!(ex.headers.get("x-cache").unwrap(), "hit");
        assert_eq!(ex.body, b"ok");
    }
}
