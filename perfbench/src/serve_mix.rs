//! `serve-mix`: a closed loop of `POST /v1/run` requests against an
//! in-process `nvp_serve::Server` with its default configuration.
//!
//! `nproc` clients each keep one request in flight. Four in five requests
//! repeat a 32-key hot set; the fifth carries a fresh seed, and the fresh
//! keys cycle through every kernel × mode class in a seeded order, so each
//! run pays for the same simulation work. The stream is long enough that
//! its distinct keys outgrow the server's 1024-entry result cache, so
//! inserts and evictions happen beside the hits.

use crate::client::{Client, Response};
use crate::common::{cpu_s, micros, nproc, peak_rss_mb, quantile, thread_cpu_s, Outcome, Rng};
use nvp_repro::catalog;
use nvp_serve::json::Json;
use nvp_serve::metrics::Metrics;
use nvp_serve::{Lookup, ResultCache, Server, ServerConfig, SimKey};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Requests in one stream; 20% of them are fresh keys, which with the
/// 32 hot keys outnumber the server's 1024 cache entries.
const REQUESTS: usize = 6000;
/// One request in `FRESH_EVERY` carries a fresh seed.
const FRESH_EVERY: usize = 5;
/// Distinct keys the hot requests repeat.
const HOT_KEYS: usize = 32;
/// Image edge and trace length of every request (paper-like sizes).
const IMG: u64 = 24;
const SECONDS: u64 = 2;
/// Fresh keys per class whose simulation the traced pass times directly.
const TRACED_SAMPLES_PER_CLASS: usize = 8;

/// Kernels of the miss classes, by wire name.
pub const KERNELS: [&str; 4] = ["sobel", "median", "integral", "fft"];
/// Modes of the miss classes: metric tag and request JSON.
pub const MODES: [(&str, &str); 4] = [
    ("precise", r#""precise""#),
    ("fixed4", r#"{"fixed":4}"#),
    ("dynamic", r#"{"dynamic":{"minbits":2,"maxbits":8}}"#),
    ("incidental", r#"{"incidental":{"minbits":4,"maxbits":8}}"#),
];
const CLASSES: usize = KERNELS.len() * MODES.len();

/// One request of the stream.
struct Req {
    class: usize,
    fresh: bool,
    body: String,
}

fn body(class: usize, seed: u64) -> String {
    format!(
        r#"{{"kernel":"{}","img":{IMG},"frames":2,"seconds":{SECONDS},"mode":{},"seed":{seed}}}"#,
        KERNELS[class / MODES.len()],
        MODES[class % MODES.len()].1
    )
}

/// The request stream for `seed`: the same seed gives the same stream.
fn stream(seed: u64) -> Vec<Req> {
    let mut rng = Rng::new(seed);
    // Seeds below 2^32 for the hot set, at or above it for fresh keys, so
    // the two never collide.
    let hot: Vec<(usize, u64)> = (0..HOT_KEYS)
        .map(|i| (i % CLASSES, rng.next() & 0xFFFF_FFFF))
        .collect();
    let mut order: Vec<usize> = Vec::new();
    let mut fresh_n = 0u64;
    (0..REQUESTS)
        .map(|i| {
            if i % FRESH_EVERY == FRESH_EVERY - 1 {
                if order.is_empty() {
                    // A seeded permutation of the classes per block, so
                    // every block of CLASSES fresh keys covers each once.
                    order = (0..CLASSES).collect();
                    for j in (1..CLASSES).rev() {
                        order.swap(j, rng.below(j + 1));
                    }
                }
                let class = order.pop().expect("refilled above");
                fresh_n += 1;
                let fresh_seed = (1u64 << 32) + (rng.next() >> 24) * 4096 + fresh_n;
                Req {
                    class,
                    fresh: true,
                    body: body(class, fresh_seed),
                }
            } else {
                let (class, s) = hot[rng.below(HOT_KEYS)];
                Req {
                    class,
                    fresh: false,
                    body: body(class, s),
                }
            }
        })
        .collect()
}

/// One completed request.
struct Done {
    idx: usize,
    latency_us: f64,
    resp: Result<Response, String>,
}

fn is_miss(r: &Done) -> bool {
    matches!(&r.resp, Ok(resp) if matches!(resp.x_cache.as_deref(), Some("miss" | "coalesced")))
}

fn is_hit(r: &Done) -> bool {
    matches!(&r.resp, Ok(resp) if resp.x_cache.as_deref() == Some("hit"))
}

/// The key a generated request body denotes.
fn key_of(body: &str) -> SimKey {
    SimKey::from_json(&Json::parse(body).expect("the generator writes valid JSON"))
        .expect("the generator writes valid requests")
}

fn report_field(body: &[u8], field: &str) -> Option<u64> {
    let json = Json::parse(std::str::from_utf8(body).ok()?).ok()?;
    json.get("report")?.get(field)?.as_u64()
}

/// Parses `/metrics` text into name → value.
fn scrape(text: &str) -> HashMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.trim().to_string(), value.trim().parse().ok()?))
        })
        .collect()
}

/// A server started by [`start`].
struct Started {
    addr: SocketAddr,
    metrics: Arc<Metrics>,
    probe: Client,
    handle: JoinHandle<()>,
}

/// Set-up: bind, spawn the accept loop, and get /healthz answered, as a
/// user starts the service; returns the server and the seconds it took.
/// The client connects before the accept loop starts, so the first accept
/// finds the connection waiting: otherwise a random share of the loop's
/// 500 µs poll interval would decide the time.
fn start(out: &mut Outcome) -> (Started, f64) {
    let setup = Instant::now();
    let server = Server::bind(ServerConfig::default()).expect("bind a loopback port");
    let addr = server.addr();
    let metrics = server.metrics();
    let mut probe = Client::new(addr);
    let connected = probe.connect();
    let handle = std::thread::spawn(move || server.run());
    let healthy = connected.is_ok()
        && probe
            .request("GET", "/healthz", b"")
            .is_ok_and(|r| r.status == 200);
    let setup_s = setup.elapsed().as_secs_f64();
    out.check(healthy, || "GET /healthz did not answer 200".into());
    let started = Started {
        addr,
        metrics,
        probe,
        handle,
    };
    (started, setup_s)
}

/// Shuts the server down and waits for its accept loop to end.
fn stop(out: &mut Outcome, probe: &mut Client, handle: JoinHandle<()>) {
    let drained = probe
        .request("POST", "/shutdown", b"")
        .is_ok_and(|r| r.status == 200);
    out.check(drained, || "POST /shutdown did not answer 200".into());
    handle.join().expect("server thread exits cleanly");
}

/// The set-up alone, in a fresh process: start the server and stop it.
pub fn setup_only() -> Outcome {
    let mut out = Outcome::default();
    let (mut server, setup_s) = start(&mut out);
    stop(&mut out, &mut server.probe, server.handle);
    out.metric("setup_s", setup_s);
    out
}

/// Runs the workload once in this process.
pub fn run(seed: u64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let reqs = stream(seed);
    let (
        Started {
            addr,
            metrics: server_metrics,
            mut probe,
            handle,
        },
        setup_s,
    ) = start(&mut out);

    // The closed loop.
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<Done>> = Mutex::new(Vec::with_capacity(REQUESTS));
    let connects = AtomicUsize::new(0);
    let client_cpu = Mutex::new(0.0);
    let job = Instant::now();
    let job_cpu = cpu_s();
    std::thread::scope(|s| {
        for _ in 0..nproc() {
            s.spawn(|| {
                let cpu = thread_cpu_s();
                let mut client = Client::new(addr);
                let mut mine = Vec::new();
                loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    if idx >= reqs.len() {
                        break;
                    }
                    let t = Instant::now();
                    let resp = client
                        .request("POST", "/v1/run", reqs[idx].body.as_bytes())
                        .map_err(|e| e.to_string());
                    mine.push(Done {
                        idx,
                        latency_us: micros(t),
                        resp,
                    });
                }
                connects.fetch_add(client.connects as usize, Ordering::Relaxed);
                *client_cpu.lock().expect("no client panics holding it") += thread_cpu_s() - cpu;
                done.lock()
                    .expect("no client panics holding it")
                    .extend(mine);
            });
        }
    });
    let job_s = job.elapsed().as_secs_f64();
    let job_cpu_s = cpu_s() - job_cpu;
    let client_cpu_s = client_cpu.into_inner().expect("clients joined");
    let compile_count = catalog::compile_count();
    let mut done = done.into_inner().expect("clients joined");
    done.sort_by_key(|d| d.idx);

    let metrics_text = if traced {
        probe
            .request("GET", "/metrics", b"")
            .map(|r| String::from_utf8_lossy(&r.body).into_owned())
            .unwrap_or_default()
    } else {
        String::new()
    };
    stop(&mut out, &mut probe, handle);

    // Every response: 200 with an X-Cache verdict, and one body per key,
    // the same on hits and misses and naming the key asked for.
    let mut first_body: HashMap<&str, &[u8]> = HashMap::new();
    for d in &done {
        let req = &reqs[d.idx];
        match &d.resp {
            Err(e) => out.check(false, || format!("request {}: {e}", d.idx)),
            Ok(r) => {
                let ok = r.status == 200 && (is_hit(d) || is_miss(d));
                out.check(ok, || {
                    format!(
                        "request {}: status {} x-cache {:?}",
                        d.idx, r.status, r.x_cache
                    )
                });
                if !ok {
                    continue;
                }
                match first_body.get(req.body.as_str()) {
                    Some(first) => out.check(*first == r.body.as_slice(), || {
                        format!("request {}: body differs from the first for its key", d.idx)
                    }),
                    None => {
                        let want = key_of(&req.body).canonical();
                        let named = Json::parse(&String::from_utf8_lossy(&r.body))
                            .ok()
                            .and_then(|j| {
                                j.get("key").and_then(|k| k.as_str().map(str::to_string))
                            });
                        out.check(named.as_deref() == Some(want.as_str()), || {
                            format!("request {}: response names key {named:?}", d.idx)
                        });
                        first_body.insert(&req.body, &r.body);
                    }
                }
            }
        }
    }
    // A sample of keys against the catalog directly: every hot key and
    // the first fresh key of each class.
    let mut sampled: HashSet<&str> = HashSet::new();
    let mut fresh_class_seen = [false; CLASSES];
    for req in &reqs {
        if req.fresh && std::mem::replace(&mut fresh_class_seen[req.class], true) {
            continue;
        }
        let Some(served) = first_body.get(req.body.as_str()) else {
            continue;
        };
        if !sampled.insert(&req.body) {
            continue;
        }
        let key = key_of(&req.body);
        let report = catalog::simulate(&key.run_request());
        out.check(
            report_field(served, "forward_progress") == Some(report.forward_progress)
                && report_field(served, "instructions_retired")
                    == Some(report.instructions_retired),
            || {
                format!(
                    "{}: served report differs from catalog::simulate",
                    key.canonical()
                )
            },
        );
    }

    let mut hits: Vec<f64> = done
        .iter()
        .filter(|d| is_hit(d))
        .map(|d| d.latency_us)
        .collect();
    let mut misses: Vec<f64> = done
        .iter()
        .filter(|d| is_miss(d))
        .map(|d| d.latency_us)
        .collect();
    out.metric("setup_s", setup_s);
    // The server's CPU time: the client threads' own is the load
    // generator's, not the system's.
    out.metric("job_cpu_s", job_cpu_s - client_cpu_s);
    out.metric("serve_stream_s", job_s);
    out.metric("unit_us", quantile(&mut hits, 0.5));
    out.metric("run_hit_p50_us", quantile(&mut hits, 0.5));
    out.metric("run_hit_p99_us", quantile(&mut hits, 0.99));
    out.metric("run_miss_p50_us", quantile(&mut misses, 0.5));
    out.metric("run_miss_p99_us", quantile(&mut misses, 0.99));
    out.metric("serve_rps", done.len() as f64 / job_s);
    out.counter("serve.requests", done.len() as u64);
    out.counter("serve.distinct_keys", first_body.len() as u64);
    out.counter(
        "serve.instructions_retired",
        first_body
            .values()
            .filter_map(|b| report_field(b, "instructions_retired"))
            .sum(),
    );
    out.counter(
        "serve.simulations",
        server_metrics.simulations.load(Ordering::Relaxed),
    );
    out.counter("catalog.compile_count", compile_count);
    out.metric("serve.hit_samples", hits.len() as f64);
    out.metric("serve.miss_samples", misses.len() as f64);
    out.metric(
        "serve.connects_per_request",
        connects.load(Ordering::Relaxed) as f64 / done.len().max(1) as f64,
    );
    if traced {
        layers(&mut out, &reqs, &done, &scrape(&metrics_text), hits.len());
    }
    out.metric("peak_rss_mb", peak_rss_mb());
    out
}

/// The traced pass: replays the stream through the hit path in-process,
/// times simulations directly, and reads the server's own counters.
fn layers(
    out: &mut Outcome,
    reqs: &[Req],
    done: &[Done],
    scraped: &HashMap<String, f64>,
    hit_count: usize,
) {
    let cache = ResultCache::new(1024);
    let (mut parse, mut canon, mut lookup, mut transport) = (vec![], vec![], vec![], vec![]);
    for d in done {
        let req = &reqs[d.idx];
        let t = Instant::now();
        let json = Json::parse(&req.body).expect("valid");
        let parse_us = micros(t);
        let t = Instant::now();
        let key = SimKey::from_json(&json).expect("valid").canonical();
        let canon_us = micros(t);
        let t = Instant::now();
        let found = cache.lookup(&key);
        let lookup_us = micros(t);
        parse.push(parse_us);
        canon.push(canon_us);
        match found {
            Lookup::Hit(_) => lookup.push(lookup_us),
            Lookup::Miss(token) => {
                let body = d.resp.as_ref().map(|r| r.body.clone()).unwrap_or_default();
                token.complete(Arc::new(body));
            }
            Lookup::Join(_) => unreachable!("a serial replay never has a flight in progress"),
        }
        if is_hit(d) {
            transport.push(d.latency_us - (parse_us + canon_us + lookup_us));
        }
    }
    out.metric("serve.json.parse_us", quantile(&mut parse, 0.5));
    out.metric("serve.key.canonical_us", quantile(&mut canon, 0.5));
    out.metric("serve.cache.lookup_us", quantile(&mut lookup, 0.5));
    out.metric("serve.transport_us.p50", quantile(&mut transport, 0.5));
    out.metric("serve.transport_us.p99", quantile(&mut transport, 0.99));

    // Direct simulations of sampled fresh keys: their cost per class, and
    // what the service adds on top of it for the same key.
    let mut per_class: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    let mut overhead = Vec::new();
    for d in done.iter().filter(|d| reqs[d.idx].fresh && is_miss(d)) {
        let req = &reqs[d.idx];
        let samples = per_class.entry(req.class).or_default();
        if samples.len() >= TRACED_SAMPLES_PER_CLASS {
            continue;
        }
        let key = key_of(&req.body);
        let t = Instant::now();
        std::hint::black_box(catalog::simulate(&key.run_request()));
        let sim_us = micros(t);
        samples.push(sim_us);
        overhead.push(d.latency_us - sim_us);
    }
    for (class, mut samples) in per_class {
        out.metric(
            format!(
                "catalog.simulate_us.{}.{}",
                KERNELS[class / MODES.len()],
                MODES[class % MODES.len()].0
            ),
            quantile(&mut samples, 0.5),
        );
    }
    out.metric("serve.miss_overhead_us.p50", quantile(&mut overhead, 0.5));

    let count = |pred: &dyn Fn(u16) -> bool| {
        done.iter()
            .filter(|d| d.resp.as_ref().is_ok_and(|r| pred(r.status)))
            .count() as f64
    };
    let misses_sent = done
        .iter()
        .filter(|d| matches!(&d.resp, Ok(r) if r.x_cache.as_deref() == Some("miss")))
        .count();
    let scraped_or_nan = |name: &str| scraped.get(name).copied().unwrap_or(f64::NAN);
    out.metric(
        "serve.server_p50_us",
        scraped_or_nan("nvp_run_latency_p50_us"),
    );
    out.metric("serve.cache.entries", scraped_or_nan("nvp_cache_entries"));
    out.metric(
        "serve.cache.hit_ratio",
        hit_count as f64 / done.len() as f64,
    );
    out.metric(
        "serve.simulations_per_miss",
        scraped_or_nan("nvp_simulations_total") / misses_sent.max(1) as f64,
    );
    out.metric("serve.rejected_429", count(&|s| s == 429));
    out.metric("serve.errors_5xx", count(&|s| s >= 500));
}

/// The catalog keys this workload touches: (kernels, img, frames,
/// profiles, trace seconds, family members).
pub fn catalog_keys() -> crate::probe::CatalogKeys {
    crate::probe::CatalogKeys {
        kernels: KERNELS.to_vec(),
        img: IMG as usize,
        frames: 2,
        profiles: vec![1],
        seconds: SECONDS as f64,
        members: 1,
    }
}
