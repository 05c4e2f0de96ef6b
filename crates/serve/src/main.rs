//! `nvp-serve` CLI: `serve` runs the HTTP service, `bench` runs the
//! closed-loop load generator (self-hosting a server unless `--addr`
//! points at a running one).

use nvp_serve::bench::{self, BenchConfig};
use nvp_serve::server::{Server, ServerConfig};
use nvp_serve::signal;
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => cmd_serve(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        Some("--help") | Some("-h") | None => {
            print_usage();
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown subcommand '{other}'");
            print_usage();
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    eprintln!(
        "nvp-serve: HTTP service over the incidental-computing simulator\n\
         \n\
         USAGE:\n\
         \u{20}   nvp-serve serve [--port P] [--jobs N] [--queue N] [--cache N] [--deadline-ms MS]\n\
         \u{20}   nvp-serve bench [--clients N] [--requests N] [--hit-rate F] [--addr HOST:PORT] [--out FILE]\n\
         \n\
         `serve` prints `listening on 127.0.0.1:PORT` (ephemeral port under --port 0)\n\
         and drains cleanly on SIGTERM or POST /shutdown.\n\
         `bench` self-hosts a server unless --addr is given, sweeps client counts\n\
         (1/4/16 by default, or just --clients N), and writes BENCH_serve.json."
    );
}

/// Pulls `--flag value` out of an argument list, complaining on
/// unparseable values.
fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    let Some(pos) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    let value = args
        .get(pos + 1)
        .ok_or_else(|| format!("{name} needs a value"))?;
    value
        .parse()
        .map(Some)
        .map_err(|_| format!("{name}: cannot parse '{value}'"))
}

fn cmd_serve(args: &[String]) -> ExitCode {
    let mut config = ServerConfig::default();
    let parsed = (|| -> Result<(), String> {
        if let Some(port) = flag::<u16>(args, "--port")? {
            config.port = port;
        }
        if let Some(jobs) = flag::<usize>(args, "--jobs")? {
            config.workers = jobs.max(1);
        }
        if let Some(queue) = flag::<usize>(args, "--queue")? {
            config.queue = queue.max(1);
        }
        if let Some(cache) = flag::<usize>(args, "--cache")? {
            config.cache = cache.max(1);
        }
        if let Some(ms) = flag::<u64>(args, "--deadline-ms")? {
            config.read_deadline = Duration::from_millis(ms.max(1));
        }
        Ok(())
    })();
    if let Err(msg) = parsed {
        eprintln!("{msg}");
        return ExitCode::FAILURE;
    }
    signal::install();
    let server = match Server::bind(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The ephemeral-port contract: scripts parse this exact line.
    println!("listening on {}", server.addr());
    // The bridge stays blocked, and dies with the process, when the
    // drain comes from `POST /shutdown` instead.
    let shutdown = server.shutdown_handle();
    std::thread::spawn(move || {
        signal::wait();
        shutdown.shutdown();
    });
    server.run();
    eprintln!("drained, exiting");
    ExitCode::SUCCESS
}

fn cmd_bench(args: &[String]) -> ExitCode {
    let mut bench_config = BenchConfig::default();
    let mut out_path = "BENCH_serve.json".to_string();
    let mut external_addr: Option<std::net::SocketAddr> = None;
    let parsed = (|| -> Result<(), String> {
        if let Some(clients) = flag::<usize>(args, "--clients")? {
            bench_config.client_counts = vec![clients.max(1)];
        }
        if let Some(requests) = flag::<usize>(args, "--requests")? {
            bench_config.requests = requests.max(1);
        }
        if let Some(rate) = flag::<f64>(args, "--hit-rate")? {
            bench_config.hit_rate = rate.clamp(0.0, 1.0);
        }
        if let Some(addr) = flag::<std::net::SocketAddr>(args, "--addr")? {
            external_addr = Some(addr);
        }
        if let Some(out) = flag::<String>(args, "--out")? {
            out_path = out;
        }
        Ok(())
    })();
    if let Err(msg) = parsed {
        eprintln!("{msg}");
        return ExitCode::FAILURE;
    }

    let local = external_addr.is_none();
    let (addr, handle) = match external_addr {
        Some(addr) => (addr, None),
        None => {
            let (addr, handle) = bench::spawn_local_server(ServerConfig::default());
            eprintln!("bench: self-hosted server on {addr}");
            (addr, Some(handle))
        }
    };
    bench_config.addr = addr;
    let report = bench::run(&bench_config);
    if local {
        if let Some(handle) = handle {
            bench::shutdown_local_server(addr, handle);
        }
    }
    let json = report.to_json();
    if let Err(e) = std::fs::write(&out_path, format!("{json}\n")) {
        eprintln!("cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "bench: wrote {out_path} (speedup hot/cold = {:.1}x, passed = {})",
        report.speedup_hot_over_cold,
        report.passed()
    );
    if report.passed() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "bench FAILED: 5xx served, hot workload missed the cache, or cached bodies diverged"
        );
        ExitCode::FAILURE
    }
}
