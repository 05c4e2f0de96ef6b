//! One benchmark process: runs one workload pass (or one probe) and
//! prints its measurements as one JSON line on stdout. `run.py` starts a
//! fresh process for every repetition, because the catalog memos and the
//! fleet cell cache live for the whole process.
//!
//! ```text
//! nvp-perfbench rep    <serve-mix|regen|fleet> --seed N   # untraced pass
//! nvp-perfbench traced <serve-mix|regen|fleet> --seed N   # pass with per-layer timers
//! nvp-perfbench probe  <serve-mix|regen|fleet>            # catalog, sim, quality, trace layers
//! nvp-perfbench setup  <serve-mix|regen|fleet> --seed N   # the workload's set-up alone
//! nvp-perfbench digests                                   # print regen_digests.txt
//! ```

mod client;
mod common;
mod fleet;
mod probe;
mod regen;
mod serve_mix;

use common::Outcome;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: nvp-perfbench <rep|traced|probe|setup> <serve-mix|regen|fleet> [--seed N] | digests"
    );
    ExitCode::from(2)
}

fn probe(workload: &str) -> Outcome {
    let mut out = Outcome::default();
    let keys = match workload {
        "serve-mix" => serve_mix::catalog_keys(),
        "regen" => regen::catalog_keys(),
        _ => fleet::catalog_keys(),
    };
    probe::catalog_first_calls(&mut out, &keys);
    probe::sim_construct(&mut out, &fleet::catalog_keys());
    probe::quality_score(&mut out, &fleet::catalog_keys());
    probe::sim_mips(&mut out);
    probe::counter_sink_ratio(&mut out, &serve_mix::catalog_keys());
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("digests") {
        regen::print_digests();
        return ExitCode::SUCCESS;
    }
    let (Some(mode), Some(workload)) = (args.first(), args.get(1)) else {
        return usage();
    };
    let seed = match args.iter().position(|a| a == "--seed") {
        None => 0,
        Some(i) => match args.get(i + 1).and_then(|s| s.parse::<u64>().ok()) {
            Some(s) => s,
            None => return usage(),
        },
    };
    let traced = match mode.as_str() {
        "rep" => false,
        "traced" => true,
        "setup" => {
            common::warm_cpus(200);
            let out = match workload.as_str() {
                "serve-mix" => serve_mix::setup_only(),
                "regen" => regen::setup_only(),
                "fleet" => fleet::setup_only(seed),
                _ => return usage(),
            };
            println!("{}", out.render());
            return ExitCode::SUCCESS;
        }
        "probe" => {
            if !["serve-mix", "regen", "fleet"].contains(&workload.as_str()) {
                return usage();
            }
            println!("{}", probe(workload).render());
            return ExitCode::SUCCESS;
        }
        _ => return usage(),
    };
    let out = match workload.as_str() {
        "serve-mix" => serve_mix::run(seed, traced),
        "regen" => regen::run(traced),
        "fleet" => fleet::run(seed, traced),
        _ => return usage(),
    };
    for e in &out.errors {
        eprintln!("check failed: {e}");
    }
    println!("{}", out.render());
    ExitCode::SUCCESS
}
