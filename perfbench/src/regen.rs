//! `regen`: the full paper regeneration `repro all` performs, at
//! `Scale::full()` with the CLI's defaults (the `Step` engine and one
//! sweep job per CPU). It takes no seed: the paper's evaluation is fixed.
//! Every table is checked against the digests in `regen_digests.txt`.

use crate::common::{cpu_s, fnv1a, geomean, micros, peak_rss_mb, Outcome};
use nvp_power::synth::WatchProfile;
use nvp_repro::experiments as e;
use nvp_repro::{catalog, Scale, Table};
use std::time::Instant;

/// One experiment of `repro all`, in the order `all` runs them.
type Experiment = (&'static str, fn(Scale) -> Vec<Table>);

/// The experiments of `nvp_repro::experiments::all`, in its order. The
/// traced pass checks that their tables are exactly what `all` returns.
pub const EXPERIMENTS: [Experiment; 25] = [
    ("fig2", e::fig2),
    ("fig3", e::fig3),
    ("fig4", |_| e::fig4()),
    ("fig5", |_| e::fig5()),
    ("waitcompute", e::waitcompute),
    ("backup_cost", e::backup_cost),
    ("fig9", e::fig9),
    ("fig12", e::fig12),
    ("fig14", e::fig14),
    ("safebits", e::safebits),
    ("wcec", e::wcec),
    ("ckpt", e::ckpt),
    ("fig15", e::fig15),
    ("fig16", e::fig16),
    ("fig18", e::fig18),
    ("fig19", e::fig19),
    ("fig20", e::fig20),
    ("fig21", e::fig21),
    ("fig22", e::fig22),
    ("fig24", e::fig24),
    ("fig25", e::fig25),
    ("fig27", e::fig27),
    ("table2", e::table2),
    ("frametime", e::frametime),
    ("fig28", |s| e::fig28(s, false)),
];

/// Table digests captured from this workload; one `experiment table
/// digest` line per table, in regeneration order.
const DIGESTS: &str = include_str!("../regen_digests.txt");

/// The regeneration's scale: paper size, one sweep job per CPU.
pub fn scale() -> Scale {
    Scale::full().with_jobs(0)
}

/// The catalog keys this workload touches.
pub fn catalog_keys() -> crate::probe::CatalogKeys {
    let scale = scale();
    crate::probe::CatalogKeys {
        kernels: nvp_kernels::KernelId::ALL
            .iter()
            .map(|k| k.name())
            .collect(),
        img: scale.img,
        frames: scale.frames,
        profiles: vec![1, 2, 3, 4, 5],
        seconds: scale.trace_seconds,
        members: 1,
    }
}

/// `experiment table digest` for every table, in order.
fn digest_lines(tables: &[(&str, Vec<Table>)]) -> Vec<String> {
    tables
        .iter()
        .flat_map(|(exp, ts)| {
            ts.iter()
                .map(move |t| format!("{exp} {} {:016x}", t.name, fnv1a(t.to_string().as_bytes())))
        })
        .collect()
}

/// Runs every experiment and prints the digest file `regen` checks
/// against.
pub fn print_digests() {
    let tables: Vec<_> = EXPERIMENTS.iter().map(|(n, f)| (*n, f(scale()))).collect();
    for line in digest_lines(&tables) {
        println!("{line}");
    }
}

/// Set-up: the five paper power traces every experiment replays; returns
/// the seconds it took.
fn setup() -> f64 {
    let setup = Instant::now();
    for p in WatchProfile::ALL {
        std::hint::black_box(catalog::synth_profile(p, scale().trace_seconds));
    }
    setup.elapsed().as_secs_f64()
}

/// The set-up alone, in a fresh process.
pub fn setup_only() -> Outcome {
    let mut out = Outcome::default();
    out.metric("setup_s", setup());
    out
}

/// Runs the workload once in this process.
pub fn run(traced: bool) -> Outcome {
    let mut out = Outcome::default();
    out.metric("setup_s", setup());
    let scale = scale();

    let job = Instant::now();
    let job_cpu = cpu_s();
    let mut cpus = Vec::new();
    let mut tables = Vec::new();
    for (name, f) in EXPERIMENTS {
        let t = Instant::now();
        let c = cpu_s();
        let produced = f(scale);
        let us = micros(t);
        cpus.push((cpu_s() - c) * 1e6);
        if traced {
            out.metric(format!("repro.exp.{name}_s"), us / 1e6);
        }
        tables.push((name, produced));
    }
    let regen_s = job.elapsed().as_secs_f64();
    out.metric("job_cpu_s", cpu_s() - job_cpu);
    out.metric("regen_s", regen_s);
    // Experiments run from microseconds to seconds; the geometric mean
    // gives each the same weight and, unlike a median, does not jump
    // between experiments when two of them trade places.
    out.metric("unit_us", geomean(&cpus));

    let got = digest_lines(&tables);
    let want: Vec<&str> = DIGESTS.lines().filter(|l| !l.trim().is_empty()).collect();
    out.check(got.len() == want.len(), || {
        format!("{} tables regenerated, {} expected", got.len(), want.len())
    });
    for (g, w) in got.iter().zip(&want) {
        out.check(g == w, || format!("table digest {g} != expected {w}"));
    }
    out.counter("regen.tables", got.len() as u64);
    out.counter("catalog.compile_count", catalog::compile_count());
    if traced {
        // The list above must be exactly what `repro all` runs.
        let all: String = e::all(scale).iter().map(|t| t.to_string()).collect();
        let listed: String = tables
            .iter()
            .flat_map(|(_, ts)| ts)
            .map(|t| t.to_string())
            .collect();
        out.check(all == listed, || {
            "the benchmark's experiment list no longer matches experiments::all".into()
        });
    }
    out.metric("peak_rss_mb", peak_rss_mb());
    out
}
