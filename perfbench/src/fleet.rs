//! `fleet`: one cold `nvp_fleet::run_chunks` job whose spec seed is the
//! workload seed, so every cell simulates, then a warm replay of the same
//! spec in the same process, which only samples and folds. The warm
//! report must be byte-identical to the cold one.

use crate::common::{cpu_s, fnv1a, micros, nproc, peak_rss_mb, quantile, Outcome};
use nvp_fleet::{
    cell_for_device, cells_computed, cells_shared, decode_snapshot, encode_snapshot, evaluate_cell,
    run_chunks, FleetAggregate, RunOptions, ScenarioSpec,
};
use nvp_repro::catalog;
use std::collections::BTreeMap;
use std::time::Instant;

/// Kernels of the population (also the catalog keys it touches).
const KERNELS: [&str; 4] = ["sobel", "median", "integral", "fft"];
/// Watch profiles of the population, by index.
const PROFILES: [u8; 3] = [1, 2, 3];
/// Profile family members per profile.
const MEMBERS: u32 = 2;
/// Devices in the population.
const DEVICES: u64 = 200_000;

/// The scenario for `seed`: 4 kernels × 3 profiles × 2 members × 3
/// backup scopes × 4 modes = 288 cells over 2×10⁵ devices.
pub fn spec(seed: u64) -> ScenarioSpec {
    let profiles: Vec<String> = PROFILES.iter().map(|p| format!("p{p}")).collect();
    ScenarioSpec::parse(&format!(
        "fleet-spec-v1\n\
         devices = {DEVICES}\n\
         seed = {seed}\n\
         members = {MEMBERS}\n\
         kernels = {}\n\
         profiles = {}\n\
         scopes = full, live, live-dirty\n\
         modes = precise, fixed:4, dynamic:2-8, incidental:4-8\n",
        KERNELS.join(", "),
        profiles.join(", "),
    ))
    .expect("the benchmark's fleet spec is valid")
}

/// The catalog keys this workload touches.
pub fn catalog_keys() -> crate::probe::CatalogKeys {
    let spec = spec(0);
    crate::probe::CatalogKeys {
        kernels: KERNELS.to_vec(),
        img: spec.img,
        frames: spec.frames,
        profiles: PROFILES.to_vec(),
        seconds: spec.trace_ms as f64 / 1000.0,
        members: MEMBERS,
    }
}

fn options() -> RunOptions {
    RunOptions {
        jobs: nproc(),
        stop_after_chunks: None,
    }
}

/// Set-up: parse the spec and load the power traces it replays; returns
/// the spec and the seconds it took.
fn setup(seed: u64) -> (ScenarioSpec, f64) {
    let setup = Instant::now();
    let spec = spec(seed);
    for p in &spec.profiles {
        for m in 0..spec.members {
            std::hint::black_box(catalog::synth_profile_member(
                p.item,
                spec.trace_ms as f64 / 1000.0,
                m,
            ));
        }
    }
    (spec, setup.elapsed().as_secs_f64())
}

/// The set-up alone, in a fresh process.
pub fn setup_only(seed: u64) -> Outcome {
    let mut out = Outcome::default();
    out.metric("setup_s", setup(seed).1);
    out
}

/// Runs the workload once in this process.
pub fn run(seed: u64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let (spec, setup_s) = setup(seed);
    out.metric("setup_s", setup_s);

    let cold_start = Instant::now();
    let cold_cpu = cpu_s();
    let mut cold = FleetAggregate::new(spec.clone());
    let cold_ok = run_chunks(&mut cold, options(), |_| {});
    let cold_s = cold_start.elapsed().as_secs_f64();
    let cold_cpu_s = cpu_s() - cold_cpu;
    out.check(cold_ok.is_ok() && cold.is_complete(), || {
        format!("cold fleet job did not complete: {cold_ok:?}")
    });
    let cold_report = cold.render_report();

    let mut chunks = 0usize;
    let warm_start = Instant::now();
    let warm_cpu = cpu_s();
    let mut warm = FleetAggregate::new(spec.clone());
    let warm_ok = run_chunks(&mut warm, options(), |_| chunks += 1);
    let warm_s = warm_start.elapsed().as_secs_f64();
    let warm_cpu_s = cpu_s() - warm_cpu;
    out.check(warm_ok.is_ok() && warm.is_complete(), || {
        format!("warm fleet replay did not complete: {warm_ok:?}")
    });
    let warm_report = warm.render_report();
    out.check(warm_report == cold_report, || {
        "warm fleet report differs from the cold one".into()
    });

    out.metric("job_cpu_s", cold_cpu_s);
    out.metric("unit_us", warm_cpu_s * 1e6 / chunks.max(1) as f64);
    out.metric("fleet_cold_s", cold_s);
    out.metric("fleet_warm_devices_per_s", spec.devices as f64 / warm_s);
    out.counter("fleet.cells_computed", cells_computed());
    out.counter("fleet.cells_shared", cells_shared());
    // 52 bits, so the digest survives a round trip through a JSON number.
    out.counter("fleet.report_fnv52", fnv1a(cold_report.as_bytes()) >> 12);
    out.counter("catalog.compile_count", catalog::compile_count());
    if traced {
        layers(&mut out, &spec, &cold, cold_s, warm_s);
    }
    out.metric("peak_rss_mb", peak_rss_mb());
    out
}

/// The traced pass: the fleet's layers called directly.
fn layers(out: &mut Outcome, spec: &ScenarioSpec, done: &FleetAggregate, cold_s: f64, warm_s: f64) {
    // Sampling alone: the device → cell hash and its canonical form, as
    // the chunk loop computes them for every device.
    let t = Instant::now();
    for d in 0..spec.devices {
        std::hint::black_box(cell_for_device(spec, d).canonical());
    }
    let sample_s = t.elapsed().as_secs_f64();
    out.metric("fleet.sample_devices_per_s", spec.devices as f64 / sample_s);
    out.metric("fleet.fold_s", warm_s - sample_s);

    // Cell evaluation on fresh cells: the next seed's cells are not in
    // the process-wide cell cache yet.
    let fresh = self::spec(spec.seed.wrapping_add(1));
    let mut cells = BTreeMap::new();
    for d in 0..fresh.devices {
        let key = cell_for_device(&fresh, d);
        cells.entry(key.canonical()).or_insert(key);
    }
    let mut eval_us: Vec<f64> = cells
        .values()
        .map(|key| {
            let t = Instant::now();
            std::hint::black_box(evaluate_cell(key));
            micros(t)
        })
        .collect();
    let cell_total_s: f64 = eval_us.iter().sum::<f64>() / 1e6;
    out.metric("fleet.cell_eval_us.p50", quantile(&mut eval_us, 0.5));
    out.metric("fleet.cell_eval_us.p99", quantile(&mut eval_us, 0.99));
    out.metric(
        "exec.fleet_efficiency",
        cell_total_s / (nproc() as f64 * cold_s),
    );

    // The resume path: render, snapshot, restore.
    let t = Instant::now();
    let report = done.render_report();
    out.metric("fleet.report_us", micros(t));
    let t = Instant::now();
    let snap = encode_snapshot(done);
    out.metric("fleet.snapshot_encode_us", micros(t));
    let t = Instant::now();
    let restored = decode_snapshot(&snap);
    out.metric("fleet.snapshot_decode_us", micros(t));
    out.check(restored.is_ok_and(|r| r.render_report() == report), || {
        "snapshot round trip changed the report".into()
    });
}
