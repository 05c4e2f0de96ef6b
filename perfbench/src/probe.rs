//! Direct calls into the catalog, simulator, quality and trace layers,
//! timed from outside. Only the traced run uses this.

use crate::common::{micros, quantile, Outcome};
use incidental::QualityReport;
use nvp_kernels::KernelId;
use nvp_power::synth::WatchProfile;
use nvp_repro::{catalog, dims, Scale};
use nvp_sim::{
    BackupScope, ExecEngine, ExecMode, Governor, IncidentalSetup, SystemConfig, SystemSim,
};
use nvp_trace::CounterSink;
use std::time::Instant;

/// Timed repetitions per simulator measurement; the median is kept.
const REPS: usize = 5;

/// The catalog entries a workload reads.
pub struct CatalogKeys {
    /// Kernels, by wire name.
    pub kernels: Vec<&'static str>,
    /// Image edge length.
    pub img: usize,
    /// Cycled input frames.
    pub frames: usize,
    /// Watch profiles, by index.
    pub profiles: Vec<u8>,
    /// Power-trace length, seconds.
    pub seconds: f64,
    /// Profile family members per profile.
    pub members: u32,
}

/// A kernel by wire name.
pub fn kernel(name: &str) -> KernelId {
    KernelId::ALL
        .into_iter()
        .find(|k| k.name().eq_ignore_ascii_case(name))
        .expect("the benchmark names only real kernels")
}

fn profile(index: u8) -> WatchProfile {
    WatchProfile::ALL
        .into_iter()
        .find(|p| p.index() == usize::from(index))
        .expect("the benchmark names only real profiles")
}

fn mode(tag: &str) -> ExecMode {
    match tag {
        "precise" => ExecMode::Precise,
        "fixed4" => ExecMode::Fixed(nvp_isa::ApproxConfig::fixed(4)),
        "dynamic" => ExecMode::Dynamic(Governor::new(2, 8)),
        "incidental" => ExecMode::Incidental(IncidentalSetup::new(4, 8)),
        other => unreachable!("unknown mode tag {other}"),
    }
}

const MODE_TAGS: [&str; 4] = ["precise", "fixed4", "dynamic", "incidental"];

fn median_of(mut f: impl FnMut() -> f64) -> f64 {
    let mut v: Vec<f64> = (0..REPS).map(|_| f()).collect();
    quantile(&mut v, 0.5)
}

/// First-call cost of each catalog memo, summed over `keys`. Must run
/// before anything else in the process touches the catalog.
pub fn catalog_first_calls(out: &mut Outcome, keys: &CatalogKeys) {
    let (mut spec_us, mut frames_us, mut compiled_us, mut profile_us) = (0.0, 0.0, 0.0, 0.0);
    for &name in &keys.kernels {
        let k = kernel(name);
        let (w, h) = dims(k, keys.img);
        let t = Instant::now();
        std::hint::black_box(catalog::cached_spec(k, w, h));
        spec_us += micros(t);
        let t = Instant::now();
        std::hint::black_box(catalog::frames_for(k, keys.img, keys.frames));
        frames_us += micros(t);
        let t = Instant::now();
        std::hint::black_box(catalog::compiled_for(k, w, h));
        compiled_us += micros(t);
    }
    for &p in &keys.profiles {
        for m in 0..keys.members {
            let t = Instant::now();
            std::hint::black_box(catalog::synth_profile_member(profile(p), keys.seconds, m));
            profile_us += micros(t);
        }
    }
    out.metric("catalog.cached_spec_us", spec_us);
    out.metric("catalog.frames_for_us", frames_us);
    out.metric("catalog.compiled_for_us", compiled_us);
    out.metric("catalog.synth_profile_us", profile_us);
}

/// Simulated instructions per host second for every engine × mode ×
/// kernel at paper scale; the instruction counts must agree across
/// engines.
pub fn sim_mips(out: &mut Outcome) {
    let scale = Scale::full();
    let trace = catalog::synth_profile(WatchProfile::P1, scale.trace_seconds);
    for kname in ["sobel", "median"] {
        let k = kernel(kname);
        let (w, h) = dims(k, scale.img);
        let frames = catalog::frames_for(k, scale.img, scale.frames);
        for tag in MODE_TAGS {
            let mut retired = Vec::new();
            for (etag, engine) in [
                ("step", ExecEngine::Step),
                ("block", ExecEngine::BlockBudget),
                ("compiled", ExecEngine::Compiled),
            ] {
                let mut instr = 0;
                let secs = median_of(|| {
                    let cfg = SystemConfig {
                        exec_engine: engine,
                        ..Default::default()
                    };
                    let mut sim = SystemSim::new(
                        catalog::cached_spec(k, w, h),
                        frames.clone(),
                        mode(tag),
                        cfg,
                    );
                    if engine == ExecEngine::Compiled {
                        sim.set_compiled(catalog::compiled_for(k, w, h));
                    }
                    let t = Instant::now();
                    instr = sim.run(&trace).instructions_retired;
                    t.elapsed().as_secs_f64()
                });
                out.metric(
                    format!("sim.mips.{etag}.{tag}.{kname}"),
                    instr as f64 / secs / 1e6,
                );
                retired.push(instr);
            }
            out.check(retired.iter().all(|&r| r == retired[0]), || {
                format!("{kname} {tag}: engines retired {retired:?} instructions")
            });
            out.counter(format!("sim.instructions.{tag}.{kname}"), retired[0]);
        }
    }
}

/// `SystemSim::new` per backup scope, over the fleet's kernels and size.
pub fn sim_construct(out: &mut Outcome, keys: &CatalogKeys) {
    for (tag, scope) in [
        ("full", BackupScope::FullState),
        ("live", BackupScope::LiveOnly),
        ("live-dirty", BackupScope::LiveDirty),
    ] {
        let mut samples = Vec::new();
        for &name in &keys.kernels {
            let k = kernel(name);
            let (w, h) = dims(k, keys.img);
            let spec = catalog::cached_spec(k, w, h);
            let inputs = catalog::frames_for(k, keys.img, keys.frames);
            for _ in 0..REPS {
                let cfg = SystemConfig {
                    backup_scope: scope,
                    ..Default::default()
                };
                let t = Instant::now();
                let sim = SystemSim::new(spec.clone(), inputs.clone(), ExecMode::Precise, cfg);
                samples.push(micros(t));
                drop(std::hint::black_box(sim));
            }
        }
        out.metric(
            format!("sim.construct_us.{tag}"),
            quantile(&mut samples, 0.5),
        );
    }
}

/// `QualityReport::score` over the fleet's kernels × modes.
pub fn quality_score(out: &mut Outcome, keys: &CatalogKeys) {
    let trace = catalog::synth_profile(profile(keys.profiles[0]), keys.seconds);
    let mut samples = Vec::new();
    for &name in &keys.kernels {
        let k = kernel(name);
        let (w, h) = dims(k, keys.img);
        let inputs = catalog::frames_for(k, keys.img, keys.frames);
        for tag in MODE_TAGS {
            let cfg = SystemConfig {
                record_outputs: true,
                ..Default::default()
            };
            let report = SystemSim::new(
                catalog::cached_spec(k, w, h),
                inputs.clone(),
                mode(tag),
                cfg,
            )
            .run(&trace);
            samples.push(median_of(|| {
                let t = Instant::now();
                std::hint::black_box(QualityReport::score(k, w, h, &inputs, &report));
                micros(t)
            }));
        }
    }
    out.metric("quality.score_us", quantile(&mut samples, 0.5));
}

/// Cost of a run traced into a `CounterSink` (as `nvp-serve` runs every
/// miss) relative to the same run untraced, over the serve-mix classes.
pub fn counter_sink_ratio(out: &mut Outcome, keys: &CatalogKeys) {
    let (mut plain, mut counted) = (0.0, 0.0);
    for &name in &keys.kernels {
        for tag in MODE_TAGS {
            let req = catalog::RunRequest {
                kernel: kernel(name),
                img: keys.img,
                frames: keys.frames,
                trace_seconds: keys.seconds,
                profile: profile(keys.profiles[0]),
                mode: mode(tag),
                engine: ExecEngine::Compiled,
                seed: 0x5EED,
            };
            plain += median_of(|| {
                let t = Instant::now();
                std::hint::black_box(catalog::simulate(&req));
                micros(t)
            });
            counted += median_of(|| {
                let mut sink = CounterSink::new();
                let t = Instant::now();
                std::hint::black_box(catalog::simulate_traced(&req, &mut sink));
                micros(t)
            });
        }
    }
    out.metric("trace.counter_sink_ratio", counted / plain);
}
