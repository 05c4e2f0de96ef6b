//! One function per paper table/figure.
//!
//! Naming follows the paper: `fig15` regenerates Figure 15, `table2`
//! Table 2, and the unnumbered Section 2.2 / 3.2 / 7 results get named
//! functions (`waitcompute`, `backup_cost`, `frametime`).

pub mod ckptx;
pub mod dynamicw;
pub mod nvmx;
pub mod overall;
pub mod powerx;
pub mod progress;
pub mod quality;
pub mod racx;
pub mod retention;
pub mod visual;
pub mod wcecx;

pub use ckptx::ckpt;
pub use dynamicw::{fig18, fig19, fig20, fig21};
pub use nvmx::{fig4, fig5};
pub use overall::{
    ablate_buffer, ablate_simd, backup_cost, fig28, fig9, frametime, table2, waitcompute,
};
pub use powerx::{fig2, fig3};
pub use progress::{fig15, fig16};
pub use quality::{fig12, fig14, safebits};
pub use racx::fig27;
pub use retention::{fig22, fig24, fig25};
pub use visual::images;
pub use wcecx::wcec;

use crate::sweep::{capture_active, capture_append};
use crate::{Scale, Table};
use nvp_kernels::KernelId;
use nvp_power::synth::WatchProfile;
use nvp_power::PowerProfile;
use nvp_sim::{ExecEngine, ExecMode, RunReport, SystemConfig, SystemSim};
use nvp_trace::{Event, JsonlBufSink, Tracer};
use std::io::Write;
use std::path::PathBuf;
use std::sync::Mutex;

pub(crate) use crate::catalog::{cached_spec, synth_profile, Frames};

/// Where experiment runs append their JSONL event traces, if anywhere.
/// Set once by the CLI's `--trace` flag before experiments run.
static TRACE_PATH: Mutex<Option<PathBuf>> = Mutex::new(None);

/// Routes every subsequent [`run_system`] / [`run_system_on`] call's event
/// stream to `path` (appending one labelled run per simulation). `None`
/// disables tracing.
pub fn set_trace_path(path: Option<PathBuf>) {
    *TRACE_PATH.lock().expect("trace path lock") = path;
}

/// Whether a `--trace` destination is currently set.
pub(crate) fn trace_enabled() -> bool {
    TRACE_PATH.lock().expect("trace path lock").is_some()
}

/// Default capacitor-check engine for experiment runs. Set once by the
/// CLI's `--engine` flag; experiments that compare engines explicitly
/// (their `tweak` sets `exec_engine`) still win over this default.
static ENGINE: Mutex<ExecEngine> = Mutex::new(ExecEngine::Step);

/// Selects the engine every subsequent [`run_system`] / [`run_system_on`]
/// call starts from.
pub fn set_engine(engine: ExecEngine) {
    *ENGINE.lock().expect("engine lock") = engine;
}

/// The engine currently selected by [`set_engine`].
pub(crate) fn default_engine() -> ExecEngine {
    *ENGINE.lock().expect("engine lock")
}

/// Appends pre-rendered JSONL text to the trace file (the sweep engine's
/// ordered merge of per-job capture buffers).
pub(crate) fn append_trace_text(text: &str) {
    if text.is_empty() {
        return;
    }
    let path = TRACE_PATH.lock().expect("trace path lock").clone();
    let Some(p) = path else { return };
    let result = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&p)
        .and_then(|mut f| f.write_all(text.as_bytes()));
    if let Err(e) = result {
        panic!("cannot write trace file {}: {e}", p.display());
    }
}

/// Short stable tag for a mode, used in trace run labels.
fn mode_tag(mode: &ExecMode) -> &'static str {
    match mode {
        ExecMode::Precise => "precise",
        ExecMode::Fixed(_) => "fixed",
        ExecMode::Dynamic(_) => "dynamic",
        ExecMode::Simd4 => "simd4",
        ExecMode::Incidental(_) => "incidental",
    }
}

/// Runs `sim`, appending a labelled trace to the `--trace` file when set.
///
/// Inside a sweep job the rendered JSONL goes to the job's capture buffer
/// (merged into the file in job order by the sweep engine); outside one it
/// is appended to the file directly. Both paths render through
/// [`JsonlBufSink`]/[`JsonlSink`] with identical bytes per event.
fn run_maybe_traced(sim: SystemSim, trace: &PowerProfile, label: String) -> RunReport {
    if !trace_enabled() {
        return sim.run(trace);
    }
    let mut sink = JsonlBufSink::new();
    sink.record(&Event::RunStart {
        tick: 0,
        label: label.clone(),
    });
    let report = sim.run_traced(trace, &mut sink);
    let text = sink.into_string();
    if capture_active() {
        capture_append(&text);
    } else {
        append_trace_text(&text);
    }
    report
}

/// Builds (or fetches) the cycled input-frame set for a kernel at scale
/// (thin [`Scale`]-shaped wrapper over [`crate::catalog::frames_for`]).
pub(crate) fn make_frames(id: KernelId, scale: Scale) -> Frames {
    crate::catalog::frames_for(id, scale.img, scale.frames)
}

/// The simulator an experiment run uses: the default experiment
/// configuration (outputs unrecorded, the `--engine` default) after
/// `tweak`, over the catalog's shared tables and frames.
fn experiment_sim(
    id: KernelId,
    scale: Scale,
    mode: ExecMode,
    tweak: impl FnOnce(&mut SystemConfig),
) -> SystemSim {
    let mut cfg = SystemConfig {
        record_outputs: false,
        exec_engine: default_engine(),
        ..Default::default()
    };
    tweak(&mut cfg);
    crate::catalog::build_sim(id, scale.img, make_frames(id, scale), mode, cfg)
}

/// Runs one kernel/mode/policy combination over a watch profile.
pub(crate) fn run_system(
    id: KernelId,
    scale: Scale,
    profile: WatchProfile,
    mode: ExecMode,
    tweak: impl FnOnce(&mut SystemConfig),
) -> RunReport {
    let trace = synth_profile(profile, scale.trace_seconds);
    let label = format!("{id:?}/{profile:?}/{}", mode_tag(&mode));
    run_maybe_traced(experiment_sim(id, scale, mode, tweak), &trace, label)
}

/// Like [`run_system`] but over an explicit trace.
pub(crate) fn run_system_on(
    id: KernelId,
    scale: Scale,
    trace: &PowerProfile,
    mode: ExecMode,
    tweak: impl FnOnce(&mut SystemConfig),
) -> RunReport {
    let label = format!("{id:?}/custom/{}", mode_tag(&mode));
    run_maybe_traced(experiment_sim(id, scale, mode, tweak), trace, label)
}

/// Every experiment in paper order; used by `repro all`.
pub fn all(scale: Scale) -> Vec<Table> {
    let mut out = Vec::new();
    out.extend(fig2(scale));
    out.extend(fig3(scale));
    out.extend(fig4());
    out.extend(fig5());
    out.extend(waitcompute(scale));
    out.extend(backup_cost(scale));
    out.extend(fig9(scale));
    out.extend(fig12(scale));
    out.extend(fig14(scale));
    out.extend(safebits(scale));
    out.extend(wcec(scale));
    out.extend(ckpt(scale));
    out.extend(fig15(scale));
    out.extend(fig16(scale));
    out.extend(fig18(scale));
    out.extend(fig19(scale));
    out.extend(fig20(scale));
    out.extend(fig21(scale));
    out.extend(fig22(scale));
    out.extend(fig24(scale));
    out.extend(fig25(scale));
    out.extend(fig27(scale));
    out.extend(table2(scale));
    out.extend(frametime(scale));
    out.extend(fig28(scale, false));
    out
}
