//! The catalog's build counters are exact: one checkpoint synthesis and
//! one compilation per kernel × dimensions, however many simulators read
//! them and from however many threads.
//!
//! A single test in its own binary, so no concurrent test moves the
//! process-wide counters between its reads.

use nvp_kernels::KernelId;
use nvp_repro::catalog::{build_sim, compile_count, frames_for, placement_synth_count};
use nvp_sim::{BackupScope, ExecEngine, ExecMode, SystemConfig};

fn build(id: KernelId, scope: BackupScope, engine: ExecEngine) {
    let cfg = SystemConfig {
        backup_scope: scope,
        exec_engine: engine,
        ..Default::default()
    };
    build_sim(id, 8, frames_for(id, 8, 1), ExecMode::Precise, cfg);
}

#[test]
fn each_placement_and_compilation_is_built_once() {
    let (synths, compiles) = (placement_synth_count(), compile_count());

    // A full-state step simulator reads neither table.
    build(KernelId::Sobel, BackupScope::FullState, ExecEngine::Step);
    assert_eq!(placement_synth_count(), synths);

    // The same kernel twice: one synthesis.
    build(KernelId::Sobel, BackupScope::LiveDirty, ExecEngine::Step);
    build(KernelId::Sobel, BackupScope::LiveDirty, ExecEngine::Step);
    assert_eq!(placement_synth_count(), synths + 1);

    // Another kernel from four threads at once: one more.
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| build(KernelId::Median, BackupScope::LiveDirty, ExecEngine::Step));
        }
    });
    assert_eq!(placement_synth_count(), synths + 2);

    // Compiled runs compile on first use, once per kernel.
    let frames = frames_for(KernelId::Integral, 8, 1);
    let profile = nvp_power::PowerProfile::from_uw(vec![400.0; 2_000]);
    let cfg = SystemConfig {
        exec_engine: ExecEngine::Compiled,
        ..Default::default()
    };
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                build_sim(
                    KernelId::Integral,
                    8,
                    frames.clone(),
                    ExecMode::Precise,
                    cfg.clone(),
                )
                .run(&profile)
            });
        }
    });
    assert_eq!(compile_count(), compiles + 1);
    assert_eq!(placement_synth_count(), synths + 2);
}
