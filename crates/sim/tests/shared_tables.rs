//! Shared per-kernel tables change nothing a run reports.
//!
//! [`SystemSim::with_tables`] over one `Arc<KernelTables>` must be
//! indistinguishable from [`SystemSim::new`], which derives the tables
//! privately: the same `{:?}` of the `RunReport` and the same JSONL trace
//! bytes, for every backup scope × engine × static floor and for an
//! explicit checkpoint plan, and still when one `Arc` serves simulators
//! of different modes and seeds one after another.

use nvp_isa::ApproxConfig;
use nvp_kernels::{KernelId, KernelSpec};
use nvp_power::{PowerProfile, Ticks};
use nvp_sim::{
    BackupScope, CheckpointPlan, ExecEngine, ExecMode, Governor, IncidentalSetup, KernelTables,
    StaticBitsFloor, SystemConfig, SystemSim,
};
use nvp_trace::JsonlBufSink;
use std::sync::Arc;

const ID: KernelId = KernelId::Median;

const SCOPES: [BackupScope; 3] = [
    BackupScope::FullState,
    BackupScope::LiveOnly,
    BackupScope::LiveDirty,
];
const ENGINES: [ExecEngine; 3] = [
    ExecEngine::Step,
    ExecEngine::BlockBudget,
    ExecEngine::Compiled,
];
const FLOORS: [StaticBitsFloor; 3] = [
    StaticBitsFloor::Off,
    StaticBitsFloor::Auto,
    StaticBitsFloor::Fixed(3),
];

fn spec() -> KernelSpec {
    let (w, h) = ID.min_dims();
    ID.spec(w, h)
}

fn frames() -> Vec<Vec<i32>> {
    let (w, h) = ID.min_dims();
    (0..3).map(|i| ID.make_input(w, h, 90 + i)).collect()
}

/// 12 ticks at 800 µW out of every 150: most charges die mid-frame, so
/// every run backs up many times at many pcs.
fn bursty() -> PowerProfile {
    PowerProfile::from_uw((0..6_000).map(|i| if i % 150 < 12 { 800.0 } else { 0.0 }))
}

fn config(scope: BackupScope, engine: ExecEngine, floor: StaticBitsFloor) -> SystemConfig {
    SystemConfig {
        backup_scope: scope,
        exec_engine: engine,
        static_bits_floor: floor,
        run_quantum_ticks: 20,
        ..Default::default()
    }
}

/// The report's `{:?}` and the run's JSONL trace.
fn bytes(sim: SystemSim, profile: &PowerProfile) -> (String, String) {
    let mut sink = JsonlBufSink::new();
    let report = sim.run_traced(profile, &mut sink);
    (format!("{report:?}"), sink.into_string())
}

fn fresh(mode: ExecMode, cfg: SystemConfig, profile: &PowerProfile) -> (String, String) {
    bytes(SystemSim::new(spec(), frames(), mode, cfg), profile)
}

fn shared(
    tables: &Arc<KernelTables>,
    mode: ExecMode,
    cfg: SystemConfig,
    profile: &PowerProfile,
) -> (String, String) {
    bytes(
        SystemSim::with_tables(Arc::clone(tables), frames(), mode, cfg),
        profile,
    )
}

#[test]
fn shared_tables_match_fresh_construction_everywhere() {
    let profile = bursty();
    let tables = Arc::new(KernelTables::new(spec()));
    let mode = ExecMode::Dynamic(Governor::new(2, 8));
    let mut saved_somewhere = false;
    for scope in SCOPES {
        for engine in ENGINES {
            for floor in FLOORS {
                let cfg = config(scope, engine, floor);
                let want = fresh(mode, cfg.clone(), &profile);
                let got = shared(&tables, mode, cfg, &profile);
                let label = format!("{scope:?}/{engine:?}/{floor:?}");
                assert_eq!(got.0, want.0, "{label}: report differs");
                assert_eq!(got.1, want.1, "{label}: trace differs");
                saved_somewhere |= !got.0.contains("energy_backup_saved: Energy(0.0)");
            }
        }
    }
    assert!(saved_somewhere, "no scoped run saved backup energy");
}

#[test]
fn an_explicit_plan_overrides_the_shared_placement() {
    let profile = bursty();
    let tables = Arc::new(KernelTables::new(spec()));
    // Every other checkpoint mask halved: a plan the synthesis never
    // produces, so reading the synthesized masks instead would show.
    let mut plan = tables.checkpoint_plan();
    for mask in plan.masks.iter_mut().step_by(2) {
        *mask &= 0x00FF;
    }
    let cfg = SystemConfig {
        checkpoint_plan: Some(plan),
        ..config(
            BackupScope::LiveDirty,
            ExecEngine::Compiled,
            StaticBitsFloor::Off,
        )
    };
    let mode = ExecMode::Precise;
    let want = fresh(mode, cfg.clone(), &profile);
    assert_eq!(shared(&tables, mode, cfg.clone(), &profile), want);
    let synthesized = shared(
        &tables,
        mode,
        SystemConfig {
            checkpoint_plan: None,
            ..cfg
        },
        &profile,
    );
    assert_ne!(synthesized.0, want.0, "the plan must change backup costs");
    let empty = CheckpointPlan {
        checkpoints: Vec::new(),
        masks: Vec::new(),
    };
    let cfg = SystemConfig {
        checkpoint_plan: Some(empty),
        ..config(
            BackupScope::LiveDirty,
            ExecEngine::Step,
            StaticBitsFloor::Off,
        )
    };
    assert_eq!(
        shared(&tables, mode, cfg.clone(), &profile),
        fresh(mode, cfg, &profile),
        "an empty plan degrades to full state either way"
    );
}

#[test]
fn one_arc_serves_different_modes_and_seeds() {
    let profile = bursty();
    let runs = [
        (ExecMode::Dynamic(Governor::new(2, 8)), 11),
        (
            ExecMode::Incidental(IncidentalSetup::new(4, 8).with_staleness(Ticks(200))),
            22,
        ),
        (ExecMode::Fixed(ApproxConfig::fixed(4)), 33),
    ];
    for scope in SCOPES {
        for engine in ENGINES {
            let tables = Arc::new(KernelTables::new(spec()));
            for (mode, seed) in runs {
                let cfg = SystemConfig {
                    seed,
                    ..config(scope, engine, StaticBitsFloor::Auto)
                };
                assert_eq!(
                    shared(&tables, mode, cfg.clone(), &profile),
                    fresh(mode, cfg, &profile),
                    "{scope:?}/{engine:?}/{mode:?}/seed {seed}"
                );
            }
        }
    }
}
