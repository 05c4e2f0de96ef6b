//! Cell-evaluation accounting across a cold run and a cached replay.
//!
//! `cells_computed` and `cells_shared` are process-global, so this file
//! holds a single test: no other test in the binary can move them.

use nvp_fleet::{
    cell_for_device, cells_computed, cells_shared, run_chunks, FleetAggregate, RunOptions,
    RunStatus, ScenarioSpec,
};
use std::collections::BTreeSet;

fn spec() -> ScenarioSpec {
    ScenarioSpec::parse(
        "fleet-spec-v1\n\
         devices = 1500\n\
         chunk = 256\n\
         seed = 4242\n\
         ms = 150\n\
         img = 8\n\
         frames = 1\n\
         members = 2\n\
         kernels = sobel*2, median, sobel\n\
         caps_nj = 2500, 3500, 2500\n\
         modes = precise, fixed:4\n",
    )
    .unwrap()
}

/// (Σ over chunks of the chunk's distinct cells, distinct cells overall),
/// counted through the direct sampling path.
fn expected_evaluations(spec: &ScenarioSpec) -> (u64, u64) {
    let mut per_chunk = 0;
    let mut overall = BTreeSet::new();
    for c in 0..spec.chunks() {
        let lo = c * spec.chunk;
        let hi = (lo + spec.chunk).min(spec.devices);
        let chunk: BTreeSet<String> = (lo..hi)
            .map(|d| cell_for_device(spec, d).canonical())
            .collect();
        per_chunk += chunk.len() as u64;
        overall.extend(chunk);
    }
    (per_chunk, overall.len() as u64)
}

fn run(jobs: usize) -> (u64, u64) {
    let (computed, shared) = (cells_computed(), cells_shared());
    let mut agg = FleetAggregate::new(spec());
    let opts = RunOptions {
        jobs,
        stop_after_chunks: None,
    };
    assert_eq!(run_chunks(&mut agg, opts, |_| {}), Ok(RunStatus::Complete));
    (cells_computed() - computed, cells_shared() - shared)
}

#[test]
fn cached_replay_computes_nothing_and_shares_every_chunk_cell() {
    let (per_chunk, overall) = expected_evaluations(&spec());
    assert!(
        per_chunk > overall,
        "the spec must repeat cells across chunks"
    );

    // Cold: each distinct cell is computed once (a worker that loses an
    // insert race counts as shared), and every chunk cell is one
    // evaluation.
    let (computed, shared) = run(4);
    assert_eq!(computed, overall);
    assert_eq!(computed + shared, per_chunk);

    // Warm: nothing is simulated, and every chunk's cells are answered
    // from the cache.
    for jobs in [1, 4] {
        assert_eq!(run(jobs), (0, per_chunk), "replay with jobs {jobs}");
    }
}
